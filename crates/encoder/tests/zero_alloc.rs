//! Counting-allocator proof that the steady-state encode hot path is
//! allocation-free.
//!
//! A wrapping global allocator counts every `alloc`/`realloc` of the
//! calling thread (the harness runs tests on parallel threads, so a
//! process-wide count would see the neighbours). After a
//! warmup pass populates the scratch buffers (and the thread-local
//! search-memo pool), one full per-block encode iteration — motion
//! search, intra reference gather + bounded mode decision on the
//! original in place, motion compensation, luma + chroma residual
//! coding, reconstruction stitch — must perform **zero** heap
//! allocations. A second test
//! checks the same property at tile granularity: per-tile allocations
//! must not scale with the number of blocks in the tile — also at a QP
//! where the chroma blocks survive, on intra tiles (stride-0 DC chroma
//! prediction) and on inter ones, and for edge tiles at the W64 search
//! window, whose reference window is gathered once per tile into a
//! buffer the next edge tile reuses. A third runs every `SearchSpec`
//! variant, the bio-medical policy's nested narrowed context included,
//! on a warm thread and must see zero allocations. Two warm P tiles —
//! one whose every intra decision stops early, one whose chroma motion
//! compensation reaches off the plane — must allocate exactly what
//! their outputs alone do.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn count_event() {
    ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates verbatim to `System`, only adding a counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_event();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_event();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_event();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn alloc_events() -> u64 {
    ALLOC_EVENTS.with(Cell::get)
}

use medvt_encoder::bits::BitWriter;
use medvt_encoder::{
    code_residual_into, encode_tile_with_scratch, EncScratch, EncoderConfig, IntraMode, IntraRefs,
    Qp, ResidualScratch, SearchSpec, TileConfig, TxPath,
};
use medvt_frame::synth::{BodyPart, MotionPattern, PhantomVideo, ValueNoise};
use medvt_frame::{Frame, FrameKind, Plane, Rect, Resolution};
use medvt_motion::{
    Best, CostMetric, HexOrientation, MotionLevel, MotionVector, SearchContext, SearchResult,
    SearchWindow,
};

fn textured_plane(width: usize, height: usize, salt: usize) -> Plane {
    let mut p = Plane::new(width, height);
    for row in 0..height {
        for col in 0..width {
            p.set(col, row, ((col * 7 + row * 13 + salt * 31) % 256) as u8);
        }
    }
    p
}

/// One per-block encode iteration over caller-owned buffers — the loop
/// body of `encode_tile` expressed through the public kernels.
#[allow(clippy::too_many_arguments)]
fn block_iteration(
    cur: &Plane,
    reference: &Plane,
    recon: &mut Plane,
    block: Rect,
    writer: &mut BitWriter,
    orig: &mut Vec<u8>,
    pred: &mut Vec<u8>,
    planar: &mut Vec<u8>,
    inter_pred: &mut Vec<u8>,
    recon_block: &mut Vec<u8>,
    refs: &mut IntraRefs,
    rs: &mut ResidualScratch,
) -> u64 {
    // Motion search first: seeded best + a probe ring, early-terminated.
    let ctx = SearchContext::new(
        cur,
        reference,
        block,
        SearchWindow::W16,
        CostMetric::Sad,
        MotionVector::ZERO,
    );
    let mut best = Best::seeded(&ctx, &[MotionVector::ZERO]);
    for dy in -2i16..=2 {
        for dx in -2i16..=2 {
            best.try_candidate(&ctx, MotionVector::new(dx * 3, dy * 3));
        }
    }

    // Intra decision on the original read in place, bounded by the
    // inter cost; the winner's prediction is built only when intra wins.
    refs.regather(recon, &block, &cur.bounds());
    let bound = IntraRefs::sad_bound(best.cost as f64, 3.0);
    let original = (cur.span_from(block.x, block.y), cur.width());
    let intra_sad = match refs.score_modes(original, block.w, block.h, planar, bound) {
        Some(sads) => {
            let (mode, sad) = IntraMode::first_min(sads);
            if mode != IntraMode::Planar {
                refs.predict_into(mode, block.w, block.h, pred);
            }
            sad
        }
        None => 0,
    };

    // The packed original the residual coder takes.
    cur.copy_rect_into(&block, orig);

    // Motion compensation + luma and chroma-geometry residual coding.
    reference.copy_block_clamped_into(
        block.x as isize + best.mv.x as isize,
        block.y as isize + best.mv.y as isize,
        block.w,
        block.h,
        inter_pred,
    );
    let luma = code_residual_into(
        orig,
        inter_pred,
        block.w,
        block.h,
        8,
        Qp::new(32).unwrap(),
        TxPath::F64,
        writer,
        rs,
        recon_block,
    );
    recon.write_rect(&block, recon_block);
    let chroma = code_residual_into(
        &orig[..block.area() / 4],
        &inter_pred[..block.area() / 4],
        block.w / 2,
        block.h / 2,
        4,
        Qp::new(34).unwrap(),
        TxPath::F64,
        writer,
        rs,
        recon_block,
    );
    intra_sad + best.cost + luma.bits + chroma.bits
}

/// Heap allocations of one steady-state [`block_iteration`] on `block`
/// of a 96x96 plane pair, after two warmup iterations have grown every
/// buffer, the bit writer and the thread-local search-memo pool.
fn steady_state_allocations(block: Rect) -> u64 {
    let cur = textured_plane(96, 96, 1);
    let reference = textured_plane(96, 96, 2);
    let mut recon = Plane::new(96, 96);
    let mut writer = BitWriter::new();
    let (mut orig, mut pred, mut planar, mut inter_pred, mut recon_block) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut refs = IntraRefs::default();
    let mut rs = ResidualScratch::default();

    let mut run = |writer: &mut BitWriter| {
        writer.clear();
        block_iteration(
            &cur,
            &reference,
            &mut recon,
            block,
            writer,
            &mut orig,
            &mut pred,
            &mut planar,
            &mut inter_pred,
            &mut recon_block,
            &mut refs,
            &mut rs,
        )
    };

    let warm = run(&mut writer);
    let warm2 = run(&mut writer);
    assert_eq!(warm, warm2, "iteration must be deterministic");

    let before = alloc_events();
    let steady = run(&mut writer);
    let after = alloc_events();
    assert_eq!(steady, warm, "steady-state iteration changed results");
    after - before
}

#[test]
fn steady_state_block_iteration_allocates_nothing() {
    // 8 and 16 are the encoder's block sizes; 64 is the largest any
    // configuration accepts.
    for block in [
        Rect::new(40, 40, 8, 8),
        Rect::new(40, 40, 16, 16),
        Rect::new(16, 16, 64, 64),
    ] {
        assert_eq!(
            steady_state_allocations(block),
            0,
            "steady-state iteration of block {block} must not allocate"
        );
    }
}

/// Blocks in the frame corners: the probe ring reaches up to 6 samples
/// off the frame on two sides, so those candidates gather a clamped
/// reference patch (a stack buffer) and motion compensation may read
/// off-frame too; neither intra edge exists at the top-left corner.
#[test]
fn boundary_blocks_with_off_frame_candidates_allocate_nothing() {
    for block in [Rect::new(0, 0, 16, 16), Rect::new(80, 80, 16, 16)] {
        assert_eq!(
            steady_state_allocations(block),
            0,
            "steady-state iteration of boundary block {block} must not allocate"
        );
    }
}

/// `(cur, reference)` over a smooth, non-periodic texture, the current
/// plane showing the reference content moved by `(dx, dy)`.
fn smooth_shifted_planes(dx: isize, dy: isize) -> (Plane, Plane) {
    let noise = ValueNoise::new(0xBEEF);
    let mut reference = Plane::new(96, 96);
    for row in 0..96 {
        for col in 0..96 {
            let v = 30.0 + 200.0 * noise.fractal(col as f64, row as f64, 1.0 / 20.0, 2);
            reference.set(col, row, v.clamp(0.0, 255.0) as u8);
        }
    }
    let mut cur = Plane::new(96, 96);
    for row in 0..96 {
        for col in 0..96 {
            let v = reference.get_clamped(col as isize - dx, row as isize - dy);
            cur.set(col, row, v);
        }
    }
    (cur, reference)
}

#[test]
fn every_search_spec_searches_without_allocating_once_warm() {
    let mut specs = vec![
        SearchSpec::Full,
        SearchSpec::ThreeStep,
        SearchSpec::Diamond,
        SearchSpec::Cross,
        SearchSpec::OneAtATime,
        SearchSpec::Hexagon(HexOrientation::Horizontal),
        SearchSpec::Hexagon(HexOrientation::Vertical),
        SearchSpec::Hexagon(HexOrientation::Rotating),
        SearchSpec::Tz,
    ];
    for level in [MotionLevel::Low, MotionLevel::High] {
        specs.push(SearchSpec::biomed_first(level));
        specs.push(SearchSpec::biomed_subsequent(
            level,
            MotionVector::new(-3, 1),
        ));
    }
    // (1, 1) is small motion; at (15, 0) TZ's stride-16 ring improves
    // on the start, so its best zonal distance exceeds the raster
    // stride and the raster sweep runs (checked below).
    let planes = [smooth_shifted_planes(1, 1), smooth_shifted_planes(15, 0)];
    let block = Rect::new(40, 40, 16, 16);
    let search_all = |out: &mut Vec<SearchResult>| {
        out.clear();
        for (cur, reference) in &planes {
            for spec in &specs {
                let ctx = SearchContext::new(
                    cur,
                    reference,
                    block,
                    SearchWindow::W32,
                    CostMetric::Sad,
                    MotionVector::ZERO,
                );
                out.push(spec.search(&ctx));
            }
        }
    };

    // The warm pass grows the thread-local memo pool, one buffer per
    // nesting level.
    let mut warm = Vec::new();
    search_all(&mut warm);
    // Without its raster sweep, TZ evaluates 50 distinct candidates on
    // the far shift; the sweep's 7x7 grid brings that to 96.
    let tz_far = warm[specs.len() + 8];
    assert_eq!(specs[8], SearchSpec::Tz);
    assert_eq!(
        (tz_far.mv, tz_far.evaluations),
        (MotionVector::new(-15, 0), 96)
    );
    let mut steady = Vec::with_capacity(warm.len());
    let before = alloc_events();
    search_all(&mut steady);
    let after = alloc_events();
    assert_eq!(steady, warm, "searches must be deterministic");
    assert_eq!(after - before, 0, "a warm search must not allocate");
}

#[test]
fn first_textured_block_after_elided_ones_allocates_nothing() {
    // Four 8x8 blocks in a row. The warmup region predicts perfectly,
    // so every block is elided and no transform stage ever runs; the
    // measured region ends in a textured block that needs them all.
    let qp = Qp::new(32).unwrap();
    let prediction = vec![100u8; 32 * 8];
    let mut textured = prediction.clone();
    for row in 0..8 {
        for col in 24..32 {
            textured[row * 32 + col] = ((col * 37 + row * 91) % 256) as u8;
        }
    }
    let mut writer = BitWriter::new();
    let run =
        |original: &[u8], writer: &mut BitWriter, rs: &mut ResidualScratch, recon: &mut Vec<u8>| {
            writer.clear();
            code_residual_into(
                original,
                &prediction,
                32,
                8,
                8,
                qp,
                TxPath::F64,
                writer,
                rs,
                recon,
            )
        };
    // Process-wide lazy tables (DCT basis, zigzag scan) and the
    // writer's buffer are grown through a throwaway scratch, so the
    // scratch under test has still seen nothing but elided blocks.
    run(
        &textured,
        &mut writer,
        &mut ResidualScratch::default(),
        &mut Vec::new(),
    );
    let mut rs = ResidualScratch::default();
    let mut recon = Vec::new();

    let warm = run(&prediction, &mut writer, &mut rs, &mut recon);
    assert_eq!((warm.elided_blocks, warm.bits), (4, 4));

    let before = alloc_events();
    let out = run(&textured, &mut writer, &mut rs, &mut recon);
    let after = alloc_events();
    assert_eq!(
        out.elided_blocks, 3,
        "the flat blocks must take the fast path"
    );
    assert_eq!(
        out.zero_level_blocks, 3,
        "the textured block must carry levels"
    );
    assert!(out.bits > 64);
    assert_eq!(
        after - before,
        0,
        "the first non-elided block after a run of elided ones must not allocate"
    );
}

#[test]
fn per_tile_allocations_do_not_scale_with_block_count() {
    let video = PhantomVideo::builder(BodyPart::Brain)
        .resolution(Resolution::new(128, 128))
        .motion(MotionPattern::Pan { dx: 1.0, dy: 0.5 })
        .seed(9)
        .build();
    let f0 = video.render(0);
    let f1 = video.render(1);
    let refs: Vec<&Frame> = vec![&f0];
    let tcfg = TileConfig {
        qp: Qp::new(32).unwrap(),
        search: SearchSpec::Diamond,
        window: SearchWindow::W16,
    };
    let ecfg = EncoderConfig::default();
    let mut scratch = EncScratch::new();

    let mut measure = |tile: Rect| {
        // Warmup growing scratch for this geometry, then measure.
        encode_tile_with_scratch(
            &f1,
            &refs,
            FrameKind::Predicted,
            tile,
            &tcfg,
            &ecfg,
            &mut scratch,
        );
        let before = alloc_events();
        encode_tile_with_scratch(
            &f1,
            &refs,
            FrameKind::Predicted,
            tile,
            &tcfg,
            &ecfg,
            &mut scratch,
        );
        alloc_events() - before
    };

    let small = measure(Rect::new(0, 0, 32, 32)); // 4 blocks
    let large = measure(Rect::new(0, 0, 128, 128)); // 64 blocks
                                                    // Per-tile outputs (recon planes, bitstream) still allocate, but
                                                    // 16x the blocks must not mean 16x the allocations — the per-block
                                                    // path is scratch-backed. The slack covers bitstream buffer
                                                    // doubling on the larger output.
    assert!(
        large <= small + 24,
        "per-tile allocations scale with block count: {small} allocs for 4 blocks, \
         {large} for 64"
    );
}

/// Allocations of one warm `encode_tile_with_scratch` call on `tile`.
fn warm_tile_allocations(
    frame: &Frame,
    refs: &[&Frame],
    kind: FrameKind,
    tile: Rect,
    tcfg: &TileConfig,
    ecfg: &EncoderConfig,
    scratch: &mut EncScratch,
) -> u64 {
    encode_tile_with_scratch(frame, refs, kind, tile, tcfg, ecfg, scratch);
    let before = alloc_events();
    encode_tile_with_scratch(frame, refs, kind, tile, tcfg, ecfg, scratch);
    alloc_events() - before
}

#[test]
fn surviving_chroma_and_dc_chroma_allocate_per_tile_not_per_block() {
    // QP 4 (step 1): the 4x4 chroma blocks carry levels, so the
    // surviving-block stages run on strided chroma operands. An intra
    // tile predicts chroma as one repeated DC row (stride 0); a P tile
    // from a motion-compensated chroma block.
    let frame = |salt: usize| {
        let mut f = Frame::black(Resolution::new(128, 128));
        *f.y_mut() = textured_plane(128, 128, 3 * salt);
        *f.u_mut() = textured_plane(64, 64, 3 * salt + 1);
        *f.v_mut() = textured_plane(64, 64, 3 * salt + 2);
        f
    };
    let (f0, f1) = (frame(0), frame(1));
    let tcfg = TileConfig {
        qp: Qp::new(4).unwrap(),
        search: SearchSpec::Diamond,
        window: SearchWindow::W16,
    };
    let ecfg = EncoderConfig::default();
    let luma_only = EncoderConfig {
        chroma: false,
        ..EncoderConfig::default()
    };
    let mut scratch = EncScratch::new();
    for (kind, refs) in [
        (FrameKind::Intra, vec![]),
        (FrameKind::Predicted, vec![&f0]),
    ] {
        let tile = Rect::new(0, 0, 128, 128);
        let bits = |ecfg: &EncoderConfig| {
            encode_tile_with_scratch(&f1, &refs, kind, tile, &tcfg, ecfg, &mut EncScratch::new())
                .stats
                .bits
        };
        // An elided chroma block costs one bit; these cost many more.
        let chroma_blocks = 2 * (128 / 8) * (128 / 8);
        assert!(
            bits(&ecfg) - bits(&luma_only) > 8 * chroma_blocks,
            "{kind:?}: chroma blocks must survive at QP 4"
        );
        let mut measure =
            |tile| warm_tile_allocations(&f1, &refs, kind, tile, &tcfg, &ecfg, &mut scratch);
        let small = measure(Rect::new(0, 0, 32, 32)); // 4 blocks
        let large = measure(tile); // 64 blocks
        assert!(
            large <= small + 24,
            "{kind:?}: per-tile allocations scale with block count: {small} allocs \
             for 4 blocks, {large} for 64"
        );
    }
}

/// Edge P tiles at the live path's W64 window: a tile within the
/// search radius of a frame edge gathers one reference window per tile
/// into `EncScratch`, so its allocations do not scale with its blocks,
/// and a second edge tile of the same size finds the window buffer
/// already grown.
#[test]
fn edge_tiles_at_w64_gather_one_reused_window_per_tile() {
    let video = PhantomVideo::builder(BodyPart::Brain)
        .resolution(Resolution::new(192, 128))
        .motion(MotionPattern::Pan { dx: 2.0, dy: 1.0 })
        .seed(9)
        .build();
    let (f0, f1) = (video.render(0), video.render(1));
    let refs: Vec<&Frame> = vec![&f0];
    let tcfg = TileConfig {
        qp: Qp::new(32).unwrap(),
        ..TileConfig::default()
    };
    assert_eq!(tcfg.window, SearchWindow::W64);
    let ecfg = EncoderConfig::default();
    let kind = FrameKind::Predicted;

    let mut scratch = EncScratch::new();
    let mut measure =
        |tile| warm_tile_allocations(&f1, &refs, kind, tile, &tcfg, &ecfg, &mut scratch);
    let small = measure(Rect::new(0, 0, 32, 32)); // 4 blocks
    let large = measure(Rect::new(0, 0, 128, 128)); // 64 blocks
    assert!(
        large <= small + 24,
        "per-tile allocations scale with block count: {small} allocs for 4 blocks, \
         {large} for 64"
    );

    // A fresh scratch warmed on an interior tile, whose W64 range lies
    // inside the frame so it reads the plane itself. Every chroma block
    // of that tile is read in place and every intra winner of it is
    // planar, so the first edge tile allocates three buffers once
    // each: its window, the gather of a chroma block off the plane,
    // and a non-planar intra winner's prediction. A second edge tile
    // of the same size, in the opposite corner, allocates exactly what
    // its own warm re-encode does.
    let mut scratch = EncScratch::new();
    let mut encode = |tile| {
        let before = alloc_events();
        encode_tile_with_scratch(&f1, &refs, kind, tile, &tcfg, &ecfg, &mut scratch);
        alloc_events() - before
    };
    let interior = Rect::new(64, 32, 64, 64);
    encode(interior);
    encode(interior);
    let (first, second) = (Rect::new(0, 0, 64, 64), Rect::new(128, 64, 64, 64));
    let first_cold = encode(first);
    let first_warm = encode(first);
    assert_eq!(
        first_cold,
        first_warm + 3,
        "the first edge tile must allocate its window, chroma gather and intra \
         prediction buffers, once each"
    );
    let second_cold = encode(second);
    let second_warm = encode(second);
    assert_eq!(
        second_cold, second_warm,
        "a second edge tile of the same size must reuse the window buffer"
    );
}

#[test]
fn into_kernels_are_allocation_free_once_warm() {
    let qp = Qp::new(27).unwrap();
    let input: Vec<i32> = (0..64).map(|i| (i * 19 % 255) - 127).collect();
    let (mut coeffs, mut tmp, mut levels, mut rec) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut refs = IntraRefs::default();
    let plane = textured_plane(32, 32, 3);
    let mut edge = Vec::new();

    // Warmup.
    medvt_encoder::transform::forward_into(8, &input, &mut coeffs, &mut tmp);
    medvt_encoder::quant::quantize_into(&coeffs, qp, &mut levels);
    medvt_encoder::quant::dequantize_into(&levels, qp, &mut rec);
    refs.regather(&plane, &Rect::new(8, 8, 8, 8), &plane.bounds());
    refs.predict_into(IntraMode::Planar, 8, 8, &mut edge);

    let before = alloc_events();
    medvt_encoder::transform::forward_into(8, &input, &mut coeffs, &mut tmp);
    medvt_encoder::quant::quantize_into(&coeffs, qp, &mut levels);
    medvt_encoder::quant::dequantize_into(&levels, qp, &mut rec);
    refs.regather(&plane, &Rect::new(8, 8, 8, 8), &plane.bounds());
    refs.predict_into(IntraMode::Planar, 8, 8, &mut edge);
    assert_eq!(
        alloc_events() - before,
        0,
        "warm _into kernels must not allocate"
    );
}

/// Allocations of a tile's outputs alone: its three reconstruction
/// planes and a bitstream of `bits` bits. The writer flushes whole
/// 32-bit words, so its buffer grows the same way whatever the bits are.
fn output_allocations(tile: Rect, bits: u64) -> u64 {
    let before = alloc_events();
    let planes = [
        Plane::new(tile.w, tile.h),
        Plane::new(tile.w / 2, tile.h / 2),
        Plane::new(tile.w / 2, tile.h / 2),
    ];
    let mut writer = BitWriter::new();
    for _ in 0..bits / 32 {
        writer.write_bits(0, 32);
    }
    writer.write_bits(0, (bits % 32) as u8);
    let bytes = writer.into_bytes();
    let events = alloc_events() - before;
    drop((planes, bytes));
    events
}

/// A frame whose three planes are textured by `salt`.
fn textured_frame(salt: usize) -> Frame {
    let mut f = Frame::black(Resolution::new(128, 128));
    *f.y_mut() = textured_plane(128, 128, 3 * salt);
    *f.u_mut() = textured_plane(64, 64, 3 * salt + 1);
    *f.v_mut() = textured_plane(64, 64, 3 * salt + 2);
    f
}

/// A static P tile: the reference is the frame itself, so every block
/// matches at the zero vector with SAD 0, its inter cost is the intra
/// header's `3λ`, and the intra pass's bound is 0 — each decision
/// stops at its first four-row boundary. Warm, the tile allocates only
/// its outputs.
#[test]
fn p_tile_whose_intra_decisions_stop_early_allocates_only_its_outputs() {
    let frame = textured_frame(0);
    let tcfg = TileConfig {
        qp: Qp::new(32).unwrap(),
        search: SearchSpec::Diamond,
        window: SearchWindow::W16,
    };
    let ecfg = EncoderConfig::default();
    let tile = Rect::new(32, 32, 64, 64);
    for lambda in [0.5, 12.25, 300.0] {
        assert_eq!(IntraRefs::sad_bound(3.0 * lambda, 3.0 * lambda), 0);
    }
    let mut refs = IntraRefs::default();
    refs.regather(frame.y(), &Rect::new(48, 48, 16, 16), &tile);
    let original = (frame.y().span_from(48, 48), frame.y().width());
    assert_eq!(refs.score_modes(original, 16, 16, &mut Vec::new(), 0), None);

    let mut scratch = EncScratch::new();
    let refs = [&frame];
    let allocations = warm_tile_allocations(
        &frame,
        &refs,
        FrameKind::Predicted,
        tile,
        &tcfg,
        &ecfg,
        &mut scratch,
    );
    let outcome = encode_tile_with_scratch(
        &frame,
        &refs,
        FrameKind::Predicted,
        tile,
        &tcfg,
        &ecfg,
        &mut scratch,
    );
    assert_eq!(
        (outcome.stats.inter_blocks, outcome.stats.intra_blocks),
        (16, 0)
    );
    assert_eq!(allocations, output_allocations(tile, outcome.stats.bits));
}

/// A corner P tile of one 16x16 block whose content moved by (2, 2):
/// its vector is (−2, −2), so its chroma block is displaced by (−1, −1)
/// off the reference chroma planes and gathered with edge replication
/// into scratch. Warm, the tile allocates only its outputs.
#[test]
fn p_tile_whose_chroma_mc_reaches_off_the_plane_allocates_only_its_outputs() {
    let reference = textured_frame(1);
    let moved = |src: &Plane, shift: isize| {
        let mut dst = Plane::new(src.width(), src.height());
        for row in 0..src.height() {
            for col in 0..src.width() {
                let v = src.get_clamped(col as isize - shift, row as isize - shift);
                dst.set(col, row, v);
            }
        }
        dst
    };
    let mut frame = Frame::black(Resolution::new(128, 128));
    *frame.y_mut() = moved(reference.y(), 2);
    *frame.u_mut() = moved(reference.u(), 1);
    *frame.v_mut() = moved(reference.v(), 1);
    let tcfg = TileConfig {
        qp: Qp::new(32).unwrap(),
        search: SearchSpec::Diamond,
        window: SearchWindow::W16,
    };
    let ecfg = EncoderConfig::default();
    let tile = Rect::new(0, 0, 16, 16);
    let mut scratch = EncScratch::new();
    let refs = [&reference];
    let allocations = warm_tile_allocations(
        &frame,
        &refs,
        FrameKind::Predicted,
        tile,
        &tcfg,
        &ecfg,
        &mut scratch,
    );
    let outcome = encode_tile_with_scratch(
        &frame,
        &refs,
        FrameKind::Predicted,
        tile,
        &tcfg,
        &ecfg,
        &mut scratch,
    );
    assert_eq!(outcome.stats.inter_blocks, 1);
    assert_eq!(outcome.dominant_mv, MotionVector::new(-2, -2));
    assert_eq!(allocations, output_allocations(tile, outcome.stats.bits));
}
