//! Whole-encode bit-identity guard for the kernel fast paths.
//!
//! The optimized SAD/SATD fast paths, the flat search memo, the
//! lock-free DCT basis and the scratch-reuse encode loop must not
//! change a single encoded byte or motion decision. This test encodes
//! a deterministic phantom clip through configurations that exercise
//! every optimized code path (interior and boundary motion candidates,
//! early-terminated full search, hexagon/diamond policy searches,
//! chroma coding) and compares FNV-1a hashes of the bitstream and the
//! per-tile dominant motion fields against goldens captured from the
//! pre-optimization kernels.
//!
//! If an intentional behaviour change ever lands (new syntax, new
//! mode decision), regenerate the goldens by running the test with
//! `MEDVT_PRINT_HASHES=1` and updating the constants — but kernel
//! PRs must never need that.

use medvt::encoder::{
    encode_frame, encode_tile, EncoderConfig, FramePlan, Qp, SearchSpec, TileConfig, TileStats,
};
use medvt::frame::synth::{BodyPart, MotionPattern, PhantomVideo};
use medvt::frame::{Frame, FrameKind, Rect, Resolution, Tiling};
use medvt::motion::{MotionLevel, MotionVector, SearchWindow};

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Encodes a 7-frame pan sequence under `plan`, chaining each frame's
/// reconstruction as the next frame's reference, and returns
/// `(bitstream_hash, motion_hash)`.
fn encode_sequence(plan: &FramePlan, ecfg: &EncoderConfig) -> (u64, u64) {
    let video = PhantomVideo::builder(BodyPart::Cardiac)
        .resolution(Resolution::new(128, 96))
        .motion(MotionPattern::Pan { dx: 1.3, dy: -0.6 })
        .seed(77)
        .build();
    let mut byte_hash = FNV_OFFSET;
    let mut mv_hash = FNV_OFFSET;
    let mut prev: Option<Frame> = None;
    for poc in 0..7 {
        let frame = video.render(poc);
        let (kind, refs): (FrameKind, Vec<&Frame>) = match &prev {
            None => (FrameKind::Intra, vec![]),
            Some(r) => (FrameKind::Predicted, vec![r]),
        };
        let encoded = encode_frame(&frame, &refs, kind, poc, plan, ecfg);
        fnv1a(&mut byte_hash, &encoded.bytes);
        for mv in &encoded.dominant_mvs {
            fnv1a(&mut mv_hash, &mv.x.to_le_bytes());
            fnv1a(&mut mv_hash, &mv.y.to_le_bytes());
        }
        prev = Some(encoded.recon);
    }
    (byte_hash, mv_hash)
}

fn plan_mixed(frame: Rect) -> FramePlan {
    // 2x2 tiles with deliberately different search algorithms and
    // windows so boundary candidates, early-terminated exhaustive
    // search and the gradient-descent policies all run.
    let tiling = Tiling::uniform(frame, 2, 2);
    let configs = vec![
        TileConfig {
            qp: Qp::new(27).unwrap(),
            search: SearchSpec::Full,
            window: SearchWindow::W8,
        },
        TileConfig {
            qp: Qp::new(32).unwrap(),
            search: SearchSpec::Diamond,
            window: SearchWindow::W16,
        },
        TileConfig {
            qp: Qp::new(37).unwrap(),
            search: SearchSpec::default(), // hexagon-h
            window: SearchWindow::W32,
        },
        TileConfig {
            qp: Qp::new(22).unwrap(),
            search: SearchSpec::Tz,
            window: SearchWindow::W16,
        },
    ];
    FramePlan::new(tiling, configs)
}

#[test]
fn encoded_bytes_and_motion_fields_match_golden() {
    let frame_rect = Rect::frame(128, 96);
    let plan = plan_mixed(frame_rect);
    let ecfg = EncoderConfig::default();
    let (bytes_hash, mv_hash) = encode_sequence(&plan, &ecfg);
    if std::env::var("MEDVT_PRINT_HASHES").is_ok() {
        println!("bytes_hash = {bytes_hash:#018x}");
        println!("mv_hash    = {mv_hash:#018x}");
    }
    assert_eq!(
        bytes_hash, GOLDEN_BYTES_HASH,
        "encoded bitstream diverged from the pre-optimization kernels"
    );
    assert_eq!(
        mv_hash, GOLDEN_MV_HASH,
        "motion decisions diverged from the pre-optimization kernels"
    );
}

#[test]
fn luma_only_encode_matches_golden() {
    let frame_rect = Rect::frame(128, 96);
    let plan = plan_mixed(frame_rect);
    let ecfg = EncoderConfig {
        chroma: false,
        ..Default::default()
    };
    let (bytes_hash, _) = encode_sequence(&plan, &ecfg);
    if std::env::var("MEDVT_PRINT_HASHES").is_ok() {
        println!("luma_bytes_hash = {bytes_hash:#018x}");
    }
    assert_eq!(
        bytes_hash, GOLDEN_LUMA_BYTES_HASH,
        "luma-only bitstream diverged from the pre-optimization kernels"
    );
}

/// Encodes one whole-frame tile of the pan clip at `qp` and returns
/// `(bitstream_hash, stats)`. `Intra` codes frame 0; `BiPredicted`
/// codes frame 1 against the reconstructions of an intra frame 0 and
/// a predicted frame 2 (the shape of a random-access mini-GOP).
fn encode_single_tile(kind: FrameKind, qp: u8) -> (u64, TileStats) {
    let video = PhantomVideo::builder(BodyPart::Cardiac)
        .resolution(Resolution::new(128, 96))
        .motion(MotionPattern::Pan { dx: 1.3, dy: -0.6 })
        .seed(77)
        .build();
    let tile = Rect::frame(128, 96);
    let tcfg = TileConfig {
        qp: Qp::new(qp).unwrap(),
        search: SearchSpec::default(),
        window: SearchWindow::W16,
    };
    let ecfg = EncoderConfig::default();
    let plan = FramePlan::uniform(tile, 1, 1, tcfg);
    let outcome = match kind {
        FrameKind::Intra => encode_tile(&video.render(0), &[], kind, tile, &tcfg, &ecfg),
        _ => {
            let past = encode_frame(&video.render(0), &[], FrameKind::Intra, 0, &plan, &ecfg).recon;
            let future = encode_frame(
                &video.render(2),
                &[&past],
                FrameKind::Predicted,
                2,
                &plan,
                &ecfg,
            )
            .recon;
            encode_tile(
                &video.render(1),
                &[&past, &future],
                kind,
                tile,
                &tcfg,
                &ecfg,
            )
        }
    };
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, &outcome.bytes);
    (hash, outcome.stats)
}

/// QP 4 (step 1.0) on an intra tile: nearly every transform block
/// carries levels, so the residual coder's full path is what is pinned.
#[test]
fn fine_qp_intra_tile_matches_golden() {
    let (hash, stats) = encode_single_tile(FrameKind::Intra, 4);
    if std::env::var("MEDVT_PRINT_HASHES").is_ok() {
        println!("qp4_intra_hash = {hash:#018x}\n{stats:#?}");
    }
    assert_eq!(hash, GOLDEN_QP4_INTRA_HASH);
    assert_eq!(stats, GOLDEN_QP4_INTRA_STATS);
}

/// QP 42 on a two-reference B tile: nearly every transform block
/// quantizes to nothing, so the zero-block paths are what is pinned.
#[test]
fn coarse_qp_two_reference_b_tile_matches_golden() {
    let (hash, stats) = encode_single_tile(FrameKind::BiPredicted, 42);
    if std::env::var("MEDVT_PRINT_HASHES").is_ok() {
        println!("qp42_b_hash = {hash:#018x}\n{stats:#?}");
    }
    assert_eq!(hash, GOLDEN_QP42_B_HASH);
    assert_eq!(stats, GOLDEN_QP42_B_STATS);
}

/// Encodes `tile` of frame 1 of a `res` clip panning by `(dx, dy)` a
/// frame as a P tile predicted from the original frame 0, and returns
/// `(bitstream_hash, stats, dominant_mv)`.
fn encode_pan_tile(
    res: Resolution,
    tile: Rect,
    dx: f64,
    dy: f64,
) -> (u64, TileStats, MotionVector) {
    let video = PhantomVideo::builder(BodyPart::Cardiac)
        .resolution(res)
        .motion(MotionPattern::Pan { dx, dy })
        .seed(77)
        .build();
    let tcfg = TileConfig {
        qp: Qp::new(27).unwrap(),
        search: SearchSpec::default(),
        window: SearchWindow::W16,
    };
    let outcome = encode_tile(
        &video.render(1),
        &[&video.render(0)],
        FrameKind::Predicted,
        tile,
        &tcfg,
        &EncoderConfig::default(),
    );
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, &outcome.bytes);
    (hash, outcome.stats, outcome.dominant_mv)
}

/// A tile in the top-left frame corner of a clip panning right and
/// down (a small frame, so the anatomy rather than the flat vignette
/// fills the corner): the content's previous position lies up and
/// left, so the winning candidates of the five blocks on the frame
/// edge read off-frame, clamped reference samples — both in the search
/// and in motion compensation.
#[test]
fn frame_corner_pan_tile_matches_golden() {
    let (hash, stats, mv) =
        encode_pan_tile(Resolution::new(64, 48), Rect::new(0, 0, 48, 32), 3.0, 2.0);
    if std::env::var("MEDVT_PRINT_HASHES").is_ok() {
        println!("corner_pan_hash = {hash:#018x}\n{mv:?}\n{stats:#?}");
    }
    assert_eq!(mv, GOLDEN_CORNER_PAN_MV, "winners must point off-frame");
    assert_eq!(hash, GOLDEN_CORNER_PAN_HASH);
    assert_eq!(stats, GOLDEN_CORNER_PAN_STATS);
}

/// A tile whose width and height are 8 mod 16: its right column and
/// bottom row are 8-wide / 8-high edge blocks, so search, intra
/// decision and residual coding all run on 8x16, 16x8 and 8x8 blocks.
#[test]
fn tile_with_8_wide_edge_blocks_matches_golden() {
    let (hash, stats, mv) = encode_pan_tile(
        Resolution::new(128, 96),
        Rect::new(40, 24, 56, 40),
        1.3,
        -0.6,
    );
    if std::env::var("MEDVT_PRINT_HASHES").is_ok() {
        println!("edge8_hash = {hash:#018x}\n{mv:?}\n{stats:#?}");
    }
    assert_eq!(mv, GOLDEN_EDGE8_MV);
    assert_eq!(hash, GOLDEN_EDGE8_HASH);
    assert_eq!(stats, GOLDEN_EDGE8_STATS);
}

/// A `live_intra`-shaped tile — a still Bones frame, whole-frame intra
/// tile at the default QP: most transform blocks are elided from their
/// norms and about one in ten survives to run forward DCT, quantizer,
/// inverse DCT and reconstruction, the mix between the QP 4 ("almost
/// nothing elides") and QP 42 ("almost everything does") goldens.
#[test]
fn default_qp_still_bones_intra_tile_matches_golden() {
    let res = Resolution::new(320, 240);
    let video = PhantomVideo::builder(BodyPart::Bones)
        .resolution(res)
        .motion(MotionPattern::Still)
        .seed(2018)
        .build();
    let outcome = encode_tile(
        &video.render(0),
        &[],
        FrameKind::Intra,
        Rect::frame(res.width, res.height),
        &TileConfig::default(),
        &EncoderConfig::default(),
    );
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, &outcome.bytes);
    let mut recon_hash = FNV_OFFSET;
    for plane in [&outcome.recon_y, &outcome.recon_u, &outcome.recon_v] {
        fnv1a(&mut recon_hash, plane.samples());
    }
    if std::env::var("MEDVT_PRINT_HASHES").is_ok() {
        println!(
            "bones_intra_hash = {hash:#018x}\nbones_intra_recon_hash = {recon_hash:#018x}\n{:#?}",
            outcome.stats
        );
    }
    assert_eq!(hash, GOLDEN_BONES_INTRA_HASH);
    assert_eq!(recon_hash, GOLDEN_BONES_INTRA_RECON_HASH);
    assert_eq!(outcome.stats, GOLDEN_BONES_INTRA_STATS);
}

/// The three `live_inter` clips as the end-to-end benchmark renders
/// them: 320×240 at 24 fps, seeds 2018, 2019 and 2020.
fn live_inter_clips() -> [PhantomVideo; 3] {
    let clip = |part, motion: Option<MotionPattern>, k: u64| {
        let builder = PhantomVideo::builder(part)
            .resolution(Resolution::new(320, 240))
            .fps(24.0)
            .seed(2018 + k);
        match motion {
            Some(m) => builder.motion(m),
            None => builder,
        }
        .build()
    };
    [
        clip(
            BodyPart::Cardiac,
            Some(MotionPattern::Pan { dx: 2.0, dy: 1.0 }),
            0,
        ),
        clip(
            BodyPart::Brain,
            Some(MotionPattern::Pan { dx: 1.0, dy: 0.0 }),
            1,
        ),
        clip(BodyPart::LungChest, None, 2),
    ]
}

/// Frame 1 of `video` as a P frame predicted from frame 0, over the
/// 4×4 tiling at `TileConfig::default()` (hexagon-h, W64) — the live
/// path's search shape, where every tile of the frame's outer ring
/// searches candidates that reach off the frame. Returns the FNV of
/// all 16 tiles' bytes, their summed stats and the four corner tiles'
/// dominant vectors (top-left, top-right, bottom-left, bottom-right).
fn encode_live_inter_frame(video: &PhantomVideo) -> (u64, TileStats, [MotionVector; 4]) {
    let frame = Rect::frame(320, 240);
    let plan = FramePlan::uniform(frame, 4, 4, TileConfig::default());
    let encoded = encode_frame(
        &video.render(1),
        &[&video.render(0)],
        FrameKind::Predicted,
        1,
        &plan,
        &EncoderConfig::default(),
    );
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, &encoded.bytes);
    let mvs = &encoded.dominant_mvs;
    (
        hash,
        encoded.stats.total(),
        [mvs[0], mvs[3], mvs[12], mvs[15]],
    )
}

/// The W64 windows of the live path at every frame edge and corner,
/// on each `live_inter` clip.
#[test]
fn live_inter_frames_at_w64_match_golden() {
    for (k, video) in live_inter_clips().iter().enumerate() {
        let (hash, stats, corners) = encode_live_inter_frame(video);
        if std::env::var("MEDVT_PRINT_HASHES").is_ok() {
            println!("live_inter_{k}_hash = {hash:#018x}\n{corners:?}\n{stats:#?}");
        }
        let (want_hash, want_stats, want_corners) = &GOLDEN_LIVE_INTER[k];
        assert_eq!(hash, *want_hash, "clip {k}");
        assert_eq!(stats, *want_stats, "clip {k}");
        assert_eq!(corners, *want_corners, "clip {k}");
    }
}

/// A two-reference B tile in the top-left corner of a small panning
/// frame (anatomy, not the flat vignette, fills it) under each of the
/// four bio-medical policy variants: the policy's narrowed windows
/// (W16, W64, W8, W32 out of a W64 tile window) and two reference
/// windows per tile, both reaching off every frame edge.
#[test]
fn corner_b_tile_under_every_biomed_variant_matches_golden() {
    let video = PhantomVideo::builder(BodyPart::Cardiac)
        .resolution(Resolution::new(96, 64))
        .motion(MotionPattern::Pan { dx: 3.0, dy: 2.0 })
        .seed(77)
        .build();
    let (past, cur, future) = (video.render(0), video.render(1), video.render(2));
    let direction = MotionVector::new(-3, -2);
    let variants = [
        SearchSpec::biomed_first(MotionLevel::Low),
        SearchSpec::biomed_first(MotionLevel::High),
        SearchSpec::biomed_subsequent(MotionLevel::Low, direction),
        SearchSpec::biomed_subsequent(MotionLevel::High, direction),
    ];
    for (i, search) in variants.into_iter().enumerate() {
        let tcfg = TileConfig {
            search,
            ..TileConfig::default()
        };
        let outcome = encode_tile(
            &cur,
            &[&past, &future],
            FrameKind::BiPredicted,
            Rect::new(0, 0, 48, 32),
            &tcfg,
            &EncoderConfig::default(),
        );
        let mut hash = FNV_OFFSET;
        fnv1a(&mut hash, &outcome.bytes);
        if std::env::var("MEDVT_PRINT_HASHES").is_ok() {
            println!(
                "biomed_b_{i}_hash = {hash:#018x}\n{:?}\n{:#?}",
                outcome.dominant_mv, outcome.stats
            );
        }
        let (want_hash, want_mv, want_stats) = &GOLDEN_BIOMED_B[i];
        assert_eq!(hash, *want_hash, "{search:?}");
        assert_eq!(outcome.dominant_mv, *want_mv, "{search:?}");
        assert_eq!(outcome.stats, *want_stats, "{search:?}");
    }
}

// Captured from the seed kernels (per-pixel clamped SAD, HashMap memo,
// mutexed DCT basis, allocating encode loop) before the fast paths
// landed. The optimized kernels must reproduce them bit for bit.
const GOLDEN_BYTES_HASH: u64 = 0x8d73f24316b57bc2;
const GOLDEN_MV_HASH: u64 = 0x8559cc17348ab034;
const GOLDEN_LUMA_BYTES_HASH: u64 = 0x17244043249ef2f3;
// Captured on the commit before zero-block elision landed in the
// residual coder (every block through DCT, quantizer and inverse DCT).
const GOLDEN_QP4_INTRA_HASH: u64 = 0xb5b0e84546899399;
const GOLDEN_QP4_INTRA_STATS: TileStats = TileStats {
    rect: Rect::frame(128, 96),
    bits: 47525,
    luma_ssd: 1486,
    luma_samples: 12288,
    sad_samples: 0,
    transform_samples: 18432,
    intra_blocks: 48,
    inter_blocks: 0,
};
const GOLDEN_QP42_B_HASH: u64 = 0xcf195751c513bd4d;
const GOLDEN_QP42_B_STATS: TileStats = TileStats {
    rect: Rect::frame(128, 96),
    bits: 1040,
    luma_ssd: 361042,
    luma_samples: 12288,
    sad_samples: 321536,
    transform_samples: 18432,
    intra_blocks: 39,
    inter_blocks: 9,
};
// Captured on the commit before the block-granular kernels landed
// (per-row SAD dispatch, per-sample clamped candidates and motion
// compensation, all four intra predictions materialised).
const GOLDEN_CORNER_PAN_HASH: u64 = 0xcbe79b5e68e7ba1a;
const GOLDEN_CORNER_PAN_MV: MotionVector = MotionVector::new(-3, -2);
const GOLDEN_CORNER_PAN_STATS: TileStats = TileStats {
    rect: Rect::new(0, 0, 48, 32),
    bits: 108,
    luma_ssd: 2481,
    luma_samples: 1536,
    sad_samples: 22528,
    transform_samples: 2304,
    intra_blocks: 1,
    inter_blocks: 5,
};
const GOLDEN_EDGE8_HASH: u64 = 0x0a58ea3365d8a9f1;
const GOLDEN_EDGE8_MV: MotionVector = MotionVector::new(-1, 1);
const GOLDEN_EDGE8_STATS: TileStats = TileStats {
    rect: Rect::new(40, 24, 56, 40),
    bits: 1492,
    luma_ssd: 27952,
    luma_samples: 2240,
    sad_samples: 26304,
    transform_samples: 3360,
    intra_blocks: 0,
    inter_blocks: 12,
};
// Captured on the commit before the residual coder's surviving-block
// path got its fixed-size kernels (run-time-`n` DCT loops, `floor`
// quantizer, libm `round` reconstruction). Of the tile's 3 600
// transform blocks 210 survive elision (all luma: 17 % of the 8x8
// blocks) and 171 of those carry levels.
const GOLDEN_BONES_INTRA_HASH: u64 = 0x5b1a7c6c1459fb76;
const GOLDEN_BONES_INTRA_RECON_HASH: u64 = 0x3d62234c06ea9d9a;
const GOLDEN_BONES_INTRA_STATS: TileStats = TileStats {
    rect: Rect::frame(320, 240),
    bits: 13405,
    luma_ssd: 361908,
    luma_samples: 76800,
    sad_samples: 0,
    transform_samples: 115200,
    intra_blocks: 300,
    inter_blocks: 0,
};
// Captured on the commit before motion search read one reference
// window per tile (every off-frame candidate gathered its own clamped
// patch, motion compensation copied the prediction). The summed stats
// carry an empty rect: `FrameStats::total` starts from the default.
const GOLDEN_LIVE_INTER: [(u64, TileStats, [MotionVector; 4]); 3] = [
    (
        0x4ad42d37ab78b360,
        TileStats {
            rect: Rect::new(0, 0, 0, 0),
            bits: 5133,
            luma_ssd: 132530,
            luma_samples: 76800,
            sad_samples: 1095040,
            transform_samples: 115200,
            intra_blocks: 208,
            inter_blocks: 112,
        },
        [
            MotionVector::new(0, 0),
            MotionVector::new(2, 0),
            MotionVector::new(1, -2),
            MotionVector::new(-1, -2),
        ],
    ),
    (
        0x78287d837e54562a,
        TileStats {
            rect: Rect::new(0, 0, 0, 0),
            bits: 4863,
            luma_ssd: 111351,
            luma_samples: 76800,
            sad_samples: 1047424,
            transform_samples: 115200,
            intra_blocks: 182,
            inter_blocks: 138,
        },
        [
            MotionVector::new(0, 0),
            MotionVector::new(-1, 2),
            MotionVector::new(1, 2),
            MotionVector::new(2, 2),
        ],
    ),
    (
        0x7b9ea2e1aecbc354,
        TileStats {
            rect: Rect::new(0, 0, 0, 0),
            bits: 4691,
            luma_ssd: 118300,
            luma_samples: 76800,
            sad_samples: 1013632,
            transform_samples: 115200,
            intra_blocks: 193,
            inter_blocks: 127,
        },
        [
            MotionVector::new(0, 0),
            MotionVector::new(-1, -2),
            MotionVector::new(2, -1),
            MotionVector::new(0, 1),
        ],
    ),
];
const GOLDEN_BIOMED_B: [(u64, MotionVector, TileStats); 4] = [
    (
        0x3ad2432d8c9d9a34,
        MotionVector::new(3, 1),
        TileStats {
            rect: Rect::new(0, 0, 48, 32),
            bits: 132,
            luma_ssd: 2587,
            luma_samples: 1536,
            sad_samples: 57344,
            transform_samples: 2304,
            intra_blocks: 3,
            inter_blocks: 3,
        },
    ),
    (
        0x995868cd523e597b,
        MotionVector::new(3, 2),
        TileStats {
            rect: Rect::new(0, 0, 48, 32),
            bits: 127,
            luma_ssd: 2842,
            luma_samples: 1536,
            sad_samples: 76800,
            transform_samples: 2304,
            intra_blocks: 3,
            inter_blocks: 3,
        },
    ),
    (
        0x86ad1385be9d372b,
        MotionVector::new(-1, 0),
        TileStats {
            rect: Rect::new(0, 0, 48, 32),
            bits: 117,
            luma_ssd: 2834,
            luma_samples: 1536,
            sad_samples: 23040,
            transform_samples: 2304,
            intra_blocks: 3,
            inter_blocks: 3,
        },
    ),
    (
        0xad9cd24f41042380,
        MotionVector::new(-3, 0),
        TileStats {
            rect: Rect::new(0, 0, 48, 32),
            bits: 117,
            luma_ssd: 1882,
            luma_samples: 1536,
            sad_samples: 48128,
            transform_samples: 2304,
            intra_blocks: 3,
            inter_blocks: 3,
        },
    ),
];
