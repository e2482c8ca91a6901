//! Independent tile encoding: mode decision, motion estimation,
//! residual coding and local reconstruction for one tile of one frame.
//!
//! Tiles are the unit of parallelism (paper §II-C): no prediction state
//! crosses tile boundaries within a picture, so every tile of a frame
//! can be encoded on a different core. Motion compensation may read
//! anywhere in the *reference* pictures, as in HEVC.

use crate::bits::{se_len, BitWriter};
use crate::block::code_residual_strided;
use crate::config::{EncoderConfig, TileConfig};
use crate::intra::{IntraMode, IntraRefs, MAX_SIDE};
use crate::scratch::EncScratch;
use crate::stats::TileStats;
use medvt_frame::{Frame, FrameKind, Plane, Rect};
use medvt_motion::{MotionVector, RefWindow, SearchContext};
use std::cell::RefCell;

/// Reference frames a tile may predict from: the block header codes
/// the reference index in one bit.
pub(crate) const MAX_REFS: usize = 2;

/// Everything produced by encoding one tile.
#[derive(Debug, Clone)]
pub struct TileOutcome {
    /// Operation counts, bits and distortion.
    pub stats: TileStats,
    /// The tile's slice of the bitstream (byte-aligned).
    pub bytes: Vec<u8>,
    /// Reconstructed luma, tile-local coordinates.
    pub recon_y: Plane,
    /// Reconstructed Cb, tile-local.
    pub recon_u: Plane,
    /// Reconstructed Cr, tile-local.
    pub recon_v: Plane,
    /// Median motion vector of the tile's inter blocks — inherited by
    /// later GOP frames (paper §III-C2).
    pub dominant_mv: MotionVector,
}

thread_local! {
    /// Per-thread scratch backing [`encode_tile`]; persistent worker
    /// threads (the runtime pool) reuse it across every tile they
    /// encode.
    static TILE_SCRATCH: RefCell<EncScratch> = RefCell::new(EncScratch::new());
}

/// Encodes one tile.
///
/// `refs` holds the reconstructed reference frames (empty for intra
/// frames; one for P, two for B). The tile rectangle must be aligned to
/// an 8-sample grid so luma 8x8 and chroma 4x4 transforms always fit.
///
/// Per-block working memory comes from a thread-local [`EncScratch`],
/// so steady-state encoding allocates only the per-tile outputs
/// (reconstruction planes and bitstream); use
/// [`encode_tile_with_scratch`] to manage the scratch explicitly.
///
/// # Panics
///
/// Panics when the tile is unaligned, outside the frame, or `refs` is
/// empty for an inter frame kind.
pub fn encode_tile(
    original: &Frame,
    refs: &[&Frame],
    kind: FrameKind,
    tile: Rect,
    tcfg: &TileConfig,
    ecfg: &EncoderConfig,
) -> TileOutcome {
    TILE_SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut scratch) => {
            encode_tile_with_scratch(original, refs, kind, tile, tcfg, ecfg, &mut scratch)
        }
        // Unreachable in practice (tile encoding does not re-enter),
        // but a fresh scratch is always a safe fallback.
        Err(_) => encode_tile_with_scratch(
            original,
            refs,
            kind,
            tile,
            tcfg,
            ecfg,
            &mut EncScratch::new(),
        ),
    })
}

/// [`encode_tile`] with caller-owned scratch buffers — bit-identical
/// output, but the caller controls buffer reuse (e.g. one scratch per
/// worker thread held across frames).
///
/// # Panics
///
/// Panics when the tile is unaligned, outside the frame, or `refs` is
/// empty for an inter frame kind or holds more than two frames, and
/// when `ecfg.block_size` is above 64 (the bound
/// [`EncoderConfig::validate`] enforces).
pub fn encode_tile_with_scratch(
    original: &Frame,
    refs: &[&Frame],
    kind: FrameKind,
    tile: Rect,
    tcfg: &TileConfig,
    ecfg: &EncoderConfig,
    scratch: &mut EncScratch,
) -> TileOutcome {
    assert!(
        tile.x.is_multiple_of(8)
            && tile.y.is_multiple_of(8)
            && tile.w.is_multiple_of(8)
            && tile.h.is_multiple_of(8),
        "tile {tile} must align to the 8-sample grid"
    );
    assert!(
        original.y().bounds().contains_rect(&tile),
        "tile {tile} outside frame"
    );
    assert!(!tile.is_empty(), "tile must be non-empty");
    assert!(
        ecfg.block_size <= MAX_SIDE,
        "block size {} above {MAX_SIDE}",
        ecfg.block_size
    );
    let inter = kind.is_inter() && !refs.is_empty();
    if kind.is_inter() {
        assert!(!refs.is_empty(), "inter frame requires reference frames");
    }
    assert!(
        refs.len() <= MAX_REFS,
        "{} reference frames, at most {MAX_REFS}",
        refs.len()
    );

    let mut stats = TileStats::new(tile);
    let mut writer = BitWriter::new();
    let mut recon_y = Plane::new(tile.w, tile.h);
    let mut recon_u = Plane::new(tile.w / 2, tile.h / 2);
    let mut recon_v = Plane::new(tile.w / 2, tile.h / 2);
    let lambda = tcfg.qp.lambda();
    let mut prev_mv = MotionVector::ZERO;

    // Split the scratch into independent per-buffer borrows once.
    let EncScratch {
        residual,
        intra_pred,
        planar,
        ref_windows,
        luma_refs,
        chroma_pred,
        inter_mvs,
        mv_xs,
        mv_ys,
    } = scratch;
    inter_mvs.clear();

    // One reference window per reference: every block search of the
    // tile and its luma motion compensation read from it. Only a tile
    // within the search radius of a frame edge gathers one.
    let window = |i: usize, buf| {
        refs.get(i)
            .filter(|_| inter)
            .map(|r| RefWindow::around(r.y(), tile, tcfg.window, buf))
    };
    let [buf0, buf1] = ref_windows;
    let windows = [window(0, buf0), window(1, buf1)];

    let luma = original.y();
    let intra_overhead = lambda * (1 + 2) as f64; // mode flag + intra mode index
    let bs = ecfg.block_size;
    let tile_local = Rect::frame(tile.w, tile.h);
    let mut by = 0;
    while by < tile.h {
        let bh = bs.min(tile.h - by);
        let mut bx = 0;
        while bx < tile.w {
            let bw = bs.min(tile.w - bx);
            let abs_block = Rect::new(tile.x + bx, tile.y + by, bw, bh);
            let rel_block = Rect::new(bx, by, bw, bh);
            // The original block, read in place in its frame.
            let orig_block = (luma.span_from(abs_block.x, abs_block.y), luma.width());

            // Inter candidate first: its cost bounds the intra pass.
            let mut inter_choice: Option<(usize, MotionVector, u64)> = None;
            for (ref_idx, &window) in windows.iter().flatten().enumerate() {
                let ctx = SearchContext::windowed(luma, window, abs_block, tcfg.window, prev_mv);
                let r = tcfg.search.search(&ctx);
                stats.sad_samples += r.evaluations * abs_block.area() as u64;
                if inter_choice.is_none_or(|(_, _, cost)| r.cost < cost) {
                    inter_choice = Some((ref_idx, r.mv, r.cost));
                }
            }
            let inter_cost = inter_choice.map(|(_, mv, sad)| {
                let mvd = mv - prev_mv;
                let header =
                    1 + u64::from(refs.len() > 1) + se_len(mvd.x as i32) + se_len(mvd.y as i32);
                sad as f64 + lambda * header as f64
            });

            // Intra candidate (always available), scored only as far as
            // it can still beat inter: `None` once it cannot.
            luma_refs.regather(&recon_y, &rel_block, &tile_local);
            let bound = inter_cost.map_or(u64::MAX, |c| IntraRefs::sad_bound(c, intra_overhead));
            let intra = luma_refs
                .score_modes(orig_block, bw, bh, planar, bound)
                .map(IntraMode::first_min)
                .filter(|&(_, sad)| inter_cost.is_none_or(|c| sad as f64 + intra_overhead < c));

            // The inter candidate, kept only when it won.
            let inter_choice = inter_choice.filter(|_| intra.is_none());

            let prediction = match (intra, inter_choice) {
                (Some((mode, _)), _) => {
                    writer.write_bit(false);
                    writer.write_bits(mode.index(), 2);
                    stats.intra_blocks += 1;
                    // Planar's rows are the pass's own; any other
                    // winner is built now that it has won.
                    if mode == IntraMode::Planar {
                        (&planar[..], bw)
                    } else {
                        luma_refs.predict_into(mode, bw, bh, intra_pred);
                        (&intra_pred[..], bw)
                    }
                }
                (None, Some((ref_idx, mv, _))) => {
                    let window = windows[ref_idx].expect("inter tiles have a window per reference");
                    let prediction = window
                        .span(&abs_block, mv)
                        .expect("the chosen vector lies in the tile's window");
                    // Header: inter flag, ref index, MV difference.
                    writer.write_bit(true);
                    if refs.len() > 1 {
                        writer.write_bit(ref_idx == 1);
                    }
                    let mvd = mv - prev_mv;
                    writer.write_se(mvd.x as i32);
                    writer.write_se(mvd.y as i32);
                    prev_mv = mv;
                    inter_mvs.push(mv);
                    stats.inter_blocks += 1;
                    prediction
                }
                (None, None) => unreachable!("an unbounded intra pass always decides"),
            };

            // Luma residual (8x8 transforms always fit: bw/bh are
            // multiples of 8 given grid alignment), reconstructed in
            // place.
            let coded = code_residual_strided(
                orig_block,
                prediction,
                (&mut recon_y.samples_mut()[by * tile.w + bx..], tile.w),
                bw,
                bh,
                8,
                tcfg.qp,
                &mut writer,
                residual,
            );
            stats.luma_ssd += coded.ssd;
            stats.transform_samples += coded.transform_samples;

            // Chroma (4:2:0): collocated block at half geometry, read
            // from the frame and reconstructed in place.
            if ecfg.chroma {
                let cw = bw / 2;
                let ch = bh / 2;
                let c_abs = Rect::new(abs_block.x / 2, abs_block.y / 2, cw, ch);
                let c_rel = Rect::new(rel_block.x / 2, rel_block.y / 2, cw, ch);
                let c_stride = tile.w / 2;
                for (plane_idx, (orig_c, recon_c)) in
                    [(original.u(), &mut recon_u), (original.v(), &mut recon_v)]
                        .into_iter()
                        .enumerate()
                {
                    // Chroma intra is DC straight from the chroma recon
                    // edges: one row of it, repeated (stride 0).
                    let dc_row;
                    let prediction = match inter_choice {
                        Some((ref_idx, mv, _)) => {
                            let rf = refs[ref_idx];
                            let plane = if plane_idx == 0 { rf.u() } else { rf.v() };
                            let (x, y) = (
                                c_abs.x as isize + (mv.x / 2) as isize,
                                c_abs.y as isize + (mv.y / 2) as isize,
                            );
                            // In place unless it reaches off the plane.
                            plane.view_or_gather(x, y, cw, ch, chroma_pred)
                        }
                        None => {
                            let c_tile = Rect::frame(c_stride, tile.h / 2);
                            dc_row = [IntraRefs::dc_level(recon_c, &c_rel, &c_tile); MAX_SIDE / 2];
                            (&dc_row[..cw], 0)
                        }
                    };
                    let coded_c = code_residual_strided(
                        (orig_c.span_from(c_abs.x, c_abs.y), orig_c.width()),
                        prediction,
                        (
                            &mut recon_c.samples_mut()[c_rel.y * c_stride + c_rel.x..],
                            c_stride,
                        ),
                        cw,
                        ch,
                        4,
                        tcfg.qp,
                        &mut writer,
                        residual,
                    );
                    stats.transform_samples += coded_c.transform_samples;
                }
            }
            bx += bw;
        }
        by += bh;
    }

    stats.bits = writer.bits_written();
    let dominant_mv = median_mv_with(inter_mvs, mv_xs, mv_ys);
    TileOutcome {
        stats,
        bytes: writer.into_bytes(),
        recon_y,
        recon_u,
        recon_v,
        dominant_mv,
    }
}

/// Component-wise median of the block motion vectors.
#[cfg(test)]
fn median_mv(mvs: &[MotionVector]) -> MotionVector {
    median_mv_with(mvs, &mut Vec::new(), &mut Vec::new())
}

/// Component-wise median of the block motion vectors, sorted in the
/// caller-owned buffers `xs` and `ys`.
fn median_mv_with(mvs: &[MotionVector], xs: &mut Vec<i16>, ys: &mut Vec<i16>) -> MotionVector {
    if mvs.is_empty() {
        return MotionVector::ZERO;
    }
    xs.clear();
    xs.extend(mvs.iter().map(|m| m.x));
    ys.clear();
    ys.extend(mvs.iter().map(|m| m.y));
    xs.sort_unstable();
    ys.sort_unstable();
    MotionVector::new(xs[xs.len() / 2], ys[ys.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Qp;
    use medvt_frame::synth::{BodyPart, MotionPattern, PhantomVideo};
    use medvt_frame::Resolution;
    use medvt_motion::SearchSpec;

    fn video() -> PhantomVideo {
        PhantomVideo::builder(BodyPart::Brain)
            .resolution(Resolution::new(96, 64))
            .motion(MotionPattern::Pan { dx: 1.0, dy: 0.0 })
            .noise_amplitude(0.0)
            .seed(3)
            .build()
    }

    fn default_cfgs(qp: u8) -> (TileConfig, EncoderConfig) {
        (
            TileConfig {
                qp: Qp::new(qp).unwrap(),
                search: SearchSpec::Diamond,
                window: medvt_motion::SearchWindow::W16,
            },
            EncoderConfig::default(),
        )
    }

    #[test]
    fn intra_tile_reconstructs_content() {
        let v = video();
        let f0 = v.render(0);
        let (tcfg, ecfg) = default_cfgs(22);
        let tile = Rect::new(0, 0, 96, 64);
        let out = encode_tile(&f0, &[], FrameKind::Intra, tile, &tcfg, &ecfg);
        assert_eq!(out.stats.intra_blocks, 4 * 6);
        assert_eq!(out.stats.inter_blocks, 0);
        assert!(out.stats.psnr() > 32.0, "psnr={}", out.stats.psnr());
        assert!(out.stats.bits > 0);
        assert_eq!(out.dominant_mv, MotionVector::ZERO);
        assert_eq!(out.bytes.len() as u64 * 8 % 8, 0);
    }

    #[test]
    fn inter_tile_tracks_pan_motion() {
        let v = video();
        let f0 = v.render(0);
        let f1 = v.render(2);
        let (tcfg, ecfg) = default_cfgs(27);
        let tile = Rect::new(16, 16, 64, 32); // center region, real motion
        let out = encode_tile(&f1, &[&f0], FrameKind::Predicted, tile, &tcfg, &ecfg);
        assert!(out.stats.inter_blocks > 0, "pan content should code inter");
        // Content moved right 2 px over two frames.
        assert_eq!(out.dominant_mv, MotionVector::new(-2, 0));
        assert!(out.stats.sad_samples > 0);
    }

    #[test]
    fn inter_beats_intra_on_moving_content() {
        let v = video();
        let f0 = v.render(0);
        let f1 = v.render(1);
        let (tcfg, ecfg) = default_cfgs(32);
        let tile = Rect::new(16, 16, 64, 32);
        let inter = encode_tile(&f1, &[&f0], FrameKind::Predicted, tile, &tcfg, &ecfg);
        let intra = encode_tile(&f1, &[], FrameKind::Intra, tile, &tcfg, &ecfg);
        assert!(
            inter.stats.bits < intra.stats.bits,
            "inter {} vs intra {} bits",
            inter.stats.bits,
            intra.stats.bits
        );
    }

    #[test]
    fn higher_qp_lowers_bits_and_psnr() {
        let v = video();
        let f0 = v.render(0);
        let tile = Rect::new(0, 0, 96, 64);
        let ecfg = EncoderConfig::default();
        let fine = encode_tile(
            &f0,
            &[],
            FrameKind::Intra,
            tile,
            &TileConfig::with_qp(Qp::new(22).unwrap()),
            &ecfg,
        );
        let coarse = encode_tile(
            &f0,
            &[],
            FrameKind::Intra,
            tile,
            &TileConfig::with_qp(Qp::new(42).unwrap()),
            &ecfg,
        );
        assert!(coarse.stats.bits < fine.stats.bits);
        assert!(coarse.stats.psnr() < fine.stats.psnr());
    }

    #[test]
    fn two_reference_frames_double_search_effort() {
        let v = video();
        let f0 = v.render(0);
        let f2 = v.render(2);
        let f1 = v.render(1);
        let (tcfg, ecfg) = default_cfgs(32);
        let tile = Rect::new(16, 16, 64, 32);
        let one_ref = encode_tile(&f1, &[&f0], FrameKind::Predicted, tile, &tcfg, &ecfg);
        let two_ref = encode_tile(&f1, &[&f0, &f2], FrameKind::BiPredicted, tile, &tcfg, &ecfg);
        assert!(two_ref.stats.sad_samples > one_ref.stats.sad_samples);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn unaligned_tile_rejected() {
        let v = video();
        let f0 = v.render(0);
        let (tcfg, ecfg) = default_cfgs(32);
        encode_tile(
            &f0,
            &[],
            FrameKind::Intra,
            Rect::new(4, 0, 20, 16),
            &tcfg,
            &ecfg,
        );
    }

    #[test]
    #[should_panic(expected = "reference")]
    fn inter_without_refs_rejected() {
        let v = video();
        let f0 = v.render(0);
        let (tcfg, ecfg) = default_cfgs(32);
        encode_tile(
            &f0,
            &[],
            FrameKind::Predicted,
            Rect::new(0, 0, 32, 32),
            &tcfg,
            &ecfg,
        );
    }

    #[test]
    fn luma_only_mode_skips_chroma() {
        let v = video();
        let f0 = v.render(0);
        let tile = Rect::new(0, 0, 32, 32);
        let tcfg = TileConfig::with_qp(Qp::new(27).unwrap());
        let with_chroma = encode_tile(
            &f0,
            &[],
            FrameKind::Intra,
            tile,
            &tcfg,
            &EncoderConfig::default(),
        );
        let luma_only = encode_tile(
            &f0,
            &[],
            FrameKind::Intra,
            tile,
            &tcfg,
            &EncoderConfig {
                chroma: false,
                ..Default::default()
            },
        );
        assert!(luma_only.stats.bits < with_chroma.stats.bits);
        assert!(luma_only.stats.transform_samples < with_chroma.stats.transform_samples);
    }

    #[test]
    fn median_mv_is_robust() {
        let mvs = vec![
            MotionVector::new(2, 0),
            MotionVector::new(2, 0),
            MotionVector::new(2, 1),
            MotionVector::new(-9, 7), // outlier
            MotionVector::new(2, 0),
        ];
        assert_eq!(median_mv(&mvs), MotionVector::new(2, 0));
        assert_eq!(median_mv(&[]), MotionVector::ZERO);
    }
}
