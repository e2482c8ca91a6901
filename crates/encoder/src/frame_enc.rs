//! Whole-frame encoding: per-tile encoding of a [`FramePlan`], fanned
//! out over the host's cores on the shared worker pool ([`par_map`]),
//! and reconstruction stitching.

use crate::config::{EncoderConfig, TileConfig};
use crate::stats::FrameStats;
use crate::tile::{encode_tile, TileOutcome};
use medvt_frame::{par_map, Frame, FrameKind, Rect, Tiling};
use medvt_motion::MotionVector;

/// The tiling and per-tile configurations for one frame — what the
/// content-aware pipeline produces per GOP and the encoder consumes
/// per frame. The partition rules live in [`Tiling`]; a plan only adds
/// one [`TileConfig`] per tile.
#[derive(Debug, Clone, PartialEq)]
pub struct FramePlan {
    tiling: Tiling,
    configs: Vec<TileConfig>,
}

impl FramePlan {
    /// Pairs `tiling` with its per-tile configurations, in tile order.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one config per tile.
    pub fn new(tiling: Tiling, configs: Vec<TileConfig>) -> Self {
        assert_eq!(
            tiling.len(),
            configs.len(),
            "a frame plan needs one config per tile"
        );
        Self { tiling, configs }
    }

    /// A uniform `cols x rows` plan ([`Tiling::uniform`]) with one
    /// shared configuration.
    ///
    /// # Panics
    ///
    /// Panics when the grid does not divide the frame into 8-aligned
    /// tiles.
    pub fn uniform(frame: Rect, cols: usize, rows: usize, config: TileConfig) -> Self {
        let tiling = Tiling::uniform(frame, cols, rows);
        let configs = vec![config; tiling.len()];
        Self::new(tiling, configs)
    }

    /// The frame partition.
    pub fn tiling(&self) -> &Tiling {
        &self.tiling
    }

    /// Per-tile configurations, in tile order.
    pub fn configs(&self) -> &[TileConfig] {
        &self.configs
    }
}

/// An encoded frame: reconstruction, statistics, per-tile dominant
/// motion and the bitstream.
#[derive(Debug, Clone)]
pub struct EncodedFrame {
    /// The reconstructed picture (what a decoder would output), used
    /// as reference for later frames.
    pub recon: Frame,
    /// Per-tile statistics.
    pub stats: FrameStats,
    /// Median motion vector per tile, the direction later GOP frames
    /// inherit.
    pub dominant_mvs: Vec<MotionVector>,
    /// Concatenated tile bitstreams.
    pub bytes: Vec<u8>,
}

/// Encodes one frame according to `plan`.
///
/// The tiles are spread over the host's cores by [`par_map`]: the
/// calling thread encodes tiles too, and a single tile or a single
/// available CPU runs everything on the caller. The shared pool's
/// workers persist, so every frame's tiles run on the same threads and
/// each keeps its tile scratch warm.
/// Tiles are independent and tile encoding is deterministic, so the
/// frame is the serial fold of [`encode_tile`] over the tiles, to the
/// bit, however they were spread. Placing served tile work on cores is
/// the runtime's job (`medvt_runtime::ExecutionBackend`), not the
/// codec's.
///
/// # Panics
///
/// Panics when the plan's tiling partitions a frame other than
/// `original`'s luma bounds, or `refs` is empty for an inter `kind`.
pub fn encode_frame(
    original: &Frame,
    refs: &[&Frame],
    kind: FrameKind,
    poc: usize,
    plan: &FramePlan,
    ecfg: &EncoderConfig,
) -> EncodedFrame {
    assert_eq!(
        plan.tiling.frame(),
        original.y().bounds(),
        "frame plan must partition this frame"
    );
    let outcomes: Vec<TileOutcome> = par_map(plan.tiling.len(), |k| {
        encode_tile(
            original,
            refs,
            kind,
            plan.tiling.tiles()[k],
            &plan.configs[k],
            ecfg,
        )
    });

    // Stitch tile reconstructions into the frame reconstruction.
    let mut recon = Frame::black(original.resolution());
    let mut stats = FrameStats {
        poc,
        tiles: Vec::with_capacity(outcomes.len()),
    };
    let mut dominant_mvs = Vec::with_capacity(outcomes.len());
    let mut bytes = Vec::with_capacity(outcomes.iter().map(|o| o.bytes.len()).sum());
    for (tile, outcome) in plan.tiling.iter().zip(outcomes) {
        recon.y_mut().write_rect(tile, outcome.recon_y.samples());
        let c_rect = Rect::new(tile.x / 2, tile.y / 2, tile.w / 2, tile.h / 2);
        recon.u_mut().write_rect(&c_rect, outcome.recon_u.samples());
        recon.v_mut().write_rect(&c_rect, outcome.recon_v.samples());
        stats.tiles.push(outcome.stats);
        dominant_mvs.push(outcome.dominant_mv);
        bytes.extend_from_slice(&outcome.bytes);
    }
    EncodedFrame {
        recon,
        stats,
        dominant_mvs,
        bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Qp;
    use medvt_frame::quality::frame_psnr;
    use medvt_frame::synth::{BodyPart, PhantomVideo};
    use medvt_frame::Resolution;

    fn frame() -> Frame {
        PhantomVideo::builder(BodyPart::LungChest)
            .resolution(Resolution::new(128, 96))
            .seed(5)
            .build()
            .render(0)
    }

    #[test]
    #[should_panic(expected = "one config per tile")]
    fn plan_needs_one_config_per_tile() {
        let tiling = Tiling::uniform(Rect::frame(64, 64), 2, 1);
        FramePlan::new(tiling, vec![TileConfig::default()]);
    }

    #[test]
    fn encode_frame_stitches_full_reconstruction() {
        let f = frame();
        let plan = FramePlan::uniform(
            f.y().bounds(),
            2,
            2,
            TileConfig::with_qp(Qp::new(22).unwrap()),
        );
        let encoded = encode_frame(
            &f,
            &[],
            FrameKind::Intra,
            0,
            &plan,
            &EncoderConfig::default(),
        );
        assert_eq!(encoded.stats.tiles.len(), 4);
        let psnr = frame_psnr(&f, &encoded.recon);
        assert!(psnr > 32.0, "stitched recon psnr {psnr}");
        assert!(!encoded.bytes.is_empty());
        // Stats PSNR must agree with the stitched reconstruction PSNR.
        assert!((encoded.stats.psnr() - psnr).abs() < 0.5);
    }

    #[test]
    fn more_tiles_same_frame_cover() {
        let f = frame();
        let rect = f.y().bounds();
        let p1 = FramePlan::uniform(rect, 1, 1, TileConfig::default());
        let p6 = FramePlan::uniform(rect, 3, 2, TileConfig::default());
        assert_eq!(p1.tiling().covered_area(), p6.tiling().covered_area());
    }

    #[test]
    #[should_panic(expected = "partition this frame")]
    fn plan_for_another_frame_panics_encode() {
        let f = frame();
        let plan = FramePlan::uniform(Rect::frame(64, 64), 1, 1, TileConfig::default());
        encode_frame(
            &f,
            &[],
            FrameKind::Intra,
            0,
            &plan,
            &EncoderConfig::default(),
        );
    }
}
