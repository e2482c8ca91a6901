//! End-to-end baseline pipeline — Khan et al. \[19\] (IEEE TVLSI 2016),
//! the comparison system of the paper's evaluation.
//!
//! Differences from the proposed pipeline, per the paper's §IV-B
//! discussion of \[19\]:
//!
//! * tiles are sized to fill one core's capacity (workload-balanced),
//!   **one tile per core**, from a limited set of structures;
//! * no per-tile content adaptation: one uniform QP for the frame and
//!   the encoder's default hexagon search everywhere;
//! * re-tiling only when all cores sit at the minimum or maximum
//!   frequency, so the tiling reacts slowly to content changes.

use crate::pipeline::{FrameReport, TileReport, TranscodeController};
use crate::qp_control::{clamp_qp, QpControlConfig};
use medvt_analyze::CapacityBalancedTiler;
use medvt_encoder::{
    CostModel, EncodeController, FramePlan, FramePlanContext, FrameStats, Qp, SearchSpec,
    TileConfig,
};
use medvt_frame::{FrameKind, Tiling};
use medvt_motion::{HexOrientation, MotionVector, SearchWindow};

/// Configuration of the baseline pipeline.
#[derive(Debug, Clone, Copy)]
pub struct BaselineConfig {
    /// Cores (= tiles) each user occupies. \[19\] derives it from the
    /// measured workload; the pipeline re-estimates it at re-tiling
    /// points within `1..=max_cores_per_user`.
    pub initial_cores_per_user: usize,
    /// Upper bound on tiles per user.
    pub max_cores_per_user: usize,
    /// Uniform starting QP.
    pub qp: Qp,
    /// QP band controller settings (frame-global here).
    pub qp_band: QpControlConfig,
    /// Cycle cost model (shared with the proposed pipeline for fair
    /// comparison).
    pub cost: CostModel,
    /// Search window for the default hexagon search.
    pub window: SearchWindow,
    /// f_max in Hz.
    pub fmax_hz: f64,
    /// Target frames per second (drives the core-count estimate).
    pub fps: f64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            initial_cores_per_user: 5,
            max_cores_per_user: 8,
            qp: Qp::new(32).expect("32 is valid"),
            qp_band: QpControlConfig::default(),
            cost: CostModel::default(),
            window: SearchWindow::W64,
            fmax_hz: 3.6e9,
            fps: 24.0,
        }
    }
}

/// The \[19\] baseline as an [`EncodeController`].
#[derive(Debug)]
pub struct Baseline19Controller {
    cfg: BaselineConfig,
    tiling: Option<Tiling>,
    qp: Qp,
    /// Set by the session when all active cores sit at a rail
    /// frequency — \[19\]'s only re-tiling trigger.
    rails_pinned: bool,
    /// Rolling per-frame total fmax-seconds, for core-count estimation.
    last_frame_secs: Option<f64>,
    pending_kind: FrameKind,
    reports: Vec<FrameReport>,
}

impl Baseline19Controller {
    /// Creates the baseline controller.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self {
            cfg,
            tiling: None,
            qp: cfg.qp,
            rails_pinned: false,
            last_frame_secs: None,
            pending_kind: FrameKind::Intra,
            reports: Vec::new(),
        }
    }

    /// Session hook: report whether all active cores currently sit at
    /// the minimum or maximum frequency.
    pub fn set_rails_pinned(&mut self, pinned: bool) {
        self.rails_pinned = pinned;
    }

    /// The tile count currently in use.
    pub fn tile_count(&self) -> usize {
        self.tiling.as_ref().map_or(0, Tiling::len)
    }

    /// Estimates how many capacity-filling tiles the content needs.
    fn estimate_cores(&self) -> usize {
        match self.last_frame_secs {
            None => self.cfg.initial_cores_per_user,
            Some(secs) => {
                ((secs * self.cfg.fps).ceil() as usize).clamp(1, self.cfg.max_cores_per_user)
            }
        }
    }
}

impl EncodeController for Baseline19Controller {
    fn plan(&mut self, ctx: &FramePlanContext<'_>) -> FramePlan {
        let needs_tiling = self.tiling.is_none();
        // [19]: re-tile only at rail frequencies, and only at GOP
        // boundaries (tiles cannot change mid-GOP in HEVC).
        if needs_tiling || (ctx.gop_first_coded && self.rails_pinned) {
            let cores = self.estimate_cores();
            let tiler = CapacityBalancedTiler::new(cores);
            self.tiling = Some(tiler.tile(ctx.frame.y()));
        }
        self.pending_kind = ctx.kind;
        let tiling = self.tiling.as_ref().expect("tiling set above");
        let config = TileConfig {
            qp: self.qp,
            search: SearchSpec::Hexagon(HexOrientation::Horizontal),
            window: self.cfg.window,
        };
        FramePlan::new(tiling.clone(), vec![config; tiling.len()])
    }

    fn frame_done(&mut self, poc: usize, stats: &FrameStats, _dominant_mvs: &[MotionVector]) {
        let report = FrameReport {
            poc,
            kind: self.pending_kind.letter(),
            tiles: stats
                .tiles
                .iter()
                .map(|t| TileReport::priced(t, &self.cfg.cost, self.cfg.fmax_hz))
                .collect(),
        };
        self.last_frame_secs = Some(report.total_secs());
        // Frame-global QP band control toward the PSNR constraint.
        let psnr = stats.psnr().min(99.0);
        let band = self.cfg.qp_band;
        if psnr > band.psnr_constraint_db + band.psnr_margin_db {
            self.qp = self.qp.offset(band.delta_qp);
        } else if psnr < band.psnr_constraint_db {
            self.qp = self.qp.offset(-band.delta_qp);
        }
        self.qp = clamp_qp(self.qp, band.qp_floor, band.qp_ceiling);
        self.reports.push(report);
    }
}

impl TranscodeController for Baseline19Controller {
    fn drain_reports(&mut self) -> Vec<FrameReport> {
        std::mem::take(&mut self.reports)
    }

    fn demand_secs(&self) -> Vec<f64> {
        match &self.tiling {
            None => vec![
                1.0 / (self.cfg.fps * self.cfg.initial_cores_per_user as f64);
                self.cfg.initial_cores_per_user
            ],
            Some(tiling) => {
                let per_tile = self
                    .last_frame_secs
                    .map(|s| s / tiling.len() as f64)
                    .unwrap_or(1.0 / (self.cfg.fps * tiling.len() as f64));
                vec![per_tile; tiling.len()]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medvt_encoder::{EncoderConfig, VideoEncoder};
    use medvt_frame::synth::{BodyPart, MotionPattern, PhantomVideo};
    use medvt_frame::Resolution;

    fn clip(frames: usize) -> medvt_frame::VideoClip {
        PhantomVideo::builder(BodyPart::LungChest)
            .resolution(Resolution::new(192, 144))
            .motion(MotionPattern::Pan { dx: 1.0, dy: 0.0 })
            .seed(21)
            .build()
            .capture(frames)
    }

    #[test]
    fn baseline_encodes_with_one_tile_per_core() {
        let clip = clip(9);
        let mut ctl = Baseline19Controller::new(BaselineConfig::default());
        let stats = VideoEncoder::new(EncoderConfig::default()).encode_clip(&clip, &mut ctl);
        assert_eq!(stats.frames.len(), 9);
        assert_eq!(ctl.tile_count(), 5, "initial cores_per_user tiles");
        assert!(stats.frames.iter().all(|f| f.tiles.len() == 5));
        let mut reports = ctl.drain_reports();
        reports.sort_by_key(|r| r.poc);
        assert_eq!(reports.len(), 9);
    }

    #[test]
    fn tiling_frozen_until_rails_pinned() {
        let clip = clip(17);
        let mut ctl = Baseline19Controller::new(BaselineConfig {
            initial_cores_per_user: 4,
            ..Default::default()
        });
        // Never pinned: tiling must not change across GOPs.
        VideoEncoder::new(EncoderConfig::default()).encode_clip(&clip, &mut ctl);
        assert_eq!(ctl.tile_count(), 4);
    }

    #[test]
    fn rails_pinned_allows_retiling_to_measured_demand() {
        let clip = clip(17);
        let mut ctl = Baseline19Controller::new(BaselineConfig {
            initial_cores_per_user: 8,
            ..Default::default()
        });
        ctl.set_rails_pinned(true);
        VideoEncoder::new(EncoderConfig::default()).encode_clip(&clip, &mut ctl);
        // Phantom content is far lighter than 8 capacity tiles: the
        // re-tile at the second GOP shrinks the tile count.
        assert!(
            ctl.tile_count() < 8,
            "tile count stayed {}",
            ctl.tile_count()
        );
    }

    #[test]
    fn qp_band_reacts_to_quality() {
        let clip = clip(9);
        let mut ctl = Baseline19Controller::new(BaselineConfig {
            qp: Qp::new(22).expect("valid"),
            ..Default::default()
        });
        VideoEncoder::new(EncoderConfig::default()).encode_clip(&clip, &mut ctl);
        // QP 22 on phantom content overshoots the constraint: the band
        // controller must have raised it.
        assert!(ctl.qp.value() > 22, "qp={}", ctl.qp);
    }

    #[test]
    fn demand_is_uniform_across_tiles() {
        let clip = clip(9);
        let mut ctl = Baseline19Controller::new(BaselineConfig::default());
        VideoEncoder::new(EncoderConfig::default()).encode_clip(&clip, &mut ctl);
        let d = ctl.demand_secs();
        assert_eq!(d.len(), 5);
        assert!(d.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-15));
    }
}
