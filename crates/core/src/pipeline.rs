//! The content-aware transcoding pipeline — the paper's Fig. 2 loop
//! wired into the encoder as an [`EncodeController`].
//!
//! Per GOP-first frame: motion & texture evaluation → content-aware
//! re-tiling → per-tile configuration (Algorithm 1 QP + the §III-C2
//! motion-search policy). Per frame: QP adaptation from the previous
//! frame's PSNR and direction inheritance from the GOP-first frame.

use crate::qp_control::{QpControlConfig, QpController, TileObservation};
use medvt_analyze::{AnalyzerConfig, Retiler, TextureClass, TileAnalysis};
use medvt_encoder::{
    CostModel, EncodeController, FramePlan, FramePlanContext, FrameStats, Qp, SearchSpec,
    TileConfig, TileStats,
};
use medvt_frame::{FrameKind, Rect, Tiling};
use medvt_motion::{MotionLevel, MotionVector, SearchWindow};
use medvt_sched::{LutKey, WorkloadLut};
use serde::{Deserialize, Serialize};

/// Configuration of the content-aware pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Content analyzer / re-tiler tunables.
    pub analyzer: AnalyzerConfig,
    /// Algorithm 1 QP controller tunables.
    pub qp: QpControlConfig,
    /// Cycle cost model (the profiling substitute).
    pub cost: CostModel,
    /// Maximum search window handed to the ME policy.
    pub max_window: SearchWindow,
    /// f_max in Hz, for converting cycles to `T_fmax` seconds.
    pub fmax_hz: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            analyzer: AnalyzerConfig::default(),
            qp: QpControlConfig::default(),
            cost: CostModel::default(),
            max_window: SearchWindow::W64,
            fmax_hz: 3.6e9,
        }
    }
}

/// Per-tile outcome of one encoded frame, in pipeline terms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TileReport {
    /// Tile geometry.
    pub rect: Rect,
    /// Modelled CPU cycles to encode the tile.
    pub cycles: u64,
    /// Equivalent seconds at f_max.
    pub fmax_secs: f64,
    /// Bits produced.
    pub bits: u64,
    /// Luma PSNR, dB.
    pub psnr_db: f64,
}

impl TileReport {
    /// Prices one encoded tile: `cost`'s cycles, their seconds at
    /// `fmax_hz`, and the tile's PSNR capped at 99 dB (lossless).
    pub(crate) fn priced(stats: &TileStats, cost: &CostModel, fmax_hz: f64) -> Self {
        let cycles = cost.tile_cycles(stats);
        Self {
            rect: stats.rect,
            cycles,
            fmax_secs: cycles as f64 / fmax_hz,
            bits: stats.bits,
            psnr_db: stats.psnr().min(99.0),
        }
    }
}

/// One frame's pipeline report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameReport {
    /// Display index.
    pub poc: usize,
    /// Frame kind letter.
    pub kind: char,
    /// Per-tile reports in tiling order.
    pub tiles: Vec<TileReport>,
}

impl FrameReport {
    /// Sum of all tile times at f_max, seconds.
    pub fn total_secs(&self) -> f64 {
        self.tiles.iter().map(|t| t.fmax_secs).sum()
    }

    /// Frame bits.
    pub fn bits(&self) -> u64 {
        self.tiles.iter().map(|t| t.bits).sum()
    }
}

/// Controllers the sessions/profiler can drive: encoding control plus
/// per-frame reports and a demand estimate.
pub trait TranscodeController: EncodeController {
    /// Drains the reports of all frames encoded so far (display order
    /// not guaranteed; sort by `poc` if needed).
    fn drain_reports(&mut self) -> Vec<FrameReport>;

    /// Estimated per-tile demand of the next frame, in f_max seconds
    /// (the `T_fmax` vector Algorithm 2 consumes).
    fn demand_secs(&self) -> Vec<f64>;
}

/// Bookkeeping for one planned tile.
#[derive(Debug, Clone, Copy)]
struct TileMeta {
    rect: Rect,
    texture: TextureClass,
    motion: MotionLevel,
    qp: Qp,
    search_name: &'static str,
    kind: FrameKind,
}

/// The proposed content-aware controller.
#[derive(Debug)]
pub struct ContentAwareController {
    cfg: PipelineConfig,
    retiler: Retiler,
    qp_ctl: QpController,
    lut: WorkloadLut,
    /// The current GOP's re-tiling, `None` before the first frame.
    tiling: Option<Tiling>,
    analyses: Vec<TileAnalysis>,
    directions: Option<Vec<MotionVector>>,
    prev_obs: Vec<Option<TileObservation>>,
    /// Meta of the frame currently being encoded (set by `plan`).
    pending_meta: Vec<TileMeta>,
    pending_gop_first: bool,
    reports: Vec<FrameReport>,
}

impl ContentAwareController {
    /// Creates a controller; the LUT may come pre-seeded from a
    /// [`medvt_sched::LutBank`] class entry.
    ///
    /// # Panics
    ///
    /// Panics when the analyzer configuration is invalid.
    pub fn new(cfg: PipelineConfig, lut: WorkloadLut) -> Self {
        let retiler = Retiler::new(cfg.analyzer).expect("analyzer config must be valid");
        Self {
            cfg,
            retiler,
            qp_ctl: QpController::new(cfg.qp),
            lut,
            tiling: None,
            analyses: Vec::new(),
            directions: None,
            prev_obs: Vec::new(),
            pending_meta: Vec::new(),
            pending_gop_first: false,
            reports: Vec::new(),
        }
    }

    /// Read access to the online LUT (e.g. to fold back into a bank).
    pub fn lut(&self) -> &WorkloadLut {
        &self.lut
    }

    /// The current tiling's analyses.
    pub fn analyses(&self) -> &[TileAnalysis] {
        &self.analyses
    }
}

impl EncodeController for ContentAwareController {
    fn plan(&mut self, ctx: &FramePlanContext<'_>) -> FramePlan {
        // Re-tiling happens once per GOP, on its first coded frame
        // (paper §III-D2), against the previous anchor's reconstruction.
        if ctx.gop_first_coded || self.tiling.is_none() {
            let prev_luma = ctx.prev_anchor.map(|f| f.y());
            let outcome = self.retiler.retile(ctx.frame.y(), prev_luma);
            let textures: Vec<TextureClass> =
                outcome.analyses.iter().map(|a| a.texture.class).collect();
            self.qp_ctl.reset(&textures);
            self.prev_obs = vec![None; outcome.analyses.len()];
            self.tiling = Some(outcome.tiling);
            self.analyses = outcome.analyses;
            self.directions = None;
        }
        self.pending_gop_first = ctx.gop_first_coded;

        let mut configs = Vec::with_capacity(self.analyses.len());
        self.pending_meta.clear();
        for (i, analysis) in self.analyses.iter().enumerate() {
            let texture = analysis.texture.class;
            let level = analysis.motion_level();
            // Algorithm 1 QP.
            let qp = self.qp_ctl.adapt(i, texture, self.prev_obs[i]);
            // §III-C2 search policy with GOP direction inheritance.
            let search = match (&self.directions, ctx.kind) {
                (_, FrameKind::Intra) => SearchSpec::biomed_first(level),
                (None, _) => SearchSpec::biomed_first(level),
                (Some(dirs), _) => SearchSpec::biomed_subsequent(level, dirs[i]),
            };
            configs.push(TileConfig {
                qp,
                search,
                window: self.cfg.max_window,
            });
            self.pending_meta.push(TileMeta {
                rect: analysis.rect,
                texture,
                motion: level,
                qp,
                search_name: search.name(),
                kind: ctx.kind,
            });
        }
        let tiling = self.tiling.clone().expect("re-tiled above");
        FramePlan::new(tiling, configs)
    }

    fn frame_done(&mut self, poc: usize, stats: &FrameStats, dominant_mvs: &[MotionVector]) {
        let mut tiles = Vec::with_capacity(stats.tiles.len());
        for (i, tile_stats) in stats.tiles.iter().enumerate() {
            let report = TileReport::priced(tile_stats, &self.cfg.cost, self.cfg.fmax_hz);
            if let Some(meta) = self.pending_meta.get(i) {
                let key = LutKey::new(
                    &meta.rect,
                    meta.texture,
                    meta.motion,
                    meta.qp,
                    meta.search_name,
                    meta.kind,
                );
                self.lut.observe(key, report.cycles);
            }
            if i < self.prev_obs.len() {
                self.prev_obs[i] = Some(TileObservation {
                    psnr_db: report.psnr_db,
                });
            }
            tiles.push(report);
        }
        if self.pending_gop_first {
            self.directions = Some(dominant_mvs.to_vec());
        }
        let kind = self.pending_meta.first().map_or('B', |m| m.kind.letter());
        self.reports.push(FrameReport { poc, kind, tiles });
    }
}

impl TranscodeController for ContentAwareController {
    fn drain_reports(&mut self) -> Vec<FrameReport> {
        std::mem::take(&mut self.reports)
    }

    fn demand_secs(&self) -> Vec<f64> {
        // Estimate the next frame's per-tile time from the LUT using
        // the current tiling/configuration (B-frame steady state).
        self.analyses
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let texture = a.texture.class;
                let level = a.motion_level();
                let qp = if self.qp_ctl.is_empty() {
                    crate::qp_control::default_qp(texture)
                } else {
                    self.qp_ctl.qp(i)
                };
                let key = LutKey::new(
                    &a.rect,
                    texture,
                    level,
                    qp,
                    "biomed",
                    FrameKind::BiPredicted,
                );
                self.lut.estimate_or_model(&key) as f64 / self.cfg.fmax_hz
            })
            .collect()
    }
}

/// Motion-estimation policy selector for [`UniformMeController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MePolicy {
    /// One fixed algorithm everywhere (e.g. TZ or hexagon — the
    /// reference columns of Table I).
    Fixed(SearchSpec),
    /// The proposed §III-C2 policy driven by per-tile motion probing
    /// and GOP direction inheritance.
    Proposed,
}

/// Uniform-tiling controller with a pluggable ME policy — the exact
/// configuration space of the paper's Table I (`n x m` uniform tiling,
/// fixed QP, ME method under test).
#[derive(Debug)]
pub struct UniformMeController {
    /// Grid columns.
    pub cols: usize,
    /// Grid rows.
    pub rows: usize,
    /// Fixed QP for every tile.
    pub qp: Qp,
    /// ME policy under test.
    pub policy: MePolicy,
    /// Search window handed to the algorithms.
    pub window: SearchWindow,
    analyzer: AnalyzerConfig,
    analyses: Vec<TileAnalysis>,
    directions: Option<Vec<MotionVector>>,
    pending_gop_first: bool,
}

impl UniformMeController {
    /// Creates the controller.
    pub fn new(cols: usize, rows: usize, qp: Qp, policy: MePolicy) -> Self {
        Self {
            cols,
            rows,
            qp,
            policy,
            window: SearchWindow::W64,
            analyzer: AnalyzerConfig::default(),
            analyses: Vec::new(),
            directions: None,
            pending_gop_first: false,
        }
    }
}

impl EncodeController for UniformMeController {
    fn plan(&mut self, ctx: &FramePlanContext<'_>) -> FramePlan {
        let frame_rect = ctx.frame.y().bounds();
        let tiling = Tiling::uniform(frame_rect, self.cols, self.rows);
        if ctx.gop_first_coded || self.analyses.is_empty() {
            let prev = ctx.prev_anchor.map(|f| f.y());
            self.analyses =
                medvt_analyze::analyze_tiling(ctx.frame.y(), prev, &tiling, &self.analyzer);
            self.directions = None;
        }
        self.pending_gop_first = ctx.gop_first_coded;
        let configs = self
            .analyses
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let search = match self.policy {
                    MePolicy::Fixed(s) => s,
                    MePolicy::Proposed => match &self.directions {
                        None => SearchSpec::biomed_first(a.motion_level()),
                        Some(dirs) => SearchSpec::biomed_subsequent(a.motion_level(), dirs[i]),
                    },
                };
                TileConfig {
                    qp: self.qp,
                    search,
                    window: self.window,
                }
            })
            .collect();
        FramePlan::new(tiling, configs)
    }

    fn frame_done(&mut self, _poc: usize, _stats: &FrameStats, dominant_mvs: &[MotionVector]) {
        if self.pending_gop_first {
            self.directions = Some(dominant_mvs.to_vec());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medvt_encoder::{EncoderConfig, VideoEncoder};
    use medvt_frame::synth::{BodyPart, MotionPattern, PhantomVideo};
    use medvt_frame::Resolution;

    fn pipeline_cfg() -> PipelineConfig {
        PipelineConfig {
            analyzer: AnalyzerConfig {
                min_tile_width: 32,
                min_tile_height: 32,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn clip(frames: usize) -> medvt_frame::VideoClip {
        PhantomVideo::builder(BodyPart::Brain)
            .resolution(Resolution::new(192, 144))
            .motion(MotionPattern::Pan { dx: 1.0, dy: 0.0 })
            .seed(12)
            .build()
            .capture(frames)
    }

    #[test]
    fn pipeline_encodes_and_reports() {
        let clip = clip(9);
        let mut ctl = ContentAwareController::new(pipeline_cfg(), WorkloadLut::new());
        let stats = VideoEncoder::new(EncoderConfig::default()).encode_clip(&clip, &mut ctl);
        assert_eq!(stats.frames.len(), 9);
        let mut reports = ctl.drain_reports();
        reports.sort_by_key(|r| r.poc);
        assert_eq!(reports.len(), 9);
        // Tiles consistent within each GOP (the IDR may differ from the
        // GOP's own re-tiling).
        let n = reports[1].tiles.len();
        assert!(n >= 4, "content-aware tiling has ring+center tiles");
        assert!(reports[1..].iter().all(|r| r.tiles.len() == n));
        // The LUT learned from every tile of every frame.
        assert!(ctl.lut().total_observations() >= (8 * n) as u64);
        // PSNR respects the constraint direction.
        assert!(stats.mean_psnr() > 35.0, "psnr={}", stats.mean_psnr());
    }

    #[test]
    fn directions_are_inherited_within_gop() {
        let clip = clip(9);
        let mut ctl = ContentAwareController::new(pipeline_cfg(), WorkloadLut::new());
        VideoEncoder::new(EncoderConfig::default()).encode_clip(&clip, &mut ctl);
        let dirs = ctl.directions.as_ref().expect("directions recorded");
        assert_eq!(dirs.len(), ctl.analyses().len());
    }

    #[test]
    fn demand_estimates_are_positive_and_converge() {
        let clip = clip(17);
        let mut ctl = ContentAwareController::new(pipeline_cfg(), WorkloadLut::new());
        VideoEncoder::new(EncoderConfig::default()).encode_clip(&clip, &mut ctl);
        let demand = ctl.demand_secs();
        assert_eq!(demand.len(), ctl.analyses().len());
        assert!(demand.iter().all(|&d| d > 0.0));
        // Warm LUT: demand should be within 10x of measured mean tile time.
        let mut reports = ctl.drain_reports();
        reports.sort_by_key(|r| r.poc);
        let measured: f64 = reports
            .iter()
            .rev()
            .take(4)
            .map(FrameReport::total_secs)
            .sum::<f64>()
            / 4.0;
        let estimated: f64 = demand.iter().sum();
        assert!(
            estimated < measured * 10.0 && estimated > measured / 10.0,
            "estimated {estimated} vs measured {measured}"
        );
    }

    #[test]
    fn uniform_me_controller_proposed_is_cheaper_than_tz() {
        let clip = clip(9);
        let encode = |policy: MePolicy| {
            let mut ctl = UniformMeController::new(2, 2, Qp::new(32).unwrap(), policy);
            VideoEncoder::new(EncoderConfig::default()).encode_clip(&clip, &mut ctl)
        };
        let tz = encode(MePolicy::Fixed(SearchSpec::Tz));
        let proposed = encode(MePolicy::Proposed);
        assert!(
            proposed.total_sad_samples() * 2 < tz.total_sad_samples(),
            "proposed {} vs tz {}",
            proposed.total_sad_samples(),
            tz.total_sad_samples()
        );
        // Quality stays close (Table I: ≤ ~0.3 dB loss).
        assert!(tz.mean_psnr() - proposed.mean_psnr() < 1.0);
    }
}
