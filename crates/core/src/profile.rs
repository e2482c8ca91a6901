//! Video profiling: run a clip through a pipeline once and keep the
//! per-frame, per-tile workload/quality record.
//!
//! The encoder substrate is deterministic, so two users transcoding
//! the same stored video produce identical workloads. The multi-user
//! server therefore profiles each distinct video **once** per approach
//! and schedules any number of users from the profiles — the modelling
//! substitute for the paper's live 32-core runs (ARCHITECTURE.md, "The
//! serving data flow").

use crate::pipeline::{FrameReport, TranscodeController};
use medvt_encoder::{EncoderConfig, VideoEncoder};
use medvt_frame::VideoClip;
use serde::{Deserialize, Serialize};

/// The workload/quality record of one transcoded video.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VideoProfile {
    /// Video name (from the medical suite).
    pub name: String,
    /// Body-part class (LUT transfer key).
    pub class: String,
    /// Frame rate.
    pub fps: f64,
    /// Per-frame reports in display order.
    pub frames: Vec<FrameReport>,
    /// Sequence mean luma PSNR, dB.
    pub mean_psnr_db: f64,
    /// Sequence bitrate, Mbit/s.
    pub bitrate_mbps: f64,
}

impl VideoProfile {
    /// Per-tile f_max-second demand of the frame shown at `slot`
    /// (wrapping around the profile for endless streaming); empty for
    /// a profile without frames.
    pub fn demand_at(&self, slot: usize) -> Vec<f64> {
        if self.frames.is_empty() {
            return Vec::new();
        }
        let f = &self.frames[slot % self.frames.len()];
        f.tiles.iter().map(|t| t.fmax_secs).collect()
    }

    /// Steady-state per-tile demand: the per-tile mean over the last
    /// full GOP, excluding intra pictures (IDRs are several times
    /// cheaper than inter frames here — ME dominates — and would bias
    /// the estimate low). This is what the LUT would report to
    /// Algorithm 2.
    pub fn steady_demand(&self) -> Vec<f64> {
        let n = self.frames.len();
        let window = 9.min(n);
        let tail: Vec<&FrameReport> = self.frames[n - window..]
            .iter()
            .filter(|f| f.kind != 'I')
            .collect();
        let tail: Vec<&FrameReport> = if tail.is_empty() {
            self.frames[n - window..].iter().collect()
        } else {
            tail
        };
        let tiles = tail.iter().map(|f| f.tiles.len()).max().unwrap_or(0);
        let mut acc = vec![0.0f64; tiles];
        let mut counts = vec![0u32; tiles];
        for f in tail {
            for (i, t) in f.tiles.iter().enumerate() {
                acc[i] += t.fmax_secs;
                counts[i] += 1;
            }
        }
        acc.iter()
            .zip(&counts)
            .map(|(&a, &c)| if c == 0 { 0.0 } else { a / c as f64 })
            .collect()
    }

    /// Mean whole-frame f_max time, seconds.
    pub fn mean_frame_secs(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        self.frames.iter().map(FrameReport::total_secs).sum::<f64>() / self.frames.len() as f64
    }

    /// Cores this video demands at `fps` (Algorithm 2 line 1 on the
    /// steady demand).
    pub fn cores_needed(&self, fps: f64) -> usize {
        (self.steady_demand().iter().sum::<f64>() * fps)
            .ceil()
            .max(1.0) as usize
    }
}

/// Profiles `clip` through `controller`, consuming it frame by frame
/// with the workspace encoder, which spreads each frame's tiles over
/// the host's cores ([`VideoEncoder`]); the profile does not depend on
/// how they were spread.
pub fn profile_video(
    name: impl Into<String>,
    class: impl Into<String>,
    clip: &VideoClip,
    controller: &mut dyn TranscodeController,
    encoder: &EncoderConfig,
    // Vestige: tiles always fan out; `benchmark/src/live.rs:213` passes
    // this, and the next `[benchmark]` PR drops it.
    _parallel: bool,
) -> VideoProfile {
    let stats = VideoEncoder::new(*encoder).encode_clip(clip, controller);
    let mut frames = controller.drain_reports();
    frames.sort_by_key(|r| r.poc);
    VideoProfile {
        name: name.into(),
        class: class.into(),
        fps: clip.fps(),
        frames,
        mean_psnr_db: stats.mean_psnr(),
        bitrate_mbps: stats.bitrate_mbps(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline19::{Baseline19Controller, BaselineConfig};
    use crate::pipeline::{ContentAwareController, PipelineConfig};
    use crate::server::{Approach, ServerConfig, ServerSim};
    use medvt_analyze::AnalyzerConfig;
    use medvt_frame::synth::{BodyPart, MotionPattern, PhantomVideo};
    use medvt_frame::Resolution;
    use medvt_sched::WorkloadLut;

    fn clip() -> VideoClip {
        PhantomVideo::builder(BodyPart::Brain)
            .resolution(Resolution::new(192, 144))
            .motion(MotionPattern::Pan { dx: 1.0, dy: 0.0 })
            .seed(31)
            .build()
            .capture(9)
    }

    fn proposed_profile() -> VideoProfile {
        let cfg = PipelineConfig {
            analyzer: AnalyzerConfig {
                min_tile_width: 32,
                min_tile_height: 32,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut ctl = ContentAwareController::new(cfg, WorkloadLut::new());
        profile_video(
            "test",
            "brain",
            &clip(),
            &mut ctl,
            &EncoderConfig::default(),
            false,
        )
    }

    #[test]
    fn profile_has_every_frame_in_order() {
        let p = proposed_profile();
        assert_eq!(p.frames.len(), 9);
        for (i, f) in p.frames.iter().enumerate() {
            assert_eq!(f.poc, i);
            assert!(!f.tiles.is_empty());
        }
        assert!(p.mean_psnr_db > 32.0);
        assert!(p.bitrate_mbps > 0.0);
    }

    #[test]
    fn demand_wraps_around() {
        let p = proposed_profile();
        assert_eq!(p.demand_at(0), p.demand_at(9));
        assert_eq!(p.demand_at(3), p.demand_at(12));
    }

    #[test]
    fn empty_clip_profiles_to_an_empty_demand_that_serves() {
        let mut ctl = ContentAwareController::new(PipelineConfig::default(), WorkloadLut::new());
        let empty = VideoClip::new(Resolution::new(192, 144), 24.0);
        let p = profile_video(
            "empty",
            "brain",
            &empty,
            &mut ctl,
            &EncoderConfig::default(),
            false,
        );
        assert!(p.frames.is_empty());
        assert!(p.demand_at(0).is_empty());
        assert!(p.demand_at(17).is_empty());
        assert!(p.steady_demand().is_empty());
        assert_eq!(p.mean_frame_secs(), 0.0);
        // A user with nothing to encode costs no core time.
        let report = ServerSim::new(ServerConfig::default()).serve_max(&[p], Approach::Proposed);
        assert_eq!(report.miss_slots, 0);
        assert_eq!(report.window_misses, 0);
    }

    #[test]
    fn steady_demand_reflects_tail_frames() {
        let p = proposed_profile();
        let steady = p.steady_demand();
        assert_eq!(steady.len(), p.frames.last().unwrap().tiles.len());
        assert!(steady.iter().all(|&d| d >= 0.0));
        let total: f64 = steady.iter().sum();
        assert!(total > 0.0);
        assert!(p.cores_needed(24.0) >= 1);
    }

    #[test]
    fn baseline_profile_differs_from_proposed() {
        let proposed = proposed_profile();
        let mut base_ctl = Baseline19Controller::new(BaselineConfig {
            initial_cores_per_user: 4,
            ..Default::default()
        });
        let baseline = profile_video(
            "test",
            "brain",
            &clip(),
            &mut base_ctl,
            &EncoderConfig::default(),
            false,
        );
        assert_eq!(baseline.frames.len(), proposed.frames.len());
        // The proposed pipeline should not cost more total fmax time.
        assert!(
            proposed.mean_frame_secs() <= baseline.mean_frame_secs() * 1.05,
            "proposed {} vs baseline {}",
            proposed.mean_frame_secs(),
            baseline.mean_frame_secs()
        );
    }
}
