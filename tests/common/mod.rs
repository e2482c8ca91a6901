//! Fixtures shared by the root integration tests: a synthetic
//! scheduling profile, the live-transcoding scenario and the
//! executable specification of the admission controller ([`spec`]).
//!
//! Each test binary compiles this module on its own and uses only some
//! of it, hence the `dead_code` allowance.

#![allow(dead_code)]

pub mod spec;

use medvt::admission::{CostPlan, OnlineConfig};
use medvt::analyze::AnalyzerConfig;
use medvt::core::{
    profile_video, ContentAwareController, FrameReport, LiveWorkload, PipelineConfig, TileReport,
    VideoProfile,
};
use medvt::encoder::{EncoderConfig, TileConfig};
use medvt::frame::synth::{BodyPart, MotionPattern, PhantomVideo};
use medvt::frame::{Rect, Resolution, VideoClip};
use medvt::mpsoc::DvfsPolicy;
use medvt::sched::WorkloadLut;

/// Synthetic profile for controlled scheduling/admission experiments:
/// 8 frames of `tiles` uniform tiles costing `tile_secs` f_max-seconds
/// each, under body-part `class`.
pub fn synthetic_profile(name: &str, class: &str, tiles: usize, tile_secs: f64) -> VideoProfile {
    let tile_reports: Vec<TileReport> = (0..tiles)
        .map(|i| TileReport {
            rect: Rect::new(i * 64, 0, 64, 64),
            cycles: (tile_secs * 3.6e9) as u64,
            fmax_secs: tile_secs,
            bits: 10_000,
            psnr_db: 40.0,
        })
        .collect();
    let frames = (0..8)
        .map(|poc| FrameReport {
            poc,
            kind: 'B',
            tiles: tile_reports.clone(),
        })
        .collect();
    VideoProfile {
        name: name.into(),
        class: class.into(),
        fps: 24.0,
        frames,
        mean_psnr_db: 40.0,
        bitrate_mbps: 2.0,
    }
}

/// The live-transcoding scenario workload of `tests/live_transcode.rs`
/// and `tests/cluster_serving.rs`: a 128x96 phantom pan clip profiled
/// once through the content-aware pipeline (min tile 32), paired with
/// its rendered frames so every placed tile thread carries a real
/// encode.
///
/// Keeping this in one place pins the "CI scenario" the documented
/// measured/modeled tolerance refers to.
pub fn live_workload(name: &str, part: BodyPart, class: &str, seed: u64) -> LiveWorkload {
    let clip: VideoClip = PhantomVideo::builder(part)
        .resolution(Resolution::new(128, 96))
        .motion(MotionPattern::Pan { dx: 1.0, dy: 0.0 })
        .seed(seed)
        .build()
        .capture(9);
    let cfg = PipelineConfig {
        analyzer: AnalyzerConfig {
            min_tile_width: 32,
            min_tile_height: 32,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut ctl = ContentAwareController::new(cfg, WorkloadLut::new());
    let profile = profile_video(
        name,
        class,
        &clip,
        &mut ctl,
        &EncoderConfig::default(),
        false,
    );
    LiveWorkload::new(
        profile,
        &clip,
        TileConfig::default(),
        EncoderConfig::default(),
    )
}

/// The live scenario's serving configuration: 24 fps, 8-slot GOPs,
/// least-loaded sharding, and `RaceToIdle` DVFS so the modeled
/// per-slot makespan stays proportional to the work
/// (stretch-to-deadline would pad every busy slot to 1/FPS,
/// decoupling modeled time from workload size).
pub fn live_online_config(horizon_slots: usize) -> OnlineConfig {
    OnlineConfig {
        fps: 24.0,
        gop_slots: 8,
        horizon_slots,
        headroom: 1.15,
        policy: DvfsPolicy::RaceToIdle,
        evict_miss_windows: 1,
        cost: CostPlan::unlimited(),
        ..OnlineConfig::default()
    }
}

/// The host-calibration factor `rho` suggested by a set of observed
/// measured-over-modeled window-time ratios: their geometric mean.
///
/// The ratios are multiplicative errors around the true host-vs-
/// reference speed factor, so the geometric mean — not the arithmetic
/// one — is the unbiased center of the band; it is also what maps the
/// band `[min, max]` to a symmetric `[min/rho, max/rho]` spread around
/// 1.0 after calibration. Feed the result to
/// `CostModel::with_host_speed_factor` to make
/// `tile_seconds` predict this host's wall time. `None` when no
/// scenario executed real work.
pub fn suggested_host_speed_factor(ratios: &[f64]) -> Option<f64> {
    if ratios.is_empty() {
        return None;
    }
    assert!(
        ratios.iter().all(|r| r.is_finite() && *r > 0.0),
        "measured/modeled ratios must be finite and positive"
    );
    let log_mean = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
    Some(log_mean.exp())
}
