//! Failure injection: misleading LUT seeds, oversubscribed queues and
//! degenerate content. The system must degrade predictably, never
//! panic or wedge.

use medvt::analyze::AnalyzerConfig;
use medvt::core::{
    Approach, ContentAwareController, FrameReport, PipelineConfig, ServerConfig, ServerSim,
    TileReport, TranscodeController, VideoProfile,
};
use medvt::encoder::{EncoderConfig, VideoEncoder};
use medvt::frame::synth::{BodyPart, MotionPattern, PhantomVideo};
use medvt::frame::{Rect, Resolution};
use medvt::sched::WorkloadLut;

const SLOT: f64 = 1.0 / 24.0;

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        analyzer: AnalyzerConfig {
            min_tile_width: 32,
            min_tile_height: 32,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn poisoned_lut_recovers_through_observation() {
    // Seed a LUT with wildly wrong (tiny) estimates for everything the
    // pipeline will look up, then verify the online updates win.
    let clip = PhantomVideo::builder(BodyPart::Brain)
        .resolution(Resolution::new(192, 144))
        .motion(MotionPattern::Pan { dx: 1.0, dy: 0.0 })
        .seed(7)
        .build()
        .capture(17);
    let mut ctl = ContentAwareController::new(pipeline_config(), WorkloadLut::new());
    VideoEncoder::new(EncoderConfig::default()).encode_clip(&clip, &mut ctl);
    let mut reports = ctl.drain_reports();
    reports.sort_by_key(|r| r.poc);
    let measured: f64 = reports
        .last()
        .map(|r| r.tiles.iter().map(|t| t.fmax_secs).sum())
        .unwrap_or(0.0);
    let estimated: f64 = ctl.demand_secs().iter().sum();
    // After 17 frames of observations the estimate tracks reality
    // within a small factor regardless of the cold-start model.
    assert!(
        estimated / measured < 3.0 && measured / estimated < 3.0,
        "estimate {estimated} vs measured {measured}"
    );
}

#[test]
fn oversubscribed_queue_never_panics_and_reports_misses() {
    // Every user demands more than a whole core: only a few fit; the
    // rest are rejected, and nothing crashes.
    let tiles: Vec<TileReport> = (0..4)
        .map(|i| TileReport {
            rect: Rect::new(i * 64, 0, 64, 64),
            cycles: (SLOT * 0.5 * 3.6e9) as u64,
            fmax_secs: SLOT * 0.5,
            bits: 1000,
            psnr_db: 40.0,
        })
        .collect();
    let heavy = VideoProfile {
        name: "heavy".into(),
        class: "x".into(),
        fps: 24.0,
        frames: (0..8)
            .map(|poc| FrameReport {
                poc,
                kind: 'B',
                tiles: tiles.clone(),
            })
            .collect(),
        mean_psnr_db: 40.0,
        bitrate_mbps: 3.0,
    };
    let sim = ServerSim::new(ServerConfig {
        queue_len: 100,
        sim_slots: 24,
        ..Default::default()
    });
    let report = sim.serve_max(&[heavy], Approach::Proposed);
    // 2 cores/user → at most 16 admitted of 100.
    assert!(report.users_served <= 16);
    assert!(report.users_served >= 10);
    assert!(report.avg_power_w > 0.0);
}

#[test]
fn all_black_video_encodes_cheaply() {
    // Degenerate content: nothing to analyze, nothing to code.
    let black = medvt::frame::VideoClip::from_frames(
        Resolution::new(160, 128),
        24.0,
        vec![medvt::frame::Frame::black(Resolution::new(160, 128)); 9],
    );
    let mut ctl = ContentAwareController::new(pipeline_config(), WorkloadLut::new());
    let stats = VideoEncoder::new(EncoderConfig::default()).encode_clip(&black, &mut ctl);
    // ±1 code of quantization residue remains → ~48 dB.
    assert!(stats.mean_psnr() > 45.0, "psnr={}", stats.mean_psnr());
    // B frames sit at the per-block header floor, below the IDR.
    let b_bits = stats.frames[4].bits();
    assert!(b_bits < stats.frames[0].bits(), "b={b_bits}");
}

#[test]
fn single_frame_video_profile_schedules() {
    // A one-frame "video" exercises every wrap-around path.
    let clip = PhantomVideo::builder(BodyPart::Cardiac)
        .resolution(Resolution::new(160, 128))
        .seed(3)
        .build()
        .capture(1);
    let mut ctl = ContentAwareController::new(pipeline_config(), WorkloadLut::new());
    let profile = medvt::core::profile_video(
        "one",
        "cardiac",
        &clip,
        &mut ctl,
        &EncoderConfig::default(),
        false,
    );
    assert_eq!(profile.frames.len(), 1);
    let sim = ServerSim::new(ServerConfig {
        queue_len: 4,
        sim_slots: 24,
        ..Default::default()
    });
    let report = sim.serve_max(&[profile], Approach::Proposed);
    assert!(report.users_served >= 1);
}
