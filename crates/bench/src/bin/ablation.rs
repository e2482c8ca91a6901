//! Ablation study: how much each design choice of the paper
//! contributes, isolated one at a time (one of the six paper-artifact
//! binaries, ARCHITECTURE.md "Experiment surface").
//!
//! Dimensions:
//! 1. **Re-tiling** — content-aware ring tiling vs uniform 4×3 grid,
//!    both with the proposed ME policy and QP ladder.
//! 2. **ME policy** — proposed vs plain hexagon vs TZ on the
//!    content-aware tiling.
//! 3. **DVFS policy** — stretch-to-deadline vs race-to-idle vs
//!    pinned-f_max at equal allocation.
//!
//! Run: `cargo run --release -p medvt-bench --bin ablation`

use medvt_bench::{pipeline_config, write_artifact, Scale};
use medvt_core::{
    profile_video, ContentAwareController, MePolicy, UniformMeController, VideoProfile,
};
use medvt_encoder::{EncoderConfig, Qp, SearchSpec, VideoEncoder};
use medvt_frame::synth::{BodyPart, MotionPattern, PhantomVideo};
use medvt_frame::VideoClip;
use medvt_motion::HexOrientation;
use medvt_mpsoc::{simulate_slot, DvfsPolicy, Platform, PowerModel};
use medvt_sched::WorkloadLut;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct AblationRow {
    variant: String,
    frame_secs: f64,
    psnr_db: f64,
    bitrate_mbps: f64,
}

fn clip(scale: Scale) -> VideoClip {
    PhantomVideo::builder(BodyPart::LungChest)
        .resolution(scale.resolution())
        .motion(MotionPattern::Pan { dx: 1.0, dy: 0.3 })
        .seed(42)
        .build()
        .capture(scale.frames().min(17))
}

fn profile_proposed(scale: Scale) -> VideoProfile {
    let mut ctl = ContentAwareController::new(pipeline_config(scale), WorkloadLut::new());
    profile_video(
        "ablation",
        "lung_chest",
        &clip(scale),
        &mut ctl,
        &EncoderConfig::default(),
        false,
    )
}

fn row_uniform(scale: Scale, label: &str, policy: MePolicy) -> AblationRow {
    let cost = medvt_bench::cost_model(scale);
    let mut ctl = UniformMeController::new(4, 3, Qp::new(32).expect("valid"), policy);
    let stats = VideoEncoder::new(EncoderConfig::default()).encode_clip(&clip(scale), &mut ctl);
    let cycles: u64 = stats
        .frames
        .iter()
        .flat_map(|f| f.tiles.iter())
        .map(|t| cost.tile_cycles(t))
        .sum();
    AblationRow {
        variant: label.to_string(),
        frame_secs: cycles as f64 / 3.6e9 / stats.frames.len() as f64,
        psnr_db: stats.mean_psnr(),
        bitrate_mbps: stats.bitrate_mbps(),
    }
}

fn main() {
    let scale = Scale::from_env();
    println!(
        "Ablation study ({} @ {})\n",
        scale.frames().min(17),
        scale.resolution()
    );

    // --- 1+2: pipeline variants ------------------------------------
    let full = profile_proposed(scale);
    let mut rows = vec![AblationRow {
        variant: "full pipeline (retile + QP ladder + biomed ME)".into(),
        frame_secs: full.mean_frame_secs(),
        psnr_db: full.mean_psnr_db,
        bitrate_mbps: full.bitrate_mbps,
    }];
    rows.push(row_uniform(
        scale,
        "uniform 4x3 + biomed ME (no retiling/QP ladder)",
        MePolicy::Proposed,
    ));
    rows.push(row_uniform(
        scale,
        "uniform 4x3 + hexagon ME",
        MePolicy::Fixed(SearchSpec::Hexagon(HexOrientation::Horizontal)),
    ));
    rows.push(row_uniform(
        scale,
        "uniform 4x3 + TZ ME",
        MePolicy::Fixed(SearchSpec::Tz),
    ));

    println!(
        "{:<50} {:>11} {:>8} {:>8}",
        "variant", "s/frame", "PSNR", "Mbps"
    );
    for r in &rows {
        println!(
            "{:<50} {:>11.4} {:>8.2} {:>8.3}",
            r.variant, r.frame_secs, r.psnr_db, r.bitrate_mbps
        );
    }
    let me_gain = rows[3].frame_secs / rows[1].frame_secs;
    let tiling_gain = rows[1].frame_secs / rows[0].frame_secs;
    println!("\ncontribution: biomed ME alone {me_gain:.2}x vs TZ;");
    println!("              content-aware tiling/QP a further {tiling_gain:.2}x on top\n");

    // --- 3: DVFS policies at identical load -------------------------
    let platform = Platform::quad_core();
    let power = PowerModel::default();
    let slot = 1.0 / 24.0;
    let loads = vec![slot * 0.3, slot * 0.55, slot * 0.8, 0.0];
    let prev = vec![platform.fmin(); 4];
    println!("{:<22} {:>10} {:>8}", "DVFS policy", "power(W)", "misses");
    let mut dvfs_rows = Vec::new();
    for (name, policy) in [
        ("stretch-to-deadline", DvfsPolicy::StretchToDeadline),
        ("race-to-idle", DvfsPolicy::RaceToIdle),
        ("pinned at fmax [19]", DvfsPolicy::PinnedMax),
    ] {
        let report = simulate_slot(&platform, &power, policy, &loads, &prev, slot);
        println!(
            "{:<22} {:>10.2} {:>8}",
            name,
            report.power_w(),
            report.deadline_misses
        );
        dvfs_rows.push((name.to_string(), report.power_w()));
    }
    let stretch = dvfs_rows[0].1;
    let pinned = dvfs_rows[2].1;
    println!(
        "\ncontribution: per-core DVFS saves {:.0}% vs pinned-rail operation",
        (pinned - stretch) / pinned * 100.0
    );

    let path = write_artifact("ablation", &(rows, dvfs_rows));
    println!("artifact: {}", path.display());
}
