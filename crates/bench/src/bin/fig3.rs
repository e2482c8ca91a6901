//! Regenerates **Fig. 3**: the tile structure and per-tile CPU time of
//! one representative frame under (a) the baseline \[19\] and (b) the
//! proposed content-aware approach, plus the resulting core/frequency
//! usage.
//!
//! Run: `cargo run --release -p medvt-bench --bin fig3`

use medvt_bench::{baseline_config, pipeline_config, write_artifact, Scale};
use medvt_core::{profile_video, Baseline19Controller, ContentAwareController, VideoProfile};
use medvt_encoder::EncoderConfig;
use medvt_frame::synth::{BodyPart, MotionPattern, PhantomVideo};
use medvt_mpsoc::{plan_core_on, DvfsPolicy, Platform};
use medvt_sched::{allocate_on, baseline_allocate, Allocation, UserDemand};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Fig3Side {
    label: String,
    tiles: Vec<(String, f64)>,
    cores_used: usize,
    cores_at_fmax: usize,
}

fn analyze_side(label: &str, profile: &VideoProfile, frame_idx: usize, baseline: bool) -> Fig3Side {
    let platform = Platform::xeon_e5_2667_quad();
    let slot = 1.0 / 24.0;
    let frame = &profile.frames[frame_idx.min(profile.frames.len() - 1)];
    let demand: Vec<f64> = frame.tiles.iter().map(|t| t.fmax_secs).collect();
    let user = [UserDemand::new(0, demand)];
    // [19]: one tile per core, rail frequencies. Proposed: Algorithm 2
    // packing + lowest-sufficient frequency.
    let (alloc, policy): (Allocation, DvfsPolicy) = if baseline {
        (
            baseline_allocate(platform.total_cores(), &user),
            DvfsPolicy::PinnedMax,
        )
    } else {
        (
            allocate_on(&platform.core_speeds(), slot, &user),
            DvfsPolicy::StretchToDeadline,
        )
    };
    let mut cores_at_fmax = 0;
    for (core, &load) in alloc
        .core_loads
        .iter()
        .enumerate()
        .filter(|&(_, &l)| l > 0.0)
    {
        let plan = plan_core_on(
            platform.class_of(core),
            platform.dvfs_transition_secs,
            policy,
            load,
            slot,
            platform.fmin(),
        );
        if plan.freq == platform.fmax() {
            cores_at_fmax += 1;
        }
    }
    Fig3Side {
        label: label.to_string(),
        tiles: frame
            .tiles
            .iter()
            .map(|t| (t.rect.to_string(), t.fmax_secs))
            .collect(),
        cores_used: alloc.used_cores(),
        cores_at_fmax,
    }
}

fn main() {
    let scale = Scale::from_env();
    // A representative diagnostic video: textured center, panning view.
    let clip = PhantomVideo::builder(BodyPart::LungChest)
        .resolution(scale.resolution())
        .motion(MotionPattern::Pan { dx: 1.0, dy: 0.3 })
        .seed(42)
        .build()
        .capture(scale.frames().min(17));

    eprintln!("profiling proposed…");
    let mut prop_ctl =
        ContentAwareController::new(pipeline_config(scale), medvt_sched::WorkloadLut::new());
    let prop = profile_video(
        "fig3",
        "lung_chest",
        &clip,
        &mut prop_ctl,
        &EncoderConfig::default(),
        false,
    );
    eprintln!("profiling baseline [19]…");
    let mut base_ctl = Baseline19Controller::new(baseline_config(scale));
    base_ctl.set_rails_pinned(true);
    let base = profile_video(
        "fig3",
        "lung_chest",
        &clip,
        &mut base_ctl,
        &EncoderConfig::default(),
        false,
    );

    // A steady mid-GOP frame (poc 12), as in the paper's snapshot.
    let frame_idx = 12;
    let a = analyze_side("(a) work [19]", &base, frame_idx, true);
    let b = analyze_side("(b) proposed", &prop, frame_idx, false);

    println!("Fig. 3 — tile structure and per-tile CPU time (s), frame #{frame_idx}\n");
    for side in [&a, &b] {
        println!("{}:", side.label);
        for (rect, secs) in &side.tiles {
            println!("  {:<18} {:>8.4} s", rect, secs);
        }
        let total: f64 = side.tiles.iter().map(|(_, s)| s).sum();
        println!(
            "  => {} tiles, Σ {:.4} s, {} cores used, {} at fmax\n",
            side.tiles.len(),
            total,
            side.cores_used,
            side.cores_at_fmax
        );
    }

    let total_a: f64 = a.tiles.iter().map(|(_, s)| s).sum();
    let total_b: f64 = b.tiles.iter().map(|(_, s)| s).sum();
    println!(
        "shape: proposed has more tiles ({} vs {}) with more diverse, smaller times",
        b.tiles.len(),
        a.tiles.len()
    );
    println!(
        "shape: Σ {:.4} vs {:.4} s — paper: 0.0765 vs 0.159 (proposed cheaper)",
        total_b, total_a
    );
    println!(
        "shape: cores {} vs {} (paper: 3 vs 5), at fmax {} vs {} (paper: 2 vs 5)",
        b.cores_used, a.cores_used, b.cores_at_fmax, a.cores_at_fmax
    );

    let path = write_artifact("fig3", &(a, b));
    println!("artifact: {}", path.display());
}
