//! Checks the paper's three headline claims end to end:
//!
//! 1. the proposed fast motion search gives ≈4x ME speedup,
//! 2. ≈1.6x more users served than the state of the art \[19\],
//! 3. ≈44% less power at the same throughput,
//!
//! all without compression or PSNR degradation.
//!
//! Run: `cargo run --release -p medvt-bench --bin headline`

use medvt_bench::{baseline_profiles, proposed_profiles, write_artifact, Scale};
use medvt_core::{Approach, MePolicy, ServerConfig, ServerSim, UniformMeController};
use medvt_encoder::{EncoderConfig, Qp, SearchSpec, VideoEncoder};
use medvt_frame::synth::{BodyPart, MotionPattern, PhantomVideo};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Headline {
    me_speedup_vs_tz: f64,
    user_ratio: f64,
    power_savings_pct_at_max_common_users: f64,
    proposed_psnr_avg: f64,
    baseline_psnr_avg: f64,
}

fn main() {
    // The scale is read before the minutes of work, so a mistyped
    // value stops the run at once.
    let scale = Scale::from_env();
    let sim = ServerSim::new(ServerConfig::default());

    // Claim 1: ME speedup on a representative tiling (4x3).
    eprintln!("measuring ME speedup…");
    let clip = PhantomVideo::builder(BodyPart::Brain)
        .resolution(scale.resolution())
        .motion(MotionPattern::Pan { dx: 1.2, dy: 0.4 })
        .seed(77)
        .build()
        .capture(scale.me_frames().min(33));
    let run = |policy| {
        let mut ctl = UniformMeController::new(4, 3, Qp::new(32).expect("valid"), policy);
        VideoEncoder::new(EncoderConfig::default()).encode_clip(&clip, &mut ctl)
    };
    let tz = run(MePolicy::Fixed(SearchSpec::Tz));
    let proposed_me = run(MePolicy::Proposed);
    let speedup = tz.total_sad_samples() as f64 / proposed_me.total_sad_samples().max(1) as f64;

    // Claims 2 & 3: serving capacity and power.
    eprintln!("profiling suites…");
    let prop_profiles = proposed_profiles(scale);
    let base_profiles = baseline_profiles(scale);
    eprintln!("serving…");
    let prop = sim.serve_max(&prop_profiles, Approach::Proposed);
    let base = sim.serve_max(&base_profiles, Approach::Baseline);
    let ratio = prop.users_served as f64 / base.users_served.max(1) as f64;
    let common = base.users_served.clamp(1, 12);
    let savings = sim
        .power_savings_percent(&prop_profiles, &base_profiles, common)
        .unwrap_or(f64::NAN);

    println!("Headline claims (paper → measured):");
    println!("  ME speedup:        4x   → {speedup:.1}x");
    println!(
        "  users served:      1.6x → {ratio:.2}x  ({} vs {})",
        prop.users_served, base.users_served
    );
    println!("  power savings:     44%  → {savings:.0}% (at {common} users)");
    println!(
        "  PSNR (avg):        no loss → proposed {:.1} dB vs [19] {:.1} dB",
        prop.psnr_db.avg, base.psnr_db.avg
    );

    let artifact = Headline {
        me_speedup_vs_tz: speedup,
        user_ratio: ratio,
        power_savings_pct_at_max_common_users: savings,
        proposed_psnr_avg: prop.psnr_db.avg,
        baseline_psnr_avg: base.psnr_db.avg,
    };
    let path = write_artifact("headline", &artifact);
    println!("artifact: {}", path.display());
}
