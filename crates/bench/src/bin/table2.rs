//! Regenerates **Table II**: PSNR, bitrate and number of users served
//! by the proposed approach vs the baseline \[19\] when the user queue is
//! always full on the 32-core server.
//!
//! Run: `cargo run --release -p medvt-bench --bin table2`

use medvt_bench::{baseline_profiles, proposed_profiles, write_artifact, Scale};
use medvt_core::{Approach, ServerConfig, ServerReport, ServerSim};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Table2 {
    proposed: ServerReport,
    baseline: ServerReport,
    user_ratio: f64,
}

fn print_block(r: &ServerReport) {
    println!(
        "{:<10}  Max  {:>6.1}  {:>6.2}  {:>4}",
        r.approach.label(),
        r.psnr_db.max,
        r.bitrate_mbps.max,
        ""
    );
    println!(
        "{:<10}  Min  {:>6.1}  {:>6.2}  {:>4}",
        "", r.psnr_db.min, r.bitrate_mbps.min, ""
    );
    println!(
        "{:<10}  Avg  {:>6.1}  {:>6.2}  {:>4}",
        "", r.psnr_db.avg, r.bitrate_mbps.avg, r.users_served
    );
}

fn main() {
    // The scale is read before the minutes of profiling, so a
    // mistyped value stops the run at once.
    let scale = Scale::from_env();
    let sim = ServerSim::new(ServerConfig::default());
    eprintln!("profiling the 10-video suite (proposed)…");
    let prop_profiles = proposed_profiles(scale);
    eprintln!("profiling the 10-video suite (baseline [19])…");
    let base_profiles = baseline_profiles(scale);

    eprintln!("serving…");
    let proposed = sim.serve_max(&prop_profiles, Approach::Proposed);
    let baseline = sim.serve_max(&base_profiles, Approach::Baseline);

    println!("\nTable II — PSNR, bitrate and number of served users");
    println!(
        "{:<10}  {:<4} {:>6}  {:>6}  {:>5}",
        "", "", "PSNR", "Mbps", "users"
    );
    print_block(&proposed);
    print_block(&baseline);

    let ratio = proposed.users_served as f64 / baseline.users_served.max(1) as f64;
    println!(
        "\nshape: proposed serves {:.2}x the users of [19] (paper ≈ 1.5-1.6x)",
        ratio
    );
    println!(
        "shape: PSNR floors {:.1} vs {:.1} dB — no quality degradation (paper: ~39.9/39.7)",
        proposed.psnr_db.min, baseline.psnr_db.min
    );
    println!(
        "shape: deadline hit rates {:.0}% / {:.0}%",
        proposed.on_time_rate() * 100.0,
        baseline.on_time_rate() * 100.0
    );

    let artifact = Table2 {
        proposed,
        baseline,
        user_ratio: ratio,
    };
    let path = write_artifact("table2", &artifact);
    println!("artifact: {}", path.display());
}
