//! Multi-user telemedicine server: profile the medical suite (each
//! frame's tiles spread over the host's cores, as every encode does;
//! `profile_video`'s last argument is ignored), then serve an
//! always-full queue of doctors on the 32-core Xeon platform with both
//! the proposed scheduler and the baseline [19], comparing throughput
//! and power.
//!
//! Serving hands `ThreadPoolBackend` each GOP's slots as one run: the
//! serving thread and the pool's workers claim the run's tile threads
//! in slot order, while Algorithm 2's placement prices them (the analytical `SimBackend` reports
//! identical numbers).
//!
//! Run: `cargo run --release --example multi_user_server`

use medvt::analyze::AnalyzerConfig;
use medvt::core::{
    profile_video, Approach, Baseline19Controller, BaselineConfig, ContentAwareController,
    PipelineConfig, ServerConfig, ServerSim,
};
use medvt::encoder::EncoderConfig;
use medvt::frame::synth::{medical_suite, PhantomConfig, PhantomVideo};
use medvt::frame::Resolution;
use medvt::runtime::ThreadPoolBackend;
use medvt::sched::{LutBank, WorkloadLut};

fn main() {
    let resolution = Resolution::new(320, 240);
    let frames = 33;
    let server_cfg = ServerConfig::default();
    let workers = medvt::frame::host_executors();
    println!(
        "profiling the 10-video medical suite at {resolution} ({frames} frames each) \
         with parallel tiles…"
    );

    let pipeline = PipelineConfig {
        analyzer: AnalyzerConfig {
            min_tile_width: 32,
            min_tile_height: 32,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut bank = LutBank::new();
    let mut proposed = Vec::new();
    let mut baseline = Vec::new();
    for (name, cfg) in medical_suite(2024) {
        let cfg = PhantomConfig { resolution, ..cfg };
        let class = cfg.body_part.label().to_string();
        let clip = PhantomVideo::new(cfg).capture(frames);
        // Proposed: LUTs transfer within a body-part class (§III-D1).
        let lut: WorkloadLut = bank.seed_for(&class);
        let mut ctl = ContentAwareController::new(pipeline, lut);
        proposed.push(profile_video(
            &name,
            &class,
            &clip,
            &mut ctl,
            &EncoderConfig::default(),
            true,
        ));
        bank.learn(&class, ctl.lut());
        // Baseline [19].
        let mut base = Baseline19Controller::new(BaselineConfig::default());
        baseline.push(profile_video(
            &name,
            &class,
            &clip,
            &mut base,
            &EncoderConfig::default(),
            true,
        ));
        println!("  {name}: done");
    }

    let mut backend =
        ThreadPoolBackend::with_workers(server_cfg.platform.clone(), server_cfg.power, workers);
    let sim = ServerSim::new(server_cfg);
    let p = sim.serve_max_on(&mut backend, &proposed, Approach::Proposed);
    let b = sim.serve_max_on(&mut backend, &baseline, Approach::Baseline);

    println!("\n32-core server, 24 fps per user, queue always full:");
    for r in [&p, &b] {
        println!(
            "  {:<10} {:>3} users  PSNR {:>5.1} dB  {:>5.2} Mbps  {:>6.1} W  on-time {:>4.0}%",
            r.approach.label(),
            r.users_served,
            r.psnr_db.avg,
            r.bitrate_mbps.avg,
            r.avg_power_w,
            r.on_time_rate() * 100.0
        );
    }
    println!(
        "\nthroughput gain: {:.2}x users (paper: 1.6x)",
        p.users_served as f64 / b.users_served.max(1) as f64
    );
    if let Some(savings) = sim.power_savings_percent(&proposed, &baseline, b.users_served.min(8)) {
        println!(
            "power savings at {} users: {savings:.0}% (paper: up to 44%)",
            b.users_served.min(8)
        );
    }
}
