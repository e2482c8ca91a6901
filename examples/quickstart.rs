//! Quickstart: transcode a synthetic bio-medical video with the full
//! content-aware pipeline and print quality/throughput numbers.
//!
//! Run: `cargo run --release --example quickstart`

use medvt::analyze::AnalyzerConfig;
use medvt::core::{ContentAwareController, PipelineConfig, TranscodeController};
use medvt::encoder::{EncoderConfig, VideoEncoder};
use medvt::frame::synth::{BodyPart, PhantomVideo};
use medvt::frame::Resolution;
use medvt::sched::WorkloadLut;

fn main() {
    // 1. A stored "master" video: two seconds of phantom brain MRI.
    //    (Swap in `medvt::frame::io::load_y4m` for real material.)
    let video = PhantomVideo::builder(BodyPart::Brain)
        .resolution(Resolution::new(320, 240))
        .seed(7)
        .build();
    let clip = video.capture(49);
    println!(
        "source: {} frames @ {} ({:.1}s of {})",
        clip.len(),
        clip.resolution(),
        clip.duration_secs(),
        video.config().body_part,
    );

    // 2. The paper's pipeline: content-aware re-tiling, per-tile QP,
    //    bio-medical fast motion search, online workload LUT.
    let config = PipelineConfig {
        analyzer: AnalyzerConfig {
            min_tile_width: 32,
            min_tile_height: 32,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut controller = ContentAwareController::new(config, WorkloadLut::new());

    // 3. Encode with the Random Access GOP-8 structure.
    let stats = VideoEncoder::new(EncoderConfig::default()).encode_clip(&clip, &mut controller);

    println!("encoded:  PSNR {:.2} dB", stats.mean_psnr());
    println!("          bitrate {:.3} Mbit/s", stats.bitrate_mbps());

    // 4. Per-tile workload picture of the final GOP.
    let mut reports = controller.drain_reports();
    reports.sort_by_key(|r| r.poc);
    let last = reports.last().expect("at least one frame");
    println!(
        "          {} tiles in the last GOP's tiling:",
        last.tiles.len()
    );
    for t in &last.tiles {
        println!(
            "            {:<16} {:>7.2} ms @fmax  {:>6} bits  {:>5.1} dB",
            t.rect.to_string(),
            t.fmax_secs * 1e3,
            t.bits,
            t.psnr_db
        );
    }
    let demand: f64 = controller.demand_secs().iter().sum();
    println!(
        "          estimated demand {:.1} ms/frame → {} core(s) at 24 fps",
        demand * 1e3,
        (demand * 24.0).ceil() as usize
    );
}
