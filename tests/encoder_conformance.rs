//! Encoder conformance across crates: rate–distortion behaviour,
//! tile independence, and GOP reference integrity on phantom material.

use medvt::encoder::{
    encode_frame, encode_uniform, EncoderConfig, FramePlan, Qp, SearchSpec, TileConfig,
};
use medvt::frame::quality::frame_psnr;
use medvt::frame::synth::{BodyPart, MotionPattern, PhantomVideo};
use medvt::frame::{FrameKind, Resolution, Tiling, VideoClip};
use medvt::motion::SearchWindow;

fn clip(frames: usize) -> VideoClip {
    PhantomVideo::builder(BodyPart::Cardiac)
        .resolution(Resolution::new(160, 128))
        .motion(MotionPattern::Breathe {
            amplitude: 0.03,
            period: 24.0,
        })
        .seed(55)
        .build()
        .capture(frames)
}

fn tcfg(qp: u8) -> TileConfig {
    TileConfig {
        qp: Qp::new(qp).expect("valid"),
        search: SearchSpec::Diamond,
        window: SearchWindow::W16,
    }
}

#[test]
fn rate_distortion_is_monotone_across_the_qp_ladder() {
    let clip = clip(9);
    let mut last_bits = u64::MAX;
    let mut last_psnr = f64::INFINITY;
    for qp in [22u8, 27, 32, 37, 42] {
        let stats = encode_uniform(&clip, 2, 2, tcfg(qp), EncoderConfig::default());
        let bits = stats.total_bits();
        let psnr = stats.mean_psnr();
        assert!(
            bits < last_bits,
            "QP{qp}: bits must fall ({bits} vs {last_bits})"
        );
        assert!(
            psnr < last_psnr + 0.01,
            "QP{qp}: psnr must not rise ({psnr} vs {last_psnr})"
        );
        last_bits = bits;
        last_psnr = psnr;
    }
}

#[test]
fn tiles_are_independent_units() {
    // Encoding the same frame with different tilings must reconstruct
    // equally well — tiles only partition work, not quality collapse.
    let clip = clip(1);
    let frame = clip.get(0).expect("one frame");
    let ecfg = EncoderConfig::default();
    let psnr_of = |cols: usize, rows: usize| {
        let plan = FramePlan::uniform(frame.y().bounds(), cols, rows, tcfg(27));
        let out = encode_frame(frame, &[], FrameKind::Intra, 0, &plan, &ecfg);
        frame_psnr(frame, &out.recon)
    };
    let single = psnr_of(1, 1);
    let many = psnr_of(4, 4);
    assert!(
        (single - many).abs() < 1.5,
        "tiling changed quality too much: {single} vs {many}"
    );
}

#[test]
fn more_tiles_cost_slightly_more_bits() {
    // Broken prediction contexts at tile borders cost bits — the
    // compression-loss column of Table I.
    let clip = clip(9);
    let one = encode_uniform(&clip, 1, 1, tcfg(32), EncoderConfig::default());
    let many = encode_uniform(&clip, 5, 4, tcfg(32), EncoderConfig::default());
    assert!(many.total_bits() >= one.total_bits());
    let loss = (many.total_bits() - one.total_bits()) as f64 / one.total_bits() as f64 * 100.0;
    assert!(loss < 20.0, "tiling overhead {loss}% looks wrong");
}

#[test]
fn inter_coding_exploits_temporal_redundancy() {
    let still = PhantomVideo::builder(BodyPart::Brain)
        .resolution(Resolution::new(160, 128))
        .motion(MotionPattern::Still)
        .noise_amplitude(0.0)
        .seed(5)
        .build()
        .capture(9);
    let stats = encode_uniform(&still, 1, 1, tcfg(32), EncoderConfig::default());
    let idr_bits = stats.frames[0].bits();
    for f in &stats.frames[1..] {
        // Static inter frames carry only per-block mode/MV headers and
        // empty coded-block flags — well under half the IDR cost.
        assert!(
            f.bits() < idr_bits / 2,
            "static B/P frame {} should be nearly free: {} vs IDR {}",
            f.poc,
            f.bits(),
            idr_bits
        );
        assert_eq!(f.total().inter_blocks + f.total().intra_blocks, 80);
    }
}

#[test]
fn validated_tiling_round_trips_through_encoder() {
    let clip = clip(1);
    let frame = clip.get(0).expect("one frame");
    let tiling = Tiling::uniform(frame.y().bounds(), 2, 2);
    let configs = vec![tcfg(32); tiling.len()];
    let plan = FramePlan::new(tiling, configs);
    let out = encode_frame(
        frame,
        &[],
        FrameKind::Intra,
        0,
        &plan,
        &EncoderConfig::default(),
    );
    assert_eq!(out.stats.tiles.len(), 4);
    assert!(out.stats.psnr() > 30.0);
}
