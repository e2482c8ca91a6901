//! Motion-search laboratory: encode one tile of a phantom video as a
//! P-frame with every implemented block-matching algorithm, through the
//! encoder's own tile path (`encode_tile`), and compare search effort,
//! bits, PSNR, inter blocks chosen and the tile's dominant vector.
//!
//! Run: `cargo run --release --example motion_search_lab`

use medvt::encoder::{encode_tile, EncoderConfig, SearchSpec, TileConfig};
use medvt::frame::synth::{BodyPart, MotionPattern, PhantomVideo};
use medvt::frame::{FrameKind, Rect, Resolution};
use medvt::motion::{HexOrientation, MotionLevel, MotionVector};

fn main() {
    // Panning bones study: global motion 1.5 px/frame to the right.
    let video = PhantomVideo::builder(BodyPart::Bones)
        .resolution(Resolution::new(320, 240))
        .motion(MotionPattern::Pan { dx: 1.5, dy: 0.0 })
        .seed(13)
        .build();
    let reference = video.render(0);
    let current = video.render(4); // 6 px of true motion
    let tile = Rect::new(64, 56, 192, 128); // the anatomy-bearing center

    let algorithms = [
        ("full", SearchSpec::Full),
        ("three-step", SearchSpec::ThreeStep),
        ("diamond", SearchSpec::Diamond),
        ("cross", SearchSpec::Cross),
        ("one-at-a-time", SearchSpec::OneAtATime),
        ("hexagon-h", SearchSpec::Hexagon(HexOrientation::Horizontal)),
        ("hexagon-rot", SearchSpec::Hexagon(HexOrientation::Rotating)),
        ("tz (HM ref)", SearchSpec::Tz),
        ("biomed first", SearchSpec::biomed_first(MotionLevel::High)),
        (
            "biomed follow",
            SearchSpec::biomed_subsequent(MotionLevel::High, MotionVector::new(-6, 0)),
        ),
    ];

    println!(
        "{:<14} {:>12} {:>8} {:>10} {:>6} {:>12}",
        "algorithm", "SAD samples", "bits", "PSNR dB", "inter", "dominant MV"
    );
    let mut full_samples = 0u64;
    for (name, search) in algorithms {
        let out = encode_tile(
            &current,
            &[&reference],
            FrameKind::Predicted,
            tile,
            &TileConfig {
                search,
                ..TileConfig::default()
            },
            &EncoderConfig::default(),
        );
        let s = out.stats;
        if matches!(search, SearchSpec::Full) {
            full_samples = s.sad_samples;
        }
        let speedup = if s.sad_samples > 0 && full_samples > 0 {
            format!(
                "({:>5.1}x vs full)",
                full_samples as f64 / s.sad_samples as f64
            )
        } else {
            String::new()
        };
        println!(
            "{:<14} {:>12} {:>8} {:>10.2} {:>6} {:>12} {}",
            name,
            s.sad_samples,
            s.bits,
            s.psnr(),
            s.inter_blocks,
            out.dominant_mv.to_string(),
            speedup
        );
    }
    println!(
        "\nTrue motion is (-6,0). The direction-seeded biomed follow-up starts\n\
         in the inherited direction and needs a fraction of the search work —\n\
         the mechanism behind the paper's 4x ME speedup. (The low-motion\n\
         variant would shrink the window to 8x8, which is why the analyzer\n\
         only assigns it to tiles probed as low-motion.)"
    );
}
