//! Tiling visualizer: render phantom frames with the content-aware
//! tiling and the baseline [19] tiling overlaid (paper Fig. 1 / Fig. 3
//! style) plus texture/motion class maps, as PGM images.
//!
//! Run: `cargo run --release --example tiling_visualizer`
//! Output: `target/visualizer/*.pgm`

use medvt::analyze::{
    analyze_tiling, AnalyzerConfig, CapacityBalancedTiler, Retiler, TextureClass,
};
use medvt::frame::io::{overlay_rects, save_pgm};
use medvt::frame::synth::{BodyPart, MotionPattern, PhantomVideo};
use medvt::frame::{Plane, Resolution};
use medvt::motion::MotionLevel;
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = PathBuf::from("target/visualizer");
    std::fs::create_dir_all(&out)?;

    let video = PhantomVideo::builder(BodyPart::LungChest)
        .resolution(Resolution::new(320, 240))
        .motion(MotionPattern::Pan { dx: 1.2, dy: 0.3 })
        .seed(42)
        .build();
    let f0 = video.render(0);
    let f4 = video.render(4);

    // Raw frames (paper Fig. 1 top row).
    save_pgm(out.join("frame_t0.pgm"), f0.y())?;
    save_pgm(out.join("frame_t4.pgm"), f4.y())?;

    // Content-aware re-tiling.
    let cfg = AnalyzerConfig {
        min_tile_width: 32,
        min_tile_height: 32,
        ..Default::default()
    };
    let retiler = Retiler::new(cfg)?;
    let outcome = retiler.retile(f4.y(), Some(f0.y()));
    let tiles = outcome.tiling.tiles();
    save_pgm(
        out.join("tiling_proposed.pgm"),
        &overlay_rects(f4.y(), tiles, 255),
    )?;
    println!(
        "proposed tiling: {} tiles (borders l{} r{} t{} b{})",
        tiles.len(),
        outcome.borders.left,
        outcome.borders.right,
        outcome.borders.top,
        outcome.borders.bottom
    );
    for a in &outcome.analyses {
        println!(
            "  {:<16} texture {:<6} (cv {:.3})  motion {:?}",
            a.rect.to_string(),
            a.texture.class.to_string(),
            a.texture.cv,
            a.motion_level()
        );
    }

    // Baseline [19] tiling.
    let base = CapacityBalancedTiler::new(5).tile(f4.y());
    save_pgm(
        out.join("tiling_baseline19.pgm"),
        &overlay_rects(f4.y(), base.tiles(), 255),
    )?;
    println!("baseline tiling: {} capacity-balanced tiles", base.len());

    // Class maps over a fine uniform grid.
    let grid = medvt::frame::Tiling::uniform(f4.y().bounds(), 10, 6);
    let analyses = analyze_tiling(f4.y(), Some(f0.y()), &grid, &cfg);
    let mut texture_map = Plane::new(320, 240);
    let mut motion_map = Plane::new(320, 240);
    for a in &analyses {
        let tex = match a.texture.class {
            TextureClass::Low => 40,
            TextureClass::Medium => 140,
            TextureClass::High => 250,
        };
        let mot = match a.motion_level() {
            MotionLevel::Low => 40,
            MotionLevel::High => 250,
        };
        texture_map.fill_rect(&a.rect, tex);
        motion_map.fill_rect(&a.rect, mot);
    }
    save_pgm(out.join("map_texture.pgm"), &texture_map)?;
    save_pgm(out.join("map_motion.pgm"), &motion_map)?;

    println!("\nwrote PGM images to {}", out.display());
    Ok(())
}
