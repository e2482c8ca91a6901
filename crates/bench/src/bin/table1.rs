//! Regenerates **Table I**: speedup, PSNR loss and compression
//! (bitrate) loss of the proposed motion-estimation policy and of
//! hexagon-based search, both relative to TZ search, across the
//! paper's eleven uniform tilings.
//!
//! Speedup is measured as the ratio of motion-search sample operations
//! (the complexity measure of the search algorithms); PSNR/bitrate come
//! from the real encode.
//!
//! Run: `cargo run --release -p medvt-bench --bin table1`
//! (`MEDVT_SCALE=full` for paper geometry).

use medvt_bench::{write_artifact, Scale};
use medvt_core::{MePolicy, UniformMeController};
use medvt_encoder::{CostModel, EncoderConfig, Qp, SearchSpec, SequenceStats, VideoEncoder};
use medvt_frame::synth::{BodyPart, MotionPattern, PhantomVideo};
use medvt_frame::VideoClip;
use medvt_motion::HexOrientation;
use serde::Serialize;

const TILINGS: [(usize, usize); 11] = [
    (1, 1),
    (2, 1),
    (2, 2),
    (2, 3),
    (2, 4),
    (5, 2),
    (4, 3),
    (5, 3),
    (5, 4),
    (4, 6),
    (5, 6),
];

#[derive(Debug, Serialize)]
struct MethodRow {
    method: String,
    /// Whole-encoder speedup from the cycle model (the paper's metric).
    speedup: Vec<f64>,
    /// Pure ME complexity reduction (distinct candidates evaluated).
    me_speedup: Vec<f64>,
    psnr_loss_db: Vec<f64>,
    bitrate_loss_pct: Vec<f64>,
}

/// Total modelled encode cycles of a sequence.
fn total_cycles(stats: &SequenceStats) -> u64 {
    let model = CostModel::default();
    stats
        .frames
        .iter()
        .flat_map(|f| f.tiles.iter())
        .map(|t| model.tile_cycles(t))
        .sum()
}

#[derive(Debug, Serialize)]
struct Table1 {
    tilings: Vec<String>,
    rows: Vec<MethodRow>,
}

fn encode(clip: &VideoClip, cols: usize, rows: usize, policy: MePolicy) -> SequenceStats {
    let mut ctl = UniformMeController::new(cols, rows, Qp::new(32).expect("valid"), policy);
    VideoEncoder::new(EncoderConfig::default()).encode_clip(clip, &mut ctl)
}

fn main() {
    let scale = Scale::from_env();
    // The paper uses one 400-frame medical video for this table; the
    // brain-pan phantom exercises both low-motion borders and a
    // high-motion center.
    let clip = PhantomVideo::builder(BodyPart::Brain)
        .resolution(scale.resolution())
        .motion(MotionPattern::Pan { dx: 1.2, dy: 0.4 })
        .seed(77)
        .build()
        .capture(scale.me_frames());

    println!("Table I — ME speedup / PSNR loss / bitrate loss vs TZ search");
    println!(
        "(phantom video, {} frames @ {})\n",
        clip.len(),
        scale.resolution()
    );

    let mut table = Table1 {
        tilings: TILINGS.iter().map(|(c, r)| format!("{c}x{r}")).collect(),
        rows: vec![
            MethodRow {
                method: "Proposed".into(),
                speedup: vec![],
                me_speedup: vec![],
                psnr_loss_db: vec![],
                bitrate_loss_pct: vec![],
            },
            MethodRow {
                method: "Hexagonal [15]".into(),
                speedup: vec![],
                me_speedup: vec![],
                psnr_loss_db: vec![],
                bitrate_loss_pct: vec![],
            },
        ],
    };

    for &(cols, rows) in &TILINGS {
        let tz = encode(&clip, cols, rows, MePolicy::Fixed(SearchSpec::Tz));
        let hex = encode(
            &clip,
            cols,
            rows,
            MePolicy::Fixed(SearchSpec::Hexagon(HexOrientation::Horizontal)),
        );
        let proposed = encode(&clip, cols, rows, MePolicy::Proposed);
        let tz_samples = tz.total_sad_samples().max(1) as f64;
        let tz_cycles = total_cycles(&tz).max(1) as f64;
        let (first, rest) = table.rows.split_at_mut(1);
        for (row, stats) in [(&mut first[0], &proposed), (&mut rest[0], &hex)] {
            row.speedup
                .push(tz_cycles / total_cycles(stats).max(1) as f64);
            row.me_speedup
                .push(tz_samples / stats.total_sad_samples().max(1) as f64);
            row.psnr_loss_db.push(tz.mean_psnr() - stats.mean_psnr());
            row.bitrate_loss_pct.push(
                (stats.total_bits() as f64 - tz.total_bits() as f64) / tz.total_bits() as f64
                    * 100.0,
            );
        }
        eprintln!("  …{cols}x{rows} done");
    }

    // Print in the paper's layout.
    let header: Vec<String> = std::iter::once("            ".to_string())
        .chain(table.tilings.iter().map(|t| format!("{t:>6}")))
        .collect();
    println!("{}", header.join(" "));
    for row in &table.rows {
        println!("{}:", row.method);
        let fmt = |v: &[f64], p: usize| {
            v.iter()
                .map(|x| format!("{x:>6.p$}", p = p))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("  Speedup (x)      {}", fmt(&row.speedup, 1));
        println!("  ME speedup (x)   {}", fmt(&row.me_speedup, 1));
        println!("  PSNR loss (dB)   {}", fmt(&row.psnr_loss_db, 2));
        println!("  Bitrate loss (%) {}", fmt(&row.bitrate_loss_pct, 1));
    }

    let path = write_artifact("table1", &table);
    println!("\nartifact: {}", path.display());

    // Shape checks mirroring the paper's trends.
    let p = &table.rows[0];
    let h = &table.rows[1];
    let p_last = *p.speedup.last().expect("rows filled");
    let p_first = p.speedup[0];
    println!(
        "\nshape: proposed speedup grows {:.1}x → {:.1}x across tilings",
        p_first, p_last
    );
    let wins = p
        .speedup
        .iter()
        .zip(&h.speedup)
        .filter(|(a, b)| a >= b)
        .count();
    println!("shape: proposed ≥ hexagonal speedup in {wins}/11 tilings");
    let max_loss = p.psnr_loss_db.iter().cloned().fold(0.0, f64::max);
    println!("shape: max proposed PSNR loss {max_loss:.2} dB (paper ≤ 0.31)");
}
