//! Whole-frame encoding: tile partition validation, serial or
//! scoped-thread per-tile encoding and reconstruction stitching.

use crate::config::{EncoderConfig, TileConfig};
use crate::stats::FrameStats;
use crate::tile::{encode_tile, TileOutcome};
use medvt_frame::{find_overlap, Frame, FrameKind, Rect};
use medvt_motion::MotionVector;
use std::fmt;

/// A violated [`FramePlan`] invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The plan has no tiles at all.
    NoTiles,
    /// `tiles` and `configs` lengths differ.
    ConfigMismatch {
        /// Number of tiles.
        tiles: usize,
        /// Number of configs.
        configs: usize,
    },
    /// A tile has zero area.
    EmptyTile {
        /// The offending tile.
        tile: Rect,
    },
    /// A tile reaches outside the frame.
    OutsideFrame {
        /// The offending tile.
        tile: Rect,
        /// The frame bounds.
        frame: Rect,
    },
    /// A tile is not aligned to the 8-sample coding grid.
    Misaligned {
        /// The offending tile.
        tile: Rect,
    },
    /// Tiles cover more or less area than the frame (gap or overlap).
    CoverageMismatch {
        /// Samples covered by the tiles.
        covered: usize,
        /// Samples in the frame.
        frame: usize,
    },
    /// Two tiles overlap.
    Overlap {
        /// First tile.
        a: Rect,
        /// Second tile.
        b: Rect,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NoTiles => write!(f, "plan has no tiles"),
            PlanError::ConfigMismatch { tiles, configs } => {
                write!(f, "{tiles} tiles but {configs} configs")
            }
            PlanError::EmptyTile { tile } => write!(f, "empty tile {tile}"),
            PlanError::OutsideFrame { tile, frame } => {
                write!(f, "tile {tile} outside frame {frame}")
            }
            PlanError::Misaligned { tile } => write!(f, "tile {tile} not 8-aligned"),
            PlanError::CoverageMismatch { covered, frame } => {
                write!(f, "tiles cover {covered} samples, frame has {frame}")
            }
            PlanError::Overlap { a, b } => write!(f, "tiles {a} and {b} overlap"),
        }
    }
}

impl std::error::Error for PlanError {}

/// The tiling and per-tile configurations for one frame — what the
/// content-aware pipeline produces per GOP and the encoder consumes
/// per frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FramePlan {
    /// Tile rectangles (must exactly partition the frame on the
    /// 8-sample grid).
    pub tiles: Vec<Rect>,
    /// Per-tile configuration, same order and length as `tiles`.
    pub configs: Vec<TileConfig>,
}

impl FramePlan {
    /// A uniform `cols x rows` plan with one shared configuration.
    ///
    /// # Panics
    ///
    /// Panics when the grid does not divide the frame into 8-aligned
    /// tiles (see [`FramePlan::validate`]).
    pub fn uniform(frame: Rect, cols: usize, rows: usize, config: TileConfig) -> Self {
        let tiles = split_aligned(frame, cols, rows);
        let configs = vec![config; tiles.len()];
        let plan = Self { tiles, configs };
        plan.validate(&frame).expect("uniform plan must be valid");
        plan
    }

    /// Validates that the plan exactly partitions `frame` with
    /// 8-aligned tiles and one config per tile.
    ///
    /// Overlap detection is an O(n log n) sweep over tile edges (the
    /// former pairwise check was O(n²) and dominated validation for
    /// fine tilings).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a typed [`PlanError`].
    pub fn validate(&self, frame: &Rect) -> Result<(), PlanError> {
        if self.tiles.is_empty() {
            return Err(PlanError::NoTiles);
        }
        if self.tiles.len() != self.configs.len() {
            return Err(PlanError::ConfigMismatch {
                tiles: self.tiles.len(),
                configs: self.configs.len(),
            });
        }
        let mut area = 0usize;
        for t in &self.tiles {
            if t.is_empty() {
                return Err(PlanError::EmptyTile { tile: *t });
            }
            if !frame.contains_rect(t) {
                return Err(PlanError::OutsideFrame {
                    tile: *t,
                    frame: *frame,
                });
            }
            if t.x % 8 != 0 || t.y % 8 != 0 || t.w % 8 != 0 || t.h % 8 != 0 {
                return Err(PlanError::Misaligned { tile: *t });
            }
            area += t.area();
        }
        if area != frame.area() {
            return Err(PlanError::CoverageMismatch {
                covered: area,
                frame: frame.area(),
            });
        }
        if let Some((a, b)) = find_overlap(&self.tiles) {
            return Err(PlanError::Overlap { a, b });
        }
        Ok(())
    }

    /// Number of tiles.
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }
}

/// Splits `frame` into a `cols x rows` grid whose interior boundaries
/// snap to the 8-sample grid (HEVC tiles snap to CTUs; 8 is this
/// substrate's coding granularity).
///
/// # Panics
///
/// Panics when the frame is too small for the requested grid.
pub fn split_aligned(frame: Rect, cols: usize, rows: usize) -> Vec<Rect> {
    assert!(cols > 0 && rows > 0, "grid must be non-empty");
    let xs = aligned_axis(frame.x, frame.w, cols);
    let ys = aligned_axis(frame.y, frame.h, rows);
    let mut tiles = Vec::with_capacity(cols * rows);
    for (y, h) in &ys {
        for (x, w) in &xs {
            tiles.push(Rect::new(*x, *y, *w, *h));
        }
    }
    tiles
}

fn aligned_axis(origin: usize, len: usize, n: usize) -> Vec<(usize, usize)> {
    assert!(
        len / 8 >= n,
        "cannot split {len} samples into {n} tiles of >=8 samples"
    );
    let units = len / 8; // length is a multiple of 8 for supported frames
    assert!(len.is_multiple_of(8), "frame dimension {len} not 8-aligned");
    let base = units / n;
    let extra = units % n;
    let mut out = Vec::with_capacity(n);
    let mut pos = origin;
    for i in 0..n {
        let span = (base + usize::from(i < extra)) * 8;
        out.push((pos, span));
        pos += span;
    }
    out
}

/// An encoded frame: reconstruction, statistics, per-tile dominant
/// motion and the bitstream.
#[derive(Debug, Clone)]
pub struct EncodedFrame {
    /// The reconstructed picture (what a decoder would output), used
    /// as reference for later frames.
    pub recon: Frame,
    /// Per-tile statistics.
    pub stats: FrameStats,
    /// Median motion vector per tile, the direction later GOP frames
    /// inherit.
    pub dominant_mvs: Vec<MotionVector>,
    /// Concatenated tile bitstreams.
    pub bytes: Vec<u8>,
}

/// Encodes one frame according to `plan`.
///
/// With `parallel` set, each tile is encoded on its own scoped thread.
/// Tile encoding is deterministic and tiles are independent, so both
/// paths produce bit-identical frames. Placing tile work on cores is
/// the runtime's job (`medvt_runtime::ExecutionBackend`), not the
/// codec's.
///
/// # Panics
///
/// Panics when the plan fails [`FramePlan::validate`] or `refs` is
/// empty for an inter `kind`.
pub fn encode_frame(
    original: &Frame,
    refs: &[&Frame],
    kind: FrameKind,
    poc: usize,
    plan: &FramePlan,
    ecfg: &EncoderConfig,
    parallel: bool,
) -> EncodedFrame {
    let frame_rect = original.y().bounds();
    plan.validate(&frame_rect)
        .expect("frame plan must partition the frame");
    let tiles = plan.tiles.iter().zip(&plan.configs);
    let outcomes: Vec<TileOutcome> = if parallel && plan.tiles.len() > 1 {
        std::thread::scope(|s| {
            let handles: Vec<_> = tiles
                .map(|(&tile, cfg)| {
                    s.spawn(move || encode_tile(original, refs, kind, tile, cfg, ecfg))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("tile thread panicked"))
                .collect()
        })
    } else {
        tiles
            .map(|(&tile, cfg)| encode_tile(original, refs, kind, tile, cfg, ecfg))
            .collect()
    };

    // Stitch tile reconstructions into the frame reconstruction.
    let mut recon = Frame::black(original.resolution());
    let mut stats = FrameStats {
        poc,
        tiles: Vec::with_capacity(outcomes.len()),
    };
    let mut dominant_mvs = Vec::with_capacity(outcomes.len());
    let mut bytes = Vec::with_capacity(outcomes.iter().map(|o| o.bytes.len()).sum());
    for (tile, outcome) in plan.tiles.iter().zip(outcomes) {
        recon.y_mut().write_rect(tile, outcome.recon_y.samples());
        let c_rect = Rect::new(tile.x / 2, tile.y / 2, tile.w / 2, tile.h / 2);
        recon.u_mut().write_rect(&c_rect, outcome.recon_u.samples());
        recon.v_mut().write_rect(&c_rect, outcome.recon_v.samples());
        stats.tiles.push(outcome.stats);
        dominant_mvs.push(outcome.dominant_mv);
        bytes.extend_from_slice(&outcome.bytes);
    }
    EncodedFrame {
        recon,
        stats,
        dominant_mvs,
        bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Qp;
    use medvt_frame::quality::frame_psnr;
    use medvt_frame::synth::{BodyPart, PhantomVideo};
    use medvt_frame::Resolution;

    fn frame() -> Frame {
        PhantomVideo::builder(BodyPart::LungChest)
            .resolution(Resolution::new(128, 96))
            .seed(5)
            .build()
            .render(0)
    }

    #[test]
    fn uniform_plan_partitions_exactly() {
        let rect = Rect::frame(640, 480);
        for (c, r) in [(1, 1), (2, 2), (5, 3), (5, 4), (4, 6), (5, 6)] {
            let plan = FramePlan::uniform(rect, c, r, TileConfig::default());
            assert_eq!(plan.tile_count(), c * r);
            assert!(plan.validate(&rect).is_ok());
        }
    }

    #[test]
    fn validate_catches_overlap_and_gap() {
        let rect = Rect::frame(64, 64);
        let cfg = TileConfig::default();
        // Gap: only half covered.
        let plan = FramePlan {
            tiles: vec![Rect::new(0, 0, 64, 32)],
            configs: vec![cfg],
        };
        assert!(matches!(
            plan.validate(&rect),
            Err(PlanError::CoverageMismatch { .. })
        ));
        assert!(plan
            .validate(&rect)
            .unwrap_err()
            .to_string()
            .contains("cover"));
        // Overlap.
        let plan = FramePlan {
            tiles: vec![Rect::new(0, 0, 64, 40), Rect::new(0, 32, 64, 32)],
            configs: vec![cfg, cfg],
        };
        assert!(plan.validate(&rect).is_err());
        // Misaligned.
        let plan = FramePlan {
            tiles: vec![Rect::new(0, 0, 60, 64), Rect::new(60, 0, 4, 64)],
            configs: vec![cfg, cfg],
        };
        assert!(matches!(
            plan.validate(&rect),
            Err(PlanError::Misaligned { .. })
        ));
        assert!(plan
            .validate(&rect)
            .unwrap_err()
            .to_string()
            .contains("8-aligned"));
    }

    #[test]
    fn sweep_detects_overlap_with_exact_coverage() {
        // Area matches the frame but two tiles overlap while another
        // region is uncovered — the case a pure area check misses.
        let rect = Rect::frame(64, 64);
        let cfg = TileConfig::default();
        let plan = FramePlan {
            tiles: vec![
                Rect::new(0, 0, 32, 64),
                Rect::new(16, 0, 32, 64), // overlaps the first
            ],
            configs: vec![cfg, cfg],
        };
        assert!(matches!(
            plan.validate(&rect),
            Err(PlanError::Overlap { .. })
        ));
    }

    #[test]
    fn sweep_accepts_touching_tiles_and_staggered_rows() {
        let rect = Rect::frame(96, 64);
        let cfg = TileConfig::default();
        // Irregular but exact partition: a wide top strip over two
        // bottom tiles with a different split point.
        let plan = FramePlan {
            tiles: vec![
                Rect::new(0, 0, 96, 32),
                Rect::new(0, 32, 40, 32),
                Rect::new(40, 32, 56, 32),
            ],
            configs: vec![cfg, cfg, cfg],
        };
        assert!(plan.validate(&rect).is_ok());
    }

    #[test]
    fn encode_frame_stitches_full_reconstruction() {
        let f = frame();
        let plan = FramePlan::uniform(
            f.y().bounds(),
            2,
            2,
            TileConfig::with_qp(Qp::new(22).unwrap()),
        );
        let encoded = encode_frame(
            &f,
            &[],
            FrameKind::Intra,
            0,
            &plan,
            &EncoderConfig::default(),
            false,
        );
        assert_eq!(encoded.stats.tiles.len(), 4);
        let psnr = frame_psnr(&f, &encoded.recon);
        assert!(psnr > 32.0, "stitched recon psnr {psnr}");
        assert!(!encoded.bytes.is_empty());
        // Stats PSNR must agree with the stitched reconstruction PSNR.
        assert!((encoded.stats.psnr() - psnr).abs() < 0.5);
    }

    #[test]
    fn parallel_and_serial_encode_identically() {
        let f = frame();
        for (grid, qp) in [(2, 32), (4, 27)] {
            let plan = FramePlan::uniform(
                f.y().bounds(),
                grid,
                grid,
                TileConfig::with_qp(Qp::new(qp).unwrap()),
            );
            let encode = |parallel| {
                encode_frame(
                    &f,
                    &[],
                    FrameKind::Intra,
                    0,
                    &plan,
                    &EncoderConfig::default(),
                    parallel,
                )
            };
            let (a, b) = (encode(false), encode(true));
            assert_eq!(a.bytes, b.bytes, "{grid}x{grid} bitstream");
            assert_eq!(a.recon, b.recon, "{grid}x{grid} recon");
            assert_eq!(a.stats, b.stats, "{grid}x{grid} stats");
        }
    }

    #[test]
    fn more_tiles_same_frame_cover() {
        let f = frame();
        let rect = f.y().bounds();
        let p1 = FramePlan::uniform(rect, 1, 1, TileConfig::default());
        let p6 = FramePlan::uniform(rect, 3, 2, TileConfig::default());
        let total1: usize = p1.tiles.iter().map(Rect::area).sum();
        let total6: usize = p6.tiles.iter().map(Rect::area).sum();
        assert_eq!(total1, total6);
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn bad_plan_panics_encode() {
        let f = frame();
        let plan = FramePlan {
            tiles: vec![Rect::new(0, 0, 64, 64)],
            configs: vec![TileConfig::default()],
        };
        encode_frame(
            &f,
            &[],
            FrameKind::Intra,
            0,
            &plan,
            &EncoderConfig::default(),
            false,
        );
    }
}
