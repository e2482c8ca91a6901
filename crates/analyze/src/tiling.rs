//! Validated frame tilings and per-tile content analysis.

use crate::motion_probe::{probe_motion, MotionScore};
use crate::texture::{measure_texture, TextureMeasure};
use crate::AnalyzerConfig;
use medvt_frame::{Plane, Rect};
use medvt_motion::MotionLevel;
use serde::{Deserialize, Serialize};

/// A validated partition of a frame into 8-aligned tiles.
///
/// Invariants (enforced at construction):
/// * every tile is non-empty, 8-aligned and inside the frame;
/// * tiles are pairwise disjoint;
/// * tiles cover the frame exactly.
///
/// # Examples
///
/// ```
/// use medvt_analyze::Tiling;
/// use medvt_frame::Rect;
///
/// let frame = Rect::frame(640, 480);
/// let tiling = Tiling::uniform(frame, 5, 3);
/// assert_eq!(tiling.len(), 15);
/// assert_eq!(tiling.covered_area(), frame.area());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tiling {
    frame: Rect,
    tiles: Vec<Rect>,
}

impl Tiling {
    /// Builds a tiling from rects, validating the partition invariant.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn new(frame: Rect, tiles: Vec<Rect>) -> Result<Self, String> {
        if tiles.is_empty() {
            return Err("tiling has no tiles".into());
        }
        let mut area = 0usize;
        for t in &tiles {
            if t.is_empty() {
                return Err(format!("empty tile {t}"));
            }
            if !frame.contains_rect(t) {
                return Err(format!("tile {t} outside frame {frame}"));
            }
            if t.x % 8 != 0 || t.y % 8 != 0 || t.w % 8 != 0 || t.h % 8 != 0 {
                return Err(format!("tile {t} not 8-aligned"));
            }
            area += t.area();
        }
        if area != frame.area() {
            return Err(format!("tiles cover {area} of {} samples", frame.area()));
        }
        if let Some((a, b)) = medvt_frame::find_overlap(&tiles) {
            return Err(format!("tiles {a} and {b} overlap"));
        }
        Ok(Self { frame, tiles })
    }

    /// A uniform `cols x rows` tiling with 8-aligned boundaries.
    ///
    /// # Panics
    ///
    /// Panics when the frame cannot host the grid (fewer than 8 samples
    /// per tile per axis) or is not 8-aligned itself.
    pub fn uniform(frame: Rect, cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "grid must be non-empty");
        assert!(
            frame.w.is_multiple_of(8) && frame.h.is_multiple_of(8),
            "frame must be 8-aligned"
        );
        assert!(
            frame.w / 8 >= cols && frame.h / 8 >= rows,
            "frame {frame} too small for {cols}x{rows} tiles"
        );
        let xs = split_units(frame.x, frame.w, cols);
        let ys = split_units(frame.y, frame.h, rows);
        let mut tiles = Vec::with_capacity(cols * rows);
        for (y, h) in &ys {
            for (x, w) in &xs {
                tiles.push(Rect::new(*x, *y, *w, *h));
            }
        }
        Self::new(frame, tiles).expect("uniform grid satisfies the invariant")
    }

    /// The frame rectangle this tiling partitions.
    pub fn frame(&self) -> Rect {
        self.frame
    }

    /// The tile rectangles.
    pub fn tiles(&self) -> &[Rect] {
        &self.tiles
    }

    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.tiles.len()
    }

    /// `false` — a valid tiling always has tiles; provided for API
    /// completeness.
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty()
    }

    /// Iterates over the tiles.
    pub fn iter(&self) -> std::slice::Iter<'_, Rect> {
        self.tiles.iter()
    }

    /// Total covered area (equals the frame area by construction).
    pub fn covered_area(&self) -> usize {
        self.tiles.iter().map(Rect::area).sum()
    }
}

impl<'a> IntoIterator for &'a Tiling {
    type Item = &'a Rect;
    type IntoIter = std::slice::Iter<'a, Rect>;

    fn into_iter(self) -> Self::IntoIter {
        self.tiles.iter()
    }
}

/// Splits `len` (multiple of 8) into `n` spans of whole 8-sample units.
fn split_units(origin: usize, len: usize, n: usize) -> Vec<(usize, usize)> {
    let units = len / 8;
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

/// Texture + motion analysis of one tile — the input to re-tiling, QP
/// selection and the ME policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TileAnalysis {
    /// The analyzed tile.
    pub rect: Rect,
    /// Texture measurement (Eq. 1).
    pub texture: TextureMeasure,
    /// Motion probe result (Eqs. 2–3); `None` for the first frame of a
    /// video (no previous frame), which the pipeline treats as low
    /// motion.
    pub motion: Option<MotionScore>,
}

impl TileAnalysis {
    /// The effective motion level (Low when no previous frame exists).
    pub fn motion_level(&self) -> MotionLevel {
        self.motion.map_or(MotionLevel::Low, |m| m.level)
    }
}

/// Analyzes every tile of `tiling` on the current luma plane, probing
/// motion against `prev` when available.
///
/// # Panics
///
/// Panics when plane sizes disagree with the tiling frame.
pub fn analyze_tiling(
    cur: &Plane,
    prev: Option<&Plane>,
    tiling: &Tiling,
    cfg: &AnalyzerConfig,
) -> Vec<TileAnalysis> {
    assert_eq!(
        cur.bounds(),
        tiling.frame(),
        "plane does not match tiling frame"
    );
    tiling
        .iter()
        .map(|rect| TileAnalysis {
            rect: *rect,
            texture: measure_texture(cur, rect, cfg),
            motion: prev.map(|p| probe_motion(cur, p, rect, cfg)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use medvt_frame::synth::{BodyPart, MotionPattern, PhantomVideo};
    use medvt_frame::Resolution;
    use medvt_motion::MotionLevel;
    use proptest::prelude::*;

    #[test]
    fn uniform_covers_exactly() {
        let frame = Rect::frame(640, 480);
        for (c, r) in [(1, 1), (2, 4), (5, 6), (11, 3)] {
            let t = Tiling::uniform(frame, c, r);
            assert_eq!(t.len(), c * r);
            assert_eq!(t.covered_area(), frame.area());
        }
    }

    #[test]
    fn new_rejects_gap_overlap_misalignment() {
        let frame = Rect::frame(64, 64);
        assert!(Tiling::new(frame, vec![Rect::new(0, 0, 64, 32)])
            .unwrap_err()
            .contains("cover"));
        assert!(Tiling::new(
            frame,
            vec![Rect::new(0, 0, 64, 40), Rect::new(0, 32, 64, 32)]
        )
        .is_err());
        assert!(
            Tiling::new(frame, vec![Rect::new(0, 0, 4, 64), Rect::new(4, 0, 60, 64)])
                .unwrap_err()
                .contains("8-aligned")
        );
        assert!(Tiling::new(frame, vec![]).is_err());
    }

    #[test]
    fn analysis_covers_every_tile() {
        let v = PhantomVideo::builder(BodyPart::Brain)
            .resolution(Resolution::new(160, 120))
            .motion(MotionPattern::Pan { dx: 1.0, dy: 0.0 })
            .seed(6)
            .build();
        let f0 = v.render(0);
        let f1 = v.render(4);
        let tiling = Tiling::uniform(f0.y().bounds(), 4, 3);
        let cfg = AnalyzerConfig::default();
        let analyses = analyze_tiling(f1.y(), Some(f0.y()), &tiling, &cfg);
        assert_eq!(analyses.len(), 12);
        // Center tiles should be busier than corner tiles.
        let corner = &analyses[0];
        let center = &analyses[5];
        assert!(center.texture.cv >= corner.texture.cv);
        assert_eq!(corner.motion_level(), MotionLevel::Low);
    }

    #[test]
    fn first_frame_defaults_to_low_motion() {
        let v = PhantomVideo::builder(BodyPart::Cardiac)
            .resolution(Resolution::new(96, 72))
            .seed(1)
            .build();
        let f0 = v.render(0);
        let tiling = Tiling::uniform(f0.y().bounds(), 2, 2);
        let analyses = analyze_tiling(f0.y(), None, &tiling, &AnalyzerConfig::default());
        assert!(analyses.iter().all(|a| a.motion.is_none()));
        assert!(analyses
            .iter()
            .all(|a| a.motion_level() == MotionLevel::Low));
    }

    proptest! {
        #[test]
        fn prop_uniform_tiling_partitions(
            cols in 1usize..8,
            rows in 1usize..8,
            wu in 8usize..80,   // frame width in 8-sample units
            hu in 8usize..60,
        ) {
            let frame = Rect::frame(wu * 8, hu * 8);
            prop_assume!(wu >= cols && hu >= rows);
            let t = Tiling::uniform(frame, cols, rows);
            prop_assert_eq!(t.len(), cols * rows);
            prop_assert_eq!(t.covered_area(), frame.area());
            // Every sample belongs to exactly one tile (checked on a grid).
            for row in (0..frame.h).step_by(7) {
                for col in (0..frame.w).step_by(7) {
                    let owners = t.iter().filter(|r| r.contains(col, row)).count();
                    prop_assert_eq!(owners, 1);
                }
            }
        }
    }
}
