//! Validated frame tilings — the one partition contract between content
//! analysis, which chooses tiles, and the codec, which encodes them.

use crate::rect::{find_overlap, Rect};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A violated [`Tiling`] invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TilingError {
    /// The tiling has no tiles at all.
    NoTiles,
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

impl fmt::Display for TilingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TilingError::NoTiles => write!(f, "tiling has no tiles"),
            TilingError::EmptyTile { tile } => write!(f, "empty tile {tile}"),
            TilingError::OutsideFrame { tile, frame } => {
                write!(f, "tile {tile} outside frame {frame}")
            }
            TilingError::Misaligned { tile } => write!(f, "tile {tile} not 8-aligned"),
            TilingError::CoverageMismatch { covered, frame } => {
                write!(f, "tiles cover {covered} of {frame} samples")
            }
            TilingError::Overlap { a, b } => write!(f, "tiles {a} and {b} overlap"),
        }
    }
}

impl std::error::Error for TilingError {}

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
/// use medvt_frame::{Rect, Tiling};
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
    /// Overlap detection is an O(n log n) sweep over tile edges.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn new(frame: Rect, tiles: Vec<Rect>) -> Result<Self, TilingError> {
        if tiles.is_empty() {
            return Err(TilingError::NoTiles);
        }
        let mut area = 0usize;
        for &tile in &tiles {
            if tile.is_empty() {
                return Err(TilingError::EmptyTile { tile });
            }
            if !frame.contains_rect(&tile) {
                return Err(TilingError::OutsideFrame { tile, frame });
            }
            if tile.x % 8 != 0 || tile.y % 8 != 0 || tile.w % 8 != 0 || tile.h % 8 != 0 {
                return Err(TilingError::Misaligned { tile });
            }
            area += tile.area();
        }
        if area != frame.area() {
            return Err(TilingError::CoverageMismatch {
                covered: area,
                frame: frame.area(),
            });
        }
        if let Some((a, b)) = find_overlap(&tiles) {
            return Err(TilingError::Overlap { a, b });
        }
        Ok(Self { frame, tiles })
    }

    /// A uniform `cols x rows` tiling in raster order whose boundaries
    /// snap to the 8-sample grid (HEVC tiles snap to CTUs; 8 is this
    /// substrate's coding granularity).
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

/// Splits `len` (multiple of 8) into `n` spans of whole 8-sample units,
/// the first `units % n` spans one unit longer.
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_enforces_every_partition_rule() {
        let frame = Rect::frame(64, 64);
        let r = Rect::new;
        let cases: Vec<(Vec<Rect>, Result<(), TilingError>)> = vec![
            (vec![], Err(TilingError::NoTiles)),
            (
                vec![r(0, 0, 64, 64), r(8, 8, 0, 8)],
                Err(TilingError::EmptyTile {
                    tile: r(8, 8, 0, 8),
                }),
            ),
            (
                vec![r(0, 0, 64, 32), r(0, 32, 72, 32)],
                Err(TilingError::OutsideFrame {
                    tile: r(0, 32, 72, 32),
                    frame,
                }),
            ),
            (
                vec![r(0, 0, 60, 64), r(60, 0, 4, 64)],
                Err(TilingError::Misaligned {
                    tile: r(0, 0, 60, 64),
                }),
            ),
            // A gap: half the frame uncovered.
            (
                vec![r(0, 0, 64, 32)],
                Err(TilingError::CoverageMismatch {
                    covered: 64 * 32,
                    frame: 64 * 64,
                }),
            ),
            // Same x, overlapping rows: more area than the frame.
            (
                vec![r(0, 0, 64, 40), r(0, 32, 64, 32)],
                Err(TilingError::CoverageMismatch {
                    covered: 64 * 72,
                    frame: 64 * 64,
                }),
            ),
            // Area matches the frame, but two tiles overlap while
            // another region is uncovered: only the sweep catches it.
            (
                vec![r(0, 0, 32, 64), r(16, 0, 32, 64)],
                Err(TilingError::Overlap {
                    a: r(0, 0, 32, 64),
                    b: r(16, 0, 32, 64),
                }),
            ),
            // Touching tiles partition exactly.
            (vec![r(0, 0, 32, 64), r(32, 0, 32, 64)], Ok(())),
        ];
        for (tiles, want) in cases {
            let got = Tiling::new(frame, tiles.clone()).map(|_| ());
            assert_eq!(got, want, "tiles {tiles:?}");
        }
        // Staggered rows: a wide top strip over two bottom tiles with a
        // split point no grid would produce.
        let staggered = vec![r(0, 0, 96, 32), r(0, 32, 40, 32), r(40, 32, 56, 32)];
        let tiling = Tiling::new(Rect::frame(96, 64), staggered.clone()).expect("exact partition");
        assert_eq!(tiling.tiles(), staggered.as_slice());
        assert_eq!(
            TilingError::CoverageMismatch {
                covered: 1,
                frame: 2
            }
            .to_string(),
            "tiles cover 1 of 2 samples"
        );
    }

    #[test]
    fn uniform_covers_exactly() {
        let frame = Rect::frame(640, 480);
        for (c, r) in [(1, 1), (2, 4), (5, 6), (11, 3)] {
            let t = Tiling::uniform(frame, c, r);
            assert_eq!(t.len(), c * r);
            assert_eq!(t.covered_area(), frame.area());
        }
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
