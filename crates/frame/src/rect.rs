//! Axis-aligned integer rectangles used for tiles, blocks and search areas.
//!
//! All coordinates are in luma samples with the origin at the top-left
//! corner of the frame. A [`Rect`] is half-open: it covers columns
//! `x..x + w` and rows `y..y + h`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An axis-aligned rectangle in frame coordinates.
///
/// # Examples
///
/// ```
/// use medvt_frame::Rect;
///
/// let tile = Rect::new(64, 0, 128, 96);
/// assert_eq!(tile.area(), 128 * 96);
/// assert!(tile.contains(64, 95));
/// assert!(!tile.contains(192, 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Rect {
    /// Column of the left edge.
    pub x: usize,
    /// Row of the top edge.
    pub y: usize,
    /// Width in samples.
    pub w: usize,
    /// Height in samples.
    pub h: usize,
}

impl Rect {
    /// Creates a rectangle from its top-left corner and size.
    pub const fn new(x: usize, y: usize, w: usize, h: usize) -> Self {
        Self { x, y, w, h }
    }

    /// A rectangle covering a full `width x height` frame.
    pub const fn frame(width: usize, height: usize) -> Self {
        Self::new(0, 0, width, height)
    }

    /// Number of samples covered.
    pub const fn area(&self) -> usize {
        self.w * self.h
    }

    /// `true` when the rectangle covers no samples.
    pub const fn is_empty(&self) -> bool {
        self.w == 0 || self.h == 0
    }

    /// Column one past the right edge.
    pub const fn right(&self) -> usize {
        self.x + self.w
    }

    /// Row one past the bottom edge.
    pub const fn bottom(&self) -> usize {
        self.y + self.h
    }

    /// Sample coordinates of the center (rounded down).
    pub const fn center(&self) -> (usize, usize) {
        (self.x + self.w / 2, self.y + self.h / 2)
    }

    /// `true` when `(col, row)` lies inside the rectangle.
    pub const fn contains(&self, col: usize, row: usize) -> bool {
        col >= self.x && col < self.x + self.w && row >= self.y && row < self.y + self.h
    }

    /// `true` when `other` lies fully inside `self`.
    pub const fn contains_rect(&self, other: &Rect) -> bool {
        other.x >= self.x
            && other.y >= self.y
            && other.x + other.w <= self.x + self.w
            && other.y + other.h <= self.y + self.h
    }

    /// `true` when the two rectangles share at least one sample.
    pub(crate) const fn intersects(&self, other: &Rect) -> bool {
        self.x < other.x + other.w
            && other.x < self.x + self.w
            && self.y < other.y + other.h
            && other.y < self.y + self.h
    }

    /// The overlapping region of two rectangles, if any.
    ///
    /// # Examples
    ///
    /// ```
    /// use medvt_frame::Rect;
    ///
    /// let a = Rect::new(0, 0, 10, 10);
    /// let b = Rect::new(5, 5, 10, 10);
    /// assert_eq!(a.intersection(&b), Some(Rect::new(5, 5, 5, 5)));
    /// ```
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        let x = self.x.max(other.x);
        let y = self.y.max(other.y);
        let right = self.right().min(other.right());
        let bottom = self.bottom().min(other.bottom());
        Some(Rect::new(x, y, right - x, bottom - y))
    }

    /// Clamps the rectangle so it fits inside `bounds`.
    ///
    /// Returns an empty rectangle at the clamped origin when there is no
    /// overlap at all.
    pub(crate) fn clamped_to(&self, bounds: &Rect) -> Rect {
        self.intersection(bounds).unwrap_or(Rect::new(
            self.x.min(bounds.right()),
            self.y.min(bounds.bottom()),
            0,
            0,
        ))
    }

    /// Iterates over all `(col, row)` sample coordinates in raster order.
    pub fn samples(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let this = *self;
        (this.y..this.bottom())
            .flat_map(move |row| (this.x..this.right()).map(move |col| (col, row)))
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}@({},{})", self.w, self.h, self.x, self.y)
    }
}

/// Finds one overlapping pair among `rects`, or `None` when all are
/// pairwise disjoint.
///
/// O(n log n) sweep over top/bottom edges in ascending `y`: an ordered
/// map from left edge to the open rect keeps the active set, and each
/// insertion only has to inspect its two x-neighbours (the active set
/// stays x-disjoint by induction, so any overlapper of a new interval
/// is adjacent to its insertion point). Empty rects never overlap
/// anything. Ends sort before starts at equal `y`, so touching rects
/// do not count as overlapping.
pub(crate) fn find_overlap(rects: &[Rect]) -> Option<(Rect, Rect)> {
    // (y, is_start, rect index).
    let mut events: Vec<(usize, bool, usize)> = Vec::with_capacity(rects.len() * 2);
    for (i, r) in rects.iter().enumerate() {
        if !r.is_empty() {
            events.push((r.y, true, i));
            events.push((r.y + r.h, false, i));
        }
    }
    events.sort_by_key(|&(y, is_start, _)| (y, is_start));

    // Active rects ordered by left edge: x -> rect index.
    let mut active: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    for (_, is_start, i) in events {
        let r = &rects[i];
        if !is_start {
            // Only remove if this rect still owns the slot (duplicate
            // x keys were already reported as overlaps on insert).
            if active.get(&r.x) == Some(&i) {
                active.remove(&r.x);
            }
            continue;
        }
        if let Some(&other) = active.get(&r.x) {
            return Some((rects[other], *r));
        }
        if let Some((_, &left)) = active.range(..r.x).next_back() {
            let l = &rects[left];
            if l.x + l.w > r.x {
                return Some((*l, *r));
            }
        }
        if let Some((_, &right)) = active.range(r.x + 1..).next() {
            let rr = &rects[right];
            if r.x + r.w > rr.x {
                return Some((*r, *rr));
            }
        }
        active.insert(r.x, i);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_overlap_detects_and_clears() {
        // Disjoint partition with staggered rows: no overlap.
        let disjoint = [
            Rect::new(0, 0, 96, 32),
            Rect::new(0, 32, 40, 32),
            Rect::new(40, 32, 56, 32),
        ];
        assert_eq!(find_overlap(&disjoint), None);
        // Same x, overlapping y.
        let stacked = [Rect::new(0, 0, 64, 40), Rect::new(0, 32, 64, 32)];
        assert!(find_overlap(&stacked).is_some());
        // Overlap in x between same-band neighbours.
        let side = [Rect::new(0, 0, 32, 64), Rect::new(16, 0, 32, 64)];
        assert_eq!(
            find_overlap(&side),
            Some((Rect::new(0, 0, 32, 64), Rect::new(16, 0, 32, 64)))
        );
        // Touching edges never count; empty rects are ignored.
        let touching = [
            Rect::new(0, 0, 32, 32),
            Rect::new(32, 0, 32, 32),
            Rect::new(0, 32, 64, 32),
            Rect::new(5, 5, 0, 9),
        ];
        assert_eq!(find_overlap(&touching), None);
    }

    #[test]
    fn area_and_edges() {
        let r = Rect::new(2, 3, 4, 5);
        assert_eq!(r.area(), 20);
        assert_eq!(r.right(), 6);
        assert_eq!(r.bottom(), 8);
        assert_eq!(r.center(), (4, 5));
        assert!(!r.is_empty());
        assert!(Rect::new(0, 0, 0, 7).is_empty());
    }

    #[test]
    fn containment() {
        let r = Rect::new(10, 10, 10, 10);
        assert!(r.contains(10, 10));
        assert!(r.contains(19, 19));
        assert!(!r.contains(20, 10));
        assert!(!r.contains(10, 20));
        assert!(r.contains_rect(&Rect::new(12, 12, 8, 8)));
        assert!(!r.contains_rect(&Rect::new(12, 12, 9, 8)));
    }

    #[test]
    fn intersection_basic() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 10, 10);
        assert_eq!(a.intersection(&b), Some(Rect::new(5, 5, 5, 5)));
        let c = Rect::new(10, 0, 5, 5);
        assert_eq!(a.intersection(&c), None);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn intersection_is_commutative() {
        let a = Rect::new(3, 1, 17, 9);
        let b = Rect::new(7, 4, 30, 3);
        assert_eq!(a.intersection(&b), b.intersection(&a));
    }

    #[test]
    fn clamped_to_bounds() {
        let bounds = Rect::frame(100, 100);
        let r = Rect::new(90, 90, 20, 20);
        assert_eq!(r.clamped_to(&bounds), Rect::new(90, 90, 10, 10));
        let outside = Rect::new(200, 200, 5, 5);
        assert!(outside.clamped_to(&bounds).is_empty());
    }

    #[test]
    fn samples_iterates_raster_order() {
        let r = Rect::new(1, 1, 2, 2);
        let pts: Vec<_> = r.samples().collect();
        assert_eq!(pts, vec![(1, 1), (2, 1), (1, 2), (2, 2)]);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Rect::new(1, 2, 3, 4).to_string(), "3x4@(1,2)");
    }
}
