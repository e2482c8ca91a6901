//! Hexagon-based search (Zhu, Lin & Chau, IEEE TCSVT 2002), with the
//! horizontal, vertical and rotating variants the paper builds on.

use crate::search::{Best, SearchContext, SearchResult};
use crate::MotionVector;
use serde::{Deserialize, Serialize};

/// Horizontally-elongated hexagon pattern.
const HEX_H: [(i16, i16); 6] = [(-2, 0), (2, 0), (-1, -2), (1, -2), (-1, 2), (1, 2)];
/// Vertically-elongated hexagon pattern.
const HEX_V: [(i16, i16); 6] = [(0, -2), (0, 2), (-2, -1), (-2, 1), (2, -1), (2, 1)];
/// Small '+' refinement pattern.
const SHSP: [(i16, i16); 4] = [(0, -1), (1, 0), (0, 1), (-1, 0)];

/// Orientation policy of the hexagon pattern.
///
/// Horizontal and vertical have identical complexity, but each tracks
/// motion along its long axis better (paper §III-C2). `Rotating`
/// alternates orientations and is used on the first frame of a GOP when
/// the motion direction is still unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum HexOrientation {
    /// Long axis horizontal.
    #[default]
    Horizontal,
    /// Long axis vertical.
    Vertical,
    /// Alternate horizontal/vertical every iteration.
    Rotating,
}

impl HexOrientation {
    /// Pattern for iteration `iter` under this policy.
    fn pattern(self, iter: u32) -> &'static [(i16, i16); 6] {
        match self {
            HexOrientation::Horizontal => &HEX_H,
            HexOrientation::Vertical => &HEX_V,
            HexOrientation::Rotating => {
                if iter.is_multiple_of(2) {
                    &HEX_H
                } else {
                    &HEX_V
                }
            }
        }
    }
}

/// Hexagon-based search with the given orientation policy: walk the
/// hexagon until the center is best, then refine once with the '+'.
pub(crate) fn hexagon(ctx: &SearchContext<'_>, orientation: HexOrientation) -> SearchResult {
    let mut best = Best::seeded(ctx, &[MotionVector::ZERO, ctx.predictor()]);
    let mut iter = 0u32;
    let guard = 4 * ctx.window().size() as u32 + 16;
    loop {
        let moved = best.try_pattern(ctx, best.mv, orientation.pattern(iter));
        iter += 1;
        if !moved || iter >= guard {
            break;
        }
    }
    // Small-pattern refinement.
    best.try_pattern(ctx, best.mv, &SHSP);
    ctx.result(best.mv, best.cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostMetric;
    use crate::SearchWindow;
    use medvt_frame::{Plane, Rect};

    fn shifted_planes(dx: isize, dy: isize) -> (Plane, Plane) {
        crate::testutil::shifted_planes(96, 96, dx, dy)
    }

    fn ctx<'a>(cur: &'a Plane, reference: &'a Plane) -> SearchContext<'a> {
        SearchContext::new(
            cur,
            reference,
            Rect::new(40, 40, 16, 16),
            SearchWindow::W32,
            CostMetric::Sad,
            MotionVector::ZERO,
        )
    }

    #[test]
    fn all_orientations_find_moderate_motion() {
        let (cur, reference) = shifted_planes(5, -3);
        for orientation in [
            HexOrientation::Horizontal,
            HexOrientation::Vertical,
            HexOrientation::Rotating,
        ] {
            let c = ctx(&cur, &reference);
            let r = hexagon(&c, orientation);
            assert_eq!(
                r.mv,
                MotionVector::new(-5, 3),
                "{orientation:?} missed the motion"
            );
            assert_eq!(r.cost, 0);
        }
    }

    #[test]
    fn horizontal_orientation_tracks_horizontal_motion() {
        // Paper §III-C2: both orientations have the same complexity, but
        // each tracks motion along its long axis better.
        let (cur, reference) = shifted_planes(10, 0);
        let ch = ctx(&cur, &reference);
        let h = hexagon(&ch, HexOrientation::Horizontal);
        let cv = ctx(&cur, &reference);
        let v = hexagon(&cv, HexOrientation::Vertical);
        assert_eq!(h.mv, MotionVector::new(-10, 0));
        assert!(h.cost <= v.cost, "h={} v={}", h.cost, v.cost);
        // "Same complexity": evaluation counts within 2x of each other.
        assert!(h.evaluations <= 2 * v.evaluations);
        assert!(v.evaluations <= 2 * h.evaluations);
    }

    #[test]
    fn vertical_orientation_tracks_vertical_motion() {
        let (cur, reference) = shifted_planes(0, 10);
        let ch = ctx(&cur, &reference);
        let h = hexagon(&ch, HexOrientation::Horizontal);
        let cv = ctx(&cur, &reference);
        let v = hexagon(&cv, HexOrientation::Vertical);
        assert_eq!(v.mv, MotionVector::new(0, -10));
        assert!(v.cost <= h.cost, "v={} h={}", v.cost, h.cost);
        assert!(h.evaluations <= 2 * v.evaluations);
        assert!(v.evaluations <= 2 * h.evaluations);
    }

    #[test]
    fn stays_in_window() {
        let (cur, reference) = shifted_planes(60, 60);
        let c = ctx(&cur, &reference);
        let r = hexagon(&c, HexOrientation::Horizontal);
        assert!(c.window().contains(r.mv));
    }
}
