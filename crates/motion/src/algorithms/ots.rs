//! One-at-a-time search (Srinivasan & Rao, IEEE TCOM 1985).

use crate::mv::MotionAxis;
use crate::search::{Best, MotionSearch, SearchContext, SearchResult};
use crate::MotionVector;

/// One-at-a-time search: ride one axis while the cost improves, then
/// the perpendicular axis.
///
/// With a known motion direction this is nearly free, which is why the
/// paper uses it for low-motion tiles on non-first GOP frames, seeded
/// with the direction recovered from the first frame (§III-C2).
#[derive(Debug, Clone, Copy)]
pub struct OneAtATimeSearch {
    /// Axis to ride first; [`MotionAxis::None`] falls back to the
    /// classic horizontal-then-vertical order.
    pub first_axis: MotionAxis,
}

impl OneAtATimeSearch {
    /// Classic variant: horizontal axis first.
    pub const fn new() -> Self {
        Self {
            first_axis: MotionAxis::Horizontal,
        }
    }

    /// Variant that rides `axis` first (direction-seeded).
    pub(crate) const fn along(axis: MotionAxis) -> Self {
        Self { first_axis: axis }
    }

    /// Walks from `best.mv` along ±`unit` as long as the cost improves.
    fn ride(&self, ctx: &SearchContext<'_>, best: &mut Best, unit: MotionVector) {
        if unit.is_zero() {
            return;
        }
        for dir in [unit, -unit] {
            loop {
                let next = best.mv + dir;
                if !best.try_candidate(ctx, next) {
                    break;
                }
            }
        }
    }
}

impl Default for OneAtATimeSearch {
    fn default() -> Self {
        Self::new()
    }
}

impl MotionSearch for OneAtATimeSearch {
    fn name(&self) -> &'static str {
        "one-at-a-time"
    }

    fn search(&self, ctx: &SearchContext<'_>) -> SearchResult {
        let mut best = Best::seeded(ctx, &[MotionVector::ZERO, ctx.predictor()]);
        let first = match self.first_axis {
            MotionAxis::None => MotionAxis::Horizontal,
            other => other,
        };
        let second = match first {
            MotionAxis::Horizontal => MotionAxis::Vertical,
            _ => MotionAxis::Horizontal,
        };
        self.ride(ctx, &mut best, first.unit());
        self.ride(ctx, &mut best, second.unit());
        // One extra pass on the first axis catches L-shaped walks.
        self.ride(ctx, &mut best, first.unit());
        ctx.result(best.mv, best.cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostMetric;
    use crate::SearchWindow;
    use medvt_frame::{Plane, Rect};

    fn shifted_planes(dx: isize, dy: isize) -> (Plane, Plane) {
        crate::testutil::shifted_planes(64, 64, dx, dy)
    }

    fn ctx<'a>(cur: &'a Plane, reference: &'a Plane, pred: MotionVector) -> SearchContext<'a> {
        SearchContext::new(
            cur,
            reference,
            Rect::new(24, 24, 16, 16),
            SearchWindow::W8,
            CostMetric::Sad,
            pred,
        )
    }

    #[test]
    fn rides_horizontal_motion() {
        let (cur, reference) = shifted_planes(3, 0);
        let c = ctx(&cur, &reference, MotionVector::ZERO);
        let r = OneAtATimeSearch::new().search(&c);
        assert_eq!(r.mv, MotionVector::new(-3, 0));
        assert_eq!(r.cost, 0);
    }

    #[test]
    fn l_shaped_walk_finds_diagonal_motion() {
        let (cur, reference) = shifted_planes(2, 2);
        let c = ctx(&cur, &reference, MotionVector::ZERO);
        let r = OneAtATimeSearch::new().search(&c);
        // Monotone ramps along each axis let OTS descend both.
        assert_eq!(r.mv, MotionVector::new(-2, -2));
    }

    #[test]
    fn axis_seeding_reduces_evaluations_for_vertical_motion() {
        let (cur, reference) = shifted_planes(0, 4);
        let c1 = ctx(&cur, &reference, MotionVector::ZERO);
        let horizontal_first = OneAtATimeSearch::new().search(&c1);
        let c2 = ctx(&cur, &reference, MotionVector::ZERO);
        let vertical_first = OneAtATimeSearch::along(MotionAxis::Vertical).search(&c2);
        assert_eq!(vertical_first.mv, MotionVector::new(0, -4));
        assert!(vertical_first.evaluations <= horizontal_first.evaluations);
    }

    #[test]
    fn handful_of_evaluations_on_static_content() {
        let (cur, reference) = shifted_planes(0, 0);
        let c = ctx(&cur, &reference, MotionVector::ZERO);
        let r = OneAtATimeSearch::new().search(&c);
        assert_eq!(r.mv, MotionVector::ZERO);
        assert!(r.evaluations <= 7, "evals={}", r.evaluations);
    }

    #[test]
    fn none_axis_defaults_to_horizontal() {
        let (cur, reference) = shifted_planes(2, 0);
        let c = ctx(&cur, &reference, MotionVector::ZERO);
        let r = OneAtATimeSearch::along(MotionAxis::None).search(&c);
        assert_eq!(r.mv, MotionVector::new(-2, 0));
    }
}
