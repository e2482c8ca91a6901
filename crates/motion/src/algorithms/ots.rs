//! One-at-a-time search (Srinivasan & Rao, IEEE TCOM 1985).

use crate::mv::MotionAxis;
use crate::search::{Best, SearchContext, SearchResult};
use crate::MotionVector;

/// One-at-a-time search: ride `first_axis` while the cost improves,
/// then the perpendicular axis; [`MotionAxis::None`] falls back to the
/// classic horizontal-then-vertical order.
///
/// With a known motion direction this is nearly free, which is why the
/// paper uses it for low-motion tiles on non-first GOP frames, seeded
/// with the direction recovered from the first frame (§III-C2).
pub(crate) fn one_at_a_time(ctx: &SearchContext<'_>, first_axis: MotionAxis) -> SearchResult {
    let mut best = Best::seeded(ctx, &[MotionVector::ZERO, ctx.predictor()]);
    let first = match first_axis {
        MotionAxis::None => MotionAxis::Horizontal,
        other => other,
    };
    let second = match first {
        MotionAxis::Horizontal => MotionAxis::Vertical,
        _ => MotionAxis::Horizontal,
    };
    ride(ctx, &mut best, first.unit());
    ride(ctx, &mut best, second.unit());
    // One extra pass on the first axis catches L-shaped walks.
    ride(ctx, &mut best, first.unit());
    ctx.result(best.mv, best.cost)
}

/// Walks from `best.mv` along ±`unit` as long as the cost improves.
fn ride(ctx: &SearchContext<'_>, best: &mut Best, unit: MotionVector) {
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
        let r = one_at_a_time(&c, MotionAxis::Horizontal);
        assert_eq!(r.mv, MotionVector::new(-3, 0));
        assert_eq!(r.cost, 0);
    }

    #[test]
    fn l_shaped_walk_finds_diagonal_motion() {
        let (cur, reference) = shifted_planes(2, 2);
        let c = ctx(&cur, &reference, MotionVector::ZERO);
        let r = one_at_a_time(&c, MotionAxis::Horizontal);
        // Monotone ramps along each axis let OTS descend both.
        assert_eq!(r.mv, MotionVector::new(-2, -2));
    }

    #[test]
    fn axis_seeding_reduces_evaluations_for_vertical_motion() {
        let (cur, reference) = shifted_planes(0, 4);
        let c1 = ctx(&cur, &reference, MotionVector::ZERO);
        let horizontal_first = one_at_a_time(&c1, MotionAxis::Horizontal);
        let c2 = ctx(&cur, &reference, MotionVector::ZERO);
        let vertical_first = one_at_a_time(&c2, MotionAxis::Vertical);
        assert_eq!(vertical_first.mv, MotionVector::new(0, -4));
        assert!(vertical_first.evaluations <= horizontal_first.evaluations);
    }

    #[test]
    fn handful_of_evaluations_on_static_content() {
        let (cur, reference) = shifted_planes(0, 0);
        let c = ctx(&cur, &reference, MotionVector::ZERO);
        let r = one_at_a_time(&c, MotionAxis::Horizontal);
        assert_eq!(r.mv, MotionVector::ZERO);
        assert!(r.evaluations <= 7, "evals={}", r.evaluations);
    }

    #[test]
    fn none_axis_defaults_to_horizontal() {
        let (cur, reference) = shifted_planes(2, 0);
        let c = ctx(&cur, &reference, MotionVector::ZERO);
        let r = one_at_a_time(&c, MotionAxis::None);
        assert_eq!(r.mv, MotionVector::new(-2, 0));
    }
}
