//! Three-step search (Li et al., TCSVT 1994).

use crate::search::{Best, SearchContext, SearchResult};
use crate::MotionVector;

/// The classic three-step search: evaluate the 8 neighbours at a
/// coarse step around the running center, recenter on the best, halve
/// the step, repeat until the step reaches one.
pub(crate) fn three_step(ctx: &SearchContext<'_>) -> SearchResult {
    let mut best = Best::seeded(ctx, &[MotionVector::ZERO, ctx.predictor()]);
    // Initial step: half the radius rounded up to a power of two,
    // so W16 (r=8) gives the classic 4-2-1 schedule.
    let mut step = ((ctx.window().radius() / 2).max(1) as u16).next_power_of_two() as i16;
    loop {
        best.try_pattern(ctx, best.mv, &ring(step));
        if step == 1 {
            break;
        }
        step /= 2;
    }
    ctx.result(best.mv, best.cost)
}

/// The 8 neighbours at distance `s`, row by row.
const fn ring(s: i16) -> [(i16, i16); 8] {
    [
        (-s, -s),
        (0, -s),
        (s, -s),
        (-s, 0),
        (s, 0),
        (-s, s),
        (0, s),
        (s, s),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::full;
    use crate::cost::CostMetric;
    use crate::SearchWindow;
    use medvt_frame::{Plane, Rect};

    fn shifted_planes(dx: isize, dy: isize) -> (Plane, Plane) {
        crate::testutil::shifted_planes(64, 64, dx, dy)
    }

    fn ctx<'a>(cur: &'a Plane, reference: &'a Plane) -> SearchContext<'a> {
        SearchContext::new(
            cur,
            reference,
            Rect::new(24, 24, 16, 16),
            SearchWindow::W16,
            CostMetric::Sad,
            MotionVector::ZERO,
        )
    }

    #[test]
    fn finds_power_of_two_displacement_exactly() {
        let (cur, reference) = shifted_planes(4, -2);
        let c = ctx(&cur, &reference);
        let r = three_step(&c);
        assert_eq!(r.mv, MotionVector::new(-4, 2));
        assert_eq!(r.cost, 0);
    }

    #[test]
    fn far_fewer_evaluations_than_full_search() {
        let (cur, reference) = shifted_planes(3, 3);
        let c1 = ctx(&cur, &reference);
        let tss = three_step(&c1);
        let c2 = ctx(&cur, &reference);
        let full = full(&c2);
        assert!(tss.evaluations * 3 < full.evaluations);
        // Quality within a reasonable factor of optimum.
        assert!(tss.cost <= full.cost.saturating_mul(3) + 1024);
    }

    #[test]
    fn stays_inside_window() {
        let (cur, reference) = shifted_planes(30, 30);
        let c = ctx(&cur, &reference);
        let r = three_step(&c);
        assert!(c.window().contains(r.mv));
    }
}
