//! Diamond search (Zhu & Ma, 1997).

use crate::search::{Best, SearchContext, SearchResult};
use crate::MotionVector;

/// Large-diamond offsets (LDSP) around the running center.
const LDSP: [(i16, i16); 8] = [
    (0, -2),
    (1, -1),
    (2, 0),
    (1, 1),
    (0, 2),
    (-1, 1),
    (-2, 0),
    (-1, -1),
];

/// Small-diamond offsets (SDSP) for the final refinement.
const SDSP: [(i16, i16); 4] = [(0, -1), (1, 0), (0, 1), (-1, 0)];

/// Diamond search: walk the large diamond until the center is best,
/// then refine once with the small diamond.
pub(crate) fn diamond(ctx: &SearchContext<'_>) -> SearchResult {
    let mut best = Best::seeded(ctx, &[MotionVector::ZERO, ctx.predictor()]);
    // LDSP walk; the window bounds the number of recenters, but keep
    // a hard cap for safety on adversarial content.
    let mut guard = 4 * ctx.window().size() as u32 + 16;
    loop {
        let moved = best.try_pattern(ctx, best.mv, &LDSP);
        guard = guard.saturating_sub(1);
        if !moved || guard == 0 {
            break;
        }
    }
    // SDSP refinement.
    best.try_pattern(ctx, best.mv, &SDSP);
    ctx.result(best.mv, best.cost)
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

    fn ctx<'a>(cur: &'a Plane, reference: &'a Plane, pred: MotionVector) -> SearchContext<'a> {
        SearchContext::new(
            cur,
            reference,
            Rect::new(24, 24, 16, 16),
            SearchWindow::W16,
            CostMetric::Sad,
            pred,
        )
    }

    #[test]
    fn tracks_small_motion_exactly() {
        let (cur, reference) = shifted_planes(2, 1);
        let c = ctx(&cur, &reference, MotionVector::ZERO);
        let r = diamond(&c);
        assert_eq!(r.mv, MotionVector::new(-2, -1));
        assert_eq!(r.cost, 0);
    }

    #[test]
    fn predictor_accelerates_large_motion() {
        let (cur, reference) = shifted_planes(7, 0);
        let no_pred = ctx(&cur, &reference, MotionVector::ZERO);
        let r1 = diamond(&no_pred);
        let with_pred = ctx(&cur, &reference, MotionVector::new(-7, 0));
        let r2 = diamond(&with_pred);
        assert_eq!(r2.mv, MotionVector::new(-7, 0));
        assert!(r2.evaluations <= r1.evaluations);
    }

    #[test]
    fn cheaper_than_full_search() {
        let (cur, reference) = shifted_planes(3, -2);
        let c1 = ctx(&cur, &reference, MotionVector::ZERO);
        let ds = diamond(&c1);
        let c2 = ctx(&cur, &reference, MotionVector::ZERO);
        let fs = full(&c2);
        assert!(ds.evaluations * 4 < fs.evaluations);
        assert_eq!(ds.cost, fs.cost, "smooth shifted content: DS finds optimum");
    }

    #[test]
    fn result_stays_in_window() {
        let (cur, reference) = shifted_planes(40, 40);
        let c = ctx(&cur, &reference, MotionVector::ZERO);
        let r = diamond(&c);
        assert!(c.window().contains(r.mv));
    }
}
