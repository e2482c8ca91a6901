//! Cross-search (Ghanbari, IEEE TCOM 1990).

use crate::search::{Best, SearchContext, SearchResult};
use crate::MotionVector;

/// Terminal '+' pattern.
const PLUS: [(i16, i16); 4] = [(1, 0), (-1, 0), (0, 1), (0, -1)];

/// Cross-search: a logarithmic search probing an X-shaped (diagonal)
/// pattern whose half-distance halves whenever the center stays best;
/// the final step probes the '+' pattern as well.
///
/// The paper applies it to low-motion tiles of the first frame in a GOP
/// (§III-C2) because it converges in very few evaluations when motion
/// is small.
pub(crate) fn cross(ctx: &SearchContext<'_>) -> SearchResult {
    let mut best = Best::seeded(ctx, &[MotionVector::ZERO, ctx.predictor()]);
    let mut step = (ctx.window().radius() / 2).max(1);
    loop {
        let x = [(step, step), (step, -step), (-step, step), (-step, -step)];
        let moved = best.try_pattern(ctx, best.mv, &x);
        if step == 1 {
            // Terminal stage: also probe the '+' points.
            best.try_pattern(ctx, best.mv, &PLUS);
            break;
        }
        if !moved {
            step /= 2;
        }
    }
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

    fn ctx<'a>(cur: &'a Plane, reference: &'a Plane, window: SearchWindow) -> SearchContext<'a> {
        SearchContext::new(
            cur,
            reference,
            Rect::new(24, 24, 16, 16),
            window,
            CostMetric::Sad,
            MotionVector::ZERO,
        )
    }

    #[test]
    fn finds_small_motion() {
        let (cur, reference) = shifted_planes(1, 1);
        let c = ctx(&cur, &reference, SearchWindow::W16);
        let r = cross(&c);
        assert_eq!(r.mv, MotionVector::new(-1, -1));
        assert_eq!(r.cost, 0);
    }

    #[test]
    fn finds_axis_motion_via_terminal_plus() {
        let (cur, reference) = shifted_planes(1, 0);
        let c = ctx(&cur, &reference, SearchWindow::W16);
        let r = cross(&c);
        assert_eq!(r.mv, MotionVector::new(-1, 0));
        assert_eq!(r.cost, 0);
    }

    #[test]
    fn very_cheap_on_static_content() {
        let (cur, reference) = shifted_planes(0, 0);
        let c = ctx(&cur, &reference, SearchWindow::W16);
        let r = cross(&c);
        assert_eq!(r.mv, MotionVector::ZERO);
        // Center + a handful of X/+ probes per halving only.
        assert!(r.evaluations <= 20, "evals={}", r.evaluations);
        let c2 = ctx(&cur, &reference, SearchWindow::W16);
        let full = full(&c2);
        assert!(r.evaluations * 5 < full.evaluations);
    }

    #[test]
    fn respects_small_window() {
        let (cur, reference) = shifted_planes(6, 6);
        let c = ctx(&cur, &reference, SearchWindow::W8);
        let r = cross(&c);
        assert!(c.window().contains(r.mv));
    }
}
