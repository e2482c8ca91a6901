//! Exhaustive full search — the quality ceiling for block matching.

use crate::search::{Best, SearchContext, SearchResult};
use crate::MotionVector;

/// Exhaustive search of every integer displacement inside the window.
///
/// Optimal distortion, intolerable runtime (paper §II-B) — kept as the
/// quality reference for tests and ablations.
pub(crate) fn full(ctx: &SearchContext<'_>) -> SearchResult {
    let r = ctx.window().radius();
    let mut best = Best::seeded(ctx, &[MotionVector::ZERO]);
    for dy in -r..=r {
        for dx in -r..=r {
            best.try_candidate(ctx, MotionVector::new(dx, dy));
        }
    }
    ctx.result(best.mv, best.cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostMetric;
    use crate::SearchWindow;
    use medvt_frame::{Plane, Rect};

    fn shifted_planes(dx: isize, dy: isize) -> (Plane, Plane) {
        crate::testutil::shifted_planes(48, 48, dx, dy)
    }

    #[test]
    fn finds_exact_displacement() {
        let (cur, reference) = shifted_planes(5, -3);
        let ctx = SearchContext::new(
            &cur,
            &reference,
            Rect::new(16, 16, 16, 16),
            SearchWindow::W16,
            CostMetric::Sad,
            MotionVector::ZERO,
        );
        let r = full(&ctx);
        assert_eq!(r.mv, MotionVector::new(-5, 3));
        assert_eq!(r.cost, 0);
    }

    #[test]
    fn evaluation_count_is_window_area() {
        let (cur, reference) = shifted_planes(0, 0);
        let ctx = SearchContext::new(
            &cur,
            &reference,
            Rect::new(16, 16, 8, 8),
            SearchWindow::W8,
            CostMetric::Sad,
            MotionVector::ZERO,
        );
        let r = full(&ctx);
        // (2*4+1)^2 = 81 candidates.
        assert_eq!(r.evaluations, 81);
    }
}
