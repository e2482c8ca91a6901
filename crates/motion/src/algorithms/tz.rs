//! Test Zone (TZ) search — the motion search of the HEVC reference
//! software (HM), simplified. Used as the quality/compression reference
//! of Table I.

use crate::search::{Best, SearchContext, SearchResult};
use crate::MotionVector;

/// Raster-scan stride, HM's default. The raster stage triggers when
/// the best zonal distance exceeds this value.
const RASTER_STEP: i16 = 5;

/// 8-point diamond at stride `s` around the origin.
const fn zone(s: i16) -> [(i16, i16); 8] {
    [
        (0, -s),
        (s, 0),
        (0, s),
        (-s, 0),
        (s / 2, -s / 2),
        (s / 2, s / 2),
        (-s / 2, s / 2),
        (-s / 2, -s / 2),
    ]
}

/// Simplified TZ search: predictor selection, expanding zonal diamond,
/// conditional raster sweep, and zonal refinement — the structure of
/// the HM encoder's `xTZSearch`.
pub(crate) fn tz(ctx: &SearchContext<'_>) -> SearchResult {
    let mut best = Best::seeded(ctx, &[MotionVector::ZERO, ctx.predictor()]);
    let r = ctx.window().radius();
    // Stage 1: expanding zonal search from the start point.
    let start = best.mv;
    let mut best_dist = 0i16;
    let mut stride = 1i16;
    while stride <= r {
        if best.try_pattern(ctx, start, &zone(stride)) {
            best_dist = stride;
        }
        stride *= 2;
    }
    // Stage 2: raster sweep when the zonal stage landed far out,
    // mirroring HM's iRaster heuristic.
    if best_dist > RASTER_STEP {
        let mut dy = -r;
        while dy <= r {
            let mut dx = -r;
            while dx <= r {
                best.try_candidate(ctx, MotionVector::new(dx, dy));
                dx += RASTER_STEP;
            }
            dy += RASTER_STEP;
        }
    }
    // Stage 3: zonal refinement to sample accuracy.
    refine(ctx, &mut best);
    ctx.result(best.mv, best.cost)
}

/// Zonal refinement around `best` with shrinking strides.
fn refine(ctx: &SearchContext<'_>, best: &mut Best) {
    loop {
        let center = best.mv;
        let mut moved = false;
        let mut s = 2i16;
        while s >= 1 {
            moved |= best.try_pattern(ctx, center, &zone(s));
            s /= 2;
        }
        if !moved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{full, hexagon, HexOrientation};
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
    fn matches_full_search_quality_on_shifted_content() {
        // Displacements within the texture's matching basin; larger
        // jumps need predictors in any zonal search (HM included).
        for (dx, dy) in [(0, 0), (3, 1), (5, 5), (8, -6)] {
            let (cur, reference) = shifted_planes(dx, dy);
            let c1 = ctx(&cur, &reference);
            let tz = tz(&c1);
            let c2 = ctx(&cur, &reference);
            let full = full(&c2);
            assert_eq!(tz.cost, full.cost, "shift ({dx},{dy})");
        }
    }

    #[test]
    fn cheaper_than_full_search() {
        let (cur, reference) = shifted_planes(8, -6);
        let c1 = ctx(&cur, &reference);
        let tz = tz(&c1);
        let c2 = ctx(&cur, &reference);
        let full = full(&c2);
        assert!(tz.evaluations < full.evaluations / 2);
    }

    #[test]
    fn raster_stage_rescues_distant_motion() {
        // Motion of 15 samples: the stride-16 zonal ring lands one
        // sample away from the optimum, flagging a large best-distance;
        // that triggers the raster sweep + refinement, which must then
        // settle on the exact optimum.
        let (cur, reference) = shifted_planes(15, 0);
        let c = ctx(&cur, &reference);
        let r = tz(&c);
        assert_eq!(r.mv, MotionVector::new(-15, 0));
        assert_eq!(r.cost, 0);
    }

    #[test]
    fn more_thorough_than_fast_searches() {
        let (cur, reference) = shifted_planes(5, 5);
        let c = ctx(&cur, &reference);
        let tz = tz(&c);
        let c2 = ctx(&cur, &reference);
        let hex = hexagon(&c2, HexOrientation::Horizontal);
        assert!(tz.evaluations >= hex.evaluations);
        assert!(tz.cost <= hex.cost);
    }
}
