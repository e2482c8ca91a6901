//! The paper's proposed fast motion-estimation policy for bio-medical
//! video (§III-C2).
//!
//! The policy exploits two content facts: (1) motion inside a tile is
//! either low or high and globally coherent, and (2) the direction
//! found on the first frame of a GOP stays valid for the whole GOP. It
//! therefore picks, per tile:
//!
//! | motion | GOP-first frame              | remaining GOP frames                  |
//! |--------|------------------------------|---------------------------------------|
//! | low    | cross-search, 16x16 window   | one-at-a-time along the direction, 8x8 |
//! | high   | rotating hexagon, max window | direction-locked hexagon, shrunk window |

use crate::algorithms::{cross, hexagon, one_at_a_time, HexOrientation};
use crate::mv::MotionAxis;
use crate::search::{SearchContext, SearchResult, SearchWindow};
use crate::MotionVector;
use serde::{Deserialize, Serialize};

/// Coarse per-tile motion level, the output of the paper's Eq. (3)
/// motion probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum MotionLevel {
    /// Below the motion threshold `M_th`.
    #[default]
    Low,
    /// At or above the motion threshold.
    High,
}

/// Position of the current frame within its GOP, which decides whether
/// the direction is being *discovered* or *reused*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GopPhase {
    /// First frame of the GOP: direction unknown, use exploratory search.
    First,
    /// Any later frame: ride the direction found on the first frame.
    Subsequent {
        /// The tile's representative motion vector from the GOP-first
        /// frame.
        direction: MotionVector,
    },
}

/// The window the policy actually searches, given the maximum window
/// the encoder allows for this tile.
fn effective_window(level: MotionLevel, phase: GopPhase, max_window: SearchWindow) -> SearchWindow {
    match (level, phase) {
        // Low motion: 16x16 suffices on the GOP-first frame…
        (MotionLevel::Low, GopPhase::First) => min_window(max_window, SearchWindow::W16),
        // …and 8x8 afterwards (paper: "further decreased to 8x8").
        (MotionLevel::Low, GopPhase::Subsequent { .. }) => min_window(max_window, SearchWindow::W8),
        // High motion: the maximum allowable window on the first
        // frame, a shrunk one afterwards.
        (MotionLevel::High, GopPhase::First) => max_window,
        (MotionLevel::High, GopPhase::Subsequent { .. }) => {
            max_window.shrunk().unwrap_or(max_window)
        }
    }
}

/// The proposed combined search (paper §III-C2) for a tile of motion
/// `level` in GOP `phase`.
pub(crate) fn biomed(ctx: &SearchContext<'_>, level: MotionLevel, phase: GopPhase) -> SearchResult {
    let window = effective_window(level, phase, ctx.window());
    // On subsequent GOP frames the paper starts estimation "in the
    // direction of the motion vector obtained from the corresponding
    // tile of the first frame": when the caller supplies no better
    // predictor, the inherited direction seeds the search.
    let narrowed = match phase {
        GopPhase::Subsequent { direction } if ctx.predictor().is_zero() => {
            ctx.narrowed_with_predictor(window, direction)
        }
        _ => ctx.narrowed(window),
    };
    match (level, phase) {
        (MotionLevel::Low, GopPhase::First) => cross(&narrowed),
        (MotionLevel::Low, GopPhase::Subsequent { direction }) => {
            one_at_a_time(&narrowed, direction.dominant_axis())
        }
        (MotionLevel::High, GopPhase::First) => hexagon(&narrowed, HexOrientation::Rotating),
        (MotionLevel::High, GopPhase::Subsequent { direction }) => {
            let orientation = match direction.dominant_axis() {
                MotionAxis::Vertical => HexOrientation::Vertical,
                // Zero or horizontal direction → horizontal hexagon,
                // matching the paper's tie-break.
                _ => HexOrientation::Horizontal,
            };
            hexagon(&narrowed, orientation)
        }
    }
}

/// The smaller of two windows.
fn min_window(a: SearchWindow, b: SearchWindow) -> SearchWindow {
    if a.radius() <= b.radius() {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostMetric;
    use crate::SearchSpec;
    use medvt_frame::{Plane, Rect};

    fn first_frame(level: MotionLevel) -> SearchSpec {
        SearchSpec::biomed_first(level)
    }

    fn subsequent(level: MotionLevel, direction: MotionVector) -> SearchSpec {
        SearchSpec::biomed_subsequent(level, direction)
    }

    fn shifted_planes(dx: isize, dy: isize) -> (Plane, Plane) {
        crate::testutil::shifted_planes(96, 96, dx, dy)
    }

    fn ctx<'a>(cur: &'a Plane, reference: &'a Plane, window: SearchWindow) -> SearchContext<'a> {
        SearchContext::new(
            cur,
            reference,
            Rect::new(40, 40, 16, 16),
            window,
            CostMetric::Sad,
            MotionVector::ZERO,
        )
    }

    #[test]
    fn window_policy_matches_paper() {
        let later = GopPhase::Subsequent {
            direction: MotionVector::new(1, 0),
        };
        let window = |level, phase| effective_window(level, phase, SearchWindow::W64);
        assert_eq!(window(MotionLevel::Low, GopPhase::First), SearchWindow::W16);
        assert_eq!(window(MotionLevel::Low, later), SearchWindow::W8);
        assert_eq!(
            window(MotionLevel::High, GopPhase::First),
            SearchWindow::W64
        );
        assert_eq!(window(MotionLevel::High, later), SearchWindow::W32);
        // Never grows beyond the allowed maximum.
        assert_eq!(
            effective_window(MotionLevel::Low, GopPhase::First, SearchWindow::W8),
            SearchWindow::W8
        );
    }

    #[test]
    fn low_motion_first_frame_finds_small_motion() {
        let (cur, reference) = shifted_planes(1, 1);
        let c = ctx(&cur, &reference, SearchWindow::W64);
        let r = first_frame(MotionLevel::Low).search(&c);
        assert_eq!(r.mv, MotionVector::new(-1, -1));
        assert!(r.evaluations < 30);
    }

    #[test]
    fn low_motion_subsequent_rides_direction_cheaply() {
        let (cur, reference) = shifted_planes(2, 0);
        let c = ctx(&cur, &reference, SearchWindow::W64);
        let r = subsequent(MotionLevel::Low, MotionVector::new(-2, 0)).search(&c);
        assert_eq!(r.mv, MotionVector::new(-2, 0));
        assert!(r.evaluations <= 12, "evals={}", r.evaluations);
    }

    #[test]
    fn high_motion_first_frame_explores_widely() {
        let (cur, reference) = shifted_planes(7, -4);
        let c = ctx(&cur, &reference, SearchWindow::W64);
        let r = first_frame(MotionLevel::High).search(&c);
        assert_eq!(r.mv, MotionVector::new(-7, 4));
        assert_eq!(r.cost, 0);
    }

    #[test]
    fn inherited_direction_rescues_large_motion() {
        // A displacement outside the cold-start matching basin (but
        // inside the shrunk subsequent-frame window) is found only when
        // the direction inherited from the GOP-first frame seeds the
        // search into the right basin.
        let (cur, reference) = shifted_planes(14, -7);
        let c = ctx(&cur, &reference, SearchWindow::W64);
        let cold = first_frame(MotionLevel::High).search(&c);
        let c2 = ctx(&cur, &reference, SearchWindow::W64);
        let seeded = subsequent(MotionLevel::High, MotionVector::new(-14, 7)).search(&c2);
        assert_eq!(seeded.mv, MotionVector::new(-14, 7));
        assert_eq!(seeded.cost, 0);
        assert!(seeded.cost <= cold.cost);
    }

    #[test]
    fn high_motion_subsequent_locks_orientation() {
        let (cur, reference) = shifted_planes(0, 12);
        let c = ctx(&cur, &reference, SearchWindow::W64);
        let r = subsequent(MotionLevel::High, MotionVector::new(0, -12)).search(&c);
        assert_eq!(r.mv, MotionVector::new(0, -12));
    }

    #[test]
    fn subsequent_frames_cost_less_than_first() {
        let (cur, reference) = shifted_planes(6, 0);
        let c1 = ctx(&cur, &reference, SearchWindow::W64);
        let first = first_frame(MotionLevel::High).search(&c1);
        let c2 = ctx(&cur, &reference, SearchWindow::W64);
        let later = subsequent(MotionLevel::High, first.mv).search(&c2);
        assert!(later.evaluations <= first.evaluations);
        assert_eq!(later.mv, first.mv);
    }

    #[test]
    fn cheaper_than_plain_hexagon_on_low_motion_tiles() {
        let (cur, reference) = shifted_planes(1, 0);
        let c1 = ctx(&cur, &reference, SearchWindow::W64);
        let biomed = subsequent(MotionLevel::Low, MotionVector::new(-1, 0)).search(&c1);
        let c2 = ctx(&cur, &reference, SearchWindow::W64);
        let hex = hexagon(&c2, HexOrientation::Horizontal);
        assert!(biomed.evaluations < hex.evaluations);
        assert!(biomed.cost <= hex.cost);
    }
}
