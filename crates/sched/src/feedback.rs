//! Deadline feedback — paper §III-D2, closing paragraph.
//!
//! After each frame the achieved encoding time is read back. If a frame
//! overran its 1/FPS slot while the cores already ran at the maximum
//! frequency, the *bottleneck tiles* get a lighter configuration for
//! the next frame (smaller search window, higher QP), so
//! over-utilization is compensated by under-utilization of following
//! frames; the framerate constraint is checked on one-second windows.

use serde::{Deserialize, Serialize};

/// What the controller asks the encoder to do for the next frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Adjustment {
    /// Keep the planned configuration.
    None,
    /// Lighten the listed tiles (indices into the frame's tiling):
    /// shrink their search window one step and raise their QP.
    Lighten {
        /// Bottleneck tile indices.
        tiles: Vec<usize>,
    },
    /// The previous frames banked slack; tiles may be restored to their
    /// planned configuration.
    Restore,
}

/// Rolling one-second deadline accountant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeedbackController {
    fps: f64,
    slot_secs: f64,
    /// Accumulated (frame_time - slot) debt within the current window.
    debt_secs: f64,
    /// Frames seen in the current one-second window.
    frames_in_window: usize,
    /// One-second windows that ended missing the framerate.
    missed_windows: usize,
    /// One-second windows completed.
    total_windows: usize,
    /// Whether tiles currently run a lightened configuration.
    lightened: bool,
}

impl FeedbackController {
    /// Creates a controller for the given target framerate.
    ///
    /// # Panics
    ///
    /// Panics when `fps` is not strictly positive.
    pub fn new(fps: f64) -> Self {
        assert!(fps > 0.0 && fps.is_finite(), "fps must be positive");
        Self {
            fps,
            slot_secs: 1.0 / fps,
            debt_secs: 0.0,
            frames_in_window: 0,
            missed_windows: 0,
            total_windows: 0,
            lightened: false,
        }
    }

    /// The per-frame slot in seconds.
    pub fn slot_secs(&self) -> f64 {
        self.slot_secs
    }

    /// Records one encoded frame and decides the next frame's
    /// adjustment.
    ///
    /// `frame_secs` is the frame's critical-path encode time,
    /// `tile_secs` the per-tile times, and `at_fmax` whether the
    /// relevant cores already ran at the maximum frequency (the paper
    /// only lightens configurations in that case — otherwise DVFS has
    /// headroom).
    pub fn on_frame(&mut self, frame_secs: f64, tile_secs: &[f64], at_fmax: bool) -> Adjustment {
        self.debt_secs += frame_secs - self.slot_secs;
        // Slack banks at most one slot: surplus speed in the distant
        // past cannot excuse a miss now.
        self.debt_secs = self.debt_secs.max(-self.slot_secs);
        self.frames_in_window += 1;
        if self.frames_in_window as f64 >= self.fps {
            // One-second boundary: check the framerate constraint.
            self.total_windows += 1;
            if self.debt_secs > 1e-9 {
                self.missed_windows += 1;
            }
            self.frames_in_window = 0;
            self.debt_secs = self.debt_secs.max(0.0); // new window, no stale surplus
        }
        if frame_secs > self.slot_secs && at_fmax {
            // Identify bottlenecks: tiles within 20% of the slowest.
            let worst = tile_secs.iter().copied().fold(0.0, f64::max);
            let tiles: Vec<usize> = tile_secs
                .iter()
                .enumerate()
                .filter(|(_, &t)| t >= worst * 0.8 && t > 0.0)
                .map(|(i, _)| i)
                .collect();
            if tiles.is_empty() {
                Adjustment::None
            } else {
                self.lightened = true;
                Adjustment::Lighten { tiles }
            }
        } else if self.lightened && self.debt_secs <= -self.slot_secs * 0.5 {
            // Half a slot of banked slack while lightened: restore the
            // planned quality.
            self.lightened = false;
            Adjustment::Restore
        } else {
            Adjustment::None
        }
    }

    /// Fraction of one-second windows that met the framerate.
    pub fn window_hit_rate(&self) -> f64 {
        if self.total_windows == 0 {
            1.0
        } else {
            1.0 - self.missed_windows as f64 / self.total_windows as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_time_frames_need_no_adjustment() {
        let mut fc = FeedbackController::new(24.0);
        let slot = fc.slot_secs();
        for _ in 0..24 {
            let adj = fc.on_frame(slot * 0.9, &[slot * 0.5, slot * 0.9], true);
            assert_eq!(adj, Adjustment::None);
        }
        assert!((fc.window_hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overrun_at_fmax_lightens_bottlenecks() {
        let mut fc = FeedbackController::new(24.0);
        let slot = fc.slot_secs();
        let adj = fc.on_frame(slot * 1.3, &[slot * 0.2, slot * 1.3, slot * 1.1], true);
        match adj {
            Adjustment::Lighten { tiles } => {
                assert!(tiles.contains(&1), "slowest tile flagged");
                assert!(tiles.contains(&2), "near-slowest flagged");
                assert!(!tiles.contains(&0), "fast tile untouched");
            }
            other => panic!("expected Lighten, got {other:?}"),
        }
    }

    #[test]
    fn overrun_below_fmax_defers_to_dvfs() {
        let mut fc = FeedbackController::new(24.0);
        let slot = fc.slot_secs();
        let adj = fc.on_frame(slot * 1.3, &[slot * 1.3], false);
        assert_eq!(adj, Adjustment::None);
    }

    #[test]
    fn banked_slack_restores_quality_after_lightening() {
        let mut fc = FeedbackController::new(24.0);
        let slot = fc.slot_secs();
        // First a miss that lightens…
        let adj = fc.on_frame(slot * 1.5, &[slot * 1.5], true);
        assert!(matches!(adj, Adjustment::Lighten { .. }));
        // …then persistent slack must eventually restore.
        let mut saw_restore = false;
        for _ in 0..10 {
            if fc.on_frame(slot * 0.5, &[slot * 0.5], true) == Adjustment::Restore {
                saw_restore = true;
                break;
            }
        }
        assert!(saw_restore, "persistent slack should restore quality");
    }

    #[test]
    fn no_restore_without_prior_lightening() {
        let mut fc = FeedbackController::new(24.0);
        let slot = fc.slot_secs();
        for _ in 0..30 {
            assert_eq!(
                fc.on_frame(slot * 0.4, &[slot * 0.4], true),
                Adjustment::None
            );
        }
    }

    #[test]
    fn window_accounting_detects_missed_seconds() {
        let mut fc = FeedbackController::new(4.0); // tiny fps for the test
        let slot = fc.slot_secs();
        // One second of frames, each 50% over.
        for _ in 0..4 {
            fc.on_frame(slot * 1.5, &[slot * 1.5], true);
        }
        assert!(fc.window_hit_rate() < 1.0);
        // A compensating fast second keeps later windows green.
        for _ in 0..4 {
            fc.on_frame(slot * 0.1, &[slot * 0.1], true);
        }
        assert_eq!(fc.window_hit_rate(), 0.5);
    }

    #[test]
    fn debt_tracks_over_and_under_utilization() {
        let mut fc = FeedbackController::new(24.0);
        let slot = fc.slot_secs();
        fc.on_frame(slot * 2.0, &[slot * 2.0], true);
        assert!(fc.debt_secs > 0.0);
        fc.on_frame(slot * 0.1, &[slot * 0.1], true);
        assert!(fc.debt_secs < slot);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_fps_rejected() {
        FeedbackController::new(0.0);
    }
}
