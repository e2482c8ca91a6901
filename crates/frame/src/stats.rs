//! First-order statistics over plane regions.
//!
//! The content analyzer (paper §III-A) classifies tile texture by the
//! *coefficient of variation* (CV = σ/μ) of luma samples, and probes
//! motion by comparing a handful of salient sample positions. Both need
//! cheap single-pass statistics, which this module provides.

use crate::{Plane, Rect};
use serde::{Deserialize, Serialize};

/// Single-pass statistics of the samples inside one plane region.
///
/// # Examples
///
/// ```
/// use medvt_frame::{Plane, Rect, RegionStats};
///
/// let mut p = Plane::filled(8, 8, 100);
/// p.set(3, 3, 200);
/// let s = RegionStats::of(&p, &Rect::frame(8, 8));
/// assert_eq!(s.max, 200);
/// assert_eq!(s.max_pos, (3, 3));
/// assert!(s.cv() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionStats {
    /// Arithmetic mean of the samples.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Smallest sample value.
    pub min: u8,
    /// Largest sample value.
    pub max: u8,
    /// Coordinates `(col, row)` of the first occurrence of `max`.
    pub max_pos: (usize, usize),
    /// Number of samples aggregated.
    pub count: usize,
}

impl RegionStats {
    /// Computes statistics over `rect` of `plane` in one pass.
    ///
    /// # Panics
    ///
    /// Panics when `rect` is empty or not fully inside the plane.
    pub fn of(plane: &Plane, rect: &Rect) -> Self {
        assert!(!rect.is_empty(), "cannot take stats of an empty rect");
        assert!(
            plane.bounds().contains_rect(rect),
            "rect {rect} outside plane"
        );
        let mut sum = 0u64;
        let mut sum_sq = 0u64;
        let mut min = u8::MAX;
        let mut max = u8::MIN;
        let mut max_pos = (rect.x, rect.y);
        for row in rect.y..rect.bottom() {
            for (i, &s) in plane.row(row)[rect.x..rect.right()].iter().enumerate() {
                sum += s as u64;
                sum_sq += (s as u64) * (s as u64);
                if s < min {
                    min = s;
                }
                if s > max {
                    max = s;
                    max_pos = (rect.x + i, row);
                }
            }
        }
        let n = rect.area() as f64;
        let mean = sum as f64 / n;
        let var = (sum_sq as f64 / n - mean * mean).max(0.0);
        Self {
            mean,
            stddev: var.sqrt(),
            min,
            max,
            max_pos,
            count: rect.area(),
        }
    }

    /// Coefficient of variation σ/μ — the texture measure of paper Eq. (1).
    ///
    /// Flat black regions (μ = 0) have zero diversity, so the CV is
    /// defined as 0 there rather than dividing by zero.
    pub fn cv(&self) -> f64 {
        if self.mean <= f64::EPSILON {
            0.0
        } else {
            self.stddev / self.mean
        }
    }

    /// Dynamic range `max - min` of the region.
    pub fn range(&self) -> u8 {
        self.max - self.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_plane() -> Plane {
        let mut p = Plane::new(4, 4);
        for (i, s) in p.samples_mut().iter_mut().enumerate() {
            *s = (i * 10) as u8;
        }
        p
    }

    #[test]
    fn constant_region_has_zero_stddev() {
        let p = Plane::filled(6, 6, 42);
        let s = RegionStats::of(&p, &Rect::frame(6, 6));
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.cv(), 0.0);
        assert_eq!(s.min, 42);
        assert_eq!(s.max, 42);
        assert_eq!(s.range(), 0);
    }

    #[test]
    fn black_region_cv_is_zero_not_nan() {
        let p = Plane::new(4, 4);
        let s = RegionStats::of(&p, &Rect::frame(4, 4));
        assert_eq!(s.cv(), 0.0);
        assert!(s.cv().is_finite());
    }

    #[test]
    fn mean_and_stddev_match_manual_computation() {
        let p = Plane::from_vec(2, 2, vec![1, 2, 3, 4]).unwrap();
        let s = RegionStats::of(&p, &Rect::frame(2, 2));
        assert!((s.mean - 2.5).abs() < 1e-12);
        // Population variance of {1,2,3,4} = 1.25.
        assert!((s.stddev * s.stddev - 1.25).abs() < 1e-9);
    }

    #[test]
    fn max_pos_first_occurrence() {
        let p = Plane::from_vec(3, 1, vec![9, 9, 1]).unwrap();
        let s = RegionStats::of(&p, &Rect::frame(3, 1));
        assert_eq!(s.max_pos, (0, 0));
    }

    #[test]
    fn subregion_stats_ignore_outside() {
        let p = ramp_plane();
        let s = RegionStats::of(&p, &Rect::new(0, 0, 1, 1));
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.count, 1);
        let s2 = RegionStats::of(&p, &Rect::new(3, 3, 1, 1));
        assert_eq!(s2.mean, 150.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_rect_panics() {
        let p = Plane::new(4, 4);
        RegionStats::of(&p, &Rect::new(0, 0, 0, 0));
    }

    #[test]
    fn textured_region_has_higher_cv_than_flat() {
        let mut textured = Plane::filled(8, 8, 100);
        for row in 0..8 {
            for col in 0..8 {
                if (row + col) % 2 == 0 {
                    textured.set(col, row, 30);
                }
            }
        }
        let flat = Plane::filled(8, 8, 100);
        let r = Rect::frame(8, 8);
        assert!(RegionStats::of(&textured, &r).cv() > RegionStats::of(&flat, &r).cv());
    }
}
