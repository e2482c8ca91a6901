//! Objective quality metrics: MSE and PSNR.
//!
//! The paper's quality constraint loop (Algorithm 1) and all of Table I /
//! Table II report PSNR, so these functions are on the hot path of both
//! the QP controller and the experiment harness.

use crate::{Frame, Plane, Rect};

/// Mean squared error between the same region of two planes.
///
/// # Panics
///
/// Panics when the planes have different dimensions or `rect` does not
/// fit inside them, or when `rect` is empty.
pub fn region_mse(a: &Plane, b: &Plane, rect: &Rect) -> f64 {
    assert_eq!(a.width(), b.width(), "plane widths differ");
    assert_eq!(a.height(), b.height(), "plane heights differ");
    assert!(!rect.is_empty(), "mse over empty rect");
    assert!(a.bounds().contains_rect(rect), "rect {rect} outside plane");
    let mut acc = 0u64;
    for row in rect.y..rect.bottom() {
        let ra = &a.row(row)[rect.x..rect.right()];
        let rb = &b.row(row)[rect.x..rect.right()];
        for (&sa, &sb) in ra.iter().zip(rb) {
            let d = sa as i64 - sb as i64;
            acc += (d * d) as u64;
        }
    }
    acc as f64 / rect.area() as f64
}

/// Mean squared error over two full planes.
///
/// # Panics
///
/// Panics when the planes have different dimensions.
pub(crate) fn plane_mse(a: &Plane, b: &Plane) -> f64 {
    region_mse(a, b, &a.bounds())
}

/// Converts an MSE to 8-bit PSNR in dB.
///
/// Identical inputs (MSE = 0) return [`f64::INFINITY`].
pub(crate) fn mse_to_psnr(mse: f64) -> f64 {
    if mse <= 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / mse).log10()
    }
}

/// Luma PSNR between two full planes, in dB.
///
/// # Panics
///
/// Panics when the planes have different dimensions.
pub(crate) fn plane_psnr(a: &Plane, b: &Plane) -> f64 {
    mse_to_psnr(plane_mse(a, b))
}

/// Luma-only frame PSNR — what the paper's tables report.
///
/// # Panics
///
/// Panics when the frames have different resolutions.
pub fn frame_psnr(a: &Frame, b: &Frame) -> f64 {
    plane_psnr(a.y(), b.y())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Resolution;

    #[test]
    fn identical_planes_have_infinite_psnr() {
        let p = Plane::filled(16, 16, 80);
        assert_eq!(plane_mse(&p, &p), 0.0);
        assert!(plane_psnr(&p, &p).is_infinite());
    }

    #[test]
    fn known_mse_value() {
        let a = Plane::filled(4, 4, 100);
        let b = Plane::filled(4, 4, 110);
        assert_eq!(plane_mse(&a, &b), 100.0);
        let psnr = plane_psnr(&a, &b);
        // 10*log10(65025/100) = 28.13 dB.
        assert!((psnr - 28.131).abs() < 0.01, "psnr={psnr}");
    }

    #[test]
    fn psnr_decreases_with_distortion() {
        let a = Plane::filled(8, 8, 100);
        let b = Plane::filled(8, 8, 105);
        let c = Plane::filled(8, 8, 120);
        assert!(plane_psnr(&a, &b) > plane_psnr(&a, &c));
    }

    #[test]
    fn region_mse_only_counts_region() {
        let a = Plane::filled(8, 8, 0);
        let mut b = Plane::filled(8, 8, 0);
        b.fill_rect(&Rect::new(0, 0, 4, 8), 10);
        // Left half differs by 10, right half identical.
        assert_eq!(region_mse(&a, &b, &Rect::new(4, 0, 4, 8)), 0.0);
        assert_eq!(region_mse(&a, &b, &Rect::new(0, 0, 4, 8)), 100.0);
        assert_eq!(plane_mse(&a, &b), 50.0);
    }

    #[test]
    fn frame_psnr_uses_luma() {
        let res = Resolution::new(16, 16);
        let a = Frame::flat(res, 100);
        let mut b = Frame::flat(res, 100);
        // Chroma-only distortion leaves luma PSNR infinite.
        b.u_mut().fill_rect(&Rect::frame(8, 8), 10);
        assert!(frame_psnr(&a, &b).is_infinite());
    }

    #[test]
    fn mse_to_psnr_monotone() {
        assert!(mse_to_psnr(1.0) > mse_to_psnr(2.0));
        assert!(mse_to_psnr(0.0).is_infinite());
    }

    #[test]
    #[should_panic(expected = "widths differ")]
    fn mismatched_planes_panic() {
        let a = Plane::new(4, 4);
        let b = Plane::new(8, 4);
        plane_mse(&a, &b);
    }
}
