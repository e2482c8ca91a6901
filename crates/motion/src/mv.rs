//! Motion vectors and coarse motion directions.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Neg, Sub};

/// An integer-sample motion vector.
///
/// Positive `x` points right, positive `y` points down, matching the
/// raster coordinate system of [`medvt_frame::Plane`].
///
/// # Examples
///
/// ```
/// use medvt_motion::MotionVector;
///
/// let mv = MotionVector::new(3, -4);
/// assert_eq!(mv.sq_norm(), 25);
/// assert_eq!(mv + MotionVector::new(1, 1), MotionVector::new(4, -3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct MotionVector {
    /// Horizontal displacement in samples.
    pub x: i16,
    /// Vertical displacement in samples.
    pub y: i16,
}

impl MotionVector {
    /// The zero (no-motion) vector.
    pub const ZERO: MotionVector = MotionVector { x: 0, y: 0 };

    /// Creates a motion vector.
    pub const fn new(x: i16, y: i16) -> Self {
        Self { x, y }
    }

    /// Squared Euclidean norm.
    pub fn sq_norm(&self) -> i32 {
        let x = self.x as i32;
        let y = self.y as i32;
        x * x + y * y
    }

    /// Chebyshev (max-axis) norm — the norm search windows clamp.
    pub(crate) fn linf_norm(&self) -> i16 {
        self.x.abs().max(self.y.abs())
    }

    /// `true` when both components are zero.
    pub(crate) fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }

    /// Clamps each component into `[-limit, limit]`.
    pub(crate) fn clamped(&self, limit: i16) -> MotionVector {
        MotionVector::new(self.x.clamp(-limit, limit), self.y.clamp(-limit, limit))
    }

    /// The coarse axis of this vector, used to pick the hexagon-search
    /// orientation (paper §III-C2: horizontal hexagon when the motion is
    /// more horizontal).
    pub(crate) fn dominant_axis(&self) -> MotionAxis {
        if self.is_zero() {
            MotionAxis::None
        } else if self.x.abs() >= self.y.abs() {
            MotionAxis::Horizontal
        } else {
            MotionAxis::Vertical
        }
    }
}

impl Add for MotionVector {
    type Output = MotionVector;

    fn add(self, rhs: MotionVector) -> MotionVector {
        MotionVector::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for MotionVector {
    type Output = MotionVector;

    fn sub(self, rhs: MotionVector) -> MotionVector {
        MotionVector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Neg for MotionVector {
    type Output = MotionVector;

    fn neg(self) -> MotionVector {
        MotionVector::new(-self.x, -self.y)
    }
}

impl fmt::Display for MotionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// Coarse motion axis used for direction-locked searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MotionAxis {
    /// No preferred axis (zero motion).
    None,
    /// Motion is predominantly horizontal.
    Horizontal,
    /// Motion is predominantly vertical.
    Vertical,
}

impl MotionAxis {
    /// Unit step along the axis (zero for [`MotionAxis::None`]).
    pub const fn unit(&self) -> MotionVector {
        match self {
            MotionAxis::None => MotionVector::ZERO,
            MotionAxis::Horizontal => MotionVector::new(1, 0),
            MotionAxis::Vertical => MotionVector::new(0, 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = MotionVector::new(2, -3);
        let b = MotionVector::new(-1, 5);
        assert_eq!(a + b, MotionVector::new(1, 2));
        assert_eq!(a - b, MotionVector::new(3, -8));
        assert_eq!(-a, MotionVector::new(-2, 3));
    }

    #[test]
    fn norms() {
        let mv = MotionVector::new(-3, 4);
        assert_eq!(mv.sq_norm(), 25);
        assert_eq!(mv.linf_norm(), 4);
        assert!(MotionVector::ZERO.is_zero());
        assert!(!mv.is_zero());
    }

    #[test]
    fn clamping() {
        let mv = MotionVector::new(100, -100);
        assert_eq!(mv.clamped(8), MotionVector::new(8, -8));
        assert_eq!(MotionVector::new(3, 2).clamped(8), MotionVector::new(3, 2));
    }

    #[test]
    fn dominant_axis_rules() {
        assert_eq!(MotionVector::ZERO.dominant_axis(), MotionAxis::None);
        assert_eq!(
            MotionVector::new(5, 3).dominant_axis(),
            MotionAxis::Horizontal
        );
        assert_eq!(
            MotionVector::new(2, -7).dominant_axis(),
            MotionAxis::Vertical
        );
        // Ties go horizontal, matching the paper's preference order.
        assert_eq!(
            MotionVector::new(4, 4).dominant_axis(),
            MotionAxis::Horizontal
        );
    }

    #[test]
    fn axis_units() {
        assert_eq!(MotionAxis::Horizontal.unit(), MotionVector::new(1, 0));
        assert_eq!(MotionAxis::Vertical.unit(), MotionVector::new(0, 1));
        assert_eq!(MotionAxis::None.unit(), MotionVector::ZERO);
    }

    #[test]
    fn display_format() {
        assert_eq!(MotionVector::new(-2, 7).to_string(), "(-2,7)");
    }
}
