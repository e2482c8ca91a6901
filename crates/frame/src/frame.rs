//! YUV 4:2:0 frames and frame metadata.

use crate::{FrameError, Plane, Rect};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Video resolution in luma samples.
///
/// # Examples
///
/// ```
/// use medvt_frame::Resolution;
///
/// let r = Resolution::VGA;
/// assert_eq!(r.width, 640);
/// assert_eq!(r.height, 480);
/// assert_eq!(r.luma_samples(), 640 * 480);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Resolution {
    /// Width in luma samples.
    pub width: usize,
    /// Height in luma samples.
    pub height: usize,
}

impl Resolution {
    /// 640x480 — the resolution of the paper's ten clinical videos.
    pub const VGA: Resolution = Resolution::new(640, 480);

    /// Creates a resolution.
    pub const fn new(width: usize, height: usize) -> Self {
        Self { width, height }
    }

    /// Number of luma samples per frame.
    pub const fn luma_samples(&self) -> usize {
        self.width * self.height
    }

    /// The full-frame rectangle.
    pub const fn rect(&self) -> Rect {
        Rect::frame(self.width, self.height)
    }

    /// Validates 4:2:0 compatibility (non-zero, even dimensions).
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Dimensions`] for zero or odd dimensions.
    pub(crate) fn validate_420(&self) -> Result<(), FrameError> {
        if self.width == 0 || self.height == 0 {
            return Err(FrameError::Dimensions {
                width: self.width,
                height: self.height,
                reason: "zero dimension",
            });
        }
        if !self.width.is_multiple_of(2) || !self.height.is_multiple_of(2) {
            return Err(FrameError::Dimensions {
                width: self.width,
                height: self.height,
                reason: "4:2:0 chroma requires even dimensions",
            });
        }
        Ok(())
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

/// A YUV 4:2:0 picture.
///
/// The luma plane is full resolution; both chroma planes are subsampled
/// 2x in each dimension. Every pipeline stage in `medvt` operates on
/// these frames: the phantom generator produces them, the encoder codes
/// and reconstructs them, and the analyzer reads their luma plane.
///
/// # Examples
///
/// ```
/// use medvt_frame::{Frame, Resolution};
///
/// let f = Frame::flat(Resolution::new(64, 48), 128);
/// assert_eq!(f.y().width(), 64);
/// assert_eq!(f.u().width(), 32);
/// assert_eq!(f.v().height(), 24);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    y: Plane,
    u: Plane,
    v: Plane,
}

impl Frame {
    /// Creates a black frame (luma 16, chroma 128 — studio-range black).
    ///
    /// # Panics
    ///
    /// Panics if the resolution is not 4:2:0 compatible.
    pub fn black(res: Resolution) -> Self {
        res.validate_420()
            .expect("resolution must be 4:2:0 compatible");
        Self {
            y: Plane::filled(res.width, res.height, 16),
            u: Plane::filled(res.width / 2, res.height / 2, 128),
            v: Plane::filled(res.width / 2, res.height / 2, 128),
        }
    }

    /// Creates a frame with constant luma `value` and neutral chroma.
    ///
    /// # Panics
    ///
    /// Panics if the resolution is not 4:2:0 compatible.
    pub fn flat(res: Resolution, value: u8) -> Self {
        res.validate_420()
            .expect("resolution must be 4:2:0 compatible");
        Self {
            y: Plane::filled(res.width, res.height, value),
            u: Plane::filled(res.width / 2, res.height / 2, 128),
            v: Plane::filled(res.width / 2, res.height / 2, 128),
        }
    }

    /// Assembles a frame from existing planes.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Dimensions`] when the chroma planes are not
    /// exactly half the luma plane in each dimension.
    pub(crate) fn from_planes(y: Plane, u: Plane, v: Plane) -> Result<Self, FrameError> {
        let ok = u.width() == y.width() / 2
            && u.height() == y.height() / 2
            && v.width() == y.width() / 2
            && v.height() == y.height() / 2;
        if !ok {
            return Err(FrameError::Dimensions {
                width: y.width(),
                height: y.height(),
                reason: "chroma planes must be half the luma dimensions",
            });
        }
        Ok(Self { y, u, v })
    }

    /// Frame resolution (luma).
    pub fn resolution(&self) -> Resolution {
        Resolution::new(self.y.width(), self.y.height())
    }

    /// Borrows the luma plane.
    pub fn y(&self) -> &Plane {
        &self.y
    }

    /// Mutably borrows the luma plane.
    pub fn y_mut(&mut self) -> &mut Plane {
        &mut self.y
    }

    /// Borrows the first chroma (Cb) plane.
    pub fn u(&self) -> &Plane {
        &self.u
    }

    /// Mutably borrows the first chroma (Cb) plane.
    pub fn u_mut(&mut self) -> &mut Plane {
        &mut self.u
    }

    /// Borrows the second chroma (Cr) plane.
    pub fn v(&self) -> &Plane {
        &self.v
    }

    /// Mutably borrows the second chroma (Cr) plane.
    pub fn v_mut(&mut self) -> &mut Plane {
        &mut self.v
    }

    /// Decomposes the frame into its planes.
    pub fn into_planes(self) -> (Plane, Plane, Plane) {
        (self.y, self.u, self.v)
    }
}

/// Picture/slice type in a GOP, following HEVC Random Access terminology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameKind {
    /// Intra-only picture (IDR/CRA).
    Intra,
    /// Uni-predicted picture.
    Predicted,
    /// Bi-predicted picture (the B slices of the paper's RA configuration).
    BiPredicted,
}

impl FrameKind {
    /// `true` when inter prediction is allowed.
    pub const fn is_inter(&self) -> bool {
        !matches!(self, FrameKind::Intra)
    }

    /// One-letter label (`I`, `P`, `B`) used in logs and experiment output.
    pub const fn letter(&self) -> char {
        match self {
            FrameKind::Intra => 'I',
            FrameKind::Predicted => 'P',
            FrameKind::BiPredicted => 'B',
        }
    }
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_constants() {
        assert_eq!(Resolution::VGA.to_string(), "640x480");
        assert_eq!(Resolution::VGA.luma_samples(), 307_200);
        assert_eq!(Resolution::VGA.rect(), Rect::frame(640, 480));
    }

    #[test]
    fn validate_420_rejects_odd_and_zero() {
        assert!(Resolution::new(640, 480).validate_420().is_ok());
        assert!(Resolution::new(641, 480).validate_420().is_err());
        assert!(Resolution::new(640, 481).validate_420().is_err());
        assert!(Resolution::new(0, 480).validate_420().is_err());
    }

    #[test]
    fn black_frame_is_studio_black() {
        let f = Frame::black(Resolution::new(16, 16));
        assert_eq!(f.y().get(0, 0), 16);
        assert_eq!(f.u().get(0, 0), 128);
        assert_eq!(f.v().get(0, 0), 128);
    }

    #[test]
    fn from_planes_validates_chroma_geometry() {
        let y = Plane::new(8, 8);
        let u = Plane::new(4, 4);
        let v = Plane::new(4, 4);
        assert!(Frame::from_planes(y.clone(), u.clone(), v.clone()).is_ok());
        let bad_u = Plane::new(8, 4);
        assert!(Frame::from_planes(y, bad_u, v).is_err());
    }

    #[test]
    fn frame_kind_properties() {
        assert!(!FrameKind::Intra.is_inter());
        assert!(FrameKind::Predicted.is_inter());
        assert!(FrameKind::BiPredicted.is_inter());
        assert_eq!(FrameKind::Intra.to_string(), "I");
        assert_eq!(FrameKind::BiPredicted.letter(), 'B');
    }

    #[test]
    fn into_planes_round_trip() {
        let f = Frame::flat(Resolution::new(4, 4), 9);
        let (y, u, v) = f.into_planes();
        let f2 = Frame::from_planes(y, u, v).unwrap();
        assert_eq!(f2.y().get(0, 0), 9);
    }
}
