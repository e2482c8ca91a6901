//! Time-varying view transforms modelling how specialists move
//! bio-medical video during diagnosis.
//!
//! Paper §I observes that clinicians rotate/pan a study around an area
//! of interest, so *whole-frame* coherent motion dominates: every tile
//! moves in the same direction. [`MotionPattern`] reproduces those
//! trajectories; [`ViewTransform`] is the sampled affine view at one
//! frame instant.

use serde::{Deserialize, Serialize};

/// The camera/view trajectory of a phantom video.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
#[derive(Default)]
pub enum MotionPattern {
    /// No motion at all (still study).
    #[default]
    Still,
    /// Constant-velocity pan in samples per frame. The paper's Fig. 1
    /// upper pair pans right; the lower pair pans down.
    Pan {
        /// Horizontal velocity in samples/frame (positive = content
        /// moves right).
        dx: f64,
        /// Vertical velocity in samples/frame (positive = down).
        dy: f64,
    },
    /// Rotation about the frame center at a constant angular rate,
    /// as when rotating a volume around an axis of interest.
    Rotate {
        /// Angular velocity in degrees per frame.
        deg_per_frame: f64,
    },
    /// Periodic breathing/pulsation: isotropic scale oscillation.
    Breathe {
        /// Peak scale deviation (e.g. `0.03` = ±3%).
        amplitude: f64,
        /// Period in frames (e.g. 96 = 4 s at 24 fps).
        period: f64,
    },
    /// Pan for `move_frames`, then hold still, then pan again —
    /// the inspect-then-move rhythm of a diagnostic session.
    PanPause {
        /// Horizontal velocity while moving.
        dx: f64,
        /// Vertical velocity while moving.
        dy: f64,
        /// Frames of motion per cycle.
        move_frames: u32,
        /// Frames of stillness per cycle.
        pause_frames: u32,
    },
}

impl MotionPattern {
    /// Samples the view transform at frame `t`.
    pub fn at(&self, t: usize) -> ViewTransform {
        let t = t as f64;
        match *self {
            MotionPattern::Still => ViewTransform::IDENTITY,
            MotionPattern::Pan { dx, dy } => ViewTransform {
                tx: dx * t,
                ty: dy * t,
                ..ViewTransform::IDENTITY
            },
            MotionPattern::Rotate { deg_per_frame } => ViewTransform {
                angle_rad: deg_per_frame.to_radians() * t,
                ..ViewTransform::IDENTITY
            },
            MotionPattern::Breathe { amplitude, period } => ViewTransform {
                scale: 1.0 + amplitude * (t * std::f64::consts::TAU / period).sin(),
                ..ViewTransform::IDENTITY
            },
            MotionPattern::PanPause {
                dx,
                dy,
                move_frames,
                pause_frames,
            } => {
                let cycle = (move_frames + pause_frames) as f64;
                let full_cycles = (t / cycle).floor();
                let phase = t - full_cycles * cycle;
                let moved = full_cycles * move_frames as f64 + phase.min(move_frames as f64);
                ViewTransform {
                    tx: dx * moved,
                    ty: dy * moved,
                    ..ViewTransform::IDENTITY
                }
            }
        }
    }
}

/// Affine view parameters at one frame instant: rotation about the frame
/// center, isotropic scale, then translation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ViewTransform {
    /// Rotation angle in radians (counter-clockwise).
    pub angle_rad: f64,
    /// Isotropic scale factor.
    pub scale: f64,
    /// Horizontal translation of the *content* in samples.
    pub tx: f64,
    /// Vertical translation of the *content* in samples.
    pub ty: f64,
}

impl ViewTransform {
    /// The identity view.
    pub(crate) const IDENTITY: ViewTransform = ViewTransform {
        angle_rad: 0.0,
        scale: 1.0,
        tx: 0.0,
        ty: 0.0,
    };

    /// The map from an *output* pixel back to *canvas* coordinates.
    ///
    /// `(cx, cy)` is the frame center; the returned function takes the
    /// output sample `(x, y)`. The content is rotated/scaled about the
    /// center and shifted by `(tx, ty)`, so the source position applies
    /// the inverse. The rotation's `sin_cos` and the inverse scale are
    /// evaluated once, here, not once per sample.
    ///
    /// At `angle_rad == 0.0` the map is separable to the bit: `sx`
    /// depends on `x` only and `sy` on `y` only, so `source(x, y)` is
    /// `(source(x, 0).0, source(0, y).1)` exactly. There `cos` is 1.0
    /// and `sin` is ±0.0, so the cross terms `py · sin` and `px · sin`
    /// are ±0.0, and adding one changes nothing but, possibly, the sign
    /// of a zero, which `· inv_s + c` (with `c > 0`) then erases.
    #[inline]
    pub(crate) fn source_of(&self, cx: f64, cy: f64) -> impl Fn(f64, f64) -> (f64, f64) {
        let (sin, cos) = (-self.angle_rad).sin_cos();
        let inv_s = 1.0 / self.scale;
        let (tx, ty) = (self.tx, self.ty);
        move |x, y| {
            // Undo translation first, then rotate/scale back about center.
            let px = x - tx - cx;
            let py = y - ty - cy;
            let sx = (px * cos - py * sin) * inv_s + cx;
            let sy = (px * sin + py * cos) * inv_s + cy;
            (sx, sy)
        }
    }

    /// The content shift `(tx, ty)` when the view neither rotates nor
    /// scales and translates by whole samples, else `None`.
    ///
    /// For such a view the map [`source_of`](Self::source_of) returns
    /// `(x − tx, y − ty)` exactly (every term is a small integer), so
    /// bilinear sampling there has zero fractional weights and equals
    /// the canvas sample at that position, to the bit.
    pub(crate) fn whole_sample_shift(&self) -> Option<(isize, isize)> {
        let whole = |v: f64| v.fract() == 0.0;
        (self.angle_rad == 0.0 && self.scale == 1.0 && whole(self.tx) && whole(self.ty))
            .then_some((self.tx as isize, self.ty as isize))
    }
}

impl Default for ViewTransform {
    fn default() -> Self {
        Self::IDENTITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn still_is_identity_forever() {
        let p = MotionPattern::Still;
        assert_eq!(p.at(0), ViewTransform::IDENTITY);
        assert_eq!(p.at(1000), ViewTransform::IDENTITY);
        assert_eq!(p.at(5), p.at(6));
    }

    #[test]
    fn pan_accumulates_linearly() {
        let p = MotionPattern::Pan { dx: 1.5, dy: -0.5 };
        let t10 = p.at(10);
        assert!((t10.tx - 15.0).abs() < 1e-12);
        assert!((t10.ty + 5.0).abs() < 1e-12);
        assert_ne!(p.at(0), p.at(1));
    }

    #[test]
    fn rotate_accumulates_angle() {
        let p = MotionPattern::Rotate { deg_per_frame: 0.5 };
        let t = p.at(24);
        assert!((t.angle_rad - 12f64.to_radians()).abs() < 1e-12);
        assert_ne!(p.at(3), p.at(4));
    }

    #[test]
    fn breathe_is_periodic() {
        let p = MotionPattern::Breathe {
            amplitude: 0.05,
            period: 48.0,
        };
        let a = p.at(0);
        let b = p.at(48);
        assert!((a.scale - b.scale).abs() < 1e-9);
        let quarter = p.at(12);
        assert!((quarter.scale - 1.05).abs() < 1e-9);
    }

    #[test]
    fn pan_pause_holds_during_pause() {
        let p = MotionPattern::PanPause {
            dx: 2.0,
            dy: 0.0,
            move_frames: 10,
            pause_frames: 5,
        };
        // Frames 10..15 are paused at tx = 20.
        assert!((p.at(10).tx - 20.0).abs() < 1e-12);
        assert!((p.at(14).tx - 20.0).abs() < 1e-12);
        assert_eq!(p.at(12), p.at(13));
        // Motion resumes at 15.
        assert!((p.at(16).tx - 22.0).abs() < 1e-12);
        assert_ne!(p.at(15), p.at(16));
        // Second cycle accumulates on top of the first.
        assert!((p.at(25).tx - 40.0).abs() < 1e-12);
    }

    #[test]
    fn source_of_inverts_pure_translation() {
        let t = ViewTransform {
            tx: 3.0,
            ty: -2.0,
            ..ViewTransform::IDENTITY
        };
        let (sx, sy) = t.source_of(50.0, 50.0)(10.0, 10.0);
        assert!((sx - 7.0).abs() < 1e-12);
        assert!((sy - 12.0).abs() < 1e-12);
    }

    #[test]
    fn source_of_keeps_center_fixed_under_rotation() {
        let t = ViewTransform {
            angle_rad: 0.7,
            ..ViewTransform::IDENTITY
        };
        let (sx, sy) = t.source_of(50.0, 50.0)(50.0, 50.0);
        assert!((sx - 50.0).abs() < 1e-9);
        assert!((sy - 50.0).abs() < 1e-9);
    }

    #[test]
    fn source_of_rotation_round_trip() {
        // Rotating forward then sampling backward recovers the point.
        let fwd = ViewTransform {
            angle_rad: 0.3,
            scale: 1.1,
            tx: 2.0,
            ty: 1.0,
        };
        let (cx, cy) = (64.0, 48.0);
        // Forward-map a canvas point p to output q manually…
        let (px, py) = (70.0, 40.0);
        let (sin, cos) = fwd.angle_rad.sin_cos();
        let qx = ((px - cx) * cos - (py - cy) * sin) * fwd.scale + cx + fwd.tx;
        let qy = ((px - cx) * sin + (py - cy) * cos) * fwd.scale + cy + fwd.ty;
        // …then source_of must map q back to p.
        let (rx, ry) = fwd.source_of(cx, cy)(qx, qy);
        assert!((rx - px).abs() < 1e-9, "rx={rx}");
        assert!((ry - py).abs() < 1e-9, "ry={ry}");
    }

    #[test]
    fn whole_sample_frames_are_unrotated_unscaled_integer_shifts() {
        let whole = |p: MotionPattern, t: usize| p.at(t).whole_sample_shift();
        // Still: every frame, no shift.
        assert!((0..50).all(|t| whole(MotionPattern::Still, t) == Some((0, 0))));
        // Whole-sample pans: every frame, shifted by t·(dx, dy).
        let pan = MotionPattern::Pan { dx: 3.0, dy: -2.0 };
        assert!((0..50).all(|t| whole(pan, t) == Some((3 * t as isize, -2 * t as isize))));
        // A quarter-sample pan: only every fourth frame.
        let quarter = MotionPattern::Pan { dx: 0.5, dy: 0.25 };
        let on: Vec<usize> = (0..13).filter(|&t| whole(quarter, t).is_some()).collect();
        assert_eq!(on, [0, 4, 8, 12]);
        assert_eq!(whole(quarter, 8), Some((4, 2)));
        // Pan-pause at half a sample per frame: whole where an even
        // number of moving frames has passed, held through a pause.
        let pp = MotionPattern::PanPause {
            dx: 0.5,
            dy: 0.0,
            move_frames: 3,
            pause_frames: 2,
        };
        let on: Vec<usize> = (0..10).filter(|&t| whole(pp, t).is_some()).collect();
        assert_eq!(on, [0, 2, 6, 8, 9]);
        // Rotation and breathing: within a clip's 33 frames, only the
        // identity frame 0.
        let rotate = MotionPattern::Rotate { deg_per_frame: 0.4 };
        let breathe = MotionPattern::Breathe {
            amplitude: 0.025,
            period: 96.0,
        };
        for p in [rotate, breathe] {
            let on: Vec<usize> = (0..33).filter(|&t| whole(p, t).is_some()).collect();
            assert_eq!(on, [0], "{p:?}");
        }
    }

    proptest! {
        #[test]
        fn unrotated_source_of_is_separable_to_the_bit(
            scale in 0.3f64..3.0,
            tx in -40.0f64..40.0,
            ty in -40.0f64..40.0,
            half_w in 8usize..400,
            half_h in 8usize..300,
            negative_zero in 0u8..2,
        ) {
            let angle_rad = if negative_zero == 1 { -0.0 } else { 0.0 };
            let (cx, cy) = (half_w as f64, half_h as f64);
            // Fractional shifts, and whole ones with which `x == cx + tx`
            // puts the sample on the center column (`px == 0`).
            for (tx, ty) in [(tx, ty), (tx.round(), ty.round()), (0.0, 0.0)] {
                let view = ViewTransform { angle_rad, scale, tx, ty };
                let source = view.source_of(cx, cy);
                let xs = (0..2 * half_w).step_by(7).chain([half_w, (cx + tx) as usize]);
                for x in xs.map(|x| x as f64) {
                    let ys = (0..2 * half_h).step_by(5).chain([half_h, (cy + ty) as usize]);
                    for y in ys.map(|y| y as f64) {
                        let (sx, sy) = source(x, y);
                        let (col, row) = (source(x, 0.0).0, source(0.0, y).1);
                        prop_assert_eq!(sx.to_bits(), col.to_bits(), "x {} y {} {:?}", x, y, view);
                        prop_assert_eq!(sy.to_bits(), row.to_bits(), "x {} y {} {:?}", x, y, view);
                    }
                }
            }
        }
    }

    #[test]
    fn default_pattern_is_still() {
        assert_eq!(MotionPattern::default(), MotionPattern::Still);
    }
}
