//! Phantom bio-medical video generation.
//!
//! [`PhantomVideo`] substitutes the ten anonymized clinical videos of the
//! paper's evaluation (640x480 @ 24 fps): it renders a static anatomy
//! canvas once, then produces frames by sampling it through a
//! time-varying [`MotionPattern`] view, adding per-frame speckle and an
//! elliptical vignette that keeps corners dark and flat. That reproduces
//! every content property the paper's method exploits.

use crate::synth::anatomy::{render_canvas, BodyPart};
use crate::synth::motion::{MotionPattern, ViewTransform};
use crate::synth::noise::speckle;
use crate::{par_map, Frame, FrameSource, Plane, Resolution, VideoClip};
use serde::{Deserialize, Serialize};

/// Full parameterization of a phantom video.
///
/// Construct via [`PhantomVideo::builder`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhantomConfig {
    /// Anatomy class.
    pub body_part: BodyPart,
    /// Output resolution.
    pub resolution: Resolution,
    /// Frame rate.
    pub fps: f64,
    /// Texture realization seed.
    pub seed: u64,
    /// View trajectory; `None` selects the class default.
    pub motion: Option<MotionPattern>,
    /// Total frames, `None` = unbounded.
    pub frames: Option<usize>,
    /// Peak per-frame speckle amplitude in luma codes.
    pub noise_amplitude: f64,
    /// Texture contrast gain in `[0, 2]`.
    pub texture_gain: f64,
    /// Normalized elliptical radius where the vignette starts to fall.
    pub vignette_inner: f64,
    /// Normalized elliptical radius where the vignette reaches black.
    pub vignette_outer: f64,
}

impl Default for PhantomConfig {
    fn default() -> Self {
        Self {
            body_part: BodyPart::Brain,
            resolution: Resolution::VGA,
            fps: 24.0,
            seed: 1,
            motion: None,
            frames: None,
            noise_amplitude: 2.0,
            texture_gain: 1.0,
            vignette_inner: 0.60,
            vignette_outer: 1.20,
        }
    }
}

impl PhantomConfig {
    /// The motion actually used: the explicit override or the class default.
    pub(crate) fn effective_motion(&self) -> MotionPattern {
        self.motion.unwrap_or(default_motion(self.body_part))
    }
}

/// The clinically-motivated default trajectory per body part.
pub(crate) fn default_motion(part: BodyPart) -> MotionPattern {
    match part {
        BodyPart::Bones => MotionPattern::Pan { dx: 1.0, dy: 0.0 },
        BodyPart::LungChest => MotionPattern::Breathe {
            amplitude: 0.025,
            period: 96.0,
        },
        BodyPart::Brain => MotionPattern::Rotate { deg_per_frame: 0.4 },
        BodyPart::SpinalCord => MotionPattern::Pan { dx: 0.0, dy: 0.8 },
        BodyPart::LigamentTendon => MotionPattern::PanPause {
            dx: 0.9,
            dy: 0.45,
            move_frames: 24,
            pause_frames: 24,
        },
        BodyPart::Cardiac => MotionPattern::Breathe {
            amplitude: 0.04,
            period: 24.0,
        },
    }
}

/// Builder for [`PhantomVideo`].
///
/// # Examples
///
/// ```
/// use medvt_frame::synth::{BodyPart, PhantomVideo};
/// use medvt_frame::{FrameSource, Resolution};
///
/// let mut video = PhantomVideo::builder(BodyPart::Brain)
///     .resolution(Resolution::new(128, 96))
///     .seed(42)
///     .frames(24)
///     .build();
/// let frame = video.frame(0).expect("first frame exists");
/// assert_eq!(frame.resolution(), Resolution::new(128, 96));
/// ```
#[derive(Debug, Clone)]
pub struct PhantomVideoBuilder {
    config: PhantomConfig,
}

impl PhantomVideoBuilder {
    /// Sets the output resolution (default 640x480).
    pub fn resolution(mut self, res: Resolution) -> Self {
        self.config.resolution = res;
        self
    }

    /// Sets the frame rate (default 24).
    pub fn fps(mut self, fps: f64) -> Self {
        self.config.fps = fps;
        self
    }

    /// Sets the texture realization seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Overrides the class-default motion pattern.
    pub fn motion(mut self, motion: MotionPattern) -> Self {
        self.config.motion = Some(motion);
        self
    }

    /// Makes the video finite with `n` frames.
    pub fn frames(mut self, n: usize) -> Self {
        self.config.frames = Some(n);
        self
    }

    /// Sets the per-frame speckle amplitude in luma codes (default 2).
    pub fn noise_amplitude(mut self, amp: f64) -> Self {
        self.config.noise_amplitude = amp;
        self
    }

    /// Renders the anatomy canvas and finishes the builder.
    ///
    /// # Panics
    ///
    /// Panics when the resolution is not 4:2:0 compatible or the
    /// vignette radii are not ordered `0 < inner < outer`.
    pub fn build(self) -> PhantomVideo {
        PhantomVideo::new(self.config)
    }
}

/// A deterministic procedural bio-medical video.
///
/// Implements [`FrameSource`]; frames are a pure function of the frame
/// index, so the source supports random access and is safe to share
/// between comparison runs.
#[derive(Debug, Clone)]
pub struct PhantomVideo {
    config: PhantomConfig,
    motion: MotionPattern,
    canvas: Plane,
    margin: usize,
}

impl PhantomVideo {
    /// Starts a builder for the given anatomy class.
    pub fn builder(body_part: BodyPart) -> PhantomVideoBuilder {
        PhantomVideoBuilder {
            config: PhantomConfig {
                body_part,
                ..PhantomConfig::default()
            },
        }
    }

    /// Builds the video from a complete configuration.
    ///
    /// # Panics
    ///
    /// Panics when the resolution is not 4:2:0 compatible or the
    /// vignette radii are not ordered `0 < inner < outer`.
    pub fn new(config: PhantomConfig) -> Self {
        config
            .resolution
            .validate_420()
            .expect("phantom resolution must be 4:2:0 compatible");
        assert!(
            config.vignette_inner > 0.0 && config.vignette_inner < config.vignette_outer,
            "vignette radii must satisfy 0 < inner < outer"
        );
        let res = config.resolution;
        // Margin absorbs the largest excursions of pan/rotate so sampling
        // rarely clamps.
        let margin = (res.width.max(res.height) / 4).max(16);
        // Anatomy occupies the central ~60% of the *output* frame
        // (paper Fig. 1: diagnostic content is centered, borders are
        // near-black), regardless of the canvas margin.
        let canvas = render_canvas(
            config.body_part,
            res.width + 2 * margin,
            res.height + 2 * margin,
            res.width as f64 * 0.26,
            res.height as f64 * 0.26,
            config.seed,
            config.texture_gain,
        );
        let motion = config.effective_motion();
        Self {
            config,
            motion,
            canvas,
            margin,
        }
    }

    /// The configuration this video was built from.
    pub fn config(&self) -> &PhantomConfig {
        &self.config
    }

    /// The anatomy canvas every frame samples: the output frame plus a
    /// margin on every side, rendered once by [`new`](Self::new).
    pub fn canvas(&self) -> &Plane {
        &self.canvas
    }

    /// Bilinearly samples the canvas at fractional coordinates.
    #[inline]
    fn sample_canvas(&self, x: f64, y: f64) -> f64 {
        // The taps `axis_taps` computes, clamped by `get_clamped`: going
        // through `axis_taps` here ran 5–10 % slower per rotating frame.
        let x0 = x.floor();
        let y0 = y.floor();
        let xi = x0 as isize;
        let yi = y0 as isize;
        blend(
            self.canvas.get_clamped(xi, yi),
            self.canvas.get_clamped(xi + 1, yi),
            self.canvas.get_clamped(xi, yi + 1),
            self.canvas.get_clamped(xi + 1, yi + 1),
            x - x0,
            y - y0,
        )
    }

    /// The luma plane of frame `t`, with `sample(col, row)` giving the
    /// canvas value the view shows at each output sample.
    fn render_luma(&self, t: usize, sample: impl Fn(usize, usize) -> f64) -> Plane {
        let res = self.config.resolution;
        let cx = res.width as f64 / 2.0;
        let cy = res.height as f64 / 2.0;
        let inv_hw = 2.0 / res.width as f64;
        let inv_hh = 2.0 / res.height as f64;
        let inner = self.config.vignette_inner;
        let outer = self.config.vignette_outer;
        let amp = self.config.noise_amplitude;
        let seed = self.config.seed;
        let mut y_plane = Plane::new(res.width, res.height);
        for row in 0..res.height {
            let out_row = y_plane.row_mut(row);
            for (col, out) in out_row.iter_mut().enumerate() {
                let x = col as f64;
                let yf = row as f64;
                // Elliptical vignette in *output* space: corners stay
                // dark and static regardless of content motion.
                let nx = (x - cx) * inv_hw;
                let ny = (yf - cy) * inv_hh;
                let r = (nx * nx + ny * ny).sqrt();
                let w = vignette_weight(r, inner, outer);
                let mut v = 16.0 + (sample(col, row) - 16.0) * w;
                if amp > 0.0 && w > 0.0 {
                    v += amp * w * speckle(seed, t as u64, col as u32, row as u32);
                }
                *out = v.clamp(0.0, 255.0) as u8;
            }
        }
        y_plane
    }

    /// Renders frame `t` (display order). Pure function of `t`.
    ///
    /// Each luma sample is the canvas seen through the frame's view
    /// ([`MotionPattern::at`]), bilinearly interpolated, then vignetted
    /// and speckled. Two kinds of view take a shorter road to the same
    /// bits:
    ///
    /// - A view that neither rotates nor scales and shifts by whole
    ///   samples maps every output sample exactly onto a canvas sample,
    ///   where the blend's weights are all zero; such frames read the
    ///   canvas sample directly, which is the blend's value to the bit.
    /// - Any other unrotated view is separable to the bit: with the
    ///   angle at 0 the rotation's cross terms are ±0.0, so a sample's
    ///   canvas column depends on its output column only and its canvas
    ///   row on its output row only. Such frames compute each column's
    ///   and each row's clamped taps and fraction once, and every
    ///   sample is four loads and the blend a rotating view runs.
    pub fn render(&self, t: usize) -> Frame {
        let res = self.config.resolution;
        let view: ViewTransform = self.motion.at(t);
        let source = view.source_of(res.width as f64 / 2.0, res.height as f64 / 2.0);
        let margin = self.margin as f64;
        let y_plane = if let Some((tx, ty)) = view.whole_sample_shift() {
            let (ox, oy) = (self.margin as isize - tx, self.margin as isize - ty);
            self.render_luma(t, |col, row| {
                self.canvas
                    .get_clamped(col as isize + ox, row as isize + oy) as f64
            })
        } else if view.angle_rad == 0.0 {
            let cols: Vec<_> = (0..res.width)
                .map(|col| {
                    let sx = source(col as f64, 0.0).0;
                    axis_taps(sx + margin, self.canvas.width())
                })
                .collect();
            let rows: Vec<_> = (0..res.height)
                .map(|row| {
                    let sy = source(0.0, row as f64).1;
                    let (y0, y1, fy) = axis_taps(sy + margin, self.canvas.height());
                    (self.canvas.row(y0), self.canvas.row(y1), fy)
                })
                .collect();
            self.render_luma(t, |col, row| {
                let (x0, x1, fx) = cols[col];
                let (top, bot, fy) = rows[row];
                blend(top[x0], top[x1], bot[x0], bot[x1], fx, fy)
            })
        } else {
            self.render_luma(t, |col, row| {
                let (sx, sy) = source(col as f64, row as f64);
                self.sample_canvas(sx + margin, sy + margin)
            })
        };
        // Chroma: faint structure-correlated tint around neutral, so
        // chroma coding is exercised without dominating bitrate.
        let half = y_plane.halved();
        let mut u = Plane::new(res.width / 2, res.height / 2);
        let mut v = Plane::new(res.width / 2, res.height / 2);
        for row in 0..u.height() {
            for col in 0..u.width() {
                let luma = half.get(col, row) as i16;
                u.set(col, row, (124 + (luma - 16) / 24).clamp(0, 255) as u8);
                v.set(col, row, (130 - (luma - 16) / 32).clamp(0, 255) as u8);
            }
        }
        Frame::from_planes(y_plane, u, v).expect("derived chroma geometry is valid")
    }

    /// Materializes the first `n` frames (at most the video's length
    /// when it is finite) into a [`VideoClip`].
    ///
    /// Frames are rendered on the shared pool's executors
    /// ([`par_map`]), each by [`render`](Self::render), and pushed in
    /// display order, so the clip does not depend on how the frames
    /// were spread.
    pub fn capture(&self, n: usize) -> VideoClip {
        let mut clip = VideoClip::new(self.config.resolution, self.config.fps);
        let limit = match self.config.frames {
            Some(total) => n.min(total),
            None => n,
        };
        for frame in par_map(limit, |t| self.render(t)) {
            clip.push(frame);
        }
        clip
    }
}

impl FrameSource for PhantomVideo {
    fn resolution(&self) -> Resolution {
        self.config.resolution
    }

    fn fps(&self) -> f64 {
        self.config.fps
    }

    fn frame(&mut self, index: usize) -> Option<Frame> {
        match self.config.frames {
            Some(total) if index >= total => None,
            _ => Some(self.render(index)),
        }
    }
}

/// The taps of one axis of the bilinear blend at canvas coordinate `v`:
/// the sample indices below and above `v`, each clamped to `0..len`
/// (edge samples replicate), and the weight `v − ⌊v⌋` of the upper one.
#[inline]
fn axis_taps(v: f64, len: usize) -> (usize, usize, f64) {
    let v0 = v.floor();
    let i = v0 as isize;
    let last = len as isize - 1;
    (
        i.clamp(0, last) as usize,
        (i + 1).clamp(0, last) as usize,
        v - v0,
    )
}

/// The bilinear blend of the four taps around a canvas position: `sCR`
/// is column tap `C`, row tap `R`; `fx` and `fy` weigh the second taps.
#[inline]
fn blend(s00: u8, s10: u8, s01: u8, s11: u8, fx: f64, fy: f64) -> f64 {
    let (s00, s10, s01, s11) = (s00 as f64, s10 as f64, s01 as f64, s11 as f64);
    let top = s00 + (s10 - s00) * fx;
    let bot = s01 + (s11 - s01) * fx;
    top + (bot - top) * fy
}

/// Vignette weight: 1 inside `inner`, hermite falloff to 0 at `outer`.
fn vignette_weight(r: f64, inner: f64, outer: f64) -> f64 {
    if r <= inner {
        1.0
    } else if r >= outer {
        0.0
    } else {
        let t = (r - inner) / (outer - inner);
        1.0 - t * t * (3.0 - 2.0 * t)
    }
}

/// The reproduction stand-in for the paper's "10 different anonymized
/// bio-medical videos": ten deterministic phantom configurations that
/// span all six body-part classes with varied motion and texture.
///
/// All are 640x480 @ 24 fps, like the paper's material.
pub fn medical_suite(base_seed: u64) -> Vec<(String, PhantomConfig)> {
    let mk = |i: u64, part: BodyPart, motion: Option<MotionPattern>, gain: f64| PhantomConfig {
        body_part: part,
        seed: base_seed.wrapping_add(i * 7919),
        motion,
        texture_gain: gain,
        ..PhantomConfig::default()
    };
    vec![
        ("brain_rotate".into(), mk(0, BodyPart::Brain, None, 1.0)),
        (
            "brain_pan".into(),
            mk(
                1,
                BodyPart::Brain,
                Some(MotionPattern::Pan { dx: 0.8, dy: 0.0 }),
                1.1,
            ),
        ),
        ("bones_pan".into(), mk(2, BodyPart::Bones, None, 1.0)),
        (
            "bones_still".into(),
            mk(3, BodyPart::Bones, Some(MotionPattern::Still), 0.9),
        ),
        ("lung_breathe".into(), mk(4, BodyPart::LungChest, None, 1.0)),
        (
            "lung_pan".into(),
            mk(
                5,
                BodyPart::LungChest,
                Some(MotionPattern::Pan { dx: 0.0, dy: 1.2 }),
                1.2,
            ),
        ),
        (
            "spine_scroll".into(),
            mk(6, BodyPart::SpinalCord, None, 1.0),
        ),
        (
            "tendon_inspect".into(),
            mk(7, BodyPart::LigamentTendon, None, 1.0),
        ),
        ("cardiac_pulse".into(), mk(8, BodyPart::Cardiac, None, 1.1)),
        (
            "cardiac_rotate".into(),
            mk(
                9,
                BodyPart::Cardiac,
                Some(MotionPattern::Rotate { deg_per_frame: 0.6 }),
                0.9,
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RegionStats;
    use crate::{quality::plane_psnr, Rect};

    fn small(part: BodyPart) -> PhantomVideo {
        PhantomVideo::builder(part)
            .resolution(Resolution::new(96, 72))
            .seed(11)
            .build()
    }

    #[test]
    fn frames_are_deterministic() {
        let v = small(BodyPart::Brain);
        assert_eq!(v.render(5), v.render(5));
    }

    #[test]
    fn finite_video_ends() {
        let mut v = PhantomVideo::builder(BodyPart::Bones)
            .resolution(Resolution::new(64, 48))
            .frames(3)
            .build();
        assert!(v.frame(2).is_some());
        assert!(v.frame(3).is_none());
    }

    #[test]
    fn corners_stay_dark_and_static_under_motion() {
        let v = small(BodyPart::Brain); // rotating by default
        let f0 = v.render(0);
        let f10 = v.render(10);
        let corner = Rect::new(0, 0, 16, 12);
        let s0 = RegionStats::of(f0.y(), &corner);
        assert!(s0.mean < 40.0, "corner mean {}", s0.mean);
        // Corner changes only by speckle: tiny MSE.
        let mse = crate::quality::region_mse(f0.y(), f10.y(), &corner);
        assert!(mse < 16.0, "corner should be near-static, mse={mse}");
    }

    #[test]
    fn center_moves_when_panning() {
        let v = PhantomVideo::builder(BodyPart::Bones)
            .resolution(Resolution::new(96, 72))
            .motion(MotionPattern::Pan { dx: 2.0, dy: 0.0 })
            .noise_amplitude(0.0)
            .build();
        let f0 = v.render(0);
        let f5 = v.render(5);
        let center = Rect::new(32, 24, 32, 24);
        let mse = crate::quality::region_mse(f0.y(), f5.y(), &center);
        assert!(mse > 1.0, "panned center should change, mse={mse}");
    }

    #[test]
    fn still_video_with_no_noise_repeats_exactly() {
        let v = PhantomVideo::builder(BodyPart::Cardiac)
            .resolution(Resolution::new(64, 48))
            .motion(MotionPattern::Still)
            .noise_amplitude(0.0)
            .build();
        assert!(plane_psnr(v.render(0).y(), v.render(9).y()).is_infinite());
    }

    #[test]
    fn pan_shifts_content_by_integer_pixels() {
        let v = PhantomVideo::builder(BodyPart::Brain)
            .resolution(Resolution::new(96, 72))
            .motion(MotionPattern::Pan { dx: 1.0, dy: 0.0 })
            .noise_amplitude(0.0)
            .build();
        let f0 = v.render(0);
        let f2 = v.render(2);
        // Inside the vignette-flat region the content of f2 at x equals
        // f0 at x-2 (up to vignette weighting differences).
        let probe = Rect::new(44, 34, 8, 8);
        let mut max_err = 0i32;
        for (x, y) in probe.samples() {
            let a = f2.y().get(x, y) as i32;
            let b = f0.y().get(x - 2, y) as i32;
            max_err = max_err.max((a - b).abs());
        }
        assert!(max_err <= 6, "shifted content mismatch {max_err}");
    }

    #[test]
    fn unrotated_views_match_the_per_sample_transform() {
        let res = Resolution::new(96, 72);
        let views = [
            // Trough at frame 18 (scale 0.4) reads past the 24-sample
            // margin on all four sides.
            (
                BodyPart::Cardiac,
                MotionPattern::Breathe {
                    amplitude: 0.6,
                    period: 24.0,
                },
            ),
            (
                BodyPart::LungChest,
                MotionPattern::Pan {
                    dx: 0.37,
                    dy: -1.21,
                },
            ),
            (
                BodyPart::LigamentTendon,
                MotionPattern::PanPause {
                    dx: 0.5,
                    dy: 0.25,
                    move_frames: 3,
                    pause_frames: 2,
                },
            ),
        ];
        for (part, motion) in views {
            let v = PhantomVideo::builder(part)
                .resolution(res)
                .motion(motion)
                .build();
            let margin = v.margin as f64;
            for t in 0..24 {
                let source = v.motion.at(t).source_of(48.0, 36.0);
                let per_sample = v.render_luma(t, |col, row| {
                    let (sx, sy) = source(col as f64, row as f64);
                    v.sample_canvas(sx + margin, sy + margin)
                });
                assert_eq!(v.render(t).y(), &per_sample, "{motion:?} frame {t}");
            }
        }
    }

    #[test]
    fn capture_produces_clip() {
        let v = small(BodyPart::LungChest);
        let clip = v.capture(4);
        assert_eq!(clip.len(), 4);
        assert_eq!(clip.resolution(), Resolution::new(96, 72));
    }

    #[test]
    fn capture_respects_finite_length() {
        let v = PhantomVideo::builder(BodyPart::Brain)
            .resolution(Resolution::new(64, 48))
            .frames(2)
            .build();
        assert_eq!(v.capture(10).len(), 2);
    }

    #[test]
    fn medical_suite_has_ten_videos_across_classes() {
        let suite = medical_suite(1);
        assert_eq!(suite.len(), 10);
        let mut parts: Vec<_> = suite.iter().map(|(_, c)| c.body_part).collect();
        parts.sort_by_key(|p| p.label());
        parts.dedup();
        assert_eq!(parts.len(), 6, "all six classes represented");
        for (name, cfg) in &suite {
            assert!(!name.is_empty());
            assert_eq!(cfg.resolution, Resolution::VGA);
            assert_eq!(cfg.fps, 24.0);
        }
    }

    #[test]
    #[should_panic(expected = "vignette")]
    fn bad_vignette_rejected() {
        PhantomVideo::new(PhantomConfig {
            resolution: Resolution::new(64, 48),
            vignette_inner: 1.0,
            vignette_outer: 0.5,
            ..Default::default()
        });
    }

    #[test]
    fn chroma_planes_track_structure() {
        let v = small(BodyPart::Bones);
        let f = v.render(0);
        let su = RegionStats::of(f.u(), &f.u().bounds());
        // Chroma is near-neutral but not perfectly flat.
        assert!(su.mean > 118.0 && su.mean < 134.0);
        assert!(su.range() >= 1);
    }
}
