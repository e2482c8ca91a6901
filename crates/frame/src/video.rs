//! Video sequences and frame sources.

use crate::{Frame, Resolution};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A source of video frames with fixed resolution and frame rate.
///
/// Both stored clips ([`VideoClip`]) and procedural generators
/// (`medvt_frame::synth::PhantomVideo`) implement this, so the
/// transcoding pipeline is agnostic to where pictures come from.
pub trait FrameSource {
    /// Resolution of every frame produced.
    fn resolution(&self) -> Resolution;

    /// Nominal frames per second.
    fn fps(&self) -> f64;

    /// Produces frame number `index` (display order), or `None` past the
    /// end of finite sources.
    fn frame(&mut self, index: usize) -> Option<Frame>;
}

/// An in-memory video clip: decoded master material ready to transcode.
///
/// The frames sit behind an [`Arc`], so cloning a clip shares its
/// pictures instead of copying them (a consumer such as a live
/// workload holds the clip next to the caller's own handle at no
/// memory cost); [`VideoClip::push`] on a shared clip copies the
/// frames first, leaving the other handles untouched.
///
/// # Examples
///
/// ```
/// use medvt_frame::{Frame, FrameSource, Resolution, VideoClip};
///
/// let res = Resolution::new(32, 32);
/// let mut clip = VideoClip::new(res, 24.0);
/// clip.push(Frame::black(res));
/// clip.push(Frame::flat(res, 200));
/// assert_eq!(clip.len(), 2);
/// assert_eq!(clip.frame(1).unwrap().y().get(0, 0), 200);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VideoClip {
    resolution: Resolution,
    fps: f64,
    frames: Arc<Vec<Frame>>,
}

impl VideoClip {
    /// Creates an empty clip.
    ///
    /// # Panics
    ///
    /// Panics when `fps` is not strictly positive and finite.
    pub fn new(resolution: Resolution, fps: f64) -> Self {
        assert!(fps.is_finite() && fps > 0.0, "fps must be positive");
        Self {
            resolution,
            fps,
            frames: Arc::default(),
        }
    }

    /// Creates a clip from pre-built frames.
    ///
    /// # Panics
    ///
    /// Panics when `fps` is invalid or any frame's resolution differs
    /// from `resolution`.
    pub fn from_frames(resolution: Resolution, fps: f64, frames: Vec<Frame>) -> Self {
        let mut clip = Self::new(resolution, fps);
        for f in frames {
            clip.push(f);
        }
        clip
    }

    /// Appends a frame.
    ///
    /// # Panics
    ///
    /// Panics when the frame resolution does not match the clip.
    pub fn push(&mut self, frame: Frame) {
        assert_eq!(
            frame.resolution(),
            self.resolution,
            "frame resolution mismatch"
        );
        Arc::make_mut(&mut self.frames).push(frame);
    }

    /// Clip resolution.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Nominal frames per second.
    pub fn fps(&self) -> f64 {
        self.fps
    }

    /// Number of frames stored.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` when the clip holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Clip duration in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.frames.len() as f64 / self.fps
    }

    /// Borrows frame `index` if present.
    pub fn get(&self, index: usize) -> Option<&Frame> {
        self.frames.get(index)
    }

    /// Borrows all frames.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Iterates over the frames.
    pub fn iter(&self) -> std::slice::Iter<'_, Frame> {
        self.frames.iter()
    }

    /// Collects the first `n` frames of any [`FrameSource`] into a clip.
    ///
    /// Useful for materializing a deterministic phantom video once and
    /// feeding it to several encoders under comparison.
    pub fn capture<S: FrameSource>(source: &mut S, n: usize) -> Self {
        let mut clip = Self::new(source.resolution(), source.fps());
        for i in 0..n {
            match source.frame(i) {
                Some(f) => clip.push(f),
                None => break,
            }
        }
        clip
    }
}

impl FrameSource for VideoClip {
    fn resolution(&self) -> Resolution {
        self.resolution
    }

    fn fps(&self) -> f64 {
        self.fps
    }

    fn frame(&mut self, index: usize) -> Option<Frame> {
        self.frames.get(index).cloned()
    }
}

impl<'a> IntoIterator for &'a VideoClip {
    type Item = &'a Frame;
    type IntoIter = std::slice::Iter<'a, Frame>;

    fn into_iter(self) -> Self::IntoIter {
        self.frames.iter()
    }
}

impl Extend<Frame> for VideoClip {
    fn extend<T: IntoIterator<Item = Frame>>(&mut self, iter: T) {
        for f in iter {
            self.push(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res() -> Resolution {
        Resolution::new(16, 16)
    }

    #[test]
    fn push_and_duration() {
        let mut clip = VideoClip::new(res(), 24.0);
        assert!(clip.is_empty());
        for _ in 0..48 {
            clip.push(Frame::black(res()));
        }
        assert_eq!(clip.len(), 48);
        assert!((clip.duration_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "resolution mismatch")]
    fn push_rejects_wrong_resolution() {
        let mut clip = VideoClip::new(res(), 24.0);
        clip.push(Frame::black(Resolution::new(32, 32)));
    }

    #[test]
    #[should_panic(expected = "fps")]
    fn zero_fps_rejected() {
        VideoClip::new(res(), 0.0);
    }

    #[test]
    fn frame_source_impl() {
        let mut clip = VideoClip::from_frames(
            res(),
            24.0,
            vec![Frame::flat(res(), 1), Frame::flat(res(), 2)],
        );
        assert_eq!(clip.frame(0).unwrap().y().get(0, 0), 1);
        assert_eq!(clip.frame(1).unwrap().y().get(0, 0), 2);
        assert!(clip.frame(2).is_none());
    }

    #[test]
    fn capture_copies_frames() {
        let mut src = VideoClip::from_frames(
            res(),
            24.0,
            vec![
                Frame::flat(res(), 5),
                Frame::flat(res(), 6),
                Frame::flat(res(), 7),
            ],
        );
        let clip = VideoClip::capture(&mut src, 2);
        assert_eq!(clip.len(), 2);
        assert_eq!(clip.get(1).unwrap().y().get(0, 0), 6);
        // Capturing more than available stops early.
        let all = VideoClip::capture(&mut src, 10);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn clones_share_frames_until_one_is_pushed_to() {
        let mut clip = VideoClip::from_frames(res(), 24.0, vec![Frame::flat(res(), 1); 3]);
        let shared = clip.clone();
        assert!(
            std::ptr::eq(clip.frames(), shared.frames()),
            "a clone must not copy the pictures"
        );
        clip.push(Frame::flat(res(), 9));
        assert_eq!((clip.len(), shared.len()), (4, 3));
        assert_eq!(clip.frames()[..3], *shared.frames());
    }

    #[test]
    fn frames_serialize_as_a_plain_array() {
        let clip = VideoClip::from_frames(res(), 24.0, vec![Frame::black(res()); 2]);
        let json = serde_json::to_string(&clip).expect("clip serializes");
        let frame = serde_json::to_string(&clip.frames()[0]).expect("frame serializes");
        assert!(
            json.ends_with(&format!("\"frames\":[{frame},{frame}]}}")),
            "the shared pointer must not show in the serialized shape"
        );
    }

    #[test]
    fn extend_and_iter() {
        let mut clip = VideoClip::new(res(), 24.0);
        clip.extend(vec![Frame::black(res()); 3]);
        assert_eq!(clip.iter().count(), 3);
        assert_eq!((&clip).into_iter().count(), 3);
    }
}
