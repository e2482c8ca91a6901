//! Live transcoding workloads: real encoder work flowing through the
//! online serving stack.
//!
//! Everything upstream of this module moves *costs*: profiles replay
//! per-tile f_max-second estimates and the backends price them
//! analytically. [`LiveWorkload`] closes the loop — it pairs a
//! [`VideoProfile`] (the analytical demand the admission controller
//! and Algorithm 2 reason about) with the rendered frames of the same
//! clip, and hands the serving runtime one closure per placed tile
//! thread that **re-encodes that tile for real** on whichever pool
//! executor (the serving thread or a worker) claims it.
//!
//! Invariants this adapter is built around:
//!
//! * **Decisions stay analytical.** `work_for` only adds physical
//!   execution; admission, eviction, placement and every reported
//!   statistic still read the cost model, so a live run on
//!   `ThreadPoolBackend` shards replays the *identical*
//!   admission/eviction stream as a cost-only run on `SimBackend`
//!   shards (verified by `tests/live_transcode.rs`).
//! * **Determinism.** Tiles encode open-loop — inter frames predict
//!   from the previous *original* frame, not the reconstruction — so
//!   every (frame, tile) encode is independent of scheduling order and
//!   byte-identical to calling [`medvt_encoder::encode_tile`] directly
//!   with the same arguments, no matter which executor runs it or what
//!   `EncScratch` state that thread carries from earlier tiles.
//! * **Scratch reuse.** The closures run [`medvt_encoder::encode_tile`],
//!   which draws its per-block buffers from the executing thread's
//!   persistent thread-local [`medvt_encoder::EncScratch`]; steady-state
//!   live serving allocates only per-tile outputs.

use crate::profile::VideoProfile;
use medvt_admission::Workload;
use medvt_encoder::{encode_tile, EncoderConfig, TileConfig, TileOutcome};
use medvt_frame::{Frame, FrameKind, VideoClip};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Captured bitstreams keyed by (frame index, tile thread).
type CaptureSink = Mutex<BTreeMap<(usize, usize), Vec<u8>>>;

/// A [`VideoProfile`] paired with its rendered frames: an admissible
/// online workload whose tile threads carry real encoding work.
///
/// The profile supplies the analytical demand (what the LUT would
/// report to Algorithm 2); the frames supply the pixels. Frame `i` of
/// the clip must be the frame `profile.frames[i]` was measured on, so
/// the modeled cost and the physical work describe the same tile.
#[derive(Debug)]
pub struct LiveWorkload {
    profile: VideoProfile,
    /// Shares the caller's pictures ([`VideoClip`] clones are O(1)).
    clip: VideoClip,
    tile_cfg: TileConfig,
    enc_cfg: EncoderConfig,
    /// When capturing, every encoded tile's bitstream keyed by
    /// (frame index, thread) — wrapping slots that revisit a frame
    /// land on the same entry, which is harmless because identical
    /// (frame, tile) pairs produce identical bytes. Used for
    /// bit-identity checks against direct encoding.
    sink: Option<CaptureSink>,
}

impl LiveWorkload {
    /// Pairs `profile` with the rendered frames of `clip`.
    ///
    /// # Panics
    ///
    /// Panics when the clip is empty or its frame count differs from
    /// the profile's (the demand would describe different pictures
    /// than the work encodes).
    pub fn new(
        profile: VideoProfile,
        clip: &VideoClip,
        tile_cfg: TileConfig,
        enc_cfg: EncoderConfig,
    ) -> Self {
        assert!(!clip.is_empty(), "live workload needs at least one frame");
        assert_eq!(
            profile.frames.len(),
            clip.len(),
            "profile and clip must describe the same frames"
        );
        Self {
            profile,
            clip: clip.clone(),
            tile_cfg,
            enc_cfg,
            sink: None,
        }
    }

    /// Enables bitstream capture: every tile encoded through
    /// [`Workload::work_for`] records its bytes for later comparison
    /// via [`LiveWorkload::captured`].
    pub fn with_capture(mut self) -> Self {
        self.sink = Some(Mutex::new(BTreeMap::new()));
        self
    }

    /// The analytical profile this workload replays.
    pub fn profile(&self) -> &VideoProfile {
        &self.profile
    }

    /// Number of distinct frames (slots wrap around this).
    pub fn frame_count(&self) -> usize {
        self.clip.len()
    }

    /// Frame index shown at `slot` (endless streaming wraps).
    fn frame_index(&self, slot: usize) -> usize {
        slot % self.clip.len()
    }

    /// Encodes tile `thread` of the frame shown at `slot` on the
    /// calling thread — exactly the work a pool executor performs for
    /// the same (slot, thread), and therefore byte-identical to it.
    /// `None` when the frame has no such tile.
    pub fn encode_direct(&self, slot: usize, thread: usize) -> Option<TileOutcome> {
        let idx = self.frame_index(slot);
        let report = &self.profile.frames[idx];
        let tile = report.tiles.get(thread)?;
        // Open-loop transcode: the first frame of the clip (and any
        // frame the profile marks intra) codes without references;
        // other frames predict from the previous original frame.
        let frames = self.clip.frames();
        let previous = idx
            .checked_sub(1)
            .filter(|_| report.kind != 'I')
            .map(|p| &frames[p]);
        let (kind, refs): (FrameKind, &[&Frame]) = match &previous {
            Some(reference) => (FrameKind::Predicted, std::slice::from_ref(reference)),
            None => (FrameKind::Intra, &[]),
        };
        Some(encode_tile(
            &frames[idx],
            refs,
            kind,
            tile.rect,
            &self.tile_cfg,
            &self.enc_cfg,
        ))
    }

    /// The captured bitstream of (slot, thread), when capture is on
    /// and the tile was encoded through the serving loop.
    pub fn captured(&self, slot: usize, thread: usize) -> Option<Vec<u8>> {
        self.sink
            .as_ref()?
            .lock()
            .expect("capture sink")
            .get(&(self.frame_index(slot), thread))
            .cloned()
    }

    /// Number of tiles captured so far (0 without capture).
    pub fn captured_tiles(&self) -> usize {
        self.sink
            .as_ref()
            .map_or(0, |s| s.lock().expect("capture sink").len())
    }
}

impl Workload for LiveWorkload {
    fn steady_demand(&self) -> Vec<f64> {
        self.profile.steady_demand()
    }

    fn demand_at(&self, slot: usize) -> Vec<f64> {
        self.profile.demand_at(slot)
    }

    fn work_for(&self, slot: usize, thread: usize) -> Option<Box<dyn FnOnce() + Send + '_>> {
        let idx = self.frame_index(slot);
        self.profile.frames[idx].tiles.get(thread)?;
        Some(Box::new(move || {
            let outcome = self
                .encode_direct(slot, thread)
                .expect("tile existence checked before boxing");
            if let Some(sink) = &self.sink {
                sink.lock()
                    .expect("capture sink")
                    .insert((idx, thread), outcome.bytes);
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{ContentAwareController, PipelineConfig};
    use crate::profile::profile_video;
    use medvt_analyze::AnalyzerConfig;
    use medvt_frame::synth::{BodyPart, MotionPattern, PhantomVideo};
    use medvt_frame::Resolution;
    use medvt_sched::WorkloadLut;

    fn clip() -> VideoClip {
        PhantomVideo::builder(BodyPart::Brain)
            .resolution(Resolution::new(128, 96))
            .motion(MotionPattern::Pan { dx: 1.0, dy: 0.0 })
            .seed(11)
            .build()
            .capture(9)
    }

    fn live() -> LiveWorkload {
        let clip = clip();
        let cfg = PipelineConfig {
            analyzer: AnalyzerConfig {
                min_tile_width: 32,
                min_tile_height: 32,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut ctl = ContentAwareController::new(cfg, WorkloadLut::new());
        let profile = profile_video(
            "live",
            "brain",
            &clip,
            &mut ctl,
            &EncoderConfig::default(),
            false,
        );
        LiveWorkload::new(
            profile,
            &clip,
            TileConfig::default(),
            EncoderConfig::default(),
        )
    }

    #[test]
    fn demand_matches_profile_and_work_exists_per_tile() {
        let w = live();
        for slot in [0usize, 3, 8, 9, 20] {
            let demand = w.demand_at(slot);
            assert_eq!(demand, w.profile().demand_at(slot));
            for thread in 0..demand.len() {
                assert!(
                    w.work_for(slot, thread).is_some(),
                    "every profiled tile carries work (slot {slot} thread {thread})"
                );
            }
            assert!(w.work_for(slot, demand.len()).is_none());
        }
    }

    #[test]
    fn captured_bytes_match_direct_encode() {
        let w = live().with_capture();
        for slot in [0usize, 4] {
            for thread in 0..w.demand_at(slot).len() {
                w.work_for(slot, thread).expect("work")();
                let captured = w.captured(slot, thread).expect("captured");
                let direct = w.encode_direct(slot, thread).expect("direct").bytes;
                assert_eq!(captured, direct, "slot {slot} thread {thread}");
            }
        }
        assert!(w.captured_tiles() > 0);
    }

    #[test]
    fn slots_wrap_to_the_same_frame() {
        let w = live().with_capture();
        let n = w.frame_count();
        w.work_for(2, 0).expect("work")();
        let first = w.captured(2, 0).expect("captured");
        w.work_for(2 + n, 0).expect("work")();
        let wrapped = w.captured(2 + n, 0).expect("captured");
        assert_eq!(first, wrapped, "slot {} revisits frame 2", 2 + n);
    }

    #[test]
    #[should_panic(expected = "same frames")]
    fn frame_count_mismatch_rejected() {
        let clip = clip();
        let short =
            VideoClip::from_frames(clip.resolution(), clip.fps(), clip.frames()[..4].to_vec());
        let w = live();
        let profile = w.profile().clone();
        LiveWorkload::new(
            profile,
            &short,
            TileConfig::default(),
            EncoderConfig::default(),
        );
    }
}
