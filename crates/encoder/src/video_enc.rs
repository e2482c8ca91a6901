//! Sequence encoding: drives the Random Access GOP loop over a clip,
//! delegating tiling and per-tile configuration decisions to an
//! [`EncodeController`].
//!
//! The controller abstraction is the seam between this substrate and
//! the paper's contribution: the content-aware pipeline (re-tiling, QP
//! adaptation, ME policy, workload feedback) is *a controller*; so are
//! the uniform-tiling reference configurations of Table I and the
//! capacity-balanced baseline \[19\].

use crate::config::{EncoderConfig, TileConfig};
use crate::frame_enc::{encode_frame, EncodedFrame, FramePlan};
use crate::gop::GopStructure;
use crate::stats::{FrameStats, SequenceStats};
use medvt_frame::{Frame, FrameKind, VideoClip};
use medvt_motion::MotionVector;
use std::collections::HashMap;

/// Context handed to the controller when planning a frame.
#[derive(Debug)]
pub struct FramePlanContext<'a> {
    /// Display-order index of the frame.
    pub poc: usize,
    /// Frame kind (I/P/B).
    pub kind: FrameKind,
    /// POC of the anchor that opens this GOP (`poc` of display offset 0).
    pub gop_start: usize,
    /// Display offset within the GOP (1..=gop size; 0 only for the very
    /// first frame of the sequence).
    pub offset_in_gop: usize,
    /// `true` when this is the first *coded* frame of its GOP — where
    /// the paper performs re-tiling and direction discovery.
    pub gop_first_coded: bool,
    /// The original frame to encode.
    pub frame: &'a Frame,
    /// The most recent reconstructed anchor, if any (content analysis
    /// of motion compares against this).
    pub prev_anchor: Option<&'a Frame>,
}

/// Decides tiling and per-tile configuration for every frame, and
/// observes results for feedback.
pub trait EncodeController {
    /// Produces the tiling and per-tile configs for the frame.
    fn plan(&mut self, ctx: &FramePlanContext<'_>) -> FramePlan;

    /// Observes the outcome of an encoded frame (statistics and the
    /// per-tile dominant motion vectors). Default: ignore.
    fn frame_done(&mut self, _poc: usize, _stats: &FrameStats, _dominant_mvs: &[MotionVector]) {}
}

/// The simplest controller: a fixed uniform grid and one configuration
/// for every tile of every frame — the reference setup of Table I.
#[derive(Debug, Clone, Copy)]
pub struct UniformController {
    /// Grid columns.
    pub cols: usize,
    /// Grid rows.
    pub rows: usize,
    /// Configuration applied to every tile.
    pub config: TileConfig,
}

impl UniformController {
    /// Creates a uniform controller.
    pub fn new(cols: usize, rows: usize, config: TileConfig) -> Self {
        Self { cols, rows, config }
    }
}

impl EncodeController for UniformController {
    fn plan(&mut self, ctx: &FramePlanContext<'_>) -> FramePlan {
        FramePlan::uniform(ctx.frame.y().bounds(), self.cols, self.rows, self.config)
    }
}

/// Drives GOP-structured encoding of whole sequences; each frame's
/// tiles are spread over the host's cores by [`encode_frame`].
#[derive(Debug, Clone)]
pub struct VideoEncoder {
    config: EncoderConfig,
}

impl VideoEncoder {
    /// Creates an encoder with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (see
    /// [`EncoderConfig::validate`]).
    pub fn new(config: EncoderConfig) -> Self {
        config.validate().expect("invalid encoder configuration");
        Self { config }
    }

    /// The encoder configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Encodes `clip` under `controller`, returning per-frame stats.
    ///
    /// Frames are processed in GOP coding order; statistics come back
    /// in display order. Each frame's tiles are encoded over the host's
    /// cores ([`encode_frame`]); the stream does not depend on how they
    /// were spread.
    pub fn encode_clip(
        &self,
        clip: &VideoClip,
        controller: &mut dyn EncodeController,
    ) -> SequenceStats {
        let n = clip.len();
        let mut per_frame: Vec<Option<FrameStats>> = vec![None; n];
        if n == 0 {
            return SequenceStats {
                frames: vec![],
                fps: clip.fps(),
            };
        }
        let gop = GopStructure::random_access(self.config.gop_size);
        let mut dpb: HashMap<usize, Frame> = HashMap::new();

        // Frame 0: IDR.
        let first = clip.get(0).expect("n > 0");
        let encoded = self.encode_one(
            controller,
            first,
            &[],
            FrameKind::Intra,
            0,
            0,
            0,
            true,
            None,
        );
        per_frame[0] = Some(encoded.stats.clone());
        controller.frame_done(0, &encoded.stats, &encoded.dominant_mvs);
        dpb.insert(0, encoded.recon);

        let gop_size = self.config.gop_size;
        let mut gop_start = 0usize;
        let mut gop_index = 0usize;
        while gop_start + 1 < n {
            gop_index += 1;
            let anchor_poc = gop_start + gop_size;
            if anchor_poc < n {
                // Full GOP. The anchor is Intra on the intra period.
                for (i, entry) in gop.entries().iter().enumerate() {
                    let poc = gop_start + entry.offset;
                    let kind = if entry.offset == gop_size
                        && gop_index.is_multiple_of(self.config.intra_period_gops)
                    {
                        FrameKind::Intra
                    } else {
                        entry.kind
                    };
                    let frame = clip.get(poc).expect("poc inside clip");
                    let ref_pocs: Vec<usize> = if kind == FrameKind::Intra {
                        vec![]
                    } else {
                        entry.ref_offsets.iter().map(|&o| gop_start + o).collect()
                    };
                    let refs: Vec<&Frame> = ref_pocs
                        .iter()
                        .map(|p| dpb.get(p).expect("reference coded before use"))
                        .collect();
                    let prev_anchor = dpb.get(&gop_start);
                    let encoded = self.encode_one(
                        controller,
                        frame,
                        &refs,
                        kind,
                        poc,
                        gop_start,
                        entry.offset,
                        i == 0,
                        prev_anchor,
                    );
                    per_frame[poc] = Some(encoded.stats.clone());
                    controller.frame_done(poc, &encoded.stats, &encoded.dominant_mvs);
                    dpb.insert(poc, encoded.recon);
                }
                // Keep only the new anchor for the next GOP.
                dpb.retain(|&poc, _| poc == anchor_poc);
                gop_start = anchor_poc;
            } else {
                // Trailing partial GOP: low-delay P chain. (`poc` is
                // the display index, not just a vector position.)
                #[allow(clippy::needless_range_loop)]
                for poc in gop_start + 1..n {
                    let frame = clip.get(poc).expect("poc inside clip");
                    let ref_poc = poc - 1;
                    let reference = dpb.get(&ref_poc).expect("previous frame retained");
                    let refs = vec![reference];
                    let encoded = self.encode_one(
                        controller,
                        frame,
                        &refs,
                        FrameKind::Predicted,
                        poc,
                        gop_start,
                        poc - gop_start,
                        poc == gop_start + 1,
                        dpb.get(&gop_start),
                    );
                    per_frame[poc] = Some(encoded.stats.clone());
                    controller.frame_done(poc, &encoded.stats, &encoded.dominant_mvs);
                    dpb.insert(poc, encoded.recon);
                }
                break;
            }
        }

        SequenceStats {
            frames: per_frame
                .into_iter()
                .map(|f| f.expect("every frame encoded"))
                .collect(),
            fps: clip.fps(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn encode_one(
        &self,
        controller: &mut dyn EncodeController,
        frame: &Frame,
        refs: &[&Frame],
        kind: FrameKind,
        poc: usize,
        gop_start: usize,
        offset_in_gop: usize,
        gop_first_coded: bool,
        prev_anchor: Option<&Frame>,
    ) -> EncodedFrame {
        let ctx = FramePlanContext {
            poc,
            kind,
            gop_start,
            offset_in_gop,
            gop_first_coded,
            frame,
            prev_anchor,
        };
        let plan = controller.plan(&ctx);
        encode_frame(frame, refs, kind, poc, &plan, &self.config)
    }
}

/// Convenience: encode a clip with a uniform grid and one tile config.
pub fn encode_uniform(
    clip: &VideoClip,
    cols: usize,
    rows: usize,
    tile_config: TileConfig,
    encoder_config: EncoderConfig,
) -> SequenceStats {
    let mut controller = UniformController::new(cols, rows, tile_config);
    VideoEncoder::new(encoder_config).encode_clip(clip, &mut controller)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Qp;
    use medvt_frame::synth::{BodyPart, MotionPattern, PhantomVideo};
    use medvt_frame::Resolution;
    use medvt_motion::SearchSpec;

    fn clip(frames: usize) -> VideoClip {
        PhantomVideo::builder(BodyPart::Brain)
            .resolution(Resolution::new(96, 64))
            .motion(MotionPattern::Pan { dx: 0.5, dy: 0.0 })
            .seed(9)
            .build()
            .capture(frames)
    }

    fn tcfg(qp: u8) -> TileConfig {
        TileConfig {
            qp: Qp::new(qp).unwrap(),
            search: SearchSpec::Diamond,
            window: medvt_motion::SearchWindow::W16,
        }
    }

    #[test]
    fn encodes_full_gops_plus_tail() {
        let clip = clip(19); // 1 IDR + 2 GOPs of 8 + 2 trailing
        let stats = encode_uniform(&clip, 2, 1, tcfg(32), EncoderConfig::default());
        assert_eq!(stats.frames.len(), 19);
        // Every frame has stats for both tiles.
        assert!(stats.frames.iter().all(|f| f.tiles.len() == 2));
        // Display order preserved.
        for (i, f) in stats.frames.iter().enumerate() {
            assert_eq!(f.poc, i);
        }
        assert!(stats.mean_psnr() > 30.0);
        assert!(stats.bitrate_bps() > 0.0);
    }

    #[test]
    fn short_clip_without_full_gop() {
        let clip = clip(5);
        let stats = encode_uniform(&clip, 1, 1, tcfg(32), EncoderConfig::default());
        assert_eq!(stats.frames.len(), 5);
    }

    #[test]
    fn single_frame_clip() {
        let clip = clip(1);
        let stats = encode_uniform(&clip, 1, 1, tcfg(27), EncoderConfig::default());
        assert_eq!(stats.frames.len(), 1);
        assert!(stats.frames[0].tiles[0].intra_blocks > 0);
    }

    #[test]
    fn inter_frames_cost_fewer_bits_than_intra() {
        let clip = clip(9);
        let stats = encode_uniform(&clip, 1, 1, tcfg(32), EncoderConfig::default());
        let idr_bits = stats.frames[0].bits();
        let b_bits: u64 = stats.frames[1..8].iter().map(|f| f.bits()).sum::<u64>() / 7;
        assert!(
            b_bits < idr_bits,
            "B frames {b_bits} should undercut IDR {idr_bits}"
        );
    }

    #[test]
    fn intra_period_forces_idr_anchors() {
        let clip = clip(17); // anchors at 8 and 16
        let cfg = EncoderConfig {
            intra_period_gops: 1, // every anchor is Intra
            ..Default::default()
        };
        let stats = encode_uniform(&clip, 1, 1, tcfg(32), cfg);
        // Anchor frames coded intra ⇒ zero inter blocks.
        assert_eq!(stats.frames[8].total().inter_blocks, 0);
        assert_eq!(stats.frames[16].total().inter_blocks, 0);
        // Mid-GOP B frames do use inter.
        assert!(stats.frames[4].total().inter_blocks > 0);
    }

    #[test]
    fn controller_sees_gop_phases() {
        #[derive(Default)]
        struct Probe {
            first_coded: Vec<usize>,
            done: Vec<usize>,
        }
        impl EncodeController for Probe {
            fn plan(&mut self, ctx: &FramePlanContext<'_>) -> FramePlan {
                if ctx.gop_first_coded {
                    self.first_coded.push(ctx.poc);
                }
                FramePlan::uniform(ctx.frame.y().bounds(), 1, 1, tcfg(32))
            }
            fn frame_done(&mut self, poc: usize, _stats: &FrameStats, _mvs: &[MotionVector]) {
                self.done.push(poc);
            }
        }
        let clip = clip(17);
        let mut probe = Probe::default();
        VideoEncoder::new(EncoderConfig::default()).encode_clip(&clip, &mut probe);
        // GOP-first coded frames: IDR 0, anchors 8 and 16.
        assert_eq!(probe.first_coded, vec![0, 8, 16]);
        assert_eq!(probe.done.len(), 17);
    }

    #[test]
    fn empty_clip_is_empty_stats() {
        let empty = VideoClip::new(Resolution::new(96, 64), 24.0);
        let stats = encode_uniform(&empty, 1, 1, tcfg(32), EncoderConfig::default());
        assert!(stats.frames.is_empty());
    }
}
