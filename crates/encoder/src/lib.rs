//! # medvt-encoder
//!
//! An HEVC-like tile-based encoder substrate for the `medvt`
//! reproduction of *"Online Efficient Bio-Medical Video Transcoding on
//! MPSoCs Through Content-Aware Workload Allocation"* (Iranfar et al.,
//! DATE 2018).
//!
//! The paper implements its framework on top of the Kvazaar HEVC
//! encoder. This crate rebuilds the pieces the framework actually
//! exercises, from scratch:
//!
//! * DCT transform ([`transform`]), HEVC-law quantization ([`quant`])
//!   and a real bit-emitting entropy layer ([`bits`]) — so PSNR and
//!   bitrate in the experiments are *measured*, not modelled;
//! * intra prediction ([`IntraMode`]) and motion-compensated inter
//!   prediction; each tile runs the search its [`TileConfig`] names
//!   ([`SearchSpec`], re-exported from `medvt-motion`, where it is
//!   defined and run);
//! * independent tile encoding ([`encode_tile`]) and one frame path that
//!   fans each frame's tiles out over the host's cores ([`encode_frame`],
//!   through [`medvt_frame::par_map`]; a single tile or a single CPU
//!   runs them on the caller), bit-identical to the serial fold of its
//!   tiles; which core runs a served tile is the runtime's decision,
//!   not the codec's;
//! * [`FramePlan`] — a validated [`medvt_frame::Tiling`] plus one
//!   [`TileConfig`] per tile; the partition rules live in the tiling,
//!   so the codec never re-checks them;
//! * the Random Access GOP-8 structure ([`GopStructure`]) and a
//!   sequence driver ([`VideoEncoder`]) that delegates tiling and
//!   per-tile configuration to an [`EncodeController`] — the seam where
//!   the paper's content-aware pipeline plugs in;
//! * a deterministic CPU-cycle model ([`CostModel`]) standing in for
//!   the paper's wall-clock profiling.
//!
//! # Examples
//!
//! Encode a phantom clip with a uniform 2x2 tiling:
//!
//! ```
//! use medvt_encoder::{encode_uniform, EncoderConfig, Qp, TileConfig};
//! use medvt_frame::synth::{BodyPart, PhantomVideo};
//! use medvt_frame::Resolution;
//!
//! let clip = PhantomVideo::builder(BodyPart::Brain)
//!     .resolution(Resolution::new(96, 64))
//!     .seed(1)
//!     .build()
//!     .capture(9);
//! let stats = encode_uniform(
//!     &clip,
//!     2,
//!     2,
//!     TileConfig::with_qp(Qp::new(32).expect("valid QP")),
//!     EncoderConfig::default(),
//! );
//! assert_eq!(stats.frames.len(), 9);
//! assert!(stats.mean_psnr() > 30.0);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod bits;
mod block;
mod config;
mod cost_model;
mod frame_enc;
mod gop;
mod intra;
pub mod quant;
mod scratch;
mod segment;
mod stats;
mod tile;
pub mod transform;
mod video_enc;

pub use block::{
    code_residual, code_residual_into, reconstruct_block, CodedResidual, ResidualOutcome,
    ResidualScratch,
};
pub use config::{EncoderConfig, Qp, TileConfig};
pub use cost_model::CostModel;
pub use frame_enc::{encode_frame, EncodedFrame, FramePlan};
pub use gop::{GopEntry, GopStructure};
pub use intra::{IntraMode, IntraRefs};
pub use medvt_motion::SearchSpec;
pub use scratch::EncScratch;
pub use segment::{plan_segments, SegmentSpec};
pub use stats::{FrameStats, SequenceStats, TileStats};
pub use tile::{encode_tile, encode_tile_with_scratch, TileOutcome};
pub use transform::TxPath;
pub use video_enc::{
    encode_uniform, EncodeController, FramePlanContext, UniformController, VideoEncoder,
};
