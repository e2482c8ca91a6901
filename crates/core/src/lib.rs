//! # medvt-core
//!
//! The complete content-aware transcoding framework of *"Online
//! Efficient Bio-Medical Video Transcoding on MPSoCs Through
//! Content-Aware Workload Allocation"* (Iranfar et al., DATE 2018) —
//! the paper's Fig. 2 pipeline assembled from the workspace substrates.
//!
//! * [`QpControlConfig`] — the band of Algorithm 1's per-tile QP
//!   adaptation (§III-C1), which [`ContentAwareController`] runs;
//! * [`ContentAwareController`] — the proposed pipeline: per-GOP
//!   motion/texture evaluation, content-aware re-tiling, per-tile
//!   QP + motion-search policy, LUT learning;
//! * [`Baseline19Controller`] — the comparison system of Khan et al.
//!   \[19\]: capacity-balanced one-tile-per-core tiling, uniform QP,
//!   default hexagon search, rail-frequency re-tiling trigger;
//! * [`profile_video`] / [`VideoProfile`] — one-pass workload/quality
//!   records of a transcoded video (the deterministic substitute for
//!   live multi-user runs);
//! * [`ServerSim`] — the multi-user serving simulation behind Table II
//!   (users served) and Fig. 4 (power savings at equal throughput).
//!   Live arrival traces replay through
//!   [`medvt_admission::serve_online`], the sharded admission-control
//!   subsystem, which serves [`VideoProfile`]s directly (they implement
//!   [`medvt_admission::Workload`]).
//!
//! # Examples
//!
//! Transcode a phantom clip with the full content-aware pipeline:
//!
//! ```
//! use medvt_core::{ContentAwareController, PipelineConfig};
//! use medvt_analyze::AnalyzerConfig;
//! use medvt_encoder::{EncoderConfig, VideoEncoder};
//! use medvt_frame::synth::{BodyPart, PhantomVideo};
//! use medvt_frame::Resolution;
//! use medvt_sched::WorkloadLut;
//!
//! let clip = PhantomVideo::builder(BodyPart::Brain)
//!     .resolution(Resolution::new(192, 144))
//!     .seed(5)
//!     .build()
//!     .capture(9);
//! let config = PipelineConfig {
//!     analyzer: AnalyzerConfig {
//!         min_tile_width: 32,
//!         min_tile_height: 32,
//!         ..Default::default()
//!     },
//!     ..Default::default()
//! };
//! let mut controller = ContentAwareController::new(config, WorkloadLut::new());
//! let stats = VideoEncoder::new(EncoderConfig::default()).encode_clip(&clip, &mut controller);
//! assert!(stats.mean_psnr() > 30.0);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

mod baseline19;
mod live;
mod pipeline;
mod profile;
mod qp_control;
mod server;

pub use baseline19::{Baseline19Controller, BaselineConfig};
pub use live::LiveWorkload;
pub use pipeline::{
    ContentAwareController, FrameReport, MePolicy, PipelineConfig, TileReport, TranscodeController,
    UniformMeController,
};
pub use profile::{profile_video, VideoProfile};
pub use qp_control::QpControlConfig;
pub use server::{Approach, ServerConfig, ServerReport, ServerSim, Stats3};
