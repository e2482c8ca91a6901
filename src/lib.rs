//! # medvt — content-aware bio-medical video transcoding on MPSoCs
//!
//! A from-scratch Rust reproduction of *"Online Efficient Bio-Medical
//! Video Transcoding on MPSoCs Through Content-Aware Workload
//! Allocation"* (Iranfar, Pahlevan, Zapater, Žagar, Kovač, Atienza —
//! DATE 2018).
//!
//! This facade crate re-exports the workspace's subsystems:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`frame`] | `medvt-frame` | YUV frames, validated tilings, phantom bio-medical video generation, PSNR/SSIM, Y4M/PNM I/O |
//! | [`motion`] | `medvt-motion` | block-matching searches incl. the paper's bio-medical policy |
//! | [`encoder`] | `medvt-encoder` | HEVC-like tile encoder: DCT, quantization, entropy bits, GOP-8 RA |
//! | [`analyze`] | `medvt-analyze` | texture/motion classification, content-aware re-tiling, baseline tiler |
//! | [`mpsoc`] | `medvt-mpsoc` | 32-core Xeon platform model, DVFS, power/energy |
//! | [`sched`] | `medvt-sched` | workload LUT, Algorithm 2 allocator |
//! | [`runtime`] | `medvt-runtime` | placement-aware execution: work-conserving worker pool, sim/thread-pool backends, server loop |
//! | [`telemetry`] | `medvt-telemetry` | flight-recorder observability: typed events, lock-free rings, counters/histograms, trace export |
//! | [`admission`] | `medvt-admission` | live admission control: request queue, least-utilized sharding, GOP-boundary admit/evict |
//! | [`core`] | `medvt-core` | the full pipeline, baseline \[19\], multi-user server (batch, online, live) on either backend |
//! | [`cluster`] | `medvt-cluster` | coordinator/worker cluster serving: segment leasing, fault-tolerant reassembly, heterogeneous fleets |
//!
//! # Examples
//!
//! ```
//! use medvt::core::{ContentAwareController, PipelineConfig};
//! use medvt::encoder::{EncoderConfig, VideoEncoder};
//! use medvt::frame::synth::{BodyPart, PhantomVideo};
//! use medvt::frame::Resolution;
//! use medvt::sched::WorkloadLut;
//!
//! let clip = PhantomVideo::builder(BodyPart::Cardiac)
//!     .resolution(Resolution::new(128, 96))
//!     .seed(3)
//!     .build()
//!     .capture(9);
//! let mut controller = ContentAwareController::new(
//!     PipelineConfig {
//!         analyzer: medvt::analyze::AnalyzerConfig {
//!             min_tile_width: 32,
//!             min_tile_height: 32,
//!             ..Default::default()
//!         },
//!         ..Default::default()
//!     },
//!     WorkloadLut::new(),
//! );
//! let stats = VideoEncoder::new(EncoderConfig::default()).encode_clip(&clip, &mut controller);
//! assert!(stats.mean_psnr() > 28.0);
//! ```

#![warn(missing_docs)]

pub use medvt_admission as admission;
pub use medvt_analyze as analyze;
pub use medvt_cluster as cluster;
pub use medvt_core as core;
pub use medvt_encoder as encoder;
pub use medvt_frame as frame;
pub use medvt_motion as motion;
pub use medvt_mpsoc as mpsoc;
pub use medvt_runtime as runtime;
pub use medvt_sched as sched;
pub use medvt_telemetry as telemetry;
