//! # medvt-runtime
//!
//! The placement-aware execution runtime for the `medvt` reproduction
//! of *"Online Efficient Bio-Medical Video Transcoding on MPSoCs
//! Through Content-Aware Workload Allocation"* (Iranfar et al., DATE
//! 2018).
//!
//! The paper's Algorithm 2 decides *which core runs which tile
//! thread*. Before this crate existed the codebase ignored its own
//! placements at execution time: the encoder spawned one unpinned
//! thread per tile per frame, and the server only *simulated* slot
//! timing. This crate closes that gap with one executor abstraction
//! serving both worlds:
//!
//! * [`ExecutionBackend`] — the slot-execution trait;
//! * [`SimBackend`] — the analytical slot model (extracted from
//!   `core::server`/`mpsoc::simulate_slot`), pricing work units
//!   without running them;
//! * [`ThreadPoolBackend`] — runs real work units on a pool of
//!   persistent per-core worker threads (FIFO queues, scoped
//!   borrow-friendly submission), honouring `sched::place_threads` assignments, with the *same*
//!   analytical accounting (also an `encoder::TileExecutor`, so
//!   `VideoEncoder::encode_clip_with` transparently encodes on it);
//! * [`LoopDriver`] — the backend-generic multi-user frame-slot loop:
//!   run to completion by `core::ServerSim` ([`LoopDriver::run`]), or
//!   stepped GOP by GOP with per-user accounting and membership deltas
//!   as the per-socket shard loop under `medvt-admission`'s online
//!   serving and each `medvt-cluster` worker.
//!
//! # Mapping to the paper's Algorithm 2
//!
//! | Algorithm 2 lines | concept | here |
//! |---|---|---|
//! | 1–2 | per-user core demand, ascending-demand admission | `sched::allocate` (unchanged), driven by `core::ServerSim` |
//! | 3–15 | cap-seeking thread→core placement | the speed-aware `sched::place_threads_on` over [`ExecutionBackend::core_speeds`], re-run by [`LoopDriver`] at a GOP boundary (`ReplanPolicy::PerGop`) or a membership change, and only when a member or a demand estimate changed since the last pass; per-frame tile→worker placement (`ThreadPoolBackend::place_for_costs`) uses speed-blind `place_threads` over the host's (homogeneous) worker threads |
//! | 16–20 | per-core DVFS for the slot | `mpsoc::plan_core_on` (per core class) via the backend's analytical accounting |
//! | 21–22 | deadline-miss carry into the next slot | backend state: [`SimBackend`]/[`ThreadPoolBackend`] carry vectors |
//! | §III-D2 | once-per-GOP re-placement, one-second framerate windows | [`LoopDriver::advance`] (under [`LoopDriver::run`] and online serving alike) |
//!
//! # Example
//!
//! Encode a clip with tiles pinned to a 4-worker pool:
//!
//! ```
//! use medvt_encoder::{EncoderConfig, Qp, TileConfig, UniformController, VideoEncoder};
//! use medvt_frame::synth::{BodyPart, PhantomVideo};
//! use medvt_frame::Resolution;
//! use medvt_mpsoc::{Platform, PowerModel};
//! use medvt_runtime::ThreadPoolBackend;
//!
//! let clip = PhantomVideo::builder(BodyPart::Brain)
//!     .resolution(Resolution::new(96, 64))
//!     .seed(1)
//!     .build()
//!     .capture(3);
//! let backend = ThreadPoolBackend::with_workers(
//!     Platform::quad_core(),
//!     PowerModel::default(),
//!     4,
//! );
//! let mut controller = UniformController::new(
//!     2,
//!     2,
//!     TileConfig::with_qp(Qp::new(32).expect("valid QP")),
//! );
//! let stats = VideoEncoder::new(EncoderConfig::default())
//!     .encode_clip_with(&clip, &mut controller, &backend);
//! assert_eq!(stats.frames.len(), 3);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

mod backend;
mod pool;
mod server;
mod sim;
mod threadpool;

pub use backend::{ExecutionBackend, SlotOutcome, WorkUnit};
pub use pool::ExecRecord;
pub use server::{
    ControllerTiming, DemandSource, LoopDriver, LoopReport, ReplanPolicy, ServerLoopConfig,
    UserLoopStats, WindowTiming,
};
pub use sim::SimBackend;
pub use threadpool::ThreadPoolBackend;
