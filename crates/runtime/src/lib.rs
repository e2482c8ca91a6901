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
//! * [`ExecutionBackend`] — the slot-execution trait: one slot at a
//!   time, or a run of a GOP's slots at once;
//! * [`SimBackend`] — the analytical slot model (extracted from
//!   `core::server`/`mpsoc::simulate_slot`), accounting work units
//!   without running them;
//! * [`ThreadPoolBackend`] — runs real work units on `n` executors:
//!   the calling thread plus `n − 1` persistent workers of its own
//!   `medvt_frame::WorkerPool`, the workspace's one executor
//!   (borrow-friendly batches, any idle executor claims the next unit
//!   in slot order, one barrier per run of slots), accounting every
//!   placed [`WorkUnit`] on its core with the *same* analytical model;
//! * [`LoopDriver`] — the backend-generic multi-user frame-slot loop:
//!   run to completion by `core::ServerSim` ([`LoopDriver::run`]), or
//!   stepped GOP by GOP with membership deltas and each user's miss
//!   streak as the per-socket shard loop under `medvt-admission`'s
//!   online serving and each `medvt-cluster` worker.
//!
//! # Mapping to the paper's Algorithm 2
//!
//! | Algorithm 2 lines | concept | here |
//! |---|---|---|
//! | 1–2 | per-user core demand, ascending-demand admission | `sched::allocate_on`, driven by `core::ServerSim` |
//! | 3–15 | cap-seeking thread→core placement | the speed-aware `sched::place_threads_on` over [`ExecutionBackend::core_speeds`], re-run by [`LoopDriver`] at a GOP boundary (`ReplanPolicy::PerGop`) or a membership change, and only when a member or a demand estimate changed since the last pass |
//! | 16–20 | per-core DVFS for the slot | `mpsoc::plan_core_on` (per core class) via the backend's analytical accounting |
//! | 21–22 | deadline-miss carry into the next slot | backend state: [`SimBackend`]/[`ThreadPoolBackend`] carry vectors |
//! | §III-D2 | once-per-GOP re-placement, one-second framerate windows | [`LoopDriver::advance`] (under [`LoopDriver::run`] and online serving alike), which hands a real-execution backend each GOP's slots as one run |
//!
//! # Example
//!
//! Run one slot of placed work on 4 executors, the calling thread
//! and 3 pool workers: any idle executor runs the next unit's job, and
//! the slot is priced per placed core by the same analytical model as
//! [`SimBackend`]:
//!
//! ```
//! use medvt_mpsoc::{DvfsPolicy, Platform, PowerModel};
//! use medvt_runtime::{ExecutionBackend, ThreadPoolBackend, WorkUnit};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let mut backend = ThreadPoolBackend::with_workers(
//!     Platform::quad_core(),
//!     PowerModel::default(),
//!     4,
//! );
//! let done = AtomicUsize::new(0);
//! let work: Vec<WorkUnit<'_>> = (0..8)
//!     .map(|thread| WorkUnit {
//!         user: 0,
//!         thread,
//!         core: thread % 4,
//!         cost_fmax_secs: 0.01,
//!         job: Some(Box::new(|| {
//!             done.fetch_add(1, Ordering::Relaxed);
//!         })),
//!     })
//!     .collect();
//! let outcome = backend.execute_slot(DvfsPolicy::StretchToDeadline, 1.0 / 24.0, work);
//! assert_eq!(done.load(Ordering::Relaxed), 8);
//! assert_eq!(outcome.report.deadline_misses, 0);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

mod backend;
mod server;
mod sim;
mod threadpool;

pub use backend::{ExecutionBackend, SlotOutcome, WorkUnit};
pub use server::{
    ControllerTiming, DemandSource, LoopDriver, LoopReport, ReplanPolicy, ServerLoopConfig,
    WindowTiming,
};
pub use sim::SimBackend;
pub use threadpool::ThreadPoolBackend;
