//! # medvt-sched
//!
//! Workload estimation and thread allocation for the `medvt`
//! reproduction of *"Online Efficient Bio-Medical Video Transcoding on
//! MPSoCs Through Content-Aware Workload Allocation"* (Iranfar et al.,
//! DATE 2018).
//!
//! Contents, mapped to the paper:
//!
//! * [`WorkloadLut`] / [`LutBank`] — the per-(tile structure, encoding
//!   configuration) CPU-time histograms of §III-D1, updated online and
//!   transferable across videos of the same body-part class;
//! * [`allocate_on`] / [`place_threads_on`] — Algorithm 2 lines
//!   1–15: ascending-demand admission and cap-seeking thread placement,
//!   speed-aware for heterogeneous (big.LITTLE) platforms: admission
//!   is against effective (speed-weighted) capacity and loads are
//!   normalized by per-core speed factors so the argmin balances
//!   finish times;
//! * [`IncrementalPlacer`] — a vestige kept for `benchmark/`'s
//!   `sched_script`: staged membership deltas over
//!   [`place_threads_on`]. The product's one placer is
//!   [`place_threads_on`], which `runtime::LoopDriver` calls when a
//!   member or an estimate changed;
//! * [`baseline_allocate`] — the one-tile-per-core allocator of the
//!   baseline \[19\].
//!
//! The DVFS stage of Algorithm 2 (lines 16–24) lives in
//! [`medvt_mpsoc::simulate_slot`], which consumes the
//! [`Allocation::core_loads`] produced here. Deadline windows and
//! carry-over are `medvt_runtime::LoopDriver`'s.
//!
//! # Examples
//!
//! ```
//! use medvt_sched::{allocate_on, UserDemand};
//!
//! let slot = 1.0 / 24.0;
//! let users = vec![
//!     UserDemand::new(0, vec![slot * 0.2, slot * 0.3]),
//!     UserDemand::new(1, vec![slot * 0.5]),
//! ];
//! let alloc = allocate_on(&[1.0; 4], slot, &users);
//! assert_eq!(alloc.admitted.len(), 2);
//! assert!(alloc.max_load() <= slot + 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

mod alloc;
mod baseline;
mod incremental;
mod lut;

pub use alloc::{allocate_on, place_threads_on, Allocation, DemandError, Placement, UserDemand};
pub use baseline::baseline_allocate;
pub use incremental::IncrementalPlacer;
pub use lut::{LutBank, LutKey, WorkloadLut};
