//! # medvt-admission
//!
//! Live admission control for the `medvt` reproduction of *"Online
//! Efficient Bio-Medical Video Transcoding on MPSoCs Through
//! Content-Aware Workload Allocation"* (Iranfar et al., DATE 2018):
//! sharded online serving with GOP-boundary admit/evict.
//!
//! The paper's serving scenario is an **online** one — users request
//! transcodes of stored bio-medical videos while the MPSoC is already
//! serving others, and "the received user requests are queued" until
//! Algorithm 2 admits them (§III-D2). The batch evaluation path
//! (`core::ServerSim::serve_max`) freezes that queue at its
//! steady-state; this crate models the live half: arrivals,
//! departures, overload and eviction, at the same GOP-boundary cadence
//! the paper re-runs its thread allocation.
//!
//! # Mapping to the paper's online scenario
//!
//! | paper concept | here |
//! |---|---|
//! | queued user requests (§III-D2) | [`RequestQueue`] of timestamped [`UserRequest`]s |
//! | Algorithm 2 line 1 per-user core demand | [`OnlineConfig::padded_demand`]: [`Workload::steady_demand`] × FPS × headroom, the admission unit |
//! | lines 2–3 maximize admitted users under `N_c` | GOP-boundary FIFO admission against per-socket capacity ([`serve_online`] step 4) |
//! | §III-D2 re-allocation at each GOP | shard membership pushed into `runtime::LoopDriver`, which re-runs the speed-aware `sched::place_threads_on` per socket |
//! | "framerate … checked every second" | each user's run of missed windows (`runtime::LoopDriver::miss_streak`); sustained misses trigger eviction by [`DeadlineClass`] tolerance |
//! | 4-socket Xeon evaluation server (§IV-A) | one shard per socket (`Platform::socket_view`); a user lands on the least-utilized [`Sharder`] pick it fits |
//! | always-full queue of §IV-B2 | a special case of [`TraceConfig`] (arrival rate ≫ service rate) |
//!
//! The related cloud-transcoding work (Li et al., on-demand
//! transcoding on heterogeneous cloud workers) motivates the queueing
//! half: Poisson arrivals, heavy-tailed session lengths
//! ([`synthesize_trace`]), deadline classes and admission against a
//! measured capacity model rather than a wish. Its cost half is
//! serving-side: [`CostPlan`] lets [`serve_online`] admit against
//! per-window budget headroom, evicted users re-enter the queue one
//! [`DeadlineClass`] lower instead of being dropped
//! (`degrade_on_evict`), and [`replay_cost`] audits the spend ledger
//! from the decision stream.
//!
//! Decisions read only the analytical accounting shared by every
//! execution backend, so one trace replays the **identical**
//! admission/eviction stream on `SimBackend` and `ThreadPoolBackend`
//! shards — verified by `tests/online_admission.rs`.
//!
//! # Example
//!
//! ```
//! use medvt_admission::{serve_online, OnlineConfig, TraceConfig, Workload};
//! use medvt_admission::synthesize_trace;
//! use medvt_mpsoc::{Platform, PowerModel};
//! use medvt_runtime::SimBackend;
//!
//! struct Flat;
//! impl Workload for Flat {
//!     fn steady_demand(&self) -> Vec<f64> {
//!         vec![1.0 / 24.0 / 4.0; 2]
//!     }
//!     fn demand_at(&self, _slot: usize) -> Vec<f64> {
//!         self.steady_demand()
//!     }
//! }
//!
//! let platform = Platform::xeon_e5_2667_quad();
//! let shards: Vec<SimBackend> = (0..platform.sockets)
//!     .map(|s| SimBackend::new(platform.socket_view(s), PowerModel::default()))
//!     .collect();
//! let trace = synthesize_trace(&TraceConfig::default());
//! let report = serve_online(&OnlineConfig::default(), &[Flat], &trace, shards);
//! assert!(report.admissions > 0);
//! assert_eq!(report.shards.len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), warn(clippy::too_many_lines))]

mod cost;
mod request;
mod serve;
mod shard;
mod trace;

pub use cost::{replay_cost, CostPlan, CostReport};
pub use request::{DeadlineClass, RequestQueue, UserRequest};
pub use serve::{
    serve_online, serve_online_with, staggered_slot, AdmissionEvent, EventKind, OnlineConfig,
    OnlineReport, ShardReport, Workload,
};
pub use shard::{ShardPolicy, Sharder};
pub use trace::{synthesize_trace, TraceConfig};
