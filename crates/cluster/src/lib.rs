//! Coordinator/worker cluster serving: the two-tier layer above the
//! single-host online stack.
//!
//! The single-host stack (`medvt-admission` over `medvt-runtime`)
//! serves many users on one machine's sockets. This crate scales the
//! same machinery *out*: a coordinator splits a stream into GOP-aligned
//! [segment tasks](medvt_encoder::SegmentSpec), leases each segment to
//! a worker node in a heterogeneous fleet, and stitches the returned
//! bitstreams back together — byte-identical to a single-node encode,
//! even across worker deaths.
//!
//! | layer | piece | reused from |
//! |---|---|---|
//! | node selection | [`Sharder`](medvt_admission::Sharder) over per-node capacities | admission's least-utilized shard pick |
//! | per-node serving | a fresh single-member [`LoopDriver`](medvt_runtime::LoopDriver) per segment | runtime's server loop |
//! | wire seam | `WorkerCommand` in, `SegmentResult` out (plain `Serialize` data) | new in this crate |
//! | work unit | [`SegmentSpec`](medvt_encoder::SegmentSpec) (contiguous GOP range) | encoder's GOP structure |
//! | fault model | peer-progress silence verdict, then [`LeasePool`] timeout/retry/backoff | new in this crate |
//! | output | [`Reassembler`] in-order stitch | encoder's open-loop determinism |
//!
//! Fault tolerance rests on one invariant inherited from
//! [`medvt_core::LiveWorkload`]: tiles encode open-loop, so a
//! segment's bytes depend only on (segment, stream) — never on which
//! node encoded it, on which attempt, or in what order. A lease that
//! expires simply re-queues; whichever node eventually delivers, the
//! reassembled stream is the same.
//!
//! Entry point: [`run_cluster`] / [`run_cluster_with`] (telemetry).

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

mod coordinator;
mod lease;
mod message;
mod reassembly;
mod worker;

pub use coordinator::{
    mixed_fleet, run_cluster, run_cluster_with, ClusterConfig, ClusterOutcome, NodeRunStats,
    NodeSpec, RecoveryRecord,
};
pub use lease::{Lease, LeasePool};
pub use message::LeaseFailure;
pub use reassembly::{Reassembler, ReassemblyConflict};
