//! Worker nodes: threads that transcode leased segments on their own
//! `Platform` through a per-assignment
//! [`LoopDriver`] server loop.
//!
//! A worker is deliberately dumb: it owns no lease state. It drains
//! [`WorkerCommand`]s, answers every `Encode` with a
//! [`SegmentResult`], and exits on `Shutdown`. All fault handling
//! lives coordinator-side — a worker that stops answering is detected
//! purely by its leases expiring, which is exactly the failure surface
//! a wire-distributed worker would present.

use crate::message::{Assignment, SegmentResult, WorkerCommand};
use medvt_admission::Workload;
use medvt_core::LiveWorkload;
use medvt_mpsoc::{DvfsPolicy, Platform, PowerModel};
use medvt_runtime::{DemandSource, LoopDriver, ReplanPolicy, ServerLoopConfig, SimBackend};
use std::sync::mpsc::{Receiver, Sender};

/// Maps segment-local slots back to absolute stream slots so the
/// worker's server loop replays the demand window its segment covers.
/// Cost-only on purpose: the loop prices the segment (energy, deadline
/// windows) while the bitstream bytes come from the deterministic
/// direct-encode path.
struct SegmentSource<'a> {
    workload: &'a LiveWorkload,
    base_slot: usize,
}

impl DemandSource for SegmentSource<'_> {
    fn demand_at(&self, _user: usize, slot: usize) -> Vec<f64> {
        self.workload.demand_at(self.base_slot + slot)
    }
}

/// Everything a worker thread needs to serve one node's share of the
/// cluster.
pub(crate) struct WorkerRole<'a> {
    /// This node's id (== its telemetry track and sharder index).
    pub node: usize,
    /// The node's own silicon.
    pub platform: Platform,
    /// Fault injection: after completing this many segments the worker
    /// "crashes" — it keeps draining commands (so channel sends still
    /// succeed, as they would against a dead TCP peer's kernel buffer)
    /// but never replies again.
    pub kill_after_segments: Option<usize>,
    /// Target frames per second.
    pub fps: f64,
    /// Slots per GOP.
    pub gop_slots: usize,
    /// DVFS policy for the node's backend.
    pub policy: DvfsPolicy,
    /// Placement headroom for the node's per-GOP replanner.
    pub headroom: f64,
    /// The shared stream being served.
    pub workload: &'a LiveWorkload,
}

/// The worker thread body: drain commands until `Shutdown` (or the
/// coordinator hangs up).
pub(crate) fn run_worker(
    role: WorkerRole<'_>,
    commands: Receiver<WorkerCommand>,
    results: Sender<SegmentResult>,
) {
    let mut completed = 0usize;
    for cmd in commands {
        match cmd {
            WorkerCommand::Shutdown => return,
            WorkerCommand::Encode(assignment) => {
                if role.kill_after_segments.is_some_and(|k| completed >= k) {
                    continue;
                }
                let result = encode_assignment(&role, assignment);
                completed += 1;
                if results.send(result).is_err() {
                    return;
                }
            }
        }
    }
}

/// Serves one leased segment: a fresh single-member [`LoopDriver`] runs
/// the segment's slot span for the modeled accounting (energy,
/// deadline windows), then the bitstream is produced by the
/// deterministic open-loop tile path in canonical order — slots in
/// display order, tiles in tile-index order within each slot.
fn encode_assignment(role: &WorkerRole<'_>, assignment: Assignment) -> SegmentResult {
    let seg = assignment.segment;
    let cfg = ServerLoopConfig {
        fps: role.fps,
        slots: seg.slots,
        policy: role.policy,
        replan: ReplanPolicy::PerGop {
            headroom: role.headroom,
        },
        gop_slots: role.gop_slots,
        window_slots: Some(role.gop_slots),
    };
    let source = SegmentSource {
        workload: role.workload,
        base_slot: seg.start_slot,
    };
    let report = LoopDriver::new(
        SimBackend::new(role.platform.clone(), PowerModel::default()),
        cfg,
        vec![0],
        vec![],
    )
    .run(&source);

    let mut bytes = Vec::new();
    let mut tiles = 0usize;
    for slot in seg.slot_range() {
        for thread in 0..role.workload.demand_at(slot).len() {
            let outcome = role
                .workload
                .encode_direct(slot, thread)
                .expect("every profiled tile encodes");
            bytes.extend(outcome.bytes);
            tiles += 1;
        }
    }

    SegmentResult {
        node: role.node,
        segment: seg,
        attempt: assignment.attempt,
        bytes,
        tiles,
        energy_j: report.energy_j,
        windows: report.windows,
        window_misses: report.window_misses,
    }
}
