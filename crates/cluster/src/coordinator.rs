//! The cluster coordinator: segment leasing over a fleet of worker
//! nodes, with fault-tolerant reassembly.
//!
//! ```text
//!              plan_segments              lease (Sharder pick)
//!  stream ───▶ [seg0|seg1|…] ──▶ LeasePool ───────────────▶ worker node
//!                                   ▲  │ expiry                 │
//!                                   │  ▼                        ▼
//!                            requeue+backoff             SegmentResult
//!                                   │                           │
//!                                   └───────── Reassembler ◀────┘
//!                                                  │
//!                                                  ▼
//!                                       bit-identical bitstream
//! ```
//!
//! The coordinator reuses the single-host control plane wholesale:
//! node selection is [`Sharder::pick`] over per-node
//! capacities (sum of core speed factors — the same normalization the
//! admission layer uses for sockets), and each lease counts one
//! reference core of load against its node. A node whose lease expires
//! is declared dead: every lease it holds is revoked at once, its
//! capacity is saturated so the sharder never picks it again, and the
//! orphaned segments re-queue with linear backoff until the bounded
//! retry budget surfaces a typed [`LeaseFailure`].
//!
//! The lease deadline is the detector of last resort, not the usual
//! one. A node that holds a lease and delivers nothing while a live
//! peer delivers `LAPS_TO_CONDEMN` (6) segments is condemned the same
//! way at once. Peer progress is a clock that runs at the fleet's own
//! speed: a loaded host slows every node alike and moves no verdict,
//! and recovery costs a few segment times instead of a wall-clock
//! timeout — a fixed timeout that the survivors sit out idle is a
//! share of the run that grows as encoding gets faster. With no peer
//! making progress (a single node, or every peer idle) only the
//! deadline applies.

use crate::lease::LeasePool;
use crate::message::{Assignment, LeaseFailure, SegmentResult, WorkerCommand};
use crate::reassembly::Reassembler;
use crate::worker::{run_worker, WorkerRole};
use medvt_admission::Sharder;
use medvt_core::LiveWorkload;
use medvt_encoder::plan_segments;
use medvt_mpsoc::{DvfsPolicy, Platform};
use medvt_telemetry::{Event, EventKind, NoopRecorder, Recorder, CONTROL_TRACK};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Load one outstanding lease places on its node, in reference cores.
const LEASE_DEMAND: f64 = 1.0;

/// Segments one live peer delivers, while a lease-holding node
/// delivers none, before that node is presumed dead. Segments are
/// equal GOP counts of one stream and nodes share the host's
/// scheduler, so a live node is lapped once or twice at worst; a
/// false verdict costs the node's capacity (its late results are still
/// accepted), a late one only the wait.
const LAPS_TO_CONDEMN: usize = 6;

/// One worker node's identity in the fleet.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// The node's own silicon (typically one socket view).
    pub platform: Platform,
    /// Fault injection: crash the worker after it completes this many
    /// segments (`Some(0)` = born dead). `None` = healthy.
    pub kill_after_segments: Option<usize>,
}

impl NodeSpec {
    /// A healthy node on `platform`.
    pub(crate) fn healthy(platform: Platform) -> Self {
        NodeSpec {
            platform,
            kill_after_segments: None,
        }
    }
}

/// A heterogeneous fleet of `n` nodes alternating Xeon sockets (4
/// reference cores each) and big.LITTLE sockets (5.8 effective cores)
/// — the paper's server-class and embedded-class silicon mixed in one
/// cluster.
pub fn mixed_fleet(n: usize) -> Vec<NodeSpec> {
    let xeon = Platform::xeon_e5_2667_quad();
    let arm = Platform::big_little();
    (0..n)
        .map(|i| {
            NodeSpec::healthy(if i % 2 == 0 {
                xeon.socket_view((i / 2) % xeon.sockets)
            } else {
                arm.socket_view((i / 2) % arm.sockets)
            })
        })
        .collect()
}

/// Cluster-run parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The worker fleet.
    pub nodes: Vec<NodeSpec>,
    /// Target frames per second.
    pub fps: f64,
    /// Slots per GOP (segments are GOP-aligned).
    pub gop_slots: usize,
    /// GOPs per segment task.
    pub gops_per_segment: usize,
    /// Total stream slots to serve.
    pub total_slots: usize,
    /// DVFS policy for every node's backend.
    pub policy: DvfsPolicy,
    /// Placement headroom for per-GOP replanning on each node.
    pub headroom: f64,
    /// How long a lease lives before the node is presumed dead.
    pub lease_timeout: Duration,
    /// Base re-lease backoff (scaled linearly by attempt).
    pub lease_backoff: Duration,
    /// Delivery attempts per segment before the typed reject.
    pub max_attempts: usize,
}

impl ClusterConfig {
    /// A config with serving defaults: 24 fps, 8-slot GOPs, 2 GOPs per
    /// segment, race-to-idle DVFS, 15% headroom, 2 s leases, 10 ms
    /// backoff, 4 attempts.
    pub fn new(nodes: Vec<NodeSpec>, total_slots: usize) -> Self {
        ClusterConfig {
            nodes,
            fps: 24.0,
            gop_slots: 8,
            gops_per_segment: 2,
            total_slots,
            policy: DvfsPolicy::RaceToIdle,
            headroom: 1.15,
            lease_timeout: Duration::from_secs(2),
            lease_backoff: Duration::from_millis(10),
            max_attempts: 4,
        }
    }
}

/// One node's contribution to a cluster run.
#[derive(Debug, Clone, Serialize)]
pub struct NodeRunStats {
    /// Node id.
    pub node: usize,
    /// Effective capacity in reference cores.
    pub capacity_cores: f64,
    /// Segments this node delivered (first acceptance only).
    pub segments: usize,
    /// Tiles this node encoded into accepted segments.
    pub tiles: usize,
    /// Modeled energy of the node's accepted segment loops, J.
    pub energy_j: f64,
    /// Deadline windows its loops evaluated.
    pub windows: usize,
    /// Windows ending with unfinished work.
    pub window_misses: usize,
    /// Whether the coordinator declared this node dead.
    pub declared_dead: bool,
}

/// One segment's recovery after a node death: from the instant its
/// first lease expired to the instant a replacement node's bytes were
/// accepted.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryRecord {
    /// The recovered segment.
    pub segment: usize,
    /// The delivery attempt that finally landed.
    pub attempts: usize,
    /// First-expiry → acceptance latency, seconds.
    pub latency_secs: f64,
}

/// Everything a cluster run produced.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// The reassembled bitstream: segments stitched in plan order,
    /// byte-identical to a single-node encode of the same stream.
    pub bitstream: Vec<u8>,
    /// Segments in the plan.
    pub segments: usize,
    /// Leases granted (≥ segments when faults forced re-leases).
    pub leases_granted: usize,
    /// Leases that expired.
    pub leases_expired: usize,
    /// Expired leases successfully re-queued.
    pub leases_requeued: usize,
    /// Byte-identical duplicate deliveries discarded.
    pub duplicates: usize,
    /// Per-node accounting.
    pub nodes: Vec<NodeRunStats>,
    /// Per-segment recovery latencies (empty on a fault-free run).
    pub recoveries: Vec<RecoveryRecord>,
    /// Coordinator wall-clock for the whole run, seconds.
    pub wall_secs: f64,
}

/// [`run_cluster_with`] without telemetry.
pub fn run_cluster(
    cfg: &ClusterConfig,
    workload: &LiveWorkload,
) -> Result<ClusterOutcome, LeaseFailure> {
    run_cluster_with(cfg, workload, NoopRecorder)
}

/// Serves `workload` across the fleet: plans GOP-aligned segments,
/// leases them to nodes, recovers from node deaths via lease expiry,
/// and reassembles the bitstream in order.
///
/// Lease-lifecycle telemetry goes to `recorder`: grants and expiries
/// as instants on the holding node's track, requeues and reassemblies
/// on the control track. The coordinator thread is the only producer
/// on every track it stamps, so a shared `&FlightRecorder`'s
/// single-producer-per-ring contract holds (worker loops run
/// telemetry-free nodes).
///
/// # Errors
///
/// [`LeaseFailure::RetriesExhausted`] when a segment's lease expired
/// on every allowed attempt; [`LeaseFailure::NoLiveNodes`] when every
/// node died with segments still pending.
///
/// # Panics
///
/// Panics when the fleet is empty, when slot/GOP parameters are zero,
/// or if two nodes deliver different bytes for one segment (the
/// open-loop determinism invariant is broken).
pub fn run_cluster_with<R: Recorder>(
    cfg: &ClusterConfig,
    workload: &LiveWorkload,
    recorder: R,
) -> Result<ClusterOutcome, LeaseFailure> {
    assert!(!cfg.nodes.is_empty(), "cluster needs at least one node");
    let plan = plan_segments(cfg.total_slots, cfg.gop_slots, cfg.gops_per_segment);
    let capacities: Vec<f64> = cfg
        .nodes
        .iter()
        .map(|n| n.platform.speed_capacity())
        .collect();
    let started = Instant::now();

    let mut reassembler = Reassembler::new(plan.clone());
    let mut pool = LeasePool::new(
        plan.len(),
        cfg.lease_timeout,
        cfg.lease_backoff,
        cfg.max_attempts,
    );
    let mut sharder = Sharder::new(capacities.clone());

    let mut stats: Vec<NodeRunStats> = capacities
        .iter()
        .enumerate()
        .map(|(node, &capacity_cores)| NodeRunStats {
            node,
            capacity_cores,
            segments: 0,
            tiles: 0,
            energy_j: 0.0,
            windows: 0,
            window_misses: 0,
            declared_dead: false,
        })
        .collect();
    let mut live_nodes = cfg.nodes.len();
    let mut leases_granted = 0usize;
    let mut leases_expired = 0usize;
    let mut leases_requeued = 0usize;
    let mut duplicates = 0usize;
    let mut first_expiry: BTreeMap<usize, Instant> = BTreeMap::new();
    let mut recoveries: Vec<RecoveryRecord> = Vec::new();
    // Peer progress, the silence detector's clock: `delivered[x]`
    // counts node x's results and `seen[y]` is `delivered` as of node
    // y's last sign of life (its own result, or the grant that ended
    // an idle spell).
    let mut delivered = vec![0usize; cfg.nodes.len()];
    let mut seen = vec![delivered.clone(); cfg.nodes.len()];

    let (result_tx, result_rx) = mpsc::channel::<SegmentResult>();

    let run = std::thread::scope(|scope| {
        let command_txs: Vec<mpsc::Sender<WorkerCommand>> = cfg
            .nodes
            .iter()
            .enumerate()
            .map(|(node, spec)| {
                let (tx, rx) = mpsc::channel::<WorkerCommand>();
                let role = WorkerRole {
                    node,
                    platform: spec.platform.clone(),
                    kill_after_segments: spec.kill_after_segments,
                    fps: cfg.fps,
                    gop_slots: cfg.gop_slots,
                    policy: cfg.policy,
                    headroom: cfg.headroom,
                    workload,
                };
                let results = result_tx.clone();
                scope.spawn(move || run_worker(role, rx, results));
                tx
            })
            .collect();

        let run = loop {
            let now = Instant::now();

            // 1. Expiry and silence scan. One expired lease condemns
            // its holder, and so does being lapped `LAPS_TO_CONDEMN`
            // times by a peer that is itself alive: the node is
            // declared dead, its remaining leases are revoked in the
            // same sweep, and its capacity saturates so the sharder
            // never offers it work again.
            let mut condemned = pool.expired(now);
            let mut doomed: Vec<usize> = condemned.iter().map(|l| l.node).collect();
            let alive = |x: usize| !stats[x].declared_dead && !doomed.contains(&x);
            let lapped: Vec<usize> = (0..seen.len())
                .filter(|&y| {
                    pool.holds_lease(y)
                        && (0..seen.len())
                            .any(|x| alive(x) && delivered[x] - seen[y][x] >= LAPS_TO_CONDEMN)
                })
                .collect();
            doomed.extend(lapped);
            for node in doomed {
                if !stats[node].declared_dead {
                    stats[node].declared_dead = true;
                    live_nodes -= 1;
                    sharder.admit_load(node, capacities[node] + LEASE_DEMAND);
                    condemned.extend(pool.revoke_node(node));
                }
            }
            let mut failure = None;
            for lease in &condemned {
                leases_expired += 1;
                sharder.release_load(lease.node, LEASE_DEMAND);
                recorder.record(Event::new(
                    lease.node as u16,
                    plan[lease.segment].start_slot as u32,
                    EventKind::LeaseExpired {
                        segment: lease.segment as u32,
                    },
                ));
                first_expiry.entry(lease.segment).or_insert(now);
                match pool.requeue(*lease, now) {
                    Ok(()) => {
                        leases_requeued += 1;
                        recorder.record(Event::new(
                            CONTROL_TRACK,
                            plan[lease.segment].start_slot as u32,
                            EventKind::LeaseRequeued {
                                segment: lease.segment as u32,
                            },
                        ));
                    }
                    Err(e) => failure = Some(e),
                }
            }
            if let Some(e) = failure {
                break Err(e);
            }

            // 2. Grant every ready segment a node with lease headroom.
            while sharder.any_fits(LEASE_DEMAND) {
                let Some((segment, attempt)) = pool.next_ready(now) else {
                    break;
                };
                let node = sharder.pick(LEASE_DEMAND).expect("any_fits held");
                sharder.admit_load(node, LEASE_DEMAND);
                if !pool.holds_lease(node) {
                    seen[node].clone_from(&delivered);
                }
                pool.grant(segment, attempt, node, now);
                leases_granted += 1;
                recorder.record(Event::new(
                    node as u16,
                    plan[segment].start_slot as u32,
                    EventKind::LeaseGranted {
                        segment: segment as u32,
                    },
                ));
                // A send can only fail if the worker thread panicked;
                // the lease then expires and the node is condemned
                // through the normal path.
                let _ = command_txs[node].send(WorkerCommand::Encode(Assignment {
                    segment: plan[segment],
                    attempt,
                }));
            }

            if reassembler.is_complete() {
                break Ok(());
            }
            if live_nodes == 0 {
                break Err(LeaseFailure::NoLiveNodes {
                    segment: pool.first_pending().unwrap_or(0),
                });
            }

            // 3. Wait for the next result, but never past the nearest
            // lease deadline or backoff expiry.
            let wait = pool
                .next_wakeup(now)
                .unwrap_or(Duration::from_millis(5))
                .max(Duration::from_millis(1));
            match result_rx.recv_timeout(wait) {
                Ok(result) => {
                    let now = Instant::now();
                    let segment = result.segment.index;
                    delivered[result.node] += 1;
                    seen[result.node].clone_from(&delivered);
                    match pool.complete(segment) {
                        Some(lease) => sharder.release_load(lease.node, LEASE_DEMAND),
                        // A late result after expiry: the bytes are
                        // still good — drop any queued retry.
                        None => {
                            pool.cancel_pending(segment);
                        }
                    }
                    match reassembler.accept(segment, result.bytes) {
                        Ok(true) => {
                            let s = &mut stats[result.node];
                            s.segments += 1;
                            s.tiles += result.tiles;
                            s.energy_j += result.energy_j;
                            s.windows += result.windows;
                            s.window_misses += result.window_misses;
                            recorder.record(Event::new(
                                CONTROL_TRACK,
                                result.segment.start_slot as u32,
                                EventKind::SegmentReassembled {
                                    segment: segment as u32,
                                },
                            ));
                            if let Some(&t0) = first_expiry.get(&segment) {
                                recoveries.push(RecoveryRecord {
                                    segment,
                                    attempts: result.attempt,
                                    latency_secs: now.duration_since(t0).as_secs_f64(),
                                });
                            }
                        }
                        Ok(false) => duplicates += 1,
                        Err(conflict) => panic!("cluster determinism violated: {conflict}"),
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("coordinator holds a result sender")
                }
            }
        };

        for tx in &command_txs {
            let _ = tx.send(WorkerCommand::Shutdown);
        }
        run
    });
    drop(result_tx);

    run.map(|()| ClusterOutcome {
        segments: reassembler.plan().len(),
        bitstream: reassembler.assemble(),
        leases_granted,
        leases_expired,
        leases_requeued,
        duplicates,
        nodes: stats,
        recoveries,
        wall_secs: started.elapsed().as_secs_f64(),
    })
}
