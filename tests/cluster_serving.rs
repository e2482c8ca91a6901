//! Cluster serving invariants: a reassembled multi-node bitstream must
//! be byte-identical to a single-node server-loop encode of the same
//! stream — including when a worker dies mid-run and its leased
//! segments are recovered on other nodes.

use medvt::cluster::{mixed_fleet, run_cluster, run_cluster_with, ClusterConfig};
use medvt::core::LiveWorkload;
use medvt::frame::synth::BodyPart;
use medvt::mpsoc::{Platform, PowerModel};
use medvt::runtime::{DemandSource, LoopDriver, ReplanPolicy, ServerLoopConfig, ThreadPoolBackend};
use medvt::telemetry::{EventKind, FlightRecorder};
use std::time::Duration;

mod common;
use common::live_workload;

const TOTAL_SLOTS: usize = 96;
const GOP_SLOTS: usize = 8;

/// One live stream as a single-user demand source with real work —
/// what one standalone serving node runs.
struct SoloLive<'a>(&'a LiveWorkload);

impl DemandSource for SoloLive<'_> {
    fn demand_at(&self, _user: usize, slot: usize) -> Vec<f64> {
        medvt::admission::Workload::demand_at(self.0, slot)
    }

    fn work_for(
        &self,
        _user: usize,
        slot: usize,
        thread: usize,
    ) -> Option<Box<dyn FnOnce() + Send + '_>> {
        medvt::admission::Workload::work_for(self.0, slot, thread)
    }
}

fn stream() -> LiveWorkload {
    live_workload("cluster-ci", BodyPart::Brain, "brain", 11)
}

/// The single-node reference: one server loop on a real worker pool
/// encodes the whole stream, and its captured tiles are assembled in
/// canonical order (slots in display order, tiles in tile order).
fn single_node_bitstream(workload: &LiveWorkload) -> Vec<u8> {
    let cfg = ServerLoopConfig {
        fps: 24.0,
        slots: TOTAL_SLOTS,
        policy: medvt::mpsoc::DvfsPolicy::RaceToIdle,
        replan: ReplanPolicy::PerGop { headroom: 1.15 },
        gop_slots: GOP_SLOTS,
        window_slots: Some(GOP_SLOTS),
    };
    let backend = ThreadPoolBackend::with_workers(Platform::quad_core(), PowerModel::default(), 2);
    let source = SoloLive(workload);
    let mut driver = LoopDriver::new(backend, cfg, Vec::new(), Vec::new());
    driver.update_membership(&[0], &[]);
    driver.advance(&source, TOTAL_SLOTS);
    let report = driver.into_report();
    assert_eq!(report.slots, TOTAL_SLOTS);

    let mut bytes = Vec::new();
    for slot in 0..TOTAL_SLOTS {
        let tiles = medvt::admission::Workload::demand_at(workload, slot).len();
        for thread in 0..tiles {
            bytes.extend(
                workload
                    .captured(slot, thread)
                    .expect("server loop encoded every profiled tile"),
            );
        }
    }
    bytes
}

#[test]
fn reassembled_bitstream_matches_single_node_server_loop() {
    let captured = stream().with_capture();
    let reference = single_node_bitstream(&captured);
    assert!(!reference.is_empty());

    let workload = stream();
    for fleet_size in [1usize, 3] {
        let cfg = ClusterConfig::new(mixed_fleet(fleet_size), TOTAL_SLOTS);
        let outcome = run_cluster(&cfg, &workload).expect("healthy fleet completes");
        assert_eq!(
            outcome.bitstream, reference,
            "{fleet_size}-node reassembly must be byte-identical to the \
             single-node server loop"
        );
        assert_eq!(outcome.leases_expired, 0, "healthy fleet never expires");
        assert_eq!(outcome.leases_granted, outcome.segments);
        assert!(outcome.recoveries.is_empty());
        let delivered: usize = outcome.nodes.iter().map(|n| n.segments).sum();
        assert_eq!(delivered, outcome.segments);
        if fleet_size > 1 {
            assert!(
                outcome.nodes.iter().filter(|n| n.segments > 0).count() > 1,
                "a multi-node fleet must spread segments across nodes"
            );
        }
        assert!(
            outcome
                .nodes
                .iter()
                .all(|n| n.energy_j > 0.0 || n.segments == 0),
            "delivered segments must carry modeled energy"
        );
    }
}

#[test]
fn worker_death_requeues_leases_and_preserves_bit_identity() {
    let captured = stream().with_capture();
    let reference = single_node_bitstream(&captured);

    let workload = stream();
    let mut nodes = mixed_fleet(2);
    // Node 1 crashes after delivering one segment: every lease it
    // still holds must expire, re-queue, and complete elsewhere.
    nodes[1].kill_after_segments = Some(1);
    let mut cfg = ClusterConfig::new(nodes, TOTAL_SLOTS);
    cfg.lease_timeout = Duration::from_millis(1500);
    cfg.lease_backoff = Duration::from_millis(5);

    let recorder = FlightRecorder::modeled(4, 1024);
    let outcome = run_cluster_with(&cfg, &workload, &recorder)
        .expect("survivor node completes the re-queued segments");

    assert_eq!(
        outcome.bitstream, reference,
        "recovered segments must reassemble byte-identically"
    );
    assert!(outcome.nodes[1].declared_dead, "node 1 must be condemned");
    assert!(!outcome.nodes[0].declared_dead);
    assert!(outcome.leases_expired > 0, "the dead node's leases expire");
    assert!(outcome.leases_requeued > 0, "expired leases re-queue");
    assert!(
        outcome.leases_granted > outcome.segments,
        "re-leases exceed the segment count"
    );
    assert!(
        !outcome.recoveries.is_empty(),
        "recovered segments must report recovery latency"
    );
    assert!(outcome.recoveries.iter().all(|r| r.latency_secs >= 0.0));
    assert_eq!(outcome.nodes[1].segments, 1, "one delivery before death");
    assert_eq!(
        outcome.nodes[0].segments,
        outcome.segments - 1,
        "the survivor serves everything else"
    );

    // The lease lifecycle is visible in telemetry: grants/expiries on
    // node tracks, requeues/reassemblies on the control track.
    let events = recorder.events();
    let granted = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::LeaseGranted { .. }))
        .count();
    let expired = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::LeaseExpired { .. }))
        .count();
    let reassembled = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SegmentReassembled { .. }))
        .count();
    assert_eq!(granted, outcome.leases_granted);
    assert_eq!(expired, outcome.leases_expired);
    assert_eq!(reassembled, outcome.segments);
}

#[test]
fn two_concurrent_worker_deaths_still_reassemble_bit_identically() {
    let captured = stream().with_capture();
    let reference = single_node_bitstream(&captured);

    let workload = stream();
    let mut nodes = mixed_fleet(4);
    // Two of the four nodes die holding their very first leases
    // (initial grants spread least-loaded, so every node holds one).
    // Both must be condemned and the two survivors must absorb every
    // orphaned lease — concurrently, not one recovery after another.
    nodes[1].kill_after_segments = Some(0);
    nodes[3].kill_after_segments = Some(0);
    let mut cfg = ClusterConfig::new(nodes, TOTAL_SLOTS);
    cfg.lease_timeout = Duration::from_millis(1500);
    cfg.lease_backoff = Duration::from_millis(5);

    let recorder = FlightRecorder::modeled(6, 2048);
    let outcome = run_cluster_with(&cfg, &workload, &recorder)
        .expect("two survivors complete the re-queued segments");

    assert_eq!(
        outcome.bitstream, reference,
        "doubly-recovered segments must reassemble byte-identically"
    );
    assert!(outcome.nodes[1].declared_dead, "node 1 must be condemned");
    assert!(outcome.nodes[3].declared_dead, "node 3 must be condemned");
    assert!(!outcome.nodes[0].declared_dead);
    assert!(!outcome.nodes[2].declared_dead);
    assert!(outcome.leases_expired > 0, "both dead nodes' leases expire");
    assert!(outcome.leases_requeued > 0, "expired leases re-queue");
    assert!(
        outcome.leases_granted > outcome.segments,
        "re-leases exceed the segment count"
    );
    assert!(
        outcome.leases_expired >= 2,
        "each dead node must lose at least its first lease"
    );
    assert_eq!(outcome.nodes[1].segments, 0, "node 1 died empty-handed");
    assert_eq!(outcome.nodes[3].segments, 0, "node 3 died empty-handed");
    let delivered: usize = outcome.nodes.iter().map(|n| n.segments).sum();
    assert_eq!(delivered, outcome.segments, "no segment lost or doubled");
    assert_eq!(
        outcome.nodes[0].segments + outcome.nodes[2].segments,
        outcome.segments,
        "the survivors serve everything"
    );

    // Telemetry counts track the outcome exactly, even under
    // concurrent failures.
    let events = recorder.events();
    let granted = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::LeaseGranted { .. }))
        .count();
    let expired = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::LeaseExpired { .. }))
        .count();
    let requeued = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::LeaseRequeued { .. }))
        .count();
    let reassembled = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SegmentReassembled { .. }))
        .count();
    assert_eq!(granted, outcome.leases_granted);
    assert_eq!(expired, outcome.leases_expired);
    assert_eq!(requeued, outcome.leases_requeued);
    assert_eq!(reassembled, outcome.segments);
}

#[test]
fn a_lapped_node_is_condemned_long_before_its_lease_deadline() {
    let workload = stream();
    let slots = 16 * 2 * GOP_SLOTS;
    let mut nodes = mixed_fleet(2);
    // Node 1 dies after one delivery, holding several leases, while
    // node 0 has a dozen segments of its own to lap it with. The lease
    // deadline is far beyond the whole run, so finishing at all proves
    // the verdict came from peer progress.
    nodes[1].kill_after_segments = Some(1);
    let mut cfg = ClusterConfig::new(nodes, slots);
    cfg.lease_timeout = Duration::from_secs(600);

    let outcome = run_cluster(&cfg, &workload).expect("the survivor completes the stream");

    assert!(outcome.wall_secs < cfg.lease_timeout.as_secs_f64() / 2.0);
    assert!(outcome.nodes[1].declared_dead, "node 1 must be condemned");
    assert!(
        !outcome.nodes[0].declared_dead,
        "the busy survivor is never suspected"
    );
    assert!(outcome.leases_expired > 0);
    assert_eq!(outcome.leases_expired, outcome.leases_requeued);
    assert_eq!(outcome.recoveries.len(), outcome.leases_expired);
    assert_eq!(outcome.nodes[1].segments, 1);
    assert_eq!(outcome.nodes[0].segments, outcome.segments - 1);

    let mut reference = Vec::new();
    for slot in 0..slots {
        for thread in 0..medvt::admission::Workload::demand_at(&workload, slot).len() {
            let tile = workload.encode_direct(slot, thread).expect("profiled tile");
            reference.extend(tile.bytes);
        }
    }
    assert_eq!(outcome.bitstream, reference);
}
