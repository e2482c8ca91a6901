//! `cluster_failover`: one stream split into GOP-aligned segments and
//! leased across a two-node fleet, with node 1 killed mid-run — healthy
//! two-node throughput, expiry-driven recovery and single-survivor
//! drain in one pass. Node threads reach the encoder through
//! `encode_direct` (no pool, no slot barrier).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use medvt_cluster::{mixed_fleet, run_cluster_with, ClusterConfig, ClusterOutcome};
use medvt_core::LiveWorkload;
use medvt_encoder::EncoderConfig;
use medvt_frame::synth::{BodyPart, MotionPattern};
use medvt_telemetry::{Event, EventKind, FlightRecorder, Metrics, Recorder};

use crate::live::{
    live_workloads, render_and_profile, Clip, ClipSpec, DirectTable, Served, SetupCost, FPS,
    GOP_SLOTS, SETUP_REPS,
};
use crate::replay;
use crate::run::{
    check, time_setups, timed_passes, Check, HostClock, Pass, RunArgs, Timed, Traced, TracedPass,
};
use crate::stats::{fnv1a, median, percentile};
use crate::trace::{Span, ROOT};

/// (untraced, traced) pass pairs of a traced run.
const TRACED_PAIRS: usize = 2;
/// Worker nodes, one encoding thread each.
const NODES: usize = 2;
/// 40 segments of 2 GOPs: short enough for five or more passes a run
/// (with three or four, the run-to-run spread of the throughput was
/// five times wider), long enough that the survivor still has work of
/// its own while node 1's leases run out.
const TOTAL_SLOTS: usize = 640;
const GOPS_PER_SEGMENT: usize = 2;
/// Node 1 stops answering after this many deliveries.
const KILL_AFTER: usize = 12;

struct Setup {
    clips: Vec<Clip>,
    workload: LiveWorkload,
    cost: SetupCost,
}

fn setup(seed: u64) -> Setup {
    let enc = EncoderConfig::default();
    let spec = [ClipSpec {
        part: BodyPart::Brain,
        motion: Some(MotionPattern::Pan { dx: 1.0, dy: 0.0 }),
    }];
    let (clips, cost) = render_and_profile(&spec, &enc, seed);
    let workload = live_workloads(&clips, &enc, false).remove(0);
    Setup {
        clips,
        workload,
        cost,
    }
}

fn config(args: &RunArgs) -> ClusterConfig {
    let total = args.horizon(TOTAL_SLOTS, GOP_SLOTS * GOPS_PER_SEGMENT);
    let mut nodes = mixed_fleet(NODES);
    // A smoke stream is two segments long: node 1 is born dead there,
    // so the failover path is still walked.
    nodes[1].kill_after_segments = Some(if args.smoke { 0 } else { KILL_AFTER });
    let mut cfg = ClusterConfig::new(nodes, total);
    cfg.gop_slots = GOP_SLOTS;
    cfg.gops_per_segment = GOPS_PER_SEGMENT;
    cfg.fps = FPS;
    cfg.lease_timeout = Duration::from_millis(1500);
    cfg.lease_backoff = Duration::from_millis(5);
    cfg
}

/// The cluster's only per-segment clock is its lease-event hook, so
/// the benchmark's recorder stamps each lease event as it is emitted
/// (one clock read and one push per event, on the coordinator thread
/// only). This is not the flight recorder; the timed passes run
/// without one.
#[derive(Debug)]
struct LeaseClock {
    t0: Instant,
    events: Mutex<Vec<(u64, Event)>>,
}

impl LeaseClock {
    fn new(segments: usize) -> Self {
        LeaseClock {
            t0: Instant::now(),
            events: Mutex::new(Vec::with_capacity(segments * 4)),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// The events recorded since `since_ns`, re-based to it.
    fn take(&self, since_ns: u64) -> Vec<(u64, Event)> {
        std::mem::take(&mut *self.events.lock().expect("the coordinator panicked"))
            .into_iter()
            .map(|(ns, e)| (ns.saturating_sub(since_ns), e))
            .collect()
    }
}

impl Recorder for LeaseClock {
    const ENABLED: bool = true;

    fn record(&self, event: Event) {
        let ns = self.now_ns();
        self.events
            .lock()
            .expect("the coordinator panicked")
            .push((ns, event));
    }

    fn absorb(&self, _metrics: &Metrics) {}
}

/// Feeds both the benchmark's clock and the stack's flight recorder.
struct Tee<'a>(&'a LeaseClock, &'a FlightRecorder);

impl Recorder for Tee<'_> {
    const ENABLED: bool = true;

    fn record(&self, event: Event) {
        self.0.record(event);
        self.1.record(event);
    }

    fn absorb(&self, metrics: &Metrics) {
        self.1.absorb(metrics);
    }
}

/// One delivered segment, reconstructed from the lease events.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Delivery {
    segment: u32,
    node: u16,
    /// The grant the delivery answers.
    grant_ns: u64,
    done_ns: u64,
}

fn deliveries(events: &[(u64, Event)]) -> Vec<Delivery> {
    let mut latest: BTreeMap<u32, (u64, u16)> = BTreeMap::new();
    let mut out = Vec::new();
    for &(ns, e) in events {
        match e.kind {
            EventKind::LeaseGranted { segment } => {
                latest.insert(segment, (ns, e.track));
            }
            EventKind::SegmentReassembled { segment } => {
                if let Some(&(grant_ns, node)) = latest.get(&segment) {
                    out.push(Delivery {
                        segment,
                        node,
                        grant_ns,
                        done_ns: ns,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// A worker serves its leases one after another, so a segment's
/// service interval starts at the later of its grant and its node's
/// previous delivery. Derived from coordinator-side events, because
/// nothing inside a worker can be observed from outside. Returns
/// (start, end) per delivery, in delivery order.
fn service_intervals(deliveries: &[Delivery]) -> Vec<(u64, u64)> {
    let mut node_free: BTreeMap<u16, u64> = BTreeMap::new();
    deliveries
        .iter()
        .map(|d| {
            let free = node_free.entry(d.node).or_insert(0);
            let start = d.grant_ns.max(*free);
            *free = d.done_ns;
            (start, d.done_ns)
        })
        .collect()
}

/// The `cluster` → `encoder` spans of the cluster ledger: the run as
/// root, every segment's service interval as its child.
fn service_spans(deliveries: &[Delivery], root: u32, wall_ns: u64) -> Vec<Span> {
    let mut spans = vec![Span {
        id: root,
        name: "run_cluster",
        layer: "cluster",
        start_ns: 0,
        end_ns: wall_ns,
        parent: ROOT,
        tid: 0,
        op: 0,
        tag: 0,
    }];
    for (i, (d, (start_ns, end_ns))) in deliveries
        .iter()
        .zip(service_intervals(deliveries))
        .enumerate()
    {
        spans.push(Span {
            id: root + 1 + i as u32,
            name: "serve_segment",
            layer: "encoder",
            start_ns,
            end_ns,
            parent: root,
            tid: 1 + u32::from(d.node),
            op: u64::from(d.segment),
            tag: u64::from(d.node),
        });
    }
    spans
}

struct PassOut {
    pass: Pass,
    outcome: Option<ClusterOutcome>,
    deliveries: Vec<Delivery>,
}

fn one_pass<R: Recorder>(
    cfg: &ClusterConfig,
    workload: &LiveWorkload,
    clock: &LeaseClock,
    recorder: R,
) -> PassOut {
    let segments = cfg
        .total_slots
        .div_ceil(cfg.gop_slots * cfg.gops_per_segment) as u64;
    let start_ns = clock.now_ns();
    let result = run_cluster_with(cfg, workload, recorder);
    let wall_s = (clock.now_ns() - start_ns) as f64 / 1e9;
    let deliveries = deliveries(&clock.take(start_ns));
    // An op is one segment's service on its node. The wait of a
    // re-leased segment for its first lease to expire is not in it:
    // that is `cluster.recovery_ms_*`, and it shows in `frames_per_s`.
    let op_ms: Vec<f64> = service_intervals(&deliveries)
        .iter()
        .map(|(start, end)| (end - start) as f64 / 1e6)
        .collect();
    let delivered = deliveries.len() as u64;
    PassOut {
        pass: Pass {
            wall_s,
            cpu_s: None,
            frames: if result.is_ok() {
                cfg.total_slots as u64
            } else {
                0
            },
            op_ms,
            ops: segments,
            // A `LeaseFailure` fails every segment it left undelivered.
            failed_ops: segments - delivered.min(segments),
        },
        outcome: result.ok(),
        deliveries,
    }
}

/// The stream a correct reassembly must reproduce byte for byte, and
/// the totals of what it serves.
fn reference(table: &DirectTable, total_slots: usize) -> (Vec<u8>, Served) {
    let frames = table.tiles[0].len();
    let mut bytes = Vec::new();
    let mut served = Served::default();
    for slot in 0..total_slots {
        for tile in &table.tiles[0][slot % frames] {
            bytes.extend_from_slice(&tile.bytes);
        }
        served.add(table, 0, slot % frames);
    }
    (bytes, served)
}

fn outcome_checks(
    cfg: &ClusterConfig,
    outcomes: &[&ClusterOutcome],
    reference: &[u8],
) -> Vec<Check> {
    let identical = outcomes.iter().all(|o| o.bitstream == reference);
    let recovered = outcomes
        .iter()
        .all(|o| o.leases_expired > 0 && !o.recoveries.is_empty() && o.nodes[1].declared_dead);
    vec![
        check(
            "reassembled_equals_direct_encode",
            identical && !outcomes.is_empty(),
            format!(
                "{} passes, {} reference bytes",
                outcomes.len(),
                reference.len()
            ),
        ),
        check(
            "failover_exercised",
            recovered || cfg.nodes[1].kill_after_segments.is_none(),
            "every pass expired leases, recovered segments and condemned node 1",
        ),
    ]
}

pub fn run_timed(args: &RunArgs) -> Timed {
    let (setup_s, setup_host_factor, setup) =
        time_setups(if args.smoke { 1 } else { SETUP_REPS }, || setup(args.seed));
    let cfg = config(args);
    // Warm-up: one segment's worth of direct encodes on this thread.
    for slot in 0..GOP_SLOTS * GOPS_PER_SEGMENT {
        setup.workload.encode_direct(slot, 0);
    }
    let clock = LeaseClock::new(cfg.total_slots / GOP_SLOTS);
    let mut outs = Vec::new();
    // A pass is several seconds long: three samples between passes keep
    // the host factor's sample count near the other workloads'.
    let set = timed_passes(args, 3, NODES, 3, |_, _| {
        let out = one_pass(&cfg, &setup.workload, &clock, &clock);
        let pass = out.pass.clone();
        outs.push(out);
        pass
    });
    let table = DirectTable::build(std::slice::from_ref(&setup.workload));
    let (reference, served) = reference(&table, cfg.total_slots);
    let outcomes: Vec<&ClusterOutcome> = outs.iter().filter_map(|o| o.outcome.as_ref()).collect();
    let mut checks = outcome_checks(&cfg, &outcomes, &reference);
    checks.push(check(
        "no_lease_failure",
        outcomes.len() == outs.len(),
        format!("{} of {} passes completed", outcomes.len(), outs.len()),
    ));
    // Modeled energy and windows depend on which node served which
    // segment; the median pass stands for the run.
    let per_pass = |f: &dyn Fn(&ClusterOutcome) -> f64| {
        median(&outcomes.iter().map(|o| f(o)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let energy_j = per_pass(&|o| o.nodes.iter().map(|n| n.energy_j).sum());
    let on_time = per_pass(&|o| {
        let windows: usize = o.nodes.iter().map(|n| n.windows).sum();
        let misses: usize = o.nodes.iter().map(|n| n.window_misses).sum();
        1.0 - misses as f64 / windows.max(1) as f64
    });
    let mut hashes = BTreeMap::new();
    hashes.insert(
        format!("bitstream.{}", setup.clips[0].name),
        table.clip_hash(0),
    );
    hashes.insert("bitstream.reassembled".into(), fnv1a(&reference));
    Timed {
        setup_s,
        setup_host_factor,
        host_factor: set.host_factor,
        passes: set.passes,
        peak_rss_mb: set.peak_rss_mb,
        exact: served.exact(energy_j, on_time),
        checks,
        hashes,
    }
}

pub fn run_traced(args: &RunArgs) -> Traced {
    let mut out = Traced::default();
    let setup = setup(args.seed);
    let cfg = config(args);
    let clock = LeaseClock::new(cfg.total_slots / GOP_SLOTS);
    // Untraced and traced passes alternate, so both see the same host;
    // the overhead is the median of the pairs' ratios and the last
    // pair supplies the spans and the outcome checks.
    let mut host = HostClock::start(NODES);
    let mut ratios = Vec::new();
    let mut segment_ms = Vec::new();
    let mut last = None;
    for _ in 0..if args.smoke { 1 } else { TRACED_PAIRS } {
        let untraced = one_pass(&cfg, &setup.workload, &clock, &clock);
        host.sample();
        let recorder = FlightRecorder::new(cfg.nodes.len(), 1 << 12);
        let traced = one_pass(&cfg, &setup.workload, &clock, Tee(&clock, &recorder));
        host.sample();
        ratios.push(traced.pass.wall_s / untraced.pass.wall_s);
        segment_ms.extend(untraced.pass.op_ms.iter().chain(&traced.pass.op_ms));
        last = Some((untraced, traced, recorder));
    }
    let (untraced, traced, recorder) = last.expect("at least one pair");
    out.set("host.speed_factor", host.factor());
    for (name, q) in [
        ("cluster.segment_ms_p50", 50.0),
        ("cluster.segment_ms_p75", 75.0),
    ] {
        out.set(name, percentile(&segment_ms, q).unwrap_or(0.0));
    }
    let wall_ns = (traced.pass.wall_s * 1e9) as u64;
    let spans = service_spans(&traced.deliveries, 0, wall_ns);
    let rows = out.book_trace(&TracedPass {
        workload: "cluster_failover",
        spans: &spans,
        wall_ns,
        recorder: &recorder,
        pair_ratios: &ratios,
        slot_secs: 1.0 / FPS,
        keep_stack_trace: true,
    });
    out.set(
        "cluster.idle_share",
        rows.get("cluster").map_or(0.0, |r| r.wall_ns as f64) / wall_ns as f64,
    );

    let table = DirectTable::build(std::slice::from_ref(&setup.workload));
    let (reference, served) = reference(&table, cfg.total_slots);
    let outcomes: Vec<&ClusterOutcome> = [&untraced, &traced]
        .iter()
        .filter_map(|o| o.outcome.as_ref())
        .collect();
    out.checks
        .extend(outcome_checks(&cfg, &outcomes, &reference));
    out.ops = traced.pass.ops;
    out.failed_ops = traced.pass.failed_ops;
    if let Some(o) = &traced.outcome {
        let recovery_ms: Vec<f64> = o.recoveries.iter().map(|r| r.latency_secs * 1e3).collect();
        out.set(
            "cluster.recovery_ms_p50",
            percentile(&recovery_ms, 50.0).unwrap_or(0.0),
        );
        out.set(
            "cluster.recovery_ms_max",
            recovery_ms.iter().copied().fold(0.0, f64::max),
        );
        out.set("cluster.leases_granted", o.leases_granted as f64);
        out.set("cluster.leases_expired", o.leases_expired as f64);
        out.set("cluster.duplicates", o.duplicates as f64);
        let most = o.nodes.iter().map(|n| n.segments).max().unwrap_or(0);
        let least = o.nodes.iter().map(|n| n.segments).min().unwrap_or(0);
        out.set(
            "cluster.node_share_skew",
            if least > 0 {
                most as f64 / least as f64
            } else {
                0.0
            },
        );
    }

    let s = served.stats;
    out.set("encoder.inter_blocks", f64::from(s.inter_blocks));
    out.set("encoder.intra_blocks", f64::from(s.intra_blocks));
    out.set("encoder.transform_samples", s.transform_samples as f64);
    out.set("encoder.bits", s.bits as f64);
    out.set("motion.sad_samples", s.sad_samples as f64);
    out.set(
        "frame.render_ms_per_frame",
        setup.cost.render_s * 1e3 / setup.cost.frames as f64,
    );
    out.set(
        "core.profile_ms_per_frame",
        setup.cost.profile_s * 1e3 / setup.cost.frames as f64,
    );

    let budget_s = replay::replay_budget_s(args, 13);
    replay::analysis(&mut out, &setup.clips, budget_s);
    replay::encoder_stages(&mut out, &setup.clips, false, budget_s);
    replay::motion_stages(&mut out, &setup.clips, budget_s);
    let seg_slots = GOP_SLOTS * GOPS_PER_SEGMENT;
    let frames = table.tiles[0].len();
    let segments: Vec<Vec<u8>> = (0..cfg.total_slots.div_ceil(seg_slots))
        .map(|i| {
            (i * seg_slots..((i + 1) * seg_slots).min(cfg.total_slots))
                .flat_map(|slot| table.tiles[0][slot % frames].iter())
                .flat_map(|t| t.bytes.iter().copied())
                .collect()
        })
        .collect();
    replay::cluster_stages(
        &mut out,
        cfg.total_slots,
        GOPS_PER_SEGMENT,
        &segments,
        budget_s,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use medvt_telemetry::CONTROL_TRACK;

    fn ev(ns: u64, track: u16, kind: EventKind) -> (u64, Event) {
        (ns, Event::new(track, 0, kind))
    }

    #[test]
    fn deliveries_and_service_spans_follow_the_lease_events() {
        let events = [
            ev(0, 0, EventKind::LeaseGranted { segment: 0 }),
            ev(1, 1, EventKind::LeaseGranted { segment: 1 }),
            ev(2, 0, EventKind::LeaseGranted { segment: 2 }),
            ev(
                50,
                CONTROL_TRACK,
                EventKind::SegmentReassembled { segment: 0 },
            ),
            ev(90, 1, EventKind::LeaseExpired { segment: 1 }),
            ev(95, 0, EventKind::LeaseGranted { segment: 1 }),
            ev(
                100,
                CONTROL_TRACK,
                EventKind::SegmentReassembled { segment: 2 },
            ),
            ev(
                160,
                CONTROL_TRACK,
                EventKind::SegmentReassembled { segment: 1 },
            ),
        ];
        let d = deliveries(&events);
        assert_eq!(d.len(), 3);
        // Segment 1 was first leased to node 1 and finally served by
        // node 0 from its 95 ns re-lease.
        assert_eq!(
            d[2],
            Delivery {
                segment: 1,
                node: 0,
                grant_ns: 95,
                done_ns: 160
            }
        );
        let spans = service_spans(&d, 0, 200);
        // Node 0 serves 0 then 2 then 1, back to back.
        let bounds: Vec<(u64, u64)> = spans[1..].iter().map(|s| (s.start_ns, s.end_ns)).collect();
        assert_eq!(bounds, [(0, 50), (50, 100), (100, 160)]);
        let rows = crate::trace::ledger(&spans);
        assert_eq!(rows["encoder"].wall_ns, 160);
        assert_eq!(rows["cluster"].wall_ns, 40);
    }
}
