//! Telemetry regression tests: attaching a flight recorder must not
//! change a single serving decision, sim and pool shards must emit
//! identical modeled event streams, the decision events the recorder
//! retains must count what the report counts, and the serialized
//! `OnlineReport`/`ControllerTiming` schema — now a view over
//! telemetry metrics — must stay byte-compatible with the
//! pre-telemetry form.

use medvt::admission::{
    serve_online, serve_online_with, synthesize_trace, OnlineConfig, TraceConfig,
};
use medvt::mpsoc::{Platform, PowerModel};
use medvt::runtime::{ControllerTiming, SimBackend, ThreadPoolBackend};
use medvt::telemetry::{CounterId, Decision, EventKind, FlightRecorder, HistId, Metrics};

mod common;
use common::synthetic_profile as profile;

const SLOT: f64 = 1.0 / 24.0;
const HEADROOM: f64 = 1.15;

fn mixed_profiles() -> Vec<medvt::core::VideoProfile> {
    let unit = SLOT * 0.25 / HEADROOM;
    vec![
        profile("light", "brain", 2, unit),
        profile("heavy", "cardiac", 10, unit),
    ]
}

fn platform() -> Platform {
    Platform::xeon_e5_2667_quad()
}

fn sim_shards() -> Vec<SimBackend> {
    let p = platform();
    (0..p.sockets)
        .map(|s| SimBackend::new(p.socket_view(s), PowerModel::default()))
        .collect()
}

fn pool_shards() -> Vec<ThreadPoolBackend> {
    let p = platform();
    (0..p.sockets)
        .map(|s| ThreadPoolBackend::with_workers(p.socket_view(s), PowerModel::default(), 2))
        .collect()
}

fn config() -> OnlineConfig {
    OnlineConfig {
        horizon_slots: 96,
        ..Default::default()
    }
}

fn trace() -> Vec<medvt::admission::UserRequest> {
    synthesize_trace(&TraceConfig {
        horizon_slots: 96,
        arrivals_per_slot: 1.0,
        min_session_slots: 24,
        tail_alpha: 1.4,
        profiles: 2,
        seed: 11,
    })
}

/// Wall-clock controller costs differ run to run by construction;
/// everything else must be bit-identical.
fn stripped(report: &medvt::admission::OnlineReport) -> medvt::admission::OnlineReport {
    let mut r = report.clone();
    r.controller = ControllerTiming::default();
    r
}

#[test]
fn attaching_a_recorder_changes_no_decisions() {
    let profiles = mixed_profiles();
    let trace = trace();
    let cfg = config();

    let without = serve_online(&cfg, &profiles, &trace, sim_shards());
    let rec = FlightRecorder::new(platform().sockets, 1 << 14);
    let with = serve_online_with(&cfg, &profiles, &trace, sim_shards(), &rec);

    assert_eq!(
        without.events, with.events,
        "recorder attachment must not alter the decision stream"
    );
    assert_eq!(
        stripped(&without),
        stripped(&with),
        "recorder attachment must not alter the modeled report"
    );
    assert!(rec.recorded() > 0, "the recorder must have captured events");
}

/// The report's decision counts are the meter's counters, so the
/// check that means something is against the other channel: the
/// decision events the recorder's rings retained, counted per kind.
#[test]
fn recorded_decision_events_agree_with_the_report() {
    let profiles = mixed_profiles();
    let trace = trace();
    let cfg = config();
    let rec = FlightRecorder::new(platform().sockets, 1 << 14);
    let report = serve_online_with(&cfg, &profiles, &trace, sim_shards(), &rec);

    assert_eq!(rec.dropped(), 0, "the census needs every event retained");
    let decisions: Vec<Decision> = rec
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Decision { kind, .. } => Some(kind),
            _ => None,
        })
        .collect();
    let census = |kind| decisions.iter().filter(|&&d| d == kind).count();
    assert_eq!(decisions.len(), report.events.len());
    assert_eq!(census(Decision::Admit), report.admissions);
    assert_eq!(census(Decision::Evict), report.evictions);
    assert_eq!(census(Decision::Depart), report.departures);
    assert_eq!(census(Decision::Abandon), report.abandoned);
    assert_eq!(census(Decision::Reject), report.rejected);
    assert!(report.admissions > 0 && report.departures > 0);

    let m = rec.metrics();
    assert!(m.counter(CounterId::Boundaries) > 0);
    assert!(m.counter(CounterId::SlotsExecuted) > 0);

    // The snapshot serializes every counter under its stable name.
    let snapshot = serde_json::to_string(&rec.snapshot()).expect("snapshot serializes");
    for name in ["admits", "evicts", "boundaries", "placement_ns"] {
        assert!(
            snapshot.contains(&format!("\"{name}\"")) || snapshot.contains(name),
            "snapshot must carry metric {name}: {snapshot}"
        );
    }
}

#[test]
fn sim_and_pool_emit_identical_modeled_event_streams() {
    let profiles = mixed_profiles();
    let trace = trace();
    let cfg = config();

    let rec_sim = FlightRecorder::modeled(platform().sockets, 1 << 14);
    let rec_pool = FlightRecorder::modeled(platform().sockets, 1 << 14);
    let sim = serve_online_with(&cfg, &profiles, &trace, sim_shards(), &rec_sim);
    let pool = serve_online_with(&cfg, &profiles, &trace, pool_shards(), &rec_pool);

    assert_eq!(sim.events, pool.events, "decision parity");
    let sim_events = rec_sim.events();
    let pool_events = rec_pool.events();
    assert!(!sim_events.is_empty(), "streams must be non-trivial");
    assert!(
        sim_events
            .iter()
            .any(|e| matches!(e.kind, EventKind::SlotCore { .. })),
        "streams must include per-core slot spans"
    );
    assert_eq!(
        sim_events, pool_events,
        "telemetry streams must be bit-identical across backends"
    );
}

/// `ControllerTiming` is now a view over telemetry counters and
/// histogram sums; its serialized form — field names, order, and
/// integer widths — must stay exactly what pre-telemetry reports
/// carried.
#[test]
fn controller_timing_schema_is_frozen() {
    assert_eq!(
        serde_json::to_string(&ControllerTiming::default()).unwrap(),
        r#"{"boundaries":0,"replans":0,"placement_ns":0,"queue_ns":0,"decisions":0}"#
    );

    let m = Metrics::new();
    m.add(CounterId::Boundaries, 3);
    m.add(CounterId::Replans, 2);
    m.add(CounterId::Decisions, 7);
    m.observe(HistId::PlacementNs, 1_000);
    m.observe(HistId::PlacementNs, 500);
    m.observe(HistId::BoundaryNs, 250);
    let timing = ControllerTiming::from_metrics(&m);
    assert_eq!(
        serde_json::to_string(&timing).unwrap(),
        r#"{"boundaries":3,"replans":2,"placement_ns":1500,"queue_ns":250,"decisions":7}"#,
        "histogram sums must reproduce the exact pre-telemetry values"
    );
}

/// The `OnlineReport` JSON keeps its top-level keys in the frozen
/// order, with the controller block embedded under `controller`.
#[test]
fn online_report_serialized_schema_is_stable() {
    let profiles = mixed_profiles();
    let trace = trace();
    let report = serve_online(&config(), &profiles, &trace, sim_shards());
    let json = serde_json::to_string(&report).expect("report serializes");

    let expected_keys = [
        "shard_policy",
        "horizon_slots",
        "arrivals",
        "admissions",
        "evictions",
        "departures",
        "abandoned",
        "rejected",
        "queued_at_end",
        "active_at_end",
        "mean_queue_wait_slots",
        "avg_concurrent_users",
        "peak_concurrent_users",
        "windows",
        "window_misses",
        "energy_j",
        "shards",
        "events",
        "controller",
    ];
    let mut cursor = 0;
    for key in expected_keys {
        let needle = format!("\"{key}\":");
        let at = json[cursor..]
            .find(&needle)
            .unwrap_or_else(|| panic!("report JSON must carry key {key} in order"));
        cursor += at + needle.len();
    }
    assert!(
        json.contains(r#""controller":{"boundaries":"#),
        "controller block must keep its leading field"
    );
}
