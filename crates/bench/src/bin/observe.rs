//! Flight-recorder overhead gate: proves that attaching telemetry is
//! cheap and changes no decision.
//!
//! The 256-core control-plane fleet serves 10³ and 10⁴ users twice
//! each: recorder disabled (`NoopRecorder`, the statically
//! compiled-out path) and enabled (`FlightRecorder` capturing every
//! event plus counters/histograms). Each cost is the minimum wall time
//! over `MEASURE_REPS` repetitions of the deterministic run; at the
//! largest population the enabled run must stay within 5% relative (or
//! 10 ms absolute, below host noise) of disabled, and at every
//! population both runs must produce bit-identical decision streams
//! and modeled reports.
//!
//! This is the one assertion the end-to-end benchmark does not carry:
//! `benchmark/` reports `telemetry.overhead_pct` per workload, but
//! per-layer rows have no bound. Backend event parity lives in
//! `tests/telemetry_parity.rs` and `tests/live_transcode.rs`; every
//! traced `benchmark/run.sh` workload writes a Perfetto export to
//! `target/benchmark/<workload>.telemetry.trace.json`.
//!
//! Writes `observe_bench.json` under `MEDVT_OUT` like the other
//! experiment binaries.

use medvt_admission::{
    serve_online, serve_online_with, synthesize_trace, OnlineConfig, OnlineReport, TraceConfig,
    UserRequest, Workload,
};
use medvt_bench::write_artifact;
use medvt_mpsoc::{DvfsPolicy, FrequencySet, Platform, PowerModel};
use medvt_runtime::{ControllerTiming, SimBackend};
use medvt_telemetry::{FlightRecorder, TelemetrySnapshot};
use serde::Serialize;
use std::time::Instant;

const HORIZON: usize = 192;
const GOP_SLOTS: usize = 4;
const FPS: f64 = 24.0;
const HEADROOM: f64 = 1.15;
/// Runs are deterministic, so wall-time differences between
/// repetitions are pure host noise; minima over this many repetitions
/// keep the overhead gate noise-robust.
const MEASURE_REPS: usize = 5;
/// Relative overhead budget for telemetry-enabled serving.
const GATE_RELATIVE: f64 = 0.05;
/// Absolute floor: these runs finish in milliseconds, where a 5% band
/// is smaller than scheduler jitter on a shared host.
const GATE_ABS_MS: f64 = 10.0;
/// Per-ring event retention for the overhead run: bounded by design —
/// a sweep emits more slot events than this, the dropped counters in
/// the snapshot prove retention stayed bounded, and the 128 KiB-per-ring
/// footprint keeps the write path cache-resident.
const RING_CAPACITY: usize = 1 << 12;

/// A slot-invariant tier: demand never changes, so the controller's
/// steady-state fast path applies and the measured delta is telemetry,
/// not re-estimation.
struct SteadyTier {
    tiles: usize,
    secs: f64,
}

impl Workload for SteadyTier {
    fn steady_demand(&self) -> Vec<f64> {
        vec![self.secs; self.tiles]
    }
    fn demand_at(&self, _slot: usize) -> Vec<f64> {
        vec![self.secs; self.tiles]
    }
    fn steady(&self) -> bool {
        true
    }
}

fn tiers() -> Vec<SteadyTier> {
    let unit = (1.0 / FPS) / HEADROOM;
    vec![
        SteadyTier {
            tiles: 1,
            secs: unit,
        },
        SteadyTier {
            tiles: 2,
            secs: unit,
        },
        SteadyTier {
            tiles: 4,
            secs: unit,
        },
    ]
}

/// The 256-core serving fleet (the `control_churn` workload's shape).
fn fleet() -> Platform {
    Platform::new("scale fleet", 4, 64, FrequencySet::xeon_e5_2667(), 10e-6)
}

fn shards() -> Vec<SimBackend> {
    let p = fleet();
    (0..p.sockets)
        .map(|s| SimBackend::new(p.socket_view(s), PowerModel::default()))
        .collect()
}

fn online_config() -> OnlineConfig {
    OnlineConfig {
        fps: FPS,
        gop_slots: GOP_SLOTS,
        horizon_slots: HORIZON,
        headroom: HEADROOM,
        policy: DvfsPolicy::StretchToDeadline,
        evict_miss_windows: 1,
        cost: medvt_admission::CostPlan::unlimited(),
        ..OnlineConfig::default()
    }
}

fn trace_for(users: usize) -> Vec<UserRequest> {
    synthesize_trace(&TraceConfig {
        horizon_slots: HORIZON,
        arrivals_per_slot: users as f64 / HORIZON as f64,
        min_session_slots: 48,
        tail_alpha: 1.4,
        profiles: 3,
        seed: 2018,
    })
}

/// A report with its wall-clock controller costs dropped — what must
/// be bit-identical between the recorder-on and recorder-off runs.
fn stripped(report: &OnlineReport) -> OnlineReport {
    let mut r = report.clone();
    r.controller = ControllerTiming::default();
    r
}

#[derive(Debug, Serialize)]
struct OverheadGate {
    users: usize,
    /// Whether the <5% gate was asserted at this population (it is
    /// enforced at the sweep's largest population, where the fixed
    /// per-event cost amortizes over real controller work; smaller
    /// runs are reported for the curve).
    gate_enforced: bool,
    arrivals: usize,
    admissions: usize,
    measure_reps: usize,
    disabled_wall_ms: f64,
    enabled_wall_ms: f64,
    overhead_ms: f64,
    overhead_pct: f64,
    gate_relative_pct: f64,
    gate_abs_ms: f64,
    /// Decision streams and wall-stripped reports bit-identical with
    /// the recorder on vs off.
    decisions_identical: bool,
    /// Events recorded by the enabled run (including overwritten).
    events_recorded: u64,
    /// Events lost to bounded ring retention — nonzero by design at
    /// this population, proving retention stays bounded.
    events_dropped: u64,
    /// Counters, histogram quantiles and ring stats of the enabled
    /// run.
    telemetry: TelemetrySnapshot,
}

/// Serve a sweep with the recorder off and on; when `enforce` is set,
/// assert the wall-time delta stays inside the gate.
fn overhead_gate(users: usize, enforce: bool) -> OverheadGate {
    let profiles = tiers();
    let cfg = online_config();
    let trace = trace_for(users);

    // One warm scratch recorder for the timed reps: its rings are
    // first-touched by an untimed run, so the timed deltas measure
    // recording cost, not page faults on 2.5 MB of fresh ring memory.
    // Disabled and enabled reps interleave so slow drift in host load
    // hits both sides equally; the minimum over reps drops the noise.
    let scratch = FlightRecorder::new(fleet().sockets, RING_CAPACITY);
    serve_online_with(&cfg, &profiles, &trace, shards(), &scratch);

    let mut disabled_ms = f64::INFINITY;
    let mut enabled_ms = f64::INFINITY;
    let mut disabled_report = None;
    for _ in 0..MEASURE_REPS {
        let clock = Instant::now();
        let report = serve_online(&cfg, &profiles, &trace, shards());
        disabled_ms = disabled_ms.min(clock.elapsed().as_secs_f64() * 1e3);
        disabled_report = Some(report);
        let clock = Instant::now();
        serve_online_with(&cfg, &profiles, &trace, shards(), &scratch);
        enabled_ms = enabled_ms.min(clock.elapsed().as_secs_f64() * 1e3);
    }
    let disabled_report = disabled_report.expect("at least one disabled rep");

    // Canonical enabled run on a fresh recorder, untimed: exact
    // single-run counters and ring stats for the artifact.
    let rec = FlightRecorder::new(fleet().sockets, RING_CAPACITY);
    let enabled_report = serve_online_with(&cfg, &profiles, &trace, shards(), &rec);

    let decisions_identical = enabled_report.events == disabled_report.events
        && stripped(&enabled_report) == stripped(&disabled_report);
    assert!(
        decisions_identical,
        "attaching a flight recorder must not change a single decision"
    );

    let overhead_ms = enabled_ms - disabled_ms;
    let overhead_pct = overhead_ms / disabled_ms.max(1e-9) * 100.0;
    println!(
        "overhead at {users} users: disabled {disabled_ms:.3} ms, enabled {enabled_ms:.3} ms \
         ({overhead_pct:+.2}%, {overhead_ms:+.3} ms), {} events recorded ({} dropped)",
        rec.recorded(),
        rec.dropped()
    );
    if enforce {
        assert!(
            overhead_pct <= GATE_RELATIVE * 100.0 || overhead_ms <= GATE_ABS_MS,
            "telemetry overhead {overhead_pct:.2}% ({overhead_ms:.3} ms) exceeds the gate \
             ({}% relative, {GATE_ABS_MS} ms absolute)",
            GATE_RELATIVE * 100.0
        );
    }

    OverheadGate {
        users,
        gate_enforced: enforce,
        arrivals: enabled_report.arrivals,
        admissions: enabled_report.admissions,
        measure_reps: MEASURE_REPS,
        disabled_wall_ms: disabled_ms,
        enabled_wall_ms: enabled_ms,
        overhead_ms,
        overhead_pct,
        gate_relative_pct: GATE_RELATIVE * 100.0,
        gate_abs_ms: GATE_ABS_MS,
        decisions_identical,
        events_recorded: rec.recorded(),
        events_dropped: rec.dropped(),
        telemetry: rec.snapshot(),
    }
}

#[derive(Debug, Serialize)]
struct ObserveArtifact {
    platform: String,
    sockets: usize,
    cores_per_socket: usize,
    horizon_slots: usize,
    gop_slots: usize,
    /// One entry per population; the gate is enforced at the largest.
    overhead: Vec<OverheadGate>,
}

fn main() {
    let platform = fleet();
    println!(
        "telemetry overhead gate on {} ({} sockets x {} cores), horizon {HORIZON} slots",
        platform.name,
        platform.sockets,
        platform.cores_per_socket()
    );

    // The gate is enforced at the largest population, where
    // per-boundary controller work dominates and the fixed per-event
    // cost must disappear into it. The smaller run documents the worst
    // case (short run, dense events) without gating on host noise.
    let populations = [1_000usize, 10_000];
    let overhead: Vec<OverheadGate> = populations
        .iter()
        .map(|&users| overhead_gate(users, users == *populations.last().unwrap()))
        .collect();

    let artifact = ObserveArtifact {
        platform: platform.name.clone(),
        sockets: platform.sockets,
        cores_per_socket: platform.cores_per_socket(),
        horizon_slots: HORIZON,
        gop_slots: GOP_SLOTS,
        overhead,
    };
    let path = write_artifact("observe_bench", &artifact);
    println!("artifact: {}", path.display());
}
