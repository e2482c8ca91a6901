//! The benchmark's names: workloads, end-to-end metrics with their
//! direction and regression bound, per-layer metrics with the
//! end-to-end metric each is expected to move. `BENCHMARK.json` at the
//! repository root is `e2e manifest` verbatim; `check_names.sh` keeps
//! the two from drifting.

use serde::Value;

use crate::json::{num, obj, s};

/// Seconds one contract run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;
/// Worker threads of every pool — fixed, never read from the host, so
/// numbers stay comparable across hosts.
pub const WORKERS: usize = 2;
pub const DEFAULT_SEED: u64 = 2018;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "live_inter",
        why: "6 live users, inter-coded clips on a 2-worker pool: motion search and the inter residual path do the work, the control plane almost none",
    },
    Workload {
        name: "live_intra",
        why: "4 live users, all-intra still clips: intra prediction, transform+quant and entropy coding do the work and motion none, so a motion gain must be flat here",
    },
    Workload {
        name: "control_churn",
        why: "no encoding: 10k-arrival Poisson/Pareto episodes under a budget on four 64-core analytical shards; admission, sched, LoopDriver and simulate_slot do all the work",
    },
    Workload {
        name: "cluster_failover",
        why: "one stream leased across two nodes with one killed mid-run: the only workload with lease pool, coordinator and reassembly on the blocking path",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "clip render + analysis/profile + trace synthesis, before the first timed pass (median of the run's set-ups)",
    },
    EndToEnd {
        name: "frames_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "user-frames served per wall second, median of passes (live: encoded; control: modeled; cluster: reassembled stream frames)",
    },
    EndToEnd {
        name: "cpu_ms_per_frame",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "process user+sys CPU per user-frame over all timed passes",
    },
    EndToEnd {
        name: "out_bytes_per_frame",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.02,
        what: "bitstream bytes per served user-frame, exact (control: the served tiers' nominal bitrate mix)",
    },
    EndToEnd {
        name: "psnr_db",
        unit: "dB",
        better: Better::Higher,
        bound: 0.005,
        what: "served-frame mean luma PSNR, exact (control: the served tiers' nominal quality mix)",
    },
    EndToEnd {
        name: "joules_per_user_s",
        unit: "J",
        better: Better::Lower,
        bound: 0.04,
        what: "modeled energy per user-second served",
    },
    EndToEnd {
        name: "on_time_rate",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.02,
        what: "modeled deadline windows met / evaluated",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        what: "VmHWM of the workload's process after its timed passes",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `true` when the value is a count made by the program that
    /// repeats exactly from run to run.
    pub count: bool,
    /// The end-to-end metric(s) it should move, and where.
    pub moves: &'static str,
}

const fn timing(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        count: false,
        moves,
    }
}

const fn count(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        count: true,
        moves,
    }
}

const SETUP: &str = "setup_s on workloads with clips; nothing else";
const ENC: &str =
    "frames_per_s, cpu_ms_per_frame, op_ms_p50 on live_* and cluster_failover; flat on control_churn";
const MOTION: &str =
    "frames_per_s, cpu_ms_per_frame on live_inter and cluster_failover; zero work on live_intra";
const POOL: &str = "op_ms_*, frames_per_s on live_*; not cluster_failover";
const CTRL: &str = "op_ms_*, frames_per_s on control_churn";
const CTRL_EXACT: &str = "on_time_rate, joules_per_user_s on control_churn";
const MODEL: &str = "no timing metric: how far on_time_rate and joules_per_user_s can be trusted";
const TEL: &str = "must stay under 5% of frames_per_s";
const CLUSTER: &str = "frames_per_s, cpu_ms_per_frame on cluster_failover only";
const OPS: &str =
    "wall per operation: raw, this run's passes only; on a shared host it is bimodal and does not repeat well enough to carry a bound";

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 73] = [
    timing("frame.render_ms_per_frame", "ms", Lower, SETUP),
    timing("analyze.retile_ms_per_frame", "ms", Lower, SETUP),
    timing("analyze.texture_us_per_tile", "us", Lower, SETUP),
    timing("analyze.motion_probe_us_per_tile", "us", Lower, SETUP),
    count("analyze.tiles_per_frame", "count", SETUP),
    timing("core.profile_ms_per_frame", "ms", Lower, SETUP),
    timing("encoder.tile_us_p50", "us", Lower, ENC),
    timing("encoder.tile_us_p90", "us", Lower, ENC),
    count("encoder.inter_blocks", "count", ENC),
    count("encoder.intra_blocks", "count", ENC),
    count("encoder.transform_samples", "count", ENC),
    count("encoder.bits", "count", "out_bytes_per_frame"),
    timing("encoder.txq_blocks_per_s", "1/s", Higher, ENC),
    timing("encoder.entropy_mbit_per_s", "Mbit/s", Higher, ENC),
    timing("encoder.intra_us_per_block", "us", Lower, ENC),
    count("motion.sad_samples", "count", MOTION),
    count("motion.evals_per_block", "count", MOTION),
    timing("motion.search_us_per_block", "us", Lower, MOTION),
    timing("motion.sad_mcand_per_s", "M/s", Higher, MOTION),
    timing("motion.satd_mcand_per_s", "M/s", Higher, MOTION),
    timing("runtime.slot_ms_p50", "ms", Lower, POOL),
    timing("runtime.slot_ms_p90", "ms", Lower, POOL),
    timing("runtime.window_ms_p50", "ms", Lower, OPS),
    timing("runtime.window_ms_p75", "ms", Lower, OPS),
    timing("runtime.window_ms_p90", "ms", Lower, OPS),
    timing("runtime.idle_share", "ratio", Lower, POOL),
    timing("runtime.worker_skew", "ratio", Lower, POOL),
    timing("runtime.dispatch_us_per_unit", "us", Lower, POOL),
    timing("runtime.driver_us_per_slot", "us", Lower, CTRL),
    timing("sched.replan_us_p50", "us", Lower, CTRL),
    timing("sched.incremental_us_p50", "us", Lower, CTRL),
    count("sched.replayed_per_delta", "count", CTRL),
    count("sched.imbalance", "ratio", "predicts runtime.worker_skew on live_*"),
    timing("mpsoc.slot_us", "us", Lower, CTRL),
    timing("admission.self_share", "ratio", Lower, CTRL),
    timing("admission.queue_ns_per_boundary", "ns", Lower, CTRL),
    timing("admission.placement_ns_per_boundary", "ns", Lower, CTRL),
    count("admission.replans", "count", CTRL),
    count("admission.decisions", "count", CTRL),
    timing("admission.boundary_us_p50", "us", Lower, CTRL),
    timing("admission.boundary_us_p99", "us", Lower, CTRL),
    timing("admission.events_per_s", "1/s", Higher, CTRL),
    timing("admission.episode_ms_p50", "ms", Lower, OPS),
    timing("admission.episode_ms_p75", "ms", Lower, OPS),
    count("admission.admits", "count", CTRL_EXACT),
    count("admission.evicts", "count", CTRL_EXACT),
    count("admission.downgrades", "count", CTRL_EXACT),
    count("admission.departs", "count", CTRL_EXACT),
    count("admission.abandons", "count", CTRL_EXACT),
    count("admission.mean_queue_wait_slots", "slots", CTRL_EXACT),
    timing("admission.trace_synth_ms", "ms", Lower, "setup_s on control_churn"),
    timing("admission.replay_cost_ms", "ms", Lower, "the budget check, outside every timed pass"),
    timing("core.model_ratio", "ratio", Higher, MODEL),
    timing("core.tile_model_ratio_p50", "ratio", Higher, MODEL),
    timing("core.tile_model_ratio_iqr", "ratio", Lower, MODEL),
    timing("telemetry.overhead_pct", "%", Lower, TEL),
    count("telemetry.events", "count", TEL),
    count("telemetry.dropped", "count", "a truncated trace is flagged, never summarised"),
    timing("telemetry.export_ms", "ms", Lower, TEL),
    timing("cluster.recovery_ms_p50", "ms", Lower, CLUSTER),
    timing("cluster.recovery_ms_max", "ms", Lower, CLUSTER),
    timing("cluster.leases_granted", "count", Lower, CLUSTER),
    timing("cluster.leases_expired", "count", Lower, CLUSTER),
    timing("cluster.duplicates", "count", Lower, CLUSTER),
    timing("cluster.node_share_skew", "ratio", Lower, CLUSTER),
    timing("cluster.lease_ops_per_s", "1/s", Higher, CLUSTER),
    timing("cluster.reassemble_mb_per_s", "MB/s", Higher, CLUSTER),
    timing("cluster.plan_us", "us", Lower, CLUSTER),
    timing("cluster.idle_share", "ratio", Lower, CLUSTER),
    timing("cluster.segment_ms_p50", "ms", Lower, OPS),
    timing("cluster.segment_ms_p75", "ms", Lower, OPS),
    timing("telemetry.spans", "count", Lower, "size of the benchmark's own trace"),
    timing(
        "host.speed_factor",
        "ratio",
        Lower,
        "reference-work seconds over nominal around the traced pass: per-layer times are raw, divide by this to compare with end-to-end numbers",
    ),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    obj([
        (
            "command",
            Value::Array(vec![s("bash"), s("benchmark/run.sh")]),
        ),
        ("paths", Value::Array(vec![s("benchmark")])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.word())),
                            ("bound", num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.word())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `e2e list`: every workload and metric with unit and direction.
pub fn list() -> String {
    let mut out = String::new();
    for w in &WORKLOADS {
        out.push_str(&format!("workload {}\t{}\n", w.name, w.why));
    }
    for m in &END_TO_END {
        out.push_str(&format!(
            "end_to_end {}\t{}\t{}\tbound {}\t{}\n",
            m.name,
            m.unit,
            m.better.word(),
            m.bound,
            m.what
        ));
    }
    for m in &PER_LAYER {
        out.push_str(&format!(
            "per_layer {}\t{}\t{}\t{}\t-> {}\n",
            m.name,
            m.unit,
            m.better.word(),
            if m.count { "count" } else { "timing" },
            m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(valid_name(n), "{n}");
            assert!(seen.insert(n), "{n} used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(
                !u.is_empty()
                    && u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{u}"
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(WORKLOADS.len() <= 8 && END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn manifest_has_exactly_the_contract_keys() {
        let m = manifest();
        let Value::Object(entries) = &m else {
            panic!("the manifest is an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(crate::json::pretty(&m).len() < 64 * 1024);
    }
}
