//! `e2e` — the repository's end-to-end benchmark.
//!
//! ```text
//! e2e --workload W --seed N --seconds S --trace 0|1   one run, one result line
//! e2e [run] [--seed N] [--seconds S] [--reps R] [--smoke]
//!                                                     every workload, every metric
//! e2e list                                            names, units, directions
//! e2e manifest                                        the contents of BENCHMARK.json
//! e2e compare A.json B.json                           verdict per (metric, workload)
//! ```
//!
//! The binary reaches the system under test only through the layer
//! crates' public APIs; see `benchmark/README.md` for what is measured
//! and why.

mod cluster;
mod compare;
mod control;
mod host;
mod json;
mod live;
mod replay;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use serde::Value;

use json::{num, obj, opt_num, s};
use run::{Check, RunArgs, Timed, Traced};

/// Where traces and result documents go, relative to the working
/// directory (git-ignored).
const OUT_DIR: &str = "target/benchmark";

/// Writes the benchmark's spans (and, when given, the stack's own
/// flight-recorder export beside them) and returns the span file.
fn write_trace(workload: &str, spans: &[trace::Span], telemetry: Option<&str>) -> String {
    let dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&dir).expect("create target/benchmark");
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, trace::chrome_trace(spans, workload)).expect("write trace");
    if let Some(text) = telemetry {
        std::fs::write(dir.join(format!("{workload}.telemetry.trace.json")), text)
            .expect("write telemetry trace");
    }
    path.display().to_string()
}

fn checks_json(checks: &[Check]) -> Value {
    Value::Array(
        checks
            .iter()
            .map(|c| {
                obj([
                    ("name", s(&c.name)),
                    ("ok", Value::Bool(c.ok)),
                    ("detail", s(&c.detail)),
                ])
            })
            .collect(),
    )
}

/// One run's result: the contract's last line, plus everything else a
/// reader of the run wants (written to `--detail`).
struct RunResult {
    attempted: u64,
    failed: u64,
    /// (name, value, unit), in manifest order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    checks: Vec<Check>,
    /// Workload-specific entries of the detail document.
    detail: Vec<(&'static str, Value)>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The result object the pipeline reads.
    fn line(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    obj([("value", num(value)), ("unit", s(unit))]),
                )
            })
            .collect();
        obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("metrics", Value::Object(metrics)),
        ])
    }
}

fn floats(values: impl Iterator<Item = f64>) -> Value {
    Value::Array(values.map(num).collect())
}

fn timed_result(t: &Timed) -> RunResult {
    let mut checks = t.checks.clone();
    let mut metrics = Vec::new();
    for (m, (name, value)) in spec::END_TO_END.iter().zip(t.end_to_end()) {
        debug_assert_eq!(m.name, name);
        match value.filter(|v| v.is_finite()) {
            Some(v) => metrics.push((m.name, v, m.unit)),
            None => checks.push(run::check(
                name,
                false,
                "the host could not supply this metric",
            )),
        }
    }
    let detail = vec![
        ("passes", Value::U64(t.passes.len() as u64)),
        ("frames", Value::U64(t.frames())),
        ("pass_wall_s", floats(t.passes.iter().map(|p| p.wall_s))),
        ("host_factor", num(t.host_factor)),
        (
            "pass_cpu_s",
            Value::Array(t.passes.iter().map(|p| opt_num(p.cpu_s)).collect()),
        ),
        (
            "pass_op_ms",
            Value::Array(
                t.passes
                    .iter()
                    .map(|p| floats(p.op_ms.iter().copied()))
                    .collect(),
            ),
        ),
        ("setup_s", floats(t.setup_s.iter().copied())),
        ("setup_host_factor", num(t.setup_host_factor)),
        (
            "hashes",
            Value::Object(t.hashes.iter().map(|(k, v)| (k.clone(), s(v))).collect()),
        ),
    ];
    RunResult {
        attempted: t.ops().max(1),
        failed: t.failed_ops() + (checks.len() - t.checks.len()) as u64,
        metrics,
        checks,
        detail,
    }
}

fn traced_result(t: &Traced) -> RunResult {
    let metrics = spec::PER_LAYER
        .iter()
        .map(|m| {
            let v = t.layer.get(m.name).copied().filter(|v| v.is_finite());
            (m.name, v.unwrap_or(0.0), m.unit)
        })
        .collect();
    let failed_checks = t.checks.iter().filter(|c| !c.ok).count() as u64;
    RunResult {
        attempted: t.ops.max(1),
        failed: t.failed_ops + failed_checks,
        metrics,
        checks: t.checks.clone(),
        detail: vec![
            ("ledger", t.ledger.clone()),
            ("trace_file", s(&t.trace_file)),
        ],
    }
}

fn run_one(workload: &str, trace: bool, args: &RunArgs) -> RunResult {
    match (workload, trace) {
        ("live_inter", false) => timed_result(&live::run_timed(&live::inter_spec(), args)),
        ("live_inter", true) => traced_result(&live::run_traced(&live::inter_spec(), args)),
        ("live_intra", false) => timed_result(&live::run_timed(&live::intra_spec(), args)),
        ("live_intra", true) => traced_result(&live::run_traced(&live::intra_spec(), args)),
        ("control_churn", false) => timed_result(&control::run_timed(args)),
        ("control_churn", true) => traced_result(&control::run_traced(args)),
        ("cluster_failover", false) => timed_result(&cluster::run_timed(args)),
        ("cluster_failover", true) => traced_result(&cluster::run_traced(args)),
        _ => unreachable!("workload names are validated by the caller"),
    }
}

/// Parsed command line: flags with values, and bare words in order.
struct Cli {
    flags: Vec<(String, String)>,
    words: Vec<String>,
    smoke: bool,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            flags: Vec::new(),
            words: Vec::new(),
            smoke: false,
        };
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            if a == "--smoke" {
                cli.smoke = true;
            } else if let Some(flag) = a.strip_prefix("--") {
                let value = args.next().ok_or(format!("--{flag} needs a value"))?;
                cli.flags.push((flag.to_string(), value));
            } else {
                cli.words.push(a);
            }
        }
        Ok(cli)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{flag}: cannot read {v:?}")),
        }
    }

    fn run_args(&self) -> Result<RunArgs, String> {
        let seconds: f64 = self.number("seconds", spec::RUN_SECONDS as f64)?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} is outside (0, 600]"));
        }
        Ok(RunArgs {
            seed: self.number("seed", spec::DEFAULT_SEED)?,
            seconds,
            smoke: self.smoke,
        })
    }
}

fn single(cli: &Cli) -> Result<ExitCode, String> {
    let workload = cli.get("workload").expect("caller checked");
    if spec::workload(workload).is_none() {
        return Err(format!("unknown workload {workload:?}; see `e2e list`"));
    }
    let trace = match cli.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let args = cli.run_args()?;
    let result = run_one(workload, trace, &args);
    let host = host::HostInfo::probe(spec::WORKERS);
    let line = result.line();
    if let Some(path) = cli.get("detail") {
        let mut detail = result.detail.clone();
        detail.push(("checks", checks_json(&result.checks)));
        let doc = obj([
            ("workload", s(workload)),
            ("trace", Value::Bool(trace)),
            ("seed", Value::U64(args.seed)),
            ("seconds", num(args.seconds)),
            ("smoke", Value::Bool(args.smoke)),
            ("host", suite::host_json(&host)),
            ("result", line.clone()),
            (
                "detail",
                Value::Object(detail.into_iter().map(|(k, v)| (k.into(), v)).collect()),
            ),
        ]);
        std::fs::write(path, json::pretty(&doc)).map_err(|e| format!("{path}: {e}"))?;
    }
    for (name, value, unit) in &result.metrics {
        eprintln!("{workload:<18} {name:<36} {value:>16.6} {unit}");
    }
    for c in &result.checks {
        eprintln!(
            "{workload:<18} check {:<40} {} {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail,
        );
    }
    eprintln!(
        "{workload:<18} ops {} failed_ops {} host_threads {} simd {}{}",
        result.attempted,
        result.failed,
        host.hardware_threads,
        host.simd_tier,
        if host.undersized_host {
            " undersized_host"
        } else {
            ""
        },
    );
    println!("{}", json::compact(&line));
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch() -> Result<ExitCode, String> {
    let cli = Cli::parse(std::env::args().skip(1))?;
    match cli.words.first().map(String::as_str) {
        Some("list") => {
            print!("{}", spec::list());
            Ok(ExitCode::SUCCESS)
        }
        Some("manifest") => {
            println!("{}", json::pretty(&spec::manifest()));
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match &cli.words[1..] {
            [a, b] => compare::main(a, b),
            _ => Err("usage: e2e compare A.json B.json".into()),
        },
        None | Some("run") if cli.get("workload").is_some() => single(&cli),
        None | Some("run") => suite::main(&cli),
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    dispatch().unwrap_or_else(|e| {
        eprintln!("e2e: {e}");
        ExitCode::from(2)
    })
}
