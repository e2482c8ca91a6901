//! `e2e run`: every workload, every metric, one command. Each
//! (workload, repetition) is a child process of its own — so peak RSS
//! and set-up are per workload — launched in interleaved order
//! (A B C D A B C D …) so slow drift of the host hits every workload
//! alike; one more child per workload runs the traced pass.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use serde::Value;

use crate::host::HostInfo;
use crate::json::{self, num, obj, opt_num, s};
use crate::spec::{self, Better};
use crate::stats::{iqr_share, median};
use crate::{Cli, OUT_DIR};

pub fn host_json(h: &HostInfo) -> Value {
    obj([
        ("hardware_threads", Value::U64(h.hardware_threads as u64)),
        ("workers", Value::U64(spec::WORKERS as u64)),
        ("undersized_host", Value::Bool(h.undersized_host)),
        ("simd_tier", s(h.simd_tier)),
        ("rustc", s(crate::host::rustc_version())),
    ])
}

/// Runs one child and returns its detail document.
fn child(workload: &str, trace: bool, cli: &Cli, seconds: f64, tag: &str) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let detail: PathBuf = Path::new(OUT_DIR).join(format!("{workload}.{tag}.json"));
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .args([
        "--seed",
        cli.get("seed").unwrap_or(&spec::DEFAULT_SEED.to_string()),
    ])
    .args(["--seconds", &seconds.to_string()])
    .arg("--detail")
    .arg(&detail);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
    }
    let text = std::fs::read_to_string(&detail)
        .map_err(|e| format!("{workload} ({tag}) left no result ({}): {e}", out.status))?;
    json::parse(&text)
}

fn metric_value(doc: &Value, name: &str) -> Option<f64> {
    let metrics = json::get(json::get(doc, "result")?, "metrics")?;
    json::as_f64(json::get(json::get(metrics, name)?, "value")?)
}

fn result_field(doc: &Value, field: &str) -> Value {
    json::get(doc, "result")
        .and_then(|r| json::get(r, field))
        .cloned()
        .unwrap_or(Value::Null)
}

fn failed_checks(doc: &Value) -> Vec<String> {
    json::get(doc, "detail")
        .and_then(|d| json::get(d, "checks"))
        .and_then(json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter(|c| !matches!(json::get(c, "ok"), Some(Value::Bool(true))))
        .filter_map(|c| {
            json::get(c, "name")
                .and_then(json::as_str)
                .map(String::from)
        })
        .collect()
}

pub fn main(cli: &Cli) -> Result<ExitCode, String> {
    let args = cli.run_args()?;
    let reps: usize = cli.number("reps", if cli.smoke { 1 } else { 3 })?;
    if reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    let host = HostInfo::probe(spec::WORKERS);
    let mut timed: Vec<Vec<Value>> = vec![Vec::new(); spec::WORKLOADS.len()];
    for rep in 0..reps {
        for (w, workload) in spec::WORKLOADS.iter().enumerate() {
            eprintln!("e2e: {} pass-set {}/{}", workload.name, rep + 1, reps);
            timed[w].push(child(
                workload.name,
                false,
                cli,
                args.seconds,
                &format!("run{rep}"),
            )?);
        }
    }
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (w, workload) in spec::WORKLOADS.iter().enumerate() {
        eprintln!("e2e: {} traced pass", workload.name);
        let traced = child(workload.name, true, cli, args.seconds, "traced")?;
        let mut end_to_end = Vec::new();
        for m in &spec::END_TO_END {
            let runs: Vec<f64> = timed[w]
                .iter()
                .filter_map(|d| metric_value(d, m.name))
                .collect();
            let mid = median(&runs);
            eprintln!(
                "{:<18} {:<22} {:>16} {:<6} {} (runs {})",
                workload.name,
                m.name,
                mid.map_or("n/a".into(), |v| format!("{v:.6}")),
                m.unit,
                match m.better {
                    Better::Higher => "higher is better",
                    Better::Lower => "lower is better",
                },
                runs.len(),
            );
            end_to_end.push((
                m.name.to_string(),
                obj([
                    ("unit", s(m.unit)),
                    ("better", s(m.better.word())),
                    ("bound", num(m.bound)),
                    ("median", opt_num(mid)),
                    ("iqr_share", opt_num(iqr_share(&runs))),
                    ("runs", Value::Array(runs.iter().map(|&v| num(v)).collect())),
                ]),
            ));
        }
        let mut per_layer = Vec::new();
        for m in &spec::PER_LAYER {
            let v = metric_value(&traced, m.name);
            eprintln!(
                "{:<18} {:<36} {:>16} {}",
                workload.name,
                m.name,
                v.map_or("n/a".into(), |v| format!("{v:.6}")),
                m.unit
            );
            per_layer.push((
                m.name.to_string(),
                obj([("unit", s(m.unit)), ("value", opt_num(v))]),
            ));
        }
        let ops: u64 = timed[w]
            .iter()
            .filter_map(|d| json::as_f64(&result_field(d, "attempted")))
            .sum::<f64>() as u64;
        let failed_ops: u64 = timed[w]
            .iter()
            .chain([&traced])
            .filter_map(|d| json::as_f64(&result_field(d, "failed")))
            .sum::<f64>() as u64;
        let failures: Vec<String> = timed[w]
            .iter()
            .chain([&traced])
            .flat_map(failed_checks)
            .collect();
        let correct = timed[w]
            .iter()
            .chain([&traced])
            .all(|d| matches!(result_field(d, "correct"), Value::Bool(true)));
        all_correct &= correct;
        eprintln!(
            "{:<18} ops {ops} failed_ops {failed_ops} checks {}",
            workload.name,
            if failures.is_empty() {
                "all ok".to_string()
            } else {
                format!("FAILED: {}", failures.join(", "))
            }
        );
        let detail_of = |d: &Value, key: &str| {
            json::get(d, "detail")
                .and_then(|x| json::get(x, key))
                .cloned()
                .unwrap_or(Value::Null)
        };
        workloads.push((
            workload.name.to_string(),
            obj([
                ("why", s(workload.why)),
                ("correct", Value::Bool(correct)),
                ("ops", Value::U64(ops)),
                ("failed_ops", Value::U64(failed_ops)),
                (
                    "failed_checks",
                    Value::Array(failures.iter().map(s).collect()),
                ),
                ("end_to_end", Value::Object(end_to_end)),
                ("per_layer", Value::Object(per_layer)),
                ("hashes", detail_of(&timed[w][0], "hashes")),
                ("ledger", detail_of(&traced, "ledger")),
                ("trace_file", detail_of(&traced, "trace_file")),
            ]),
        ));
    }
    let doc = obj([
        ("schema", Value::U64(1)),
        ("smoke", Value::Bool(cli.smoke)),
        ("seed", Value::U64(args.seed)),
        ("seconds", num(args.seconds)),
        ("reps", Value::U64(reps as u64)),
        ("host", host_json(&host)),
        ("workloads", Value::Object(workloads)),
    ]);
    let text = json::pretty(&doc);
    let path = Path::new(OUT_DIR).join("e2e.json");
    std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("e2e: wrote {}", path.display());
    println!("{text}");
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
