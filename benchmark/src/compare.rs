//! `e2e compare A.json B.json`: applies each end-to-end metric's
//! direction and bound to every (metric, workload) pair of two `e2e
//! run` documents, A the parent and B the change.

use std::process::ExitCode;

use serde::Value;

use crate::json;
use crate::spec::{self, Better};
use crate::stats::{iqr_share, median};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the parent by more than the bound.
    Pass,
    /// Worse than the parent by more than the bound.
    Regress,
    /// The runs of one side spread wider than the bound, and the sides
    /// overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Regress => "REGRESS",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Run-to-run spread as a share of the median: the quartile distance
/// when there are enough runs for one, the full range otherwise.
fn spread(runs: &[f64]) -> f64 {
    if runs.len() >= 4 {
        return iqr_share(runs).unwrap_or(0.0);
    }
    let lo = runs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = runs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    match median(runs) {
        Some(m) if m != 0.0 => (hi - lo) / m.abs(),
        _ => 0.0,
    }
}

/// How much worse B's median is than A's, as a share of A's (negative:
/// better), together with the verdict.
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Option<(f64, Verdict)> {
    let (ma, mb) = (median(a)?, median(b)?);
    if ma == 0.0 {
        return None;
    }
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let is_worse = |x: f64, than: f64| match better {
        Better::Lower => x > than,
        Better::Higher => x < than,
    };
    let all = |pred: &dyn Fn(f64, f64) -> bool| b.iter().all(|&x| a.iter().all(|&y| pred(x, y)));
    let verdict = if spread(a).max(spread(b)) <= bound {
        if worse_by > bound {
            Verdict::Regress
        } else {
            Verdict::Pass
        }
    } else if all(&|x, y| !is_worse(x, y)) {
        Verdict::Pass
    } else if worse_by > bound && all(&|x, y| is_worse(x, y)) {
        Verdict::Regress
    } else {
        Verdict::Unresolved
    };
    Some((worse_by, verdict))
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if matches!(json::get(&doc, "smoke"), Some(Value::Bool(true))) {
        return Err(format!(
            "{path} is a --smoke result: it checks wiring and is not a measurement"
        ));
    }
    if json::get(&doc, "workloads").is_none() {
        return Err(format!("{path} is not an `e2e run` document"));
    }
    Ok(doc)
}

fn runs_of(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    json::get(doc, "workloads")
        .and_then(|w| json::get(w, workload))
        .and_then(|w| json::get(w, "end_to_end"))
        .and_then(|m| json::get(m, metric))
        .and_then(|m| json::get(m, "runs"))
        .and_then(json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(json::as_f64)
        .collect()
}

fn layer_value(doc: &Value, workload: &str, metric: &str) -> Option<f64> {
    json::get(doc, "workloads")
        .and_then(|w| json::get(w, workload))
        .and_then(|w| json::get(w, "per_layer"))
        .and_then(|m| json::get(m, metric))
        .and_then(|m| json::get(m, "value"))
        .and_then(json::as_f64)
}

/// One row per (metric, workload); the verdicts, for the exit code.
pub fn report(a: &Value, b: &Value) -> (String, Vec<Verdict>) {
    let mut out = String::new();
    let mut verdicts = Vec::new();
    out.push_str(&format!(
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    ));
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let (ra, rb) = (runs_of(a, w.name, m.name), runs_of(b, w.name, m.name));
            let row = match judge(m.better, m.bound, &ra, &rb) {
                Some((worse_by, v)) => {
                    verdicts.push(v);
                    format!(
                        "{:>14.6} {:>14.6} {:>+8.2}% {:>6.2}%  {} (base {:.6} {}, {}+{} runs)",
                        median(&ra).unwrap_or(f64::NAN),
                        median(&rb).unwrap_or(f64::NAN),
                        worse_by * 100.0,
                        m.bound * 100.0,
                        v.word(),
                        median(&ra).unwrap_or(f64::NAN),
                        m.unit,
                        ra.len(),
                        rb.len(),
                    )
                }
                None => {
                    verdicts.push(Verdict::Unresolved);
                    format!(
                        "{:>14} {:>14} {:>9} {:>7}  unresolved (missing on a side)",
                        "-", "-", "-", "-"
                    )
                }
            };
            out.push_str(&format!("{:<18} {:<22} {row}\n", w.name, m.name));
        }
    }
    // Counts made by the program repeat exactly on one commit; a
    // difference is a changed output or a moved counter, not noise.
    for w in &spec::WORKLOADS {
        for m in spec::PER_LAYER.iter().filter(|m| m.count) {
            let (va, vb) = (
                layer_value(a, w.name, m.name),
                layer_value(b, w.name, m.name),
            );
            if va != vb {
                out.push_str(&format!(
                    "{:<18} {:<22} count differs: {:?} -> {:?}\n",
                    w.name, m.name, va, vb
                ));
            }
        }
    }
    (out, verdicts)
}

pub fn main(a: &str, b: &str) -> Result<ExitCode, String> {
    let (text, verdicts) = report(&load(a)?, &load(b)?);
    print!("{text}");
    let count = |v: Verdict| verdicts.iter().filter(|&&x| x == v).count();
    println!(
        "{} pass, {} regress, {} unresolved",
        count(Verdict::Pass),
        count(Verdict::Regress),
        count(Verdict::Unresolved)
    );
    Ok(if count(Verdict::Regress) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_hand_made_inputs() {
        let v = |better, bound, a: &[f64], b: &[f64]| judge(better, bound, a, b).unwrap().1;
        // Tight runs, 3% slower against a 10% bound: pass.
        assert_eq!(
            v(
                Better::Lower,
                0.10,
                &[100.0, 101.0, 99.0],
                &[103.0, 104.0, 102.0]
            ),
            Verdict::Pass
        );
        // Tight runs, 20% slower: regress.
        assert_eq!(
            v(
                Better::Lower,
                0.10,
                &[100.0, 101.0, 99.0],
                &[120.0, 121.0, 119.0]
            ),
            Verdict::Regress
        );
        // Direction matters: 20% more throughput is a pass, 20% less a regress.
        assert_eq!(
            v(
                Better::Higher,
                0.10,
                &[100.0, 101.0, 99.0],
                &[120.0, 121.0, 119.0]
            ),
            Verdict::Pass
        );
        assert_eq!(
            v(
                Better::Higher,
                0.10,
                &[100.0, 101.0, 99.0],
                &[80.0, 81.0, 79.0]
            ),
            Verdict::Regress
        );
        // One side spreads 30% against a 10% bound and the sides overlap: unresolved.
        assert_eq!(
            v(
                Better::Lower,
                0.10,
                &[100.0, 130.0, 110.0],
                &[105.0, 125.0, 115.0]
            ),
            Verdict::Unresolved
        );
        // Wide spread, but every run of B beats every run of A: pass.
        assert_eq!(
            v(
                Better::Lower,
                0.10,
                &[100.0, 130.0, 110.0],
                &[60.0, 90.0, 70.0]
            ),
            Verdict::Pass
        );
        // Wide spread, every run of B worse than every run of A, median beyond the bound: regress.
        assert_eq!(
            v(
                Better::Lower,
                0.10,
                &[100.0, 130.0, 110.0],
                &[150.0, 190.0, 170.0]
            ),
            Verdict::Regress
        );
        // An exact metric that moved by less than its bound.
        let (worse_by, verdict) = judge(Better::Higher, 0.005, &[40.0; 3], &[39.9; 3]).unwrap();
        assert!((worse_by - 0.0025).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Pass);
        assert_eq!(judge(Better::Lower, 0.1, &[], &[1.0]), None);
    }

    #[test]
    fn smoke_results_are_refused() {
        let dir = std::env::temp_dir().join(format!("e2e-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let smoke = dir.join("smoke.json");
        std::fs::write(&smoke, r#"{"smoke": true, "workloads": {}}"#).unwrap();
        let err = load(smoke.to_str().unwrap()).unwrap_err();
        assert!(err.contains("--smoke"), "{err}");
        let other = dir.join("other.json");
        std::fs::write(&other, r#"{"hello": 1}"#).unwrap();
        assert!(load(other.to_str().unwrap()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_has_one_row_per_metric_and_workload() {
        let doc = json::parse(
            r#"{"smoke": false, "workloads": {"live_inter": {"end_to_end":
               {"frames_per_s": {"runs": [400.0, 410.0, 405.0]}}, "per_layer": {}}}}"#,
        )
        .unwrap();
        let (text, verdicts) = report(&doc, &doc);
        assert_eq!(
            verdicts.len(),
            spec::WORKLOADS.len() * spec::END_TO_END.len()
        );
        assert_eq!(verdicts.iter().filter(|&&v| v == Verdict::Pass).count(), 1);
        assert!(text.contains("live_inter         frames_per_s"));
    }
}
