//! What every workload hands back, and the pass loop they share.

use std::collections::BTreeMap;
use std::time::Instant;

use medvt_telemetry::FlightRecorder;

use crate::host;
use crate::stats::median;
use crate::trace::{self, LayerRow, Span};

/// Knobs of one run (one workload, one process).
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    /// Wall seconds the timed passes (or, traced, the replays) fill.
    pub seconds: f64,
    /// Horizons ÷ 20, one pass: wiring check only.
    pub smoke: bool,
}

impl RunArgs {
    /// A horizon shortened for `--smoke`, kept a multiple of `step`.
    pub fn horizon(&self, slots: usize, step: usize) -> usize {
        if self.smoke {
            (slots / 20).div_ceil(step).max(1) * step
        } else {
            slots
        }
    }

    pub fn count(&self, n: usize) -> usize {
        if self.smoke {
            (n / 20).max(1)
        } else {
            n
        }
    }
}

/// One output check. A failed check fails the run (exit code, and
/// `correct: false` in the result line).
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

pub fn check(name: &str, ok: bool, detail: impl Into<String>) -> Check {
    Check {
        name: name.into(),
        ok,
        detail: detail.into(),
    }
}

/// One timed pass of a workload.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub wall_s: f64,
    /// Process CPU seconds the pass used (`None` off Linux).
    pub cpu_s: Option<f64>,
    /// User-frames served.
    pub frames: u64,
    /// Wall per operation, ms.
    pub op_ms: Vec<f64>,
    pub ops: u64,
    pub failed_ops: u64,
}

/// Metrics that are a pure function of the inputs: identical on every
/// pass and every run of one commit at one seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exact {
    pub out_bytes_per_frame: f64,
    pub psnr_db: f64,
    pub joules_per_user_s: f64,
    pub on_time_rate: f64,
}

/// The result of a `--trace 0` run.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Raw seconds of every set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host factor ([`HostClock`]) over the set-ups, and over the passes.
    pub setup_host_factor: f64,
    pub host_factor: f64,
    pub passes: Vec<Pass>,
    pub peak_rss_mb: Option<f64>,
    pub exact: Exact,
    pub checks: Vec<Check>,
    /// FNV-1a of every bitstream and decision stream, so a change that
    /// alters outputs shows in the diff of two results.
    pub hashes: BTreeMap<String, String>,
}

impl Timed {
    pub fn frames(&self) -> u64 {
        self.passes.iter().map(|p| p.frames).sum()
    }

    pub fn ops(&self) -> u64 {
        self.passes.iter().map(|p| p.ops).sum()
    }

    pub fn failed_ops(&self) -> u64 {
        let failed_checks = self.checks.iter().filter(|c| !c.ok).count() as u64;
        self.passes.iter().map(|p| p.failed_ops).sum::<u64>() + failed_checks
    }

    /// The eight end-to-end metrics by name; `None` where the host could
    /// not supply one (reported as a failed check by the caller).
    ///
    /// Every time is divided by the host factor of the run, so the
    /// values read as if the host had run at its nominal speed
    /// throughout (see [`HostClock`]).
    pub fn end_to_end(&self) -> Vec<(&'static str, Option<f64>)> {
        let frames = self.frames() as f64;
        let wall_s: f64 = self.passes.iter().map(|p| p.wall_s).sum();
        let cpu_s: Option<f64> = self.passes.iter().map(|p| p.cpu_s).sum();
        vec![
            (
                "setup_s",
                median(&self.setup_s).map(|s| s / self.setup_host_factor),
            ),
            ("frames_per_s", Some(frames * self.host_factor / wall_s)),
            (
                "cpu_ms_per_frame",
                cpu_s.map(|c| c * 1e3 / self.host_factor / frames),
            ),
            ("out_bytes_per_frame", Some(self.exact.out_bytes_per_frame)),
            ("psnr_db", Some(self.exact.psnr_db)),
            ("joules_per_user_s", Some(self.exact.joules_per_user_s)),
            ("on_time_rate", Some(self.exact.on_time_rate)),
            ("peak_rss_mb", self.peak_rss_mb),
        ]
    }
}

/// The result of a `--trace 1` run.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Per-layer metrics this workload produced; the rest report 0.
    pub layer: BTreeMap<&'static str, f64>,
    pub ledger: serde::Value,
    pub trace_file: String,
    pub ops: u64,
    pub failed_ops: u64,
    pub checks: Vec<Check>,
}

impl Default for Traced {
    fn default() -> Self {
        Traced {
            layer: BTreeMap::new(),
            ledger: serde::Value::Null,
            trace_file: String::new(),
            ops: 0,
            failed_ops: 0,
            checks: Vec::new(),
        }
    }
}

/// What a traced pass left behind, for [`Traced::book_trace`].
pub struct TracedPass<'a> {
    pub workload: &'a str,
    pub spans: &'a [Span],
    pub wall_ns: u64,
    pub recorder: &'a FlightRecorder,
    /// Traced over untraced wall of every (untraced, traced) pair.
    pub pair_ratios: &'a [f64],
    pub slot_secs: f64,
    /// Whether the stack's own trace export is written beside the
    /// benchmark's spans.
    pub keep_stack_trace: bool,
}

impl Traced {
    /// Books what every traced run shares: the ledger and its check,
    /// the trace files, the tracing overhead and the stack recorder's
    /// counts. Returns the ledger rows.
    pub fn book_trace(&mut self, pass: &TracedPass<'_>) -> BTreeMap<&'static str, LayerRow> {
        let rows = trace::ledger(pass.spans);
        let rows_sum: u64 = rows.values().map(|r| r.wall_ns).sum();
        let wall = pass.wall_ns as f64;
        self.checks.push(check(
            "ledger_sums_to_traced_wall",
            (rows_sum as f64 - wall).abs() <= 0.10 * wall,
            format!("rows {rows_sum} ns vs pass {} ns", pass.wall_ns),
        ));
        self.ledger = trace::ledger_json(&rows, pass.wall_ns);
        let t_export = Instant::now();
        let stack_trace = medvt_telemetry::chrome_trace(&pass.recorder.events(), pass.slot_secs);
        self.set(
            "telemetry.export_ms",
            t_export.elapsed().as_secs_f64() * 1e3,
        );
        self.trace_file = crate::write_trace(
            pass.workload,
            pass.spans,
            pass.keep_stack_trace.then_some(stack_trace.as_str()),
        );
        self.set(
            "telemetry.overhead_pct",
            (median(pass.pair_ratios).expect("at least one pair") - 1.0) * 100.0,
        );
        let dropped = pass.recorder.dropped();
        self.set("telemetry.events", pass.recorder.recorded() as f64);
        self.set("telemetry.dropped", dropped as f64);
        self.set("telemetry.spans", pass.spans.len() as f64);
        self.checks.push(check(
            "trace_not_truncated",
            dropped == 0,
            format!("{dropped} telemetry events dropped"),
        ));
        rows
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::spec::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.layer.insert(name, value);
    }
}

/// The host's speed, measured by a fixed amount of work that calls no
/// code of the repository.
///
/// The reference hosts are small shared VMs whose speed swings by tens
/// of percent for minutes at a time (other tenants; the hypervisor
/// reports no steal time, so CPU time swings with it). No statistic
/// over the passes of one run removes a swing that outlasts the run,
/// so the timed regions of a run are interleaved with samples of this
/// reference work and the run's times are divided by `mean sample /
/// NOMINAL`: a host running 30% slow shows about 30% more reference
/// seconds and the quotient moves far less than the raw time, while a
/// change to the program moves only the numerator. One sample tracks
/// a single pass poorly (most of the noise is bursts of a second or
/// two), which is why the factor is taken over the whole run. Raw
/// times and the factor are kept in the run's detail document.
#[derive(Debug, Clone)]
pub struct HostClock {
    /// Threads the reference work runs on: as many as the workload
    /// keeps busy, so contention between them is sampled too.
    threads: usize,
    samples_s: Vec<f64>,
}

impl HostClock {
    /// Reference-work seconds on the reference host when nothing else
    /// runs on it.
    const NOMINAL_S: f64 = 0.100;

    /// Starts with a first sample.
    pub fn start(threads: usize) -> Self {
        let mut clock = HostClock {
            threads,
            samples_s: Vec::new(),
        };
        clock.sample();
        clock
    }

    pub fn sample(&mut self) {
        self.samples_s.push(reference_work(self.threads));
    }

    /// Mean sample over nominal: how much slower than nominal the host
    /// ran while this clock was sampling.
    pub fn factor(&self) -> f64 {
        self.samples_s.iter().sum::<f64>() / self.samples_s.len() as f64 / Self::NOMINAL_S
    }
}

/// About 100 ms of integer and floating-point work per thread on the
/// reference host: absolute differences over two 64 KiB buffers (the
/// encoder's dominant access pattern) and a dependent multiply-add
/// chain. Returns the wall seconds until every thread finished.
fn reference_work(threads: usize) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|sc| {
        for t in 0..threads {
            sc.spawn(move || {
                let a: Vec<u8> = (0..65_536u32)
                    .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
                    .collect();
                let b: Vec<u8> = (0..65_536u32)
                    .map(|i| (i.wrapping_mul(40_503) >> 7) as u8)
                    .collect();
                let mut acc = t as u64;
                for round in 0..1200usize {
                    let off = (round * 37) % 4096;
                    let sad: u64 = a[off..]
                        .iter()
                        .zip(&b)
                        .map(|(x, y)| u64::from(x.abs_diff(*y)))
                        .sum();
                    let mut m = 1.0f64;
                    for i in 0..20_000 {
                        m = m * 1.000_000_1 + f64::from(i) * 1e-9;
                    }
                    acc = acc.wrapping_add(sad).wrapping_add(m as u64);
                }
                std::hint::black_box(acc);
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

/// Times `setup` `reps` times (the median is `setup_s`) and keeps the
/// last product; returns the raw seconds and the host factor over them.
pub fn time_setups<S>(reps: usize, mut setup: impl FnMut() -> S) -> (Vec<f64>, f64, S) {
    let mut clock = HostClock::start(1);
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
        clock.sample();
    }
    (secs, clock.factor(), last.expect("at least one set-up"))
}

/// What [`timed_passes`] measured.
#[derive(Debug, Clone)]
pub struct PassSet {
    pub passes: Vec<Pass>,
    pub host_factor: f64,
    pub peak_rss_mb: Option<f64>,
}

/// Runs timed passes back to back until `seconds` of wall time are
/// used (at least `min_passes`, exactly one under `smoke`), booking
/// each pass's CPU time, sampling the host `gap_samples` times between
/// passes (a pass may sample more through the clock it is handed), and
/// reading the peak RSS after them.
pub fn timed_passes(
    args: &RunArgs,
    min_passes: usize,
    threads: usize,
    gap_samples: usize,
    mut pass: impl FnMut(usize, &mut HostClock) -> Pass,
) -> PassSet {
    let t0 = Instant::now();
    let mut clock = HostClock::start(threads);
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let cpu0 = host::cpu_secs();
        let sampled = clock.samples_s.len();
        let mut p = pass(passes.len(), &mut clock);
        // Reference work done inside the pass is not the pass's CPU.
        let inside_cpu_s: f64 = clock.samples_s[sampled..].iter().sum::<f64>() * threads as f64;
        p.cpu_s = host::cpu_secs()
            .zip(cpu0)
            .map(|(a, b)| (a - b - inside_cpu_s).max(0.0));
        passes.push(p);
        for _ in 0..gap_samples {
            clock.sample();
        }
        let enough = passes.len() >= min_passes && t0.elapsed().as_secs_f64() >= args.seconds;
        if args.smoke || enough {
            break;
        }
    }
    PassSet {
        passes,
        host_factor: clock.factor(),
        peak_rss_mb: host::peak_rss_mb(),
    }
}

/// Repeats `op` for about `budget_s` seconds (at least once) and
/// returns (calls made, seconds used) — the shape of every stage
/// replay of the traced run.
pub fn replay_for(budget_s: f64, mut op: impl FnMut()) -> (u64, f64) {
    let t0 = Instant::now();
    let mut calls = 0u64;
    loop {
        op();
        calls += 1;
        let used = t0.elapsed().as_secs_f64();
        if used >= budget_s {
            return (calls, used);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_shrinks_horizons_to_whole_steps() {
        let smoke = RunArgs {
            seed: 1,
            seconds: 1.0,
            smoke: true,
        };
        assert_eq!(smoke.horizon(192, 24), 24);
        assert_eq!(smoke.horizon(1920, 4), 96);
        assert_eq!(smoke.count(16), 1);
        let full = RunArgs {
            smoke: false,
            ..smoke
        };
        assert_eq!(full.horizon(192, 24), 192);
    }

    #[test]
    fn end_to_end_divides_run_totals_by_the_host_factor() {
        let pass = |wall_s, frames, op_ms: &[f64]| Pass {
            wall_s,
            frames,
            op_ms: op_ms.to_vec(),
            ops: op_ms.len() as u64,
            failed_ops: 0,
            cpu_s: Some(wall_s * 1.5),
        };
        let t = Timed {
            setup_s: vec![3.0, 1.0, 2.0],
            setup_host_factor: 1.0,
            // The host ran at half speed: every time reads double.
            host_factor: 2.0,
            passes: vec![
                pass(2.0, 100, &[2.0, 4.0]),
                pass(4.0, 100, &[6.0, 8.0]),
                pass(6.0, 100, &[10.0]),
            ],
            peak_rss_mb: None,
            checks: vec![check("x", false, "")],
            ..Default::default()
        };
        let m: BTreeMap<_, _> = t.end_to_end().into_iter().collect();
        assert_eq!(m["setup_s"], Some(2.0));
        assert_eq!(m["frames_per_s"], Some(50.0));
        assert_eq!(m["cpu_ms_per_frame"], Some(30.0));
        assert_eq!(m["peak_rss_mb"], None);
        assert_eq!((t.ops(), t.failed_ops()), (5, 1));
        let names: Vec<_> = t.end_to_end().iter().map(|(n, _)| *n).collect();
        let spec: Vec<_> = crate::spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, spec);
    }

    #[test]
    fn host_clock_factor_is_the_mean_sample_over_nominal() {
        let mut clock = HostClock::start(1);
        clock.sample();
        assert_eq!(clock.samples_s.len(), 2);
        let mean = (clock.samples_s[0] + clock.samples_s[1]) / 2.0;
        assert!((clock.factor() - mean / HostClock::NOMINAL_S).abs() < 1e-12);
        assert!(clock.factor() > 0.0);
    }
}
