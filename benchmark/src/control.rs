//! `control_churn`: the control plane alone. Every episode is a fresh
//! 10 000-arrival Poisson/Pareto trace served by
//! `admission::serve_online` on four 64-core `SimBackend` shards under
//! a spend budget, a lying headroom (so windows are missed and users
//! evicted) and deadline-class degradation — budget, eviction, the
//! downgrade ladder and incremental replans all fire. No pixel is
//! touched.

use std::collections::BTreeMap;
use std::time::Instant;

use medvt_admission::{
    replay_cost, serve_online, serve_online_with, synthesize_trace, CostPlan, EventKind,
    OnlineConfig, OnlineReport, ShardPolicy, TraceConfig, UserRequest, Workload,
};
use medvt_mpsoc::{DvfsPolicy, FrequencySet, Platform, PowerModel};
use medvt_runtime::SimBackend;
use medvt_sched::UserDemand;
use medvt_telemetry::{FlightRecorder, HistId};

use crate::live::{decision_hash, durations_us, SlotCtx, TracedBackend, FPS};
use crate::replay::{self, Delta};
use crate::run::{
    check, time_setups, timed_passes, Check, Exact, HostClock, Pass, RunArgs, Timed, Traced,
    TracedPass,
};
use crate::stats::percentile;
use crate::trace::{Tracer, ROOT};

const HORIZON: usize = 1920;
/// Short GOPs: a 6 Hz decision cadence, where per-boundary
/// control-plane cost matters.
const GOP_SLOTS: usize = 4;
const ARRIVALS: f64 = 10_000.0;
const SHARDS: usize = 4;
/// Admission pads demand by less than it is, so admitted load exceeds
/// capacity and deadline windows are really missed.
const HEADROOM: f64 = 0.9;
const BUDGET_CREDITS: f64 = 230.0;
/// Episodes of one timed pass; every pass replays the same ones.
const EPISODES: usize = 16;
/// Set-up is ten milliseconds of trace synthesis; more repetitions
/// make its median steady.
const SETUP_REPS: usize = 9;
/// (untraced, traced) episode pairs of a traced run.
const TRACED_PAIRS: usize = 5;
/// Real work of one tile-thread, in core-slots. With admission padding
/// demand by `HEADROOM` and a 230-credit budget over 256 cores, this
/// puts roughly one core in five over its slot whenever the budget is
/// spent: about 6 500 admissions, 1 700 evictions and 1 400 downgrades
/// per 10 000 arrivals, 70% of windows on time.
const THREAD_CORE_SLOTS: f64 = 0.85;

/// A slot-invariant service tier of `tiles` tile-threads. The nominal bitrate and quality are those of the
/// rendition the tier stands for; they make the served mix visible as
/// `out_bytes_per_frame` / `psnr_db` without encoding anything.
pub struct Tier {
    tiles: usize,
    class: &'static str,
    bytes_per_frame: f64,
    psnr_db: f64,
}

static TIERS: [Tier; 3] = [
    Tier {
        tiles: 1,
        class: "brain",
        bytes_per_frame: 1250.0,
        psnr_db: 36.0,
    },
    Tier {
        tiles: 2,
        class: "spinal_cord",
        bytes_per_frame: 2500.0,
        psnr_db: 39.0,
    },
    Tier {
        tiles: 4,
        class: "cardiac",
        bytes_per_frame: 5000.0,
        psnr_db: 42.0,
    },
];

impl Workload for Tier {
    fn steady_demand(&self) -> Vec<f64> {
        vec![THREAD_CORE_SLOTS / FPS; self.tiles]
    }

    fn demand_at(&self, _slot: usize) -> Vec<f64> {
        self.steady_demand()
    }

    fn content_class(&self) -> &str {
        self.class
    }

    fn steady(&self) -> bool {
        true
    }
}

fn config(horizon_slots: usize) -> OnlineConfig {
    OnlineConfig {
        fps: FPS,
        gop_slots: GOP_SLOTS,
        horizon_slots,
        headroom: HEADROOM,
        policy: DvfsPolicy::StretchToDeadline,
        shard_policy: ShardPolicy::LeastLoaded,
        evict_miss_windows: 1,
        cost: CostPlan {
            credits_per_core_window: 1.0,
            budget_credits_per_window: BUDGET_CREDITS,
            degrade_on_evict: true,
        },
    }
}

fn fleet() -> Vec<SimBackend> {
    let p = Platform::new(
        "bench 4x64 fleet",
        SHARDS,
        64,
        FrequencySet::xeon_e5_2667(),
        10e-6,
    );
    (0..p.sockets)
        .map(|s| SimBackend::new(p.socket_view(s), PowerModel::default()))
        .collect()
}

/// Episode seeds are spread so that neighbouring `--seed` values share
/// no trace.
fn synthesize(seed: u64, episode: usize, horizon: usize) -> Vec<UserRequest> {
    synthesize_trace(&TraceConfig {
        horizon_slots: horizon,
        arrivals_per_slot: ARRIVALS / HORIZON as f64,
        min_session_slots: 24,
        tail_alpha: 1.4,
        profiles: TIERS.len(),
        seed: seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(episode as u64),
    })
}

/// The traces of one pass.
fn setup(args: &RunArgs, horizon: usize) -> Vec<Vec<UserRequest>> {
    (0..args.count(EPISODES))
        .map(|e| synthesize(args.seed, e, horizon))
        .collect()
}

/// What one episode served, by tier, from its decision stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Mix {
    user_frames: u64,
    bytes: f64,
    psnr_sum: f64,
}

fn served_mix(trace: &[UserRequest], report: &OnlineReport) -> Mix {
    let tier_of: BTreeMap<usize, usize> = trace.iter().map(|r| (r.user, r.profile)).collect();
    let mut since: BTreeMap<usize, usize> = BTreeMap::new();
    let mut mix = Mix::default();
    let mut book = |user: usize, from: usize, to: usize| {
        let tier = &TIERS[tier_of[&user]];
        let frames = (to - from) as u64;
        mix.user_frames += frames;
        mix.bytes += frames as f64 * tier.bytes_per_frame;
        mix.psnr_sum += frames as f64 * tier.psnr_db;
    };
    for e in &report.events {
        match e.kind {
            EventKind::Admit => {
                since.insert(e.user, e.slot);
            }
            EventKind::Depart | EventKind::Evict => {
                if let Some(from) = since.remove(&e.user) {
                    book(e.user, from, e.slot);
                }
            }
            EventKind::Abandon | EventKind::Reject | EventKind::Downgrade => {}
        }
    }
    for (user, from) in since {
        book(user, from, report.horizon_slots);
    }
    mix
}

/// The conservation and budget checks of one episode; the names of the
/// ones that do not hold.
fn episode_faults(
    cfg: &OnlineConfig,
    trace: &[UserRequest],
    r: &OnlineReport,
    mix: &Mix,
) -> Vec<&'static str> {
    let mut faults = Vec::new();
    let downgrades = r
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Downgrade)
        .count();
    // Every arrival (and every re-queue of a degraded user) is
    // admitted, gives up, is refused or still waits.
    if r.arrivals + downgrades != r.admissions + r.abandoned + r.rejected + r.queued_at_end {
        faults.push("queue_conservation");
    }
    if r.admissions != r.departures + r.evictions + r.active_at_end {
        faults.push("service_conservation");
    }
    let arrived = trace
        .iter()
        .filter(|q| q.arrival_slot < cfg.horizon_slots)
        .count();
    if r.arrivals != arrived {
        faults.push("arrivals_match_trace");
    }
    let tallied = (r.avg_concurrent_users * r.horizon_slots as f64).round() as u64;
    if mix.user_frames != tallied {
        faults.push("served_frames_match_controller_tally");
    }
    let cost = replay_cost(cfg, &TIERS, trace, r);
    if !cost.within_budget || cost.peak_window_credits > BUDGET_CREDITS + 1e-9 {
        faults.push("spend_within_budget");
    }
    faults
}

/// Totals of a set of episodes.
#[derive(Default)]
struct Totals {
    mix: Mix,
    energy_j: f64,
    windows: usize,
    misses: usize,
    events: usize,
    faults: Vec<String>,
    hashes: Vec<String>,
}

impl Totals {
    fn add(&mut self, cfg: &OnlineConfig, episode: usize, trace: &[UserRequest], r: &OnlineReport) {
        let m = served_mix(trace, r);
        self.mix.user_frames += m.user_frames;
        self.mix.bytes += m.bytes;
        self.mix.psnr_sum += m.psnr_sum;
        self.energy_j += r.energy_j;
        self.windows += r.windows;
        self.misses += r.window_misses;
        self.events += r.events.len();
        for f in episode_faults(cfg, trace, r, &m) {
            self.faults.push(format!("episode {episode}: {f}"));
        }
        self.hashes.push(decision_hash(r));
    }

    fn exact(&self) -> Exact {
        let frames = self.mix.user_frames as f64;
        Exact {
            out_bytes_per_frame: self.mix.bytes / frames,
            psnr_db: self.mix.psnr_sum / frames,
            joules_per_user_s: self.energy_j / (frames / FPS),
            on_time_rate: 1.0 - self.misses as f64 / self.windows.max(1) as f64,
        }
    }
}

/// One pass: every episode once; an op is an episode. The host is
/// sampled after every fourth episode, outside the pass's clock.
fn pass(cfg: &OnlineConfig, traces: &[Vec<UserRequest>], clock: &mut HostClock) -> (Pass, Totals) {
    let mut totals = Totals::default();
    let mut out = Pass::default();
    for (e, trace) in traces.iter().enumerate() {
        let t0 = Instant::now();
        let report = serve_online(cfg, &TIERS, trace, fleet());
        out.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        // Checks run between episodes, outside every op's clock but
        // inside the pass's: they are part of serving a trace safely.
        let before = totals.faults.len();
        totals.add(cfg, e, trace, &report);
        out.ops += 1;
        out.failed_ops += u64::from(totals.faults.len() > before);
        out.wall_s += t0.elapsed().as_secs_f64();
        if e % 4 == 3 && e + 1 < traces.len() {
            clock.sample();
        }
    }
    out.frames = totals.mix.user_frames;
    (out, totals)
}

pub fn run_timed(args: &RunArgs) -> Timed {
    let horizon = args.horizon(HORIZON, GOP_SLOTS);
    let cfg = config(horizon);
    let (setup_s, setup_host_factor, traces) =
        time_setups(if args.smoke { 1 } else { SETUP_REPS }, || {
            setup(args, horizon)
        });
    // Warm-up: allocator growth to the episode's working set.
    serve_online(&cfg, &TIERS, &traces[0], fleet());
    let mut all: Vec<Totals> = Vec::new();
    let set = timed_passes(args, 2, 1, 1, |_, clock| {
        let (p, totals) = pass(&cfg, &traces, clock);
        all.push(totals);
        p
    });
    let first = &all[0];
    let mut checks: Vec<Check> = vec![check(
        "conservation_and_budget",
        all.iter().all(|t| t.faults.is_empty()),
        all.iter()
            .flat_map(|t| t.faults.clone())
            .collect::<Vec<_>>()
            .join("; "),
    )];
    // Same seed twice → identical decision streams.
    let again = serve_online(&cfg, &TIERS, &traces[0], fleet());
    checks.push(check(
        "same_seed_same_decisions",
        all.iter().all(|t| t.hashes == first.hashes) && decision_hash(&again) == first.hashes[0],
        format!("{} passes of {} episodes", all.len(), first.hashes.len()),
    ));
    checks.push(check(
        "churn_exercised",
        first.misses > 0 && first.events > first.hashes.len(),
        format!("{} missed windows, {} events", first.misses, first.events),
    ));
    let hashes = first
        .hashes
        .iter()
        .enumerate()
        .map(|(e, h)| (format!("decisions.episode_{e:02}"), h.clone()))
        .collect();
    Timed {
        setup_s,
        setup_host_factor,
        host_factor: set.host_factor,
        passes: set.passes,
        peak_rss_mb: set.peak_rss_mb,
        exact: first.exact(),
        checks,
        hashes,
    }
}

/// Shard 0's membership changes, boundary by boundary, from an
/// episode's decision stream.
fn shard_script(trace: &[UserRequest], report: &OnlineReport) -> Vec<Delta> {
    let tier_of: BTreeMap<usize, usize> = trace.iter().map(|r| (r.user, r.profile)).collect();
    let mut by_slot: BTreeMap<usize, Delta> = BTreeMap::new();
    for e in report.events.iter().filter(|e| e.shard == Some(0)) {
        let delta = by_slot.entry(e.slot).or_default();
        match e.kind {
            EventKind::Admit => {
                let tier = &TIERS[tier_of[&e.user]];
                let padded = tier.steady_demand().iter().map(|s| s * HEADROOM).collect();
                delta.set.push(UserDemand::new(e.user, padded));
            }
            EventKind::Depart | EventKind::Evict => delta.remove.push(e.user),
            _ => {}
        }
    }
    by_slot.into_values().collect()
}

pub fn run_traced(args: &RunArgs) -> Traced {
    let mut out = Traced::default();
    let horizon = args.horizon(HORIZON, GOP_SLOTS);
    let cfg = config(horizon);
    let t0 = Instant::now();
    let trace0 = synthesize(args.seed, 0, horizon);
    out.set("admission.trace_synth_ms", t0.elapsed().as_secs_f64() * 1e3);
    serve_online(&cfg, &TIERS, &trace0, fleet());

    // Untraced and traced episodes alternate, so both see the same
    // host; the overhead is the median of the pairs' ratios and the
    // last traced episode supplies the spans. Every shard's
    // `execute_slot` is a span: on a `SimBackend` that call is
    // `mpsoc::simulate_slot` plus carry bookkeeping, so the spans are
    // booked to `mpsoc`.
    let mut clock = HostClock::start(1);
    let mut ratios = Vec::new();
    let mut episode_ms = Vec::new();
    let mut last = None;
    for _ in 0..if args.smoke { 1 } else { TRACED_PAIRS } {
        let t0 = Instant::now();
        serve_online(&cfg, &TIERS, &trace0, fleet());
        let untraced_s = t0.elapsed().as_secs_f64();
        episode_ms.push(untraced_s * 1e3);
        clock.sample();

        let tracer = Tracer::new(SHARDS * horizon + 16);
        let ctx = SlotCtx::default();
        let recorder = FlightRecorder::new(SHARDS, 1 << 18);
        let root = tracer.open();
        let shards: Vec<TracedBackend<'_, SimBackend>> = fleet()
            .into_iter()
            .enumerate()
            .map(|(s, inner)| TracedBackend {
                inner,
                tracer: &tracer,
                ctx: &ctx,
                layer: "mpsoc",
                root,
                shard: s as u64,
                slot: 0,
            })
            .collect();
        let t0 = tracer.now_ns();
        let report = serve_online_with(&cfg, &TIERS, &trace0, shards, &recorder);
        let t1 = tracer.now_ns();
        tracer.close(root, "serve_online", "admission", ROOT, 0, 0, t0, t1);
        clock.sample();
        ratios.push((t1 - t0) as f64 / 1e9 / untraced_s);
        episode_ms.push((t1 - t0) as f64 / 1e6);
        last = Some((tracer.drain(), t1 - t0, recorder, report));
    }
    let (spans, wall_ns, recorder, report) = last.expect("at least one pair");
    let traced_s = wall_ns as f64 / 1e9;
    out.set("host.speed_factor", clock.factor());
    for (name, q) in [
        ("admission.episode_ms_p50", 50.0),
        ("admission.episode_ms_p75", 75.0),
    ] {
        out.set(name, percentile(&episode_ms, q).unwrap_or(0.0));
    }

    // The stack's own export is timed but not kept: per-core slot
    // events of 256 cores make it tens of megabytes.
    out.book_trace(&TracedPass {
        workload: "control_churn",
        spans: &spans,
        wall_ns,
        recorder: &recorder,
        pair_ratios: &ratios,
        slot_secs: 1.0 / FPS,
        keep_stack_trace: false,
    });

    let slot_us = durations_us(&spans, "execute_slot");
    let slot_total_us: f64 = slot_us.iter().sum();
    out.set("mpsoc.slot_us", slot_total_us / slot_us.len().max(1) as f64);
    out.set(
        "admission.self_share",
        1.0 - slot_total_us * 1e3 / wall_ns as f64,
    );
    out.set(
        "admission.events_per_s",
        report.events.len() as f64 / traced_s,
    );
    replay::admission_counters(
        &mut out,
        &report,
        recorder.metrics().hist(HistId::BoundaryNs),
    );

    let t0 = Instant::now();
    let cost = replay_cost(&cfg, &TIERS, &trace0, &report);
    out.set("admission.replay_cost_ms", t0.elapsed().as_secs_f64() * 1e3);
    let faults = episode_faults(&cfg, &trace0, &report, &served_mix(&trace0, &report));
    out.checks.push(check(
        "conservation_and_budget",
        faults.is_empty() && cost.within_budget,
        faults.join("; "),
    ));
    let plain = serve_online(&cfg, &TIERS, &trace0, fleet());
    out.checks.push(check(
        "tracing_does_not_change_decisions",
        decision_hash(&plain) == decision_hash(&report),
        "traced vs untraced episode 0",
    ));
    out.ops = 1;
    out.failed_ops = u64::from(!faults.is_empty());

    let budget_s = replay::replay_budget_s(args, 3);
    replay::sched_script(
        &mut out,
        &vec![1.0; 64],
        &shard_script(&trace0, &report),
        budget_s,
    );
    // A full shard's worth of steady members: 8 of each tier, 56
    // tile-threads on 64 cores.
    let members: Vec<UserRequest> = (0..24)
        .map(|u| UserRequest {
            user: u,
            arrival_slot: 0,
            profile: u % TIERS.len(),
            class: medvt_admission::DeadlineClass::Standard,
            departure_slot: None,
        })
        .collect();
    replay::loop_driver(&mut out, &TIERS, &members, budget_s);
    out
}
