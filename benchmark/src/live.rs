//! `live_inter` and `live_intra`: real tile encodes through the online
//! serving stack — phantom clips profiled by `ContentAwareController`,
//! served as `core::LiveWorkload` by `admission::serve_online` on one
//! `ThreadPoolBackend` shard with two workers.
//!
//! Closed loop: the serving loop dispatches slot n+1 only after slot n
//! completed on both workers, unpaced. The modeled platform is one
//! 64-core socket, so the offered load is always admitted and the
//! *host* is what saturates.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

use medvt_admission::{
    serve_online, serve_online_with, CostPlan, DeadlineClass, EventKind, OnlineConfig,
    OnlineReport, ShardPolicy, UserRequest, Workload,
};
use medvt_analyze::AnalyzerConfig;
use medvt_core::{
    profile_video, ContentAwareController, LiveWorkload, PipelineConfig, VideoProfile,
};
use medvt_encoder::{CostModel, EncoderConfig, TileConfig, TileStats};
use medvt_frame::synth::{BodyPart, MotionPattern, PhantomVideo};
use medvt_frame::{Resolution, VideoClip};
use medvt_mpsoc::{DvfsPolicy, FrequencySet, Platform, PowerModel};
use medvt_runtime::{ExecutionBackend, SimBackend, SlotOutcome, ThreadPoolBackend, WorkUnit};
use medvt_sched::WorkloadLut;
use medvt_telemetry::{FlightRecorder, HistId};

use crate::replay;
use crate::run::{
    check, time_setups, timed_passes, Check, Exact, HostClock, Pass, RunArgs, Timed, Traced,
    TracedPass,
};
use crate::spec::WORKERS;
use crate::stats::{percentile, Fnv};
use crate::trace::{Span, Tracer, ROOT};

pub const FPS: f64 = 24.0;
pub const GOP_SLOTS: usize = 8;
/// The paper's one-second framerate window at 24 fps.
pub const WINDOW_SLOTS: usize = 24;
/// A window's wall-clock budget: its frames are due in one second.
const WINDOW_BUDGET_MS: f64 = 1000.0;
/// The repo's quick scale: 320x240, IDR + 4 GOPs.
const RES: Resolution = Resolution {
    width: 320,
    height: 240,
};
const CLIP_FRAMES: usize = 33;
/// Slots of one timed pass: five deadline windows, so a run of
/// `RUN_SECONDS` holds eight or more passes and forty or more windows.
const PASS_SLOTS: usize = 5 * WINDOW_SLOTS;
pub const SETUP_REPS: usize = 5;
/// (untraced, traced) pass pairs of a traced run.
const TRACED_PAIRS: usize = 3;

pub struct ClipSpec {
    pub part: BodyPart,
    /// `None` keeps the body part's clinical default trajectory.
    pub motion: Option<MotionPattern>,
}

pub struct LiveSpec {
    pub name: &'static str,
    pub users: usize,
    pub clips: Vec<ClipSpec>,
    pub enc: EncoderConfig,
}

pub fn inter_spec() -> LiveSpec {
    LiveSpec {
        name: "live_inter",
        users: 6,
        clips: vec![
            ClipSpec {
                part: BodyPart::Cardiac,
                motion: Some(MotionPattern::Pan { dx: 2.0, dy: 1.0 }),
            },
            ClipSpec {
                part: BodyPart::Brain,
                motion: Some(MotionPattern::Pan { dx: 1.0, dy: 0.0 }),
            },
            ClipSpec {
                part: BodyPart::LungChest,
                motion: None,
            },
        ],
        // I every 32 frames, everything else inter.
        enc: EncoderConfig::default(),
    }
}

pub fn intra_spec() -> LiveSpec {
    LiveSpec {
        name: "live_intra",
        users: 4,
        clips: vec![
            ClipSpec {
                part: BodyPart::Bones,
                motion: Some(MotionPattern::Still),
            },
            ClipSpec {
                part: BodyPart::SpinalCord,
                motion: Some(MotionPattern::Still),
            },
        ],
        // Every frame intra: the frame-accurate review mode.
        enc: EncoderConfig {
            gop_size: 1,
            intra_period_gops: 1,
            ..EncoderConfig::default()
        },
    }
}

/// The modeled platform of every live and control shard.
pub fn socket64() -> Platform {
    Platform::new(
        "bench 64-core socket",
        1,
        64,
        FrequencySet::xeon_e5_2667(),
        10e-6,
    )
}

/// Quick-scale frames carry a quarter of the VGA samples; scaling the
/// cycle constants by the area ratio keeps per-user demand in the
/// paper's VGA regime (the same convention as the experiment harness).
pub fn pipeline_config() -> PipelineConfig {
    let vga = Resolution::VGA.luma_samples() as f64;
    PipelineConfig {
        analyzer: analyzer_config(),
        cost: CostModel::default().scaled_by(vga / RES.luma_samples() as f64),
        ..Default::default()
    }
}

pub fn analyzer_config() -> AnalyzerConfig {
    AnalyzerConfig {
        min_tile_width: 32,
        min_tile_height: 32,
        ..Default::default()
    }
}

pub fn online_config(horizon_slots: usize) -> OnlineConfig {
    OnlineConfig {
        fps: FPS,
        gop_slots: GOP_SLOTS,
        horizon_slots,
        headroom: 1.15,
        // Race-to-idle keeps the modeled per-slot makespan proportional
        // to the work, so measured/modeled ratios mean something.
        policy: DvfsPolicy::RaceToIdle,
        shard_policy: ShardPolicy::LeastLoaded,
        evict_miss_windows: 1,
        cost: CostPlan::unlimited(),
    }
}

pub fn pool_shard() -> ThreadPoolBackend {
    ThreadPoolBackend::with_workers(socket64(), PowerModel::default(), WORKERS)
}

/// One rendered and profiled clip.
pub struct Clip {
    pub name: String,
    pub video: VideoClip,
    pub profile: VideoProfile,
}

/// Where set-up time went, for the per-layer `frame.*`/`core.*` rows.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupCost {
    pub render_s: f64,
    pub profile_s: f64,
    pub frames: usize,
}

pub struct LiveSetup {
    pub clips: Vec<Clip>,
    pub workloads: Vec<LiveWorkload>,
    pub trace: Vec<UserRequest>,
    pub cost: SetupCost,
}

pub fn render_and_profile(
    specs: &[ClipSpec],
    enc: &EncoderConfig,
    seed: u64,
) -> (Vec<Clip>, SetupCost) {
    let mut cost = SetupCost::default();
    let clips = specs
        .iter()
        .enumerate()
        .map(|(k, c)| {
            let t0 = Instant::now();
            let mut builder = PhantomVideo::builder(c.part)
                .resolution(RES)
                .fps(FPS)
                .seed(seed.wrapping_add(k as u64));
            if let Some(m) = c.motion {
                builder = builder.motion(m);
            }
            let video = builder.build().capture(CLIP_FRAMES);
            let t1 = Instant::now();
            let class = c.part.label();
            let name = format!("{class}-{k}");
            let mut ctl = ContentAwareController::new(pipeline_config(), WorkloadLut::new());
            let profile = profile_video(&name, class, &video, &mut ctl, enc, false);
            cost.render_s += (t1 - t0).as_secs_f64();
            cost.profile_s += t1.elapsed().as_secs_f64();
            cost.frames += video.len();
            Clip {
                name,
                video,
                profile,
            }
        })
        .collect();
    (clips, cost)
}

pub fn live_workloads(clips: &[Clip], enc: &EncoderConfig, capture: bool) -> Vec<LiveWorkload> {
    clips
        .iter()
        .map(|c| {
            let w = LiveWorkload::new(c.profile.clone(), &c.video, TileConfig::default(), *enc);
            if capture {
                w.with_capture()
            } else {
                w
            }
        })
        .collect()
}

/// Every user arrives at slot 0 and never leaves.
fn arrivals(users: usize, clips: usize) -> Vec<UserRequest> {
    (0..users)
        .map(|u| UserRequest {
            user: u,
            arrival_slot: 0,
            profile: u % clips,
            class: DeadlineClass::Standard,
            departure_slot: None,
        })
        .collect()
}

pub fn setup(spec: &LiveSpec, seed: u64) -> LiveSetup {
    let (clips, cost) = render_and_profile(&spec.clips, &spec.enc, seed);
    let workloads = live_workloads(&clips, &spec.enc, false);
    let trace = arrivals(spec.users, clips.len());
    LiveSetup {
        clips,
        workloads,
        trace,
        cost,
    }
}

/// The controller staggers users three slots apart so their IDR frames
/// decorrelate: user `u` shows frame `(slot + 3u) mod n` at `slot`.
fn frame_shown(user: usize, slot: usize, frames: usize) -> usize {
    (slot + 3 * user) % frames
}

/// One tile of the direct-encode reference.
pub struct TileRef {
    pub bytes: Vec<u8>,
    pub stats: TileStats,
}

/// `LiveWorkload::encode_direct` of every (clip, frame, tile): what the
/// pool's output must equal byte for byte, and the source of every
/// exact output metric.
pub struct DirectTable {
    /// `[clip][frame][tile]`.
    pub tiles: Vec<Vec<Vec<TileRef>>>,
}

impl DirectTable {
    pub fn build(workloads: &[LiveWorkload]) -> Self {
        let tiles = workloads
            .iter()
            .map(|w| {
                (0..w.frame_count())
                    .map(|f| {
                        (0..w.demand_at(f).len())
                            .map(|t| {
                                let out = w.encode_direct(f, t).expect("profiled tile encodes");
                                TileRef {
                                    bytes: out.bytes,
                                    stats: out.stats,
                                }
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        DirectTable { tiles }
    }

    pub fn frame_stats(&self, clip: usize, frame: usize) -> TileStats {
        let mut acc = TileStats::default();
        for t in &self.tiles[clip][frame] {
            acc.absorb(&t.stats);
        }
        acc
    }

    pub fn frame_bytes(&self, clip: usize, frame: usize) -> u64 {
        self.tiles[clip][frame]
            .iter()
            .map(|t| t.bytes.len() as u64)
            .sum()
    }

    pub fn tile_count(&self) -> usize {
        self.tiles.iter().flatten().map(Vec::len).sum()
    }

    /// FNV-1a of one clip's tile bitstreams in (frame, tile) order.
    pub fn clip_hash(&self, clip: usize) -> String {
        let mut h = Fnv::default();
        for tile in self.tiles[clip].iter().flatten() {
            h.bytes(&tile.bytes);
        }
        h.hex()
    }
}

/// Totals over the user-frames one pass serves.
#[derive(Debug, Clone, Copy, Default)]
pub struct Served {
    pub frames: u64,
    pub bytes: u64,
    pub psnr_sum: f64,
    pub stats: TileStats,
}

impl Served {
    pub fn add(&mut self, table: &DirectTable, clip: usize, frame: usize) {
        let stats = table.frame_stats(clip, frame);
        self.frames += 1;
        self.bytes += table.frame_bytes(clip, frame);
        self.psnr_sum += stats.psnr().min(99.0);
        self.stats.absorb(&stats);
    }

    pub fn exact(&self, energy_j: f64, on_time_rate: f64) -> Exact {
        let frames = self.frames as f64;
        Exact {
            out_bytes_per_frame: self.bytes as f64 / frames,
            psnr_db: self.psnr_sum / frames,
            joules_per_user_s: energy_j / (frames / FPS),
            on_time_rate,
        }
    }
}

fn served(spec: &LiveSpec, table: &DirectTable, horizon: usize) -> Served {
    let mut s = Served::default();
    for user in 0..spec.users {
        let clip = user % spec.clips.len();
        for slot in 0..horizon {
            s.add(table, clip, frame_shown(user, slot, CLIP_FRAMES));
        }
    }
    s
}

pub fn decision_hash(report: &OnlineReport) -> String {
    let mut h = Fnv::default();
    for e in &report.events {
        h.word(e.slot as u64);
        h.word(e.user as u64);
        h.word(e.shard.map_or(0, |s| s as u64 + 1));
        h.word(match e.kind {
            EventKind::Admit => 1,
            EventKind::Evict => 2,
            EventKind::Depart => 3,
            EventKind::Abandon => 4,
            EventKind::Reject => 5,
            EventKind::Downgrade => 6,
        });
    }
    h.word(report.windows as u64);
    h.word(report.window_misses as u64);
    h.hex()
}

/// Ops of a live pass are its full deadline windows; one fails when it
/// took longer than its one-second budget, and every user that was
/// rejected or evicted (none should be) fails one more.
fn pass_from(report: &OnlineReport, wall_s: f64, users: usize) -> Pass {
    let op_ms: Vec<f64> = report
        .shards
        .iter()
        .flat_map(|s| &s.window_times)
        .filter(|w| w.end_slot % WINDOW_SLOTS == 0)
        .map(|w| w.wall_secs * 1e3)
        .collect();
    let late = op_ms.iter().filter(|&&ms| ms > WINDOW_BUDGET_MS).count();
    let unserved = users - report.admissions + report.evictions + report.rejected;
    Pass {
        wall_s,
        cpu_s: None,
        frames: (report.avg_concurrent_users * report.horizon_slots as f64).round() as u64,
        ops: op_ms.len() as u64,
        failed_ops: (late + unserved) as u64,
        op_ms,
    }
}

fn pool_pass(setup: &LiveSetup, cfg: &OnlineConfig, users: usize) -> (Pass, OnlineReport) {
    let shard = pool_shard();
    let t0 = Instant::now();
    let report = serve_online(cfg, &setup.workloads, &setup.trace, vec![shard]);
    let wall_s = t0.elapsed().as_secs_f64();
    (pass_from(&report, wall_s, users), report)
}

/// The output checks of a live workload.
fn verify(
    spec: &LiveSpec,
    setup: &LiveSetup,
    table: &DirectTable,
    cfg: &OnlineConfig,
    pool_reports: &[OnlineReport],
) -> (Vec<Check>, BTreeMap<String, String>) {
    let mut checks = Vec::new();
    let mut hashes = BTreeMap::new();

    // The pool's decisions must equal an analytical replay's.
    let sim = serve_online(
        cfg,
        &setup.workloads,
        &setup.trace,
        vec![SimBackend::new(socket64(), PowerModel::default())],
    );
    let same = pool_reports.iter().all(|r| {
        r.events == sim.events
            && r.windows == sim.windows
            && r.window_misses == sim.window_misses
            && r.energy_j == sim.energy_j
    });
    checks.push(check(
        "pool_matches_sim_replay",
        same,
        format!(
            "{} pool passes vs one SimBackend replay",
            pool_reports.len()
        ),
    ));
    checks.push(check(
        "all_users_admitted_at_slot_0",
        sim.admissions == spec.users
            && sim
                .events
                .iter()
                .all(|e| e.slot == 0 && e.kind == EventKind::Admit),
        format!("{} admissions, {} events", sim.admissions, sim.events.len()),
    ));
    hashes.insert("decisions".into(), decision_hash(&sim));

    // Every tile the pool encodes must equal the direct encode. One
    // lap of the clip per user visits every (clip, frame, tile).
    let capturing = live_workloads(&setup.clips, &spec.enc, true);
    let lap = (CLIP_FRAMES + 3 * spec.users).div_ceil(GOP_SLOTS) * GOP_SLOTS;
    serve_online(
        &online_config(lap),
        &capturing,
        &setup.trace,
        vec![pool_shard()],
    );
    let (mut compared, mut differing) = (0usize, 0usize);
    for (c, w) in capturing.iter().enumerate() {
        for (f, frame) in table.tiles[c].iter().enumerate() {
            for (t, reference) in frame.iter().enumerate() {
                compared += 1;
                if w.captured(f, t).as_deref() != Some(&reference.bytes[..]) {
                    differing += 1;
                }
            }
        }
        hashes.insert(
            format!("bitstream.{}", setup.clips[c].name),
            table.clip_hash(c),
        );
    }
    let captured: usize = capturing.iter().map(LiveWorkload::captured_tiles).sum();
    checks.push(check(
        "captured_tiles_equal_direct_encode",
        differing == 0 && captured == table.tile_count(),
        format!("{compared} tiles compared, {differing} differ, {captured} captured"),
    ));
    (checks, hashes)
}

pub fn run_timed(spec: &LiveSpec, args: &RunArgs) -> Timed {
    let (setup_s, setup_host_factor, setup) =
        time_setups(if args.smoke { 1 } else { SETUP_REPS }, || {
            setup(spec, args.seed)
        });
    let horizon = args.horizon(PASS_SLOTS, WINDOW_SLOTS);
    let cfg = online_config(horizon);
    // Warm-up: first-touch of the clips, lazy tables inside the
    // encoder, thread-local scratch growth — users never pay these
    // per frame.
    serve_online(
        &online_config(WINDOW_SLOTS),
        &setup.workloads,
        &setup.trace,
        vec![pool_shard()],
    );
    let mut reports = Vec::new();
    let set = timed_passes(args, 3, WORKERS, 1, |_, _| {
        let (pass, report) = pool_pass(&setup, &cfg, spec.users);
        reports.push(report);
        pass
    });
    let table = DirectTable::build(&setup.workloads);
    let (checks, hashes) = verify(spec, &setup, &table, &cfg, &reports);
    let exact = served(spec, &table, horizon).exact(reports[0].energy_j, reports[0].on_time_rate());
    Timed {
        setup_s,
        setup_host_factor,
        host_factor: set.host_factor,
        passes: set.passes,
        peak_rss_mb: set.peak_rss_mb,
        exact,
        checks,
        hashes,
    }
}

/// What a traced backend and the traced workloads share: the slot span
/// currently open on the serving thread, which tile spans recorded on
/// the workers name as their parent.
#[derive(Debug)]
pub struct SlotCtx {
    span: AtomicU32,
    op: AtomicU64,
}

impl Default for SlotCtx {
    fn default() -> Self {
        SlotCtx {
            span: AtomicU32::new(ROOT),
            op: AtomicU64::new(0),
        }
    }
}

/// Delegates to the real backend and records one span per
/// `execute_slot`. On a `SimBackend` the call *is* `simulate_slot`, so
/// the caller books those spans to `mpsoc`; on a pool, to `runtime`.
pub struct TracedBackend<'a, B> {
    pub inner: B,
    pub tracer: &'a Tracer,
    pub ctx: &'a SlotCtx,
    pub layer: &'static str,
    pub root: u32,
    pub shard: u64,
    pub slot: u64,
}

impl<B: ExecutionBackend> ExecutionBackend for TracedBackend<'_, B> {
    fn cores(&self) -> usize {
        self.inner.cores()
    }

    fn core_speeds(&self) -> Vec<f64> {
        self.inner.core_speeds()
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn executes_work(&self) -> bool {
        self.inner.executes_work()
    }

    fn reset(&mut self) {
        self.inner.reset()
    }

    fn execute_slot<'scope>(
        &mut self,
        policy: DvfsPolicy,
        slot_secs: f64,
        work: Vec<WorkUnit<'scope>>,
    ) -> SlotOutcome {
        let id = self.tracer.open();
        let op = (self.shard << 32) | self.slot;
        // SeqCst: the pool's queue hand-off already orders these stores
        // before any worker runs a job of this slot; this keeps the
        // pairing independent of that implementation detail.
        self.ctx.span.store(id, Ordering::SeqCst);
        self.ctx.op.store(op, Ordering::SeqCst);
        let t0 = self.tracer.now_ns();
        let outcome = self.inner.execute_slot(policy, slot_secs, work);
        let t1 = self.tracer.now_ns();
        self.tracer
            .close(id, "execute_slot", self.layer, self.root, op, 0, t0, t1);
        self.slot += 1;
        outcome
    }
}

/// Wraps a `LiveWorkload` so every tile encode records a span on the
/// worker that ran it.
struct TracedLive<'a> {
    inner: &'a LiveWorkload,
    tracer: &'a Tracer,
    ctx: &'a SlotCtx,
    clip: u64,
}

impl Workload for TracedLive<'_> {
    fn steady_demand(&self) -> Vec<f64> {
        self.inner.steady_demand()
    }

    fn demand_at(&self, slot: usize) -> Vec<f64> {
        self.inner.demand_at(slot)
    }

    fn content_class(&self) -> &str {
        self.inner.content_class()
    }

    fn steady(&self) -> bool {
        self.inner.steady()
    }

    fn work_for(&self, slot: usize, thread: usize) -> Option<Box<dyn FnOnce() + Send + '_>> {
        let job = self.inner.work_for(slot, thread)?;
        let frame = (slot % self.inner.frame_count()) as u64;
        let tag = (self.clip << 32) | (frame << 16) | thread as u64;
        Some(Box::new(move || {
            let id = self.tracer.open();
            let t0 = self.tracer.now_ns();
            job();
            let t1 = self.tracer.now_ns();
            let parent = self.ctx.span.load(Ordering::SeqCst);
            let op = self.ctx.op.load(Ordering::SeqCst);
            self.tracer
                .close(id, "encode_tile", "encoder", parent, op, tag, t0, t1);
        }))
    }
}

fn tile_of(tag: u64) -> (usize, usize, usize) {
    (
        (tag >> 32) as usize,
        ((tag >> 16) & 0xffff) as usize,
        (tag & 0xffff) as usize,
    )
}

pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

pub fn run_traced(spec: &LiveSpec, args: &RunArgs) -> Traced {
    let mut out = Traced::default();
    let setup = setup(spec, args.seed);
    let horizon = args.horizon(PASS_SLOTS, WINDOW_SLOTS);
    let cfg = online_config(horizon);
    serve_online(
        &online_config(WINDOW_SLOTS),
        &setup.workloads,
        &setup.trace,
        vec![pool_shard()],
    );

    // Untraced and traced passes alternate, so both see the same host;
    // the overhead is the median of the pairs' ratios and the last
    // traced pass supplies the spans.
    let max_tiles = setup
        .clips
        .iter()
        .flat_map(|c| &c.profile.frames)
        .map(|f| f.tiles.len())
        .max()
        .unwrap_or(0);
    let mut clock = HostClock::start(WORKERS);
    let mut reports = Vec::new();
    let mut ratios = Vec::new();
    let mut last = None;
    for _ in 0..if args.smoke { 1 } else { TRACED_PAIRS } {
        let (pass, report) = pool_pass(&setup, &cfg, spec.users);
        clock.sample();
        reports.push(report);

        // Bench-owned backend and workload wrappers, plus the stack's
        // own flight recorder.
        let tracer = Tracer::new(horizon * (max_tiles * spec.users + 1) + 16);
        let ctx = SlotCtx::default();
        let recorder = FlightRecorder::new(1, 1 << 16);
        let traced_workloads: Vec<TracedLive<'_>> = setup
            .workloads
            .iter()
            .enumerate()
            .map(|(c, inner)| TracedLive {
                inner,
                tracer: &tracer,
                ctx: &ctx,
                clip: c as u64,
            })
            .collect();
        let root = tracer.open();
        let backend = TracedBackend {
            inner: pool_shard(),
            tracer: &tracer,
            ctx: &ctx,
            layer: "runtime",
            root,
            shard: 0,
            slot: 0,
        };
        let t0 = tracer.now_ns();
        let report = serve_online_with(
            &cfg,
            &traced_workloads,
            &setup.trace,
            vec![backend],
            &recorder,
        );
        let t1 = tracer.now_ns();
        tracer.close(root, "serve_online", "admission", ROOT, 0, 0, t0, t1);
        clock.sample();
        ratios.push((t1 - t0) as f64 / 1e9 / pass.wall_s);
        reports.push(report);
        last = Some((tracer.drain(), t1 - t0, recorder));
    }
    let (spans, wall_ns, recorder) = last.expect("at least one pair");
    out.set("host.speed_factor", clock.factor());
    let report = reports.last().expect("just pushed");
    out.book_trace(&TracedPass {
        workload: spec.name,
        spans: &spans,
        wall_ns,
        recorder: &recorder,
        pair_ratios: &ratios,
        slot_secs: 1.0 / FPS,
        keep_stack_trace: true,
    });

    // In-situ numbers from the spans.
    let tile_us = durations_us(&spans, "encode_tile");
    let slot_us = durations_us(&spans, "execute_slot");
    let p = |v: &[f64], q| percentile(v, q).unwrap_or(0.0);
    out.set("encoder.tile_us_p50", p(&tile_us, 50.0));
    out.set("encoder.tile_us_p90", p(&tile_us, 90.0));
    out.set("runtime.slot_ms_p50", p(&slot_us, 50.0) / 1e3);
    out.set("runtime.slot_ms_p90", p(&slot_us, 90.0) / 1e3);
    let tile_total: f64 = tile_us.iter().sum();
    let slot_total: f64 = slot_us.iter().sum();
    out.set(
        "runtime.idle_share",
        1.0 - tile_total / (WORKERS as f64 * slot_total),
    );
    let mut busy_by_tid: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "encode_tile") {
        *busy_by_tid.entry(s.tid).or_default() += s.dur_ns();
    }
    let busiest = busy_by_tid.values().max().copied().unwrap_or(0) as f64;
    let idlest = busy_by_tid.values().min().copied().unwrap_or(0) as f64;
    out.set(
        "runtime.worker_skew",
        if idlest > 0.0 { busiest / idlest } else { 0.0 },
    );
    out.set(
        "admission.self_share",
        1.0 - slot_total * 1e3 / wall_ns as f64,
    );
    let window_ms: Vec<f64> = reports
        .iter()
        .flat_map(|r| pass_from(r, 1.0, spec.users).op_ms)
        .collect();
    out.set("runtime.window_ms_p50", p(&window_ms, 50.0));
    out.set("runtime.window_ms_p75", p(&window_ms, 75.0));
    out.set("runtime.window_ms_p90", p(&window_ms, 90.0));

    // Model error: measured tile seconds over the profiled f_max
    // seconds of the same (clip, frame, tile).
    let mut ratios: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "encode_tile")
        .filter_map(|s| {
            let (c, f, t) = tile_of(s.tag);
            let modeled = setup.clips[c].profile.frames[f].tiles.get(t)?.fmax_secs;
            (modeled > 0.0).then(|| s.dur_ns() as f64 / 1e9 / modeled)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    out.set("core.tile_model_ratio_p50", p(&ratios, 50.0));
    out.set(
        "core.tile_model_ratio_iqr",
        p(&ratios, 75.0) - p(&ratios, 25.0),
    );
    out.set(
        "core.model_ratio",
        report.window_time_ratio().unwrap_or(0.0),
    );

    // Controller counters of the traced pass.
    replay::admission_counters(
        &mut out,
        report,
        recorder.metrics().hist(HistId::BoundaryNs),
    );

    // Exact counts of one pass, from the direct-encode reference.
    let table = DirectTable::build(&setup.workloads);
    let s = served(spec, &table, horizon).stats;
    out.set("encoder.inter_blocks", f64::from(s.inter_blocks));
    out.set("encoder.intra_blocks", f64::from(s.intra_blocks));
    out.set("encoder.transform_samples", s.transform_samples as f64);
    out.set("encoder.bits", s.bits as f64);
    out.set("motion.sad_samples", s.sad_samples as f64);

    let (checks, _) = verify(spec, &setup, &table, &cfg, &reports);
    out.checks.extend(checks);
    let last = pass_from(report, wall_ns as f64 / 1e9, spec.users);
    out.ops = last.ops;
    out.failed_ops = last.failed_ops;

    // Stage replays on the workload's own frames fill the rest of the
    // time budget.
    out.set(
        "frame.render_ms_per_frame",
        setup.cost.render_s * 1e3 / setup.cost.frames as f64,
    );
    out.set(
        "core.profile_ms_per_frame",
        setup.cost.profile_s * 1e3 / setup.cost.frames as f64,
    );
    let budget_s = replay::replay_budget_s(args, 14);
    replay::analysis(&mut out, &setup.clips, budget_s);
    let inter = s.inter_blocks > 0;
    replay::encoder_stages(&mut out, &setup.clips, !inter, budget_s);
    if inter {
        replay::motion_stages(&mut out, &setup.clips, budget_s);
    }
    replay::pool_dispatch(&mut out, max_tiles * spec.users, budget_s);
    replay::loop_driver(&mut out, &setup.workloads, &setup.trace, budget_s);
    replay::sched_from_live(&mut out, &setup.workloads, &setup.trace, budget_s);
    out
}
