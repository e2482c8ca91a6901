//! The online serving loop: GOP-boundary admission control over
//! per-socket shard loops.
//!
//! [`serve_online_with`] builds a private `Controller` and, every
//! `gop_slots` slots, runs its five phases in this order:
//!
//! 1. `ingest` — newly arrived requests join the FIFO [`RequestQueue`];
//! 2. `depart` — departed users leave (and queued requests whose user
//!    gave up are abandoned);
//! 3. `evict` — users whose consecutive missed one-second windows
//!    exceed their [`DeadlineClass`](crate::DeadlineClass) tolerance
//!    are removed — read from the runtime's per-user accounting; under
//!    [`CostPlan::degrade_on_evict`] the evicted user re-enters the
//!    queue one deadline class lower instead of being dropped;
//! 4. `admit` — queued users whose Algorithm 2 line 1 core demand fits
//!    a shard chosen by the [`ShardPolicy`], *and* whose billing keeps
//!    the window spend within the [`CostPlan`] budget, are admitted;
//! 5. `advance` — each shard's [`LoopDriver`](medvt_runtime::LoopDriver)
//!    applies its membership *delta*
//!    ([`update_membership`](medvt_runtime::LoopDriver::update_membership);
//!    the driver re-places its threads only when a member or an
//!    estimate changed) and every shard advances one GOP in lockstep.
//!
//! Every decision passes through the controller's one `emit`, which
//! feeds the report's event stream, the telemetry counters and the
//! flight recorder from the same value. Decisions read only the
//! analytical accounting, so replaying one trace on `SimBackend` and
//! `ThreadPoolBackend` shards produces identical event streams.
//!
//! # Control-plane cost
//!
//! Steady state — no arrivals, departures, misses, or admissible
//! queued demand — costs O(shards) per boundary, independent of both
//! the active population and the queue depth: departures pop from a
//! slot-ordered set, evictions read the runtime's miss-streak sets,
//! and the admission scan stops at its first request once the
//! smallest queued demand fits no shard or is over budget
//! (`RoundRobin` under a finite budget excepted: it walks the whole
//! queue). With an infinite budget the decision stream is
//! bit-identical to the pre-refactor linear controller, kept as
//! [`serve_online_reference`](crate::serve_online_reference); finite
//! budgets and degradation are pinned by recorded goldens — both in
//! the `control_plane` integration tests.

use crate::request::{AdmitDecision, RequestQueue, UserRequest};
use crate::shard::{ShardPolicy, Sharder};
use medvt_mpsoc::DvfsPolicy;
use medvt_runtime::{
    ControllerTiming, DemandSource, ExecutionBackend, LoopDriver, LoopReport, ReplanPolicy,
    ServerLoopConfig, WindowTiming,
};
use medvt_telemetry::{
    CounterId, Event as TelEvent, EventKind as TelKind, HistId, Metrics, NoopRecorder, Recorder,
    CONTROL_TRACK,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// What happened to a user. The admission log, the meter and the
/// flight recorder share this one decision type.
pub use medvt_telemetry::Decision as EventKind;

/// A user-facing workload the admission controller can reason about —
/// implemented by `medvt_core::VideoProfile` (and by the synthetic
/// models in tests).
pub trait Workload {
    /// Steady-state per-tile f_max-second demand per slot (what the
    /// LUT reports to Algorithm 2 line 1 at admission time).
    fn steady_demand(&self) -> Vec<f64>;

    /// Per-tile demand of the frame shown at `slot`.
    fn demand_at(&self, slot: usize) -> Vec<f64>;

    /// Content (texture/body-part) class — the affinity key of
    /// [`ShardPolicy::ContentAffinity`].
    fn content_class(&self) -> &str;

    /// `true` when `demand_at` is slot-invariant — the controller then
    /// skips re-estimating this workload's demand at every boundary.
    ///
    /// Purely an optimization hint: the placement engine compares
    /// demands bitwise before replaying, so a truthful `false` never
    /// changes decisions, only costs the per-boundary re-estimate.
    /// Returning `true` for a slot-varying workload is a contract
    /// violation (stale demands would feed the placer). Default:
    /// `false`.
    fn steady(&self) -> bool {
        false
    }

    /// Real work for tile-thread `thread` of the frame shown at
    /// `slot`, when the workload carries any — e.g.
    /// `medvt_core::LiveWorkload`, which encodes the tile for real on
    /// the worker assigned by the placement. Cost-only workloads
    /// (profile replay, the default) return `None`.
    ///
    /// Admission/eviction decisions never depend on this: they read
    /// only the analytical accounting, so a workload with real work
    /// replays the same decision stream as its cost-only twin.
    fn work_for(&self, _slot: usize, _thread: usize) -> Option<Box<dyn FnOnce() + Send + '_>> {
        None
    }
}

/// Cost policy of an online run: how admitted demand is billed, how
/// much the operator will spend per GOP window, and whether eviction
/// degrades users instead of dropping them.
///
/// A request is admitted only when *both* a shard fits its demand and
/// billing it keeps the window spend within budget (`spend + demand ×
/// rate ≤ budget`). The check is demand-monotone like the capacity
/// probe, so the admission scan may stop once the smallest queued
/// demand is over budget. Budget refusals are not offered to a
/// `RoundRobin` rotation (the shard never saw the request).
///
/// Under the default ([`CostPlan::unlimited`]) neither mechanism can
/// act: no spend exceeds an infinite budget and with
/// `degrade_on_evict` off the eviction path never re-queues, so the
/// decision stream stays bit-identical to
/// [`serve_online_reference`](crate::serve_online_reference) — the
/// provisioning extension of the sim-vs-pool invariant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPlan {
    /// Credits billed per admitted reference core per GOP window —
    /// the serving-side price of capacity (see
    /// `medvt_mpsoc::CostModel` for where the rate comes from).
    pub credits_per_core_window: f64,
    /// Spend ceiling per GOP window, in credits. `f64::INFINITY`
    /// never refuses an admission.
    pub budget_credits_per_window: f64,
    /// When `true`, an evicted user re-enters the queue at the
    /// next-lower [`DeadlineClass`](crate::DeadlineClass) (emitting
    /// [`EventKind::Downgrade`]) instead of being dropped; a
    /// best-effort eviction stays final.
    pub degrade_on_evict: bool,
}

impl CostPlan {
    /// No budget, no degradation — the cost-oblivious default whose
    /// decisions are bit-identical to the frozen reference controller.
    pub const fn unlimited() -> Self {
        Self {
            credits_per_core_window: 0.0,
            budget_credits_per_window: f64::INFINITY,
            degrade_on_evict: false,
        }
    }

    /// `true` when the budget is finite, i.e. it can refuse an
    /// admission.
    pub fn is_budgeted(&self) -> bool {
        self.budget_credits_per_window.is_finite()
    }

    /// `true` when billing `demand` more cores on top of `spend` would
    /// exceed the window budget. No spend exceeds the default infinite
    /// budget, so the ledger needs no "is a budget set" switch.
    fn over_budget(&self, spend: f64, demand: f64) -> bool {
        spend + demand * self.credits_per_core_window > self.budget_credits_per_window + 1e-9
    }
}

impl Default for CostPlan {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// Online serving configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// Target frames per second per user.
    pub fps: f64,
    /// Slots per GOP — the admit/evict and re-placement period.
    pub gop_slots: usize,
    /// Serving horizon in slots.
    pub horizon_slots: usize,
    /// Admission safety factor on estimated demands (> 1 keeps slack).
    pub headroom: f64,
    /// DVFS policy for the shard backends.
    pub policy: DvfsPolicy,
    /// How admitted users are assigned to sockets.
    pub shard_policy: ShardPolicy,
    /// Base eviction threshold in consecutive missed windows; each
    /// user's class tolerance multiplies it.
    pub evict_miss_windows: usize,
    /// Cost policy: per-window billing rate, spend budget and
    /// eviction degradation. Defaults to [`CostPlan::unlimited`],
    /// whose decisions are bit-identical to the frozen reference.
    pub cost: CostPlan,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            fps: 24.0,
            gop_slots: 8,
            horizon_slots: 240,
            headroom: 1.15,
            policy: DvfsPolicy::StretchToDeadline,
            shard_policy: ShardPolicy::LeastLoaded,
            evict_miss_windows: 1,
            cost: CostPlan::unlimited(),
        }
    }
}

/// One entry of the admission log — the decision stream compared
/// across backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionEvent {
    /// GOP-boundary slot the decision was taken at.
    pub slot: usize,
    /// The user concerned.
    pub user: usize,
    /// Shard involved (`None` for queue-side events).
    pub shard: Option<usize>,
    /// What happened.
    pub kind: EventKind,
}

/// Per-shard aggregate of an online run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Shard (socket) index.
    pub shard: usize,
    /// The backend's label — the socket-tagged platform name for
    /// platform shards, so reports stay attributable to a socket.
    pub label: String,
    /// Effective capacity in reference cores (sum of core speed
    /// factors); shards may differ on heterogeneous platforms.
    pub capacity_cores: f64,
    /// Users ever admitted here.
    pub admitted: usize,
    /// Peak simultaneous users.
    pub peak_users: usize,
    /// Energy, joules.
    pub energy_j: f64,
    /// Deadline windows evaluated (per active core).
    pub windows: usize,
    /// Windows ending with unfinished work.
    pub window_misses: usize,
    /// Mean busy cores per slot.
    pub avg_active_cores: f64,
    /// Wall-clock seconds this shard spent executing real work (0.0 on
    /// analytical shards).
    pub wall_secs: f64,
    /// Measured vs. modeled time of every completed deadline window on
    /// this shard, in window order.
    pub window_times: Vec<WindowTiming>,
}

impl ShardReport {
    /// Overall measured/modeled window-time ratio of this shard;
    /// `None` when the shard modeled no busy time or ran no real work.
    pub fn window_time_ratio(&self) -> Option<f64> {
        WindowTiming::aggregate_ratio(&self.window_times)
    }
}

/// Aggregate outcome of an online serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineReport {
    /// Shard policy label.
    pub shard_policy: String,
    /// Slots served.
    pub horizon_slots: usize,
    /// Requests that arrived within the horizon.
    pub arrivals: usize,
    /// Users admitted (each at most once).
    pub admissions: usize,
    /// Users evicted for sustained misses.
    pub evictions: usize,
    /// Users that departed voluntarily while active.
    pub departures: usize,
    /// Queued users that gave up before admission.
    pub abandoned: usize,
    /// Requests that could never fit any shard.
    pub rejected: usize,
    /// Requests still queued when the horizon ended.
    pub queued_at_end: usize,
    /// Users still active when the horizon ended.
    pub active_at_end: usize,
    /// Mean slots spent queued before admission.
    pub mean_queue_wait_slots: f64,
    /// Time-averaged simultaneously active users.
    pub avg_concurrent_users: f64,
    /// Peak simultaneously active users.
    pub peak_concurrent_users: usize,
    /// Deadline windows across all shards.
    pub windows: usize,
    /// Missed windows across all shards.
    pub window_misses: usize,
    /// Total energy, joules.
    pub energy_j: f64,
    /// Per-shard aggregates.
    pub shards: Vec<ShardReport>,
    /// The full decision log, in decision order.
    pub events: Vec<AdmissionEvent>,
    /// Control-plane cost: queue-side wall time and decision counts
    /// from the admission loop, placement-side wall time and replan
    /// counts summed over the shard drivers.
    pub controller: ControllerTiming,
}

impl OnlineReport {
    /// Fraction of deadline windows met across all shards; 0.0 when no
    /// window was ever evaluated.
    pub fn on_time_rate(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            1.0 - self.window_misses as f64 / self.windows as f64
        }
    }

    /// (total measured wall, total modeled makespan) over every
    /// shard's deadline windows, in one pass.
    fn window_totals(&self) -> (f64, f64) {
        self.shards.iter().fold((0.0, 0.0), |(wall, modeled), s| {
            let (w, m) = WindowTiming::totals(&s.window_times);
            (wall + w, modeled + m)
        })
    }

    /// Total measured wall seconds over every shard's deadline windows.
    pub fn measured_window_secs(&self) -> f64 {
        self.window_totals().0
    }

    /// Total modeled makespan seconds over every shard's windows.
    pub fn modeled_window_secs(&self) -> f64 {
        self.window_totals().1
    }

    /// Overall measured/modeled window-time ratio across shards;
    /// `None` on cost-only runs (no real work was executed) or when
    /// nothing was ever scheduled.
    pub fn window_time_ratio(&self) -> Option<f64> {
        let (measured, modeled) = self.window_totals();
        WindowTiming::ratio_from(measured, modeled)
    }

    /// This report with the wall-clock controller timings zeroed. The
    /// backend-independent decision counters survive, so analytical
    /// and real-execution replays of one trace compare equal.
    pub fn modeled_only(&self) -> Self {
        let mut r = self.clone();
        r.controller = self.controller.modeled_only();
        r
    }
}

/// Replays `workloads` demands for admitted users, staggered 3 slots
/// per user so IDR frames decorrelate (mirrors `core`'s profile
/// replay).
pub(crate) struct TraceSource<'a, W> {
    pub(crate) workloads: &'a [W],
    pub(crate) profile_of: BTreeMap<usize, usize>,
}

impl<W: Workload> DemandSource for TraceSource<'_, W> {
    fn demand_at(&self, user: usize, slot: usize) -> Vec<f64> {
        self.workloads[self.profile_of[&user]].demand_at(slot + user * 3)
    }

    fn steady(&self, user: usize) -> bool {
        self.workloads[self.profile_of[&user]].steady()
    }

    fn work_for(
        &self,
        user: usize,
        slot: usize,
        thread: usize,
    ) -> Option<Box<dyn FnOnce() + Send + '_>> {
        self.workloads[self.profile_of[&user]].work_for(slot + user * 3, thread)
    }
}

/// An admitted user's controller-side state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActiveUser {
    pub(crate) shard: usize,
    pub(crate) demand_cores: f64,
    pub(crate) departure_slot: Option<usize>,
    pub(crate) miss_tolerance: usize,
    /// Service tier admitted at — the degradation ladder position an
    /// eviction downgrades from. Inert in the frozen reference.
    pub(crate) class: crate::request::DeadlineClass,
}

/// Validated trace-independent inputs shared by [`serve_online`] and
/// the frozen [`serve_online_reference`](crate::serve_online_reference)
/// baseline, so the two controllers decide from identical numbers.
pub(crate) struct Setup {
    pub(crate) capacities: Vec<f64>,
    pub(crate) labels: Vec<String>,
    pub(crate) max_capacity: f64,
    /// user id → workload index.
    pub(crate) profile_of: BTreeMap<usize, usize>,
    /// Padded fractional-core demand per workload index (line 1).
    pub(crate) demand_of: Vec<f64>,
    pub(crate) loop_cfg: ServerLoopConfig,
}

impl Setup {
    pub(crate) fn new<W: Workload, B: ExecutionBackend>(
        cfg: &OnlineConfig,
        workloads: &[W],
        trace: &[UserRequest],
        shards: &[B],
    ) -> Self {
        assert!(!workloads.is_empty(), "need at least one workload");
        assert!(!shards.is_empty(), "need at least one shard");
        assert!(
            trace
                .windows(2)
                .all(|w| w[0].arrival_slot <= w[1].arrival_slot),
            "trace must be sorted by arrival slot"
        );
        let capacities: Vec<f64> = shards
            .iter()
            .map(|b| b.core_speeds().iter().sum())
            .collect();
        let labels: Vec<String> = shards.iter().map(ExecutionBackend::label).collect();
        let max_capacity = capacities.iter().copied().fold(0.0f64, f64::max);
        let mut profile_of: BTreeMap<usize, usize> = BTreeMap::new();
        for r in trace {
            assert!(
                r.profile < workloads.len(),
                "request for user {} names profile {} but only {} workloads given",
                r.user,
                r.profile,
                workloads.len()
            );
            assert!(
                profile_of.insert(r.user, r.profile).is_none(),
                "duplicate user id {}",
                r.user
            );
            assert!(
                r.departure_slot.is_none_or(|d| d >= r.arrival_slot),
                "user {} departs at slot {:?}, before arriving at slot {}",
                r.user,
                r.departure_slot,
                r.arrival_slot
            );
        }
        let demand_of: Vec<f64> = workloads
            .iter()
            .map(|w| w.steady_demand().iter().sum::<f64>() * cfg.fps * cfg.headroom)
            .collect();
        let loop_cfg = ServerLoopConfig {
            fps: cfg.fps,
            slots: cfg.horizon_slots,
            policy: cfg.policy,
            replan: ReplanPolicy::PerGop {
                headroom: cfg.headroom,
            },
            gop_slots: cfg.gop_slots,
            window_slots: None,
        };
        Self {
            capacities,
            labels,
            max_capacity,
            profile_of,
            demand_of,
            loop_cfg,
        }
    }
}

/// Serves `trace` online across per-socket `shards` (one backend per
/// socket, each covering that socket's cores). Shards may be
/// heterogeneous — different core counts and speed factors — in which
/// case each is admitted against its own effective capacity (the sum
/// of its cores' speed factors).
///
/// Decisions depend only on the backends' analytical accounting, so
/// any [`ExecutionBackend`] mix with identical platforms replays the
/// same decision stream.
///
/// # Panics
///
/// Panics when `workloads` or `shards` is empty, `trace` is not sorted
/// by arrival slot, a trace user id repeats, a request departs before
/// it arrives, or a request's profile index is out of range.
pub fn serve_online<W: Workload, B: ExecutionBackend>(
    cfg: &OnlineConfig,
    workloads: &[W],
    trace: &[UserRequest],
    shards: Vec<B>,
) -> OnlineReport {
    serve_online_with(cfg, workloads, trace, shards, NoopRecorder)
}

/// [`serve_online`] with a telemetry [`Recorder`] attached: shard
/// drivers stamp their events with their shard index as the track, the
/// controller stamps queue-side events (abandon/reject/downgrade,
/// queue depth, boundary passes) with
/// [`CONTROL_TRACK`](medvt_telemetry::CONTROL_TRACK), and every
/// counter/histogram is folded into the recorder when the run ends.
///
/// Pass `&FlightRecorder` (a `Copy` recorder) to capture, or
/// [`NoopRecorder`] for the zero-cost disabled path — decisions and
/// reports are bit-identical either way.
///
/// # Panics
///
/// Same contract as [`serve_online`].
pub fn serve_online_with<W: Workload, B: ExecutionBackend, R: Recorder + Copy>(
    cfg: &OnlineConfig,
    workloads: &[W],
    trace: &[UserRequest],
    shards: Vec<B>,
    recorder: R,
) -> OnlineReport {
    let mut controller = Controller::new(cfg, workloads, trace, shards, recorder);
    while controller.slot < cfg.horizon_slots {
        let clock = controller.open_boundary();
        controller.ingest(controller.slot + 1);
        controller.depart();
        controller.evict();
        controller.admit();
        controller.advance(clock);
    }
    controller.finish()
}

/// Demand-side index of the waiting queue — what the admission scan
/// needs to know about queued requests without walking them.
///
/// [`enqueue`](Self::enqueue) and [`dequeue`](Self::dequeue) are the
/// only mutators of the multiset; call them exactly when a request
/// enters or leaves the [`RequestQueue`].
struct QueuedDemands {
    /// The largest shard capacity plus the fit tolerance: a demand
    /// above it fits no shard at any load.
    ceiling: f64,
    /// Multiset of queued padded demands keyed by bit pattern (demands
    /// are non-negative finite floats, so bit order = numeric order).
    counts: BTreeMap<u64, usize>,
}

impl QueuedDemands {
    fn never_fits(&self, demand: f64) -> bool {
        demand > self.ceiling
    }

    /// The smallest queued demand — the FIFO scan's stop probe.
    fn min_demand(&self) -> Option<f64> {
        self.counts.keys().next().map(|&bits| f64::from_bits(bits))
    }

    /// `true` while a request that fits no shard waits: it is rejected
    /// load-independently at its first scan, so an early stop must not
    /// skip it. Only between a bad arrival and the boundary that
    /// rejects it.
    fn holds_never_fitting(&self) -> bool {
        let largest = self.counts.keys().next_back();
        largest.is_some_and(|&bits| self.never_fits(f64::from_bits(bits)))
    }

    fn enqueue(&mut self, demand: f64) {
        *self.counts.entry(demand.to_bits()).or_insert(0) += 1;
    }

    fn dequeue(&mut self, demand: f64) {
        let bits = demand.to_bits();
        let count = self.counts.get_mut(&bits).expect("demand was enqueued");
        *count -= 1;
        if *count == 0 {
            self.counts.remove(&bits);
        }
    }
}

/// The GOP-boundary controller behind [`serve_online_with`]: the
/// serving state plus one method per phase of a boundary, in the order
/// the module docs list them.
struct Controller<'a, W, B: ExecutionBackend, R: Recorder> {
    cfg: &'a OnlineConfig,
    trace: &'a [UserRequest],
    setup: Setup,
    /// The workloads and who transcodes which.
    source: TraceSource<'a, W>,
    recorder: R,
    /// One shard loop per socket, stamping telemetry onto its index.
    drivers: Vec<LoopDriver<B, R>>,
    queue: RequestQueue,
    queued: QueuedDemands,
    sharder: Sharder,
    active: BTreeMap<usize, ActiveUser>,
    /// (departure slot, user) of admitted users, earliest first; entries
    /// go stale on eviction and are skipped lazily on pop. A set, so a
    /// degraded-then-readmitted user still holds one entry.
    departures: BTreeSet<(usize, usize)>,
    /// Per-boundary membership deltas, reused across boundaries.
    added: Vec<Vec<usize>>,
    removed: Vec<Vec<usize>>,
    shard_users: Vec<usize>,
    /// The decision log — every decision enters through
    /// [`Self::emit`], and the report's per-kind tallies are a census
    /// of it — plus the running tallies it does not record. `arrivals`
    /// doubles as the trace cursor.
    tally: FinishState,
    /// Queue-side telemetry meter; `ControllerTiming` and the mean
    /// queue wait are derived from it when the run ends.
    meter: Metrics,
    /// Cost ledger: credits billed per window for the active set.
    window_spend: f64,
    /// The boundary being decided.
    slot: usize,
}

impl<'a, W: Workload, B: ExecutionBackend, R: Recorder + Copy> Controller<'a, W, B, R> {
    fn new(
        cfg: &'a OnlineConfig,
        workloads: &'a [W],
        trace: &'a [UserRequest],
        shards: Vec<B>,
        recorder: R,
    ) -> Self {
        let setup = Setup::new(cfg, workloads, trace, &shards);
        let drivers: Vec<LoopDriver<B, R>> = shards
            .into_iter()
            .enumerate()
            .map(|(s, b)| {
                LoopDriver::with_recorder(b, setup.loop_cfg, vec![], vec![], recorder, s as u16)
            })
            .collect();
        Self {
            cfg,
            trace,
            source: TraceSource {
                workloads,
                profile_of: setup.profile_of.clone(),
            },
            recorder,
            // Boundaries all sit below the horizon, so departures past
            // it never need indexing.
            queue: RequestQueue::with_departure_bound(cfg.horizon_slots.max(1)),
            queued: QueuedDemands {
                ceiling: setup.max_capacity + 1e-9,
                counts: BTreeMap::new(),
            },
            sharder: Sharder::new(cfg.shard_policy, setup.capacities.clone()),
            active: BTreeMap::new(),
            departures: BTreeSet::new(),
            added: vec![Vec::new(); drivers.len()],
            removed: vec![Vec::new(); drivers.len()],
            shard_users: vec![0; drivers.len()],
            tally: FinishState {
                shard_peak: vec![0; drivers.len()],
                ..FinishState::default()
            },
            meter: Metrics::new(),
            window_spend: 0.0,
            slot: 0,
            drivers,
            setup,
        }
    }

    fn record(&self, track: u16, kind: TelKind) {
        if R::ENABLED {
            self.recorder
                .record(TelEvent::new(track, self.slot as u32, kind));
        }
    }

    /// Logs one decision taken at this boundary: the report's event
    /// stream, the meter's counters and the flight recorder all see
    /// it from here and nowhere else.
    fn emit(&mut self, kind: EventKind, user: usize, shard: Option<usize>) {
        if let Some(counter) = kind.counter() {
            self.meter.add(counter, 1);
        }
        // Admits and rejects were counted as decisions when `admit`
        // tallied the queue it scanned.
        if !matches!(kind, EventKind::Admit | EventKind::Reject) {
            self.meter.add(CounterId::Decisions, 1);
        }
        self.record(
            shard.map_or(CONTROL_TRACK, |s| s as u16),
            TelKind::Decision {
                kind,
                user: user as u32,
            },
        );
        self.tally.events.push(AdmissionEvent {
            slot: self.slot,
            user,
            shard,
            kind,
        });
    }

    fn open_boundary(&mut self) -> Instant {
        let clock = Instant::now();
        self.meter.add(CounterId::Boundaries, 1);
        self.record(CONTROL_TRACK, TelKind::GopBoundary);
        clock
    }

    /// The one way into the queue: fresh arrivals and degraded
    /// re-entries alike.
    fn enqueue(&mut self, request: UserRequest) {
        let demand = self.setup.demand_of[request.profile];
        self.queue.push(request);
        self.queued.enqueue(demand);
    }

    /// Phase 1: requests arriving before slot `end` join the queue.
    fn ingest(&mut self, end: usize) {
        let trace = self.trace;
        while let Some(request) = trace
            .get(self.tally.arrivals)
            .filter(|r| r.arrival_slot < end)
        {
            self.enqueue(request.clone());
            self.tally.arrivals += 1;
        }
    }

    /// Takes `user` out of the active set, off its shard and off the
    /// spend ledger, logging why (`Depart` or `Evict`).
    fn release(&mut self, user: usize, why: EventKind) -> ActiveUser {
        let a = self.active.remove(&user).expect("leaving user is active");
        self.sharder.release_load(a.shard, a.demand_cores);
        self.window_spend -= a.demand_cores * self.cfg.cost.credits_per_core_window;
        self.shard_users[a.shard] -= 1;
        self.removed[a.shard].push(user);
        self.emit(why, user, Some(a.shard));
        a
    }

    /// Phase 2: voluntary departures — active users first (in user-id
    /// order), then queued requests whose user gave up.
    fn depart(&mut self) {
        let mut departing: Vec<usize> = Vec::new();
        while self.departures.first().is_some_and(|e| e.0 <= self.slot) {
            let (_, user) = self.departures.pop_first().expect("peeked above");
            if self.active.contains_key(&user) {
                departing.push(user);
            }
        }
        departing.sort_unstable();
        for user in departing {
            self.release(user, EventKind::Depart);
        }
        for request in self.queue.drain_departed(self.slot) {
            self.queued.dequeue(self.setup.demand_of[request.profile]);
            self.emit(EventKind::Abandon, request.user, None);
        }
    }

    /// Phase 3: evictions under sustained deadline misses. Only users
    /// whose *latest* window missed can be over their tolerance, and
    /// the drivers index exactly those.
    fn evict(&mut self) {
        let mut evicting: Vec<usize> = Vec::new();
        for d in &self.drivers {
            for u in d.miss_streaks() {
                let over = self.active.get(&u).is_some_and(|a| {
                    d.user_stats(u)
                        .is_some_and(|s| s.consecutive_window_misses >= a.miss_tolerance)
                });
                if over {
                    evicting.push(u);
                }
            }
        }
        evicting.sort_unstable();
        for user in evicting {
            let a = self.release(user, EventKind::Evict);
            // Graceful degradation: the evicted user re-enters the
            // queue one deadline class lower (best-effort evictions
            // stay final). Departures ran above, so the re-queued
            // departure slot — if any — is strictly in the future and
            // the queue indexes it like a fresh arrival. The same
            // boundary's admission phase may re-admit immediately onto
            // whatever capacity the eviction freed.
            let lower = a.class.downgrade();
            if let Some(class) = lower.filter(|_| self.cfg.cost.degrade_on_evict) {
                self.enqueue(UserRequest {
                    user,
                    arrival_slot: self.slot,
                    profile: self.source.profile_of[&user],
                    class,
                    departure_slot: a.departure_slot,
                });
                self.emit(EventKind::Downgrade, user, None);
            }
        }
    }

    /// Phase 4: admissions — Algorithm 2 line 1 as a FIFO scan. Each
    /// queued request, in arrival order, is rejected when its demand
    /// fits no shard at any load, and otherwise admitted iff its
    /// billing keeps the budget and the [`ShardPolicy`] picks a shard
    /// it fits; loads and spend only grow within a boundary.
    ///
    /// The scan stops at the first request once the smallest demand
    /// still waiting fits no shard or is over budget: both are
    /// demand-monotone, so every later request would wait, and
    /// `skip_all` replays their offers on a `RoundRobin` rotation. A
    /// request that leaves the queue leaves the demand index inside the
    /// scan, so the probe reads the true minimum of what still waits.
    /// The stop is not armed while a never-fitting request waits, whose
    /// Reject must not be deferred, nor for `RoundRobin` under a finite
    /// budget: a budget-refused request waits without being offered to
    /// the rotation — the shard never saw it — so the unscanned tail
    /// would over-advance the cursor.
    fn admit(&mut self) {
        let considered = self.queue.len();
        self.meter.add(CounterId::Decisions, considered as u64);
        let Self {
            queue,
            queued,
            sharder,
            window_spend,
            setup,
            source,
            cfg,
            ..
        } = self;
        let plan = cfg.cost;
        let may_stop = !queued.holds_never_fitting()
            && (cfg.shard_policy != ShardPolicy::RoundRobin || !plan.is_budgeted());
        let mut scanned = 0usize;
        let (admitted, rejected) = queue.try_admit_while(|request| {
            if may_stop {
                let least = queued.min_demand().expect("the scanned request is queued");
                if !sharder.any_fits(least) || plan.over_budget(*window_spend, least) {
                    return None;
                }
            }
            scanned += 1;
            let demand = setup.demand_of[request.profile];
            if queued.never_fits(demand) {
                queued.dequeue(demand);
                return Some(AdmitDecision::Reject);
            }
            if plan.over_budget(*window_spend, demand) {
                return Some(AdmitDecision::Wait);
            }
            let class = source.workloads[request.profile].content_class();
            Some(match sharder.pick(demand, class) {
                Some(shard) => {
                    // Reserve, bill and unindex immediately so later
                    // queue entries see the updated load, spend and
                    // minimum.
                    sharder.admit_load(shard, demand);
                    *window_spend += demand * plan.credits_per_core_window;
                    queued.dequeue(demand);
                    AdmitDecision::Admit(shard)
                }
                None => AdmitDecision::Wait,
            })
        });
        sharder.skip_all(considered - scanned);
        for request in rejected {
            self.emit(EventKind::Reject, request.user, None);
        }
        for (request, shard) in admitted {
            let demand = self.setup.demand_of[request.profile];
            if let Some(d) = request.departure_slot {
                self.departures.insert((d, request.user));
            }
            self.active.insert(
                request.user,
                ActiveUser {
                    shard,
                    demand_cores: demand,
                    departure_slot: request.departure_slot,
                    miss_tolerance: request.class.miss_tolerance()
                        * self.cfg.evict_miss_windows.max(1),
                    class: request.class,
                },
            );
            self.shard_users[shard] += 1;
            self.added[shard].push(request.user);
            let waited = self.slot - request.arrival_slot;
            self.meter.observe(HistId::QueueWaitSlots, waited as u64);
            self.emit(EventKind::Admit, request.user, Some(shard));
        }
        let depth = self.queue.len() as u32;
        self.record(CONTROL_TRACK, TelKind::QueueDepth { depth });
    }

    /// Phase 5: membership deltas → shards, then every shard advances
    /// one GOP in lockstep.
    fn advance(&mut self, boundary_clock: Instant) {
        for (s, driver) in self.drivers.iter_mut().enumerate() {
            self.tally.shard_peak[s] = self.tally.shard_peak[s].max(self.shard_users[s]);
            driver.update_membership(&self.added[s], &self.removed[s]);
            self.added[s].clear();
            self.removed[s].clear();
        }
        self.meter.observe(
            HistId::BoundaryNs,
            boundary_clock.elapsed().as_nanos() as u64,
        );
        let slots = self.cfg.gop_slots.min(self.cfg.horizon_slots - self.slot);
        for driver in &mut self.drivers {
            driver.advance(&self.source, slots);
        }
        self.tally.concurrent_slot_sum += self.active.len() * slots;
        self.tally.peak_concurrent = self.tally.peak_concurrent.max(self.active.len());
        self.slot += slots;
    }

    fn finish(mut self) -> OnlineReport {
        // Requests arriving after the last GOP boundary still arrived
        // within the horizon: ingest them so `arrivals`/`queued_at_end`
        // reconcile with the trace (they could not have been admitted —
        // no boundary remained to act on).
        self.ingest(self.cfg.horizon_slots);
        // Derive the report's timing view, then fold the queue-side
        // meter into the recorder (each driver folds its own meter in
        // `into_report`).
        let mut tally = self.tally;
        tally.timing = ControllerTiming::from_metrics(&self.meter);
        tally.wait_slots_sum = self.meter.hist(HistId::QueueWaitSlots).sum() as usize;
        tally.queued_at_end = self.queue.len();
        tally.active_at_end = self.active.len();
        self.recorder.absorb(&self.meter);
        let reports: Vec<LoopReport> = self
            .drivers
            .into_iter()
            .map(LoopDriver::into_report)
            .collect();
        finish_report(self.cfg, &self.setup, reports, tally)
    }
}

/// Serve-loop state handed to [`finish_report`] once the horizon ends:
/// the decision stream and what it does not itself record.
#[derive(Default)]
pub(crate) struct FinishState {
    pub(crate) queued_at_end: usize,
    pub(crate) active_at_end: usize,
    pub(crate) arrivals: usize,
    pub(crate) wait_slots_sum: usize,
    pub(crate) concurrent_slot_sum: usize,
    pub(crate) peak_concurrent: usize,
    pub(crate) shard_peak: Vec<usize>,
    pub(crate) events: Vec<AdmissionEvent>,
    pub(crate) timing: ControllerTiming,
}

/// Assembles the [`OnlineReport`] from the shards' final
/// [`LoopReport`]s — shared with the frozen reference controller so
/// both summarize identically. The per-kind tallies are a census of
/// the decision stream.
pub(crate) fn finish_report(
    cfg: &OnlineConfig,
    setup: &Setup,
    reports: Vec<LoopReport>,
    state: FinishState,
) -> OnlineReport {
    let (mut admissions, mut evictions, mut departures) = (0usize, 0usize, 0usize);
    let (mut abandoned, mut rejected) = (0usize, 0usize);
    let mut shard_admitted = vec![0usize; reports.len()];
    for e in &state.events {
        match e.kind {
            EventKind::Admit => {
                admissions += 1;
                shard_admitted[e.shard.expect("an admit names its shard")] += 1;
            }
            EventKind::Evict => evictions += 1,
            EventKind::Depart => departures += 1,
            EventKind::Abandon => abandoned += 1,
            EventKind::Reject => rejected += 1,
            EventKind::Downgrade => {}
        }
    }
    let mut shard_reports = Vec::with_capacity(reports.len());
    let (mut windows, mut window_misses, mut energy) = (0usize, 0usize, 0.0f64);
    // Placement-side cost lives in the drivers; fold it into the
    // serve-level queue/decision tallies.
    let mut controller = state.timing;
    for (s, r) in reports.into_iter().enumerate() {
        windows += r.windows;
        window_misses += r.window_misses;
        energy += r.energy_j;
        controller.placement_ns += r.controller.placement_ns;
        controller.replans += r.controller.replans;
        shard_reports.push(ShardReport {
            shard: s,
            label: setup.labels[s].clone(),
            capacity_cores: setup.capacities[s],
            admitted: shard_admitted[s],
            peak_users: state.shard_peak[s],
            energy_j: r.energy_j,
            windows: r.windows,
            window_misses: r.window_misses,
            avg_active_cores: r.avg_active_cores(),
            wall_secs: r.wall_secs,
            window_times: r.window_times,
        });
    }
    OnlineReport {
        shard_policy: cfg.shard_policy.label().to_string(),
        horizon_slots: cfg.horizon_slots,
        arrivals: state.arrivals,
        admissions,
        evictions,
        departures,
        abandoned,
        rejected,
        queued_at_end: state.queued_at_end,
        active_at_end: state.active_at_end,
        mean_queue_wait_slots: if admissions == 0 {
            0.0
        } else {
            state.wait_slots_sum as f64 / admissions as f64
        },
        avg_concurrent_users: if cfg.horizon_slots == 0 {
            0.0
        } else {
            state.concurrent_slot_sum as f64 / cfg.horizon_slots as f64
        },
        peak_concurrent_users: state.peak_concurrent,
        windows,
        window_misses,
        energy_j: energy,
        shards: shard_reports,
        events: state.events,
        controller,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{DeadlineClass, UserRequest};
    use medvt_mpsoc::{Platform, PowerModel};
    use medvt_runtime::SimBackend;

    const SLOT: f64 = 1.0 / 24.0;

    /// Flat synthetic workload: `tiles` tiles of `secs` each.
    struct Flat {
        tiles: usize,
        secs: f64,
        class: &'static str,
    }

    impl Workload for Flat {
        fn steady_demand(&self) -> Vec<f64> {
            vec![self.secs; self.tiles]
        }
        fn demand_at(&self, _slot: usize) -> Vec<f64> {
            vec![self.secs; self.tiles]
        }
        fn content_class(&self) -> &str {
            self.class
        }
    }

    /// ~1.92 admission cores with headroom: two fit a quad-core shard.
    const BUSY: Flat = Flat {
        tiles: 2,
        secs: SLOT / 24.0 * 20.0,
        class: "busy",
    };

    /// Eight cores before headroom: fits no quad-core shard.
    const HUGE: Flat = Flat {
        tiles: 8,
        secs: SLOT,
        class: "huge",
    };

    /// Claims one core at admission but needs six per slot: misses
    /// every window once admitted.
    struct Lying;

    impl Workload for Lying {
        fn steady_demand(&self) -> Vec<f64> {
            vec![SLOT / 4.0; 4]
        }
        fn demand_at(&self, _slot: usize) -> Vec<f64> {
            vec![SLOT * 1.5; 4]
        }
        fn content_class(&self) -> &str {
            "chaos"
        }
    }

    fn quad_shards(n: usize) -> Vec<SimBackend> {
        (0..n)
            .map(|_| SimBackend::new(Platform::quad_core(), PowerModel::default()))
            .collect()
    }

    fn request(user: usize, arrival: usize, departure: Option<usize>) -> UserRequest {
        UserRequest {
            user,
            arrival_slot: arrival,
            profile: 0,
            class: DeadlineClass::Standard,
            departure_slot: departure,
        }
    }

    fn cfg(horizon: usize) -> OnlineConfig {
        OnlineConfig {
            horizon_slots: horizon,
            ..Default::default()
        }
    }

    #[test]
    fn admits_arrivals_and_honours_departures() {
        // One light user per core-quarter: everything fits shard 0.
        let workloads = [Flat {
            tiles: 2,
            secs: SLOT / 8.0,
            class: "brain",
        }];
        let trace = vec![request(0, 0, Some(48)), request(1, 10, None)];
        let report = serve_online(&cfg(96), &workloads, &trace, quad_shards(2));
        assert_eq!(report.arrivals, 2);
        assert_eq!(report.admissions, 2);
        assert_eq!(report.departures, 1);
        assert_eq!(report.evictions, 0);
        assert_eq!(report.active_at_end, 1);
        // User 1 arrived at slot 10 → admitted at boundary 16.
        let admit1 = report
            .events
            .iter()
            .find(|e| e.user == 1 && e.kind == EventKind::Admit)
            .expect("user 1 admitted");
        assert_eq!(admit1.slot, 16);
        assert!(report.mean_queue_wait_slots > 0.0);
        assert!(report.on_time_rate() > 0.99);
    }

    #[test]
    fn overloaded_strict_user_gets_evicted() {
        // A user demanding 6 core-slots on a 4-core shard: permanently
        // over capacity once forced in. Force it by setting headroom
        // low and capacity check off via a demand just under capacity
        // but real per-slot demand far above it.
        let trace = vec![UserRequest {
            user: 0,
            arrival_slot: 0,
            profile: 0,
            class: DeadlineClass::Strict,
            departure_slot: None,
        }];
        let report = serve_online(&cfg(240), &[Lying], &trace, quad_shards(1));
        assert_eq!(report.admissions, 1);
        assert_eq!(report.evictions, 1, "sustained misses must evict");
        assert_eq!(report.active_at_end, 0);
        let evict = report
            .events
            .iter()
            .find(|e| e.kind == EventKind::Evict)
            .expect("evicted");
        // The first window's miss (evaluated at the end of slot 23) is
        // visible at the very next GOP boundary.
        assert_eq!(evict.slot, 24);
    }

    #[test]
    fn impossible_demand_is_rejected_not_queued_forever() {
        let workloads = [HUGE]; // 8 cores × headroom — can never fit a 4-core shard.
        let trace = vec![request(0, 0, None)];
        let report = serve_online(&cfg(48), &workloads, &trace, quad_shards(2));
        assert_eq!(report.admissions, 0);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.queued_at_end, 0);
    }

    #[test]
    fn full_shards_keep_requests_queued() {
        // Each user needs ~2.3 cores (2 tiles × SLOT × 1.15 headroom
        // × 24 fps / 24): two per 4-core shard. 5 users, 1 shard → 2
        // admitted, 3 queued (none reject: individually they fit).
        let workloads = [BUSY];
        let trace: Vec<UserRequest> = (0..5).map(|u| request(u, 0, None)).collect();
        let report = serve_online(&cfg(48), &workloads, &trace, quad_shards(1));
        assert_eq!(report.admissions, 2);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.queued_at_end, 3);
        assert_eq!(report.peak_concurrent_users, 2);
    }

    #[test]
    fn freed_capacity_is_reused() {
        // Shard fits two; a third waits until user 0 departs.
        let workloads = [BUSY];
        let trace = vec![
            request(0, 0, Some(24)),
            request(1, 0, None),
            request(2, 0, None),
        ];
        let report = serve_online(&cfg(96), &workloads, &trace, quad_shards(1));
        assert_eq!(report.admissions, 3);
        let admit2 = report
            .events
            .iter()
            .find(|e| e.user == 2 && e.kind == EventKind::Admit)
            .expect("eventually admitted");
        assert_eq!(admit2.slot, 24, "admitted right at the departure boundary");
        assert!(report.mean_queue_wait_slots > 0.0);
    }

    #[test]
    fn least_loaded_spreads_round_robin_blocks() {
        // 4 heavy users (≈2.3 cores each) on two 4-core shards: least-
        // loaded fits two per shard; blind rotation repeatedly offers
        // a full shard while the other has room.
        let workloads = [BUSY];
        let trace: Vec<UserRequest> = (0..4).map(|u| request(u, 0, None)).collect();
        let ll = serve_online(
            &OnlineConfig {
                shard_policy: ShardPolicy::LeastLoaded,
                ..cfg(48)
            },
            &workloads,
            &trace,
            quad_shards(2),
        );
        assert_eq!(ll.admissions, 4);
        assert_eq!(ll.shards[0].peak_users, 2);
        assert_eq!(ll.shards[1].peak_users, 2);
    }

    #[test]
    fn tail_arrivals_after_last_boundary_still_counted() {
        let workloads = [Flat {
            tiles: 1,
            secs: SLOT / 8.0,
            class: "x",
        }];
        // Boundaries at 0 and 8 only: slot 15 arrives after the last
        // one (still within the horizon), slot 16 is outside it.
        let trace = vec![request(0, 15, None), request(1, 16, None)];
        let report = serve_online(&cfg(16), &workloads, &trace, quad_shards(1));
        assert_eq!(report.arrivals, 1);
        assert_eq!(report.admissions, 0);
        assert_eq!(report.queued_at_end, 1);
    }

    #[test]
    fn heterogeneous_shards_admit_against_their_own_capacity() {
        use medvt_mpsoc::{CoreClass, FrequencySet};
        // Shard 0: a big.LITTLE socket (4×1.0 + 4×0.45 = 5.8 effective
        // cores); shard 1: a LITTLE-only socket (4×0.45 = 1.8).
        let bl = Platform::big_little();
        let little_only = Platform::with_classes(
            "LITTLE-only socket",
            1,
            vec![CoreClass::new(
                "LITTLE",
                4,
                FrequencySet::little_cluster(),
                0.45,
            )],
            50e-6,
        );
        let shards = vec![
            SimBackend::new(bl.socket_view(0), PowerModel::default()),
            SimBackend::new(little_only, PowerModel::default()),
        ];
        // Each user demands ~1.92 effective cores (headroom included):
        // beyond the little shard's 1.8, comfortably inside the big one.
        let workloads = [BUSY];
        let trace: Vec<UserRequest> = (0..4).map(|u| request(u, 0, None)).collect();
        let report = serve_online(&cfg(48), &workloads, &trace, shards);
        // The 5.8-capacity shard fits three 1.92-core users; the
        // 1.8-capacity shard fits none — nothing may be admitted there.
        assert_eq!(report.admissions, 3);
        assert_eq!(report.shards[0].admitted, 3);
        assert_eq!(report.shards[1].admitted, 0);
        assert_eq!(report.rejected, 0, "demand fits the big shard");
        assert_eq!(report.queued_at_end, 1);
        // Capacities and socket labels are surfaced per shard.
        assert!((report.shards[0].capacity_cores - 5.8).abs() < 1e-9);
        assert!((report.shards[1].capacity_cores - 1.8).abs() < 1e-9);
        assert_eq!(report.shards[0].label, "big.LITTLE MPSoC (socket 0)");
        assert_eq!(report.shards[1].label, "LITTLE-only socket");
    }

    #[test]
    fn shard_reports_carry_socket_labels() {
        let workloads = [Flat {
            tiles: 2,
            secs: SLOT / 8.0,
            class: "brain",
        }];
        let platform = Platform::xeon_e5_2667_quad();
        let shards: Vec<SimBackend> = (0..platform.sockets)
            .map(|s| SimBackend::new(platform.socket_view(s), PowerModel::default()))
            .collect();
        let trace = vec![request(0, 0, None)];
        let report = serve_online(&cfg(48), &workloads, &trace, shards);
        let labels: Vec<&str> = report.shards.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "4x Intel Xeon E5-2667 (socket 0)",
                "4x Intel Xeon E5-2667 (socket 1)",
                "4x Intel Xeon E5-2667 (socket 2)",
                "4x Intel Xeon E5-2667 (socket 3)",
            ],
            "every shard report names its socket"
        );
    }

    #[test]
    fn optimized_and_reference_controllers_agree() {
        // A trace exercising every decision kind: admits, waits,
        // voluntary departures, queue abandons, outright rejects, and
        // a deadline eviction (profile 3 under-reports its demand).
        enum Mix {
            Flat(Flat),
            Lying(Lying),
        }
        impl Workload for Mix {
            fn steady_demand(&self) -> Vec<f64> {
                match self {
                    Mix::Flat(w) => w.steady_demand(),
                    Mix::Lying(w) => w.steady_demand(),
                }
            }
            fn demand_at(&self, slot: usize) -> Vec<f64> {
                match self {
                    Mix::Flat(w) => w.demand_at(slot),
                    Mix::Lying(w) => w.demand_at(slot),
                }
            }
            fn content_class(&self) -> &str {
                match self {
                    Mix::Flat(w) => w.content_class(),
                    Mix::Lying(w) => w.content_class(),
                }
            }
            fn steady(&self) -> bool {
                // Flat profiles are honestly steady; the lying one is
                // slot-invariant too, but keep it on the re-estimated
                // path so both refresh modes are exercised.
                matches!(self, Mix::Flat(_))
            }
        }
        let workloads = [
            Mix::Flat(BUSY),
            Mix::Flat(Flat {
                tiles: 1,
                secs: SLOT / 8.0,
                class: "light",
            }),
            Mix::Flat(HUGE),
            Mix::Lying(Lying),
        ];
        let mut trace = vec![
            request(0, 0, Some(48)), // busy, departs while active
            request(1, 0, None),     // busy
            request(2, 1, None),     // busy — waits behind the first two
            UserRequest {
                profile: 1,
                ..request(3, 2, Some(20))
            }, // light, may abandon
            UserRequest {
                profile: 2,
                ..request(4, 9, None)
            }, // huge → rejected
            UserRequest {
                profile: 3,
                class: DeadlineClass::Strict,
                ..request(5, 9, None)
            }, // lying → evicted
            UserRequest {
                profile: 1,
                ..request(6, 30, None)
            }, // light, late
            request(7, 60, Some(70)), // busy, abandons if stuck
        ];
        trace.sort_by_key(|r| r.arrival_slot);
        for policy in [
            ShardPolicy::LeastLoaded,
            ShardPolicy::RoundRobin,
            ShardPolicy::ContentAffinity,
        ] {
            let cfg = OnlineConfig {
                shard_policy: policy,
                horizon_slots: 120,
                ..cfg(120)
            };
            let fast = serve_online(&cfg, &workloads, &trace, quad_shards(2));
            let slow = crate::serve_online_reference(&cfg, &workloads, &trace, quad_shards(2));
            assert_eq!(fast.events, slow.events, "{policy:?} decision stream");
            // Everything but the controller wall costs is bit-equal
            // (the reference replans every boundary, the fast path
            // only when membership or demand changed).
            let strip = |mut r: OnlineReport| {
                r.controller = ControllerTiming::default();
                r
            };
            assert_eq!(
                strip(fast.clone()),
                strip(slow.clone()),
                "{policy:?} report"
            );
            assert!(fast.controller.replans <= slow.controller.replans);
            assert_eq!(fast.controller.decisions, slow.controller.decisions);
            assert_eq!(fast.controller.boundaries, slow.controller.boundaries);
            assert!(fast.evictions >= 1, "{policy:?} must exercise eviction");
            assert!(fast.rejected >= 1, "{policy:?} must exercise rejection");
            assert!(fast.departures >= 1, "{policy:?} must exercise departure");
        }
    }

    #[test]
    fn budget_caps_admissions_and_departures_free_headroom() {
        // Each user demands ~1.917 cores; two 4-core shards hold four.
        // A 4-credit window budget at 1 credit per core-window holds
        // exactly two (3.83 credits) — cost, not capacity, binds.
        let workloads = [BUSY];
        let trace = vec![
            request(0, 0, Some(24)),
            request(1, 0, None),
            request(2, 0, None),
            request(3, 0, None),
        ];
        let capped = OnlineConfig {
            cost: CostPlan {
                credits_per_core_window: 1.0,
                budget_credits_per_window: 4.0,
                degrade_on_evict: false,
            },
            ..cfg(96)
        };
        let report = serve_online(&capped, &workloads, &trace, quad_shards(2));
        assert_eq!(report.admissions, 3, "two upfront, one after the departure");
        assert_eq!(report.rejected, 0, "budget waits, it never rejects");
        assert_eq!(report.departures, 1);
        assert_eq!(report.queued_at_end, 1);
        assert_eq!(report.active_at_end, 2);
        let admit_slots: Vec<usize> = report
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Admit)
            .map(|e| e.slot)
            .collect();
        assert_eq!(
            admit_slots,
            vec![0, 0, 24],
            "third admit lands exactly when the departure frees credits"
        );
        // Without the budget the same trace fills both shards at 0.
        let free = serve_online(&cfg(96), &workloads, &trace, quad_shards(2));
        assert_eq!(free.admissions, 4);
    }

    #[test]
    fn round_robin_rotation_ignores_unrelated_rejects_under_a_budget() {
        // Three quad shards, a 4-credit budget at 1 credit per core:
        // users 0 and 1 (~1.92 cores each) spend it at slot 0, users 2
        // and 3 wait on credits — refused by the budget, so never
        // offered to the rotation — until user 0 departs at 24. An
        // oversized request that arrives at slot 4 and is rejected at
        // the next boundary shares nothing with them: every other
        // decision, shard included, must be the same with and without.
        let workloads = [BUSY, HUGE];
        let users = vec![
            request(0, 0, Some(24)),
            request(1, 0, None),
            request(2, 0, None),
            request(3, 0, None),
        ];
        let mut with_reject = users.clone();
        with_reject.push(UserRequest {
            profile: 1,
            ..request(4, 4, None)
        });
        let cfg = OnlineConfig {
            shard_policy: ShardPolicy::RoundRobin,
            cost: CostPlan {
                credits_per_core_window: 1.0,
                budget_credits_per_window: 4.0,
                degrade_on_evict: false,
            },
            ..cfg(96)
        };
        let plain = serve_online(&cfg, &workloads, &users, quad_shards(3));
        let noisy = serve_online(&cfg, &workloads, &with_reject, quad_shards(3));
        let reject = AdmissionEvent {
            slot: 8,
            user: 4,
            shard: None,
            kind: EventKind::Reject,
        };
        assert!(noisy.events.contains(&reject));
        let others: Vec<AdmissionEvent> = noisy
            .events
            .iter()
            .copied()
            .filter(|e| *e != reject)
            .collect();
        assert_eq!(plain.events, others);
        // The rotation stood at shard 2 after the two slot-0 admits and
        // no budget-refused request may move it.
        let admit2 = plain
            .events
            .iter()
            .find(|e| e.user == 2 && e.kind == EventKind::Admit)
            .expect("user 2 admitted once credits free up");
        assert_eq!((admit2.slot, admit2.shard), (24, Some(2)));
    }

    #[test]
    fn budget_stop_admits_light_requests_queued_behind_heavy_ones() {
        // At 1 credit per core-window a 1-credit budget refuses every
        // heavy request (~1.92 cores) but holds both light ones (~0.14
        // cores each). The queue front is heavy, so a stop probe that
        // read the front request would end the scan before either
        // light request.
        let workloads = [
            BUSY,
            Flat {
                tiles: 1,
                secs: SLOT / 8.0,
                class: "light",
            },
        ];
        let light = |user| UserRequest {
            profile: 1,
            ..request(user, 0, None)
        };
        let trace = vec![
            request(0, 0, None),
            request(1, 0, None),
            light(2),
            request(3, 0, None),
            request(4, 0, None),
            light(5),
        ];
        for shard_policy in [ShardPolicy::LeastLoaded, ShardPolicy::ContentAffinity] {
            let capped = OnlineConfig {
                shard_policy,
                cost: CostPlan {
                    credits_per_core_window: 1.0,
                    budget_credits_per_window: 1.0,
                    degrade_on_evict: false,
                },
                ..cfg(16)
            };
            let report = serve_online(&capped, &workloads, &trace, quad_shards(2));
            let admits: Vec<(usize, usize)> = report
                .events
                .iter()
                .filter(|e| e.kind == EventKind::Admit)
                .map(|e| (e.slot, e.user))
                .collect();
            assert_eq!(admits, [(0, 2), (0, 5)], "{shard_policy:?}");
            assert_eq!(report.queued_at_end, 4, "{shard_policy:?}: heavy ones wait");
        }
    }

    #[test]
    #[should_panic(expected = "before arriving")]
    fn departing_before_arriving_is_refused() {
        // Such a request would be indexed under an already-drained
        // departure slot and never abandon.
        let workloads = [Flat {
            tiles: 1,
            secs: SLOT / 8.0,
            class: "x",
        }];
        serve_online(
            &cfg(48),
            &workloads,
            &[request(0, 10, Some(5))],
            quad_shards(1),
        );
    }

    #[test]
    fn huge_finite_budget_changes_nothing() {
        let workloads = [BUSY];
        let trace: Vec<UserRequest> = (0..5).map(|u| request(u, 0, None)).collect();
        let roomy = OnlineConfig {
            cost: CostPlan {
                credits_per_core_window: 1.0,
                budget_credits_per_window: 1e9,
                degrade_on_evict: false,
            },
            ..cfg(96)
        };
        let slack = serve_online(&roomy, &workloads, &trace, quad_shards(2));
        let free = serve_online(&cfg(96), &workloads, &trace, quad_shards(2));
        assert_eq!(slack.events, free.events, "a slack budget never binds");
    }

    #[test]
    fn evicted_user_degrades_down_the_deadline_ladder() {
        // The lying profile misses every window once admitted. With
        // degradation on, a Strict user walks the whole ladder: each
        // eviction immediately requeues one class lower (same
        // boundary re-admission), and the miss streak keeps growing,
        // so tolerances 1 → 2 → 4 windows evict at slots 24 → 48 →
        // 96. After BestEffort there is nowhere lower: dropped.
        let trace = vec![UserRequest {
            user: 0,
            arrival_slot: 0,
            profile: 0,
            class: DeadlineClass::Strict,
            departure_slot: None,
        }];
        let degrading = OnlineConfig {
            cost: CostPlan {
                degrade_on_evict: true,
                ..CostPlan::unlimited()
            },
            ..cfg(240)
        };
        let report = serve_online(&degrading, &[Lying], &trace, quad_shards(1));
        assert_eq!(report.admissions, 3, "one admission per deadline class");
        assert_eq!(report.evictions, 3);
        assert_eq!(report.active_at_end, 0);
        assert_eq!(report.queued_at_end, 0);
        let kinds_and_slots: Vec<(EventKind, usize)> =
            report.events.iter().map(|e| (e.kind, e.slot)).collect();
        assert_eq!(
            kinds_and_slots,
            vec![
                (EventKind::Admit, 0),
                (EventKind::Evict, 24),
                (EventKind::Downgrade, 24),
                (EventKind::Admit, 24),
                (EventKind::Evict, 48),
                (EventKind::Downgrade, 48),
                (EventKind::Admit, 48),
                (EventKind::Evict, 96),
            ],
            "Downgrade rides immediately behind its Evict; BestEffort is final"
        );
        // Without degradation the same trace is one admit, one evict.
        let plain = serve_online(&cfg(240), &[Lying], &trace, quad_shards(1));
        assert_eq!(plain.admissions, 1);
        assert_eq!(plain.evictions, 1);
    }

    #[test]
    fn zero_horizon_is_a_clean_noop() {
        let workloads = [Flat {
            tiles: 1,
            secs: SLOT / 8.0,
            class: "x",
        }];
        let report = serve_online(&cfg(0), &workloads, &[], quad_shards(2));
        assert_eq!(report.admissions, 0);
        assert_eq!(report.avg_concurrent_users, 0.0);
        assert_eq!(report.on_time_rate(), 0.0);
        assert!(report.events.is_empty());
    }
}
