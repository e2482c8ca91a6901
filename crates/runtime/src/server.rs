//! The backend-generic multi-user server loop.
//!
//! Drives N admitted users' frame slots through any
//! [`ExecutionBackend`]: per-GOP thread re-placement (Algorithm 2
//! lines 3–15, re-run each GOP per §III-D2), work-unit dispatch in
//! runs of slots that never cross a GOP or window boundary, per-slot
//! accounting, deadline-miss carry-over (lines 21–22, owned by the
//! backend) and the paper's one-second framerate windows.
//!
//! One engine, [`LoopDriver`], used two ways:
//!
//! * [`LoopDriver::run`] — the closed-membership batch run used by
//!   `core::ServerSim` (admission settled up front);
//! * explicit stepping behind online serving: an admission controller
//!   advances the loop GOP by GOP ([`LoopDriver::advance`]), reads
//!   members' miss streaks ([`LoopDriver::miss_streak`]) and applies
//!   membership deltas at GOP boundaries with
//!   [`LoopDriver::update_membership`].
//!
//! There is one placer: [`place_threads_on`] from scratch over the
//! members' padded GOP estimates, run only when a member joined or
//! left or an estimate's bits moved since the last run. Members are
//! placed in the order the driver holds them (equal threads tie-break
//! by it): the caller's order after [`LoopDriver::new`], ascending id
//! once [`LoopDriver::update_membership`] is used.
//!
//! What a slot costs follows from its placements: each time they (or
//! the membership) change the driver rebuilds, in its own buffers, a
//! placement plan — each placement's member and each placed member
//! once. A member keeps, from its join to its leaving, its last
//! `demand_at` vector. Each slot asks the source for one vector per
//! placed member — a [`DemandSource::steady`] member's only once per
//! join, whatever the placements do meanwhile.
//!
//! Per user the driver keeps one number, what eviction reads: the run
//! of consecutively missed windows of each user whose latest window
//! missed. The count outlives a leaving, so a re-joining user resumes
//! it; at a window's end only members enter the miss-streak set
//! ([`LoopDriver::miss_streaks`]). Driver state is thus bounded by the
//! members plus the users that left mid-streak, not by every user ever
//! served.
//!
//! `core::ServerSim` wraps this loop with profile-driven admission and
//! Table II reporting; real-execution servers feed it closures through
//! [`DemandSource::work_for`].

use crate::backend::{ExecutionBackend, WorkUnit};
use medvt_mpsoc::{DvfsPolicy, SlotReport};
use medvt_sched::{place_threads_on, Placement, UserDemand};
use medvt_telemetry::{CounterId, Event, EventKind, HistId, Metrics, NoopRecorder, Recorder};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Per-user, per-slot demand (and optionally real work) for the loop.
pub trait DemandSource {
    /// Per-tile f_max-second demand of `user`'s frame at `slot`.
    fn demand_at(&self, user: usize, slot: usize) -> Vec<f64>;

    /// Real work for one tile thread, when the source has any.
    /// Cost-only sources (profile replay) return `None`.
    fn work_for(
        &self,
        _user: usize,
        _slot: usize,
        _thread: usize,
    ) -> Option<Box<dyn FnOnce() + Send + '_>> {
        None
    }

    /// True when `user`'s demand never varies across slots — a promise
    /// that `demand_at(user, s)` returns the identical vector, bit for
    /// bit, for every `s`. The driver relies on it twice: it estimates
    /// the user's GOP demand once, when it joins, and never again; and
    /// it fetches the user's `demand_at` vector once per join, not once
    /// per placement change, and reuses it for every slot until the
    /// user leaves or is re-added, so a source that answers `true` for
    /// a varying user is priced on a stale vector.
    /// Sources with per-slot variation (video profiles) keep the
    /// default `false`: they are re-estimated each boundary, which
    /// re-places nothing when every estimate comes back bitwise
    /// unchanged, and asked for their demand once per slot.
    fn steady(&self, _user: usize) -> bool {
        false
    }
}

/// Control-plane cost accounting: what the *controller* (placement +
/// queue machinery) spent, as opposed to what the encode work cost.
/// All-ns fields are wall-clock and therefore excluded from
/// cross-backend bit-parity comparisons ([`LoopReport::modeled_only`]);
/// the counters are deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ControllerTiming {
    /// GOP boundaries observed (replan opportunities).
    pub boundaries: usize,
    /// Boundaries at which placements were actually recomputed.
    pub replans: usize,
    /// Wall nanoseconds spent computing placements.
    pub placement_ns: u64,
    /// Wall nanoseconds spent on queue/admission bookkeeping (filled
    /// by the admission layer; always 0 at the loop-driver level).
    pub queue_ns: u64,
    /// Admission-side decisions made: every queued request considered
    /// plus every depart/abandon/evict processed (filled by the
    /// admission layer).
    pub decisions: u64,
}

impl ControllerTiming {
    /// The timing view over a telemetry [`Metrics`] registry — the
    /// counters and histogram sums the loop/admission layers maintain.
    /// Sums are exact (histograms keep them alongside the buckets), so
    /// this reproduces the pre-telemetry direct accumulation bit for
    /// bit and the serialized report schema is unchanged.
    pub fn from_metrics(m: &Metrics) -> Self {
        ControllerTiming {
            boundaries: m.counter(CounterId::Boundaries) as usize,
            replans: m.counter(CounterId::Replans) as usize,
            placement_ns: m.hist(HistId::PlacementNs).sum(),
            queue_ns: m.hist(HistId::BoundaryNs).sum(),
            decisions: m.counter(CounterId::Decisions),
        }
    }

    /// Copy with the wall-clock nanosecond fields zeroed, keeping the
    /// deterministic counters — the backend-independent part.
    pub fn modeled_only(&self) -> Self {
        Self {
            placement_ns: 0,
            queue_ns: 0,
            ..*self
        }
    }
}

/// When thread placements are recomputed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplanPolicy {
    /// Keep the initial placements for the whole run (baseline \[19\]'s
    /// static binding). Membership changes still force a one-off
    /// re-placement — stale placements would keep running departed
    /// users.
    Static,
    /// Re-run Algorithm 2's placement at every GOP boundary on the
    /// upcoming GOP's mean demand, padded by `headroom` (§III-D2).
    PerGop {
        /// Multiplier on estimated demands (> 1 keeps admission slack).
        headroom: f64,
    },
}

impl ReplanPolicy {
    fn headroom(&self) -> f64 {
        match self {
            ReplanPolicy::Static => 1.0,
            ReplanPolicy::PerGop { headroom } => *headroom,
        }
    }
}

/// Server-loop configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerLoopConfig {
    /// Target frames per second per user.
    pub fps: f64,
    /// Slots to run.
    pub slots: usize,
    /// DVFS policy handed to the backend.
    pub policy: DvfsPolicy,
    /// Placement refresh policy.
    pub replan: ReplanPolicy,
    /// Slots per GOP (re-placement period, and the boundary at which
    /// online membership changes take effect).
    pub gop_slots: usize,
    /// Deadline-window length in slots; `None` derives the paper's
    /// one-second window from `fps`. Deadline classes with tighter
    /// service-level checks can shorten it.
    pub window_slots: Option<usize>,
}

impl ServerLoopConfig {
    /// The deadline-window length in slots.
    pub(crate) fn window_len(&self) -> usize {
        self.window_slots
            .unwrap_or(self.fps.round().max(1.0) as usize)
            .max(1)
    }
}

/// Measured-vs-modeled timing of one deadline window — the
/// validation quantity behind live serving (does the analytical model
/// the placement math trusts predict real execution?).
///
/// `wall_secs` is real elapsed time executing submitted jobs (0.0 on
/// analytical backends, which never run work); `modeled_secs` sums the
/// per-slot *makespans* the slot model predicts — the busiest core's
/// planned busy time each slot, i.e. how long the window's work takes
/// when every core runs in parallel at its planned frequency. The two
/// differ by the host-vs-reference speed factor; their *ratio* should
/// hold steady across windows when the model tracks reality.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WindowTiming {
    /// Exclusive end slot of the window (a full window covers
    /// `end_slot - window_len .. end_slot`; a trailing partial window
    /// ends wherever the run stopped).
    pub end_slot: usize,
    /// Wall-clock seconds spent executing real jobs in the window: the
    /// summed walls of the backend runs that cover it (runs never
    /// cross a window boundary).
    pub wall_secs: f64,
    /// Modeled window makespan: per-slot maximum planned core busy
    /// time, summed over the window's slots.
    pub modeled_secs: f64,
}

impl WindowTiming {
    /// (total measured wall, total modeled makespan) over `times`.
    pub fn totals(times: &[WindowTiming]) -> (f64, f64) {
        times.iter().fold((0.0, 0.0), |(wall, modeled), w| {
            (wall + w.wall_secs, modeled + w.modeled_secs)
        })
    }

    /// Aggregate measured/modeled ratio over `times` — the single
    /// definition every report-level ratio delegates to.
    pub fn aggregate_ratio(times: &[WindowTiming]) -> Option<f64> {
        let (measured, modeled) = Self::totals(times);
        Self::ratio_from(measured, modeled)
    }

    /// The shared guard: a ratio exists only when the model priced
    /// busy time *and* real work was executed.
    pub fn ratio_from(measured: f64, modeled: f64) -> Option<f64> {
        if modeled > 0.0 && measured > 0.0 {
            Some(measured / modeled)
        } else {
            None
        }
    }
}

/// Aggregate outcome of a server-loop run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoopReport {
    /// Total energy, joules.
    pub energy_j: f64,
    /// Slots in which at least one core carried work over.
    pub miss_slots: usize,
    /// One-second framerate windows evaluated (per active core).
    pub windows: usize,
    /// Windows ending with unfinished work — real framerate misses.
    pub window_misses: usize,
    /// Sum over slots of the number of busy cores.
    pub active_core_slots: usize,
    /// Slots run.
    pub slots: usize,
    /// Wall-clock seconds spent executing real work (pool backends).
    pub wall_secs: f64,
    /// Measured vs. modeled time of every deadline window, in window
    /// order — including a trailing partial window when the run ended
    /// (or was observed) mid-window, so the totals reconcile with
    /// `wall_secs` on any horizon.
    pub window_times: Vec<WindowTiming>,
    /// Control-plane overhead: replan counts and wall time spent on
    /// placement decisions.
    pub controller: ControllerTiming,
}

impl LoopReport {
    /// Mean busy cores per slot; 0.0 (not NaN) on an empty run.
    pub fn avg_active_cores(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.active_core_slots as f64 / self.slots as f64
        }
    }

    /// Fraction of one-second windows meeting the framerate; 0.0 (not
    /// NaN, and not a vacuous 1.0) on a run that evaluated no windows.
    pub fn on_time_rate(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            1.0 - self.window_misses as f64 / self.windows as f64
        }
    }

    /// Total measured wall seconds over completed deadline windows.
    pub fn measured_window_secs(&self) -> f64 {
        WindowTiming::totals(&self.window_times).0
    }

    /// Total modeled makespan seconds over completed deadline windows.
    pub fn modeled_window_secs(&self) -> f64 {
        WindowTiming::totals(&self.window_times).1
    }

    /// Overall measured/modeled window-time ratio; `None` when the run
    /// modeled no busy time or executed no real work.
    pub fn window_time_ratio(&self) -> Option<f64> {
        WindowTiming::aggregate_ratio(&self.window_times)
    }

    /// Copy with every wall-clock measurement zeroed, leaving exactly
    /// the statistics the analytical model produces — the fields that
    /// must match bit for bit across execution backends running
    /// identical work.
    pub fn modeled_only(&self) -> Self {
        let mut r = self.clone();
        r.wall_secs = 0.0;
        for w in &mut r.window_times {
            w.wall_secs = 0.0;
        }
        r.controller = r.controller.modeled_only();
        r
    }
}

/// How a member's demand estimate is kept current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    /// Joined (or was re-added) since the placer's last visit: the
    /// next one estimates it and asks the source whether it is steady.
    Fresh,
    /// [`DemandSource::steady`]: estimated once, never again.
    Steady,
    /// Re-estimated at every visit.
    Varying,
}

/// A joining member's placeholder until the placer's next visit
/// estimates it.
fn unestimated(user: usize) -> UserDemand {
    UserDemand {
        user,
        thread_secs: Vec::new(),
    }
}

/// What the per-slot path needs from the placements, rebuilt (into the
/// same buffers) only when they change.
#[derive(Debug, Default)]
struct PlacementPlan {
    /// Indices into `admitted` of the placed members, ascending.
    placed: Vec<usize>,
    /// Each placement's index into `admitted`, in placement order.
    member_of: Vec<usize>,
}

/// `user`'s index in `admitted`: a binary search when the members are
/// id-sorted (always, once [`LoopDriver::update_membership`] is used),
/// a scan otherwise.
fn member_index(admitted: &[usize], sorted: bool, user: usize) -> Option<usize> {
    if sorted {
        admitted.binary_search(&user).ok()
    } else {
        admitted.iter().position(|&u| u == user)
    }
}

/// An in-flight server-loop run: run to completion with
/// [`LoopDriver::run`], or stepped explicitly as the per-socket shard
/// loop the admission subsystem drives in lockstep.
///
/// The driver owns its backend (`&mut B` also implements
/// [`ExecutionBackend`], so borrowing callers pass a reborrow) and
/// carries all cross-slot state: placements, the deadline-window
/// bookkeeping and the users' miss streaks.
///
/// Telemetry: the driver is generic over a [`Recorder`] (default
/// [`NoopRecorder`] — zero cost, statically dispatched away). Cheap
/// counters/histograms are always maintained in a local [`Metrics`]
/// registry; typed events (GOP boundary, replan, per-core slot
/// activity) are emitted only when `R::ENABLED`, and the meter is
/// folded into the recorder by [`LoopDriver::into_report`].
#[derive(Debug)]
pub struct LoopDriver<B: ExecutionBackend, R: Recorder = NoopRecorder> {
    backend: B,
    recorder: R,
    /// Telemetry track id events are stamped with (shard index under
    /// sharded serving; 0 for standalone drivers).
    track: u16,
    cfg: ServerLoopConfig,
    /// Per-core speed factors from the backend — placement normalizes
    /// loads with these so heterogeneous cores balance finish times.
    speeds: Vec<f64>,
    /// Whether the backend runs jobs; analytical backends skip the
    /// per-unit closure materialization entirely.
    executes_work: bool,
    admitted: Vec<usize>,
    /// Each member's last headroom-padded GOP estimate, in `admitted`
    /// order — the slice [`place_threads_on`] reads.
    demands: Vec<UserDemand>,
    /// How each member's estimate is kept current, in `admitted` order.
    marks: Vec<Mark>,
    /// Each member's `demand_at(user, slot)` of the slot planned last
    /// — for a [`Mark::Steady`] member, of its first planned slot since
    /// it joined; `None` before that fetch. In `admitted` order.
    fetched: Vec<Option<Vec<f64>>>,
    placements: Vec<Placement>,
    plan: PlacementPlan,
    /// Membership changed: visit the placer at the next slot, GOP
    /// boundary or not, whatever the policy.
    replan_pending: bool,
    /// `placements` no longer follow from `demands`: a member joined
    /// or left, or an estimate's bits moved.
    dirty: bool,
    /// Members currently on a consecutive-window-miss streak — lets
    /// eviction scans skip users that are on time.
    miss_streaks: BTreeSet<usize>,
    /// Each user's run of consecutively missed windows, kept only while
    /// its latest window missed — leavers included, so a re-joining
    /// user resumes its count.
    streaks: BTreeMap<usize, usize>,
    meter: Metrics,
    slot: usize,
    window_len: usize,
    active_in_window: Vec<bool>,
    /// The (user, core) of every placement that submitted work in the
    /// window, once per run; grouped by user at the window end.
    window_cells: Vec<(usize, usize)>,
    /// The report under construction: energy, misses, windows, busy
    /// core-slots, wall time and completed windows accumulate here;
    /// [`LoopDriver::into_report`] adds the rest.
    report: LoopReport,
    window_wall_acc: f64,
    window_modeled_acc: f64,
}

impl<B: ExecutionBackend> LoopDriver<B> {
    /// Starts a run: resets `backend` and installs the initial
    /// membership and placements. Telemetry is disabled
    /// ([`NoopRecorder`]); use [`LoopDriver::with_recorder`] to attach
    /// a flight recorder.
    ///
    /// # Panics
    ///
    /// Panics when `fps` or `gop_slots` is not positive, or an initial
    /// placement's user is not in `admitted`.
    pub fn new(
        backend: B,
        cfg: ServerLoopConfig,
        admitted: Vec<usize>,
        initial: Vec<Placement>,
    ) -> Self {
        LoopDriver::with_recorder(backend, cfg, admitted, initial, NoopRecorder, 0)
    }
}

impl<B: ExecutionBackend, R: Recorder> LoopDriver<B, R> {
    /// Like [`LoopDriver::new`], with an explicit telemetry recorder
    /// and the track id its events are stamped with (`&FlightRecorder`
    /// is a `Copy` recorder many drivers can share).
    ///
    /// # Panics
    ///
    /// Panics when `fps` or `gop_slots` is not positive, or an initial
    /// placement's user is not in `admitted`.
    pub fn with_recorder(
        mut backend: B,
        cfg: ServerLoopConfig,
        admitted: Vec<usize>,
        initial: Vec<Placement>,
        recorder: R,
        track: u16,
    ) -> Self {
        assert!(cfg.fps > 0.0, "fps must be positive");
        assert!(cfg.gop_slots > 0, "gop must have slots");
        backend.reset();
        let cores = backend.cores();
        let speeds = backend.core_speeds();
        let executes_work = backend.executes_work();
        assert_eq!(speeds.len(), cores, "one speed factor per backend core");
        // Members handed in without placements are placed at the first
        // slot, whatever the policy.
        let unplaced = initial.is_empty() && !admitted.is_empty();
        let mut driver = Self {
            backend,
            recorder,
            track,
            cfg,
            speeds,
            executes_work,
            demands: admitted.iter().copied().map(unestimated).collect(),
            marks: vec![Mark::Fresh; admitted.len()],
            fetched: vec![None; admitted.len()],
            admitted,
            // Handed-in placements were not computed from estimates.
            dirty: !initial.is_empty(),
            placements: initial,
            plan: PlacementPlan::default(),
            replan_pending: unplaced,
            miss_streaks: BTreeSet::new(),
            streaks: BTreeMap::new(),
            meter: Metrics::new(),
            slot: 0,
            window_len: cfg.window_len(),
            active_in_window: vec![false; cores],
            window_cells: Vec::new(),
            report: LoopReport::default(),
            window_wall_acc: 0.0,
            window_modeled_acc: 0.0,
        };
        driver.build_plan();
        driver
    }

    /// `user`'s run of consecutively missed windows, reset by an
    /// on-time one: what eviction compares against its tolerance. A
    /// user that leaves keeps its count and resumes it on re-joining.
    pub fn miss_streak(&self, user: usize) -> usize {
        self.streaks.get(&user).copied().unwrap_or(0)
    }

    /// Applies a membership *delta*, keeping members in ascending id.
    /// Leavers go, joiners are estimated at the next executed slot, and
    /// re-adding a member only asks for a fresh estimate of it.
    /// Unchanged GOP boundaries then reuse the previous placement: free
    /// when every member is [`DemandSource::steady`], one demand
    /// re-estimate per other member otherwise.
    ///
    /// Members handed to [`LoopDriver::new`] out of id order are sorted
    /// by the first delta, which re-estimates and re-places all of them
    /// as if they had just joined. Intended for GOP boundaries, the
    /// paper's re-allocation points.
    pub fn update_membership(&mut self, add: &[usize], remove: &[usize]) {
        if !self.admitted.is_sorted() {
            self.admitted.sort_unstable();
            self.demands = self.admitted.iter().copied().map(unestimated).collect();
            self.marks = vec![Mark::Fresh; self.admitted.len()];
            self.fetched = vec![None; self.admitted.len()];
            self.dirty = true;
            self.replan_pending = true;
        }
        for &u in remove {
            if let Ok(i) = self.admitted.binary_search(&u) {
                self.admitted.remove(i);
                self.demands.remove(i);
                self.marks.remove(i);
                self.fetched.remove(i);
                self.dirty = true;
            }
            self.miss_streaks.remove(&u);
        }
        for &u in add {
            match self.admitted.binary_search(&u) {
                Ok(i) => {
                    self.marks[i] = Mark::Fresh;
                    self.fetched[i] = None;
                }
                Err(i) => {
                    self.admitted.insert(i, u);
                    self.demands.insert(i, unestimated(u));
                    self.marks.insert(i, Mark::Fresh);
                    self.fetched.insert(i, None);
                    self.dirty = true;
                }
            }
        }
        if !add.is_empty() || !remove.is_empty() {
            self.replan_pending = true;
        }
    }

    /// Members currently on a consecutive-window-miss streak, in id
    /// order — the candidates an eviction scan needs to look at. A user
    /// that left mid-window is not listed, whatever that window did.
    pub fn miss_streaks(&self) -> impl Iterator<Item = usize> + '_ {
        self.miss_streaks.iter().copied()
    }

    /// Runs `n` slots.
    ///
    /// The slots go to the backend in *runs*
    /// ([`ExecutionBackend::execute_run`]). A run ends at the next GOP
    /// boundary, the next window boundary or after `n` slots, whichever
    /// comes first, so placements are fixed within it and a window's
    /// wall time is exact.
    pub fn advance(&mut self, source: &impl DemandSource, n: usize) {
        let mut left = n;
        while left > 0 {
            let to_gop = self.cfg.gop_slots - self.slot % self.cfg.gop_slots;
            let to_window = self.window_len - self.slot % self.window_len;
            let len = left.min(to_gop).min(to_window);
            self.run_slots(source, len);
            left -= len;
        }
    }

    /// Finishes the run, returning the report the slots accumulated
    /// with what only the end knows added: the slots run, the
    /// control-plane timing read from the driver's meter, and the
    /// trailing window. The meter is folded into the recorder
    /// ([`Recorder::absorb`]; no-op when telemetry is disabled).
    ///
    /// Window timing includes the trailing partial window when the
    /// run stopped mid-window — otherwise its measured/modeled seconds
    /// would silently vanish from the ratios whenever the horizon is
    /// not a multiple of the window length.
    pub fn into_report(mut self) -> LoopReport {
        self.recorder.absorb(&self.meter);
        if self.window_wall_acc > 0.0 || self.window_modeled_acc > 0.0 {
            self.report.window_times.push(WindowTiming {
                end_slot: self.slot,
                wall_secs: self.window_wall_acc,
                modeled_secs: self.window_modeled_acc,
            });
        }
        LoopReport {
            slots: self.slot,
            controller: ControllerTiming::from_metrics(&self.meter),
            ..self.report
        }
    }

    /// The closed-membership batch run: executes the configured
    /// `cfg.slots` slots and finishes ([`LoopDriver::into_report`]).
    pub fn run(mut self, source: &impl DemandSource) -> LoopReport {
        self.advance(source, self.cfg.slots);
        self.into_report()
    }

    /// Mean per-tile demand of `user` over the GOP starting at
    /// `gop_start` (what the LUT would predict for the upcoming GOP).
    fn gop_demand(
        source: &impl DemandSource,
        gop_slots: usize,
        user: usize,
        gop_start: usize,
    ) -> Vec<f64> {
        let mut acc: Vec<f64> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        for slot in gop_start..gop_start + gop_slots {
            let d = source.demand_at(user, slot);
            if d.len() > acc.len() {
                acc.resize(d.len(), 0.0);
                counts.resize(d.len(), 0);
            }
            for (i, &s) in d.iter().enumerate() {
                acc[i] += s;
                counts[i] += 1;
            }
        }
        acc.iter()
            .zip(&counts)
            .map(|(&a, &c)| if c == 0 { 0.0 } else { a / c as f64 })
            .collect()
    }

    /// One user's headroom-padded demand estimate for the GOP starting
    /// at `gop_start`.
    fn padded_demand(
        source: &impl DemandSource,
        cfg: &ServerLoopConfig,
        user: usize,
        gop_start: usize,
    ) -> UserDemand {
        let headroom = cfg.replan.headroom();
        UserDemand::new(
            user,
            Self::gop_demand(source, cfg.gop_slots, user, gop_start)
                .iter()
                .map(|s| s * headroom)
                .collect(),
        )
    }

    /// The placer's visit: estimates fresh and varying members for the
    /// GOP starting now and, when a member joined or left or an
    /// estimate's bits moved (`to_bits`: a zero's sign reorders the
    /// thread list), places every thread from scratch. Returns true
    /// when placements were recomputed.
    fn refresh_placements(&mut self, source: &impl DemandSource, slot_secs: f64) -> bool {
        for (demand, mark) in self.demands.iter_mut().zip(&mut self.marks) {
            match *mark {
                Mark::Steady => continue,
                Mark::Fresh if source.steady(demand.user) => *mark = Mark::Steady,
                Mark::Fresh | Mark::Varying => *mark = Mark::Varying,
            }
            let fresh = Self::padded_demand(source, &self.cfg, demand.user, self.slot);
            let (old, new) = (&demand.thread_secs, &fresh.thread_secs);
            if old.len() != new.len()
                || old.iter().zip(new).any(|(a, b)| a.to_bits() != b.to_bits())
            {
                *demand = fresh;
                self.dirty = true;
            }
        }
        if !self.dirty {
            return false;
        }
        self.placements = place_threads_on(&self.speeds, slot_secs, &self.demands).placements;
        self.dirty = false;
        true
    }

    /// Rebuilds the placement plan from `placements` in place.
    ///
    /// # Panics
    ///
    /// Panics when a placement's user is not a member.
    fn build_plan(&mut self) {
        let sorted = self.admitted.is_sorted();
        let plan = &mut self.plan;
        plan.member_of.clear();
        for p in &self.placements {
            let i = member_index(&self.admitted, sorted, p.user)
                .unwrap_or_else(|| panic!("user {} is placed but not admitted", p.user));
            plan.member_of.push(i);
        }
        plan.placed.clear();
        plan.placed.extend_from_slice(&plan.member_of);
        plan.placed.sort_unstable();
        plan.placed.dedup();
    }

    /// Executes a run of `len` slots: thread allocation once per GOP
    /// (paper §III-D2) or on a pending membership change — a run
    /// starts wherever either can happen — then the run's work units
    /// through the backend, then each slot's deadline/energy
    /// accounting in slot order.
    fn run_slots(&mut self, source: &impl DemandSource, len: usize) {
        let slot_secs = 1.0 / self.cfg.fps;
        let gop_boundary = self.slot.is_multiple_of(self.cfg.gop_slots);
        if gop_boundary {
            self.meter.add(CounterId::Boundaries, 1);
            if R::ENABLED {
                self.recorder.record(Event::new(
                    self.track,
                    self.slot as u32,
                    EventKind::GopBoundary,
                ));
            }
        }
        let periodic = matches!(self.cfg.replan, ReplanPolicy::PerGop { .. }) && gop_boundary;
        if periodic || self.replan_pending {
            let t0 = Instant::now();
            let replanned = self.refresh_placements(source, slot_secs);
            self.meter
                .observe(HistId::PlacementNs, t0.elapsed().as_nanos() as u64);
            // A membership change moves members' indices, so it
            // rebuilds the plan even when the placements stand.
            if replanned || self.replan_pending {
                self.build_plan();
            }
            if replanned {
                self.meter.add(CounterId::Replans, 1);
                if R::ENABLED {
                    self.recorder.record(Event::new(
                        self.track,
                        self.slot as u32,
                        EventKind::Replan {
                            users: self.admitted.len() as u32,
                        },
                    ));
                }
            }
            self.replan_pending = false;
        }
        // Each slot's per-placement costs, slot after slot.
        let n = self.placements.len();
        let mut costs = Vec::with_capacity(len * n);
        let slots: Vec<_> = (self.slot..self.slot + len)
            .map(|slot| self.plan_slot(source, slot, &mut costs))
            .collect();
        // Runs never cross a window boundary: a placement that worked in
        // any of the run's slots worked in this window.
        for (i, p) in self.placements.iter().enumerate() {
            if costs[i..].iter().step_by(n).any(|&c| c > 0.0) {
                self.window_cells.push((p.user, p.core));
            }
        }
        let (reports, wall_secs) = self.backend.execute_run(self.cfg.policy, slot_secs, slots);
        self.report.wall_secs += wall_secs;
        self.window_wall_acc += wall_secs;
        for report in &reports {
            self.account_slot(report);
        }
    }

    /// `slot`'s work units under the current placements; their costs
    /// are appended to `costs` in placement order.
    fn plan_slot<'s>(
        &mut self,
        source: &'s impl DemandSource,
        slot: usize,
        costs: &mut Vec<f64>,
    ) -> Vec<WorkUnit<'s>> {
        for &i in &self.plan.placed {
            if self.marks[i] != Mark::Steady || self.fetched[i].is_none() {
                self.fetched[i] = Some(source.demand_at(self.admitted[i], slot));
            }
        }
        // Placement vectors cover the maximum tile count of the
        // window; frames with fewer tiles simply have no work for
        // the higher thread indices.
        let mut work: Vec<WorkUnit<'_>> = Vec::with_capacity(self.placements.len());
        for (p, &m) in self.placements.iter().zip(&self.plan.member_of) {
            let demand = self.fetched[m].as_deref().unwrap_or_default();
            let cost = demand.get(p.thread).copied().unwrap_or(0.0);
            costs.push(cost);
            // Jobs are only materialized for backends that run them;
            // analytical backends price the cost and would drop the
            // closure unexecuted.
            let job = if self.executes_work {
                source.work_for(p.user, slot, p.thread)
            } else {
                None
            };
            work.push(WorkUnit {
                user: p.user,
                thread: p.thread,
                core: p.core,
                cost_fmax_secs: cost,
                job,
            });
        }
        work
    }

    /// Books the current slot's analytical `report`: energy, modeled
    /// window time and, at a window's last slot, the framerate check
    /// and the users' miss streaks. The run's wall time is already
    /// booked.
    fn account_slot(&mut self, report: &SlotReport) {
        self.meter.add(CounterId::SlotsExecuted, 1);
        if report.transition_bound_cores > 0 {
            self.meter.add(
                CounterId::TransitionStalls,
                report.transition_bound_cores as u64,
            );
        }
        if R::ENABLED {
            medvt_mpsoc::record_slot_events(&self.recorder, self.track, self.slot as u32, report);
        }
        self.report.energy_j += report.energy_j;
        // Window timing: real execution time vs. the slot model's
        // makespan (the busiest core's planned busy time — how long
        // the slot's work takes with all cores in parallel).
        self.window_modeled_acc += report.cores.iter().map(|c| c.busy_secs).fold(0.0, f64::max);
        if report.deadline_misses > 0 {
            self.report.miss_slots += 1;
        }
        self.report.active_core_slots += report.active_cores();
        for (k, core) in report.cores.iter().enumerate() {
            if core.busy_secs > 0.0 {
                self.active_in_window[k] = true;
            }
        }
        // One-second framerate check (paper §III-D2): a core misses
        // its window when work remains unfinished at the boundary;
        // users sharing the core share its fate.
        if (self.slot + 1).is_multiple_of(self.window_len) {
            for (k, active) in self.active_in_window.iter_mut().enumerate() {
                if *active {
                    self.report.windows += 1;
                    if report.cores[k].carry_fmax_secs > 1e-9 {
                        self.report.window_misses += 1;
                    }
                }
                *active = false;
            }
            self.report.window_times.push(WindowTiming {
                end_slot: self.slot + 1,
                wall_secs: self.window_wall_acc,
                modeled_secs: self.window_modeled_acc,
            });
            if let Some(ratio) =
                WindowTiming::ratio_from(self.window_wall_acc, self.window_modeled_acc)
            {
                self.meter
                    .observe(HistId::WindowRatioPpm, (ratio * 1e6).round() as u64);
            }
            self.window_wall_acc = 0.0;
            self.window_modeled_acc = 0.0;
            self.window_cells.sort_unstable();
            let sorted = self.admitted.is_sorted();
            for cells in self.window_cells.chunk_by(|a, b| a.0 == b.0) {
                let user = cells[0].0;
                let missed = cells
                    .iter()
                    .any(|&(_, k)| report.cores[k].carry_fmax_secs > 1e-9);
                if missed {
                    *self.streaks.entry(user).or_default() += 1;
                    // A member that left mid-window still extends its
                    // count, but only members enter the set.
                    if member_index(&self.admitted, sorted, user).is_some() {
                        self.miss_streaks.insert(user);
                    }
                } else {
                    self.streaks.remove(&user);
                    self.miss_streaks.remove(&user);
                }
            }
            self.window_cells.clear();
        }
        self.slot += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimBackend;
    use medvt_mpsoc::{Platform, PowerModel};

    const SLOT: f64 = 1.0 / 24.0;

    struct FlatSource {
        tiles: usize,
        secs: f64,
    }

    impl DemandSource for FlatSource {
        fn demand_at(&self, _user: usize, _slot: usize) -> Vec<f64> {
            vec![self.secs; self.tiles]
        }
    }

    fn quad() -> SimBackend {
        SimBackend::new(Platform::quad_core(), PowerModel::default())
    }

    fn cfg(slots: usize, replan: ReplanPolicy) -> ServerLoopConfig {
        ServerLoopConfig {
            fps: 24.0,
            slots,
            policy: DvfsPolicy::StretchToDeadline,
            replan,
            gop_slots: 8,
            window_slots: None,
        }
    }

    /// `u`'s current run of missed windows on `driver`.
    fn streak<B: ExecutionBackend>(driver: &LoopDriver<B>, u: usize) -> usize {
        driver.miss_streak(u)
    }

    #[test]
    fn light_load_meets_every_window() {
        let source = FlatSource {
            tiles: 4,
            secs: SLOT / 16.0,
        };
        let mut driver = LoopDriver::new(
            quad(),
            cfg(48, ReplanPolicy::PerGop { headroom: 1.1 }),
            vec![0],
            vec![],
        );
        driver.advance(&source, 48);
        assert_eq!(streak(&driver, 0), 0);
        assert_eq!(driver.miss_streaks().count(), 0);
        let report = driver.into_report();
        assert_eq!(report.miss_slots, 0);
        assert_eq!(report.window_misses, 0);
        assert!(report.windows > 0);
        assert!(report.energy_j > 0.0);
        assert!((report.on_time_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn static_replan_keeps_initial_placements_loaded() {
        let source = FlatSource {
            tiles: 2,
            secs: SLOT / 4.0,
        };
        // Initial placements put both tiles on core 3 only.
        let initial = vec![
            Placement {
                user: 0,
                thread: 0,
                core: 3,
                secs: SLOT / 4.0,
            },
            Placement {
                user: 0,
                thread: 1,
                core: 3,
                secs: SLOT / 4.0,
            },
        ];
        let report =
            LoopDriver::new(quad(), cfg(8, ReplanPolicy::Static), vec![0], initial).run(&source);
        // Exactly one core ever active.
        assert_eq!(report.active_core_slots, 8);
        assert_eq!(report.miss_slots, 0);
    }

    #[test]
    fn overload_counts_misses_and_windows() {
        // 4 users x 4 tiles x 0.5 slots = 8 core-slots of work on 4
        // cores: permanently overloaded.
        let source = FlatSource {
            tiles: 4,
            secs: SLOT / 2.0,
        };
        let mut driver = LoopDriver::new(
            quad(),
            cfg(48, ReplanPolicy::PerGop { headroom: 1.0 }),
            vec![0, 1, 2, 3],
            vec![],
        );
        driver.advance(&source, 48);
        // Sustained overload: both windows miss for every member, and
        // each one's streak counts them — the signal eviction keys on.
        for u in 0..4 {
            assert_eq!(streak(&driver, u), 2, "user {u}");
        }
        assert_eq!(driver.miss_streaks().collect::<Vec<_>>(), [0, 1, 2, 3]);
        let report = driver.into_report();
        assert!(report.miss_slots > 0);
        assert!(report.window_misses > 0);
        assert!(report.on_time_rate() < 1.0);
    }

    #[test]
    fn empty_run_reports_zero_not_nan() {
        // Zero-window case (a zero-slot configured run): rates must
        // come back 0.0, never NaN.
        let source = FlatSource {
            tiles: 1,
            secs: 0.0,
        };
        let report =
            LoopDriver::new(quad(), cfg(0, ReplanPolicy::Static), vec![0], vec![]).run(&source);
        assert_eq!(report.windows, 0);
        assert_eq!(report.slots, 0);
        assert!(report.on_time_rate() == 0.0);
        assert!(report.avg_active_cores() == 0.0);
        assert!(!report.on_time_rate().is_nan());
        assert!(!report.avg_active_cores().is_nan());
    }

    /// A source with demand only at one slot.
    struct SpikeSource {
        at: usize,
        secs: f64,
    }

    impl DemandSource for SpikeSource {
        fn demand_at(&self, _user: usize, slot: usize) -> Vec<f64> {
            if slot == self.at {
                vec![self.secs]
            } else {
                vec![0.0]
            }
        }
    }

    #[test]
    fn missed_gop_carries_overrun_into_next_window() {
        // A user's frame at slot 23 (last slot of window 1) costs 3
        // slots of f_max time: the overrun must carry into window 2's
        // slots 24/25 and drain there — not be dropped at the window
        // boundary.
        let source = SpikeSource {
            at: 23,
            secs: SLOT * 3.0,
        };
        let initial = vec![Placement {
            user: 0,
            thread: 0,
            core: 0,
            secs: SLOT * 3.0,
        }];
        let report =
            LoopDriver::new(quad(), cfg(48, ReplanPolicy::Static), vec![0], initial).run(&source);
        // 3 slots of work at f_max → busy in slots 23, 24, 25 (plus at
        // most one sliver slot from DVFS-transition latency): the
        // carry crossed the window boundary and kept executing.
        assert!(
            (3..=4).contains(&report.active_core_slots),
            "carry must keep draining: {} active slots",
            report.active_core_slots
        );
        // Slots 23 and 24 (at least) end with work remaining.
        assert!(report.miss_slots >= 2);
        // Window 1 (slots 0–23) misses; window 2 (24–47) has drained
        // the carry long before its boundary and is on time.
        assert_eq!(report.windows, 2);
        assert_eq!(report.window_misses, 1);
        // All three slots' worth of work was executed (energy ≫ idle):
        // nothing was dropped at the boundary.
        let idle_only = PowerModel::default().idle_power_w() * SLOT * 48.0 * 4.0;
        assert!(report.energy_j > idle_only);
    }

    #[test]
    fn window_slots_override_shortens_the_deadline_window() {
        let source = FlatSource {
            tiles: 1,
            secs: SLOT / 4.0,
        };
        let mut c = cfg(16, ReplanPolicy::PerGop { headroom: 1.0 });
        c.window_slots = Some(4);
        assert_eq!(c.window_len(), 4);
        let report = LoopDriver::new(quad(), c, vec![0], vec![]).run(&source);
        // 16 slots in 4-slot windows: four evaluated windows on the
        // single active core (the fps-derived default would give none).
        assert_eq!(report.windows, 4);
        assert_eq!(report.window_misses, 0);
    }

    #[test]
    fn trailing_partial_window_timing_is_reported() {
        // 30 slots with a 24-slot window: one full window plus a
        // 6-slot partial tail whose modeled time must not vanish.
        let source = FlatSource {
            tiles: 2,
            secs: SLOT / 4.0,
        };
        let initial = vec![
            Placement {
                user: 0,
                thread: 0,
                core: 0,
                secs: SLOT / 4.0,
            },
            Placement {
                user: 0,
                thread: 1,
                core: 0,
                secs: SLOT / 4.0,
            },
        ];
        let report =
            LoopDriver::new(quad(), cfg(30, ReplanPolicy::Static), vec![0], initial).run(&source);
        assert_eq!(report.window_times.len(), 2, "full window + partial tail");
        assert_eq!(report.window_times[0].end_slot, 24);
        assert_eq!(report.window_times[1].end_slot, 30);
        assert!(report.window_times[1].modeled_secs > 0.0);
        // Deadline accounting still counts only completed windows.
        assert_eq!(report.windows, 1);
        // The totals reconcile: every slot's modeled makespan is in
        // exactly one window entry.
        let full_run_modeled = report.modeled_window_secs();
        assert!(full_run_modeled >= report.window_times[0].modeled_secs);
        assert!(
            report.window_times[1].modeled_secs < report.window_times[0].modeled_secs,
            "6-slot tail models less time than the 24-slot window"
        );
    }

    #[test]
    fn first_delta_can_remove_a_starting_member() {
        // The delta engine this driver used to carry seeded itself from
        // the members *before* applying the first delta's removals and
        // kept placing the leaver.
        let source = FlatSource {
            tiles: 1,
            secs: SLOT / 4.0,
        };
        let mut driver = LoopDriver::new(
            quad(),
            cfg(16, ReplanPolicy::PerGop { headroom: 1.0 }),
            vec![1, 0],
            vec![],
        );
        driver.advance(&source, 8);
        driver.update_membership(&[], &[1]);
        driver.advance(&source, 8);
        assert_eq!(driver.admitted, [0]);
        assert!(driver.placements.iter().all(|p| p.user == 0));
    }

    #[test]
    fn a_member_removed_mid_window_does_not_streak() {
        // Two users of four double-slot tiles overload every core, so
        // every core still carries at the window's last slot. User 1
        // leaves at slot 8, a GOP boundary inside the 24-slot window.
        let source = FlatSource {
            tiles: 4,
            secs: SLOT * 2.0,
        };
        let mut driver = LoopDriver::new(
            quad(),
            cfg(0, ReplanPolicy::PerGop { headroom: 1.0 }),
            vec![0, 1],
            vec![],
        );
        driver.advance(&source, 8);
        driver.update_membership(&[], &[1]);
        driver.advance(&source, 16);
        // The leaver's count still takes the window it worked in...
        assert_eq!(streak(&driver, 1), 1);
        // ...but only the member streaks.
        assert_eq!(driver.miss_streaks().collect::<Vec<_>>(), [0]);
        driver.advance(&source, 24);
        assert_eq!(driver.miss_streaks().collect::<Vec<_>>(), [0]);
    }

    #[test]
    fn a_member_rejoining_resumes_its_miss_streak() {
        // Every window misses, as above. User 1 leaves after one missed
        // window, sits out the next and re-joins for a third.
        let source = FlatSource {
            tiles: 4,
            secs: SLOT * 2.0,
        };
        let mut driver = LoopDriver::new(
            quad(),
            cfg(0, ReplanPolicy::PerGop { headroom: 1.0 }),
            vec![0, 1],
            vec![],
        );
        driver.advance(&source, 24);
        assert_eq!([streak(&driver, 0), streak(&driver, 1)], [1, 1]);
        driver.update_membership(&[], &[1]);
        driver.advance(&source, 24);
        // The leaver keeps its count, off the members' streak set.
        assert_eq!([streak(&driver, 0), streak(&driver, 1)], [2, 1]);
        assert_eq!(driver.miss_streaks().collect::<Vec<_>>(), [0]);
        driver.update_membership(&[1], &[]);
        driver.advance(&source, 24);
        assert_eq!([streak(&driver, 0), streak(&driver, 1)], [3, 2]);
        assert_eq!(driver.miss_streaks().collect::<Vec<_>>(), [0, 1]);
    }

    /// Demand that moves every GOP, so each boundary re-places.
    struct GopRampSource;

    impl DemandSource for GopRampSource {
        fn demand_at(&self, _user: usize, slot: usize) -> Vec<f64> {
            vec![SLOT / (4.0 + (slot / 8 % 3) as f64); 2]
        }
    }

    #[test]
    fn starting_members_and_a_first_delta_report_identically() {
        // The cluster worker's form — the member handed to the
        // constructor — against an empty driver and a first delta.
        let c = cfg(48, ReplanPolicy::PerGop { headroom: 1.1 });
        let started = LoopDriver::new(quad(), c, vec![0], vec![]).run(&GopRampSource);
        let mut joined = LoopDriver::new(quad(), c, vec![], vec![]);
        joined.update_membership(&[0], &[]);
        let joined = joined.run(&GopRampSource);
        assert_eq!(started.controller.replans, 6, "every GOP's estimate moved");
        assert_eq!(started.controller.replans, joined.controller.replans);
        assert_eq!(started.modeled_only(), joined.modeled_only());
    }

    /// A [`SimBackend`] that records the length of every run it is
    /// handed, claiming to run jobs when `executes_work` is set.
    struct RunLog {
        sim: SimBackend,
        executes_work: bool,
        runs: Vec<usize>,
    }

    impl RunLog {
        fn new(executes_work: bool) -> Self {
            RunLog {
                sim: quad(),
                executes_work,
                runs: Vec::new(),
            }
        }
    }

    impl ExecutionBackend for RunLog {
        fn cores(&self) -> usize {
            self.sim.cores()
        }

        fn executes_work(&self) -> bool {
            self.executes_work
        }

        fn reset(&mut self) {
            self.sim.reset()
        }

        fn execute_slot<'scope>(
            &mut self,
            policy: DvfsPolicy,
            slot_secs: f64,
            work: Vec<WorkUnit<'scope>>,
        ) -> crate::SlotOutcome {
            self.sim.execute_slot(policy, slot_secs, work)
        }

        fn execute_run<'scope>(
            &mut self,
            policy: DvfsPolicy,
            slot_secs: f64,
            slots: Vec<Vec<WorkUnit<'scope>>>,
        ) -> (Vec<SlotReport>, f64) {
            self.runs.push(slots.len());
            self.sim.execute_run(policy, slot_secs, slots)
        }
    }

    #[test]
    fn runs_end_at_gop_window_and_advance_boundaries() {
        // Overloaded, so carry crosses every run boundary.
        let source = FlatSource {
            tiles: 6,
            secs: SLOT * 0.8,
        };
        fn cut<B: ExecutionBackend>(backend: B, source: &FlatSource) -> LoopReport {
            let mut c = cfg(0, ReplanPolicy::PerGop { headroom: 1.0 });
            c.window_slots = Some(20);
            let mut driver = LoopDriver::new(backend, c, vec![0], vec![]);
            for n in [5, 11, 3, 13, 16] {
                driver.advance(source, n);
            }
            driver.into_report().modeled_only()
        }
        // GOPs end at 8, 16, …; windows at 20 and 40; `advance` calls
        // at 5, 16, 19, 32 and 48.
        let expected = [5, 3, 8, 3, 1, 4, 8, 8, 8];
        let mut by_ref = RunLog::new(true);
        let report = cut(&mut by_ref, &source);
        assert_eq!(by_ref.runs, expected);

        let mut analytical = RunLog::new(false);
        assert_eq!(cut(&mut analytical, &source), report);
        assert_eq!(analytical.runs, expected);
        assert_eq!(cut(quad(), &source), report);
        assert!(report.miss_slots > 0);
        let ends: Vec<usize> = report.window_times.iter().map(|w| w.end_slot).collect();
        assert_eq!(ends, [20, 40, 48]);
    }

    #[test]
    fn static_driver_places_members_it_starts_with() {
        let source = FlatSource {
            tiles: 2,
            secs: SLOT / 4.0,
        };
        let report =
            LoopDriver::new(quad(), cfg(8, ReplanPolicy::Static), vec![0], vec![]).run(&source);
        // A core runs user 0 in every slot.
        assert!(report.active_core_slots >= 8);
        assert_eq!(report.controller.replans, 1);
    }
}
