//! An executable specification of the GOP-boundary admission
//! controller, written against the public API only.
//!
//! [`serve_spec`] transcribes Algorithm 2 line 1 (admit a queued user
//! when its padded steady demand fits a shard) plus the [`CostPlan`]
//! rules: each admitted user is billed per window, a request whose
//! bill would overrun the window budget waits, and under
//! `degrade_on_evict` an evicted user re-enters the queue one rung
//! down the Strict → Standard → BestEffort ladder. Every boundary runs
//! the controller's five phases in order — ingest, depart, evict,
//! admit, advance — and logs its decisions in the controller's order:
//!
//! * departures of active users in id order, then abandons in queue
//!   order;
//! * evictions in id order, each followed by its `Downgrade` when the
//!   user is re-queued;
//! * the boundary's rejects in queue order, then its admits in queue
//!   order.
//!
//! Each depart, abandon, evict and downgrade counts as one decision,
//! and the admission scan counts every request queued when it starts.
//!
//! It is written for obviousness, not speed: the queue is a plain FIFO
//! `Vec` scanned whole, the shard chooser keeps no loads of its own and
//! divides load by capacity at every pick, and each shard's member set
//! is rebuilt from the active set at every boundary. Shard loads and
//! the window spend are running sums updated in event order, because
//! admission compares them against capacity and budget at a 1e-9
//! tolerance. The shards are the real `LoopDriver`s: each boundary's
//! leavers and joiners reach them through `update_membership`, and an
//! eviction reads only `miss_streaks` and `miss_streak` of the user's
//! own shard.

use medvt::admission::{
    staggered_slot, AdmissionEvent, CostPlan, CostReport, DeadlineClass, EventKind, OnlineConfig,
    OnlineReport, ShardReport, UserRequest, Workload,
};
use medvt::runtime::{
    ControllerTiming, DemandSource, ExecutionBackend, LoopDriver, LoopReport, ReplanPolicy,
    ServerLoopConfig,
};
use std::collections::{BTreeMap, BTreeSet};

/// What the specification produces for one run.
#[derive(Debug)]
pub struct SpecRun {
    /// The report `serve_online` must produce, wall-clock timings zero.
    pub report: OnlineReport,
    /// The spend ledger kept boundary by boundary, in the shape of
    /// `replay_cost`'s audit.
    pub ledger: CostReport,
}

/// A ledger's audited fields, floats as bit patterns: windows, total
/// and peak window credits, and downgrades.
pub fn ledger_bits(ledger: &CostReport) -> (usize, u64, u64, usize) {
    (
        ledger.windows,
        ledger.total_credits.to_bits(),
        ledger.peak_window_credits.to_bits(),
        ledger.downgrades,
    )
}

/// Fit tolerance of every capacity and budget comparison.
const EPS: f64 = 1e-9;

/// Consecutive missed windows a class tolerates before eviction, before
/// scaling by `OnlineConfig::evict_miss_windows`.
fn miss_tolerance(class: DeadlineClass) -> usize {
    match class {
        DeadlineClass::Strict => 1,
        DeadlineClass::Standard => 2,
        DeadlineClass::BestEffort => 4,
    }
}

/// The next rung down the degradation ladder; none below BestEffort.
fn downgrade(class: DeadlineClass) -> Option<DeadlineClass> {
    match class {
        DeadlineClass::Strict => Some(DeadlineClass::Standard),
        DeadlineClass::Standard => Some(DeadlineClass::BestEffort),
        DeadlineClass::BestEffort => None,
    }
}

/// The least-utilized shard `demand` fits given the shards' current
/// `loads`, the first on a tie; `None` when it fits nowhere. It keeps
/// no state: utilization is divided afresh at every pick.
pub fn least_utilized(loads: &[f64], capacities: &[f64], demand: f64) -> Option<usize> {
    loads
        .iter()
        .zip(capacities)
        .enumerate()
        .filter(|(_, (&load, &capacity))| load + demand <= capacity + EPS)
        .min_by(|(_, (a, ca)), (_, (b, cb))| (*a / *ca).total_cmp(&(*b / *cb)))
        .map(|(shard, _)| shard)
}

/// An admitted user as the specification tracks it.
struct Active {
    shard: usize,
    demand: f64,
    departure_slot: Option<usize>,
    tolerance: usize,
    class: DeadlineClass,
}

/// Each admitted user replays its workload from its staggered slot.
struct Demands<'a, W> {
    workloads: &'a [W],
    profile_of: BTreeMap<usize, usize>,
}

impl<W: Workload> DemandSource for Demands<'_, W> {
    fn demand_at(&self, user: usize, slot: usize) -> Vec<f64> {
        self.workloads[self.profile_of[&user]].demand_at(staggered_slot(user, slot))
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
        self.workloads[self.profile_of[&user]].work_for(staggered_slot(user, slot), thread)
    }
}

/// Serves `trace` on `shards` by the specification. Inputs must be
/// valid for `serve_online` (sorted trace, unique users, profiles in
/// range); the specification does not re-check them.
pub fn serve_spec<W: Workload, B: ExecutionBackend>(
    cfg: &OnlineConfig,
    workloads: &[W],
    trace: &[UserRequest],
    shards: Vec<B>,
) -> SpecRun {
    let CostPlan {
        credits_per_core_window: rate,
        budget_credits_per_window: budget,
        degrade_on_evict,
    } = cfg.cost;
    let capacities: Vec<f64> = shards
        .iter()
        .map(|b| b.core_speeds().iter().sum())
        .collect();
    let labels: Vec<String> = shards.iter().map(ExecutionBackend::label).collect();
    let max_capacity = capacities.iter().copied().fold(0.0, f64::max);
    // Algorithm 2 line 1: the steady per-slot demand over all tiles, in
    // cores at the target framerate, padded by the headroom.
    let demand_of: Vec<f64> = workloads
        .iter()
        .map(|w| w.steady_demand().iter().sum::<f64>() * cfg.fps * cfg.headroom)
        .collect();
    let source = Demands {
        workloads,
        profile_of: trace.iter().map(|r| (r.user, r.profile)).collect(),
    };
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
    let mut drivers: Vec<LoopDriver<B>> = shards
        .into_iter()
        .map(|b| LoopDriver::new(b, loop_cfg, Vec::new(), Vec::new()))
        .collect();
    let n = drivers.len();

    let mut queue: Vec<UserRequest> = Vec::new();
    let mut active: BTreeMap<usize, Active> = BTreeMap::new();
    let mut loads = vec![0.0f64; n];
    let mut spend = 0.0f64;
    let mut events: Vec<AdmissionEvent> = Vec::new();
    let mut ledger = CostReport {
        windows: 0,
        total_credits: 0.0,
        peak_window_credits: 0.0,
        downgrades: 0,
        within_budget: true,
    };
    let mut timing = ControllerTiming::default();
    let mut arrivals = 0usize;
    let (mut wait_slots, mut concurrent_slots, mut peak_concurrent) = (0usize, 0usize, 0usize);
    let mut shard_peak = vec![0usize; n];

    let mut slot = 0usize;
    while slot < cfg.horizon_slots {
        timing.boundaries += 1;
        let first_event = events.len();
        let mut log = |kind, user, shard| {
            events.push(AdmissionEvent {
                slot,
                user,
                shard,
                kind,
            });
        };

        // 1. Ingest: requests that arrived by this boundary join the
        // queue.
        while trace.get(arrivals).is_some_and(|r| r.arrival_slot <= slot) {
            queue.push(trace[arrivals].clone());
            arrivals += 1;
        }

        // 2. Depart: active users whose session ended, then queued
        // users who gave up waiting.
        let departing: Vec<usize> = active
            .iter()
            .filter(|(_, a)| a.departure_slot.is_some_and(|d| d <= slot))
            .map(|(&u, _)| u)
            .collect();
        for user in departing {
            let a = active.remove(&user).expect("departing user is active");
            loads[a.shard] -= a.demand;
            spend -= a.demand * rate;
            timing.decisions += 1;
            log(EventKind::Depart, user, Some(a.shard));
        }
        let (abandoning, staying): (Vec<UserRequest>, Vec<UserRequest>) = queue
            .into_iter()
            .partition(|r| r.departure_slot.is_some_and(|d| d <= slot));
        queue = staying;
        for request in abandoning {
            timing.decisions += 1;
            log(EventKind::Abandon, request.user, None);
        }

        // 3. Evict: users whose miss streak on their own shard reached
        // their class's tolerance; degradation re-queues them a class
        // lower.
        let streaks: Vec<BTreeSet<usize>> =
            drivers.iter().map(|d| d.miss_streaks().collect()).collect();
        let evicting: Vec<usize> = active
            .iter()
            .filter(|(&u, a)| {
                streaks[a.shard].contains(&u) && drivers[a.shard].miss_streak(u) >= a.tolerance
            })
            .map(|(&u, _)| u)
            .collect();
        for user in evicting {
            let a = active.remove(&user).expect("evicted user is active");
            loads[a.shard] -= a.demand;
            spend -= a.demand * rate;
            timing.decisions += 1;
            log(EventKind::Evict, user, Some(a.shard));
            if let Some(class) = downgrade(a.class).filter(|_| degrade_on_evict) {
                queue.push(UserRequest {
                    user,
                    arrival_slot: slot,
                    profile: source.profile_of[&user],
                    class,
                    departure_slot: a.departure_slot,
                });
                ledger.downgrades += 1;
                timing.decisions += 1;
                log(EventKind::Downgrade, user, None);
            }
        }

        // 4. Admit: scan the whole queue in FIFO order. A demand above
        // every shard's capacity is rejected; one whose bill overruns
        // the budget waits; the rest go to the least-utilized shard they
        // fit, when there is one, reserved and billed before the next
        // request is looked at.
        timing.decisions += queue.len() as u64;
        let mut rejected: Vec<usize> = Vec::new();
        let mut admitted: Vec<(UserRequest, usize)> = Vec::new();
        let mut waiting: Vec<UserRequest> = Vec::new();
        for request in queue {
            let demand = demand_of[request.profile];
            if demand > max_capacity + EPS {
                rejected.push(request.user);
            } else if spend + demand * rate > budget + EPS {
                waiting.push(request);
            } else {
                match least_utilized(&loads, &capacities, demand) {
                    Some(shard) => {
                        loads[shard] += demand;
                        spend += demand * rate;
                        admitted.push((request, shard));
                    }
                    None => waiting.push(request),
                }
            }
        }
        queue = waiting;
        for user in rejected {
            log(EventKind::Reject, user, None);
        }
        for (request, shard) in admitted {
            wait_slots += slot - request.arrival_slot;
            active.insert(
                request.user,
                Active {
                    shard,
                    demand: demand_of[request.profile],
                    departure_slot: request.departure_slot,
                    tolerance: miss_tolerance(request.class) * cfg.evict_miss_windows.max(1),
                    class: request.class,
                },
            );
            log(EventKind::Admit, request.user, Some(shard));
        }

        // 5. Advance: bill the window, hand each shard this boundary's
        // leavers and joiners, and run every shard one GOP.
        ledger.windows += 1;
        ledger.total_credits += spend;
        ledger.peak_window_credits = ledger.peak_window_credits.max(spend);
        let mut members = vec![0usize; n];
        for a in active.values() {
            members[a.shard] += 1;
        }
        let mut joiners: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut leavers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &events[first_event..] {
            match (e.kind, e.shard) {
                (EventKind::Admit, Some(s)) => joiners[s].push(e.user),
                (EventKind::Depart | EventKind::Evict, Some(s)) => leavers[s].push(e.user),
                _ => {}
            }
        }
        let slots = cfg.gop_slots.min(cfg.horizon_slots - slot);
        for (s, driver) in drivers.iter_mut().enumerate() {
            shard_peak[s] = shard_peak[s].max(members[s]);
            driver.update_membership(&joiners[s], &leavers[s]);
            driver.advance(&source, slots);
        }
        concurrent_slots += active.len() * slots;
        peak_concurrent = peak_concurrent.max(active.len());
        slot += slots;
    }
    // Requests arriving after the last boundary still arrived within
    // the horizon.
    while trace
        .get(arrivals)
        .is_some_and(|r| r.arrival_slot < cfg.horizon_slots)
    {
        queue.push(trace[arrivals].clone());
        arrivals += 1;
    }
    ledger.within_budget = ledger.peak_window_credits <= budget + EPS;

    let loops: Vec<LoopReport> = drivers.into_iter().map(LoopDriver::into_report).collect();
    let count = |kind: EventKind| events.iter().filter(|e| e.kind == kind).count();
    let admissions = count(EventKind::Admit);
    let mut report = OnlineReport {
        shard_policy: cfg.shard_policy.label().to_string(),
        horizon_slots: cfg.horizon_slots,
        arrivals,
        admissions,
        evictions: count(EventKind::Evict),
        departures: count(EventKind::Depart),
        abandoned: count(EventKind::Abandon),
        rejected: count(EventKind::Reject),
        queued_at_end: queue.len(),
        active_at_end: active.len(),
        mean_queue_wait_slots: if admissions == 0 {
            0.0
        } else {
            wait_slots as f64 / admissions as f64
        },
        avg_concurrent_users: if cfg.horizon_slots == 0 {
            0.0
        } else {
            concurrent_slots as f64 / cfg.horizon_slots as f64
        },
        peak_concurrent_users: peak_concurrent,
        windows: 0,
        window_misses: 0,
        energy_j: 0.0,
        shards: Vec::with_capacity(n),
        events: Vec::new(),
        controller: timing,
    };
    for (s, r) in loops.into_iter().enumerate() {
        report.windows += r.windows;
        report.window_misses += r.window_misses;
        report.energy_j += r.energy_j;
        report.controller.replans += r.controller.replans;
        report.shards.push(ShardReport {
            shard: s,
            label: labels[s].clone(),
            capacity_cores: capacities[s],
            admitted: events
                .iter()
                .filter(|e| e.kind == EventKind::Admit && e.shard == Some(s))
                .count(),
            peak_users: shard_peak[s],
            energy_j: r.energy_j,
            windows: r.windows,
            window_misses: r.window_misses,
            avg_active_cores: r.avg_active_cores(),
            wall_secs: r.wall_secs,
            window_times: r.window_times,
        });
    }
    report.events = events;
    SpecRun { report, ledger }
}
