//! The pre-refactor admission controller, kept verbatim as the
//! baseline for decision-stream parity.
//!
//! [`serve_online_reference`] is the linear controller `serve_online`
//! shipped with before incremental re-placement landed: every GOP
//! boundary it scans all active users for departures and evictions,
//! scans the whole queue for admissions with `StatelessSharder` (the
//! shard chooser it was written against, which recomputes every pick
//! from the caller's load vector; the tracked
//! [`Sharder`](crate::Sharder) is tested call for call against it),
//! rebuilds each shard's full membership, and lets the drivers
//! re-place every thread from scratch. Cost per boundary is
//! O(active + queue + threads·cores).
//!
//! It counts decisions and boundaries exactly as the optimized path
//! does, so the two [`ControllerTiming`]s compare like for like. Do not
//! "improve" this module: its value is staying byte-for-byte faithful
//! to the old decision procedure, against which `serve_online` is
//! compared by its unit tests, `tests/control_plane.rs` and
//! `tests/cost_plan.rs`.

use crate::request::{AdmitDecision, RequestQueue, UserRequest};
use crate::serve::{
    finish_report, ActiveUser, FinishState, OnlineConfig, OnlineReport, Setup, TraceSource,
    Workload,
};
use crate::serve::{AdmissionEvent, EventKind};
use crate::shard::{class_hash, ShardPolicy};
use medvt_runtime::{ControllerTiming, ExecutionBackend, LoopDriver};
use std::collections::BTreeMap;
use std::time::Instant;

/// The stateless shard chooser the frozen controller was written
/// against: it keeps only the round-robin rotation, and every pick
/// reads the caller's `loads` and divides afresh.
pub(crate) struct StatelessSharder {
    policy: ShardPolicy,
    rotation: usize,
}

impl StatelessSharder {
    pub(crate) fn new(policy: ShardPolicy) -> Self {
        Self {
            policy,
            rotation: 0,
        }
    }

    fn least_loaded(loads: &[f64], capacities: &[f64], demand: f64) -> Option<usize> {
        loads
            .iter()
            .zip(capacities)
            .enumerate()
            .filter(|(_, (&load, &cap))| load + demand <= cap + 1e-9)
            .min_by(|(_, (a, ca)), (_, (b, cb))| (*a / *ca).total_cmp(&(*b / *cb)))
            .map(|(k, _)| k)
    }

    pub(crate) fn pick(
        &mut self,
        loads: &[f64],
        capacities: &[f64],
        demand: f64,
        class: &str,
    ) -> Option<usize> {
        match self.policy {
            ShardPolicy::LeastLoaded => Self::least_loaded(loads, capacities, demand),
            ShardPolicy::RoundRobin => {
                let shard = self.rotation % loads.len();
                self.rotation = self.rotation.wrapping_add(1);
                (loads[shard] + demand <= capacities[shard] + 1e-9).then_some(shard)
            }
            ShardPolicy::ContentAffinity => {
                let preferred = (class_hash(class) % loads.len() as u64) as usize;
                if loads[preferred] + demand <= capacities[preferred] + 1e-9 {
                    Some(preferred)
                } else {
                    Self::least_loaded(loads, capacities, demand)
                }
            }
        }
    }
}

/// Serves `trace` with the frozen linear controller. Decision streams
/// and all modeled accounting are bit-identical to
/// [`serve_online`](crate::serve_online) on the same inputs; only the
/// wall-clock `controller` timings (and the `replans` count — the
/// reference re-places at every boundary, the optimized path only when
/// something changed) differ.
#[allow(clippy::too_many_lines)] // frozen verbatim — see the module docs
pub fn serve_online_reference<W: Workload, B: ExecutionBackend>(
    cfg: &OnlineConfig,
    workloads: &[W],
    trace: &[UserRequest],
    shards: Vec<B>,
) -> OnlineReport {
    let setup = Setup::new(cfg, workloads, trace, &shards);
    let source = TraceSource {
        workloads,
        profile_of: setup.profile_of.clone(),
    };
    let mut drivers: Vec<LoopDriver<B>> = shards
        .into_iter()
        .map(|b| LoopDriver::new(b, setup.loop_cfg, Vec::new(), Vec::new()))
        .collect();
    let n_shards = drivers.len();

    // Same queue configuration as `serve_online` — the shared
    // ingestion cost must stay identical between the two controllers.
    let mut queue = RequestQueue::with_departure_bound(cfg.horizon_slots.max(1));
    let mut sharder = StatelessSharder::new(cfg.shard_policy);
    let mut active: BTreeMap<usize, ActiveUser> = BTreeMap::new();
    let mut shard_loads = vec![0.0f64; n_shards];
    let mut shard_peak = vec![0usize; n_shards];
    let mut events: Vec<AdmissionEvent> = Vec::new();
    let mut arrivals = 0usize;
    let mut wait_slots_sum = 0usize;
    let mut concurrent_slot_sum = 0usize;
    let mut peak_concurrent = 0usize;
    let mut timing = ControllerTiming::default();

    let mut next_arrival = 0usize;
    let mut slot = 0usize;
    while slot < cfg.horizon_slots {
        let boundary_clock = Instant::now();
        timing.boundaries += 1;
        // 1. Arrivals up to this boundary.
        while next_arrival < trace.len() && trace[next_arrival].arrival_slot <= slot {
            queue.push(trace[next_arrival].clone());
            arrivals += 1;
            next_arrival += 1;
        }
        // 2. Voluntary departures — active users first, then queued
        // requests whose user gave up waiting.
        let departing: Vec<usize> = active
            .iter()
            .filter(|(_, a)| a.departure_slot.is_some_and(|d| d <= slot))
            .map(|(&u, _)| u)
            .collect();
        timing.decisions += departing.len() as u64;
        for user in departing {
            let a = active.remove(&user).expect("departing user is active");
            shard_loads[a.shard] -= a.demand_cores;
            events.push(AdmissionEvent {
                slot,
                user,
                shard: Some(a.shard),
                kind: EventKind::Depart,
            });
        }
        for request in queue.drain_departed(slot) {
            timing.decisions += 1;
            events.push(AdmissionEvent {
                slot,
                user: request.user,
                shard: None,
                kind: EventKind::Abandon,
            });
        }
        // 3. Evictions under sustained deadline misses.
        let evicting: Vec<usize> = active
            .iter()
            .filter(|(&u, a)| {
                drivers[a.shard]
                    .user_stats(u)
                    .is_some_and(|s| s.consecutive_window_misses >= a.miss_tolerance)
            })
            .map(|(&u, _)| u)
            .collect();
        timing.decisions += evicting.len() as u64;
        for user in evicting {
            let a = active.remove(&user).expect("evicted user is active");
            shard_loads[a.shard] -= a.demand_cores;
            events.push(AdmissionEvent {
                slot,
                user,
                shard: Some(a.shard),
                kind: EventKind::Evict,
            });
        }
        // 4. Admissions from the FIFO queue.
        timing.decisions += queue.len() as u64;
        let (admitted_now, rejected_now) = queue.try_admit(|request| {
            let demand = setup.demand_of[setup.profile_of[&request.user]];
            if demand > setup.max_capacity + 1e-9 {
                return AdmitDecision::Reject;
            }
            match sharder.pick(
                &shard_loads,
                &setup.capacities,
                demand,
                workloads[setup.profile_of[&request.user]].content_class(),
            ) {
                Some(shard) => {
                    // Reserve immediately so later queue entries see
                    // the updated load.
                    shard_loads[shard] += demand;
                    AdmitDecision::Admit(shard)
                }
                None => AdmitDecision::Wait,
            }
        });
        for request in rejected_now {
            events.push(AdmissionEvent {
                slot,
                user: request.user,
                shard: None,
                kind: EventKind::Reject,
            });
        }
        for (request, shard) in admitted_now {
            let demand = setup.demand_of[setup.profile_of[&request.user]];
            active.insert(
                request.user,
                ActiveUser {
                    shard,
                    demand_cores: demand,
                    departure_slot: request.departure_slot,
                    miss_tolerance: request.class.miss_tolerance() * cfg.evict_miss_windows.max(1),
                    class: request.class,
                },
            );
            wait_slots_sum += slot - request.arrival_slot;
            events.push(AdmissionEvent {
                slot,
                user: request.user,
                shard: Some(shard),
                kind: EventKind::Admit,
            });
        }
        // 5. Full membership rebuild → shards, then advance one GOP in
        // lockstep.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        for (&u, a) in &active {
            members[a.shard].push(u);
        }
        for (s, users) in members.into_iter().enumerate() {
            shard_peak[s] = shard_peak[s].max(users.len());
            drivers[s].set_membership(users);
        }
        timing.queue_ns += boundary_clock.elapsed().as_nanos() as u64;
        let n_slots = cfg.gop_slots.min(cfg.horizon_slots - slot);
        for d in &mut drivers {
            d.advance(&source, n_slots);
        }
        concurrent_slot_sum += active.len() * n_slots;
        peak_concurrent = peak_concurrent.max(active.len());
        slot += n_slots;
    }

    // Requests arriving after the last GOP boundary still arrived
    // within the horizon: ingest them so `arrivals`/`queued_at_end`
    // reconcile with the trace.
    while next_arrival < trace.len() && trace[next_arrival].arrival_slot < cfg.horizon_slots {
        queue.push(trace[next_arrival].clone());
        arrivals += 1;
        next_arrival += 1;
    }

    finish_report(
        cfg,
        &setup,
        drivers.into_iter().map(LoopDriver::into_report).collect(),
        FinishState {
            queued_at_end: queue.len(),
            active_at_end: active.len(),
            arrivals,
            wait_slots_sum,
            concurrent_slot_sum,
            peak_concurrent,
            shard_peak,
            events,
            timing,
        },
    )
}
