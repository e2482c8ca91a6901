//! Thread (tile) allocation — paper Algorithm 2, lines 1–15.
//!
//! Given each admitted user's per-tile CPU-time demands (in reference
//! fmax-seconds per 1/FPS slot), the allocator:
//!
//! 1. computes each user's core demand `N_core = ceil(Σ T_fmax · FPS)`;
//! 2. admits the maximum number of users by ascending core demand
//!    until the platform's cores are exhausted;
//! 3. places every admitted thread on the core that brings its load
//!    closest to a dynamic cap (the current maximum core load, clipped
//!    to the slot), i.e. `argmin_k |Cap − (Load_k + T_j)|`.
//!
//! On heterogeneous platforms ([`place_threads_on`]) loads are
//! normalized to *effective* fmax-seconds — `secs / speed_factor` —
//! so the cap-seeking argmin balances per-core **finish times**, not
//! raw seconds, and candidate cores are recruited fastest-first.
//!
//! The DVFS stage (lines 16–24) is `medvt_mpsoc::simulate_slot`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a [`UserDemand`] was rejected at construction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DemandError {
    /// A per-tile estimate was NaN or infinite.
    NonFinite {
        /// Thread (tile) index of the offending entry.
        thread: usize,
    },
    /// A per-tile estimate was negative.
    Negative {
        /// Thread (tile) index of the offending entry.
        thread: usize,
        /// The rejected value.
        secs: f64,
    },
}

impl fmt::Display for DemandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DemandError::NonFinite { thread } => {
                write!(f, "thread {thread} demand is not finite")
            }
            DemandError::Negative { thread, secs } => {
                write!(f, "thread {thread} demand is negative ({secs} s)")
            }
        }
    }
}

impl std::error::Error for DemandError {}

/// One user's demand for a scheduling slot: the estimated CPU time of
/// each of its tiles at the reference f_max.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserDemand {
    /// Caller-meaningful user identifier.
    pub user: usize,
    /// Per-tile fmax-seconds for one frame slot.
    pub thread_secs: Vec<f64>,
}

impl UserDemand {
    /// Creates a demand, validating every per-tile estimate: NaN,
    /// infinite or negative entries would otherwise propagate through
    /// `core_demand` and placement into nonsense allocations.
    pub fn try_new(user: usize, thread_secs: Vec<f64>) -> Result<Self, DemandError> {
        for (thread, &secs) in thread_secs.iter().enumerate() {
            if !secs.is_finite() {
                return Err(DemandError::NonFinite { thread });
            }
            if secs < 0.0 {
                return Err(DemandError::Negative { thread, secs });
            }
        }
        Ok(Self { user, thread_secs })
    }

    /// Creates a demand.
    ///
    /// # Panics
    ///
    /// Panics when any per-tile estimate is NaN, infinite or negative
    /// (see [`UserDemand::try_new`] for the fallible form).
    pub fn new(user: usize, thread_secs: Vec<f64>) -> Self {
        Self::try_new(user, thread_secs)
            .unwrap_or_else(|e| panic!("invalid demand for user {user}: {e}"))
    }

    /// Total fmax-seconds per slot.
    pub fn total_secs(&self) -> f64 {
        self.thread_secs.iter().sum()
    }

    /// Fractional core demand (Algorithm 2 line 1): `(Σ T) · FPS`.
    /// The paper sums these *fractional* demands during admission —
    /// that is how ~23 users of ~1.4 cores each fit on 32 cores.
    pub fn core_demand(&self, fps: f64) -> f64 {
        self.total_secs() * fps
    }

    /// Whole cores needed: `ceil((Σ T) · FPS)`, used for sizing the
    /// placement candidate set.
    pub fn cores_needed(&self, fps: f64) -> usize {
        self.core_demand(fps).ceil().max(1.0) as usize
    }
}

/// One placed thread.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// User identifier.
    pub user: usize,
    /// Thread (tile) index within the user.
    pub thread: usize,
    /// Core the thread runs on.
    pub core: usize,
    /// The thread's fmax-seconds.
    pub secs: f64,
}

/// The allocator's output.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Allocation {
    /// Users admitted this slot, in admission order.
    pub admitted: Vec<usize>,
    /// Users that did not fit.
    pub rejected: Vec<usize>,
    /// Thread placements.
    pub placements: Vec<Placement>,
    /// Resulting per-core load in reference fmax-seconds.
    pub core_loads: Vec<f64>,
}

impl Allocation {
    /// Highest core load, reference fmax-seconds.
    pub fn max_load(&self) -> f64 {
        self.core_loads.iter().copied().fold(0.0, f64::max)
    }

    /// Number of cores with any load.
    pub fn used_cores(&self) -> usize {
        self.core_loads.iter().filter(|&&l| l > 0.0).count()
    }

    /// Per-core finish times in seconds given per-core `speeds`: a
    /// core of speed `s` retires its reference-fmax-second load at
    /// rate `s`. On homogeneous platforms (all speeds 1.0) this equals
    /// `core_loads`.
    ///
    /// # Panics
    ///
    /// Panics when `speeds` length differs from the core count.
    pub fn finish_times(&self, speeds: &[f64]) -> Vec<f64> {
        assert_eq!(
            speeds.len(),
            self.core_loads.len(),
            "one speed per core required"
        );
        self.core_loads
            .iter()
            .zip(speeds)
            .map(|(&load, &s)| load / s)
            .collect()
    }

    /// Worst-core finish time in seconds given per-core `speeds` — the
    /// quantity speed-aware placement minimizes.
    pub fn worst_finish_secs(&self, speeds: &[f64]) -> f64 {
        self.finish_times(speeds).into_iter().fold(0.0, f64::max)
    }

    /// Load imbalance: max/mean over used cores (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let used: Vec<f64> = self
            .core_loads
            .iter()
            .copied()
            .filter(|&l| l > 0.0)
            .collect();
        if used.is_empty() {
            return 1.0;
        }
        let mean = used.iter().sum::<f64>() / used.len() as f64;
        self.max_load() / mean
    }
}

/// Runs Algorithm 2 lines 1–15 over cores of relative speeds
/// `speeds` (`medvt_mpsoc::Platform::core_speeds`; `[1.0; cores]` for
/// identical reference cores).
///
/// `slot_secs` is the 1/FPS scheduling interval. Admission sorts users
/// by ascending fractional core demand (line 2) — ties keep queue
/// order — against the platform's **effective capacity** `Σ speeds`
/// (reference cores), so a big.LITTLE socket admits against e.g. 5.8
/// cores rather than its raw core count. The admitted set is placed
/// with [`place_threads_on`] semantics: the placement loop (lines
/// 3–15) runs over the *demanded* core set `N_core^U = Σ N_core^k` of
/// the admitted users, not the whole platform, which consolidates
/// threads onto few cores and leaves the rest of the platform idle
/// for other work or deep sleep. Threads are handled in descending
/// duration so large tiles seed the packing.
///
/// # Panics
///
/// Panics when `speeds` is empty or contains a non-positive or
/// non-finite entry, or `slot_secs` is not positive.
pub fn allocate_on(speeds: &[f64], slot_secs: f64, users: &[UserDemand]) -> Allocation {
    assert!(!speeds.is_empty(), "need at least one core");
    assert!(
        speeds.iter().all(|s| s.is_finite() && *s > 0.0),
        "core speeds must be positive and finite"
    );
    assert!(slot_secs > 0.0, "slot must be positive");
    let fps = 1.0 / slot_secs;
    let capacity: f64 = speeds.iter().sum();

    // Lines 1–2: admit the maximum number of users by ascending
    // *fractional* core demand until the summed demand reaches Nc.
    let mut order: Vec<usize> = (0..users.len()).collect();
    order.sort_by(|&a, &b| {
        users[a]
            .core_demand(fps)
            .total_cmp(&users[b].core_demand(fps))
            .then(a.cmp(&b))
    });
    let mut admitted = Vec::new();
    let mut rejected = Vec::new();
    let mut used = 0.0f64;
    for i in order {
        let need = users[i].core_demand(fps);
        if used + need <= capacity + 1e-9 {
            used += need;
            admitted.push(users[i].user);
        } else {
            rejected.push(users[i].user);
        }
    }

    // Gather admitted threads, largest first.
    let mut threads: Vec<Placement> = Vec::new();
    for u in users {
        if admitted.contains(&u.user) {
            for (t, &secs) in u.thread_secs.iter().enumerate() {
                threads.push(Placement {
                    user: u.user,
                    thread: t,
                    core: usize::MAX,
                    secs,
                });
            }
        }
    }
    let core_loads = place(&mut threads, speeds, used, slot_secs);
    Allocation {
        admitted,
        rejected,
        placements: threads,
        core_loads,
    }
}

/// Runs only the placement stage (lines 3–15) for an already-admitted
/// user set — what happens at the start of every GOP once admission is
/// settled (§III-D2: "thread allocation is performed once at the
/// beginning of each GOP").
///
/// `speeds[k]` is core `k`'s throughput relative to the reference
/// class (`medvt_mpsoc::Platform::core_speeds`). Loads are normalized
/// to effective fmax-seconds (`secs / speed`) so the dynamic-cap
/// argmin balances per-core *finish times*; candidate cores are
/// recruited fastest-first, so fast cores are never left idle while
/// slower cores overload.
///
/// # Panics
///
/// Panics when `speeds` is empty or contains a non-positive or
/// non-finite entry, or `slot_secs` is not positive.
pub fn place_threads_on(speeds: &[f64], slot_secs: f64, users: &[UserDemand]) -> Allocation {
    assert!(!speeds.is_empty(), "need at least one core");
    assert!(
        speeds.iter().all(|s| s.is_finite() && *s > 0.0),
        "core speeds must be positive and finite"
    );
    assert!(slot_secs > 0.0, "slot must be positive");
    let fps = 1.0 / slot_secs;
    let demanded: f64 = users.iter().map(|u| u.core_demand(fps)).sum();
    let mut threads: Vec<Placement> = users
        .iter()
        .flat_map(|u| {
            u.thread_secs
                .iter()
                .enumerate()
                .map(|(t, &secs)| Placement {
                    user: u.user,
                    thread: t,
                    core: usize::MAX,
                    secs,
                })
        })
        .collect();
    let core_loads = place(&mut threads, speeds, demanded, slot_secs);
    Allocation {
        admitted: users.iter().map(|u| u.user).collect(),
        rejected: vec![],
        placements: threads,
        core_loads,
    }
}

/// Cap-seeking placement over a fastest-first candidate core set whose
/// cumulative speed covers `demand_frac` reference cores (clamped to
/// the platform), largest thread first. Loads and the cap are compared
/// in *normalized* (finish-time) units so heterogeneous cores balance
/// when they finish together.
fn place(threads: &mut [Placement], speeds: &[f64], demand_frac: f64, slot_secs: f64) -> Vec<f64> {
    threads.sort_by(|a, b| b.secs.total_cmp(&a.secs));
    let candidates = candidate_set(speeds, demand_frac);
    let mut core_loads = vec![0.0f64; speeds.len()];
    // The worst normalized (finish-time) load over the candidates.
    // Loads only grow and `max` selects one of its operands, so the
    // running maximum is bitwise the per-thread fold over every
    // candidate that Algorithm 2 writes down.
    let mut max_norm = 0.0f64;
    for th in threads.iter_mut() {
        // The dynamic fill ceiling: the worst load, clipped to the slot.
        let cap = max_norm.min(slot_secs);
        let best_core = select_core(&core_loads, speeds, &candidates, slot_secs, cap, th.secs);
        th.core = best_core;
        core_loads[best_core] += th.secs;
        max_norm = max_norm.max(finish(core_loads[best_core], speeds[best_core]));
    }
    core_loads
}

/// Candidate recruitment: fastest cores first (stable by id), until
/// their summed speed covers the demanded fractional cores — the
/// heterogeneous generalization of "the first ceil(ΣN_core) cores".
fn candidate_set(speeds: &[f64], demand_frac: f64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..speeds.len()).collect();
    order.sort_by(|&a, &b| speeds[b].total_cmp(&speeds[a]).then(a.cmp(&b)));
    let mut candidates = 0usize;
    let mut cum_speed = 0.0f64;
    while candidates < order.len() && (candidates == 0 || cum_speed < demand_frac - 1e-9) {
        cum_speed += speeds[order[candidates]];
        candidates += 1;
    }
    order.truncate(candidates);
    order
}

/// Picks the core for one thread of `secs` fmax-seconds — the body of
/// Algorithm 2's placement loop.
///
/// The cap is a fill ceiling (lines 5–9: "CPU time … cannot be above
/// 1/FPS"): among cores where the thread still finishes within the
/// slot, pick the one landing nearest the cap; if none fits, spill to
/// the core whose *post-placement* finish time `(load + secs) / speed`
/// is smallest, so overload lands where it hurts the worst-core finish
/// least. (Spilling by pre-placement load instead can push a large
/// thread onto an idle slow core when a partially loaded fast core
/// would finish sooner.) Ties break to the first candidate in
/// recruitment order (fastest, then lowest id), so the scan stops at
/// the first fitting core that lands exactly on the cap: a later core
/// could only tie it.
fn select_core(
    core_loads: &[f64],
    speeds: &[f64],
    candidates: &[usize],
    slot_secs: f64,
    cap: f64,
    secs: f64,
) -> usize {
    let mut best_fit: Option<(usize, f64)> = None;
    let mut spill: (usize, f64) = (candidates[0], f64::INFINITY);
    for &k in candidates {
        let with = finish(core_loads[k] + secs, speeds[k]);
        if with < spill.1 {
            spill = (k, with);
        }
        if with <= slot_secs + 1e-12 {
            let dist = (cap - with).abs();
            if dist == 0.0 {
                return k;
            }
            if best_fit.is_none_or(|(_, d)| dist < d) {
                best_fit = Some((k, dist));
            }
        }
    }
    best_fit.map_or(spill.0, |(k, _)| k)
}

/// `load / speed`, without the division on a reference-speed core
/// (`x / 1.0 == x` bit for bit).
#[inline]
fn finish(load: f64, speed: f64) -> f64 {
    if speed == 1.0 {
        load
    } else {
        load / speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SLOT: f64 = 1.0 / 24.0;

    fn demand(user: usize, secs: &[f64]) -> UserDemand {
        UserDemand::new(user, secs.to_vec())
    }

    #[test]
    fn cores_needed_matches_line1() {
        let u = demand(0, &[0.01, 0.02, 0.015]);
        // Σ = 0.045 s per slot x 24 fps = 1.08 → 2 cores.
        assert_eq!(u.cores_needed(24.0), 2);
        let light = demand(1, &[0.001]);
        assert_eq!(light.cores_needed(24.0), 1);
    }

    #[test]
    fn nan_and_negative_demands_rejected_with_typed_error() {
        assert_eq!(
            UserDemand::try_new(7, vec![0.01, f64::NAN]),
            Err(DemandError::NonFinite { thread: 1 })
        );
        assert_eq!(
            UserDemand::try_new(7, vec![f64::INFINITY]),
            Err(DemandError::NonFinite { thread: 0 })
        );
        assert_eq!(
            UserDemand::try_new(7, vec![0.01, 0.02, -0.5]),
            Err(DemandError::Negative {
                thread: 2,
                secs: -0.5
            })
        );
        // Zero is a legal (idle-tile) estimate.
        assert!(UserDemand::try_new(7, vec![0.0, 0.01]).is_ok());
        assert!(UserDemand::try_new(7, vec![]).is_ok());
        // The error explains itself.
        let err = UserDemand::try_new(7, vec![-1.0]).unwrap_err();
        assert!(err.to_string().contains("negative"));
    }

    #[test]
    #[should_panic(expected = "invalid demand for user 3")]
    fn new_panics_on_nan_demand() {
        UserDemand::new(3, vec![f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn new_panics_on_negative_demand() {
        UserDemand::new(3, vec![-0.01]);
    }

    #[test]
    fn admission_prefers_light_users() {
        // 3 cores; heavy user needs 3, light users need 1 each.
        let users = vec![
            demand(0, &[SLOT, SLOT, SLOT / 2.0]), // needs 3
            demand(1, &[SLOT / 3.0]),             // needs 1
            demand(2, &[SLOT / 3.0]),             // needs 1
            demand(3, &[SLOT / 3.0]),             // needs 1
        ];
        let alloc = allocate_on(&[1.0; 3], SLOT, &users);
        assert_eq!(alloc.admitted, vec![1, 2, 3]);
        assert_eq!(alloc.rejected, vec![0]);
    }

    #[test]
    fn all_admitted_threads_are_placed() {
        let users = vec![
            demand(0, &[0.004, 0.003, 0.001]),
            demand(1, &[0.010, 0.002]),
        ];
        let alloc = allocate_on(&[1.0; 4], SLOT, &users);
        assert_eq!(alloc.admitted.len(), 2);
        assert_eq!(alloc.placements.len(), 5);
        assert!(alloc.placements.iter().all(|p| p.core < 4));
        let total: f64 = alloc.core_loads.iter().sum();
        assert!((total - 0.020).abs() < 1e-12);
    }

    #[test]
    fn placement_balances_loads_across_demanded_cores() {
        // 8 threads of half a slot each: demand = 4 cores; balance is
        // exactly two threads per core.
        let users = vec![demand(0, &[SLOT / 2.0; 8])];
        let alloc = allocate_on(&[1.0; 8], SLOT, &users);
        assert_eq!(alloc.used_cores(), 4);
        for &load in &alloc.core_loads[..4] {
            assert!((load - SLOT).abs() < 1e-12, "load={load}");
        }
        assert!((alloc.imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn consolidates_before_spreading() {
        // The cap rule packs threads onto busy cores while they stay
        // under the slot, minimizing the number of active cores — the
        // source of the paper's DVFS savings.
        let users = vec![demand(0, &[SLOT / 4.0; 4])];
        let alloc = allocate_on(&[1.0; 8], SLOT, &users);
        // 4 x SLOT/4 fits one core exactly.
        assert_eq!(alloc.used_cores(), 1, "loads={:?}", alloc.core_loads);
        assert!(alloc.max_load() <= SLOT + 1e-12);
    }

    #[test]
    fn demand_rounding_can_overrun_and_carry() {
        // 3 x 0.6-slot threads: demand ceil(1.8) = 2 cores, so one core
        // must take two threads and carry the overrun into the next
        // slot — Algorithm 2's lines 5–6/21–22 behaviour.
        let users = vec![demand(0, &[SLOT * 0.6; 3])];
        let alloc = allocate_on(&[1.0; 4], SLOT, &users);
        assert_eq!(alloc.used_cores(), 2);
        assert!(alloc.max_load() > SLOT);
    }

    #[test]
    fn empty_queue_yields_empty_allocation() {
        let alloc = allocate_on(&[1.0; 4], SLOT, &[]);
        assert!(alloc.admitted.is_empty());
        assert!(alloc.placements.is_empty());
        assert_eq!(alloc.used_cores(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        allocate_on(&[], SLOT, &[]);
    }

    #[test]
    fn speed_aware_placement_prefers_fast_cores() {
        // 4 fast cores + 4 half-speed cores; light load that fits the
        // fast cluster: the slow cores stay empty.
        let speeds = [1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5];
        let users = vec![demand(0, &[SLOT / 2.0; 6])]; // 3 reference cores
        let alloc = place_threads_on(&speeds, SLOT, &users);
        assert_eq!(alloc.placements.len(), 6);
        for &load in &alloc.core_loads[4..] {
            assert_eq!(load, 0.0, "slow cores must stay idle under light load");
        }
    }

    #[test]
    fn speed_aware_placement_normalizes_finish_times() {
        // Threads that fit neither cluster in one piece spill to the
        // soonest-finishing core in *normalized* time: worst-core
        // finish is what gets balanced.
        let speeds = [1.0, 1.0, 0.5, 0.5];
        let users = vec![demand(0, &[SLOT * 0.6; 4])]; // 2.4 ref cores
        let alloc = place_threads_on(&speeds, SLOT, &users);
        let finish = alloc.finish_times(&speeds);
        // Fast cores take one 0.6-slot thread each (finish 0.6); the
        // remaining two can't fit anywhere (slow finish would be 1.2)
        // so they spill — but never onto an already-loaded fast core
        // while a sooner-finishing option exists.
        assert!(alloc.worst_finish_secs(&speeds) <= SLOT * 1.2 + 1e-12);
        assert_eq!(finish.len(), 4);
    }

    #[test]
    fn spill_minimizes_post_placement_finish_time() {
        // One big core (1.0) and one LITTLE (0.45). The 0.9-slot thread
        // seeds the big core; the 0.85-slot thread fits nowhere and
        // must spill. Pre-placement load would send it to the idle
        // LITTLE core (finish 0.85/0.45 = 1.89 slots); the argmin of
        // post-placement finish keeps it on the big core
        // ((0.9+0.85)/1.0 = 1.75 slots), the better worst case.
        let speeds = [1.0, 0.45];
        let users = vec![demand(0, &[SLOT * 0.9, SLOT * 0.85])];
        let alloc = place_threads_on(&speeds, SLOT, &users);
        assert!(
            alloc.placements.iter().all(|p| p.core == 0),
            "both threads belong on the big core: {:?}",
            alloc.placements
        );
        let worst = alloc.worst_finish_secs(&speeds) / SLOT;
        assert!(
            (worst - 1.75).abs() < 1e-9,
            "worst-core finish should be 1.75 slots, got {worst}"
        );
    }

    #[test]
    fn allocate_on_admits_against_effective_capacity() {
        // 4 big (1.0) + 4 LITTLE (0.45): effective capacity 5.8
        // reference cores, not 8 — exactly 5 one-core users fit.
        let speeds = [1.0, 1.0, 1.0, 1.0, 0.45, 0.45, 0.45, 0.45];
        let users: Vec<UserDemand> = (0..8)
            .map(|u| demand(u, &[SLOT / 2.0, SLOT / 2.0]))
            .collect();
        let alloc = allocate_on(&speeds, SLOT, &users);
        assert_eq!(
            alloc.admitted.len(),
            5,
            "5.8 effective cores admit 5 unit users"
        );
        assert_eq!(alloc.rejected.len(), 3);
    }

    #[test]
    fn allocate_on_places_admitted_users_like_place_threads_on() {
        let users = vec![
            demand(0, &[SLOT * 0.6, SLOT * 0.3]),
            demand(1, &[SLOT / 3.0; 5]),
            demand(2, &[SLOT * 0.9]),
            demand(3, &[SLOT / 4.0; 2]),
        ];
        let a = allocate_on(&[1.0; 4], SLOT, &users);
        let b = place_threads_on(&[1.0; 4], SLOT, &users);
        assert_eq!(a.admitted.len(), 4, "every user fits four cores");
        assert_eq!(a.placements, b.placements);
        assert_eq!(a.core_loads, b.core_loads);
    }

    #[test]
    fn finish_times_match_loads_on_homogeneous_cores() {
        let users = vec![demand(0, &[SLOT / 3.0; 5])];
        let alloc = place_threads_on(&[1.0; 4], SLOT, &users);
        let speeds = vec![1.0; 4];
        assert_eq!(alloc.finish_times(&speeds), alloc.core_loads);
        assert!((alloc.worst_finish_secs(&speeds) - alloc.max_load()).abs() < 1e-15);
    }

    /// Algorithm 2 lines 3–15 as the paper writes them: the cap is
    /// recomputed for every thread by folding over all candidate
    /// cores. `place` carries it as a running maximum instead.
    fn place_with_per_thread_fold(
        speeds: &[f64],
        slot_secs: f64,
        users: &[UserDemand],
    ) -> (Vec<Placement>, Vec<f64>) {
        let demanded: f64 = users.iter().map(|u| u.core_demand(1.0 / slot_secs)).sum();
        let mut threads: Vec<Placement> = Vec::new();
        for u in users {
            for (thread, &secs) in u.thread_secs.iter().enumerate() {
                threads.push(Placement {
                    user: u.user,
                    thread,
                    core: usize::MAX,
                    secs,
                });
            }
        }
        threads.sort_by(|a, b| b.secs.total_cmp(&a.secs));
        let candidates = candidate_set(speeds, demanded);
        let mut loads = vec![0.0f64; speeds.len()];
        for th in &mut threads {
            let max_norm = candidates
                .iter()
                .map(|&k| loads[k] / speeds[k])
                .fold(0.0, f64::max);
            let cap = if max_norm > slot_secs {
                slot_secs
            } else {
                max_norm
            };
            th.core = select_core(&loads, speeds, &candidates, slot_secs, cap, th.secs);
            loads[th.core] += th.secs;
        }
        (threads, loads)
    }

    proptest! {
        /// The running `max_norm` is bitwise the per-thread fold: on
        /// heterogeneous speeds, through overload (cap clipped to the
        /// slot), with all-zero and `-0.0` demands and more threads
        /// than cores.
        #[test]
        fn prop_running_cap_equals_the_per_thread_fold(
            speed_idx in proptest::collection::vec(0usize..4, 1..10),
            users_ms in proptest::collection::vec(
                proptest::collection::vec(0u32..48, 0..7),
                0..7,
            ),
            zero_sign in 0u32..2,
        ) {
            const PALETTE: [f64; 4] = [0.25, 0.45, 0.5, 1.0];
            let speeds: Vec<f64> = speed_idx.iter().map(|&i| PALETTE[i]).collect();
            let zero = if zero_sign == 1 { -0.0 } else { 0.0 };
            let users: Vec<UserDemand> = users_ms
                .iter()
                .enumerate()
                .map(|(u, ms)| {
                    let secs = ms
                        .iter()
                        .map(|&m| if m % 4 == 0 { zero } else { m as f64 * 1e-3 })
                        .collect();
                    UserDemand::new(u, secs)
                })
                .collect();
            let got = place_threads_on(&speeds, SLOT, &users);
            let (placements, loads) = place_with_per_thread_fold(&speeds, SLOT, &users);
            prop_assert_eq!(got.placements.len(), placements.len());
            for (x, y) in got.placements.iter().zip(&placements) {
                prop_assert_eq!(
                    (x.user, x.thread, x.core, x.secs.to_bits()),
                    (y.user, y.thread, y.core, y.secs.to_bits())
                );
            }
            for (x, y) in got.core_loads.iter().zip(&loads) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        #[test]
        fn prop_no_thread_lost_and_loads_consistent(
            user_count in 1usize..6,
            threads_per_user in 1usize..6,
            base_ms in 1u32..20,
        ) {
            let users: Vec<UserDemand> = (0..user_count)
                .map(|u| {
                    demand(
                        u,
                        &vec![base_ms as f64 * 1e-3; threads_per_user],
                    )
                })
                .collect();
            let alloc = allocate_on(&[1.0; 16], SLOT, &users);
            // Every admitted user's threads placed exactly once.
            let expect = alloc.admitted.len() * threads_per_user;
            prop_assert_eq!(alloc.placements.len(), expect);
            // Core loads equal the sum of placements.
            let mut check = [0.0f64; 16];
            for p in &alloc.placements {
                check[p.core] += p.secs;
            }
            for (a, b) in check.iter().zip(&alloc.core_loads) {
                prop_assert!((a - b).abs() < 1e-12);
            }
            // Admitted + rejected = all users.
            prop_assert_eq!(
                alloc.admitted.len() + alloc.rejected.len(),
                user_count
            );
        }

        /// `place_threads_on` invariants over irregular demand shapes:
        /// every thread placed exactly once on a valid core, core
        /// loads consistent with placements, overload bounded by one
        /// spilled thread, and a single-core-sized total never
        /// overloads at all.
        #[test]
        fn prop_place_threads_places_each_thread_once_with_bounded_load(
            thread_ms in proptest::collection::vec(
                proptest::collection::vec(1u32..40, 1..6),
                1..6,
            ),
        ) {
            let users: Vec<UserDemand> = thread_ms
                .iter()
                .enumerate()
                .map(|(u, ms)| {
                    demand(u, &ms.iter().map(|&m| m as f64 * 1e-3).collect::<Vec<_>>())
                })
                .collect();
            let cores = 16;
            let alloc = place_threads_on(&vec![1.0; cores], SLOT, &users);
            // Every thread placed exactly once, on a real core.
            let expect: usize = users.iter().map(|u| u.thread_secs.len()).sum();
            prop_assert_eq!(alloc.placements.len(), expect);
            let mut seen = std::collections::HashSet::new();
            for p in &alloc.placements {
                prop_assert!(p.core < cores);
                prop_assert!(seen.insert((p.user, p.thread)), "thread placed twice");
            }
            // Core loads equal the sum of their placements.
            let mut check = vec![0.0f64; cores];
            for p in &alloc.placements {
                check[p.core] += p.secs;
            }
            for (a, b) in check.iter().zip(&alloc.core_loads) {
                prop_assert!((a - b).abs() < 1e-12);
            }
            // No core overloads beyond the slot capacity by more than
            // one spilled thread (spill targets the least-loaded core,
            // which is provably under the slot when any work remains).
            let largest = users
                .iter()
                .flat_map(|u| u.thread_secs.iter())
                .fold(0.0f64, |a, &b| a.max(b));
            prop_assert!(alloc.max_load() <= SLOT + largest + 1e-12);
            // A total that fits one core never overloads anything.
            let total: f64 = users.iter().map(UserDemand::total_secs).sum();
            if total <= SLOT + 1e-12 {
                prop_assert!(alloc.max_load() <= SLOT + 1e-12);
            }
        }

        /// Equal-sized tiles divide slots exactly: the cap-seeking
        /// placement must never overload any core beyond the slot.
        #[test]
        fn prop_place_threads_equal_tiles_never_overload(
            tiles_per_slot in 2usize..16,
            threads in 1usize..40,
        ) {
            let secs = SLOT / tiles_per_slot as f64;
            let users = vec![demand(0, &vec![secs; threads])];
            let alloc = place_threads_on(&[1.0; 32], SLOT, &users);
            prop_assert!(
                alloc.max_load() <= SLOT + 1e-12,
                "equal tiles overloaded a core: {} > slot",
                alloc.max_load()
            );
            prop_assert_eq!(alloc.placements.len(), threads);
        }

        /// Permuting the user list must not change the resulting
        /// per-core load vector: placement is order-stable.
        #[test]
        fn prop_place_threads_stable_under_user_permutation(
            thread_ms in proptest::collection::vec(
                proptest::collection::vec(1u32..40, 1..6),
                2..6,
            ),
            rotation in 1usize..5,
        ) {
            let users: Vec<UserDemand> = thread_ms
                .iter()
                .enumerate()
                .map(|(u, ms)| {
                    demand(u, &ms.iter().map(|&m| m as f64 * 1e-3).collect::<Vec<_>>())
                })
                .collect();
            let mut permuted = users.clone();
            let k = rotation % permuted.len();
            permuted.rotate_left(k);
            let a = place_threads_on(&[1.0; 16], SLOT, &users);
            let b = place_threads_on(&[1.0; 16], SLOT, &permuted);
            for (x, y) in a.core_loads.iter().zip(&b.core_loads) {
                prop_assert!(
                    (x - y).abs() < 1e-12,
                    "permutation changed core loads: {:?} vs {:?}",
                    a.core_loads,
                    b.core_loads
                );
            }
            prop_assert_eq!(a.placements.len(), b.placements.len());
        }
    }
}
