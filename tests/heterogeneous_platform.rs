//! Heterogeneous (big.LITTLE) platform integration tests: speed-aware
//! placement must strictly beat speed-blind placement on worst-core
//! finish time, both execution backends must account identically on
//! asymmetric cores, and the placement invariants must hold for
//! arbitrary speed mixes.

use medvt::admission::{serve_online, DeadlineClass, OnlineConfig, UserRequest};
use medvt::core::VideoProfile;
use medvt::mpsoc::{Platform, PowerModel};
use medvt::runtime::{
    DemandSource, ExecutionBackend, LoopDriver, ReplanPolicy, ServerLoopConfig, SimBackend,
    ThreadPoolBackend,
};
use medvt::sched::{place_threads_on, UserDemand};
use proptest::prelude::*;

mod common;
use common::synthetic_profile as profile;

const SLOT: f64 = 1.0 / 24.0;

/// One big.LITTLE socket's speeds: 4 big (1.0) + 4 LITTLE (0.45).
fn socket_speeds() -> Vec<f64> {
    Platform::big_little().socket_view(0).core_speeds()
}

/// A mixed-demand frame: four large tiles only the big cores can run
/// on time, four mid tiles that overload the LITTLE cores unless
/// placement normalizes by speed.
fn mixed_demand() -> UserDemand {
    UserDemand::new(
        0,
        vec![
            SLOT * 0.9,
            SLOT * 0.9,
            SLOT * 0.9,
            SLOT * 0.9,
            SLOT * 0.5,
            SLOT * 0.5,
            SLOT * 0.5,
            SLOT * 0.5,
        ],
    )
}

/// ISSUE 3 acceptance: on the big.LITTLE preset, speed-aware placement
/// achieves strictly lower worst-core finish time than speed-blind
/// placement for a mixed-demand workload.
#[test]
fn speed_aware_placement_beats_speed_blind_on_big_little() {
    let speeds = socket_speeds();
    let demand = mixed_demand();
    let aware = place_threads_on(&speeds, SLOT, std::slice::from_ref(&demand));
    let blind = place_threads_on(&vec![1.0; speeds.len()], SLOT, &[demand]);
    let aware_worst = aware.worst_finish_secs(&speeds);
    let blind_worst = blind.worst_finish_secs(&speeds);
    assert!(
        aware_worst < blind_worst - 1e-12,
        "speed-aware worst finish {aware_worst} must be strictly below \
         speed-blind {blind_worst}"
    );
    // Both place every thread exactly once.
    assert_eq!(aware.placements.len(), 8);
    assert_eq!(blind.placements.len(), 8);
    // The speed-aware worst core finishes within ~1.2 slots; the blind
    // one rides a LITTLE core past two slots.
    assert!(aware_worst < SLOT * 1.3);
    assert!(blind_worst > SLOT * 2.0);
}

/// A flat per-slot demand source for driving the server loop.
struct FlatSource {
    tiles: usize,
    secs: f64,
}

impl DemandSource for FlatSource {
    fn demand_at(&self, _user: usize, _slot: usize) -> Vec<f64> {
        vec![self.secs; self.tiles]
    }
}

/// ISSUE 3 acceptance: `SimBackend` and `ThreadPoolBackend` report
/// identical statistics on the heterogeneous preset — per-class
/// stretching happens in the shared analytical accounting.
#[test]
fn sim_and_pool_backends_identical_on_big_little() {
    let platform = Platform::big_little();
    let power = PowerModel::default();
    let cfg = ServerLoopConfig {
        fps: 24.0,
        slots: 48,
        policy: Default::default(),
        replan: ReplanPolicy::PerGop { headroom: 1.1 },
        gop_slots: 8,
        window_slots: None,
    };
    let source = FlatSource {
        tiles: 6,
        secs: SLOT / 5.0,
    };
    let sim = SimBackend::new(platform.clone(), power);
    let pool = ThreadPoolBackend::with_workers(platform.clone(), power, 4);
    assert_eq!(sim.core_speeds(), pool.core_speeds());
    let a = LoopDriver::new(sim, cfg, vec![0, 1], vec![]).run(&source);
    let b = LoopDriver::new(pool, cfg, vec![0, 1], vec![]).run(&source);
    assert!(a.energy_j > 0.0);
    // Wall time differs (the pool really runs); every statistic the
    // accounting produces must not.
    assert_eq!(
        a.modeled_only(),
        b.modeled_only(),
        "backends must account identically"
    );
}

/// Online serving works end to end on a heterogeneous platform: one
/// shard per big.LITTLE socket, users admitted against effective
/// (speed-weighted) capacity, socket labels surfaced per shard.
#[test]
fn online_serving_on_big_little_sockets() {
    let platform = Platform::big_little();
    let shards: Vec<SimBackend> = (0..platform.sockets)
        .map(|s| SimBackend::new(platform.socket_view(s), PowerModel::default()))
        .collect();
    // Light users (2 tiles ≈ 0.58 effective cores with headroom) that
    // any cluster can host.
    let profiles: Vec<VideoProfile> = vec![profile("light", "brain", 2, SLOT / 8.0)];
    let trace: Vec<UserRequest> = (0..6)
        .map(|u| UserRequest {
            user: u,
            arrival_slot: 0,
            profile: 0,
            class: DeadlineClass::Standard,
            departure_slot: None,
        })
        .collect();
    let cfg = OnlineConfig {
        horizon_slots: 96,
        ..OnlineConfig::default()
    };
    let report = serve_online(&cfg, &profiles, &trace, shards);
    assert_eq!(report.shards.len(), 2, "one shard per big.LITTLE socket");
    assert!(report.admissions > 0);
    assert_eq!(report.window_misses, 0, "light users must stay on time");
    for (s, shard) in report.shards.iter().enumerate() {
        assert!((shard.capacity_cores - 5.8).abs() < 1e-9);
        assert_eq!(shard.label, format!("big.LITTLE MPSoC (socket {s})"));
    }
}

/// Maps sampled palette indices to a plausible heterogeneous speed
/// mix (the vendored proptest shim has no `prop_oneof`).
fn speeds_from(indices: &[u32]) -> Vec<f64> {
    const PALETTE: [f64; 5] = [0.25, 0.45, 0.5, 0.75, 1.0];
    indices
        .iter()
        .map(|&i| PALETTE[i as usize % PALETTE.len()])
        .collect()
}

proptest! {
    /// Every thread is placed exactly once on a real core, and core
    /// loads reconcile with placements, for arbitrary speed mixes.
    #[test]
    fn prop_hetero_place_each_thread_exactly_once(
        speed_idx in proptest::collection::vec(0u32..5, 2..10),
        thread_ms in proptest::collection::vec(
            proptest::collection::vec(1u32..40, 1..6),
            1..6,
        ),
    ) {
        let speeds = speeds_from(&speed_idx);
        let users: Vec<UserDemand> = thread_ms
            .iter()
            .enumerate()
            .map(|(u, ms)| {
                UserDemand::new(u, ms.iter().map(|&m| m as f64 * 1e-3).collect())
            })
            .collect();
        let alloc = place_threads_on(&speeds, SLOT, &users);
        let expect: usize = users.iter().map(|u| u.thread_secs.len()).sum();
        prop_assert_eq!(alloc.placements.len(), expect);
        let mut seen = std::collections::HashSet::new();
        for p in &alloc.placements {
            prop_assert!(p.core < speeds.len());
            prop_assert!(seen.insert((p.user, p.thread)), "thread placed twice");
        }
        let mut check = vec![0.0f64; speeds.len()];
        for p in &alloc.placements {
            check[p.core] += p.secs;
        }
        for (a, b) in check.iter().zip(&alloc.core_loads) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    /// Speed-normalized overload stays bounded: no core's finish time
    /// exceeds the slot by more than one spilled thread stretched onto
    /// the slowest core.
    #[test]
    fn prop_hetero_normalized_overload_bounded(
        speed_idx in proptest::collection::vec(0u32..5, 2..10),
        thread_ms in proptest::collection::vec(
            proptest::collection::vec(1u32..40, 1..6),
            1..6,
        ),
    ) {
        let speeds = speeds_from(&speed_idx);
        let users: Vec<UserDemand> = thread_ms
            .iter()
            .enumerate()
            .map(|(u, ms)| {
                UserDemand::new(u, ms.iter().map(|&m| m as f64 * 1e-3).collect())
            })
            .collect();
        let alloc = place_threads_on(&speeds, SLOT, &users);
        let min_speed = speeds.iter().copied().fold(f64::INFINITY, f64::min);
        let largest = users
            .iter()
            .flat_map(|u| u.thread_secs.iter())
            .fold(0.0f64, |a, &b| a.max(b));
        let worst = alloc.worst_finish_secs(&speeds);
        // Spills land on the core minimizing post-placement finish
        // time, which is never later than placing on the least-loaded
        // core: that core's pre-placement finish is at most the
        // speed-weighted mean — max(slot, total work / platform
        // effective capacity) — so one stretched thread on the slowest
        // core still bounds the overshoot.
        let total: f64 = users.iter().map(UserDemand::total_secs).sum();
        let capacity: f64 = speeds.iter().sum();
        let floor = (total / capacity).max(SLOT);
        prop_assert!(
            worst <= floor + largest / min_speed + 1e-9,
            "normalized overload unbounded: worst finish {} for slot {} \
             (floor {}, largest {}, min speed {})",
            worst,
            SLOT,
            floor,
            largest,
            min_speed
        );
        // When demand fits the recruited candidates, no core may
        // finish later than the slot plus one spilled thread.
        if total / capacity <= SLOT {
            prop_assert!(worst <= SLOT + largest / min_speed + 1e-9);
        }
    }

    /// Fast cores are never idle while slower cores are overloaded:
    /// candidates are recruited fastest-first and spill targets the
    /// core with the smallest post-placement finish time.
    #[test]
    fn prop_hetero_fast_cores_never_idle_under_slow_overload(
        speed_idx in proptest::collection::vec(0u32..5, 2..10),
        thread_ms in proptest::collection::vec(
            proptest::collection::vec(1u32..60, 1..8),
            1..6,
        ),
    ) {
        let speeds = speeds_from(&speed_idx);
        let users: Vec<UserDemand> = thread_ms
            .iter()
            .enumerate()
            .map(|(u, ms)| {
                UserDemand::new(u, ms.iter().map(|&m| m as f64 * 1e-3).collect())
            })
            .collect();
        let alloc = place_threads_on(&speeds, SLOT, &users);
        let finish = alloc.finish_times(&speeds);
        for (i, (&fi, &si)) in finish.iter().zip(&speeds).enumerate() {
            if fi <= SLOT + 1e-9 {
                continue; // not overloaded
            }
            for (j, (&fj, &sj)) in finish.iter().zip(&speeds).enumerate() {
                prop_assert!(
                    !(fj == 0.0 && sj > si + 1e-12),
                    "core {} (speed {}) overloaded to {} while faster core {} \
                     (speed {}) sits idle; loads {:?}",
                    i, si, fi, j, sj, alloc.core_loads
                );
            }
        }
    }
}
