//! Control-plane regression tests: the GOP-boundary controller must
//! replay the executable specification (`common::spec`) bit for bit,
//! its tracked shard chooser must pick as the specification's stateless
//! one does, cost-constrained and degrading runs must match recorded
//! goldens, and batch admission must account for core speeds on
//! heterogeneous platforms.

use medvt::admission::{
    serve_online, synthesize_trace, CostPlan, DeadlineClass, EventKind, OnlineConfig, Sharder,
    TraceConfig, UserRequest, Workload,
};
use medvt::core::{Approach, ServerConfig, ServerSim};
use medvt::mpsoc::{DvfsPolicy, Platform, PowerModel};
use medvt::runtime::SimBackend;

mod common;
use common::spec::{least_utilized, serve_spec};
use common::synthetic_profile as profile;

const SLOT: f64 = 1.0 / 24.0;
const HEADROOM: f64 = 1.15;

/// A light/heavy mix on the paper's 4-socket Xeon: light users take
/// half a core, heavy ones 2.5 cores (headroom included).
fn mixed_profiles() -> Vec<medvt::core::VideoProfile> {
    let unit = SLOT * 0.25 / HEADROOM;
    vec![
        profile("light", "brain", 2, unit),
        profile("heavy", "cardiac", 10, unit),
    ]
}

fn xeon_shards() -> Vec<SimBackend> {
    let platform = Platform::xeon_e5_2667_quad();
    (0..platform.sockets)
        .map(|s| SimBackend::new(platform.socket_view(s), PowerModel::default()))
        .collect()
}

/// A saturating trace: more demand than the fleet can hold, so the
/// controller exercises admits, waits, departures, and queue abandons.
fn saturating_trace() -> Vec<medvt::admission::UserRequest> {
    synthesize_trace(&TraceConfig {
        horizon_slots: 192,
        arrivals_per_slot: 2.0,
        min_session_slots: 48,
        tail_alpha: 1.4,
        profiles: 2,
        seed: 7,
    })
}

#[test]
fn optimized_controller_replays_the_reference_decision_stream() {
    let profiles = mixed_profiles();
    let trace = saturating_trace();
    let cfg = OnlineConfig {
        horizon_slots: 192,
        ..Default::default()
    };
    let fast = serve_online(&cfg, &profiles, &trace, xeon_shards());
    let spec = serve_spec(&cfg, &profiles, &trace, xeon_shards()).report;
    assert_eq!(
        fast.events, spec.events,
        "decision streams must be bit-identical"
    );
    // Only the wall-clock timings may differ: the decision, boundary
    // and replan counters, every tally and the per-shard accounting
    // must match.
    assert_eq!(
        fast.modeled_only(),
        spec,
        "modeled reports must be bit-identical"
    );
    for kind in [EventKind::Admit, EventKind::Abandon, EventKind::Depart] {
        assert!(
            fast.events.iter().any(|e| e.kind == kind),
            "a saturating trace must exercise {kind:?}"
        );
    }
}

/// Flat or lying synthetic workloads on quad-core shards: the fixture
/// that drives every decision kind through one short trace.
mod every_kind {
    use super::*;

    const SLOT: f64 = 1.0 / 24.0;

    /// `tiles` tiles of `secs` each, every slot; `lying` workloads
    /// report a quarter-slot per tile at admission but need a slot and
    /// a half, so they miss every window once admitted.
    pub(super) struct Mix {
        tiles: usize,
        secs: f64,
        lying: bool,
    }

    impl Workload for Mix {
        fn steady_demand(&self) -> Vec<f64> {
            if self.lying {
                vec![SLOT / 4.0; self.tiles]
            } else {
                vec![self.secs; self.tiles]
            }
        }
        fn demand_at(&self, _slot: usize) -> Vec<f64> {
            vec![self.secs; self.tiles]
        }
        fn steady(&self) -> bool {
            // The lying workload is slot-invariant too, but stays on
            // the re-estimated path so both refresh modes run.
            !self.lying
        }
    }

    /// Busy (~1.92 admission cores: two fit a quad shard), light,
    /// huge (fits no quad shard) and lying (claims one core, needs
    /// six).
    pub(super) fn workloads() -> [Mix; 4] {
        let flat = |tiles, secs| Mix {
            tiles,
            secs,
            lying: false,
        };
        [
            flat(2, SLOT / 24.0 * 20.0),
            flat(1, SLOT / 8.0),
            flat(8, SLOT),
            Mix {
                tiles: 4,
                secs: SLOT * 1.5,
                lying: true,
            },
        ]
    }

    pub(super) fn trace() -> Vec<UserRequest> {
        let request = |user, arrival_slot, profile, departure_slot| UserRequest {
            user,
            arrival_slot,
            profile,
            class: DeadlineClass::Standard,
            departure_slot,
        };
        let mut trace = vec![
            request(0, 0, 0, Some(48)), // busy, departs while active
            request(1, 0, 0, None),     // busy
            request(2, 1, 0, None),     // busy — waits behind the first two
            request(3, 2, 1, Some(20)), // light, may abandon
            request(8, 1, 0, Some(5)),  // busy, gone before its first boundary
            request(4, 9, 2, None),     // huge → rejected
            UserRequest {
                class: DeadlineClass::Strict,
                ..request(5, 9, 3, None)
            }, // lying → evicted
            request(6, 30, 1, None),    // light, late
            request(7, 60, 0, Some(70)), // busy, abandons if stuck
        ];
        trace.sort_by_key(|r| r.arrival_slot);
        trace
    }

    pub(super) fn quad_shards() -> Vec<SimBackend> {
        (0..2)
            .map(|_| SimBackend::new(Platform::quad_core(), PowerModel::default()))
            .collect()
    }
}

#[test]
fn every_decision_kind_replays_the_spec() {
    // Admits, waits, voluntary departures, queue abandons, outright
    // rejects, and the eviction of a lying, non-steady workload —
    // degraded back into the queue when the plan says so.
    let workloads = every_kind::workloads();
    let trace = every_kind::trace();
    for degrade_on_evict in [false, true] {
        let cfg = OnlineConfig {
            horizon_slots: 120,
            cost: CostPlan {
                degrade_on_evict,
                ..CostPlan::unlimited()
            },
            ..Default::default()
        };
        let cell = format!("degrade {degrade_on_evict}");
        let fast = serve_online(&cfg, &workloads, &trace, every_kind::quad_shards());
        let spec = serve_spec(&cfg, &workloads, &trace, every_kind::quad_shards()).report;
        assert_eq!(fast.events, spec.events, "{cell}: decision stream");
        assert_eq!(fast.modeled_only(), spec, "{cell}: report");
        for kind in [
            EventKind::Admit,
            EventKind::Evict,
            EventKind::Reject,
            EventKind::Depart,
            EventKind::Abandon,
        ] {
            assert!(
                spec.events.iter().any(|e| e.kind == kind),
                "{cell} must exercise {kind:?}"
            );
        }
        assert_eq!(
            spec.events.iter().any(|e| e.kind == EventKind::Downgrade),
            degrade_on_evict,
            "{cell}: downgrades happen exactly when degrading"
        );
    }
}

#[test]
fn attached_picks_match_stateless_picks() {
    // Replay one admit/release trace through the tracked chooser and
    // the spec's stateless one: decisions must be identical call for
    // call.
    let caps = vec![8.0, 2.0, 5.8, 8.0];
    // (demand, optional (shard, demand) released beforehand).
    type Step = (f64, Option<(usize, f64)>);
    let trace: [Step; 8] = [
        (1.0, None),
        (2.5, None),
        (1.0, Some((0, 1.0))),
        (6.0, None),
        (0.5, Some((2, 0.5))),
        (3.0, None),
        (9.0, None), // fits nowhere
        (1.5, None),
    ];
    let mut tracked = Sharder::new(caps.clone());
    let mut loads = vec![0.0f64; caps.len()];
    for &(demand, release) in &trace {
        if let Some((shard, d)) = release {
            loads[shard] -= d;
            tracked.release_load(shard, d);
        }
        let a = least_utilized(&loads, &caps, demand);
        let b = tracked.pick(demand);
        assert_eq!(a, b, "diverged on demand {demand}");
        assert_eq!(tracked.any_fits(demand), a.is_some());
        if let Some(shard) = a {
            loads[shard] += demand;
            tracked.admit_load(shard, demand);
        }
    }
}

/// One big.LITTLE socket, one big-only and one LITTLE-only cluster:
/// three shards of three capacities (5.8 / 4.0 / 1.8 reference cores).
/// The platform names go into each `ShardReport::label`, so into the
/// report hash.
fn hetero_shards() -> Vec<SimBackend> {
    let classes = Platform::big_little().classes().to_vec();
    [
        Platform::with_classes("big.LITTLE socket", 1, classes.clone(), 50e-6),
        Platform::with_classes("big cluster", 1, vec![classes[0].clone()], 50e-6),
        Platform::with_classes("LITTLE cluster", 1, vec![classes[1].clone()], 50e-6),
    ]
    .into_iter()
    .map(|p| SimBackend::new(p, PowerModel::default()))
    .collect()
}

/// A fresh set of shards, once per controller run.
type Fleet = fn() -> Vec<SimBackend>;

/// FNV-1a of a report's `Debug` rendering with the wall-clock timings
/// zeroed: the decision log, every tally, per-shard accounting and the
/// deterministic controller counters, floats to their last digit.
fn report_hash(report: &medvt::admission::OnlineReport) -> u64 {
    format!("{:?}", report.modeled_only())
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// `report_hash` of every (cost plan, fleet) cell, in loop order: plan
/// outermost, then fleet. Recorded from the controller as it stood
/// before it was restructured into phases; regenerate with
/// `MEDVT_PRINT_HASHES=1` only for an intended change of decisions.
const GOLDEN_REPORT_HASHES: [u64; 6] = [
    0x86e6ccbde09deb74,
    0x0652963bd915d328,
    0xa78ba915190dd143,
    0x0c57f49ff6e51247,
    0x78fd3f1bbe082aae,
    0x470d51bfeb2ac86f,
];

#[test]
fn cost_plans_replay_their_recorded_decision_streams() {
    // A third of the arrivals can never fit (rejects); the rest are
    // admitted against demands padded by 0.6, so shards overcommit,
    // windows are missed and users evicted.
    let unit = SLOT * 0.25 / HEADROOM;
    let mut profiles = mixed_profiles();
    profiles.push(profile("huge", "spine", 80, unit));
    let trace = synthesize_trace(&TraceConfig {
        horizon_slots: 192,
        arrivals_per_slot: 3.0,
        min_session_slots: 48,
        tail_alpha: 1.4,
        profiles: 3,
        seed: 11,
    });
    let plan = |budget: f64, degrade_on_evict: bool| CostPlan {
        credits_per_core_window: 1.0,
        budget_credits_per_window: budget,
        degrade_on_evict,
    };
    let mut hashes = Vec::new();
    let mut spec_hashes = Vec::new();
    // Budgets sit at three quarters of each fleet's capacity.
    for (unlimited, degrade) in [(true, false), (false, false), (false, true)] {
        let fleets: [(Fleet, f64); 2] = [(xeon_shards, 24.0), (hetero_shards, 8.7)];
        for (fleet, budget) in fleets {
            let cfg = OnlineConfig {
                horizon_slots: 192,
                headroom: 0.6,
                cost: plan(if unlimited { f64::INFINITY } else { budget }, degrade),
                ..Default::default()
            };
            let report = serve_online(&cfg, &profiles, &trace, fleet());
            let cell = format!(
                "budget {}, degrade {degrade}",
                cfg.cost.budget_credits_per_window
            );
            for kind in [
                EventKind::Admit,
                EventKind::Evict,
                EventKind::Reject,
                EventKind::Depart,
                EventKind::Abandon,
            ] {
                assert!(
                    report.events.iter().any(|e| e.kind == kind),
                    "{cell}: trace must exercise {kind:?}"
                );
            }
            assert_eq!(
                report.events.iter().any(|e| e.kind == EventKind::Downgrade),
                degrade,
                "{cell}: downgrades happen exactly when degrading"
            );
            hashes.push(report_hash(&report));
            spec_hashes.push(report_hash(
                &serve_spec(&cfg, &profiles, &trace, fleet()).report,
            ));
        }
    }
    if std::env::var("MEDVT_PRINT_HASHES").is_ok() {
        for h in &hashes {
            println!("    {h:#018x},");
        }
    }
    assert_eq!(hashes, GOLDEN_REPORT_HASHES);
    assert_eq!(spec_hashes, GOLDEN_REPORT_HASHES, "the spec");
}

#[test]
fn batch_admission_respects_core_speeds_on_big_little() {
    // big.LITTLE (2 sockets): 8 big cores at speed 1.0 plus 8 LITTLE
    // at 0.45 — 11.6 effective cores, though 16 physical ones. Users
    // of two 0.45-core tiles (0.9 effective each, headroom included):
    // speed-aware admission fits 12 (10.8 <= 11.6), while a core-count
    // capacity of 16 would have admitted the whole queue. The 24
    // admitted threads exactly fill the platform — two per big core,
    // one per LITTLE — so everyone stays on time.
    let profiles = vec![profile("diag", "cardiac", 2, SLOT * 0.45 / HEADROOM)];
    let sim = ServerSim::new(ServerConfig {
        platform: Platform::big_little(),
        policy: DvfsPolicy::StretchToDeadline,
        queue_len: 16,
        ..Default::default()
    });
    let report = sim.serve_max(&profiles, Approach::Proposed);
    assert_eq!(
        report.users_served, 12,
        "admission must respect the 11.6-effective-core capacity"
    );
    // The platform runs essentially full (10.8 of 11.6 effective
    // cores), so transient carry-over is expected — but the vast
    // majority of one-second windows must still meet the framerate.
    assert!(
        report.on_time_rate() > 0.9,
        "near-full speed-aware pack must stay largely on time, got {}",
        report.on_time_rate()
    );
}
