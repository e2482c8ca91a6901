//! Control-plane regression tests: the optimized GOP-boundary
//! controller must replay the frozen pre-refactor baseline's decision
//! stream bit for bit, cost-constrained and degrading runs — which the
//! cost-oblivious baseline cannot replay — must match recorded goldens,
//! and batch admission must account for core speeds on heterogeneous
//! platforms.

use medvt::admission::{
    serve_online, serve_online_reference, synthesize_trace, CostPlan, EventKind, OnlineConfig,
    ShardPolicy, TraceConfig,
};
use medvt::core::{Approach, ServerConfig, ServerSim};
use medvt::mpsoc::{DvfsPolicy, Platform, PowerModel};
use medvt::runtime::SimBackend;

mod common;
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
    for policy in [
        ShardPolicy::LeastLoaded,
        ShardPolicy::RoundRobin,
        ShardPolicy::ContentAffinity,
    ] {
        let cfg = OnlineConfig {
            horizon_slots: 192,
            shard_policy: policy,
            ..Default::default()
        };
        let fast = serve_online(&cfg, &profiles, &trace, xeon_shards());
        let slow = serve_online_reference(&cfg, &profiles, &trace, xeon_shards());
        assert_eq!(
            fast.events, slow.events,
            "{policy:?}: decision streams must be bit-identical"
        );
        // Strip the controller cost block entirely: wall times differ
        // by construction and the fast path legitimately skips no-op
        // replans, while everything decision-visible must match.
        let strip = |report: &medvt::admission::OnlineReport| {
            let mut r = report.clone();
            r.controller = medvt::runtime::ControllerTiming::default();
            r
        };
        assert_eq!(
            strip(&fast),
            strip(&slow),
            "{policy:?}: modeled reports must be bit-identical"
        );
        assert!(
            fast.controller.replans <= slow.controller.replans,
            "{policy:?}: the fast path must not replan more often"
        );
        // The counters the throughput metric divides by must agree —
        // otherwise "decisions per second" compares different work.
        assert_eq!(fast.controller.decisions, slow.controller.decisions);
        assert_eq!(fast.controller.boundaries, slow.controller.boundaries);
        assert!(
            fast.events.iter().any(|e| e.kind == EventKind::Admit),
            "{policy:?}: trace must exercise admission"
        );
        assert!(
            fast.events.iter().any(|e| e.kind == EventKind::Abandon),
            "{policy:?}: a saturating trace must exercise abandons"
        );
        assert!(
            fast.events.iter().any(|e| e.kind == EventKind::Depart),
            "{policy:?}: trace must exercise departures"
        );
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

/// `report_hash` of every (shard policy, cost plan, fleet) cell, in
/// loop order: policy outermost, then plan, then fleet. Recorded from
/// the controller as it stood before it was restructured into phases;
/// regenerate with `MEDVT_PRINT_HASHES=1` only for an intended change
/// of decisions.
const GOLDEN_REPORT_HASHES: [u64; 18] = [
    0x86e6ccbde09deb74,
    0x0652963bd915d328,
    0xa78ba915190dd143,
    0x0c57f49ff6e51247,
    0x78fd3f1bbe082aae,
    0x470d51bfeb2ac86f,
    0xba163cb67de1128a,
    0xcd647770242a6ed2,
    0xe359f5d7bb4aa1f8,
    0x63d542320e436377,
    0x291d636f89c03c2b,
    0xfaa9a2483934caee,
    0x4ef5d59e7a7871c8,
    0xc0bcf4b3d4b33e02,
    0x4f1f9f578cb9ee84,
    0xafbc9161774b88e0,
    0x64c308bf1e0a409d,
    0x619bc7fb58c82692,
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
    for policy in [
        ShardPolicy::LeastLoaded,
        ShardPolicy::RoundRobin,
        ShardPolicy::ContentAffinity,
    ] {
        // Budgets sit at three quarters of each fleet's capacity.
        for (unlimited, degrade) in [(true, false), (false, false), (false, true)] {
            for (fleet, budget) in [(xeon_shards(), 24.0), (hetero_shards(), 8.7)] {
                let cfg = OnlineConfig {
                    horizon_slots: 192,
                    headroom: 0.6,
                    shard_policy: policy,
                    cost: plan(if unlimited { f64::INFINITY } else { budget }, degrade),
                    ..Default::default()
                };
                let report = serve_online(&cfg, &profiles, &trace, fleet);
                let cell = format!(
                    "{policy:?}, budget {}, degrade {degrade}",
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
            }
        }
    }
    if std::env::var("MEDVT_PRINT_HASHES").is_ok() {
        for h in &hashes {
            println!("    {h:#018x},");
        }
    }
    assert_eq!(hashes, GOLDEN_REPORT_HASHES);
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
