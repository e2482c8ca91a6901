//! Integration tests for the online admission-control subsystem:
//! backend-independent decision streams and shard-policy behaviour on
//! the paper's 4-socket Xeon model.

use medvt::admission::{
    serve_online, synthesize_trace, EventKind, OnlineConfig, OnlineReport, ShardPolicy,
    TraceConfig, UserRequest,
};
use medvt::core::{ServerConfig, ServerSim, VideoProfile};
use medvt::mpsoc::{Platform, PowerModel};
use medvt::runtime::{SimBackend, ThreadPoolBackend};

mod common;
use common::synthetic_profile as profile;

const SLOT: f64 = 1.0 / 24.0;

/// Headroom used by `ServerConfig::default` — tile sizes below are
/// chosen so padded tiles are exactly a quarter slot and pack cleanly.
const HEADROOM: f64 = 1.15;

/// Per-tile cost whose headroom-padded size divides the slot exactly
/// (4 per core): packing never overloads, so both shard policies run
/// at a perfect on-time rate and differ only in admission throughput.
const UNIT: f64 = SLOT * 0.25 / HEADROOM;

/// A light/heavy user mix on the paper's evaluation server: light
/// users need 0.5 cores, heavy ones 2.5 (headroom included).
fn mixed_profiles() -> Vec<VideoProfile> {
    vec![
        profile("light", "brain", 2, UNIT),
        profile("heavy", "cardiac", 10, UNIT),
    ]
}

fn xeon_sim() -> ServerSim {
    ServerSim::new(ServerConfig::default())
}

/// Serves `trace` online on the paper's 4-socket Xeon, one analytical
/// shard per socket, over `horizon_slots` under `shard_policy`.
fn serve_on_xeon_sockets(
    profiles: &[VideoProfile],
    trace: &[UserRequest],
    horizon_slots: usize,
    shard_policy: ShardPolicy,
) -> OnlineReport {
    let platform = Platform::xeon_e5_2667_quad();
    let shards: Vec<SimBackend> = (0..platform.sockets)
        .map(|s| SimBackend::new(platform.socket_view(s), PowerModel::default()))
        .collect();
    let cfg = OnlineConfig {
        horizon_slots,
        shard_policy,
        ..OnlineConfig::default()
    };
    serve_online(&cfg, profiles, trace, shards)
}

fn trace() -> Vec<UserRequest> {
    synthesize_trace(&TraceConfig {
        horizon_slots: 192,
        arrivals_per_slot: 0.5,
        min_session_slots: 48,
        tail_alpha: 1.4,
        profiles: 2,
        seed: 42,
    })
}

#[test]
fn sim_and_pool_backends_replay_identical_decisions() {
    let profiles = mixed_profiles();
    let requests = trace();
    let analytical = serve_on_xeon_sockets(&profiles, &requests, 192, ShardPolicy::LeastLoaded);
    let platform = Platform::xeon_e5_2667_quad();
    let shards: Vec<ThreadPoolBackend> = (0..platform.sockets)
        .map(|s| ThreadPoolBackend::with_workers(platform.socket_view(s), PowerModel::default(), 2))
        .collect();
    let online = OnlineConfig {
        horizon_slots: 192,
        shard_policy: ShardPolicy::LeastLoaded,
        ..OnlineConfig::default()
    };
    let real = serve_online(&online, &profiles, &requests, shards);
    // Decisions depend only on the analytical model: the event streams
    // and window accounting must be identical, not merely similar.
    assert_eq!(analytical.events, real.events);
    assert_eq!(analytical.windows, real.windows);
    assert_eq!(analytical.window_misses, real.window_misses);
    // Wall-clock controller timings legitimately differ between the
    // backends; everything modeled must agree bit for bit.
    assert_eq!(
        analytical.modeled_only(),
        real.modeled_only(),
        "full online reports must agree"
    );
    assert!(
        analytical.admissions > 0,
        "the trace must exercise admission"
    );
    assert!(
        analytical
            .events
            .iter()
            .any(|e| e.kind == EventKind::Depart),
        "the trace must exercise departures"
    );
}

#[test]
fn least_loaded_sustains_more_users_than_round_robin_at_equal_on_time_rate() {
    let profiles = mixed_profiles();
    let requests = trace();
    let ll = serve_on_xeon_sockets(&profiles, &requests, 192, ShardPolicy::LeastLoaded);
    let rr = serve_on_xeon_sockets(&profiles, &requests, 192, ShardPolicy::RoundRobin);
    // Admission headroom keeps both runs feasible: identical (perfect)
    // on-time rates…
    assert!(ll.windows > 0 && rr.windows > 0);
    assert!((ll.on_time_rate() - rr.on_time_rate()).abs() < 1e-12);
    assert_eq!(ll.window_misses, 0);
    // …but blind rotation leaves capacity stranded whenever its
    // designated shard is full, so it sustains strictly fewer
    // concurrent users than least-loaded packing.
    assert!(
        ll.avg_concurrent_users > rr.avg_concurrent_users,
        "least-loaded {:.2} must beat round-robin {:.2}",
        ll.avg_concurrent_users,
        rr.avg_concurrent_users
    );
}

#[test]
fn content_affinity_keeps_classes_on_their_home_socket() {
    let profiles = mixed_profiles();
    let requests = trace();
    let report = serve_on_xeon_sockets(&profiles, &requests, 192, ShardPolicy::ContentAffinity);
    assert!(report.admissions > 0);
    // Affinity is a preference, not a cage: every admission lands on a
    // real socket and the run stays feasible.
    assert!(report
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Admit)
        .all(|e| e.shard.is_some_and(|s| s < 4)));
}

#[test]
fn online_and_batch_serving_agree_on_capacity_order() {
    // The online path must not admit more steady-state users than the
    // batch admission bound for the same profile set.
    let profiles = vec![profile("light", "brain", 4, SLOT / 8.0)];
    let sim = xeon_sim();
    let batch = sim.serve_max(&profiles, medvt::core::Approach::Proposed);
    // Saturating arrivals: far more than capacity, nobody departs.
    let requests: Vec<UserRequest> = (0..120)
        .map(|u| UserRequest {
            user: u,
            arrival_slot: 0,
            profile: 0,
            class: medvt::admission::DeadlineClass::Standard,
            departure_slot: None,
        })
        .collect();
    let online = serve_on_xeon_sockets(&profiles, &requests, 96, ShardPolicy::LeastLoaded);
    assert!(online.peak_concurrent_users > 0);
    assert!(
        online.peak_concurrent_users <= batch.users_served,
        "online peak {} cannot exceed the batch capacity {}",
        online.peak_concurrent_users,
        batch.users_served
    );
    // Sharding costs at most the per-socket rounding: within 4 users
    // (one per socket boundary) of the monolithic bound.
    assert!(
        online.peak_concurrent_users + 4 >= batch.users_served,
        "online peak {} too far below batch capacity {}",
        online.peak_concurrent_users,
        batch.users_served
    );
}
