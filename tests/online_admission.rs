//! Integration tests for the online admission-control subsystem:
//! backend-independent decision streams and capacity bounds on the
//! paper's 4-socket Xeon model.

use medvt::admission::{
    serve_online, synthesize_trace, EventKind, OnlineConfig, OnlineReport, TraceConfig, UserRequest,
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
/// (4 per core): packing never overloads.
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
/// shard per socket, over `horizon_slots`.
fn serve_on_xeon_sockets(
    profiles: &[VideoProfile],
    trace: &[UserRequest],
    horizon_slots: usize,
) -> OnlineReport {
    let platform = Platform::xeon_e5_2667_quad();
    let shards: Vec<SimBackend> = (0..platform.sockets)
        .map(|s| SimBackend::new(platform.socket_view(s), PowerModel::default()))
        .collect();
    let cfg = OnlineConfig {
        horizon_slots,
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
    let analytical = serve_on_xeon_sockets(&profiles, &requests, 192);
    let platform = Platform::xeon_e5_2667_quad();
    let shards: Vec<ThreadPoolBackend> = (0..platform.sockets)
        .map(|s| ThreadPoolBackend::with_workers(platform.socket_view(s), PowerModel::default(), 2))
        .collect();
    let online = OnlineConfig {
        horizon_slots: 192,
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
    let online = serve_on_xeon_sockets(&profiles, &requests, 96);
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
