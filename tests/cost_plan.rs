//! Serving-side cost tests: conservation, parity and the spend audit.
//!
//! The degrade-on-evict path re-enters evicted users into the request
//! queue one deadline class lower, which makes user accounting easy to
//! get subtly wrong (lost users, duplicated admissions, queue-order
//! corruption). These tests pin it down:
//!
//! * **conservation** — replaying the decision stream as a per-user
//!   state machine proves every user is in exactly one legal state at
//!   every step (a `Downgrade` may only follow that user's `Evict`, an
//!   `Admit` requires the user to be queued — catching duplication and
//!   loss), bounded by the deadline ladder's depth, and that the final
//!   census reconciles with the report's counters.
//! * **parity** — under every cost plan (unlimited, budgeted,
//!   budgeted and degrading), with GOPs aligned
//!   to the one-second window or not, the controller replays the
//!   executable specification (`common::spec`) bit for bit, and a
//!   budgeted + degrading run replays the same decision stream on
//!   analytical and thread-pool shards.
//! * **spend audit** — `replay_cost` equals the specification's own
//!   per-boundary ledger on every parity draw, and a budgeted,
//!   degrading sweep's totals match recorded literals bit for bit.
//!
//! The vendored proptest runner neither shrinks nor prints a failing
//! input, so every property assertion names its whole draw.

use medvt::admission::{
    replay_cost, serve_online, synthesize_trace, AdmissionEvent, CostPlan, EventKind, OnlineConfig,
    TraceConfig, UserRequest,
};
use medvt::core::VideoProfile;
use medvt::mpsoc::{FrequencySet, Platform, PowerModel};
use medvt::runtime::{SimBackend, ThreadPoolBackend};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};

mod common;
use common::spec::{ledger_bits, serve_spec};
use common::{live_online_config, synthetic_profile as profile};

const HORIZON: usize = 144;

/// (fps, slots per GOP): GOPs aligned with the one-second window, then
/// 5-slot GOPs in a 24-slot window and 8-slot GOPs in a 30-slot one.
const FPS_GOPS: [(f64, usize); 3] = [(24.0, 8), (24.0, 5), (30.0, 8)];

/// The three cost plans, named: unlimited, a `budget` of credits per
/// window at one credit per core, and the same budget degrading
/// evicted users.
fn plans(budget: f64) -> [(&'static str, CostPlan); 3] {
    let budgeted = CostPlan {
        credits_per_core_window: 1.0,
        budget_credits_per_window: budget,
        degrade_on_evict: false,
    };
    [
        ("unlimited", CostPlan::unlimited()),
        ("budgeted", budgeted),
        (
            "degrading",
            CostPlan {
                degrade_on_evict: true,
                ..budgeted
            },
        ),
    ]
}

/// Admissions of users who were downgraded earlier in `events`.
fn readmissions(events: &[AdmissionEvent]) -> usize {
    let mut downgraded = BTreeSet::new();
    let mut count = 0;
    for e in events {
        match e.kind {
            EventKind::Downgrade => {
                downgraded.insert(e.user);
            }
            EventKind::Admit if downgraded.contains(&e.user) => count += 1,
            _ => {}
        }
    }
    count
}

/// Readmissions of downgraded users summed over every parity draw.
static PARITY_READMISSIONS: AtomicUsize = AtomicUsize::new(0);

/// 1 / 2 / 3 admission cores at 1.15 headroom; under a lying 0.6
/// headroom the same tiles overcommit shards and force evictions.
fn tier_profiles() -> Vec<VideoProfile> {
    let unit = (1.0 / 24.0) * 0.25 / 1.15;
    vec![
        profile("prov-light", "brain", 4, unit),
        profile("prov-standard", "spine", 8, unit),
        profile("prov-heavy", "cardiac", 12, unit),
    ]
}

fn bl_shards() -> Vec<SimBackend> {
    let bl = Platform::big_little();
    (0..2)
        .map(|s| SimBackend::new(bl.socket_view(s), PowerModel::default()))
        .collect()
}

fn trace_for(arrivals: f64, seed: u64) -> Vec<UserRequest> {
    synthesize_trace(&TraceConfig {
        horizon_slots: HORIZON,
        arrivals_per_slot: arrivals,
        min_session_slots: 24,
        tail_alpha: 1.5,
        profiles: 3,
        seed,
    })
}

/// Per-user lifecycle derived from the decision stream.
#[derive(Debug, Clone, Copy, PartialEq)]
enum UserState {
    Queued,
    Active,
    Evicted,
    Terminal,
}

/// Replays `events` as a per-user state machine, panicking on any
/// illegal transition, and returns the final state census plus the
/// per-user downgrade counts.
fn replay_states(
    trace: &[UserRequest],
    horizon: usize,
    events: &[AdmissionEvent],
) -> (BTreeMap<usize, UserState>, BTreeMap<usize, usize>) {
    let mut state: BTreeMap<usize, UserState> = trace
        .iter()
        .filter(|r| r.arrival_slot < horizon)
        .map(|r| (r.user, UserState::Queued))
        .collect();
    let mut downgrades: BTreeMap<usize, usize> = BTreeMap::new();
    for e in events {
        let s = state
            .get_mut(&e.user)
            .unwrap_or_else(|| panic!("event for user {} outside the horizon's trace", e.user));
        *s = match (e.kind, *s) {
            (EventKind::Admit, UserState::Queued) => UserState::Active,
            (EventKind::Depart, UserState::Active) => UserState::Terminal,
            (EventKind::Evict, UserState::Active) => UserState::Evicted,
            (EventKind::Downgrade, UserState::Evicted) => {
                *downgrades.entry(e.user).or_insert(0) += 1;
                UserState::Queued
            }
            (EventKind::Abandon, UserState::Queued) | (EventKind::Reject, UserState::Queued) => {
                UserState::Terminal
            }
            (kind, from) => panic!(
                "illegal transition for user {} at slot {}: {kind:?} from {from:?}",
                e.user, e.slot
            ),
        };
    }
    (state, downgrades)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every user the controller ever touches is in exactly one legal
    /// lifecycle state, never lost and never duplicated, even while
    /// budget-constrained admission and eviction-degradation churn the
    /// queue, with GOPs aligned to windows or not; and the final census
    /// reconciles with the report.
    #[test]
    fn degrading_controller_conserves_users(
        arrivals in 0.3f64..1.4,
        seed in 0u64..400,
        budget in 3.0f64..15.0,
    ) {
        let tiers = tier_profiles();
        let trace = trace_for(arrivals, seed);
        prop_assume!(!trace.is_empty());
        for (fps, gop_slots) in FPS_GOPS {
            let cfg = OnlineConfig {
                fps,
                gop_slots,
                horizon_slots: HORIZON,
                headroom: 0.6, // overcommit: evictions and downgrades happen
                cost: CostPlan {
                    credits_per_core_window: 1.0,
                    budget_credits_per_window: budget,
                    degrade_on_evict: true,
                },
                ..Default::default()
            };
            let draw = format!(
                "LeastLoaded, degrading plan at budget {budget}, fps {fps}, \
                 gop_slots {gop_slots}, arrivals {arrivals}, seed {seed}"
            );
            let report = serve_online(&cfg, &tiers, &trace, bl_shards());
            let (census, downgrades) = replay_states(&trace, HORIZON, &report.events);

            // The ladder has exactly two downward steps below Strict.
            for (&user, &n) in &downgrades {
                prop_assert!(n <= 2, "{draw}: user {user} downgraded {n} times");
            }

            // Census vs report counters.
            let count = |want: UserState| census.values().filter(|&&s| s == want).count();
            prop_assert_eq!(count(UserState::Active), report.active_at_end, "{}", draw);
            prop_assert_eq!(count(UserState::Queued), report.queued_at_end, "{}", draw);
            let total_downgrades: usize = downgrades.values().sum();
            // Dropped-for-good users sit in Evicted: every eviction
            // either degraded back into the queue or ended the session.
            prop_assert_eq!(
                count(UserState::Evicted),
                report.evictions - total_downgrades,
                "{}",
                draw
            );
            // Queue flow conservation: pushes (arrivals + re-entries) =
            // pops (admissions + abandons + rejects) + still queued.
            prop_assert_eq!(
                report.arrivals + total_downgrades,
                report.admissions + report.abandoned + report.rejected + report.queued_at_end,
                "{}",
                draw
            );
            // Active flow conservation.
            prop_assert_eq!(
                report.admissions,
                report.departures + report.evictions + report.active_at_end,
                "{}",
                draw
            );
            // The replayed spend trajectory respects the budget window
            // by window — the controller's own ledger, audited from
            // outside.
            let cost = replay_cost(&cfg, &tiers, &trace, &report);
            prop_assert!(
                cost.within_budget,
                "{draw}: peak window spend {} over budget {budget}",
                cost.peak_window_credits
            );
            prop_assert_eq!(cost.downgrades, total_downgrades, "{}", draw);
        }
    }

    /// The draws of `every_cost_plan_replays_the_spec`: the controller
    /// and the specification on one random trace under every cost plan
    /// and (fps, GOP) pair, at a drawn headroom that ranges from
    /// overcommitted (evictions, downgrades) to honest.
    fn parity_draws(
        arrivals in 0.3f64..1.4,
        seed in 0u64..400,
        budget in 3.0f64..15.0,
        headroom in 0.6f64..1.2,
    ) {
        let tiers = tier_profiles();
        let trace = trace_for(arrivals, seed);
        for (plan, cost) in plans(budget) {
            for (fps, gop_slots) in FPS_GOPS {
                let cfg = OnlineConfig {
                    fps,
                    gop_slots,
                    horizon_slots: HORIZON,
                    headroom,
                    cost,
                    ..Default::default()
                };
                let draw = format!(
                    "{plan} plan at budget {budget}, fps {fps}, \
                     gop_slots {gop_slots}, headroom {headroom}, arrivals {arrivals}, \
                     seed {seed}"
                );
                let fast = serve_online(&cfg, &tiers, &trace, bl_shards());
                let spec = serve_spec(&cfg, &tiers, &trace, bl_shards());
                prop_assert_eq!(&fast.events, &spec.report.events, "{}", draw);
                prop_assert_eq!(&fast.modeled_only(), &spec.report, "{}", draw);
                prop_assert_eq!(
                    ledger_bits(&replay_cost(&cfg, &tiers, &trace, &fast)),
                    ledger_bits(&spec.ledger),
                    "{}: spend ledger",
                    draw
                );
                PARITY_READMISSIONS
                    .fetch_add(readmissions(&spec.report.events), Ordering::Relaxed);
            }
        }
    }
}

/// The controller replays the executable specification bit for bit —
/// events, the whole modeled report (decision, boundary and replan
/// counters included) and the spend ledger `replay_cost` audits — on
/// 24 random traces under every cost plan and (fps, GOP) pair. Some
/// downgraded user must be re-admitted somewhere among the
/// draws, so the degrading path is not vacuous.
#[test]
fn every_cost_plan_replays_the_spec() {
    parity_draws();
    assert!(PARITY_READMISSIONS.load(Ordering::Relaxed) > 0);
}

/// A budgeted, degrading run makes identical decisions on analytical
/// and thread-pool shards: the cost ledger reads only backend-shared
/// accounting.
#[test]
fn budgeted_degrading_decisions_are_backend_independent() {
    let tiers = tier_profiles();
    let trace = trace_for(0.9, 42);
    let cfg = OnlineConfig {
        horizon_slots: HORIZON,
        headroom: 0.6,
        cost: CostPlan {
            credits_per_core_window: 1.0,
            budget_credits_per_window: 6.0,
            degrade_on_evict: true,
        },
        ..Default::default()
    };
    let bl = Platform::big_little();
    let sim: Vec<SimBackend> = (0..2)
        .map(|s| SimBackend::new(bl.socket_view(s), PowerModel::default()))
        .collect();
    let pool: Vec<ThreadPoolBackend> = (0..2)
        .map(|s| ThreadPoolBackend::with_workers(bl.socket_view(s), PowerModel::default(), 2))
        .collect();
    let a = serve_online(&cfg, &tiers, &trace, sim);
    let b = serve_online(&cfg, &tiers, &trace, pool);
    assert_eq!(a.events, b.events, "budgeted decision streams diverged");
    assert!(
        a.events.iter().any(|e| e.kind == EventKind::Downgrade),
        "the scenario must exercise degradation"
    );
    assert!(
        a.events.iter().any(|e| e.kind == EventKind::Evict),
        "the scenario must exercise eviction"
    );
}

const SWEEP_HORIZON: usize = 192;

/// An overload trace: arrivals far above the service rate,
/// heavy-tailed sessions.
fn sweep_trace() -> Vec<UserRequest> {
    synthesize_trace(&TraceConfig {
        horizon_slots: SWEEP_HORIZON,
        arrivals_per_slot: 0.8,
        min_session_slots: 96,
        tail_alpha: 1.5,
        profiles: 3,
        seed: 77,
    })
}

/// A budgeted, degrading run on six Xeon sockets over the seed-77
/// sweep: the replayed ledger's totals against recorded literals. The
/// padded-demand arithmetic and the ledger may be restructured, but
/// no credit or float bit may move.
#[test]
fn replay_cost_matches_recorded_goldens() {
    let tiers = tier_profiles();
    let trace = sweep_trace();
    let cfg = live_online_config(SWEEP_HORIZON);
    let budgeted = OnlineConfig {
        headroom: 0.6,
        cost: CostPlan {
            credits_per_core_window: 1.0,
            budget_credits_per_window: 6.0,
            degrade_on_evict: true,
        },
        ..cfg
    };
    let socket = Platform::new(
        "Xeon E5-2667 socket",
        1,
        8,
        FrequencySet::xeon_e5_2667(),
        10e-6,
    );
    let shards = vec![SimBackend::new(socket, PowerModel::default()); 6];
    let report = serve_online(&budgeted, &tiers, &trace, shards.clone());
    let cost = replay_cost(&budgeted, &tiers, &trace, &report);
    let spec = serve_spec(&budgeted, &tiers, &trace, shards).ledger;
    assert_eq!(ledger_bits(&spec), ledger_bits(&cost), "the spec's ledger");
    assert_eq!(cost.windows, 24);
    assert_eq!(cost.downgrades, 3);
    assert!(cost.within_budget);
    // 129.913… and 5.739… credits.
    assert_eq!(
        cost.total_credits.to_bits(),
        0x4060_3d37_a6f4_de9c,
        "{cost:?}"
    );
    assert_eq!(
        cost.peak_window_credits.to_bits(),
        0x4016_f4de_9bd3_7a6f,
        "{cost:?}"
    );
}
