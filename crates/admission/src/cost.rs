//! Serving-side cost: what an admitted user costs per GOP window, when
//! a budget refuses an admission, and the after-the-fact audit of both.
//!
//! [`CostPlan`] bills each admitted user its
//! [`OnlineConfig::padded_demand`] times a per-core rate, refuses an
//! admission that would push the window spend over budget, and can
//! degrade an evicted user one deadline class instead of dropping it.
//! The controller in [`serve_online`](crate::serve_online) keeps the
//! spend ledger; [`replay_cost`] re-derives the per-window spend
//! trajectory from a finished run's decision stream — bitwise equal to
//! the controller's internal ledger, so budget-respect is checkable
//! after the fact.

use crate::request::UserRequest;
use crate::serve::{EventKind, OnlineConfig, OnlineReport, Workload};
use serde::Serialize;
use std::collections::BTreeMap;

/// Cost policy of an online run: how admitted demand is billed, how
/// much the operator will spend per GOP window, and whether eviction
/// degrades users instead of dropping them.
///
/// A request is admitted only when *both* a shard fits its demand and
/// billing it keeps the window spend within budget (`spend + demand ×
/// rate ≤ budget`). The check is demand-monotone like the capacity
/// probe, so the admission scan may stop once the smallest queued
/// demand is over budget.
///
/// Under the default ([`CostPlan::unlimited`]) neither mechanism can
/// act: no spend exceeds an infinite budget and with
/// `degrade_on_evict` off the eviction path never re-queues, so
/// admission is Algorithm 2 line 1 against shard capacity alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPlan {
    /// Credits billed per admitted reference core per GOP window —
    /// the serving-side price of capacity.
    pub credits_per_core_window: f64,
    /// Spend ceiling per GOP window, in credits. `f64::INFINITY`
    /// never refuses an admission.
    pub budget_credits_per_window: f64,
    /// When `true`, an evicted user re-enters the queue at the
    /// next-lower [`DeadlineClass`](crate::DeadlineClass) (emitting
    /// [`EventKind::Downgrade`]) instead of being dropped; a
    /// best-effort eviction stays final.
    pub degrade_on_evict: bool,
}

impl CostPlan {
    /// No budget, no degradation — the cost-oblivious default: only
    /// shard capacity limits admission.
    pub const fn unlimited() -> Self {
        Self {
            credits_per_core_window: 0.0,
            budget_credits_per_window: f64::INFINITY,
            degrade_on_evict: false,
        }
    }

    /// `true` when billing `demand` more cores on top of `spend` would
    /// exceed the window budget. No spend exceeds the default infinite
    /// budget, so the ledger needs no "is a budget set" switch.
    pub(crate) fn over_budget(&self, spend: f64, demand: f64) -> bool {
        spend + demand * self.credits_per_core_window > self.budget_credits_per_window + 1e-9
    }
}

impl Default for CostPlan {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// The per-window cost trajectory replayed from a finished run's
/// decision stream.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CostReport {
    /// GOP windows billed (boundary count).
    pub windows: usize,
    /// Credits billed across all windows (spend × windows summed).
    pub total_credits: f64,
    /// Largest single-window spend.
    pub peak_window_credits: f64,
    /// `Downgrade` events in the stream.
    pub downgrades: usize,
    /// `true` when every window's spend respects the config's budget
    /// (vacuously true for unlimited plans).
    pub within_budget: bool,
}

/// Replays `report`'s decision stream against the config's
/// [`CostPlan`], re-deriving the spend ledger with the same float
/// operations in the same order as the controller — the trajectory is
/// bitwise equal, so `within_budget` is an exact after-the-fact audit
/// of budget-constrained admission.
pub fn replay_cost<W: Workload>(
    cfg: &OnlineConfig,
    workloads: &[W],
    trace: &[UserRequest],
    report: &OnlineReport,
) -> CostReport {
    let demand_of: Vec<f64> = workloads.iter().map(|w| cfg.padded_demand(w)).collect();
    let profile_of: BTreeMap<usize, usize> = trace.iter().map(|r| (r.user, r.profile)).collect();
    let rate = cfg.cost.credits_per_core_window;
    let mut spend = 0.0f64;
    let (mut windows, mut downgrades) = (0usize, 0usize);
    let (mut total, mut peak) = (0.0f64, 0.0f64);
    let mut idx = 0usize;
    let mut slot = 0usize;
    while slot < cfg.horizon_slots {
        while idx < report.events.len() && report.events[idx].slot <= slot {
            let e = &report.events[idx];
            let billed = demand_of[profile_of[&e.user]] * rate;
            match e.kind {
                EventKind::Admit => spend += billed,
                EventKind::Depart | EventKind::Evict => spend -= billed,
                EventKind::Downgrade => downgrades += 1,
                EventKind::Abandon | EventKind::Reject => {}
            }
            idx += 1;
        }
        windows += 1;
        total += spend;
        peak = peak.max(spend);
        slot += cfg.gop_slots.max(1);
    }
    let within_budget = peak <= cfg.cost.budget_credits_per_window + 1e-9;
    CostReport {
        windows,
        total_credits: total,
        peak_window_credits: peak,
        downgrades,
        within_budget,
    }
}
