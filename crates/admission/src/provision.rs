//! Cost/QoS-aware provisioning: which priced platform mix to rent for
//! a forecast load.
//!
//! The Li et al. cloud-transcoding studies (PAPERS.md) pick
//! heterogeneous VM types against a cost budget and QoS deadlines.
//! Here the "VM types" are [`ProvisionPreset`]s — platform presets
//! priced per GOP window by `medvt_mpsoc::CostModel` — and one of the
//! three [`ProvisionPolicy`] rules greedily rents instances until the
//! forecast demand is covered or the budget runs out. The rented
//! fleet becomes the shard set of [`serve_online`](crate::serve_online),
//! whose [`CostPlan`](crate::CostPlan) then enforces the *serving-side*
//! budget and degrades evicted users down the deadline ladder.
//!
//! Every rental emits a `Provisioned` telemetry event on the control
//! track, and [`replay_cost`] re-derives the per-window spend
//! trajectory from a finished run's decision stream — bitwise equal
//! to the controller's internal ledger, so budget-respect is
//! checkable after the fact.

use crate::request::UserRequest;
use crate::serve::{EventKind, OnlineConfig, OnlineReport, Workload};
use medvt_mpsoc::{CoreClass, CostModel, FrequencySet, Platform, PowerModel};
use medvt_runtime::SimBackend;
use medvt_telemetry::{Event as TelEvent, EventKind as TelKind, Recorder, CONTROL_TRACK};
use serde::Serialize;
use std::collections::BTreeMap;

/// One rentable platform preset with its per-window price tag.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvisionPreset {
    /// Catalogue key ("xeon-socket", "little-cluster", …).
    pub name: String,
    /// The platform one rented instance provides (one serving shard).
    pub platform: Platform,
    /// Default power model for classes without their own.
    pub power: PowerModel,
    /// Rental price in whole credits per GOP window.
    pub price_credits: u64,
    /// Effective capacity in reference cores
    /// ([`Platform::speed_capacity`]).
    pub capacity_cores: f64,
}

impl ProvisionPreset {
    fn new(name: &str, platform: Platform, pricing: &CostModel) -> Self {
        let power = PowerModel::default();
        let price_credits = pricing.platform_window_price(&platform, &power);
        let capacity_cores = platform.speed_capacity();
        Self {
            name: name.to_string(),
            platform,
            power,
            price_credits,
            capacity_cores,
        }
    }
}

/// The stock catalogue: one-socket slices of the repo's platform
/// presets plus an overclocked, energy-inefficient speed tier. Under
/// the default [`CostModel`] calibration the prices come out 4 / 3 /
/// 2 / 1 / 6 credits with capacities 8.0 / 5.8 / 4.0 / 1.8 / 9.6
/// reference cores — so cores-per-credit ranks xeon ≈ big over
/// big.LITTLE over LITTLE over overclocked, and the three policies
/// below genuinely diverge.
pub fn preset_catalogue(pricing: &CostModel) -> Vec<ProvisionPreset> {
    let bl = Platform::big_little();
    let classes = bl.classes().to_vec();
    let overclocked =
        CoreClass::new("core", 8, FrequencySet::xeon_e5_2667(), 1.2).with_power(PowerModel {
            ceff_w_per_ghz_v2: 12.0,
            ..PowerModel::default()
        });
    vec![
        ProvisionPreset::new(
            "xeon-socket",
            Platform::new(
                "Xeon E5-2667 socket",
                1,
                8,
                FrequencySet::xeon_e5_2667(),
                10e-6,
            ),
            pricing,
        ),
        ProvisionPreset::new(
            "big.LITTLE-socket",
            Platform::with_classes("big.LITTLE socket", 1, classes.clone(), 50e-6),
            pricing,
        ),
        ProvisionPreset::new(
            "big-cluster",
            Platform::with_classes("big cluster", 1, vec![classes[0].clone()], 50e-6),
            pricing,
        ),
        ProvisionPreset::new(
            "little-cluster",
            Platform::with_classes("LITTLE cluster", 1, vec![classes[1].clone()], 50e-6),
            pricing,
        ),
        ProvisionPreset::new(
            "overclocked-xeon",
            Platform::with_classes("overclocked Xeon socket", 1, vec![overclocked], 10e-6),
            pricing,
        ),
    ]
}

/// Chooses which preset to rent next, one instance at a time.
///
/// [`provision_fleet`] calls [`pick`](Self::pick) greedily until the
/// forecast is covered or nothing affordable remains; a policy sees
/// only the catalogue and its remaining budget, so every policy is
/// deterministic on the same inputs. Ties not settled by a policy's
/// rule go to the lower catalogue index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProvisionPolicy {
    /// Rents the cheapest affordable preset (ties: more capacity) —
    /// the cost-first strawman.
    CheapestFit,
    /// Rents the highest-capacity affordable preset regardless of
    /// efficiency (ties: lower price) — the speed-first strawman.
    FastestFit,
    /// Li-style QoS-aware provisioning: rents the affordable preset
    /// with the most capacity per credit (ties: more absolute
    /// capacity) — maximum deadline-meeting ability at equal spend.
    QosAware,
}

impl ProvisionPolicy {
    /// Stable policy label for reports and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            Self::CheapestFit => "cheapest-fit",
            Self::FastestFit => "fastest-fit",
            Self::QosAware => "qos-aware",
        }
    }

    /// Index of the next preset to rent, or `None` when no preset
    /// costs at most `remaining_credits`.
    pub fn pick(self, catalogue: &[ProvisionPreset], remaining_credits: u64) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, p) in catalogue.iter().enumerate() {
            if p.price_credits > remaining_credits {
                continue;
            }
            if best.is_none_or(|b| self.prefers(p, &catalogue[b])) {
                best = Some(i);
            }
        }
        best
    }

    /// `true` when this policy would rent `p` over the incumbent `b`.
    fn prefers(self, p: &ProvisionPreset, b: &ProvisionPreset) -> bool {
        match self {
            Self::CheapestFit => {
                p.price_credits < b.price_credits
                    || (p.price_credits == b.price_credits
                        && p.capacity_cores > b.capacity_cores + 1e-12)
            }
            Self::FastestFit => {
                p.capacity_cores > b.capacity_cores + 1e-12
                    || ((p.capacity_cores - b.capacity_cores).abs() <= 1e-12
                        && p.price_credits < b.price_credits)
            }
            Self::QosAware => {
                let ratio = |p: &ProvisionPreset| p.capacity_cores / p.price_credits as f64;
                let (r, br) = (ratio(p), ratio(b));
                r > br + 1e-12
                    || ((r - br).abs() <= 1e-12 && p.capacity_cores > b.capacity_cores + 1e-12)
            }
        }
    }
}

/// A provisioned fleet: which catalogue entries were rented, in rental
/// order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProvisionOutcome {
    /// The renting policy's label.
    pub policy: String,
    /// Catalogue index of each rented instance, rental order.
    pub chosen: Vec<usize>,
    /// Credits spent per window on the rented fleet.
    pub spent_credits: u64,
    /// Total effective capacity of the fleet, reference cores.
    pub capacity_cores: f64,
}

impl ProvisionOutcome {
    /// One analytical serving shard per rented instance, rental order
    /// — the shard set [`serve_online`](crate::serve_online) runs on.
    pub fn sim_shards(&self, catalogue: &[ProvisionPreset]) -> Vec<SimBackend> {
        self.chosen
            .iter()
            .map(|&i| SimBackend::new(catalogue[i].platform.clone(), catalogue[i].power))
            .collect()
    }
}

/// Greedily rents instances under `policy` until `forecast_cores` is
/// covered or nothing affordable remains, emitting one `Provisioned`
/// telemetry event (control track, slot 0) per rental.
pub fn provision_fleet<R: Recorder + Copy>(
    policy: ProvisionPolicy,
    catalogue: &[ProvisionPreset],
    forecast_cores: f64,
    budget_credits: u64,
    recorder: R,
) -> ProvisionOutcome {
    let mut chosen = Vec::new();
    let mut remaining = budget_credits;
    let mut capacity = 0.0f64;
    while capacity + 1e-9 < forecast_cores {
        let Some(i) = policy.pick(catalogue, remaining) else {
            break;
        };
        let preset = &catalogue[i];
        remaining -= preset.price_credits;
        capacity += preset.capacity_cores;
        if R::ENABLED {
            recorder.record(TelEvent::new(
                CONTROL_TRACK,
                0,
                TelKind::Provisioned { preset: i as u32 },
            ));
        }
        chosen.push(i);
    }
    ProvisionOutcome {
        policy: policy.label().to_string(),
        chosen,
        spent_credits: budget_credits - remaining,
        capacity_cores: capacity,
    }
}

/// Peak concurrent admission-unit demand of a trace: the sweep maximum
/// of every user's padded core demand over their [arrival, departure)
/// session — the load a provisioning policy sizes a fleet for. Each
/// user weighs its workload's [`OnlineConfig::padded_demand`], the
/// admission controller's unit.
pub fn forecast_demand_cores<W: Workload>(
    cfg: &OnlineConfig,
    workloads: &[W],
    trace: &[UserRequest],
) -> f64 {
    let demand_of: Vec<f64> = workloads.iter().map(|w| cfg.padded_demand(w)).collect();
    let mut deltas: BTreeMap<usize, f64> = BTreeMap::new();
    for r in trace {
        if r.arrival_slot >= cfg.horizon_slots {
            continue;
        }
        let d = demand_of[r.profile];
        *deltas.entry(r.arrival_slot).or_insert(0.0) += d;
        let end = r.departure_slot.unwrap_or(cfg.horizon_slots);
        *deltas.entry(end.min(cfg.horizon_slots)).or_insert(0.0) -= d;
    }
    let mut level = 0.0f64;
    let mut peak = 0.0f64;
    for (_, delta) in deltas {
        level += delta;
        peak = peak.max(level);
    }
    peak
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
/// [`CostPlan`](crate::CostPlan), re-deriving the spend ledger with
/// the same float operations in the same order as the controller —
/// the trajectory is bitwise equal, so `within_budget` is an exact
/// after-the-fact audit of budget-constrained admission.
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

#[cfg(test)]
mod tests {
    use super::ProvisionPolicy::{CheapestFit, FastestFit, QosAware};
    use super::*;
    use medvt_telemetry::{FlightRecorder, NoopRecorder};

    fn catalogue() -> Vec<ProvisionPreset> {
        preset_catalogue(&CostModel::default())
    }

    #[test]
    fn catalogue_prices_and_capacities_are_calibrated() {
        let cat = catalogue();
        let names: Vec<&str> = cat.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "xeon-socket",
                "big.LITTLE-socket",
                "big-cluster",
                "little-cluster",
                "overclocked-xeon"
            ]
        );
        let prices: Vec<u64> = cat.iter().map(|p| p.price_credits).collect();
        assert_eq!(prices, [4, 3, 2, 1, 6]);
        let caps: Vec<f64> = cat.iter().map(|p| p.capacity_cores).collect();
        for (got, want) in caps.iter().zip([8.0, 5.8, 4.0, 1.8, 9.6]) {
            assert!((got - want).abs() < 1e-9, "capacity {got} != {want}");
        }
    }

    #[test]
    fn policies_rank_the_catalogue_differently() {
        let cat = catalogue();
        // Unlimited remaining budget: each policy's standing pick.
        assert_eq!(CheapestFit.pick(&cat, u64::MAX), Some(3), "LITTLE cluster");
        assert_eq!(FastestFit.pick(&cat, u64::MAX), Some(4), "overclocked");
        assert_eq!(QosAware.pick(&cat, u64::MAX), Some(0), "xeon socket");
        // Tight budget: everyone converges on what is affordable.
        assert_eq!(CheapestFit.pick(&cat, 1), Some(3));
        assert_eq!(FastestFit.pick(&cat, 2), Some(2));
        assert_eq!(QosAware.pick(&cat, 3), Some(2), "big beats bl per credit");
        assert_eq!(QosAware.pick(&cat, 0), None);
    }

    #[test]
    fn every_policy_picks_the_recorded_preset_at_every_budget() {
        let cat = catalogue();
        // The pick at each remaining budget 0, 1, …, 12 (12 is the lcm
        // of the stock prices, so every affordability step is covered).
        let picks = |pick: &dyn Fn(u64) -> Option<usize>| (0..=12).map(pick).collect::<Vec<_>>();
        let (n, x, bl, big, little, oc) = (None, Some(0), Some(1), Some(2), Some(3), Some(4));
        assert_eq!(
            picks(&|b| CheapestFit.pick(&cat, b)),
            [
                n, little, little, little, little, little, little, little, little, little, little,
                little, little
            ]
        );
        assert_eq!(
            picks(&|b| FastestFit.pick(&cat, b)),
            [n, little, big, bl, x, x, oc, oc, oc, oc, oc, oc, oc]
        );
        assert_eq!(
            picks(&|b| QosAware.pick(&cat, b)),
            [n, little, big, big, x, x, x, x, x, x, x, x, x]
        );
    }

    #[test]
    fn greedy_rental_exhausts_budget_under_overload() {
        let cat = catalogue();
        // Forecast far beyond anything affordable; 12 = lcm of all
        // prices, so both extremes spend exactly the budget.
        let cheap = provision_fleet(CheapestFit, &cat, 1e6, 12, NoopRecorder);
        let qos = provision_fleet(QosAware, &cat, 1e6, 12, NoopRecorder);
        assert_eq!(cheap.spent_credits, 12);
        assert_eq!(qos.spent_credits, 12);
        assert_eq!(cheap.chosen, vec![3; 12]);
        assert_eq!(qos.chosen, vec![0; 3]);
        assert!((cheap.capacity_cores - 21.6).abs() < 1e-9);
        assert!((qos.capacity_cores - 24.0).abs() < 1e-9);
        assert!(qos.capacity_cores > cheap.capacity_cores);
    }

    #[test]
    fn rental_stops_at_the_forecast_and_emits_telemetry() {
        let cat = catalogue();
        let recorder = FlightRecorder::modeled(1, 256);
        let outcome = provision_fleet(QosAware, &cat, 10.0, 1_000, &recorder);
        // One xeon (8.0) is short of 10; two cover it.
        assert_eq!(outcome.chosen, vec![0, 0]);
        assert_eq!(outcome.spent_credits, 8);
        let events = recorder.events();
        let provisioned = events
            .iter()
            .filter(|e| matches!(e.kind, TelKind::Provisioned { preset: 0 }))
            .count();
        assert_eq!(provisioned, outcome.chosen.len());
        let shards = outcome.sim_shards(&cat);
        assert_eq!(shards.len(), 2);
    }
}
