//! Time-slot simulation: executes one 1/FPS scheduling interval on
//! every core and accounts time, deadline slack and energy.
//!
//! This is the substrate under Algorithm 2's DVFS stage (lines 16–24):
//! cores whose load fits the slot run and then idle (or run slower but
//! still on time), cores that cannot finish stay at f_max and carry the
//! remainder into the next slot.
//!
//! Loads are given in **reference fmax-seconds** (CPU time on a
//! speed-1.0 core at its maximum frequency). On a heterogeneous
//! [`Platform`] every core plans against its own class: the class
//! ladder picks the operating point, the class speed factor stretches
//! the work, and the class power model (when attached) prices it.

use crate::freq::FreqLevel;
use crate::platform::{CoreClass, Platform};
use crate::power::PowerModel;
use medvt_telemetry::{Event, EventKind, Recorder};
use serde::{Deserialize, Serialize};

/// How a core's frequency is chosen for a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DvfsPolicy {
    /// Run the load at f_max, then idle (clock-gated) at f_min for the
    /// slack — the literal reading of Algorithm 2 lines 17–19.
    RaceToIdle,
    /// Run at the lowest frequency that still meets the deadline,
    /// idling for any remaining slack — the refinement behind Fig. 3's
    /// "only two of the three cores at maximum frequency". This is the
    /// default.
    #[default]
    StretchToDeadline,
    /// Stay pinned at f_max through the whole slot, clock running even
    /// during slack — the coarse rail-frequency operation of the
    /// baseline \[19\], which only re-decides frequency when every core
    /// sits at a rail.
    PinnedMax,
}

/// The execution plan of one core for one slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorePlan {
    /// Chosen operating point for the busy period.
    pub freq: FreqLevel,
    /// Seconds spent executing.
    pub busy_secs: f64,
    /// Seconds idling at the end of the slot.
    pub slack_secs: f64,
    /// Load (in reference fmax-seconds) that did not fit and carries
    /// into the next slot.
    pub carry_fmax_secs: f64,
    /// DVFS transitions performed this slot.
    pub transitions: u32,
    /// `true` when the slack period keeps the clock running at `freq`
    /// (pinned-rail operation) instead of gating down to idle.
    pub slack_clock_running: bool,
    /// `true` when DVFS transition overhead consumed the entire slot:
    /// zero executable seconds remained and the whole load carried
    /// over. Only possible when the transition latency rivals the slot
    /// length; reported explicitly so the silent clamp to zero progress
    /// is observable.
    pub transition_bound: bool,
}

impl CorePlan {
    /// `true` when the core finished its assigned load in the slot.
    pub(crate) fn met_deadline(&self) -> bool {
        self.carry_fmax_secs <= 1e-12
    }

    /// Energy of this plan over a slot of `slot_secs`, joules.
    pub fn energy_j(&self, power: &PowerModel, slot_secs: f64) -> f64 {
        let slack_power = if self.slack_clock_running {
            power.clock_idle_power_w(self.freq)
        } else {
            power.idle_power_w()
        };
        power.active_power_w(self.freq) * self.busy_secs
            + slack_power * (slot_secs - self.busy_secs).max(0.0)
            + power.transition_j * self.transitions as f64
    }
}

/// Plans one core's slot given its assigned load in reference
/// fmax-seconds, for a core of `class` with `dvfs_transition_secs`
/// switch latency.
///
/// `prev_freq` is the core's operating point from the previous slot,
/// used to count DVFS transitions (each costs `dvfs_transition_secs`
/// of the busy budget — 10 µs on the paper's platform, negligible but
/// modelled).
pub fn plan_core_on(
    class: &CoreClass,
    dvfs_transition_secs: f64,
    policy: DvfsPolicy,
    load_fmax_secs: f64,
    slot_secs: f64,
    prev_freq: FreqLevel,
) -> CorePlan {
    assert!(load_fmax_secs >= 0.0, "load cannot be negative");
    assert!(slot_secs > 0.0, "slot must be positive");
    // Reference work stretched to this class's own f_max seconds.
    let local_load = load_fmax_secs / class.speed_factor;
    let fmax = class.fmax();
    if local_load <= 1e-15 {
        // Fully idle core.
        let fmin = class.fmin();
        return CorePlan {
            freq: fmin,
            busy_secs: 0.0,
            slack_secs: slot_secs,
            carry_fmax_secs: 0.0,
            transitions: u32::from(prev_freq != fmin),
            slack_clock_running: false,
            transition_bound: false,
        };
    }
    let freq = match policy {
        DvfsPolicy::RaceToIdle | DvfsPolicy::PinnedMax => fmax,
        DvfsPolicy::StretchToDeadline => class
            .freqs()
            .lowest_meeting(local_load, slot_secs)
            .unwrap_or(fmax),
    };
    let pinned = policy == DvfsPolicy::PinnedMax;
    let mut transitions = u32::from(prev_freq != freq);
    let run_secs = freq.stretch(local_load, fmax) + dvfs_transition_secs * transitions as f64;
    if run_secs <= slot_secs {
        // Fits: idle the remainder (drop to fmin per Algorithm 2 line
        // 18 — except under pinned-rail operation, which keeps the
        // clock running at the rail through the slack).
        let slack = slot_secs - run_secs;
        if !pinned && slack > dvfs_transition_secs && freq != class.fmin() {
            transitions += 1; // drop to fmin for the slack period
        }
        CorePlan {
            freq,
            busy_secs: run_secs,
            slack_secs: slack,
            carry_fmax_secs: 0.0,
            transitions,
            slack_clock_running: pinned,
            transition_bound: false,
        }
    } else {
        // Does not fit even at the chosen point: run flat out at fmax
        // for the whole slot and carry the remainder (lines 21–22).
        // The DVFS switch eats into the executable time; when it eats
        // the *whole* slot the core makes zero progress — flagged as
        // transition-bound rather than silently clamped.
        let transitions = u32::from(prev_freq != fmax);
        let done_local = (slot_secs - dvfs_transition_secs * transitions as f64).max(0.0);
        CorePlan {
            freq: fmax,
            busy_secs: slot_secs,
            slack_secs: 0.0,
            carry_fmax_secs: (load_fmax_secs - done_local * class.speed_factor).max(0.0),
            transitions,
            slack_clock_running: pinned,
            transition_bound: done_local <= 0.0,
        }
    }
}

/// Aggregate outcome of simulating one slot across all cores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotReport {
    /// Per-core plans, indexed by core id.
    pub cores: Vec<CorePlan>,
    /// Slot length in seconds.
    pub slot_secs: f64,
    /// Total energy over the slot, joules.
    pub energy_j: f64,
    /// Cores that failed to finish their load.
    pub deadline_misses: usize,
    /// Cores whose slot was entirely consumed by DVFS transition
    /// overhead (zero executable seconds; full load carried). Nonzero
    /// only when the transition latency rivals the slot length.
    pub transition_bound_cores: usize,
}

impl SlotReport {
    /// Mean power over the slot, watts.
    pub fn power_w(&self) -> f64 {
        self.energy_j / self.slot_secs
    }

    /// Cores that executed anything this slot.
    pub fn active_cores(&self) -> usize {
        self.cores.iter().filter(|c| c.busy_secs > 0.0).count()
    }
}

/// Simulates one slot: `loads[k]` is core `k`'s assigned load in
/// reference fmax-seconds; `prev_freqs` the operating points left from
/// the last slot (pass each core's class fmin for a cold start —
/// [`Platform::core_fmins`]).
///
/// Each core plans against its own [`CoreClass`]: ladder, speed factor
/// and (when attached) class power model. `power` prices the cores of
/// classes without their own model.
///
/// # Panics
///
/// Panics when `loads` and `prev_freqs` lengths differ from the
/// platform's core count.
pub fn simulate_slot(
    platform: &Platform,
    power: &PowerModel,
    policy: DvfsPolicy,
    loads: &[f64],
    prev_freqs: &[FreqLevel],
    slot_secs: f64,
) -> SlotReport {
    assert_eq!(
        loads.len(),
        platform.total_cores(),
        "one load per platform core required"
    );
    assert_eq!(
        prev_freqs.len(),
        platform.total_cores(),
        "one previous frequency per core required"
    );
    let mut cores = Vec::with_capacity(loads.len());
    let mut energy = 0.0;
    let mut misses = 0;
    let mut transition_bound = 0;
    for ((k, &load), class) in loads.iter().enumerate().zip(platform.core_classes()) {
        let plan = plan_core_on(
            class,
            platform.dvfs_transition_secs,
            policy,
            load,
            slot_secs,
            prev_freqs[k],
        );
        let e = plan.energy_j(class.power().unwrap_or(power), slot_secs);
        energy += e;
        if !plan.met_deadline() {
            misses += 1;
        }
        if plan.transition_bound {
            transition_bound += 1;
        }
        cores.push(plan);
    }
    SlotReport {
        cores,
        slot_secs,
        energy_j: energy,
        deadline_misses: misses,
        transition_bound_cores: transition_bound,
    }
}

/// Emits one telemetry [`EventKind::SlotCore`] event per *interesting*
/// core of a [`simulate_slot`] outcome — cores that executed work or
/// carried load — stamped with `track`/`slot`.
///
/// The busy time is the *modeled* `busy_secs` rounded to nanoseconds.
/// Because analytical and thread-pool backends produce bit-identical
/// `SlotReport`s for the same inputs (the repo's backend-parity
/// invariant), the emitted events are deterministic and identical
/// across backends — wall-clock time never enters the payload.
///
/// Callers gate on `R::ENABLED` so the disabled path costs nothing.
pub fn record_slot_events<R: Recorder>(recorder: &R, track: u16, slot: u32, report: &SlotReport) {
    if !R::ENABLED {
        return;
    }
    for (core, plan) in report.cores.iter().enumerate() {
        let carry = !plan.met_deadline();
        if plan.busy_secs <= 0.0 && !carry && !plan.transition_bound {
            continue;
        }
        let busy_ns = (plan.busy_secs * 1e9).round().clamp(0.0, u32::MAX as f64) as u32;
        recorder.record(Event::new(
            track,
            slot,
            EventKind::SlotCore {
                core: core as u16,
                busy_ns,
                carry,
                transition_bound: plan.transition_bound,
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::FrequencySet;

    fn setup() -> (Platform, PowerModel) {
        (Platform::quad_core(), PowerModel::default())
    }

    fn fmin_vec(p: &Platform) -> Vec<FreqLevel> {
        p.core_fmins()
    }

    const SLOT: f64 = 1.0 / 24.0;

    #[test]
    fn idle_core_costs_idle_energy() {
        let (p, m) = setup();
        let plan = plan_core_on(
            p.class_of(0),
            p.dvfs_transition_secs,
            DvfsPolicy::StretchToDeadline,
            0.0,
            SLOT,
            p.fmin(),
        );
        assert_eq!(plan.busy_secs, 0.0);
        assert_eq!(plan.transitions, 0);
        assert!(plan.met_deadline());
        let e = plan.energy_j(&m, SLOT);
        assert!((e - m.idle_power_w() * SLOT).abs() < 1e-12);
    }

    #[test]
    fn stretch_picks_lowest_sufficient_frequency() {
        let (p, _) = setup();
        // Half-slot load at fmax → 2.9 GHz stretches it to 0.62 slots: fits.
        let plan = plan_core_on(
            p.class_of(0),
            p.dvfs_transition_secs,
            DvfsPolicy::StretchToDeadline,
            SLOT * 0.5,
            SLOT,
            p.fmax(),
        );
        assert_eq!(plan.freq, p.fmin());
        assert!(plan.met_deadline());
        assert!(plan.slack_secs > 0.0);
    }

    #[test]
    fn race_runs_at_fmax_and_idles() {
        let (p, _) = setup();
        let plan = plan_core_on(
            p.class_of(0),
            p.dvfs_transition_secs,
            DvfsPolicy::RaceToIdle,
            SLOT * 0.5,
            SLOT,
            p.fmax(),
        );
        assert_eq!(plan.freq, p.fmax());
        assert!(plan.met_deadline());
        assert!((plan.busy_secs - SLOT * 0.5).abs() < 1e-9);
    }

    #[test]
    fn stretch_saves_energy_over_race() {
        let (p, m) = setup();
        let load = SLOT * 0.5;
        let race = plan_core_on(
            p.class_of(0),
            p.dvfs_transition_secs,
            DvfsPolicy::RaceToIdle,
            load,
            SLOT,
            p.fmax(),
        );
        let stretch = plan_core_on(
            p.class_of(0),
            p.dvfs_transition_secs,
            DvfsPolicy::StretchToDeadline,
            load,
            SLOT,
            p.fmax(),
        );
        let e_race = race.energy_j(&m, SLOT);
        let e_stretch = stretch.energy_j(&m, SLOT);
        assert!(
            e_stretch < e_race,
            "stretch {e_stretch} J vs race {e_race} J"
        );
    }

    #[test]
    fn pinned_max_keeps_clock_running_through_slack() {
        let (p, m) = setup();
        let load = SLOT * 0.4;
        let pinned = plan_core_on(
            p.class_of(0),
            p.dvfs_transition_secs,
            DvfsPolicy::PinnedMax,
            load,
            SLOT,
            p.fmax(),
        );
        assert_eq!(pinned.freq, p.fmax());
        assert!(pinned.slack_clock_running);
        assert_eq!(pinned.transitions, 0, "never leaves the rail");
        let race = plan_core_on(
            p.class_of(0),
            p.dvfs_transition_secs,
            DvfsPolicy::RaceToIdle,
            load,
            SLOT,
            p.fmax(),
        );
        assert!(!race.slack_clock_running);
        // Pinned-rail slack burns clock power: strictly more energy.
        let e_pinned = pinned.energy_j(&m, SLOT);
        let e_race = race.energy_j(&m, SLOT);
        assert!(
            e_pinned > e_race,
            "pinned {e_pinned} J must exceed race {e_race} J"
        );
    }

    #[test]
    fn clock_idle_power_sits_between_gated_and_active() {
        let (p, m) = setup();
        let ci = m.clock_idle_power_w(p.fmax());
        assert!(ci > m.idle_power_w());
        assert!(ci < m.active_power_w(p.fmax()));
    }

    #[test]
    fn overload_carries_remainder() {
        let (p, _) = setup();
        let plan = plan_core_on(
            p.class_of(0),
            p.dvfs_transition_secs,
            DvfsPolicy::StretchToDeadline,
            SLOT * 1.4,
            SLOT,
            p.fmax(),
        );
        assert_eq!(plan.freq, p.fmax());
        assert!(!plan.met_deadline());
        assert!((plan.carry_fmax_secs - SLOT * 0.4).abs() < 1e-9);
        assert_eq!(plan.slack_secs, 0.0);
        assert!(!plan.transition_bound);
    }

    #[test]
    fn transition_longer_than_slot_is_flagged_not_negative() {
        // A pathological platform whose DVFS switch outlasts the slot:
        // the core makes zero progress, which must be reported as
        // transition-bound with every quantity still non-negative.
        let p = Platform::new(
            "slow-switch",
            1,
            1,
            FrequencySet::xeon_e5_2667(),
            SLOT * 2.0,
        );
        let m = PowerModel::default();
        let load = SLOT * 0.5;
        let plan = plan_core_on(
            p.class_of(0),
            p.dvfs_transition_secs,
            DvfsPolicy::StretchToDeadline,
            load,
            SLOT,
            p.fmax(),
        );
        // Coming from fmax at a fitting frequency there may be no
        // transition; force one by starting from fmin with an overload.
        let plan2 = plan_core_on(
            p.class_of(0),
            p.dvfs_transition_secs,
            DvfsPolicy::StretchToDeadline,
            SLOT * 1.5,
            SLOT,
            p.fmin(),
        );
        assert!(plan2.transition_bound, "transition ate the whole slot");
        assert!(
            (plan2.carry_fmax_secs - SLOT * 1.5).abs() < 1e-12,
            "full load carries"
        );
        assert!(plan2.busy_secs >= 0.0 && plan2.slack_secs >= 0.0);
        assert!(plan2.energy_j(&m, SLOT) >= 0.0);
        // The fitting case stays unflagged.
        assert!(!plan.transition_bound);
        // And the aggregate surfaces the count.
        let report = simulate_slot(
            &p,
            &m,
            DvfsPolicy::StretchToDeadline,
            &[SLOT * 1.5],
            &[p.fmin()],
            SLOT,
        );
        assert_eq!(report.transition_bound_cores, 1);
        assert!(report.energy_j >= 0.0);
    }

    #[test]
    fn simulate_slot_aggregates() {
        let (p, m) = setup();
        let loads = vec![0.0, SLOT * 0.3, SLOT * 0.9, SLOT * 1.5];
        let report = simulate_slot(
            &p,
            &m,
            DvfsPolicy::StretchToDeadline,
            &loads,
            &fmin_vec(&p),
            SLOT,
        );
        assert_eq!(report.cores.len(), 4);
        assert_eq!(report.deadline_misses, 1);
        assert_eq!(report.transition_bound_cores, 0);
        assert_eq!(report.active_cores(), 3);
        assert!(report.cores[3].carry_fmax_secs > 0.0);
        assert!(report.power_w() > 0.0);
        let sum: f64 = report
            .cores
            .iter()
            .enumerate()
            .map(|(k, c)| c.energy_j(p.class_of(k).power().unwrap_or(&m), SLOT))
            .sum();
        assert!((sum - report.energy_j).abs() < 1e-12);
    }

    #[test]
    fn lighter_total_load_uses_less_energy() {
        let (p, m) = setup();
        let heavy = vec![SLOT * 0.9; 4];
        let light = vec![SLOT * 0.2; 4];
        let e_heavy = simulate_slot(
            &p,
            &m,
            DvfsPolicy::StretchToDeadline,
            &heavy,
            &fmin_vec(&p),
            SLOT,
        )
        .energy_j;
        let e_light = simulate_slot(
            &p,
            &m,
            DvfsPolicy::StretchToDeadline,
            &light,
            &fmin_vec(&p),
            SLOT,
        )
        .energy_j;
        assert!(e_light < e_heavy);
    }

    #[test]
    fn transition_latency_counted_in_busy_time() {
        let (p, _) = setup();
        // Core coming from fmin, needs fmax: one transition eats 10 µs.
        let plan = plan_core_on(
            p.class_of(0),
            p.dvfs_transition_secs,
            DvfsPolicy::StretchToDeadline,
            SLOT * 0.95,
            SLOT,
            p.fmin(),
        );
        assert!(plan.transitions >= 1);
        assert!(plan.busy_secs > SLOT * 0.95);
    }

    #[test]
    fn slow_class_stretches_reference_work() {
        // A 0.5-speed class needs twice the seconds for the same
        // reference load, even at its own fmax.
        let half = CoreClass::new("half", 1, FrequencySet::xeon_e5_2667(), 0.5);
        let full = CoreClass::new("full", 1, FrequencySet::xeon_e5_2667(), 1.0);
        let load = SLOT * 0.4;
        let on_half = plan_core_on(&half, 0.0, DvfsPolicy::RaceToIdle, load, SLOT, half.fmax());
        let on_full = plan_core_on(&full, 0.0, DvfsPolicy::RaceToIdle, load, SLOT, full.fmax());
        assert!((on_half.busy_secs - 2.0 * on_full.busy_secs).abs() < 1e-12);
        assert!(on_half.met_deadline());
        // Overload on the slow class carries in *reference* units.
        let big = plan_core_on(&half, 0.0, DvfsPolicy::RaceToIdle, SLOT, SLOT, half.fmax());
        // One slot of reference work = two slots local: half executes,
        // half (in reference units: SLOT*0.5) carries.
        assert!((big.carry_fmax_secs - SLOT * 0.5).abs() < 1e-12);
    }

    #[test]
    fn big_little_slot_uses_class_ladders_and_power() {
        let p = Platform::big_little();
        let m = PowerModel::default();
        let mut loads = vec![0.0; p.total_cores()];
        loads[0] = SLOT * 0.5; // big core
        loads[4] = SLOT * 0.2; // LITTLE core (0.44 slots local)
        let report = simulate_slot(
            &p,
            &m,
            DvfsPolicy::StretchToDeadline,
            &loads,
            &p.core_fmins(),
            SLOT,
        );
        assert_eq!(report.deadline_misses, 0);
        // Frequencies come from each core's own ladder.
        let big_ladder = p.class_of(0).freqs().levels().to_vec();
        let little_ladder = p.class_of(4).freqs().levels().to_vec();
        assert!(big_ladder.contains(&report.cores[0].freq));
        assert!(little_ladder.contains(&report.cores[4].freq));
        // The LITTLE class's lighter power model prices its idle cores
        // below the big class's idle cores.
        let energy = |k: usize| report.cores[k].energy_j(p.class_of(k).power().unwrap_or(&m), SLOT);
        assert!(energy(5) < energy(1));
    }

    #[test]
    #[should_panic(expected = "one load per platform core")]
    fn wrong_load_count_rejected() {
        let (p, m) = setup();
        simulate_slot(&p, &m, DvfsPolicy::RaceToIdle, &[0.0], &fmin_vec(&p), SLOT);
    }
}
