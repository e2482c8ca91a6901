//! The analytical backend: today's slot model (extracted from
//! `core::server` / `mpsoc::simulate_slot`) behind the
//! [`ExecutionBackend`] trait.

use crate::backend::{ExecutionBackend, SlotOutcome, WorkUnit};
use medvt_mpsoc::{simulate_slot, DvfsPolicy, FreqLevel, Platform, PowerModel};

/// Prices slots analytically from work-unit costs; never runs jobs.
#[derive(Debug, Clone)]
pub struct SimBackend {
    platform: Platform,
    power: PowerModel,
    prev_freqs: Vec<FreqLevel>,
    carry: Vec<f64>,
    /// Per-core load of the slot being priced: carry plus submitted
    /// cost.
    loads: Vec<f64>,
}

impl SimBackend {
    /// Creates a backend over `platform` with the `power` model (core
    /// classes with their own power model override it per core).
    pub fn new(platform: Platform, power: PowerModel) -> Self {
        let cores = platform.total_cores();
        let prev_freqs = platform.core_fmins();
        Self {
            platform,
            power,
            prev_freqs,
            carry: vec![0.0; cores],
            loads: vec![0.0; cores],
        }
    }

    /// The platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }
}

impl ExecutionBackend for SimBackend {
    fn cores(&self) -> usize {
        self.platform.total_cores()
    }

    fn core_speeds(&self) -> Vec<f64> {
        self.platform.core_speeds()
    }

    fn label(&self) -> String {
        self.platform.name.clone()
    }

    fn reset(&mut self) {
        self.prev_freqs.copy_from_slice(&self.platform.core_fmins());
        self.carry.fill(0.0);
    }

    fn execute_slot<'scope>(
        &mut self,
        policy: DvfsPolicy,
        slot_secs: f64,
        work: Vec<WorkUnit<'scope>>,
    ) -> SlotOutcome {
        self.loads.copy_from_slice(&self.carry);
        for unit in &work {
            self.loads[unit.core] += unit.cost_fmax_secs;
        }
        let report = simulate_slot(
            &self.platform,
            &self.power,
            policy,
            &self.loads,
            &self.prev_freqs,
            slot_secs,
        );
        for (k, plan) in report.cores.iter().enumerate() {
            self.carry[k] = plan.carry_fmax_secs;
            self.prev_freqs[k] = plan.freq;
        }
        SlotOutcome {
            report,
            wall_secs: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLOT: f64 = 1.0 / 24.0;

    #[test]
    fn carry_flows_into_next_slot() {
        let mut b = SimBackend::new(Platform::quad_core(), PowerModel::default());
        let heavy = vec![WorkUnit::cost_only(0, 0, 0, SLOT * 1.5)];
        let out = b.execute_slot(DvfsPolicy::StretchToDeadline, SLOT, heavy);
        assert_eq!(out.report.deadline_misses, 1);
        assert!(b.carry[0] > 0.0);
        // Empty next slot still executes the carried work.
        let out2 = b.execute_slot(DvfsPolicy::StretchToDeadline, SLOT, vec![]);
        assert!(out2.report.cores[0].busy_secs > 0.0);
        assert_eq!(out2.report.deadline_misses, 0);
        assert!((b.carry[0]).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_state() {
        let mut b = SimBackend::new(Platform::quad_core(), PowerModel::default());
        b.execute_slot(
            DvfsPolicy::StretchToDeadline,
            SLOT,
            vec![WorkUnit::cost_only(0, 0, 1, SLOT * 2.0)],
        );
        assert!(b.carry[1] > 0.0);
        b.reset();
        assert!(b.carry.iter().all(|&c| c == 0.0));
    }
}
