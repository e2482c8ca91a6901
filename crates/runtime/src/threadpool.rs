//! The real-execution backend: a persistent per-core worker pool that
//! runs tile work units where Algorithm 2 placed them.
//!
//! Execution honours placements exactly — unit `(user, thread)` runs
//! on worker `core % workers`, FIFO within each worker — while energy
//! and deadline accounting reuse the same analytical slot model as
//! [`SimBackend`], so swapping backends never changes reported
//! statistics, only whether the work physically happens.

use crate::backend::{ExecutionBackend, SlotOutcome, WorkUnit};
use crate::pool::{ExecRecord, WorkerPool};
use crate::sim::SimBackend;
use medvt_mpsoc::{DvfsPolicy, Platform, PowerModel};
use std::time::Instant;

/// Executes placed work units on persistent per-core worker threads.
#[derive(Debug)]
pub struct ThreadPoolBackend {
    pool: WorkerPool,
    accounting: SimBackend,
}

impl ThreadPoolBackend {
    /// A backend with one worker per platform core.
    pub fn new(platform: Platform, power: PowerModel) -> Self {
        let workers = platform.total_cores();
        Self::with_workers(platform, power, workers)
    }

    /// A backend with an explicit worker count (e.g. fewer workers
    /// than modelled cores on a small host; core ids wrap modulo the
    /// worker count).
    pub fn with_workers(platform: Platform, power: PowerModel, workers: usize) -> Self {
        Self {
            pool: WorkerPool::new(workers),
            accounting: SimBackend::new(platform, power),
        }
    }

    /// Enables/disables the per-core execution log (for tests).
    pub fn set_logging(&self, enabled: bool) {
        self.pool.set_logging(enabled);
    }

    /// Drains the execution log: which worker ran which (user, item).
    pub fn drain_log(&self) -> Vec<ExecRecord> {
        self.pool.drain_log()
    }
}

impl ExecutionBackend for ThreadPoolBackend {
    fn cores(&self) -> usize {
        self.accounting.cores()
    }

    fn core_speeds(&self) -> Vec<f64> {
        self.accounting.core_speeds()
    }

    fn label(&self) -> String {
        self.accounting.label()
    }

    fn executes_work(&self) -> bool {
        true
    }

    fn reset(&mut self) {
        self.accounting.reset();
    }

    fn execute_slot<'scope>(
        &mut self,
        policy: DvfsPolicy,
        slot_secs: f64,
        work: Vec<WorkUnit<'scope>>,
    ) -> SlotOutcome {
        let mut cost_units: Vec<WorkUnit<'static>> = Vec::with_capacity(work.len());
        let t0 = Instant::now();
        let mut ran_any = false;
        self.pool.scope(|s| {
            for mut unit in work {
                if let Some(job) = unit.job.take() {
                    ran_any = true;
                    s.submit(unit.core, unit.user, unit.thread, job);
                }
                cost_units.push(WorkUnit::cost_only(
                    unit.user,
                    unit.thread,
                    unit.core,
                    unit.cost_fmax_secs,
                ));
            }
        });
        let wall_secs = if ran_any {
            t0.elapsed().as_secs_f64()
        } else {
            0.0
        };
        let mut outcome = self.accounting.execute_slot(policy, slot_secs, cost_units);
        outcome.wall_secs = wall_secs;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLOT: f64 = 1.0 / 24.0;

    #[test]
    fn accounting_matches_sim_backend_exactly() {
        let mk_units = || {
            vec![
                WorkUnit::cost_only(0, 0, 0, SLOT * 0.4),
                WorkUnit::cost_only(0, 1, 1, SLOT * 0.9),
                WorkUnit::cost_only(1, 0, 2, SLOT * 1.4),
            ]
        };
        let mut sim = SimBackend::new(Platform::quad_core(), PowerModel::default());
        let mut pool =
            ThreadPoolBackend::with_workers(Platform::quad_core(), PowerModel::default(), 2);
        for _ in 0..4 {
            let a = sim.execute_slot(DvfsPolicy::StretchToDeadline, SLOT, mk_units());
            let b = pool.execute_slot(DvfsPolicy::StretchToDeadline, SLOT, mk_units());
            assert_eq!(a.report, b.report);
        }
    }

    #[test]
    fn real_jobs_run_on_assigned_workers() {
        let backend =
            ThreadPoolBackend::with_workers(Platform::quad_core(), PowerModel::default(), 4);
        backend.set_logging(true);
        let mut b = backend;
        let units: Vec<WorkUnit<'_>> = (0..8)
            .map(|i| WorkUnit {
                user: 3,
                thread: i,
                core: i % 4,
                cost_fmax_secs: 1e-4,
                job: Some(Box::new(move || {
                    std::hint::black_box(i * i);
                })),
            })
            .collect();
        let out = b.execute_slot(DvfsPolicy::StretchToDeadline, SLOT, units);
        assert!(out.wall_secs >= 0.0);
        let log = b.drain_log();
        assert_eq!(log.len(), 8);
        for r in &log {
            assert_eq!(
                r.worker,
                r.item % 4,
                "thread {} on worker {}",
                r.item,
                r.worker
            );
            assert_eq!(r.user, 3);
        }
    }
}
