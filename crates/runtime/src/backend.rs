//! The [`ExecutionBackend`] abstraction: one trait, two ways to run
//! frame slots.
//!
//! A *slot* is one 1/FPS scheduling interval. The server loop turns
//! Algorithm 2's placements into [`WorkUnit`]s — (user, thread, core,
//! cost) tuples, optionally carrying the real tile-encoding closure —
//! and a backend executes them, one slot at a time
//! ([`ExecutionBackend::execute_slot`]) or as a *run* of consecutive
//! slots within one GOP ([`ExecutionBackend::execute_run`]):
//!
//! * [`SimBackend`](crate::SimBackend) prices each slot analytically
//!   from the costs (the paper's evaluation model);
//! * [`ThreadPoolBackend`](crate::ThreadPoolBackend) additionally runs
//!   a run's closures on the calling thread and its pool's workers,
//!   any idle one claiming the next in slot order behind one barrier,
//!   while keeping the *same* per-slot analytical energy/deadline
//!   accounting so both backends report identical statistics for
//!   identical workloads.
//!
//! Backends are stateful across slots: they own the per-core DVFS
//! operating points and the deadline-miss carry (Algorithm 2 lines
//! 21–22) from one slot to the next.

use medvt_mpsoc::{DvfsPolicy, SlotReport};

/// One placed unit of slot work: user `user`'s tile-thread `thread`
/// on core `core`, costing `cost_fmax_secs` seconds at f_max.
pub struct WorkUnit<'scope> {
    /// User the work belongs to.
    pub user: usize,
    /// Thread (tile) index within the user.
    pub thread: usize,
    /// Core assigned by the scheduler.
    pub core: usize,
    /// Estimated CPU time at f_max, seconds.
    pub cost_fmax_secs: f64,
    /// The actual work, when the caller has any (`None` for replayed
    /// profiles). Sim backends ignore it; pool backends run it on
    /// whichever executor (the calling thread or a pool worker) claims
    /// it first.
    pub job: Option<Box<dyn FnOnce() + Send + 'scope>>,
}

impl std::fmt::Debug for WorkUnit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkUnit")
            .field("user", &self.user)
            .field("thread", &self.thread)
            .field("core", &self.core)
            .field("cost_fmax_secs", &self.cost_fmax_secs)
            .field("has_job", &self.job.is_some())
            .finish()
    }
}

impl<'scope> WorkUnit<'scope> {
    /// A cost-only unit (profile replay).
    #[cfg(test)]
    pub(crate) fn cost_only(user: usize, thread: usize, core: usize, cost_fmax_secs: f64) -> Self {
        Self {
            user,
            thread,
            core,
            cost_fmax_secs,
            job: None,
        }
    }
}

/// Outcome of executing one slot.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotOutcome {
    /// The analytical per-core accounting (energy, carry, misses) —
    /// identical across backends for identical work.
    pub report: SlotReport,
    /// Wall-clock seconds spent actually executing jobs (0 when the
    /// slot carried no real work).
    pub wall_secs: f64,
}

/// Executes scheduled slot work and carries DVFS/deadline state
/// between slots.
pub trait ExecutionBackend {
    /// Number of schedulable cores (what placements index against).
    fn cores(&self) -> usize;

    /// Per-core speed factors relative to the reference class (the
    /// normalizer speed-aware placement divides loads by). Homogeneous
    /// backends — the default — are 1.0 everywhere; platform-modelling
    /// backends report `Platform::core_speeds`.
    fn core_speeds(&self) -> Vec<f64> {
        vec![1.0; self.cores()]
    }

    /// Human-readable label for shard/aggregate reports (e.g. the
    /// modelled platform's socket-tagged name).
    fn label(&self) -> String {
        format!("{}-core backend", self.cores())
    }

    /// Whether this backend physically runs [`WorkUnit::job`]
    /// closures. Analytical backends — the default — only price costs,
    /// so callers can skip materializing jobs for them entirely.
    fn executes_work(&self) -> bool {
        false
    }

    /// Clears carried load and DVFS state (start of a fresh run).
    fn reset(&mut self);

    /// Executes one slot of placed work under `policy`.
    fn execute_slot<'scope>(
        &mut self,
        policy: DvfsPolicy,
        slot_secs: f64,
        work: Vec<WorkUnit<'scope>>,
    ) -> SlotOutcome;

    /// Executes a run of consecutive slots — `slots[k]` is slot *k*'s
    /// placed work — returning each slot's analytical report, in slot
    /// order, and the wall-clock seconds the run spent executing jobs
    /// (0 when no unit carried a job).
    ///
    /// The reports equal those of calling
    /// [`execute_slot`](Self::execute_slot) once per slot, which is
    /// what the default does. A backend that runs jobs may instead
    /// dispatch the whole run at once, so its cores move from one
    /// slot's units to the next without waiting for each other.
    fn execute_run<'scope>(
        &mut self,
        policy: DvfsPolicy,
        slot_secs: f64,
        slots: Vec<Vec<WorkUnit<'scope>>>,
    ) -> (Vec<SlotReport>, f64) {
        let mut wall_secs = 0.0;
        let reports = slots
            .into_iter()
            .map(|work| {
                let outcome = self.execute_slot(policy, slot_secs, work);
                wall_secs += outcome.wall_secs;
                outcome.report
            })
            .collect();
        (reports, wall_secs)
    }
}

impl<B: ExecutionBackend + ?Sized> ExecutionBackend for &mut B {
    fn cores(&self) -> usize {
        (**self).cores()
    }

    fn core_speeds(&self) -> Vec<f64> {
        (**self).core_speeds()
    }

    fn label(&self) -> String {
        (**self).label()
    }

    fn executes_work(&self) -> bool {
        (**self).executes_work()
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn execute_slot<'scope>(
        &mut self,
        policy: DvfsPolicy,
        slot_secs: f64,
        work: Vec<WorkUnit<'scope>>,
    ) -> SlotOutcome {
        (**self).execute_slot(policy, slot_secs, work)
    }

    fn execute_run<'scope>(
        &mut self,
        policy: DvfsPolicy,
        slot_secs: f64,
        slots: Vec<Vec<WorkUnit<'scope>>>,
    ) -> (Vec<SlotReport>, f64) {
        (**self).execute_run(policy, slot_secs, slots)
    }
}
