//! The real-execution backend: the calling thread and a persistent
//! worker pool run the tile work units Algorithm 2 placed, with the
//! placement's accounting.
//!
//! The pool is the backend's own [`WorkerPool`], the type behind
//! `medvt_frame::par_map` too: one claim loop and one panic path.
//!
//! Placement decides the accounting, not the OS thread: energy, DVFS,
//! carry and deadline verdicts come from the same analytical slot
//! model as [`SimBackend`], so swapping backends never changes
//! reported statistics, only whether the work physically happens. Any
//! idle executor — the thread that called the run, or one of the
//! pool's workers — runs the next unit of the run, whatever core the
//! unit was placed on.
//!
//! A run of slots is one dispatch: every unit of every slot goes to
//! the pool as one batch in slot order, so each executor starts slot
//! k's units before slot k+1's, and the only barrier is the end of
//! the run. Accounting stays per slot.

use crate::backend::{ExecutionBackend, SlotOutcome, WorkUnit};
use crate::sim::SimBackend;
use medvt_frame::{host_executors, WorkerPool};
use medvt_mpsoc::{DvfsPolicy, Platform, PowerModel, SlotReport};
use std::time::Instant;

/// Executes placed work units on the calling thread and the workers
/// of its own [`WorkerPool`].
///
/// A unit's job that panics reaches the caller of the run with its own
/// payload, once every job of the run finished.
#[derive(Debug)]
pub struct ThreadPoolBackend {
    pool: WorkerPool,
    accounting: SimBackend,
}

impl ThreadPoolBackend {
    /// A backend with one executor per platform core, capped at the
    /// host's available parallelism ([`host_executors`]). The thread
    /// that executes a run is one of the executors, so the pool spawns
    /// one thread fewer.
    pub fn new(platform: Platform, power: PowerModel) -> Self {
        let executors = platform.total_cores().min(host_executors());
        Self::with_workers(platform, power, executors)
    }

    /// A backend with an explicit executor count (at least one),
    /// independent of the number of modeled cores: the thread that
    /// executes a run plus `workers − 1` pool threads, so
    /// `with_workers(1)` spawns none and runs every unit on the caller.
    pub fn with_workers(platform: Platform, power: PowerModel, workers: usize) -> Self {
        Self {
            pool: WorkerPool::new(workers),
            accounting: SimBackend::new(platform, power),
        }
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
        let (mut reports, wall_secs) = self.execute_run(policy, slot_secs, vec![work]);
        SlotOutcome {
            report: reports.pop().expect("one report per slot"),
            wall_secs,
        }
    }

    fn execute_run<'scope>(
        &mut self,
        policy: DvfsPolicy,
        slot_secs: f64,
        mut slots: Vec<Vec<WorkUnit<'scope>>>,
    ) -> (Vec<SlotReport>, f64) {
        let t0 = Instant::now();
        let jobs: Vec<_> = slots
            .iter_mut()
            .flatten()
            .filter_map(|unit| unit.job.take())
            .collect();
        let ran_any = !jobs.is_empty();
        // In slot order, so each executor starts slot k's units
        // before slot k+1's; the batch is the run's only barrier.
        self.pool.run(jobs);
        let wall_secs = if ran_any {
            t0.elapsed().as_secs_f64()
        } else {
            0.0
        };
        let reports = slots
            .into_iter()
            .map(|work| self.accounting.execute_slot(policy, slot_secs, work).report)
            .collect();
        (reports, wall_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::thread::ThreadId;
    use std::time::Duration;

    const SLOT: f64 = 1.0 / 24.0;

    /// A (thread, user, item) record of where a job ran.
    type Ran = (ThreadId, usize, usize);

    /// A job that appends where it ran, tagged `(user, item)`, to `log`.
    fn recording_job(
        log: &Mutex<Vec<Ran>>,
        user: usize,
        item: usize,
    ) -> Box<dyn FnOnce() + Send + '_> {
        Box::new(move || {
            let ran = (std::thread::current().id(), user, item);
            log.lock().unwrap().push(ran);
        })
    }

    #[test]
    fn accounting_matches_sim_backend_exactly() {
        // Core 2 gets 1.4 slots of work each slot, so carry crosses
        // every slot boundary of the run.
        let mk_units = |with_jobs: bool| -> Vec<WorkUnit<'static>> {
            [(0, 0, 0, 0.4), (0, 1, 1, 0.9), (1, 0, 2, 1.4)]
                .into_iter()
                .map(|(user, thread, core, slots)| WorkUnit {
                    user,
                    thread,
                    core,
                    cost_fmax_secs: SLOT * slots,
                    job: with_jobs.then(|| {
                        Box::new(|| {
                            std::hint::black_box(0u64);
                        }) as Box<dyn FnOnce() + Send>
                    }),
                })
                .collect()
        };
        let policy = DvfsPolicy::StretchToDeadline;
        let mut sim = SimBackend::new(Platform::quad_core(), PowerModel::default());
        let expected: Vec<SlotReport> = (0..4)
            .map(|_| sim.execute_slot(policy, SLOT, mk_units(false)).report)
            .collect();
        assert!(expected.iter().all(|r| r.deadline_misses > 0));
        let mut pool =
            ThreadPoolBackend::with_workers(Platform::quad_core(), PowerModel::default(), 2);
        for with_jobs in [false, true] {
            pool.reset();
            for report in &expected {
                let out = pool.execute_slot(policy, SLOT, mk_units(with_jobs));
                assert_eq!(&out.report, report);
                assert_eq!(out.wall_secs == 0.0, !with_jobs);
            }
            pool.reset();
            let run = (0..4).map(|_| mk_units(with_jobs)).collect();
            let (reports, wall_secs) = pool.execute_run(policy, SLOT, run);
            assert_eq!(reports, expected);
            assert_eq!(wall_secs == 0.0, !with_jobs);
        }
    }

    #[test]
    fn idle_worker_claims_work_placed_on_a_busy_core() {
        // Every unit is placed on core 0. Job 0 holds its executor for
        // up to 2 s waiting for another job to start, which happens
        // only if the other executor takes work placed on core 0.
        let mut backend =
            ThreadPoolBackend::with_workers(Platform::quad_core(), PowerModel::default(), 2);
        let started = AtomicUsize::new(0);
        let overlapped = AtomicBool::new(false);
        let units: Vec<WorkUnit<'_>> = (0..4)
            .map(|thread| {
                let (started, overlapped) = (&started, &overlapped);
                WorkUnit {
                    user: 0,
                    thread,
                    core: 0,
                    cost_fmax_secs: 1e-4,
                    job: Some(Box::new(move || {
                        started.fetch_add(1, Ordering::SeqCst);
                        if thread == 0 {
                            let deadline = Instant::now() + Duration::from_secs(2);
                            while Instant::now() < deadline {
                                if started.load(Ordering::SeqCst) > 1 {
                                    overlapped.store(true, Ordering::SeqCst);
                                    break;
                                }
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                    })),
                }
            })
            .collect();
        backend.execute_slot(DvfsPolicy::StretchToDeadline, SLOT, units);
        assert_eq!(started.into_inner(), 4);
        assert!(
            overlapped.into_inner(),
            "no other job started while job 0 held its executor"
        );
    }

    #[test]
    fn each_executor_starts_slot_k_before_slot_k_plus_1() {
        let mut backend =
            ThreadPoolBackend::with_workers(Platform::quad_core(), PowerModel::default(), 4);
        let log = Mutex::new(Vec::new());
        let slots: Vec<Vec<WorkUnit<'_>>> = (0..3)
            .map(|slot| {
                (0..8)
                    .map(|thread| WorkUnit {
                        user: slot,
                        thread,
                        core: thread % 4,
                        cost_fmax_secs: 1e-4,
                        job: Some(recording_job(&log, slot, thread)),
                    })
                    .collect()
            })
            .collect();
        let (reports, _) = backend.execute_run(DvfsPolicy::StretchToDeadline, SLOT, slots);
        assert_eq!(reports.len(), 3);
        let log = log.into_inner().unwrap();
        assert_eq!(log.len(), 24);
        let executors: HashSet<ThreadId> = log.iter().map(|r| r.0).collect();
        assert!(executors.len() <= 4, "{} threads", executors.len());
        for executor in &executors {
            let started: Vec<(usize, usize)> = log
                .iter()
                .filter(|r| r.0 == *executor)
                .map(|r| (r.1, r.2))
                .collect();
            assert!(
                started.windows(2).all(|w| w[0] < w[1]),
                "{executor:?} started {started:?}"
            );
        }
    }

    #[test]
    fn every_unit_runs_once_on_the_caller_or_a_pool_worker() {
        // Over five slots the units run on at most the backend's four
        // executors: the caller and the same persistent workers each
        // time, not threads spawned per slot.
        let mut b =
            ThreadPoolBackend::with_workers(Platform::quad_core(), PowerModel::default(), 4);
        let mut executors = HashSet::new();
        for _ in 0..5 {
            let log = Mutex::new(Vec::new());
            let units: Vec<WorkUnit<'_>> = (0..8)
                .map(|i| WorkUnit {
                    user: 3,
                    thread: i,
                    core: i % 4,
                    cost_fmax_secs: 1e-4,
                    job: Some(recording_job(&log, 3, i)),
                })
                .collect();
            let out = b.execute_slot(DvfsPolicy::StretchToDeadline, SLOT, units);
            assert!(out.wall_secs > 0.0);
            let mut log = log.into_inner().unwrap();
            log.sort_unstable_by_key(|r| r.2);
            assert_eq!(log.len(), 8);
            for (i, &(ran_on, user, item)) in log.iter().enumerate() {
                assert_eq!((user, item), (3, i));
                executors.insert(ran_on);
            }
        }
        assert!(executors.len() <= 4, "{} threads", executors.len());
    }

    #[test]
    fn a_panicking_unit_reaches_the_caller_with_its_own_message() {
        let mut backend =
            ThreadPoolBackend::with_workers(Platform::quad_core(), PowerModel::default(), 2);
        let ran = AtomicUsize::new(0);
        let units: Vec<WorkUnit<'_>> = (0..6)
            .map(|thread| {
                let ran = &ran;
                WorkUnit {
                    user: 1,
                    thread,
                    core: thread % 4,
                    cost_fmax_secs: 1e-4,
                    job: Some(Box::new(move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                        if thread == 4 {
                            panic!("tile 4 of user 1 hit a corrupt reference");
                        }
                    })),
                }
            })
            .collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            backend.execute_slot(DvfsPolicy::StretchToDeadline, SLOT, units)
        }));
        let payload = outcome.expect_err("the unit's panic reached the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"tile 4 of user 1 hit a corrupt reference")
        );
        assert_eq!(ran.into_inner(), 6, "every unit ran before the unwind");
    }
}
