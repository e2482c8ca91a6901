//! A persistent, work-conserving worker pool that runs one batch of
//! borrow-friendly jobs at a time.
//!
//! [`WorkerPool::run`] hands the pool a batch of jobs in submission
//! order. It wakes at most one worker per job, once, and each woken
//! worker claims the next unclaimed job with one `fetch_add` on the
//! batch's cursor until the batch is empty: no worker idles while a
//! job of the batch waits. A worker therefore starts its own jobs in
//! increasing submission order, whichever jobs it ends up with.
//!
//! Jobs may borrow from the caller's stack: `run` returns only after
//! every job of the batch finished, which is what makes the
//! lifetime-erasing transmute in `run` sound. Completion and panic
//! tracking live in each batch, so concurrent runs on one pool
//! neither wait on each other's jobs nor see each other's panics.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// One run's jobs with its claim cursor and completion counter,
/// shared by the caller and the workers it woke.
struct Batch {
    jobs: Box<[UnsafeCell<Option<Job>>]>,
    /// Index of the next unclaimed job.
    next: AtomicUsize,
    /// Jobs not yet finished; the worker that takes it to zero wakes
    /// `caller`.
    remaining: AtomicUsize,
    panicked: AtomicBool,
    caller: Thread,
}

// SAFETY: job slot `i` is only touched by the one thread whose
// `fetch_add` on `next` returned `i`; every other field is `Sync`.
unsafe impl Sync for Batch {}

impl Batch {
    /// Claims and runs jobs until the cursor passes the last one.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = self.jobs.get(i) else {
                return;
            };
            // SAFETY: this thread claimed index `i`, so it alone
            // touches the slot (see `impl Sync for Batch`).
            if let Some(job) = unsafe { (*slot.get()).take() } {
                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                    self.panicked.store(true, Ordering::Relaxed);
                }
            }
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.caller.unpark();
            }
        }
    }
}

/// The persistent worker pool.
pub(crate) struct WorkerPool {
    senders: Vec<Sender<Arc<Batch>>>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.senders.len())
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawns a pool of `workers` persistent threads (at least one).
    pub(crate) fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = channel::<Arc<Batch>>();
            let handle = std::thread::Builder::new()
                .name(format!("medvt-worker-{w}"))
                .spawn(move || {
                    for batch in rx {
                        batch.work();
                    }
                })
                .expect("spawn pool worker");
            senders.push(tx);
            handles.push(handle);
        }
        Self { senders, handles }
    }

    /// Runs every job of `jobs` on the pool and returns once all of
    /// them finished. Jobs may borrow from the caller; an empty batch
    /// returns at once without waking a worker.
    ///
    /// # Panics
    ///
    /// Panics when any job of *this* batch panicked.
    pub(crate) fn run<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if jobs.is_empty() {
            return;
        }
        let caller = std::thread::current();
        let remaining = AtomicUsize::new(jobs.len());
        // From here on nothing may unwind before the wait below.
        let jobs = jobs
            .into_iter()
            .map(|job| {
                // SAFETY: `run` returns only once `remaining` hit zero,
                // i.e. after every job was called and so dropped;
                // borrows with lifetime 'env, which outlives the call,
                // are live for each job's whole execution.
                let job: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
                UnsafeCell::new(Some(job))
            })
            .collect();
        let batch = Arc::new(Batch {
            jobs,
            next: AtomicUsize::new(0),
            remaining,
            panicked: AtomicBool::new(false),
            caller,
        });
        for tx in self.senders.iter().take(batch.jobs.len()) {
            // Cannot fail: a worker catches every job's panic and
            // exits only when the pool drops its sender.
            let _ = tx.send(Arc::clone(&batch));
        }
        while batch.remaining.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
        if batch.panicked.load(Ordering::Relaxed) {
            panic!("a pool job panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.senders.clear(); // closes the channels; workers exit
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The pool worker running the caller, from its thread name
/// (`medvt-worker-{w}`); `None` off the pool.
#[cfg(test)]
pub(crate) fn current_worker() -> Option<usize> {
    std::thread::current()
        .name()?
        .strip_prefix("medvt-worker-")?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Duration;

    /// Boxes `f` as a job that may borrow from the test's stack.
    fn job<'env>(f: impl FnOnce() + Send + 'env) -> Box<dyn FnOnce() + Send + 'env> {
        Box::new(f)
    }

    #[test]
    fn run_waits_for_borrowed_jobs() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.run(
            (0..64)
                .map(|_| {
                    job(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect(),
        );
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let pool = WorkerPool::new(3);
        let runs: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let off_pool = AtomicBool::new(false);
        pool.run(
            runs.iter()
                .map(|runs| {
                    let off_pool = &off_pool;
                    job(move || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        if !matches!(current_worker(), Some(0..=2)) {
                            off_pool.store(true, Ordering::SeqCst);
                        }
                    })
                })
                .collect(),
        );
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
        assert!(!off_pool.into_inner(), "a job ran off the pool");
    }

    #[test]
    fn each_worker_starts_jobs_in_submission_order() {
        let pool = WorkerPool::new(2);
        let log = Mutex::new(Vec::new());
        pool.run(
            (0..64)
                .map(|i| {
                    let log = &log;
                    job(move || log.lock().unwrap().push((current_worker(), i)))
                })
                .collect(),
        );
        let log = log.into_inner().unwrap();
        let mut all: Vec<usize> = log.iter().map(|&(_, i)| i).collect();
        all.sort_unstable();
        assert_eq!(all, (0..64).collect::<Vec<_>>());
        for worker in 0..2 {
            let started: Vec<usize> = log
                .iter()
                .filter(|r| r.0 == Some(worker))
                .map(|r| r.1)
                .collect();
            assert!(
                started.windows(2).all(|w| w[0] < w[1]),
                "worker {worker} started {started:?}"
            );
        }
    }

    #[test]
    fn empty_run_returns_at_once() {
        // The only worker is held by another run's job until the empty
        // run returns: an empty run that waited on a worker would make
        // that job time out.
        let pool = Arc::new(WorkerPool::new(1));
        let (started_tx, started) = channel();
        let (release, released) = channel::<()>();
        let busy = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let mut on_time = false;
                let flag = &mut on_time;
                pool.run(vec![job(move || {
                    started_tx.send(()).unwrap();
                    *flag = released.recv_timeout(Duration::from_secs(2)).is_ok();
                })]);
                on_time
            })
        };
        started.recv().unwrap();
        pool.run(Vec::new());
        release.send(()).unwrap();
        assert!(busy.join().unwrap(), "the empty run waited on a worker");
    }

    #[test]
    #[should_panic(expected = "pool job panicked")]
    fn job_panic_propagates_to_run() {
        let pool = WorkerPool::new(2);
        pool.run(vec![job(|| panic!("boom"))]);
    }

    #[test]
    fn concurrent_runs_do_not_cross_talk() {
        let pool = Arc::new(WorkerPool::new(2));
        // Run B (panicking) runs on another thread against the same
        // pool while run A runs fine jobs; A must complete normally
        // and B must see its own panic.
        let pool_b = Arc::clone(&pool);
        let b = std::thread::spawn(move || {
            catch_unwind(AssertUnwindSafe(|| {
                pool_b.run(vec![job(|| panic!("run B job"))]);
            }))
            .is_err()
        });
        let count = AtomicUsize::new(0);
        pool.run(
            (0..16)
                .map(|_| {
                    job(|| {
                        count.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect(),
        );
        assert_eq!(count.load(Ordering::SeqCst), 16, "run A ran all jobs");
        assert!(b.join().expect("thread B"), "run B saw its own panic");
    }
}
