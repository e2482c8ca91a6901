//! A persistent, work-conserving worker pool that runs one batch of
//! borrow-friendly jobs at a time, on the calling thread and its
//! workers.
//!
//! A pool of `n` executors is the thread that calls
//! [`WorkerPool::run`] plus `n − 1` persistent workers. `run` hands a
//! batch of jobs in submission order to at most `min(jobs, n) − 1`
//! workers, waking each once, then claims jobs itself: every executor
//! claims the next unclaimed job with one `fetch_add` on the batch's
//! cursor until the batch is empty, so no executor idles while a job
//! of the batch waits. An executor therefore starts its own jobs in
//! increasing submission order, whichever jobs it ends up with. The
//! caller parks only while the last jobs on workers finish, and a
//! one-executor pool spawns no thread at all.
//!
//! Jobs may borrow from the caller's stack: `run` returns or unwinds
//! only after every job of the batch finished, which is what makes the
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
    /// Jobs not yet finished; the executor that takes it to zero wakes
    /// `caller`.
    remaining: AtomicUsize,
    panicked: AtomicBool,
    caller: Thread,
}

// SAFETY: job slot `i` is only touched by the one thread whose
// `fetch_add` on `next` returned `i`; every other field is `Sync`.
unsafe impl Sync for Batch {}

impl Batch {
    /// Claims and runs jobs until the cursor passes the last one. A
    /// job's panic is caught and recorded, so this never unwinds.
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
            // When the caller itself finishes the last job, this
            // leaves it an unpark token: its next `park` may return at
            // once, which every `park` loop tolerates.
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.caller.unpark();
            }
        }
    }
}

/// The persistent worker pool: the calling thread plus its workers.
pub(crate) struct WorkerPool {
    senders: Vec<Sender<Arc<Batch>>>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("executors", &(self.senders.len() + 1))
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// A pool of `executors` (at least one): whichever thread calls
    /// [`run`](Self::run), plus `executors − 1` persistent threads.
    pub(crate) fn new(executors: usize) -> Self {
        let workers = executors.max(1) - 1;
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

    /// Runs every job of `jobs` on the calling thread and at most
    /// `min(jobs, executors) − 1` workers, and returns once all of
    /// them finished. Jobs may borrow from the caller; an empty batch
    /// returns at once without waking a worker.
    ///
    /// # Panics
    ///
    /// Panics when any job of *this* batch panicked, once every job of
    /// the batch finished.
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
                // SAFETY: `run` neither returns nor unwinds before
                // `remaining` hit zero, i.e. before every job was
                // called and so dropped: the workers' jobs and the
                // caller's own claims alike run inside `Batch::work`'s
                // `catch_unwind`, and the only panic below comes after
                // the wait. Borrows with lifetime 'env, which outlives
                // the call, are live for each job's whole execution.
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
        for tx in self.senders.iter().take(batch.jobs.len() - 1) {
            // Cannot fail: a worker catches every job's panic and
            // exits only when the pool drops its sender.
            let _ = tx.send(Arc::clone(&batch));
        }
        batch.work();
        while batch.remaining.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
        if batch.panicked.load(Ordering::Relaxed) {
            panic!("a pool job panicked");
        }
    }

    /// The threads that may run a job of a `run` called from this
    /// thread: this thread first, then the pool's workers.
    #[cfg(test)]
    pub(crate) fn executors(&self) -> Vec<std::thread::ThreadId> {
        let caller = std::thread::current().id();
        std::iter::once(caller)
            .chain(self.handles.iter().map(|h| h.thread().id()))
            .collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    /// Boxes `f` as a job that may borrow from the test's stack.
    fn job<'env>(f: impl FnOnce() + Send + 'env) -> Box<dyn FnOnce() + Send + 'env> {
        Box::new(f)
    }

    /// Spins until `cond` holds; false if it did not within `limit`.
    fn wait_for(limit: Duration, cond: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + limit;
        while !cond() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// Spins until `cond` holds; false if it did not within 10 s.
    fn wait_until(cond: impl Fn() -> bool) -> bool {
        wait_for(Duration::from_secs(10), cond)
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
        let executors = pool.executors();
        let runs: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let stray = AtomicBool::new(false);
        pool.run(
            runs.iter()
                .map(|runs| {
                    let (stray, executors) = (&stray, &executors);
                    job(move || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        if !executors.contains(&std::thread::current().id()) {
                            stray.store(true, Ordering::SeqCst);
                        }
                    })
                })
                .collect(),
        );
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
        assert!(
            !stray.into_inner(),
            "a job ran on neither the caller nor a pool worker"
        );
    }

    #[test]
    fn each_executor_starts_jobs_in_submission_order() {
        let pool = WorkerPool::new(2);
        let executors = pool.executors();
        let log = Mutex::new(Vec::new());
        pool.run(
            (0..64)
                .map(|i| {
                    let log = &log;
                    job(move || log.lock().unwrap().push((std::thread::current().id(), i)))
                })
                .collect(),
        );
        let log = log.into_inner().unwrap();
        let mut all: Vec<usize> = log.iter().map(|&(_, i)| i).collect();
        all.sort_unstable();
        assert_eq!(all, (0..64).collect::<Vec<_>>());
        assert!(log.iter().all(|r| executors.contains(&r.0)));
        for executor in &executors {
            let started: Vec<usize> = log
                .iter()
                .filter(|r| r.0 == *executor)
                .map(|r| r.1)
                .collect();
            assert!(
                started.windows(2).all(|w| w[0] < w[1]),
                "{executor:?} started {started:?}"
            );
        }
    }

    #[test]
    fn a_one_executor_pool_runs_every_job_on_the_caller() {
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        assert_eq!(pool.executors(), [caller], "spawned a thread");
        let ran = Mutex::new(Vec::new());
        pool.run(
            (0..16)
                .map(|i| {
                    let ran = &ran;
                    job(move || ran.lock().unwrap().push((std::thread::current().id(), i)))
                })
                .collect(),
        );
        let ran = ran.into_inner().unwrap();
        assert_eq!(ran, (0..16).map(|i| (caller, i)).collect::<Vec<_>>());
    }

    #[test]
    fn a_run_uses_at_most_min_jobs_executors_threads_the_caller_among_them() {
        // Each job waits until min(k, n) jobs have started, so the run
        // finishes only once that many executors each hold a job: a
        // pool that woke too few workers, or left the caller idle,
        // times out instead.
        for n in 1..=4 {
            let pool = WorkerPool::new(n);
            let executors = pool.executors();
            assert_eq!(executors.len(), n);
            for k in 1..=6 {
                let busy = k.min(n);
                let started = AtomicUsize::new(0);
                let timed_out = AtomicBool::new(false);
                let ran = Mutex::new(HashSet::new());
                pool.run(
                    (0..k)
                        .map(|_| {
                            let (started, timed_out, ran) = (&started, &timed_out, &ran);
                            job(move || {
                                ran.lock().unwrap().insert(std::thread::current().id());
                                started.fetch_add(1, Ordering::SeqCst);
                                if !wait_until(|| started.load(Ordering::SeqCst) >= busy) {
                                    timed_out.store(true, Ordering::SeqCst);
                                }
                            })
                        })
                        .collect(),
                );
                let ran = ran.into_inner().unwrap();
                assert!(!timed_out.into_inner(), "n = {n}, k = {k}: timed out");
                assert_eq!(ran.len(), busy, "n = {n}, k = {k}: {ran:?}");
                assert!(ran.contains(&executors[0]), "n = {n}, k = {k}: caller idle");
                assert!(ran.iter().all(|id| executors.contains(id)));
            }
        }
    }

    /// Runs two jobs on a two-executor pool: one panics on the caller
    /// (or on the worker) while the other, on the other thread, still
    /// reads a value on this test's stack. `run` must unwind only
    /// after the reading job's last act.
    fn panic_waits_for_a_borrowing_job(panic_on_caller: bool) {
        let caller = std::thread::current().id();
        let value = [7u64; 64];
        let borrowing = AtomicBool::new(false);
        let panicking = AtomicBool::new(false);
        let returned = AtomicBool::new(false);
        let finished = AtomicBool::new(false);
        // Declared after what its jobs borrow, so that even a `run`
        // that unwound early is joined before those values drop.
        let pool = WorkerPool::new(2);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run(
                (0..2)
                    .map(|_| {
                        let (value, borrowing, panicking, returned, finished) =
                            (&value, &borrowing, &panicking, &returned, &finished);
                        job(move || {
                            // Neither job can finish before the other
                            // started, so the two run on both threads.
                            let on_caller = std::thread::current().id() == caller;
                            if on_caller == panic_on_caller {
                                assert!(wait_until(|| borrowing.load(Ordering::SeqCst)));
                                panicking.store(true, Ordering::SeqCst);
                                // Unwinds without the panic hook, whose
                                // output could outlast the hold below.
                                std::panic::resume_unwind(Box::new("the panicking job"));
                            }
                            borrowing.store(true, Ordering::SeqCst);
                            assert!(wait_until(|| panicking.load(Ordering::SeqCst)));
                            // Holds the borrow for 300 ms, or until a
                            // defective `run` has already returned.
                            wait_for(Duration::from_millis(300), || {
                                returned.load(Ordering::SeqCst)
                            });
                            let sum: u64 = std::hint::black_box(value).iter().sum();
                            assert_eq!(sum, 7 * 64);
                            finished.store(true, Ordering::SeqCst);
                        })
                    })
                    .collect(),
            );
        }));
        let finished_on_return = finished.load(Ordering::SeqCst);
        returned.store(true, Ordering::SeqCst);
        assert!(outcome.is_err(), "the panic did not reach the caller");
        assert!(
            finished_on_return,
            "run unwound while a job still borrowed the caller's stack"
        );
    }

    #[test]
    fn a_panic_on_the_caller_waits_for_a_worker_borrowing_its_stack() {
        panic_waits_for_a_borrowing_job(true);
    }

    #[test]
    fn a_panic_on_a_worker_waits_for_the_caller_borrowing_its_stack() {
        panic_waits_for_a_borrowing_job(false);
    }

    #[test]
    fn empty_run_returns_at_once() {
        // Both executors of another run, its caller and the pool's one
        // worker, are held until the empty run returns: an empty run
        // that waited on a worker would make those jobs time out.
        let pool = WorkerPool::new(2);
        let started = AtomicUsize::new(0);
        let released = AtomicBool::new(false);
        let on_time = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                pool.run(
                    (0..2)
                        .map(|_| {
                            job(|| {
                                started.fetch_add(1, Ordering::SeqCst);
                                if wait_until(|| released.load(Ordering::SeqCst)) {
                                    on_time.fetch_add(1, Ordering::SeqCst);
                                }
                            })
                        })
                        .collect(),
                )
            });
            assert!(wait_until(|| started.load(Ordering::SeqCst) == 2));
            pool.run(Vec::new());
            released.store(true, Ordering::SeqCst);
        });
        assert_eq!(on_time.into_inner(), 2, "the empty run waited on a worker");
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
