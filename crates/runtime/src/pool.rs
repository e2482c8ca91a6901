//! A persistent per-core worker pool with FIFO queues and scoped,
//! borrow-friendly job submission.
//!
//! One OS thread per logical core; each worker owns a private FIFO
//! channel, so jobs submitted to the same core run in submission order
//! — exactly the per-core queue discipline Algorithm 2's placement
//! assumes. Jobs may borrow from the caller's stack: [`WorkerPool::scope`]
//! blocks until every submitted job finished, which is what makes the
//! lifetime-erasing transmute in [`PoolScope::submit`] sound.
//!
//! Completion and panic tracking are **per scope** (each scope owns
//! its own counter/flag, carried into the job wrappers), so
//! concurrent scopes on one pool neither block on each other's jobs
//! nor steal each other's panics.

use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Per-scope completion state, shared between the scope and the
/// wrappers of the jobs it submitted.
struct ScopeState {
    pending: Mutex<usize>,
    idle: Condvar,
    panicked: AtomicBool,
}

impl ScopeState {
    fn wait_idle(&self) {
        let mut pending = self.pending.lock().expect("pending lock");
        while *pending > 0 {
            pending = self.idle.wait(pending).expect("idle wait");
        }
    }
}

/// The persistent worker pool.
pub(crate) struct WorkerPool {
    senders: Vec<Sender<Job>>,
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
            let (tx, rx) = channel::<Job>();
            let handle = std::thread::Builder::new()
                .name(format!("medvt-worker-{w}"))
                .spawn(move || {
                    for job in rx {
                        job();
                    }
                })
                .expect("spawn pool worker");
            senders.push(tx);
            handles.push(handle);
        }
        Self { senders, handles }
    }

    /// Runs `f` with a scope whose submitted jobs may borrow from the
    /// caller. Returns once every job submitted inside `f` completed.
    /// Scopes are independent: concurrent scopes on the same pool wait
    /// only for their own jobs.
    ///
    /// # Panics
    ///
    /// Panics when any job submitted by *this* scope panicked.
    pub(crate) fn scope<'env, R>(&self, f: impl FnOnce(&PoolScope<'_, 'env>) -> R) -> R {
        let state = Arc::new(ScopeState {
            pending: Mutex::new(0),
            idle: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        // The guard waits even when `f` unwinds: submitted jobs borrow
        // the caller's stack, so the frame must not be torn down while
        // any of them still runs — this wait is what makes the
        // lifetime erasure in `PoolScope::submit` sound.
        struct WaitGuard<'s>(&'s ScopeState);
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                self.0.wait_idle();
            }
        }
        let guard = WaitGuard(&state);
        let scope = PoolScope {
            pool: self,
            state: Arc::clone(&state),
            _env: PhantomData,
        };
        let out = f(&scope);
        drop(guard);
        if state.panicked.load(Ordering::SeqCst) {
            panic!("a pool job panicked");
        }
        out
    }

    /// Enqueues an already-wrapped job on `core`'s FIFO queue.
    fn dispatch(&self, core: usize, job: Job) {
        let worker = core % self.senders.len();
        self.senders[worker]
            .send(job)
            .expect("worker alive while pool alive");
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

/// Submission handle inside [`WorkerPool::scope`].
pub(crate) struct PoolScope<'pool, 'env> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl std::fmt::Debug for PoolScope<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolScope").finish_non_exhaustive()
    }
}

impl<'env> PoolScope<'_, 'env> {
    /// Enqueues `job` on the FIFO queue of `core` (modulo the worker
    /// count).
    pub(crate) fn submit(&self, core: usize, job: impl FnOnce() + Send + 'env) {
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(job);
        // SAFETY: `scope` blocks until this scope's pending count hits
        // zero (even on unwind, via its guard), so borrows with
        // lifetime 'env — which outlives the scope call — are live for
        // the job's whole execution.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        {
            let mut pending = self.state.pending.lock().expect("pending lock");
            *pending += 1;
        }
        let state = Arc::clone(&self.state);
        self.pool.dispatch(
            core,
            Box::new(move || {
                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                    state.panicked.store(true, Ordering::SeqCst);
                }
                let mut pending = state.pending.lock().expect("pending lock");
                *pending -= 1;
                if *pending == 0 {
                    state.idle.notify_all();
                }
            }),
        );
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
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_waits_for_borrowed_jobs() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for i in 0..64 {
                let counter = &counter;
                s.submit(i % 4, move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn per_core_fifo_order_is_preserved() {
        let pool = WorkerPool::new(2);
        let order = Mutex::new(Vec::new());
        pool.scope(|s| {
            for i in 0..32 {
                let order = &order;
                s.submit(0, move || {
                    order.lock().unwrap().push(i);
                });
            }
        });
        let seen = order.into_inner().unwrap();
        assert_eq!(seen, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn log_records_worker_assignment() {
        let pool = WorkerPool::new(3);
        let log = Mutex::new(Vec::new());
        pool.scope(|s| {
            for item in 0..9 {
                let log = &log;
                s.submit(item % 3, move || {
                    log.lock().unwrap().push((current_worker(), 7, item));
                });
            }
        });
        let log = log.into_inner().unwrap();
        assert_eq!(log.len(), 9);
        for &(worker, user, item) in &log {
            assert_eq!(worker, Some(item % 3));
            assert_eq!(user, 7);
        }
    }

    #[test]
    fn oversubscribed_core_ids_wrap() {
        let pool = WorkerPool::new(2);
        let ran_on = Mutex::new(None);
        pool.scope(|s| {
            let ran_on = &ran_on;
            s.submit(31, move || *ran_on.lock().unwrap() = current_worker());
        });
        assert_eq!(ran_on.into_inner().unwrap(), Some(31 % 2));
    }

    #[test]
    #[should_panic(expected = "pool job panicked")]
    fn job_panic_propagates_to_scope() {
        let pool = WorkerPool::new(2);
        pool.scope(|s| {
            s.submit(0, || panic!("boom"));
        });
    }

    #[test]
    fn concurrent_scopes_do_not_cross_talk() {
        let pool = Arc::new(WorkerPool::new(2));
        let started = Arc::new(AtomicUsize::new(0));
        // Scope B (panicking) runs on another thread against the same
        // pool while scope A runs fine jobs; A must complete normally
        // and B must see its own panic.
        let pool_b = Arc::clone(&pool);
        let b = std::thread::spawn(move || {
            catch_unwind(AssertUnwindSafe(|| {
                pool_b.scope(|s| {
                    s.submit(0, || panic!("scope B job"));
                });
            }))
            .is_err()
        });
        let count = AtomicUsize::new(0);
        pool.scope(|s| {
            started.store(1, Ordering::SeqCst);
            for i in 0..16 {
                let count = &count;
                s.submit(i, move || {
                    count.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(count.load(Ordering::SeqCst), 16, "scope A ran all jobs");
        assert!(b.join().expect("thread B"), "scope B saw its own panic");
    }
}
