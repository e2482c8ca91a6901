//! The shared pool: [`par_map`] is [`WorkerPool::map`] on one pool of
//! [`host_executors`] executors, built on first use. Phantom set-up
//! and every frame's tile encoding fan out through it; the serving
//! path's `ThreadPoolBackend` runs its own pool of the same type.

use crate::WorkerPool;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Returns `[f(0), f(1), …, f(n − 1)]`, computed on
/// `min(n, host_executors())` executors of the shared pool.
///
/// The calling thread is one of the executors, so a single item or a
/// single available CPU runs everything on the caller. The pool's
/// workers persist: consecutive calls run on one fixed set of threads,
/// so a worker's thread-local state (the encoder's tile scratch) stays
/// warm. Executors claim the next unclaimed index from one shared
/// cursor until every index is taken. `f` must not depend on which
/// thread runs it or in which order: the result is then the serial
/// map's, whatever the schedule.
///
/// An item may call `par_map` itself, and threads may call it at once:
/// each caller works its own batch (see [`WorkerPool`]).
///
/// # Panics
///
/// Panics with the payload of the first panicking `f`, once every item
/// has finished.
///
/// # Examples
///
/// ```
/// let squares = medvt_frame::par_map(5, |i| i * i);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    host_pool().map(n, f)
}

/// The CPUs this process may run on, read once: the executor count of
/// the pool behind [`par_map`] (the first call of either builds it),
/// and the cap on `medvt_runtime::ThreadPoolBackend::new`'s executors.
pub fn host_executors() -> usize {
    host_pool().executors()
}

/// Never dropped: its workers live as long as the process.
fn host_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        WorkerPool::new(std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// Spins until `cond` holds or `limit` passed.
    fn wait_for(limit: Duration, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + limit;
        while !cond() && Instant::now() < deadline {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_par_map_item_that_calls_par_map_finishes() {
        let nested = par_map(6, |i| par_map(5, |j| 10 * i + j));
        let serial: Vec<Vec<usize>> = (0..6)
            .map(|i| (0..5).map(|j| 10 * i + j).collect())
            .collect();
        assert_eq!(nested, serial);
    }

    #[test]
    fn consecutive_calls_run_on_one_fixed_set_of_threads() {
        // Each item holds its executor until every executor of the call
        // started one (or 2 s passed), so each call spreads over all of
        // them: a fan-out that spawned threads per call would show more
        // distinct threads over the calls than the pool has executors.
        let executors = host_executors();
        let mut seen = HashSet::new();
        for _ in 0..3 {
            let started = AtomicUsize::new(0);
            let ids: Vec<ThreadId> = par_map(executors, |_| {
                started.fetch_add(1, Ordering::SeqCst);
                wait_for(Duration::from_secs(2), || {
                    started.load(Ordering::SeqCst) >= executors
                });
                std::thread::current().id()
            });
            seen.extend(ids);
        }
        assert!(seen.len() <= executors, "{} threads", seen.len());
        if executors == 1 {
            assert_eq!(seen, HashSet::from([std::thread::current().id()]));
        }
    }

    #[test]
    fn concurrent_callers_get_their_own_results_and_panics() {
        // Two threads map at once, ten rounds: one maps squares, the
        // other a batch whose item 3 panics with its own message.
        let both = Barrier::new(2);
        std::thread::scope(|s| {
            let panicking = s.spawn(|| {
                (0..10)
                    .map(|round| {
                        both.wait();
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            par_map(8, |i| {
                                if i == 3 {
                                    std::panic::resume_unwind(Box::new(format!("round {round}")));
                                }
                                i
                            })
                        }));
                        let payload = outcome.err()?.downcast::<String>().ok()?;
                        Some(*payload)
                    })
                    .collect::<Vec<_>>()
            });
            // Asserted only after both threads finished every round, so
            // a failure cannot leave the other thread at the barrier.
            let squares: Vec<Vec<usize>> = (0..10)
                .map(|_| {
                    both.wait();
                    par_map(64, |i| i * i)
                })
                .collect();
            let messages = panicking.join().expect("the panicking caller");
            assert!(squares
                .iter()
                .all(|s| *s == (0..64).map(|i| i * i).collect::<Vec<_>>()));
            let expected: Vec<_> = (0..10)
                .map(|round| Some(format!("round {round}")))
                .collect();
            assert_eq!(messages, expected);
        });
    }
}
