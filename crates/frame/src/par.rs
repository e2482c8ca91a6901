//! One scoped fan-out for pure per-index work.
//!
//! [`par_map`] spreads `f(0..n)` over the host's cores and returns the
//! results in index order. It is how phantom set-up (canvas bands and
//! captured frames) and every frame's tile encoding
//! (`medvt_encoder::encode_frame`) use every core; the serving path's
//! worker pool lives in `medvt-runtime`.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Returns `[f(0), f(1), …, f(n − 1)]`, computed on
/// `min(n, available_parallelism)` executors.
///
/// The calling thread is one of the executors, so a single item or a
/// single available CPU runs everything on the caller and spawns no
/// thread. Executors claim the next unclaimed index from one shared
/// cursor until every index is taken. `f` must not depend on which
/// thread runs it or in which order: the result is then the serial
/// map's, whatever the schedule.
///
/// # Panics
///
/// Panics with the payload of a panicking `f`, once every executor has
/// finished.
///
/// # Examples
///
/// ```
/// let squares = medvt_frame::par_map(5, |i| i * i);
/// assert_eq!(squares, [0, 1, 4, 9, 16]);
/// ```
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    par_map_on(host_executors(), n, f)
}

/// The number of executors [`par_map`] may use: the CPUs this process
/// may run on, read once.
fn host_executors() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// [`par_map`] on at most `executors` executors, the caller included.
fn par_map_on<T: Send>(executors: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let executors = executors.min(n);
    // The cursor only hands out indices; results come back through
    // `join`, which orders every worker's writes before the caller's
    // reads, so the claim needs no stronger ordering.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    // A panic on the caller or a worker leaves the scope only after
    // every spawned executor has been joined. With one executor (or
    // none, when `n` is 0) nothing is spawned and the caller claims
    // every index itself.
    let parts = std::thread::scope(|s| {
        let workers: Vec<_> = (1..executors).map(|_| s.spawn(claim)).collect();
        let mut parts = vec![claim()];
        for worker in workers {
            parts.push(
                worker
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        parts
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, value) in parts.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("the cursor hands out every index once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

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

    fn wait_until(cond: impl Fn() -> bool) -> bool {
        wait_for(Duration::from_secs(10), cond)
    }

    fn item(i: usize) -> (usize, String) {
        (i * i + 3, format!("item {i}"))
    }

    #[test]
    fn equals_the_serial_map_at_every_executor_count() {
        for executors in [1, 2, 3, 8] {
            for n in [0, 1, 2, 3, 33] {
                let serial: Vec<_> = (0..n).map(item).collect();
                assert_eq!(
                    par_map_on(executors, n, item),
                    serial,
                    "{executors} executors, n = {n}"
                );
            }
        }
    }

    #[test]
    fn one_executor_runs_every_item_on_the_caller() {
        let caller = std::thread::current().id();
        for n in [0, 1, 2, 3, 33] {
            let ids = par_map_on(1, n, |_| std::thread::current().id());
            assert_eq!(ids.len(), n);
            assert!(ids.iter().all(|&id| id == caller), "n = {n}");
        }
        // A single item spawns nothing however many executors exist.
        for executors in [2, 3, 8] {
            assert_eq!(
                par_map_on(executors, 1, |_| std::thread::current().id()),
                [caller]
            );
        }
    }

    #[test]
    fn uses_at_most_the_host_executors_and_the_caller() {
        let caller = std::thread::current().id();
        let ids: HashSet<ThreadId> = par_map(64, |_| std::thread::current().id())
            .into_iter()
            .collect();
        assert!(ids.len() <= host_executors(), "{} threads", ids.len());
        if host_executors() == 1 {
            assert_eq!(ids, HashSet::from([caller]), "one CPU spawned a thread");
        }
    }

    /// Maps two items on two executors: one panics on the caller (or
    /// on the worker) while the other, on the other thread, still
    /// reads a value on this test's stack. `par_map` must unwind only
    /// after the reading item's last act.
    fn panic_waits_for_the_other_executor(panic_on_caller: bool) {
        let caller = std::thread::current().id();
        let value = [7u64; 64];
        let reading = AtomicBool::new(false);
        let panicking = AtomicBool::new(false);
        let returned = AtomicBool::new(false);
        let finished = AtomicBool::new(false);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            par_map_on(2, 2, |_| {
                // Neither item can finish before the other started, so
                // the two run on both executors.
                let on_caller = std::thread::current().id() == caller;
                if on_caller == panic_on_caller {
                    assert!(wait_until(|| reading.load(Ordering::SeqCst)));
                    panicking.store(true, Ordering::SeqCst);
                    // Unwinds without the panic hook, whose output
                    // could outlast the hold below.
                    std::panic::resume_unwind(Box::new("the panicking item"));
                }
                reading.store(true, Ordering::SeqCst);
                assert!(wait_until(|| panicking.load(Ordering::SeqCst)));
                // Holds on for 300 ms, or until a defective `par_map`
                // has already unwound.
                wait_for(Duration::from_millis(300), || {
                    returned.load(Ordering::SeqCst)
                });
                let sum: u64 = std::hint::black_box(&value).iter().sum();
                assert_eq!(sum, 7 * 64);
                finished.store(true, Ordering::SeqCst);
            })
        }));
        let finished_on_return = finished.load(Ordering::SeqCst);
        returned.store(true, Ordering::SeqCst);
        let payload = outcome.expect_err("the panic did not reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"the panicking item"),
            "the caller sees the item's own payload"
        );
        assert!(
            finished_on_return,
            "par_map unwound while another executor was still running"
        );
    }

    #[test]
    fn a_panic_on_the_caller_waits_for_the_worker() {
        panic_waits_for_the_other_executor(true);
    }

    #[test]
    fn a_panic_on_a_worker_waits_for_the_caller() {
        panic_waits_for_the_other_executor(false);
    }
}
