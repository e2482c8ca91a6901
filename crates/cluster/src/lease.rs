//! Segment leasing: the coordinator-side pending pool with
//! timeout/retry/backoff.
//!
//! Life of a segment:
//!
//! ```text
//!          next_ready            grant
//! Pending ───────────▶ (picked) ───────▶ Leased ──▶ complete ──▶ Done
//!    ▲                                     │
//!    │            requeue (attempt < max,  │ deadline passes
//!    └── backoff ── linear backoff) ◀── Expired
//!                                          │ attempt == max
//!                                          ▼
//!                        LeaseFailure::RetriesExhausted
//! ```
//!
//! The pool is pure bookkeeping over caller-supplied clocks
//! (`Instant`s passed in), so every transition is unit-testable
//! without sleeping.

use crate::message::LeaseFailure;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// One outstanding lease: a segment assigned to a node until a
/// deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// Leased segment index.
    pub segment: usize,
    /// Node holding the lease.
    pub node: usize,
    /// 1-based delivery attempt.
    pub attempt: usize,
    /// When the lease was granted.
    pub granted_at: Instant,
    /// When it expires unless completed.
    pub deadline: Instant,
}

/// A pending (not currently leased) segment.
#[derive(Debug, Clone, Copy)]
struct Pending {
    segment: usize,
    /// Next delivery attempt (1 on first lease).
    attempt: usize,
    /// Earliest instant it may be re-leased (`None`: immediately).
    not_before: Option<Instant>,
}

/// The coordinator's lease book: pending segments, outstanding leases,
/// bounded retries.
#[derive(Debug)]
pub struct LeasePool {
    pending: VecDeque<Pending>,
    leases: BTreeMap<usize, Lease>,
    timeout: Duration,
    backoff: Duration,
    max_attempts: usize,
}

impl LeasePool {
    /// A pool with `segments` pending segments (indices `0..segments`,
    /// first attempt each), leases lasting `timeout`, re-leases backed
    /// off by `backoff * previous_attempt`, and at most `max_attempts`
    /// delivery attempts per segment.
    ///
    /// # Panics
    ///
    /// Panics when `max_attempts` is zero.
    pub fn new(segments: usize, timeout: Duration, backoff: Duration, max_attempts: usize) -> Self {
        assert!(max_attempts > 0, "need at least one delivery attempt");
        LeasePool {
            pending: (0..segments)
                .map(|segment| Pending {
                    segment,
                    attempt: 1,
                    not_before: None,
                })
                .collect(),
            leases: BTreeMap::new(),
            timeout,
            backoff,
            max_attempts,
        }
    }

    /// Whether `node` holds at least one outstanding lease.
    pub(crate) fn holds_lease(&self, node: usize) -> bool {
        self.leases.values().any(|l| l.node == node)
    }

    /// The segment at the head of the pending queue (ready or backing
    /// off) — what a `NoLiveNodes` reject names.
    pub(crate) fn first_pending(&self) -> Option<usize> {
        self.pending.front().map(|p| p.segment)
    }

    /// Pops the first pending segment whose backoff has passed at
    /// `now`, returning `(segment, attempt)`. Backing-off entries are
    /// rotated to the tail so one hot segment cannot starve the rest.
    pub fn next_ready(&mut self, now: Instant) -> Option<(usize, usize)> {
        for _ in 0..self.pending.len() {
            let p = self.pending.pop_front().expect("len checked");
            if p.not_before.is_none_or(|t| t <= now) {
                return Some((p.segment, p.attempt));
            }
            self.pending.push_back(p);
        }
        None
    }

    /// Records a granted lease for a segment popped by
    /// [`next_ready`](Self::next_ready).
    ///
    /// # Panics
    ///
    /// Panics when the segment is already leased (a segment is either
    /// pending or leased, never both).
    pub fn grant(&mut self, segment: usize, attempt: usize, node: usize, now: Instant) -> Lease {
        let lease = Lease {
            segment,
            node,
            attempt,
            granted_at: now,
            deadline: now + self.timeout,
        };
        let prior = self.leases.insert(segment, lease);
        assert!(prior.is_none(), "segment {segment} double-leased");
        lease
    }

    /// Completes the lease on `segment`, returning it; `None` when no
    /// lease is outstanding (late result after expiry — the bytes are
    /// still usable, only the lease is gone).
    pub fn complete(&mut self, segment: usize) -> Option<Lease> {
        self.leases.remove(&segment)
    }

    /// Drops a *pending* entry for `segment` (a late result arrived
    /// while the retry sat in the queue). Returns `true` when an entry
    /// was removed.
    pub(crate) fn cancel_pending(&mut self, segment: usize) -> bool {
        let before = self.pending.len();
        self.pending.retain(|p| p.segment != segment);
        before != self.pending.len()
    }

    /// Removes and returns every lease whose deadline passed at `now`.
    pub(crate) fn expired(&mut self, now: Instant) -> Vec<Lease> {
        let dead: Vec<usize> = self
            .leases
            .iter()
            .filter(|(_, l)| l.deadline <= now)
            .map(|(&s, _)| s)
            .collect();
        dead.into_iter()
            .map(|s| self.leases.remove(&s).expect("listed above"))
            .collect()
    }

    /// Removes and returns every outstanding lease held by `node`
    /// (called when a node is declared dead: one expiry condemns all
    /// of its in-flight work at once).
    pub(crate) fn revoke_node(&mut self, node: usize) -> Vec<Lease> {
        let held: Vec<usize> = self
            .leases
            .iter()
            .filter(|(_, l)| l.node == node)
            .map(|(&s, _)| s)
            .collect();
        held.into_iter()
            .map(|s| self.leases.remove(&s).expect("listed above"))
            .collect()
    }

    /// Requeues an expired lease's segment with linear backoff
    /// (`backoff * attempt`), or surfaces the typed reject once its
    /// delivery attempts are exhausted.
    pub(crate) fn requeue(&mut self, lease: Lease, now: Instant) -> Result<(), LeaseFailure> {
        if lease.attempt >= self.max_attempts {
            return Err(LeaseFailure::RetriesExhausted {
                segment: lease.segment,
                attempts: lease.attempt,
            });
        }
        self.pending.push_back(Pending {
            segment: lease.segment,
            attempt: lease.attempt + 1,
            not_before: Some(now + self.backoff * lease.attempt as u32),
        });
        Ok(())
    }

    /// How long the coordinator may sleep at `now` before something
    /// can change on its own: the nearest lease deadline or pending
    /// backoff expiry. `None` when nothing is outstanding or backing
    /// off.
    pub(crate) fn next_wakeup(&self, now: Instant) -> Option<Duration> {
        let lease_deadline = self.leases.values().map(|l| l.deadline).min();
        let backoff_ready = self.pending.iter().filter_map(|p| p.not_before).min();
        [lease_deadline, backoff_ready]
            .into_iter()
            .flatten()
            .min()
            .map(|t| t.saturating_duration_since(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Duration = Duration::from_millis(100);
    const B: Duration = Duration::from_millis(10);

    #[test]
    fn segments_flow_pending_to_leased_to_done() {
        let mut pool = LeasePool::new(2, T, B, 3);
        let now = Instant::now();
        assert_eq!(pool.pending.len(), 2);
        let (seg, attempt) = pool.next_ready(now).expect("ready");
        assert_eq!((seg, attempt), (0, 1));
        let lease = pool.grant(seg, attempt, 7, now);
        assert_eq!(lease.node, 7);
        assert_eq!(pool.leases.len(), 1);
        assert_eq!(pool.complete(0).map(|l| l.attempt), Some(1));
        let (seg, attempt) = pool.next_ready(now).expect("ready");
        pool.grant(seg, attempt, 7, now);
        pool.complete(1).expect("leased");
        assert!(pool.pending.is_empty() && pool.leases.is_empty());
        assert!(pool.complete(0).is_none(), "completion is idempotent");
    }

    #[test]
    fn expiry_requeues_with_growing_backoff_until_exhausted() {
        let mut pool = LeasePool::new(1, T, B, 3);
        let t0 = Instant::now();
        let mut now = t0;
        for attempt in 1..=3usize {
            let (seg, a) = pool.next_ready(now).expect("ready");
            assert_eq!(a, attempt);
            pool.grant(seg, a, 0, now);
            // Not expired before the deadline.
            assert!(pool.expired(now + T / 2).is_empty());
            now += T;
            let expired = pool.expired(now);
            assert_eq!(expired.len(), 1);
            let lease = expired[0];
            if attempt < 3 {
                pool.requeue(lease, now).expect("retries remain");
                // Backing off: not ready immediately, ready after
                // backoff * attempt.
                assert!(pool.next_ready(now).is_none());
                now += B * attempt as u32;
            } else {
                let err = pool.requeue(lease, now).expect_err("exhausted");
                assert_eq!(
                    err,
                    LeaseFailure::RetriesExhausted {
                        segment: 0,
                        attempts: 3
                    }
                );
            }
        }
    }

    #[test]
    fn backoff_rotation_does_not_starve_other_segments() {
        let mut pool = LeasePool::new(3, T, Duration::from_secs(1000), 5);
        let now = Instant::now();
        // Lease and expire segment 0: it requeues far in the future.
        let (s0, a0) = pool.next_ready(now).expect("ready");
        pool.grant(s0, a0, 0, now);
        let lease = pool.expired(now + 2 * T).remove(0);
        pool.requeue(lease, now + 2 * T).expect("retry");
        // Segments 1 and 2 are still immediately ready.
        assert_eq!(pool.next_ready(now + 2 * T), Some((1, 1)));
        assert_eq!(pool.next_ready(now + 2 * T), Some((2, 1)));
        assert_eq!(pool.next_ready(now + 2 * T), None, "0 is backing off");
        assert_eq!(pool.pending.len(), 1);
    }

    #[test]
    fn revoke_node_condemns_every_lease_it_holds() {
        let mut pool = LeasePool::new(3, T, B, 3);
        let now = Instant::now();
        for node in [5usize, 5, 9] {
            let (s, a) = pool.next_ready(now).expect("ready");
            pool.grant(s, a, node, now);
        }
        assert!(pool.holds_lease(5));
        let revoked = pool.revoke_node(5);
        assert_eq!(revoked.len(), 2);
        assert!(!pool.holds_lease(5));
        assert_eq!(pool.leases.len(), 1, "node 9's lease survives");
    }

    #[test]
    fn wakeup_tracks_nearest_deadline() {
        let mut pool = LeasePool::new(2, T, B, 3);
        let now = Instant::now();
        assert_eq!(pool.next_wakeup(now), None, "nothing outstanding");
        let (s, a) = pool.next_ready(now).expect("ready");
        pool.grant(s, a, 0, now);
        let wake = pool.next_wakeup(now).expect("lease outstanding");
        assert!(wake <= T);
        assert!(wake > T / 2);
    }

    #[test]
    fn cancel_pending_removes_a_requeued_segment() {
        let mut pool = LeasePool::new(1, T, B, 3);
        let now = Instant::now();
        let (s, a) = pool.next_ready(now).expect("ready");
        pool.grant(s, a, 0, now);
        let lease = pool.expired(now + 2 * T).remove(0);
        pool.requeue(lease, now).expect("retry");
        assert!(pool.cancel_pending(0), "late result cancels the retry");
        assert!(pool.pending.is_empty() && pool.leases.is_empty());
        assert!(!pool.cancel_pending(0));
    }
}
