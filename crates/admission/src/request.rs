//! User requests and the arrival queue of the online serving scenario.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Service level a user signs up for — how many consecutive missed
/// one-second windows the controller tolerates before evicting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DeadlineClass {
    /// Live diagnostics: a single sustained miss is disqualifying.
    Strict,
    /// Interactive review (the default tier).
    #[default]
    Standard,
    /// Archival / batch transcodes that tolerate sustained degradation.
    BestEffort,
}

impl DeadlineClass {
    /// Consecutive missed windows tolerated before eviction (scaled by
    /// the controller's base threshold).
    pub(crate) const fn miss_tolerance(&self) -> usize {
        match self {
            DeadlineClass::Strict => 1,
            DeadlineClass::Standard => 2,
            DeadlineClass::BestEffort => 4,
        }
    }

    /// The next-lower service tier — where graceful degradation
    /// re-queues an evicted user (the Li et al. cost/QoS trade).
    /// `None` from [`DeadlineClass::BestEffort`]: there is nothing
    /// below it, so a best-effort eviction is final.
    pub(crate) const fn downgrade(&self) -> Option<DeadlineClass> {
        match self {
            DeadlineClass::Strict => Some(DeadlineClass::Standard),
            DeadlineClass::Standard => Some(DeadlineClass::BestEffort),
            DeadlineClass::BestEffort => None,
        }
    }

    /// Display label.
    pub const fn label(&self) -> &'static str {
        match self {
            DeadlineClass::Strict => "strict",
            DeadlineClass::Standard => "standard",
            DeadlineClass::BestEffort => "best-effort",
        }
    }
}

/// One user's timestamped transcoding request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UserRequest {
    /// Unique user id (doubles as the runtime's user id once admitted).
    pub user: usize,
    /// Slot at which the request enters the queue.
    pub arrival_slot: usize,
    /// Index into the workload set (which video the user transcodes).
    pub profile: usize,
    /// Service tier.
    pub class: DeadlineClass,
    /// Slot at which the user leaves voluntarily (`None`: stays until
    /// the serving horizon ends). A queued user departing before
    /// admission abandons the queue.
    pub departure_slot: Option<usize>,
}

/// What the admission controller decides for one queued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmitDecision {
    /// Admit onto the given shard.
    Admit(usize),
    /// No shard has room now — stay queued for the next GOP boundary.
    Wait,
    /// Never admissible (demand exceeds any shard outright) — drop.
    Reject,
}

/// FIFO queue of arrived-but-not-yet-admitted requests.
///
/// Requests live in a ring of arrival-sequence slots (O(1) push and
/// O(1) keyed removal; a removed slot leaves a hole that iteration
/// skips and front-trimming reclaims) with per-slot buckets indexing
/// departures — so [`drain_departed`](Self::drain_departed) pops
/// exactly the departed requests instead of scanning (and cloning)
/// every pending one at every GOP boundary. Sequence numbers returned
/// by [`push`](Self::push) stay valid for the request's whole queue
/// lifetime, for keyed [`take`](Self::take) and
/// [`contains`](Self::contains).
#[derive(Debug, Clone)]
pub struct RequestQueue {
    /// Sequence number of `slots[0]`.
    base: u64,
    /// Arrival-ordered; `None` marks a request that already left.
    slots: VecDeque<Option<UserRequest>>,
    /// Live (non-hole) entries.
    live: usize,
    /// `dep_buckets[slot]` holds the sequence numbers departing at
    /// `slot` — O(1) pushes and O(departed) drains. Entries go stale
    /// when a request leaves by admission/rejection first; they are
    /// skipped on drain. Its length is the departure bound: departures
    /// at or past it are not indexed (see
    /// [`with_departure_bound`](Self::with_departure_bound)).
    dep_buckets: Vec<Vec<u64>>,
    /// First bucket not yet drained.
    next_drain: usize,
    next_seq: u64,
}

impl RequestQueue {
    /// An empty queue that will never see
    /// [`drain_departed`](Self::drain_departed) called with a slot at
    /// or past `bound` (typically the serving horizon). Departures at
    /// `bound` or later then skip the departure index entirely — on
    /// heavy-tailed session traces most queued sessions outlive the
    /// horizon, so this drops most of the per-arrival indexing cost.
    ///
    /// [`drain_departed`](Self::drain_departed) panics if the promise
    /// is broken.
    pub fn with_departure_bound(bound: usize) -> Self {
        Self {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
            dep_buckets: vec![Vec::new(); bound],
            next_drain: 0,
            next_seq: 0,
        }
    }

    /// Enqueues an arrived request at the tail; returns its stable
    /// sequence number (arrival order, starting at 0).
    pub fn push(&mut self, request: UserRequest) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        // A departure at or past the bound outlives every drain and
        // stays unindexed.
        if let Some(bucket) = request
            .departure_slot
            .and_then(|d| self.dep_buckets.get_mut(d))
        {
            bucket.push(seq);
        }
        self.slots.push_back(Some(request));
        self.live += 1;
        seq
    }

    /// Queued requests, arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &UserRequest> {
        self.slots.iter().flatten()
    }

    /// Number of waiting requests.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when nothing waits.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Departure-index entries currently held (undrained bucket
    /// entries), stale ones included. Purely observational — the
    /// contract "a departure at or past the bound is never indexed" is
    /// asserted through this.
    pub fn indexed_departures(&self) -> usize {
        self.dep_buckets.iter().map(Vec::len).sum()
    }

    /// `true` when the request pushed as `seq` still waits.
    pub fn contains(&self, seq: u64) -> bool {
        seq >= self.base
            && ((seq - self.base) as usize) < self.slots.len()
            && self.slots[(seq - self.base) as usize].is_some()
    }

    /// Removes and returns the request pushed as `seq`, or `None` when
    /// it already left. O(1) plus amortized front-trimming.
    pub fn take(&mut self, seq: u64) -> Option<UserRequest> {
        if seq < self.base {
            return None;
        }
        let idx = (seq - self.base) as usize;
        let taken = self.slots.get_mut(idx)?.take();
        if taken.is_some() {
            self.live -= 1;
            self.trim_front();
        }
        taken
    }

    fn trim_front(&mut self) {
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Removes and returns requests whose departure passed while they
    /// were still queued (the user gave up waiting), in arrival order.
    /// Cost is O(departed · log departed), independent of how many
    /// requests keep waiting.
    ///
    /// # Panics
    ///
    /// Panics when `slot` is at or past the departure bound.
    pub fn drain_departed(&mut self, slot: usize) -> Vec<UserRequest> {
        let bound = self.dep_buckets.len();
        assert!(
            slot < bound,
            "drain_departed({slot}) breaks the departure bound {bound}"
        );
        let mut seqs: Vec<u64> = Vec::new();
        while self.next_drain <= slot {
            let bucket = std::mem::take(&mut self.dep_buckets[self.next_drain]);
            seqs.extend(bucket.into_iter().filter(|&seq| self.contains(seq)));
            self.next_drain += 1;
        }
        seqs.sort_unstable();
        seqs.into_iter()
            .map(|seq| self.take(seq).expect("membership checked"))
            .collect()
    }

    /// Scans the queue in FIFO order, asking `decide` about each
    /// request. `Admit` removes it (returned with its shard), `Wait`
    /// keeps it in place for the next boundary, `Reject` drops it
    /// (returned in the second list). The relative order of waiting
    /// requests is preserved — waiters are simply left untouched.
    ///
    /// `None` ends the scan early, leaving that request and every later
    /// one untouched. The caller is responsible for `None` being sound
    /// — i.e. every unscanned request would have decided `Wait`.
    pub(crate) fn try_admit_while<F>(
        &mut self,
        mut decide: F,
    ) -> (Vec<(UserRequest, usize)>, Vec<UserRequest>)
    where
        F: FnMut(&UserRequest) -> Option<AdmitDecision>,
    {
        let mut leaving: Vec<(u64, AdmitDecision)> = Vec::new();
        'scan: for (idx, slot) in self.slots.iter().enumerate() {
            let Some(request) = slot else { continue };
            match decide(request) {
                None => break 'scan,
                Some(AdmitDecision::Wait) => {}
                Some(verdict) => leaving.push((self.base + idx as u64, verdict)),
            }
        }
        let mut admitted = Vec::new();
        let mut rejected = Vec::new();
        for (seq, verdict) in leaving {
            let request = self.take(seq).expect("seq seen in scan");
            match verdict {
                AdmitDecision::Admit(shard) => admitted.push((request, shard)),
                AdmitDecision::Reject => rejected.push(request),
                AdmitDecision::Wait => unreachable!("waiters stay in the queue"),
            }
        }
        (admitted, rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(user: usize, arrival: usize, departure: Option<usize>) -> UserRequest {
        UserRequest {
            user,
            arrival_slot: arrival,
            profile: 0,
            class: DeadlineClass::Standard,
            departure_slot: departure,
        }
    }

    #[test]
    fn fifo_order_preserved_through_waits() {
        let mut q = RequestQueue::with_departure_bound(128);
        for u in 0..4 {
            q.push(req(u, u, None));
        }
        // Admit evens, keep odds waiting.
        let (admitted, rejected) = q.try_admit_while(|r| {
            Some(if r.user % 2 == 0 {
                AdmitDecision::Admit(r.user / 2)
            } else {
                AdmitDecision::Wait
            })
        });
        assert_eq!(rejected.len(), 0);
        assert_eq!(
            admitted
                .iter()
                .map(|(r, s)| (r.user, *s))
                .collect::<Vec<_>>(),
            vec![(0, 0), (2, 1)]
        );
        assert_eq!(q.iter().map(|r| r.user).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn a_stop_verdict_leaves_the_rest_of_the_queue_unscanned() {
        let mut q = RequestQueue::with_departure_bound(128);
        for u in 0..4 {
            q.push(req(u, 0, None));
        }
        let mut scanned = Vec::new();
        let (admitted, rejected) = q.try_admit_while(|r| {
            scanned.push(r.user);
            match r.user {
                0 => Some(AdmitDecision::Admit(0)),
                1 => Some(AdmitDecision::Reject),
                _ => None,
            }
        });
        assert_eq!(scanned, [0, 1, 2]);
        assert_eq!(admitted.len(), 1);
        assert_eq!(rejected.len(), 1);
        assert_eq!(q.iter().map(|r| r.user).collect::<Vec<_>>(), [2, 3]);
    }

    #[test]
    fn departed_requests_abandon_the_queue() {
        let mut q = RequestQueue::with_departure_bound(128);
        q.push(req(0, 0, Some(10)));
        q.push(req(1, 0, Some(40)));
        q.push(req(2, 0, None));
        let gone = q.drain_departed(16);
        assert_eq!(gone.len(), 1);
        assert_eq!(gone[0].user, 0);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drain_skips_requests_already_admitted() {
        let mut q = RequestQueue::with_departure_bound(128);
        q.push(req(0, 0, Some(5)));
        q.push(req(1, 0, Some(5)));
        // Admit user 0 before its departure passes: its index entry
        // goes stale and must be skipped, not double-drained.
        let (admitted, _) = q.try_admit_while(|r| {
            Some(if r.user == 0 {
                AdmitDecision::Admit(0)
            } else {
                AdmitDecision::Wait
            })
        });
        assert_eq!(admitted.len(), 1);
        let gone = q.drain_departed(5);
        assert_eq!(gone.iter().map(|r| r.user).collect::<Vec<_>>(), vec![1]);
        assert!(q.is_empty());
        // Repeated drain finds nothing.
        assert!(q.drain_departed(100).is_empty());
    }

    #[test]
    fn drain_returns_arrival_order_not_departure_order() {
        let mut q = RequestQueue::with_departure_bound(128);
        q.push(req(0, 0, Some(20)));
        q.push(req(1, 1, Some(10)));
        q.push(req(2, 2, Some(15)));
        let gone = q.drain_departed(20);
        assert_eq!(
            gone.iter().map(|r| r.user).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn departure_bound_skips_out_of_horizon_sessions() {
        let mut q = RequestQueue::with_departure_bound(100);
        q.push(req(0, 0, Some(50)));
        q.push(req(1, 0, Some(100))); // outlives every drain — unindexed
        q.push(req(2, 0, Some(400)));
        let gone = q.drain_departed(99);
        assert_eq!(gone.iter().map(|r| r.user).collect::<Vec<_>>(), vec![0]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    #[should_panic(expected = "breaks the departure bound")]
    fn draining_past_the_bound_panics() {
        let mut q = RequestQueue::with_departure_bound(100);
        q.push(req(0, 0, Some(400)));
        q.drain_departed(100);
    }

    #[test]
    fn reject_drops_request() {
        let mut q = RequestQueue::with_departure_bound(128);
        q.push(req(7, 0, None));
        let (admitted, rejected) = q.try_admit_while(|_| Some(AdmitDecision::Reject));
        assert!(admitted.is_empty());
        assert_eq!(rejected.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn ring_wraps_cleanly_after_amortized_front_trim() {
        let mut q = RequestQueue::with_departure_bound(128);
        let seqs: Vec<u64> = (0..8).map(|u| q.push(req(u, u, None))).collect();
        // Take the whole front half: trim_front advances `base` past
        // every popped slot in one amortized sweep.
        for &seq in &seqs[..4] {
            assert!(q.take(seq).is_some());
        }
        assert_eq!(q.len(), 4);
        // Stale sequences below the new base are gone for good.
        for &seq in &seqs[..4] {
            assert!(!q.contains(seq));
            assert!(q.take(seq).is_none());
        }
        // New pushes reuse the ring storage the trim reclaimed (the
        // VecDeque wraps internally); keyed access and FIFO order must
        // survive the wrap.
        let new_seqs: Vec<u64> = (8..16).map(|u| q.push(req(u, u, None))).collect();
        assert_eq!(new_seqs[0], 8, "sequence numbers never restart");
        assert_eq!(q.len(), 12);
        assert_eq!(
            q.iter().map(|r| r.user).collect::<Vec<_>>(),
            (4..16).collect::<Vec<_>>()
        );
        // Keyed removal still lands on the right request on both sides
        // of the wrap point.
        assert_eq!(q.take(seqs[5]).map(|r| r.user), Some(5));
        assert_eq!(q.take(new_seqs[3]).map(|r| r.user), Some(11));
        assert!(!q.contains(new_seqs[3]));
        assert_eq!(q.len(), 10);
    }

    #[test]
    fn iteration_skips_holes_under_interleaved_take_and_abandon() {
        let mut q = RequestQueue::with_departure_bound(128);
        let seqs: Vec<u64> = (0..6)
            .map(|u| {
                // Odd users depart at slot 10 (abandon candidates).
                let dep = if u % 2 == 1 { Some(10) } else { None };
                q.push(req(u, 0, dep))
            })
            .collect();
        // Punch a mid-queue hole by keyed removal…
        assert_eq!(q.take(seqs[2]).map(|r| r.user), Some(2));
        // …then abandon the odd users around it.
        let gone = q.drain_departed(10);
        assert_eq!(gone.iter().map(|r| r.user).collect::<Vec<_>>(), [1, 3, 5]);
        // Iteration and admission scans both skip every hole and keep
        // arrival order over the survivors.
        assert_eq!(q.iter().map(|r| r.user).collect::<Vec<_>>(), [0, 4]);
        assert_eq!(q.len(), 2);
        let mut scanned = Vec::new();
        let (admitted, rejected) = q.try_admit_while(|r| {
            scanned.push(r.user);
            Some(AdmitDecision::Admit(0))
        });
        assert_eq!(scanned, [0, 4], "scan must never surface a hole");
        assert_eq!(admitted.len(), 2);
        assert!(rejected.is_empty());
        assert!(q.is_empty());
    }

    #[test]
    fn departure_exactly_at_the_bound_is_never_drained() {
        let horizon = 48;
        let mut q = RequestQueue::with_departure_bound(horizon);
        q.push(req(0, 0, Some(horizon - 1))); // last indexable slot
        q.push(req(1, 0, Some(horizon))); // exactly at the bound
        q.push(req(2, 0, Some(horizon + 7))); // past it

        // Draining at the last legal slot catches user 0 only: a
        // departure exactly at the horizon can never be observed by a
        // legal drain, so it is (correctly) unindexed.
        let gone = q.drain_departed(horizon - 1);
        assert_eq!(gone.iter().map(|r| r.user).collect::<Vec<_>>(), [0]);
        assert_eq!(q.iter().map(|r| r.user).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn downgrade_chain_descends_and_terminates() {
        assert_eq!(
            DeadlineClass::Strict.downgrade(),
            Some(DeadlineClass::Standard)
        );
        assert_eq!(
            DeadlineClass::Standard.downgrade(),
            Some(DeadlineClass::BestEffort)
        );
        assert_eq!(DeadlineClass::BestEffort.downgrade(), None);
    }

    #[test]
    fn bounded_queue_reports_indexed_departures() {
        let mut q = RequestQueue::with_departure_bound(100);
        q.push(req(0, 0, Some(50))); // in-horizon: indexed
        q.push(req(1, 0, Some(100))); // at the bound: unindexed
        q.push(req(2, 0, Some(400))); // past it: unindexed
        q.push(req(3, 0, None)); // never departs: unindexed
        assert_eq!(q.indexed_departures(), 1);
        q.drain_departed(60);
        assert_eq!(q.indexed_departures(), 0);
    }

    #[test]
    fn class_tolerances_ordered() {
        assert!(DeadlineClass::Strict.miss_tolerance() < DeadlineClass::Standard.miss_tolerance());
        assert!(
            DeadlineClass::Standard.miss_tolerance() < DeadlineClass::BestEffort.miss_tolerance()
        );
        assert_eq!(DeadlineClass::default(), DeadlineClass::Standard);
    }
}
