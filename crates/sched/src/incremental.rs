//! Staged membership deltas over [`place_threads_on`].
//!
// Vestige: no product code uses this module. It keeps the six
// signatures `benchmark/src/replay.rs` (`sched_script`, the
// `sched.incremental_us_p50` / `sched.replayed_per_delta` rows)
// compiles against; only a `[benchmark]` PR may edit that file, and
// the next one deletes those two rows and this module together.
// `runtime::LoopDriver` does the same thing inline: place from scratch
// when a member or an estimate changed, otherwise keep the placement.

use crate::alloc::{place_threads_on, Allocation, UserDemand};
use std::collections::BTreeMap;

/// Bitwise slice equality — `==` on `f64` treats `0.0 == -0.0`, but the
/// zero's sign participates in the placement's `total_cmp` ordering.
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Algorithm 2 placement for one shard, re-run only when a staged
/// delta changed something. [`allocation`](Self::allocation) is always
/// `place_threads_on(speeds, slot_secs, members sorted by id)`.
#[derive(Debug)]
pub struct IncrementalPlacer {
    speeds: Vec<f64>,
    slot_secs: f64,
    /// Current members, ascending id.
    members: Vec<UserDemand>,
    /// Staged deltas, last one per user wins: `Some` upserts, `None`
    /// removes.
    staged: BTreeMap<usize, Option<Vec<f64>>>,
    alloc: Allocation,
}

impl IncrementalPlacer {
    /// An empty placer for the given platform.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`place_threads_on`].
    pub fn new(speeds: &[f64], slot_secs: f64) -> Self {
        IncrementalPlacer {
            speeds: speeds.to_vec(),
            slot_secs,
            members: Vec::new(),
            staged: BTreeMap::new(),
            alloc: place_threads_on(speeds, slot_secs, &[]),
        }
    }

    /// Stages an upsert of one user's demand.
    pub fn set_user(&mut self, demand: UserDemand) {
        self.staged.insert(demand.user, Some(demand.thread_secs));
    }

    /// Stages removal of one user (no-op if the user is unknown).
    pub fn remove_user(&mut self, user: usize) {
        self.staged.insert(user, None);
    }

    /// The current placement.
    pub fn allocation(&self) -> &Allocation {
        &self.alloc
    }

    /// Threads placed by the last [`refresh`](Self::refresh) that
    /// returned `true`.
    pub fn last_replayed(&self) -> usize {
        self.alloc.placements.len()
    }

    /// Applies staged deltas. Returns `true` when a member joined,
    /// left or changed its demand bitwise, and the placement was
    /// therefore recomputed.
    pub fn refresh(&mut self) -> bool {
        let mut changed = false;
        for (user, delta) in std::mem::take(&mut self.staged) {
            let at = self.members.binary_search_by_key(&user, |m| m.user);
            match (at, delta) {
                (Ok(i), Some(secs)) if bits_eq(&self.members[i].thread_secs, &secs) => continue,
                (Ok(i), Some(secs)) => self.members[i].thread_secs = secs,
                (Err(i), Some(thread_secs)) => {
                    self.members.insert(i, UserDemand { user, thread_secs })
                }
                (Ok(i), None) => drop(self.members.remove(i)),
                (Err(_), None) => continue,
            }
            changed = true;
        }
        if changed {
            self.alloc = place_threads_on(&self.speeds, self.slot_secs, &self.members);
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLOT: f64 = 1.0 / 24.0;

    #[test]
    fn steady_state_refresh_is_a_noop() {
        let mut placer = IncrementalPlacer::new(&[1.0; 8], SLOT);
        placer.set_user(UserDemand::new(3, vec![SLOT / 4.0; 3]));
        placer.set_user(UserDemand::new(7, vec![SLOT / 2.0]));
        assert!(placer.refresh());
        assert_eq!(placer.last_replayed(), 4);
        // Re-staging identical demands, or nothing, places nothing.
        placer.set_user(UserDemand::new(3, vec![SLOT / 4.0; 3]));
        placer.set_user(UserDemand::new(7, vec![SLOT / 2.0]));
        assert!(!placer.refresh(), "identical demands must be a no-op");
        assert!(!placer.refresh());
    }

    #[test]
    fn removal_of_unknown_user_is_a_noop() {
        let mut placer = IncrementalPlacer::new(&[1.0; 4], SLOT);
        placer.set_user(UserDemand::new(1, vec![SLOT / 3.0]));
        assert!(placer.refresh());
        placer.remove_user(99);
        assert!(!placer.refresh());
        assert_eq!(placer.allocation().admitted, vec![1]);
    }

    #[test]
    fn zero_sign_flip_is_a_change() {
        let mut placer = IncrementalPlacer::new(&[1.0; 4], SLOT);
        placer.set_user(UserDemand::new(1, vec![SLOT / 3.0, 0.0]));
        assert!(placer.refresh());
        placer.set_user(UserDemand::new(1, vec![SLOT / 3.0, -0.0]));
        assert!(placer.refresh(), "0.0 -> -0.0 reorders the thread list");
    }

    #[test]
    fn churn_tracks_place_threads_on_over_id_sorted_members() {
        let speeds = [1.0, 1.0, 1.0, 1.0, 0.45, 0.45, 0.45, 0.45];
        let mut placer = IncrementalPlacer::new(&speeds, SLOT);
        let mut mirror: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        let steps: [(usize, Option<Vec<f64>>); 9] = [
            (5, Some(vec![SLOT / 3.0; 4])),
            (0, Some(vec![SLOT / 2.0, SLOT / 4.0])),
            (2, Some(vec![SLOT * 0.9])),
            (0, None),
            (9, Some(vec![SLOT / 4.0; 2])),
            (5, Some(vec![SLOT / 3.0; 4])), // identical upsert
            (2, Some(vec![SLOT * 0.6, SLOT * 0.6])),
            (9, None),
            (5, None),
        ];
        for (user, delta) in steps {
            match delta {
                Some(secs) => {
                    placer.set_user(UserDemand::new(user, secs.clone()));
                    mirror.insert(user, secs);
                }
                None => {
                    placer.remove_user(user);
                    mirror.remove(&user);
                }
            }
            placer.refresh();
            let members: Vec<UserDemand> = mirror
                .iter()
                .map(|(&u, secs)| UserDemand::new(u, secs.clone()))
                .collect();
            assert_eq!(
                placer.allocation(),
                &place_threads_on(&speeds, SLOT, &members)
            );
        }
    }
}
