//! The baseline allocator of Khan et al. \[19\]: one tile per core,
//! first-come-first-served admission, no load sharing between tiles.
//!
//! \[19\] sizes tiles so each one fills a core's capacity at the required
//! framerate, then binds exactly one tile to one core. Cores are not
//! shared between threads, so a user needs as many cores as it has
//! tiles, and the queue admits users in arrival order while whole-user
//! core sets remain. Frequency control is coarse: re-tiling happens
//! only when every core sits at the minimum or the maximum level
//! (`core::Baseline19Controller::set_rails_pinned`).

use crate::alloc::{Allocation, Placement, UserDemand};

/// Allocates one core per tile, users in queue order.
///
/// # Panics
///
/// Panics when `cores` is zero.
pub fn baseline_allocate(cores: usize, users: &[UserDemand]) -> Allocation {
    assert!(cores > 0, "need at least one core");
    let mut admitted = Vec::new();
    let mut rejected = Vec::new();
    let mut placements = Vec::new();
    let mut core_loads = vec![0.0f64; cores];
    let mut next_core = 0usize;
    for u in users {
        let need = u.thread_secs.len();
        if next_core + need <= cores {
            admitted.push(u.user);
            for (t, &secs) in u.thread_secs.iter().enumerate() {
                placements.push(Placement {
                    user: u.user,
                    thread: t,
                    core: next_core,
                    secs,
                });
                core_loads[next_core] = secs;
                next_core += 1;
            }
        } else {
            rejected.push(u.user);
        }
    }
    Allocation {
        admitted,
        rejected,
        placements,
        core_loads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(user: usize, secs: &[f64]) -> UserDemand {
        UserDemand::new(user, secs.to_vec())
    }

    #[test]
    fn one_core_per_tile() {
        let users = vec![demand(0, &[0.01, 0.02]), demand(1, &[0.01])];
        let alloc = baseline_allocate(4, &users);
        assert_eq!(alloc.admitted, vec![0, 1]);
        assert_eq!(alloc.placements.len(), 3);
        // Three distinct cores used, one thread each.
        let mut cores: Vec<usize> = alloc.placements.iter().map(|p| p.core).collect();
        cores.sort_unstable();
        cores.dedup();
        assert_eq!(cores.len(), 3);
    }

    #[test]
    fn queue_order_admission() {
        // First user hogs cores even though later users are lighter —
        // the contrast with Algorithm 2's ascending-demand admission.
        let users = vec![
            demand(0, &[0.04, 0.04, 0.04]), // 3 tiles
            demand(1, &[0.001]),
            demand(2, &[0.001]),
        ];
        let alloc = baseline_allocate(4, &users);
        assert_eq!(alloc.admitted, vec![0, 1]);
        assert_eq!(alloc.rejected, vec![2]);
    }

    #[test]
    fn user_needs_all_cores_or_nothing() {
        let users = vec![demand(0, &[0.01; 3]), demand(1, &[0.01; 3])];
        let alloc = baseline_allocate(4, &users);
        assert_eq!(alloc.admitted, vec![0]);
        assert_eq!(alloc.rejected, vec![1]);
        assert_eq!(alloc.used_cores(), 3);
    }

    #[test]
    fn no_core_sharing() {
        let users = vec![demand(0, &[0.001; 4])];
        let alloc = baseline_allocate(8, &users);
        // Algorithm 2 would pack these on one core; [19] burns four.
        assert_eq!(alloc.used_cores(), 4);
    }
}
