//! Differential test of Algorithm 2's placement stage.
//!
//! [`spec`] restates `place_threads_on` with the placement loop's
//! core choice written as a full scan: every candidate is visited,
//! the fitting core nearest the cap wins, ties go to the earlier
//! candidate, and every finish time is a division by the core's speed.
//! The library must place every thread on the same core and leave
//! every core load bit-identical, however it shortens that scan.
//!
//! Speeds mix exact `1.0` with `0.45` and other factors, and thread
//! seconds come from a small set, so equal loads, exact fits
//! (distance 0 to the cap), tied distances and spills all occur.

use medvt_sched::{place_threads_on, UserDemand};
use proptest::prelude::*;

/// The placement stage restated with a full candidate scan.
mod spec {
    use medvt_sched::{Placement, UserDemand};

    fn select_core(
        loads: &[f64],
        speeds: &[f64],
        candidates: &[usize],
        slot_secs: f64,
        cap: f64,
        secs: f64,
    ) -> usize {
        let mut best_fit: Option<(usize, f64)> = None;
        let mut spill = (candidates[0], f64::INFINITY);
        for &k in candidates {
            let with = (loads[k] + secs) / speeds[k];
            if with < spill.1 {
                spill = (k, with);
            }
            if with <= slot_secs + 1e-12 {
                let dist = (cap - with).abs();
                if best_fit.is_none_or(|(_, d)| dist < d) {
                    best_fit = Some((k, dist));
                }
            }
        }
        best_fit.map_or(spill.0, |(k, _)| k)
    }

    /// Placements (largest thread first, stable) and per-core loads.
    pub fn place(
        speeds: &[f64],
        slot_secs: f64,
        users: &[UserDemand],
    ) -> (Vec<Placement>, Vec<f64>) {
        let fps = 1.0 / slot_secs;
        let demanded: f64 = users.iter().map(|u| u.core_demand(fps)).sum();
        let mut threads: Vec<Placement> = users
            .iter()
            .flat_map(|u| {
                u.thread_secs
                    .iter()
                    .enumerate()
                    .map(|(t, &secs)| Placement {
                        user: u.user,
                        thread: t,
                        core: usize::MAX,
                        secs,
                    })
            })
            .collect();
        threads.sort_by(|a, b| b.secs.total_cmp(&a.secs));
        // Fastest cores first, by id among equals, until they cover
        // the demanded cores.
        let mut order: Vec<usize> = (0..speeds.len()).collect();
        order.sort_by(|&a, &b| speeds[b].total_cmp(&speeds[a]).then(a.cmp(&b)));
        let mut n = 0;
        let mut cum = 0.0;
        while n < order.len() && (n == 0 || cum < demanded - 1e-9) {
            cum += speeds[order[n]];
            n += 1;
        }
        let candidates = &order[..n];
        let mut loads = vec![0.0f64; speeds.len()];
        let mut max_norm = 0.0f64;
        for th in &mut threads {
            let cap = max_norm.min(slot_secs);
            let k = select_core(&loads, speeds, candidates, slot_secs, cap, th.secs);
            th.core = k;
            loads[k] += th.secs;
            max_norm = max_norm.max(loads[k] / speeds[k]);
        }
        (threads, loads)
    }
}

const SLOT: f64 = 1.0 / 24.0;

/// Core speed factors: exact reference speed, the big.LITTLE LITTLE
/// factor, and a few others.
const SPEEDS: [f64; 6] = [1.0, 1.0, 0.45, 0.5, 0.8, 1.25];

/// Thread seconds as fractions of the slot: few values, so equal
/// loads and exact fits are common; the larger ones spill.
const SECS: [f64; 7] = [0.0, 0.125, 0.25, 0.25, 0.5, 0.75, 1.5];

fn users_from(draws: &[Vec<usize>]) -> Vec<UserDemand> {
    draws
        .iter()
        .enumerate()
        .map(|(user, tiles)| UserDemand::new(user, tiles.iter().map(|&i| SECS[i] * SLOT).collect()))
        .collect()
}

fn assert_same(speeds: &[f64], users: &[UserDemand]) {
    let got = place_threads_on(speeds, SLOT, users);
    let (placements, loads) = spec::place(speeds, SLOT, users);
    assert_eq!(got.placements, placements, "speeds {speeds:?}");
    let bits = |l: &[f64]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.core_loads), bits(&loads), "speeds {speeds:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn placement_matches_the_full_scan(
        speed_draws in collection::vec(0usize..SPEEDS.len(), 1usize..13),
        user_draws in collection::vec(collection::vec(0usize..SECS.len(), 1usize..7), 1usize..9),
    ) {
        let speeds: Vec<f64> = speed_draws.iter().map(|&i| SPEEDS[i]).collect();
        assert_same(&speeds, &users_from(&user_draws));
    }

    #[test]
    fn homogeneous_placement_matches_the_full_scan(
        cores in 1usize..65,
        user_draws in collection::vec(collection::vec(0usize..SECS.len(), 1usize..9), 1usize..33),
    ) {
        assert_same(&vec![1.0; cores], &users_from(&user_draws));
    }
}

#[test]
fn exact_fits_and_spills_agree() {
    // The 1.5-slot thread goes first and fits nowhere, so it spills;
    // four quarter-slot threads then fill core 1 until the last lands
    // exactly on the cap, and the rest move on to core 2.
    let mut tiles = vec![0.25 * SLOT; 8];
    tiles.push(1.5 * SLOT);
    let users = [UserDemand::new(0, tiles)];
    assert_same(&[1.0; 4], &users);
    let cores: Vec<usize> = place_threads_on(&[1.0; 4], SLOT, &users)
        .placements
        .iter()
        .map(|p| p.core)
        .collect();
    assert_eq!(cores, [0, 1, 1, 1, 1, 2, 2, 2, 2]);
}
