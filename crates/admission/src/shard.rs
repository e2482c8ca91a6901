//! Shard selection: which socket a newly admitted user lands on.
//!
//! Shards are per-socket serving domains (one `LoopDriver` + backend
//! each); loads are tracked in fractional cores — the sum of admitted
//! users' Algorithm 2 line 1 demands, headroom included. A user lands
//! on the least-utilized shard it fits.

use serde::{Deserialize, Serialize};

// Vestige: `benchmark/src/control.rs:110` and `benchmark/src/live.rs:158`
// set `OnlineConfig::shard_policy` to this type's one variant.
/// Placement of admitted users; least-utilized is the only choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ShardPolicy {
    /// Place on the least-utilized shard with room.
    #[default]
    LeastLoaded,
}

impl ShardPolicy {
    /// Display label.
    pub const fn label(&self) -> &'static str {
        "least-loaded"
    }
}

/// Stateful shard chooser: per-shard loads tracked in place on
/// admit/release.
#[derive(Debug, Clone)]
pub struct Sharder {
    loads: Vec<f64>,
    capacities: Vec<f64>,
    /// `loads[s] / capacities[s]`, maintained with exactly that
    /// expression so cached values stay bitwise-equal to a fresh
    /// division — the least-utilized tie-break depends on it.
    utilization: Vec<f64>,
}

impl Sharder {
    /// A chooser over shards of effective core `capacities` (sum of
    /// core speed factors — shards may differ on heterogeneous
    /// platforms), all starting empty.
    ///
    /// # Panics
    ///
    /// Panics when `capacities` is empty or contains a non-positive
    /// entry.
    pub fn new(capacities: Vec<f64>) -> Self {
        assert!(!capacities.is_empty(), "need at least one shard");
        assert!(
            capacities.iter().all(|c| c.is_finite() && *c > 0.0),
            "shard capacities must be positive and finite"
        );
        let n = capacities.len();
        Self {
            loads: vec![0.0; n],
            capacities,
            utilization: vec![0.0; n],
        }
    }

    /// Adds an admitted user's fractional-core `demand` to `shard`.
    pub fn admit_load(&mut self, shard: usize, demand: f64) {
        self.loads[shard] += demand;
        self.utilization[shard] = self.loads[shard] / self.capacities[shard];
    }

    /// Removes a departing/evicted user's `demand` from `shard`.
    pub fn release_load(&mut self, shard: usize, demand: f64) {
        self.loads[shard] -= demand;
        self.utilization[shard] = self.loads[shard] / self.capacities[shard];
    }

    /// True when some shard could fit `demand` right now — the
    /// O(shards) early-out probe: when even the smallest queued demand
    /// fits nowhere, the rest of the admission scan can be skipped
    /// (load growth is monotone in demand, so nothing larger fits
    /// either).
    pub fn any_fits(&self, demand: f64) -> bool {
        self.loads
            .iter()
            .zip(&self.capacities)
            .any(|(&load, &cap)| load + demand <= cap + 1e-9)
    }

    /// The least-*utilized* shard where a user of fractional-core
    /// `demand` still fits under that shard's capacity, the first on a
    /// tie; `None` when it fits nowhere right now. Utilization
    /// (`load / capacity`) and absolute load order identically when
    /// shards are homogeneous; on heterogeneous shards of different
    /// capacity it keeps big and small sockets proportionally filled.
    /// The caller reserves the pick with
    /// [`admit_load`](Self::admit_load).
    pub fn pick(&self, demand: f64) -> Option<usize> {
        self.loads
            .iter()
            .zip(&self.capacities)
            .enumerate()
            .filter(|(_, (&load, &cap))| load + demand <= cap + 1e-9)
            .min_by(|(a, _), (b, _)| self.utilization[*a].total_cmp(&self.utilization[*b]))
            .map(|(k, _)| k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A chooser over `capacities` with `loads` already admitted.
    fn loaded(capacities: &[f64], loads: &[f64]) -> Sharder {
        let mut s = Sharder::new(capacities.to_vec());
        for (shard, &load) in loads.iter().enumerate() {
            s.admit_load(shard, load);
        }
        s
    }

    #[test]
    fn least_loaded_picks_minimum_that_fits() {
        let s = loaded(&[8.0; 4], &[6.0, 2.0, 7.5, 4.0]);
        assert_eq!(s.pick(1.0), Some(1));
        // Demand of 5 only fits shard 1.
        assert_eq!(s.pick(5.5), Some(1));
        // Nothing fits a 7-core user.
        assert_eq!(s.pick(7.0), None);
    }

    #[test]
    fn heterogeneous_capacities_fill_proportionally() {
        // A big shard (8 effective cores) and a little one (2): least-
        // loaded balances *utilization*, so the empty little shard wins
        // over a lightly-used big one, but a demand exceeding its
        // remaining capacity lands on the big shard.
        let caps = [8.0, 2.0];
        assert_eq!(loaded(&caps, &[1.0, 0.0]).pick(1.0), Some(1));
        // Both at 50% utilization: tie resolves to the first shard.
        assert_eq!(loaded(&caps, &[4.0, 1.0]).pick(1.0), Some(0));
        // 3-core demand cannot fit the little shard at all.
        assert_eq!(loaded(&caps, &[0.0, 0.0]).pick(3.0), Some(0));
    }
}
