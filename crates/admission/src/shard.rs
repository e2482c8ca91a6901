//! Shard selection: which socket a newly admitted user lands on.
//!
//! Shards are per-socket serving domains (one `LoopDriver` + backend
//! each); loads are tracked in fractional cores — the sum of admitted
//! users' Algorithm 2 line 1 demands, headroom included.

use serde::{Deserialize, Serialize};

/// Pluggable placement policy for admitted users.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ShardPolicy {
    /// Place on the least-loaded shard with room (best-fit balance;
    /// the default).
    #[default]
    LeastLoaded,
    /// Blind rotation: each considered request is offered exactly one
    /// shard — the next in rotation — and stays queued when that shard
    /// is full, even if others have room. The classic cheap dispatcher
    /// the related cloud-transcoding work benchmarks against.
    ///
    /// The rotation is positional: which shard a request is offered
    /// depends on how many requests were considered before it, waiters
    /// included. Under a finite budget that makes this the
    /// O(queue)-per-boundary policy: a budget refusal is never offered
    /// to the rotation, so the admission scan cannot stop early and
    /// must walk the whole queue in order.
    RoundRobin,
    /// Texture-class affinity: users of one content class gravitate to
    /// one socket (warm per-class LUTs and caches), falling back to
    /// least-loaded when the preferred socket is full.
    ContentAffinity,
}

impl ShardPolicy {
    /// Display label.
    pub const fn label(&self) -> &'static str {
        match self {
            ShardPolicy::LeastLoaded => "least-loaded",
            ShardPolicy::RoundRobin => "round-robin",
            ShardPolicy::ContentAffinity => "content-affinity",
        }
    }
}

/// FNV-1a — stable across runs and platforms, so affinity decisions
/// replay identically.
pub(crate) fn class_hash(class: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in class.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stateful shard chooser: per-shard loads tracked in place on
/// admit/release, plus the rotation pointer for round-robin.
#[derive(Debug, Clone)]
pub struct Sharder {
    policy: ShardPolicy,
    rotation: usize,
    loads: Vec<f64>,
    capacities: Vec<f64>,
    /// `loads[s] / capacities[s]`, maintained with exactly that
    /// expression so cached values stay bitwise-equal to a fresh
    /// division — the least-loaded tie-break depends on it.
    utilization: Vec<f64>,
}

impl Sharder {
    /// A chooser for `policy` over shards of effective core
    /// `capacities` (sum of core speed factors — shards may differ on
    /// heterogeneous platforms), all starting empty.
    ///
    /// # Panics
    ///
    /// Panics when `capacities` is empty or contains a non-positive
    /// entry.
    pub fn new(policy: ShardPolicy, capacities: Vec<f64>) -> Self {
        assert!(!capacities.is_empty(), "need at least one shard");
        assert!(
            capacities.iter().all(|c| c.is_finite() && *c > 0.0),
            "shard capacities must be positive and finite"
        );
        let n = capacities.len();
        Self {
            policy,
            rotation: 0,
            loads: vec![0.0; n],
            capacities,
            utilization: vec![0.0; n],
        }
    }

    /// The policy in use.
    pub fn policy(&self) -> ShardPolicy {
        self.policy
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

    /// Picks a shard for a user of fractional-core `demand` and
    /// content `class` against the tracked loads. `None`: no shard
    /// (under this policy's rules) has room right now. The caller
    /// reserves the pick with [`admit_load`](Self::admit_load).
    pub fn pick(&mut self, demand: f64, class: &str) -> Option<usize> {
        match self.policy {
            ShardPolicy::LeastLoaded => self.least_loaded(demand),
            ShardPolicy::RoundRobin => {
                let shard = self.rotation % self.loads.len();
                self.rotation = self.rotation.wrapping_add(1);
                (self.loads[shard] + demand <= self.capacities[shard] + 1e-9).then_some(shard)
            }
            ShardPolicy::ContentAffinity => {
                let preferred = (class_hash(class) % self.loads.len() as u64) as usize;
                if self.loads[preferred] + demand <= self.capacities[preferred] + 1e-9 {
                    Some(preferred)
                } else {
                    self.least_loaded(demand)
                }
            }
        }
    }

    /// Least-*utilized* shard where `demand` still fits under that
    /// shard's capacity. Utilization (`load / capacity`) and absolute
    /// load order identically when shards are homogeneous; on
    /// heterogeneous shards of different capacity it keeps big and
    /// small sockets proportionally filled.
    fn least_loaded(&self, demand: f64) -> Option<usize> {
        self.loads
            .iter()
            .zip(&self.capacities)
            .enumerate()
            .filter(|(_, (&load, &cap))| load + demand <= cap + 1e-9)
            .min_by(|(a, _), (b, _)| self.utilization[*a].total_cmp(&self.utilization[*b]))
            .map(|(k, _)| k)
    }

    /// Accounts for `considered` requests being skipped without
    /// individual [`pick`](Self::pick) calls (the early-out path):
    /// round-robin advances its rotation exactly as if each had been
    /// offered a shard, so decision streams stay identical with the
    /// non-early-out controller.
    pub(crate) fn skip_all(&mut self, considered: usize) {
        if self.policy == ShardPolicy::RoundRobin {
            self.rotation = self.rotation.wrapping_add(considered);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP8: [f64; 4] = [8.0; 4];

    /// A chooser over `capacities` with `loads` already admitted.
    fn loaded(policy: ShardPolicy, capacities: &[f64], loads: &[f64]) -> Sharder {
        let mut s = Sharder::new(policy, capacities.to_vec());
        for (shard, &load) in loads.iter().enumerate() {
            s.admit_load(shard, load);
        }
        s
    }

    #[test]
    fn least_loaded_picks_minimum_that_fits() {
        let mut s = loaded(ShardPolicy::LeastLoaded, &CAP8, &[6.0, 2.0, 7.5, 4.0]);
        assert_eq!(s.pick(1.0, "brain"), Some(1));
        // Demand of 5 only fits shard 1.
        assert_eq!(s.pick(5.5, "brain"), Some(1));
        // Nothing fits a 7-core user.
        assert_eq!(s.pick(7.0, "brain"), None);
    }

    #[test]
    fn round_robin_is_blind_to_load() {
        let mut s = loaded(ShardPolicy::RoundRobin, &[8.0; 3], &[7.9, 0.0, 0.0]);
        // First offer goes to shard 0 even though it is nearly full —
        // the request waits rather than spilling elsewhere.
        assert_eq!(s.pick(1.0, "x"), None);
        // Rotation advanced: the next offers land on empty shards.
        assert_eq!(s.pick(1.0, "x"), Some(1));
        assert_eq!(s.pick(1.0, "x"), Some(2));
        assert_eq!(s.pick(1.0, "x"), None);
    }

    #[test]
    fn content_affinity_is_sticky_then_falls_back() {
        let mut s = Sharder::new(ShardPolicy::ContentAffinity, CAP8.to_vec());
        let home = s.pick(1.0, "cardiac").expect("fits");
        // Same class → same socket, deterministically.
        for _ in 0..4 {
            assert_eq!(s.pick(1.0, "cardiac"), Some(home));
        }
        // Preferred socket full → least-loaded fallback.
        s.admit_load(home, 8.0);
        let fallback = s.pick(1.0, "cardiac").expect("fallback");
        assert_ne!(fallback, home);
    }

    #[test]
    fn skip_all_advances_round_robin_like_individual_offers() {
        let mut a = Sharder::new(ShardPolicy::RoundRobin, vec![1.0; 3]);
        let mut b = a.clone();
        for _ in 0..5 {
            b.pick(9.0, "x"); // nothing ever fits
        }
        a.skip_all(5);
        // Rotations now aligned: the next offers match.
        assert_eq!(a.pick(0.5, "x"), b.pick(0.5, "x"));
    }

    #[test]
    fn heterogeneous_capacities_fill_proportionally() {
        // A big shard (8 effective cores) and a little one (2): least-
        // loaded balances *utilization*, so the empty little shard wins
        // over a lightly-used big one, but a demand exceeding its
        // remaining capacity lands on the big shard.
        let caps = [8.0, 2.0];
        let ll = ShardPolicy::LeastLoaded;
        assert_eq!(loaded(ll, &caps, &[1.0, 0.0]).pick(1.0, "x"), Some(1));
        // Both at 50% utilization: tie resolves to the first shard.
        assert_eq!(loaded(ll, &caps, &[4.0, 1.0]).pick(1.0, "x"), Some(0));
        // 3-core demand cannot fit the little shard at all.
        assert_eq!(loaded(ll, &caps, &[0.0, 0.0]).pick(3.0, "x"), Some(0));
        // Round-robin still respects per-shard capacity.
        let mut rr = Sharder::new(ShardPolicy::RoundRobin, caps.to_vec());
        assert_eq!(rr.pick(3.0, "x"), Some(0));
        assert_eq!(rr.pick(3.0, "x"), None);
    }
}
