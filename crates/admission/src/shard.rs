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
    /// included. That makes this the O(queue)-per-boundary policy —
    /// the controller scans the whole queue in order
    /// (`admit_in_rotation`) — and rules out the demand-indexed
    /// admission the two stateless policies use, which steps over
    /// waiters without looking at them.
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
fn class_hash(class: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in class.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Incrementally tracked per-shard state for the attached mode: loads
/// and utilizations are updated on admit/release instead of being
/// recomputed from member lists at every decision.
#[derive(Debug, Clone)]
struct Tracked {
    loads: Vec<f64>,
    capacities: Vec<f64>,
    /// `loads[s] / capacities[s]`, maintained with exactly that
    /// expression so cached values stay bitwise-equal to a fresh
    /// division — the least-loaded tie-break depends on it.
    utilization: Vec<f64>,
}

/// Stateful shard chooser (rotation pointer for round-robin, plus
/// optionally *attached* per-shard load tracking).
#[derive(Debug, Clone)]
pub struct Sharder {
    policy: ShardPolicy,
    rotation: usize,
    tracked: Option<Tracked>,
}

impl Sharder {
    /// A chooser for `policy`.
    pub fn new(policy: ShardPolicy) -> Self {
        Self {
            policy,
            rotation: 0,
            tracked: None,
        }
    }

    /// The policy in use.
    pub fn policy(&self) -> ShardPolicy {
        self.policy
    }

    /// Least-*utilized* shard where `demand` still fits under that
    /// shard's capacity. Utilization (`load / capacity`) and absolute
    /// load order identically when shards are homogeneous; on
    /// heterogeneous shards of different capacity it keeps big and
    /// small sockets proportionally filled.
    fn least_loaded(loads: &[f64], capacities: &[f64], demand: f64) -> Option<usize> {
        loads
            .iter()
            .zip(capacities)
            .enumerate()
            .filter(|(_, (&load, &cap))| load + demand <= cap + 1e-9)
            .min_by(|(_, (a, ca)), (_, (b, cb))| (*a / *ca).total_cmp(&(*b / *cb)))
            .map(|(k, _)| k)
    }

    /// Picks a shard for a user of fractional-core `demand` and
    /// content `class`, given current per-shard `loads` and per-shard
    /// effective core `capacities` (sum of core speed factors — shards
    /// may differ on heterogeneous platforms). `None`: no shard (under
    /// this policy's rules) has room right now.
    ///
    /// # Panics
    ///
    /// Panics when `loads` is empty or `capacities` has a different
    /// length.
    pub fn pick(
        &mut self,
        loads: &[f64],
        capacities: &[f64],
        demand: f64,
        class: &str,
    ) -> Option<usize> {
        assert!(!loads.is_empty(), "need at least one shard");
        assert_eq!(
            loads.len(),
            capacities.len(),
            "one capacity per shard required"
        );
        match self.policy {
            ShardPolicy::LeastLoaded => Self::least_loaded(loads, capacities, demand),
            ShardPolicy::RoundRobin => {
                let shard = self.rotation % loads.len();
                self.rotation = self.rotation.wrapping_add(1);
                (loads[shard] + demand <= capacities[shard] + 1e-9).then_some(shard)
            }
            ShardPolicy::ContentAffinity => {
                let preferred = (class_hash(class) % loads.len() as u64) as usize;
                if loads[preferred] + demand <= capacities[preferred] + 1e-9 {
                    Some(preferred)
                } else {
                    Self::least_loaded(loads, capacities, demand)
                }
            }
        }
    }

    /// Attaches incrementally tracked load state (all shards start
    /// empty). From here on, [`pick_attached`](Self::pick_attached) /
    /// [`admit_load`](Self::admit_load) /
    /// [`release_load`](Self::release_load) maintain loads and
    /// utilizations in place — decisions are bitwise-identical to
    /// [`pick`](Self::pick) with the same loads, without rebuilding
    /// anything per decision.
    ///
    /// # Panics
    ///
    /// Panics when `capacities` is empty or contains a non-positive
    /// entry.
    pub fn attach(&mut self, capacities: Vec<f64>) {
        assert!(!capacities.is_empty(), "need at least one shard");
        assert!(
            capacities.iter().all(|c| c.is_finite() && *c > 0.0),
            "shard capacities must be positive and finite"
        );
        let n = capacities.len();
        self.tracked = Some(Tracked {
            loads: vec![0.0; n],
            capacities,
            utilization: vec![0.0; n],
        });
    }

    fn tracked(&self) -> &Tracked {
        self.tracked.as_ref().expect("attach() before attached ops")
    }

    /// Adds an admitted user's fractional-core `demand` to `shard`.
    ///
    /// # Panics
    ///
    /// Panics when [`attach`](Self::attach) has not been called.
    pub fn admit_load(&mut self, shard: usize, demand: f64) {
        let t = self.tracked.as_mut().expect("attach() before attached ops");
        t.loads[shard] += demand;
        t.utilization[shard] = t.loads[shard] / t.capacities[shard];
    }

    /// Removes a departing/evicted user's `demand` from `shard`.
    ///
    /// # Panics
    ///
    /// Panics when [`attach`](Self::attach) has not been called.
    pub fn release_load(&mut self, shard: usize, demand: f64) {
        let t = self.tracked.as_mut().expect("attach() before attached ops");
        t.loads[shard] -= demand;
        t.utilization[shard] = t.loads[shard] / t.capacities[shard];
    }

    /// True when some shard could fit `demand` right now — the O(1)
    /// early-out probe: when even the smallest queued demand fits
    /// nowhere, the whole admission scan can be skipped (load growth
    /// is monotone in demand, so nothing larger fits either).
    ///
    /// # Panics
    ///
    /// Panics when [`attach`](Self::attach) has not been called.
    pub fn any_fits(&self, demand: f64) -> bool {
        let t = self.tracked();
        t.loads
            .iter()
            .zip(&t.capacities)
            .any(|(&load, &cap)| load + demand <= cap + 1e-9)
    }

    /// [`pick`](Self::pick) against the attached load state.
    ///
    /// # Panics
    ///
    /// Panics when [`attach`](Self::attach) has not been called.
    pub fn pick_attached(&mut self, demand: f64, class: &str) -> Option<usize> {
        let t = self.tracked.as_ref().expect("attach() before attached ops");
        match self.policy {
            ShardPolicy::LeastLoaded => Self::least_loaded_tracked(t, demand),
            ShardPolicy::RoundRobin => {
                let shard = self.rotation % t.loads.len();
                self.rotation = self.rotation.wrapping_add(1);
                (t.loads[shard] + demand <= t.capacities[shard] + 1e-9).then_some(shard)
            }
            ShardPolicy::ContentAffinity => {
                let preferred = (class_hash(class) % t.loads.len() as u64) as usize;
                if t.loads[preferred] + demand <= t.capacities[preferred] + 1e-9 {
                    Some(preferred)
                } else {
                    Self::least_loaded_tracked(t, demand)
                }
            }
        }
    }

    /// Cached-utilization form of [`least_loaded`](Self::least_loaded):
    /// the same filter and ordering expressions over bitwise-identical
    /// values, minus the per-comparison divisions.
    fn least_loaded_tracked(t: &Tracked, demand: f64) -> Option<usize> {
        t.loads
            .iter()
            .zip(&t.capacities)
            .enumerate()
            .filter(|(_, (&load, &cap))| load + demand <= cap + 1e-9)
            .min_by(|(a, _), (b, _)| t.utilization[*a].total_cmp(&t.utilization[*b]))
            .map(|(k, _)| k)
    }

    /// Accounts for `considered` requests being skipped without
    /// individual [`pick_attached`](Self::pick_attached) calls (the
    /// early-out path): round-robin advances its rotation exactly as
    /// if each had been offered a shard, so decision streams stay
    /// identical with the non-early-out controller.
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

    #[test]
    fn least_loaded_picks_minimum_that_fits() {
        let mut s = Sharder::new(ShardPolicy::LeastLoaded);
        let loads = [6.0, 2.0, 7.5, 4.0];
        assert_eq!(s.pick(&loads, &CAP8, 1.0, "brain"), Some(1));
        // Demand of 5 only fits shard 1.
        assert_eq!(s.pick(&loads, &CAP8, 5.5, "brain"), Some(1));
        // Nothing fits a 7-core user.
        assert_eq!(s.pick(&loads, &CAP8, 7.0, "brain"), None);
    }

    #[test]
    fn round_robin_is_blind_to_load() {
        let mut s = Sharder::new(ShardPolicy::RoundRobin);
        let loads = [7.9, 0.0, 0.0];
        let caps = [8.0; 3];
        // First offer goes to shard 0 even though it is nearly full —
        // the request waits rather than spilling elsewhere.
        assert_eq!(s.pick(&loads, &caps, 1.0, "x"), None);
        // Rotation advanced: the next offers land on empty shards.
        assert_eq!(s.pick(&loads, &caps, 1.0, "x"), Some(1));
        assert_eq!(s.pick(&loads, &caps, 1.0, "x"), Some(2));
        assert_eq!(s.pick(&loads, &caps, 1.0, "x"), None);
    }

    #[test]
    fn content_affinity_is_sticky_then_falls_back() {
        let mut s = Sharder::new(ShardPolicy::ContentAffinity);
        let empty = [0.0, 0.0, 0.0, 0.0];
        let home = s.pick(&empty, &CAP8, 1.0, "cardiac").expect("fits");
        // Same class → same socket, deterministically.
        for _ in 0..4 {
            assert_eq!(s.pick(&empty, &CAP8, 1.0, "cardiac"), Some(home));
        }
        // Preferred socket full → least-loaded fallback.
        let mut loads = [0.0; 4];
        loads[home] = 8.0;
        let fallback = s.pick(&loads, &CAP8, 1.0, "cardiac").expect("fallback");
        assert_ne!(fallback, home);
    }

    #[test]
    fn attached_picks_match_stateless_picks() {
        // Replay one admit/release trace through both interfaces under
        // every policy: decisions must be identical call for call.
        let caps = vec![8.0, 2.0, 5.8, 8.0];
        // (demand, class, optional (shard, demand) released beforehand).
        type Step = (f64, &'static str, Option<(usize, f64)>);
        let trace: [Step; 8] = [
            (1.0, "brain", None),
            (2.5, "cardiac", None),
            (1.0, "spine", Some((0, 1.0))),
            (6.0, "brain", None),
            (0.5, "cardiac", Some((2, 0.5))),
            (3.0, "spine", None),
            (9.0, "brain", None), // fits nowhere
            (1.5, "cardiac", None),
        ];
        for policy in [
            ShardPolicy::LeastLoaded,
            ShardPolicy::RoundRobin,
            ShardPolicy::ContentAffinity,
        ] {
            let mut stateless = Sharder::new(policy);
            let mut attached = Sharder::new(policy);
            attached.attach(caps.clone());
            let mut loads = vec![0.0f64; caps.len()];
            for &(demand, class, release) in &trace {
                if let Some((shard, d)) = release {
                    loads[shard] -= d;
                    attached.release_load(shard, d);
                }
                let a = stateless.pick(&loads, &caps, demand, class);
                let b = attached.pick_attached(demand, class);
                assert_eq!(a, b, "{policy:?} diverged on demand {demand}");
                assert_eq!(
                    attached.any_fits(demand),
                    loads
                        .iter()
                        .zip(&caps)
                        .any(|(&l, &c)| l + demand <= c + 1e-9)
                );
                if let Some(shard) = a {
                    loads[shard] += demand;
                    attached.admit_load(shard, demand);
                }
            }
            for (x, y) in loads.iter().zip(&attached.tracked().loads) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn skip_all_advances_round_robin_like_individual_offers() {
        let caps = vec![1.0; 3];
        let mut a = Sharder::new(ShardPolicy::RoundRobin);
        let mut b = Sharder::new(ShardPolicy::RoundRobin);
        a.attach(caps.clone());
        b.attach(caps);
        for _ in 0..5 {
            b.pick_attached(9.0, "x"); // nothing ever fits
        }
        a.skip_all(5);
        // Rotations now aligned: the next offers match.
        assert_eq!(a.pick_attached(0.5, "x"), b.pick_attached(0.5, "x"));
    }

    #[test]
    fn heterogeneous_capacities_fill_proportionally() {
        // A big shard (8 effective cores) and a little one (2): least-
        // loaded balances *utilization*, so the empty little shard wins
        // over a lightly-used big one, but a demand exceeding its
        // remaining capacity lands on the big shard.
        let mut s = Sharder::new(ShardPolicy::LeastLoaded);
        let caps = [8.0, 2.0];
        assert_eq!(s.pick(&[1.0, 0.0], &caps, 1.0, "x"), Some(1));
        // Both at 50% utilization: tie resolves to the first shard.
        assert_eq!(s.pick(&[4.0, 1.0], &caps, 1.0, "x"), Some(0));
        // 3-core demand cannot fit the little shard at all.
        assert_eq!(s.pick(&[0.0, 0.0], &caps, 3.0, "x"), Some(0));
        // Round-robin still respects per-shard capacity.
        let mut rr = Sharder::new(ShardPolicy::RoundRobin);
        assert_eq!(rr.pick(&[0.0, 0.0], &caps, 3.0, "x"), Some(0));
        assert_eq!(rr.pick(&[0.0, 0.0], &caps, 3.0, "x"), None);
    }
}
