//! Synthetic arrival traces: Poisson arrivals with heavy-tailed
//! (Pareto) session lengths — the cloud-transcoding load shape of the
//! related on-demand work (Li et al.), made deterministic for replay.

use crate::request::{DeadlineClass, UserRequest};

/// Shape of a synthetic arrival trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Serving horizon in frame slots.
    pub horizon_slots: usize,
    /// Poisson arrival rate, users per slot (λ).
    pub arrivals_per_slot: f64,
    /// Minimum session length in slots (the Pareto scale x_m).
    pub min_session_slots: usize,
    /// Pareto tail index α (1 < α < 2 gives the heavy tail of video
    /// session lengths; smaller is heavier).
    pub tail_alpha: f64,
    /// Number of distinct workload profiles users draw from.
    pub profiles: usize,
    /// RNG seed — identical configs replay identical traces.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            horizon_slots: 240,
            arrivals_per_slot: 0.25,
            min_session_slots: 48,
            tail_alpha: 1.5,
            profiles: 1,
            seed: 2018,
        }
    }
}

/// SplitMix64 — tiny, deterministic, no external dependency.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Poisson-distributed count with mean `lambda`. Knuth's method
    /// for small rates; beyond λ = 32 `exp(-λ)` heads toward f64
    /// underflow (unusable past ~700) and the product loop costs O(λ)
    /// draws, so large rates — the 1M-user scale sweeps — switch to a
    /// rounded Box–Muller normal approximation (error O(1/√λ), well
    /// under the trace synthesizer's needs). Both branches draw from
    /// the same deterministic stream, and rates ≤ 32 keep their exact
    /// historical sequences.
    fn poisson(&mut self, lambda: f64) -> usize {
        if lambda > 32.0 {
            let u1 = self.next_f64().max(1e-12);
            let u2 = self.next_f64();
            let g = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            return (lambda + lambda.sqrt() * g).round().max(0.0) as usize;
        }
        let limit = (-lambda).exp();
        let mut k = 0usize;
        let mut p = 1.0;
        loop {
            p *= self.next_f64();
            if p <= limit {
                return k;
            }
            k += 1;
        }
    }

    /// Pareto(x_m, α) via inverse CDF, capped at 64 × x_m so a single
    /// tail draw cannot swallow the whole horizon.
    fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        let u = (1.0 - self.next_f64()).max(1e-12);
        (xm * u.powf(-1.0 / alpha)).min(xm * 64.0)
    }
}

/// Synthesizes a deterministic arrival trace: per-slot Poisson arrival
/// counts, Pareto session lengths, uniformly drawn profiles and a
/// 20/60/20 strict/standard/best-effort class mix.
///
/// # Panics
///
/// Panics when the rate is not positive and finite, the tail index is
/// not positive, or `min_session_slots`/`profiles` is zero.
pub fn synthesize_trace(cfg: &TraceConfig) -> Vec<UserRequest> {
    assert!(
        cfg.arrivals_per_slot > 0.0 && cfg.arrivals_per_slot.is_finite(),
        "need a positive, finite arrival rate"
    );
    assert!(cfg.tail_alpha > 0.0, "need a positive tail index");
    assert!(cfg.min_session_slots > 0, "sessions need a minimum length");
    assert!(cfg.profiles > 0, "need at least one profile");
    let mut rng = Rng(cfg.seed);
    let mut trace = Vec::new();
    let mut user = 0usize;
    for slot in 0..cfg.horizon_slots {
        for _ in 0..rng.poisson(cfg.arrivals_per_slot) {
            let session = rng
                .pareto(cfg.min_session_slots as f64, cfg.tail_alpha)
                .round() as usize;
            let class = match rng.next_f64() {
                u if u < 0.2 => DeadlineClass::Strict,
                u if u < 0.8 => DeadlineClass::Standard,
                _ => DeadlineClass::BestEffort,
            };
            trace.push(UserRequest {
                user,
                arrival_slot: slot,
                profile: (rng.next_u64() % cfg.profiles as u64) as usize,
                class,
                departure_slot: Some(slot + session.max(cfg.min_session_slots)),
            });
            user += 1;
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic() {
        let cfg = TraceConfig::default();
        let a = synthesize_trace(&cfg);
        let b = synthesize_trace(&cfg);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = synthesize_trace(&TraceConfig::default());
        let b = synthesize_trace(&TraceConfig {
            seed: 99,
            ..Default::default()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_ordered_and_sessions_bounded() {
        let cfg = TraceConfig {
            horizon_slots: 480,
            arrivals_per_slot: 0.5,
            ..Default::default()
        };
        let trace = synthesize_trace(&cfg);
        for pair in trace.windows(2) {
            assert!(pair[0].arrival_slot <= pair[1].arrival_slot);
            assert!(pair[0].user < pair[1].user);
        }
        for r in &trace {
            let d = r.departure_slot.expect("synthetic users depart");
            assert!(d >= r.arrival_slot + cfg.min_session_slots);
            assert!(d <= r.arrival_slot + cfg.min_session_slots * 64 + 1);
            assert!(r.profile < cfg.profiles);
        }
    }

    #[test]
    fn high_rate_arrivals_track_mean_without_underflow() {
        // λ = 5208/slot over 192 slots ≈ 1M arrivals: Knuth's method
        // would spin on exp(-λ) = 0 forever. The normal branch must
        // land within a fraction of a percent of the mean.
        let cfg = TraceConfig {
            horizon_slots: 192,
            arrivals_per_slot: 5208.0,
            ..Default::default()
        };
        let trace = synthesize_trace(&cfg);
        let n = trace.len() as f64;
        let expect = 192.0 * 5208.0;
        assert!(
            (n - expect).abs() < expect * 0.01,
            "got {n} arrivals, expected ≈{expect}"
        );
        for pair in trace.windows(2) {
            assert!(pair[0].arrival_slot <= pair[1].arrival_slot);
        }
    }

    #[test]
    fn arrival_count_tracks_rate() {
        let cfg = TraceConfig {
            horizon_slots: 2000,
            arrivals_per_slot: 0.4,
            ..Default::default()
        };
        let n = synthesize_trace(&cfg).len() as f64;
        let expect = 2000.0 * 0.4;
        assert!(
            (n - expect).abs() < expect * 0.25,
            "got {n} arrivals, expected ≈{expect}"
        );
    }

    #[test]
    #[should_panic(expected = "finite arrival rate")]
    fn infinite_arrival_rate_is_refused() {
        // `∞ > 0.0`, and the normal branch of `poisson` rounds an
        // infinite draw to `usize::MAX` arrivals in one slot.
        synthesize_trace(&TraceConfig {
            arrivals_per_slot: f64::INFINITY,
            ..Default::default()
        });
    }
}
