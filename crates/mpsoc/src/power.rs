//! Per-core power model: `P = P_static + C_eff · V(f)² · f`.
//!
//! Calibrated to the Xeon E5-2667 v4 envelope (135 W TDP for 8 cores
//! plus uncore): a fully-busy core at 3.2 GHz draws ≈ 14 W, idling in a
//! shallow sleep state well under 1 W. Absolute watts only need to be
//! plausible — the experiments compare *ratios* between scheduling
//! policies on the same model.

use crate::freq::FreqLevel;
use serde::{Deserialize, Serialize};

/// Core-level power model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Effective switched capacitance in W / (GHz · V²).
    pub ceff_w_per_ghz_v2: f64,
    /// Static (leakage) power of an active core, in watts.
    pub static_w: f64,
    /// Power of a core idling at the minimum operating point (clock
    /// gated), in watts.
    pub idle_w: f64,
    /// Fraction of the dynamic power a core still burns when idling
    /// with its clock running (no work, no gating) — the state of a
    /// core pinned at a rail frequency between tiles.
    pub clock_idle_frac: f64,
    /// Energy cost of one DVFS transition, in joules.
    pub transition_j: f64,
}

impl PowerModel {
    /// Power of a core actively executing at `freq`, in watts.
    pub(crate) fn active_power_w(&self, freq: FreqLevel) -> f64 {
        let v = freq.voltage();
        self.static_w + self.ceff_w_per_ghz_v2 * v * v * freq.ghz()
    }

    /// Power of an idle (clock-gated) core, in watts.
    pub fn idle_power_w(&self) -> f64 {
        self.idle_w
    }

    /// Power of a core idling with its clock still running at `freq`
    /// (pinned-rail operation, no clock gating), in watts.
    pub(crate) fn clock_idle_power_w(&self, freq: FreqLevel) -> f64 {
        let v = freq.voltage();
        self.static_w + self.clock_idle_frac * self.ceff_w_per_ghz_v2 * v * v * freq.ghz()
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self {
            ceff_w_per_ghz_v2: 4.0,
            static_w: 1.2,
            idle_w: 0.6,
            clock_idle_frac: 0.25,
            // 10 µs transition at ~20 W average draw.
            transition_j: 2e-4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::CorePlan;

    fn ghz(v: f64) -> FreqLevel {
        FreqLevel::from_ghz(v)
    }

    #[test]
    fn active_power_in_xeon_envelope() {
        let m = PowerModel::default();
        let p32 = m.active_power_w(ghz(3.2));
        // ≈ 1.2 + 4.0 * 1.0 * 3.2 ≈ 14 W.
        assert!((10.0..18.0).contains(&p32), "p32={p32}");
        let p36 = m.active_power_w(ghz(3.6));
        let p29 = m.active_power_w(ghz(2.9));
        assert!(p29 < p32 && p32 < p36);
        // Full 8-core socket at 3.2 GHz ≈ 110 W < 135 W TDP.
        assert!(p32 * 8.0 < 135.0);
    }

    #[test]
    fn cubic_ish_scaling_with_frequency() {
        let m = PowerModel::default();
        // Energy per unit work: E = P(f)/f; lower f is more efficient.
        let e29 = m.active_power_w(ghz(2.9)) / 2.9;
        let e36 = m.active_power_w(ghz(3.6)) / 3.6;
        assert!(e29 < e36, "lower frequency must be more energy-efficient");
    }

    #[test]
    fn idle_far_below_active() {
        let m = PowerModel::default();
        assert!(m.idle_power_w() * 10.0 < m.active_power_w(ghz(2.9)));
    }

    #[test]
    fn core_energy_accumulates_parts() {
        let m = PowerModel::default();
        let slot = 1.0 / 24.0;
        let energy = |freq, busy_secs, transitions| {
            CorePlan {
                freq,
                busy_secs,
                slack_secs: slot - busy_secs,
                carry_fmax_secs: 0.0,
                transitions,
                slack_clock_running: false,
                transition_bound: false,
            }
            .energy_j(&m, slot)
        };
        let e_idle = energy(ghz(2.9), 0.0, 0);
        assert!((e_idle - m.idle_power_w() * slot).abs() < 1e-12);
        let e_full = energy(ghz(3.6), slot, 0);
        assert!((e_full - m.active_power_w(ghz(3.6)) * slot).abs() < 1e-12);
        let e_half = energy(ghz(3.6), slot / 2.0, 1);
        assert!(e_half > e_idle && e_half < e_full + m.transition_j);
        assert!(e_half > energy(ghz(3.6), slot / 2.0, 0));
    }
}
