//! Rental pricing over the power model — the provisioning layer's
//! cost view of a platform.
//!
//! The Li et al. cloud-transcoding studies (see PAPERS.md) price
//! heterogeneous machine types per billing interval and trade that
//! cost against QoS deadlines. Here the "machine type" is a
//! [`Platform`] preset and the billing interval is one GOP window, so
//! a preset's price falls out of the model the repo already has:
//! energy per window from each class's [`PowerModel`] at its f_max,
//! plus a capacity premium proportional to the class speed factor
//! (faster silicon rents above its energy bill, as real clouds do).
//!
//! Prices quantize to whole credits per window (`ceil`, minimum 1) so
//! provisioning policies and budget sweeps can reason in exact integer
//! arithmetic — equal-cost comparisons between fleets are then exact,
//! not float-fuzzy.

use crate::platform::{CoreClass, Platform};
use crate::power::PowerModel;
use serde::{Deserialize, Serialize};

/// Converts a platform's modeled power/speed into credits per GOP
/// window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Credits charged per joule of modeled full-tilt energy.
    pub credits_per_joule: f64,
    /// Credits charged per reference core per window — the capacity
    /// premium (multiplied by each class's speed factor).
    pub credits_per_core_window: f64,
    /// Billing window length in seconds (one GOP at the serving fps).
    pub window_secs: f64,
}

impl Default for CostModel {
    /// Calibrated to the serving default of 8-slot GOPs at 24 fps.
    /// With the stock presets this prices a Xeon socket at 4 credits,
    /// a big.LITTLE socket at 3, a big-only cluster at 2 and a
    /// LITTLE-only cluster at 1 per window.
    fn default() -> Self {
        Self {
            credits_per_joule: 0.01,
            credits_per_core_window: 0.4,
            window_secs: 8.0 / 24.0,
        }
    }
}

impl CostModel {
    /// Unquantized credits per window for every core of `class` in one
    /// socket: full-tilt energy at the class f_max (its own power
    /// model, or `default_power` when none is attached) plus the
    /// speed-factor capacity premium.
    pub(crate) fn class_window_credits(
        &self,
        class: &CoreClass,
        default_power: &PowerModel,
    ) -> f64 {
        let power = class.power().unwrap_or(default_power);
        let energy_j = power.active_power_w(class.fmax()) * self.window_secs;
        class.cores_per_socket as f64
            * (self.credits_per_joule * energy_j
                + self.credits_per_core_window * class.speed_factor)
    }

    /// Unquantized credits per window for the whole platform (all
    /// sockets, all classes).
    pub(crate) fn platform_window_credits(
        &self,
        platform: &Platform,
        default_power: &PowerModel,
    ) -> f64 {
        platform.sockets as f64
            * platform
                .classes()
                .iter()
                .map(|c| self.class_window_credits(c, default_power))
                .sum::<f64>()
    }

    /// Integer rental price of the platform in credits per window:
    /// `ceil` of the unquantized credits, never below 1 — nothing
    /// rents for free.
    pub fn platform_window_price(&self, platform: &Platform, default_power: &PowerModel) -> u64 {
        self.platform_window_credits(platform, default_power)
            .ceil()
            .max(1.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::FrequencySet;

    fn price(platform: &Platform) -> u64 {
        CostModel::default().platform_window_price(platform, &PowerModel::default())
    }

    #[test]
    fn stock_presets_price_as_documented() {
        let xeon_socket = Platform::xeon_e5_2667_quad().socket_view(0);
        let bl_socket = Platform::big_little().socket_view(0);
        let classes = Platform::big_little().classes().to_vec();
        let big_only = Platform::with_classes("big-only", 1, vec![classes[0].clone()], 50e-6);
        let little_only = Platform::with_classes("LITTLE-only", 1, vec![classes[1].clone()], 50e-6);
        assert_eq!(price(&xeon_socket), 4);
        assert_eq!(price(&bl_socket), 3);
        assert_eq!(price(&big_only), 2);
        assert_eq!(price(&little_only), 1);
    }

    #[test]
    fn price_scales_with_sockets_and_never_hits_zero() {
        let one = Platform::new("one", 1, 8, FrequencySet::xeon_e5_2667(), 10e-6);
        let four = Platform::xeon_e5_2667_quad();
        let m = CostModel::default();
        let p = PowerModel::default();
        assert!(
            (m.platform_window_credits(&four, &p) - 4.0 * m.platform_window_credits(&one, &p))
                .abs()
                < 1e-9
        );
        // A free-tier model still charges the 1-credit floor.
        let gratis = CostModel {
            credits_per_joule: 0.0,
            credits_per_core_window: 0.0,
            ..CostModel::default()
        };
        assert_eq!(gratis.platform_window_price(&one, &p), 1);
    }

    #[test]
    fn class_credits_use_attached_power_model() {
        let m = CostModel::default();
        let dflt = PowerModel::default();
        let bl = Platform::big_little();
        let little = &bl.classes()[1];
        let with_own = m.class_window_credits(little, &dflt);
        // Re-pricing the same geometry without its power model falls
        // back to the (hungrier) default model: strictly pricier.
        let bare = CoreClass::new(
            "LITTLE",
            little.cores_per_socket,
            FrequencySet::little_cluster(),
            little.speed_factor,
        );
        assert!(m.class_window_credits(&bare, &dflt) > with_own);
    }
}
