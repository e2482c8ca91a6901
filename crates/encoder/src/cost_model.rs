//! Deterministic CPU-cycle cost model.
//!
//! The paper measures per-tile CPU time on a Xeon E5-2667 and feeds it
//! to the workload LUT and the thread allocator. This substrate
//! replaces wall-clock profiling with a deterministic model over the
//! encoder's operation counts, so experiments reproduce bit-exactly on
//! any host while preserving the structure the scheduler depends on:
//! motion estimation dominates, and cost scales with tile area, texture
//! (coded coefficients) and search effort.

use crate::stats::TileStats;
use serde::{Deserialize, Serialize};

/// Cycle costs per elementary encoder operation.
///
/// Defaults are calibrated so a VGA frame tile encoded with TZ search
/// lands in the 10⁷–10⁸ cycle range — i.e. the 0.01–0.04 s per tile at
/// 3.6 GHz that Fig. 3 of the paper reports for the baseline, with the
/// proposed configuration an order of magnitude cheaper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cycles per SAD sample operation during motion search.
    pub cycles_per_sad_sample: f64,
    /// Cycles per sample through forward+inverse transform & quant.
    pub cycles_per_transform_sample: f64,
    /// Cycles per emitted bit (entropy coding).
    pub cycles_per_bit: f64,
    /// Fixed per-block overhead (mode decision, reconstruction).
    pub cycles_per_block: f64,
    /// Fixed per-tile overhead (headers, boundary handling).
    pub cycles_per_tile: f64,
}

impl CostModel {
    /// Estimated cycles to encode a tile with the given statistics.
    pub fn tile_cycles(&self, stats: &TileStats) -> u64 {
        let blocks = (stats.intra_blocks + stats.inter_blocks) as f64;
        let cycles = self.cycles_per_sad_sample * stats.sad_samples as f64
            + self.cycles_per_transform_sample * stats.transform_samples as f64
            + self.cycles_per_bit * stats.bits as f64
            + self.cycles_per_block * blocks
            + self.cycles_per_tile;
        cycles as u64
    }

    /// Seconds to encode the tile at `freq_hz`.
    pub fn tile_seconds(&self, stats: &TileStats, freq_hz: f64) -> f64 {
        assert!(freq_hz > 0.0, "frequency must be positive");
        self.tile_cycles(stats) as f64 / freq_hz
    }

    /// This model with every cycle constant multiplied by `factor` —
    /// the uniform rescaling behind resolution scaling (area ratios)
    /// and host calibration.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is not finite and positive.
    pub fn scaled_by(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be finite and positive"
        );
        Self {
            cycles_per_sad_sample: self.cycles_per_sad_sample * factor,
            cycles_per_transform_sample: self.cycles_per_transform_sample * factor,
            cycles_per_bit: self.cycles_per_bit * factor,
            cycles_per_block: self.cycles_per_block * factor,
            cycles_per_tile: self.cycles_per_tile * factor,
        }
    }

    /// The default model calibrated to a *host*: every cycle constant
    /// is multiplied by the measured-over-modeled window-time ratio
    /// `rho`, so the model's `tile_seconds` predicts this host's wall
    /// seconds instead of the reference machine's.
    ///
    /// Feed `rho` from the end-to-end benchmark: `core.model_ratio` on
    /// the `live_inter` / `live_intra` workloads of a `BENCH_<pr>.json`
    /// is the ratio of real encode wall time to the modeled window
    /// makespan on identical placements. See README § "Calibrating the
    /// cost model to a host" for the derivation.
    ///
    /// # Panics
    ///
    /// Panics when `rho` is not finite and positive.
    pub fn with_host_speed_factor(rho: f64) -> Self {
        Self::default().scaled_by(rho)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        // Calibration: the per-sample constants absorb the work this
        // substrate does not model explicitly — fractional-sample
        // refinement, multi-size PU/TU RDO, in-loop filters — so that a
        // VGA frame under the baseline configuration (hexagon search
        // everywhere, uniform QP) costs 2–4 slots of f_max time, the
        // regime of the paper's Fig. 3 (per-tile times 0.009–0.04 s).
        Self {
            cycles_per_sad_sample: 20.0,
            cycles_per_transform_sample: 60.0,
            cycles_per_bit: 30.0,
            cycles_per_block: 20_000.0,
            cycles_per_tile: 50_000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medvt_frame::Rect;

    fn stats(sad: u64, transform: u64, bits: u64, blocks: u32) -> TileStats {
        TileStats {
            rect: Rect::new(0, 0, 64, 64),
            bits,
            luma_ssd: 0,
            luma_samples: 4096,
            sad_samples: sad,
            transform_samples: transform,
            intra_blocks: 0,
            inter_blocks: blocks,
        }
    }

    #[test]
    fn me_effort_dominates_cost() {
        let model = CostModel::default();
        let heavy_me = stats(10_000_000, 8_000, 5_000, 16);
        let light_me = stats(500_000, 8_000, 5_000, 16);
        let heavy = model.tile_cycles(&heavy_me);
        let light = model.tile_cycles(&light_me);
        assert!(heavy > 4 * light, "heavy={heavy} light={light}");
    }

    #[test]
    fn default_lands_in_paper_range_for_baseline_tiles() {
        let model = CostModel::default();
        // One fifth of a VGA frame with hexagon search: ≈240 blocks x
        // 30 evals x 256 samples ≈ 1.8e6 SAD samples, ~92k transformed
        // samples, ~8 kbit.
        let tile = stats(1_800_000, 92_000, 8_000, 240);
        let secs = model.tile_seconds(&tile, 3.6e9);
        assert!(
            (0.005..0.05).contains(&secs),
            "baseline-style tile took {secs} s (paper Fig. 3: 0.009-0.04)"
        );
    }

    #[test]
    fn seconds_scale_inversely_with_frequency() {
        let model = CostModel::default();
        let s = stats(1_000_000, 10_000, 1_000, 10);
        let fast = model.tile_seconds(&s, 3.6e9);
        let slow = model.tile_seconds(&s, 2.9e9);
        assert!((slow / fast - 3.6 / 2.9).abs() < 1e-9);
    }

    #[test]
    fn empty_tile_still_has_overhead() {
        let model = CostModel::default();
        let s = stats(0, 0, 0, 0);
        assert_eq!(model.tile_cycles(&s), model.cycles_per_tile as u64);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        CostModel::default().tile_seconds(&stats(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn host_speed_factor_scales_predicted_seconds_linearly() {
        let s = stats(1_800_000, 92_000, 8_000, 240);
        // A host measured at rho times the modeled time (the
        // benchmark's `core.model_ratio`) yields a model predicting
        // rho times the cycles on identical stats, less
        // the truncation to whole cycles: the reference sum is exact
        // (integer constants and counts), so the error is under one
        // cycle however small rho makes the total.
        let reference = CostModel::default().tile_cycles(&s) as f64;
        for rho in [1.7, 0.16, 0.003] {
            let host = CostModel::with_host_speed_factor(rho).tile_cycles(&s) as f64;
            assert!(
                (host - rho * reference).abs() <= 1.0 + 1e-6,
                "rho {rho}: host {host}, reference {reference}"
            );
        }
        // Composition: scaling twice multiplies.
        let twice = CostModel::default().scaled_by(2.0).scaled_by(0.5);
        assert_eq!(twice, CostModel::default().scaled_by(1.0));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn non_positive_speed_factor_rejected() {
        CostModel::with_host_speed_factor(0.0);
    }
}
