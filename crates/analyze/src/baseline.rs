//! The capacity-balanced baseline tiler of Khan et al. \[19\]
//! (IEEE TVLSI 2016), the comparison point of the paper's evaluation.
//!
//! \[19\] creates a limited set of predefined tile structures whose
//! per-tile workloads match each core's capacity, assigning exactly
//! **one tile per core**. Tiles are balanced by estimated workload,
//! not by content classes, and re-tiling only happens when every core
//! sits at the minimum or maximum frequency (that trigger lives in the
//! pipeline layer; this module provides the tiler itself).

use medvt_frame::{Plane, Rect, RegionStats, Tiling};
use serde::{Deserialize, Serialize};

/// Workload-balanced tiler with one tile per core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CapacityBalancedTiler {
    /// Number of cores — and therefore tiles — to produce.
    pub cores: usize,
}

impl CapacityBalancedTiler {
    /// Creates a tiler for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics when `cores` is zero.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        Self { cores }
    }

    /// Produces exactly `self.cores` tiles whose estimated workloads
    /// (texture-energy proxy) are as equal as the 8-sample grid allows.
    ///
    /// Layout: one row of tiles for up to 4 cores, two rows above that
    /// (mirroring the limited predefined structures of \[19\]).
    ///
    /// # Panics
    ///
    /// Panics when the frame is not 8-aligned or too small for one
    /// 8-sample tile per core.
    pub fn tile(&self, luma: &Plane) -> Tiling {
        let frame = luma.bounds();
        assert!(
            frame.w.is_multiple_of(8) && frame.h.is_multiple_of(8),
            "frame must be 8-aligned"
        );
        let rows = if self.cores <= 4 { 1 } else { 2 };
        assert!(frame.h / 8 >= rows, "frame too short for {rows} tile rows");
        // Distribute cores over rows: top row gets the remainder.
        let per_row = self.cores / rows;
        let extra = self.cores % rows;
        let mut tiles = Vec::with_capacity(self.cores);
        let row_bands = balanced_cuts_rows(luma, &frame, rows);
        for (i, (y, h)) in row_bands.iter().enumerate() {
            let cols = per_row + usize::from(i < extra);
            let band = Rect::new(frame.x, *y, frame.w, *h);
            let col_spans = balanced_cuts_cols(luma, &band, cols);
            for (x, w) in col_spans {
                tiles.push(Rect::new(x, *y, w, *h));
            }
        }
        Tiling::new(frame, tiles).expect("balanced cuts partition the frame")
    }
}

/// Texture-energy weight of an 8-sample column/row unit: its standard
/// deviation plus a floor so empty regions still carry area cost.
fn unit_weight(stats: &RegionStats) -> f64 {
    stats.stddev + 4.0
}

/// Cuts the frame's rows into `n` bands of approximately equal weight,
/// snapped to 8 samples.
fn balanced_cuts_rows(luma: &Plane, frame: &Rect, n: usize) -> Vec<(usize, usize)> {
    let units = frame.h / 8;
    let weights: Vec<f64> = (0..units)
        .map(|u| {
            let r = Rect::new(frame.x, frame.y + u * 8, frame.w, 8);
            unit_weight(&RegionStats::of(luma, &r))
        })
        .collect();
    cut_axis(&weights, n)
        .into_iter()
        .map(|(u0, un)| (frame.y + u0 * 8, un * 8))
        .collect()
}

/// Cuts a band's columns into `n` spans of approximately equal weight.
fn balanced_cuts_cols(luma: &Plane, band: &Rect, n: usize) -> Vec<(usize, usize)> {
    let units = band.w / 8;
    let weights: Vec<f64> = (0..units)
        .map(|u| {
            let r = Rect::new(band.x + u * 8, band.y, 8, band.h);
            unit_weight(&RegionStats::of(luma, &r))
        })
        .collect();
    cut_axis(&weights, n)
        .into_iter()
        .map(|(u0, un)| (band.x + u0 * 8, un * 8))
        .collect()
}

/// Splits `weights` into `n` contiguous parts of near-equal sum; every
/// part gets at least one unit. Returns `(start_unit, unit_count)`.
fn cut_axis(weights: &[f64], n: usize) -> Vec<(usize, usize)> {
    assert!(
        weights.len() >= n,
        "cannot cut {} units into {n} parts",
        weights.len()
    );
    let total: f64 = weights.iter().sum();
    let mut cuts = Vec::with_capacity(n);
    let mut start = 0usize;
    let mut acc = 0.0;
    let mut emitted = 0usize;
    for (u, &w) in weights.iter().enumerate() {
        acc += w;
        let remaining_units = weights.len() - u - 1;
        let remaining_parts = n - emitted - 1;
        let target = total * (emitted + 1) as f64 / n as f64;
        // Close the part when its cumulative weight reaches the target,
        // or when we must leave one unit for each remaining part.
        if (acc >= target && remaining_parts > 0 && u + 1 > start)
            || remaining_units == remaining_parts && remaining_parts > 0
        {
            cuts.push((start, u + 1 - start));
            start = u + 1;
            emitted += 1;
        }
    }
    cuts.push((start, weights.len() - start));
    debug_assert_eq!(cuts.len(), n);
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use medvt_frame::synth::{BodyPart, PhantomVideo};
    use medvt_frame::Resolution;

    fn phantom_luma() -> Plane {
        let v = PhantomVideo::builder(BodyPart::LungChest)
            .resolution(Resolution::new(320, 240))
            .seed(3)
            .build();
        let (y, _, _) = v.render(0).into_planes();
        y
    }

    #[test]
    fn produces_one_tile_per_core() {
        let luma = phantom_luma();
        for cores in [1usize, 2, 3, 4, 5, 6, 8] {
            let t = CapacityBalancedTiler::new(cores).tile(&luma);
            assert_eq!(t.len(), cores, "cores={cores}");
            assert_eq!(t.covered_area(), 320 * 240);
        }
    }

    #[test]
    fn single_row_up_to_four_cores() {
        let luma = phantom_luma();
        let t = CapacityBalancedTiler::new(4).tile(&luma);
        assert!(t.iter().all(|r| r.y == 0 && r.h == 240));
    }

    #[test]
    fn two_rows_above_four_cores() {
        let luma = phantom_luma();
        let t = CapacityBalancedTiler::new(6).tile(&luma);
        let ys: std::collections::HashSet<usize> = t.iter().map(|r| r.y).collect();
        assert_eq!(ys.len(), 2);
    }

    #[test]
    fn center_heavy_content_narrows_center_tiles() {
        // Center tiles cover the textured anatomy, so equal-workload
        // balancing must make them *narrower* than the flat border
        // tiles.
        let luma = phantom_luma();
        let t = CapacityBalancedTiler::new(4).tile(&luma);
        let tiles = t.tiles();
        let edge_w = tiles[0].w.min(tiles[3].w);
        let mid_w = tiles[1].w.max(tiles[2].w);
        assert!(
            mid_w <= edge_w,
            "middle tiles {mid_w} should be no wider than edge tiles {edge_w}"
        );
    }

    #[test]
    fn flat_content_gives_near_uniform_tiles() {
        let flat = Plane::filled(320, 240, 80);
        let t = CapacityBalancedTiler::new(4).tile(&flat);
        for tile in t.iter() {
            assert!((tile.w as i64 - 80).abs() <= 8, "tile {tile}");
        }
    }

    #[test]
    fn weight_balance_within_tolerance() {
        let luma = phantom_luma();
        let t = CapacityBalancedTiler::new(5).tile(&luma);
        let weights: Vec<f64> = t
            .iter()
            .map(|r| {
                let s = RegionStats::of(&luma, r);
                (s.stddev + 4.0) * r.area() as f64
            })
            .collect();
        let mean = weights.iter().sum::<f64>() / weights.len() as f64;
        for w in &weights {
            assert!(
                (w / mean) < 2.4 && (w / mean) > 0.25,
                "imbalanced tile: {w} vs mean {mean}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        CapacityBalancedTiler::new(0);
    }

    #[test]
    fn cut_axis_covers_all_units() {
        let weights = vec![1.0; 10];
        let cuts = cut_axis(&weights, 3);
        assert_eq!(cuts.len(), 3);
        let total: usize = cuts.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 10);
        assert!(cuts.iter().all(|&(_, n)| n >= 1));
    }

    #[test]
    fn cut_axis_tracks_weight_concentration() {
        // All weight at the end: first parts should be minimal.
        let mut weights = vec![0.1; 10];
        weights[8] = 50.0;
        weights[9] = 50.0;
        let cuts = cut_axis(&weights, 2);
        assert!(cuts[0].1 >= cuts[1].1, "light part should span more units");
    }
}
