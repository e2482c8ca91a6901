//! Per-tile motion fields: block-grid motion estimation results and the
//! dominant-direction extraction the paper's GOP policy relies on.

use crate::cost::CostMetric;
use crate::search::{MotionSearch, SearchContext, SearchWindow};
use crate::MotionVector;
use medvt_frame::{Plane, Rect};
use serde::{Deserialize, Serialize};

/// Aggregate statistics of estimating one tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FieldStats {
    /// Total distinct candidates evaluated over all blocks — the
    /// motion-estimation complexity of the tile.
    pub evaluations: u64,
    /// Total distortion of the selected vectors.
    pub total_cost: u64,
    /// Number of blocks estimated.
    pub blocks: u32,
}

/// The motion vectors of every block in one tile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MotionField {
    tile: Rect,
    block_size: usize,
    cols: usize,
    rows: usize,
    mvs: Vec<MotionVector>,
    costs: Vec<u64>,
}

impl MotionField {
    /// Estimates motion for every `block_size` block of `tile` in `cur`
    /// against `reference` using `algo`.
    ///
    /// Blocks at the tile's right/bottom edge shrink to fit. Each block
    /// is seeded with the vector of its left neighbour (fallback: the
    /// block above, then zero) — the spatial-predictor chain real
    /// encoders use.
    ///
    /// # Panics
    ///
    /// Panics when `tile` is empty, not inside `cur`, or `block_size`
    /// is zero.
    pub fn estimate(
        cur: &Plane,
        reference: &Plane,
        tile: Rect,
        block_size: usize,
        algo: &dyn MotionSearch,
        window: SearchWindow,
        metric: CostMetric,
    ) -> (MotionField, FieldStats) {
        assert!(block_size > 0, "block size must be non-zero");
        assert!(!tile.is_empty(), "cannot estimate an empty tile");
        assert!(
            cur.bounds().contains_rect(&tile),
            "tile {tile} outside plane"
        );
        let cols = tile.w.div_ceil(block_size);
        let rows = tile.h.div_ceil(block_size);
        let mut mvs = Vec::with_capacity(cols * rows);
        let mut costs = Vec::with_capacity(cols * rows);
        let mut stats = FieldStats::default();
        for br in 0..rows {
            for bc in 0..cols {
                let x = tile.x + bc * block_size;
                let y = tile.y + br * block_size;
                let w = block_size.min(tile.right() - x);
                let h = block_size.min(tile.bottom() - y);
                let predictor = if bc > 0 {
                    mvs[br * cols + bc - 1]
                } else if br > 0 {
                    mvs[(br - 1) * cols]
                } else {
                    MotionVector::ZERO
                };
                let ctx = SearchContext::new(
                    cur,
                    reference,
                    Rect::new(x, y, w, h),
                    window,
                    metric,
                    predictor,
                );
                let r = algo.search(&ctx);
                stats.evaluations += r.evaluations;
                stats.total_cost += r.cost;
                stats.blocks += 1;
                mvs.push(r.mv);
                costs.push(r.cost);
            }
        }
        (
            MotionField {
                tile,
                block_size,
                cols,
                rows,
                mvs,
                costs,
            },
            stats,
        )
    }

    /// The tile this field covers.
    pub fn tile(&self) -> Rect {
        self.tile
    }

    /// Block grid dimensions `(cols, rows)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// The motion vector of block `(col, row)`.
    ///
    /// # Panics
    ///
    /// Panics when the block coordinate is outside the grid.
    pub fn mv(&self, col: usize, row: usize) -> MotionVector {
        assert!(col < self.cols && row < self.rows, "block outside grid");
        self.mvs[row * self.cols + col]
    }

    /// Distortions of the selected vectors, raster order.
    pub fn costs(&self) -> &[u64] {
        &self.costs
    }

    /// The component-wise median motion vector — robust representative
    /// of the tile's global motion, inherited by later GOP frames.
    pub fn dominant_mv(&self) -> MotionVector {
        if self.mvs.is_empty() {
            return MotionVector::ZERO;
        }
        let mut xs: Vec<i16> = self.mvs.iter().map(|m| m.x).collect();
        let mut ys: Vec<i16> = self.mvs.iter().map(|m| m.y).collect();
        xs.sort_unstable();
        ys.sort_unstable();
        MotionVector::new(xs[xs.len() / 2], ys[ys.len() / 2])
    }

    /// Fraction of blocks whose vector agrees in sign with the dominant
    /// vector on both axes — a coherence measure of the "whole tile
    /// moves together" premise.
    pub fn coherence(&self) -> f64 {
        if self.mvs.is_empty() {
            return 1.0;
        }
        let dom = self.dominant_mv();
        let agree = self
            .mvs
            .iter()
            .filter(|m| m.x.signum() == dom.x.signum() && m.y.signum() == dom.y.signum())
            .count();
        agree as f64 / self.mvs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::DiamondSearch;

    fn shifted_planes(dx: isize, dy: isize) -> (Plane, Plane) {
        crate::testutil::shifted_planes(96, 96, dx, dy)
    }

    #[test]
    fn uniform_shift_yields_coherent_field() {
        let (cur, reference) = shifted_planes(3, -2);
        let tile = Rect::new(16, 16, 64, 64);
        let (field, stats) = MotionField::estimate(
            &cur,
            &reference,
            tile,
            16,
            &DiamondSearch,
            SearchWindow::W16,
            CostMetric::Sad,
        );
        assert_eq!(field.grid(), (4, 4));
        assert_eq!(stats.blocks, 16);
        assert_eq!(field.dominant_mv(), MotionVector::new(-3, 2));
        assert!(field.coherence() > 0.9);
        assert_eq!(stats.total_cost, 0);
        assert!(stats.evaluations > 0);
    }

    #[test]
    fn ragged_tiles_shrink_edge_blocks() {
        let (cur, reference) = shifted_planes(0, 0);
        let tile = Rect::new(0, 0, 40, 24);
        let (field, stats) = MotionField::estimate(
            &cur,
            &reference,
            tile,
            16,
            &DiamondSearch,
            SearchWindow::W8,
            CostMetric::Sad,
        );
        // 40/16 → 3 cols, 24/16 → 2 rows.
        assert_eq!(field.grid(), (3, 2));
        assert_eq!(stats.blocks, 6);
        assert_eq!(field.mvs.len(), 6);
    }

    #[test]
    fn static_content_has_zero_dominant_mv() {
        let (cur, reference) = shifted_planes(0, 0);
        let tile = Rect::new(16, 16, 32, 32);
        let (field, _) = MotionField::estimate(
            &cur,
            &reference,
            tile,
            16,
            &DiamondSearch,
            SearchWindow::W16,
            CostMetric::Sad,
        );
        assert_eq!(field.dominant_mv(), MotionVector::ZERO);
        assert_eq!(field.costs().iter().sum::<u64>(), 0);
    }

    #[test]
    fn mv_accessor_checks_bounds() {
        let (cur, reference) = shifted_planes(1, 0);
        let (field, _) = MotionField::estimate(
            &cur,
            &reference,
            Rect::new(0, 0, 32, 32),
            16,
            &DiamondSearch,
            SearchWindow::W8,
            CostMetric::Sad,
        );
        let _ = field.mv(1, 1);
        let result = std::panic::catch_unwind(|| field.mv(2, 0));
        assert!(result.is_err());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_tile_rejected() {
        let (cur, reference) = shifted_planes(0, 0);
        MotionField::estimate(
            &cur,
            &reference,
            Rect::new(0, 0, 0, 0),
            16,
            &DiamondSearch,
            SearchWindow::W8,
            CostMetric::Sad,
        );
    }
}
