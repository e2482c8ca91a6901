//! Intra prediction: DC, planar, horizontal and vertical modes.
//!
//! Prediction references the *reconstructed* samples above and left of
//! the block, like HEVC, and never crosses tile boundaries (tiles are
//! independently decodable).

use medvt_frame::{Plane, Rect};
use medvt_motion::cost::simd;
use serde::{Deserialize, Serialize};

/// The implemented subset of HEVC's 35 intra modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IntraMode {
    /// Mean of the available reference samples.
    Dc,
    /// Bilinear blend of the top/left references.
    Planar,
    /// Copy the left reference column across each row.
    Horizontal,
    /// Copy the top reference row down each column.
    Vertical,
}

impl IntraMode {
    /// All modes in mode-decision order.
    pub const ALL: [IntraMode; 4] = [
        IntraMode::Dc,
        IntraMode::Planar,
        IntraMode::Horizontal,
        IntraMode::Vertical,
    ];

    /// Mode index used in the bitstream header (2 bits).
    pub const fn index(&self) -> u32 {
        match self {
            IntraMode::Dc => 0,
            IntraMode::Planar => 1,
            IntraMode::Horizontal => 2,
            IntraMode::Vertical => 3,
        }
    }
}

/// Reference samples for one block: the row above and column left of
/// the block, when available inside the tile.
///
/// An edge that is not available reads as a row/column of the DC
/// level (HEVC's substitution), so both edge buffers always span the
/// gathered block and directional modes degrade to DC on their own
/// when their edge is missing.
///
/// The edge buffers are reusable: [`IntraRefs::regather`] refills them
/// in place, so a scratch-owned `IntraRefs` makes reference gathering
/// zero-allocation in steady state.
///
/// References belong to the block they were gathered for: the
/// prediction methods take `w x h` only to check it, and panic on any
/// other geometry. `IntraRefs::default()` is that empty scratch — it
/// holds no block, so it predicts nothing until it is `regather`ed.
#[derive(Debug, Clone, Default)]
pub struct IntraRefs {
    /// Row above the block, or `dc` repeated when unavailable.
    top: Vec<u8>,
    has_top: bool,
    /// Column left of the block, or `dc` repeated when unavailable.
    left: Vec<u8>,
    has_left: bool,
    /// Mean of the available references, 128 when none exist (set by
    /// `regather`; meaningless before it).
    dc: u8,
}

impl IntraRefs {
    /// Gathers reference samples for `block` from the reconstructed
    /// plane, restricted to `tile` (no prediction across tile borders).
    ///
    /// # Panics
    ///
    /// Panics when `block` is not inside `tile`.
    pub fn gather(recon: &Plane, block: &Rect, tile: &Rect) -> Self {
        let mut refs = Self::default();
        refs.regather(recon, block, tile);
        refs
    }

    /// Refills this reference set in place (allocation-free once the
    /// edge buffers have grown to the block size).
    ///
    /// # Panics
    ///
    /// Panics when `block` is not inside `tile`.
    pub fn regather(&mut self, recon: &Plane, block: &Rect, tile: &Rect) {
        assert!(
            tile.contains_rect(block),
            "block {block} outside tile {tile}"
        );
        self.top.clear();
        self.has_top = block.y > tile.y;
        if self.has_top {
            self.top
                .extend_from_slice(recon.row_span(block.y - 1, block.x, block.w));
        }
        self.left.clear();
        self.has_left = block.x > tile.x;
        if self.has_left {
            let col = block.x - 1;
            self.left
                .extend((block.y..block.bottom()).map(|row| recon.get(col, row)));
        }
        let sum: u32 = self.top.iter().chain(&self.left).map(|&s| s as u32).sum();
        let count = (self.top.len() + self.left.len()) as u32;
        self.dc = (sum + count / 2)
            .checked_div(count)
            .map_or(128, |v| v as u8);
        if !self.has_top {
            self.top.resize(block.w, self.dc);
        }
        if !self.has_left {
            self.left.resize(block.h, self.dc);
        }
    }

    /// `true` when neither reference edge is available (tile corner).
    pub fn is_empty(&self) -> bool {
        !self.has_top && !self.has_left
    }

    /// Predicts a `w x h` block with `mode`, returning row-major samples.
    ///
    /// Unavailable references fall back to the HEVC default level 128,
    /// and directional modes degrade to DC when their edge is missing.
    ///
    /// # Panics
    ///
    /// Panics when `w x h` is empty or not the geometry of the block
    /// the references were gathered for.
    pub fn predict(&self, mode: IntraMode, w: usize, h: usize) -> Vec<u8> {
        let mut out = Vec::new();
        self.predict_into(mode, w, h, &mut out);
        out
    }

    /// Allocation-free [`IntraRefs::predict`]: replaces the contents
    /// of `out` with the prediction. Bit-exact with
    /// [`IntraRefs::predict`].
    ///
    /// # Panics
    ///
    /// Panics when `w x h` is empty or not the geometry of the block
    /// the references were gathered for.
    pub fn predict_into(&self, mode: IntraMode, w: usize, h: usize, out: &mut Vec<u8>) {
        self.assert_geometry(w, h);
        out.clear();
        out.resize(w * h, self.dc);
        match mode {
            IntraMode::Dc => {}
            IntraMode::Planar => self.planar_into(w, h, out),
            IntraMode::Horizontal => {
                for (row, &edge) in out.chunks_exact_mut(w).zip(&self.left) {
                    row.fill(edge);
                }
            }
            IntraMode::Vertical => {
                for row in out.chunks_exact_mut(w) {
                    row.copy_from_slice(&self.top);
                }
            }
        }
    }

    fn assert_geometry(&self, w: usize, h: usize) {
        assert!(w > 0 && h > 0, "cannot predict an empty {w}x{h} block");
        assert!(
            self.top.len() == w && self.left.len() == h,
            "{w}x{h} prediction from references gathered for a {}x{} block",
            self.top.len(),
            self.left.len()
        );
    }

    /// HEVC-style planar: the mean of a horizontal and a vertical
    /// linear blend, `(hor·h + ver·w + w·h) / (2·w·h)`. The divisor is
    /// a power of two for every block whose sides are (8, 16, 32), and
    /// then the division is the exact right shift; other geometries
    /// keep the divide.
    fn planar_into(&self, w: usize, h: usize, out: &mut [u8]) {
        let divisor = 2 * (w * h) as u32;
        if divisor.is_power_of_two() {
            let shift = divisor.trailing_zeros();
            self.planar_rows(w, h, out, |v| v >> shift);
        } else {
            self.planar_rows(w, h, out, |v| v / divisor);
        }
    }

    #[inline(always)]
    fn planar_rows(&self, w: usize, h: usize, out: &mut [u8], scale: impl Fn(u32) -> u32) {
        let (top, left) = (&self.top, &self.left);
        let (wu, hu) = (w as u32, h as u32);
        let top_right = top[w - 1] as u32;
        let bottom_left = left[h - 1] as u32;
        for (y, (row, &l)) in out.chunks_exact_mut(w).zip(left).enumerate() {
            let (y, l) = (y as u32, l as u32);
            for (x, (sample, &t)) in row.iter_mut().zip(top).enumerate() {
                let x = x as u32;
                let hor = (wu - 1 - x) * l + (x + 1) * top_right;
                let ver = (hu - 1 - y) * t as u32 + (y + 1) * bottom_left;
                *sample = scale(hor * hu + ver * wu + wu * hu).min(255) as u8;
            }
        }
    }

    /// Picks the mode with the lowest SAD against `original` (row-major
    /// `w x h` samples): the winning prediction ends up in `best` (`tmp`
    /// is trial scratch), and the mode and its SAD are returned. Modes are tried in [`IntraMode::ALL`] order
    /// and a later mode wins only when strictly better.
    ///
    /// Every mode is scored by one whole-block
    /// [`simd::block_sad`] call, bounded by the best SAD so far (a
    /// mode that reaches it cannot win). DC and vertical predictions
    /// repeat one row, so they are scored against that row at stride 0
    /// and only materialised if they win; a directional mode whose
    /// edge is missing *is* the DC prediction and is skipped, since it
    /// cannot be strictly better.
    ///
    /// # Panics
    ///
    /// Panics when `original.len() != w * h`, or `w x h` is empty or
    /// not the geometry of the block the references were gathered for.
    pub fn best_mode_into(
        &self,
        original: &[u8],
        w: usize,
        h: usize,
        best: &mut Vec<u8>,
        tmp: &mut Vec<u8>,
    ) -> (IntraMode, u64) {
        self.assert_geometry(w, h);
        assert_eq!(original.len(), w * h, "original buffer mismatch");
        let tier = simd::tier();
        let sad = |prediction: &[u8], stride: usize, bound: u64| {
            simd::block_sad(tier, original, w, prediction, stride, w, h, bound)
        };
        tmp.clear();
        tmp.resize(w, self.dc);
        let mut winner = (IntraMode::Dc, sad(tmp, 0, u64::MAX));
        // Planar is built in `best` and horizontal in `tmp`, so either
        // can win without being predicted twice.
        self.predict_into(IntraMode::Planar, w, h, best);
        let cost = sad(best, w, winner.1);
        if cost < winner.1 {
            winner = (IntraMode::Planar, cost);
        }
        if self.has_left {
            self.predict_into(IntraMode::Horizontal, w, h, tmp);
            let cost = sad(tmp, w, winner.1);
            if cost < winner.1 {
                winner = (IntraMode::Horizontal, cost);
            }
        }
        if self.has_top {
            let cost = sad(&self.top, 0, winner.1);
            if cost < winner.1 {
                winner = (IntraMode::Vertical, cost);
            }
        }
        match winner.0 {
            IntraMode::Planar => {}
            IntraMode::Horizontal => std::mem::swap(best, tmp),
            mode => self.predict_into(mode, w, h, best),
        }
        winner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recon_with_borders() -> Plane {
        let mut p = Plane::filled(16, 16, 0);
        // Row above the block at y=4: value 100; column left at x=4: 50.
        for col in 0..16 {
            p.set(col, 3, 100);
        }
        for row in 0..16 {
            p.set(3, row, 50);
        }
        p
    }

    #[test]
    fn gather_respects_tile_border() {
        let recon = recon_with_borders();
        let tile = Rect::new(4, 4, 12, 12);
        let block = Rect::new(4, 4, 4, 4);
        let refs = IntraRefs::gather(&recon, &block, &tile);
        // Block sits at the tile corner: nothing available.
        assert!(refs.is_empty());
        // Same block inside a frame-wide tile: both edges available.
        let refs = IntraRefs::gather(&recon, &block, &Rect::frame(16, 16));
        assert!(!refs.is_empty());
    }

    #[test]
    fn dc_without_refs_is_128() {
        let recon = Plane::new(8, 8);
        let tile = Rect::frame(8, 8);
        let refs = IntraRefs::gather(&recon, &Rect::new(0, 0, 4, 4), &tile);
        let pred = refs.predict(IntraMode::Dc, 4, 4);
        assert!(pred.iter().all(|&s| s == 128));
    }

    #[test]
    fn dc_averages_references() {
        let recon = recon_with_borders();
        let refs = IntraRefs::gather(&recon, &Rect::new(4, 4, 4, 4), &Rect::frame(16, 16));
        let pred = refs.predict(IntraMode::Dc, 4, 4);
        // top 4x100 + left 4x50 → mean 75.
        assert!(pred.iter().all(|&s| s == 75), "pred={pred:?}");
    }

    #[test]
    fn horizontal_copies_left_column() {
        let recon = recon_with_borders();
        let refs = IntraRefs::gather(&recon, &Rect::new(4, 4, 4, 2), &Rect::frame(16, 16));
        let pred = refs.predict(IntraMode::Horizontal, 4, 2);
        assert!(pred.iter().all(|&s| s == 50));
    }

    #[test]
    fn vertical_copies_top_row() {
        let recon = recon_with_borders();
        let refs = IntraRefs::gather(&recon, &Rect::new(4, 4, 2, 4), &Rect::frame(16, 16));
        let pred = refs.predict(IntraMode::Vertical, 2, 4);
        assert!(pred.iter().all(|&s| s == 100));
    }

    #[test]
    fn planar_blends_smoothly() {
        let recon = recon_with_borders();
        let refs = IntraRefs::gather(&recon, &Rect::new(4, 4, 4, 4), &Rect::frame(16, 16));
        let pred = refs.predict(IntraMode::Planar, 4, 4);
        // Values between left (50) and top (100) levels.
        assert!(pred.iter().all(|&s| (50..=100).contains(&s)), "{pred:?}");
        // Not constant (it interpolates).
        assert!(pred.iter().any(|&s| s != pred[0]));
    }

    #[test]
    fn best_mode_picks_matching_direction() {
        let recon = recon_with_borders();
        let refs = IntraRefs::gather(&recon, &Rect::new(4, 4, 4, 4), &Rect::frame(16, 16));
        // Original block = rows of 100 (matches vertical from top=100).
        let original = vec![100u8; 16];
        let (mut pred, mut tmp) = (Vec::new(), Vec::new());
        let (mode, sad) = refs.best_mode_into(&original, 4, 4, &mut pred, &mut tmp);
        assert_eq!(mode, IntraMode::Vertical);
        assert_eq!(sad, 0);
        assert_eq!(pred, original);
        // Original block = rows of 50 (matches horizontal from left=50).
        let original = vec![50u8; 16];
        let (mode, sad) = refs.best_mode_into(&original, 4, 4, &mut pred, &mut tmp);
        assert_eq!(mode, IntraMode::Horizontal);
        assert_eq!(sad, 0);
    }

    #[test]
    fn mode_indices_are_unique() {
        let mut seen: Vec<u32> = IntraMode::ALL.iter().map(|m| m.index()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4);
    }
}
