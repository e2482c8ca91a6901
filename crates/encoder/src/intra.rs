//! Intra prediction: DC, planar, horizontal and vertical modes.
//!
//! Prediction references the *reconstructed* samples above and left of
//! the block, like HEVC, and never crosses tile boundaries (tiles are
//! independently decodable).
//!
//! # Planar by a column-step recurrence
//!
//! With top edge `t`, left edge `l`, `tr = t[w−1]` and `bl = l[h−1]`,
//! planar is `v(x, y) / (2·w·h)` where
//!
//! ```text
//! v(x, y) = h·((w−1−x)·l[y] + (x+1)·tr) + w·((h−1−y)·t[x] + (y+1)·bl) + w·h
//!         = base_y[x] + h·(w−1−x)·l[y]
//! base_{y+1}[x] = base_y[x] + w·(bl − t[x])
//! ```
//!
//! so a row costs one multiply-add per sample (the `l[y]` term over a
//! per-column weight) and one add to step the per-column `base` to the
//! next row, instead of four multiplies. The arithmetic is `u32` and
//! exact: every true `v` is at most `511·w·h` (each blend is at most
//! `255·w·h`) and every `base_y` for `y < h` lies in `[0, v]`, so with
//! both sides at most [`MAX_SIDE`] nothing exceeds `2²¹`. The step
//! `w·(bl − t[x])` may be negative; it is added with wrapping `u32`
//! arithmetic, which is exact modulo `2³²` and therefore exact for every
//! row that is read. `v / (2·w·h)` is at most 255, and it is a right
//! shift whenever `2·w·h` is a power of two (every 8/16/32/64-sided
//! block); other geometries keep the divide.
//!
//! # Mode decision in one pass
//!
//! [`IntraRefs::score_modes`] walks the original block once, row by
//! row, in place in its frame, and accumulates the exact SAD of all
//! four modes side by side: DC is one level, horizontal the broadcast
//! `l[y]`, vertical the top row, and planar the row the recurrence just
//! produced. Planar's rows are kept; any other winner's prediction is
//! built only once it has won.
//!
//! The pass takes a bound: in a P block, the SAD at which intra can no
//! longer beat the inter cost already found ([`IntraRefs::sad_bound`]).
//! Every four rows it stops once every mode's partial SAD has reached
//! it. Partial SADs only grow, so a stopped block is one whose full
//! pass would have lost to inter too.

use medvt_frame::{Plane, Rect};
#[cfg(target_arch = "x86_64")]
use medvt_motion::cost::simd;
use serde::{Deserialize, Serialize};

/// Largest block side the prediction methods accept: HEVC's largest
/// coding block. It bounds planar's `u32` sums (see the module docs)
/// and sizes the recurrence's per-column arrays.
pub(crate) const MAX_SIDE: usize = 64;

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

    /// The first strict minimum of `sads` (one SAD per mode, in
    /// [`IntraMode::ALL`] order): the decided mode and its SAD. A later
    /// mode wins only when strictly better.
    pub fn first_min(sads: [u64; 4]) -> (IntraMode, u64) {
        let mut winner = (IntraMode::Dc, sads[0]);
        for (mode, sad) in IntraMode::ALL.into_iter().zip(sads) {
            if sad < winner.1 {
                winner = (mode, sad);
            }
        }
        winner
    }

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
        self.dc = Self::dc_level(recon, block, tile);
        self.top.clear();
        self.has_top = block.y > tile.y;
        if self.has_top {
            self.top
                .extend_from_slice(recon.row_span(block.y - 1, block.x, block.w));
        } else {
            self.top.resize(block.w, self.dc);
        }
        self.left.clear();
        self.has_left = block.x > tile.x;
        if self.has_left {
            let col = block.x - 1;
            self.left
                .extend((block.y..block.bottom()).map(|row| recon.get(col, row)));
        } else {
            self.left.resize(block.h, self.dc);
        }
    }

    /// The DC level of `block`: the rounded mean of the reconstructed
    /// samples above and left of it inside `tile`, 128 when neither
    /// edge exists. Read straight from the plane, so a DC-only caller
    /// (chroma) needs no edge buffers.
    ///
    /// # Panics
    ///
    /// Panics when `block` is not inside `tile`.
    pub(crate) fn dc_level(recon: &Plane, block: &Rect, tile: &Rect) -> u8 {
        assert!(
            tile.contains_rect(block),
            "block {block} outside tile {tile}"
        );
        let (mut sum, mut count) = (0u32, 0u32);
        if block.y > tile.y {
            let top = recon.row_span(block.y - 1, block.x, block.w);
            sum += top.iter().map(|&s| u32::from(s)).sum::<u32>();
            count += block.w as u32;
        }
        if block.x > tile.x {
            let col = block.x - 1;
            sum += (block.y..block.bottom())
                .map(|row| u32::from(recon.get(col, row)))
                .sum::<u32>();
            count += block.h as u32;
        }
        (sum + count / 2)
            .checked_div(count)
            .map_or(128, |v| v as u8)
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
    /// Panics when `w x h` is empty, has a side above 64, or is not the
    /// geometry of the block the references were gathered for.
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
    /// Panics when `w x h` is empty, has a side above 64, or is not the
    /// geometry of the block the references were gathered for.
    pub fn predict_into(&self, mode: IntraMode, w: usize, h: usize, out: &mut Vec<u8>) {
        self.assert_geometry(w, h);
        out.clear();
        out.resize(w * h, self.dc);
        match mode {
            IntraMode::Dc => {}
            IntraMode::Planar => {
                self.planar_pass(w, h, out, None, u64::MAX);
            }
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
            w <= MAX_SIDE && h <= MAX_SIDE,
            "{w}x{h} block has a side above {MAX_SIDE}"
        );
        assert!(
            self.top.len() == w && self.left.len() == h,
            "{w}x{h} prediction from references gathered for a {}x{} block",
            self.top.len(),
            self.left.len()
        );
    }

    /// Picks the mode with the lowest SAD against `original` (row-major
    /// `w x h` samples): the winning prediction ends up in `best`, and
    /// the mode and its exact SAD are returned. Modes are tried in
    /// [`IntraMode::ALL`] order and a later mode wins only when strictly
    /// better.
    ///
    /// One unbounded [`IntraRefs::score_modes`] pass scores all four
    /// modes. Planar's rows are built in `tmp` and swapped into `best`
    /// if planar wins; any other winner is one fill of `best`. A
    /// directional mode whose edge is missing predicts the DC level
    /// everywhere, ties DC exactly and so never wins.
    ///
    /// # Panics
    ///
    /// Panics when `original.len() != w * h`, or `w x h` is empty, has
    /// a side above 64, or is not the geometry of the block the
    /// references were gathered for.
    pub fn best_mode_into(
        &self,
        original: &[u8],
        w: usize,
        h: usize,
        best: &mut Vec<u8>,
        tmp: &mut Vec<u8>,
    ) -> (IntraMode, u64) {
        assert_eq!(original.len(), w * h, "original buffer mismatch");
        let sads = self
            .score_modes((original, w), w, h, tmp, u64::MAX)
            .expect("an unbounded pass runs to the end");
        let winner = IntraMode::first_min(sads);
        match winner.0 {
            IntraMode::Planar => std::mem::swap(best, tmp),
            mode => self.predict_into(mode, w, h, best),
        }
        winner
    }

    /// The fused mode-decision pass (module docs) over the `w x h`
    /// original `(samples, stride)`, anchored at the block's top-left
    /// sample — a frame plane read in place, or a packed block at
    /// stride `w`. Returns the exact SAD of every mode, in
    /// [`IntraMode::ALL`] order, with planar's prediction in `planar`
    /// (resized to `w * h`).
    ///
    /// The pass may stop at a four-row boundary once every mode's
    /// partial SAD is at least `bound`, and then returns `None`: no
    /// mode's full SAD is below `bound`, and `planar` holds only part
    /// of a prediction. `u64::MAX` never stops.
    ///
    /// On the x86 tiers a block whose width is 8, 16, 32 or 64 and
    /// whose planar divisor is a power of two runs the SSE2 body; every
    /// other block, and the scalar tier, the portable pass.
    ///
    /// # Panics
    ///
    /// Panics when `w x h` is empty, has a side above 64, or is not the
    /// geometry of the block the references were gathered for, and
    /// when `original` does not hold `h` rows of `w` at `stride`.
    pub fn score_modes(
        &self,
        original: (&[u8], usize),
        w: usize,
        h: usize,
        planar: &mut Vec<u8>,
        bound: u64,
    ) -> Option<[u64; 4]> {
        self.assert_geometry(w, h);
        let (samples, stride) = original;
        assert!(
            stride >= w && (h - 1) * stride + w <= samples.len(),
            "original shorter than {h} rows of {w} at stride {stride}"
        );
        planar.resize(w * h, 0);
        #[cfg(target_arch = "x86_64")]
        if simd::tier() != simd::DispatchTier::Scalar && (2 * w * h).is_power_of_two() {
            let shift = (2 * w * h).trailing_zeros();
            // SAFETY: SSE2 is part of the x86_64 baseline, the one
            // requirement of the bodies.
            unsafe {
                match w {
                    8 => return x86::score_modes_sse2::<8>(self, shift, original, planar, bound),
                    16 => return x86::score_modes_sse2::<16>(self, shift, original, planar, bound),
                    32 => return x86::score_modes_sse2::<32>(self, shift, original, planar, bound),
                    64 => return x86::score_modes_sse2::<64>(self, shift, original, planar, bound),
                    _ => {}
                }
            }
        }
        self.planar_pass(w, h, planar, Some(original), bound)
    }

    /// The least SAD whose intra cost `sad + overhead`, added in `f64`
    /// as the mode decision adds it, reaches `cost`; `u64::MAX` (a pass
    /// that never stops) when that is not below `u64::MAX` or either
    /// argument is NaN. A block whose every mode's SAD is at least this
    /// bound cannot cost less than `cost`, so it is the bound of a
    /// [`IntraRefs::score_modes`] pass that only has to find out whether
    /// intra beats an inter cost (a tie goes to inter).
    pub fn sad_bound(cost: f64, overhead: f64) -> u64 {
        let estimate = (cost - overhead).ceil();
        if estimate.is_nan() || estimate >= u64::MAX as f64 {
            return u64::MAX;
        }
        // `s as f64 + overhead` never decreases as `s` grows (rounding
        // is monotone), so walk from the real-valued answer to the
        // least integer that reaches `cost`.
        let mut s = estimate.max(0.0) as u64;
        while s > 0 && (s - 1) as f64 + overhead >= cost {
            s -= 1;
        }
        while (s as f64) + overhead < cost {
            s += 1;
        }
        s
    }

    /// Planar's per-column state at row 0 (module docs).
    fn planar_columns(&self) -> PlanarColumns {
        let (top, left) = (&self.top, &self.left);
        let (w, h) = (top.len(), left.len());
        let (wu, hu) = (w as u32, h as u32);
        let top_right = u32::from(top[w - 1]);
        let bottom_left = u32::from(left[h - 1]);
        let mut cols = PlanarColumns {
            base: [0; MAX_SIDE],
            step: [0; MAX_SIDE],
            weight: [0; MAX_SIDE],
        };
        for (x, &t) in top.iter().enumerate() {
            let (xu, t) = (x as u32, u32::from(t));
            cols.base[x] =
                hu * (xu + 1) * top_right + wu * (hu - 1) * t + wu * bottom_left + wu * hu;
            cols.step[x] = wu.wrapping_mul(bottom_left.wrapping_sub(t));
            cols.weight[x] = hu * (wu - 1 - xu);
        }
        cols
    }

    /// Writes planar's `w x h` prediction into `out` by the column-step
    /// recurrence. With `original` (`(samples, stride)`), also returns
    /// the exact SAD of every mode against it, in [`IntraMode::ALL`]
    /// order (zeros without), or `None` once every partial SAD reaches
    /// `bound` at a four-row boundary ([`IntraRefs::score_modes`]).
    fn planar_pass(
        &self,
        w: usize,
        h: usize,
        out: &mut [u8],
        original: Option<(&[u8], usize)>,
        bound: u64,
    ) -> Option<[u64; 4]> {
        let divisor = 2 * (w * h) as u32;
        if divisor.is_power_of_two() {
            let shift = divisor.trailing_zeros();
            self.planar_rows(w, h, out, original, bound, |v| v >> shift)
        } else {
            self.planar_rows(w, h, out, original, bound, |v| v / divisor)
        }
    }

    #[inline(always)]
    fn planar_rows(
        &self,
        w: usize,
        h: usize,
        out: &mut [u8],
        original: Option<(&[u8], usize)>,
        bound: u64,
        scale: impl Fn(u32) -> u32,
    ) -> Option<[u64; 4]> {
        let mut cols = self.planar_columns();
        let (base, step, weight) = (&mut cols.base[..w], &cols.step[..w], &cols.weight[..w]);
        let (top, left, dc) = (&self.top[..w], &self.left[..h], self.dc);
        let (mut dc_sad, mut planar_sad, mut hor_sad, mut ver_sad) = (0u32, 0u32, 0u32, 0u32);
        for (y, (row, &l)) in out.chunks_exact_mut(w).zip(left).enumerate() {
            let lu = u32::from(l);
            for (((p, b), &s), &k) in row.iter_mut().zip(base.iter_mut()).zip(step).zip(weight) {
                *p = scale(*b + k * lu) as u8;
                *b = b.wrapping_add(s);
            }
            if let Some((original, stride)) = original {
                let orig = &original[y * stride..][..w];
                for ((&o, &p), &t) in orig.iter().zip(&*row).zip(top) {
                    dc_sad += u32::from(o.abs_diff(dc));
                    planar_sad += u32::from(o.abs_diff(p));
                    hor_sad += u32::from(o.abs_diff(l));
                    ver_sad += u32::from(o.abs_diff(t));
                }
                if y % 4 == 3 {
                    let least = dc_sad.min(planar_sad).min(hor_sad).min(ver_sad);
                    if u64::from(least) >= bound {
                        return None;
                    }
                }
            }
        }
        Some([dc_sad, planar_sad, hor_sad, ver_sad].map(u64::from))
    }
}

/// Planar's per-column state at row 0: `base_0[x]`, the step
/// `w·(bl − t[x])` from one row's `base` to the next, and the weight
/// `h·(w−1−x)` of the row's left sample (module docs). Only the first
/// `w` entries are used.
struct PlanarColumns {
    base: [u32; MAX_SIDE],
    step: [u32; MAX_SIDE],
    weight: [u32; MAX_SIDE],
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{IntraRefs, MAX_SIDE};
    use std::arch::x86_64::*;

    /// [`IntraRefs::planar_rows`] for a `W`-wide block (`W` of 8, 16,
    /// 32 or 64) whose planar divisor is `2^shift`, eight columns per
    /// step: the recurrence in 32-bit lanes, where `_mm_madd_epi16`
    /// multiplies the weight (below `2¹²`) by the left sample exactly,
    /// then signed and unsigned saturating packs that are exact on
    /// values in `0..=255`, and four `psadbw` per 16 samples. Same
    /// bytes, SADs and stopping rows as the portable pass. Every load
    /// and store goes through a slice of exactly the bytes it touches,
    /// so the bounds checks of safe indexing guard it.
    ///
    /// # Safety
    ///
    /// The host must support SSE2 (every x86_64 host does).
    ///
    /// # Panics
    ///
    /// Panics when the references are not `W` wide, or `original` (at
    /// its stride) or `planar` is shorter than the block.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn score_modes_sse2<const W: usize>(
        refs: &IntraRefs,
        shift: u32,
        (original, stride): (&[u8], usize),
        planar: &mut [u8],
        bound: u64,
    ) -> Option<[u64; 4]> {
        const { assert!(W == 8 || W == 16 || W == 32 || W == 64) };
        let cols = refs.planar_columns();
        let (top, left) = (&refs.top[..], &refs.left[..]);
        assert_eq!(top.len(), W, "references gathered for another width");
        let h = left.len();
        let planar = &mut planar[..W * h];
        let zero = _mm_setzero_si128();
        let lane =
            |a: &[u32; MAX_SIDE], j: usize| _mm_loadu_si128(a[4 * j..4 * j + 4].as_ptr().cast());
        let (mut base, mut step, mut weight) = (
            [zero; MAX_SIDE / 4],
            [zero; MAX_SIDE / 4],
            [zero; MAX_SIDE / 4],
        );
        for j in 0..W / 4 {
            (base[j], step[j], weight[j]) = (
                lane(&cols.base, j),
                lane(&cols.step, j),
                lane(&cols.weight, j),
            );
        }
        let count = _mm_cvtsi32_si128(shift as i32);
        // An 8-wide block fills the low half of each register; its high
        // halves stay zero on both sides of every `psadbw`.
        let live = |v: __m128i| {
            if W == 8 {
                _mm_unpacklo_epi64(v, zero)
            } else {
                v
            }
        };
        let dc = live(_mm_set1_epi8(refs.dc as i8));
        let mut sads = [zero; 4];
        for (y, &l) in left.iter().enumerate() {
            let l32 = _mm_set1_epi32(i32::from(l));
            let l8 = live(_mm_set1_epi8(l as i8));
            let (orig, pred) = (&original[y * stride..][..W], &mut planar[y * W..][..W]);
            // Planar's eight samples of columns `8g..8g + 8` as i16,
            // stepping their `base` to the next row.
            let mut eight = |g: usize| {
                let mut half = [zero; 2];
                for (i, out) in half.iter_mut().enumerate() {
                    let j = 2 * g + i;
                    let v = _mm_add_epi32(base[j], _mm_madd_epi16(weight[j], l32));
                    *out = _mm_srl_epi32(v, count);
                    base[j] = _mm_add_epi32(base[j], step[j]);
                }
                _mm_packs_epi32(half[0], half[1])
            };
            for c in 0..W.div_ceil(16) {
                let (p, o, t);
                if W == 8 {
                    p = _mm_packus_epi16(eight(0), zero);
                    o = _mm_loadl_epi64(orig.as_ptr().cast());
                    t = _mm_loadl_epi64(top.as_ptr().cast());
                    _mm_storel_epi64(pred.as_mut_ptr().cast(), p);
                } else {
                    p = _mm_packus_epi16(eight(2 * c), eight(2 * c + 1));
                    o = _mm_loadu_si128(orig[16 * c..16 * c + 16].as_ptr().cast());
                    t = _mm_loadu_si128(top[16 * c..16 * c + 16].as_ptr().cast());
                    _mm_storeu_si128(pred[16 * c..16 * c + 16].as_mut_ptr().cast(), p);
                }
                for (sad, prediction) in sads.iter_mut().zip([dc, p, l8, t]) {
                    *sad = _mm_add_epi64(*sad, _mm_sad_epu8(o, prediction));
                }
            }
            if y % 4 == 3 {
                let [a, b, c, d] = total(sads);
                if a.min(b).min(c).min(d) >= bound {
                    return None;
                }
            }
        }
        Some(total(sads))
    }

    /// The four SADs from their two-lane `psadbw` accumulators.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn total(sads: [__m128i; 4]) -> [u64; 4] {
        sads.map(|v| _mm_cvtsi128_si64(_mm_add_epi64(v, _mm_unpackhi_epi64(v, v))) as u64)
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
    fn sad_bound_is_the_least_sad_reaching_the_cost() {
        assert_eq!(IntraRefs::sad_bound(10.5, 3.0), 8);
        assert_eq!(IntraRefs::sad_bound(11.0, 3.0), 8);
        assert_eq!(IntraRefs::sad_bound(11.000001, 3.0), 9);
        assert_eq!(IntraRefs::sad_bound(2.0, 3.0), 0);
        for cost in [f64::INFINITY, f64::NAN, 1e30] {
            assert_eq!(IntraRefs::sad_bound(cost, 3.0), u64::MAX, "{cost}");
        }
        assert_eq!(IntraRefs::sad_bound(10.0, f64::NAN), u64::MAX);
    }

    #[test]
    fn mode_indices_are_unique() {
        let mut seen: Vec<u32> = IntraMode::ALL.iter().map(|m| m.index()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4);
    }
}
