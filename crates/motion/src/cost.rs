//! Block-matching distortion metrics: SAD, SSD and SATD.
//!
//! All metrics compare a block of the *current* plane against a
//! motion-shifted block of the *reference* plane. Reference access uses
//! edge clamping, matching unrestricted motion vectors over padded
//! reference pictures in HEVC.
//!
//! Two access patterns back every metric:
//!
//! * an **interior fast path** taken when the displaced block lies
//!   fully inside the reference plane — both operands are then plain
//!   strided spans of their planes and the inner loops run explicit
//!   SIMD kernels picked at runtime by [`mod@simd`] (AVX2 → SSE2 →
//!   scalar), every tier bit-equal to the scalar code. SAD runs the
//!   whole block in one kernel call ([`simd::block_sad`]); SSD and
//!   SATD call a kernel per row / per 4x4 sub-block;
//! * the **clamped path** for candidates that reach off the frame.
//!   SAD gathers the edge-replicated reference patch row-wise into a
//!   stack buffer ([`Plane::gather_block_clamped`], the same gather
//!   motion compensation uses) and runs the block kernel on it; SSD
//!   and SATD keep per-sample [`Plane::get_clamped`] access, the form
//!   in which `tests/kernel_differential.rs` restates every metric as
//!   the executable specification all tiers must match.
//!
//! The `_upto` variants additionally take an exclusive `bound` and may
//! stop early once the partial sum reaches it (SAD tests every four
//! rows, SSD every row, SATD every row of sub-blocks). Because the
//! partial sum of a non-negative series never exceeds the total, the
//! returned value is either the exact cost (when it is below `bound`)
//! or a lower bound that is `>= bound` — either way a caller comparing
//! against `bound` makes the same accept/reject decision as with the
//! exact cost, which keeps motion decisions bit-identical.

use crate::MotionVector;
use medvt_frame::{Plane, Rect};
use serde::{Deserialize, Serialize};

pub mod simd;

/// Distortion metric selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum CostMetric {
    /// Sum of absolute differences — the classic ME metric.
    #[default]
    Sad,
    /// Sum of squared differences.
    Ssd,
    /// Sum of absolute Hadamard-transformed differences (4x4 blocks),
    /// a closer proxy for post-transform bit cost.
    Satd,
}

/// Top-left corner of the displaced block in reference coordinates
/// when it lies fully inside the reference plane.
#[inline]
fn interior_origin(reference: &Plane, block: &Rect, mv: MotionVector) -> Option<(usize, usize)> {
    let x0 = block.x as isize + mv.x as isize;
    let y0 = block.y as isize + mv.y as isize;
    if x0 >= 0
        && y0 >= 0
        && (x0 as usize) + block.w <= reference.width()
        && (y0 as usize) + block.h <= reference.height()
    {
        Some((x0 as usize, y0 as usize))
    } else {
        None
    }
}

/// Side of the stack buffer an off-frame SAD candidate's clamped
/// reference patch is gathered into (the largest prediction block the
/// encoder's presets use).
const CLAMPED_PATCH: usize = 32;

/// Sum of absolute differences between `block` of `cur` and the block
/// displaced by `mv` in `reference`.
///
/// # Panics
///
/// Panics when `block` is not fully inside `cur`.
pub fn sad(cur: &Plane, reference: &Plane, block: &Rect, mv: MotionVector) -> u64 {
    sad_upto(cur, reference, block, mv, u64::MAX)
}

/// [`sad`] with early termination: may return once a partial sum
/// reaches `bound` (see the module docs for why the result still
/// decides `cost < bound` exactly).
///
/// # Panics
///
/// Panics when `block` is not fully inside `cur`.
pub fn sad_upto(cur: &Plane, reference: &Plane, block: &Rect, mv: MotionVector, bound: u64) -> u64 {
    assert!(
        cur.bounds().contains_rect(block),
        "block {block} outside current plane"
    );
    if block.is_empty() {
        return 0;
    }
    let t = simd::tier();
    if let Some((rx, ry)) = interior_origin(reference, block, mv) {
        return simd::block_sad(
            t,
            cur.span_from(block.x, block.y),
            cur.width(),
            reference.span_from(rx, ry),
            reference.width(),
            block.w,
            block.h,
            bound,
        );
    }
    // Off-frame candidate: gather the clamped reference patch and run
    // the same kernel on it. Blocks beyond the patch size are walked
    // in patch-sized pieces against what is left of the bound.
    let mut patch = [0u8; CLAMPED_PATCH * CLAMPED_PATCH];
    let mut acc = 0u64;
    for sy in (0..block.h).step_by(CLAMPED_PATCH) {
        let sh = CLAMPED_PATCH.min(block.h - sy);
        for sx in (0..block.w).step_by(CLAMPED_PATCH) {
            let sw = CLAMPED_PATCH.min(block.w - sx);
            let patch = &mut patch[..sw * sh];
            reference.gather_block_clamped(
                (block.x + sx) as isize + mv.x as isize,
                (block.y + sy) as isize + mv.y as isize,
                sw,
                sh,
                patch,
            );
            acc += simd::block_sad(
                t,
                cur.span_from(block.x + sx, block.y + sy),
                cur.width(),
                patch,
                sw,
                sw,
                sh,
                bound - acc,
            );
            if acc >= bound {
                return acc;
            }
        }
    }
    acc
}

/// Sum of squared differences (same access pattern as [`sad`]).
///
/// # Panics
///
/// Panics when `block` is not fully inside `cur`.
pub fn ssd(cur: &Plane, reference: &Plane, block: &Rect, mv: MotionVector) -> u64 {
    ssd_upto(cur, reference, block, mv, u64::MAX)
}

/// [`ssd`] with early termination at row granularity against `bound`.
///
/// # Panics
///
/// Panics when `block` is not fully inside `cur`.
pub(crate) fn ssd_upto(
    cur: &Plane,
    reference: &Plane,
    block: &Rect,
    mv: MotionVector,
    bound: u64,
) -> u64 {
    assert!(
        cur.bounds().contains_rect(block),
        "block {block} outside current plane"
    );
    let mut acc = 0u64;
    if let Some((rx, ry)) = interior_origin(reference, block, mv) {
        // Resolve the SIMD tier once, not per row.
        let t = simd::tier();
        for (i, row) in (block.y..block.bottom()).enumerate() {
            let cur_row = &cur.row(row)[block.x..block.right()];
            let ref_row = &reference.row(ry + i)[rx..rx + block.w];
            acc += simd::row_ssd(t, cur_row, ref_row);
            if acc >= bound {
                return acc;
            }
        }
    } else {
        for row in block.y..block.bottom() {
            let cur_row = &cur.row(row)[block.x..block.right()];
            let ref_y = row as isize + mv.y as isize;
            for (i, &c) in cur_row.iter().enumerate() {
                let ref_x = (block.x + i) as isize + mv.x as isize;
                let r = reference.get_clamped(ref_x, ref_y);
                let d = (c as i64) - (r as i64);
                acc += (d * d) as u64;
            }
            if acc >= bound {
                return acc;
            }
        }
    }
    acc
}

/// 4x4 Hadamard transform of a residual block, returning Σ|coeff|.
fn hadamard4_cost(res: &[i32; 16]) -> u64 {
    let mut m = [0i32; 16];
    // Rows.
    for r in 0..4 {
        let a = res[r * 4];
        let b = res[r * 4 + 1];
        let c = res[r * 4 + 2];
        let d = res[r * 4 + 3];
        let s0 = a + c;
        let s1 = b + d;
        let d0 = a - c;
        let d1 = b - d;
        m[r * 4] = s0 + s1;
        m[r * 4 + 1] = s0 - s1;
        m[r * 4 + 2] = d0 + d1;
        m[r * 4 + 3] = d0 - d1;
    }
    // Columns.
    let mut acc = 0u64;
    for c in 0..4 {
        let a = m[c];
        let b = m[4 + c];
        let cc = m[8 + c];
        let d = m[12 + c];
        let s0 = a + cc;
        let s1 = b + d;
        let d0 = a - cc;
        let d1 = b - d;
        acc += (s0 + s1).unsigned_abs() as u64;
        acc += (s0 - s1).unsigned_abs() as u64;
        acc += (d0 + d1).unsigned_abs() as u64;
        acc += (d0 - d1).unsigned_abs() as u64;
    }
    acc
}

/// Sum of absolute Hadamard-transformed differences over 4x4 sub-blocks.
///
/// Blocks whose dimensions are not multiples of 4 fall back to [`sad`]
/// for the ragged edge.
///
/// # Panics
///
/// Panics when `block` is not fully inside `cur`.
pub fn satd(cur: &Plane, reference: &Plane, block: &Rect, mv: MotionVector) -> u64 {
    satd_upto(cur, reference, block, mv, u64::MAX)
}

/// [`satd`] with early termination after each row of 4x4 sub-blocks
/// against `bound`.
///
/// # Panics
///
/// Panics when `block` is not fully inside `cur`.
pub(crate) fn satd_upto(
    cur: &Plane,
    reference: &Plane,
    block: &Rect,
    mv: MotionVector,
    bound: u64,
) -> u64 {
    assert!(
        cur.bounds().contains_rect(block),
        "block {block} outside current plane"
    );
    let mut acc = 0u64;
    let full_w = block.w - block.w % 4;
    let full_h = block.h - block.h % 4;
    let mut res = [0i32; 16];
    let interior = interior_origin(reference, block, mv);
    // Resolve the SIMD tier once, not per sub-block.
    let t = simd::tier();
    let mut by = 0;
    while by < full_h {
        let mut bx = 0;
        while bx < full_w {
            if let Some((rx, ry)) = interior {
                // Normalize by 2 to keep SATD on a SAD-comparable scale.
                acc += simd::satd4(
                    t,
                    cur.span_from(block.x + bx, block.y + by),
                    cur.width(),
                    reference.span_from(rx + bx, ry + by),
                    reference.width(),
                ) / 2;
            } else {
                for sy in 0..4 {
                    let row = block.y + by + sy;
                    let ref_y = row as isize + mv.y as isize;
                    for sx in 0..4 {
                        let col = block.x + bx + sx;
                        let ref_x = col as isize + mv.x as isize;
                        res[sy * 4 + sx] =
                            cur.get(col, row) as i32 - reference.get_clamped(ref_x, ref_y) as i32;
                    }
                }
                acc += hadamard4_cost(&res) / 2;
            }
            bx += 4;
        }
        if acc >= bound {
            return acc;
        }
        by += 4;
    }
    // Ragged right edge.
    if full_w < block.w {
        let edge = Rect::new(block.x + full_w, block.y, block.w - full_w, block.h);
        acc += sad(cur, reference, &edge, mv);
    }
    // Ragged bottom edge (excluding the corner already counted).
    if full_h < block.h {
        let edge = Rect::new(block.x, block.y + full_h, full_w, block.h - full_h);
        acc += sad(cur, reference, &edge, mv);
    }
    acc
}

/// Dispatches to the chosen metric.
///
/// # Panics
///
/// Panics when `block` is not fully inside `cur`.
pub fn block_cost(
    metric: CostMetric,
    cur: &Plane,
    reference: &Plane,
    block: &Rect,
    mv: MotionVector,
) -> u64 {
    block_cost_upto(metric, cur, reference, block, mv, u64::MAX)
}

/// [`block_cost`] with early termination against `bound` (see the
/// module docs for the decision-equivalence argument).
///
/// # Panics
///
/// Panics when `block` is not fully inside `cur`.
pub fn block_cost_upto(
    metric: CostMetric,
    cur: &Plane,
    reference: &Plane,
    block: &Rect,
    mv: MotionVector,
    bound: u64,
) -> u64 {
    match metric {
        CostMetric::Sad => sad_upto(cur, reference, block, mv, bound),
        CostMetric::Ssd => ssd_upto(cur, reference, block, mv, bound),
        CostMetric::Satd => satd_upto(cur, reference, block, mv, bound),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planes() -> (Plane, Plane) {
        // Reference: gradient; current: the same gradient shifted right by 2.
        let mut reference = Plane::new(32, 16);
        for row in 0..16 {
            for col in 0..32 {
                reference.set(col, row, (col * 8 % 256) as u8);
            }
        }
        let mut cur = Plane::new(32, 16);
        for row in 0..16 {
            for col in 0..32 {
                cur.set(
                    col,
                    row,
                    reference.get_clamped(col as isize - 2, row as isize),
                );
            }
        }
        (cur, reference)
    }

    #[test]
    fn sad_zero_for_true_motion() {
        let (cur, reference) = planes();
        let block = Rect::new(8, 4, 8, 8);
        // Content moved right by 2 ⇒ the matching reference block is at -2.
        assert_eq!(sad(&cur, &reference, &block, MotionVector::new(-2, 0)), 0);
        assert!(sad(&cur, &reference, &block, MotionVector::ZERO) > 0);
    }

    #[test]
    fn ssd_grows_faster_than_sad() {
        let (cur, reference) = planes();
        let block = Rect::new(8, 4, 8, 8);
        let s = sad(&cur, &reference, &block, MotionVector::ZERO);
        let q = ssd(&cur, &reference, &block, MotionVector::ZERO);
        // Each sample differs by 16 ⇒ ssd = 16 * sad.
        assert_eq!(q, s * 16);
    }

    #[test]
    fn satd_zero_for_perfect_match() {
        let (cur, reference) = planes();
        let block = Rect::new(8, 4, 8, 8);
        assert_eq!(satd(&cur, &reference, &block, MotionVector::new(-2, 0)), 0);
    }

    #[test]
    fn satd_prefers_true_motion() {
        let (cur, reference) = planes();
        let block = Rect::new(8, 4, 8, 8);
        let good = satd(&cur, &reference, &block, MotionVector::new(-2, 0));
        let bad = satd(&cur, &reference, &block, MotionVector::new(3, 1));
        assert!(good < bad);
    }

    #[test]
    fn hadamard_dc_only() {
        // Constant residual of 1: all energy in DC = 16, so cost = 16.
        let res = [1i32; 16];
        assert_eq!(hadamard4_cost(&res), 16);
    }

    #[test]
    fn satd_handles_ragged_blocks() {
        let (cur, reference) = planes();
        let block = Rect::new(1, 1, 7, 6);
        // Must not panic; must still prefer the true displacement.
        let good = satd(&cur, &reference, &block, MotionVector::new(-2, 0));
        let bad = satd(&cur, &reference, &block, MotionVector::new(2, 0));
        assert!(good < bad);
    }

    #[test]
    fn block_cost_dispatches() {
        let (cur, reference) = planes();
        let block = Rect::new(8, 4, 8, 8);
        let mv = MotionVector::new(-2, 0);
        assert_eq!(block_cost(CostMetric::Sad, &cur, &reference, &block, mv), 0);
        assert_eq!(block_cost(CostMetric::Ssd, &cur, &reference, &block, mv), 0);
        assert_eq!(
            block_cost(CostMetric::Satd, &cur, &reference, &block, mv),
            0
        );
    }

    #[test]
    fn clamped_access_at_frame_edge() {
        let (cur, reference) = planes();
        let block = Rect::new(0, 0, 8, 8);
        // Large negative MV reads clamped samples; must not panic.
        let c = sad(&cur, &reference, &block, MotionVector::new(-100, -100));
        assert!(c > 0);
    }

    #[test]
    fn interior_detection() {
        let reference = Plane::new(32, 16);
        let block = Rect::new(8, 4, 8, 8);
        assert!(interior_origin(&reference, &block, MotionVector::ZERO).is_some());
        assert!(interior_origin(&reference, &block, MotionVector::new(-8, -4)).is_some());
        assert!(interior_origin(&reference, &block, MotionVector::new(-9, 0)).is_none());
        assert!(interior_origin(&reference, &block, MotionVector::new(16, 0)).is_some());
        assert!(interior_origin(&reference, &block, MotionVector::new(17, 0)).is_none());
        assert!(interior_origin(&reference, &block, MotionVector::new(0, 5)).is_none());
    }

    #[test]
    fn upto_is_exact_below_bound_and_reaches_bound_otherwise() {
        let (cur, reference) = planes();
        let block = Rect::new(8, 4, 8, 8);
        let mv = MotionVector::ZERO;
        let exact = sad(&cur, &reference, &block, mv);
        assert!(exact > 0);
        // Bound above the exact cost: exact value comes back.
        assert_eq!(sad_upto(&cur, &reference, &block, mv, exact + 1), exact);
        // Bound at or below the exact cost: the result is >= bound.
        for bound in [1, exact / 2, exact] {
            let c = sad_upto(&cur, &reference, &block, mv, bound);
            assert!(c >= bound, "bound {bound} gave {c}");
            assert!(c <= exact);
        }
    }
}
