//! Block-matching distortion: SAD, the one search metric, and SATD.
//!
//! Both compare a block of the *current* plane against a
//! motion-shifted block of the *reference* plane. Reference access uses
//! edge clamping, matching unrestricted motion vectors over padded
//! reference pictures in HEVC.
//!
//! Motion search scores every candidate by SAD, but not through
//! [`sad_upto`]: a [`crate::SearchContext`] resolves the reference
//! samples of its block's whole search range and [`simd::block_sad`]'s
//! body for its tier and width once, when it is built, and scores each
//! candidate with one call of that body at an offset. The encoder gives
//! every inter tile one window per reference, gathered once with edge
//! replication when the tile lies within the search radius of a frame
//! edge; a context over a bare plane gathers its own block's range
//! when that range reaches off the plane. No candidate of a search
//! reaches the clamped path below. [`satd`] has no search caller; it is
//! kept as a standalone measure of post-transform cost.
//!
//! Two access patterns back both metrics:
//!
//! * an **interior fast path** taken when the displaced block lies
//!   fully inside the reference plane — both operands are then plain
//!   strided spans of their planes and the inner loops run explicit
//!   SIMD kernels picked at runtime by [`mod@simd`] (AVX2 → SSE2 →
//!   scalar), every tier bit-equal to the scalar code. SAD runs the
//!   whole block in one kernel call ([`simd::block_sad`]); SATD calls
//!   a kernel per 4x4 sub-block;
//! * the **clamped path** for candidates that reach off the frame,
//!   and it is the only one: the edge-replicated reference patch is
//!   gathered row-wise into a stack buffer
//!   ([`Plane::gather_block_clamped`], the same gather a tile's
//!   reference window and chroma motion compensation use) and the same
//!   kernels run on it. Two callers reach it: [`satd`], and the public
//!   [`sad`] / [`sad_upto`]. The per-sample [`Plane::get_clamped`] form survives
//!   only in `tests/kernel_differential.rs`, as the executable
//!   specification every tier must match.
//!
//! [`sad_upto`] additionally takes an exclusive `bound` and may stop
//! early once the partial sum reaches it (tested every four rows).
//! Because the partial sum of a non-negative series never exceeds the
//! total, the returned value is either the exact cost (when it is
//! below `bound`) or a lower bound that is `>= bound` — either way a
//! caller comparing against `bound` makes the same accept/reject
//! decision as with the exact cost, which keeps motion decisions
//! bit-identical.

use crate::MotionVector;
use medvt_frame::{Plane, Rect};
use serde::{Deserialize, Serialize};

pub mod simd;

/// Distortion metric selector. SAD is the only metric a search runs,
/// so the type selects nothing.
// Vestige: `benchmark/src/replay.rs:277` passes `CostMetric::Sad` to
// `SearchContext::new`; the next `[benchmark]` PR drops type and argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum CostMetric {
    /// Sum of absolute differences — the classic ME metric.
    #[default]
    Sad,
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
/// reference patch is gathered into. Larger blocks (sides up to the
/// 64 that `EncoderConfig::validate` admits) are walked in pieces of
/// this side.
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
    clamped_sad_upto(t, cur, reference, block, mv, bound)
}

/// The clamped path of [`sad_upto`] on tier `t`, for a non-empty
/// `block` inside `cur`: the edge-replicated reference patch is
/// gathered into a stack buffer and the same kernel runs on it. Blocks
/// beyond the patch size are walked in patch-sized pieces against what
/// is left of the bound.
fn clamped_sad_upto(
    t: simd::DispatchTier,
    cur: &Plane,
    reference: &Plane,
    block: &Rect,
    mv: MotionVector,
    bound: u64,
) -> u64 {
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

/// Sum of absolute Hadamard-transformed differences over 4x4
/// sub-blocks, halved to stay on the SAD scale.
///
/// Blocks whose dimensions are not multiples of 4 fall back to [`sad`]
/// for the ragged edge.
///
/// # Panics
///
/// Panics when `block` is not fully inside `cur`.
pub fn satd(cur: &Plane, reference: &Plane, block: &Rect, mv: MotionVector) -> u64 {
    assert!(
        cur.bounds().contains_rect(block),
        "block {block} outside current plane"
    );
    let full_w = block.w - block.w % 4;
    let full_h = block.h - block.h % 4;
    let interior = interior_origin(reference, block, mv);
    // Resolve the SIMD tier once, not per sub-block.
    let t = simd::tier();
    let mut patch = [0u8; 16];
    let mut acc = 0u64;
    for by in (0..full_h).step_by(4) {
        for bx in (0..full_w).step_by(4) {
            let (r, ref_stride) = match interior {
                Some((rx, ry)) => (reference.span_from(rx + bx, ry + by), reference.width()),
                None => {
                    reference.gather_block_clamped(
                        (block.x + bx) as isize + mv.x as isize,
                        (block.y + by) as isize + mv.y as isize,
                        4,
                        4,
                        &mut patch,
                    );
                    (&patch[..], 4)
                }
            };
            let c = cur.span_from(block.x + bx, block.y + by);
            acc += simd::satd4(t, c, cur.width(), r, ref_stride) / 2;
        }
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
    fn satd_handles_ragged_blocks() {
        let (cur, reference) = planes();
        let block = Rect::new(1, 1, 7, 6);
        // Must not panic; must still prefer the true displacement.
        let good = satd(&cur, &reference, &block, MotionVector::new(-2, 0));
        let bad = satd(&cur, &reference, &block, MotionVector::new(2, 0));
        assert!(good < bad);
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
