//! Scalar quantization of transform coefficients.
//!
//! Uses the HEVC step-size law `Qstep = 2^((QP-4)/6)` with a dead-zone
//! rounding offset (HEVC uses 1/3 for intra, 1/6 for inter; the
//! difference is second-order for the experiments, so the intra offset
//! is used throughout).

use crate::config::Qp;
use crate::transform::{size_index, Square, ALL_LINES, TRANSFORM_SIZES};
use std::sync::OnceLock;

/// Dead-zone rounding offset as a fraction of the step size.
const DEAD_ZONE: f64 = 1.0 / 3.0;

/// Relative margin kept below the dead-zone edge by
/// [`zero_threshold`]: `2⁻²⁰`, some `10⁷` times the worst-case `f64`
/// rounding of a transform coefficient and of the quantizer's own
/// arithmetic (derivation in the residual coder's module docs).
const ZERO_GUARD: f64 = 1.0 / (1u32 << 20) as f64;

/// Magnitude below which a coefficient is certain to quantize to
/// level 0 at step size `step`, rounding included: [`quantize`]
/// yields 0 iff `|c| / step + DEAD_ZONE < 1`, i.e.
/// `|c| < step * (1 - DEAD_ZONE)`, and the guard keeps callers that
/// only bound `|c|` clear of that edge.
pub fn zero_threshold(step: f64) -> f64 {
    step * (1.0 - DEAD_ZONE) * (1.0 - ZERO_GUARD)
}

/// `true` when the norms of an `n x n` residual (`sad = ‖x‖₁`,
/// `ssd = ‖x‖₂²`) prove that every coefficient of its orthonormal
/// DCT-II has magnitude below `zero_below`: `|c| ≤ √ssd` and
/// `|c| ≤ (2/n)·sad` (derivation in the residual coder's module docs).
///
/// This is the definition of the zero-block elision predicate; the
/// encoder tests its integer form, [`ZeroBlockBound`].
pub fn norms_bound_below(sad: u32, ssd: u32, n: usize, zero_below: f64) -> bool {
    let l2_bound = f64::from(ssd).sqrt();
    let l1_bound = f64::from(sad) * (2.0 / n as f64);
    l2_bound.min(l1_bound) < zero_below
}

/// [`norms_bound_below`] at one QP and transform size, as two integer
/// thresholds: the predicate is monotone in `sad` and in `ssd` and
/// true whenever either bound is below the threshold, so it holds
/// exactly when `sad ≤ max_sad` or `ssd ≤ max_ssd`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroBlockBound {
    /// Largest `‖x‖₁` whose L1 bound `(2/n)·sad` is below the
    /// quantizer's [`zero_threshold`].
    pub max_sad: u32,
    /// Largest `‖x‖₂²` whose L2 bound `√ssd` is below it.
    pub max_ssd: u32,
}

impl ZeroBlockBound {
    /// The thresholds for `n x n` blocks quantized at `qp`, from a
    /// table filled on first use.
    ///
    /// # Panics
    ///
    /// Panics when `n` is not a supported transform size.
    pub fn of(qp: Qp, n: usize) -> ZeroBlockBound {
        static TABLE: OnceLock<[[ZeroBlockBound; TRANSFORM_SIZES.len()]; Qp::COUNT]> =
            OnceLock::new();
        let table = TABLE.get_or_init(|| {
            std::array::from_fn(|v| {
                let zero_below = zero_threshold(Qp::saturating(v as i32).step_size());
                TRANSFORM_SIZES.map(|n| ZeroBlockBound::search(n, zero_below))
            })
        });
        table[usize::from(qp.value())][size_index(n)]
    }

    /// Finds both thresholds by evaluating [`norms_bound_below`] itself
    /// either side of where its real-valued form crosses.
    fn search(n: usize, zero_below: f64) -> ZeroBlockBound {
        // `holds(0)` is true (`0 < zero_below`), so the descent stops.
        fn largest(guess: f64, holds: impl Fn(u32) -> bool) -> u32 {
            let mut v = guess as u32;
            while !holds(v) {
                v -= 1;
            }
            while holds(v + 1) {
                v += 1;
            }
            v
        }
        // The norm held at `u32::MAX` bounds nothing below any
        // threshold, which leaves the other one to decide alone.
        ZeroBlockBound {
            max_sad: largest(zero_below * n as f64 / 2.0, |sad| {
                norms_bound_below(sad, u32::MAX, n, zero_below)
            }),
            max_ssd: largest(zero_below * zero_below, |ssd| {
                norms_bound_below(u32::MAX, ssd, n, zero_below)
            }),
        }
    }

    /// [`norms_bound_below`] for this QP and size, in integers.
    #[inline]
    pub fn proves_zero(self, sad: u32, ssd: u32) -> bool {
        sad <= self.max_sad || ssd <= self.max_ssd
    }
}

/// The level of one coefficient. `|c| / step + DEAD_ZONE` is never
/// negative, so truncating it (the `as` cast, a `cvttsd2si`) is `floor`
/// without the libm call baseline x86-64 needs for one, and applying
/// the sign afterwards still gives `-0.0`, and a negative coefficient
/// inside the dead zone, level 0. Transform coefficients are at most
/// `255 · 32` in magnitude, far inside `i32`.
#[inline(always)]
fn level(c: f64, step: f64) -> i32 {
    let magnitude = (c.abs() / step + DEAD_ZONE) as i32;
    if c < 0.0 {
        -magnitude
    } else {
        magnitude
    }
}

/// Quantizes coefficients to integer levels.
pub fn quantize(coeffs: &[f64], qp: Qp) -> Vec<i32> {
    let mut out = Vec::new();
    quantize_into(coeffs, qp, &mut out);
    out
}

/// Allocation-free [`quantize`]: writes the levels into `out`
/// (cleared first). Bit-exact with [`quantize`].
pub fn quantize_into(coeffs: &[f64], qp: Qp, out: &mut Vec<i32>) {
    let step = qp.step_size();
    out.clear();
    out.extend(coeffs.iter().map(|&c| level(c, step)));
}

/// [`quantize_into`] for one `N x N` block at an already looked-up
/// step size. Returns the masks of the rows and of the columns that
/// hold a level (bit `i` for line `i`).
///
/// A coefficient with `|c|` below [`zero_threshold`] is level 0 without
/// a divide: there `|c|/step < 2/3 − 2⁻²¹` even after the divide's
/// rounding, so adding `1/3` still truncates to 0. Only the others are
/// divided, found as the set bits of one compare mask per row.
#[inline(always)]
pub(crate) fn quantize_block<const N: usize>(
    coeffs: &Square<f64, N>,
    step: f64,
    levels: &mut Square<i32, N>,
) -> (u32, u32) {
    let zero_below = zero_threshold(step);
    let (mut rows, mut cols) = (0u32, 0u32);
    for (r, (coeff_row, level_row)) in coeffs.iter().zip(levels.iter_mut()).enumerate() {
        *level_row = [0; N];
        // Most rows hold no level: one vectorisable test skips them.
        if !coeff_row
            .iter()
            .fold(false, |any, c| any | (c.abs() >= zero_below))
        {
            continue;
        }
        // `|c| − zero_below` is negative exactly when `|c|` is below it
        // (a difference of two doubles has the sign of the exact one),
        // so its sign bits are the mask of the coefficients skipped.
        let mut below = 0u32;
        for (c, coeff) in coeff_row.iter().enumerate() {
            below |= (((coeff.abs() - zero_below).to_bits() >> 63) as u32) << c;
        }
        let mut over = !below & (ALL_LINES >> (32 - N));
        let mut row_cols = 0u32;
        while over != 0 {
            let c = over.trailing_zeros() as usize;
            over &= over - 1;
            level_row[c] = level(coeff_row[c], step);
            row_cols |= u32::from(level_row[c] != 0) << c;
        }
        rows |= u32::from(row_cols != 0) << r;
        cols |= row_cols;
    }
    (rows, cols)
}

/// Reconstructs coefficients from levels.
pub fn dequantize(levels: &[i32], qp: Qp) -> Vec<f64> {
    let mut out = Vec::new();
    dequantize_into(levels, qp, &mut out);
    out
}

/// Allocation-free [`dequantize`]: writes the coefficients into `out`
/// (cleared first). Bit-exact with [`dequantize`].
pub fn dequantize_into(levels: &[i32], qp: Qp, out: &mut Vec<f64>) {
    let step = qp.step_size();
    out.clear();
    out.extend(levels.iter().map(|&l| l as f64 * step));
}

/// [`dequantize_into`] for the rows of one `N x N` block set in `rows`
/// (bit `i` for row `i`), at an already looked-up step size. The other
/// rows of `coeffs` are left as they are: the sparse inverse never
/// reads them.
#[inline(always)]
pub(crate) fn dequantize_rows<const N: usize>(
    levels: &Square<i32, N>,
    rows: u32,
    step: f64,
    coeffs: &mut Square<f64, N>,
) {
    for (r, (coeff_row, level_row)) in coeffs.iter_mut().zip(levels).enumerate() {
        if rows & (1 << r) == 0 {
            continue;
        }
        for (c, &l) in coeff_row.iter_mut().zip(level_row) {
            *c = f64::from(l) * step;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn qp(v: u8) -> Qp {
        Qp::new(v).expect("valid QP")
    }

    fn nonzero_count(levels: &[i32]) -> usize {
        levels.iter().filter(|&&l| l != 0).count()
    }

    #[test]
    fn zero_coeffs_quantize_to_zero() {
        let levels = quantize(&[0.0; 16], qp(32));
        assert!(levels.iter().all(|&l| l == 0));
    }

    #[test]
    fn higher_qp_zeroes_more_coefficients() {
        let coeffs: Vec<f64> = (0..64).map(|i| (i as f64) * 1.5 - 40.0).collect();
        let fine = quantize(&coeffs, qp(22));
        let coarse = quantize(&coeffs, qp(42));
        assert!(nonzero_count(&coarse) <= nonzero_count(&fine));
        assert!(nonzero_count(&coarse) < coeffs.len());
    }

    #[test]
    fn reconstruction_error_bounded_by_step() {
        let coeffs: Vec<f64> = (0..32).map(|i| (i as f64) * 7.3 - 100.0).collect();
        let q = qp(27);
        let rec = dequantize(&quantize(&coeffs, q), q);
        for (c, r) in coeffs.iter().zip(&rec) {
            assert!(
                (c - r).abs() <= q.step_size(),
                "error {} exceeds step {}",
                (c - r).abs(),
                q.step_size()
            );
        }
    }

    #[test]
    fn dead_zone_rounds_small_values_to_zero() {
        let q = qp(32); // step ≈ 25.4
        let step = q.step_size();
        // |c| < (1 - 1/3) * step quantizes to zero.
        let levels = quantize(&[step * 0.5, -step * 0.5], q);
        assert_eq!(levels, vec![0, 0]);
        let levels = quantize(&[step * 0.9, -step * 0.9], q);
        assert_eq!(levels, vec![1, -1]);
    }

    #[test]
    fn zero_threshold_sits_just_inside_the_dead_zone() {
        for v in 0..=51 {
            let q = qp(v);
            let t = zero_threshold(q.step_size());
            assert_eq!(quantize(&[t, -t], q), vec![0, 0], "qp {v}");
            // The guard gives away a millionth of the dead zone, no more.
            let past = t * (1.0 + 1e-5);
            assert_eq!(quantize(&[past, -past], q), vec![1, -1], "qp {v}");
        }
    }

    #[test]
    fn quantization_is_odd_symmetric() {
        let coeffs = [57.3, -57.3, 13.1, -13.1];
        let levels = quantize(&coeffs, qp(30));
        assert_eq!(levels[0], -levels[1]);
        assert_eq!(levels[2], -levels[3]);
    }

    proptest! {
        #[test]
        fn prop_into_matches_allocating(
            coeffs in proptest::collection::vec(-500.0f64..500.0, 1..64),
            qp_val in 0u8..=51,
        ) {
            let q = qp(qp_val);
            let mut levels = vec![99i32; 7]; // dirty buffer must be cleared
            quantize_into(&coeffs, q, &mut levels);
            prop_assert_eq!(&levels, &quantize(&coeffs, q));
            let mut rec = vec![4.2f64; 3];
            dequantize_into(&levels, q, &mut rec);
            prop_assert_eq!(&rec, &dequantize(&levels, q));
        }

        #[test]
        fn prop_error_bounded(
            coeffs in proptest::collection::vec(-1000.0f64..1000.0, 1..64),
            qp_val in 0u8..=51,
        ) {
            let q = qp(qp_val);
            let rec = dequantize(&quantize(&coeffs, q), q);
            for (c, r) in coeffs.iter().zip(&rec) {
                prop_assert!((c - r).abs() <= q.step_size() * (1.0 + 1e-12));
            }
        }

        #[test]
        fn prop_monotone_levels(c in 0.0f64..1000.0, qp_val in 0u8..=51) {
            // Larger coefficients never get smaller levels.
            let q = qp(qp_val);
            let l1 = quantize(&[c], q)[0];
            let l2 = quantize(&[c * 2.0], q)[0];
            prop_assert!(l2 >= l1);
        }
    }
}
