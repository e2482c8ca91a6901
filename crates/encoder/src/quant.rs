//! Scalar quantization of transform coefficients.
//!
//! Uses the HEVC step-size law `Qstep = 2^((QP-4)/6)` with a dead-zone
//! rounding offset (HEVC uses 1/3 for intra, 1/6 for inter; the
//! difference is second-order for the experiments, so the intra offset
//! is used throughout).

use crate::config::Qp;

/// Dead-zone rounding offset as a fraction of the step size.
const DEAD_ZONE: f64 = 1.0 / 3.0;

/// Relative margin kept below the dead-zone edge by
/// [`zero_threshold`]: `2⁻²⁰`, some `10⁷` times the worst-case `f64`
/// rounding of a transform coefficient and of the quantizer's own
/// arithmetic (derivation in [`crate::block`]'s module docs).
const ZERO_GUARD: f64 = 1.0 / (1u32 << 20) as f64;

/// Magnitude below which a coefficient is certain to quantize to
/// level 0 at step size `step`, rounding included: [`quantize`]
/// yields 0 iff `|c| / step + DEAD_ZONE < 1`, i.e.
/// `|c| < step * (1 - DEAD_ZONE)`, and the guard keeps callers that
/// only bound `|c|` clear of that edge.
pub(crate) fn zero_threshold(step: f64) -> f64 {
    step * (1.0 - DEAD_ZONE) * (1.0 - ZERO_GUARD)
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
    quantize_with_step(coeffs, qp.step_size(), out);
}

/// [`quantize_into`] with the step size already evaluated, so a
/// caller coding many blocks at one QP pays `Qp::step_size`'s `powf`
/// once.
pub(crate) fn quantize_with_step(coeffs: &[f64], step: f64, out: &mut Vec<i32>) {
    out.clear();
    out.extend(coeffs.iter().map(|&c| {
        let sign = if c < 0.0 { -1.0 } else { 1.0 };
        (sign * (c.abs() / step + DEAD_ZONE).floor()) as i32
    }));
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
    dequantize_with_step(levels, qp.step_size(), out);
}

/// [`dequantize_into`] with the step size already evaluated.
pub(crate) fn dequantize_with_step(levels: &[i32], step: f64, out: &mut Vec<f64>) {
    out.clear();
    out.extend(levels.iter().map(|&l| l as f64 * step));
}

/// Quantizes integer-path transform coefficients
/// ([`crate::transform::int`]) to levels: the same dead-zone law as
/// [`quantize`], applied to integer inputs.
pub fn quantize_int(coeffs: &[i32], qp: Qp) -> Vec<i32> {
    let mut out = Vec::new();
    quantize_int_into(coeffs, qp, &mut out);
    out
}

/// Allocation-free [`quantize_int`]: writes the levels into `out`
/// (cleared first). Bit-exact with [`quantize_int`].
pub fn quantize_int_into(coeffs: &[i32], qp: Qp, out: &mut Vec<i32>) {
    let step = qp.step_size();
    out.clear();
    out.extend(coeffs.iter().map(|&c| {
        let sign = if c < 0 { -1.0 } else { 1.0 };
        (sign * ((c.abs() as f64) / step + DEAD_ZONE).floor()) as i32
    }));
}

/// Reconstructs integer coefficients from levels (rounded to the
/// nearest integer so the inverse integer transform stays all-integer
/// downstream).
pub fn dequantize_int(levels: &[i32], qp: Qp) -> Vec<i32> {
    let mut out = Vec::new();
    dequantize_int_into(levels, qp, &mut out);
    out
}

/// Allocation-free [`dequantize_int`]: writes the coefficients into
/// `out` (cleared first). Bit-exact with [`dequantize_int`].
pub fn dequantize_int_into(levels: &[i32], qp: Qp, out: &mut Vec<i32>) {
    let step = qp.step_size();
    out.clear();
    out.extend(levels.iter().map(|&l| (l as f64 * step).round() as i32));
}

/// Counts the non-zero levels (the "significance" driver of entropy
/// cost).
pub fn nonzero_count(levels: &[i32]) -> usize {
    levels.iter().filter(|&&l| l != 0).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn qp(v: u8) -> Qp {
        Qp::new(v).expect("valid QP")
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
