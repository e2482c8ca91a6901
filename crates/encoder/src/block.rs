//! Residual coding of one prediction block: transform, quantization,
//! entropy coding and reconstruction.
//!
//! # Zero-block elision
//!
//! Bio-medical frames are mostly low-texture, low-motion background,
//! so at serving QPs almost every transform block quantizes to
//! all-zero levels: its whole contribution is one `coded_block_flag =
//! 0` bit and a reconstruction equal to the prediction. The coder
//! proves that outcome from two integer norms of the residual `x`,
//! accumulated while the block is gathered, and then skips forward DCT,
//! quantizer, dequantizer, inverse DCT and the reconstruction loop —
//! with the same bytes, reconstruction and counters as running them.
//!
//! The DCT-II of [`transform`] is orthonormal and separable, so a
//! coefficient is `c = Σᵢⱼ B[i,j]·x[i,j]` with `B[i,j] = C[k,i]·C[l,j]`:
//!
//! * `‖B‖₂ = 1`, hence `|c| ≤ ‖x‖₂ = √SSD` (Cauchy–Schwarz);
//! * every 1-D basis entry is at most `√(2/n)` in magnitude, so
//!   `|B[i,j]| ≤ 2/n` and `|c| ≤ (2/n)·‖x‖₁ = (2/n)·SAD`.
//!
//! The quantizer ([`crate::quant`]) yields level 0 iff
//! `|c|/step + 1/3 < 1`, i.e. `|c| < (2/3)·step`. A block is therefore
//! elided when
//!
//! ```text
//! min(√SSD, (2/n)·SAD) < step · (2/3) · (1 − 2⁻²⁰)
//! ```
//!
//! The L2 bound catches noise-like residuals (many small samples), the
//! L1 bound single-spike ones; neither dominates. That inequality is
//! [`crate::quant::norms_bound_below`]; per block the coder tests its
//! integer form, [`ZeroBlockBound`] — the largest `SAD` and the largest
//! `SSD` for which it holds at the tile's QP and transform size, found
//! once by evaluating that very predicate.
//!
//! **The guard.** The bounds above hold for the exact coefficient; the
//! encoder's is computed in `f64`. Each of the two matrix products
//! accumulates `n` terms (relative error ≤ `(n+1)·u` of the sum of the
//! terms' magnitudes, `u = 2⁻⁵³`), against a basis table whose entries
//! (`cos`, one multiply, one `sqrt`) are within a few `u` of exact.
//! The magnitudes sum to `Σ|B|·|x|`, which obeys the same two bounds
//! as `|c|` (`|B|` has the same norms as `B`), so the computed
//! coefficient exceeds the bound by at most `(2n + 12)·u` of it: under
//! `10⁻¹⁴` at `n = 32`. The quantizer's divide and add, the threshold's
//! two multiplies and the `sqrt` add a few `u` more — about `3·10⁻¹⁴`
//! in all, relative. The `2⁻²⁰ ≈ 10⁻⁶` guard is some `10⁷` times that,
//! so a block within rounding reach of the dead-zone edge is never
//! elided; it takes the full path, like every block the bound cannot
//! decide.
//!
//! A block that fails the bound runs forward DCT, quantizer and
//! [`code_block`] (`code_surviving_block`: fixed-size kernels on stack
//! arrays, the transform under [`transform`]'s evaluation-order
//! contract); when its levels all came out zero anyway the remaining
//! stages are skipped too, exactly: `0·step` is `+0.0`,
//! the inverse DCT of zeros sums signed zeros to `+0.0`, and
//! `pred + 0.0` rounds and clamps to `pred`.
//!
//! Measured on the `benchmark/` workloads (seed 2018): the bound
//! elides 97.7 % of transform blocks on `live_inter` and 92.2 % on
//! `live_intra` — 99 % of the blocks whose levels are in fact all
//! zero.

use crate::bits::{code_block, BitWriter};
use crate::config::Qp;
use crate::quant::{dequantize_block, quantize_block, ZeroBlockBound};
use crate::transform::{self, as_square, with_size, Square, TxPath};
#[cfg(target_arch = "x86_64")]
use medvt_motion::cost::simd;

/// Outcome of coding one residual region.
#[derive(Debug, Clone)]
pub struct CodedResidual {
    /// Reconstructed samples (prediction + dequantized residual),
    /// row-major, same geometry as the input.
    pub recon: Vec<u8>,
    /// Bits emitted for the residual coefficients.
    pub bits: u64,
    /// Samples presented to the residual coder (elided blocks
    /// included).
    pub transform_samples: u64,
    /// Sum of squared error of `recon` against the original.
    pub ssd: u64,
}

/// Rate/distortion counters of one coded residual region (the
/// reconstruction itself lands in a caller-owned buffer).
#[derive(Debug, Clone, Copy, Default)]
pub struct ResidualOutcome {
    /// Bits emitted for the residual coefficients.
    pub bits: u64,
    /// Samples presented to the residual coder (elided blocks
    /// included): the count [`crate::CostModel`] prices, independent
    /// of how many blocks the coder could skip.
    pub transform_samples: u64,
    /// Sum of squared error of the reconstruction against the original.
    pub ssd: u64,
    /// Transform blocks whose levels all quantized to zero (elided
    /// blocks included).
    pub zero_level_blocks: u32,
    /// Transform blocks proven all-zero from their residual norms and
    /// coded without running the transform.
    pub elided_blocks: u32,
}

/// The reusable buffer of [`code_residual_into`]: one gathered
/// residual sub-block (the transform stages work on stack arrays). One
/// instance per encoding thread makes residual coding zero-allocation
/// in steady state.
#[derive(Debug, Clone, Default)]
pub struct ResidualScratch {
    residual: Vec<i32>,
}

/// Bits [`code_block`] spends on a block without levels: the lone
/// `coded_block_flag = 0`. Any block with a level costs more.
const EMPTY_BLOCK_BITS: u64 = 1;

/// Gathers the `n x n` residual `original - prediction` of two
/// operands anchored at the block's top-left sample (rows `stride`
/// apart) into `residual`, and returns its norms `(‖x‖₁, ‖x‖₂²)` — at
/// most 32² · 255² < 2³², so `u32` holds both.
///
/// The transform sizes the encoder uses (8 for luma, 4 for chroma) get
/// a copy of the loop with a literal `n`, whose fixed-length rows LLVM
/// unrolls and vectorises; other sizes share the same loop with `n` at
/// run time.
fn gather_residual(
    n: usize,
    original: &[u8],
    prediction: &[u8],
    stride: usize,
    residual: &mut [i32],
) -> (u32, u32) {
    #[inline(always)]
    fn rows(
        n: usize,
        original: &[u8],
        prediction: &[u8],
        stride: usize,
        residual: &mut [i32],
    ) -> (u32, u32) {
        let (mut sad, mut ssd) = (0u32, 0u32);
        for (r, out) in residual[..n * n].chunks_exact_mut(n).enumerate() {
            let o = &original[r * stride..r * stride + n];
            let p = &prediction[r * stride..r * stride + n];
            for ((d, &o), &p) in out.iter_mut().zip(o).zip(p) {
                *d = o as i32 - p as i32;
                sad += d.unsigned_abs();
                ssd += (*d * *d) as u32;
            }
        }
        (sad, ssd)
    }
    match n {
        4 => rows(4, original, prediction, stride, residual),
        8 => rows(8, original, prediction, stride, residual),
        n => rows(n, original, prediction, stride, residual),
    }
}

/// Reconstructs one `N x N` block whose operands are anchored at its
/// top-left sample with rows `stride` apart: `recon = prediction +
/// residual`, rounded half away from zero and clamped to `0..=255`.
/// Returns the block's squared error against `original` (at most
/// `32² · 255²`, so the `u32` accumulator cannot overflow).
#[inline(always)]
fn reconstruct<const N: usize>(
    original: &[u8],
    prediction: &[u8],
    stride: usize,
    residual: &Square<f64, N>,
    recon: &mut [u8],
) -> u64 {
    let mut ssd = 0u32;
    for (r, res_row) in residual.iter().enumerate() {
        let row = r * stride..r * stride + N;
        let orig_row = &original[row.clone()];
        let pred_row = &prediction[row.clone()];
        let rec_row = &mut recon[row];
        for c in 0..N {
            let v = f64::from(pred_row[c]) + res_row[c];
            let rec = v.round().clamp(0.0, 255.0) as u8;
            rec_row[c] = rec;
            let d = i32::from(orig_row[c]) - i32::from(rec);
            ssd += (d * d) as u32;
        }
    }
    u64::from(ssd)
}

/// [`reconstruct`] compiled with AVX2 (and so SSE4.1) available:
/// `f64::round` becomes a few vector instructions there, where the
/// baseline build has to call libm for every sample.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn reconstruct_avx2<const N: usize>(
    original: &[u8],
    prediction: &[u8],
    stride: usize,
    residual: &Square<f64, N>,
    recon: &mut [u8],
) -> u64 {
    reconstruct(original, prediction, stride, residual, recon)
}

/// [`reconstruct`] on the calling thread's dispatch tier
/// ([`simd::tier`]); the same bytes on every tier.
fn reconstruct_on_tier<const N: usize>(
    original: &[u8],
    prediction: &[u8],
    stride: usize,
    residual: &Square<f64, N>,
    recon: &mut [u8],
) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if simd::tier() == simd::DispatchTier::Avx2 {
        // SAFETY: `tier()` is `Avx2` only when `is_x86_feature_detected!`
        // found AVX2 on this host (`with_tier` asserts the same before
        // it pins a tier), which is all `reconstruct_avx2` requires.
        return unsafe { reconstruct_avx2(original, prediction, stride, residual, recon) };
    }
    reconstruct(original, prediction, stride, residual, recon)
}

/// The reconstruction stage of the residual coder on one packed
/// `n x n` block: `recon = prediction + residual`, rounded half away
/// from zero and clamped to `0..=255`. Returns the squared error of
/// `recon` against `original`.
///
/// # Panics
///
/// Panics when `n` is not a supported transform size or a buffer does
/// not hold `n * n` values.
pub fn reconstruct_block(
    n: usize,
    original: &[u8],
    prediction: &[u8],
    residual: &[f64],
    recon: &mut [u8],
) -> u64 {
    with_size!(n, N => {
        assert!(
            original.len() == N * N && prediction.len() == N * N && recon.len() == N * N,
            "buffers must be {N}x{N}"
        );
        reconstruct_on_tier(original, prediction, N, as_square::<f64, N>(residual), recon)
    })
}

/// Codes one `N x N` transform block that the elision bound could not
/// decide: forward DCT, quantizer and [`code_block`], then — unless the
/// levels came out all zero anyway — dequantizer, inverse DCT and
/// reconstruction. Every intermediate is a stack array. `original`,
/// `prediction` and `recon` are anchored at the block's top-left
/// sample with rows `stride` apart; `residual_ssd` is the block's
/// `‖x‖₂²`, its error when the reconstruction stays the prediction.
#[allow(clippy::too_many_arguments)]
fn code_surviving_block<const N: usize>(
    residual: &[i32],
    residual_ssd: u32,
    original: &[u8],
    prediction: &[u8],
    recon: &mut [u8],
    stride: usize,
    step: f64,
    writer: &mut BitWriter,
    out: &mut ResidualOutcome,
) {
    let mut coeffs = [[0.0; N]; N];
    transform::forward_block(as_square::<i32, N>(residual), &mut coeffs);
    let mut levels = [[0; N]; N];
    quantize_block(&coeffs, step, &mut levels);
    let block_bits = code_block(levels.as_flattened(), N, writer);
    out.bits += block_bits;
    if block_bits == EMPTY_BLOCK_BITS {
        out.ssd += u64::from(residual_ssd);
        out.zero_level_blocks += 1;
        return;
    }
    // The inverse's input, written over the forward coefficients.
    dequantize_block(&levels, step, &mut coeffs);
    let mut rec_res = [[0.0; N]; N];
    transform::inverse_block(&coeffs, &mut rec_res);
    out.ssd += reconstruct_on_tier(original, prediction, stride, &rec_res, recon);
}

/// Codes the residual `original - prediction` of a `w x h` region using
/// `tx_size` transforms, writing coefficients into `writer`.
///
/// `w` and `h` must be multiples of `tx_size` (the tiling layer aligns
/// tiles to an 8-sample grid to guarantee this).
///
/// # Panics
///
/// Panics when the buffers do not match `w * h` or the dimensions are
/// not multiples of `tx_size`.
pub fn code_residual(
    original: &[u8],
    prediction: &[u8],
    w: usize,
    h: usize,
    tx_size: usize,
    qp: Qp,
    writer: &mut BitWriter,
) -> CodedResidual {
    let mut scratch = ResidualScratch::default();
    let mut recon = Vec::new();
    let out = code_residual_into(
        original,
        prediction,
        w,
        h,
        tx_size,
        qp,
        TxPath::F64,
        writer,
        &mut scratch,
        &mut recon,
    );
    CodedResidual {
        recon,
        bits: out.bits,
        transform_samples: out.transform_samples,
        ssd: out.ssd,
    }
}

/// Allocation-free [`code_residual`]: intermediates live in `scratch`
/// or on the stack and the reconstruction is written into `recon`
/// (cleared first). Emitted bits, reconstruction and counters are
/// bit-exact with [`code_residual`]; blocks proven all-zero from their
/// residual norms skip the transform (see the module docs).
///
/// # Panics
///
/// Panics when the buffers do not match `w * h`, the dimensions are
/// not multiples of `tx_size`, or `tx_size` is not a supported
/// transform size.
// Vestige: `_tx_path` selects nothing; `benchmark/src/replay.rs:209`
// passes it, and the next `[benchmark]` PR drops it with `TxPath`.
#[allow(clippy::too_many_arguments)]
pub fn code_residual_into(
    original: &[u8],
    prediction: &[u8],
    w: usize,
    h: usize,
    tx_size: usize,
    qp: Qp,
    _tx_path: TxPath,
    writer: &mut BitWriter,
    scratch: &mut ResidualScratch,
    recon: &mut Vec<u8>,
) -> ResidualOutcome {
    assert_eq!(original.len(), w * h, "original buffer mismatch");
    assert_eq!(prediction.len(), w * h, "prediction buffer mismatch");
    assert!(
        w.is_multiple_of(tx_size) && h.is_multiple_of(tx_size),
        "{w}x{h} region not divisible into {tx_size}x{tx_size} transforms"
    );
    recon.clear();
    recon.extend_from_slice(prediction);
    let block_samples = tx_size * tx_size;
    scratch.residual.resize(block_samples, 0);
    let step = qp.step_size();
    let zero_bound = ZeroBlockBound::of(qp, tx_size);
    let mut out = ResidualOutcome::default();
    for ty in (0..h).step_by(tx_size) {
        for tx in (0..w).step_by(tx_size) {
            let at = ty * w + tx;
            let (sad, ssd) = gather_residual(
                tx_size,
                &original[at..],
                &prediction[at..],
                w,
                &mut scratch.residual,
            );
            out.transform_samples += block_samples as u64;
            if zero_bound.proves_zero(sad, ssd) {
                // What `code_block` writes for all-zero levels; the
                // reconstruction stays the prediction, so the block's
                // error is its residual.
                writer.write_bit(false);
                out.bits += EMPTY_BLOCK_BITS;
                out.ssd += u64::from(ssd);
                out.zero_level_blocks += 1;
                out.elided_blocks += 1;
                continue;
            }
            with_size!(tx_size, N => code_surviving_block::<N>(
                &scratch.residual,
                ssd,
                &original[at..],
                &prediction[at..],
                &mut recon[at..],
                w,
                step,
                writer,
                &mut out,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::{dequantize, norms_bound_below, quantize, zero_threshold};
    use proptest::prelude::*;

    fn qp(v: u8) -> Qp {
        Qp::new(v).expect("valid QP")
    }

    #[test]
    fn perfect_prediction_costs_one_bit_per_block() {
        let original = vec![100u8; 64];
        let prediction = original.clone();
        let mut w = BitWriter::new();
        let out = code_residual(&original, &prediction, 8, 8, 8, qp(32), &mut w);
        assert_eq!(out.bits, 1); // single empty coded_block_flag
        assert_eq!(out.recon, original);
        assert_eq!(out.ssd, 0);
        assert_eq!(out.transform_samples, 64);
    }

    #[test]
    fn low_qp_reconstructs_nearly_exactly() {
        let original: Vec<u8> = (0..256).map(|i| ((i * 13) % 200 + 20) as u8).collect();
        let prediction = vec![128u8; 256];
        let mut w = BitWriter::new();
        let out = code_residual(&original, &prediction, 16, 16, 8, qp(4), &mut w);
        // QP4 step = 1: error per sample ≤ ~1.
        let max_err = original
            .iter()
            .zip(&out.recon)
            .map(|(&a, &b)| (a as i16 - b as i16).abs())
            .max()
            .unwrap();
        assert!(max_err <= 2, "max_err={max_err}");
        assert!(out.bits > 64, "rich residual must cost real bits");
    }

    #[test]
    fn higher_qp_fewer_bits_more_distortion() {
        let original: Vec<u8> = (0..256)
            .map(|i| (128.0 + 60.0 * ((i as f64) * 0.37).sin()) as u8)
            .collect();
        let prediction = vec![128u8; 256];
        let mut w22 = BitWriter::new();
        let fine = code_residual(&original, &prediction, 16, 16, 8, qp(22), &mut w22);
        let mut w42 = BitWriter::new();
        let coarse = code_residual(&original, &prediction, 16, 16, 8, qp(42), &mut w42);
        assert!(coarse.bits < fine.bits, "rate must fall with QP");
        assert!(coarse.ssd >= fine.ssd, "distortion must rise with QP");
    }

    #[test]
    fn recon_improves_on_prediction() {
        let original: Vec<u8> = (0..64).map(|i| (i * 4) as u8).collect();
        let prediction = vec![0u8; 64];
        let pred_ssd: u64 = original.iter().map(|&o| (o as u64) * (o as u64)).sum();
        let mut w = BitWriter::new();
        let out = code_residual(&original, &prediction, 8, 8, 8, qp(27), &mut w);
        assert!(
            out.ssd < pred_ssd / 4,
            "coding should fix most of the error"
        );
    }

    #[test]
    fn works_with_4x4_transforms() {
        let original = vec![77u8; 64];
        let prediction = vec![80u8; 64];
        let mut w = BitWriter::new();
        let out = code_residual(&original, &prediction, 8, 8, 4, qp(10), &mut w);
        assert_eq!(out.transform_samples, 64);
        assert!(out.ssd <= 64);
    }

    /// `(sad, ssd)` of a residual block, as the gather loop counts them.
    fn norms(x: &[i32]) -> (u32, u32) {
        x.iter().fold((0, 0), |(sad, ssd), &d| {
            (sad + d.unsigned_abs(), ssd + (d * d) as u32)
        })
    }

    /// Adversarial `n x n` residuals of amplitude `a`. `flat` is the DC
    /// basis function itself (its DC coefficient *equals* `‖x‖₂`),
    /// `checker` sits next to the highest-frequency one, a spike makes
    /// the L1 bound the tight one, hot lines and sparse fields fall in
    /// between. `rng` places the spike, the line and the sparse samples.
    fn families(n: usize, a: i32, rng: &mut proptest::Rng) -> Vec<(&'static str, Vec<i32>)> {
        let mut pick = |m: usize| (rng.next_u64() % m as u64) as usize;
        let at = |f: &dyn Fn(usize, usize) -> i32| -> Vec<i32> {
            (0..n * n).map(|i| f(i / n, i % n)).collect()
        };
        let (sr, sc, line) = (pick(n), pick(n), pick(n));
        let mut sparse = vec![0; n * n];
        for _ in 0..n {
            sparse[pick(n * n)] = if pick(2) == 0 { a } else { -a };
        }
        vec![
            ("spike", at(&|r, c| if (r, c) == (sr, sc) { a } else { 0 })),
            (
                "corner-spike",
                at(&|r, c| if (r, c) == (0, 0) { a } else { 0 }),
            ),
            ("flat", at(&|_, _| a)),
            ("checker", at(&|r, c| if (r + c) % 2 == 0 { a } else { -a })),
            ("hot-row", at(&|r, _| if r == line { a } else { 0 })),
            ("hot-column", at(&|_, c| if c == line { a } else { 0 })),
            ("sparse", sparse),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// Soundness of the elision bound: whenever the predicate
        /// fires, transform + quantizer really produce no level. Every
        /// QP and transform size, each family at the amplitudes either
        /// side of where its bound crosses the threshold (the bound is
        /// linear in the amplitude) and at both extremes, both signs.
        #[test]
        fn prop_predicate_fires_only_on_all_zero_blocks(seed in 0u64..u64::MAX) {
            let mut rng = proptest::Rng::new(seed);
            let (mut fired, mut held) = (0u32, 0u32);
            for qp_val in 0..=51 {
                let q = qp(qp_val);
                let zero_below = zero_threshold(q.step_size());
                for n in transform::TRANSFORM_SIZES {
                    for (family, unit) in families(n, 1, &mut rng) {
                        let (sad, ssd) = norms(&unit);
                        let unit_bound =
                            f64::from(ssd).sqrt().min(f64::from(sad) * 2.0 / n as f64);
                        let crossing = (zero_below / unit_bound) as i32;
                        for a in [1, crossing - 1, crossing, crossing + 1, crossing + 2, 255] {
                            let a = a.clamp(1, 255);
                            for x in [
                                unit.iter().map(|&u| u * a).collect::<Vec<_>>(),
                                unit.iter().map(|&u| -u * a).collect(),
                            ] {
                                let (sad, ssd) = norms(&x);
                                if !norms_bound_below(sad, ssd, n, zero_below) {
                                    held += 1;
                                    continue;
                                }
                                fired += 1;
                                let levels = quantize(&transform::forward(n, &x), q);
                                prop_assert!(
                                    levels.iter().all(|&l| l == 0),
                                    "seed {seed}: {family} a={a} n={n} qp={qp_val} \
                                     elided a block that carries levels"
                                );
                            }
                        }
                    }
                }
            }
            prop_assert!(
                fired > 1000 && held > 1000,
                "seed {seed}: amplitudes must straddle the threshold \
                 (fired {fired}, held {held})"
            );
        }
    }

    #[test]
    fn zero_levels_reconstruct_the_prediction_exactly() {
        // What lets a zero-level block skip dequantize + inverse DCT:
        // they would add exactly +0.0 to every prediction sample.
        for n in transform::TRANSFORM_SIZES {
            for qp_val in 0..=51 {
                let rec = transform::inverse(n, &dequantize(&vec![0; n * n], qp(qp_val)));
                for v in rec {
                    assert!(v == 0.0, "n={n} qp={qp_val}: residual {v}");
                    for pred in [0u8, 1, 127, 254, 255] {
                        assert_eq!((pred as f64 + v).round().clamp(0.0, 255.0) as u8, pred);
                    }
                }
            }
        }
    }

    /// Codes one `n x n` block whose residual is `sad` unit samples.
    fn code_unit_samples(n: usize, sad: usize, q: Qp) -> ResidualOutcome {
        let prediction = vec![100u8; n * n];
        let mut original = prediction.clone();
        for sample in original.iter_mut().step_by(n + 2).take(sad) {
            *sample += 1;
        }
        code_residual_into(
            &original,
            &prediction,
            n,
            n,
            n,
            q,
            TxPath::F64,
            &mut BitWriter::new(),
            &mut ResidualScratch::default(),
            &mut Vec::new(),
        )
    }

    #[test]
    fn fine_qp_elides_only_near_empty_residuals() {
        // QP 4 has step 1, so a block elides only when no coefficient
        // can reach 2/3: (2/n)·SAD < 2/3, i.e. at most n/3 unit samples
        // (the L2 bound √SAD is the looser one here).
        for (n, limit) in [(4usize, 1usize), (8, 2)] {
            for sad in 0..=limit + 2 {
                let out = code_unit_samples(n, sad, qp(4));
                assert_eq!(
                    out.elided_blocks,
                    u32::from(sad <= limit),
                    "n={n} sad={sad}"
                );
                if sad <= limit {
                    assert_eq!((out.zero_level_blocks, out.bits), (1, 1));
                    assert_eq!(out.ssd, sad as u64, "recon must stay the prediction");
                }
            }
        }
    }

    #[test]
    fn coarse_qp_elides_most_of_a_motion_compensated_pan() {
        use medvt_frame::synth::{BodyPart, MotionPattern, PhantomVideo};
        use medvt_frame::Resolution;
        let (w, h) = (128, 96);
        let video = PhantomVideo::builder(BodyPart::Cardiac)
            .resolution(Resolution::new(w, h))
            .motion(MotionPattern::Pan { dx: 2.0, dy: 1.0 })
            .seed(77)
            .build();
        // Content moves by (+2, +1) a frame: predict frame 1 from
        // frame 0 displaced by the pan, as motion search would.
        let mut prediction = Vec::new();
        video
            .render(0)
            .y()
            .copy_block_clamped_into(-2, -1, w, h, &mut prediction);
        let original = video.render(1);
        let (mut bits_by_qp, mut elided_by_qp) = (Vec::new(), Vec::new());
        for qp_val in [4, 42] {
            let mut writer = BitWriter::new();
            let out = code_residual_into(
                original.y().samples(),
                &prediction,
                w,
                h,
                8,
                qp(qp_val),
                TxPath::F64,
                &mut writer,
                &mut ResidualScratch::default(),
                &mut Vec::new(),
            );
            assert_eq!(out.transform_samples, (w * h) as u64, "elided blocks count");
            assert!(out.elided_blocks <= out.zero_level_blocks);
            bits_by_qp.push(out.bits);
            elided_by_qp.push(out.elided_blocks);
        }
        let blocks = (w / 8 * h / 8) as u32;
        assert!(
            elided_by_qp[1] * 10 > blocks * 9,
            "QP 42 elided {} of {blocks} blocks",
            elided_by_qp[1]
        );
        assert!(elided_by_qp[0] < elided_by_qp[1]);
        assert!(bits_by_qp[0] > bits_by_qp[1]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_unaligned_regions() {
        let buf = vec![0u8; 12 * 8];
        let mut w = BitWriter::new();
        code_residual(&buf, &buf, 12, 8, 8, qp(32), &mut w);
    }
}
