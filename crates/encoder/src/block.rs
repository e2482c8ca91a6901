//! Residual coding of one prediction block: transform, quantization,
//! entropy coding and reconstruction.
//!
//! One core, `code_residual_strided`, codes a region whose original,
//! prediction and reconstruction are each `(samples, stride)` views —
//! the tile encoder passes its frame and reconstruction planes in
//! place, and chroma DC as one row at stride 0. [`code_residual_into`]
//! is that core on packed buffers. Each stage costs in proportion to
//! what the block codes.
//!
//! # Zero-block elision
//!
//! Bio-medical frames are mostly low-texture, low-motion background,
//! so at serving QPs almost every transform block quantizes to
//! all-zero levels: its whole contribution is one `coded_block_flag =
//! 0` bit and a reconstruction equal to the prediction. The coder
//! proves that outcome from two integer norms of the residual `x` and
//! then skips forward DCT, quantizer, dequantizer, inverse DCT and the
//! reconstruction loop — with the same bytes, reconstruction and
//! counters as running them.
//!
//! The norms of every transform block of the region come first, read
//! straight from the `u8` rows by one SIMD pass (`psadbw` for `‖x‖₁`;
//! widen, subtract, `pmaddwd` for `‖x‖₂²`; two 4- or 8-wide blocks per
//! pass), before any residual is gathered. They are integer sums, so
//! every tier, the scalar loop included, gets the same pair. When the
//! bound elides every block, the region's flags go out in one
//! `write_bits` per 32 blocks and its prediction rows are copied into
//! the reconstruction; only a surviving block gathers its `i32`
//! residual.
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
//! # Surviving blocks
//!
//! A block that fails the bound runs `code_surviving_block`: fixed-size
//! kernels on stack arrays, each stage touching only the rows and
//! columns that hold a level. Why each one is exact:
//!
//! * *Forward DCT*: unchanged, under [`transform`]'s evaluation-order
//!   contract.
//! * *Quantizer*: `|c|` below [`crate::quant::zero_threshold`] is level
//!   0 without the divide, since `|c|/step < 2/3 − 2⁻²¹` leaves
//!   `|c|/step + 1/3` below 1; it returns the row and column masks of
//!   the levels.
//! * *Entropy coder*: the significance mask in scan order names the same
//!   positions, `last` and zero runs as the per-position scan, and the
//!   runs, flags and codes are the same bits in the same order.
//! * *Dequantizer and inverse DCT*: a row without levels dequantizes to
//!   `+0.0`, and a skipped term `a·(±0)` never changes an accumulator
//!   that starts at `+0.0` ([`transform`], "Skipped terms").
//! * *Reconstruction*: with `t = trunc(v)`, `v − t` is exact, so
//!   adding `±1` when `|v − t| ≥ 0.5` is `f64::round`; the AVX2 kernel
//!   and the portable loop store the same bytes.
//! * *All levels zero*: the block writes the one flag bit and keeps the
//!   prediction, as an elided block does — exactly what the remaining
//!   stages would produce (`0·step = +0.0`, `pred + 0.0` rounds to
//!   `pred`).
//!
//! Measured on the `benchmark/` workloads (seed 2018): the bound
//! elides 97.7 % of transform blocks on `live_inter` and 92.2 % on
//! `live_intra` — 99 % of the blocks whose levels are in fact all
//! zero.

use crate::bits::{code_levels, BitWriter};
use crate::config::Qp;
use crate::quant::{dequantize_rows, quantize_block, ZeroBlockBound};
use crate::transform::{self, as_square, with_size, Square, TxPath};
use medvt_motion::cost::simd::{self, DispatchTier};

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

/// The reusable buffer of [`code_residual_into`]: the residual norms of
/// every transform block of one region (the transform stages work on
/// stack arrays). One instance per encoding thread makes residual
/// coding zero-allocation in steady state.
#[derive(Debug, Clone, Default)]
pub struct ResidualScratch {
    norms: Vec<(u32, u32)>,
}

/// Bits [`crate::bits::code_block`] spends on a block without levels:
/// the lone `coded_block_flag = 0`. Any block with a level costs more.
const EMPTY_BLOCK_BITS: u64 = 1;

/// A read-only operand of the residual coder: samples and the distance
/// between its rows. Stride 0 repeats one row (a DC prediction).
type Rows<'a> = (&'a [u8], usize);

/// The `i`-th `N`-sample row of a block anchored at the start of
/// `samples`.
#[inline(always)]
fn row<const N: usize>((samples, stride): Rows<'_>, i: usize) -> &[u8; N] {
    samples[i * stride..][..N].try_into().expect("N samples")
}

/// `(‖x‖₁, ‖x‖₂²)` of the `N x N` residual `original − prediction`,
/// read straight from the two operands' rows — at most `32² · 255² <
/// 2³²`, so `u32` holds both. Integer sums have one value, so every
/// tier returns the same pair.
#[inline(always)]
fn block_norms<const N: usize>(tier: DispatchTier, original: Rows, prediction: Rows) -> (u32, u32) {
    match tier {
        // SAFETY: SSE2 is part of the x86_64 baseline, the one
        // requirement of the body; it reads through bounds-checked row
        // slices.
        #[cfg(target_arch = "x86_64")]
        DispatchTier::Avx2 | DispatchTier::Sse2 => unsafe {
            x86::norms_sse2::<N>(original, prediction)
        },
        _ => {
            let (mut sad, mut ssd) = (0u32, 0u32);
            for r in 0..N {
                for (&o, &p) in row::<N>(original, r).iter().zip(row::<N>(prediction, r)) {
                    let d = i32::from(o) - i32::from(p);
                    sad += d.unsigned_abs();
                    ssd += (d * d) as u32;
                }
            }
            (sad, ssd)
        }
    }
}

/// [`block_norms`] of the `norms.len()` horizontally adjacent blocks
/// of one block row. On the x86 tiers, sizes 4 and 8 take two blocks
/// per pass: one 16-byte operand holds a row of both 8-wide blocks, or
/// two rows of both 4-wide ones, and `psadbw` sums each 8-byte half
/// on its own.
#[inline(always)]
fn block_row_norms<const N: usize>(
    tier: DispatchTier,
    (orig, os): Rows,
    (pred, ps): Rows,
    norms: &mut [(u32, u32)],
) {
    let len = norms.len();
    let mut pairs = norms.chunks_exact_mut(2);
    for (k, pair) in (&mut pairs).enumerate() {
        let (original, prediction) = ((&orig[2 * k * N..], os), (&pred[2 * k * N..], ps));
        match tier {
            // SAFETY: SSE2 is part of the x86_64 baseline, the one
            // requirement of the body; it reads through bounds-checked
            // row slices.
            #[cfg(target_arch = "x86_64")]
            DispatchTier::Avx2 | DispatchTier::Sse2 if N == 4 || N == 8 => {
                pair.copy_from_slice(&unsafe { x86::norms_pair_sse2::<N>(original, prediction) });
            }
            _ => {
                pair[0] = block_norms::<N>(tier, original, prediction);
                pair[1] = block_norms::<N>(
                    tier,
                    (&orig[(2 * k + 1) * N..], os),
                    (&pred[(2 * k + 1) * N..], ps),
                );
            }
        }
    }
    if let [last] = pairs.into_remainder() {
        let at = (len - 1) * N;
        *last = block_norms::<N>(tier, (&orig[at..], os), (&pred[at..], ps));
    }
}

/// The `N x N` residual `original − prediction` of a surviving block.
#[inline(always)]
fn gather<const N: usize>(original: Rows, prediction: Rows) -> Square<i32, N> {
    let mut residual = [[0; N]; N];
    for (r, out) in residual.iter_mut().enumerate() {
        for ((d, &o), &p) in out
            .iter_mut()
            .zip(row::<N>(original, r))
            .zip(row::<N>(prediction, r))
        {
            *d = i32::from(o) - i32::from(p);
        }
    }
    residual
}

/// Copies `h` rows of `w` prediction samples into the reconstruction.
/// The widths of the encoder's blocks copy a fixed-size row a move;
/// a loop over a run-time width would pay for a `memcpy` call, or for
/// vector-loop set-up, on every short row.
#[inline(always)]
fn copy_rows(prediction: Rows, recon: (&mut [u8], usize), w: usize, h: usize) {
    #[inline(always)]
    fn fixed<const W: usize>(prediction: Rows, (recon, rs): (&mut [u8], usize), h: usize) {
        for r in 0..h {
            recon[r * rs..][..W].copy_from_slice(row::<W>(prediction, r));
        }
    }
    match w {
        4 => fixed::<4>(prediction, recon, h),
        8 => fixed::<8>(prediction, recon, h),
        16 => fixed::<16>(prediction, recon, h),
        32 => fixed::<32>(prediction, recon, h),
        _ => {
            let ((pred, ps), (recon, rs)) = (prediction, recon);
            for r in 0..h {
                recon[r * rs..][..w].copy_from_slice(&pred[r * ps..][..w]);
            }
        }
    }
}

/// Reconstructs one `N x N` block: `recon = prediction + residual`,
/// rounded half away from zero and clamped to `0..=255`. Returns the
/// block's squared error against `original` (at most `32² · 255²`, so
/// the `u32` accumulator cannot overflow).
#[inline(always)]
fn reconstruct<const N: usize>(
    original: Rows,
    prediction: Rows,
    residual: &Square<f64, N>,
    (recon, rs): (&mut [u8], usize),
) -> u64 {
    let mut ssd = 0u32;
    for (r, res_row) in residual.iter().enumerate() {
        let (orig_row, pred_row) = (row::<N>(original, r), row::<N>(prediction, r));
        let rec_row = &mut recon[r * rs..][..N];
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

/// [`reconstruct`] on `tier`: the explicit AVX2 kernel where that is
/// the tier, the portable loop otherwise. The same bytes and SSD on
/// every tier.
#[inline(always)]
fn reconstruct_on_tier<const N: usize>(
    tier: DispatchTier,
    original: Rows,
    prediction: Rows,
    residual: &Square<f64, N>,
    recon: (&mut [u8], usize),
) -> u64 {
    match tier {
        // SAFETY: `tier` is `Avx2` only when `is_x86_feature_detected!`
        // found AVX2 on this host (`with_tier` asserts the same before
        // it pins a tier), which is all the kernel requires; it reads
        // and writes through bounds-checked row slices.
        #[cfg(target_arch = "x86_64")]
        DispatchTier::Avx2 => unsafe {
            x86::reconstruct_avx2(original, prediction, residual, recon)
        },
        _ => reconstruct(original, prediction, residual, recon),
    }
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
        reconstruct_on_tier(
            simd::tier(),
            (original, N),
            (prediction, N),
            as_square::<f64, N>(residual),
            (recon, N),
        )
    })
}

/// Codes one `N x N` transform block that the elision bound could not
/// decide: forward DCT, quantizer and entropy coder, then — unless the
/// levels came out all zero anyway — dequantizer, inverse DCT and
/// reconstruction, each on only the rows and columns that hold a level.
/// Every intermediate is a stack array. `residual_ssd` is the block's
/// `‖x‖₂²`, its error when the reconstruction stays the prediction.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn code_surviving_block<const N: usize>(
    tier: DispatchTier,
    original: Rows,
    prediction: Rows,
    recon: (&mut [u8], usize),
    residual_ssd: u32,
    step: f64,
    writer: &mut BitWriter,
    out: &mut ResidualOutcome,
) {
    let mut coeffs = [[0.0; N]; N];
    transform::forward_block(&gather::<N>(original, prediction), &mut coeffs);
    let mut levels = [[0; N]; N];
    let (rows, cols) = quantize_block(&coeffs, step, &mut levels);
    out.bits += code_levels(&levels, rows, writer);
    if rows == 0 {
        out.ssd += u64::from(residual_ssd);
        out.zero_level_blocks += 1;
        copy_rows(prediction, recon, N, N);
        return;
    }
    // The inverse's input, written over the forward coefficients in the
    // rows it reads.
    dequantize_rows(&levels, rows, step, &mut coeffs);
    let mut rec_res = [[0.0; N]; N];
    transform::inverse_block(&coeffs, rows, cols, &mut rec_res);
    out.ssd += reconstruct_on_tier(tier, original, prediction, &rec_res, recon);
}

/// Panics unless an operand of `len` samples holds `h` rows of `w`
/// samples `stride` apart (stride 0, one row read `h` times, only when
/// `repeat` allows it).
fn assert_operand(name: &str, len: usize, stride: usize, w: usize, h: usize, repeat: bool) {
    assert!(
        stride >= w || (repeat && stride == 0),
        "{name} stride {stride} below the region width {w}"
    );
    assert!(
        h == 0 || (h - 1) * stride + w <= len,
        "{name} shorter than {h} rows of {w} at stride {stride}"
    );
}

/// The residual coder on strided operands: codes `original −
/// prediction` over a `w x h` region in `tx_size` transforms into
/// `writer` and writes the reconstruction into `recon`, every sample of
/// the region. Each operand is `(samples, stride)` anchored at the
/// region's top-left sample; the prediction's stride may be 0 (one
/// row repeated).
///
/// # Panics
///
/// Panics when the dimensions are not multiples of `tx_size`,
/// `tx_size` is not a supported transform size, or an operand does not
/// hold the region.
#[allow(clippy::too_many_arguments)]
pub(crate) fn code_residual_strided(
    original: Rows,
    prediction: Rows,
    recon: (&mut [u8], usize),
    w: usize,
    h: usize,
    tx_size: usize,
    qp: Qp,
    writer: &mut BitWriter,
    scratch: &mut ResidualScratch,
) -> ResidualOutcome {
    assert_operand("original", original.0.len(), original.1, w, h, false);
    assert_operand("prediction", prediction.0.len(), prediction.1, w, h, true);
    assert_operand("reconstruction", recon.0.len(), recon.1, w, h, false);
    with_size!(tx_size, N => code_region::<N>(
        original, prediction, recon, w, h, qp, writer, scratch,
    ))
}

/// [`code_residual_strided`] at a literal transform size: every
/// block's norms first, then one write of all the flags when the bound
/// elides them all, else block by block. Never inlined, so each size
/// keeps a stack frame of its own arrays only.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn code_region<const N: usize>(
    original: Rows,
    prediction: Rows,
    (recon, rs): (&mut [u8], usize),
    w: usize,
    h: usize,
    qp: Qp,
    writer: &mut BitWriter,
    scratch: &mut ResidualScratch,
) -> ResidualOutcome {
    assert!(
        w.is_multiple_of(N) && h.is_multiple_of(N),
        "{w}x{h} region not divisible into {N}x{N} transforms"
    );
    let (cols, rows) = (w / N, h / N);
    let tier = simd::tier();
    let ((orig, os), (pred, ps)) = (original, prediction);
    let at = |stride: usize, by: usize, bx: usize| N * (by * stride + bx);
    let blocks = cols * rows;
    let mut out = ResidualOutcome {
        transform_samples: (blocks * N * N) as u64,
        ..ResidualOutcome::default()
    };
    // Sized before any early return, so a scratch that has only seen
    // elided blocks is as warm as one that has seen survivors. Every
    // entry is overwritten below, so a scratch already at `blocks`
    // entries is not written twice.
    scratch.norms.resize(blocks, (0, 0));
    let zero_bound = ZeroBlockBound::of(qp, N);
    let (mut survivors, mut residual_ssd) = (0, 0);
    // Rows by index: `chunks_exact(cols)` would divide by `cols`.
    for by in 0..rows {
        let norms_row = &mut scratch.norms[by * cols..][..cols];
        block_row_norms::<N>(
            tier,
            (&orig[at(os, by, 0)..], os),
            (&pred[at(ps, by, 0)..], ps),
            norms_row,
        );
        for &(sad, ssd) in &*norms_row {
            survivors += usize::from(!zero_bound.proves_zero(sad, ssd));
            residual_ssd += u64::from(ssd);
        }
    }
    if survivors == 0 {
        // What the entropy coder writes for `blocks` all-zero blocks;
        // the reconstruction is the prediction, so the error is the
        // residual.
        for flags in (0..blocks).step_by(32) {
            writer.write_bits(0, (blocks - flags).min(32) as u8);
        }
        out.bits = blocks as u64 * EMPTY_BLOCK_BITS;
        out.ssd = residual_ssd;
        out.zero_level_blocks = blocks as u32;
        out.elided_blocks = blocks as u32;
        copy_rows(prediction, (recon, rs), w, h);
        return out;
    }
    let step = qp.step_size();
    for by in 0..rows {
        for (bx, &(sad, ssd)) in scratch.norms[by * cols..][..cols].iter().enumerate() {
            let original = (&orig[at(os, by, bx)..], os);
            let prediction = (&pred[at(ps, by, bx)..], ps);
            let recon = (&mut recon[at(rs, by, bx)..], rs);
            if zero_bound.proves_zero(sad, ssd) {
                writer.write_bit(false);
                out.bits += EMPTY_BLOCK_BITS;
                out.ssd += u64::from(ssd);
                out.zero_level_blocks += 1;
                out.elided_blocks += 1;
                copy_rows(prediction, recon, N, N);
            } else {
                code_surviving_block::<N>(
                    tier, original, prediction, recon, ssd, step, writer, &mut out,
                );
            }
        }
    }
    out
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

/// Allocation-free [`code_residual`] on packed `w x h` operands: the
/// reconstruction replaces the contents of `recon`. Emitted bits,
/// reconstruction and counters are bit-exact with running every stage
/// on every block; blocks proven all-zero from their residual norms
/// skip the transform (see the module docs).
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
    // Every sample is overwritten; a buffer already at `w * h` (the
    // steady state) is not touched twice.
    recon.resize(w * h, 0);
    code_residual_strided(
        (original, w),
        (prediction, w),
        (recon, w),
        w,
        h,
        tx_size,
        qp,
        writer,
        scratch,
    )
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{row, Rows, Square};
    use std::arch::x86_64::*;

    /// [`super::block_norms`] in SSE2: `psadbw` sums `‖x‖₁`, and the
    /// rows widened to 16 bits, subtracted and `pmaddwd`-squared sum
    /// `‖x‖₂²` (a difference is at most 255 in magnitude, so every
    /// 32-bit lane holds its partial sum exactly). Eight samples a
    /// step: two rows of a 4-wide block, or one 8-sample span of a
    /// wider one. Every load goes through a bounds-checked row slice.
    ///
    /// # Safety
    ///
    /// The host must support SSE2 (every x86_64 host does).
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn norms_sse2<const N: usize>(
        original: Rows,
        prediction: Rows,
    ) -> (u32, u32) {
        let zero = _mm_setzero_si128();
        let (mut sad, mut ssd) = (zero, zero);
        let mut add = |o: __m128i, p: __m128i| {
            sad = _mm_add_epi64(sad, _mm_sad_epu8(o, p));
            let d = _mm_sub_epi16(_mm_unpacklo_epi8(o, zero), _mm_unpacklo_epi8(p, zero));
            ssd = _mm_add_epi32(ssd, _mm_madd_epi16(d, d));
        };
        if N == 4 {
            let pair = |operand: Rows, r: usize| {
                let word = |i| _mm_cvtsi32_si128(i32::from_le_bytes(*row::<4>(operand, i)));
                _mm_unpacklo_epi32(word(r), word(r + 1))
            };
            for r in [0, 2] {
                add(pair(original, r), pair(prediction, r));
            }
        } else {
            for r in 0..N {
                let (o, p) = (row::<N>(original, r), row::<N>(prediction, r));
                for c in (0..N).step_by(8) {
                    add(
                        _mm_loadl_epi64(o[c..c + 8].as_ptr().cast()),
                        _mm_loadl_epi64(p[c..c + 8].as_ptr().cast()),
                    );
                }
            }
        }
        let sad = _mm_add_epi64(sad, _mm_unpackhi_epi64(sad, sad));
        (_mm_cvtsi128_si32(sad) as u32, hsum_epi32(ssd))
    }

    /// [`norms_sse2`] of two horizontally adjacent `N x N` blocks (`N`
    /// of 4 or 8) in one pass: each 16-byte operand holds one row of
    /// both 8-wide blocks, or two rows of both 4-wide ones, so the two
    /// 64-bit lanes of `psadbw` and the low and high unpacked halves
    /// are the two blocks.
    ///
    /// # Safety
    ///
    /// The host must support SSE2 (every x86_64 host does).
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn norms_pair_sse2<const N: usize>(
        original: Rows,
        prediction: Rows,
    ) -> [(u32, u32); 2] {
        assert!(N == 4 || N == 8, "pairs of 4- or 8-wide blocks only");
        let zero = _mm_setzero_si128();
        let (mut sad, mut ssd) = (zero, [zero; 2]);
        let mut add = |o: __m128i, p: __m128i| {
            sad = _mm_add_epi64(sad, _mm_sad_epu8(o, p));
            let lo = _mm_sub_epi16(_mm_unpacklo_epi8(o, zero), _mm_unpacklo_epi8(p, zero));
            let hi = _mm_sub_epi16(_mm_unpackhi_epi8(o, zero), _mm_unpackhi_epi8(p, zero));
            ssd[0] = _mm_add_epi32(ssd[0], _mm_madd_epi16(lo, lo));
            ssd[1] = _mm_add_epi32(ssd[1], _mm_madd_epi16(hi, hi));
        };
        if N == 4 {
            // Rows `r` and `r + 1` of both blocks, interleaved per block.
            let rows = |operand: Rows, r: usize| {
                let both = |i| _mm_loadl_epi64(row::<8>(operand, i).as_ptr().cast());
                _mm_unpacklo_epi32(both(r), both(r + 1))
            };
            for r in [0, 2] {
                add(rows(original, r), rows(prediction, r));
            }
        } else {
            for r in 0..8 {
                let both = |operand| _mm_loadu_si128(row::<16>(operand, r).as_ptr().cast());
                add(both(original), both(prediction));
            }
        }
        let sads = [sad, _mm_unpackhi_epi64(sad, sad)];
        [0, 1].map(|b| (_mm_cvtsi128_si32(sads[b]) as u32, hsum_epi32(ssd[b])))
    }

    /// The sum of the four 32-bit lanes of `v`.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn hsum_epi32(v: __m128i) -> u32 {
        let v = _mm_add_epi32(v, _mm_shuffle_epi32::<0b01_00_11_10>(v));
        let v = _mm_add_epi32(v, _mm_shuffle_epi32::<0b10_11_00_01>(v));
        _mm_cvtsi128_si32(v) as u32
    }

    /// [`super::reconstruct`] in AVX2, four samples a step. With `v =
    /// pred + res` (the same `f64` add) and `t = trunc(v)`, `v − t` is
    /// exact for `|v| < 2⁵²`, so adding `1` when `v − t ≥ 0.5` and
    /// subtracting it when `v − t ≤ −0.5` is `f64::round` (half away
    /// from zero) exactly; then clamp to `0..=255`, `cvttpd` (exact on
    /// integers), pack, and sum the squared error with `pmaddwd`. Every
    /// load and store goes through a bounds-checked row slice.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn reconstruct_avx2<const N: usize>(
        original: Rows,
        prediction: Rows,
        residual: &Square<f64, N>,
        (recon, rs): (&mut [u8], usize),
    ) -> u64 {
        let zero = _mm_setzero_si128();
        let (half, minus_half, one) = (
            _mm256_set1_pd(0.5),
            _mm256_set1_pd(-0.5),
            _mm256_set1_pd(1.0),
        );
        let (lo, hi) = (_mm256_setzero_pd(), _mm256_set1_pd(255.0));
        // Four reconstructed samples as `i32`.
        let four = |pred: &[u8], res: &[f64]| {
            let p = _mm_cvtsi32_si128(i32::from_le_bytes(pred[..4].try_into().expect("4 samples")));
            let v = _mm256_add_pd(
                _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(p)),
                _mm256_loadu_pd(res[..4].as_ptr()),
            );
            let t = _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(v);
            let frac = _mm256_sub_pd(v, t);
            let up = _mm256_and_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(frac, half), one);
            let down = _mm256_and_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(frac, minus_half), one);
            let rounded = _mm256_sub_pd(_mm256_add_pd(t, up), down);
            _mm256_cvttpd_epi32(_mm256_min_pd(_mm256_max_pd(rounded, lo), hi))
        };
        let mut ssd = zero;
        for (r, res) in residual.iter().enumerate() {
            let (orig, pred) = (row::<N>(original, r), row::<N>(prediction, r));
            let rec = &mut recon[r * rs..][..N];
            if N == 4 {
                let rec16 = _mm_packs_epi32(four(pred, res), zero);
                let orig16 = _mm_cvtepu8_epi16(_mm_cvtsi32_si128(i32::from_le_bytes(
                    orig[..4].try_into().expect("4 samples"),
                )));
                let d = _mm_sub_epi16(orig16, rec16);
                ssd = _mm_add_epi32(ssd, _mm_madd_epi16(d, d));
                rec.copy_from_slice(
                    &_mm_cvtsi128_si32(_mm_packus_epi16(rec16, zero)).to_le_bytes()[..N],
                );
            } else {
                for c in (0..N).step_by(8) {
                    let rec16 = _mm_packs_epi32(
                        four(&pred[c..], &res[c..]),
                        four(&pred[c + 4..], &res[c + 4..]),
                    );
                    let orig16 = _mm_cvtepu8_epi16(_mm_loadl_epi64(orig[c..c + 8].as_ptr().cast()));
                    let d = _mm_sub_epi16(orig16, rec16);
                    ssd = _mm_add_epi32(ssd, _mm_madd_epi16(d, d));
                    _mm_storel_epi64(
                        rec[c..c + 8].as_mut_ptr().cast(),
                        _mm_packus_epi16(rec16, zero),
                    );
                }
            }
        }
        u64::from(hsum_epi32(ssd))
    }
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

    /// The strided core against [`code_residual_into`] on packed copies
    /// of the same samples, on every tier: the original inside a wider
    /// plane, the prediction either strided or one row repeated (stride
    /// 0), and the reconstruction written into a wider buffer whose
    /// other samples must stay as they were.
    #[test]
    fn strided_core_equals_the_packed_wrapper_on_every_tier() {
        let mut rng = proptest::Rng::new(34);
        let mut byte = |around: u8, spread: u64| {
            (i64::from(around) + (rng.next_u64() % (2 * spread + 1)) as i64 - spread as i64)
                .clamp(0, 255) as u8
        };
        let (mut elided, mut coded) = (0, 0);
        for n in transform::TRANSFORM_SIZES {
            let (w, h, stride) = (2 * n, 2 * n, 2 * n + 8);
            let at = stride + 3;
            for (qp_val, spread) in [(4, 3), (22, 40), (32, 2), (32, 60), (42, 90)] {
                let plane: Vec<u8> = (0..stride * (h + 2)).map(|_| byte(120, spread)).collect();
                let other: Vec<u8> = (0..stride * (h + 2)).map(|_| byte(120, spread)).collect();
                let dc_row = vec![byte(120, spread); w];
                for (prediction, pred_stride) in [(&other[at..], stride), (&dc_row[..], 0)] {
                    let packed = |samples: &[u8], s: usize| -> Vec<u8> {
                        (0..h)
                            .flat_map(|r| samples[r * s..][..w].to_vec())
                            .collect()
                    };
                    let (orig_packed, pred_packed) = (
                        packed(&plane[at..], stride),
                        packed(prediction, pred_stride),
                    );
                    for t in simd::DispatchTier::ALL
                        .into_iter()
                        .filter(|t| t.available())
                    {
                        let case =
                            format!("n {n} qp {qp_val} stride {pred_stride} tier {}", t.name());
                        let (mut want_writer, mut want_recon) = (BitWriter::new(), Vec::new());
                        let want = simd::with_tier(t, || {
                            code_residual_into(
                                &orig_packed,
                                &pred_packed,
                                w,
                                h,
                                n,
                                qp(qp_val),
                                TxPath::F64,
                                &mut want_writer,
                                &mut ResidualScratch::default(),
                                &mut want_recon,
                            )
                        });
                        let (mut writer, mut recon) =
                            (BitWriter::new(), vec![0xA5u8; stride * (h + 2)]);
                        let got = simd::with_tier(t, || {
                            code_residual_strided(
                                (&plane[at..], stride),
                                (prediction, pred_stride),
                                (&mut recon[at..], stride),
                                w,
                                h,
                                n,
                                qp(qp_val),
                                &mut writer,
                                &mut ResidualScratch::default(),
                            )
                        });
                        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{case}");
                        elided += got.elided_blocks;
                        coded += 4 - got.zero_level_blocks;
                        assert_eq!(writer.into_bytes(), want_writer.into_bytes(), "{case}");
                        assert_eq!(packed(&recon[at..], stride), want_recon, "{case}");
                        for (i, &sample) in recon.iter().enumerate() {
                            let (r, c) = (
                                (i as isize - at as isize).div_euclid(stride as isize),
                                (i + stride - at % stride) % stride,
                            );
                            let inside = (0..h as isize).contains(&r) && c < w;
                            assert!(
                                inside || sample == 0xA5,
                                "{case}: sample {i} outside the region written"
                            );
                        }
                    }
                }
            }
        }
        assert!(elided > 20 && coded > 20, "elided {elided}, coded {coded}");
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_unaligned_regions() {
        let buf = vec![0u8; 12 * 8];
        let mut w = BitWriter::new();
        code_residual(&buf, &buf, 12, 8, 8, qp(32), &mut w);
    }
}
