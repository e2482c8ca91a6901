//! Separable 2-D DCT-II used as the coding transform.
//!
//! HEVC's core transform is an integer approximation of the DCT-II at
//! sizes 4–32. This substrate uses the exact orthonormal DCT-II in
//! `f64` (bit-deterministic under IEEE-754), which keeps the forward /
//! inverse pair perfectly invertible so the only reconstruction error
//! is quantization — exactly the property the rate/distortion
//! behaviour of the experiments depends on.
//!
//! # The evaluation-order contract
//!
//! Both directions are one product `A · X · B` of `n x n` matrices
//! (`C · X · C^T` forward, `C^T · Y · C` inverse), and the value of
//! every output element is normative, to the bit:
//!
//! * `T = A · X` first, then `out = T · B`;
//! * every element of `T` and of `out` starts at `+0.0` and adds its
//!   `n` products in ascending inner index (`i` for `T[k][j] = Σᵢ
//!   A[k][i]·X[i][j]`, `j` for `out[k][l] = Σⱼ T[k][j]·B[j][l]`);
//! * each product is rounded before it is added: no `mul_add`, and the
//!   `fma` target feature is never enabled on this code.
//!
//! The kernel runs its loops `ikj` (the accumulation index outside the
//! output column), so a compiler may vectorise *across output columns*
//! — independent elements — and never across the terms of one sum.
//! That is why its baseline build, its AVX2 build (picked by
//! `medvt_motion::cost::simd::tier`) and a `-C target-cpu=x86-64-v3`
//! build of the whole crate all produce the same coefficients;
//! `tests/kernel_differential.rs` compares them, by `f64::to_bits`,
//! with a restatement of the definition above.
//!
//! # Skipped terms
//!
//! The residual coder's inverse runs on blocks whose levels sit in a
//! few rows and columns. [`inverse_sparse_into`] (and the coder's own
//! call) skips every term of `T = Cᵀ·Y` that reads a row of `Y` outside
//! a row mask, and every term of `T·C` that reads a column of `T`
//! outside a column mask; when those rows and columns of `Y` hold only
//! zeros, the result is bit-identical to the dense product. A skipped
//! term is `a·(±0) = ±0`. An accumulator that starts at `+0.0` never
//! holds `−0.0`: under round-to-nearest `x + (−x) = +0`, and
//! `+0 + (−0) = +0`, so the only sum that yields `−0` is `−0 + −0`. And
//! adding `±0` to a value that is not `−0` returns it unchanged. So
//! leaving the term out changes no accumulator, and a column of `T`
//! whose every term is skipped or zero is exactly `+0` — skipping it in
//! the second product is the same argument again. The terms that are
//! kept are added in the same ascending order as before.

#[cfg(target_arch = "x86_64")]
use medvt_motion::cost::simd;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Supported transform sizes (HEVC core transform sizes).
pub const TRANSFORM_SIZES: [usize; 4] = [4, 8, 16, 32];

/// The transform arithmetic the residual coder runs. There is one —
/// the exact orthonormal `f64` DCT-II of this module — so the type
/// selects nothing.
// Vestige: `benchmark/src/replay.rs:209` passes `TxPath::F64` to
// `code_residual_into`; the next `[benchmark]` PR drops type and argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TxPath {
    /// Exact orthonormal `f64` DCT-II.
    #[default]
    F64,
}

/// Index of a transform size in [`TRANSFORM_SIZES`] and in the basis
/// caches.
///
/// # Panics
///
/// Panics when `n` is not one of [`TRANSFORM_SIZES`].
pub(crate) fn size_index(n: usize) -> usize {
    match n {
        4 => 0,
        8 => 1,
        16 => 2,
        32 => 3,
        n => unsupported_size(n),
    }
}

/// The panic every entry point raises for a size outside
/// [`TRANSFORM_SIZES`].
pub(crate) fn unsupported_size(n: usize) -> ! {
    panic!("unsupported transform size {n}; HEVC sizes are 4/8/16/32")
}

/// One lock-free lazily-initialized basis table per transform size.
///
/// The former `Mutex<HashMap>` serialized every DCT call across all
/// worker threads (and could poison on panic); per-size `OnceLock`s
/// initialize at most once each, are wait-free after initialization,
/// and cannot poison. Concurrent first use races the (pure)
/// computation and every thread observes the same winning table.
static BASIS_CELLS: [OnceLock<Box<[f64]>>; 4] = [
    OnceLock::new(),
    OnceLock::new(),
    OnceLock::new(),
    OnceLock::new(),
];

fn compute_basis(n: usize) -> Box<[f64]> {
    let mut m = vec![0.0f64; n * n];
    let scale0 = (1.0 / n as f64).sqrt();
    let scale = (2.0 / n as f64).sqrt();
    for k in 0..n {
        for i in 0..n {
            let s = if k == 0 { scale0 } else { scale };
            m[k * n + i] =
                s * ((std::f64::consts::PI / n as f64) * (i as f64 + 0.5) * k as f64).cos();
        }
    }
    m.into_boxed_slice()
}

/// Orthonormal DCT-II basis matrix of size `n x n`, row-major, cached.
fn basis(n: usize) -> &'static [f64] {
    BASIS_CELLS[size_index(n)].get_or_init(|| compute_basis(n))
}

/// Transposed basis (`C^T`), cached separately so multiplications by
/// `C^T` read stride-1 rows. Element values are exact copies of
/// [`basis`], so results are bit-identical to indexing `C` columns.
static BASIS_T_CELLS: [OnceLock<Box<[f64]>>; 4] = [
    OnceLock::new(),
    OnceLock::new(),
    OnceLock::new(),
    OnceLock::new(),
];

fn basis_t(n: usize) -> &'static [f64] {
    BASIS_T_CELLS[size_index(n)].get_or_init(|| {
        let c = basis(n);
        let mut t = vec![0.0f64; n * n];
        for k in 0..n {
            for i in 0..n {
                t[i * n + k] = c[k * n + i];
            }
        }
        t.into_boxed_slice()
    })
}

/// An `N x N` matrix as the fixed-size kernels take it.
pub(crate) type Square<T, const N: usize> = [[T; N]; N];

/// Views `N * N` row-major values as `N` rows of `N`.
///
/// # Panics
///
/// Panics when `flat.len() != N * N`.
pub(crate) fn as_square<T, const N: usize>(flat: &[T]) -> &Square<T, N> {
    assert_eq!(flat.len(), N * N, "block must be {N}x{N}");
    let (rows, _) = flat.as_chunks::<N>();
    rows.try_into().expect("N * N values make N rows of N")
}

/// The cached `(C, C^T)` of size `N`.
fn tables<const N: usize>() -> (&'static Square<f64, N>, &'static Square<f64, N>) {
    (as_square(basis(N)), as_square(basis_t(N)))
}

/// Row or column mask selecting every line of a block.
pub(crate) const ALL_LINES: u32 = u32::MAX;

/// `out = A · X · B` on `N x N` matrices — the one body behind both
/// transform directions at every size and on every dispatch tier,
/// under the module's evaluation-order contract. With `SKIP`, terms
/// reading a row of `X` whose bit is clear in `rows`, or a column of
/// `A · X` whose bit is clear in `cols`, are skipped (module docs,
/// "Skipped terms"); without it the masks are not read, so the dense
/// forward transform carries no mask test.
#[inline(always)]
fn product<const N: usize, const SKIP: bool>(
    a: &Square<f64, N>,
    x: &Square<f64, N>,
    b: &Square<f64, N>,
    (rows, cols): (u32, u32),
    out: &mut Square<f64, N>,
) {
    for (a_row, out_row) in a.iter().zip(out.iter_mut()) {
        let mut t_row = [0.0f64; N];
        for (i, (&a_ki, x_row)) in a_row.iter().zip(x).enumerate() {
            if SKIP && rows & (1 << i) == 0 {
                continue;
            }
            for (t, &x_ij) in t_row.iter_mut().zip(x_row) {
                *t += a_ki * x_ij;
            }
        }
        let mut acc = [0.0f64; N];
        for (j, (&t_kj, b_row)) in t_row.iter().zip(b).enumerate() {
            if SKIP && cols & (1 << j) == 0 {
                continue;
            }
            for (o, &b_jl) in acc.iter_mut().zip(b_row) {
                *o += t_kj * b_jl;
            }
        }
        *out_row = acc;
    }
}

/// [`product`] compiled with 256-bit vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn product_avx2<const N: usize, const SKIP: bool>(
    a: &Square<f64, N>,
    x: &Square<f64, N>,
    b: &Square<f64, N>,
    lines: (u32, u32),
    out: &mut Square<f64, N>,
) {
    product::<N, SKIP>(a, x, b, lines, out);
}

/// [`product`] on the calling thread's dispatch tier
/// ([`simd::tier`]): the AVX2 build where that is the tier, the
/// baseline build (SSE2 on x86-64) otherwise. Same bits either way.
fn product_on_tier<const N: usize, const SKIP: bool>(
    a: &Square<f64, N>,
    x: &Square<f64, N>,
    b: &Square<f64, N>,
    lines: (u32, u32),
    out: &mut Square<f64, N>,
) {
    #[cfg(target_arch = "x86_64")]
    if simd::tier() == simd::DispatchTier::Avx2 {
        // SAFETY: `tier()` is `Avx2` only when `is_x86_feature_detected!`
        // found AVX2 on this host (`with_tier` asserts the same before
        // it pins a tier), which is all `product_avx2` requires.
        return unsafe { product_avx2::<N, SKIP>(a, x, b, lines, out) };
    }
    product::<N, SKIP>(a, x, b, lines, out);
}

/// Forward 2-D DCT-II of one `N x N` residual block: `C · X · C^T`.
pub(crate) fn forward_block<const N: usize>(residual: &Square<i32, N>, out: &mut Square<f64, N>) {
    let (c, ct) = tables::<N>();
    let mut x = [[0.0f64; N]; N];
    for (x, &r) in x.as_flattened_mut().iter_mut().zip(residual.as_flattened()) {
        *x = f64::from(r);
    }
    product_on_tier::<N, false>(c, &x, ct, (ALL_LINES, ALL_LINES), out);
}

/// Inverse 2-D DCT-II of one `N x N` coefficient block: `C^T · Y · C`,
/// reading only the rows of `Y` set in `rows` and its columns set in
/// `cols` (bit `i` for line `i`; module docs, "Skipped terms"). Rows
/// outside `rows` need not be initialised to zero: they are never read.
pub(crate) fn inverse_block<const N: usize>(
    coeffs: &Square<f64, N>,
    rows: u32,
    cols: u32,
    out: &mut Square<f64, N>,
) {
    let (c, ct) = tables::<N>();
    product_on_tier::<N, true>(ct, coeffs, c, (rows, cols), out);
}

/// Runs `$body` with `$N` bound to the run-time transform size `$n`.
///
/// # Panics
///
/// Panics when `$n` is not one of [`TRANSFORM_SIZES`].
macro_rules! with_size {
    ($n:expr, $N:ident => $body:expr) => {
        match $n {
            4 => {
                const $N: usize = 4;
                $body
            }
            8 => {
                const $N: usize = 8;
                $body
            }
            16 => {
                const $N: usize = 16;
                $body
            }
            32 => {
                const $N: usize = 32;
                $body
            }
            n => $crate::transform::unsupported_size(n),
        }
    };
}
pub(crate) use with_size;

/// Forward 2-D DCT-II of an `n x n` residual block (row-major `i32`
/// samples), producing `f64` coefficients.
///
/// # Panics
///
/// Panics when `n` is unsupported or `input.len() != n * n`.
pub fn forward(n: usize, input: &[i32]) -> Vec<f64> {
    let mut out = Vec::new();
    forward_into(n, input, &mut out, &mut Vec::new());
    out
}

/// Allocation-free [`forward`]: writes the coefficients into `out`
/// (resized to `n * n`; reusing it across blocks makes the transform
/// zero-allocation in steady state). The arithmetic is the fixed-size
/// kernel the residual coder runs (the module's evaluation-order
/// contract). The intermediate product lives on the stack, so `_tmp` is
/// ignored.
///
/// # Panics
///
/// Panics when `n` is unsupported or `input.len() != n * n`.
// Vestige: `benchmark/src/replay.rs:233` passes a `_tmp`; the next
// `[benchmark]` PR drops the parameter here and on `inverse_into`.
pub fn forward_into(n: usize, input: &[i32], out: &mut Vec<f64>, _tmp: &mut Vec<f64>) {
    with_size!(n, N => {
        let mut coeffs = [[0.0; N]; N];
        forward_block(as_square::<i32, N>(input), &mut coeffs);
        out.clear();
        out.extend_from_slice(coeffs.as_flattened());
    });
}

/// Inverse 2-D DCT-II, mapping coefficients back to residual samples
/// (`f64`, caller rounds).
///
/// # Panics
///
/// Panics when `n` is unsupported or `coeffs.len() != n * n`.
pub fn inverse(n: usize, coeffs: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    inverse_into(n, coeffs, &mut out, &mut Vec::new());
    out
}

/// Allocation-free [`inverse`]: writes the residual samples into `out`
/// (resized to `n * n`); `_tmp` is ignored, as in [`forward_into`].
///
/// # Panics
///
/// Panics when `n` is unsupported or `coeffs.len() != n * n`.
pub fn inverse_into(n: usize, coeffs: &[f64], out: &mut Vec<f64>, _tmp: &mut Vec<f64>) {
    inverse_sparse_into(n, coeffs, ALL_LINES, ALL_LINES, out);
}

/// [`inverse_into`] as the residual coder runs it: the inverse of
/// `coeffs` with every entry that is not both in a row set in `rows`
/// and in a column set in `cols` (bit `i` for line `i`) taken as zero,
/// by skipping the terms that read it. Bit-identical to [`inverse_into`]
/// on the block with those entries zeroed, whatever their sign (module
/// docs, "Skipped terms").
///
/// # Panics
///
/// Panics when `n` is unsupported or `coeffs.len() != n * n`.
pub fn inverse_sparse_into(n: usize, coeffs: &[f64], rows: u32, cols: u32, out: &mut Vec<f64>) {
    with_size!(n, N => {
        let mut samples = [[0.0; N]; N];
        inverse_block(as_square::<f64, N>(coeffs), rows, cols, &mut samples);
        out.clear();
        out.extend_from_slice(samples.as_flattened());
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dc_block_concentrates_energy() {
        let input = vec![10i32; 64];
        let coeffs = forward(8, &input);
        // DC coefficient = 10 * 8 (orthonormal scaling: sum/n * n = 80).
        assert!((coeffs[0] - 80.0).abs() < 1e-9, "dc={}", coeffs[0]);
        for (i, &c) in coeffs.iter().enumerate().skip(1) {
            assert!(c.abs() < 1e-9, "ac[{i}]={c}");
        }
    }

    #[test]
    fn round_trip_is_exact_to_rounding() {
        for n in TRANSFORM_SIZES {
            let input: Vec<i32> = (0..n * n).map(|i| ((i * 37) % 511) as i32 - 255).collect();
            let rec = inverse(n, &forward(n, &input));
            for (a, b) in input.iter().zip(&rec) {
                assert!((*a as f64 - b).abs() < 1e-6, "n={n}");
            }
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let input: Vec<i32> = (0..64).map(|i| (i * i % 97) - 48).collect();
        let coeffs = forward(8, &input);
        let e_spatial: f64 = input.iter().map(|&x| (x as f64) * (x as f64)).sum();
        let e_freq: f64 = coeffs.iter().map(|c| c * c).sum();
        assert!((e_spatial - e_freq).abs() / e_spatial < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unsupported transform size")]
    fn rejects_odd_sizes() {
        forward(6, &[0; 36]);
    }

    #[test]
    fn smooth_content_compacts_into_low_frequencies() {
        // A horizontal ramp: all energy in the first row of coefficients.
        let mut input = vec![0i32; 64];
        for r in 0..8 {
            for c in 0..8 {
                input[r * 8 + c] = c as i32 * 10;
            }
        }
        let coeffs = forward(8, &input);
        let low: f64 = coeffs[..8].iter().map(|c| c.abs()).sum();
        let high: f64 = coeffs[8..].iter().map(|c| c.abs()).sum();
        assert!(low > 10.0 * high, "low={low} high={high}");
    }

    #[test]
    fn concurrent_first_use_yields_identical_tables() {
        // Many threads race the lazy basis initialization through the
        // public API; every thread must observe the same coefficients
        // (regression test for the old poisonable Mutex<HashMap> path,
        // which could also deadlock-by-serialization under the worker
        // pool).
        let results: Vec<Vec<Vec<f64>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..16)
                .map(|_| {
                    scope.spawn(|| {
                        TRANSFORM_SIZES
                            .map(|n| {
                                let input = vec![7i32; n * n];
                                forward(n, &input)
                            })
                            .to_vec()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for other in &results[1..] {
            assert_eq!(&results[0], other, "threads saw different basis tables");
        }
        // And the tables are shared statics: repeated lookups return
        // the same allocation.
        assert!(std::ptr::eq(basis(8), basis(8)));
    }

    #[test]
    fn into_variants_match_allocating_variants() {
        let mut out = Vec::new();
        let mut tmp = Vec::new();
        for n in TRANSFORM_SIZES {
            let input: Vec<i32> = (0..n * n).map(|i| ((i * 91) % 509) as i32 - 254).collect();
            forward_into(n, &input, &mut out, &mut tmp);
            let allocating = forward(n, &input);
            assert_eq!(out, allocating, "forward_into diverged at n={n}");
            let mut rec = Vec::new();
            inverse_into(n, &allocating, &mut rec, &mut tmp);
            assert_eq!(
                rec,
                inverse(n, &allocating),
                "inverse_into diverged at n={n}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_into_forward_bit_exact(input in proptest::collection::vec(-255i32..=255, 64)) {
            let mut out = vec![1.0; 3]; // dirty buffers must not leak through
            let mut tmp = vec![2.0; 99];
            forward_into(8, &input, &mut out, &mut tmp);
            let reference = forward(8, &input);
            prop_assert_eq!(out, reference);
        }

        #[test]
        fn prop_round_trip_8(input in proptest::collection::vec(-255i32..=255, 64)) {
            let rec = inverse(8, &forward(8, &input));
            for (a, b) in input.iter().zip(&rec) {
                prop_assert!((*a as f64 - b).abs() < 1e-6);
            }
        }

        #[test]
        fn prop_linearity(
            a in proptest::collection::vec(-128i32..=127, 16),
            b in proptest::collection::vec(-128i32..=127, 16),
        ) {
            let sum: Vec<i32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
            let fa = forward(4, &a);
            let fb = forward(4, &b);
            let fsum = forward(4, &sum);
            for i in 0..16 {
                prop_assert!((fa[i] + fb[i] - fsum[i]).abs() < 1e-6);
            }
        }
    }
}
