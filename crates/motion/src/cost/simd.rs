//! Runtime-dispatched SIMD kernels behind the cost metrics.
//!
//! Both metrics in [`super`] funnel their inner loops through this
//! module. Dispatch picks the widest instruction set the host supports
//! — AVX2, then SSE2, then portable scalar — once per process via
//! [`std::arch::is_x86_feature_detected!`], and each cost call
//! resolves the tier exactly once, so the hot path never touches
//! thread-locals per row.
//!
//! SAD is block-granular: [`block_sad`] takes two strided operands and
//! runs the whole `w x h` block inside one kernel call (one dispatch,
//! one `psadbw` accumulator held in a register across rows, one
//! horizontal reduction per four rows). Motion search and the clamped
//! off-frame candidates call it; a stride of 0 replays one row. SATD
//! stays 4x4-granular (`satd4`).
//!
//! # The bit-exactness contract
//!
//! Every tier computes the *same integer result* as the scalar code
//! (which is itself differential-tested against the specification
//! restated in `tests/kernel_differential.rs`): SAD and SATD are sums of integer terms, and
//! integer SIMD addition is exact, so lane order cannot change the
//! total. The SATD kernel performs the 4x4 Hadamard butterfly
//! column-first instead of row-first; since the butterfly is the
//! linear map `H·X·Hᵀ` either way (associativity) and every
//! intermediate fits `i16` (inputs in `[-255, 255]` grow to at most
//! 4080), the 16 transformed values — and therefore their absolute
//! sum — are identical. Proptests in `tests/kernel_differential.rs`
//! enforce equality across every available tier.
//!
//! # Overriding dispatch
//!
//! * `MEDVT_FORCE_SCALAR=1` (any non-empty value other than `0`) pins
//!   the process-wide tier to scalar — CI runs the kernel lanes twice,
//!   once per setting, so the fallback stays covered.
//! * [`with_tier`] pins a tier for the current thread inside a closure
//!   (benchmarks measuring one tier against another, differential
//!   tests sweeping all tiers).

use std::cell::Cell;
use std::sync::OnceLock;

/// Instruction-set tier a kernel call executes under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DispatchTier {
    /// 256-bit AVX2 paths (x86_64 with runtime-detected `avx2`).
    Avx2,
    /// 128-bit SSE2 paths (baseline on x86_64, runtime-detected).
    Sse2,
    /// Portable scalar fallback — the pre-SIMD loops, verbatim.
    Scalar,
}

impl DispatchTier {
    /// All tiers, widest first (the order dispatch probes them).
    pub const ALL: [DispatchTier; 3] =
        [DispatchTier::Avx2, DispatchTier::Sse2, DispatchTier::Scalar];

    /// Stable lowercase name recorded in benchmark artifacts.
    pub const fn name(self) -> &'static str {
        match self {
            DispatchTier::Avx2 => "avx2",
            DispatchTier::Sse2 => "sse2",
            DispatchTier::Scalar => "scalar",
        }
    }

    /// Whether the host can execute this tier.
    pub fn available(self) -> bool {
        match self {
            DispatchTier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            DispatchTier::Sse2 => std::arch::is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            DispatchTier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// Whether `MEDVT_FORCE_SCALAR` pins dispatch to the scalar tier.
pub(crate) fn forced_scalar() -> bool {
    match std::env::var("MEDVT_FORCE_SCALAR") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

fn detect() -> DispatchTier {
    if forced_scalar() {
        return DispatchTier::Scalar;
    }
    DispatchTier::ALL
        .into_iter()
        .find(|t| t.available())
        .unwrap_or(DispatchTier::Scalar)
}

static GLOBAL_TIER: OnceLock<DispatchTier> = OnceLock::new();

thread_local! {
    static TIER_OVERRIDE: Cell<Option<DispatchTier>> = const { Cell::new(None) };
}

/// The tier the calling thread dispatches to right now: a
/// [`with_tier`] override when active, otherwise the process-wide
/// detected tier (environment override applied once, then cached).
pub fn tier() -> DispatchTier {
    TIER_OVERRIDE
        .with(|o| o.get())
        .unwrap_or_else(|| *GLOBAL_TIER.get_or_init(detect))
}

/// Runs `f` with dispatch pinned to `t` on the current thread,
/// restoring the previous override afterwards (also on panic, so a
/// failing proptest cannot leak a tier into later cases).
///
/// # Panics
///
/// Panics when the host cannot execute `t`.
pub fn with_tier<T>(t: DispatchTier, f: impl FnOnce() -> T) -> T {
    assert!(
        t.available(),
        "tier {} not available on this host",
        t.name()
    );
    struct Restore(Option<DispatchTier>);
    impl Drop for Restore {
        fn drop(&mut self) {
            TIER_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _guard = TIER_OVERRIDE.with(|o| {
        let prev = o.get();
        o.set(Some(t));
        Restore(prev)
    });
    f()
}

// ---------------------------------------------------------------------
// Row kernels. Each takes the tier resolved once by the caller and
// trusts it: crate-private, and every caller passes `tier()` (available
// by construction) or a tier `block_sad` has checked.
// ---------------------------------------------------------------------

/// Sum of absolute differences over one row pair (zip semantics:
/// trailing samples of the longer slice are ignored).
#[inline]
pub(crate) fn row_sad(t: DispatchTier, cur: &[u8], reference: &[u8]) -> u64 {
    match t {
        DispatchTier::Scalar => row_sad_scalar(cur, reference),
        #[cfg(target_arch = "x86_64")]
        DispatchTier::Sse2 => unsafe { row_sad_sse2(cur, reference) },
        #[cfg(target_arch = "x86_64")]
        DispatchTier::Avx2 => unsafe { row_sad_avx2(cur, reference) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => row_sad_scalar(cur, reference),
    }
}

/// Sum of absolute differences over a whole `w x h` block of two
/// strided operands: row `r` of an operand is
/// `operand[r * stride..r * stride + w]`. A stride of 0 compares every
/// row of the other operand against the same `w` samples.
///
/// Early termination against the exclusive `bound` follows the
/// `*_upto` contract of [`super`]: the result is the exact SAD whenever
/// it is below `bound`, otherwise some partial sum that already
/// reached `bound` (`bound <= result <= exact`). The x86 block bodies
/// (`w` of 8, 16 or 32) test the bound every four rows; every other
/// width, and the scalar tier, run a per-row loop — on the calling
/// thread's [`tier`] when the host cannot execute `t`.
///
/// # Panics
///
/// Panics when `h == 0` or when either operand is shorter than
/// `(h - 1) * stride + w`.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn block_sad(
    t: DispatchTier,
    cur: &[u8],
    cur_stride: usize,
    reference: &[u8],
    ref_stride: usize,
    w: usize,
    h: usize,
    bound: u64,
) -> u64 {
    assert!(h > 0, "block_sad needs at least one row");
    assert!(
        (h - 1) * cur_stride + w <= cur.len(),
        "current operand shorter than {h} rows of {w} at stride {cur_stride}"
    );
    assert!(
        (h - 1) * ref_stride + w <= reference.len(),
        "reference operand shorter than {h} rows of {w} at stride {ref_stride}"
    );
    #[cfg(target_arch = "x86_64")]
    if t != DispatchTier::Scalar {
        let (c, r) = (cur.as_ptr(), reference.as_ptr());
        // SAFETY: the two length asserts above guarantee that both
        // operands hold `w` readable bytes at `row * stride` for every
        // `row < h`, which is all a block body reads (its `W` is `w`).
        // SSE2 is part of the x86_64 baseline, so the bodies run on
        // every host whichever of the two SIMD tiers the caller names.
        unsafe {
            match w {
                32 => return block_sad_sse2::<32>(c, cur_stride, r, ref_stride, h, bound),
                16 => return block_sad_sse2::<16>(c, cur_stride, r, ref_stride, h, bound),
                8 => return block_sad_sse2::<8>(c, cur_stride, r, ref_stride, h, bound),
                _ => {}
            }
        }
    }
    // The row kernels jump straight to the named tier's instructions,
    // and `t` is whatever a caller of this public function wrote.
    let t = if t.available() { t } else { tier() };
    let mut acc = 0u64;
    for row in 0..h {
        let (c, r) = (row * cur_stride, row * ref_stride);
        acc += row_sad(t, &cur[c..c + w], &reference[r..r + w]);
        if acc >= bound {
            return acc;
        }
    }
    acc
}

/// Σ|coeff| of the 4x4 Hadamard transform of the residual between two
/// strided 4x4 blocks (`cur[r * cur_stride + c]` vs
/// `reference[r * ref_stride + c]`). The caller halves the result to
/// keep SATD on the SAD scale.
#[inline]
pub(crate) fn satd4(
    t: DispatchTier,
    cur: &[u8],
    cur_stride: usize,
    reference: &[u8],
    ref_stride: usize,
) -> u64 {
    debug_assert!(cur.len() >= 3 * cur_stride + 4);
    debug_assert!(reference.len() >= 3 * ref_stride + 4);
    match t {
        DispatchTier::Scalar => satd4_scalar(cur, cur_stride, reference, ref_stride),
        #[cfg(target_arch = "x86_64")]
        DispatchTier::Sse2 | DispatchTier::Avx2 => unsafe {
            satd4_sse2(cur, cur_stride, reference, ref_stride)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => satd4_scalar(cur, cur_stride, reference, ref_stride),
    }
}

// ---------------------------------------------------------------------
// Scalar tier: the pre-SIMD loops, verbatim.
// ---------------------------------------------------------------------

fn row_sad_scalar(cur: &[u8], reference: &[u8]) -> u64 {
    cur.iter()
        .zip(reference)
        .map(|(&c, &r)| (c as i16 - r as i16).unsigned_abs() as u32)
        .sum::<u32>() as u64
}

/// 4x4 Hadamard transform of the residual, butterfly row-first, then
/// column-first; returns Σ|coeff|.
fn satd4_scalar(cur: &[u8], cur_stride: usize, reference: &[u8], ref_stride: usize) -> u64 {
    let mut m = [0i32; 16];
    // Rows of the residual.
    for r in 0..4 {
        let [a, b, c, d]: [i32; 4] = std::array::from_fn(|k| {
            cur[r * cur_stride + k] as i32 - reference[r * ref_stride + k] as i32
        });
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

// ---------------------------------------------------------------------
// x86_64 tiers.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Horizontal sum of the two u64 lanes (SSE2 only — no SSE4.1
    /// `_mm_extract_epi64`).
    #[inline]
    unsafe fn hsum_epi64(v: __m128i) -> u64 {
        let hi = _mm_unpackhi_epi64(v, v);
        _mm_cvtsi128_si64(_mm_add_epi64(v, hi)) as u64
    }

    /// Horizontal sum of the four u64 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum256_epi64(v: __m256i) -> u64 {
        hsum_epi64(_mm_add_epi64(
            _mm256_castsi256_si128(v),
            _mm256_extracti128_si256(v, 1),
        ))
    }

    /// Horizontal sum of four i32 lanes, widened to u64 before adding
    /// so lane totals near `i32::MAX` cannot wrap.
    #[inline]
    unsafe fn hsum_epi32(v: __m128i) -> u64 {
        let mut lanes = [0i32; 4];
        _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, v);
        lanes.iter().map(|&x| x as u32 as u64).sum()
    }

    #[target_feature(enable = "sse2")]
    pub(crate) unsafe fn row_sad_sse2(cur: &[u8], reference: &[u8]) -> u64 {
        let n = cur.len().min(reference.len());
        let mut acc = _mm_setzero_si128();
        let mut i = 0usize;
        while i + 16 <= n {
            let a = _mm_loadu_si128(cur.as_ptr().add(i) as *const __m128i);
            let b = _mm_loadu_si128(reference.as_ptr().add(i) as *const __m128i);
            acc = _mm_add_epi64(acc, _mm_sad_epu8(a, b));
            i += 16;
        }
        if i + 8 <= n {
            let a = _mm_loadl_epi64(cur.as_ptr().add(i) as *const __m128i);
            let b = _mm_loadl_epi64(reference.as_ptr().add(i) as *const __m128i);
            acc = _mm_add_epi64(acc, _mm_sad_epu8(a, b));
            i += 8;
        }
        let mut total = hsum_epi64(acc);
        while i < n {
            total += (cur[i] as i16 - reference[i] as i16).unsigned_abs() as u64;
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn row_sad_avx2(cur: &[u8], reference: &[u8]) -> u64 {
        let n = cur.len().min(reference.len());
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 32 <= n {
            let a = _mm256_loadu_si256(cur.as_ptr().add(i) as *const __m256i);
            let b = _mm256_loadu_si256(reference.as_ptr().add(i) as *const __m256i);
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(a, b));
            i += 32;
        }
        let head = hsum256_epi64(acc);
        // 16/8-byte chunks and the scalar tail via the SSE2 kernel.
        head + row_sad_sse2(&cur[i..n], &reference[i..n])
    }

    /// `psadbw` of row `row` of two strided `W`-wide operands
    /// (`W` of 8, 16 or 32), as two u64 lane sums.
    ///
    /// # Safety
    ///
    /// Both pointers must be valid for reads of `W` bytes at
    /// `row * stride`.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn row_psadbw<const W: usize>(
        cur: *const u8,
        cur_stride: usize,
        reference: *const u8,
        ref_stride: usize,
        row: usize,
    ) -> __m128i {
        let c = cur.add(row * cur_stride);
        let r = reference.add(row * ref_stride);
        if W == 8 {
            return _mm_sad_epu8(
                _mm_loadl_epi64(c as *const __m128i),
                _mm_loadl_epi64(r as *const __m128i),
            );
        }
        let mut sum = _mm_sad_epu8(
            _mm_loadu_si128(c as *const __m128i),
            _mm_loadu_si128(r as *const __m128i),
        );
        if W == 32 {
            sum = _mm_add_epi64(
                sum,
                _mm_sad_epu8(
                    _mm_loadu_si128(c.add(16) as *const __m128i),
                    _mm_loadu_si128(r.add(16) as *const __m128i),
                ),
            );
        }
        sum
    }

    /// Whole-block SAD of two strided `W x h` operands (`W` of 8, 16
    /// or 32): the `psadbw` lane sums stay in one register across rows
    /// and are reduced — and tested against `bound` — every four rows.
    ///
    /// # Safety
    ///
    /// For every `row < h`, both pointers must be valid for reads of
    /// `W` bytes at `row * stride`; the host must support SSE2.
    #[target_feature(enable = "sse2")]
    pub(crate) unsafe fn block_sad_sse2<const W: usize>(
        cur: *const u8,
        cur_stride: usize,
        reference: *const u8,
        ref_stride: usize,
        h: usize,
        bound: u64,
    ) -> u64 {
        const { assert!(W == 8 || W == 16 || W == 32) };
        let mut acc = _mm_setzero_si128();
        let mut row = 0usize;
        while row + 4 <= h {
            for r in row..row + 4 {
                let sad = row_psadbw::<W>(cur, cur_stride, reference, ref_stride, r);
                acc = _mm_add_epi64(acc, sad);
            }
            row += 4;
            let partial = hsum_epi64(acc);
            if partial >= bound {
                return partial;
            }
        }
        while row < h {
            let sad = row_psadbw::<W>(cur, cur_stride, reference, ref_stride, row);
            acc = _mm_add_epi64(acc, sad);
            row += 1;
        }
        hsum_epi64(acc)
    }

    #[inline]
    fn row4(p: &[u8], off: usize) -> u64 {
        u32::from_le_bytes(p[off..off + 4].try_into().expect("4-byte row")) as u64
    }

    /// 4x4 Hadamard |coeff| sum over packed i16 lanes.
    ///
    /// Layout: two registers hold the residual, rows 0|1 and rows 2|3
    /// (4 lanes each half). The butterfly runs column-first, then the
    /// block is transposed with unpack ops and the butterfly runs
    /// again — `H·(H·X)ᵀ`-style, which by associativity produces the
    /// same 16 values as the scalar row-first order. All intermediates
    /// fit i16: inputs in [-255, 255] grow to at most 4080.
    #[target_feature(enable = "sse2")]
    pub(crate) unsafe fn satd4_sse2(
        cur: &[u8],
        cur_stride: usize,
        reference: &[u8],
        ref_stride: usize,
    ) -> u64 {
        let zero = _mm_setzero_si128();
        let d01 = _mm_sub_epi16(
            load_pair_epi16(cur, cur_stride, 0),
            load_pair_epi16(reference, ref_stride, 0),
        );
        let d23 = _mm_sub_epi16(
            load_pair_epi16(cur, cur_stride, 2),
            load_pair_epi16(reference, ref_stride, 2),
        );
        // Vertical butterfly on [row0|row1], [row2|row3].
        let (t0, t1) = butterfly_pairs(d01, d23);
        // Transpose: t0 = [m0|m2], t1 = [m1|m3] → [col0|col1], [col2|col3].
        let u0 = _mm_unpacklo_epi16(t0, t1);
        let u1 = _mm_unpackhi_epi16(t0, t1);
        let v0 = _mm_unpacklo_epi32(u0, u1);
        let v1 = _mm_unpackhi_epi32(u0, u1);
        // Second butterfly along the other axis.
        let (f0, f1) = butterfly_pairs(v0, v1);
        // |x| = max(x, -x); values ≤ 4080 so i16::MIN never appears.
        let a0 = _mm_max_epi16(f0, _mm_sub_epi16(zero, f0));
        let a1 = _mm_max_epi16(f1, _mm_sub_epi16(zero, f1));
        let ones = _mm_set1_epi16(1);
        let sums = _mm_add_epi32(_mm_madd_epi16(a0, ones), _mm_madd_epi16(a1, ones));
        hsum_epi32(sums)
    }

    /// Rows `r` and `r + 1` of a strided 4-wide block, widened to the
    /// eight i16 lanes of one register (row `r` low, row `r + 1` high).
    #[inline]
    unsafe fn load_pair_epi16(p: &[u8], stride: usize, r: usize) -> __m128i {
        let packed = row4(p, r * stride) | (row4(p, (r + 1) * stride) << 32);
        _mm_unpacklo_epi8(_mm_set_epi64x(0, packed as i64), _mm_setzero_si128())
    }

    /// One Hadamard butterfly stage over registers packing elements
    /// 0|1 and 2|3 of the transformed axis in their 64-bit halves:
    /// returns `([b0|b2], [b1|b3])` where
    /// `(b0,b1,b2,b3) = (s0+s1, s0-s1, d0+d1, d0-d1)` with
    /// `s0 = e0+e2, s1 = e1+e3, d0 = e0-e2, d1 = e1-e3` per lane.
    #[inline]
    unsafe fn butterfly_pairs(p01: __m128i, p23: __m128i) -> (__m128i, __m128i) {
        let sum = _mm_add_epi16(p01, p23); // [s0|s1]
        let dif = _mm_sub_epi16(p01, p23); // [d0|d1]
        let x = _mm_unpacklo_epi64(sum, dif); // [s0|d0]
        let y = _mm_unpackhi_epi64(sum, dif); // [s1|d1]
        (_mm_add_epi16(x, y), _mm_sub_epi16(x, y))
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{block_sad_sse2, row_sad_avx2, row_sad_sse2, satd4_sse2};

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn scalar_always_available_and_named() {
        assert!(DispatchTier::Scalar.available());
        assert_eq!(DispatchTier::Scalar.name(), "scalar");
        assert_eq!(DispatchTier::Avx2.name(), "avx2");
        assert_eq!(DispatchTier::Sse2.name(), "sse2");
    }

    #[test]
    fn with_tier_overrides_and_restores() {
        let outer = tier();
        with_tier(DispatchTier::Scalar, || {
            assert_eq!(tier(), DispatchTier::Scalar);
        });
        assert_eq!(tier(), outer);
    }

    #[test]
    fn with_tier_restores_on_panic() {
        let outer = tier();
        let result = std::panic::catch_unwind(|| {
            with_tier(DispatchTier::Scalar, || panic!("boom"));
        });
        assert!(result.is_err());
        assert_eq!(tier(), outer);
    }

    #[test]
    fn row_kernels_agree_across_tiers_and_lengths() {
        // Lengths cover every chunk boundary: 32/16/8-byte blocks plus
        // ragged tails of 0..=7.
        for len in 0..=67usize {
            let a = bytes(len, 3);
            let b = bytes(len, 17);
            let want = row_sad_scalar(&a, &b);
            for t in DispatchTier::ALL {
                if !t.available() {
                    continue;
                }
                assert_eq!(row_sad(t, &a, &b), want, "len={len} tier={t:?}");
            }
        }
    }

    #[test]
    fn row_kernels_honor_zip_semantics() {
        let a = bytes(20, 5);
        let b = bytes(33, 9);
        for t in DispatchTier::ALL {
            if !t.available() {
                continue;
            }
            assert_eq!(row_sad(t, &a, &b), row_sad_scalar(&a, &b));
            assert_eq!(row_sad(t, &b, &a), row_sad_scalar(&b, &a));
        }
    }

    #[test]
    fn satd4_agrees_across_tiers_and_strides() {
        for (cs, rs) in [(4usize, 4usize), (7, 5), (24, 24), (31, 16)] {
            let cur = bytes(3 * cs + 4, 11);
            let reference = bytes(3 * rs + 4, 29);
            let want = satd4_scalar(&cur, cs, &reference, rs);
            for t in DispatchTier::ALL {
                if !t.available() {
                    continue;
                }
                assert_eq!(
                    satd4(t, &cur, cs, &reference, rs),
                    want,
                    "tier={t:?} cs={cs} rs={rs}"
                );
            }
        }
    }

    #[test]
    fn satd4_of_a_constant_residual_is_its_dc() {
        // Residual of 1 everywhere: all energy in DC = 16, so cost = 16.
        for t in DispatchTier::ALL.into_iter().filter(|t| t.available()) {
            assert_eq!(satd4(t, &[1; 16], 4, &[0; 16], 4), 16, "tier={t:?}");
        }
    }

    #[test]
    fn satd4_extreme_residuals_fit_i16() {
        // All-255 vs all-0: the largest possible residual magnitudes.
        let cur = vec![255u8; 16];
        let reference = vec![0u8; 16];
        let want = satd4_scalar(&cur, 4, &reference, 4);
        for t in DispatchTier::ALL {
            if !t.available() {
                continue;
            }
            assert_eq!(satd4(t, &cur, 4, &reference, 4), want, "tier={t:?}");
        }
    }
}
