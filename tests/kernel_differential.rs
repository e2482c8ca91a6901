//! Differential-fuzz harness for the dispatch-accelerated kernels.
//!
//! Two executable specifications anchor the kernel half of this suite:
//!
//! * `medvt_motion::cost::reference` — the textbook cost metrics. Every
//!   dispatch tier (AVX2, SSE2, scalar) must produce *bit-identical*
//!   costs for random planes, ragged block widths and motion vectors
//!   that clamp outside the reference frame, and every `*_upto`
//!   early-exit bound must decide exactly like the exact cost.
//! * `medvt_encoder::bits::reference` — the seed per-bit `BitWriter`.
//!   Random mixed sequences of `write_bit` / `write_bits` / `write_ue`
//!   / `write_se` / `byte_align` through the word-batched writer must
//!   emit byte-for-byte the same stream.
//!
//! A third specification needs no reference module: the residual
//! coder must equal the composition of the public stage functions
//! (`transform::forward → quant::quantize → bits::code_block →
//! quant::dequantize → transform::inverse`) run on every block,
//! whatever blocks it proves all-zero and skips.
//!
//! Tiers are pinned with `cost::simd::with_tier`, so on an AVX2 host a
//! single run exercises all three code paths; on an older host the
//! unavailable tiers are skipped (the scalar tier always runs).

use medvt_frame::{Plane, Rect};
use medvt_motion::cost::{self, simd};
use medvt_motion::{CostMetric, MotionVector};
use proptest::prelude::*;

/// Deterministic textured plane; `salt` decorrelates cur/ref pairs.
fn plane(width: usize, height: usize, salt: u64) -> Plane {
    let mut p = Plane::new(width, height);
    let mut state = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for row in 0..height {
        for col in 0..width {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            p.set(col, row, (state >> 56) as u8);
        }
    }
    p
}

/// Every dispatch tier the host can actually execute.
fn tiers() -> impl Iterator<Item = simd::DispatchTier> {
    simd::DispatchTier::ALL
        .into_iter()
        .filter(|t| t.available())
}

/// Strategy: plane geometry with ragged (non-multiple-of-16) widths,
/// a block inside the current plane and an MV that may push the
/// reference read far out of bounds (exercising the clamped path).
#[allow(clippy::type_complexity)]
fn geometry() -> impl Strategy<Value = (usize, usize, Rect, MotionVector, u64)> {
    (
        17usize..49, // plane width: deliberately not SIMD-register aligned
        9usize..33,  // plane height
        0usize..24,  // block x
        0usize..16,  // block y
        1usize..24,  // block w
        1usize..24,  // block h
        -40i16..=40, // mv x: reaches outside any plane above
        -40i16..=40, // mv y
    )
        .prop_map(|(pw, ph, x, y, w, h, mx, my)| {
            let x = x.min(pw - 1);
            let y = y.min(ph - 1);
            let block = Rect::new(x, y, w.min(pw - x), h.min(ph - y));
            (
                pw,
                ph,
                block,
                MotionVector::new(mx, my),
                (pw * 31 + ph) as u64,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All tiers agree bit-exactly with `cost::reference` on the exact
    /// metrics, including ragged widths and clamped out-of-bounds MVs.
    #[test]
    fn every_tier_matches_reference_costs((pw, ph, block, mv, salt) in geometry()) {
        let cur = plane(pw, ph, salt);
        let reference = plane(pw, ph, salt.wrapping_add(7));
        let want = (
            cost::reference::sad(&cur, &reference, &block, mv),
            cost::reference::ssd(&cur, &reference, &block, mv),
            cost::reference::satd(&cur, &reference, &block, mv),
        );
        for t in tiers() {
            let got = simd::with_tier(t, || {
                (
                    cost::sad(&cur, &reference, &block, mv),
                    cost::ssd(&cur, &reference, &block, mv),
                    cost::satd(&cur, &reference, &block, mv),
                )
            });
            prop_assert_eq!(got, want, "tier {} diverged from reference", t.name());
        }
    }

    /// `*_upto` keeps exact early-exit semantics on every tier: the
    /// returned cost decides `< bound` exactly like the true cost, is
    /// exact whenever it is below the bound, and never overshoots.
    #[test]
    fn every_tier_preserves_upto_semantics(
        (pw, ph, block, mv, salt) in geometry(),
        bound_pct in 0u64..250,
    ) {
        let cur = plane(pw, ph, salt);
        let reference = plane(pw, ph, salt.wrapping_add(13));
        for metric in [CostMetric::Sad, CostMetric::Ssd, CostMetric::Satd] {
            let exact = cost::reference::block_cost(metric, &cur, &reference, &block, mv);
            let bound = bound_pct * exact.max(1) / 100;
            for t in tiers() {
                let c = simd::with_tier(t, || {
                    cost::block_cost_upto(metric, &cur, &reference, &block, mv, bound)
                });
                prop_assert_eq!(
                    c < bound,
                    exact < bound,
                    "tier {} flipped the {:?} bound decision",
                    t.name(),
                    metric
                );
                if c < bound {
                    prop_assert_eq!(c, exact);
                }
                prop_assert!(c <= exact, "tier {} overshot the exact cost", t.name());
            }
        }
    }
}

mod bitstream {
    use medvt_encoder::bits::{self, BitWriter};
    use proptest::prelude::*;

    /// One decoded write operation, derived from two raw u64 draws.
    fn apply(op: u64, payload: u64, new: &mut BitWriter, old: &mut bits::reference::BitWriter) {
        match op % 5 {
            0 => {
                let bit = payload & 1 != 0;
                new.write_bit(bit);
                old.write_bit(bit);
            }
            1 => {
                let n = (payload % 32 + 1) as u8;
                let v = (payload >> 6) as u32 & ((1u64 << n) - 1) as u32;
                new.write_bits(v, n);
                old.write_bits(v, n);
            }
            2 => {
                // Mix small values (short codes) with huge ones whose
                // Exp-Golomb info field spans the 32-bit split.
                let v = if payload & 1 == 0 {
                    (payload >> 1) as u32 % 600
                } else {
                    u32::MAX - (payload >> 1) as u32 % 600
                };
                new.write_ue(v);
                old.write_ue(v);
            }
            3 => {
                let v = (payload as i64 % 100_000) as i32;
                new.write_se(v);
                old.write_se(v);
            }
            _ => {
                new.byte_align();
                old.byte_align();
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random mixed write sequences: the word-batched writer must
        /// track the per-bit reference writer bit count at every step
        /// and match its bytes exactly at the end.
        #[test]
        fn batched_writer_is_byte_identical_to_reference(
            ops in proptest::collection::vec((0u64..5, 0u64..u64::MAX), 1..400),
        ) {
            let mut new = BitWriter::new();
            let mut old = bits::reference::BitWriter::new();
            for (op, payload) in ops {
                apply(op, payload, &mut new, &mut old);
                prop_assert_eq!(new.bits_written(), old.bits_written());
            }
            new.byte_align();
            old.byte_align();
            prop_assert_eq!(new.into_bytes(), old.into_bytes());
        }

        /// Whole-syntax differential: coefficient coding through
        /// `code_block` emits the same stream on both writers.
        #[test]
        fn code_block_is_byte_identical_to_reference(
            raw in proptest::collection::vec(-300i64..300, 16),
            n in 0usize..2,
        ) {
            let n = if n == 0 { 4 } else { 8 };
            let levels: Vec<i32> = raw
                .iter()
                .cycle()
                .take(n * n)
                .map(|&v| (v / 7) as i32) // sparse-ish, like real levels
                .collect();
            let mut new = BitWriter::new();
            let mut old = bits::reference::BitWriter::new();
            let bits_new = bits::code_block(&levels, n, &mut new);
            let bits_old = bits::reference::code_block(&levels, n, &mut old);
            prop_assert_eq!(bits_new, bits_old);
            new.byte_align();
            old.byte_align();
            prop_assert_eq!(new.into_bytes(), old.into_bytes());
        }
    }
}

mod residual {
    use medvt_encoder::bits::{code_block, BitWriter};
    use medvt_encoder::quant::{dequantize, quantize};
    use medvt_encoder::transform::{forward, inverse, TRANSFORM_SIZES};
    use medvt_encoder::{code_residual_into, Qp, ResidualScratch, TxPath};
    use proptest::prelude::*;

    /// What the composition of the public stages yields for a region.
    struct Composed {
        bytes: Vec<u8>,
        recon: Vec<u8>,
        bits: u64,
        ssd: u64,
        zero_level_blocks: u32,
    }

    /// Every `n x n` block through every stage, nothing skipped.
    fn compose(
        original: &[u8],
        prediction: &[u8],
        w: usize,
        h: usize,
        n: usize,
        qp: Qp,
    ) -> Composed {
        let mut writer = BitWriter::new();
        let mut recon = prediction.to_vec();
        let (mut bits, mut zero_level_blocks) = (0, 0);
        for ty in (0..h).step_by(n) {
            for tx in (0..w).step_by(n) {
                let at = |i: usize| (ty + i / n) * w + tx + i % n;
                let residual: Vec<i32> = (0..n * n)
                    .map(|i| original[at(i)] as i32 - prediction[at(i)] as i32)
                    .collect();
                let levels = quantize(&forward(n, &residual), qp);
                bits += code_block(&levels, n, &mut writer);
                zero_level_blocks += u32::from(levels.iter().all(|&l| l == 0));
                for (i, r) in inverse(n, &dequantize(&levels, qp)).into_iter().enumerate() {
                    recon[at(i)] = (prediction[at(i)] as f64 + r).round().clamp(0.0, 255.0) as u8;
                }
            }
        }
        let ssd = original
            .iter()
            .zip(&recon)
            .map(|(&o, &r)| (o as i64 - r as i64).pow(2) as u64)
            .sum();
        Composed {
            bytes: writer.into_bytes(),
            recon,
            bits,
            ssd,
            zero_level_blocks,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random 3x2-block regions whose blocks cycle through the
        /// regimes the coder treats differently — perfect prediction,
        /// ±1 noise, a flat offset near the dead-zone edge, heavy
        /// noise, one spike, anything — at every QP and transform size.
        #[test]
        fn residual_coder_equals_the_composed_stages(
            seed in 0u64..u64::MAX,
            qp_val in 0u8..=51,
            size in 0usize..4,
        ) {
            let n = TRANSFORM_SIZES[size];
            let qp = Qp::new(qp_val).unwrap();
            let (w, h) = (3 * n, 2 * n);
            let mut state = seed | 1;
            let mut next = move |m: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % m
            };
            let prediction: Vec<u8> = (0..w * h).map(|_| next(256) as u8).collect();
            let edge = (qp.step_size() * 2.0 / 3.0 / n as f64) as i64;
            let mut original = prediction.clone();
            for (block, (by, bx)) in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)].into_iter().enumerate() {
                let offset = edge + next(3) as i64 - 1;
                let spike = next((n * n) as u64) as usize;
                for i in 0..n * n {
                    let delta = match block {
                        0 => 0,
                        1 => next(3) as i64 - 1,
                        2 => offset,
                        3 => next(129) as i64 - 64,
                        4 => if i == spike { 255 } else { 0 },
                        _ => next(511) as i64 - 255,
                    };
                    let idx = (by * n + i / n) * w + bx * n + i % n;
                    original[idx] = (prediction[idx] as i64 + delta).clamp(0, 255) as u8;
                }
            }

            let want = compose(&original, &prediction, w, h, n, qp);
            let mut writer = BitWriter::new();
            let mut recon = vec![7u8; 3]; // dirty buffer must be replaced
            let got = code_residual_into(
                &original,
                &prediction,
                w,
                h,
                n,
                qp,
                TxPath::F64,
                &mut writer,
                &mut ResidualScratch::default(),
                &mut recon,
            );
            let case = format!("seed {seed} qp {qp_val} n {n}");
            prop_assert_eq!(writer.into_bytes(), want.bytes, "bytes: {}", case);
            prop_assert_eq!(recon, want.recon, "recon: {}", case);
            prop_assert_eq!(got.bits, want.bits, "bits: {}", case);
            prop_assert_eq!(got.ssd, want.ssd, "ssd: {}", case);
            prop_assert_eq!(got.transform_samples, (w * h) as u64, "samples: {}", case);
            prop_assert_eq!(got.zero_level_blocks, want.zero_level_blocks, "zero blocks: {}", case);
            prop_assert!(got.elided_blocks >= 1, "perfect prediction must elide: {}", case);
            prop_assert!(got.elided_blocks <= got.zero_level_blocks, "{}", case);
        }
    }
}
