//! Differential-fuzz harness for the dispatch-accelerated kernels.
//!
//! Two executable specifications, restated in this file, anchor the
//! kernel half of this suite:
//!
//! * [`spec`] — SAD and SATD from their definitions, with per-sample
//!   clamped access (the product's one clamped path gathers whole
//!   patches instead). Every dispatch tier (AVX2, SSE2, scalar) must
//!   produce *bit-identical* costs for random planes, ragged block
//!   widths and motion vectors that clamp outside the reference frame,
//!   and every `sad_upto` early-exit bound must decide exactly like
//!   the exact cost.
//! * `bitstream::PerBitWriter` — the seed per-bit `BitWriter`. Random
//!   mixed sequences of `write_bit` / `write_bits` / `write_ue` /
//!   `write_se` / `byte_align` through the word-batched writer must
//!   emit byte-for-byte the same stream, and so must the mask-based
//!   `bits::code_block` against the per-position syntax driving it
//!   (long zero runs, a level at the last scan position, codes too
//!   long to share a 32-bit write).
//!
//! A third specification needs no restatement: the residual
//! coder must equal the composition of the public stage functions
//! (`transform::forward → quant::quantize → bits::code_block →
//! quant::dequantize → transform::inverse`) run on every block, on
//! every tier, whatever blocks it proves all-zero and skips — and it
//! must elide exactly the blocks whose norms, summed here, the bound
//! decides. Its sparse inverse must equal the dense one bit for bit.
//!
//! The block-granular kernels get the same treatment: the strided
//! `simd::block_sad` against `spec::sad` on every width it
//! has a body for and the widths that fall through, at every stride
//! shape its callers use (plane stride, packed, 0); `sad` and `satd`
//! with motion vectors off every edge and corner of the reference; and the
//! encoder's intra predictions and mode decision against a textbook
//! restatement of the four modes kept in this file.
//!
//! Tiers are pinned with `cost::simd::with_tier`, so on an AVX2 host a
//! single run exercises all three code paths; on an older host the
//! unavailable tiers are skipped (the scalar tier always runs).

use medvt_frame::{Plane, Rect};
use medvt_motion::cost::{self, simd};
use medvt_motion::MotionVector;
use proptest::prelude::*;

/// The cost metrics restated from their definitions, every reference
/// sample read through `Plane::get_clamped`.
mod spec {
    use medvt_frame::{Plane, Rect};
    use medvt_motion::MotionVector;

    /// `cur − reference` at `(col, row)`, the reference displaced by
    /// `mv` and clamped at its edges.
    fn residual(cur: &Plane, reference: &Plane, col: usize, row: usize, mv: MotionVector) -> i64 {
        let r = reference.get_clamped(col as isize + mv.x as isize, row as isize + mv.y as isize);
        i64::from(cur.get(col, row)) - i64::from(r)
    }

    fn residuals<'a>(
        cur: &'a Plane,
        reference: &'a Plane,
        block: &'a Rect,
        mv: MotionVector,
    ) -> impl Iterator<Item = i64> + 'a {
        (block.y..block.bottom()).flat_map(move |row| {
            (block.x..block.right()).map(move |col| residual(cur, reference, col, row, mv))
        })
    }

    pub fn sad(cur: &Plane, reference: &Plane, block: &Rect, mv: MotionVector) -> u64 {
        residuals(cur, reference, block, mv)
            .map(i64::unsigned_abs)
            .sum()
    }

    /// `Σ |H · X · Hᵀ|` over a 4x4 residual `X`, `H` the order-4
    /// Hadamard matrix.
    fn hadamard_cost(x: &[[i64; 4]; 4]) -> u64 {
        const H: [[i64; 4]; 4] = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]];
        let coeff = |k: usize, l: usize| -> i64 {
            (0..4)
                .flat_map(|i| (0..4).map(move |j| H[k][i] * x[i][j] * H[l][j]))
                .sum()
        };
        (0..16).map(|kl| coeff(kl / 4, kl % 4).unsigned_abs()).sum()
    }

    /// Half the Hadamard cost of every whole 4x4 sub-block; the ragged
    /// right and bottom strips cost their SAD.
    pub fn satd(cur: &Plane, reference: &Plane, block: &Rect, mv: MotionVector) -> u64 {
        let (full_w, full_h) = (block.w - block.w % 4, block.h - block.h % 4);
        let mut acc = 0;
        for by in (0..full_h).step_by(4) {
            for bx in (0..full_w).step_by(4) {
                let x = std::array::from_fn(|sy| {
                    std::array::from_fn(|sx| {
                        residual(cur, reference, block.x + bx + sx, block.y + by + sy, mv)
                    })
                });
                acc += hadamard_cost(&x) / 2;
            }
        }
        if full_w < block.w {
            let right = Rect::new(block.x + full_w, block.y, block.w - full_w, block.h);
            acc += sad(cur, reference, &right, mv);
        }
        if full_h < block.h {
            let bottom = Rect::new(block.x, block.y + full_h, full_w, block.h - full_h);
            acc += sad(cur, reference, &bottom, mv);
        }
        acc
    }
}

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

    /// All tiers agree bit-exactly with [`spec`] on the exact
    /// metrics, including ragged widths and clamped out-of-bounds MVs.
    #[test]
    fn every_tier_matches_reference_costs((pw, ph, block, mv, salt) in geometry()) {
        let cur = plane(pw, ph, salt);
        let reference = plane(pw, ph, salt.wrapping_add(7));
        let want = (
            spec::sad(&cur, &reference, &block, mv),
            spec::satd(&cur, &reference, &block, mv),
        );
        for t in tiers() {
            let got = simd::with_tier(t, || {
                (
                    cost::sad(&cur, &reference, &block, mv),
                    cost::satd(&cur, &reference, &block, mv),
                )
            });
            prop_assert_eq!(got, want, "tier {} diverged from reference", t.name());
        }
    }

    /// `sad_upto` keeps exact early-exit semantics on every tier: the
    /// returned cost decides `< bound` exactly like the true cost, is
    /// exact whenever it is below the bound, and never overshoots.
    #[test]
    fn every_tier_preserves_upto_semantics(
        (pw, ph, block, mv, salt) in geometry(),
        bound_pct in 0u64..250,
    ) {
        let cur = plane(pw, ph, salt);
        let reference = plane(pw, ph, salt.wrapping_add(13));
        let exact = spec::sad(&cur, &reference, &block, mv);
        let bound = bound_pct * exact.max(1) / 100;
        for t in tiers() {
            let c = simd::with_tier(t, || cost::sad_upto(&cur, &reference, &block, mv, bound));
            prop_assert_eq!(
                c < bound,
                exact < bound,
                "tier {} flipped the bound decision",
                t.name()
            );
            if c < bound {
                prop_assert_eq!(c, exact);
            }
            prop_assert!(c <= exact, "tier {} overshot the exact cost", t.name());
        }
    }
}

/// Small deterministic generator for the hand-rolled sweeps below
/// (every assert prints the seed that built the failing case).
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn below(&mut self, m: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % m
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.below(256) as u8).collect()
    }
}

/// The `*_upto` contract against the exact cost, for the five bounds
/// that straddle it.
fn bounds_around(exact: u64) -> [u64; 5] {
    [0, 1, exact, exact + 1, u64::MAX]
}

fn assert_upto_contract(got: u64, exact: u64, bound: u64, case: &str) {
    if exact < bound {
        assert_eq!(got, exact, "{case}: below the bound the cost is exact");
    } else {
        assert!(
            bound <= got && got <= exact,
            "{case}: got {got}, want {bound}..={exact}"
        );
    }
}

/// `block_sad` is a safe public function taking a caller-named tier:
/// at a width with no block body it must return the reference SAD for
/// *every* member of `DispatchTier::ALL`, including one the host cannot
/// execute (not filtered by `available()`, unlike [`tiers`]).
#[test]
fn block_sad_at_a_ragged_width_is_safe_under_any_named_tier() {
    let (w, h) = (13usize, 7usize);
    let cur = plane(w, h, 5);
    let reference = plane(w, h, 6);
    let exact = spec::sad(&cur, &reference, &Rect::frame(w, h), MotionVector::ZERO);
    for t in simd::DispatchTier::ALL {
        let got = simd::block_sad(t, cur.samples(), w, reference.samples(), w, w, h, u64::MAX);
        assert_eq!(got, exact, "tier {}", t.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `block_sad` on every tier: the widths with a block body and the
    /// ones that fall through to the row loop, ragged heights either
    /// side of the four-row bound test, and every stride shape a
    /// caller uses — plane stride, packed, and 0 on either operand.
    #[test]
    fn block_sad_matches_reference_on_every_tier(seed in 0u64..u64::MAX) {
        let mut rng = Lcg::new(seed);
        for w in [4usize, 8, 12, 16, 24, 32] {
            for h in [1usize, 3, 4, 5, 8, 15, 16, 17, 32, 33] {
                let pad = 1 + rng.below(13) as usize;
                for (cur_stride, ref_stride) in [(w, w), (w + pad, w + 2 * pad), (w + pad, 0), (0, w)] {
                    let cur = rng.bytes((h - 1) * cur_stride + w);
                    let reference = rng.bytes((h - 1) * ref_stride + w);
                    // The same two blocks as planes, for the spec.
                    let as_plane = |data: &[u8], stride: usize| {
                        let rows = (0..h).flat_map(|r| data[r * stride..r * stride + w].iter().copied());
                        Plane::from_vec(w, h, rows.collect()).expect("w x h samples")
                    };
                    let exact = spec::sad(
                        &as_plane(&cur, cur_stride),
                        &as_plane(&reference, ref_stride),
                        &Rect::frame(w, h),
                        MotionVector::ZERO,
                    );
                    // Also the bounds either side of what the first
                    // four-row test sees: reaching it may stop there,
                    // one short of it must not.
                    let head = Rect::frame(w, h.min(4));
                    let first_check = spec::sad(
                        &as_plane(&cur, cur_stride),
                        &as_plane(&reference, ref_stride),
                        &head,
                        MotionVector::ZERO,
                    );
                    let bounds = bounds_around(exact)
                        .into_iter()
                        .chain([first_check, first_check + 1]);
                    for t in tiers() {
                        for bound in bounds.clone() {
                            let got = simd::block_sad(t, &cur, cur_stride, &reference, ref_stride, w, h, bound);
                            let case = format!(
                                "seed {seed} tier {} {w}x{h} strides {cur_stride}/{ref_stride} bound {bound}",
                                t.name()
                            );
                            assert_upto_contract(got, exact, bound, &case);
                        }
                    }
                }
            }
        }
    }

    /// `sad` / `sad_upto` and `satd` with the displaced block hanging
    /// off every edge and corner of the reference (partly and
    /// entirely), for block sizes with a SIMD body, without one, and
    /// beyond the clamped-patch buffer up to the 64x64 that
    /// `EncoderConfig::validate` admits.
    #[test]
    fn sad_off_every_edge_and_corner_matches_reference(seed in 0u64..u64::MAX) {
        let mut rng = Lcg::new(seed);
        let (pw, ph) = (65 + rng.below(24) as usize, 65 + rng.below(20) as usize);
        let cur = plane(pw, ph, seed);
        let reference = plane(pw, ph, seed.wrapping_add(1));
        for (bw, bh) in [(16usize, 16usize), (8, 8), (8, 16), (32, 32), (12, 7), (40, 36), (64, 64)] {
            // Blocks in each corner of the current plane and inside it.
            for (bx, by) in [(0, 0), (pw - bw, 0), (0, ph - bh), (pw - bw, ph - bh), ((pw - bw) / 2, (ph - bh) / 2)] {
                let block = Rect::new(bx, by, bw, bh);
                // Per axis: off the low edge, in frame, off the high
                // edge — by a few samples or by more than the block.
                let near = 1 + rng.below(7) as i16;
                let far = (bw.max(bh) + 3) as i16;
                for reach in [near, far] {
                    for sy in [-1i16, 0, 1] {
                        for sx in [-1i16, 0, 1] {
                            let mv = MotionVector::new(
                                sx * (reach + if sx < 0 { bx } else { pw - bw - bx } as i16),
                                sy * (reach + if sy < 0 { by } else { ph - bh - by } as i16),
                            );
                            let exact = spec::sad(&cur, &reference, &block, mv);
                            let exact_satd = spec::satd(&cur, &reference, &block, mv);
                            for t in tiers() {
                                let case = format!(
                                    "seed {seed} tier {} plane {pw}x{ph} block {block} mv {mv:?}",
                                    t.name()
                                );
                                simd::with_tier(t, || {
                                    assert_eq!(cost::sad(&cur, &reference, &block, mv), exact, "{case}");
                                    for bound in bounds_around(exact) {
                                        let got = cost::sad_upto(&cur, &reference, &block, mv, bound);
                                        assert_upto_contract(got, exact, bound, &format!("{case} bound {bound}"));
                                    }
                                    assert_eq!(cost::satd(&cur, &reference, &block, mv), exact_satd, "{case} satd");
                                });
                            }
                        }
                    }
                }
            }
        }
    }
}

mod intra {
    use super::{simd, tiers, Lcg};
    use medvt_encoder::{IntraMode, IntraRefs};
    use medvt_frame::{Plane, Rect};
    use proptest::prelude::*;

    /// The four intra modes restated from their definition: missing
    /// edges read as the DC level, planar divides by `2·w·h`.
    fn spec_predict(recon: &Plane, block: &Rect, tile: &Rect, mode: IntraMode) -> Vec<u8> {
        let (w, h) = (block.w, block.h);
        let top: Option<Vec<u32>> = (block.y > tile.y).then(|| {
            (0..w)
                .map(|x| recon.get(block.x + x, block.y - 1) as u32)
                .collect()
        });
        let left: Option<Vec<u32>> = (block.x > tile.x).then(|| {
            (0..h)
                .map(|y| recon.get(block.x - 1, block.y + y) as u32)
                .collect()
        });
        let edges: Vec<u32> = top.iter().chain(&left).flatten().copied().collect();
        let count = edges.len() as u32;
        let dc = (edges.iter().sum::<u32>() + count / 2)
            .checked_div(count)
            .unwrap_or(128);
        let top = top.unwrap_or_else(|| vec![dc; w]);
        let left = left.unwrap_or_else(|| vec![dc; h]);
        let (wu, hu) = (w as u32, h as u32);
        let mut out = Vec::with_capacity(w * h);
        for y in 0..h {
            for x in 0..w {
                let (xu, yu) = (x as u32, y as u32);
                out.push(match mode {
                    IntraMode::Dc => dc,
                    IntraMode::Horizontal => left[y],
                    IntraMode::Vertical => top[x],
                    IntraMode::Planar => {
                        let hor = (wu - 1 - xu) * left[y] + (xu + 1) * top[w - 1];
                        let ver = (hu - 1 - yu) * top[x] + (yu + 1) * left[h - 1];
                        (hor * hu + ver * wu + wu * hu) / (2 * wu * hu)
                    }
                } as u8);
            }
        }
        out
    }

    fn plain_sad(a: &[u8], b: &[u8]) -> u64 {
        a.iter().zip(b).map(|(&a, &b)| a.abs_diff(b) as u64).sum()
    }

    /// Side of the square recon planes: room for a 64-sided block at
    /// any of the sampled origins.
    const SIDE: usize = 112;

    /// `block` inside a `SIDE x SIDE` plane, with the tile border placed
    /// so that exactly the requested reference edges are available.
    fn tile_for(block: &Rect, has_top: bool, has_left: bool) -> Rect {
        let x = if has_left { 0 } else { block.x };
        let y = if has_top { 0 } else { block.y };
        Rect::new(x, y, SIDE - x, SIDE - y)
    }

    /// A plane whose rows are `top` and whose column `block.x - 1` is
    /// `left`: the edges of `block` are those two levels. All-0 and
    /// all-255 edges are the extreme sums of planar's recurrence (its
    /// per-row step `w·(bl − t[x])` at ±255·w).
    fn flat_edges(block: &Rect, top: u8, left: u8) -> Plane {
        let mut plane = Plane::filled(SIDE, SIDE, top);
        plane.fill_rect(&Rect::new(block.x - 1, 0, 1, SIDE), left);
        plane
    }

    /// Block shapes of both tests beyond their own lists: the 64-sided
    /// extremes of the geometry bound and a non-power-of-two width.
    const LARGE_SHAPES: [(usize, usize); 4] = [(64, 64), (64, 8), (8, 64), (48, 16)];

    /// Edge levels of [`flat_edges`] that reach the recurrence's
    /// extremes.
    const EXTREME_EDGES: [(u8, u8); 4] = [(0, 0), (255, 255), (255, 0), (0, 255)];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// `predict_into` against the restated modes over random
        /// edges: block sizes whose planar divisor `2·w·h` is a power
        /// of two (the shift) and ones where it is not (the divide),
        /// with every combination of available edges.
        #[test]
        fn predictions_match_their_definition(seed in 0u64..u64::MAX) {
            let mut rng = Lcg::new(seed);
            let noisy = Plane::from_vec(SIDE, SIDE, rng.bytes(SIDE * SIDE)).expect("square plane");
            let mut refs = IntraRefs::default();
            let mut got = vec![9u8; 5]; // dirty buffer must be replaced
            let shapes = [(8usize, 8usize), (16, 16), (32, 32), (16, 8), (8, 32), (4, 4), (24, 24), (12, 8), (8, 24), (20, 12), (1, 3)];
            for (w, h) in shapes.into_iter().chain(LARGE_SHAPES) {
                for (has_top, has_left) in [(false, false), (true, false), (false, true), (true, true)] {
                    let block = Rect::new(1 + rng.below(40) as usize, 1 + rng.below(40) as usize, w, h);
                    let tile = tile_for(&block, has_top, has_left);
                    let extremes = EXTREME_EDGES.map(|(top, left)| flat_edges(&block, top, left));
                    for recon in std::iter::once(&noisy).chain(&extremes) {
                        refs.regather(recon, &block, &tile);
                        for mode in IntraMode::ALL {
                            refs.predict_into(mode, w, h, &mut got);
                            prop_assert_eq!(
                                &got,
                                &spec_predict(recon, &block, &tile, mode),
                                "seed {} {:?} {}x{} top {} left {} edges {:?}",
                                seed, mode, w, h, has_top, has_left, (recon.get(block.x, block.y - 1), recon.get(block.x - 1, block.y))
                            );
                        }
                    }
                }
            }
        }

        /// `best_mode_into` is the first strict minimum over
        /// `IntraMode::ALL` of prediction + plain SAD: the mode, the
        /// SAD and the bytes left in `best`, on every tier. Originals
        /// are a noisy copy of one mode's prediction over random
        /// edges (so every mode gets to win), a checkerboard of the
        /// two edge levels over flat edges (DC, horizontal and
        /// vertical then tie exactly, and the earliest must win), and
        /// a noisy copy of planar over each pair of extreme edges.
        #[test]
        fn best_mode_is_the_first_strict_minimum(seed in 0u64..u64::MAX) {
            let mut rng = Lcg::new(seed);
            let noisy = Plane::from_vec(SIDE, SIDE, rng.bytes(SIDE * SIDE)).expect("square plane");
            let mut refs = IntraRefs::default();
            let (mut best, mut tmp) = (vec![1u8; 3], vec![2u8; 700]);
            let (mut wins, mut ties) = ([0u32; 4], 0u32);
            let sides = [8usize, 16, 24, 32];
            let grid = sides.into_iter().flat_map(|w| sides.map(|h| (w, h)));
            for (w, h) in grid.chain(LARGE_SHAPES) {
                for (has_top, has_left) in [(false, false), (true, false), (false, true), (true, true)] {
                    let block = Rect::new(1 + rng.below(40) as usize, 1 + rng.below(40) as usize, w, h);
                    let tile = tile_for(&block, has_top, has_left);
                    // Flat edges: the row above at one level, the
                    // column to the left at another.
                    let (a, b) = (rng.below(256) as u8, rng.below(256) as u8);
                    let flat = flat_edges(&block, a, b);
                    let extremes = EXTREME_EDGES.map(|(top, left)| flat_edges(&block, top, left));
                    for target in 0..5 + extremes.len() {
                        let recon = match target {
                            0..4 => &noisy,
                            4 => &flat,
                            _ => &extremes[target - 5],
                        };
                        refs.regather(recon, &block, &tile);
                        let predictions = IntraMode::ALL.map(|m| spec_predict(recon, &block, &tile, m));
                        let original: Vec<u8> = if target == 4 {
                            (0..w * h).map(|i| if (i / w + i % w) % 2 == 0 { a } else { b }).collect()
                        } else {
                            let amplitude = rng.below(4) as i16;
                            // The extreme edges copy planar, whose sums they stress.
                            let copied = if target < 4 { target } else { IntraMode::Planar.index() as usize };
                            predictions[copied]
                                .iter()
                                .map(|&p| {
                                    let noise = rng.below(2 * amplitude as u64 + 1) as i16 - amplitude;
                                    (p as i16 + noise).clamp(0, 255) as u8
                                })
                                .collect()
                        };
                        let sads: Vec<u64> = predictions.iter().map(|p| plain_sad(&original, p)).collect();
                        let mut want = (IntraMode::Dc, sads[0]);
                        for (mode, &sad) in IntraMode::ALL.into_iter().zip(&sads) {
                            if sad < want.1 {
                                want = (mode, sad);
                            }
                        }
                        wins[want.0.index() as usize] += 1;
                        ties += u32::from(sads.iter().filter(|&&sad| sad == want.1).count() > 1);
                        for t in tiers() {
                            let got = simd::with_tier(t, || {
                                refs.best_mode_into(&original, w, h, &mut best, &mut tmp)
                            });
                            let case = format!(
                                "seed {seed} tier {} {w}x{h} top {has_top} left {has_left} target {target}",
                                t.name()
                            );
                            prop_assert_eq!(got, want, "{}", case);
                            prop_assert_eq!(&best, &predictions[want.0.index() as usize], "bytes in best: {}", case);
                        }
                    }
                }
            }
            prop_assert!(wins.iter().all(|&n| n > 0), "seed {seed}: every mode must win somewhere, got {wins:?}");
            prop_assert!(ties >= 16, "seed {seed}: the flat-edge cases must tie, got {ties}");
        }
    }
}

mod bitstream {
    use medvt_encoder::bits::{self, BitWriter};
    use proptest::prelude::*;

    /// The seed writer: pushes one bit at a time into the byte buffer.
    #[derive(Default)]
    struct PerBitWriter {
        buf: Vec<u8>,
        /// Bits used in the trailing partial byte (0..8).
        partial: u8,
        bits: u64,
    }

    impl PerBitWriter {
        fn write_bit(&mut self, bit: bool) {
            if self.partial == 0 {
                self.buf.push(0);
            }
            if bit {
                let last = self.buf.last_mut().expect("buffer non-empty");
                *last |= 1 << (7 - self.partial);
            }
            self.partial = (self.partial + 1) % 8;
            self.bits += 1;
        }

        fn write_bits(&mut self, value: u32, n: u8) {
            for i in (0..n).rev() {
                self.write_bit((value >> i) & 1 == 1);
            }
        }

        /// Prefix zeros one `write_bit` call at a time — the loop the
        /// batched writer folds into a single run.
        fn write_ue(&mut self, value: u32) {
            let v = value as u64 + 1;
            let len = 64 - v.leading_zeros() as u8; // bit length of v
            for _ in 0..len - 1 {
                self.write_bit(false);
            }
            for i in (0..len).rev() {
                self.write_bit((v >> i) & 1 == 1);
            }
        }

        /// HEVC `se(v)` mapping.
        fn write_se(&mut self, value: i32) {
            let mapped = if value <= 0 {
                (-2i64 * value as i64) as u32
            } else {
                (2i64 * value as i64 - 1) as u32
            };
            self.write_ue(mapped);
        }

        fn byte_align(&mut self) {
            while self.partial != 0 {
                self.write_bit(false);
            }
        }

        fn into_bytes(mut self) -> Vec<u8> {
            self.byte_align();
            self.buf
        }
    }

    /// `bits::code_block`'s syntax driving the per-bit writer (same
    /// scan tables).
    fn code_block(levels: &[i32], n: usize, w: &mut PerBitWriter) -> u64 {
        let before = w.bits;
        let scan = bits::zigzag(n);
        match scan.iter().rposition(|&pos| levels[pos] != 0) {
            None => w.write_bit(false),
            Some(last) => {
                w.write_bit(true);
                w.write_ue(last as u32);
                for &pos in &scan[..=last] {
                    let level = levels[pos];
                    w.write_bit(level != 0);
                    if level != 0 {
                        w.write_se(level);
                    }
                }
            }
        }
        w.bits - before
    }

    /// One decoded write operation, derived from two raw u64 draws.
    fn apply(op: u64, payload: u64, new: &mut BitWriter, old: &mut PerBitWriter) {
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
            let mut old = PerBitWriter::default();
            for (op, payload) in ops {
                apply(op, payload, &mut new, &mut old);
                prop_assert_eq!(new.bits_written(), old.bits);
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
            let mut old = PerBitWriter::default();
            let bits_new = bits::code_block(&levels, n, &mut new);
            let bits_old = code_block(&levels, n, &mut old);
            prop_assert_eq!(bits_new, bits_old);
            new.byte_align();
            old.byte_align();
            prop_assert_eq!(new.into_bytes(), old.into_bytes());
        }
    }

    /// The mask coder's corner cases against the per-bit restatement,
    /// at every transform size: empty, sparse and dense blocks; two
    /// levels around zero runs of 31 to 65 (a run of 32 or more is
    /// split off in whole words); a lone level at the first and at the
    /// last scan position; levels whose `se` code with its run does not
    /// fit one 32-bit write.
    #[test]
    fn code_block_corner_cases_match_reference() {
        let mut rng = super::Lcg::new(34);
        for n in medvt_encoder::transform::TRANSFORM_SIZES {
            let scan = bits::zigzag(n);
            let at = |levels: &[(usize, i32)]| {
                let mut block = vec![0; n * n];
                for &(index, level) in levels {
                    block[scan[index]] = level;
                }
                block
            };
            let last = n * n - 1;
            let mut blocks = vec![
                ("empty", vec![0; n * n]),
                ("lone first", at(&[(0, 1)])),
                ("lone last", at(&[(last, 1)])),
                ("lone last, negative", at(&[(last, -2)])),
                (
                    "huge after a run",
                    at(&[(3, -70_000), (last.min(40), 100_000)]),
                ),
                ("huge at the end", at(&[(last, i32::from(i16::MAX))])),
            ];
            for run in [31, 32, 33, 63, 64, 65]
                .into_iter()
                .filter(|&run| run + 1 < n * n)
            {
                blocks.push(("two levels around a run", at(&[(0, 3), (run + 1, -1)])));
                blocks.push(("run from the start", at(&[(run, 5)])));
            }
            let sparse = (0..n * n)
                .map(|_| {
                    if rng.below(16) == 0 {
                        rng.below(9) as i32 - 4
                    } else {
                        0
                    }
                })
                .collect();
            let dense = (0..n * n).map(|_| rng.below(601) as i32 - 300).collect();
            blocks.extend([("sparse", sparse), ("dense", dense)]);
            for (case, levels) in blocks {
                let mut new = BitWriter::new();
                let mut old = PerBitWriter::default();
                // Unaligned start: the block's words straddle flushes.
                new.write_bits(0b101, 3);
                old.write_bits(0b101, 3);
                let bits_new = bits::code_block(&levels, n, &mut new);
                let bits_old = code_block(&levels, n, &mut old);
                assert_eq!(bits_new, bits_old, "n {n} {case}");
                assert_eq!(new.into_bytes(), old.into_bytes(), "n {n} {case}");
            }
        }
    }

    #[test]
    fn ue_long_codes_match_reference_writer() {
        // u32::MAX is the worst case: a 32-zero prefix plus a 33-bit
        // info field, which the batched writer must split across runs.
        for v in [0, 1, 255, 65_535, 1 << 20, u32::MAX - 1, u32::MAX] {
            let mut w = BitWriter::new();
            w.write_ue(v);
            let mut r = PerBitWriter::default();
            r.write_ue(v);
            assert_eq!(w.bits_written(), r.bits, "v={v}");
            assert_eq!(w.into_bytes(), r.into_bytes(), "v={v}");
        }
    }

    /// A fixed mixed sequence, including the zero-length `write_bits`
    /// the random one never draws.
    #[test]
    fn batched_writer_matches_reference_on_mixed_sequence() {
        let mut w = BitWriter::new();
        let mut r = PerBitWriter::default();
        for i in 0..500u32 {
            match i % 5 {
                0 => {
                    w.write_bit(i % 2 == 0);
                    r.write_bit(i % 2 == 0);
                }
                1 => {
                    w.write_bits(i.wrapping_mul(2_654_435_761), (i % 33) as u8);
                    r.write_bits(i.wrapping_mul(2_654_435_761), (i % 33) as u8);
                }
                2 => {
                    w.write_ue(i * 37);
                    r.write_ue(i * 37);
                }
                3 => {
                    w.write_se(1000 - i as i32 * 7);
                    r.write_se(1000 - i as i32 * 7);
                }
                _ => {
                    w.byte_align();
                    r.byte_align();
                }
            }
            assert_eq!(w.bits_written(), r.bits, "step {i}");
        }
        assert_eq!(w.into_bytes(), r.into_bytes());
    }
}

mod residual {
    use super::{simd, tiers};
    use medvt_encoder::bits::{code_block, BitWriter};
    use medvt_encoder::quant::{dequantize, quantize, ZeroBlockBound};
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
        /// Blocks the elision bound decides, from norms summed here.
        elided_blocks: u32,
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
        let (mut bits, mut zero_level_blocks, mut elided_blocks) = (0, 0, 0);
        let bound = ZeroBlockBound::of(qp, n);
        for ty in (0..h).step_by(n) {
            for tx in (0..w).step_by(n) {
                let at = |i: usize| (ty + i / n) * w + tx + i % n;
                let residual: Vec<i32> = (0..n * n)
                    .map(|i| original[at(i)] as i32 - prediction[at(i)] as i32)
                    .collect();
                let sad = residual.iter().map(|d| d.unsigned_abs()).sum();
                let ssd = residual.iter().map(|d| (d * d) as u32).sum();
                elided_blocks += u32::from(bound.proves_zero(sad, ssd));
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
            elided_blocks,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random 3x2-block regions whose blocks cycle through the
        /// regimes the coder treats differently — perfect prediction,
        /// ±1 noise, a flat offset near the dead-zone edge, heavy
        /// noise, one spike, anything — at every QP and transform size,
        /// on every tier. The elided blocks are those whose norms, summed
        /// here, the bound decides: the SIMD norms must equal them.
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
            prop_assert!(want.elided_blocks >= 1, "perfect prediction must elide");
            for t in tiers() {
                let mut writer = BitWriter::new();
                let mut recon = vec![7u8; 3]; // dirty buffer must be replaced
                let got = simd::with_tier(t, || code_residual_into(
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
                ));
                let case = format!("seed {seed} qp {qp_val} n {n} tier {}", t.name());
                prop_assert_eq!(&writer.into_bytes(), &want.bytes, "bytes: {}", case);
                prop_assert_eq!(&recon, &want.recon, "recon: {}", case);
                prop_assert_eq!(got.bits, want.bits, "bits: {}", case);
                prop_assert_eq!(got.ssd, want.ssd, "ssd: {}", case);
                prop_assert_eq!(got.transform_samples, (w * h) as u64, "samples: {}", case);
                prop_assert_eq!(got.zero_level_blocks, want.zero_level_blocks, "zero blocks: {}", case);
                prop_assert_eq!(got.elided_blocks, want.elided_blocks, "elided blocks: {}", case);
            }
        }
    }
}

/// The residual coder's surviving-block stages, each against a
/// restatement of its definition kept in this file: the two transform
/// directions (by `f64::to_bits`, on every tier), the quantizer's
/// `trunc` form against the `floor` form it replaced, the
/// reconstruction's rounding at exact ties (on every tier), and the
/// integer elision thresholds against the `f64` predicate they tabulate.
mod surviving_block {
    use super::{simd, tiers, Lcg};
    use medvt_encoder::quant::{norms_bound_below, quantize_into, zero_threshold, ZeroBlockBound};
    use medvt_encoder::transform::{
        forward_into, inverse_into, inverse_sparse_into, TRANSFORM_SIZES,
    };
    use medvt_encoder::{reconstruct_block, Qp};
    use proptest::prelude::*;

    /// The orthonormal DCT-II matrix `C`, row-major.
    fn dct_matrix(n: usize) -> Vec<f64> {
        let mut c = vec![0.0; n * n];
        for k in 0..n {
            let scale = if k == 0 {
                1.0 / n as f64
            } else {
                2.0 / n as f64
            }
            .sqrt();
            for i in 0..n {
                c[k * n + i] =
                    scale * ((std::f64::consts::PI / n as f64) * (i as f64 + 0.5) * k as f64).cos();
            }
        }
        c
    }

    /// The transform's definition: `T = A · X`, then `T · B`, every
    /// element a sum that starts at `+0.0` and adds its `n` products in
    /// ascending inner index, each product rounded on its own.
    fn definition(
        n: usize,
        a: impl Fn(usize, usize) -> f64,
        x: &[f64],
        b: impl Fn(usize, usize) -> f64,
    ) -> Vec<f64> {
        let mut t = vec![0.0; n * n];
        for k in 0..n {
            for j in 0..n {
                let mut sum = 0.0;
                for i in 0..n {
                    sum += a(k, i) * x[i * n + j];
                }
                t[k * n + j] = sum;
            }
        }
        let mut out = vec![0.0; n * n];
        for k in 0..n {
            for l in 0..n {
                let mut sum = 0.0;
                for j in 0..n {
                    sum += t[k * n + j] * b(j, l);
                }
                out[k * n + l] = sum;
            }
        }
        out
    }

    /// `out[k][l] = Σ_j (Σ_i C[k][i]·x[i][j]) · C[l][j]`.
    fn forward_definition(n: usize, x: &[i32]) -> Vec<f64> {
        let c = dct_matrix(n);
        let x: Vec<f64> = x.iter().map(|&v| f64::from(v)).collect();
        definition(n, |k, i| c[k * n + i], &x, |j, l| c[l * n + j])
    }

    /// `out[i][j] = Σ_l (Σ_k C[k][i]·y[k][l]) · C[l][j]`.
    fn inverse_definition(n: usize, y: &[f64]) -> Vec<f64> {
        let c = dct_matrix(n);
        definition(n, |i, k| c[k * n + i], y, |l, j| c[l * n + j])
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Residual blocks at the extremes of the sample range and of the
    /// spectrum, and random ones.
    fn residuals(n: usize, rng: &mut Lcg) -> Vec<(&'static str, Vec<i32>)> {
        let spike_at = rng.below((n * n) as u64) as usize;
        let spike = |a: i32| {
            (0..n * n)
                .map(|i| if i == spike_at { a } else { 0 })
                .collect()
        };
        let checker = |a: i32| {
            (0..n * n)
                .map(|i| {
                    if (i / n + i % n).is_multiple_of(2) {
                        a
                    } else {
                        -a
                    }
                })
                .collect()
        };
        vec![
            ("zero", vec![0; n * n]),
            ("all +255", vec![255; n * n]),
            ("all -255", vec![-255; n * n]),
            ("spike +255", spike(255)),
            ("spike -255", spike(-255)),
            ("spike 1", spike(1)),
            ("checker 255", checker(255)),
            ("checker 1", checker(1)),
            (
                "random",
                (0..n * n).map(|_| rng.below(511) as i32 - 255).collect(),
            ),
            (
                "random small",
                (0..n * n).map(|_| rng.below(7) as i32 - 3).collect(),
            ),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// (a) Both transform directions equal their definition bit for
        /// bit, at every size, on every tier — the forward on the
        /// residual families above, the inverse on their coefficients,
        /// on dequantized-looking sparse blocks and on blocks holding
        /// `-0.0` (where a sum that started from its first term instead
        /// of `+0.0` would keep the sign).
        #[test]
        fn transforms_equal_their_definition_bit_for_bit(seed in 0u64..u64::MAX) {
            let mut rng = Lcg::new(seed);
            let (mut got, mut tmp) = (vec![1.0; 3], vec![2.0; 99]);
            for n in TRANSFORM_SIZES {
                let mut coefficient_blocks: Vec<(&'static str, Vec<f64>)> = vec![
                    ("all -0.0", vec![-0.0; n * n]),
                    ("all +0.0", vec![0.0; n * n]),
                    (
                        "sparse with -0.0",
                        (0..n * n)
                            .map(|_| match rng.below(4) {
                                0 => -0.0,
                                1 => 0.0,
                                2 => (rng.below(41) as f64 - 20.0) * 25.4,
                                _ => (rng.below(2001) as f64 - 1000.0) * 0.63,
                            })
                            .collect(),
                    ),
                ];
                for (family, x) in residuals(n, &mut rng) {
                    let want = forward_definition(n, &x);
                    for t in tiers() {
                        simd::with_tier(t, || forward_into(n, &x, &mut got, &mut tmp));
                        prop_assert_eq!(
                            bits(&got), bits(&want),
                            "seed {} forward n {} {} tier {}", seed, n, family, t.name()
                        );
                    }
                    coefficient_blocks.push((family, want));
                }
                for (family, y) in coefficient_blocks {
                    let want = inverse_definition(n, &y);
                    for t in tiers() {
                        simd::with_tier(t, || inverse_into(n, &y, &mut got, &mut tmp));
                        prop_assert_eq!(
                            bits(&got), bits(&want),
                            "seed {} inverse n {} {} tier {}", seed, n, family, t.name()
                        );
                    }
                }
            }
        }

        /// (e) The residual coder's sparse inverse equals the dense
        /// `inverse_into` bit for bit, at every size, on every tier:
        /// the dense input holds `±0.0` outside random row and column
        /// masks, the sparse one garbage there, which it must skip; the
        /// masks include empty, full and single lines.
        #[test]
        fn sparse_inverse_equals_the_dense_one_bit_for_bit(seed in 0u64..u64::MAX) {
            let mut rng = Lcg::new(seed);
            let (mut dense, mut sparse, mut tmp) = (vec![], vec![], vec![]);
            for n in TRANSFORM_SIZES {
                let full = u32::MAX >> (32 - n);
                let mut masks = vec![(full, full), (1, 1), (1 << (n - 1), 1), (0, full), (full, 0)];
                masks.extend((0..12).map(|_| {
                    let mut line = || (0..n).fold(0u32, |m, i| m | u32::from(rng.below(3) == 0) << i);
                    (line(), line())
                }));
                for (rows, cols) in masks {
                    let kept = |i: usize| rows & (1 << (i / n)) != 0 && cols & (1 << (i % n)) != 0;
                    let values: Vec<f64> = (0..n * n)
                        .map(|_| match rng.below(4) {
                            0 => -0.0,
                            1 => 0.0,
                            _ => (rng.below(41) as f64 - 20.0) * 25.4,
                        })
                        .collect();
                    let zeroed: Vec<f64> = (0..n * n)
                        .map(|i| if kept(i) { values[i] } else if rng.below(2) == 0 { 0.0 } else { -0.0 })
                        .collect();
                    let garbage: Vec<f64> = (0..n * n)
                        .map(|i| if kept(i) { values[i] } else { rng.below(2001) as f64 - 1000.0 })
                        .collect();
                    for t in tiers() {
                        simd::with_tier(t, || {
                            inverse_into(n, &zeroed, &mut dense, &mut tmp);
                            inverse_sparse_into(n, &garbage, rows, cols, &mut sparse);
                        });
                        prop_assert_eq!(
                            bits(&sparse), bits(&dense),
                            "seed {} n {} rows {:b} cols {:b} tier {}", seed, n, rows, cols, t.name()
                        );
                    }
                }
            }
        }

        /// (d) The integer elision thresholds decide exactly like the
        /// `f64` predicate they were found from: at each threshold, one
        /// past it (the other norm held where it decides nothing), and
        /// on random pairs around both.
        #[test]
        fn integer_elision_thresholds_agree_with_the_predicate(seed in 0u64..u64::MAX) {
            let mut rng = Lcg::new(seed);
            for qp_val in 0..=51u8 {
                let qp = Qp::new(qp_val).unwrap();
                let zero_below = zero_threshold(qp.step_size());
                for n in TRANSFORM_SIZES {
                    let bound = ZeroBlockBound::of(qp, n);
                    let case = format!("seed {seed} qp {qp_val} n {n} {bound:?}");
                    let edges = [
                        (bound.max_sad, u32::MAX, true),
                        (bound.max_sad + 1, u32::MAX, false),
                        (u32::MAX, bound.max_ssd, true),
                        (u32::MAX, bound.max_ssd + 1, false),
                        (bound.max_sad + 1, bound.max_ssd + 1, false),
                        (0, 0, true),
                    ];
                    for (sad, ssd, want) in edges {
                        prop_assert_eq!(norms_bound_below(sad, ssd, n, zero_below), want, "predicate at ({}, {}): {}", sad, ssd, case);
                        prop_assert_eq!(bound.proves_zero(sad, ssd), want, "thresholds at ({}, {}): {}", sad, ssd, case);
                    }
                    for _ in 0..10_000 / (52 * 4) + 1 {
                        let sad = rng.below(2 * u64::from(bound.max_sad) + 3) as u32;
                        let ssd = rng.below(2 * u64::from(bound.max_ssd) + 3) as u32;
                        prop_assert_eq!(
                            bound.proves_zero(sad, ssd),
                            norms_bound_below(sad, ssd, n, zero_below),
                            "({}, {}): {}", sad, ssd, case
                        );
                    }
                }
            }
        }

        /// (c) Reconstruction rounds half away from zero and clamps,
        /// like `v.round().clamp(0, 255) as u8`, on every tier (the
        /// explicit AVX2 kernel's `trunc` and `±1` adjust included): sums
        /// placed on exact ties (`k + 0.5`, both range ends, `-0.5`),
        /// on the largest double below one half, and on the doubles
        /// either side of each.
        #[test]
        fn reconstruction_rounds_ties_away_from_zero_on_every_tier(seed in 0u64..u64::MAX) {
            let mut rng = Lcg::new(seed);
            let mut targets = vec![0.49999999999999994, 254.5, 255.5, -0.5, 0.5, 1.5, 2.5, 127.5, 128.5, 255.0, 0.0, 256.5, -1.5];
            targets.extend((0..8).map(|_| rng.below(255) as f64 + 0.5));
            let targets: Vec<f64> = targets
                .into_iter()
                .flat_map(|t| [t.next_down(), t, t.next_up()])
                .collect();
            // Every target reached from prediction 0 (the sum is then
            // the target itself) and from three random predictions.
            let cases: Vec<(u8, f64)> = targets
                .iter()
                .flat_map(|&t| {
                    [0, rng.below(256) as u8, rng.below(256) as u8, rng.below(256) as u8]
                        .map(|p| (p, t - f64::from(p)))
                })
                .collect();
            let on_a_tie = cases
                .iter()
                .filter(|&&(p, r)| (f64::from(p) + r).fract().abs() == 0.5)
                .count();
            prop_assert!(on_a_tie >= 4 * 18, "seed {seed}: only {on_a_tie} sums sit on a tie");
            for n in TRANSFORM_SIZES {
                for (block, chunk) in cases.chunks(n * n).enumerate() {
                    let padded = chunk.iter().copied().chain(std::iter::repeat((9, 0.25))).take(n * n);
                    let (prediction, residual): (Vec<u8>, Vec<f64>) = padded.unzip();
                    let original = rng.bytes(n * n);
                    let want: Vec<u8> = prediction
                        .iter()
                        .zip(&residual)
                        .map(|(&p, &r)| (f64::from(p) + r).round().clamp(0.0, 255.0) as u8)
                        .collect();
                    let want_ssd: u64 = original
                        .iter()
                        .zip(&want)
                        .map(|(&o, &r)| (i64::from(o) - i64::from(r)).pow(2) as u64)
                        .sum();
                    for t in tiers() {
                        let mut got = vec![7u8; n * n];
                        let ssd = simd::with_tier(t, || reconstruct_block(n, &original, &prediction, &residual, &mut got));
                        let case = format!("seed {seed} n {n} block {block} tier {}", t.name());
                        prop_assert_eq!(&got, &want, "{}: prediction {:?} residual {:?}", case, prediction, residual);
                        prop_assert_eq!(ssd, want_ssd, "ssd: {}", case);
                    }
                }
            }
        }
    }

    /// The quantizer as it was defined before it lost its libm call.
    fn floor_form(c: f64, step: f64) -> i32 {
        let sign = if c < 0.0 { -1.0 } else { 1.0 };
        (sign * (c.abs() / step + 1.0 / 3.0).floor()) as i32
    }

    /// (b) `trunc` ≡ `floor` in the quantizer: coefficients on every
    /// level boundary `step · (k + 2/3)` and the doubles either side,
    /// at every QP, both signs, and the two zeros.
    #[test]
    fn quantizer_trunc_form_equals_the_floor_form() {
        let mut levels = Vec::new();
        for qp_val in 0..=51u8 {
            let qp = Qp::new(qp_val).unwrap();
            let step = qp.step_size();
            let mut coeffs = vec![0.0, -0.0];
            for k in [0.0, 1.0, 2.0, 100.0, 1e4] {
                let edge: f64 = step * (k + 2.0 / 3.0);
                for c in [
                    edge.next_down(),
                    edge,
                    edge.next_up(),
                    step * k,
                    step * (k + 0.5),
                ] {
                    coeffs.extend([c, -c]);
                }
            }
            quantize_into(&coeffs, qp, &mut levels);
            let want: Vec<i32> = coeffs.iter().map(|&c| floor_form(c, step)).collect();
            assert_eq!(levels, want, "qp {qp_val} coefficients {coeffs:?}");
            // The boundaries are real ones: levels k and k + 1 both occur.
            assert!(want.contains(&1) && want.contains(&10_001), "qp {qp_val}");
        }
    }
}
