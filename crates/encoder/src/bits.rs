//! Bit-level entropy writer: exp-Golomb codes and transform-block
//! coefficient coding.
//!
//! The encoder produces a real bitstream (not an estimate), so bitrate
//! numbers in the experiment tables are measured from actual emitted
//! bytes. The coefficient syntax is a simplified CAVLC-style scheme:
//! zig-zag scan, `ue(last_significant)`, then per-coefficient
//! significance flags with signed exp-Golomb levels.

use crate::transform::{as_square, size_index, with_size, Square, TRANSFORM_SIZES};
use std::sync::OnceLock;

/// An MSB-first bit writer.
///
/// Bits accumulate in a `u64` and flush to the byte buffer in whole
/// bytes, so `write_bits` / `write_ue` / `write_se` append runs of up
/// to 32 bits in O(1) amortized instead of poking the buffer once per
/// bit. Output is byte-for-byte identical to the seed per-bit writer
/// — enforced by differential proptests against its restatement in
/// `tests/kernel_differential.rs` and by the frozen FNV bitstream
/// goldens.
///
/// # Examples
///
/// ```
/// use medvt_encoder::bits::BitWriter;
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_ue(4);
/// assert_eq!(w.bits_written(), 3 + 5);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits, right-aligned: the low `acc_bits` bits of `acc`
    /// are the tail of the stream. Bits above `acc_bits` are stale and
    /// never observed (the flush shifts them away before truncating).
    acc: u64,
    /// Number of pending bits in `acc` (always < 32 between calls, so
    /// a 32-bit append still fits the 64-bit accumulator).
    acc_bits: u8,
    bits: u64,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bits written so far.
    pub fn bits_written(&self) -> u64 {
        self.bits
    }

    /// Resets the writer to empty while keeping the buffer capacity,
    /// so a reused writer appends without reallocating.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.acc = 0;
        self.acc_bits = 0;
        self.bits = 0;
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u32, 1);
    }

    /// Appends the `n` low bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics when `n > 32`.
    pub fn write_bits(&mut self, value: u32, n: u8) {
        assert!(n <= 32, "at most 32 bits at a time");
        // acc_bits < 32 on entry, so acc_bits + n <= 63 and the shift
        // never loses pending bits.
        let v = (value as u64) & ((1u64 << n) - 1);
        self.acc = (self.acc << n) | v;
        self.acc_bits += n;
        self.bits += n as u64;
        // Flush a whole 32-bit word at a time: one branch per call
        // instead of a per-byte loop.
        if self.acc_bits >= 32 {
            self.acc_bits -= 32;
            let word = (self.acc >> self.acc_bits) as u32;
            self.buf.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Appends an unsigned exp-Golomb code.
    ///
    /// The `len - 1` prefix zeros go out as one `write_bits` run (the
    /// seed writer looped `write_bit` per zero); codes longer than 32
    /// bits (`value >= u32::MAX`, 33 info bits) split into two runs.
    pub fn write_ue(&mut self, value: u32) {
        let v = value as u64 + 1;
        let len = 64 - v.leading_zeros() as u8; // bit length of v: 1..=33
        self.write_bits(0, len - 1);
        if len <= 32 {
            self.write_bits(v as u32, len);
        } else {
            self.write_bits((v >> 32) as u32, len - 32);
            self.write_bits(v as u32, 32);
        }
    }

    /// Appends a signed exp-Golomb code (HEVC `se(v)` mapping).
    pub fn write_se(&mut self, value: i32) {
        self.write_ue(se_to_ue(value));
    }

    /// Pads with zero bits to the next byte boundary.
    pub fn byte_align(&mut self) {
        let rem = self.acc_bits % 8;
        if rem != 0 {
            self.write_bits(0, 8 - rem);
        }
    }

    /// Finishes the stream (byte-aligned) and returns the bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.byte_align();
        while self.acc_bits >= 8 {
            self.acc_bits -= 8;
            self.buf.push((self.acc >> self.acc_bits) as u8);
        }
        self.buf
    }
}

/// Number of bits `ue(value)` occupies, without writing.
pub(crate) fn ue_len(value: u32) -> u64 {
    let v = value as u64 + 1;
    let len = 64 - v.leading_zeros() as u64;
    2 * len - 1
}

/// Number of bits `se(value)` occupies, without writing.
pub(crate) fn se_len(value: i32) -> u64 {
    ue_len(se_to_ue(value))
}

/// The HEVC `se(v)` mapping onto `ue(v)` codes: `0, 1, −1, 2, −2, …`
/// to `0, 1, 2, 3, 4, …`.
fn se_to_ue(value: i32) -> u32 {
    if value <= 0 {
        (-2i64 * value as i64) as u32
    } else {
        (2i64 * value as i64 - 1) as u32
    }
}

/// `ue(value)` as one right-aligned code: `value + 1` in `2·len − 1`
/// bits, the top `len − 1` of them zero (`len` is the bit length of
/// `value + 1`). Returns `(code, bits)`.
fn ue_code(value: u32) -> (u64, u32) {
    let v = u64::from(value) + 1;
    (v, 2 * (64 - v.leading_zeros()) - 1)
}

/// One transform size's scan: the zig-zag order and its inverse.
struct Scan {
    /// Raster position of each scan index.
    order: Box<[usize]>,
    /// Scan index of each raster position.
    rank: Box<[u16]>,
}

/// One lock-free lazily-initialized scan per transform size, like the
/// transform's basis tables: wait-free after first use, and concurrent
/// first use observes one winning table.
static SCAN_CELLS: [OnceLock<Scan>; TRANSFORM_SIZES.len()] =
    [const { OnceLock::new() }; TRANSFORM_SIZES.len()];

/// The scan of `n x n` blocks.
///
/// # Panics
///
/// Panics when `n` is not one of [`TRANSFORM_SIZES`].
fn scan(n: usize) -> &'static Scan {
    SCAN_CELLS[size_index(n)].get_or_init(|| {
        let order = compute_zigzag(n);
        let mut rank = vec![0u16; n * n].into_boxed_slice();
        for (index, &pos) in order.iter().enumerate() {
            rank[pos] = index as u16;
        }
        Scan { order, rank }
    })
}

/// Zig-zag scan order for an `n x n` block, cached per size.
///
/// # Panics
///
/// Panics when `n` is not one of the transform sizes
/// ([`crate::transform::TRANSFORM_SIZES`]).
pub fn zigzag(n: usize) -> &'static [usize] {
    &scan(n).order
}

/// The zig-zag anti-diagonal traversal, alternating direction.
fn compute_zigzag(n: usize) -> Box<[usize]> {
    let mut order = Vec::with_capacity(n * n);
    for s in 0..(2 * n - 1) {
        let range: Vec<usize> = (0..=s.min(n - 1)).rev().collect();
        let cells: Vec<(usize, usize)> = range
            .into_iter()
            .filter(|&i| s - i < n)
            .map(|i| (i, s - i))
            .collect();
        if s % 2 == 0 {
            for (r, c) in cells.into_iter().rev() {
                order.push(r * n + c);
            }
        } else {
            for (r, c) in cells {
                order.push(r * n + c);
            }
        }
    }
    order.into_boxed_slice()
}

/// Codes one quantized transform block into `w` and returns the number
/// of bits produced.
///
/// Syntax: `coded_block_flag` (1 bit); when set, `ue(last_sig)` in scan
/// order followed, for positions `0..=last_sig`, by a significance flag
/// and `se(level)` for significant positions.
///
/// # Panics
///
/// Panics when `n` is not a transform size or `levels.len()` is not
/// `n * n`.
pub fn code_block(levels: &[i32], n: usize, w: &mut BitWriter) -> u64 {
    with_size!(n, N => {
        let levels = as_square::<i32, N>(levels);
        let rows = levels.iter().enumerate().fold(0, |rows, (r, row)| {
            rows | u32::from(row.iter().fold(0, |any, &l| any | l) != 0) << r
        });
        code_levels(levels, rows, w)
    })
}

/// [`code_block`] on a block whose levels all sit in the rows set in
/// `rows` (bit `i` for row `i`), as the quantizer reports them.
///
/// The significant positions become a bit mask in scan order (one
/// `u64` word per 64 positions), built from the rows that hold a level
/// only. The last one is `63 − lzcnt` of the highest non-zero word.
/// The flag with `ue(last)`, and each zero run with the `1` flag that
/// ends it and the level's `se` code, go out as one `write_bits` each
/// when they fit its 32 bits; a longer zero run splits off whole 32-bit
/// words, a longer code is written on its own. The same bits, in the
/// same order, as one flag per position.
pub(crate) fn code_levels<const N: usize>(
    levels: &Square<i32, N>,
    rows: u32,
    w: &mut BitWriter,
) -> u64 {
    const WORDS: usize = TRANSFORM_SIZES[TRANSFORM_SIZES.len() - 1].pow(2) / 64;
    let before = w.bits_written();
    let scan = scan(N);
    let words = (N * N).div_ceil(64);
    let mut significant = [0u64; WORDS];
    for (r, row) in levels.iter().enumerate() {
        if rows & (1 << r) == 0 {
            continue;
        }
        for (&level, &rank) in row.iter().zip(&scan.rank[r * N..(r + 1) * N]) {
            let rank = usize::from(rank);
            significant[rank / 64] |= u64::from(level != 0) << (rank % 64);
        }
    }
    let Some(top) = significant[..words].iter().rposition(|&word| word != 0) else {
        w.write_bit(false);
        return w.bits_written() - before;
    };
    let last = 64 * top + 63 - significant[top].leading_zeros() as usize;
    // `last < 32²`, so the flag and its code take at most 22 bits.
    let (code, code_bits) = ue_code(last as u32);
    w.write_bits(((1 << code_bits) | code) as u32, code_bits as u8 + 1);
    let mut next = 0;
    for (i, &word) in significant[..=top].iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let index = 64 * i + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let pos = scan.order[index];
            let level = levels[pos / N][pos % N];
            let mut zeros = (index - next) as u32;
            next = index + 1;
            let (code, code_bits) = ue_code(se_to_ue(level));
            if zeros + 1 + code_bits <= 32 {
                w.write_bits(
                    ((1 << code_bits) | code) as u32,
                    (zeros + 1 + code_bits) as u8,
                );
                continue;
            }
            while zeros >= 32 {
                w.write_bits(0, 32);
                zeros -= 32;
            }
            w.write_bits(1, zeros as u8 + 1);
            w.write_se(level);
        }
    }
    w.bits_written() - before
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit count of a block computed without a writer — the
    /// estimator `code_block` is checked against.
    fn block_bits(levels: &[i32], n: usize) -> u64 {
        let scan = zigzag(n);
        let last_sig = scan.iter().rposition(|&pos| levels[pos] != 0);
        match last_sig {
            None => 1,
            Some(last) => {
                let mut bits = 1 + ue_len(last as u32);
                for &pos in &scan[..=last] {
                    let level = levels[pos];
                    bits += 1;
                    if level != 0 {
                        bits += se_len(level);
                    }
                }
                bits
            }
        }
    }

    #[test]
    fn bitwriter_packs_msb_first() {
        let mut w = BitWriter::new();
        w.write_bits(0b1010_1100, 8);
        assert_eq!(w.into_bytes(), vec![0b1010_1100]);
    }

    #[test]
    fn bitwriter_pads_on_finish() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1100_0000]);
    }

    #[test]
    fn ue_small_values() {
        // ue(0) = "1", ue(1) = "010", ue(2) = "011".
        let mut w = BitWriter::new();
        w.write_ue(0);
        assert_eq!(w.bits_written(), 1);
        let mut w = BitWriter::new();
        w.write_ue(1);
        assert_eq!(w.bits_written(), 3);
        assert_eq!(w.into_bytes(), vec![0b0100_0000]);
        assert_eq!(ue_len(0), 1);
        assert_eq!(ue_len(1), 3);
        assert_eq!(ue_len(2), 3);
        assert_eq!(ue_len(3), 5);
    }

    #[test]
    fn se_mapping() {
        // se: 0→ue(0), 1→ue(1), -1→ue(2), 2→ue(3), -2→ue(4).
        assert_eq!(se_len(0), ue_len(0));
        assert_eq!(se_len(1), ue_len(1));
        assert_eq!(se_len(-1), ue_len(2));
        assert_eq!(se_len(2), ue_len(3));
        assert_eq!(se_len(-2), ue_len(4));
    }

    #[test]
    fn zigzag_4x4_starts_correctly() {
        let z = zigzag(4);
        assert_eq!(z.len(), 16);
        // First entries of the classic zig-zag: (0,0),(0,1),(1,0),(2,0),(1,1),(0,2)…
        assert_eq!(z[0], 0);
        assert!(z[1] == 1 || z[1] == 4); // direction convention
                                         // Must be a permutation.
        let mut sorted = z.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn zigzag_is_permutation_for_all_sizes() {
        for n in [4usize, 8, 16, 32] {
            let z = zigzag(n);
            let mut sorted = z.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n * n).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn zigzag_concurrent_first_use_yields_one_table() {
        // All threads race through the lock-free path on first use and
        // must observe the same cached table (same address) at every
        // transform size, with correct contents.
        use std::sync::Barrier;
        let barrier = Barrier::new(8);
        let tables: Vec<[usize; 4]> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        TRANSFORM_SIZES.map(|n| zigzag(n).as_ptr() as usize)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for other in &tables[1..] {
            for (n, (p, first)) in TRANSFORM_SIZES.iter().zip(other.iter().zip(&tables[0])) {
                assert_eq!(p, first, "{n}x{n} table must be computed once");
            }
        }
        assert_eq!(zigzag(4)[..3], [0, 4, 1]);
        for n in TRANSFORM_SIZES {
            assert_eq!(zigzag(n).len(), n * n);
        }
    }

    #[test]
    #[should_panic(expected = "unsupported transform size 12")]
    fn zigzag_rejects_sizes_the_transform_rejects() {
        zigzag(12);
    }

    #[test]
    #[should_panic(expected = "unsupported transform size 12")]
    fn code_block_rejects_sizes_the_transform_rejects() {
        code_block(&[0; 144], 12, &mut BitWriter::new());
    }

    #[test]
    fn empty_block_codes_in_one_bit() {
        let mut w = BitWriter::new();
        let bits = code_block(&[0; 16], 4, &mut w);
        assert_eq!(bits, 1);
        assert_eq!(block_bits(&[0; 16], 4), 1);
    }

    #[test]
    fn dc_only_block_is_cheap() {
        let mut levels = [0i32; 16];
        levels[0] = 3;
        let bits = block_bits(&levels, 4);
        // flag + ue(0) + sig + se(3) = 1 + 1 + 1 + 5 = 8.
        assert_eq!(bits, 8);
    }

    #[test]
    fn code_block_and_block_bits_agree() {
        let mut levels = [0i32; 64];
        levels[0] = -5;
        levels[9] = 2;
        levels[3] = 1;
        let mut w = BitWriter::new();
        let written = code_block(&levels, 8, &mut w);
        assert_eq!(written, block_bits(&levels, 8));
    }

    #[test]
    fn more_coefficients_cost_more_bits() {
        let sparse = {
            let mut l = [0i32; 64];
            l[0] = 4;
            l
        };
        let dense = {
            let mut l = [0i32; 64];
            for (i, v) in l.iter_mut().enumerate() {
                *v = if i % 3 == 0 { 2 } else { 0 };
            }
            l
        };
        assert!(block_bits(&dense, 8) > block_bits(&sparse, 8));
    }

    #[test]
    fn ue_len_counts_long_codes() {
        // u32::MAX is the worst case: a 32-zero prefix plus a 33-bit
        // info field, which the batched writer must split across runs.
        for v in [0, 1, 255, 65_535, 1 << 20, u32::MAX - 1, u32::MAX] {
            let mut w = BitWriter::new();
            w.write_ue(v);
            assert_eq!(w.bits_written(), ue_len(v), "v={v}");
        }
    }

    proptest! {
        #[test]
        fn prop_writer_matches_estimator(
            levels in proptest::collection::vec(-64i32..=64, 16),
        ) {
            let mut w = BitWriter::new();
            let written = code_block(&levels, 4, &mut w);
            prop_assert_eq!(written, block_bits(&levels, 4));
            // Stream length in bytes covers the bits.
            let bytes = w.into_bytes();
            prop_assert!(bytes.len() as u64 * 8 >= written);
        }

        #[test]
        fn prop_ue_len_matches_writer(v in 0u32..100_000) {
            let mut w = BitWriter::new();
            w.write_ue(v);
            prop_assert_eq!(w.bits_written(), ue_len(v));
        }
    }
}
