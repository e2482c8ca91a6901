//! GOP structures: the Random Access hierarchical-B coding order the
//! paper uses (GOP of 8, B slices, §III-D2).

use medvt_frame::FrameKind;
use serde::{Deserialize, Serialize};

/// One coded picture inside a GOP template.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GopEntry {
    /// Display offset from the GOP start anchor (1..=gop size).
    pub offset: usize,
    /// Frame kind.
    pub kind: FrameKind,
    /// Reference display offsets from the GOP start (0 = previous
    /// anchor). Always already-coded pictures.
    pub ref_offsets: Vec<usize>,
}

/// A GOP template in coding order.
///
/// # Examples
///
/// ```
/// use medvt_encoder::GopStructure;
///
/// let gop = GopStructure::random_access(8);
/// assert_eq!(gop.size(), 8);
/// // The anchor is coded first…
/// assert_eq!(gop.entries()[0].offset, 8);
/// // …and every entry's references are coded before it.
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GopStructure {
    size: usize,
    entries: Vec<GopEntry>,
}

impl GopStructure {
    /// Builds the Random Access structure: a trailing anchor predicted
    /// from the previous anchor, plus hierarchical bi-predicted frames
    /// for power-of-two GOP sizes. Non-power-of-two sizes fall back to
    /// a low-delay P chain.
    ///
    /// # Panics
    ///
    /// Panics when `size` is zero.
    pub fn random_access(size: usize) -> Self {
        assert!(size > 0, "gop size must be non-zero");
        let mut entries = Vec::new();
        if size.is_power_of_two() && size >= 2 {
            entries.push(GopEntry {
                offset: size,
                kind: FrameKind::Predicted,
                ref_offsets: vec![0],
            });
            bisect(0, size, &mut entries);
        } else {
            for offset in 1..=size {
                entries.push(GopEntry {
                    offset,
                    kind: FrameKind::Predicted,
                    ref_offsets: vec![offset - 1],
                });
            }
        }
        Self { size, entries }
    }

    /// GOP length in frames.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Entries in coding order.
    pub fn entries(&self) -> &[GopEntry] {
        &self.entries
    }
}

/// Recursive hierarchical bisection: emit the midpoint of `(lo, hi)`
/// as a B frame referencing both ends, then recurse.
fn bisect(lo: usize, hi: usize, entries: &mut Vec<GopEntry>) {
    if hi - lo < 2 {
        return;
    }
    let mid = (lo + hi) / 2;
    entries.push(GopEntry {
        offset: mid,
        kind: FrameKind::BiPredicted,
        ref_offsets: vec![lo, hi],
    });
    bisect(lo, mid, entries);
    bisect(mid, hi, entries);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn gop8_matches_hm_coding_order() {
        let gop = GopStructure::random_access(8);
        let order: Vec<usize> = gop.entries().iter().map(|e| e.offset).collect();
        assert_eq!(order, vec![8, 4, 2, 1, 3, 6, 5, 7]);
        assert_eq!(gop.entries()[0].kind, FrameKind::Predicted);
        assert!(gop.entries()[1..]
            .iter()
            .all(|e| e.kind == FrameKind::BiPredicted));
    }

    #[test]
    fn every_offset_coded_exactly_once() {
        for size in [1usize, 2, 4, 8, 16, 5, 7] {
            let gop = GopStructure::random_access(size);
            let offsets: HashSet<usize> = gop.entries().iter().map(|e| e.offset).collect();
            assert_eq!(offsets.len(), size, "size={size}");
            assert_eq!(gop.entries().len(), size);
            assert!(offsets.contains(&size));
            assert!(!offsets.contains(&0), "anchor 0 belongs to previous GOP");
        }
    }

    #[test]
    fn references_always_precede_use() {
        for size in [2usize, 4, 8, 16, 6] {
            let gop = GopStructure::random_access(size);
            let mut coded: HashSet<usize> = HashSet::new();
            coded.insert(0); // previous anchor always available
            for e in gop.entries() {
                for r in &e.ref_offsets {
                    assert!(
                        coded.contains(r),
                        "size={size}: offset {} references uncoded {}",
                        e.offset,
                        r
                    );
                }
                coded.insert(e.offset);
            }
        }
    }

    #[test]
    fn b_frames_reference_past_and_future() {
        let gop = GopStructure::random_access(8);
        for e in gop.entries() {
            if e.kind == FrameKind::BiPredicted {
                assert_eq!(e.ref_offsets.len(), 2);
                assert!(e.ref_offsets[0] < e.offset);
                assert!(e.ref_offsets[1] > e.offset);
            }
        }
    }

    #[test]
    fn non_power_of_two_is_low_delay() {
        let gop = GopStructure::random_access(5);
        for (i, e) in gop.entries().iter().enumerate() {
            assert_eq!(e.offset, i + 1);
            assert_eq!(e.kind, FrameKind::Predicted);
            assert_eq!(e.ref_offsets, vec![i]);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_gop_rejected() {
        GopStructure::random_access(0);
    }
}
