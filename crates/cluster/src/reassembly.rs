//! Bitstream reassembly: stitching returned segments back into one
//! stream, in order, with the tile path's bit-identity guarantee.
//!
//! Segments encode open-loop (every tile depends only on original
//! frames), so each segment's bytes are independent of which node
//! produced them and on which attempt. Reassembly therefore reduces to
//! placing each segment's bytes at its index — plus two invariant
//! checks: the segment plan must tile the slot horizon contiguously,
//! and a duplicate delivery (a late first attempt racing its retry)
//! must be byte-identical to what was already accepted.

use medvt_encoder::SegmentSpec;

/// A duplicate segment delivery disagreed with the accepted bytes —
/// the determinism invariant is broken (or a worker is corrupt).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReassemblyConflict {
    /// The segment delivered twice with different bytes.
    pub segment: usize,
}

impl std::fmt::Display for ReassemblyConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "segment {} delivered twice with different bytes",
            self.segment
        )
    }
}

impl std::error::Error for ReassemblyConflict {}

/// Collects segment bitstreams and stitches them in plan order.
#[derive(Debug)]
pub struct Reassembler {
    plan: Vec<SegmentSpec>,
    parts: Vec<Option<Vec<u8>>>,
    received: usize,
}

impl Reassembler {
    /// A reassembler expecting exactly the segments of `plan`.
    ///
    /// # Panics
    ///
    /// Panics when the plan is not a contiguous tiling (each segment's
    /// start must be the previous segment's end, indices in order) —
    /// a malformed plan would silently reorder the output.
    pub fn new(plan: Vec<SegmentSpec>) -> Self {
        let mut cursor = 0usize;
        for (i, s) in plan.iter().enumerate() {
            assert_eq!(s.index, i, "segment indices must be in plan order");
            assert_eq!(
                s.start_slot,
                cursor,
                "segment {i} must start where segment {} ended",
                i.wrapping_sub(1)
            );
            cursor = s.end_slot();
        }
        let parts = vec![None; plan.len()];
        Reassembler {
            plan,
            parts,
            received: 0,
        }
    }

    /// The expected segment plan.
    pub fn plan(&self) -> &[SegmentSpec] {
        &self.plan
    }

    /// `true` once every planned segment has bytes.
    pub(crate) fn is_complete(&self) -> bool {
        self.received == self.plan.len()
    }

    /// Accepts one segment's bytes. Idempotent for byte-identical
    /// duplicates (returns `Ok(false)`); a mismatching duplicate is a
    /// broken-invariant error. Returns `Ok(true)` when the segment was
    /// new.
    ///
    /// # Panics
    ///
    /// Panics when `segment` is outside the plan.
    pub fn accept(&mut self, segment: usize, bytes: Vec<u8>) -> Result<bool, ReassemblyConflict> {
        assert!(segment < self.plan.len(), "segment {segment} not in plan");
        match &self.parts[segment] {
            Some(existing) if *existing == bytes => Ok(false),
            Some(_) => Err(ReassemblyConflict { segment }),
            None => {
                self.parts[segment] = Some(bytes);
                self.received += 1;
                Ok(true)
            }
        }
    }

    /// Stitches the accepted segments into one bitstream, in plan
    /// order.
    ///
    /// # Panics
    ///
    /// Panics unless every segment arrived — assembling
    /// with holes would silently desynchronize every later segment.
    pub fn assemble(self) -> Vec<u8> {
        assert!(
            self.is_complete(),
            "cannot assemble: {}/{} segments received",
            self.received,
            self.plan.len()
        );
        let mut out = Vec::with_capacity(
            self.parts
                .iter()
                .map(|p| p.as_ref().map_or(0, Vec::len))
                .sum(),
        );
        for part in self.parts {
            out.extend(part.expect("completeness checked"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medvt_encoder::plan_segments;

    #[test]
    fn stitches_in_plan_order_regardless_of_arrival_order() {
        let plan = plan_segments(24, 8, 1);
        let mut r = Reassembler::new(plan);
        assert!(r.accept(2, vec![7, 8]).expect("new"));
        assert!(r.accept(0, vec![1, 2]).expect("new"));
        assert!(!r.is_complete());
        assert!(r.accept(1, vec![4]).expect("new"));
        assert!(r.is_complete());
        assert_eq!(r.assemble(), vec![1, 2, 4, 7, 8]);
    }

    #[test]
    fn identical_duplicate_is_idempotent_mismatch_is_fatal() {
        let plan = plan_segments(16, 8, 1);
        let mut r = Reassembler::new(plan);
        assert!(r.accept(0, vec![1, 2]).expect("new"));
        assert!(!r.accept(0, vec![1, 2]).expect("identical dup ok"));
        assert_eq!(r.received, 1);
        let err = r.accept(0, vec![9]).expect_err("conflicting bytes");
        assert_eq!(err.segment, 0);
    }

    #[test]
    #[should_panic(expected = "cannot assemble")]
    fn assembling_with_holes_panics() {
        let r = Reassembler::new(plan_segments(16, 8, 1));
        r.assemble();
    }

    #[test]
    #[should_panic(expected = "must start where")]
    fn non_contiguous_plan_rejected() {
        let mut plan = plan_segments(24, 8, 1);
        plan.remove(1);
        let plan: Vec<_> = plan
            .into_iter()
            .enumerate()
            .map(|(i, mut s)| {
                s.index = i;
                s
            })
            .collect();
        Reassembler::new(plan);
    }
}
