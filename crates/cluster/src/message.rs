//! Wire-shaped messages between the coordinator and its worker nodes.
//!
//! Everything that crosses the coordinator/worker channel is plain
//! data (`Serialize`/`Deserialize`) — the one seam a wire protocol
//! binds: the in-process mpsc channels these flow over today can be
//! replaced without touching either endpoint's logic.

use medvt_encoder::SegmentSpec;
use serde::{Deserialize, Serialize};

/// Coordinator → worker: one leased unit of work.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Assignment {
    /// The segment to transcode.
    pub segment: SegmentSpec,
    /// 1-based delivery attempt (grows on every re-lease).
    pub attempt: usize,
}

/// Coordinator → worker: the full command set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum WorkerCommand {
    /// Transcode one leased segment and reply with a
    /// [`SegmentResult`].
    Encode(Assignment),
    /// Drain and exit; the worker sends nothing further.
    Shutdown,
}

/// Worker → coordinator: one completed segment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct SegmentResult {
    /// The node that transcoded the segment.
    pub node: usize,
    /// The segment covered.
    pub segment: SegmentSpec,
    /// The attempt this result answers.
    pub attempt: usize,
    /// Concatenated tile bitstreams: slots in display order, tiles in
    /// tile-index order within each slot — the canonical reassembly
    /// layout.
    pub bytes: Vec<u8>,
    /// Tiles encoded.
    pub tiles: usize,
    /// Modeled energy of the node's server loop over this segment, J.
    pub energy_j: f64,
    /// Deadline windows the node's loop evaluated.
    pub windows: usize,
    /// Windows that ended with unfinished work.
    pub window_misses: usize,
}

/// Why the cluster gave up on a segment — the typed reject surfaced
/// after bounded lease retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LeaseFailure {
    /// The segment's lease expired on every attempt it was allowed.
    RetriesExhausted {
        /// The segment that could not be completed.
        segment: usize,
        /// Delivery attempts consumed (== the configured maximum).
        attempts: usize,
    },
    /// No live node remains to lease to.
    NoLiveNodes {
        /// The segment that was next in line.
        segment: usize,
    },
}

impl std::fmt::Display for LeaseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeaseFailure::RetriesExhausted { segment, attempts } => {
                write!(
                    f,
                    "segment {segment} failed after {attempts} lease attempts"
                )
            }
            LeaseFailure::NoLiveNodes { segment } => {
                write!(f, "no live nodes remain to lease segment {segment}")
            }
        }
    }
}

impl std::error::Error for LeaseFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_wire_shaped() {
        let cmd = WorkerCommand::Encode(Assignment {
            segment: SegmentSpec {
                index: 2,
                start_gop: 4,
                gops: 2,
                start_slot: 32,
                slots: 16,
            },
            attempt: 1,
        });
        let json = serde_json::to_string(&cmd).expect("serializes");
        assert!(json.contains("Encode"), "{json}");
        assert!(json.contains("\"start_slot\":32"), "{json}");
        let fail = LeaseFailure::RetriesExhausted {
            segment: 2,
            attempts: 3,
        };
        assert_eq!(fail.to_string(), "segment 2 failed after 3 lease attempts");
    }
}
