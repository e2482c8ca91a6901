//! Typed telemetry events with a fixed three-word binary encoding.
//!
//! Events are packed into `[u64; 3]` so the ring buffer can store them
//! in plain atomic words — no allocation, no serialization on the hot
//! path. The layout is:
//!
//! ```text
//! w0: tag(8) | track(16) | reserved(8) | slot(32)
//! w1: kind-specific payload (user id, queue depth, core fields, ...)
//! w2: wall-clock nanoseconds since recorder start (0 in modeled view)
//! ```

use crate::metrics::CounterId;
use serde::{Deserialize, Serialize};

/// Track id used for control-plane events (admission controller,
/// queue) as opposed to per-shard worker tracks `0..n_shards`.
pub const CONTROL_TRACK: u16 = u16::MAX;

/// What the admission controller decided about one user: the decision
/// stream the admission log, the meter and the flight recorder share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    /// Queued user admitted onto a shard.
    Admit,
    /// Active user removed for sustained deadline misses.
    Evict,
    /// Active user left at its requested departure slot.
    Depart,
    /// Queued user departed before ever being admitted.
    Abandon,
    /// Request can never fit any shard — dropped at the door.
    Reject,
    /// Evicted user re-entered the queue at the next-lower deadline
    /// class instead of being dropped. Always immediately follows that
    /// user's [`Decision::Evict`] at the same boundary.
    Downgrade,
}

impl Decision {
    /// Every decision, in tag order.
    const ALL: [Decision; 6] = [
        Decision::Admit,
        Decision::Evict,
        Decision::Depart,
        Decision::Abandon,
        Decision::Reject,
        Decision::Downgrade,
    ];

    /// The counter this decision increments; a downgrade has none (its
    /// eviction was counted).
    pub fn counter(self) -> Option<CounterId> {
        match self {
            Decision::Admit => Some(CounterId::Admits),
            Decision::Evict => Some(CounterId::Evicts),
            Decision::Depart => Some(CounterId::Departs),
            Decision::Abandon => Some(CounterId::Abandons),
            Decision::Reject => Some(CounterId::Rejects),
            Decision::Downgrade => None,
        }
    }

    /// Stable numeric tag of [`EventKind::Decision`] in the binary
    /// encoding.
    fn tag(self) -> u8 {
        match self {
            Decision::Admit => 2,
            Decision::Evict => 3,
            Decision::Depart => 4,
            Decision::Abandon => 5,
            Decision::Reject => 6,
            Decision::Downgrade => 14,
        }
    }

    /// Short stable label used by the exporters.
    fn label(self) -> &'static str {
        match self {
            Decision::Admit => "admit",
            Decision::Evict => "evict",
            Decision::Depart => "depart",
            Decision::Abandon => "abandon",
            Decision::Reject => "reject",
            Decision::Downgrade => "downgraded",
        }
    }
}

/// What happened. Every variant is fully described by one payload
/// word; see the module docs for the packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A GOP boundary was reached on this track (control plane: a
    /// controller boundary pass; shard: the driver crossed a GOP).
    GopBoundary,
    /// The shard's placement engine re-planned; payload is the member
    /// count it planned for.
    Replan {
        /// Active users on the shard at the replan.
        users: u32,
    },
    /// An admission decision about one user (on the shard's track when
    /// a shard is involved, else the control track).
    Decision {
        /// What was decided.
        kind: Decision,
        /// Global user id.
        user: u32,
    },
    /// Waiting-queue depth after this boundary's admissions.
    QueueDepth {
        /// Requests still queued.
        depth: u32,
    },
    /// One core's activity inside an executed slot.
    SlotCore {
        /// Core index within the shard.
        core: u16,
        /// Modeled busy time in the slot, nanoseconds (saturating).
        busy_ns: u32,
        /// Work carried past the slot deadline (miss).
        carry: bool,
        /// The miss was caused by DVFS transition overhead.
        transition_bound: bool,
    },
    /// A cluster coordinator leased a segment to the node on this
    /// track.
    LeaseGranted {
        /// Segment index within the job.
        segment: u32,
    },
    /// A lease timed out on the node on this track (dead or stalled
    /// worker); the segment goes back to the coordinator.
    LeaseExpired {
        /// Segment index within the job.
        segment: u32,
    },
    /// An expired segment re-entered the coordinator's pending pool
    /// (control track).
    LeaseRequeued {
        /// Segment index within the job.
        segment: u32,
    },
    /// A completed segment was stitched into the output bitstream in
    /// order (control track).
    SegmentReassembled {
        /// Segment index within the job.
        segment: u32,
    },
}

impl EventKind {
    /// Stable numeric tag for the binary encoding.
    fn tag(self) -> u8 {
        match self {
            EventKind::GopBoundary => 0,
            EventKind::Replan { .. } => 1,
            EventKind::Decision { kind, .. } => kind.tag(),
            EventKind::QueueDepth { .. } => 7,
            EventKind::SlotCore { .. } => 8,
            EventKind::LeaseGranted { .. } => 9,
            EventKind::LeaseExpired { .. } => 10,
            EventKind::LeaseRequeued { .. } => 11,
            EventKind::SegmentReassembled { .. } => 12,
        }
    }

    /// Short stable label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::GopBoundary => "gop_boundary",
            EventKind::Replan { .. } => "replan",
            EventKind::Decision { kind, .. } => kind.label(),
            EventKind::QueueDepth { .. } => "queue_depth",
            EventKind::SlotCore { .. } => "slot_core",
            EventKind::LeaseGranted { .. } => "lease_granted",
            EventKind::LeaseExpired { .. } => "lease_expired",
            EventKind::LeaseRequeued { .. } => "lease_requeued",
            EventKind::SegmentReassembled { .. } => "segment_reassembled",
        }
    }

    fn payload(self) -> u64 {
        match self {
            EventKind::GopBoundary => 0,
            EventKind::Replan { users } => u64::from(users),
            EventKind::Decision { user, .. } => u64::from(user),
            EventKind::QueueDepth { depth } => u64::from(depth),
            EventKind::LeaseGranted { segment }
            | EventKind::LeaseExpired { segment }
            | EventKind::LeaseRequeued { segment }
            | EventKind::SegmentReassembled { segment } => u64::from(segment),
            EventKind::SlotCore {
                core,
                busy_ns,
                carry,
                transition_bound,
            } => {
                (u64::from(core) << 48)
                    | (u64::from(busy_ns) << 16)
                    | (u64::from(carry) << 1)
                    | u64::from(transition_bound)
            }
        }
    }

    fn unpack(tag: u8, payload: u64) -> Option<EventKind> {
        let user = payload as u32;
        Some(match tag {
            0 => EventKind::GopBoundary,
            1 => EventKind::Replan { users: user },
            7 => EventKind::QueueDepth { depth: user },
            8 => EventKind::SlotCore {
                core: (payload >> 48) as u16,
                busy_ns: (payload >> 16) as u32,
                carry: payload & 0b10 != 0,
                transition_bound: payload & 0b1 != 0,
            },
            9 => EventKind::LeaseGranted { segment: user },
            10 => EventKind::LeaseExpired { segment: user },
            11 => EventKind::LeaseRequeued { segment: user },
            12 => EventKind::SegmentReassembled { segment: user },
            _ => EventKind::Decision {
                kind: Decision::ALL.into_iter().find(|d| d.tag() == tag)?,
                user,
            },
        })
    }
}

/// One recorded occurrence: *what* ([`EventKind`]), *where* (`track`),
/// *when* in model time (`slot`) and — optionally — in wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Shard index, or [`CONTROL_TRACK`] for the control plane.
    pub track: u16,
    /// Modeled slot index the event belongs to.
    pub slot: u32,
    /// Wall-clock nanoseconds since recorder start; 0 when unset, as on
    /// every event of a [`FlightRecorder::modeled`](crate::FlightRecorder::modeled)
    /// recorder.
    pub wall_ns: u64,
    /// The event payload.
    pub kind: EventKind,
}

impl Event {
    /// A wall-clock-free event (the recorder stamps `wall_ns`).
    #[inline]
    pub fn new(track: u16, slot: u32, kind: EventKind) -> Self {
        Event {
            track,
            slot,
            wall_ns: 0,
            kind,
        }
    }

    /// Packs into the three-word ring representation.
    #[inline]
    pub fn encode(&self) -> [u64; 3] {
        let w0 = (u64::from(self.kind.tag()) << 56)
            | (u64::from(self.track) << 40)
            | u64::from(self.slot);
        [w0, self.kind.payload(), self.wall_ns]
    }

    /// Unpacks a ring entry; `None` on an unknown tag (torn or
    /// corrupted slot — skipped by readers).
    pub(crate) fn decode(words: [u64; 3]) -> Option<Event> {
        let tag = (words[0] >> 56) as u8;
        let kind = EventKind::unpack(tag, words[1])?;
        Some(Event {
            track: (words[0] >> 40) as u16,
            slot: words[0] as u32,
            wall_ns: words[2],
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrips_every_kind() {
        let kinds = [
            EventKind::GopBoundary,
            EventKind::Replan { users: 173 },
            decision(Decision::Admit, 41),
            decision(Decision::Evict, u32::MAX),
            decision(Decision::Depart, 0),
            decision(Decision::Abandon, 7),
            decision(Decision::Reject, 1_000_000),
            EventKind::QueueDepth { depth: 65_535 },
            EventKind::SlotCore {
                core: 513,
                busy_ns: 41_666_667,
                carry: true,
                transition_bound: false,
            },
            EventKind::SlotCore {
                core: 0,
                busy_ns: 0,
                carry: false,
                transition_bound: true,
            },
            EventKind::LeaseGranted { segment: 12 },
            EventKind::LeaseExpired { segment: u32::MAX },
            EventKind::LeaseRequeued { segment: 0 },
            EventKind::SegmentReassembled { segment: 9_999 },
            decision(Decision::Downgrade, 2_000_000),
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let ev = Event {
                track: if i % 2 == 0 { i as u16 } else { CONTROL_TRACK },
                slot: (i as u32) * 97 + 3,
                wall_ns: (i as u64) * 1_000_003,
                kind,
            };
            assert_eq!(Event::decode(ev.encode()), Some(ev));
        }
        // Each decision keeps the ring tag and exporter label its own
        // event kind had before the decisions shared one, so ring words
        // and traces are unchanged.
        let pinned = [
            (Decision::Admit, 2, "admit"),
            (Decision::Evict, 3, "evict"),
            (Decision::Depart, 4, "depart"),
            (Decision::Abandon, 5, "abandon"),
            (Decision::Reject, 6, "reject"),
            (Decision::Downgrade, 14, "downgraded"),
        ];
        assert_eq!(pinned.map(|p| p.0), Decision::ALL);
        for (kind, tag, label) in pinned {
            let ev = Event::new(CONTROL_TRACK, 9, decision(kind, 77));
            let words = ev.encode();
            assert_eq!((words[0] >> 56, words[1]), (tag, 77), "{kind:?}");
            assert_eq!(ev.kind.label(), label);
            assert_eq!(Event::decode(words), Some(ev));
        }
    }

    fn decision(kind: Decision, user: u32) -> EventKind {
        EventKind::Decision { kind, user }
    }

    #[test]
    fn unknown_tag_decodes_to_none() {
        assert_eq!(Event::decode([0xFFu64 << 56, 0, 0]), None);
        // 13: retired (fleet provisioning), do not reuse
        assert_eq!(Event::decode([13u64 << 56, 4, 0]), None);
    }
}
