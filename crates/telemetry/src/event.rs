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

/// Track id used for control-plane events (admission controller,
/// queue) as opposed to per-shard worker tracks `0..n_shards`.
pub const CONTROL_TRACK: u16 = u16::MAX;

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
    /// A queued request was admitted onto this shard.
    Admit {
        /// Global user id.
        user: u32,
    },
    /// An active user was evicted for sustained deadline misses.
    Evict {
        /// Global user id.
        user: u32,
    },
    /// An active user departed voluntarily.
    Depart {
        /// Global user id.
        user: u32,
    },
    /// A queued request gave up waiting before admission.
    Abandon {
        /// Global user id.
        user: u32,
    },
    /// A request was rejected outright (demand exceeds any shard).
    Reject {
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
    /// The provisioning layer rented one instance of a priced platform
    /// preset for the serving fleet (control track).
    Provisioned {
        /// Index into the provisioning catalogue.
        preset: u32,
    },
    /// An evicted user re-entered the queue at the next-lower deadline
    /// class instead of being dropped (control track).
    Downgraded {
        /// Global user id.
        user: u32,
    },
}

impl EventKind {
    /// Stable numeric tag for the binary encoding.
    fn tag(self) -> u8 {
        match self {
            EventKind::GopBoundary => 0,
            EventKind::Replan { .. } => 1,
            EventKind::Admit { .. } => 2,
            EventKind::Evict { .. } => 3,
            EventKind::Depart { .. } => 4,
            EventKind::Abandon { .. } => 5,
            EventKind::Reject { .. } => 6,
            EventKind::QueueDepth { .. } => 7,
            EventKind::SlotCore { .. } => 8,
            EventKind::LeaseGranted { .. } => 9,
            EventKind::LeaseExpired { .. } => 10,
            EventKind::LeaseRequeued { .. } => 11,
            EventKind::SegmentReassembled { .. } => 12,
            EventKind::Provisioned { .. } => 13,
            EventKind::Downgraded { .. } => 14,
        }
    }

    /// Short stable label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::GopBoundary => "gop_boundary",
            EventKind::Replan { .. } => "replan",
            EventKind::Admit { .. } => "admit",
            EventKind::Evict { .. } => "evict",
            EventKind::Depart { .. } => "depart",
            EventKind::Abandon { .. } => "abandon",
            EventKind::Reject { .. } => "reject",
            EventKind::QueueDepth { .. } => "queue_depth",
            EventKind::SlotCore { .. } => "slot_core",
            EventKind::LeaseGranted { .. } => "lease_granted",
            EventKind::LeaseExpired { .. } => "lease_expired",
            EventKind::LeaseRequeued { .. } => "lease_requeued",
            EventKind::SegmentReassembled { .. } => "segment_reassembled",
            EventKind::Provisioned { .. } => "provisioned",
            EventKind::Downgraded { .. } => "downgraded",
        }
    }

    fn payload(self) -> u64 {
        match self {
            EventKind::GopBoundary => 0,
            EventKind::Replan { users } => u64::from(users),
            EventKind::Admit { user }
            | EventKind::Evict { user }
            | EventKind::Depart { user }
            | EventKind::Abandon { user }
            | EventKind::Reject { user } => u64::from(user),
            EventKind::QueueDepth { depth } => u64::from(depth),
            EventKind::LeaseGranted { segment }
            | EventKind::LeaseExpired { segment }
            | EventKind::LeaseRequeued { segment }
            | EventKind::SegmentReassembled { segment } => u64::from(segment),
            EventKind::Provisioned { preset } => u64::from(preset),
            EventKind::Downgraded { user } => u64::from(user),
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
            2 => EventKind::Admit { user },
            3 => EventKind::Evict { user },
            4 => EventKind::Depart { user },
            5 => EventKind::Abandon { user },
            6 => EventKind::Reject { user },
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
            13 => EventKind::Provisioned { preset: user },
            14 => EventKind::Downgraded { user },
            _ => return None,
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
    /// Wall-clock nanoseconds since recorder start; 0 when unset or
    /// after [`normalized`](crate::normalized).
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
            EventKind::Admit { user: 41 },
            EventKind::Evict { user: u32::MAX },
            EventKind::Depart { user: 0 },
            EventKind::Abandon { user: 7 },
            EventKind::Reject { user: 1_000_000 },
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
            EventKind::Provisioned { preset: 4 },
            EventKind::Downgraded { user: 2_000_000 },
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
    }

    #[test]
    fn unknown_tag_decodes_to_none() {
        assert_eq!(Event::decode([0xFFu64 << 56, 0, 0]), None);
    }
}
