//! Recorder dispatch: the [`Recorder`] trait, the zero-cost
//! [`NoopRecorder`], and the bounded-memory [`FlightRecorder`].

use crate::event::{Event, CONTROL_TRACK};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::ring::EventRing;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Telemetry sink instrumented code is generic over.
///
/// Dispatch is static: the instrumentation sites monomorphize per
/// recorder type, and `if R::ENABLED` guards let them skip event
/// construction entirely for [`NoopRecorder`], so disabled telemetry
/// compiles down to nothing.
pub trait Recorder {
    /// Whether [`record`](Recorder::record) does anything; call sites
    /// gate event construction on this constant.
    const ENABLED: bool;

    /// Sinks one event. Must be cheap and allocation-free.
    fn record(&self, event: Event);

    /// Folds a worker-local [`Metrics`] registry into the recorder's
    /// aggregate (no-op for [`NoopRecorder`]).
    fn absorb(&self, metrics: &Metrics);
}

/// The disabled recorder: a zero-sized type whose methods inline to
/// nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&self, _event: Event) {}

    #[inline(always)]
    fn absorb(&self, _metrics: &Metrics) {}
}

/// Shared references forward, so `&FlightRecorder` is itself a `Copy`
/// recorder that many drivers can hold at once.
impl<R: Recorder + ?Sized> Recorder for &R {
    const ENABLED: bool = R::ENABLED;

    #[inline]
    fn record(&self, event: Event) {
        (**self).record(event);
    }

    #[inline]
    fn absorb(&self, metrics: &Metrics) {
        (**self).absorb(metrics);
    }
}

/// Bounded-memory flight recorder: per-track lock-free event rings
/// plus an aggregate [`Metrics`] registry.
///
/// Ring 0 holds control-plane events ([`CONTROL_TRACK`]); shard track
/// `t` maps to ring `1 + t % shard_rings`, so each single-threaded
/// driver writes its own ring (single-producer invariant) while the
/// total footprint stays `rings x capacity x 32 B` regardless of run
/// length or user count.
/// Wall stamps are **slot-granular**: the first event of each slot
/// reads the monotonic clock and later events of the same slot reuse
/// the cached stamp, so a burst of per-core events costs one clock
/// read. The stamp cache is racy-by-design (any worker may take the
/// slot's stamp first), which is fine for a flight recorder — the
/// deterministic ordering lives in `(track, slot)`, and the normalized
/// comparison view strips wall stamps entirely.
#[derive(Debug)]
pub struct FlightRecorder {
    rings: Vec<EventRing>,
    metrics: Metrics,
    t0: Instant,
    wall_clock: bool,
    stamp_slot: AtomicU64,
    stamp_ns: AtomicU64,
}

impl FlightRecorder {
    /// A recorder with one control ring plus `shard_rings` worker
    /// rings (min 1), each retaining `capacity` events.
    pub fn new(shard_rings: usize, capacity: usize) -> Self {
        let shard_rings = shard_rings.max(1);
        FlightRecorder {
            rings: (0..1 + shard_rings)
                .map(|_| EventRing::new(capacity))
                .collect(),
            metrics: Metrics::new(),
            t0: Instant::now(),
            wall_clock: true,
            stamp_slot: AtomicU64::new(0),
            stamp_ns: AtomicU64::new(0),
        }
    }

    /// Same geometry, but events are *not* stamped with wall-clock
    /// time: the stream is pure model time, byte-identical across
    /// backends without normalization.
    pub fn modeled(shard_rings: usize, capacity: usize) -> Self {
        let mut r = FlightRecorder::new(shard_rings, capacity);
        r.wall_clock = false;
        r
    }

    /// The wall stamp for `slot`: one clock read per slot, cached for
    /// the rest of the slot's event burst. A stale read under a racing
    /// slot change yields a stamp one slot old — coarse by contract.
    #[inline]
    fn slot_stamp(&self, slot: u32) -> u64 {
        let key = u64::from(slot) + 1;
        if self.stamp_slot.load(Ordering::Relaxed) == key {
            self.stamp_ns.load(Ordering::Relaxed)
        } else {
            let now = self.t0.elapsed().as_nanos() as u64;
            self.stamp_ns.store(now, Ordering::Relaxed);
            self.stamp_slot.store(key, Ordering::Relaxed);
            now
        }
    }

    #[inline]
    fn ring_for(&self, track: u16) -> &EventRing {
        if track == CONTROL_TRACK {
            &self.rings[0]
        } else if (track as usize) < self.rings.len() - 1 {
            // Every track has its own ring — the common case, kept
            // free of the wrap-around division below.
            &self.rings[1 + track as usize]
        } else {
            &self.rings[1 + track as usize % (self.rings.len() - 1)]
        }
    }

    /// The aggregate metrics registry (counters + histograms).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// All retained events, ring by ring (control ring first), oldest
    /// first within each ring.
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for ring in &self.rings {
            out.extend(ring.events());
        }
        out
    }

    /// Retained events with wall-clock fields stripped — the
    /// deterministic, backend-independent view (see [`normalized`]).
    pub fn normalized_events(&self) -> Vec<Event> {
        normalized(&self.events())
    }

    /// Total events recorded across all rings (including overwritten).
    pub fn recorded(&self) -> u64 {
        self.rings.iter().map(|r| r.recorded()).sum()
    }

    /// Total events lost to bounded retention across all rings.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped()).sum()
    }

    /// Serializable summary: every counter/histogram plus per-ring
    /// retention stats.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            metrics: self.metrics.snapshot(),
            rings: self
                .rings
                .iter()
                .enumerate()
                .map(|(i, r)| RingStat {
                    ring: i,
                    capacity: r.capacity(),
                    recorded: r.recorded(),
                    dropped: r.dropped(),
                })
                .collect(),
        }
    }
}

impl Recorder for FlightRecorder {
    const ENABLED: bool = true;

    #[inline]
    fn record(&self, mut event: Event) {
        if self.wall_clock && event.wall_ns == 0 {
            event.wall_ns = self.slot_stamp(event.slot);
        }
        self.ring_for(event.track).write(&event);
    }

    #[inline]
    fn absorb(&self, metrics: &Metrics) {
        self.metrics.absorb(metrics);
    }
}

/// Strips wall-clock fields from an event stream, leaving the pure
/// model-time view. Two backends replaying the same trace must produce
/// identical normalized streams — the repo's sim-vs-pool bit-identity
/// invariant extended to telemetry.
pub fn normalized(events: &[Event]) -> Vec<Event> {
    events.iter().map(|&e| Event { wall_ns: 0, ..e }).collect()
}

/// Per-ring retention statistics.
#[derive(Debug, Clone, Serialize)]
pub struct RingStat {
    /// Ring index (0 = control plane).
    pub ring: usize,
    /// Retention capacity in events.
    pub capacity: usize,
    /// Total events ever written to this ring.
    pub recorded: u64,
    /// Events lost to the bounded retention window.
    pub dropped: u64,
}

/// Serializable summary of a [`FlightRecorder`].
#[derive(Debug, Clone, Serialize)]
pub struct TelemetrySnapshot {
    /// Counter and histogram summaries.
    pub metrics: MetricsSnapshot,
    /// Per-ring retention statistics.
    pub rings: Vec<RingStat>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Decision, EventKind};
    use crate::metrics::CounterId;

    #[test]
    fn routes_control_and_shard_tracks_to_distinct_rings() {
        let rec = FlightRecorder::modeled(2, 16);
        rec.record(Event::new(CONTROL_TRACK, 0, EventKind::GopBoundary));
        let admit = |user| EventKind::Decision {
            kind: Decision::Admit,
            user,
        };
        rec.record(Event::new(0, 1, admit(1)));
        rec.record(Event::new(1, 2, admit(2)));
        rec.record(Event::new(3, 3, admit(3))); // wraps to ring 2
        assert_eq!(rec.rings[0].len(), 1);
        assert_eq!(rec.rings[1].len(), 1);
        assert_eq!(rec.rings[2].len(), 2);
        assert_eq!(rec.events().len(), 4);
    }

    #[test]
    fn modeled_recorder_streams_are_already_normalized() {
        let rec = FlightRecorder::modeled(1, 8);
        rec.record(Event::new(0, 5, EventKind::Replan { users: 3 }));
        let events = rec.events();
        assert_eq!(events, normalized(&events));
        assert_eq!(events[0].wall_ns, 0);
    }

    #[test]
    fn wall_clock_recorder_stamps_and_normalizer_strips() {
        let rec = FlightRecorder::new(1, 8);
        // Busy-wait so the monotonic stamp is nonzero even on coarse
        // clocks.
        let t = Instant::now();
        while t.elapsed().as_nanos() == 0 {
            std::hint::spin_loop();
        }
        rec.record(Event::new(0, 5, EventKind::GopBoundary));
        let events = rec.events();
        assert!(events[0].wall_ns > 0);
        assert_eq!(normalized(&events)[0].wall_ns, 0);
    }

    #[test]
    fn reference_recorder_forwards_and_absorbs() {
        let rec = FlightRecorder::modeled(1, 8);
        let by_ref: &FlightRecorder = &rec;
        const { assert!(<&FlightRecorder as Recorder>::ENABLED) };
        by_ref.record(Event::new(0, 1, EventKind::GopBoundary));
        let m = Metrics::new();
        m.add(CounterId::Boundaries, 2);
        by_ref.absorb(&m);
        assert_eq!(rec.events().len(), 1);
        assert_eq!(rec.metrics().counter(CounterId::Boundaries), 2);
    }
}
