//! Lock-free bounded event ring with overwrite-oldest retention.
//!
//! Single-producer seqlock design, no `unsafe`: each slot holds a
//! sequence word plus the three encoded event words, all plain
//! `AtomicU64`s. The producer bumps the sequence to an odd value,
//! writes the payload, then publishes the even successor; readers
//! re-check the sequence around the payload load and skip torn slots.
//! A full ring overwrites the oldest entry, so memory stays fixed no
//! matter how long the run is; `dropped()` reports how many events the
//! retention window lost.
//!
//! Writes are a handful of relaxed/release stores — no allocation, no
//! locks — so the enabled recorder stays off the allocator on the hot
//! path (proven by `tests/zero_alloc.rs`).

use crate::event::Event;
use std::sync::atomic::{AtomicU64, Ordering};

struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; 3],
}

/// Fixed-capacity single-producer ring of encoded [`Event`]s.
pub struct EventRing {
    slots: Vec<Slot>,
    /// Total events ever written; `head & mask` is the next slot.
    head: AtomicU64,
    /// `capacity - 1`; capacity is rounded up to a power of two so the
    /// hot-path slot index is a mask, not a 64-bit division.
    mask: u64,
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl EventRing {
    /// A ring retaining the last `capacity` events (min 1, rounded up
    /// to the next power of two).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1).next_power_of_two();
        let slots: Vec<Slot> = (0..capacity)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                words: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            })
            .collect();
        EventRing {
            slots,
            head: AtomicU64::new(0),
            mask: capacity as u64 - 1,
        }
    }

    /// Retention capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever written (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events lost to the bounded retention window.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.capacity() as u64)
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.recorded().min(self.capacity() as u64) as usize
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.recorded() == 0
    }

    /// Appends `event`, overwriting the oldest entry when full.
    ///
    /// Single-producer: callers must serialize writes per ring (the
    /// [`FlightRecorder`](crate::FlightRecorder) routes each worker to
    /// its own ring).
    #[inline]
    pub fn write(&self, event: &Event) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head & self.mask) as usize];
        // Odd sequence = write in progress; readers back off.
        let seq = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq + 1, Ordering::Release);
        let words = event.encode();
        for (cell, word) in slot.words.iter().zip(words) {
            cell.store(word, Ordering::Release);
        }
        slot.seq.store(seq + 2, Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Snapshot of the retained events, oldest first. Slots torn by a
    /// concurrent write are skipped.
    pub fn events(&self) -> Vec<Event> {
        let head = self.recorded();
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for i in start..head {
            let slot = &self.slots[(i % cap) as usize];
            let seq_before = slot.seq.load(Ordering::Acquire);
            if seq_before % 2 == 1 {
                continue; // write in flight
            }
            let words = [
                slot.words[0].load(Ordering::Acquire),
                slot.words[1].load(Ordering::Acquire),
                slot.words[2].load(Ordering::Acquire),
            ];
            if slot.seq.load(Ordering::Acquire) != seq_before {
                continue; // torn read
            }
            if let Some(ev) = Event::decode(words) {
                out.push(ev);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Decision, EventKind};

    fn ev(slot: u32) -> Event {
        Event::new(
            0,
            slot,
            EventKind::Decision {
                kind: Decision::Admit,
                user: slot,
            },
        )
    }

    #[test]
    fn retains_everything_under_capacity() {
        let ring = EventRing::new(8);
        for s in 0..5 {
            ring.write(&ev(s));
        }
        let got = ring.events();
        assert_eq!(got.len(), 5);
        assert_eq!(got.first().unwrap().slot, 0);
        assert_eq!(got.last().unwrap().slot, 4);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn wraps_keeping_the_newest_events() {
        let ring = EventRing::new(4);
        for s in 0..10 {
            ring.write(&ev(s));
        }
        let got = ring.events();
        assert_eq!(got.len(), 4);
        assert_eq!(
            got.iter().map(|e| e.slot).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 6);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let ring = EventRing::new(0);
        ring.write(&ev(1));
        ring.write(&ev(2));
        assert_eq!(ring.capacity(), 1);
        assert_eq!(ring.events().len(), 1);
        assert_eq!(ring.events()[0].slot, 2);
    }
}
