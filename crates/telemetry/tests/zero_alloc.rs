//! Allocation discipline for the recorder hot paths, following the
//! counting-allocator harness from `crates/encoder/tests/zero_alloc.rs`:
//! a `#[global_allocator]` counts every allocation event of the calling
//! thread (the harness runs tests on parallel threads, and a
//! process-wide count sees the neighbours' set-up), and the
//! steady-state recording paths must add exactly zero.
//!
//! Also pins the bounded-retention contract: a `FlightRecorder` ring
//! never retains more than its configured capacity no matter how many
//! events are written, and the overflow is reported as `dropped`.

use medvt_telemetry::{
    CounterId, Decision, Event, EventKind, FlightRecorder, HistId, Metrics, NoopRecorder, Recorder,
    CONTROL_TRACK,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn count_event() {
    ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_event();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_event();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_event();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn alloc_events() -> u64 {
    ALLOC_EVENTS.with(Cell::get)
}

fn admit(user: u32) -> EventKind {
    EventKind::Decision {
        kind: Decision::Admit,
        user,
    }
}

fn one_of_each(track: u16, slot: u32) -> [Event; 4] {
    [
        Event::new(CONTROL_TRACK, slot, EventKind::GopBoundary),
        Event::new(track, slot, admit(slot)),
        Event::new(CONTROL_TRACK, slot, EventKind::QueueDepth { depth: slot }),
        Event::new(
            track,
            slot,
            EventKind::SlotCore {
                core: 2,
                busy_ns: 1_000_000,
                carry: false,
                transition_bound: false,
            },
        ),
    ]
}

#[test]
fn noop_recorder_steady_state_allocates_nothing() {
    let rec = NoopRecorder;
    let meter = Metrics::new();
    // Warm up (nothing to warm, but keep the harness shape).
    for ev in one_of_each(0, 0) {
        rec.record(ev);
    }
    let before = alloc_events();
    for slot in 0..10_000u32 {
        for ev in one_of_each((slot % 4) as u16, slot) {
            rec.record(ev);
        }
        meter.add(CounterId::Boundaries, 1);
        meter.observe(HistId::PlacementNs, u64::from(slot) * 17);
    }
    rec.absorb(&meter);
    let after = alloc_events();
    assert_eq!(
        after - before,
        0,
        "NoopRecorder steady state must not allocate"
    );
}

#[test]
fn flight_recorder_steady_state_allocates_nothing() {
    // All allocation happens at construction (ring slots); recording
    // into the rings and updating metrics must be allocation-free.
    let rec = FlightRecorder::new(4, 1 << 10);
    let meter = Metrics::new();
    for ev in one_of_each(0, 0) {
        rec.record(ev); // warm up
    }
    let before = alloc_events();
    for slot in 0..10_000u32 {
        for ev in one_of_each((slot % 4) as u16, slot) {
            rec.record(ev);
        }
        meter.add(CounterId::Decisions, 3);
        meter.observe(HistId::BoundaryNs, u64::from(slot));
    }
    rec.absorb(&meter);
    let after = alloc_events();
    assert_eq!(
        after - before,
        0,
        "FlightRecorder steady state must not allocate"
    );
}

#[test]
fn flight_recorder_never_exceeds_ring_capacity() {
    const CAP: usize = 128;
    const WRITES: u32 = 10 * CAP as u32;
    let rec = FlightRecorder::modeled(2, CAP);
    // Hammer one shard track and the control track far past capacity.
    for slot in 0..WRITES {
        rec.record(Event::new(0, slot, admit(slot)));
        rec.record(Event::new(CONTROL_TRACK, slot, EventKind::GopBoundary));
    }
    let snap = rec.snapshot();
    for ring in &snap.rings {
        assert!(ring.capacity <= CAP);
        assert_eq!(ring.dropped, ring.recorded.saturating_sub(CAP as u64));
    }
    // Retained events per ring bounded by capacity...
    assert!(rec.events().len() <= snap.rings.len() * CAP);
    // ...nothing lost silently...
    assert_eq!(rec.recorded(), u64::from(WRITES) * 2);
    assert_eq!(rec.dropped(), u64::from(WRITES - CAP as u32) * 2);
    // ...and the retained window is the *newest* events.
    let shard_slots: Vec<u32> = rec
        .events()
        .into_iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::Decision {
                    kind: Decision::Admit,
                    ..
                }
            )
        })
        .map(|e| e.slot)
        .collect();
    assert_eq!(shard_slots.len(), CAP);
    assert_eq!(*shard_slots.first().unwrap(), WRITES - CAP as u32);
    assert_eq!(*shard_slots.last().unwrap(), WRITES - 1);
}
