//! Counting-allocator proofs that the driver grows with neither its
//! members nor the users it has served:
//!
//! * once steady members are placed and a window has warmed the
//!   driver's buffers, serving one more window makes the same number of
//!   heap allocations with 8 members as with 64;
//! * two drivers that replace all 8 members at every GOP boundary for
//!   1 250 GOPs, one re-admitting the same ids and one drawing fresh
//!   ids (10⁴ users in all), end holding the same live heap.
//!
//! A wrapping global allocator counts every `alloc`/`realloc` of the
//! calling thread and keeps its live bytes (the harness runs tests on
//! parallel threads, so a process-wide count would see the neighbours);
//! the tests spawn no thread of their own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor, so touching them from
    // inside the allocator neither allocates nor registers anything.
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

/// Books one allocator call that changes the live heap by `bytes`.
fn count(event: bool, bytes: isize) {
    if event {
        ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
    }
    LIVE_BYTES.with(|c| c.set(c.get() + bytes));
}

// SAFETY: delegates verbatim to `System`, only adding counters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(true, layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(true, layout.size() as isize);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(true, new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(false, -(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn alloc_events() -> u64 {
    ALLOC_EVENTS.with(Cell::get)
}

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

use medvt_mpsoc::{DvfsPolicy, Platform, PowerModel};
use medvt_runtime::{DemandSource, LoopDriver, ReplanPolicy, ServerLoopConfig, SimBackend};

/// One steady tile of 1/4096 s per member: 64 members fill well under
/// one core of a quad core's slot.
struct Steady;

impl DemandSource for Steady {
    fn demand_at(&self, _user: usize, _slot: usize) -> Vec<f64> {
        vec![1.0 / 4096.0]
    }

    fn steady(&self, _user: usize) -> bool {
        true
    }
}

const GOP: usize = 8;
const WINDOW: usize = 24;

/// An empty-handed driver on a quad core: 8-slot GOPs, 24-slot windows.
fn driver(members: Vec<usize>) -> LoopDriver<SimBackend> {
    let cfg = ServerLoopConfig {
        fps: 24.0,
        slots: 0,
        policy: DvfsPolicy::StretchToDeadline,
        replan: ReplanPolicy::PerGop { headroom: 1.1 },
        gop_slots: GOP,
        window_slots: Some(WINDOW),
    };
    let backend = SimBackend::new(Platform::quad_core(), PowerModel::default());
    LoopDriver::new(backend, cfg, members, Vec::new())
}

/// Allocations made by advancing a warm driver of `members` steady
/// members through one deadline window.
fn window_allocations(members: usize) -> u64 {
    let mut driver = driver((0..members).collect());
    driver.advance(&Steady, WINDOW);
    let before = alloc_events();
    driver.advance(&Steady, WINDOW);
    let made = alloc_events() - before;
    let report = driver.into_report();
    assert_eq!(report.window_misses, 0, "{members} members stay on time");
    made
}

#[test]
fn window_allocations_do_not_scale_with_members() {
    let (few, many) = (window_allocations(8), window_allocations(64));
    assert_eq!(
        few, many,
        "a window made {few} allocations with 8 members, {many} with 64"
    );
}

const MEMBERS: usize = 8;
const GOPS: usize = 1250;

/// Live bytes a driver holds after `GOPS` GOPs in which every member
/// leaves at each boundary and `id(gop, k)` joins in its place.
fn held_after_churn(id: impl Fn(usize, usize) -> usize) -> isize {
    let before = live_bytes();
    let mut driver = driver(Vec::new());
    let mut members = Vec::new();
    for gop in 0..GOPS {
        let joining: Vec<usize> = (0..MEMBERS).map(|k| id(gop, k)).collect();
        driver.update_membership(&joining, &members);
        driver.advance(&Steady, GOP);
        members = joining;
    }
    let held = live_bytes() - before;
    let report = driver.into_report();
    assert!(report.windows > 0);
    assert_eq!(report.window_misses, 0, "every window is on time");
    held
}

#[test]
fn driver_state_does_not_grow_with_users_served() {
    let same = held_after_churn(|_, k| k);
    let fresh = held_after_churn(|gop, k| gop * MEMBERS + k);
    assert_eq!(
        fresh - same,
        0,
        "{} fresh users held {fresh} bytes, the same {MEMBERS} re-admitted {same}",
        GOPS * MEMBERS
    );
}
