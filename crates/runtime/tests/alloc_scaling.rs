//! Counting-allocator proof that the driver's per-slot cost does not
//! grow with its members: once steady members are placed and a window
//! has warmed the driver's buffers, serving one more window makes the
//! same number of heap allocations with 8 members as with 64.
//!
//! A wrapping global allocator counts every `alloc`/`realloc` of the
//! calling thread (the harness runs tests on parallel threads, so a
//! process-wide count would see the neighbours).

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

// SAFETY: delegates verbatim to `System`, only adding a counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_event();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_event();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_event();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn alloc_events() -> u64 {
    ALLOC_EVENTS.with(Cell::get)
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

const WINDOW: usize = 24;

/// Allocations made by advancing a warm driver of `members` steady
/// members through one deadline window.
fn window_allocations(members: usize) -> u64 {
    let cfg = ServerLoopConfig {
        fps: 24.0,
        slots: 0,
        policy: DvfsPolicy::StretchToDeadline,
        replan: ReplanPolicy::PerGop { headroom: 1.1 },
        gop_slots: 8,
        window_slots: Some(WINDOW),
    };
    let backend = SimBackend::new(Platform::quad_core(), PowerModel::default());
    let mut driver = LoopDriver::new(backend, cfg, (0..members).collect(), Vec::new());
    driver.advance(&Steady, WINDOW);
    let before = alloc_events();
    driver.advance(&Steady, WINDOW);
    let made = alloc_events() - before;
    let report = driver.into_report();
    assert_eq!(report.window_misses, 0, "{members} members stay on time");
    assert_eq!(report.users.len(), members);
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
