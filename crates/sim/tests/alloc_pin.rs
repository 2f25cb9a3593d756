//! Allocation pin: once warmed up, the probe path allocates nothing. A
//! counting global allocator over [`System`] counts every `alloc` and
//! `realloc`; the paper's cluster runs 2 s of virtual time to warm up,
//! and the next 4 s must not allocate at all, at N ∈ {16, 24, 32, 48, 64,
//! 90} under both monitor drivers.
//!
//! What it protects, with the window's count at (N = 90 per-pair,
//! N = 90 batched) when that piece is missing:
//!
//! * frame boxes ride the event wheel and go back to the receiving core's
//!   spare list after dispatch (`Core::boxed` / `Core::recycle_frame`) —
//!   boxed frames without the list: (320 400, 320 400), one per frame; a
//!   list capped at a fixed 1 024 boxes: (0, 149 970), because the batched
//!   fan-out has ~16 000 frames in flight at once;
//! * the wheel's slot chunks come from, and go back to, one free list —
//!   a fresh chunk for every take instead: (122 878, 59 728);
//! * the wheel's ready buffer keeps its storage between grains — dropped
//!   whenever it empties: (118 384, 58 586);
//! * an empty free list gets an eighth more chunks than exist, at least
//!   four, not one: a slot's last chunk is partly filled, so the chunks
//!   in use wobble with how the probe cycle falls on the slots. Growing
//!   one chunk at a time allocates again at 4.8 s in every batched cell,
//!   which is why the window runs to 6 s (a 60 s run of the default rule
//!   reads zero from 139 ms on); with 32-entry chunks every batched size
//!   allocated once inside the window.
//!
//! The file holds one test, so no sibling test allocates inside the
//! window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use drs_core::{DrsConfig, DrsDaemon};
use drs_sim::{ClusterSpec, SimDuration, SimTime, World};

/// Every `alloc` and `realloc` since the process started.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: forwards every call to `System` unchanged; the counter is a
// side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_UP: SimTime = SimTime(2_000_000_000);
const WINDOW_END: SimTime = SimTime(6_000_000_000);

#[test]
fn the_steady_state_probe_path_allocates_nothing() {
    let mut cells = Vec::new();
    for n in [16usize, 24, 32, 48, 64, 90] {
        for batched in [false, true] {
            // The paper's timers, as every committed artifact runs them.
            let cfg = DrsConfig::default()
                .probe_timeout(SimDuration::from_millis(50))
                .probe_interval(SimDuration::from_millis(200))
                .batched_monitor(batched);
            let mut w = World::new(ClusterSpec::new(n).seed(42), |id| {
                DrsDaemon::new(id, n, cfg)
            });
            w.run_until(WARM_UP);
            let pops = w.kernel_stats().wheel.pops;
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            w.run_until(WINDOW_END);
            let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
            let events = w.kernel_stats().wheel.pops - pops;
            cells.push((n, batched, allocations, events));
        }
    }
    for &(n, batched, _, events) in &cells {
        assert!(events > 0, "n={n} batched={batched}: nothing ran");
    }
    assert!(
        cells.iter().all(|&(.., allocations, _)| allocations == 0),
        "allocations in 4 steady seconds, (n, batched, allocations, events): {cells:?}"
    );
}
