//! Allocation pin for the sharded epoch loop: once warmed up, a
//! four-shard world allocates nothing. A counting global
//! allocator over [`System`] counts every `alloc` and `realloc`; the
//! paper's cluster (per-pair monitor, K = 2) warms up, and the next 2 s of
//! virtual time must not allocate at all, at N ∈ {32, 90}.
//!
//! What it protects, with the window's count at (N = 32, N = 90) before
//! the loop was made allocation-free — (46 266, 352 477) after 2 s of
//! warm-up, (46 280, 352 473) after this file's 12 s:
//!
//! * the merge keeps its heap of outbox heads in the coordinator and
//!   takes intents from the front of each outbox in place, where it used
//!   to build a heap and a list of the drained outboxes at every merge
//!   that had intents;
//! * a drained outbox keeps storage for the second-largest load it has
//!   held, so a load that recurs never reallocates, where every idle
//!   merge used to free every outbox and the next transmission
//!   reallocate it;
//! * the epoch loop builds nothing per `run_until` call.
//!
//! The warm-up is 12 s, not the 2 s of `alloc_pin.rs`: after 2 s the
//! N = 90 cell's four wheels still grow five slot buffers in the window
//! (one after 8 s), as the 200 ms probe cycle drifts across the wheels'
//! level-2 windows and a slot's load reaches a new peak. That is the
//! wheel's size-class pool, not the epoch loop (ROADMAP item 7 keeps the
//! one-shard form of it open); N = 32 allocates nothing after 2 s.
//!
//! The one-shard path is pinned by `alloc_pin.rs`. The file holds one
//! test, so no sibling test allocates inside the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use drs_core::{DrsConfig, DrsDaemon};
use drs_sim::{ClusterSpec, ShardedWorld, SimDuration, SimTime};

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

const WARM_UP: SimTime = SimTime(12_000_000_000);
const WINDOW_END: SimTime = SimTime(14_000_000_000);

#[test]
fn the_steady_state_epoch_loop_allocates_nothing() {
    let mut cells = Vec::new();
    for n in [32usize, 90] {
        // The paper's timers, as every committed artifact runs them.
        let cfg = DrsConfig::default()
            .probe_timeout(SimDuration::from_millis(50))
            .probe_interval(SimDuration::from_millis(200))
            .batched_monitor(false);
        let mut w = ShardedWorld::with_topology(ClusterSpec::new(n).seed(42), 4, 1, |id| {
            DrsDaemon::new(id, n, cfg)
        });
        w.run_until(WARM_UP);
        let (epochs, intents) = (w.shard_stats().epochs, w.shard_stats().intents);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        w.run_until(WINDOW_END);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let ss = w.shard_stats();
        cells.push((n, allocations, ss.epochs - epochs, ss.intents - intents));
    }
    for &(n, _, epochs, intents) in &cells {
        assert!(epochs > 0 && intents > 0, "n={n}: nothing ran");
    }
    assert!(
        cells.iter().all(|&(_, allocations, ..)| allocations == 0),
        "allocations in 2 steady seconds, (n, allocations, epochs, intents): {cells:?}"
    );
}
