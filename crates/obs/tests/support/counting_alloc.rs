//! The counting global allocator behind the allocation pins; each pin
//! file declares it as a module (`#[path]` from outside this crate):
//!
//! ```ignore
//! #[path = "support/counting_alloc.rs"]
//! mod counting_alloc;
//! ```
//!
//! It forwards every call to [`System`] and counts each `alloc` and
//! `realloc` in a thread-local counter, so a pin counts only what its own
//! thread allocates. A process-wide counter also caught the test
//! harness's main thread, which allocated inside the window whenever the
//! scheduler delayed it (4 stray allocations under CPU load).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const`-initialised and without a destructor, so reading it never
    // allocates or registers anything from inside the allocator.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Runs `f` and returns its result with the number of `alloc` and
/// `realloc` calls the calling thread made inside it.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

struct Counting;

// SAFETY: forwards every call to `System` unchanged; the counter is a
// side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;
