//! Allocation pin: `par::workers()` reads the CPU count once per process.
//! Asking the OS (`available_parallelism`) reads the cgroup files and
//! allocates; every Monte-Carlo estimate, subset walk, Perfetto export
//! and pipelined fluid run asks `workers()` again, so after the first
//! call it must allocate nothing. The counting global allocator
//! (`support/counting_alloc.rs`) counts the test thread only.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use drs_obs::par;

#[test]
fn workers_allocates_nothing_after_its_first_call() {
    let first = par::workers();
    assert!(first >= 1);
    let (largest, allocations) =
        counting_alloc::count(|| (0..1_000).map(|_| par::workers()).fold(0, usize::max));
    assert_eq!(largest, first, "the count does not change");
    assert_eq!(allocations, 0, "1 000 calls made {allocations} allocations");
}
