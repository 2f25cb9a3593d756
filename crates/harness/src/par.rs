//! Order-preserving parallel map over `0..len` on scoped threads — the
//! one fan-out primitive behind [`crate::RunMode::Parallel`], the
//! analytic sweeps, the block-split enumerators and the convergence study.
//!
//! Workers claim indices one at a time from a shared counter (cells of a
//! sweep differ in cost by orders of magnitude, so a static split would
//! idle), and results come back sorted by index: for a pure `f` the
//! output equals `(0..len).map(f)` whatever the worker count or
//! scheduling. A call made from inside a worker runs inline, so nested
//! fan-outs (`run_sweep` → `enumerate_*_parallel`) never multiply threads.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// How many workers [`map`] would use for a large input: the host's
/// available parallelism, or 1 when called from inside a worker.
#[must_use]
pub fn workers() -> usize {
    if IN_WORKER.get() {
        1
    } else {
        thread::available_parallelism().map_or(1, usize::from)
    }
}

/// `(0..len).map(f).collect()`, evaluated on up to [`workers`] threads.
pub fn map<R: Send>(len: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    map_on(workers(), len, f)
}

/// [`map`] on an explicit worker count (capped by `len`), for callers
/// that assert serial/parallel equivalence on hosts with one CPU.
///
/// # Panics
/// Re-raises the panic of any worker, with its original payload.
pub fn map_on<R: Send>(workers: usize, len: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let workers = workers.min(len);
    if workers <= 1 || IN_WORKER.get() {
        return (0..len).map(f).collect();
    }
    // Relaxed: the counter only hands out indices; results are published
    // by the joins below.
    let next = AtomicUsize::new(0);
    let work = || {
        IN_WORKER.set(true);
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let mut done: Vec<(usize, R)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        let mut done = Vec::with_capacity(len);
        for handle in handles {
            match handle.join() {
                Ok(part) => done.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equals_the_serial_map_at_every_worker_count() {
        for len in [0usize, 1, 2, 1000] {
            let serial: Vec<u64> = (0..len).map(|i| crate::mix64(i as u64)).collect();
            for workers in 1..=8 {
                let got = map_on(workers, len, |i| crate::mix64(i as u64));
                assert_eq!(got, serial, "len={len} workers={workers}");
            }
            assert_eq!(map(len, |i| crate::mix64(i as u64)), serial, "len={len}");
        }
    }

    #[test]
    fn runs_on_several_threads_and_keeps_index_order() {
        // A barrier only opens once all four workers hold an item, so the
        // map cannot have run inline; the output is in index order anyway.
        let barrier = std::sync::Barrier::new(4);
        let ids = map_on(4, 4, |i| {
            barrier.wait();
            (i, thread::current().id())
        });
        assert_eq!(ids.iter().map(|p| p.0).collect::<Vec<_>>(), [0, 1, 2, 3]);
        let threads: std::collections::HashSet<_> = ids.iter().map(|p| p.1).collect();
        assert_eq!(threads.len(), 4, "one item per worker thread");
        assert!(!threads.contains(&thread::current().id()));
    }

    #[test]
    fn one_worker_or_one_item_runs_inline() {
        let me = thread::current().id();
        assert_eq!(map_on(1, 3, |_| thread::current().id()), [me; 3]);
        assert_eq!(map_on(8, 1, |_| thread::current().id()), [me]);
    }

    #[test]
    fn nested_call_does_not_spawn() {
        assert!(workers() >= 1);
        let nested = map_on(2, 2, |_| {
            let me = thread::current().id();
            assert_eq!(workers(), 1, "a worker sees no spare parallelism");
            map_on(4, 8, |_| thread::current().id())
                .into_iter()
                .all(|id| id == me)
        });
        assert_eq!(nested, [true, true]);
        assert!(!IN_WORKER.get(), "the calling thread is not marked");
    }

    #[test]
    #[should_panic(expected = "item 5 exploded")]
    fn worker_panic_propagates_with_its_payload() {
        map_on(3, 10, |i| assert!(i != 5, "item {i} exploded"));
    }
}
