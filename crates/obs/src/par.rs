//! Order-preserving parallel map over `0..len` on scoped threads — the
//! one fan-out primitive behind `drs_harness::RunMode::Parallel`, the
//! analytic sweeps, the block-split enumerators and estimators, the
//! convergence study and the Perfetto export.
//!
//! Workers claim indices one at a time from a shared counter (cells of a
//! sweep differ in cost by orders of magnitude, so a static split would
//! idle), and results come back sorted by index: for a pure `f` the
//! output equals `(0..len).map(f)` whatever the worker count or
//! scheduling. A call made from inside a worker runs inline, so nested
//! fan-outs (`run_sweep` → `enumerate_*_parallel`) never multiply threads.
//!
//! [`concat_on`] is the same fan-out for text: workers claim blocks the
//! same way, and each appends its block to one output `String` in block
//! order as soon as the blocks before it are in, so the text is never
//! held twice.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};
use std::thread;

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// How many workers [`map`] would use for a large input: the host's
/// available parallelism, or 1 when called from inside a worker.
///
/// The count is read once per process: asking the OS reads the cgroup
/// files and allocates, and every estimate, walk, export and pipelined
/// run asks again.
#[must_use]
pub fn workers() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    if IN_WORKER.get() {
        1
    } else {
        *CPUS.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
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
    // by the joins in `spawn`.
    let next = AtomicUsize::new(0);
    let parts = spawn(workers, || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                return done;
            }
            done.push((i, f(i)));
        }
    });
    let mut done = Vec::with_capacity(len);
    parts.into_iter().for_each(|part| done.extend(part));
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Appends `blocks` blocks of text to `out`, in block order, formatted on
/// up to `workers` threads (capped by `blocks`): `fill(b, buf)` appends
/// block `b`'s bytes to `buf`.
///
/// Each worker claims blocks from a shared counter as [`map_on`] claims
/// items, formats each into one buffer it reuses (sized from `out`'s spare
/// capacity per block, so when the caller reserved the whole text neither
/// the buffers nor `out` regrow), checks it is UTF-8, then waits for its
/// block's turn and `push_str`s it. The lowest unappended block is always
/// held by a worker that is formatting it or about to append it, so the
/// waits end. A call from inside a worker, or with one worker or one
/// block, runs inline: straight into `out`'s bytes, then one UTF-8 check.
///
/// # Panics
/// Re-raises the panic of any worker, with its original payload (a block
/// that is not UTF-8 is such a panic); the workers waiting on a later
/// block stop instead of waiting for it.
pub fn concat_on(
    workers: usize,
    blocks: usize,
    out: &mut String,
    fill: impl Fn(usize, &mut Vec<u8>) + Sync,
) {
    let workers = workers.min(blocks);
    if workers <= 1 || IN_WORKER.get() {
        let mut bytes = std::mem::take(out).into_bytes();
        (0..blocks).for_each(|b| fill(b, &mut bytes));
        *out = String::from_utf8(bytes).expect("every block is UTF-8");
        return;
    }
    let block_bytes = (out.capacity() - out.len()) / blocks;
    // Relaxed: the counter only hands out blocks; the text is published
    // under the lock.
    let next = AtomicUsize::new(0);
    let turn = Mutex::new(Turn {
        next: 0,
        failed: false,
        out,
    });
    let ready = Condvar::new();
    spawn(workers, || {
        let _wake = WakeOnPanic(&turn, &ready);
        let mut buf = Vec::with_capacity(block_bytes);
        loop {
            let b = next.fetch_add(1, Ordering::Relaxed);
            if b >= blocks {
                return;
            }
            buf.clear();
            fill(b, &mut buf);
            let text = std::str::from_utf8(&buf).expect("every block is UTF-8");
            let mut t = turn.lock().expect(UNPOISONED);
            while t.next != b && !t.failed {
                t = ready.wait(t).expect(UNPOISONED);
            }
            if t.failed {
                return;
            }
            t.out.push_str(text);
            t.next += 1;
            drop(t);
            ready.notify_all();
        }
    });
}

/// Runs `work` on `workers` scoped threads marked as workers and returns
/// what each returned, in spawn order.
///
/// # Panics
/// Re-raises the panic of any worker, with its original payload.
fn spawn<R: Send>(workers: usize, work: impl Fn() -> R + Sync) -> Vec<R> {
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.set(true);
                    work()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e))
            })
            .collect()
    })
}

/// Nothing that can panic runs under [`concat_on`]'s lock: `push_str`
/// into a `String` fails only by aborting.
const UNPOISONED: &str = "no worker panics holding the lock";

/// [`concat_on`]'s shared state: the next block to append, whether a
/// worker died, and the text.
struct Turn<'a> {
    next: usize,
    failed: bool,
    out: &'a mut String,
}

/// Marks the fan-in failed and wakes every waiter when a worker unwinds,
/// so no worker waits for a block that will never come.
struct WakeOnPanic<'a, 'b>(&'a Mutex<Turn<'b>>, &'a Condvar);

impl Drop for WakeOnPanic<'_, '_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.lock().unwrap_or_else(PoisonError::into_inner).failed = true;
            self.1.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equals_the_serial_map_at_every_worker_count() {
        for len in [0usize, 1, 2, 1000] {
            let serial: Vec<u64> = (0..len).map(|i| crate::rng::mix64(i as u64)).collect();
            for workers in 1..=8 {
                let got = map_on(workers, len, |i| crate::rng::mix64(i as u64));
                assert_eq!(got, serial, "len={len} workers={workers}");
            }
            assert_eq!(
                map(len, |i| crate::rng::mix64(i as u64)),
                serial,
                "len={len}"
            );
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

    /// Block `b` of the concatenation tests: its index, a varying number
    /// of times, and a two-byte character so a split would show.
    fn block(b: usize, buf: &mut Vec<u8>) {
        for _ in 0..b % 7 + 1 {
            buf.extend_from_slice(format!("{b}é,").as_bytes());
        }
    }

    #[test]
    fn concat_equals_the_serial_text_at_every_worker_count() {
        for blocks in [0usize, 1, 2, 3, 100] {
            let mut serial = String::from("head:");
            (0..blocks).for_each(|b| {
                let mut buf = Vec::new();
                block(b, &mut buf);
                serial.push_str(std::str::from_utf8(&buf).unwrap());
            });
            for workers in 1..=8 {
                let mut out = String::with_capacity(64);
                out.push_str("head:");
                concat_on(workers, blocks, &mut out, block);
                assert_eq!(out, serial, "blocks={blocks} workers={workers}");
            }
        }
    }

    #[test]
    fn concat_inside_a_worker_runs_inline() {
        let inline = map_on(2, 2, |_| {
            let me = thread::current().id();
            let mut out = String::new();
            concat_on(4, 8, &mut out, |b, buf| {
                assert_eq!(thread::current().id(), me);
                block(b, buf);
            });
            out
        });
        let mut serial = String::new();
        concat_on(1, 8, &mut serial, block);
        assert_eq!(inline, [serial.clone(), serial]);
    }

    /// Block 0 panics once block 1 is being formatted, so block 1's
    /// worker waits for a turn that never comes unless it is woken; the
    /// payload must reach the caller.
    #[test]
    #[should_panic(expected = "block 0 exploded")]
    fn a_panicking_block_wakes_the_waiters_and_propagates() {
        crate::flight::testkit::returns_within_ten_seconds(|| {
            let both_started = std::sync::Barrier::new(2);
            let mut out = String::new();
            concat_on(2, 40, &mut out, |b, buf| {
                if b < 2 {
                    both_started.wait();
                }
                assert!(b != 0, "block {b} exploded");
                block(b, buf);
            });
        });
    }

    #[test]
    #[should_panic(expected = "every block is UTF-8")]
    fn a_block_that_is_not_utf8_is_a_panic() {
        crate::flight::testkit::returns_within_ten_seconds(|| {
            let mut out = String::new();
            concat_on(2, 4, &mut out, |b, buf| {
                buf.push(if b == 3 { 0xFF } else { b'x' })
            });
        });
    }
}
