//! Allocation pin: `to_perfetto` allocates its output buffer and nothing
//! else. A counting global allocator over [`System`] counts every `alloc`
//! and `realloc` made while one 12 288-record log — 32 hosts on two
//! planes and plane-less, and the hub fault records on both planes, 98
//! tracks in all — is exported.
//!
//! What it protects: the event lines are written as bytes into a buffer
//! sized once (`128 + 192` B per record; the log averages 178 B), the
//! track set is a bitmap on the stack, and the track metadata lines are
//! written without `format!` / `json_string` temporaries. The writer
//! this one replaced (`core::fmt` lines, a `BTreeMap` of tracks and four
//! `String`s per track) made 418 allocations on this log.
//!
//! The file holds one test, so no sibling test allocates inside the
//! window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use drs_obs::flight::{to_perfetto, EventRef, FlightLog, TraceKind, TraceRecord};

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

/// A probing cluster's log, 16 records per dispatch block: a plane-less
/// timeout sweep, a hub fault, and fourteen probe sends and replies, on a
/// host that changes every block and a plane that changes every 32
/// blocks.
fn cluster_log(records: u64) -> FlightLog {
    let mut log = FlightLog::default();
    let mut prev: Option<EventRef> = None;
    for i in 0..records {
        let host = (i / 16 % 32) as u32;
        let plane = Some((i / 512 % 2) as u8);
        let (kind, host, plane) = match i % 16 {
            0 => (TraceKind::TimeoutSweep, host, None),
            2 => (TraceKind::Fault, u32::MAX, plane),
            k if k % 2 == 1 => (TraceKind::ProbeSend, host, plane),
            _ => (TraceKind::ProbeRecv, host, plane),
        };
        let rec = TraceRecord {
            time_ns: 3_000_000_000 + i * 4_001,
            seq: 1_000_000 + i,
            sub: (i % 3) as u32,
            kind,
            host,
            plane,
            arg: (i % 32) << 32 | i,
            cause: prev.filter(|_| i % 5 != 0),
        };
        prev = Some(rec.self_ref());
        log.records.push(rec);
    }
    log
}

#[test]
fn the_perfetto_export_allocates_once() {
    let log = cluster_log(12_288);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let text = to_perfetto(&log);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let tracks = text.matches("\"thread_name\"").count();
    assert_eq!(tracks, 98, "the log spans 32 hosts × 3 tids + 2 tracks");
    assert!(text.len() > 150 * log.records.len(), "{} B", text.len());
    assert_eq!(
        allocations,
        1,
        "to_perfetto made {allocations} allocations on {} records, {} B",
        log.records.len(),
        text.len()
    );
}
