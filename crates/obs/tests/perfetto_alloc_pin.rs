//! Allocation pins: `to_perfetto` allocates its output buffer and nothing
//! else, and `perfetto_len` allocates nothing. The counting global
//! allocator (`support/counting_alloc.rs`) counts every `alloc` and
//! `realloc` the test thread makes while one 12 288-record log — 32 hosts
//! on two planes and plane-less, and the hub fault records on both
//! planes, 98 tracks in all — is exported.
//!
//! What it protects: the event lines are written as bytes into a buffer
//! sized once (`128 + 192` B per record; the log averages 178 B), the
//! track set is a bitmap on the stack, and the track metadata lines are
//! written without `format!` / `json_string` temporaries. The writer
//! this one replaced (`core::fmt` lines, a `BTreeMap` of tracks and four
//! `String`s per track) made 418 allocations on this log.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use drs_obs::flight::{
    perfetto_len, to_perfetto, EventRef, FlightLog, TraceKind, TraceRecord, PERFETTO_BLOCK,
    PERFETTO_SERIAL,
};

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
    let (text, allocations) = counting_alloc::count(|| to_perfetto(&log));
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

/// A log longer than `PERFETTO_SERIAL` records fans out: the calling
/// thread allocates the output and what starting the workers takes, the
/// same at 4 blocks as at 40, and the output is never regrown (a worker
/// appending past its capacity would reallocate it). One export runs
/// first, so process-wide one-time set-up of the first spawned threads
/// falls outside both windows.
// Four blocks already fan out.
const _: () = assert!(4 * PERFETTO_BLOCK > PERFETTO_SERIAL);

#[test]
fn the_fanned_out_export_allocates_the_same_at_any_length() {
    let _ = to_perfetto(&cluster_log(4 * PERFETTO_BLOCK as u64));
    let mut counts = Vec::new();
    for blocks in [4, 40] {
        let log = cluster_log((blocks * PERFETTO_BLOCK) as u64);
        let (text, allocations) = counting_alloc::count(|| to_perfetto(&log));
        assert_eq!(text.capacity(), 128 + 192 * log.records.len(), "regrown");
        counts.push(allocations);
    }
    eprintln!("calling-thread allocations at 4 and 40 blocks: {counts:?}");
    assert_eq!(counts[0], counts[1], "allocations at 4 and at 40 blocks");
}

#[test]
fn the_byte_count_allocates_nothing() {
    let log = cluster_log(12_288);
    let (len, allocations) = counting_alloc::count(|| perfetto_len(&log));
    assert_eq!(len, to_perfetto(&log).len());
    assert_eq!(
        allocations, 0,
        "perfetto_len made {allocations} allocations"
    );
}
