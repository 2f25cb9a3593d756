//! Allocation pin: once warmed up, the probe path allocates nothing. The
//! counting global allocator (`crates/obs/tests/support/counting_alloc.rs`)
//! counts every `alloc` and `realloc` the test thread makes; the paper's
//! cluster runs 2 s of virtual time to warm up, and the next 4 s must
//! not allocate at all, at N ∈ {16, 24, 32, 48, 64, 90} under both
//! monitor drivers, with the flight recorder off and on.
//! Untraced probes ride inside their wheel events; traced ones carry a
//! flight identity, so they wait in their segment's FIFO of frames in
//! flight, and the traced cells are the ones that keep those FIFOs from
//! allocating.
//!
//! What it protects, with the window's count at (N = 90 per-pair,
//! N = 90 batched) when that piece is missing:
//!
//! * each segment's FIFO of frames in flight (`Core::frames`) keeps the
//!   storage it grew to in the warm-up — shrunk to fit after every pop
//!   instead: (979 000, 961 640) traced, where the window carries
//!   640 800 requests and replies, and (0, 0) untraced;
//! * the wheel's slot chunks come from, and go back to, one free list —
//!   a fresh chunk for every take instead: (122 878, 59 728);
//! * the wheel's ready buffer keeps its storage between grains — dropped
//!   whenever it empties: (118 384, 58 586);
//! * an empty free list gets an eighth more chunks than exist, at least
//!   four, not one: a slot's last chunk is partly filled, so the chunks
//!   in use wobble with how the probe cycle falls on the slots. Growing
//!   one chunk at a time allocates again at 4.8 s in every batched cell,
//!   traced or not, which is why the window runs to 6 s (a 60 s run of
//!   the default rule reads zero from 139 ms on); with 32-entry chunks
//!   every batched size allocated once inside the window.
//!
//! The two wheel counts are the untraced cells'; tracing changes no
//! event, so the traced cells queue the same schedule.

#[path = "../../obs/tests/support/counting_alloc.rs"]
mod counting_alloc;

use drs_core::{DrsConfig, DrsDaemon};
use drs_sim::{ClusterSpec, SimDuration, SimTime, World};

const WARM_UP: SimTime = SimTime(2_000_000_000);
const WINDOW_END: SimTime = SimTime(6_000_000_000);
/// The flight ring's capacity in the traced cells: the recorder reserves
/// up to 4 096 records up front, so a ring this size never grows.
const FLIGHT_CAP: usize = 4096;

#[test]
fn the_steady_state_probe_path_allocates_nothing() {
    let mut cells = Vec::new();
    for n in [16usize, 24, 32, 48, 64, 90] {
        for batched in [false, true] {
            for traced in [false, true] {
                // The paper's timers, as every committed artifact runs them.
                let cfg = DrsConfig::default()
                    .probe_timeout(SimDuration::from_millis(50))
                    .probe_interval(SimDuration::from_millis(200))
                    .batched_monitor(batched);
                let mut w = World::new(ClusterSpec::new(n).seed(42), |id| {
                    DrsDaemon::new(id, n, cfg)
                });
                if traced {
                    w.enable_flight(FLIGHT_CAP);
                }
                w.run_until(WARM_UP);
                let pops = w.kernel_stats().wheel.pops;
                let ((), allocations) = counting_alloc::count(|| w.run_until(WINDOW_END));
                let events = w.kernel_stats().wheel.pops - pops;
                cells.push((n, batched, traced, allocations, events));
            }
        }
    }
    for &(n, batched, traced, _, events) in &cells {
        assert!(
            events > 0,
            "n={n} batched={batched} traced={traced}: nothing ran"
        );
    }
    assert!(
        cells.iter().all(|&(.., allocations, _)| allocations == 0),
        "allocations in 4 steady seconds, (n, batched, traced, allocations, events): {cells:?}"
    );
}

/// A pipelined fluid run recycles its two batch buffers: the kernel's
/// thread allocates what starting the engine's worker takes (the scoped
/// thread), the same for a 1 ms run that hands over no full batch as for
/// a 1 s and a 2 s one, however many batches each hands over, and
/// whether or not the worker kept up. A shrunk million cell — 8 hosts
/// × 4 000 closed-loop users, 250 ms think and 500 ms holding times, so
/// about 4 batches of transitions a second — runs 2 s first, so the
/// probe path, the wheel and the second buffer are grown and every
/// session has one pending event, then each window is counted on the
/// test's thread alone. With one CPU `run_until` applies the batches on
/// this thread, where the engine's own growth counts, so there is
/// nothing to pin.
#[test]
fn a_pipelined_fluid_run_allocates_the_same_at_any_length() {
    use drs_sim::{ArrivalProcess, ClassSpec, HoldingDist, WorkloadSpec};
    if drs_obs::par::workers() < 2 {
        eprintln!("one CPU: the fluid batches are applied inline, no pipeline to pin");
        return;
    }
    let window = |span: SimDuration| {
        let n = 8;
        let cfg = DrsConfig::default()
            .probe_timeout(SimDuration::from_millis(50))
            .probe_interval(SimDuration::from_millis(200));
        let mut w = World::new(ClusterSpec::new(n).seed(31), |id| {
            DrsDaemon::new(id, n, cfg)
        });
        w.enable_workload(WorkloadSpec {
            arrivals: ArrivalProcess::Closed {
                per_host: 4_000,
                think_mean_ns: 250_000_000,
            },
            holding: HoldingDist::Exponential {
                mean_ns: 500_000_000,
            },
            classes: vec![ClassSpec { rate_bps: 64_000 }],
            horizon: SimTime(10_000_000_000),
        });
        w.run_until(WARM_UP);
        let before = w.workload_events();
        let end = WARM_UP + span;
        let ((), allocations) = counting_alloc::count(|| w.run_until(end));
        (allocations, w.workload_events() - before)
    };
    let none = window(SimDuration::from_millis(1));
    let (short, long) = (
        window(SimDuration::from_secs(1)),
        window(SimDuration::from_secs(2)),
    );
    eprintln!(
        "kernel-thread (allocations, session events) in 1 ms, 1 s and 2 s: {none:?} {short:?} {long:?}"
    );
    assert!(none.1 < 1 << 14, "the 1 ms run fills no batch");
    assert!(
        long.1 > short.1 + 4 * (1 << 14),
        "the longer run hands over more batches"
    );
    assert_eq!(
        short.0, long.0,
        "allocations in a 1 s and a 2 s pipelined run"
    );
    assert_eq!(
        none.0, short.0,
        "allocations in a pipelined run that hands over no full batch and in a 1 s one"
    );
}
