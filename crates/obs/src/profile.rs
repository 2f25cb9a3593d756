//! Engine profiling hooks.
//!
//! Hot paths (`analytic::sweep`, `harness::experiment`) accept a
//! `&dyn Profiler` so wall-clock instrumentation can be switched on for a
//! human at a terminal and compiled-in-but-inert everywhere else. The
//! contract that keeps committed artifacts byte-stable: profilers only
//! *observe* phase durations, they never feed data back into the
//! experiment, and [`NullProfiler`] (the default everywhere) records
//! nothing at all. Wall-clock numbers collected by [`WallProfiler`] are
//! non-deterministic by nature and must never be serialized into a
//! committed artifact — print them, don't commit them.

use std::sync::Mutex;
use std::time::Instant;

use crate::registry::MetricsRegistry;

/// A sink for named phase durations. `Sync` because the harness fan-out
/// reports from worker threads.
pub trait Profiler: Sync {
    /// Whether recording does anything — lets hot paths skip building
    /// labels for a disabled profiler.
    fn enabled(&self) -> bool;

    /// Records that `phase` took `dur_ns` nanoseconds (one sample of a
    /// per-phase histogram).
    fn record(&self, phase: &str, dur_ns: u64);
}

/// The default profiler: discards everything. With this installed the
/// instrumented code paths are observationally identical to the
/// un-instrumented ones — which is what keeps `BENCH_*.json` artifacts
/// byte-unchanged when profiling is off.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProfiler;

impl Profiler for NullProfiler {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _phase: &str, _dur_ns: u64) {}
}

/// A wall-clock profiler: per-phase duration histograms behind a mutex.
///
/// The mutex is on the *reporting* path only (a few hundred nanoseconds
/// per phase, against phases that run for micro- to milliseconds), and
/// histogram merge order cannot matter — so enabling it does not perturb
/// the experiment results, only measures them.
#[derive(Debug, Default)]
pub struct WallProfiler {
    registry: Mutex<MetricsRegistry>,
}

impl WallProfiler {
    /// A profiler with nothing recorded yet.
    #[must_use]
    pub fn new() -> Self {
        WallProfiler::default()
    }

    /// Times `f` on the monotonic wall clock and records the duration
    /// under `phase`.
    pub fn time<R>(&self, phase: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let dur = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.record(phase, dur);
        out
    }

    /// A snapshot of everything recorded so far.
    #[must_use]
    pub fn report(&self) -> MetricsRegistry {
        self.registry
            .lock()
            .expect("profiler mutex poisoned")
            .clone()
    }
}

impl Profiler for WallProfiler {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, phase: &str, dur_ns: u64) {
        self.registry
            .lock()
            .expect("profiler mutex poisoned")
            .record(phase, dur_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_profiler_is_inert() {
        let p = NullProfiler;
        assert!(!p.enabled());
        p.record("anything", 123);
    }

    #[test]
    fn wall_profiler_accumulates_phase_histograms() {
        let p = WallProfiler::new();
        assert!(p.enabled());
        p.record("enumerate", 100);
        p.record("enumerate", 300);
        p.record("serialize", 50);
        let report = p.report();
        let h = report.histogram("enumerate").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(300));
        assert_eq!(report.histogram("serialize").unwrap().count(), 1);
    }

    #[test]
    fn time_returns_the_closure_result_and_records_one_sample() {
        let p = WallProfiler::new();
        let v = p.time("phase", || 6 * 7);
        assert_eq!(v, 42);
        assert_eq!(p.report().histogram("phase").unwrap().count(), 1);
    }

    #[test]
    fn profiler_trait_objects_work_across_threads() {
        let p = WallProfiler::new();
        let profiler: &dyn Profiler = &p;
        std::thread::scope(|s| {
            for i in 0..4u64 {
                s.spawn(move || profiler.record("cell", i + 1));
            }
        });
        assert_eq!(p.report().histogram("cell").unwrap().count(), 4);
    }
}
