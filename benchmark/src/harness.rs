//! The measurement protocol shared by every workload: one child process
//! runs one workload as a sequence of repetitions, each
//! *setup → run → harvest → check*, discards the warm-up repetitions and
//! reports medians over the timed ones.
//!
//! All times here are **host** wall-clock or CPU seconds. Simulated
//! (virtual) time never enters a metric without saying so in its name.

use std::time::Instant;

use drs_sim::kernel_obs::pool_hit_rate;
use drs_sim::world::KernelStats;

use crate::trace::Trace;

/// Command-line options of one child run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// Host seconds the timed repetitions should fill.
    pub seconds: f64,
    pub trace: bool,
}

/// `struct rusage` on 64-bit Linux (glibc and musl agree on this layout).
#[repr(C)]
struct RawRusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    rest: [i64; 9],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// Process-wide resource counters, all threads (including exited ones).
#[derive(Debug, Clone, Copy)]
pub struct Rusage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

#[must_use]
pub fn rusage() -> Rusage {
    let mut raw = std::mem::MaybeUninit::<RawRusage>::zeroed();
    // SAFETY: `getrusage(RUSAGE_SELF = 0, ptr)` writes one `struct rusage`
    // through `ptr`; `RawRusage` has that struct's size and layout on
    // 64-bit Linux, and the buffer is zero-initialised so reading it is
    // defined even if the call fails.
    let raw = unsafe {
        let rc = getrusage(0, raw.as_mut_ptr());
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        raw.assume_init()
    };
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    Rusage {
        user_s: secs(raw.utime),
        sys_s: secs(raw.stime),
        minor_faults: raw.minflt as u64,
    }
}

/// What one repetition measured and found.
#[derive(Debug)]
pub struct Rep {
    pub setup_s: f64,
    /// Run + harvest, host wall-clock.
    pub wall_s: f64,
    /// Run + harvest, user-mode CPU over all threads.
    pub cpu_user_s: f64,
    /// Run + harvest, kernel-mode CPU over all threads (page faults show
    /// here); printed per repetition, not a metric.
    pub cpu_sys_s: f64,
    /// How many times slower than the reference machine the host ran
    /// around this repetition (`reference`); 1 until the caller has timed
    /// the rounds. The three times above are as measured, not divided by
    /// it.
    pub host_factor: f64,
    /// Minor page faults over the whole repetition.
    pub minor_faults: u64,
    /// FNV-1a over the simulated results (see `check::Digest`).
    pub digest: u64,
    /// Failed checks; empty means the repetition (one operation) passed.
    pub errors: Vec<String>,
}

/// Times the phases of one repetition. Use in order:
/// [`Self::setup`], [`Self::run`] (any number of times), [`Self::finish`].
pub struct RepTimer {
    start_faults: u64,
    setup_s: f64,
    wall_s: f64,
    cpu_user_s: f64,
    cpu_sys_s: f64,
}

impl RepTimer {
    #[must_use]
    pub fn start() -> Self {
        RepTimer {
            start_faults: rusage().minor_faults,
            setup_s: 0.0,
            wall_s: 0.0,
            cpu_user_s: 0.0,
            cpu_sys_s: 0.0,
        }
    }

    /// Times the setup phase (world/engine/input construction).
    pub fn setup<R>(&mut self, tr: &mut Trace, f: impl FnOnce(&mut Trace) -> R) -> R {
        let t = Instant::now();
        let r = tr.span("setup", f);
        self.setup_s += t.elapsed().as_secs_f64();
        r
    }

    /// Times a piece of the run or harvest phase under span `name`; the
    /// pieces add up to `wall_s` / `cpu_user_s`.
    pub fn run<R>(&mut self, tr: &mut Trace, name: &str, f: impl FnOnce(&mut Trace) -> R) -> R {
        let before = rusage();
        let t = Instant::now();
        let r = tr.span(name, f);
        self.wall_s += t.elapsed().as_secs_f64();
        let after = rusage();
        self.cpu_user_s += after.user_s - before.user_s;
        self.cpu_sys_s += after.sys_s - before.sys_s;
        r
    }

    #[must_use]
    pub fn finish(self, digest: u64, errors: Vec<String>) -> Rep {
        Rep {
            setup_s: self.setup_s,
            wall_s: self.wall_s,
            cpu_user_s: self.cpu_user_s,
            cpu_sys_s: self.cpu_sys_s,
            host_factor: 1.0,
            minor_faults: rusage().minor_faults - self.start_faults,
            digest,
            errors,
        }
    }
}

/// Named per-layer values collected during a traced run.
#[derive(Debug, Default)]
pub struct Layers(pub Vec<(&'static str, f64)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::metrics::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a declared per-layer metric"
        );
        // A ratio over an empty slice (no events in a phase) is reported
        // as 0, which JSON can carry and NaN cannot.
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// The timer wheel's own counters, as every simulator workload
    /// reports them.
    pub fn set_wheel(&mut self, ks: &KernelStats) {
        self.set("sim.wheel.pushes", ks.wheel.pushes as f64);
        self.set("sim.wheel.pops", ks.wheel.pops as f64);
        self.set("sim.wheel.cascades", ks.wheel.cascades as f64);
        self.set("sim.wheel.overflow_pushes", ks.wheel.overflow_pushes as f64);
        self.set("sim.wheel.pool_hit_rate", pool_hit_rate(ks));
    }

    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// One benchmark workload. `rep` performs one full repetition; with
/// `traced` it additionally slices the run into named spans and reads
/// the layers' own counters at the slice boundaries. `layers` runs the
/// workload's standalone layer drives and cross-driver checks (traced
/// mode only) and returns failed checks.
pub trait Workload {
    /// Repetitions discarded before timing starts.
    fn warm_reps(&self) -> usize;
    fn rep(&mut self, tr: &mut Trace, traced: bool, layers: &mut Layers) -> Rep;
    fn layers(&mut self, tr: &mut Trace, untraced_wall_s: f64, layers: &mut Layers) -> Vec<String>;
}

#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method); needs at least two samples.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |q: usize| {
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}
