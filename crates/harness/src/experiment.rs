//! The trial lifecycle: an [`Experiment`] names a grid of trial
//! specifications, derives one seed per trial from its master seed, and
//! runs the trials either serially or across [`crate::par`] worker
//! threads with bit-identical results.
//!
//! The runner is deliberately domain-free: a trial specification is any
//! `S`, and the trial body is a closure `Fn(TrialCtx, &S) -> R`. Domain
//! crates (`drs-baselines`, `drs-trace`, `drs-bench`) build their worlds
//! inside the closure from `ctx.seed`, which is what makes the parallel
//! path trivially equal to the serial one: trials share no mutable state,
//! and results are collected back in trial order.

use std::time::Instant;

use drs_obs::Profiler;

use crate::par;
use crate::seed::stream_seed;

/// Everything a trial body is given about its own identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialCtx {
    /// Position of this trial in [`Experiment::trials`].
    pub index: usize,
    /// The trial's derived seed ([`stream_seed`] of the master seed).
    pub seed: u64,
    /// The experiment's master seed, for bodies that derive sub-streams.
    pub master_seed: u64,
    /// Flight-recorder ring capacity the trial body should enable on
    /// its worlds, when the experiment asked for causal tracing
    /// ([`Experiment::with_flight`]). `None` = tracing off.
    pub flight_cap: Option<usize>,
}

/// Whether to run trials on the calling thread or across worker threads.
///
/// The two modes produce identical results for any deterministic trial
/// body; [`RunMode::Parallel`] exists purely for wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Evaluate trials one at a time, in order, on the calling thread.
    Serial,
    /// Fan trials across [`par::workers`] threads; results still come
    /// back in trial order.
    Parallel,
}

/// A named grid of trials under one master seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment<S = ()> {
    /// Experiment name, carried into artifacts.
    pub name: String,
    /// Master seed; per-trial seeds are derived from it.
    pub master_seed: u64,
    /// Trial specifications, evaluated and reported in this order.
    pub trials: Vec<S>,
    /// Flight-recorder capacity handed to every trial via
    /// [`TrialCtx::flight_cap`]; `None` leaves tracing off.
    pub flight_cap: Option<usize>,
}

impl Experiment<()> {
    /// A pure replication study: `count` trials distinguished only by
    /// their derived seeds.
    #[must_use]
    pub fn replications(name: &str, master_seed: u64, count: usize) -> Self {
        Experiment {
            name: name.to_string(),
            master_seed,
            trials: vec![(); count],
            flight_cap: None,
        }
    }
}

impl<S> Experiment<S> {
    /// An empty experiment; add trials with [`Experiment::push`].
    #[must_use]
    pub fn new(name: &str, master_seed: u64) -> Self {
        Experiment {
            name: name.to_string(),
            master_seed,
            trials: Vec::new(),
            flight_cap: None,
        }
    }

    /// An experiment over an explicit trial list.
    #[must_use]
    pub fn with_trials(name: &str, master_seed: u64, trials: Vec<S>) -> Self {
        Experiment {
            name: name.to_string(),
            master_seed,
            trials,
            flight_cap: None,
        }
    }

    /// Asks every trial to run with the causal flight recorder on, with
    /// `capacity` records of ring per world. The capacity reaches trial
    /// bodies through [`TrialCtx::flight_cap`]; bodies that ignore it
    /// behave exactly as before (recording changes no simulation event).
    #[must_use]
    pub fn with_flight(mut self, capacity: usize) -> Self {
        self.flight_cap = Some(capacity);
        self
    }

    /// Adds one trial specification.
    pub fn push(&mut self, spec: S) {
        self.trials.push(spec);
    }

    /// Number of trials.
    #[must_use]
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// Whether the experiment has no trials.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    /// The derived seed for trial `index` — the same value the trial's
    /// [`TrialCtx`] carries, exposed so callers can reproduce a single
    /// trial without re-running the experiment.
    #[must_use]
    pub fn trial_seed(&self, index: usize) -> u64 {
        stream_seed(self.master_seed, index as u64)
    }

    /// The context trial `index` runs under.
    #[must_use]
    pub fn trial_ctx(&self, index: usize) -> TrialCtx {
        TrialCtx {
            index,
            seed: self.trial_seed(index),
            master_seed: self.master_seed,
            flight_cap: self.flight_cap,
        }
    }

    /// Runs every trial in order on the calling thread.
    ///
    /// Accepts `FnMut` so bodies can fold into captured state; the
    /// parallel path requires `Fn + Sync` instead.
    pub fn run_serial<R>(&self, mut body: impl FnMut(TrialCtx, &S) -> R) -> Vec<R> {
        self.trials
            .iter()
            .enumerate()
            .map(|(i, spec)| body(self.trial_ctx(i), spec))
            .collect()
    }

    /// Runs every trial across [`par::workers`] threads. Results come
    /// back in trial order, so for a deterministic body this equals
    /// [`Experiment::run_serial`] result-for-result regardless of thread
    /// count or scheduling.
    pub fn run_parallel<R>(&self, body: impl Fn(TrialCtx, &S) -> R + Sync) -> Vec<R>
    where
        S: Sync,
        R: Send,
    {
        self.run_parallel_on(par::workers(), body)
    }

    /// [`Experiment::run_parallel`] on an explicit worker count, so the
    /// serial ≡ parallel oracles exercise real threads on any host.
    pub fn run_parallel_on<R>(
        &self,
        workers: usize,
        body: impl Fn(TrialCtx, &S) -> R + Sync,
    ) -> Vec<R>
    where
        S: Sync,
        R: Send,
    {
        par::map_on(workers, self.trials.len(), |i| {
            body(self.trial_ctx(i), &self.trials[i])
        })
    }

    /// Runs under an explicit [`RunMode`] — the entry point for callers
    /// that assert serial/parallel equivalence.
    pub fn run<R>(&self, mode: RunMode, body: impl Fn(TrialCtx, &S) -> R + Sync) -> Vec<R>
    where
        S: Sync,
        R: Send,
    {
        match mode {
            RunMode::Serial => self.run_serial(body),
            RunMode::Parallel => self.run_parallel(body),
        }
    }

    /// Like [`Experiment::run`], but reports each trial's wall-clock
    /// duration to `profiler` under the experiment's name.
    ///
    /// The profiler observes; it cannot influence. Trial results are the
    /// body's alone, so `run_profiled(mode, &NullProfiler, body)` is
    /// result-for-result identical to `run(mode, body)` — which is what
    /// lets instrumentation stay compiled in under committed-artifact
    /// runs. Wall-clock numbers are inherently nondeterministic: print
    /// them, never serialize them into a committed artifact.
    pub fn run_profiled<R>(
        &self,
        mode: RunMode,
        profiler: &dyn Profiler,
        body: impl Fn(TrialCtx, &S) -> R + Sync,
    ) -> Vec<R>
    where
        S: Sync,
        R: Send,
    {
        if !profiler.enabled() {
            return self.run(mode, body);
        }
        let timed = |ctx: TrialCtx, spec: &S| {
            let start = Instant::now();
            let out = body(ctx, spec);
            let dur = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            profiler.record(&self.name, dur);
            out
        };
        self.run(mode, timed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_per_trial_and_reproducible() {
        let exp = Experiment::replications("seeds", 42, 4);
        let seeds: Vec<u64> = exp.run_serial(|ctx, ()| ctx.seed);
        assert_eq!(seeds.len(), 4);
        for (i, s) in seeds.iter().enumerate() {
            assert_eq!(*s, exp.trial_seed(i));
        }
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "trial seeds collide");
    }

    #[test]
    fn parallel_matches_serial() {
        let exp = Experiment::with_trials("grid", 7, (0..64u64).collect());
        let body = |ctx: TrialCtx, spec: &u64| (ctx.index, ctx.seed ^ spec);
        assert_eq!(exp.run_serial(body), exp.run_parallel(body));
        assert_eq!(
            exp.run(RunMode::Serial, body),
            exp.run(RunMode::Parallel, body)
        );
    }

    #[test]
    fn contexts_carry_the_master_seed() {
        let exp = Experiment::replications("ctx", 9, 2);
        for ctx in exp.run_serial(|ctx, ()| ctx) {
            assert_eq!(ctx.master_seed, 9);
        }
    }

    #[test]
    fn serial_accepts_fnmut_bodies() {
        let exp = Experiment::replications("fold", 1, 5);
        let mut total = 0usize;
        exp.run_serial(|ctx, ()| total += ctx.index);
        assert_eq!(total, (0..5).sum::<usize>());
    }

    #[test]
    fn run_profiled_matches_run_and_counts_trials() {
        use drs_obs::{NullProfiler, WallProfiler};
        let exp = Experiment::with_trials("profiled", 3, (0..8u64).collect());
        let body = |ctx: TrialCtx, spec: &u64| ctx.seed ^ spec;
        let plain = exp.run(RunMode::Serial, body);
        assert_eq!(
            exp.run_profiled(RunMode::Serial, &NullProfiler, body),
            plain
        );
        let wall = WallProfiler::new();
        assert_eq!(exp.run_profiled(RunMode::Parallel, &wall, body), plain);
        let report = wall.report();
        assert_eq!(
            report.histogram("profiled").map(|h| h.count()),
            Some(8),
            "one wall-clock sample per trial"
        );
    }

    #[test]
    fn with_flight_reaches_every_trial_ctx() {
        let exp = Experiment::replications("flight", 5, 3).with_flight(4096);
        for ctx in exp.run_serial(|ctx, ()| ctx) {
            assert_eq!(ctx.flight_cap, Some(4096));
        }
        let off = Experiment::replications("off", 5, 1);
        assert_eq!(off.trial_ctx(0).flight_cap, None);
    }

    #[test]
    fn empty_experiment_runs_to_empty() {
        let exp: Experiment<u32> = Experiment::new("empty", 0);
        assert!(exp.is_empty());
        assert_eq!(exp.len(), 0);
        let out: Vec<u64> = exp.run(RunMode::Parallel, |ctx, _| ctx.seed);
        assert!(out.is_empty());
    }
}
