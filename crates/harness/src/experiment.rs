//! The trial lifecycle: an [`Experiment`] names a grid of trial
//! specifications, derives one seed per trial from its master seed, and
//! runs the trials either serially or across [`drs_obs::par`] worker
//! threads with bit-identical results.
//!
//! The runner is deliberately domain-free: a trial specification is any
//! `S`, and the trial body is a closure `Fn(TrialCtx, &S) -> R`. Domain
//! crates (`drs-baselines`, `drs-analytic`, `drs-bench`) build their worlds
//! inside the closure from `ctx.seed`, which is what makes the parallel
//! path trivially equal to the serial one: trials share no mutable state,
//! and results are collected back in trial order.
//!
//! The runner hands back the bodies' results in trial order and nothing
//! more: what a trial records, and how it is written out, belongs to the
//! domain crate that runs it (`drs_bench::sim_artifact` turns the
//! shootout and end-to-end trials into the simulation artifact).

use drs_obs::par;

use crate::seed::stream_seed;

/// Everything a trial body is given about its own identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialCtx {
    /// Position of this trial in [`Experiment::trials`].
    pub index: usize,
    /// The trial's derived seed ([`stream_seed`] of the master seed).
    pub seed: u64,
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
    /// Experiment name.
    pub name: String,
    /// Master seed; per-trial seeds are derived from it.
    pub master_seed: u64,
    /// Trial specifications, evaluated and reported in this order.
    pub trials: Vec<S>,
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
        }
    }
}

impl<S> Experiment<S> {
    /// An experiment over an explicit trial list.
    #[must_use]
    pub fn with_trials(name: &str, master_seed: u64, trials: Vec<S>) -> Self {
        Experiment {
            name: name.to_string(),
            master_seed,
            trials,
        }
    }

    /// The derived seed for trial `index` — the value its [`TrialCtx`]
    /// carries.
    fn trial_seed(&self, index: usize) -> u64 {
        stream_seed(self.master_seed, index as u64)
    }

    /// The context trial `index` runs under.
    fn trial_ctx(&self, index: usize) -> TrialCtx {
        TrialCtx {
            index,
            seed: self.trial_seed(index),
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
    fn serial_accepts_fnmut_bodies() {
        let exp = Experiment::replications("fold", 1, 5);
        let mut total = 0usize;
        exp.run_serial(|ctx, ()| total += ctx.index);
        assert_eq!(total, (0..5).sum::<usize>());
    }

    #[test]
    fn empty_experiment_runs_to_empty() {
        let exp: Experiment<u32> = Experiment::with_trials("empty", 0, Vec::new());
        let out: Vec<u64> = exp.run(RunMode::Parallel, |ctx, _| ctx.seed);
        assert!(out.is_empty());
    }
}
