//! The trial lifecycle: an [`Experiment`] names a grid of trial
//! specifications, derives one seed per trial from its master seed, and
//! runs the trials either serially or across [`crate::par`] worker
//! threads with bit-identical results.
//!
//! The runner is deliberately domain-free: a trial specification is any
//! `S`, and the trial body is a closure `Fn(TrialCtx, &S) -> R`. Domain
//! crates (`drs-baselines`, `drs-analytic`, `drs-bench`) build their worlds
//! inside the closure from `ctx.seed`, which is what makes the parallel
//! path trivially equal to the serial one: trials share no mutable state,
//! and results are collected back in trial order.
//!
//! A completed experiment is an [`ExperimentRecord`] of [`TrialRecord`]s;
//! [`SimArtifact`] collects them into the versioned
//! `drs-bench-sim-survivability/v1` JSON artifact ([`SCHEMA`]), laid out
//! by the one artifact writer, [`drs_obs::artifact::write`].

use drs_obs::artifact::{write, Field, FieldValue};

use crate::events::TraceEvent;
use crate::par;
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
    /// Experiment name, carried into artifacts.
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

/// Schema tag written into every simulation artifact.
pub const SCHEMA: &str = "drs-bench-sim-survivability/v1";

/// The artifact row for one completed trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Human-readable trial identity (scenario × protocol, `(n, f)` cell,
    /// replication index, …). Unique within its experiment.
    pub id: String,
    /// The derived per-trial seed the trial ran under.
    pub seed: u64,
    /// Named measurements, serialized as a JSON object in this order; a
    /// measurement the trial could not produce is
    /// [`FieldValue::Missing`].
    pub metrics: Vec<Field>,
    /// The trial's event trace (may be empty).
    pub events: Vec<TraceEvent>,
}

impl TrialRecord {
    /// An empty record for a trial.
    #[must_use]
    pub fn new(id: impl Into<String>, seed: u64) -> Self {
        TrialRecord {
            id: id.into(),
            seed,
            metrics: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Appends one metric and returns `self` (builder style).
    #[must_use]
    pub fn metric(mut self, name: &'static str, value: impl Into<FieldValue>) -> Self {
        self.metrics.push(Field::new(name, value));
        self
    }

    /// Attaches an event trace and returns `self` (builder style).
    ///
    /// The trace must already be sealed — sorted by timestamp, as
    /// [`crate::TrialTrace::seal`] produces — because the serializer
    /// writes events verbatim and a misordered committed artifact would
    /// silently change bytes between producers. Debug builds assert it.
    #[must_use]
    pub fn with_events(mut self, events: Vec<TraceEvent>) -> Self {
        debug_assert!(
            events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
            "trial {}: event trace must be sealed (time-sorted) before \
             serialization — build it in a TrialTrace and seal() it",
            self.id
        );
        self.events = events;
        self
    }
}

/// A completed experiment: its trials in trial order.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Experiment name ([`Experiment::name`]).
    pub name: String,
    /// The experiment's master seed.
    pub master_seed: u64,
    /// Per-trial rows, in trial order.
    pub trials: Vec<TrialRecord>,
}

/// The whole artifact: every experiment of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimArtifact {
    /// The benchmark master seed the experiments derived theirs from.
    pub seed: u64,
    /// Experiment records, in run order.
    pub experiments: Vec<ExperimentRecord>,
}

impl SimArtifact {
    /// An artifact with no experiments yet.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SimArtifact {
            seed,
            experiments: Vec::new(),
        }
    }

    /// Appends one experiment record.
    pub fn push(&mut self, record: ExperimentRecord) {
        self.experiments.push(record);
    }

    /// The first experiment with this name, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&ExperimentRecord> {
        self.experiments.iter().find(|e| e.name == name)
    }

    /// Serializes to the [`SCHEMA`] layout: each experiment's `name`,
    /// `master_seed` and one `trials` row per line, each row an `id`, a
    /// `seed`, a `metrics` object and an `events` list — byte-identical
    /// across runs, thread counts and machines for a fixed artifact.
    #[must_use]
    pub fn to_json(&self) -> String {
        let experiments = self
            .experiments
            .iter()
            .map(|exp| {
                let trials = exp.trials.iter().map(trial_fields).collect();
                vec![
                    Field::new("name", exp.name.as_str()),
                    Field::new("master_seed", exp.master_seed),
                    Field::new("trials", FieldValue::Rows(trials)),
                ]
            })
            .collect();
        write(SCHEMA, self.seed, "experiments", experiments)
    }
}

fn trial_fields(t: &TrialRecord) -> Vec<Field> {
    let events = t
        .events
        .iter()
        .map(|e| {
            vec![
                Field::new("at_ns", e.at_ns),
                Field::new("kind", e.kind.label()),
                Field::new("detail", e.detail.as_str()),
            ]
        })
        .collect();
    vec![
        Field::new("id", t.id.as_str()),
        Field::new("seed", t.seed),
        Field::new("metrics", t.metrics.clone()),
        Field::new("events", FieldValue::List(events)),
    ]
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

    #[test]
    fn get_finds_experiments_by_name() {
        let mut artifact = SimArtifact::new(42);
        artifact.push(ExperimentRecord {
            name: "shootout".to_string(),
            master_seed: 42,
            trials: vec![TrialRecord::new("hub/drs", 7).metric("sent", 40_u64)],
        });
        assert!(artifact.get("shootout").is_some());
        assert!(artifact.get("absent").is_none());
    }
}
