//! Property tests for the experiment harness: the serial and parallel
//! trial paths must be indistinguishable — result-for-result and
//! artifact-byte-for-byte — for every experiment shape, and the seed
//! stream must behave like an injective hash of `(master, index)`.
//!
//! Each property is a loop over [`CASES`] seeded parameter draws; every
//! assertion prints the failing case, and `case_rng(index)` reruns it.

use drs_obs::rng::Rng;

use drs_harness::{
    stream_seed, Experiment, ExperimentRecord, RunMode, SimArtifact, TraceEvent, TraceEventKind,
    TrialCtx, TrialRecord,
};

/// A deterministic trial body with enough structure to notice ordering
/// bugs: the record depends on the trial's index, seed, and spec.
fn trial_record(ctx: TrialCtx, spec: &u64) -> TrialRecord {
    let mixed = ctx.seed ^ spec;
    TrialRecord::new(format!("trial-{}", ctx.index), ctx.seed)
        .metric("spec", *spec)
        .metric("mixed", mixed as f64 / u64::MAX as f64)
        .with_events(vec![TraceEvent::new(
            mixed % 1_000,
            TraceEventKind::RouteChanged,
            format!("via {}", mixed % 7),
        )])
}

/// Draws per property.
const CASES: u64 = 256;

fn case_rng(case: u64) -> Rng {
    Rng::seed_from_u64(0x4A12_0E55 ^ case)
}

fn artifact(exp: &Experiment<u64>, mode: RunMode) -> SimArtifact {
    artifact_of(exp, exp.run(mode, trial_record))
}

fn artifact_of(exp: &Experiment<u64>, trials: Vec<TrialRecord>) -> SimArtifact {
    let mut a = SimArtifact::new(exp.master_seed);
    a.push(ExperimentRecord {
        name: exp.name.clone(),
        master_seed: exp.master_seed,
        trials,
    });
    a
}

/// `Experiment::run` with the serial path and the threaded path produce
/// identical artifacts — the tentpole determinism guarantee. The forced
/// four-worker run keeps real threads in play on a one-CPU host, where
/// `RunMode::Parallel` alone would run inline.
#[test]
fn serial_and_parallel_artifacts_are_identical() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let master = rng.next_u64();
        let specs: Vec<_> = (0..rng.gen_range(0usize..40))
            .map(|_| rng.next_u64())
            .collect();
        let ctx = format!("case {case}: master={master} specs={specs:?}");
        let exp = Experiment::with_trials("prop", master, specs);
        let serial = artifact(&exp, RunMode::Serial);
        let parallel = artifact(&exp, RunMode::Parallel);
        assert_eq!(&serial, &parallel, "{ctx}");
        assert_eq!(serial.to_json(), parallel.to_json(), "{ctx}");
        let forced = artifact_of(&exp, exp.run_parallel_on(4, trial_record));
        assert_eq!(serial.to_json(), forced.to_json(), "{ctx}: 4 workers");
    }
}

/// Per-trial seeds are reproducible, independent of sibling trials,
/// and collision-free within any experiment-sized index range.
#[test]
fn trial_seeds_are_stable_and_distinct() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let master = rng.next_u64();
        let count = rng.gen_range(1usize..200);
        let ctx = format!("case {case}: master={master} count={count}");
        let exp = Experiment::replications("seeds", master, count);
        let seeds: Vec<u64> = exp.run_serial(|ctx, ()| ctx.seed);
        for (i, s) in seeds.iter().enumerate() {
            assert_eq!(*s, stream_seed(master, i as u64), "{ctx}");
        }
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), count, "{ctx}: seed collision");
    }
}

/// Artifact JSON is deterministic and structurally sane for any
/// experiment: one row per trial, no NaN/inf tokens.
#[test]
fn artifact_json_is_deterministic_and_well_formed() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let master = rng.next_u64();
        let specs: Vec<_> = (0..rng.gen_range(0usize..20))
            .map(|_| rng.next_u64())
            .collect();
        let ctx = format!("case {case}: master={master} specs={specs:?}");
        let exp = Experiment::with_trials("json", master, specs.clone());
        let a = artifact(&exp, RunMode::Parallel);
        let json = a.to_json();
        assert_eq!(
            json.clone(),
            artifact(&exp, RunMode::Parallel).to_json(),
            "{ctx}"
        );
        assert_eq!(
            json.matches("\"id\": \"trial-").count(),
            specs.len(),
            "{ctx}"
        );
        assert!(!json.contains("NaN") && !json.contains("inf"), "{ctx}");
    }
}

/// The serial path accepts stateful (`FnMut`) bodies and still visits
/// trials in order — the contract replication studies fold over.
#[test]
fn serial_visits_trials_in_order() {
    let exp = Experiment::with_trials("order", 3, (0..10u64).collect());
    let mut seen = Vec::new();
    exp.run_serial(|ctx, spec| seen.push((ctx.index, *spec)));
    assert_eq!(seen, (0..10).map(|i| (i as usize, i)).collect::<Vec<_>>());
}
