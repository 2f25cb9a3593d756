//! Property tests for the experiment harness: the serial and parallel
//! trial paths must be indistinguishable — result-for-result — for every
//! experiment shape, and the seed stream must behave like an injective
//! hash of `(master, index)`.
//!
//! Each property is a loop over [`CASES`] seeded parameter draws; every
//! assertion prints the failing case, and `case_rng(index)` reruns it.

use drs_obs::rng::Rng;

use drs_harness::{stream_seed, Experiment, RunMode, TrialCtx};

/// A deterministic trial body with enough structure to notice ordering
/// bugs: the result depends on the trial's index, seed, and spec.
fn trial_body(ctx: TrialCtx, spec: &u64) -> (String, u64, u64, f64) {
    let mixed = ctx.seed ^ spec;
    (
        format!("trial-{}", ctx.index),
        ctx.seed,
        mixed % 1_000,
        mixed as f64 / u64::MAX as f64,
    )
}

/// Draws per property.
const CASES: u64 = 256;

fn case_rng(case: u64) -> Rng {
    Rng::seed_from_u64(0x4A12_0E55 ^ case)
}

/// `Experiment::run` with the serial path and the threaded path produce
/// identical results in trial order — the tentpole determinism
/// guarantee. The forced four-worker run keeps real threads in play on a
/// one-CPU host, where `RunMode::Parallel` alone would run inline.
#[test]
fn serial_and_parallel_results_are_identical() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let master = rng.next_u64();
        let specs: Vec<_> = (0..rng.gen_range(0usize..40))
            .map(|_| rng.next_u64())
            .collect();
        let ctx = format!("case {case}: master={master} specs={specs:?}");
        let exp = Experiment::with_trials("prop", master, specs);
        let serial = exp.run(RunMode::Serial, trial_body);
        assert_eq!(serial.len(), exp.trials.len(), "{ctx}");
        assert_eq!(serial, exp.run(RunMode::Parallel, trial_body), "{ctx}");
        assert_eq!(
            serial,
            exp.run_parallel_on(4, trial_body),
            "{ctx}: 4 workers"
        );
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

/// The serial path accepts stateful (`FnMut`) bodies and still visits
/// trials in order — the contract replication studies fold over.
#[test]
fn serial_visits_trials_in_order() {
    let exp = Experiment::with_trials("order", 3, (0..10u64).collect());
    let mut seen = Vec::new();
    exp.run_serial(|ctx, spec| seen.push((ctx.index, *spec)));
    assert_eq!(seen, (0..10).map(|i| (i as usize, i)).collect::<Vec<_>>());
}
