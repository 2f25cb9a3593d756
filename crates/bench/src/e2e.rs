//! End-to-end survivability trials: the packet-level simulator with real
//! DRS daemons checked, trial by trial, against the combinatorial
//! connectivity predicate behind Equation 1.
//!
//! The trial itself is [`crate::trial::run_trial`] at `K = 2` — the
//! paper's cluster, run on forks of one converged cluster per `n`
//! ([`crate::trial::TrialBases`]); this module holds the `(n, f)` grid, the harness
//! fan-out and the record shape that carries the trials into the
//! committed `BENCH_sim_survivability.json`.

use drs_harness::{Experiment, ExperimentRecord, RunMode, TrialRecord};

use crate::trial::{Trial, TrialBases};

/// The `(n, f)` configurations the end-to-end cross-check runs over.
pub const E2E_GRID: [(usize, usize); 5] = [(6, 2), (8, 2), (8, 3), (10, 4), (12, 5)];

/// Runs one `(n, f)` cell as a [`drs_harness::Experiment`] of `trials`
/// replications under `master_seed`, each on a fork of the `n`-host base
/// in `bases`; trial order is stable across modes.
#[must_use]
pub fn run_cell(
    bases: &mut TrialBases,
    n: usize,
    f: usize,
    trials: usize,
    master_seed: u64,
    mode: RunMode,
) -> Vec<Trial> {
    let exp = Experiment::replications(&format!("e2e/n{n}_f{f}"), master_seed, trials);
    let base = bases.get(n, 2);
    exp.run(mode, |ctx, ()| base.run(f, ctx.seed))
}

/// Folds a cell's trials into the artifact form.
#[must_use]
pub fn cell_record(n: usize, f: usize, master_seed: u64, rows: &[Trial]) -> ExperimentRecord {
    let trials = rows
        .iter()
        .enumerate()
        .map(|(i, t)| {
            TrialRecord::new(format!("t{i:02}"), t.seed)
                .metric("predicted", u64::from(t.predicted))
                .metric("delivered", u64::from(t.delivered))
                .metric("agree", u64::from(t.agrees()))
                .with_events(t.events.clone())
        })
        .collect();
    ExperimentRecord {
        name: format!("e2e/n{n}_f{f}"),
        master_seed,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_agrees_with_the_predicate() {
        let rows = run_cell(&mut TrialBases::default(), 6, 2, 8, 42, RunMode::Parallel);
        assert_eq!(rows.len(), 8);
        for t in &rows {
            assert!(t.agrees(), "seed {} disagreed: {t:?}", t.seed);
        }
    }

    #[test]
    fn cell_runs_are_mode_independent() {
        let mut bases = TrialBases::default();
        let serial = run_cell(&mut bases, 6, 2, 6, 7, RunMode::Serial);
        let parallel = run_cell(&mut bases, 6, 2, 6, 7, RunMode::Parallel);
        assert_eq!(serial, parallel);
        assert_eq!(
            cell_record(6, 2, 7, &serial),
            cell_record(6, 2, 7, &parallel)
        );
    }
}
