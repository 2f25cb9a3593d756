//! End-to-end survivability trials: the packet-level simulator with real
//! DRS daemons checked, trial by trial, against the combinatorial
//! connectivity predicate behind Equation 1.
//!
//! The trial itself is [`crate::trial::run_trial`] at `K = 2` — the
//! paper's cluster, run on forks of one converged cluster per `n`
//! ([`crate::trial::TrialBases`]); this module holds the `(n, f)` grid and
//! the harness fan-out. [`crate::sim_artifact::cell_record`] carries the
//! trials into the committed `BENCH_sim_survivability.json`.

use drs_harness::{Experiment, RunMode};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_artifact::cell_record;

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
