//! End-to-end survivability cross-check: the packet-level simulator with
//! real DRS daemons must agree, trial by trial, with the combinatorial
//! connectivity predicate behind Equation 1.
//!
//! Each configuration runs as a [`drs_harness::Experiment`] of
//! replications (see [`crate::e2e`]): the trial's failure set comes
//! from combinadic unranking of its derived seed — uniform over the
//! `C(2N+2, f)` subsets, like the paper's validation simulation, but with
//! no random stream — and trials fan out across the harness workers.

use drs_analytic::exact::p_success;
use drs_harness::{coord_seed, RunMode};

use super::Check;
use crate::e2e::{run_cell, E2E_GRID};
use crate::trial::TrialBases;
use crate::{fmt_p, section, BENCH_SEED};

/// Trials per `(n, f)` configuration.
const TRIALS: usize = 120;

pub(super) fn run() -> Vec<Check> {
    println!("End-to-end survivability: packet-level DRS vs Equation 1's predicate");
    println!("({TRIALS} trials per configuration; unranked f-component failure sets at t=1s)");

    section("agreement per configuration");
    println!("   n   f   P[S] exact   DES rate   predicate rate   per-trial mismatches");
    let mut total_mismatches = 0u64;
    let mut bases = TrialBases::default();
    for &(n, f) in &E2E_GRID {
        let master = coord_seed(BENCH_SEED, n as u64, f as u64);
        let rows = run_cell(&mut bases, n, f, TRIALS, master, RunMode::Parallel);
        let des_ok = rows.iter().filter(|t| t.delivered).count();
        let pred_ok = rows.iter().filter(|t| t.predicted).count();
        let mismatches = rows.iter().filter(|t| !t.agrees()).count() as u64;
        total_mismatches += mismatches;
        println!(
            "  {:>2}  {:>2}   {:>9}   {:>8}   {:>14}   {:>20}",
            n,
            f,
            fmt_p(p_success(n as u64, f as u64)),
            fmt_p(des_ok as f64 / TRIALS as f64),
            fmt_p(pred_ok as f64 / TRIALS as f64),
            mismatches,
        );
    }
    println!();
    println!("expected: DES rate tracks the exact P[S] (within sampling noise),");
    println!("and per-trial mismatches are zero — the protocol achieves exactly the");
    println!("connectivity the combinatorial model promises.");

    vec![Check {
        ok: total_mismatches == 0,
        detail: format!(
            "{total_mismatches} mismatches / {} trials between the DES and Equation 1's predicate",
            TRIALS * E2E_GRID.len()
        ),
    }]
}
