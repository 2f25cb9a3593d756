//! End-to-end survivability cross-check: the packet-level simulator with
//! real DRS daemons must agree, trial by trial, with the combinatorial
//! connectivity predicate behind Equation 1.
//!
//! Each configuration runs as a [`drs_harness::Experiment`] of
//! replications (see [`drs_bench::e2e`]): the trial's failure set comes
//! from combinadic unranking of its derived seed — uniform over the
//! `C(2N+2, f)` subsets, like the paper's validation simulation, but with
//! no random stream — and trials fan out across the harness workers.
//!
//! Run: `cargo run --release -p drs-bench --bin e2e_survivability [trials]`

use drs_analytic::exact::p_success;
use drs_bench::e2e::{run_cell, E2E_GRID};
use drs_bench::{fmt_p, section, BENCH_SEED};
use drs_harness::{coord_seed, RunMode};

fn main() {
    let trials: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("trials must be an integer"))
        .unwrap_or(120);
    println!("End-to-end survivability: packet-level DRS vs Equation 1's predicate");
    println!("({trials} trials per configuration; unranked f-component failure sets at t=1s)");

    section("agreement per configuration");
    println!("   n   f   P[S] exact   DES rate   predicate rate   per-trial mismatches");
    let mut total_mismatches = 0u64;
    for &(n, f) in &E2E_GRID {
        let master = coord_seed(BENCH_SEED, n as u64, f as u64);
        let rows = run_cell(n, f, trials, master, RunMode::Parallel);
        let des_ok = rows.iter().filter(|t| t.delivered).count();
        let pred_ok = rows.iter().filter(|t| t.predicted).count();
        let mismatches = rows.iter().filter(|t| !t.agrees()).count() as u64;
        total_mismatches += mismatches;
        println!(
            "  {:>2}  {:>2}   {:>9}   {:>8}   {:>14}   {:>20}",
            n,
            f,
            fmt_p(p_success(n as u64, f as u64)),
            fmt_p(des_ok as f64 / trials as f64),
            fmt_p(pred_ok as f64 / trials as f64),
            mismatches,
        );
    }
    println!();
    println!("expected: DES rate tracks the exact P[S] (within sampling noise),");
    println!("and per-trial mismatches are zero — the protocol achieves exactly the");
    println!("connectivity the combinatorial model promises.");
    if total_mismatches > 0 {
        std::process::exit(1);
    }
}
