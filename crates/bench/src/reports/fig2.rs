//! Regenerates **Figure 2**: convergence of P\[Success\] to 1 as the
//! cluster grows, one curve per failure count f = 2..10, N up to 64 —
//! driven through the parallel sweep engine, with the orbit counter
//! cross-checking Equation 1 at every cell.

use drs_analytic::sweep::{run_sweep, Method, SweepConfig};

use super::Check;
use crate::{fmt_p, row, section, BENCH_SEED};

pub(super) fn run() -> Vec<Check> {
    println!("Figure 2 — P[Success] vs cluster size N, exact Equation 1");
    println!("(paper axes: f = 2..10 failures, N < 64; y in [0.40, 1.00])");

    // One exact cell per (f, N) point of the figure, plus an orbit-counting
    // cross-check cell for each: the whole figure is a single sweep.
    let mut cfg = SweepConfig::new(BENCH_SEED);
    for f in 2..=10u64 {
        for n in (f + 1)..=64 {
            cfg.push(n, f, Method::Exact);
            cfg.push(n, f, Method::Orbit);
        }
    }
    let result = run_sweep(&cfg);

    let mismatches = result.disagreements().len();

    section("P[S](N, f), selected N");
    let ns: Vec<u64> = vec![4, 8, 12, 16, 18, 24, 32, 40, 45, 48, 56, 64];
    let mut header = vec!["f\\N".to_string()];
    header.extend(ns.iter().map(|n| n.to_string()));
    row(&header, &vec![7; header.len()]);
    for f in 2..=10u64 {
        let mut cells = vec![format!("f={f}")];
        for &n in &ns {
            let p = result.get(n, f, "exact").map(|c| c.p_success);
            cells.push(p.map_or("—".into(), fmt_p));
        }
        row(&cells, &vec![7; cells.len()]);
    }

    section("0.99 crossings visible in the curves");
    for f in 2..=10u64 {
        let crossing = result
            .by_method("exact")
            .filter(|c| c.f == f && c.p_success > 0.99)
            .map(|c| c.n)
            .min();
        match crossing {
            Some(n) => println!("  f={f}: P[S] surpasses 0.99 at N={n}"),
            None => println!("  f={f}: not reached by N=64"),
        }
    }
    println!();
    println!("paper: f=2 -> 18 nodes, f=3 -> 32 nodes, f=4 -> 45 nodes");
    let orbit_cells = result.by_method("orbit").count();
    println!(
        "orbit counter cross-check: {mismatches} / {orbit_cells} cells disagree with Equation 1"
    );

    vec![Check {
        ok: mismatches == 0,
        detail: format!("{mismatches} / {orbit_cells} orbit cells disagree with Equation 1"),
    }]
}
