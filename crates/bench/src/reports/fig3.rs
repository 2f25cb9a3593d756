//! Regenerates **Figure 3**: the validation simulation's convergence to
//! Equation 1 — mean absolute deviation between the Monte-Carlo estimate
//! and the exact value over f < N < 64, as the iteration count grows
//! (log₁₀ x-axis), for f = 2..10.

use drs_analytic::convergence::{figure3, log10_iteration_axis};

use super::{reproduced, Check};
use crate::{row, section};

/// Largest power of ten of iterations. The paper runs to 10⁶; every
/// curve is already below 0.001 at 10⁵ and the extra decade only takes
/// ten times longer.
const MAX_EXP: u32 = 5;

pub(super) fn run() -> Vec<Check> {
    let seed = 20_260_706;
    println!("Figure 3 — convergence of the validation simulation to Equation 1");
    println!("(mean |p_hat - P[S]| over f < N < 64; iterations 10^1..10^{MAX_EXP}; seed {seed})");

    let failures: Vec<usize> = (2..=10).collect();
    let iterations = log10_iteration_axis(1, MAX_EXP);
    let points = figure3(&failures, &iterations, seed);

    section("mean absolute deviation");
    let mut header = vec!["f\\iters".to_string()];
    header.extend(iterations.iter().map(|i| i.to_string()));
    row(&header, &vec![10; header.len()]);
    for f in &failures {
        let mut cells = vec![format!("f={f}")];
        for it in &iterations {
            let p = points
                .iter()
                .find(|p| p.failures == *f && p.iterations == *it)
                .expect("grid point");
            cells.push(format!("{:.5}", p.mean_abs_deviation));
        }
        row(&cells, &vec![10; cells.len()]);
    }

    section("paper checkpoints");
    let worst = points
        .iter()
        .filter(|p| p.iterations == 1_000)
        .map(|p| p.mean_abs_deviation)
        .fold(0.0, f64::max);
    let small = worst < 0.02;
    println!("  worst mean deviation at 1,000 iterations: {worst:.5}");
    println!("  paper: 'with 1,000 iterations, the mean absolute difference is small");
    println!(
        "  for each of the fixed f values, and converges to zero' -> {}",
        reproduced(small)
    );

    vec![Check {
        ok: small,
        detail: format!("worst mean deviation at 1,000 iterations {worst:.4} over f = 2..10"),
    }]
}
