//! Figure 3: convergence of the validation simulation to Equation 1.
//!
//! For each fixed failure count `f`, the paper runs the Monte-Carlo
//! simulation for every cluster size `f < N < 64` and reports the **mean
//! absolute difference** between the simulated success probability and the
//! Equation 1 value, as a function of the iteration count (log₁₀ x-axis).
//! With 1 000 iterations the deviation is already small and it converges to
//! zero as iterations grow.

use drs_harness::par;

use crate::exact::p_success;
use crate::montecarlo::MonteCarlo;

/// Upper bound (exclusive) on cluster size in the paper's sweep: `f < N < 64`.
pub const PAPER_N_LIMIT: usize = 64;

/// One point of the Figure 3 convergence curves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergencePoint {
    /// Fixed number of simultaneous failures.
    pub failures: usize,
    /// Monte-Carlo iterations per (N, f) cell.
    pub iterations: u64,
    /// Mean over `f < N < 64` of `|p_hat(N, f) - P\[S\](N, f)|`.
    pub mean_abs_deviation: f64,
    /// Largest single-cell deviation in the sweep (not in the paper's plot,
    /// but useful when judging convergence).
    pub max_abs_deviation: f64,
}

/// Computes the mean absolute deviation between the Monte-Carlo estimate
/// and Equation 1 over all cluster sizes `f < N < n_limit`.
///
/// Each `(N, f)` cell uses an independent deterministic RNG stream derived
/// from `seed`, so the whole study is reproducible.
#[must_use]
pub fn mean_abs_deviation(
    f: usize,
    iterations: u64,
    n_limit: usize,
    seed: u64,
) -> ConvergencePoint {
    assert!(n_limit > f + 1, "empty N range for f={f}");
    let deviations = par::map(n_limit - (f + 1), |i| {
        let n = f + 1 + i;
        let cell_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((n as u64) << 8)
            .wrapping_add(f as u64);
        let est = MonteCarlo::new(n, f, cell_seed).estimate(iterations);
        (est.p_hat - p_success(n as u64, f as u64)).abs()
    });
    let mean = deviations.iter().sum::<f64>() / deviations.len() as f64;
    let max = deviations.iter().cloned().fold(0.0, f64::max);
    ConvergencePoint {
        failures: f,
        iterations,
        mean_abs_deviation: mean,
        max_abs_deviation: max,
    }
}

/// Reproduces the full Figure 3 grid: for each `f` in `failures` and each
/// iteration count, the mean absolute deviation over `f < N < 64`.
///
/// Returns points grouped by `f`, in the order given.
#[must_use]
pub fn figure3(failures: &[usize], iteration_counts: &[u64], seed: u64) -> Vec<ConvergencePoint> {
    let mut out = Vec::with_capacity(failures.len() * iteration_counts.len());
    for &f in failures {
        for &iters in iteration_counts {
            out.push(mean_abs_deviation(f, iters, PAPER_N_LIMIT, seed));
        }
    }
    out
}

/// The paper's iteration axis: powers of ten (log₁₀ scale).
#[must_use]
pub fn log10_iteration_axis(min_exp: u32, max_exp: u32) -> Vec<u64> {
    (min_exp..=max_exp).map(|e| 10u64.pow(e)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviation_shrinks_with_iterations() {
        // The core qualitative claim of Figure 3.
        let small = mean_abs_deviation(3, 100, 32, 42);
        let large = mean_abs_deviation(3, 20_000, 32, 42);
        assert!(
            large.mean_abs_deviation < small.mean_abs_deviation,
            "{} !< {}",
            large.mean_abs_deviation,
            small.mean_abs_deviation
        );
    }

    #[test]
    fn thousand_iterations_is_tight() {
        // Paper: "With 1,000 iterations, the mean absolute difference is
        // less than [~0.02] for each of the fixed f values" — every
        // f = 2..10 over f < N < 64, under the seed the `fig3` report
        // prints (EXPERIMENTS.md records the measured column). A cell's
        // expected |deviation| is at most 0.8·sqrt(0.25/1000) ≈ 0.013,
        // so the bound holds with margin for any healthy generator.
        let failures: Vec<usize> = (2..=10).collect();
        let points = figure3(&failures, &[1_000], 20_260_706);
        assert_eq!(points.len(), failures.len());
        for p in points {
            assert!(
                p.mean_abs_deviation < 0.02,
                "f={}: {}",
                p.failures,
                p.mean_abs_deviation
            );
        }
    }

    #[test]
    fn deterministic() {
        let a = mean_abs_deviation(2, 500, 20, 9);
        let b = mean_abs_deviation(2, 500, 20, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn figure3_grid_shape() {
        let pts = figure3(&[2, 3], &[10, 100], 1);
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].failures, 2);
        assert_eq!(pts[0].iterations, 10);
        assert_eq!(pts[3].failures, 3);
        assert_eq!(pts[3].iterations, 100);
    }

    #[test]
    fn axis_is_powers_of_ten() {
        assert_eq!(log10_iteration_axis(1, 4), vec![10, 100, 1_000, 10_000]);
    }

    #[test]
    fn max_at_least_mean() {
        let p = mean_abs_deviation(4, 200, 30, 3);
        assert!(p.max_abs_deviation >= p.mean_abs_deviation);
    }
}
