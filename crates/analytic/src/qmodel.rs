//! The paper's multiple-failure decay model.
//!
//! Section 4 argues that if every component fails independently with
//! probability `q`, the probability of observing `f` simultaneous failures
//! scales as `q^f` — so multi-failure scenarios become exponentially
//! unlikely (`q^f → 0`), and combined with `lim_{N→∞} P\[S | f\] = 1` a DRS
//! cluster is highly resilient.
//!
//! This module formalizes two readings of that argument:
//!
//! * [`geometric_failure_weight`] — the paper's literal `q^f` scaling,
//!   normalized into a (truncated) geometric distribution over `f`;
//! * [`binomial_failure_weight`] — the standard independent-components
//!   model, `P\[f fails\] = C(2N+2, f) q^f (1-q)^{2N+2-f}`, which the `q^f`
//!   form approximates for small `q`;
//!
//! and the resulting **unconditional survivability** obtained by mixing
//! Equation 1 over the failure-count distribution.

use crate::binom::binom_f64;
use crate::exact::{component_count, p_success};

/// How to weight the per-`f` conditional survivabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureWeighting {
    /// The paper's `q^f` scaling, normalized over `f = 0..=2N+2`.
    Geometric,
    /// Exact independent-failure binomial distribution.
    Binomial,
}

/// Normalized weight of exactly `f` failures under the truncated geometric
/// (`∝ q^f`) model, over `f = 0..=f_max`.
///
/// # Panics
/// Panics unless `0 < q < 1`.
#[must_use]
pub fn geometric_failure_weight(q: f64, f: u64, f_max: u64) -> f64 {
    assert!(q > 0.0 && q < 1.0, "q must lie in (0, 1)");
    assert!(f <= f_max);
    // Normalizer: sum_{i=0}^{f_max} q^i = (1 - q^{f_max+1}) / (1 - q).
    let z = (1.0 - q.powi(f_max as i32 + 1)) / (1.0 - q);
    q.powi(f as i32) / z
}

/// `P[f components fail]` when each of the `m = 2N+2` components fails
/// independently with probability `q`.
#[must_use]
pub fn binomial_failure_weight(q: f64, f: u64, m: u64) -> f64 {
    assert!((0.0..=1.0).contains(&q));
    assert!(f <= m);
    binom_f64(m, f) * q.powi(f as i32) * (1.0 - q).powi((m - f) as i32)
}

/// Unconditional probability that a fixed server pair can communicate,
/// mixing Equation 1 over the failure-count distribution.
#[must_use]
pub fn unconditional_survivability(n: u64, q: f64, weighting: FailureWeighting) -> f64 {
    let m = component_count(n);
    (0..=m)
        .map(|f| {
            let w = match weighting {
                FailureWeighting::Geometric => geometric_failure_weight(q, f, m),
                FailureWeighting::Binomial => binomial_failure_weight(q, f, m),
            };
            // Skip negligible tails to keep the u128 binomials in range for
            // large clusters; weights below 1e-18 cannot affect the sum.
            if w < 1e-18 {
                0.0
            } else {
                w * p_success(n, f)
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_weights_sum_to_one() {
        for &q in &[0.01, 0.1, 0.5, 0.9] {
            let f_max = 20;
            let total: f64 = (0..=f_max)
                .map(|f| geometric_failure_weight(q, f, f_max))
                .sum();
            assert!((total - 1.0).abs() < 1e-12, "q={q}: {total}");
        }
    }

    #[test]
    fn binomial_weights_sum_to_one() {
        for &q in &[0.0, 0.05, 0.3, 1.0] {
            let m = 22; // N = 10
            let total: f64 = (0..=m).map(|f| binomial_failure_weight(q, f, m)).sum();
            assert!((total - 1.0).abs() < 1e-9, "q={q}: {total}");
        }
    }

    #[test]
    fn multi_failure_probability_decays_exponentially() {
        // The paper's core q^f claim: each extra simultaneous failure is a
        // factor q less likely.
        let q = 0.05;
        let w2 = geometric_failure_weight(q, 2, 30);
        let w3 = geometric_failure_weight(q, 3, 30);
        let w4 = geometric_failure_weight(q, 4, 30);
        assert!((w3 / w2 - q).abs() < 1e-12);
        assert!((w4 / w3 - q).abs() < 1e-12);
    }

    #[test]
    fn unconditional_survivability_is_high_for_small_q() {
        for weighting in [FailureWeighting::Geometric, FailureWeighting::Binomial] {
            let s = unconditional_survivability(16, 0.01, weighting);
            assert!(s > 0.99, "{weighting:?}: {s}");
        }
    }

    #[test]
    fn survivability_decreases_with_q() {
        let lo = unconditional_survivability(16, 0.01, FailureWeighting::Binomial);
        let hi = unconditional_survivability(16, 0.2, FailureWeighting::Binomial);
        assert!(lo > hi);
    }

    #[test]
    fn survivability_grows_with_n_geometric() {
        // Under the paper's q^f weighting, bigger clusters survive better
        // (the failure-count distribution does not scale with N).
        let small = unconditional_survivability(4, 0.1, FailureWeighting::Geometric);
        let large = unconditional_survivability(64, 0.1, FailureWeighting::Geometric);
        assert!(large > small, "{large} !> {small}");
    }

    #[test]
    #[should_panic(expected = "q must lie in (0, 1)")]
    fn geometric_rejects_degenerate_q() {
        let _ = geometric_failure_weight(0.0, 1, 5);
    }
}
