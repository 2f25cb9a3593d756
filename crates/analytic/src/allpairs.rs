//! Cluster-wide (all-pairs) survivability — the natural strengthening of
//! Equation 1's pair model.
//!
//! Equation 1 asks whether one *fixed pair* of servers can still talk; an
//! operator usually cares whether **every** pair can (the cluster is
//! fully functional). This module derives the exact closed form by the
//! same component-counting style, validated against exhaustive
//! enumeration ([`crate::enumerate::enumerate_all_pairs_success`]):
//!
//! Partition by backplane state. With **both backplanes down**, nothing
//! communicates. With **exactly one down** (two choices), all pairs work
//! iff no NIC on the surviving network failed: the other `f − 1` failures
//! must all be NICs of the dead network — `C(N, f−1)` ways. With **both
//! up**, split the `f` failed NICs into `i` on network A and `f − i` on
//! B; all pairs survive iff no node lost both NICs
//! (`C(N, i)·C(N−i, f−i)` ways to avoid overlap) *and* the cluster is
//! not split into an A-only and a B-only faction, i.e. some node bridges
//! (`i + (f−i) < N`) or one network is entirely intact (`i = 0` or
//! `i = f`).

use crate::binom::shared_table;
use crate::exact::{component_count, p_success};

fn c(n: i64, k: i64) -> u128 {
    shared_table().c(n, k)
}

/// `F_all(N, f)`: the number of `f`-failure combinations after which
/// **every** pair of servers can still communicate.
///
/// # Panics
/// Panics if `n < 2` or on `u128` overflow (`f ≳ 15` at very large `n`).
#[must_use]
pub fn all_pairs_success_count(n: u64, f: u64) -> u128 {
    assert!(n >= 2, "need at least one pair");
    let (ni, fi) = (n as i64, f as i64);
    // One backplane down (×2): remaining failures confined to the dead
    // network's NICs.
    let mut count = 2 * c(ni, fi - 1);
    // Both backplanes up: i failures on net-A NICs, f−i on net-B NICs,
    // no node hit twice, and no A-faction/B-faction split.
    for i in 0..=fi {
        let j = fi - i;
        if fi < ni || i == 0 || j == 0 {
            count += c(ni, i) * c(ni - i, j);
        }
    }
    count
}

/// `P\[all pairs survive\]` with `n` nodes and exactly `f` failed
/// components (uniform over failure combinations).
#[must_use]
pub fn p_all_pairs(n: u64, f: u64) -> f64 {
    let total = shared_table()
        .get(component_count(n), f)
        .expect("binomial overflow");
    assert!(f <= component_count(n), "cannot fail {f} components");
    all_pairs_success_count(n, f) as f64 / total as f64
}

/// Expected number of disconnected (ordered-pair-collapsed) server pairs
/// given exactly `f` failures: `C(N,2) · (1 − P\[S\](N, f))` by pair
/// symmetry and linearity of expectation.
#[must_use]
pub fn expected_disconnected_pairs(n: u64, f: u64) -> f64 {
    let pairs = (n * (n - 1) / 2) as f64;
    pairs * (1.0 - p_success(n, f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_all_pairs_success;

    #[test]
    fn closed_form_matches_exhaustive_enumeration() {
        // Every small cell, then a few at the sizes Figure 2 plots.
        let small = (2..=7u64).flat_map(|n| (0..=component_count(n).min(7)).map(move |f| (n, f)));
        for (n, f) in small.chain([(8, 3), (16, 4), (32, 4)]) {
            let (succ, total) = enumerate_all_pairs_success(n as usize, f as usize);
            assert_eq!(all_pairs_success_count(n, f), succ, "n={n} f={f}");
            let p = succ as f64 / total as f64;
            assert!((p_all_pairs(n, f) - p).abs() < 1e-12, "n={n} f={f}");
        }
    }

    #[test]
    fn all_pairs_never_exceeds_pair_probability() {
        for n in 2..=40u64 {
            for f in 0..=10.min(component_count(n)) {
                assert!(p_all_pairs(n, f) <= p_success(n, f) + 1e-12, "n={n} f={f}");
            }
        }
    }

    #[test]
    fn trivial_cases() {
        for n in 2..=20u64 {
            assert_eq!(p_all_pairs(n, 0), 1.0);
            assert_eq!(p_all_pairs(n, 1), 1.0, "single failure always survivable");
            assert_eq!(p_all_pairs(n, component_count(n)), 0.0);
        }
    }

    #[test]
    fn all_pairs_also_converges_to_one() {
        // The cluster-wide analogue of Figure 2's limit — but much slower:
        // any single node losing both NICs breaks all-pairs, and there
        // are N such opportunities.
        for f in 2..=6u64 {
            let p64 = p_all_pairs(64, f);
            let p256 = p_all_pairs(256, f);
            assert!(p256 > p64, "f={f}");
            // Same 1/N rate as the pair model but a ~N-fold larger
            // constant: at N=500, f=6 the cluster-wide figure is ~0.974
            // where the pair figure is ~0.9998.
            assert!(p_all_pairs(500, f) > 0.97, "f={f}: {}", p_all_pairs(500, f));
        }
    }

    #[test]
    fn expected_disconnected_pairs_scales() {
        // At N=18, f=2 (the 0.99 milestone) about 1% of pairs-odds means
        // ~1.5 expected broken pairs out of 153.
        let e = expected_disconnected_pairs(18, 2);
        assert!((e - 153.0 * (1.0 - p_success(18, 2))).abs() < 1e-9);
        assert!(e > 1.0 && e < 2.0, "{e}");
    }
}
