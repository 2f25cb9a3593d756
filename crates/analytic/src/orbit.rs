//! Symmetry-reduced exact enumeration: orbit counting over failure-set
//! equivalence classes.
//!
//! The raw enumerator ([`crate::enumerate`]) evaluates the connectivity
//! predicate once per `f`-subset — `C(2N+2, f)` times — which caps it at
//! `n ≈ 10`. But the predicate never looks at *which* non-endpoint node
//! lost a NIC, only at how many lost their A NIC, their B NIC, or both:
//! the `N − 2` candidate gateway nodes are interchangeable under the node
//! permutation symmetry of the component model. A failure set's outcome is
//! therefore fully determined by its **orbit invariants**
//!
//! * the two backplane states,
//! * the four endpoint NIC states (`s` and `t` each on nets A and B),
//! * the counts `(k_a, k_b, k_ab)` of gateway nodes that lost A-only,
//!   B-only, or both NICs,
//!
//! and every orbit contains exactly
//! `C(m, k_a) · C(m−k_a, k_b) · C(m−k_a−k_b, k_ab)` failure sets
//! (`m = N − 2`). Summing the multinomial weights over the `O(4·16·f²)`
//! orbits gives counts **bit-identical** to raw enumeration in microseconds
//! at any `n` the `u128` arithmetic can express — the full
//! [`crate::components::MAX_NODES`] range — extending exhaustive ground
//! truth to cluster sizes the subset walk could never reach.

use crate::binom::shared_table;
use crate::exact::component_count;

/// Exact `(successes, total)` over all `f`-subsets of the `2n + 2`
/// components for the fixed pair `(0, 1)`, by orbit counting. Returns
/// `None` when a count overflows `u128` (far beyond the paper's range;
/// `total = C(2N+2, f)` must fit).
///
/// Agrees bit-for-bit with [`crate::enumerate::enumerate_pair_success`]
/// (exercised exhaustively in the tests for every `n ≤ 8`, `f ≤ 8`).
///
/// # Panics
/// Panics if `n < 2`.
#[must_use]
pub fn orbit_pair_success(n: u64, f: u64) -> Option<(u128, u128)> {
    assert!(n >= 2, "need a pair of nodes");
    let table = shared_table();
    let total = table.get(component_count(n), f)?;
    if f > component_count(n) {
        return Some((0, 0));
    }
    let m = n - 2; // interchangeable gateway candidates
    let mut success: u128 = 0;
    let mut checked_total: u128 = 0;
    // The gateway orbit sees the backplanes and endpoints only through how
    // many of the `f` failures they used up — at most 6 — so its weights
    // are summed once per budget, not once per combination below.
    let mut gateway = [(0u128, 0u128); 7];
    for (used, sums) in (0..=f.min(6)).zip(&mut gateway) {
        *sums = gateway_weights(m, f - used)?;
    }
    // Backplane orbit: which of the two hubs failed.
    for bp_bits in 0u64..4 {
        let (bpa_down, bpb_down) = (bp_bits & 1 != 0, bp_bits & 2 != 0);
        let bp_failures = u64::from(bpa_down) + u64::from(bpb_down);
        // Endpoint orbit: which of s's and t's NICs failed.
        for ep_bits in 0u64..16 {
            let s_down = (ep_bits & 1 != 0, ep_bits & 2 != 0);
            let t_down = (ep_bits & 4 != 0, ep_bits & 8 != 0);
            let used = bp_failures + u64::from(ep_bits.count_ones());
            if used > f {
                continue;
            }
            let (all, with_intact_gateway) = gateway[used as usize];
            checked_total = checked_total.checked_add(all)?;
            // An intact gateway only ever helps: classes connected without
            // one are connected with one.
            let connected = |intact_gateway| {
                class_connected(bpa_down, bpb_down, s_down, t_down, intact_gateway)
            };
            let weight = if connected(false) {
                all
            } else if connected(true) {
                with_intact_gateway
            } else {
                0
            };
            success = success.checked_add(weight)?;
        }
    }
    debug_assert_eq!(checked_total, total, "orbit weights must tile the space");
    Some((success, total))
}

/// The gateway orbit's multinomial weights for `rest` failures among the
/// NICs of `m` gateway candidates — `k_a` lost A only, `k_b` lost B only,
/// `k_ab` lost both (2 failures each), `k_a + k_b + 2·k_ab = rest` —
/// summed over every such orbit, and over those that leave at least one
/// candidate with both NICs: `(all, with_intact_gateway)`. `None` on
/// `u128` overflow; every term and partial product is at most
/// `C(2n+2, f)`.
///
/// An orbit's weight `C(m, k_a)·C(m−k_a, k_b)·C(m−k_a−k_b, k_ab)` is
/// `C(m, k)·C(k, k_ab)·C(k−k_ab, k_a)` with `k = rest − k_ab` candidates
/// touched, and summed over `k_a` it is `C(m, k)·C(k, k_ab)·2^(k−k_ab)`:
/// one term per `k_ab`. Only `C(m, k)` can lie beyond the binomial table
/// (`m > 300`), so it is looked up once and stepped as `k` grows.
fn gateway_weights(m: u64, rest: u64) -> Option<(u128, u128)> {
    let table = shared_table();
    // The orbits touch `k = rest − k_ab` candidates, with `k ≤ m`,
    // `k_ab ≤ k` (so `2·k_ab ≤ rest`) and `k_ab ≤ m`; there is none when
    // those bounds cross.
    let (k_lo, k_hi) = (rest - (rest / 2).min(m), rest.min(m));
    if k_lo > k_hi {
        return Some((0, 0));
    }
    let (mut all, mut with_intact_gateway) = (0u128, 0u128);
    let mut c_mk = table.get(m, k_lo)?;
    for k in k_lo..=k_hi {
        if k > k_lo {
            // C(m, k) = C(m, k−1)·(m−k+1)/k, split at the quotient so no
            // intermediate exceeds the result.
            let (q, r) = (c_mk / u128::from(k), c_mk % u128::from(k));
            let step = u128::from(m - k + 1);
            c_mk = q.checked_mul(step)?.checked_add(r * step / u128::from(k))?;
        }
        let k_ab = rest - k;
        let weight = c_mk
            .checked_mul(table.get(k, k_ab)?)?
            .checked_mul(1u128.checked_shl(u32::try_from(k - k_ab).ok()?)?)?;
        all = all.checked_add(weight)?;
        if k < m {
            with_intact_gateway = with_intact_gateway.checked_add(weight)?;
        }
    }
    Some((all, with_intact_gateway))
}

/// The connectivity predicate evaluated on orbit invariants — the same
/// decision [`crate::connectivity::pair_connected_state`] makes on a
/// concrete state, lifted to the equivalence class.
fn class_connected(
    bpa_down: bool,
    bpb_down: bool,
    (sa_down, sb_down): (bool, bool),
    (ta_down, tb_down): (bool, bool),
    intact_gateway: bool,
) -> bool {
    let sa = !bpa_down && !sa_down;
    let sb = !bpb_down && !sb_down;
    let ta = !bpa_down && !ta_down;
    let tb = !bpb_down && !tb_down;
    // A bridge is any node attached to both live networks: an endpoint with
    // both NICs, or a fully intact gateway node.
    let bridge = !bpa_down
        && !bpb_down
        && ((!sa_down && !sb_down) || (!ta_down && !tb_down) || intact_gateway);
    (sa && ta) || (sb && tb) || (bridge && (sa || sb) && (ta || tb))
}

/// `P\[Success\]` by orbit counting — exact integer counts, divided once.
///
/// # Panics
/// Panics if the counts overflow `u128` or `f > 2n + 2`.
#[must_use]
pub fn orbit_p_success(n: u64, f: u64) -> f64 {
    assert!(
        f <= component_count(n),
        "cannot fail {f} of {} components",
        component_count(n)
    );
    let (s, t) = orbit_pair_success(n, f).expect("orbit count overflows u128");
    s as f64 / t as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binom::binom;
    use crate::enumerate::enumerate_pair_success;
    use crate::exact::{p_success, success_count};

    #[test]
    fn matches_raw_enumeration_exhaustively() {
        // The acceptance grid: bit-identical counts for every n ≤ 8, f ≤ 8.
        for n in 2..=8u64 {
            for f in 0..=8u64.min(component_count(n)) {
                let raw = enumerate_pair_success(n as usize, f as usize);
                let orbit = orbit_pair_success(n, f).unwrap();
                assert_eq!(orbit, raw, "n={n} f={f}");
            }
        }
    }

    #[test]
    fn matches_closed_form_at_large_n() {
        // Sizes the raw walk could never reach: the orbit counter must
        // agree with Equation 1's independent derivation, count-for-count.
        for &(n, f) in &[
            (18u64, 2u64),
            (32, 3),
            (45, 4),
            (64, 10),
            (100, 12),
            (127, 9),
        ] {
            let (s, t) = orbit_pair_success(n, f).unwrap();
            assert_eq!(s, success_count(n, f), "n={n} f={f}");
            assert_eq!(t, binom(component_count(n), f).unwrap());
        }
    }

    #[test]
    fn probability_matches_equation_one() {
        for n in [2u64, 5, 18, 45, 64, 127] {
            for f in 0..=10u64.min(component_count(n)) {
                let a = orbit_p_success(n, f);
                let b = p_success(n, f);
                assert!((a - b).abs() < 1e-12, "n={n} f={f}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn extreme_failure_counts() {
        for n in 2..=6u64 {
            let all = component_count(n);
            let (s, t) = orbit_pair_success(n, all).unwrap();
            assert_eq!(s, 0, "everything failed");
            assert_eq!(t, 1);
            let (s0, t0) = orbit_pair_success(n, 0).unwrap();
            assert_eq!((s0, t0), (1, 1), "nothing failed");
        }
    }

    /// The gateway weights as first written: one term per `(k_ab, k_a)`
    /// orbit, three binomial lookups each.
    fn gateway_weights_by_orbit(m: u64, rest: u64) -> Option<(u128, u128)> {
        let table = shared_table();
        let (mut all, mut with_intact_gateway) = (0u128, 0u128);
        for k_ab in 0..=(rest / 2).min(m) {
            let nic_rest = rest - 2 * k_ab;
            for k_a in 0..=nic_rest.min(m - k_ab) {
                let k_b = nic_rest - k_a;
                if k_a + k_b + k_ab > m {
                    continue;
                }
                let weight = table
                    .get(m, k_a)?
                    .checked_mul(table.get(m - k_a, k_b)?)?
                    .checked_mul(table.get(m - k_a - k_b, k_ab)?)?;
                all = all.checked_add(weight)?;
                if m - k_a - k_b - k_ab > 0 {
                    with_intact_gateway = with_intact_gateway.checked_add(weight)?;
                }
            }
        }
        Some((all, with_intact_gateway))
    }

    #[test]
    fn gateway_weights_match_the_per_orbit_sum() {
        // Every budget the benchmark's orbit grid (n ≤ 400, f ≤ 20) asks
        // for, `Some` value and `None`-ness alike, plus budgets that use
        // up every gateway NIC and more.
        for m in 0..=398u64 {
            for rest in 0..=20u64 {
                assert_eq!(
                    gateway_weights(m, rest),
                    gateway_weights_by_orbit(m, rest),
                    "m={m} rest={rest}"
                );
            }
        }
        for m in 0..=12u64 {
            for rest in 0..=2 * m + 3 {
                assert_eq!(
                    gateway_weights(m, rest),
                    gateway_weights_by_orbit(m, rest),
                    "m={m} rest={rest}"
                );
            }
        }
    }

    #[test]
    fn none_exactly_when_the_total_overflows() {
        // Past the binomial table and across the sizes where `C(2n+2, f)`
        // crosses `u128`: a cell is `None` iff its total is, and every
        // other cell carries the closed form's count — no partial product
        // or partial sum of the per-budget gateway weights overflows
        // before the total does.
        let (mut overflowed, mut counted) = (0, 0);
        for n in 2..=512u64 {
            for f in 0..=24u64.min(component_count(n)) {
                let expected = binom(component_count(n), f).map(|t| (success_count(n, f), t));
                assert_eq!(orbit_pair_success(n, f), expected, "n={n} f={f}");
                overflowed += usize::from(expected.is_none());
                counted += usize::from(expected.is_some());
            }
        }
        assert!(
            overflowed > 100 && counted > 100,
            "{overflowed} / {counted}"
        );
    }

    #[test]
    fn overflow_reports_none() {
        // C(2·2000+2, 60) far exceeds u128.
        assert_eq!(orbit_pair_success(2000, 60), None);
    }
}
