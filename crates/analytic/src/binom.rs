//! Binomial coefficients, exact and in log space.
//!
//! Equation 1 divides two large combinatorial counts. For every parameter
//! range the paper uses (N ≤ 64, f ≤ 10) — and far beyond — the counts fit in
//! a `u128`, so the primary implementation is exact integer arithmetic with
//! overflow detection. A log-space `f64` fallback covers arbitrarily large
//! parameters (used by the threshold sweeps that probe N in the hundreds with
//! large f).
//!
//! Hot callers (Equation 1, the orbit counter, combination unranking, the
//! sweep engine) share a process-wide cached Pascal triangle
//! ([`shared_table`]) instead of re-running the multiplicative formula per
//! call.

use std::sync::OnceLock;

/// Exact binomial coefficient `C(n, k)`, or `None` on `u128` overflow.
///
/// Uses the multiplicative formula with an interleaved division at every step
/// (the running product is always an exact binomial of a prefix, so each
/// division is exact) which keeps intermediate values as small as possible.
///
/// `C(n, k) = 0` for `k > n`, and `C(n, 0) = 1`, matching the convention used
/// throughout the survivability counting.
#[must_use]
pub fn binom(n: u64, k: u64) -> Option<u128> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        // acc = C(n, i); next is acc * (n - i) / (i + 1), exact in this order.
        acc = acc.checked_mul((n - i) as u128)?;
        acc /= (i + 1) as u128;
    }
    Some(acc)
}

/// Natural log of `C(n, k)`; returns `f64::NEG_INFINITY` when `C(n, k) = 0`.
///
/// Computed as a direct O(k) sum of logs, which is exact enough (relative
/// error ~1e-14) for the probability work in this crate and avoids pulling in
/// a lgamma implementation.
#[must_use]
pub fn ln_binom(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    let k = k.min(n - k);
    let mut acc = 0.0f64;
    for i in 0..k {
        acc += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    acc
}

/// `C(n, k)` as an `f64`, falling back to log space when the exact value
/// overflows `u128`.
#[must_use]
pub fn binom_f64(n: u64, k: u64) -> f64 {
    match binom(n, k) {
        Some(v) => v as f64,
        None => ln_binom(n, k).exp(),
    }
}

/// A cached Pascal triangle of binomial coefficients.
///
/// Every hot path in this crate — Equation 1, the orbit counter, combination
/// unranking, the sweep engine — needs the same `C(n, k)` values over and
/// over; recomputing the multiplicative formula per call is `O(k)` each
/// time. The table stores the full triangle up to `max_n` with
/// overflow-checked `u128` entries (`None` marks an entry exceeding
/// `u128::MAX`) and answers lookups in `O(1)`.
#[derive(Debug)]
pub struct BinomTable {
    rows: Vec<Vec<Option<u128>>>,
}

impl BinomTable {
    /// Builds the triangle for all `n ≤ max_n` via Pascal's rule with
    /// overflow-checked additions.
    ///
    /// Within the table, `None` marks *exactly* the entries exceeding
    /// `u128::MAX`: the checked addition only fails on a true overflow,
    /// and `C(n, k) = C(n-1, k-1) + C(n-1, k)` is at least as large as
    /// either parent, so an overflowed parent forces an overflowed child —
    /// propagating `None` loses nothing. (No fallback to the
    /// multiplicative [`binom`] here: its intermediate products can
    /// overflow even when the result fits, e.g. `C(126, 61)`, which would
    /// turn table entries into false overflows.)
    #[must_use]
    pub fn new(max_n: usize) -> Self {
        let mut rows: Vec<Vec<Option<u128>>> = Vec::with_capacity(max_n + 1);
        rows.push(vec![Some(1)]);
        for n in 1..=max_n {
            let prev = &rows[n - 1];
            let mut row = Vec::with_capacity(n + 1);
            row.push(Some(1));
            for k in 1..n {
                let entry = match (prev[k - 1], prev[k]) {
                    (Some(a), Some(b)) => a.checked_add(b),
                    _ => None,
                };
                row.push(entry);
            }
            row.push(Some(1));
            rows.push(row);
        }
        BinomTable { rows }
    }

    /// Largest `n` the table covers.
    #[must_use]
    pub fn max_n(&self) -> u64 {
        (self.rows.len() - 1) as u64
    }

    /// `C(n, k)` from the table, or via the direct formula for `n` beyond
    /// the table.
    ///
    /// Within the table, `None` means exactly that the value overflows
    /// `u128` (see [`BinomTable::new`]). Beyond the table the direct
    /// [`binom`] formula is conservative: it can return `None` when an
    /// intermediate product overflows even though the result fits, so
    /// callers fall back to the `f64` path slightly early there.
    #[must_use]
    pub fn get(&self, n: u64, k: u64) -> Option<u128> {
        if k > n {
            return Some(0);
        }
        match self.rows.get(n as usize) {
            Some(row) => row[k as usize],
            None => binom(n, k),
        }
    }

    /// `C(n, k)` as an `f64`, using the log-space fallback on overflow.
    #[must_use]
    pub fn get_f64(&self, n: u64, k: u64) -> f64 {
        match self.get(n, k) {
            Some(v) => v as f64,
            None => ln_binom(n, k).exp(),
        }
    }

    /// Signed-argument convenience used by the counting formulas, which
    /// index with offsets that can go negative: out-of-range arguments are
    /// an empty choice (`0`), never an error.
    ///
    /// # Panics
    /// Panics if the in-range value overflows `u128`.
    #[must_use]
    pub fn c(&self, n: i64, k: i64) -> u128 {
        if n < 0 || k < 0 || k > n {
            0
        } else {
            self.get(n as u64, k as u64)
                .expect("binomial overflow; use the f64 path")
        }
    }
}

/// Nodes-side capacity the shared table is sized for: covers every
/// `C(2N + 2, f)` lookup up to the bitset limit
/// ([`crate::components::MAX_NODES`]) with headroom.
pub const SHARED_TABLE_MAX_N: usize = 300;

/// The process-wide shared [`BinomTable`], built once on first use.
///
/// Sized by [`SHARED_TABLE_MAX_N`]; lookups beyond it transparently fall
/// back to the direct formula, so callers never need to range-check.
#[must_use]
pub fn shared_table() -> &'static BinomTable {
    static TABLE: OnceLock<BinomTable> = OnceLock::new();
    TABLE.get_or_init(|| BinomTable::new(SHARED_TABLE_MAX_N))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_match_pascal() {
        // Build Pascal's triangle and compare.
        let mut row: Vec<u128> = vec![1];
        for n in 0..=40u64 {
            for k in 0..=n {
                assert_eq!(binom(n, k), Some(row[k as usize]), "C({n},{k})");
            }
            let mut next = vec![1u128];
            for i in 1..row.len() {
                next.push(row[i - 1] + row[i]);
            }
            next.push(1);
            row = next;
        }
    }

    #[test]
    fn k_greater_than_n_is_zero() {
        assert_eq!(binom(5, 6), Some(0));
        assert_eq!(ln_binom(5, 6), f64::NEG_INFINITY);
    }

    #[test]
    fn symmetric() {
        assert_eq!(binom(130, 10), binom(130, 120));
    }

    #[test]
    fn known_large_value() {
        // C(130, 10) = 266 401 260 897 200, the denominator at N=64, f=10.
        assert_eq!(binom(130, 10), Some(266_401_260_897_200));
    }

    #[test]
    fn overflow_detected() {
        // C(1000, 500) vastly exceeds u128.
        assert_eq!(binom(1000, 500), None);
        assert!(ln_binom(1000, 500).is_finite());
    }

    #[test]
    fn ln_matches_exact() {
        for &(n, k) in &[(10u64, 3u64), (64, 10), (130, 10), (200, 7)] {
            let exact = binom(n, k).unwrap() as f64;
            let via_ln = ln_binom(n, k).exp();
            assert!(
                (exact - via_ln).abs() / exact < 1e-10,
                "C({n},{k}): {exact} vs {via_ln}"
            );
        }
    }

    #[test]
    fn binom_f64_consistent() {
        assert_eq!(binom_f64(10, 5), 252.0);
        assert!(binom_f64(1000, 500).is_finite());
    }

    #[test]
    fn table_matches_direct_formula() {
        // Wherever the multiplicative formula succeeds, the table agrees.
        // The table can additionally be exact where the direct formula's
        // *intermediate* product overflows even though the result fits
        // (e.g. C(126, 61)): accept Some there, never a disagreement.
        let t = BinomTable::new(140);
        for n in 0..=140u64 {
            for k in 0..=n + 2 {
                if let Some(want) = binom(n, k) {
                    assert_eq!(t.get(n, k), Some(want), "C({n},{k})");
                }
            }
        }
        assert!(t.get(126, 61).is_some(), "table exceeds direct formula");
    }

    #[test]
    fn table_handles_overflow_and_reentry() {
        // Row 1000 overflows u128 in the middle but its edges are small;
        // the table must agree with the overflow-checked direct formula on
        // both sides of the overflow region.
        let t = BinomTable::new(1000);
        assert_eq!(t.get(1000, 500), None);
        assert_eq!(t.get(1000, 3), binom(1000, 3));
        assert_eq!(t.get(1000, 997), binom(1000, 997));
        assert!(t.get_f64(1000, 500).is_finite());
    }

    #[test]
    fn table_overflow_band_is_symmetric_and_contiguous() {
        // Within the table, None is exact (never a false overflow): each
        // row's overflow band must be contiguous and symmetric, exactly as
        // the true binomials are — a conservative fallback would break
        // both properties near the band's edges.
        let t = BinomTable::new(1000);
        for n in 0..=1000u64 {
            let nones: Vec<u64> = (0..=n).filter(|&k| t.get(n, k).is_none()).collect();
            for &k in &nones {
                assert!(t.get(n, n - k).is_none(), "C({n},{k}) vs its mirror");
            }
            if let (Some(&lo), Some(&hi)) = (nones.first(), nones.last()) {
                assert_eq!(nones.len() as u64, hi - lo + 1, "row {n} band");
            }
        }
    }

    #[test]
    fn table_falls_back_beyond_capacity() {
        let t = BinomTable::new(10);
        assert_eq!(t.max_n(), 10);
        assert_eq!(t.get(50, 4), binom(50, 4));
    }

    #[test]
    fn signed_convenience_clamps_out_of_range() {
        let t = BinomTable::new(20);
        assert_eq!(t.c(-1, 0), 0);
        assert_eq!(t.c(5, -2), 0);
        assert_eq!(t.c(5, 6), 0);
        assert_eq!(t.c(10, 4), 210);
    }

    #[test]
    fn shared_table_covers_component_range() {
        let t = shared_table();
        assert!(t.max_n() >= 258, "must cover C(2*128+2, f)");
        assert_eq!(t.get(130, 10), Some(266_401_260_897_200));
    }
}
