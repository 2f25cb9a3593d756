//! Threshold finding: the smallest cluster size whose survivability
//! exceeds a target, for a fixed number of failures.
//!
//! Reproduces the paper's milestone claims: *"for f=2 the P\[S\] surpasses
//! 0.99 at 18 nodes. For f=3 the P\[S\] surpasses 0.99 at 32 nodes, and for
//! f=4 the P\[S\] surpasses 0.99 at 45 nodes."*

use crate::exact::{component_count, p_success, p_success_f64};

/// Hard cap on the search range; P\[S\] → 1 as N → ∞ for every fixed f, so a
/// missing crossing below this bound indicates a target of 1.0 or above.
pub const SEARCH_LIMIT: u64 = 100_000;

/// The smallest `N` with `P\[S\](N, f) > target`, or `None` if no `N` up to
/// [`SEARCH_LIMIT`] crosses it (e.g. `target >= 1.0`).
///
/// Since `P\[S\]` is monotone increasing in `N` for fixed `f` (verified in
/// `exact::tests`), a forward scan with an exponential-then-binary refinement
/// is exact.
#[must_use]
pub fn first_n_exceeding(f: u64, target: f64) -> Option<u64> {
    if target >= 1.0 {
        return None;
    }
    let p = |n: u64| {
        if 2 * n + 2 <= 130 {
            // u128-exact region (the paper's entire range).
            p_success(n, f)
        } else {
            p_success_f64(n, f)
        }
    };
    let start = f.max(2); // need at least a pair of nodes and f <= 2N+2
    let mut lo = start;
    while component_count(lo) < f {
        lo += 1;
    }
    if p(lo) > target {
        return Some(lo);
    }
    // Exponential search for an upper bracket.
    let mut hi = lo.max(1) * 2;
    while p(hi) <= target {
        if hi >= SEARCH_LIMIT {
            return None;
        }
        lo = hi;
        hi = (hi * 2).min(SEARCH_LIMIT);
    }
    // Binary search for the first crossing in (lo, hi].
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if p(mid) > target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// A milestone row: the 0.99 crossing for one failure count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Milestone {
    /// Number of simultaneous component failures.
    pub failures: u64,
    /// Smallest cluster size with `P\[S\] > threshold`.
    pub n_crossing: u64,
    /// `P\[S\]` at the crossing.
    pub p_at_crossing: f64,
    /// `P\[S\]` one node earlier (shows the crossing is tight).
    pub p_before: f64,
}

/// Milestone table for a range of failure counts at a given threshold
/// (0.99 in the paper).
#[must_use]
pub fn milestone_table(failures: impl IntoIterator<Item = u64>, threshold: f64) -> Vec<Milestone> {
    failures
        .into_iter()
        .filter_map(|f| {
            let n = first_n_exceeding(f, threshold)?;
            Some(Milestone {
                failures: f,
                n_crossing: n,
                p_at_crossing: p_success(n, f),
                p_before: if n > f.max(2) {
                    p_success(n - 1, f)
                } else {
                    0.0
                },
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_milestones() {
        assert_eq!(first_n_exceeding(2, 0.99), Some(18));
        assert_eq!(first_n_exceeding(3, 0.99), Some(32));
        assert_eq!(first_n_exceeding(4, 0.99), Some(45));
    }

    #[test]
    fn extended_milestones_are_monotone_in_f() {
        let table = milestone_table(2..=10, 0.99);
        assert_eq!(table.len(), 9);
        for w in table.windows(2) {
            assert!(
                w[1].n_crossing > w[0].n_crossing,
                "more failures should require more nodes"
            );
        }
    }

    #[test]
    fn crossing_is_tight() {
        for m in milestone_table(2..=6, 0.99) {
            assert!(m.p_at_crossing > 0.99);
            assert!(m.p_before <= 0.99, "f={}: {}", m.failures, m.p_before);
        }
    }

    #[test]
    fn impossible_target_returns_none() {
        assert_eq!(first_n_exceeding(2, 1.0), None);
        assert_eq!(first_n_exceeding(2, 1.5), None);
    }

    #[test]
    fn lenient_target_is_cheap() {
        assert_eq!(first_n_exceeding(2, 0.0), Some(2));
    }

    #[test]
    fn high_precision_target_uses_f64_region() {
        // 0.9999 for f=6 pushes N beyond the paper's range but must still
        // terminate and be monotone-consistent.
        let n = first_n_exceeding(6, 0.9999).unwrap();
        assert!(p_success_f64(n, 6) > 0.9999);
        assert!(p_success_f64(n - 1, 6) <= 0.9999);
    }
}
