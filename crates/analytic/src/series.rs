//! Figure 2: the `P\[Success\]` curves — one per failure count — showing
//! convergence to 1 as the cluster grows.

use crate::exact::p_success;

/// One curve of Figure 2: `P\[S\](N)` for a fixed failure count.
#[derive(Debug, Clone, PartialEq)]
pub struct SurvivabilitySeries {
    /// Fixed number of simultaneous failures.
    pub failures: u64,
    /// `(N, P\[S\](N, f))` points, N ascending.
    pub points: Vec<(u64, f64)>,
}

impl SurvivabilitySeries {
    /// Smallest N in the series with `P\[S\] > p`, if any.
    #[must_use]
    pub fn first_above(&self, p: f64) -> Option<u64> {
        self.points.iter().find(|(_, v)| *v > p).map(|(n, _)| *n)
    }
}

/// Computes one Figure 2 curve over `n_min..=n_max` (clamped below so that
/// a pair of nodes exists and `f ≤ 2N + 2`).
#[must_use]
pub fn series(f: u64, n_min: u64, n_max: u64) -> SurvivabilitySeries {
    let start = n_min.max(2);
    let points = (start..=n_max)
        .filter(|&n| 2 * n + 2 >= f)
        .map(|n| (n, p_success(n, f)))
        .collect();
    SurvivabilitySeries {
        failures: f,
        points,
    }
}

/// The full Figure 2 family: curves for `f = 2..=10`, `N` up to 64 (the
/// paper's axes).
#[must_use]
pub fn figure2(n_max: u64) -> Vec<SurvivabilitySeries> {
    (2..=10).map(|f| series(f, f + 1, n_max)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_family_shape() {
        let fam = figure2(64);
        assert_eq!(fam.len(), 9);
        for (i, s) in fam.iter().enumerate() {
            assert_eq!(s.failures, i as u64 + 2);
            let (last_n, last_p) = *s.points.last().unwrap();
            assert_eq!(last_n, 64);
            assert!(last_p > 0.9, "f={}: {}", s.failures, last_p);
        }
    }

    #[test]
    fn curves_ordered_by_failures() {
        // At any shared N, more failures mean lower survivability.
        let fam = figure2(64);
        for w in fam.windows(2) {
            let (hi, lo) = (&w[0], &w[1]);
            let n = 40;
            let p_hi = hi.points.iter().find(|(m, _)| *m == n).unwrap().1;
            let p_lo = lo.points.iter().find(|(m, _)| *m == n).unwrap().1;
            assert!(p_hi >= p_lo);
        }
    }

    #[test]
    fn first_above_matches_milestones() {
        let s = series(2, 2, 64);
        assert_eq!(s.first_above(0.99), Some(18));
    }

    #[test]
    fn first_above_none_when_unreached() {
        let s = series(10, 11, 20);
        assert_eq!(s.first_above(0.999), None);
    }

    #[test]
    fn points_within_unit_interval_and_monotone() {
        for s in figure2(64) {
            for w in s.points.windows(2) {
                assert!(w[0].1 <= w[1].1 + 1e-12);
                assert!((0.0..=1.0).contains(&w[0].1));
            }
        }
    }
}
