//! Figure 1 series generation: response time vs cluster size, one curve
//! per bandwidth budget.

use drs_core::SimDuration;

use super::model::ProbeCostModel;

/// The bandwidth budgets Figure 1 plots (fractions of the 100 Mb/s
/// segment).
pub const PAPER_BUDGETS: [f64; 4] = [0.05, 0.10, 0.15, 0.25];

/// One Figure 1 curve: error-resolution time as a function of N at a
/// fixed bandwidth budget.
#[derive(Debug, Clone, PartialEq)]
pub struct CostSeries {
    /// Bandwidth budget (fraction of segment rate).
    pub budget: f64,
    /// `(N, response_time)` points, N ascending.
    pub points: Vec<(u64, SimDuration)>,
}

impl CostSeries {
    /// The largest N in this series whose response time is below `t`.
    #[must_use]
    pub fn max_nodes_within(&self, t: SimDuration) -> Option<u64> {
        self.points
            .iter()
            .filter(|(_, rt)| *rt <= t)
            .map(|(n, _)| *n)
            .max()
    }
}

/// Generates the full Figure 1 family over `2..=n_max` hosts for the
/// given budgets (the paper's if `budgets` is [`PAPER_BUDGETS`]).
#[must_use]
pub fn figure1(model: &ProbeCostModel, n_max: u64, budgets: &[f64]) -> Vec<CostSeries> {
    budgets
        .iter()
        .map(|&budget| CostSeries {
            budget,
            points: (2..=n_max)
                .map(|n| (n, model.response_time(n, budget)))
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_shape_and_ordering() {
        let fam = figure1(&ProbeCostModel::default(), 120, &PAPER_BUDGETS);
        assert_eq!(fam.len(), 4);
        for s in &fam {
            assert_eq!(s.points.len(), 119);
            // Monotone in N.
            assert!(s.points.windows(2).all(|w| w[0].1 <= w[1].1));
        }
        // Bigger budget = lower curve, pointwise.
        for pair in fam.windows(2) {
            for (a, b) in pair[0].points.iter().zip(&pair[1].points) {
                assert!(a.1 >= b.1);
            }
        }
    }

    #[test]
    fn ninety_hosts_anchor_in_series_form() {
        let fam = figure1(&ProbeCostModel::default(), 120, &[0.10]);
        let cap = fam[0].max_nodes_within(SimDuration::from_secs(1)).unwrap();
        assert!(cap >= 90, "paper's 90-host anchor, got {cap}");
    }

    #[test]
    fn empty_when_no_point_qualifies() {
        let fam = figure1(&ProbeCostModel::default(), 120, &[0.05]);
        assert_eq!(fam[0].max_nodes_within(SimDuration::from_nanos(1)), None);
    }
}
