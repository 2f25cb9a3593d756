//! Cluster planning: the paper's two models joined into the question a
//! deployer actually asks.
//!
//! The survivability model (Equation 1) pushes cluster size **up**: more
//! nodes mean more gateway redundancy, so `P[S]` at a given failure count
//! rises with `N`. The proactive-cost model (Figure 1) pushes size
//! **down**: probe traffic grows as `N(N−1)`, so a bandwidth budget caps
//! how many hosts can be monitored within a detection-latency target.
//! A deployment is feasible exactly when the interval between those two
//! bounds is non-empty.

use crate::thresholds::first_n_exceeding;
use drs_core::SimDuration;

use super::model::ProbeCostModel;

/// What the deployment must achieve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanningRequirement {
    /// Simultaneous component failures the cluster must ride out…
    pub resilience_f: u64,
    /// …with at least this pair-survivability (paper: 0.99).
    pub survivability_target: f64,
    /// Worst acceptable error-resolution (detection) time.
    pub detection_target: SimDuration,
    /// Fraction of each network's bandwidth the probing may consume.
    pub bandwidth_budget: f64,
}

/// The planner's verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterPlan {
    /// Smallest cluster meeting the survivability requirement.
    pub min_nodes: u64,
    /// Largest cluster the probe budget can monitor within the detection
    /// target (0 when even two hosts blow the budget).
    pub max_nodes: u64,
    /// Whether any size satisfies both constraints.
    pub feasible: bool,
    /// The cheapest feasible size (the survivability minimum), when
    /// feasible.
    pub recommended_nodes: Option<u64>,
    /// The probe sweep period to configure at the recommended size (the
    /// longest sweep that still meets the detection target, i.e. the
    /// least bandwidth), when feasible.
    pub probe_interval: Option<SimDuration>,
}

/// Computes the feasible size window and a recommendation.
///
/// # Panics
/// Panics on a survivability target outside `(0, 1)` or a non-positive
/// detection target.
#[must_use]
pub fn plan_cluster(model: &ProbeCostModel, req: &PlanningRequirement) -> ClusterPlan {
    assert!(
        req.survivability_target > 0.0 && req.survivability_target < 1.0,
        "survivability target must be in (0, 1)"
    );
    assert!(
        req.detection_target > SimDuration::ZERO,
        "detection target must be positive"
    );
    let min_nodes = first_n_exceeding(req.resilience_f, req.survivability_target)
        .expect("P[S] -> 1, so every target below 1 is crossed");
    let max_nodes = model.max_nodes(req.bandwidth_budget, req.detection_target);
    let feasible = min_nodes <= max_nodes;
    let (recommended_nodes, probe_interval) = if feasible {
        // Detection = miss_threshold sweeps; pick the sweep that exactly
        // meets the target (longest sweep = least bandwidth), but never a
        // sweep shorter than the budget allows at this size.
        let relaxed = SimDuration(req.detection_target.as_nanos() / model.miss_threshold as u64);
        let budget_floor = model.min_sweep_period(min_nodes, req.bandwidth_budget);
        (Some(min_nodes), Some(relaxed.max(budget_floor)))
    } else {
        (None, None)
    };
    ClusterPlan {
        min_nodes,
        max_nodes,
        feasible,
        recommended_nodes,
        probe_interval,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_model() -> ProbeCostModel {
        ProbeCostModel::default() // 100 Mb/s, 74-byte frames, 1-miss
    }

    #[test]
    fn paper_scenario_is_feasible() {
        // Survive 2 failures at 0.99, detect within 1 s on 10% bandwidth:
        // the window is [18, 92] and the planner recommends 18.
        let plan = plan_cluster(
            &paper_model(),
            &PlanningRequirement {
                resilience_f: 2,
                survivability_target: 0.99,
                detection_target: SimDuration::from_secs(1),
                bandwidth_budget: 0.10,
            },
        );
        assert_eq!(plan.min_nodes, 18);
        assert!(plan.max_nodes >= 90);
        assert!(plan.feasible);
        assert_eq!(plan.recommended_nodes, Some(18));
        let interval = plan.probe_interval.unwrap();
        assert!(interval <= SimDuration::from_secs(1));
        // And that interval respects the bandwidth budget at N=18.
        let util = paper_model().utilization(18, interval);
        assert!(util <= 0.10 + 1e-9, "{util}");
    }

    #[test]
    fn tight_budget_makes_high_resilience_infeasible() {
        // f=4 needs 45 nodes, but 0.5% bandwidth with a 100 ms detection
        // target cannot monitor anywhere near that many.
        let plan = plan_cluster(
            &paper_model(),
            &PlanningRequirement {
                resilience_f: 4,
                survivability_target: 0.99,
                detection_target: SimDuration::from_millis(100),
                bandwidth_budget: 0.005,
            },
        );
        assert_eq!(plan.min_nodes, 45);
        assert!(plan.max_nodes < 45, "max {}", plan.max_nodes);
        assert!(!plan.feasible);
        assert_eq!(plan.recommended_nodes, None);
    }

    #[test]
    fn miss_threshold_shrinks_the_window() {
        // A 2-miss daemon needs two sweeps per detection, halving the
        // feasible sweep and therefore the maximum cluster size.
        let strict = ProbeCostModel {
            miss_threshold: 2,
            ..paper_model()
        };
        let req = PlanningRequirement {
            resilience_f: 2,
            survivability_target: 0.99,
            detection_target: SimDuration::from_secs(1),
            bandwidth_budget: 0.10,
        };
        let loose_plan = plan_cluster(&paper_model(), &req);
        let strict_plan = plan_cluster(&strict, &req);
        assert!(strict_plan.max_nodes < loose_plan.max_nodes);
        assert!(strict_plan.feasible, "still room above 18 nodes");
    }

    #[test]
    fn recommended_interval_never_exceeds_detection_budget() {
        for f in 2..=5u64 {
            let plan = plan_cluster(
                &paper_model(),
                &PlanningRequirement {
                    resilience_f: f,
                    survivability_target: 0.99,
                    detection_target: SimDuration::from_secs(2),
                    bandwidth_budget: 0.25,
                },
            );
            if let (Some(n), Some(interval)) = (plan.recommended_nodes, plan.probe_interval) {
                let detection =
                    SimDuration(interval.as_nanos() * paper_model().miss_threshold as u64);
                assert!(detection <= SimDuration::from_secs(2), "f={f}");
                assert!(paper_model().utilization(n, interval) <= 0.25 + 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "survivability target")]
    fn degenerate_target_rejected() {
        let _ = plan_cluster(
            &paper_model(),
            &PlanningRequirement {
                resilience_f: 2,
                survivability_target: 1.0,
                detection_target: SimDuration::from_secs(1),
                bandwidth_budget: 0.1,
            },
        );
    }
}
