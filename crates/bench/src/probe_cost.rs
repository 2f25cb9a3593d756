//! Empirical validation of the Figure 1 cost model
//! ([`drs_analytic::cost`]): run real DRS daemons on the packet-level
//! simulator and measure what probing actually costs and how fast
//! failures are actually detected. One trial, shared by the `fig1`
//! report's cross-check and the `ablation` report's interval-sensitivity
//! table.

use drs_core::{DrsConfig, DrsDaemon, DrsEventKind};
use drs_sim::fault::{FaultPlan, SimComponent};
use drs_sim::scenario::ClusterSpec;
use drs_sim::world::World;
use drs_sim::{NetId, NodeId, SimDuration};

/// Measured probe cost and detection latency for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmpiricalCost {
    /// Measured probe-byte share of segment bandwidth (network A).
    pub probe_utilization: f64,
    /// Mean time from fault injection to a daemon declaring the link down.
    pub mean_detection: SimDuration,
    /// Worst observed detection latency.
    pub max_detection: SimDuration,
}

/// Runs an `n`-host DRS cluster for `measure_for`, measuring probe
/// bandwidth, then fails `victim`'s primary NIC and measures every other
/// daemon's detection latency. Where the victim sits in the staggered
/// sweep decides how long its next probe is away, so each caller fixes
/// it.
///
/// # Panics
/// Panics if any daemon fails to detect the failure within ten worst-case
/// detection bounds (which would indicate a protocol bug, not noise).
#[must_use]
pub fn measure_probe_cost(
    n: usize,
    cfg: DrsConfig,
    measure_for: SimDuration,
    victim: NodeId,
    seed: u64,
) -> EmpiricalCost {
    let spec = ClusterSpec::new(n).seed(seed);
    let mut world = World::new(spec, |id| DrsDaemon::new(id, n, cfg));

    // Let one full sweep pass before measuring so the pipeline is warm.
    world.run_for(cfg.probe_interval);
    let snap = world.medium(NetId::A).stats;
    world.run_for(measure_for);
    let probe_bytes = world.medium(NetId::A).stats.probe_bytes - snap.probe_bytes;
    let probe_utilization =
        probe_bytes as f64 * 8.0 / (spec.bandwidth_bps as f64 * measure_for.as_secs_f64());

    // Fault: victim loses its primary NIC.
    let t0 = world.now();
    world.schedule_faults(FaultPlan::new().fail_at(t0, SimComponent::Nic(victim, NetId::A)));
    world.run_for(cfg.worst_case_detection().saturating_mul(10));

    let mut latencies = Vec::with_capacity(n - 1);
    for i in 0..n as u32 {
        let node = NodeId(i);
        if node == victim {
            continue;
        }
        let det = world
            .protocol(node)
            .metrics
            .first_after(t0, |k| {
                matches!(k, DrsEventKind::LinkDown { peer, net }
                    if *peer == victim && *net == NetId::A)
            })
            .unwrap_or_else(|| panic!("daemon {node} never detected the fault"));
        latencies.push(det.at - t0);
    }
    let sum: u64 = latencies.iter().map(|d| d.as_nanos()).sum();
    let mean_detection = SimDuration(sum / latencies.len() as u64);
    let max_detection = *latencies.iter().max().expect("non-empty");

    EmpiricalCost {
        probe_utilization,
        mean_detection,
        max_detection,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_analytic::cost::ProbeCostModel;

    #[test]
    fn measured_utilization_matches_model() {
        // 16 hosts at a 10% budget: configure the daemons with the
        // model-prescribed interval and verify the measured share.
        let model = ProbeCostModel::default();
        let n = 16u64;
        let beta = 0.10;
        let interval = model.min_sweep_period(n, beta);
        let cfg = DrsConfig::default()
            .probe_timeout(
                SimDuration::from_nanos(interval.as_nanos() / 4).max(SimDuration::from_micros(100)),
            )
            .probe_interval(interval);
        let r = measure_probe_cost(n as usize, cfg, SimDuration::from_secs(2), NodeId(15), 3);
        let err = (r.probe_utilization - beta).abs() / beta;
        assert!(
            err < 0.10,
            "measured {:.4} vs budget {beta} ({:.1}% off)",
            r.probe_utilization,
            err * 100.0
        );
    }

    #[test]
    fn detection_latency_within_configured_bound() {
        let cfg = DrsConfig::default()
            .probe_timeout(SimDuration::from_millis(20))
            .probe_interval(SimDuration::from_millis(100));
        let r = measure_probe_cost(8, cfg, SimDuration::from_secs(1), NodeId(7), 4);
        assert!(r.max_detection <= cfg.worst_case_detection() + SimDuration::from_millis(20));
        assert!(r.mean_detection <= r.max_detection);
        assert!(
            r.mean_detection >= SimDuration::from_millis(20),
            "detection cannot beat one probe timeout: {}",
            r.mean_detection
        );
    }

    #[test]
    fn utilization_grows_with_cluster_size() {
        let cfg = DrsConfig::default();
        let small = measure_probe_cost(4, cfg, SimDuration::from_secs(2), NodeId(3), 5);
        let large = measure_probe_cost(12, cfg, SimDuration::from_secs(2), NodeId(11), 5);
        assert!(large.probe_utilization > small.probe_utilization);
    }
}
