//! The no-daemon baseline: static routes on the primary network.

use drs_sim::world::Protocol;

/// Static routing: the kernel's default table (direct routes on network
/// A) is never touched. Any failure on the primary path is permanent from
/// the application's point of view.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticRouting;

impl Protocol for StaticRouting {
    type Msg = ();
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_sim::fault::{FaultPlan, SimComponent};
    use drs_sim::scenario::ClusterSpec;
    use drs_sim::world::World;
    use drs_sim::{NetId, NodeId, SimDuration, SimTime};

    #[test]
    fn healthy_cluster_delivers() {
        let mut w = World::new(ClusterSpec::new(4).seed(1), |_| StaticRouting);
        w.send_app(SimTime(0), NodeId(0), NodeId(3), 128);
        w.run_for(SimDuration::from_secs(2));
        assert_eq!(w.app_stats().delivered, 1);
    }

    #[test]
    fn primary_hub_failure_is_fatal() {
        let mut w = World::new(ClusterSpec::new(4).seed(1), |_| StaticRouting);
        w.schedule_faults(FaultPlan::new().fail_at(SimTime(0), SimComponent::Hub(NetId::A)));
        w.send_app(SimTime(1000), NodeId(0), NodeId(3), 128);
        w.run_for(SimDuration::from_secs(300));
        assert_eq!(w.app_stats().delivered, 0);
        assert_eq!(w.app_stats().gave_up, 1);
        // The redundant network exists but nothing ever uses it.
        assert_eq!(w.medium(NetId::B).stats.frames, 0);
    }
}
