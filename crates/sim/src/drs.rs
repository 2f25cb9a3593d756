//! The DES backend of the DRS daemon: `drs_core::DrsIo` implemented by
//! the kernel's [`Ctx`], plus the [`Protocol`] glue that lets a
//! [`DrsDaemon`] be installed on every simulated host.
//!
//! This module is the whole sim side of the inverted dependency: the
//! daemon state machine lives in `drs_core` and knows nothing about the
//! simulator; the simulator provides `Ctx`, and this adapter says how
//! each `DrsIo` operation maps onto it: the operations other protocols
//! share delegate to the inherent `Ctx` method of the same name, and the
//! DRS-only ones (`pick`, `routes`, `probe_obs_mut`, `notify_reroute`)
//! act on the host's state here. [`DrsIo::pick`] draws `gen_range(0..n)`
//! from the host's own random stream.

use drs_core::daemon::DrsDaemon;
use drs_core::io::DrsIo;
use drs_core::messages::DrsMsg;
use drs_core::routes::{Route, RouteTable};
use drs_core::stats::ProbeObs;
use drs_core::{NetId, NodeId, SimDuration, SimTime};
use drs_obs::flight::{EventRef, TraceKind};

use crate::workload::Transition;
use crate::world::{Ctx, Protocol};

impl DrsIo for Ctx<'_, DrsMsg> {
    fn now(&self) -> SimTime {
        Ctx::now(self)
    }

    fn planes(&self) -> u8 {
        Ctx::planes(self)
    }

    fn pick(&mut self, n: usize) -> usize {
        self.core.rng_for(self.node).gen_range(0..n)
    }

    fn send_echo_traced(
        &mut self,
        net: NetId,
        dst: NodeId,
        id: u32,
        seq: u32,
        flight: Option<EventRef>,
    ) {
        Ctx::send_echo_traced(self, net, dst, id, seq, flight);
    }

    fn send_control(&mut self, net: NetId, dst: NodeId, msg: DrsMsg) {
        Ctx::send_control(self, net, dst, msg);
    }

    fn broadcast_control(&mut self, net: NetId, msg: DrsMsg) {
        Ctx::broadcast_control(self, net, msg);
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        Ctx::set_timer(self, delay, token);
    }

    fn set_route(&mut self, dst: NodeId, route: Route) {
        Ctx::set_route(self, dst, route);
    }

    fn route(&self, dst: NodeId) -> Option<Route> {
        Ctx::route(self, dst)
    }

    fn routes(&self) -> &RouteTable {
        self.core.hosts.routes(self.node)
    }

    fn probe_obs_mut(&mut self) -> &mut ProbeObs {
        self.core.hosts.obs_mut(self.node)
    }

    /// Counted 1:1 by the fluid workload engine against the daemon's
    /// `reroute_complete` histogram: no events, draws or route changes.
    fn notify_reroute(&mut self, dst: NodeId) {
        self.core.record_workload(Transition::Reroute {
            host: self.node,
            dst,
        });
    }

    fn flight_record(
        &mut self,
        kind: TraceKind,
        plane: Option<NetId>,
        arg: u64,
        cause: Option<EventRef>,
    ) -> Option<EventRef> {
        Ctx::flight_record(self, kind, plane, arg, cause)
    }

    fn flight_pin(&mut self, r: EventRef) {
        Ctx::flight_pin(self, r);
    }

    fn flight_release(&mut self, r: EventRef) {
        Ctx::flight_release(self, r);
    }
}

/// Installs the DRS daemon on simulated hosts: each kernel callback
/// enters the matching `drs_core` handler with `Ctx` as the `DrsIo`
/// backend. (`on_transport` is deliberately not forwarded — ignoring
/// transport events is what makes DRS proactive.)
impl Protocol for DrsDaemon {
    type Msg = DrsMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, DrsMsg>) {
        self.handle_start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, DrsMsg>, token: u64) {
        self.handle_timer(ctx, token);
    }

    fn on_echo_reply(
        &mut self,
        ctx: &mut Ctx<'_, DrsMsg>,
        from: NodeId,
        net: NetId,
        id: u32,
        seq: u32,
    ) {
        self.handle_echo_reply(ctx, from, net, id, seq);
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_, DrsMsg>, from: NodeId, net: NetId, msg: &DrsMsg) {
        self.handle_control(ctx, from, net, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, SimComponent};
    use crate::scenario::ClusterSpec;
    use crate::world::World;
    use drs_core::config::{DrsConfig, GatewayPolicy};
    use drs_core::metrics::DrsEventKind;

    /// The adapter is a pure delegation layer: a daemon driven through
    /// `DrsIo` behaves exactly like one driven through `Ctx` directly
    /// (they are the same calls), so a full fault scenario still works
    /// end to end with the Protocol impl living here.
    #[test]
    fn daemon_runs_on_the_kernel_through_the_trait() {
        let n = 4;
        let cfg = DrsConfig::default()
            .probe_timeout(SimDuration::from_millis(50))
            .probe_interval(SimDuration::from_millis(200));
        let mut w = World::new(ClusterSpec::new(n).seed(3), move |id| {
            DrsDaemon::new(id, n, cfg)
        });
        w.schedule_faults(
            FaultPlan::new().fail_at(SimTime(1_000_000_000), SimComponent::Hub(NetId::A)),
        );
        w.run_for(SimDuration::from_secs(4));
        for i in 0..n as u32 {
            for (_, route) in w.host(NodeId(i)).routes.iter() {
                assert_eq!(route, Route::Direct(NetId::B), "node {i} failed over");
            }
            assert!(w.protocol(NodeId(i)).metrics.link_down_events > 0);
        }
    }

    /// `pick` draws from the host's own random stream, so Random-policy
    /// runs stay seed-reproducible through the trait.
    #[test]
    fn random_policy_is_seed_reproducible_through_pick() {
        let run = || {
            let n = 6;
            let cfg = DrsConfig::default()
                .probe_timeout(SimDuration::from_millis(50))
                .probe_interval(SimDuration::from_millis(200))
                .gateway_policy(GatewayPolicy::Random);
            let mut w = World::new(ClusterSpec::new(n).seed(41), move |id| {
                DrsDaemon::new(id, n, cfg)
            });
            let t0 = SimTime(1_000_000_000);
            w.schedule_faults(
                FaultPlan::new()
                    .fail_at(t0, SimComponent::Nic(NodeId(0), NetId::B))
                    .fail_at(t0, SimComponent::Nic(NodeId(1), NetId::A)),
            );
            w.run_for(SimDuration::from_secs(6));
            w.host(NodeId(0)).routes.get(NodeId(1))
        };
        let a = run();
        assert!(matches!(a, Some(Route::Via { .. })), "gateway installed");
        assert_eq!(a, run(), "identical seed, identical pick");
    }

    /// The event log a journaling daemon accumulates through the DES
    /// backend is ordinary metrics state — untouched by the adapter.
    #[test]
    fn journaling_daemon_logs_through_the_adapter() {
        let n = 3;
        let cfg = DrsConfig::default()
            .probe_timeout(SimDuration::from_millis(50))
            .probe_interval(SimDuration::from_millis(200))
            .record_journal(true);
        let mut w = World::new(ClusterSpec::new(n).seed(8), move |id| {
            DrsDaemon::new(id, n, cfg)
        });
        w.schedule_faults(
            FaultPlan::new().fail_at(SimTime(500_000_000), SimComponent::Hub(NetId::A)),
        );
        w.run_for(SimDuration::from_secs(3));
        let d = w.protocol(NodeId(0));
        assert!(d
            .metrics
            .first_after(SimTime(0), |k| matches!(k, DrsEventKind::LinkDown { .. }))
            .is_some());
        assert!(d.journal().is_some_and(|j| !j.is_empty()));
    }
}
