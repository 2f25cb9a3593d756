//! The discrete-event engine: the [`Protocol`] plug-in interface for
//! routing daemons, the per-host [`Ctx`] window, and the [`World`] driver.
//!
//! The engine is split by concern:
//!
//! * `queue` — the event queue and the simulator state (`Core`): clock,
//!   pending events, hosts, one
//!   [`SharedMedium`](crate::medium::SharedMedium) per network plane;
//! * `kernel` — kernel-side stack behaviours: frame transmission and
//!   delivery, ICMP auto-reply, TTL forwarding, NIC faults, the reliable
//!   transport;
//! * `driver` — [`World`]: one core and every host's daemon, popped and
//!   dispatched by one loop on the calling thread.
//!
//! The number of planes comes from [`ClusterSpec::planes`]; everything
//! here is written against that `K`, with the paper's two-backplane
//! cluster as the `K = 2` default.

mod driver;
mod kernel;
mod queue;

pub use driver::{ShardStats, ShardedWorld, World};
pub use queue::{Core, EventRecord, EventTag, KernelStats};

/// The flight-recorder vocabulary, re-exported so protocols written
/// against [`Ctx`] need not name `drs_obs` directly.
pub use drs_obs::flight::{EventRef, FlightLog, TraceKind, TraceRecord};

use drs_core::ids::FlowId;
use drs_core::{
    Destination, Frame, FrameKind, NetId, NodeId, ProbeObs, Route, RouteTable, SimDuration, SimTime,
};
use drs_obs::rng::Rng;

use crate::fault::HubSchedule;
use crate::scenario::ClusterSpec;
use crate::stats::HostCounters;
use crate::workload::Transition;

use queue::EventKind;

/// A routing daemon running on every host.
///
/// All methods have empty defaults so a protocol implements only what it
/// needs. Each callback receives a [`Ctx`] scoped to the host the instance
/// runs on — the daemon's window onto "its" kernel: timers, the route
/// table, ICMP, and control-message I/O. A daemon cannot touch other
/// hosts' state except by sending frames, exactly like the real thing.
#[allow(unused_variables)]
pub trait Protocol: Sized {
    /// The protocol's control-message type, carried opaquely in frames.
    type Msg: Clone + std::fmt::Debug;

    /// Called once per host at simulation start.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {}

    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, token: u64) {}

    /// A control message from a peer daemon arrived on `net`.
    fn on_control(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg>,
        from: NodeId,
        net: NetId,
        msg: &Self::Msg,
    ) {
    }

    /// An ICMP echo reply to one of this daemon's probes arrived.
    fn on_echo_reply(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg>,
        from: NodeId,
        net: NetId,
        id: u32,
        seq: u32,
    ) {
    }

    /// The local transport experienced an event (delivery, timeout, …).
    /// Reactive baselines key off [`TransportEvent::Rto`]; DRS ignores
    /// these entirely — that is the whole point of proactivity.
    fn on_transport(&mut self, ctx: &mut Ctx<'_, Self::Msg>, event: TransportEvent) {}
}

/// Transport-layer notifications delivered to the local daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportEvent {
    /// A message was acknowledged end-to-end.
    Delivered {
        /// The completed flow.
        flow: FlowId,
        /// Its destination.
        dst: NodeId,
        /// First-send → ack latency.
        rtt: SimDuration,
    },
    /// A retransmission timeout fired (attempt = the timed-out attempt).
    Rto {
        /// The affected flow.
        flow: FlowId,
        /// Its destination.
        dst: NodeId,
        /// Which attempt timed out (1-based).
        attempt: u32,
    },
    /// The transport exhausted its retry budget.
    GaveUp {
        /// The abandoned flow.
        flow: FlowId,
        /// Its destination.
        dst: NodeId,
    },
    /// A (re)transmission found no route installed for the destination.
    NoRoute {
        /// The affected flow.
        flow: FlowId,
        /// Its destination.
        dst: NodeId,
    },
    /// This host received data but could not transmit the acknowledgement
    /// (no route back, or the local NIC the route uses is down — both
    /// locally observable, like a `sendmsg` error).
    AckFailed {
        /// The flow whose ack failed.
        flow: FlowId,
        /// The peer awaiting the ack.
        dst: NodeId,
    },
    /// This host received a *retransmitted* data segment — the analogue of
    /// a TCP receiver seeing an already-covered sequence number, implying
    /// its earlier acknowledgement (or the original data) was lost in
    /// transit.
    DuplicateData {
        /// The retransmitted flow.
        flow: FlowId,
        /// The sending peer (the return path that may need repair).
        dst: NodeId,
    },
}

/// Final outcome of an application flow (for experiment bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowOutcome {
    /// Acknowledged end-to-end within the given latency.
    Delivered(SimDuration),
    /// Abandoned after the full retry budget.
    GaveUp,
}

/// A daemon's window onto its host: the argument to every [`Protocol`]
/// callback.
pub struct Ctx<'a, M> {
    pub(crate) core: &'a mut Core<M>,
    pub(crate) node: NodeId,
    /// The world's hub schedule: whether what this host sends now is
    /// admitted.
    pub(crate) hubs: &'a HubSchedule,
}

impl<'a, M: Clone + std::fmt::Debug> Ctx<'a, M> {
    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The host this daemon runs on.
    #[must_use]
    pub fn self_id(&self) -> NodeId {
        self.node
    }

    /// Cluster size.
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.core.spec.n
    }

    /// The cluster's redundancy degree (number of network planes).
    #[must_use]
    pub fn planes(&self) -> u8 {
        self.core.spec.planes
    }

    /// The cluster configuration.
    #[must_use]
    pub fn spec(&self) -> &ClusterSpec {
        &self.core.spec
    }

    /// Deterministic RNG stream for this host's daemon: every host has
    /// its own seed-derived stream, so draw order depends only on the
    /// host's own event sequence.
    pub fn rng(&mut self) -> &mut Rng {
        self.core.rng_for(self.node)
    }

    /// Sends an ICMP echo request to `dst` on `net`.
    pub fn send_echo(&mut self, net: NetId, dst: NodeId, id: u32, seq: u32) {
        self.send_echo_traced(net, dst, id, seq, None);
    }

    /// [`Self::send_echo`] with a flight-recorder cause attached: kernel
    /// loss sites blame `flight` if the frame dies, and the echo
    /// auto-reply carries it back so the reply's receive record can name
    /// the send that caused it. `flight` is pure metadata — traced and
    /// untraced sends put identical frames on the wire.
    pub fn send_echo_traced(
        &mut self,
        net: NetId,
        dst: NodeId,
        id: u32,
        seq: u32,
        flight: Option<EventRef>,
    ) {
        self.core.hosts.counters_mut(self.node).echo_sent += 1;
        let wire = self.core.spec.icmp_wire_bytes;
        self.core.hosts.obs_mut(self.node).probe_bytes += u64::from(wire);
        let flight = self.core.flight_ref(flight);
        let frame = Frame {
            src: self.node,
            dst: Destination::Node(dst),
            net,
            kind: FrameKind::EchoRequest { id, seq },
            wire_bytes: wire,
            flight,
        };
        self.core.transmit(frame, self.hubs);
    }

    /// Sends a control message of the default control-frame size.
    pub fn send_control(&mut self, net: NetId, dst: NodeId, msg: M) {
        let wire = self.core.spec.control_wire_bytes;
        self.send_control_sized(net, dst, msg, wire);
    }

    /// Sends a control message with an explicit wire size (e.g. a RIP full
    /// table dump grows with the cluster).
    pub fn send_control_sized(&mut self, net: NetId, dst: NodeId, msg: M, wire_bytes: u32) {
        self.core.hosts.counters_mut(self.node).control_sent += 1;
        let frame = Frame {
            src: self.node,
            dst: Destination::Node(dst),
            net,
            kind: FrameKind::Control(msg),
            wire_bytes,
            flight: None,
        };
        self.core.transmit(frame, self.hubs);
    }

    /// Broadcasts a control message on `net` (every live NIC receives it).
    pub fn broadcast_control(&mut self, net: NetId, msg: M) {
        let wire = self.core.spec.control_wire_bytes;
        self.broadcast_control_sized(net, msg, wire);
    }

    /// Broadcast with an explicit wire size.
    pub fn broadcast_control_sized(&mut self, net: NetId, msg: M, wire_bytes: u32) {
        self.core.hosts.counters_mut(self.node).control_sent += 1;
        let frame = Frame {
            src: self.node,
            dst: Destination::Broadcast,
            net,
            kind: FrameKind::Control(msg),
            wire_bytes,
            flight: None,
        };
        self.core.transmit(frame, self.hubs);
    }

    /// Arms a one-shot timer; `token` comes back in
    /// [`Protocol::on_timer`]. Timers cannot be cancelled — daemons ignore
    /// stale tokens instead (the usual pattern in timer-wheel daemons).
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let at = self.core.now + delay;
        self.core.schedule_at(
            at,
            EventKind::ProtoTimer {
                node: self.node,
                token,
            },
        );
    }

    /// Installs a kernel route.
    pub fn set_route(&mut self, dst: NodeId, route: Route) {
        self.core.hosts.routes_mut(self.node).set(dst, route);
        self.core.record_workload(Transition::RouteSet {
            host: self.node,
            dst,
            route,
        });
    }

    /// Removes the kernel route to `dst`.
    pub fn del_route(&mut self, dst: NodeId) {
        if self.core.hosts.routes_mut(self.node).remove(dst).is_some() {
            self.core.record_workload(Transition::RouteDel {
                host: self.node,
                dst,
            });
        }
    }

    /// Forwards a daemon's reroute-complete notification
    /// ([`drs_core::io::DrsIo::notify_reroute`]) to the fluid workload
    /// engine, which counts it 1:1 against the daemon's
    /// `reroute_complete` histogram. Pure bookkeeping — no events, no
    /// draws, no route changes.
    pub fn notify_reroute(&mut self, dst: NodeId) {
        self.core.record_workload(Transition::Reroute {
            host: self.node,
            dst,
        });
    }

    /// The current route to `dst`.
    #[must_use]
    pub fn route(&self, dst: NodeId) -> Option<Route> {
        self.core.hosts.routes(self.node).get(dst)
    }

    /// Read access to the whole local route table.
    #[must_use]
    pub fn routes(&self) -> &RouteTable {
        self.core.hosts.routes(self.node)
    }

    /// Local NIC driver status (available to daemons, though DRS
    /// deliberately relies on probing instead).
    #[must_use]
    pub fn nic_is_up(&self, net: NetId) -> bool {
        self.core.hosts.nic_is_up(self.node, net)
    }

    /// The local stack counters.
    #[must_use]
    pub fn counters(&self) -> &HostCounters {
        self.core.hosts.counters(self.node)
    }

    /// The local probe-path observability record.
    #[must_use]
    pub fn probe_obs(&self) -> &ProbeObs {
        self.core.hosts.obs(self.node)
    }

    /// Mutable access to the local probe-path observability record, for
    /// daemons recording probe gaps, RTTs, detection and reroute latency.
    /// Recording is pure bookkeeping: it never schedules events, draws
    /// randomness or touches routes, so instrumented runs stay
    /// event-for-event identical to uninstrumented ones.
    pub fn probe_obs_mut(&mut self) -> &mut ProbeObs {
        self.core.hosts.obs_mut(self.node)
    }

    /// Appends a causal flight record attributed to this host, stamped
    /// with the current dispatch's `(time, seq)` identity, and returns
    /// its [`EventRef`] for threading into later records. `None` when
    /// the world's flight recorder is off — like [`Self::probe_obs_mut`]
    /// this is pure bookkeeping: it never schedules events, draws
    /// randomness or touches routes, so traced runs stay event-for-event
    /// identical to untraced ones.
    pub fn flight_record(
        &mut self,
        kind: TraceKind,
        plane: Option<NetId>,
        arg: u64,
        cause: Option<EventRef>,
    ) -> Option<EventRef> {
        self.core
            .flight_record(kind, self.node.0, plane.map(|n| n.0), arg, cause)
    }

    /// Pins `head`'s causal chain against flight-ring eviction until
    /// [`Self::flight_release`] — daemons pin the chain that explains a
    /// still-open outage so the post-mortem can always walk it.
    pub fn flight_pin(&mut self, head: EventRef) {
        self.core.flight_pin(head);
    }

    /// Releases a chain pinned by [`Self::flight_pin`].
    pub fn flight_release(&mut self, head: EventRef) {
        self.core.flight_release(head);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Workload;
    use crate::fault::{FaultPlan, SimComponent};
    use crate::scenario::TransportConfig;

    /// A protocol that does nothing: the kernel behaviours alone.
    struct Idle;
    impl Protocol for Idle {
        type Msg = ();
    }

    fn idle_world(n: usize) -> World<Idle> {
        World::new(ClusterSpec::new(n).seed(7), |_| Idle)
    }

    /// The host state, for the hand-routed scenarios.
    fn hosts(w: &mut World<Idle>) -> &mut crate::host::Hosts {
        &mut w.core.hosts
    }

    #[test]
    fn app_message_delivered_on_healthy_cluster() {
        let mut w = idle_world(4);
        let flow = w.send_app(SimTime(0), NodeId(0), NodeId(3), 512);
        w.run_for(SimDuration::from_secs(2));
        assert_eq!(w.app_stats().delivered, 1);
        assert_eq!(w.app_stats().retransmits, 0);
        match w.flow_outcome(flow) {
            Some(FlowOutcome::Delivered(rtt)) => {
                assert!(rtt < SimDuration::from_millis(1), "LAN rtt, got {rtt}")
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn default_route_uses_primary_network_only() {
        let mut w = idle_world(3);
        w.send_app(SimTime(0), NodeId(0), NodeId(1), 100);
        w.run_for(SimDuration::from_secs(1));
        assert!(w.medium(NetId::A).stats.data_bytes > 0);
        assert_eq!(w.medium(NetId::B).stats.data_bytes, 0);
    }

    #[test]
    fn hub_failure_kills_default_path_and_transport_gives_up() {
        let mut w = idle_world(3);
        w.schedule_faults(FaultPlan::new().fail_at(SimTime(0), SimComponent::Hub(NetId::A)));
        let flow = w.send_app(SimTime(1000), NodeId(0), NodeId(1), 100);
        // Default transport: 1+2+4+...; run past the give-up horizon.
        w.run_for(SimDuration::from_secs(200));
        assert_eq!(w.flow_outcome(flow), Some(FlowOutcome::GaveUp));
        assert_eq!(w.app_stats().gave_up, 1);
        assert!(w.app_stats().retransmits >= 6);
    }

    #[test]
    fn manual_reroute_to_secondary_network_recovers() {
        // An Idle cluster where the "operator" flips the route by hand —
        // exercising exactly the kernel mechanism DRS automates.
        let mut w = idle_world(3);
        w.schedule_faults(FaultPlan::new().fail_at(SimTime(0), SimComponent::Hub(NetId::A)));
        let flow = w.send_app(SimTime(1000), NodeId(0), NodeId(1), 100);
        w.run_for(SimDuration::from_millis(500));
        // Flip sender route (and receiver's route for the ack path).
        hosts(&mut w)
            .routes_mut(NodeId(0))
            .set(NodeId(1), Route::Direct(NetId::B));
        hosts(&mut w)
            .routes_mut(NodeId(1))
            .set(NodeId(0), Route::Direct(NetId::B));
        w.run_for(SimDuration::from_secs(10));
        assert_eq!(w.app_stats().delivered, 1);
        match w.flow_outcome(flow) {
            Some(FlowOutcome::Delivered(rtt)) => {
                // Delivered on the first retransmit (~1 s RTO).
                assert!(rtt >= SimDuration::from_millis(900), "{rtt}");
                assert!(rtt < SimDuration::from_secs(2), "{rtt}");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn gateway_forwarding_works() {
        // 0 -> 2 via gateway 1: 0 reaches 1 on net A, 1 reaches 2 on net B.
        let mut w = idle_world(3);
        hosts(&mut w).routes_mut(NodeId(0)).set(
            NodeId(2),
            Route::Via {
                gateway: NodeId(1),
                net: NetId::A,
            },
        );
        hosts(&mut w)
            .routes_mut(NodeId(1))
            .set(NodeId(2), Route::Direct(NetId::B));
        // Ack path: 2 -> 0 via 1 as well.
        hosts(&mut w).routes_mut(NodeId(2)).set(
            NodeId(0),
            Route::Via {
                gateway: NodeId(1),
                net: NetId::B,
            },
        );
        hosts(&mut w)
            .routes_mut(NodeId(1))
            .set(NodeId(0), Route::Direct(NetId::A));
        w.send_app(SimTime(0), NodeId(0), NodeId(2), 64);
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(w.app_stats().delivered, 1);
        assert_eq!(w.host(NodeId(1)).counters.forwarded, 2, "data + ack");
    }

    #[test]
    fn ttl_expiry_breaks_routing_loops() {
        // 0 and 1 point at each other as gateways for 2: a loop.
        let mut w = idle_world(3);
        hosts(&mut w).routes_mut(NodeId(0)).set(
            NodeId(2),
            Route::Via {
                gateway: NodeId(1),
                net: NetId::A,
            },
        );
        hosts(&mut w).routes_mut(NodeId(1)).set(
            NodeId(2),
            Route::Via {
                gateway: NodeId(0),
                net: NetId::A,
            },
        );
        w.send_app(SimTime(0), NodeId(0), NodeId(2), 64);
        // Default transport keeps retrying for 1+2+…+64 = 127 s.
        w.run_for(SimDuration::from_secs(200));
        assert_eq!(w.app_stats().delivered, 0);
        let ttl_drops: u64 = (0..3).map(|i| w.host(NodeId(i)).counters.dropped_ttl).sum();
        assert!(ttl_drops > 0, "loop must terminate via TTL");
        // Loop terminated: simulation drained rather than spinning forever.
        assert_eq!(w.flows_in_flight(), 0);
    }

    #[test]
    fn nic_failure_silences_one_host_only() {
        let mut w = idle_world(3);
        w.schedule_faults(
            FaultPlan::new().fail_at(SimTime(0), SimComponent::Nic(NodeId(1), NetId::A)),
        );
        w.send_app(SimTime(1000), NodeId(0), NodeId(1), 64); // to the deaf host
        w.send_app(SimTime(1000), NodeId(0), NodeId(2), 64); // unaffected
        w.run_for(SimDuration::from_secs(200));
        assert_eq!(w.app_stats().delivered, 1);
        assert_eq!(w.app_stats().gave_up, 1);
    }

    #[test]
    fn repair_restores_connectivity() {
        let mut w = idle_world(2);
        w.schedule_faults(
            FaultPlan::new()
                .fail_at(SimTime(0), SimComponent::Hub(NetId::A))
                .repair_at(SimTime(2_500_000_000), SimComponent::Hub(NetId::A)),
        );
        let flow = w.send_app(SimTime(1000), NodeId(0), NodeId(1), 64);
        w.run_for(SimDuration::from_secs(30));
        // RTOs at 1s, 3s(1+2): the 3s retransmit lands after the 2.5s repair.
        assert_eq!(w.app_stats().delivered, 1);
        match w.flow_outcome(flow).unwrap() {
            FlowOutcome::Delivered(rtt) => assert!(rtt >= SimDuration::from_secs(2)),
            FlowOutcome::GaveUp => panic!("should recover after repair"),
        }
    }

    #[test]
    fn echo_roundtrip_and_kernel_reply_counter() {
        struct Pinger {
            got: Vec<(NodeId, NetId, u32, u32)>,
        }
        impl Protocol for Pinger {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.self_id() == NodeId(0) {
                    ctx.send_echo(NetId::B, NodeId(1), 5, 9);
                }
            }
            fn on_echo_reply(
                &mut self,
                _ctx: &mut Ctx<'_, ()>,
                from: NodeId,
                net: NetId,
                id: u32,
                seq: u32,
            ) {
                self.got.push((from, net, id, seq));
            }
        }
        let mut w = World::new(ClusterSpec::new(2).seed(1), |_| Pinger { got: vec![] });
        w.run_for(SimDuration::from_millis(5));
        assert_eq!(w.protocol(NodeId(0)).got, vec![(NodeId(1), NetId::B, 5, 9)]);
        assert_eq!(w.host(NodeId(1)).counters.echo_answered, 1);
        assert_eq!(w.host(NodeId(0)).counters.echo_sent, 1);
    }

    #[test]
    fn broadcast_reaches_all_but_sender() {
        #[derive(Default)]
        struct Bcast {
            received: u32,
        }
        impl Protocol for Bcast {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                if ctx.self_id() == NodeId(2) {
                    ctx.broadcast_control(NetId::A, 0xAB);
                }
            }
            fn on_control(&mut self, _ctx: &mut Ctx<'_, u8>, from: NodeId, _net: NetId, msg: &u8) {
                assert_eq!(*msg, 0xAB);
                assert_eq!(from, NodeId(2));
                self.received += 1;
            }
        }
        let mut w = World::new(ClusterSpec::new(5).seed(3), |_| Bcast::default());
        w.run_for(SimDuration::from_millis(5));
        let total: u32 = (0..5).map(|i| w.protocol(NodeId(i)).received).sum();
        assert_eq!(total, 4);
        assert_eq!(w.protocol(NodeId(2)).received, 0);
    }

    #[test]
    fn timers_fire_in_order_with_tokens() {
        #[derive(Default)]
        struct Timers {
            fired: Vec<u64>,
        }
        impl Protocol for Timers {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.set_timer(SimDuration::from_millis(10), 1);
                ctx.set_timer(SimDuration::from_millis(30), 3);
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_, ()>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut w = World::new(ClusterSpec::new(2).seed(0), |_| Timers::default());
        w.run_for(SimDuration::from_millis(25));
        assert_eq!(w.protocol(NodeId(0)).fired, vec![1, 2]);
        w.run_for(SimDuration::from_millis(10));
        assert_eq!(w.protocol(NodeId(0)).fired, vec![1, 2, 3]);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut w = idle_world(2);
        w.run_until(SimTime(5_000_000_000));
        assert_eq!(w.now(), SimTime(5_000_000_000));
    }

    /// A timer armed `u64::MAX` ns ahead saturates at the last instant
    /// instead of wrapping into the past, where it would fire at once.
    #[test]
    fn a_timer_past_the_end_of_time_never_fires() {
        #[derive(Default)]
        struct Late {
            fired: u32,
        }
        impl Protocol for Late {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, token: u64) {
                if token == 0 {
                    ctx.set_timer(SimDuration(u64::MAX), 1);
                } else {
                    self.fired += 1;
                }
            }
        }
        let mut w = World::new(ClusterSpec::new(2).seed(1), |_| Late::default());
        w.run_for(SimDuration::from_secs(2));
        assert_eq!(w.now(), SimTime(2_000_000_000));
        for i in 0..2 {
            assert_eq!(w.protocol(NodeId(i)).fired, 0, "host {i}");
        }
        let ks = w.kernel_stats();
        assert_eq!(ks.clamped_past, 0);
        assert_eq!(ks.queue_depth, 2, "both timers still pending");
    }

    #[test]
    fn determinism_same_seed_same_world() {
        let build = |seed| {
            let mut w = World::new(ClusterSpec::new(6).seed(seed), |_| Idle);
            let mut rng = Rng::seed_from_u64(seed);
            let wl = Workload::uniform_random(
                6,
                SimTime::ZERO,
                SimDuration::from_secs(5),
                200,
                128,
                &mut rng,
            );
            w.schedule_workload(&wl);
            w.schedule_faults(FaultPlan::new().fail_at(
                SimTime(1_000_000_000),
                SimComponent::Nic(NodeId(3), NetId::A),
            ));
            w.run_for(SimDuration::from_secs(100));
            (
                w.app_stats(),
                w.medium(NetId::A).stats,
                w.medium(NetId::B).stats,
            )
        };
        assert_eq!(build(11), build(11));
    }

    #[test]
    fn transport_events_surface_to_protocol() {
        #[derive(Default)]
        struct Watcher {
            events: Vec<&'static str>,
        }
        impl Protocol for Watcher {
            type Msg = ();
            fn on_transport(&mut self, _ctx: &mut Ctx<'_, ()>, ev: TransportEvent) {
                self.events.push(match ev {
                    TransportEvent::Delivered { .. } => "delivered",
                    TransportEvent::Rto { .. } => "rto",
                    TransportEvent::GaveUp { .. } => "gaveup",
                    TransportEvent::NoRoute { .. } => "noroute",
                    TransportEvent::AckFailed { .. } => "ackfailed",
                    TransportEvent::DuplicateData { .. } => "dupdata",
                });
            }
        }
        let spec = ClusterSpec::new(2).seed(1).transport(TransportConfig {
            initial_rto: SimDuration::from_millis(100),
            backoff_factor: 2,
            max_retries: 2,
        });
        let mut w = World::new(spec, |_| Watcher::default());
        w.schedule_faults(FaultPlan::new().fail_at(SimTime(0), SimComponent::Hub(NetId::A)));
        w.send_app(SimTime(1000), NodeId(0), NodeId(1), 10);
        w.run_for(SimDuration::from_secs(5));
        let ev = &w.protocol(NodeId(0)).events;
        assert_eq!(
            ev,
            &vec!["rto", "rto", "gaveup"],
            "two retries then give up"
        );
    }

    #[test]
    fn frame_loss_drops_some_traffic_but_transport_recovers() {
        let spec = ClusterSpec::new(2).seed(5).frame_loss_rate(0.20);
        let mut w = World::new(spec, |_| Idle);
        for i in 0..50u64 {
            w.send_app(SimTime(i * 10_000_000), NodeId(0), NodeId(1), 64);
        }
        w.run_for(SimDuration::from_secs(200));
        // 20% per-frame loss: many first attempts die, retransmission
        // recovers essentially everything (P[7 straight losses] ~ 1e-5
        // per direction).
        assert_eq!(w.app_stats().delivered, 50, "{:?}", w.app_stats());
        assert!(w.app_stats().retransmits > 5, "loss must be visible");
        let corrupt: u64 = (0..2).map(|i| w.host(NodeId(i)).counters.rx_corrupt).sum();
        assert!(corrupt > 5, "corruption counted: {corrupt}");
    }

    #[test]
    fn degraded_link_is_per_host_and_per_net() {
        let mut w = idle_world(3);
        w.set_link_loss(NodeId(1), NetId::A, 0.999);
        // 0 -> 2 unaffected; 0 -> 1 on net A nearly dead.
        let ok = w.send_app(SimTime(0), NodeId(0), NodeId(2), 64);
        w.send_app(SimTime(0), NodeId(0), NodeId(1), 64);
        w.run_for(SimDuration::from_secs(200));
        assert!(matches!(
            w.flow_outcome(ok),
            Some(FlowOutcome::Delivered(_))
        ));
        assert!(w.host(NodeId(1)).counters.rx_corrupt > 0);
    }

    #[test]
    fn zero_loss_path_is_deterministically_clean() {
        // The loss roll must not consume RNG draws when everything is
        // clean (p_ok == 1.0), preserving cross-config determinism.
        let mut w = idle_world(2);
        w.send_app(SimTime(0), NodeId(0), NodeId(1), 64);
        w.run_for(SimDuration::from_secs(2));
        assert_eq!(w.app_stats().retransmits, 0);
        assert_eq!(w.host(NodeId(1)).counters.rx_corrupt, 0);
    }

    #[test]
    fn no_route_event_when_table_empty() {
        #[derive(Default)]
        struct Watcher {
            noroute: u32,
        }
        impl Protocol for Watcher {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                let peers: Vec<NodeId> = (0..ctx.n_nodes() as u32).map(NodeId).collect();
                for p in peers {
                    if p != ctx.self_id() {
                        ctx.del_route(p);
                    }
                }
            }
            fn on_transport(&mut self, _ctx: &mut Ctx<'_, ()>, ev: TransportEvent) {
                if matches!(ev, TransportEvent::NoRoute { .. }) {
                    self.noroute += 1;
                }
            }
        }
        let mut w = World::new(ClusterSpec::new(2).seed(1), |_| Watcher::default());
        w.send_app(SimTime(0), NodeId(0), NodeId(1), 10);
        w.run_for(SimDuration::from_secs(1));
        assert!(w.protocol(NodeId(0)).noroute >= 1);
        assert_eq!(w.app_stats().delivered, 0);
    }

    #[test]
    fn three_plane_world_builds_media_per_plane() {
        let mut w = World::new(ClusterSpec::new(3).seed(2).planes(3), |_| Idle);
        for net in NetId::planes(3) {
            assert!(w.component_is_up(SimComponent::Hub(net)));
        }
        // Traffic still defaults to the primary plane.
        w.send_app(SimTime(0), NodeId(0), NodeId(1), 100);
        w.run_for(SimDuration::from_secs(1));
        assert!(w.medium(NetId::A).stats.data_bytes > 0);
        assert_eq!(w.medium(NetId(2)).stats.data_bytes, 0);
    }

    #[test]
    fn third_plane_carries_traffic_when_routed() {
        let mut w = World::new(ClusterSpec::new(2).seed(2).planes(3), |_| Idle);
        // Kill planes A and B; route the pair over plane C by hand.
        w.schedule_faults(
            FaultPlan::new()
                .fail_at(SimTime(0), SimComponent::Hub(NetId::A))
                .fail_at(SimTime(0), SimComponent::Hub(NetId::B)),
        );
        hosts(&mut w)
            .routes_mut(NodeId(0))
            .set(NodeId(1), Route::Direct(NetId(2)));
        hosts(&mut w)
            .routes_mut(NodeId(1))
            .set(NodeId(0), Route::Direct(NetId(2)));
        let flow = w.send_app(SimTime(1000), NodeId(0), NodeId(1), 64);
        w.run_for(SimDuration::from_secs(5));
        assert!(matches!(
            w.flow_outcome(flow),
            Some(FlowOutcome::Delivered(_))
        ));
        assert!(w.medium(NetId(2)).stats.data_bytes > 0);
    }

    #[test]
    #[should_panic(expected = "planes")]
    fn fault_on_missing_plane_rejected() {
        let mut w = idle_world(2);
        w.schedule_faults(FaultPlan::new().fail_at(SimTime(0), SimComponent::Hub(NetId(2))));
    }

    // ---- topology worlds -------------------------------------------------

    use crate::topology::TopologySpec;
    use drs_topology::{generators, ComponentSet, Reachability};

    /// A one-shot flooding protocol over a topology world: the origin
    /// broadcasts a token on every live NIC shortly after start, and
    /// every node (hosts and switch nodes alike) rebroadcasts once on
    /// first receipt — the DES analogue of transitive reachability.
    struct Flood {
        origin: NodeId,
        seen: bool,
    }

    fn flood_out(ctx: &mut Ctx<'_, u8>) {
        for s in 0..ctx.planes() {
            let net = NetId(s);
            if ctx.nic_is_up(net) {
                ctx.broadcast_control(net, 1);
            }
        }
    }

    impl Protocol for Flood {
        type Msg = u8;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
            if ctx.self_id() == self.origin {
                // Start after the faults at t = 0 have taken effect.
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u8>, _token: u64) {
            self.seen = true;
            flood_out(ctx);
        }
        fn on_control(&mut self, ctx: &mut Ctx<'_, u8>, _from: NodeId, _net: NetId, _msg: &u8) {
            if !self.seen {
                self.seen = true;
                flood_out(ctx);
            }
        }
    }

    #[test]
    fn kplane_topology_world_masks_nics_to_membership() {
        let t = TopologySpec::new(generators::kplane(4, 2)).seed(1);
        let w = World::from_topology(&t, |_| Idle);
        // Host i is a member of segments {0·n + i, 1·n + i} only.
        for i in 0..4u32 {
            for s in 0..8u8 {
                let member = s as u32 % 4 == i;
                assert_eq!(w.host(NodeId(i)).nic_is_up(NetId(s)), member);
            }
            assert!(w.host(NodeId(i)).routes.is_empty(), "no default routes");
        }
        // Plane p's switch node is a member of segments p·n .. p·n + n.
        for p in 0..2usize {
            let sw = t.switch_node(p);
            for s in 0..8usize {
                assert_eq!(w.host(sw).nic_is_up(NetId(s as u8)), s / 4 == p);
            }
        }
    }

    /// Runs the flood from host 0 on a topology with the given failed
    /// components and returns each node's receipt flag.
    fn flood_reachability(t: &TopologySpec, failed: &[usize]) -> Vec<bool> {
        let mut w = World::from_topology(t, |_| Flood {
            origin: NodeId(0),
            seen: false,
        });
        w.schedule_faults(t.fault_plan(SimTime(0), failed));
        w.run_for(SimDuration::from_secs(1));
        (0..t.nodes())
            .map(|i| w.protocol(NodeId(i as u32)).seen)
            .collect()
    }

    #[test]
    fn topology_flood_matches_transitive_reachability() {
        // DCell(4,1) with its cell-0 switch failed: cell-0 hosts stay
        // reachable through their cross links; the flood must agree with
        // the union-find engine host for host.
        let t = TopologySpec::new(generators::dcell(4, 1)).seed(7);
        let failed = [0usize]; // switch 0
        let seen = flood_reachability(&t, &failed);
        let set = ComponentSet::from_indices(&failed);
        let mut expected_some_cut = false;
        for (v, &saw) in seen.iter().enumerate().take(t.topology().hosts()).skip(1) {
            let reach =
                drs_topology::pair_connected(t.topology(), &set, 0, v, Reachability::Transitive);
            assert_eq!(saw, reach, "host {v} flood vs union-find");
            expected_some_cut |= !reach;
        }
        // Sanity: dcell survives a single switch loss transitively.
        assert!(!expected_some_cut, "dcell(4,1) tolerates one switch");
        // A dead switch node must not have received anything.
        let sw = t.switch_node(0);
        assert!(!seen[sw.idx()], "failed switch stays deaf");
    }

    #[test]
    fn topology_flood_sees_link_cuts() {
        // Fat-tree(4), host 0's only edge uplink cut: host 0 is isolated
        // and nothing else is.
        let t = TopologySpec::new(generators::fat_tree(4)).seed(3);
        let topo = t.topology();
        let uplink = topo.incident_links(0)[0] as usize;
        let failed = [topo.switches() + uplink];
        // Flood from host 1 instead: origin 0 would be the isolated one.
        let mut w = World::from_topology(&t, |_| Flood {
            origin: NodeId(1),
            seen: false,
        });
        w.schedule_faults(t.fault_plan(SimTime(0), &failed));
        w.run_for(SimDuration::from_secs(1));
        let set = ComponentSet::from_indices(&failed);
        for v in 0..topo.hosts() {
            if v == 1 {
                continue;
            }
            let reach = drs_topology::pair_connected(topo, &set, 1, v, Reachability::Transitive);
            assert_eq!(w.protocol(NodeId(v as u32)).seen, reach, "host {v}");
        }
        assert!(!w.protocol(NodeId(0)).seen, "cut host misses the flood");
        assert!(w.protocol(NodeId(2)).seen);
    }
}
