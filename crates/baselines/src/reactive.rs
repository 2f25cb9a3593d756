//! The reactive-failover ablation: DRS's repair machinery without the
//! proactive monitoring.
//!
//! This daemon never probes on its own. It acts only when the local
//! transport reports trouble (a retransmission timeout or a missing
//! route): it then pings the destination on both networks, re-routes to
//! whichever answers first, and falls back to broadcast gateway discovery
//! when neither does. By construction every failure is application-
//! visible — the transport has already lost at least one RTO by the time
//! repair begins. Comparing this daemon with DRS isolates exactly what
//! continuous monitoring buys.

use std::collections::HashMap;

use drs_sim::world::{Ctx, Protocol, TransportEvent};
use drs_sim::{NetId, NodeId, Route, SimDuration, SimTime};

/// ICMP identifier of reactive repair probes.
const ECHO_ID: u32 = 0x0EA;
/// ICMP identifier of gateway verification probes.
const ECHO_VERIFY_ID: u32 = 0x0EB;

const KIND_PROBE_TIMEOUT: u64 = 1;
const KIND_DISCOVERY_TIMEOUT: u64 = 2;
const KIND_VERIFY_TIMEOUT: u64 = 3;

fn token(kind: u64, dst: NodeId, payload: u64) -> u64 {
    kind << 56 | (dst.0 as u64) << 32 | (payload & 0xFFFF_FFFF)
}

fn untoken(t: u64) -> (u64, NodeId, u64) {
    (
        t >> 56,
        NodeId((t >> 32 & 0xFF_FFFF) as u32),
        t & 0xFFFF_FFFF,
    )
}

/// Reactive daemon tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReactiveConfig {
    /// How long to wait for repair-probe replies.
    pub probe_timeout: SimDuration,
    /// How long to wait for gateway offers.
    pub offer_timeout: SimDuration,
}

impl Default for ReactiveConfig {
    fn default() -> Self {
        ReactiveConfig {
            probe_timeout: SimDuration::from_millis(200),
            offer_timeout: SimDuration::from_millis(200),
        }
    }
}

/// Control messages (same two-message discovery dialogue as DRS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReactiveMsg {
    /// Broadcast: "who can relay to `target`?"
    RouteRequest {
        /// Unreachable destination.
        target: NodeId,
        /// Requester-local round id.
        req_id: u64,
    },
    /// Unicast offer to relay.
    RouteOffer {
        /// The destination offered.
        target: NodeId,
        /// Round being answered.
        req_id: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RepairPhase {
    Probing { seq: u32 },
    Discovering { req_id: u64 },
}

/// An in-flight gateway verification: before offering to relay, the
/// daemon pings the target and only answers if it gets a reply — an
/// on-demand (still reactive) liveness check that also refreshes the
/// gateway's own kernel route, so the relay path it offers actually
/// works.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingVerify {
    requester: NodeId,
    target: NodeId,
    req_id: u64,
    reply_net: NetId,
}

/// One host's reactive failover daemon.
#[derive(Debug, Clone)]
pub struct ReactiveDaemon {
    id: NodeId,
    cfg: ReactiveConfig,
    repairs: HashMap<NodeId, RepairPhase>,
    verifies: HashMap<u32, PendingVerify>,
    next_seq: u32,
    next_req: u64,
    /// Repairs begun (one per troubled destination at a time).
    pub repairs_started: u64,
    /// Repairs that installed a working route.
    pub repairs_completed: u64,
    /// Repairs abandoned with no probe reply and no offer.
    pub repairs_failed: u64,
    /// When each completed repair finished (for latency studies).
    pub completions: Vec<SimTime>,
}

impl ReactiveDaemon {
    /// A reactive daemon for host `id`.
    #[must_use]
    pub fn new(id: NodeId, cfg: ReactiveConfig) -> Self {
        ReactiveDaemon {
            id,
            cfg,
            repairs: HashMap::new(),
            verifies: HashMap::new(),
            next_seq: 0,
            next_req: 0,
            repairs_started: 0,
            repairs_completed: 0,
            repairs_failed: 0,
            completions: Vec::new(),
        }
    }

    fn begin_repair(&mut self, ctx: &mut Ctx<'_, ReactiveMsg>, dst: NodeId) {
        if self.repairs.contains_key(&dst) {
            return; // already working on it
        }
        self.repairs_started += 1;
        self.next_seq += 1;
        let seq = self.next_seq;
        self.repairs.insert(dst, RepairPhase::Probing { seq });
        ctx.send_echo(NetId::A, dst, ECHO_ID, seq);
        ctx.send_echo(NetId::B, dst, ECHO_ID, seq);
        ctx.set_timer(
            self.cfg.probe_timeout,
            token(KIND_PROBE_TIMEOUT, dst, seq as u64),
        );
    }

    fn complete(&mut self, ctx: &mut Ctx<'_, ReactiveMsg>, dst: NodeId, route: Route) {
        ctx.set_route(dst, route);
        self.repairs.remove(&dst);
        self.repairs_completed += 1;
        self.completions.push(ctx.now());
    }
}

impl Protocol for ReactiveDaemon {
    type Msg = ReactiveMsg;

    fn on_transport(&mut self, ctx: &mut Ctx<'_, ReactiveMsg>, event: TransportEvent) {
        match event {
            TransportEvent::Rto { dst, .. }
            | TransportEvent::NoRoute { dst, .. }
            | TransportEvent::AckFailed { dst, .. }
            | TransportEvent::DuplicateData { dst, .. } => {
                self.begin_repair(ctx, dst);
            }
            TransportEvent::Delivered { .. } | TransportEvent::GaveUp { .. } => {}
        }
    }

    fn on_echo_reply(
        &mut self,
        ctx: &mut Ctx<'_, ReactiveMsg>,
        from: NodeId,
        net: NetId,
        id: u32,
        seq: u32,
    ) {
        match id {
            ECHO_ID => {
                if let Some(RepairPhase::Probing { seq: want }) = self.repairs.get(&from).copied() {
                    if want == seq {
                        self.complete(ctx, from, Route::Direct(net));
                    }
                }
            }
            ECHO_VERIFY_ID => {
                let Some(v) = self.verifies.remove(&seq) else {
                    return;
                };
                debug_assert_eq!(v.target, from);
                // The target answered on `net`: refresh our own route so
                // the relay path we are about to offer actually works,
                // then make the offer.
                ctx.set_route(v.target, Route::Direct(net));
                ctx.send_control(
                    v.reply_net,
                    v.requester,
                    ReactiveMsg::RouteOffer {
                        target: v.target,
                        req_id: v.req_id,
                    },
                );
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ReactiveMsg>, t: u64) {
        let (kind, dst, payload) = untoken(t);
        match kind {
            KIND_PROBE_TIMEOUT => {
                let Some(RepairPhase::Probing { seq }) = self.repairs.get(&dst).copied() else {
                    return;
                };
                if seq as u64 != payload {
                    return; // a newer repair superseded this probe
                }
                // Neither network answered: look for a gateway.
                self.next_req += 1;
                let req_id = self.next_req;
                self.repairs
                    .insert(dst, RepairPhase::Discovering { req_id });
                let msg = ReactiveMsg::RouteRequest {
                    target: dst,
                    req_id,
                };
                ctx.broadcast_control(NetId::A, msg);
                ctx.broadcast_control(NetId::B, msg);
                ctx.set_timer(
                    self.cfg.offer_timeout,
                    token(KIND_DISCOVERY_TIMEOUT, dst, req_id),
                );
            }
            KIND_DISCOVERY_TIMEOUT => {
                if let Some(RepairPhase::Discovering { req_id }) = self.repairs.get(&dst).copied() {
                    if req_id & 0xFFFF_FFFF == payload {
                        // Nobody offered: give up; the next transport RTO
                        // will restart the whole repair.
                        self.repairs.remove(&dst);
                        self.repairs_failed += 1;
                    }
                }
            }
            KIND_VERIFY_TIMEOUT => {
                // Target never answered the verification ping: no offer.
                self.verifies.remove(&(payload as u32));
            }
            _ => unreachable!("unknown reactive timer kind {kind}"),
        }
    }

    fn on_control(
        &mut self,
        ctx: &mut Ctx<'_, ReactiveMsg>,
        from: NodeId,
        net: NetId,
        msg: &ReactiveMsg,
    ) {
        match *msg {
            ReactiveMsg::RouteRequest { target, req_id } => {
                if target == self.id || from == self.id {
                    return;
                }
                // One-hop relays only (as in DRS): never offer a path we
                // would ourselves relay through someone else.
                if matches!(ctx.route(target), Some(Route::Via { .. })) {
                    return;
                }
                // Verify on demand before offering: ping the target on
                // both networks and answer only if it replies.
                self.next_seq += 1;
                let seq = self.next_seq;
                self.verifies.insert(
                    seq,
                    PendingVerify {
                        requester: from,
                        target,
                        req_id,
                        reply_net: net,
                    },
                );
                ctx.send_echo(NetId::A, target, ECHO_VERIFY_ID, seq);
                ctx.send_echo(NetId::B, target, ECHO_VERIFY_ID, seq);
                ctx.set_timer(
                    self.cfg.probe_timeout,
                    token(KIND_VERIFY_TIMEOUT, target, seq as u64),
                );
            }
            ReactiveMsg::RouteOffer { target, req_id } => {
                if let Some(RepairPhase::Discovering { req_id: want }) =
                    self.repairs.get(&target).copied()
                {
                    if want == req_id {
                        self.complete(ctx, target, Route::Via { gateway: from, net });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_sim::fault::{FaultPlan, SimComponent};
    use drs_sim::scenario::ClusterSpec;
    use drs_sim::world::{FlowOutcome, World};

    fn world(n: usize, seed: u64) -> World<ReactiveDaemon> {
        World::new(ClusterSpec::new(n).seed(seed), |id| {
            ReactiveDaemon::new(id, ReactiveConfig::default())
        })
    }

    #[test]
    fn token_roundtrip() {
        let t = token(KIND_PROBE_TIMEOUT, NodeId(77), 0xABCD);
        assert_eq!(untoken(t), (KIND_PROBE_TIMEOUT, NodeId(77), 0xABCD));
    }

    #[test]
    fn idle_until_transport_complains() {
        let mut w = world(4, 1);
        w.run_for(SimDuration::from_secs(30));
        assert_eq!(
            w.host(NodeId(0)).counters.echo_sent,
            0,
            "no proactive probes"
        );
        assert_eq!(w.protocol(NodeId(0)).repairs_started, 0);
    }

    #[test]
    fn recovers_after_rto_but_application_noticed() {
        let mut w = world(4, 2);
        w.schedule_faults(
            FaultPlan::new().fail_at(SimTime(0), SimComponent::Nic(NodeId(1), NetId::A)),
        );
        let flow = w.send_app(SimTime(1000), NodeId(0), NodeId(1), 128);
        w.run_for(SimDuration::from_secs(30));
        match w.flow_outcome(flow) {
            Some(FlowOutcome::Delivered(rtt)) => {
                // Repaired only after the first RTO (1 s) fired; with the
                // receiver's return path also needing repair the flow can
                // take several backoff rounds, but far less than a RIP
                // timeout or the transport's 127 s give-up horizon.
                assert!(rtt >= SimDuration::from_secs(1), "{rtt}");
                assert!(rtt < SimDuration::from_secs(16), "{rtt}");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(
            w.host(NodeId(0)).routes.get(NodeId(1)),
            Some(Route::Direct(NetId::B))
        );
        assert!(w.app_stats().retransmits >= 1, "failure was app-visible");
        assert!(w.protocol(NodeId(0)).repairs_completed >= 1);
    }

    #[test]
    fn crossed_failure_heals_via_gateway_discovery() {
        let mut w = world(4, 3);
        w.schedule_faults(
            FaultPlan::new()
                .fail_at(SimTime(0), SimComponent::Nic(NodeId(0), NetId::B))
                .fail_at(SimTime(0), SimComponent::Nic(NodeId(1), NetId::A)),
        );
        let flow = w.send_app(SimTime(1000), NodeId(0), NodeId(1), 128);
        w.run_for(SimDuration::from_secs(60));
        assert!(
            matches!(w.flow_outcome(flow), Some(FlowOutcome::Delivered(_))),
            "gateway relay must heal the crossed failure: {:?}",
            w.flow_outcome(flow)
        );
        assert!(matches!(
            w.host(NodeId(0)).routes.get(NodeId(1)),
            Some(Route::Via { .. })
        ));
    }

    #[test]
    fn repair_state_cleared_when_nothing_helps() {
        // Destination completely dead: probing and discovery both fail,
        // state must not leak so later RTOs can retry.
        let mut w = world(3, 4);
        w.schedule_faults(
            FaultPlan::new()
                .fail_at(SimTime(0), SimComponent::Nic(NodeId(1), NetId::A))
                .fail_at(SimTime(0), SimComponent::Nic(NodeId(1), NetId::B)),
        );
        let flow = w.send_app(SimTime(1000), NodeId(0), NodeId(1), 128);
        w.run_for(SimDuration::from_secs(300));
        assert_eq!(w.flow_outcome(flow), Some(FlowOutcome::GaveUp));
        let d = w.protocol(NodeId(0));
        assert!(d.repairs_failed >= 2, "retried across several RTOs");
        assert_eq!(d.repairs_completed, 0);
    }
}
