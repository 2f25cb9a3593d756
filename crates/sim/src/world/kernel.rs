//! Kernel-side stack behaviours: frame transmission and delivery, ICMP
//! auto-reply, TTL forwarding, NIC faults, and the reliable transport
//! (RTO timers, acknowledgements, flow completion).
//!
//! The behaviours are written against [`Engine`]: the core plus every
//! host's protocol instance.

use drs_core::frame::{Segment, SegmentKind};
use drs_core::ids::FlowId;
use drs_core::{Destination, Frame, FrameKind, NetId, NodeId, SimDuration};
use drs_obs::flight::{loss_site, TraceKind};

use crate::medium::TrafficClass;
use crate::scenario::{DATA_HEADER_BYTES, ICMP_WIRE_BYTES, TTL};
use crate::workload::Transition;

use super::queue::{Core, EventKind};
use super::{Ctx, FlowOutcome, Protocol, TransportEvent};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendStatus {
    Sent,
    NoRoute,
    NicDown,
}

/// The medium accounting class of a frame.
fn class_of<M>(frame: &Frame<M>) -> TrafficClass {
    if frame.is_probe() {
        TrafficClass::Probe
    } else if frame.is_control() {
        TrafficClass::Control
    } else {
        TrafficClass::Data
    }
}

impl<M: Clone + std::fmt::Debug> Core<M> {
    /// Puts a frame on its segment. Returns `false` when the frame was
    /// dropped *locally* because the sender's NIC is down (observable to
    /// the sender, like a device error from `sendmsg`). A dead hub eats
    /// the frame silently and still returns `true` — that loss is not
    /// locally observable. Admission reads the segment's `hub_up`, which
    /// the run loop has brought up to this instant.
    pub(crate) fn transmit(&mut self, frame: Frame<M>) -> bool {
        if !self.hosts.nic_is_up(frame.src, frame.net) {
            self.hosts.counters_mut(frame.src).tx_nic_down += 1;
            self.flight_loss(&frame, loss_site::TX_NIC_DOWN);
            self.salvage(frame);
            return false;
        }
        let (now, class, up) = (self.now, class_of(&frame), self.hub_up[frame.net.idx()]);
        if let Some(arrive) = self.media[frame.net.idx()].admit(now, frame.wire_bytes, class, up) {
            let frame = self.boxed(frame);
            self.schedule_at(arrive, EventKind::Arrive(frame));
        } else {
            // The dead hub ate the frame at admission.
            self.flight_loss(&frame, loss_site::HUB_ADMIT);
            self.salvage(frame);
        }
        true
    }

    /// Records a traced frame's death in the flight recorder (no-op for
    /// untraced frames or with the recorder off). The record is
    /// attributed to the host that launched the traced send — the
    /// causing record's owner — so a prober's track shows its own
    /// probes' fates wherever in the kernel they die.
    pub(crate) fn flight_loss(&mut self, frame: &Frame<M>, site: u64) {
        if let Some(&cause) = frame.flight.as_deref() {
            self.flight_record(
                TraceKind::ProbeLoss,
                cause.host,
                Some(frame.net.0),
                site,
                Some(cause),
            );
        }
    }
}

/// The core plus every host's daemon instance, indexed by host: what
/// one dispatch needs.
pub(crate) struct Engine<'a, P: Protocol> {
    pub(crate) core: &'a mut Core<P::Msg>,
    pub(crate) protocols: &'a mut [P],
}

impl<P: Protocol> Engine<'_, P> {
    /// Executes one popped event. The caller has already advanced
    /// `core.now` to the event's instant and logged it.
    pub(crate) fn dispatch(&mut self, kind: EventKind<P::Msg>) {
        match kind {
            EventKind::NicFault { node, net, up } => self.apply_nic_fault(node, net, up),
            EventKind::ProtoTimer { node, token } => {
                let mut ctx = Ctx {
                    core: &mut *self.core,
                    node,
                };
                self.protocols[node.idx()].on_timer(&mut ctx, token);
            }
            EventKind::AppSend { flow } => self.handle_app_send(flow),
            EventKind::Rto { flow, attempt } => self.handle_rto(flow, attempt),
            EventKind::Arrive(mut frame) => {
                self.handle_arrival(&mut frame);
                self.core.recycle_frame(frame);
            }
            EventKind::SessionOpen { host } => self.handle_session_open(host),
            EventKind::SessionClose { host, local } => self.handle_session_close(host, local),
        }
    }

    fn apply_nic_fault(&mut self, node: NodeId, net: NetId, up: bool) {
        let kind = if up {
            TraceKind::Repair
        } else {
            TraceKind::Fault
        };
        self.core.flight_record(kind, node.0, Some(net.0), 1, None);
        self.core.hosts.set_nic(node, net, up);
        self.core.record_workload(Transition::Nic { node, net, up });
    }

    /// One fluid-session arrival: the host's stream draws destination,
    /// class, holding time (and, open-loop, the gap to its next
    /// arrival); the close timer and any successor arrival go back on
    /// the wheel. This dispatch and the close are the *only* kernel
    /// events a session ever costs.
    fn handle_session_open(&mut self, host: NodeId) {
        let (now, n) = (self.core.now, self.core.spec.n);
        let Some(w) = self.core.workload.as_mut() else {
            return;
        };
        let horizon = w.spec.horizon;
        let (local, holding_ns, gap) = w.open(host, n, now);
        self.core.schedule_at(
            now + SimDuration(holding_ns),
            EventKind::SessionClose { host, local },
        );
        if let Some(gap_ns) = gap {
            let at = now + SimDuration(gap_ns);
            if at < horizon {
                self.core.schedule_at(at, EventKind::SessionOpen { host });
            }
        }
    }

    /// A fluid session reached its holding time; closed-loop workloads
    /// draw the user's think gap and schedule the next arrival.
    fn handle_session_close(&mut self, host: NodeId, local: u64) {
        let now = self.core.now;
        let Some(w) = self.core.workload.as_mut() else {
            return;
        };
        let horizon = w.spec.horizon;
        let think = w.close(host, local, now);
        if let Some(think_ns) = think {
            let at = now + SimDuration(think_ns);
            if at < horizon {
                self.core.schedule_at(at, EventKind::SessionOpen { host });
            }
        }
    }

    pub(crate) fn notify_transport(&mut self, node: NodeId, event: TransportEvent) {
        let mut ctx = Ctx {
            core: &mut *self.core,
            node,
        };
        self.protocols[node.idx()].on_transport(&mut ctx, event);
    }

    /// (Re)transmits the payload segment of an outstanding flow from its
    /// source. Returns `false` when no route to the destination is
    /// installed.
    fn transport_transmit(&mut self, flow: FlowId) -> bool {
        let f = self.core.flows[flow.idx()];
        let Some(route) = self.core.hosts.routes(f.src).get(f.dst) else {
            return false;
        };
        let (hop, net) = route.next_hop(f.dst);
        let kind = self.core.data(Segment {
            src: f.src,
            dst: f.dst,
            flow,
            seq: 0,
            kind: SegmentKind::Data,
            ttl: TTL,
            payload_bytes: f.payload_bytes,
            attempt: f.attempts,
        });
        let frame = Frame {
            src: f.src,
            dst: Destination::Node(hop),
            net,
            kind,
            wire_bytes: f.payload_bytes + DATA_HEADER_BYTES,
            flight: None,
        };
        self.core.transmit(frame);
        true
    }

    /// Sends (or forwards) an existing segment along this host's route.
    fn send_segment(&mut self, from: NodeId, segment: Segment) -> SendStatus {
        let Some(route) = self.core.hosts.routes(from).get(segment.dst) else {
            return SendStatus::NoRoute;
        };
        let (hop, net) = route.next_hop(segment.dst);
        let wire = match segment.kind {
            SegmentKind::Data => segment.payload_bytes + DATA_HEADER_BYTES,
            SegmentKind::Ack => DATA_HEADER_BYTES,
        };
        let kind = self.core.data(segment);
        let frame = Frame {
            src: from,
            dst: Destination::Node(hop),
            net,
            kind,
            wire_bytes: wire,
            flight: None,
        };
        if self.core.transmit(frame) {
            SendStatus::Sent
        } else {
            SendStatus::NicDown
        }
    }

    pub(crate) fn handle_app_send(&mut self, flow: FlowId) {
        self.core.app_stats.sent += 1;
        let now = self.core.now;
        let f = &mut self.core.flows[flow.idx()];
        f.first_sent = now;
        f.attempts = 1;
        let (src, dst) = (f.src, f.dst);
        if !self.transport_transmit(flow) {
            self.core.app_stats.no_route += 1;
            self.notify_transport(src, TransportEvent::NoRoute { flow, dst });
        }
        // The RTO runs whether or not the first transmission went out: the
        // transport keeps retrying while routing daemons repair routes.
        let at = now + self.core.spec.transport.rto_for_attempt(1);
        self.core
            .schedule_at(at, EventKind::Rto { flow, attempt: 1 });
    }

    pub(crate) fn handle_rto(&mut self, flow: FlowId, attempt: u32) {
        let f = &mut self.core.flows[flow.idx()];
        if !f.outstanding() || f.attempts != attempt {
            return; // already resolved, or a stale timer from a superseded attempt
        }
        let (node, dst) = (f.src, f.dst);
        if attempt > self.core.spec.transport.max_retries {
            f.outcome = Some(FlowOutcome::GaveUp);
            self.core.app_stats.gave_up += 1;
            self.notify_transport(node, TransportEvent::GaveUp { flow, dst });
            return;
        }
        f.attempts = attempt + 1;
        self.core.app_stats.retransmits += 1;
        self.notify_transport(node, TransportEvent::Rto { flow, dst, attempt });
        if !self.transport_transmit(flow) {
            self.core.app_stats.no_route += 1;
            self.notify_transport(node, TransportEvent::NoRoute { flow, dst });
        }
        let at = self.core.now + self.core.spec.transport.rto_for_attempt(attempt + 1);
        self.core.schedule_at(
            at,
            EventKind::Rto {
                flow,
                attempt: attempt + 1,
            },
        );
    }

    pub(crate) fn handle_arrival(&mut self, frame: &mut Frame<P::Msg>) {
        // A hub that died while the frame was in flight eats it.
        if !self.core.hub_up[frame.net.idx()] {
            self.core.flight_loss(frame, loss_site::HUB_ARRIVAL);
            return;
        }
        match frame.dst {
            Destination::Node(dst) => self.deliver_to(dst, frame),
            Destination::Broadcast => {
                for i in 0..self.core.spec.n as u32 {
                    let node = NodeId(i);
                    if node != frame.src {
                        self.deliver_to(node, frame);
                    }
                }
            }
        }
    }

    fn deliver_to(&mut self, node: NodeId, frame: &mut Frame<P::Msg>) {
        if !self.core.hosts.nic_is_up(node, frame.net) {
            self.core.flight_loss(frame, loss_site::RX_NIC_DOWN);
            return;
        }
        // Wire corruption: base loss rate compounded with degraded cabling
        // on either end. Rolled per receiver (a broadcast can reach some
        // hosts and miss others, as on a real shared segment), from the
        // receiver's random stream.
        let p_ok = (1.0 - self.core.spec.frame_loss_rate)
            * (1.0 - self.core.link_loss(frame.src, frame.net))
            * (1.0 - self.core.link_loss(node, frame.net));
        if p_ok < 1.0 && self.core.rng_for(node).gen_f64() >= p_ok {
            self.core.hosts.counters_mut(node).rx_corrupt += 1;
            self.core.flight_loss(frame, loss_site::CORRUPT);
            return;
        }
        match &frame.kind {
            FrameKind::EchoRequest { id, seq } => {
                // Kernel ICMP: answer without daemon involvement.
                self.core.hosts.counters_mut(node).echo_answered += 1;
                let reply = Frame {
                    src: node,
                    dst: Destination::Node(frame.src),
                    net: frame.net,
                    kind: FrameKind::EchoReply { id: *id, seq: *seq },
                    wire_bytes: ICMP_WIRE_BYTES,
                    // The request's flight ref rides back on the reply,
                    // so a lost reply is blamed on the probe that asked
                    // for it and the prober's receive record can name
                    // its own send as the cause. Moved, not copied: an
                    // echo request is unicast and dies here.
                    flight: frame.flight.take(),
                };
                self.core.transmit(reply);
            }
            FrameKind::EchoReply { id, seq } => {
                let mut ctx = Ctx {
                    core: &mut *self.core,
                    node,
                };
                self.protocols[node.idx()].on_echo_reply(&mut ctx, frame.src, frame.net, *id, *seq);
            }
            FrameKind::Control(msg) => {
                self.core.hosts.counters_mut(node).control_received += 1;
                let mut ctx = Ctx {
                    core: &mut *self.core,
                    node,
                };
                self.protocols[node.idx()].on_control(&mut ctx, frame.src, frame.net, msg);
            }
            FrameKind::Data(segment) => self.handle_data(node, **segment),
        }
    }

    fn handle_data(&mut self, node: NodeId, segment: Segment) {
        if segment.dst == node {
            match segment.kind {
                SegmentKind::Data => {
                    // Deliver to the application and acknowledge.
                    let ack = Segment {
                        src: node,
                        dst: segment.src,
                        flow: segment.flow,
                        seq: segment.seq,
                        kind: SegmentKind::Ack,
                        ttl: TTL,
                        payload_bytes: 0,
                        attempt: segment.attempt,
                    };
                    // A failed ack send is locally observable (missing
                    // route or a dead local NIC): surface it to the daemon
                    // so reactive protocols can repair the return path.
                    // The sender will retransmit either way.
                    if self.send_segment(node, ack) != SendStatus::Sent {
                        self.notify_transport(
                            node,
                            TransportEvent::AckFailed {
                                flow: segment.flow,
                                dst: segment.src,
                            },
                        );
                    }
                    if segment.attempt > 1 {
                        self.notify_transport(
                            node,
                            TransportEvent::DuplicateData {
                                flow: segment.flow,
                                dst: segment.src,
                            },
                        );
                    }
                }
                SegmentKind::Ack => {
                    // An ack is addressed to the data segment's source,
                    // which is always the flow's.
                    let now = self.core.now;
                    let f = &mut self.core.flows[segment.flow.idx()];
                    debug_assert_eq!(f.src, node);
                    if f.outstanding() {
                        let rtt = now - f.first_sent;
                        f.outcome = Some(FlowOutcome::Delivered(rtt));
                        let dst = f.dst;
                        self.core.app_stats.delivered += 1;
                        self.core.app_stats.latency.record(rtt.as_nanos());
                        self.notify_transport(
                            node,
                            TransportEvent::Delivered {
                                flow: segment.flow,
                                dst,
                                rtt,
                            },
                        );
                    }
                }
            }
            return;
        }
        // Not ours: forward along our own route (gateway duty).
        if segment.ttl == 0 {
            self.core.hosts.counters_mut(node).dropped_ttl += 1;
            return;
        }
        let mut fwd = segment;
        fwd.ttl -= 1;
        match self.send_segment(node, fwd) {
            SendStatus::Sent => self.core.hosts.counters_mut(node).forwarded += 1,
            SendStatus::NoRoute => self.core.hosts.counters_mut(node).dropped_no_route += 1,
            SendStatus::NicDown => {} // tx_nic_down already counted
        }
    }
}
