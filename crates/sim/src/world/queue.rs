//! The event queue and the simulator core: virtual clock, pending
//! events, host and medium state. Everything that is *state* lives here;
//! the kernel-side behaviours that act on it live in [`super::kernel`].
//!
//! The queue itself is a hierarchical timer wheel ([`crate::wheel`]) —
//! O(1) push against the former `BinaryHeap`'s O(log n) — with pop order
//! bit-identical to the heap's ascending `(at, seq)`. Frame arrivals ride
//! its FIFO lanes, one per segment, and every other event its levels.
//! A frame that does not fit its event waits in its segment's FIFO of
//! frames in flight ([`Core::frames`]), which pops in step with the lane.
//!
//! The driver ([`super::World`]) owns one `Core`, which spans the whole
//! cluster and admits transmitted frames onto the shared segments the
//! instant they are sent.

use std::collections::VecDeque;

use drs_obs::flight::{EventRef, FlightRecorder, TraceKind, TraceRecord};
use drs_obs::rng::{mix64, Rng, GOLDEN_GAMMA};

use drs_core::ids::FlowId;
use drs_core::{Destination, Frame, FrameKind, NetId, NodeId, SimTime};

use crate::app::Flow;

use crate::fault::{ComponentSchedule, FaultEvent, SimComponent};
use crate::host::Hosts;
use crate::medium::SharedMedium;
use crate::scenario::ClusterSpec;
use crate::stats::AppStats;
use crate::wheel::{TimerWheel, WheelStats};
use crate::workload::{Transition, WorkloadCore};

/// What a queued event does when it fires.
///
/// An event is 16 B and a wheel entry 32 B: each of the millions of timer
/// events a probe cycle queues is moved, sorted and cascaded at that size,
/// so no variant carries a frame (an enum is as large as its largest
/// variant). `Arrive { net }` stands for the frame at the front of
/// segment `net`'s FIFO ([`Core::frames`]): the segment sends one frame
/// at a time over a fixed propagation delay, so its frames arrive in the
/// order they were sent, and its lane of the queue pops their arrivals in
/// that order.
///
/// An untraced echo whose id fits 16 bits is all fixed fields — two
/// hosts, the plane, the sequence number and the id, 15 B — so
/// `EchoRequest` and `EchoReply` carry it inside the event, and dispatch
/// rebuilds the frame on the stack. Probes are nearly all of a run's
/// frames: the N = 1024 burst keeps two million in flight at once.
/// Control and data frames, traced echoes and echoes with a wider id take
/// `Arrive`.
#[derive(Clone)]
pub(crate) enum EventKind {
    Arrive {
        net: NetId,
    },
    /// An untraced echo request on `net` from `src` to `dst`.
    EchoRequest {
        src: NodeId,
        dst: NodeId,
        seq: u32,
        id: u16,
        net: NetId,
    },
    /// An untraced echo reply on `net` from `src` to `dst`.
    EchoReply {
        src: NodeId,
        dst: NodeId,
        seq: u32,
        id: u16,
        net: NetId,
    },
    ProtoTimer {
        node: NodeId,
        token: u64,
    },
    Rto {
        flow: FlowId,
        attempt: u32,
    },
    AppSend {
        flow: FlowId,
    },
    /// A fluid-workload session arrival on `host` (draws destination,
    /// class and holding time from the host's own stream).
    SessionOpen {
        host: NodeId,
    },
    /// The fluid session `(host, local)` reached its holding time.
    SessionClose {
        host: NodeId,
        local: u64,
    },
}

/// Deterministic operation counters of the event kernel: the timer
/// wheel's push/pop/cascade/pool bookkeeping plus the core's own
/// guard-rail counters. Snapshot via [`super::World::kernel_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// The timer wheel's operation counts.
    pub wheel: WheelStats,
    /// Past-time schedules clamped up to `now` (release-build guard; a
    /// debug build asserts instead). Nonzero means a daemon or kernel
    /// path computed a due time earlier than the current instant.
    pub clamped_past: u64,
    /// Current queue depth.
    pub queue_depth: u64,
    /// Current virtual time, nanoseconds.
    pub now_ns: u64,
}

// A variant that carries a frame by value grows every queued event back
// to a frame's size: fail the build, not the benchmark. The flow events
// carry only the flow id; the rest of a flow lives in its table record.
const _: () = assert!(std::mem::size_of::<EventKind>() <= 16);
// The inline echo variants' fields, 15 B, leave the tag one byte of the
// 16: the sim API's `u32` echo id, carried whole, would grow every event
// to 24 B. Wider ids wait in the segment's FIFO instead.
const _: () = assert!(
    2 * std::mem::size_of::<NodeId>()
        + std::mem::size_of::<u32>()
        + std::mem::size_of::<u16>()
        + std::mem::size_of::<NetId>()
        <= 15
);

/// [`mix64`] keyed by the host id: cheap independent seeds for per-host
/// streams.
fn host_rng_seed(seed: u64, node: u32) -> u64 {
    mix64(seed ^ u64::from(node).wrapping_mul(GOLDEN_GAMMA))
}

/// What kind of event a popped [`EventRecord`] was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventTag {
    /// A frame arrival.
    Arrive,
    /// A protocol timer.
    Timer,
    /// A retransmission timeout.
    Rto,
    /// An application send.
    AppSend,
    /// A fluid-workload session arrival.
    SessionOpen,
    /// A fluid-workload session close.
    SessionClose,
}

/// One dispatched event, recorded at pop time when event logging is on
/// (determinism tests compare these across reruns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventRecord {
    /// Virtual time the event fired.
    pub at: SimTime,
    /// Tie-break sequence number it carried.
    pub seq: u64,
    /// Event kind.
    pub tag: EventTag,
    /// The host the event concerns (frame source for arrivals).
    pub node: u32,
    /// The network plane, where meaningful (0 otherwise).
    pub net: u8,
    /// Kind-specific discriminating payload.
    pub aux: u64,
}

/// The simulator state (everything except the protocol instances).
pub struct Core<M> {
    pub(crate) spec: ClusterSpec,
    pub(crate) now: SimTime,
    /// The next tie-break sequence number: one counter over every event
    /// the run schedules. It starts at 1: sequence number 0 belongs to
    /// fault and repair flight records ([`Self::pass_faults`]), so they
    /// sort before every dispatch at their instant.
    pub(crate) seq: u64,
    pub(crate) events: TimerWheel<EventKind>,
    /// Per segment, indexed by [`NetId::idx`], the frames in flight that
    /// do not ride inside their event, in send order, each with its
    /// arrival's sequence number: the front one is the frame of that
    /// segment's next [`EventKind::Arrive`].
    pub(crate) frames: Vec<VecDeque<(u64, Frame<M>)>>,
    pub(crate) hosts: Hosts,
    /// One shared segment per network plane, indexed by [`NetId::idx`].
    pub(crate) media: Vec<SharedMedium>,
    /// Per-frame corruption probability of each host's cabling,
    /// `[node][plane]`: a receiver's roll compounds the sender's cabling
    /// and its own.
    pub(crate) link_loss: Vec<f64>,
    pub(crate) app_stats: AppStats,
    /// Every application message, indexed by its [`FlowId`]:
    /// [`super::World::send_app`] hands ids out in push order.
    pub(crate) flows: Vec<Flow>,
    pub(crate) clamped_past: u64,
    /// Every fault and repair scheduled so far, hubs and NICs, the one
    /// copy. None of them is ever an event.
    pub(crate) faults: ComponentSchedule,
    /// The one cursor into `faults`: how many of its entries the run loop
    /// has applied ([`Self::pass_faults`]).
    faults_passed: usize,
    /// Per segment, whether its hub is up once the passed entries have
    /// taken effect: what admission and the arrival check read.
    pub(crate) hub_up: Vec<bool>,
    /// One seed-derived random stream per host (corruption rolls, daemon
    /// draws): draw order depends only on the host's own event sequence.
    pub(crate) rngs: Vec<Rng>,
    /// When `Some`, every popped event is recorded here.
    pub(crate) event_log: Option<Vec<EventRecord>>,
    /// When `Some`, protocol decision points and kernel loss sites
    /// append causal trace records here (the flight recorder).
    pub(crate) flight: Option<FlightRecorder>,
    /// Seq of the event currently being dispatched — the flight-record
    /// identity of this dispatch.
    pub(crate) cur_ev_seq: u64,
    /// Trace records emitted so far by the current dispatch.
    pub(crate) cur_sub: u32,
    /// When `Some`, the fluid session generator: draws arrivals, logs
    /// workload transitions (see [`crate::workload`]).
    pub(crate) workload: Option<Box<WorkloadCore>>,
}

impl<M: Clone + std::fmt::Debug> Core<M> {
    /// A core over the whole cluster: one segment per plane.
    pub(crate) fn new(spec: ClusterSpec) -> Self {
        let (n, planes) = (spec.n, spec.planes as usize);
        Core {
            spec,
            now: SimTime::ZERO,
            seq: 1,
            events: TimerWheel::new(),
            frames: vec![VecDeque::new(); planes],
            hosts: Hosts::new(n, spec.planes),
            media: NetId::planes(spec.planes)
                .map(|net| SharedMedium::new(net, spec.bandwidth_bps, spec.propagation))
                .collect(),
            link_loss: vec![0.0; n * planes],
            app_stats: AppStats::default(),
            flows: Vec::new(),
            clamped_past: 0,
            faults: ComponentSchedule::default(),
            faults_passed: 0,
            hub_up: vec![true; planes],
            rngs: (0..n as u32)
                .map(|i| Rng::seed_from_u64(host_rng_seed(spec.seed, i)))
                .collect(),
            event_log: None,
            flight: None,
            cur_ev_seq: 0,
            cur_sub: 0,
            workload: None,
        }
    }

    /// A copy of the simulator state for [`super::World::fork`]: the
    /// clock, the sequence counter, the queue ([`TimerWheel::fork`]) and
    /// the frames in flight, the hosts, media, flows, component schedule
    /// and cursor, random streams and the recorders, field for field.
    ///
    /// # Panics
    /// Panics if the fluid workload is enabled.
    pub(crate) fn fork(&self) -> Self {
        assert!(
            self.workload.is_none(),
            "a world running the fluid workload cannot be forked"
        );
        Core {
            spec: self.spec,
            now: self.now,
            seq: self.seq,
            events: self.events.fork(),
            frames: self.frames.clone(),
            hosts: self.hosts.clone(),
            media: self.media.clone(),
            link_loss: self.link_loss.clone(),
            app_stats: self.app_stats.clone(),
            flows: self.flows.clone(),
            clamped_past: self.clamped_past,
            faults: self.faults.clone(),
            faults_passed: self.faults_passed,
            hub_up: self.hub_up.clone(),
            rngs: self.rngs.clone(),
            event_log: self.event_log.clone(),
            flight: self.flight.clone(),
            cur_ev_seq: self.cur_ev_seq,
            cur_sub: self.cur_sub,
            workload: None,
        }
    }

    /// Logs a non-session workload transition (route/NIC/reroute) at the
    /// current instant. No-op when the fluid workload is not enabled.
    #[inline]
    pub(crate) fn record_workload(&mut self, kind: Transition) {
        if let Some(w) = self.workload.as_mut() {
            w.record(self.now, kind);
        }
    }

    /// Applies every scheduled fault or repair due at or before `t` that
    /// the cursor has not passed, each exactly once and in schedule order:
    /// it sets the segment's `hub_up` or the host's NIC flag, writes the
    /// `Fault`/`Repair` flight record (stamped with the entry's own
    /// instant, the sequence number 0 that no event takes, and its
    /// schedule index as sub) and logs a [`Transition::Hub`] or
    /// [`Transition::Nic`] for the fluid engine. Returns the next entry's
    /// instant, `SimTime(u64::MAX)` past the last. The run loop calls it
    /// before the first event at or after an entry's instant, so the entry
    /// precedes every event at its instant and its records land in
    /// dispatch order.
    pub(crate) fn pass_faults(&mut self, t: SimTime) -> SimTime {
        while let Some(FaultEvent { at, component, up }) =
            self.faults.get(self.faults_passed).filter(|e| e.at <= t)
        {
            let (host, net, code, transition) = match component {
                SimComponent::Hub(net) => {
                    self.hub_up[net.idx()] = up;
                    (u32::MAX, net, 0, Transition::Hub { net, up })
                }
                SimComponent::Nic(node, net) => {
                    self.hosts.set_nic(node, net, up);
                    (node.0, net, 1, Transition::Nic { node, net, up })
                }
            };
            if let Some(flight) = self.flight.as_mut() {
                flight.record(TraceRecord {
                    time_ns: at.0,
                    seq: 0,
                    sub: self.faults_passed as u32,
                    kind: if up {
                        TraceKind::Repair
                    } else {
                        TraceKind::Fault
                    },
                    host,
                    plane: Some(net.0),
                    arg: code,
                    cause: None,
                });
            }
            if let Some(w) = self.workload.as_mut() {
                w.record(at, transition);
            }
            self.faults_passed += 1;
        }
        self.faults
            .get(self.faults_passed)
            .map_or(SimTime(u64::MAX), |e| e.at)
    }

    pub(crate) fn schedule_at(&mut self, at: SimTime, kind: EventKind) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let at = if at < self.now {
            // Release-build guard: a past due time would corrupt the
            // queue's ordering invariant. Clamp to `now` (the event fires
            // immediately, in seq order) and count it so the anomaly is
            // visible in kernel stats instead of silently ignored.
            self.clamped_past += 1;
            self.now
        } else {
            at
        };
        self.events.push(at, self.seq, kind);
        self.seq += 1;
    }

    /// The random stream of `node`.
    #[inline]
    pub(crate) fn rng_for(&mut self, node: NodeId) -> &mut Rng {
        &mut self.rngs[node.idx()]
    }

    /// Per-frame corruption probability of `node`'s cabling on `net`.
    #[inline]
    pub(crate) fn link_loss(&self, node: NodeId, net: NetId) -> f64 {
        self.link_loss[node.idx() * self.spec.planes as usize + net.idx()]
    }

    /// Degrades (or restores) `node`'s cabling on `net`.
    ///
    /// # Panics
    /// Panics unless `0.0 <= p < 1.0`.
    pub(crate) fn set_link_loss(&mut self, node: NodeId, net: NetId, p: f64) {
        assert!((0.0..1.0).contains(&p), "loss rate must be in [0, 1)");
        self.link_loss[node.idx() * self.spec.planes as usize + net.idx()] = p;
    }

    /// Appends a record for a just-popped event, if logging is enabled.
    /// An [`EventKind::Arrive`] reads its frame at the front of the
    /// segment's FIFO, where dispatch takes it from.
    pub(crate) fn log_event(&mut self, at: SimTime, seq: u64, kind: &EventKind) {
        let Some(log) = self.event_log.as_mut() else {
            return;
        };
        // Both forms of an arrival log the same record.
        let arrival = |src: NodeId, net: NetId, disc: u64, dst: u64| {
            (EventTag::Arrive, src.0, net.idx() as u8, disc << 32 | dst)
        };
        let (tag, node, net, aux) = match kind {
            EventKind::Arrive { net } => {
                let (_, f) = &self.frames[net.idx()][0];
                let disc = match &f.kind {
                    FrameKind::EchoRequest { .. } => 0,
                    FrameKind::EchoReply { .. } => 1,
                    FrameKind::Control(_) => 2,
                    FrameKind::Data(_) => 3,
                };
                let dst = match f.dst {
                    Destination::Broadcast => 0,
                    Destination::Node(n) => u64::from(n.0) + 1,
                };
                arrival(f.src, f.net, disc, dst)
            }
            EventKind::EchoRequest { src, dst, net, .. } => {
                arrival(*src, *net, 0, u64::from(dst.0) + 1)
            }
            EventKind::EchoReply { src, dst, net, .. } => {
                arrival(*src, *net, 1, u64::from(dst.0) + 1)
            }
            EventKind::ProtoTimer { node, token } => (EventTag::Timer, node.0, 0, *token),
            EventKind::Rto { flow, attempt } => {
                let src = self.flows[flow.idx()].src;
                (EventTag::Rto, src.0, 0, flow.0 << 32 | u64::from(*attempt))
            }
            EventKind::AppSend { flow } => {
                let Flow { src, dst, .. } = self.flows[flow.idx()];
                (EventTag::AppSend, src.0, 0, flow.0 << 32 | u64::from(dst.0))
            }
            EventKind::SessionOpen { host } => (EventTag::SessionOpen, host.0, 0, 0),
            EventKind::SessionClose { host, local } => (EventTag::SessionClose, host.0, 0, *local),
        };
        log.push(EventRecord {
            at,
            seq,
            tag,
            node,
            net,
            aux,
        });
    }

    /// Appends a flight record stamped with the current dispatch's
    /// `(time, seq, sub)` identity, returning its [`EventRef`] so the
    /// caller can thread it into later records as a cause. A no-op
    /// returning `None` when the recorder is disabled — instrumented
    /// runs schedule exactly the same events as uninstrumented ones.
    pub(crate) fn flight_record(
        &mut self,
        kind: TraceKind,
        host: u32,
        plane: Option<u8>,
        arg: u64,
        cause: Option<EventRef>,
    ) -> Option<EventRef> {
        let flight = self.flight.as_mut()?;
        let rec = TraceRecord {
            time_ns: self.now.0,
            seq: self.cur_ev_seq,
            sub: self.cur_sub,
            kind,
            host,
            plane,
            arg,
            cause,
        };
        self.cur_sub += 1;
        flight.record(rec);
        Some(rec.self_ref())
    }

    /// Pins `head`'s causal chain against ring eviction (no-op when the
    /// recorder is disabled).
    pub(crate) fn flight_pin(&mut self, head: EventRef) {
        if let Some(flight) = self.flight.as_mut() {
            flight.pin_chain(head);
        }
    }

    /// Releases a chain pinned by [`Self::flight_pin`].
    pub(crate) fn flight_release(&mut self, head: EventRef) {
        if let Some(flight) = self.flight.as_mut() {
            flight.release(head);
        }
    }

    /// A deterministic snapshot of the kernel's operation counters.
    pub(crate) fn kernel_stats(&self) -> KernelStats {
        KernelStats {
            wheel: *self.events.stats(),
            clamped_past: self.clamped_past,
            queue_depth: self.events.len() as u64,
            now_ns: self.now.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_rng_seed_equals_the_body_it_replaced() {
        fn reference(seed: u64, node: u32) -> u64 {
            let mut z = seed ^ u64::from(node).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let mut corpus = Rng::seed_from_u64(0x4057);
        for node in (0..2_000u32).chain([u32::MAX]) {
            let seed = corpus.next_u64();
            assert_eq!(host_rng_seed(seed, node), reference(seed, node));
        }
        assert_eq!(host_rng_seed(0, 0), reference(0, 0));
    }
}
