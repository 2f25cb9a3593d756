//! The event queue and the simulator core: virtual clock, pending
//! events, host and medium state. Everything that is *state* lives here;
//! the kernel-side behaviours that act on it live in [`super::kernel`].
//!
//! The queue itself is a hierarchical timer wheel ([`crate::wheel`]) —
//! O(1) push against the former `BinaryHeap`'s O(log n) — with pop order
//! bit-identical to the heap's ascending `(at, seq)`. The heap survives
//! as `crate::naive_heap` (behind the `bench-ref` feature) for benches
//! and equivalence tests.
//!
//! The driver ([`super::World`]) owns one `Core`, which spans the whole
//! cluster and admits transmitted frames onto the shared segments the
//! instant they are sent.

use drs_obs::flight::{EventRef, FlightRecorder, TraceKind, TraceRecord};
use drs_obs::rng::{mix64, Rng, GOLDEN_GAMMA};

use drs_core::frame::Segment;
use drs_core::ids::FlowId;
use drs_core::{Destination, Frame, FrameKind, NetId, NodeId, SimTime};

use crate::app::Flow;

use crate::fault::{HubSchedule, HubToggle};
use crate::host::Hosts;
use crate::medium::SharedMedium;
use crate::scenario::ClusterSpec;
use crate::stats::AppStats;
use crate::wheel::{TimerWheel, WheelStats};
use crate::workload::{Transition, WorkloadCore};

/// First `sub` value of hub-toggle flight records. A toggle record is
/// stamped with the toggle's instant and sequence number 0, which a
/// dispatch at that instant may carry too; per-dispatch sub counters stay
/// far below this, so the two never share an [`EventRef`].
const HUB_SUB_BASE: u32 = 1 << 31;

/// What a queued event does when it fires.
///
/// `Arrive` carries its frame boxed. An enum is as large as its largest
/// variant, and a frame (48 B for the DRS message type) is twice any
/// other payload here; carried inline when it was 88 B, it made every
/// wheel entry 104 B, so each of the millions of timer events a probe
/// cycle queues was moved, sorted and cascaded at a frame's size. Boxed,
/// an event is 16 B and an entry 32 B, and a frame is written once: the
/// box travels from the sender's [`Core::transmit`] through the wheel to
/// the receiver, and after dispatch it returns to the core's spare list
/// for the next transmission.
pub(crate) enum EventKind<M> {
    Arrive(Box<Frame<M>>),
    ProtoTimer {
        node: NodeId,
        token: u64,
    },
    Rto {
        flow: FlowId,
        attempt: u32,
    },
    /// A NIC failure or repair. Hub toggles never travel as events: the
    /// run loop applies them from the core's hub schedule
    /// ([`Core::pass_hub_toggles`]).
    NicFault {
        node: NodeId,
        net: NetId,
        up: bool,
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
const _: () = assert!(std::mem::size_of::<EventKind<drs_core::DrsMsg>>() <= 16);
// The frame box itself, whose size sets its malloc class: glibc rounds a
// request plus its 8 B header up to 16 B, so this 48 B frame takes a 64 B
// chunk where the 88 B one took 96 B, and the N = 1024 burst holds two
// million boxes at once. A field the run almost never fills goes behind a
// pointer, not inline (see `Frame::flight` and `FrameKind::Data`).
const _: () = assert!(std::mem::size_of::<Frame<drs_core::DrsMsg>>() <= 48);

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
    /// A NIC fault or repair (hub toggles are not events).
    Fault,
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
    /// the run schedules.
    pub(crate) seq: u64,
    pub(crate) events: TimerWheel<EventKind<M>>,
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
    /// Every hub toggle scheduled so far, the one copy.
    pub(crate) hubs: HubSchedule,
    /// The one cursor into `hubs`: how many of its toggles the run loop
    /// has applied ([`Self::pass_hub_toggles`]).
    hubs_passed: usize,
    /// Per segment, whether its hub is up once the passed toggles have
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
    /// Frame boxes whose arrival has been dispatched (or whose frame
    /// died at the sender), reused by [`Self::boxed`].
    spare_frames: SpareBoxes<Frame<M>>,
    /// The boxes of data frames' segments, reused by [`Self::data`].
    spare_segments: SpareBoxes<Segment>,
    /// The boxes of traced frames' flight identities, reused by
    /// [`Self::flight_ref`]. An echo reply carries its request's box back
    /// to the prober's core, which boxes that prober's next send.
    spare_refs: SpareBoxes<EventRef>,
}

/// Heap boxes kept for reuse, so a core's steady traffic allocates
/// nothing: [`Self::boxed`] fills a spare before it allocates, and
/// [`Self::keep`] stores a box, up to `cap` of them — one per (host,
/// peer, plane), what the hosts can have in flight when every one of
/// them probes every peer at once (the batched monitor's fan-out). The
/// bound keeps one-way traffic from growing a receiver's list forever.
struct SpareBoxes<T> {
    #[allow(clippy::vec_box)] // the boxes are what is kept
    boxes: Vec<Box<T>>,
    cap: usize,
}

impl<T> SpareBoxes<T> {
    fn new(cap: usize) -> Self {
        SpareBoxes {
            boxes: Vec::new(),
            cap,
        }
    }

    /// `value` in a recycled box when one is spare.
    #[inline]
    fn boxed(&mut self, value: T) -> Box<T> {
        match self.boxes.pop() {
            Some(mut spare) => {
                *spare = value;
                spare
            }
            None => Box::new(value),
        }
    }

    /// Keeps `spare` for [`Self::boxed`] (bounded).
    #[inline]
    fn keep(&mut self, spare: Box<T>) {
        if self.boxes.len() < self.cap {
            self.boxes.push(spare);
        }
    }
}

impl<M: Clone + std::fmt::Debug> Core<M> {
    /// A core over the whole cluster: one segment per plane.
    pub(crate) fn new(spec: ClusterSpec) -> Self {
        let (n, planes) = (spec.n, spec.planes as usize);
        let in_flight = n * n * planes;
        Core {
            spec,
            now: SimTime::ZERO,
            seq: 0,
            events: TimerWheel::new(),
            hosts: Hosts::new(n, spec.planes),
            media: NetId::planes(spec.planes)
                .map(|net| SharedMedium::new(net, spec.bandwidth_bps, spec.propagation))
                .collect(),
            link_loss: vec![0.0; n * planes],
            app_stats: AppStats::default(),
            flows: Vec::new(),
            clamped_past: 0,
            hubs: HubSchedule::default(),
            hubs_passed: 0,
            hub_up: vec![true; planes],
            rngs: (0..n as u32)
                .map(|i| Rng::seed_from_u64(host_rng_seed(spec.seed, i)))
                .collect(),
            event_log: None,
            flight: None,
            cur_ev_seq: 0,
            cur_sub: 0,
            workload: None,
            spare_frames: SpareBoxes::new(in_flight),
            spare_segments: SpareBoxes::new(in_flight),
            spare_refs: SpareBoxes::new(in_flight),
        }
    }

    /// Boxes a frame for the queue, in a recycled box when one is spare.
    #[inline]
    pub(crate) fn boxed(&mut self, frame: Frame<M>) -> Box<Frame<M>> {
        self.spare_frames.boxed(frame)
    }

    /// The `Data` arm for `segment`, in a recycled box when one is spare.
    pub(crate) fn data(&mut self, segment: Segment) -> FrameKind<M> {
        FrameKind::Data(self.spare_segments.boxed(segment))
    }

    /// A traced frame's flight identity, in a recycled box when one is
    /// spare (`None`, allocating nothing, for an untraced frame).
    pub(crate) fn flight_ref(&mut self, cause: Option<EventRef>) -> Option<Box<EventRef>> {
        cause.map(|cause| self.spare_refs.boxed(cause))
    }

    /// Keeps the segment box of a data frame that dies before it is
    /// queued, so losses do not make the data path allocate. On a 2-vCPU
    /// VM, the traced probe path ran 8 % slower when every frame was
    /// boxed up front to be recycled whole, and 1.5 % slower when a dead
    /// frame's flight box was kept too; the allocator takes that back.
    pub(crate) fn salvage(&mut self, frame: Frame<M>) {
        if let FrameKind::Data(segment) = frame.kind {
            self.spare_segments.keep(segment);
        }
    }

    /// Keeps a frame's box, and the boxes it points to, for reuse once
    /// the frame is dispatched or dead.
    #[inline]
    pub(crate) fn recycle_frame(&mut self, mut frame: Box<Frame<M>>) {
        if let Some(cause) = frame.flight.take() {
            self.spare_refs.keep(cause);
        }
        if matches!(frame.kind, FrameKind::Data(_)) {
            let kind = std::mem::replace(&mut frame.kind, FrameKind::EchoReply { id: 0, seq: 0 });
            if let FrameKind::Data(segment) = kind {
                self.spare_segments.keep(segment);
            }
        }
        self.spare_frames.keep(frame);
    }

    /// Logs a non-session workload transition (route/NIC/reroute) at the
    /// current instant. No-op when the fluid workload is not enabled.
    #[inline]
    pub(crate) fn record_workload(&mut self, kind: Transition) {
        if let Some(w) = self.workload.as_mut() {
            w.record(self.now, kind);
        }
    }

    /// Applies every hub toggle due at or before `t` that the cursor has
    /// not passed, each exactly once and in schedule order: it sets the
    /// segment's `hub_up`, writes the `Fault`/`Repair` flight record
    /// (stamped with the toggle's own instant and sequence number 0, sub
    /// [`HUB_SUB_BASE`] plus its schedule index) and logs a
    /// [`Transition::Hub`] for the fluid engine. Returns the next toggle's
    /// instant, `SimTime(u64::MAX)` past the last. The run loop calls it
    /// before the first event at or after a toggle's instant, so the
    /// toggle precedes every event at its instant and its records land in
    /// dispatch order.
    pub(crate) fn pass_hub_toggles(&mut self, t: SimTime) -> SimTime {
        while let Some(HubToggle { at, net, up }) =
            self.hubs.get(self.hubs_passed).filter(|x| x.at <= t)
        {
            self.hub_up[net.idx()] = up;
            if let Some(flight) = self.flight.as_mut() {
                flight.record(TraceRecord {
                    time_ns: at.0,
                    seq: 0,
                    sub: HUB_SUB_BASE + self.hubs_passed as u32,
                    kind: if up {
                        TraceKind::Repair
                    } else {
                        TraceKind::Fault
                    },
                    host: u32::MAX,
                    plane: Some(net.0),
                    arg: 0,
                    cause: None,
                });
            }
            if let Some(w) = self.workload.as_mut() {
                w.record(at, Transition::Hub { net, up });
            }
            self.hubs_passed += 1;
        }
        self.hubs
            .get(self.hubs_passed)
            .map_or(SimTime(u64::MAX), |t| t.at)
    }

    pub(crate) fn schedule_at(&mut self, at: SimTime, kind: EventKind<M>) {
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
    pub(crate) fn log_event(&mut self, at: SimTime, seq: u64, kind: &EventKind<M>) {
        let Some(log) = self.event_log.as_mut() else {
            return;
        };
        let (tag, node, net, aux) = match kind {
            EventKind::Arrive(f) => {
                let disc: u64 = match &f.kind {
                    FrameKind::EchoRequest { .. } => 0,
                    FrameKind::EchoReply { .. } => 1,
                    FrameKind::Control(_) => 2,
                    FrameKind::Data(_) => 3,
                };
                let dst = match f.dst {
                    Destination::Broadcast => 0,
                    Destination::Node(n) => u64::from(n.0) + 1,
                };
                (
                    EventTag::Arrive,
                    f.src.0,
                    f.net.idx() as u8,
                    disc << 32 | dst,
                )
            }
            EventKind::ProtoTimer { node, token } => (EventTag::Timer, node.0, 0, *token),
            EventKind::Rto { flow, attempt } => {
                let src = self.flows[flow.idx()].src;
                (EventTag::Rto, src.0, 0, flow.0 << 32 | u64::from(*attempt))
            }
            EventKind::NicFault { node, net, up } => {
                (EventTag::Fault, node.0, net.idx() as u8, u64::from(*up))
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
