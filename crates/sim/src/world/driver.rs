//! The driver: one [`World`] owning one [`Core`] over the whole cluster
//! and every host's daemon, run on the calling thread.
//!
//! # The loop
//!
//! Transmissions are admitted onto the segments the instant they are
//! sent, events carry one sequence counter, and `run_until` pops the
//! queue until the horizon: one `pop_due` that takes the least event
//! across the wheel and the segments' arrival lanes if it is due, one
//! compare against the next pending fault or repair, dispatch.
//!
//! # What orders a run
//!
//! Everything that orders events is derived from virtual time and
//! sequence numbers:
//!
//! * component liveness is a schedule, not events: a fault or repair at
//!   `t`, of a hub or a NIC alike, takes effect before every event at `t`
//!   and consumes no sequence number. The core keeps every entry in one
//!   time-sorted list, its component schedule, and walks it with one
//!   cursor: when the loop reaches an entry, the core applies it once —
//!   the segment's `hub_up` flag that admission and the arrival check
//!   read, or the host's NIC flag — writes its flight record and logs a
//!   `Transition::Hub` or `Transition::Nic` in the fluid engine's log.
//!   Faults may be scheduled at any `at >= now()`, before or between
//!   runs; one whose instant no dispatched event has reached acts as if
//!   it had been scheduled before the run;
//! * corruption rolls and daemon draws come from per-host RNG streams,
//!   so draw order depends only on the host's own event sequence;
//! * equal instants pop in sequence order, and every event the run
//!   schedules takes the next number of one counter.
//!
//! `run_until_settled` — stop once every application flow has its
//! outcome — is built on top of `run_until` rather than into the loop:
//! fixed strides of `run_until` with a look at the flow counters in
//! between, so no event pays for it.

use std::ops::{Deref, DerefMut};
use std::panic::{self, AssertUnwindSafe};
use std::thread;

use drs_core::ids::FlowId;
use drs_core::{NetId, NodeId, ProbeObs, SimDuration, SimTime};
use drs_obs::flight::{FlightLog, FlightRecorder};
use drs_obs::par;
use drs_obs::rng::Rng;

use crate::app::{Flow, Workload};
use crate::fault::{FaultPlan, SimComponent};
use crate::host::HostView;
use crate::medium::SharedMedium;
use crate::scenario::ClusterSpec;
use crate::stats::AppStats;
use crate::topology::TopologySpec;
use crate::workload::{FluidEngine, WorkloadCore, WorkloadSpec, WorkloadStats};

use super::kernel::Engine;
use super::queue::{Core, EventKind, EventRecord, KernelStats};
use super::{Ctx, FlowOutcome, Protocol};

/// Virtual time [`World::run_until_settled`] advances between two looks
/// at the flow table. Short against what the caller saves (a resolved
/// flow stops the run at most this much later, against a retry budget of
/// seconds), long against a `run_until` call's fixed cost (a few hundred
/// calls cover that budget).
const SETTLE_STRIDE: SimDuration = SimDuration::from_millis(20);

/// Counters of the retired multi-shard driver, reported for the one shard
/// there is: `shards == 1`, every epoch, merge, intent and stall counter
/// 0, and `events_per_shard == [pops]`. It stays only because
/// `benchmark/` reads it; ROADMAP item 7 deletes it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Always 1.
    pub shards: usize,
    /// Always 0.
    pub epochs: u64,
    /// Always 0.
    pub merges: u64,
    /// Always 0.
    pub intents: u64,
    /// Always 0.
    pub cross_shard_frames: u64,
    /// Always 0.
    pub zero_pop_epochs: u64,
    /// Always 0: there is no epoch window.
    pub lookahead_ns: u64,
    /// The events dispatched, as the one entry.
    pub events_per_shard: Vec<u64>,
    /// `[0]`.
    pub stalls_per_shard: Vec<u64>,
    /// Always 0.
    pub barrier_wait_ns: u64,
}

/// The simulated cluster: the event engine plus one protocol instance
/// per host.
pub struct World<P: Protocol> {
    pub(super) core: Core<P::Msg>,
    /// Every host's daemon, indexed by host.
    protocols: Vec<P>,
}

/// [`World`] under the name `benchmark/` builds it by; everything is
/// [`World`]'s, through `Deref`. ROADMAP item 7 deletes it.
pub struct ShardedWorld<P: Protocol>(World<P>);

impl<P: Protocol> ShardedWorld<P> {
    /// [`World::new`]. `shards` and `threads` are ignored: there is one
    /// shard and it runs on the calling thread. Both stay only because
    /// `benchmark/` passes them; ROADMAP item 7 deletes this constructor.
    pub fn with_topology(
        spec: ClusterSpec,
        _shards: usize,
        _threads: usize,
        factory: impl FnMut(NodeId) -> P,
    ) -> Self {
        ShardedWorld(World::new(spec, factory))
    }
}

impl<P: Protocol> Deref for ShardedWorld<P> {
    type Target = World<P>;
    fn deref(&self) -> &World<P> {
        &self.0
    }
}

impl<P: Protocol> DerefMut for ShardedWorld<P> {
    fn deref_mut(&mut self) -> &mut World<P> {
        &mut self.0
    }
}

impl<P: Protocol> World<P> {
    /// Builds the cluster and starts every daemon (each gets `on_start`
    /// at time zero, in host order).
    pub fn new(spec: ClusterSpec, factory: impl FnMut(NodeId) -> P) -> Self {
        Self::build(spec, None, factory)
    }

    /// Builds the cluster over an explicit topology graph: one simulated
    /// node per graph node (hosts *and* switches run the protocol), one
    /// two-endpoint shared segment per link. NICs are masked down to link
    /// membership and route tables start empty — both applied before any
    /// `on_start`, so daemons observe the fabric from the first instant.
    /// See [`crate::topology`] for the mapping.
    pub fn from_topology(tspec: &TopologySpec, factory: impl FnMut(NodeId) -> P) -> Self {
        Self::build(tspec.cluster_spec(), Some(tspec), factory)
    }

    fn build(
        spec: ClusterSpec,
        tspec: Option<&TopologySpec>,
        factory: impl FnMut(NodeId) -> P,
    ) -> Self {
        let mut core = Core::new(spec);
        if let Some(t) = tspec {
            t.apply_membership(&mut core.hosts);
        }
        let mut world = World {
            core,
            protocols: (0..spec.n as u32).map(NodeId).map(factory).collect(),
        };
        for (i, protocol) in world.protocols.iter_mut().enumerate() {
            let mut ctx = Ctx {
                core: &mut world.core,
                node: NodeId(i as u32),
            };
            protocol.on_start(&mut ctx);
        }
        world
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The cluster configuration.
    #[must_use]
    pub fn spec(&self) -> &ClusterSpec {
        &self.core.spec
    }

    /// The daemon instance on `node`.
    #[must_use]
    pub fn protocol(&self, node: NodeId) -> &P {
        &self.protocols[node.idx()]
    }

    /// Mutable access to the daemon on `node` (for test instrumentation).
    pub fn protocol_mut(&mut self, node: NodeId) -> &mut P {
        &mut self.protocols[node.idx()]
    }

    /// Read access to a host's simulated state.
    #[must_use]
    pub fn host(&self, node: NodeId) -> HostView<'_> {
        self.core.hosts.view(node)
    }

    /// The random stream of `node` (corruption rolls, daemon draws), as
    /// far as the run has drawn from it.
    #[must_use]
    pub fn rng(&self, node: NodeId) -> &Rng {
        &self.core.rngs[node.idx()]
    }

    /// Read access to a network segment: busy horizon and cumulative
    /// stats through the last admission.
    #[must_use]
    pub fn medium(&self, net: NetId) -> &SharedMedium {
        &self.core.media[net.idx()]
    }

    /// Cluster-wide application statistics.
    #[must_use]
    pub fn app_stats(&self) -> AppStats {
        self.core.app_stats.clone()
    }

    /// Every host's probe-path observability record merged into one —
    /// the cluster-wide view a finished run hands to the reporting
    /// layer. Histogram merging is exact and order-independent, so this
    /// equals recording every sample into a single [`ProbeObs`].
    #[must_use]
    pub fn merged_probe_obs(&self) -> ProbeObs {
        let mut merged = ProbeObs::default();
        for obs in self.core.hosts.obs_iter() {
            merged.merge(obs);
        }
        merged
    }

    /// Outcome of a completed flow, if it has completed.
    #[must_use]
    pub fn flow_outcome(&self, flow: FlowId) -> Option<FlowOutcome> {
        self.core.flows.get(flow.idx()).and_then(|f| f.outcome)
    }

    /// All completed flow outcomes in ascending [`FlowId`] order.
    #[must_use]
    pub fn flow_outcomes(&self) -> Vec<(FlowId, FlowOutcome)> {
        (0..)
            .map(FlowId)
            .zip(&self.core.flows)
            .filter_map(|(id, f)| Some((id, f.outcome?)))
            .collect()
    }

    /// Deterministic operation counters of the event kernel (timer-wheel
    /// push/pop/cascade/pool counts, past-time clamps, queue depth).
    #[must_use]
    pub fn kernel_stats(&self) -> KernelStats {
        self.core.kernel_stats()
    }

    /// The retired multi-shard driver's counters, for the one shard there
    /// is (see [`ShardStats`]). ROADMAP item 7 deletes it.
    #[must_use]
    pub fn shard_stats(&self) -> ShardStats {
        ShardStats {
            shards: 1,
            events_per_shard: vec![self.core.events.stats().pops],
            stalls_per_shard: vec![0],
            ..ShardStats::default()
        }
    }

    /// Number of flows sent and not yet delivered or given up.
    #[must_use]
    pub fn flows_in_flight(&self) -> usize {
        let s = &self.core.app_stats;
        (s.sent - s.delivered - s.gave_up) as usize
    }

    /// Degrades (or restores) one host's cabling on one network: every
    /// frame it sends or receives there is corrupted with probability
    /// `p`.
    pub fn set_link_loss(&mut self, node: NodeId, net: NetId, p: f64) {
        self.core.set_link_loss(node, net, p);
    }

    /// Whether a hardware component is currently operational: the last
    /// fault or repair scheduled on it at or before `now()`, even one
    /// scheduled at exactly `now()` that no run has applied yet, or the
    /// state it was built with (topology worlds start unused NIC slots
    /// down).
    ///
    /// # Panics
    /// Panics if the component names a host or plane the scenario does
    /// not have.
    #[must_use]
    pub fn component_is_up(&self, c: SimComponent) -> bool {
        self.check_component(c);
        let scheduled = self.core.faults.state_at(c, self.core.now);
        scheduled.unwrap_or_else(|| match c {
            SimComponent::Hub(net) => self.core.hub_up[net.idx()],
            SimComponent::Nic(node, net) => self.core.hosts.nic_is_up(node, net),
        })
    }

    /// Schedules every event of a fault plan. Each joins the core's
    /// component schedule: a fault or repair at `t` takes effect before
    /// every event at `t`, whether it was added before the run or between
    /// runs.
    ///
    /// # Panics
    /// Panics if an event lies in the past or names a host or plane the
    /// scenario does not have.
    pub fn schedule_faults(&mut self, plan: FaultPlan) {
        for ev in plan.into_sorted_events() {
            assert!(ev.at >= self.core.now, "fault scheduled in the past");
            self.check_component(ev.component);
            self.core.faults.insert(ev);
        }
    }

    /// Panics unless `c` names one of the scenario's hosts and planes.
    fn check_component(&self, c: SimComponent) {
        let ClusterSpec { n, planes, .. } = self.core.spec;
        let net = match c {
            SimComponent::Hub(net) => net,
            SimComponent::Nic(node, net) => {
                assert!(node.idx() < n, "no host {node}: the cluster has {n} hosts");
                net
            }
        };
        assert!(
            net.idx() < usize::from(planes),
            "no plane {net}: the cluster has {planes} planes"
        );
    }

    /// Schedules one application message; returns its flow id. Flow ids
    /// are sequential.
    pub fn send_app(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        payload_bytes: u32,
    ) -> FlowId {
        assert!(at >= self.core.now, "app send scheduled in the past");
        assert_ne!(src, dst, "a host does not message itself");
        let flow = FlowId(self.core.flows.len() as u64);
        self.core.flows.push(Flow::new(src, dst, payload_bytes));
        self.core.schedule_at(at, EventKind::AppSend { flow });
        flow
    }

    /// Schedules a whole workload; returns the flow ids in schedule order.
    pub fn schedule_workload(&mut self, w: &Workload) -> Vec<FlowId> {
        w.messages()
            .iter()
            .map(|m| self.send_app(m.at, m.src, m.dst, m.payload_bytes))
            .collect()
    }

    /// Starts recording every dispatched event (for determinism tests).
    pub fn enable_event_log(&mut self) {
        self.core.event_log = Some(Vec::new());
    }

    /// Starts the causal flight recorder: one bounded ring of `capacity`
    /// records (protocol decision points via [`Ctx::flight_record`],
    /// kernel loss sites, faults and repairs). Enabling the recorder never
    /// changes the event schedule.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn enable_flight(&mut self, capacity: usize) {
        self.core.flight = Some(FlightRecorder::new(capacity));
    }

    /// Enables the fluid session workload (see [`crate::workload`]):
    /// per-host arrival streams, a snapshot of the current route tables
    /// in the accounting engine that consumes the transition log. Must
    /// be called before time advances; composes with
    /// [`Self::schedule_faults`] in either order. The engine starts
    /// from the hubs' current state, so a hub fault at time zero that a
    /// `run_until(SimTime::ZERO)` already applied is not lost.
    ///
    /// # Panics
    /// Panics if called after time has advanced, or twice.
    pub fn enable_workload(&mut self, wspec: WorkloadSpec) {
        assert_eq!(self.core.now, SimTime::ZERO, "enable before time advances");
        assert!(self.core.workload.is_none(), "workload already enabled");
        let spec = self.core.spec;
        let n = spec.n;
        let mut routes = Vec::with_capacity(n * n);
        for src in 0..n {
            let table = self.core.hosts.routes(NodeId(src as u32));
            for dst in 0..n {
                routes.push(table.get(NodeId(dst as u32)));
            }
        }
        let engine = FluidEngine::new(
            &wspec,
            n,
            spec.planes,
            spec.bandwidth_bps,
            routes,
            self.core.hub_up.clone(),
        );
        let mut wl = Box::new(WorkloadCore::new(wspec, n, spec.seed, engine));
        wl.initial_opens(|host, at| self.core.schedule_at(at, EventKind::SessionOpen { host }));
        self.core.workload = Some(wl);
    }

    /// Session-level workload statistics, settled to the end of the
    /// last `run_until`. `None` unless [`Self::enable_workload`] ran.
    #[must_use]
    pub fn workload_stats(&self) -> Option<&WorkloadStats> {
        self.workload_engine().map(FluidEngine::stats)
    }

    /// The fluid accounting engine (digest, conservation report).
    #[must_use]
    pub fn workload_engine(&self) -> Option<&FluidEngine> {
        self.core.workload.as_ref().map(|w| w.engine())
    }

    /// Kernel events dispatched on behalf of the fluid workload — by
    /// construction exactly the session open/close transition count (the
    /// `O(transitions)` identity `drs-bench repro` checks).
    #[must_use]
    pub fn workload_events(&self) -> u64 {
        self.core.workload.as_ref().map_or(0, |w| w.events)
    }

    /// Feeds the transitions logged since the last drain to the fluid
    /// engine in dispatch order, then settles the ledgers at `until`.
    fn drain_workload(&mut self, until: SimTime) {
        if let Some(wl) = self.core.workload.as_mut() {
            wl.settle(until);
        }
    }

    /// The flight timeline in `(time, seq, sub)` order, if
    /// [`Self::enable_flight`] was called.
    #[must_use]
    pub fn flight_log(&self) -> Option<FlightLog> {
        self.core.flight.as_ref().map(FlightRecorder::drain)
    }

    /// Every dispatched event in `(at, seq)` order, if
    /// [`Self::enable_event_log`] was called.
    #[must_use]
    pub fn event_log(&self) -> Option<Vec<EventRecord>> {
        self.core.event_log.clone()
    }

    /// Runs for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let until = self.core.now + d;
        self.run_until(until);
    }

    /// Pops and dispatches every event due by `until`; afterwards
    /// `now() == until`. Each scheduled fault or repair is applied before
    /// the first event at or after its instant, at one compare per event.
    ///
    /// With the fluid workload enabled and a spare CPU ([`par::workers`]
    /// above 1, so never inside a `par` worker), the engine applies the
    /// transition log's full batches on a second thread while this one
    /// dispatches and fills the next batch; the run joins it before it
    /// returns, so the engine, its statistics and digest are exactly
    /// those of applying each batch on this thread.
    pub fn run_until(&mut self, until: SimTime) {
        self.run_until_on(par::workers(), until);
    }

    /// [`Self::run_until`], pipelining the fluid engine on a second
    /// thread when `workers` is above 1, so tests can take either path
    /// on any host.
    ///
    /// # Panics
    /// Re-raises a panic of the engine's worker with its payload, or else
    /// one of the dispatch loop once the worker has stopped.
    pub(crate) fn run_until_on(&mut self, workers: usize, until: SimTime) {
        match self.core.workload.as_mut() {
            Some(wl) if workers > 1 => {
                let worker = wl.detach_engine();
                thread::scope(|scope| {
                    let worker = scope.spawn(|| worker.run());
                    let ran = panic::catch_unwind(AssertUnwindSafe(|| self.dispatch_until(until)));
                    let wl = self.core.workload.as_mut().expect("enabled above");
                    wl.reattach_engine(|| {
                        worker.join().unwrap_or_else(|e| panic::resume_unwind(e))
                    });
                    if let Err(payload) = ran {
                        panic::resume_unwind(payload);
                    }
                });
            }
            _ => self.dispatch_until(until),
        }
        self.drain_workload(until);
    }

    /// The dispatch loop of [`Self::run_until`]: every event due by
    /// `until`, then every fault due by it; `now()` ends at `until`.
    /// Each event is popped before the faults at its instant are applied,
    /// which is the same as applying them first: applying a fault touches
    /// no queued event.
    fn dispatch_until(&mut self, until: SimTime) {
        let World {
            core, protocols, ..
        } = self;
        // Zero: the first event looks up the next fault.
        let mut next_fault = SimTime::ZERO;
        while let Some((at, seq, kind)) = core.events.pop_due(until) {
            if at >= next_fault {
                next_fault = core.pass_faults(at);
            }
            debug_assert!(at >= core.now);
            core.now = at;
            core.cur_ev_seq = seq;
            core.cur_sub = 0;
            core.log_event(at, seq, &kind);
            Engine {
                core: &mut *core,
                protocols,
            }
            .dispatch(kind);
        }
        core.pass_faults(until);
        core.now = core.now.max(until);
    }

    /// Runs until every flow handed to [`Self::send_app`] has its outcome
    /// — none in flight ([`Self::flows_in_flight`] is zero) and none
    /// still waiting for its send instant — or virtual time reaches
    /// `deadline`, whichever is first; returns the instant it stopped at
    /// (`now()`). For the driver that asks one question of a flow and
    /// nothing of the cluster afterwards.
    ///
    /// Outcomes are terminal, so stopping here and running on to
    /// `deadline` later leaves [`Self::flow_outcomes`] as it is. The stop
    /// instant is the first multiple of a fixed stride past the entry
    /// `now()` at which the cluster was settled: each stride is an
    /// ordinary [`Self::run_until`] with the check in between, so the
    /// loop pays nothing for it.
    pub fn run_until_settled(&mut self, deadline: SimTime) -> SimTime {
        while self.core.now < deadline && self.flows_unresolved() > 0 {
            self.run_until((self.core.now + SETTLE_STRIDE).min(deadline));
        }
        self.core.now
    }

    /// Flows issued by [`Self::send_app`] that have no outcome yet,
    /// whether their send event has fired or not.
    fn flows_unresolved(&self) -> u64 {
        let s = &self.core.app_stats;
        self.core.flows.len() as u64 - (s.delivered + s.gave_up)
    }
}

impl<P: Protocol + Clone> World<P> {
    /// An independent copy of the world at `now()`: run on, it
    /// dispatches exactly the events, and draws exactly the numbers, the
    /// original would, and scheduling on one copy leaves the other as it
    /// is. A fault scheduled on a copy, even one at the next nanosecond,
    /// acts as it would have on the original before the fork: faults take
    /// effect before every event at their instant and take no sequence
    /// number. Live state is copied — the core (clock, sequence counter,
    /// hosts, media, flows, component schedule and cursor, random
    /// streams, event log and flight recorder), the queue's live entries
    /// in their wheel slots with its counters, the frames in flight, and
    /// every daemon. The one reuse pool, the wheel's spare chunks, starts
    /// empty. So a fork costs O(live state), and only the
    /// wheel's `pool_hits`/`pool_misses` split can tell it from the
    /// original.
    ///
    /// # Panics
    /// Panics if the fluid workload is enabled.
    #[must_use]
    pub fn fork(&self) -> Self {
        World {
            core: self.core.fork(),
            protocols: self.protocols.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::EventTag;
    use drs_obs::flight::{EventRef, TraceKind};

    struct Idle;
    impl Protocol for Idle {
        type Msg = ();
    }

    #[test]
    fn hub_failure_via_timeline_eats_frames() {
        let mut w = World::new(ClusterSpec::new(4).seed(5), |_| Idle);
        w.schedule_faults(FaultPlan::new().fail_at(SimTime(0), SimComponent::Hub(NetId::A)));
        assert!(!w.component_is_up(SimComponent::Hub(NetId::A)));
        let flow = w.send_app(SimTime(1000), NodeId(0), NodeId(3), 100);
        w.run_for(SimDuration::from_secs(200));
        assert_eq!(w.flow_outcome(flow), Some(FlowOutcome::GaveUp));
        assert!(!w.component_is_up(SimComponent::Hub(NetId::A)));
        assert!(w.component_is_up(SimComponent::Hub(NetId::B)));
        assert!(w.medium(NetId::A).stats.dropped_hub_down > 0);
    }

    #[test]
    fn settled_means_every_issued_flow_has_its_outcome() {
        let mut w = World::new(ClusterSpec::new(4).seed(5), |_| Idle);
        // Nothing issued: nothing to wait for, time does not move.
        assert_eq!(w.run_until_settled(SimTime(1_000_000_000)), SimTime::ZERO);
        // A send still in the future is waited for, though no flow is in
        // flight yet; the stop is the first stride boundary past its
        // delivery.
        let sent_at = SimTime(3 * SETTLE_STRIDE.0 + 1000);
        let flow = w.send_app(sent_at, NodeId(0), NodeId(3), 100);
        assert_eq!(w.flows_in_flight(), 0);
        let stopped_at = w.run_until_settled(SimTime(1_000_000_000));
        assert_eq!(stopped_at, SimTime(4 * SETTLE_STRIDE.0));
        assert_eq!(stopped_at, w.now());
        assert!(matches!(
            w.flow_outcome(flow),
            Some(FlowOutcome::Delivered(_))
        ));
        // A flow that cannot resolve by the deadline stops the run there,
        // off the stride grid, with the flow still open.
        let now = w.now();
        w.schedule_faults(FaultPlan::new().fail_at(now, SimComponent::Hub(NetId::A)));
        let stuck = w.send_app(now, NodeId(0), NodeId(3), 100);
        let deadline = now + SimDuration(SETTLE_STRIDE.0 * 5 / 2);
        assert_eq!(w.run_until_settled(deadline), deadline);
        assert_eq!(w.flow_outcome(stuck), None);
        assert_eq!(w.flows_in_flight(), 1);
    }

    #[test]
    fn nic_fault_mid_run_is_fine() {
        let mut w = World::new(ClusterSpec::new(6).seed(9), |_| Idle);
        w.run_for(SimDuration::from_millis(10));
        let at = w.now() + SimDuration::from_millis(1);
        w.schedule_faults(FaultPlan::new().fail_at(at, SimComponent::Nic(NodeId(2), NetId::A)));
        w.run_for(SimDuration::from_millis(10));
        assert!(!w.component_is_up(SimComponent::Nic(NodeId(2), NetId::A)));
        assert!(w.component_is_up(SimComponent::Nic(NodeId(1), NetId::A)));
    }

    /// Broadcasts from `on_start` are admitted at construction, so a hub
    /// failure scheduled for time zero afterwards catches them in flight,
    /// not at admission.
    #[test]
    fn on_start_frames_are_admitted_at_construction() {
        struct Hello;
        impl Protocol for Hello {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                ctx.broadcast_control(NetId::A, 1);
            }
        }
        let mut w = World::new(ClusterSpec::new(6).seed(2), |_| Hello);
        w.schedule_faults(FaultPlan::new().fail_at(SimTime(0), SimComponent::Hub(NetId::A)));
        w.run_for(SimDuration::from_millis(5));
        let received: u64 = (0..6)
            .map(|i| w.host(NodeId(i)).counters.control_received)
            .sum();
        let a = w.medium(NetId::A).stats;
        assert_eq!((a.frames, a.dropped_hub_down, received), (6, 0, 0));
    }

    /// Every host broadcasts twice on both planes: every other host hears
    /// each broadcast exactly once, the sender never does, and each
    /// broadcast is one arrival event.
    #[test]
    fn a_broadcast_reaches_every_other_host_once() {
        struct Shout {
            heard: Vec<(u32, u8, u8)>,
        }
        impl Protocol for Shout {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, u8>, round: u64) {
                for net in NetId::planes(ctx.planes()) {
                    ctx.broadcast_control(net, round as u8);
                }
                if round == 0 {
                    ctx.set_timer(SimDuration::from_millis(3), 1);
                }
            }
            fn on_control(&mut self, _ctx: &mut Ctx<'_, u8>, from: NodeId, net: NetId, r: &u8) {
                self.heard.push((from.0, net.0, *r));
            }
        }
        let n = 7u32;
        let spec = ClusterSpec::new(n as usize).seed(5);
        let mut w = World::new(spec, |_| Shout { heard: Vec::new() });
        w.enable_event_log();
        w.run_for(SimDuration::from_millis(10));
        for host in 0..n {
            let mut heard = w.protocol(NodeId(host)).heard.clone();
            heard.sort_unstable();
            let want: Vec<_> = (0..n)
                .filter(|&from| from != host)
                .flat_map(|from| {
                    (0..2u8).flat_map(move |net| (0..2u8).map(move |r| (from, net, r)))
                })
                .collect();
            assert_eq!(heard, want, "host {host}");
        }
        let log = w.event_log().expect("logging on");
        let arrivals = log.iter().filter(|e| e.tag == EventTag::Arrive);
        // 7 senders × 2 planes × 2 rounds.
        assert_eq!(arrivals.count(), 28);
    }

    /// A traced prober: every period it records a send, probes the next
    /// host on a rotating plane, and pins its chain the way the real
    /// daemon does — so `lookup` runs against a live ring.
    struct Prober {
        n: u32,
        fired: u32,
        chain: Option<EventRef>,
    }

    impl Protocol for Prober {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.set_timer(SimDuration::from_millis(10), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _token: u64) {
            let peer = NodeId((ctx.self_id().0 + 1) % self.n);
            let net = NetId((self.fired % 2) as u8);
            let sent = ctx.flight_record(TraceKind::ProbeSend, Some(net), 0, self.chain);
            if let Some(old) = self.chain.replace(sent.expect("recorder on")) {
                ctx.flight_release(old);
            }
            ctx.flight_pin(self.chain.expect("just set"));
            ctx.send_echo_traced(net, peer, 0, self.fired, sent);
            self.fired += 1;
            ctx.set_timer(SimDuration::from_millis(10), 0);
        }
    }

    /// The indexed `lookup` needs the ring it searches in `(time, seq,
    /// sub)` order. `Fault`/`Repair` records are stamped with their
    /// entry's instant, so the loop must append them before any
    /// later-keyed record — including hub and NIC faults sitting exactly
    /// on the probers' timer instants and hub toggles in windows where
    /// nothing transmits.
    #[test]
    fn hub_toggles_keep_the_flight_ring_ordered() {
        let spec = ClusterSpec::new(8).seed(17);
        let mut w = World::new(spec, |_| Prober {
            n: 8,
            fired: 0,
            chain: None,
        });
        w.enable_flight(1 << 12);
        w.schedule_faults(
            FaultPlan::new()
                .fail_at(SimTime(20_000_000), SimComponent::Hub(NetId::A))
                .repair_at(SimTime(40_000_000), SimComponent::Hub(NetId::A))
                .fail_at(SimTime(44_500_000), SimComponent::Hub(NetId::B))
                .repair_at(SimTime(46_500_000), SimComponent::Hub(NetId::B))
                .fail_at(SimTime(30_000_000), SimComponent::Nic(NodeId(3), NetId::A))
                .fail_at(SimTime(50_000_000), SimComponent::Nic(NodeId(5), NetId::B))
                .repair_at(SimTime(70_000_000), SimComponent::Nic(NodeId(3), NetId::A))
                .fail_at(SimTime(10_000_000), SimComponent::Nic(NodeId(6), NetId::A)),
        );
        w.run_for(SimDuration::from_millis(35));
        w.run_for(SimDuration::from_millis(65));
        let log = w.flight_log().expect("recorder on");
        let toggles = |k| log.records.iter().filter(|r| r.kind == k).count();
        assert_eq!(toggles(TraceKind::Fault), 5);
        assert_eq!(toggles(TraceKind::Repair), 3);
        assert!(toggles(TraceKind::ProbeLoss) > 0);
        assert!(w.core.flight.as_ref().expect("recorder on").is_ordered());
    }
}
