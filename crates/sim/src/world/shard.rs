//! The driver: one [`World`] over one or more shards, direct when there
//! is one shard, conservative-lookahead epochs with a seed-deterministic
//! merge when there are several. Every shard runs on the calling thread.
//!
//! # One shard: the plain loop
//!
//! `World::new` builds a single shard that owns every host and the
//! media. Transmissions are admitted onto the segments immediately
//! (`Fabric::Direct`), events carry one global sequence counter, and
//! `run_until` pops the wheel until the horizon — no epochs, no outbox,
//! no merge.
//!
//! # Several shards: epochs and the merge
//!
//! The cluster's hosts are partitioned into contiguous blocks (shards),
//! each owning its own [`Core`] — timer wheel, host state, per-host RNG
//! streams. The only interaction between hosts is frames crossing the
//! shared medium, and the medium guarantees a *minimum* latency: a frame
//! transmitted at `t` arrives no earlier than
//! `t + serialization(1 byte) + propagation`. That minimum is the
//! **lookahead** `L`, and it makes a conservative window safe: if every
//! shard's next pending event is at or after `T_start`, then every shard
//! can execute all its events in `[T_start, T_start + L)` without ever
//! receiving a frame dated inside that window from another shard —
//! anything sent during the window arrives at `≥ T_start + L`.
//!
//! Each such window is an **epoch**. The driver runs the shards' slices
//! of it one after another; transmissions are not admitted onto the
//! medium immediately but logged as `Intent`s in per-shard outboxes (see
//! `Fabric::Deferred`). After the last shard's slice the merge takes
//! all outboxes in global `(at, seq)` order, admits the frames onto the
//! driver-owned media with the hub liveness of each transmission
//! instant, and pushes the resulting arrivals directly
//! into the destination shards' wheels. Arrivals land at
//! `≥ T_start + L ≥` every shard's cursor, so the wheels never see a
//! past-time push. (A second thread never paid on this partition —
//! ROADMAP, "Decided" — so the shards share the calling thread, and the
//! borrow checker, not a barrier protocol, proves that each shard has one
//! writer.)
//!
//! # How a window opens
//!
//! `T_start` is the minimum over the shards of
//! [`TimerWheel::next_hint`](crate::wheel::TimerWheel::next_hint) — six
//! bit tests per wheel, a lower bound that can undershoot by the span of
//! a higher-level bucket — and the driver never asks for the exact
//! minimum. A window opened on an undershot hint pops nothing, but it is
//! not wasted: every shard whose hint lies inside the window ran
//! `peek_before(T_start + L)`, that bound lies past the hint's grain, so
//! the wheel that produced the hint took the bucket behind it and placed
//! its entries at lower levels (or staged them, where the hint is exact).
//! Nothing is pushed in a window that popped nothing, so each wheel's
//! hint comes from a strictly lower level after every empty window it
//! caused: at most `LEVELS` of them per wheel per idle gap, then one that
//! pops. An exact minimum costs more per epoch than the empty windows it
//! saves (ROADMAP 1(a) has the measurement). [`ShardStats::zero_pop_epochs`]
//! counts the empty windows.
//!
//! # What an epoch costs
//!
//! The merge keeps every shard's hint, and a shard whose hint lies at or
//! past the window's bound is not visited at all: its bounded peek would
//! pop nothing and change nothing
//! ([`TimerWheel::skips_below_hint`](crate::wheel::TimerWheel::skips_below_hint)
//! says when that holds), so the skip counts its stall and moves on. On
//! the N = 1024 burst 88 % of shard-epochs are such stalls. The merge
//! admits each outbox's intents in runs: an outbox keeps the floor while
//! its next intent sorts below every other outbox's head, so the heap
//! does one operation per run, not per intent (98 % of the burst's
//! intents follow one from the same outbox). The heap and the outboxes
//! keep their storage between merges, so the loop allocates nothing in
//! steady state (`tests/alloc_pin_sharded.rs`).
//!
//! # Why every shard count agrees
//!
//! Everything that orders events is derived from virtual time and
//! sequence numbers, never from shard layout:
//!
//! * hub liveness is a schedule, not an event: a toggle at `t` takes
//!   effect before every other event at `t` and consumes no sequence
//!   number. The world keeps every toggle in one time-sorted list, its
//!   hub schedule, and nothing copies it: medium admission (the only
//!   shard's or the merge's) and every shard's arrival check ask it
//!   about their own instant, the shards through a cursor of their own,
//!   and the loops and the fluid engine walk it with cursors too. So a
//!   toggle lands at the same virtual instant in every shard. Hub
//!   faults may be scheduled at any `at >= now()`, before or between
//!   runs;
//! * corruption rolls and daemon draws come from per-host RNG streams,
//!   so draw order depends only on the host's own event sequence;
//! * within an epoch a shard numbers its events
//!   `epoch << 32 | shard << 24 | local`, so sequence numbers are
//!   globally unique and depend only on (epoch, shard, order-in-shard)
//!   (exhausting a field is a panic, checked once per shard-epoch);
//! * the merge admits intents in `(at, seq)` order, so medium queueing
//!   (FIFO per segment) is resolved in one global order;
//! * whether a shard is visited or skipped depends only on the hint the
//!   merge stored for it and the window's bound.
//!
//! The result: `run_until` produces the same simulated results — event
//! projection, medium totals, protocol history, workload ledger — for
//! any shard count, which `tests/shard_equivalence.rs` checks on
//! faulted, lossy and pristine schedules alike.
//!
//! `run_until_settled` — stop once every application flow has its
//! outcome — is built on top of that contract rather than into the
//! loops: fixed strides of `run_until` with a look at the flow counters
//! in between, so neither loop and no event pays for it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::{Deref, DerefMut};

use drs_core::ids::FlowId;
use drs_core::{Destination, Frame, NetId, NodeId, ProbeObs, SimDuration, SimTime};
use drs_obs::flight::{loss_site, EventRef, FlightLog, FlightRecorder, TraceKind, TraceRecord};

use crate::app::Workload;
use crate::fault::{FaultPlan, HubSchedule, HubToggle, SimComponent};
use crate::host::HostView;
use crate::medium::SharedMedium;
use crate::scenario::ClusterSpec;
use crate::stats::AppStats;
use crate::topology::TopologySpec;
use crate::workload::{FluidEngine, TransitionRecord, WorkloadCore, WorkloadSpec, WorkloadStats};

use super::kernel::{class_of, Engine};
use super::queue::{Core, EventKind, EventRecord, Fabric, Intent, KernelStats};
use super::{Ctx, FlowOutcome, Protocol};

/// One shard: a core over a contiguous host block plus those hosts'
/// daemon instances.
pub(super) struct Shard<P: Protocol> {
    id: usize,
    pub(super) core: Core<P::Msg>,
    protocols: Vec<P>,
    /// Epochs in which this shard popped at least one event. Every other
    /// epoch is one of its lookahead stalls — the window opened but every
    /// local event lay beyond it — so the stalls are the world's epoch
    /// count minus this, whether the shard was visited or skipped.
    busy: u64,
    /// The bound at or past which this shard's epoch visit is skipped:
    /// its wheel's hint, as the last merge left it, or zero where the
    /// wheel cannot skip ([`TimerWheel::skips_below_hint`]).
    ///
    /// [`TimerWheel::skips_below_hint`]: crate::wheel::TimerWheel::skips_below_hint
    hint: u64,
}

impl<P: Protocol> Shard<P> {
    /// Pops and executes the next pending event, which the caller has
    /// peeked.
    #[inline]
    fn step(&mut self, hubs: &HubSchedule) {
        let (at, seq, kind) = self.core.events.pop().expect("peeked by the caller");
        debug_assert!(at >= self.core.now);
        self.core.now = at;
        self.core.cur_ev_seq = seq;
        self.core.cur_sub = 0;
        self.core.log_event(at, seq, &kind);
        Engine {
            core: &mut self.core,
            protocols: &mut self.protocols,
            hubs,
        }
        .dispatch(kind);
    }
}

/// The merge heap's entry: an outbox head's `(at, seq)` and the outbox
/// index, which breaks the ties of intents logged before the first epoch
/// (numbered per shard from zero).
type Head = ((SimTime, u64), usize);

/// Coordinator-side state: the cursor of the hub toggles' flight records,
/// and — when admission is deferred — the real media, the merge's
/// reused storage and its counters. Deliberately not generic so the
/// borrow can be split from the shards.
struct Coordinator {
    /// The segments under deferred admission; empty when the only shard
    /// owns them.
    media: Vec<SharedMedium>,
    /// The merge's min-heap of outbox heads, empty between merges and
    /// kept for its storage.
    heap: BinaryHeap<Reverse<Head>>,
    /// Per outbox, how many intents the running merge has taken from
    /// its front.
    taken: Vec<usize>,
    /// Per outbox, the two largest numbers of intents a merge found in
    /// it. A drained outbox keeps storage for the second: a load seen
    /// once, like the N = 1024 burst, is given back right after its
    /// merge, and a load that recurs keeps its storage.
    loads: Vec<[usize; 2]>,
    /// Per shard, its stall count at the last sampled kernel-track mark
    /// of this `run_until` call ([`close_epoch`]).
    marked_stalls: Vec<u64>,
    /// How many of the hub schedule's toggles have their flight record
    /// ([`record_hub_toggles`]).
    hubs_recorded: usize,
    intents: u64,
    merges: u64,
    /// Admitted intents whose destination shard differed from the
    /// sender's (broadcasts count every non-sender shard).
    cross_shard: u64,
    /// Epochs whose window popped nothing anywhere: the occupancy hint
    /// undershot, and the window tightened it (module docs).
    zero_pop_epochs: u64,
    /// Epochs that popped at least one event — the denominator of the
    /// kernel-track sampling below.
    busy_epochs: u64,
    /// Coordinator-side flight recorder under deferred admission:
    /// hub-admit losses, hub toggles, and the kernel tracks (epochs,
    /// merges, stalls). Daemon records live in each shard's core, and so
    /// does everything when the only shard admits directly.
    flight: Option<FlightRecorder>,
    /// Sub counter for hub-toggle and coordinator records. Starts at
    /// [`COORD_SUB_BASE`] so their [`EventRef`]s never collide with a
    /// dispatch's records carrying the same `(time, seq)`.
    flight_sub: u32,
}

/// First `sub` value of hub-toggle and coordinator-side flight records;
/// per-dispatch sub counters stay far below it.
const COORD_SUB_BASE: u32 = 1 << 31;

/// Kernel-track sampling stride: one epoch mark (plus stall deltas) per
/// this many busy epochs, and one merge mark per this many non-empty
/// merges. Fine-grained epochs outnumber protocol events by orders of
/// magnitude on long runs; an unsampled track would flood the bounded
/// ring and evict the causal records the recorder exists to keep. The
/// stride counts over sequences the schedule alone decides (busy epochs,
/// non-empty merges), so the sampled timeline is a function of the
/// seed and the shard count.
const KERNEL_TRACK_SAMPLE: u64 = 64;

/// Virtual time [`World::run_until_settled`] advances between two looks
/// at the flow table. Short against what the caller saves (a resolved
/// flow stops the run at most this much later, against a retry budget of
/// seconds), long against a `run_until` call's fixed cost (a few hundred
/// calls cover that budget).
const SETTLE_STRIDE: SimDuration = SimDuration::from_millis(20);

/// Appends `rec` under the next hub-toggle/coordinator sub number, if
/// recording is on.
fn record_coord(flight: &mut Option<FlightRecorder>, sub: &mut u32, rec: TraceRecord) {
    if let Some(flight) = flight {
        flight.record(TraceRecord { sub: *sub, ..rec });
        *sub += 1;
    }
}

/// The one cursor walk over the hub schedule: records the `Fault` or
/// `Repair` of every toggle due at or before `t` that `*recorded` has not
/// passed yet into `flight`, stamped with the toggle's own instant and
/// sequence number 0 (a toggle precedes every event at its instant and
/// consumes no number), and returns the next toggle's instant. The only
/// shard walks into its own ring before each dispatch, so the records
/// land in dispatch order; the merge walks into the coordinator's before
/// each admission, so their sub numbers interleave with its own records
/// in admission order.
fn record_hub_toggles(
    hubs: &HubSchedule,
    recorded: &mut usize,
    t: SimTime,
    flight: &mut Option<FlightRecorder>,
    sub: &mut u32,
) -> SimTime {
    let due = hubs.due(*recorded, t);
    *recorded += due.len();
    for toggle in due {
        let kind = if toggle.up {
            TraceKind::Repair
        } else {
            TraceKind::Fault
        };
        let rec = TraceRecord {
            time_ns: toggle.at.0,
            seq: 0,
            sub: 0,
            kind,
            host: u32::MAX,
            plane: Some(toggle.net.0),
            arg: 0,
            cause: None,
        };
        record_coord(flight, sub, rec);
    }
    hubs.at(*recorded)
}

impl Coordinator {
    /// Appends a coordinator-side flight record, if recording is on.
    /// (One argument per [`TraceRecord`] field.)
    #[allow(clippy::too_many_arguments)]
    fn flight_record(
        &mut self,
        at: SimTime,
        seq: u64,
        kind: TraceKind,
        host: u32,
        plane: Option<u8>,
        arg: u64,
        cause: Option<EventRef>,
    ) {
        let rec = TraceRecord {
            time_ns: at.0,
            seq,
            sub: 0,
            kind,
            host,
            plane,
            arg,
            cause,
        };
        record_coord(&mut self.flight, &mut self.flight_sub, rec);
    }
}

/// Deterministic counters of the driver's partition and merge machinery,
/// complementing the merged [`KernelStats`]. With one shard there are no
/// epochs, so only `shards`, `lookahead_ns` and the single
/// `events_per_shard` entry are non-zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of shards.
    pub shards: usize,
    /// Epochs executed.
    pub epochs: u64,
    /// Merge phases that had at least one intent to admit.
    pub merges: u64,
    /// Total transmissions admitted through the deferred fabric.
    pub intents: u64,
    /// Intents whose destination shard differed from the sender's
    /// shard (a broadcast counts every non-sender shard once).
    pub cross_shard_frames: u64,
    /// Epochs in which no shard popped an event — the occupancy hint
    /// undershot; the empty window's bounded peek tightened the next one.
    /// Counted whether the shards holding nothing inside the window were
    /// visited or skipped on their hints.
    pub zero_pop_epochs: u64,
    /// The conservative lookahead window, nanoseconds.
    pub lookahead_ns: u64,
    /// Events dispatched per shard (load-balance view).
    pub events_per_shard: Vec<u64>,
    /// Per shard, epochs in which it had no event inside the window. A
    /// shard whose hint lies at or past the window's bound is not visited
    /// and its stall is counted without a peek; the visit it replaces
    /// would have popped nothing and changed nothing.
    pub stalls_per_shard: Vec<u64>,
    /// Always 0: no epoch waits at a barrier, every shard runs on the
    /// calling thread. It stays only because `benchmark/` reads it;
    /// ROADMAP items 5 and then 1 delete it along with `ShardedWorld`.
    pub barrier_wait_ns: u64,
}

/// The simulated cluster: the event engine plus one protocol instance
/// per host, partitioned into one or more shards.
pub struct World<P: Protocol> {
    spec: ClusterSpec,
    shards: Vec<Shard<P>>,
    /// Host → shard index.
    owner: Vec<u32>,
    coord: Coordinator,
    /// Every hub toggle scheduled so far, the one copy: the shards, the
    /// merge, the fluid engine and [`Self::component_is_up`] read it by
    /// reference.
    hubs: HubSchedule,
    now: SimTime,
    /// Epochs executed so far; epoch ids start at 1 so the pre-run
    /// sequence space (`seq_base == 0`) is never reused.
    epoch: u64,
    /// Conservative lookahead `serialization(1 byte) + propagation`, ns.
    lookahead: u64,
    next_flow: u64,
    /// The fluid session accounting engine, when
    /// [`Self::enable_workload`] was called. Consumes the shards' merged
    /// transition logs at the end of every `run_until`.
    workload_engine: Option<Box<FluidEngine>>,
}

/// A [`World`] built with an explicit shard count; everything else is
/// [`World`]'s, through `Deref`.
pub struct ShardedWorld<P: Protocol>(World<P>);

impl<P: Protocol> ShardedWorld<P> {
    /// Builds with an explicit shard count.
    ///
    /// `threads` is unused: every shard runs on the calling thread. It
    /// stays only because `benchmark/` passes it; ROADMAP items 5 and
    /// then 1 delete it along with `ShardedWorld`. Callers pass 1.
    ///
    /// # Panics
    /// Panics if `shards` or `threads` is zero.
    pub fn with_topology(
        spec: ClusterSpec,
        shards: usize,
        threads: usize,
        factory: impl FnMut(NodeId) -> P,
    ) -> Self {
        assert!(threads >= 1, "at least one thread");
        ShardedWorld(World::build(spec, shards, None, factory))
    }

    /// [`World::from_topology`] with an explicit shard count. The
    /// lookahead is the *minimum* over segments (the fastest link bounds
    /// the earliest cross-shard interaction).
    pub fn from_topology(
        tspec: &TopologySpec,
        shards: usize,
        factory: impl FnMut(NodeId) -> P,
    ) -> Self {
        let spec = tspec.cluster_spec();
        ShardedWorld(World::build(spec, shards, Some(tspec), factory))
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
    /// Builds a one-shard cluster and starts every daemon (each gets
    /// `on_start` at time zero, in host order).
    pub fn new(spec: ClusterSpec, factory: impl FnMut(NodeId) -> P) -> Self {
        Self::build(spec, 1, None, factory)
    }

    /// Builds a one-shard cluster over an explicit topology graph: one
    /// simulated node per graph node (hosts *and* switches run the
    /// protocol), one two-endpoint shared segment per link. NICs are
    /// masked down to link membership and route tables start empty —
    /// both applied before any `on_start`, so daemons observe the fabric
    /// from the first instant. See [`crate::topology`] for the mapping.
    pub fn from_topology(tspec: &TopologySpec, factory: impl FnMut(NodeId) -> P) -> Self {
        Self::build(tspec.cluster_spec(), 1, Some(tspec), factory)
    }

    fn build(
        spec: ClusterSpec,
        shards: usize,
        tspec: Option<&TopologySpec>,
        mut factory: impl FnMut(NodeId) -> P,
    ) -> Self {
        assert!(shards >= 1, "at least one shard");
        let shards = shards.min(spec.n).min(256);

        let mut media: Vec<SharedMedium> = match tspec {
            Some(t) => t.media(),
            None => NetId::planes(spec.planes)
                .map(|net| SharedMedium::new(net, spec.bandwidth_bps, spec.propagation))
                .collect(),
        };
        assert_eq!(media.len(), spec.planes as usize, "one medium per segment");
        // The minimum cross-host latency over all segments: 1-byte
        // serialization plus propagation. Queueing and real frame sizes
        // only add to it; the fastest segment bounds the window.
        let lookahead = media
            .iter()
            .map(|m| (m.serialization(1) + spec.propagation).as_nanos())
            .min()
            .expect("at least one segment")
            .max(1);

        let mut owner = vec![0u32; spec.n];
        let mut blocks = Vec::with_capacity(shards);
        let (block, extra) = (spec.n / shards, spec.n % shards);
        let mut base = 0u32;
        for id in 0..shards {
            let len = block + usize::from(id < extra);
            owner[base as usize..base as usize + len].fill(id as u32);
            // The only shard owns the media and admits directly; several
            // defer to the coordinator, which keeps them.
            let (own_media, fabric) = if shards == 1 {
                (std::mem::take(&mut media), Fabric::Direct)
            } else {
                let outbox = Vec::new();
                (Vec::new(), Fabric::Deferred { outbox })
            };
            let mut core = Core::new(spec, base, len, own_media, fabric);
            if let Some(t) = tspec {
                t.apply_membership(&mut core.hosts);
            }
            let protocols = (base..base + len as u32)
                .map(|i| factory(NodeId(i)))
                .collect();
            blocks.push(Shard {
                id,
                core,
                protocols,
                busy: 0,
                hint: 0,
            });
            base += len as u32;
        }

        let mut world = World {
            spec,
            shards: blocks,
            owner,
            coord: Coordinator {
                media,
                heap: BinaryHeap::with_capacity(shards),
                taken: vec![0; shards],
                loads: vec![[0; 2]; shards],
                marked_stalls: Vec::with_capacity(shards),
                hubs_recorded: 0,
                intents: 0,
                merges: 0,
                cross_shard: 0,
                zero_pop_epochs: 0,
                busy_epochs: 0,
                flight: None,
                flight_sub: COORD_SUB_BASE,
            },
            hubs: HubSchedule::new(),
            now: SimTime::ZERO,
            epoch: 0,
            lookahead,
            next_flow: 0,
            workload_engine: None,
        };
        for i in 0..spec.n {
            let node = NodeId(i as u32);
            let shard = &mut world.shards[world.owner[i] as usize];
            let local = shard.core.hosts.local(node);
            let mut ctx = Ctx {
                core: &mut shard.core,
                node,
                hubs: &world.hubs,
            };
            shard.protocols[local].on_start(&mut ctx);
        }
        if world.deferred() {
            // Frames sent from `on_start` are admitted now, as direct
            // admission has already done: construction precedes every
            // fault plan at every shard count.
            merge_and_min(
                &mut world.coord,
                &mut world.shards,
                &world.owner,
                &world.hubs,
            );
        }
        world
    }

    fn shard(&self, node: NodeId) -> &Shard<P> {
        &self.shards[self.owner[node.idx()] as usize]
    }

    pub(super) fn shard_mut(&mut self, i: usize) -> &mut Shard<P> {
        &mut self.shards[i]
    }

    fn owner_of(&self, node: NodeId) -> usize {
        self.owner[node.idx()] as usize
    }

    /// Whether transmissions are deferred to the merge between epochs
    /// (several shards, epoch loop) rather than admitted directly by the
    /// only shard (plain loop) — the one thing the shard count decides.
    fn deferred(&self) -> bool {
        self.shards.len() > 1
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The cluster configuration.
    #[must_use]
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The daemon instance on `node`.
    #[must_use]
    pub fn protocol(&self, node: NodeId) -> &P {
        let shard = self.shard(node);
        &shard.protocols[shard.core.hosts.local(node)]
    }

    /// Mutable access to the daemon on `node` (for test instrumentation).
    pub fn protocol_mut(&mut self, node: NodeId) -> &mut P {
        let s = self.owner_of(node);
        let shard = self.shard_mut(s);
        let local = shard.core.hosts.local(node);
        &mut shard.protocols[local]
    }

    /// Read access to a host's simulated state.
    #[must_use]
    pub fn host(&self, node: NodeId) -> HostView<'_> {
        self.shard(node).core.hosts.view(node)
    }

    /// Read access to a network segment. Medium state (busy horizon,
    /// cumulative stats) is current through the last admission — i.e.
    /// exact whenever the driver is not mid-`run_until`.
    #[must_use]
    pub fn medium(&self, net: NetId) -> &SharedMedium {
        if self.deferred() {
            &self.coord.media[net.idx()]
        } else {
            &self.shards[0].core.media[net.idx()]
        }
    }

    /// Cluster-wide application statistics, merged across shards.
    #[must_use]
    pub fn app_stats(&self) -> AppStats {
        let mut merged = AppStats::default();
        for shard in &self.shards {
            merged.merge(&shard.core.app_stats);
        }
        merged
    }

    /// Every host's probe-path observability record merged into one —
    /// the cluster-wide view a finished run hands to the reporting
    /// layer. Histogram merging is exact and order-independent, so this
    /// equals recording every sample into a single [`ProbeObs`].
    #[must_use]
    pub fn merged_probe_obs(&self) -> ProbeObs {
        let mut merged = ProbeObs::default();
        for shard in &self.shards {
            for obs in shard.core.hosts.obs_iter() {
                merged.merge(obs);
            }
        }
        merged
    }

    /// Outcome of a completed flow, if it has completed. Outcomes are
    /// recorded by the shard owning the flow's source host.
    #[must_use]
    pub fn flow_outcome(&self, flow: FlowId) -> Option<FlowOutcome> {
        let idx = flow.0 as usize;
        self.shards
            .iter()
            .find_map(|s| s.core.flow_outcomes.get(idx).copied().flatten())
    }

    /// All completed flow outcomes in ascending [`FlowId`] order — the
    /// order is structural (dense index), never hash-seeded.
    #[must_use]
    pub fn flow_outcomes(&self) -> Vec<(FlowId, FlowOutcome)> {
        (0..self.next_flow)
            .filter_map(|i| Some((FlowId(i), self.flow_outcome(FlowId(i))?)))
            .collect()
    }

    /// Deterministic operation counters of the event kernel (timer-wheel
    /// push/pop/cascade/pool counts, past-time clamps, queue depth),
    /// merged across all shard wheels.
    #[must_use]
    pub fn kernel_stats(&self) -> KernelStats {
        let mut merged = KernelStats {
            now_ns: self.now.0,
            ..KernelStats::default()
        };
        for shard in &self.shards {
            let ks = shard.core.kernel_stats();
            merged.wheel.merge(&ks.wheel);
            merged.clamped_past += ks.clamped_past;
            merged.queue_depth += ks.queue_depth;
        }
        merged
    }

    /// The partition and merge counters.
    #[must_use]
    pub fn shard_stats(&self) -> ShardStats {
        let per_shard =
            |f: &dyn Fn(&Shard<P>) -> u64| -> Vec<u64> { self.shards.iter().map(f).collect() };
        ShardStats {
            shards: self.shards.len(),
            epochs: self.epoch,
            merges: self.coord.merges,
            intents: self.coord.intents,
            cross_shard_frames: self.coord.cross_shard,
            zero_pop_epochs: self.coord.zero_pop_epochs,
            lookahead_ns: self.lookahead,
            events_per_shard: per_shard(&|s| s.core.events.stats().pops),
            stalls_per_shard: per_shard(&|s| self.epoch - s.busy),
            barrier_wait_ns: 0,
        }
    }

    /// Number of flows still outstanding across the cluster.
    #[must_use]
    pub fn flows_in_flight(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.core.hosts.flows_in_flight())
            .sum()
    }

    /// Degrades (or restores) one host's cabling on one network: every
    /// frame it sends or receives there is corrupted with probability
    /// `p`. The table is replicated (receivers compound the *sender's*
    /// loss, and the sender may live in another shard), so the change is
    /// broadcast to every shard.
    pub fn set_link_loss(&mut self, node: NodeId, net: NetId, p: f64) {
        for shard in &mut self.shards {
            shard.core.set_link_loss(node, net, p);
        }
    }

    /// Whether a hardware component is currently operational.
    ///
    /// # Panics
    /// Panics if the component names a plane the scenario does not have.
    #[must_use]
    pub fn component_is_up(&self, c: SimComponent) -> bool {
        match c {
            SimComponent::Hub(net) => {
                assert!(net.idx() < self.spec.planes as usize, "no such plane");
                self.hubs.is_up(net, self.now)
            }
            SimComponent::Nic(node, net) => self.shard(node).core.hosts.nic_is_up(node, net),
        }
    }

    /// Schedules every event of a fault plan.
    ///
    /// NIC faults become ordinary events in the owning shard. Hub faults
    /// join the driver's hub schedule — a toggle at `t` takes effect
    /// before every other event at `t` — and may be added before or
    /// between runs like any other fault.
    ///
    /// # Panics
    /// Panics if an event lies in the past or names a plane outside the
    /// scenario's `planes`.
    pub fn schedule_faults(&mut self, plan: FaultPlan) {
        let planes = self.spec.planes as usize;
        for ev in plan.into_sorted_events() {
            assert!(ev.at >= self.now, "fault scheduled in the past");
            let net = match ev.component {
                SimComponent::Hub(net) | SimComponent::Nic(_, net) => net,
            };
            assert!(
                net.idx() < planes,
                "fault on plane {net} but the cluster has {planes} planes"
            );
            match ev.component {
                SimComponent::Hub(net) => self.hubs.insert(HubToggle {
                    at: ev.at,
                    net,
                    up: ev.up,
                }),
                SimComponent::Nic(node, net) => {
                    let s = self.owner_of(node);
                    let fault = EventKind::NicFault {
                        node,
                        net,
                        up: ev.up,
                    };
                    self.shard_mut(s).core.schedule_at(ev.at, fault);
                }
            }
        }
    }

    /// Schedules one application message; returns its flow id. Flow ids
    /// are globally sequential; the send event lives in the source
    /// host's shard.
    pub fn send_app(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        payload_bytes: u32,
    ) -> FlowId {
        assert!(at >= self.now, "app send scheduled in the past");
        assert_ne!(src, dst, "a host does not message itself");
        let flow = FlowId(self.next_flow);
        self.next_flow += 1;
        let s = self.owner_of(src);
        self.shard_mut(s).core.schedule_at(
            at,
            EventKind::AppSend {
                flow,
                src,
                dst,
                payload_bytes,
            },
        );
        flow
    }

    /// Schedules a whole workload; returns the flow ids in schedule order.
    pub fn schedule_workload(&mut self, w: &Workload) -> Vec<FlowId> {
        w.messages()
            .iter()
            .map(|m| self.send_app(m.at, m.src, m.dst, m.payload_bytes))
            .collect()
    }

    /// Starts recording every dispatched event (for equivalence tests).
    pub fn enable_event_log(&mut self) {
        for shard in &mut self.shards {
            shard.core.event_log = Some(Vec::new());
        }
    }

    /// Starts the causal flight recorder: one bounded ring of `capacity`
    /// records per shard (protocol decision points via
    /// [`Ctx::flight_record`], kernel loss sites) plus, when admission is
    /// deferred, one on the coordinator (hub-admit losses, hub toggles,
    /// and the kernel tracks). Enabling the recorder never changes the
    /// event schedule.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn enable_flight(&mut self, capacity: usize) {
        for shard in &mut self.shards {
            shard.core.flight = Some(FlightRecorder::new(capacity));
        }
        if self.deferred() {
            self.coord.flight = Some(FlightRecorder::new(capacity));
        }
    }

    /// Enables the fluid session workload (see [`crate::workload`]):
    /// per-host arrival streams in every shard (each host draws from its
    /// own seeded stream, so the partition never changes a draw), a
    /// snapshot of the current route tables in one accounting engine
    /// that consumes the merged transition logs, and a timer-wheel
    /// slot-buffer pool pre-sized from the expected transition rate.
    /// Must be called before time advances; composes with
    /// [`Self::schedule_faults`] in either order.
    ///
    /// # Panics
    /// Panics if called after time has advanced, or twice.
    pub fn enable_workload(&mut self, wspec: WorkloadSpec) {
        assert_eq!(self.now, SimTime::ZERO, "enable before time advances");
        assert!(self.workload_engine.is_none(), "workload already enabled");
        let n = self.spec.n;
        let mut routes = Vec::with_capacity(n * n);
        for src in 0..n {
            let table = self.host(NodeId(src as u32)).routes;
            for dst in 0..n {
                routes.push(table.get(NodeId(dst as u32)));
            }
        }
        let engine = Box::new(FluidEngine::new(
            &wspec,
            n,
            self.spec.planes,
            self.spec.ttl,
            self.spec.bandwidth_bps,
            routes,
        ));
        let seed = self.spec.seed;
        for shard in &mut self.shards {
            let core = &mut shard.core;
            let (base, len) = (core.hosts.base(), core.hosts.len());
            let (buffers, capacity) = wspec.pool_hint(len);
            core.events.reserve_spare(buffers, capacity);
            let mut wl = Box::new(WorkloadCore::new(wspec.clone(), n, seed));
            for (host, at) in wl.initial_opens(base, len) {
                core.schedule_at(at, EventKind::SessionOpen { host });
            }
            core.workload = Some(wl);
        }
        self.workload_engine = Some(engine);
    }

    /// Session-level workload statistics, settled to the end of the
    /// last `run_until`. `None` unless [`Self::enable_workload`] ran.
    #[must_use]
    pub fn workload_stats(&self) -> Option<&WorkloadStats> {
        self.workload_engine.as_ref().map(|e| e.stats())
    }

    /// The fluid accounting engine (digest, conservation report).
    #[must_use]
    pub fn workload_engine(&self) -> Option<&FluidEngine> {
        self.workload_engine.as_deref()
    }

    /// Kernel events dispatched on behalf of the fluid workload, summed
    /// across shards — by construction exactly the session open/close
    /// transition count (the `O(transitions)` identity `drs-bench repro`
    /// checks).
    #[must_use]
    pub fn workload_events(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.core.workload.as_ref().map_or(0, |w| w.events))
            .sum()
    }

    /// Feeds the transitions each shard logged since the last drain to
    /// the fluid engine, in the same `(at, seq, shard)` order as
    /// [`Self::event_log`], then settles the ledgers at `until`. Each log
    /// is already in dispatch order, so the engine reads them in place
    /// through a k-way merge ([`drain_runs`]); they are then cleared and
    /// keep their storage for the next run.
    fn drain_workload(&mut self, until: SimTime) {
        let Some(engine) = self.workload_engine.as_mut() else {
            return;
        };
        let logs: Vec<&[TransitionRecord]> = self
            .shards
            .iter()
            .map(|s| s.core.workload.as_ref().map_or(&[][..], |w| &w.log))
            .collect();
        debug_assert!(
            logs.iter().all(|log| log
                .windows(2)
                .all(|w| (w[0].at, w[0].seq) <= (w[1].at, w[1].seq))),
            "a shard logs transitions in dispatch order"
        );
        let mut heap: BinaryHeap<_> = logs
            .iter()
            .enumerate()
            .filter_map(|(i, log)| log.first().map(|r| Reverse(((r.at, r.seq), i))))
            .collect();
        let mut taken = vec![0; logs.len()];
        drain_runs(&mut heap, |i| {
            engine.apply(&logs[i][taken[i]], &self.hubs);
            taken[i] += 1;
            logs[i].get(taken[i]).map(|r| (r.at, r.seq))
        });
        engine.settle(until, &self.hubs);
        for shard in &mut self.shards {
            if let Some(w) = shard.core.workload.as_mut() {
                w.log.clear();
            }
        }
    }

    /// The flight timeline, if [`Self::enable_flight`] was called: the
    /// per-shard logs plus the coordinator's, merged in `(time, seq,
    /// sub)` order with shard index breaking ties (coordinator last) —
    /// with one shard, simply its drained ring.
    #[must_use]
    pub fn flight_log(&self) -> Option<FlightLog> {
        let mut logs = Vec::with_capacity(self.shards.len() + 1);
        for shard in &self.shards {
            logs.push(shard.core.flight.as_ref()?.drain());
        }
        logs.extend(self.coord.flight.as_ref().map(FlightRecorder::drain));
        Some(FlightLog::merge(logs))
    }

    /// The recorded event log merged across shards in `(at, seq, shard)`
    /// order, if [`Self::enable_event_log`] was called. Pre-run events
    /// carry shard-local sequence numbers (which may collide across
    /// shards), so the shard index breaks those ties deterministically.
    #[must_use]
    pub fn event_log(&self) -> Option<Vec<EventRecord>> {
        let mut tagged: Vec<(EventRecord, usize)> = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let log = shard.core.event_log.as_ref()?;
            tagged.extend(log.iter().map(|r| (*r, i)));
        }
        tagged.sort_by_key(|&(r, s)| (r.at, r.seq, s));
        Some(tagged.into_iter().map(|(r, _)| r).collect())
    }

    /// Runs for a span of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let until = self.now + d;
        self.run_until(until);
    }

    /// Runs until every queue is drained or virtual time reaches
    /// `until`; afterwards `now() == until`. The simulated results are
    /// the same for every shard count.
    pub fn run_until(&mut self, until: SimTime) {
        if self.deferred() {
            self.run_epochs(until);
        } else {
            self.run_direct(until);
        }
        for shard in &mut self.shards {
            shard.core.now = shard.core.now.max(until);
        }
        self.now = self.now.max(until);
        self.drain_workload(until);
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
    /// shard-count contract is `run_until`'s own and the event loops pay
    /// nothing for it.
    pub fn run_until_settled(&mut self, deadline: SimTime) -> SimTime {
        while self.now < deadline && self.flows_unresolved() > 0 {
            self.run_until((self.now + SETTLE_STRIDE).min(deadline));
        }
        self.now
    }

    /// Flows issued by [`Self::send_app`] that have no outcome yet,
    /// whether their send event has fired or not.
    fn flows_unresolved(&self) -> u64 {
        let resolved: u64 = self
            .shards
            .iter()
            .map(|s| &s.core.app_stats)
            .map(|s| s.delivered + s.gave_up)
            .sum();
        self.next_flow - resolved
    }

    /// The one-shard loop: pop and dispatch until the horizon, recording
    /// each hub toggle before the first event at or after its instant
    /// (so its flight record lands in dispatch order, at one compare per
    /// event).
    fn run_direct(&mut self, until: SimTime) {
        let shard = &mut self.shards[0];
        let (hubs, coord) = (&self.hubs, &mut self.coord);
        let (recorded, sub) = (&mut coord.hubs_recorded, &mut coord.flight_sub);
        let mut next_toggle = hubs.at(*recorded);
        while let Some((at, _)) = shard.core.events.peek() {
            if at > until {
                break;
            }
            if at >= next_toggle {
                next_toggle = record_hub_toggles(hubs, recorded, at, &mut shard.core.flight, sub);
            }
            shard.step(hubs);
        }
        record_hub_toggles(hubs, recorded, until, &mut shard.core.flight, sub);
    }

    /// The epoch loop: merge the last window's outboxes, open the next
    /// window at the lowest hint, run every shard's slice of it in shard
    /// order, close it; until no shard has an event due by `until`. A
    /// warmed-up run allocates nothing.
    fn run_epochs(&mut self, until: SimTime) {
        let World {
            shards,
            owner,
            coord,
            hubs,
            lookahead,
            epoch,
            ..
        } = self;
        coord.marked_stalls.clear();
        coord
            .marked_stalls
            .extend(shards.iter().map(|s| *epoch - s.busy));
        while let Some(t_start) = merge_and_min(coord, shards, owner, hubs).filter(|&t| t <= until)
        {
            let bound = SimTime(
                t_start
                    .0
                    .saturating_add(*lookahead)
                    .min(until.0.saturating_add(1)),
            );
            *epoch += 1;
            let popped: u64 = shards
                .iter_mut()
                .map(|shard| visit(shard, *epoch, bound, hubs))
                .sum();
            close_epoch(coord, shards, *epoch, t_start, popped == 0);
        }

        // Final outbox state is always empty (the loop merges before
        // deciding to stop), so only the hub toggles' records need
        // settling to the horizon.
        record_hub_toggles(
            hubs,
            &mut coord.hubs_recorded,
            until,
            &mut coord.flight,
            &mut coord.flight_sub,
        );
        // A skip leaves a shard as its visit would, except for the
        // sequence base the visit sets. Events scheduled between runs
        // (faults, sends) are numbered from it, so every shard the last
        // epoch skipped takes that epoch's base, as its visit would have.
        for shard in shards {
            if shard.core.seq_base >> 32 != *epoch {
                shard.core.seq_base = *epoch << 32 | (shard.id as u64) << 24;
                shard.core.seq_local = 0;
            }
        }
    }
}

/// Runs one shard's slice of an epoch, or skips it when its hint lies at
/// or past `bound`: the skipped visit would have popped nothing and left
/// the wheel as it is ([`TimerWheel::skips_below_hint`], checked against
/// the peek in debug builds), so the shard is not touched at all and its
/// stall is the epoch count minus its busy epochs. Returns the events
/// executed.
///
/// [`TimerWheel::skips_below_hint`]: crate::wheel::TimerWheel::skips_below_hint
fn visit<P: Protocol>(shard: &mut Shard<P>, epoch: u64, bound: SimTime, hubs: &HubSchedule) -> u64 {
    if shard.hint < bound.0 {
        return run_shard_epoch(shard, epoch, bound, hubs);
    }
    if cfg!(debug_assertions) {
        let wheel = &mut shard.core.events;
        let (stats, next) = (*wheel.stats(), wheel.next_hint());
        let staged = wheel.peek_before(bound);
        debug_assert!(
            staged.is_none_or(|(at, _)| at >= bound)
                && *wheel.stats() == stats
                && wheel.next_hint() == next,
            "skipping shard {} at bound {bound:?} differs from visiting it",
            shard.id
        );
    }
    0
}

/// Executes one shard's slice of an epoch: every pending event strictly
/// before `bound`, numbered from the epoch's packed sequence base.
///
/// Pops go through the wheel's bounded peek so the cursor never crosses
/// the epoch bound: the arrivals the next merge distributes (all at or
/// after the bound, by the lookahead argument) then land ahead of the
/// cursor in O(1) instead of degenerating into sorted-buffer inserts.
/// Returns the number of events executed.
///
/// # Panics
/// Panics when the packed `epoch << 32 | shard << 24 | local` layout is
/// exhausted — the epoch or shard id does not fit its field on entry, or
/// the shard issued more than 2²⁴ sequence numbers by exit. Past either
/// limit events would reorder silently.
fn run_shard_epoch<P: Protocol>(
    shard: &mut Shard<P>,
    epoch: u64,
    bound: SimTime,
    hubs: &HubSchedule,
) -> u64 {
    assert!(
        shard.id < 1 << 8 && epoch > 0 && epoch < 1 << 32,
        "sequence space exhausted: epoch {epoch} / shard {} outside the packed 32/8-bit fields",
        shard.id
    );
    shard.core.seq_base = epoch << 32 | (shard.id as u64) << 24;
    shard.core.seq_local = 0;
    let mut n = 0u64;
    while let Some((at, _)) = shard.core.events.peek_before(bound) {
        if at >= bound {
            break;
        }
        shard.step(hubs);
        n += 1;
    }
    assert!(
        shard.core.seq_local <= 1 << 24,
        "sequence space exhausted: shard {} issued {} numbers in epoch {epoch}, over the 24-bit field",
        shard.id,
        shard.core.seq_local
    );
    if n > 0 {
        shard.busy += 1;
    }
    n
}

/// Bookkeeping after every shard ran an epoch's window: the zero-pop
/// counter and, when the flight recorder is on, the kernel track's epoch
/// mark plus a stall record for every shard whose stall count grew since
/// the last mark.
fn close_epoch<P: Protocol>(
    coord: &mut Coordinator,
    shards: &[Shard<P>],
    epoch: u64,
    t_start: SimTime,
    zero_pop: bool,
) {
    if zero_pop {
        coord.zero_pop_epochs += 1;
        return;
    }
    coord.busy_epochs += 1;
    if coord.flight.is_none() {
        return;
    }
    // Sampled kernel track: every [`KERNEL_TRACK_SAMPLE`]-th busy epoch
    // gets an epoch mark plus one stall mark per shard whose stall count
    // grew since the previous mark.
    if coord.busy_epochs % KERNEL_TRACK_SAMPLE != 1 {
        return;
    }
    // The epoch mark carries the epoch's packed sequence base, so it
    // sorts right at the head of the epoch's own records.
    coord.flight_record(
        t_start,
        epoch << 32,
        TraceKind::Epoch,
        u32::MAX,
        None,
        epoch,
        None,
    );
    for (i, shard) in shards.iter().enumerate() {
        let stalls = epoch - shard.busy;
        if stalls > coord.marked_stalls[i] {
            coord.flight_record(
                t_start,
                epoch << 32 | (i as u64) << 24,
                TraceKind::Stall,
                i as u32,
                None,
                epoch,
                None,
            );
        }
        coord.marked_stalls[i] = stalls;
    }
}

/// A deferring shard's outbox.
fn outbox<M>(core: &mut Core<M>) -> &mut Vec<Option<Intent<M>>> {
    match &mut core.fabric {
        Fabric::Deferred { outbox } => outbox,
        Fabric::Direct => unreachable!("several shards always defer"),
    }
}

/// The merge between epochs: drains every shard's outbox, admits the
/// intents onto the media in global `(at, seq)` order (each with the hub
/// liveness of its instant), distributes the arrivals into the
/// destination shards' wheels, stores each shard's skip bound in its
/// `hint` and returns a lower bound on the earliest pending event across
/// all shards — the minimum of the wheels' O(1) occupancy hints (never
/// staging, so no cursor moves past the last epoch's bound). Allocates
/// nothing once the outboxes hold their steady loads.
fn merge_and_min<P: Protocol>(
    coord: &mut Coordinator,
    shards: &mut [Shard<P>],
    owner: &[u32],
    hubs: &HubSchedule,
) -> Option<SimTime> {
    // Each outbox is sorted by (at, seq) by construction: `at` is the
    // shard's non-decreasing clock, `seq` its counter. The heap holds the
    // head of every non-empty one.
    let mut heap = std::mem::take(&mut coord.heap);
    let mut total = 0;
    for (i, shard) in shards.iter_mut().enumerate() {
        let queue = outbox(&mut shard.core);
        if let Some(Some(head)) = queue.first() {
            heap.push(Reverse(((head.at, head.seq), i)));
            coord.taken[i] = 0;
            let load = queue.len();
            total += load;
            let [first, second] = &mut coord.loads[i];
            if load > *first {
                (*first, *second) = (load, *first);
            } else if load > *second {
                *second = load;
            }
        }
    }
    if total > 0 {
        coord.merges += 1;
        coord.intents += total as u64;
        // Kernel track: one merge mark per [`KERNEL_TRACK_SAMPLE`]
        // non-empty merges, keyed by the earliest intent the sampled
        // merge admits.
        if coord.merges % KERNEL_TRACK_SAMPLE == 1 {
            if let Some(&Reverse(((at0, seq0), _))) = heap.peek() {
                coord.flight_record(
                    at0,
                    seq0,
                    TraceKind::Merge,
                    u32::MAX,
                    None,
                    total as u64,
                    None,
                );
            }
        }
        drain_runs(&mut heap, |i| {
            let queue = outbox(&mut shards[i].core);
            let k = coord.taken[i];
            coord.taken[i] = k + 1;
            let intent = queue[k].take().expect("head tracked by the heap");
            let next = queue.get(k + 1).map(|next| {
                let next = next.as_ref().expect("behind the head, not yet taken");
                (next.at, next.seq)
            });
            if next.is_none() {
                queue.clear();
                let keep = coord.loads[i][1];
                if queue.capacity() > keep {
                    queue.shrink_to(keep);
                }
            }
            admit(coord, shards, owner, hubs, intent, i);
            next
        });
    }
    coord.heap = heap;
    // The next window's opening instant: a lower bound on the global
    // minimum pending event. The hint stages nothing and moves no cursor
    // — a `peek` here would advance idle shards' cursors past the next
    // bound, and later arrivals would then violate the wheel's cursor
    // invariant.
    shards
        .iter_mut()
        .filter_map(|shard| {
            let wheel = &shard.core.events;
            let hint = wheel.next_hint();
            shard.hint = match hint {
                None => u64::MAX,
                Some(h) if wheel.skips_below_hint() => h.0,
                Some(_) => 0,
            };
            hint
        })
        .min()
}

/// Admits queued items in ascending `(key, queue)` order, one heap
/// operation per run instead of per item. `heap` holds the head key of
/// every non-empty queue; `take(i)` admits queue `i`'s head and returns
/// the key of the one behind it. A queue keeps the floor while its next
/// key sorts below the heap's top, and hands over by swapping its next
/// key in for the top — one sift, no pop and push.
fn drain_runs<K: Ord + Copy>(
    heap: &mut BinaryHeap<Reverse<(K, usize)>>,
    mut take: impl FnMut(usize) -> Option<K>,
) {
    let Some(Reverse((_, mut i))) = heap.pop() else {
        return;
    };
    loop {
        match take(i) {
            Some(next) => {
                if let Some(mut top) = heap.peek_mut() {
                    if top.0 < (next, i) {
                        let Reverse((_, j)) = std::mem::replace(&mut *top, Reverse((next, i)));
                        i = j;
                    }
                }
            }
            None => match heap.pop() {
                Some(Reverse((_, j))) => i = j,
                None => return,
            },
        }
    }
}

/// The per-item heap merge [`drain_runs`] replaced: a pop and a push
/// for every item. The second oracle of the merge-order test.
#[cfg(test)]
fn drain_per_item<K: Ord + Copy>(
    heap: &mut BinaryHeap<Reverse<(K, usize)>>,
    mut take: impl FnMut(usize) -> Option<K>,
) {
    while let Some(Reverse((_, i))) = heap.pop() {
        if let Some(next) = take(i) {
            heap.push(Reverse((next, i)));
        }
    }
}

/// Admits one intent logged by shard `from` onto its segment, with the
/// hub liveness of its transmission instant (recording the toggles due
/// by then first), and pushes the arrival into the destination shards'
/// wheels — or charges the loss to a traced frame's prober when the hub
/// is down.
fn admit<P: Protocol>(
    coord: &mut Coordinator,
    shards: &mut [Shard<P>],
    owner: &[u32],
    hubs: &HubSchedule,
    intent: Intent<P::Msg>,
    from: usize,
) {
    let Intent { at, seq, frame } = intent;
    // Hub toggles due by the transmission instant take effect, and are
    // recorded, first.
    record_hub_toggles(
        hubs,
        &mut coord.hubs_recorded,
        at,
        &mut coord.flight,
        &mut coord.flight_sub,
    );
    let (class, up) = (class_of(&frame), hubs.is_up(frame.net, at));
    let Some(arrive) = coord.media[frame.net.idx()].admit(at, frame.wire_bytes, class, up) else {
        // Dead hub ate it. A traced frame's loss is charged to the
        // prober that launched it, at the admit instant.
        if let Some(&cause) = frame.flight.as_deref() {
            coord.flight_record(
                at,
                seq,
                TraceKind::ProbeLoss,
                cause.host,
                Some(frame.net.0),
                loss_site::HUB_ADMIT,
                Some(cause),
            );
        }
        shards[from].core.recycle_frame(frame);
        return;
    };
    // The arrival lands at ≥ epoch bound ≥ every shard's cursor, so
    // pushing straight into the wheels is safe; the intent's seq keeps
    // the global order. The sender's box moves into the (last) receiving
    // wheel as is.
    match frame.dst {
        Destination::Node(dst) => {
            let dst_shard = owner[dst.idx()] as usize;
            if dst_shard != from {
                coord.cross_shard += 1;
            }
            let core = &mut shards[dst_shard].core;
            core.events.push(arrive, seq, EventKind::Arrive(frame));
        }
        Destination::Broadcast => {
            coord.cross_shard += (shards.len() - 1) as u64;
            let (last, rest) = shards.split_last_mut().expect("several shards");
            for shard in rest {
                let core = &mut shard.core;
                let copy = core.boxed(Frame::clone(&frame));
                core.events.push(arrive, seq, EventKind::Arrive(copy));
            }
            last.core.events.push(arrive, seq, EventKind::Arrive(frame));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::EventTag;

    struct Idle;
    impl Protocol for Idle {
        type Msg = ();
    }

    #[test]
    fn sharded_delivery_matches_plain_world() {
        let spec = ClusterSpec::new(8).seed(11);
        let mut w = World::new(spec, |_| Idle);
        let mut sw = ShardedWorld::with_topology(spec, 3, 1, |_| Idle);
        let f1 = w.send_app(SimTime(0), NodeId(0), NodeId(7), 512);
        let f2 = sw.send_app(SimTime(0), NodeId(0), NodeId(7), 512);
        assert_eq!(f1, f2);
        w.run_for(SimDuration::from_secs(2));
        sw.run_for(SimDuration::from_secs(2));
        assert_eq!(w.app_stats().delivered, 1);
        assert_eq!(w.app_stats(), sw.app_stats());
        assert_eq!(w.flow_outcome(f1), sw.flow_outcome(f2));
        assert_eq!(w.flow_outcomes(), sw.flow_outcomes());
        assert_eq!(w.now(), sw.now());
        // Identical medium accounting, admitted in the same global order.
        assert_eq!(w.medium(NetId::A).stats, sw.medium(NetId::A).stats);
        // One shard runs the plain loop: no epochs, no merges.
        let (one, three) = (w.shard_stats(), sw.shard_stats());
        assert_eq!((one.shards, one.epochs, one.intents), (1, 0, 0));
        assert!(three.epochs > 0 && three.intents > 0);
        assert_eq!(
            one.events_per_shard.iter().sum::<u64>(),
            three.events_per_shard.iter().sum::<u64>()
        );
    }

    #[test]
    fn hub_failure_via_timeline_eats_frames() {
        let spec = ClusterSpec::new(4).seed(5);
        let mut sw = ShardedWorld::with_topology(spec, 2, 1, |_| Idle);
        sw.schedule_faults(FaultPlan::new().fail_at(SimTime(0), SimComponent::Hub(NetId::A)));
        assert!(!sw.component_is_up(SimComponent::Hub(NetId::A)));
        let flow = sw.send_app(SimTime(1000), NodeId(0), NodeId(3), 100);
        sw.run_for(SimDuration::from_secs(200));
        assert_eq!(sw.flow_outcome(flow), Some(FlowOutcome::GaveUp));
        assert!(!sw.component_is_up(SimComponent::Hub(NetId::A)));
        assert!(sw.component_is_up(SimComponent::Hub(NetId::B)));
        assert!(sw.medium(NetId::A).stats.dropped_hub_down > 0);
    }

    #[test]
    fn settled_means_every_issued_flow_has_its_outcome() {
        let spec = ClusterSpec::new(4).seed(5);
        for shards in [1, 2] {
            let mut w = ShardedWorld::with_topology(spec, shards, 1, |_| Idle);
            // Nothing issued: nothing to wait for, time does not move.
            assert_eq!(w.run_until_settled(SimTime(1_000_000_000)), SimTime::ZERO);
            // A send still in the future is waited for, though no flow is
            // in flight yet; the stop is the first stride boundary past
            // its delivery.
            let sent_at = SimTime(3 * SETTLE_STRIDE.0 + 1000);
            let flow = w.send_app(sent_at, NodeId(0), NodeId(3), 100);
            assert_eq!(w.flows_in_flight(), 0);
            let stopped_at = w.run_until_settled(SimTime(1_000_000_000));
            assert_eq!(stopped_at, SimTime(4 * SETTLE_STRIDE.0), "{shards} shards");
            assert_eq!(stopped_at, w.now());
            assert!(matches!(
                w.flow_outcome(flow),
                Some(FlowOutcome::Delivered(_))
            ));
            // A flow that cannot resolve by the deadline stops the run
            // there, off the stride grid, with the flow still open.
            let now = w.now();
            w.schedule_faults(FaultPlan::new().fail_at(now, SimComponent::Hub(NetId::A)));
            let stuck = w.send_app(now, NodeId(0), NodeId(3), 100);
            let deadline = now + SimDuration(SETTLE_STRIDE.0 * 5 / 2);
            assert_eq!(w.run_until_settled(deadline), deadline, "{shards} shards");
            assert_eq!(w.flow_outcome(stuck), None);
            assert_eq!(w.flows_in_flight(), 1);
        }
    }

    #[test]
    fn nic_fault_mid_run_is_fine() {
        let spec = ClusterSpec::new(6).seed(9);
        let mut sw = ShardedWorld::with_topology(spec, 3, 1, |_| Idle);
        sw.run_for(SimDuration::from_millis(10));
        let at = sw.now() + SimDuration::from_millis(1);
        sw.schedule_faults(FaultPlan::new().fail_at(at, SimComponent::Nic(NodeId(2), NetId::A)));
        sw.run_for(SimDuration::from_millis(10));
        assert!(!sw.component_is_up(SimComponent::Nic(NodeId(2), NetId::A)));
        assert!(sw.component_is_up(SimComponent::Nic(NodeId(1), NetId::A)));
    }

    /// Broadcasts from `on_start` are admitted at construction at every
    /// shard count, so a hub failure scheduled for time zero afterwards
    /// catches them in flight, not at admission.
    #[test]
    fn on_start_frames_are_admitted_at_construction() {
        struct Hello;
        impl Protocol for Hello {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                ctx.broadcast_control(NetId::A, 1);
            }
        }
        let run = |shards: usize| {
            let spec = ClusterSpec::new(6).seed(2);
            let mut w = ShardedWorld::with_topology(spec, shards, 1, |_| Hello);
            w.schedule_faults(FaultPlan::new().fail_at(SimTime(0), SimComponent::Hub(NetId::A)));
            w.run_for(SimDuration::from_millis(5));
            let received: u64 = (0..6)
                .map(|i| w.host(NodeId(i)).counters.control_received)
                .sum();
            (w.medium(NetId::A).stats, received)
        };
        let one = run(1);
        assert_eq!((one.0.frames, one.0.dropped_hub_down, one.1), (6, 0, 0));
        assert_eq!(one, run(3));
    }

    /// The merge hands a broadcast's box to the last shard and clones the
    /// frame for the others. Every host broadcasts twice on both planes:
    /// at 1, 3 and 7 shards each shard dispatches one arrival per
    /// broadcast, every other host hears each broadcast exactly once and
    /// the sender never does.
    #[test]
    fn a_broadcast_reaches_every_other_host_once_at_any_shard_count() {
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
        for shards in [1usize, 3, 7] {
            let spec = ClusterSpec::new(n as usize).seed(5);
            let mut w =
                ShardedWorld::with_topology(spec, shards, 1, |_| Shout { heard: Vec::new() });
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
                assert_eq!(heard, want, "shards={shards} host {host}");
            }
            let log = w.event_log().expect("logging on");
            let arrivals = log.iter().filter(|e| e.tag == EventTag::Arrive);
            // 7 senders × 2 planes × 2 rounds, one copy per shard.
            assert_eq!(arrivals.count(), 28 * shards, "shards={shards}");
        }
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

    /// PR 12's indexed `lookup` needs the ring it searches in `(time,
    /// seq, sub)` order. Hub `Fault`/`Repair` records are stamped with
    /// the toggle instant, so one shard must append them before any
    /// later-keyed record — including toggles sitting exactly on the
    /// probers' timer instants and toggles in windows where nothing
    /// transmits. (The coordinator's ring is exempt: daemons pin and look
    /// up through their own shard's ring only, and its sampled
    /// kernel-track marks are keyed for the merged log, not append order.)
    #[test]
    fn hub_toggles_keep_every_shard_flight_ring_ordered() {
        for shards in [1usize, 4] {
            let spec = ClusterSpec::new(8).seed(17);
            let mut w = ShardedWorld::with_topology(spec, shards, 1, |_| Prober {
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
                    .repair_at(SimTime(46_500_000), SimComponent::Hub(NetId::B)),
            );
            w.run_for(SimDuration::from_millis(35));
            w.run_for(SimDuration::from_millis(65));
            let log = w.flight_log().expect("recorder on");
            let toggles = |k| log.records.iter().filter(|r| r.kind == k).count();
            assert_eq!(toggles(TraceKind::Fault), 2, "shards={shards}");
            assert_eq!(toggles(TraceKind::Repair), 2, "shards={shards}");
            assert!(toggles(TraceKind::ProbeLoss) > 0, "shards={shards}");
            for i in 0..w.shard_count() {
                let ring = w.shards[i].core.flight.as_ref().expect("recorder on");
                assert!(ring.is_ordered(), "shards={shards}: shard {i} ring");
            }
            assert_eq!(w.coord.flight.is_some(), shards > 1);
        }
    }

    /// The million-user cell scaled down (8 hosts × 2 000 closed-loop
    /// users holding Exp(60 s), 4 shards, a hub outage): the far buckets
    /// hold thousands of close timers, so many idle gaps open on a hint
    /// that undershoots, and each empty window has to tighten it. A hint
    /// that stopped tightening shows up here as epochs, without a clock
    /// (PR 24: 3 257 empty windows of 18 938; reopening at an exact
    /// minimum after each empty one, its parent ran 3 198 of 18 808).
    #[test]
    fn hint_windows_stay_few_on_a_wheel_full_of_far_timers() {
        use crate::workload::{ArrivalProcess, ClassSpec, HoldingDist};
        use drs_core::{DrsConfig, DrsDaemon};

        let (n, end) = (8, SimTime(2_000_000_000));
        let mut w = ShardedWorld::with_topology(ClusterSpec::new(n).seed(42), 4, 1, |id| {
            DrsDaemon::new(id, n, DrsConfig::default())
        });
        w.schedule_faults(
            FaultPlan::new()
                .fail_at(SimTime(1_000_000_000), SimComponent::Hub(NetId::A))
                .repair_at(SimTime(1_500_000_000), SimComponent::Hub(NetId::A)),
        );
        w.enable_workload(WorkloadSpec {
            arrivals: ArrivalProcess::Closed {
                per_host: 2_000,
                think_mean_ns: 250_000_000,
            },
            holding: HoldingDist::Exponential {
                mean_ns: 60_000_000_000,
            },
            classes: vec![ClassSpec { rate_bps: 64_000 }],
            horizon: end,
        });
        w.run_until(end);
        let ss = w.shard_stats();
        assert!(ss.zero_pop_epochs > 0, "no hint undershot: {ss:?}");
        assert!(ss.zero_pop_epochs <= ss.epochs / 5, "{ss:?}");
        assert!(ss.epochs <= 19_200, "{ss:?}");
    }

    /// A skipped shard takes the sequence base its visit would have set.
    /// Events scheduled between runs are numbered from it, so every shard
    /// ends a run on the last epoch's base, visited in that epoch or not.
    #[test]
    fn every_shard_ends_a_run_on_the_last_epochs_sequence_base() {
        let spec = ClusterSpec::new(6).seed(4);
        let mut w = ShardedWorld::with_topology(spec, 3, 1, |_| Idle);
        // Hosts 0 and 5 (shards 0 and 2) talk; shard 1 has no event.
        w.send_app(SimTime(1000), NodeId(0), NodeId(5), 256);
        w.run_for(SimDuration::from_millis(50));
        let epoch = w.epoch;
        assert!(epoch > 0 && w.shard_stats().stalls_per_shard[1] == epoch);
        for i in 0..3 {
            let core = &w.shards[i].core;
            assert_eq!(core.seq_base, epoch << 32 | (i as u64) << 24, "shard {i}");
        }
        assert_eq!(w.shards[1].core.seq_local, 0);
    }

    /// Outboxes drawn the way the burst and the steady state fill them —
    /// 1 to 64 of them, some empty, long runs from one shard, singletons
    /// interleaved, equal instants across shards, and on some draws the
    /// colliding seqs of intents logged before the first epoch — are
    /// admitted by the run-draining merge in exactly the order of a full
    /// sort by `(at, seq)` with the outbox index breaking ties, and of the
    /// per-item heap merge it replaced.
    #[test]
    fn the_run_draining_merge_admits_in_full_sort_order() {
        use drs_obs::rng::Rng;
        type Key = (SimTime, u64);
        fn order(boxes: &[Vec<Key>], runs: bool) -> Vec<(usize, usize)> {
            let mut heap = BinaryHeap::new();
            for (i, b) in boxes.iter().enumerate() {
                if let Some(&head) = b.first() {
                    heap.push(Reverse((head, i)));
                }
            }
            let (mut pos, mut out) = (vec![0; boxes.len()], Vec::new());
            let take = |i: usize| {
                out.push((i, pos[i]));
                pos[i] += 1;
                boxes[i].get(pos[i]).copied()
            };
            if runs {
                drain_runs(&mut heap, take);
            } else {
                drain_per_item(&mut heap, take);
            }
            assert!(heap.is_empty());
            out
        }
        let (mut long_runs, mut colliding) = (0, 0);
        for case in 0..1_000u64 {
            let mut rng = Rng::seed_from_u64(0x4E26_E0DE ^ case);
            let pre_run = case % 5 == 0;
            let boxes: Vec<Vec<Key>> = (0..rng.gen_range(1usize..65))
                .map(|i| {
                    let len = match rng.gen_range(0u32..10) {
                        0..=1 => 0,
                        2 => rng.gen_range(100usize..600),
                        _ => rng.gen_range(1usize..8),
                    };
                    let mut at = rng.gen_range(0u64..40);
                    let mut seq = if pre_run {
                        0
                    } else {
                        7 << 32 | (i as u64) << 24
                    };
                    (0..len)
                        .map(|_| {
                            at += rng.gen_range(0u64..3);
                            seq += 1;
                            (SimTime(at), seq)
                        })
                        .collect()
                })
                .collect();
            let mut sorted: Vec<(Key, usize, usize)> = boxes
                .iter()
                .enumerate()
                .flat_map(|(i, b)| b.iter().enumerate().map(move |(p, &k)| (k, i, p)))
                .collect();
            sorted.sort_unstable();
            let want: Vec<(usize, usize)> = sorted.iter().map(|&(_, i, p)| (i, p)).collect();
            assert_eq!(order(&boxes, true), want, "case {case}: run-draining merge");
            assert_eq!(order(&boxes, false), want, "case {case}: per-item merge");
            long_runs += usize::from(boxes.iter().any(|b| b.len() >= 100));
            colliding += usize::from(sorted.windows(2).any(|w| w[0].0 == w[1].0));
        }
        assert!(
            long_runs > 500 && colliding > 150,
            "{long_runs} {colliding}"
        );
    }

    #[test]
    #[should_panic(expected = "sequence space exhausted: epoch 4294967296")]
    fn epoch_id_past_its_field_is_a_hard_error() {
        let mut w = ShardedWorld::with_topology(ClusterSpec::new(4).seed(1), 2, 1, |_| Idle);
        run_shard_epoch(w.shard_mut(0), 1 << 32, SimTime(1), &HubSchedule::new());
    }

    #[test]
    #[should_panic(expected = "sequence space exhausted: shard 1 issued 16777217 numbers")]
    fn a_shard_epoch_past_its_local_field_is_a_hard_error() {
        /// Burns the epoch's whole 24-bit budget, then issues one more.
        struct Burner;
        impl Protocol for Burner {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _token: u64) {
                ctx.core.seq_local = 1 << 24;
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
        let mut w = ShardedWorld::with_topology(ClusterSpec::new(4).seed(1), 2, 1, |_| Burner);
        run_shard_epoch(w.shard_mut(1), 1, SimTime(2_000_000), &HubSchedule::new());
    }
}
