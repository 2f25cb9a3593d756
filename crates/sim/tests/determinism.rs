//! The driver's determinism contract, exercised in bulk: over a corpus
//! of 1000 seeded random schedules — mixed cluster sizes, plane counts,
//! app traffic, hub failures and repairs, NIC fault plans, lossy links
//! and fluid workloads — the schedule is **byte-identical** on every
//! rerun of a draw; `run_until_settled` stops on a stride of `run_until`
//! and leaves what a straight run leaves; and `ShardedWorld`, the name
//! `benchmark/` builds the world by, is `World::new` at any shard count.
//! Three last tests put hub toggles exactly on transmission instants,
//! before and between runs, schedule hub faults between runs with the
//! fluid workload on, and enable the workload after a run to time zero
//! has already applied a hub fault.
//!
//! These are plain seeded loops, so a failing seed prints directly and
//! reruns exactly.

use drs_obs::rng::Rng;

use drs_sim::fault::FaultPlan;
use drs_sim::kernel_obs::shard_balance;
use drs_sim::medium::MediumStats;
use drs_sim::scenario::ClusterSpec;
use drs_sim::stats::AppStats;
use drs_sim::world::{
    Ctx, EventRecord, EventRef, FlightLog, KernelStats, Protocol, ShardStats, TraceKind, World,
};
use drs_sim::{
    ArrivalProcess, ClassSpec, HoldingDist, NetId, NodeId, ShardedWorld, SimComponent, SimDuration,
    SimTime, WorkloadSpec, WorkloadStats,
};

/// A chatty protocol: every host runs a periodic timer and, on each
/// firing, probes a rotating peer on a rotating plane, mixing in control
/// messages — steady traffic on every plane without pulling in the real
/// daemon (sim cannot depend on drs-core).
struct Chatter {
    n: u32,
    planes: u8,
    period: SimDuration,
    fired: u32,
    replies: u32,
    controls: u32,
    /// Tail of this host's traced-probe chain: each send names the
    /// previous one (or the last good reply) as its cause, exactly like
    /// the real daemon's probe chains — so the corpus also pins the
    /// flight recorder's cause refs.
    chain: Option<EventRef>,
}

impl Chatter {
    fn new(n: u32, planes: u8, period: SimDuration) -> Self {
        Chatter {
            n,
            planes,
            period,
            fired: 0,
            replies: 0,
            controls: 0,
            chain: None,
        }
    }
}

impl Protocol for Chatter {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        ctx.set_timer(self.period, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, token: u64) {
        let me = ctx.self_id().0;
        let peer = NodeId((me + 1 + self.fired % (self.n - 1)) % self.n);
        let net = NetId((self.fired % u32::from(self.planes)) as u8);
        let arg = u64::from(peer.0) << 32 | u64::from(self.fired);
        let sref = ctx.flight_record(TraceKind::ProbeSend, Some(net), arg, self.chain);
        if sref.is_some() {
            self.chain = sref;
        }
        ctx.send_echo_traced(net, peer, me, self.fired, sref);
        if self.fired.is_multiple_of(3) {
            ctx.send_control(net, peer, me ^ self.fired);
        }
        self.fired += 1;
        ctx.set_timer(self.period, token + 1);
    }

    fn on_echo_reply(
        &mut self,
        ctx: &mut Ctx<'_, u32>,
        from: NodeId,
        net: NetId,
        _id: u32,
        seq: u32,
    ) {
        self.replies += 1;
        let arg = u64::from(from.0) << 32 | u64::from(seq);
        let rref = ctx.flight_record(TraceKind::ProbeRecv, Some(net), arg, self.chain);
        if rref.is_some() {
            self.chain = rref;
        }
    }

    fn on_control(&mut self, _ctx: &mut Ctx<'_, u32>, _from: NodeId, _net: NetId, _msg: &u32) {
        self.controls += 1;
    }
}

/// One drawn scenario of the corpus.
struct Scenario {
    spec: ClusterSpec,
    period: SimDuration,
    run: SimDuration,
    sends: Vec<(SimTime, NodeId, NodeId, u32)>,
    faults: Vec<(SimTime, SimComponent, bool)>,
    loss: Vec<(NodeId, NetId, f64)>,
    workload: Option<WorkloadSpec>,
}

impl Scenario {
    fn draw(seed: u64, rng: &mut Rng) -> Self {
        let n = rng.gen_range(4usize..21);
        let planes = rng.gen_range(2u8..5);
        let mut spec = ClusterSpec::new(n).seed(seed).planes(planes);
        if seed.is_multiple_of(3) {
            // A third of the corpus gets 1 Gb/s and 100–580 ns instead of
            // `ClusterSpec`'s 100 Mb/s and 5 µs, so frames land inside the
            // wheel grain they were sent in. Derived from the seed, not
            // `rng`: every other draw keeps its schedule.
            spec = spec
                .bandwidth_bps(1_000_000_000)
                .propagation(SimDuration::from_nanos(100 + seed / 3 % 7 * 80));
        }
        // The retired shard-count draw, kept so every seed draws the
        // schedule it always drew.
        rng.gen_range(1usize..9);
        let period = SimDuration::from_micros(rng.gen_range(20_000u64..80_000));
        let run = SimDuration::from_micros(rng.gen_range(200_000u64..500_000));
        let sends = (0..rng.gen_range(0usize..6))
            .map(|_| {
                let src = rng.gen_range(0..n as u32);
                let dst = (src + rng.gen_range(1..n as u32)) % n as u32;
                (
                    SimTime(rng.gen_range(0u64..run.as_nanos() / 2)),
                    NodeId(src),
                    NodeId(dst),
                    rng.gen_range(64u32..2048),
                )
            })
            .collect();
        let mut faults = Vec::new();
        if rng.gen_bool(0.35) {
            // A hub outage, usually repaired before the run ends.
            let plane = NetId(rng.gen_range(0..planes));
            let down = rng.gen_range(0u64..run.as_nanos() / 2);
            faults.push((SimTime(down), SimComponent::Hub(plane), false));
            if rng.gen_bool(0.7) {
                let up = down + rng.gen_range(1..run.as_nanos() / 2 + 1);
                faults.push((SimTime(up), SimComponent::Hub(plane), true));
            }
        }
        if rng.gen_bool(0.35) {
            for _ in 0..rng.gen_range(1usize..4) {
                let nic = SimComponent::Nic(
                    NodeId(rng.gen_range(0..n as u32)),
                    NetId(rng.gen_range(0..planes)),
                );
                let down = rng.gen_range(0u64..run.as_nanos());
                faults.push((SimTime(down), nic, false));
                if rng.gen_bool(0.5) {
                    let up = down + rng.gen_range(1..run.as_nanos() / 4 + 1);
                    faults.push((SimTime(up), nic, true));
                }
            }
        }
        let loss = if rng.gen_bool(0.25) {
            vec![(
                NodeId(rng.gen_range(0..n as u32)),
                NetId(rng.gen_range(0..planes)),
                rng.gen_range(0.05f64..0.9),
            )]
        } else {
            Vec::new()
        };
        // Roughly half the corpus also carries a fluid session workload,
        // rotating arrival modes and holding-time families, so the
        // contract covers the workload engine's transition log too.
        let workload = rng.gen_bool(0.5).then(|| WorkloadSpec {
            arrivals: if rng.gen_bool(0.5) {
                ArrivalProcess::Open {
                    mean_gap_ns: rng.gen_range(10_000_000u64..50_000_000),
                }
            } else {
                ArrivalProcess::Closed {
                    per_host: rng.gen_range(1u32..6),
                    think_mean_ns: rng.gen_range(10_000_000u64..80_000_000),
                }
            },
            holding: match rng.gen_range(0u8..3) {
                0 => HoldingDist::Exponential {
                    mean_ns: rng.gen_range(20_000_000u64..100_000_000),
                },
                1 => HoldingDist::Pareto {
                    xm_ns: 10_000_000,
                    alpha_milli: rng.gen_range(1100u32..2500),
                },
                _ => HoldingDist::LogNormal {
                    median_ns: 20_000_000,
                    sigma_milli: rng.gen_range(500u32..1000),
                },
            },
            classes: (0..rng.gen_range(1usize..3))
                .map(|_| ClassSpec {
                    rate_bps: rng.gen_range(100_000u64..5_000_000),
                })
                .collect(),
            horizon: SimTime(rng.gen_range(1..run.as_nanos() / 2 + 1)),
        });
        Scenario {
            spec,
            period,
            run,
            sends,
            faults,
            loss,
            workload,
        }
    }

    fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for &(at, component, up) in &self.faults {
            plan = if up {
                plan.repair_at(at, component)
            } else {
                plan.fail_at(at, component)
            };
        }
        plan
    }
}

/// Everything a run leaves behind that the contract pins byte-for-byte
/// across reruns: the pop schedule (with seqs), application outcomes,
/// kernel counters, the stub shard counters, per-plane medium totals,
/// and every host's protocol-visible history.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    log: Vec<EventRecord>,
    app: AppStats,
    kernel: KernelStats,
    shard: ShardStats,
    media: Vec<MediumStats>,
    chatter: Vec<(u32, u32, u32)>,
    /// The causal flight timeline — every trace record, every cause ref,
    /// and the eviction counter, all pinned byte-for-byte.
    flight: Option<FlightLog>,
    /// Fluid workload outcome, when the scenario carries one: full
    /// statistics (histograms included), engine digest, and the kernel
    /// event count attributable to sessions.
    workload: Option<(WorkloadStats, u64, u64)>,
}

/// Small enough that chatty draws overflow the ring and the corpus also
/// pins the drop-oldest eviction path, not just the happy append path.
const FLIGHT_CAP: usize = 1 << 6;

impl Scenario {
    fn chatter(&self) -> impl FnMut(NodeId) -> Chatter {
        let (n, planes, period) = (self.spec.n as u32, self.spec.planes, self.period);
        move |_| Chatter::new(n, planes, period)
    }

    /// The scenario on a fresh `World::new`.
    fn world(&self, flight_cap: usize) -> Fingerprint {
        self.run(&mut World::new(self.spec, self.chatter()), flight_cap)
    }

    /// Loads the scenario into a freshly built world, runs it, and
    /// harvests the fingerprint.
    fn run(&self, w: &mut World<Chatter>, flight_cap: usize) -> Fingerprint {
        self.load(w, flight_cap);
        w.run_for(self.run);
        fingerprint(w)
    }

    /// Recorders on, then the scenario's workload, faults, lossy links
    /// and sends, with time still at zero.
    fn load(&self, w: &mut World<Chatter>, flight_cap: usize) {
        w.enable_event_log();
        w.enable_flight(flight_cap);
        if let Some(ws) = &self.workload {
            w.enable_workload(ws.clone());
        }
        w.schedule_faults(self.plan());
        for &(node, net, p) in &self.loss {
            w.set_link_loss(node, net, p);
        }
        for &(at, src, dst, bytes) in &self.sends {
            w.send_app(at, src, dst, bytes);
        }
    }
}

fn fingerprint(w: &World<Chatter>) -> Fingerprint {
    Fingerprint {
        log: w.event_log().expect("log enabled"),
        app: w.app_stats(),
        kernel: w.kernel_stats(),
        shard: w.shard_stats(),
        media: NetId::planes(w.spec().planes)
            .map(|net| w.medium(net).stats)
            .collect(),
        chatter: (0..w.spec().n)
            .map(|i| {
                let c = w.protocol(NodeId(i as u32));
                (c.fired, c.replies, c.controls)
            })
            .collect(),
        flight: w.flight_log().inspect(assert_causes_sort_below),
        workload: w.workload_stats().map(|s| {
            let eng = w.workload_engine().expect("stats imply an engine");
            assert!(
                eng.conservation().holds(),
                "fluid ledger out of balance: {:?}",
                eng.conservation()
            );
            (s.clone(), eng.digest(), w.workload_events())
        }),
    }
}

/// Every cause sorts strictly below the record citing it. The chain walks
/// of `build_post_mortems` and `FlightRecorder::pin_chain` stop at a
/// cause that does not, which is how they survive a cause cycle.
fn assert_causes_sort_below(log: &FlightLog) {
    for r in &log.records {
        if let Some(c) = r.cause {
            assert!(
                (c.time_ns, c.seq, c.sub) < r.sort_key(),
                "{r:?} cites {c:?}, which does not sort below it"
            );
        }
    }
}

#[test]
fn corpus_of_1000_schedules_reruns_byte_identically() {
    // Every seed runs with a ring small enough to evict; every tenth seed
    // runs a second time and must leave the same bytes behind, seqs and
    // evictions included.
    let mut evicting = 0u32;
    let mut faulted_lossy = 0u32;
    for seed in 0..1000u64 {
        let mut rng = Rng::seed_from_u64(0x5EED_C0DE ^ seed);
        let sc = Scenario::draw(seed, &mut rng);
        let oracle = sc.world(FLIGHT_CAP);
        assert!(
            !oracle.log.is_empty(),
            "seed {seed}: a chatty cluster cannot have an empty schedule"
        );
        let flight = oracle.flight.as_ref().expect("flight enabled");
        assert!(
            !flight.records.is_empty(),
            "seed {seed}: traced probes must leave flight records"
        );
        if flight.dropped > 0 {
            evicting += 1;
        }
        if !sc.faults.is_empty() && !sc.loss.is_empty() {
            faulted_lossy += 1;
        }
        if seed % 10 == 0 {
            assert!(
                oracle == sc.world(FLIGHT_CAP),
                "seed {seed}: a rerun diverged (n={}, planes={}, faults={}, lossy={})",
                sc.spec.n,
                sc.spec.planes,
                sc.faults.len(),
                !sc.loss.is_empty(),
            );
        }
    }
    // The flight contract must be pinned on both interesting regimes:
    // rings that overflowed (drop-oldest eviction ran) and schedules
    // that were simultaneously faulted *and* lossy.
    assert!(
        evicting >= 50,
        "corpus under-covered ring eviction: {evicting} schedules"
    );
    assert!(
        faulted_lossy >= 50,
        "corpus under-covered faulted+lossy schedules: {faulted_lossy}"
    );
}

/// `ShardedWorld::with_topology` is `World::new` whatever shard count
/// `benchmark/` passes, and its `ShardStats` describe one shard: on the
/// corpus's first 50 draws at 1, 4 and 64 shards the fingerprint is
/// byte-identical to `World::new`'s, `shards == 1`, no epoch, the one
/// `events_per_shard` entry is the wheel's pop count, and the balance is
/// 1.0, so every ratio `benchmark/` derives from them stays finite.
#[test]
fn the_sharded_world_stub_is_world_new_at_any_shard_count() {
    for seed in 0..50u64 {
        let mut rng = Rng::seed_from_u64(0x5EED_C0DE ^ seed);
        let sc = Scenario::draw(seed, &mut rng);
        let want = sc.world(FLIGHT_CAP);
        for shards in [1usize, 4, 64] {
            let mut w = ShardedWorld::with_topology(sc.spec, shards, 1, sc.chatter());
            let got = sc.run(&mut w, FLIGHT_CAP);
            assert!(got == want, "seed {seed}: {shards} shards diverged");
            let ss = &got.shard;
            assert_eq!((ss.shards, ss.epochs), (1, 0), "seed {seed}");
            assert_eq!(
                ss.events_per_shard.iter().sum::<u64>(),
                got.kernel.wheel.pops,
                "seed {seed}"
            );
            assert_eq!(shard_balance(ss), 1.0, "seed {seed}");
        }
    }
}

/// `run_until_settled` is a loop of `run_until` strides. On the corpus's
/// first 300 draws (sends that deliver in microseconds, sends a fault
/// leaves retrying past the deadline, and no sends at all) it stops at
/// or before the deadline with every flow resolved unless it reached the
/// deadline; running on to the deadline changes no outcome it reported;
/// and the world then leaves exactly what a twin that ran straight to
/// the deadline leaves.
#[test]
fn a_settled_stop_then_the_rest_equals_a_straight_run() {
    const CAP: usize = 1 << 14;
    let (mut early, mut at_deadline) = (0u32, 0u32);
    for seed in 0..300u64 {
        let mut rng = Rng::seed_from_u64(0x5EED_C0DE ^ seed);
        let sc = Scenario::draw(seed, &mut rng);
        let deadline = SimTime::ZERO + sc.run;
        let ctx = format!(
            "seed {seed} (n={}, sends={}, faults={})",
            sc.spec.n,
            sc.sends.len(),
            sc.faults.len()
        );
        let mut w = World::new(sc.spec, sc.chatter());
        sc.load(&mut w, CAP);
        let stopped_at = w.run_until_settled(deadline);
        assert_eq!(stopped_at, w.now(), "{ctx}: not the clock");
        assert!(stopped_at <= deadline, "{ctx}");
        let settled = w.flow_outcomes();
        if stopped_at < deadline {
            assert_eq!(settled.len(), sc.sends.len(), "{ctx}: stopped early");
            assert_eq!(w.flows_in_flight(), 0, "{ctx}");
        }
        w.run_until(deadline);
        let full = w.flow_outcomes();
        assert!(
            settled.iter().all(|o| full.contains(o)),
            "{ctx}: an outcome changed"
        );
        let mut twin = World::new(sc.spec, sc.chatter());
        sc.load(&mut twin, CAP);
        twin.run_until(deadline);
        assert!(
            fingerprint(&w) == fingerprint(&twin),
            "{ctx}: the settled stop changed the run"
        );
        if !sc.sends.is_empty() {
            early += u32::from(stopped_at < deadline);
            at_deadline += u32::from(stopped_at == deadline);
        }
    }
    assert!(
        early >= 50 && at_deadline >= 20,
        "under-covered: {early} early stops, {at_deadline} runs to the deadline"
    );
}

/// Hub toggles exactly on transmission instants. Every chatter timer of
/// an 8-host cluster fires at multiples of 10 ms, alternating planes:
/// hub A fails on its first firing and is repaired on its second, hub B
/// fails on its second firing for good. The plan is scheduled before the
/// run, or half-way to the first toggle — either way a toggle at `t`
/// precedes every event at `t`, so frames sent at a failure instant die
/// at admission and frames sent at the repair instant go through, and
/// both runs leave the same bytes behind.
#[test]
fn hub_toggles_on_timer_instants_take_effect_first() {
    const PERIOD: SimDuration = SimDuration(10_000_000);
    let spec = ClusterSpec::new(8).seed(0xB0B);
    let plan = || {
        FaultPlan::new()
            .fail_at(SimTime(PERIOD.0), SimComponent::Hub(NetId::A))
            .repair_at(SimTime(3 * PERIOD.0), SimComponent::Hub(NetId::A))
            .fail_at(SimTime(4 * PERIOD.0), SimComponent::Hub(NetId::B))
    };
    let run = |mid_run: bool| {
        let mut w = World::new(spec, |_| Chatter::new(8, 2, PERIOD));
        w.enable_event_log();
        w.enable_flight(1 << 12);
        if mid_run {
            w.run_for(SimDuration(PERIOD.0 / 2));
        }
        w.schedule_faults(plan());
        w.run_until(SimTime(6 * PERIOD.0));
        fingerprint(&w)
    };
    let mut per_schedule = Vec::new();
    for mid_run in [false, true] {
        let one = run(mid_run);
        // Plane A: the 8 probes + 8 controls of firing 0 (10 ms) die at
        // admission; the 8 probes of firings 2 and 4 (30 ms, 50 ms) are
        // admitted and answered. Plane B: firing 1 (20 ms) is admitted
        // and answered; the 8 + 8 frames of firing 3 (40 ms) and the 8
        // probes of firing 5 (60 ms) die.
        let (a, b) = (one.media[0], one.media[1]);
        assert_eq!(
            (a.dropped_hub_down, b.dropped_hub_down),
            (16, 24),
            "mid_run={mid_run}"
        );
        assert_eq!((a.frames, b.frames), (32, 16), "mid_run={mid_run}");
        per_schedule.push(one);
    }
    // When the plan was scheduled is invisible too.
    assert!(per_schedule[0] == per_schedule[1]);
}

/// Hub faults scheduled *between* runs, with the fluid workload on from
/// the start: one at exactly `now()`, a same-instant down/up pair on one
/// plane and an up/down pair on another (the last of each wins), and
/// toggles on chatter timer instants, where events are dispatched at the
/// toggle's own instant. Every view of hub state agrees with the plan: `component_is_up` after every segment, the media's hub-down
/// drops and the fluid engine's hub transitions — whose time-order guard
/// (`accrue_to`) a toggle read out of order would trip — and the run
/// leaves the same bytes behind as one that scheduled every fault before
/// it started.
#[test]
fn hub_faults_scheduled_between_runs_take_effect_in_order() {
    const PERIOD: SimDuration = SimDuration(10_000_000);
    let ms = |m: u64| SimTime(m * 1_000_000);
    let hub = |p: u8| SimComponent::Hub(NetId(p));
    let (n, planes) = (14u32, 3u8);
    let spec = ClusterSpec::new(n as usize).seed(0x4B5).planes(planes);
    // (schedule at, plan, run to). Chatter fires every 10 ms, on plane
    // `firing % 3`: A at 10, 40, 70 ms, B at 20, 50, 80 ms, C at 30, 60,
    // 90 ms.
    let segments = || {
        [
            (ms(25), FaultPlan::new().fail_at(ms(25), hub(0)), ms(35)),
            (
                ms(35),
                FaultPlan::new()
                    .fail_at(ms(40), hub(1))
                    .repair_at(ms(40), hub(1))
                    .repair_at(ms(40), hub(2))
                    .fail_at(ms(40), hub(2)),
                ms(45),
            ),
            (
                ms(45),
                FaultPlan::new()
                    .repair_at(ms(50), hub(0))
                    .fail_at(ms(50), hub(1)),
                ms(70),
            ),
            (ms(70), FaultPlan::new().repair_at(ms(70), hub(2)), ms(95)),
        ]
    };
    let run = |between: bool| {
        let mut w = World::new(spec, |_| Chatter::new(n, planes, PERIOD));
        w.enable_event_log();
        w.enable_flight(1 << 14);
        w.enable_workload(WorkloadSpec {
            arrivals: ArrivalProcess::Closed {
                per_host: 4,
                think_mean_ns: 5_000_000,
            },
            holding: HoldingDist::Exponential {
                mean_ns: 20_000_000,
            },
            classes: vec![ClassSpec {
                rate_bps: 1_000_000,
            }],
            horizon: ms(95),
        });
        if !between {
            for (_, plan, _) in segments() {
                w.schedule_faults(plan);
            }
        }
        let mut hubs_up = Vec::new();
        for (at, plan, until) in segments() {
            w.run_until(at);
            if between {
                w.schedule_faults(plan);
            }
            w.run_until(until);
            let up = NetId::planes(planes).map(|net| w.component_is_up(SimComponent::Hub(net)));
            hubs_up.push(up.collect::<Vec<_>>());
        }
        (fingerprint(&w), hubs_up)
    };
    let one = run(true);
    assert_eq!(
        one.1,
        [
            [false, true, true],
            [false, true, false],
            [true, false, false],
            [true, false, true],
        ]
    );
    // A down, B down, B up, C down (its repair found it up), A up, B
    // down, C up.
    let (stats, _, _) = one.0.workload.as_ref().expect("workload on");
    assert_eq!(stats.hub_transitions, 7);
    // A drops its 40 ms firing, B its 50 and 80 ms ones, C its 60 ms one.
    let drops: Vec<u64> = one.0.media.iter().map(|m| m.dropped_hub_down).collect();
    assert!(drops.iter().all(|&d| d > 0), "{drops:?}");
    // Scheduled up front, the 70 ms repair is already in force when the
    // third segment ends at 70 ms; everything the run leaves is the same.
    assert!(
        one.0 == run(false).0,
        "scheduling between runs changed the run"
    );
}

/// A hub fault at time zero that `run_until(SimTime::ZERO)` applies
/// before `enable_workload` is in force for the fluid engine from its
/// first transition: the engine starts from the hubs' state, not from
/// "all up". With the default routes on plane A and no daemon to move
/// them, every arrival while hub A is down is dropped and its repair and
/// second failure stall the pairs holding sessions — the same stall
/// windows and dropped arrivals as when the workload is enabled first.
/// Only `hub_transitions` differs: the engine counts the flips it saw,
/// and this one happened before it existed.
#[test]
fn a_hub_fault_applied_before_the_workload_is_enabled_stays_in_force() {
    const PERIOD: SimDuration = SimDuration(10_000_000);
    let ms = |m: u64| SimTime(m * 1_000_000);
    let hub_a = SimComponent::Hub(NetId::A);
    let spec = ClusterSpec::new(6).seed(0xA5);
    let run = |enable_first: bool| {
        let mut w = World::new(spec, |_| Chatter::new(6, 2, PERIOD));
        let wspec = WorkloadSpec {
            arrivals: ArrivalProcess::Closed {
                per_host: 8,
                think_mean_ns: 4_000_000,
            },
            holding: HoldingDist::Exponential {
                mean_ns: 10_000_000,
            },
            classes: vec![ClassSpec {
                rate_bps: 1_000_000,
            }],
            horizon: ms(60),
        };
        if enable_first {
            w.enable_workload(wspec.clone());
        }
        w.schedule_faults(
            FaultPlan::new()
                .fail_at(SimTime::ZERO, hub_a)
                .repair_at(ms(20), hub_a)
                .fail_at(ms(40), hub_a),
        );
        w.run_until(SimTime::ZERO);
        assert!(!w.component_is_up(hub_a));
        if !enable_first {
            w.enable_workload(wspec);
        }
        w.run_until(ms(80));
        w.workload_stats().expect("workload on").clone()
    };
    let (late, early) = (run(false), run(true));
    assert_eq!((late.dropped_arrivals, late.stall_windows), (152, 20));
    assert_eq!((late.hub_transitions, early.hub_transitions), (2, 3));
    let counted = WorkloadStats {
        hub_transitions: 3,
        ..late
    };
    assert!(counted == early, "{counted:?}\n{early:?}");
}
