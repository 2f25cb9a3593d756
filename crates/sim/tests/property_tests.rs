//! Property tests for the simulator substrate: medium timing
//! invariants, histogram correctness, workload structure, transport
//! arithmetic, whole-world conservation laws under random scenarios, and
//! the application statistics against the transport notifications.
//!
//! Each property is a loop over [`CASES`] seeded parameter draws; every
//! assertion prints the failing case, and `case_rng(index)` reruns it.

use drs_obs::rng::Rng;
use drs_obs::Histogram;

use drs_core::{DrsConfig, DrsDaemon, Route};
use drs_sim::app::Workload;
use drs_sim::fault::{component_count, component_to_index, index_to_component, FaultPlan};
use drs_sim::medium::{SharedMedium, TrafficClass};
use drs_sim::scenario::{ClusterSpec, TransportConfig};
use drs_sim::wheel::{TimerWheel, GRAIN_NS};
use drs_sim::world::{Ctx, FlowOutcome, Protocol, TransportEvent, World};
use drs_sim::{NetId, NodeId, SimDuration, SimTime};

/// Draws per property.
const CASES: u64 = 256;

fn case_rng(case: u64) -> Rng {
    Rng::seed_from_u64(0x51A1_C0DE ^ case)
}

struct Idle;
impl Protocol for Idle {
    type Msg = ();
}

/// Frames on a shared medium never arrive out of admission order, and
/// each arrival respects serialization + propagation lower bounds.
#[test]
fn medium_is_fifo_and_causal() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let sizes: Vec<_> = (0..rng.gen_range(1usize..40))
            .map(|_| rng.gen_range(1u32..2000))
            .collect();
        let gaps: Vec<_> = (0..rng.gen_range(1usize..40))
            .map(|_| rng.gen_range(0u64..200_000))
            .collect();
        let ctx = format!("case {case}: sizes={sizes:?} gaps={gaps:?}");
        let mut m = SharedMedium::new(NetId::A, 100_000_000, SimDuration::from_micros(5));
        let mut now = SimTime::ZERO;
        let mut last_arrival = SimTime::ZERO;
        for (size, gap) in sizes.iter().zip(&gaps) {
            now += SimDuration::from_nanos(*gap);
            let arrive = m.admit(now, *size, TrafficClass::Data, true).unwrap();
            assert!(arrive >= last_arrival, "{ctx}: FIFO violated");
            let min = now + m.serialization(*size) + SimDuration::from_micros(5);
            assert!(arrive >= min, "{ctx}: faster than physics");
            last_arrival = arrive;
        }
    }
}

/// Medium busy time equals the sum of serialization times.
#[test]
fn medium_busy_accounting() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let sizes: Vec<_> = (0..rng.gen_range(0usize..50))
            .map(|_| rng.gen_range(1u32..5000))
            .collect();
        let ctx = format!("case {case}: sizes={sizes:?}");
        let mut m = SharedMedium::new(NetId::B, 10_000_000, SimDuration::ZERO);
        let mut expected = SimDuration::ZERO;
        for s in &sizes {
            expected = expected + m.serialization(*s);
            let _ = m.admit(SimTime::ZERO, *s, TrafficClass::Control, true);
        }
        assert_eq!(m.stats.busy, expected, "{ctx}");
        assert_eq!(m.stats.frames, sizes.len() as u64, "{ctx}");
    }
}

/// The histogram's mean/min/max always agree with a direct fold, and
/// quantile bounds bracket correctly.
#[test]
fn histogram_agrees_with_direct_fold() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let ns: Vec<_> = (0..rng.gen_range(1usize..200))
            .map(|_| rng.gen_range(0u64..10_000_000_000))
            .collect();
        let ctx = format!("case {case}: ns={ns:?}");
        let mut h = Histogram::new();
        for &x in &ns {
            h.record(x);
        }
        assert_eq!(h.count(), ns.len() as u64, "{ctx}");
        assert_eq!(h.min(), ns.iter().min().copied(), "{ctx}");
        assert_eq!(h.max(), ns.iter().max().copied(), "{ctx}");
        let sum = ns.iter().map(|&x| x as u128).sum::<u128>();
        assert_eq!(h.sum(), sum, "{ctx}");
        assert_eq!(h.mean(), Some(sum as f64 / ns.len() as f64), "{ctx}");
        let median_bound = h.quantile_upper_bound(0.5).unwrap();
        let mut sorted = ns.clone();
        sorted.sort_unstable();
        let true_median = sorted[(sorted.len() - 1) / 2];
        assert!(
            median_bound >= true_median,
            "{ctx}: {median_bound} < {true_median}"
        );
    }
}

/// RTO backoff is monotone and max_flow_lifetime really bounds the sum.
#[test]
fn transport_timing_identities() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let initial_ms = rng.gen_range(1u64..5_000);
        let factor = rng.gen_range(1u32..5);
        let retries = rng.gen_range(0u32..10);
        let ctx = format!("case {case}: initial_ms={initial_ms} factor={factor} retries={retries}");
        let cfg = TransportConfig {
            initial_rto: SimDuration::from_millis(initial_ms),
            backoff_factor: factor,
            max_retries: retries,
        };
        let mut sum = SimDuration::ZERO;
        let mut prev = SimDuration::ZERO;
        for attempt in 1..=retries + 1 {
            let rto = cfg.rto_for_attempt(attempt);
            assert!(rto >= prev, "{ctx}");
            prev = rto;
            sum = sum + rto;
        }
        assert_eq!(sum, cfg.max_flow_lifetime(), "{ctx}");
    }
}

/// Random workloads: all messages in window, no self-sends, sorted.
#[test]
fn workload_structure() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = rng.gen_range(2usize..30);
        let count = rng.gen_range(0usize..300);
        let seed = rng.next_u64();
        let ctx = format!("case {case}: n={n} count={count} seed={seed}");
        let span = SimDuration::from_secs(5);
        let mut rng = Rng::seed_from_u64(seed);
        let w = Workload::uniform_random(n, SimTime(1000), span, count, 64, &mut rng);
        assert_eq!(w.len(), count, "{ctx}");
        for m in w.messages() {
            assert!(m.src != m.dst, "{ctx}");
            assert!(m.src.idx() < n && m.dst.idx() < n, "{ctx}");
            assert!(m.at >= SimTime(1000), "{ctx}");
            assert!(m.at < SimTime(1000) + span, "{ctx}");
        }
        assert!(w.messages().windows(2).all(|p| p[0].at <= p[1].at), "{ctx}");
    }
}

/// Fault component indexing is bijective for every cluster size and
/// redundancy degree.
#[test]
fn fault_index_bijection() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = rng.gen_range(1usize..200);
        let planes = rng.gen_range(2u8..6);
        let ctx = format!("case {case}: n={n} planes={planes}");
        for idx in 0..component_count(n, planes) {
            assert_eq!(
                component_to_index(index_to_component(idx, n, planes), n, planes),
                idx,
                "{ctx}",
            );
        }
    }
}

/// Conservation under random healthy-cluster traffic: every message
/// is delivered exactly once, no retransmits, no drops, and both
/// networks carry only what the route tables send there.
#[test]
fn healthy_world_conserves_messages() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = rng.gen_range(2usize..10);
        let count = rng.gen_range(1usize..60);
        let seed = rng.next_u64();
        let ctx = format!("case {case}: n={n} count={count} seed={seed}");
        let spec = ClusterSpec::new(n).seed(seed);
        let mut w = World::new(spec, |_| Idle);
        let mut rng = Rng::seed_from_u64(seed);
        let wl = Workload::uniform_random(
            n,
            SimTime::ZERO,
            SimDuration::from_secs(2),
            count,
            128,
            &mut rng,
        );
        w.schedule_workload(&wl);
        w.run_for(SimDuration::from_secs(10));
        assert_eq!(w.app_stats().sent, count as u64, "{ctx}");
        assert_eq!(w.app_stats().delivered, count as u64, "{ctx}");
        assert_eq!(w.app_stats().retransmits, 0, "{ctx}");
        assert_eq!(w.app_stats().gave_up, 0, "{ctx}");
        assert_eq!(
            w.medium(NetId::B).stats.frames,
            0,
            "{ctx}: default routes are net A"
        );
        assert_eq!(w.flows_in_flight(), 0, "{ctx}");
    }
}

/// Whatever faults strike, flows always terminate: delivered+gave_up
/// accounts for every sent message once the horizon passes.
#[test]
fn flows_always_terminate() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = rng.gen_range(2usize..8);
        let f = rng.gen_range(0usize..6);
        let seed = rng.next_u64();
        let ctx = format!("case {case}: n={n} f={f} seed={seed}");
        let f = f.min(2 * n + 2);
        let transport = TransportConfig {
            initial_rto: SimDuration::from_millis(50),
            backoff_factor: 2,
            max_retries: 4,
        };
        let spec = ClusterSpec::new(n).seed(seed).transport(transport);
        let mut w = World::new(spec, |_| Idle);
        let mut rng = Rng::seed_from_u64(seed);
        let (plan, _) = FaultPlan::random_simultaneous(SimTime(1000), n, 2, f, &mut rng);
        w.schedule_faults(plan);
        for i in 0..n as u32 {
            let dst = NodeId((i + 1) % n as u32);
            w.send_app(SimTime(2000), NodeId(i), dst, 64);
        }
        w.run_for(SimDuration::from_secs(30));
        let s = w.app_stats();
        assert_eq!(s.delivered + s.gave_up, s.sent, "{ctx}");
        assert_eq!(w.flows_in_flight(), 0, "{ctx}");
        assert_eq!(w.flow_outcomes().len(), n, "{ctx}: a flow has no outcome");
    }
}

/// Outcomes are terminal, and stopping at resolution equals running the
/// full horizon: over drawn DRS clusters (size, planes),
/// simultaneous fault sets and `send_app` batches sent before, during
/// and after the repair — so flows are delivered direct, delivered over a
/// repaired route, and abandoned — `run_until_settled(d)` stops with
/// every flow resolved, running on to `d` changes no outcome, and a twin
/// world that only did `run_until(d)` reports the same outcomes.
#[test]
fn settled_stop_reports_the_outcomes_of_the_full_horizon() {
    let transport = TransportConfig {
        initial_rto: SimDuration::from_millis(50),
        backoff_factor: 2,
        max_retries: 4,
    };
    let cfg = DrsConfig::default()
        .probe_timeout(SimDuration::from_millis(25))
        .probe_interval(SimDuration::from_millis(100));
    let fault_at = SimTime(500_000_000);
    let last_send = SimDuration::from_secs(2);
    let deadline = SimTime::ZERO + last_send + transport.max_flow_lifetime();
    let (mut direct, mut rerouted, mut gave_up, mut early) = (0u32, 0u32, 0u32, 0u32);
    for case in 0..64 {
        let mut rng = case_rng(case);
        let n = rng.gen_range(3usize..9);
        let planes = rng.gen_range(2u8..4);
        // The retired shard-count draw, kept so every case draws the
        // cluster it always drew.
        rng.gen_range(1usize..4);
        let f = rng.gen_range(0usize..5);
        let seed = rng.next_u64();
        let (plan, _) = FaultPlan::random_simultaneous(fault_at, n, planes, f, &mut rng);
        let sends: Vec<_> = (0..rng.gen_range(1usize..6))
            .map(|_| {
                let src = rng.gen_range(0..n as u32);
                let dst = (src + rng.gen_range(1..n as u32)) % n as u32;
                let at = SimTime(rng.gen_range(0..last_send.as_nanos() + 1));
                (at, NodeId(src), NodeId(dst))
            })
            .collect();
        let ctx = format!("case {case}: n={n} planes={planes} f={f} seed={seed}");
        let build = || {
            let spec = ClusterSpec::new(n)
                .seed(seed)
                .planes(planes)
                .transport(transport);
            let mut w = World::new(spec, |id| DrsDaemon::new(id, n, cfg));
            w.schedule_faults(plan.clone());
            for &(at, src, dst) in &sends {
                w.send_app(at, src, dst, 128);
            }
            w
        };

        let mut w = build();
        let stopped_at = w.run_until_settled(deadline);
        assert_eq!(stopped_at, w.now(), "{ctx}");
        assert!(stopped_at <= deadline, "{ctx}");
        let settled = w.flow_outcomes();
        assert_eq!(
            settled.len(),
            sends.len(),
            "{ctx}: stopped with a flow open"
        );
        assert_eq!(w.flows_in_flight(), 0, "{ctx}");
        w.run_until(deadline);
        assert_eq!(w.flow_outcomes(), settled, "{ctx}: an outcome changed");

        let mut twin = build();
        twin.run_until(deadline);
        assert_eq!(
            twin.flow_outcomes(),
            settled,
            "{ctx}: early stop changed an outcome"
        );

        early += u32::from(stopped_at < deadline);
        for ((_, outcome), &(_, src, dst)) in settled.iter().zip(&sends) {
            match outcome {
                FlowOutcome::GaveUp => gave_up += 1,
                FlowOutcome::Delivered(_) => {
                    if w.host(src).routes.get(dst) == Some(Route::Direct(NetId::A)) {
                        direct += 1;
                    } else {
                        rerouted += 1;
                    }
                }
            }
        }
    }
    assert!(
        direct >= 20 && rerouted >= 20 && gave_up >= 5 && early >= 20,
        "under-covered: {direct} direct, {rerouted} rerouted, {gave_up} abandoned, {early} early stops"
    );
}

/// Records every transport notification its host receives, and flaps its
/// own routes on a drawn schedule (delete, or reinstall direct on a drawn
/// plane) so sends and retransmissions meet missing routes.
struct Recorder {
    events: Vec<TransportEvent>,
    flaps: Vec<(SimDuration, NodeId, Option<Route>)>,
}

impl Protocol for Recorder {
    type Msg = ();
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        for (token, &(after, ..)) in self.flaps.iter().enumerate() {
            ctx.set_timer(after, token as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, token: u64) {
        match self.flaps[token as usize] {
            (_, dst, Some(route)) => ctx.set_route(dst, route),
            (_, dst, None) => ctx.del_route(dst),
        }
    }
    fn on_transport(&mut self, _ctx: &mut Ctx<'_, ()>, event: TransportEvent) {
        self.events.push(event);
    }
}

/// The aggregate `AppStats` agrees with the notifications: over drawn
/// clusters, fault sets, route flaps, retry budgets and sends, every
/// counter equals the number of `TransportEvent`s of its kind, the
/// latency histogram holds exactly the delivered rtts, each notified
/// outcome is the flow's recorded outcome, and nothing is in flight once
/// the last retry budget has run out.
#[test]
fn app_stats_agree_with_the_transport_events() {
    let (mut rtos, mut delivered, mut gave_up, mut no_route) = (0u64, 0u64, 0u64, 0u64);
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = rng.gen_range(2usize..8);
        let planes = rng.gen_range(2u8..4);
        let f = rng.gen_range(0usize..5).min(n * planes as usize);
        let seed = rng.next_u64();
        let transport = TransportConfig {
            initial_rto: SimDuration::from_millis(rng.gen_range(20u64..200)),
            backoff_factor: rng.gen_range(1u32..4),
            max_retries: rng.gen_range(0u32..5),
        };
        let span = SimDuration::from_secs(2);
        let (plan, _) = FaultPlan::random_simultaneous(
            SimTime(rng.gen_range(0..span.as_nanos())),
            n,
            planes,
            f,
            &mut rng,
        );
        let flaps: Vec<Vec<_>> = (0..n)
            .map(|host| {
                (0..rng.gen_range(0usize..4))
                    .map(|_| {
                        let dst = (host + rng.gen_range(1..n)) % n;
                        let route = (rng.gen_range(0u32..2) == 0)
                            .then(|| Route::Direct(NetId(rng.gen_range(0..planes))));
                        let after = SimDuration(rng.gen_range(0..span.as_nanos()));
                        (after, NodeId(dst as u32), route)
                    })
                    .collect()
            })
            .collect();
        let ctx = format!("case {case}: n={n} planes={planes} f={f} seed={seed} {transport:?}");
        let spec = ClusterSpec::new(n)
            .seed(seed)
            .planes(planes)
            .transport(transport);
        let mut w = World::new(spec, |id| Recorder {
            events: Vec::new(),
            flaps: flaps[id.idx()].clone(),
        });
        w.schedule_faults(plan);
        let mut wl_rng = Rng::seed_from_u64(seed);
        let count = rng.gen_range(1usize..40);
        let wl = Workload::uniform_random(n, SimTime::ZERO, span, count, 64, &mut wl_rng);
        let flows = w.schedule_workload(&wl);
        w.run_for(span + transport.max_flow_lifetime() + SimDuration::from_secs(1));

        let events: Vec<TransportEvent> = (0..n as u32)
            .flat_map(|i| w.protocol(NodeId(i)).events.clone())
            .collect();
        let kind =
            |pick: fn(&TransportEvent) -> bool| events.iter().filter(|e| pick(e)).count() as u64;
        let s = w.app_stats();
        assert_eq!(s.sent, flows.len() as u64, "{ctx}");
        assert_eq!(
            s.retransmits,
            kind(|e| matches!(e, TransportEvent::Rto { .. })),
            "{ctx}"
        );
        assert_eq!(
            s.delivered,
            kind(|e| matches!(e, TransportEvent::Delivered { .. })),
            "{ctx}"
        );
        assert_eq!(s.delivered, s.latency.count(), "{ctx}");
        assert_eq!(
            s.gave_up,
            kind(|e| matches!(e, TransportEvent::GaveUp { .. })),
            "{ctx}"
        );
        assert_eq!(
            s.no_route,
            kind(|e| matches!(e, TransportEvent::NoRoute { .. })),
            "{ctx}"
        );
        let rtts: Vec<u64> = events
            .iter()
            .filter_map(|e| match *e {
                TransportEvent::Delivered { flow, rtt, .. } => {
                    assert_eq!(
                        w.flow_outcome(flow),
                        Some(FlowOutcome::Delivered(rtt)),
                        "{ctx}"
                    );
                    Some(rtt.as_nanos())
                }
                TransportEvent::GaveUp { flow, .. } => {
                    assert_eq!(w.flow_outcome(flow), Some(FlowOutcome::GaveUp), "{ctx}");
                    None
                }
                _ => None,
            })
            .collect();
        assert_eq!(s.latency.max(), rtts.iter().copied().max(), "{ctx}");
        assert_eq!(
            s.latency.sum(),
            rtts.iter().map(|&r| u128::from(r)).sum::<u128>(),
            "{ctx}"
        );
        assert_eq!(w.flows_in_flight(), 0, "{ctx}");
        assert_eq!(w.flow_outcomes().len(), flows.len(), "{ctx}");
        rtos += s.retransmits;
        delivered += s.delivered;
        gave_up += s.gave_up;
        no_route += s.no_route;
    }
    assert!(
        rtos >= 1000 && delivered >= 1000 && gave_up >= 500 && no_route >= 500,
        "under-covered: {rtos} rtos, {delivered} delivered, {gave_up} abandoned, {no_route} no-route"
    );
}

// ---------------------------------------------------------------------------
// Timer-wheel kernel: pop order must be indistinguishable from the
// reference binary heap ordered on `(at, seq)` (`support/naive_heap.rs`);
// the direct comparisons are in `wheel_vs_heap` below.
// ---------------------------------------------------------------------------

/// One random schedule mixing every regime the wheel handles differently:
/// exact same-tick bursts, same-grain neighbours, low-level slots,
/// cross-level deltas, and past-horizon timestamps that land in overflow.
fn random_schedule(seed: u64, len: usize) -> Vec<SimTime> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut out: Vec<SimTime> = Vec::with_capacity(len);
    for _ in 0..len {
        let at = match rng.gen_range(0u32..10) {
            // Same-tick burst: duplicate an earlier timestamp exactly, so
            // ordering must fall back to the sequence number.
            0..=2 if !out.is_empty() => out[rng.gen_range(0usize..out.len())],
            // Inside the first grain.
            3 => SimTime(rng.gen_range(0u64..GRAIN_NS)),
            // Low wheel levels.
            4..=6 => SimTime(rng.gen_range(0u64..100_000_000)),
            // High wheel levels (hours of virtual time).
            7..=8 => SimTime(rng.gen_range(0u64..10_000_000_000_000)),
            // Beyond the wheel horizon: exercises the overflow heap.
            _ => SimTime(rng.gen_range(0u64..(1u64 << 52))),
        };
        out.push(at);
    }
    out
}

#[path = "support/naive_heap.rs"]
mod naive_heap;

mod wheel_vs_heap {
    use super::naive_heap::NaiveHeap;
    use super::*;
    use drs_sim::wheel::{WheelStats, CHUNK};

    /// The wheel's level count (`wheel.rs` `LEVELS`).
    const LEVELS: u64 = 6;
    /// Slots per level (`wheel.rs` `SLOTS`): a level-`k` slot spans
    /// `SLOTS^k` grains, and deltas of `SLOTS^LEVELS` grains overflow.
    const SLOTS: u64 = 64;

    /// ROADMAP 12's cascade pin, `cascades ≤ (LEVELS − 1) · pushes`: a
    /// cascaded slot holds at least one entry and places every entry
    /// strictly below its own level, so an entry placed at level `l`
    /// (overflow migrations included) rides at most `l ≤ LEVELS − 1`
    /// cascades before level 0 drains it. Returns the cascades.
    fn assert_cascade_bound(wheel: &TimerWheel<u64>, ctx: &str) -> u64 {
        let s = wheel.stats();
        assert!(
            s.cascades <= (LEVELS - 1) * s.pushes,
            "{ctx}: {} cascades for {} pushes",
            s.cascades,
            s.pushes
        );
        s.cascades
    }

    /// Pushes the schedule into both structures and checks the full drain
    /// agrees triple-for-triple.
    fn assert_wheel_matches_heap(schedule: &[SimTime], ctx: &str) {
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut heap: NaiveHeap<u64> = NaiveHeap::new();
        for (seq, &at) in schedule.iter().enumerate() {
            wheel.push(at, seq as u64, seq as u64);
            heap.push(at, seq as u64, seq as u64);
        }
        assert_eq!(wheel.len(), heap.len(), "{ctx}");
        loop {
            let expect = heap.pop();
            let got = wheel.pop();
            assert_eq!(got, expect, "{ctx}: wheel diverged from the reference heap");
            if expect.is_none() {
                break;
            }
        }
        assert!(wheel.is_empty(), "{ctx}");
        assert_cascade_bound(&wheel, ctx);
    }

    /// One step of a scripted schedule, timestamps in nanoseconds.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push(u64),
        Pop,
        Peek,
    }
    use Op::{Peek, Pop, Push};

    /// Runs `ops` against the wheel and the reference heap, comparing
    /// every pop and peek, then drains both; returns the wheel's stats.
    /// Scripts keep the wheel's contract: no push before the last pop.
    fn assert_ops_match_heap(ops: &[Op], ctx: &str) -> WheelStats {
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut heap: NaiveHeap<u64> = NaiveHeap::new();
        let (mut seq, mut last) = (0u64, 0u64);
        for (i, &op) in ops.iter().enumerate() {
            match op {
                Push(at) => {
                    assert!(at >= last, "{ctx}: op {i} pushes before the last pop");
                    wheel.push(SimTime(at), seq, seq);
                    heap.push(SimTime(at), seq, seq);
                    seq += 1;
                }
                Pop => {
                    let expect = heap.pop();
                    assert_eq!(wheel.pop(), expect, "{ctx}: op {i}");
                    last = expect.map_or(last, |e| e.0 .0);
                }
                Peek => assert_eq!(wheel.peek(), heap.peek(), "{ctx}: op {i}"),
            }
        }
        while let Some(expect) = heap.pop() {
            assert_eq!(wheel.pop(), Some(expect), "{ctx}: drain");
        }
        assert!(wheel.is_empty(), "{ctx}");
        assert_cascade_bound(&wheel, ctx);
        *wheel.stats()
    }

    /// Moves the cursor to grain `g`: one entry there, popped.
    fn cursor_to(g: u64) -> [Op; 2] {
        [Push(g * GRAIN_NS), Pop]
    }

    /// Slots holding several chunks at every level, and as many entries in
    /// the overflow, from an aligned cursor and from ones part-way
    /// through a rotation.
    #[test]
    fn wheel_matches_heap_with_several_chunks_per_slot_at_every_level() {
        let per_slot = 3 * CHUNK as u64 + 5;
        for cur in [0, 37, 4_100, 300_000] {
            let mut ops = cursor_to(cur).to_vec();
            for k in 0..LEVELS as u32 {
                // A level-k window wholly between 64^k and 64^(k+1) grains
                // ahead, so every entry lands in its one slot.
                let span = SLOTS.pow(k);
                let window = (cur / span + 2) * span * GRAIN_NS;
                for i in 0..per_slot {
                    ops.push(Push(window + i * 7_919 % (span * GRAIN_NS)));
                }
            }
            let beyond = (cur + SLOTS.pow(LEVELS as u32) + 5) * GRAIN_NS;
            ops.extend((0..per_slot).map(|i| Push(beyond + i * 7_919)));
            let stats = assert_ops_match_heap(&ops, &format!("cursor at grain {cur}"));
            assert_eq!(stats.overflow_migrations, per_slot, "{stats:?}");
            assert!(stats.cascades >= LEVELS - 1, "{stats:?}");
        }
    }

    /// Deltas of exactly `64^k` grains (the first of level k), one grain
    /// and one nanosecond either side, up to the overflow's edge, from
    /// cursors at, inside and at the end of a rotation.
    #[test]
    fn wheel_matches_heap_on_level_boundaries() {
        for cur in [0, 1, 63, 64, 4_095, 4_096, 262_143] {
            let mut ops = cursor_to(cur).to_vec();
            for k in 0..=LEVELS as u32 {
                let at = (cur + SLOTS.pow(k)) * GRAIN_NS;
                for d in [at - GRAIN_NS, at - 1, at, at + 1, at + GRAIN_NS] {
                    ops.push(Push(d));
                }
            }
            // Drain half, then the same boundaries from the new cursor.
            ops.extend([Pop; 17]);
            ops.push(Peek);
            assert_ops_match_heap(&ops, &format!("cursor at grain {cur}"));
        }
    }

    /// A cascade leaves the cursor at its window's start, where lower
    /// levels' windows can start too: a level-2 window, a level-1 window
    /// and a level-0 slot all due from grain `S`. Every one of them must
    /// drain before the next level-0 slot of the rotation, whether the
    /// cascade staged an entry (grain `S` itself) or not.
    #[test]
    fn wheel_matches_heap_when_a_cascade_shares_its_window_start() {
        const S: u64 = 4 * SLOTS * SLOTS; // level-2 aligned
        for stage_one in [true, false] {
            let mut ops = Vec::new();
            if stage_one {
                ops.push(Push(S * GRAIN_NS)); // level 2
            }
            ops.push(Push((S + 3 * SLOTS) * GRAIN_NS + 9)); // level 2
            ops.extend(cursor_to(S - 100));
            ops.push(Push((S + 1) * GRAIN_NS + 5)); // level 1
            ops.extend(cursor_to(S - 10));
            ops.push(Push((S + 5) * GRAIN_NS)); // level 0
            ops.push(Push(S * GRAIN_NS + 1)); // level 0, grain S
            ops.extend([Pop, Peek, Pop, Pop, Pop]);
            assert_ops_match_heap(&ops, &format!("stage_one {stage_one}"));
        }
    }

    /// The level-0 fast path at the end of a rotation: with the cursor in
    /// slot 63 the rest of the rotation is empty, and the next grains sit
    /// in slots 0, 1, … of the next one (or a level up).
    #[test]
    fn wheel_matches_heap_with_the_cursor_in_the_last_slot_of_a_rotation() {
        for rotation in [0, 1, 63, 64, 4_095] {
            let cur = rotation * SLOTS + SLOTS - 1;
            let mut ops = cursor_to(cur).to_vec();
            for d in [1, 2, 63, 64, 65, 127, 128, 4_096] {
                ops.push(Push((cur + d) * GRAIN_NS + d));
            }
            for _ in 0..4 {
                ops.extend([Pop, Peek]);
                ops.push(Push((cur + 70) * GRAIN_NS));
            }
            assert_ops_match_heap(&ops, &format!("cursor at grain {cur}"));
        }
    }

    /// `peek` stages the next occupied grain and moves the cursor there,
    /// past the caller's clock; pushes between the last pop and that
    /// grain (and into it, and at its exact instant) must still pop in
    /// order.
    #[test]
    fn wheel_matches_heap_after_pushes_behind_a_peeked_cursor() {
        for far in [5, 64, 100, 5_000, 300_000] {
            let far_at = (1_000 + far) * GRAIN_NS + 77;
            let mut ops = cursor_to(1_000).to_vec();
            ops.extend([Push(far_at), Peek]);
            for behind in [0, 1, far / 2, far - 1, far] {
                ops.push(Push((1_000 + behind) * GRAIN_NS + 3));
                ops.push(Peek);
            }
            ops.extend([Push(far_at), Push(far_at + 1), Pop, Push(far_at), Peek]);
            assert_ops_match_heap(&ops, &format!("peeked {far} grains ahead"));
        }
    }

    /// Far-future entries wait in the overflow heap and migrate as the
    /// cursor comes within the horizon of them, including right at its
    /// edge and past an entry pushed into the wheel meanwhile.
    #[test]
    fn wheel_matches_heap_while_migrating_from_the_overflow() {
        let horizon = SLOTS.pow(LEVELS as u32);
        let mut ops = Vec::new();
        for d in [
            horizon - 1,
            horizon,
            horizon + 1,
            2 * horizon,
            3 * horizon + 7,
        ] {
            ops.push(Push(d * GRAIN_NS));
            ops.push(Push(d * GRAIN_NS + 1));
        }
        ops.extend(cursor_to(horizon / 2));
        ops.push(Push((horizon / 2 + horizon) * GRAIN_NS)); // overflow again
        ops.push(Push((horizon / 2 + 3) * GRAIN_NS)); // level 0
        ops.extend([Pop, Pop, Peek, Pop]);
        ops.push(Push(3 * horizon * GRAIN_NS));
        let stats = assert_ops_match_heap(&ops, "overflow");
        assert!(stats.overflow_migrations >= 8, "{stats:?}");
    }

    /// ISSUE acceptance: 1000+ seeded random schedules, including
    /// same-tick bursts, drain in exactly the reference `(at, seq)` order.
    #[test]
    fn wheel_matches_heap_on_1000_seeded_schedules() {
        for seed in 0..1000u64 {
            let mut rng = Rng::seed_from_u64(seed ^ 0x5EED);
            let len = rng.gen_range(1usize..64);
            assert_wheel_matches_heap(&random_schedule(seed, len), &format!("seed {seed}"));
        }
    }

    /// Larger randomized schedules than the seeded sweep, full drain.
    #[test]
    fn wheel_pop_order_matches_heap() {
        for case in 0..CASES {
            let mut rng = case_rng(case);
            let seed = rng.next_u64();
            let len = rng.gen_range(1usize..400);
            let ctx = format!("case {case}: seed={seed} len={len}");
            assert_wheel_matches_heap(&random_schedule(seed, len), &ctx);
        }
    }

    /// Interleaved push/pop: pops advance the wheel cursor between
    /// pushes, exercising cascades and the ready-buffer merge paths
    /// that a push-all-then-drain test never reaches.
    #[test]
    fn wheel_matches_heap_under_interleaved_ops() {
        let mut cascades = 0;
        for case in 0..CASES {
            let mut rng = case_rng(case);
            let seed = rng.next_u64();
            let ops: Vec<_> = (0..rng.gen_range(1usize..300))
                .map(|_| rng.gen_range(0u32..4))
                .collect();
            let ctx = format!("case {case}: seed={seed} ops={ops:?}");
            let mut rng = Rng::seed_from_u64(seed);
            let mut wheel: TimerWheel<u64> = TimerWheel::new();
            let mut heap: NaiveHeap<u64> = NaiveHeap::new();
            let mut now = 0u64;
            let mut seq = 0u64;
            for op in ops {
                if op == 0 && !heap.is_empty() {
                    let expect = heap.pop();
                    let got = wheel.pop();
                    assert_eq!(got, expect, "{ctx}");
                    now = expect.unwrap().0 .0;
                } else {
                    // Schedules never go backwards past the last pop — the
                    // same contract `Core::schedule_at` enforces by clamping.
                    let at = SimTime(now + rng.gen_range(0u64..10_000_000_000));
                    wheel.push(at, seq, seq);
                    heap.push(at, seq, seq);
                    seq += 1;
                }
            }
            while let Some(expect) = heap.pop() {
                assert_eq!(wheel.pop(), Some(expect), "{ctx}");
            }
            assert!(wheel.is_empty(), "{ctx}");
            assert_eq!(wheel.peek(), None, "{ctx}");
            cascades += assert_cascade_bound(&wheel, &ctx);
        }
        assert!(cascades > 0, "no drawn schedule cascaded");
    }

    /// FIFO lanes beside the levels: 1 200 seeded schedules mix wheel
    /// pushes (same grain, low levels, hours ahead) with pushes onto 1–4
    /// lanes, one at a time or in bursts of up to three chunks, and take
    /// pops through `pop`, `pop_due` and `peek`. A lane push usually
    /// comes after the lane's last push; one in six lands before it when
    /// it can, and must ride the wheel instead. Every result matches the
    /// reference heap.
    #[test]
    fn wheel_with_lanes_matches_heap_under_interleaved_ops() {
        let (mut fallbacks, mut lane_pushes, mut cascades) = (0, 0, 0);
        for seed in 0..1_200u64 {
            let mut rng = Rng::seed_from_u64(seed ^ 0x1A_7E5);
            let ctx = format!("seed {seed}");
            let mut wheel: TimerWheel<u64> = TimerWheel::new();
            let mut heap: NaiveHeap<u64> = NaiveHeap::new();
            let mut last = vec![(0u64, 0u64); rng.gen_range(1usize..5)];
            let (mut now, mut seq) = (0u64, 0u64);
            for i in 0..rng.gen_range(1usize..300) {
                let ctx = format!("{ctx}, op {i}");
                match rng.gen_range(0u32..12) {
                    0 | 1 => {
                        let expect = heap.pop();
                        assert_eq!(wheel.pop(), expect, "{ctx}: pop");
                        now = expect.map_or(now, |e| e.0 .0);
                    }
                    2 => assert_eq!(wheel.peek(), heap.peek(), "{ctx}: peek"),
                    3 | 4 => {
                        let until = SimTime(now + rng.gen_range(0u64..2_000_000));
                        let expect = heap.peek().filter(|&(at, _)| at <= until);
                        let expect = expect.and_then(|_| heap.pop());
                        assert_eq!(wheel.pop_due(until), expect, "{ctx}: pop_due");
                        now = expect.map_or(now, |e| e.0 .0);
                    }
                    5 | 6 => {
                        let at = SimTime(
                            now + match rng.gen_range(0u32..3) {
                                0 => rng.gen_range(0..GRAIN_NS),
                                1 => rng.gen_range(0u64..100_000_000),
                                _ => rng.gen_range(0u64..10_000_000_000_000),
                            },
                        );
                        wheel.push(at, seq, seq);
                        heap.push(at, seq, seq);
                        seq += 1;
                    }
                    op => {
                        let lane = rng.gen_range(0..last.len());
                        let burst = if op == 7 {
                            rng.gen_range(1..3 * CHUNK as u64)
                        } else {
                            1
                        };
                        for _ in 0..burst {
                            let tail = last[lane].0.max(now);
                            let at = if last[lane].0 > now && rng.gen_range(0u32..6) == 0 {
                                rng.gen_range(now..last[lane].0)
                            } else {
                                tail + rng.gen_range(0u64..20_000)
                            };
                            if (at, seq) < last[lane] {
                                fallbacks += 1;
                            } else {
                                last[lane] = (at, seq);
                            }
                            lane_pushes += 1;
                            wheel.push_lane(lane, SimTime(at), seq, seq);
                            heap.push(SimTime(at), seq, seq);
                            seq += 1;
                        }
                    }
                }
                assert_eq!(wheel.len(), heap.len(), "{ctx}");
            }
            while let Some(expect) = heap.pop() {
                assert_eq!(wheel.pop(), Some(expect), "{ctx}: drain");
            }
            assert!(wheel.is_empty(), "{ctx}");
            assert_eq!(wheel.peek(), None, "{ctx}");
            let s = wheel.stats();
            assert_eq!((s.pushes, s.pops), (seq, seq), "{ctx}");
            cascades += assert_cascade_bound(&wheel, &ctx);
        }
        assert!(
            fallbacks > 1_000 && fallbacks < lane_pushes / 4,
            "{fallbacks} of {lane_pushes}"
        );
        assert!(cascades > 0, "no drawn schedule cascaded");
    }
}

/// Degenerate burst: many entries on the exact same tick pop in pure
/// sequence order.
#[test]
fn wheel_same_tick_burst_pops_in_seq_order() {
    let at = SimTime(123_456_789);
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    for seq in 0..500u64 {
        wheel.push(at, seq, seq);
    }
    for seq in 0..500u64 {
        assert_eq!(wheel.pop(), Some((at, seq, seq)));
    }
    assert!(wheel.is_empty());
}

/// The wheel's own accounting: pushes = pops after a full drain, and
/// the high-water depth equals the schedule length for push-all-first.
#[test]
fn wheel_stats_balance() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let seed = rng.next_u64();
        let len = rng.gen_range(1usize..200);
        let ctx = format!("case {case}: seed={seed} len={len}");
        let schedule = random_schedule(seed, len);
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        for (seq, &at) in schedule.iter().enumerate() {
            wheel.push(at, seq as u64, seq as u64);
        }
        while wheel.pop().is_some() {}
        let s = wheel.stats();
        assert_eq!(s.pushes, len as u64, "{ctx}");
        assert_eq!(s.pops, len as u64, "{ctx}");
        assert_eq!(s.max_depth, len as u64, "{ctx}");
    }
}
