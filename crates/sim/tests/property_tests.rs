//! Property tests for the simulator substrate: medium timing
//! invariants, histogram correctness, workload structure, transport
//! arithmetic, and whole-world conservation laws under random scenarios.
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
use drs_sim::transport::{max_flow_lifetime, rto_for_attempt};
use drs_sim::wheel::TimerWheel;
use drs_sim::world::{FlowOutcome, Protocol, World};
use drs_sim::{NetId, NodeId, ShardedWorld, SimDuration, SimTime};

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
            let rto = rto_for_attempt(&cfg, attempt);
            assert!(rto >= prev, "{ctx}");
            prev = rto;
            sum = sum + rto;
        }
        assert_eq!(sum, max_flow_lifetime(&cfg), "{ctx}");
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
    }
}

/// Outcomes are terminal, and stopping at resolution equals running the
/// full horizon: over drawn DRS clusters (size, planes, shard count),
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
    let deadline = SimTime::ZERO + last_send + max_flow_lifetime(&transport);
    let (mut direct, mut rerouted, mut gave_up, mut early) = (0u32, 0u32, 0u32, 0u32);
    for case in 0..64 {
        let mut rng = case_rng(case);
        let n = rng.gen_range(3usize..9);
        let planes = rng.gen_range(2u8..4);
        let shards = rng.gen_range(1usize..4);
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
        let ctx = format!("case {case}: n={n} planes={planes} shards={shards} f={f} seed={seed}");
        let build = || {
            let spec = ClusterSpec::new(n)
                .seed(seed)
                .planes(planes)
                .transport(transport);
            let mut w =
                ShardedWorld::with_topology(spec, shards, 1, |id| DrsDaemon::new(id, n, cfg));
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

// ---------------------------------------------------------------------------
// Timer-wheel kernel: pop order must be indistinguishable from the
// reference binary heap ordered on `(at, seq)`. The heap itself lives
// behind the `bench-ref` feature; the direct comparisons are gated in
// `wheel_vs_heap` below, the heap-free invariants run unconditionally.
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
            // Inside the first grain (4.096 us).
            3 => SimTime(rng.gen_range(0u64..4_096)),
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

#[cfg(feature = "bench-ref")]
mod wheel_vs_heap {
    use super::*;
    use drs_sim::naive_heap::NaiveHeap;

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
        }
    }
}

/// The sharded driver opens every epoch window at `next_hint` and never
/// asks for the exact minimum. After every step of a random push / pop /
/// bounded-peek schedule whose due times reach all six levels and the
/// overflow heap, the hint never overshoots the brute-force minimum; and
/// the pop step is the driver's own loop — open a window of one lookahead
/// at the hint, `peek_before` its bound, repeat until an event inside the
/// window is staged — which must arrive at the minimum within
/// `LEVELS + 1` windows, because each empty one cascades the bucket that
/// fooled the hint one level down. The lookaheads are one tick, a
/// fraction of a grain (the only regime where a level-0 hint
/// undershoots) and `ClusterSpec`'s default 5 080 ns.
#[test]
fn wheel_hint_is_a_lower_bound_and_hint_windows_reach_the_minimum() {
    const LEVELS: usize = 6;
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let steps = rng.gen_range(1usize..300);
        let lookahead = [1u64, 500, 5_080][case as usize % 3];
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut queued: Vec<u64> = Vec::new();
        let (mut now, mut seq) = (0u64, 0u64);
        for step in 0..steps {
            let ctx = format!("case {case} step {step}");
            // A span of up to 2^bits ns: bits < 12 stays inside a grain,
            // each further 6 bits is one wheel level, 48 and up overflows.
            let bits = rng.gen_range(0u32..52);
            let span = rng.gen_range(0u64..1 << bits);
            match rng.gen_range(0u32..6) {
                0 if !queued.is_empty() => {
                    let min = queued.iter().copied().min().expect("non-empty");
                    let mut windows = 0;
                    loop {
                        windows += 1;
                        let bound = wheel.next_hint().expect("non-empty").0 + lookahead;
                        match wheel.peek_before(SimTime(bound)) {
                            Some((at, _)) if at.0 < bound => break,
                            _ => assert!(windows <= LEVELS, "{ctx}: hint stopped tightening"),
                        }
                    }
                    let (at, _, _) = wheel.pop().expect("staged");
                    assert_eq!(at.0, min, "{ctx}: pop order");
                    queued.swap_remove(queued.iter().position(|&q| q == min).expect("min"));
                    now = min;
                }
                1 => {
                    // Stages at most the grains before the limit, like a
                    // shard's epoch; whatever it reports is the minimum.
                    let limit = now + span;
                    let got = wheel.peek_before(SimTime(limit)).map(|(at, _)| at.0);
                    let min = queued.iter().copied().min();
                    assert!(got.is_none() || got == min, "{ctx}: staged {got:?}");
                    assert!(got.is_some() || min.is_none_or(|m| m >= limit), "{ctx}");
                }
                _ => {
                    wheel.push(SimTime(now + span), seq, seq);
                    queued.push(now + span);
                    seq += 1;
                }
            }
            let min = queued.iter().min().map(|&at| SimTime(at));
            let hint = wheel.next_hint();
            assert_eq!(hint.is_some(), min.is_some(), "{ctx}");
            assert!(hint <= min, "{ctx}: hint {hint:?} overshoots {min:?}");
        }
    }
}

/// The sharded driver does not visit a shard whose hint is at or past
/// the window bound when the wheel reports the visit's
/// `peek_before(bound)` a no-op (`skips_below_hint`); it counts a stall
/// instead. Two wheels take the same random push / pop / bounded-peek
/// schedule, reaching all six levels and the overflow heap with hints
/// that undershoot. Before every step one of them peeks at a bound at or
/// below its hint where the other skips, whenever the wheel allows the
/// skip. Every `WheelStats` counter, the hint and the whole later pop
/// sequence must stay equal. Where the wheel refuses (overflow entries
/// and nothing staged), some of those peeks must move a counter, so the
/// refusal is needed.
#[test]
fn a_skipped_peek_below_the_hint_leaves_the_wheel_as_the_peek_does() {
    let (mut skipped, mut undershot, mut refused, mut refused_and_moved) = (0u32, 0, 0, 0);
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let steps = rng.gen_range(1usize..300);
        let mut peeked: TimerWheel<u64> = TimerWheel::new();
        let mut skipping: TimerWheel<u64> = TimerWheel::new();
        let mut queued: Vec<u64> = Vec::new();
        let (mut now, mut seq) = (0u64, 0u64);
        for step in 0..steps {
            let ctx = format!("case {case} step {step}");
            if let Some(hint) = skipping.next_hint() {
                // The hint itself, one tick below it, or up to a level-2
                // span below it.
                let below = [0, 1, rng.gen_range(0u64..1 << 24)][rng.gen_range(0usize..3)];
                let bound = SimTime(hint.0.saturating_sub(below));
                if skipping.skips_below_hint() {
                    let got = peeked.peek_before(bound);
                    assert!(
                        got.is_none_or(|(at, _)| at >= bound),
                        "{ctx}: staged {got:?} below {bound:?}"
                    );
                    skipped += 1;
                    undershot += u32::from(queued.iter().min().is_some_and(|&m| m > hint.0));
                } else {
                    let before = *peeked.stats();
                    peeked.peek_before(bound);
                    skipping.peek_before(bound);
                    refused += 1;
                    refused_and_moved += u32::from(*peeked.stats() != before);
                }
                assert_eq!(peeked.stats(), skipping.stats(), "{ctx}");
                assert_eq!(peeked.next_hint(), skipping.next_hint(), "{ctx}");
            }
            let bits = rng.gen_range(0u32..52);
            let span = rng.gen_range(0u64..1 << bits);
            match rng.gen_range(0u32..6) {
                0 if !queued.is_empty() => {
                    let popped = peeked.pop();
                    assert_eq!(popped, skipping.pop(), "{ctx}: pop");
                    let at = popped.expect("non-empty").0 .0;
                    queued.swap_remove(queued.iter().position(|&q| q == at).expect("queued"));
                    now = at;
                }
                1 => {
                    let limit = SimTime(now + span);
                    assert_eq!(
                        peeked.peek_before(limit),
                        skipping.peek_before(limit),
                        "{ctx}: bounded peek"
                    );
                }
                _ => {
                    peeked.push(SimTime(now + span), seq, seq);
                    skipping.push(SimTime(now + span), seq, seq);
                    queued.push(now + span);
                    seq += 1;
                }
            }
        }
        while let Some(popped) = peeked.pop() {
            assert_eq!(Some(popped), skipping.pop(), "case {case}: drain");
        }
        assert!(skipping.is_empty(), "case {case}");
        assert_eq!(peeked.stats(), skipping.stats(), "case {case}");
    }
    assert!(skipped > 10_000, "{skipped} skips");
    assert!(
        undershot > 500,
        "{undershot} skips below an undershooting hint"
    );
    assert!(
        refused_and_moved > 0,
        "{refused_and_moved} of {refused} refusals moved a counter"
    );
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
