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
    let deadline = SimTime::ZERO + last_send + max_flow_lifetime(&transport);
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

    /// The wheel's level count (`wheel.rs` `LEVELS`).
    const LEVELS: u64 = 6;

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
