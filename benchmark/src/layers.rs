//! Short standalone drives of single layers through their public API,
//! run only in traced mode. Each returns host nanoseconds (or a rate) for
//! one operation of that layer with nothing else in the way, so a
//! layer's share of a workload can be estimated as
//! `ns_per_op × ops / run time`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use drs_core::{DrsConfig, DrsDaemon, DrsEventKind, DrsMsg};
use drs_harness::{Experiment, RunMode};
use drs_io::live::{LiveCluster, LiveClusterSpec};
use drs_io::wire::{self, Datagram, Payload};
use drs_obs::flight::{EventRef, FlightRecorder, TraceKind, TraceRecord};
use drs_obs::hist::Histogram;
use drs_sim::wheel::TimerWheel;
use drs_sim::{ClusterSpec, FaultPlan, NetId, NodeId, SimComponent, SimDuration, SimTime, World};

use crate::harness::median;

/// Times `f` over `iters` calls and returns nanoseconds per call.
fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

enum Op {
    Push(u64),
    Pop,
}

/// The queue operations of the per-pair staggered monitor, cluster-wide,
/// in the order the kernel would issue them: every `(daemon, peer,
/// plane)` pair re-arms each 200 ms cycle at its own stagger offset,
/// pushing its timeout (+50 ms), its next re-arm (+200 ms) and the probe
/// request's arrival; the request's pop pushes the reply's arrival.
/// Synthetic (the kernel does not expose its push order), but it has the
/// real schedule's mix of horizons: microseconds, 50 ms and 200 ms.
fn per_pair_ops(n: u64, planes: u64, cycles: u64) -> Vec<Op> {
    const INTERVAL: u64 = 200_000_000;
    const TIMEOUT: u64 = 50_000_000;
    const HOP: u64 = 11_000;
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    enum Kind {
        Rearm,
        Request,
        Other,
    }
    let pairs = n * (n - 1) * planes;
    let mut ops = Vec::new();
    let mut heap = BinaryHeap::new();
    let mut seq = 0u64;
    let mut push = |heap: &mut BinaryHeap<_>, ops: &mut Vec<Op>, at: u64, kind: Kind| {
        heap.push(Reverse((at, seq, kind)));
        ops.push(Op::Push(at));
        seq += 1;
    };
    for p in 0..pairs {
        push(&mut heap, &mut ops, INTERVAL * p / pairs, Kind::Rearm);
    }
    while let Some(Reverse((at, _, kind))) = heap.pop() {
        if at >= cycles * INTERVAL {
            break;
        }
        ops.push(Op::Pop);
        match kind {
            Kind::Rearm => {
                push(&mut heap, &mut ops, at + TIMEOUT, Kind::Other);
                push(&mut heap, &mut ops, at + INTERVAL, Kind::Rearm);
                push(&mut heap, &mut ops, at + HOP, Kind::Request);
            }
            Kind::Request => push(&mut heap, &mut ops, at + HOP, Kind::Other),
            Kind::Other => {}
        }
    }
    ops
}

/// Replays `ops` through a fresh wheel; returns (seconds, pops).
fn replay(ops: &[Op]) -> (f64, u64) {
    let mut q: TimerWheel<u64> = TimerWheel::new();
    let (mut seq, mut acc, mut pops) = (0u64, 0u64, 0u64);
    let t = Instant::now();
    for op in ops {
        match op {
            Op::Push(at) => {
                q.push(SimTime(*at), seq, seq);
                seq += 1;
            }
            Op::Pop => {
                if let Some((at, s, _)) = q.pop() {
                    acc ^= at.0.wrapping_add(s);
                    pops += 1;
                }
            }
        }
    }
    black_box(acc);
    (t.elapsed().as_secs_f64(), pops)
}

fn replay_ns_per_op(ops: &[Op]) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let (secs, pops) = replay(ops);
            secs * 1e9 / pops as f64
        })
        .collect();
    median(&samples)
}

/// Nanoseconds per push+pop pair replaying the N=90 K=2 per-pair
/// schedule through `TimerWheel` alone.
#[must_use]
pub fn wheel_replay_ns_per_op() -> f64 {
    replay_ns_per_op(&per_pair_ops(90, 2, 5))
}

/// Nanoseconds per push+pop pair when the whole N=90 K=2 steady-state
/// queue is pushed and then drained dry (a timeout sweep's pattern).
#[must_use]
pub fn wheel_burst_ns_per_op() -> f64 {
    let entries = 90 * 89 * 2 * 4u64;
    let mut ops: Vec<Op> = (0..entries)
        .map(|p| Op::Push((p % 997) * 131_072 + p))
        .collect();
    ops.extend((0..entries).map(|_| Op::Pop));
    replay_ns_per_op(&ops)
}

/// Nanoseconds per `encode` + `decode` of one datagram.
#[must_use]
pub fn wire_roundtrip_ns() -> f64 {
    let mut buf = [0u8; wire::MAX_DATAGRAM];
    ns_per_call(2_000_000, |i| {
        let payload = if i % 4 == 0 {
            Payload::Control(DrsMsg::RouteOffer {
                target: NodeId(i as u32 % 90),
                req_id: i,
            })
        } else {
            Payload::EchoReply {
                id: 7,
                seq: i as u32,
            }
        };
        let d = Datagram {
            src: NodeId(i as u32 % 90),
            net: NetId((i % 2) as u8),
            payload,
        };
        let len = wire::encode(black_box(&d), &mut buf);
        assert_eq!(wire::decode(black_box(&buf[..len])), Some(d));
    })
}

fn trace_record(i: u64, cause: Option<EventRef>) -> TraceRecord {
    TraceRecord {
        time_ns: i * 1_000,
        seq: i,
        sub: 0,
        kind: TraceKind::ProbeSend,
        host: (i % 32) as u32,
        plane: Some((i % 2) as u8),
        arg: i,
        cause,
    }
}

/// Nanoseconds per `FlightRecorder::record` on a full ring (every append
/// evicts).
#[must_use]
pub fn flight_record_ns() -> f64 {
    let mut rec = FlightRecorder::new(1 << 16);
    let ns = ns_per_call(1 << 21, |i| rec.record(black_box(trace_record(i, None))));
    black_box(rec.len());
    ns
}

/// Nanoseconds per `pin_chain` + `release` of a 4-record causal chain
/// whose head is the newest record of a 2¹⁸-record ring.
#[must_use]
pub fn flight_pin_ns() -> f64 {
    const RING: u64 = 1 << 18;
    let mut rec = FlightRecorder::new(RING as usize);
    let mut prev = None;
    for i in 0..RING {
        // Chains of four: every fourth record starts a new one.
        let cause = if i % 4 == 0 { None } else { prev };
        let r = trace_record(i, cause);
        prev = Some(r.self_ref());
        rec.record(r);
    }
    let head = prev.expect("ring is non-empty");
    ns_per_call(16, |_| {
        rec.pin_chain(black_box(head));
        rec.release(head);
    })
}

/// Nanoseconds per `Histogram::record`.
#[must_use]
pub fn hist_record_ns() -> f64 {
    let mut h = Histogram::new();
    let ns = ns_per_call(1 << 22, |i| {
        h.record(black_box(i.wrapping_mul(0x9E37_79B9) >> 20))
    });
    black_box(h.count());
    ns
}

/// Nanoseconds per `Histogram::merge`.
#[must_use]
pub fn hist_merge_ns() -> f64 {
    let mut a = Histogram::new();
    let mut b = Histogram::new();
    for i in 0..4096u64 {
        b.record(i * i);
    }
    let ns = ns_per_call(1 << 18, |_| a.merge(black_box(&b)));
    black_box(a.count());
    ns
}

/// Trials per second through `Experiment::run` in `RunMode::Parallel`
/// with an empty body: the harness fan-out's own cost.
#[must_use]
pub fn fanout_trials_per_s() -> f64 {
    const TRIALS: usize = 1 << 18;
    let exp = Experiment::replications("fanout", 42, TRIALS);
    let t = Instant::now();
    let seeds = exp.run(RunMode::Parallel, |ctx, ()| ctx.seed);
    let secs = t.elapsed().as_secs_f64();
    black_box(seeds);
    TRIALS as f64 / secs
}

/// Result of one real failover over loopback UDP.
pub struct LiveRun {
    /// Slowest daemon's detection latency, host milliseconds.
    pub detect_ms_max: f64,
    /// That latency over the DES's prediction for the same cluster.
    pub vs_des_ratio: f64,
}

/// Runs four real daemons over loopback UDP, kills plane A at the socket
/// layer and compares the slowest detection with the DES's prediction.
/// Timer-quantised and sleeping, so informational only.
///
/// # Errors
/// Returns the reason when the sandbox refuses sockets or a daemon never
/// detects the failure.
pub fn live_failover() -> Result<LiveRun, String> {
    const N: usize = 4;
    let cfg = DrsConfig::default()
        .probe_timeout(SimDuration::from_millis(25))
        .probe_interval(SimDuration::from_millis(50));
    let t0 = SimTime(1_000_000_000);
    let mut w = World::new(ClusterSpec::new(N).seed(7), |id| DrsDaemon::new(id, N, cfg));
    w.schedule_faults(FaultPlan::new().fail_at(t0, SimComponent::Hub(NetId::A)));
    w.run_for(SimDuration::from_secs(4));
    let des_max = (0..N as u32)
        .filter_map(|i| {
            w.protocol(NodeId(i)).metrics.first_after(
                t0,
                |k| matches!(k, DrsEventKind::LinkDown { net, .. } if *net == NetId::A),
            )
        })
        .map(|e| e.at - t0)
        .max()
        .ok_or("the DES never detected the dead hub")?;

    let cluster = LiveCluster::bind(LiveClusterSpec {
        n: N,
        planes: 2,
        cfg,
    })?;
    let report = cluster.run(
        Duration::from_millis(600),
        Some(NetId::A),
        Duration::from_millis(1500),
    );
    let live_max = report
        .detection_latencies(NetId::A)
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .and_then(|v| v.into_iter().max())
        .ok_or("a live daemon never detected the dead plane")?;
    Ok(LiveRun {
        detect_ms_max: live_max.as_nanos() as f64 * 1e-6,
        vs_des_ratio: live_max.as_nanos() as f64 / des_max.as_nanos() as f64,
    })
}
