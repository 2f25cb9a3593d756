//! `shard1024`: ROADMAP's named scale rung. `ShardedWorld` over
//! `kernel::scaling_spec(1024, 2)` with 64 shards, `kernel::scaling_cfg()`,
//! 100 ms of virtual time — one unstaggered 2.1 M-probe burst, 4.19 M
//! events, about 1.4 GB resident.
//!
//! The epoch / merge machinery and the same-tick burst path dominate, and
//! it is the memory-heavy workload.
//!
//! The timed repetitions run on **one** worker thread; the two-thread run
//! is measured in the traced run only (`sim.shard.t2_wall_s`,
//! `sim.shard.speedup_t2`, `sim.shard.barrier_wait_share`). On the 2-vCPU
//! development VM a 10 000-barrier run needs both vCPUs scheduled at
//! once, which the hypervisor does not promise: interleaved measurements
//! gave medians of 1.10-1.21 s at one thread and 1.30-1.84 s at two, so a
//! two-thread end-to-end metric could not hold any bound the benchmark is
//! allowed to set.

use std::time::Instant;

use drs_bench::kernel::{scaling_cfg, scaling_spec};
use drs_core::DrsDaemon;
use drs_harness::stream_seed;
use drs_sim::kernel_obs::shard_balance;
use drs_sim::{NodeId, ShardedWorld, SimTime};

use crate::check::{check_kernel, cluster_digest};
use crate::harness::{median, Layers, Rep, RepTimer, Workload};
use crate::scenario::{frames, Cluster};
use crate::trace::Trace;

const N: usize = 1024;
const SHARDS: usize = 64;
const END: SimTime = SimTime(100_000_000);
/// The run cut into virtual-time quarters for the traced repetition.
const SLICES: u64 = 4;

pub struct Shard1024 {
    seed: u64,
    reference: u64,
}

impl Shard1024 {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Shard1024 {
            seed: stream_seed(seed, 0),
            reference: 0,
        }
    }

    fn build(&self, threads: usize) -> ShardedWorld<DrsDaemon> {
        let cfg = scaling_cfg();
        ShardedWorld::with_topology(scaling_spec(N, 2).seed(self.seed), SHARDS, threads, |id| {
            DrsDaemon::new(id, N, cfg)
        })
    }

    /// Digest plus the checks of a healthy burst: nothing clamped, every
    /// probe of the single cycle sent and answered inside the window.
    fn digest_and_check(w: &ShardedWorld<DrsDaemon>) -> (u64, Vec<String>) {
        let mut errors = Vec::new();
        check_kernel(w, &mut errors);
        let (mut sent, mut answered) = (0u64, 0u64);
        for i in 0..N as u32 {
            let m = &w.daemon(NodeId(i)).metrics;
            sent += m.probes_sent;
            answered += m.replies_received;
        }
        let expected = 2 * (N * (N - 1)) as u64;
        if sent != expected || answered != expected {
            errors.push(format!(
                "burst sent {sent} and answered {answered} probes, expected {expected} each"
            ));
        }
        (cluster_digest(w), errors)
    }
}

impl Workload for Shard1024 {
    fn warm_reps(&self) -> usize {
        // The third repetition still takes ~7 000 page faults (0.3 s of
        // system time); from the fourth on the heap is settled.
        3
    }

    fn rep(&mut self, tr: &mut Trace, traced: bool, layers: &mut Layers) -> Rep {
        let mut t = RepTimer::start();
        let mut w = t.setup(tr, |tr| {
            tr.span("ShardedWorld::with_topology", |_| self.build(1))
        });
        if traced {
            t.run(tr, "run", |tr| {
                for i in 1..=SLICES {
                    let before: u64 = w.shard_stats().events_per_shard.iter().sum();
                    tr.span("run.burst", |tr| {
                        w.run_until(SimTime(END.0 * i / SLICES));
                        let ss = w.shard_stats();
                        tr.count("events", ss.events_per_shard.iter().sum::<u64>() - before);
                        tr.count("epochs", ss.epochs);
                    });
                }
            });
        } else {
            t.run(tr, "run", |_| w.run_until(END));
        }
        let (digest, errors) = t.run(tr, "harvest", |_| Self::digest_and_check(&w));
        self.reference = digest;

        if traced {
            let (ks, ss) = (w.kernel_stats(), w.shard_stats());
            let events: u64 = ss.events_per_shard.iter().sum();
            let stalls: u64 = ss.stalls_per_shard.iter().sum();
            let run_s = tr.total_s("run");
            layers.set("sim.world.new_s", tr.total_s("ShardedWorld::with_topology"));
            layers.set("sim.world.events", events as f64);
            layers.set("sim.world.frames", frames(&w) as f64);
            layers.set("sim.world.ns_per_event.burst", run_s * 1e9 / events as f64);
            layers.set_wheel(&ks);
            layers.set(
                "sim.shard.stall_ratio",
                stalls as f64 / (ss.epochs * ss.shards as u64) as f64,
            );
            layers.set(
                "sim.shard.zero_pop_ratio",
                ss.zero_pop_epochs as f64 / ss.epochs as f64,
            );
            layers.set(
                "sim.shard.cross_shard_share",
                ss.cross_shard_frames as f64 / ss.intents as f64,
            );
            layers.set("sim.shard.events_imbalance", shard_balance(&ss));
            layers.set("sim.shard.epochs", ss.epochs as f64);
            layers.set("sim.shard.lookahead_ns", ss.lookahead_ns as f64);
        }
        t.finish(digest, errors)
    }

    fn layers(&mut self, tr: &mut Trace, untraced_wall_s: f64, layers: &mut Layers) -> Vec<String> {
        // The same run on two worker threads: same results, and how long
        // it takes (run + harvest, as `wall_s`).
        let mut errors = Vec::new();
        let (mut walls, mut barrier_shares) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            tr.span("driver.sharded_t2", |_| {
                let mut w = self.build(2);
                let t = Instant::now();
                w.run_until(END);
                let run_s = t.elapsed().as_secs_f64();
                let (digest, _) = Self::digest_and_check(&w);
                walls.push(t.elapsed().as_secs_f64());
                barrier_shares.push(w.shard_stats().barrier_wait_ns as f64 * 1e-9 / run_s);
                if digest != self.reference {
                    errors.push(format!(
                        "t=2 digest {digest:#018x} != t=1 digest {:#018x}",
                        self.reference
                    ));
                }
            });
        }
        let t2_wall_s = median(&walls);
        layers.set("sim.shard.t2_wall_s", t2_wall_s);
        layers.set("sim.shard.speedup_t2", untraced_wall_s / t2_wall_s);
        layers.set("sim.shard.barrier_wait_share", median(&barrier_shares));
        errors
    }
}
