//! `paper90_pair` and `paper90_batch`: the paper's deployment ceiling
//! (N = 90, K = 2) on the serial kernel for 30 s of virtual time with
//! hub A down during [3 s, 6 s) and hub B during [13 s, 16 s).
//!
//! The two workloads run the same cluster, faults and length and differ
//! only in the monitor driver. Per-pair timers put 2·K·N·(N−1) timer
//! events into the queue per cycle, so `sim::wheel` and the daemons'
//! timer handlers do most of the work; the batched monitor arms O(N)
//! timers, so frame admission, dispatch and reply handling dominate and
//! the wheel does little. A wheel optimisation must move `paper90_pair`
//! and leave `paper90_batch` flat; a medium/dispatch one the reverse.

use std::time::Instant;

use drs_core::{DrsConfig, DrsDaemon};
use drs_io::replay::replay_journal;
use drs_sim::{ClusterSpec, NetId, NodeId, SimDuration, SimTime, World};

use crate::check::{check_kernel, check_outages, cluster_digest};
use crate::harness::{Layers, Rep, RepTimer, Workload};
use crate::layers;
use crate::scenario::{
    frames, outages, paper_cfg, serial_cluster, sharded_cluster, Cluster, Outage,
};
use crate::trace::Trace;

const N: usize = 90;
const END: SimTime = SimTime(30_000_000_000);

pub struct Paper90 {
    batched: bool,
    seed: u64,
    cfg: DrsConfig,
    plan: Vec<Outage>,
    /// Digest of the latest repetition: the reference the other drivers
    /// are compared against.
    reference: u64,
}

impl Paper90 {
    #[must_use]
    pub fn new(batched: bool, seed: u64) -> Self {
        Paper90 {
            batched,
            seed,
            cfg: paper_cfg(batched),
            plan: outages(seed, &[(NetId::A, 3000, 6000), (NetId::B, 13_000, 16_000)]),
            reference: 0,
        }
    }

    /// The run cut at the fault instants, and once more one worst-case
    /// detection time after each repair (when every link is back up).
    fn slices(&self) -> Vec<(&'static str, SimTime)> {
        let mut cuts = Vec::new();
        for o in &self.plan {
            cuts.push(("run.steady", o.fail));
            cuts.push(("run.outage", o.repair));
            cuts.push(("run.recovery", o.repair + self.cfg.worst_case_detection()));
        }
        cuts.push(("run.steady", END));
        cuts
    }
}

impl Workload for Paper90 {
    fn warm_reps(&self) -> usize {
        2
    }

    fn rep(&mut self, tr: &mut Trace, traced: bool, layers: &mut Layers) -> Rep {
        let mut t = RepTimer::start();
        let mut w = t.setup(tr, |tr| {
            tr.span("World::new", |_| {
                serial_cluster(N, self.seed, self.cfg, &self.plan)
            })
        });
        if traced {
            t.run(tr, "run", |tr| {
                for (name, until) in self.slices() {
                    let (pops, admitted) = (w.kernel().wheel.pops, frames(&w));
                    tr.span(name, |tr| {
                        w.advance_to(until);
                        tr.count("events", w.kernel().wheel.pops - pops);
                        tr.count("frames", frames(&w) - admitted);
                    });
                }
            });
        } else {
            t.run(tr, "run", |_| w.advance_to(END));
        }
        self.reference = t.run(tr, "harvest", |_| cluster_digest(&w));
        let mut errors = Vec::new();
        check_kernel(&w, &mut errors);
        check_outages(&w, &self.cfg, &self.plan, &mut errors);

        if traced {
            let ks = w.kernel();
            layers.set("sim.world.new_s", tr.total_s("World::new"));
            layers.set("sim.world.events", ks.wheel.pops as f64);
            layers.set("sim.world.frames", frames(&w) as f64);
            for (span, metric) in [
                ("run.steady", "sim.world.ns_per_event.steady"),
                ("run.outage", "sim.world.ns_per_event.outage"),
                ("run.recovery", "sim.world.ns_per_event.recovery"),
            ] {
                let ns = tr.total_s(span) * 1e9 / tr.total_count(span, "events") as f64;
                layers.set(metric, ns);
            }
            layers.set_wheel(&ks);
        }
        t.finish(self.reference, errors)
    }

    fn layers(&mut self, tr: &mut Trace, untraced_wall_s: f64, layers: &mut Layers) -> Vec<String> {
        let mut errors = Vec::new();
        let pops = layers.get("sim.wheel.pops").unwrap_or(0.0);

        // sim::wheel alone.
        let replay_ns = tr.span("layer.wheel", |_| {
            layers.set("sim.wheel.burst_ns_per_op", layers::wheel_burst_ns_per_op());
            layers::wheel_replay_ns_per_op()
        });
        layers.set("sim.wheel.replay_ns_per_op", replay_ns);
        let wheel_share = replay_ns * pops / (untraced_wall_s * 1e9);
        layers.set("sim.wheel.share", wheel_share);

        // core alone: capture every daemon's input journal from the same
        // scenario, then re-drive fresh daemons from the journals with no
        // kernel underneath.
        let core_share = tr.span("layer.core", |_| {
            let cfg = self.cfg.record_journal(true);
            let mut w = serial_cluster(N, self.seed, cfg, &self.plan);
            w.advance_to(END);
            let (mut inputs, mut matched, mut replay_s) = (0u64, 0u64, 0.0);
            for i in 0..N as u32 {
                let journal = w
                    .protocol_mut(NodeId(i))
                    .take_journal()
                    .expect("journal recording was enabled");
                inputs += journal.len() as u64;
                let mut fresh = DrsDaemon::new(NodeId(i), N, cfg);
                let t = Instant::now();
                let io = replay_journal(&mut fresh, &journal);
                replay_s += t.elapsed().as_secs_f64();
                let original = &w.protocol(NodeId(i)).metrics;
                matched += u64::from(
                    fresh.metrics.events == original.events
                        && fresh.metrics.probes_sent == original.probes_sent
                        && fresh.metrics.replies_received == original.replies_received
                        && fresh.metrics.route_changes == original.route_changes
                        && io.route_table() == w.host(NodeId(i)).routes,
                );
            }
            if matched != N as u64 {
                errors.push(format!("replay reproduced {matched} of {N} daemons"));
            }
            layers.set("io.replay.check_ok", matched as f64);
            layers.set("core.inputs", inputs as f64);
            layers.set("core.replay_ns_per_input", replay_s * 1e9 / inputs as f64);
            replay_s / untraced_wall_s
        });
        layers.set("core.share", core_share);
        layers.set("sim.world.other_share", 1.0 - wheel_share - core_share);

        // The sharded driver at one thread must reproduce the serial
        // results of the whole scenario.
        let t1_s = tr.span("driver.sharded_t1", |_| {
            let mut w = sharded_cluster(N, self.seed, self.cfg, &self.plan, 1);
            let t = Instant::now();
            w.advance_to(END);
            let run_s = t.elapsed().as_secs_f64();
            let digest = cluster_digest(&w);
            if digest != self.reference {
                errors.push(format!(
                    "ShardedWorld t=1 digest {digest:#018x} != World {:#018x}",
                    self.reference
                ));
            }
            run_s
        });
        if self.batched {
            layers.set("sim.shard.overhead_t1", t1_s / untraced_wall_s);
        }
        // Two threads pay a barrier per ~1 µs lookahead window on this
        // 100 Mb/s cluster (several host seconds per virtual second), so
        // the three-way comparison runs on the first virtual second, with
        // its own early outage.
        tr.span("driver.three_way", |_| {
            let plan = outages(self.seed, &[(NetId::A, 200, 800)]);
            let until = SimTime(1_000_000_000);
            let mut serial = serial_cluster(N, self.seed, self.cfg, &plan);
            serial.advance_to(until);
            let want = cluster_digest(&serial);
            for threads in [1, 2] {
                let mut w = sharded_cluster(N, self.seed, self.cfg, &plan, threads);
                w.advance_to(until);
                let digest = cluster_digest(&w);
                if digest != want {
                    errors.push(format!(
                        "first second: ShardedWorld t={threads} digest {digest:#018x} != World {want:#018x}"
                    ));
                }
            }
        });

        if self.batched {
            tr.span("layer.io", |_| {
                layers.set("io.wire.roundtrip_ns", layers::wire_roundtrip_ns());
                match layers::live_failover() {
                    Ok(live) => {
                        layers.set("io.live.detect_ms_max", live.detect_ms_max);
                        layers.set("io.live.vs_des_ratio", live.vs_des_ratio);
                    }
                    Err(reason) => println!("note: io.live skipped: {reason}"),
                }
            });
        } else {
            // The same cluster with the stagger off: every pair's timers
            // share instants, so pops hit the wheel's sorted ready buffer.
            let ns = tr.span("layer.world.burst", |_| {
                let cfg = drs_bench::kernel::kernel_cfg(false);
                let mut w = World::new(ClusterSpec::new(N).seed(self.seed), |id| {
                    DrsDaemon::new(id, N, cfg)
                });
                let t = Instant::now();
                w.run_for(SimDuration::from_secs(2));
                t.elapsed().as_secs_f64() * 1e9 / w.kernel_stats().wheel.pops as f64
            });
            layers.set("sim.world.ns_per_event.burst", ns);
        }
        errors
    }
}
