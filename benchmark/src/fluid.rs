//! `fluid_million`: the `bench::workload::run_million` scenario — 40
//! hosts × 26 000 closed-loop users, a 0.5 s hub outage in the middle of
//! a 2 s window, `ShardedWorld` with 4 shards on **one** thread; about
//! 1.1 M session transitions and 570 MB resident.
//!
//! `sim::workload` (`WorkloadCore` + the `FluidEngine` water-fill) does
//! nearly all the work and probe traffic almost none. It also runs the
//! sharded driver single-threaded, so a change that helps `shard1024` at
//! two threads but taxes the one-thread path shows here.

use std::time::Instant;

use drs_bench::workload::{MILLION_HOSTS, MILLION_PER_HOST, WORKLOAD_SHARDS};
use drs_core::DrsDaemon;
use drs_harness::stream_seed;
use drs_sim::{
    ArrivalProcess, ClassSpec, ClusterSpec, HoldingDist, NetId, ShardedWorld, SimTime, WorkloadSpec,
};

use crate::check::{check_kernel, check_outages, digest_cluster, digest_workload, Digest};
use crate::harness::{Layers, Rep, RepTimer, Workload};
use crate::scenario::{fault_plan, outages, paper_cfg, Outage};
use crate::trace::Trace;

const END: SimTime = SimTime(2_000_000_000);

pub struct FluidMillion {
    seed: u64,
    plan: Vec<Outage>,
}

impl FluidMillion {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FluidMillion {
            seed: stream_seed(seed, 0),
            plan: outages(seed, &[(NetId::A, 1000, 1500)]),
        }
    }

    fn cluster(&self) -> ShardedWorld<DrsDaemon> {
        let (n, cfg) = (MILLION_HOSTS, paper_cfg(false));
        let mut w = ShardedWorld::with_topology(
            ClusterSpec::new(n).seed(self.seed),
            WORKLOAD_SHARDS,
            1,
            |id| DrsDaemon::new(id, n, cfg),
        );
        w.schedule_faults(fault_plan(&self.plan));
        w
    }

    fn users() -> WorkloadSpec {
        WorkloadSpec {
            arrivals: ArrivalProcess::Closed {
                per_host: MILLION_PER_HOST,
                think_mean_ns: 250_000_000,
            },
            holding: HoldingDist::Exponential {
                mean_ns: 60_000_000_000,
            },
            classes: vec![ClassSpec { rate_bps: 64_000 }],
            horizon: END,
        }
    }
}

impl Workload for FluidMillion {
    fn warm_reps(&self) -> usize {
        2
    }

    fn rep(&mut self, tr: &mut Trace, traced: bool, layers: &mut Layers) -> Rep {
        let mut t = RepTimer::start();
        let mut w = t.setup(tr, |tr| {
            let mut w = tr.span("ShardedWorld::with_topology", |_| self.cluster());
            tr.span("enable_workload", |_| w.enable_workload(Self::users()));
            w
        });
        t.run(tr, "run", |tr| {
            // Cut at the outage bounds when traced; one call otherwise.
            let cuts = if traced {
                vec![
                    ("run.steady", self.plan[0].fail),
                    ("run.outage", self.plan[0].repair),
                    ("run.recovery", END),
                ]
            } else {
                vec![("run.all", END)]
            };
            for (name, until) in cuts {
                let before = w.workload_events();
                tr.span(name, |tr| {
                    w.run_until(until);
                    tr.count("transitions", w.workload_events() - before);
                });
            }
        });
        let mut d = Digest::default();
        t.run(tr, "harvest", |_| {
            digest_cluster(&mut d, &w);
            digest_workload(&mut d, w.workload_stats().expect("workload enabled"));
        });

        let stats = w.workload_stats().expect("workload enabled");
        let mut errors = Vec::new();
        check_kernel(&w, &mut errors);
        check_outages(&w, &paper_cfg(false), &self.plan, &mut errors);
        if !w
            .workload_engine()
            .expect("workload enabled")
            .conservation()
            .holds()
        {
            errors.push("workload ledger does not conserve offered bytes".to_string());
        }
        if w.workload_events() != stats.transitions {
            errors.push(format!(
                "{} session events for {} transitions",
                w.workload_events(),
                stats.transitions
            ));
        }
        if traced {
            layers.set("sim.world.new_s", tr.total_s("ShardedWorld::with_topology"));
            layers.set("sim.workload.enable_s", tr.total_s("enable_workload"));
            layers.set("sim.workload.transitions", stats.transitions as f64);
            let ss = w.shard_stats();
            layers.set(
                "sim.world.events",
                ss.events_per_shard.iter().sum::<u64>() as f64,
            );
            layers.set("sim.shard.epochs", ss.epochs as f64);
            layers.set("sim.shard.lookahead_ns", ss.lookahead_ns as f64);
        }
        t.finish(d.finish(), errors)
    }

    fn layers(&mut self, tr: &mut Trace, untraced_wall_s: f64, layers: &mut Layers) -> Vec<String> {
        // The same cluster and faults with no sessions: what is left is
        // probe traffic and the sharded driver.
        let bare_s = tr.span("control.no_workload", |_| {
            let mut w = self.cluster();
            let t = Instant::now();
            w.run_until(END);
            t.elapsed().as_secs_f64()
        });
        let transitions = layers.get("sim.workload.transitions").unwrap_or(1.0);
        layers.set("sim.workload.share", 1.0 - bare_s / untraced_wall_s);
        layers.set(
            "sim.workload.ns_per_transition",
            (untraced_wall_s - bare_s) * 1e9 / transitions,
        );
        Vec::new()
    }
}
