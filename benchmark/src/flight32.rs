//! `flight32`: N = 32, K = 2, batched monitor, flight recorder on with a
//! 2²² ring, hub A down during [3 s, 6 s), 10 s of virtual time, then the
//! merged log, the post-mortems and the Perfetto export in the harvest.
//!
//! The only workload where `obs::flight` / `obs::causal` do the work (the
//! same run with the recorder off is ~100× shorter); every other workload
//! runs flight-off and is this one's no-change control.

use std::time::Instant;

use drs_obs::causal::build_post_mortems;
use drs_obs::flight::to_perfetto;
use drs_sim::{NetId, SimTime};

use crate::check::{check_flight, check_kernel, check_outages, digest_cluster, Digest};
use crate::harness::{Layers, Rep, RepTimer, Workload};
use crate::layers;
use crate::scenario::{outages, paper_cfg, serial_cluster, Cluster, Outage};
use crate::trace::Trace;

const N: usize = 32;
const END: SimTime = SimTime(10_000_000_000);
const RING: usize = 1 << 22;

pub struct Flight32 {
    seed: u64,
    plan: Vec<Outage>,
    /// Host seconds of the latest repetition's run phase.
    on_run_s: f64,
}

impl Flight32 {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Flight32 {
            seed,
            plan: outages(seed, &[(NetId::A, 3000, 6000)]),
            on_run_s: 0.0,
        }
    }
}

impl Workload for Flight32 {
    fn warm_reps(&self) -> usize {
        1
    }

    fn rep(&mut self, tr: &mut Trace, traced: bool, layers: &mut Layers) -> Rep {
        let cfg = paper_cfg(true);
        let mut t = RepTimer::start();
        let mut w = t.setup(tr, |tr| {
            let mut w = tr.span("World::new", |_| {
                serial_cluster(N, self.seed, cfg, &self.plan)
            });
            tr.span("enable_flight", |_| w.enable_flight(RING));
            w
        });
        t.run(tr, "run", |tr| {
            // One slice: flight recording is interleaved with dispatch, so
            // its cost is read off the flight-off control run instead.
            tr.span("run.flight_on", |tr| {
                w.advance_to(END);
                tr.count("events", w.kernel().wheel.pops);
            });
        });
        self.on_run_s = tr.total_s("run.flight_on");
        let (log, report, perfetto_bytes) = t.run(tr, "harvest", |tr| {
            let log = tr.span("flight_log", |_| w.flight_log().expect("recorder enabled"));
            let report = tr.span("build_post_mortems", |_| build_post_mortems(&log));
            let bytes = tr.span("to_perfetto", |_| to_perfetto(&log).len());
            (log, report, bytes)
        });
        let mut d = Digest::default();
        t.run(tr, "harvest.digest", |_| {
            digest_cluster(&mut d, &w);
            d.u64(log.records.len() as u64);
            d.u64(report.failovers.len() as u64);
        });
        let mut errors = Vec::new();
        check_kernel(&w, &mut errors);
        check_outages(&w, &cfg, &self.plan, &mut errors);
        check_flight(&log, &report, &mut errors);

        if traced {
            let records = log.records.len() as f64;
            layers.set("sim.world.new_s", tr.total_s("World::new"));
            layers.set("sim.world.events", w.kernel().wheel.pops as f64);
            layers.set("obs.flight.records", records);
            layers.set("obs.flight.log_merge_s", tr.total_s("flight_log"));
            layers.set("obs.causal.build_s", tr.total_s("build_post_mortems"));
            layers.set("obs.flight.perfetto_s", tr.total_s("to_perfetto"));
            layers.set(
                "obs.flight.perfetto_bytes_per_record",
                perfetto_bytes as f64 / records,
            );
        }
        t.finish(d.finish(), errors)
    }

    fn layers(
        &mut self,
        tr: &mut Trace,
        _untraced_wall_s: f64,
        layers: &mut Layers,
    ) -> Vec<String> {
        let off_s = tr.span("control.flight_off", |_| {
            let mut w = serial_cluster(N, self.seed, paper_cfg(true), &self.plan);
            let t = Instant::now();
            w.advance_to(END);
            t.elapsed().as_secs_f64()
        });
        layers.set("obs.flight.overhead_ratio", self.on_run_s / off_s);
        tr.span("layer.flight", |_| {
            layers.set("obs.flight.ns_per_record", layers::flight_record_ns());
            layers.set("obs.flight.pin_ns", layers::flight_pin_ns());
        });
        Vec::new()
    }
}
