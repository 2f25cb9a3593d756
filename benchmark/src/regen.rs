//! `artifact_regen`: regenerate in-process, in serial mode, the six light
//! committed artifacts and serialise them. `BENCH_workload.json` is left
//! to `fluid_million` (its million cell *is* that workload) and
//! `BENCH_kernel.json` is excluded (its 8-thread N = 1024 K = 4 grid
//! alone exceeds the time budget).
//!
//! This is the contributor's turnaround, and the simulator used the
//! opposite way from the big runs: hundreds of tiny `World::new` plus
//! short runs through `harness` / `baselines`, so set-up cost,
//! `obs::jsonfmt` and the fan-out dominate. A change that pre-sizes for
//! big runs and bloats construction shows here.
//!
//! `--seed` is ignored by definition: the committed artifacts fix
//! `drs_bench::BENCH_SEED`.

use std::hint::black_box;
use std::time::Instant;

use drs_analytic::{run_sweep, SweepConfig};
use drs_bench::{
    flight, knet, obs_artifact, sim_artifact, topology_zoo, BENCH_JSON, BENCH_SEED,
    FLIGHT_BENCH_JSON, KNET_BENCH_JSON, OBS_BENCH_JSON, SIM_BENCH_JSON, TOPOLOGY_BENCH_JSON,
};
use drs_harness::RunMode;

use crate::check::{check_artifact, mask_sampled_cells, Digest};
use crate::harness::{Layers, Rep, RepTimer, Workload};
use crate::layers;
use crate::trace::Trace;

pub struct ArtifactRegen;

/// One committed artifact and how to regenerate it.
struct Artifact {
    span: &'static str,
    /// The committed file, relative to the repository root.
    file: &'static str,
    /// Per-layer metric that receives the regeneration time.
    metric: &'static str,
    generate: fn() -> String,
}

const fn artifact(
    span: &'static str,
    file: &'static str,
    metric: &'static str,
    generate: fn() -> String,
) -> Artifact {
    Artifact {
        span,
        file,
        metric,
        generate,
    }
}

const ARTIFACTS: [Artifact; 6] = [
    artifact("regen.sweep", BENCH_JSON, "bench.regen.sweep_s", || {
        run_sweep(&SweepConfig::bench_grid(BENCH_SEED)).to_json()
    }),
    artifact("regen.sim", SIM_BENCH_JSON, "bench.regen.sim_s", || {
        sim_artifact::bench_artifact(RunMode::Serial).to_json()
    }),
    artifact("regen.knet", KNET_BENCH_JSON, "bench.regen.knet_s", || {
        knet::bench_artifact(BENCH_SEED, RunMode::Serial).to_json()
    }),
    artifact(
        "regen.topology",
        TOPOLOGY_BENCH_JSON,
        "bench.regen.topology_s",
        || topology_zoo::bench_artifact(BENCH_SEED, RunMode::Serial).to_json(),
    ),
    artifact("regen.obs", OBS_BENCH_JSON, "bench.regen.obs_s", || {
        obs_artifact::obs_bench_artifact(RunMode::Serial).to_json()
    }),
    artifact(
        "regen.flight",
        FLIGHT_BENCH_JSON,
        "bench.regen.flight_s",
        || flight::flight_bench_artifact().to_json_with_schema(flight::FLIGHT_SCHEMA),
    ),
];

impl Workload for ArtifactRegen {
    fn warm_reps(&self) -> usize {
        1
    }

    fn rep(&mut self, tr: &mut Trace, traced: bool, layers: &mut Layers) -> Rep {
        let mut t = RepTimer::start();
        let mut errors = Vec::new();
        // The inputs of this workload are the committed files the output
        // is compared with; the working directory is the repository root.
        let committed: Vec<String> = t.setup(tr, |_| {
            ARTIFACTS
                .iter()
                .map(|a| {
                    std::fs::read_to_string(a.file).unwrap_or_else(|e| {
                        errors.push(format!("cannot read committed {}: {e}", a.file));
                        String::new()
                    })
                })
                .collect()
        });
        let regenerated: Vec<String> = t.run(tr, "run", |tr| {
            ARTIFACTS
                .iter()
                .map(|a| tr.span(a.span, |_| (a.generate)()))
                .collect()
        });
        let mut d = Digest::default();
        t.run(tr, "harvest", |_| {
            for json in &regenerated {
                d.bytes(json.as_bytes());
            }
        });

        for (a, (new, old)) in ARTIFACTS.iter().zip(regenerated.iter().zip(&committed)) {
            if a.file == TOPOLOGY_BENCH_JSON {
                let (new, old) = (mask_sampled_cells(new), mask_sampled_cells(old));
                check_artifact(a.file, &new, &old, &mut errors);
            } else {
                check_artifact(a.file, new, old, &mut errors);
            }
        }
        if traced {
            for a in &ARTIFACTS {
                layers.set(a.metric, tr.total_s(a.span));
            }
            let bytes: usize = regenerated.iter().map(String::len).sum();
            layers.set("bench.regen.json_bytes", bytes as f64);
        }
        t.finish(d.finish(), errors)
    }

    fn layers(
        &mut self,
        tr: &mut Trace,
        _untraced_wall_s: f64,
        layers: &mut Layers,
    ) -> Vec<String> {
        tr.span("layer.jsonfmt", |_| {
            let artifact = sim_artifact::bench_artifact(RunMode::Serial);
            let t = Instant::now();
            let mut bytes = 0usize;
            for _ in 0..20 {
                bytes += black_box(artifact.to_json()).len();
            }
            layers.set(
                "obs.jsonfmt.bytes_per_s",
                bytes as f64 / t.elapsed().as_secs_f64(),
            );
        });
        tr.span("layer.hist", |_| {
            layers.set("obs.hist.ns_per_record", layers::hist_record_ns());
            layers.set("obs.hist.merge_ns", layers::hist_merge_ns());
        });
        tr.span("layer.fanout", |_| {
            layers.set("harness.fanout.trials_per_s", layers::fanout_trials_per_s());
        });
        Vec::new()
    }
}
