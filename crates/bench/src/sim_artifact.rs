//! The committed simulation benchmark: builds the
//! `BENCH_sim_survivability.json` artifact ([`SimArtifact`], schema
//! [`SCHEMA`], streamed from its records by
//! [`drs_obs::artifact::write`]).
//!
//! Two experiment families run through the harness under the fixed master
//! seed [`crate::BENCH_SEED`]:
//!
//! * the **protocol shootout** — the three standard failure scenarios ×
//!   every protocol, with full event traces (Table: proactive vs
//!   reactive), and
//! * the **end-to-end survivability grid** — [`crate::e2e::E2E_GRID`]
//!   cells of DES-vs-Equation-1 cross-check trials.
//!
//! Each trial becomes one [`TrialRecord`]: its id, seed, named metrics
//! and its trace of typed `(SimTime, TrialEvent)` pairs, which
//! [`SimArtifact::to_json`] renders — label and detail — exactly once,
//! straight into the output.
//!
//! Two sections summarise the shootout's instrumentation across its
//! trials:
//!
//! * **`failover_latency`** — per-protocol delivered-latency histograms
//!   merged across the three scenarios. Static routing delivers nothing
//!   in these scenarios, so its row is the committed regression for the
//!   "no samples ≠ 0 ns" rule: count 0 and `null` quantiles.
//! * **`drs_probe_path`** — the DRS daemon's probe-path histograms
//!   (probe gap, probe RTT, failover detection, reroute completion)
//!   merged across every host of every DRS shootout trial, plus the
//!   probe bytes those hosts originated.
//!
//! Everything on this path is free of random draws: failure sets come
//! from combinadic unranking, the DRS gateway policy defaults to
//! first-offer, and the benchmark clusters run without frame loss. The
//! artifact is therefore byte-reproducible on any machine and any thread
//! count — the property CI enforces by regenerating and diffing it.

use drs_baselines::compare::{
    run_shootout, standard_shootout_scenarios, ProtocolConfigs, ProtocolLabel, ShootoutRow,
    TrialEvent,
};
use drs_harness::{coord_seed, RunMode};
use drs_obs::artifact::{sections_capacity, write, Field, FIELD_BYTES};
use drs_obs::{Histogram, Row, Section};
use drs_sim::SimTime;

use crate::e2e::{run_cell, E2E_GRID};
use crate::trial::{Trial, TrialBases};
use crate::BENCH_SEED;

/// Schema tag written into the simulation artifact.
pub const SCHEMA: &str = "drs-bench-sim-survivability/v2";

/// The artifact row for one completed trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Trial identity (`scenario/protocol` or `tNN`), unique within its
    /// experiment.
    pub id: String,
    /// The derived per-trial seed the trial ran under.
    pub seed: u64,
    /// Named measurements, serialized as a JSON object in this order; a
    /// measurement the trial could not produce is
    /// [`drs_obs::FieldValue::Missing`]; read them with
    /// [`drs_obs::artifact::get_count`].
    pub metrics: Vec<Field>,
    /// The trial's trace, sorted by time (may be empty).
    pub events: Vec<(SimTime, TrialEvent)>,
}

/// A completed experiment: its trials in trial order.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Experiment name.
    pub name: String,
    /// The experiment's master seed.
    pub master_seed: u64,
    /// Per-trial rows, in trial order.
    pub trials: Vec<TrialRecord>,
}

/// The whole artifact: every experiment of one benchmark run, and
/// sections of rows summarising them.
#[derive(Debug, Clone, PartialEq)]
pub struct SimArtifact {
    /// The benchmark master seed the experiments derived theirs from.
    pub seed: u64,
    /// Experiment records, in run order.
    pub experiments: Vec<ExperimentRecord>,
    /// Summaries across trials (merged histograms), in order.
    pub sections: Vec<Section>,
}

impl SimArtifact {
    /// The first section with this name, if any.
    #[must_use]
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// The first experiment with this name, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&ExperimentRecord> {
        self.experiments.iter().find(|e| e.name == name)
    }

    /// Serializes to the [`SCHEMA`] layout: each experiment's `name`,
    /// `master_seed` and one `trials` row per line, each row an `id`, a
    /// `seed`, a `metrics` object and an `events` list of `at_ns`, `kind`
    /// ([`TrialEvent::label`]) and `detail` (its `Display`); then the
    /// `sections`, as in the observability artifact — byte-identical
    /// across runs, thread counts and machines for a fixed artifact.
    #[must_use]
    pub fn to_json(&self) -> String {
        // An event is at most ~100 B (a gateway route's detail).
        let trial = |t: &TrialRecord| {
            96 + t.id.len() + FIELD_BYTES * t.metrics.len() + 128 * t.events.len()
        };
        let capacity = sections_capacity(&self.sections)
            + self
                .experiments
                .iter()
                .map(|exp| 128 + exp.name.len() + exp.trials.iter().map(trial).sum::<usize>())
                .sum::<usize>();
        write(SCHEMA, self.seed, capacity, |top| {
            top.blocks("experiments", &self.experiments, |block, exp| {
                block
                    .field("name", exp.name.as_str())
                    .field("master_seed", exp.master_seed)
                    .list("trials", &exp.trials, |o, t| {
                        debug_assert!(
                            t.events.is_sorted_by_key(|&(at, _)| at),
                            "trial {}: events must be sorted by time before serialization",
                            t.id
                        );
                        o.field("id", t.id.as_str())
                            .field("seed", t.seed)
                            .fields("metrics", &t.metrics)
                            .list("events", &t.events, |o, (at, e)| {
                                o.field("at_ns", at.0)
                                    .field("kind", e.label())
                                    .display("detail", e);
                            });
                    });
            });
            top.sections(&self.sections);
        })
    }
}

/// Hosts in the shootout clusters.
pub const SHOOTOUT_HOSTS: usize = 8;

/// Replications per end-to-end grid cell.
pub const E2E_TRIALS_PER_CELL: usize = 16;

/// The committed protocol shootout: the three standard failure scenarios
/// × every protocol on [`SHOOTOUT_HOSTS`]-host clusters at the benchmark
/// daemon configurations, rows scenario-major in [`ProtocolLabel::ALL`]
/// order. The simulation artifact and the `proactive_vs_reactive` report
/// both describe exactly these trials.
#[must_use]
pub fn bench_shootout(mode: RunMode) -> Vec<ShootoutRow> {
    run_shootout(
        BENCH_SEED,
        &standard_shootout_scenarios(SHOOTOUT_HOSTS),
        &ProtocolLabel::ALL,
        &ProtocolConfigs::bench_defaults(),
        mode,
    )
}

/// Builds the full simulation benchmark artifact under `mode`.
///
/// [`RunMode::Serial`] and [`RunMode::Parallel`] produce identical
/// artifacts; `regen` asserts this on every run before writing the file.
#[must_use]
pub fn bench_artifact(mode: RunMode) -> SimArtifact {
    let shootout = bench_shootout(mode);
    let mut experiments = vec![shootout_record(BENCH_SEED, &shootout)];

    let mut bases = TrialBases::default();
    for &(n, f) in &E2E_GRID {
        // Cell master seeds mix the coordinates exactly like the analytic
        // sweep's cells, so any single cell reproduces in isolation.
        let master = coord_seed(BENCH_SEED, n as u64, f as u64);
        let cell = run_cell(&mut bases, n, f, E2E_TRIALS_PER_CELL, master, mode);
        experiments.push(cell_record(n, f, master, &cell));
    }

    SimArtifact {
        seed: BENCH_SEED,
        experiments,
        sections: vec![
            failover_latency_section(&shootout),
            drs_probe_path_section(&shootout),
        ],
    }
}

/// Folds shootout rows into the artifact form: one [`TrialRecord`] per
/// row, id `scenario/protocol`, with the application counters as metrics
/// and the event trace attached.
#[must_use]
pub fn shootout_record(master_seed: u64, rows: &[ShootoutRow]) -> ExperimentRecord {
    let trials = rows
        .iter()
        .map(|row| {
            let r = &row.result;
            TrialRecord {
                id: format!("{}/{}", row.scenario, row.label.key()),
                seed: row.seed,
                metrics: vec![
                    Field::new("sent", r.sent),
                    Field::new("delivered", r.delivered),
                    Field::new("retransmits", r.retransmits),
                    Field::new("gave_up", r.gave_up),
                    Field::new("delivery_ratio", r.delivery_ratio()),
                    Field::new("max_latency_ns", r.max_latency.map(|d| d.0)),
                    Field::new("outage_ns", r.outage.map(|d| d.0)),
                ],
                events: row.events.clone(),
            }
        })
        .collect();
    ExperimentRecord {
        name: "protocol-shootout".to_string(),
        master_seed,
        trials,
    }
}

/// Folds one end-to-end `(n, f)` cell's trials into the artifact form.
#[must_use]
pub fn cell_record(n: usize, f: usize, master_seed: u64, rows: &[Trial]) -> ExperimentRecord {
    let trials = rows
        .iter()
        .enumerate()
        .map(|(i, t)| TrialRecord {
            id: format!("t{i:02}"),
            seed: t.seed,
            metrics: vec![
                Field::new("predicted", u64::from(t.predicted)),
                Field::new("delivered", u64::from(t.delivered)),
                Field::new("agree", u64::from(t.agrees())),
            ],
            events: t.events.clone(),
        })
        .collect();
    ExperimentRecord {
        name: format!("e2e/n{n}_f{f}"),
        master_seed,
        trials,
    }
}

/// Per protocol, the flows delivered and their latency histogram, merged
/// across the shootout's scenarios.
fn failover_latency_section(rows: &[ShootoutRow]) -> Section {
    let mut section = Section::new("failover_latency");
    for label in ProtocolLabel::ALL {
        let mut delivered = 0;
        let mut latency = Histogram::new();
        for row in rows.iter().filter(|r| r.label == label) {
            delivered += row.result.delivered;
            latency.merge(&row.result.latency);
        }
        section.push(
            Row::new(label.key())
                .count("delivered", delivered)
                .hist(&latency),
        );
    }
    section
}

/// The DRS daemons' probe-path histograms and probe bytes, merged across
/// every host of every DRS shootout trial.
fn drs_probe_path_section(rows: &[ShootoutRow]) -> Section {
    let mut obs = drs_core::ProbeObs::default();
    for row in rows.iter().filter(|r| r.label == ProtocolLabel::Drs) {
        obs.merge(&row.probe_obs);
    }
    let mut section = Section::new("drs_probe_path");
    for (id, h) in [
        ("probe_gap", &obs.probe_gap),
        ("probe_rtt", &obs.probe_rtt),
        ("failover_detect", &obs.failover_detect),
        ("reroute_complete", &obs.reroute_complete),
    ] {
        section.push(Row::new(id).hist(h));
    }
    section.push(Row::new("probe_bytes").count("bytes", obs.probe_bytes));
    section
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_has_every_experiment() {
        // Serial only (cheap): shape checks; mode equivalence is covered
        // by `regen` and the workspace integration test.
        let a = bench_artifact(RunMode::Serial);
        assert_eq!(a.seed, BENCH_SEED);
        assert!(a.get("protocol-shootout").is_some());
        for (n, f) in E2E_GRID {
            let exp = a.get(&format!("e2e/n{n}_f{f}")).expect("cell present");
            assert_eq!(exp.trials.len(), E2E_TRIALS_PER_CELL);
        }
        let shootout = a.get("protocol-shootout").unwrap();
        assert_eq!(shootout.trials.len(), 3 * ProtocolLabel::ALL.len());
        for name in ["failover_latency", "drs_probe_path"] {
            assert!(a.section(name).is_some(), "{name} section present");
        }
        let json = a.to_json();
        assert!(json.contains("\"schema\": \"drs-bench-sim-survivability/v2\""));
        assert!(!json.contains("NaN") && !json.contains("inf"));
        assert!(a.get("absent").is_none());
    }

    #[test]
    fn shootout_is_mode_independent_and_grid_ordered() {
        use drs_baselines::compare::{NamedScenario, ScenarioSpec};
        use drs_core::DrsConfig;
        use drs_sim::fault::SimComponent;
        use drs_sim::{NetId, SimDuration};

        let scenarios = vec![NamedScenario {
            name: "hub_a",
            spec: ScenarioSpec::standard(4, 0, vec![SimComponent::Hub(NetId::A)]),
        }];
        let labels = [ProtocolLabel::Drs, ProtocolLabel::Static];
        let cfgs = ProtocolConfigs {
            drs: DrsConfig::default()
                .probe_timeout(SimDuration::from_millis(50))
                .probe_interval(SimDuration::from_millis(200)),
            ..ProtocolConfigs::bench_defaults()
        };
        let serial = run_shootout(3, &scenarios, &labels, &cfgs, RunMode::Serial);
        let parallel = run_shootout(3, &scenarios, &labels, &cfgs, RunMode::Parallel);
        assert_eq!(serial.len(), 2);
        assert_eq!(serial[0].label, ProtocolLabel::Drs);
        assert_eq!(serial[1].label, ProtocolLabel::Static);
        assert_eq!(
            shootout_record(3, &serial).trials,
            shootout_record(3, &parallel).trials
        );
        // Different trials run under different derived seeds.
        assert_ne!(serial[0].seed, serial[1].seed);
    }

    /// The writer's JSON is deterministic and structurally sane for any
    /// experiment run through the harness: one row per trial, no NaN/inf
    /// tokens, the same bytes serial and on four workers.
    #[test]
    fn artifact_json_is_deterministic_and_well_formed() {
        use drs_core::{DrsEventKind, Route};
        use drs_harness::{Experiment, TrialCtx};
        use drs_obs::rng::Rng;
        use drs_sim::{NetId, NodeId};

        let body = |ctx: TrialCtx, spec: &u64| {
            let mixed = ctx.seed ^ spec;
            let route = DrsEventKind::RouteChanged {
                dst: NodeId((mixed % 7) as u32),
                route: Route::Direct(NetId::B),
            };
            TrialRecord {
                id: format!("trial-{}", ctx.index),
                seed: ctx.seed,
                metrics: vec![
                    Field::new("spec", *spec),
                    Field::new("mixed", mixed as f64 / u64::MAX as f64),
                ],
                events: vec![(SimTime(mixed % 1_000), TrialEvent::Drs(route))],
            }
        };
        for case in 0..256 {
            let mut rng = Rng::seed_from_u64(0x4A12_0E55 ^ case);
            let master = rng.next_u64();
            let specs: Vec<u64> = (0..rng.gen_range(0usize..20))
                .map(|_| rng.next_u64())
                .collect();
            let ctx = format!("case {case}: master={master} specs={specs:?}");
            let exp = Experiment::with_trials("json", master, specs);
            let json = |trials| {
                SimArtifact {
                    seed: master,
                    experiments: vec![ExperimentRecord {
                        name: exp.name.clone(),
                        master_seed: master,
                        trials,
                    }],
                    sections: Vec::new(),
                }
                .to_json()
            };
            let serial = json(exp.run(RunMode::Serial, body));
            assert_eq!(serial, json(exp.run_parallel_on(4, body)), "{ctx}");
            let rows = serial.matches("\"id\": \"trial-").count();
            assert_eq!(rows, exp.trials.len(), "{ctx}");
            assert!(!serial.contains("NaN") && !serial.contains("inf"), "{ctx}");
        }
    }
}
