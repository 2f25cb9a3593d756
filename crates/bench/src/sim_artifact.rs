//! The committed simulation benchmark: builds the
//! `BENCH_sim_survivability.json` artifact ([`SimArtifact`], schema
//! [`drs_harness::SCHEMA`], laid out by [`drs_obs::artifact::write`]).
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
    run_shootout, shootout_record, standard_shootout_scenarios, ProtocolConfigs, ProtocolLabel,
    ShootoutRow,
};
use drs_harness::{coord_seed, RunMode, SimArtifact};
use drs_obs::{Histogram, Row, Section};

use crate::e2e::{cell_record, run_cell, E2E_GRID};
use crate::trial::TrialBases;
use crate::BENCH_SEED;

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
    let mut artifact = SimArtifact::new(BENCH_SEED);

    let shootout = bench_shootout(mode);
    artifact.push(shootout_record(BENCH_SEED, &shootout));

    let mut bases = TrialBases::default();
    for &(n, f) in &E2E_GRID {
        // Cell master seeds mix the coordinates exactly like the analytic
        // sweep's cells, so any single cell reproduces in isolation.
        let master = coord_seed(BENCH_SEED, n as u64, f as u64);
        let cell = run_cell(&mut bases, n, f, E2E_TRIALS_PER_CELL, master, mode);
        artifact.push(cell_record(n, f, master, &cell));
    }

    artifact.push_section(failover_latency_section(&shootout));
    artifact.push_section(drs_probe_path_section(&shootout));
    artifact
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
    }
}
