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

use crate::e2e::{cell_record, run_cell, E2E_GRID};
use crate::BENCH_SEED;

/// Hosts in the shootout clusters.
pub const SHOOTOUT_HOSTS: usize = 8;

/// Replications per end-to-end grid cell.
pub const E2E_TRIALS_PER_CELL: usize = 16;

/// The committed protocol shootout: the three standard failure scenarios
/// × every protocol on [`SHOOTOUT_HOSTS`]-host clusters at the benchmark
/// daemon configurations, rows scenario-major in [`ProtocolLabel::ALL`]
/// order. The simulation artifact, the observability artifact and the
/// `proactive_vs_reactive` report all describe exactly these trials.
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

    artifact.push(shootout_record(BENCH_SEED, &bench_shootout(mode)));

    for &(n, f) in &E2E_GRID {
        // Cell master seeds mix the coordinates exactly like the analytic
        // sweep's cells, so any single cell reproduces in isolation.
        let master = coord_seed(BENCH_SEED, n as u64, f as u64);
        let cell = run_cell(n, f, E2E_TRIALS_PER_CELL, master, mode);
        artifact.push(cell_record(n, f, master, &cell));
    }

    artifact
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
        let json = a.to_json();
        assert!(json.contains("\"schema\": \"drs-bench-sim-survivability/v1\""));
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }
}
