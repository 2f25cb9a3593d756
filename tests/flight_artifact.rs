//! Integration: the committed `BENCH_flight.json` artifact is exactly
//! what the causal flight recorder regenerates — same bytes at any
//! `DRS_SIM_THREADS` — and every reconstructed failover chain in it is
//! complete: no orphaned cause refs, no evicted ancestors, and a
//! timestamp-only decomposition that reproduces the daemons'
//! failover-latency histogram samples 100% matched.
//!
//! If an intentional change shifts the results, regenerate the artifact
//! (`cargo run --release -p drs-bench -- regen flight`) and commit
//! it alongside the change; this test then documents the new ground
//! truth. CI runs `regen` at 1 and 4 worker threads.

use std::sync::LazyLock;

use drs::obs::ObsArtifact;
use drs_bench::artifacts::pin;
use drs_bench::flight::{flight_bench_artifact, flight_verdict};

/// Generated once per process and shared by the semantic tests.
static ARTIFACT: LazyLock<ObsArtifact> = LazyLock::new(flight_bench_artifact);

#[test]
fn committed_artifact_regenerates_byte_for_byte() {
    pin("flight");
}

#[test]
fn every_cell_keeps_complete_causal_chains() {
    let cells = ARTIFACT.get("flight_cells").expect("flight_cells section");
    assert!(!cells.rows.is_empty());
    for row in &cells.rows {
        assert_eq!(
            row.get_count("dropped"),
            Some(0),
            "{}: the bounded ring evicted records",
            row.id
        );
    }
    let chains = ARTIFACT
        .get("causal_chains")
        .expect("causal_chains section");
    for row in &chains.rows {
        let failovers = row.get_count("failovers").expect("failovers");
        assert!(failovers > 0, "{}: fault schedule must fail over", row.id);
        assert_eq!(row.get_count("orphan_refs"), Some(0), "{}", row.id);
        assert_eq!(row.get_count("complete"), Some(failovers), "{}", row.id);
        assert_eq!(
            row.get_count("matched_reroute"),
            Some(failovers),
            "{}: every chain's reroute delta must equal the daemon's \
             recorded sample",
            row.id
        );
    }
}

#[test]
fn decomposition_rows_match_probe_observability() {
    let decomp = ARTIFACT
        .get("latency_decomposition")
        .expect("latency_decomposition section");
    assert!(!decomp.rows.is_empty());
    for row in &decomp.rows {
        assert_eq!(
            row.get_count("matches_probe_obs"),
            Some(1),
            "{}: flight-derived histogram != probe-obs histogram",
            row.id
        );
        assert!(row.get_count("count").expect("count") > 0, "{}", row.id);
    }
}

#[test]
fn verdict_reports_full_match() {
    let v = flight_verdict();
    assert!(
        v.all_matched(),
        "flight verdict must be fully matched: {v:?}"
    );
}
