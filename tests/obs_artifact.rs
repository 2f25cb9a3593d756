//! Integration: the committed `BENCH_observability.json` artifact is
//! exactly what the instrumented suite regenerates — same bytes, serial
//! or parallel — and its probe-overhead section stays within the
//! Figure 1 bandwidth budget in every cell.
//!
//! If an intentional change shifts the results, regenerate the artifact
//! (`cargo run --release -p drs-bench -- regen obs`) and commit it
//! alongside the change; this test then documents the new ground truth.
//! CI runs the same `regen`.

use std::sync::LazyLock;

use drs::harness::RunMode;
use drs::obs::ObsArtifact;
use drs_bench::artifacts::{find, Artifact};
use drs_bench::obs_artifact::obs_bench_artifact;

fn entry() -> &'static Artifact {
    find("obs").expect("table entry")
}

/// Each generated once per process: the table's text for the two pins,
/// the typed value for the semantic tests.
static PARALLEL: LazyLock<String> = LazyLock::new(|| entry().render(RunMode::Parallel));
static ARTIFACT: LazyLock<ObsArtifact> = LazyLock::new(|| obs_bench_artifact(RunMode::Parallel));

#[test]
fn committed_artifact_regenerates_byte_for_byte() {
    entry()
        .check(&PARALLEL)
        .unwrap_or_else(|why| panic!("{why}"));
}

#[test]
fn serial_and_parallel_artifacts_are_byte_identical() {
    assert!(*PARALLEL == entry().render(RunMode::Serial));
}

#[test]
fn every_probe_overhead_cell_stays_within_budget() {
    let overhead = ARTIFACT.get("probe_overhead").expect("overhead section");
    assert!(!overhead.rows.is_empty());
    for row in &overhead.rows {
        assert_eq!(
            row.get_count("within_budget"),
            Some(1),
            "{}: probe bytes exceeded the Figure 1 budget",
            row.id
        );
        let bytes_a = row.get_count("probe_bytes_a").expect("bytes_a");
        let budget = row.get_real("budget_bytes").expect("budget");
        assert!(bytes_a > 0, "{}: probes observed", row.id);
        assert!(bytes_a as f64 <= budget, "{}: measured ≤ budgeted", row.id);
    }
}

#[test]
fn goodput_cells_show_monotone_probe_budget_payoff() {
    // The committed section must carry the claim it was built to pin:
    // every cell's fluid ledger balanced exactly, every failover both
    // stalled and resumed sessions, and a bigger probe budget never
    // lengthened the worst session interruption.
    let sec = ARTIFACT
        .get("goodput_under_failover")
        .expect("goodput section");
    assert!(sec.rows.len() >= 2, "need a ladder to compare budgets");
    let mut prev_worst: Option<u64> = None;
    for row in &sec.rows {
        assert_eq!(row.get_count("conserved"), Some(1), "{}", row.id);
        assert!(
            row.get_count("stall_windows").unwrap_or(0) > 0,
            "{}",
            row.id
        );
        assert!(
            row.get_count("resumed_windows").unwrap_or(0) > 0,
            "{}",
            row.id
        );
        let worst = row.get_count("worst_interruption_ns").expect("worst");
        if let Some(p) = prev_worst {
            assert!(
                worst <= p,
                "{}: bigger budget, longer worst interruption ({worst} > {p})",
                row.id
            );
        }
        prev_worst = Some(worst);
    }
}

#[test]
fn empty_histograms_serialize_as_null_not_zero() {
    // The static protocol never fails over, so its failover-latency
    // histogram is empty — the committed artifact must carry `null`
    // quantiles for it, never a fabricated 0 ns.
    let json = entry().committed().expect("committed file");
    let static_row = json
        .lines()
        .find(|l| l.contains("\"id\": \"static\""))
        .expect("static protocol row present");
    assert!(static_row.contains("\"count\": 0"));
    for q in ["mean_ns", "min_ns", "max_ns", "p50_ns", "p99_ns", "p999_ns"] {
        assert!(
            static_row.contains(&format!("\"{q}\": null")),
            "static row must report {q} as null, got: {static_row}"
        );
    }
    assert!(
        !static_row.contains("_ns\": 0"),
        "no quantile of an empty histogram may print as 0"
    );
}
