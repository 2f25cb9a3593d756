//! Integration: the committed `BENCH_workload.json` artifact is exactly
//! what the fluid-workload benchmark regenerates — same bytes at any
//! `DRS_SIM_THREADS` — and the claims it pins hold structurally: the
//! kernel paid exactly one event per session transition, the byte
//! ledger balanced, and the million-session cell stayed inside its
//! fixed event budget.
//!
//! If an intentional change shifts the results, regenerate the artifact
//! (`cargo run --release -p drs-bench -- regen workload`) and
//! commit it alongside the change; this test then documents the new
//! ground truth. CI runs `regen` at 1 and 4 worker threads.

use std::sync::LazyLock;

use drs::obs::ObsArtifact;
use drs_bench::artifacts::pin;
use drs_bench::workload::{million_verdict, workload_bench_artifact};

/// Generated once per process and shared by the semantic tests.
static ARTIFACT: LazyLock<ObsArtifact> = LazyLock::new(workload_bench_artifact);

#[test]
fn committed_artifact_regenerates_byte_for_byte() {
    pin("workload");
}

#[test]
fn every_stats_row_pays_one_event_per_transition() {
    for section in ["slo", "million"] {
        let sec = ARTIFACT.get(section).expect(section);
        for row in &sec.rows {
            // Histogram rows carry no counters; only check stats rows.
            let Some(events) = row.get_count("kernel_session_events") else {
                continue;
            };
            assert_eq!(
                Some(events),
                row.get_count("transitions"),
                "{section}/{}: kernel events != engine transitions",
                row.id
            );
            assert_eq!(
                row.get_count("events_equal_transitions"),
                Some(1),
                "{section}/{}",
                row.id
            );
            assert_eq!(
                row.get_count("conserved"),
                Some(1),
                "{section}/{}: offered != delivered + shortfall + \
                 dropped + in_flight",
                row.id
            );
        }
    }
}

#[test]
fn scaling_ladder_leaves_event_count_invariant() {
    let sec = ARTIFACT.get("scaling").expect("scaling section");
    assert!(sec.rows.len() >= 3, "need the x1/x16/x256 ladder");
    for row in &sec.rows {
        assert_eq!(
            row.get_count("events_equal_base"),
            Some(1),
            "{}: multiplying per-session rate changed the event count",
            row.id
        );
        assert_eq!(row.get_count("conserved"), Some(1), "{}", row.id);
    }
}

#[test]
fn million_cell_holds_inside_its_event_budget() {
    let sec = ARTIFACT.get("million").expect("million section");
    let row = sec.rows.first().expect("million row");
    assert!(row.get_count("active").expect("active") >= 1_000_000);
    assert_eq!(row.get_count("within_budget"), Some(1));
    let v = million_verdict();
    assert!(v.holds(), "million verdict must hold: {v:?}");
}
