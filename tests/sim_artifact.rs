//! Integration: the committed `BENCH_sim_survivability.json` artifact is
//! exactly what `drs_bench::sim_artifact` regenerates — same bytes, serial or parallel
//! — its traces tell complete stories, and its shootout sections write
//! an empty histogram as `null`, not 0.
//!
//! If an intentional change shifts the simulation results, regenerate the
//! artifact (`cargo run --release -p drs-bench -- regen sim`) and
//! commit it alongside the change; this test then documents the new
//! ground truth. CI runs the same `regen`.

use std::sync::LazyLock;

use drs::baselines::TrialEvent;
use drs::core::DrsEventKind;
use drs::harness::RunMode;
use drs::obs::artifact::get_count;
use drs_bench::artifacts::{find, Artifact};
use drs_bench::sim_artifact::{bench_artifact, SimArtifact};

fn entry() -> &'static Artifact {
    find("sim").expect("table entry")
}

/// Each generated once per process: the table's text for the two pins,
/// the typed value for the semantic test.
static PARALLEL: LazyLock<String> = LazyLock::new(|| entry().render(RunMode::Parallel));
static ARTIFACT: LazyLock<SimArtifact> = LazyLock::new(|| bench_artifact(RunMode::Parallel));

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
fn artifact_traces_tell_a_complete_story() {
    // Every shootout trial accounts for each sent flow with a terminal
    // event, and every e2e trial records its fault injections.
    let shootout = ARTIFACT.get("protocol-shootout").expect("shootout runs");
    for t in &shootout.trials {
        let sent = get_count(&t.metrics, "sent").expect("sent metric");
        let terminal = t
            .events
            .iter()
            .filter(|(_, e)| matches!(e, TrialEvent::Delivered { .. } | TrialEvent::GaveUp(_)))
            .count() as u64;
        assert_eq!(
            terminal, sent,
            "{}: every flow ends in a terminal event",
            t.id
        );
    }
    let e2e_experiments: Vec<_> = ARTIFACT
        .experiments
        .iter()
        .filter(|e| e.name.starts_with("e2e/"))
        .collect();
    assert!(!e2e_experiments.is_empty(), "e2e grid present");
    for exp in e2e_experiments {
        for t in &exp.trials {
            let faults = t
                .events
                .iter()
                .filter(|(_, e)| matches!(e, TrialEvent::Fault(_)))
                .count();
            assert!(faults > 0, "{}/{}: fault trace recorded", exp.name, t.id);
        }
    }
}

#[test]
fn artifact_traces_cover_the_event_vocabulary() {
    // The trace-event tallies live here, trial by trial: every kind the
    // shootout or the e2e grid is known to produce must appear. The kinds
    // no committed trial holds (`link_up`, `discovery_failed`, a late
    // delivery) are pinned by `drs-baselines`' rendering table.
    let seen: Vec<TrialEvent> = ARTIFACT
        .experiments
        .iter()
        .flat_map(|exp| &exp.trials)
        .flat_map(|t| &t.events)
        .map(|&(_, e)| e)
        .collect();
    let committed = |is: fn(&TrialEvent) -> bool| seen.iter().any(is);
    assert!(committed(|e| matches!(e, TrialEvent::Fault(_))));
    assert!(committed(|e| matches!(
        e,
        TrialEvent::Drs(DrsEventKind::LinkDown { .. })
    )));
    assert!(committed(|e| matches!(
        e,
        TrialEvent::Drs(DrsEventKind::RouteChanged { .. })
    )));
    assert!(committed(|e| matches!(
        e,
        TrialEvent::Drs(DrsEventKind::DiscoveryStarted { .. })
    )));
    assert!(committed(|e| matches!(e, TrialEvent::Delivered { .. })));
    assert!(committed(|e| matches!(e, TrialEvent::GaveUp(_))));
}

#[test]
fn empty_histograms_serialize_as_null_not_zero() {
    // The static protocol never fails over, so its failover-latency
    // histogram is empty — the committed artifact must carry `null`
    // quantiles for it, never a fabricated 0 ns. The section's typed
    // value agrees.
    let section = ARTIFACT
        .section("failover_latency")
        .expect("latency section");
    let row = section
        .rows
        .iter()
        .find(|r| r.id == "static")
        .expect("static row");
    assert_eq!(row.get_count("count"), Some(0));
    assert_eq!(row.get_count("p50_ns"), None);
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
