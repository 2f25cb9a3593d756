//! Integration: the committed `BENCH_sim_survivability.json` artifact is
//! exactly what the harness regenerates — same bytes, serial or parallel.
//!
//! If an intentional change shifts the simulation results, regenerate the
//! artifact (`cargo run --release -p drs-bench -- regen sim`) and
//! commit it alongside the change; this test then documents the new
//! ground truth. CI runs the same `regen`.

use std::sync::LazyLock;

use drs::harness::{RunMode, SimArtifact};
use drs_bench::artifacts::{find, Artifact};
use drs_bench::sim_artifact::bench_artifact;

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
        let sent = t
            .metrics
            .iter()
            .find(|m| m.name == "sent")
            .and_then(|m| match m.value {
                drs::obs::FieldValue::Count(c) => Some(c),
                _ => None,
            })
            .expect("sent metric");
        let terminal = t
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    drs::harness::TraceEventKind::FlowDelivered
                        | drs::harness::TraceEventKind::FlowGaveUp
                )
            })
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
                .filter(|e| e.kind == drs::harness::TraceEventKind::FaultInjected)
                .count();
            assert!(faults > 0, "{}/{}: fault trace recorded", exp.name, t.id);
        }
    }
}

#[test]
fn artifact_traces_cover_the_event_vocabulary() {
    // The trace-event tallies live here, trial by trial: every kind the
    // shootout or the e2e grid is known to produce must appear.
    use drs::harness::TraceEventKind as K;
    let seen: Vec<K> = ARTIFACT
        .experiments
        .iter()
        .flat_map(|exp| &exp.trials)
        .flat_map(|t| &t.events)
        .map(|e| e.kind)
        .collect();
    for kind in [
        K::FaultInjected,
        K::LinkDown,
        K::RouteChanged,
        K::DiscoveryStarted,
        K::FlowDelivered,
        K::FlowGaveUp,
    ] {
        assert!(seen.contains(&kind), "no {} event committed", kind.label());
    }
}
