//! Integration: the committed `BENCH_topology.json` artifact is exactly
//! what the topology-zoo sweep regenerates — same bytes — and it carries
//! the tentpole claims: every DES trial agreed with the reachability
//! predicate on every fabric, and the survivability-vs-cost frontier has
//! the shape the graph layer predicts.
//!
//! If an intentional change shifts the cells, regenerate the artifact
//! (`cargo run --release -p drs-bench -- regen topology`) and commit
//! it alongside the change; CI runs the same `regen`.

use std::sync::LazyLock;

use drs_bench::artifacts::{find, Artifact};
use drs_bench::topology_zoo::{bench_artifact, ZooArtifact, SCHEMA, ZOO_FAILURES};
use drs_bench::BENCH_SEED;
use drs_harness::RunMode;

fn entry() -> &'static Artifact {
    find("topology").expect("table entry")
}

/// Each generated once per process: the table's text for the two pins,
/// the typed value for the semantic tests.
static PARALLEL: LazyLock<String> = LazyLock::new(|| entry().render(RunMode::Parallel));
static ARTIFACT: LazyLock<ZooArtifact> =
    LazyLock::new(|| bench_artifact(BENCH_SEED, RunMode::Parallel));

#[test]
fn committed_artifact_regenerates_byte_for_byte() {
    entry()
        .check(&PARALLEL)
        .unwrap_or_else(|why| panic!("{why}"));
}

#[test]
fn serial_and_parallel_runs_are_identical_and_fully_agree() {
    assert!(*PARALLEL == entry().render(RunMode::Serial));
    for c in &ARTIFACT.cells {
        assert_eq!(
            c.agree, c.trials,
            "cell ({}, f={}) has sim/predicate disagreements",
            c.topology, c.f
        );
        assert!(c.p >= 0.0 && c.p <= 1.0, "{}: p out of range", c.topology);
    }
}

#[test]
fn committed_artifact_covers_the_zoo_grid() {
    let json = entry().committed().expect("committed file");
    assert!(json.contains(&format!("\"schema\": \"{SCHEMA}\"")));
    for label in [
        "kplane(n=16,k=2)",
        "kplane(n=16,k=3)",
        "fat_tree(k=4)",
        "bcube(n=4,l=1)",
        "dcell(n=4,l=1)",
    ] {
        assert_eq!(
            json.matches(&format!("\"topology\": \"{label}\"")).count(),
            ZOO_FAILURES.len(),
            "{label}: wrong number of committed cells"
        );
    }
}

#[test]
fn every_cell_is_an_exact_count() {
    assert_eq!(ARTIFACT.cells.len(), 20);
    for c in &ARTIFACT.cells {
        let total = drs::analytic::binom::binom(c.components as u64, c.f as u64);
        assert_eq!(Some(c.total), total, "({}, f={})", c.topology, c.f);
        assert_eq!(c.p, c.successes as f64 / c.total as f64);
    }
}

#[test]
fn frontier_has_the_shape_the_graph_layer_predicts() {
    let k2 = ARTIFACT.get("kplane(n=16,k=2)", 2).expect("k2 cell");
    let k3 = ARTIFACT.get("kplane(n=16,k=3)", 2).expect("k3 cell");
    let ft = ARTIFACT.get("fat_tree(k=4)", 1).expect("fat-tree cell");
    // Buying a third plane buys survivability: K=3 dominates K=2 at
    // every swept f > 1, at higher equipment cost.
    assert!(k3.cost_units > k2.cost_units);
    assert!(k3.p > k2.p, "K=3 should dominate K=2 at f=2");
    // A fat-tree host hangs off a single NIC: even one failed component
    // can sever the pair, so p < 1 already at f = 1 — the single-NIC
    // cliff the K-plane design exists to avoid.
    assert!(ft.p < 1.0, "fat-tree f=1 should sit below the K-plane");
    assert_eq!(
        ARTIFACT.get("bcube(n=4,l=1)", 1).expect("bcube cell").p,
        1.0,
        "BCube(4,1) hosts are dual-homed; one failure cannot sever the pair"
    );
}

#[test]
fn the_largest_cell_is_pinned_exactly() {
    // fat_tree(k=4) at f = 4 walks all C(68, 4) = 814 385 failure sets.
    let cell = ARTIFACT.get("fat_tree(k=4)", 4).expect("fat-tree f=4");
    assert_eq!((cell.successes, cell.total), (619_737, 814_385));
    let f3 = ARTIFACT.get("fat_tree(k=4)", 3).expect("fat-tree f=3");
    assert!(cell.p < f3.p, "P[S] must fall as f grows");
    assert!(cell.p > 0.5, "fat-tree at f=4 is still mostly survivable");
}

#[test]
fn survivability_never_rises_with_more_failures() {
    for pair in ARTIFACT.cells.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if a.topology == b.topology {
            assert_eq!(b.f, a.f + 1);
            assert!(b.p <= a.p, "{}: p rose at f={}", b.topology, b.f);
        }
    }
}
