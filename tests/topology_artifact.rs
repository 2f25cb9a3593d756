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
use drs_bench::topology_zoo::{bench_artifact, Method, ZooArtifact, SCHEMA, ZOO_FAILURES};
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
    // Exactly one cell (fat_tree, f=4: C(68,4) > 300 000) is sampled;
    // everything else is exhaustively enumerated.
    assert_eq!(json.matches("\"method\": \"monte_carlo\"").count(), 1);
    assert_eq!(json.matches("\"method\": \"exact\"").count(), 19);
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
fn monte_carlo_cell_sits_near_its_exact_neighbours() {
    // The sampled fat-tree f=4 estimate must be consistent with the
    // exact f=3 cell: survivability cannot increase with more failures.
    let f3 = ARTIFACT.get("fat_tree(k=4)", 3).expect("exact f=3");
    let f4 = ARTIFACT.get("fat_tree(k=4)", 4).expect("sampled f=4");
    assert_eq!(f3.method, Method::Exact);
    assert_eq!(f4.method, Method::MonteCarlo);
    assert!(f4.p < f3.p, "P[S] must fall as f grows");
    assert!(f4.p > 0.5, "fat-tree at f=4 is still mostly survivable");
}
