//! Allocation pin: serializing an artifact allocates its output buffer
//! and nothing else. Each artifact is built first; the counting global
//! allocator (`crates/obs/tests/support/counting_alloc.rs`) then counts
//! every `alloc` and `realloc` the test thread makes inside `to_json`.
//!
//! What it protects: `drs_obs::artifact::write` streams the rows each
//! artifact already holds into one `String` reserved up front, so no row
//! is copied into an owned value tree, no event detail gets a `String`
//! of its own, and the buffer never grows. The tree-building writer it
//! replaced allocated 3 805 times for the committed simulation artifact,
//! 334 for the analytic sweep and 15 for the sample below.

#[path = "../../obs/tests/support/counting_alloc.rs"]
mod counting_alloc;

use drs_analytic::sweep::{run_sweep, SweepConfig};
use drs_bench::sim_artifact::bench_artifact;
use drs_bench::BENCH_SEED;
use drs_harness::RunMode;
use drs_obs::{Histogram, ObsArtifact, Row, Section};

fn assert_allocates_once(what: &str, to_json: impl FnOnce() -> String) {
    let (json, allocations) = counting_alloc::count(to_json);
    assert_eq!(
        allocations,
        1,
        "{what}: to_json made {allocations} allocations for {} B",
        json.len()
    );
}

#[test]
fn the_committed_simulation_artifact_serializes_in_one_allocation() {
    let artifact = bench_artifact(RunMode::Serial);
    assert_allocates_once("sim", || artifact.to_json());
}

#[test]
fn the_bench_grid_sweep_serializes_in_one_allocation() {
    let sweep = run_sweep(&SweepConfig::bench_grid(BENCH_SEED));
    assert_allocates_once("sweep", || sweep.to_json());
}

#[test]
fn a_section_artifact_serializes_in_one_allocation() {
    let mut hist = Histogram::new();
    hist.record(1_000);
    hist.record(3_000);
    let mut sec = Section::new("failover_latency");
    sec.push(Row::new("drs").text("protocol", "drs").hist(&hist));
    sec.push(Row::new("n8_b5").count("n", 8).real("budget_frac", 0.05));
    let mut artifact = ObsArtifact::new(42);
    artifact.push(sec);
    assert_allocates_once("obs", || artifact.to_json());
}
