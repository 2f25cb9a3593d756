//! Runs the causal-flight-recorder benchmark and writes the
//! machine-readable `BENCH_flight.json` artifact (schema in
//! EXPERIMENTS.md): per-cell trace timelines from the sharded driver,
//! causal-chain statistics for every reconstructed failover, and the
//! flight-derived latency decomposition cross-checked against the
//! daemons' probe-observability histograms.
//!
//! The committed artifact is sim-time only and draw-free, and the merged
//! flight log it derives from is bit-identical at any `DRS_SIM_THREADS`
//! — CI regenerates it at 1 and 4 worker threads and diffs both against
//! the committed file.
//!
//! Run: `cargo run --release -p drs-bench --bin flight_report [output.json]`

use std::path::Path;

use drs_bench::flight::{flight_bench_artifact, FLIGHT_SCHEMA};
use drs_bench::{fmt_opt_ns, section, write_artifact, BENCH_SEED, FLIGHT_BENCH_JSON};
use drs_obs::{FieldValue, Row};

fn count_field(row: &Row, name: &str) -> Option<u64> {
    row.fields
        .iter()
        .find(|f| f.name == name)
        .and_then(|f| match f.value {
            FieldValue::Count(c) => Some(c),
            _ => None,
        })
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| FLIGHT_BENCH_JSON.to_string());

    println!("flight-recorder benchmark -> {path}");
    let artifact = flight_bench_artifact();

    section("flight timelines (sharded driver, merged per-shard rings)");
    if let Some(sec) = artifact.get("flight_cells") {
        println!(
            "  {:<18} {:>8} {:>7} {:>9} {:>9} {:>6} {:>6} {:>6}",
            "cell", "records", "dropped", "sends", "recvs", "losses", "downs", "merges"
        );
        for row in &sec.rows {
            println!(
                "  {:<18} {:>8} {:>7} {:>9} {:>9} {:>6} {:>6} {:>6}",
                row.id,
                count_field(row, "records").unwrap_or(0),
                count_field(row, "dropped").unwrap_or(0),
                count_field(row, "probe_send").unwrap_or(0),
                count_field(row, "probe_recv").unwrap_or(0),
                count_field(row, "probe_loss").unwrap_or(0),
                count_field(row, "link_down").unwrap_or(0),
                count_field(row, "merge").unwrap_or(0),
            );
        }
    }

    section("causal chains (one per reroute completion)");
    if let Some(sec) = artifact.get("causal_chains") {
        println!(
            "  {:<18} {:>9} {:>8} {:>7} {:>7} {:>8} {:>8}",
            "cell", "failovers", "complete", "orphans", "losses", "detect=", "reroute="
        );
        for row in &sec.rows {
            println!(
                "  {:<18} {:>9} {:>8} {:>7} {:>7} {:>5}/{:<2} {:>5}/{:<2}",
                row.id,
                count_field(row, "failovers").unwrap_or(0),
                count_field(row, "complete").unwrap_or(0),
                count_field(row, "orphan_refs").unwrap_or(0),
                count_field(row, "losses").unwrap_or(0),
                count_field(row, "matched_detect").unwrap_or(0),
                count_field(row, "detect_chains").unwrap_or(0),
                count_field(row, "matched_reroute").unwrap_or(0),
                count_field(row, "failovers").unwrap_or(0),
            );
        }
    }

    section("latency decomposition (flight-derived == probe observability)");
    if let Some(sec) = artifact.get("latency_decomposition") {
        for row in &sec.rows {
            println!(
                "  {:<28} {:>5} samples  p50 {:>10}  p99 {:>10}  max {:>10}",
                row.id,
                count_field(row, "count").unwrap_or(0),
                fmt_opt_ns(count_field(row, "p50_ns")),
                fmt_opt_ns(count_field(row, "p99_ns")),
                fmt_opt_ns(count_field(row, "max_ns")),
            );
        }
    }

    let json = artifact.to_json_with_schema(FLIGHT_SCHEMA);
    write_artifact(Path::new(&path), &json).expect("write flight artifact");
    println!();
    println!("wrote {path} (master seed {BENCH_SEED})");
}
