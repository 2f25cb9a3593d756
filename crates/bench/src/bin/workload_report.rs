//! Runs the fluid-workload benchmark and writes the machine-readable
//! `BENCH_workload.json` artifact (schema in EXPERIMENTS.md): failover
//! SLO histograms from a session-level workload riding the DRS daemons,
//! the O(transitions) rate-scaling ladder, and the million-session
//! closed-loop cell with its fixed kernel event budget.
//!
//! The committed artifact is sim-time only and draw-free, and the
//! engine state it derives from is bit-identical at any
//! `DRS_SIM_THREADS` — CI regenerates it at 1 and 4 worker threads and
//! diffs both against the committed file.
//!
//! Run: `cargo run --release -p drs-bench --bin workload_report [output.json]`

use std::path::Path;

use drs_bench::workload::{workload_bench_artifact, WORKLOAD_SCHEMA};
use drs_bench::{fmt_opt_ns, section, write_artifact, BENCH_SEED, WORKLOAD_BENCH_JSON};
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
        .unwrap_or_else(|| WORKLOAD_BENCH_JSON.to_string());

    println!("fluid-workload benchmark -> {path}");
    let artifact = workload_bench_artifact();

    section("failover SLO (sharded driver, serial-checked)");
    if let Some(sec) = artifact.get("slo") {
        for row in &sec.rows {
            if let Some(opened) = count_field(row, "opened") {
                println!(
                    "  {:<18} opened {:>6}  stalls {:>4}  resumed {:>4}  \
                     delivered {:>12} B  shortfall {:>10} B  conserved {}",
                    row.id,
                    opened,
                    count_field(row, "stall_windows").unwrap_or(0),
                    count_field(row, "resumed_windows").unwrap_or(0),
                    count_field(row, "delivered_bytes").unwrap_or(0),
                    count_field(row, "shortfall_bytes").unwrap_or(0),
                    count_field(row, "conserved").unwrap_or(0),
                );
            } else if row.id.ends_with("_ns") {
                println!(
                    "  {:<22} {:>7} samples  p50 {:>10}  p99 {:>10}  max {:>10}",
                    row.id,
                    count_field(row, "count").unwrap_or(0),
                    fmt_opt_ns(count_field(row, "p50_ns")),
                    fmt_opt_ns(count_field(row, "p99_ns")),
                    fmt_opt_ns(count_field(row, "max_ns")),
                );
            } else {
                // Byte / session-count histograms: raw values, no time
                // unit (the `_ns` field names are the schema's generic
                // histogram layout, not a promise of nanoseconds).
                println!(
                    "  {:<22} {:>7} samples  p50 {:>10}  p99 {:>10}  max {:>10}",
                    row.id,
                    count_field(row, "count").unwrap_or(0),
                    count_field(row, "p50_ns").unwrap_or(0),
                    count_field(row, "p99_ns").unwrap_or(0),
                    count_field(row, "max_ns").unwrap_or(0),
                );
            }
        }
    }

    section("O(transitions) scaling ladder (rate x1 / x16 / x256)");
    if let Some(sec) = artifact.get("scaling") {
        println!(
            "  {:<6} {:>8} {:>12} {:>14} {:>14}",
            "cell", "events", "transitions", "offered B", "delivered B"
        );
        for row in &sec.rows {
            println!(
                "  {:<6} {:>8} {:>12} {:>14} {:>14}",
                row.id,
                count_field(row, "kernel_session_events").unwrap_or(0),
                count_field(row, "transitions").unwrap_or(0),
                count_field(row, "offered_bytes").unwrap_or(0),
                count_field(row, "delivered_bytes").unwrap_or(0),
            );
        }
    }

    section("million-session closed loop");
    if let Some(sec) = artifact.get("million") {
        for row in &sec.rows {
            println!(
                "  {:<16} population {:>9}  active {:>9}  events {:>9} \
                 (budget {})  conserved {}",
                row.id,
                count_field(row, "population").unwrap_or(0),
                count_field(row, "active").unwrap_or(0),
                count_field(row, "kernel_session_events").unwrap_or(0),
                count_field(row, "event_budget").unwrap_or(0),
                count_field(row, "conserved").unwrap_or(0),
            );
        }
    }

    let json = artifact.to_json_with_schema(WORKLOAD_SCHEMA);
    write_artifact(Path::new(&path), &json).expect("write workload artifact");
    println!();
    println!("wrote {path} (master seed {BENCH_SEED})");
}
