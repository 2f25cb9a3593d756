//! Runs the instrumented benchmark suite and writes the machine-readable
//! `BENCH_observability.json` artifact (schema in EXPERIMENTS.md): the
//! protocol shootout and end-to-end grid with the observability layer
//! harvested, plus the probe-overhead-vs-budget grid of Figure 1's cost
//! model.
//!
//! The committed artifact is sim-time only and draw-free. Wall-clock
//! profiling of the run itself is printed at the end — deliberately to
//! the terminal and never into the file, since wall-clock numbers are
//! not reproducible across machines.
//!
//! Run: `cargo run --release -p drs-bench --bin obs_report [output.json]`

use std::path::Path;

use drs_bench::obs_artifact::obs_bench_artifact;
use drs_bench::{fmt_opt_ns, section, write_artifact, BENCH_SEED, OBS_BENCH_JSON};
use drs_harness::{RunMode, WallProfiler};
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

fn real_field(row: &Row, name: &str) -> Option<f64> {
    row.fields
        .iter()
        .find(|f| f.name == name)
        .and_then(|f| match f.value {
            FieldValue::Real(r) => Some(r),
            _ => None,
        })
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| OBS_BENCH_JSON.to_string());

    println!("observability benchmark -> {path}");
    let wall = WallProfiler::new();
    let artifact = wall.time("obs_artifact/parallel", || {
        obs_bench_artifact(RunMode::Parallel)
    });
    let serial = wall.time("obs_artifact/serial", || {
        obs_bench_artifact(RunMode::Serial)
    });

    section("failover latency by protocol (shootout, merged scenarios)");
    if let Some(sec) = artifact.get("failover_latency") {
        println!(
            "  {:<10} {:>9} {:>10} {:>10} {:>10}",
            "protocol", "delivered", "p50", "p99", "max"
        );
        for row in &sec.rows {
            println!(
                "  {:<10} {:>9} {:>10} {:>10} {:>10}",
                row.id,
                count_field(row, "delivered").unwrap_or(0),
                fmt_opt_ns(count_field(row, "p50_ns")),
                fmt_opt_ns(count_field(row, "p99_ns")),
                fmt_opt_ns(count_field(row, "max_ns")),
            );
        }
    }

    section("drs probe path (all hosts, all shootout trials)");
    if let Some(sec) = artifact.get("drs_probe_path") {
        for row in &sec.rows {
            match count_field(row, "count") {
                Some(count) => println!(
                    "  {:<18} {:>6} samples  p50 {:>10}  p99 {:>10}  max {:>10}",
                    row.id,
                    count,
                    fmt_opt_ns(count_field(row, "p50_ns")),
                    fmt_opt_ns(count_field(row, "p99_ns")),
                    fmt_opt_ns(count_field(row, "max_ns")),
                ),
                None => println!(
                    "  {:<18} {:>6} bytes on the wire",
                    row.id,
                    count_field(row, "bytes").unwrap_or(0)
                ),
            }
        }
    }

    section("probe overhead vs Figure 1 budget");
    if let Some(sec) = artifact.get("probe_overhead") {
        println!(
            "  {:<10} {:>3} {:>7} {:>12} {:>12} {:>8}",
            "cell", "n", "budget", "period", "utilization", "within"
        );
        for row in &sec.rows {
            println!(
                "  {:<10} {:>3} {:>6}% {:>12} {:>11.4}% {:>8}",
                row.id,
                count_field(row, "n").unwrap_or(0),
                count_field(row, "budget_pct").unwrap_or(0),
                fmt_opt_ns(count_field(row, "period_ns")),
                real_field(row, "utilization").unwrap_or(f64::NAN) * 100.0,
                if count_field(row, "within_budget") == Some(1) {
                    "yes"
                } else {
                    "OVER"
                },
            );
        }
        assert!(
            sec.rows
                .iter()
                .all(|r| count_field(r, "within_budget") == Some(1)),
            "probe overhead exceeded the Figure 1 budget"
        );
    }

    section("goodput under failover (what the probe budget buys)");
    if let Some(sec) = artifact.get("goodput_under_failover") {
        println!(
            "  {:<10} {:>7} {:>12} {:>14} {:>13} {:>12}",
            "cell", "budget", "period", "worst stall", "shortfall B", "conserved"
        );
        for row in &sec.rows {
            println!(
                "  {:<10} {:>6}% {:>12} {:>14} {:>13} {:>12}",
                row.id,
                count_field(row, "budget_pct").unwrap_or(0),
                fmt_opt_ns(count_field(row, "period_ns")),
                fmt_opt_ns(count_field(row, "worst_interruption_ns")),
                count_field(row, "shortfall_bytes").unwrap_or(0),
                if count_field(row, "conserved") == Some(1) {
                    "exact"
                } else {
                    "BROKEN"
                },
            );
        }
    }

    section("event counts (shootout / e2e / total)");
    if let Some(sec) = artifact.get("event_counts") {
        for row in &sec.rows {
            println!(
                "  {:<20} {:>5} {:>5} {:>6}",
                row.id,
                count_field(row, "shootout").unwrap_or(0),
                count_field(row, "e2e").unwrap_or(0),
                count_field(row, "total").unwrap_or(0),
            );
        }
    }

    section("determinism");
    let json = artifact.to_json();
    assert_eq!(
        json,
        serial.to_json(),
        "parallel and serial artifacts must be byte-identical"
    );
    println!("  parallel == serial, byte-for-byte");

    section("profiling (wall-clock; printed only, never committed)");
    let report = wall.report();
    for (name, h) in report.histograms() {
        let mean_ms = h.mean().unwrap_or(0.0) / 1e6;
        println!("  {name:<24} {:>2} run(s), mean {mean_ms:.1} ms", h.count());
    }

    write_artifact(Path::new(&path), &json).expect("write observability artifact");
    println!();
    println!("wrote {path} (master seed {BENCH_SEED})");
}
