//! Runs the event-kernel benchmark grid and writes the machine-readable
//! `BENCH_kernel.json` artifact (schema `drs-bench-kernel/v2`, documented
//! in EXPERIMENTS.md): exact queue-traffic and timer-wheel operation
//! counts for the probe-heavy monitor workload over `(N, K)`, per-pair
//! timers against the batched monitor cycle.
//!
//! Everything written to the file is a deterministic operation count
//! from a seeded run — byte-identical across machines. Wall-clock
//! timing of the wheel itself is `benchmark/run.sh`'s
//! `sim.wheel.replay_ns_per_op` and is never committed here.
//!
//! Run: `cargo run --release -p drs-bench --bin kernel_report [output.json]`
//!
//! `--threads` additionally times the sharded kernel's wall clock at
//! each worker-thread count (largest scaling cell) and prints the
//! speedup table. Wall-clock numbers are machine-local and never
//! written to the artifact.

use std::path::Path;

use drs_bench::kernel::{
    kernel_artifact, run_grid, run_scaling_cell, run_scaling_grid, KERNEL_SCHEMA, SCALING_GRID_K,
    SCALING_GRID_N, SCALING_THREADS,
};
use drs_bench::{section, write_artifact, BENCH_SEED, KERNEL_BENCH_JSON};
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
    let mut time_threads = false;
    let mut path = KERNEL_BENCH_JSON.to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--threads" {
            time_threads = true;
        } else {
            path = arg;
        }
    }

    println!("event-kernel benchmark -> {path}");
    let cells = run_grid();
    let scaling = run_scaling_grid();
    let artifact = kernel_artifact(&cells, &scaling);

    section("monitor queue traffic (timer events per cycle)");
    if let Some(sec) = artifact.get("monitor_queue_traffic") {
        println!(
            "  {:<16} {:>3} {:>2} {:>7} {:>12} {:>11} {:>12}",
            "cell", "n", "k", "cycles", "scheduled", "depth_max", "timer/cycle"
        );
        for row in &sec.rows {
            println!(
                "  {:<16} {:>3} {:>2} {:>7} {:>12} {:>11} {:>12.1}",
                row.id,
                count_field(row, "n").unwrap_or(0),
                count_field(row, "planes").unwrap_or(0),
                count_field(row, "cycles").unwrap_or(0),
                count_field(row, "events_scheduled").unwrap_or(0),
                count_field(row, "queue_depth_max").unwrap_or(0),
                real_field(row, "timer_events_per_cycle").unwrap_or(f64::NAN),
            );
        }
    }

    section("queue-traffic reduction (per-pair / batched)");
    if let Some(sec) = artifact.get("queue_traffic_reduction") {
        println!(
            "  {:<8} {:>12} {:>12} {:>10}",
            "cell", "per_pair", "batched", "factor"
        );
        for row in &sec.rows {
            println!(
                "  {:<8} {:>12.1} {:>12.1} {:>9.1}x",
                row.id,
                real_field(row, "timer_per_cycle_per_pair").unwrap_or(f64::NAN),
                real_field(row, "timer_per_cycle_batched").unwrap_or(f64::NAN),
                real_field(row, "reduction_factor").unwrap_or(f64::NAN),
            );
        }
        // The tentpole claim: batched queue traffic is O(N) per cycle —
        // the per-pair/batched factor must grow with K·(N−1).
        assert!(
            sec.rows
                .iter()
                .all(|r| real_field(r, "reduction_factor").unwrap_or(0.0) > 1.0),
            "batched monitor did not reduce queue traffic"
        );
    }

    section("wheel ops (cascades / drains / pool)");
    if let Some(sec) = artifact.get("wheel_ops") {
        for row in &sec.rows {
            println!(
                "  {:<16} cascades {:>7}  drains {:>8}  pool {:>8}/{:<3}  hit {:>6.4}",
                row.id,
                count_field(row, "cascades").unwrap_or(0),
                count_field(row, "slot_drains").unwrap_or(0),
                count_field(row, "pool_hits").unwrap_or(0),
                count_field(row, "pool_misses").unwrap_or(0),
                real_field(row, "pool_hit_rate").unwrap_or(f64::NAN),
            );
        }
        assert!(
            sec.rows
                .iter()
                .all(|r| count_field(r, "clamped_past") == Some(0)),
            "a healthy run clamped a past-time schedule"
        );
    }

    section("sharded thread scaling (deterministic counts)");
    if let Some(sec) = artifact.get("thread_scaling") {
        println!(
            "  {:<14} {:>5} {:>2} {:>2} {:>6} {:>7} {:>10} {:>9} {:>18}",
            "cell", "n", "k", "t", "shards", "epochs", "events", "merges", "state_digest"
        );
        for row in &sec.rows {
            println!(
                "  {:<14} {:>5} {:>2} {:>2} {:>6} {:>7} {:>10} {:>9} {:>18x}",
                row.id,
                count_field(row, "n").unwrap_or(0),
                count_field(row, "planes").unwrap_or(0),
                count_field(row, "threads").unwrap_or(0),
                count_field(row, "shards").unwrap_or(0),
                count_field(row, "epochs").unwrap_or(0),
                count_field(row, "events").unwrap_or(0),
                count_field(row, "merges").unwrap_or(0),
                count_field(row, "state_digest").unwrap_or(0),
            );
        }
        assert!(
            sec.rows
                .iter()
                .all(|r| count_field(r, "clamped_past") == Some(0)),
            "a sharded run clamped a past-time schedule"
        );
    }

    if time_threads {
        let (n, k) = (
            *SCALING_GRID_N.last().unwrap(),
            *SCALING_GRID_K.last().unwrap(),
        );
        section("wall-clock thread scaling (machine-local, not committed)");
        println!("  cell n{n}_k{k}, one probe burst of K*N*(N-1) probes");
        let mut base_ms = 0.0f64;
        for &t in &SCALING_THREADS {
            let start = std::time::Instant::now();
            let cell = run_scaling_cell(n, k, t);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            if t == 1 {
                base_ms = ms;
            }
            println!(
                "  t={t}: {ms:>9.1} ms wall  {:>11} events  {:>10.0} events/wall-sec  speedup {:>5.2}x",
                cell.events,
                cell.events as f64 / (ms / 1e3),
                base_ms / ms,
            );
        }
    }

    let json = artifact.to_json_with_schema(KERNEL_SCHEMA);
    write_artifact(Path::new(&path), &json).expect("write kernel artifact");
    println!();
    println!("wrote {path} (master seed {BENCH_SEED})");
}
