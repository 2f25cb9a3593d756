//! Integration: the committed `BENCH_kernel.json` artifact is exactly
//! what the event-kernel benchmark grid regenerates — same bytes — and
//! its queue-traffic section carries the tentpole claim: the batched
//! monitor's timer traffic per cycle is O(N), against the per-pair
//! driver's O(K·N²).
//!
//! If an intentional change shifts the counts, regenerate the artifact
//! (`cargo run --release -p drs-bench -- regen kernel`) and commit
//! it alongside the change; CI runs the same `regen`.

use drs_bench::artifacts::{find, pin};
use drs_bench::kernel::{kernel_artifact, run_grid};

fn committed() -> String {
    find("kernel")
        .expect("table entry")
        .committed()
        .expect("committed file")
}

#[test]
fn committed_artifact_regenerates_byte_for_byte() {
    pin("kernel");
}

#[test]
fn batched_queue_traffic_is_linear_in_n_across_the_grid() {
    let artifact = kernel_artifact(&run_grid(), &[]);
    let reduction = artifact
        .get("queue_traffic_reduction")
        .expect("reduction section");
    assert!(!reduction.rows.is_empty());
    for row in &reduction.rows {
        let n = row.get_count("n").expect("n") as f64;
        let k = row.get_count("planes").expect("planes") as f64;
        let batched = row.get_real("timer_per_cycle_batched").expect("batched");
        let per_pair = row.get_real("timer_per_cycle_per_pair").expect("per_pair");
        // Steady state is 2 timer events per daemon per cycle for the
        // batched driver (fan-out + timeout sweep) — independent of K —
        // and 2 per (peer, plane) pair per daemon for the per-pair one.
        assert!(
            batched <= 4.0 * n,
            "{}: batched driver scheduled {batched} timer events/cycle",
            row.id
        );
        assert!(
            per_pair >= k * n * (n - 1.0),
            "{}: per-pair driver scheduled only {per_pair} timer events/cycle",
            row.id
        );
        let factor = row.get_real("reduction_factor").expect("factor");
        assert!(
            factor >= 0.25 * k * (n - 1.0),
            "{}: reduction factor {factor} is not O(K·N)",
            row.id
        );
    }
}

#[test]
fn committed_artifact_reports_clean_healthy_runs() {
    let json = committed();
    assert!(json.contains("\"schema\": \"drs-bench-kernel/v4\""));
    // Healthy clusters must never clamp a past-time schedule: all twelve
    // wheel_ops rows plus all four sharded_scaling rows carry an exact
    // zero.
    assert_eq!(json.matches("\"clamped_past\": 0").count(), 16);
    for row_id in ["n90_k2_per_pair", "n90_k2_batched"] {
        assert!(
            json.contains(&format!("\"id\": \"{row_id}\"")),
            "headline 90-node cell {row_id} missing from the artifact"
        );
    }
    // One scaling row per (n, k), no worker-thread or shard axis.
    for (n, k) in [(256, 2), (256, 4), (1024, 2), (1024, 4)] {
        let id = format!("\"id\": \"n{n}_k{k}\"");
        assert_eq!(json.matches(&id).count(), 1, "sharded cell n{n}_k{k}");
    }
}
