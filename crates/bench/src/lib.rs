//! The library behind the `drs-bench` binary.
//!
//! Two tables drive everything: [`reports::REPORTS`] — one entry per
//! paper table or figure, each a function that prints the regenerated
//! rows and returns a PASS/FAIL [`reports::Check`] per claim (DESIGN.md
//! §6 has the index) — and [`artifacts::ARTIFACTS`], the committed
//! `BENCH_*.json` files and their generators. `drs-bench report|repro`
//! select from the first by name, `drs-bench regen` from the second, the
//! byte-pin tests from the second too; `drs-bench live` ([`live`]) is the
//! one wall-clock driver. The rest of this crate is the artifact
//! generator modules plus the little table-printing and formatting
//! helpers the reports share, so they read like experiment scripts.

#![forbid(unsafe_code)]

use drs_sim::SimDuration;

pub mod artifacts;
pub mod e2e;
pub mod flight;
pub mod kernel;
pub mod knet;
pub mod live;
pub mod obs_artifact;
pub mod probe_cost;
pub mod reports;
pub mod sim_artifact;
pub mod topology_zoo;
pub mod trial;
pub mod workload;

/// The master seed every sweep-driven report and generator uses, so the
/// committed artifacts ([`BENCH_JSON`], [`SIM_BENCH_JSON`]) are
/// reproducible from any of them.
pub const BENCH_SEED: u64 = 42;

/// File name of the machine-readable sweep artifact tracked in the repo
/// root (schema documented in EXPERIMENTS.md).
pub const BENCH_JSON: &str = "BENCH_survivability.json";

/// File name of the machine-readable simulation artifact tracked in the
/// repo root (schema documented in EXPERIMENTS.md): the harness-run
/// protocol shootout and end-to-end survivability grid.
pub const SIM_BENCH_JSON: &str = "BENCH_sim_survivability.json";

/// File name of the machine-readable observability artifact tracked in
/// the repo root (schema documented in EXPERIMENTS.md): failover-latency
/// percentiles, DRS probe-path histograms, probe-overhead-vs-budget
/// cells, and event-count breakdowns.
pub const OBS_BENCH_JSON: &str = "BENCH_observability.json";

/// File name of the machine-readable K-plane sweep artifact tracked in
/// the repo root (schema documented in EXPERIMENTS.md): the
/// `(K, n, f)` grid of exact generalized-universe counts cross-checked
/// against the packet-level K-plane simulator.
pub const KNET_BENCH_JSON: &str = "BENCH_knet_survivability.json";

/// File name of the machine-readable event-kernel artifact tracked in
/// the repo root (schema documented in EXPERIMENTS.md): deterministic
/// queue-traffic and timer-wheel operation counts over the `(N, K)`
/// probe-workload grid, per-pair vs batched monitor drivers.
pub const KERNEL_BENCH_JSON: &str = "BENCH_kernel.json";

/// File name of the machine-readable topology-zoo artifact tracked in
/// the repo root (schema documented in EXPERIMENTS.md): the
/// survivability-vs-cost frontier over K-plane, Fat-Tree, BCube and
/// DCell fabrics, exact-or-sampled `P[pair survives]` per `(topology, f)`
/// cell cross-checked against packet-level graph worlds.
pub const TOPOLOGY_BENCH_JSON: &str = "BENCH_topology.json";

/// File name of the machine-readable flight-recorder artifact tracked in
/// the repo root (schema documented in EXPERIMENTS.md): per-cell trace
/// timelines, causal-chain statistics, and the flight-derived failover
/// latency decomposition cross-checked bucket-for-bucket against the
/// daemons' probe observability.
pub const FLIGHT_BENCH_JSON: &str = "BENCH_flight.json";

/// File name of the machine-readable fluid-workload artifact tracked in
/// the repo root (schema documented in EXPERIMENTS.md): failover SLO
/// histograms from a session-level workload on the DRS daemons, the
/// O(transitions) scaling ladder, and the million-session closed-loop
/// cell with its fixed kernel event budget.
pub const WORKLOAD_BENCH_JSON: &str = "BENCH_workload.json";

/// The entry of a name-keyed table (`what` says of what, for the message)
/// called `name` — the one lookup behind every positional argument of
/// `drs-bench`.
///
/// # Errors
/// Names the unknown entry and lists the ones the table does have.
pub fn lookup<'t, T>(
    table: &'t [T],
    name_of: fn(&T) -> &'static str,
    what: &str,
    name: &str,
) -> Result<&'t T, String> {
    table.iter().find(|e| name_of(e) == name).ok_or_else(|| {
        let known: Vec<&str> = table.iter().map(name_of).collect();
        format!("unknown {what} `{name}`; known: {}", known.join(" "))
    })
}

/// Prints a section header in the style the reports share.
pub fn section(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Formats a probability to the precision the paper reports.
#[must_use]
pub fn fmt_p(p: f64) -> String {
    format!("{p:.4}")
}

/// Formats an optional duration, with a dash for `None`.
#[must_use]
pub fn fmt_opt_dur(d: Option<SimDuration>) -> String {
    d.map_or_else(|| "—".to_string(), |d| d.to_string())
}

/// Renders one table row of fixed-width cells.
pub fn row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_p(0.99042), "0.9904");
        assert_eq!(fmt_opt_dur(None), "—");
        assert_eq!(
            fmt_opt_dur(Some(SimDuration::from_micros(1_500))),
            "1.500ms"
        );
    }
}
