//! The committed observability benchmark: builds the
//! `BENCH_observability.json` artifact ([`drs_obs::SCHEMA`]).
//!
//! Four sections, all regenerated from the same draw-free paths as the
//! other committed artifacts and therefore byte-reproducible on any
//! machine, any thread count:
//!
//! * **`failover_latency`** — the protocol shootout re-run with the
//!   instrumentation harvested: per-protocol delivered-latency
//!   histograms merged across the three standard failure scenarios.
//!   Static routing delivers nothing in these scenarios, so its row is
//!   the committed regression for the "no samples ≠ 0 ns" rule: count 0
//!   and `null` quantiles.
//! * **`drs_probe_path`** — the DRS daemon's probe-path histograms
//!   (probe gap, probe RTT, failover detection, reroute completion)
//!   merged across every host of every DRS shootout trial, plus the
//!   probe bytes those hosts originated.
//! * **`probe_overhead`** — healthy `n`-host clusters probing at the
//!   fastest sweep period Figure 1's cost model allows for each
//!   bandwidth budget, with measured per-segment probe bytes checked
//!   against the budget. Every cell must come in at or under budget.
//! * **`goodput_under_failover`** — the probe-budget sweep extended to
//!   the question the budget actually buys an answer to: with a fluid
//!   session workload riding the cluster through a hub failover, how
//!   much goodput does each probing budget save? Faster probing (a
//!   bigger budget) detects the failure sooner, so sessions stall for
//!   less time and the exact shortfall ledger shrinks — the section
//!   pins that ordering cell-for-cell.
//! * **`event_counts`** — how many structured trace events of each
//!   [`TraceEventKind`] the shootout and the end-to-end grid produced.
//!
//! Wall-clock is deliberately absent here: `benchmark/run.sh` times the
//! same runs from outside, and its nondeterministic numbers go to its
//! own report, never into this committed file.

use drs_analytic::cost::ProbeCostModel;
use drs_baselines::compare::ProtocolLabel;
use drs_core::{DrsConfig, DrsDaemon};
use drs_harness::{coord_seed, RunMode, TraceEventKind};
use drs_obs::{Histogram, ObsArtifact, Row, Section};
use drs_sim::scenario::ClusterSpec;
use drs_sim::world::World;
use drs_sim::{NetId, NodeId, SimDuration};

use crate::e2e::{run_cell, E2E_GRID};
use crate::sim_artifact::{bench_shootout, E2E_TRIALS_PER_CELL};
use crate::BENCH_SEED;

/// Cluster sizes of the probe-overhead grid.
pub const OBS_OVERHEAD_N: [usize; 4] = [8, 16, 24, 32];

/// Bandwidth budgets of the probe-overhead grid, in percent — the
/// Figure 1 operating points.
pub const OBS_OVERHEAD_BUDGETS_PCT: [u64; 4] = [5, 10, 15, 25];

/// Measured sweeps per probe-overhead cell (after a two-period warmup).
pub const OBS_OVERHEAD_SWEEPS: u64 = 8;

/// Builds the full observability artifact under `mode`.
///
/// [`RunMode::Serial`] and [`RunMode::Parallel`] produce identical
/// artifacts; `regen` asserts this on every run before writing the file.
#[must_use]
pub fn obs_bench_artifact(mode: RunMode) -> ObsArtifact {
    let mut artifact = ObsArtifact::new(BENCH_SEED);

    // The instrumented shootout: same scenarios, seeds and configs as
    // the `BENCH_sim_survivability.json` shootout, so the latency
    // histograms here describe exactly the trials committed there.
    let rows = bench_shootout(mode);

    let mut failover = Section::new("failover_latency");
    for label in ProtocolLabel::ALL {
        let mut delivered = 0;
        let mut latency = Histogram::new();
        for row in rows.iter().filter(|r| r.label == label) {
            delivered += row.result.delivered;
            latency.merge(&row.result.latency);
        }
        failover.push(
            Row::new(label.key())
                .count("delivered", delivered)
                .hist(&latency),
        );
    }
    artifact.push(failover);

    let mut drs_obs = drs_core::ProbeObs::default();
    for row in rows.iter().filter(|r| r.label == ProtocolLabel::Drs) {
        drs_obs.merge(&row.probe_obs);
    }
    let mut probe_path = Section::new("drs_probe_path");
    for (id, h) in [
        ("probe_gap", &drs_obs.probe_gap),
        ("probe_rtt", &drs_obs.probe_rtt),
        ("failover_detect", &drs_obs.failover_detect),
        ("reroute_complete", &drs_obs.reroute_complete),
    ] {
        probe_path.push(Row::new(id).hist(h));
    }
    probe_path.push(Row::new("probe_bytes").count("bytes", drs_obs.probe_bytes));
    artifact.push(probe_path);

    artifact.push(probe_overhead_section());
    artifact.push(goodput_under_failover_section());

    // Event-count breakdown over both committed experiment families.
    let mut shootout_counts = [0u64; 9];
    for row in &rows {
        for e in &row.events {
            shootout_counts[kind_index(e.kind)] += 1;
        }
    }
    let mut e2e_counts = [0u64; 9];
    for &(n, f) in &E2E_GRID {
        let master = coord_seed(BENCH_SEED, n as u64, f as u64);
        for trial in run_cell(n, f, E2E_TRIALS_PER_CELL, master, mode) {
            for e in &trial.events {
                e2e_counts[kind_index(e.kind)] += 1;
            }
        }
    }
    let mut counts = Section::new("event_counts");
    for kind in ALL_KINDS {
        let i = kind_index(kind);
        counts.push(
            Row::new(kind.label())
                .count("shootout", shootout_counts[i])
                .count("e2e", e2e_counts[i])
                .count("total", shootout_counts[i] + e2e_counts[i]),
        );
    }
    artifact.push(counts);

    artifact
}

/// Every trace-event kind, in artifact row order.
const ALL_KINDS: [TraceEventKind; 9] = [
    TraceEventKind::FaultInjected,
    TraceEventKind::Repaired,
    TraceEventKind::LinkDown,
    TraceEventKind::LinkUp,
    TraceEventKind::RouteChanged,
    TraceEventKind::DiscoveryStarted,
    TraceEventKind::DiscoveryFailed,
    TraceEventKind::FlowDelivered,
    TraceEventKind::FlowGaveUp,
];

fn kind_index(kind: TraceEventKind) -> usize {
    ALL_KINDS
        .iter()
        .position(|&k| k == kind)
        .expect("known kind")
}

/// Runs the probe-overhead grid: for each `(n, budget)` cell a healthy
/// cluster probes at one nanosecond over the fastest sweep period the
/// Figure 1 cost model allows, and the per-segment probe bytes admitted
/// over [`OBS_OVERHEAD_SWEEPS`] periods are measured against the budget.
///
/// The extra nanosecond absorbs the float rounding in the model's
/// period computation, making "measured utilization ≤ budget" strict
/// rather than knife-edge. The run is draw-free: no frame loss, no
/// faults, first-offer gateway policy — the cluster's RNG is never
/// consulted, so the measured counts are exact and reproducible.
fn probe_overhead_section() -> Section {
    let model = ProbeCostModel::default();
    let mut section = Section::new("probe_overhead");
    for &n in &OBS_OVERHEAD_N {
        for &pct in &OBS_OVERHEAD_BUDGETS_PCT {
            let beta = pct as f64 / 100.0;
            let period = model.min_sweep_period(n as u64, beta) + SimDuration(1);
            let cfg = DrsConfig::default()
                .probe_timeout(SimDuration(period.0 / 4))
                .probe_interval(period);
            let spec = ClusterSpec::new(n)
                .seed(coord_seed(BENCH_SEED, n as u64, pct))
                .bandwidth_bps(model.bandwidth_bps);
            let mut world = World::new(spec, |id| DrsDaemon::new(id, n, cfg));

            // Two warmup periods let every staggered probe cycle reach
            // steady state, then the measurement window covers an exact
            // number of periods so each periodic probe stream
            // contributes exactly OBS_OVERHEAD_SWEEPS sweeps.
            world.run_for(period.saturating_mul(2));
            let before = [
                world.medium(NetId::A).stats.probe_bytes,
                world.medium(NetId::B).stats.probe_bytes,
            ];
            let host_before: u64 = (0..n)
                .map(|i| world.host(NodeId(i as u32)).obs.probe_bytes)
                .sum();
            world.run_for(period.saturating_mul(OBS_OVERHEAD_SWEEPS));
            let measured = [
                world.medium(NetId::A).stats.probe_bytes - before[0],
                world.medium(NetId::B).stats.probe_bytes - before[1],
            ];
            // Per-host request accounting over the same window: on a
            // loss-free cluster every admitted probe frame is a host's
            // echo request or the kernel's matching auto-reply, so the
            // wire carries exactly twice the request bytes.
            let host_request_bytes: u64 = (0..n)
                .map(|i| world.host(NodeId(i as u32)).obs.probe_bytes)
                .sum::<u64>()
                - host_before;

            let window_secs = period.saturating_mul(OBS_OVERHEAD_SWEEPS).as_secs_f64();
            let budget_bytes = beta * model.bandwidth_bps as f64 * window_secs / 8.0;
            let worst = measured[0].max(measured[1]);
            let utilization = worst as f64 * 8.0 / (model.bandwidth_bps as f64 * window_secs);
            section.push(
                Row::new(format!("n{n}_b{pct}"))
                    .count("n", n as u64)
                    .count("budget_pct", pct)
                    .count("period_ns", period.0)
                    .count("sweeps", OBS_OVERHEAD_SWEEPS)
                    .count("probe_bytes_a", measured[0])
                    .count("probe_bytes_b", measured[1])
                    .count("host_request_bytes", host_request_bytes)
                    .real("budget_bytes", budget_bytes)
                    .real("utilization", utilization)
                    .count("within_budget", u64::from(worst as f64 <= budget_bytes)),
            );
        }
    }
    section
}

/// Cluster size of every goodput-under-failover cell.
pub const OBS_GOODPUT_N: usize = 16;

/// Probe budgets (percent) the goodput cells compare — the extremes of
/// the overhead grid, so the detection-speed gap is widest.
pub const OBS_GOODPUT_BUDGETS_PCT: [u64; 3] = [5, 10, 25];

/// The probe-budget sweep's payoff measurement: each budget's cluster
/// probes at the fastest period the Figure 1 cost model allows, a fluid
/// session workload runs over a hub failover, and the cell reports what
/// the sessions actually experienced — stall windows, interruption
/// percentiles, and the exact delivered/shortfall byte ledger.
///
/// Everything is draw-free except the workload's own per-host streams
/// (deterministic SplitMix64), so the cells
/// are byte-reproducible. The section asserts the monotone payoff:
/// a bigger probe budget never lengthens the worst interruption.
fn goodput_under_failover_section() -> Section {
    let model = ProbeCostModel::default();
    let n = OBS_GOODPUT_N;
    let mut section = Section::new("goodput_under_failover");
    let mut worst_interruptions: Vec<(u64, u64)> = Vec::new();
    for &pct in &OBS_GOODPUT_BUDGETS_PCT {
        let beta = pct as f64 / 100.0;
        let period = model.min_sweep_period(n as u64, beta) + SimDuration(1);
        let cfg = DrsConfig::default()
            .probe_timeout(SimDuration(period.0 / 4))
            .probe_interval(period);
        let spec = ClusterSpec::new(n)
            .seed(coord_seed(BENCH_SEED, n as u64, pct ^ 0x60_0D))
            .bandwidth_bps(model.bandwidth_bps);
        let mut world = World::new(spec, |id| DrsDaemon::new(id, n, cfg));
        world.schedule_faults(
            drs_sim::fault::FaultPlan::new()
                .fail_at(drs_sim::SimTime(2_000_000_123), {
                    drs_sim::fault::SimComponent::Hub(NetId::A)
                })
                .repair_at(
                    drs_sim::SimTime(4_000_000_123),
                    drs_sim::fault::SimComponent::Hub(NetId::A),
                ),
        );
        world.enable_workload(drs_sim::WorkloadSpec {
            arrivals: drs_sim::ArrivalProcess::Open {
                mean_gap_ns: 60_000_000,
            },
            holding: drs_sim::HoldingDist::Pareto {
                xm_ns: 400_000_000,
                alpha_milli: 1500,
            },
            classes: vec![drs_sim::ClassSpec { rate_bps: 500_000 }],
            horizon: drs_sim::SimTime(5_000_000_000),
        });
        world.run_for(SimDuration::from_secs(6));
        let stats = world.workload_stats().expect("workload enabled").clone();
        let engine = world.workload_engine().expect("engine");
        let conserved = engine.conservation().holds();
        assert!(conserved, "b{pct}: fluid ledger out of balance");
        assert!(stats.stall_windows > 0, "b{pct}: failover never stalled");
        assert!(stats.resumed_windows > 0, "b{pct}: stalls never resumed");
        let worst = stats.interruption.max().unwrap_or(0);
        worst_interruptions.push((pct, worst));
        section.push(
            Row::new(format!("n{n}_b{pct}"))
                .count("budget_pct", pct)
                .count("period_ns", period.0)
                .count("opened", stats.opened)
                .count("stall_windows", stats.stall_windows)
                .count("resumed_windows", stats.resumed_windows)
                .count("worst_interruption_ns", worst)
                .count(
                    "delivered_bytes",
                    crate::workload::unit_to_bytes(stats.delivered_unit),
                )
                .count(
                    "shortfall_bytes",
                    crate::workload::unit_to_bytes(stats.shortfall_unit),
                )
                .count("conserved", u64::from(conserved))
                .hist(&stats.interruption),
        );
    }
    // The payoff ordering: budgets ascend, worst interruptions must not.
    for pair in worst_interruptions.windows(2) {
        let ((lo_pct, lo_worst), (hi_pct, hi_worst)) = (pair[0], pair[1]);
        assert!(
            hi_worst <= lo_worst,
            "goodput payoff inverted: budget {hi_pct}% stalled longer \
             ({hi_worst} ns) than budget {lo_pct}% ({lo_worst} ns)"
        );
    }
    section
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_overhead_cells_stay_within_budget() {
        // One cheap cell end-to-end; the full grid is covered by the
        // committed-artifact integration test.
        let section = probe_overhead_section();
        assert_eq!(
            section.rows.len(),
            OBS_OVERHEAD_N.len() * OBS_OVERHEAD_BUDGETS_PCT.len()
        );
        for row in &section.rows {
            let get = |name: &str| {
                row.fields
                    .iter()
                    .find(|f| f.name == name)
                    .unwrap_or_else(|| panic!("{}: missing {name}", row.id))
                    .value
                    .clone()
            };
            let count = |name: &str| match get(name) {
                drs_obs::FieldValue::Count(c) => c,
                v => panic!("{}: {name} not a count: {v:?}", row.id),
            };
            assert_eq!(count("within_budget"), 1, "{} over budget", row.id);
            assert!(count("probe_bytes_a") > 0, "{} measured nothing", row.id);
            // Requests charged to hosts are half the wire traffic (the
            // other half is the kernel's echo replies), mirrored on both
            // segments.
            assert_eq!(
                2 * count("host_request_bytes"),
                count("probe_bytes_a") + count("probe_bytes_b"),
                "{}: request accounting must match the wire",
                row.id
            );
            assert_eq!(count("probe_bytes_a"), count("probe_bytes_b"), "{}", row.id);
        }
    }
}
