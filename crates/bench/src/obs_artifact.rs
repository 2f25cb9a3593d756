//! The committed observability benchmark: builds the
//! `BENCH_observability.json` artifact ([`drs_obs::SCHEMA`]).
//!
//! Two sections, both regenerated from the same draw-free paths as the
//! other committed artifacts and therefore byte-reproducible on any
//! machine, any thread count:
//!
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
//!
//! The shootout's histograms (`failover_latency`, `drs_probe_path`) and
//! its trace events are committed with its trials, in
//! `BENCH_sim_survivability.json`.
//!
//! Wall-clock is deliberately absent here: `benchmark/run.sh` times the
//! same runs from outside, and its nondeterministic numbers go to its
//! own report, never into this committed file.

use drs_analytic::cost::ProbeCostModel;
use drs_core::{DrsConfig, DrsDaemon};
use drs_harness::{coord_seed, RunMode};
use drs_obs::{par, ObsArtifact, Row, Section};
use drs_sim::scenario::ClusterSpec;
use drs_sim::world::World;
use drs_sim::{NetId, NodeId, SimDuration};

use crate::BENCH_SEED;

/// Cluster sizes of the probe-overhead grid.
pub const OBS_OVERHEAD_N: [usize; 4] = [8, 16, 24, 32];

/// Bandwidth budgets of the probe-overhead grid, in percent — the
/// Figure 1 operating points.
pub const OBS_OVERHEAD_BUDGETS_PCT: [u64; 4] = [5, 10, 15, 25];

/// Measured sweeps per probe-overhead cell (after a two-period warmup).
pub const OBS_OVERHEAD_SWEEPS: u64 = 8;

/// Builds the full observability artifact. Every cell is an independent
/// world, so the 3 goodput and 16 probe-overhead cells fan out through
/// one [`par::map_on`] — on one worker under [`RunMode::Serial`], the
/// calling thread — and come back in cell order: both modes produce the
/// same bytes.
#[must_use]
pub fn obs_bench_artifact(mode: RunMode) -> ObsArtifact {
    let workers = match mode {
        RunMode::Serial => 1,
        RunMode::Parallel => par::workers(),
    };
    let grid: Vec<(usize, u64)> = OBS_OVERHEAD_N
        .iter()
        .flat_map(|&n| OBS_OVERHEAD_BUDGETS_PCT.iter().map(move |&pct| (n, pct)))
        .collect();
    // The goodput cells simulate the longest, so they are claimed first.
    let goodput = OBS_GOODPUT_BUDGETS_PCT.len();
    let mut rows = par::map_on(workers, goodput + grid.len(), |i| {
        match i.checked_sub(goodput) {
            None => goodput_cell(OBS_GOODPUT_BUDGETS_PCT[i]),
            Some(j) => probe_overhead_cell(grid[j].0, grid[j].1),
        }
    });
    let overhead_rows = rows.split_off(goodput);

    let mut artifact = ObsArtifact::new(BENCH_SEED);
    let mut overhead = Section::new("probe_overhead");
    overhead.rows = overhead_rows;
    artifact.push(overhead);
    artifact.push(goodput_under_failover_section(rows));
    artifact
}

/// One probe-overhead cell: a healthy `n`-host cluster probes at one
/// nanosecond over the fastest sweep period the Figure 1 cost model
/// allows for a `pct` % budget, and the per-segment probe bytes admitted
/// over [`OBS_OVERHEAD_SWEEPS`] periods are measured against the budget.
///
/// The extra nanosecond absorbs the float rounding in the model's
/// period computation, making "measured utilization ≤ budget" strict
/// rather than knife-edge. The run is draw-free: no frame loss, no
/// faults, first-offer gateway policy — the cluster's RNG is never
/// consulted, so the measured counts are exact and reproducible.
fn probe_overhead_cell(n: usize, pct: u64) -> Row {
    let model = ProbeCostModel::default();
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
        .count("within_budget", u64::from(worst as f64 <= budget_bytes))
}

/// Cluster size of every goodput-under-failover cell.
pub const OBS_GOODPUT_N: usize = 16;

/// Probe budgets (percent) the goodput cells compare — the extremes of
/// the overhead grid, so the detection-speed gap is widest.
pub const OBS_GOODPUT_BUDGETS_PCT: [u64; 3] = [5, 10, 25];

/// One cell of the probe-budget sweep's payoff measurement: the
/// budget's cluster probes at the fastest period the Figure 1 cost model
/// allows, a fluid session workload runs over a hub failover, and the
/// cell reports what the sessions actually experienced — stall windows,
/// interruption percentiles, and the exact delivered/shortfall byte
/// ledger.
///
/// Everything is draw-free except the workload's own per-host streams
/// (deterministic SplitMix64), so the cells are byte-reproducible.
fn goodput_cell(pct: u64) -> Row {
    let model = ProbeCostModel::default();
    let n = OBS_GOODPUT_N;
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
        .hist(&stats.interruption)
}

/// The goodput cells' section, which asserts the monotone payoff: a
/// bigger probe budget never lengthens the worst interruption.
fn goodput_under_failover_section(rows: Vec<Row>) -> Section {
    let worst = |row: &Row| {
        let pct = row.get_count("budget_pct").expect("budget column");
        (
            pct,
            row.get_count("worst_interruption_ns")
                .expect("worst column"),
        )
    };
    // The payoff ordering: budgets ascend, worst interruptions must not.
    for pair in rows.windows(2) {
        let ((lo_pct, lo_worst), (hi_pct, hi_worst)) = (worst(&pair[0]), worst(&pair[1]));
        assert!(
            hi_worst <= lo_worst,
            "goodput payoff inverted: budget {hi_pct}% stalled longer \
             ({hi_worst} ns) than budget {lo_pct}% ({lo_worst} ns)"
        );
    }
    let mut section = Section::new("goodput_under_failover");
    section.rows = rows;
    section
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_overhead_cells_stay_within_budget() {
        // The grid end-to-end, cell by cell; the committed-artifact
        // integration test covers the assembled artifact.
        for row in OBS_OVERHEAD_N
            .iter()
            .flat_map(|&n| OBS_OVERHEAD_BUDGETS_PCT.map(|pct| probe_overhead_cell(n, pct)))
        {
            let count = |name: &str| {
                row.get_count(name)
                    .unwrap_or_else(|| panic!("{}: no count {name}", row.id))
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
