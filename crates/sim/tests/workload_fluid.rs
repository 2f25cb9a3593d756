//! The fluid session engine's two load-bearing contracts, exercised on
//! the real DRS daemon:
//!
//! * **Conservation** — every byte a session ever offered is accounted
//!   for *exactly* (no floating point, no epsilon): `offered ==
//!   delivered + shortfall + dropped + in_flight`, across hub failures,
//!   NIC faults, failover stalls, and mid-run settlement.
//! * **Order independence** — scheduling the fault plan before or after
//!   the workload is enabled gives bit-identical workload statistics and
//!   engine digests: the run loop logs each hub and NIC fault for the
//!   engine once, whenever the fault joined the schedule.

use drs_core::config::DrsConfig;
use drs_core::daemon::DrsDaemon;
use drs_sim::{
    ArrivalProcess, ClassSpec, ClusterSpec, FaultPlan, HoldingDist, NetId, NodeId, SimComponent,
    SimDuration, SimTime, WorkloadSpec, WorkloadStats, World,
};

fn cfg() -> DrsConfig {
    DrsConfig::default()
        .probe_timeout(SimDuration::from_millis(50))
        .probe_interval(SimDuration::from_millis(200))
}

/// An open-loop, heavy-tailed, two-class workload busy enough that
/// sessions are guaranteed to straddle every fault in the plan.
fn wspec(horizon_s: u64) -> WorkloadSpec {
    WorkloadSpec {
        arrivals: ArrivalProcess::Open {
            mean_gap_ns: 80_000_000,
        },
        holding: HoldingDist::Pareto {
            xm_ns: 200_000_000,
            alpha_milli: 1500,
        },
        classes: vec![
            ClassSpec {
                rate_bps: 2_000_000,
            },
            ClassSpec { rate_bps: 400_000 },
        ],
        horizon: SimTime(horizon_s * 1_000_000_000),
    }
}

/// Hub failure + repair on plane A, plus a NIC flap on one host — the
/// survivability scenario of the paper.
fn plan() -> FaultPlan {
    FaultPlan::new()
        .fail_at(SimTime(1_000_000_123), SimComponent::Hub(NetId::A))
        .repair_at(SimTime(3_000_000_123), SimComponent::Hub(NetId::A))
        .fail_at(
            SimTime(2_000_000_777),
            SimComponent::Nic(NodeId(2), NetId::B),
        )
        .repair_at(
            SimTime(4_500_000_777),
            SimComponent::Nic(NodeId(2), NetId::B),
        )
}

/// What a finished run leaves behind: statistics, engine digest, session
/// kernel events, and the daemons' reroute sample count.
type Outcome = (WorkloadStats, u64, u64, u64);

/// Runs the scenario, attaching the workload before or after the fault
/// plan: the engine must pick up faults whether they were scheduled
/// before or after it existed.
fn run(n: usize, secs: u64, faults_first: bool) -> Outcome {
    let c = cfg();
    let mut w = World::new(ClusterSpec::new(n).seed(71), |id| DrsDaemon::new(id, n, c));
    if faults_first {
        w.schedule_faults(plan());
    }
    w.enable_workload(wspec(secs.saturating_sub(2)));
    if !faults_first {
        w.schedule_faults(plan());
    }
    w.run_for(SimDuration::from_secs(secs));
    let engine = w.workload_engine().expect("workload enabled");
    assert!(engine.conservation().holds(), "conservation");
    (
        engine.stats().clone(),
        engine.digest(),
        w.workload_events(),
        w.merged_probe_obs().reroute_complete.count(),
    )
}

/// Conservation is exact across a hub failover and a NIC flap, and the
/// kernel touched exactly one event per session transition.
#[test]
fn conservation_is_exact_across_hub_and_nic_faults() {
    let (stats, _, events, _) = run(10, 8, true);
    assert!(stats.opened > 50, "a real workload ran: {}", stats.opened);
    assert!(stats.stall_windows >= 1, "the hub failure stalled sessions");
    assert!(
        stats.resumed_windows >= 1,
        "failover resumed stalled sessions"
    );
    assert_eq!(
        events, stats.transitions,
        "kernel events == session transitions (the O(transitions) identity)"
    );
    assert!(stats.delivered_unit > 0, "fluid bytes flowed");
    assert!(
        stats.shortfall_unit > 0,
        "the stall window cost real goodput"
    );
}

/// Every reroute the engine credits is one the daemons actually
/// observed: the count equals the probe-observability histogram's.
#[test]
fn reroute_credits_match_probe_observability() {
    let (stats, _, _, reroutes) = run(10, 8, true);
    assert!(reroutes > 0, "the scenario exercised reroutes");
    assert_eq!(
        stats.reroute_notifications, reroutes,
        "engine reroute credits == daemon reroute_complete samples"
    );
}

/// Statistics, engine digest, event and reroute counts are bit-identical
/// whether the faults were scheduled before or after the workload.
#[test]
fn faults_scheduled_before_or_after_the_workload_agree() {
    let (n, secs) = (12, 8);
    assert_eq!(run(n, secs, false), run(n, secs, true));
}

/// Closed-loop mode: a fixed population cycles open → close → think;
/// the ledger still balances exactly under a plane fault, and the
/// population bound `active <= n * per_host` always holds.
#[test]
fn closed_loop_population_conserves_bytes() {
    let n = 9;
    let c = cfg();
    let mut w = World::new(ClusterSpec::new(n).seed(5), move |id| {
        DrsDaemon::new(id, n, c)
    });
    w.schedule_faults(
        FaultPlan::new()
            .fail_at(SimTime(1_500_000_123), SimComponent::Hub(NetId::A))
            .repair_at(SimTime(3_500_000_123), SimComponent::Hub(NetId::A)),
    );
    w.enable_workload(WorkloadSpec {
        arrivals: ArrivalProcess::Closed {
            per_host: 40,
            think_mean_ns: 300_000_000,
        },
        holding: HoldingDist::LogNormal {
            median_ns: 500_000_000,
            sigma_milli: 700,
        },
        classes: vec![ClassSpec {
            rate_bps: 1_000_000,
        }],
        horizon: SimTime(6_000_000_000),
    });
    w.run_for(SimDuration::from_secs(8));
    let stats = w.workload_stats().expect("workload enabled");
    assert!(stats.opened > 0);
    assert!(
        stats.active <= (n as u64) * 40,
        "population bound: {} active",
        stats.active
    );
    assert_eq!(w.workload_events(), stats.transitions);
    let report = w.workload_engine().expect("engine").conservation();
    assert!(report.holds(), "closed-loop conservation: {report:?}");
}
