//! The committed fluid-workload benchmark: builds the
//! `BENCH_workload.json` artifact (schema [`WORKLOAD_SCHEMA`]).
//!
//! Three sections, all draw-free and sim-time-only, so the committed
//! file is byte-reproducible on any machine:
//!
//! * **`slo`** — the paper's hub-failure scenario with a heavy-tailed
//!   open-loop session workload riding on the DRS daemons: goodput,
//!   interruption, stalled/dropped-per-failover histograms, the exact
//!   conservation ledger, and the engine-vs-daemon reroute cross-check,
//!   each asserted before anything is written.
//! * **`scaling`** — the O(transitions) pillar, measured: the same
//!   arrival schedule at per-session rates ×1, ×16 and ×256 produces
//!   *identical* kernel event and transition counts (the kernel never
//!   touches a session between its transitions), while every fluid
//!   ledger quantity scales exactly linearly.
//! * **`million`** — a 1.04-million-user closed-loop population over a
//!   hub failure: the run fits a fixed kernel
//!   event budget because events are one per session transition, not
//!   per byte or per packet, and the ledger still balances exactly.
//!
//! Wall-clock numbers come from `benchmark/run.sh` (`fluid_million`,
//! `sim.workload.*`); this module is virtual-time determinism only.

use drs_core::{DrsConfig, DrsDaemon};
use drs_harness::coord_seed;
use drs_obs::{ObsArtifact, Row, Section};
use drs_sim::workload::UNIT_PER_BYTE;
use drs_sim::{
    ArrivalProcess, ClassSpec, ClusterSpec, FaultPlan, HoldingDist, NetId, SimComponent,
    SimDuration, SimTime, WorkloadSpec, WorkloadStats, World,
};

use crate::BENCH_SEED;

/// Schema tag written into every workload artifact.
pub const WORKLOAD_SCHEMA: &str = "drs-bench-workload/v1";

/// The shard count `benchmark/` passes to `ShardedWorld::with_topology`,
/// which ignores it. It stays only because `benchmark/` imports it;
/// ROADMAP item 7 deletes it.
pub const WORKLOAD_SHARDS: usize = 4;

/// Sessions-per-host population of the million cell: 40 hosts ×
/// 26 000 users = 1 040 000 concurrent sessions.
pub const MILLION_PER_HOST: u32 = 26_000;

/// Hosts in the million cell.
pub const MILLION_HOSTS: usize = 40;

/// Kernel event budget of the million cell — generous headroom over the
/// ~1.06 M transitions the population actually makes, and orders of
/// magnitude below what per-packet simulation of a million 60 s
/// sessions would cost. The cell asserts `events == transitions` (the
/// exact identity) *and* `events <= MILLION_EVENT_BUDGET`.
pub const MILLION_EVENT_BUDGET: u64 = 2_000_000;

/// Rate multipliers of the scaling section.
pub const SCALING_MULTIPLIERS: [u64; 3] = [1, 16, 256];

fn daemon_config() -> DrsConfig {
    DrsConfig::default()
        .probe_timeout(SimDuration::from_millis(50))
        .probe_interval(SimDuration::from_millis(200))
}

fn slo_plan() -> FaultPlan {
    FaultPlan::new()
        .fail_at(SimTime(5_000_000_123), SimComponent::Hub(NetId::A))
        .repair_at(SimTime(8_000_000_123), SimComponent::Hub(NetId::A))
}

/// The SLO cell's workload: open-loop Poisson arrivals, Pareto holding
/// times (α = 1.5, heavy-tailed: many short sessions, a few very long
/// ones straddling the failover), two traffic classes.
fn slo_spec() -> WorkloadSpec {
    WorkloadSpec {
        arrivals: ArrivalProcess::Open {
            mean_gap_ns: 40_000_000,
        },
        holding: HoldingDist::Pareto {
            xm_ns: 300_000_000,
            alpha_milli: 1500,
        },
        classes: vec![
            ClassSpec {
                rate_bps: 2_000_000,
            },
            ClassSpec { rate_bps: 250_000 },
        ],
        horizon: SimTime(10_000_000_000),
    }
}

const SLO_HOSTS: usize = 24;
const SLO_RUN: SimDuration = SimDuration(12_000_000_000);

/// One run's outcome for a workload cell: the full statistics, the
/// engine digest, the session-attributable kernel event count, and the
/// daemons' reroute sample count (the cross-check target).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRun {
    /// Full workload statistics (histograms included).
    pub stats: WorkloadStats,
    /// FNV-1a digest of the engine's complete observable state.
    pub digest: u64,
    /// Kernel events dispatched for sessions — must equal
    /// `stats.transitions`.
    pub events: u64,
    /// `reroute_complete` samples across every daemon.
    pub daemon_reroutes: u64,
    /// Whether `offered == delivered + shortfall + dropped + in_flight`
    /// held exactly.
    pub conserved: bool,
}

impl WorkloadRun {
    /// Harvests a finished workload-enabled world.
    fn harvest(w: &World<DrsDaemon>) -> Self {
        let engine = w.workload_engine().expect("workload enabled");
        WorkloadRun {
            stats: engine.stats().clone(),
            digest: engine.digest(),
            events: w.workload_events(),
            daemon_reroutes: w.merged_probe_obs().reroute_complete.count(),
            conserved: engine.conservation().holds(),
        }
    }
}
/// Runs the SLO cell.
#[must_use]
pub fn run_slo() -> WorkloadRun {
    let n = SLO_HOSTS;
    let cfg = daemon_config();
    let spec = ClusterSpec::new(n).seed(coord_seed(BENCH_SEED, n as u64, 1));
    let mut w = World::new(spec, |id| DrsDaemon::new(id, n, cfg));
    w.schedule_faults(slo_plan());
    w.enable_workload(slo_spec());
    w.run_for(SLO_RUN);
    WorkloadRun::harvest(&w)
}

/// One scaling run: the SLO arrival schedule on 16 hosts with every
/// class rate multiplied by `m`. Base rates are tiny (8 bps) so even
/// ×256 stays far from capacity — linearity is then exact, not
/// approximate.
#[must_use]
pub fn run_scaling(m: u64) -> WorkloadRun {
    let n = 16usize;
    let cfg = daemon_config();
    let spec = ClusterSpec::new(n).seed(coord_seed(BENCH_SEED, n as u64, 2));
    let mut w = World::new(spec, |id| DrsDaemon::new(id, n, cfg));
    w.schedule_faults(
        FaultPlan::new()
            .fail_at(SimTime(2_000_000_123), SimComponent::Hub(NetId::A))
            .repair_at(SimTime(3_200_000_123), SimComponent::Hub(NetId::A)),
    );
    w.enable_workload(WorkloadSpec {
        arrivals: ArrivalProcess::Open {
            mean_gap_ns: 50_000_000,
        },
        holding: HoldingDist::Pareto {
            xm_ns: 200_000_000,
            alpha_milli: 1500,
        },
        classes: vec![
            ClassSpec { rate_bps: 8 * m },
            ClassSpec { rate_bps: 16 * m },
        ],
        horizon: SimTime(5_000_000_000),
    });
    w.run_for(SimDuration::from_secs(6));
    WorkloadRun::harvest(&w)
}

/// The million cell: a closed-loop population of
/// [`MILLION_PER_HOST`] × [`MILLION_HOSTS`] users with 60 s mean
/// holding times, a 2 s observation window, and a 0.5 s hub outage in
/// the middle — the workload shape that is simply unrunnable per-packet
/// and trivial at O(transitions).
#[must_use]
pub fn run_million() -> WorkloadRun {
    let n = MILLION_HOSTS;
    let cfg = daemon_config();
    let spec = ClusterSpec::new(n).seed(coord_seed(BENCH_SEED, n as u64, 3));
    let mut w = World::new(spec, |id| DrsDaemon::new(id, n, cfg));
    w.schedule_faults(
        FaultPlan::new()
            .fail_at(SimTime(1_000_000_123), SimComponent::Hub(NetId::A))
            .repair_at(SimTime(1_500_000_123), SimComponent::Hub(NetId::A)),
    );
    w.enable_workload(WorkloadSpec {
        arrivals: ArrivalProcess::Closed {
            per_host: MILLION_PER_HOST,
            think_mean_ns: 250_000_000,
        },
        holding: HoldingDist::Exponential {
            mean_ns: 60_000_000_000,
        },
        classes: vec![ClassSpec { rate_bps: 64_000 }],
        horizon: SimTime(2_000_000_000),
    });
    w.run_for(SimDuration::from_secs(2));
    WorkloadRun::harvest(&w)
}

/// Truncating byte view of an exact `byte·ns/s` ledger quantity — for
/// artifact rows only; every assertion runs on the exact units.
#[must_use]
pub fn unit_to_bytes(unit: u128) -> u64 {
    u64::try_from(unit / UNIT_PER_BYTE).unwrap_or(u64::MAX)
}

fn stats_row(id: &str, run: &WorkloadRun) -> Row {
    let s = &run.stats;
    Row::new(id)
        .count("opened", s.opened)
        .count("closed", s.closed)
        .count("active", s.active)
        .count("dropped_arrivals", s.dropped_arrivals)
        .count("transitions", s.transitions)
        .count("kernel_session_events", run.events)
        .count(
            "events_equal_transitions",
            u64::from(run.events == s.transitions),
        )
        .count("route_transitions", s.route_transitions)
        .count("nic_transitions", s.nic_transitions)
        .count("hub_transitions", s.hub_transitions)
        .count("reroute_notifications", s.reroute_notifications)
        .count("daemon_reroutes", run.daemon_reroutes)
        .count("stall_windows", s.stall_windows)
        .count("resumed_windows", s.resumed_windows)
        .count("offered_bytes", unit_to_bytes(s.offered_unit))
        .count("delivered_bytes", unit_to_bytes(s.delivered_unit))
        .count("shortfall_bytes", unit_to_bytes(s.shortfall_unit))
        .count("dropped_bytes", unit_to_bytes(s.dropped_unit))
        .count("conserved", u64::from(run.conserved))
        .count("digest", run.digest)
}

/// Builds the full workload artifact, asserting every invariant on the
/// way: the SLO cell's ledger and cross-checks, exact linearity and
/// transition invariance on the scaling ladder, and the million cell's
/// population, budget and conservation bounds.
#[must_use]
pub fn workload_bench_artifact() -> ObsArtifact {
    let mut artifact = ObsArtifact::new(BENCH_SEED);

    let slo_run = run_slo();
    assert!(slo_run.conserved, "slo: fluid ledger out of balance");
    assert!(slo_run.stats.stall_windows > 0, "slo: no failover stalls");
    assert!(
        slo_run.stats.resumed_windows > 0,
        "slo: failover never resumed a stalled session"
    );
    assert_eq!(
        slo_run.stats.reroute_notifications, slo_run.daemon_reroutes,
        "slo: engine reroute credits != daemon reroute_complete samples"
    );
    assert_eq!(
        slo_run.events, slo_run.stats.transitions,
        "slo: kernel touched sessions outside their transitions"
    );
    let mut slo = Section::new("slo");
    slo.push(stats_row("hub_failover_n24", &slo_run));
    slo.push(Row::new("goodput_bytes").hist(&slo_run.stats.goodput_bytes));
    slo.push(Row::new("interruption_ns").hist(&slo_run.stats.interruption));
    slo.push(Row::new("stalled_per_failover").hist(&slo_run.stats.stalled_per_failover));
    slo.push(Row::new("dropped_per_stall").hist(&slo_run.stats.dropped_per_stall));
    artifact.push(slo);

    // Scaling: the kernel's work is a function of the transition count
    // alone. Multiplying every per-session rate by 256 changes *no*
    // event count and scales every ledger quantity exactly linearly.
    let base = run_scaling(SCALING_MULTIPLIERS[0]);
    let mut scaling = Section::new("scaling");
    for &m in &SCALING_MULTIPLIERS {
        let run = if m == SCALING_MULTIPLIERS[0] {
            base.clone()
        } else {
            run_scaling(m)
        };
        assert!(run.conserved, "scaling x{m}: ledger out of balance");
        assert_eq!(
            run.events, base.events,
            "scaling x{m}: kernel event count depends on offered load"
        );
        assert_eq!(
            run.stats.transitions, base.stats.transitions,
            "scaling x{m}: transition count depends on offered load"
        );
        assert_eq!(
            run.stats.offered_unit,
            base.stats.offered_unit * u128::from(m),
            "scaling x{m}: offered bytes not exactly linear"
        );
        assert_eq!(
            run.stats.delivered_unit,
            base.stats.delivered_unit * u128::from(m),
            "scaling x{m}: delivered bytes not exactly linear"
        );
        assert_eq!(
            run.stats.shortfall_unit,
            base.stats.shortfall_unit * u128::from(m),
            "scaling x{m}: shortfall not exactly linear"
        );
        scaling.push(
            Row::new(format!("x{m}"))
                .count("rate_multiplier", m)
                .count("kernel_session_events", run.events)
                .count("transitions", run.stats.transitions)
                .count("events_equal_base", u64::from(run.events == base.events))
                .count("offered_bytes", unit_to_bytes(run.stats.offered_unit))
                .count("delivered_bytes", unit_to_bytes(run.stats.delivered_unit))
                .count("shortfall_bytes", unit_to_bytes(run.stats.shortfall_unit))
                .count("conserved", u64::from(run.conserved)),
        );
    }
    artifact.push(scaling);

    // Million: population, budget, identity, conservation.
    let run = run_million();
    let population = u64::from(MILLION_PER_HOST) * MILLION_HOSTS as u64;
    assert!(
        run.stats.active >= 1_000_000,
        "million: only {} sessions active",
        run.stats.active
    );
    assert_eq!(
        run.events, run.stats.transitions,
        "million: kernel events != session transitions"
    );
    assert!(
        run.events <= MILLION_EVENT_BUDGET,
        "million: {} events blew the {MILLION_EVENT_BUDGET} budget",
        run.events
    );
    assert!(run.conserved, "million: ledger out of balance");
    let mut million = Section::new("million");
    million.push(
        stats_row("closed_loop_1m", &run)
            .count("population", population)
            .count("event_budget", MILLION_EVENT_BUDGET)
            .count(
                "within_budget",
                u64::from(run.events <= MILLION_EVENT_BUDGET),
            ),
    );
    artifact.push(million);

    artifact
}

/// The million cell's pure-integer verdict for `drs-bench repro`: the kernel
/// dispatched exactly one event per session transition while holding a
/// million-session population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MillionVerdict {
    /// Configured population.
    pub population: u64,
    /// Sessions active at the end of the window.
    pub active: u64,
    /// Kernel events dispatched for sessions.
    pub kernel_session_events: u64,
    /// Session transitions the engine consumed.
    pub transitions: u64,
    /// The ledger balanced exactly.
    pub conserved: bool,
}

impl MillionVerdict {
    /// All claims in one boolean.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.active >= 1_000_000
            && self.kernel_session_events == self.transitions
            && self.kernel_session_events <= MILLION_EVENT_BUDGET
            && self.conserved
    }
}

/// Runs the million cell and folds it into its verdict.
#[must_use]
pub fn million_verdict() -> MillionVerdict {
    let run = run_million();
    MillionVerdict {
        population: u64::from(MILLION_PER_HOST) * MILLION_HOSTS as u64,
        active: run.stats.active,
        kernel_session_events: run.events,
        transitions: run.stats.transitions,
        conserved: run.conserved,
    }
}

/// The SLO cell's verdict for `drs-bench repro`: conservation, failover
/// stall/resume coverage, and the reroute cross-check against the
/// daemons' own observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloVerdict {
    /// The ledger balanced exactly.
    pub conserved: bool,
    /// Failover stall windows opened.
    pub stall_windows: u64,
    /// Stall windows closed by a reroute or repair.
    pub resumed_windows: u64,
    /// Interruption samples recorded.
    pub interruption_samples: u64,
    /// Engine reroute credits equal daemon `reroute_complete` samples.
    pub reroutes_match: bool,
}

impl SloVerdict {
    /// All claims in one boolean.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.conserved
            && self.stall_windows > 0
            && self.resumed_windows > 0
            && self.interruption_samples > 0
            && self.reroutes_match
    }
}

/// Runs the SLO cell and folds it into its verdict.
#[must_use]
pub fn slo_verdict() -> SloVerdict {
    let run = run_slo();
    SloVerdict {
        conserved: run.conserved,
        stall_windows: run.stats.stall_windows,
        resumed_windows: run.stats.resumed_windows,
        interruption_samples: run.stats.interruption.count(),
        reroutes_match: run.stats.reroute_notifications == run.daemon_reroutes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_cell_conserves_and_matches_the_daemons() {
        let run = run_slo();
        assert!(run.conserved);
        assert_eq!(run.stats.reroute_notifications, run.daemon_reroutes);
    }

    #[test]
    fn scaling_is_transition_invariant_and_exactly_linear() {
        let base = run_scaling(1);
        let scaled = run_scaling(16);
        assert_eq!(scaled.events, base.events);
        assert_eq!(scaled.stats.transitions, base.stats.transitions);
        assert_eq!(scaled.stats.offered_unit, base.stats.offered_unit * 16);
        assert_eq!(scaled.stats.delivered_unit, base.stats.delivered_unit * 16);
    }

    #[test]
    fn million_verdict_holds() {
        let v = million_verdict();
        assert!(v.holds(), "{v:?}");
    }
}
