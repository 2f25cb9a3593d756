//! End-to-end survivability trials: the packet-level simulator with real
//! DRS daemons checked, trial by trial, against the combinatorial
//! connectivity predicate behind Equation 1.
//!
//! Each trial selects an f-component failure set *deterministically* by
//! combinadic unranking of the trial seed (no random draw anywhere on the
//! path), injects it into a live DRS cluster, waits for the protocol to
//! converge, then sends one application message between the measurement
//! pair. Delivery must succeed exactly when the analytic predicate says
//! the pair is connected. Because neither the failure-set choice nor the
//! simulation consumes a random stream, these trials are reproducible
//! by arithmetic alone — which is what lets them into the committed
//! `BENCH_sim_survivability.json`.

use drs_analytic::binom::shared_table;
use drs_analytic::components::FailureSet;
use drs_analytic::connectivity::pair_connected;
use drs_analytic::enumerate::unrank;
use drs_core::{DrsConfig, DrsDaemon};
use drs_harness::{
    Experiment, ExperimentRecord, Metric, RunMode, TraceEvent, TraceEventKind, TrialRecord,
};
use drs_sim::fault::{index_to_component, FaultPlan};
use drs_sim::ids::NodeId;
use drs_sim::scenario::{ClusterSpec, TransportConfig};
use drs_sim::time::{SimDuration, SimTime};
use drs_sim::world::{FlowOutcome, World};

/// The `(n, f)` configurations the end-to-end cross-check runs over.
pub const E2E_GRID: [(usize, usize); 5] = [(6, 2), (8, 2), (8, 3), (10, 4), (12, 5)];

/// One completed end-to-end trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct E2eTrial {
    /// The trial seed (selects the failure set).
    pub seed: u64,
    /// What Equation 1's connectivity predicate said.
    pub predicted: bool,
    /// What the packet-level simulation delivered.
    pub delivered: bool,
    /// Fault injections and the probe flow's outcome.
    pub events: Vec<TraceEvent>,
}

impl E2eTrial {
    /// Whether simulation and predicate agree — the cross-check invariant.
    #[must_use]
    pub fn agrees(&self) -> bool {
        self.predicted == self.delivered
    }
}

/// The failure set trial `seed` examines: the seed's combinadic rank into
/// the `C(2n+2, f)` subsets of the component space. Pure arithmetic — no
/// random stream.
#[must_use]
pub fn failure_set_for_seed(n: usize, f: usize, seed: u64) -> FailureSet {
    let components = 2 * n + 2;
    let total = shared_table()
        .get(components as u64, f as u64)
        .expect("e2e grid cells stay within the shared binomial table");
    let rank = u128::from(seed) % total;
    let indices = unrank(components, f, rank).expect("rank is reduced modulo the subset count");
    FailureSet::from_indices(&indices)
}

/// Runs one end-to-end trial: unrank the failure set, predict
/// connectivity analytically, then replay it against a live DRS cluster.
#[must_use]
pub fn run_trial(n: usize, f: usize, seed: u64) -> E2eTrial {
    let failures = failure_set_for_seed(n, f, seed);
    let predicted = pair_connected(n, &failures, 0, 1);

    let cfg = DrsConfig::default()
        .probe_timeout(SimDuration::from_millis(50))
        .probe_interval(SimDuration::from_millis(200));
    // A fast transport (100 ms initial RTO) so each trial resolves in
    // seconds of virtual time; the outcome only depends on connectivity.
    let transport = TransportConfig {
        initial_rto: SimDuration::from_millis(100),
        backoff_factor: 2,
        max_retries: 6,
    };
    let spec = ClusterSpec::new(n).seed(seed).transport(transport);
    let mut world = World::new(spec, |id| DrsDaemon::new(id, n, cfg));

    let fault_at = SimTime(1_000_000_000);
    let mut events = Vec::new();
    let mut plan = FaultPlan::new();
    for idx in failures.iter() {
        let component = index_to_component(idx, n, 2);
        plan = plan.fail_at(fault_at, component);
        events.push(TraceEvent::new(
            fault_at.0,
            TraceEventKind::FaultInjected,
            format!("{component:?}"),
        ));
    }
    world.schedule_faults(plan);

    // Converge: several probe cycles + discovery rounds past the fault.
    world.run_for(SimDuration::from_secs(6));
    let sent_at = world.now();
    let flow = world.send_app(sent_at, NodeId(0), NodeId(1), 256);
    // Long enough for the full (compressed) transport retry budget.
    world.run_for(SimDuration::from_secs(20));
    let delivered = match world.flow_outcome(flow) {
        Some(FlowOutcome::Delivered(rtt)) => {
            events.push(TraceEvent::new(
                (sent_at + rtt).0,
                TraceEventKind::FlowDelivered,
                format!("0 -> 1 rtt {rtt}"),
            ));
            true
        }
        _ => {
            events.push(TraceEvent::new(
                sent_at.0,
                TraceEventKind::FlowGaveUp,
                "0 -> 1".to_string(),
            ));
            false
        }
    };

    E2eTrial {
        seed,
        predicted,
        delivered,
        events,
    }
}

/// Runs one `(n, f)` cell as a [`drs_harness::Experiment`] of `trials`
/// replications under `master_seed`; trial order is stable across modes.
#[must_use]
pub fn run_cell(
    n: usize,
    f: usize,
    trials: usize,
    master_seed: u64,
    mode: RunMode,
) -> Vec<E2eTrial> {
    let exp = Experiment::replications(&format!("e2e/n{n}_f{f}"), master_seed, trials);
    exp.run(mode, |ctx, ()| run_trial(n, f, ctx.seed))
}

/// Folds a cell's trials into the artifact form.
#[must_use]
pub fn cell_record(n: usize, f: usize, master_seed: u64, rows: &[E2eTrial]) -> ExperimentRecord {
    let trials = rows
        .iter()
        .enumerate()
        .map(|(i, t)| {
            TrialRecord::new(format!("t{i:02}"), t.seed)
                .metric(Metric::count("predicted", u64::from(t.predicted)))
                .metric(Metric::count("delivered", u64::from(t.delivered)))
                .metric(Metric::count("agree", u64::from(t.agrees())))
                .with_events(t.events.clone())
        })
        .collect();
    ExperimentRecord {
        name: format!("e2e/n{n}_f{f}"),
        master_seed,
        trials,
    }
}

/// Count of simulation-vs-predicate disagreements over one cell — the
/// compact form `repro_all` asserts to zero.
#[must_use]
pub fn mismatches(n: usize, f: usize, trials: usize, master_seed: u64) -> u64 {
    run_cell(n, f, trials, master_seed, RunMode::Parallel)
        .iter()
        .filter(|t| !t.agrees())
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_sets_are_deterministic_and_correctly_sized() {
        for &(n, f) in &E2E_GRID {
            let a = failure_set_for_seed(n, f, 12345);
            let b = failure_set_for_seed(n, f, 12345);
            assert_eq!(a, b);
            assert_eq!(a.iter().count(), f);
            assert!(a.iter().all(|i| i < 2 * n + 2));
        }
    }

    #[test]
    fn distinct_seeds_cover_distinct_sets() {
        let sets: Vec<FailureSet> = (0..10).map(|s| failure_set_for_seed(8, 3, s)).collect();
        // Consecutive ranks decode to consecutive combinations — all
        // distinct for seeds below the subset count.
        for (i, a) in sets.iter().enumerate() {
            for b in &sets[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn trial_agrees_with_the_predicate() {
        let rows = run_cell(6, 2, 8, 42, RunMode::Parallel);
        assert_eq!(rows.len(), 8);
        for t in &rows {
            assert!(t.agrees(), "seed {} disagreed: {t:?}", t.seed);
        }
    }

    #[test]
    fn cell_runs_are_mode_independent() {
        let serial = run_cell(6, 2, 6, 7, RunMode::Serial);
        let parallel = run_cell(6, 2, 6, 7, RunMode::Parallel);
        assert_eq!(serial, parallel);
        assert_eq!(
            cell_record(6, 2, 7, &serial),
            cell_record(6, 2, 7, &parallel)
        );
    }
}
