//! The one DES-vs-predicate cross-check trial every simulation sweep
//! shares: [`crate::e2e`] (the paper's `K = 2` cluster), [`crate::knet`]
//! (`K ∈ {2, 3, 4}`) and the K-plane rows of [`crate::topology_zoo`].
//!
//! A trial selects an f-component failure set *deterministically* by
//! combinadic unranking of the trial seed (no random draw anywhere on the
//! path), injects it into a live DRS cluster, waits for the protocol to
//! converge, then sends one application message between the measurement
//! pair. Delivery must succeed exactly when the analytic predicate says
//! the pair is connected. Because neither the failure-set choice nor the
//! simulation consumes a random stream, trials are reproducible by
//! arithmetic alone — which is what lets them into the committed
//! artifacts.

use drs_analytic::binom::shared_table;
use drs_analytic::connectivity::pair_connected_k;
use drs_analytic::enumerate::unrank;
use drs_core::{DrsConfig, DrsDaemon};
use drs_harness::{TraceEvent, TraceEventKind};
use drs_sim::fault::{index_to_component, FaultPlan};
use drs_sim::scenario::{ClusterSpec, TransportConfig};
use drs_sim::world::{FlowOutcome, World};
use drs_sim::{NodeId, SimDuration, SimTime};
use drs_topology::ComponentSet;

/// One completed cross-check trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trial {
    /// The trial seed (selects the failure set by combinadic rank).
    pub seed: u64,
    /// What the connectivity predicate said.
    pub predicted: bool,
    /// What the packet-level simulation delivered.
    pub delivered: bool,
    /// Fault injections and the probe flow's outcome (empty for trials
    /// that record no trace, e.g. the zoo's flood trials).
    pub events: Vec<TraceEvent>,
}

impl Trial {
    /// Whether simulation and predicate agree — the cross-check invariant.
    #[must_use]
    pub fn agrees(&self) -> bool {
        self.predicted == self.delivered
    }
}

/// The failure components trial `seed` examines: the seed's combinadic
/// rank into the `C(m, f)` subsets of an `m`-component universe. Pure
/// arithmetic — no random stream.
#[must_use]
pub fn unrank_for_seed(m: usize, f: usize, seed: u64) -> Vec<usize> {
    let total = shared_table()
        .get(m as u64, f as u64)
        .expect("swept cells stay within the shared binomial table");
    let rank = u128::from(seed) % total;
    unrank(m, f, rank).expect("rank is reduced modulo the subset count")
}

/// Runs one trial on an `n`-host, `planes`-plane DRS cluster: unrank the
/// failure set over the `K·N + K` component universe, predict
/// connectivity of the pair `0 -> 1` analytically, then replay it against
/// live daemons.
#[must_use]
pub fn run_trial(n: usize, planes: u8, f: usize, seed: u64) -> Trial {
    let k = usize::from(planes);
    let failures = ComponentSet::from_indices(&unrank_for_seed(k * n + k, f, seed));
    let predicted = pair_connected_k(n, planes, &failures, 0, 1);

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
    let spec = ClusterSpec::new(n)
        .seed(seed)
        .planes(planes)
        .transport(transport);
    let mut world = World::new(spec, |id| DrsDaemon::new(id, n, cfg));

    let fault_at = SimTime(1_000_000_000);
    let mut events = Vec::new();
    let mut plan = FaultPlan::new();
    for idx in failures.iter() {
        let component = index_to_component(idx, n, planes);
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

    Trial {
        seed,
        predicted,
        delivered,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unranked_sets_are_deterministic_sized_and_in_range() {
        for (m, f) in [(14, 2), (26, 5), (20, 3), (68, 4)] {
            let a = unrank_for_seed(m, f, 12345);
            assert_eq!(a, unrank_for_seed(m, f, 12345));
            assert_eq!(a.len(), f);
            assert!(a.iter().all(|&i| i < m));
        }
    }

    #[test]
    fn distinct_seeds_cover_distinct_sets() {
        // Consecutive ranks decode to consecutive combinations — all
        // distinct for seeds below the subset count.
        let sets: Vec<Vec<usize>> = (0..10).map(|s| unrank_for_seed(18, 3, s)).collect();
        for (i, a) in sets.iter().enumerate() {
            for b in &sets[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn trial_records_every_fault_and_one_terminal_event() {
        let t = run_trial(5, 3, 2, 0);
        assert!(t.agrees(), "{t:?}");
        assert_eq!(t.events.len(), 3);
        assert!(t.events[..2]
            .iter()
            .all(|e| e.kind == TraceEventKind::FaultInjected));
    }
}
