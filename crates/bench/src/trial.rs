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
//!
//! # Timeline
//!
//! The failure set strikes at 1 s; the message is sent at 6 s, several
//! probe cycles and discovery rounds later; the simulation stops where
//! the flow resolves (`World::run_until_settled`) — within a round trip
//! of the send when the pair is connected, at the transport's give-up
//! 12.7 s later when it is not. The budget is the transport's retry
//! lifetime (`max_flow_lifetime`) plus a one-second margin; a flow with
//! no outcome by then is a panic naming the trial, never a give-up. A
//! [`Trial`] holds the failure set, the predicate and the flow's terminal
//! outcome and nothing the cluster does afterwards, so stopping early
//! moves no committed byte. The protocol shootout
//! (`drs_baselines::compare`) keeps its fixed horizon instead: it
//! harvests probe histograms and daemon logs from the world after the
//! run, so its tail is part of what it commits.

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

/// When the failure set strikes: one second in, with every daemon's
/// monitor table warm.
const FAULT_AT: SimTime = SimTime(1_000_000_000);

/// When the measurement pair's one message is sent: five seconds —
/// several probe cycles and discovery rounds — past the fault.
const SEND_AT: SimTime = SimTime(6_000_000_000);

/// A fast transport (100 ms initial RTO) so each trial resolves in
/// seconds of virtual time; the outcome only depends on connectivity.
const TRANSPORT: TransportConfig = TransportConfig {
    initial_rto: SimDuration::from_millis(100),
    backoff_factor: 2,
    max_retries: 6,
};

/// The time a trial's flow is given to resolve after [`SEND_AT`]: the
/// transport's retry lifetime plus a second. The give-up fires at
/// exactly `send + max_flow_lifetime`; the margin only keeps the
/// deadline off that instant.
fn flow_budget() -> SimDuration {
    TRANSPORT.max_flow_lifetime() + SimDuration::from_secs(1)
}

/// Runs one trial on an `n`-host, `planes`-plane DRS cluster: unrank the
/// failure set over the `K·N + K` component universe, predict
/// connectivity of the pair `0 -> 1` analytically, then replay it against
/// live daemons.
///
/// # Panics
/// Panics, naming the trial, if the flow has no outcome when its budget
/// runs out — the transport resolves every flow inside its retry
/// lifetime, so that is a simulator bug, never a give-up.
#[must_use]
pub fn run_trial(n: usize, planes: u8, f: usize, seed: u64) -> Trial {
    run_trial_within(n, planes, f, seed, flow_budget()).0
}

/// [`run_trial`] with the time the flow is given to resolve after
/// [`SEND_AT`] as a parameter. Returns, next to the trial, what the pins
/// in this module's tests read: the instant the simulation stopped at
/// and the timer-wheel pops of the whole run.
fn run_trial_within(
    n: usize,
    planes: u8,
    f: usize,
    seed: u64,
    budget: SimDuration,
) -> (Trial, SimTime, u64) {
    let k = usize::from(planes);
    let failures = ComponentSet::from_indices(&unrank_for_seed(k * n + k, f, seed));
    let predicted = pair_connected_k(n, planes, &failures, 0, 1);

    let cfg = DrsConfig::default()
        .probe_timeout(SimDuration::from_millis(50))
        .probe_interval(SimDuration::from_millis(200));
    let spec = ClusterSpec::new(n)
        .seed(seed)
        .planes(planes)
        .transport(TRANSPORT);
    let mut world = World::new(spec, |id| DrsDaemon::new(id, n, cfg));

    let mut events = Vec::new();
    let mut plan = FaultPlan::new();
    for idx in failures.iter() {
        let component = index_to_component(idx, n, planes);
        plan = plan.fail_at(FAULT_AT, component);
        events.push(TraceEvent::new(
            FAULT_AT.0,
            TraceEventKind::FaultInjected,
            format!("{component:?}"),
        ));
    }
    world.schedule_faults(plan);

    world.run_until(SEND_AT);
    let flow = world.send_app(SEND_AT, NodeId(0), NodeId(1), 256);
    // The trial asks one question — did the pair communicate? — and an
    // outcome never changes once set, so the run ends where the flow
    // resolves instead of simulating the rest of the retry budget.
    let stopped_at = world.run_until_settled(SEND_AT + budget);
    let delivered = match world.flow_outcome(flow) {
        Some(FlowOutcome::Delivered(rtt)) => {
            events.push(TraceEvent::new(
                (SEND_AT + rtt).0,
                TraceEventKind::FlowDelivered,
                format!("0 -> 1 rtt {rtt}"),
            ));
            true
        }
        Some(FlowOutcome::GaveUp) => {
            events.push(TraceEvent::new(
                SEND_AT.0,
                TraceEventKind::FlowGaveUp,
                "0 -> 1".to_string(),
            ));
            false
        }
        None => panic!(
            "trial (n = {n}, planes = {planes}, f = {f}, seed = {seed}): flow 0 -> 1 \
             still in flight at {stopped_at}, {budget} after its send"
        ),
    };

    let trial = Trial {
        seed,
        predicted,
        delivered,
        events,
    };
    (trial, stopped_at, world.kernel_stats().wheel.pops)
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

    /// `drs_sim`'s settle stride (private there): how far past the
    /// flow's resolution `run_until_settled` may stop.
    const ONE_STRIDE: SimDuration = SimDuration::from_millis(20);

    /// Complexity pin (PR 23): a trial costs the virtual time up to its
    /// flow's resolution, not the whole retry budget. A delivered
    /// N = 16, K = 2 trial stops within one stride of the ack, and its
    /// timer-wheel pops stay under the per-pair monitor's closed form for
    /// `SEND_AT + stride` of a *healthy* cluster — per probe cycle, each
    /// of the `K·N·(N−1)` monitored links pops a probe timer, a timeout
    /// timer, the request's arrival and the reply's. Counts only, no
    /// clock: simulating the remaining 20 s, as every trial did before
    /// PR 23, overshoots the bound more than three times over.
    #[test]
    fn a_delivered_trial_costs_six_seconds_of_probing_not_twenty_six() {
        let (n, planes) = (16u64, 2u64);
        let (trial, stopped_at, pops) = run_trial_within(16, 2, 2, 1, flow_budget());
        assert!(trial.predicted && trial.delivered, "{trial:?}");
        let probe_interval = SimDuration::from_millis(200).as_nanos();
        let cycles = (SEND_AT + ONE_STRIDE).0.div_ceil(probe_interval);
        let bound = cycles * 4 * planes * n * (n - 1);
        assert!(
            pops <= bound,
            "{pops} pops for a {stopped_at} run, over {bound}"
        );
        let acked_at = SimTime(trial.events.last().expect("terminal event").at_ns);
        assert!(
            acked_at <= stopped_at && stopped_at < acked_at + ONE_STRIDE,
            "acked at {acked_at}, stopped at {stopped_at}"
        );
    }

    /// The other end of the pin: an unreachable destination costs the
    /// transport's retry lifetime and not the margin on top of it.
    #[test]
    fn an_undelivered_trial_stops_where_the_transport_gives_up() {
        let (trial, stopped_at, _) = run_trial_within(16, 2, 2, 0, flow_budget());
        assert!(!trial.predicted && !trial.delivered, "{trial:?}");
        let gave_up_at = SEND_AT + TRANSPORT.max_flow_lifetime();
        assert!(
            gave_up_at <= stopped_at && stopped_at < gave_up_at + ONE_STRIDE,
            "gave up at {gave_up_at}, stopped at {stopped_at}"
        );
        let last = trial.events.last().expect("terminal event");
        assert_eq!(last.kind, TraceEventKind::FlowGaveUp);
    }

    /// A flow still retrying when its budget ends is not a give-up: the
    /// same unreachable trial, cut off after one second, must not come
    /// back as `delivered: false`.
    #[test]
    #[should_panic(
        expected = "trial (n = 16, planes = 2, f = 2, seed = 0): flow 0 -> 1 still in flight"
    )]
    fn a_pending_flow_is_an_error_not_a_give_up() {
        let _ = run_trial_within(16, 2, 2, 0, SimDuration::from_secs(1));
    }
}
