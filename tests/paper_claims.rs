//! The paper's headline claims, one test each — the abstract rendered as
//! a test suite. Every assertion here traces to a sentence of the paper
//! (quoted in the test).

use drs::analytic::cost::model::ProbeCostModel;
use drs::analytic::exact::p_success;
use drs::analytic::fleet::FailureRates;
use drs::analytic::thresholds::first_n_exceeding;
use drs::core::{DrsConfig, DrsDaemon};
use drs::sim::fault::{FaultPlan, SimComponent};
use drs::sim::{ClusterSpec, NetId, NodeId, SimDuration, SimTime, World};

/// "for f=2 the P[S] surpasses 0.99 at 18 nodes. For f=3 the P[S]
/// surpasses 0.99 at 32 nodes, and for f=4 the P[S] surpasses 0.99 at 45
/// nodes."
#[test]
fn claim_milestones() {
    assert_eq!(first_n_exceeding(2, 0.99), Some(18));
    assert_eq!(first_n_exceeding(3, 0.99), Some(32));
    assert_eq!(first_n_exceeding(4, 0.99), Some(45));
}

/// "the probability of success for server-to-server communication
/// converges to 1 as N grows for a fixed number of failures."
#[test]
fn claim_convergence_to_one() {
    for f in 2..=10 {
        let p64 = p_success(64, f);
        let p256 = p_success(256, f);
        let p500 = p_success(500, f);
        assert!(p64 < p256 && p256 < p500, "f={f}");
        assert!(p500 > 0.998, "f={f}: {p500}");
    }
}

/// "ninety hosts are supported in less than 1 second with only 10% of
/// the bandwidth usage" (Figure 1's anchor).
///
/// This pins only the cost model's response time, T(90, 10 %) = 948 ms.
/// The packet-level daemon's worst-case detection in that configuration
/// is the probe interval plus the probe timeout, I + τ ≈ 1.18 s: the
/// model leaves the timeout out (ROADMAP item 2).
#[test]
fn claim_ninety_hosts() {
    let model = ProbeCostModel::default();
    assert!(model.response_time(90, 0.10) < SimDuration::from_secs(1));
    assert!(model.max_nodes(0.10, SimDuration::from_secs(1)) >= 90);
}

/// "over a one-year period, thirteen percent of the hardware failures
/// for 100 compute servers were network related" (reproduced as the
/// exact expected share of the calibrated component rates, 10 servers per
/// cluster; it must round to the paper's 13 %).
#[test]
fn claim_thirteen_percent_network_failures() {
    let share = FailureRates::default().expected_network_fraction(10.0);
    // NIC 2 × 0.005 + cable 2 × 0.003 + hub 2 × 0.017 / 10 = 0.0194 of
    // 0.1484 failures per server-year.
    assert!((share - 0.0194 / 0.1484).abs() < 1e-12, "share {share}");
    assert!((share - 0.13).abs() < 0.005, "share {share:.4}");
}

/// "This new route is often found in the time of a TCP retransmit, so
/// server applications are unaware that a network failure has occurred."
#[test]
fn claim_repair_within_a_tcp_retransmit() {
    let n = 8;
    // Deployed-style tuning: 1 s sweeps would give ~2 s detection; use
    // 250 ms sweeps so the repair lands within the 1 s initial RTO.
    let cfg = DrsConfig::default()
        .probe_timeout(SimDuration::from_millis(50))
        .probe_interval(SimDuration::from_millis(250));
    let spec = ClusterSpec::new(n).seed(21);
    let mut w = World::new(spec, |id| DrsDaemon::new(id, n, cfg));
    w.run_for(SimDuration::from_secs(2));

    // Failure strikes while a message is already in flight.
    let t0 = w.now();
    w.schedule_faults(FaultPlan::new().fail_at(t0, SimComponent::Hub(NetId::A)));
    let flow = w.send_app(t0 + SimDuration::from_millis(1), NodeId(0), NodeId(5), 512);
    w.run_for(SimDuration::from_secs(10));

    match w.flow_outcome(flow) {
        Some(drs::sim::world::FlowOutcome::Delivered(rtt)) => {
            // The in-flight message needs exactly one TCP retransmit: DRS
            // repaired the route inside the first RTO.
            assert!(
                rtt < SimDuration::from_millis(1100),
                "one RTO at most, got {rtt}"
            );
        }
        other => panic!("message lost: {other:?}"),
    }
    // Everything sent after convergence is untouched.
    let before = w.app_stats().retransmits;
    w.send_app(w.now(), NodeId(0), NodeId(5), 512);
    w.run_for(SimDuration::from_secs(3));
    assert_eq!(w.app_stats().retransmits, before);
}

/// "each cluster contains between 8 and 12 servers" — DRS must behave at
/// every deployed size.
#[test]
fn claim_deployed_cluster_sizes() {
    for n in 8..=12 {
        let cfg = DrsConfig::default()
            .probe_timeout(SimDuration::from_millis(50))
            .probe_interval(SimDuration::from_millis(250));
        let spec = ClusterSpec::new(n).seed(n as u64);
        let mut w = World::new(spec, |id| DrsDaemon::new(id, n, cfg));
        w.schedule_faults(FaultPlan::new().fail_at(
            SimTime(1_000_000_000),
            SimComponent::Nic(NodeId(1), NetId::A),
        ));
        w.run_for(SimDuration::from_secs(4));
        for i in (0..n as u32).filter(|&i| i != 1) {
            assert_eq!(
                w.host(NodeId(i)).routes.get(NodeId(1)),
                Some(drs::sim::Route::Direct(NetId::B)),
                "n={n}, host {i}"
            );
        }
    }
}

/// "The DRS algorithm avoids routing loops": even under adversarial
/// simultaneous failures, forwarded traffic never cycles (no TTL drops).
#[test]
fn claim_no_routing_loops() {
    for seed in 0..10u64 {
        let n = 10;
        let cfg = DrsConfig::default()
            .probe_timeout(SimDuration::from_millis(50))
            .probe_interval(SimDuration::from_millis(200));
        let spec = ClusterSpec::new(n).seed(seed);
        let mut w = World::new(spec, |id| DrsDaemon::new(id, n, cfg));
        let mut rng = drs::obs::rng::Rng::seed_from_u64(seed);
        let (plan, _) = FaultPlan::random_simultaneous(SimTime(1_000_000_000), n, 2, 4, &mut rng);
        w.schedule_faults(plan);
        w.run_for(SimDuration::from_secs(5));
        // All-to-all traffic across the damaged cluster.
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                if s != d {
                    w.send_app(w.now(), NodeId(s), NodeId(d), 64);
                }
            }
        }
        w.run_for(SimDuration::from_secs(200));
        let ttl_drops: u64 = (0..n as u32)
            .map(|i| w.host(NodeId(i)).counters.dropped_ttl)
            .sum();
        assert_eq!(ttl_drops, 0, "seed {seed}: forwarding cycled");
    }
}
