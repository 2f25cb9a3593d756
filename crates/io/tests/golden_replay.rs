//! Golden-trace replay: a DES run is captured through the daemon's
//! journal, then re-driven through a **fresh** daemon by [`ReplayIo`] —
//! with no kernel, no scheduler, no other nodes — and must reproduce the
//! original run byte-for-byte:
//!
//! * the metrics block, including the full decision/event log
//!   (compared via `Debug` formatting, so every field and every event
//!   must match exactly);
//! * the kernel route table the daemon ended with;
//! * the probe observability channels;
//! * the re-recorded journal itself (a replayed daemon journals too, so
//!   journalling must be a fixed point).
//!
//! Any divergence means the daemon read state outside the `DrsIo`
//! boundary — exactly the regression this suite exists to catch.

use drs_core::{
    DaemonJournal, DrsConfig, DrsDaemon, GatewayPolicy, NetId, NodeId, ProbeObs, Route, RouteTable,
    SimDuration, SimTime,
};
use drs_io::replay_journal;
use drs_sim::{ClusterSpec, FaultPlan, SimComponent, World};

/// Everything the DES run leaves behind for one node.
struct Golden {
    journal: DaemonJournal,
    metrics_dbg: String,
    routes: RouteTable,
    obs: ProbeObs,
}

fn fast_cfg() -> DrsConfig {
    DrsConfig::default()
        .probe_timeout(SimDuration::from_millis(50))
        .probe_interval(SimDuration::from_millis(200))
        .record_journal(true)
}

/// Runs the DES and captures every node's golden.
fn capture(n: usize, seed: u64, cfg: DrsConfig, plan: FaultPlan, secs: u64) -> Vec<Golden> {
    let spec = ClusterSpec::new(n).seed(seed);
    let mut w = World::new(spec, move |id| DrsDaemon::new(id, n, cfg));
    w.schedule_faults(plan);
    w.run_for(SimDuration::from_secs(secs));
    (0..n as u32)
        .map(|i| {
            let d = w.protocol(NodeId(i));
            Golden {
                journal: d.journal().expect("journaling enabled").clone(),
                metrics_dbg: format!("{:?}", d.metrics),
                routes: w.host(NodeId(i)).routes.clone(),
                obs: w.host(NodeId(i)).obs.clone(),
            }
        })
        .collect()
}

/// Replays every node's journal through a fresh daemon and asserts the
/// reproduction is exact.
fn assert_replay_reproduces(n: usize, cfg: DrsConfig, goldens: &[Golden]) {
    for (i, g) in goldens.iter().enumerate() {
        let mut fresh = DrsDaemon::new(NodeId(i as u32), n, cfg);
        let io = replay_journal(&mut fresh, &g.journal);
        assert_eq!(
            format!("{:?}", fresh.metrics),
            g.metrics_dbg,
            "node {i}: replayed metrics + decision log must be byte-identical"
        );
        assert_eq!(
            io.route_table(),
            &g.routes,
            "node {i}: replayed route table must match the DES kernel's"
        );
        assert_eq!(
            io.probe_obs(),
            &g.obs,
            "node {i}: replayed probe observability must match"
        );
        assert_eq!(io.picks_remaining(), 0, "node {i}: all draws consumed");
        assert_eq!(
            fresh.journal().expect("replayed daemon journals too"),
            &g.journal,
            "node {i}: journaling must be a fixed point under replay"
        );
    }
}

fn hub_fault() -> FaultPlan {
    FaultPlan::new().fail_at(SimTime(1_000_000_000), SimComponent::Hub(NetId::A))
}

#[test]
fn golden_replay_four_nodes_hub_fault() {
    let n = 4;
    let cfg = fast_cfg();
    let goldens = capture(n, 41, cfg, hub_fault(), 3);
    assert!(goldens[0].journal.len() > 50, "a real run was captured");
    assert_replay_reproduces(n, cfg, &goldens);
}

#[test]
fn golden_replay_eight_nodes_hub_fault() {
    let n = 8;
    let cfg = fast_cfg();
    let goldens = capture(n, 42, cfg, hub_fault(), 3);
    assert_replay_reproduces(n, cfg, &goldens);
}

#[test]
fn golden_replay_reproduces_random_gateway_draws() {
    // A crossed NIC failure forces broadcast discovery; the Random offer
    // policy consumes journaled picks, which replay must follow to land
    // on the identical gateway.
    let n = 4;
    let cfg = fast_cfg().gateway_policy(GatewayPolicy::Random);
    let plan = FaultPlan::new()
        .fail_at(
            SimTime(1_000_000_000),
            SimComponent::Nic(NodeId(0), NetId::B),
        )
        .fail_at(
            SimTime(1_000_000_000),
            SimComponent::Nic(NodeId(1), NetId::A),
        );
    let goldens = capture(n, 43, cfg, plan, 6);
    assert!(
        goldens.iter().any(|g| !g.journal.picks.is_empty()),
        "discovery under Random policy must draw randomness"
    );
    // The discovery ended in a gateway route on both crossed nodes.
    assert!(matches!(
        goldens[0].routes.get(NodeId(1)),
        Some(Route::Via { .. })
    ));
    assert_replay_reproduces(n, cfg, &goldens);
}
