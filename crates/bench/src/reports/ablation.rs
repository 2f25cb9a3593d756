//! Ablation study for the design choices DESIGN.md §7 calls out, as
//! *outcome* tables.

use drs_core::{DrsConfig, DrsDaemon, DrsEventKind, GatewayPolicy};
use drs_sim::fault::{FaultPlan, SimComponent};
use drs_sim::scenario::ClusterSpec;
use drs_sim::world::World;
use drs_sim::{NetId, NodeId, SimDuration, SimTime};

use super::Check;
use crate::probe_cost::measure_probe_cost;
use crate::section;

fn base_cfg() -> DrsConfig {
    DrsConfig::default()
        .probe_timeout(SimDuration::from_millis(50))
        .probe_interval(SimDuration::from_millis(250))
}

fn stagger_ablation() {
    section("probe staggering (n=32, 250 ms sweeps): hub contention");
    println!("  mode        max probe queueing delay   probe bytes/s (net A)");
    for (name, stagger) in [("staggered", true), ("burst", false)] {
        let n = 32;
        let cfg = base_cfg().stagger(stagger);
        let spec = ClusterSpec::new(n).seed(11);
        let mut w = World::new(spec, |id| DrsDaemon::new(id, n, cfg));
        w.run_for(SimDuration::from_secs(5));
        let stats = w.medium(NetId::A).stats;
        println!(
            "  {:<10}  {:>24}   {:>12.0}",
            name,
            stats.max_queue_delay.to_string(),
            stats.probe_bytes as f64 / 5.0
        );
    }
    println!("  -> staggering spreads the sweep, eliminating the burst queue.");
}

fn miss_threshold_ablation() {
    section("miss threshold under wire loss (n=6, 60 s): false alarms vs detection bound");
    println!("  loss   k   link flaps   worst-case detection bound");
    for &loss in &[0.0f64, 0.005, 0.02] {
        for k in [1u32, 2, 3] {
            let n = 6;
            let cfg = base_cfg().miss_threshold(k);
            let spec = ClusterSpec::new(n).seed(1234).frame_loss_rate(loss);
            let mut w = World::new(spec, move |id| DrsDaemon::new(id, n, cfg));
            w.run_for(SimDuration::from_secs(60));
            let flaps: u64 = (0..n as u32)
                .map(|i| w.protocol(NodeId(i)).metrics.link_down_events)
                .sum();
            println!(
                "  {:>4.1}%  {k}   {:>10}   {:>14}",
                loss * 100.0,
                flaps,
                cfg.worst_case_detection().to_string()
            );
        }
    }
    println!("  -> k=1 melts down under loss; k=2 (deployed) buys stability for one");
    println!("     extra probe cycle of detection latency.");
}

fn gateway_policy_ablation() {
    section("gateway selection (n=10, crossed failure x8 rounds): relay load spread");
    for (name, policy) in [
        ("first-offer", GatewayPolicy::FirstOffer),
        ("lowest-id", GatewayPolicy::LowestId),
        ("random", GatewayPolicy::Random),
    ] {
        let n = 10;
        let cfg = base_cfg().gateway_policy(policy);
        let spec = ClusterSpec::new(n).seed(77);
        let mut w = World::new(spec, move |id| DrsDaemon::new(id, n, cfg));
        // Crossed failure between 0 and 1; gateways are 2..9.
        w.schedule_faults(
            FaultPlan::new()
                .fail_at(SimTime(500_000_000), SimComponent::Nic(NodeId(0), NetId::B))
                .fail_at(SimTime(500_000_000), SimComponent::Nic(NodeId(1), NetId::A)),
        );
        w.run_for(SimDuration::from_secs(3));
        // Steady relayed traffic 0 -> 1.
        for i in 0..200u64 {
            w.send_app(
                w.now() + SimDuration::from_millis(10 * i),
                NodeId(0),
                NodeId(1),
                256,
            );
        }
        // The table reads deliveries and relay counts only, and both are
        // final once the last of the 200 flows resolves: without a
        // retransmission nothing of theirs is still on the wire.
        w.run_until_settled(w.now() + SimDuration::from_secs(30));
        assert_eq!(
            w.app_stats().retransmits,
            0,
            "{name}: a copy may still be relayed"
        );
        let loads: Vec<u64> = (2..n as u32)
            .map(|i| w.host(NodeId(i)).counters.forwarded)
            .collect();
        let busiest = loads.iter().max().copied().unwrap_or(0);
        let active = loads.iter().filter(|&&l| l > 0).count();
        println!(
            "  {:<12} delivered {:>3}/200   active gateways {active}   busiest carried {busiest}",
            name,
            w.app_stats().delivered
        );
    }
    println!("  -> all policies deliver; they differ in how relay load concentrates.");
}

fn down_probe_backoff_ablation() {
    section("down-link probe backoff (n=3, 20 s outage then repair)");
    println!("  backoff   probes during outage   recovery detected after repair in");
    for &k in &[1u64, 4, 16] {
        let n = 3;
        let cfg = base_cfg().down_probe_backoff(k);
        let spec = ClusterSpec::new(n).seed(99);
        let mut w = World::new(spec, move |id| DrsDaemon::new(id, n, cfg));
        let repair_at = SimTime(21_000_000_000);
        w.schedule_faults(
            FaultPlan::new()
                .fail_at(
                    SimTime(1_000_000_000),
                    SimComponent::Nic(NodeId(1), NetId::A),
                )
                .repair_at(repair_at, SimComponent::Nic(NodeId(1), NetId::A)),
        );
        w.run_for(SimDuration::from_secs(20));
        let probes = w.protocol(NodeId(0)).metrics.probes_sent;
        w.run_for(SimDuration::from_secs(60));
        let rec = w
            .protocol(NodeId(0))
            .metrics
            .first_after(repair_at, |e| {
                matches!(e, DrsEventKind::LinkUp { peer, net }
                    if *peer == NodeId(1) && *net == NetId::A)
            })
            .map(|e| e.at - repair_at);
        println!(
            "  {k:>7}   {probes:>20}   {:>18}",
            rec.map_or("never".to_string(), |d| d.to_string())
        );
    }
    println!("  -> probing a dead link less often is nearly free bandwidth back;");
    println!("     the cost is proportionally slower *recovery* detection.");
}

fn probe_interval_sensitivity() {
    section("probe interval sensitivity (n=12): detection vs bandwidth (measured)");
    println!("  sweep      mean detection   probe utilization (net A)");
    for &ms in &[100u64, 250, 500, 1000] {
        let cfg = DrsConfig::default()
            .probe_timeout(SimDuration::from_millis(25))
            .probe_interval(SimDuration::from_millis(ms));
        let r = measure_probe_cost(12, cfg, SimDuration::from_secs(4), NodeId(1), 5);
        println!(
            "  {:>6}ms   {:>14}   {:>12.5}",
            ms,
            r.mean_detection.to_string(),
            r.probe_utilization
        );
    }
    println!("  -> detection tracks ~2 sweeps (k=2), bandwidth tracks 1/sweep —");
    println!("     the Figure 1 trade-off, measured end to end.");
}

pub(super) fn run() -> Vec<Check> {
    println!("DRS design-choice ablations (outcome tables)");
    stagger_ablation();
    miss_threshold_ablation();
    gateway_policy_ablation();
    down_probe_backoff_ablation();
    probe_interval_sensitivity();
    Vec::new()
}
