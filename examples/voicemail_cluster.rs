//! The commercial deployment scenario: a voice-mail server cluster under
//! a year's worth of hardware trouble, compressed.
//!
//! Run: `cargo run --release --example voicemail_cluster`
//!
//! The paper's DRS ran in 27 MCI WorldCom voice-mail clusters of 8–12
//! servers. This example models one such cluster: ten servers exchanging
//! steady request/response traffic (message deposit/retrieval between
//! front-ends and storage nodes) while a Poisson failure/repair process
//! knocks NICs and hubs out and field service brings them back. We
//! compare what the application experienced against the raw component
//! failure count.

use drs::obs::rng::Rng;

use drs::core::{DrsConfig, DrsDaemon};
use drs::sim::app::Workload;
use drs::sim::fault::FaultPlan;
use drs::sim::{ClusterSpec, NodeId, SimDuration, SimTime, World};

fn main() {
    let n = 10;
    let seed = 1999;
    let spec = ClusterSpec::new(n).seed(seed);
    let cfg = DrsConfig::default()
        .probe_timeout(SimDuration::from_millis(100))
        .probe_interval(SimDuration::from_millis(500));
    let mut world = World::new(spec, |id| DrsDaemon::new(id, n, cfg));

    // A compressed "service year": 10 minutes of simulated time with a
    // failure roughly every 40 seconds, repaired after 15 s (stand-ins
    // for MTBF-months and MTTR-hours).
    let horizon = SimDuration::from_secs(600);
    let mut rng = Rng::seed_from_u64(seed);
    let plan = FaultPlan::poisson_process(
        horizon,
        SimDuration::from_secs(40),
        SimDuration::from_secs(15),
        n,
        2,
        &mut rng,
    );
    let injected = plan.len() / 2; // fail+repair pairs
    world.schedule_faults(plan);

    // Voice-mail traffic: every server exchanges messages with every
    // other twice a second (deposit + waiting-message checks).
    let wl = Workload::all_to_all(
        n,
        SimTime(500_000_000),
        SimDuration::from_millis(500),
        (horizon.as_nanos() / 500_000_000) as usize - 2,
        736, // one G.711 voice frame bundle
    );
    println!(
        "one voice-mail cluster: {n} servers, {} component faults injected, {} app messages",
        injected,
        wl.len()
    );
    world.schedule_workload(&wl);
    world.run_for(horizon + SimDuration::from_secs(200));

    let stats = world.app_stats();
    println!();
    println!("application view after the compressed service year:");
    println!(
        "  delivered: {} / {} ({:.3}%)",
        stats.delivered,
        stats.sent,
        stats.delivery_ratio() * 100.0
    );
    println!("  retransmissions: {}", stats.retransmits);
    println!("  abandoned messages: {}", stats.gave_up);
    if let (Some(mean), Some(max)) = (stats.latency.mean(), stats.latency.max()) {
        let (mean, max) = (SimDuration(mean as u64), SimDuration(max));
        println!("  latency: mean {mean}, worst {max}");
    }

    println!();
    println!("protocol view:");
    let mut detections = 0;
    let mut reroutes = 0;
    let mut gateways = 0;
    for i in 0..n as u32 {
        let m = &world.protocol(NodeId(i)).metrics;
        detections += m.link_down_events;
        reroutes += m.route_changes;
        gateways += m.gateway_failovers;
    }
    println!("  link-down detections across daemons: {detections}");
    println!("  route repairs installed: {reroutes} (of which {gateways} via gateway)");
    println!(
        "  probe traffic on net A: {:.2} MB over the run",
        world.medium(drs::sim::NetId::A).stats.probe_bytes as f64 / 1e6
    );

    assert!(
        stats.delivery_ratio() > 0.999,
        "a DRS cluster should deliver essentially everything: {:.5}",
        stats.delivery_ratio()
    );
    println!();
    println!(
        "{injected} hardware faults; {} messages lost — the cluster survived its year.",
        stats.sent - stats.delivered
    );
}
