//! Protocol shootout: the same failure, four routing strategies, one
//! table — the paper's proactive-vs-reactive argument as a runnable demo.
//!
//! Run: `cargo run --release --example protocol_shootout`

use drs::baselines::compare::{run_protocol, ProtocolConfigs, ProtocolLabel, ScenarioSpec};
use drs::sim::fault::SimComponent;
use drs::sim::{NetId, NodeId};

fn main() {
    println!("one failure, four routing strategies");
    println!("(10 hosts; host 1 loses its primary NIC; 40 probe messages at 4/s)");
    println!();

    let n = 10;
    let spec = ScenarioSpec::standard(n, 99, vec![SimComponent::Nic(NodeId(1), NetId::A)]);

    // One config bundle, one dispatch call per protocol — the same
    // data-driven path the benchmark shootout takes.
    let cfgs = ProtocolConfigs::bench_defaults();
    let results: Vec<_> = ProtocolLabel::ALL
        .iter()
        .map(|&label| run_protocol(label, &spec, &cfgs).result)
        .collect();

    println!(
        "{:<22} {:>10} {:>12} {:>8} {:>12}",
        "protocol", "delivered", "retransmits", "lost", "outage"
    );
    for r in &results {
        println!(
            "{:<22} {:>7}/{:<3} {:>12} {:>8} {:>12}",
            r.label.to_string(),
            r.delivered,
            r.sent,
            r.retransmits,
            r.gave_up,
            r.outage.map_or("never".to_string(), |d| d.to_string()),
        );
    }

    println!();
    let by = |l: ProtocolLabel| results.iter().find(|r| r.label == l).unwrap();
    let drs_outage = by(ProtocolLabel::Drs).outage.expect("DRS stabilizes");
    let rip_outage = by(ProtocolLabel::Rip).outage.expect("RIP stabilizes");
    println!(
        "DRS restored prompt service {:.0}x faster than the RIP-style baseline",
        rip_outage.as_secs_f64() / drs_outage.as_secs_f64().max(1e-9)
    );
    println!("(and the static cluster never came back at all).");
}
