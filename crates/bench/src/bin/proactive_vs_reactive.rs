//! Regenerates the paper's **proactive-vs-reactive comparison** (asserted
//! in the abstract and §1: "The DRS's proactive routing policy performs
//! better than traditional routing systems by fixing network problems
//! before they effect application communication").
//!
//! The whole grid — three failure scenarios × five protocols, identical
//! traffic — runs as one [`drs_harness::Experiment`] via
//! [`drs_baselines::compare::run_shootout`]: per-trial seeds come from
//! the shared SplitMix64 stream and trials fan out across the harness workers.
//! The application-visible outage column is the paper's claim, quantified.
//!
//! Run: `cargo run --release -p drs-bench --bin proactive_vs_reactive`

use drs_baselines::compare::{
    run_shootout, standard_shootout_scenarios, ProtocolConfigs, ProtocolLabel, ShootoutRow,
};
use drs_bench::{fmt_opt_dur, section, BENCH_SEED};
use drs_harness::{RunMode, TraceEventKind};

fn print_row(r: &ShootoutRow) {
    let route_changes = r
        .events
        .iter()
        .filter(|e| e.kind == TraceEventKind::RouteChanged)
        .count();
    println!(
        "  {:<20}  delivered {:>3}/{:<3}  retransmits {:>4}  gave-up {:>3}  outage {:>10}{}",
        r.result.label.to_string(),
        r.result.delivered,
        r.result.sent,
        r.result.retransmits,
        r.result.gave_up,
        fmt_opt_dur(r.result.outage),
        if route_changes > 0 {
            format!("  ({route_changes} route changes at src)")
        } else {
            String::new()
        }
    );
}

fn main() {
    println!("Proactive (DRS) vs reactive routing: application-visible impact");
    println!("(8-host clusters; measurement stream 0 -> 1, 40 msgs @ 4/s after the fault;");
    println!(" outage = time until deliveries become and remain prompt; — = never)");

    let scenarios = standard_shootout_scenarios(8);
    let rows = run_shootout(
        BENCH_SEED,
        &scenarios,
        &ProtocolLabel::ALL,
        &ProtocolConfigs::bench_defaults(),
        RunMode::Parallel,
    );

    let titles = [
        "scenario 1: primary hub (backplane A) fails",
        "scenario 2: destination server loses its primary NIC",
        "scenario 3: crossed NIC failures (no shared direct network; needs a gateway)",
    ];
    for (scenario, title) in scenarios.iter().zip(titles) {
        section(title);
        for r in rows.iter().filter(|r| r.scenario == scenario.name) {
            print_row(r);
        }
    }

    println!();
    println!("expected shape (paper): DRS outage is sub-RTO (applications unaware);");
    println!("repair-on-RTO needs seconds (>= 1 RTO); OSPF needs its dead interval;");
    println!("RIP needs its (longer) route timeout; static routing never recovers.");
}
