//! Regenerates the paper's **proactive-vs-reactive comparison** (asserted
//! in the abstract and §1: "The DRS's proactive routing policy performs
//! better than traditional routing systems by fixing network problems
//! before they effect application communication").
//!
//! The whole grid — three failure scenarios × five protocols, identical
//! traffic — is the committed benchmark shootout
//! ([`crate::sim_artifact::bench_shootout`]), one
//! [`drs_harness::Experiment`]: per-trial seeds come from the shared
//! SplitMix64 stream and trials fan out across the harness workers.
//! The application-visible outage column is the paper's claim, quantified.

use drs_baselines::compare::{ProtocolLabel, ShootoutRow};
use drs_harness::{RunMode, TraceEventKind};

use super::Check;
use crate::sim_artifact::bench_shootout;
use crate::{fmt_opt_dur, section};

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

pub(super) fn run() -> Vec<Check> {
    println!("Proactive (DRS) vs reactive routing: application-visible impact");
    println!("(8-host clusters; measurement stream 0 -> 1, 40 msgs @ 4/s after the fault;");
    println!(" outage = time until deliveries become and remain prompt; — = never)");

    let rows = bench_shootout(RunMode::Parallel);

    let titles = [
        "scenario 1: primary hub (backplane A) fails",
        "scenario 2: destination server loses its primary NIC",
        "scenario 3: crossed NIC failures (no shared direct network; needs a gateway)",
    ];
    // Rows come back scenario-major in `ProtocolLabel::ALL` order: DRS,
    // then the reactive protocols as the paper ranks them, static last.
    let blocks = || rows.chunks(ProtocolLabel::ALL.len());
    for (block, title) in blocks().zip(titles) {
        section(title);
        block.iter().for_each(print_row);
    }

    println!();
    println!("expected shape (paper): DRS outage is sub-RTO (applications unaware);");
    println!("repair-on-RTO needs seconds (>= 1 RTO); OSPF needs its dead interval;");
    println!("RIP needs its (longer) route timeout; static routing never recovers.");

    let ranked = ProtocolLabel::ALL.len() - 1;
    let ordered = blocks().all(|block| {
        block[..ranked].iter().all(|r| r.result.outage.is_some())
            && block[..ranked]
                .windows(2)
                .all(|w| w[0].result.outage < w[1].result.outage)
    });
    let hub_chain: Vec<String> = rows[..ranked]
        .iter()
        .map(|r| fmt_opt_dur(r.result.outage))
        .collect();
    let drs = || blocks().map(|block| &block[0].result);
    let (delivered, sent) = drs().fold((0, 0), |(d, s), r| (d + r.delivered, s + r.sent));
    vec![
        Check {
            ok: ordered,
            detail: format!(
                "outage ordering DRS < RTO-repair < OSPF < RIP in every scenario; hub failure: {}",
                hub_chain.join(" < ")
            ),
        },
        Check {
            ok: delivered == sent && drs().all(|r| r.gave_up == 0),
            detail: format!(
                "DRS delivered {delivered}/{sent} through the failures of {} scenarios",
                titles.len()
            ),
        },
    ]
}
