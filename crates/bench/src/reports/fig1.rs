//! Regenerates **Figure 1**: "Response Time VS Number of Nodes for a
//! 100mbs Network" — the proactive monitoring cost. One curve per
//! bandwidth budget (5/10/15/25 %), plus the paper's 90-hosts-under-a-
//! second anchor, plus an empirical cross-check with real DRS daemons on
//! the packet simulator.

use drs_analytic::cost::{figure1, ProbeCostModel, PAPER_BUDGETS};
use drs_core::DrsConfig;
use drs_sim::{NodeId, SimDuration};

use super::{reproduced, Check};
use crate::probe_cost::measure_probe_cost;
use crate::{row, section};

pub(super) fn run() -> Vec<Check> {
    println!("Figure 1 — error-resolution time vs cluster size on 100 Mb/s networks");
    let model = ProbeCostModel::default();

    section("analytic curves (response time; 74-byte echo frames)");
    let family = figure1(&model, 120, &PAPER_BUDGETS);
    let ns = [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120];
    let mut header = vec!["budget\\N".to_string()];
    header.extend(ns.iter().map(|n| n.to_string()));
    row(&header, &vec![9; header.len()]);
    for s in &family {
        let mut cells = vec![format!("{:.0}%", s.budget * 100.0)];
        for &n in &ns {
            let rt = s.points.iter().find(|(m, _)| *m == n).expect("in range").1;
            cells.push(rt.to_string());
        }
        row(&cells, &vec![9; cells.len()]);
    }

    section("maximum cluster within a response-time target");
    for &target_ms in &[500u64, 1000, 2000] {
        let target = SimDuration::from_millis(target_ms);
        let caps: Vec<String> = family
            .iter()
            .map(|s| {
                format!(
                    "{:.0}% -> {}",
                    s.budget * 100.0,
                    s.max_nodes_within(target)
                        .map_or("n/a".into(), |n| n.to_string())
                )
            })
            .collect();
        println!("  target {target}: {}", caps.join("   "));
    }
    println!();
    let t90 = model.response_time(90, 0.10);
    let under_a_second = t90 < SimDuration::from_secs(1);
    println!("paper anchor: 'ninety hosts are supported in less than 1 second with only");
    println!(
        "10% of the bandwidth usage' -> model: T(90, 10%) = {t90} ({})",
        reproduced(under_a_second)
    );

    section("empirical cross-check (real DRS daemons on the packet simulator)");
    println!("  n  budget  prescribed-sweep  measured-util  mean-detect  max-detect");
    for &(n, beta) in &[(8usize, 0.05f64), (16, 0.10), (24, 0.10), (32, 0.15)] {
        let interval = model.min_sweep_period(n as u64, beta);
        let timeout = SimDuration(interval.as_nanos() / 4).max(SimDuration::from_micros(100));
        let cfg = DrsConfig::default()
            .probe_timeout(timeout)
            .probe_interval(interval)
            .miss_threshold(1);
        let last_host = NodeId((n - 1) as u32);
        let r = measure_probe_cost(n, cfg, SimDuration::from_secs(3), last_host, 42);
        println!(
            "  {:>2}  {:>5.0}%  {:>16}  {:>12.4}  {:>11}  {:>10}",
            n,
            beta * 100.0,
            interval.to_string(),
            r.probe_utilization,
            r.mean_detection.to_string(),
            r.max_detection.to_string(),
        );
    }
    println!();
    println!("(measured utilization should sit at ~the configured budget, and");
    println!(" detection within one sweep + timeout — the model's premise.)");

    vec![Check {
        ok: under_a_second,
        detail: format!("T(90, 10%) = {t90}"),
    }]
}
