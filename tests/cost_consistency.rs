//! Integration: the analytic Figure 1 cost model and the packet-level
//! simulator agree about what probing costs and how fast it detects.

use drs::analytic::cost::figure1::{figure1, PAPER_BUDGETS};
use drs::analytic::cost::model::ProbeCostModel;
use drs::core::DrsConfig;
use drs::sim::{NodeId, SimDuration};
use drs_bench::probe_cost::measure_probe_cost;

#[test]
fn measured_probe_bandwidth_tracks_model_across_budgets() {
    let model = ProbeCostModel::default();
    for &(n, beta) in &[(8u64, 0.05f64), (12, 0.10), (16, 0.15)] {
        let interval = model.min_sweep_period(n, beta);
        let timeout = SimDuration(interval.as_nanos() / 4).max(SimDuration::from_micros(100));
        let cfg = DrsConfig::default()
            .probe_timeout(timeout)
            .probe_interval(interval);
        let last_host = NodeId(n as u32 - 1);
        let r = measure_probe_cost(n as usize, cfg, SimDuration::from_secs(2), last_host, 17);
        let err = (r.probe_utilization - beta).abs() / beta;
        assert!(
            err < 0.10,
            "n={n} beta={beta}: measured {:.4} ({:.1}% off)",
            r.probe_utilization,
            err * 100.0
        );
    }
}

#[test]
fn detection_latency_bounded_by_model_response_time() {
    // Configure daemons at a 10% budget and verify that detection stays
    // within the model's response-time prediction (plus one timeout).
    let model = ProbeCostModel {
        miss_threshold: 2,
        ..ProbeCostModel::default()
    };
    let n = 12u64;
    let interval = model.min_sweep_period(n, 0.10);
    let timeout = SimDuration(interval.as_nanos() / 4).max(SimDuration::from_micros(100));
    let cfg = DrsConfig::default()
        .probe_timeout(timeout)
        .probe_interval(interval)
        .miss_threshold(2);
    let r = measure_probe_cost(n as usize, cfg, SimDuration::from_secs(1), NodeId(11), 23);
    let bound = model.response_time(n, 0.10) + timeout + interval;
    assert!(
        r.max_detection <= bound,
        "detection {} exceeds model bound {bound}",
        r.max_detection
    );
}

#[test]
fn figure1_series_consistent_with_direct_model_calls() {
    let model = ProbeCostModel::default();
    let fam = figure1(&model, 100, &PAPER_BUDGETS);
    for s in &fam {
        for &(n, rt) in &s.points {
            assert_eq!(rt, model.response_time(n, s.budget));
        }
    }
}

#[test]
fn paper_bandwidth_percentages_order_the_curves() {
    // 5% needs 2x the time of 10%, which needs 1.5x the time of 15%, etc.
    let model = ProbeCostModel::default();
    let n = 60;
    let t5 = model.response_time(n, 0.05).as_secs_f64();
    let t10 = model.response_time(n, 0.10).as_secs_f64();
    let t15 = model.response_time(n, 0.15).as_secs_f64();
    let t25 = model.response_time(n, 0.25).as_secs_f64();
    assert!((t5 / t10 - 2.0).abs() < 1e-9);
    assert!((t10 / t15 - 1.5).abs() < 1e-9);
    assert!((t15 / t25 - 25.0 / 15.0).abs() < 1e-9);
}
