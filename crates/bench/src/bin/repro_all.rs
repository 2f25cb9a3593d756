//! One-shot reproduction check: runs a compact version of every
//! experiment and prints a PASS/FAIL verdict per paper claim — the
//! executable summary of EXPERIMENTS.md.
//!
//! Run: `cargo run --release -p drs-bench --bin repro_all`

use drs_analytic::convergence::mean_abs_deviation;
use drs_analytic::exact::p_success;
use drs_analytic::sweep::{run_sweep, SweepConfig};
use drs_analytic::thresholds::first_n_exceeding;
use drs_baselines::compare::{run_protocol, ProtocolConfigs, ProtocolLabel, ScenarioSpec};
use drs_baselines::ospf::OspfConfig;
use drs_baselines::rip::RipConfig;
use drs_bench::flight::flight_verdict;
use drs_bench::workload::{million_verdict, slo_verdict};
use drs_bench::{e2e, kernel, BENCH_SEED};
use drs_core::DrsConfig;
use drs_cost::model::ProbeCostModel;
use drs_harness::coord_seed;
use drs_sim::fault::SimComponent;
use drs_sim::{NetId, SimDuration};
use drs_trace::fleet::FleetSpec;
use drs_trace::study::replicate_study;

struct Report {
    passed: u32,
    failed: u32,
}

impl Report {
    fn check(&mut self, claim: &str, ok: bool, detail: String) {
        if ok {
            self.passed += 1;
            println!("  PASS  {claim}: {detail}");
        } else {
            self.failed += 1;
            println!("  FAIL  {claim}: {detail}");
        }
    }
}

fn main() {
    println!("reproduction verdicts (compact forms of every experiment)");
    println!();
    let mut r = Report {
        passed: 0,
        failed: 0,
    };

    // Equation 1 milestones.
    let m2 = first_n_exceeding(2, 0.99);
    let m3 = first_n_exceeding(3, 0.99);
    let m4 = first_n_exceeding(4, 0.99);
    r.check(
        "milestones 18/32/45",
        m2 == Some(18) && m3 == Some(32) && m4 == Some(45),
        format!("{m2:?}/{m3:?}/{m4:?}"),
    );

    // The full benchmark sweep grid: Equation 1, orbit counting, and raw
    // enumeration must agree count-for-count wherever they overlap, and
    // the milestone crossings must hold by exact integer counting.
    let sweep = run_sweep(&SweepConfig::bench_grid(BENCH_SEED));
    let disagreements = sweep.disagreements();
    r.check(
        "orbit == Equation 1, enumeration == orbit, parallel == sequential",
        disagreements.is_empty(),
        format!("{disagreements:?} over {} cells", sweep.cells.len()),
    );
    let milestones_exact = [(2u64, 18u64), (3, 32), (4, 45)].iter().all(|&(f, n)| {
        let at = sweep.get(n, f, "orbit").unwrap();
        let before = sweep.get(n - 1, f, "orbit").unwrap();
        at.successes.unwrap() * 100 > at.total.unwrap() * 99
            && before.successes.unwrap() * 100 <= before.total.unwrap() * 99
    });
    r.check(
        "milestones verified by orbit-exact integer counting",
        milestones_exact,
        "s*100 > t*99 at N*, not at N*-1".to_string(),
    );

    // Figure 2 limit.
    let worst_limit = (2..=10u64)
        .map(|f| p_success(500, f))
        .fold(1.0f64, f64::min);
    r.check(
        "P[S] -> 1 (f=2..10 at N=500)",
        worst_limit > 0.998,
        format!("min {worst_limit:.5}"),
    );

    // Figure 3 checkpoint.
    let worst_dev = [2usize, 6, 10]
        .iter()
        .map(|&f| mean_abs_deviation(f, 1_000, 64, 42).mean_abs_deviation)
        .fold(0.0f64, f64::max);
    r.check(
        "Figure 3: MAD@1000 iters < 0.02",
        worst_dev < 0.02,
        format!("worst {worst_dev:.4}"),
    );

    // Figure 1 anchor.
    let model = ProbeCostModel::default();
    let t90 = model.response_time(90, 0.10);
    r.check(
        "90 hosts < 1 s at 10% bandwidth",
        t90 < SimDuration::from_secs(1),
        format!("T(90, 10%) = {t90}"),
    );

    // Deployment statistic.
    let study = replicate_study(&FleetSpec::hundred_servers_one_year(), 200, 13);
    r.check(
        "13% network failures (synthetic mean)",
        (study.mean_network_fraction - 0.13).abs() < 0.02,
        format!("mean {:.1}%", study.mean_network_fraction * 100.0),
    );

    // Proactive-vs-reactive ordering (one hub-failure scenario), run
    // through the data-driven protocol dispatch.
    let n = 8;
    let spec = ScenarioSpec::standard(n, 1, vec![SimComponent::Hub(NetId::A)]);
    let cfgs = ProtocolConfigs {
        drs: DrsConfig::default()
            .probe_timeout(SimDuration::from_millis(50))
            .probe_interval(SimDuration::from_millis(250)),
        ospf: OspfConfig::default().scaled_down(10),
        rip: RipConfig::default().scaled_down(10),
        ..ProtocolConfigs::bench_defaults()
    };
    let drs = run_protocol(ProtocolLabel::Drs, &spec, &cfgs);
    let reactive = run_protocol(ProtocolLabel::Reactive, &spec, &cfgs);
    let ospf = run_protocol(ProtocolLabel::Ospf, &spec, &cfgs);
    let rip = run_protocol(ProtocolLabel::Rip, &spec, &cfgs);
    let ordering = match (drs.outage, reactive.outage, ospf.outage, rip.outage) {
        (Some(d), Some(re), Some(os), Some(ri)) => d < re && re < os && os < ri,
        _ => false,
    };
    r.check(
        "outage ordering DRS < RTO-repair < OSPF < RIP",
        ordering,
        format!(
            "{} < {} < {} < {}",
            drs.outage.map_or("—".into(), |d| d.to_string()),
            reactive.outage.map_or("—".into(), |d| d.to_string()),
            ospf.outage.map_or("—".into(), |d| d.to_string()),
            rip.outage.map_or("—".into(), |d| d.to_string()),
        ),
    );
    r.check(
        "DRS delivers everything through the failure",
        drs.delivered == drs.sent && drs.gave_up == 0,
        format!("{}/{}", drs.delivered, drs.sent),
    );

    // Event-kernel claim: the batched monitor cycle sends the identical
    // probe sequence while scheduling O(N) timer events per cycle,
    // against the per-pair driver's O(K·N²).
    let per_pair = kernel::run_cell(16, 2, false);
    let batched = kernel::run_cell(16, 2, true);
    r.check(
        "batched monitor: O(K*N^2) -> O(N) timer traffic per cycle",
        per_pair.probes_sent == batched.probes_sent
            && batched.timer_events_per_cycle() <= 4.0 * 16.0
            && per_pair.timer_events_per_cycle() >= 2.0 * 2.0 * 16.0 * 15.0 * 0.5,
        format!(
            "{:.1} vs {:.1} timer events/cycle, same {} probes",
            per_pair.timer_events_per_cycle(),
            batched.timer_events_per_cycle(),
            batched.probes_sent
        ),
    );

    // Causal flight recorder: every reconstructed failover chain is
    // complete (no orphaned cause refs) and its timestamp-only
    // decomposition reproduces the daemon's failover-latency histogram
    // samples exactly, 100% matched.
    let fv = flight_verdict();
    r.check(
        "flight chains decompose to the failover histograms",
        fv.all_matched(),
        format!(
            "{} failovers, detect {}/{}, reroute {}/{}, {} orphan refs",
            fv.failovers,
            fv.matched_detect,
            fv.detect_chains,
            fv.matched_reroute,
            fv.failovers,
            fv.orphan_refs
        ),
    );

    // Fluid workload, claim 1: a million-session closed-loop population
    // costs the kernel exactly one event per session transition — a
    // pure integer identity, no tolerance — inside a fixed event
    // budget, with the byte ledger balanced exactly.
    let mv = million_verdict();
    r.check(
        "1M sessions at O(transitions): events == transitions",
        mv.holds(),
        format!(
            "{} active of {}, {} events == {} transitions, conserved {}",
            mv.active, mv.population, mv.kernel_session_events, mv.transitions, mv.conserved
        ),
    );

    // Fluid workload, claim 2: through a hub failover the session SLOs
    // are real — stalls open and resume, interruption samples exist,
    // every reroute the engine credits is one the daemons observed, and
    // offered == delivered + shortfall + dropped + in_flight exactly.
    let sv = slo_verdict();
    r.check(
        "failover SLOs conserved and probe-cross-checked",
        sv.holds(),
        format!(
            "{} stalls / {} resumed, {} interruptions, reroutes match {}, conserved {}",
            sv.stall_windows,
            sv.resumed_windows,
            sv.interruption_samples,
            sv.reroutes_match,
            sv.conserved
        ),
    );

    // End-to-end DES <-> Equation 1 agreement (one configuration),
    // through the shared harness-run e2e module.
    let agree = e2e::mismatches(8, 3, 30, coord_seed(BENCH_SEED, 8, 3));
    r.check(
        "DES matches Equation 1 predicate per trial",
        agree == 0,
        format!("{agree} mismatches / 30 trials"),
    );

    println!();
    println!("{} passed, {} failed", r.passed, r.failed);
    if r.failed > 0 {
        std::process::exit(1);
    }
}
