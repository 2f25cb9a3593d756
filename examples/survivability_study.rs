//! The survivability mathematics, end to end: Equation 1, its exhaustive
//! validation, the Monte-Carlo simulation, and the sizing question a
//! deployer actually asks.
//!
//! Run: `cargo run --release --example survivability_study`

use drs::analytic::cost::planner::{plan_cluster, PlanningRequirement};
use drs::analytic::cost::ProbeCostModel;
use drs::analytic::enumerate::exhaustive_p_success;
use drs::analytic::exact::p_success;
use drs::analytic::montecarlo::MonteCarlo;
use drs::analytic::qmodel::{unconditional_survivability, FailureWeighting};
use drs::analytic::thresholds::first_n_exceeding;
use drs::sim::SimDuration;

fn main() {
    println!("How many servers does a DRS cluster need to ride out f failures?");
    println!();

    // The deployer's question: I want 99% pair survivability even with f
    // simultaneous component failures. How big must the cluster be?
    for f in 2..=6 {
        let n = first_n_exceeding(f, 0.99).expect("always crosses");
        println!("  f={f}: N >= {n:>3}  (P[S] there: {:.4})", p_success(n, f));
    }
    println!("  (paper milestones: 18 / 32 / 45 for f = 2 / 3 / 4)");

    // Three independent routes to the same number, for one cell.
    let (n, f) = (8u64, 3u64);
    println!();
    println!("three independent computations of P[S](N={n}, f={f}):");
    let exact = p_success(n, f);
    println!("  Equation 1 (closed form):       {exact:.6}");
    let brute = exhaustive_p_success(n as usize, f as usize);
    println!("  exhaustive enumeration:         {brute:.6}");
    let mc = MonteCarlo::new(n as usize, f as usize, 42).estimate(2_000_000);
    println!(
        "  Monte Carlo (2M draws):         {:.6} ± {:.6}",
        mc.p_hat, mc.std_error
    );
    assert!((exact - brute).abs() < 1e-12);
    assert!((exact - mc.p_hat).abs() < 5.0 * mc.std_error.max(1e-6));

    // From conditional to unconditional: fold in how likely f failures
    // are in the first place.
    println!();
    println!("unconditional pair survivability (component failure prob q, binomial):");
    for &q in &[0.01, 0.05, 0.10] {
        let s4 = unconditional_survivability(4, q, FailureWeighting::Binomial);
        let s16 = unconditional_survivability(16, q, FailureWeighting::Binomial);
        let s64 = unconditional_survivability(64, q, FailureWeighting::Binomial);
        println!("  q={q:.2}: N=4 -> {s4:.6}   N=16 -> {s16:.6}   N=64 -> {s64:.6}");
    }
    // Finally, the full planning question: resilience AND monitoring cost.
    println!();
    println!("deployment plan: survive f=2 at 0.99, detect within 1 s, 10% bandwidth:");
    let plan = plan_cluster(
        &ProbeCostModel::default(),
        &PlanningRequirement {
            resilience_f: 2,
            survivability_target: 0.99,
            detection_target: SimDuration::from_secs(1),
            bandwidth_budget: 0.10,
        },
    );
    println!(
        "  feasible sizes: {}..={} -> build {} hosts, sweep every {}",
        plan.min_nodes,
        plan.max_nodes,
        plan.recommended_nodes.unwrap(),
        plan.probe_interval.unwrap(),
    );

    println!();
    println!("two readings of 'P[S] -> 1 as N grows':");
    println!("  * conditional on f failures (the paper's Figure 2): growth genuinely");
    println!("    helps — f failures get lost among 2N+2 components;");
    println!("  * with independent per-component failures, growth helps only by");
    println!("    supplying gateway candidates, and saturates within a few nodes —");
    println!("    the residual risk is the pair's own NICs and the two hubs.");
    println!("both views agree the dual-network design is what buys the nines.");
}
