//! Regenerates the paper's **deployment motivation statistics** (§1):
//! "over a one-year period, thirteen percent of the hardware failures for
//! 100 compute servers were network related", plus a masking analysis of
//! the 27-cluster commercial deployment.
//!
//! The trace is synthetic (calibrated component rates — see DESIGN.md §4);
//! the binary reports the statistic's distribution over many simulated
//! years, which is the honest form of a field number like "13%". All
//! replication loops run as [`drs_harness::Experiment`]s: per-year seeds
//! come from the shared SplitMix64 stream and years fan out across the
//! harness workers.

use drs_analytic::fleet::{
    availability_gain, fmt_fraction_pct, generate_trace, masking_analysis, network_fraction,
    replicate_study, FleetSpec,
};
use drs_harness::Experiment;

use super::Check;
use crate::section;

pub(super) fn run() -> Vec<Check> {
    println!("Deployment failure study (synthetic reproduction of the field data)");

    let spec = FleetSpec::hundred_servers_one_year();
    section("expected values from the calibrated rate model");
    println!(
        "  expected failures / 100 server-years: {:.1}",
        spec.rates
            .expected_per_server_year(spec.servers_per_cluster as f64)
            * 100.0
    );
    println!(
        "  expected network share: {:.1}%  (paper: 13%)",
        spec.rates
            .expected_network_fraction(spec.servers_per_cluster as f64)
            * 100.0
    );

    section("one simulated study year (seed 1999)");
    let trace = generate_trace(&spec, 1999);
    println!("  hardware failures observed: {}", trace.len());
    println!(
        "  network related: {} ({})",
        trace.iter().filter(|r| r.is_network()).count(),
        fmt_fraction_pct(network_fraction(&trace))
    );

    section("the statistic's spread over 1,000 independent study years");
    let summary = replicate_study(&spec, 1_000, 7);
    println!("  mean failures / year: {:.1}", summary.mean_failures);
    println!(
        "  network fraction: mean {:.1}%, std {:.1}%, range {:.0}%..{:.0}% ({} years classified)",
        summary.mean_network_fraction * 100.0,
        summary.std_network_fraction * 100.0,
        summary.min_fraction * 100.0,
        summary.max_fraction * 100.0,
        summary.classified,
    );
    println!("  (a single observed year like the paper's '13%' sits well inside this band)");

    section("DRS masking in the 27-cluster commercial deployment (4 h MTTR)");
    let deployment = FleetSpec::mci_deployment();
    let masking = Experiment::replications("deployment-masking", 10_000, 100);
    let reports = masking.run_parallel(|ctx, ()| {
        masking_analysis(&generate_trace(&deployment, ctx.seed), 4.0 / 24.0)
    });
    let masked_total: usize = reports.iter().map(|m| m.masked).sum();
    let net_total: usize = reports.iter().map(|m| m.network_failures).sum();
    println!(
        "  network failures over 100 deployment-years: {net_total}; masked by DRS: {masked_total} ({:.1}%)",
        masked_total as f64 / net_total as f64 * 100.0
    );
    println!("  (without DRS every one of these interrupts server-to-server traffic)");

    section("network-attributable availability, fleet mean (4 h MTTR)");
    let reps = 100usize;
    let availability = Experiment::replications("deployment-availability", 20_000, reps);
    let gains = availability.run_parallel(|ctx, ()| {
        availability_gain(
            &generate_trace(&deployment, ctx.seed),
            deployment.clusters,
            deployment.duration_days,
            4.0 / 24.0,
        )
    });
    let without: f64 = gains.iter().map(|r| r.availability_without).sum();
    let with: f64 = gains.iter().map(|r| r.availability_with).sum();
    let saved: f64 = gains.iter().map(|r| r.downtime_saved_days).sum();
    let nines = |a: f64| -(1.0 - a).log10();
    let (aw, a_with) = (without / reps as f64, with / reps as f64);
    println!("  without DRS: {:.6} ({:.2} nines)", aw, nines(aw));
    if a_with >= 1.0 {
        println!("  with DRS:    1.000000 (no network-caused cluster outage observed)");
    } else {
        println!("  with DRS:    {:.6} ({:.2} nines)", a_with, nines(a_with));
    }
    println!(
        "  service downtime eliminated: {:.1} cluster-days per 100 deployment-years",
        saved
    );

    vec![Check {
        ok: (summary.mean_network_fraction - 0.13).abs() < 0.02,
        detail: format!(
            "mean network share {:.1}% over 1,000 study years",
            summary.mean_network_fraction * 100.0
        ),
    }]
}
