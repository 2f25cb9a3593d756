//! Regenerates the paper's **deployment motivation statistics** (§1):
//! "over a one-year period, thirteen percent of the hardware failures for
//! 100 compute servers were network related", plus a masking analysis of
//! the 27-cluster commercial deployment.
//!
//! Every value is a closed form of the calibrated component rates (see
//! DESIGN.md §4 and [`drs_analytic::fleet`]): failures are independent
//! Poisson processes, so the share, its year-to-year spread, the masked
//! share and the availability need no sampling.

use drs_analytic::fleet::FleetSpec;

use super::Check;
use crate::section;

/// Repair time of one failed network component.
const MTTR_DAYS: f64 = 4.0 / 24.0;

pub(super) fn run() -> Vec<Check> {
    println!("Deployment failure study (closed forms of the calibrated rate model)");

    let spec = FleetSpec::hundred_servers_one_year();
    let servers = spec.servers_per_cluster as f64;
    let share = spec.rates.expected_network_fraction(servers);
    section("100 servers (10 clusters of 10) observed for one year");
    println!(
        "  expected failures / 100 server-years: {:.2}",
        spec.rates.expected_per_server_year(servers) * 100.0
    );
    println!(
        "  expected network share: {:.2}%  (paper: 13%)",
        share * 100.0
    );
    println!(
        "  spread from one study year to the next: σ {:.2}%",
        spec.network_share_std() * 100.0
    );
    println!("  (a single observed year like the paper's '13%' sits well inside this band)");

    section("DRS masking in the 27-cluster commercial deployment (4 h MTTR)");
    let deployment = FleetSpec::mci_deployment();
    let per_100_years =
        100.0 * deployment.clusters as f64 * deployment.network_failures_per_cluster_year();
    let masked = deployment.masked_fraction(MTTR_DAYS);
    println!("  network failures per 100 deployment-years: {per_100_years:.1}");
    println!(
        "  masked by DRS: {:.2}% (unless another same-cluster network failure lands within ±4 h)",
        masked * 100.0
    );
    println!("  (without DRS every one of these interrupts server-to-server traffic)");

    section("network-attributable availability per cluster (4 h MTTR)");
    let (without, with) = deployment.network_availability(MTTR_DAYS);
    let nines = |a: f64| -(1.0 - a).log10();
    println!(
        "  without DRS: {:.6} ({:.2} nines)",
        without,
        nines(without)
    );
    println!("  with DRS:    {:.9} ({:.2} nines)", with, nines(with));
    println!(
        "  service downtime eliminated: {:.1} cluster-days per 100 deployment-years",
        per_100_years * MTTR_DAYS * masked
    );

    vec![Check {
        ok: (share - 0.13).abs() < 0.02,
        detail: format!(
            "expected network share {:.2}% of the calibrated rates",
            share * 100.0
        ),
    }]
}
