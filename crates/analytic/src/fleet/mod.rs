//! The deployment motivation study, reproduced synthetically.
//!
//! The paper's opening claim: *"We evaluated one hundred deployed systems
//! and found that over a one-year period, thirteen percent of the
//! hardware failures were network related"* — NICs, hubs, cabling. That
//! field data is proprietary and lost to time, so this module builds the
//! closest synthetic equivalent (documented in DESIGN.md §4):
//!
//! * a **hardware inventory** per server (disk, memory, PSU, fan, CPU,
//!   motherboard, two NICs, two cables) plus two shared hubs per cluster,
//!   with per-class annual failure rates calibrated from late-1990s
//!   availability folklore so that the *expected* network share is ≈13 %
//!   ([`inventory`]);
//! * a **Poisson trace generator** producing one-year failure logs for a
//!   100-server fleet (this module): failures arrive as independent
//!   Poisson processes per component instance; the generator walks every
//!   instance in the fleet, samples its event times over the study
//!   window, and emits a flat, time-sorted log — the synthetic stand-in
//!   for the operations database behind the paper's field study;
//! * the **classification pipeline** that computes the network-related
//!   fraction from a trace, and the **masking analysis** estimating how
//!   many of those network failures DRS would have hidden from
//!   applications ([`study`]).
//!
//! The headline number is a *model output* here, not field data — the
//! point is to exercise the same pipeline and show the statistic's
//! seed-to-seed spread.

use drs_obs::rng::Rng;

pub mod inventory;
pub mod study;

pub use inventory::{ComponentClass, FailureRates};
pub use study::{
    availability_gain, fmt_fraction_pct, masking_analysis, network_fraction, replicate_study,
    AvailabilityReport, MaskingReport, StudySummary,
};

/// Description of a deployed fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// Number of clusters.
    pub clusters: usize,
    /// Servers in each cluster.
    pub servers_per_cluster: usize,
    /// Study window in days.
    pub duration_days: f64,
    /// Per-class failure intensities.
    pub rates: FailureRates,
}

impl FleetSpec {
    /// The paper's motivation study: one hundred servers observed for a
    /// year (modelled as 10 clusters × 10 servers).
    #[must_use]
    pub fn hundred_servers_one_year() -> Self {
        FleetSpec {
            clusters: 10,
            servers_per_cluster: 10,
            duration_days: 365.0,
            rates: FailureRates::default(),
        }
    }

    /// The commercial deployment: 27 voice-mail clusters of 8–12 servers
    /// (modelled at the midpoint, 10).
    #[must_use]
    pub fn mci_deployment() -> Self {
        FleetSpec {
            clusters: 27,
            servers_per_cluster: 10,
            duration_days: 365.0,
            rates: FailureRates::default(),
        }
    }
}

/// One failure event in the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureRecord {
    /// Days since the study began.
    pub at_days: f64,
    /// Which cluster the failed component belongs to.
    pub cluster: usize,
    /// Which server within the cluster (`None` for shared hubs).
    pub server: Option<usize>,
    /// The failed component class.
    pub class: ComponentClass,
}

impl FailureRecord {
    /// Whether this record counts as network related.
    #[must_use]
    pub fn is_network(&self) -> bool {
        self.class.is_network()
    }
}

/// Samples event times of a Poisson process with `rate` events/year over
/// `duration_days`, in days.
fn poisson_times(rate_per_year: f64, duration_days: f64, rng: &mut Rng) -> Vec<f64> {
    debug_assert!(rate_per_year >= 0.0);
    let mut times = Vec::new();
    let daily = rate_per_year / 365.0;
    if daily <= 0.0 {
        return times;
    }
    let mut t = 0.0;
    loop {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += -u.ln() / daily;
        if t >= duration_days {
            return times;
        }
        times.push(t);
    }
}

/// The seed for replication `index` of a study derived from `master`:
/// the workspace-wide SplitMix64 stream ([`drs_harness::stream_seed`]).
///
/// This replaces the old `master.wrapping_add(i).wrapping_mul(…)` scheme,
/// whose consecutive outputs differed by a fixed constant and fed
/// correlated states into the trace generator's `Rng` — a bias in
/// the replicated fleet study.
#[must_use]
pub fn replication_seed(master: u64, index: u64) -> u64 {
    drs_harness::stream_seed(master, index)
}

/// Generates the trace for replication `index` of a study seeded by
/// `master` — [`generate_trace`] under [`replication_seed`], the exact
/// per-trial seed [`study::replicate_study`] uses, so one
/// replication can be reproduced without re-running the study.
#[must_use]
pub fn generate_replication(spec: &FleetSpec, master: u64, index: u64) -> Vec<FailureRecord> {
    generate_trace(spec, replication_seed(master, index))
}

/// Generates a complete, time-sorted failure trace for a fleet.
#[must_use]
pub fn generate_trace(spec: &FleetSpec, seed: u64) -> Vec<FailureRecord> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut records = Vec::new();
    for cluster in 0..spec.clusters {
        // Shared components.
        for class in ComponentClass::ALL {
            for _ in 0..class.per_cluster() {
                for at_days in poisson_times(spec.rates.rate(class), spec.duration_days, &mut rng) {
                    records.push(FailureRecord {
                        at_days,
                        cluster,
                        server: None,
                        class,
                    });
                }
            }
        }
        // Per-server components.
        for server in 0..spec.servers_per_cluster {
            for class in ComponentClass::ALL {
                for _ in 0..class.per_server() {
                    for at_days in
                        poisson_times(spec.rates.rate(class), spec.duration_days, &mut rng)
                    {
                        records.push(FailureRecord {
                            at_days,
                            cluster,
                            server: Some(server),
                            class,
                        });
                    }
                }
            }
        }
    }
    records.sort_by(|a, b| a.at_days.total_cmp(&b.at_days));
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_sorted_and_in_window() {
        let spec = FleetSpec::hundred_servers_one_year();
        let trace = generate_trace(&spec, 1);
        assert!(trace.windows(2).all(|w| w[0].at_days <= w[1].at_days));
        assert!(trace
            .iter()
            .all(|r| r.at_days >= 0.0 && r.at_days < spec.duration_days));
    }

    #[test]
    fn hub_records_have_no_server() {
        let spec = FleetSpec::mci_deployment();
        let trace = generate_trace(&spec, 2);
        for r in &trace {
            assert_eq!(r.server.is_none(), r.class == ComponentClass::Hub, "{r:?}");
            assert!(r.cluster < spec.clusters);
            if let Some(s) = r.server {
                assert!(s < spec.servers_per_cluster);
            }
        }
    }

    #[test]
    fn event_count_matches_expectation_over_seeds() {
        // E[failures] per 100 server-years ≈ 14.8; average over seeds
        // should land near it.
        let spec = FleetSpec::hundred_servers_one_year();
        let expected = spec
            .rates
            .expected_per_server_year(spec.servers_per_cluster as f64)
            * (spec.clusters * spec.servers_per_cluster) as f64;
        let mean = (0..200u64)
            .map(|s| generate_trace(&spec, s).len() as f64)
            .sum::<f64>()
            / 200.0;
        assert!(
            (mean - expected).abs() / expected < 0.10,
            "mean {mean:.2} vs expected {expected:.2}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = FleetSpec::hundred_servers_one_year();
        assert_eq!(generate_trace(&spec, 9), generate_trace(&spec, 9));
    }

    #[test]
    fn replication_helper_uses_the_shared_stream() {
        let spec = FleetSpec::hundred_servers_one_year();
        assert_eq!(
            generate_replication(&spec, 13, 4),
            generate_trace(&spec, drs_harness::stream_seed(13, 4))
        );
        // The stream must not reproduce the weak legacy derivation, whose
        // consecutive seeds were an affine sequence.
        let legacy = |seed: u64, i: u64| seed.wrapping_add(i).wrapping_mul(0x9E37_79B9);
        assert_ne!(replication_seed(13, 0), legacy(13, 0));
        let d0 = replication_seed(13, 1).wrapping_sub(replication_seed(13, 0));
        let d1 = replication_seed(13, 2).wrapping_sub(replication_seed(13, 1));
        assert_ne!(d0, d1, "replication seeds form an affine sequence");
    }

    #[test]
    fn zero_rate_means_no_events() {
        let mut rng = Rng::seed_from_u64(1);
        assert!(poisson_times(0.0, 365.0, &mut rng).is_empty());
    }
}
