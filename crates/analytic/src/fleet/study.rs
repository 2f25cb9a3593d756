//! The study pipeline: classify traces, replicate the 13 % statistic, and
//! estimate how many network failures DRS masks.

use drs_harness::{Experiment, RunMode, Summary};

use super::{generate_trace, FailureRecord, FleetSpec};

/// Network-related share of the failures in one trace (`None` for an
/// empty trace — no failures, nothing to classify).
#[must_use]
pub fn network_fraction(trace: &[FailureRecord]) -> Option<f64> {
    if trace.is_empty() {
        return None;
    }
    let net = trace.iter().filter(|r| r.is_network()).count();
    Some(net as f64 / trace.len() as f64)
}

/// Formats an optional fraction as a percentage, printing `—` when there
/// were no samples to classify — "no failures observed" must never read
/// as "0.0% of failures were network-related".
#[must_use]
pub fn fmt_fraction_pct(fraction: Option<f64>) -> String {
    fraction.map_or_else(|| "—".to_string(), |f| format!("{:.1}%", f * 100.0))
}

/// Summary of the statistic over many independent replications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudySummary {
    /// Replications run.
    pub replications: usize,
    /// Replications whose trace was non-empty and therefore contributed
    /// a classified network fraction. When this is zero, every fraction
    /// statistic below is a well-defined `0.0`, not `NaN`.
    pub classified: usize,
    /// Mean failures observed per replication.
    pub mean_failures: f64,
    /// Mean network fraction.
    pub mean_network_fraction: f64,
    /// Sample standard deviation of the network fraction.
    pub std_network_fraction: f64,
    /// Smallest observed fraction.
    pub min_fraction: f64,
    /// Largest observed fraction.
    pub max_fraction: f64,
}

/// Replicates the paper's one-year study over `replications` independent
/// trials of a [`drs_harness::Experiment`].
///
/// Per-trial seeds come from the shared SplitMix64 stream
/// ([`crate::fleet::replication_seed`]); trials fan out across the harness
/// workers, and because each replication is an independent function of its
/// seed the result is identical to a serial run. A study in which every
/// replication yields an empty trace (zeroed failure rates, tiny windows)
/// reports zeroed fraction statistics with `classified == 0` rather than
/// `NaN` mean/std and an infinite minimum.
///
/// # Panics
/// Panics if `replications == 0`.
#[must_use]
pub fn replicate_study(spec: &FleetSpec, replications: usize, seed: u64) -> StudySummary {
    assert!(replications > 0, "need at least one replication");
    let exp = Experiment::replications("fleet-study", seed, replications);
    let per_trial: Vec<(usize, Option<f64>)> = exp.run(RunMode::Parallel, |ctx, ()| {
        let trace = generate_trace(spec, ctx.seed);
        (trace.len(), network_fraction(&trace))
    });
    let total_failures: usize = per_trial.iter().map(|(len, _)| len).sum();
    let fractions: Vec<f64> = per_trial.iter().filter_map(|(_, frac)| *frac).collect();
    let stats = Summary::of(&fractions);
    StudySummary {
        replications,
        classified: stats.count,
        mean_failures: total_failures as f64 / replications as f64,
        mean_network_fraction: stats.mean,
        std_network_fraction: stats.std,
        min_fraction: stats.min,
        max_fraction: stats.max,
    }
}

/// How DRS changes the *application impact* of the network failures in a
/// trace.
///
/// Without DRS, every network failure interrupts server-to-server
/// communication until repaired. With DRS, a network failure is masked
/// (survivable via the redundant network or a gateway) unless another
/// network failure in the **same cluster** overlaps it in time in a
/// disconnecting combination; as a conservative bound we count any
/// same-cluster overlap as unmasked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskingReport {
    /// Network failures in the trace.
    pub network_failures: usize,
    /// Failures DRS masks (no overlapping same-cluster network fault).
    pub masked: usize,
    /// Conservative count of potentially service-affecting failures.
    pub unmasked: usize,
}

impl MaskingReport {
    /// Fraction of network failures DRS hides from applications.
    #[must_use]
    pub fn masked_fraction(&self) -> f64 {
        if self.network_failures == 0 {
            1.0
        } else {
            self.masked as f64 / self.network_failures as f64
        }
    }
}

/// Computes the masking report for a trace, assuming each failure takes
/// `mttr_days` to repair.
#[must_use]
pub fn masking_analysis(trace: &[FailureRecord], mttr_days: f64) -> MaskingReport {
    assert!(mttr_days >= 0.0);
    let net: Vec<&FailureRecord> = trace.iter().filter(|r| r.is_network()).collect();
    let mut masked = 0usize;
    for (i, r) in net.iter().enumerate() {
        let overlaps = net.iter().enumerate().any(|(j, other)| {
            i != j
                && other.cluster == r.cluster
                && other.at_days < r.at_days + mttr_days
                && r.at_days < other.at_days + mttr_days
        });
        if !overlaps {
            masked += 1;
        }
    }
    MaskingReport {
        network_failures: net.len(),
        masked,
        unmasked: net.len() - masked,
    }
}

/// Availability impact: what fraction of cluster downtime the masked
/// network failures would have caused, and the resulting availability
/// with and without DRS.
///
/// Model: every *unmasked-by-anything* failure (non-network failures are
/// never masked; network failures are masked per [`masking_analysis`])
/// takes the affected cluster's service down for `mttr_days`. Downtime is
/// attributed per cluster and averaged over the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityReport {
    /// Mean per-cluster availability without DRS (network failures all
    /// cause outage).
    pub availability_without: f64,
    /// Mean per-cluster availability with DRS (masked network failures
    /// cause none).
    pub availability_with: f64,
    /// Network-caused downtime eliminated, in cluster-days per year
    /// across the fleet.
    pub downtime_saved_days: f64,
}

/// Computes the availability gain DRS provides on a trace.
///
/// Only network failures are considered maskable; every failure (masked
/// or not) still needs `mttr_days` of field service — DRS changes
/// *service* downtime, not repair effort.
#[must_use]
pub fn availability_gain(
    trace: &[FailureRecord],
    clusters: usize,
    duration_days: f64,
    mttr_days: f64,
) -> AvailabilityReport {
    assert!(clusters > 0 && duration_days > 0.0 && mttr_days >= 0.0);
    let masking = masking_analysis(trace, mttr_days);
    let network_downtime_all = masking.network_failures as f64 * mttr_days;
    let network_downtime_unmasked = masking.unmasked as f64 * mttr_days;
    // Non-network failures affect only the one server, not cluster-wide
    // connectivity; the paper's survivability concern is the network, so
    // the availability deltas here are network-attributable downtime.
    let total_cluster_days = clusters as f64 * duration_days;
    AvailabilityReport {
        availability_without: 1.0 - network_downtime_all / total_cluster_days,
        availability_with: 1.0 - network_downtime_unmasked / total_cluster_days,
        downtime_saved_days: network_downtime_all - network_downtime_unmasked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::ComponentClass;

    fn rec(at_days: f64, cluster: usize, class: ComponentClass) -> FailureRecord {
        FailureRecord {
            at_days,
            cluster,
            server: Some(0),
            class,
        }
    }

    #[test]
    fn fraction_of_empty_trace_is_none() {
        assert_eq!(network_fraction(&[]), None);
    }

    #[test]
    fn no_samples_prints_a_dash_not_zero_percent() {
        assert_eq!(fmt_fraction_pct(network_fraction(&[])), "—");
        assert_eq!(fmt_fraction_pct(Some(0.13)), "13.0%");
        assert_eq!(fmt_fraction_pct(Some(0.0)), "0.0%");
    }

    #[test]
    fn fraction_counts_network_classes() {
        let trace = vec![
            rec(1.0, 0, ComponentClass::Nic),
            rec(2.0, 0, ComponentClass::Disk),
            rec(3.0, 0, ComponentClass::Disk),
            rec(4.0, 0, ComponentClass::Hub),
        ];
        assert_eq!(network_fraction(&trace), Some(0.5));
    }

    #[test]
    fn replicated_study_reproduces_thirteen_percent() {
        let spec = FleetSpec::hundred_servers_one_year();
        let s = replicate_study(&spec, 400, 2026);
        assert!(
            (s.mean_network_fraction - 0.13).abs() < 0.02,
            "mean fraction {:.4}",
            s.mean_network_fraction
        );
        // Small samples (≈15 failures/replication) spread widely — the
        // reason a single-year field number like "13%" carries noise.
        assert!(s.std_network_fraction > 0.03);
        assert!(s.mean_failures > 5.0 && s.mean_failures < 40.0);
    }

    #[test]
    fn all_empty_replications_yield_zeroed_summary_not_nan() {
        // Regression: with every failure rate zeroed, each replication's
        // trace is empty, so no network fraction is ever classified. The
        // old implementation divided 0/0 (NaN mean/std) and folded min
        // from +inf; the summary must now be finite and all-zero.
        let mut spec = FleetSpec::hundred_servers_one_year();
        spec.rates = crate::fleet::FailureRates {
            nic: 0.0,
            cable: 0.0,
            hub: 0.0,
            disk: 0.0,
            memory: 0.0,
            power_supply: 0.0,
            fan: 0.0,
            cpu: 0.0,
            motherboard: 0.0,
        };
        let s = replicate_study(&spec, 8, 1);
        assert_eq!(s.replications, 8);
        assert_eq!(s.classified, 0);
        assert_eq!(s.mean_failures, 0.0);
        assert!(s.mean_network_fraction == 0.0 && s.std_network_fraction == 0.0);
        assert!(s.min_fraction == 0.0 && s.max_fraction == 0.0);
        assert!(
            s.mean_network_fraction.is_finite() && s.min_fraction.is_finite(),
            "summary must never carry NaN/inf"
        );
    }

    #[test]
    fn replications_use_the_shared_seed_stream() {
        // One replication reproduced by hand through the fleet helper
        // must see exactly the trace the study saw.
        let spec = FleetSpec::hundred_servers_one_year();
        let single = crate::fleet::generate_replication(&spec, 2026, 0);
        let s = replicate_study(&spec, 1, 2026);
        assert_eq!(s.mean_failures, single.len() as f64);
        assert_eq!(s.classified, usize::from(!single.is_empty()));
        if let Some(f) = network_fraction(&single) {
            assert_eq!(s.mean_network_fraction, f);
        }
    }

    #[test]
    fn masking_isolated_failures_all_masked() {
        let trace = vec![
            rec(10.0, 0, ComponentClass::Nic),
            rec(100.0, 0, ComponentClass::Hub),
            rec(10.0, 1, ComponentClass::Cable), // other cluster, same day
        ];
        let r = masking_analysis(&trace, 1.0);
        assert_eq!(r.network_failures, 3);
        assert_eq!(r.masked, 3);
        assert_eq!(r.masked_fraction(), 1.0);
    }

    #[test]
    fn masking_overlap_in_same_cluster_unmasks() {
        let trace = vec![
            rec(10.0, 0, ComponentClass::Nic),
            rec(10.3, 0, ComponentClass::Hub), // overlaps within 1-day MTTR
        ];
        let r = masking_analysis(&trace, 1.0);
        assert_eq!(r.unmasked, 2);
        assert_eq!(r.masked_fraction(), 0.0);
    }

    #[test]
    fn masking_ignores_non_network_overlap() {
        let trace = vec![
            rec(10.0, 0, ComponentClass::Nic),
            rec(10.1, 0, ComponentClass::Disk),
        ];
        let r = masking_analysis(&trace, 1.0);
        assert_eq!(r.network_failures, 1);
        assert_eq!(r.masked, 1);
    }

    #[test]
    fn deployment_scale_masking_is_high() {
        // With ~15 network failures/year spread over 27 clusters and a
        // 4-hour MTTR, same-cluster overlap is vanishingly rare.
        let spec = FleetSpec::mci_deployment();
        let trace = generate_trace(&spec, 7);
        let r = masking_analysis(&trace, 4.0 / 24.0);
        assert!(
            r.masked_fraction() > 0.95,
            "masked {:.3} of {} failures",
            r.masked_fraction(),
            r.network_failures
        );
    }

    #[test]
    fn empty_trace_masking_is_total() {
        let r = masking_analysis(&[], 1.0);
        assert_eq!(r.masked_fraction(), 1.0);
    }

    #[test]
    fn availability_gain_bounds_and_ordering() {
        let spec = FleetSpec::mci_deployment();
        let trace = generate_trace(&spec, 3);
        let r = availability_gain(&trace, spec.clusters, spec.duration_days, 4.0 / 24.0);
        assert!(r.availability_with >= r.availability_without);
        assert!((0.0..=1.0).contains(&r.availability_without));
        assert!((0.0..=1.0).contains(&r.availability_with));
        assert!(r.downtime_saved_days >= 0.0);
    }

    #[test]
    fn availability_gain_all_masked_means_full_network_nines() {
        // Two isolated network failures, 1-day MTTR, one cluster-year.
        let trace = vec![
            rec(10.0, 0, ComponentClass::Nic),
            rec(200.0, 0, ComponentClass::Hub),
        ];
        let r = availability_gain(&trace, 1, 365.0, 1.0);
        assert!((r.availability_without - (1.0 - 2.0 / 365.0)).abs() < 1e-12);
        assert_eq!(r.availability_with, 1.0);
        assert!((r.downtime_saved_days - 2.0).abs() < 1e-12);
    }

    #[test]
    fn availability_gain_unmasked_overlap_still_counts() {
        let trace = vec![
            rec(10.0, 0, ComponentClass::Nic),
            rec(10.2, 0, ComponentClass::Nic), // overlapping: unmasked
        ];
        let r = availability_gain(&trace, 1, 365.0, 1.0);
        assert_eq!(r.downtime_saved_days, 0.0);
        assert_eq!(r.availability_with, r.availability_without);
    }
}
