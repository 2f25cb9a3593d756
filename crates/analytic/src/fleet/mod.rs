//! The deployment motivation study, computed from the calibrated rates.
//!
//! The paper's opening claim: *"We evaluated one hundred deployed systems
//! and found that over a one-year period, thirteen percent of the
//! hardware failures were network related"* — NICs, hubs, cabling. That
//! field data is proprietary and lost to time, so this module models the
//! closest synthetic equivalent (documented in DESIGN.md §4): a
//! **hardware inventory** per server (disk, memory, PSU, fan, CPU,
//! motherboard, two NICs, two cables) plus two shared hubs per cluster,
//! with per-class annual failure rates calibrated from late-1990s
//! availability folklore so that the *expected* network share is ≈13 %
//! ([`inventory`]).
//!
//! Every component instance fails as an independent Poisson process, so
//! each statistic of the study is a closed form of the rates:
//!
//! * the network share ([`FailureRates::expected_network_fraction`]) and
//!   its spread from one study year to the next
//!   ([`FleetSpec::network_share_std`]);
//! * the share of network failures DRS masks from applications
//!   ([`FleetSpec::masked_fraction`]);
//! * network-attributable availability with and without DRS
//!   ([`FleetSpec::network_availability`]).
//!
//! The headline number is a *model output* here, not field data.

pub mod inventory;

pub use inventory::{ComponentClass, FailureRates};

/// Description of a deployed fleet, observed for one year.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// Number of clusters.
    pub clusters: usize,
    /// Servers in each cluster.
    pub servers_per_cluster: usize,
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
            rates: FailureRates::default(),
        }
    }

    /// Expected hardware failures across the fleet in one year.
    #[must_use]
    pub fn expected_failures_per_year(&self) -> f64 {
        let s = self.servers_per_cluster as f64;
        self.rates.expected_per_server_year(s) * self.clusters as f64 * s
    }

    /// Expected network failures per cluster-year, `λ_c`.
    #[must_use]
    pub fn network_failures_per_cluster_year(&self) -> f64 {
        let s = self.servers_per_cluster as f64;
        self.rates.expected_network_per_server_year(s) * s
    }

    /// Standard deviation of the network share one study year observes.
    ///
    /// Given `T ≥ 1` failures in the year, the network count is
    /// Binomial(`T`, `p`), so the share has mean `p` and variance
    /// `p(1 − p)/T`; with `T` ~ Poisson([`Self::expected_failures_per_year`]),
    /// `σ² = p(1 − p) · E[1/T | T ≥ 1]`. A year without failures
    /// classifies nothing and is left out.
    #[must_use]
    pub fn network_share_std(&self) -> f64 {
        let p = self
            .rates
            .expected_network_fraction(self.servers_per_cluster as f64);
        (p * (1.0 - p) * mean_inverse_poisson(self.expected_failures_per_year())).sqrt()
    }

    /// Share of network failures DRS hides from applications when each
    /// takes `mttr_days` to repair: `exp(−2 · r · λ_c)`, the chance that no
    /// other network failure in the same cluster lands within ±`r` of it.
    /// Counting every such overlap as unmasked, even one the surviving
    /// planes or a gateway would carry, makes this a lower bound.
    #[must_use]
    pub fn masked_fraction(&self, mttr_days: f64) -> f64 {
        assert!(mttr_days >= 0.0, "repair time must be non-negative");
        (-2.0 * mttr_days / 365.0 * self.network_failures_per_cluster_year()).exp()
    }

    /// Network-attributable availability of one cluster, `(without DRS,
    /// with DRS)`: every network failure takes the cluster's
    /// server-to-server traffic down for `mttr_days` without DRS
    /// (`1 − λ_c · r`), only an unmasked one with it
    /// (`1 − λ_c · r · (1 − P(masked))`).
    #[must_use]
    pub fn network_availability(&self, mttr_days: f64) -> (f64, f64) {
        let down = self.network_failures_per_cluster_year() * mttr_days / 365.0;
        (
            1.0 - down,
            1.0 - down * (1.0 - self.masked_fraction(mttr_days)),
        )
    }
}

/// `E[1/T | T ≥ 1]` for `T` ~ Poisson(`mean`), summed term by term. The
/// probabilities follow `P(t) = P(t − 1) · mean / t` in logs, so a large
/// mean does not underflow `e^(−mean)`.
fn mean_inverse_poisson(mean: f64) -> f64 {
    assert!(mean > 0.0, "no failures expected: the share is undefined");
    let (mut ln_p, mut sum, mut t) = (-mean, 0.0, 0.0);
    loop {
        t += 1.0;
        ln_p += mean.ln() - f64::ln(t);
        let term = ln_p.exp() / t;
        sum += term;
        if t > mean && term < 1e-17 * sum {
            return sum / -(-mean).exp_m1();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The variance of the share by brute force: every `T` and every
    /// network count `k`, weighted by their probabilities.
    fn share_variance_by_enumeration(p: f64, mean: f64) -> f64 {
        let mut ln_pt = -mean;
        let mut var = 0.0;
        for t in 1..400u32 {
            ln_pt += mean.ln() - f64::from(t).ln();
            let mut ln_binom = 0.0; // ln C(t, k)
            for k in 0..=t {
                if k > 0 {
                    ln_binom += f64::from(t - k + 1).ln() - f64::from(k).ln();
                }
                let ln_pk = ln_binom + f64::from(k) * p.ln() + f64::from(t - k) * (1.0 - p).ln();
                let d = f64::from(k) / f64::from(t) - p;
                var += (ln_pt + ln_pk).exp() * d * d;
            }
        }
        var / -(-mean).exp_m1()
    }

    #[test]
    fn share_spread_equals_the_binomial_mixture() {
        for (p, mean) in [(0.13, 14.84), (0.5, 0.3), (0.02, 60.0)] {
            let closed = p * (1.0 - p) * mean_inverse_poisson(mean);
            let brute = share_variance_by_enumeration(p, mean);
            assert!(
                (closed - brute).abs() < 1e-12,
                "p={p} mean={mean}: {closed} vs {brute}"
            );
        }
        // One expected failure or fewer: a classified year almost always
        // holds exactly one, so E[1/T | T ≥ 1] → 1.
        assert!((mean_inverse_poisson(1e-6) - 1.0).abs() < 1e-6);
        // Far more: E[1/T] → 1/mean.
        assert!((mean_inverse_poisson(1e5) * 1e5 - 1.0).abs() < 1e-4);
    }

    #[test]
    fn paper_study_values() {
        let spec = FleetSpec::hundred_servers_one_year();
        assert!((spec.expected_failures_per_year() - 14.84).abs() < 1e-9);
        let std = spec.network_share_std();
        assert!((std - 0.0909).abs() < 0.0005, "σ {std}");
    }

    #[test]
    fn deployment_masking_and_availability() {
        let spec = FleetSpec::mci_deployment();
        let mttr = 4.0 / 24.0;
        let lambda = spec.network_failures_per_cluster_year();
        assert!((lambda - 0.194).abs() < 1e-12);
        assert!((100.0 * spec.clusters as f64 * lambda - 523.8).abs() < 1e-9);
        let masked = spec.masked_fraction(mttr);
        assert!((masked - 0.99982).abs() < 1e-5, "{masked}");
        assert_eq!(spec.masked_fraction(0.0), 1.0, "instant repair masks all");
        let (without, with) = spec.network_availability(mttr);
        let nines = |a: f64| -(1.0 - a).log10();
        assert!((nines(without) - 4.05).abs() < 0.005, "{}", nines(without));
        assert!(with > without && with < 1.0);
        let ratio = (1.0 - with) / (1.0 - without);
        assert!((ratio / (1.0 - masked) - 1.0).abs() < 1e-6, "{ratio}");
    }

    #[test]
    fn longer_repairs_mask_less() {
        let spec = FleetSpec::mci_deployment();
        assert!(spec.masked_fraction(1.0) < spec.masked_fraction(4.0 / 24.0));
        let (w1, d1) = spec.network_availability(1.0);
        let (w4, d4) = spec.network_availability(4.0 / 24.0);
        assert!(w1 < w4 && d1 < d4);
    }
}
