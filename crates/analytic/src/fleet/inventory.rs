//! Server hardware inventory and per-class annual failure rates.

/// A failable hardware component class in a late-1990s server cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentClass {
    /// Network interface card (two per server).
    Nic,
    /// Network cabling/connector (one run per NIC).
    Cable,
    /// Shared network hub / backplane (two per cluster).
    Hub,
    /// Hard disk.
    Disk,
    /// Memory module.
    Memory,
    /// Power supply unit.
    PowerSupply,
    /// Cooling fan.
    Fan,
    /// Processor.
    Cpu,
    /// Motherboard / backplane electronics.
    Motherboard,
}

impl ComponentClass {
    /// Every class, network classes first.
    pub const ALL: [ComponentClass; 9] = [
        ComponentClass::Nic,
        ComponentClass::Cable,
        ComponentClass::Hub,
        ComponentClass::Disk,
        ComponentClass::Memory,
        ComponentClass::PowerSupply,
        ComponentClass::Fan,
        ComponentClass::Cpu,
        ComponentClass::Motherboard,
    ];

    /// Whether a failure of this class counts as "network related" in the
    /// paper's sense ("network interface cards, hubs, etc.").
    #[must_use]
    pub fn is_network(self) -> bool {
        matches!(
            self,
            ComponentClass::Nic | ComponentClass::Cable | ComponentClass::Hub
        )
    }

    /// How many instances of this class one *server* carries (hubs are
    /// cluster-level and return 0 here).
    #[must_use]
    pub fn per_server(self) -> u32 {
        match self {
            ComponentClass::Nic | ComponentClass::Cable => 2, // dual-network
            ComponentClass::Hub => 0,
            _ => 1,
        }
    }

    /// Instances per cluster that are shared rather than per-server.
    #[must_use]
    pub fn per_cluster(self) -> u32 {
        match self {
            ComponentClass::Hub => 2,
            _ => 0,
        }
    }
}

/// Annual failure rates per component *instance* (Poisson intensity,
/// events per instance-year).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureRates {
    /// NIC failures per card-year.
    pub nic: f64,
    /// Cable/connector failures per run-year.
    pub cable: f64,
    /// Hub failures per hub-year.
    pub hub: f64,
    /// Disk failures per drive-year.
    pub disk: f64,
    /// Memory failures per module-year.
    pub memory: f64,
    /// PSU failures per unit-year.
    pub power_supply: f64,
    /// Fan failures per fan-year.
    pub fan: f64,
    /// CPU failures per socket-year.
    pub cpu: f64,
    /// Motherboard failures per board-year.
    pub motherboard: f64,
}

impl Default for FailureRates {
    /// Rates calibrated (see [`crate::fleet`]) so a 10-servers-per-cluster
    /// fleet has an expected network-related failure share of ≈13 %.
    fn default() -> Self {
        FailureRates {
            nic: 0.005,
            cable: 0.003,
            hub: 0.017,
            disk: 0.050,
            memory: 0.015,
            power_supply: 0.022,
            fan: 0.025,
            cpu: 0.005,
            motherboard: 0.012,
        }
    }
}

impl FailureRates {
    /// Rate for one class.
    #[must_use]
    pub fn rate(&self, class: ComponentClass) -> f64 {
        match class {
            ComponentClass::Nic => self.nic,
            ComponentClass::Cable => self.cable,
            ComponentClass::Hub => self.hub,
            ComponentClass::Disk => self.disk,
            ComponentClass::Memory => self.memory,
            ComponentClass::PowerSupply => self.power_supply,
            ComponentClass::Fan => self.fan,
            ComponentClass::Cpu => self.cpu,
            ComponentClass::Motherboard => self.motherboard,
        }
    }

    /// Expected failures per server-year, including this server's share
    /// of the cluster hubs (`servers_per_cluster` spreads hub events).
    #[must_use]
    pub fn expected_per_server_year(&self, servers_per_cluster: f64) -> f64 {
        self.per_server_year(servers_per_cluster, |_| true)
    }

    /// Expected *network* failures per server-year, hub share included.
    #[must_use]
    pub fn expected_network_per_server_year(&self, servers_per_cluster: f64) -> f64 {
        self.per_server_year(servers_per_cluster, ComponentClass::is_network)
    }

    /// Expected *network* share of failures for the given cluster size —
    /// the analytic counterpart of the 13 % statistic.
    #[must_use]
    pub fn expected_network_fraction(&self, servers_per_cluster: f64) -> f64 {
        self.expected_network_per_server_year(servers_per_cluster)
            / self.expected_per_server_year(servers_per_cluster)
    }

    fn per_server_year(&self, servers_per_cluster: f64, keep: fn(ComponentClass) -> bool) -> f64 {
        assert!(servers_per_cluster >= 1.0);
        ComponentClass::ALL
            .into_iter()
            .filter(|&c| keep(c))
            .map(|c| {
                self.rate(c)
                    * (c.per_server() as f64 + c.per_cluster() as f64 / servers_per_cluster)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_classification() {
        assert!(ComponentClass::Nic.is_network());
        assert!(ComponentClass::Cable.is_network());
        assert!(ComponentClass::Hub.is_network());
        assert!(!ComponentClass::Disk.is_network());
        assert!(!ComponentClass::Fan.is_network());
    }

    #[test]
    fn inventory_counts() {
        assert_eq!(ComponentClass::Nic.per_server(), 2);
        assert_eq!(ComponentClass::Hub.per_server(), 0);
        assert_eq!(ComponentClass::Hub.per_cluster(), 2);
        assert_eq!(ComponentClass::Disk.per_server(), 1);
    }

    #[test]
    fn default_rates_hit_thirteen_percent() {
        let rates = FailureRates::default();
        let frac = rates.expected_network_fraction(10.0);
        assert!(
            (frac - 0.13).abs() < 0.005,
            "calibration drifted: expected ≈0.13, got {frac:.4}"
        );
    }

    #[test]
    fn expected_rate_scale_is_plausible() {
        // Mid-teens failures per 100 server-years: in the ballpark the
        // paper's field numbers imply.
        let per_hundred = FailureRates::default().expected_per_server_year(10.0) * 100.0;
        assert!(
            (10.0..25.0).contains(&per_hundred),
            "{per_hundred} failures / 100 server-years"
        );
    }

    #[test]
    fn smaller_clusters_shift_share_toward_hubs() {
        let rates = FailureRates::default();
        assert!(
            rates.expected_network_fraction(4.0) > rates.expected_network_fraction(16.0),
            "hub share is amortized over fewer servers in small clusters"
        );
    }
}
