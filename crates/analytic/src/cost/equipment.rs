//! Equipment counts and capital cost of a topology — the hardware side
//! of the survivability-vs-cost frontier.
//!
//! The paper's cost axis is proactive *bandwidth*; a topology zoo adds a
//! second, capital axis: how much hardware each fabric buys its
//! redundancy with. [`EquipmentCount::of`] tallies a
//! [`drs_topology::Topology`]'s switches, cables and ports;
//! [`cost_units`] prices the tally in deterministic *cost units*.
//! Hosts are not priced — the paper's framing takes the communicating
//! servers as given and asks what the fabric around them costs.
//!
//! The prices are dyadic-rational unit weights (exact in `f64`, so
//! artifact cells never depend on summation order): a switch chassis is
//! 10 units, a switch port 1, a host NIC port 1.5, a cable 0.5.

use drs_topology::Topology;

/// Hardware tally of one topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquipmentCount {
    /// Hosts (not priced; reported for context).
    pub hosts: usize,
    /// Switch chassis.
    pub switches: usize,
    /// Cables (= links).
    pub links: usize,
    /// Link endpoints landing on hosts (NIC ports to buy).
    pub nic_ports: usize,
    /// Link endpoints landing on switches (switch ports to buy).
    pub switch_ports: usize,
}

impl EquipmentCount {
    /// Tallies a topology.
    #[must_use]
    pub fn of(topo: &Topology) -> Self {
        let mut nic_ports = 0;
        let mut switch_ports = 0;
        for l in topo.links() {
            for v in [l.a as usize, l.b as usize] {
                if topo.is_host(v) {
                    nic_ports += 1;
                } else {
                    switch_ports += 1;
                }
            }
        }
        EquipmentCount {
            hosts: topo.hosts(),
            switches: topo.switches(),
            links: topo.links().len(),
            nic_ports,
            switch_ports,
        }
    }
}

/// Cost units of a topology. With the dyadic prices and integer counts
/// every term — and the sum — is exact in `f64`.
#[must_use]
pub fn cost_units(topo: &Topology) -> f64 {
    const SWITCH: f64 = 10.0;
    const SWITCH_PORT: f64 = 1.0;
    const NIC_PORT: f64 = 1.5;
    const LINK: f64 = 0.5;
    let count = EquipmentCount::of(topo);
    SWITCH * count.switches as f64
        + SWITCH_PORT * count.switch_ports as f64
        + NIC_PORT * count.nic_ports as f64
        + LINK * count.links as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use drs_topology::generators;

    #[test]
    fn kplane_tally_matches_closed_form() {
        // kplane(n, K): K switches, K·n host–switch links.
        for (n, k) in [(4usize, 2usize), (6, 3), (16, 2)] {
            let c = EquipmentCount::of(&generators::kplane(n, k));
            assert_eq!(c.hosts, n);
            assert_eq!(c.switches, k);
            assert_eq!(c.links, k * n);
            assert_eq!(c.nic_ports, k * n);
            assert_eq!(c.switch_ports, k * n);
        }
    }

    #[test]
    fn fat_tree_tally() {
        // fat_tree(4): 16 hosts, 20 switches, 48 links of which 16 land
        // on hosts.
        let c = EquipmentCount::of(&generators::fat_tree(4));
        assert_eq!(c.hosts, 16);
        assert_eq!(c.switches, 20);
        assert_eq!(c.links, 48);
        assert_eq!(c.nic_ports, 16);
        assert_eq!(c.switch_ports, 2 * 48 - 16);
    }

    #[test]
    fn bcube_and_dcell_port_split() {
        // BCube(4,1): every link is host–switch.
        let b = EquipmentCount::of(&generators::bcube(4, 1));
        assert_eq!((b.nic_ports, b.switch_ports), (32, 32));
        // DCell(4,1): 20 host–switch links plus 10 host–host cross links.
        let d = EquipmentCount::of(&generators::dcell(4, 1));
        assert_eq!((d.links, d.nic_ports, d.switch_ports), (30, 40, 20));
    }

    #[test]
    fn default_cost_units_are_exact() {
        // kplane(16, 2): 2·10 + 32·1 + 32·1.5 + 32·0.5 = 116 exactly.
        let t = generators::kplane(16, 2);
        assert_eq!(cost_units(&t), 116.0);
        // fat_tree(4): 20·10 + 80·1 + 16·1.5 + 48·0.5 = 328 exactly.
        assert_eq!(cost_units(&generators::fat_tree(4)), 328.0);
    }
}
