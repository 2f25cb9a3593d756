//! The topology graph model: hosts, switches, point-to-point links, and
//! the component universe the failure model draws from.
//!
//! Node ids are dense: hosts occupy `0..hosts`, switches
//! `hosts..hosts + switches`. Links are undirected endpoint pairs in
//! generator order. The **failure-component universe** is the switches
//! (in switch order) followed by the links (in link order) — hosts are
//! not failure components, matching the paper's pair-survivability
//! framing where the communicating servers themselves are given. For the
//! degenerate K-plane topology this ordering is bit-compatible with the
//! historical `K·n + K` component indexing: component `p` is plane `p`'s
//! switch (the hub) and component `K + p·n + i` is host `i`'s link on
//! plane `p` (the NIC).

use std::fmt;

/// One undirected point-to-point link between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// First endpoint (node id).
    pub a: u32,
    /// Second endpoint (node id).
    pub b: u32,
}

/// One entry of the failure-component universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopoComponent {
    /// A switch, by switch index (`0..switches`).
    Switch(usize),
    /// A link, by link index (`0..links`).
    Link(usize),
}

/// An explicit cluster fabric: hosts, switches, and the links wiring them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    name: String,
    params: String,
    hosts: usize,
    switches: usize,
    links: Vec<Link>,
    /// Per node, the indices of its incident links (ascending).
    incident: Vec<Vec<u32>>,
}

impl Topology {
    /// Builds a topology from its parts and indexes link incidence.
    ///
    /// # Panics
    /// Panics on a malformed graph: zero hosts, a link endpoint outside
    /// the node range, or a self-link. (Capacity limits are *not* checked
    /// here — engines validate via [`crate::limits`] where their bitsets
    /// require it.)
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        params: impl Into<String>,
        hosts: usize,
        switches: usize,
        links: Vec<Link>,
    ) -> Self {
        assert!(hosts >= 1, "a topology needs at least one host");
        let nodes = hosts + switches;
        let mut incident = vec![Vec::new(); nodes];
        for (li, l) in links.iter().enumerate() {
            assert!(
                (l.a as usize) < nodes && (l.b as usize) < nodes,
                "link {li} endpoint out of range for {nodes} nodes"
            );
            assert_ne!(l.a, l.b, "link {li} is a self-loop");
            incident[l.a as usize].push(li as u32);
            incident[l.b as usize].push(li as u32);
        }
        Topology {
            name: name.into(),
            params: params.into(),
            hosts,
            switches,
            links,
            incident,
        }
    }

    /// Generator name, e.g. `"fat_tree"`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Generator parameters, e.g. `"k=4"`.
    #[must_use]
    pub fn params(&self) -> &str {
        &self.params
    }

    /// Number of hosts (node ids `0..hosts`).
    #[must_use]
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// Number of switches (node ids `hosts..hosts + switches`).
    #[must_use]
    pub fn switches(&self) -> usize {
        self.switches
    }

    /// Total node count (`hosts + switches`).
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.hosts + self.switches
    }

    /// The links, in generator order.
    #[must_use]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Whether node `v` is a host.
    #[must_use]
    pub fn is_host(&self, v: usize) -> bool {
        v < self.hosts
    }

    /// The node id of switch `s`.
    ///
    /// # Panics
    /// Panics if `s` is not a switch index.
    #[must_use]
    pub fn switch_node(&self, s: usize) -> usize {
        assert!(s < self.switches, "switch {s} out of range");
        self.hosts + s
    }

    /// The switch index of node `v`, if it is a switch.
    #[must_use]
    pub fn switch_of_node(&self, v: usize) -> Option<usize> {
        (v >= self.hosts && v < self.nodes()).then(|| v - self.hosts)
    }

    /// Indices of the links incident to node `v`, ascending.
    #[must_use]
    pub fn incident_links(&self, v: usize) -> &[u32] {
        &self.incident[v]
    }

    /// Size of the failure-component universe: `switches + links`.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.switches + self.links.len()
    }

    /// The component at universe index `idx` — switches first (in switch
    /// order), then links (in generator order). Returns `None` when `idx`
    /// is at or beyond [`Self::component_count`]; the historical
    /// panicking indexers delegate here.
    #[must_use]
    pub fn component(&self, idx: usize) -> Option<TopoComponent> {
        if idx < self.switches {
            Some(TopoComponent::Switch(idx))
        } else if idx < self.component_count() {
            Some(TopoComponent::Link(idx - self.switches))
        } else {
            None
        }
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({}): {} hosts, {} switches, {} links",
            self.name,
            self.params,
            self.hosts,
            self.switches,
            self.links.len()
        )
    }
}

/// A set of failed components over a universe of at most 256 entries,
/// stored as a 256-bit inline bitset: allocation-free and `Copy`, because
/// the counting engines manipulate these millions of times per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComponentSet {
    words: [u64; 4],
}

impl ComponentSet {
    /// The empty set.
    #[inline]
    #[must_use]
    pub fn new() -> Self {
        ComponentSet::default()
    }

    /// A set holding the given universe indices.
    ///
    /// # Panics
    /// Panics if any index is 256 or larger.
    #[must_use]
    pub fn from_indices(indices: &[usize]) -> Self {
        let mut s = ComponentSet::new();
        for &i in indices {
            s.insert(i);
        }
        s
    }

    /// Inserts universe index `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is 256 or larger.
    #[inline]
    pub fn insert(&mut self, idx: usize) {
        assert!(idx < 256, "component index {idx} exceeds bitset capacity");
        self.words[idx / 64] |= 1 << (idx % 64);
    }

    /// Removes universe index `idx`, if present.
    pub fn remove(&mut self, idx: usize) {
        if idx < 256 {
            self.words[idx / 64] &= !(1 << (idx % 64));
        }
    }

    /// Whether universe index `idx` is in the set.
    #[inline]
    #[must_use]
    pub fn contains(&self, idx: usize) -> bool {
        idx < 256 && self.words[idx / 64] & (1 << (idx % 64)) != 0
    }

    /// Number of failed components.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether the two sets share no index.
    #[inline]
    #[must_use]
    pub fn is_disjoint(&self, other: &ComponentSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .fold(0, |acc, (a, b)| acc | (a & b))
            == 0
    }

    /// Whether every index of this set is also in `other`.
    #[inline]
    #[must_use]
    pub fn is_subset(&self, other: &ComponentSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .fold(0, |acc, (a, b)| acc | (a & !b))
            == 0
    }

    /// The failed indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * 64 + bit)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        // Two hosts and one switch, fully wired (host-host link included).
        Topology::new(
            "tri",
            "",
            2,
            1,
            vec![
                Link { a: 0, b: 2 },
                Link { a: 1, b: 2 },
                Link { a: 0, b: 1 },
            ],
        )
    }

    #[test]
    fn component_universe_orders_switches_then_links() {
        let t = triangle();
        assert_eq!(t.component_count(), 4);
        assert_eq!(t.component(0), Some(TopoComponent::Switch(0)));
        assert_eq!(t.component(1), Some(TopoComponent::Link(0)));
        assert_eq!(t.component(3), Some(TopoComponent::Link(2)));
        assert_eq!(t.component(4), None, "one past the universe is None");
    }

    #[test]
    fn incidence_is_indexed_per_node() {
        let t = triangle();
        assert_eq!(t.incident_links(0), &[0, 2]);
        assert_eq!(t.incident_links(1), &[1, 2]);
        assert_eq!(t.incident_links(2), &[0, 1]);
        assert!(t.is_host(1));
        assert!(!t.is_host(2));
        assert_eq!(t.switch_node(0), 2);
        assert_eq!(t.switch_of_node(2), Some(0));
        assert_eq!(t.switch_of_node(0), None);
        assert_eq!(t.switch_of_node(3), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dangling_link_endpoint_rejected() {
        let _ = Topology::new("bad", "", 1, 1, vec![Link { a: 0, b: 5 }]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let _ = Topology::new("bad", "", 2, 0, vec![Link { a: 1, b: 1 }]);
    }

    #[test]
    fn component_set_round_trips() {
        let mut s = ComponentSet::from_indices(&[0, 63, 64, 255]);
        assert_eq!(s.len(), 4);
        assert!(s.contains(63) && s.contains(255));
        assert!(!s.contains(1));
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 255]);
        assert!(!s.is_empty());
        assert!(ComponentSet::new().is_empty());
    }

    #[test]
    fn disjoint_and_subset_see_every_word() {
        let empty = ComponentSet::new();
        assert!(empty.is_disjoint(&empty) && empty.is_subset(&empty));
        // One index per word, on both sides of each word boundary.
        for idx in [0usize, 63, 64, 127, 128, 191, 192, 255] {
            let one = ComponentSet::from_indices(&[idx]);
            let neighbour = ComponentSet::from_indices(&[idx ^ 1]);
            let both = ComponentSet::from_indices(&[idx, idx ^ 1]);
            assert!(!one.is_disjoint(&one), "idx={idx}");
            assert!(one.is_disjoint(&neighbour), "idx={idx}");
            assert!(one.is_disjoint(&empty) && empty.is_disjoint(&one));
            assert!(one.is_subset(&both) && !both.is_subset(&one), "idx={idx}");
            assert!(!one.is_subset(&neighbour), "idx={idx}");
            assert!(empty.is_subset(&one) && !one.is_subset(&empty));
        }
        // A difference in the last word only must not be masked by
        // agreement in the first three.
        let low = ComponentSet::from_indices(&[0, 63, 64, 128]);
        let high = ComponentSet::from_indices(&[0, 63, 64, 128, 255]);
        assert!(low.is_subset(&high) && !high.is_subset(&low));
        assert!(!low.is_disjoint(&high));
        assert!(ComponentSet::from_indices(&[63, 255])
            .is_disjoint(&ComponentSet::from_indices(&[64, 254])));
    }
}
