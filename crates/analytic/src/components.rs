//! The component model of the paper's survivability analysis.
//!
//! A cluster of `N` nodes with `K` network planes contains exactly
//! `K·N + K` failable components: the `K` network backplanes (hubs) and,
//! for every node, one NIC per plane. The paper's cluster has `K = 2`
//! (networks A and B), giving the familiar `2N + 2` universe. The
//! analysis conditions on exactly `f` of these components having failed,
//! with every `f`-subset equally likely.
//!
//! Components are indexed densely so that failure sets can be stored in a
//! flat bitset. At `K = 2`:
//!
//! | index            | component                  |
//! |------------------|----------------------------|
//! | `0`              | backplane of network A     |
//! | `1`              | backplane of network B     |
//! | `2 + i`          | NIC of node `i` on net A   |
//! | `2 + N + i`      | NIC of node `i` on net B   |
//!
//! and in general: indices `0..K` are the backplanes in plane order,
//! followed by one block of `N` NICs per plane (`K + p·N + i` is node
//! `i`'s NIC on plane `p`). The `K = 2` layout is the general layout
//! specialized, so two-plane failure sets index identically either way.

/// Maximum number of nodes supported by the fixed-width [`FailureSet`]
/// bitset (`2N + 2 ≤ 256`). The paper evaluates N < 64; the closed form in
/// [`crate::exact`] has no such limit. Shared with every other
/// bitset-backed engine via [`drs_topology::limits`].
pub use drs_topology::limits::MAX_NODES;

/// One failable component of the redundant-network cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// The shared backplane (hub) of one network plane (0 = A, 1 = B, …).
    Backplane(u8),
    /// The NIC of node `node` on network plane `net` (0 = A, 1 = B, …).
    Nic { node: u32, net: u8 },
}

impl Component {
    /// Dense index of this component in a two-plane cluster of `n` nodes.
    ///
    /// # Panics
    /// Panics if the component is out of range for `n` (node id ≥ `n`, or a
    /// network id other than 0/1).
    #[must_use]
    pub fn index(self, n: usize) -> usize {
        self.index_k(n, 2)
    }

    /// Dense index of this component in a `planes`-plane cluster of `n`
    /// nodes: backplanes first (`0..planes`), then one block of `n` NICs
    /// per plane.
    ///
    /// # Panics
    /// Panics if the component is out of range (node id ≥ `n`, or a
    /// network id ≥ `planes`).
    #[must_use]
    pub fn index_k(self, n: usize, planes: u8) -> usize {
        let k = planes as usize;
        match self {
            Component::Backplane(net) => {
                assert!(net < planes, "network id {net} out of range for K={planes}");
                net as usize
            }
            Component::Nic { node, net } => {
                assert!(net < planes, "network id {net} out of range for K={planes}");
                assert!((node as usize) < n, "node {node} out of range for n={n}");
                k + net as usize * n + node as usize
            }
        }
    }

    /// Inverse of [`Component::index`].
    ///
    /// # Panics
    /// Panics if `idx ≥ 2n + 2`.
    #[must_use]
    pub fn from_index(idx: usize, n: usize) -> Self {
        Component::from_index_k(idx, n, 2)
    }

    /// Inverse of [`Component::index_k`].
    ///
    /// # Panics
    /// Panics if `idx ≥ planes·n + planes`; see
    /// [`Component::try_from_index_k`] for the non-panicking form.
    #[must_use]
    pub fn from_index_k(idx: usize, n: usize, planes: u8) -> Self {
        match Component::try_from_index_k(idx, n, planes) {
            Some(c) => c,
            None => panic!("component index {idx} out of range for n={n}, K={planes}"),
        }
    }

    /// Non-panicking inverse of [`Component::index_k`]: `None` when `idx`
    /// is at or beyond the `planes·n + planes` universe.
    #[must_use]
    pub fn try_from_index_k(idx: usize, n: usize, planes: u8) -> Option<Self> {
        let k = planes as usize;
        if idx >= k * n + k {
            return None;
        }
        Some(if idx < k {
            Component::Backplane(idx as u8)
        } else {
            let rel = idx - k;
            Component::Nic {
                node: (rel % n) as u32,
                net: (rel / n) as u8,
            }
        })
    }

    /// Whether this component is network infrastructure shared by all nodes
    /// (a backplane) rather than a per-node NIC.
    #[must_use]
    pub fn is_backplane(self) -> bool {
        matches!(self, Component::Backplane(_))
    }
}

/// A set of failed components, stored as a 256-bit inline bitset.
///
/// Sized for clusters up to [`MAX_NODES`] nodes; the Monte-Carlo inner loop
/// ([`crate::montecarlo`]) manipulates these sets millions of times per
/// second, so the representation is allocation-free and `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FailureSet {
    words: [u64; 4],
}

impl FailureSet {
    /// The empty failure set (everything operational).
    #[must_use]
    pub const fn new() -> Self {
        FailureSet { words: [0; 4] }
    }

    /// Builds a failure set from component indices.
    ///
    /// # Panics
    /// Panics if any index is ≥ 256.
    #[must_use]
    pub fn from_indices(indices: &[usize]) -> Self {
        let mut s = FailureSet::new();
        for &i in indices {
            s.insert(i);
        }
        s
    }

    /// Builds a failure set from typed components in a cluster of `n` nodes.
    #[must_use]
    pub fn from_components(components: &[Component], n: usize) -> Self {
        let mut s = FailureSet::new();
        for &c in components {
            s.insert(c.index(n));
        }
        s
    }

    /// Marks component `idx` as failed.
    ///
    /// # Panics
    /// Panics if `idx ≥ 256`.
    pub fn insert(&mut self, idx: usize) {
        assert!(idx < 256, "component index {idx} exceeds bitset capacity");
        self.words[idx / 64] |= 1u64 << (idx % 64);
    }

    /// Marks component `idx` as operational again.
    pub fn remove(&mut self, idx: usize) {
        if idx < 256 {
            self.words[idx / 64] &= !(1u64 << (idx % 64));
        }
    }

    /// Whether component `idx` has failed.
    #[must_use]
    pub fn contains(&self, idx: usize) -> bool {
        idx < 256 && self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Number of failed components.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no component has failed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Clears the set.
    pub fn clear(&mut self) {
        self.words = [0; 4];
    }

    /// Iterates over the failed component indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip_all_components() {
        let n = 9;
        for idx in 0..2 * n + 2 {
            let c = Component::from_index(idx, n);
            assert_eq!(c.index(n), idx);
        }
    }

    #[test]
    fn index_layout_matches_doc() {
        let n = 5;
        assert_eq!(Component::Backplane(0).index(n), 0);
        assert_eq!(Component::Backplane(1).index(n), 1);
        assert_eq!(Component::Nic { node: 0, net: 0 }.index(n), 2);
        assert_eq!(Component::Nic { node: 4, net: 0 }.index(n), 6);
        assert_eq!(Component::Nic { node: 0, net: 1 }.index(n), 7);
        assert_eq!(Component::Nic { node: 4, net: 1 }.index(n), 11);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_out_of_range_panics() {
        let _ = Component::Nic { node: 5, net: 0 }.index(5);
    }

    #[test]
    fn k_plane_index_roundtrip_and_layout() {
        for planes in 2u8..=5 {
            let n = 7;
            let k = planes as usize;
            for idx in 0..k * n + k {
                let c = Component::from_index_k(idx, n, planes);
                assert_eq!(c.index_k(n, planes), idx, "K={planes} idx={idx}");
            }
            // Backplanes lead, then plane-major NIC blocks.
            assert_eq!(Component::Backplane(planes - 1).index_k(n, planes), k - 1);
            assert_eq!(Component::Nic { node: 0, net: 0 }.index_k(n, planes), k);
            assert_eq!(
                Component::Nic {
                    node: (n - 1) as u32,
                    net: planes - 1
                }
                .index_k(n, planes),
                k * n + k - 1
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range for K=3")]
    fn net_out_of_range_for_k_panics() {
        let _ = Component::Nic { node: 0, net: 3 }.index_k(4, 3);
    }

    #[test]
    fn try_from_index_boundary_is_none() {
        for planes in 2u8..=4 {
            let n = 6;
            let k = planes as usize;
            let m = k * n + k;
            assert_eq!(
                Component::try_from_index_k(m - 1, n, planes),
                Some(Component::Nic {
                    node: (n - 1) as u32,
                    net: planes - 1
                })
            );
            assert_eq!(Component::try_from_index_k(m, n, planes), None);
            assert_eq!(Component::try_from_index_k(m + 1, n, planes), None);
        }
    }

    #[test]
    #[should_panic(expected = "component index 14 out of range for n=6, K=2")]
    fn from_index_boundary_panics_with_the_historical_message() {
        let _ = Component::from_index_k(14, 6, 2);
    }

    #[test]
    fn failure_set_insert_remove_contains() {
        let mut s = FailureSet::new();
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(255);
        assert_eq!(s.len(), 4);
        assert!(s.contains(63) && s.contains(64) && s.contains(255));
        assert!(!s.contains(1));
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn iter_yields_sorted_indices() {
        let s = FailureSet::from_indices(&[200, 3, 77, 0]);
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 3, 77, 200]);
    }

    #[test]
    fn from_components_matches_manual_indices() {
        let n = 4;
        let s = FailureSet::from_components(
            &[Component::Backplane(1), Component::Nic { node: 2, net: 1 }],
            n,
        );
        assert!(s.contains(1));
        assert!(s.contains(2 + n + 2));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn backplane_classification() {
        assert!(Component::Backplane(0).is_backplane());
        assert!(!Component::Nic { node: 0, net: 0 }.is_backplane());
    }

    #[test]
    fn clear_empties() {
        let mut s = FailureSet::from_indices(&[1, 2, 3]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }
}
