//! Identifier newtypes for the simulated cluster.

use std::fmt;

/// Index of a server host in the cluster (`0..n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The host index as a `usize` (for indexing host tables).
    #[must_use]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One of the cluster's `K ≥ 2` redundant network planes.
///
/// The paper's deployed cluster is exactly two non-meshed backplanes; this
/// used to be a two-variant enum. It is now a dense plane index so a
/// scenario can carry any redundancy degree `K` (see `drs-sim`'s
/// `ClusterSpec::planes`), with the paper's networks as
/// the named constants [`NetId::A`] (plane 0, the primary) and [`NetId::B`]
/// (plane 1). Plane order is meaningful everywhere: default routes start on
/// the primary, and failover walks planes in ascending index order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u8);

impl NetId {
    /// The primary network plane (all default routes start here).
    pub const A: NetId = NetId(0);

    /// The paper's redundant network: plane 1.
    pub const B: NetId = NetId(1);

    /// The planes of a `K`-plane cluster, primary first.
    pub fn planes(k: u8) -> impl Iterator<Item = NetId> {
        (0..k).map(NetId)
    }

    /// Dense index (A = 0, B = 1, …) for vector-backed per-plane state.
    #[must_use]
    pub fn idx(self) -> usize {
        self.0 as usize
    }

    /// Inverse of [`NetId::idx`].
    ///
    /// # Panics
    /// Panics if `i` exceeds the `u8` plane-index range.
    #[must_use]
    pub fn from_idx(i: usize) -> NetId {
        assert!(i <= u8::MAX as usize, "network index {i} out of range");
        NetId(i as u8)
    }
}

impl fmt::Debug for NetId {
    /// Single-letter plane names (`A`, `B`, `C`, …) so debug output — and
    /// the committed trace artifacts that embed `{:?}` of fault components
    /// — keeps the paper's two-network spelling at K = 2.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 26 {
            write!(f, "{}", (b'A' + self.0) as char)
        } else {
            write!(f, "P{}", self.0)
        }
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 26 {
            write!(f, "net{}", (b'A' + self.0) as char)
        } else {
            write!(f, "net{}", self.0)
        }
    }
}

/// Identifier of one application-level flow (one request/response exchange).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowId(pub u64);

impl FlowId {
    /// The flow index as a `usize` (for indexing the flow table).
    #[must_use]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_planes_are_the_first_two() {
        assert_eq!(NetId::A, NetId(0));
        assert_eq!(NetId::B, NetId(1));
        assert!(NetId::A < NetId::B);
    }

    #[test]
    fn planes_iterates_in_ascending_order() {
        let four: Vec<NetId> = NetId::planes(4).collect();
        assert_eq!(four, vec![NetId(0), NetId(1), NetId(2), NetId(3)]);
        assert_eq!(
            NetId::planes(2).collect::<Vec<_>>(),
            vec![NetId::A, NetId::B]
        );
        assert_eq!(NetId::planes(0).count(), 0);
    }

    #[test]
    fn net_idx_roundtrip() {
        for net in NetId::planes(8) {
            assert_eq!(NetId::from_idx(net.idx()), net);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_net_idx_panics() {
        let _ = NetId::from_idx(256);
    }

    #[test]
    fn debug_keeps_the_paper_letters() {
        assert_eq!(format!("{:?}", NetId::A), "A");
        assert_eq!(format!("{:?}", NetId::B), "B");
        assert_eq!(format!("{:?}", NetId(2)), "C");
        assert_eq!(format!("{:?}", NetId(25)), "Z");
        assert_eq!(format!("{:?}", NetId(26)), "P26");
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(NetId::A.to_string(), "netA");
        assert_eq!(NetId::B.to_string(), "netB");
        assert_eq!(NetId(2).to_string(), "netC");
        assert_eq!(NetId(200).to_string(), "net200");
        assert_eq!(FlowId(9).to_string(), "flow9");
    }
}
