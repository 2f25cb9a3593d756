//! The component model of the paper's survivability analysis, and the
//! one interface every counting engine is written against.
//!
//! A cluster of `N` nodes with `K` network planes contains exactly
//! `K·N + K` failable components: the `K` network backplanes (hubs) and,
//! for every node, one NIC per plane. The paper's cluster has `K = 2`
//! (networks A and B), giving the familiar `2N + 2` universe. The
//! analysis conditions on exactly `f` of these components having failed,
//! with every `f`-subset equally likely.
//!
//! Components are indexed densely so that failure sets can be stored in a
//! flat bitset ([`drs_topology::ComponentSet`]). At `K = 2`:
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
//! `i`'s NIC on plane `p`). The analytic spelling of this layout is
//! [`crate::connectivity::ClusterState::fail_index`], which maps backplane
//! `p` to bit 127 of plane `p`'s `u128` word and node `i`'s NIC on plane
//! `p` to bit `i` of the same word; the simulator's
//! (`drs_sim::fault`) and the graph layer's
//! ([`drs_topology::generators::kplane`]) are locked to it by the
//! workspace's cross-validation tests. A general [`drs_topology::Topology`]
//! orders its universe switches first, then links.
//!
//! Whatever the universe, the subset walk ([`crate::enumerate`]), the
//! `f`-subset sampler and the Monte-Carlo loop ([`crate::montecarlo`])
//! see it only through [`FailureModel`]. Two models plug in: the bitmask
//! [`crate::connectivity::KPlane`] and the graph-search
//! [`crate::topo::GraphModel`].

/// Maximum number of nodes the bitset-backed engines support
/// (`2N + 2 ≤ 256`). The paper evaluates N < 64; the closed form in
/// [`crate::exact`] has no such limit. Shared with every other
/// bitset-backed engine via [`drs_topology::limits`].
pub use drs_topology::limits::MAX_NODES;

/// A yes/no question about a system whose components `0..universe()`
/// fail and recover one at a time — everything the counting core needs to
/// know about what it counts.
pub trait FailureModel {
    /// Number of failable components.
    fn universe(&self) -> usize;

    /// Marks component `idx` as failed.
    fn fail(&mut self, idx: usize);

    /// Marks component `idx` as operational again — the inverse of
    /// [`FailureModel::fail`], which lets the subset walk step between
    /// adjacent combinations without rebuilding the model.
    fn restore(&mut self, idx: usize);

    /// Marks every component as operational — how the Monte-Carlo loop
    /// returns to a clean model between draws.
    fn reset(&mut self);

    /// Whether the model's question holds under the current failures
    /// (`&mut` so a predicate may keep scratch space).
    fn holds(&mut self) -> bool;
}
