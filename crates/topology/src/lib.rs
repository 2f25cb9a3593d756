//! First-class topology graph layer for the DRS survivability study.
//!
//! The paper's cluster is two shared backplanes; PR 4 generalized that to
//! `K` disjoint planes. This crate removes the last structural assumption:
//! hosts, **switches and links are first-class failure components** in an
//! explicit graph, so the counting engines and the packet-level simulator
//! can run over arbitrary datacenter fabrics, not just parallel buses.
//!
//! * [`graph`] — the [`Topology`] model: `H` hosts, `S` switches, `L`
//!   point-to-point links, and the **component universe** the failure
//!   model draws from (switches first, then links, in generator order).
//! * [`generators`] — deterministic constructors for the topology zoo:
//!   the degenerate [`generators::kplane`] cluster (bit-compatible with
//!   the `K·n + K` component indexing of the analytic and sim layers),
//!   plus [`generators::fat_tree`], [`generators::bcube`] and
//!   [`generators::dcell`] from Couto et al.
//! * [`reach`] — the reachability predicates, one breadth-first search
//!   under two edge rules: [`Reachability::Transitive`] connectivity over
//!   the live subgraph for general fabrics, and the DRS
//!   [`Reachability::OneHostRelay`] specialization (direct shared segment,
//!   or a single gateway host) — provably equal to the transitive
//!   predicate at `K = 2`, stricter for `K ≥ 3`. A search can return its
//!   proof, a [`Certificate`] (the live path, or the failed cut), which
//!   decides every other failure set it covers without searching.
//! * [`limits`] — the one shared capacity validation (node, plane and
//!   256-component caps) every bitset-backed engine rejects oversized
//!   universes with, replacing the per-engine ad-hoc asserts.
//!
//! The crate is dependency-free; the analytic counting engines
//! (`drs_analytic::topo`) and the simulator bridge
//! (`drs_sim::topology::TopologySpec`) build on it.

#![forbid(unsafe_code)]

pub mod generators;
pub mod graph;
pub mod limits;
pub mod reach;

pub use graph::{ComponentSet, Link, TopoComponent, Topology};
pub use limits::{LimitError, MAX_COMPONENTS, MAX_NODES, MAX_PLANES};
pub use reach::{pair_connected, Certificate, ReachEngine, Reachability};
