//! Survivability mathematics for the Dynamic Routing System (DRS) reproduction.
//!
//! This crate implements the analytical side of *"Network Survivability
//! Simulation of a Commercially Deployed Dynamic Routing System Protocol"*
//! (IPDPS 2000 Workshops):
//!
//! * the **component model**: a cluster of `N` nodes, each with one NIC
//!   per network plane, plus the backplanes themselves — the paper's two
//!   planes give `2N + 2` components, and the model generalizes to
//!   `K·N + K` for a `K`-plane redundancy layer — and [`FailureModel`],
//!   the four-verb interface (fail, restore, reset, holds) through which
//!   the counting core sees any universe ([`components`]),
//! * **one counting core**: one delta-updated, unrankable, block-parallel
//!   subset walk ([`enumerate`]) and one `f`-subset sampler and
//!   Monte-Carlo loop ([`montecarlo`], the paper's validation simulation;
//!   its convergence study, Figure 3, is [`convergence`]), written once
//!   against [`FailureModel`],
//! * **two predicates** that plug into it, kept as separate
//!   implementations so each can be the other's oracle: the bitmask DRS
//!   predicate over a K-plane cluster — can a pair of servers (or every
//!   pair) still communicate, directly on a shared network or relayed
//!   through a one-hop gateway node? ([`connectivity`]) — and searched,
//!   certificate-cached reachability over arbitrary [`drs_topology::Topology`] graphs
//!   (Fat-Tree, BCube, DCell, …), of which the K-plane cluster is the
//!   degenerate case, reproduced count-for-count and draw-for-draw
//!   ([`topo`]),
//! * **Equation 1**: the exact closed-form probability of success
//!   `P\[S\](N, f) = F(N, f) / C(2N+2, f)` conditioned on exactly `f` failures
//!   ([`exact`]), and a **symmetry-reduced orbit counter** that collapses
//!   the subset walk to polynomially many weighted equivalence classes,
//!   extending bit-exact ground truth to the full node range ([`orbit`]) —
//!   the two oracles that share no code with the core,
//!   plus the all-pairs closed form ([`allpairs`]),
//! * a **parallel sweep engine** fanning `(N, f)` grids of
//!   closed-form/orbit/enumerated cells across worker threads with
//!   deterministic seeds and a machine-readable JSON artifact ([`sweep`]),
//! * the **threshold finder** for the `P\[S\] > 0.99` milestones
//!   ([`thresholds`]),
//! * the paper's **`q^f` multiple-failure decay model** ([`qmodel`]),
//! * the **proactive-cost model** behind Figure 1 — probe bandwidth
//!   against error-resolution time — with the cluster-size planner that
//!   joins it to Equation 1 and the equipment bill of a topology
//!   ([`cost`]),
//! * the **deployment failure study** behind the "13 % of hardware
//!   failures were network related" statistic, in closed form from
//!   calibrated component rates ([`fleet`]).
//!
//! # Quick start
//!
//! ```
//! use drs_analytic::exact::p_success;
//! use drs_analytic::thresholds::first_n_exceeding;
//!
//! // Equation 1: probability a server pair can communicate with N nodes and
//! // f simultaneous component failures.
//! let p = p_success(18, 2);
//! assert!(p > 0.99);
//!
//! // The paper's milestones: P\[S\] surpasses 0.99 at 18/32/45 nodes for f=2/3/4.
//! assert_eq!(first_n_exceeding(2, 0.99), Some(18));
//! assert_eq!(first_n_exceeding(3, 0.99), Some(32));
//! assert_eq!(first_n_exceeding(4, 0.99), Some(45));
//! ```

#![forbid(unsafe_code)]

pub mod allpairs;
pub mod binom;
pub mod components;
pub mod connectivity;
pub mod convergence;
pub mod cost;
pub mod enumerate;
pub mod exact;
pub mod fleet;
pub mod montecarlo;
pub mod orbit;
pub mod qmodel;
pub mod sweep;
pub mod thresholds;
pub mod topo;

pub use allpairs::{expected_disconnected_pairs, p_all_pairs};
pub use components::FailureModel;
pub use connectivity::{all_pairs_connected_k, pair_connected_k};
pub use exact::{disconnect_count, p_success, success_count};
pub use montecarlo::{MonteCarlo, MonteCarloEstimate};
pub use orbit::{orbit_p_success, orbit_pair_success};
pub use sweep::{run_sweep, SweepConfig, SweepResult};
pub use thresholds::first_n_exceeding;
pub use topo::{enumerate_pair_success_topo, enumerate_pair_success_topo_parallel, TopoMonteCarlo};
