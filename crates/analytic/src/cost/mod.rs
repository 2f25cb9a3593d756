//! The DRS proactive-cost trade-off (the paper's Figure 1).
//!
//! *"The DRS's proactive monitoring of network links comes at a cost of
//! network bandwidth. To find errors before they effect network
//! communication, the links must be checked frequently. … As the number
//! of nodes increase, the bandwidth required to support the frequent
//! checks likewise increases."*
//!
//! [`model`] derives the relationship in closed form: with `N` hosts each
//! probing `N−1` peers on every network plane, one probe sweep puts
//! `2·N·(N−1)` echo frames (request + reply) of `L` bytes on each shared
//! segment, so a bandwidth budget `β` of a `B` bit/s network bounds the
//! sweep period — and therefore the error-resolution time — from below by
//! `T(N) = 2·N·(N−1)·L·8 / (β·B)`. The per-segment bound is independent
//! of the redundancy degree `K` (each plane carries only its own probes).
//!
//! [`mod@figure1`] sweeps that model over the paper's budgets (5 %, 10 %,
//! 15 %, 25 % of 100 Mb/s); `drs_bench::probe_cost` *measures* the same
//! quantities on the packet-level simulator with real daemons, closing
//! the loop between formula and implementation. [`planner`] joins the
//! model with Equation 1 into a feasible cluster-size window.
//!
//! Beyond bandwidth, [`equipment`] prices the *hardware* a topology buys
//! its redundancy with (switches, ports, cables) — the capital axis of
//! the survivability-vs-cost frontier in the topology-zoo study, next to
//! the survivability ([`crate::topo`]) it is plotted against.

pub mod equipment;
pub mod figure1;
pub mod model;
pub mod planner;

pub use equipment::{cost_units, EquipmentCount};
pub use figure1::{figure1, CostSeries, PAPER_BUDGETS};
pub use model::ProbeCostModel;
pub use planner::{plan_cluster, ClusterPlan, PlanningRequirement};
