//! # drs — reproduction of the DRS network-survivability study
//!
//! Facade crate re-exporting the whole workspace: the Dynamic Routing
//! System protocol ([`core`]), the discrete-event cluster simulator it
//! runs on ([`sim`]), the survivability mathematics with the
//! proactive-cost model and the deployment failure-trace study
//! ([`analytic`]), the reactive baselines ([`baselines`]), the
//! experiment harness that orchestrates simulation trials ([`harness`]),
//! the unified observability layer — metric registries, spans and
//! the observability artifact ([`obs`]) — the first-class topology
//! graph layer with its datacenter generators and reachability engines
//! ([`topology`]), and the non-DES protocol backends — live loopback
//! UDP and golden-trace replay over the `DrsIo` boundary ([`io`]).
//!
//! See the repository README for a guided tour and `DESIGN.md` for the
//! paper-to-module map.

pub use drs_analytic as analytic;
pub use drs_baselines as baselines;
pub use drs_core as core;
pub use drs_harness as harness;
pub use drs_io as io;
pub use drs_obs as obs;
pub use drs_sim as sim;
pub use drs_topology as topology;
