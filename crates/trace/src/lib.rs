//! The deployment motivation study, reproduced synthetically.
//!
//! The paper's opening claim: *"We evaluated one hundred deployed systems
//! and found that over a one-year period, thirteen percent of the
//! hardware failures were network related"* — NICs, hubs, cabling. That
//! field data is proprietary and lost to time, so this crate builds the
//! closest synthetic equivalent (documented in DESIGN.md §4):
//!
//! * a **component inventory** per server (disk, memory, PSU, fan, CPU,
//!   motherboard, two NICs, two cables) plus two shared hubs per cluster,
//!   with per-class annual failure rates calibrated from late-1990s
//!   availability folklore so that the *expected* network share is ≈13 %
//!   ([`components`]);
//! * a **Poisson trace generator** producing one-year failure logs for a
//!   100-server fleet ([`fleet`]);
//! * the **classification pipeline** that computes the network-related
//!   fraction from a trace, and the **masking analysis** estimating how
//!   many of those network failures DRS would have hidden from
//!   applications ([`study`]).
//!
//! The headline number is a *model output* here, not field data — the
//! point is to exercise the same pipeline and show the statistic's
//! seed-to-seed spread.

pub mod components;
pub mod fleet;
pub mod study;

pub use components::{ComponentClass, FailureRates};
pub use fleet::{generate_trace, FailureRecord, FleetSpec};
pub use study::{
    availability_gain, fmt_fraction_pct, masking_analysis, network_fraction, replicate_study,
    AvailabilityReport, MaskingReport, StudySummary,
};
