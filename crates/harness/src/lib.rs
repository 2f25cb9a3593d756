//! Experiment harness for the DRS reproduction: one trial-orchestration
//! layer for every simulation study.
//!
//! PR 1 gave the analytic counters a single sweep engine; this crate does
//! the same for the discrete-event side. An [`Experiment`] names a grid of
//! trials, [`seed`] derives one SplitMix64 seed per trial (the same
//! discipline `analytic::sweep` uses for its cells), and the runner fans
//! trials across scoped worker threads ([`par`]) with results
//! bit-identical to the serial path. Trials record structured
//! [`events::TraceEvent`] logs and named metrics ([`drs_obs::Field`]s)
//! into [`TrialRecord`]s, which [`SimArtifact`] writes as the versioned
//! `drs-bench-sim-survivability/v1` JSON artifact ([`SCHEMA`]) through the
//! one artifact writer, [`drs_obs::artifact::write`] — the
//! simulation-side sibling of `BENCH_survivability.json`.
//!
//! The crate is deliberately domain-free — it knows nothing about
//! clusters, protocols, or fleets. `drs-baselines` runs its protocol
//! shootout through it, `drs-analytic` its parallel walks and sweeps
//! ([`par`], [`coord_seed`]), and `drs-bench` its end-to-end
//! survivability grid; see EXPERIMENTS.md for the trial lifecycle and
//! artifact schema.
//!
//! Traces are collected through a seal-once [`TrialTrace`]. The harness
//! takes no wall-clock readings: timing a run is `benchmark/`'s job.

#![forbid(unsafe_code)]

pub mod events;
pub mod experiment;
pub mod par;
pub mod seed;

pub use events::{TraceEvent, TraceEventKind, TrialTrace};
pub use experiment::{
    Experiment, ExperimentRecord, RunMode, SimArtifact, TrialCtx, TrialRecord, SCHEMA,
};
pub use seed::{coord_seed, mix64, stream_seed};
