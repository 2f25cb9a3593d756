//! Experiment harness for the DRS reproduction: one trial-orchestration
//! layer for every simulation study.
//!
//! An [`Experiment`] names a grid of trials, [`seed`] derives one
//! SplitMix64 seed per trial (the same discipline `analytic::sweep` uses
//! for its cells), and the runner fans trials across scoped worker
//! threads ([`drs_obs::par`]) with results bit-identical to the serial
//! path.
//!
//! The crate is deliberately domain-free — it knows nothing about
//! clusters, protocols, fleets or artifacts, and depends on `drs-obs`
//! alone, whose `par` and `rng` modules its runner and seeds build on.
//! `drs-baselines` runs its protocol shootout through it, `drs-analytic`
//! derives its sweep and sampler seeds with it ([`coord_seed`],
//! [`stream_seed`]), and `drs-bench` its end-to-end survivability grid,
//! whose trial records and events it writes itself; see EXPERIMENTS.md
//! for the trial lifecycle. The harness takes no wall-clock readings:
//! timing a run is `benchmark/`'s job.

#![forbid(unsafe_code)]

pub mod experiment;
pub mod seed;

pub use experiment::{Experiment, RunMode, TrialCtx};
pub use seed::{coord_seed, mix64, stream_seed};
