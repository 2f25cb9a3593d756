//! Unified observability for the DRS reproduction.
//!
//! The paper's two headline quantities — error-resolution time under a
//! probing-bandwidth budget (Figure 1) and conditional survivability
//! (Equation 1 / Figure 2) — are *measured* claims, so the repo needs
//! one instrumentation vocabulary instead of the fragments that grew in
//! `core::metrics`, `sim::stats` and the harness. This crate is that
//! vocabulary, built on the standard library alone:
//!
//! * [`Histogram`] — log2-bucketed `u64` samples with exact
//!   `count/sum/min/max` and `p50/p90/p99/p999` *upper bounds*; merges
//!   across worker threads are exact and order-independent ([`hist`]).
//! * [`FlightRecorder`] / [`TraceRecord`] — the causal flight recorder:
//!   a bounded ring of sim-time trace records where each record can name
//!   the record that caused it, drained in `(time, seq, sub)` order
//!   ([`flight`]); [`causal`] walks the cause chains back into
//!   per-failover post-mortems and [`to_perfetto`] renders the timeline
//!   as Chrome `trace_event` JSON.
//! * [`artifact::write`] — the one streaming writer every committed
//!   `BENCH_*.json` is laid out by: each artifact writes the rows it
//!   holds straight into one buffer, with its tokens spelled by the
//!   shared JSON dialect ([`jsonfmt`]); [`ObsArtifact`] — sections of
//!   [`Row`]s of scalar [`FieldValue`]s — is its
//!   `drs-bench-observability/v4` section form ([`artifact`]).
//! * [`rng`] — not observability, but this is the crate every other one
//!   already depends on: the SplitMix64 mixer and xoshiro256++ generator
//!   behind every seed derivation and random draw in the tree. For the
//!   same reason [`Fnv1a`] lives here: the one state fingerprint the
//!   committed digests are computed with ([`fnv`]); and so does [`par`],
//!   the one thread fan-out — an order-preserving map on scoped threads,
//!   and its ordered text form, which [`to_perfetto`] writes through.
//!
//! # The clock rule
//!
//! Committed artifacts must be byte-reproducible, so only *simulation*
//! time may reach them. Nothing in this crate reads a clock: a
//! [`Histogram`] holds whatever `u64` samples the call site hands it, and
//! in-world durations are differences of sim-time instants
//! (`SimTime::since` in `drs-core`, saturating), taken where reviewers can
//! see which clock it is. Wall-clock timing is `benchmark/`'s job and
//! stays in its git-ignored output.
//!
//! ```
//! use drs_obs::Histogram;
//!
//! // An in-world duration: two sim-time instants, in nanoseconds.
//! let (failed_at, detected_at) = (1_000_000_u64, 1_450_000_u64);
//! let mut detect = Histogram::new();
//! detect.record(detected_at.saturating_sub(failed_at));
//!
//! // Worker histograms merge exactly, in any order.
//! let mut other = Histogram::new();
//! other.record(125_000);
//! detect.merge(&other);
//! assert_eq!(detect.count(), 2);
//! assert_eq!(detect.max(), Some(450_000));
//! ```

#![forbid(unsafe_code)]

pub mod artifact;
pub mod causal;
pub mod flight;
pub mod fnv;
pub mod hist;
pub mod jsonfmt;
pub mod par;
pub mod rng;

pub use artifact::{Field, FieldValue, ObsArtifact, Row, Section, SCHEMA};
pub use causal::{build_post_mortems, Decomposition, PostMortem, PostMortemReport};
pub use flight::{to_perfetto, EventRef, FlightLog, FlightRecorder, TraceKind, TraceRecord};
pub use fnv::Fnv1a;
pub use hist::{Histogram, HistogramSummary};
