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
//! * [`MetricsRegistry`] — named counters, gauges (high-water marks) and
//!   histograms over `BTreeMap`s, so reports are deterministic
//!   ([`registry`]).
//! * [`Span`] — manual-clock timers: sim-time for in-world spans,
//!   wall-clock only for engine profiling ([`span`]).
//! * [`Profiler`] / [`NullProfiler`] / [`WallProfiler`] — the hook hot
//!   paths accept; with the null profiler installed the instrumented
//!   code is observationally identical to un-instrumented code, which is
//!   what keeps the committed artifacts byte-stable ([`profile`]).
//! * [`FlightRecorder`] / [`TraceRecord`] — the causal flight recorder:
//!   a bounded ring of sim-time trace records where each record can name
//!   the record that caused it, merged across shards bit-identically at
//!   any thread count ([`flight`]); [`causal`] walks the cause chains
//!   back into per-failover post-mortems and [`to_perfetto`] renders the
//!   merged timeline as Chrome `trace_event` JSON.
//! * [`ObsArtifact`] — the versioned `drs-bench-observability/v2`
//!   serializer in the same deterministic hand-rolled JSON style as the
//!   other committed artifacts ([`artifact`]), built on the shared
//!   artifact JSON dialect ([`jsonfmt`]) every committed `BENCH_*.json`
//!   writer uses.
//! * [`rng`] — not observability, but this is the crate every other one
//!   already depends on: the SplitMix64 mixer and xoshiro256++ generator
//!   behind every seed derivation and random draw in the tree.
//!
//! # The clock rule
//!
//! Committed artifacts must be byte-reproducible, so only *simulation*
//! time may reach them. Wall-clock durations ([`WallProfiler`]) exist
//! for humans profiling the engine and stay in console output. [`Span`]
//! enforces the split mechanically: it has no clock of its own, so every
//! reading is injected at the call site where reviewers can see which
//! clock it is.
//!
//! ```
//! use drs_obs::{Histogram, MetricsRegistry, Span};
//!
//! // An in-world span, clocked by simulation time.
//! let span = Span::begin(1_000_000); // t = 1 ms sim-time
//! let mut registry = MetricsRegistry::new();
//! registry.record("failover_detect_ns", span.elapsed_ns(1_450_000));
//!
//! // Worker registries merge deterministically.
//! let mut other = MetricsRegistry::new();
//! other.record("failover_detect_ns", 125_000);
//! registry.merge(&other);
//! let h: &Histogram = registry.histogram("failover_detect_ns").unwrap();
//! assert_eq!(h.count(), 2);
//! assert_eq!(h.max(), Some(450_000));
//! ```

pub mod artifact;
pub mod causal;
pub mod flight;
pub mod hist;
pub mod jsonfmt;
pub mod profile;
pub mod registry;
pub mod rng;
pub mod span;

pub use artifact::{Field, FieldValue, ObsArtifact, Row, Section, SCHEMA};
pub use causal::{build_post_mortems, Decomposition, PostMortem, PostMortemReport};
pub use flight::{to_perfetto, EventRef, FlightLog, FlightRecorder, TraceKind, TraceRecord};
pub use hist::{Histogram, HistogramSummary};
pub use profile::{NullProfiler, Profiler, WallProfiler};
pub use registry::MetricsRegistry;
pub use span::Span;
