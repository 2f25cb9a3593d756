//! Versioned JSON artifacts for simulation experiments.
//!
//! The shape follows the `BENCH_survivability.json` sweep artifact from
//! `analytic::sweep`: a schema tag, the master seed, and a flat list of
//! per-trial rows with deterministic field order and float formatting —
//! hand-rolled, with no dependence on a JSON library, so the committed
//! `BENCH_sim_survivability.json` is byte-reproducible on any machine.
//! Every trial row carries its derived seed, named metrics, and an
//! optional [`TraceEvent`] log.

use crate::events::TraceEvent;
use drs_obs::jsonfmt::{finish, json_f64, json_string, preamble};

/// Schema tag written into every artifact.
pub const SCHEMA: &str = "drs-bench-sim-survivability/v1";

/// One named measurement a trial produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// An exact event count.
    Count(u64),
    /// A real-valued measurement; non-finite values serialize as `null`.
    Real(f64),
    /// A measurement the trial could not produce (e.g. outage of a flow
    /// that never recovered) — serializes as `null`.
    Missing,
}

/// A named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Stable metric name used as the JSON key.
    pub name: &'static str,
    /// The measured value.
    pub value: MetricValue,
}

impl Metric {
    /// An exact count metric.
    #[must_use]
    pub fn count(name: &'static str, value: u64) -> Self {
        Metric {
            name,
            value: MetricValue::Count(value),
        }
    }

    /// A real-valued metric.
    #[must_use]
    pub fn real(name: &'static str, value: f64) -> Self {
        Metric {
            name,
            value: MetricValue::Real(value),
        }
    }

    /// A metric the trial could not produce.
    #[must_use]
    pub fn missing(name: &'static str) -> Self {
        Metric {
            name,
            value: MetricValue::Missing,
        }
    }
}

/// The artifact row for one completed trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Human-readable trial identity (scenario × protocol, `(n, f)` cell,
    /// replication index, …). Unique within its experiment.
    pub id: String,
    /// The derived per-trial seed the trial ran under.
    pub seed: u64,
    /// Named measurements, serialized as a JSON object in this order.
    pub metrics: Vec<Metric>,
    /// The trial's event trace (may be empty).
    pub events: Vec<TraceEvent>,
}

impl TrialRecord {
    /// An empty record for a trial.
    #[must_use]
    pub fn new(id: impl Into<String>, seed: u64) -> Self {
        TrialRecord {
            id: id.into(),
            seed,
            metrics: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Appends one metric and returns `self` (builder style).
    #[must_use]
    pub fn metric(mut self, m: Metric) -> Self {
        self.metrics.push(m);
        self
    }

    /// Attaches an event trace and returns `self` (builder style).
    ///
    /// The trace must already be sealed — sorted by timestamp, as
    /// [`crate::TrialTrace::seal`] produces — because the serializer
    /// writes events verbatim and a misordered committed artifact would
    /// silently change bytes between producers. Debug builds assert it.
    #[must_use]
    pub fn with_events(mut self, events: Vec<TraceEvent>) -> Self {
        debug_assert!(
            events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
            "trial {}: event trace must be sealed (time-sorted) before \
             serialization — build it in a TrialTrace and seal() it",
            self.id
        );
        self.events = events;
        self
    }
}

/// A completed experiment: its trials in trial order.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Experiment name ([`crate::Experiment::name`]).
    pub name: String,
    /// The experiment's master seed.
    pub master_seed: u64,
    /// Per-trial rows, in trial order.
    pub trials: Vec<TrialRecord>,
}

/// The whole artifact: every experiment of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimArtifact {
    /// The benchmark master seed the experiments derived theirs from.
    pub seed: u64,
    /// Experiment records, in run order.
    pub experiments: Vec<ExperimentRecord>,
}

impl SimArtifact {
    /// An artifact with no experiments yet.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SimArtifact {
            seed,
            experiments: Vec::new(),
        }
    }

    /// Appends one experiment record.
    pub fn push(&mut self, record: ExperimentRecord) {
        self.experiments.push(record);
    }

    /// The first experiment with this name, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&ExperimentRecord> {
        self.experiments.iter().find(|e| e.name == name)
    }

    /// Serializes to the `BENCH_sim_survivability.json` schema:
    /// deterministic field order, shortest-round-trip floats with
    /// non-finite values as `null`, and escaped strings — byte-identical
    /// across runs, thread counts and machines for a fixed artifact.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = preamble(SCHEMA, self.seed, "experiments", 4096);
        for (i, exp) in self.experiments.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": {},\n", json_string(&exp.name)));
            out.push_str(&format!("      \"master_seed\": {},\n", exp.master_seed));
            out.push_str("      \"trials\": [\n");
            for (j, t) in exp.trials.iter().enumerate() {
                out.push_str("        {");
                out.push_str(&format!("\"id\": {}, ", json_string(&t.id)));
                out.push_str(&format!("\"seed\": {}, ", t.seed));
                out.push_str("\"metrics\": {");
                for (k, m) in t.metrics.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{}\": {}", m.name, json_metric(m.value)));
                }
                out.push_str("}, \"events\": [");
                for (k, e) in t.events.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!(
                        "{{\"at_ns\": {}, \"kind\": \"{}\", \"detail\": {}}}",
                        e.at_ns,
                        e.kind.label(),
                        json_string(&e.detail)
                    ));
                }
                out.push_str(&format!(
                    "]}}{}\n",
                    if j + 1 < exp.trials.len() { "," } else { "" }
                ));
            }
            out.push_str("      ]\n");
            out.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.experiments.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        finish(&mut out);
        out
    }
}

fn json_metric(v: MetricValue) -> String {
    match v {
        MetricValue::Count(c) => c.to_string(),
        MetricValue::Real(r) => json_f64(r),
        MetricValue::Missing => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::TraceEventKind;

    fn sample() -> SimArtifact {
        let mut artifact = SimArtifact::new(42);
        artifact.push(ExperimentRecord {
            name: "shootout".to_string(),
            master_seed: 42,
            trials: vec![
                TrialRecord::new("hub/drs", 7)
                    .metric(Metric::count("sent", 40))
                    .metric(Metric::real("p", 0.5))
                    .metric(Metric::missing("outage_ns"))
                    .with_events(vec![TraceEvent::new(
                        5,
                        TraceEventKind::FaultInjected,
                        "Hub(A)",
                    )]),
                TrialRecord::new("hub/rip", 8),
            ],
        });
        artifact
    }

    #[test]
    fn json_shape_is_stable() {
        let json = sample().to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains(&format!("\"schema\": \"{SCHEMA}\"")));
        assert!(json.contains("\"id\": \"hub/drs\""));
        assert!(json.contains("\"sent\": 40"));
        assert!(json.contains("\"p\": 0.5"));
        assert!(json.contains("\"outage_ns\": null"));
        assert!(json.contains("\"kind\": \"fault_injected\""));
        // Empty trial serializes with empty metrics and events.
        assert!(json.contains("\"metrics\": {}, \"events\": []"));
    }

    #[test]
    fn json_is_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn non_finite_reals_become_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(0.125), "0.125");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn get_finds_experiments_by_name() {
        let artifact = sample();
        assert!(artifact.get("shootout").is_some());
        assert!(artifact.get("absent").is_none());
    }
}
