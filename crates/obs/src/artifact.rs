//! The versioned `drs-bench-observability/v2` artifact.
//!
//! Same deterministic hand-rolled JSON discipline as the harness's
//! `drs-bench-sim-survivability/v1` serializer: fixed field order,
//! shortest-round-trip floats with integral values pinned to one decimal
//! and non-finite values as `null`, escaped strings, no JSON library.
//! The artifact is a list of named sections, each a list of rows with
//! named fields — wide enough for percentile tables, per-cell budget
//! accounting and event-count breakdowns without schema churn.
//!
//! `Missing` is a first-class field value precisely so summaries can
//! distinguish "no samples" (`null`) from a measured zero (`0`).

use crate::hist::Histogram;
use crate::jsonfmt::{finish, json_f64, json_string, preamble};

/// Schema tag written into every observability artifact.
pub const SCHEMA: &str = "drs-bench-observability/v2";

/// One field value in an artifact row.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An exact count.
    Count(u64),
    /// A real measurement; non-finite serializes as `null`.
    Real(f64),
    /// A short label.
    Text(String),
    /// A value the row could not produce (empty histogram, no samples) —
    /// serializes as `null`, never as a fake zero.
    Missing,
}

/// A named field.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Stable field name used as the JSON key.
    pub name: &'static str,
    /// The value.
    pub value: FieldValue,
}

/// One row of a section, e.g. one protocol or one `(n, budget)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Row identity, unique within its section.
    pub id: String,
    /// Named fields, serialized as a JSON object in this order.
    pub fields: Vec<Field>,
}

impl Row {
    /// An empty row.
    #[must_use]
    pub fn new(id: impl Into<String>) -> Self {
        Row {
            id: id.into(),
            fields: Vec::new(),
        }
    }

    /// Appends an exact count field (builder style).
    #[must_use]
    pub fn count(mut self, name: &'static str, v: u64) -> Self {
        self.fields.push(Field {
            name,
            value: FieldValue::Count(v),
        });
        self
    }

    /// Appends a real-valued field (builder style).
    #[must_use]
    pub fn real(mut self, name: &'static str, v: f64) -> Self {
        self.fields.push(Field {
            name,
            value: FieldValue::Real(v),
        });
        self
    }

    /// Appends a text field (builder style).
    #[must_use]
    pub fn text(mut self, name: &'static str, v: impl Into<String>) -> Self {
        self.fields.push(Field {
            name,
            value: FieldValue::Text(v.into()),
        });
        self
    }

    /// Appends an optional count: `None` serializes as `null`.
    #[must_use]
    pub fn opt_count(mut self, name: &'static str, v: Option<u64>) -> Self {
        self.fields.push(Field {
            name,
            value: v.map_or(FieldValue::Missing, FieldValue::Count),
        });
        self
    }

    /// Appends the standard histogram summary as eight fields:
    /// `count`, `mean_ns`, `min_ns`, `max_ns`, `p50_ns`, `p90_ns`,
    /// `p99_ns`, `p999_ns`. Empty histograms produce `count: 0` and
    /// `null` for everything else — the artifact-level face of the
    /// "no samples ≠ 0 ns" rule.
    #[must_use]
    pub fn hist(self, h: &Histogram) -> Self {
        let s = h.summary();
        let mut row = self.count("count", s.count);
        row.fields.push(Field {
            name: "mean_ns",
            value: s.mean.map_or(FieldValue::Missing, FieldValue::Real),
        });
        row.opt_count("min_ns", s.min)
            .opt_count("max_ns", s.max)
            .opt_count("p50_ns", s.p50)
            .opt_count("p90_ns", s.p90)
            .opt_count("p99_ns", s.p99)
            .opt_count("p999_ns", s.p999)
    }

    fn get(&self, name: &str) -> Option<&FieldValue> {
        self.fields
            .iter()
            .find(|f| f.name == name)
            .map(|f| &f.value)
    }

    /// The exact count stored under `name`; `None` when the field is
    /// absent, [`FieldValue::Missing`], or not a count.
    #[must_use]
    pub fn get_count(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(&FieldValue::Count(c)) => Some(c),
            _ => None,
        }
    }

    /// The real value stored under `name`; `None` when the field is
    /// absent, [`FieldValue::Missing`], or not a real.
    #[must_use]
    pub fn get_real(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(&FieldValue::Real(r)) => Some(r),
            _ => None,
        }
    }
}

/// A named group of rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Section name, e.g. `failover_latency`.
    pub name: String,
    /// Rows in a fixed, caller-chosen order.
    pub rows: Vec<Row>,
}

impl Section {
    /// An empty section.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Section {
            name: name.into(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }
}

/// The whole observability artifact of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsArtifact {
    /// The benchmark master seed the instrumented runs derived from.
    pub seed: u64,
    /// Sections in run order.
    pub sections: Vec<Section>,
}

impl ObsArtifact {
    /// An artifact with no sections yet.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ObsArtifact {
            seed,
            sections: Vec::new(),
        }
    }

    /// Appends one section.
    pub fn push(&mut self, section: Section) {
        self.sections.push(section);
    }

    /// The first section with this name, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Serializes to the `drs-bench-observability/v2` schema —
    /// byte-identical across runs, thread counts and machines for a
    /// fixed artifact.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_json_with_schema(SCHEMA)
    }

    /// Serializes the same section/row/field shape under a different
    /// schema tag — for sibling artifacts (e.g. the kernel benchmark's
    /// `drs-bench-kernel/v1`) that reuse this container format.
    #[must_use]
    pub fn to_json_with_schema(&self, schema: &str) -> String {
        let mut out = preamble(schema, self.seed, "sections", 4096);
        for (i, sec) in self.sections.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": {},\n", json_string(&sec.name)));
            out.push_str("      \"rows\": [\n");
            for (j, row) in sec.rows.iter().enumerate() {
                out.push_str("        {");
                out.push_str(&format!("\"id\": {}, ", json_string(&row.id)));
                out.push_str("\"fields\": {");
                for (k, f) in row.fields.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{}\": {}", f.name, json_field(&f.value)));
                }
                out.push_str(&format!(
                    "}}}}{}\n",
                    if j + 1 < sec.rows.len() { "," } else { "" }
                ));
            }
            out.push_str("      ]\n");
            out.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.sections.len() { "," } else { "" }
            ));
        }
        finish(&mut out);
        out
    }
}

fn json_field(v: &FieldValue) -> String {
    match v {
        FieldValue::Count(c) => c.to_string(),
        FieldValue::Real(r) => json_f64(*r),
        FieldValue::Text(s) => json_string(s),
        FieldValue::Missing => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ObsArtifact {
        let mut artifact = ObsArtifact::new(42);
        let mut hist = Histogram::new();
        hist.record(1_000);
        hist.record(3_000);
        let mut sec = Section::new("failover_latency");
        sec.push(Row::new("drs").text("protocol", "drs").hist(&hist));
        sec.push(
            Row::new("static")
                .text("protocol", "static")
                .hist(&Histogram::new()),
        );
        artifact.push(sec);
        let mut budget = Section::new("probe_overhead");
        budget.push(
            Row::new("n8_b5")
                .count("n", 8)
                .real("budget_frac", 0.05)
                .real("utilization", 0.049_993)
                .count("within_budget", 1),
        );
        artifact.push(budget);
        artifact
    }

    #[test]
    fn json_shape_is_stable() {
        let json = sample().to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains(&format!("\"schema\": \"{SCHEMA}\"")));
        assert!(json.contains("\"name\": \"failover_latency\""));
        assert!(json.contains("\"id\": \"drs\""));
        assert!(json.contains("\"count\": 2"));
        assert!(json.contains("\"budget_frac\": 0.05"));
        assert!(json.contains("\"within_budget\": 1"));
    }

    #[test]
    fn empty_histograms_serialize_null_not_zero() {
        let json = sample().to_json();
        // The static row: count 0 and null quantiles, never "p50_ns": 0.
        assert!(json.contains(
            "\"count\": 0, \"mean_ns\": null, \"min_ns\": null, \"max_ns\": null, \
             \"p50_ns\": null, \"p90_ns\": null, \"p99_ns\": null, \"p999_ns\": null"
        ));
    }

    #[test]
    fn json_is_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn floats_and_strings_follow_house_rules() {
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(0.125), "0.125");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{2}"), "\"\\u0002\"");
    }

    #[test]
    fn row_accessors_return_only_the_matching_kind() {
        let row = Row::new("r")
            .count("n", 8)
            .real("utilization", 0.25)
            .text("driver", "batched")
            .opt_count("p50_ns", None);
        assert_eq!(row.get_count("n"), Some(8));
        assert_eq!(row.get_real("utilization"), Some(0.25));
        // Wrong kind, `Missing` and absent fields are all `None`.
        assert_eq!(row.get_real("n"), None);
        assert_eq!(row.get_count("utilization"), None);
        assert_eq!(row.get_count("driver"), None);
        assert_eq!(row.get_count("p50_ns"), None);
        assert_eq!(row.get_real("p50_ns"), None);
        assert_eq!(row.get_count("absent"), None);
    }

    #[test]
    fn get_finds_sections_by_name() {
        let artifact = sample();
        assert!(artifact.get("probe_overhead").is_some());
        assert!(artifact.get("absent").is_none());
    }
}
