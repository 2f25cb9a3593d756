//! The one artifact writer, and the `drs-bench-observability/v3` artifact.
//!
//! Every committed `BENCH_*.json` is laid out by [`write()`]: a schema tag,
//! the master seed, and one top-level list with one item per line, built
//! from one value type ([`FieldValue`]). The files use three shapes of
//! item, all written by the same rule:
//!
//! * flat `cells` rows — the analytic sweep, the K-plane and topology
//!   sweeps: one inline object per line;
//! * named `sections` of `{"id", "fields"}` rows — [`ObsArtifact`], also
//!   behind the kernel, flight and workload artifacts;
//! * named `experiments` whose trial rows nest a `metrics` object and an
//!   `events` list — the harness's simulation artifact.
//!
//! The rule: an object that holds a [`FieldValue::Rows`] list is written
//! one field per line and its rows one per line, indented two spaces per
//! level; every other object or list is written inline. Tokens follow
//! [`crate::jsonfmt`]. No JSON library is involved, so the bytes are the
//! same on every machine, thread count and compiler.
//!
//! `Missing` is a first-class field value precisely so summaries can
//! distinguish "no samples" (`null`) from a measured zero (`0`).

use std::fmt::Write as _;

use crate::hist::Histogram;
use crate::jsonfmt::{push_f64, push_string};

/// Schema tag written into every observability artifact.
pub const SCHEMA: &str = "drs-bench-observability/v3";

/// One field value in an artifact row.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An exact count.
    Count(u64),
    /// An exact count too wide for a double (subset and success counts),
    /// written as a quoted decimal string so no parser rounds it.
    Decimal(u128),
    /// A real measurement; non-finite serializes as `null`.
    Real(f64),
    /// A short label.
    Text(String),
    /// A value the row could not produce (empty histogram, no samples) —
    /// serializes as `null`, never as a fake zero.
    Missing,
    /// A nested object, written inline.
    Object(Vec<Field>),
    /// A list of objects, written inline.
    List(Vec<Vec<Field>>),
    /// A list of objects written one per line; the object holding it is
    /// written one field per line.
    Rows(Vec<Vec<Field>>),
}

/// `From` for each Rust type that maps onto one variant, so call sites
/// write `Field::new("n", n)`.
macro_rules! from_value {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::$variant(v)
            }
        }
    )*};
}

from_value!(u64 => Count, u128 => Decimal, f64 => Real, String => Text, Vec<Field> => Object);

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Text(v.to_string())
    }
}

/// `None` is [`FieldValue::Missing`].
impl<T: Into<FieldValue>> From<Option<T>> for FieldValue {
    fn from(v: Option<T>) -> Self {
        v.map_or(FieldValue::Missing, Into::into)
    }
}

/// A named field.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Stable field name used as the JSON key.
    pub name: &'static str,
    /// The value.
    pub value: FieldValue,
}

impl Field {
    /// A field from anything that converts to a [`FieldValue`].
    #[must_use]
    pub fn new(name: &'static str, value: impl Into<FieldValue>) -> Self {
        Field {
            name,
            value: value.into(),
        }
    }
}

/// Lays out one artifact: `{"schema", "seed", "<key>": [...]}` with one
/// item of `items` per line and the trailing newline every committed
/// artifact ends in.
#[must_use]
pub fn write(schema: &str, seed: u64, key: &'static str, items: Vec<Vec<Field>>) -> String {
    let top = [
        Field::new("schema", schema),
        Field::new("seed", seed),
        Field::new(key, FieldValue::Rows(items)),
    ];
    let mut out = String::with_capacity(4096);
    push_object(&mut out, &top, 0);
    out.push('\n');
    out
}

fn indent(out: &mut String, depth: usize) {
    out.extend(std::iter::repeat_n(' ', 2 * depth));
}

fn push_object(out: &mut String, fields: &[Field], depth: usize) {
    let multiline = fields
        .iter()
        .any(|f| matches!(f.value, FieldValue::Rows(_)));
    out.push('{');
    for (i, f) in fields.iter().enumerate() {
        if multiline {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            indent(out, depth + 1);
        } else if i > 0 {
            out.push_str(", ");
        }
        out.push('"');
        out.push_str(f.name);
        out.push_str("\": ");
        push_value(out, &f.value, depth + 1);
    }
    if multiline {
        out.push('\n');
        indent(out, depth);
    }
    out.push('}');
}

fn push_value(out: &mut String, value: &FieldValue, depth: usize) {
    match value {
        FieldValue::Count(c) => write!(out, "{c}").expect("fmt::Write for String never fails"),
        FieldValue::Decimal(d) => {
            write!(out, "\"{d}\"").expect("fmt::Write for String never fails");
        }
        FieldValue::Real(r) => push_f64(out, *r),
        FieldValue::Text(s) => push_string(out, s),
        FieldValue::Missing => out.push_str("null"),
        FieldValue::Object(fields) => push_object(out, fields, depth),
        FieldValue::List(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_object(out, item, depth);
            }
            out.push(']');
        }
        FieldValue::Rows(items) => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                indent(out, depth + 1);
                push_object(out, item, depth + 1);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            indent(out, depth);
            out.push(']');
        }
    }
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

    fn field(mut self, name: &'static str, value: impl Into<FieldValue>) -> Self {
        self.fields.push(Field::new(name, value));
        self
    }

    /// Appends an exact count field (builder style).
    #[must_use]
    pub fn count(self, name: &'static str, v: u64) -> Self {
        self.field(name, v)
    }

    /// Appends a real-valued field (builder style).
    #[must_use]
    pub fn real(self, name: &'static str, v: f64) -> Self {
        self.field(name, v)
    }

    /// Appends a text field (builder style).
    #[must_use]
    pub fn text(self, name: &'static str, v: impl Into<String>) -> Self {
        self.field(name, v.into())
    }

    /// Appends an optional count: `None` serializes as `null`.
    #[must_use]
    pub fn opt_count(self, name: &'static str, v: Option<u64>) -> Self {
        self.field(name, v)
    }

    /// Appends the standard histogram summary as eight fields:
    /// `count`, `mean_ns`, `min_ns`, `max_ns`, `p50_ns`, `p90_ns`,
    /// `p99_ns`, `p999_ns`. Empty histograms produce `count: 0` and
    /// `null` for everything else — the artifact-level face of the
    /// "no samples ≠ 0 ns" rule.
    #[must_use]
    pub fn hist(self, h: &Histogram) -> Self {
        let s = h.summary();
        self.count("count", s.count)
            .field("mean_ns", s.mean)
            .opt_count("min_ns", s.min)
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

    /// Serializes to the `drs-bench-observability/v3` schema —
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
        let sections = self
            .sections
            .iter()
            .map(|sec| {
                let rows = sec
                    .rows
                    .iter()
                    .map(|row| {
                        vec![
                            Field::new("id", row.id.as_str()),
                            Field::new("fields", row.fields.clone()),
                        ]
                    })
                    .collect();
                vec![
                    Field::new("name", sec.name.as_str()),
                    Field::new("rows", FieldValue::Rows(rows)),
                ]
            })
            .collect();
        write(schema, self.seed, "sections", sections)
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
    fn cells_layout_is_pinned() {
        let cells = vec![
            vec![
                Field::new("n", 4_u64),
                Field::new("method", "say \"hi\" \\ bye"),
                Field::new("p", 0.5),
                Field::new("successes", Some(12_u128)),
                Field::new("total", None::<u128>),
            ],
            vec![Field::new("n", 8_u64), Field::new("p", 1.0)],
        ];
        assert_eq!(
            write("demo/v1", 42, "cells", cells),
            "{\n  \"schema\": \"demo/v1\",\n  \"seed\": 42,\n  \"cells\": [\n    \
             {\"n\": 4, \"method\": \"say \\\"hi\\\" \\\\ bye\", \"p\": 0.5, \
             \"successes\": \"12\", \"total\": null},\n    \
             {\"n\": 8, \"p\": 1.0}\n  ]\n}\n"
        );
    }

    #[test]
    fn sections_layout_is_pinned() {
        let mut artifact = ObsArtifact::new(7);
        let mut sec = Section::new("probe_overhead");
        sec.push(Row::new("n8").count("n", 8).real("frac", 0.25));
        sec.push(Row::new("n16").opt_count("p50_ns", None));
        artifact.push(sec);
        artifact.push(Section::new("empty"));
        assert_eq!(
            artifact.to_json_with_schema("demo/v2"),
            "{\n  \"schema\": \"demo/v2\",\n  \"seed\": 7,\n  \"sections\": [\n    {\n      \
             \"name\": \"probe_overhead\",\n      \"rows\": [\n        \
             {\"id\": \"n8\", \"fields\": {\"n\": 8, \"frac\": 0.25}},\n        \
             {\"id\": \"n16\", \"fields\": {\"p50_ns\": null}}\n      ]\n    },\n    {\n      \
             \"name\": \"empty\",\n      \"rows\": [\n      ]\n    }\n  ]\n}\n"
        );
    }

    #[test]
    fn experiments_layout_is_pinned() {
        let event = |at: u64, detail: &str| {
            vec![
                Field::new("at_ns", at),
                Field::new("kind", "fault_injected"),
                Field::new("detail", detail),
            ]
        };
        let trial = |id: &str, events: Vec<Vec<Field>>| {
            vec![
                Field::new("id", id),
                Field::new("seed", 9_u64),
                Field::new(
                    "metrics",
                    vec![
                        Field::new("sent", 40_u64),
                        Field::new("outage_ns", None::<u64>),
                    ],
                ),
                Field::new("events", FieldValue::List(events)),
            ]
        };
        let experiment = vec![
            Field::new("name", "shootout"),
            Field::new("master_seed", 42_u64),
            Field::new(
                "trials",
                FieldValue::Rows(vec![
                    trial("hub/drs", vec![event(5, "Hub(A)"), event(6, "Hub(B)")]),
                    trial("hub/rip", Vec::new()),
                ]),
            ),
        ];
        assert_eq!(
            write("demo/v3", 42, "experiments", vec![experiment]),
            "{\n  \"schema\": \"demo/v3\",\n  \"seed\": 42,\n  \"experiments\": [\n    {\n      \
             \"name\": \"shootout\",\n      \"master_seed\": 42,\n      \"trials\": [\n        \
             {\"id\": \"hub/drs\", \"seed\": 9, \"metrics\": {\"sent\": 40, \"outage_ns\": null}, \
             \"events\": [{\"at_ns\": 5, \"kind\": \"fault_injected\", \"detail\": \"Hub(A)\"}, \
             {\"at_ns\": 6, \"kind\": \"fault_injected\", \"detail\": \"Hub(B)\"}]},\n        \
             {\"id\": \"hub/rip\", \"seed\": 9, \"metrics\": {\"sent\": 40, \"outage_ns\": null}, \
             \"events\": []}\n      ]\n    }\n  ]\n}\n"
        );
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
