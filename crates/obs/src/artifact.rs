//! The one artifact writer, and the `drs-bench-observability/v4` artifact.
//!
//! Every committed `BENCH_*.json` is laid out by [`write()`], which
//! streams the data each artifact already holds into one `String` sized
//! up front: a schema tag, the master seed, and one or more top-level
//! lists with one item per line. The files use three shapes of item:
//!
//! * flat `cells` rows — the analytic sweep, the K-plane and topology
//!   sweeps: one inline object per line ([`Object::list`] on the top
//!   block);
//! * named `sections` of `{"id", "fields"}` rows ([`Object::sections`]) —
//!   [`ObsArtifact`], also behind the kernel, flight and workload
//!   artifacts, and the simulation artifact's second list;
//! * named `experiments` ([`Object::blocks`]) whose trial rows nest a
//!   `metrics` object ([`Object::fields`]) and an inline `events` list —
//!   the simulation artifact.
//!
//! The layout is the writer's entry points: the artifact and each item of
//! a [`Object::blocks`] list are blocks, written one field per line, and
//! a block's lists hold one item per line, indented two spaces per level;
//! every other object, and everything inside it, is written inline.
//! Tokens follow [`crate::jsonfmt`]. No JSON library is involved, so the
//! bytes are the same on every machine, thread count and compiler.
//!
//! `Missing` is a first-class field value precisely so summaries can
//! distinguish "no samples" (`null`) from a measured zero (`0`).

use std::fmt::{self, Write as _};

use crate::hist::Histogram;
use crate::jsonfmt::{push_f64, push_string};

/// Schema tag written into every observability artifact.
pub const SCHEMA: &str = "drs-bench-observability/v4";

/// One field value: what a [`Row`] stores (with `'static` text) and what
/// the writer takes, borrowed from the data it writes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue<'a> {
    /// An exact count.
    Count(u64),
    /// An exact count too wide for a double (subset and success counts),
    /// written as a quoted decimal string so no parser rounds it.
    Decimal(u128),
    /// A real measurement; non-finite serializes as `null`.
    Real(f64),
    /// A short label.
    Text(&'a str),
    /// A value the row could not produce (empty histogram, no samples) —
    /// serializes as `null`, never as a fake zero.
    Missing,
}

/// `From` for each Rust type that maps onto one variant, so call sites
/// write `Field::new("n", n)` and `o.field("n", n)`.
macro_rules! from_value {
    ($($t:ty => $variant:ident),*) => {$(
        impl<'a> From<$t> for FieldValue<'a> {
            fn from(v: $t) -> Self {
                FieldValue::$variant(v)
            }
        }
    )*};
}

from_value!(u64 => Count, u128 => Decimal, f64 => Real, &'a str => Text);

/// `None` is [`FieldValue::Missing`].
impl<'a, T: Into<FieldValue<'a>>> From<Option<T>> for FieldValue<'a> {
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
    pub value: FieldValue<'static>,
}

impl Field {
    /// A field from anything that converts to a [`FieldValue`].
    #[must_use]
    pub fn new(name: &'static str, value: impl Into<FieldValue<'static>>) -> Self {
        Field {
            name,
            value: value.into(),
        }
    }
}

/// The exact count stored under `name`; `None` when the field is absent,
/// [`FieldValue::Missing`], or not a count.
#[must_use]
pub fn get_count(fields: &[Field], name: &str) -> Option<u64> {
    match fields.iter().find(|f| f.name == name)?.value {
        FieldValue::Count(c) => Some(c),
        _ => None,
    }
}

/// Bytes [`write()`]'s callers reserve per field written inline: its
/// name, a value of up to 20 characters (a `u64` has at most 20 digits,
/// a label is short) and the quotes, colon and separator around them.
pub const FIELD_BYTES: usize = 48;

/// Lays out one artifact: `{"schema", "seed", …}` as a block that `body`
/// appends its lists to, and the trailing newline every committed
/// artifact ends in. The output is one `String` of `capacity` bytes; it
/// grows only when the artifact is larger.
#[must_use]
pub fn write(schema: &str, seed: u64, capacity: usize, body: impl FnOnce(&mut Object)) -> String {
    let mut out = String::with_capacity(capacity);
    Object::write(&mut out, Some(0), |top| {
        top.field("schema", schema).field("seed", seed);
        body(top);
    });
    out.push('\n');
    out
}

/// An object being written: a block (its depth is known; one field per
/// line, its lists one item per line) or an inline object.
pub struct Object<'a> {
    out: &'a mut String,
    depth: Option<usize>,
}

/// Starts a new line at `line`'s indent in a block; nothing inline.
fn newline(out: &mut String, line: Option<usize>) {
    if let Some(depth) = line {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', 2 * depth));
    }
}

/// The separator before a field or list item, on its own line in a
/// block. The first one directly follows its open bracket; a later one
/// follows a value, and no value ends in `{` or `[` (a string ends in
/// its quote).
fn separate(out: &mut String, line: Option<usize>) {
    if !out.ends_with(['{', '[']) {
        out.push_str(if line.is_some() { "," } else { ", " });
    }
    newline(out, line);
}

impl Object<'_> {
    fn write(out: &mut String, depth: Option<usize>, body: impl FnOnce(&mut Object)) {
        out.push('{');
        let mut object = Object { out, depth };
        body(&mut object);
        // `body` may have made an inline item a block (`blocks`).
        newline(object.out, object.depth);
        object.out.push('}');
    }

    fn key(&mut self, name: &str) -> &mut String {
        separate(self.out, self.depth.map(|d| d + 1));
        for part in ["\"", name, "\": "] {
            self.out.push_str(part);
        }
        self.out
    }

    /// Appends one scalar field.
    pub fn field<'v>(&mut self, name: &str, value: impl Into<FieldValue<'v>>) -> &mut Self {
        let out = self.key(name);
        match value.into() {
            FieldValue::Count(c) => write!(out, "{c}").expect("fmt::Write for String never fails"),
            FieldValue::Decimal(d) => push_string(out, d),
            FieldValue::Real(r) => push_f64(out, r),
            FieldValue::Text(s) => push_string(out, s),
            FieldValue::Missing => out.push_str("null"),
        }
        self
    }

    /// Appends `value`'s `Display` as a string, rendered straight into
    /// the output ([`push_string`]).
    pub fn display(&mut self, name: &str, value: impl fmt::Display) -> &mut Self {
        push_string(self.key(name), value);
        self
    }

    /// Appends `fields` as an inline object.
    pub fn fields(&mut self, name: &str, fields: &[Field]) -> &mut Self {
        Object::write(self.key(name), None, |o| {
            for f in fields {
                o.field(f.name, f.value);
            }
        });
        self
    }

    /// Appends a list of inline objects, each written by `f` from one of
    /// `items`: one per line in a block, inline otherwise.
    pub fn list<T>(&mut self, name: &str, items: &[T], mut f: impl FnMut(&mut Object, &T)) {
        let line = self.depth.map(|d| d + 1);
        self.key(name).push('[');
        for item in items {
            separate(self.out, line.map(|d| d + 1));
            Object::write(self.out, None, |o| f(o, item));
        }
        newline(self.out, line);
        self.out.push(']');
    }

    /// Appends a list of blocks, one per line, each written by `f` from
    /// one of `items`.
    pub fn blocks<T>(&mut self, name: &str, items: &[T], mut f: impl FnMut(&mut Object, &T)) {
        let depth = self.depth.map(|d| d + 2);
        self.list(name, items, |o, item| {
            o.depth = depth;
            f(o, item);
        });
    }

    /// Appends the `sections` list: per section its `name` and one
    /// `{"id", "fields"}` row per line.
    pub fn sections(&mut self, sections: &[Section]) {
        self.blocks("sections", sections, |block, sec| {
            block
                .field("name", sec.name.as_str())
                .list("rows", &sec.rows, |o, row| {
                    o.field("id", row.id.as_str()).fields("fields", &row.fields);
                });
        });
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

    fn field(mut self, name: &'static str, value: impl Into<FieldValue<'static>>) -> Self {
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

    /// Appends a label field (builder style); rows hold `'static`
    /// labels, so one costs no allocation.
    #[must_use]
    pub fn text(self, name: &'static str, v: &'static str) -> Self {
        self.field(name, v)
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

    /// The exact count stored under `name` ([`get_count`]).
    #[must_use]
    pub fn get_count(&self, name: &str) -> Option<u64> {
        get_count(&self.fields, name)
    }

    /// The real value stored under `name`; `None` when the field is
    /// absent, [`FieldValue::Missing`], or not a real.
    #[must_use]
    pub fn get_real(&self, name: &str) -> Option<f64> {
        match self.fields.iter().find(|f| f.name == name)?.value {
            FieldValue::Real(r) => Some(r),
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

    /// Serializes to the `drs-bench-observability/v4` schema —
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
        write(
            schema,
            self.seed,
            sections_capacity(&self.sections),
            |top| top.sections(&self.sections),
        )
    }
}

/// Bytes to reserve for [`Object::sections`] on `sections`:
/// [`FIELD_BYTES`] per field, and the ids, names and brackets.
#[must_use]
pub fn sections_capacity(sections: &[Section]) -> usize {
    let rows = sections.iter().flat_map(|s| &s.rows);
    let rows: usize = rows
        .map(|r| 32 + r.id.len() + FIELD_BYTES * r.fields.len())
        .sum();
    128 + 64 * sections.len() + rows
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
        let json = write("demo/v1", 42, 0, |top| {
            top.list("cells", &[4_u64, 8], |o, &n| {
                o.field("n", n);
                if n == 4 {
                    o.field("method", "say \"hi\" \\ bye")
                        .field("p", 0.5)
                        .field("successes", Some(12_u128))
                        .field("total", None::<u128>);
                } else {
                    o.field("p", 1.0);
                }
            });
        });
        assert_eq!(
            json,
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
        let metrics = [
            Field::new("sent", 40_u64),
            Field::new("outage_ns", None::<u64>),
        ];
        let trials = [("hub/drs", &[(5_u64, 'A'), (6, 'B')][..]), ("hub/rip", &[])];
        let json = write("demo/v3", 42, 0, |top| {
            top.blocks("experiments", &["shootout"], |block, name| {
                let trial = |o: &mut Object, &(id, events): &(&str, &[(u64, char)])| {
                    o.field("id", id)
                        .field("seed", 9_u64)
                        .fields("metrics", &metrics)
                        .list("events", events, |e, &(at, hub)| {
                            e.field("at_ns", at)
                                .field("kind", "fault_injected")
                                .display("detail", format_args!("Hub({hub})"));
                        });
                };
                block
                    .field("name", *name)
                    .field("master_seed", 42_u64)
                    .list("trials", &trials, trial);
            });
        });
        assert_eq!(
            json,
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
