//! The one JSON dialect every committed artifact speaks.
//!
//! All of the repo's committed `BENCH_*.json` files are hand-serialized —
//! no JSON library — so that the bytes are reproducible on any machine,
//! thread count, or compiler. That only works if every writer agrees on
//! the details, so they live here once:
//!
//! * the **preamble**: `{`, the `schema` tag, the master `seed`, and the
//!   opening of the artifact's single top-level list;
//! * the **closer**: list terminator, `}` and the trailing newline;
//! * **float formatting**: shortest-round-trip `Display`, with integral
//!   values pinned to one decimal (consumers parse a uniform type) and
//!   non-finite values as `null` (`NaN` is not a JSON token);
//! * **string escaping**: quotes, backslashes and control characters.
//!
//! Every writer — [`crate::artifact`] here, the harness's `SimArtifact`,
//! `drs_analytic::sweep` and `drs-bench`'s K-plane and topology sweeps —
//! imports this module directly.

/// Opens an artifact object: schema tag, master seed, and the top-level
/// list under `list_key`, leaving the list open for rows. `capacity` is a
/// buffer size hint (artifacts know roughly how many rows they carry).
#[must_use]
pub fn preamble(schema: &str, seed: u64, list_key: &str, capacity: usize) -> String {
    let mut out = String::with_capacity(capacity);
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{schema}\",\n"));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"{list_key}\": [\n"));
    out
}

/// Closes the top-level list and the artifact object, with the trailing
/// newline every committed artifact ends in.
pub fn finish(out: &mut String) {
    out.push_str("  ]\n}\n");
}

/// Canonical float formatting: integral values pinned to one decimal,
/// non-finite values as `null`, everything else shortest-round-trip.
#[must_use]
pub fn json_f64(v: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, v);
    out
}

/// [`json_f64`] appended to `out`, for writers with too many numbers to
/// afford a `String` each.
pub fn push_f64(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 {
        write!(out, "{v:.1}").expect("fmt::Write for String never fails");
    } else {
        write!(out, "{v}").expect("fmt::Write for String never fails");
    }
}

/// Minimal JSON string escaping for the identifiers and event details the
/// artifacts carry (quotes, backslashes, and control characters).
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preamble_and_finish_bracket_an_empty_artifact() {
        let mut out = preamble("demo/v1", 42, "rows", 64);
        finish(&mut out);
        assert_eq!(
            out,
            "{\n  \"schema\": \"demo/v1\",\n  \"seed\": 42,\n  \"rows\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn floats_follow_house_rules() {
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(0.125), "0.125");
        assert_eq!(json_f64(-0.0), "-0.0");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\t\r"), "\"\\t\\r\"");
        assert_eq!(json_string("\u{2}"), "\"\\u0002\"");
    }
}
