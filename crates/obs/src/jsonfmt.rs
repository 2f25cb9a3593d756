//! The one JSON dialect every committed artifact speaks.
//!
//! All of the repo's committed `BENCH_*.json` files are hand-serialized —
//! no JSON library — so that the bytes are reproducible on any machine,
//! thread count, or compiler. That only works if every number and string
//! is spelled one way, so the two token rules live here once:
//!
//! * **float formatting**: shortest-round-trip `Display`, with integral
//!   values pinned to one decimal (consumers parse a uniform type) and
//!   non-finite values as `null` (`NaN` is not a JSON token);
//! * **string escaping**: quotes, backslashes and control characters.
//!
//! The layout around those tokens — braces, indentation, separators —
//! is [`crate::artifact::write`]'s, the one writer every committed
//! artifact goes through. The flight recorder's Perfetto export
//! ([`crate::flight::to_perfetto`]) formats its timestamps by the same
//! float rule.

/// Canonical float formatting, appended to `out`: integral values pinned
/// to one decimal, non-finite values as `null`, everything else
/// shortest-round-trip.
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
/// artifacts carry (quotes, backslashes, and control characters),
/// appended to `out` with its quotes.
pub fn push_string(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("fmt::Write for String never fails");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f64_token(v: f64) -> String {
        let mut out = String::new();
        push_f64(&mut out, v);
        out
    }

    fn string_token(s: &str) -> String {
        let mut out = String::new();
        push_string(&mut out, s);
        out
    }

    #[test]
    fn floats_follow_house_rules() {
        assert_eq!(f64_token(2.0), "2.0");
        assert_eq!(f64_token(0.125), "0.125");
        assert_eq!(f64_token(-0.0), "-0.0");
        assert_eq!(f64_token(f64::NAN), "null");
        assert_eq!(f64_token(f64::INFINITY), "null");
        assert_eq!(f64_token(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string_token("plain"), "\"plain\"");
        assert_eq!(string_token("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(string_token("\t\r"), "\"\\t\\r\"");
        assert_eq!(string_token("\u{2}"), "\"\\u0002\"");
    }
}
