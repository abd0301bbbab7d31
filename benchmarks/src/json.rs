//! The little JSON the benchmark writes: strings, numbers and the result
//! line the driver reads.  Rendering only — nothing here parses.

use std::fmt::Write as _;

/// `text` as a JSON string literal.
pub fn string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `value` with every digit it was measured with (the shortest text that
/// reads back to the same `f64`); `null` when it is not finite, which
/// JSON cannot spell.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists it under.
    pub name: String,
    /// The reported value.
    pub value: f64,
    /// Its unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result line: exactly the keys `correct`, `attempted`, `failed` and
/// `metrics`, the last mapping each name to `{"value":…,"unit":…}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                number(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_what_json_requires() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn numbers_keep_their_digits_and_never_emit_nan() {
        assert_eq!(number(1.25), "1.25");
        assert_eq!(number(8123.456789012345), "8123.456789012345");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics = [
            Metric { name: "evals_per_s".into(), value: 8120.5, unit: "1/s" },
            Metric { name: "setup_s".into(), value: 0.0625, unit: "s" },
        ];
        assert_eq!(
            result_line(9600, 0, &metrics),
            "{\"correct\": true, \"attempted\": 9600, \"failed\": 0, \"metrics\": \
             {\"evals_per_s\": {\"value\": 8120.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.0625, \"unit\": \"s\"}}}"
        );
        assert!(result_line(10, 1, &[]).starts_with("{\"correct\": false, \"attempted\": 10"));
        assert!(result_line(0, 0, &[]).starts_with("{\"correct\": false"));
    }
}
