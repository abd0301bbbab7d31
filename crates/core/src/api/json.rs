//! A strict, serde-free JSON value: the parsing half of the wire layer.
//!
//! The workspace builds offline and carries no serde, so everything that
//! *emits* JSON writes byte-stable strings itself (the member tables of
//! this module's siblings, [`ScenarioMetrics::to_json`], the golden Table 1
//! fixture).  The wire API needs the other direction too; [`Json`]
//! supplies it as a strict RFC 8259 subset parser — no `NaN`/`Infinity`
//! literals, no trailing commas, no unquoted keys, no duplicate keys, no
//! trailing garbage.
//!
//! Numbers are kept as their *raw literal text* rather than eagerly
//! converted to `f64`: a `u64` seed like `18446744073709551615` does not
//! survive a round-trip through `f64`, and the byte-identity contract of
//! the wire layer ("same value in, same bytes out") demands exactness for
//! integers of any magnitude.  [`Json::as_u64`] parses the raw text as an
//! integer; [`Json::as_f64`] parses it as a float (Rust's `FromStr` is the
//! exact inverse of its shortest-round-trip `Display`, so finite floats are
//! bit-exact too).
//!
//! [`ScenarioMetrics::to_json`]: taco_workload::ScenarioMetrics::to_json

use std::fmt::Write as _;

/// A parsed JSON value.
///
/// Objects preserve member order (a `Vec`, not a map): the wire layer's
/// responses have a documented key order, and order-preserving parses make
/// that testable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw literal text (always a valid RFC 8259
    /// number — the parser guarantees it, and the constructors only emit
    /// valid literals).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in source order.  The strict parser rejects
    /// duplicate keys.
    Obj(Vec<(String, Json)>),
}

/// Where and why a parse failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What was expected there.
    pub message: &'static str,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl Json {
    /// A number value from a `u64` (exact).
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A number value from an `f64` using the shortest-round-trip
    /// `Display`; non-finite values become [`Json::Null`] (JSON has no
    /// `Infinity`/`NaN` literals — the wire layer's documented convention).
    pub fn f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v}"))
        } else {
            Json::Null
        }
    }

    /// A string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as an exact unsigned integer (rejects fractions,
    /// exponents, signs and anything beyond `u64::MAX`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as a finite `f64` (exact for every shortest-round-trip
    /// literal).  A literal too large for the type (`1e400`) is not a
    /// number here: infinity is spelled `null` on the wire, and reading it
    /// from a numeral would give values the encoder cannot write back.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok().filter(|v: &f64| v.is_finite()),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members in source order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// `true` for [`Json::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serialises compactly (no whitespace), object members in stored
    /// order.  Parsing the result yields the value back.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => encode_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_str(key, out);
                    out.push(':');
                    value.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser { bytes: text.as_bytes(), at: 0, depth: 0 };
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(p.err("end of document"));
        }
        Ok(value)
    }
}

/// Serialises a string with the minimal escape set (quotes, backslash,
/// control characters).
pub(crate) fn encode_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest nesting of arrays and objects the parser follows.  Wire values
/// nest half a dozen deep; the parser recurses per level, so without a bound a
/// frame of `[[[[…` overflows the stack of whichever thread reads it.
const MAX_DEPTH: usize = 32;

/// Most members one object may have.  Key uniqueness is checked by scanning
/// the members so far — the cheapest way for the dozen a wire object has,
/// quadratic for the hundred thousand a hostile 1 MiB frame can carry
/// (16 s of the daemon's only event-loop thread).  The one object whose
/// width depends on its input is a report's per-instance trigger counts,
/// and it lists only the instances a program triggered: the generated
/// microcode reaches 22 of them at 255-way replication (`api::report`
/// round-trips that report), though such a machine has over 1020.
const MAX_MEMBERS: usize = 1024;

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonParseError {
        JsonParseError { at: self.at, message }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, text: &'static str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.at..].starts_with(text.as_bytes()) {
            self.at += text.len();
            Ok(value)
        } else {
            Err(self.err("a JSON value"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(self.err("shallower nesting")),
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let nested = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                nested
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{', "'{'")?;
        let mut members: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.err("unique object keys"));
            }
            if members.len() == MAX_MEMBERS {
                return Err(self.err("fewer object members"));
            }
            self.skip_ws();
            self.expect(b':', "':'")?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[', "'['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            let start = self.at;
            // Fast path: a run of plain UTF-8 up to the next quote/escape.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.at += 1;
            }
            if self.at > start {
                // The document is valid UTF-8 (it is a &str) and the run
                // stops on ASCII delimiters, so the slice is char-aligned.
                out.push_str(std::str::from_utf8(&self.bytes[start..self.at]).expect("utf-8"));
            }
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    out.push(self.escape()?);
                }
                _ => return Err(self.err("'\"' (unterminated or control char in string)")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonParseError> {
        let c = self.peek().ok_or_else(|| self.err("an escape character"))?;
        self.at += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let first = self.hex4()?;
                if (0xD800..0xDC00).contains(&first) {
                    // High surrogate: require the paired low surrogate.
                    if self.peek() != Some(b'\\') {
                        return Err(self.err("a low surrogate"));
                    }
                    self.at += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.err("a low surrogate"));
                    }
                    self.at += 1;
                    let second = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&second) {
                        return Err(self.err("a low surrogate"));
                    }
                    let cp = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    char::from_u32(cp).ok_or_else(|| self.err("a valid code point"))?
                } else {
                    char::from_u32(first).ok_or_else(|| self.err("a valid code point"))?
                }
            }
            _ => return Err(self.err("a valid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self.peek().and_then(|b| (b as char).to_digit(16));
            match d {
                Some(d) => {
                    v = v * 16 + d;
                    self.at += 1;
                }
                None => return Err(self.err("four hex digits")),
            }
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        // Integer part: `0` alone, or a nonzero-led digit run (RFC 8259
        // forbids leading zeros).
        match self.peek() {
            Some(b'0') => self.at += 1,
            Some(b'1'..=b'9') => {
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.at += 1;
                }
            }
            _ => return Err(self.err("a digit")),
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            if !self.digits() {
                return Err(self.err("a fraction digit"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            if !self.digits() {
                return Err(self.err("an exponent digit"));
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii number");
        Ok(Json::Num(raw.to_owned()))
    }

    fn digits(&mut self) -> bool {
        let from = self.at;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.at += 1;
        }
        self.at > from
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_structures() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-1",
            "18446744073709551615",
            "1.5",
            "3.0000000000000004",
            "[1,2,[3]]",
            "{\"a\":1,\"b\":{\"c\":[true,null]}}",
            "{}",
            "[]",
            "\"hi\"",
        ] {
            let v = Json::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(v.encode(), text, "byte round-trip of {text}");
        }
    }

    #[test]
    fn numbers_keep_exact_text() {
        let v = Json::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(v.encode(), "18446744073709551615");
        // The same literal through f64 would have been lossy.
        assert_ne!(format!("{}", u64::MAX as f64), "18446744073709551615");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1, 1.0 / 3.0, 32602163.461538464, 1e-300, 123456789.12345679] {
            let v = Json::f64(x);
            let back = Json::parse(&v.encode()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        assert!(Json::f64(f64::INFINITY).is_null());
        assert!(Json::f64(f64::NAN).is_null());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Json::str("a\"b\\c\nd\te\u{1}f");
        let enc = v.encode();
        assert_eq!(enc, "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
        assert_eq!(Json::parse(&enc).unwrap(), v);
        // Unicode escapes, including a surrogate pair.
        assert_eq!(Json::parse("\"\\u00e9\"").unwrap(), Json::str("é"));
        assert_eq!(Json::parse("\"\\ud83d\\ude00\"").unwrap(), Json::str("😀"));
        assert!(Json::parse("\"\\ud83d\"").is_err(), "lone high surrogate");
    }

    #[test]
    fn strict_rejections() {
        for bad in [
            "",
            "{a:1}",
            "{\"a\":NaN}",
            "{\"a\":Infinity}",
            "{\"a\":1,}",
            "[1,]",
            "{\"a\":1} extra",
            "{\"a\":1,\"a\":2}",
            "01",
            "1.",
            ".5",
            "+1",
            "\"unterminated",
            "{\"a\"}",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn nesting_is_bounded_not_recursed_into_the_guard_page() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        // An 8 MiB frame of brackets (the daemon's frame limit) used to
        // overflow the event-loop thread's stack.
        for open in ["[", "{\"a\":", "[{\"a\":"] {
            assert!(Json::parse(&open.repeat(1 << 20)).is_err(), "{open}");
        }
    }

    #[test]
    fn object_width_is_bounded_not_scanned_quadratically() {
        let object = |members: usize| {
            let members: Vec<String> = (0..members).map(|i| format!("\"k{i}\":0")).collect();
            format!("{{{}}}", members.join(","))
        };
        assert!(Json::parse(&object(MAX_MEMBERS)).is_ok());
        assert!(Json::parse(&object(MAX_MEMBERS + 1)).is_err());
        // 1 MiB of distinct keys used to hold the parser for 16 s.
        assert!(Json::parse(&object(100_000)).is_err());
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::parse("{\"z\":1,\"a\":2}").unwrap();
        let members = v.as_object().unwrap();
        assert_eq!(members[0].0, "z");
        assert_eq!(members[1].0, "a");
        assert_eq!(v.encode(), "{\"z\":1,\"a\":2}");
    }

    #[test]
    fn accessors_are_typed() {
        let v = Json::parse("{\"n\":3,\"s\":\"x\",\"b\":true,\"l\":[1],\"z\":null}").unwrap();
        let get = |k: &str| {
            v.as_object().unwrap().iter().find(|(key, _)| key == k).map(|(_, v)| v).unwrap()
        };
        assert_eq!(get("n").as_u64(), Some(3));
        assert_eq!(get("n").as_f64(), Some(3.0));
        assert_eq!(get("s").as_str(), Some("x"));
        assert_eq!(get("b").as_bool(), Some(true));
        assert_eq!(get("l").as_array().map(<[Json]>::len), Some(1));
        assert!(get("z").is_null());
        assert_eq!(get("s").as_u64(), None);
        // Fractions and negatives are not u64s.
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
    }
}
