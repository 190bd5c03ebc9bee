//! Minimal JSON emission — and parsing — for benchmark artefacts.
//!
//! The benchmark harnesses emit machine-readable result files (`BENCH_*.json`) that
//! CI uploads as artifacts, so the performance trajectory of the repository
//! accumulates over time.  Like the [`crate::table`] renderer this is deliberately
//! dependency-free: the harnesses only write the small subset below (objects,
//! arrays, strings, integers, finite floats, booleans, null).
//!
//! Numbers are emitted with enough precision to round-trip `f64` (`{:?}` formatting)
//! and non-finite floats are emitted as `null` — JSON has no representation for
//! them, and a partially-written artefact must never be invalid.
//!
//! [`Json::parse`] is the read side: a full recursive-descent JSON parser used by
//! the schema-validation layer (`bench::schema`) to round-trip committed
//! `BENCH_*.json` artefacts and reject stale section schemas in CI.  Non-negative
//! integers parse as [`Json::UInt`], negative as [`Json::Int`], anything with a
//! fraction or exponent as [`Json::Float`]; `parse(doc.render())` therefore
//! re-renders byte-identically even though `Int(5)` and `UInt(5)` compare unequal.

use std::collections::BTreeMap;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer (emitted without a decimal point).
    Int(i64),
    /// Unsigned integer (iteration counts exceed `i64` in principle).
    UInt(u64),
    /// Finite float; non-finite values are emitted as `null`.
    Float(f64),
    /// String (escaped on emission).
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object; a `BTreeMap` so key order — and therefore the artefact byte stream —
    /// is deterministic.
    Object(BTreeMap<String, Json>),
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::UInt(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(values: Vec<T>) -> Self {
        Json::Array(values.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn object<K: Into<String>, V: Into<Json>>(pairs: Vec<(K, V)>) -> Self {
        Json::Object(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// Serialise without insignificant whitespace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Array(values) => {
                out.push('[');
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Error from [`Json::parse`]: what went wrong and at which byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input at which the error was detected.
    pub offset: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Deepest array/object nesting [`Json::parse`] accepts.  The parser is
/// recursive descent, so without a cap a line of `[` characters well under
/// any line-length limit overflows the stack and aborts the process; with
/// it, deeper input is an ordinary [`JsonParseError`].  Every document this
/// workspace writes nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error<T>(&self, message: impl Into<String>) -> Result<T, JsonParseError> {
        Err(JsonParseError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.error(format!("expected {:?}", byte as char))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.error(format!("expected {word:?}"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => self.error(format!("unexpected character {:?}", c as char)),
            None => self.error("unexpected end of input"),
        }
    }

    /// Parse an array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonParseError>,
    ) -> Result<Json, JsonParseError> {
        if self.depth == MAX_DEPTH {
            return self.error(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return self.error("expected ',' or '}' in object"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut values = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(values));
        }
        loop {
            values.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(values));
                }
                _ => return self.error("expected ',' or ']' in array"),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.error("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..=0xDBFF).contains(&hi) {
                                // surrogate pair: the low half must follow
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&lo) {
                                        return self.error("invalid low surrogate");
                                    }
                                    let code = 0x10000
                                        + (((hi - 0xD800) as u32) << 10)
                                        + (lo - 0xDC00) as u32;
                                    char::from_u32(code)
                                } else {
                                    return self.error("unpaired high surrogate");
                                }
                            } else if (0xDC00..=0xDFFF).contains(&hi) {
                                None
                            } else {
                                char::from_u32(hi as u32)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return self.error("invalid \\u escape"),
                            }
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return self.error("invalid escape sequence"),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return self.error("unescaped control character"),
                Some(_) => {
                    // multi-byte UTF-8 sequences are copied through verbatim
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| JsonParseError {
                            offset: self.pos,
                            message: "invalid UTF-8".into(),
                        })?
                        .chars()
                        .next()
                        .expect("peeked non-empty");
                    out.push(s);
                    self.pos += s.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonParseError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or(JsonParseError {
                offset: self.pos,
                message: "truncated \\u escape".into(),
            })?;
        let v = u16::from_str_radix(digits, 16).map_err(|_| JsonParseError {
            offset: self.pos,
            message: "invalid \\u escape digits".into(),
        })?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if is_float {
            match text.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(Json::Float(v)),
                _ => self.error(format!("invalid number {text:?}")),
            }
        } else if let Some(digits) = text.strip_prefix('-') {
            match digits.parse::<u64>() {
                // negative integers land in Int (mirroring From<i64>)
                Ok(_) => text
                    .parse::<i64>()
                    .map(Json::Int)
                    .or_else(|_| self.error(format!("integer out of range {text:?}"))),
                Err(_) => self.error(format!("invalid number {text:?}")),
            }
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .or_else(|_| self.error(format!("integer out of range {text:?}")))
        }
    }
}

impl Json {
    /// Parse a JSON document.
    ///
    /// Accepts standard JSON (objects, arrays, strings with escapes, numbers,
    /// booleans, null); trailing content after the top-level value is an error,
    /// as are non-finite numbers (which [`Json::render`] never emits) and
    /// nesting deeper than [`MAX_DEPTH`].
    pub fn parse(input: &str) -> Result<Json, JsonParseError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return parser.error("trailing content after the document");
        }
        Ok(value)
    }

    /// Object field access: `Some(value)` when `self` is an object with that key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, when `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array payload, when `self` is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(values) => Some(values),
            _ => None,
        }
    }

    /// The value as an `f64`: floats verbatim, integers widened.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            Json::UInt(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The boolean payload, when `self` is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render_as_json() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::from(true).render(), "true");
        assert_eq!(Json::from(42u64).render(), "42");
        assert_eq!(Json::from(-7i64).render(), "-7");
        assert_eq!(Json::from(1.5).render(), "1.5");
        assert_eq!(Json::from("hi").render(), "\"hi\"");
    }

    #[test]
    fn floats_round_trip_and_non_finite_becomes_null() {
        assert_eq!(Json::from(0.1).render(), "0.1");
        let third: f64 = 1.0 / 3.0;
        assert_eq!(Json::from(third).render().parse::<f64>().unwrap(), third);
        assert_eq!(Json::from(f64::NAN).render(), "null");
        assert_eq!(Json::from(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::from("a\"b\\c\nd").render(),
            "\"a\\\"b\\\\c\\nd\"".to_string()
        );
        assert_eq!(Json::from("\u{1}").render(), "\"\\u0001\"");
    }

    #[test]
    fn arrays_and_objects_compose_deterministically() {
        let v = Json::object(vec![
            ("b", Json::from(vec![1u64, 2, 3])),
            ("a", Json::from("x")),
        ]);
        // BTreeMap ordering: "a" before "b" regardless of insertion order.
        assert_eq!(v.render(), r#"{"a":"x","b":[1,2,3]}"#);
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let doc = Json::object(vec![
            ("schema", Json::from("scaling_curve/v1")),
            ("threads", Json::from(vec![1u64, 2, 4])),
            ("steps_per_sec", Json::from(200413.7)),
            ("delta", Json::Int(-3)),
            ("note", Json::from("a \"quoted\" name\n")),
            ("solved", Json::from(true)),
            ("missing", Json::Null),
        ]);
        let rendered = doc.render();
        let parsed = Json::parse(&rendered).expect("own output parses");
        assert_eq!(parsed.render(), rendered, "byte-identical re-render");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn parse_accepts_whitespace_and_unicode_escapes() {
        let parsed = Json::parse(" { \"a\" : [ 1 , 2.5 , \"\\u0041\\u00e9\" ] }\n").unwrap();
        assert_eq!(
            parsed,
            Json::object(vec![(
                "a",
                Json::Array(vec![Json::UInt(1), Json::Float(2.5), Json::from("Aé")])
            )])
        );
        // surrogate pair
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::from("\u{1F600}")
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "\"unterminated",
            "tru",
            "{\"a\" 1}",
            "1 2",
            "{\"a\":1}x",
            "\"\\ud800\"",
            "--1",
            "1e999",
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(!err.message.is_empty(), "{bad}: {err}");
        }
    }

    #[test]
    fn parse_caps_nesting_depth_with_a_typed_error() {
        let nest = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            assert!(Json::parse(&nest(open, close, MAX_DEPTH)).is_ok(), "{open}");
            let err = Json::parse(&nest(open, close, MAX_DEPTH + 1)).expect_err(open);
            assert!(err.message.contains("nesting deeper"), "{open}: {err}");
            // ≈ 10⁵ levels, unterminated and terminated: an error, not a
            // stack overflow.
            let deep = open.repeat(100_000);
            let err = Json::parse(&deep).expect_err(open);
            assert_eq!(err.offset, MAX_DEPTH * open.len(), "{open}: {err}");
            assert!(Json::parse(&nest(open, close, 100_000)).is_err(), "{open}");
        }
    }

    #[test]
    fn parse_number_variants_take_the_documented_types() {
        assert_eq!(Json::parse("5").unwrap(), Json::UInt(5));
        assert_eq!(Json::parse("-5").unwrap(), Json::Int(-5));
        assert_eq!(Json::parse("5.0").unwrap(), Json::Float(5.0));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
    }

    #[test]
    fn accessors_narrow_types() {
        let doc = Json::object(vec![
            ("s", Json::from("x")),
            ("u", Json::from(7u64)),
            ("f", Json::from(1.5)),
            ("a", Json::from(vec![1u64])),
        ]);
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("u").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("u").and_then(Json::as_f64), Some(7.0));
        assert_eq!(doc.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(
            doc.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.get("s"), None);
        assert_eq!(Json::from("x").as_u64(), None);
    }

    #[test]
    fn nested_benchmark_shape_renders() {
        let cell = Json::object(vec![
            ("cores", Json::from(16usize)),
            ("speedup", Json::from(1.25)),
            ("solved", Json::from(true)),
        ]);
        let doc = Json::object(vec![
            ("schema", Json::from("bench/v1")),
            ("cells", Json::Array(vec![cell])),
        ]);
        let s = doc.render();
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains(r#""cells":[{"cores":16,"#));
    }
}
