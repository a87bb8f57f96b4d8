//! A minimal JSON value, writer, and parser.
//!
//! The workspace builds offline with no serialization crate, so the
//! telemetry exporter hand-writes its JSONL. Only
//! what export needs is implemented: objects, arrays, strings,
//! numbers, booleans, and null. Non-finite floats serialize as `null`
//! (JSON has no NaN/Infinity). The parser ([`Value::parse`]) is the
//! inverse used by the trace merger and the `tutel-trace` CLI to read
//! per-rank JSONL exports back in.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; written via [`fmt_f64`].
    Num(f64),
    /// A string (escaped on write).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved on write.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Serializes to a compact one-line JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serializes in the two-space style of the `BENCH_*.json` records:
    /// the document and its sections (depth 0–1) go multiline, as do
    /// arrays of composites or of long scalars; leaf objects nested
    /// deeper stay on one line. No trailing newline.
    pub fn to_pretty(&self) -> String {
        self.pretty(0)
    }

    fn pretty(&self, indent: usize) -> String {
        let pad = "  ".repeat(indent);
        let inner = "  ".repeat(indent + 1);
        let key = |k: &str| {
            let mut out = String::new();
            write_escaped(k, &mut out);
            out
        };
        match self {
            Value::Obj(pairs) if !pairs.is_empty() && (indent < 2 || self.has_composite()) => {
                let body = pairs
                    .iter()
                    .map(|(k, val)| format!("{inner}{}: {}", key(k), val.pretty(indent + 1)))
                    .collect::<Vec<_>>()
                    .join(",\n");
                format!("{{\n{body}\n{pad}}}")
            }
            Value::Arr(items)
                if !items.is_empty() && (self.has_composite() || self.to_json().len() > 100) =>
            {
                let body = items
                    .iter()
                    .map(|val| format!("{inner}{}", val.pretty(indent + 1)))
                    .collect::<Vec<_>>()
                    .join(",\n");
                format!("[\n{body}\n{pad}]")
            }
            Value::Obj(pairs) if !pairs.is_empty() => {
                let body = pairs
                    .iter()
                    .map(|(k, val)| format!("{}: {}", key(k), val.to_json()))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("{{ {body} }}")
            }
            other => other.to_json(),
        }
    }

    /// Whether any direct child is itself an object or array.
    fn has_composite(&self) -> bool {
        let composite = |c: &Value| matches!(c, Value::Obj(_) | Value::Arr(_));
        match self {
            Value::Obj(pairs) => pairs.iter().any(|(_, v)| composite(v)),
            Value::Arr(items) => items.iter().any(composite),
            _ => false,
        }
    }

    /// Parses one JSON document (object, array, or scalar), rejecting
    /// trailing garbage.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax
    /// error.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as an unsigned integer (truncated), if this is a
    /// non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if *x >= 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => out.push_str(&fmt_f64(*x)),
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
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

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Num(x)
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Value {
        Value::Num(x as f64)
    }
}

impl From<usize> for Value {
    fn from(x: usize) -> Value {
        Value::Num(x as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

/// Formats a float the way the exporter wants it: integers without a
/// fraction, everything else in shortest-roundtrip form, non-finite as
/// `null`.
pub fn fmt_f64(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    if x == x.trunc() && x.abs() < 1e15 {
        // Integral values print without the trailing ".0" Rust's
        // Display would add via {:?}; {} already does this.
        let mut s = String::new();
        let _ = write!(s, "{x}");
        if s.contains('.') {
            s.truncate(s.find('.').unwrap_or(s.len()));
        }
        s
    } else {
        format!("{x}")
    }
}

/// Recursive-descent JSON parser over raw bytes. Accepts exactly what
/// the writer above emits (plus ordinary JSON whitespace), which keeps
/// it small: no comments, no trailing commas, numbers via Rust's f64
/// parser.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| format!("unterminated string at byte {}", self.pos))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("truncated escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs only arise for non-BMP
                            // input; combine when both halves appear.
                            if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let c = 0x10000
                                        + ((code - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    out.push(char::from_u32(c).unwrap_or('\u{FFFD}'));
                                } else {
                                    out.push('\u{FFFD}');
                                }
                            } else {
                                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            }
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting here.
                    let start = self.pos - 1;
                    let rest = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| format!("bad utf-8 at byte {start}"))?;
                    let c = rest.chars().next().unwrap_or('\u{FFFD}');
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(format!("truncated \\u escape at byte {}", self.pos));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        let code = u32::from_str_radix(text, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(code)
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_nests() {
        let v = Value::obj([
            ("name", Value::from("a\"b\\c\nd")),
            (
                "xs",
                Value::Arr(vec![Value::from(1u64), Value::Bool(true), Value::Null]),
            ),
        ]);
        assert_eq!(v.to_json(), r#"{"name":"a\"b\\c\nd","xs":[1,true,null]}"#);
    }

    #[test]
    fn floats_format_compactly() {
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn parse_roundtrips_writer_output() {
        let v = Value::obj([
            ("name", Value::from("a\"b\\c\nd\té")),
            ("n", Value::from(0.125)),
            ("neg", Value::Num(-3.0)),
            (
                "xs",
                Value::Arr(vec![Value::from(1u64), Value::Bool(false), Value::Null]),
            ),
            ("inner", Value::obj([("k", Value::from("v"))])),
        ]);
        let parsed = Value::parse(&v.to_json()).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn pretty_matches_the_bench_record_style_and_parses_back() {
        let v = Value::obj([
            ("bench", Value::from("x")),
            (
                "section",
                Value::obj([
                    ("leaf", Value::obj([("a", Value::from(1u64))])),
                    ("xs", Value::Arr(vec![Value::from(1u64), Value::from(2u64)])),
                    ("rows", Value::Arr(vec![Value::obj([("k", Value::Null)])])),
                ]),
            ),
            ("empty", Value::Obj(Vec::new())),
        ]);
        let expect = "{\n  \"bench\": \"x\",\n  \"section\": {\n    \"leaf\": { \"a\": 1 },\n    \
                      \"xs\": [1,2],\n    \"rows\": [\n      { \"k\": null }\n    ]\n  },\n  \
                      \"empty\": {}\n}";
        assert_eq!(v.to_pretty(), expect);
        assert_eq!(Value::parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn parse_accessors() {
        let v = Value::parse(r#"{"a": [1, 2.5], "s": "x", "b": true}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(Value::as_arr).map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("{} extra").is_err());
        assert!(Value::parse(r#"{"k" 1}"#).is_err());
    }

    #[test]
    fn parse_unicode_escapes() {
        // BMP escapes plus a surrogate pair (U+1F600).
        let v = Value::parse(r#""\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("A\u{e9}\u{1F600}"));
    }
}
