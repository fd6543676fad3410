//! Offline stand-in for [`serde_json`]: renders the serde compat crate's
//! [`Value`] model to JSON text and parses it back.
//!
//! Floats print via Rust's shortest-round-trip formatting (`{:?}`), so
//! every finite `f64` survives `to_string` → `from_str` exactly —
//! matching upstream's `float_roundtrip` feature. Non-finite floats
//! serialize as `null`, as upstream does, and a float refuses `null` on
//! the way back, as upstream's does: a non-finite float does not survive
//! the round trip, and only an `Option` float reads `null` (as `None`).
//! Parsing refuses input nested deeper than [`MAX_DEPTH`] levels,
//! upstream's recursion limit, so a hostile payload cannot exhaust the
//! parsing thread's stack.
//!
//! [`serde_json`]: https://crates.io/crates/serde_json

use std::fmt;

use serde::{Deserialize, Serialize, Value};

/// Serialization/parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.to_string())
    }
}

/// Serializes a value to compact JSON text.
///
/// # Errors
///
/// Infallible for the compat data model; the `Result` mirrors upstream.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value());
    Ok(out)
}

/// Serializes a value to indented JSON text.
///
/// # Errors
///
/// Infallible for the compat data model; the `Result` mirrors upstream.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value_pretty(&mut out, &value.to_value(), 0);
    Ok(out)
}

/// Parses JSON text into any deserializable type.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<'a, T: Deserialize<'a>>(text: &'a str) -> Result<T, Error> {
    let value = parse_value(text)?;
    T::from_value(&value).map_err(Error::from)
}

/// Deepest array/object nesting the parser accepts.
pub const MAX_DEPTH: usize = 128;

/// Parses JSON text into the generic [`Value`] model.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse_value(text: &str) -> Result<Value, Error> {
    let mut parser = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    parser.skip_whitespace();
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error(format!("trailing input at byte {}", parser.pos)));
    }
    Ok(value)
}

// ---------------------------------------------------------------- writing

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => write_float(out, *f),
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, key);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

fn write_value_pretty(out: &mut String, value: &Value, indent: usize) {
    match value {
        Value::Seq(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_value_pretty(out, item, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
        }
        Value::Map(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_string(out, key);
                out.push_str(": ");
                write_value_pretty(out, item, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
        other => write_value(out, other),
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_float(out: &mut String, f: f64) {
    if f.is_finite() {
        // {:?} is Rust's shortest representation that round-trips
        out.push_str(&format!("{f:?}"));
    } else {
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------- parsing

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!("expected {:?} at byte {}", byte as char, self.pos)))
        }
    }

    fn consume_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.bytes.get(self.pos) {
            None => Err(Error("unexpected end of input".into())),
            Some(b'n') => {
                if self.consume_literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error(format!("invalid literal at byte {}", self.pos)))
                }
            }
            Some(b't') => {
                if self.consume_literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(Error(format!("invalid literal at byte {}", self.pos)))
                }
            }
            Some(b'f') => {
                if self.consume_literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error(format!("invalid literal at byte {}", self.pos)))
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::sequence),
            Some(b'{') => self.nested(Self::map),
            Some(_) => self.number(),
        }
    }

    /// Parses one array or object a level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn sequence(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(Error(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn map(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_whitespace();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // fast path: run of plain bytes
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error("invalid utf-8 in string".into()))?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or_else(|| Error("unterminated escape".into()))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            // surrogate pair support
                            if (0xD800..0xDC00).contains(&code) {
                                if !self.consume_literal("\\u") {
                                    return Err(Error("lone surrogate".into()));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(Error("invalid surrogate pair".into()));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                out.push(
                                    char::from_u32(combined)
                                        .ok_or_else(|| Error("invalid surrogate pair".into()))?,
                                );
                            } else {
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| Error("invalid \\u escape".into()))?,
                                );
                            }
                        }
                        other => {
                            return Err(Error(format!("invalid escape '\\{}'", other as char)))
                        }
                    }
                }
                _ => return Err(Error("unterminated string".into())),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let digits =
            self.bytes.get(self.pos..end).ok_or_else(|| Error("truncated \\u escape".into()))?;
        let text = std::str::from_utf8(digits).map_err(|_| Error("invalid \\u escape".into()))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| Error("invalid \\u escape".into()))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        if text.is_empty() || text == "-" {
            return Err(Error(format!("invalid number at byte {start}")));
        }
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error(format!("invalid number {text:?}")))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Value::Int(i))
        } else if let Ok(u) = text.parse::<u64>() {
            Ok(Value::UInt(u))
        } else {
            // integer overflowing both: keep the magnitude as a float
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error(format!("invalid number {text:?}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "1.5", "\"hi\""] {
            let v = parse_value(text).unwrap();
            let mut out = String::new();
            write_value(&mut out, &v);
            assert_eq!(out, text);
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.1, 1e300, -2.5e-10, std::f64::consts::PI] {
            let text = to_string(&f).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back, f, "lost precision in {text}");
        }
    }

    #[test]
    fn nested_structures() {
        let text = r#"{"a":[1,2,{"b":null}],"c":"x\ny"}"#;
        let v = parse_value(text).unwrap();
        let mut out = String::new();
        write_value(&mut out, &v);
        assert_eq!(out, text);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = parse_value(r#"{"a":[1,2],"b":{"c":true}}"#).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(parse_value(&pretty).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_input() {
        // a high surrogate followed by a non-low-surrogate escape
        let bad_pair = r#""\ud800\u0041""#;
        for text in ["{", "[1,", "\"open", "tru", "1.2.3", "{\"a\" 1}", "[] []", bad_pair] {
            assert!(parse_value(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse_value(&nest(MAX_DEPTH)).is_ok());
        let err = parse_value(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse_value(&objects).is_err());
        // far past the cap: refused, not a stack overflow
        assert!(parse_value(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn unicode_escapes() {
        let v = parse_value(r#""é😀""#).unwrap();
        assert_eq!(v, Value::Str("é😀".to_string()));
    }
}
