//! A hand-rolled JSON parser over [`serde::Value`], for `.json` campaign
//! files and JSONL trace imports.
//!
//! Standard JSON with two ergonomic extensions that cost nothing to
//! accept: `//` line comments and trailing commas (both common in
//! hand-maintained config files). `null` maps to [`Value::Unit`] — the
//! same "absent" encoding the deserializer gives missing keys. Numbers
//! without a fraction or exponent become [`Value::Int`]; everything else
//! becomes [`Value::Float`].
//!
//! Errors reuse [`TomlError`] so both formats
//! report positions identically (`file:line:col: message`).
//!
//! [`write_json`] is the inverse: a canonical single-line writer used by
//! the campaign spill sink (JSONL result/manifest files). Canonical means
//! deterministic bytes for a given value — fields in tree order, no
//! whitespace, shortest-round-trip float formatting — so identical
//! results serialize to identical lines and a resumed run's output can be
//! compared byte-for-byte against an uninterrupted one. It is built on
//! appending encoders — [`write_float`], [`write_int`] and
//! [`write_string`] — that hot writers (the per-event metrics sink) call
//! directly on a reused buffer, without building a [`Value`] tree.

use crate::toml::TomlError;
use serde::Value;
use std::fmt::Write as _;

/// Serialize a [`Value`] tree as one line of canonical JSON.
///
/// The round trip through [`parse_json`] is exact: floats use Rust's
/// shortest-round-trip `Display` (integral floats like `2.0` print as
/// `2` and come back as [`Value::Int`], which the shim's `f64`
/// deserializer accepts losslessly; `-0.0` is special-cased to `-0.0`
/// so the sign survives the int path). Non-finite floats have no JSON
/// encoding and are an error.
pub fn write_json(value: &Value) -> Result<String, String> {
    let mut out = String::new();
    write_value(value, &mut out)?;
    Ok(out)
}

fn write_value(value: &Value, out: &mut String) -> Result<(), String> {
    match value {
        Value::Unit => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => write_int(*i, out),
        Value::Float(x) => write_float(*x, out)?,
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out)?;
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_value(item, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

/// Append the canonical encoding of the float `x` to `out`: shortest
/// round-trip `Display`, `-0.0` kept signed, and an error (with `out`
/// untouched) for a non-finite value.
pub fn write_float(x: f64, out: &mut String) -> Result<(), String> {
    if !x.is_finite() {
        return Err(format!("cannot serialize non-finite float {x} as JSON"));
    }
    if x == 0.0 && x.is_sign_negative() {
        out.push_str("-0.0");
    } else {
        let _ = write!(out, "{x}");
    }
    Ok(())
}

/// Append the encoding of the integer `i` to `out`.
pub fn write_int(i: i128, out: &mut String) {
    let _ = write!(out, "{i}");
}

/// Append `s` to `out` as a quoted, escaped JSON string. Runs of
/// characters that need no escape are copied in one piece.
pub fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut rest = s;
    // Every escaped character is ASCII, so a match is always a char
    // boundary.
    while let Some(pos) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        out.push_str(&rest[..pos]);
        match rest.as_bytes()[pos] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[pos + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// Parse one JSON document; trailing content after the value is an error.
pub fn parse_json(src: &str) -> Result<Value, TomlError> {
    let mut p = JsonParser::new(src);
    p.skip_filler();
    let v = p.parse_value()?;
    p.skip_filler();
    if let Some(c) = p.peek() {
        return Err(p.err(format!("unexpected `{c}` after JSON value")));
    }
    Ok(v)
}

struct JsonParser {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    col: usize,
}

impl JsonParser {
    fn new(src: &str) -> Self {
        JsonParser {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> TomlError {
        TomlError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_filler(&mut self) {
        loop {
            match self.peek() {
                Some(' ' | '\t' | '\n' | '\r') => {
                    self.bump();
                }
                Some('/') if self.chars.get(self.pos + 1) == Some(&'/') => {
                    while !matches!(self.peek(), None | Some('\n')) {
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value, TomlError> {
        match self.peek() {
            Some('{') => self.parse_object(),
            Some('[') => self.parse_array(),
            Some('"') => Ok(Value::Str(self.parse_string()?)),
            Some('t') => self.parse_keyword("true", Value::Bool(true)),
            Some('f') => self.parse_keyword("false", Value::Bool(false)),
            Some('n') => self.parse_keyword("null", Value::Unit),
            Some(c) if c == '-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.err(format!("expected JSON value, found `{c}`"))),
            None => Err(self.err("expected JSON value, found end of input")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, TomlError> {
        for expected in word.chars() {
            if self.bump() != Some(expected) {
                return Err(self.err(format!("expected `{word}`")));
            }
        }
        Ok(value)
    }

    fn parse_object(&mut self) -> Result<Value, TomlError> {
        self.bump(); // '{'
        let mut entries: Vec<(String, Value)> = Vec::new();
        loop {
            self.skip_filler();
            if self.peek() == Some('}') {
                self.bump();
                return Ok(Value::Map(entries));
            }
            let key = self.parse_string()?;
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key `{key}`")));
            }
            self.skip_filler();
            if self.bump() != Some(':') {
                return Err(self.err("expected `:` after object key"));
            }
            self.skip_filler();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_filler();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some('}') => {
                    self.bump();
                    return Ok(Value::Map(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, TomlError> {
        self.bump(); // '['
        let mut items = Vec::new();
        loop {
            self.skip_filler();
            if self.peek() == Some(']') {
                self.bump();
                return Ok(Value::Seq(items));
            }
            items.push(self.parse_value()?);
            self.skip_filler();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some(']') => {
                    self.bump();
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, TomlError> {
        if self.bump() != Some('"') {
            return Err(self.err("expected string"));
        }
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('/') => out.push('/'),
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|c| c.to_digit(16))
                                .ok_or_else(|| self.err("bad \\u escape: expected 4 hex digits"))?;
                            code = code * 16 + d;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| self.err("bad \\u escape: invalid code point"))?,
                        );
                    }
                    Some(c) => return Err(self.err(format!("unknown escape `\\{c}`"))),
                    None => return Err(self.err("unterminated string")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, TomlError> {
        let mut tok = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                tok.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if !tok.contains(['.', 'e', 'E']) {
            if let Ok(n) = tok.parse::<i128>() {
                return Ok(Value::Int(n));
            }
        }
        tok.parse::<f64>()
            .ok()
            .filter(|f| f.is_finite())
            .map(Value::Float)
            .ok_or_else(|| self.err(format!("bad number `{tok}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_arrays_scalars() {
        let v = parse_json(
            r#"{
  // campaign header
  "seed": 53710, "name": "sweep",
  "loads": [0.5, 1.0, 1.5],
  "cluster": {"nodes": 4, "gpus_per_node": 16},
  "note": null,
}"#,
        )
        .expect("parse failed");
        assert_eq!(v.get("seed"), Some(&Value::Int(53710)));
        assert_eq!(v.get("note"), Some(&Value::Unit));
        assert_eq!(
            v.get("cluster").and_then(|c| c.get("gpus_per_node")),
            Some(&Value::Int(16))
        );
        assert_eq!(
            v.get("loads"),
            Some(&Value::Seq(vec![
                Value::Float(0.5),
                Value::Float(1.0),
                Value::Float(1.5)
            ]))
        );
    }

    #[test]
    fn errors_carry_position() {
        let err = parse_json("{\n  \"a\": 1\n  \"b\": 2\n}").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("expected `,` or `}`"), "{err}");

        let err = parse_json("{\"a\": }").unwrap_err();
        assert!(err.message.contains("expected JSON value"), "{err}");

        let err = parse_json("{\"a\": 1} trailing").unwrap_err();
        assert!(err.message.contains("after JSON value"), "{err}");
    }

    #[test]
    fn duplicate_keys_error() {
        let err = parse_json(r#"{"a": 1, "a": 2}"#).unwrap_err();
        assert!(err.message.contains("duplicate key `a`"), "{err}");
    }

    #[test]
    fn numbers_classify_int_vs_float() {
        let v = parse_json(r#"{"i": -12, "f": 2.5, "e": 1e3}"#).expect("parse failed");
        assert_eq!(v.get("i"), Some(&Value::Int(-12)));
        assert_eq!(v.get("f"), Some(&Value::Float(2.5)));
        assert_eq!(v.get("e"), Some(&Value::Float(1000.0)));
    }

    #[test]
    fn string_escapes() {
        let v = parse_json(r#"{"s": "a\nbA\"c\""}"#).expect("parse failed");
        assert_eq!(v.get("s"), Some(&Value::Str("a\nbA\"c\"".into())));
    }

    #[test]
    fn write_json_is_single_line_canonical() {
        let v = Value::Map(vec![
            ("name".into(), Value::Str("sweep\n\"x\"".into())),
            ("seed".into(), Value::Int(53710)),
            (
                "loads".into(),
                Value::Seq(vec![Value::Float(0.5), Value::Float(1.0)]),
            ),
            ("note".into(), Value::Unit),
            ("ok".into(), Value::Bool(true)),
        ]);
        let line = write_json(&v).expect("write failed");
        assert_eq!(
            line,
            r#"{"name":"sweep\n\"x\"","seed":53710,"loads":[0.5,1],"note":null,"ok":true}"#
        );
        assert!(!line.contains('\n'), "{line}");
    }

    #[test]
    fn write_json_round_trips_exactly() {
        // Floats that print without a fraction come back as Int; the shim's
        // f64 deserializer accepts Int, so struct round trips stay exact.
        for x in [
            0.0,
            -0.0,
            2.0,
            0.1,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            -123456.789e12,
        ] {
            let line = write_json(&Value::Float(x)).expect("write failed");
            let back = match parse_json(&line).expect("reparse failed") {
                Value::Float(f) => f,
                Value::Int(i) => i as f64,
                other => panic!("float serialized as {other:?}"),
            };
            assert_eq!(x.to_bits(), back.to_bits(), "{x} → {line} → {back}");
        }
        // Structures round-trip to identical bytes.
        let v = parse_json(r#"{"a": [1, 2.5, "s"], "b": {"c": null}}"#).unwrap();
        let line = write_json(&v).unwrap();
        assert_eq!(write_json(&parse_json(&line).unwrap()).unwrap(), line);
    }

    #[test]
    fn write_json_rejects_non_finite() {
        assert!(write_json(&Value::Float(f64::NAN)).is_err());
        assert!(write_json(&Value::Float(f64::INFINITY)).is_err());
    }

    #[test]
    fn write_json_escapes_control_chars() {
        let line = write_json(&Value::Str("a\u{1}b\tc".into())).unwrap();
        assert_eq!(line, r#""a\u0001b\tc""#);
        assert_eq!(parse_json(&line).unwrap(), Value::Str("a\u{1}b\tc".into()));
    }
}
