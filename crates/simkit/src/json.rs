//! A minimal, dependency-free JSON layer.
//!
//! The experiment session serialises [`RunReport`](../../simsys) structures to
//! JSON for the `--json` figure binaries. This workspace builds with no
//! registry access, so `serde`/`serde_json` cannot be used; this module is the
//! gated replacement: a [`Json`] value tree, a strict recursive-descent
//! parser, a writer, and the [`ToJson`]/[`FromJson`] conversion traits the
//! rest of the workspace implements. If the workspace ever gains network
//! access, swapping this for serde only requires replacing the trait impls —
//! the wire format is plain JSON either way.
//!
//! Design notes:
//!
//! * Objects preserve insertion order (a `Vec` of pairs, not a map), so
//!   serialisation is deterministic and reports diff cleanly.
//! * Integers are kept separate from floats ([`Json::UInt`]/[`Json::Int`] vs
//!   [`Json::Num`]) so `u64` counters round-trip exactly.
//! * Floats are written with Rust's shortest round-trip formatting, so an
//!   `f64` survives a serialise/parse cycle bit-for-bit (NaN/infinite values
//!   are rejected at write time — JSON cannot represent them).

use std::fmt;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the common case for counters and cycle counts).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// Any other finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up `key` in an object (`None` for other variants or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert losslessly where possible).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(v) => Some(*v as f64),
            Json::Int(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integer that fits.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises to a compact JSON string.
    ///
    /// # Panics
    /// Panics if the tree contains a NaN or infinite number; JSON has no
    /// representation for them and silently writing `null` would break the
    /// round-trip guarantee.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialises to an indented, human-readable JSON string.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Num(v) => {
                assert!(
                    v.is_finite(),
                    "cannot serialise non-finite number {v} to JSON"
                );
                // `{:?}` is Rust's shortest representation that parses back to
                // the same bits; force a decimal point so the value re-parses
                // as a float rather than an integer.
                let text = format!("{v:?}");
                out.push_str(&text);
                if !text.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Json::Obj(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i| {
                    write_escaped(out, &pairs[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    pairs[i].1.write(out, indent, depth + 1);
                });
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i);
    }
    if len > 0 {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * depth));
        }
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Error produced when parsing or decoding JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    /// Byte offset of the error in the input (`None` for decode errors).
    pub offset: Option<usize>,
}

impl JsonError {
    /// Creates a decode (shape-mismatch) error.
    pub fn decode(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: None,
        }
    }

    fn parse(message: impl Into<String>, offset: usize) -> Self {
        JsonError {
            message: message.into(),
            offset: Some(offset),
        }
    }

    /// Convenience for "expected field X" decode errors.
    pub fn missing(field: &str) -> Self {
        JsonError::decode(format!("missing or mistyped field `{field}`"))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(at) => write!(f, "JSON parse error at byte {at}: {}", self.message),
            None => write!(f, "JSON decode error: {}", self.message),
        }
    }
}

impl std::error::Error for JsonError {}

/// Parses a JSON document. Trailing non-whitespace input is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::parse(
            "trailing characters after document",
            p.pos,
        ));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::parse(
                format!("expected `{}`", b as char),
                self.pos,
            ))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(JsonError::parse(format!("expected `{text}`"), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(JsonError::parse(
                format!("unexpected `{}`", c as char),
                self.pos,
            )),
            None => Err(JsonError::parse("unexpected end of input", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::parse("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(JsonError::parse("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote,
            // backslash or control byte in one step. Those stop bytes are
            // ASCII and the input is a `&str`, so the run is whole UTF-8
            // characters; validating only the run keeps parsing linear in
            // the document size.
            let run_start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            let run = std::str::from_utf8(&self.bytes[run_start..self.pos])
                .map_err(|_| JsonError::parse("invalid UTF-8", run_start))?;
            out.push_str(run);
            match self.peek() {
                None => return Err(JsonError::parse("unterminated string", self.pos)),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| JsonError::parse("invalid \\u escape", self.pos))?;
                            // Surrogate pairs are not needed for our reports;
                            // reject them rather than mis-decode.
                            let c = char::from_u32(hex).ok_or_else(|| {
                                JsonError::parse("\\u escape is not a scalar value", self.pos)
                            })?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(JsonError::parse("invalid escape", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(JsonError::parse("control character in string", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::parse("invalid number", start))?;
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError::parse(format!("invalid number `{text}`"), start))
    }
}

/// Conversion of a value into a [`Json`] tree.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

/// Reconstruction of a value from a [`Json`] tree.
pub trait FromJson: Sized {
    /// Rebuilds the value, or explains which field failed.
    ///
    /// # Errors
    /// Returns a [`JsonError`] naming the missing or mistyped field.
    fn from_json(json: &Json) -> Result<Self, JsonError>;
}

impl ToJson for crate::stats::StatSet {
    fn to_json(&self) -> Json {
        let counters: Vec<(String, Json)> = self
            .iter_counters()
            .map(|(k, v)| (k.to_string(), Json::UInt(v)))
            .collect();
        let scalars: Vec<(String, Json)> = self
            .iter_scalars()
            .map(|(k, v)| (k.to_string(), Json::Num(v)))
            .collect();
        Json::obj([
            ("counters", Json::Obj(counters)),
            ("scalars", Json::Obj(scalars)),
        ])
    }
}

impl FromJson for crate::stats::StatSet {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let mut stats = crate::stats::StatSet::new();
        let counters = match json.get("counters") {
            Some(Json::Obj(pairs)) => pairs,
            _ => return Err(JsonError::missing("counters")),
        };
        for (name, value) in counters {
            stats.add(
                name,
                value.as_u64().ok_or_else(|| JsonError::missing(name))?,
            );
        }
        let scalars = match json.get("scalars") {
            Some(Json::Obj(pairs)) => pairs,
            _ => return Err(JsonError::missing("scalars")),
        };
        for (name, value) in scalars {
            stats.set_scalar(
                name,
                value.as_f64().ok_or_else(|| JsonError::missing(name))?,
            );
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StatSet;

    #[test]
    fn scalars_round_trip() {
        for input in ["null", "true", "false", "0", "42", "-17", "3.5", "1e3"] {
            let v = parse(input).unwrap();
            let again = parse(&v.to_string_compact()).unwrap();
            assert_eq!(v, again, "round-trip failed for {input}");
        }
        assert_eq!(parse("42").unwrap(), Json::UInt(42));
        assert_eq!(parse("-17").unwrap(), Json::Int(-17));
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1234.5678e-12,
            2.0_f64.powi(60),
        ] {
            let text = Json::Num(v).to_string_compact();
            let parsed = parse(&text).unwrap();
            assert_eq!(parsed.as_f64().unwrap().to_bits(), v.to_bits(), "{text}");
        }
    }

    #[test]
    fn large_u64_round_trips_exactly() {
        let v = u64::MAX - 3;
        let parsed = parse(&Json::UInt(v).to_string_compact()).unwrap();
        assert_eq!(parsed.as_u64(), Some(v));
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let original = "a \"quoted\" string\nwith\ttabs, unicode µops and \\ slashes";
        let text = Json::Str(original.to_string()).to_string_compact();
        assert_eq!(parse(&text).unwrap().as_str(), Some(original));
        assert_eq!(parse(r#""µops""#).unwrap().as_str(), Some("µops"));
    }

    #[test]
    fn long_strings_parse_in_runs_between_escapes() {
        let piece = r#"plain µops → ünïcödé \"q\" \\ \n\té "#;
        let text = format!("\"{}\"", piece.repeat(2000));
        let decoded = "plain µops → ünïcödé \"q\" \\ \n\té ".repeat(2000);
        assert_eq!(parse(&text).unwrap().as_str(), Some(decoded.as_str()));
        // A raw control character is rejected at its own offset, also after
        // multi-byte characters in the same run.
        let err = parse("\"aµb\u{1}c\"").unwrap_err();
        assert_eq!(err, JsonError::parse("control character in string", 5));
        assert!(parse("\"abc").is_err());
        assert!(parse(r#""ab\"#).is_err());
    }

    #[test]
    fn objects_preserve_order_and_lookup_works() {
        let v = parse(r#"{"zeta": 1, "alpha": [1, 2, {"x": true}], "mid": null}"#).unwrap();
        let Json::Obj(pairs) = &v else {
            panic!("expected object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["zeta", "alpha", "mid"]);
        assert_eq!(v.get("zeta").and_then(Json::as_u64), Some(1));
        assert_eq!(
            v.get("alpha").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = parse(r#"{"a": [1, 2.5, "x"], "b": {"c": false}}"#).unwrap();
        assert_eq!(parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "[1]]",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn statset_round_trips() {
        let mut stats = StatSet::new();
        stats.add("cycles", 12345);
        stats.add("muontrap.l0d_hits", u64::MAX / 2);
        stats.set_scalar("ipc", 1.0 / 3.0);
        let json = stats.to_json();
        let back = StatSet::from_json(&parse(&json.to_string_compact()).unwrap()).unwrap();
        assert_eq!(back, stats);
    }
}
