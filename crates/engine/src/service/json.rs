//! A self-contained JSON value module: the writers every encoder streams
//! through, a tree type with its serializer, and a small recursive-descent
//! parser.
//!
//! The environment has no serde, and the old hand-rolled `to_json` in
//! `report.rs` was write-only — nothing could read its output back.  The
//! wire protocol needs *round-trippable* encoding: a report encoded on the
//! daemon must decode on the client into the identical report, and encoding
//! it again must reproduce the identical bytes (that is what makes
//! `silp --connect` byte-identical to `silp --in-process`).
//!
//! Representation choices that make the round trip exact:
//!
//! * objects are ordered `Vec<(String, Json)>`, not maps — field order is
//!   part of the encoding and survives parse → encode;
//! * integers and floats are distinct variants: `1` parses as [`Json::Int`]
//!   and re-encodes as `1`, while floats always encode with a `.` or
//!   exponent (`2.0`, never `2`) so they parse back as [`Json::Float`];
//! * float text is Rust's shortest round-trip representation, so
//!   `parse(encode(f)) == f` bit-for-bit for every finite `f`;
//! * every control character (U+0000–U+001F) is escaped on output and every
//!   escape (including `\uXXXX` surrogate pairs) is understood on input.

use std::fmt::Write as _;

/// A JSON value.  Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number written without fraction or exponent.
    Int(i64),
    /// A number written with a fraction or exponent; always re-encoded with
    /// one so the int/float distinction survives a round trip.
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs, preserving their order.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Look up a member of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Numeric value as a float (ints coerce).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Render to a compact JSON string (no whitespace).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        encode_json(self, &mut out);
        out
    }

    /// Parse one JSON value from `src` (trailing garbage is an error).
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing characters after the value"));
        }
        Ok(value)
    }
}

/// Write `value` as compact JSON text (no whitespace).
pub(crate) fn encode_json(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(n) => encode_int(n, out),
        Json::Float(f) => encode_float(*f, out),
        Json::Str(s) => encode_str(s, out),
        Json::Arr(items) => encode_array(items, out, encode_json),
        Json::Obj(fields) => encode_object(fields, out, encode_json),
    }
}

/// Write `fields` as a JSON object, in their order, each value by `value`.
pub(crate) fn encode_object<'a, V: 'a>(
    fields: impl IntoIterator<Item = &'a (String, V)>,
    out: &mut String,
    mut value: impl FnMut(&V, &mut String),
) {
    out.push('{');
    for (i, (key, field)) in fields.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode_str(key, out);
        out.push(':');
        value(field, out);
    }
    out.push('}');
}

/// Write `items` as a JSON array, each one by `item`.
pub(crate) fn encode_array<I: IntoIterator>(
    items: I,
    out: &mut String,
    mut item: impl FnMut(I::Item, &mut String),
) {
    out.push('[');
    for (i, value) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(value, out);
    }
    out.push(']');
}

/// Write an integer in decimal, straight into `out`.
pub(crate) fn encode_int(n: impl std::fmt::Display, out: &mut String) {
    let _ = write!(out, "{n}");
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Write `value` as [`hex64`] does, without going through a formatter.
pub(crate) fn encode_hex64(value: u64, out: &mut String) {
    let mut text = *b"\"0000000000000000\"";
    for (i, digit) in text[1..17].iter_mut().enumerate() {
        *digit = HEX_DIGITS[(value >> (60 - 4 * i)) as usize & 0xf];
    }
    out.push_str(std::str::from_utf8(&text).expect("ASCII hex"));
}

/// Floats always carry a `.` or an exponent so they never collide with the
/// integer syntax: `2.0` encodes as `"2.0"`, not `"2"`.  The digits are
/// Rust's shortest representation that parses back to the same bits.
pub(crate) fn encode_float(f: f64, out: &mut String) {
    if !f.is_finite() {
        // JSON has no NaN/Infinity; reports never produce them.
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{f}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Whether `b` cannot appear raw inside a JSON string literal.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// Write `s` as a JSON string literal, escaping `"`/`\` and *every* control
/// character U+0000–U+001F (the common ones by name, the rest as `\u00XX`).
/// Runs that need no escape are copied whole: every byte that does is
/// ASCII, so each run ends on a scalar boundary.
pub(crate) fn encode_str(s: &str, out: &mut String) {
    out.push('"');
    let mut rest = s;
    while let Some(at) = rest.bytes().position(needs_escape) {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// Escape a string for embedding in a JSON string literal (without the
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    encode_str(s, &mut out);
    out.pop();
    out.remove(0);
    out
}

/// Where and why a parse failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting the parser accepts.  The protocol's own
/// messages nest 4–5 levels; the bound exists so a hostile wire line of
/// 100k `[`s errors out instead of overflowing the connection thread's
/// stack and aborting the whole daemon.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn descend(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.descend()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.descend()?;
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let scalar = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(scalar)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.err("lone surrogate escape"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the whole run up to the next byte that needs
                    // attention.  `"`, `\` and control bytes are ASCII, so
                    // the run starts and ends on scalar boundaries of the
                    // (valid UTF-8) input; validating only the run keeps
                    // decoding linear in line length.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| needs_escape(b))
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid utf-8"))?;
                    self.pos += len;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(digits).map_err(|_| self.err("invalid \\u escape"))?;
        let unit = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("integer out of range"))
        }
    }
}

/// Encode a `u64` fingerprint/digest the way the reports always have: a
/// 16-digit lowercase hex string.
pub fn hex64(value: u64) -> Json {
    Json::Str(format!("{value:016x}"))
}

/// Decode a [`hex64`]-encoded value.
pub fn parse_hex64(value: &Json) -> Result<u64, String> {
    let s = value.as_str().ok_or("expected a hex string")?;
    u64::from_str_radix(s, 16).map_err(|e| format!("invalid hex u64 {s:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for src in [
            "null", "true", "false", "0", "-17", "42", "1.5", "-0.25", "1e3",
        ] {
            let value = Json::parse(src).unwrap();
            let encoded = value.encode();
            assert_eq!(Json::parse(&encoded).unwrap(), value, "{src}");
            assert_eq!(Json::parse(&encoded).unwrap().encode(), encoded, "{src}");
        }
    }

    #[test]
    fn ints_and_floats_stay_distinct() {
        assert_eq!(Json::parse("2").unwrap(), Json::Int(2));
        assert_eq!(Json::parse("2.0").unwrap(), Json::Float(2.0));
        assert_eq!(Json::Float(2.0).encode(), "2.0");
        assert_eq!(Json::Int(2).encode(), "2");
        assert_eq!(Json::parse("1e3").unwrap().encode(), "1000.0");
    }

    #[test]
    fn every_control_character_escapes_and_parses() {
        for code in 0u32..0x20 {
            let c = char::from_u32(code).unwrap();
            let original = Json::Str(format!("a{c}b"));
            let encoded = original.encode();
            assert!(
                !encoded.bytes().any(|b| b < 0x20),
                "raw control byte {code:#x} leaked into {encoded:?}"
            );
            assert_eq!(Json::parse(&encoded).unwrap(), original, "U+{code:04X}");
        }
    }

    #[test]
    fn named_escapes_are_used() {
        assert_eq!(
            Json::Str("\u{08}\u{0c}\n\r\t\"\\".into()).encode(),
            r#""\b\f\n\r\t\"\\""#
        );
    }

    #[test]
    fn unicode_and_surrogate_escapes_parse() {
        assert_eq!(Json::parse(r#""Aé😀""#).unwrap(), Json::Str("Aé😀".into()));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(Json::parse(r#""\ude00""#).is_err(), "lone low surrogate");
    }

    /// String decoding is linear in the string's length: a quadratic scan
    /// (re-validating the rest of the input per character) takes minutes
    /// on these sizes, far outside the test budget.
    #[test]
    fn megabyte_strings_parse_and_round_trip() {
        const LEN: usize = 2 << 20;
        let plain = "x".repeat(LEN);
        let mut mixed = String::with_capacity(LEN + LEN / 128);
        while mixed.len() < LEN {
            mixed.push_str(&"y".repeat(1024));
            mixed.push_str("\n\"é😀\\");
        }
        for text in [plain, mixed] {
            let original = Json::obj(vec![("source", Json::Str(text))]);
            let encoded = original.encode();
            let started = std::time::Instant::now();
            let decoded = Json::parse(&encoded).unwrap();
            assert!(
                started.elapsed() < std::time::Duration::from_secs(5),
                "decoding {} bytes took {:?}",
                encoded.len(),
                started.elapsed()
            );
            assert_eq!(decoded, original);
            assert_eq!(decoded.encode(), encoded);
        }
    }

    #[test]
    fn object_field_order_is_preserved() {
        let src = r#"{"b":1,"a":[true,null],"c":{"x":"y"}}"#;
        let value = Json::parse(src).unwrap();
        assert_eq!(value.encode(), src);
        assert_eq!(value.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            value.get("c").unwrap().get("x").unwrap().as_str(),
            Some("y")
        );
    }

    #[test]
    fn whitespace_is_tolerated_but_not_reproduced() {
        let value = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(value.encode(), r#"{"a":[1,2]}"#);
    }

    #[test]
    fn malformed_inputs_error_with_position() {
        for src in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "\"\u{1}\"",
            "1.2.3",
            "[] []",
        ] {
            let err = Json::parse(src).unwrap_err();
            assert!(!err.message.is_empty(), "{src:?} -> {err}");
        }
        assert_eq!(Json::parse("[1,]").unwrap_err().offset, 3);
    }

    #[test]
    fn float_text_round_trips_exactly() {
        for f in [0.1, 1.0 / 3.0, 12345.6789, 2.0, 1e-8, f64::MAX] {
            let encoded = Json::Float(f).encode();
            match Json::parse(&encoded).unwrap() {
                Json::Float(back) => assert_eq!(back.to_bits(), f.to_bits(), "{encoded}"),
                other => panic!("{encoded} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_nesting_errors_instead_of_overflowing() {
        let deep_arrays = "[".repeat(100_000);
        assert!(Json::parse(&deep_arrays).is_err());
        let deep_objects = "{\"k\":".repeat(100_000);
        assert!(Json::parse(&deep_objects).is_err());
        // 100 levels (within the bound) still parse, and siblings do not
        // accumulate depth.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
        let wide = format!("[{}]", vec!["[1]"; 500].join(","));
        assert!(Json::parse(&wide).is_ok(), "500 sibling arrays are shallow");
    }

    #[test]
    fn hex64_round_trips() {
        for v in [0u64, 1, 0xabcdef0123456789, u64::MAX] {
            assert_eq!(parse_hex64(&hex64(v)).unwrap(), v);
        }
    }

    #[test]
    fn hex_writer_matches_hex64() {
        for v in [0u64, 1, 0xabcdef0123456789, u64::MAX] {
            let mut out = String::new();
            encode_hex64(v, &mut out);
            assert_eq!(out, hex64(v).encode());
        }
    }

    #[test]
    fn escape_helper_matches_encoder() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
