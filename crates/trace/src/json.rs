//! Minimal deterministic JSON emission and parsing.
//!
//! The observability layer must produce *bit-identical* payloads across
//! runs and across thread counts, so nothing here consults locale, hash
//! order, or allocator state:
//!
//! * floats render through Rust's shortest-roundtrip `{:?}` formatter
//!   (stable for a given value on every platform we build on);
//! * non-finite floats render as `null` (JSON has no NaN/Inf);
//! * object fields appear exactly in the order the builder receives them.
//!
//! The reading counterpart, [`Json`], is a recursive-descent parser that
//! accepts exactly the JSON the workspace emits (plus ordinary
//! whitespace) and keeps object fields in document order. Nesting is
//! capped at [`MAX_DEPTH`], so a hostile file fails with a [`JsonError`]
//! instead of overflowing the stack. It lives here —
//! rather than in the consumer crate — so checkpoint sidecars can be read
//! back anywhere above `eval-trace` in the crate graph.

use std::fmt;
use std::fmt::Write as _;

/// Escapes `s` into `out` as a JSON string literal (with quotes).
pub fn push_str_literal(out: &mut String, s: &str) {
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

/// Renders a float deterministically; non-finite values become `null`.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// An order-preserving JSON object builder.
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        push_str_literal(&mut self.buf, k);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        push_str_literal(&mut self.buf, v);
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a u128 field (span timings).
    pub fn u128(mut self, k: &str, v: u128) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a float field (`null` when non-finite).
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        push_f64(&mut self.buf, v);
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a pre-rendered JSON value verbatim (nested objects/arrays).
    pub fn raw(mut self, k: &str, json: &str) -> Self {
        self.key(k);
        self.buf.push_str(json);
        self
    }

    /// Closes the object and returns the rendered text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

/// Renders an array of items via a per-item renderer.
pub fn array<T>(items: &[T], mut render: impl FnMut(&T) -> String) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&render(item));
    }
    out.push(']');
    out
}

/// Renders a `f64` slice as a JSON array.
pub fn f64_array(items: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64(&mut out, *v);
    }
    out.push(']');
    out
}

/// Renders a `u64` slice as a JSON array.
pub fn u64_array(items: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// The deepest array/object nesting [`Json::parse`] accepts. The
/// workspace's emitters nest about four deep.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Objects preserve field order (they are small —
/// lookups are linear).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish int/float).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document field order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset on malformed input,
    /// including arrays and objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Object field by key (linear scan; `None` for non-objects too).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float (numbers only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer (numbers with no fraction).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
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

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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

    /// Convenience: `get(key)` then [`Json::as_f64`].
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Json::as_f64)
    }

    /// Convenience: `get(key)` then [`Json::as_u64`].
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Json::as_u64)
    }

    /// Convenience: `get(key)` then [`Json::as_str`].
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Description of the failure.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// `pos` only ever advances over ASCII bytes or over whole runs of
/// string content ending before an ASCII `"` or `\`, so it always sits
/// on a `char` boundary of `text`.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
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
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
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
                _ => return Err(self.err("expected `,` or `]` in array")),
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
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs do not occur in our emitters;
                            // map unpaired surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one slice: both are ASCII, so the run ends on a
                    // char boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_preserves_field_order_and_escapes() {
        let s = JsonObject::new()
            .str("a", "x\"y\n")
            .u64("b", 7)
            .f64("c", 0.25)
            .bool("d", true)
            .raw("e", "[1,2]")
            .finish();
        assert_eq!(s, "{\"a\":\"x\\\"y\\n\",\"b\":7,\"c\":0.25,\"d\":true,\"e\":[1,2]}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let s = JsonObject::new().f64("x", f64::NAN).f64("y", f64::INFINITY).finish();
        assert_eq!(s, "{\"x\":null,\"y\":null}");
    }

    #[test]
    fn float_rendering_is_shortest_roundtrip() {
        let mut out = String::new();
        push_f64(&mut out, 4.0);
        assert_eq!(out, "4.0");
        let mut out = String::new();
        push_f64(&mut out, 1e-4);
        assert_eq!(out, "0.0001");
    }

    #[test]
    fn arrays_render() {
        assert_eq!(f64_array(&[1.0, 2.5]), "[1.0,2.5]");
        assert_eq!(u64_array(&[3, 4]), "[3,4]");
        assert_eq!(array(&[1u64, 2], |v| format!("{v}")), "[1,2]");
    }

    #[test]
    fn parses_the_emitters_output_shapes() {
        let line = r#"{"kind":"event","event":"decision","payload":{"f_ghz":4.25,"settings":[{"vdd":1.0,"vbb":-0.1}],"ok":true,"v":null}}"#;
        let v = Json::parse(line).expect("parses");
        assert_eq!(v.str_field("kind"), Some("event"));
        let payload = v.get("payload").expect("payload");
        assert_eq!(payload.f64_field("f_ghz"), Some(4.25));
        let settings = payload.get("settings").and_then(Json::as_arr).expect("arr");
        assert_eq!(settings[0].f64_field("vbb"), Some(-0.1));
        assert_eq!(payload.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(payload.get("v"), Some(&Json::Null));
    }

    #[test]
    fn numbers_cover_negatives_exponents_and_integers() {
        assert_eq!(Json::parse("-1.5e-3").unwrap().as_f64(), Some(-0.0015));
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("4.5").unwrap().as_u64(), None);
    }

    #[test]
    fn strings_unescape() {
        let v = Json::parse(r#""a\"b\nA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\nA"));
    }

    #[test]
    fn nesting_past_the_depth_limit_is_an_error_not_a_stack_overflow() {
        let e = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH, "{e}");
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok());
        let too_deep = format!("{{\"a\":{deepest}}}");
        assert!(Json::parse(&too_deep).is_err());
    }

    #[test]
    fn multibyte_strings_round_trip() {
        for s in ["é", "日本", "🙂", "a\"é\\日\n🙂\u{1}"] {
            let mut lit = String::new();
            push_str_literal(&mut lit, s);
            assert_eq!(Json::parse(&lit).unwrap().as_str(), Some(s), "{lit}");
        }
    }

    #[test]
    fn errors_carry_an_offset() {
        let e = Json::parse("{\"a\":").unwrap_err();
        assert!(e.offset >= 4, "{e}");
        assert!(Json::parse("[1,2,]").is_err());
        assert!(Json::parse("{} junk").is_err());
    }

    #[test]
    fn object_field_order_is_preserved() {
        let v = Json::parse(r#"{"z":1,"a":2}"#).unwrap();
        match v {
            Json::Obj(fields) => {
                assert_eq!(fields[0].0, "z");
                assert_eq!(fields[1].0, "a");
            }
            other => panic!("not an object: {other:?}"),
        }
    }
}
