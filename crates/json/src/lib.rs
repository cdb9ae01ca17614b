//! Hand-rolled, dependency-free JSON for experiment artifacts.
//!
//! The build environment has no network access and the vendored `serde`
//! derives are no-ops, so this crate supplies the machine-readable
//! persistence layer the experiment pipeline needs: a [`Json`] value
//! model, a writer with full string escaping and **non-finite-float
//! rejection**, a recursive-descent reader sufficient to load artifacts
//! and baselines back, and the [`ToJson`] / [`FromJson`] traits the
//! workspace types implement.
//!
//! Design points:
//!
//! * **Integer fidelity** — [`Number`] keeps `u64` / `i64` values exact
//!   instead of routing everything through `f64`, so 64-bit seeds and
//!   counters read back exactly (`read(write(x)) == x` for every `u64`,
//!   the property `crates/sim/tests/json_roundtrip.rs` enforces).
//! * **Non-finite rejection** — JSON has no NaN/Infinity token. Rendering
//!   a non-finite number returns [`JsonError::NonFinite`] rather than
//!   emitting an unparseable artifact.
//! * **Deterministic output** — objects preserve insertion order; the
//!   writer is byte-stable for a given value, so artifacts diff cleanly.
//! * **Schema versioning** — artifact writers stamp a top-level
//!   `"schema"` field; [`check_schema`] validates it against the expected
//!   `name/vN` tag.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// A JSON number, keeping 64-bit integers exact.
///
/// The parser produces [`Number::U`] for unsigned integer tokens,
/// [`Number::I`] for negative integer tokens, and [`Number::F`] for
/// anything with a fraction or exponent, so the writer/parser pair is
/// variant-stable: a value round-trips to the same variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    U(u64),
    /// A negative integer.
    I(i64),
    /// A float (finite values render; non-finite values are rejected at
    /// write time).
    F(f64),
}

impl Number {
    /// The value as `f64`, lossy above 2^53.
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::U(v) => v as f64,
            Number::I(v) => v as f64,
            Number::F(v) => v,
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U(v) => Some(v),
            Number::I(v) => u64::try_from(v).ok(),
            Number::F(v) if v >= 0.0 && v.fract() == 0.0 && v <= 2f64.powi(53) => Some(v as u64),
            Number::F(_) => None,
        }
    }

    /// The value as `i64` if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::U(v) => i64::try_from(v).ok(),
            Number::I(v) => Some(v),
            Number::F(v) if v.fract() == 0.0 && v.abs() <= 2f64.powi(53) => Some(v as i64),
            Number::F(_) => None,
        }
    }

    /// Whether the value is finite (integers always are).
    pub fn is_finite(&self) -> bool {
        match *self {
            Number::F(v) => v.is_finite(),
            _ => true,
        }
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; see [`Number`].
    Num(Number),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Insertion-ordered; duplicate keys are not deduplicated
    /// (the reader keeps the first match on lookup).
    Obj(Vec<(String, Json)>),
}

/// Errors from rendering or parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// A non-finite float reached the writer.
    NonFinite,
    /// Parse error: message plus byte offset.
    Parse(String, usize),
    /// A [`FromJson`] conversion found the wrong shape.
    Shape(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::NonFinite => write!(f, "non-finite float cannot be rendered as JSON"),
            JsonError::Parse(msg, at) => write!(f, "JSON parse error at byte {at}: {msg}"),
            JsonError::Shape(msg) => write!(f, "JSON shape mismatch: {msg}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from key/value pairs (insertion order preserved).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Looks up a key in an object (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_num(&self) -> Option<Number> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders compact JSON. Fails with [`JsonError::NonFinite`] if any
    /// number in the tree is NaN or infinite.
    pub fn render(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write(&mut out, None, 0)?;
        Ok(out)
    }

    /// Renders human-readable JSON indented by two spaces per level.
    pub fn render_pretty(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0)?;
        out.push('\n');
        Ok(out)
    }

    /// Visits every number in the tree; returns the first non-finite one
    /// (artifact validators use this to reject NaN-bearing documents even
    /// if they were produced elsewhere).
    pub fn first_non_finite(&self) -> Option<f64> {
        match self {
            Json::Num(n) if !n.is_finite() => Some(n.as_f64()),
            Json::Arr(items) => items.iter().find_map(Json::first_non_finite),
            Json::Obj(pairs) => pairs.iter().find_map(|(_, v)| v.first_non_finite()),
            _ => None,
        }
    }

    fn write(
        &self,
        out: &mut String,
        indent: Option<usize>,
        level: usize,
    ) -> Result<(), JsonError> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if !n.is_finite() {
                    return Err(JsonError::NonFinite);
                }
                match *n {
                    Number::U(v) => out.push_str(&v.to_string()),
                    Number::I(v) => out.push_str(&v.to_string()),
                    // `{:?}` is Rust's shortest round-trip representation;
                    // it always keeps a `.` or exponent for finite floats,
                    // so the parser reads it back as `Number::F`.
                    Number::F(v) => out.push_str(&format!("{v:?}")),
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    item.write(out, indent, level + 1)?;
                }
                if !items.is_empty() {
                    newline_indent(out, indent, level);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1)?;
                }
                if !pairs.is_empty() {
                    newline_indent(out, indent, level);
                }
                out.push('}');
            }
        }
        Ok(())
    }

    /// Parses a JSON document (one value plus trailing whitespace).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::Parse("trailing characters".into(), p.pos));
        }
        Ok(value)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError::Parse(msg.into(), self.pos))
    }

    fn skip_ws(&mut self) {
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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            self.err(format!("expected '{lit}'"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null").map(|_| Json::Null),
            Some(b't') => self.eat_literal("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat_literal("false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => self.err(format!("unexpected character '{}'", other as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
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
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
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
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume the unescaped run in one go (UTF-8 passes through).
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError::Parse("invalid UTF-8".into(), start))?,
            );
            match self.peek() {
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return self.err("invalid low surrogate");
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return self.err("invalid unicode escape"),
                            }
                            continue; // hex4 advanced past the escape
                        }
                        _ => return self.err("invalid escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => return self.err("control character in string"),
                None => return self.err("unterminated string"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| JsonError::Parse("truncated \\u escape".into(), self.pos))?;
        let s = std::str::from_utf8(slice)
            .map_err(|_| JsonError::Parse("invalid \\u escape".into(), self.pos))?;
        let v = u32::from_str_radix(s, 16)
            .map_err(|_| JsonError::Parse("invalid \\u escape".into(), self.pos))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if is_float {
            let v: f64 = text
                .parse()
                .map_err(|_| JsonError::Parse(format!("invalid number '{text}'"), start))?;
            if !v.is_finite() {
                return Err(JsonError::Parse(
                    format!("non-finite number '{text}'"),
                    start,
                ));
            }
            Ok(Json::Num(Number::F(v)))
        } else if text.starts_with('-') {
            // Parse the signed token whole so i64::MIN (whose magnitude
            // overflows a positive i64) round-trips.
            let v: i64 = text
                .parse()
                .map_err(|_| JsonError::Parse(format!("integer overflow '{text}'"), start))?;
            Ok(Json::Num(Number::I(v)))
        } else {
            let v: u64 = text
                .parse()
                .map_err(|_| JsonError::Parse(format!("integer overflow '{text}'"), start))?;
            Ok(Json::Num(Number::U(v)))
        }
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

/// Conversion back from a [`Json`] value.
pub trait FromJson: Sized {
    /// Reconstructs the value, or reports the first shape mismatch.
    fn from_json(json: &Json) -> Result<Self, JsonError>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_bool()
            .ok_or_else(|| JsonError::Shape("expected bool".into()))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        // Non-finite values are representable in the tree but rejected at
        // render time ([`JsonError::NonFinite`]).
        Json::Num(Number::F(*self))
    }
}

impl FromJson for f64 {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json.as_num() {
            Some(Number::F(v)) => Ok(v),
            Some(n) => Ok(n.as_f64()),
            None => Err(JsonError::Shape("expected number".into())),
        }
    }
}

macro_rules! json_uint {
    ($($t:ty),* $(,)?) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(Number::U(*self as u64))
            }
        }

        impl FromJson for $t {
            fn from_json(json: &Json) -> Result<Self, JsonError> {
                let n = json
                    .as_num()
                    .and_then(|n| n.as_u64())
                    .ok_or_else(|| JsonError::Shape("expected unsigned integer".into()))?;
                <$t>::try_from(n)
                    .map_err(|_| JsonError::Shape("unsigned integer out of range".into()))
            }
        }
    )*};
}

json_uint!(u8, u16, u32, u64, usize);

macro_rules! json_int {
    ($($t:ty),* $(,)?) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let v = *self as i64;
                if v >= 0 {
                    Json::Num(Number::U(v as u64))
                } else {
                    Json::Num(Number::I(v))
                }
            }
        }

        impl FromJson for $t {
            fn from_json(json: &Json) -> Result<Self, JsonError> {
                let n = json
                    .as_num()
                    .and_then(|n| n.as_i64())
                    .ok_or_else(|| JsonError::Shape("expected integer".into()))?;
                <$t>::try_from(n)
                    .map_err(|_| JsonError::Shape("integer out of range".into()))
            }
        }
    )*};
}

json_int!(i8, i16, i32, i64, isize);

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl FromJson for String {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_str()
            .map(str::to_owned)
            .ok_or_else(|| JsonError::Shape("expected string".into()))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_arr()
            .ok_or_else(|| JsonError::Shape("expected array".into()))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

/// Reads a required object field and converts it.
pub fn field<T: FromJson>(obj: &Json, key: &str) -> Result<T, JsonError> {
    let v = obj
        .get(key)
        .ok_or_else(|| JsonError::Shape(format!("missing field '{key}'")))?;
    T::from_json(v).map_err(|e| JsonError::Shape(format!("field '{key}': {e}")))
}

/// Reads an optional object field: `Ok(None)` when the key is absent or
/// `null`, the conversion error when present but malformed.
pub fn opt_field<T: FromJson>(obj: &Json, key: &str) -> Result<Option<T>, JsonError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => T::from_json(v)
            .map(Some)
            .map_err(|e| JsonError::Shape(format!("field '{key}': {e}"))),
    }
}

/// Validates an artifact's top-level `"schema"` tag against `expected`
/// (exact match, e.g. `"bcount-experiments/v1"`).
pub fn check_schema(doc: &Json, expected: &str) -> Result<(), JsonError> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(tag) if tag == expected => Ok(()),
        Some(tag) => Err(JsonError::Shape(format!(
            "schema mismatch: found '{tag}', expected '{expected}'"
        ))),
        None => Err(JsonError::Shape("missing top-level 'schema' field".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render().unwrap(), "null");
        assert_eq!(Json::Bool(true).render().unwrap(), "true");
        assert_eq!(Json::Num(Number::U(42)).render().unwrap(), "42");
        assert_eq!(Json::Num(Number::I(-7)).render().unwrap(), "-7");
        assert_eq!(Json::Num(Number::F(1.5)).render().unwrap(), "1.5");
        assert_eq!(Json::Str("hi".into()).render().unwrap(), "\"hi\"");
    }

    #[test]
    fn rejects_non_finite() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Json::obj(vec![("x", bad.to_json())]);
            assert_eq!(doc.render(), Err(JsonError::NonFinite));
            assert!(doc.first_non_finite().is_some());
        }
        assert!(Json::parse("1e999").is_err());
    }

    #[test]
    fn escapes_and_unescapes() {
        let s = "a\"b\\c\nd\te\r\u{08}\u{0C}\u{01}é—\u{1F600}";
        let rendered = Json::Str(s.into()).render().unwrap();
        assert_eq!(Json::parse(&rendered).unwrap(), Json::Str(s.into()));
        // Escapes of the JSON spec parse too, including surrogate pairs.
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\\ud83d\\ude00\\/\"").unwrap(),
            Json::Str("Aé\u{1F600}/".into())
        );
    }

    #[test]
    fn parses_nested_documents() {
        let doc =
            Json::parse(r#"{ "schema": "t/v1", "xs": [1, -2, 3.5, null, true], "o": {"k": "v"} }"#)
                .unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("t/v1"));
        let xs = doc.get("xs").unwrap().as_arr().unwrap();
        assert_eq!(xs[0], Json::Num(Number::U(1)));
        assert_eq!(xs[1], Json::Num(Number::I(-2)));
        assert_eq!(xs[2], Json::Num(Number::F(3.5)));
        assert_eq!(xs[3], Json::Null);
        assert_eq!(doc.get("o").unwrap().get("k").unwrap().as_str(), Some("v"));
        assert!(check_schema(&doc, "t/v1").is_ok());
        assert!(check_schema(&doc, "t/v2").is_err());
    }

    #[test]
    fn u64_round_trips_exactly() {
        let v = u64::MAX;
        let rendered = v.to_json().render().unwrap();
        assert_eq!(rendered, "18446744073709551615");
        let back = u64::from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn i64_extremes_round_trip() {
        for v in [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX] {
            let rendered = v.to_json().render().unwrap();
            let back = i64::from_json(&Json::parse(&rendered).unwrap()).unwrap();
            assert_eq!(back, v, "{rendered}");
        }
        // One past i64::MIN still overflows and must error, not wrap.
        assert!(Json::parse("-9223372036854775809").is_err());
    }

    #[test]
    fn float_round_trips_via_shortest_repr() {
        for v in [0.1, -1.0e-300, 2.0f64.powi(60), std::f64::consts::PI] {
            let rendered = v.to_json().render().unwrap();
            let back = f64::from_json(&Json::parse(&rendered).unwrap()).unwrap();
            assert_eq!(back, v, "{rendered}");
        }
    }

    #[test]
    fn pretty_output_reparses_identically() {
        let doc = Json::obj(vec![
            ("a", vec![1u64, 2, 3].to_json()),
            (
                "b",
                Json::obj(vec![("c", "d".to_json()), ("e", Json::Arr(vec![]))]),
            ),
        ]);
        let pretty = doc.render_pretty().unwrap();
        assert!(pretty.contains("\n  \"a\""));
        assert_eq!(Json::parse(&pretty).unwrap(), doc);
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "01x",
            "[1]extra",
            "\"\\u12\"",
            "{\"a\":}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn option_and_vec_round_trip() {
        let v: Vec<Option<u32>> = vec![Some(1), None, Some(3)];
        let back: Vec<Option<u32>> =
            Vec::from_json(&Json::parse(&v.to_json().render().unwrap()).unwrap()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn field_reports_missing_keys() {
        let doc = Json::obj(vec![("a", 1u64.to_json())]);
        assert_eq!(field::<u64>(&doc, "a").unwrap(), 1);
        assert!(field::<u64>(&doc, "b").is_err());
        assert!(field::<String>(&doc, "a").is_err());
    }
}
