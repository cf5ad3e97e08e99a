//! A minimal JSON document builder and parser.
//!
//! The build environment is fully offline (no serde), so every
//! machine-readable artifact in the workspace — probe run reports, the
//! per-harness `--json` outputs, `claims_report.json`, the statics and
//! profile artifacts, and every [`crate::stream`] frame — is constructed
//! from this small value type and serialized with [`std::fmt::Display`];
//! it lives in this leaf crate so every layer above can use it. The
//! parser exists so the same artifacts can be read back (baseline
//! diffing, the serve wire protocol) and so round-trip tests can pin the
//! schemas. Objects preserve insertion order, floats render via Rust's
//! shortest-roundtrip `Display` (which never emits `NaN`/`inf` — those
//! become `null`), and `u64` counters are kept lossless rather than
//! squeezed through `f64`.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, rendered losslessly.
    UInt(u64),
    /// A floating-point number; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Creates an empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts a key into an object, builder style.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() on a non-object"),
        }
        self
    }

    /// Looks a key up in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64` (accepts both number variants).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document from text.
    ///
    /// Strict enough for the workspace's own artifacts and hardened for
    /// adversarial ones (the `noxsim serve` daemon feeds client-supplied
    /// bytes through here): rejects trailing garbage, unterminated
    /// strings, malformed or non-finite numbers (`1e999` overflows
    /// `f64` and is an error, not `inf`), invalid `\u` escapes
    /// (surrogate halves included), and documents nested deeper than
    /// [`MAX_DEPTH`] — truncated or hostile input returns `Err`, never
    /// panics, recurses without bound, or allocates more than a small
    /// multiple of the input size. Unicode escapes cover the Basic
    /// Multilingual Plane (no surrogate pairs), which is all the
    /// emitters produce.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Maximum container nesting depth [`Json::parse`] accepts. The parser
/// recurses once per nesting level, so the bound is what keeps a
/// `[[[[...` document from overflowing the stack; 128 levels is far
/// beyond any artifact this workspace emits.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!(
                "unexpected character {:?} at byte {}",
                char::from(b),
                self.pos
            )),
        }
    }

    /// Bumps the container nesting depth, erroring past [`MAX_DEPTH`] —
    /// the recursion bound that keeps hostile nesting from overflowing
    /// the stack. Paired with a decrement when the container closes.
    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.enter()?;
        let r = self.array_inner();
        self.depth -= 1;
        r
    }

    fn array_inner(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.enter()?;
        let r = self.object_inner();
        self.depth -= 1;
        r
    }

    fn object_inner(&mut self) -> Result<Json, String> {
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
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain (non-escape, non-quote) bytes at once.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
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
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint \\u{hex}"))?,
                            );
                        }
                        other => {
                            return Err(format!("unknown escape \\{}", char::from(other)));
                        }
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number run");
        // Keep integers lossless where they fit; everything else is f64.
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        match text.parse::<f64>() {
            // A number like `1e999` parses to infinity: the emitters
            // never produce one (non-finite floats render as `null`),
            // so a huge number in the input is malformed, not `inf`.
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            Ok(_) => Err(format!("number {text:?} at byte {start} overflows f64")),
            Err(_) => Err(format!("malformed number {text:?} at byte {start}")),
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::UInt(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::UInt(n as u64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::UInt(n.into())
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json> + Clone> From<&[T]> for Json {
    fn from(v: &[T]) -> Json {
        Json::Arr(v.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

fn escape(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => escape(s, f),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape(k, f)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_document() {
        let doc = Json::obj()
            .field("name", "sweep")
            .field("drained", true)
            .field("count", 42u64)
            .field("ratio", 0.5)
            .field("missing", Json::Null)
            .field("xs", vec![1u64, 2, 3]);
        assert_eq!(
            doc.to_string(),
            r#"{"name":"sweep","drained":true,"count":42,"ratio":0.5,"missing":null,"xs":[1,2,3]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let doc = Json::Str("a\"b\\c\nd\u{1}".to_string());
        assert_eq!(doc.to_string(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn u64_counters_are_lossless() {
        let big = u64::MAX - 1;
        assert_eq!(Json::UInt(big).to_string(), format!("{big}"));
        assert_eq!(Json::parse(&format!("{big}")).unwrap(), Json::UInt(big));
    }

    #[test]
    fn option_maps_to_null_or_value() {
        assert_eq!(Json::from(None::<u64>).to_string(), "null");
        assert_eq!(Json::from(Some(7u64)).to_string(), "7");
    }

    #[test]
    fn parses_every_value_kind() {
        let doc = Json::parse(
            r#" {"a": null, "b": [true, false], "c": -1.5e3, "d": 12, "e": "x\ny", "f": {}} "#,
        )
        .unwrap();
        assert_eq!(doc.get("a"), Some(&Json::Null));
        assert_eq!(
            doc.get("b").unwrap().as_array().unwrap(),
            &[Json::Bool(true), Json::Bool(false)]
        );
        assert_eq!(doc.get("c").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(doc.get("d").unwrap().as_u64(), Some(12));
        assert_eq!(doc.get("e").unwrap().as_str(), Some("x\ny"));
        assert_eq!(doc.get("f"), Some(&Json::obj()));
    }

    #[test]
    fn round_trips_built_documents() {
        let doc = Json::obj()
            .field("schema", "nox-test/v1")
            .field("xs", vec![1.25f64, 0.5])
            .field("n", 99u64)
            .field("nested", Json::obj().field("s", "q\"uote"))
            .field("none", Json::Null);
        let reparsed = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "1 2", "\"abc", "{\"a\":}", "tru"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::Str("Aé".to_string()));
    }

    #[test]
    fn rejects_hostile_nesting_huge_numbers_and_bad_escapes() {
        // One level under the bound parses; one over errors.
        let deep_ok = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deep_ok).is_ok());
        let deep_bad = format!(
            "{}0{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&deep_bad).is_err());
        // Unclosed nesting must error, not recurse forever.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        // Numbers that overflow f64 are malformed, not infinite.
        assert!(Json::parse("1e999").is_err());
        assert!(Json::parse("-1e999").is_err());
        assert_eq!(Json::parse("1e308").unwrap().as_f64(), Some(1e308));
        // Surrogate halves and truncated \u escapes are invalid.
        for bad in [r#""\ud800""#, r#""\u12""#, r#""\u""#, r#""\q""#] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }
}
