//! The one JSON layer of the workspace: a hand-rolled emitter and a strict
//! reader.
//!
//! Every artifact the repo writes (the trace sinks, the run summary, the
//! metrics documents, the journal, the benchmark's result lines) is
//! emitted with [`JsonObject`] / [`JsonArray`], and the formatting rules
//! live in exactly one place:
//!
//! * keys and string values are escaped per RFC 8259 (quotes, backslashes,
//!   control characters);
//! * `f64` defaults to Rust's shortest round-trip formatting ([`fmt_f64`]),
//!   with non-finite values emitted as `null` (JSON has no NaN/Inf);
//! * fixed-precision and scientific renderings are there for the fields
//!   that want a set width (Chrome-trace microseconds, residuals);
//! * separators are `": "` and `", "`.
//!
//! [`parse`], which the journal and trace-log replays read through, is
//! strict RFC 8259 with no duplicate keys and nesting capped at
//! [`MAX_DEPTH`]; a number keeps its literal, so [`Value::as_u64`] is exact
//! over all of `u64` (an `f64` would round counters above 2^53).

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Shortest round-trip rendering of a finite `f64`; `null` for NaN/Inf
/// (JSON numbers cannot represent them).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Incremental `{...}` builder with `": "` / `", "` separators.
#[derive(Debug, Default, Clone)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    /// Appends `key` with a pre-rendered JSON `value` (the escape hatch the
    /// typed methods build on).
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        if !self.buf.is_empty() {
            self.buf.push_str(", ");
        }
        self.buf.push('"');
        self.buf.push_str(&escape(key));
        self.buf.push_str("\": ");
        self.buf.push_str(value);
        self
    }

    /// String field (escaped).
    pub fn str(self, key: &str, value: &str) -> Self {
        let quoted = format!("\"{}\"", escape(value));
        self.raw(key, &quoted)
    }

    /// Unsigned integer field.
    pub fn u64(self, key: &str, value: u64) -> Self {
        self.raw(key, &value.to_string())
    }

    /// `usize` field.
    pub fn usize(self, key: &str, value: usize) -> Self {
        self.raw(key, &value.to_string())
    }

    /// Boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// `f64` field in shortest round-trip form (`null` when non-finite).
    pub fn f64(self, key: &str, value: f64) -> Self {
        self.raw(key, &fmt_f64(value))
    }

    /// `f64` field with fixed `decimals` (`null` when non-finite — a fixed
    /// rendering of NaN would not parse).
    pub fn f64_fixed(self, key: &str, value: f64, decimals: usize) -> Self {
        if value.is_finite() {
            let rendered = format!("{value:.decimals$}");
            self.raw(key, &rendered)
        } else {
            self.raw(key, "null")
        }
    }

    /// `f64` field in `{:e}` scientific notation (`null` when non-finite).
    pub fn f64_exp(self, key: &str, value: f64) -> Self {
        if value.is_finite() {
            let rendered = format!("{value:e}");
            self.raw(key, &rendered)
        } else {
            self.raw(key, "null")
        }
    }

    /// Nested object field.
    pub fn object(self, key: &str, value: JsonObject) -> Self {
        let rendered = value.finish();
        self.raw(key, &rendered)
    }

    /// Array field from pre-rendered JSON values.
    pub fn array(self, key: &str, values: JsonArray) -> Self {
        let rendered = values.finish();
        self.raw(key, &rendered)
    }

    /// Renders the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Incremental `[...]` builder with `", "` separators.
#[derive(Debug, Default, Clone)]
pub struct JsonArray {
    buf: String,
}

impl JsonArray {
    /// An empty array.
    pub fn new() -> JsonArray {
        JsonArray::default()
    }

    /// Appends a pre-rendered JSON value.
    pub fn push_raw(&mut self, value: &str) -> &mut Self {
        if !self.buf.is_empty() {
            self.buf.push_str(", ");
        }
        self.buf.push_str(value);
        self
    }

    /// Appends an object element.
    pub fn push_object(&mut self, value: JsonObject) -> &mut Self {
        let rendered = value.finish();
        self.push_raw(&rendered)
    }

    /// Whether nothing was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Renders the array.
    pub fn finish(self) -> String {
        format!("[{}]", self.buf)
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its literal: integers read exactly.
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members in document order; keys are unique.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The number as `f64`, when `f64` holds it finite.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.parse().ok().filter(|v: &f64| v.is_finite()),
            _ => None,
        }
    }

    /// The number as `u64`, exactly: `None` unless its literal is a
    /// non-negative integer in range (no fraction, no exponent).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The string, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, when it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The members in document order, when it is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
/// `"byte N: what"` for the first place `text` departs from RFC 8259,
/// repeats an object key or nests deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser { text, pos: 0, depth: 0 };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos < text.len() {
        return Err(parser.err("trailing content"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("byte {}: {what}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips ASCII digits; whether there was one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.list(b'}', |p| {
                    if p.peek() != Some(b'"') {
                        return Err(p.err("expected a string key"));
                    }
                    let key = p.string()?;
                    p.skip_ws();
                    if !p.eat(b':') {
                        return Err(p.err("expected ':'"));
                    }
                    p.value().map(|value| members.push((key, value)))
                })?;
                // Sorted, not pairwise, so a hostile object costs n log n.
                let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
                keys.sort_unstable();
                if keys.windows(2).any(|pair| pair[0] == pair[1]) {
                    return Err(self.err("duplicate object key"));
                }
                Ok(Value::Object(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.list(b']', |p| p.value().map(|item| items.push(item)))?;
                Ok(Value::Array(items))
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                for (word, value) in [
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                    ("null", Value::Null),
                ] {
                    if self.text[self.pos..].starts_with(word) {
                        self.pos += word.len();
                        return Ok(value);
                    }
                }
                Err(self.err("expected a value"))
            }
        }
    }

    /// A comma-separated list from the opening bracket through `close`,
    /// one nesting level deeper; `item` parses one element.
    fn list(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nested deeper than MAX_DEPTH"));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if !self.eat(close) {
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                if self.eat(close) {
                    break;
                }
                if !self.eat(b',') {
                    return Err(self.err("expected ',' or the closing bracket"));
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// A string, copied run by run: every byte is looked at once.
    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // Stopped at an ASCII byte or the end: a char boundary.
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        let byte = self.peek();
        self.pos += 1;
        if let Some(at) = byte.and_then(|b| br#""\/bfnrt"#.iter().position(|&e| e == b)) {
            return Ok(['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][at]);
        }
        if byte != Some(b'u') {
            return Err(self.err("invalid escape"));
        }
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.eat(b'\\') && self.eat(b'u') {
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
        }
        char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self.peek().and_then(|b| char::from(b).to_digit(16));
            code = code * 16 + digit.ok_or_else(|| self.err("expected four hex digits"))?;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        // `0`, or digits that do not start with `0`.
        if !(self.eat(b'0') || (matches!(self.peek(), Some(b'1'..=b'9')) && self.digits())) {
            return Err(self.err("expected a digit"));
        }
        if self.eat(b'.') && !self.digits() {
            return Err(self.err("expected a digit after '.'"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if !self.digits() {
                return Err(self.err("expected a digit in the exponent"));
            }
        }
        Ok(Value::Number(self.text[start..self.pos].to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escape("\u{1}"), "\\u0001");
        let doc = JsonObject::new().str("k\"ey", "va\\lue").finish();
        assert_eq!(doc, r#"{"k\"ey": "va\\lue"}"#);
    }

    #[test]
    fn nested_objects_and_arrays_render_with_the_artifact_separators() {
        let mut cases = JsonArray::new();
        cases.push_object(JsonObject::new().str("method", "cg").usize("threads", 2));
        cases.push_object(JsonObject::new().str("method", "spmv").usize("threads", 1));
        let doc = JsonObject::new()
            .str("bench", "solver")
            .usize("host_threads", 4)
            .object("profile", JsonObject::new().u64("nnz", 100).f64_fixed("mean", 3.25, 2))
            .array("cases", cases)
            .finish();
        assert_eq!(
            doc,
            "{\"bench\": \"solver\", \"host_threads\": 4, \
             \"profile\": {\"nnz\": 100, \"mean\": 3.25}, \
             \"cases\": [{\"method\": \"cg\", \"threads\": 2}, \
             {\"method\": \"spmv\", \"threads\": 1}]}"
        );
    }

    #[test]
    fn non_finite_floats_become_null_in_every_rendering() {
        let doc = JsonObject::new()
            .f64("a", f64::NAN)
            .f64_fixed("b", f64::INFINITY, 3)
            .f64_exp("c", f64::NEG_INFINITY)
            .finish();
        assert_eq!(doc, "{\"a\": null, \"b\": null, \"c\": null}");
    }

    /// The round-trip contract: every f64 emitted in shortest form parses
    /// back to the identical bits.
    #[test]
    fn f64_shortest_form_round_trips_through_the_parser() {
        let values = [
            0.0,
            -0.0,
            1.0,
            -2.5,
            0.1,
            1.0 / 3.0,
            6.02214076e23,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            1.797_693_134_862_315_7e308,
            -4.9e-324,
        ];
        for &v in &values {
            let doc = JsonObject::new().f64("v", v).finish();
            let parsed = parse(&doc).expect("emitted JSON must parse");
            let got = parsed.get("v").and_then(Value::as_f64).expect("number");
            assert_eq!(got.to_bits(), v.to_bits(), "round-trip of {v}");
        }
    }

    /// The whole emitter output is valid JSON by the parser's rules.
    #[test]
    fn emitter_documents_parse() {
        let mut rows = JsonArray::new();
        rows.push_object(JsonObject::new().str("name", "a\"b").f64("x", 0.125).bool("ok", true));
        let doc = JsonObject::new()
            .array("rows", rows)
            .f64_exp("residual", 3.0e-9)
            .f64_fixed("seconds", 0.001234567, 9)
            .finish();
        let value = parse(&doc).expect("valid JSON");
        let Some(Value::Array(rows)) = value.get("rows") else { panic!("{doc}") };
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("name").and_then(Value::as_str), Some("a\"b"));
        assert_eq!(rows[0].get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(value.get("residual").and_then(Value::as_f64), Some(3.0e-9));
        assert_eq!(value.get("seconds").and_then(Value::as_f64), Some(0.001234567));
    }

    #[test]
    fn parses_scalars_objects_and_arrays_in_document_order() {
        let v = parse(r#"{"z": 1, "b": [true, null, "s"], "c": {"d": -2.5e3}, "e": {}}"#).unwrap();
        assert_eq!(v.get("z").and_then(Value::as_u64), Some(1));
        let Some(Value::Array(b)) = v.get("b") else { panic!("{v:?}") };
        assert_eq!((b[0].as_bool(), &b[1], b[2].as_str()), (Some(true), &Value::Null, Some("s")));
        assert_eq!(v.get("c").and_then(|c| c.get("d")).and_then(Value::as_f64), Some(-2500.0));
        assert_eq!((v.get("e"), v.get("missing")), (Some(&Value::Object(Vec::new())), None));
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "b", "c", "e"]);
    }

    #[test]
    fn parses_string_escapes_and_surrogate_pairs() {
        let v = parse(r#""a\"b\\c\/\n\t\b\f\u0041\u00e9é\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c/\n\t\u{8}\u{c}A\u{e9}\u{e9}\u{1f600}"));
        for lone in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ud83d\u0041""#, r#""\ude00""#] {
            assert!(parse(lone).is_err(), "{lone}");
        }
    }

    /// A number keeps its literal: `as_f64` reads it as Rust does, and
    /// `as_u64` exactly over all of `u64`, where an `f64` rounds above 2^53.
    #[test]
    fn numbers_read_as_f64_and_as_exact_u64() {
        let floats = [(" 0", 0.0), ("-0.0", -0.0), ("1e3", 1e3), ("6.02E+23", 6.02e23)];
        for (text, expect) in floats.into_iter().chain([("-4.9e-324", -4.9e-324f64)]) {
            let got = parse(text).unwrap().as_f64().map(f64::to_bits);
            assert_eq!(got, Some(expect.to_bits()), "{text}");
        }
        assert_eq!(parse("1e400").unwrap().as_f64(), None);
        for n in [0, (1u64 << 53) + 1, u64::MAX] {
            assert_eq!(parse(&n.to_string()).unwrap().as_u64(), Some(n), "{n}");
        }
        for text in ["18446744073709551616", "-1", "-0", "1.0", "1e3", "\"1\""] {
            assert_eq!(parse(text).unwrap().as_u64(), None, "{text}");
        }
    }

    #[test]
    fn rejects_malformed_documents_and_duplicate_keys() {
        // Whitespace-separated, then the few documents that hold some.
        let bad = r#"{ [1, [1,] {"a"1} {"a":1,} {"a":1"b":2} {,} {a:1} {'a':1} tru nul "open "\x"
            01 -01 1. - .5 +1 1e 1e+ 0x10 NaN {"a":1}x {"a":1,"b":2,"a":1} [{"k":{"x":1,"x":2}}]"#;
        let spaced = ["", "1 2", "[1 2]", "[] []", "\"\t\"", "\u{feff}1"];
        for text in bad.split_whitespace().chain(spaced) {
            assert!(parse(text).is_err(), "{text:?} should not parse");
        }
        assert_eq!(parse("[1,]").unwrap_err(), "byte 3: expected a value");
        assert!(parse(r#"{"a": {"a": 1}, "b": [{"a": 1}, {"a": 2}]}"#).is_ok());
    }

    /// Deep nesting is an error, not a stack overflow, and a megabyte of
    /// multi-byte text reads in linear time (re-checking the rest of the
    /// input at every character would take minutes).
    #[test]
    fn deep_nesting_is_refused_and_long_strings_read_in_linear_time() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, format!("byte {MAX_DEPTH}: nested deeper than MAX_DEPTH"));
        assert!(parse(&"{\"a\": ".repeat(1 << 20)).is_err());
        let text = "é".repeat(1 << 19);
        assert_eq!(parse(&format!("\"{text}\"")), Ok(Value::String(text)));
    }
}
