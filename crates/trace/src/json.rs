//! The one hand-rolled JSON emitter of the workspace.
//!
//! The offline `serde_json` shim cannot serialize, so every artifact the
//! repo writes (the trace sinks, the run summary, the metrics documents,
//! the benchmark's result lines) is emitted by hand.  The writers all build
//! on [`JsonObject`] / [`JsonArray`], and the formatting rules live in
//! exactly one place:
//!
//! * keys and string values are escaped per RFC 8259 (quotes, backslashes,
//!   control characters);
//! * `f64` defaults to Rust's shortest round-trip formatting ([`fmt_f64`]),
//!   with non-finite values emitted as `null` (JSON has no NaN/Inf);
//! * fixed-precision and scientific renderings are there for the fields
//!   that want a set width (Chrome-trace microseconds, residuals);
//! * separators are `": "` and `", "`.

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
    /// back (through the serde_json shim parser) to the identical bits.
    #[test]
    fn f64_shortest_form_round_trips_through_the_shim_parser() {
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
            let parsed = serde_json::from_str(&doc).expect("emitted JSON must parse");
            let got = parsed.get("v").and_then(serde_json::Value::as_f64).expect("number");
            assert_eq!(got.to_bits(), v.to_bits(), "round-trip of {v}");
        }
    }

    /// The whole emitter output is valid JSON by the shim parser's rules.
    #[test]
    fn emitter_documents_parse_with_the_shim_parser() {
        let mut rows = JsonArray::new();
        rows.push_object(JsonObject::new().str("name", "a\"b").f64("x", 0.125).bool("ok", true));
        let doc = JsonObject::new()
            .array("rows", rows)
            .f64_exp("residual", 3.0e-9)
            .f64_fixed("seconds", 0.001234567, 9)
            .finish();
        let value = serde_json::from_str(&doc).expect("valid JSON");
        let rows = value.get("rows").and_then(serde_json::Value::as_array).expect("array");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("name").and_then(serde_json::Value::as_str), Some("a\"b"));
        assert_eq!(rows[0].get("ok").and_then(serde_json::Value::as_bool), Some(true));
        assert_eq!(value.get("residual").and_then(serde_json::Value::as_f64), Some(3.0e-9));
        assert_eq!(value.get("seconds").and_then(serde_json::Value::as_f64), Some(0.001234567));
    }
}
