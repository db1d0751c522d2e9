//! Std-only JSON: a streaming [`Writer`] that appends to a `String`, and a
//! parser to an order-preserving [`Value`] that returns a [`JsonError`]
//! (never a panic) on malformed input.
//!
//! Each call site picks a container's [`Layout`]; there is no global
//! setting, because point records and `grid.json` are hashed into the
//! sweep fingerprints and their bytes must not move. Non-negative integers
//! parse exactly to [`Value::U64`]; floats are written with Rust's shortest
//! round-trip `Display`, so a float with an integral value reads back as an
//! integer — read such numbers with [`Value::as_f64`].

use std::fmt::{self, Write as _};

/// How a container lays out its members.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// All members on one line, separated by `", "`.
    Inline,
    /// One member per line, indented two spaces per open container.
    Block,
}

/// A streaming JSON writer. [`Writer::object`] and [`Writer::array`] open a
/// container and [`Writer::end`] closes it; inside an object each value
/// follows a [`Writer::key`].
pub struct Writer<'a> {
    out: &'a mut String,
    /// Open containers: closing bracket, layout, whether a member was written.
    open: Vec<(char, Layout, bool)>,
    after_key: bool,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> Self {
        Writer {
            out,
            open: Vec::new(),
            after_key: false,
        }
    }

    /// Writes the separator and, in a block container, the line break and
    /// indentation due before the next member.
    fn separate(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let depth = self.open.len();
        if let Some((_, layout, started)) = self.open.last_mut() {
            if *started {
                self.out.push(',');
                if *layout == Layout::Inline {
                    self.out.push(' ');
                }
            }
            *started = true;
            if *layout == Layout::Block {
                self.newline(depth);
            }
        }
    }

    fn newline(&mut self, depth: usize) {
        self.out.push('\n');
        for _ in 0..depth {
            self.out.push_str("  ");
        }
    }

    fn open(&mut self, bracket: char, close: char, layout: Layout) -> &mut Self {
        self.separate();
        self.out.push(bracket);
        self.open.push((close, layout, false));
        self
    }

    /// Opens an object.
    pub fn object(&mut self, layout: Layout) -> &mut Self {
        self.open('{', '}', layout)
    }

    /// Opens an array.
    pub fn array(&mut self, layout: Layout) -> &mut Self {
        self.open('[', ']', layout)
    }

    /// Closes the innermost open container.
    ///
    /// # Panics
    ///
    /// Panics when no container is open.
    pub fn end(&mut self) -> &mut Self {
        let (close, layout, started) = self.open.pop().expect("end() without an open container");
        if layout == Layout::Block && started {
            self.newline(self.open.len());
        }
        self.out.push(close);
        self
    }

    /// Writes an object member's key; the next value is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        write_str(self.out, key);
        self.out.push_str(": ");
        self.after_key = true;
        self
    }

    /// Writes an array element, or the value after a key.
    pub fn value<T: ToJson>(&mut self, value: T) -> &mut Self {
        self.separate();
        value.write_json(self.out);
        self
    }

    /// Writes one object member.
    pub fn field<T: ToJson>(&mut self, key: &str, value: T) -> &mut Self {
        self.key(key).value(value)
    }

    /// Writes an already-rendered JSON document as one value (the hashed
    /// `grid.json` stamp embedded verbatim in a manifest).
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.separate();
        self.out.push_str(json);
        self
    }
}

/// A value the [`Writer`] can emit.
pub trait ToJson {
    /// Appends this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

/// Appends `s` as a string literal, escaping control characters as
/// RFC 8259 §7 requires.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

macro_rules! display_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_to_json!(bool, u32, u64, usize);

impl ToJson for f64 {
    /// `null` for NaN and infinities, which JSON cannot represent.
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal that fits `u64`.
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Parses one JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// A [`JsonError`] at the first byte that does not fit the grammar.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos < text.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Member `key`'s value when this is an object (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Follows `path` through nested objects.
    pub fn at(&self, path: &[&str]) -> Option<&Value> {
        path.iter().try_fold(self, |v, key| v.get(key))
    }

    /// The integer, when this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(n) => Some(n),
            _ => None,
        }
    }

    /// Any number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(n) => Some(n as f64),
            Value::F64(x) => Some(x),
            _ => None,
        }
    }

    /// The string, when this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, when this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }
}

impl ToJson for Value {
    /// Writes every nested container inline.
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out),
            Value::U64(n) => n.write_json(out),
            Value::F64(x) => x.write_json(out),
            Value::Str(s) => write_str(out, s),
            Value::Array(items) => {
                let mut w = Writer::new(out);
                w.array(Layout::Inline);
                for item in items {
                    w.value(item);
                }
                w.end();
            }
            Value::Object(members) => {
                let mut w = Writer::new(out);
                w.object(Layout::Inline);
                for (k, v) in members {
                    w.field(k, v);
                }
                w.end();
            }
        }
    }
}

/// Why and where a document failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing stopped (at most the input's length).
    pub offset: usize,
    /// What the parser expected or rejected there.
    pub reason: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// Containers nested deeper than this are rejected rather than recursed
/// into, so hostile input cannot overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, reason: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        let Some(first) = self.peek() else {
            return Err(self.error("unexpected end of input"));
        };
        match first {
            b'{' | b'[' => {
                if self.depth == MAX_DEPTH {
                    return Err(self.error("containers nested too deeply"));
                }
                self.depth += 1;
                self.pos += 1;
                let value = if first == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            b'"' => {
                self.pos += 1;
                self.string().map(Value::Str)
            }
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.error("invalid literal"));
        }
        self.pos += word.len();
        Ok(value)
    }

    /// Parses comma-separated items up to `close`, the opening bracket
    /// already consumed.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or a closing bracket"));
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        let mut members = Vec::new();
        self.items(b'}', |p| {
            if !p.eat(b'"') {
                return Err(p.error("expected a string key"));
            }
            let key = p.string()?;
            if !p.eat(b':') {
                return Err(p.error("expected ':' after an object key"));
            }
            members.push((key, p.value()?));
            Ok(())
        })?;
        Ok(Value::Object(members))
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        let mut items = Vec::new();
        self.items(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Value::Array(items))
    }

    /// Parses a string's body and closing quote, the opening quote already
    /// consumed.
    fn string(&mut self) -> Result<String, JsonError> {
        let mut out = String::new();
        loop {
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Decodes one escape sequence after its backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'u') => return self.unicode_escape(),
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            _ => return Err(self.error("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Decodes `uXXXX`, joining a UTF-16 surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            let mut low = 0;
            if self.text[self.pos..].starts_with("\\u") {
                self.pos += 1;
                low = self.hex4()?;
            }
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.error("unpaired surrogate"));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate"))
    }

    /// Reads `u` and four hex digits.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let code = self
            .text
            .get(self.pos + 1..self.pos + 5)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 5;
        Ok(code)
    }

    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a digit"));
        }
        Ok(())
    }

    /// Checks the RFC 8259 number grammar, then reads the token.
    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        self.pos += usize::from(self.peek() == Some(b'-'));
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            self.pos += usize::from(matches!(self.peek(), Some(b'+' | b'-')));
            self.digits()?;
        }
        let token = &self.text[start..self.pos];
        Ok(match token.parse() {
            Ok(n) => Value::U64(n),
            Err(_) => Value::F64(token.parse().expect("validated number token")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_single, SsdConfig};
    use venice_interconnect::FabricKind;
    use venice_sim::rng::Xorshift64Star;
    use venice_workloads::catalog;

    #[test]
    fn layouts_nest_with_two_space_indentation() {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.object(Layout::Block).field("a", 1u64);
        w.key("b")
            .object(Layout::Inline)
            .field("c", "x")
            .field("d", None::<u64>)
            .end();
        w.key("rows")
            .array(Layout::Block)
            .value(1.5)
            .value(f64::NAN)
            .end();
        w.key("empty").array(Layout::Block).end();
        w.end();
        assert_eq!(
            out,
            "{\n  \"a\": 1,\n  \"b\": {\"c\": \"x\", \"d\": null},\n  \
             \"rows\": [\n    1.5,\n    null\n  ],\n  \"empty\": []\n}"
        );
    }

    #[test]
    fn strings_round_trip_through_writer_and_parser() {
        for s in [
            "plain",
            "quo\"te",
            "back\\slash",
            "line\nbreak",
            "tab\there",
            "bell\u{1}",
            "é ✓",
        ] {
            let mut out = String::new();
            Writer::new(&mut out).value(s);
            assert!(
                !out.bytes().any(|b| b < 0x20),
                "raw control byte in {out:?}"
            );
            assert_eq!(Value::parse(&out), Ok(Value::Str(s.to_string())), "{out}");
        }
        let mut out = String::new();
        Writer::new(&mut out).value("\u{1}");
        assert_eq!(out, "\"\\u0001\"");
        assert_eq!(
            Value::parse(r#""\ud83d\ude00 \u00e9\/""#),
            Ok(Value::Str("😀 é/".into()))
        );
    }

    #[test]
    fn integers_stay_exact_and_order_is_kept() {
        let doc = Value::parse(
            r#"{"big": 18446744073709551615, "neg": -3,
            "f": 0.75, "e": 25e-2, "huge": 18446744073709551616, "z": [true, false, null]}"#,
        )
        .unwrap();
        assert_eq!(doc.get("big"), Some(&Value::U64(u64::MAX)));
        assert_eq!(doc.get("neg"), Some(&Value::F64(-3.0)));
        assert_eq!(doc.get("f").and_then(Value::as_f64), Some(0.75));
        assert_eq!(doc.get("e"), Some(&Value::F64(0.25)));
        assert_eq!(doc.get("huge"), Some(&Value::F64(18446744073709551616.0)));
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["big", "neg", "f", "e", "huge", "z"]);
        let mut out = String::new();
        Writer::new(&mut out).value(&doc);
        assert_eq!(Value::parse(&out), Ok(doc));
        // A float with an integral value prints without a fraction, so it
        // reads back as an integer; `as_f64` accepts either.
        let mut out = String::new();
        Writer::new(&mut out).value(1000.0);
        assert_eq!(Value::parse(&out), Ok(Value::U64(1000)));
    }

    #[test]
    fn malformed_documents_report_where_they_failed() {
        for (text, offset) in [
            ("", 0),
            ("{", 1),
            ("{\"a\" 1}", 5),
            ("[1,]", 3),
            ("[01]", 2),
            ("1.", 2),
            ("-", 1),
            ("\"\\x\"", 2),
            ("\"a\nb\"", 2),
            ("\"\\ud800x\"", 7),
            ("tru", 0),
            ("{} x", 3),
            ("{1: 2}", 1),
        ] {
            let err = Value::parse(text).expect_err(text);
            assert_eq!(err.offset, offset, "{text:?}: {err}");
        }
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert_eq!(Value::parse(&deep).unwrap_err().offset, MAX_DEPTH);
    }

    /// Truncations, byte flips, and spliced garbage on a real point record
    /// parse to a value or to an error with an in-range offset — never a
    /// panic.
    #[test]
    fn mutated_point_records_never_panic() {
        let trace = catalog::by_name("hm_0").expect("catalog").generate(40);
        let record = run_single(
            &SsdConfig::performance_optimized(),
            FabricKind::Venice,
            &trace,
        )
        .to_json();
        assert!(Value::parse(&record).is_ok());
        let garbage: &[&[u8]] = &[
            b"{",
            b"}",
            b"[",
            b"\"",
            b"\\u",
            b"\\ud800",
            b"-",
            b"1e",
            b",",
            b":",
            b"\x01",
            "é".as_bytes(),
        ];
        let mut rng = Xorshift64Star::new(0x5EED);
        let mut rejected = 0;
        for _ in 0..2_000 {
            let mut bytes = record.clone().into_bytes();
            for _ in 0..=rng.next_bounded(3) {
                let at = rng.next_bounded(bytes.len() as u64 + 1) as usize;
                match rng.next_bounded(3) {
                    0 => bytes.truncate(at),
                    1 if at < bytes.len() => bytes[at] ^= 1 << rng.next_bounded(8),
                    _ => {
                        let g = garbage[rng.next_bounded(garbage.len() as u64) as usize];
                        bytes.splice(at..at, g.iter().copied());
                    }
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            if let Err(e) = Value::parse(&text) {
                assert!(e.offset <= text.len(), "{e} beyond {} bytes", text.len());
                rejected += 1;
            }
        }
        // Most mutations break the grammar; some (a flipped digit) do not.
        assert!((1_000..2_000).contains(&rejected), "{rejected} rejected");
    }
}
