//! Offline shim for `serde_json`.
//!
//! JSON text ⇄ [`serde::value::Value`] with the usual entry points
//! (`to_string`, `to_string_pretty`, `to_vec`, `to_writer`, `from_str`,
//! `from_slice`, `from_reader`) and a `json!` macro. Struct fields keep
//! declaration order; map keys are stringified (integers included) and
//! emitted sorted; non-finite floats serialize as `null`, matching
//! upstream behavior.

use serde::de::DeserializeOwned;
use serde::Serialize;

pub use serde::value::Value;

/// Serialization / deserialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::ValueError> for Error {
    fn from(e: serde::ValueError) -> Self {
        Error(e.0)
    }
}

impl serde::ser::Error for Error {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

pub type Result<T> = std::result::Result<T, Error>;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
        return;
    }
    let s = format!("{f}");
    out.push_str(&s);
    // Keep the float/integer distinction visible in the output, as
    // upstream serde_json does ("1.0", not "1").
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        out.push_str(".0");
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::U128(n) => out.push_str(&n.to_string()),
        Value::F64(f) => write_f64(out, *f),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(level) = indent {
                    out.push('\n');
                    out.push_str(&"  ".repeat(level + 1));
                }
                write_value(out, item, indent.map(|l| l + 1));
            }
            if let Some(level) = indent {
                out.push('\n');
                out.push_str(&"  ".repeat(level));
            }
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(level) = indent {
                    out.push('\n');
                    out.push_str(&"  ".repeat(level + 1));
                }
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent.map(|l| l + 1));
            }
            if let Some(level) = indent {
                out.push('\n');
                out.push_str(&"  ".repeat(level));
            }
            out.push('}');
        }
    }
}

/// Serializes `value` as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let v = serde::to_value(value)?;
    let mut out = String::new();
    write_value(&mut out, &v, None);
    Ok(out)
}

/// Serializes `value` as 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let v = serde::to_value(value)?;
    let mut out = String::new();
    write_value(&mut out, &v, Some(0));
    Ok(out)
}

/// Serializes `value` as compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Serializes `value` as compact JSON into `writer`.
pub fn to_writer<W: std::io::Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    let s = to_string(value)?;
    writer
        .write_all(s.as_bytes())
        .map_err(|e| Error::new(format!("I/O error: {e}")))
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Arrays and objects may nest 127 deep, as in the real crate: text nested
/// deeper is a "recursion limit exceeded" error, not a stack overflow.
const RECURSION_LIMIT: u8 = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Counts down from [`RECURSION_LIMIT`] as arrays and objects open.
    remaining_depth: u8,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
            remaining_depth: RECURSION_LIMIT,
        }
    }

    fn err(&self, msg: impl std::fmt::Display) -> Error {
        Error::new(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn consume_lit(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => {
                if self.consume_lit("null") {
                    Ok(Value::Null)
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b't') => {
                if self.consume_lit("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'f') => {
                if self.consume_lit("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
        }
    }

    /// Parses an array or object one level deeper, if the limit allows.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        self.remaining_depth -= 1;
        if self.remaining_depth == 0 {
            return Err(self.err("recursion limit exceeded"));
        }
        let value = parse(self);
        self.remaining_depth += 1;
        value
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
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
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.consume_lit("\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(self.err(format!("invalid escape {:?}", other as char)))
                        }
                    }
                }
                _ => {
                    // Re-scan the full UTF-8 character from this byte.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().unwrap();
                    self.pos = start + c.len_utf8();
                    out.push(c);
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if text.starts_with('-') {
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Value::I64(n));
                }
            } else {
                if let Ok(n) = text.parse::<u64>() {
                    return Ok(Value::U64(n));
                }
                if let Ok(n) = text.parse::<u128>() {
                    return Ok(Value::U128(n));
                }
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.err(format!("invalid number {text:?}")))
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Parses JSON text into a [`Value`].
pub fn value_from_str(s: &str) -> Result<Value> {
    let mut p = Parser::new(s);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Deserializes a value from JSON text.
pub fn from_str<T: DeserializeOwned>(s: &str) -> Result<T> {
    let v = value_from_str(s)?;
    serde::from_value(v).map_err(Error::from)
}

/// Deserializes a value from JSON bytes.
pub fn from_slice<T: DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::new(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

/// Deserializes a value from a JSON reader.
pub fn from_reader<R: std::io::Read, T: DeserializeOwned>(mut reader: R) -> Result<T> {
    let mut buf = String::new();
    reader
        .read_to_string(&mut buf)
        .map_err(|e| Error::new(format!("I/O error: {e}")))?;
    from_str(&buf)
}

/// Renders any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    serde::to_value(value).map_err(Error::from)
}

/// Reads any deserializable type out of a [`Value`] tree.
pub fn from_value<T: DeserializeOwned>(value: Value) -> Result<T> {
    serde::from_value(value).map_err(Error::from)
}

#[doc(hidden)]
pub fn __obj_push(obj: &mut Vec<(String, Value)>, key: String, value: Value) {
    obj.push((key, value));
}

#[doc(hidden)]
pub fn __to_value_unwrap<T: Serialize + ?Sized>(value: &T) -> Value {
    serde::to_value(value).expect("json! value must be serializable")
}

/// Builds a [`Value`] from JSON-like syntax.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(::std::vec![ $( $crate::__to_value_unwrap(&$elem) ),* ])
    };
    ({ $($body:tt)* }) => {{
        #[allow(unused_mut)]
        let mut __obj: ::std::vec::Vec<(::std::string::String, $crate::Value)> =
            ::std::vec::Vec::new();
        $crate::__json_object!(__obj ($($body)*));
        $crate::Value::Object(__obj)
    }};
    ($other:expr) => { $crate::__to_value_unwrap(&$other) };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_object {
    ($obj:ident ()) => {};
    ($obj:ident ($key:tt : $($rest:tt)*)) => {
        $crate::__json_value!($obj $key () ($($rest)*));
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_value {
    ($obj:ident $key:tt ($($val:tt)+) ()) => {
        $crate::__obj_push(&mut $obj, ($key).to_string(), $crate::json!($($val)+));
    };
    ($obj:ident $key:tt ($($val:tt)+) (, $($rest:tt)*)) => {
        $crate::__obj_push(&mut $obj, ($key).to_string(), $crate::json!($($val)+));
        $crate::__json_object!($obj ($($rest)*));
    };
    ($obj:ident $key:tt ($($val:tt)*) ($next:tt $($rest:tt)*)) => {
        $crate::__json_value!($obj $key ($($val)* $next) ($($rest)*));
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skipped_field_is_not_written_and_reads_back_as_default() {
        #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq)]
        struct Cached {
            a: u64,
            #[serde(skip)]
            cache: Vec<u64>,
            #[serde(default)]
            b: u64,
        }
        let full = Cached {
            a: 1,
            cache: vec![9],
            b: 2,
        };
        assert_eq!(to_string(&full).unwrap(), r#"{"a":1,"b":2}"#);
        // A document that does carry the key (hand-written) cannot fill it.
        let back: Cached = from_str(r#"{"a":1,"cache":[7],"b":2}"#).unwrap();
        assert_eq!(
            back,
            Cached {
                cache: Vec::new(),
                ..full
            }
        );
    }

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(from_str::<f64>("1.0").unwrap(), 1.0);
        assert_eq!(to_string("a\"b\\c\nd").unwrap(), "\"a\\\"b\\\\c\\nd\"");
        let s: String = from_str("\"a\\\"b\\\\c\\nd\"").unwrap();
        assert_eq!(s, "a\"b\\c\nd");
    }

    #[test]
    fn roundtrip_unicode() {
        let s: String = from_str("\"\\u00e9\\uD83D\\uDE00x\"").unwrap();
        assert_eq!(s, "é😀x");
        let back = to_string(&s).unwrap();
        let again: String = from_str(&back).unwrap();
        assert_eq!(again, s);
    }

    #[test]
    fn roundtrip_collections() {
        let v: Vec<(u64, u64)> = vec![(1, 2), (3, 4)];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[[1,2],[3,4]]");
        let back: Vec<(u64, u64)> = from_str(&json).unwrap();
        assert_eq!(back, v);

        let mut m = std::collections::HashMap::new();
        m.insert(18446744073709551615u64, vec![1u64]);
        let json = to_string(&m).unwrap();
        assert_eq!(json, "{\"18446744073709551615\":[1]}");
        let back: std::collections::HashMap<u64, Vec<u64>> = from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn u128_roundtrip() {
        let n = 340282366920938463463374607431768211455u128;
        let json = to_string(&n).unwrap();
        let back: u128 = from_str(&json).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn json_macro_shapes() {
        let name = "probe";
        let count = 3usize;
        let v = json!({
            "cmd": name,
            "count": count,
            "nested": { "ok": true, "list": [1, 2, 3] },
            "total": count * 2 + 1,
        });
        assert_eq!(
            to_string(&v).unwrap(),
            "{\"cmd\":\"probe\",\"count\":3,\"nested\":{\"ok\":true,\"list\":[1,2,3]},\"total\":7}"
        );
        assert_eq!(json!(null), Value::Null);
        assert_eq!(to_string(&json!([1, 2])).unwrap(), "[1,2]");
    }

    #[test]
    fn pretty_output() {
        let v = json!({"a": 1, "b": [true]});
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"a\": 1,\n  \"b\": [\n    true\n  ]\n}"
        );
    }

    /// Nesting deeper than the real crate's limit is an error even on a
    /// 2 MiB thread, where 20 000 levels of `[` overflowed the stack of the
    /// unlimited parser; 127 levels still parse.
    #[test]
    fn nesting_past_the_recursion_limit_is_an_error() {
        let on_small_stack = std::thread::Builder::new().stack_size(2 << 20);
        on_small_stack
            .spawn(|| {
                let nest = |open: &str, close: &str, n: usize| {
                    format!("{}0{}", open.repeat(n), close.repeat(n))
                };
                for text in [
                    nest("[", "]", 20_000),
                    nest("{\"a\":", "}", 20_000),
                    nest("[", "]", 128),
                ] {
                    let err = value_from_str(&text).unwrap_err().to_string();
                    assert!(err.contains("recursion limit exceeded"), "{err}");
                }
                assert!(value_from_str(&nest("[", "]", 127)).is_ok());
                assert!(value_from_str(&nest("{\"a\":", "}", 127)).is_ok());
                // The limit counts depth, not containers: siblings are free.
                let wide = format!("[{}0]", "[[1]],".repeat(1000));
                assert!(value_from_str(&wide).is_ok());
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn errors_are_reported() {
        assert!(from_str::<u64>("[1").is_err());
        assert!(from_str::<u64>("\"x\"").is_err());
        assert!(from_str::<Vec<u64>>("[1,]").is_err());
        assert!(value_from_str("{} trailing").is_err());
    }
}
