//! Minimal, dependency-free stand-in for the `serde_json` crate.
//!
//! The workspace builds in network-restricted environments where crates-io
//! is unreachable. The repo uses `serde_json` to build result objects with
//! the `json!` macro, serialize them with `to_string_pretty`, and read a
//! dump back with `from_str`, so this shim implements exactly that: a
//! [`Value`] tree (object keys kept in insertion order so emitted files are
//! deterministic), `From` conversions for the primitive types the benches
//! use, a recursive `json!` macro, a pretty printer with 2-space
//! indentation and standard JSON string escaping, and [`from_str`], a
//! recursive-descent parser into [`Value`] with the real crate's nesting
//! limit of 128. There is no serde `Serialize`/`Deserialize` bridge:
//! `from_str` yields a [`Value`] only.

use std::fmt;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number (stored as f64 plus a flag for integer formatting).
    Number(Number),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object. Keys keep insertion order for deterministic output.
    Object(Vec<(String, Value)>),
}

/// A JSON number: integers render without a decimal point.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (kept separate so u64 > i64::MAX round-trips).
    UInt(u64),
    /// Floating point.
    Float(f64),
}

/// Integers compare by value, whichever variant holds them (as in the real
/// crate, where a non-negative `i64` and a `u64` are the same number).
impl PartialEq for Number {
    fn eq(&self, other: &Number) -> bool {
        match (*self, *other) {
            (Number::Int(a), Number::Int(b)) => a == b,
            (Number::UInt(a), Number::UInt(b)) => a == b,
            (Number::Int(i), Number::UInt(u)) | (Number::UInt(u), Number::Int(i)) => {
                u64::try_from(i) == Ok(u)
            }
            (Number::Float(a), Number::Float(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::Int(v) => write!(f, "{v}"),
            Number::UInt(v) => write!(f, "{v}"),
            Number::Float(v) => {
                if v.is_finite() {
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        // Match serde_json: whole floats print as "1.0".
                        write!(f, "{v:.1}")
                    } else {
                        write!(f, "{v}")
                    }
                } else {
                    // serde_json forbids non-finite floats; emit null.
                    write!(f, "null")
                }
            }
        }
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {
        $(impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Number(Number::Int(v as i64))
            }
        })*
    };
}
from_int!(i8, i16, i32, i64, isize, u8, u16, u32);

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Number(Number::UInt(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Number(Number::UInt(v as u64))
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::Number(Number::Float(v as f64))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(Number::Float(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<&String> for Value {
    fn from(v: &String) -> Value {
        Value::String(v.clone())
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(v: &[T]) -> Value {
        Value::Array(v.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Into<Value>, const N: usize> From<[T; N]> for Value {
    fn from(v: [T; N]) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        match v {
            Some(x) => x.into(),
            None => Value::Null,
        }
    }
}

impl Value {
    /// Object lookup by key; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable object lookup by key; `None` for non-objects or missing keys.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        match self {
            Value::Object(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::UInt(u)) => Some(*u),
            Value::Number(Number::Int(i)) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The elements, if the value is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string, if the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        const STEP: usize = 2;
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(&n.to_string()),
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
                    out.push('\n');
                    push_indent(out, indent + STEP);
                    item.write_pretty(out, indent + STEP);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + STEP);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + STEP);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(&n.to_string()),
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push(' ');
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
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// By-reference conversion into [`Value`], mirroring how the real `json!`
/// macro serializes expression values via `to_value(&expr)` — so call sites
/// can embed `series[0]` or other non-`Copy` places without moving them.
pub trait ToValue {
    /// Builds a [`Value`] from a borrow of `self`.
    fn to_value(&self) -> Value;
}

macro_rules! to_value_via_from {
    ($($t:ty),*) => {
        $(impl ToValue for $t {
            fn to_value(&self) -> Value {
                Value::from(*self)
            }
        })*
    };
}
to_value_via_from!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize, f32, f64, bool);

impl ToValue for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl ToValue for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl ToValue for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<T: ToValue> ToValue for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(ToValue::to_value).collect())
    }
}

impl<T: ToValue> ToValue for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(ToValue::to_value).collect())
    }
}

impl<T: ToValue, const N: usize> ToValue for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(ToValue::to_value).collect())
    }
}

impl<T: ToValue> ToValue for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: ToValue + ?Sized> ToValue for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

/// Converts any [`ToValue`] borrow into an owned [`Value`].
pub fn to_value<T: ToValue + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// A parse error with its byte position (serialization here is
/// infallible; the type is shared for API parity).
#[derive(Debug)]
pub struct Error {
    msg: String,
    pos: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.pos)
    }
}

impl std::error::Error for Error {}

/// Serializes a [`Value`] with 2-space indentation.
pub fn to_string_pretty<T: AsValue>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.as_value().write_pretty(&mut out, 0);
    Ok(out)
}

/// Serializes a [`Value`] compactly.
pub fn to_string<T: AsValue>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.as_value().write_compact(&mut out);
    Ok(out)
}

/// Nesting depth [`from_str`] accepts: the real crate's default recursion
/// limit. Deeper input is an error, not a stack overflow.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document into a [`Value`]: objects (order preserved),
/// arrays, strings with the standard escapes (surrogate pairs combined),
/// integers (`u64`, or `i64` when negative), floats, booleans and `null`.
/// Containers nested more than 128 deep are rejected.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text: s,
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> Error {
        Error {
            msg: msg.into(),
            pos: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') => self.container(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses an object or array one level deeper, refusing to pass
    /// [`MAX_DEPTH`] (an error ends the whole parse, so the depth is not
    /// restored on that path).
    fn container(&mut self) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        self.depth += 1;
        let v = if self.bump() == Some(b'{') {
            let mut entries = Vec::new();
            self.items(b'}', |p| {
                p.skip_ws();
                let key = p.string()?;
                p.skip_ws();
                p.expect(b':')?;
                entries.push((key, p.value()?));
                Ok(())
            })?;
            Value::Object(entries)
        } else {
            let mut items = Vec::new();
            self.items(b']', |p| {
                items.push(p.value()?);
                Ok(())
            })?;
            Value::Array(items)
        };
        self.depth -= 1;
        Ok(v)
    }

    /// Parses comma-separated container members with `member` up to and
    /// including the `close` byte; the opening byte is consumed.
    fn items(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            member(self)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(c) if c == close => return Ok(()),
                _ => return Err(self.err(format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control
            // character in one go: those are ASCII, so the run ends on a
            // char boundary.
            let rest = &self.text[self.pos..];
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&rest[..run]);
            self.pos += run;
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => {}
                _ => return Err(self.err("control character in string")),
            }
            let c = match self.bump() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{0008}',
                Some(b'f') => '\u{000C}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => self.unicode_escape()?,
                _ => return Err(self.err("bad escape")),
            };
            out.push(c);
        }
    }

    /// Decodes the code point of a `\u` escape whose `\u` is consumed,
    /// combining a UTF-16 surrogate pair and rejecting a lone surrogate.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.hex4()?;
        let code = match hi {
            0xD800..=0xDBFF => {
                if !self.text[self.pos..].starts_with("\\u") {
                    return Err(self.err("lone leading surrogate"));
                }
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return Err(self.err("leading surrogate without a trailing one"));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.err("lone trailing surrogate")),
            _ => hi,
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid code point"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0;
        for _ in 0..4 {
            let d = self
                .bump()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("bad \\u escape"))?;
            code = code * 16 + d;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let n = if float {
            text.parse().ok().map(Number::Float)
        } else if text.starts_with('-') {
            text.parse().ok().map(Number::Int)
        } else {
            text.parse().ok().map(Number::UInt)
        };
        n.map(Value::Number)
            .ok_or_else(|| self.err(format!("bad number {text}")))
    }
}

/// Borrow-as-`Value` bridge so `to_string_pretty(&value)` works on both
/// `&Value` and `&&Value` call shapes.
pub trait AsValue {
    /// The underlying value.
    fn as_value(&self) -> &Value;
}

impl AsValue for Value {
    fn as_value(&self) -> &Value {
        self
    }
}

impl AsValue for &Value {
    fn as_value(&self) -> &Value {
        self
    }
}

/// Builds a [`Value`] from JSON-like syntax: objects (string-literal keys),
/// arrays, `null`, and any expression with an `Into<Value>` conversion.
/// Object and array bodies are consumed by tt-munchers so values may be
/// arbitrary Rust expressions (`bs / 1024`, `cfg.link.bandwidth()`) or
/// nested `{...}`/`[...]` literals.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($tt:tt)* ]) => {
        $crate::Value::Array($crate::json_items!(@items [] $($tt)*))
    };
    ({ $($tt:tt)* }) => {
        $crate::Value::Object($crate::json_pairs!(@pairs [] $($tt)*))
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

/// Internal: munches `key: value` pairs of a `json!` object body into a
/// `Vec<(String, Value)>`.
#[doc(hidden)]
#[macro_export]
macro_rules! json_pairs {
    (@pairs [$($acc:tt)*]) => { ::std::vec![$($acc)*] };
    (@pairs [$($acc:tt)*] $key:literal : null $(, $($rest:tt)*)?) => {
        $crate::json_pairs!(@pairs
            [$($acc)* (::std::string::String::from($key), $crate::Value::Null),]
            $($($rest)*)?)
    };
    (@pairs [$($acc:tt)*] $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_pairs!(@pairs
            [$($acc)* (::std::string::String::from($key), $crate::json!({ $($inner)* })),]
            $($($rest)*)?)
    };
    (@pairs [$($acc:tt)*] $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_pairs!(@pairs
            [$($acc)* (::std::string::String::from($key), $crate::json!([ $($inner)* ])),]
            $($($rest)*)?)
    };
    (@pairs [$($acc:tt)*] $key:literal : $val:expr $(, $($rest:tt)*)?) => {
        $crate::json_pairs!(@pairs
            [$($acc)* (::std::string::String::from($key), $crate::to_value(&$val)),]
            $($($rest)*)?)
    };
}

/// Internal: munches the elements of a `json!` array body into a
/// `Vec<Value>`.
#[doc(hidden)]
#[macro_export]
macro_rules! json_items {
    (@items [$($acc:tt)*]) => { ::std::vec![$($acc)*] };
    (@items [$($acc:tt)*] null $(, $($rest:tt)*)?) => {
        $crate::json_items!(@items [$($acc)* $crate::Value::Null,] $($($rest)*)?)
    };
    (@items [$($acc:tt)*] { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_items!(@items [$($acc)* $crate::json!({ $($inner)* }),] $($($rest)*)?)
    };
    (@items [$($acc:tt)*] [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_items!(@items [$($acc)* $crate::json!([ $($inner)* ]),] $($($rest)*)?)
    };
    (@items [$($acc:tt)*] $val:expr $(, $($rest:tt)*)?) => {
        $crate::json_items!(@items [$($acc)* $crate::to_value(&$val),] $($($rest)*)?)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(to_string(&json!(null)).unwrap(), "null");
        assert_eq!(to_string(&json!(true)).unwrap(), "true");
        assert_eq!(to_string(&json!(42u64)).unwrap(), "42");
        assert_eq!(to_string(&json!(-3i64)).unwrap(), "-3");
        assert_eq!(to_string(&json!(1.5f64)).unwrap(), "1.5");
        assert_eq!(to_string(&json!(2.0f64)).unwrap(), "2.0");
        assert_eq!(to_string(&json!("hi\n")).unwrap(), "\"hi\\n\"");
    }

    #[test]
    fn nested_object_and_array() {
        let rows = vec![vec![1u64, 2], vec![3, 4]];
        let label = String::from("seq");
        let v = json!({
            "name": "fig10",
            "config": { "depth": 3, "qos": true },
            "rows": rows,
            "label": label,
            "sizes": [512, 1024],
        });
        let s = to_string(&v).unwrap();
        assert_eq!(
            s,
            "{\"name\":\"fig10\",\"config\":{\"depth\":3,\"qos\":true},\
             \"rows\":[[1,2],[3,4]],\"label\":\"seq\",\"sizes\":[512,1024]}"
        );
    }

    #[test]
    fn pretty_output_is_indented_and_ordered() {
        let v = json!({ "b": 1, "a": [true] });
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(s, "{\n  \"b\": 1,\n  \"a\": [\n    true\n  ]\n}");
    }

    #[test]
    fn value_variables_embed() {
        let inner: Value = json!([1, 2]);
        let v = json!({ "inner": inner, "opt": Option::<u64>::None });
        assert_eq!(v.get("inner"), Some(&json!([1, 2])));
        assert_eq!(v.get("opt"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn multi_token_expression_values() {
        struct Cfg {
            depth: u64,
        }
        impl Cfg {
            fn bw(&self) -> f64 {
                2.5
            }
        }
        let cfg = Cfg { depth: 4 };
        let series = [vec![1u64], vec![2]];
        let bs = 65536u64;
        let v = json!({
            "block_kb": bs / 1024,
            "depth": cfg.depth + 1,
            "bw": cfg.bw(),
            "first": series[0].clone(),
        });
        assert_eq!(
            to_string(&v).unwrap(),
            "{\"block_kb\":64,\"depth\":5,\"bw\":2.5,\"first\":[1]}"
        );
    }

    #[test]
    fn from_str_round_trips_the_writer() {
        let v = json!({
            "quotes": "say \"hi\"",
            "backslash": "a\\b\\",
            "control": "nl\n cr\r tab\t bell\u{7} nul\u{0} us\u{1f}",
            "non_bmp": "héllo→🚀😀 𝄞",
            "max": u64::MAX,
            "neg": [-1i64, i64::MIN, -42],
            "pos_int": 7i32,
            "floats": [1.5f64, -0.25, 2.0, 1e-7, 123456.789],
            "nested": [true, false, null, [], {}],
        });
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            assert_eq!(from_str(&text).unwrap(), v);
        }
    }

    #[test]
    fn from_str_combines_surrogate_pairs_and_rejects_lone_ones() {
        assert_eq!(from_str(r#""\ud83d\ude00""#).unwrap(), json!("😀"));
        assert_eq!(from_str(r#""\u0041\u00e9""#).unwrap(), json!("Aé"));
        for lone in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
        ] {
            assert!(from_str(lone).is_err(), "{lone} must be rejected");
        }
    }

    #[test]
    fn from_str_handles_unicode_strings() {
        let v = json!({ "s": "héllo→🚀" });
        let back = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(back.get("s").and_then(Value::as_str), Some("héllo→🚀"));
        assert_eq!(
            from_str(r#""\"\\\/\b\f\n\r\tA""#).unwrap(),
            json!("\"\\/\u{8}\u{c}\n\r\tA")
        );
        assert!(from_str(r#""\x""#).is_err(), "unknown escape");
        assert!(from_str(r#""\u00g0""#).is_err(), "bad hex digit");
    }

    #[test]
    fn from_str_keeps_number_kinds() {
        let num = |text: &str| match from_str(text) {
            Ok(Value::Number(n)) => n,
            other => panic!("{text:?} parsed as {other:?}"),
        };
        assert!(matches!(
            num("18446744073709551615"),
            Number::UInt(u64::MAX)
        ));
        assert!(matches!(num("-9223372036854775808"), Number::Int(i64::MIN)));
        assert!(matches!(num(" -7 "), Number::Int(-7)));
        assert!(matches!(num("1e3"), Number::Float(f) if f == 1000.0));
        assert!(matches!(num("-0.5E-2"), Number::Float(f) if f == -0.005));
        assert!(matches!(num("2.0"), Number::Float(f) if f == 2.0));
        // Whole numbers stay integers, so `as_u64` reads them.
        assert_eq!(from_str("[0, 42]").unwrap(), json!([0u64, 42u64]));
        assert_eq!(from_str("42").unwrap().as_u64(), Some(42));
        assert_eq!(from_str("42.0").unwrap().as_u64(), None);
    }

    #[test]
    fn from_str_keeps_object_key_order() {
        let v = from_str(r#"{ "z": 1, "a": {"y": [], "b": null} }"#).unwrap();
        let keys = |v: &Value| match v {
            Value::Object(entries) => entries.iter().map(|(k, _)| k.clone()).collect(),
            _ => Vec::new(),
        };
        assert_eq!(keys(&v), ["z", "a"]);
        assert_eq!(keys(v.get("a").unwrap()), ["y", "b"]);
        // Writing it back reproduces the document's order.
        assert_eq!(to_string(&v).unwrap(), r#"{"z":1,"a":{"y":[],"b":null}}"#);
    }

    #[test]
    fn from_str_limits_nesting_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(from_str(&nested(128)).is_ok());
        assert!(from_str(&nested(129)).is_err());
        assert!(from_str(&nested(100_000)).is_err(), "errs, does not crash");
        let objects = "{\"k\":".repeat(129) + "0" + &"}".repeat(129);
        assert!(from_str(&objects).is_err());
    }

    #[test]
    fn from_str_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "12 34",
            "\"unterminated",
            "\"raw\nnewline\"",
            "tru",
            "-",
        ] {
            assert!(from_str(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn accessors_read_typed_values() {
        let v = json!({ "n": 3u64, "i": -3i64, "a": [1, 2], "s": "x" });
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("i").and_then(Value::as_u64), None);
        assert_eq!(v.get("a").and_then(Value::as_array).map(Vec::len), Some(2));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("s").and_then(Value::as_u64), None);
    }

    #[test]
    fn float_vectors_convert() {
        let v = json!(vec![vec![1.0f64, 2.5], vec![3.0]]);
        assert_eq!(to_string(&v).unwrap(), "[[1.0,2.5],[3.0]]");
    }
}
