//! Minimal JSON for the conference-call workspace.
//!
//! The crates registry is unavailable in CI, so instead of `serde` +
//! `serde_json` the workspace uses this small, std-only JSON library:
//! a [`Value`] model, a strict recursive-descent [`parse`] function,
//! and a compact writer (`Value::to_string` via `Display`). The
//! [`metrics`] module holds the counters, histograms and the
//! [`registry!`] macro every crate dumps its metrics through.
//!
//! Design choices:
//!
//! * Objects preserve insertion order (`Vec<(String, Value)>`), which
//!   keeps wire messages and metrics dumps stable and diffable.
//! * Integers and floats are distinct variants, so `4` round-trips as
//!   `4` (not `4.0`) — delays and counters stay integral on the wire.
//! * Non-finite floats serialise as `null` (like `serde_json`); the
//!   parser never produces NaN/inf.
//! * Depth-limited parsing (128 levels) so untrusted service input
//!   cannot blow the stack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod metrics;
mod parse;

pub use parse::{parse, ParseError};

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (no exponent/fraction in the source).
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from key/value pairs.
    #[must_use]
    pub fn object(pairs: Vec<(&str, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object; `None` for missing keys or
    /// non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `i64` (integers only).
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a `u64` (non-negative integers only).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a `usize` (non-negative integers only).
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Int(i) => usize::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (accepts both numeric variants).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value's object pairs, if it is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<u64> for Value {
    fn from(u: u64) -> Value {
        i64::try_from(u).map_or(Value::Float(u as f64), Value::Int)
    }
}

impl From<usize> for Value {
    fn from(u: usize) -> Value {
        Value::from(u as u64)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for ch in s.chars() {
        match ch {
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

impl fmt::Display for Value {
    /// Compact (single-line) JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) if !x.is_finite() => f.write_str("null"),
            // `{}` on f64 is Rust's shortest round-trip form, but
            // renders integral floats without a marker; add `.0` so
            // the value re-parses as Float.
            // lint:allow(no-float-eq): fract()==0.0 is the exact integrality test
            Value::Float(x) if x.fract() == 0.0 && x.abs() < 1e15 => write!(f, "{x:.1}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write_escaped(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Object(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
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
    fn display_is_compact_and_ordered() {
        let v = Value::object(vec![
            ("b", Value::Int(1)),
            ("a", Value::Array(vec![Value::Bool(true), Value::Null])),
            ("s", Value::from("hi\n\"x\"")),
        ]);
        assert_eq!(v.to_string(), r#"{"b":1,"a":[true,null],"s":"hi\n\"x\""}"#);
    }

    #[test]
    fn ints_and_floats_are_distinct() {
        assert_eq!(Value::Int(4).to_string(), "4");
        assert_eq!(Value::Float(4.0).to_string(), "4.0");
        assert_eq!(Value::Float(0.25).to_string(), "0.25");
        assert_eq!(Value::Float(f64::NAN).to_string(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn round_trips_through_parse() {
        let v = Value::object(vec![
            ("rows", Value::from(vec![0.5f64, 0.25, 0.25])),
            ("d", Value::Int(3)),
            ("name", Value::from("conférence ✓")),
            ("big", Value::Float(1.25e300)),
            ("neg", Value::Int(-7)),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": 3, "b": [1.5], "c": "x", "d": true}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_usize), Some(3));
        assert_eq!(v.get("a").and_then(Value::as_f64), Some(3.0));
        assert_eq!(
            v.get("b").and_then(Value::as_array).map(<[Value]>::len),
            Some(1)
        );
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("d").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Int(-1).as_u64(), None);
    }

    #[test]
    fn u64_overflow_degrades_to_float() {
        let v = Value::from(u64::MAX);
        assert!(matches!(v, Value::Float(_)));
    }
}
