//! Structured decoding for the scenario DSL: typed errors carrying field
//! paths and line/column context, plus the `Value`-tree helpers the
//! document decoder is written in.
//!
//! Every decode failure names the offending field with a dotted/indexed
//! path (`federation.grids[1].backend`); JSON syntax failures carry the
//! line and column of the offending byte. Nothing in this module panics
//! on malformed input.

use grid3_site::vo::{UserClass, Vo};
use serde::Value;
use std::fmt;

/// A structured scenario-DSL error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DslError {
    /// The file could not be read.
    Io {
        /// The path that failed.
        path: String,
        /// The OS error text.
        msg: String,
    },
    /// The text is not well-formed JSON.
    Syntax {
        /// 1-based line of the offending byte.
        line: usize,
        /// 1-based column of the offending byte.
        column: usize,
        /// The parser's description.
        msg: String,
    },
    /// The JSON is well-formed but a field has the wrong shape or value.
    Field {
        /// Dotted/indexed path of the offending field (empty = the
        /// document root).
        path: String,
        /// What is wrong with it.
        msg: String,
    },
}

impl DslError {
    /// Build a field error at `path`.
    pub fn field(path: &str, msg: impl Into<String>) -> Self {
        DslError::Field {
            path: path.to_string(),
            msg: msg.into(),
        }
    }

    /// Map a `serde_json` parse failure onto line/column coordinates by
    /// locating the byte offset its message reports (the vendored parser
    /// phrases every positioned error as "… at offset N").
    pub fn syntax(source: &str, parse_msg: &str) -> Self {
        let offset = parse_msg
            .rfind("offset ")
            .map(|i| {
                parse_msg[i + "offset ".len()..]
                    .chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect::<String>()
            })
            .and_then(|digits| digits.parse::<usize>().ok())
            .unwrap_or(source.len())
            .min(source.len());
        let upto = &source[..offset];
        let line = upto.bytes().filter(|b| *b == b'\n').count() + 1;
        let column = upto.bytes().rev().take_while(|b| *b != b'\n').count() + 1;
        DslError::Syntax {
            line,
            column,
            msg: parse_msg.to_string(),
        }
    }

    /// The field path, if this is a field error (test convenience).
    pub fn field_path(&self) -> Option<&str> {
        match self {
            DslError::Field { path, .. } => Some(path),
            _ => None,
        }
    }
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DslError::Io { path, msg } => write!(f, "cannot read `{path}`: {msg}"),
            DslError::Syntax { line, column, msg } => {
                write!(f, "syntax error at line {line}, column {column}: {msg}")
            }
            DslError::Field { path, msg } if path.is_empty() => {
                write!(f, "invalid scenario document: {msg}")
            }
            DslError::Field { path, msg } => write!(f, "invalid field `{path}`: {msg}"),
        }
    }
}

impl std::error::Error for DslError {}

/// Extend a field path with a key.
pub(crate) fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// Extend a field path with an array index.
pub(crate) fn index(path: &str, i: usize) -> String {
    format!("{path}[{i}]")
}

/// The object's key/value pairs, or a typed mismatch error.
pub(crate) fn as_object<'a>(v: &'a Value, path: &str) -> Result<&'a [(String, Value)], DslError> {
    match v {
        Value::Object(pairs) => Ok(pairs),
        other => Err(DslError::field(
            path,
            format!("expected an object, found {}", other.kind()),
        )),
    }
}

/// Reject keys outside `allowed` (typo protection: a misspelled field
/// must fail loudly, not silently fall back to its default).
pub(crate) fn check_keys(
    pairs: &[(String, Value)],
    path: &str,
    allowed: &[&str],
) -> Result<(), DslError> {
    for (k, _) in pairs {
        if !allowed.contains(&k.as_str()) {
            return Err(DslError::field(
                &join(path, k),
                format!("unknown field (expected one of: {})", allowed.join(", ")),
            ));
        }
    }
    Ok(())
}

/// Look up a key; `null` counts as absent (both mean "use the default").
pub(crate) fn get<'a>(pairs: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .filter(|v| !matches!(v, Value::Null))
}

pub(crate) fn u64_value(v: &Value, path: &str) -> Result<u64, DslError> {
    v.as_u64().ok_or_else(|| {
        DslError::field(
            path,
            format!("expected a non-negative integer, found {}", v.kind()),
        )
    })
}

/// A count that must be at least 1: zero `days` leaves the daily series
/// no bins, and a zero monitor interval reschedules its tick at the same
/// instant forever.
pub(crate) fn positive_u64(v: &Value, path: &str) -> Result<u64, DslError> {
    match u64_value(v, path)? {
        0 => Err(DslError::field(path, "must be at least 1")),
        n => Ok(n),
    }
}

pub(crate) fn u32_value(v: &Value, path: &str) -> Result<u32, DslError> {
    u64_value(v, path)?
        .try_into()
        .map_err(|_| DslError::field(path, "out of range for a 32-bit count"))
}

pub(crate) fn usize_value(v: &Value, path: &str) -> Result<usize, DslError> {
    u64_value(v, path).map(|n| n as usize)
}

pub(crate) fn f64_value(v: &Value, path: &str) -> Result<f64, DslError> {
    match v.as_f64() {
        Some(x) if x.is_finite() => Ok(x),
        Some(_) => Err(DslError::field(path, "expected a finite number")),
        None => Err(DslError::field(
            path,
            format!("expected a number, found {}", v.kind()),
        )),
    }
}

pub(crate) fn bool_value(v: &Value, path: &str) -> Result<bool, DslError> {
    match v {
        Value::Bool(b) => Ok(*b),
        other => Err(DslError::field(
            path,
            format!("expected a boolean, found {}", other.kind()),
        )),
    }
}

pub(crate) fn str_value<'a>(v: &'a Value, path: &str) -> Result<&'a str, DslError> {
    v.as_str()
        .ok_or_else(|| DslError::field(path, format!("expected a string, found {}", v.kind())))
}

/// A probability-like fraction in `[0, 1]`.
pub(crate) fn fraction_value(v: &Value, path: &str) -> Result<f64, DslError> {
    let x = f64_value(v, path)?;
    if (0.0..=1.0).contains(&x) {
        Ok(x)
    } else {
        Err(DslError::field(path, format!("{x} is outside [0, 1]")))
    }
}

/// Delegate to a derived `Deserialize` impl, wrapping its flat error
/// with the field path.
pub(crate) fn derived<T: serde::Deserialize>(v: &Value, path: &str) -> Result<T, DslError> {
    T::from_value(v).map_err(|e| DslError::field(path, e.0))
}

/// Parse a Table 1 user-class name (case-insensitive).
pub(crate) fn user_class(v: &Value, path: &str) -> Result<UserClass, DslError> {
    let s = str_value(v, path)?;
    UserClass::ALL
        .iter()
        .copied()
        .find(|c| c.name().eq_ignore_ascii_case(s))
        .ok_or_else(|| {
            let names: Vec<&str> = UserClass::ALL.iter().map(|c| c.name()).collect();
            DslError::field(
                path,
                format!(
                    "unknown user class `{s}` (expected one of: {})",
                    names.join(", ")
                ),
            )
        })
}

/// Parse a VO name (case-insensitive).
pub(crate) fn vo(v: &Value, path: &str) -> Result<Vo, DslError> {
    let s = str_value(v, path)?;
    Vo::ALL
        .iter()
        .copied()
        .find(|vo| vo.name().eq_ignore_ascii_case(s))
        .ok_or_else(|| {
            let names: Vec<&str> = Vo::ALL.iter().map(|vo| vo.name()).collect();
            DslError::field(
                path,
                format!("unknown VO `{s}` (expected one of: {})", names.join(", ")),
            )
        })
}
