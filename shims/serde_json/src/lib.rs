//! Offline stand-in for `serde_json`.
//!
//! Output side: [`to_string`] / [`to_string_pretty`] / [`to_writer`] over
//! the serde shim's direct-to-JSON [`Serialize`]. Input side: the serde
//! shim's parser into the dynamic [`Value`] tree ([`from_str_value`]),
//! re-exported here; typed values are read from the tree with
//! `serde::Deserialize` (the scenario layer in `strat-scenario` is the
//! main client).

#![warn(clippy::all)]

use std::io::Write;

use serde::Serialize;

pub use serde::{from_str_value, ParseError, Value};

/// Compact JSON encoding of `value`.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, std::io::Error> {
    Ok(value.to_json())
}

/// Pretty (2-space indented) JSON encoding of `value`.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, std::io::Error> {
    Ok(prettify(&value.to_json()))
}

/// Writes compact JSON to `writer`.
pub fn to_writer<W: Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<(), std::io::Error> {
    writer.write_all(value.to_json().as_bytes())
}

/// Writes pretty JSON to `writer`.
pub fn to_writer_pretty<W: Write, T: Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<(), std::io::Error> {
    writer.write_all(prettify(&value.to_json()).as_bytes())
}

/// Re-indents a compact JSON document produced by the serde shim.
///
/// The input is trusted (it comes from our own encoder), so this is a
/// simple structural walk: newline + indent after `{`/`[`/`,`, newline
/// before `}`/`]`, with string literals passed through verbatim.
fn prettify(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let mut indent = 0usize;
    let mut chars = compact.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                out.push('"');
                let mut escaped = false;
                for s in chars.by_ref() {
                    out.push(s);
                    if escaped {
                        escaped = false;
                    } else if s == '\\' {
                        escaped = true;
                    } else if s == '"' {
                        break;
                    }
                }
            }
            '{' | '[' => {
                out.push(c);
                // Keep empty containers on one line.
                let close = if c == '{' { '}' } else { ']' };
                if chars.peek() == Some(&close) {
                    out.push(close);
                    chars.next();
                } else {
                    indent += 1;
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent));
                }
            }
            '}' | ']' => {
                indent = indent.saturating_sub(1);
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(c);
            }
            ',' => {
                out.push(',');
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            ':' => {
                out.push_str(": ");
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_round_trip_shape() {
        let pretty = prettify("{\"a\":[1,2],\"b\":{},\"c\":\"x,y:{}\"}");
        assert!(pretty.contains("\"a\": [\n"));
        assert!(pretty.contains("\"b\": {}"));
        // String contents must be untouched.
        assert!(pretty.contains("\"x,y:{}\""));
    }

    #[test]
    fn to_string_works() {
        assert_eq!(to_string(&vec![1u32, 2]).unwrap(), "[1,2]");
    }
}
