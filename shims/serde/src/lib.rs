//! Offline stand-in for `serde`.
//!
//! JSON only, both ways. [`Serialize`] is a direct-to-JSON trait with
//! impls for the primitives and containers the workspace uses, and
//! `#[derive(Serialize)]` (from the sibling `serde_derive` shim) generates
//! externally-tagged JSON exactly like real serde's defaults. The input
//! side parses text into the dynamic [`Value`] tree
//! ([`from_str_value`]), and [`Deserialize`] reads typed values back
//! from it; `#[derive(Deserialize)]` generates that reader from the same
//! type walk, under upstream serde's default rules (see [`de`]).

#![warn(clippy::all)]

pub mod de;
mod value;

pub use de::{DeError, Deserialize};
pub use serde_derive::{Deserialize, Serialize};
pub use value::{from_str_value, ParseError, Value};

/// Types that can render themselves as JSON.
pub trait Serialize {
    /// Appends the JSON encoding of `self` to `out`.
    fn serialize_json_into(&self, out: &mut String);

    /// The JSON encoding of `self` as an owned string.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.serialize_json_into(&mut out);
        out
    }
}

/// Escapes and appends a string literal (with quotes).
pub fn write_json_string(s: &str, out: &mut String) {
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

macro_rules! impl_display_serialize {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json_into(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}

impl_display_serialize!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn serialize_json_into(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

macro_rules! impl_float_serialize {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json_into(&self, out: &mut String) {
                if self.is_finite() {
                    out.push_str(&self.to_string());
                } else {
                    // JSON has no NaN/inf; mirror serde_json's `null`.
                    out.push_str("null");
                }
            }
        }
    )*};
}

impl_float_serialize!(f32, f64);

impl Serialize for str {
    fn serialize_json_into(&self, out: &mut String) {
        write_json_string(self, out);
    }
}

impl Serialize for String {
    fn serialize_json_into(&self, out: &mut String) {
        write_json_string(self, out);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_json_into(&self, out: &mut String) {
        (**self).serialize_json_into(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_json_into(&self, out: &mut String) {
        match self {
            Some(v) => v.serialize_json_into(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_json_into(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.serialize_json_into(out);
        }
        out.push(']');
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_json_into(&self, out: &mut String) {
        self.as_slice().serialize_json_into(out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize_json_into(&self, out: &mut String) {
        self.as_slice().serialize_json_into(out);
    }
}

impl<K: std::fmt::Display, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn serialize_json_into(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(&k.to_string(), out);
            out.push(':');
            v.serialize_json_into(out);
        }
        out.push('}');
    }
}

macro_rules! impl_tuple_serialize {
    ($(($($name:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize_json_into(&self, out: &mut String) {
                out.push('[');
                let mut first = true;
                $(
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    self.$idx.serialize_json_into(out);
                )+
                let _ = first;
                out.push(']');
            }
        }
    )+};
}

impl_tuple_serialize!((A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives() {
        assert_eq!(3u32.to_json(), "3");
        assert_eq!((-4i64).to_json(), "-4");
        assert_eq!(true.to_json(), "true");
        assert_eq!(1.5f64.to_json(), "1.5");
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!("a\"b\n".to_json(), "\"a\\\"b\\n\"");
    }

    #[test]
    fn containers() {
        assert_eq!(vec![1u32, 2, 3].to_json(), "[1,2,3]");
        assert_eq!(Some(7u64).to_json(), "7");
        assert_eq!(None::<u64>.to_json(), "null");
        assert_eq!((1u32, "x".to_string()).to_json(), "[1,\"x\"]");
        assert_eq!(vec![vec![1.0f64], vec![]].to_json(), "[[1],[]]");
    }
}
