//! The deserialize side: typed values read back from a parsed [`Value`]
//! tree, with upstream serde's default rules (externally tagged enums,
//! unknown object keys ignored, an absent `Option` field read as `None`).
//!
//! `#[derive(Deserialize)]` expands to calls of the helpers below; they
//! are public for that expansion only.

use std::collections::BTreeMap;

use crate::Value;

/// Types that can rebuild themselves from a parsed JSON [`Value`].
pub trait Deserialize: Sized {
    /// Reads `Self` from `value`.
    ///
    /// # Errors
    ///
    /// Returns a [`DeError`] naming the path to the first value of the
    /// wrong shape.
    fn from_value(value: &Value) -> Result<Self, DeError>;

    /// The value of an absent object field: `None` makes the field
    /// required. `Option<T>` overrides it, so its absence reads as `None`.
    fn absent() -> Option<Self> {
        None
    }
}

/// Why a [`Value`] does not match the type asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError {
    /// Path from the document root to the offending value: field names
    /// and variant tags joined by `.`, array positions as `[i]`. Empty
    /// at the root.
    pub path: String,
    /// What is wrong there.
    pub message: String,
}

impl DeError {
    /// An error at the current value.
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            path: String::new(),
            message: message.into(),
        }
    }

    /// A type mismatch: `wanted` was expected, `found` was there.
    #[must_use]
    pub(crate) fn expected(wanted: &str, found: &Value) -> Self {
        Self::new(format!("expected {wanted}, found {found:?}"))
    }

    /// Moves the error one level down: `segment` (a field name, variant
    /// tag or `[i]`) is prefixed to the path.
    #[must_use]
    pub fn at(mut self, segment: &str) -> Self {
        self.path = match self.path.as_str() {
            "" => segment.to_owned(),
            rest if rest.starts_with('[') => format!("{segment}{rest}"),
            rest => format!("{segment}.{rest}"),
        };
        self
    }
}

impl core::fmt::Display for DeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.path.is_empty() {
            f.write_str(&self.message)
        } else {
            write!(f, "`{}`: {}", self.path, self.message)
        }
    }
}

impl std::error::Error for DeError {}

/// The members of a JSON object.
pub type Map = BTreeMap<String, Value>;

/// `value` as an object.
pub fn object(value: &Value) -> Result<&Map, DeError> {
    value
        .as_object()
        .ok_or_else(|| DeError::expected("an object", value))
}

/// Member `name` of `map` read as `T`; an absent member is
/// [`Deserialize::absent`].
pub fn field<T: Deserialize>(map: &Map, name: &str) -> Result<T, DeError> {
    match map.get(name) {
        Some(value) => T::from_value(value).map_err(|e| e.at(name)),
        None => T::absent().ok_or_else(|| DeError::new(format!("missing field `{name}`"))),
    }
}

/// `value` as an array of exactly `len` items.
pub fn array(value: &Value, len: usize) -> Result<&[Value], DeError> {
    value
        .as_array()
        .filter(|items| items.len() == len)
        .ok_or_else(|| DeError::expected(&format!("an array of {len}"), value))
}

/// Item `index` of `items` read as `T`.
pub fn element<T: Deserialize>(items: &[Value], index: usize) -> Result<T, DeError> {
    T::from_value(&items[index]).map_err(|e| e.at(&format!("[{index}]")))
}

/// `null`, the encoding of unit structs and unit variant bodies.
pub fn unit(value: &Value) -> Result<(), DeError> {
    if value.is_null() {
        Ok(())
    } else {
        Err(DeError::expected("null", value))
    }
}

/// Splits an externally tagged enum value of type `name` into its tag
/// and body. A bare string is a unit variant, whose body reads as `null`.
pub fn variant<'v>(value: &'v Value, name: &str) -> Result<(&'v str, &'v Value), DeError> {
    static NULL: Value = Value::Null;
    match value {
        Value::String(tag) => Ok((tag, &NULL)),
        Value::Object(map) if map.len() == 1 => {
            let (tag, body) = map.iter().next().expect("one member");
            Ok((tag, body))
        }
        _ => Err(DeError::expected(
            &format!("an externally tagged `{name}`"),
            value,
        )),
    }
}

/// Runs `read` on a variant body, prefixing `tag` to the path of its
/// error.
pub fn within<T>(tag: &str, read: impl FnOnce() -> Result<T, DeError>) -> Result<T, DeError> {
    read().map_err(|e| e.at(tag))
}

/// The error for a tag that names no variant of `name`.
#[must_use]
pub fn unknown_variant(name: &str, tag: &str) -> DeError {
    DeError::new(format!("unknown variant `{tag}` of `{name}`"))
}

macro_rules! impl_scalar_deserialize {
    ($($t:ty => $as:ident, $wanted:literal;)*) => {$(
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                value
                    .$as()
                    .map(Into::into)
                    .ok_or_else(|| DeError::expected($wanted, value))
            }
        }
    )*};
}

impl_scalar_deserialize! {
    bool => as_bool, "a bool";
    f64 => as_f64, "a number";
    u64 => as_u64, "an unsigned integer";
    usize => as_usize, "an unsigned integer";
    String => as_str, "a string";
}

impl Deserialize for u32 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        u32::try_from(u64::from_value(value)?)
            .map_err(|_| DeError::expected("an unsigned integer below 2^32", value))
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            value => T::from_value(value).map(Some),
        }
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let items = value
            .as_array()
            .ok_or_else(|| DeError::expected("an array", value))?;
        (0..items.len()).map(|i| element(items, i)).collect()
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let items = array(value, 2)?;
        Ok((element(items, 0)?, element(items, 1)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::from_str_value;

    fn parse<T: Deserialize>(json: &str) -> Result<T, DeError> {
        T::from_value(&from_str_value(json).expect("test JSON parses"))
    }

    #[test]
    fn primitives() {
        assert_eq!(parse::<bool>("true"), Ok(true));
        assert_eq!(parse::<f64>("3"), Ok(3.0));
        assert_eq!(parse::<f64>("-0.5"), Ok(-0.5));
        assert_eq!(parse::<u64>("18446744073709551615"), Ok(u64::MAX));
        assert_eq!(parse::<u64>("4.0"), Ok(4));
        assert!(parse::<u64>("-1").is_err());
        assert!(parse::<u64>("1.5").is_err());
        assert_eq!(parse::<u32>("4294967295"), Ok(u32::MAX));
        assert!(parse::<u32>("4294967296").is_err());
        assert_eq!(parse::<String>("\"x\""), Ok("x".to_owned()));
        assert!(parse::<String>("1").is_err());
    }

    #[test]
    fn containers() {
        assert_eq!(parse::<Option<u64>>("null"), Ok(None));
        assert_eq!(parse::<Option<u64>>("7"), Ok(Some(7)));
        assert_eq!(parse::<Vec<f64>>("[1, 2.5]"), Ok(vec![1.0, 2.5]));
        assert_eq!(parse::<(u64, u32)>("[9, 40]"), Ok((9, 40)));
        assert!(parse::<(u64, u32)>("[9]").is_err());
    }

    #[test]
    fn errors_carry_the_path() {
        let err = parse::<Vec<(u64, u32)>>("[[1, 2], [3, \"x\"]]").unwrap_err();
        assert_eq!(err.path, "[1][1]");
        let err = err.at("arrivals").at("Trace");
        assert_eq!(err.path, "Trace.arrivals[1][1]");
        assert_eq!(
            err.to_string(),
            "`Trace.arrivals[1][1]`: expected an unsigned integer, found String(\"x\")"
        );
    }

    #[test]
    fn absent_fields_are_required_unless_optional() {
        let map = Map::new();
        assert_eq!(field::<Option<u64>>(&map, "cap"), Ok(None));
        assert_eq!(
            field::<u64>(&map, "cap").unwrap_err().to_string(),
            "missing field `cap`"
        );
    }
}
