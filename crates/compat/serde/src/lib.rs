//! Offline stand-in for [`serde`](https://serde.rs).
//!
//! The build environment has no crates.io access, so the workspace vendors
//! a minimal self-describing serialization framework with the same *names*
//! as serde: a [`Serialize`] / [`Deserialize`] trait pair, re-exported
//! derive macros, and a [`Value`] data model that `serde_json` renders.
//!
//! Differences from real serde (all invisible to this workspace):
//!
//! - serialization goes through the owned [`Value`] tree, not a visitor;
//! - every map, string-keyed or not, serializes as a sequence of
//!   `[key, value]` pairs (upstream writes string-keyed maps as objects
//!   and errors on other keys); a type that must read and write a JSON
//!   object builds the [`Value::Map`] itself;
//! - no rename/skip/default attributes (the workspace uses none).

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;

pub use serde_derive::{Deserialize, Serialize};

/// The self-describing data model produced by [`Serialize`] and consumed
/// by [`Deserialize`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (used when the value exceeds `i64::MAX`).
    UInt(u64),
    /// A float.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Seq(Vec<Value>),
    /// An ordered string-keyed map (struct fields, enum tags).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The map entries, if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// The sequence elements, if this is a sequence.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a map key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Serialization/deserialization failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl Error {
    /// Builds an error from any message.
    pub fn custom<T: fmt::Display>(message: T) -> Self {
        Error(message.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// A type that can render itself into the [`Value`] data model.
pub trait Serialize {
    /// Converts `self` to a [`Value`] tree.
    fn to_value(&self) -> Value;
}

/// A type that can be rebuilt from the [`Value`] data model.
///
/// The `'de` lifetime exists for signature compatibility with real serde
/// (`for<'de> Deserialize<'de>` bounds in downstream code); this
/// implementation always produces owned data.
pub trait Deserialize<'de>: Sized {
    /// Rebuilds `Self` from a [`Value`] tree.
    fn from_value(value: &Value) -> Result<Self, Error>;

    /// The value of a struct field absent from its map: an error naming
    /// the field, except for `Option`, which reads as `None` — upstream's
    /// rule. Derived impls call this for every missing field.
    fn from_missing(field: &str) -> Result<Self, Error> {
        Err(Error::custom(format!("missing field `{field}`")))
    }
}

fn type_error<T>(expected: &str, got: &Value) -> Result<T, Error> {
    Err(Error::custom(format!("expected {expected}, found {got:?}")))
}

// ---------------------------------------------------------------- scalars

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => type_error("bool", other),
        }
    }
}

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                #[allow(unused_comparisons)]
                if (*self as i128) < 0 {
                    Value::Int(*self as i64)
                } else if (*self as u128) <= i64::MAX as u128 {
                    Value::Int(*self as i64)
                } else {
                    Value::UInt(*self as u64)
                }
            }
        }

        impl<'de> Deserialize<'de> for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let wide: i128 = match value {
                    Value::Int(i) => *i as i128,
                    Value::UInt(u) => *u as i128,
                    Value::Float(f) if f.fract() == 0.0 => *f as i128,
                    other => return type_error("integer", other),
                };
                <$t>::try_from(wide)
                    .map_err(|_| Error::custom(format!(
                        "integer {wide} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_serde_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }

        impl<'de> Deserialize<'de> for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Int(i) => Ok(*i as $t),
                    Value::UInt(u) => Ok(*u as $t),
                    other => type_error("float", other),
                }
            }
        }
    )*};
}

impl_serde_float!(f32, f64);

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<'de> Deserialize<'de> for char {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().expect("one char")),
            other => type_error("single-character string", other),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<'de> Deserialize<'de> for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => type_error("string", other),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

// (&str is covered by the blanket `impl Serialize for &T` below)

// ------------------------------------------------------------- containers

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn from_missing(_field: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => type_error("sequence", other),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let items = match value {
            Value::Seq(items) => items,
            other => return type_error("sequence", other),
        };
        if items.len() != N {
            return Err(Error::custom(format!(
                "expected array of length {N}, found {}",
                items.len()
            )));
        }
        let mut out: Vec<T> = Vec::with_capacity(N);
        for item in items {
            out.push(T::from_value(item)?);
        }
        out.try_into().map_err(|_| Error::custom("array length changed during conversion"))
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        T::from_value(value).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }

        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let items = match value {
                    Value::Seq(items) => items,
                    other => return type_error("tuple sequence", other),
                };
                let expected = [$($idx),+].len();
                if items.len() != expected {
                    return Err(Error::custom(format!(
                        "expected tuple of length {expected}, found {}", items.len())));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )+};
}

impl_serde_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
);

/// Maps serialize as a sequence of `[key, value]` pairs so non-string
/// keys (e.g. whole `Challenge` structs) survive the JSON round trip.
impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()])).collect())
    }
}

impl<'de, K, V, S> Deserialize<'de> for HashMap<K, V, S>
where
    K: Deserialize<'de> + Eq + Hash,
    V: Deserialize<'de>,
    S: std::hash::BuildHasher + Default,
{
    fn from_value(value: &Value) -> Result<Self, Error> {
        deserialize_pairs(value)?
            .map(|pair| Ok((K::from_value(pair.0)?, V::from_value(pair.1)?)))
            .collect()
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()])).collect())
    }
}

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        deserialize_pairs(value)?
            .map(|pair| Ok((K::from_value(pair.0)?, V::from_value(pair.1)?)))
            .collect()
    }
}

fn deserialize_pairs(value: &Value) -> Result<impl Iterator<Item = (&Value, &Value)>, Error> {
    let items = match value {
        Value::Seq(items) => items,
        other => return type_error("sequence of [key, value] pairs", other),
    };
    items
        .iter()
        .map(|item| match item.as_seq() {
            Some([k, v]) => Ok((k, v)),
            _ => type_error("[key, value] pair", item),
        })
        .collect::<Result<Vec<_>, Error>>()
        .map(Vec::into_iter)
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<'de> Deserialize<'de> for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

/// Namespace mirroring `serde::de` for code that spells the long path.
pub mod de {
    pub use crate::{Deserialize, Error};
}

/// Namespace mirroring `serde::ser`.
pub mod ser {
    pub use crate::{Error, Serialize};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(bool::from_value(&true.to_value()), Ok(true));
        assert_eq!(u32::from_value(&7u32.to_value()), Ok(7));
        assert_eq!(i64::from_value(&(-9i64).to_value()), Ok(-9));
        assert_eq!(f64::from_value(&1.25f64.to_value()), Ok(1.25));
        assert_eq!(String::from_value(&"hi".to_string().to_value()), Ok("hi".to_string()));
    }

    #[test]
    fn container_round_trips() {
        let v = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_value(&v.to_value()), Ok(v));
        let arr = [1.0f64, 2.0];
        assert_eq!(<[f64; 2]>::from_value(&arr.to_value()), Ok(arr));
        let opt: Option<u8> = None;
        assert_eq!(Option::<u8>::from_value(&opt.to_value()), Ok(None));
        let pair = (1u8, "x".to_string());
        assert_eq!(<(u8, String)>::from_value(&pair.to_value()), Ok(pair));
    }

    #[test]
    fn map_round_trips_with_struct_keys() {
        let mut m = HashMap::new();
        m.insert((1u8, 2u8), true);
        let restored: HashMap<(u8, u8), bool> = HashMap::from_value(&m.to_value()).unwrap();
        assert_eq!(restored, m);
    }

    #[test]
    fn type_mismatch_is_an_error() {
        assert!(bool::from_value(&Value::Int(1)).is_err());
        assert!(u8::from_value(&Value::Int(300)).is_err());
        assert!(Vec::<u8>::from_value(&Value::Bool(false)).is_err());
    }

    #[test]
    fn only_an_option_float_reads_null() {
        // upstream refuses null for a float; serde_json writes a
        // non-finite float as null, so such a float does not read back
        assert!(f64::from_value(&Value::Null).is_err());
        assert!(f32::from_value(&Value::Null).is_err());
        assert_eq!(Option::<f64>::from_value(&Value::Null), Ok(None));
        assert_eq!(
            <[Option<f64>; 2]>::from_value(&[None, Some(0.5)].to_value()),
            Ok([None, Some(0.5)])
        );
    }

    #[test]
    fn only_an_option_may_be_missing() {
        assert_eq!(Option::<f64>::from_missing("x"), Ok(None));
        let err = f64::from_missing("cold_seconds").unwrap_err();
        assert!(err.to_string().contains("missing field `cold_seconds`"), "{err}");
    }
}
