//! Offline shim for `serde`.
//!
//! Instead of serde's visitor architecture, this shim routes everything
//! through an owned [`value::Value`] tree: `Serialize` renders a value
//! into the tree, `Deserialize` reads one back out. The public trait
//! names (`Serialize`, `Deserialize`, `Serializer`, `Deserializer`,
//! `ser::Error`, `de::Error`) match upstream closely enough that the
//! workspace's derive sites and its one hand-written impl compile
//! unchanged. Formats (here: `serde_json`) consume and produce the
//! `Value` tree.

pub use serde_derive::{Deserialize, Serialize};

pub mod value {
    /// Owned, format-independent data tree.
    ///
    /// Integer variants are kept separate from `F64` so 64/128-bit hash
    /// coefficients and record ids round-trip exactly.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        I64(i64),
        U64(u64),
        U128(u128),
        F64(f64),
        String(String),
        Array(Vec<Value>),
        /// Insertion-ordered map (struct fields keep declaration order).
        Object(Vec<(String, Value)>),
    }

    impl Value {
        pub fn type_name(&self) -> &'static str {
            match self {
                Value::Null => "null",
                Value::Bool(_) => "bool",
                Value::I64(_) | Value::U64(_) | Value::U128(_) => "integer",
                Value::F64(_) => "number",
                Value::String(_) => "string",
                Value::Array(_) => "array",
                Value::Object(_) => "object",
            }
        }

        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }

        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::U64(n) => Some(*n),
                Value::I64(n) => u64::try_from(*n).ok(),
                Value::U128(n) => u64::try_from(*n).ok(),
                _ => None,
            }
        }

        pub fn as_i64(&self) -> Option<i64> {
            match self {
                Value::I64(n) => Some(*n),
                Value::U64(n) => i64::try_from(*n).ok(),
                Value::U128(n) => i64::try_from(*n).ok(),
                _ => None,
            }
        }

        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::F64(f) => Some(*f),
                Value::I64(n) => Some(*n as f64),
                Value::U64(n) => Some(*n as f64),
                Value::U128(n) => Some(*n as f64),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(a) => Some(a),
                _ => None,
            }
        }

        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Object(o) => Some(o),
                _ => None,
            }
        }

        pub fn is_null(&self) -> bool {
            matches!(self, Value::Null)
        }
    }
}

use value::Value;

pub mod ser {
    /// Error constructor every serializer error type must provide.
    pub trait Error: Sized + std::fmt::Display {
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }
}

pub mod de {
    /// Error constructor every deserializer error type must provide.
    pub trait Error: Sized + std::fmt::Display {
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    /// Marker for types deserializable without borrowing from the input.
    pub trait DeserializeOwned: for<'de> crate::Deserialize<'de> {}
    impl<T: for<'de> crate::Deserialize<'de>> DeserializeOwned for T {}
}

/// Error produced when rendering to / reading from the [`Value`] tree.
#[derive(Debug, Clone)]
pub struct ValueError(pub String);

impl std::fmt::Display for ValueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ValueError {}

impl ser::Error for ValueError {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        ValueError(msg.to_string())
    }
}

impl de::Error for ValueError {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        ValueError(msg.to_string())
    }
}

/// A sink accepting one rendered [`Value`].
pub trait Serializer: Sized {
    type Ok;
    type Error: ser::Error;

    fn serialize_value(self, value: Value) -> Result<Self::Ok, Self::Error>;

    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::String(v.to_owned()))
    }

    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::Bool(v))
    }

    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::U64(v))
    }

    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::I64(v))
    }

    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::F64(v))
    }

    fn serialize_unit(self) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::Null)
    }
}

/// A source yielding one [`Value`].
pub trait Deserializer<'de>: Sized {
    type Error: de::Error;

    fn into_value(self) -> Result<Value, Self::Error>;
}

pub trait Serialize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

struct ValueSerializer;

impl Serializer for ValueSerializer {
    type Ok = Value;
    type Error = ValueError;

    fn serialize_value(self, value: Value) -> Result<Value, ValueError> {
        Ok(value)
    }
}

/// Canonical deserializer over an owned [`Value`].
pub struct ValueDeserializer(pub Value);

impl<'de> Deserializer<'de> for ValueDeserializer {
    type Error = ValueError;

    fn into_value(self) -> Result<Value, ValueError> {
        Ok(self.0)
    }
}

/// Renders any serializable type into the value tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, ValueError> {
    value.serialize(ValueSerializer)
}

/// Reads any deserializable type out of the value tree.
pub fn from_value<T: de::DeserializeOwned>(value: Value) -> Result<T, ValueError> {
    T::deserialize(ValueDeserializer(value))
}

// ---------------------------------------------------------------------------
// Serialize / Deserialize impls for std types.
// ---------------------------------------------------------------------------

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(self.clone())
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.into_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

fn fwd<S: Serializer>(e: ValueError) -> S::Error {
    <S::Error as ser::Error>::custom(e)
}

fn dfwd<E: de::Error>(e: ValueError) -> E {
    E::custom(e)
}

macro_rules! impl_ser_de_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_value(Value::U64(*self as u64))
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                let v = deserializer.into_value()?;
                let n = match &v {
                    Value::U64(n) => Some(*n as u128),
                    Value::I64(n) if *n >= 0 => Some(*n as u128),
                    Value::U128(n) => Some(*n),
                    Value::F64(f) if f.fract() == 0.0 && *f >= 0.0 => Some(*f as u128),
                    _ => None,
                };
                n.and_then(|n| <$t>::try_from(n).ok()).ok_or_else(|| {
                    <D::Error as de::Error>::custom(format!(
                        "expected {}, found {}",
                        stringify!($t),
                        v.type_name()
                    ))
                })
            }
        }
    )*};
}
impl_ser_de_uint!(u8, u16, u32, usize, u64);

impl Serialize for u128 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::U128(*self))
    }
}

impl<'de> Deserialize<'de> for u128 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let v = deserializer.into_value()?;
        match v {
            Value::U128(n) => Ok(n),
            Value::U64(n) => Ok(n as u128),
            Value::I64(n) if n >= 0 => Ok(n as u128),
            other => Err(<D::Error as de::Error>::custom(format!(
                "expected u128, found {}",
                other.type_name()
            ))),
        }
    }
}

macro_rules! impl_ser_de_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_value(Value::I64(*self as i64))
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                let v = deserializer.into_value()?;
                let n: Option<i128> = match &v {
                    Value::I64(n) => Some(*n as i128),
                    Value::U64(n) => Some(*n as i128),
                    Value::U128(n) => i128::try_from(*n).ok(),
                    Value::F64(f) if f.fract() == 0.0 => Some(*f as i128),
                    _ => None,
                };
                n.and_then(|n| <$t>::try_from(n).ok()).ok_or_else(|| {
                    <D::Error as de::Error>::custom(format!(
                        "expected {}, found {}",
                        stringify!($t),
                        v.type_name()
                    ))
                })
            }
        }
    )*};
}
impl_ser_de_int!(i8, i16, i32, isize, i64);

macro_rules! impl_ser_de_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_value(Value::F64(*self as f64))
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                let v = deserializer.into_value()?;
                v.as_f64().map(|f| f as $t).ok_or_else(|| {
                    <D::Error as de::Error>::custom(format!(
                        "expected {}, found {}",
                        stringify!($t),
                        v.type_name()
                    ))
                })
            }
        }
    )*};
}
impl_ser_de_float!(f32, f64);

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let v = deserializer.into_value()?;
        v.as_bool().ok_or_else(|| {
            <D::Error as de::Error>::custom(format!("expected bool, found {}", v.type_name()))
        })
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let v = deserializer.into_value()?;
        match v {
            Value::String(s) => Ok(s),
            other => Err(<D::Error as de::Error>::custom(format!(
                "expected string, found {}",
                other.type_name()
            ))),
        }
    }
}

impl Serialize for char {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::String(self.to_string()))
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(<D::Error as de::Error>::custom(
                "expected a single-character string",
            )),
        }
    }
}

impl Serialize for () {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_unit()
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.into_value().map(|_| ())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            None => serializer.serialize_value(Value::Null),
            Some(v) => v.serialize(serializer),
        }
    }
}

impl<'de, T: de::DeserializeOwned> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let v = deserializer.into_value()?;
        match v {
            Value::Null => Ok(None),
            other => from_value(other).map(Some).map_err(dfwd::<D::Error>),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<'de, T: de::DeserializeOwned> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        T::deserialize(deserializer).map(Box::new)
    }
}

fn seq_to_value<'a, T: Serialize + 'a, E: ser::Error>(
    items: impl Iterator<Item = &'a T>,
) -> Result<Value, E> {
    let mut out = Vec::new();
    for item in items {
        out.push(to_value(item).map_err(E::custom)?);
    }
    Ok(Value::Array(out))
}

fn value_to_seq<T: de::DeserializeOwned, E: de::Error>(v: Value) -> Result<Vec<T>, E> {
    match v {
        Value::Array(items) => items
            .into_iter()
            .map(|item| from_value(item).map_err(dfwd::<E>))
            .collect(),
        other => Err(E::custom(format!(
            "expected array, found {}",
            other.type_name()
        ))),
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let v = seq_to_value::<T, S::Error>(self.iter())?;
        serializer.serialize_value(v)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

impl<'de, T: de::DeserializeOwned> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        value_to_seq(deserializer.into_value()?)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

impl<'de, T: de::DeserializeOwned + std::fmt::Debug, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let items: Vec<T> = value_to_seq(deserializer.into_value()?)?;
        let len = items.len();
        items.try_into().map_err(|_| {
            <D::Error as de::Error>::custom(format!("expected array of length {N}, found {len}"))
        })
    }
}

impl<T: Serialize + Ord> Serialize for std::collections::BTreeSet<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let v = seq_to_value::<T, S::Error>(self.iter())?;
        serializer.serialize_value(v)
    }
}

impl<'de, T: de::DeserializeOwned + Ord> Deserialize<'de> for std::collections::BTreeSet<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let items: Vec<T> = value_to_seq(deserializer.into_value()?)?;
        Ok(items.into_iter().collect())
    }
}

impl<T: Serialize + Eq + std::hash::Hash, H: std::hash::BuildHasher> Serialize
    for std::collections::HashSet<T, H>
{
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let v = seq_to_value::<T, S::Error>(self.iter())?;
        serializer.serialize_value(v)
    }
}

impl<'de, T, H> Deserialize<'de> for std::collections::HashSet<T, H>
where
    T: de::DeserializeOwned + Eq + std::hash::Hash,
    H: std::hash::BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let items: Vec<T> = value_to_seq(deserializer.into_value()?)?;
        Ok(items.into_iter().collect())
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let v = seq_to_value::<T, S::Error>(self.iter())?;
        serializer.serialize_value(v)
    }
}

impl<'de, T: de::DeserializeOwned> Deserialize<'de> for std::collections::VecDeque<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let items: Vec<T> = value_to_seq(deserializer.into_value()?)?;
        Ok(items.into_iter().collect())
    }
}

macro_rules! impl_ser_de_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                let items = vec![$(to_value(&self.$n).map_err(fwd::<S>)?),+];
                serializer.serialize_value(Value::Array(items))
            }
        }
        impl<'de, $($t: de::DeserializeOwned),+> Deserialize<'de> for ($($t,)+) {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                let v = deserializer.into_value()?;
                match v {
                    Value::Array(items) => {
                        let expected = [$(stringify!($n)),+].len();
                        if items.len() != expected {
                            return Err(<D::Error as de::Error>::custom(format!(
                                "expected tuple of {expected} elements, found {}",
                                items.len()
                            )));
                        }
                        let mut it = items.into_iter();
                        Ok(($({
                            let _ = stringify!($t);
                            from_value(it.next().expect("length checked"))
                                .map_err(dfwd::<D::Error>)?
                        },)+))
                    }
                    other => Err(<D::Error as de::Error>::custom(format!(
                        "expected array, found {}",
                        other.type_name()
                    ))),
                }
            }
        }
    )*};
}
impl_ser_de_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 Dd)
}

/// Map-key conversion (JSON object keys are strings; integers stringify,
/// exactly like upstream `serde_json`).
pub trait MapKey: Sized {
    fn to_key(&self) -> String;
    fn from_key(key: &str) -> Result<Self, String>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(key: &str) -> Result<Self, String> {
        Ok(key.to_owned())
    }
}

macro_rules! impl_map_key_int {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(key: &str) -> Result<Self, String> {
                key.parse().map_err(|_| {
                    format!("invalid {} map key {key:?}", stringify!($t))
                })
            }
        }
    )*};
}
impl_map_key_int!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

/// Pair keys encode as `"a,b"` (upstream serde_json cannot serialize
/// non-string map keys at all; this shim supports the pair maps this
/// workspace actually uses).
impl<A: MapKey, B: MapKey> MapKey for (A, B) {
    fn to_key(&self) -> String {
        format!("{},{}", self.0.to_key(), self.1.to_key())
    }
    fn from_key(key: &str) -> Result<Self, String> {
        let (a, b) = key
            .split_once(',')
            .ok_or_else(|| format!("invalid pair map key {key:?}"))?;
        Ok((A::from_key(a)?, B::from_key(b)?))
    }
}

fn map_to_value<'a, K: MapKey + 'a, V: Serialize + 'a, E: ser::Error>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
) -> Result<Value, E> {
    let mut out: Vec<(String, Value)> = Vec::new();
    for (k, v) in entries {
        out.push((k.to_key(), to_value(v).map_err(E::custom)?));
    }
    // Deterministic output regardless of hash-map iteration order.
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(Value::Object(out))
}

fn value_to_map<K: MapKey, V: de::DeserializeOwned, E: de::Error>(
    v: Value,
) -> Result<Vec<(K, V)>, E> {
    match v {
        Value::Object(entries) => entries
            .into_iter()
            .map(|(k, v)| {
                let key = K::from_key(&k).map_err(E::custom)?;
                let val = from_value(v).map_err(dfwd::<E>)?;
                Ok((key, val))
            })
            .collect(),
        other => Err(E::custom(format!(
            "expected object, found {}",
            other.type_name()
        ))),
    }
}

impl<K: MapKey + Eq + std::hash::Hash, V: Serialize, H: std::hash::BuildHasher> Serialize
    for std::collections::HashMap<K, V, H>
{
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let v = map_to_value::<K, V, S::Error>(self.iter())?;
        serializer.serialize_value(v)
    }
}

impl<'de, K, V, H> Deserialize<'de> for std::collections::HashMap<K, V, H>
where
    K: MapKey + Eq + std::hash::Hash,
    V: de::DeserializeOwned,
    H: std::hash::BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let entries = value_to_map::<K, V, D::Error>(deserializer.into_value()?)?;
        Ok(entries.into_iter().collect())
    }
}

impl<K: MapKey + Ord, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let v = map_to_value::<K, V, S::Error>(self.iter())?;
        serializer.serialize_value(v)
    }
}

impl<'de, K: MapKey + Ord, V: de::DeserializeOwned> Deserialize<'de>
    for std::collections::BTreeMap<K, V>
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let entries = value_to_map::<K, V, D::Error>(deserializer.into_value()?)?;
        Ok(entries.into_iter().collect())
    }
}

// ---------------------------------------------------------------------------
// Support routines used by the derive-generated code.
// ---------------------------------------------------------------------------

#[doc(hidden)]
pub mod __private {
    pub use super::value::Value;
    use super::{de, from_value, ser, to_value, Serialize};

    pub fn ser_field<T: Serialize + ?Sized, E: ser::Error>(value: &T) -> Result<Value, E> {
        to_value(value).map_err(E::custom)
    }

    pub fn de_value<T: de::DeserializeOwned, E: de::Error>(
        value: Value,
        context: &str,
    ) -> Result<T, E> {
        from_value(value).map_err(|e| E::custom(format!("{context}: {e}")))
    }

    pub fn expect_object<E: de::Error>(
        value: Value,
        type_name: &str,
    ) -> Result<Vec<(String, Value)>, E> {
        match value {
            Value::Object(fields) => Ok(fields),
            other => Err(E::custom(format!(
                "expected object for {type_name}, found {}",
                other.type_name()
            ))),
        }
    }

    pub fn expect_array<E: de::Error>(
        value: Value,
        type_name: &str,
        expected_len: usize,
    ) -> Result<Vec<Value>, E> {
        match value {
            Value::Array(items) if items.len() == expected_len => Ok(items),
            Value::Array(items) => Err(E::custom(format!(
                "expected {expected_len} elements for {type_name}, found {}",
                items.len()
            ))),
            other => Err(E::custom(format!(
                "expected array for {type_name}, found {}",
                other.type_name()
            ))),
        }
    }

    pub fn take_field(fields: &mut Vec<(String, Value)>, name: &str) -> Option<Value> {
        let idx = fields.iter().position(|(k, _)| k == name)?;
        Some(fields.remove(idx).1)
    }

    pub fn de_field<T: de::DeserializeOwned, E: de::Error>(
        fields: &mut Vec<(String, Value)>,
        name: &str,
        type_name: &str,
    ) -> Result<T, E> {
        let value = take_field(fields, name)
            .ok_or_else(|| E::custom(format!("missing field `{name}` in {type_name}")))?;
        de_value(value, &format!("{type_name}.{name}"))
    }

    pub fn de_field_default<T: de::DeserializeOwned + Default, E: de::Error>(
        fields: &mut Vec<(String, Value)>,
        name: &str,
        type_name: &str,
    ) -> Result<T, E> {
        match take_field(fields, name) {
            Some(value) => de_value(value, &format!("{type_name}.{name}")),
            None => Ok(T::default()),
        }
    }

    /// Splits an externally-tagged enum value into `(variant, payload)`.
    pub fn variant_parts<E: de::Error>(
        value: Value,
        type_name: &str,
    ) -> Result<(String, Option<Value>), E> {
        match value {
            Value::String(tag) => Ok((tag, None)),
            Value::Object(mut fields) if fields.len() == 1 => {
                let (tag, payload) = fields.remove(0);
                Ok((tag, Some(payload)))
            }
            other => Err(E::custom(format!(
                "expected externally tagged enum for {type_name}, found {}",
                other.type_name()
            ))),
        }
    }

    pub fn unknown_variant<E: de::Error>(type_name: &str, variant: &str) -> E {
        E::custom(format!("unknown variant `{variant}` for {type_name}"))
    }

    pub fn missing_payload<E: de::Error>(type_name: &str, variant: &str) -> E {
        E::custom(format!("variant {type_name}::{variant} requires a payload"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(from_value::<u64>(to_value(&7u64).unwrap()).unwrap(), 7);
        assert_eq!(from_value::<i32>(to_value(&-3i32).unwrap()).unwrap(), -3);
        assert_eq!(from_value::<f64>(to_value(&1.5f64).unwrap()).unwrap(), 1.5);
        assert!(from_value::<bool>(to_value(&true).unwrap()).unwrap());
        let s: String = from_value(to_value("hey").unwrap()).unwrap();
        assert_eq!(s, "hey");
    }

    #[test]
    fn integral_float_coerces_to_int() {
        assert_eq!(from_value::<u32>(Value::F64(4.0)).unwrap(), 4);
        assert!(from_value::<u32>(Value::F64(4.5)).is_err());
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![(1u64, 2u64), (3, 4)];
        let back: Vec<(u64, u64)> = from_value(to_value(&v).unwrap()).unwrap();
        assert_eq!(back, v);

        let mut m: HashMap<u128, Vec<u64>> = HashMap::new();
        m.insert(340_282_366_920_938_463_463u128, vec![1, 2]);
        m.insert(7, vec![]);
        let back: HashMap<u128, Vec<u64>> = from_value(to_value(&m).unwrap()).unwrap();
        assert_eq!(back, m);

        let arr = [9u64, 8, 7, 6];
        let back: [u64; 4] = from_value(to_value(&arr).unwrap()).unwrap();
        assert_eq!(back, arr);
    }

    #[test]
    fn maps_and_sets_roundtrip_under_any_default_build_hasher() {
        use std::collections::HashSet;
        use std::hash::{BuildHasherDefault, DefaultHasher};
        type Fixed = BuildHasherDefault<DefaultHasher>;
        let mut m: HashMap<u64, Vec<u64>, Fixed> = HashMap::default();
        m.insert(3, vec![1]);
        m.insert(4, vec![]);
        let plain: HashMap<u64, Vec<u64>> = m.iter().map(|(k, v)| (*k, v.clone())).collect();
        // Same document whatever the hasher, and it loads under either.
        assert_eq!(to_value(&m).unwrap(), to_value(&plain).unwrap());
        let back: HashMap<u64, Vec<u64>, Fixed> = from_value(to_value(&plain).unwrap()).unwrap();
        assert_eq!(back, m);
        let s: HashSet<u64, Fixed> = [5, 6].into_iter().collect();
        let back: HashSet<u64, Fixed> = from_value(to_value(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn option_null_roundtrip() {
        let some: Option<u64> = Some(5);
        let none: Option<u64> = None;
        assert_eq!(
            from_value::<Option<u64>>(to_value(&some).unwrap()).unwrap(),
            some
        );
        assert_eq!(
            from_value::<Option<u64>>(to_value(&none).unwrap()).unwrap(),
            none
        );
    }

    #[test]
    fn map_keys_are_sorted_strings() {
        let mut m: HashMap<u64, u64> = HashMap::new();
        m.insert(10, 1);
        m.insert(2, 2);
        let v = to_value(&m).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj[0].0, "10");
        assert_eq!(obj[1].0, "2");
    }
}
