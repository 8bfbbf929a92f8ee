//! Dynamically typed SQL values and their data types.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::sync::Arc;
use std::fmt;

/// The SQL data types supported by the engine.
///
/// This is the small set the CondorJ2 schema needs: integers for identifiers
/// and counters, doubles for rates and loads, text for names and ClassAd-style
/// attributes, booleans for flags and timestamps for event times (stored as
/// integral seconds of simulated time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Double,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Bool,
    /// A point in (simulated) time, stored as whole milliseconds.
    Timestamp,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Double => "DOUBLE",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
            DataType::Timestamp => "TIMESTAMP",
        };
        f.write_str(s)
    }
}

/// A single dynamically typed value.
///
/// `Null` is a member of every type; comparisons involving `Null` follow SQL
/// three-valued logic at the predicate layer (see `crate::predicate`), while
/// the total order implemented here (used for index keys and ORDER BY) sorts
/// `Null` first.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer value.
    Int(i64),
    /// Double-precision value.
    Double(f64),
    /// Text value (shared: cloning a text value bumps a refcount).
    Text(Arc<str>),
    /// Boolean value.
    Bool(bool),
    /// Timestamp value in whole milliseconds of simulated time.
    Timestamp(i64),
}

impl Value {
    /// Returns the data type of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// True if this value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the integer content, coercing timestamps, or an error.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) | Value::Timestamp(i) => Ok(*i),
            other => Err(Error::type_err(format!("expected INT, got {other}"))),
        }
    }

    /// Returns the numeric content as f64 (ints widen), or an error.
    pub fn as_double(&self) -> Result<f64> {
        match self {
            Value::Double(d) => Ok(*d),
            Value::Int(i) | Value::Timestamp(i) => Ok(*i as f64),
            other => Err(Error::type_err(format!("expected DOUBLE, got {other}"))),
        }
    }

    /// Returns the text content, or an error.
    pub fn as_text(&self) -> Result<&str> {
        match self {
            Value::Text(s) => Ok(s),
            other => Err(Error::type_err(format!("expected TEXT, got {other}"))),
        }
    }

    /// Returns the boolean content, or an error.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::type_err(format!("expected BOOL, got {other}"))),
        }
    }

    /// Checks whether this value can be stored in a column of type `ty`.
    ///
    /// NULL is compatible with every type. Integers are accepted by DOUBLE
    /// and TIMESTAMP columns (the common literal case).
    pub fn is_compatible_with(&self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Int(_), DataType::Int | DataType::Double | DataType::Timestamp)
                | (Value::Double(_), DataType::Double)
                | (Value::Text(_), DataType::Text)
                | (Value::Bool(_), DataType::Bool)
                | (Value::Timestamp(_), DataType::Timestamp | DataType::Int)
        )
    }

    /// Coerces the value into the exact representation used by a column of
    /// type `ty` (e.g. INT literal into a DOUBLE or TIMESTAMP column).
    pub fn coerce_to(&self, ty: DataType) -> Result<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        let ok = match (self, ty) {
            (Value::Int(i), DataType::Double) => Value::Double(*i as f64),
            (Value::Int(i), DataType::Timestamp) => Value::Timestamp(*i),
            (Value::Timestamp(i), DataType::Int) => Value::Int(*i),
            (v, t) if v.is_compatible_with(t) => v.clone(),
            (v, t) => {
                return Err(Error::type_err(format!("cannot store {v} in {t} column")));
            }
        };
        Ok(ok)
    }

    /// Compares two values for SQL equality. Returns `None` when either side
    /// is NULL (unknown), mirroring three-valued logic.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other) == Ordering::Equal)
    }

    /// Compares two values for ordering. Returns `None` when either side is
    /// NULL or the types are incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Text(_), _) | (_, Value::Text(_)) => None,
            (Value::Bool(_), _) | (_, Value::Bool(_)) => None,
            // Numeric family: Int, Double, Timestamp compare by numeric
            // value, exactly; NaN is unordered here.
            (Value::Double(d), _) | (_, Value::Double(d)) if d.is_nan() => None,
            (a, b) => Some(numeric_cmp(a, b)),
        }
    }

    /// A total order over all values, used for index keys and sorting.
    /// NULL sorts first, then booleans, then numbers, then text.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Double(_) | Value::Timestamp(_) => 2,
                Value::Text(_) => 3,
            }
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)).then_with(|| numeric_cmp(a, b)),
        }
    }

    /// Approximate in-memory size in bytes, used by the operation cost model.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) | Value::Timestamp(_) => 8,
            Value::Double(_) => 8,
            Value::Bool(_) => 1,
            Value::Text(s) => s.len() + 8,
        }
    }
}

/// 2^63 as a double: the first double past `i64::MAX`.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// The integer `d` is exactly, if any.
fn exact_int(d: f64) -> Option<i64> {
    (d.trunc() == d && (-TWO_POW_63..TWO_POW_63).contains(&d)).then_some(d as i64)
}

/// Compares an integer with a double exactly, NaN above every number.
fn int_double_cmp(i: i64, d: f64) -> Ordering {
    if d.is_nan() || d >= TWO_POW_63 {
        return Ordering::Less;
    }
    if d < -TWO_POW_63 {
        return Ordering::Greater;
    }
    // `d` is in `i64`'s range, so its integral part converts exactly.
    let t = d.trunc();
    i.cmp(&(t as i64)).then_with(|| t.total_cmp(&d))
}

/// The total order of the numeric family: integers and timestamps as
/// `i64`, an integer against a double exactly, doubles by value with
/// `-0.0 == 0.0` and NaN equal to itself and above every number.
fn numeric_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Int(x) | Value::Timestamp(x), Value::Int(y) | Value::Timestamp(y)) => x.cmp(y),
        (Value::Int(i) | Value::Timestamp(i), Value::Double(d)) => int_double_cmp(*i, *d),
        (Value::Double(d), Value::Int(i) | Value::Timestamp(i)) => int_double_cmp(*i, *d).reverse(),
        (Value::Double(x), Value::Double(y)) => match (x.is_nan(), y.is_nan()) {
            (false, false) => x.partial_cmp(y).expect("neither side is NaN"),
            (nan_x, nan_y) => nan_x.cmp(&nan_y),
        },
        _ => unreachable!("numeric_cmp is only called on numeric values"),
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal && self.is_null() == other.is_null()
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) | Value::Timestamp(i) => {
                2u8.hash(state);
                i.hash(state);
            }
            Value::Double(d) => {
                2u8.hash(state);
                // A double equal to an integer hashes as that integer
                // (`-0.0` as `0`); every NaN is one value.
                match exact_int(*d) {
                    Some(i) => i.hash(state),
                    None if d.is_nan() => f64::NAN.to_bits().hash(state),
                    None => d.to_bits().hash(state),
                }
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Timestamp(t) => write!(f, "TS({t})"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(Arc::from(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(Arc::from(v))
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(x) => x.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_of_values() {
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::Text("x".into()).data_type(), Some(DataType::Text));
    }

    #[test]
    fn accessors_enforce_types() {
        assert_eq!(Value::Int(7).as_int().unwrap(), 7);
        assert_eq!(Value::Timestamp(9).as_int().unwrap(), 9);
        assert!(Value::Text("x".into()).as_int().is_err());
        assert_eq!(Value::Int(3).as_double().unwrap(), 3.0);
        assert!(Value::Bool(true).as_bool().unwrap());
        assert!(Value::Int(1).as_bool().is_err());
    }

    #[test]
    fn compatibility_and_coercion() {
        assert!(Value::Int(5).is_compatible_with(DataType::Double));
        assert!(Value::Null.is_compatible_with(DataType::Text));
        assert!(!Value::Text("a".into()).is_compatible_with(DataType::Int));
        assert_eq!(
            Value::Int(5).coerce_to(DataType::Double).unwrap(),
            Value::Double(5.0)
        );
        assert_eq!(
            Value::Int(5).coerce_to(DataType::Timestamp).unwrap(),
            Value::Timestamp(5)
        );
        assert!(Value::Bool(true).coerce_to(DataType::Int).is_err());
    }

    #[test]
    fn sql_equality_is_three_valued() {
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_mixed_numeric() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Double(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Double(3.0).sql_cmp(&Value::Int(3)),
            Some(Ordering::Equal)
        );
        assert_eq!(Value::Text("a".into()).sql_cmp(&Value::Int(3)), None);
    }

    #[test]
    fn total_order_sorts_nulls_first() {
        let mut vals = [Value::Text("b".into()),
            Value::Int(10),
            Value::Null,
            Value::Bool(true),
            Value::Double(-4.5)];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Double(-4.5));
        assert_eq!(vals[3], Value::Int(10));
        assert_eq!(vals[4], Value::Text("b".into()));
    }

    #[test]
    fn display_round_trip_style() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Text("job".into()).to_string(), "'job'");
        assert_eq!(Value::Bool(false).to_string(), "FALSE");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from("x"), Value::Text("x".into()));
        assert_eq!(Value::from(Some(1i64)), Value::Int(1));
        assert_eq!(Value::from(Option::<i64>::None), Value::Null);
    }

    /// Values that sit on every edge of the numeric order: integers on
    /// both sides of 2^53 and of `i64`'s ends, the doubles next to them,
    /// signed zeros, fractions, infinities and NaN, beside the other types.
    fn edge_values() -> Vec<Value> {
        let big = 1i64 << 53;
        let mut vals = vec![Value::Null, Value::Bool(false), Value::Bool(true)];
        for i in [0, 1, -1, 2, big - 1, big, big + 1, big + 2, i64::MAX, i64::MAX - 1, i64::MIN, i64::MIN + 1] {
            vals.push(Value::Int(i));
            vals.push(Value::Timestamp(i));
        }
        for d in [
            0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.5, -2.5, big as f64, big as f64 + 2.0,
            i64::MAX as f64, i64::MIN as f64, 1e300, -1e300,
            f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN,
        ] {
            vals.push(Value::Double(d));
        }
        for s in ["", "a", "b", "ab"] {
            vals.push(Value::Text(s.into()));
        }
        vals
    }

    fn hash_of(v: &Value) -> u64 {
        use std::hash::{BuildHasher, BuildHasherDefault};
        BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default().hash_one(v)
    }

    #[test]
    fn equal_values_hash_alike_and_total_cmp_is_a_total_order() {
        let vals = edge_values();
        for a in &vals {
            assert_eq!(a.total_cmp(a), Ordering::Equal, "{a} is not equal to itself");
            for b in &vals {
                let ab = a.total_cmp(b);
                assert_eq!(ab, b.total_cmp(a).reverse(), "antisymmetry: {a} vs {b}");
                if a == b {
                    assert_eq!(hash_of(a), hash_of(b), "{a} == {b} but their hashes differ");
                }
                for c in &vals {
                    if ab != Ordering::Greater && b.total_cmp(c) != Ordering::Greater {
                        assert_ne!(a.total_cmp(c), Ordering::Greater, "transitivity: {a} <= {b} <= {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn integers_beyond_two_pow_53_compare_exactly() {
        let big = 1i64 << 53;
        let (a, b) = (Value::Int(big), Value::Int(big + 1));
        assert_ne!(a, b);
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        assert_eq!(a.sql_cmp(&b), Some(Ordering::Less));
        assert_eq!(Value::Timestamp(big + 1).sql_eq(&Value::Int(big + 1)), Some(true));
        // `big + 1` has no double; the nearest one is `big`.
        assert_eq!(b.total_cmp(&Value::Double(big as f64)), Ordering::Greater);
        assert_eq!(a.total_cmp(&Value::Double(big as f64)), Ordering::Equal);
        assert_eq!(hash_of(&a), hash_of(&Value::Double(big as f64)));
        assert_eq!(Value::Int(i64::MAX).total_cmp(&Value::Double(i64::MAX as f64)), Ordering::Less);
        assert_eq!(Value::Int(i64::MIN).total_cmp(&Value::Double(i64::MIN as f64)), Ordering::Equal);
        assert_eq!(Value::Int(0).sql_cmp(&Value::Double(-0.5)), Some(Ordering::Greater));
        assert_eq!(Value::Int(1).sql_cmp(&Value::Double(f64::NAN)), None);
    }

    #[test]
    fn approx_size_reflects_payload() {
        assert!(Value::Text("abcdef".into()).approx_size() > Value::Int(1).approx_size());
    }
}
