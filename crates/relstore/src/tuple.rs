//! Rows and row identifiers.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A stable identifier for a row within a table's heap.
///
/// Row ids are assigned monotonically by the table and never reused, which
/// keeps the write-ahead log and the secondary indexes simple: a `(key, RowId)`
/// pair uniquely identifies one version of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RowId(pub u64);

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A single row: an ordered list of values matching the table schema.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Row {
    /// The values, positionally aligned with the schema columns.
    pub values: Vec<Value>,
}

impl Row {
    /// Creates a row from a vector of values.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// Number of values in the row.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Returns the value at ordinal `idx`, or NULL if out of bounds.
    pub fn get(&self, idx: usize) -> &Value {
        static NULL: Value = Value::Null;
        self.values.get(idx).unwrap_or(&NULL)
    }

    /// Replaces the value at ordinal `idx`. Panics if out of bounds — callers
    /// validate ordinals against the schema before updating.
    pub fn set(&mut self, idx: usize, value: Value) {
        self.values[idx] = value;
    }

    /// Approximate in-memory size in bytes, used by the cost model.
    pub fn approx_size(&self) -> usize {
        self.values.iter().map(Value::approx_size).sum::<usize>() + 16
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// A borrowed row paired with its identifier, as streamed by the table
/// access paths ([`crate::table::Table::scan`] and the index lookups).
///
/// Rows stay in the heap; the executor evaluates predicates against the
/// borrow — a join hands tuples of such borrows from step to step — and
/// clones only the values that survive projection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredRowRef<'a> {
    /// The heap identifier of the row.
    pub id: RowId,
    /// The row contents, borrowed from the table heap.
    pub row: &'a Row,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_out_of_bounds_is_null() {
        let r = Row::new(vec![Value::Int(1)]);
        assert_eq!(r.get(0), &Value::Int(1));
        assert_eq!(r.get(5), &Value::Null);
    }

    #[test]
    fn set_and_arity() {
        let mut r = Row::new(vec![Value::Int(1), Value::Null]);
        r.set(1, Value::Text("x".into()));
        assert_eq!(r.arity(), 2);
        assert_eq!(r.get(1), &Value::Text("x".into()));
    }

    #[test]
    fn display_formats_tuple() {
        let r = Row::new(vec![Value::Int(1), Value::Text("a".into())]);
        assert_eq!(r.to_string(), "(1, 'a')");
        assert_eq!(RowId(7).to_string(), "#7");
    }

    #[test]
    fn row_size_grows_with_content() {
        let small = Row::new(vec![Value::Int(1)]);
        let big = Row::new(vec![Value::Text("a long machine name".into()), Value::Int(1)]);
        assert!(big.approx_size() > small.approx_size());
    }
}
