//! Typed conversions between Rust values and the SQL surface.
//!
//! This module is the boundary layer of the typed client API:
//!
//! * [`IntoParams`] turns a tuple of ordinary Rust values into the positional
//!   parameter bindings of a prepared statement, so call sites write
//!   `session.query(&stmt, (job_id, "idle"))` instead of hand-building
//!   `&[Value::Int(..), Value::from(..)]` slices;
//! * [`FromValue`] decodes one [`Value`] into a concrete Rust type (with
//!   `Option<T>` mapping SQL NULL to `None`);
//! * [`RowView`] pairs a result row with its output column names, resolving
//!   `row.get("col")` against the interned `Arc<str>` names the executor
//!   shares with the table schema;
//! * [`FromRow`] decodes a whole row into a struct, powering
//!   [`Session::query_as`](crate::Session::query_as) and
//!   [`QueryResult::decode`](crate::QueryResult::decode);
//! * [`ToStatement`] lets the session API accept either SQL text (routed
//!   through the statement cache) or an already-prepared handle.

use crate::db::{Database, Prepared};
use crate::error::{Error, Result};
use crate::tuple::Row;
use crate::value::Value;
use std::borrow::Cow;
use std::sync::Arc;

// --- parameter binding -------------------------------------------------------

/// A set of positional parameter values for a prepared statement.
///
/// Implemented for tuples of up to eight `Into<Value>` types (including the
/// empty tuple for statements with no placeholders), and for `Vec<Value>` /
/// `&[Value]` when the binding count is only known at runtime (as in the
/// entity layer's dynamically shaped statements).
pub trait IntoParams {
    /// Converts into the positional binding list.
    fn into_params(self) -> Vec<Value>;
}

impl IntoParams for Vec<Value> {
    fn into_params(self) -> Vec<Value> {
        self
    }
}

impl IntoParams for &[Value] {
    fn into_params(self) -> Vec<Value> {
        self.to_vec()
    }
}

impl<const N: usize> IntoParams for [Value; N] {
    fn into_params(self) -> Vec<Value> {
        self.into()
    }
}

macro_rules! impl_into_params_for_tuple {
    ($($name:ident : $idx:tt),*) => {
        impl<$($name: Into<Value>),*> IntoParams for ($($name,)*) {
            fn into_params(self) -> Vec<Value> {
                vec![$(self.$idx.into()),*]
            }
        }
    };
}

impl IntoParams for () {
    fn into_params(self) -> Vec<Value> {
        Vec::new()
    }
}
impl_into_params_for_tuple!(A: 0);
impl_into_params_for_tuple!(A: 0, B: 1);
impl_into_params_for_tuple!(A: 0, B: 1, C: 2);
impl_into_params_for_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_into_params_for_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_into_params_for_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
impl_into_params_for_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);
impl_into_params_for_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7);

// --- value decoding ----------------------------------------------------------

/// Decodes one SQL [`Value`] into a concrete Rust type.
///
/// Numeric decoding follows the engine's coercion rules: `i64` accepts
/// timestamps, `f64` accepts integers. `Option<T>` decodes SQL NULL to
/// `None`; every non-`Option` type reports NULL as a type error rather than
/// inventing a default.
pub trait FromValue: Sized {
    /// Decodes the value, or reports why it does not fit.
    fn from_value(value: &Value) -> Result<Self>;
}

impl FromValue for Value {
    fn from_value(value: &Value) -> Result<Self> {
        Ok(value.clone())
    }
}

impl FromValue for i64 {
    fn from_value(value: &Value) -> Result<Self> {
        value.as_int()
    }
}

impl FromValue for i32 {
    fn from_value(value: &Value) -> Result<Self> {
        let wide = value.as_int()?;
        i32::try_from(wide)
            .map_err(|_| Error::type_err(format!("{wide} does not fit in an i32")))
    }
}

impl FromValue for u32 {
    fn from_value(value: &Value) -> Result<Self> {
        let wide = value.as_int()?;
        u32::try_from(wide)
            .map_err(|_| Error::type_err(format!("{wide} does not fit in a u32")))
    }
}

impl FromValue for u64 {
    fn from_value(value: &Value) -> Result<Self> {
        let wide = value.as_int()?;
        u64::try_from(wide)
            .map_err(|_| Error::type_err(format!("{wide} does not fit in a u64")))
    }
}

impl FromValue for f64 {
    fn from_value(value: &Value) -> Result<Self> {
        value.as_double()
    }
}

impl FromValue for bool {
    fn from_value(value: &Value) -> Result<Self> {
        value.as_bool()
    }
}

impl FromValue for String {
    fn from_value(value: &Value) -> Result<Self> {
        value.as_text().map(str::to_string)
    }
}

impl<T: FromValue> FromValue for Option<T> {
    fn from_value(value: &Value) -> Result<Self> {
        if value.is_null() {
            Ok(None)
        } else {
            T::from_value(value).map(Some)
        }
    }
}

// --- row views and typed row decoding ----------------------------------------

/// Resolves an output column name to its ordinal, case-insensitively and
/// accepting `col` for a qualified output column named `table.col` (as long
/// as the suffix is unambiguous).
pub(crate) fn resolve_column(columns: &[Arc<str>], column: &str) -> Option<usize> {
    let want = column.to_ascii_lowercase();
    if let Some(i) = columns.iter().position(|c| c.eq_ignore_ascii_case(&want)) {
        return Some(i);
    }
    let suffix = format!(".{want}");
    let mut found = None;
    for (i, c) in columns.iter().enumerate() {
        if c.to_ascii_lowercase().ends_with(&suffix) {
            if found.is_some() {
                return None;
            }
            found = Some(i);
        }
    }
    found
}

/// One result row paired with its output column names: the input to
/// [`FromRow`] decoding and the home of by-name access.
///
/// The column names are the interned `Arc<str>`s the executor shares with the
/// table schema, so resolving a name compares against the same strings the
/// catalog holds — no per-row name copies exist anywhere on this path.
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    columns: &'a [Arc<str>],
    row: &'a Row,
}

impl<'a> RowView<'a> {
    /// Creates a view over `row` with the given output columns.
    pub fn new(columns: &'a [Arc<str>], row: &'a Row) -> Self {
        RowView { columns, row }
    }

    /// Decodes the value in `column` (by name, case-insensitive, accepting
    /// the unqualified form of a qualified output name). Unknown columns are
    /// a [`Error::NotFound`]; NULL in a non-`Option` target is a type error.
    pub fn get<T: FromValue>(&self, column: &str) -> Result<T> {
        let idx = resolve_column(self.columns, column)
            .ok_or_else(|| Error::not_found(format!("output column {column}")))?;
        T::from_value(self.row.get(idx)).map_err(|e| {
            Error::type_err(format!("column {column}: {e}"))
        })
    }

    /// Decodes the value at ordinal `idx` (for tuple decoding and generic
    /// consumers that iterate the column list themselves).
    pub fn get_at<T: FromValue>(&self, idx: usize) -> Result<T> {
        if idx >= self.row.arity() {
            return Err(Error::not_found(format!("output column ordinal {idx}")));
        }
        T::from_value(self.row.get(idx))
            .map_err(|e| Error::type_err(format!("column ordinal {idx}: {e}")))
    }

    /// The output column names, in projection order.
    pub fn columns(&self) -> &'a [Arc<str>] {
        self.columns
    }

    /// The underlying row.
    pub fn raw(&self) -> &'a Row {
        self.row
    }
}

/// Decodes one result row into a typed value.
///
/// Implement this for the hot entities a service decodes repeatedly; the
/// by-name [`RowView::get`] calls make the mapping robust against projection
/// reordering, unlike positional indexing.
///
/// ```
/// use relstore::{Database, FromRow, Result, RowView};
///
/// struct Job { id: i64, owner: String, runtime_ms: Option<i64> }
///
/// impl FromRow for Job {
///     fn from_row(row: &RowView<'_>) -> Result<Self> {
///         Ok(Job {
///             id: row.get("job_id")?,
///             owner: row.get("owner")?,
///             runtime_ms: row.get("runtime_ms")?,
///         })
///     }
/// }
///
/// let db = Database::new();
/// db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, owner TEXT, runtime_ms INT)")?;
/// db.execute("INSERT INTO jobs VALUES (1, 'alice', NULL)")?;
/// let jobs: Vec<Job> = db.session().query_as("SELECT * FROM jobs", ())?;
/// assert_eq!(jobs[0].owner, "alice");
/// assert_eq!(jobs[0].runtime_ms, None);
/// # Ok::<(), relstore::Error>(())
/// ```
pub trait FromRow: Sized {
    /// Decodes the row, or reports which column did not fit.
    fn from_row(row: &RowView<'_>) -> Result<Self>;
}

macro_rules! impl_from_row_for_tuple {
    ($($name:ident : $idx:tt),*) => {
        impl<$($name: FromValue),*> FromRow for ($($name,)*) {
            fn from_row(row: &RowView<'_>) -> Result<Self> {
                Ok(($(row.get_at::<$name>($idx)?,)*))
            }
        }
    };
}

impl_from_row_for_tuple!(A: 0);
impl_from_row_for_tuple!(A: 0, B: 1);
impl_from_row_for_tuple!(A: 0, B: 1, C: 2);
impl_from_row_for_tuple!(A: 0, B: 1, C: 2, D: 3);

// --- statement sources -------------------------------------------------------

/// A statement source for the session API: either SQL text (resolved through
/// the database's statement cache) or an already-[`Prepared`] handle (lent
/// as is — no lookup, no clone).
pub trait ToStatement {
    /// Resolves to a prepared statement against `db`.
    fn to_prepared(&self, db: &Database) -> Result<Cow<'_, Prepared>>;
}

impl ToStatement for Prepared {
    fn to_prepared(&self, _db: &Database) -> Result<Cow<'_, Prepared>> {
        Ok(Cow::Borrowed(self))
    }
}

impl ToStatement for &Prepared {
    fn to_prepared(&self, _db: &Database) -> Result<Cow<'_, Prepared>> {
        Ok(Cow::Borrowed(self))
    }
}

impl ToStatement for &str {
    fn to_prepared(&self, db: &Database) -> Result<Cow<'_, Prepared>> {
        db.prepare(self).map(Cow::Owned)
    }
}

impl ToStatement for String {
    fn to_prepared(&self, db: &Database) -> Result<Cow<'_, Prepared>> {
        db.prepare(self).map(Cow::Owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuples_bind_in_order() {
        let params = (7i64, "idle", 2.5f64, true).into_params();
        assert_eq!(
            params,
            vec![
                Value::Int(7),
                Value::Text("idle".into()),
                Value::Double(2.5),
                Value::Bool(true)
            ]
        );
        assert!(().into_params().is_empty());
        assert_eq!((Value::Null,).into_params(), vec![Value::Null]);
        assert_eq!(
            (Some(1i64), Option::<i64>::None).into_params(),
            vec![Value::Int(1), Value::Null]
        );
        // Runtime-shaped bindings pass through unchanged.
        let dynamic = vec![Value::Int(1), Value::Text("x".into())];
        assert_eq!(dynamic.clone().into_params(), dynamic);
        assert_eq!(dynamic.as_slice().into_params(), dynamic);
    }

    #[test]
    fn from_value_decodes_and_rejects() {
        assert_eq!(i64::from_value(&Value::Int(4)).unwrap(), 4);
        assert_eq!(i64::from_value(&Value::Timestamp(9)).unwrap(), 9);
        assert_eq!(f64::from_value(&Value::Int(2)).unwrap(), 2.0);
        assert_eq!(String::from_value(&Value::Text("a".into())).unwrap(), "a");
        assert!(bool::from_value(&Value::Bool(true)).unwrap());
        assert_eq!(i32::from_value(&Value::Int(7)).unwrap(), 7);
        assert!(i32::from_value(&Value::Int(i64::MAX)).is_err());
        assert!(u64::from_value(&Value::Int(-1)).is_err());
        // NULL only fits Option targets.
        assert!(i64::from_value(&Value::Null).is_err());
        assert_eq!(Option::<i64>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Option::<i64>::from_value(&Value::Int(3)).unwrap(), Some(3));
        assert_eq!(Value::from_value(&Value::Null).unwrap(), Value::Null);
    }

    #[test]
    fn row_view_resolves_names_like_query_results() {
        let columns: Vec<Arc<str>> = vec!["jobs.job_id".into(), "state".into()];
        let row = Row::new(vec![Value::Int(1), Value::Text("idle".into())]);
        let view = RowView::new(&columns, &row);
        assert_eq!(view.get::<i64>("job_id").unwrap(), 1);
        assert_eq!(view.get::<i64>("JOBS.JOB_ID").unwrap(), 1);
        assert_eq!(view.get::<String>("state").unwrap(), "idle");
        assert_eq!(view.get_at::<i64>(0).unwrap(), 1);
        assert!(view.get::<i64>("missing").is_err());
        assert!(view.get_at::<i64>(5).is_err());
        assert_eq!(view.columns().len(), 2);
        assert_eq!(view.raw().arity(), 2);
    }

    #[test]
    fn tuple_from_row_decodes_positionally() {
        let columns: Vec<Arc<str>> = vec!["a".into(), "b".into()];
        let row = Row::new(vec![Value::Int(1), Value::Text("x".into())]);
        let view = RowView::new(&columns, &row);
        let (a, b): (i64, String) = FromRow::from_row(&view).unwrap();
        assert_eq!((a, b.as_str()), (1, "x"));
        assert!(<(i64, i64, i64)>::from_row(&view).is_err());
    }
}
