//! Query execution: SELECT evaluation, joins, aggregation, sorting.
//!
//! The executor is pure with respect to the catalog: it reads tables and
//! produces a [`QueryResult`], charging its work to the
//! [`OpStats`](crate::OpStats) passed in.
//! Mutating statements are executed by [`crate::db::Database`], which owns the
//! write-ahead log and transaction machinery.

mod aggregate;
mod select;

pub(crate) use select::matching_row_ids_with;
pub use select::{execute_select_opts, Catalog, ExecOptions};

use crate::convert::{resolve_column, FromRow, RowView};
use crate::error::Result;
use crate::tuple::Row;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The result of a query: named output columns and the result rows.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct QueryResult {
    /// Output column names, in projection order. Names are `Arc<str>`s
    /// interned from the table schema at definition time, and the list
    /// itself is shared: a wildcard select clones the table's interned
    /// header (one refcount bump), not a fresh vector of names.
    pub columns: Arc<[Arc<str>]>,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// The output column names as plain string slices, in projection order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| &**c).collect()
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Returns the value in the first row at `column`, if present.
    pub fn first_value(&self, column: &str) -> Option<&Value> {
        let idx = self.column_index(column)?;
        self.rows.first().map(|r| r.get(idx))
    }

    /// Returns the ordinal of an output column by name (case-insensitive,
    /// accepting either the qualified or unqualified form).
    pub fn column_index(&self, column: &str) -> Option<usize> {
        resolve_column(&self.columns, column)
    }

    /// A [`RowView`] over row `row` — by-name, typed access to its values.
    pub fn view(&self, row: usize) -> Option<RowView<'_>> {
        self.rows.get(row).map(|r| RowView::new(&self.columns, r))
    }

    /// Iterates [`RowView`]s over every result row.
    pub fn views(&self) -> impl Iterator<Item = RowView<'_>> {
        self.rows.iter().map(|r| RowView::new(&self.columns, r))
    }

    /// Decodes every result row into `T` via its [`FromRow`] impl.
    pub fn decode<T: FromRow>(&self) -> Result<Vec<T>> {
        self.views().map(|v| T::from_row(&v)).collect()
    }

    /// Decodes the first result row, if any.
    pub fn decode_first<T: FromRow>(&self) -> Result<Option<T>> {
        self.view(0).map(|v| T::from_row(&v)).transpose()
    }

    /// Convenience: the single integer produced by an aggregate query such as
    /// `SELECT COUNT(*) FROM ...`.
    pub fn scalar_int(&self) -> Option<i64> {
        if self.rows.len() == 1 && self.rows[0].arity() == 1 {
            self.rows[0].get(0).as_int().ok()
        } else {
            None
        }
    }

    /// Renders the result as a simple aligned text table (for examples and
    /// the SQL console).
    pub fn to_text_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.values
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let s = v.to_string();
                        if i < widths.len() {
                            widths[i] = widths[i].max(s.len());
                        }
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:width$}  ", c, width = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for row in rendered {
            for (i, v) in row.iter().enumerate() {
                let w = widths.get(i).copied().unwrap_or(v.len());
                out.push_str(&format!("{v:w$}  "));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl QueryResult {
        /// The value at (`row`, `column`), if present.
        pub(crate) fn value(&self, row: usize, column: &str) -> Option<&Value> {
            let idx = self.column_index(column)?;
            self.rows.get(row).map(|r| r.get(idx))
        }
    }

    fn result() -> QueryResult {
        QueryResult {
            columns: vec!["jobs.job_id".into(), "state".into()].into(),
            rows: vec![
                Row::new(vec![Value::Int(1), Value::Text("idle".into())]),
                Row::new(vec![Value::Int(2), Value::Text("running".into())]),
            ],
        }
    }

    #[test]
    fn column_index_handles_qualified_names() {
        let r = result();
        assert_eq!(r.column_index("state"), Some(1));
        assert_eq!(r.column_index("job_id"), Some(0));
        assert_eq!(r.column_index("jobs.job_id"), Some(0));
        assert_eq!(r.column_index("missing"), None);
    }

    #[test]
    fn value_accessors() {
        let r = result();
        assert_eq!(r.first_value("job_id"), Some(&Value::Int(1)));
        assert_eq!(r.value(1, "state"), Some(&Value::Text("running".into())));
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.scalar_int(), None);
    }

    #[test]
    fn scalar_int_for_single_cell() {
        let r = QueryResult {
            columns: vec!["count".into()].into(),
            rows: vec![Row::new(vec![Value::Int(42)])],
        };
        assert_eq!(r.scalar_int(), Some(42));
    }

    #[test]
    fn text_table_contains_all_cells() {
        let text = result().to_text_table();
        assert!(text.contains("jobs.job_id"));
        assert!(text.contains("'running'"));
    }
}
