//! Abstract syntax tree for the supported SQL subset.

use crate::error::{Error, Result};
use crate::predicate::{CmpOp, Expr};
use crate::schema::Schema;
use crate::value::Value;
use serde::{Deserialize, Serialize};

/// Sort direction for `ORDER BY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SortOrder {
    /// Ascending (default).
    Asc,
    /// Descending.
    Desc,
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrderKey {
    /// The column to sort by.
    pub column: String,
    /// Sort direction.
    pub order: SortOrder,
}

/// Aggregate functions supported in the projection list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggFunc {
    /// `COUNT(*)` or `COUNT(col)`.
    Count,
    /// `SUM(col)`.
    Sum,
    /// `AVG(col)`.
    Avg,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
}

impl AggFunc {
    /// Canonical upper-case name of the function.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// One item in a `SELECT` projection list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SelectItem {
    /// `*` — every column of the (joined) input relation.
    Wildcard,
    /// A scalar expression with an optional `AS` alias.
    Expr {
        /// The expression to evaluate per row.
        expr: Expr,
        /// Output column name override.
        alias: Option<String>,
    },
    /// An aggregate over an optional column (`None` means `COUNT(*)`).
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// The aggregated column, or `None` for `COUNT(*)`.
        column: Option<String>,
        /// Output column name override.
        alias: Option<String>,
    },
}

/// An inner join clause: `JOIN <table> ON <predicate>`.
///
/// A predicate that is a single equality between two column references (the
/// common `a.x = b.y` case) is executed as a hash join; any other predicate
/// falls back to a nested-loop join evaluating `on` over the concatenated
/// row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinClause {
    /// The right-hand table name.
    pub table: String,
    /// The `ON` predicate.
    pub on: Expr,
}

impl JoinClause {
    /// When the `ON` predicate is a single equality between two column
    /// references, returns them as `(left, right)` in source order. Which
    /// side belongs to which table is resolved by the planner against the
    /// joined schemas.
    pub(crate) fn equi_columns(&self) -> Option<(&str, &str)> {
        if let Expr::Cmp(CmpOp::Eq, l, r) = &self.on {
            if let (Expr::Column(a), Expr::Column(b)) = (l.as_ref(), r.as_ref()) {
                return Some((a, b));
            }
        }
        None
    }
}

/// A `LIMIT` row count: written in the SQL text, or a `?` placeholder bound
/// at execution so one prepared statement serves every count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Limit {
    /// `LIMIT <n>`.
    Count(usize),
    /// `LIMIT ?` — the index of the placeholder among the statement's
    /// parameters.
    Param(usize),
}

impl Limit {
    /// The row count this limit stands for under `params`. A placeholder
    /// must be bound to a non-negative integer: anything else — a negative
    /// count, a non-integer, NULL, a missing binding — is a type error.
    pub(crate) fn resolve(&self, params: &[Value]) -> Result<usize> {
        match *self {
            Limit::Count(n) => Ok(n),
            Limit::Param(i) => {
                let bound = params.get(i).ok_or_else(|| {
                    Error::type_err(format!("LIMIT parameter ?{} is not bound", i + 1))
                })?;
                match bound {
                    Value::Int(n) => usize::try_from(*n).ok(),
                    _ => None,
                }
                .ok_or_else(|| {
                    Error::type_err(format!("LIMIT expects a non-negative integer, got {bound}"))
                })
            }
        }
    }
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectStmt {
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// Base table.
    pub table: String,
    /// Inner joins applied left-to-right.
    pub joins: Vec<JoinClause>,
    /// Optional filter predicate.
    pub filter: Option<Expr>,
    /// `GROUP BY` columns.
    pub group_by: Vec<String>,
    /// `ORDER BY` keys.
    pub order_by: Vec<OrderKey>,
    /// `LIMIT`, if present.
    pub limit: Option<Limit>,
}

impl SelectStmt {
    /// Number of `?` bind-parameter slots referenced anywhere in the
    /// statement (one past the highest index), including join predicates,
    /// subqueries and `LIMIT ?`.
    pub(crate) fn param_count(&self) -> usize {
        let mut n = match self.limit {
            Some(Limit::Param(i)) => i + 1,
            _ => 0,
        };
        self.for_each_expr(&mut |e| n = n.max(e.param_count()));
        n
    }

    /// The `LIMIT` row count under `params`, if the statement has one (see
    /// [`Limit::resolve`]).
    pub(crate) fn limit_with(&self, params: &[Value]) -> Result<Option<usize>> {
        self.limit.map(|l| l.resolve(params)).transpose()
    }

    /// True when the statement aggregates: an aggregate function in the
    /// projection list, or a `GROUP BY`.
    pub(crate) fn has_aggregates(&self) -> bool {
        !self.group_by.is_empty()
            || self
                .items
                .iter()
                .any(|i| matches!(i, SelectItem::Aggregate { .. }))
    }

    /// Puts `values` back in place of the `?` slots
    /// ([`Statement::inline_params`]); true when one of them is in an
    /// unaliased projection item, subqueries' included.
    pub(crate) fn inline_params(&mut self, values: &[Value]) -> bool {
        let mut projected = false;
        for item in &mut self.items {
            if let SelectItem::Expr { expr, alias } = item {
                projected |= alias.is_none() && expr.param_count() > 0;
                projected |= expr.inline_params(values);
            }
        }
        for join in &mut self.joins {
            projected |= join.on.inline_params(values);
        }
        if let Some(filter) = &mut self.filter {
            projected |= filter.inline_params(values);
        }
        if let Some(Limit::Param(i)) = self.limit {
            if let Some(Value::Int(n)) = values.get(i) {
                self.limit = usize::try_from(*n).ok().map(Limit::Count).or(self.limit);
            }
        }
        projected
    }

    /// Visits every expression directly embedded in the statement
    /// (subquery bodies are reached through [`Expr::param_count`] and
    /// friends, not this visitor).
    pub(crate) fn for_each_expr(&self, f: &mut impl FnMut(&Expr)) {
        if let Some(filter) = &self.filter {
            f(filter);
        }
        for item in &self.items {
            if let SelectItem::Expr { expr, .. } = item {
                f(expr);
            }
        }
        for join in &self.joins {
            f(&join.on);
        }
    }
}

/// An `INSERT` statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InsertStmt {
    /// Target table.
    pub table: String,
    /// Optional explicit column list; when empty the full schema order is used.
    pub columns: Vec<String>,
    /// One or more value rows (literal expressions, evaluated against an empty row).
    pub rows: Vec<Vec<Expr>>,
}

/// An `UPDATE` statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpdateStmt {
    /// Target table.
    pub table: String,
    /// `SET column = expr` assignments.
    pub assignments: Vec<(String, Expr)>,
    /// Optional filter predicate.
    pub filter: Option<Expr>,
}

/// A `DELETE` statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeleteStmt {
    /// Target table.
    pub table: String,
    /// Optional filter predicate.
    pub filter: Option<Expr>,
}

/// Any parsed SQL statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Statement {
    /// `CREATE TABLE ...`.
    CreateTable(Schema),
    /// `CREATE [UNIQUE] INDEX ON table (column)`.
    CreateIndex {
        /// Target table.
        table: String,
        /// Indexed column.
        column: String,
        /// Whether duplicates are rejected.
        unique: bool,
    },
    /// `DROP TABLE name`.
    DropTable(String),
    /// `SELECT ...`.
    Select(SelectStmt),
    /// `INSERT ...`.
    Insert(InsertStmt),
    /// `UPDATE ...`.
    Update(UpdateStmt),
    /// `DELETE ...`.
    Delete(DeleteStmt),
    /// `BEGIN [TRANSACTION]`.
    Begin,
    /// `COMMIT`.
    Commit,
    /// `ROLLBACK`.
    Rollback,
    /// `ANALYZE [table]` — collect planner statistics for one table or for
    /// every table in the catalog.
    Analyze(Option<String>),
    /// `EXPLAIN [ANALYZE] <select>` — render the chosen plan as rows;
    /// with ANALYZE, execute the query and annotate operators with actual
    /// row counts and timings.
    Explain {
        /// Whether to execute and report actuals (`EXPLAIN ANALYZE`).
        analyze: bool,
        /// The SELECT being explained.
        select: SelectStmt,
    },
}

impl Statement {
    /// Number of `?` bind-parameter slots in the statement (one past the
    /// highest parameter index).
    pub(crate) fn param_count(&self) -> usize {
        if let Statement::Select(sel) | Statement::Explain { select: sel, .. } = self {
            return sel.param_count();
        }
        let mut n = 0usize;
        self.for_each_expr(&mut |e| n = n.max(e.param_count()));
        n
    }

    /// Puts `values` back in place of the `?` slots — slot `k` becomes the
    /// literal `values[k]` — in every clause and subquery. Returns true when
    /// a slot sat in an unaliased projection item, where a `?` would change
    /// the output column's label. The statement cache uses it to check a
    /// shape against its text.
    pub(crate) fn inline_params(&mut self, values: &[Value]) -> bool {
        let mut projected = false;
        match self {
            Statement::Select(sel) | Statement::Explain { select: sel, .. } => {
                projected = sel.inline_params(values);
            }
            Statement::Insert(ins) => {
                for expr in ins.rows.iter_mut().flatten() {
                    projected |= expr.inline_params(values);
                }
            }
            Statement::Update(upd) => {
                for (_, expr) in &mut upd.assignments {
                    projected |= expr.inline_params(values);
                }
                if let Some(filter) = &mut upd.filter {
                    projected |= filter.inline_params(values);
                }
            }
            Statement::Delete(del) => {
                if let Some(filter) = &mut del.filter {
                    projected |= filter.inline_params(values);
                }
            }
            Statement::CreateTable(_)
            | Statement::CreateIndex { .. }
            | Statement::DropTable(_)
            | Statement::Begin
            | Statement::Commit
            | Statement::Rollback
            | Statement::Analyze(_) => {}
        }
        projected
    }

    /// Visits every expression embedded in the statement.
    fn for_each_expr(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Statement::Select(sel) | Statement::Explain { select: sel, .. } => {
                sel.for_each_expr(f);
            }
            Statement::Insert(ins) => {
                for row in &ins.rows {
                    for expr in row {
                        f(expr);
                    }
                }
            }
            Statement::Update(upd) => {
                for (_, expr) in &upd.assignments {
                    f(expr);
                }
                if let Some(filter) = &upd.filter {
                    f(filter);
                }
            }
            Statement::Delete(del) => {
                if let Some(filter) = &del.filter {
                    f(filter);
                }
            }
            Statement::CreateTable(_)
            | Statement::CreateIndex { .. }
            | Statement::DropTable(_)
            | Statement::Begin
            | Statement::Commit
            | Statement::Rollback
            | Statement::Analyze(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    impl Statement {
        /// True for statements that only read data. `EXPLAIN ANALYZE` executes
        /// its SELECT, which is itself read-only; `ANALYZE` mutates catalog-held
        /// statistics and is treated as a write.
        pub(crate) fn is_read_only(&self) -> bool {
            matches!(self, Statement::Select(_) | Statement::Explain { .. })
        }

        /// The table this statement primarily targets, if any.
        fn target_table(&self) -> Option<&str> {
            match self {
                Statement::CreateTable(s) => Some(&s.name),
                Statement::CreateIndex { table, .. } => Some(table),
                Statement::DropTable(t) => Some(t),
                Statement::Select(s) => Some(&s.table),
                Statement::Insert(s) => Some(&s.table),
                Statement::Update(s) => Some(&s.table),
                Statement::Delete(s) => Some(&s.table),
                Statement::Analyze(t) => t.as_deref(),
                Statement::Explain { select, .. } => Some(&select.table),
                Statement::Begin | Statement::Commit | Statement::Rollback => None,
            }
        }
    }

    #[test]
    fn statement_classification() {
        let sel = Statement::Select(SelectStmt {
            items: vec![SelectItem::Wildcard],
            table: "jobs".into(),
            joins: vec![],
            filter: None,
            group_by: vec![],
            order_by: vec![],
            limit: None,
        });
        assert!(sel.is_read_only());
        assert_eq!(sel.target_table(), Some("jobs"));

        let ct = Statement::CreateTable(Schema::new(
            "jobs",
            vec![Column::new("job_id", DataType::Int)],
        ));
        assert!(!ct.is_read_only());
        assert_eq!(ct.target_table(), Some("jobs"));
        assert_eq!(Statement::Begin.target_table(), None);

        // ANALYZE mutates catalog-held statistics; EXPLAIN only reads.
        let an = Statement::Analyze(Some("jobs".into()));
        assert!(!an.is_read_only());
        assert_eq!(an.target_table(), Some("jobs"));
        assert_eq!(Statement::Analyze(None).target_table(), None);
    }

    #[test]
    fn agg_func_names() {
        assert_eq!(AggFunc::Count.name(), "COUNT");
        assert_eq!(AggFunc::Avg.name(), "AVG");
    }

    #[test]
    fn param_count_covers_every_statement_kind() {
        use crate::sql::parser::parse;

        assert_eq!(parse("UPDATE jobs SET state = ? WHERE job_id = ?").unwrap().param_count(), 2);
        assert_eq!(parse("INSERT INTO jobs (job_id, owner) VALUES (?, ?)").unwrap().param_count(), 2);
        assert_eq!(parse("SELECT job_id + ? FROM jobs WHERE owner = ?").unwrap().param_count(), 2);
        assert_eq!(parse("DELETE FROM jobs WHERE job_id = ?").unwrap().param_count(), 1);
        assert_eq!(parse("DROP TABLE jobs").unwrap().param_count(), 0);
        // Parameters inside join predicates, subqueries and EXPLAIN count too.
        assert_eq!(
            parse("SELECT * FROM jobs JOIN runs ON jobs.job_id = runs.job_id WHERE owner = ?")
                .unwrap()
                .param_count(),
            1
        );
        assert_eq!(
            parse("SELECT * FROM jobs WHERE owner IN (SELECT name FROM users WHERE quota > ?)")
                .unwrap()
                .param_count(),
            1
        );
        assert_eq!(
            parse("EXPLAIN SELECT * FROM jobs WHERE job_id = ?").unwrap().param_count(),
            1
        );
        // `LIMIT ?` takes the next slot, in a subquery too.
        assert_eq!(
            parse("SELECT * FROM jobs WHERE state = ? ORDER BY job_id LIMIT ?")
                .unwrap()
                .param_count(),
            2
        );
        assert_eq!(
            parse("SELECT * FROM jobs WHERE job_id IN (SELECT job_id FROM runs LIMIT ?)")
                .unwrap()
                .param_count(),
            1
        );
    }
}
