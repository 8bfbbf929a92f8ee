//! Scalar expressions and predicate evaluation over rows.
//!
//! An [`Expr`] names its columns; a [`BoundExpr`] addresses them. Binding
//! ([`Expr::bind`]) resolves every column reference once, against the
//! schemas of the tables in scope, to a [`ColRef`] — which row of a tuple,
//! which value of that row — and evaluation then reads straight out of the
//! borrowed rows: no name is compared and no value is cloned per row. A
//! *tuple* is one borrowed row per table in scope (a single row for a
//! single-table statement; the executor's joins concatenate references, not
//! values). Comparison follows SQL three-valued logic: any comparison
//! against NULL is unknown and an unknown predicate does not select the row.

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::sql::ast::SelectStmt;
use crate::tuple::Row;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// Binary comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// Equality (`=`).
    Eq,
    /// Inequality (`<>` / `!=`).
    Ne,
    /// Less-than (`<`).
    Lt,
    /// Less-than-or-equal (`<=`).
    Le,
    /// Greater-than (`>`).
    Gt,
    /// Greater-than-or-equal (`>=`).
    Ge,
}

impl CmpOp {
    /// The operator with its operands swapped (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq | CmpOp::Ne => self,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        };
        f.write_str(s)
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A literal constant.
    Literal(Value),
    /// A positional bind parameter (`?`), 0-indexed in statement order.
    /// Resolved at evaluation time from the bound-parameter context (see
    /// `BoundExpr::eval`).
    Param(usize),
    /// A reference to a column by name.
    Column(String),
    /// A comparison between two sub-expressions.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic over two sub-expressions.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Logical AND (three-valued).
    And(Box<Expr>, Box<Expr>),
    /// Logical OR (three-valued).
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT (three-valued).
    Not(Box<Expr>),
    /// `expr IS NULL`.
    IsNull(Box<Expr>),
    /// `expr IS NOT NULL`.
    IsNotNull(Box<Expr>),
    /// `expr IN (v1, v2, ...)` against literal values.
    InList(Box<Expr>, Vec<Value>),
    /// `expr IN (SELECT ...)`. Uncorrelated subqueries are rewritten into an
    /// [`Expr::InList`] over the subquery's result before row evaluation
    /// begins (a hash semi-join over the materialized inner side), so this
    /// variant is never bound.
    InSubquery(Box<Expr>, Box<SelectStmt>),
    /// `(SELECT ...)` used as a scalar value. The subquery must produce at
    /// most one row of exactly one column; it is rewritten into an
    /// [`Expr::Literal`] (NULL when it yields no row) before row evaluation
    /// begins, so this variant is never bound.
    ScalarSubquery(Box<SelectStmt>),
}

impl Expr {
    /// Convenience constructor: `column = literal`.
    pub fn col_eq(column: impl Into<String>, value: impl Into<Value>) -> Expr {
        Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Column(column.into())),
            Box::new(Expr::Literal(value.into())),
        )
    }

    /// Convenience constructor: `column <op> literal`.
    pub fn col_cmp(column: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> Expr {
        Expr::Cmp(
            op,
            Box::new(Expr::Column(column.into())),
            Box::new(Expr::Literal(value.into())),
        )
    }

    /// Convenience constructor: logical AND of two expressions.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// Convenience constructor: logical OR of two expressions.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// Resolves every column reference against `scope` — the schemas of the
    /// tables whose rows make up a tuple, in slot order — borrowing literals
    /// and `IN` lists from `self`. A bare name must belong to exactly one
    /// table in scope; a qualified one must name its table. The common
    /// filter shape, a comparison between a column and a literal or `?`,
    /// binds without allocating.
    #[inline]
    pub fn bind<'e>(&'e self, scope: &[&Schema]) -> Result<BoundExpr<'e>> {
        match self.bind_leaf(scope)? {
            Some(leaf) => Ok(BoundExpr::Leaf(leaf)),
            None => self.bind_node(scope),
        }
    }

    /// `self` as a leaf, when it is one. Inlined into its callers, so a
    /// one-off evaluation of a `VALUES` or `SET` expression — nearly always
    /// a literal or a `?` — costs what reading the value costs.
    #[inline]
    fn bind_leaf<'e>(&'e self, scope: &[&Schema]) -> Result<Option<Leaf<'e>>> {
        Ok(Some(match self {
            Expr::Literal(v) => Leaf::Literal(v),
            Expr::Param(i) => Leaf::Param(*i),
            Expr::Column(name) => Leaf::Column(resolve_column(scope, name)?),
            _ => return Ok(None),
        }))
    }

    /// Binds an expression that is not a leaf.
    fn bind_node<'e>(&'e self, scope: &[&Schema]) -> Result<BoundExpr<'e>> {
        let arg = |e: &'e Expr| -> Result<Operand<'e>> {
            Ok(match e.bind_leaf(scope)? {
                Some(leaf) => Operand::Leaf(leaf),
                None => Operand::Expr(Box::new(e.bind_node(scope)?)),
            })
        };
        Ok(match self {
            Expr::Literal(_) | Expr::Param(_) | Expr::Column(_) => {
                unreachable!("bind_leaf binds the leaves")
            }
            Expr::Cmp(op, l, r) => BoundExpr::Cmp(*op, arg(l)?, arg(r)?),
            Expr::Arith(op, l, r) => BoundExpr::Arith(*op, arg(l)?, arg(r)?),
            Expr::And(l, r) => BoundExpr::And(arg(l)?, arg(r)?),
            Expr::Or(l, r) => BoundExpr::Or(arg(l)?, arg(r)?),
            Expr::Not(e) => BoundExpr::Not(arg(e)?),
            Expr::IsNull(e) => BoundExpr::IsNull(arg(e)?),
            Expr::IsNotNull(e) => BoundExpr::IsNotNull(arg(e)?),
            Expr::InList(e, list) => BoundExpr::InList(arg(e)?, list),
            // Subqueries are rewritten into literals / IN lists before the
            // WHERE clause is bound; reaching one here means it sits in a
            // position the engine does not support (projection, SET, ...).
            Expr::InSubquery(..) | Expr::ScalarSubquery(_) => {
                return Err(Error::type_err(
                    "subqueries are only supported in the WHERE clause of a SELECT",
                ))
            }
        })
    }

    /// Evaluates the expression against `row` described by `schema`, with no
    /// bound parameters (any [`Expr::Param`] fails).
    pub fn eval(&self, schema: &Schema, row: &Row) -> Result<Value> {
        self.eval_with(schema, row, &[])
    }

    /// One-off evaluation against a single `row` described by `schema`,
    /// resolving `?` placeholders from `params`: binds, evaluates, and owns
    /// the result. Loops over rows bind once ([`Expr::bind`]) instead.
    #[inline]
    pub fn eval_with(&self, schema: &Schema, row: &Row, params: &[Value]) -> Result<Value> {
        match self.bind_leaf(&[schema])? {
            Some(leaf) => leaf.get(&[row], params).cloned(),
            None => Ok(self.bind_node(&[schema])?.eval(&[row], params)?.into_owned()),
        }
    }

    /// Evaluates the expression as a predicate: true selects the row,
    /// false or unknown (NULL) rejects it.
    pub fn matches(&self, schema: &Schema, row: &Row) -> Result<bool> {
        self.matches_with(schema, row, &[])
    }

    /// As [`Expr::matches`], resolving `?` placeholders from `params`.
    pub fn matches_with(&self, schema: &Schema, row: &Row, params: &[Value]) -> Result<bool> {
        self.bind(&[schema])?.matches(&[row], params)
    }

    /// If the expression pins `column` of `table` to a single concrete value
    /// with equality somewhere in a top-level conjunction, return that value.
    /// Accepts both the bare and the `table.column`-qualified spelling
    /// without allocating a candidate name per call, and resolves `?`
    /// placeholders from `params`. Used by the planner to choose point
    /// lookups over scans.
    pub fn equality_lookup_on(&self, table: &str, column: &str, params: &[Value]) -> Option<Value> {
        match self {
            Expr::Cmp(CmpOp::Eq, l, r) => match (l.as_ref(), r.as_ref()) {
                (Expr::Column(c), v) | (v, Expr::Column(c))
                    if column_matches(c, table, column) =>
                {
                    as_bound(v, params).cloned()
                }
                _ => None,
            },
            Expr::And(l, r) => l
                .equality_lookup_on(table, column, params)
                .or_else(|| r.equality_lookup_on(table, column, params)),
            _ => None,
        }
    }

    /// Inclusive `(lo, hi)` bounds implied for `column` of `table` by the
    /// top-level conjunction, or `None` when no comparison constrains the
    /// column. Strict bounds (`<`, `>`) are widened to inclusive ones: the
    /// access path only needs a *superset* of the matching rows because the
    /// executor re-applies the full predicate afterwards. `?` placeholders
    /// resolve through `params`.
    pub fn range_bounds_on(
        &self,
        table: &str,
        column: &str,
        params: &[Value],
    ) -> Option<(Option<Value>, Option<Value>)> {
        let mut lo: Option<Value> = None;
        let mut hi: Option<Value> = None;
        self.collect_range_bounds(table, column, params, &mut lo, &mut hi);
        if lo.is_none() && hi.is_none() {
            None
        } else {
            Some((lo, hi))
        }
    }

    fn collect_range_bounds(
        &self,
        table: &str,
        column: &str,
        params: &[Value],
        lo: &mut Option<Value>,
        hi: &mut Option<Value>,
    ) {
        match self {
            Expr::And(l, r) => {
                l.collect_range_bounds(table, column, params, lo, hi);
                r.collect_range_bounds(table, column, params, lo, hi);
            }
            Expr::Cmp(op, l, r) => {
                let (op, v) = match (l.as_ref(), r.as_ref()) {
                    (Expr::Column(c), v) if column_matches(c, table, column) => {
                        match as_bound(v, params) {
                            Some(v) => (*op, v),
                            None => return,
                        }
                    }
                    (v, Expr::Column(c)) if column_matches(c, table, column) => {
                        match as_bound(v, params) {
                            Some(v) => (op.flip(), v),
                            None => return,
                        }
                    }
                    _ => return,
                };
                // A NULL comparison matches nothing; the filter re-check
                // rejects every row, so no bound needs recording.
                if v.is_null() {
                    return;
                }
                match op {
                    CmpOp::Eq => {
                        tighten_lo(lo, v);
                        tighten_hi(hi, v);
                    }
                    CmpOp::Gt | CmpOp::Ge => tighten_lo(lo, v),
                    CmpOp::Lt | CmpOp::Le => tighten_hi(hi, v),
                    CmpOp::Ne => {}
                }
            }
            _ => {}
        }
    }

    /// Number of parameter slots this expression requires
    /// (one past the highest `?` index).
    pub fn param_count(&self) -> usize {
        match self {
            Expr::Param(i) => i + 1,
            Expr::Literal(_) | Expr::Column(_) => 0,
            Expr::Cmp(_, l, r) | Expr::Arith(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) => {
                l.param_count().max(r.param_count())
            }
            Expr::Not(e) | Expr::IsNull(e) | Expr::IsNotNull(e) | Expr::InList(e, _) => {
                e.param_count()
            }
            Expr::InSubquery(e, sel) => e.param_count().max(sel.param_count()),
            Expr::ScalarSubquery(sel) => sel.param_count(),
        }
    }

    /// Collects the names of all columns referenced by the expression.
    /// Subquery bodies are *not* descended into: their column references
    /// resolve against the subquery's own tables, not the enclosing
    /// relation.
    pub fn referenced_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Literal(_) | Expr::Param(_) | Expr::ScalarSubquery(_) => {}
            Expr::Column(c) => out.push(c.clone()),
            Expr::Cmp(_, l, r) | Expr::Arith(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) => {
                l.referenced_columns(out);
                r.referenced_columns(out);
            }
            Expr::Not(e)
            | Expr::IsNull(e)
            | Expr::IsNotNull(e)
            | Expr::InList(e, _)
            | Expr::InSubquery(e, _) => e.referenced_columns(out),
        }
    }

    /// True when the expression contains a subquery anywhere — the signal
    /// that a filter needs the subquery-rewrite pass before evaluation.
    pub fn contains_subquery(&self) -> bool {
        match self {
            Expr::InSubquery(..) | Expr::ScalarSubquery(_) => true,
            Expr::Literal(_) | Expr::Param(_) | Expr::Column(_) => false,
            Expr::Cmp(_, l, r) | Expr::Arith(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) => {
                l.contains_subquery() || r.contains_subquery()
            }
            Expr::Not(e) | Expr::IsNull(e) | Expr::IsNotNull(e) | Expr::InList(e, _) => {
                e.contains_subquery()
            }
        }
    }

    /// Structural form of [`Expr::equality_lookup_on`]: true when a
    /// top-level conjunct pins `column` of `table` with equality against a
    /// literal *or an unbound `?` placeholder*. Plans for prepared
    /// statements are built before parameters are bound, so the planner asks
    /// whether a point lookup *will* be possible; the concrete key is
    /// extracted at execution time via `equality_lookup_on`.
    pub fn pins_column(&self, table: &str, column: &str) -> bool {
        match self {
            Expr::Cmp(CmpOp::Eq, l, r) => match (l.as_ref(), r.as_ref()) {
                (Expr::Column(c), v) | (v, Expr::Column(c))
                    if column_matches(c, table, column) =>
                {
                    matches!(v, Expr::Literal(_) | Expr::Param(_))
                }
                _ => false,
            },
            Expr::And(l, r) => l.pins_column(table, column) || r.pins_column(table, column),
            _ => false,
        }
    }

    /// Structural form of [`Expr::range_bounds_on`]: true when a top-level
    /// conjunct constrains `column` of `table` with an ordering comparison
    /// against a literal or an unbound `?` placeholder.
    pub fn ranges_column(&self, table: &str, column: &str) -> bool {
        match self {
            Expr::And(l, r) => l.ranges_column(table, column) || r.ranges_column(table, column),
            Expr::Cmp(op, l, r) => {
                if matches!(op, CmpOp::Ne) {
                    return false;
                }
                match (l.as_ref(), r.as_ref()) {
                    (Expr::Column(c), v) | (v, Expr::Column(c))
                        if column_matches(c, table, column) =>
                    {
                        matches!(v, Expr::Literal(_) | Expr::Param(_))
                    }
                    _ => false,
                }
            }
            _ => false,
        }
    }
}

/// Where a column lives in a tuple of borrowed rows: `slot` picks the row
/// (the table's position in the binding scope), `ord` the value within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColRef {
    /// Index of the row within the tuple.
    pub slot: usize,
    /// Ordinal of the column within that row's schema.
    pub ord: usize,
}

impl ColRef {
    /// The value this reference addresses in `tuple`.
    #[inline]
    pub fn of<'a>(self, tuple: &[&'a Row]) -> &'a Value {
        tuple[self.slot].get(self.ord)
    }
}

/// The one column resolver: finds `name` among the tables of `scope`. A
/// qualified `table.column` only matches the table it names; a bare name
/// matching columns of two tables is an *ambiguous column* type error, one
/// matching none is not-found. Does not allocate for a lower-case name.
pub fn resolve_column(scope: &[&Schema], name: &str) -> Result<ColRef> {
    let lname = crate::schema::lower_name(name);
    let (table, column) = match lname.split_once('.') {
        Some((t, c)) => (Some(t), c),
        None => (None, lname.as_ref()),
    };
    let mut found = None;
    for (slot, schema) in scope.iter().enumerate() {
        if table.is_some_and(|t| t != schema.name) {
            continue;
        }
        if let Some(ord) = schema.columns.iter().position(|c| *c.name == *column) {
            if found.is_some() {
                return Err(Error::type_err(format!("ambiguous column {name}")));
            }
            found = Some(ColRef { slot, ord });
        }
    }
    found.ok_or_else(|| {
        let tables: Vec<&str> = scope.iter().map(|s| s.name.as_str()).collect();
        Error::not_found(format!("column {name} in {}", tables.join(", ")))
    })
}

/// An operand that needs no evaluation: its value is borrowed as is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Leaf<'e> {
    /// A literal of the statement.
    Literal(&'e Value),
    /// The `?` placeholder with this index.
    Param(usize),
    /// A column of the tuple.
    Column(ColRef),
}

impl<'e> Leaf<'e> {
    #[inline]
    fn get<'a>(&'a self, tuple: &[&'a Row], params: &'a [Value]) -> Result<&'a Value> {
        match self {
            Leaf::Literal(v) => Ok(v),
            Leaf::Column(c) => Ok(c.of(tuple)),
            Leaf::Param(i) => params.get(*i).ok_or_else(|| {
                Error::type_err(format!(
                    "unbound parameter ?{} — execute this statement through a prepared handle",
                    i + 1
                ))
            }),
        }
    }
}

/// A child of a [`BoundExpr`] node: leaves sit inline, so only a nested
/// sub-expression costs a box.
#[derive(Debug, PartialEq)]
pub enum Operand<'e> {
    /// A literal, placeholder or column.
    Leaf(Leaf<'e>),
    /// A nested sub-expression.
    Expr(Box<BoundExpr<'e>>),
}

impl<'e> Operand<'e> {
    #[inline]
    fn eval<'a>(&'a self, tuple: &[&'a Row], params: &'a [Value]) -> Result<Cow<'a, Value>> {
        match self {
            Operand::Leaf(leaf) => leaf.get(tuple, params).map(Cow::Borrowed),
            Operand::Expr(e) => e.eval(tuple, params),
        }
    }

    #[inline]
    fn test(&self, tuple: &[&Row], params: &[Value]) -> Result<Option<bool>> {
        match self {
            Operand::Leaf(leaf) => to_tristate(leaf.get(tuple, params)?),
            Operand::Expr(e) => e.test(tuple, params),
        }
    }
}

/// An [`Expr`] with its columns resolved ([`Expr::bind`]): evaluated
/// against a tuple of borrowed rows, borrowing every value it can.
#[derive(Debug, PartialEq)]
pub enum BoundExpr<'e> {
    /// A bare literal, placeholder or column.
    Leaf(Leaf<'e>),
    /// A comparison.
    Cmp(CmpOp, Operand<'e>, Operand<'e>),
    /// Arithmetic.
    Arith(ArithOp, Operand<'e>, Operand<'e>),
    /// Logical AND (three-valued).
    And(Operand<'e>, Operand<'e>),
    /// Logical OR (three-valued).
    Or(Operand<'e>, Operand<'e>),
    /// Logical NOT (three-valued).
    Not(Operand<'e>),
    /// `expr IS NULL`.
    IsNull(Operand<'e>),
    /// `expr IS NOT NULL`.
    IsNotNull(Operand<'e>),
    /// `expr IN (v1, v2, ...)`.
    InList(Operand<'e>, &'e [Value]),
}

impl<'e> BoundExpr<'e> {
    /// The column this expression is, when it is nothing but a column.
    pub fn as_column(&self) -> Option<ColRef> {
        match self {
            BoundExpr::Leaf(Leaf::Column(c)) => Some(*c),
            _ => None,
        }
    }

    /// The expression's value over `tuple`, resolving `?` placeholders from
    /// `params`. Borrowed from the row, the statement or `params` unless
    /// the expression computes something.
    pub fn eval<'a>(&'a self, tuple: &[&'a Row], params: &'a [Value]) -> Result<Cow<'a, Value>> {
        match self {
            BoundExpr::Leaf(leaf) => leaf.get(tuple, params).map(Cow::Borrowed),
            BoundExpr::Arith(op, l, r) => {
                let (l, r) = (l.eval(tuple, params)?, r.eval(tuple, params)?);
                eval_arith(*op, &l, &r).map(Cow::Owned)
            }
            _ => Ok(Cow::Owned(match self.test(tuple, params)? {
                Some(b) => Value::Bool(b),
                None => Value::Null,
            })),
        }
    }

    /// The expression as a three-valued truth value; anything but a boolean
    /// or NULL is a type error.
    fn test(&self, tuple: &[&Row], params: &[Value]) -> Result<Option<bool>> {
        Ok(match self {
            BoundExpr::Leaf(_) | BoundExpr::Arith(..) => {
                return to_tristate(self.eval(tuple, params)?.as_ref())
            }
            BoundExpr::Cmp(op, l, r) => {
                eval_cmp(*op, l.eval(tuple, params)?.as_ref(), r.eval(tuple, params)?.as_ref())
            }
            BoundExpr::And(l, r) => and3(l.test(tuple, params)?, r.test(tuple, params)?),
            BoundExpr::Or(l, r) => or3(l.test(tuple, params)?, r.test(tuple, params)?),
            BoundExpr::Not(e) => e.test(tuple, params)?.map(|b| !b),
            BoundExpr::IsNull(e) => Some(e.eval(tuple, params)?.is_null()),
            BoundExpr::IsNotNull(e) => Some(!e.eval(tuple, params)?.is_null()),
            BoundExpr::InList(e, list) => {
                let v = e.eval(tuple, params)?;
                if v.is_null() {
                    return Ok(None);
                }
                let mut saw_null = false;
                for item in *list {
                    match v.sql_eq(item) {
                        Some(true) => return Ok(Some(true)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null {
                    None
                } else {
                    Some(false)
                }
            }
        })
    }

    /// Evaluates the expression as a predicate over `tuple`: true selects
    /// it, false or unknown (NULL) rejects it.
    #[inline]
    pub fn matches(&self, tuple: &[&Row], params: &[Value]) -> Result<bool> {
        Ok(self.test(tuple, params)? == Some(true))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Param(_) => write!(f, "?"),
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Cmp(op, l, r) => write!(f, "({l} {op} {r})"),
            Expr::Arith(op, l, r) => write!(f, "({l} {op} {r})"),
            Expr::And(l, r) => write!(f, "({l} AND {r})"),
            Expr::Or(l, r) => write!(f, "({l} OR {r})"),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::IsNull(e) => write!(f, "({e} IS NULL)"),
            Expr::IsNotNull(e) => write!(f, "({e} IS NOT NULL)"),
            Expr::InList(e, list) => {
                write!(f, "({e} IN (")?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "))")
            }
            Expr::InSubquery(e, sel) => write!(f, "({e} IN (SELECT … FROM {}))", sel.table),
            Expr::ScalarSubquery(sel) => write!(f, "(SELECT … FROM {})", sel.table),
        }
    }
}

/// Resolves a planner operand to a concrete value: a literal directly, a `?`
/// placeholder through `params`. Column references and compound expressions
/// yield `None` (the planner cannot constant-fold them).
fn as_bound<'v>(e: &'v Expr, params: &'v [Value]) -> Option<&'v Value> {
    match e {
        Expr::Literal(v) => Some(v),
        Expr::Param(i) => params.get(*i),
        _ => None,
    }
}

/// True when a column reference `cand` denotes `column` of `table`, accepting
/// both the bare and the `table.column`-qualified spelling, without
/// allocating.
pub(crate) fn column_matches(cand: &str, table: &str, column: &str) -> bool {
    if cand.eq_ignore_ascii_case(column) {
        return true;
    }
    match cand.split_once('.') {
        Some((t, c)) => t.eq_ignore_ascii_case(table) && c.eq_ignore_ascii_case(column),
        None => false,
    }
}

/// Raises `*lo` to `v` when `v` is the tighter lower bound.
fn tighten_lo(lo: &mut Option<Value>, v: &Value) {
    if lo.as_ref().is_none_or(|cur| v.total_cmp(cur) == std::cmp::Ordering::Greater) {
        *lo = Some(v.clone());
    }
}

/// Lowers `*hi` to `v` when `v` is the tighter upper bound.
fn tighten_hi(hi: &mut Option<Value>, v: &Value) {
    if hi.as_ref().is_none_or(|cur| v.total_cmp(cur) == std::cmp::Ordering::Less) {
        *hi = Some(v.clone());
    }
}

fn eval_cmp(op: CmpOp, l: &Value, r: &Value) -> Option<bool> {
    match op {
        CmpOp::Eq => l.sql_eq(r),
        CmpOp::Ne => l.sql_eq(r).map(|b| !b),
        CmpOp::Lt => l.sql_cmp(r).map(|o| o == std::cmp::Ordering::Less),
        CmpOp::Le => l.sql_cmp(r).map(|o| o != std::cmp::Ordering::Greater),
        CmpOp::Gt => l.sql_cmp(r).map(|o| o == std::cmp::Ordering::Greater),
        CmpOp::Ge => l.sql_cmp(r).map(|o| o != std::cmp::Ordering::Less),
    }
}

fn eval_arith(op: ArithOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Integer arithmetic stays integral when both sides are integral and the
    // operation is exact; everything else widens to double.
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok(match op {
            ArithOp::Add => Value::Int(a.wrapping_add(*b)),
            ArithOp::Sub => Value::Int(a.wrapping_sub(*b)),
            ArithOp::Mul => Value::Int(a.wrapping_mul(*b)),
            ArithOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a / b)
                }
            }
        }),
        _ => {
            let a = l.as_double()?;
            let b = r.as_double()?;
            Ok(match op {
                ArithOp::Add => Value::Double(a + b),
                ArithOp::Sub => Value::Double(a - b),
                ArithOp::Mul => Value::Double(a * b),
                ArithOp::Div => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Double(a / b)
                    }
                }
            })
        }
    }
}

fn to_tristate(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Bool(b) => Ok(Some(*b)),
        Value::Null => Ok(None),
        other => Err(Error::type_err(format!("expected a boolean, got {other}"))),
    }
}

fn and3(l: Option<bool>, r: Option<bool>) -> Option<bool> {
    match (l, r) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn or3(l: Option<bool>, r: Option<bool>) -> Option<bool> {
    match (l, r) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(
            "jobs",
            vec![
                Column::new("job_id", DataType::Int),
                Column::new("state", DataType::Text),
                Column::new("runtime", DataType::Double),
                Column::new("done", DataType::Bool),
            ],
        )
    }

    fn row(id: i64, state: &str, runtime: f64, done: bool) -> Row {
        Row::new(vec![
            Value::Int(id),
            Value::Text(state.into()),
            Value::Double(runtime),
            Value::Bool(done),
        ])
    }

    #[test]
    fn column_and_literal_eval() {
        let s = schema();
        let r = row(1, "idle", 2.0, false);
        assert_eq!(
            Expr::Column("state".into()).eval(&s, &r).unwrap(),
            Value::Text("idle".into())
        );
        assert_eq!(
            Expr::Literal(Value::Int(9)).eval(&s, &r).unwrap(),
            Value::Int(9)
        );
        assert!(Expr::Column("missing".into()).eval(&s, &r).is_err());
    }

    #[test]
    fn comparisons_and_matching() {
        let s = schema();
        let r = row(5, "idle", 2.0, false);
        assert!(Expr::col_eq("state", "idle").matches(&s, &r).unwrap());
        assert!(!Expr::col_eq("state", "running").matches(&s, &r).unwrap());
        assert!(Expr::col_cmp("job_id", CmpOp::Ge, 5).matches(&s, &r).unwrap());
        assert!(Expr::col_cmp("runtime", CmpOp::Lt, 3).matches(&s, &r).unwrap());
    }

    #[test]
    fn null_comparisons_do_not_match() {
        let s = schema();
        let r = Row::new(vec![Value::Null, Value::Null, Value::Null, Value::Null]);
        assert!(!Expr::col_eq("job_id", 1).matches(&s, &r).unwrap());
        assert!(!Expr::col_cmp("job_id", CmpOp::Ne, 1).matches(&s, &r).unwrap());
        assert!(Expr::IsNull(Box::new(Expr::Column("job_id".into())))
            .matches(&s, &r)
            .unwrap());
        assert!(!Expr::IsNotNull(Box::new(Expr::Column("job_id".into())))
            .matches(&s, &r)
            .unwrap());
    }

    #[test]
    fn three_valued_and_or() {
        let s = schema();
        let r = row(1, "idle", 2.0, true);
        let null = Expr::Literal(Value::Null);
        let truth = Expr::Literal(Value::Bool(true));
        let falsity = Expr::Literal(Value::Bool(false));
        // NULL AND FALSE = FALSE; NULL AND TRUE = NULL (does not match).
        assert!(!null.clone().and(falsity.clone()).matches(&s, &r).unwrap());
        assert!(!null.clone().and(truth.clone()).matches(&s, &r).unwrap());
        // NULL OR TRUE = TRUE.
        assert!(null.clone().or(truth).matches(&s, &r).unwrap());
        assert!(!null.or(falsity).matches(&s, &r).unwrap());
    }

    #[test]
    fn arithmetic_int_and_double() {
        let s = schema();
        let r = row(10, "idle", 4.0, false);
        let e = Expr::Arith(
            ArithOp::Add,
            Box::new(Expr::Column("job_id".into())),
            Box::new(Expr::Literal(Value::Int(5))),
        );
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Int(15));
        let e = Expr::Arith(
            ArithOp::Div,
            Box::new(Expr::Column("runtime".into())),
            Box::new(Expr::Literal(Value::Int(2))),
        );
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Double(2.0));
        // Division by zero yields NULL rather than an error.
        let e = Expr::Arith(
            ArithOp::Div,
            Box::new(Expr::Column("job_id".into())),
            Box::new(Expr::Literal(Value::Int(0))),
        );
        assert_eq!(e.eval(&s, &r).unwrap(), Value::Null);
    }

    #[test]
    fn in_list_semantics() {
        let s = schema();
        let r = row(1, "idle", 2.0, false);
        let e = Expr::InList(
            Box::new(Expr::Column("state".into())),
            vec![Value::Text("idle".into()), Value::Text("running".into())],
        );
        assert!(e.matches(&s, &r).unwrap());
        let e = Expr::InList(
            Box::new(Expr::Column("state".into())),
            vec![Value::Text("held".into())],
        );
        assert!(!e.matches(&s, &r).unwrap());
    }

    #[test]
    fn equality_lookup_detection() {
        let e = Expr::col_eq("job_id", 7).and(Expr::col_eq("state", "idle"));
        assert_eq!(e.equality_lookup_on("jobs", "job_id", &[]), Some(Value::Int(7)));
        assert_eq!(
            e.equality_lookup_on("jobs", "STATE", &[]),
            Some(Value::Text("idle".into()))
        );
        assert_eq!(e.equality_lookup_on("jobs", "runtime", &[]), None);
        let e = Expr::col_cmp("job_id", CmpOp::Gt, 7);
        assert_eq!(e.equality_lookup_on("jobs", "job_id", &[]), None);
        // Parameters resolve through the bound-value context.
        let e = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Column("job_id".into())),
            Box::new(Expr::Param(0)),
        );
        assert_eq!(e.equality_lookup_on("jobs", "job_id", &[]), None);
        assert_eq!(
            e.equality_lookup_on("jobs", "job_id", &[Value::Int(4)]),
            Some(Value::Int(4))
        );
    }

    #[test]
    fn equality_lookup_on_accepts_qualified_names() {
        let e = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Column("jobs.job_id".into())),
            Box::new(Expr::Literal(Value::Int(7))),
        );
        assert_eq!(e.equality_lookup_on("jobs", "job_id", &[]), Some(Value::Int(7)));
        assert_eq!(e.equality_lookup_on("machines", "job_id", &[]), None);
        let e = Expr::col_eq("job_id", 9);
        assert_eq!(e.equality_lookup_on("jobs", "job_id", &[]), Some(Value::Int(9)));
    }

    #[test]
    fn range_bounds_from_conjunctions() {
        let e = Expr::col_cmp("job_id", CmpOp::Ge, 2).and(Expr::col_cmp("job_id", CmpOp::Lt, 9));
        let (lo, hi) = e.range_bounds_on("jobs", "job_id", &[]).unwrap();
        assert_eq!(lo, Some(Value::Int(2)));
        assert_eq!(hi, Some(Value::Int(9)), "strict bound widened to inclusive");

        // Tightest bound wins across repeated conjuncts.
        let e = Expr::col_cmp("job_id", CmpOp::Ge, 2).and(Expr::col_cmp("job_id", CmpOp::Gt, 5));
        let (lo, hi) = e.range_bounds_on("jobs", "job_id", &[]).unwrap();
        assert_eq!(lo, Some(Value::Int(5)));
        assert_eq!(hi, None);

        // Literal-on-the-left comparisons flip.
        let e = Expr::Cmp(
            CmpOp::Gt,
            Box::new(Expr::Literal(Value::Int(10))),
            Box::new(Expr::Column("job_id".into())),
        );
        let (lo, hi) = e.range_bounds_on("jobs", "job_id", &[]).unwrap();
        assert_eq!(lo, None);
        assert_eq!(hi, Some(Value::Int(10)));

        // Disjunctions must not contribute bounds.
        let e = Expr::col_cmp("job_id", CmpOp::Ge, 2).or(Expr::col_eq("state", "idle"));
        assert_eq!(e.range_bounds_on("jobs", "job_id", &[]), None);
        // Other columns and NULL literals contribute nothing.
        assert_eq!(
            Expr::col_cmp("runtime", CmpOp::Ge, 2).range_bounds_on("jobs", "job_id", &[]),
            None
        );
        assert_eq!(
            Expr::col_cmp("job_id", CmpOp::Ge, Value::Null).range_bounds_on("jobs", "job_id", &[]),
            None
        );
    }

    #[test]
    fn params_resolve_through_the_evaluation_context() {
        let e = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Column("state".into())),
            Box::new(Expr::Param(0)),
        )
        .and(Expr::Cmp(
            CmpOp::Gt,
            Box::new(Expr::Column("job_id".into())),
            Box::new(Expr::Param(1)),
        ));
        assert_eq!(e.param_count(), 2);
        assert_eq!(e.to_string(), "((state = ?) AND (job_id > ?))");

        let s = schema();
        let r = row(5, "idle", 2.0, false);
        let params = [Value::Text("idle".into()), Value::Int(3)];
        assert!(e.matches_with(&s, &r, &params).unwrap());
        assert!(!e
            .matches_with(&s, &r, &[Value::Text("held".into()), Value::Int(3)])
            .unwrap());
        // Unbound evaluation and short bindings fail loudly.
        assert!(e.eval(&s, &r).is_err());
        assert!(e.matches_with(&s, &r, &[Value::Int(1)]).is_err());
    }

    #[test]
    fn bound_expressions_address_columns_by_slot_and_ordinal() {
        let jobs = schema();
        let machines = Schema::new(
            "machines",
            vec![Column::new("machine_id", DataType::Int), Column::new("state", DataType::Text)],
        );
        let scope = [&jobs, &machines];
        assert_eq!(resolve_column(&scope, "runtime"), Ok(ColRef { slot: 0, ord: 2 }));
        assert_eq!(resolve_column(&scope, "Machines.State"), Ok(ColRef { slot: 1, ord: 1 }));
        assert_eq!(resolve_column(&scope, "jobs.state"), Ok(ColRef { slot: 0, ord: 1 }));
        // A bare name two tables share is ambiguous; a qualifier must name
        // the column's own table.
        assert!(matches!(resolve_column(&scope, "state"), Err(Error::Type(m)) if m.contains("ambiguous")));
        assert!(matches!(resolve_column(&scope, "machines.runtime"), Err(Error::NotFound(_))));
        assert!(matches!(resolve_column(&scope[..1], "machine_id"), Err(Error::NotFound(_))));

        // `jobs.state = machines.state AND machine_id > ?` over a two-row
        // tuple; the comparison of two leaves binds without a box.
        let same_state = Expr::Cmp(
            CmpOp::Eq,
            Box::new(Expr::Column("jobs.state".into())),
            Box::new(Expr::Column("machines.state".into())),
        );
        assert_eq!(
            same_state.bind(&scope).unwrap(),
            BoundExpr::Cmp(
                CmpOp::Eq,
                Operand::Leaf(Leaf::Column(ColRef { slot: 0, ord: 1 })),
                Operand::Leaf(Leaf::Column(ColRef { slot: 1, ord: 1 })),
            )
        );
        let pred = same_state.and(Expr::Cmp(
            CmpOp::Gt,
            Box::new(Expr::Column("machine_id".into())),
            Box::new(Expr::Param(0)),
        ));
        let bound = pred.bind(&scope).unwrap();
        let job = row(1, "idle", 2.0, false);
        let idle = Row::new(vec![Value::Int(7), Value::Text("idle".into())]);
        let busy = Row::new(vec![Value::Int(8), Value::Text("busy".into())]);
        assert!(bound.matches(&[&job, &idle], &[Value::Int(3)]).unwrap());
        assert!(!bound.matches(&[&job, &idle], &[Value::Int(7)]).unwrap());
        assert!(!bound.matches(&[&job, &busy], &[Value::Int(3)]).unwrap());
        // A value that needs no computing is borrowed from its row.
        let state = Expr::Column("machines.state".into());
        let state = state.bind(&scope).unwrap();
        assert!(matches!(state.eval(&[&job, &busy], &[]).unwrap(), Cow::Borrowed(v) if std::ptr::eq(v, busy.get(1))));
    }

    #[test]
    fn referenced_columns_collects_all() {
        let e = Expr::col_eq("a", 1).and(Expr::col_cmp("b", CmpOp::Lt, 2));
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        assert_eq!(cols, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn non_boolean_predicate_is_error() {
        let s = schema();
        let r = row(1, "idle", 2.0, false);
        assert!(Expr::Column("job_id".into()).matches(&s, &r).is_err());
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::col_eq("state", "idle").and(Expr::col_cmp("job_id", CmpOp::Gt, 3));
        assert_eq!(e.to_string(), "((state = 'idle') AND ((job_id > 3)))"
            .replace("((job_id > 3))", "(job_id > 3)"));
    }
}
