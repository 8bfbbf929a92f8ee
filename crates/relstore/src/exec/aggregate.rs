//! GROUP BY and aggregate-function evaluation.
//!
//! An [`Aggregator`] is fed one tuple of borrowed rows at a time and keeps
//! nothing of a tuple but references: group keys and `MIN`/`MAX` candidates
//! point into the rows they came from, and the only rows allocated are the
//! output's, one per group.
//!
//! Feeding a tuple is two steps, and a caller that knows more than the
//! aggregator may take them apart: [`Aggregator::group_of`] hashes the
//! tuple's group key to a dense group number, [`Aggregator::fold`] folds
//! the tuple into that group's states. [`Aggregator::push`] is both. A
//! hash join whose build side holds every grouping column (the *groupjoin*)
//! asks for the group of a build row once, the first time it matches, and
//! folds every later match of that row by number — no key is hashed per
//! joined tuple. A `COUNT(*)` whose rows were counted without being read
//! is folded in as one number ([`Aggregator::count_rows`]).
//!
//! A group is the result row it will become, so opening one charges the
//! governor a row priced at its key values — the one group of an
//! aggregate without GROUP BY too — and a budget trips while grouping.

use super::QueryResult;
use crate::error::{Error, Result};
use crate::govern::{approx_values_bytes, Governor};
use crate::hash::FoldMap;
use crate::obs::OpStats;
use crate::predicate::{resolve_column, ColRef, Expr};
use crate::schema::Schema;
use crate::sql::ast::{AggFunc, SelectItem, SelectStmt, SortOrder};
use crate::tuple::Row;
use crate::value::Value;
use std::sync::Arc;

/// Incremental state for one aggregate over one group.
#[derive(Debug, Clone)]
struct AggState<'r> {
    func: AggFunc,
    /// Rows counted (`COUNT(*)`) or non-NULL inputs folded (everything else).
    count: u64,
    /// Exact sum of the INT / TIMESTAMP inputs: `i128` cannot overflow on
    /// fewer than 2^64 `i64` addends.
    int_sum: i128,
    /// Sum of the DOUBLE inputs.
    double_sum: f64,
    all_int: bool,
    /// The current `MIN` / `MAX`, borrowed from its row.
    best: Option<&'r Value>,
}

impl<'r> AggState<'r> {
    fn new(func: AggFunc) -> Self {
        AggState {
            func,
            count: 0,
            int_sum: 0,
            double_sum: 0.0,
            all_int: true,
            best: None,
        }
    }

    /// Folds one input in: `None` for `COUNT(*)`, the column's value
    /// otherwise. NULLs are skipped by every function over a column.
    fn update(&mut self, value: Option<&'r Value>) -> Result<()> {
        let Some(v) = value else {
            self.count += 1;
            return Ok(());
        };
        if v.is_null() {
            return Ok(());
        }
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => match v {
                Value::Int(i) | Value::Timestamp(i) => self.int_sum += i128::from(*i),
                other => {
                    self.double_sum += other.as_double()?;
                    self.all_int = false;
                }
            },
            AggFunc::Min | AggFunc::Max => {
                let wanted = if self.func == AggFunc::Min {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Greater
                };
                if self.best.is_none_or(|cur| v.total_cmp(cur) == wanted) {
                    self.best = Some(v);
                }
            }
        }
        self.count += 1;
        Ok(())
    }

    fn finish(&self) -> Result<Value> {
        let total = || self.int_sum as f64 + self.double_sum;
        Ok(match self.func {
            AggFunc::Count => Value::Int(self.count as i64),
            _ if self.count == 0 => Value::Null,
            AggFunc::Sum if self.all_int => Value::Int(i64::try_from(self.int_sum).map_err(
                |_| Error::type_err(format!("integer overflow in SUM: {} exceeds INT", self.int_sum)),
            )?),
            AggFunc::Sum => Value::Double(total()),
            AggFunc::Avg => Value::Double(total() / self.count as f64),
            AggFunc::Min | AggFunc::Max => self.best.cloned().unwrap_or(Value::Null),
        })
    }
}

fn new_states<'r>(aggs: &[(AggFunc, Option<ColRef>)]) -> Vec<AggState<'r>> {
    aggs.iter().map(|(func, _)| AggState::new(*func)).collect()
}

/// How one output column is computed.
#[derive(Debug)]
enum OutCol {
    /// The grouping column at this position of the group key.
    Group(usize),
    /// The aggregate at this position of a group's states.
    Agg(usize),
}

/// The aggregation/grouping phase of a SELECT: bound once against the
/// tables in scope, fed the pre-filtered tuples one by one ([`push`]) —
/// straight off a table's access path or out of a join's reference tuples —
/// and turned into the result ([`finish`]).
///
/// [`push`]: Aggregator::push
/// [`finish`]: Aggregator::finish
pub(super) struct Aggregator<'r> {
    group_cols: Vec<ColRef>,
    /// Each aggregate's function and input column (`None` for `COUNT(*)`).
    aggs: Vec<(AggFunc, Option<ColRef>)>,
    out_cols: Vec<(Arc<str>, OutCol)>,
    /// ORDER BY keys as output ordinals.
    order: Vec<(usize, SortOrder)>,
    /// Group key → group number. The key borrows its values from the first
    /// tuple of the group, and is looked up by slice, so a tuple that joins
    /// an existing group allocates nothing.
    groups: FoldMap<Vec<&'r Value>, usize>,
    /// The aggregate states of every group, `aggs.len()` per group, in
    /// group-number order. A statement without GROUP BY has exactly one
    /// group, number 0, present even over no input (which yields one row of
    /// zero/NULL aggregates) and folded into without a lookup.
    states: Vec<AggState<'r>>,
    /// Scratch for the key of the tuple being grouped.
    key: Vec<&'r Value>,
}

impl<'r> Aggregator<'r> {
    /// Binds `stmt`'s grouping columns, aggregates and ORDER BY keys
    /// against `scope`. `label` names a plain column in the output (bare
    /// for a single table, `table.column` for a join). Without GROUP BY
    /// the one group opens here, charged to `gov`.
    pub(super) fn new(
        stmt: &SelectStmt,
        scope: &[&Schema],
        label: impl Fn(ColRef) -> Arc<str>,
        gov: &mut Governor,
    ) -> Result<Self> {
        let group_cols: Vec<ColRef> = stmt
            .group_by
            .iter()
            .map(|c| resolve_column(scope, c))
            .collect::<Result<_>>()?;

        let mut aggs = Vec::new();
        let mut out_cols: Vec<(Arc<str>, OutCol)> = Vec::with_capacity(stmt.items.len());
        for item in &stmt.items {
            match item {
                SelectItem::Wildcard => {
                    return Err(Error::type_err(
                        "SELECT * cannot be combined with aggregates",
                    ))
                }
                SelectItem::Expr { expr, alias } => {
                    // Plain expressions in an aggregate query must be grouping columns.
                    let Expr::Column(name) = expr else {
                        return Err(Error::type_err(format!(
                            "non-aggregate expression {expr} requires GROUP BY column"
                        )));
                    };
                    let col = resolve_column(scope, name)?;
                    let pos = group_cols.iter().position(|g| *g == col).ok_or_else(|| {
                        Error::type_err(format!("column {name} must appear in GROUP BY"))
                    })?;
                    let out_name = match alias {
                        Some(a) => Arc::from(a.as_str()),
                        None => label(col),
                    };
                    out_cols.push((out_name, OutCol::Group(pos)));
                }
                SelectItem::Aggregate {
                    func,
                    column,
                    alias,
                } => {
                    let col = column.as_deref().map(|c| resolve_column(scope, c)).transpose()?;
                    let out_name: Arc<str> = match alias {
                        Some(a) => Arc::from(a.as_str()),
                        None => format!(
                            "{}({})",
                            func.name().to_ascii_lowercase(),
                            column.as_deref().unwrap_or("*")
                        )
                        .into(),
                    };
                    out_cols.push((out_name, OutCol::Agg(aggs.len())));
                    aggs.push((*func, col));
                }
            }
        }

        // ORDER BY sorts the aggregate output: a key is an output column's
        // name (alias or default), or a grouping column however spelled.
        let order = stmt
            .order_by
            .iter()
            .map(|k| {
                let by_name = |(name, _): &(Arc<str>, OutCol)| name.eq_ignore_ascii_case(&k.column);
                let by_column = || {
                    let col = resolve_column(scope, &k.column).ok()?;
                    let pos = group_cols.iter().position(|g| *g == col)?;
                    out_cols.iter().position(|(_, c)| matches!(c, OutCol::Group(p) if *p == pos))
                };
                out_cols
                    .iter()
                    .position(by_name)
                    .or_else(by_column)
                    .map(|idx| (idx, k.order))
                    .ok_or_else(|| Error::not_found(format!("column {} in the aggregate output", k.column)))
            })
            .collect::<Result<_>>()?;

        let states = if group_cols.is_empty() {
            gov.charge_row(|| approx_values_bytes([]))?;
            new_states(&aggs)
        } else {
            Vec::new()
        };
        Ok(Aggregator {
            key: Vec::with_capacity(group_cols.len()),
            states,
            group_cols,
            aggs,
            out_cols,
            order,
            groups: FoldMap::default(),
        })
    }

    /// The number of the group `tuple` belongs to, opening the group —
    /// and charging it to `gov` — when it is new. Numbers are dense, from
    /// 0, in order of first appearance.
    pub(super) fn group_of(&mut self, tuple: &[&'r Row], gov: &mut Governor) -> Result<usize> {
        if self.group_cols.is_empty() {
            return Ok(0);
        }
        self.key.clear();
        self.key.extend(self.group_cols.iter().map(|c| c.of(tuple)));
        if let Some(&g) = self.groups.get(self.key.as_slice()) {
            return Ok(g);
        }
        gov.charge_row(|| approx_values_bytes(self.key.iter().copied()))?;
        let g = self.groups.len();
        self.groups.insert(self.key.clone(), g);
        self.states.extend(new_states(&self.aggs));
        Ok(g)
    }

    /// Folds `tuple` into the states of group `group` (a number
    /// [`Aggregator::group_of`] returned for a tuple of the same key).
    pub(super) fn fold(&mut self, group: usize, tuple: &[&'r Row]) -> Result<()> {
        let n = self.aggs.len();
        for (state, (_, col)) in self.states[group * n..][..n].iter_mut().zip(&self.aggs) {
            state.update(col.map(|c| c.of(tuple)))?;
        }
        Ok(())
    }

    /// Folds one tuple into its group.
    pub(super) fn push(&mut self, tuple: &[&'r Row], gov: &mut Governor) -> Result<()> {
        let group = self.group_of(tuple, gov)?;
        self.fold(group, tuple)
    }

    /// Folds `rows` tuples, counted but never read, into an aggregate
    /// that is nothing but `COUNT(*)`s with no GROUP BY.
    pub(super) fn count_rows(&mut self, rows: u64) {
        debug_assert!(
            self.group_cols.is_empty() && self.aggs.iter().all(|agg| *agg == (AggFunc::Count, None))
        );
        for state in &mut self.states {
            state.count += rows;
        }
    }

    /// One output row per group — the only rows an aggregation allocates —
    /// in group-key order unless ORDER BY says otherwise, cut to `limit`.
    pub(super) fn finish(self, limit: Option<usize>, stats: &mut OpStats) -> Result<QueryResult> {
        // Group-key order is the output order ORDER BY refines.
        let n = self.aggs.len();
        let mut groups: Vec<(&[&Value], &[AggState<'_>])> = if self.group_cols.is_empty() {
            vec![(&[], &self.states)]
        } else {
            self.groups
                .iter()
                .map(|(key, &g)| (key.as_slice(), &self.states[g * n..][..n]))
                .collect()
        };
        groups.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut out_rows = Vec::with_capacity(groups.len());
        for (key, states) in groups {
            let values = self
                .out_cols
                .iter()
                .map(|(_, col)| match col {
                    OutCol::Group(pos) => Ok(key[*pos].clone()),
                    OutCol::Agg(i) => states[*i].finish(),
                })
                .collect::<Result<Vec<Value>>>()?;
            out_rows.push(Row::new(values));
        }

        if !self.order.is_empty() {
            out_rows.sort_by(|a, b| {
                for (idx, order) in &self.order {
                    let cmp = a.get(*idx).total_cmp(b.get(*idx));
                    let cmp = match order {
                        SortOrder::Asc => cmp,
                        SortOrder::Desc => cmp.reverse(),
                    };
                    if cmp != std::cmp::Ordering::Equal {
                        return cmp;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        if let Some(limit) = limit {
            out_rows.truncate(limit);
        }
        stats.rows_materialized += out_rows.len() as u64;

        Ok(QueryResult {
            columns: self.out_cols.into_iter().map(|(name, _)| name).collect(),
            rows: out_rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::sql::ast::Statement;
    use crate::sql::parser::parse;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(
            "jobs",
            vec![
                Column::new("owner", DataType::Text),
                Column::new("runtime", DataType::Double),
                Column::new("priority", DataType::Int),
            ],
        )
    }

    fn rows() -> Vec<Row> {
        vec![
            Row::new(vec![Value::Text("alice".into()), Value::Double(60.0), Value::Int(1)]),
            Row::new(vec![Value::Text("alice".into()), Value::Double(120.0), Value::Int(2)]),
            Row::new(vec![Value::Text("bob".into()), Value::Double(30.0), Value::Int(3)]),
            Row::new(vec![Value::Text("bob".into()), Value::Null, Value::Int(4)]),
        ]
    }

    fn try_run(sql: &str, rows: Vec<Row>) -> Result<QueryResult> {
        let Statement::Select(stmt) = parse(sql).unwrap() else {
            panic!()
        };
        let schema = schema();
        let gov = &mut Governor::disarmed();
        let mut agg = Aggregator::new(&stmt, &[&schema], |c| schema.columns[c.ord].name.clone(), gov)?;
        for row in &rows {
            agg.push(&[row], gov)?;
        }
        agg.finish(stmt.limit_with(&[]).unwrap(), &mut OpStats::default())
    }

    fn run(sql: &str, rows: Vec<Row>) -> QueryResult {
        try_run(sql, rows).unwrap()
    }

    #[test]
    fn global_aggregates() {
        let r = run(
            "SELECT COUNT(*), COUNT(runtime), SUM(runtime), AVG(runtime), MIN(priority), MAX(priority) FROM jobs",
            rows(),
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, "count(*)"), Some(&Value::Int(4)));
        assert_eq!(r.value(0, "count(runtime)"), Some(&Value::Int(3)));
        assert_eq!(r.value(0, "sum(runtime)"), Some(&Value::Double(210.0)));
        assert_eq!(r.value(0, "avg(runtime)"), Some(&Value::Double(70.0)));
        assert_eq!(r.value(0, "min(priority)"), Some(&Value::Int(1)));
        assert_eq!(r.value(0, "max(priority)"), Some(&Value::Int(4)));
    }

    #[test]
    fn empty_input_yields_zero_count_and_null_aggs() {
        let r = run("SELECT COUNT(*), SUM(runtime), AVG(runtime) FROM jobs", vec![]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, "count(*)"), Some(&Value::Int(0)));
        assert_eq!(r.value(0, "sum(runtime)"), Some(&Value::Null));
        assert_eq!(r.value(0, "avg(runtime)"), Some(&Value::Null));
    }

    #[test]
    fn group_by_with_aliases_and_order() {
        let r = run(
            "SELECT owner, COUNT(*) AS n, SUM(runtime) AS total FROM jobs GROUP BY owner ORDER BY owner",
            rows(),
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.value(0, "owner"), Some(&Value::Text("alice".into())));
        assert_eq!(r.value(0, "n"), Some(&Value::Int(2)));
        assert_eq!(r.value(0, "total"), Some(&Value::Double(180.0)));
        assert_eq!(r.value(1, "owner"), Some(&Value::Text("bob".into())));
        assert_eq!(r.value(1, "total"), Some(&Value::Double(30.0)));
    }

    #[test]
    fn integer_sum_stays_integer() {
        let r = run("SELECT SUM(priority) FROM jobs", rows());
        assert_eq!(r.value(0, "sum(priority)"), Some(&Value::Int(10)));
    }

    /// A row whose `priority` is `p` (the other columns do not matter).
    fn priority(p: i64) -> Row {
        Row::new(vec![Value::Null, Value::Null, Value::Int(p)])
    }

    #[test]
    fn integer_sum_is_exact_past_2_pow_53() {
        let r = run(
            "SELECT SUM(priority), AVG(priority) FROM jobs",
            vec![priority(1 << 53), priority(1), priority(1)],
        );
        assert_eq!(r.value(0, "sum(priority)"), Some(&Value::Int((1 << 53) + 2)));
        assert_eq!(r.value(0, "avg(priority)"), Some(&Value::Double(((1i64 << 53) + 2) as f64 / 3.0)));
    }

    #[test]
    fn integer_sum_overflow_is_a_typed_error() {
        let half = i64::MAX / 2;
        let sql = "SELECT SUM(priority) FROM jobs";
        // Two halves still fit; the third does not, and says so.
        let r = run(sql, vec![priority(half), priority(half)]);
        assert_eq!(r.value(0, "sum(priority)"), Some(&Value::Int(half * 2)));
        let err = try_run(sql, vec![priority(half), priority(half), priority(half)]).unwrap_err();
        assert!(matches!(&err, Error::Type(m) if m.contains("overflow")), "{err}");
        // Doubles in the input make it a DOUBLE sum, which cannot overflow.
        let rows = vec![priority(half), Row::new(vec![Value::Null, Value::Null, Value::Double(0.5)])];
        assert_eq!(run(sql, rows).value(0, "sum(priority)"), Some(&Value::Double(half as f64 + 0.5)));
    }

    #[test]
    fn non_grouped_column_is_rejected() {
        assert!(try_run("SELECT owner, COUNT(*) FROM jobs", rows()).is_err());
        assert!(try_run("SELECT *, COUNT(*) FROM jobs", rows()).is_err());
    }

    #[test]
    fn every_group_is_charged_as_it_opens() {
        use crate::govern::Governance;
        let Statement::Select(stmt) = parse("SELECT owner, COUNT(*) FROM jobs GROUP BY owner").unwrap() else {
            panic!()
        };
        let schema = schema();
        let rows = rows();
        let label = |c: ColRef| schema.columns[c.ord].name.clone();
        let budget = |max_rows| Governor::arm(&Governance { max_rows: Some(max_rows), ..Governance::default() });
        // alice, alice, bob, bob: the second group trips a one-row budget
        // at the first bob, before anything is finished.
        let gov = &mut budget(1);
        let mut agg = Aggregator::new(&stmt, &[&schema], label, gov).unwrap();
        agg.push(&[&rows[0]], gov).unwrap();
        agg.push(&[&rows[1]], gov).unwrap();
        let err = agg.push(&[&rows[2]], gov).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
        // The one group of a global aggregate is charged as it opens.
        let Statement::Select(stmt) = parse("SELECT COUNT(*) FROM jobs").unwrap() else {
            panic!()
        };
        assert!(Aggregator::new(&stmt, &[&schema], label, &mut budget(0)).is_err());
        assert!(Aggregator::new(&stmt, &[&schema], label, &mut budget(1)).is_ok());
    }

    #[test]
    fn group_limit_applies_after_sort() {
        let r = run(
            "SELECT owner, COUNT(*) AS n FROM jobs GROUP BY owner ORDER BY owner DESC LIMIT 1",
            rows(),
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, "owner"), Some(&Value::Text("bob".into())));
    }
}
