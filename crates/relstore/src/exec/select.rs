//! SELECT execution: one pipeline for every SELECT, subquery rewriting,
//! sorting and projection; plus the shared row-matching helper used by
//! UPDATE/DELETE.
//!
//! **One pipeline.** A SELECT is a base access, zero or more join steps in
//! planned order, and one sink. Each producer pushes its tuples into the
//! next stage, and the last producer — the base for a single table, else
//! the last join step — feeds the sink through the residual filter (the
//! push-based pipeline of Neumann, PVLDB 2011). A single table is the
//! pipeline with no step: it is not planned, its path is chosen per
//! execution, and its rows go from the read straight into the sink. Only
//! the base reads the ordered walk's head or counts a posting list, and
//! only a single table's path is ever either.
//!
//! Every table is read the same way: an [`AccessPath`] from the planner's
//! one chooser ([`choose_access`]: per execution for a single table, cached
//! in the plan for a join's inputs) handed to the one streamer, which keys
//! the path from the filter bound over that table — the same binding the
//! rows are then filtered with, so the chooser, the streamer and the filter
//! resolve no name of their own — and falls back to a full scan where it
//! cannot.
//! Joins run in the planned order, each by the strategy the planner costed
//! — for a single-equality `ON`, a hash join (build a map of the right
//! table) or an index-nested-loop join (probe the right table's index once
//! per left row, re-checking the equality on the version the snapshot sees,
//! since index entries cover every retained version); a nested loop over
//! the full `ON` otherwise — with single-table WHERE conjuncts pushed down
//! to each input, and the full filter re-applied as the residual, a
//! correctness backstop. Subqueries in WHERE are executed first and spliced
//! back in as literals / `IN` lists, so the pipeline never sees them.
//!
//! **Three sinks.** An aggregate folds the survivors into the
//! [`Aggregator`]. A single table's `SELECT *` with no ORDER BY — the
//! service-call point select — clones them straight to the output and
//! stops at LIMIT. Anything else collects their references, which sort,
//! limit and projection then turn into the rows returned.
//!
//! **Rows stay where they are.** What flows between the stages is a
//! *tuple*: one `&Row` per table read so far, borrowed from the table heap.
//! A join step appends one reference per step to a flat `Vec<&Row>`, so
//! joining copies pointers, never values, and the last step collects
//! nothing. A hash join's build side is built once per execution as
//! references too ([`Build`]): the heap rows that pass its pushed-down
//! conjuncts, numbered densely in build order, each key's rows chained in
//! that order. Every expression — pushed-down and residual filters, `ON`
//! predicates, projections, sort keys, grouping columns, aggregate inputs
//! — is bound once per execution ([`Expr::bind`]) to (slot, ordinal)
//! addresses into the tuple and evaluated against the borrow. The rows
//! the executor allocates are the ones it returns, and
//! `OpStats::rows_materialized` counts exactly those.
//!
//! Aggregates go further and fold where the data already is. A GROUP BY
//! whose every column belongs to the table of the last join step, when
//! that step is a hash join, is a *groupjoin*: the step hands the sink
//! each match's build row by its dense number, and the sink maps each
//! build row to its group once, the first time it survives, so no group
//! key is hashed per match. And
//! `COUNT(*) … WHERE <indexed column> = <key>` on its point lookup counts
//! the posting list ([`Table::count_postings`]) without reading the rows.
//! Both are replacements inside the stages they speed up: every row read,
//! tuple charged, governor tick and statistic stays what the general path
//! would have recorded (the count ticks once per posting entry), and
//! EXPLAIN says which path ran.
//! Output column names are `Arc<str>`s interned on the table, bare and
//! `table.column`-qualified, so no name is formatted per execution either.

use super::aggregate::Aggregator;
use super::QueryResult;
use crate::error::{Error, Result};
use crate::govern::{approx_row_bytes, approx_tuple_bytes, Governor};
use crate::hash::FoldMap;
use crate::mvcc::Snapshot;
use crate::obs::Stopwatch;
use crate::obs::OpStats;
use crate::plan::{
    choose_access, counts_postings, plan_select, walk_order, AccessPath, JoinStep, JoinStrategy,
    PlanProfile, SelectPlan, StepActuals,
};
use crate::predicate::{resolve_column, BoundExpr, ColRef, Expr};
use crate::schema::Schema;
use crate::sql::ast::{SelectItem, SelectStmt, SortOrder};
use crate::table::{RowIter, Table};
use crate::tuple::{Row, RowId, StoredRowRef};
use crate::value::Value;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The catalog type the executor reads from.
pub type Catalog = BTreeMap<String, Table>;

/// The table of `catalog` named `name`, in any case; not found, the error
/// names it as written.
pub(crate) fn get_table<'a>(catalog: &'a Catalog, name: &str) -> Result<&'a Table> {
    // Catalog keys are lower-case; lower_name skips the per-lookup
    // allocation for the common case of an already-lower-case name.
    catalog
        .get(crate::schema::lower_name(name).as_ref())
        .ok_or_else(|| Error::not_found(format!("table {name}")))
}

/// [`get_table`], for writing.
pub(crate) fn get_table_mut<'a>(catalog: &'a mut Catalog, name: &str) -> Result<&'a mut Table> {
    catalog
        .get_mut(crate::schema::lower_name(name).as_ref())
        .ok_or_else(|| Error::not_found(format!("table {name}")))
}

/// The one streamer: reads `table` through `path`, taking the point or
/// range key for the path's column from `filter` — the filter already
/// bound over `table` alone: the statement's for a single table or an
/// UPDATE/DELETE, the pushed-down conjuncts for a join input — with each
/// `?` read from `params` now, since a cached plan was chosen before they
/// were bound. Every path only has to yield a *superset* of the matching
/// rows, because the caller re-applies the filter, so anything that cannot
/// be keyed — no key in the filter, no index on the column, an ordered
/// walk — is a full scan.
fn stream<'a>(
    table: &'a Table,
    path: AccessPath,
    filter: Option<&BoundExpr<'_>>,
    params: &[Value],
    vis: &'a Snapshot,
    stats: &mut OpStats,
) -> RowIter<'a> {
    let keyed = match (path, filter) {
        (AccessPath::Point { column, .. }, Some(f)) => f
            .point_key(column, params)
            .and_then(|key| table.lookup_indexed(column, key, vis, stats)),
        (AccessPath::Range { column }, Some(f)) => f
            .range_keys(column, params)
            .and_then(|(lo, hi)| table.lookup_range(column, lo, hi, vis, stats)),
        _ => None,
    };
    keyed.unwrap_or_else(|| table.scan(vis, stats))
}

/// Executes every subquery in `expr` against the caller's snapshot and
/// splices the result back in: a scalar subquery becomes a literal (NULL
/// when it returns no row; more than one row is an error), `IN (SELECT …)`
/// becomes an `IN` value list. The list keeps NULLs, so SQL's three-valued
/// `IN` semantics fall out of [`Expr::InList`] evaluation: `x IN (…)` is
/// NULL — not FALSE — when nothing matched but a NULL could have.
///
/// Subqueries are executed exactly once per statement execution (they are
/// uncorrelated: a reference to an outer column surfaces as a
/// column-not-found error from the inner query), which makes an
/// `IN (SELECT …)` a degenerate semi-join: the inner side materializes
/// once, then every outer row probes the list.
pub(crate) fn rewrite_subqueries(
    catalog: &Catalog,
    expr: &Expr,
    params: &[Value],
    vis: &Snapshot,
    stats: &mut OpStats,
    gov: &mut Governor,
) -> Result<Expr> {
    fn subquery_values(
        catalog: &Catalog,
        sel: &SelectStmt,
        params: &[Value],
        vis: &Snapshot,
        stats: &mut OpStats,
        gov: &mut Governor,
    ) -> Result<Vec<Value>> {
        stats.subqueries_executed += 1;
        let r = execute_select_opts(catalog, sel, params, vis, stats, gov, ExecOptions::default())?;
        if r.columns.len() != 1 {
            return Err(Error::type_err(format!(
                "subquery must return exactly one column, got {}",
                r.columns.len()
            )));
        }
        Ok(r.rows
            .into_iter()
            .map(|mut row| row.values.pop().expect("one column"))
            .collect())
    }
    let rw = |e: &Expr, stats: &mut OpStats, gov: &mut Governor| -> Result<Box<Expr>> {
        Ok(Box::new(rewrite_subqueries(catalog, e, params, vis, stats, gov)?))
    };
    Ok(match expr {
        Expr::ScalarSubquery(sel) => {
            let mut vals = subquery_values(catalog, sel, params, vis, stats, gov)?;
            if vals.len() > 1 {
                return Err(Error::type_err(format!(
                    "scalar subquery returned {} rows, expected at most one",
                    vals.len()
                )));
            }
            Expr::Literal(vals.pop().unwrap_or(Value::Null))
        }
        Expr::InSubquery(e, sel) => {
            let lhs = rw(e, stats, gov)?;
            let vals = subquery_values(catalog, sel, params, vis, stats, gov)?;
            Expr::InList(lhs, vals)
        }
        Expr::Cmp(op, l, r) => Expr::Cmp(*op, rw(l, stats, gov)?, rw(r, stats, gov)?),
        Expr::Arith(op, l, r) => Expr::Arith(*op, rw(l, stats, gov)?, rw(r, stats, gov)?),
        Expr::And(l, r) => Expr::And(rw(l, stats, gov)?, rw(r, stats, gov)?),
        Expr::Or(l, r) => Expr::Or(rw(l, stats, gov)?, rw(r, stats, gov)?),
        Expr::Not(e) => Expr::Not(rw(e, stats, gov)?),
        Expr::IsNull(e) => Expr::IsNull(rw(e, stats, gov)?),
        Expr::IsNotNull(e) => Expr::IsNotNull(rw(e, stats, gov)?),
        Expr::InList(e, list) => Expr::InList(rw(e, stats, gov)?, list.clone()),
        Expr::Literal(_) | Expr::Param(_) | Expr::Column(_) => expr.clone(),
    })
}

/// Planner/executor knobs threaded from the database layer. `Default` is
/// the standalone behaviour: no plan handed in, joins reordered, no
/// profiling.
#[derive(Default)]
pub struct ExecOptions<'a> {
    /// Execute this pre-built plan (plan cache, EXPLAIN ANALYZE). Without
    /// one a join is planned per execution, and a single table is not
    /// planned at all: its path is chosen per execution.
    pub plan: Option<&'a SelectPlan>,
    /// Collect per-operator actuals (EXPLAIN ANALYZE).
    pub profile: Option<&'a mut PlanProfile>,
    /// Keep joins in syntactic order (oracle / bench baseline). Only
    /// consulted when a join is planned here, without `plan`.
    pub no_reorder: bool,
    /// Read every table by a full scan (oracle / bench baseline). Only
    /// consulted without `plan`: a plan carries the paths it was chosen
    /// with.
    pub force_scan: bool,
}

/// The tables a statement's tuples are drawn from and how its output is
/// laid out: `tables[i]` (schema `schemas[i]`) owns slot `i` of every
/// tuple, in execution order; `out_slots` lists the slots in syntactic
/// order — `[base][join 0][join 1]…` — which is the order `SELECT *`
/// expands them in, so a reordered plan permutes slots, never values.
struct Layout<'a> {
    tables: &'a [&'a Table],
    schemas: &'a [&'a Schema],
    out_slots: &'a [usize],
    /// Output columns are named `table.column` (joins) rather than bare.
    qualified: bool,
}

impl Layout<'_> {
    /// The interned output name of a plain column.
    fn label(&self, c: ColRef) -> Arc<str> {
        let table = self.tables[c.slot];
        if self.qualified {
            table.qualified_columns()[c.ord].clone()
        } else {
            table.schema.columns[c.ord].name.clone()
        }
    }
}

/// One select item, bound: a wildcard copies every slot's values in
/// `out_slots` order, anything else is evaluated.
enum Projection<'e> {
    Wildcard,
    Expr(BoundExpr<'e>),
}

/// The projection plan: output names (interned from the tables where
/// possible) and, for each select item, how to compute it.
fn projection_spec<'e>(
    stmt: &'e SelectStmt,
    layout: &Layout<'_>,
) -> Result<(Vec<Arc<str>>, Vec<Projection<'e>>)> {
    let mut out_columns: Vec<Arc<str>> = Vec::with_capacity(stmt.items.len());
    let mut projections = Vec::with_capacity(stmt.items.len());
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                for &slot in layout.out_slots {
                    let table = layout.tables[slot];
                    out_columns.extend((0..table.schema.arity()).map(|ord| layout.label(ColRef { slot, ord })));
                }
                projections.push(Projection::Wildcard);
            }
            SelectItem::Expr { expr, alias } => {
                let bound = expr.bind(layout.schemas)?;
                out_columns.push(match (alias, bound.as_column()) {
                    (Some(a), _) => Arc::from(a.as_str()),
                    (None, Some(c)) => layout.label(c),
                    (None, None) => Arc::from(expr.to_string()),
                });
                projections.push(Projection::Expr(bound));
            }
            SelectItem::Aggregate { .. } => unreachable!("aggregates handled before projection"),
        }
    }
    Ok((out_columns, projections))
}

/// Sorts the tuples of `rows` (`stride` references each) by `stmt`'s
/// ORDER BY keys, stably.
fn sort_tuples(stmt: &SelectStmt, schemas: &[&Schema], rows: &mut Vec<&Row>, stride: usize) -> Result<()> {
    let keys: Vec<(ColRef, SortOrder)> = stmt
        .order_by
        .iter()
        .map(|k| Ok((resolve_column(schemas, &k.column)?, k.order)))
        .collect::<Result<_>>()?;
    let tuple = |i: usize| &rows[i * stride..][..stride];
    let mut order: Vec<usize> = (0..rows.len() / stride).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (tuple(a), tuple(b));
        for (col, order) in &keys {
            let cmp = col.of(a).total_cmp(col.of(b));
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
    *rows = order.iter().flat_map(|&i| tuple(i).iter().copied()).collect();
    Ok(())
}

/// The tail of every non-aggregate select: sort (unless the access path
/// already did), cut to `limit`, and only then allocate — one output row
/// per surviving tuple, each charged against the governor's budgets.
#[allow(clippy::too_many_arguments)]
fn output_rows(
    stmt: &SelectStmt,
    layout: &Layout<'_>,
    mut rows: Vec<&Row>,
    sorted: bool,
    limit: Option<usize>,
    params: &[Value],
    stats: &mut OpStats,
    gov: &mut Governor,
) -> Result<QueryResult> {
    let stride = layout.tables.len();
    if !sorted && !stmt.order_by.is_empty() {
        gov.check_now()?;
        sort_tuples(stmt, layout.schemas, &mut rows, stride)?;
    }
    if let Some(limit) = limit {
        rows.truncate(limit.saturating_mul(stride));
    }
    let (columns, projections) = projection_spec(stmt, layout)?;
    let mut out_rows = Vec::with_capacity(rows.len() / stride);
    for tuple in rows.chunks_exact(stride) {
        gov.tick()?;
        let mut values = Vec::with_capacity(columns.len());
        for proj in &projections {
            match proj {
                Projection::Wildcard => {
                    for &slot in layout.out_slots {
                        values.extend_from_slice(&tuple[slot].values);
                    }
                }
                Projection::Expr(expr) => values.push(expr.eval(tuple, params)?.into_owned()),
            }
        }
        let out = Row::new(values);
        gov.charge_row(|| approx_row_bytes(&out))?;
        out_rows.push(out);
    }
    stats.rows_materialized += out_rows.len() as u64;
    Ok(QueryResult {
        columns: columns.into(),
        rows: out_rows,
    })
}

/// Streams `rows` through `pred`, handing each survivor to `each` until it
/// returns `false`; every row visited is a cancellation point. Returns the
/// number visited.
fn for_each_match<'a>(
    rows: RowIter<'a>,
    pred: Option<&BoundExpr<'_>>,
    params: &[Value],
    gov: &mut Governor,
    mut each: impl FnMut(StoredRowRef<'a>, &mut Governor) -> Result<bool>,
) -> Result<u64> {
    let mut visited = 0;
    for stored in rows {
        gov.tick()?;
        visited += 1;
        let keep = match pred {
            Some(p) => p.matches(&[stored.row], params)?,
            None => true,
        };
        if keep && !each(stored, gov)? {
            break;
        }
    }
    Ok(visited)
}

/// Marks a build row whose group a groupjoin has not looked up yet.
const UNMAPPED: usize = usize::MAX;

/// Ends a build side's chain of rows sharing a key.
const END: usize = usize::MAX;

/// A hash join's build side, built once per execution: the rows of its
/// table that pass the step's pushed-down conjuncts, borrowed from the
/// heap and numbered densely in build order — the number a groupjoin keeps
/// one slot per build row by. `keys` holds each key's first and last row,
/// and `next` chains every row to the next one with its key, so a probe
/// reads a key's rows in build order.
struct Build<'r> {
    rows: Vec<&'r Row>,
    next: Vec<usize>,
    keys: FoldMap<&'r Value, (usize, usize)>,
}

impl<'r> Build<'r> {
    /// An empty side with room for `rows` rows.
    fn with_capacity(rows: usize) -> Self {
        Build {
            rows: Vec::with_capacity(rows),
            next: Vec::with_capacity(rows),
            keys: FoldMap::with_capacity_and_hasher(rows, Default::default()),
        }
    }

    /// Appends `row` to the chain of `key`.
    fn push(&mut self, key: &'r Value, row: &'r Row) {
        let n = self.rows.len();
        self.rows.push(row);
        self.next.push(END);
        let next = &mut self.next;
        self.keys
            .entry(key)
            .and_modify(|(_, last)| {
                next[*last] = n;
                *last = n;
            })
            .or_insert((n, n));
    }

    /// The rows holding `key`, in build order, each with its number.
    fn matches(&self, key: &Value) -> impl Iterator<Item = (usize, &'r Row)> + '_ {
        let mut at = self.keys.get(key).map_or(END, |&(first, _)| first);
        std::iter::from_fn(move || {
            let row = *self.rows.get(at)?;
            let this = at;
            at = self.next[at];
            Some((this, row))
        })
    }
}

/// Where every pipeline ends: what becomes of the tuples that pass the
/// residual filter.
enum Sink<'r> {
    /// Fold into the aggregate. For a groupjoin the second field holds one
    /// group number per build row of the last hash step, looked up the
    /// first time the row survives, so its later matches reach their group
    /// by the row's dense number ([`Build`] numbers them) with no group key
    /// hashed; otherwise it is empty.
    Fold(Aggregator<'r>, Vec<usize>),
    /// Keep the references until sort and limit have decided which rows
    /// are worth allocating.
    Collect(Vec<&'r Row>),
    /// `SELECT *` of one table with no ORDER BY, not profiled: clone each
    /// survivor straight to the output, charged as the row it is, and stop
    /// at the limit. This is the shape of the service-call point select,
    /// so it allocates the result rows and nothing else.
    Clone(Vec<Row>, usize),
}

impl<'r> Sink<'r> {
    /// True once a `Clone` sink holds its limit.
    fn full(&self) -> bool {
        matches!(self, Sink::Clone(rows, limit) if rows.len() >= *limit)
    }

    /// Takes one surviving tuple; `build` numbers its row of the last
    /// step's hash build side. Returns whether more are wanted.
    fn push(&mut self, tuple: &[&'r Row], build: Option<usize>, gov: &mut Governor) -> Result<bool> {
        match self {
            Sink::Fold(agg, build_groups) => match build.and_then(|b| build_groups.get_mut(b)) {
                Some(group) => {
                    if *group == UNMAPPED {
                        *group = agg.group_of(tuple, gov)?;
                    }
                    agg.fold(*group, tuple)?;
                }
                None => agg.push(tuple, gov)?,
            },
            Sink::Collect(rows) => rows.extend_from_slice(tuple),
            Sink::Clone(rows, _) => {
                let row = tuple[0];
                gov.charge_row(|| approx_row_bytes(row))?;
                rows.push(row.clone());
            }
        }
        Ok(!self.full())
    }
}

/// The end of every pipeline: the residual filter, the sink, and the
/// count of tuples that reached it.
struct Tail<'r, 'e> {
    residual: Option<&'e BoundExpr<'e>>,
    sink: Sink<'r>,
    kept: u64,
}

impl<'r> Tail<'r, '_> {
    /// Hands a survivor to the sink. Returns whether more are wanted.
    fn take(&mut self, tuple: &[&'r Row], build: Option<usize>, gov: &mut Governor) -> Result<bool> {
        self.kept += 1;
        self.sink.push(tuple, build, gov)
    }

    /// Takes a tuple of the last join step through the residual filter
    /// into the sink. The filter and a fold each tick the governor, as the
    /// passes over collected tuples they replace did; a single table's
    /// base applies the filter as it reads, under the read's own tick.
    fn offer(
        &mut self,
        tuple: &[&'r Row],
        build: Option<usize>,
        params: &[Value],
        gov: &mut Governor,
    ) -> Result<()> {
        if let Some(filter) = self.residual {
            gov.tick()?;
            if !filter.matches(tuple, params)? {
                return Ok(());
            }
        }
        if let Sink::Fold(..) = self.sink {
            gov.tick()?;
        }
        self.take(tuple, build, gov).map(drop)
    }
}

/// A join step's output. Each tuple `left ++ [right]` is charged against
/// the governor's budgets as the row it stands for, then collected for the
/// next step or — from the last step, which collects nothing — handed on
/// to the tail at once.
struct Emitter<'r, 't, 'e> {
    tuples: Vec<&'r Row>,
    /// Tuples made: the step's `actual_rows`.
    made: u64,
    tail: Option<&'t mut Tail<'r, 'e>>,
}

impl<'r> Emitter<'r, '_, '_> {
    fn emit(
        &mut self,
        left: &[&'r Row],
        right: &'r Row,
        build: Option<usize>,
        params: &[Value],
        gov: &mut Governor,
    ) -> Result<()> {
        let mark = self.tuples.len();
        self.tuples.extend_from_slice(left);
        self.tuples.push(right);
        gov.charge_row(|| approx_tuple_bytes(&self.tuples[mark..]))?;
        self.made += 1;
        if let Some(tail) = self.tail.as_deref_mut() {
            tail.offer(&self.tuples[mark..], build, params, gov)?;
            self.tuples.truncate(mark);
        }
        Ok(())
    }
}

/// Executes a SELECT statement against the catalog, resolving `?`
/// placeholders from `params` during planning and evaluation (prepared
/// execution never clones the statement) and row visibility against `vis`,
/// the caller's MVCC snapshot. `opts` carries the planner/executor knobs
/// the database layer sets for cached plans, EXPLAIN ANALYZE profiling and
/// oracle baselines; `ExecOptions::default()` plans a join per execution.
///
/// Every SELECT is one pipeline: the base access, the join steps in
/// planned order, and one sink fed by the last producer — the base for a
/// single table, else the last step — through the residual filter.
pub fn execute_select_opts(
    catalog: &Catalog,
    stmt: &SelectStmt,
    params: &[Value],
    vis: &Snapshot,
    stats: &mut OpStats,
    gov: &mut Governor,
    opts: ExecOptions<'_>,
) -> Result<QueryResult> {
    let ExecOptions {
        plan,
        mut profile,
        no_reorder,
        force_scan,
    } = opts;
    let base = get_table(catalog, &stmt.table)?;
    // Bound before any row is read: a bad `LIMIT ?` fails the statement
    // whichever path it would have taken.
    let limit = stmt.limit_with(params)?;
    // Execute subqueries first, against the same snapshot; downstream the
    // filter is plain literals/lists. The `contains_subquery` probe keeps
    // the common case borrow-only.
    let filter: Option<Cow<'_, Expr>> = match &stmt.filter {
        Some(f) if f.contains_subquery() => Some(Cow::Owned(rewrite_subqueries(
            catalog, f, params, vis, stats, gov,
        )?)),
        Some(f) => Some(Cow::Borrowed(f)),
        None => None,
    };
    let filter = filter.as_deref();

    // A single table is the plan with no join step. Unless a plan is handed
    // in it is not planned: its path is chosen per execution, against this
    // execution's filter and bindings. Its base reads the whole filter; a
    // join's base, its pushed-down conjuncts.
    let planned;
    let plan = match plan {
        None if !stmt.joins.is_empty() => {
            planned = plan_select(catalog, stmt, params, !no_reorder, force_scan)?;
            stats.plans_built += 1;
            Some(&planned)
        }
        plan => plan,
    };
    let steps = plan.map_or(&[][..], |p| &p.steps);
    let one = ([base], [&base.schema]);
    let scope;
    let layout = if steps.is_empty() {
        Layout {
            tables: &one.0,
            schemas: &one.1,
            out_slots: &[0],
            qualified: false,
        }
    } else {
        let mut tables = vec![base];
        for step in steps {
            tables.push(get_table(catalog, &step.table)?);
        }
        let schemas: Vec<&Schema> = tables.iter().map(|t| &t.schema).collect();
        // Syntactic slot order, whatever order the planner executed the
        // joins in: `SELECT *` and positional consumers never see the
        // reordering.
        let mut out_slots = vec![0];
        for clause in 0..steps.len() {
            let pos = steps.iter().position(|s| s.clause == clause);
            out_slots.push(1 + pos.expect("every join clause is planned exactly once"));
        }
        scope = (tables, schemas, out_slots);
        Layout {
            tables: &scope.0,
            schemas: &scope.1,
            out_slots: &scope.2,
            qualified: true,
        }
    };
    let schemas = layout.schemas;

    // Every filter is bound before any row is read, and its binding serves
    // the chooser, the streamer and the filter alike. The residual is the
    // whole predicate over the whole tuple. A single table's base applies
    // it as it reads. A join's base applies its pushed-down conjuncts,
    // which the residual re-checks — harmless for a conjunction, and it
    // keeps pushdown a pure optimization.
    let residual = filter.map(|f| f.bind(schemas)).transpose()?;
    let pushdown = match plan.and_then(|p| p.base_pushdown.as_ref()) {
        Some(p) if !steps.is_empty() => Some(p.bind(&schemas[..1])?),
        _ => None,
    };
    let base_pred = if steps.is_empty() { residual.as_ref() } else { pushdown.as_ref() };
    let path = match plan {
        Some(p) => p.base.path,
        None => choose_access(base, base_pred, walk_order(stmt, limit), params, force_scan).path,
    };
    if let Some(p) = profile.as_deref_mut() {
        p.joins = vec![StepActuals::default(); steps.len()];
    }

    // A join's hash build sides come first: each reads its table once,
    // keeping references to the rows that pass the step's pushdown. A kept
    // row is charged as the join input it is.
    let mut sides: Vec<Option<Build<'_>>> = Vec::with_capacity(steps.len());
    for (si, step) in steps.iter().enumerate() {
        let JoinStrategy::Hash { build, .. } = &step.strategy else {
            sides.push(None);
            continue;
        };
        let sw = clock(&profile);
        let right = layout.tables[si + 1];
        let scope = &schemas[si + 1..=si + 1];
        let key = resolve_column(scope, build)?.ord;
        let pred = bind_pushdown(step, scope)?;
        // Sized for the planner's estimate, never past the table.
        let mut side = Build::with_capacity((step.access.est_rows as usize).min(right.len()));
        let rows = stream(right, step.access.path, pred.as_ref(), params, vis, stats);
        for_each_match(rows, pred.as_ref(), params, gov, |stored, gov| {
            let key = stored.row.get(key);
            if !key.is_null() {
                gov.charge_row(|| approx_row_bytes(stored.row))?;
                side.push(key, stored.row);
            }
            Ok(true)
        })?;
        sides.push(Some(side));
        if let (Some(p), Some(sw)) = (profile.as_deref_mut(), sw) {
            p.joins[si].nanos = sw.elapsed_nanos();
        }
    }

    let sink = if stmt.has_aggregates() {
        let agg = Aggregator::new(stmt, schemas, |c| layout.label(c), gov)?;
        // A groupjoin: the GROUP BY folds into the last step's build rows.
        let groupjoin = plan.is_some_and(|p| p.folds_into_build(stmt, schemas));
        let build_rows = match sides.last() {
            Some(Some(side)) if groupjoin => side.rows.len(),
            _ => 0,
        };
        Sink::Fold(agg, vec![UNMAPPED; build_rows])
    } else if steps.is_empty()
        && matches!(stmt.items.as_slice(), [SelectItem::Wildcard])
        && stmt.order_by.is_empty()
        && profile.is_none()
    {
        Sink::Clone(Vec::new(), limit.unwrap_or(usize::MAX))
    } else {
        Sink::Collect(Vec::new())
    };
    let mut tail = Tail {
        residual: residual.as_ref(),
        sink,
        kept: 0,
    };

    // The base access. `ORDER BY <indexed column> LIMIT k` may be costed
    // onto the ordered walk (a single table's path only), which hands the
    // sink its survivors already sorted and cut. Everything else — a walk
    // that ran out of budget included — reads the path the filter drives,
    // and `COUNT(*) … WHERE <indexed column> = <key>` on its point lookup
    // counts the posting list instead. Every row read is a cancellation
    // point, and `touched` counts them.
    let sw = clock(&profile);
    let (head, mut touched) = match path {
        AccessPath::Ordered { .. } => ordered_head(base, path, base_pred, params, vis, stats, gov)?,
        _ => (None, 0),
    };
    let sorted = head.is_some();
    let mut rows = None;
    if let Some(head) = head {
        tail.kept = head.len() as u64;
        tail.sink = Sink::Collect(head);
    } else {
        // A walk that gave up falls back to the filter-driven path. It was
        // not forced: a forced chooser never picks the walk.
        let path = match path {
            AccessPath::Ordered { .. } => choose_access(base, base_pred, None, params, false).path,
            filter_driven => filter_driven,
        };
        let count_key = match (path, base_pred) {
            (AccessPath::Point { column, .. }, Some(f))
                if matches!(tail.sink, Sink::Fold(..)) && counts_postings(stmt) =>
            {
                f.point_key(column, params).map(|key| (column, key))
            }
            _ => None,
        };
        let postings = count_key.and_then(|(column, key)| base.count_postings(column, key, vis, stats));
        match (postings, &mut tail.sink) {
            (Some(postings), Sink::Fold(agg, _)) => {
                for counts in postings {
                    gov.tick()?;
                    tail.kept += u64::from(counts);
                }
                touched = tail.kept;
                agg.count_rows(tail.kept);
            }
            // `LIMIT 0` of a cloned `SELECT *` reads nothing.
            (_, sink) if sink.full() => {}
            _ => rows = Some(stream(base, path, base_pred, params, vis, stats)),
        };
    }
    if steps.is_empty() {
        // The base is the last producer: it streams into the sink.
        if let Some(rows) = rows.take() {
            touched += for_each_match(rows, base_pred, params, gov, |stored, gov| {
                tail.take(&[stored.row], None, gov)
            })?;
        }
        if let (Some(p), Some(sw)) = (profile.as_deref_mut(), sw) {
            p.base = StepActuals {
                rows: touched,
                nanos: sw.elapsed_nanos(),
            };
        }
    }

    // The join steps, in planned order — hash join or index-nested-loop
    // join on the single join equality, nested loop evaluating the full
    // `ON` otherwise. The first reads its left tuples straight off the
    // base's access path ([`Lefts`]), so under EXPLAIN ANALYZE the base's
    // time is the first step's; every later step reads the tuples the one
    // before collected. After step `i` a tuple is `i + 2` references, slot
    // 0 the base row and slot `k + 1` the row step `k` joined to it, all
    // borrowed from the table heaps, so a step copies pointers and no
    // value. Every row visited ticks the governor and every tuple made is
    // charged, so a pathological cross-product hits its deadline or budget
    // *while* joining.
    let mut base_kept = 0u64;
    let mut collected: Vec<&Row> = Vec::new();
    for (si, step) in steps.iter().enumerate() {
        let sw = clock(&profile);
        let stride = si + 1;
        let right = layout.tables[stride];
        let right_scope = &schemas[stride..=stride];
        let lefts = match rows.take() {
            Some(rows) => Lefts::Base {
                rows,
                filter: base_pred,
                kept: &mut base_kept,
            },
            None => Lefts::Tuples {
                rows: std::mem::take(&mut collected),
                stride,
            },
        };
        // The last step feeds the tail; any other collects, sized for one
        // match per left tuple, the shape of a foreign-key join.
        let last = stride == steps.len();
        let mut out = Emitter {
            tuples: Vec::with_capacity(if last { 1 } else { lefts.len_hint() } * (stride + 1)),
            made: 0,
            tail: last.then_some(&mut tail),
        };

        match &step.strategy {
            JoinStrategy::Hash { probe, .. } => {
                let probe = resolve_column(&schemas[..stride], probe)?;
                let side = sides[si].as_ref().expect("hash build sides are built first");
                lefts.for_each(params, gov, |left, gov| {
                    gov.tick()?;
                    let key = probe.of(left);
                    if key.is_null() {
                        return Ok(());
                    }
                    for (n, right_row) in side.matches(key) {
                        gov.tick()?;
                        out.emit(left, right_row, Some(n), params, gov)?;
                        stats.rows_read += 1;
                    }
                    Ok(())
                })?;
            }
            JoinStrategy::IndexLoop { probe, lookup, index } => {
                let probe = resolve_column(&schemas[..stride], probe)?;
                let lookup = resolve_column(right_scope, lookup)?.ord;
                let right_pred = bind_pushdown(step, right_scope)?;
                lefts.for_each(params, gov, |left, gov| {
                    gov.tick()?;
                    let key = probe.of(left);
                    if key.is_null() {
                        return Ok(());
                    }
                    // DDL invalidates cached plans, so a planned index
                    // that is gone means a malformed hand-built plan.
                    let candidates = right.lookup_indexed(lookup, key, vis, stats).ok_or_else(|| {
                        Error::internal(format!(
                            "index-loop join: no index {index} on {}.{}",
                            step.table, right.schema.columns[lookup].name
                        ))
                    })?;
                    for_each_match(candidates, right_pred.as_ref(), params, gov, |stored, gov| {
                        // Index entries cover every retained version's key,
                        // so the version this snapshot sees may hold another.
                        if stored.row.get(lookup).sql_eq(key) == Some(true) {
                            out.emit(left, stored.row, None, params, gov)?;
                        }
                        Ok(true)
                    })?;
                    Ok(())
                })?;
            }
            JoinStrategy::NestedLoop => {
                // Collect the (pushdown-filtered) right side once, then
                // evaluate the ON predicate over every row pair.
                let right_pred = bind_pushdown(step, right_scope)?;
                let mut right_rows: Vec<&Row> = Vec::new();
                let scanned = stream(right, step.access.path, right_pred.as_ref(), params, vis, stats);
                for_each_match(scanned, right_pred.as_ref(), params, gov, |stored, gov| {
                    gov.charge_row(|| approx_row_bytes(stored.row))?;
                    right_rows.push(stored.row);
                    Ok(true)
                })?;
                let on = &stmt.joins[step.clause].on;
                let on: Cow<'_, Expr> = if on.contains_subquery() {
                    Cow::Owned(rewrite_subqueries(catalog, on, params, vis, stats, gov)?)
                } else {
                    Cow::Borrowed(on)
                };
                let on = on.bind(&schemas[..=stride])?;
                let mut pair: Vec<&Row> = Vec::with_capacity(stride + 1);
                lefts.for_each(params, gov, |left, gov| {
                    gov.tick()?;
                    for &right_row in &right_rows {
                        gov.tick()?;
                        pair.clear();
                        pair.extend_from_slice(left);
                        pair.push(right_row);
                        if on.matches(&pair, params)? {
                            out.emit(left, right_row, None, params, gov)?;
                            stats.rows_read += 1;
                        }
                    }
                    Ok(())
                })?;
            }
        }

        let made = out.made;
        collected = out.tuples;
        if let Some(p) = profile.as_deref_mut() {
            if si == 0 {
                // Read inside the first step, so its time is that step's.
                p.base = StepActuals {
                    rows: base_kept,
                    nanos: 0,
                };
            }
            p.joins[si].rows = made;
            p.joins[si].nanos += sw.map_or(0, |sw| sw.elapsed_nanos());
        }
    }

    // The residual filter ran as the last producer made its tuples, so
    // its time is that producer's.
    if let Some(p) = profile.as_deref_mut() {
        p.filter.rows = tail.kept;
    }
    let sw = clock(&profile);
    let result = match tail.sink {
        Sink::Fold(agg, _) => agg.finish(limit, stats)?,
        Sink::Collect(rows) => output_rows(stmt, &layout, rows, sorted, limit, params, stats, gov)?,
        Sink::Clone(rows, _) => {
            stats.rows_materialized += rows.len() as u64;
            QueryResult {
                columns: base.wildcard_columns(),
                rows,
            }
        }
    };
    note_output(&mut profile, sw, result.len());
    Ok(result)
}

/// Starts a stopwatch when — and only when — EXPLAIN ANALYZE is collecting
/// actuals, so ordinary executions read no clock.
fn clock(profile: &Option<&mut PlanProfile>) -> Option<Stopwatch> {
    profile.is_some().then(Stopwatch::start)
}

/// Records the output-stage actuals for EXPLAIN ANALYZE.
fn note_output(profile: &mut Option<&mut PlanProfile>, sw: Option<Stopwatch>, rows: usize) {
    if let (Some(p), Some(sw)) = (profile.as_deref_mut(), sw) {
        p.output = StepActuals {
            rows: rows as u64,
            nanos: sw.elapsed_nanos(),
        };
    }
}

/// Reads the head of an `ORDER BY … LIMIT` when `path` is the ordered
/// walk: walks the sort column's index in key order, keeping the first
/// `limit` rows that pass visibility and `filter` — already sorted, nothing
/// past the head read. Every entry visited ticks the governor and counts as
/// a row read; the count is returned beside the rows. Gives up (`None`)
/// once `driven` entries have been visited without filling the limit: the
/// planner assumed the survivors were spread evenly through the order, and
/// past that many rows the filter-driven path is the cheaper one. Any
/// other path reads nothing here (`None`, 0).
fn ordered_head<'a>(
    table: &'a Table,
    path: AccessPath,
    filter: Option<&BoundExpr<'_>>,
    params: &[Value],
    vis: &'a Snapshot,
    stats: &mut OpStats,
    gov: &mut Governor,
) -> Result<(Option<Vec<&'a Row>>, u64)> {
    let AccessPath::Ordered {
        column,
        descending,
        limit,
        driven,
    } = path
    else {
        return Ok((None, 0));
    };
    let Some(mut entries) = table.walk_ordered(column, descending, vis, stats) else {
        return Ok((None, 0));
    };
    let mut visited = 0u64;
    let mut head: Vec<&Row> = Vec::new();
    while head.len() < limit {
        let Some(entry) = entries.next() else { break };
        if visited >= driven as u64 {
            return Ok((None, visited));
        }
        gov.tick()?;
        visited += 1;
        stats.rows_read += 1;
        let Some(row) = entry else { continue };
        let keep = match filter {
            Some(f) => f.matches(&[row], params)?,
            None => true,
        };
        if keep {
            head.push(row);
        }
    }
    Ok((Some(head), visited))
}

/// A join step's pushed-down conjuncts, bound against its own table.
fn bind_pushdown<'e>(step: &'e JoinStep, right: &[&Schema]) -> Result<Option<BoundExpr<'e>>> {
    step.pushdown.as_ref().map(|p| p.bind(right)).transpose()
}

/// Where a join step's left tuples come from: the first step reads the
/// base straight off its access path, every later step the tuples the
/// step before it collected.
enum Lefts<'r, 'a> {
    /// The base table's access path and pushed-down filter; `kept` counts
    /// the rows that pass it.
    Base {
        rows: RowIter<'r>,
        filter: Option<&'a BoundExpr<'a>>,
        kept: &'a mut u64,
    },
    /// The previous step's tuples, `stride` references each.
    Tuples { rows: Vec<&'r Row>, stride: usize },
}

impl<'r> Lefts<'r, '_> {
    /// How many left tuples to expect: exact for collected tuples; for the
    /// base, the entries an index lookup found (none guessed for a scan).
    fn len_hint(&self) -> usize {
        match self {
            Lefts::Base { rows, .. } => rows.size_hint().1.unwrap_or(0),
            Lefts::Tuples { rows, stride } => rows.len() / stride,
        }
    }

    /// Hands every left tuple to `each`, in order. A base row is ticked
    /// and filtered as it streams and charged as the row it is — what
    /// collecting the base used to cost, row for row.
    fn for_each(
        self,
        params: &[Value],
        gov: &mut Governor,
        mut each: impl FnMut(&[&'r Row], &mut Governor) -> Result<()>,
    ) -> Result<()> {
        match self {
            Lefts::Base { rows, filter, kept } => {
                for_each_match(rows, filter, params, gov, |stored, gov| {
                    gov.charge_row(|| approx_row_bytes(stored.row))?;
                    *kept += 1;
                    each(std::slice::from_ref(&stored.row), gov)?;
                    Ok(true)
                })?;
            }
            Lefts::Tuples { rows, stride } => {
                for left in rows.chunks_exact(stride) {
                    each(left, gov)?;
                }
            }
        }
        Ok(())
    }
}

/// Returns the ids of the rows of `table` visible to `vis` and matched by
/// `filter` (all rows when `filter` is `None`), resolving `?` placeholders
/// from `params` — the row matching of UPDATE and DELETE, read through the
/// same chooser and streamer as a SELECT. Candidate rows are streamed by
/// reference; nothing is cloned. Each candidate row is a cancellation
/// point.
pub(crate) fn matching_row_ids_with(
    table: &Table,
    filter: Option<&Expr>,
    params: &[Value],
    vis: &Snapshot,
    stats: &mut OpStats,
    gov: &mut Governor,
) -> Result<Vec<RowId>> {
    let bound = filter.map(|f| f.bind(&[&table.schema])).transpose()?;
    let mut out = Vec::new();
    let path = choose_access(table, bound.as_ref(), None, params, false).path;
    let rows = stream(table, path, bound.as_ref(), params, vis, stats);
    for_each_match(rows, bound.as_ref(), params, gov, |stored, _| {
        out.push(stored.id);
        Ok(true)
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::schema::Column;
    use crate::sql::parser::parse;
    use crate::sql::ast::Statement;
    use crate::value::DataType;

    fn catalog() -> Catalog {
        let mut stats = OpStats::default();
        let mut jobs = Table::new(
            Schema::new(
                "jobs",
                vec![
                    Column::not_null("job_id", DataType::Int),
                    Column::not_null("owner", DataType::Text),
                    Column::new("state", DataType::Text),
                    Column::new("runtime", DataType::Double),
                ],
            )
            .with_primary_key("job_id")
            .with_index("state"),
        )
        .unwrap();
        for (id, owner, state, rt) in [
            (1, "alice", "idle", 60.0),
            (2, "alice", "running", 360.0),
            (3, "bob", "idle", 60.0),
            (4, "carol", "held", 10.0),
        ] {
            jobs.insert(
                vec![
                    Value::Int(id),
                    Value::Text(owner.into()),
                    Value::Text(state.into()),
                    Value::Double(rt),
                ],
                crate::mvcc::COMMITTED_TXN,
                &mut stats,
            )
            .unwrap();
        }

        let mut machines = Table::new(
            Schema::new(
                "machines",
                vec![
                    Column::not_null("machine_id", DataType::Int),
                    Column::new("state", DataType::Text),
                ],
            )
            .with_primary_key("machine_id"),
        )
        .unwrap();
        for (id, state) in [(10, "idle"), (11, "busy")] {
            machines
                .insert(
                    vec![Value::Int(id), Value::Text(state.into())],
                    crate::mvcc::COMMITTED_TXN,
                    &mut stats,
                )
                .unwrap();
        }

        let mut matches = Table::new(
            Schema::new(
                "matches",
                vec![
                    Column::not_null("job_id", DataType::Int),
                    Column::not_null("machine_id", DataType::Int),
                ],
            )
            .with_index("job_id"),
        )
        .unwrap();
        matches
            .insert(vec![Value::Int(2), Value::Int(11)], crate::mvcc::COMMITTED_TXN, &mut stats)
            .unwrap();

        let mut cat = Catalog::new();
        cat.insert("jobs".into(), jobs);
        cat.insert("machines".into(), machines);
        cat.insert("matches".into(), matches);
        cat
    }

    /// Runs `stmt` with no bindings against the latest state, planned per
    /// execution.
    fn run_select(cat: &Catalog, stmt: &SelectStmt, stats: &mut OpStats) -> Result<QueryResult> {
        let gov = &mut Governor::disarmed();
        execute_select_opts(cat, stmt, &[], Snapshot::latest(), stats, gov, ExecOptions::default())
    }

    /// UPDATE/DELETE row matching with no bindings against the latest state.
    fn matching_ids(table: &Table, filter: Option<&Expr>, stats: &mut OpStats) -> Result<Vec<RowId>> {
        let gov = &mut Governor::disarmed();
        matching_row_ids_with(table, filter, &[], Snapshot::latest(), stats, gov)
    }

    fn select(cat: &Catalog, sql: &str) -> QueryResult {
        let Statement::Select(stmt) = parse(sql).unwrap() else {
            panic!("not a select: {sql}");
        };
        run_select(cat, &stmt, &mut OpStats::default()).unwrap()
    }

    #[test]
    fn simple_filter_and_projection() {
        let cat = catalog();
        let r = select(&cat, "SELECT job_id, owner FROM jobs WHERE state = 'idle' ORDER BY job_id");
        assert_eq!(r.column_names(), vec!["job_id", "owner"]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.value(0, "job_id"), Some(&Value::Int(1)));
        assert_eq!(r.value(1, "owner"), Some(&Value::Text("bob".into())));
    }

    #[test]
    fn projected_column_names_are_interned_from_the_schema() {
        let cat = catalog();
        let jobs_schema = &cat.get("jobs").unwrap().schema;
        let r = select(&cat, "SELECT job_id, owner FROM jobs LIMIT 1");
        // The output names share the schema's allocation (pointer equality),
        // proving projection clones an Arc rather than the string.
        assert!(Arc::ptr_eq(&r.columns[0], &jobs_schema.columns[0].name));
        assert!(Arc::ptr_eq(&r.columns[1], &jobs_schema.columns[1].name));
        let r = select(&cat, "SELECT * FROM jobs LIMIT 1");
        assert!(Arc::ptr_eq(&r.columns[2], &jobs_schema.columns[2].name));
    }

    #[test]
    fn wildcard_and_limit() {
        let cat = catalog();
        let r = select(&cat, "SELECT * FROM jobs ORDER BY job_id DESC LIMIT 2");
        assert_eq!(r.len(), 2);
        assert_eq!(r.value(0, "job_id"), Some(&Value::Int(4)));
        assert_eq!(r.columns.len(), 4);
    }

    /// `jobs`-shaped table of `rows` rows whose last `idle_tail` are idle.
    fn skewed_queue(rows: i64, idle_tail: i64) -> Catalog {
        let mut stats = OpStats::default();
        let mut jobs = Table::new(
            Schema::new(
                "jobs",
                vec![
                    Column::not_null("job_id", DataType::Int),
                    Column::not_null("state", DataType::Text),
                ],
            )
            .with_primary_key("job_id")
            .with_index("state"),
        )
        .unwrap();
        for id in 0..rows {
            let state = if id >= rows - idle_tail { "idle" } else { "done" };
            jobs.insert(
                vec![Value::Int(id), Value::Text(state.into())],
                crate::mvcc::COMMITTED_TXN,
                &mut stats,
            )
            .unwrap();
        }
        let mut cat = Catalog::new();
        cat.insert("jobs".into(), jobs);
        cat
    }

    #[test]
    fn ordered_walk_reads_the_head_and_gives_up_on_a_skewed_table() {
        let run = |cat: &Catalog, sql: &str, force_scan: bool| {
            let Statement::Select(stmt) = parse(sql).unwrap() else {
                unreachable!()
            };
            let mut stats = OpStats::default();
            let opts = ExecOptions {
                force_scan,
                ..Default::default()
            };
            let vis = Snapshot::latest();
            let gov = &mut Governor::disarmed();
            let r = execute_select_opts(cat, &stmt, &[], vis, &mut stats, gov, opts).unwrap();
            (r, stats)
        };
        let sql = "SELECT job_id FROM jobs WHERE state = 'idle' ORDER BY job_id LIMIT 5";

        // Every row idle: the walk stops after the five it returns.
        let cat = skewed_queue(1_000, 1_000);
        let (head, stats) = run(&cat, sql, false);
        assert_eq!(head, run(&cat, sql, true).0);
        assert_eq!(stats.rows_read, 5);
        assert_eq!(stats.rows_scanned, 0);

        // The 100 idle rows all sit at the far end of the key order. The
        // cost rule (5 x 1000 / 100 = 50 rows expected against 100) picks
        // the walk; it visits `driven` = 100 rows, none idle, gives up, and
        // the index lookup it was costed against does the work: at most
        // 2 x driven + k rows read, not the table.
        let cat = skewed_queue(1_000, 100);
        let (head, stats) = run(&cat, sql, false);
        assert_eq!(head, run(&cat, sql, true).0);
        assert_eq!(head.len(), 5);
        assert_eq!(head.value(0, "job_id"), Some(&Value::Int(900)));
        assert!(stats.rows_read > 100, "the walk was tried: {}", stats.rows_read);
        assert!(stats.rows_read <= 2 * 100 + 5, "and bounded: {}", stats.rows_read);
        assert_eq!(stats.rows_scanned, 0);
    }

    #[test]
    fn pk_point_lookup_uses_index() {
        let cat = catalog();
        let mut stats = OpStats::default();
        let Statement::Select(stmt) = parse("SELECT * FROM jobs WHERE job_id = 3").unwrap() else {
            unreachable!()
        };
        let r = run_select(&cat, &stmt, &mut stats).unwrap();
        assert_eq!(r.len(), 1);
        assert!(stats.index_lookups >= 1);
        assert_eq!(stats.rows_scanned, 0);
    }

    #[test]
    fn secondary_index_lookup() {
        let cat = catalog();
        let mut stats = OpStats::default();
        let Statement::Select(stmt) =
            parse("SELECT job_id FROM jobs WHERE state = 'idle' AND runtime < 100").unwrap()
        else {
            unreachable!()
        };
        let r = run_select(&cat, &stmt, &mut stats).unwrap();
        assert_eq!(r.len(), 2);
        assert!(stats.index_lookups >= 1);
    }

    #[test]
    fn range_predicate_uses_index_without_scanning() {
        let cat = catalog();
        let mut stats = OpStats::default();
        let Statement::Select(stmt) =
            parse("SELECT job_id FROM jobs WHERE job_id >= 2 AND job_id < 4 ORDER BY job_id")
                .unwrap()
        else {
            unreachable!()
        };
        let r = run_select(&cat, &stmt, &mut stats).unwrap();
        assert_eq!(r.len(), 2, "strict upper bound re-checked by the filter");
        assert_eq!(r.value(0, "job_id"), Some(&Value::Int(2)));
        assert_eq!(r.value(1, "job_id"), Some(&Value::Int(3)));
        assert!(stats.index_lookups >= 1);
        assert_eq!(stats.rows_scanned, 0, "no full scan for a bounded range");
    }

    #[test]
    fn between_predicate_uses_index() {
        let cat = catalog();
        let mut stats = OpStats::default();
        let Statement::Select(stmt) =
            parse("SELECT job_id FROM jobs WHERE job_id BETWEEN 2 AND 3 ORDER BY job_id").unwrap()
        else {
            unreachable!()
        };
        let r = run_select(&cat, &stmt, &mut stats).unwrap();
        assert_eq!(r.len(), 2);
        assert!(stats.index_lookups >= 1);
        assert_eq!(stats.rows_scanned, 0);
    }

    #[test]
    fn half_open_and_contradictory_ranges() {
        let cat = catalog();
        let r = select(&cat, "SELECT job_id FROM jobs WHERE job_id > 2 ORDER BY job_id");
        assert_eq!(r.len(), 2);
        assert_eq!(r.value(0, "job_id"), Some(&Value::Int(3)));
        let r = select(&cat, "SELECT job_id FROM jobs WHERE job_id <= 1");
        assert_eq!(r.len(), 1);
        let r = select(&cat, "SELECT job_id FROM jobs WHERE job_id > 3 AND job_id < 2");
        assert!(r.is_empty());
    }

    #[test]
    fn range_on_text_secondary_index() {
        let cat = catalog();
        let mut stats = OpStats::default();
        let Statement::Select(stmt) =
            parse("SELECT job_id FROM jobs WHERE state >= 'idle' AND state <= 'idle'").unwrap()
        else {
            unreachable!()
        };
        let r = run_select(&cat, &stmt, &mut stats).unwrap();
        assert_eq!(r.len(), 2);
        assert!(stats.index_lookups >= 1);
        assert_eq!(stats.rows_scanned, 0);
    }

    #[test]
    fn range_under_or_falls_back_to_scan_correctly() {
        let cat = catalog();
        // The range sits under an OR, so it must NOT restrict the access path.
        let r = select(
            &cat,
            "SELECT job_id FROM jobs WHERE job_id >= 4 OR state = 'idle' ORDER BY job_id",
        );
        assert_eq!(r.len(), 3);
        assert_eq!(r.value(0, "job_id"), Some(&Value::Int(1)));
        assert_eq!(r.value(2, "job_id"), Some(&Value::Int(4)));
    }

    #[test]
    fn join_produces_qualified_columns() {
        let cat = catalog();
        let r = select(
            &cat,
            "SELECT jobs.job_id, machines.machine_id FROM jobs \
             JOIN matches ON jobs.job_id = matches.job_id \
             JOIN machines ON matches.machine_id = machines.machine_id",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, "jobs.job_id"), Some(&Value::Int(2)));
        assert_eq!(r.value(0, "machines.machine_id"), Some(&Value::Int(11)));
    }

    #[test]
    fn join_filter_on_right_table() {
        let cat = catalog();
        let r = select(
            &cat,
            "SELECT jobs.owner FROM jobs JOIN matches ON jobs.job_id = matches.job_id \
             WHERE matches.machine_id = 11",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, "jobs.owner"), Some(&Value::Text("alice".into())));
    }

    #[test]
    fn ambiguous_group_by_column_is_the_ambiguity_error() {
        let cat = catalog();
        // `state` is a column of both jobs and machines: grouping by the
        // bare name is ambiguous, the same type error a filter or a
        // projection on it gets — not "column not found".
        for sql in [
            "SELECT COUNT(*), state FROM jobs JOIN matches ON jobs.job_id = matches.job_id \
             JOIN machines ON matches.machine_id = machines.machine_id GROUP BY state",
            "SELECT COUNT(*) FROM jobs JOIN matches ON jobs.job_id = matches.job_id \
             JOIN machines ON matches.machine_id = machines.machine_id WHERE state = 'idle'",
        ] {
            let Statement::Select(stmt) = parse(sql).unwrap() else {
                unreachable!()
            };
            let err = run_select(&cat, &stmt, &mut OpStats::default()).unwrap_err();
            assert!(matches!(&err, Error::Type(m) if m.contains("ambiguous column state")), "{err}");
        }
        // Qualified, it groups.
        let r = select(
            &cat,
            "SELECT COUNT(*), machines.state FROM jobs JOIN matches ON jobs.job_id = matches.job_id \
             JOIN machines ON matches.machine_id = machines.machine_id GROUP BY machines.state",
        );
        assert_eq!(r.column_names(), vec!["count(*)", "machines.state"]);
        assert_eq!(r.rows, vec![Row::new(vec![Value::Int(1), Value::Text("busy".into())])]);
    }

    #[test]
    fn arithmetic_projection_with_alias() {
        let cat = catalog();
        let r = select(&cat, "SELECT runtime / 60 AS minutes FROM jobs WHERE job_id = 2");
        assert_eq!(r.column_names(), vec!["minutes"]);
        assert_eq!(r.value(0, "minutes"), Some(&Value::Double(6.0)));
    }

    #[test]
    fn matching_row_ids_with_and_without_filter() {
        let cat = catalog();
        let jobs = cat.get("jobs").unwrap();
        let mut stats = OpStats::default();
        let all = matching_ids(jobs, None, &mut stats).unwrap();
        assert_eq!(all.len(), 4);
        let idle = matching_ids(
            jobs,
            Some(&Expr::col_eq("state", "idle")),
            &mut stats,
        )
        .unwrap();
        assert_eq!(idle.len(), 2);
        let none = matching_ids(
            jobs,
            Some(&Expr::col_cmp("job_id", CmpOp::Gt, 100)),
            &mut stats,
        )
        .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let cat = catalog();
        let Statement::Select(stmt) = parse("SELECT * FROM nope").unwrap() else {
            unreachable!()
        };
        assert!(run_select(&cat, &stmt, &mut OpStats::default()).is_err());
        let Statement::Select(stmt) = parse("SELECT missing FROM jobs").unwrap() else {
            unreachable!()
        };
        assert!(run_select(&cat, &stmt, &mut OpStats::default()).is_err());
    }
}
