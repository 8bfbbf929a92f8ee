//! SELECT execution: plan-driven access paths and joins, subquery
//! rewriting, filtering, sorting, projection; plus the shared row-matching
//! helper used by UPDATE/DELETE.
//!
//! Every table is read the same way: an [`AccessPath`] from the planner's
//! one chooser ([`choose_access`]: per execution for a single table, cached
//! in the plan for a join's inputs) handed to the one streamer, which keys
//! the path from the filter and falls back to a full scan where it cannot.
//! Execution is driven by the planner in [`crate::plan`]: joins run in the
//! planned order, each by the strategy the planner costed — for a
//! single-equality `ON`, a hash join (build a map of the right table) or an
//! index-nested-loop join (probe the right table's index once per left row,
//! re-checking the equality on the version the snapshot sees, since index
//! entries cover every retained version); a nested loop over the full `ON`
//! otherwise — with single-table WHERE conjuncts pushed down to each
//! input, and the full filter re-applied afterwards as a correctness
//! backstop. Subqueries in WHERE are executed first and spliced back in as
//! literals / `IN` lists, so the rest of the pipeline never sees them.
//!
//! **Rows stay where they are.** What flows between the operators is a
//! *tuple*: one `&Row` per table read so far, borrowed from the table heap
//! (or from a hash-join build side). A single-table statement's tuples are
//! the [`StoredRowRef`]s its access path streams; a join appends one
//! reference per step to a flat `Vec<&Row>`, so joining copies pointers,
//! never values. Every expression — pushed-down and residual filters, `ON`
//! predicates, projections, sort keys, grouping columns, aggregate inputs —
//! is bound once per execution ([`Expr::bind`]) to (slot, ordinal)
//! addresses into the tuple and evaluated against the borrow. The rows
//! the executor allocates are the ones it returns, plus the owned build
//! side of a hash join (kept owned so a prepared statement can reuse it
//! across executions); `OpStats::rows_materialized` counts exactly those.
//!
//! Aggregates go further and fold where the data already is. A GROUP BY
//! whose every column belongs to the table of the last join step, when
//! that step is a hash join, is a *groupjoin*: the probe loop folds each
//! match straight into its group's states — no tuple vector is built — and
//! each build row is mapped to its group once, the first time it matches,
//! after which its matches reach their group by the build row's dense
//! number ([`CachedBuild`] numbers them), no group key hashed per tuple.
//! And `COUNT(*) … WHERE <indexed column> = <key>` on its point lookup
//! counts the posting list ([`Table::count_postings`]) without reading the
//! rows. Both are replacements inside the operators they speed up: every
//! row read, tuple charged, governor tick and statistic stays what the
//! general path would have recorded (the count ticks once per posting
//! entry), and EXPLAIN says which path ran.
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
    choose_access, counts_postings, plan_select, walk_order, AccessPath, BuildBucket, CachedBuild,
    JoinStep, JoinStrategy, PlanProfile, SelectPlan, StepActuals,
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

fn get_table<'a>(catalog: &'a Catalog, name: &str) -> Result<&'a Table> {
    // Catalog keys are lower-case; lower_name skips the per-lookup
    // allocation for the common case of an already-lower-case name.
    catalog
        .get(crate::schema::lower_name(name).as_ref())
        .ok_or_else(|| Error::not_found(format!("table {name}")))
}

/// The one streamer: reads `table` through `path`, taking the point or
/// range key for the path's column from `filter` — the statement's filter
/// for a single table, the pushed-down conjuncts for a join input, each
/// with `?` resolved from `params` now, since a cached plan was chosen
/// before they were bound. Every path only has to yield a *superset* of
/// the matching rows, because the caller re-applies the filter, so
/// anything that cannot be keyed — no key in the filter, no index on the
/// column, an ordered walk — is a full scan.
fn stream<'a>(
    table: &'a Table,
    path: AccessPath,
    filter: Option<&Expr>,
    params: &[Value],
    vis: &'a Snapshot,
    stats: &mut OpStats,
) -> RowIter<'a> {
    let name = &*table.schema.name;
    let column_name = |c: usize| table.schema.columns.get(c).map(|c| &*c.name);
    let keyed = match (path, filter) {
        (AccessPath::Point { column, .. }, Some(f)) => column_name(column)
            .and_then(|c| f.equality_lookup_on(name, c, params))
            .and_then(|key| table.lookup_indexed(column, &key, vis, stats)),
        (AccessPath::Range { column }, Some(f)) => column_name(column)
            .and_then(|c| f.range_bounds_on(name, c, params))
            .and_then(|(lo, hi)| table.lookup_range(column, lo.as_ref(), hi.as_ref(), vis, stats)),
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
fn rewrite_subqueries(
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
/// the standalone behaviour: plan per execution, reorder joins, no build
/// cache, no profiling.
#[derive(Default)]
pub struct ExecOptions<'a> {
    /// Execute this pre-built plan instead of planning now (plan cache,
    /// EXPLAIN ANALYZE).
    pub plan: Option<&'a SelectPlan>,
    /// Cached hash-join build sides, parallel to the plan's steps: valid
    /// slots are reused, rebuilt ones are written back.
    pub builds: Option<&'a mut Vec<Option<Arc<CachedBuild>>>>,
    /// Collect per-operator actuals (EXPLAIN ANALYZE).
    pub profile: Option<&'a mut PlanProfile>,
    /// Keep joins in syntactic order (oracle / bench baseline). Only
    /// consulted when `plan` is `None`.
    pub no_reorder: bool,
    /// Read every table by a full scan (oracle / bench baseline). Only
    /// consulted when `plan` is `None`: a plan carries the paths it was
    /// chosen with.
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

/// Streams `rows` through `pred`, handing each survivor to `each`; every
/// row visited is a cancellation point. Returns the number visited.
fn for_each_match<'a>(
    rows: RowIter<'a>,
    pred: Option<&BoundExpr<'_>>,
    params: &[Value],
    gov: &mut Governor,
    mut each: impl FnMut(StoredRowRef<'a>, &mut Governor) -> Result<()>,
) -> Result<u64> {
    let mut visited = 0;
    for stored in rows {
        gov.tick()?;
        visited += 1;
        let keep = match pred {
            Some(p) => p.matches(&[stored.row], params)?,
            None => true,
        };
        if keep {
            each(stored, gov)?;
        }
    }
    Ok(visited)
}

/// Executes a SELECT statement against the catalog, resolving `?`
/// placeholders from `params` during planning and evaluation (prepared
/// execution never clones the statement) and row visibility against `vis`,
/// the caller's MVCC snapshot. `opts` carries the planner/executor knobs
/// the database layer sets for cached plans, EXPLAIN ANALYZE profiling and
/// oracle baselines; `ExecOptions::default()` plans per execution.
pub fn execute_select_opts(
    catalog: &Catalog,
    stmt: &SelectStmt,
    params: &[Value],
    vis: &Snapshot,
    stats: &mut OpStats,
    gov: &mut Governor,
    opts: ExecOptions<'_>,
) -> Result<QueryResult> {
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
    if stmt.joins.is_empty() {
        // A single-table path is chosen per execution, against this
        // execution's filter and bindings, unless a plan is handed in.
        let path = match opts.plan {
            Some(plan) => plan.base.path,
            None => {
                let order = walk_order(stmt, limit);
                choose_access(base, filter.as_deref(), order, params, opts.force_scan).path
            }
        };
        execute_single_table(
            base,
            stmt,
            filter.as_deref(),
            limit,
            path,
            params,
            vis,
            stats,
            gov,
            opts.profile,
        )
    } else {
        let planned;
        let plan = match opts.plan {
            Some(p) => p,
            None => {
                planned = plan_select(catalog, stmt, params, !opts.no_reorder, opts.force_scan)?;
                stats.plans_built += 1;
                &planned
            }
        };
        execute_joined(
            catalog,
            base,
            stmt,
            filter.as_deref(),
            limit,
            plan,
            params,
            vis,
            stats,
            gov,
            opts.builds,
            opts.profile,
        )
    }
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

/// The no-join path: the access path streams borrowed rows through the
/// bound filter; an aggregate folds the survivors as they stream, anything
/// else keeps the references until sort and limit have decided which rows
/// are worth allocating.
#[allow(clippy::too_many_arguments)]
fn execute_single_table(
    table: &Table,
    stmt: &SelectStmt,
    filter: Option<&Expr>,
    limit: Option<usize>,
    path: AccessPath,
    params: &[Value],
    vis: &Snapshot,
    stats: &mut OpStats,
    gov: &mut Governor,
    mut profile: Option<&mut PlanProfile>,
) -> Result<QueryResult> {
    let layout = Layout {
        tables: &[table],
        schemas: &[&table.schema],
        out_slots: &[0],
        qualified: false,
    };
    let bound = filter.map(|f| f.bind(layout.schemas)).transpose()?;

    // Streamed `SELECT *` fast path: with no ORDER BY and no aggregates,
    // survivors are cloned straight off the access path — no borrowed
    // staging vector, and the column header is the table's shared interned
    // list. This is the shape of the service-call point select, so it stays
    // allocation-minimal: the result rows and nothing else. (EXPLAIN
    // ANALYZE takes the staged path below so operators can be timed.)
    if matches!(stmt.items.as_slice(), [SelectItem::Wildcard])
        && stmt.order_by.is_empty()
        && !stmt.has_aggregates()
        && profile.is_none()
    {
        let limit = limit.unwrap_or(usize::MAX);
        let mut rows: Vec<Row> = Vec::new();
        if limit > 0 {
            for StoredRowRef { row, .. } in stream(table, path, filter, params, vis, stats) {
                gov.tick()?;
                let keep = match &bound {
                    Some(f) => f.matches(&[row], params)?,
                    None => true,
                };
                if keep {
                    gov.charge_row(|| approx_row_bytes(row))?;
                    rows.push(row.clone());
                    if rows.len() >= limit {
                        break;
                    }
                }
            }
        }
        stats.rows_materialized += rows.len() as u64;
        return Ok(QueryResult {
            columns: table.wildcard_columns(),
            rows,
        });
    }

    // The access step. `ORDER BY <indexed column> LIMIT k` may be costed
    // onto the ordered walk, which returns the survivors already sorted and
    // cut. Everything else — a walk that ran out of budget included — takes
    // the path the filter drives. Every row read is a cancellation point,
    // and `touched` counts them on either path.
    let sw = clock(&profile);
    let (head, mut touched) = ordered_head(table, path, bound.as_ref(), params, vis, stats, gov)?;
    let sorted = head.is_some();
    let mut agg = stmt
        .has_aggregates()
        .then(|| Aggregator::new(stmt, layout.schemas, |c| layout.label(c)))
        .transpose()?;
    let mut matched: Vec<&Row> = head.unwrap_or_default();
    let mut survivors = matched.len() as u64;
    if !sorted {
        // A walk that gave up falls back to the filter-driven path. It was
        // not forced: a forced chooser never picks the walk.
        let path = match path {
            AccessPath::Ordered { .. } => choose_access(table, filter, None, params, false).path,
            filter_driven => filter_driven,
        };
        // `SELECT COUNT(*) … WHERE <indexed column> = <key>` on its point
        // lookup: the posting list is the answer, read entry by entry.
        let count_key = match (path, filter) {
            (AccessPath::Point { column, .. }, Some(f)) if agg.is_some() && counts_postings(stmt) => {
                let name = &*table.schema.columns[column].name;
                f.equality_lookup_on(&table.schema.name, name, params).map(|key| (column, key))
            }
            _ => None,
        };
        let postings = count_key
            .as_ref()
            .and_then(|(column, key)| table.count_postings(*column, key, vis, stats));
        match (&mut agg, postings) {
            (Some(agg), Some(postings)) => {
                for counts in postings {
                    gov.tick()?;
                    survivors += u64::from(counts);
                }
                touched = survivors;
                agg.count_rows(survivors);
            }
            (agg, _) => {
                let rows = stream(table, path, filter, params, vis, stats);
                // An aggregate folds each survivor where it lies; anything
                // else keeps the reference.
                touched += match agg {
                    Some(agg) => for_each_match(rows, bound.as_ref(), params, gov, |stored, _| {
                        survivors += 1;
                        agg.push(&[stored.row])
                    })?,
                    None => for_each_match(rows, bound.as_ref(), params, gov, |stored, _| {
                        survivors += 1;
                        matched.push(stored.row);
                        Ok(())
                    })?,
                };
            }
        };
    }
    if let (Some(p), Some(sw)) = (profile.as_deref_mut(), sw) {
        p.base = StepActuals {
            rows: touched,
            nanos: sw.elapsed_nanos(),
        };
        p.filter.rows = survivors;
    }

    let sw = clock(&profile);
    let result = match agg {
        Some(agg) => agg.finish(limit, stats)?,
        None => output_rows(stmt, &layout, matched, sorted, limit, params, stats, gov)?,
    };
    note_output(&mut profile, sw, result.len());
    Ok(result)
}

/// A join step's pushed-down conjuncts, bound against its own table.
fn bind_pushdown<'e>(step: &'e JoinStep, right: &[&Schema]) -> Result<Option<BoundExpr<'e>>> {
    step.pushdown.as_ref().map(|p| p.bind(right)).transpose()
}

/// Appends the tuple `left ++ [right]` to `joined`, charged against the
/// governor's budgets as the row it stands for.
fn emit<'r>(joined: &mut Vec<&'r Row>, left: &[&'r Row], right: &'r Row, gov: &mut Governor) -> Result<()> {
    let mark = joined.len();
    joined.extend_from_slice(left);
    joined.push(right);
    gov.charge_row(|| approx_tuple_bytes(&joined[mark..]))
}

/// What a groupjoin leaves behind: the aggregate, folded; the matches the
/// probe found; and how many of them passed the filter.
struct Folded<'r> {
    agg: Aggregator<'r>,
    matches: u64,
    kept: u64,
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
                    each(std::slice::from_ref(&stored.row), gov)
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

/// The groupjoin: probes `side` with the `stride`-wide tuples of `lefts`
/// and folds each match that passes `filter` straight into its group of
/// `agg`, whose grouping columns all belong to the build side. Nothing is
/// collected: the tuple `left ++ [right]` lives in one scratch vector while
/// it is charged, filtered and folded. A build row's group is looked up
/// the first time it survives the filter and kept under its dense number,
/// so no group key is hashed per match. Ticks, charges and `rows_read` are
/// those of the probe, the residual filter and the fold it replaces.
#[allow(clippy::too_many_arguments)]
fn probe_and_fold<'r>(
    lefts: Lefts<'r, '_>,
    stride: usize,
    probe: ColRef,
    side: &'r CachedBuild,
    filter: Option<&BoundExpr<'_>>,
    mut agg: Aggregator<'r>,
    params: &[Value],
    stats: &mut OpStats,
    gov: &mut Governor,
) -> Result<Folded<'r>> {
    const UNMAPPED: usize = usize::MAX;
    let mut group_of = vec![UNMAPPED; side.rows];
    let mut tuple: Vec<&Row> = Vec::with_capacity(stride + 1);
    let (mut matches, mut kept) = (0, 0);
    lefts.for_each(params, gov, |left, gov| {
        gov.tick()?;
        let key = probe.of(left);
        if key.is_null() {
            return Ok(());
        }
        let Some(bucket) = side.map.get(key) else {
            return Ok(());
        };
        for (i, right) in bucket.rows.iter().enumerate() {
            gov.tick()?;
            tuple.clear();
            tuple.extend_from_slice(left);
            tuple.push(right);
            gov.charge_row(|| approx_tuple_bytes(&tuple))?;
            stats.rows_read += 1;
            matches += 1;
            if let Some(filter) = filter {
                gov.tick()?;
                if !filter.matches(&tuple, params)? {
                    continue;
                }
            }
            gov.tick()?;
            kept += 1;
            let group = &mut group_of[bucket.first + i];
            if *group == UNMAPPED {
                *group = agg.group_of(&tuple);
            }
            agg.fold(*group, &tuple)?;
        }
        Ok(())
    })?;
    Ok(Folded { agg, matches, kept })
}

/// The join path, driven by the plan: joins run in planned order — hash
/// join or index-nested-loop join on the single join equality, nested loop
/// evaluating the full `ON` otherwise — with single-table WHERE conjuncts
/// pushed down to each input and the full filter re-applied afterwards.
///
/// The base is never collected: the first step reads its left tuples
/// straight off the base's access path ([`Lefts`]), so under EXPLAIN
/// ANALYZE the base's time is the first step's. The intermediate result
/// is a flat `Vec<&Row>` of tuples: after step `i`
/// each tuple is `i + 2` references, slot 0 the base table's row and slot
/// `k + 1` the row step `k` joined to it, all borrowed — from the table
/// heaps, or from a hash step's build side, which alone is owned (an
/// `Arc<CachedBuild>` a prepared statement keeps across executions) and is
/// therefore built first, before any tuple borrows from it; an index loop
/// has no build side at all. A join step copies `i + 2` pointers per
/// output tuple and no value; the residual filter, the aggregates and the
/// projection read through the references, and rows are allocated only
/// for what is returned. Every row visited ticks the governor and every
/// tuple produced is charged against its budgets at the size its values
/// would have as one row, so a pathological cross-product hits its
/// deadline or budget *while* joining, not after. When the plan folds the
/// GROUP BY into the last step's build rows, that step collects no tuple:
/// [`probe_and_fold`] filters and aggregates as it probes.
#[allow(clippy::too_many_arguments)]
fn execute_joined(
    catalog: &Catalog,
    base: &Table,
    stmt: &SelectStmt,
    filter: Option<&Expr>,
    limit: Option<usize>,
    plan: &SelectPlan,
    params: &[Value],
    vis: &Snapshot,
    stats: &mut OpStats,
    gov: &mut Governor,
    mut builds: Option<&mut Vec<Option<Arc<CachedBuild>>>>,
    mut profile: Option<&mut PlanProfile>,
) -> Result<QueryResult> {
    let mut tables = vec![base];
    for step in &plan.steps {
        tables.push(get_table(catalog, &step.table)?);
    }
    let schemas: Vec<&Schema> = tables.iter().map(|t| &t.schema).collect();
    // Syntactic slot order, whatever order the planner executed the joins
    // in: `SELECT *` and positional consumers never see the reordering.
    let mut out_slots = vec![0];
    for clause in 0..plan.steps.len() {
        let pos = plan.steps.iter().position(|s| s.clause == clause);
        out_slots.push(1 + pos.expect("every join clause is planned exactly once"));
    }
    let layout = Layout {
        tables: &tables,
        schemas: &schemas,
        out_slots: &out_slots,
        qualified: true,
    };
    if let Some(p) = profile.as_deref_mut() {
        p.joins = vec![StepActuals::default(); plan.steps.len()];
    }

    // Hash build sides: reuse the prepared handle's cached build when it
    // still describes exactly the rows this snapshot sees, else build an
    // owned map (and cache it when the pushdown does not depend on `?`
    // parameters).
    let mut sides: Vec<Option<Arc<CachedBuild>>> = vec![None; plan.steps.len()];
    for (si, step) in plan.steps.iter().enumerate() {
        let JoinStrategy::Hash { build, .. } = &step.strategy else {
            continue;
        };
        let sw = clock(&profile);
        let right = tables[si + 1];
        let cached = builds
            .as_ref()
            .and_then(|b| b.get(si).cloned().flatten())
            .filter(|c| step.cacheable && c.valid_for(right, vis));
        sides[si] = Some(match cached {
            Some(reused) => {
                stats.build_reuse_hits += 1;
                reused
            }
            None => {
                let scope = &schemas[si + 1..=si + 1];
                let key = resolve_column(scope, build)?.ord;
                let pred = bind_pushdown(step, scope)?;
                let mut map: FoldMap<Value, BuildBucket> = FoldMap::default();
                let rows = stream(right, step.access.path, step.pushdown.as_ref(), params, vis, stats);
                for_each_match(rows, pred.as_ref(), params, gov, |stored, gov| {
                    let key = stored.row.get(key);
                    if !key.is_null() {
                        gov.charge_row(|| approx_row_bytes(stored.row))?;
                        map.entry(key.clone()).or_default().rows.push(stored.row.clone());
                        stats.rows_materialized += 1;
                    }
                    Ok(())
                })?;
                let built = Arc::new(CachedBuild::new(right.version(), vis.clone(), map));
                if step.cacheable {
                    if let Some(slot) = builds.as_deref_mut().and_then(|b| b.get_mut(si)) {
                        *slot = Some(Arc::clone(&built));
                    }
                }
                built
            }
        });
        if let (Some(p), Some(sw)) = (profile.as_deref_mut(), sw) {
            p.joins[si].nanos = sw.elapsed_nanos();
        }
    }

    // Base access: cost-chosen path plus pushed-down single-table
    // conjuncts, streamed straight into the first step.
    let base_pred = plan.base_pushdown.as_ref().map(|p| p.bind(&schemas[..1])).transpose()?;
    let mut base_kept = 0u64;
    let mut rows: Vec<&Row> = Vec::new();

    let fold = plan.folds_into_build(stmt, &schemas);
    let mut folded: Option<Folded<'_>> = None;
    for (si, step) in plan.steps.iter().enumerate() {
        let sw = clock(&profile);
        let stride = si + 1;
        let right = tables[si + 1];
        let right_scope = &schemas[si + 1..=si + 1];
        let lefts = if si == 0 {
            Lefts::Base {
                rows: stream(base, plan.base.path, plan.base_pushdown.as_ref(), params, vis, stats),
                filter: base_pred.as_ref(),
                kept: &mut base_kept,
            }
        } else {
            Lefts::Tuples {
                rows: std::mem::take(&mut rows),
                stride,
            }
        };
        // Sized for one match per left tuple, the shape of a foreign-key
        // join, unless the step folds instead of collecting.
        let mut joined: Vec<&Row> = Vec::new();
        let last = si + 1 == plan.steps.len();
        if !(fold && last) {
            joined.reserve(lefts.len_hint() * (stride + 1));
        }

        match &step.strategy {
            JoinStrategy::Hash { probe, .. } if fold && last => {
                let probe = resolve_column(&schemas[..stride], probe)?;
                let side = sides[si].as_deref().expect("hash build sides are built first");
                let agg = Aggregator::new(stmt, &schemas, |c| layout.label(c))?;
                let filter = filter.map(|f| f.bind(&schemas)).transpose()?;
                let filter = filter.as_ref();
                folded = Some(probe_and_fold(lefts, stride, probe, side, filter, agg, params, stats, gov)?);
            }
            JoinStrategy::Hash { probe, .. } => {
                let probe = resolve_column(&schemas[..stride], probe)?;
                let side = sides[si].as_deref().expect("hash build sides are built first");
                lefts.for_each(params, gov, |left, gov| {
                    gov.tick()?;
                    let key = probe.of(left);
                    if key.is_null() {
                        return Ok(());
                    }
                    for right_row in side.map.get(key).into_iter().flat_map(|b| &b.rows) {
                        gov.tick()?;
                        emit(&mut joined, left, right_row, gov)?;
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
                            emit(&mut joined, left, stored.row, gov)?;
                        }
                        Ok(())
                    })?;
                    Ok(())
                })?;
            }
            JoinStrategy::NestedLoop => {
                // Collect the (pushdown-filtered) right side once, then
                // evaluate the ON predicate over every row pair.
                let right_pred = bind_pushdown(step, right_scope)?;
                let mut right_rows: Vec<&Row> = Vec::new();
                let scanned = stream(right, step.access.path, step.pushdown.as_ref(), params, vis, stats);
                for_each_match(scanned, right_pred.as_ref(), params, gov, |stored, gov| {
                    gov.charge_row(|| approx_row_bytes(stored.row))?;
                    right_rows.push(stored.row);
                    Ok(())
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
                            emit(&mut joined, left, right_row, gov)?;
                            stats.rows_read += 1;
                        }
                    }
                    Ok(())
                })?;
            }
        }

        rows = joined;
        if let Some(p) = profile.as_deref_mut() {
            if si == 0 {
                // Read inside the first step, so its time is that step's.
                p.base = StepActuals {
                    rows: base_kept,
                    nanos: 0,
                };
            }
            p.joins[si].rows = match &folded {
                Some(folded) => folded.matches,
                None => (rows.len() / (stride + 1)) as u64,
            };
            p.joins[si].nanos += sw.map_or(0, |sw| sw.elapsed_nanos());
        }
    }
    if let Some(Folded { agg, kept, .. }) = folded {
        // Filtered while probing, so its time is the join's.
        if let Some(p) = profile.as_deref_mut() {
            p.filter.rows = kept;
        }
        let sw = clock(&profile);
        let result = agg.finish(limit, stats)?;
        note_output(&mut profile, sw, result.len());
        return Ok(result);
    }
    let stride = tables.len();

    // Residual filter: the full (subquery-rewritten) predicate over the
    // whole tuple. Pushed-down conjuncts are re-checked here — harmless
    // for a conjunction, and it keeps pushdown a pure optimization.
    let sw = clock(&profile);
    if let Some(filter) = filter {
        let filter = filter.bind(&schemas)?;
        let mut kept = 0;
        for i in 0..rows.len() / stride {
            gov.tick()?;
            if filter.matches(&rows[i * stride..][..stride], params)? {
                rows.copy_within(i * stride..(i + 1) * stride, kept * stride);
                kept += 1;
            }
        }
        rows.truncate(kept * stride);
    }
    if let (Some(p), Some(sw)) = (profile.as_deref_mut(), sw) {
        p.filter = StepActuals {
            rows: (rows.len() / stride) as u64,
            nanos: sw.elapsed_nanos(),
        };
    }

    let sw = clock(&profile);
    let result = if stmt.has_aggregates() {
        let mut agg = Aggregator::new(stmt, &schemas, |c| layout.label(c))?;
        for tuple in rows.chunks_exact(stride) {
            gov.tick()?;
            agg.push(tuple)?;
        }
        agg.finish(limit, stats)?
    } else {
        output_rows(stmt, &layout, rows, false, limit, params, stats, gov)?
    };
    note_output(&mut profile, sw, result.len());
    Ok(result)
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
    let path = choose_access(table, filter, None, params, false).path;
    let rows = stream(table, path, filter, params, vis, stats);
    for_each_match(rows, bound.as_ref(), params, gov, |stored, _| {
        out.push(stored.id);
        Ok(())
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
