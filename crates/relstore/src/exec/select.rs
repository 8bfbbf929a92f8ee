//! SELECT execution: plan-driven access paths and joins, subquery
//! rewriting, filtering, sorting, projection; plus the shared row-matching
//! helper used by UPDATE/DELETE.
//!
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
//! The single-table path (the vast majority of service-call queries) is
//! allocation-light: access paths stream borrowed [`StoredRowRef`]s out of
//! the heap, predicates are evaluated against the borrow, and only values
//! that survive projection are cloned. Output column names are `Arc<str>`s
//! interned from the schema, so a point select allocates the result rows and
//! nothing else — cost-based path choice borrows candidate columns from the
//! schema and allocates nothing.

use super::aggregate::execute_aggregate;
use super::QueryResult;
use crate::error::{Error, Result};
use crate::govern::{approx_row_bytes, Governor};
use crate::mvcc::Snapshot;
use crate::obs::Stopwatch;
use crate::plan::{
    choose_access_ref, choose_select_access_ref, plan_select, AccessPath, AccessPlan, CachedBuild,
    JoinStrategy, OrderedWalk, PathChoice, PlanProfile, SelectPlan, StepActuals,
};
use crate::predicate::Expr;
use crate::schema::{Column, Schema};
use crate::sql::ast::{SelectItem, SelectStmt, SortOrder};
use crate::stats::OpStats;
use crate::table::{RowIter, Table};
use crate::tuple::{Row, RowId, StoredRowRef};
use crate::value::Value;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::collections::HashMap;
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

/// Resolves a possibly-unqualified column name against a (possibly joined)
/// schema whose columns carry qualified `table.column` names.
///
/// Borrows the input when it is already the resolved spelling — the common
/// case for parser output, which lower-cases identifiers — so per-query
/// resolution does not allocate.
fn resolve_column<'a>(schema: &Schema, name: &'a str) -> Result<Cow<'a, str>> {
    let lname = crate::schema::lower_name(name);
    if schema.column_index(&lname).is_ok() {
        return Ok(lname);
    }
    if !lname.contains('.') {
        // A bare name against a joined schema with qualified column names.
        let mut found: Option<&Column> = None;
        for c in &schema.columns {
            if let Some((_, bare)) = c.name.split_once('.') {
                if bare == lname.as_ref() {
                    if found.is_some() {
                        return Err(Error::type_err(format!(
                            "ambiguous column {name} in {}",
                            schema.name
                        )));
                    }
                    found = Some(c);
                }
            }
        }
        if let Some(c) = found {
            return Ok(Cow::Owned(c.name.to_string()));
        }
    } else if let Some((_, bare)) = lname.split_once('.') {
        // A qualified name used against a single-table schema with bare names.
        if schema.column_index(bare).is_ok() {
            return Ok(match lname {
                Cow::Borrowed(s) => Cow::Borrowed(s.split_once('.').expect("contains '.'").1),
                Cow::Owned(s) => Cow::Owned(s.split_once('.').expect("contains '.'").1.to_string()),
            });
        }
    }
    Err(Error::not_found(format!(
        "column {name} in {}",
        schema.name
    )))
}

/// Rewrites every column reference in `expr` to its resolved name in
/// `schema`, borrowing the input expression when nothing needs rewriting
/// (no clone on the hot path).
fn resolve_expr<'a>(expr: &'a Expr, schema: &Schema) -> Result<Cow<'a, Expr>> {
    fn binary<'a>(
        expr: &'a Expr,
        l: &'a Expr,
        r: &'a Expr,
        schema: &Schema,
        rebuild: impl FnOnce(Box<Expr>, Box<Expr>) -> Expr,
    ) -> Result<Cow<'a, Expr>> {
        let lr = resolve_expr(l, schema)?;
        let rr = resolve_expr(r, schema)?;
        Ok(match (lr, rr) {
            (Cow::Borrowed(_), Cow::Borrowed(_)) => Cow::Borrowed(expr),
            (lr, rr) => Cow::Owned(rebuild(Box::new(lr.into_owned()), Box::new(rr.into_owned()))),
        })
    }
    fn unary<'a>(
        expr: &'a Expr,
        e: &'a Expr,
        schema: &Schema,
        rebuild: impl FnOnce(Box<Expr>) -> Expr,
    ) -> Result<Cow<'a, Expr>> {
        Ok(match resolve_expr(e, schema)? {
            Cow::Borrowed(_) => Cow::Borrowed(expr),
            Cow::Owned(inner) => Cow::Owned(rebuild(Box::new(inner))),
        })
    }
    Ok(match expr {
        Expr::Literal(_) | Expr::Param(_) => Cow::Borrowed(expr),
        Expr::Column(c) => {
            let resolved = resolve_column(schema, c)?;
            if resolved == *c {
                Cow::Borrowed(expr)
            } else {
                Cow::Owned(Expr::Column(resolved.into_owned()))
            }
        }
        Expr::Cmp(op, l, r) => binary(expr, l, r, schema, |l, r| Expr::Cmp(*op, l, r))?,
        Expr::Arith(op, l, r) => binary(expr, l, r, schema, |l, r| Expr::Arith(*op, l, r))?,
        Expr::And(l, r) => binary(expr, l, r, schema, Expr::And)?,
        Expr::Or(l, r) => binary(expr, l, r, schema, Expr::Or)?,
        Expr::Not(e) => unary(expr, e, schema, Expr::Not)?,
        Expr::IsNull(e) => unary(expr, e, schema, Expr::IsNull)?,
        Expr::IsNotNull(e) => unary(expr, e, schema, Expr::IsNotNull)?,
        Expr::InList(e, list) => match resolve_expr(e, schema)? {
            Cow::Borrowed(_) => Cow::Borrowed(expr),
            Cow::Owned(inner) => Cow::Owned(Expr::InList(Box::new(inner), list.clone())),
        },
        // Subqueries are rewritten into literals / IN lists before the
        // WHERE clause is resolved; reaching one here means it sits in a
        // position the engine does not support (projection, SET, ...).
        Expr::InSubquery(..) | Expr::ScalarSubquery(_) => {
            return Err(Error::type_err(
                "subqueries are only supported in the WHERE clause of a SELECT",
            ))
        }
    })
}

/// Builds the qualified schema describing `table` prefixed with its name.
fn qualified_schema(table: &Table) -> Schema {
    let columns = table
        .schema
        .columns
        .iter()
        .map(|c| Column {
            name: format!("{}.{}", table.schema.name, c.name).into(),
            ty: c.ty,
            not_null: c.not_null,
        })
        .collect();
    Schema::new(table.schema.name.clone(), columns)
}

/// Streams the base table through the cost-chosen access path (see
/// [`choose_access_ref`]): the most selective of the point lookups and
/// range scans the filter permits, or a full scan. Every path yields a
/// *superset* of the matching rows — the caller re-applies the filter — and
/// path choice borrows candidate columns from the schema, so planning and
/// row access allocate nothing beyond the id list of an index probe.
/// `force_scan` pins a full scan (bench baseline knob).
fn access_base_table<'a>(
    table: &'a Table,
    filter: Option<&Expr>,
    params: &[Value],
    vis: &'a Snapshot,
    stats: &mut OpStats,
    force_scan: bool,
) -> RowIter<'a> {
    let choice = if force_scan {
        PathChoice::Scan
    } else {
        choose_access_ref(table, filter).0
    };
    access_chosen(table, choice, filter, params, vis, stats)
}

/// Streams the base table through an already-chosen filter-driven path,
/// extracting the point/range keys from `filter`. A scan is what any other
/// choice degrades to, since every path only has to yield a superset.
fn access_chosen<'a>(
    table: &'a Table,
    choice: PathChoice<'_>,
    filter: Option<&Expr>,
    params: &[Value],
    vis: &'a Snapshot,
    stats: &mut OpStats,
) -> RowIter<'a> {
    let name = &*table.schema.name;
    match (choice, filter) {
        (PathChoice::Point(col, _), Some(filter)) => {
            if let Some(key) = filter.equality_lookup_on(name, col, params) {
                if let Some(rows) = table.lookup_indexed(col, &key, vis, stats) {
                    return rows;
                }
            }
        }
        (PathChoice::Range(col), Some(filter)) => {
            if let Some((lo, hi)) = filter.range_bounds_on(name, col, params) {
                if let Some(rows) = table.lookup_range(col, lo.as_ref(), hi.as_ref(), vis, stats) {
                    return rows;
                }
            }
        }
        _ => {}
    }
    table.scan(vis, stats)
}

/// Streams one join input through the access path its plan chose,
/// extracting point/range keys from the pushed-down predicate at execution
/// time (plans for prepared statements are built before `?` parameters are
/// bound). Falls back to a scan when the key cannot be extracted — the
/// pushdown predicate is still applied by the caller, so this is only a
/// cost difference.
fn access_planned<'a>(
    table: &'a Table,
    access: &AccessPlan,
    pred: Option<&Expr>,
    params: &[Value],
    vis: &'a Snapshot,
    stats: &mut OpStats,
) -> RowIter<'a> {
    let name = &*table.schema.name;
    match (&access.path, pred) {
        (AccessPath::Point { column, .. }, Some(pred)) => {
            if let Some(key) = pred.equality_lookup_on(name, column, params) {
                if let Some(rows) = table.lookup_indexed(column, &key, vis, stats) {
                    return rows;
                }
            }
            table.scan(vis, stats)
        }
        (AccessPath::Range { column }, Some(pred)) => {
            if let Some((lo, hi)) = pred.range_bounds_on(name, column, params) {
                if let Some(rows) = table.lookup_range(column, lo.as_ref(), hi.as_ref(), vis, stats)
                {
                    return rows;
                }
            }
            table.scan(vis, stats)
        }
        _ => table.scan(vis, stats),
    }
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
    /// Force a full scan of the base table (bench baseline).
    pub force_scan: bool,
}

/// Executes a SELECT statement against the catalog with no bound parameters,
/// observing the latest physical state (no snapshot isolation). Used by
/// tests and programmatic helpers; statement execution goes through
/// [`execute_select_with`] with a real snapshot.
pub fn execute_select(
    catalog: &Catalog,
    stmt: &SelectStmt,
    stats: &mut OpStats,
) -> Result<QueryResult> {
    execute_select_with(
        catalog,
        stmt,
        &[],
        Snapshot::latest(),
        stats,
        &mut Governor::disarmed(),
    )
}

/// The projection plan: output names (interned from the schema where
/// possible) and, for each select item, the expression to evaluate (`None`
/// marks a wildcard slot that copies the whole input row).
type ProjectionSpec<'a> = (Vec<Arc<str>>, Vec<Option<Cow<'a, Expr>>>);

fn projection_spec<'a>(stmt: &'a SelectStmt, schema: &Schema) -> Result<ProjectionSpec<'a>> {
    let mut out_columns: Vec<Arc<str>> = Vec::with_capacity(stmt.items.len());
    let mut projections: Vec<Option<Cow<'a, Expr>>> = Vec::with_capacity(stmt.items.len());
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                out_columns.extend(schema.columns.iter().map(|c| c.name.clone()));
                projections.push(None);
            }
            SelectItem::Expr { expr, alias } => {
                let resolved = resolve_expr(expr, schema)?;
                let name: Arc<str> = match (alias, &*resolved) {
                    (Some(a), _) => Arc::from(a.as_str()),
                    // A plain column reference reuses the schema's interned
                    // name instead of re-allocating it per query.
                    (None, Expr::Column(c)) => match schema.column_index(c) {
                        Ok(idx) => schema.columns[idx].name.clone(),
                        Err(_) => Arc::from(c.as_str()),
                    },
                    (None, other) => Arc::from(other.to_string()),
                };
                out_columns.push(name);
                projections.push(Some(resolved));
            }
            SelectItem::Aggregate { .. } => unreachable!("aggregates handled before projection"),
        }
    }
    Ok((out_columns, projections))
}

/// Evaluates a projection plan over an iterator of (borrowed or owned) rows,
/// charging each materialized output row against the governor's budgets.
fn project_rows<'r>(
    schema: &Schema,
    rows: impl ExactSizeIterator<Item = &'r Row>,
    out_width: usize,
    projections: &[Option<Cow<'_, Expr>>],
    params: &[Value],
    gov: &mut Governor,
) -> Result<Vec<Row>> {
    let mut out_rows = Vec::with_capacity(rows.len());
    for row in rows {
        gov.tick()?;
        let mut values = Vec::with_capacity(out_width);
        for proj in projections {
            match proj {
                None => values.extend(row.values.iter().cloned()),
                Some(expr) => values.push(expr.eval_with(schema, row, params)?),
            }
        }
        let out = Row::new(values);
        gov.charge_row(|| approx_row_bytes(&out))?;
        out_rows.push(out);
    }
    Ok(out_rows)
}

/// Sorts rows by the ORDER BY keys of `stmt` resolved against `schema`.
/// `get` maps a sort element to the row it orders by.
fn sort_rows<T>(stmt: &SelectStmt, schema: &Schema, rows: &mut [T], get: impl Fn(&T) -> &Row) -> Result<()> {
    let keys: Vec<(usize, SortOrder)> = stmt
        .order_by
        .iter()
        .map(|k| {
            let col = resolve_column(schema, &k.column)?;
            Ok((schema.column_index(&col)?, k.order))
        })
        .collect::<Result<_>>()?;
    rows.sort_by(|a, b| {
        let (a, b) = (get(a), get(b));
        for (idx, order) in &keys {
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
    Ok(())
}

/// Executes a SELECT statement against the catalog, resolving `?`
/// placeholders from `params` during planning and evaluation (prepared
/// execution never clones the statement) and resolving row visibility
/// against `vis` — the caller's MVCC snapshot, or
/// [`Snapshot::latest`] for writer-side row matching.
pub fn execute_select_with(
    catalog: &Catalog,
    stmt: &SelectStmt,
    params: &[Value],
    vis: &Snapshot,
    stats: &mut OpStats,
    gov: &mut Governor,
) -> Result<QueryResult> {
    execute_select_opts(catalog, stmt, params, vis, stats, gov, ExecOptions::default())
}

/// As [`execute_select_with`], with explicit planner/executor knobs — the
/// entry point the database layer uses for cached plans, EXPLAIN ANALYZE
/// profiling, and bench baselines.
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
        execute_single_table(
            base,
            stmt,
            filter.as_deref(),
            limit,
            params,
            vis,
            stats,
            gov,
            opts.force_scan,
            opts.profile,
        )
    } else {
        let planned;
        let plan = match opts.plan {
            Some(p) => p,
            None => {
                planned = plan_select(catalog, stmt, params, !opts.no_reorder)?;
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

/// Records the output-stage actuals for EXPLAIN ANALYZE.
fn note_output(profile: &mut Option<&mut PlanProfile>, sw: &Stopwatch, rows: usize) {
    if let Some(p) = profile.as_deref_mut() {
        p.output = StepActuals {
            rows: rows as u64,
            nanos: sw.elapsed_nanos(),
        };
    }
}

/// Reads the head of an `ORDER BY … LIMIT`: walks the sort column's index
/// in key order, keeping the first `walk.limit` rows that pass visibility
/// and `filter` — already sorted, nothing past the head read. Every entry
/// visited ticks the governor and counts as a row read; the count is
/// returned beside the rows. Gives up (`None`) once `walk.driven` entries
/// have been visited without filling the limit: the planner assumed the
/// survivors were spread evenly through the order, and past that many rows
/// the filter-driven path is the cheaper one.
fn ordered_head<'a>(
    table: &'a Table,
    walk: OrderedWalk<'_>,
    filter: Option<&Expr>,
    params: &[Value],
    vis: &'a Snapshot,
    stats: &mut OpStats,
    gov: &mut Governor,
) -> Result<(Option<Vec<&'a Row>>, u64)> {
    let Some(mut entries) = table.walk_ordered(walk.column, walk.descending, vis, stats) else {
        return Ok((None, 0));
    };
    let mut visited = 0u64;
    let mut head: Vec<&Row> = Vec::new();
    while head.len() < walk.limit {
        let Some(entry) = entries.next() else { break };
        if visited >= walk.driven as u64 {
            return Ok((None, visited));
        }
        gov.tick()?;
        visited += 1;
        stats.rows_read += 1;
        let Some(row) = entry else { continue };
        let keep = match filter {
            Some(f) => f.matches_with(&table.schema, row, params)?,
            None => true,
        };
        if keep {
            head.push(row);
        }
    }
    Ok((Some(head), visited))
}

/// The no-join fast path: streams borrowed rows from the access path through
/// the filter, keeping references until projection decides what to clone.
#[allow(clippy::too_many_arguments)]
fn execute_single_table(
    table: &Table,
    stmt: &SelectStmt,
    filter: Option<&Expr>,
    limit: Option<usize>,
    params: &[Value],
    vis: &Snapshot,
    stats: &mut OpStats,
    gov: &mut Governor,
    force_scan: bool,
    mut profile: Option<&mut PlanProfile>,
) -> Result<QueryResult> {
    let schema = &table.schema;
    let filter = match filter {
        Some(f) => Some(resolve_expr(f, schema)?),
        None => None,
    };

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
            for StoredRowRef { row, .. } in
                access_base_table(table, filter.as_deref(), params, vis, stats, force_scan)
            {
                gov.tick()?;
                let keep = match &filter {
                    Some(f) => f.matches_with(schema, row, params)?,
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
        return Ok(QueryResult {
            columns: table.wildcard_columns(),
            rows,
        });
    }

    // The access step. `ORDER BY <indexed column> LIMIT k` may be costed
    // onto the ordered walk, which returns the survivors already sorted and
    // cut. Everything else — a walk that ran out of budget included — takes
    // the path the filter drives: access path + predicate over borrowed
    // rows, survivors staying borrowed. Every row read is a cancellation
    // point, and `touched` counts them on either path.
    let sw = Stopwatch::start();
    let choice = if force_scan {
        PathChoice::Scan
    } else {
        choose_select_access_ref(table, stmt, filter.as_deref(), limit, params).0
    };
    let (head, mut touched) = match choice {
        PathChoice::Ordered(walk) => {
            ordered_head(table, walk, filter.as_deref(), params, vis, stats, gov)?
        }
        _ => (None, 0),
    };
    let sorted = head.is_some();
    let mut matched = match head {
        Some(head) => head,
        None => {
            let choice = match choice {
                PathChoice::Ordered(_) => choose_access_ref(table, filter.as_deref()).0,
                filter_driven => filter_driven,
            };
            let mut matched: Vec<&Row> = Vec::new();
            for StoredRowRef { row, .. } in
                access_chosen(table, choice, filter.as_deref(), params, vis, stats)
            {
                gov.tick()?;
                touched += 1;
                let keep = match &filter {
                    Some(f) => f.matches_with(schema, row, params)?,
                    None => true,
                };
                if keep {
                    matched.push(row);
                }
            }
            matched
        }
    };
    if let Some(p) = profile.as_deref_mut() {
        let nanos = sw.elapsed_nanos();
        p.base = StepActuals { rows: touched, nanos };
        p.filter = StepActuals {
            rows: matched.len() as u64,
            nanos: 0,
        };
    }

    let sw = Stopwatch::start();
    // Aggregation short-circuits the rest of the pipeline.
    if stmt.has_aggregates() {
        let result = execute_aggregate(stmt, schema, matched.iter().copied(), limit, stats, gov)?;
        note_output(&mut profile, &sw, result.len());
        return Ok(result);
    }

    if !sorted && !stmt.order_by.is_empty() {
        gov.check_now()?;
        sort_rows(stmt, schema, &mut matched, |r| *r)?;
    }
    if let Some(limit) = limit {
        matched.truncate(limit);
    }

    let (columns, projections) = projection_spec(stmt, schema)?;
    let rows = project_rows(
        schema,
        matched.into_iter(),
        columns.len(),
        &projections,
        params,
        gov,
    )?;
    note_output(&mut profile, &sw, rows.len());
    Ok(QueryResult {
        columns: columns.into(),
        rows,
    })
}

/// The join path, driven by the plan: joins run in planned order — hash
/// join or index-nested-loop join on the single join equality, nested loop
/// evaluating the full `ON` otherwise — with single-table WHERE conjuncts
/// pushed down to each input and the full filter re-applied afterwards.
/// Joined rows are owned concatenations; hash build sides are owned maps so
/// a prepared statement can reuse them across executions, while an index
/// loop has no build side at all. Every build, probe, and emitted row is a
/// governance cancellation/budget point, so a pathological cross-product
/// hits its deadline or budget *while* materializing, not after.
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
    // Joins use an owned schema with qualified names to avoid collisions.
    let mut schema = qualified_schema(base);

    // Base access: cost-chosen path plus pushed-down single-table conjuncts.
    let sw = Stopwatch::start();
    let base_pred = match &plan.base_pushdown {
        Some(pd) => Some(resolve_expr(pd, &base.schema)?),
        None => None,
    };
    let mut rows: Vec<Row> = Vec::new();
    for stored in access_planned(base, &plan.base, plan.base_pushdown.as_ref(), params, vis, stats) {
        gov.tick()?;
        let keep = match &base_pred {
            Some(f) => f.matches_with(&base.schema, stored.row, params)?,
            None => true,
        };
        if keep {
            gov.charge_row(|| approx_row_bytes(stored.row))?;
            rows.push(stored.row.clone());
        }
    }
    if let Some(p) = profile.as_deref_mut() {
        p.base = StepActuals {
            rows: rows.len() as u64,
            nanos: sw.elapsed_nanos(),
        };
    }

    for (si, step) in plan.steps.iter().enumerate() {
        let sw = Stopwatch::start();
        let right = get_table(catalog, &step.table)?;
        let right_schema = qualified_schema(right);
        let mut next_cols = schema.columns.clone();
        next_cols.extend(right_schema.columns.iter().cloned());
        let next_schema = Schema::new(schema.name.clone(), next_cols);
        let right_pred = match &step.pushdown {
            Some(pd) => Some(resolve_expr(pd, &right.schema)?),
            None => None,
        };

        match &step.strategy {
            JoinStrategy::Hash { probe, build } => {
                let probe_col = resolve_column(&schema, probe)?;
                let probe_idx = schema.column_index(&probe_col)?;
                let build_col = resolve_column(&right_schema, build)?;
                let build_idx = right_schema.column_index(&build_col)?;

                // Build side: reuse the prepared handle's cached build when
                // it still describes exactly the rows this snapshot sees,
                // else build an owned map (and cache it when the pushdown
                // does not depend on `?` parameters).
                let cached: Option<Arc<CachedBuild>> = builds
                    .as_ref()
                    .and_then(|b| b.get(si).cloned().flatten())
                    .filter(|c| step.cacheable && c.valid_for(right, vis));
                let reused = cached.is_some();
                let built: Arc<CachedBuild> = match cached {
                    Some(c) => c,
                    None => {
                        let mut map: HashMap<Value, Vec<Row>> = HashMap::new();
                        for stored in
                            access_planned(right, &step.access, step.pushdown.as_ref(), params, vis, stats)
                        {
                            gov.tick()?;
                            if let Some(f) = &right_pred {
                                if !f.matches_with(&right.schema, stored.row, params)? {
                                    continue;
                                }
                            }
                            let key = stored.row.get(build_idx);
                            if key.is_null() {
                                continue;
                            }
                            gov.charge_row(|| approx_row_bytes(stored.row))?;
                            map.entry(key.clone()).or_default().push(stored.row.clone());
                        }
                        let built = Arc::new(CachedBuild {
                            table_version: right.version(),
                            snapshot: vis.clone(),
                            map,
                        });
                        if step.cacheable {
                            if let Some(b) = builds.as_deref_mut() {
                                if let Some(slot) = b.get_mut(si) {
                                    *slot = Some(Arc::clone(&built));
                                }
                            }
                        }
                        built
                    }
                };
                if reused {
                    stats.build_reuse_hits += 1;
                }

                let mut joined = Vec::new();
                for left_row in &rows {
                    gov.tick()?;
                    let key = left_row.get(probe_idx);
                    if key.is_null() {
                        continue;
                    }
                    if let Some(matches) = built.map.get(key) {
                        for right_row in matches {
                            gov.tick()?;
                            let out = left_row.concat(right_row);
                            gov.charge_row(|| approx_row_bytes(&out))?;
                            stats.rows_read += 1;
                            joined.push(out);
                        }
                    }
                }
                rows = joined;
            }
            JoinStrategy::IndexLoop { probe, lookup, index } => {
                let probe_col = resolve_column(&schema, probe)?;
                let probe_idx = schema.column_index(&probe_col)?;
                let lookup_col = resolve_column(&right_schema, lookup)?;
                let lookup_idx = right_schema.column_index(&lookup_col)?;
                let lookup_name = &*right.schema.columns[lookup_idx].name;

                let mut joined = Vec::new();
                for left_row in &rows {
                    gov.tick()?;
                    let key = left_row.get(probe_idx);
                    if key.is_null() {
                        continue;
                    }
                    // DDL invalidates cached plans, so a planned index
                    // that is gone means a malformed hand-built plan.
                    let candidates =
                        right.lookup_indexed(lookup_name, key, vis, stats).ok_or_else(|| {
                            Error::internal(format!(
                                "index-loop join: no index {index} on {}.{lookup_name}",
                                step.table
                            ))
                        })?;
                    for stored in candidates {
                        gov.tick()?;
                        // Index entries cover every retained version's key,
                        // so the version this snapshot sees may hold another.
                        if stored.row.get(lookup_idx).sql_eq(key) != Some(true) {
                            continue;
                        }
                        if let Some(f) = &right_pred {
                            if !f.matches_with(&right.schema, stored.row, params)? {
                                continue;
                            }
                        }
                        let out = left_row.concat(stored.row);
                        gov.charge_row(|| approx_row_bytes(&out))?;
                        joined.push(out);
                    }
                }
                rows = joined;
            }
            JoinStrategy::NestedLoop => {
                // Materialize the (pushdown-filtered) right side once, then
                // evaluate the ON predicate over every row pair.
                let mut right_rows: Vec<Row> = Vec::new();
                for stored in
                    access_planned(right, &step.access, step.pushdown.as_ref(), params, vis, stats)
                {
                    gov.tick()?;
                    if let Some(f) = &right_pred {
                        if !f.matches_with(&right.schema, stored.row, params)? {
                            continue;
                        }
                    }
                    gov.charge_row(|| approx_row_bytes(stored.row))?;
                    right_rows.push(stored.row.clone());
                }
                let on = &stmt.joins[step.clause].on;
                let on_rewritten: Cow<'_, Expr> = if on.contains_subquery() {
                    Cow::Owned(rewrite_subqueries(catalog, on, params, vis, stats, gov)?)
                } else {
                    Cow::Borrowed(on)
                };
                let on_resolved = resolve_expr(&on_rewritten, &next_schema)?;
                let mut joined = Vec::new();
                for left_row in &rows {
                    gov.tick()?;
                    for right_row in &right_rows {
                        gov.tick()?;
                        let cand = left_row.concat(right_row);
                        if on_resolved.matches_with(&next_schema, &cand, params)? {
                            gov.charge_row(|| approx_row_bytes(&cand))?;
                            stats.rows_read += 1;
                            joined.push(cand);
                        }
                    }
                }
                rows = joined;
            }
        }

        schema = next_schema;
        if let Some(p) = profile.as_deref_mut() {
            while p.joins.len() <= si {
                p.joins.push(StepActuals::default());
            }
            p.joins[si] = StepActuals {
                rows: rows.len() as u64,
                nanos: sw.elapsed_nanos(),
            };
        }
    }

    // When the planner reordered the joins, restore the syntactic column
    // layout `[base][join 0][join 1]…` so `SELECT *` and positional
    // consumers are oblivious to the execution order.
    if plan.reordered {
        let mut offsets = Vec::with_capacity(plan.steps.len());
        let mut off = base.schema.arity();
        for step in &plan.steps {
            offsets.push(off);
            off += get_table(catalog, &step.table)?.schema.arity();
        }
        let mut perm: Vec<usize> = (0..base.schema.arity()).collect();
        for clause_idx in 0..plan.steps.len() {
            let pos = plan
                .steps
                .iter()
                .position(|s| s.clause == clause_idx)
                .expect("every join clause is planned exactly once");
            let arity = get_table(catalog, &plan.steps[pos].table)?.schema.arity();
            perm.extend(offsets[pos]..offsets[pos] + arity);
        }
        let columns: Vec<Column> = perm.iter().map(|&i| schema.columns[i].clone()).collect();
        schema = Schema::new(schema.name.clone(), columns);
        rows = rows
            .into_iter()
            .map(|r| {
                let mut vals = r.values;
                Row::new(
                    perm.iter()
                        .map(|&i| std::mem::replace(&mut vals[i], Value::Null))
                        .collect(),
                )
            })
            .collect();
    }

    // Residual filter: the full (subquery-rewritten) predicate over the
    // joined schema. Pushed-down conjuncts are re-checked here — harmless
    // for a conjunction, and it keeps pushdown a pure optimization.
    let sw = Stopwatch::start();
    if let Some(filter) = filter {
        let filter = resolve_expr(filter, &schema)?;
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            gov.tick()?;
            if filter.matches_with(&schema, &row, params)? {
                kept.push(row);
            }
        }
        rows = kept;
    }
    if let Some(p) = profile.as_deref_mut() {
        p.filter = StepActuals {
            rows: rows.len() as u64,
            nanos: sw.elapsed_nanos(),
        };
    }

    let sw = Stopwatch::start();
    if stmt.has_aggregates() {
        let result = execute_aggregate(stmt, &schema, rows.iter(), limit, stats, gov)?;
        note_output(&mut profile, &sw, result.len());
        return Ok(result);
    }

    if !stmt.order_by.is_empty() {
        gov.check_now()?;
        sort_rows(stmt, &schema, &mut rows, |r| r)?;
    }
    if let Some(limit) = limit {
        rows.truncate(limit);
    }

    // A bare `SELECT *` moves the joined rows through unchanged.
    if matches!(stmt.items.as_slice(), [SelectItem::Wildcard]) {
        if gov.armed() {
            for row in &rows {
                gov.charge_row(|| approx_row_bytes(row))?;
            }
        }
        note_output(&mut profile, &sw, rows.len());
        return Ok(QueryResult {
            columns: schema.columns.iter().map(|c| c.name.clone()).collect(),
            rows,
        });
    }
    let (columns, projections) = projection_spec(stmt, &schema)?;
    let out_rows = project_rows(&schema, rows.iter(), columns.len(), &projections, params, gov)?;
    note_output(&mut profile, &sw, out_rows.len());
    Ok(QueryResult {
        columns: columns.into(),
        rows: out_rows,
    })
}

/// Returns the ids of the current rows of `table` matched by `filter` (all
/// rows when `filter` is `None`). Shared by UPDATE and DELETE execution,
/// which operate on the latest state: under the table's exclusive lock the
/// only uncommitted versions are the writer's own, so
/// [`Snapshot::latest`] *is* the writer's view.
pub fn matching_row_ids(
    table: &Table,
    filter: Option<&Expr>,
    stats: &mut OpStats,
) -> Result<Vec<RowId>> {
    matching_row_ids_with(
        table,
        filter,
        &[],
        Snapshot::latest(),
        stats,
        &mut Governor::disarmed(),
    )
}

/// As [`matching_row_ids`], resolving `?` placeholders from `params` and row
/// visibility against `vis`. Candidate rows are streamed by reference;
/// nothing is cloned. Each candidate row is a cancellation point.
pub fn matching_row_ids_with(
    table: &Table,
    filter: Option<&Expr>,
    params: &[Value],
    vis: &Snapshot,
    stats: &mut OpStats,
    gov: &mut Governor,
) -> Result<Vec<RowId>> {
    let resolved = match filter {
        Some(f) => Some(resolve_expr(f, &table.schema)?),
        None => None,
    };
    let mut out = Vec::new();
    for stored in access_base_table(table, resolved.as_deref(), params, vis, stats, false) {
        gov.tick()?;
        let keep = match &resolved {
            Some(f) => f.matches_with(&table.schema, stored.row, params)?,
            None => true,
        };
        if keep {
            out.push(stored.id);
        }
    }
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

    fn select(cat: &Catalog, sql: &str) -> QueryResult {
        let Statement::Select(stmt) = parse(sql).unwrap() else {
            panic!("not a select: {sql}");
        };
        execute_select(cat, &stmt, &mut OpStats::default()).unwrap()
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
        let r = execute_select(&cat, &stmt, &mut stats).unwrap();
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
        let r = execute_select(&cat, &stmt, &mut stats).unwrap();
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
        let r = execute_select(&cat, &stmt, &mut stats).unwrap();
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
        let r = execute_select(&cat, &stmt, &mut stats).unwrap();
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
        let r = execute_select(&cat, &stmt, &mut stats).unwrap();
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
        let all = matching_row_ids(jobs, None, &mut stats).unwrap();
        assert_eq!(all.len(), 4);
        let idle = matching_row_ids(
            jobs,
            Some(&Expr::col_eq("state", "idle")),
            &mut stats,
        )
        .unwrap();
        assert_eq!(idle.len(), 2);
        let none = matching_row_ids(
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
        assert!(execute_select(&cat, &stmt, &mut OpStats::default()).is_err());
        let Statement::Select(stmt) = parse("SELECT missing FROM jobs").unwrap() else {
            unreachable!()
        };
        assert!(execute_select(&cat, &stmt, &mut OpStats::default()).is_err());
    }
}
