//! Query planning: `ANALYZE` statistics, cost-based access-path selection,
//! join ordering with predicate pushdown, and `EXPLAIN` rendering.
//!
//! The planner sits between parse and execution. Given a [`SelectStmt`] and
//! the catalog it produces a [`SelectPlan`]: an access path for the base
//! table, one [`JoinStep`] per join clause in *execution* order (greedy
//! smallest-estimated-build-side first when reordering is enabled), and the
//! single-table predicates pushed down to each input. The executor in
//! [`crate::exec`] runs every SELECT as one pipeline over such a plan: a
//! single table is the plan with no step, and is executed without being
//! planned (its path is chosen per execution; only EXPLAIN builds it a
//! plan). The plan itself never touches rows, so a join's can be cached on
//! a prepared statement and reused until DDL or an `ANALYZE` bumps the
//! database's plan generation.
//!
//! Each join step runs one of three [`JoinStrategy`]s. A non-equi `ON` is a
//! **nested loop** over the full predicate. A single-equality `ON` is a
//! **hash join** (build a map of the right table, probe it with the
//! accumulated left rows) or, when an index covers the right-hand column,
//! an **index-nested-loop join** (probe that index once per left row; no
//! build side). The two are costed in rows touched:
//!
//! ```text
//! hash       = est. build rows + est. left rows
//! index-loop = est. left rows × (1 + right rows ÷ distinct keys of the probed column)
//! ```
//!
//! so the index loop wins when the left side is no larger than the number
//! of distinct keys it probes. Ties go to the index loop: a cached plan
//! outlives the table sizes it was costed on (a prepared statement is
//! planned once, at its first execution), and the index loop's cost does
//! not depend on the size of the right table, whereas a hash plan chosen on
//! a small table degrades linearly as the table grows.
//!
//! A single-table `ORDER BY <indexed column> LIMIT k` has a third access
//! path next to point lookup, range scan and full scan: the **ordered
//! walk** reads that column's index in key order, applies visibility and
//! the filter to each row, and stops at `k` survivors — no sort, and
//! nothing read past the head of the order. It is costed in rows touched
//! against the path the filter alone would drive:
//!
//! ```text
//! filter-driven = driven                 (then sort `driven` rows, keep k)
//! ordered walk  = k × rows ÷ driven      (survivors assumed evenly spread)
//! ```
//!
//! where `driven` is the **exact** length of the index posting list when the
//! filter pins an indexed column to a bound key (one O(log n) probe; no
//! `ANALYZE`), the table size for a scan, and the usual estimate otherwise.
//! Ties stay with the filter-driven path. The even-spread assumption can be
//! wrong — every survivor may sit at the far end of the order — so `driven`
//! is also the walk's budget: after visiting that many rows without
//! filling the limit the executor gives up and runs the filter-driven path,
//! which bounds the damage at about twice the old plan. Only a single sort
//! key qualifies, on an indexed column that cannot hold NULL (NULL keys are
//! not indexed) and is not DOUBLE (a NaN key mis-orders its neighbours).
//!
//! Every table read — a single-table SELECT, each input of a join, the rows
//! an UPDATE or DELETE matches — takes its path from one chooser,
//! `choose_access`, as one [`AccessPath`] that names its column by
//! ordinal, so a path holds no string and the executor's one streamer reads
//! it without resolving a name. Both read the filter already bound over
//! the table read (`BoundExpr::column_keys` walks its conjuncts by
//! ordinal), and the planner attributes each pushed-down conjunct and each
//! equi-join column with the same `resolve_column` that binding uses, so a
//! name means one column however it is spelled. The chooser is also the
//! only code that reads the force-scan knob (`Database::set_force_scan`):
//! under it every table it is asked about is a full scan, so the planned
//! join inputs and EXPLAIN show and run the same scans a forced
//! single-table SELECT does.
//!
//! Estimates come from two sources, both optional: `ANALYZE`-collected
//! [`TableStats`] (exact at collection time, stale afterwards) and live
//! index metadata (`Table::index_stats_on`, never stale but
//! version-inflated). Plans must therefore only ever be a *performance*
//! hint: every access path yields a superset of the matching rows and the
//! executor re-applies the full predicate, so stale stats can cost time but
//! never correctness.

use crate::error::Result;
use crate::exec::{get_table, Catalog, QueryResult};
use crate::mvcc::Snapshot;
use crate::obs::OpStats;
use crate::predicate::{resolve_column, BoundExpr, CmpOp, Expr};
use crate::schema::Schema;
use crate::sql::ast::{AggFunc, OrderKey, SelectItem, SelectStmt, SortOrder};
use crate::table::Table;
use crate::tuple::Row;
use crate::value::{DataType, Value};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;

/// Per-column statistics collected by `ANALYZE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column name (bare, lower-case).
    pub name: String,
    /// Number of distinct non-NULL values at collection time.
    pub distinct: usize,
    /// Number of NULLs at collection time.
    pub null_count: usize,
    /// Smallest non-NULL value, or [`Value::Null`] for an all-NULL column.
    pub min: Value,
    /// Largest non-NULL value, or [`Value::Null`] for an all-NULL column.
    pub max: Value,
}

/// Per-table statistics collected by `ANALYZE`, held by the catalog's
/// [`Table`] and consulted by the cost model. Statistics describe the table
/// at collection time and are *not* maintained by writes; `version` records
/// the table's physical version counter at collection so staleness is
/// observable (`rel_table_stats` reports it).
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Live rows visible to the collecting snapshot.
    pub rows: usize,
    /// `Table::version` at collection time.
    pub version: u64,
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnStats>,
}

/// Scans `table` at the latest committed state and computes fresh
/// [`TableStats`]: exact row count, per-column distinct/NULL counts and
/// min/max. Cost is one full scan plus a hash set per column, which is why
/// statistics are collected on demand (`ANALYZE`) rather than inline with
/// writes.
pub(crate) fn analyze_table(table: &Table) -> TableStats {
    let mut scratch = OpStats::default();
    let arity = table.schema.arity();
    let mut rows = 0usize;
    let mut distinct: Vec<HashSet<Value>> = (0..arity).map(|_| HashSet::new()).collect();
    let mut nulls = vec![0usize; arity];
    let mut mins: Vec<Value> = vec![Value::Null; arity];
    let mut maxs: Vec<Value> = vec![Value::Null; arity];
    let vis = Snapshot::latest();
    for stored in table.scan(vis, &mut scratch) {
        rows += 1;
        for (i, v) in stored.row.values.iter().enumerate() {
            if v.is_null() {
                nulls[i] += 1;
                continue;
            }
            if distinct[i].insert(v.clone()) {
                if mins[i].is_null() || v.total_cmp(&mins[i]) == std::cmp::Ordering::Less {
                    mins[i] = v.clone();
                }
                if maxs[i].is_null() || v.total_cmp(&maxs[i]) == std::cmp::Ordering::Greater {
                    maxs[i] = v.clone();
                }
            }
        }
    }
    let columns = table
        .schema
        .columns
        .iter()
        .enumerate()
        .map(|(i, c)| ColumnStats {
            name: c.name.to_string(),
            distinct: distinct[i].len(),
            null_count: nulls[i],
            min: std::mem::replace(&mut mins[i], Value::Null),
            max: std::mem::replace(&mut maxs[i], Value::Null),
        })
        .collect();
    TableStats {
        rows,
        version: table.version(),
        columns,
    }
}

/// Best available distinct-value estimate for the column at ordinal
/// `column`: `ANALYZE` stats when present (live-accurate at collection
/// time), otherwise the covering index's distinct key count (an upper
/// bound that needs no `ANALYZE`).
fn distinct_estimate(table: &Table, column: usize) -> Option<usize> {
    if let Some(cs) = table.table_stats().and_then(|stats| stats.columns.get(column)) {
        if cs.distinct > 0 {
            return Some(cs.distinct);
        }
    }
    table.index_stats_on(column).map(|(d, _)| d.max(1))
}

/// Whether probing an index with a join key finds exactly the rows SQL `=`
/// would match, for a pair of declared column types. Index key order and
/// `=` are the same comparison on every value except a DOUBLE NaN, which
/// `=` treats as equal to every number while an ordered index cannot find
/// (or, stored as a key, mis-orders its neighbours) — so a DOUBLE column on
/// either side keeps the join off the index.
fn index_probe_is_exact(left: DataType, right: DataType) -> bool {
    left != DataType::Double && right != DataType::Double
}

/// How the executor reads one table. A column is its ordinal in the
/// table's schema, so a path holds no string and is `Copy`; EXPLAIN
/// renders the names from the schema.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPath {
    /// Index point lookup: a top-level conjunct pins `column` with equality.
    Point {
        /// The pinned indexed column.
        column: usize,
        /// Whether the covering index is unique (est. one row).
        unique: bool,
    },
    /// Ordered index range scan: a conjunct bounds `column`.
    Range {
        /// The bounded indexed column.
        column: usize,
    },
    /// Full heap scan.
    Scan,
    /// Ordered index walk: read `column`'s index in key order and stop
    /// after `limit` rows survive visibility and the filter. The output is
    /// already in `ORDER BY` order.
    Ordered {
        /// The `ORDER BY` column, indexed and never NULL.
        column: usize,
        /// `ORDER BY … DESC`.
        descending: bool,
        /// The statement's `LIMIT`, as bound for this execution.
        limit: usize,
        /// Rows the filter-driven path would touch: what the walk was
        /// costed against, and how many rows it may visit before the
        /// executor gives up on it.
        driven: usize,
    },
}

impl AccessPath {
    /// Tie-break among paths of equal estimate: point, then range, then
    /// the rest.
    fn rank(&self) -> u8 {
        match self {
            AccessPath::Point { .. } => 0,
            AccessPath::Range { .. } => 1,
            AccessPath::Scan | AccessPath::Ordered { .. } => 2,
        }
    }
}

/// A chosen access path plus its estimated output cardinality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessPlan {
    /// The path the executor should take.
    pub path: AccessPath,
    /// Estimated rows produced (after the pushed-down predicate).
    pub est_rows: f64,
}

impl AccessPlan {
    /// Human-readable form for EXPLAIN, e.g. `point lookup on jobs.job_id
    /// (unique)`, naming the columns of `schema`, the table read.
    pub(crate) fn describe(&self, schema: &Schema) -> String {
        let table = &schema.name;
        let column = |c: usize| schema.columns.get(c).map_or("?", |c| &*c.name);
        match self.path {
            AccessPath::Point { column: c, unique } => {
                let u = if unique { " (unique)" } else { "" };
                format!("point lookup on {table}.{}{u}", column(c))
            }
            AccessPath::Range { column: c } => format!("range scan on {table}.{}", column(c)),
            AccessPath::Scan => format!("full scan of {table}"),
            AccessPath::Ordered {
                column: c,
                descending,
                limit,
                ..
            } => {
                let dir = if descending { "desc" } else { "asc" };
                format!("ordered walk of {table}.{} ({dir}), stop after {limit}", column(c))
            }
        }
    }
}

/// The `ORDER BY … LIMIT` of a single-table `stmt` an ordered walk could
/// serve: one sort key and a bound `limit`, with no aggregate to fold.
pub(crate) fn walk_order(stmt: &SelectStmt, limit: Option<usize>) -> Option<(&OrderKey, usize)> {
    match (limit, stmt.order_by.as_slice(), stmt.has_aggregates()) {
        (Some(limit), [key], false) => Some((key, limit)),
        _ => None,
    }
}

/// The ordinal of the column of `table` an `ORDER BY` on `name` (as
/// written) can be served from by an index walk: it must resolve to this
/// table, be covered by an index, be unable to hold NULL (NULL keys are not
/// indexed, so those rows would be missing from the walk) and not be DOUBLE
/// (index order around a NaN key is not `ORDER BY` order).
fn walkable_column(table: &Table, name: &str) -> Option<usize> {
    let ord = resolve_column(&[&table.schema], name).ok()?.ord;
    let col = &table.schema.columns[ord];
    let never_null = col.not_null || table.schema.primary_key.as_deref() == Some(&*col.name);
    let indexed = table.indexed_columns().any(|c| c == ord);
    (never_null && col.ty != DataType::Double && indexed).then_some(ord)
}

/// The one access-path chooser, for every table read: a single-table
/// SELECT, each input of a join, and the rows an UPDATE or DELETE matches.
/// `filter` is the filter already bound over `table` alone — the
/// statement's for a single table, the pushed-down conjuncts for a join
/// input — so it names each column by ordinal and no name is matched here.
///
/// With `force_scan` set every table is a full scan — the de-optimized
/// oracle, and the only place that flag is read. Otherwise it estimates
/// the output of every index `filter` can use and picks the cheapest,
/// preferring point over range over scan on ties. A `?` counts as a key,
/// so a join plan chosen before its parameters are bound still picks the
/// lookup its bound keys will drive. Given `order` — the one
/// `ORDER BY` key and the bound `LIMIT` of a single-table, non-aggregate
/// SELECT — it then costs the ordered walk against that filter-driven path
/// (see the module docs for the rule). `params` are read only for that,
/// for the length of the pinned key's posting list: a path chosen with an
/// `order` is never cached, and a join input (no `order`) does not depend
/// on them.
pub(crate) fn choose_access(
    table: &Table,
    filter: Option<&BoundExpr<'_>>,
    order: Option<(&OrderKey, usize)>,
    params: &[Value],
    force_scan: bool,
) -> AccessPlan {
    let rows = table.len() as f64;
    let mut best = AccessPlan {
        path: AccessPath::Scan,
        est_rows: rows,
    };
    if force_scan {
        return best;
    }
    if let Some(filter) = filter {
        for column in table.indexed_columns() {
            let (mut pins, mut ranges) = (false, false);
            filter.column_keys(column, &mut |op, _| {
                pins |= op == CmpOp::Eq;
                ranges |= op != CmpOp::Ne;
            });
            let cand = if pins {
                let unique = table.index_stats_on(column).is_some_and(|(_, unique)| unique);
                let est = if unique {
                    rows.min(1.0)
                } else {
                    let d = distinct_estimate(table, column).unwrap_or(1) as f64;
                    (rows / d).min(rows)
                };
                Some((AccessPath::Point { column, unique }, est))
            } else if ranges {
                Some((AccessPath::Range { column }, rows / 3.0))
            } else {
                None
            };
            if let Some((path, est)) = cand {
                if est < best.est_rows || (est == best.est_rows && path.rank() < best.path.rank()) {
                    best = AccessPlan { path, est_rows: est };
                }
            }
        }
    }
    let Some((key, limit)) = order else { return best };
    let Some(column) = walkable_column(table, &key.column) else {
        return best;
    };
    let driven = match best.path {
        AccessPath::Point { column: pinned, .. } => filter
            .and_then(|f| f.point_key(pinned, params))
            .and_then(|key| table.posting_len(pinned, key)),
        AccessPath::Scan => Some(table.len()),
        _ => None,
    }
    .unwrap_or(best.est_rows.ceil() as usize);
    // `limit × rows ÷ driven < driven`, without the division (an empty
    // posting list must read as "the filter-driven path costs nothing").
    if (limit as f64) * rows < (driven as f64) * (driven as f64) {
        AccessPlan {
            path: AccessPath::Ordered {
                column,
                descending: key.order == SortOrder::Desc,
                limit,
                driven,
            },
            est_rows: best.est_rows.min(limit as f64),
        }
    } else {
        best
    }
}

/// [`choose_access`] for a table of a plan, keyed from its pushed-down
/// conjuncts bound over that table alone. A pushdown that does not bind
/// there is chosen as a scan: the executor binds it again and reports the
/// error.
fn choose_pushed(
    table: &Table,
    pushdown: Option<&Expr>,
    order: Option<(&OrderKey, usize)>,
    params: &[Value],
    force_scan: bool,
) -> AccessPlan {
    match pushdown.map(|p| p.bind(&[&table.schema])).transpose() {
        Ok(bound) => choose_access(table, bound.as_ref(), order, params, force_scan),
        Err(_) => choose_access(table, None, None, params, force_scan),
    }
}

/// How one join step combines the accumulated left rows with its table.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinStrategy {
    /// Equi hash join: build a hash of the right table on `build`, probe
    /// with the accumulated rows' `probe` column.
    Hash {
        /// Column reference (as written) resolved against the accumulated
        /// left schema at execution time.
        probe: String,
        /// Column reference (as written) resolved against the right table.
        build: String,
    },
    /// Index-nested-loop equi join: for each accumulated row, probe the
    /// right table's index on `lookup` with the row's `probe` value. No
    /// build side.
    IndexLoop {
        /// Column reference (as written) resolved against the accumulated
        /// left schema at execution time.
        probe: String,
        /// Column reference (as written) of the indexed right-table column.
        lookup: String,
        /// Name of the probed index (EXPLAIN only).
        index: String,
    },
    /// Nested loop evaluating the full `ON` predicate over each pair of
    /// accumulated tuple and right row — the fallback that makes non-equi
    /// `ON` predicates work.
    NestedLoop,
}

/// One planned join: which clause, which table, how to read it, and how to
/// combine it with the rows accumulated so far.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStep {
    /// Index into `stmt.joins` (the syntactic position of this clause).
    pub clause: usize,
    /// Right-hand table (lower-case).
    pub table: String,
    /// How the right side is read while building.
    pub access: AccessPlan,
    /// Single-table conjuncts of the WHERE clause applied while building
    /// the right side (strictly shrinks the build; the full filter is
    /// re-applied after all joins, so this is a pure optimization).
    pub pushdown: Option<Expr>,
    /// Hash, index-loop or nested-loop.
    pub strategy: JoinStrategy,
    /// Estimated rows after this join.
    pub est_out_rows: f64,
}

/// The full plan for a SELECT: base access + joins in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectPlan {
    /// Base table (lower-case).
    pub base_table: String,
    /// Base table access path.
    pub base: AccessPlan,
    /// Single-table conjuncts applied while reading the base table.
    pub base_pushdown: Option<Expr>,
    /// Joins in execution order (may differ from syntactic order).
    pub steps: Vec<JoinStep>,
    /// True when `steps` is not in syntactic order. `SELECT *` keeps the
    /// syntactic column order regardless: the executor lists the tuple
    /// slots by each step's `clause`, and no value moves.
    pub reordered: bool,
}

impl SelectPlan {
    /// True when the executor folds `stmt`'s aggregates into the build rows
    /// of the last step (the *groupjoin*): the statement has a GROUP BY,
    /// the last step executed is a hash join, and every grouping column
    /// belongs to that step's table — so a joined tuple's group is a
    /// function of its build row alone. `scope` holds the schemas of the
    /// plan's tables in execution order, base first.
    pub(crate) fn folds_into_build(&self, stmt: &SelectStmt, scope: &[&Schema]) -> bool {
        let build_slot = self.steps.len();
        matches!(self.steps.last(), Some(JoinStep { strategy: JoinStrategy::Hash { .. }, .. }))
            && stmt.has_aggregates()
            && !stmt.group_by.is_empty()
            && stmt
                .group_by
                .iter()
                .all(|c| resolve_column(scope, c).is_ok_and(|c| c.slot == build_slot))
    }
}

/// True when `stmt` is `SELECT COUNT(*) FROM t WHERE c = <literal or ?>`
/// (any number of `COUNT(*)` items, nothing else): no join, no GROUP BY and
/// no other conjunct. When its access path is the point lookup on `c`, the
/// executor counts the posting list instead of reading rows.
pub(crate) fn counts_postings(stmt: &SelectStmt) -> bool {
    let key_side = |e: &Expr| matches!(e, Expr::Literal(_) | Expr::Param(_));
    stmt.joins.is_empty()
        && stmt.group_by.is_empty()
        && !stmt.items.is_empty()
        && stmt.items.iter().all(|item| {
            matches!(item, SelectItem::Aggregate { func: AggFunc::Count, column: None, .. })
        })
        && matches!(&stmt.filter, Some(Expr::Cmp(CmpOp::Eq, l, r))
            if matches!(l.as_ref(), Expr::Column(_)) && key_side(r)
                || matches!(r.as_ref(), Expr::Column(_)) && key_side(l))
}

/// Flattens a top-level `AND` tree into its conjuncts.
fn split_conjuncts<'a>(expr: &'a Expr, out: &mut Vec<&'a Expr>) {
    if let Expr::And(l, r) = expr {
        split_conjuncts(l, out);
        split_conjuncts(r, out);
    } else {
        out.push(expr);
    }
}

/// Assigns each WHERE conjunct whose columns all resolve, over `scope` —
/// the FROM tables' schemas, base first, then the join clauses in
/// syntactic order — to one and the same table, and that holds no
/// subquery, to that table's slot, AND-combining per slot. Everything else
/// — a conjunct spanning tables, or one with a name that is ambiguous or
/// unknown — stays in the residual filter the executor applies after the
/// joins, which reports the error with full context.
fn pushdowns(scope: &[&Schema], filter: Option<&Expr>) -> Vec<Option<Expr>> {
    let mut out = vec![None; scope.len()];
    let Some(filter) = filter else { return out };
    let mut conjuncts = Vec::new();
    split_conjuncts(filter, &mut conjuncts);
    for conj in conjuncts {
        if conj.contains_subquery() {
            continue;
        }
        let mut refs = Vec::new();
        conj.referenced_columns(&mut refs);
        let mut slots = refs.iter().map(|c| resolve_column(scope, c).map(|c| c.slot));
        let Some(Ok(slot)) = slots.next() else { continue };
        if slots.all(|s| s.is_ok_and(|s| s == slot)) {
            let pushed: &mut Option<Expr> = &mut out[slot];
            *pushed = Some(match pushed.take() {
                Some(prev) => prev.and(conj.clone()),
                None => conj.clone(),
            });
        }
    }
    out
}

/// Plans a SELECT against the catalog. With `reorder` set, inner equi-joins
/// are placed greedily smallest-estimated-build-side first (classic
/// left-deep greedy ordering); otherwise joins keep their syntactic order
/// (the pre-planner behaviour, kept as an oracle and a bench baseline).
///
/// Join reordering is safe for this engine's join semantics: all joins are
/// inner, so the result set is order-independent — only intermediate sizes
/// change (`SELECT *` lists the tables in syntactic order either way).
///
/// `params` are read for one thing only: costing the ordered walk of a
/// *single-table* `ORDER BY … LIMIT` (the bound limit, the length of the
/// pinned key's posting list), whose plan is never cached. A join plan —
/// which a prepared statement does cache across bindings — does not depend
/// on them. Every table's path comes from `choose_access`, so
/// `force_scan` makes every one of them a full scan.
pub fn plan_select(
    catalog: &Catalog,
    stmt: &SelectStmt,
    params: &[Value],
    reorder: bool,
    force_scan: bool,
) -> Result<SelectPlan> {
    let base = get_table(catalog, &stmt.table)?;
    let base_name = crate::schema::lower_name(&stmt.table).into_owned();
    // The FROM tables, base first, then the join clauses in syntactic
    // order. Pushdown is assigned over all of them: a bare column
    // ambiguous across *any* joined table stays residual, matching the
    // executor's ambiguity errors.
    let mut from = vec![base];
    for j in &stmt.joins {
        from.push(get_table(catalog, &j.table)?);
    }
    let scope: Vec<&Schema> = from.iter().map(|t| &t.schema).collect();
    let mut pushdown = pushdowns(&scope, stmt.filter.as_ref());

    let base_pushdown = pushdown[0].take();
    // A join's rows come out of its last step, not in any index's order.
    let limit = if stmt.joins.is_empty() { stmt.limit_with(params)? } else { None };
    let order = walk_order(stmt, limit);
    let base_access = choose_pushed(base, base_pushdown.as_ref(), order, params, force_scan);
    let mut left_est = base_access.est_rows;

    // The schemas of the tables placed so far, in execution order.
    let mut placed = vec![&base.schema];
    let mut remaining: Vec<usize> = (0..stmt.joins.len()).collect();
    let mut steps: Vec<JoinStep> = Vec::with_capacity(stmt.joins.len());

    while !remaining.is_empty() {
        // Evaluate every remaining clause against the tables placed so far.
        // Only clauses whose ON resolves entirely within the placed tables
        // plus their own are candidates; when none qualifies (forward or
        // unresolvable references), fall back to the first remaining clause
        // in syntactic order and let the executor report the error.
        let mut best: Option<(usize, JoinStep)> = None;
        let evaluate = |pos: usize, ji: usize, require_placeable: bool, best: &mut Option<(usize, JoinStep)>| {
            let clause = &stmt.joins[ji];
            let right = from[1 + ji];
            let mut local = placed.clone();
            local.push(&right.schema);
            let mut refs = Vec::new();
            clause.on.referenced_columns(&mut refs);
            let placeable = refs.iter().all(|c| resolve_column(&local, c).is_ok());
            if require_placeable && !placeable {
                return;
            }

            // A single-equality ON with exactly one side on the new table
            // is an equi join: (left column as written and where it
            // resolves, right column as written and its ordinal).
            let right_slot = placed.len();
            let equi = match clause.equi_columns() {
                Some((a, b)) if placeable => match (resolve_column(&local, a), resolve_column(&local, b)) {
                    (Ok(ca), Ok(cb)) if ca.slot == right_slot && cb.slot != right_slot => {
                        Some((b, cb, a, ca.ord))
                    }
                    (Ok(ca), Ok(cb)) if cb.slot == right_slot && ca.slot != right_slot => {
                        Some((a, ca, b, cb.ord))
                    }
                    _ => None,
                },
                _ => None,
            };

            let pd = pushdown[1 + ji].clone();
            let access = choose_pushed(right, pd.as_ref(), None, params, force_scan);
            let (strategy, est_out) = match equi {
                None => (JoinStrategy::NestedLoop, left_est * access.est_rows),
                Some((probe, probe_col, right_col, right_ord)) => {
                    let distinct = distinct_estimate(right, right_ord)
                        .unwrap_or(access.est_rows as usize)
                        .max(1) as f64;
                    let est_out = (left_est * access.est_rows / distinct).max(0.0);
                    // Both costs in rows touched; see the module docs for
                    // why a tie goes to the index loop.
                    let hash_cost = access.est_rows + left_est;
                    let loop_cost = left_est * (1.0 + right.len() as f64 / distinct);
                    let index = right.index_name_on(right_ord).filter(|_| {
                        loop_cost <= hash_cost
                            && index_probe_is_exact(
                                local[probe_col.slot].columns[probe_col.ord].ty,
                                right.schema.columns[right_ord].ty,
                            )
                    });
                    let strategy = match index {
                        Some(index) => JoinStrategy::IndexLoop {
                            probe: probe.to_string(),
                            lookup: right_col.to_string(),
                            index: index.to_string(),
                        },
                        None => JoinStrategy::Hash {
                            probe: probe.to_string(),
                            build: right_col.to_string(),
                        },
                    };
                    (strategy, est_out)
                }
            };
            let step = JoinStep {
                clause: ji,
                table: crate::schema::lower_name(&clause.table).into_owned(),
                access,
                pushdown: pd,
                strategy,
                est_out_rows: est_out,
            };
            let better = match best {
                None => true,
                Some((_, ref b)) => step.access.est_rows < b.access.est_rows,
            };
            if better {
                *best = Some((pos, step));
            }
        };
        if reorder {
            for (pos, &ji) in remaining.iter().enumerate() {
                evaluate(pos, ji, true, &mut best);
            }
            if best.is_none() {
                evaluate(0, remaining[0], false, &mut best);
            }
        } else {
            evaluate(0, remaining[0], false, &mut best);
        }
        let (pos, step) = best.expect("fallback evaluation always yields a step");
        remaining.remove(pos);
        placed.push(&from[1 + step.clause].schema);
        left_est = step.est_out_rows;
        steps.push(step);
    }

    let reordered = steps
        .iter()
        .enumerate()
        .any(|(i, s)| s.clause != i);
    Ok(SelectPlan {
        base_table: base_name,
        base: base_access,
        base_pushdown,
        steps,
        reordered,
    })
}

/// Actual row count and wall time of one plan operator, filled in by the
/// executor for `EXPLAIN ANALYZE`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepActuals {
    /// Rows the operator produced.
    pub rows: u64,
    /// Wall time spent in the operator, in nanoseconds.
    pub nanos: u64,
}

/// Per-operator actuals for a whole plan, parallel to the EXPLAIN rows:
/// base access, one entry per join step (execution order), residual filter,
/// output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanProfile {
    /// Base-table access. For an ordered walk `rows` counts the rows
    /// *visited* (the walk stops early, so this is its whole cost).
    pub base: StepActuals,
    /// One entry per join step, in execution order.
    pub joins: Vec<StepActuals>,
    /// Residual filter evaluation (zero when there is no filter).
    pub filter: StepActuals,
    /// Sort/limit/projection.
    pub output: StepActuals,
}

/// Renders a plan as rows through the normal query path. Columns are
/// `[step, operator, detail, est_rows]`, plus `[actual_rows, time_us]` when
/// `actuals` is present (`EXPLAIN ANALYZE`). Serving plans as a
/// [`QueryResult`] means EXPLAIN is transport-agnostic for free: the wire
/// protocol ships it like any other result set. `limit` is the statement's
/// `LIMIT` as bound for this execution (`LIMIT ?` has no count of its own).
/// `catalog` is the one the plan was made against; it names the columns
/// of each access path and resolves the grouping columns that decide
/// whether the last hash join folds the aggregates.
///
/// # Panics
///
/// If the plan names a table `catalog` does not hold.
pub fn explain_result(
    catalog: &Catalog,
    plan: &SelectPlan,
    stmt: &SelectStmt,
    limit: Option<usize>,
    actuals: Option<&PlanProfile>,
) -> QueryResult {
    let mut names: Vec<Arc<str>> = vec![
        Arc::from("step"),
        Arc::from("operator"),
        Arc::from("detail"),
        Arc::from("est_rows"),
    ];
    if actuals.is_some() {
        names.push(Arc::from("actual_rows"));
        names.push(Arc::from("time_us"));
    }
    let mut rows: Vec<Row> = Vec::new();
    let push = |rows: &mut Vec<Row>, op: String, detail: String, est: f64, act: Option<StepActuals>| {
        let step = rows.len() as i64 + 1;
        let mut values = vec![
            Value::Int(step),
            Value::Text(op.into()),
            Value::Text(detail.into()),
            Value::Int(est.round() as i64),
        ];
        if actuals.is_some() {
            let act = act.unwrap_or_default();
            values.push(Value::Int(act.rows as i64));
            values.push(Value::Double(act.nanos as f64 / 1_000.0));
        }
        rows.push(Row::new(values));
    };

    let schema = |table: &str| {
        &catalog
            .get(table)
            .expect("a plan names tables of the catalog it was made against")
            .schema
    };
    let mut detail = plan.base.describe(schema(&plan.base_table));
    if let Some(pd) = &plan.base_pushdown {
        detail.push_str(&format!(", pushdown {pd}"));
    }
    if counts_postings(stmt) && matches!(plan.base.path, AccessPath::Point { .. }) {
        detail.push_str(", index-only count");
    }
    push(
        &mut rows,
        format!("Access({})", plan.base_table),
        detail,
        plan.base.est_rows,
        actuals.map(|a| a.base),
    );

    let scope: Vec<&Schema> = std::iter::once(&plan.base_table)
        .chain(plan.steps.iter().map(|s| &s.table))
        .map(|t| schema(t))
        .collect();
    let folds = plan.folds_into_build(stmt, &scope);
    let mut last_est = plan.base.est_rows;
    for (i, step) in plan.steps.iter().enumerate() {
        let (op, mut detail) = match &step.strategy {
            JoinStrategy::Hash { probe, build } => (
                format!("HashJoin({})", step.table),
                format!(
                    "build {} on {build} via {}, probe {probe}",
                    step.table,
                    step.access.describe(schema(&step.table))
                ),
            ),
            JoinStrategy::IndexLoop { probe, lookup, index } => (
                format!("IndexLoopJoin({})", step.table),
                format!("probe index {index} on {lookup} with {probe}"),
            ),
            JoinStrategy::NestedLoop => (
                format!("NestedLoopJoin({})", step.table),
                format!(
                    "on {} via {}",
                    stmt.joins[step.clause].on,
                    step.access.describe(schema(&step.table))
                ),
            ),
        };
        if let Some(pd) = &step.pushdown {
            detail.push_str(&format!(", pushdown {pd}"));
        }
        if folds && i + 1 == plan.steps.len() {
            detail.push_str(", fold GROUP BY into build rows");
        }
        push(
            &mut rows,
            op,
            detail,
            step.est_out_rows,
            actuals.map(|a| a.joins.get(i).copied().unwrap_or_default()),
        );
        last_est = step.est_out_rows;
    }

    if let Some(filter) = &stmt.filter {
        push(
            &mut rows,
            "Filter".to_string(),
            filter.to_string(),
            last_est,
            actuals.map(|a| a.filter),
        );
    }

    let mut out_detail = if stmt.has_aggregates() {
        "aggregate".to_string()
    } else if matches!(stmt.items.as_slice(), [SelectItem::Wildcard]) {
        "project *".to_string()
    } else {
        format!("project {} columns", stmt.items.len())
    };
    // An ordered walk hands its rows over already in ORDER BY order.
    if !stmt.order_by.is_empty() && !matches!(plan.base.path, AccessPath::Ordered { .. }) {
        out_detail.push_str(", sort");
    }
    let est_out = match limit {
        Some(l) => last_est.min(l as f64),
        None => last_est,
    };
    if let Some(l) = limit {
        out_detail.push_str(&format!(", limit {l}"));
    }
    push(
        &mut rows,
        "Output".to_string(),
        out_detail,
        est_out,
        actuals.map(|a| a.output),
    );

    QueryResult {
        columns: names.into(),
        rows,
    }
}

/// The cached plan state of one prepared statement: the plan, invalidated
/// when `gen` falls behind the database's plan generation (bumped by DDL
/// and `ANALYZE`).
#[derive(Debug, Default)]
pub(crate) struct PlanSlot {
    /// Database plan generation this slot was filled under.
    pub gen: u64,
    /// The cached plan, if planned already.
    pub plan: Option<Arc<SelectPlan>>,
}

/// Shareable plan-cache cell attached to a prepared statement.
pub(crate) type PlanCell = Mutex<PlanSlot>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvcc::COMMITTED_TXN;

    impl TableStats {
        /// Statistics for `column` (bare lower-case name), if collected.
        fn column(&self, column: &str) -> Option<&ColumnStats> {
            let lc = crate::schema::lower_name(column);
            self.columns.iter().find(|c| c.name == lc.as_ref())
        }
    }
    use crate::schema::{Column, Schema};
    use crate::sql::ast::Statement;
    use crate::sql::parser::parse;

    fn table(schema: Schema, rows: Vec<Vec<Value>>) -> Table {
        let mut t = Table::new(schema).unwrap();
        let mut stats = OpStats::default();
        for row in rows {
            t.insert(row, COMMITTED_TXN, &mut stats).unwrap();
        }
        t
    }

    /// Ordinals of `jobs`' `job_id` and `state` columns.
    const JOB_ID: usize = 0;
    const STATE: usize = 2;

    /// jobs: 100 rows; matches: 100 rows; machines: 4 rows.
    fn catalog() -> Catalog {
        let jobs = table(
            Schema::new(
                "jobs",
                vec![
                    Column::not_null("job_id", DataType::Int),
                    Column::new("owner", DataType::Text),
                    Column::new("state", DataType::Text),
                ],
            )
            .with_primary_key("job_id")
            .with_index("state"),
            (0..100)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Text(format!("owner{}", i % 10).into()),
                        Value::Text(if i % 2 == 0 { "idle" } else { "running" }.into()),
                    ]
                })
                .collect(),
        );
        let matches = table(
            Schema::new(
                "matches",
                vec![
                    Column::not_null("job_id", DataType::Int),
                    Column::not_null("machine_id", DataType::Int),
                ],
            )
            .with_index("job_id"),
            (0..100)
                .map(|i| vec![Value::Int(i), Value::Int(i % 4)])
                .collect(),
        );
        let machines = table(
            Schema::new(
                "machines",
                vec![
                    Column::not_null("machine_id", DataType::Int),
                    Column::new("arch", DataType::Text),
                ],
            )
            .with_primary_key("machine_id"),
            (0..4)
                .map(|i| vec![Value::Int(i), Value::Text("x86".into())])
                .collect(),
        );
        let mut cat = Catalog::new();
        cat.insert("jobs".into(), jobs);
        cat.insert("matches".into(), matches);
        cat.insert("machines".into(), machines);
        cat
    }

    fn select_stmt(sql: &str) -> SelectStmt {
        match parse(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("not a select: {other:?}"),
        }
    }

    #[test]
    fn analyze_collects_exact_stats() {
        let cat = catalog();
        let stats = analyze_table(cat.get("jobs").unwrap());
        assert_eq!(stats.rows, 100);
        let owner = stats.column("owner").unwrap();
        assert_eq!(owner.distinct, 10);
        assert_eq!(owner.null_count, 0);
        let job_id = stats.column("job_id").unwrap();
        assert_eq!(job_id.distinct, 100);
        assert_eq!(job_id.min, Value::Int(0));
        assert_eq!(job_id.max, Value::Int(99));
        assert_eq!(stats.column("nope"), None);
    }

    #[test]
    fn analyze_counts_nulls_and_handles_empty_tables() {
        let t = table(
            Schema::new("t", vec![Column::new("a", DataType::Int)]),
            vec![vec![Value::Null], vec![Value::Int(1)], vec![Value::Null]],
        );
        let stats = analyze_table(&t);
        assert_eq!(stats.rows, 3);
        let a = stats.column("a").unwrap();
        assert_eq!(a.null_count, 2);
        assert_eq!(a.distinct, 1);
        assert_eq!(a.min, Value::Int(1));

        let empty = table(Schema::new("e", vec![Column::new("a", DataType::Int)]), vec![]);
        let stats = analyze_table(&empty);
        assert_eq!(stats.rows, 0);
        assert_eq!(stats.column("a").unwrap().min, Value::Null);
    }

    /// `choose_access` for `sql`'s filter, bound over `table`, with no
    /// `ORDER BY` to walk.
    fn filter_access(table: &Table, sql: &str) -> AccessPlan {
        let stmt = select_stmt(sql);
        let filter = stmt.filter.as_ref().map(|f| f.bind(&[&table.schema]).unwrap());
        choose_access(table, filter.as_ref(), None, &[], false)
    }

    #[test]
    fn choose_access_prefers_unique_point_over_scan() {
        let cat = catalog();
        let jobs = cat.get("jobs").unwrap();
        let plan = filter_access(jobs, "SELECT * FROM jobs WHERE job_id = 7");
        assert_eq!(
            plan.path,
            AccessPath::Point {
                column: JOB_ID,
                unique: true
            }
        );
        assert_eq!(plan.est_rows, 1.0);
    }

    #[test]
    fn choose_access_prefers_more_selective_index() {
        let cat = catalog();
        let jobs = cat.get("jobs").unwrap();
        // Both state (2 distinct) and job_id (unique) are pinned: the unique
        // index wins regardless of index declaration order.
        let plan = filter_access(jobs, "SELECT * FROM jobs WHERE state = 'idle' AND job_id = 3");
        assert!(matches!(plan.path, AccessPath::Point { column: JOB_ID, .. }));
        // Range beats scan, loses to point.
        let plan = filter_access(jobs, "SELECT * FROM jobs WHERE job_id > 50");
        assert!(matches!(plan.path, AccessPath::Range { column: JOB_ID }));
        // Unindexed predicate: full scan.
        let plan = filter_access(jobs, "SELECT * FROM jobs WHERE owner = 'owner1'");
        assert_eq!(plan.path, AccessPath::Scan);
        assert_eq!(plan.est_rows, 100.0);
    }

    /// `choose_access` for a single-table statement, as the executor calls
    /// it.
    fn select_access(table: &Table, sql: &str, params: &[Value]) -> AccessPath {
        let stmt = select_stmt(sql);
        let limit = stmt.limit_with(params).unwrap();
        let filter = stmt.filter.as_ref().map(|f| f.bind(&[&table.schema]).unwrap());
        choose_access(table, filter.as_ref(), walk_order(&stmt, limit), params, false).path
    }

    #[test]
    fn ordered_walk_is_costed_against_the_filter_driven_path() {
        let cat = catalog();
        let jobs = cat.get("jobs").unwrap();
        let walk = |limit, driven, descending| AccessPath::Ordered {
            column: JOB_ID,
            descending,
            limit,
            driven,
        };
        // 50 of 100 rows are idle (the exact posting list, no ANALYZE):
        // 5 x 100 / 50 = 10 rows walked against 50 fetched and sorted.
        let idle = "SELECT job_id FROM jobs WHERE state = 'idle' ORDER BY job_id";
        assert_eq!(select_access(jobs, &format!("{idle} LIMIT 5"), &[]), walk(5, 50, false));
        assert_eq!(
            select_access(jobs, &format!("{idle} DESC LIMIT ?"), &[Value::Int(5)]),
            walk(5, 50, true)
        );
        // At 25 the two cost the same and the tie stays with the lookup;
        // past it the lookup is cheaper outright.
        for limit in [25, 26, 1_000] {
            assert_eq!(
                select_access(jobs, &format!("{idle} LIMIT {limit}"), &[]),
                AccessPath::Point { column: STATE, unique: false },
                "limit {limit}"
            );
        }
        // No filter: the old plan scans and sorts all 100 rows.
        assert_eq!(
            select_access(jobs, "SELECT * FROM jobs ORDER BY jobs.job_id LIMIT 3", &[]),
            walk(3, 100, false)
        );
        // A key nobody holds: the lookup touches nothing, nothing beats it.
        assert_eq!(
            select_access(jobs, "SELECT * FROM jobs WHERE state = ? ORDER BY job_id LIMIT 1", &[
                Value::Text("gone".into())
            ]),
            AccessPath::Point { column: STATE, unique: false }
        );
        // What cannot be walked: no LIMIT, a nullable or unindexed sort
        // column, two sort keys, an aggregate.
        for sql in [
            "SELECT * FROM jobs ORDER BY job_id",
            "SELECT * FROM jobs ORDER BY state LIMIT 1",
            "SELECT * FROM jobs ORDER BY owner LIMIT 1",
            "SELECT * FROM jobs ORDER BY job_id, state LIMIT 1",
            "SELECT COUNT(*) FROM jobs ORDER BY job_id LIMIT 1",
            "SELECT job_id, COUNT(*) FROM jobs GROUP BY job_id ORDER BY job_id LIMIT 1",
        ] {
            assert_eq!(select_access(jobs, sql, &[]), AccessPath::Scan, "{sql}");
        }
    }

    /// The CAS statement behind every idle heartbeat must stay a lookup: an
    /// ordered walk here would read all of `matches` to find one machine's
    /// match.
    #[test]
    fn match_for_machine_keeps_its_point_lookup() {
        let matches = table(
            Schema::new(
                "matches",
                vec![
                    Column::not_null("match_id", DataType::Int),
                    Column::not_null("job_id", DataType::Int),
                    Column::not_null("machine_id", DataType::Int),
                ],
            )
            .with_primary_key("match_id")
            .with_index("machine_id"),
            (0..100)
                .map(|i| vec![Value::Int(i), Value::Int(i), Value::Int(i % 50)])
                .collect(),
        );
        let sql = "SELECT job_id FROM matches WHERE machine_id = ? ORDER BY match_id LIMIT 1";
        // Two of 100 rows per machine: 1 x 100 / 2 walked against 2 fetched.
        assert_eq!(
            select_access(&matches, sql, &[Value::Int(7)]),
            AccessPath::Point { column: 2, unique: false }
        );
        // The same statement with nothing to narrow it is the walk's case.
        assert!(matches!(
            select_access(&matches, "SELECT job_id FROM matches ORDER BY match_id LIMIT 1", &[]),
            AccessPath::Ordered { .. }
        ));
    }

    #[test]
    fn double_sort_columns_are_never_walked() {
        let t = table(
            Schema::new("loads", vec![Column::not_null("load", DataType::Double)]).with_index("load"),
            (0..10).map(|i| vec![Value::Double(i as f64)]).collect(),
        );
        assert_eq!(
            select_access(&t, "SELECT * FROM loads ORDER BY load LIMIT 1", &[]),
            AccessPath::Scan
        );
    }

    #[test]
    fn planner_orders_smallest_build_side_first() {
        let cat = catalog();
        // Syntactically matches (100 rows) joins before machines (4 rows);
        // the planner flips them.
        let stmt = select_stmt(
            "SELECT * FROM jobs \
             JOIN matches ON jobs.job_id = matches.job_id \
             JOIN machines ON matches.machine_id = machines.machine_id",
        );
        let plan = plan_select(&cat, &stmt, &[], true, false).unwrap();
        assert_eq!(plan.steps.len(), 2);
        // machines cannot be placed first (its ON references matches), so
        // ordering only kicks in when both are placeable — here the join
        // graph forces matches first. Use a star-shaped query instead:
        let stmt = select_stmt(
            "SELECT * FROM matches \
             JOIN jobs ON matches.job_id = jobs.job_id \
             JOIN machines ON matches.machine_id = machines.machine_id",
        );
        let plan = plan_select(&cat, &stmt, &[], true, false).unwrap();
        assert_eq!(plan.steps[0].table, "machines", "smallest build side first");
        assert_eq!(plan.steps[1].table, "jobs");
        assert!(plan.reordered);
        // Without reordering the syntactic order is kept.
        let plan = plan_select(&cat, &stmt, &[], false, false).unwrap();
        assert_eq!(plan.steps[0].table, "jobs");
        assert!(!plan.reordered);
    }

    #[test]
    fn pushdown_shrinks_build_estimates() {
        let cat = catalog();
        let stmt = select_stmt(
            "SELECT * FROM matches JOIN jobs ON matches.job_id = jobs.job_id \
             WHERE jobs.job_id = 3 AND matches.machine_id > 1",
        );
        let plan = plan_select(&cat, &stmt, &[], true, false).unwrap();
        assert!(plan.base_pushdown.is_some(), "matches conjunct pushed to base");
        let step = &plan.steps[0];
        assert_eq!(step.table, "jobs");
        assert!(step.pushdown.is_some());
        assert!(
            matches!(step.access.path, AccessPath::Point { .. }),
            "pushed equality turns the build into a point lookup"
        );
    }

    #[test]
    fn non_equi_on_plans_nested_loop() {
        let cat = catalog();
        let stmt = select_stmt(
            "SELECT * FROM jobs JOIN matches ON jobs.job_id < matches.job_id",
        );
        let plan = plan_select(&cat, &stmt, &[], true, false).unwrap();
        assert_eq!(plan.steps[0].strategy, JoinStrategy::NestedLoop);
        // Compound ON predicates also fall back to nested loop.
        let stmt = select_stmt(
            "SELECT * FROM jobs JOIN matches \
             ON jobs.job_id = matches.job_id AND matches.machine_id > 1",
        );
        let plan = plan_select(&cat, &stmt, &[], true, false).unwrap();
        assert_eq!(plan.steps[0].strategy, JoinStrategy::NestedLoop);
    }

    #[test]
    fn equi_join_is_costed_between_index_loop_and_hash() {
        let cat = catalog();
        // One left row against an indexed column: probe the index.
        let stmt = select_stmt(
            "SELECT * FROM jobs JOIN matches ON jobs.job_id = matches.job_id \
             WHERE jobs.job_id = 3",
        );
        let plan = plan_select(&cat, &stmt, &[], true, false).unwrap();
        assert_eq!(
            plan.steps[0].strategy,
            JoinStrategy::IndexLoop {
                probe: "jobs.job_id".into(),
                lookup: "matches.job_id".into(),
                index: "idx_matches_job_id".into(),
            }
        );

        // A hundred left rows against four machines: 100 x (1 + 4/4) probes
        // lose to building four rows and probing the map 100 times.
        let stmt = select_stmt(
            "SELECT * FROM matches JOIN machines ON matches.machine_id = machines.machine_id",
        );
        let plan = plan_select(&cat, &stmt, &[], true, false).unwrap();
        assert!(matches!(plan.steps[0].strategy, JoinStrategy::Hash { .. }));

        // No index on the right-hand column: nothing to probe.
        let stmt = select_stmt(
            "SELECT * FROM machines JOIN jobs ON machines.arch = jobs.owner \
             WHERE machines.machine_id = 1",
        );
        let plan = plan_select(&cat, &stmt, &[], true, false).unwrap();
        assert!(matches!(plan.steps[0].strategy, JoinStrategy::Hash { .. }));
    }

    #[test]
    fn explain_renders_operators_and_estimates() {
        let cat = catalog();
        let stmt = select_stmt(
            "SELECT jobs.owner FROM matches \
             JOIN jobs ON matches.job_id = jobs.job_id \
             JOIN machines ON matches.machine_id = machines.machine_id \
             WHERE machines.arch = 'x86' ORDER BY jobs.owner LIMIT 5",
        );
        let plan = plan_select(&cat, &stmt, &[], true, false).unwrap();
        let r = explain_result(&cat, &plan, &stmt, Some(5), None);
        assert_eq!(r.column_names(), vec!["step", "operator", "detail", "est_rows"]);
        let ops: Vec<String> = r
            .rows
            .iter()
            .map(|row| row.get(1).to_string())
            .collect();
        assert!(ops[0].contains("Access(matches)"), "{ops:?}");
        assert!(ops.iter().any(|o| o.contains("HashJoin(machines)")));
        assert!(ops.last().unwrap().contains("Output"));
        assert_eq!(
            r.rows.last().unwrap().get(2).to_string(),
            "'project 1 columns, sort, limit 5'"
        );
        // EXPLAIN ANALYZE adds actual columns.
        let r = explain_result(&cat, &plan, &stmt, Some(5), Some(&PlanProfile::default()));
        assert_eq!(
            r.column_names(),
            vec!["step", "operator", "detail", "est_rows", "actual_rows", "time_us"]
        );
    }

    #[test]
    fn unknown_table_errors_at_plan_time() {
        let cat = catalog();
        let stmt = select_stmt("SELECT * FROM nope");
        assert!(plan_select(&cat, &stmt, &[], true, false).is_err());
    }
}
