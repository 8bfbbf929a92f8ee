//! Virtual system tables: the observability state rendered as relational data.
//!
//! Nothing here is stored. When a `SELECT` names a `rel_*` table that no
//! real table shadows, the statement dispatcher synthesizes a throwaway
//! [`Table`] from the current observability state and runs the ordinary
//! select executor against it — filters, projections, joins between system
//! tables, `ORDER BY`, aggregates and `LIMIT` all work unchanged, and the
//! wire protocol needs no new message kinds. Synthesis cost is proportional
//! to the table's size (a few dozen rows), paid only by monitoring queries.
//!
//! All durations are reported in microseconds as `DOUBLE` columns: big
//! enough to never overflow, small enough to read at a glance.

use crate::schema::{Column, Schema};
use crate::table::Table;
use crate::value::{DataType, Value};
use std::sync::Arc;

use super::profile::{EvictedTotals, StmtProfileSnapshot};
use super::ring::{Event, SlowQueryEntry};
use super::{Histograms, OpStats};

/// Rows-per-table ceiling nothing here approaches; inserts into a synthesized
/// table cannot fail on capacity, so builders can `expect` them.
const BUILD_MSG: &str = "system table synthesis cannot fail";

fn nanos_to_us(nanos: u64) -> Value {
    Value::Double(nanos as f64 / 1_000.0)
}

fn int(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn make_table(name: &str, columns: Vec<Column>, rows: Vec<Vec<Value>>) -> Table {
    let mut table = Table::new(Schema::new(name, columns)).expect(BUILD_MSG);
    let mut scratch = OpStats::default();
    for row in rows {
        table
            .insert(row, crate::mvcc::COMMITTED_TXN, &mut scratch)
            .expect(BUILD_MSG);
    }
    table
}

/// `rel_stats(name TEXT, kind TEXT, value INT)` — every engine counter and
/// gauge from [`OpStats`], one row each, in declaration order.
pub(crate) fn stats_table(stats: &OpStats) -> Table {
    let rows = stats
        .fields()
        .into_iter()
        .map(|(name, value)| {
            let kind = if OpStats::is_gauge(name) { "gauge" } else { "counter" };
            vec![
                Value::Text(Arc::from(name)),
                Value::Text(Arc::from(kind)),
                int(value),
            ]
        })
        .collect();
    make_table(
        "rel_stats",
        vec![
            Column::not_null("name", DataType::Text),
            Column::not_null("kind", DataType::Text),
            Column::not_null("value", DataType::Int),
        ],
        rows,
    )
}

/// `rel_histograms(name TEXT, count INT, p50_us, p95_us, p99_us, max_us,
/// mean_us DOUBLE)` — one row per engine latency histogram. Quantile columns
/// are NULL while a histogram is empty.
pub(crate) fn histograms_table(histograms: &Histograms) -> Table {
    let rows = histograms
        .named()
        .into_iter()
        .map(|(name, hist)| {
            let snap = hist.snapshot();
            let quant = |q: f64| match snap.quantile(q) {
                Some(nanos) => nanos_to_us(nanos),
                None => Value::Null,
            };
            vec![
                Value::Text(Arc::from(name)),
                int(snap.count()),
                quant(0.50),
                quant(0.95),
                quant(0.99),
                if snap.count() == 0 { Value::Null } else { nanos_to_us(snap.max_nanos()) },
                match snap.mean_nanos() {
                    Some(mean) => Value::Double(mean / 1_000.0),
                    None => Value::Null,
                },
            ]
        })
        .collect();
    make_table(
        "rel_histograms",
        vec![
            Column::not_null("name", DataType::Text),
            Column::not_null("count", DataType::Int),
            Column::new("p50_us", DataType::Double),
            Column::new("p95_us", DataType::Double),
            Column::new("p99_us", DataType::Double),
            Column::new("max_us", DataType::Double),
            Column::new("mean_us", DataType::Double),
        ],
        rows,
    )
}

/// `rel_table_stats(table_name TEXT, column_name TEXT, row_count INT,
/// distinct_count INT, null_count INT, min_value TEXT, max_value TEXT,
/// analyzed_version INT, stale INT)` — one row per column of every
/// `ANALYZE`d table, in catalog order. `stale` is 1 when the table has been
/// physically modified since collection. Unanalyzed tables have no rows
/// here.
pub(crate) fn table_stats_table<'a>(
    tables: impl Iterator<Item = (&'a str, &'a Table)>,
) -> Table {
    let mut rows = Vec::new();
    for (name, table) in tables {
        let Some(stats) = table.table_stats() else { continue };
        let stale = stats.version != table.version();
        for cs in &stats.columns {
            let render = |v: &Value| match v {
                Value::Null => Value::Null,
                other => Value::Text(Arc::from(other.to_string())),
            };
            rows.push(vec![
                Value::Text(Arc::from(name)),
                Value::Text(Arc::from(cs.name.as_str())),
                int(stats.rows as u64),
                int(cs.distinct as u64),
                int(cs.null_count as u64),
                render(&cs.min),
                render(&cs.max),
                int(stats.version),
                Value::Int(i64::from(stale)),
            ]);
        }
    }
    make_table(
        "rel_table_stats",
        vec![
            Column::not_null("table_name", DataType::Text),
            Column::not_null("column_name", DataType::Text),
            Column::not_null("row_count", DataType::Int),
            Column::not_null("distinct_count", DataType::Int),
            Column::not_null("null_count", DataType::Int),
            Column::new("min_value", DataType::Text),
            Column::new("max_value", DataType::Text),
            Column::not_null("analyzed_version", DataType::Int),
            Column::not_null("stale", DataType::Int),
        ],
        rows,
    )
}

/// `rel_statements(sql TEXT, kind TEXT, calls INT, total_rows INT, total_us,
/// mean_us, max_us DOUBLE)` — one row per live statement-cache entry, plus
/// one `'(evicted)'` row (kind `'evicted'`) summing what the entries the
/// LRU has dropped had recorded, once any has been; slowest cumulative
/// time first. Bounded by the statement-cache LRU.
pub(crate) fn statements_table(profiles: Vec<StmtProfileSnapshot>, evicted: EvictedTotals) -> Table {
    let line = |sql: Arc<str>, kind: &str, calls: u64, rows: u64, total_nanos: u64, max_nanos: u64| {
        let mean_nanos = if calls == 0 { 0.0 } else { total_nanos as f64 / calls as f64 };
        vec![
            Value::Text(sql),
            Value::Text(Arc::from(kind)),
            int(calls),
            int(rows),
            nanos_to_us(total_nanos),
            Value::Double(mean_nanos / 1_000.0),
            nanos_to_us(max_nanos),
        ]
    };
    let mut rows: Vec<Vec<Value>> = profiles
        .into_iter()
        .map(|p| line(p.sql, p.kind.name(), p.calls, p.rows, p.total_nanos, p.max_nanos))
        .collect();
    if evicted.calls > 0 {
        let e = evicted;
        rows.push(line(Arc::from("(evicted)"), "evicted", e.calls, e.rows, e.total_nanos, e.max_nanos));
    }
    // total_us descending, then sql.
    rows.sort_by(|a, b| b[4].total_cmp(&a[4]).then_with(|| a[0].total_cmp(&b[0])));
    make_table(
        "rel_statements",
        vec![
            Column::not_null("sql", DataType::Text),
            Column::not_null("kind", DataType::Text),
            Column::not_null("calls", DataType::Int),
            Column::not_null("total_rows", DataType::Int),
            Column::not_null("total_us", DataType::Double),
            Column::not_null("mean_us", DataType::Double),
            Column::not_null("max_us", DataType::Double),
        ],
        rows,
    )
}

/// `rel_slow_queries(seq INT, sql TEXT, kind TEXT, duration_us DOUBLE,
/// rows INT, lock_wait_us, fsync_us DOUBLE)` — the slow-query
/// ring, oldest first. `sql` is NULL for programmatic (AST) execution.
pub(crate) fn slow_queries_table(entries: Vec<SlowQueryEntry>) -> Table {
    let rows = entries
        .into_iter()
        .map(|e| {
            vec![
                int(e.seq),
                match e.sql {
                    Some(sql) => Value::Text(sql),
                    None => Value::Null,
                },
                Value::Text(Arc::from(e.kind.name())),
                nanos_to_us(e.duration_nanos),
                int(e.rows),
                nanos_to_us(e.lock_wait_nanos),
                nanos_to_us(e.fsync_nanos),
            ]
        })
        .collect();
    make_table(
        "rel_slow_queries",
        vec![
            Column::not_null("seq", DataType::Int),
            Column::new("sql", DataType::Text),
            Column::not_null("kind", DataType::Text),
            Column::not_null("duration_us", DataType::Double),
            Column::not_null("rows", DataType::Int),
            Column::not_null("lock_wait_us", DataType::Double),
            Column::not_null("fsync_us", DataType::Double),
        ],
        rows,
    )
}

/// `rel_events(seq INT, kind TEXT, detail TEXT, duration_us DOUBLE)` — the
/// coarse-span event ring, oldest first.
pub(crate) fn events_table(events: Vec<Event>) -> Table {
    let rows = events
        .into_iter()
        .map(|e| {
            vec![
                int(e.seq),
                Value::Text(Arc::from(e.kind)),
                Value::Text(Arc::from(e.detail)),
                nanos_to_us(e.duration_nanos),
            ]
        })
        .collect();
    make_table(
        "rel_events",
        vec![
            Column::not_null("seq", DataType::Int),
            Column::not_null("kind", DataType::Text),
            Column::not_null("detail", DataType::Text),
            Column::not_null("duration_us", DataType::Double),
        ],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::super::{Observability, StmtKind};
    use super::*;
    use std::sync::Arc;

    #[test]
    fn stats_table_has_one_row_per_field() {
        let stats = OpStats {
            rows_read: 42,
            ..Default::default()
        };
        let table = stats_table(&stats);
        assert_eq!(table.schema.name, "rel_stats");
        let expected = stats.fields().len();
        assert_eq!(table.len(), expected);
    }

    #[test]
    fn histograms_table_renders_quantiles() {
        let obs = Observability::default();
        for _ in 0..10 {
            obs.histograms.statement(StmtKind::Select).record(1_000);
        }
        let table = histograms_table(&obs.histograms);
        assert_eq!(table.len(), StmtKind::COUNT + 5);
    }

    #[test]
    fn statements_table_sorts_by_cumulative_time() {
        let fast = super::super::StmtProfile::new(Arc::from("fast"), StmtKind::Select);
        fast.record(10, 1);
        let slow = super::super::StmtProfile::new(Arc::from("slow"), StmtKind::Select);
        slow.record(10_000, 1);
        let table = statements_table(vec![fast.snapshot(), slow.snapshot()], EvictedTotals::default());
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn empty_rings_make_empty_tables() {
        assert_eq!(slow_queries_table(Vec::new()).len(), 0);
        assert_eq!(events_table(Vec::new()).len(), 0);
    }
}
