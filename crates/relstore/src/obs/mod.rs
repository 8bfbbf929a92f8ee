//! Pay-for-what-you-arm engine observability: the engine's one metrics
//! registry.
//!
//! The paper's thesis is that middleware state belongs in a relational engine
//! *because a relational engine can be inspected with queries*. This module
//! turns that lens on the engine itself. [`Observability`] holds every metric
//! the engine keeps: the operation counters ([`OpStats`], merged once per
//! statement into lock-free atomics), and beside them every statement's
//! latency in a lock-free [log-bucketed histogram](hist::LatencyHistogram).
//! An event that is timed is counted once, by its histogram sample: the
//! `statements_executed`, `wal_fsyncs`, `wal_fsync_nanos`, `lock_wait_nanos`
//! and `checkpoints` counters are read off the histograms' exact counts and
//! sums when a snapshot is taken. Every prepared statement carries a
//! cumulative profile, statements that cross an armed threshold are captured
//! in a [slow-query ring](ring::SlowQueryLog) with a wait breakdown, and
//! coarse engine spans (checkpoints, vacuum sweeps, recovery) land in an
//! [event ring](ring::EventRing). All of it is served back through the normal
//! SELECT path as virtual system tables — `rel_stats`, `rel_histograms`,
//! `rel_statements`, `rel_slow_queries`, `rel_events` — so the embedded API,
//! the wire protocol, and the SQL console monitor the engine with plain SQL
//! and zero new protocol surface.
//!
//! The cost discipline: always-on instrumentation is one stopwatch pair (one
//! vDSO `clock_gettime` per end) plus a handful of relaxed atomic adds per
//! statement (three for its histogram sample, one per counter it touched);
//! everything more expensive — the slow log mutex, event formatting — only
//! runs once a threshold armed by the operator has already been blown. The `obs_overhead` bench in the `bench`
//! crate holds the fully-instrumented prepared point select inside its
//! acceptance band to keep this honest.

pub(crate) mod clock;
pub mod hist;
pub(crate) mod profile;
pub(crate) mod ring;
pub(crate) mod stats;
pub(crate) mod systables;

pub(crate) use clock::Stopwatch;
pub use hist::HistogramSnapshot;
pub(crate) use hist::LatencyHistogram;
pub(crate) use profile::ProfileCounters;
pub(crate) use profile::StmtProfile;
pub use profile::StmtProfileSnapshot;
pub use ring::{Event, EventRing, SlowQueryEntry, SlowQueryLog};
pub use stats::OpStats;
use stats::SharedStats;

use crate::sql::ast::Statement;
use std::sync::Arc;

/// Classification of a statement for per-kind latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmtKind {
    /// `SELECT` (including system-table reads).
    Select = 0,
    /// `INSERT`.
    Insert = 1,
    /// `UPDATE`.
    Update = 2,
    /// `DELETE`.
    Delete = 3,
    /// Schema changes: `CREATE TABLE` / `CREATE INDEX` / `DROP TABLE`.
    Ddl = 4,
}

impl StmtKind {
    /// Number of kinds (and per-kind histograms).
    pub(crate) const COUNT: usize = 5;

    /// Classifies a parsed statement. Transaction control (`BEGIN` /
    /// `COMMIT` / `ROLLBACK`) classifies as DDL for profile bookkeeping but
    /// is never executed through the statement path, so it records nothing.
    pub(crate) fn of(stmt: &Statement) -> StmtKind {
        match stmt {
            // EXPLAIN is a read: even EXPLAIN ANALYZE only executes a SELECT.
            Statement::Select(_) | Statement::Explain { .. } => StmtKind::Select,
            Statement::Insert(_) => StmtKind::Insert,
            Statement::Update(_) => StmtKind::Update,
            Statement::Delete(_) => StmtKind::Delete,
            _ => StmtKind::Ddl,
        }
    }

    /// Lower-case kind name, e.g. `"select"`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            StmtKind::Select => "select",
            StmtKind::Insert => "insert",
            StmtKind::Update => "update",
            StmtKind::Delete => "delete",
            StmtKind::Ddl => "ddl",
        }
    }

    /// Histogram row name in `rel_histograms`, e.g. `"stmt.select"`.
    pub(crate) fn hist_name(self) -> &'static str {
        match self {
            StmtKind::Select => "stmt.select",
            StmtKind::Insert => "stmt.insert",
            StmtKind::Update => "stmt.update",
            StmtKind::Delete => "stmt.delete",
            StmtKind::Ddl => "stmt.ddl",
        }
    }
}

/// The fixed set of engine latency histograms.
#[derive(Debug, Default)]
pub struct Histograms {
    /// Per-statement-kind execution time, indexed by [`StmtKind`].
    pub statements: [LatencyHistogram; StmtKind::COUNT],
    /// Durable-log fsync duration (device sync and checkpoint rotation).
    pub wal_fsync: LatencyHistogram,
    /// Bounded table-lock wait duration (contended acquisitions only).
    pub lock_wait: LatencyHistogram,
    /// Durable commit duration (WAL commit record + sync), recorded only for
    /// transactions that wrote.
    pub commit: LatencyHistogram,
    /// Full checkpoint duration (snapshot + flush + rotate + vacuum).
    pub checkpoint: LatencyHistogram,
    /// Vacuum sweep duration (full sweeps and targeted per-table sweeps).
    pub vacuum: LatencyHistogram,
}

impl Histograms {
    /// The execution-time histogram for one statement kind.
    #[inline]
    pub fn statement(&self, kind: StmtKind) -> &LatencyHistogram {
        &self.statements[kind as usize]
    }

    /// Every histogram with its `rel_histograms` row name.
    pub(crate) fn named(&self) -> Vec<(&'static str, &LatencyHistogram)> {
        let mut out = Vec::with_capacity(StmtKind::COUNT + 5);
        for kind in [
            StmtKind::Select,
            StmtKind::Insert,
            StmtKind::Update,
            StmtKind::Delete,
            StmtKind::Ddl,
        ] {
            out.push((kind.hist_name(), self.statement(kind)));
        }
        out.push(("wal.fsync", &self.wal_fsync));
        out.push(("lock.wait", &self.lock_wait));
        out.push(("txn.commit", &self.commit));
        out.push(("checkpoint", &self.checkpoint));
        out.push(("vacuum", &self.vacuum));
        out
    }

    /// Total samples across the per-statement-kind histograms: the
    /// `statements_executed` counter, which is read off this sum.
    pub fn statement_total(&self) -> u64 {
        self.statements.iter().map(LatencyHistogram::count).sum()
    }
}

/// Where a statement's time went, for the slow-query breakdown. Built from
/// the statement's private [`OpStats`] delta, so it costs nothing to produce
/// (the delta's `lock_wait_nanos` and `wal_fsync_nanos` serve only this; the
/// registry's totals of both are the `lock.wait` / `wal.fsync` sums).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WaitBreakdown {
    /// Nanoseconds blocked on table locks.
    pub lock_wait_nanos: u64,
    /// Nanoseconds inside durable-log fsyncs.
    pub fsync_nanos: u64,
}

impl WaitBreakdown {
    /// The breakdown of a whole statement-local delta.
    pub(crate) fn of(local: &OpStats) -> WaitBreakdown {
        WaitBreakdown {
            lock_wait_nanos: local.lock_wait_nanos,
            fsync_nanos: local.wal_fsync_nanos,
        }
    }

    /// Component-wise `self - earlier`: the waits one batch binding added to
    /// a delta shared by the whole batch.
    pub(crate) fn delta_since(&self, earlier: &WaitBreakdown) -> WaitBreakdown {
        WaitBreakdown {
            lock_wait_nanos: self.lock_wait_nanos.saturating_sub(earlier.lock_wait_nanos),
            fsync_nanos: self.fsync_nanos.saturating_sub(earlier.fsync_nanos),
        }
    }
}

/// The engine's one metrics registry: counters, histograms, slow-query log,
/// event ring. One per [`Database`](crate::Database), handed by `Arc` to the
/// WAL when it opens (for fsync samples) and readable at any time without
/// pausing writers.
#[derive(Debug, Default)]
pub struct Observability {
    /// The operation counters, less the `derived` ones the histograms keep.
    counters: SharedStats,
    /// Latency histograms.
    pub histograms: Histograms,
    /// The slow-query ring (disarmed until a threshold is set).
    pub slow_log: SlowQueryLog,
    /// Coarse engine spans: checkpoints, vacuums, recovery.
    pub events: EventRing,
}

impl Observability {
    /// Merges a statement's (or any other unit of work's) counter delta.
    /// Its `derived` fields are not merged: the histograms count them.
    #[inline]
    pub(crate) fn record(&self, delta: &OpStats) {
        self.counters.record(delta);
    }

    /// The cumulative counters, the `derived` ones read off the histograms:
    /// nine relaxed loads beyond the counters' own.
    pub(crate) fn stats(&self) -> OpStats {
        let h = &self.histograms;
        OpStats {
            statements_executed: h.statement_total(),
            checkpoints: h.checkpoint.count(),
            wal_fsyncs: h.wal_fsync.count(),
            wal_fsync_nanos: h.wal_fsync.sum_nanos(),
            lock_wait_nanos: h.lock_wait.sum_nanos(),
            ..self.counters.snapshot()
        }
    }

    /// Records a finished statement: one histogram sample, the optional
    /// prepared-statement profile and the slow-query check. `local` is the
    /// statement's private counter delta; the `slow_queries` counter is
    /// bumped in it when the statement is captured.
    #[inline]
    pub(crate) fn record_statement(
        &self,
        kind: StmtKind,
        nanos: u64,
        rows: u64,
        profile: Option<&Arc<StmtProfile>>,
        wait: WaitBreakdown,
        local: &mut OpStats,
    ) {
        self.histograms.statement(kind).record(nanos);
        if let Some(profile) = profile {
            profile.record(nanos, rows);
        }
        if self.slow_log.should_capture(nanos) {
            local.slow_queries += 1;
            self.slow_log.capture(SlowQueryEntry {
                seq: 0,
                sql: profile.map(|p| Arc::clone(p.sql())),
                kind,
                duration_nanos: nanos,
                rows,
                lock_wait_nanos: wait.lock_wait_nanos,
                fsync_nanos: wait.fsync_nanos,
            });
        }
    }
}

/// Whether a (lower-cased) table name is served by the observability layer
/// when no real table shadows it. The `rel_` prefix check keeps this to a
/// single cheap comparison for ordinary table names.
#[inline]
pub(crate) fn is_system_table(lower_name: &str) -> bool {
    lower_name.starts_with("rel_")
        && matches!(
            lower_name,
            "rel_stats"
                | "rel_histograms"
                | "rel_statements"
                | "rel_slow_queries"
                | "rel_events"
                | "rel_table_stats"
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statement_kinds_classify_and_name() {
        use crate::sql::parse;
        let select = parse("SELECT * FROM t").unwrap();
        assert_eq!(StmtKind::of(&select), StmtKind::Select);
        let insert = parse("INSERT INTO t VALUES (1)").unwrap();
        assert_eq!(StmtKind::of(&insert), StmtKind::Insert);
        let ddl = parse("DROP TABLE t").unwrap();
        assert_eq!(StmtKind::of(&ddl), StmtKind::Ddl);
        assert_eq!(StmtKind::Select.hist_name(), "stmt.select");
        assert_eq!(StmtKind::Ddl.name(), "ddl");
    }

    #[test]
    fn record_statement_feeds_histogram_profile_and_slow_log() {
        let obs = Observability::default();
        let profile = Arc::new(StmtProfile::new(Arc::from("SELECT 1"), StmtKind::Select));
        let mut local = OpStats::default();

        obs.record_statement(
            StmtKind::Select,
            5_000,
            3,
            Some(&profile),
            WaitBreakdown::default(),
            &mut local,
        );
        assert_eq!(obs.histograms.statement(StmtKind::Select).count(), 1);
        assert_eq!(obs.histograms.statement_total(), 1);
        assert_eq!(profile.snapshot().calls, 1);
        assert_eq!(profile.snapshot().rows, 3);
        assert!(obs.slow_log.entries().is_empty(), "disarmed log captures nothing");
        assert_eq!(local.slow_queries, 0);

        obs.slow_log
            .set_threshold(Some(std::time::Duration::from_nanos(1_000)));
        obs.record_statement(
            StmtKind::Select,
            5_000,
            3,
            Some(&profile),
            WaitBreakdown {
                lock_wait_nanos: 200,
                ..Default::default()
            },
            &mut local,
        );
        let captured = obs.slow_log.entries();
        assert_eq!(captured.len(), 1);
        assert_eq!(captured[0].duration_nanos, 5_000);
        assert_eq!(captured[0].lock_wait_nanos, 200);
        assert_eq!(captured[0].sql.as_deref(), Some("SELECT 1"));
        assert_eq!(local.slow_queries, 1);
    }

    #[test]
    fn system_table_names() {
        for name in [
            "rel_stats",
            "rel_histograms",
            "rel_statements",
            "rel_slow_queries",
            "rel_events",
        ] {
            assert!(is_system_table(name), "{name}");
        }
        assert!(!is_system_table("rel_other"));
        assert!(!is_system_table("jobs"));
        assert!(!is_system_table(""));
    }
}
