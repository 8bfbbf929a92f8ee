//! Per-statement execution profiles — a `pg_stat_statements` analogue.
//!
//! A [`StmtProfile`] is owned by the statement-cache entry for its SQL text
//! and shared (via `Arc`) with every [`Prepared`](crate::Prepared) handle for
//! that text, so recording an execution needs no lock and no hash lookup:
//! the handle already points at its profile. The profile table is therefore
//! bounded by the statement-cache LRU — when a cache entry is evicted its
//! profile leaves `rel_statements`, its totals so far folded into that
//! table's one `'(evicted)'` row ([`EvictedTotals`]) so the table's sums
//! keep covering ad-hoc statements that ran once and aged out; a later
//! re-prepare of the same text starts a fresh profile. A `Prepared` handle
//! that outlives the eviction keeps recording into its (now unlisted)
//! profile; those later counts are not lost, just no longer visible, which
//! is the standard trade of an LRU-bounded profile table.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::StmtKind;

/// Lock-free cumulative execution counters for one normalized SQL text.
#[derive(Debug)]
pub struct StmtProfile {
    sql: Arc<str>,
    kind: StmtKind,
    calls: AtomicU64,
    rows: AtomicU64,
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl StmtProfile {
    /// Creates an empty profile for a statement text.
    pub fn new(sql: Arc<str>, kind: StmtKind) -> Self {
        StmtProfile {
            sql,
            kind,
            calls: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            total_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }

    /// The statement text this profile aggregates (as prepared, so bound
    /// parameters are already normalized to `?`).
    pub fn sql(&self) -> &Arc<str> {
        &self.sql
    }

    /// The statement kind (select/insert/update/delete/ddl).
    pub fn kind(&self) -> StmtKind {
        self.kind
    }

    /// Records one execution: relaxed adds for calls/time, a rows add only
    /// when rows were touched, and a `fetch_max` only on a new maximum.
    #[inline]
    pub(crate) fn record(&self, nanos: u64, rows: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        if rows != 0 {
            self.rows.fetch_add(rows, Ordering::Relaxed);
        }
        if nanos > self.max_nanos.load(Ordering::Relaxed) {
            self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        }
    }

    /// Copies the counters into an immutable snapshot.
    pub fn snapshot(&self) -> StmtProfileSnapshot {
        StmtProfileSnapshot {
            sql: Arc::clone(&self.sql),
            kind: self.kind,
            calls: self.calls.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            total_nanos: self.total_nanos.load(Ordering::Relaxed),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one statement's profile.
#[derive(Debug, Clone)]
pub struct StmtProfileSnapshot {
    /// The normalized statement text.
    pub sql: Arc<str>,
    /// The statement kind.
    pub kind: StmtKind,
    /// Executions recorded.
    pub calls: u64,
    /// Rows returned (selects) or affected (writes), cumulative.
    pub rows: u64,
    /// Cumulative execution time in nanoseconds.
    pub total_nanos: u64,
    /// Slowest single execution in nanoseconds.
    pub max_nanos: u64,
}

impl StmtProfileSnapshot {
    /// Mean execution time in nanoseconds, or 0.0 before any call.
    pub fn mean_nanos(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_nanos as f64 / self.calls as f64
        }
    }
}

/// What the profiles evicted from the statement cache had recorded when
/// they left it, summed: the `'(evicted)'` row of `rel_statements`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictedTotals {
    /// Executions recorded by evicted profiles.
    pub calls: u64,
    /// Rows returned or affected by them.
    pub rows: u64,
    /// Their cumulative execution time in nanoseconds.
    pub total_nanos: u64,
    /// The slowest single execution among them, in nanoseconds.
    pub max_nanos: u64,
}

impl EvictedTotals {
    /// Adds a profile that is leaving the cache.
    pub(crate) fn fold(&mut self, evicted: &StmtProfileSnapshot) {
        self.calls += evicted.calls;
        self.rows += evicted.rows;
        self.total_nanos += evicted.total_nanos;
        self.max_nanos = self.max_nanos.max(evicted.max_nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_and_tracks_max() {
        let p = StmtProfile::new(Arc::from("SELECT 1"), StmtKind::Select);
        p.record(100, 1);
        p.record(300, 2);
        p.record(200, 0);
        let s = p.snapshot();
        assert_eq!(&*s.sql, "SELECT 1");
        assert_eq!(s.kind, StmtKind::Select);
        assert_eq!(s.calls, 3);
        assert_eq!(s.rows, 3);
        assert_eq!(s.total_nanos, 600);
        assert_eq!(s.max_nanos, 300);
        assert!((s.mean_nanos() - 200.0).abs() < f64::EPSILON);
    }

    #[test]
    fn concurrent_records_are_exact() {
        let p = Arc::new(StmtProfile::new(Arc::from("q"), StmtKind::Insert));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = Arc::clone(&p);
                s.spawn(move || {
                    for _ in 0..5_000 {
                        p.record(10, 1);
                    }
                });
            }
        });
        let s = p.snapshot();
        assert_eq!(s.calls, 20_000);
        assert_eq!(s.rows, 20_000);
        assert_eq!(s.total_nanos, 200_000);
    }
}
