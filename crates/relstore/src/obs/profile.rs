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
//! that outlives the eviction — every long-held handle does, once enough
//! ad-hoc texts have run — records into the `'(evicted)'` row from then on,
//! so that row and the table's sums keep covering it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use super::StmtKind;

/// Lock-free cumulative execution counters: what one `rel_statements` row
/// counts.
#[derive(Debug, Default)]
pub(crate) struct ProfileCounters {
    calls: AtomicU64,
    rows: AtomicU64,
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl ProfileCounters {
    /// Records one execution: relaxed adds for calls/time, a rows add only
    /// when rows were touched, and a `fetch_max` only on a new maximum.
    #[inline]
    fn record(&self, nanos: u64, rows: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        if rows != 0 {
            self.rows.fetch_add(rows, Ordering::Relaxed);
        }
        if nanos > self.max_nanos.load(Ordering::Relaxed) {
            self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        }
    }

    /// Copies the counters out.
    pub(crate) fn totals(&self) -> EvictedTotals {
        EvictedTotals {
            calls: self.calls.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            total_nanos: self.total_nanos.load(Ordering::Relaxed),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Lock-free cumulative execution counters for one normalized SQL text.
#[derive(Debug)]
pub(crate) struct StmtProfile {
    sql: Arc<str>,
    kind: StmtKind,
    counters: ProfileCounters,
    /// Set when the statement cache drops this profile: the `'(evicted)'`
    /// counters, which take every later sample.
    evicted_into: OnceLock<Arc<ProfileCounters>>,
}

impl StmtProfile {
    /// Creates an empty profile for a statement text.
    pub(crate) fn new(sql: Arc<str>, kind: StmtKind) -> Self {
        StmtProfile {
            sql,
            kind,
            counters: ProfileCounters::default(),
            evicted_into: OnceLock::new(),
        }
    }

    /// The statement text this profile aggregates (as prepared, so bound
    /// parameters are already normalized to `?`).
    pub(crate) fn sql(&self) -> &Arc<str> {
        &self.sql
    }

    /// Records one execution — into this profile, or into the `'(evicted)'`
    /// counters once the statement cache has dropped it.
    #[inline]
    pub(crate) fn record(&self, nanos: u64, rows: u64) {
        match self.evicted_into.get() {
            None => self.counters.record(nanos, rows),
            Some(evicted) => evicted.record(nanos, rows),
        }
    }

    /// The statement cache is dropping this profile: moves what it recorded
    /// into `evicted` and sends every later sample of a handle that outlives
    /// the cache entry there too. (A sample recorded by another thread at
    /// this very instant may stay behind in the unlisted profile.)
    pub(crate) fn evict_into(&self, evicted: &Arc<ProfileCounters>) {
        if self.evicted_into.set(Arc::clone(evicted)).is_ok() {
            let mine = self.counters.totals();
            evicted.calls.fetch_add(mine.calls, Ordering::Relaxed);
            evicted.rows.fetch_add(mine.rows, Ordering::Relaxed);
            evicted.total_nanos.fetch_add(mine.total_nanos, Ordering::Relaxed);
            evicted.max_nanos.fetch_max(mine.max_nanos, Ordering::Relaxed);
        }
    }

    /// Copies the counters into an immutable snapshot (frozen as of the
    /// eviction for a profile the statement cache has dropped).
    pub(crate) fn snapshot(&self) -> StmtProfileSnapshot {
        let EvictedTotals {
            calls,
            rows,
            total_nanos,
            max_nanos,
        } = self.counters.totals();
        StmtProfileSnapshot {
            sql: Arc::clone(&self.sql),
            kind: self.kind,
            calls,
            rows,
            total_nanos,
            max_nanos,
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

/// What the profiles evicted from the statement cache recorded — before
/// they left it and, through handles that outlived their entry, since —
/// summed: the `'(evicted)'` row of `rel_statements`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EvictedTotals {
    /// Executions recorded by evicted profiles.
    pub calls: u64,
    /// Rows returned or affected by them.
    pub rows: u64,
    /// Their cumulative execution time in nanoseconds.
    pub total_nanos: u64,
    /// The slowest single execution among them, in nanoseconds.
    pub max_nanos: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    impl StmtProfileSnapshot {
        /// Mean execution time in nanoseconds, or 0.0 before any call.
        fn mean_nanos(&self) -> f64 {
            if self.calls == 0 {
                0.0
            } else {
                self.total_nanos as f64 / self.calls as f64
            }
        }
    }

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
    fn an_evicted_profile_hands_over_its_totals_and_its_later_samples() {
        let evicted = Arc::new(ProfileCounters::default());
        let p = StmtProfile::new(Arc::from("q"), StmtKind::Update);
        p.record(100, 1);
        p.record(300, 1);
        p.evict_into(&evicted);
        p.evict_into(&evicted); // a second eviction must not double-count
        p.record(200, 5);
        let expected = EvictedTotals {
            calls: 3,
            rows: 7,
            total_nanos: 600,
            max_nanos: 300,
        };
        assert_eq!(evicted.totals(), expected);
        assert_eq!(p.snapshot().calls, 2, "frozen as of the eviction");
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
