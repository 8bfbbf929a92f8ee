//! The engine's counters: the [`OpStats`] snapshot and the lock-free
//! [`SharedStats`] atomics behind it, owned by
//! [`Observability`](super::Observability) beside the latency histograms.
//!
//! The CondorJ2 paper's performance argument hinges on "the speed and
//! efficiency with which incoming messages can be transformed into actions on
//! the underlying database". To let the simulator charge CPU and IO time for
//! that work, the storage engine counts every logical operation it performs.
//! The [`appserver::cost`](../appserver) model converts these counts into
//! simulated user/system/IO cycles.
//!
//! Every field is declared exactly once in the `define_stats!` table below,
//! which generates [`OpStats`], [`SharedStats`], and the interval/merge/
//! introspection operations. Three field kinds exist:
//!
//! - `counter`: monotonically non-decreasing totals. `merge` sums,
//!   `delta_since` subtracts, [`SharedStats::record`] adds.
//! - `gauge`: high-water marks. `merge` takes the max, `delta_since` reports
//!   the current mark (a high-water mark has no meaningful difference), and
//!   [`SharedStats::record`] takes the max.
//! - `derived`: a counter whose event already lands one sample in a latency
//!   histogram, so it has no atomic of its own: `SharedStats::record` skips
//!   it, and the registry's snapshot reads it off the histogram (a count or
//!   a sum of nanoseconds). In a statement's own delta it merges and
//!   subtracts like a counter.
//!
//! The kind of each field is queryable at runtime through
//! [`OpStats::is_gauge`] (a derived field is a counter), and
//! [`OpStats::fields`] enumerates `(name, value)` pairs — this is what backs
//! the `rel_stats` virtual system table and the chaos-soak monotonicity
//! invariant.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Declares every engine counter once and expands the snapshot struct, the
/// shared atomic struct, and all component-wise operations from that single
/// table. Adding a counter is a one-line change; `delta_since`, `merge`,
/// `record`, `snapshot`, `fields` and `is_gauge` can never drift out of sync
/// with the struct again.
macro_rules! define_stats {
    ($( $kind:tt $name:ident: $doc:literal, )+) => {
        /// A snapshot of cumulative engine operation counts.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct OpStats {
            $( #[doc = $doc] pub $name: u64, )+
        }

        impl OpStats {
            /// Component-wise difference `self - earlier`, for interval
            /// accounting. Gauges report the current mark, not a difference.
            pub fn delta_since(&self, earlier: &OpStats) -> OpStats {
                OpStats {
                    $( $name: define_stats!(@delta $kind, self.$name, earlier.$name), )+
                }
            }

            /// Component-wise sum (counters) / max (gauges), used when
            /// aggregating per-connection counters.
            pub fn merge(&mut self, other: &OpStats) {
                $( define_stats!(@merge $kind, self.$name, other.$name); )+
            }

            /// Every `(field name, value)` pair, in declaration order. Backs
            /// the `rel_stats` virtual system table and generic invariant
            /// checks that must not be rewritten per field.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![ $( (stringify!($name), self.$name), )+ ]
            }

            /// Whether the named field is a high-water-mark gauge (as opposed
            /// to a monotone counter). Unknown names return `false`.
            pub fn is_gauge(name: &str) -> bool {
                match name {
                    $( stringify!($name) => define_stats!(@isgauge $kind), )+
                    _ => false,
                }
            }
        }

        define_stats!(@shared [] $( $kind $name, )+);

        impl SharedStats {
            /// Merges a per-statement delta into the shared totals; its
            /// `derived` fields are left to the histograms.
            pub(crate) fn record(&self, delta: &OpStats) {
                // Skip the RMW for fields the statement never touched (most
                // deltas are sparse: a point select bumps four of forty).
                $( define_stats!(@record $kind, self.$name, delta.$name); )+
            }

            /// Copies the current totals into a plain [`OpStats`] value, with
            /// every `derived` field zero.
            pub(crate) fn snapshot(&self) -> OpStats {
                OpStats {
                    $( $name: define_stats!(@load $kind, self.$name), )+
                }
            }
        }
    };

    (@delta gauge, $a:expr, $b:expr) => { $a };
    (@delta $kind:tt, $a:expr, $b:expr) => { $a - $b };
    (@merge gauge, $a:expr, $b:expr) => { $a = $a.max($b) };
    (@merge $kind:tt, $a:expr, $b:expr) => { $a += $b };
    (@isgauge gauge) => { true };
    (@isgauge $kind:tt) => { false };
    // `SharedStats` holds one atomic per field that is not `derived`.
    (@shared [$( $cell:ident )*]) => {
        /// Lock-free cumulative counters shared by every session of a database.
        ///
        /// Statement execution accumulates its work into a stack-local
        /// [`OpStats`] and merges the delta here once at the end, so the read
        /// path never needs `&mut` access to shared engine state just to count
        /// rows. Counters use relaxed ordering: totals are exact (every delta
        /// lands), but a concurrent [`snapshot`](SharedStats::snapshot) may
        /// observe one statement's fields partially applied — fine for
        /// monitoring and the simulation cost model, which both read between
        /// statements. A `derived` field has no atomic here.
        #[derive(Debug, Default)]
        pub(crate) struct SharedStats {
            $( $cell: AtomicU64, )*
        }
    };
    (@shared [$( $cell:ident )*] derived $name:ident, $( $rest:tt )*) => {
        define_stats!(@shared [$( $cell )*] $( $rest )*);
    };
    (@shared [$( $cell:ident )*] $kind:tt $name:ident, $( $rest:tt )*) => {
        define_stats!(@shared [$( $cell )* $name] $( $rest )*);
    };
    (@load derived, $c:expr) => { 0 };
    (@load $kind:tt, $c:expr) => { $c.load(Ordering::Relaxed) };
    (@record derived, $c:expr, $v:expr) => {};
    (@record counter, $c:expr, $v:expr) => {
        if $v != 0 {
            $c.fetch_add($v, Ordering::Relaxed);
        }
    };
    (@record gauge, $c:expr, $v:expr) => {
        if $v != 0 {
            $c.fetch_max($v, Ordering::Relaxed);
        }
    };
}

define_stats! {
    counter rows_inserted: "Rows inserted into any table.",
    counter rows_deleted: "Rows deleted from any table.",
    counter rows_updated: "Rows updated in place.",
    counter rows_read: "Rows read (returned or examined by scans and lookups).",
    counter rows_scanned: "Rows examined by full-table scans specifically.",
    counter index_lookups: "Point/range lookups satisfied through an index.",
    counter index_maintenance:
        "Individual index maintenance operations (entry insert/remove).",
    counter statements_parsed: "SQL statements parsed.",
    counter cache_hits:
        "Statement-cache hits: executions that reused a cached parse.",
    counter cache_misses:
        "Statement-cache misses: SQL text that had to be parsed.",
    derived statements_executed:
        "Statements executed (parsed or programmatic): the sample count of \
         the `stmt.*` histograms.",
    counter commits: "Transactions committed.",
    counter aborts: "Transactions aborted.",
    counter wal_records: "Records appended to the write-ahead log.",
    counter wal_bytes: "Bytes appended to the write-ahead log.",
    derived checkpoints:
        "Checkpoints taken: the sample count of the `checkpoint` histogram.",
    counter versions_created:
        "MVCC row versions created (one per INSERT row and one per UPDATE).",
    counter versions_vacuumed: "MVCC row versions pruned by vacuum.",
    counter snapshots_taken:
        "MVCC snapshots taken (one per transaction begin and one per \
         autocommit read statement/batch).",
    gauge max_version_chain:
        "High-water mark of the longest row version chain observed. Unlike \
         the other counters this is a gauge: `merge` takes the max and \
         `delta_since` reports the current mark, not a difference.",
    counter net_bytes_in:
        "Bytes received from network clients (wire-protocol frames, including \
         their length prefixes). Counted by the network server.",
    counter net_bytes_out:
        "Bytes sent to network clients (response frames and handshakes).",
    counter frames_decoded:
        "Wire-protocol frames decoded successfully by the network server.",
    gauge active_connections:
        "High-water mark of concurrently open network connections. A gauge \
         like [`OpStats::max_version_chain`]: `merge` takes the max and \
         `delta_since` reports the current mark, not a difference.",
    derived wal_fsyncs:
        "Fsyncs issued against the durable log device (commit syncs, explicit \
         flushes and checkpoint rotations): the sample count of the \
         `wal.fsync` histogram. Always zero for in-memory logs.",
    derived wal_fsync_nanos:
        "Cumulative nanoseconds spent inside durable-log fsyncs (the device \
         sync during commit/flush and the atomic replace during checkpoint \
         rotation): the sample sum of the `wal.fsync` histogram. Always zero \
         for in-memory logs.",
    counter wal_segments_rotated:
        "Log segments rotated: checkpoints that replaced the on-disk segment \
         with a fresh one via write-then-atomic-rename.",
    counter recovery_truncated_bytes:
        "Bytes discarded from the tail of the log during recovery because a \
         crash left a partial (torn) record behind.",
    counter corruption_detected:
        "Checksum or decode failures detected in the non-tail region of a log \
         segment. Any non-zero value accompanied an [`crate::Error::Corruption`].",
    counter failpoints_hit:
        "Failpoints that fired in the durable-log IO path (test-only fault \
         injection; always zero in production use).",
    counter statements_timed_out:
        "Statements cancelled because their deadline expired mid-execution \
         (surfaced as a statement-deadline [`crate::Error::Timeout`]).",
    counter statements_over_budget:
        "Statements cancelled because a resource budget (max rows / max \
         result bytes) was exceeded ([`crate::Error::ResourceExhausted`]).",
    counter lock_waits:
        "Write statements that found their table lock held and entered a \
         bounded wait (whether or not the wait eventually succeeded).",
    derived lock_wait_nanos:
        "Cumulative nanoseconds write statements spent blocked in bounded \
         table-lock waits: the sample sum of the `lock.wait` histogram. \
         Zero-cost when no statement ever waits.",
    counter lock_wait_timeouts:
        "Bounded lock waits that expired without the lock freeing (surfaced \
         as a retryable lock-wait [`crate::Error::Timeout`]).",
    counter txns_reaped:
        "Idle transactions aborted by the reaper (locks released, changes \
         undone, WAL Abort appended).",
    gauge horizon_lag:
        "High-water mark of the vacuum horizon lag: how many transaction ids \
         the oldest live snapshot trails the newest transaction. A gauge like \
         [`OpStats::max_version_chain`]: `merge` takes the max and \
         `delta_since` reports the current mark, not a difference.",
    counter slow_queries:
        "Statements whose total duration met the armed slow-query threshold \
         and were captured in the slow-query ring (see `rel_slow_queries`). \
         Always zero while the slow-query log is disarmed.",
    counter tables_analyzed:
        "Tables whose planner statistics were (re)collected by ANALYZE.",
    counter plans_built:
        "Select plans built by the cost-based planner (joined selects only; \
         the single-table path chooses its access path inline).",
    counter plan_cache_hits:
        "Joined-select executions that reused a prepared statement's cached \
         plan instead of replanning.",
    counter build_reuse_hits:
        "Hash-join build sides reused from a prepared statement's plan cache \
         instead of being rebuilt.",
    counter subqueries_executed:
        "Scalar and IN subqueries executed while rewriting WHERE clauses.",
    counter rows_materialized:
        "Owned rows the select executor allocated: the rows it returned plus \
         the build sides of hash joins it had to (re)build. Rows a statement \
         only reads — scanned, filtered, joined, aggregated — stay borrowed \
         and are not counted.",
}

impl OpStats {
    /// Total number of row mutations (insert + update + delete).
    pub fn total_mutations(&self) -> u64 {
        self.rows_inserted + self.rows_deleted + self.rows_updated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl OpStats {
        /// Statement-cache hit rate in `[0, 1]`, or `None` before any lookup.
        fn cache_hit_rate(&self) -> Option<f64> {
            let total = self.cache_hits + self.cache_misses;
            (total > 0).then(|| self.cache_hits as f64 / total as f64)
        }
    }

    #[test]
    fn delta_is_componentwise() {
        let earlier = OpStats {
            rows_inserted: 5,
            rows_read: 10,
            ..Default::default()
        };
        let later = OpStats {
            rows_inserted: 8,
            rows_read: 25,
            commits: 2,
            ..Default::default()
        };
        let d = later.delta_since(&earlier);
        assert_eq!(d.rows_inserted, 3);
        assert_eq!(d.rows_read, 15);
        assert_eq!(d.commits, 2);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = OpStats {
            rows_updated: 1,
            wal_bytes: 100,
            ..Default::default()
        };
        let b = OpStats {
            rows_updated: 2,
            wal_bytes: 50,
            aborts: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.rows_updated, 3);
        assert_eq!(a.wal_bytes, 150);
        assert_eq!(a.aborts, 1);
    }

    #[test]
    fn cache_counters_flow_through_delta_and_merge() {
        let earlier = OpStats {
            cache_hits: 2,
            cache_misses: 1,
            ..Default::default()
        };
        let later = OpStats {
            cache_hits: 10,
            cache_misses: 3,
            ..Default::default()
        };
        let d = later.delta_since(&earlier);
        assert_eq!(d.cache_hits, 8);
        assert_eq!(d.cache_misses, 2);

        let mut merged = earlier;
        merged.merge(&later);
        assert_eq!(merged.cache_hits, 12);
        assert_eq!(merged.cache_misses, 4);
        assert_eq!(merged.cache_hit_rate(), Some(12.0 / 16.0));
        assert_eq!(OpStats::default().cache_hit_rate(), None);
    }

    #[test]
    fn shared_stats_record_and_snapshot() {
        let shared = SharedStats::default();
        shared.record(&OpStats {
            rows_read: 5,
            cache_hits: 1,
            ..Default::default()
        });
        shared.record(&OpStats {
            rows_read: 2,
            commits: 1,
            ..Default::default()
        });
        let snap = shared.snapshot();
        assert_eq!(snap.rows_read, 7);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.rows_inserted, 0);
    }

    #[test]
    fn shared_stats_merge_from_threads() {
        let shared = std::sync::Arc::new(SharedStats::default());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let shared = std::sync::Arc::clone(&shared);
                s.spawn(move || {
                    for _ in 0..1000 {
                        shared.record(&OpStats {
                            rows_read: 1,
                            ..Default::default()
                        });
                    }
                });
            }
        });
        assert_eq!(shared.snapshot().rows_read, 4000);
    }

    #[test]
    fn mvcc_counters_and_the_chain_gauge() {
        let mut a = OpStats {
            versions_created: 3,
            max_version_chain: 4,
            ..Default::default()
        };
        let b = OpStats {
            versions_created: 2,
            versions_vacuumed: 5,
            snapshots_taken: 1,
            max_version_chain: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.versions_created, 5);
        assert_eq!(a.versions_vacuumed, 5);
        assert_eq!(a.snapshots_taken, 1);
        assert_eq!(a.max_version_chain, 4, "merge keeps the high-water mark");

        let shared = SharedStats::default();
        shared.record(&OpStats {
            max_version_chain: 3,
            ..Default::default()
        });
        shared.record(&OpStats {
            max_version_chain: 2,
            versions_vacuumed: 1,
            ..Default::default()
        });
        let snap = shared.snapshot();
        assert_eq!(snap.max_version_chain, 3, "record keeps the larger mark");
        assert_eq!(snap.versions_vacuumed, 1);
        let d = snap.delta_since(&OpStats {
            versions_vacuumed: 1,
            ..Default::default()
        });
        assert_eq!(d.versions_vacuumed, 0);
        assert_eq!(d.max_version_chain, 3, "delta reports the current mark");
    }

    #[test]
    fn network_counters_and_the_connection_gauge() {
        let mut a = OpStats {
            net_bytes_in: 100,
            frames_decoded: 2,
            active_connections: 4,
            ..Default::default()
        };
        let b = OpStats {
            net_bytes_in: 50,
            net_bytes_out: 80,
            frames_decoded: 1,
            active_connections: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.net_bytes_in, 150);
        assert_eq!(a.net_bytes_out, 80);
        assert_eq!(a.frames_decoded, 3);
        assert_eq!(a.active_connections, 4, "merge keeps the high-water mark");

        let shared = SharedStats::default();
        shared.record(&OpStats {
            net_bytes_in: 64,
            net_bytes_out: 32,
            frames_decoded: 1,
            active_connections: 3,
            ..Default::default()
        });
        shared.record(&OpStats {
            active_connections: 1,
            ..Default::default()
        });
        let snap = shared.snapshot();
        assert_eq!(snap.net_bytes_in, 64);
        assert_eq!(snap.net_bytes_out, 32);
        assert_eq!(snap.frames_decoded, 1);
        assert_eq!(snap.active_connections, 3, "record keeps the larger mark");
        let d = snap.delta_since(&OpStats {
            net_bytes_in: 14,
            ..Default::default()
        });
        assert_eq!(d.net_bytes_in, 50);
        assert_eq!(d.active_connections, 3, "delta reports the current mark");
    }

    #[test]
    fn durability_counters_flow_through_delta_merge_and_shared() {
        let mut a = OpStats {
            wal_fsyncs: 4,
            wal_segments_rotated: 1,
            ..Default::default()
        };
        let b = OpStats {
            wal_fsyncs: 2,
            recovery_truncated_bytes: 17,
            corruption_detected: 1,
            failpoints_hit: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.wal_fsyncs, 6);
        assert_eq!(a.wal_segments_rotated, 1);
        assert_eq!(a.recovery_truncated_bytes, 17);
        assert_eq!(a.corruption_detected, 1);
        assert_eq!(a.failpoints_hit, 3);

        let shared = SharedStats::default();
        shared.record(&a);
        shared.record(&OpStats {
            wal_fsyncs: 1,
            wal_segments_rotated: 2,
            ..Default::default()
        });
        let snap = shared.snapshot();
        assert_eq!(snap.wal_fsyncs, 0, "a derived field has no shared cell");
        assert_eq!(snap.wal_segments_rotated, 3);
        assert_eq!(snap.recovery_truncated_bytes, 17);

        let d = snap.delta_since(&OpStats {
            wal_segments_rotated: 1,
            corruption_detected: 1,
            ..Default::default()
        });
        assert_eq!(d.wal_segments_rotated, 2);
        assert_eq!(d.corruption_detected, 0);
        assert_eq!(d.failpoints_hit, 3);
    }

    #[test]
    fn governance_counters_and_the_horizon_gauge() {
        let mut a = OpStats {
            statements_timed_out: 1,
            lock_waits: 3,
            horizon_lag: 7,
            ..Default::default()
        };
        let b = OpStats {
            statements_over_budget: 2,
            lock_waits: 1,
            lock_wait_timeouts: 1,
            txns_reaped: 4,
            horizon_lag: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.statements_timed_out, 1);
        assert_eq!(a.statements_over_budget, 2);
        assert_eq!(a.lock_waits, 4);
        assert_eq!(a.lock_wait_timeouts, 1);
        assert_eq!(a.txns_reaped, 4);
        assert_eq!(a.horizon_lag, 7, "merge keeps the high-water mark");

        let shared = SharedStats::default();
        shared.record(&a);
        shared.record(&OpStats {
            txns_reaped: 1,
            horizon_lag: 2,
            ..Default::default()
        });
        let snap = shared.snapshot();
        assert_eq!(snap.txns_reaped, 5);
        assert_eq!(snap.horizon_lag, 7, "record keeps the larger mark");
        let d = snap.delta_since(&OpStats {
            txns_reaped: 2,
            ..Default::default()
        });
        assert_eq!(d.txns_reaped, 3);
        assert_eq!(d.horizon_lag, 7, "delta reports the current mark");
    }

    #[test]
    fn total_mutations_sums_writes() {
        let s = OpStats {
            rows_inserted: 2,
            rows_deleted: 3,
            rows_updated: 4,
            rows_read: 100,
            ..Default::default()
        };
        assert_eq!(s.total_mutations(), 9);
    }

    #[test]
    fn fields_enumerates_every_counter_in_declaration_order() {
        let s = OpStats {
            rows_inserted: 7,
            slow_queries: 2,
            rows_materialized: 5,
            ..Default::default()
        };
        let fields = s.fields();
        assert_eq!(fields.first(), Some(&("rows_inserted", 7)));
        assert_eq!(fields.last(), Some(&("rows_materialized", 5)));
        assert!(fields.contains(&("slow_queries", 2)));
        assert!(fields.contains(&("wal_fsync_nanos", 0)));
        // One entry per struct field, no duplicates.
        let names: std::collections::BTreeSet<_> = fields.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), fields.len());
    }

    #[test]
    fn gauge_kind_is_introspectable() {
        for gauge in [
            "max_version_chain",
            "active_connections",
            "horizon_lag",
        ] {
            assert!(OpStats::is_gauge(gauge), "{gauge} should be a gauge");
        }
        for counter in [
            "rows_inserted",
            "statements_executed",
            "wal_fsync_nanos",
            "lock_wait_nanos",
            "slow_queries",
        ] {
            assert!(!OpStats::is_gauge(counter), "{counter} should be a counter");
        }
        assert!(!OpStats::is_gauge("no_such_field"));
    }

    #[test]
    fn timing_counters_flow_through_delta_and_merge() {
        let mut a = OpStats {
            lock_wait_nanos: 1_000,
            wal_fsync_nanos: 2_000,
            ..Default::default()
        };
        let b = OpStats {
            lock_wait_nanos: 500,
            slow_queries: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.lock_wait_nanos, 1_500);
        assert_eq!(a.wal_fsync_nanos, 2_000);
        assert_eq!(a.slow_queries, 1);

        let shared = SharedStats::default();
        shared.record(&a);
        let snap = shared.snapshot();
        assert_eq!(
            (snap.lock_wait_nanos, snap.wal_fsync_nanos, snap.slow_queries),
            (0, 0, 1),
            "the derived timings are read off the histograms, not merged"
        );
        let d = a.delta_since(&OpStats {
            lock_wait_nanos: 1_000,
            ..Default::default()
        });
        assert_eq!(d.lock_wait_nanos, 500);
        assert_eq!(d.wal_fsync_nanos, 2_000);
    }
}
