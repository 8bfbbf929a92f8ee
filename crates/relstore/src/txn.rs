//! Transactions: table-level write locking, MVCC snapshots and the change
//! list.
//!
//! A transaction keeps **one** ordered list of what it changed
//! ([`TxnState::changes`]): statements push onto it as they apply, rollback
//! walks it backwards, and commit frames it forwards as the transaction's
//! single log record (see [`crate::wal`]). Nothing is logged before commit,
//! so a transaction that rolls back — or is reaped, or is open at a crash —
//! leaves no trace on the log.
//!
//! Writers use strict two-phase locking at table granularity. The lock
//! manager itself fails fast with [`crate::error::Error::LockConflict`]; the
//! database layer turns that into a **bounded wait** — it retries the
//! acquisition (without holding the catalog guard) until the configured
//! lock-wait timeout expires, then surfaces a retryable lock-wait
//! [`crate::error::Error::Timeout`], exactly as a busy DB2 instance would
//! time a lock wait out under heavy contention. **Readers take no locks at
//! all**:
//! every transaction is stamped with a [`Snapshot`] at begin (and every
//! autocommit SELECT takes one per statement), and visibility resolution
//! against row version chains replaces the reader-side conflict check — see
//! [`crate::mvcc`].

use crate::error::{Error, Result};
use crate::mvcc::Snapshot;
use crate::wal::{Change, TxnId};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Table-granularity write locks: each table maps to the transaction
/// writing it, if any. There is no shared mode — readers resolve visibility
/// against snapshots and never come here.
#[derive(Debug, Default)]
pub struct LockManager {
    /// Keyed by lower-cased table name. An entry is allocated the first time
    /// a table is ever locked and kept (with its writer cleared) on release,
    /// so a steady-state acquire is one `&str` lookup and no allocation.
    writers: HashMap<String, Option<TxnId>>,
}

impl LockManager {
    /// Takes the write lock on `table` for `txn`; a no-op if `txn` already
    /// holds it. Fails with `LockConflict` when another transaction does.
    pub fn acquire(&mut self, txn: TxnId, table: &str) -> Result<()> {
        match self.writers.get_mut(table) {
            Some(Some(w)) if *w != txn => {
                Err(Error::LockConflict(format!("table {table} write-locked by {w}")))
            }
            Some(writer) => {
                *writer = Some(txn);
                Ok(())
            }
            None => {
                self.writers.insert(table.to_string(), Some(txn));
                Ok(())
            }
        }
    }

    /// Releases every lock held by `txn`.
    pub fn release_all(&mut self, txn: TxnId) {
        for writer in self.writers.values_mut() {
            if *writer == Some(txn) {
                *writer = None;
            }
        }
    }
}

/// Book-keeping for one active transaction. Finishing it removes it from
/// the [`TxnManager`], so a state is never anything but active.
#[derive(Debug)]
pub struct TxnState {
    /// The transaction id.
    pub id: TxnId,
    /// What the transaction changed, in execution order: undone newest
    /// first by rollback, framed oldest first by commit. Empty for a
    /// read-only transaction, which therefore never touches the log.
    pub changes: Vec<Change>,
    /// The MVCC snapshot taken at begin: every read this transaction
    /// performs resolves row visibility against it, giving repeatable reads
    /// for the transaction's whole lifetime.
    pub snapshot: Snapshot,
    /// When the transaction last executed a statement (or began). The idle
    /// reaper aborts transactions whose `last_activity` is older than the
    /// idle threshold, so a stalled client cannot pin locks or the vacuum
    /// horizon forever.
    pub last_activity: Instant,
}

/// Allocates transaction ids and tracks active transactions.
#[derive(Debug, Default)]
pub struct TxnManager {
    next_id: u64,
    active: HashMap<TxnId, TxnState>,
}

impl TxnManager {
    /// Begins a new transaction, stamping it with a snapshot of the current
    /// commit state: transactions in flight right now (and any that begin
    /// later) stay invisible to it for its whole lifetime.
    pub fn begin(&mut self) -> TxnId {
        self.next_id += 1;
        let id = TxnId(self.next_id);
        let snapshot = Snapshot {
            high: id.0,
            in_flight: self.sorted_active(),
            own: Some(id),
        };
        self.active.insert(
            id,
            TxnState {
                id,
                changes: Vec::new(),
                snapshot,
                last_activity: Instant::now(),
            },
        );
        id
    }

    /// Stamps an active transaction as recently used. A no-op for unknown or
    /// finished transactions (the statement that follows will surface the
    /// real [`Error::TxnClosed`]).
    pub fn touch(&mut self, id: TxnId) {
        if let Some(state) = self.active.get_mut(&id) {
            state.last_activity = Instant::now();
        }
    }

    /// The transactions that have been idle for at least `idle_for`,
    /// oldest first — the reaper's candidate list.
    pub fn idle_txns(&self, idle_for: Duration) -> Vec<TxnId> {
        let mut stale: Vec<(Instant, TxnId)> = self
            .active
            .values()
            .filter(|s| s.last_activity.elapsed() >= idle_for)
            .map(|s| (s.last_activity, s.id))
            .collect();
        stale.sort_unstable();
        stale.into_iter().map(|(_, id)| id).collect()
    }

    /// The highest transaction id allocated so far. `high_watermark -
    /// snapshot_horizon` is the vacuum horizon lag: how far the oldest live
    /// snapshot trails the newest transaction.
    pub fn high_watermark(&self) -> u64 {
        self.next_id
    }

    /// The active transaction ids, sorted ascending (the `in_flight` set of
    /// a new snapshot).
    fn sorted_active(&self) -> Vec<TxnId> {
        let mut ids: Vec<TxnId> = self.active.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Takes a fresh read snapshot for an autocommit SELECT: it sees every
    /// transaction committed so far and none of the in-flight ones.
    pub fn read_snapshot(&self) -> Snapshot {
        Snapshot {
            high: self.next_id + 1,
            in_flight: self.sorted_active(),
            own: None,
        }
    }

    /// The snapshot of an active transaction (cloned; the caller runs reads
    /// against it after releasing the control mutex).
    pub fn snapshot_of(&mut self, id: TxnId) -> Result<Snapshot> {
        self.get_active(id).map(|s| s.snapshot.clone())
    }

    /// The vacuum horizon: the smallest transaction id some live snapshot
    /// does **not** see. Versions whose `end` transaction is below this are
    /// invisible to every live (and future) snapshot and may be pruned.
    /// `u64::MAX` when no transactions are active.
    pub fn snapshot_horizon(&self) -> u64 {
        self.active
            .values()
            .map(|s| s.snapshot.low_watermark())
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Returns a mutable handle to an active transaction.
    pub fn get_active(&mut self, id: TxnId) -> Result<&mut TxnState> {
        self.active
            .get_mut(&id)
            .ok_or_else(|| Error::TxnClosed(format!("{id} is unknown")))
    }

    /// Ends the transaction, committed or aborted, and returns its state:
    /// the change list the caller frames for the log or undoes.
    pub fn finish(&mut self, id: TxnId) -> Result<TxnState> {
        self.active
            .remove(&id)
            .ok_or_else(|| Error::TxnClosed(format!("{id} is unknown")))
    }

    /// Number of currently active transactions.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LockManager {
        fn new() -> Self {
            LockManager::default()
        }
    }

    impl TxnManager {
        fn new() -> Self {
            TxnManager::default()
        }
    }

    #[test]
    fn exclusive_conflicts_with_other_holders() {
        let mut lm = LockManager::new();
        lm.acquire(TxnId(1), "jobs").unwrap();
        let err = lm.acquire(TxnId(2), "jobs").unwrap_err();
        assert!(
            matches!(&err, Error::LockConflict(m) if m == "table jobs write-locked by txn1"),
            "{err}"
        );
        // Locks are per table: another table is free.
        lm.acquire(TxnId(2), "machines").unwrap();
        assert!(lm.acquire(TxnId(1), "machines").is_err());
    }

    #[test]
    fn reacquiring_a_held_lock_is_a_no_op() {
        let mut lm = LockManager::new();
        lm.acquire(TxnId(1), "jobs").unwrap();
        lm.acquire(TxnId(1), "jobs").unwrap();
        assert!(lm.acquire(TxnId(2), "jobs").is_err(), "still held once");
        lm.release_all(TxnId(1));
        lm.acquire(TxnId(2), "jobs").unwrap();
    }

    #[test]
    fn release_all_frees_tables() {
        let mut lm = LockManager::new();
        lm.acquire(TxnId(1), "jobs").unwrap();
        lm.acquire(TxnId(1), "machines").unwrap();
        lm.acquire(TxnId(2), "users").unwrap();
        lm.release_all(TxnId(1));
        lm.acquire(TxnId(3), "jobs").unwrap();
        lm.acquire(TxnId(3), "machines").unwrap();
        assert!(lm.acquire(TxnId(3), "users").is_err(), "txn2's lock is untouched");
        // Releasing a transaction that holds nothing is harmless.
        lm.release_all(TxnId(9));
        assert!(lm.acquire(TxnId(1), "jobs").is_err());
    }

    #[test]
    fn snapshots_and_horizon() {
        let mut tm = TxnManager::new();
        let t1 = tm.begin();
        let snap1 = tm.snapshot_of(t1).unwrap();
        assert!(snap1.sees(t1), "a transaction sees its own writes");
        assert!(!snap1.sees(TxnId(t1.0 + 1)), "later transactions are invisible");

        let t2 = tm.begin();
        let snap2 = tm.snapshot_of(t2).unwrap();
        assert!(!snap2.sees(t1), "t1 was in flight when t2 began");
        assert_eq!(tm.snapshot_horizon(), t1.0, "t1 bounds every live snapshot");

        let read = tm.read_snapshot();
        assert!(!read.sees(t1) && !read.sees(t2), "in-flight writers invisible");

        tm.finish(t1).unwrap();
        let read = tm.read_snapshot();
        assert!(read.sees(t1), "committed before this snapshot");
        assert!(!read.sees(t2));

        tm.finish(t2).unwrap();
        assert_eq!(tm.snapshot_horizon(), u64::MAX, "no snapshots pin versions");
        assert!(tm.snapshot_of(t1).is_err());
    }

    #[test]
    fn idle_txns_and_touch() {
        let mut tm = TxnManager::new();
        let t1 = tm.begin();
        let t2 = tm.begin();
        assert!(tm.idle_txns(Duration::from_secs(60)).is_empty());
        let idle = tm.idle_txns(Duration::ZERO);
        assert_eq!(idle.len(), 2);
        assert_eq!(idle[0], t1, "oldest first");

        std::thread::sleep(Duration::from_millis(5));
        tm.touch(t1);
        assert_eq!(tm.idle_txns(Duration::from_millis(4)), vec![t2]);

        tm.finish(t2).unwrap();
        tm.touch(t2); // no-op on a finished transaction
        assert_eq!(tm.high_watermark(), 2);
    }

    #[test]
    fn txn_lifecycle() {
        let mut tm = TxnManager::new();
        let t1 = tm.begin();
        let t2 = tm.begin();
        assert_ne!(t1, t2);
        assert_eq!(tm.active_count(), 2);

        tm.get_active(t1).unwrap().changes.push(Change::Delete {
            table: "jobs".into(),
            row_id: crate::tuple::RowId(1),
        });
        let state = tm.finish(t1).unwrap();
        assert_eq!(state.changes.len(), 1);

        assert!(tm.finish(t2).unwrap().changes.is_empty());
        assert_eq!(tm.active_count(), 0);

        // Operating on a finished transaction fails.
        assert!(tm.get_active(t1).is_err());
        assert!(tm.finish(t2).is_err());
    }
}
