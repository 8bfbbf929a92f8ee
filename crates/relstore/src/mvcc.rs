//! Multi-version concurrency control: row version chains and snapshots.
//!
//! The engine's readers never block on — or abort against — in-flight
//! writers. Instead of conflict-checking the lock table, every SELECT
//! (autocommit, in-transaction, and batched) carries a [`Snapshot`]: a
//! transaction-id watermark plus the set of writers that were in flight when
//! the snapshot was taken. Each table row is a `VersionChain` of
//! [`RowVersion`]s stamped with the transaction that created them (`begin`)
//! and, once superseded or deleted, the transaction that ended them (`end`).
//! A version is visible to a snapshot exactly when its `begin` is visible
//! and its `end` (if any) is not.
//!
//! A chain is laid out for the reader that wants the newest version, which
//! is nearly every reader: it *is* the table's heap slot
//! ([`crate::heap::Heap`]), the newest version sits inline in it, and the
//! superseded versions wait for vacuum in a side vector that a row nobody
//! has updated since the last sweep does not even allocate. Visibility
//! therefore costs one slot read in the common case, and a second hop only
//! for a snapshot old enough to need history.
//!
//! Writers still serialise through the table-level lock manager for
//! write-write conflicts; MVCC only removes readers from the conflict graph.
//!
//! # Why there is no commit-status check
//!
//! Visibility never consults a commit log because the engine maintains two
//! invariants under the catalog write guard:
//!
//! * **aborted versions are removed physically** by rollback (and crash
//!   recovery rebuilds committed state only), so any version present in a
//!   chain belongs to a committed transaction, an in-flight one, or the
//!   pseudo-transaction [`COMMITTED_TXN`] used for recovered/bootstrap rows;
//! * a snapshot's `in_flight` set captures every transaction that was active
//!   when the snapshot was taken, and ids are allocated monotonically, so
//!   "`begin < high` and not in flight" is equivalent to "committed before
//!   the snapshot".
//!
//! # Garbage collection
//!
//! Dead versions (those with `end` set) are retained until no live snapshot
//! could still need them, then pruned by the table vacuum
//! ([`crate::table::Table::vacuum`]) — invoked from
//! [`crate::db::Database::checkpoint`] and, per table, when the count
//! of dead versions crosses a threshold after a write. The cutoff is the
//! `TxnManager::snapshot_horizon`:
//! the smallest transaction id some live snapshot does *not* see.

use crate::tuple::Row;
use crate::wal::TxnId;

/// The pseudo-transaction id carried by rows whose writer is no longer
/// relevant: rows rebuilt by crash recovery, restored by checkpoint replay,
/// or created through the physical (non-transactional) table API. Every
/// snapshot sees it: real transaction ids start at 1.
pub const COMMITTED_TXN: TxnId = TxnId(0);

/// One version of one row.
///
/// `begin` is the transaction that created the version; `end` is the
/// transaction that superseded (UPDATE) or deleted (DELETE) it, or `None`
/// while the version is current.
#[derive(Debug, Clone, PartialEq)]
pub struct RowVersion {
    /// Creator transaction.
    pub begin: TxnId,
    /// Transaction that ended this version, if any.
    pub end: Option<TxnId>,
    /// The row contents of this version.
    pub row: Row,
}

/// A consistent view of the database at one instant.
///
/// Taken per statement for autocommit reads and once at `begin()` for
/// explicit transactions (giving them repeatable reads). `high` is the
/// id watermark — transactions with `id >= high` began after the snapshot —
/// and `in_flight` lists the transactions that were active (hence not yet
/// committed) when it was taken, sorted ascending.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Transactions with `id >= high` are invisible (they began later).
    pub high: u64,
    /// Transactions active at snapshot time, sorted ascending; their
    /// versions are invisible even though their ids are below `high`.
    pub in_flight: Vec<TxnId>,
    /// The snapshot owner's own transaction, whose writes are always
    /// visible to itself. `None` for autocommit reads.
    pub own: Option<TxnId>,
}

/// The snapshot that sees every version whose `end` is unset: the *latest*
/// physical state. Writers use it — under the table's exclusive lock the
/// only uncommitted versions in a table are the writer's own, so "newest
/// version still open" is exactly the writer's view.
static LATEST: Snapshot = Snapshot {
    high: u64::MAX,
    in_flight: Vec::new(),
    own: None,
};

impl Snapshot {
    /// The all-seeing snapshot (current physical state): it considers every
    /// transaction committed, so a version is visible exactly when its
    /// `end` is unset.
    pub(crate) fn latest() -> &'static Snapshot {
        &LATEST
    }

    /// True when this snapshot considers `txn`'s effects committed-and-visible.
    #[inline]
    pub(crate) fn sees(&self, txn: TxnId) -> bool {
        if self.own == Some(txn) {
            return true;
        }
        txn.0 < self.high && !self.in_flight.contains(&txn)
    }

    /// True when `version` is the row state this snapshot should observe.
    #[inline]
    pub(crate) fn visible(&self, version: &RowVersion) -> bool {
        self.sees(version.begin)
            && match version.end {
                None => true,
                Some(end) => !self.sees(end),
            }
    }

    /// The smallest transaction id this snapshot does **not** see (ignoring
    /// `own`): the lower bound used to compute the global vacuum horizon.
    pub(crate) fn low_watermark(&self) -> u64 {
        match self.in_flight.first() {
            Some(t) => t.0.min(self.high),
            None => self.high,
        }
    }
}

/// All retained versions of one row: the newest **inline**, the superseded
/// ones in a side vector, oldest first.
///
/// See the module docs for why: the chain is a heap slot, and `older` stays
/// unallocated for a row nobody has updated since the last vacuum. The hot
/// write path (an UPDATE) moves the inline version to the side and writes
/// the replacement in its place.
///
/// Invariants (maintained by [`crate::table::Table`] under the catalog write
/// guard): only the newest version may have `end == None`; every older
/// version's `end` is set. A chain whose newest version has `end` set is a
/// *tombstone* — the row is deleted in the latest state but still visible to
/// older snapshots until vacuumed. `newest` is `None` only for the empty
/// chain a fully vacuumed tombstone leaves, which the table drops at once.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct VersionChain {
    newest: Option<RowVersion>,
    /// Superseded versions, oldest → newest.
    older: Vec<RowVersion>,
}

/// A later field must not silently undo the slab's layout: a heap slot is
/// one inline version plus the side vector's header.
const _: () = assert!(std::mem::size_of::<Option<VersionChain>>() <= 72);

impl VersionChain {
    /// Creates a chain holding a single new version written by `txn`.
    pub(crate) fn new(txn: TxnId, row: Row) -> Self {
        VersionChain {
            newest: Some(RowVersion {
                begin: txn,
                end: None,
                row,
            }),
            older: Vec::new(),
        }
    }

    /// Number of retained versions.
    pub(crate) fn len(&self) -> usize {
        self.older.len() + usize::from(self.newest.is_some())
    }

    /// True when no versions remain (only transiently, during vacuum).
    pub(crate) fn is_empty(&self) -> bool {
        self.newest.is_none()
    }

    /// The newest version.
    #[inline]
    pub(crate) fn newest(&self) -> &RowVersion {
        self.newest.as_ref().expect("chains are never empty")
    }

    fn newest_mut(&mut self) -> &mut RowVersion {
        self.newest.as_mut().expect("chains are never empty")
    }

    /// The current row — the newest version if it has not been ended.
    pub(crate) fn current(&self) -> Option<&Row> {
        let v = self.newest();
        v.end.is_none().then_some(&v.row)
    }

    /// True when the newest version is open (the row exists in latest state).
    pub(crate) fn is_live(&self) -> bool {
        self.newest().end.is_none()
    }

    /// True when some retained version has been ended (vacuum candidate).
    pub(crate) fn has_dead(&self) -> bool {
        !self.older.is_empty() || !self.is_live()
    }

    /// The row this snapshot observes, if any version is visible to it.
    /// Searched newest-first: the common case (current version visible)
    /// checks exactly the inline version.
    #[inline]
    pub(crate) fn visible(&self, snapshot: &Snapshot) -> Option<&Row> {
        let newest = self.newest.as_ref()?;
        if snapshot.visible(newest) {
            return Some(&newest.row);
        }
        self.older
            .iter()
            .rev()
            .find(|v| snapshot.visible(v))
            .map(|v| &v.row)
    }

    /// The chain's only version, when it retains exactly one: read off the
    /// slot the chain lives in, no row behind it touched.
    #[inline]
    pub(crate) fn sole(&self) -> Option<&RowVersion> {
        self.newest.as_ref().filter(|_| self.older.is_empty())
    }

    /// Iterates all retained versions (oldest first).
    pub(crate) fn versions(&self) -> impl Iterator<Item = &RowVersion> {
        self.older.iter().chain(&self.newest)
    }

    /// Consumes the chain into its versions (oldest first).
    pub(crate) fn into_versions(self) -> impl Iterator<Item = RowVersion> {
        self.older.into_iter().chain(self.newest)
    }

    /// Ends the newest version (an UPDATE superseding it) and pushes the
    /// replacement written by `txn`.
    pub(crate) fn push_version(&mut self, txn: TxnId, row: Row) {
        let replacement = RowVersion {
            begin: txn,
            end: None,
            row,
        };
        let mut superseded = std::mem::replace(self.newest_mut(), replacement);
        superseded.end = Some(txn);
        self.older.push(superseded);
    }

    /// Marks the newest version deleted by `txn`.
    pub(crate) fn mark_deleted(&mut self, txn: TxnId) {
        self.newest_mut().end = Some(txn);
    }

    /// Rollback helper: clears a deletion mark left by `txn`.
    pub(crate) fn unmark_deleted(&mut self, txn: TxnId) {
        let newest = self.newest_mut();
        debug_assert_eq!(newest.end, Some(txn));
        newest.end = None;
    }

    /// Rollback helper: pops the newest version (written by the aborting
    /// `txn`) and re-opens the version it superseded. Returns the popped
    /// version so the table can retire its index entries.
    pub(crate) fn pop_version(&mut self, txn: TxnId) -> RowVersion {
        let popped = self.newest.take().expect("chains are never empty");
        debug_assert_eq!(popped.begin, txn);
        self.newest = self.older.pop();
        if let Some(prev) = &mut self.newest {
            if prev.end == Some(txn) {
                prev.end = None;
            }
        }
        popped
    }

    /// Prunes versions no live snapshot can still observe: every version
    /// whose `end` transaction id is below `horizon` (see the module docs),
    /// in one pass however long the chain. Returns the pruned versions
    /// (oldest first) so the table can retire index entries. After
    /// vacuuming with `horizon == u64::MAX` (no live snapshots) a live chain
    /// is exactly one version long, its side vector unallocated again, and a
    /// tombstoned chain is empty.
    pub(crate) fn vacuum(&mut self, horizon: u64) -> Vec<RowVersion> {
        let prunable = |v: &RowVersion| v.end.is_some_and(|end| end.0 < horizon);
        let mut pruned = if self.older.iter().all(prunable) {
            // The common sweep: no snapshot pins anything. Hands over the
            // side vector whole and leaves an unallocated one behind.
            std::mem::take(&mut self.older)
        } else {
            let (pruned, kept) = std::mem::take(&mut self.older)
                .into_iter()
                .partition(prunable);
            self.older = kept;
            pruned
        };
        if self.newest.as_ref().is_some_and(prunable) {
            pruned.extend(self.newest.take());
            // A transaction that began earlier may have written later, so
            // an older version can outlive the tombstone: the last survivor
            // is then the chain's newest, as it was when all sat in one list.
            self.newest = self.older.pop();
        }
        pruned
    }

    /// Approximate bytes the chain holds outside its heap slot: every
    /// version's row contents, plus the side vector (the slot itself — the
    /// inline version's stamps and the vector's header — is the heap's to
    /// count, see [`crate::heap::Heap::approx_overhead`]).
    pub(crate) fn approx_size(&self) -> usize {
        self.versions().map(|v| v.row.approx_size()).sum::<usize>()
            + self.older.capacity() * std::mem::size_of::<RowVersion>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn row(n: i64) -> Row {
        Row::new(vec![Value::Int(n)])
    }

    fn snapshot(high: u64, in_flight: &[u64], own: Option<u64>) -> Snapshot {
        Snapshot {
            high,
            in_flight: in_flight.iter().map(|&t| TxnId(t)).collect(),
            own: own.map(TxnId),
        }
    }

    #[test]
    fn visibility_rules() {
        let snap = snapshot(5, &[3], Some(5));
        assert!(snap.sees(TxnId(0)), "bootstrap rows are always visible");
        assert!(snap.sees(TxnId(2)), "committed before the snapshot");
        assert!(!snap.sees(TxnId(3)), "in flight at snapshot time");
        assert!(snap.sees(TxnId(5)), "own writes are visible");
        assert!(!snap.sees(TxnId(7)), "began after the snapshot");

        // A version created by a visible txn and ended by an invisible one
        // is still the observed state.
        let v = RowVersion {
            begin: TxnId(2),
            end: Some(TxnId(3)),
            row: row(1),
        };
        assert!(snap.visible(&v));
        // Once the ender is visible too, the version is dead to us.
        let snap2 = snapshot(6, &[], None);
        assert!(!snap2.visible(&v));
    }

    #[test]
    fn latest_sees_only_open_versions() {
        let latest = Snapshot::latest();
        let open = RowVersion {
            begin: TxnId(9),
            end: None,
            row: row(1),
        };
        let ended = RowVersion {
            begin: TxnId(1),
            end: Some(TxnId(9)),
            row: row(0),
        };
        assert!(latest.visible(&open));
        assert!(!latest.visible(&ended));
    }

    #[test]
    fn chain_push_pop_round_trip() {
        let mut chain = VersionChain::new(TxnId(1), row(1));
        chain.push_version(TxnId(2), row(2));
        assert_eq!(chain.len(), 2);
        assert_eq!(chain.current(), Some(&row(2)));

        // An old snapshot that predates txn 2 still reads the first version.
        let old = snapshot(2, &[], None);
        assert_eq!(chain.visible(&old), Some(&row(1)));

        // Rolling txn 2 back restores the chain exactly.
        let popped = chain.pop_version(TxnId(2));
        assert_eq!(popped.row, row(2));
        assert_eq!(chain.len(), 1);
        assert_eq!(chain.current(), Some(&row(1)));
    }

    #[test]
    fn delete_marks_and_unmarks() {
        let mut chain = VersionChain::new(TxnId(1), row(1));
        chain.mark_deleted(TxnId(3));
        assert!(!chain.is_live());
        assert_eq!(chain.current(), None);
        // Old snapshots still see the row; new ones do not.
        assert_eq!(chain.visible(&snapshot(3, &[], None)), Some(&row(1)));
        assert_eq!(chain.visible(&snapshot(4, &[], None)), None);
        chain.unmark_deleted(TxnId(3));
        assert!(chain.is_live());
    }

    #[test]
    fn vacuum_respects_the_horizon() {
        let mut chain = VersionChain::new(TxnId(1), row(1));
        chain.push_version(TxnId(5), row(2));
        chain.push_version(TxnId(9), row(3));
        assert_eq!(chain.len(), 3);

        // A horizon below the enders keeps everything.
        assert!(chain.vacuum(5).is_empty());
        assert_eq!(chain.len(), 3);

        // Horizon 6 prunes the version ended by txn 5, keeps the one ended
        // by txn 9.
        let pruned = chain.vacuum(6);
        assert_eq!(pruned.len(), 1);
        assert_eq!(pruned[0].row, row(1));
        assert_eq!(chain.len(), 2);

        // No live snapshots: everything but the open version goes.
        let pruned = chain.vacuum(u64::MAX);
        assert_eq!(pruned.len(), 1);
        assert_eq!(chain.len(), 1);
        assert_eq!(chain.current(), Some(&row(3)));

        // A tombstoned chain vacuums down to empty.
        chain.mark_deleted(TxnId(12));
        let pruned = chain.vacuum(u64::MAX);
        assert_eq!(pruned.len(), 1);
        assert!(chain.is_empty());
    }

    fn contents(chain: &VersionChain) -> Vec<(u64, Option<u64>, Row)> {
        chain
            .versions()
            .map(|v| (v.begin.0, v.end.map(|t| t.0), v.row.clone()))
            .collect()
    }

    #[test]
    fn push_pop_push_moves_versions_between_the_slot_and_the_side() {
        let mut chain = VersionChain::new(TxnId(1), row(1));
        assert_eq!(chain.older.capacity(), 0, "a fresh row has no side vector");
        chain.push_version(TxnId(2), row(2));
        assert_eq!(
            contents(&chain),
            vec![(1, Some(2), row(1)), (2, None, row(2))],
            "versions() stays oldest-first across the inline/side split"
        );
        assert_eq!(chain.newest().row, row(2));

        // Undo: the superseded version comes back inline, re-opened.
        assert_eq!(chain.pop_version(TxnId(2)).row, row(2));
        assert_eq!(contents(&chain), vec![(1, None, row(1))]);
        assert!(chain.older.is_empty());
        assert!(!chain.has_dead());

        // And the chain takes writes again as if nothing had happened.
        chain.push_version(TxnId(3), row(3));
        chain.push_version(TxnId(4), row(4));
        assert_eq!(
            contents(&chain),
            vec![(1, Some(3), row(1)), (3, Some(4), row(3)), (4, None, row(4))]
        );
        assert_eq!(chain.len(), 3);
        assert_eq!(chain.visible(&snapshot(4, &[], None)), Some(&row(3)));
        assert_eq!(chain.visible(&snapshot(3, &[], None)), Some(&row(1)));
        assert_eq!(chain.visible(&snapshot(1, &[], None)), None);
        // Popping a version of an older writer's leaves its end mark alone.
        chain.pop_version(TxnId(4));
        assert_eq!(chain.current(), Some(&row(3)));
    }

    #[test]
    fn delete_then_undo_on_an_updated_row() {
        let mut chain = VersionChain::new(TxnId(1), row(1));
        chain.push_version(TxnId(2), row(2));
        chain.mark_deleted(TxnId(5));
        assert!(!chain.is_live());
        assert_eq!(chain.current(), None);
        assert_eq!(chain.visible(Snapshot::latest()), None);
        assert_eq!(chain.visible(&snapshot(5, &[], None)), Some(&row(2)));
        assert_eq!(chain.len(), 2, "a tombstone is a mark, not a version");
        chain.unmark_deleted(TxnId(5));
        assert_eq!(chain.current(), Some(&row(2)));
        assert_eq!(contents(&chain), vec![(1, Some(2), row(1)), (2, None, row(2))]);
    }

    #[test]
    fn vacuum_with_the_horizon_between_two_dead_versions() {
        let mut chain = VersionChain::new(TxnId(1), row(1));
        chain.push_version(TxnId(5), row(2));
        chain.push_version(TxnId(9), row(3));
        chain.mark_deleted(TxnId(12));
        // Ends are 5, 9, 12: horizon 9 takes the first only, and keeps the
        // order of what stays.
        let pruned = chain.vacuum(9);
        assert_eq!(pruned.len(), 1);
        assert_eq!(pruned[0].row, row(1));
        assert_eq!(
            contents(&chain),
            vec![(5, Some(9), row(2)), (9, Some(12), row(3))]
        );
        // Horizon 12 takes the second; the tombstone is still pinned.
        let pruned = chain.vacuum(12);
        assert_eq!(pruned.len(), 1);
        assert_eq!(pruned[0].row, row(2));
        assert_eq!(chain.older.capacity(), 0, "the side vector is handed over whole");
        assert!(!chain.is_empty());
        assert!(!chain.is_live());
        assert!(chain.vacuum(12).is_empty(), "nothing more below the horizon");
        // Past it, the tombstone is fully pruned and the chain is empty.
        let pruned = chain.vacuum(13);
        assert_eq!(pruned.len(), 1);
        assert_eq!(pruned[0].end, Some(TxnId(12)));
        assert!(chain.is_empty());
        assert_eq!(chain.len(), 0);
        assert_eq!(chain.versions().count(), 0);
    }

    #[test]
    fn vacuum_keeps_a_chain_whose_tombstone_goes_before_an_older_version() {
        // Txn 5 began before txn 7 but deleted the row after 7 had updated
        // it and committed: ends do not rise along this chain.
        let mut chain = VersionChain::new(TxnId(1), row(1));
        chain.push_version(TxnId(7), row(2));
        chain.mark_deleted(TxnId(5));
        let pruned = chain.vacuum(6);
        assert_eq!(pruned.len(), 1);
        assert_eq!(pruned[0].row, row(2));
        assert_eq!(contents(&chain), vec![(1, Some(7), row(1))]);
        assert!(!chain.is_empty() && !chain.is_live());
    }

    #[test]
    fn vacuum_prunes_a_long_chain_in_order() {
        // The chain a heartbeat row grows under a pinning snapshot.
        let mut chain = VersionChain::new(TxnId(1), row(0));
        for n in 1..=10_000u64 {
            chain.push_version(TxnId(n + 1), row(n as i64));
        }
        let pruned = chain.vacuum(5_002);
        assert_eq!(pruned.len(), 5_000);
        assert!(pruned.iter().map(|v| v.begin.0).eq(1..=5_000), "oldest first");
        assert_eq!(chain.len(), 5_001);
        assert!(chain.versions().map(|v| v.begin.0).eq(5_001..=10_001));
        assert_eq!(chain.vacuum(u64::MAX).len(), 5_000);
        assert_eq!(chain.len(), 1);
        assert_eq!(chain.current(), Some(&row(10_000)));
    }

    #[test]
    fn low_watermark_bounds_the_horizon() {
        assert_eq!(snapshot(7, &[], None).low_watermark(), 7);
        assert_eq!(snapshot(7, &[3, 5], None).low_watermark(), 3);
    }
}
