//! Heap-organised tables with eagerly maintained indexes and MVCC row
//! version chains.
//!
//! Every row is a `VersionChain`: the newest version is the *current*
//! state, older versions are retained until no live [`Snapshot`] can still
//! observe them (see [`crate::mvcc`]). Mutations run under the catalog
//! write guard and stamp versions with the writing transaction; readers pass
//! a snapshot to the access paths (`Table::scan`, the index lookups) and
//! the `RowIter` resolves each chain to the version their snapshot sees.
//!
//! The heap is a slab ([`crate::heap::Heap`]): a chain sits in the slot its
//! [`RowId`] addresses, with its newest version inline, so every path that
//! arrives with an id — an index hit, an `UPDATE`, an undo, a replayed log
//! record — reaches the version it wants without a search. The table issues
//! ids monotonically and **never reuses one** ([`Table::insert`] only counts
//! up; recovery's `insert_with_id` only raises the counter), which
//! is what lets a vacated slot stay vacant and lets the heap free a segment
//! the moment its last chain goes — by insert rollback, physical removal, or
//! vacuum dropping a fully pruned tombstone.
//!
//! Indexes are **multi-version**: they cover the keys of every retained
//! version, not just the current one, so a snapshot reader probing an index
//! still finds rows whose current version has moved to a different key.
//! Entries are retired when the last version holding their key is removed
//! (rollback or vacuum). Uniqueness is therefore enforced by the table
//! against *live* rows — an index entry alone no longer implies a conflict.
//!
//! The invariant every index keeps, both ways, is: **an entry `(k, id)`
//! exists exactly while some retained version of row `id` holds key `k`**
//! (NULL keys are never indexed). [`Table::check_consistency`] verifies
//! it. It is what lets `Table::count_postings` count a row whose chain
//! holds a single version by that version's visibility stamps alone: the
//! entry proves the version holds the key.

use crate::error::{Error, Result};
use crate::heap::{self, Heap};
use crate::index::Index;
use crate::mvcc::{RowVersion, Snapshot, VersionChain, COMMITTED_TXN};
use crate::obs::OpStats;
use crate::plan::TableStats;
use crate::schema::{IndexDef, Schema};
use crate::tuple::{Row, RowId, StoredRowRef};
use crate::value::Value;
use crate::wal::TxnId;
use std::collections::BTreeSet;
use std::collections::HashSet;
use std::sync::Arc;

/// A single table: schema, versioned row heap, primary-key index and
/// secondary indexes.
///
/// Every mutation keeps all indexes consistent with the retained versions;
/// the property-based tests in `tests/` check this invariant under random
/// workloads. Operation counts are accumulated into the [`OpStats`] passed by
/// the caller so the database can attribute work to the statement that caused
/// it.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table schema.
    pub schema: Schema,
    /// `schema.name`, interned: every logged change to this table shares it
    /// instead of allocating a copy.
    name: Arc<str>,
    /// Row id → version chain; see [`crate::heap`].
    rows: Heap<VersionChain>,
    next_row_id: u64,
    /// Unique index over the primary-key column, when one is declared.
    pk_index: Option<Index>,
    /// Secondary indexes, in declaration order.
    secondary: Vec<Index>,
    /// Rows whose newest version is open (the latest-state row count).
    live: usize,
    /// Retained versions with `end` set — the vacuum backlog.
    dead_versions: usize,
    /// Rows whose chain retains at least one dead version: exactly the
    /// chains a vacuum pass must visit. Maintained by every mutation so
    /// threshold vacuum after small-row churn touches O(churned rows)
    /// chains, not O(table).
    dirty: BTreeSet<RowId>,
    /// Smallest `end` transaction id among retained dead versions (may be
    /// conservatively low after an undo; exact after each vacuum). A
    /// threshold sweep is fruitful only when the snapshot horizon exceeds
    /// this, so writers never rescan a table a long-lived snapshot pins.
    min_dead_end: u64,
    /// The `SELECT *` output column list, shared so a wildcard query's
    /// result header is one refcount bump instead of a fresh vector.
    wildcard_columns: Arc<[Arc<str>]>,
    /// The same list spelled `table.column`: the output names of a joined
    /// select, interned here so a join formats no name per execution.
    qualified_columns: Arc<[Arc<str>]>,
    /// Planner statistics collected by `ANALYZE`, or `None` before the first
    /// run. Shared so the planner and the `rel_table_stats` system table
    /// read them without cloning.
    stats: Option<Arc<TableStats>>,
    /// Physical version counter, bumped by every mutation that can change
    /// which rows any snapshot observes. Together with an equal [`Snapshot`]
    /// it witnesses that a cached join build side is still exact.
    version: u64,
}

impl Table {
    /// Creates an empty table for `schema`. The schema must validate.
    pub fn new(schema: Schema) -> Result<Self> {
        schema.validate()?;
        let pk_index = schema.primary_key_index().map(|idx| {
            Index::new(format!("pk_{}", schema.name), idx, true)
        });
        let mut secondary = Vec::new();
        for def in &schema.indexes {
            let col = schema.column_index(&def.column)?;
            secondary.push(Index::new(def.name.clone(), col, def.unique));
        }
        let wildcard_columns = schema.columns.iter().map(|c| c.name.clone()).collect();
        let qualified_columns = schema
            .columns
            .iter()
            .map(|c| format!("{}.{}", schema.name, c.name).into())
            .collect();
        Ok(Table {
            name: schema.name.as_str().into(),
            schema,
            rows: Heap::new(),
            next_row_id: 1,
            pk_index,
            secondary,
            live: 0,
            dead_versions: 0,
            dirty: BTreeSet::new(),
            min_dead_end: u64::MAX,
            wildcard_columns,
            qualified_columns,
            stats: None,
            version: 0,
        })
    }

    /// The table's name (`schema.name`), shared.
    pub(crate) fn name(&self) -> &Arc<str> {
        &self.name
    }

    /// The physical version counter; see the field docs.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// The planner statistics collected by the last `ANALYZE`, if any.
    pub(crate) fn table_stats(&self) -> Option<&Arc<TableStats>> {
        self.stats.as_ref()
    }

    /// Installs freshly collected planner statistics. Statistics describe a
    /// moment in time, not the live table — they are not bumped by writes
    /// and go stale until the next `ANALYZE`.
    pub(crate) fn set_table_stats(&mut self, stats: TableStats) {
        self.stats = Some(Arc::new(stats));
    }

    /// Planner probe: `(distinct keys, unique)` of the first index covering
    /// the column at ordinal `column`. Distinct keys count retained
    /// versions' keys, so this is an upper-bound estimate of live-row
    /// distinctness that needs no ANALYZE.
    pub(crate) fn index_stats_on(&self, column: usize) -> Option<(usize, bool)> {
        self.index_on(column).map(|i| (i.distinct_keys(), i.unique))
    }

    /// Planner probe: the name of the first index covering the column at
    /// ordinal `column`.
    pub(crate) fn index_name_on(&self, column: usize) -> Option<&str> {
        self.index_on(column).map(|i| i.name.as_str())
    }

    /// The interned `SELECT *` output column list (schema order, shared).
    pub(crate) fn wildcard_columns(&self) -> Arc<[Arc<str>]> {
        Arc::clone(&self.wildcard_columns)
    }

    /// The interned `table.column` names of the columns, in schema order.
    pub(crate) fn qualified_columns(&self) -> &[Arc<str>] {
        &self.qualified_columns
    }

    /// Number of live rows (rows present in the latest state; old versions
    /// and tombstones awaiting vacuum are not counted).
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Total retained row versions, including current ones.
    pub(crate) fn total_versions(&self) -> usize {
        self.rows.values().map(VersionChain::len).sum()
    }

    /// Retained versions that have been superseded or deleted and await
    /// vacuuming.
    pub(crate) fn dead_versions(&self) -> usize {
        self.dead_versions
    }

    /// Number of chains currently retaining at least one dead version — the
    /// exact set a vacuum pass visits (the dirty-chain list).
    pub(crate) fn dirty_chain_count(&self) -> usize {
        self.dirty.len()
    }

    /// True when vacuuming with `horizon` could prune at least one version.
    /// Lets the write path's threshold trigger skip guaranteed-fruitless
    /// sweeps while a long-lived snapshot pins the whole backlog.
    pub(crate) fn vacuum_would_prune(&self, horizon: u64) -> bool {
        self.dead_versions > 0 && self.min_dead_end < horizon
    }

    /// Length of the longest version chain (1 when fully vacuumed).
    pub(crate) fn max_chain_len(&self) -> usize {
        self.rows.values().map(VersionChain::len).max().unwrap_or(0)
    }

    /// True when some *other* live row currently holds `key` in the column
    /// covered by `idx`. Dead versions retain index entries, so the entry
    /// set alone over-approximates; this resolves each candidate against its
    /// chain's current version.
    fn unique_conflict(&self, idx: &Index, key: &Value, exclude: Option<RowId>) -> bool {
        if key.is_null() {
            return false;
        }
        idx.rows_with_key(key).any(|id| {
            exclude != Some(id)
                && self
                    .rows
                    .get(id)
                    .and_then(VersionChain::current)
                    .is_some_and(|row| row.get(idx.column_idx) == key)
        })
    }

    /// Inserts a row after validation, returning its new row id. The new
    /// version is stamped as written by `txn` and stays invisible to
    /// snapshots that do not see `txn`.
    pub fn insert(&mut self, values: Vec<Value>, txn: TxnId, stats: &mut OpStats) -> Result<RowId> {
        let values = self.schema.validate_row(values)?;
        // Primary key must be non-null and unique among live rows.
        if let (Some(pk_idx), Some(pk_col)) = (&self.pk_index, self.schema.primary_key_index()) {
            let key = &values[pk_col];
            if key.is_null() {
                return Err(Error::constraint(format!(
                    "primary key of table {} cannot be NULL",
                    self.schema.name
                )));
            }
            if self.unique_conflict(pk_idx, key, None) {
                return Err(Error::constraint(format!(
                    "duplicate primary key {key} in table {}",
                    self.schema.name
                )));
            }
        }
        // Unique secondary indexes checked before any mutation so a failed
        // insert leaves the table untouched.
        for idx in &self.secondary {
            if idx.unique && self.unique_conflict(idx, &values[idx.column_idx], None) {
                return Err(Error::constraint(format!(
                    "duplicate key {} for unique index {}",
                    values[idx.column_idx], idx.name
                )));
            }
        }

        let id = RowId(self.next_row_id);
        self.next_row_id = self.next_row_id.checked_add(1).ok_or_else(|| {
            Error::ResourceExhausted(format!("table {} has issued every row id", self.schema.name))
        })?;
        if let Some(pk) = &mut self.pk_index {
            pk.insert(&values[pk.column_idx], id);
            stats.index_maintenance += 1;
        }
        for idx in &mut self.secondary {
            idx.insert(&values[idx.column_idx], id);
            stats.index_maintenance += 1;
        }
        self.rows.insert(id, VersionChain::new(txn, Row::new(values)));
        self.live += 1;
        self.version += 1;
        stats.rows_inserted += 1;
        stats.versions_created += 1;
        Ok(id)
    }

    /// Inserts a row with a pre-assigned id as an already-committed single
    /// version. Physical (non-transactional): used by WAL recovery, which
    /// replays committed history only.
    pub(crate) fn insert_with_id(&mut self, id: RowId, row: Row, stats: &mut OpStats) -> Result<()> {
        if self.rows.contains(id) {
            return Err(Error::internal(format!(
                "recovery inserted duplicate row id {id} into {}",
                self.schema.name
            )));
        }
        // The id comes off the log: one that leaves no successor would wrap
        // the counter and hand out ids already in use.
        let next_row_id = id.0.checked_add(1).ok_or_else(|| {
            Error::corruption(format!(
                "row id {id} in table {} leaves no id to issue next",
                self.schema.name
            ))
        })?;
        // A duplicated or corrupt WAL must fail recovery loudly, not recover
        // silently into a state that violates unique constraints.
        if let Some(pk) = &self.pk_index {
            if self.unique_conflict(pk, row.get(pk.column_idx), None) {
                return Err(Error::constraint(format!(
                    "recovery produced duplicate primary key {} in table {}",
                    row.get(pk.column_idx),
                    self.schema.name
                )));
            }
        }
        for idx in &self.secondary {
            if idx.unique && self.unique_conflict(idx, row.get(idx.column_idx), None) {
                return Err(Error::constraint(format!(
                    "recovery produced duplicate key {} for unique index {}",
                    row.get(idx.column_idx),
                    idx.name
                )));
            }
        }
        if let Some(pk) = &mut self.pk_index {
            pk.insert(row.get(pk.column_idx), id);
        }
        for idx in &mut self.secondary {
            idx.insert(row.get(idx.column_idx), id);
        }
        self.next_row_id = self.next_row_id.max(next_row_id);
        self.rows.insert(id, VersionChain::new(COMMITTED_TXN, row));
        self.live += 1;
        self.version += 1;
        stats.rows_inserted += 1;
        Ok(())
    }

    /// Returns the current (latest-state) row with id `id`, if it is live.
    pub(crate) fn get(&self, id: RowId) -> Option<&Row> {
        self.rows.get(id).and_then(VersionChain::current)
    }

    /// Deletes the row with id `id` on behalf of `txn`. The version is only
    /// tombstoned — snapshots that do not see `txn` keep reading it until
    /// vacuum.
    pub fn delete(&mut self, id: RowId, txn: TxnId, stats: &mut OpStats) -> Result<()> {
        let chain = self
            .rows
            .get_mut(id)
            .filter(|c| c.is_live())
            .ok_or_else(|| Error::not_found(format!("row {id} in table {}", self.schema.name)))?;
        chain.mark_deleted(txn);
        self.live -= 1;
        self.dead_versions += 1;
        self.dirty.insert(id);
        self.min_dead_end = self.min_dead_end.min(txn.0);
        self.version += 1;
        stats.rows_deleted += 1;
        Ok(())
    }

    /// Applies column assignments to the row with id `id` on behalf of
    /// `txn`, pushing a new version onto its chain. Returns the new version's
    /// contents (the image the log records); the row is copied twice — once
    /// to build the new version from the current one, once for the caller.
    pub fn update(
        &mut self,
        id: RowId,
        assignments: &[(usize, Value)],
        txn: TxnId,
        stats: &mut OpStats,
    ) -> Result<Row> {
        // Borrowed through the field, so the index maintenance below can
        // take `&mut` on the indexes while the current version is compared.
        let before = self
            .rows
            .get(id)
            .and_then(VersionChain::current)
            .ok_or_else(|| Error::not_found(format!("row {id} in table {}", self.schema.name)))?;
        let mut after = before.clone();
        for (col, value) in assignments {
            let col_def = self
                .schema
                .columns
                .get(*col)
                .ok_or_else(|| Error::internal(format!("column ordinal {col} out of range")))?;
            if value.is_null() && col_def.not_null {
                return Err(Error::constraint(format!(
                    "column {}.{} is NOT NULL",
                    self.schema.name, col_def.name
                )));
            }
            if !value.is_compatible_with(col_def.ty) {
                return Err(Error::type_err(format!(
                    "column {}.{} has type {}, got {}",
                    self.schema.name, col_def.name, col_def.ty, value
                )));
            }
            after.set(*col, value.coerce_to(col_def.ty)?);
        }

        // Check uniqueness constraints for any indexed column whose value
        // changed, against the *live* rows (dead versions don't conflict).
        let changed = |idx: &Index| {
            after.get(idx.column_idx).sql_eq(before.get(idx.column_idx)) != Some(true)
        };
        if let Some(pk) = &self.pk_index {
            if after.get(pk.column_idx).is_null() {
                return Err(Error::constraint(format!(
                    "primary key of table {} cannot be NULL",
                    self.schema.name
                )));
            }
            if changed(pk) && self.unique_conflict(pk, after.get(pk.column_idx), Some(id)) {
                return Err(Error::constraint(format!(
                    "duplicate primary key {} in table {}",
                    after.get(pk.column_idx),
                    self.schema.name
                )));
            }
        }
        for idx in &self.secondary {
            if idx.unique && changed(idx) && self.unique_conflict(idx, after.get(idx.column_idx), Some(id)) {
                return Err(Error::constraint(format!(
                    "duplicate key {} for unique index {}",
                    after.get(idx.column_idx),
                    idx.name
                )));
            }
        }

        // Index the new version's keys. Old entries stay: snapshot readers
        // may still probe the old key and must find this row.
        if let Some(pk) = &mut self.pk_index {
            let (old_key, new_key) = (before.get(pk.column_idx), after.get(pk.column_idx));
            if old_key != new_key {
                pk.insert(new_key, id);
                stats.index_maintenance += 1;
            }
        }
        for idx in &mut self.secondary {
            let (old_key, new_key) = (before.get(idx.column_idx), after.get(idx.column_idx));
            if old_key != new_key {
                idx.insert(new_key, id);
                stats.index_maintenance += 1;
            }
        }
        let chain = self.rows.get_mut(id).expect("checked live above");
        chain.push_version(txn, after.clone());
        self.dead_versions += 1;
        self.dirty.insert(id);
        self.min_dead_end = self.min_dead_end.min(txn.0);
        self.version += 1;
        stats.rows_updated += 1;
        stats.versions_created += 1;
        stats.max_version_chain = stats.max_version_chain.max(chain.len() as u64);
        Ok(after)
    }

    // --- rollback (version-aware undo) ---------------------------------------

    /// Undoes an INSERT by `txn`: removes the whole chain (every version in
    /// it was written by the aborting transaction).
    pub(crate) fn undo_insert(&mut self, id: RowId) {
        let mut scratch = OpStats::default();
        let _ = self.remove_physical(id, &mut scratch);
    }

    /// Undoes an UPDATE by `txn`: pops the newest version and re-opens the
    /// version it superseded.
    pub(crate) fn undo_update(&mut self, id: RowId, txn: TxnId) {
        let Some(chain) = self.rows.get_mut(id) else {
            return;
        };
        let popped = chain.pop_version(txn);
        self.dead_versions -= 1;
        self.version += 1;
        if !chain.has_dead() {
            self.dirty.remove(&id);
        }
        self.retire_version_entries(id, std::slice::from_ref(&popped));
    }

    /// Undoes a DELETE by `txn`: clears the tombstone mark.
    pub(crate) fn undo_delete(&mut self, id: RowId, txn: TxnId) {
        if let Some(chain) = self.rows.get_mut(id) {
            chain.unmark_deleted(txn);
            self.live += 1;
            self.dead_versions -= 1;
            self.version += 1;
            if !chain.has_dead() {
                self.dirty.remove(&id);
            }
        }
    }

    // --- physical operations (recovery) --------------------------------------

    /// Physically removes a row and all its versions. Used by WAL recovery
    /// (which replays committed history into flat, single-version state) and
    /// by insert rollback.
    pub(crate) fn remove_physical(&mut self, id: RowId, stats: &mut OpStats) -> Result<()> {
        let chain = self
            .rows
            .remove(id)
            .ok_or_else(|| Error::not_found(format!("row {id} in table {}", self.schema.name)))?;
        if chain.is_live() {
            self.live -= 1;
        }
        self.dirty.remove(&id);
        // The whole chain is gone, so every key any version held goes too.
        for v in chain.into_versions() {
            if v.end.is_some() {
                self.dead_versions -= 1;
            }
            for idx in self.pk_index.iter_mut().chain(&mut self.secondary) {
                idx.remove(v.row.get(idx.column_idx), id);
            }
        }
        self.version += 1;
        stats.rows_deleted += 1;
        Ok(())
    }

    /// Restores a row to exact prior contents as a committed single version.
    /// Physical, like [`Table::remove_physical`]: used by WAL recovery redo.
    pub(crate) fn restore(&mut self, id: RowId, row: Row) -> Result<()> {
        let mut scratch = OpStats::default();
        if self.rows.contains(id) {
            self.remove_physical(id, &mut scratch)?;
        }
        self.insert_with_id(id, row, &mut scratch)
    }

    /// Removes the index entries of `versions` (versions popped from the
    /// chain of `id`) whose keys no longer appear in any retained version.
    fn retire_version_entries(&mut self, id: RowId, versions: &[RowVersion]) {
        let remaining = self.rows.get(id);
        for idx in self.pk_index.iter_mut().chain(&mut self.secondary) {
            for v in versions {
                let key = v.row.get(idx.column_idx);
                let still_held = remaining.is_some_and(|chain| {
                    chain.versions().any(|r| r.row.get(idx.column_idx) == key)
                });
                if !still_held {
                    idx.remove(key, id);
                }
            }
        }
    }

    // --- vacuum ---------------------------------------------------------------

    /// Prunes versions no snapshot at or above `horizon` can observe (see
    /// [`crate::mvcc`] for the horizon rule), retiring their index entries,
    /// and drops chains left empty. Returns the number of versions pruned.
    pub fn vacuum(&mut self, horizon: u64, stats: &mut OpStats) -> usize {
        if self.dead_versions == 0 {
            return 0;
        }
        // Phase 1: prune in place, visiting only the dirty chains — the rows
        // known to retain a dead version — so a sweep after small-row churn
        // costs O(churned rows), not O(table). Recompute the exact minimum
        // `end` among the dead versions that survive (a pinning snapshot may
        // keep some), so the threshold trigger knows when a future sweep
        // could be fruitful, and shrink the dirty list to the survivors.
        let mut shrunk: Vec<(RowId, Vec<RowVersion>)> = Vec::new();
        let mut still_dirty = BTreeSet::new();
        let mut pruned_total = 0usize;
        let mut min_dead_end = u64::MAX;
        for &id in &self.dirty {
            let chain = self
                .rows
                .get_mut(id)
                .expect("dirty chains always exist in the heap");
            let pruned = chain.vacuum(horizon);
            let mut has_dead = false;
            for v in chain.versions() {
                if let Some(end) = v.end {
                    has_dead = true;
                    min_dead_end = min_dead_end.min(end.0);
                }
            }
            if has_dead {
                still_dirty.insert(id);
            }
            if !pruned.is_empty() {
                pruned_total += pruned.len();
                shrunk.push((id, pruned));
            }
        }
        self.dirty = still_dirty;
        self.min_dead_end = min_dead_end;
        // Phase 2: drop emptied chains and retire stale index entries.
        for (id, pruned) in shrunk {
            if self.rows.get(id).is_some_and(VersionChain::is_empty) {
                self.rows.remove(id);
            }
            self.retire_version_entries(id, &pruned);
        }
        self.dead_versions -= pruned_total;
        if pruned_total > 0 {
            self.version += 1;
        }
        stats.versions_vacuumed += pruned_total as u64;
        pruned_total
    }

    // --- access paths ---------------------------------------------------------

    /// Full scan in row-id order, streaming the row version each chain shows
    /// to `vis`. Nothing is cloned; the caller copies only the values it
    /// keeps.
    pub(crate) fn scan<'a>(&'a self, vis: &'a Snapshot, stats: &mut OpStats) -> RowIter<'a> {
        stats.rows_scanned += self.rows.len() as u64;
        stats.rows_read += self.rows.len() as u64;
        RowIter::Scan {
            iter: self.rows.iter(),
            vis,
        }
    }

    /// Point lookup through the first index (primary or secondary) covering
    /// the column at ordinal `column`, streaming visible borrowed rows.
    /// Returns `None` if no such index exists.
    pub(crate) fn lookup_indexed<'a>(
        &'a self,
        column: usize,
        key: &Value,
        vis: &'a Snapshot,
        stats: &mut OpStats,
    ) -> Option<RowIter<'a>> {
        let set = self.postings(column, key, stats)?;
        Some(RowIter::Ids {
            rows: &self.rows,
            ids: set.into(),
            vis,
        })
    }

    /// The posting list of exactly `key` in the first index covering the
    /// column at ordinal `column`, accounted as one index lookup that reads
    /// every entry. `None` without an index.
    fn postings(
        &self,
        column: usize,
        key: &Value,
        stats: &mut OpStats,
    ) -> Option<Option<&BTreeSet<RowId>>> {
        let idx = self.index_on(column)?;
        stats.index_lookups += 1;
        let set = idx.lookup_set(key);
        stats.rows_read += set.map_or(0, BTreeSet::len) as u64;
        Some(set)
    }

    /// Walks the posting list of exactly `key` in the first index covering
    /// the column at ordinal `column`, one item per entry: whether the row it names counts
    /// towards `COUNT(*) … WHERE column = key` under `vis`. By the index
    /// invariant (module docs) a chain of one version holds `key`, so it
    /// counts iff that version is visible — its stamps decide, its row is
    /// never dereferenced. Any other chain counts iff the version `vis`
    /// sees holds `key`, the re-check every index read makes. Accounted like
    /// [`Table::lookup_indexed`]: one lookup, one row read per entry.
    /// `None` without an index.
    pub(crate) fn count_postings<'a>(
        &'a self,
        column: usize,
        key: &'a Value,
        vis: &'a Snapshot,
        stats: &mut OpStats,
    ) -> Option<impl Iterator<Item = bool> + 'a> {
        let set = self.postings(column, key, stats)?;
        Some(set.into_iter().flatten().map(move |&id| {
            self.rows.get(id).is_some_and(|chain| match chain.sole() {
                Some(version) => vis.visible(version),
                None => chain
                    .visible(vis)
                    .is_some_and(|row| row.get(column).sql_eq(key) == Some(true)),
            })
        }))
    }

    /// Range lookup through the first index (primary or secondary) covering
    /// the column at ordinal `column`: streams the visible rows whose key
    /// lies in `[lo, hi]` (either bound may be open). Returns `None` if no
    /// such index exists.
    pub(crate) fn lookup_range<'a>(
        &'a self,
        column: usize,
        lo: Option<&Value>,
        hi: Option<&Value>,
        vis: &'a Snapshot,
        stats: &mut OpStats,
    ) -> Option<RowIter<'a>> {
        let idx = self.index_on(column)?;
        stats.index_lookups += 1;
        let ids = idx.range(lo, hi);
        stats.rows_read += ids.len() as u64;
        Some(RowIter::Ids {
            rows: &self.rows,
            ids: IdSource::Vec(ids.into_iter()),
            vis,
        })
    }

    /// Planner probe: how many entries the first index covering the column
    /// at ordinal `column` holds under exactly `key` — the rows a point
    /// lookup on that key touches, stale entries of retained versions
    /// included. O(log n) and exact at any time; no `ANALYZE` involved.
    /// `None` without an index.
    pub(crate) fn posting_len(&self, column: usize, key: &Value) -> Option<usize> {
        let idx = self.index_on(column)?;
        Some(idx.lookup_set(key).map_or(0, BTreeSet::len))
    }

    /// Walks the first index covering the column at ordinal `column` in key
    /// order (descending when asked; rows of equal key in ascending row-id
    /// order both ways), lazily, one item per index entry visited: the row, when the version `vis`
    /// sees holds that entry's key, and `None` for an entry that is stale or
    /// invisible to this snapshot. Entries cover every retained version, so
    /// emitting a row only under its visible key is also what yields it
    /// exactly once. Rows whose key is NULL are not indexed and never
    /// appear. Returns `None` if no index covers `column`; the caller counts
    /// `rows_read` per item it takes.
    pub(crate) fn walk_ordered<'a>(
        &'a self,
        column: usize,
        descending: bool,
        vis: &'a Snapshot,
        stats: &mut OpStats,
    ) -> Option<impl Iterator<Item = Option<&'a Row>> + 'a> {
        let idx = self.index_on(column)?;
        stats.index_lookups += 1;
        Some(idx.entries_in_key_order(descending).map(move |(key, id)| {
            self.rows
                .get(id)
                .and_then(|chain| chain.visible(vis))
                .filter(|row| row.get(column) == key)
        }))
    }

    /// The first index (primary or secondary) covering the column at
    /// ordinal `column`, if any.
    fn index_on(&self, column: usize) -> Option<&Index> {
        match &self.pk_index {
            Some(pk) if pk.column_idx == column => Some(pk),
            _ => self.secondary.iter().find(|i| i.column_idx == column),
        }
    }

    /// The ordinals of the indexed columns: primary key first, then
    /// secondary indexes in declaration order.
    pub(crate) fn indexed_columns(&self) -> impl Iterator<Item = usize> + '_ {
        self.pk_index.iter().chain(self.secondary.iter()).map(|idx| idx.column_idx)
    }

    /// Adds a secondary index in place, covering the keys of every retained
    /// version. For a unique index, uniqueness is checked over the *live*
    /// rows first; old versions may freely share keys.
    pub(crate) fn add_index(&mut self, def: IndexDef, stats: &mut OpStats) -> Result<()> {
        let col = self.schema.column_index(&def.column)?;
        if def.unique {
            let mut seen: HashSet<&Value> = HashSet::new();
            for chain in self.rows.values() {
                if let Some(row) = chain.current() {
                    let key = row.get(col);
                    if !key.is_null() && !seen.insert(key) {
                        return Err(Error::constraint(format!(
                            "duplicate key {key} for unique index {}",
                            def.name
                        )));
                    }
                }
            }
        }
        let mut idx = Index::new(def.name.clone(), col, def.unique);
        for (id, chain) in &self.rows {
            for v in chain.versions() {
                idx.insert(v.row.get(col), id);
                stats.index_maintenance += 1;
            }
        }
        self.schema.indexes.push(def);
        self.secondary.push(idx);
        self.version += 1;
        Ok(())
    }

    /// Removes the secondary index `name` and its schema entry: the undo of
    /// [`Table::add_index`].
    pub(crate) fn drop_index(&mut self, name: &str) {
        self.schema.indexes.retain(|def| def.name != name);
        self.secondary.retain(|idx| idx.name != name);
        self.version += 1;
    }

    /// Approximate resident size of the table in bytes: the heap's slots
    /// and directory, what the retained versions hold outside their slots,
    /// and the index entries.
    pub(crate) fn approx_size(&self) -> usize {
        let heap = self.rows.approx_overhead()
            + self.rows.values().map(VersionChain::approx_size).sum::<usize>();
        let index_entries = self.pk_index.as_ref().map(|i| i.len()).unwrap_or(0)
            + self.secondary.iter().map(|i| i.len()).sum::<usize>();
        heap + index_entries * 24
    }

    /// Internal consistency check used by tests: every retained version's
    /// key is indexed, index entry counts match the retained key sets, the
    /// version-chain invariants hold, and unique indexes have no duplicate
    /// keys among live rows.
    pub fn check_consistency(&self) -> Result<()> {
        // Chain invariants and the cached counters.
        let mut live = 0usize;
        let mut dead = 0usize;
        for (id, chain) in &self.rows {
            if chain.is_empty() {
                return Err(Error::internal(format!("row {id} has an empty chain")));
            }
            let n = chain.len();
            for (i, v) in chain.versions().enumerate() {
                if i + 1 < n && v.end.is_none() {
                    return Err(Error::internal(format!(
                        "row {id}: non-newest version without an end mark"
                    )));
                }
                if v.end.is_some() {
                    dead += 1;
                }
            }
            if chain.is_live() {
                live += 1;
            }
        }
        if live != self.live || dead != self.dead_versions {
            return Err(Error::internal(format!(
                "cached counters drifted: live {}/{} dead {}/{}",
                self.live, live, self.dead_versions, dead
            )));
        }

        // The dirty-chain list is exactly the set of chains retaining a
        // dead version — no stale entries, nothing missed.
        for id in &self.dirty {
            if !self.rows.contains(*id) {
                return Err(Error::internal(format!(
                    "dirty-chain list names removed row {id}"
                )));
            }
        }
        for (id, chain) in &self.rows {
            let has_dead = chain.versions().any(|v| v.end.is_some());
            if has_dead != self.dirty.contains(&id) {
                return Err(Error::internal(format!(
                    "dirty-chain list out of sync for row {id} (has_dead = {has_dead})"
                )));
            }
        }

        let mut indexes: Vec<&Index> = Vec::new();
        if let Some(pk) = &self.pk_index {
            indexes.push(pk);
        }
        indexes.extend(self.secondary.iter());
        for idx in indexes {
            let mut expected_entries = 0usize;
            for (id, chain) in &self.rows {
                let mut keys: Vec<&Value> = Vec::new();
                for v in chain.versions() {
                    let key = v.row.get(idx.column_idx);
                    if key.is_null() || keys.contains(&key) {
                        continue;
                    }
                    keys.push(key);
                    expected_entries += 1;
                    if !idx.lookup_set(key).is_some_and(|s| s.contains(&id)) {
                        return Err(Error::internal(format!(
                            "row {id} version key {key} missing from index {}",
                            idx.name
                        )));
                    }
                }
            }
            if idx.len() != expected_entries {
                return Err(Error::internal(format!(
                    "index {} has {} entries but {} version keys are indexable",
                    idx.name,
                    idx.len(),
                    expected_entries
                )));
            }
            if idx.unique {
                let mut seen: HashSet<&Value> = HashSet::new();
                for chain in self.rows.values() {
                    if let Some(row) = chain.current() {
                        let key = row.get(idx.column_idx);
                        if !key.is_null() && !seen.insert(key) {
                            return Err(Error::internal(format!(
                                "unique index {} has duplicate live key {key}",
                                idx.name
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Streaming access path over a table: either a heap scan in row-id order or
/// a set of index-qualified row ids, resolved against a [`Snapshot`]. Yields
/// borrowed [`StoredRowRef`]s — the version each chain shows to the snapshot
/// — so the executor can evaluate predicates without materialising owned
/// rows.
#[derive(Debug)]
pub(crate) enum RowIter<'a> {
    /// Full heap scan.
    Scan {
        /// Chains in row-id order.
        iter: heap::Iter<'a, VersionChain>,
        /// The snapshot versions are resolved against.
        vis: &'a Snapshot,
    },
    /// Rows named by an index lookup, resolved lazily against the heap.
    Ids {
        /// The table heap the ids point into.
        rows: &'a Heap<VersionChain>,
        /// Ids produced by the index, in ascending row-id order and free of
        /// duplicates (see [`crate::index::Index::range`]).
        ids: IdSource<'a>,
        /// The snapshot versions are resolved against.
        vis: &'a Snapshot,
    },
}

/// The ids feeding a [`RowIter::Ids`]: point lookups stream a borrowed
/// index entry set so the per-statement hot path allocates nothing; range
/// lookups own their (merged, de-duplicated) id vector.
#[derive(Debug)]
pub(crate) enum IdSource<'a> {
    /// A borrowed index entry set (point lookup).
    Set(std::iter::Copied<std::collections::btree_set::Iter<'a, RowId>>),
    /// An owned id list (range lookup, or an empty point lookup).
    Vec(std::vec::IntoIter<RowId>),
}

impl IdSource<'_> {
    /// An empty source; `Vec::new()` does not allocate.
    fn empty() -> Self {
        IdSource::Vec(Vec::new().into_iter())
    }
}

impl<'a> From<Option<&'a BTreeSet<RowId>>> for IdSource<'a> {
    fn from(set: Option<&'a BTreeSet<RowId>>) -> Self {
        match set {
            Some(s) => IdSource::Set(s.iter().copied()),
            None => IdSource::empty(),
        }
    }
}

impl Iterator for IdSource<'_> {
    type Item = RowId;

    #[inline]
    fn next(&mut self) -> Option<RowId> {
        match self {
            IdSource::Set(it) => it.next(),
            IdSource::Vec(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            IdSource::Set(it) => it.size_hint(),
            IdSource::Vec(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for IdSource<'_> {}

impl<'a> Iterator for RowIter<'a> {
    type Item = StoredRowRef<'a>;

    fn next(&mut self) -> Option<StoredRowRef<'a>> {
        match self {
            RowIter::Scan { iter, vis } => iter.find_map(|(id, chain)| {
                chain.visible(vis).map(|row| StoredRowRef { id, row })
            }),
            RowIter::Ids { rows, ids, vis } => {
                // An index entry may point at a chain whose visible version
                // has a different key (or none at all); the caller re-applies
                // its filter, this just resolves visibility.
                ids.find_map(|id| {
                    rows.get(id)
                        .and_then(|chain| chain.visible(vis))
                        .map(|row| StoredRowRef { id, row })
                })
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            RowIter::Scan { .. } => (0, None),
            RowIter::Ids { ids, .. } => (0, Some(ids.len())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    /// Reference probes, used only to check the table.
    impl Table {
        fn is_empty(&self) -> bool {
            self.live == 0
        }

        /// Point lookup by primary key; a scan when there is none.
        fn lookup_pk<'a>(&'a self, key: &Value, vis: &'a Snapshot, stats: &mut OpStats) -> RowIter<'a> {
            match &self.pk_index {
                Some(pk) => {
                    stats.index_lookups += 1;
                    let set = pk.lookup_set(key);
                    stats.rows_read += set.map_or(0, BTreeSet::len) as u64;
                    RowIter::Ids {
                        rows: &self.rows,
                        ids: set.into(),
                        vis,
                    }
                }
                None => self.scan(vis, stats),
            }
        }

        /// True when some index covers the column named `column`.
        pub(crate) fn has_index_on(&self, column: &str) -> bool {
            self.schema.column_index(column).is_ok_and(|c| self.index_on(c).is_some())
        }
    }

    const SETUP: TxnId = COMMITTED_TXN;
    /// Ordinals of `machines_table`'s `state` and `load` columns.
    const STATE: usize = 2;
    const LOAD: usize = 3;

    fn machines_table() -> Table {
        let schema = Schema::new(
            "machines",
            vec![
                Column::not_null("machine_id", DataType::Int),
                Column::not_null("name", DataType::Text),
                Column::new("state", DataType::Text),
                Column::new("load", DataType::Double),
            ],
        )
        .with_primary_key("machine_id")
        .with_index("state")
        .with_unique_index("name");
        Table::new(schema).unwrap()
    }

    fn row(id: i64, name: &str, state: &str, load: f64) -> Vec<Value> {
        vec![
            Value::Int(id),
            Value::Text(name.into()),
            Value::Text(state.into()),
            Value::Double(load),
        ]
    }

    fn latest() -> &'static Snapshot {
        Snapshot::latest()
    }

    #[test]
    fn insert_and_lookup_by_pk() {
        let mut t = machines_table();
        let mut stats = OpStats::default();
        let id = t.insert(row(1, "node01", "idle", 0.1), SETUP, &mut stats).unwrap();
        t.insert(row(2, "node02", "busy", 0.9), SETUP, &mut stats).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(stats.rows_inserted, 2);
        assert_eq!(stats.versions_created, 2);
        let found: Vec<_> = t.lookup_pk(&Value::Int(1), latest(), &mut stats).collect();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].id, id);
        assert_eq!(found[0].row.get(1), &Value::Text("node01".into()));
        t.check_consistency().unwrap();
    }

    #[test]
    fn duplicate_primary_key_rejected_atomically() {
        let mut t = machines_table();
        let mut stats = OpStats::default();
        t.insert(row(1, "node01", "idle", 0.1), SETUP, &mut stats).unwrap();
        let err = t.insert(row(1, "node99", "idle", 0.1), SETUP, &mut stats);
        assert!(matches!(err, Err(Error::Constraint(_))));
        assert_eq!(t.len(), 1);
        t.check_consistency().unwrap();
    }

    #[test]
    fn unique_secondary_index_enforced() {
        let mut t = machines_table();
        let mut stats = OpStats::default();
        t.insert(row(1, "node01", "idle", 0.1), SETUP, &mut stats).unwrap();
        assert!(t.insert(row(2, "node01", "idle", 0.1), SETUP, &mut stats).is_err());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_tombstones_and_vacuum_collects() {
        let mut t = machines_table();
        let mut stats = OpStats::default();
        let id = t.insert(row(1, "node01", "idle", 0.1), SETUP, &mut stats).unwrap();
        t.delete(id, TxnId(5), &mut stats).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.dead_versions(), 1);
        // The tombstoned version stays visible to a snapshot predating txn 5.
        let old = Snapshot {
            high: 5,
            in_flight: Vec::new(),
            own: None,
        };
        assert_eq!(t.scan(&old, &mut stats).count(), 1);
        // ...but not to the latest view.
        assert!(t
            .lookup_indexed(STATE, &Value::Text("idle".into()), latest(), &mut stats)
            .unwrap()
            .next()
            .is_none());
        assert!(t.delete(id, TxnId(6), &mut stats).is_err());
        t.check_consistency().unwrap();

        // Vacuum with no live snapshots removes the chain and index entries.
        assert_eq!(t.vacuum(u64::MAX, &mut stats), 1);
        assert_eq!(t.dead_versions(), 0);
        assert_eq!(t.total_versions(), 0);
        assert_eq!(stats.versions_vacuumed, 1);
        t.check_consistency().unwrap();
    }

    #[test]
    fn update_keeps_old_version_reachable_through_indexes() {
        let mut t = machines_table();
        let mut stats = OpStats::default();
        let id = t.insert(row(1, "node01", "idle", 0.1), SETUP, &mut stats).unwrap();
        let state_col = t.schema.column_index("state").unwrap();
        let after = t
            .update(id, &[(state_col, Value::Text("busy".into()))], TxnId(7), &mut stats)
            .unwrap();
        assert_eq!(after.get(state_col), &Value::Text("busy".into()));
        assert_eq!(t.get(id), Some(&after));
        assert_eq!(t.max_chain_len(), 2);
        assert_eq!(stats.max_version_chain, 2);

        // Latest view: the retained 'idle' entry still names the row (the
        // index yields a superset; callers re-apply their filter), but the
        // version it resolves to carries the new key.
        let stale: Vec<_> = t
            .lookup_indexed(STATE, &Value::Text("idle".into()), latest(), &mut stats)
            .unwrap()
            .collect();
        assert_eq!(stale.len(), 1);
        assert_eq!(
            stale[0].row.get(state_col),
            &Value::Text("busy".into()),
            "a filter on state = 'idle' would reject the resolved version"
        );
        assert_eq!(
            t.lookup_indexed(STATE, &Value::Text("busy".into()), latest(), &mut stats)
                .unwrap()
                .count(),
            1
        );

        // A snapshot that does not see txn 7 reads the old version through
        // the old index key.
        let old = Snapshot {
            high: 7,
            in_flight: Vec::new(),
            own: None,
        };
        let via_old_key: Vec<_> = t
            .lookup_indexed(STATE, &Value::Text("idle".into()), &old, &mut stats)
            .unwrap()
            .collect();
        assert_eq!(via_old_key.len(), 1);
        assert_eq!(via_old_key[0].row.get(state_col), &Value::Text("idle".into()));
        t.check_consistency().unwrap();

        // Vacuum prunes the superseded version and retires the stale entry.
        assert_eq!(t.vacuum(u64::MAX, &mut stats), 1);
        assert_eq!(t.max_chain_len(), 1);
        assert!(t
            .lookup_indexed(STATE, &Value::Text("idle".into()), &old, &mut stats)
            .unwrap()
            .next()
            .is_none());
        t.check_consistency().unwrap();
    }

    #[test]
    fn ordered_walk_emits_each_row_under_its_visible_key_only() {
        let mut t = machines_table();
        let mut stats = OpStats::default();
        for (id, state) in [(1, "idle"), (2, "busy"), (3, "idle")] {
            t.insert(row(id, &format!("node{id:02}"), state, 0.0), SETUP, &mut stats)
                .unwrap();
        }
        // Row 1 moves idle -> zzz (txn 7) and row 3 is deleted (txn 8): the
        // `state` index now holds a stale 'idle' entry for each.
        let state_col = t.schema.column_index("state").unwrap();
        t.update(RowId(1), &[(state_col, Value::Text("zzz".into()))], TxnId(7), &mut stats)
            .unwrap();
        t.delete(RowId(3), TxnId(8), &mut stats).unwrap();
        assert_eq!(t.posting_len(STATE, &Value::Text("idle".into())), Some(2));
        assert_eq!(t.posting_len(LOAD, &Value::Int(0)), None, "no index on load");

        let walk = |vis: &Snapshot, descending: bool| -> Vec<Option<i64>> {
            t.walk_ordered(STATE, descending, vis, &mut OpStats::default())
                .unwrap()
                .map(|r| r.map(|r| r.get(0).as_int().unwrap()))
                .collect()
        };
        // Latest: entries busy/2, idle/1 (stale), idle/3 (deleted), zzz/1.
        assert_eq!(walk(latest(), false), vec![Some(2), None, None, Some(1)]);
        assert_eq!(walk(latest(), true), vec![Some(1), None, None, Some(2)]);
        // A snapshot from before both writes reads the old keys, and skips
        // the entry of the version it cannot see.
        let old = Snapshot {
            high: 7,
            in_flight: Vec::new(),
            own: None,
        };
        assert_eq!(walk(&old, false), vec![Some(2), Some(1), Some(3), None]);
        assert!(t
            .walk_ordered(LOAD, false, latest(), &mut stats)
            .is_none());
    }

    #[test]
    fn vacuum_would_prune_tracks_the_horizon() {
        let mut t = machines_table();
        let mut stats = OpStats::default();
        t.insert(row(1, "node01", "idle", 0.1), SETUP, &mut stats).unwrap();
        assert!(!t.vacuum_would_prune(u64::MAX), "no dead versions yet");
        let state_col = t.schema.column_index("state").unwrap();
        t.update(RowId(1), &[(state_col, Value::Text("busy".into()))], TxnId(5), &mut stats)
            .unwrap();
        // The version ended by txn 5 is prunable only once the horizon
        // passes 5 — a sweep below that is guaranteed fruitless.
        assert!(!t.vacuum_would_prune(5));
        assert!(t.vacuum_would_prune(6));
        assert_eq!(t.vacuum(5, &mut stats), 0, "pinned: nothing pruned");
        assert_eq!(t.vacuum(6, &mut stats), 1);
        assert!(!t.vacuum_would_prune(u64::MAX), "backlog fully reclaimed");
        t.check_consistency().unwrap();
    }

    #[test]
    fn vacuum_visits_only_dirty_chains() {
        let mut t = machines_table();
        let mut stats = OpStats::default();
        for i in 1..=500 {
            t.insert(row(i, &format!("node{i:03}"), "idle", 0.0), SETUP, &mut stats)
                .unwrap();
        }
        assert_eq!(t.dirty_chain_count(), 0, "a fresh table has no dead versions");

        // Churn a handful of rows: 3 updates and 1 delete out of 500.
        let load_col = t.schema.column_index("load").unwrap();
        for (i, id) in [2u64, 40, 99].iter().enumerate() {
            t.update(RowId(*id), &[(load_col, Value::Double(0.5))], TxnId(10 + i as u64), &mut stats)
                .unwrap();
        }
        t.delete(RowId(7), TxnId(20), &mut stats).unwrap();
        assert_eq!(
            t.dirty_chain_count(),
            4,
            "only the churned chains are on the vacuum worklist, not all 500"
        );
        assert_eq!(t.dead_versions(), 4);
        t.check_consistency().unwrap();

        // The sweep prunes exactly the churned chains and empties the list.
        assert_eq!(t.vacuum(u64::MAX, &mut stats), 4);
        assert_eq!(t.dirty_chain_count(), 0);
        assert_eq!(t.dead_versions(), 0);
        assert_eq!(t.len(), 499);
        t.check_consistency().unwrap();

        // A pinning horizon keeps a chain on the worklist until it clears.
        t.update(RowId(3), &[(load_col, Value::Double(0.9))], TxnId(30), &mut stats)
            .unwrap();
        assert_eq!(t.vacuum(30, &mut stats), 0, "pinned: nothing pruned");
        assert_eq!(t.dirty_chain_count(), 1, "the pinned chain stays dirty");
        assert_eq!(t.vacuum(31, &mut stats), 1);
        assert_eq!(t.dirty_chain_count(), 0);
        t.check_consistency().unwrap();
    }

    #[test]
    fn update_rejects_constraint_violations() {
        let mut t = machines_table();
        let mut stats = OpStats::default();
        let id1 = t.insert(row(1, "node01", "idle", 0.1), SETUP, &mut stats).unwrap();
        t.insert(row(2, "node02", "idle", 0.1), SETUP, &mut stats).unwrap();
        let name_col = t.schema.column_index("name").unwrap();
        assert!(t
            .update(id1, &[(name_col, Value::Text("node02".into()))], TxnId(3), &mut stats)
            .is_err());
        let pk_col = t.schema.column_index("machine_id").unwrap();
        assert!(t.update(id1, &[(pk_col, Value::Int(2))], TxnId(3), &mut stats).is_err());
        assert!(t.update(id1, &[(pk_col, Value::Null)], TxnId(3), &mut stats).is_err());
        // Setting the same unique value on the same row is fine.
        assert!(t
            .update(id1, &[(name_col, Value::Text("node01".into()))], TxnId(3), &mut stats)
            .is_ok());
        t.check_consistency().unwrap();
    }

    #[test]
    fn dead_versions_do_not_block_unique_reuse() {
        let mut t = machines_table();
        let mut stats = OpStats::default();
        let id = t.insert(row(1, "node01", "idle", 0.1), SETUP, &mut stats).unwrap();
        // Delete (tombstone) the row; its unique name entry is retained for
        // old snapshots, but a new live row may reuse the name.
        t.delete(id, TxnId(2), &mut stats).unwrap();
        t.insert(row(5, "node01", "idle", 0.0), TxnId(3), &mut stats).unwrap();
        assert_eq!(t.len(), 1);
        t.check_consistency().unwrap();

        // Same through update: renaming away frees the old name for others.
        let name_col = t.schema.column_index("name").unwrap();
        let live_id = RowId(2);
        t.update(live_id, &[(name_col, Value::Text("node09".into()))], TxnId(4), &mut stats)
            .unwrap();
        t.insert(row(6, "node01", "idle", 0.0), TxnId(5), &mut stats).unwrap();
        t.check_consistency().unwrap();
    }

    #[test]
    fn undo_round_trips_restore_prior_versions() {
        let mut t = machines_table();
        let mut stats = OpStats::default();
        let id = t.insert(row(1, "node01", "idle", 0.1), SETUP, &mut stats).unwrap();
        let state_col = t.schema.column_index("state").unwrap();
        let txn = TxnId(9);

        // Update then undo: back to the original version, index clean.
        t.update(id, &[(state_col, Value::Text("busy".into()))], txn, &mut stats)
            .unwrap();
        t.undo_update(id, txn);
        assert_eq!(t.get(id).unwrap().get(state_col), &Value::Text("idle".into()));
        assert_eq!(t.max_chain_len(), 1);
        t.check_consistency().unwrap();

        // Delete then undo: the row is live again.
        t.delete(id, txn, &mut stats).unwrap();
        t.undo_delete(id, txn);
        assert_eq!(t.len(), 1);
        t.check_consistency().unwrap();

        // Insert then undo: the chain is gone entirely.
        let id2 = t.insert(row(2, "node02", "idle", 0.2), txn, &mut stats).unwrap();
        t.undo_insert(id2);
        assert_eq!(t.len(), 1);
        assert!(t.get(id2).is_none());
        t.check_consistency().unwrap();
    }

    #[test]
    fn scan_returns_rows_in_id_order() {
        let mut t = machines_table();
        let mut stats = OpStats::default();
        for i in 1..=5 {
            t.insert(row(i, &format!("node{i:02}"), "idle", 0.0), SETUP, &mut stats)
                .unwrap();
        }
        let rows: Vec<_> = t.scan(latest(), &mut stats).collect();
        assert_eq!(rows.len(), 5);
        assert!(rows.windows(2).all(|w| w[0].id < w[1].id));
        assert_eq!(stats.rows_scanned, 5);
    }

    #[test]
    fn restore_round_trips_a_row() {
        let mut t = machines_table();
        let mut stats = OpStats::default();
        let id = t.insert(row(1, "node01", "idle", 0.1), SETUP, &mut stats).unwrap();
        let original = t.get(id).unwrap().clone();
        let state_col = t.schema.column_index("state").unwrap();
        t.update(id, &[(state_col, Value::Text("busy".into()))], TxnId(2), &mut stats)
            .unwrap();
        t.restore(id, original.clone()).unwrap();
        assert_eq!(t.get(id), Some(&original));
        assert_eq!(t.max_chain_len(), 1, "restore flattens the chain");
        t.check_consistency().unwrap();

        // Restore also reinstates a physically removed row.
        t.remove_physical(id, &mut stats).unwrap();
        t.restore(id, original.clone()).unwrap();
        assert_eq!(t.get(id), Some(&original));
        t.check_consistency().unwrap();
    }

    #[test]
    fn check_consistency_is_linear_in_rows_per_key() {
        // Every row under one secondary key (the shape of a deep idle-job
        // queue): a membership test that walks the key's whole posting
        // list per row would make this check quadratic — minutes, not
        // milliseconds, at this size.
        let schema = Schema::new(
            "jobs",
            vec![
                Column::not_null("job_id", DataType::Int),
                Column::new("state", DataType::Text),
            ],
        )
        .with_primary_key("job_id")
        .with_index("state");
        let mut t = Table::new(schema).unwrap();
        let mut stats = OpStats::default();
        for i in 0..50_000 {
            t.insert(vec![Value::Int(i), Value::Text("idle".into())], SETUP, &mut stats)
                .unwrap();
        }
        let started = std::time::Instant::now();
        t.check_consistency().unwrap();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "check_consistency took {:?} on 50k rows under one key",
            started.elapsed()
        );
    }

    #[test]
    fn a_deleted_and_vacuumed_table_gives_its_memory_back() {
        let schema = Schema::new(
            "jobs",
            vec![
                Column::not_null("job_id", DataType::Int),
                Column::new("state", DataType::Text),
            ],
        )
        .with_primary_key("job_id")
        .with_index("state");
        let mut t = Table::new(schema).unwrap();
        let mut stats = OpStats::default();
        let empty = t.approx_size();
        let idle = || Value::Text("idle".into());
        let mut ids = Vec::new();
        for i in 0..100_000 {
            ids.push(t.insert(vec![Value::Int(i), idle()], SETUP, &mut stats).unwrap());
        }
        let full = t.approx_size();
        assert!(
            full > empty + 100_000 * std::mem::size_of::<Option<VersionChain>>(),
            "the size counts the slots, not just the row bytes ({full})"
        );
        for id in &ids {
            t.delete(*id, TxnId(2), &mut stats).unwrap();
        }
        assert!(t.approx_size() >= full, "tombstones hold their slots until vacuum");
        assert_eq!(t.vacuum(u64::MAX, &mut stats), 100_000);
        assert!(
            t.approx_size() <= empty + 1024,
            "every segment went with its last row: {} vs {empty} empty",
            t.approx_size()
        );
        t.check_consistency().unwrap();

        // Ids continue past everything ever issued: a vacated slot is never
        // handed out again.
        let next = t.insert(vec![Value::Int(0), idle()], TxnId(3), &mut stats).unwrap();
        assert_eq!(next, RowId(ids.last().unwrap().0 + 1));
        assert_eq!(t.scan(latest(), &mut stats).count(), 1);
        t.check_consistency().unwrap();
    }

    #[test]
    fn has_index_on_reports_coverage() {
        let t = machines_table();
        assert!(t.has_index_on("machine_id"));
        assert!(t.has_index_on("state"));
        assert!(t.has_index_on("name"));
        assert!(!t.has_index_on("load"));
        assert!(!t.has_index_on("missing"));
    }

    #[test]
    fn approx_size_grows_with_rows_and_versions() {
        let mut t = machines_table();
        let mut stats = OpStats::default();
        let empty = t.approx_size();
        for i in 1..=10 {
            t.insert(row(i, &format!("node{i:02}"), "idle", 0.0), SETUP, &mut stats)
                .unwrap();
        }
        let flat = t.approx_size();
        assert!(flat > empty);
        let load_col = t.schema.column_index("load").unwrap();
        t.update(RowId(1), &[(load_col, Value::Double(0.5))], TxnId(2), &mut stats)
            .unwrap();
        assert!(t.approx_size() > flat, "retained versions take space");
    }
}
