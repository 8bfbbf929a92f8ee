//! In-memory ordered secondary indexes.

use crate::tuple::RowId;
use crate::value::Value;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::ops::Bound;

/// An ordered index mapping a column value to the set of rows holding it.
///
/// The index is maintained eagerly by [`crate::table::Table`] and is
/// **multi-version**: it covers the key of every retained row version, so a
/// snapshot reader probing an old key still finds a row whose current
/// version has moved elsewhere. Entries are physical — the `unique` flag is
/// metadata for the table, which enforces uniqueness against *live* rows
/// (a retained dead version may legitimately share a key with a live row).
/// Lookups return row ids in ascending id order so scans are deterministic.
#[derive(Debug, Clone, Default)]
pub struct Index {
    /// Index name (unique within the table).
    pub name: String,
    /// Ordinal of the indexed column.
    pub column_idx: usize,
    /// Whether the covered column is unique among live rows (enforced by the
    /// table, not by entry insertion).
    pub unique: bool,
    entries: BTreeMap<Value, BTreeSet<RowId>>,
    len: usize,
}

impl Index {
    /// Creates an empty index over the column at `column_idx`.
    pub fn new(name: impl Into<String>, column_idx: usize, unique: bool) -> Self {
        Index {
            name: name.into(),
            column_idx,
            unique,
            entries: BTreeMap::new(),
            len: 0,
        }
    }

    /// Number of (key, row) entries in the index.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.entries.len()
    }

    /// Inserts an entry; re-inserting an existing `(key, row)` pair is
    /// idempotent. NULL keys are not indexed (SQL unique constraints ignore
    /// NULLs, and NULL predicates never probe the index).
    pub fn insert(&mut self, key: &Value, row: RowId) {
        if key.is_null() {
            return;
        }
        if self.entries.entry(key.clone()).or_default().insert(row) {
            self.len += 1;
        }
    }

    /// Removes an entry; missing entries are ignored.
    pub fn remove(&mut self, key: &Value, row: RowId) {
        if key.is_null() {
            return;
        }
        if let Some(set) = self.entries.get_mut(key) {
            if set.remove(&row) {
                self.len -= 1;
            }
            if set.is_empty() {
                self.entries.remove(key);
            }
        }
    }

    /// Iterates the rows holding exactly `key` without allocating (used by
    /// the hot uniqueness checks on the write path).
    pub fn rows_with_key<'a>(&'a self, key: &Value) -> impl Iterator<Item = RowId> + 'a {
        self.entries
            .get(key)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Returns the entry set for exactly `key`, borrowed from the index —
    /// what the point-read access path streams from.
    pub fn lookup_set(&self, key: &Value) -> Option<&BTreeSet<RowId>> {
        if key.is_null() {
            return None;
        }
        self.entries.get(key)
    }

    /// Returns the rows with keys in `[lo, hi]` (either bound may be open),
    /// in ascending row-id order. An inverted range (`lo > hi`, e.g. from a
    /// contradictory predicate) yields no rows.
    ///
    /// Entries are multi-version, so one row may appear under several keys
    /// inside the range (old versions keep their entries until vacuum); the
    /// result is de-duplicated so the access path yields each row at most
    /// once.
    pub fn range(&self, lo: Option<&Value>, hi: Option<&Value>) -> Vec<RowId> {
        if let (Some(lo), Some(hi)) = (lo, hi) {
            if lo > hi {
                return Vec::new();
            }
        }
        let lo_bound = match lo {
            Some(v) => Bound::Included(v),
            None => Bound::Unbounded,
        };
        let hi_bound = match hi {
            Some(v) => Bound::Included(v),
            None => Bound::Unbounded,
        };
        let mut out = Vec::new();
        for (_, rows) in self.entries.range::<Value, _>((lo_bound, hi_bound)) {
            out.extend(rows.iter().copied());
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Iterates every `(key, row)` entry in key order — ascending, or
    /// descending when `descending` is set — with the rows of one key in
    /// ascending row-id order either way: the order a stable sort of a
    /// row-id-ordered scan leaves equal keys in. Lazy, so a caller that stops
    /// after a few entries pays for those entries only.
    ///
    /// Entries are multi-version: a row appears once under every key one of
    /// its retained versions holds, and the caller keeps it only under the
    /// key of the version its snapshot sees.
    pub fn entries_in_key_order(
        &self,
        descending: bool,
    ) -> impl Iterator<Item = (&Value, RowId)> + '_ {
        let mut keys = self.entries.iter();
        std::iter::from_fn(move || if descending { keys.next_back() } else { keys.next() })
            .flat_map(|(key, rows)| rows.iter().map(move |id| (key, *id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference forms of the probes, used only to check the index.
    impl Index {
        fn is_empty(&self) -> bool {
            self.len == 0
        }

        fn lookup(&self, key: &Value) -> Vec<RowId> {
            self.lookup_set(key)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default()
        }

        fn contains_key(&self, key: &Value) -> bool {
            !key.is_null() && self.entries.contains_key(key)
        }

        fn clear(&mut self) {
            self.entries.clear();
            self.len = 0;
        }
    }

    #[test]
    fn insert_lookup_remove() {
        let mut idx = Index::new("idx", 0, false);
        idx.insert(&Value::Text("idle".into()), RowId(1));
        idx.insert(&Value::Text("idle".into()), RowId(2));
        idx.insert(&Value::Text("running".into()), RowId(3));
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(
            idx.lookup(&Value::Text("idle".into())),
            vec![RowId(1), RowId(2)]
        );
        idx.remove(&Value::Text("idle".into()), RowId(1));
        assert_eq!(idx.lookup(&Value::Text("idle".into())), vec![RowId(2)]);
        assert_eq!(idx.len(), 2);
        // Removing a missing entry is a no-op.
        idx.remove(&Value::Text("idle".into()), RowId(99));
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn unique_index_entries_are_physical() {
        let mut idx = Index::new("uidx", 0, true);
        idx.insert(&Value::Int(1), RowId(1));
        // Entries are multi-version: a dead version of row 2 may share the
        // key with a live row 1, so entry insertion never rejects — the
        // table enforces uniqueness against live rows.
        idx.insert(&Value::Int(1), RowId(2));
        assert_eq!(idx.len(), 2);
        // Re-inserting the same (key, row) pair is idempotent.
        idx.insert(&Value::Int(1), RowId(1));
        assert_eq!(idx.len(), 2);
        assert!(idx.unique, "the uniqueness intent is kept as metadata");
    }

    #[test]
    fn null_keys_are_not_indexed() {
        let mut idx = Index::new("uidx", 0, true);
        idx.insert(&Value::Null, RowId(1));
        idx.insert(&Value::Null, RowId(2));
        assert_eq!(idx.len(), 0);
        assert!(idx.lookup(&Value::Null).is_empty());
        assert!(!idx.contains_key(&Value::Null));
    }

    #[test]
    fn range_scans_respect_bounds() {
        let mut idx = Index::new("idx", 0, false);
        for i in 0..10 {
            idx.insert(&Value::Int(i), RowId(i as u64));
        }
        let rows = idx.range(Some(&Value::Int(3)), Some(&Value::Int(6)));
        assert_eq!(rows, vec![RowId(3), RowId(4), RowId(5), RowId(6)]);
        let rows = idx.range(None, Some(&Value::Int(1)));
        assert_eq!(rows, vec![RowId(0), RowId(1)]);
        let rows = idx.range(Some(&Value::Int(8)), None);
        assert_eq!(rows, vec![RowId(8), RowId(9)]);
        assert_eq!(idx.range(None, None).len(), 10);
    }

    #[test]
    fn range_deduplicates_multi_version_entries() {
        let mut idx = Index::new("idx", 0, false);
        // Row 7 appears under two keys (a retained old version and the
        // current one); a range covering both must yield it once.
        idx.insert(&Value::Int(1), RowId(7));
        idx.insert(&Value::Int(3), RowId(7));
        idx.insert(&Value::Int(2), RowId(1));
        assert_eq!(
            idx.range(Some(&Value::Int(0)), Some(&Value::Int(5))),
            vec![RowId(1), RowId(7)]
        );
        assert_eq!(idx.lookup(&Value::Int(3)), vec![RowId(7)]);
    }

    #[test]
    fn key_order_walk_runs_both_ways_with_ties_in_row_id_order() {
        let mut idx = Index::new("idx", 0, false);
        for (key, row) in [(2, 9), (1, 5), (2, 3), (3, 1), (1, 7)] {
            idx.insert(&Value::Int(key), RowId(row));
        }
        let walk = |descending| -> Vec<(i64, u64)> {
            idx.entries_in_key_order(descending)
                .map(|(k, id)| (k.as_int().unwrap(), id.0))
                .collect()
        };
        assert_eq!(walk(false), vec![(1, 5), (1, 7), (2, 3), (2, 9), (3, 1)]);
        assert_eq!(walk(true), vec![(3, 1), (2, 3), (2, 9), (1, 5), (1, 7)]);
    }

    #[test]
    fn clear_empties_the_index() {
        let mut idx = Index::new("idx", 0, false);
        idx.insert(&Value::Int(1), RowId(1));
        idx.clear();
        assert!(idx.is_empty());
        assert!(idx.lookup(&Value::Int(1)).is_empty());
    }
}
