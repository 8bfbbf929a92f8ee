//! Write-ahead logging, checkpointing and recovery.
//!
//! The log is logical: each record describes one row-level change plus the
//! transaction boundaries around it. Recovery rebuilds the catalog by
//! restoring the most recent checkpoint snapshot and replaying the changes of
//! every transaction that committed after it. The schedd in Condor keeps a
//! persistent job-queue log for exactly the same reason (the paper notes it is
//! "used only for recovery"); here the log covers *all* operational state, not
//! just the job queue.

use crate::error::{Error, Result};
use crate::io::record::{encode_record, encode_segment, segment_header};
use crate::io::{decode_segment, points, DurabilityPolicy, FailAction, Failpoints, LogDevice};
use crate::obs::clock::Stopwatch;
use crate::obs::Observability;
use crate::schema::Schema;
use crate::stats::OpStats;
use crate::table::Table;
use crate::tuple::{Row, RowId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TxnId(pub u64);

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// Log sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Lsn(pub u64);

/// A snapshot of one table taken at checkpoint time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableSnapshot {
    /// The table schema.
    pub schema: Schema,
    /// All live rows at checkpoint time.
    pub rows: Vec<(RowId, Row)>,
}

/// A single write-ahead log record.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum LogRecord {
    /// A transaction started.
    Begin { txn: TxnId },
    /// A transaction committed; its effects are durable.
    Commit { txn: TxnId },
    /// A transaction aborted; its effects must be discarded on recovery.
    Abort { txn: TxnId },
    /// A table was created.
    CreateTable { txn: TxnId, schema: Schema },
    /// A table was dropped.
    DropTable { txn: TxnId, table: String },
    /// A row was inserted.
    Insert {
        txn: TxnId,
        table: String,
        row_id: RowId,
        row: Row,
    },
    /// A row was deleted.
    Delete {
        txn: TxnId,
        table: String,
        row_id: RowId,
        before: Row,
    },
    /// A row was updated in place.
    Update {
        txn: TxnId,
        table: String,
        row_id: RowId,
        before: Row,
        after: Row,
    },
    /// Several row-level changes produced by one batched statement execution
    /// ([`crate::Session::execute_batch`]): one log append covers every
    /// binding of the batch instead of one append per row.
    Batch {
        txn: TxnId,
        changes: Vec<LogRecord>,
    },
    /// A checkpoint: a consistent snapshot of every table.
    Checkpoint { snapshot: Vec<TableSnapshot> },
}

impl LogRecord {
    /// Approximate serialized size in bytes (used for IO cost accounting).
    pub fn approx_size(&self) -> usize {
        match self {
            LogRecord::Begin { .. } | LogRecord::Commit { .. } | LogRecord::Abort { .. } => 16,
            LogRecord::CreateTable { schema, .. } => 64 + schema.columns.len() * 24,
            LogRecord::DropTable { table, .. } => 16 + table.len(),
            LogRecord::Insert { row, table, .. } => 24 + table.len() + row.approx_size(),
            LogRecord::Delete { before, table, .. } => 24 + table.len() + before.approx_size(),
            LogRecord::Update {
                before,
                after,
                table,
                ..
            } => 24 + table.len() + before.approx_size() + after.approx_size(),
            LogRecord::Batch { changes, .. } => {
                16 + changes.iter().map(LogRecord::approx_size).sum::<usize>()
            }
            LogRecord::Checkpoint { snapshot } => {
                64 + snapshot
                    .iter()
                    .map(|t| t.rows.iter().map(|(_, r)| r.approx_size()).sum::<usize>() + 64)
                    .sum::<usize>()
            }
        }
    }

    /// The transaction that wrote this record, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn }
            | LogRecord::CreateTable { txn, .. }
            | LogRecord::DropTable { txn, .. }
            | LogRecord::Insert { txn, .. }
            | LogRecord::Delete { txn, .. }
            | LogRecord::Update { txn, .. }
            | LogRecord::Batch { txn, .. } => Some(*txn),
            LogRecord::Checkpoint { .. } => None,
        }
    }
}

/// The durable sink behind a [`Wal`], present only for databases opened
/// through [`crate::Database::open_durable`] and friends.
///
/// Device failures do not surface from [`Wal::append`] (whose ~30 call sites
/// treat appending as infallible); instead the first failure **poisons** the
/// sink, and every later [`Wal::commit_sync`] / [`Wal::flush`] /
/// [`Wal::checkpoint`] returns that error. The net effect is the guarantee
/// that matters: once a write or fsync has failed, no commit is ever again
/// acknowledged, even though the in-memory engine stays readable.
#[derive(Debug)]
struct DurableLog {
    device: Box<dyn LogDevice>,
    policy: DurabilityPolicy,
    failpoints: Arc<Failpoints>,
    /// The first device error, replayed to every subsequent durability call.
    poisoned: Option<Error>,
    /// Commits acknowledged since the last successful sync.
    unsynced_commits: usize,
    /// True when record bytes have been appended since the last successful
    /// sync or rotation — the paged engine's WAL-before-data gate
    /// ([`Wal::is_synced`]) flushes before any page write-back while this
    /// is set.
    unsynced: bool,
    /// The owning database's observability state, attached after open so
    /// every successful device sync lands one sample in the `wal.fsync`
    /// latency histogram.
    obs: Option<Arc<Observability>>,
}

impl DurableLog {
    fn check_poisoned(&self) -> Result<()> {
        match &self.poisoned {
            Some(e) => Err(Error::io(format!("log writer poisoned by earlier failure: {e}"))),
            None => Ok(()),
        }
    }

    /// Mirrors one record onto the device. Errors poison the sink instead of
    /// propagating; `commit_sync` surfaces them before any acknowledgement.
    fn append_record(&mut self, record: &LogRecord, stats: &mut OpStats) {
        if self.poisoned.is_some() {
            return;
        }
        let bytes = encode_record(record);
        self.unsynced = true;
        let result = match self.failpoints.check(points::WAL_APPEND) {
            Some(action) => {
                stats.failpoints_hit += 1;
                self.injected_append(action, &bytes)
            }
            None => self.device.append(&bytes),
        };
        if let Err(e) = result {
            self.poisoned = Some(e);
        }
    }

    fn injected_append(&mut self, action: FailAction, bytes: &[u8]) -> Result<()> {
        match action {
            FailAction::ShortWrite(k) => {
                // A partial write(2) then an IO error: k bytes sit in the
                // device's volatile buffer, nothing is durable.
                let k = k.min(bytes.len());
                self.device.append(&bytes[..k])?;
                Err(Error::io(format!(
                    "injected short write: {k} of {} byte(s)",
                    bytes.len()
                )))
            }
            FailAction::TornWrite(k) => {
                // Power loss mid-append with the prefix already persisted:
                // the canonical torn tail recovery must repair.
                let k = k.min(bytes.len());
                self.device.append(&bytes[..k])?;
                self.device.sync()?;
                self.device.crash();
                Err(Error::io(format!(
                    "injected torn write: {k} of {} byte(s) persisted",
                    bytes.len()
                )))
            }
            FailAction::Err => Err(Error::io("injected append error")),
            FailAction::Crash => {
                // The write lands in the volatile buffer, then the machine
                // dies before any sync: recovery must not see the record.
                self.device.append(bytes)?;
                self.device.crash();
                Err(Error::io("injected crash after write, before sync"))
            }
        }
    }

    /// Durability barrier. Success resets the unsynced-commit window;
    /// failure poisons the sink.
    fn sync(&mut self, stats: &mut OpStats) -> Result<()> {
        self.check_poisoned()?;
        let sw = Stopwatch::start();
        let result = match self.failpoints.check(points::WAL_SYNC) {
            Some(FailAction::Crash) => {
                stats.failpoints_hit += 1;
                self.device.crash();
                Err(Error::io("injected crash before fsync"))
            }
            Some(_) => {
                stats.failpoints_hit += 1;
                Err(Error::io("injected fsync failure"))
            }
            None => self.device.sync(),
        };
        match result {
            Ok(()) => {
                self.note_fsync(sw, stats);
                self.unsynced_commits = 0;
                self.unsynced = false;
                Ok(())
            }
            Err(e) => {
                self.poisoned = Some(e.clone());
                Err(e)
            }
        }
    }

    /// Accounts one successful durability barrier: the `wal_fsyncs` counter,
    /// the time spent, and (once attached) the `wal.fsync` histogram.
    fn note_fsync(&self, sw: Stopwatch, stats: &mut OpStats) {
        let nanos = sw.elapsed_nanos();
        stats.wal_fsyncs += 1;
        stats.wal_fsync_nanos += nanos;
        if let Some(obs) = &self.obs {
            obs.histograms.wal_fsync.record(nanos);
        }
    }

    /// Called once per commit: surfaces any poisoning, then syncs if the
    /// policy's window is full.
    fn note_commit(&mut self, stats: &mut OpStats) -> Result<()> {
        self.check_poisoned()?;
        self.unsynced_commits += 1;
        match self.policy.commits_per_sync() {
            Some(n) if self.unsynced_commits >= n => self.sync(stats),
            _ => Ok(()),
        }
    }

    /// Checkpoint rotation: writes a fresh segment holding only `record`
    /// (the checkpoint) and atomically swaps it over the old one.
    fn rotate(&mut self, record: &LogRecord, stats: &mut OpStats) -> Result<()> {
        self.check_poisoned()?;
        let bytes = encode_segment(std::iter::once(record));
        let sw = Stopwatch::start();
        let result = match self.failpoints.check(points::WAL_ROTATE) {
            Some(FailAction::Crash) | Some(FailAction::TornWrite(_)) => {
                stats.failpoints_hit += 1;
                self.device.crash();
                Err(Error::io("injected crash during segment rotation"))
            }
            Some(_) => {
                stats.failpoints_hit += 1;
                Err(Error::io("injected segment rotation failure"))
            }
            None => self.device.replace(&bytes),
        };
        match result {
            Ok(()) => {
                // replace() is durable by contract (sync + rename + dir sync).
                self.note_fsync(sw, stats);
                stats.wal_segments_rotated += 1;
                self.unsynced_commits = 0;
                self.unsynced = false;
                Ok(())
            }
            Err(e) => {
                self.poisoned = Some(e.clone());
                Err(e)
            }
        }
    }
}

/// The write-ahead log.
///
/// By default the log is in-memory only — the simulated deployment models
/// durability by the IO cycle cost the application-server cost model charges
/// per appended byte. A database opened through
/// [`crate::Database::open_durable`] additionally mirrors every record onto a
/// [`LogDevice`] as a checksummed binary segment (see [`crate::io`]), from
/// which [`Wal::open_device`] rebuilds the log after a crash.
#[derive(Debug, Default)]
pub struct Wal {
    records: Vec<(Lsn, LogRecord)>,
    next_lsn: u64,
    total_bytes: u64,
    durable: Option<DurableLog>,
}

impl Clone for Wal {
    /// Clones the retained records only: the clone is a mem-only snapshot of
    /// the log (used by [`crate::Database::snapshot_wal`]) and never owns
    /// the durable device.
    fn clone(&self) -> Self {
        Wal {
            records: self.records.clone(),
            next_lsn: self.next_lsn,
            total_bytes: self.total_bytes,
            durable: None,
        }
    }
}

impl Wal {
    /// Creates an empty in-memory log.
    pub fn new() -> Self {
        Wal::default()
    }

    /// Opens a durable log over `device`, recovering its retained records.
    ///
    /// The device's durable contents are scanned with
    /// [`decode_segment`]: a torn tail is truncated off the device (counted
    /// in `stats.recovery_truncated_bytes`), mid-log corruption surfaces as
    /// [`Error::Corruption`]. A fresh device gets a segment header written.
    pub fn open_device(
        mut device: Box<dyn LogDevice>,
        policy: DurabilityPolicy,
        failpoints: Arc<Failpoints>,
        stats: &mut OpStats,
    ) -> Result<Wal> {
        let bytes = device.durable_contents()?;
        let decoded = decode_segment(&bytes, stats)?;
        if decoded.valid_len < device.len() {
            device.truncate(decoded.valid_len)?;
        }
        if decoded.valid_len == 0 {
            device.append(&segment_header())?;
        }
        let mut wal = Wal {
            records: Vec::new(),
            next_lsn: 0,
            total_bytes: 0,
            durable: Some(DurableLog {
                device,
                policy,
                failpoints,
                poisoned: None,
                unsynced_commits: 0,
                unsynced: false,
                obs: None,
            }),
        };
        // Replaying into the in-memory view is not new appended work; keep
        // it out of the caller-visible wal_records/wal_bytes counters.
        let mut scratch = OpStats::default();
        for record in decoded.records {
            wal.push_mem(record, &mut scratch);
        }
        Ok(wal)
    }

    /// True when this log mirrors appends onto a durable device.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Attaches the owning database's observability state so device syncs
    /// record `wal.fsync` histogram samples. A no-op for in-memory logs,
    /// which never fsync.
    pub(crate) fn set_obs(&mut self, obs: Arc<Observability>) {
        if let Some(d) = &mut self.durable {
            d.obs = Some(obs);
        }
    }

    /// The bytes a crash right now would leave on the durable device, or
    /// [`Error::Wal`] for an in-memory log. Works even after the device has
    /// died (it is the post-mortem view used by crash tests).
    pub fn durable_contents(&self) -> Result<Vec<u8>> {
        match &self.durable {
            Some(d) => d.device.durable_contents(),
            None => Err(Error::Wal("log has no durable device".into())),
        }
    }

    /// The largest transaction id mentioned anywhere in the retained
    /// records. After recovery the transaction manager must allocate past
    /// this, or a new transaction could collide with a logged one and make
    /// its uncommitted changes look committed.
    pub fn max_txn_id(&self) -> u64 {
        fn walk(rec: &LogRecord) -> u64 {
            let own = rec.txn().map(|t| t.0).unwrap_or(0);
            match rec {
                LogRecord::Batch { changes, .. } => {
                    changes.iter().map(walk).fold(own, u64::max)
                }
                _ => own,
            }
        }
        self.records.iter().map(|(_, r)| walk(r)).max().unwrap_or(0)
    }

    fn push_mem(&mut self, record: LogRecord, stats: &mut OpStats) -> Lsn {
        let lsn = Lsn(self.next_lsn);
        self.next_lsn += 1;
        let size = record.approx_size() as u64;
        self.total_bytes += size;
        stats.wal_records += 1;
        stats.wal_bytes += size;
        self.records.push((lsn, record));
        lsn
    }

    /// Appends a record, returning its LSN.
    ///
    /// For a durable log the record is also framed and written to the
    /// device. A device failure does **not** surface here — it poisons the
    /// writer, and [`Wal::commit_sync`] reports it before the enclosing
    /// commit can be acknowledged.
    pub fn append(&mut self, record: LogRecord, stats: &mut OpStats) -> Lsn {
        if let Some(d) = &mut self.durable {
            d.append_record(&record, stats);
        }
        self.push_mem(record, stats)
    }

    /// Called by the database once per commit, after the Commit record is
    /// appended: surfaces any poisoning and applies the
    /// [`DurabilityPolicy`]'s fsync schedule. An `Err` here means the commit
    /// was **not** acknowledged as durable.
    pub fn commit_sync(&mut self, stats: &mut OpStats) -> Result<()> {
        match &mut self.durable {
            Some(d) => d.note_commit(stats),
            None => Ok(()),
        }
    }

    /// Forces everything appended so far onto stable storage (no-op for an
    /// in-memory log).
    pub fn flush(&mut self, stats: &mut OpStats) -> Result<()> {
        match &mut self.durable {
            Some(d) => d.sync(stats),
            None => Ok(()),
        }
    }

    /// True when every appended record is already durable (always true for
    /// an in-memory log). The paged engine's WAL-before-data gate: page
    /// write-back calls [`Wal::flush`] first whenever this is false.
    pub fn is_synced(&self) -> bool {
        match &self.durable {
            Some(d) => !d.unsynced,
            None => true,
        }
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total bytes ever appended (not reduced by truncation).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Iterates over retained records in LSN order.
    pub fn records(&self) -> impl Iterator<Item = &(Lsn, LogRecord)> {
        self.records.iter()
    }

    /// Writes a checkpoint record containing `snapshot` and discards all
    /// earlier records. Returns the LSN of the checkpoint.
    ///
    /// On a durable log this is a **segment rotation**: the new segment
    /// (holding just the checkpoint record) is written beside the old one,
    /// fsynced, and atomically renamed over it *before* the retained records
    /// are discarded — a crash at any instant finds either the old complete
    /// log or the new complete snapshot, never neither.
    pub fn checkpoint(
        &mut self,
        snapshot: Vec<TableSnapshot>,
        stats: &mut OpStats,
    ) -> Result<Lsn> {
        let record = LogRecord::Checkpoint { snapshot };
        if let Some(d) = &mut self.durable {
            d.rotate(&record, stats)?;
        }
        // Only now, with the new segment durable (or trivially, in memory),
        // is it safe to drop the old records.
        self.records.clear();
        stats.checkpoints += 1;
        // The rotation already wrote the record to the device; mirror it
        // into the in-memory view only.
        Ok(self.push_mem(record, stats))
    }

    /// Rebuilds the full set of tables implied by the retained log records:
    /// the latest checkpoint (if any) plus all *committed* transactions after
    /// it. Changes from unfinished or aborted transactions are discarded.
    ///
    /// Recovery replays through the tables' **physical** operations, so the
    /// rebuilt catalog holds exactly one committed version per live row
    /// (stamped [`crate::mvcc::COMMITTED_TXN`], visible to every snapshot of
    /// the recovered database) — uncommitted versions, tombstones and
    /// version chains never survive a crash.
    pub fn recover(&self) -> Result<BTreeMap<String, Table>> {
        // Pass 1: find committed transactions.
        let mut committed = std::collections::HashSet::new();
        for (_, rec) in &self.records {
            if let LogRecord::Commit { txn } = rec {
                committed.insert(*txn);
            }
        }

        // Pass 2: start from the latest checkpoint.
        let mut tables: BTreeMap<String, Table> = BTreeMap::new();
        let mut start = 0usize;
        for (i, (_, rec)) in self.records.iter().enumerate() {
            if let LogRecord::Checkpoint { snapshot } = rec {
                tables.clear();
                for snap in snapshot {
                    let mut table = Table::new(snap.schema.clone())?;
                    let mut scratch = OpStats::default();
                    for (id, row) in &snap.rows {
                        table.insert_with_id(*id, row.clone(), &mut scratch)?;
                    }
                    tables.insert(snap.schema.name.clone(), table);
                }
                start = i + 1;
            }
        }

        // Pass 3: redo committed work after the checkpoint.
        let mut scratch = OpStats::default();
        for (_, rec) in &self.records[start..] {
            let Some(txn) = rec.txn() else { continue };
            if !committed.contains(&txn) {
                continue;
            }
            Self::redo(rec, &mut tables, &mut scratch)?;
        }
        Ok(tables)
    }

    /// Replays one committed record into `tables`, recursing into batches.
    fn redo(
        rec: &LogRecord,
        tables: &mut BTreeMap<String, Table>,
        scratch: &mut OpStats,
    ) -> Result<()> {
        match rec {
            LogRecord::CreateTable { schema, .. } => {
                tables.insert(schema.name.clone(), Table::new(schema.clone())?);
            }
            LogRecord::DropTable { table, .. } => {
                tables.remove(table);
            }
            LogRecord::Insert {
                table, row_id, row, ..
            } => {
                let t = tables
                    .get_mut(table)
                    .ok_or_else(|| Error::Wal(format!("insert into unknown table {table}")))?;
                t.insert_with_id(*row_id, row.clone(), scratch)?;
            }
            LogRecord::Delete { table, row_id, .. } => {
                let t = tables
                    .get_mut(table)
                    .ok_or_else(|| Error::Wal(format!("delete from unknown table {table}")))?;
                t.remove_physical(*row_id, scratch)?;
            }
            LogRecord::Update {
                table,
                row_id,
                after,
                ..
            } => {
                let t = tables
                    .get_mut(table)
                    .ok_or_else(|| Error::Wal(format!("update of unknown table {table}")))?;
                t.restore(*row_id, after.clone())?;
            }
            LogRecord::Batch { changes, .. } => {
                for change in changes {
                    Self::redo(change, tables, scratch)?;
                }
            }
            LogRecord::Begin { .. }
            | LogRecord::Commit { .. }
            | LogRecord::Abort { .. }
            | LogRecord::Checkpoint { .. } => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::{DataType, Value};

    fn schema() -> Schema {
        Schema::new(
            "jobs",
            vec![
                Column::not_null("job_id", DataType::Int),
                Column::new("state", DataType::Text),
            ],
        )
        .with_primary_key("job_id")
    }

    fn insert_rec(txn: u64, id: u64, job: i64, state: &str) -> LogRecord {
        LogRecord::Insert {
            txn: TxnId(txn),
            table: "jobs".into(),
            row_id: RowId(id),
            row: Row::new(vec![Value::Int(job), Value::Text(state.into())]),
        }
    }

    #[test]
    fn recovery_replays_only_committed_transactions() {
        let mut wal = Wal::new();
        let mut stats = OpStats::default();
        wal.append(LogRecord::Begin { txn: TxnId(1) }, &mut stats);
        wal.append(
            LogRecord::CreateTable {
                txn: TxnId(1),
                schema: schema(),
            },
            &mut stats,
        );
        wal.append(insert_rec(1, 1, 100, "idle"), &mut stats);
        wal.append(LogRecord::Commit { txn: TxnId(1) }, &mut stats);

        // Txn 2 inserts but never commits; txn 3 inserts and aborts.
        wal.append(LogRecord::Begin { txn: TxnId(2) }, &mut stats);
        wal.append(insert_rec(2, 2, 200, "idle"), &mut stats);
        wal.append(LogRecord::Begin { txn: TxnId(3) }, &mut stats);
        wal.append(insert_rec(3, 3, 300, "idle"), &mut stats);
        wal.append(LogRecord::Abort { txn: TxnId(3) }, &mut stats);

        let tables = wal.recover().unwrap();
        let jobs = tables.get("jobs").unwrap();
        assert_eq!(jobs.len(), 1);
        assert!(jobs.get(RowId(1)).is_some());
        assert!(jobs.get(RowId(2)).is_none());
        assert!(jobs.get(RowId(3)).is_none());
    }

    #[test]
    fn recovery_applies_updates_and_deletes() {
        let mut wal = Wal::new();
        let mut stats = OpStats::default();
        wal.append(LogRecord::Begin { txn: TxnId(1) }, &mut stats);
        wal.append(
            LogRecord::CreateTable {
                txn: TxnId(1),
                schema: schema(),
            },
            &mut stats,
        );
        wal.append(insert_rec(1, 1, 100, "idle"), &mut stats);
        wal.append(insert_rec(1, 2, 200, "idle"), &mut stats);
        wal.append(
            LogRecord::Update {
                txn: TxnId(1),
                table: "jobs".into(),
                row_id: RowId(1),
                before: Row::new(vec![Value::Int(100), Value::Text("idle".into())]),
                after: Row::new(vec![Value::Int(100), Value::Text("running".into())]),
            },
            &mut stats,
        );
        wal.append(
            LogRecord::Delete {
                txn: TxnId(1),
                table: "jobs".into(),
                row_id: RowId(2),
                before: Row::new(vec![Value::Int(200), Value::Text("idle".into())]),
            },
            &mut stats,
        );
        wal.append(LogRecord::Commit { txn: TxnId(1) }, &mut stats);

        let tables = wal.recover().unwrap();
        let jobs = tables.get("jobs").unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(
            jobs.get(RowId(1)).unwrap().get(1),
            &Value::Text("running".into())
        );
    }

    #[test]
    fn recovery_rejects_duplicate_committed_keys() {
        // A duplicated/corrupt log (two committed inserts sharing a primary
        // key) must fail recovery loudly, not rebuild a catalog that
        // violates its unique constraints.
        let mut wal = Wal::new();
        let mut stats = OpStats::default();
        wal.append(LogRecord::Begin { txn: TxnId(1) }, &mut stats);
        wal.append(
            LogRecord::CreateTable {
                txn: TxnId(1),
                schema: schema(),
            },
            &mut stats,
        );
        wal.append(insert_rec(1, 1, 100, "idle"), &mut stats);
        wal.append(insert_rec(1, 2, 100, "held"), &mut stats);
        wal.append(LogRecord::Commit { txn: TxnId(1) }, &mut stats);
        assert!(matches!(wal.recover(), Err(Error::Constraint(_))));
    }

    #[test]
    fn checkpoint_truncates_and_recovery_uses_it() {
        let mut wal = Wal::new();
        let mut stats = OpStats::default();
        wal.append(LogRecord::Begin { txn: TxnId(1) }, &mut stats);
        wal.append(
            LogRecord::CreateTable {
                txn: TxnId(1),
                schema: schema(),
            },
            &mut stats,
        );
        wal.append(insert_rec(1, 1, 100, "idle"), &mut stats);
        wal.append(LogRecord::Commit { txn: TxnId(1) }, &mut stats);
        let before_len = wal.len();

        // Build the snapshot the checkpoint would capture.
        let recovered = wal.recover().unwrap();
        let snapshot: Vec<TableSnapshot> = recovered
            .values()
            .map(|t| TableSnapshot {
                schema: t.schema.clone(),
                rows: {
                    let mut s = OpStats::default();
                    t.scan(crate::mvcc::Snapshot::latest(), &mut s)
                        .map(|r| (r.id, r.row.clone()))
                        .collect()
                },
            })
            .collect();
        wal.checkpoint(snapshot, &mut stats).unwrap();
        assert!(wal.len() < before_len);
        assert_eq!(stats.checkpoints, 1);

        // Post-checkpoint committed work still replays.
        wal.append(LogRecord::Begin { txn: TxnId(2) }, &mut stats);
        wal.append(insert_rec(2, 2, 200, "held"), &mut stats);
        wal.append(LogRecord::Commit { txn: TxnId(2) }, &mut stats);

        let tables = wal.recover().unwrap();
        let jobs = tables.get("jobs").unwrap();
        assert_eq!(jobs.len(), 2);
    }

    #[test]
    fn recovery_replays_batch_records() {
        let mut wal = Wal::new();
        let mut stats = OpStats::default();
        wal.append(LogRecord::Begin { txn: TxnId(1) }, &mut stats);
        wal.append(
            LogRecord::CreateTable {
                txn: TxnId(1),
                schema: schema(),
            },
            &mut stats,
        );
        // One append carries three inserts; a later nested batch updates one.
        wal.append(
            LogRecord::Batch {
                txn: TxnId(1),
                changes: vec![
                    insert_rec(1, 1, 100, "idle"),
                    insert_rec(1, 2, 200, "idle"),
                    insert_rec(1, 3, 300, "idle"),
                ],
            },
            &mut stats,
        );
        wal.append(LogRecord::Commit { txn: TxnId(1) }, &mut stats);
        // An uncommitted batch must not replay.
        wal.append(LogRecord::Begin { txn: TxnId(2) }, &mut stats);
        wal.append(
            LogRecord::Batch {
                txn: TxnId(2),
                changes: vec![insert_rec(2, 4, 400, "idle")],
            },
            &mut stats,
        );

        let tables = wal.recover().unwrap();
        let jobs = tables.get("jobs").unwrap();
        assert_eq!(jobs.len(), 3);
        assert!(jobs.get(RowId(4)).is_none());
        // The batch counted as a single WAL record.
        assert_eq!(wal.len(), 6);
        let batch = LogRecord::Batch {
            txn: TxnId(1),
            changes: vec![insert_rec(1, 1, 100, "idle")],
        };
        assert!(batch.approx_size() > insert_rec(1, 1, 100, "idle").approx_size());
        assert_eq!(batch.txn(), Some(TxnId(1)));
    }

    #[test]
    fn wal_counts_bytes() {
        let mut wal = Wal::new();
        let mut stats = OpStats::default();
        wal.append(LogRecord::Begin { txn: TxnId(1) }, &mut stats);
        wal.append(insert_rec(1, 1, 100, "idle"), &mut stats);
        assert!(wal.total_bytes() > 0);
        assert_eq!(stats.wal_records, 2);
        assert_eq!(stats.wal_bytes, wal.total_bytes());
    }
}
