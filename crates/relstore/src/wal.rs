//! Write-ahead logging, checkpointing and recovery.
//!
//! The log is logical: each record describes one row-level change plus the
//! transaction boundaries around it. Recovery rebuilds the catalog by
//! restoring the most recent checkpoint snapshot and replaying the changes of
//! every transaction that committed after it. The schedd in Condor keeps a
//! persistent job-queue log for exactly the same reason (the paper notes it is
//! "used only for recovery"); here the log covers *all* operational state, not
//! just the job queue.
//!
//! Because the log is read only by recovery, the running engine keeps no copy
//! of it: a record is sized, counted, framed onto the [`LogDevice`] (when
//! there is one) and dropped. The decoded records exist as a value only while
//! a database opens — [`Wal::open_device`] hands them to [`recover`] — and a
//! record carries only what replay reads: the *new* image of an updated row
//! and the id of a deleted one. Rollback needs no image either; it is
//! version-aware and works on the in-memory chains.

use crate::error::{Error, Result};
use crate::io::record::{encode_record, encode_segment, segment_header};
use crate::io::{decode_segment, points, DurabilityPolicy, FailAction, Failpoints, LogDevice};
use crate::mvcc::Snapshot;
use crate::obs::clock::Stopwatch;
use crate::obs::Observability;
use crate::schema::Schema;
use crate::stats::OpStats;
use crate::table::Table;
use crate::tuple::{Row, RowId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TxnId(pub u64);

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

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
    DropTable { txn: TxnId, table: Arc<str> },
    /// A row was inserted.
    Insert {
        txn: TxnId,
        table: Arc<str>,
        row_id: RowId,
        row: Row,
    },
    /// A row was deleted.
    Delete {
        txn: TxnId,
        table: Arc<str>,
        row_id: RowId,
    },
    /// A row was updated: `after` is its complete new image.
    Update {
        txn: TxnId,
        table: Arc<str>,
        row_id: RowId,
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
            LogRecord::Delete { table, .. } => 24 + table.len(),
            LogRecord::Update { after, table, .. } => 24 + table.len() + after.approx_size(),
            LogRecord::Batch { changes, .. } => {
                16 + changes.iter().map(LogRecord::approx_size).sum::<usize>()
            }
            LogRecord::Checkpoint { snapshot } => checkpoint_size(
                snapshot
                    .iter()
                    .map(|t| t.rows.iter().map(|(_, r)| r.approx_size()).sum()),
            ),
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

/// [`LogRecord::approx_size`] of a checkpoint, from the summed row sizes of
/// each table it snapshots.
fn checkpoint_size(table_row_bytes: impl Iterator<Item = usize>) -> usize {
    64 + table_row_bytes.map(|rows| rows + 64).sum::<usize>()
}

/// The durable sink behind a [`Wal`], present only for databases opened
/// through [`crate::Database::open_durable`] and friends.
///
/// Device failures do not surface from [`Wal::append`] (whose call sites
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

    /// Frames one record onto the device. Errors poison the sink instead of
    /// propagating; `commit_sync` surfaces them before any acknowledgement.
    fn append_record(&mut self, record: &LogRecord, stats: &mut OpStats) {
        if self.poisoned.is_some() {
            return;
        }
        let bytes = encode_record(record);
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
/// At run time the log is a sink, not a store: [`Wal::append`] sizes a
/// record into the `wal_records` / `wal_bytes` counters, frames it onto the
/// durable [`LogDevice`] when there is one, and keeps nothing. By default
/// there is no device — the simulated deployment models durability by the IO
/// cycle cost the application-server cost model charges per appended byte. A
/// database opened through [`crate::Database::open_durable`] writes every
/// record as a checksummed binary segment (see [`crate::io`]), which
/// [`Wal::open_device`] decodes once, on open, for [`recover`].
#[derive(Debug, Default)]
pub struct Wal {
    durable: Option<DurableLog>,
}

impl Wal {
    /// Creates a log with no durable device.
    pub fn new() -> Self {
        Wal::default()
    }

    /// Opens a durable log over `device` and returns it together with the
    /// records the device held — the input of [`recover`], owned by the
    /// caller and dropped when the open is done.
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
    ) -> Result<(Wal, Vec<LogRecord>)> {
        let bytes = device.durable_contents()?;
        let decoded = decode_segment(&bytes, stats)?;
        if decoded.valid_len < device.len() {
            device.truncate(decoded.valid_len)?;
        }
        if decoded.valid_len == 0 {
            device.append(&segment_header())?;
        }
        let wal = Wal {
            durable: Some(DurableLog {
                device,
                policy,
                failpoints,
                poisoned: None,
                unsynced_commits: 0,
                obs: None,
            }),
        };
        Ok((wal, decoded.records))
    }

    /// True when this log writes appends onto a durable device.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Attaches the owning database's observability state so device syncs
    /// record `wal.fsync` histogram samples. A no-op without a device:
    /// nothing ever fsyncs.
    pub(crate) fn set_obs(&mut self, obs: Arc<Observability>) {
        if let Some(d) = &mut self.durable {
            d.obs = Some(obs);
        }
    }

    /// The bytes a crash right now would leave on the durable device, or
    /// [`Error::Wal`] for a log without one. Works even after the device has
    /// died (it is the post-mortem view used by crash tests).
    pub fn durable_contents(&self) -> Result<Vec<u8>> {
        match &self.durable {
            Some(d) => d.device.durable_contents(),
            None => Err(Error::Wal("log has no durable device".into())),
        }
    }

    /// Appends a record: counts it (`wal_records`, and its
    /// [`LogRecord::approx_size`] into `wal_bytes`) and, for a durable log,
    /// frames it onto the device. A device failure does **not** surface
    /// here — it poisons the writer, and [`Wal::commit_sync`] reports it
    /// before the enclosing commit can be acknowledged.
    pub fn append(&mut self, record: &LogRecord, stats: &mut OpStats) {
        if let Some(d) = &mut self.durable {
            d.append_record(record, stats);
        }
        stats.wal_records += 1;
        stats.wal_bytes += record.approx_size() as u64;
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

    /// Forces everything appended so far onto stable storage (no-op without
    /// a device).
    pub fn flush(&mut self, stats: &mut OpStats) -> Result<()> {
        match &mut self.durable {
            Some(d) => d.sync(stats),
            None => Ok(()),
        }
    }

    /// Takes a checkpoint of `tables` — every live row — counted as one
    /// record of the snapshot's [`LogRecord::approx_size`].
    ///
    /// On a durable log this is a **segment rotation**: the new segment
    /// (holding just the checkpoint record) is written beside the old one,
    /// fsynced, and atomically renamed over it — a crash at any instant
    /// finds either the old complete log or the new complete snapshot, never
    /// neither. Without a device nothing would ever read the snapshot, so
    /// none is built: it is sized off the borrowed rows.
    pub fn checkpoint<'a>(
        &mut self,
        tables: impl Iterator<Item = &'a Table>,
        stats: &mut OpStats,
    ) -> Result<()> {
        let mut scratch = OpStats::default();
        let mut live_rows = |t: &'a Table| t.scan(Snapshot::latest(), &mut scratch);
        let size = match &mut self.durable {
            Some(d) => {
                let snapshot = tables
                    .map(|t| TableSnapshot {
                        schema: t.schema.clone(),
                        rows: live_rows(t).map(|r| (r.id, r.row.clone())).collect(),
                    })
                    .collect();
                let record = LogRecord::Checkpoint { snapshot };
                d.rotate(&record, stats)?;
                record.approx_size()
            }
            None => checkpoint_size(
                tables.map(|t| live_rows(t).map(|r| r.row.approx_size()).sum()),
            ),
        };
        stats.checkpoints += 1;
        stats.wal_records += 1;
        stats.wal_bytes += size as u64;
        Ok(())
    }
}

/// The largest transaction id mentioned anywhere in `records`. After
/// recovery the transaction manager must allocate past this, or a new
/// transaction could collide with a logged one and make its uncommitted
/// changes look committed.
pub fn max_txn_id(records: &[LogRecord]) -> u64 {
    fn walk(rec: &LogRecord) -> u64 {
        let own = rec.txn().map(|t| t.0).unwrap_or(0);
        match rec {
            LogRecord::Batch { changes, .. } => changes.iter().map(walk).fold(own, u64::max),
            _ => own,
        }
    }
    records.iter().map(walk).max().unwrap_or(0)
}

/// What recovery replays of a decoded log: the last checkpoint's snapshot
/// (empty when there is none) and, in log order, the records after it that
/// belong to *committed* transactions. Changes of unfinished or aborted
/// transactions are dropped here.
fn committed_suffix(
    records: Vec<LogRecord>,
) -> (Vec<TableSnapshot>, impl Iterator<Item = LogRecord>) {
    let committed: HashSet<TxnId> = records
        .iter()
        .filter_map(|r| match r {
            LogRecord::Commit { txn } => Some(*txn),
            _ => None,
        })
        .collect();
    let last_checkpoint = records
        .iter()
        .rposition(|r| matches!(r, LogRecord::Checkpoint { .. }));
    let mut rest = records.into_iter();
    let snapshot = match last_checkpoint.and_then(|i| rest.nth(i)) {
        Some(LogRecord::Checkpoint { snapshot }) => snapshot,
        _ => Vec::new(),
    };
    let suffix = rest.filter(move |r| r.txn().is_some_and(|txn| committed.contains(&txn)));
    (snapshot, suffix)
}

/// Rebuilds the full set of tables implied by `records`: the latest
/// checkpoint (if any) plus all *committed* transactions after it.
///
/// Recovery replays through the tables' **physical** operations, so the
/// rebuilt catalog holds exactly one committed version per live row
/// (stamped [`crate::mvcc::COMMITTED_TXN`], visible to every snapshot of
/// the recovered database) — uncommitted versions, tombstones and
/// version chains never survive a crash.
pub fn recover(records: Vec<LogRecord>) -> Result<BTreeMap<String, Table>> {
    let (snapshot, suffix) = committed_suffix(records);
    let mut scratch = OpStats::default();
    let mut tables: BTreeMap<String, Table> = BTreeMap::new();
    for snap in snapshot {
        let name = snap.schema.name.clone();
        let mut table = Table::new(snap.schema)?;
        for (id, row) in snap.rows {
            table.insert_with_id(id, row, &mut scratch)?;
        }
        tables.insert(name, table);
    }
    for rec in suffix {
        redo(rec, &mut tables, &mut scratch)?;
    }
    Ok(tables)
}

/// Replays one committed record into `tables`, recursing into batches.
fn redo(
    rec: LogRecord,
    tables: &mut BTreeMap<String, Table>,
    scratch: &mut OpStats,
) -> Result<()> {
    let unknown = |verb: &str, table: &str| Error::Wal(format!("{verb} unknown table {table}"));
    match rec {
        LogRecord::CreateTable { schema, .. } => {
            tables.insert(schema.name.clone(), Table::new(schema)?);
        }
        LogRecord::DropTable { table, .. } => {
            tables.remove(&*table);
        }
        LogRecord::Insert {
            table, row_id, row, ..
        } => {
            let t = tables
                .get_mut(&*table)
                .ok_or_else(|| unknown("insert into", &table))?;
            t.insert_with_id(row_id, row, scratch)?;
        }
        LogRecord::Delete { table, row_id, .. } => {
            let t = tables
                .get_mut(&*table)
                .ok_or_else(|| unknown("delete from", &table))?;
            t.remove_physical(row_id, scratch)?;
        }
        LogRecord::Update {
            table,
            row_id,
            after,
            ..
        } => {
            let t = tables
                .get_mut(&*table)
                .ok_or_else(|| unknown("update of", &table))?;
            t.restore(row_id, after)?;
        }
        LogRecord::Batch { changes, .. } => {
            for change in changes {
                redo(change, tables, scratch)?;
            }
        }
        LogRecord::Begin { .. }
        | LogRecord::Commit { .. }
        | LogRecord::Abort { .. }
        | LogRecord::Checkpoint { .. } => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemDevice;
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

    /// `Begin` + `CREATE TABLE jobs` + the given inserts + `Commit`, as txn 1.
    fn committed_create(inserts: Vec<LogRecord>) -> Vec<LogRecord> {
        let mut log = vec![
            LogRecord::Begin { txn: TxnId(1) },
            LogRecord::CreateTable {
                txn: TxnId(1),
                schema: schema(),
            },
        ];
        log.extend(inserts);
        log.push(LogRecord::Commit { txn: TxnId(1) });
        log
    }

    #[test]
    fn recovery_replays_only_committed_transactions() {
        let mut log = committed_create(vec![insert_rec(1, 1, 100, "idle")]);
        // Txn 2 inserts but never commits; txn 3 inserts and aborts.
        log.extend([
            LogRecord::Begin { txn: TxnId(2) },
            insert_rec(2, 2, 200, "idle"),
            LogRecord::Begin { txn: TxnId(3) },
            insert_rec(3, 3, 300, "idle"),
            LogRecord::Abort { txn: TxnId(3) },
        ]);
        assert_eq!(max_txn_id(&log), 3);

        let tables = recover(log).unwrap();
        let jobs = tables.get("jobs").unwrap();
        assert_eq!(jobs.len(), 1);
        assert!(jobs.get(RowId(1)).is_some());
        assert!(jobs.get(RowId(2)).is_none());
        assert!(jobs.get(RowId(3)).is_none());
    }

    #[test]
    fn recovery_applies_updates_and_deletes() {
        let mut log = committed_create(vec![
            insert_rec(1, 1, 100, "idle"),
            insert_rec(1, 2, 200, "idle"),
        ]);
        let commit = log.pop().unwrap();
        log.extend([
            LogRecord::Update {
                txn: TxnId(1),
                table: "jobs".into(),
                row_id: RowId(1),
                after: Row::new(vec![Value::Int(100), Value::Text("running".into())]),
            },
            LogRecord::Delete {
                txn: TxnId(1),
                table: "jobs".into(),
                row_id: RowId(2),
            },
            commit,
        ]);

        let tables = recover(log).unwrap();
        let jobs = tables.get("jobs").unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(
            jobs.get(RowId(1)).unwrap().get(1),
            &Value::Text("running".into())
        );
        jobs.check_consistency().unwrap();
    }

    #[test]
    fn recovery_rejects_duplicate_committed_keys() {
        // A duplicated/corrupt log (two committed inserts sharing a primary
        // key) must fail recovery loudly, not rebuild a catalog that
        // violates its unique constraints.
        let log = committed_create(vec![
            insert_rec(1, 1, 100, "idle"),
            insert_rec(1, 2, 100, "held"),
        ]);
        assert!(matches!(recover(log), Err(Error::Constraint(_))));
    }

    #[test]
    fn recovery_refuses_a_row_id_with_no_successor() {
        // CRC-valid but hostile: replaying it would wrap the table's id
        // counter to 0 and hand out ids already in use.
        let log = committed_create(vec![
            insert_rec(1, 1, 100, "idle"),
            insert_rec(1, u64::MAX, 200, "idle"),
        ]);
        assert!(matches!(recover(log), Err(Error::Corruption(_))));

        // The largest id that does recover leaves none to issue: the next
        // insert is refused, typed, with the table untouched.
        let log = committed_create(vec![insert_rec(1, u64::MAX - 1, 100, "idle")]);
        let mut tables = recover(log).unwrap();
        let jobs = tables.get_mut("jobs").unwrap();
        let row = vec![Value::Int(300), Value::Text("idle".into())];
        let refused = jobs.insert(row, TxnId(2), &mut OpStats::default());
        assert!(matches!(refused, Err(Error::ResourceExhausted(_))));
        assert_eq!(jobs.len(), 1);
        jobs.check_consistency().unwrap();
    }

    #[test]
    fn recovery_of_an_absurd_row_id_allocates_by_rows_not_by_id() {
        let log = committed_create(vec![
            insert_rec(1, 1, 100, "idle"),
            insert_rec(1, 1 << 62, 200, "idle"),
        ]);
        let mut tables = recover(log).unwrap();
        let jobs = tables.get_mut("jobs").unwrap();
        assert_eq!(jobs.len(), 2);
        assert!(jobs.get(RowId(1 << 62)).is_some());
        assert!(
            jobs.approx_size() < 1 << 20,
            "two rows, two segments: {} bytes",
            jobs.approx_size()
        );
        let next = jobs
            .insert(
                vec![Value::Int(300), Value::Text("idle".into())],
                TxnId(2),
                &mut OpStats::default(),
            )
            .unwrap();
        assert_eq!(next, RowId((1 << 62) + 1), "ids continue past the largest seen");
        jobs.check_consistency().unwrap();
    }

    #[test]
    fn checkpoint_truncates_and_recovery_uses_it() {
        let mut stats = OpStats::default();
        let (mut wal, found) = Wal::open_device(
            Box::new(MemDevice::new()),
            DurabilityPolicy::Always,
            Arc::new(Failpoints::new()),
            &mut stats,
        )
        .unwrap();
        assert!(found.is_empty(), "a fresh device holds no records");
        let log = committed_create(vec![insert_rec(1, 1, 100, "idle")]);
        for rec in &log {
            wal.append(rec, &mut stats);
        }

        let tables = recover(log).unwrap();
        wal.checkpoint(tables.values(), &mut stats).unwrap();
        assert_eq!(stats.checkpoints, 1);
        // The rotated segment holds the checkpoint record and nothing else.
        let rotated = decode_segment(&wal.durable_contents().unwrap(), &mut stats).unwrap();
        assert!(matches!(rotated.records[..], [LogRecord::Checkpoint { .. }]));

        // Post-checkpoint committed work still replays on top of it.
        for rec in [
            LogRecord::Begin { txn: TxnId(2) },
            insert_rec(2, 2, 200, "held"),
            LogRecord::Commit { txn: TxnId(2) },
        ] {
            wal.append(&rec, &mut stats);
        }
        wal.flush(&mut stats).unwrap();
        let reopened = decode_segment(&wal.durable_contents().unwrap(), &mut stats).unwrap();
        assert_eq!(reopened.records.len(), 4);
        let tables = recover(reopened.records).unwrap();
        assert_eq!(tables.get("jobs").unwrap().len(), 2);
    }

    #[test]
    fn recovery_replays_batch_records() {
        // One record carries three inserts.
        let mut log = committed_create(vec![LogRecord::Batch {
            txn: TxnId(1),
            changes: vec![
                insert_rec(1, 1, 100, "idle"),
                insert_rec(1, 2, 200, "idle"),
                insert_rec(1, 3, 300, "idle"),
            ],
        }]);
        // An uncommitted batch must not replay.
        log.extend([
            LogRecord::Begin { txn: TxnId(2) },
            LogRecord::Batch {
                txn: TxnId(2),
                changes: vec![insert_rec(2, 4, 400, "idle")],
            },
        ]);
        // The batch counts as a single WAL record.
        let mut wal = Wal::new();
        let mut stats = OpStats::default();
        for rec in &log {
            wal.append(rec, &mut stats);
        }
        assert_eq!(stats.wal_records, 6);

        let tables = recover(log).unwrap();
        let jobs = tables.get("jobs").unwrap();
        assert_eq!(jobs.len(), 3);
        assert!(jobs.get(RowId(4)).is_none());
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
        let records = [LogRecord::Begin { txn: TxnId(1) }, insert_rec(1, 1, 100, "idle")];
        for rec in &records {
            wal.append(rec, &mut stats);
        }
        assert_eq!(stats.wal_records, 2);
        let sized: usize = records.iter().map(LogRecord::approx_size).sum();
        assert_eq!(stats.wal_bytes, sized as u64);
    }
}
