//! Write-ahead logging, checkpointing and recovery.
//!
//! The log is a list of committed transactions. A transaction keeps one
//! ordered list of its [`Change`]s while it runs (see `crate::txn`);
//! rollback walks that list backwards (`Change::undo`), and commit frames
//! it forwards as **one** [`LogRecord::Txn`] — one CRC frame, one device
//! append, then the [`DurabilityPolicy`]'s sync. A transaction reaches the
//! log once, at commit, as one frame; a transaction that does not commit
//! never reaches it. So the log's vocabulary is `Txn` and `Checkpoint`, a
//! torn transaction is a torn tail, and `recover` is "the last checkpoint
//! image, then every `Txn` after it, in order" — commit order is a correct
//! replay order under the strict table-level two-phase locking writers run
//! under. A frame carries no transaction id: nothing in replay reads one
//! (recovered rows are stamped [`crate::mvcc::COMMITTED_TXN`]).
//!
//! The schedd in Condor keeps a persistent job-queue log for exactly the
//! same reason (the paper notes it is "used only for recovery"); here the log
//! covers *all* operational state, not just the job queue — DDL included: a
//! `CREATE INDEX` is a change like any other.
//!
//! Because the log is read only by recovery, the running engine keeps no copy
//! of it: a frame is sized, counted, written onto the [`LogDevice`] (when
//! there is one) and dropped. The decoded records exist as a value only while
//! a database opens — `Wal::open_device` hands them to `recover` — and a
//! change carries only what replay reads: the *new* image of an updated row
//! and the id of a deleted one. Rollback needs no image either; it is
//! version-aware and works on the in-memory chains.

use crate::error::{Error, Result};
use crate::io::record::{encode_record_within, encode_txn, segment_header, MAX_RECORD_PAYLOAD};
use crate::io::{decode_segment, points, DurabilityPolicy, FailAction, Failpoints, LogDevice};
use crate::mvcc::Snapshot;
use crate::obs::clock::Stopwatch;
use crate::obs::{Observability, OpStats};
use crate::schema::{IndexDef, Schema};
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

/// A snapshot of one table taken at checkpoint time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableSnapshot {
    /// The table schema.
    pub schema: Schema,
    /// All live rows at checkpoint time.
    pub rows: Vec<(RowId, Row)>,
}

/// One change a transaction made to the catalog, as all three of its readers
/// want it: rollback undoes it (`Change::undo`), commit encodes it into the
/// transaction's log frame, recovery replays it (`Change::redo`).
#[derive(Debug)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum Change {
    /// A table was created.
    CreateTable { schema: Schema },
    /// A table was dropped. `dropped` is the table as it was removed, kept
    /// so rollback can put it back with its rows and indexes; only the name
    /// is logged, and a decoded change holds `None`.
    DropTable {
        table: Arc<str>,
        dropped: Option<Box<Table>>,
    },
    /// A secondary index was added to a table.
    CreateIndex { table: Arc<str>, def: IndexDef },
    /// A row was inserted.
    Insert {
        table: Arc<str>,
        row_id: RowId,
        row: Row,
    },
    /// A row was deleted.
    Delete { table: Arc<str>, row_id: RowId },
    /// A row was updated: `after` is its complete new image.
    Update {
        table: Arc<str>,
        row_id: RowId,
        after: Row,
    },
}

impl Change {
    /// Approximate serialized size in bytes (used for IO cost accounting).
    pub(crate) fn approx_size(&self) -> usize {
        match self {
            Change::CreateTable { schema } => 64 + schema.columns.len() * 24,
            Change::DropTable { table, .. } => 16 + table.len(),
            Change::CreateIndex { table, def } => {
                24 + table.len() + def.name.len() + def.column.len()
            }
            Change::Insert { row, table, .. } => 24 + table.len() + row.approx_size(),
            Change::Delete { table, .. } => 24 + table.len(),
            Change::Update { after, table, .. } => 24 + table.len() + after.approx_size(),
        }
    }

    /// Takes the change back out of `tables` — rollback, called on a
    /// transaction's changes newest first. Row-level undo is version-aware:
    /// `txn`'s versions are removed from the chains physically and the
    /// versions they superseded re-opened.
    pub(crate) fn undo(self, tables: &mut BTreeMap<String, Table>, txn: TxnId) {
        match self {
            Change::CreateTable { schema } => {
                tables.remove(&schema.name);
            }
            Change::DropTable { table, dropped } => {
                if let Some(dropped) = dropped {
                    tables.insert(table.to_string(), *dropped);
                }
            }
            Change::CreateIndex { table, def } => {
                if let Some(t) = tables.get_mut(&*table) {
                    t.drop_index(&def.name);
                }
            }
            Change::Insert { table, row_id, .. } => {
                if let Some(t) = tables.get_mut(&*table) {
                    t.undo_insert(row_id);
                }
            }
            Change::Delete { table, row_id } => {
                if let Some(t) = tables.get_mut(&*table) {
                    t.undo_delete(row_id, txn);
                }
            }
            Change::Update { table, row_id, .. } => {
                if let Some(t) = tables.get_mut(&*table) {
                    t.undo_update(row_id, txn);
                }
            }
        }
    }

    /// Replays the change into `tables` — recovery, through the tables'
    /// **physical** operations.
    fn redo(self, tables: &mut BTreeMap<String, Table>, scratch: &mut OpStats) -> Result<()> {
        fn target<'t>(
            tables: &'t mut BTreeMap<String, Table>,
            verb: &str,
            table: &str,
        ) -> Result<&'t mut Table> {
            tables
                .get_mut(table)
                .ok_or_else(|| Error::Wal(format!("{verb} unknown table {table}")))
        }
        match self {
            Change::CreateTable { schema } => {
                tables.insert(schema.name.clone(), Table::new(schema)?);
                Ok(())
            }
            Change::DropTable { table, .. } => {
                tables.remove(&*table);
                Ok(())
            }
            Change::CreateIndex { table, def } => {
                target(tables, "index on", &table)?.add_index(def, scratch)
            }
            Change::Insert { table, row_id, row } => {
                target(tables, "insert into", &table)?.insert_with_id(row_id, row, scratch)
            }
            Change::Delete { table, row_id } => {
                target(tables, "delete from", &table)?.remove_physical(row_id, scratch)
            }
            Change::Update { table, row_id, after } => {
                target(tables, "update of", &table)?.restore(row_id, after)
            }
        }
    }
}

/// A single write-ahead log record.
#[derive(Debug)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum LogRecord {
    /// A committed transaction: its changes, in execution order.
    Txn { changes: Vec<Change> },
    /// A checkpoint: a consistent snapshot of every table.
    Checkpoint { snapshot: Vec<TableSnapshot> },
}

impl LogRecord {
    /// Approximate serialized size in bytes (used for IO cost accounting).
    pub(crate) fn approx_size(&self) -> usize {
        match self {
            LogRecord::Txn { changes } => txn_size(changes),
            LogRecord::Checkpoint { snapshot } => checkpoint_size(
                snapshot
                    .iter()
                    .map(|t| t.rows.iter().map(|(_, r)| r.approx_size()).sum()),
            ),
        }
    }
}

/// [`LogRecord::approx_size`] of a transaction: a 16-byte header plus its
/// changes.
fn txn_size(changes: &[Change]) -> usize {
    16 + changes.iter().map(Change::approx_size).sum::<usize>()
}

/// [`LogRecord::approx_size`] of a checkpoint, from the summed row sizes of
/// each table it snapshots.
fn checkpoint_size(table_row_bytes: impl Iterator<Item = usize>) -> usize {
    64 + table_row_bytes.map(|rows| rows + 64).sum::<usize>()
}

/// The durable sink behind a [`Wal`], present only for databases opened
/// through [`crate::Database::open_durable`] and friends.
///
/// The first device failure **poisons** the sink: that `Wal::commit` and
/// every later `commit` / [`Wal::flush`] / [`Wal::checkpoint`] returns the
/// error. The net effect is the guarantee that matters: once a write or
/// fsync has failed, no commit is ever again acknowledged, even though the
/// in-memory engine stays readable.
#[derive(Debug)]
struct DurableLog {
    device: Box<dyn LogDevice>,
    policy: DurabilityPolicy,
    failpoints: Arc<Failpoints>,
    /// The first device error, replayed to every subsequent durability call.
    poisoned: Option<Error>,
    /// Commits acknowledged since the last successful sync.
    unsynced_commits: usize,
    /// The largest record payload this writer frames: what the decoder
    /// accepts, [`MAX_RECORD_PAYLOAD`] (tests lower it).
    payload_limit: usize,
    /// The owning database's metrics registry: every successful device sync
    /// lands one sample in its `wal.fsync` histogram.
    obs: Arc<Observability>,
}

impl DurableLog {
    fn check_poisoned(&self) -> Result<()> {
        match &self.poisoned {
            Some(e) => Err(Error::io(format!("log writer poisoned by earlier failure: {e}"))),
            None => Ok(()),
        }
    }

    /// Writes one framed record onto the device; a failure poisons the sink.
    fn append(&mut self, frame: &[u8], stats: &mut OpStats) -> Result<()> {
        self.check_poisoned()?;
        let result = match self.failpoints.check(points::WAL_APPEND) {
            Some(action) => {
                stats.failpoints_hit += 1;
                self.injected_append(action, frame)
            }
            None => self.device.append(frame),
        };
        if let Err(e) = &result {
            self.poisoned = Some(e.clone());
        }
        result
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

    /// Accounts one successful durability barrier: one `wal.fsync` sample,
    /// which `wal_fsyncs` counts and `wal_fsync_nanos` sums. The delta
    /// carries the nanos only for the statement's slow-query breakdown.
    fn note_fsync(&self, sw: Stopwatch, stats: &mut OpStats) {
        let nanos = sw.elapsed_nanos();
        stats.wal_fsync_nanos += nanos;
        self.obs.histograms.wal_fsync.record(nanos);
    }

    /// Called once per appended commit: syncs if the policy's window is
    /// full.
    fn note_commit(&mut self, stats: &mut OpStats) -> Result<()> {
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
        // An image the decoder would refuse is refused here, typed, with the
        // old segment in place and the writer healthy.
        let mut bytes = segment_header().to_vec();
        bytes.extend_from_slice(&encode_record_within(record, self.payload_limit)?);
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
/// At run time the log is a sink, not a store: `Wal::commit` sizes a
/// transaction's frame into the `wal_records` / `wal_bytes` counters, writes
/// it onto the durable [`LogDevice`] when there is one, and keeps nothing.
/// By default there is no device — the simulated deployment models
/// durability by the IO cycle cost the application-server cost model charges
/// per appended byte. A database opened through
/// [`crate::Database::open_durable`] writes every record as a checksummed
/// binary segment (see [`crate::io`]), which [`Wal::open_device`] decodes
/// once, on open, for [`recover`].
#[derive(Debug, Default)]
pub(crate) struct Wal {
    durable: Option<DurableLog>,
}

/// A committing transaction's change list as `Wal::commit` will log it:
/// sized, and — for a durable log — already encoded, so everything that can
/// refuse the transaction has happened before it is marked committed.
#[derive(Debug)]
pub(crate) struct TxnFrame {
    size: usize,
    bytes: Option<Vec<u8>>,
}

impl Wal {
    /// Opens a durable log over `device`, sampling its fsyncs into `obs`,
    /// and returns it together with the records the device held — the input
    /// of [`recover`], owned by the caller and dropped when the open is done.
    ///
    /// The device's durable contents are scanned with
    /// [`decode_segment`]: a torn tail is truncated off the device (counted
    /// in `stats.recovery_truncated_bytes`), mid-log corruption surfaces as
    /// [`Error::Corruption`]. A fresh device gets a segment header written.
    pub(crate) fn open_device(
        mut device: Box<dyn LogDevice>,
        policy: DurabilityPolicy,
        failpoints: Arc<Failpoints>,
        obs: Arc<Observability>,
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
                payload_limit: MAX_RECORD_PAYLOAD,
                obs,
            }),
        };
        Ok((wal, decoded.records))
    }

    /// Lowers the durable writer's record payload limit so a test can reach
    /// it without a 256 MiB transaction.
    #[cfg(test)]
    pub(crate) fn set_payload_limit(&mut self, limit: usize) {
        self.durable.as_mut().expect("a durable log").payload_limit = limit;
    }

    /// True when this log writes appends onto a durable device.
    pub(crate) fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The bytes a crash right now would leave on the durable device, or
    /// [`Error::Wal`] for a log without one. Works even after the device has
    /// died (it is the post-mortem view used by crash tests).
    pub(crate) fn durable_contents(&self) -> Result<Vec<u8>> {
        match &self.durable {
            Some(d) => d.device.durable_contents(),
            None => Err(Error::Wal("log has no durable device".into())),
        }
    }

    /// Frames a transaction's changes for `Wal::commit`; `None` for a
    /// transaction that changed nothing, which never touches the log. Fails
    /// with [`Error::ResourceExhausted`] — nothing written, the writer
    /// healthy — when the frame would exceed what a log record may hold
    /// ([`crate::io::record::MAX_RECORD_PAYLOAD`]): the transaction cannot
    /// commit and must roll back.
    pub(crate) fn frame(&self, changes: &[Change]) -> Result<Option<TxnFrame>> {
        if changes.is_empty() {
            return Ok(None);
        }
        let bytes = match &self.durable {
            Some(d) => Some(encode_txn(changes, d.payload_limit)?),
            None => None,
        };
        Ok(Some(TxnFrame { size: txn_size(changes), bytes }))
    }

    /// Logs one committing transaction: counts the frame (`wal_records`,
    /// and its [`LogRecord::approx_size`] into `wal_bytes`) and, for a
    /// durable log, appends it to the device — one append — and applies the
    /// [`DurabilityPolicy`]'s fsync schedule. An `Err` means the commit was
    /// **not** acknowledged as durable, and the writer is poisoned.
    pub(crate) fn commit(&mut self, frame: TxnFrame, stats: &mut OpStats) -> Result<()> {
        stats.wal_records += 1;
        stats.wal_bytes += frame.size as u64;
        match (&mut self.durable, frame.bytes) {
            (Some(d), Some(bytes)) => {
                d.append(&bytes, stats)?;
                d.note_commit(stats)
            }
            _ => Ok(()),
        }
    }

    /// Forces everything appended so far onto stable storage (no-op without
    /// a device).
    pub(crate) fn flush(&mut self, stats: &mut OpStats) -> Result<()> {
        match &mut self.durable {
            Some(d) => d.sync(stats),
            None => Ok(()),
        }
    }

    /// Takes a checkpoint of `tables` — every live row — counted as one
    /// record of the snapshot's [`LogRecord::approx_size`]. (The checkpoint
    /// itself is counted by the caller's `checkpoint` histogram sample.)
    ///
    /// On a durable log this is a **segment rotation**: the new segment
    /// (holding just the checkpoint record) is written beside the old one,
    /// fsynced, and atomically renamed over it — a crash at any instant
    /// finds either the old complete log or the new complete snapshot, never
    /// neither. Without a device nothing would ever read the snapshot, so
    /// none is built: it is sized off the borrowed rows.
    pub(crate) fn checkpoint<'a>(
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
        stats.wal_records += 1;
        stats.wal_bytes += size as u64;
        Ok(())
    }
}

/// Rebuilds the full set of tables implied by `records`: the latest
/// checkpoint image (if any), then every transaction after it, in log
/// order. Every record on the log is a committed transaction — an
/// unfinished one never reached it, a torn one was truncated off with the
/// tail — so there is nothing to filter.
///
/// Recovery replays through the tables' **physical** operations, so the
/// rebuilt catalog holds exactly one committed version per live row
/// (stamped [`crate::mvcc::COMMITTED_TXN`], visible to every snapshot of
/// the recovered database) — tombstones and version chains never survive a
/// crash.
pub(crate) fn recover(records: Vec<LogRecord>) -> Result<BTreeMap<String, Table>> {
    let last_checkpoint = records
        .iter()
        .rposition(|r| matches!(r, LogRecord::Checkpoint { .. }));
    let mut rest = records.into_iter();
    let snapshot = match last_checkpoint.and_then(|i| rest.nth(i)) {
        Some(LogRecord::Checkpoint { snapshot }) => snapshot,
        _ => Vec::new(),
    };
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
    for record in rest {
        if let LogRecord::Txn { changes } = record {
            for change in changes {
                change.redo(&mut tables, &mut scratch)?;
            }
        }
    }
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemDevice;
    use crate::schema::Column;
    use crate::value::{DataType, Value};

    impl Wal {
        /// A log with no durable device.
        fn new() -> Self {
            Wal::default()
        }
    }

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

    fn insert(id: u64, job: i64, state: &str) -> Change {
        Change::Insert {
            table: "jobs".into(),
            row_id: RowId(id),
            row: Row::new(vec![Value::Int(job), Value::Text(state.into())]),
        }
    }

    /// One transaction: `CREATE TABLE jobs` plus `changes`.
    fn create_then(changes: Vec<Change>) -> LogRecord {
        let mut all = vec![Change::CreateTable { schema: schema() }];
        all.extend(changes);
        LogRecord::Txn { changes: all }
    }

    /// A durable log over a fresh in-memory device, with the registry its
    /// fsyncs are sampled into.
    fn open_mem(stats: &mut OpStats) -> (Wal, Arc<Observability>) {
        let obs = Arc::new(Observability::default());
        let (wal, found) = Wal::open_device(
            Box::new(MemDevice::new()),
            DurabilityPolicy::Always,
            Arc::new(Failpoints::new()),
            Arc::clone(&obs),
            stats,
        )
        .unwrap();
        assert!(found.is_empty(), "a fresh device holds no records");
        (wal, obs)
    }

    /// Commits `record`'s changes through `wal`, as a transaction would.
    fn commit(wal: &mut Wal, record: &LogRecord, stats: &mut OpStats) {
        let LogRecord::Txn { changes } = record else { panic!("not a transaction") };
        let frame = wal.frame(changes).unwrap().expect("a writing transaction");
        wal.commit(frame, stats).unwrap();
    }

    #[test]
    fn recovery_replays_only_committed_transactions() {
        // Every record is a committed transaction; they replay in log order.
        let log = vec![
            create_then(vec![insert(1, 100, "idle")]),
            LogRecord::Txn { changes: vec![insert(2, 200, "idle")] },
            LogRecord::Txn {
                changes: vec![Change::Delete { table: "jobs".into(), row_id: RowId(1) }],
            },
        ];
        let tables = recover(log).unwrap();
        let jobs = tables.get("jobs").unwrap();
        assert_eq!(jobs.len(), 1);
        assert!(jobs.get(RowId(1)).is_none());
        assert!(jobs.get(RowId(2)).is_some());

        // A transaction that changed nothing has no frame to commit.
        assert!(Wal::new().frame(&[]).unwrap().is_none());
    }

    #[test]
    fn recovery_applies_updates_and_deletes() {
        let log = vec![create_then(vec![
            insert(1, 100, "idle"),
            insert(2, 200, "idle"),
            Change::Update {
                table: "jobs".into(),
                row_id: RowId(1),
                after: Row::new(vec![Value::Int(100), Value::Text("running".into())]),
            },
            Change::Delete { table: "jobs".into(), row_id: RowId(2) },
        ])];

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
    fn recovery_replays_ddl_like_any_other_change() {
        let unique = IndexDef { name: "uidx_jobs_state".into(), column: "state".into(), unique: true };
        let log = vec![
            create_then(vec![insert(1, 100, "idle")]),
            LogRecord::Txn {
                changes: vec![Change::CreateIndex { table: "jobs".into(), def: unique }],
            },
        ];
        let mut tables = recover(log).unwrap();
        let jobs = tables.get_mut("jobs").unwrap();
        assert!(jobs.has_index_on("state"));
        let dup = vec![Value::Int(200), Value::Text("idle".into())];
        let refused = jobs.insert(dup, TxnId(2), &mut OpStats::default());
        assert!(matches!(refused, Err(Error::Constraint(_))), "the index is still unique");

        // An index over rows that already break it does not replay silently.
        let broken = vec![
            create_then(vec![insert(1, 100, "idle"), insert(2, 200, "idle")]),
            LogRecord::Txn {
                changes: vec![Change::CreateIndex {
                    table: "jobs".into(),
                    def: IndexDef { name: "u".into(), column: "state".into(), unique: true },
                }],
            },
        ];
        assert!(matches!(recover(broken), Err(Error::Constraint(_))));
        let orphan = vec![LogRecord::Txn {
            changes: vec![Change::DropTable { table: "jobs".into(), dropped: None }, insert(1, 1, "x")],
        }];
        assert!(matches!(recover(orphan), Err(Error::Wal(_))));
    }

    #[test]
    fn recovery_rejects_duplicate_committed_keys() {
        // A duplicated/corrupt log (two committed inserts sharing a primary
        // key) must fail recovery loudly, not rebuild a catalog that
        // violates its unique constraints.
        let log = vec![create_then(vec![insert(1, 100, "idle"), insert(2, 100, "held")])];
        assert!(matches!(recover(log), Err(Error::Constraint(_))));
    }

    #[test]
    fn recovery_refuses_a_row_id_with_no_successor() {
        // CRC-valid but hostile: replaying it would wrap the table's id
        // counter to 0 and hand out ids already in use.
        let log = vec![create_then(vec![insert(1, 100, "idle"), insert(u64::MAX, 200, "idle")])];
        assert!(matches!(recover(log), Err(Error::Corruption(_))));

        // The largest id that does recover leaves none to issue: the next
        // insert is refused, typed, with the table untouched.
        let log = vec![create_then(vec![insert(u64::MAX - 1, 100, "idle")])];
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
        let log = vec![create_then(vec![insert(1, 100, "idle"), insert(1 << 62, 200, "idle")])];
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
        let (mut wal, _) = open_mem(&mut stats);
        let first = create_then(vec![insert(1, 100, "idle")]);
        commit(&mut wal, &first, &mut stats);

        let tables = recover(vec![first]).unwrap();
        wal.checkpoint(tables.values(), &mut stats).unwrap();
        assert_eq!(stats.wal_segments_rotated, 1);
        // The rotated segment holds the checkpoint record and nothing else.
        let rotated = decode_segment(&wal.durable_contents().unwrap(), &mut stats).unwrap();
        assert!(matches!(rotated.records[..], [LogRecord::Checkpoint { .. }]));

        // Post-checkpoint committed work still replays on top of it.
        let second = LogRecord::Txn { changes: vec![insert(2, 200, "held")] };
        commit(&mut wal, &second, &mut stats);
        let reopened = decode_segment(&wal.durable_contents().unwrap(), &mut stats).unwrap();
        assert_eq!(reopened.records.len(), 2);
        let tables = recover(reopened.records).unwrap();
        assert_eq!(tables.get("jobs").unwrap().len(), 2);
    }

    #[test]
    fn a_commit_is_one_append_and_one_sync_under_always() {
        let mut stats = OpStats::default();
        let (mut wal, obs) = open_mem(&mut stats);
        let txn = create_then(vec![insert(1, 100, "idle"), insert(2, 200, "idle")]);
        commit(&mut wal, &txn, &mut stats);
        assert_eq!((stats.wal_records, obs.histograms.wal_fsync.count()), (1, 1));
        // Durable without a flush: the commit forced its own frame.
        let image = wal.durable_contents().unwrap();
        let LogRecord::Txn { changes } = &txn else { unreachable!() };
        let framed = encode_txn(changes, MAX_RECORD_PAYLOAD).unwrap();
        assert_eq!(image.len(), segment_header().len() + framed.len());
        let decoded = decode_segment(&image, &mut stats).unwrap();
        assert!(matches!(&decoded.records[..], [LogRecord::Txn { changes }] if changes.len() == 3));
    }

    #[test]
    fn an_oversized_frame_is_refused_before_anything_is_written() {
        let mut stats = OpStats::default();
        let (mut wal, _) = open_mem(&mut stats);
        let small = create_then(vec![insert(1, 100, "idle")]);
        commit(&mut wal, &small, &mut stats);
        let before = wal.durable_contents().unwrap();
        wal.set_payload_limit(64);

        // A transaction over the limit: typed refusal, nothing counted,
        // nothing on the device, the writer not poisoned.
        let big: Vec<Change> = (2..20).map(|i| insert(i, i as i64, "idle")).collect();
        let err = wal.frame(&big).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
        // So is a checkpoint image over it, with the old segment in place.
        let tables = recover(vec![small, LogRecord::Txn { changes: big }]).unwrap();
        let err = wal.checkpoint(tables.values(), &mut stats).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
        assert_eq!((stats.wal_records, stats.wal_segments_rotated), (1, 0));
        assert_eq!(wal.durable_contents().unwrap(), before);

        // A transaction under it still commits.
        let next = LogRecord::Txn { changes: vec![insert(2, 200, "idle")] };
        commit(&mut wal, &next, &mut stats);
        wal.flush(&mut stats).unwrap();
        let image = decode_segment(&wal.durable_contents().unwrap(), &mut stats).unwrap();
        assert_eq!(image.records.len(), 2);
    }

    #[test]
    fn wal_counts_bytes() {
        let mut wal = Wal::new();
        let mut stats = OpStats::default();
        let records = [
            create_then(vec![insert(1, 100, "idle")]),
            LogRecord::Txn { changes: vec![insert(2, 200, "idle")] },
        ];
        for rec in &records {
            commit(&mut wal, rec, &mut stats);
        }
        assert_eq!(stats.wal_records, 2);
        let sized: usize = records.iter().map(LogRecord::approx_size).sum();
        assert_eq!(stats.wal_bytes, sized as u64);
        // A transaction is a 16-byte header plus its changes.
        assert_eq!(records[1].approx_size(), 16 + insert(2, 200, "idle").approx_size());
    }
}
