//! The [`Database`] facade: catalog, statement execution, transactions,
//! write-ahead logging, checkpointing and recovery.
//!
//! # Concurrency model
//!
//! Engine state is split so readers never contend with each other:
//!
//! * the **catalog** (tables, rows, indexes) sits behind a
//!   [`parking_lot::RwLock`]. Read-only statements execute under a *shared*
//!   read guard, so any number of threads run SELECTs in parallel; mutating
//!   statements take the write guard for the duration of the statement.
//! * **transaction, lock and WAL state** ([`TxnManager`], [`LockManager`],
//!   [`Wal`]) lives under its own small mutex, held only for the brief
//!   book-keeping sections of a statement — never across row access.
//! * the **statement cache** has a third, independent lock so cache probes
//!   do not serialise against execution.
//! * **statistics** accumulate into a stack-local [`OpStats`] per statement
//!   and merge into the lock-free atomics of the one registry,
//!   [`Observability`], at the end, so counting rows no longer forces `&mut`
//!   exclusivity on the read path.
//!
//! # MVCC: readers never fail against writers
//!
//! Reads are isolated by **snapshots**, not locks (see [`crate::mvcc`]).
//! Every SELECT — autocommit, in-transaction, and batched — carries a
//! [`Snapshot`] and resolves each row's version chain against it: an
//! autocommit read takes a fresh snapshot per statement, an explicit
//! transaction reuses the snapshot stamped at `begin()` (repeatable reads).
//! Readers acquire **no table locks** and never return
//! [`Error::LockConflict`]; the lock table now serialises only write-write
//! conflicts. Old versions are pruned by vacuum: [`Database::checkpoint`]
//! sweeps every table, and a write statement that leaves a table with more
//! than [`VACUUM_DEAD_THRESHOLD`] dead versions triggers a targeted sweep.
//!
//! Lock order is `catalog` before `ctl` (the control mutex); no code path
//! acquires the catalog while holding `ctl`. Autocommit SELECTs take the
//! read guard first and then their snapshot, which makes the snapshot
//! race-free: any commit that lands after the guard is acquired simply is
//! not in the snapshot, and its versions are filtered out by visibility.
//!
//! # Resource governance
//!
//! Every statement runs under the [`Governance`] of the
//! [`Session`](crate::Session) it came through: statement deadlines and
//! cooperative cancellation (checked every
//! [`crate::govern::DEFAULT_CHECK_INTERVAL`] rows in all executor loops),
//! row/byte result budgets, and bounded lock waits (a conflicted writer
//! waits *before* taking the catalog write guard, so waiting never blocks
//! readers). Abandoned transactions are reclaimed by
//! [`Database::reap_idle`]. With no limits set ([`Governance::NONE`], the
//! default) the governor is disarmed and its per-row cost is a single
//! branch.

use crate::error::{Error, Result, TimeoutKind};
use crate::exec::{
    execute_select_opts, matching_row_ids_with, Catalog, ExecOptions,
    QueryResult,
};
use crate::govern::{Governance, Governor};
use crate::io::{DurabilityPolicy, Failpoints, FsDevice, LogDevice};
use crate::mvcc::Snapshot;
use crate::obs::clock::Stopwatch;
use crate::obs::{
    self, systables, Observability, OpStats, ProfileCounters, StmtKind, StmtProfile,
    StmtProfileSnapshot, WaitBreakdown,
};
use crate::plan::{self, plan_select, PlanCell, PlanProfile, PlanSlot};
use crate::schema::{lower_name, IndexDef, Schema};
use crate::sql::ast::{DeleteStmt, InsertStmt, SelectStmt, Statement, UpdateStmt};
use crate::sql::parser::parse;
use crate::table::Table;
use crate::tuple::Row;
use crate::txn::{LockManager, TxnManager};
use crate::value::Value;
use crate::wal::{self, Change, TxnId, Wal};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};
use std::time::{Duration, Instant};

/// Dead (superseded or tombstoned) versions a table may accumulate before a
/// write statement on it triggers a targeted vacuum sweep. Checkpoints sweep
/// unconditionally.
pub const VACUUM_DEAD_THRESHOLD: usize = 256;

/// Polling quantum for bounded lock waits: a writer blocked on a table lock
/// re-probes the lock table at most this often. The control mutex is *not*
/// held between probes, so waiting writers never block readers, the lock
/// holder's commit, or each other's book-keeping.
const LOCK_WAIT_POLL: Duration = Duration::from_micros(500);

/// The outcome of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecResult {
    /// A SELECT produced rows.
    Query(QueryResult),
    /// A DML statement affected this many rows.
    Affected(usize),
    /// A DDL or transaction-control statement completed.
    Ack,
}

impl ExecResult {
    /// The query result, if this was a SELECT.
    pub fn query(self) -> Result<QueryResult> {
        match self {
            ExecResult::Query(q) => Ok(q),
            other => Err(Error::type_err(format!("expected query result, got {other:?}"))),
        }
    }

    /// The affected-row count, if this was a DML statement.
    pub fn affected(&self) -> usize {
        match self {
            ExecResult::Affected(n) => *n,
            _ => 0,
        }
    }
}

/// A statement prepared once and executable many times with different bound
/// parameter values. Obtained from [`Database::prepare`]; cheap to clone
/// (the parsed AST is shared).
#[derive(Debug, Clone)]
pub struct Prepared {
    stmt: Arc<Statement>,
    params: usize,
    /// The cumulative execution profile for this statement text, shared with
    /// the statement-cache entry (and with every other `Prepared` handle for
    /// the same text), so recording an execution is lock-free.
    profile: Arc<StmtProfile>,
    /// The plan cache cell for this statement text: the chosen [`plan`] plan
    /// plus reusable hash-join build sides, shared with the cache entry and
    /// invalidated when the database's plan generation moves (DDL, ANALYZE).
    plan: Arc<PlanCell>,
}

impl Prepared {
    /// The parsed statement.
    pub fn statement(&self) -> &Statement {
        &self.stmt
    }

    /// Number of `?` parameter slots the statement expects.
    pub fn param_count(&self) -> usize {
        self.params
    }

    /// A snapshot of this statement's cumulative execution profile (the
    /// `rel_statements` row it shares with the statement cache; frozen once
    /// the cache evicts the entry — later executions count in `'(evicted)'`).
    pub fn profile(&self) -> StmtProfileSnapshot {
        self.profile.snapshot()
    }
}

/// Where and under which limits a statement runs: inside the explicit
/// transaction `txn` or in autocommit mode, under the statement limits
/// `gov`. [`Session`](crate::Session) and
/// [`Transaction`](crate::Transaction) build one per call for
/// [`Database::run`], [`Database::run_read`] and [`Database::run_batch`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecCtx<'a> {
    pub(crate) txn: Option<TxnId>,
    pub(crate) gov: &'a Governance,
}

/// Default capacity of the per-database LRU statement cache.
const STMT_CACHE_CAPACITY: usize = 256;

/// An LRU cache of parsed statements keyed by their SQL text.
///
/// Recency is a monotonically increasing generation stamped on each touch, so
/// a hit is one hash lookup and a counter bump — no allocation, no ordered
/// structure to maintain. Eviction (rare: only on a miss at capacity) scans
/// for the minimum generation, O(capacity).
#[derive(Debug)]
struct StmtCache {
    capacity: usize,
    entries: HashMap<String, CacheEntry>,
    next_gen: u64,
    /// Where evicted entries' profiles go: their totals as of the eviction,
    /// and whatever handles that outlive their entry record afterwards.
    evicted: Arc<ProfileCounters>,
}

#[derive(Debug)]
struct CacheEntry {
    /// The handle every [`Database::prepare`] of this text clones. Its
    /// execution profile lives as long as the entry, so the profile table
    /// is bounded by the cache's LRU.
    prepared: Prepared,
    gen: u64,
}

impl Default for StmtCache {
    fn default() -> Self {
        StmtCache {
            capacity: STMT_CACHE_CAPACITY,
            entries: HashMap::new(),
            next_gen: 0,
            evicted: Arc::default(),
        }
    }
}

impl StmtCache {
    /// Looks up `sql`, refreshing its recency on a hit.
    fn get(&mut self, sql: &str) -> Option<Prepared> {
        let entry = self.entries.get_mut(sql)?;
        entry.gen = self.next_gen;
        self.next_gen += 1;
        Some(entry.prepared.clone())
    }

    /// Inserts a parsed statement, evicting the least-recently-used entry
    /// when at capacity. A zero capacity disables caching.
    fn insert(&mut self, sql: String, prepared: Prepared) {
        if self.capacity == 0 {
            return;
        }
        if let Some(replaced) = self.entries.remove(&sql) {
            replaced.prepared.profile.evict_into(&self.evicted);
        }
        while self.entries.len() >= self.capacity {
            self.evict_lru();
        }
        let gen = self.next_gen;
        self.next_gen += 1;
        self.entries.insert(sql, CacheEntry { prepared, gen });
    }

    /// Snapshots every live entry's execution profile — the rows of
    /// `rel_statements`.
    fn profiles(&self) -> Vec<StmtProfileSnapshot> {
        self.entries.values().map(|e| e.prepared.profile()).collect()
    }

    fn evict_lru(&mut self) {
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.gen)
            .map(|(sql, _)| sql.clone());
        let victim = victim.expect("evict_lru called on an empty cache");
        if let Some(entry) = self.entries.remove(&victim) {
            entry.prepared.profile.evict_into(&self.evicted);
        }
    }

    fn resize(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.entries.len() > capacity {
            self.evict_lru();
        }
    }
}

/// Transaction, lock and WAL state: everything a statement touches only for
/// brief book-keeping, kept apart from the catalog so readers sharing the
/// catalog guard do not serialise on it.
#[derive(Debug, Default)]
struct Control {
    wal: Wal,
    locks: LockManager,
    txns: TxnManager,
}

/// An embedded relational database.
///
/// The database is the DB2 stand-in of the reproduction: the CondorJ2
/// application server holds exactly one `Database` and turns every incoming
/// message into statements against it. All methods are safe to call from
/// multiple threads. Read-only statements run concurrently under a shared
/// catalog guard; mutating statements serialise on the catalog write guard
/// (see the module docs for the full locking model).
#[derive(Debug, Default)]
pub struct Database {
    /// Tables with their rows and indexes. SELECTs hold the read guard.
    catalog: RwLock<Catalog>,
    /// Transaction/lock/WAL book-keeping under its own short-lived mutex.
    ctl: Mutex<Control>,
    /// Parsed-statement cache, independent so probes don't block execution.
    stmt_cache: Mutex<StmtCache>,
    /// The one metrics registry: counters, latency histograms, the
    /// slow-query ring and the event ring (see [`crate::obs`]). Handed by
    /// `Arc` to the WAL when it opens, so fsyncs are sampled at the device
    /// seam.
    obs: Arc<Observability>,
    /// Fault-injection registry consulted by the durable-log IO path. Free
    /// (one relaxed atomic load) when nothing is armed, which is always the
    /// case outside crash tests.
    failpoints: Arc<Failpoints>,
    /// Plan-cache generation. Bumped by DDL and `ANALYZE`; a cached plan
    /// whose slot generation falls behind is dropped and replanned on its
    /// next execution.
    plan_gen: AtomicU64,
    /// Bench/test knob: keep joins in syntactic order instead of letting the
    /// planner reorder by estimated build size.
    planner_no_reorder: AtomicBool,
    /// Bench/test knob: force full scans of the base table, ignoring the
    /// cost-based access-path choice.
    planner_force_scan: AtomicBool,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Opens a crash-safe database whose WAL lives in the segment file at
    /// `path` (created if absent), fsyncing on every commit
    /// ([`DurabilityPolicy::Always`]). Committed state found in the file is
    /// recovered; see the crate-level "Durability & recovery" docs.
    pub fn open_durable(path: impl AsRef<std::path::Path>) -> Result<Self> {
        Self::open_durable_with(path, DurabilityPolicy::Always)
    }

    /// As [`Database::open_durable`], with an explicit fsync policy.
    pub fn open_durable_with(
        path: impl AsRef<std::path::Path>,
        policy: DurabilityPolicy,
    ) -> Result<Self> {
        Self::open_with_device(Box::new(FsDevice::open(path)?), policy)
    }

    /// Opens a durable database over an arbitrary [`LogDevice`] — the seam
    /// crash tests use to run real recovery against a deterministic
    /// in-memory device ([`crate::MemDevice`]).
    ///
    /// Recovery is torn-tail tolerant: a partial record at the end of the
    /// device is truncated off (counted in
    /// [`OpStats::recovery_truncated_bytes`]) and the database comes up with
    /// exactly the committed prefix; corruption anywhere earlier fails with
    /// [`Error::Corruption`].
    pub fn open_with_device(
        device: Box<dyn LogDevice>,
        policy: DurabilityPolicy,
    ) -> Result<Self> {
        let sw = Stopwatch::start();
        let failpoints = Arc::new(Failpoints::new());
        let obs = Arc::new(Observability::default());
        let mut local = OpStats::default();
        let (wal, records) = Wal::open_device(
            device,
            policy,
            Arc::clone(&failpoints),
            Arc::clone(&obs),
            &mut local,
        )?;
        let wal_records = records.len();
        let catalog = wal::recover(records)?;
        let db = Database {
            catalog: RwLock::new(catalog),
            failpoints,
            obs,
            ..Database::default()
        };
        db.ctl.lock().wal = wal;
        db.obs.events.record_span(
            "recovery",
            format!(
                "replayed {wal_records} WAL record(s), truncated {} torn byte(s)",
                local.recovery_truncated_bytes
            ),
            sw,
        );
        db.obs.record(&local);
        Ok(db)
    }

    // --- durability -----------------------------------------------------------

    /// True when this database mirrors its WAL onto a durable [`LogDevice`].
    pub fn is_durable(&self) -> bool {
        self.ctl.lock().wal.is_durable()
    }

    /// Forces everything appended to the durable log onto stable storage,
    /// regardless of the [`DurabilityPolicy`]. A no-op for in-memory
    /// databases. Fails with [`Error::Io`] if the log writer is poisoned.
    pub fn flush_log(&self) -> Result<()> {
        let mut local = OpStats::default();
        let result = self.ctl.lock().wal.flush(&mut local);
        self.obs.record(&local);
        result
    }

    /// The bytes a crash right now would leave on the durable log device —
    /// the post-mortem view crash tests reopen from ([`Error::Wal`] for
    /// in-memory databases). Unsynced appends are excluded for the
    /// in-memory device model; call [`Database::flush_log`] first to get
    /// the full log.
    pub fn durable_log_bytes(&self) -> Result<Vec<u8>> {
        self.ctl.lock().wal.durable_contents()
    }

    /// The fault-injection registry for this database's durable IO path.
    /// Arm named points ([`crate::io::points`]) to inject short writes, torn
    /// writes, fsync errors or crashes; see `crate::io::failpoint`.
    pub fn failpoints(&self) -> &Arc<Failpoints> {
        &self.failpoints
    }

    /// Cumulative operation statistics: the registry's counters, with
    /// `statements_executed`, `wal_fsyncs`, `wal_fsync_nanos`,
    /// `lock_wait_nanos` and `checkpoints` read off their histograms (see
    /// [`crate::obs`]).
    pub fn stats(&self) -> OpStats {
        self.obs.stats()
    }

    /// Merges counts taken outside the engine into these statistics — the
    /// `wire` server's `net_bytes_in`, `net_bytes_out`, `frames_decoded` and
    /// `active_connections` — so [`Database::stats`] and `rel_stats` report
    /// them beside the engine's own. The fields the histograms count are not
    /// merged.
    pub fn record_stats(&self, delta: &OpStats) {
        self.obs.record(delta);
    }

    /// The *current* horizon lag: how far the transaction-id high watermark
    /// has advanced past the oldest live snapshot — the version backlog one
    /// long-lived (possibly abandoned) transaction pins against vacuum.
    /// Zero when nothing pins the horizon. [`OpStats::horizon_lag`] is this
    /// value's high-water gauge.
    pub fn horizon_lag(&self) -> u64 {
        Self::horizon_lag_of(&self.ctl.lock())
    }

    /// Names of all tables in the catalog.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog.read().keys().cloned().collect()
    }

    /// Number of rows in `table`, or an error if it does not exist.
    pub fn table_len(&self, table: &str) -> Result<usize> {
        self.catalog
            .read()
            .get(&table.to_ascii_lowercase())
            .map(Table::len)
            .ok_or_else(|| Error::not_found(format!("table {table}")))
    }

    /// Approximate resident size of all tables, in bytes.
    pub fn approx_size(&self) -> usize {
        self.catalog.read().values().map(Table::approx_size).sum()
    }

    // --- transaction control -------------------------------------------------

    /// Begins an explicit transaction, stamping it with the MVCC snapshot
    /// all its reads will resolve against. Nothing is logged until it
    /// commits, and nothing then if it changed nothing.
    pub(crate) fn begin(&self) -> TxnId {
        let mut local = OpStats::default();
        let id = self.begin_local(&mut local);
        self.obs.record(&local);
        id
    }

    /// [`Database::begin`] counting into a caller-owned [`OpStats`] delta
    /// instead of merging immediately — autocommit writes use this so one
    /// delta (and one shared-stats merge) spans begin through commit.
    fn begin_local(&self, local: &mut OpStats) -> TxnId {
        let mut ctl = self.ctl.lock();
        let id = ctl.txns.begin();
        local.snapshots_taken += 1;
        local.horizon_lag = local.horizon_lag.max(Self::horizon_lag_of(&ctl));
        id
    }

    /// How far the transaction-id high watermark has advanced past the
    /// oldest live snapshot — the version backlog a long-lived (possibly
    /// abandoned) transaction pins. Zero when no snapshot is live.
    fn horizon_lag_of(ctl: &Control) -> u64 {
        let horizon = ctl.txns.snapshot_horizon();
        if horizon == u64::MAX {
            0
        } else {
            ctl.txns.high_watermark().saturating_sub(horizon)
        }
    }

    /// Commits an explicit transaction and releases its locks: its change
    /// list reaches the log as one record, with one append. A transaction
    /// that changed nothing appends nothing.
    ///
    /// On a durable database the record is forced to disk according to the
    /// [`DurabilityPolicy`] before this returns. An [`Error::Io`] here means
    /// the commit was **not** acknowledged as durable: the log writer is
    /// poisoned (an earlier write failed, or this commit's append or fsync
    /// did) and recovery from the on-disk log may not include this
    /// transaction. The in-memory state keeps the commit and stays readable,
    /// but every further commit fails the same way until the database is
    /// reopened from disk. An [`Error::ResourceExhausted`] means the change
    /// list is larger than a log record may be: nothing was written, and the
    /// transaction has been rolled back instead.
    pub(crate) fn commit(&self, txn: TxnId) -> Result<()> {
        let mut local = OpStats::default();
        let synced = self.commit_local(txn, &mut local);
        self.obs.record(&local);
        synced
    }

    /// [`Database::commit`] counting into a caller-owned [`OpStats`] delta.
    /// Commits that changed something record their append-to-fsync span in
    /// the `txn.commit` latency histogram.
    fn commit_local(&self, txn: TxnId, local: &mut OpStats) -> Result<()> {
        let mut guard = self.ctl.lock();
        let ctl = &mut *guard;
        // Framed while the transaction is still active: a change list the
        // log cannot hold must not be marked committed.
        let frame = match ctl.wal.frame(&ctl.txns.get_active(txn)?.changes) {
            Ok(frame) => frame,
            Err(e) => {
                drop(guard);
                let _ = self.rollback_impl(txn, None, local);
                return Err(e);
            }
        };
        ctl.txns.finish_commit(txn)?;
        let synced = match frame {
            Some(frame) => {
                let sw = Stopwatch::start();
                let forced = ctl.wal.commit(frame, local);
                self.obs.histograms.commit.record(sw.elapsed_nanos());
                forced
            }
            // Read-only: nothing to log, nothing needs forcing.
            None => Ok(()),
        };
        // Locks are released even when the sync failed — the engine stays
        // usable for reads and rollbacks.
        ctl.locks.release_all(txn);
        local.horizon_lag = local.horizon_lag.max(Self::horizon_lag_of(ctl));
        drop(guard);
        local.commits += 1;
        synced
    }

    /// Rolls back an explicit transaction, undoing its changes.
    ///
    /// Undo is **version-aware**: the aborting transaction's versions are
    /// removed from the chains physically and the versions they superseded
    /// are re-opened, so aborted writes are never observable by any snapshot
    /// — visibility checks therefore never need a commit-status lookup.
    pub(crate) fn rollback(&self, txn: TxnId) -> Result<()> {
        let mut local = OpStats::default();
        let result = self.rollback_impl(txn, None, &mut local).map(|_| ());
        self.obs.record(&local);
        result
    }

    /// Aborts every transaction idle (no statement executed through it) for
    /// at least `idle_for`, releasing its locks and undoing its versions
    /// (the log never heard of it) — the reaper that keeps an abandoned
    /// client from pinning the vacuum horizon or blocking checkpoints
    /// forever. Returns the number of transactions reaped (counted in
    /// [`OpStats::txns_reaped`]).
    ///
    /// Idleness is re-validated under the rollback guards, so a transaction
    /// that executes a statement between the scan and the abort survives.
    /// A reaped transaction's next operation fails with the same typed
    /// inactive-transaction error a double rollback would produce.
    pub fn reap_idle(&self, idle_for: Duration) -> usize {
        let victims = self.ctl.lock().txns.idle_txns(idle_for);
        let mut local = OpStats::default();
        let mut reaped = 0usize;
        for txn in victims {
            // Ok(false)/Err: still active after re-validation, or finished.
            if let Ok(true) = self.rollback_impl(txn, Some(idle_for), &mut local) {
                reaped += 1;
            }
        }
        if reaped > 0 {
            local.txns_reaped = reaped as u64;
            local.horizon_lag = Self::horizon_lag_of(&self.ctl.lock());
        }
        self.obs.record(&local);
        reaped
    }

    /// Shared rollback machinery. With `only_if_idle` set the abort happens
    /// only when the transaction is still active *and* has been idle that
    /// long, checked under the guards (the reaper path); returns whether the
    /// rollback was performed.
    fn rollback_impl(
        &self,
        txn: TxnId,
        only_if_idle: Option<Duration>,
        local: &mut OpStats,
    ) -> Result<bool> {
        {
            let mut catalog = self.catalog.write();
            let mut ctl = self.ctl.lock();
            if let Some(idle_for) = only_if_idle {
                match ctl.txns.get_active(txn) {
                    Ok(state) if state.last_activity.elapsed() < idle_for => return Ok(false),
                    Err(_) => return Ok(false),
                    Ok(_) => {}
                }
            }
            let state = ctl.txns.finish_abort(txn)?;
            for change in state.changes.into_iter().rev() {
                change.undo(&mut catalog, txn);
            }
            ctl.locks.release_all(txn);
        }
        local.aborts += 1;
        Ok(true)
    }

    // --- statement preparation and the statement cache -----------------------

    /// Prepares a statement for repeated execution. The SQL may contain `?`
    /// placeholders, bound positionally when the handle is executed through
    /// a [`Session`](crate::Session) or [`Transaction`](crate::Transaction).
    ///
    /// Preparation goes through the statement cache, so re-preparing the
    /// same text is cheap: a hit returns the shared parsed AST without
    /// re-lexing, a miss parses outside every lock and caches the result.
    /// Counted in `cache_hits` / `cache_misses`, and in `statements_parsed`
    /// only on a miss.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        if let Some(hit) = self.stmt_cache.lock().get(sql) {
            self.obs.record(&OpStats {
                cache_hits: 1,
                ..Default::default()
            });
            return Ok(hit);
        }
        self.obs.record(&OpStats {
            cache_misses: 1,
            statements_parsed: 1,
            ..Default::default()
        });
        // Parse outside the lock; concurrent sessions keep executing.
        let stmt = Arc::new(parse(sql)?);
        let prepared = Prepared {
            params: stmt.param_count(),
            profile: Arc::new(StmtProfile::new(Arc::from(sql), StmtKind::of(&stmt))),
            plan: Arc::new(PlanCell::default()),
            stmt,
        };
        self.stmt_cache.lock().insert(sql.to_string(), prepared.clone());
        Ok(prepared)
    }

    /// Snapshots the execution profile of every statement currently in the
    /// statement cache — the per-statement rows of the `rel_statements`
    /// system table, unsorted. Bounded by the cache capacity; an evicted
    /// entry's profile leaves the list (a re-prepare starts fresh) and its
    /// totals — with whatever a handle that outlives it records later —
    /// move to the table's `'(evicted)'` row.
    pub fn statement_profiles(&self) -> Vec<StmtProfileSnapshot> {
        self.stmt_cache.lock().profiles()
    }

    /// Changes the capacity of the statement cache (default 256 entries),
    /// evicting least-recently-used entries as needed. Zero disables caching.
    pub fn set_statement_cache_capacity(&self, capacity: usize) {
        self.stmt_cache.lock().resize(capacity);
    }

    // --- observability --------------------------------------------------------

    /// The engine's one metrics registry: its latency histograms, the
    /// slow-query ring and the event ring (the counters are read through
    /// [`Database::stats`]). Readable at any time without pausing writers;
    /// the same data is served as SQL through the `rel_*` system tables.
    pub fn obs(&self) -> &Observability {
        &self.obs
    }

    /// Arms the slow-query log: statements at or over `threshold` are
    /// captured into the `rel_slow_queries` ring with a wait breakdown.
    /// `Some(Duration::ZERO)` captures every statement; `None` (the initial
    /// state) disarms the log, leaving already-captured entries in place.
    /// While disarmed the per-statement cost is one relaxed load.
    pub fn set_slow_query_threshold(&self, threshold: Option<Duration>) {
        self.obs.slow_log.set_threshold(threshold);
    }

    /// The armed slow-query threshold, or `None` while disarmed.
    pub fn slow_query_threshold(&self) -> Option<Duration> {
        self.obs.slow_log.threshold()
    }

    // --- statement execution -------------------------------------------------

    /// Parses and executes one statement in autocommit mode, with no
    /// statement limits.
    ///
    /// Repeated executions of the same SQL text reuse the cached parse.
    /// Statements with `?` placeholders, statement limits and transactions
    /// go through a [`Session`](crate::Session).
    pub fn execute(&self, sql: &str) -> Result<ExecResult> {
        let autocommit = ExecCtx {
            txn: None,
            gov: &Governance::NONE,
        };
        self.run(autocommit, &self.prepare(sql)?, &[])
    }

    /// Convenience wrapper: executes a SELECT and returns its rows.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.execute(sql)?.query()
    }

    /// Executes one prepared statement in `ctx`, with `params` bound
    /// positionally to its `?` placeholders. Every statement — embedded or
    /// over the wire, autocommit or in a transaction, limited or not —
    /// enters the engine here. The parameters flow through planning and
    /// evaluation as context: the cached AST is never cloned or rewritten.
    ///
    /// Each statement is stopwatch-timed and lands one sample in its kind's
    /// latency histogram and in its profile via
    /// [`Observability::record_statement`].
    ///
    /// A SELECT or EXPLAIN is [`Database::run_read`] with one binding; a
    /// write is [`Database::write_in`] with one binding.
    pub(crate) fn run(
        &self,
        ctx: ExecCtx<'_>,
        prepared: &Prepared,
        params: &[Value],
    ) -> Result<ExecResult> {
        let stmt = prepared.stmt.as_ref();
        if let Statement::Select(_) | Statement::Explain { .. } = stmt {
            let mut result = None;
            self.run_read(ctx, prepared, std::slice::from_ref(&params), |q| result = Some(q))?;
            return Ok(ExecResult::Query(result.expect("one binding yields one result")));
        }
        Self::check_arity(prepared, params)?;
        match stmt {
            Statement::Begin | Statement::Commit | Statement::Rollback => Err(Error::type_err(
                "transaction control goes through a Session or a Transaction guard",
            )),
            Statement::Analyze(target) => {
                // ANALYZE refreshes shared planner statistics in place; it is
                // deliberately non-transactional (never WAL-logged, not
                // undone by rollback) and samples the latest committed state
                // whatever the transaction's snapshot. Inside a transaction
                // it still counts as activity for the idle reaper.
                let sw = Stopwatch::start();
                if let Some(txn) = ctx.txn {
                    self.ctl.lock().txns.touch(txn);
                }
                let mut local = OpStats::default();
                let result = self.run_analyze(target.as_deref(), &mut local);
                let rows = result.as_ref().map_or(0, |n| *n as u64);
                self.finish_statement(StmtKind::Ddl, sw, rows, &prepared.profile, &mut local);
                result.map(ExecResult::Affected)
            }
            stmt => {
                // One statement-local delta spans the whole write — in
                // autocommit mode begin through commit — so the slow-query
                // wait breakdown includes the commit fsync and the shared
                // stats merge happens once.
                let sw = Stopwatch::start();
                let mut local = OpStats::default();
                let result = self.in_txn(ctx.txn, &mut local, |txn, local| {
                    self.write_in(txn, stmt, std::iter::once(params), None, ctx.gov, local)
                });
                if let Err(e) = &result {
                    Self::attribute_failure(&mut local, e);
                }
                let rows = result.as_ref().map_or(0, |r| r.affected() as u64);
                self.finish_statement(StmtKind::of(stmt), sw, rows, &prepared.profile, &mut local);
                result
            }
        }
    }

    fn check_arity(prepared: &Prepared, params: &[Value]) -> Result<()> {
        if params.len() != prepared.params {
            return Err(Error::type_err(format!(
                "statement has {} parameter(s) but {} value(s) were bound",
                prepared.params,
                params.len()
            )));
        }
        Ok(())
    }

    /// The read path, shared by SELECT and EXPLAIN, single or batched: the
    /// statement runs once per binding under **one** *shared* catalog guard,
    /// one MVCC snapshot of `ctx` and one armed [`Governor`], without
    /// registering locks or appending WAL records, and each result goes to
    /// `emit` in binding order. Any number of reads execute in parallel, and
    /// none ever fails against in-flight writers — a read simply observes
    /// what its snapshot sees.
    ///
    /// A single statement is the one-binding case ([`Database::run`]). A
    /// batch ([`Session::query_batch`](crate::Session::query_batch)) is one
    /// governed unit — deadline, cancellation and the row/byte budgets span
    /// all bindings combined, with the deadline and cancellation also checked
    /// between bindings — while each binding stays one statement: counted in
    /// `statements_executed`, one `stmt.select` sample and one profile
    /// record. Binding spans tile the run: the first starts before the guard
    /// is taken, each ends where the next begins. The first failing binding
    /// ends the run with its error.
    pub(crate) fn run_read<B: AsRef<[Value]>>(
        &self,
        ctx: ExecCtx<'_>,
        prepared: &Prepared,
        bindings: &[B],
        mut emit: impl FnMut(QueryResult),
    ) -> Result<()> {
        let (sel, explain) = match prepared.stmt.as_ref() {
            Statement::Select(sel) => (sel, None),
            Statement::Explain { analyze, select } => (select, Some(*analyze)),
            _ => return Err(Error::type_err("query_batch expects a SELECT or EXPLAIN statement")),
        };
        for params in bindings {
            Self::check_arity(prepared, params.as_ref())?;
        }
        let mut sw = Stopwatch::start();
        let mut governor = Governor::arm(ctx.gov);
        let catalog = self.catalog.read();
        let mut local = OpStats::default();
        // An inactive transaction fails here, before anything is counted:
        // no statement executed.
        let snapshot = self.snapshot_for(ctx.txn, &mut local)?;
        let mut failed = None;
        for (i, params) in bindings.iter().enumerate() {
            let params = params.as_ref();
            let checked = if i == 0 { Ok(()) } else { governor.check_now() };
            let result = checked.and_then(|()| match explain {
                None => self.run_select_planned(
                    &catalog,
                    sel,
                    params,
                    &snapshot,
                    &mut local,
                    &mut governor,
                    &prepared.plan,
                ),
                Some(analyze) => self.run_explain(
                    &catalog,
                    analyze,
                    sel,
                    params,
                    &snapshot,
                    &mut local,
                    &mut governor,
                ),
            });
            let rows = result.as_ref().map_or(0, |q| q.rows.len() as u64);
            self.obs.record_statement(
                StmtKind::Select,
                sw.lap(),
                rows,
                Some(&prepared.profile),
                WaitBreakdown::of(&local),
                &mut local,
            );
            match result {
                Ok(q) => emit(q),
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        drop(catalog);
        if let Some(e) = &failed {
            Self::attribute_failure(&mut local, e);
        }
        self.obs.record(&local);
        failed.map_or(Ok(()), Err)
    }

    /// The MVCC snapshot a read resolves against: a fresh one per autocommit
    /// statement, or the begin-time snapshot of the explicit transaction
    /// (repeatable reads), whose idle clock the read refreshes (see
    /// [`Database::reap_idle`]).
    ///
    /// Call with the catalog read guard already held: a writer that commits
    /// after the guard was acquired is then simply absent from a fresh
    /// snapshot, and its versions are filtered out by visibility.
    #[inline]
    fn snapshot_for(&self, txn: Option<TxnId>, local: &mut OpStats) -> Result<Snapshot> {
        let mut ctl = self.ctl.lock();
        match txn {
            None => {
                local.snapshots_taken += 1;
                Ok(ctl.txns.read_snapshot())
            }
            Some(txn) => {
                ctl.txns.touch(txn);
                ctl.txns.snapshot_of(txn)
            }
        }
    }

    /// Runs `body` inside the given transaction — or, in autocommit mode,
    /// inside an implicit one that commits when `body` succeeds and rolls
    /// back (best-effort, surfacing the original error) when it fails, so a
    /// cancelled or over-budget autocommit write is never partially applied.
    fn in_txn<T>(
        &self,
        txn: Option<TxnId>,
        local: &mut OpStats,
        body: impl FnOnce(TxnId, &mut OpStats) -> Result<T>,
    ) -> Result<T> {
        if let Some(txn) = txn {
            return body(txn, local);
        }
        let txn = self.begin_local(local);
        match body(txn, local) {
            Ok(value) => self.commit_local(txn, local).map(|()| value),
            Err(e) => {
                let _ = self.rollback_impl(txn, None, local);
                Err(e)
            }
        }
    }

    /// Finishes one timed statement: the histogram/profile/slow-log record,
    /// then the counter merge. The histogram sample is what counts the
    /// statement in `statements_executed`.
    #[inline]
    fn finish_statement(
        &self,
        kind: StmtKind,
        sw: Stopwatch,
        rows: u64,
        profile: &Arc<StmtProfile>,
        local: &mut OpStats,
    ) {
        let nanos = sw.elapsed_nanos();
        self.obs
            .record_statement(kind, nanos, rows, Some(profile), WaitBreakdown::of(local), local);
        self.obs.record(local);
    }

    /// Runs one SELECT against the catalog — the one path every SELECT
    /// takes, single or batched, autocommit or in a transaction.
    ///
    /// `rel_*` system-table names that no real table shadows are routed to
    /// the observability layer: the current state is synthesized into
    /// throwaway tables and the ordinary select executor runs against those,
    /// so filters, projections, joins between system tables, ORDER BY,
    /// aggregates and LIMIT work unchanged.
    ///
    /// Joined selects consult the statement's plan cache cell: the cached
    /// plan (and any still-valid hash-join build sides) is reused across
    /// executions of the same prepared handle / SQL text, and refreshed
    /// builds are written back (a plan without a reusable build side takes
    /// the cell's lock once). A slot whose generation falls behind
    /// [`Database::plan_gen`] (DDL, `ANALYZE`, planner-knob change) is
    /// replanned from scratch.
    ///
    /// Single-table selects never touch the cell — their access path is
    /// chosen per execution, allocation-free, so caching would only add a
    /// lock to the point-select hot path.
    #[allow(clippy::too_many_arguments)]
    fn run_select_planned(
        &self,
        catalog: &Catalog,
        sel: &SelectStmt,
        params: &[Value],
        snapshot: &Snapshot,
        local: &mut OpStats,
        governor: &mut Governor,
        cell: &PlanCell,
    ) -> Result<QueryResult> {
        let base = lower_name(&sel.table);
        if obs::is_system_table(&base) && !catalog.contains_key(base.as_ref()) {
            let virt = self.system_catalog(catalog, sel)?;
            let opts = ExecOptions::default();
            return execute_select_opts(&virt, sel, params, snapshot, local, governor, opts);
        }
        let no_reorder = self.planner_no_reorder.load(Ordering::Relaxed);
        let force_scan = self.planner_force_scan.load(Ordering::Relaxed);
        if sel.joins.is_empty() {
            let opts = ExecOptions {
                no_reorder,
                force_scan,
                ..Default::default()
            };
            return execute_select_opts(catalog, sel, params, snapshot, local, governor, opts);
        }
        let gen = self.plan_gen.load(Ordering::Acquire);
        let (shared, mut builds) = {
            let mut slot = cell.lock();
            if slot.gen != gen || slot.plan.is_none() {
                let planned = plan_select(catalog, sel, params, !no_reorder, force_scan)?;
                local.plans_built += 1;
                let steps = planned.steps.len();
                *slot = PlanSlot {
                    gen,
                    plan: Some(Arc::new(planned)),
                    builds: vec![None; steps],
                };
            } else {
                local.plan_cache_hits += 1;
            }
            let plan = Arc::clone(slot.plan.as_ref().expect("slot was just filled"));
            // Clone the build slots (refcount bumps) so the cell is not
            // locked during execution; refreshed builds are merged back
            // below unless the slot was invalidated meanwhile. A plan with
            // no reusable build side skips both: its cache hit is this one
            // lock and the `Arc` clone above.
            let builds = plan.caches_builds().then(|| slot.builds.clone());
            (plan, builds)
        };
        let opts = ExecOptions {
            plan: Some(&shared),
            builds: builds.as_mut(),
            ..Default::default()
        };
        let result = execute_select_opts(catalog, sel, params, snapshot, local, governor, opts)?;
        if let Some(builds) = builds {
            let mut slot = cell.lock();
            if slot.gen == gen && slot.plan.as_ref().is_some_and(|p| Arc::ptr_eq(p, &shared)) {
                slot.builds = builds;
            }
        }
        Ok(result)
    }

    /// Runs `EXPLAIN [ANALYZE] <select>`: plans the SELECT with the live
    /// planner knobs and renders the plan tree as ordinary result rows.
    /// With `analyze` the query is executed first and each operator is
    /// annotated with its actual row count and wall time.
    #[allow(clippy::too_many_arguments)]
    fn run_explain(
        &self,
        catalog: &Catalog,
        analyze: bool,
        sel: &SelectStmt,
        params: &[Value],
        snapshot: &Snapshot,
        local: &mut OpStats,
        governor: &mut Governor,
    ) -> Result<QueryResult> {
        let base = lower_name(&sel.table);
        let virt;
        let cat = if obs::is_system_table(&base) && !catalog.contains_key(base.as_ref()) {
            virt = self.system_catalog(catalog, sel)?;
            &virt
        } else {
            catalog
        };
        let no_reorder = self.planner_no_reorder.load(Ordering::Relaxed);
        let force_scan = self.planner_force_scan.load(Ordering::Relaxed);
        let planned = plan_select(cat, sel, params, !no_reorder, force_scan)?;
        local.plans_built += 1;
        let limit = sel.limit_with(params)?;
        if !analyze {
            return Ok(plan::explain_result(cat, &planned, sel, limit, None));
        }
        let mut prof = PlanProfile::default();
        let opts = ExecOptions {
            plan: Some(&planned),
            profile: Some(&mut prof),
            ..Default::default()
        };
        execute_select_opts(cat, sel, params, snapshot, local, governor, opts)?;
        Ok(plan::explain_result(cat, &planned, sel, limit, Some(&prof)))
    }

    /// Runs `ANALYZE [table]`: scans the named table (or every table) at the
    /// latest committed state and installs fresh planner statistics on the
    /// catalog entry. Statistics are planner advice, not data: they are
    /// never WAL-logged (a reopened database starts unanalyzed), survive
    /// transaction rollback, and go stale silently until the next `ANALYZE`.
    /// Returns the number of tables analyzed.
    fn run_analyze(&self, target: Option<&str>, local: &mut OpStats) -> Result<usize> {
        let mut catalog = self.catalog.write();
        let names: Vec<String> = match target {
            Some(t) => {
                let name = lower_name(t).into_owned();
                if !catalog.contains_key(&name) {
                    return Err(Error::not_found(format!("table {t}")));
                }
                vec![name]
            }
            None => catalog.keys().cloned().collect(),
        };
        for name in &names {
            let table = catalog.get_mut(name).expect("existence checked above");
            let fresh = plan::analyze_table(table);
            table.set_table_stats(fresh);
            local.tables_analyzed += 1;
        }
        drop(catalog);
        // Cached plans were chosen against the old statistics; force a
        // replan on next execution.
        self.plan_gen.fetch_add(1, Ordering::Release);
        Ok(names.len())
    }

    /// Collects planner statistics for `table`, or for every table when
    /// `None` — the programmatic form of SQL `ANALYZE [table]`. Returns the
    /// number of tables analyzed.
    pub fn analyze(&self, table: Option<&str>) -> Result<usize> {
        let sql = match table {
            Some(table) => format!("ANALYZE {table}"),
            None => "ANALYZE".to_string(),
        };
        Ok(self.execute(&sql)?.affected())
    }

    /// Bench/test knob: enables or disables cost-based join reordering
    /// (enabled by default). Disabling keeps joins in syntactic order —
    /// the pre-planner behaviour — for baseline comparisons. Invalidates
    /// cached plans.
    pub fn set_join_reorder(&self, enabled: bool) {
        self.planner_no_reorder.store(!enabled, Ordering::Relaxed);
        self.plan_gen.fetch_add(1, Ordering::Release);
    }

    /// Bench/test knob: reads every table of a SELECT by a full scan — the
    /// base table and every join input, in execution and in `EXPLAIN` —
    /// ignoring the cost-based access-path choice. Join strategies and
    /// UPDATE/DELETE row matching are left as they are. The de-optimized
    /// oracle the planner's tests compare against. Invalidates cached plans.
    pub fn set_force_scan(&self, force: bool) {
        self.planner_force_scan.store(force, Ordering::Relaxed);
        self.plan_gen.fetch_add(1, Ordering::Release);
    }

    /// Synthesizes the system tables a SELECT references into a throwaway
    /// catalog. System tables join only with each other — a join against a
    /// real table from a system-table SELECT is rejected, since the real
    /// catalog is not copied into the virtual one.
    fn system_catalog(&self, catalog: &Catalog, sel: &SelectStmt) -> Result<Catalog> {
        let mut virt = Catalog::new();
        self.add_system_table(catalog, &mut virt, lower_name(&sel.table).as_ref())?;
        for join in &sel.joins {
            self.add_system_table(catalog, &mut virt, lower_name(&join.table).as_ref())?;
        }
        Ok(virt)
    }

    /// Builds one named system table from the live observability state (or,
    /// for `rel_table_stats`, from the real catalog's planner statistics).
    fn add_system_table(&self, catalog: &Catalog, virt: &mut Catalog, name: &str) -> Result<()> {
        if virt.contains_key(name) {
            return Ok(());
        }
        let table = match name {
            "rel_stats" => systables::stats_table(&self.obs.stats()),
            "rel_histograms" => systables::histograms_table(&self.obs.histograms),
            "rel_statements" => {
                let cache = self.stmt_cache.lock();
                systables::statements_table(cache.profiles(), cache.evicted.totals())
            }
            "rel_slow_queries" => systables::slow_queries_table(self.obs.slow_log.entries()),
            "rel_events" => systables::events_table(self.obs.events.entries()),
            "rel_table_stats" => {
                systables::table_stats_table(catalog.iter().map(|(n, t)| (n.as_str(), t)))
            }
            other => {
                return Err(Error::type_err(format!(
                    "system tables join only with other system tables, not {other}"
                )))
            }
        };
        virt.insert(name.to_string(), table);
        Ok(())
    }

    /// The body of the write arm inside its transaction: the bounded lock
    /// wait, then — holding the catalog write guard and the control mutex
    /// **once** — the statement applied once per binding, each change pushed
    /// onto the transaction's change list as it applies, and the targeted
    /// vacuum. Nothing reaches the log here; the change list does, at commit.
    ///
    /// A single statement is the one-binding case with `per_binding` unset:
    /// its caller counts it and times it (begin through commit in autocommit
    /// mode, so the sample includes the fsync), owning the single
    /// [`Database::finish_statement`]. A batch passes its statement's
    /// profile, and every binding is then counted and sampled here as one
    /// statement — its own execution only, the deadline and cancellation
    /// checked between bindings — with the batch's commit landing in the
    /// `txn.commit` / `wal.fsync` histograms instead. Either way failures
    /// are neither attributed nor are stats merged here.
    ///
    /// Returns the last binding's result, with the affected-row counts of
    /// all bindings summed. Changes applied before an error stay on the
    /// change list: rollback undoes them, and should the transaction commit
    /// anyway they are logged.
    fn write_in<'p>(
        &self,
        txn: TxnId,
        stmt: &Statement,
        bindings: impl Iterator<Item = &'p [Value]>,
        per_binding: Option<&Arc<StmtProfile>>,
        gov: &Governance,
        local: &mut OpStats,
    ) -> Result<ExecResult> {
        let mut governor = Governor::arm(gov);
        // Bounded lock wait happens *before* the catalog write guard
        // is taken, so a waiting writer never blocks readers or the
        // holder's own commit/rollback.
        if let Some(name) = Self::write_target(stmt) {
            let wait = gov.lock_wait.unwrap_or(Duration::ZERO);
            self.wait_for_table_lock(txn, &name, wait, &mut governor, local)?;
        }
        let mut catalog = self.catalog.write();
        let mut guard = self.ctl.lock();
        let ctl = &mut *guard;
        let state = match ctl.txns.get_active(txn) {
            Ok(state) => state,
            Err(e) => {
                // A finished (say, reaped) transaction never releases
                // anything again: give back the lock the wait just took.
                ctl.locks.release_all(txn);
                return Err(e);
            }
        };
        state.last_activity = Instant::now();
        let mut done = Ok(ExecResult::Ack);
        for params in bindings {
            let mut apply = |stats: &mut OpStats, governor: &mut Governor| {
                let changes = &mut state.changes;
                Self::run_write(&mut catalog, txn, changes, stmt, params, stats, governor)
            };
            let result = match per_binding {
                None => apply(local, &mut governor),
                Some(profile) => {
                    let sw = Stopwatch::start();
                    let before = WaitBreakdown::of(local);
                    let result = governor.check_now().and_then(|()| apply(local, &mut governor));
                    let rows = result.as_ref().map_or(0, |r| r.affected() as u64);
                    self.obs.record_statement(
                        StmtKind::of(stmt),
                        sw.elapsed_nanos(),
                        rows,
                        Some(profile),
                        WaitBreakdown::of(local).delta_since(&before),
                        local,
                    );
                    result
                }
            };
            done = match (done, result) {
                (Ok(ExecResult::Affected(a)), Ok(ExecResult::Affected(b))) => {
                    Ok(ExecResult::Affected(a + b))
                }
                (_, result) => result,
            };
            if done.is_err() {
                break;
            }
        }
        self.vacuum_if_bloated(&mut catalog, ctl, stmt, local);
        drop(guard);
        drop(catalog);
        if done.is_ok()
            && matches!(
                stmt,
                Statement::CreateTable(_) | Statement::CreateIndex { .. } | Statement::DropTable(_)
            )
        {
            // Schema changed under cached plans; force a replan on next
            // execution. (A later rollback of this DDL leaves the bump in
            // place — harmlessly conservative.)
            self.plan_gen.fetch_add(1, Ordering::Release);
        }
        done
    }

    /// Counts a governance failure in the right statement-level counter.
    fn attribute_failure(stats: &mut OpStats, e: &Error) {
        match e {
            Error::Timeout {
                kind: TimeoutKind::Statement,
                ..
            } => stats.statements_timed_out += 1,
            Error::ResourceExhausted(_) => stats.statements_over_budget += 1,
            _ => {}
        }
    }

    /// The (lowercased) table a mutating statement will lock, used to
    /// pre-acquire its lock with a bounded wait.
    fn write_target(stmt: &Statement) -> Option<String> {
        match stmt {
            Statement::Insert(ins) => Some(ins.table.to_ascii_lowercase()),
            Statement::Update(upd) => Some(upd.table.to_ascii_lowercase()),
            Statement::Delete(del) => Some(del.table.to_ascii_lowercase()),
            Statement::CreateTable(schema) => Some(schema.name.clone()),
            Statement::CreateIndex { table, .. } => Some(table.to_ascii_lowercase()),
            Statement::DropTable(table) => Some(table.to_ascii_lowercase()),
            Statement::Begin
            | Statement::Commit
            | Statement::Rollback
            | Statement::Select(_)
            | Statement::Analyze(_)
            | Statement::Explain { .. } => None,
        }
    }

    /// Acquires `table`'s exclusive lock for `txn`, waiting up to `wait` for
    /// a conflicting writer to finish. With a zero `wait` a conflict fails
    /// fast with [`Error::LockConflict`] (the pre-governance behaviour);
    /// otherwise the lock table is re-probed every [`LOCK_WAIT_POLL`] until
    /// the bound expires into a retryable lock-wait [`Error::Timeout`]. The
    /// statement deadline and cancellation token are honoured between
    /// probes, and no engine lock is held while sleeping.
    fn wait_for_table_lock(
        &self,
        txn: TxnId,
        table: &str,
        wait: Duration,
        governor: &mut Governor,
        stats: &mut OpStats,
    ) -> Result<()> {
        let mut first_conflict = true;
        let start = Instant::now();
        let deadline = start + wait;
        loop {
            let conflict = match self.ctl.lock().locks.acquire(txn, table) {
                Ok(()) => {
                    // Only contended acquisitions reach a second clock read
                    // and the lock-wait histogram; the uncontended path is
                    // exactly as before.
                    if !first_conflict {
                        self.note_lock_wait(start, stats);
                    }
                    return Ok(());
                }
                Err(e @ Error::LockConflict(_)) => e,
                Err(e) => return Err(e),
            };
            if wait.is_zero() {
                return Err(conflict);
            }
            if first_conflict {
                first_conflict = false;
                stats.lock_waits += 1;
            }
            // The statement deadline / cancellation token caps the wait too.
            governor.check_now()?;
            if Instant::now() >= deadline {
                stats.lock_wait_timeouts += 1;
                self.note_lock_wait(start, stats);
                return Err(Error::lock_wait_timeout(format!(
                    "table {table} still write-locked after {wait:?}"
                )));
            }
            std::thread::sleep(LOCK_WAIT_POLL);
        }
    }

    /// Accounts one finished (or timed-out) contended lock wait: one
    /// `lock.wait` sample, which is what `lock_wait_nanos` totals. The
    /// statement's own delta carries the nanos only for its slow-query
    /// breakdown.
    fn note_lock_wait(&self, start: Instant, stats: &mut OpStats) {
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        stats.lock_wait_nanos += nanos;
        self.obs.histograms.lock_wait.record(nanos);
    }

    /// Targeted vacuum: when the table a write statement touched has
    /// accumulated more than [`VACUUM_DEAD_THRESHOLD`] dead versions, prune
    /// the ones no live snapshot can still observe. Runs under the already
    /// held catalog write guard; the horizon comes from the live snapshots.
    fn vacuum_if_bloated(
        &self,
        catalog: &mut Catalog,
        ctl: &Control,
        stmt: &Statement,
        stats: &mut OpStats,
    ) {
        let table = match stmt {
            Statement::Insert(ins) => &ins.table,
            Statement::Update(upd) => &upd.table,
            Statement::Delete(del) => &del.table,
            _ => return,
        };
        let Some(t) = catalog.get_mut(lower_name(table).as_ref()) else {
            return;
        };
        if t.dead_versions() > VACUUM_DEAD_THRESHOLD {
            // A long-lived snapshot can pin the whole backlog; only sweep
            // when the horizon has advanced far enough to reclaim something.
            let horizon = ctl.txns.snapshot_horizon();
            if t.vacuum_would_prune(horizon) {
                let sw = Stopwatch::start();
                t.vacuum(horizon, stats);
                self.obs.histograms.vacuum.record(sw.elapsed_nanos());
            }
        }
    }

    // --- batched execution ----------------------------------------------------

    /// Executes a prepared DML statement once per parameter binding, taking
    /// the catalog write guard and the control mutex **once** for the whole
    /// batch ([`Database::write_in`]). The batch is one governed unit: its
    /// deadline, cancellation token and budgets span all bindings.
    ///
    /// On success the stored data is identical to running the statement
    /// once per binding — same rows affected, same constraint checks — with
    /// only the locking cadence (and, in autocommit mode, the single commit)
    /// differing. On error an
    /// autocommit batch is **stricter** than the loop: it runs as one
    /// implicit transaction and rolls back entirely, whereas a loop of
    /// autocommit statements would leave the bindings before the failure
    /// committed. Inside an explicit transaction the bindings already
    /// applied stay pending (on its change list), exactly as a failed
    /// statement in a loop would; the caller decides whether to roll back.
    /// Returns the total number of rows affected.
    pub(crate) fn run_batch(
        &self,
        ctx: ExecCtx<'_>,
        prepared: &Prepared,
        bindings: &[Vec<Value>],
    ) -> Result<usize> {
        match prepared.stmt.as_ref() {
            Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_) => {}
            _ => {
                return Err(Error::type_err(
                    "execute_batch expects an INSERT, UPDATE or DELETE statement",
                ))
            }
        }
        for binding in bindings {
            Self::check_arity(prepared, binding)?;
        }
        let mut local = OpStats::default();
        let result = self.in_txn(ctx.txn, &mut local, |txn, local| {
            let bindings = bindings.iter().map(Vec::as_slice);
            self.write_in(txn, &prepared.stmt, bindings, Some(&prepared.profile), ctx.gov, local)
        });
        if let Err(e) = &result {
            Self::attribute_failure(&mut local, e);
        }
        self.obs.record(&local);
        result.map(|done| done.affected())
    }

    /// Executes a mutating statement while holding the catalog write guard
    /// and the control mutex, for the active transaction `txn`, which holds
    /// the lock of the statement's table ([`Database::write_target`]). Every
    /// change is pushed onto `changes`, the transaction's change list, as it
    /// is applied.
    fn run_write(
        catalog: &mut Catalog,
        txn: TxnId,
        changes: &mut Vec<Change>,
        stmt: &Statement,
        params: &[Value],
        stats: &mut OpStats,
        gov: &mut Governor,
    ) -> Result<ExecResult> {
        match stmt {
            Statement::CreateTable(schema) => {
                if catalog.contains_key(&schema.name) {
                    return Err(Error::AlreadyExists(format!("table {}", schema.name)));
                }
                catalog.insert(schema.name.clone(), Table::new(schema.clone())?);
                changes.push(Change::CreateTable {
                    schema: schema.clone(),
                });
                Ok(ExecResult::Ack)
            }
            Statement::CreateIndex {
                table,
                column,
                unique,
            } => {
                let name = table.to_ascii_lowercase();
                let t = catalog
                    .get_mut(&name)
                    .ok_or_else(|| Error::not_found(format!("table {table}")))?;
                let prefix = if *unique { "uidx" } else { "idx" };
                let def = IndexDef {
                    name: format!("{prefix}_{name}_{column}"),
                    column: column.to_ascii_lowercase(),
                    unique: *unique,
                };
                if t.schema.indexes.iter().any(|i| i.name == def.name) {
                    return Err(Error::AlreadyExists(format!("index {}", def.name)));
                }
                // Built in place over every retained version, so snapshot
                // readers probing the new index still see their rows.
                t.add_index(def.clone(), stats)?;
                changes.push(Change::CreateIndex {
                    table: Arc::clone(t.name()),
                    def,
                });
                Ok(ExecResult::Ack)
            }
            Statement::DropTable(table) => {
                let name = table.to_ascii_lowercase();
                let dropped = catalog
                    .remove(&name)
                    .ok_or_else(|| Error::not_found(format!("table {table}")))?;
                changes.push(Change::DropTable {
                    table: Arc::clone(dropped.name()),
                    dropped: Some(Box::new(dropped)),
                });
                Ok(ExecResult::Ack)
            }
            Statement::Insert(ins) => {
                Self::run_insert(catalog, txn, changes, ins, params, stats, gov)
            }
            Statement::Update(upd) => {
                Self::run_update(catalog, txn, changes, upd, params, stats, gov)
            }
            Statement::Delete(del) => {
                Self::run_delete(catalog, txn, changes, del, params, stats, gov)
            }
            Statement::Begin
            | Statement::Commit
            | Statement::Rollback
            | Statement::Select(_)
            | Statement::Analyze(_)
            | Statement::Explain { .. } => {
                unreachable!("Database::run dispatches only DML and DDL to run_write")
            }
        }
    }

    fn run_insert(
        catalog: &mut Catalog,
        txn: TxnId,
        changes: &mut Vec<Change>,
        ins: &InsertStmt,
        params: &[Value],
        stats: &mut OpStats,
        gov: &mut Governor,
    ) -> Result<ExecResult> {
        /// What a VALUES expression may refer to: no column at all.
        static VALUES_SCOPE: LazyLock<Schema> =
            LazyLock::new(|| Schema::new("values", Vec::new()));
        let table = catalog
            .get_mut(lower_name(&ins.table).as_ref())
            .ok_or_else(|| Error::not_found(format!("table {}", ins.table)))?;
        let name = Arc::clone(table.name());
        let empty_row = Row::default();
        let mut inserted = 0usize;
        for row_exprs in &ins.rows {
            gov.tick()?;
            // Evaluate the literal expressions for this VALUES row.
            let mut provided = Vec::with_capacity(row_exprs.len());
            for e in row_exprs {
                provided.push(e.eval_with(&VALUES_SCOPE, &empty_row, params)?);
            }
            // Rearrange into schema order.
            let schema = &table.schema;
            let values: Vec<Value> = if ins.columns.is_empty() {
                if provided.len() != schema.arity() {
                    return Err(Error::type_err(format!(
                        "table {} expects {} values, got {}",
                        schema.name,
                        schema.arity(),
                        provided.len()
                    )));
                }
                provided
            } else {
                if provided.len() != ins.columns.len() {
                    return Err(Error::type_err(format!(
                        "INSERT column list has {} entries but {} values were given",
                        ins.columns.len(),
                        provided.len()
                    )));
                }
                let mut values = vec![Value::Null; schema.arity()];
                for (col, value) in ins.columns.iter().zip(provided) {
                    let idx = schema.column_index(col)?;
                    values[idx] = value;
                }
                values
            };
            let row_id = table.insert(values, txn, stats)?;
            let row = table.get(row_id).cloned().ok_or_else(|| {
                Error::internal("row missing immediately after insert")
            })?;
            changes.push(Change::Insert {
                table: Arc::clone(&name),
                row_id,
                row,
            });
            inserted += 1;
        }
        Ok(ExecResult::Affected(inserted))
    }

    fn run_update(
        catalog: &mut Catalog,
        txn: TxnId,
        changes: &mut Vec<Change>,
        upd: &UpdateStmt,
        params: &[Value],
        stats: &mut OpStats,
        gov: &mut Governor,
    ) -> Result<ExecResult> {
        let table = catalog
            .get_mut(lower_name(&upd.table).as_ref())
            .ok_or_else(|| Error::not_found(format!("table {}", upd.table)))?;
        let name = Arc::clone(table.name());
        let ids =
            matching_row_ids_with(table, upd.filter.as_ref(), params, Snapshot::latest(), stats, gov)?;
        let mut affected = 0usize;
        for id in ids {
            gov.tick()?;
            // The assignments read the current version where it sits; the
            // one new image is built by `Table::update`.
            let current = table
                .get(id)
                .ok_or_else(|| Error::internal("matched row vanished during update"))?;
            let mut assignments = Vec::with_capacity(upd.assignments.len());
            for (col, expr) in &upd.assignments {
                let idx = table.schema.column_index(col)?;
                let value = expr.eval_with(&table.schema, current, params)?;
                assignments.push((idx, value));
            }
            let after = table.update(id, &assignments, txn, stats)?;
            changes.push(Change::Update {
                table: Arc::clone(&name),
                row_id: id,
                after,
            });
            affected += 1;
        }
        Ok(ExecResult::Affected(affected))
    }

    fn run_delete(
        catalog: &mut Catalog,
        txn: TxnId,
        changes: &mut Vec<Change>,
        del: &DeleteStmt,
        params: &[Value],
        stats: &mut OpStats,
        gov: &mut Governor,
    ) -> Result<ExecResult> {
        let table = catalog
            .get_mut(lower_name(&del.table).as_ref())
            .ok_or_else(|| Error::not_found(format!("table {}", del.table)))?;
        let name = Arc::clone(table.name());
        let ids =
            matching_row_ids_with(table, del.filter.as_ref(), params, Snapshot::latest(), stats, gov)?;
        let mut affected = 0usize;
        for id in ids {
            gov.tick()?;
            table.delete(id, txn, stats)?;
            changes.push(Change::Delete {
                table: Arc::clone(&name),
                row_id: id,
            });
            affected += 1;
        }
        Ok(ExecResult::Affected(affected))
    }

    // --- maintenance ----------------------------------------------------------

    /// Takes a checkpoint: a durable log is rotated onto a fresh segment
    /// holding a snapshot of every table in place of the records so far.
    /// Returns the snapshot's size in bytes (what it costs to write; a
    /// database without a log device writes nothing and reports the same
    /// figure). The snapshot is built under the shared catalog guard, so
    /// statements already executing a read keep going — but the control
    /// mutex is held from the quiescence check through the rotation's
    /// fsync, and every statement (reads included) takes that mutex for its
    /// snapshot, so writers and *new* reads wait for the rotation
    /// (≈ 70 ms at 130 k rows on an in-memory device).
    ///
    /// A checkpoint while any transaction is active would snapshot its
    /// uncommitted changes and replace the very records recovery needs to
    /// discard them, so it fails with a **retryable** [`Error::Busy`] until
    /// the engine is quiescent — distinguishable from a successful checkpoint
    /// of an empty log (`Ok(bytes)`), so callers retry instead of misreading
    /// "nothing to checkpoint".
    pub fn checkpoint(&self) -> Result<u64> {
        let sw = Stopwatch::start();
        let wal_bytes;
        {
            let catalog = self.catalog.read();
            let mut ctl = self.ctl.lock();
            let active = ctl.txns.active_count();
            if active > 0 {
                return Err(Error::busy(format!(
                    "checkpoint deferred: {active} active transaction(s)"
                )));
            }
            let mut local = OpStats::default();
            // No transactions are active, so the latest state is exactly the
            // committed state: the snapshot carries one version per live row.
            // On a durable log this rotates the segment (write the new one,
            // fsync, atomic rename) over the old records; a failure leaves
            // the old log intact and surfaces here.
            let rotated = ctl.wal.checkpoint(catalog.values(), &mut local);
            wal_bytes = local.wal_bytes;
            drop(ctl);
            drop(catalog);
            self.obs.record(&local);
            rotated?;
        }
        // Checkpoints double as the engine's full vacuum pass: prune every
        // version no live snapshot can observe. This needs the write guard,
        // taken only after the snapshot's read guard is released.
        let pruned = self.vacuum_all();
        let nanos = sw.elapsed_nanos();
        self.obs.histograms.checkpoint.record(nanos);
        self.obs.events.record(
            "checkpoint",
            format!("wrote {wal_bytes} WAL byte(s), vacuum pruned {pruned} version(s)"),
            nanos,
        );
        Ok(wal_bytes)
    }

    /// Prunes dead row versions in every table, bounded by the oldest live
    /// snapshot (with none active, chains shrink to one version per live
    /// row). Returns the number of versions pruned. Called from
    /// [`Database::checkpoint`]; exposed for tests and manual maintenance.
    pub fn vacuum_all(&self) -> usize {
        let sw = Stopwatch::start();
        let mut catalog = self.catalog.write();
        let horizon = self.ctl.lock().txns.snapshot_horizon();
        let mut local = OpStats::default();
        let mut pruned = 0usize;
        let mut tables = 0usize;
        for table in catalog.values_mut() {
            pruned += table.vacuum(horizon, &mut local);
            tables += 1;
        }
        drop(catalog);
        self.obs.record(&local);
        let nanos = sw.elapsed_nanos();
        self.obs.histograms.vacuum.record(nanos);
        self.obs.events.record(
            "vacuum",
            format!("full sweep over {tables} table(s) pruned {pruned} version(s)"),
            nanos,
        );
        pruned
    }

    /// Total retained MVCC versions (including current ones) in `table`.
    /// With no writers in flight and after a vacuum this equals
    /// [`Database::table_len`]. Used by tests and monitoring.
    pub fn table_versions(&self, table: &str) -> Result<usize> {
        self.catalog
            .read()
            .get(&table.to_ascii_lowercase())
            .map(Table::total_versions)
            .ok_or_else(|| Error::not_found(format!("table {table}")))
    }

    /// Number of version chains in `table` retaining at least one dead
    /// version — exactly the chains the next vacuum pass will visit (the
    /// dirty-chain list; see `Table::dirty_chain_count`).
    pub fn table_dirty_chains(&self, table: &str) -> Result<usize> {
        self.catalog
            .read()
            .get(&table.to_ascii_lowercase())
            .map(Table::dirty_chain_count)
            .ok_or_else(|| Error::not_found(format!("table {table}")))
    }

    /// Length of the longest version chain in `table`.
    pub fn table_max_chain(&self, table: &str) -> Result<usize> {
        self.catalog
            .read()
            .get(&table.to_ascii_lowercase())
            .map(Table::max_chain_len)
            .ok_or_else(|| Error::not_found(format!("table {table}")))
    }

    /// Verifies heap/index consistency of every table. Used by tests.
    pub fn check_consistency(&self) -> Result<()> {
        let catalog = self.catalog.read();
        for table in catalog.values() {
            table.check_consistency()?;
        }
        Ok(())
    }

    // --- typed client surface -------------------------------------------------

    /// Opens a [`Session`](crate::Session) — the typed client surface
    /// (tuple-bound parameters, [`FromRow`](crate::FromRow) decoding, RAII
    /// transactions). Sessions are two words; open one per request.
    pub fn session(&self) -> crate::Session<'_> {
        crate::Session::new(self)
    }

    /// Begins an explicit transaction and returns the RAII
    /// [`Transaction`](crate::Transaction) guard: `commit()` consumes the
    /// guard, dropping it (including during a panic unwind) rolls back.
    pub fn transaction(&self) -> crate::Transaction<'_> {
        crate::Transaction::begin(self, &Governance::NONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemDevice;
    use std::time::Duration;

    fn setup() -> Database {
        setup_in(Database::new())
    }

    /// [`setup`] over an in-memory log device, for the tests that crash and
    /// [`reopen`].
    fn setup_durable() -> Database {
        setup_in(
            Database::open_with_device(Box::new(MemDevice::new()), DurabilityPolicy::Always)
                .unwrap(),
        )
    }

    /// Crashes `db` and recovers: a new database over every record `db`
    /// appended so far.
    fn reopen(db: &Database) -> Database {
        db.flush_log().unwrap();
        let log = db.durable_log_bytes().unwrap();
        Database::open_with_device(Box::new(MemDevice::with_contents(log)), DurabilityPolicy::Always)
            .unwrap()
    }

    fn setup_in(db: Database) -> Database {
        db.execute(
            "CREATE TABLE jobs (job_id INT PRIMARY KEY, owner TEXT NOT NULL, state TEXT, runtime DOUBLE)",
        )
        .unwrap();
        db.execute("CREATE INDEX ON jobs (state)").unwrap();
        db.execute(
            "INSERT INTO jobs (job_id, owner, state, runtime) VALUES \
             (1, 'alice', 'idle', 60), (2, 'bob', 'idle', 120), (3, 'alice', 'running', 300)",
        )
        .unwrap();
        db
    }

    #[test]
    fn end_to_end_crud() {
        let db = setup();
        assert_eq!(db.table_len("jobs").unwrap(), 3);

        let r = db.query("SELECT owner FROM jobs WHERE state = 'idle' ORDER BY job_id").unwrap();
        assert_eq!(r.len(), 2);

        let n = db
            .execute("UPDATE jobs SET state = 'running' WHERE job_id = 1")
            .unwrap()
            .affected();
        assert_eq!(n, 1);
        let r = db.query("SELECT COUNT(*) AS n FROM jobs WHERE state = 'running'").unwrap();
        assert_eq!(r.scalar_int(), Some(2));

        let n = db.execute("DELETE FROM jobs WHERE owner = 'alice'").unwrap().affected();
        assert_eq!(n, 2);
        assert_eq!(db.table_len("jobs").unwrap(), 1);
        db.check_consistency().unwrap();
    }

    #[test]
    fn autocommit_rolls_back_failed_statements() {
        let db = setup();
        // Second row violates the primary key; the whole statement must not apply.
        let err = db.execute("INSERT INTO jobs (job_id, owner) VALUES (10, 'x'), (1, 'y')");
        assert!(err.is_err());
        assert_eq!(db.table_len("jobs").unwrap(), 3);
        let r = db.query("SELECT COUNT(*) FROM jobs WHERE job_id = 10").unwrap();
        assert_eq!(r.scalar_int(), Some(0));
        db.check_consistency().unwrap();
    }

    #[test]
    fn explicit_transactions_commit_and_rollback() {
        let db = setup();
        let txn = db.transaction();
        txn.execute("INSERT INTO jobs (job_id, owner, state) VALUES (4, 'carol', 'idle')", ())
            .unwrap();
        txn.execute("UPDATE jobs SET state = 'held' WHERE job_id = 2", ()).unwrap();
        txn.execute("DELETE FROM jobs WHERE job_id = 3", ()).unwrap();
        txn.rollback().unwrap();

        assert_eq!(db.table_len("jobs").unwrap(), 3);
        let r = db.query("SELECT state FROM jobs WHERE job_id = 2").unwrap();
        assert_eq!(r.first_value("state"), Some(&Value::Text("idle".into())));

        let txn = db.transaction();
        txn.execute("INSERT INTO jobs (job_id, owner, state) VALUES (4, 'carol', 'idle')", ())
            .unwrap();
        txn.commit().unwrap();
        assert_eq!(db.table_len("jobs").unwrap(), 4);
        db.check_consistency().unwrap();
    }

    #[test]
    fn rollback_restores_rows_and_index_entries_without_an_undo_image() {
        // Undoing a change reads no image off the change list: what to
        // restore is the version still under the aborted one in the chain.
        let db = setup();
        let all = "SELECT * FROM jobs ORDER BY job_id";
        let before = db.query(all).unwrap();
        let txn = db.transaction();
        // The same row updated twice, then deleted; another updated; a
        // third deleted — all through the indexed `state` column.
        txn.execute("UPDATE jobs SET state = 'held', runtime = 1 WHERE job_id = 1", ()).unwrap();
        txn.execute("UPDATE jobs SET state = 'gone' WHERE job_id = 1", ()).unwrap();
        txn.execute("DELETE FROM jobs WHERE job_id = 1", ()).unwrap();
        txn.execute("UPDATE jobs SET state = 'held' WHERE job_id = 2", ()).unwrap();
        txn.execute("DELETE FROM jobs WHERE state = 'running'", ()).unwrap();
        assert_eq!(txn.query(all, ()).unwrap().len(), 1);
        txn.rollback().unwrap();

        assert_eq!(db.query(all).unwrap(), before);
        let by_state = |state: &str| {
            db.query(&format!("SELECT job_id FROM jobs WHERE state = '{state}' ORDER BY job_id"))
                .unwrap()
                .len()
        };
        assert_eq!((by_state("idle"), by_state("running")), (2, 1));
        assert_eq!((by_state("held"), by_state("gone")), (0, 0));
        assert_eq!(db.table_versions("jobs").unwrap(), 3, "no aborted version is left");
        assert_eq!(db.table_dirty_chains("jobs").unwrap(), 0);
        db.check_consistency().unwrap();
        // The primary key the aborted delete would have freed is still taken.
        assert!(db.execute("INSERT INTO jobs (job_id, owner) VALUES (1, 'x')").is_err());
    }

    #[test]
    fn readers_never_conflict_with_writers() {
        let db = setup();
        let t1 = db.transaction();
        let t2 = db.transaction();
        t1.execute("UPDATE jobs SET state = 'held' WHERE job_id = 1", ()).unwrap();

        // MVCC: a reader in another transaction succeeds against the
        // in-flight writer and sees the pre-update state.
        let r = t2.query("SELECT state FROM jobs WHERE job_id = 1", ()).unwrap();
        assert_eq!(r.first_value("state"), Some(&Value::Text("idle".into())));
        // The autocommit fast path reads the committed state too.
        let r = db.query("SELECT state FROM jobs WHERE job_id = 1").unwrap();
        assert_eq!(r.first_value("state"), Some(&Value::Text("idle".into())));
        // The writer itself sees its own uncommitted version.
        let r = t1.query("SELECT state FROM jobs WHERE job_id = 1", ()).unwrap();
        assert_eq!(r.first_value("state"), Some(&Value::Text("held".into())));

        t1.commit().unwrap();
        // t2's snapshot predates t1's commit: repeatable reads.
        let r = t2.query("SELECT state FROM jobs WHERE job_id = 1", ()).unwrap();
        assert_eq!(r.first_value("state"), Some(&Value::Text("idle".into())));
        t2.commit().unwrap();
        // A fresh autocommit read observes the committed update.
        let r = db.query("SELECT state FROM jobs WHERE job_id = 1").unwrap();
        assert_eq!(r.first_value("state"), Some(&Value::Text("held".into())));
    }

    #[test]
    fn write_write_conflicts_are_still_reported() {
        let db = setup();
        let t1 = db.transaction();
        let t2 = db.transaction();
        t1.execute("UPDATE jobs SET state = 'held' WHERE job_id = 1", ()).unwrap();
        // A second writer on the same table fails fast and retryably.
        let err = t2
            .execute("UPDATE jobs SET state = 'done' WHERE job_id = 2", ())
            .unwrap_err();
        assert!(err.is_retryable());
        t1.commit().unwrap();
        // After the first writer commits, the second proceeds.
        t2.execute("UPDATE jobs SET state = 'done' WHERE job_id = 2", ()).unwrap();
        t2.commit().unwrap();
    }

    #[test]
    fn range_access_paths_do_not_duplicate_updated_rows() {
        let db = setup();
        db.execute("CREATE INDEX ON jobs (runtime)").unwrap();
        // The update leaves the old runtime key's index entry behind for
        // snapshot readers; a range spanning both keys must still yield the
        // row exactly once.
        db.execute("UPDATE jobs SET runtime = 90 WHERE job_id = 1").unwrap();
        let r = db
            .query("SELECT job_id FROM jobs WHERE runtime >= 0 AND runtime <= 1000 ORDER BY job_id")
            .unwrap();
        assert_eq!(r.len(), 3, "each row exactly once through the range index");
        // Range-matched DML applies once per row (a duplicate id would
        // double-apply the expression / fail the delete).
        let n = db
            .execute("UPDATE jobs SET runtime = runtime + 1 WHERE runtime BETWEEN 0 AND 1000")
            .unwrap()
            .affected();
        assert_eq!(n, 3);
        let r = db.query("SELECT runtime FROM jobs WHERE job_id = 1").unwrap();
        assert_eq!(r.first_value("runtime"), Some(&Value::Double(91.0)));
        let n = db.execute("DELETE FROM jobs WHERE runtime >= 0").unwrap().affected();
        assert_eq!(n, 3);
        db.check_consistency().unwrap();
    }

    #[test]
    fn recovery_restores_committed_state() {
        let db = setup_durable();
        db.execute("UPDATE jobs SET state = 'done' WHERE job_id = 3").unwrap();
        // An uncommitted transaction at crash time must disappear.
        let txn = db.transaction();
        txn.execute("DELETE FROM jobs", ()).unwrap();

        let recovered = reopen(&db);
        assert_eq!(recovered.table_len("jobs").unwrap(), 3);
        let r = recovered.query("SELECT state FROM jobs WHERE job_id = 3").unwrap();
        assert_eq!(r.first_value("state"), Some(&Value::Text("done".into())));
        recovered.check_consistency().unwrap();
    }

    #[test]
    fn checkpoint_truncates_wal_and_preserves_recovery() {
        let db = setup_durable();
        // Churn one row so the log holds far more than the live state.
        for i in 0..20 {
            db.execute(&format!("UPDATE jobs SET runtime = {i} WHERE job_id = 1")).unwrap();
        }
        let before = db.durable_log_bytes().unwrap().len();
        db.checkpoint().unwrap();
        assert!(db.durable_log_bytes().unwrap().len() < before);
        db.execute("INSERT INTO jobs (job_id, owner) VALUES (9, 'zoe')").unwrap();
        let recovered = reopen(&db);
        assert_eq!(recovered.table_len("jobs").unwrap(), 4);
        let r = recovered.query("SELECT runtime FROM jobs WHERE job_id = 1").unwrap();
        assert_eq!(r.first_value("runtime"), Some(&Value::Double(19.0)));
        assert!(db.stats().checkpoints >= 1);
    }

    #[test]
    fn a_checkpoint_reports_the_same_bytes_with_and_without_a_device() {
        // Without a device no snapshot is built — it is sized off the
        // borrowed rows — and the figure must not depend on that.
        let (mem, durable) = (setup(), setup_durable());
        for db in [&mem, &durable] {
            db.execute("UPDATE jobs SET state = NULL, runtime = 7.5 WHERE job_id = 2").unwrap();
            db.execute("DELETE FROM jobs WHERE job_id = 3").unwrap();
            db.execute("CREATE TABLE empty (id INT PRIMARY KEY)").unwrap();
        }
        let s0 = (mem.stats(), durable.stats());
        let bytes = mem.checkpoint().unwrap();
        assert!(bytes > 0);
        assert_eq!(bytes, durable.checkpoint().unwrap());
        for (db, s0) in [(&mem, &s0.0), (&durable, &s0.1)] {
            let d = db.stats().delta_since(s0);
            assert_eq!((d.checkpoints, d.wal_records, d.wal_bytes), (1, 1, bytes));
        }
    }

    #[test]
    fn ddl_statements_and_errors() {
        let db = Database::new();
        db.execute("CREATE TABLE t (a INT PRIMARY KEY)").unwrap();
        assert!(db.execute("CREATE TABLE t (a INT)").is_err());
        db.execute("DROP TABLE t").unwrap();
        assert!(db.execute("DROP TABLE t").is_err());
        assert!(db.execute("SELECT * FROM t").is_err());
        assert!(db.execute("BEGIN").is_err());
    }

    #[test]
    fn stats_accumulate() {
        let db = setup();
        let s1 = db.stats();
        db.query("SELECT * FROM jobs").unwrap();
        db.execute("UPDATE jobs SET runtime = runtime + 1 WHERE state = 'idle'").unwrap();
        let s2 = db.stats();
        let d = s2.delta_since(&s1);
        assert!(d.rows_read >= 3);
        assert_eq!(d.rows_updated, 2);
        assert!(d.statements_executed >= 2);
        assert_eq!(d.wal_records, 1, "the update's transaction; the read logs nothing");
    }

    #[test]
    fn prepared_statements_bind_parameters() {
        let db = setup();
        let q = db.prepare("SELECT owner FROM jobs WHERE job_id = ?").unwrap();
        assert_eq!(q.param_count(), 1);
        let mut s = db.session();
        let r = s.query(&q, (2i64,)).unwrap();
        assert_eq!(r.first_value("owner"), Some(&Value::Text("bob".into())));
        // Re-binding different values reuses the same parse.
        let r = s.query(&q, (3i64,)).unwrap();
        assert_eq!(r.first_value("owner"), Some(&Value::Text("alice".into())));
        // Arity mismatches are reported.
        assert!(s.query(&q, ()).is_err());
        assert!(s.query(&q, (1i64, 2i64)).is_err());

        // DML with parameters, including SQL-hostile text bound verbatim.
        let upd = db
            .prepare("UPDATE jobs SET owner = ? WHERE job_id = ?")
            .unwrap();
        let n = s.execute(&upd, ("o'brien -- x", 1i64)).unwrap().affected();
        assert_eq!(n, 1);
        let r = db.query("SELECT owner FROM jobs WHERE job_id = 1").unwrap();
        assert_eq!(r.first_value("owner"), Some(&Value::Text("o'brien -- x".into())));

        // NULL binds as SQL NULL.
        let upd = db.prepare("UPDATE jobs SET state = ? WHERE job_id = ?").unwrap();
        s.execute(&upd, (Value::Null, 2i64)).unwrap();
        let r = db.query("SELECT COUNT(*) FROM jobs WHERE state IS NULL").unwrap();
        assert_eq!(r.scalar_int(), Some(1));
        db.check_consistency().unwrap();
    }

    #[test]
    fn plain_execute_rejects_placeholders() {
        let db = setup();
        assert!(db.execute("SELECT * FROM jobs WHERE job_id = ?").is_err());
        let txn = db.transaction();
        assert!(txn.execute("DELETE FROM jobs WHERE job_id = ?", ()).is_err());
        txn.rollback().unwrap();
    }

    #[test]
    fn statement_cache_stops_reparsing_once_warm() {
        let db = setup();
        db.query("SELECT * FROM jobs WHERE job_id = 1").unwrap(); // cold: parses
        let warm = db.stats();
        for _ in 0..10 {
            db.query("SELECT * FROM jobs WHERE job_id = 1").unwrap();
        }
        let after = db.stats();
        assert_eq!(
            after.statements_parsed, warm.statements_parsed,
            "repeated identical SQL must not grow statements_parsed once the cache is warm"
        );
        assert_eq!(after.cache_hits, warm.cache_hits + 10);
        assert_eq!(after.cache_misses, warm.cache_misses);
    }

    #[test]
    fn statement_cache_evicts_least_recently_used() {
        let db = setup();
        db.set_statement_cache_capacity(2);
        db.query("SELECT * FROM jobs WHERE job_id = 1").unwrap(); // A: miss
        db.query("SELECT * FROM jobs WHERE job_id = 2").unwrap(); // B: miss
        db.query("SELECT * FROM jobs WHERE job_id = 1").unwrap(); // A: hit
        db.query("SELECT * FROM jobs WHERE job_id = 3").unwrap(); // C: miss, evicts B
        let s1 = db.stats();
        db.query("SELECT * FROM jobs WHERE job_id = 1").unwrap(); // A still cached
        let s2 = db.stats();
        assert_eq!(s2.cache_hits, s1.cache_hits + 1);
        db.query("SELECT * FROM jobs WHERE job_id = 2").unwrap(); // B was evicted
        let s3 = db.stats();
        assert_eq!(s3.cache_misses, s2.cache_misses + 1);

        // Zero capacity disables caching entirely.
        db.set_statement_cache_capacity(0);
        let s4 = db.stats();
        db.query("SELECT * FROM jobs WHERE job_id = 3").unwrap();
        db.query("SELECT * FROM jobs WHERE job_id = 3").unwrap();
        let s5 = db.stats();
        assert_eq!(s5.cache_hits, s4.cache_hits);
        assert_eq!(s5.cache_misses, s4.cache_misses + 2);
    }

    #[test]
    fn evicted_profiles_fold_into_one_rel_statements_row() {
        let db = setup();
        db.set_statement_cache_capacity(4);
        let by_sql = |db: &Database| -> Vec<(String, String, i64, i64)> {
            db.session()
                .query_as("SELECT sql, kind, calls, total_rows FROM rel_statements", ())
                .unwrap()
        };
        assert!(by_sql(&db).iter().all(|(sql, ..)| sql != "(evicted)"), "nothing evicted yet");
        // Twelve ad-hoc point selects through a four-entry cache: each runs
        // once and ages out, as an operator's one-off queries do.
        for id in 0..12 {
            db.query(&format!("SELECT * FROM jobs WHERE job_id = {}", id % 3 + 1)).unwrap();
            db.query(&format!("SELECT owner FROM jobs WHERE job_id = {id}")).unwrap();
        }
        let executed = db.stats().statements_executed as i64;
        let lines = by_sql(&db);
        let evicted: Vec<_> = lines.iter().filter(|(sql, ..)| sql == "(evicted)").collect();
        assert_eq!(evicted.len(), 1, "{lines:?}");
        assert_eq!(evicted[0].1, "evicted");
        // Nothing vanished: every statement executed so far is in some row.
        assert_eq!(lines.iter().map(|l| l.2).sum::<i64>(), executed, "{lines:?}");
        assert!(evicted[0].2 >= 20, "most of them through the evicted row: {lines:?}");
        assert!(evicted[0].3 > 0, "their rows too");
    }

    #[test]
    fn prepared_statements_inside_transactions() {
        let db = setup();
        let ins = db
            .prepare("INSERT INTO jobs (job_id, owner, state) VALUES (?, ?, ?)")
            .unwrap();
        let txn = db.transaction();
        txn.execute(&ins, (10i64, "zoe", "idle")).unwrap();
        txn.rollback().unwrap();
        assert_eq!(db.table_len("jobs").unwrap(), 3, "rollback undoes prepared insert");

        let txn = db.transaction();
        txn.execute(&ins, (10i64, "zoe", "idle")).unwrap();
        txn.commit().unwrap();
        assert_eq!(db.table_len("jobs").unwrap(), 4);
        db.check_consistency().unwrap();
    }

    #[test]
    fn unique_index_via_sql() {
        let db = Database::new();
        db.execute("CREATE TABLE m (id INT PRIMARY KEY, name TEXT)").unwrap();
        db.execute("CREATE UNIQUE INDEX ON m (name)").unwrap();
        db.execute("INSERT INTO m VALUES (1, 'node01')").unwrap();
        assert!(db.execute("INSERT INTO m VALUES (2, 'node01')").is_err());
        db.execute("INSERT INTO m VALUES (2, 'node02')").unwrap();
        assert_eq!(db.table_len("m").unwrap(), 2);
    }

    #[test]
    fn checkpoint_waits_out_active_transactions() {
        let db = setup_durable();
        let txn = db.transaction();
        txn.execute("INSERT INTO jobs (job_id, owner) VALUES (8, 'eve')", ()).unwrap();
        db.flush_log().unwrap();
        let wal_before = db.durable_log_bytes().unwrap();
        let s0 = db.stats();
        // Checkpointing now would snapshot the uncommitted row and truncate
        // the records recovery needs to discard it; it must refuse with a
        // retryable busy error, not a silent "0 bytes written".
        let err = db.checkpoint().unwrap_err();
        assert!(matches!(err, Error::Busy(_)));
        assert!(err.is_retryable());
        assert_eq!(db.durable_log_bytes().unwrap(), wal_before);
        assert_eq!(db.stats().delta_since(&s0).wal_records, 0);
        txn.rollback().unwrap();

        // The rolled-back insert must not survive a checkpoint + recovery.
        assert!(db.checkpoint().unwrap() > 0);
        let recovered = reopen(&db);
        assert_eq!(recovered.table_len("jobs").unwrap(), 3);
        let r = recovered.query("SELECT COUNT(*) FROM jobs WHERE job_id = 8").unwrap();
        assert_eq!(r.scalar_int(), Some(0));
    }

    #[test]
    fn read_only_explicit_txns_never_touch_the_wal() {
        let db = setup_durable();
        let before = db.stats();
        let appended = |db: &Database| db.stats().delta_since(&before).wal_records;

        // A transaction that only reads has nothing to log.
        let txn = db.transaction();
        txn.execute("SELECT * FROM jobs", ()).unwrap();
        txn.commit().unwrap();
        assert_eq!(appended(&db), 0, "read-only commit must not touch the WAL");

        let txn = db.transaction();
        txn.execute("SELECT COUNT(*) FROM jobs", ()).unwrap();
        txn.rollback().unwrap();
        assert_eq!(appended(&db), 0, "read-only rollback must not touch the WAL");

        // A writing transaction reaches the log at commit, as one record.
        let txn = db.transaction();
        txn.execute("UPDATE jobs SET state = 'held' WHERE job_id = 1", ()).unwrap();
        txn.execute("UPDATE jobs SET state = 'held' WHERE job_id = 2", ()).unwrap();
        assert_eq!(appended(&db), 0, "nothing is logged ahead of the commit");
        txn.commit().unwrap();
        assert_eq!(appended(&db), 1, "one record for the whole transaction");

        let recovered = reopen(&db);
        let r = recovered.query("SELECT state FROM jobs WHERE job_id = 1").unwrap();
        assert_eq!(r.first_value("state"), Some(&Value::Text("held".into())));
    }

    /// A [`MemDevice`] that counts the appends and syncs it is asked for.
    #[derive(Debug, Default)]
    struct CountingDevice {
        inner: MemDevice,
        calls: Arc<(AtomicU64, AtomicU64)>,
    }

    impl LogDevice for CountingDevice {
        fn append(&mut self, bytes: &[u8]) -> Result<()> {
            self.calls.0.fetch_add(1, Ordering::Relaxed);
            self.inner.append(bytes)
        }
        fn sync(&mut self) -> Result<()> {
            self.calls.1.fetch_add(1, Ordering::Relaxed);
            self.inner.sync()
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
        fn durable_contents(&self) -> Result<Vec<u8>> {
            self.inner.durable_contents()
        }
        fn truncate(&mut self, len: u64) -> Result<()> {
            self.inner.truncate(len)
        }
        fn replace(&mut self, bytes: &[u8]) -> Result<()> {
            self.inner.replace(bytes)
        }
        fn crash(&mut self) {
            self.inner.crash()
        }
    }

    #[test]
    fn a_committed_transaction_is_one_append_and_one_sync() {
        let device = CountingDevice::default();
        let calls = Arc::clone(&device.calls);
        let db = setup_in(
            Database::open_with_device(Box::new(device), DurabilityPolicy::Always).unwrap(),
        );
        let count = || (calls.0.load(Ordering::Relaxed), calls.1.load(Ordering::Relaxed));
        let (appends, syncs) = count();

        // Autocommit statements, a batch, and an explicit transaction of
        // three statements: each is one transaction, whatever it changes.
        db.execute("UPDATE jobs SET state = 'held' WHERE job_id = 1").unwrap();
        db.execute("INSERT INTO jobs (job_id, owner) VALUES (4, 'dan'), (5, 'eve')").unwrap();
        db.execute("DELETE FROM jobs WHERE owner = 'alice'").unwrap();
        let ins = db.prepare("INSERT INTO jobs (job_id, owner) VALUES (?, ?)").unwrap();
        db.session().execute_batch(&ins, (10..20i64).map(|i| (i, "zoe"))).unwrap();
        let txn = db.transaction();
        txn.execute("UPDATE jobs SET runtime = 1 WHERE job_id = 2", ()).unwrap();
        txn.execute("INSERT INTO jobs (job_id, owner) VALUES (6, 'fay')", ()).unwrap();
        txn.execute("DELETE FROM jobs WHERE job_id = 4", ()).unwrap();
        txn.commit().unwrap();
        assert_eq!(count(), (appends + 5, syncs + 5), "5 writing transactions");

        // Reading, failing and rolling back ask nothing of the device.
        let txn = db.transaction();
        txn.query("SELECT * FROM jobs", ()).unwrap();
        txn.commit().unwrap();
        db.query("SELECT COUNT(*) FROM jobs").unwrap();
        assert!(db.execute("INSERT INTO jobs (job_id, owner) VALUES (7, 'x'), (2, 'dup')").is_err());
        let txn = db.transaction();
        txn.execute("DELETE FROM jobs", ()).unwrap();
        txn.rollback().unwrap();
        assert_eq!(count(), (appends + 5, syncs + 5));
        assert_eq!(reopen(&db).query("SELECT * FROM jobs ORDER BY job_id").unwrap(),
            db.query("SELECT * FROM jobs ORDER BY job_id").unwrap());
    }

    #[test]
    fn a_transaction_that_does_not_commit_adds_nothing_to_the_log() {
        let db = setup_durable();
        let log_of = |db: &Database| {
            db.flush_log().unwrap();
            let s = db.stats();
            (db.durable_log_bytes().unwrap(), s.wal_records, s.wal_bytes)
        };
        let before = log_of(&db);
        let all = db.query("SELECT * FROM jobs ORDER BY job_id").unwrap();

        let txn = db.transaction();
        txn.execute("INSERT INTO jobs (job_id, owner) VALUES (4, 'dan')", ()).unwrap();
        txn.execute("UPDATE jobs SET state = 'held' WHERE job_id = 1", ()).unwrap();
        txn.execute("DELETE FROM jobs WHERE job_id = 2", ()).unwrap();
        assert_eq!(log_of(&db), before, "nothing is logged ahead of commit");
        txn.rollback().unwrap();
        assert_eq!(log_of(&db), before, "a rolled-back transaction leaves no trace");

        // One the reaper aborts: the abandoned guard is still in scope.
        let abandoned = db.transaction();
        abandoned.execute("UPDATE jobs SET state = 'ghost'", ()).unwrap();
        assert_eq!(db.reap_idle(Duration::ZERO), 1);
        assert_eq!(log_of(&db), before, "nor does a reaped one");
        assert!(abandoned.commit().is_err());
        assert_eq!(log_of(&db), before);
        assert_eq!(db.query("SELECT * FROM jobs ORDER BY job_id").unwrap(), all);
        assert_eq!(db.stats().aborts, 2);
    }

    #[test]
    fn a_write_through_a_reaped_transaction_takes_no_lock() {
        let db = setup();
        let abandoned = db.transaction();
        assert_eq!(db.reap_idle(Duration::ZERO), 1);
        let err = abandoned.execute("UPDATE jobs SET state = 'x'", ()).unwrap_err();
        assert!(matches!(err, Error::TxnClosed(_)), "{err}");
        drop(abandoned);
        // The dead transaction's statement must not have left `jobs` locked.
        db.execute("UPDATE jobs SET state = 'held' WHERE job_id = 1").unwrap();
    }

    fn explain(db: &Database, select: &str) -> String {
        let plan = db.query(&format!("EXPLAIN {select}")).unwrap();
        plan.rows.iter().map(|r| format!("{}", r.get(2))).collect::<Vec<_>>().join("; ")
    }

    #[test]
    fn an_index_created_by_sql_survives_log_replay() {
        let db = setup_durable();
        db.execute("CREATE UNIQUE INDEX ON jobs (runtime)").unwrap();
        let by_state = "SELECT job_id FROM jobs WHERE state = 'idle'";
        let before = explain(&db, by_state);
        assert!(before.contains("point lookup on jobs.state"), "{before}");

        // No checkpoint: the catalog is rebuilt from the log alone.
        let recovered = reopen(&db);
        assert_eq!(explain(&recovered, by_state), before);
        let dup = recovered.execute("INSERT INTO jobs (job_id, owner, runtime) VALUES (9, 'x', 60)");
        assert_eq!(dup.unwrap_err().class(), crate::ErrorClass::Constraint);
        recovered.check_consistency().unwrap();
    }

    #[test]
    fn rollback_undoes_ddl() {
        let db = setup_durable();
        let all = "SELECT * FROM jobs ORDER BY job_id";
        let by_state = "SELECT job_id FROM jobs WHERE state = 'idle'";
        let (rows, plan) = (db.query(all).unwrap(), explain(&db, by_state));

        // DROP TABLE: the table comes back, rows and indexes intact.
        let txn = db.transaction();
        txn.execute("UPDATE jobs SET state = 'held' WHERE job_id = 1", ()).unwrap();
        txn.execute("DROP TABLE jobs", ()).unwrap();
        assert!(txn.query(all, ()).is_err());
        txn.rollback().unwrap();
        assert_eq!(db.query(all).unwrap(), rows);
        assert_eq!(explain(&db, by_state), plan);
        db.check_consistency().unwrap();

        // CREATE UNIQUE INDEX: neither the index nor its constraint stays.
        let txn = db.transaction();
        txn.execute("CREATE UNIQUE INDEX ON jobs (owner)", ()).unwrap_err();
        txn.execute("CREATE UNIQUE INDEX ON jobs (runtime)", ()).unwrap();
        assert!(txn.execute("INSERT INTO jobs (job_id, owner, runtime) VALUES (8, 'x', 60)", ()).is_err());
        txn.rollback().unwrap();
        db.execute("INSERT INTO jobs (job_id, owner, runtime) VALUES (8, 'x', 60)").unwrap();
        assert!(explain(&db, "SELECT * FROM jobs WHERE runtime = 60").contains("full scan"));

        // A table created, filled, dropped and rolled back was never there;
        // and the same history committed replays to the same catalog.
        let txn = db.transaction();
        txn.execute("CREATE TABLE scratch (id INT PRIMARY KEY)", ()).unwrap();
        txn.execute("INSERT INTO scratch VALUES (1)", ()).unwrap();
        txn.execute("DROP TABLE scratch", ()).unwrap();
        txn.rollback().unwrap();
        assert_eq!(db.table_names(), ["jobs"]);
        let txn = db.transaction();
        txn.execute("CREATE TABLE scratch (id INT PRIMARY KEY)", ()).unwrap();
        txn.execute("INSERT INTO scratch VALUES (1)", ()).unwrap();
        txn.execute("DROP TABLE scratch", ()).unwrap();
        txn.execute("DROP TABLE jobs", ()).unwrap();
        txn.commit().unwrap();
        assert!(reopen(&db).table_names().is_empty());
    }

    #[test]
    fn a_transaction_too_large_to_log_rolls_back_instead_of_committing() {
        let db = setup_durable();
        db.ctl.lock().wal.set_payload_limit(256);
        let all = "SELECT * FROM jobs ORDER BY job_id";
        let (rows, log) = (db.query(all).unwrap(), db.durable_log_bytes().unwrap());
        let s0 = db.stats();

        let ins = db.prepare("INSERT INTO jobs (job_id, owner) VALUES (?, ?)").unwrap();
        let big = (10..40i64).map(|i| (i, "zoe"));
        let err = db.session().execute_batch(&ins, big.clone()).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
        let txn = db.transaction();
        txn.execute_batch(&ins, big).unwrap();
        let err = txn.commit().unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");

        // Neither was acknowledged, applied or logged; their locks are gone.
        let d = db.stats().delta_since(&s0);
        assert_eq!((d.commits, d.aborts, d.wal_records), (0, 2, 0));
        assert_eq!(db.query(all).unwrap(), rows);
        assert_eq!(db.durable_log_bytes().unwrap(), log);
        db.check_consistency().unwrap();
        // A checkpoint image over the limit is refused the same way, and
        // the writer stays healthy for a transaction that fits.
        db.ctl.lock().wal.set_payload_limit(64);
        assert!(matches!(db.checkpoint(), Err(Error::ResourceExhausted(_))));
        db.execute("INSERT INTO jobs (job_id, owner) VALUES (4, 'dan')").unwrap();
        assert_eq!(reopen(&db).table_len("jobs").unwrap(), 4);
    }

    #[test]
    fn selects_execute_under_a_shared_catalog_guard() {
        let db = setup();
        // Hold a read guard on the catalog from this thread. Under the old
        // single-mutex engine the query below would block forever; under the
        // shared-lock read path it completes while the guard is held.
        std::thread::scope(|s| {
            let db = &db;
            let guard = db.catalog.read();
            let (tx, rx) = std::sync::mpsc::channel();
            s.spawn(move || {
                let n = db.query("SELECT * FROM jobs WHERE job_id = 1").unwrap().len();
                tx.send(n).unwrap();
            });
            let n = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a SELECT must run concurrently with another read guard");
            assert_eq!(n, 1);
            drop(guard);
        });
    }

    #[test]
    fn concurrent_selects_from_many_threads() {
        let db = setup();
        let q = db.prepare("SELECT owner FROM jobs WHERE job_id = ?").unwrap();
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let db = &db;
                let q = q.clone();
                s.spawn(move || {
                    for i in 0..250i64 {
                        let id = 1 + (t + i) % 3;
                        let r = db.session().query(&q, (id,)).unwrap();
                        assert_eq!(r.len(), 1);
                    }
                });
            }
        });
        assert!(db.stats().statements_executed >= 1000);
        db.check_consistency().unwrap();
    }
}
