//! # relstore — an embedded relational storage and query engine
//!
//! `relstore` is the DB2 stand-in substrate for the CondorJ2 reproduction
//! ("Turning Cluster Management into Data Management", CIDR 2007). The paper's
//! central move is to put **all** cluster-management state — jobs, machines,
//! matches, runs, users, configuration, history — into relational tables and
//! express every system action as SQL. This crate provides the pieces that
//! move requires:
//!
//! * typed tables with primary keys and secondary indexes over a row heap
//!   addressed by row id ([`table`], `schema`, [`heap`]),
//! * a SQL subset with a lexer, parser and executor ([`sql`], [`exec`]),
//! * prepared statements with `?` placeholders and an LRU statement cache
//!   ([`db::Prepared`], [`Database::prepare`](db::Database::prepare)),
//! * MVCC snapshot isolation over per-row version chains ([`mvcc`]),
//! * transactions with table-level write locking and rollback (`txn`),
//! * a write-ahead log with checkpointing and recovery ([`wal`]),
//! * one metrics registry — operation counters for the simulation cost
//!   model beside latency histograms, served as SQL ([`obs`]).
//!
//! ## Concurrency model
//!
//! The paper's pitch is that an RDBMS "provides … high concurrency" over the
//! operational data, so the engine is built to use every core for reads:
//!
//! * **Reads share, writes exclude.** The catalog (tables, rows, indexes)
//!   lives behind a reader-writer lock. SELECTs — autocommit or inside a
//!   transaction — execute under the *shared* guard, so any number of
//!   threads read in parallel; INSERT/UPDATE/DELETE/DDL hold the exclusive
//!   guard for the duration of one statement. An autocommit read never
//!   opens a transaction, registers a lock or touches the WAL.
//! * **Book-keeping is off the read path.** Transaction, lock and WAL state
//!   sit under a separate short-lived mutex, and the statement cache under a
//!   third, so cache probes and commit processing never serialise row
//!   access. Statistics accumulate into a stack-local [`OpStats`] per
//!   statement and merge into the lock-free atomics of the one registry,
//!   [`Observability`].
//! * **Rows are borrowed, names are interned.** Table access paths stream
//!   `tuple::StoredRowRef`s (no row clones); the executor clones only the
//!   values that survive projection, and [`QueryResult`] column names are
//!   `Arc<str>`s shared with the schema.
//! * **The log hears of a transaction once.** A transaction's changes
//!   collect on one list and reach the WAL at commit, as one record;
//!   read-only, rolled-back and reaped transactions never touch the log.
//!
//! ## MVCC: readers never block or abort on writers
//!
//! Reads are isolated by **snapshots**, not locks. Every row is a chain of
//! [`mvcc::RowVersion`]s stamped with the transaction that created (and,
//! once superseded or deleted, ended) them; every SELECT carries a
//! [`Snapshot`] — a transaction-id watermark plus the set of writers in
//! flight when it was taken — and resolves each chain to the version its
//! snapshot sees. Consequences:
//!
//! * a reader racing an uncommitted writer **succeeds** and observes the
//!   most recently committed state — the reader-side
//!   [`Error::LockConflict`] path is gone entirely (autocommit,
//!   in-transaction, and [`Session::query_batch`] alike);
//! * an explicit transaction reuses the snapshot stamped at `begin()` for
//!   all its reads: **repeatable reads** for its whole lifetime, while its
//!   own writes stay visible to itself;
//! * writers still serialise through the table-level lock manager, so
//!   **write-write** conflicts keep failing fast and retryably — wrap write
//!   transactions in [`Session::with_retries`];
//! * old versions are pruned by **vacuum** once no live snapshot can see
//!   them: [`Database::checkpoint`](db::Database::checkpoint) sweeps every
//!   table, and a write that leaves a table with more than
//!   `db::VACUUM_DEAD_THRESHOLD` dead versions triggers a targeted sweep.
//!   `versions_created` / `versions_vacuumed` / `snapshots_taken` /
//!   `max_version_chain` in [`OpStats`] make the version store observable.
//!
//! A reader keeps its view while a writer commits mid-transaction:
//!
//! ```
//! use relstore::Database;
//!
//! let db = Database::new();
//! db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT)")?;
//! db.execute("INSERT INTO jobs VALUES (1, 'idle')")?;
//!
//! let reader = db.transaction(); // snapshot taken here
//! // A concurrent writer updates the row and commits...
//! db.execute("UPDATE jobs SET state = 'running' WHERE job_id = 1")?;
//!
//! // ...but the reader's snapshot predates that commit: it still sees
//! // 'idle', on this read and every later one (repeatable reads) —
//! // and it never saw a LockConflict.
//! let r = reader.query("SELECT state FROM jobs WHERE job_id = 1", ())?;
//! assert_eq!(r.first_value("state"), Some(&"idle".into()));
//! reader.commit()?;
//!
//! // A fresh read observes the committed update.
//! let r = db.query("SELECT state FROM jobs WHERE job_id = 1")?;
//! assert_eq!(r.first_value("state"), Some(&"running".into()));
//! # Ok::<(), relstore::Error>(())
//! ```
//!
//! ## Storage: a row is reached from its id without a search
//!
//! Everything above the table — an index hit, an `UPDATE`, an undo, a
//! replayed log record — names a row by its [`RowId`], so that is what the
//! heap is organised around ([`heap`]):
//!
//! * **A slab, not a tree.** Row `n` lives in slot `n % 1024` of segment
//!   `n / 1024`; the only lookup structure is a small ordered directory of
//!   the segments that exist (130 k rows is 128 entries). An index lookup
//!   that yields 2,000 ids pays 2,000 slot reads, not 2,000 tree descents.
//! * **The newest version is in the slot.** A slot holds the row's
//!   `mvcc::VersionChain`: its newest [`mvcc::RowVersion`] inline — the
//!   one nearly every snapshot sees — and the superseded versions in a side
//!   vector that is empty, hence unallocated, for any row nobody has updated
//!   since the last vacuum. An `UPDATE` moves the inline version to the side
//!   and writes its replacement in place; vacuum hands the side vector back.
//! * **Ids are never reused — that is the invariant that makes it sound.**
//!   A table issues ids monotonically and recovery only ever raises the
//!   counter, so ids are dense where rows are live, a vacated slot is never
//!   wanted again, and `(key, RowId)` in an index can never come to mean a
//!   different row. A log record naming an id that would exhaust the counter
//!   is refused as [`Error::Corruption`].
//! * **Memory follows the live rows.** A segment is freed the moment its
//!   last slot is vacated (rollback of an insert, or vacuum dropping a
//!   tombstone), so a queue that churns through a million ids holds memory
//!   for its window, not for its history; ids far apart cost one segment
//!   each, never an allocation proportional to the id.
//!   `Table::approx_size` counts slots and
//!   directory as well as row bytes, so the claim is checkable.
//! * **Indexes keep two invariants.** An entry `(k, id)` exists exactly
//!   while some retained version of row `id` holds `k` — what lets an
//!   index-only `COUNT(*)` trust an entry — and, beside it, **an indexed
//!   TEXT value is stored once**: every retained version's non-NULL
//!   indexed TEXT value is the very string (`Arc::ptr_eq`) the first index
//!   on its column holds as the key. Inserting a key into an index hands
//!   back the string it already holds, and insert, update (of a changed
//!   key; an unchanged one keeps the old version's), log replay and
//!   `CREATE INDEX` over existing rows keep that one in the row. 100 k
//!   `job_history` rows over 50 owners hold 50 owner strings, so a probe
//!   that re-checks `owner = ?` on each row, or hashes it into a join,
//!   reads a string that is already in cache. `Table::check_consistency`
//!   verifies both.
//!
//! ## The typed session API
//!
//! [`Session`] is the primary client handle: the paper turns every
//! cluster-management action into a database action, so the SQL client
//! surface *is* the system's internal API and deserves real types. A session
//! binds parameters from plain Rust tuples, decodes rows into structs by
//! column name, and hands out RAII transactions:
//!
//! ```
//! use relstore::{Database, FromRow, Result, RowView};
//!
//! struct Job { id: i64, state: String, runtime: Option<f64> }
//!
//! impl FromRow for Job {
//!     fn from_row(row: &RowView<'_>) -> Result<Self> {
//!         Ok(Job {
//!             id: row.get("job_id")?,       // by interned column name
//!             state: row.get("state")?,
//!             runtime: row.get("runtime")?, // Option<T> maps SQL NULL to None
//!         })
//!     }
//! }
//!
//! let db = Database::new();
//! db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT, runtime DOUBLE)")?;
//!
//! let session = db.session();
//! let insert = db.prepare("INSERT INTO jobs VALUES (?, ?, ?)")?;
//! session.execute(&insert, (1i64, "idle", 60.0))?;           // tuple params
//! session.execute(&insert, (2i64, "idle", Option::<f64>::None))?;
//!
//! let idle: Vec<Job> = session.query_as(
//!     "SELECT * FROM jobs WHERE state = ? ORDER BY job_id", ("idle",))?;
//! assert_eq!(idle.len(), 2);
//! assert_eq!(idle[1].runtime, None);
//! let ids: Vec<i64> = session.query_scalars("SELECT job_id FROM jobs", ())?;
//! assert_eq!(ids.len(), 2);
//! # assert_eq!(idle[0].id, 1); assert_eq!(idle[0].state, "idle");
//! # Ok::<(), relstore::Error>(())
//! ```
//!
//! Statements are anything [`ToStatement`] accepts: SQL text (routed through
//! the statement cache) or a [`Prepared`] handle (lent as is — no lookup, no
//! clone).
//!
//! A [`Session`] — or the [`Transaction`] guard taken from one — is the one
//! way a statement enters the engine.
//! [`Database::execute`](db::Database::execute) /
//! [`query`](db::Database::query) are its no-parameter, autocommit
//! conveniences over the same path, and the `wire` server holds one
//! `Session` per connection, so embedded and remote statements run through
//! the same function.
//!
//! ## Transactions are RAII guards
//!
//! [`Database::transaction`] / [`Session::transaction`] return a
//! [`Transaction`] guard: a guard is its session with the transaction open.
//! It derefs to that [`Session`], so statements run through the session's
//! own methods; the guard adds only `commit()` and `rollback()`, which
//! consume it. Dropping it — on an early return, `?` propagation, or a
//! panic unwinding past it — rolls back and releases the transaction's
//! locks, as dropping any session with an open transaction does. SQL
//! transaction control through a guard acts as it does on a session:
//! `BEGIN` is an "already open" error, and `COMMIT` commits, after which
//! `commit()` is a "no open transaction" error. No raw transaction ids
//! cross the service layer.
//!
//! ```
//! use relstore::Database;
//!
//! let db = Database::new();
//! db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT)")?;
//! db.execute("INSERT INTO jobs VALUES (1, 'idle')")?;
//!
//! {
//!     let txn = db.transaction();
//!     txn.execute("UPDATE jobs SET state = ? WHERE job_id = ?", ("held", 1i64))?;
//!     // Guard dropped here without commit: the update rolls back.
//! }
//! let r = db.query("SELECT COUNT(*) FROM jobs WHERE state = 'idle'")?;
//! assert_eq!(r.scalar_int(), Some(1));
//!
//! let txn = db.transaction();
//! txn.execute("UPDATE jobs SET state = ? WHERE job_id = ?", ("held", 1i64))?;
//! txn.commit()?; // consumes the guard; the update is durable
//! # Ok::<(), relstore::Error>(())
//! ```
//!
//! ## Batched execution
//!
//! A scheduler pass writes N near-identical rows. Executing them one
//! autocommit statement at a time pays N catalog write guards and N commits
//! (N log appends, N forces); [`Session::execute_batch`] (on a session or
//! through a [`Transaction`] guard) runs all bindings of one prepared
//! statement under **one** guard — and, in autocommit mode, as **one**
//! transaction: one log record, one force — with the same all-or-nothing
//! outcome as the loop. How often the log is appended to is not the
//! batch's choice or the statement's: a transaction is one append, whatever
//! ran inside it.
//!
//! [`Session::query_batch`] (on a session or through a guard) is the read
//! path with N bindings instead of one — a single statement is its
//! one-binding case. The whole batch runs under **one** shared catalog
//! guard, **one** MVCC snapshot and **one** armed governor: the session's
//! deadline, cancellation token and row/byte budgets apply to all bindings
//! combined, so a budget bounds the request (a `wire` server's
//! `max_result_bytes` included), never each binding; the deadline and token
//! are also checked between bindings. Each binding is still one statement:
//! it counts once in `statements_executed`, lands one `stmt.select` sample
//! and one profile record.
//!
//! ```
//! use relstore::Database;
//!
//! let db = Database::new();
//! db.execute("CREATE TABLE matches (match_id INT PRIMARY KEY, job_id INT, machine_id INT)")?;
//! let insert = db.prepare("INSERT INTO matches VALUES (?, ?, ?)")?;
//!
//! let made = db.session().execute_batch(
//!     &insert,
//!     (0..32i64).map(|i| (i, 100 + i, 200 + i)),
//! )?;
//! assert_eq!(made, 32);
//! # assert_eq!(db.table_len("matches")?, 32);
//! # Ok::<(), relstore::Error>(())
//! ```
//!
//! ## Prepared statements and the statement cache
//!
//! Every CAS service call rides the "HTTP-to-SQL transformation" hot path, so
//! re-lexing and re-parsing per call is the engine's biggest avoidable cost.
//! Two mechanisms remove it:
//!
//! * **Prepared statements.** [`Database::prepare`](db::Database::prepare)
//!   parses SQL containing `?` placeholders once and returns a [`Prepared`]
//!   handle the session API executes directly. Bound values flow through
//!   planning and evaluation as context *after* parsing, so parameter text
//!   can never be re-interpreted as SQL (injection-safe by construction).
//!   A placeholder may also stand for the row count of a `LIMIT`
//!   (`… ORDER BY job_id LIMIT ?`), so one handle serves every page size;
//!   it must be bound to a non-negative integer — a negative, non-integer
//!   or NULL count is an [`Error::Type`], as is a missing binding.
//!
//! * **The statement cache.** The database keeps an internal LRU cache
//!   (default 256 entries, see
//!   [`Database::set_statement_cache_capacity`](db::Database::set_statement_cache_capacity))
//!   keyed by exact SQL text. SQL text handed to the session API and the
//!   plain [`Database::execute`](db::Database::execute) / [`query`](db::Database::query)
//!   calls consult it too, so even un-migrated call sites stop paying the
//!   parser once the cache is warm. Hits and misses are observable as
//!   `cache_hits` / `cache_misses` in [`OpStats`]; `statements_parsed`
//!   advances only on misses.
//!
//! ## Durability & recovery
//!
//! By default the engine is embedded and volatile: [`Database::new`] has no
//! log device, so a log record is counted (`wal_records`, `wal_bytes` — what
//! the simulation's cost model charges IO for) and dropped, which is exactly
//! right for the simulation workloads.
//! [`Database::open_durable`](db::Database::open_durable) instead writes the
//! WAL to a real on-disk log — length-prefixed, CRC-checksummed records
//! behind the pluggable [`LogDevice`] trait (see [`io`]) — and replays it on
//! open, so the catalog — tables, rows, and the indexes `CREATE INDEX`
//! added — survives a crash:
//!
//! ```
//! use relstore::Database;
//!
//! let path = std::env::temp_dir().join(format!("relstore_doc_{}.wal", std::process::id()));
//! # let _ = std::fs::remove_file(&path);
//! {
//!     let db = Database::open_durable(&path)?;
//!     db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT)")?;
//!     db.execute("INSERT INTO jobs VALUES (1, 'idle')")?;
//!     // The process "crashes" here: the Database is dropped without a
//!     // checkpoint or any explicit shutdown.
//! }
//! let db = Database::open_durable(&path)?;
//! assert_eq!(db.table_len("jobs")?, 1);
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The moving parts:
//!
//! * **[`DurabilityPolicy`]** chooses when the log fsyncs:
//!   [`Always`](DurabilityPolicy::Always) (force-at-commit, the
//!   `open_durable` default), [`Batch(n)`](DurabilityPolicy::Batch) (sync
//!   every `n` commits — bounded loss, group-commit throughput), or
//!   [`Checkpoint`](DurabilityPolicy::Checkpoint) (sync only at checkpoints
//!   and explicit [`flush_log`](db::Database::flush_log) calls).
//! * **A log record is a committed transaction.** A transaction's changes
//!   — row changes and DDL alike — are framed at commit as one
//!   [`wal::LogRecord::Txn`]: one checksummed frame, one device append, then
//!   the policy's sync. A transaction that does not commit never reaches the
//!   log, so recovery has nothing to filter: it replays the last
//!   [`Checkpoint`](wal::LogRecord::Checkpoint) image and then every `Txn`
//!   after it, in order. Atomicity is by frame — a transaction is on the
//!   device whole or not at all. (Segment version 3; earlier versions framed
//!   each change between `Begin` and `Commit` records. There is no upgrade
//!   path because no such log exists outside a test's temporary directory:
//!   a segment of another version is refused as [`Error::Corruption`].) A
//!   transaction whose frame would exceed what the decoder accepts
//!   (256 MiB) fails its commit with [`Error::ResourceExhausted`] and rolls
//!   back, rather than write a log the next open would refuse.
//! * **Torn tails are repaired; corruption is refused.** A crash mid-append
//!   leaves a partial record at the tail — a transaction that was never
//!   acknowledged: recovery truncates it and yields
//!   exactly the committed prefix (`recovery_truncated_bytes` in [`OpStats`]
//!   records how much). A checksum mismatch *before* the tail is damage, not
//!   a torn write — recovery fails loudly with [`Error::Corruption`] rather
//!   than guess; it never panics and never silently drops committed data.
//! * **A failed append or fsync poisons the writer.** If the device errors,
//!   the commit that needed it returns [`Error::Io`] and every later commit
//!   fails too — the engine never acknowledges a commit whose bytes may not
//!   have reached disk. Reopening the database recovers the durable prefix.
//! * **The log is the device.** The engine keeps no decoded copy of the
//!   log: a transaction's frame is written onto the device at commit (the
//!   change list it is encoded from is the undo list the transaction needed
//!   anyway, and goes with it), decoded once when a database opens
//!   (`wal::recover`), and dropped before the first statement runs. There is one way to recover — open over a
//!   [`LogDevice`]; tests that crash and reopen do it over a [`MemDevice`]
//!   holding [`durable_log_bytes`](db::Database::durable_log_bytes). A
//!   change carries what replay reads: an `Update` is the row's new image,
//!   a `Delete` its id (rollback needs neither — it pops the in-memory
//!   version chain).
//! * **Checkpoints rotate atomically.** [`Database::checkpoint`](db::Database::checkpoint)
//!   writes the compacted snapshot to a fresh segment and swaps it in with an
//!   atomic rename, so a crash mid-checkpoint always leaves one intact log:
//!   either the full old one or the complete new one.
//! * **Checkpoint image + log suffix is the one durable form.** Every table
//!   lives in memory; an open replays the last checkpoint's image and the
//!   transactions committed since, so recovery time follows the live
//!   data plus whatever was logged after the last checkpoint. Nothing
//!   checkpoints on its own yet — what grows without bound is the log
//!   *between* checkpoints, so a long-running service calls
//!   [`checkpoint`](db::Database::checkpoint) from its maintenance tick.
//! * **Fault injection is built in.** [`Failpoints`]
//!   ([`Database::failpoints`](db::Database::failpoints)) arms named IO
//!   failure modes — short writes, torn writes, fsync errors, crashes — for
//!   deterministic crash-recovery tests; disarmed checks are a single atomic
//!   load.
//!
//! ## Resource governance
//!
//! A cluster-management substrate must stay responsive under overload: a
//! runaway query, an unbounded result set or an abandoned transaction may
//! not take the engine down with it. Every [`Session`] therefore carries a
//! [`Governance`] ([`Session::with_governance`]) that applies to every
//! statement it runs — single or batched, autocommit or through its
//! [`Transaction`] guard:
//!
//! * **Statement deadlines & cooperative cancellation** —
//!   [`Governance::deadline`] bounds one statement's wall-clock time and
//!   [`Governance::cancel`] lets any thread stop it; every executor loop
//!   (scan, filter, join, sort boundary, aggregate, batch) checks both
//!   every `govern::DEFAULT_CHECK_INTERVAL` rows (tunable via
//!   [`Governance::check_interval`]) and bails with [`Error::Timeout`]
//!   (kind [`TimeoutKind::Statement`], class `Logic`). A cancelled
//!   autocommit write rolls back cleanly — never a partial apply.
//! * **Result budgets** — [`Governance::max_rows`] / [`Governance::max_bytes`]
//!   cap what a statement may materialize, enforced engine-side *before*
//!   response pages are built; exceeding one fails with
//!   [`Error::ResourceExhausted`] (class `Logic`).
//! * **Bounded lock waits** — with a non-zero [`Governance::lock_wait`]
//!   (the `wire` server sets its `ServerConfig::lock_wait_timeout` there) a
//!   write-write conflict waits for the holder instead of failing
//!   instantly, expiring into [`Error::Timeout`] of kind
//!   [`TimeoutKind::LockWait`] — class **Retryable**, so
//!   [`Session::with_retries`] handles it transparently. The default is
//!   `Duration::ZERO`: fail fast with [`Error::LockConflict`].
//! * **Idle-transaction reaping** —
//!   [`Database::reap_idle`](db::Database::reap_idle) aborts transactions
//!   idle past a threshold, releasing their locks and un-pinning the vacuum
//!   horizon (the `wire` server runs it periodically).
//!
//! The disarmed path costs one branch per row; counters
//! (`statements_timed_out`, `statements_over_budget`, `lock_waits`,
//! `lock_wait_timeouts`, `txns_reaped`) and the `horizon_lag` high-water
//! gauge in [`OpStats`] make enforcement observable.
//!
//! ```
//! use relstore::{Database, Error, Governance};
//! use std::time::Duration;
//!
//! let db = Database::new();
//! db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT)")?;
//! let ins = db.prepare("INSERT INTO jobs VALUES (?, 'idle')")?;
//! db.session().execute_batch(&ins, (0..50i64).map(|i| (i,)))?;
//!
//! // A result-row budget stops a runaway scan before it materializes.
//! let mut session = db.session().with_governance(Governance {
//!     max_rows: Some(10),
//!     deadline: Some(Duration::from_secs(30)),
//!     ..Governance::default()
//! });
//! let err = session.query("SELECT * FROM jobs", ()).unwrap_err();
//! assert!(matches!(err, Error::ResourceExhausted(_)));
//!
//! // Point reads under the caps are unaffected.
//! let r = session.query("SELECT * FROM jobs WHERE job_id = ?", (7i64,))?;
//! assert_eq!(r.len(), 1);
//! assert!(db.stats().statements_over_budget >= 1);
//! # Ok::<(), relstore::Error>(())
//! ```
//!
//! ## Observability
//!
//! The engine applies the paper's own argument to itself: if middleware
//! state belongs in a relational engine because it can be *queried*, then
//! the engine's internal state should be queryable too. The [`obs`] module
//! is the engine's one metrics registry. It keeps the [`OpStats`] counters
//! beside lock-free log-bucketed latency histograms (per statement kind,
//! plus WAL fsync, lock wait, commit, checkpoint and vacuum) that hold an
//! exact count and sum each, so an event that is timed is counted once: the
//! `statements_executed`, `wal_fsyncs`, `wal_fsync_nanos`, `lock_wait_nanos`
//! and `checkpoints` counters are read off those histograms. It also keeps a
//! per-statement profile on every cached/prepared statement (a
//! `pg_stat_statements` analogue bounded by the statement-cache LRU; what
//! evicted entries had recorded is kept as one `'(evicted)'` row). Like
//! `pg_stat_statements`, a profile is kept per statement *shape*: the
//! statement cache keys a SELECT, INSERT, UPDATE or DELETE written without
//! a `?` by its text with each literal that does not follow a `-` lifted
//! into a `?` slot (the literal's kind stays in the key), so the ad-hoc texts
//! `… WHERE job_id = 7` and `… WHERE job_id = 8` are one entry, parsed
//! once, and one `rel_statements` row whose `sql` is the shape. A shape
//! hit counts in `cache_hits` and not in `statements_parsed`; DDL,
//! `EXPLAIN` and transaction control keep their literals. There is also a
//! fixed-capacity slow-query ring with a wait breakdown
//! ([`Database::set_slow_query_threshold`](db::Database::set_slow_query_threshold);
//! disarmed by default and then one relaxed load per statement), and an
//! event ring of coarse spans (checkpoints, vacuum sweeps, recovery).
//!
//! All of it is served through the normal SELECT path as **virtual system
//! tables** — `rel_stats`, `rel_histograms`, `rel_statements`,
//! `rel_slow_queries`, `rel_events` — visible to the embedded API, every
//! [`Session`], and wire clients alike, with zero new protocol messages. A
//! real table of the same name shadows its system table. Raw access for
//! in-process monitors: [`Database::obs`](db::Database::obs),
//! [`Database::statement_profiles`](db::Database::statement_profiles).
//!
//! ```
//! use relstore::{Database, Value};
//!
//! let db = Database::new();
//! db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT)")?;
//! let session = db.session();
//! let ins = db.prepare("INSERT INTO jobs VALUES (?, 'idle')")?;
//! for i in 0..10i64 {
//!     session.execute(&ins, (i,))?;
//! }
//!
//! // The profile table is plain SQL: ask how often the insert ran.
//! let r = session.query(
//!     "SELECT calls, total_rows FROM rel_statements WHERE sql = ?",
//!     ("INSERT INTO jobs VALUES (?, 'idle')",),
//! )?;
//! assert_eq!(r.first_value("calls"), Some(&Value::Int(10)));
//! assert_eq!(r.first_value("total_rows"), Some(&Value::Int(10)));
//!
//! // Latency histograms are queryable the same way.
//! let h = db.query("SELECT count FROM rel_histograms WHERE name = 'stmt.insert'")?;
//! assert_eq!(h.first_value("count"), Some(&Value::Int(10)));
//! # Ok::<(), relstore::Error>(())
//! ```
//!
//! ## Query planning
//!
//! SELECT statements run through a cost-based planner ([`plan`]). `ANALYZE
//! [table]` scans each table once and stores per-column statistics — row
//! count, distinct-value and NULL counts, min/max — in the catalog; the
//! planner uses them to pick each table's **access path** (primary-key
//! point lookup, secondary-index lookup, range scan, or full scan), to
//! **reorder inner equi-joins** so the smallest estimated right side is
//! joined first, and to pick each join's **strategy**, one of three:
//!
//! * **hash join** — build a map of the right table's rows on its join
//!   column, once per execution and by reference, and probe it with the
//!   accumulated left rows;
//! * **index-nested-loop join** — when an index covers the right-hand join
//!   column, probe it once per left row: no build side;
//! * **nested-loop join** — for a non-equi or compound `ON`, evaluate the
//!   predicate over every row pair.
//!
//! The two equi-join strategies are costed in rows touched — hash ≈ build
//! rows + left rows; index loop ≈ left rows × (1 + right rows ÷ distinct
//! keys of the probed column) — so the index loop wins when the left side
//! is no larger than the number of distinct keys it probes. A tie goes to
//! the index loop: a prepared statement is planned once and its plan
//! outlives the table sizes it was costed on; the index loop's cost does
//! not depend on the right table's size, whereas a hash plan chosen on a
//! small table degrades linearly as the table grows. (A DOUBLE join key on
//! either side keeps the join on the hash: `=` and index order disagree on
//! NaN.) Without statistics the planner still runs on schema-derived
//! defaults; stale statistics can only mis-cost a plan, never change its
//! results — index entries cover every retained row version, so the index
//! loop re-checks the join equality on the version its snapshot sees.
//! Scalar and `IN (SELECT …)` subqueries in `WHERE` execute once per
//! statement and splice in as literals, with SQL's three-valued `IN`
//! semantics preserved.
//!
//! Every table read — a single-table `SELECT`, each input of a join, the
//! rows an `UPDATE` or `DELETE` matches — takes its access path from one
//! chooser (`plan::choose_access`) and is read by one streamer.
//! [`Database::set_force_scan`](db::Database::set_force_scan) is read by
//! that chooser alone, so it pins every `SELECT`'s table reads to full
//! scans: the base table and every join input, in execution and in
//! `EXPLAIN` / `EXPLAIN ANALYZE` alike. (It leaves the join strategies and
//! `UPDATE` / `DELETE` matching as they are: an index-loop join still
//! probes its index once per left row.)
//!
//! **What flows between the operators is references.** An access path
//! streams rows borrowed from the table heap; a join step hands on *tuples*
//! — one `&Row` per table joined so far, appended to a flat `Vec<&Row>` —
//! so joining copies a pointer per table per tuple and never a value. Every
//! expression (pushed-down and residual filters, `ON` predicates, sort
//! keys, grouping columns, aggregate inputs, projections) is *bound* once
//! per execution ([`Expr::bind`](predicate::Expr::bind)): each column
//! reference becomes a (tuple slot, column ordinal) pair, found by the one
//! resolver (`predicate::resolve_column`: a bare name must belong to
//! exactly one table in scope, else it is the *ambiguous column* type
//! error), and evaluation borrows out of the rows without comparing a name
//! or cloning a value. Aggregates fold straight off the references — a
//! `COUNT`/`SUM`/`GROUP BY` over a join or a scan allocates one row per
//! group, integer `SUM`s are exact (`i128`; a total beyond `INT` is a type
//! error, not a rounded number) — and a non-aggregate select allocates
//! only the rows that survive sort and `LIMIT`. When the planner reorders
//! joins, `SELECT *` keeps the syntactic column order by listing the tuple
//! slots in that order; no value moves. A hash join's build side is
//! references too, so the executor allocates only the rows it returns. The
//! `rows_materialized` counter in `rel_stats` counts exactly those, next
//! to `rows_read`, so "how much did this report copy" is a query.
//! The governor's contract is unchanged by rows not being copied: every
//! row visited is a cancellation point and every tuple a join produces is
//! charged to the row/byte budgets at the size its values would have as
//! one row.
//!
//! **`ORDER BY` without a sort.** A single-table `SELECT … ORDER BY c LIMIT
//! k` (literal or `LIMIT ?`) can be served by walking the index on `c` in
//! key order — ascending or descending — applying visibility and the
//! `WHERE` clause to each row and stopping at `k` survivors: nothing is
//! sorted and nothing past the head of the order is read. `c` must be the
//! only sort key, indexed (the primary key counts), unable to hold NULL
//! (`NOT NULL` or the primary key — NULL keys are not indexed) and not
//! DOUBLE; the statement must not aggregate. The walk is chosen by cost, in
//! rows touched, against the path the `WHERE` clause alone would drive:
//! with `driven` the rows that path reads (exactly the index posting list
//! when the clause pins an indexed column to a bound key, the table for a
//! scan), the walk is expected to read `k × rows ÷ driven` and wins when
//! that is *less* than `driven`. So the oldest 180 of 36,000 idle jobs are
//! read off the primary-key index, while `WHERE machine_id = ? ORDER BY
//! match_id LIMIT 1` over a machine's one or two matches stays an index
//! lookup. The estimate assumes the survivors are spread evenly through
//! the order; when they are not, the walk gives up after `driven` rows and
//! the other path runs, so the worst case is about twice the old plan.
//! Results — tie order included — are those of scan, stable sort, truncate
//! ([`Database::set_force_scan`](db::Database::set_force_scan) pins that
//! path; `tests/prop_planner.rs` compares the two row for row). `EXPLAIN`
//! shows the step as `ordered walk of t.c (asc), stop after k`, the output
//! step loses its `sort`, and under `EXPLAIN ANALYZE` the access step's
//! `actual_rows` is the number of rows the walk visited.
//!
//! **Aggregates fold where the data already is.** Two aggregate shapes
//! skip work the general path does, with the same results, counters,
//! governor ticks and budget charges:
//!
//! * a `GROUP BY` whose columns all belong to the table of the *last* join
//!   step, when that step is a hash join, is a **groupjoin**: the probe
//!   folds each match into its group as it finds it — no joined tuple is
//!   kept, and each build row is mapped to its group once, so no group key
//!   is hashed per matched row. `EXPLAIN` appends `, fold GROUP BY into
//!   build rows` to that `HashJoin` step; under `EXPLAIN ANALYZE` its
//!   `actual_rows` are the matches folded. `usage_by_owner`'s
//!   `history ⋈ users GROUP BY users.name` is the case it is for.
//! * `SELECT COUNT(*) FROM t WHERE c = <literal or ?>` on the point lookup
//!   of `c` **counts the posting list**: an index entry `(k, id)` exists
//!   only while a retained version of `id` holds `k`, so a row with one
//!   version counts iff that version is visible, decided from its stamps
//!   without reading the row; a row with older versions is resolved and
//!   its key re-checked. `EXPLAIN` appends `, index-only count` to the
//!   access step; under `EXPLAIN ANALYZE` its `actual_rows` are the rows
//!   counted. Another conjunct, another aggregate or a GROUP BY takes the
//!   general path.
//!
//! `EXPLAIN <select>` renders the chosen plan as an ordinary result set —
//! embedded, via every [`Session`], and over the wire alike — and
//! `EXPLAIN ANALYZE` additionally executes the statement and annotates
//! each operator with actual row counts and wall time. A join's base is
//! never collected: the first join step reads it straight off its access
//! path, so the base's `actual_rows` are still the rows that passed its
//! pushdown, but the time spent reading them is reported in the first join
//! step's `time_us`, and the base step's reads 0. Likewise the residual
//! filter runs as the last producer makes its tuples, so its time is that
//! producer's and the `Filter` step's `time_us` reads 0. Prepared statements
//! cache their plan alongside the parsed AST; DDL, `ANALYZE`, and
//! planner-knob changes invalidate cached plans.
//! Collected statistics are queryable as the `rel_table_stats` virtual
//! table.
//!
//! ```
//! use relstore::{Database, Value};
//!
//! let db = Database::new();
//! db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, owner TEXT, state TEXT)")?;
//! db.execute("CREATE INDEX ON jobs (state)")?;
//! db.execute("CREATE TABLE runs (run_id INT PRIMARY KEY, job_id INT)")?;
//! for i in 0..50i64 {
//!     db.execute(&format!("INSERT INTO jobs VALUES ({i}, 'astro', 'running')"))?;
//!     db.execute(&format!("INSERT INTO runs VALUES ({i}, {i})"))?;
//! }
//! db.execute("ANALYZE")?; // refresh planner statistics for every table
//!
//! // A point predicate on the primary key plans as a point lookup.
//! let plan = db.query("EXPLAIN SELECT * FROM jobs WHERE job_id = 7")?;
//! assert_eq!(plan.column_names(), vec!["step", "operator", "detail", "est_rows"]);
//! assert_eq!(plan.first_value("operator"), Some(&Value::Text("Access(jobs)".into())));
//!
//! // EXPLAIN ANALYZE executes too: actual rows ride along the estimates.
//! let plan = db.query(
//!     "EXPLAIN ANALYZE SELECT * FROM jobs JOIN runs ON jobs.job_id = runs.job_id",
//! )?;
//! assert!(plan.column_names().contains(&"actual_rows"));
//!
//! // Aggregates that fold where the data is say so.
//! let detail = |sql: &str, step: usize| -> relstore::Result<String> {
//!     Ok(db.query(sql)?.rows[step].get(2).to_string())
//! };
//! let counted = detail("EXPLAIN SELECT COUNT(*) FROM jobs WHERE state = 'running'", 0)?;
//! assert!(counted.ends_with(", index-only count'"), "{counted}");
//! let folded = detail(
//!     "EXPLAIN SELECT runs.job_id, COUNT(*) FROM jobs JOIN runs ON jobs.job_id = runs.job_id \
//!      GROUP BY runs.job_id",
//!     1,
//! )?;
//! assert!(folded.ends_with(", fold GROUP BY into build rows'"), "{folded}");
//!
//! // The statistics themselves are a virtual table.
//! let stats = db.query(
//!     "SELECT row_count FROM rel_table_stats WHERE table_name = 'jobs' AND column_name = 'job_id'",
//! )?;
//! assert_eq!(stats.first_value("row_count"), Some(&Value::Int(50)));
//! # Ok::<(), relstore::Error>(())
//! ```
//!
//! ## Values
//!
//! The five types (INT, DOUBLE, TEXT, BOOL, TIMESTAMP) follow one set of
//! rules in every clause, index, sort and aggregate:
//!
//! * **Ordering across types.** INT, DOUBLE and TIMESTAMP are one numeric
//!   family compared by exact value: an INT against a DOUBLE compares the
//!   integer with the double exactly, never through a rounding `f64`, and
//!   `-0.0 = 0.0`. TEXT and BOOL compare only with their own type: `'1' =
//!   1` is false and `'1' < 1` is unknown. A NaN equals itself and is
//!   unordered against everything else. Index keys and `ORDER BY` use one
//!   total order: NULL, then BOOL, then numbers, then TEXT.
//! * **NULL.** A comparison with NULL is unknown, `AND` / `OR` / `NOT`
//!   are three-valued, arithmetic with a NULL operand is NULL, and
//!   aggregates other than `COUNT(*)` skip NULL inputs.
//! * **Overflow.** INT `+`, `-`, `*` and `/` are exact or fail: a result
//!   outside INT (`i64::MAX + 1`, `i64::MIN / -1`) is the typed,
//!   non-retryable [`Error::Type`] an overflowing `SUM` raises, so the
//!   statement applies nothing. An operation with a DOUBLE or TIMESTAMP
//!   operand is computed in DOUBLE. Literals reach both ends of INT
//!   (`-9223372036854775808` is `i64::MIN`) and take exponents (`1e308`);
//!   a literal past either end, or an infinite one (`1e309`), is a parse
//!   error.
//! * **Division by zero** is NULL, for INT and DOUBLE alike. This is kept
//!   on purpose: NULL already means "no answer", and an error here would
//!   change what existing statements return.
//!
//! ## Errors
//!
//! [`Error`] carries a coarse taxonomy ([`Error::class`]): **retryable**
//! conditions (write-write lock conflicts, lock-wait timeouts,
//! [checkpoint-busy](db::Database::checkpoint)) vs **logic** errors (bad
//! SQL, type/arity mismatches, statement deadlines, exhausted budgets) vs
//! **constraint** violations vs **internal**
//! failures — so service layers branch on [`Error::is_retryable`] (or wrap
//! the whole attempt in [`Session::with_retries`]) instead of matching
//! message strings. Since MVCC, only writers can see a retryable conflict.
//!
//! The taxonomy crosses the network unchanged: the `wire` crate's protocol
//! transports the [`Error`] variant and class in its error frames, so a
//! remote caller retries a write-write conflict exactly like an embedded
//! one. Transport failures themselves surface as [`Error::Net`] (produced
//! only by the wire layer), and the server's traffic shows up in
//! [`OpStats`] as `net_bytes_in` / `net_bytes_out` / `frames_decoded` plus
//! the `active_connections` high-water gauge.

#![warn(missing_docs)]

mod convert;
mod db;
mod error;
pub mod exec;
mod govern;
mod hash;
pub mod heap;
mod index;
pub mod io;
pub mod mvcc;
pub mod obs;
pub mod plan;
mod predicate;
mod schema;
mod session;
pub mod sql;
pub mod table;
mod tuple;
mod txn;
mod value;
pub mod wal;

pub use convert::{FromRow, FromValue, IntoParams, RowView, ToStatement};
pub use db::{Database, ExecResult, Prepared};
pub use error::{Error, ErrorClass, Result, TimeoutKind};
pub use govern::{Governance, Governor};
pub use io::{DurabilityPolicy, FailAction, Failpoints, FsDevice, LogDevice, MemDevice};
pub use mvcc::{RowVersion, Snapshot};
pub use obs::{
    Event, HistogramSnapshot, Observability, OpStats, SlowQueryEntry, StmtKind,
    StmtProfileSnapshot,
};
pub use exec::QueryResult;
pub use plan::{AccessPath, AccessPlan, ColumnStats, SelectPlan, TableStats};
pub use predicate::{CmpOp, Expr};
pub use schema::{Column, Schema};
pub use session::{retry_with_backoff, retry_with_backoff_deadline, Session, Transaction};
pub use tuple::{Row, RowId};
pub use value::{DataType, Value};
pub use wal::TxnId;
