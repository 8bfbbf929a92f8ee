//! The typed client surface: [`Session`] and the RAII [`Transaction`] guard.
//!
//! The paper's thesis makes the SQL client surface the system's internal API
//! — every cluster-management action is a database action — so this surface
//! is designed to be used everywhere, not just at a console:
//!
//! * parameters bind from plain Rust tuples ([`IntoParams`]), so a service
//!   writes `session.execute(&stmt, (job_id, now_ms))`;
//! * rows decode into structs by column *name* ([`FromRow`] over
//!   [`crate::RowView`]), so a projection reorder cannot silently misassign
//!   fields the way positional indexing does;
//! * a transaction guard is its session with the transaction open: a
//!   [`Transaction`] derefs to a [`Session`], so statements run through the
//!   same seven methods; [`Transaction::commit`] consumes the guard, and
//!   dropping it — on early return or mid-panic — rolls back;
//! * batches ([`Session::execute_batch`], [`Session::query_batch`]) run N
//!   bindings of one prepared statement under a single catalog guard and
//!   one governor (and, in autocommit mode, one commit or one snapshot),
//!   for scheduler-sweep-shaped bursts.

use crate::convert::{FromRow, FromValue, IntoParams, ToStatement};
use crate::db::{Database, ExecCtx, ExecResult, Prepared};
use crate::error::{Error, Result};
use crate::exec::QueryResult;
use crate::govern::Governance;
use crate::sql::ast::Statement;
use crate::wal::TxnId;
use std::cell::Cell;
use std::ops::Deref;
use std::time::{Duration, Instant};

/// Runs `f` up to `attempts` times, sleeping with capped exponential
/// backoff (50 µs doubling to 2 ms) between attempts, retrying when it
/// fails with a **retryable** error
/// ([`ErrorClass::Retryable`](crate::ErrorClass)). Any other error, or
/// exhausting the attempts, returns the last error.
///
/// This is the engine's one retry policy: [`Session::with_retries`] applies
/// it embedded, and the `wire` crate's client and pool apply it remotely
/// (the wire protocol transports error classes, so retryability is
/// transport-agnostic).
///
/// Durability failures are deliberately **not** retryable: an
/// [`Error::Io`] from a failed fsync poisons the log writer (retrying
/// could acknowledge a commit whose bytes never reached disk), and
/// [`Error::Corruption`] reports damaged on-disk state that no retry can
/// repair.
pub fn retry_with_backoff<T>(attempts: usize, f: impl FnMut() -> Result<T>) -> Result<T> {
    retry_with_backoff_deadline(attempts, None, f)
}

/// As [`retry_with_backoff`], honouring an optional **overall wall-clock
/// deadline across attempts**: once the budget cannot cover the next
/// backoff sleep, retrying stops and the last retryable error is returned.
/// The first attempt always runs — a zero budget degrades to "try once".
///
/// This is the shared implementation behind [`Session::with_retries`] and
/// the wire client/pool `with_retries`, so embedded and remote callers get
/// identical overload behaviour: a caller-facing operation never spins in
/// a retry loop long past the time its own caller was willing to wait.
pub fn retry_with_backoff_deadline<T>(
    attempts: usize,
    overall: Option<Duration>,
    mut f: impl FnMut() -> Result<T>,
) -> Result<T> {
    const BASE_BACKOFF: Duration = Duration::from_micros(50);
    const MAX_BACKOFF: Duration = Duration::from_millis(2);
    let attempts = attempts.max(1);
    let deadline = overall.map(|d| Instant::now() + d);
    let mut backoff = BASE_BACKOFF;
    let mut last_err = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            if let Some(deadline) = deadline {
                // Stop when the remaining budget cannot cover the sleep.
                if Instant::now() + backoff >= deadline {
                    break;
                }
            }
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(MAX_BACKOFF);
        }
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_retryable() => last_err = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last_err.expect("at least one attempt ran"))
}

/// A lightweight client handle over a [`Database`].
///
/// A session is a database reference, an optional open transaction id and
/// its statement limits; open one per request. All typed access —
/// tuple-bound parameters, [`FromRow`] decoding, batches — goes through it.
/// SQL-text transaction control (`BEGIN` / `COMMIT` / `ROLLBACK`) is
/// honoured for console-style callers; programmatic callers should prefer
/// the [`Session::transaction`] RAII guard. A session dropped with an open
/// transaction rolls it back.
///
/// The statement methods take `&self`: the open transaction lives in a
/// [`Cell`], so a session is `Send` but not `Sync`.
#[derive(Debug)]
pub struct Session<'a> {
    db: &'a Database,
    txn: Cell<Option<TxnId>>,
    governance: Governance,
}

impl<'a> Session<'a> {
    /// Creates a session over `db` with no open transaction and no
    /// statement limits.
    pub fn new(db: &'a Database) -> Self {
        Session {
            db,
            txn: Cell::new(None),
            governance: Governance::NONE,
        }
    }

    /// The underlying database.
    pub fn database(&self) -> &'a Database {
        self.db
    }

    /// Sets the per-statement limits (deadline, cancellation token, row and
    /// byte budgets, lock-wait bound) applied to every statement this
    /// session executes; see [`Governance`]. Returns `self` for chaining.
    pub fn with_governance(mut self, governance: Governance) -> Self {
        self.governance = governance;
        self
    }

    /// Sets this session's statement limits in place.
    pub fn set_governance(&mut self, governance: Governance) {
        self.governance = governance;
    }

    /// The session's current statement limits.
    pub fn governance(&self) -> &Governance {
        &self.governance
    }

    /// True when a transaction is open on this session.
    pub fn in_transaction(&self) -> bool {
        self.txn.get().is_some()
    }

    fn ctx(&self) -> ExecCtx<'_> {
        ExecCtx {
            txn: self.txn.get(),
            gov: &self.governance,
        }
    }

    /// Ends the open transaction: commits it, or rolls it back. With none
    /// open this is a type error.
    fn end(&self, commit: bool) -> Result<()> {
        let txn = self
            .txn
            .take()
            .ok_or_else(|| Error::type_err("no open transaction"))?;
        if commit {
            self.db.commit(txn)
        } else {
            self.db.rollback(txn)
        }
    }

    /// Executes one statement — SQL text or a prepared handle — binding
    /// `params` positionally to its `?` placeholders.
    ///
    /// `BEGIN` / `COMMIT` / `ROLLBACK` statements drive the session's
    /// transaction; every other statement runs inside the open transaction
    /// if there is one, else in autocommit mode.
    pub fn execute<S: ToStatement, P: IntoParams>(
        &self,
        stmt: S,
        params: P,
    ) -> Result<ExecResult> {
        let prepared = stmt.to_prepared(self.db)?;
        let values = params.into_params();
        match prepared.statement() {
            Statement::Begin | Statement::Commit | Statement::Rollback if !values.is_empty() => {
                Err(Error::type_err(format!(
                    "transaction-control statements take no parameters, got {}",
                    values.len()
                )))
            }
            Statement::Begin => {
                if self.in_transaction() {
                    return Err(Error::type_err("transaction already open"));
                }
                self.txn.set(Some(self.db.begin()));
                Ok(ExecResult::Ack)
            }
            Statement::Commit => self.end(true).map(|()| ExecResult::Ack),
            Statement::Rollback => self.end(false).map(|()| ExecResult::Ack),
            _ => self.db.run(self.ctx(), &prepared, &values),
        }
    }

    /// Executes a SELECT and returns its rows.
    pub fn query<S: ToStatement, P: IntoParams>(
        &self,
        stmt: S,
        params: P,
    ) -> Result<QueryResult> {
        self.execute(stmt, params)?.query()
    }

    /// Executes a SELECT and decodes every row into `T`.
    pub fn query_as<T: FromRow, S: ToStatement, P: IntoParams>(
        &self,
        stmt: S,
        params: P,
    ) -> Result<Vec<T>> {
        self.query(stmt, params)?.decode()
    }

    /// Executes a SELECT and decodes the first row, if any.
    pub fn query_one<T: FromRow, S: ToStatement, P: IntoParams>(
        &self,
        stmt: S,
        params: P,
    ) -> Result<Option<T>> {
        self.query(stmt, params)?.decode_first()
    }

    /// Executes a single-column SELECT and decodes each row's value —
    /// the typed form of "give me the list of ids".
    pub fn query_scalars<T: FromValue, S: ToStatement, P: IntoParams>(
        &self,
        stmt: S,
        params: P,
    ) -> Result<Vec<T>> {
        let result = self.query(stmt, params)?;
        result.views().map(|v| v.get_at(0)).collect()
    }

    /// Executes a prepared DML statement once per binding under one catalog
    /// guard — same stored data as the statement loop, different locking
    /// cadence. The batch is one governed unit: the session's limits span
    /// all bindings.
    ///
    /// Runs inside the session's open transaction if there is one (a
    /// mid-batch error leaves the bindings already applied pending, like a
    /// failed statement in a loop); otherwise as one implicit transaction
    /// that applies entirely or not at all.
    pub fn execute_batch<P: IntoParams>(
        &self,
        stmt: &Prepared,
        bindings: impl IntoIterator<Item = P>,
    ) -> Result<usize> {
        let bindings: Vec<Vec<_>> = bindings.into_iter().map(IntoParams::into_params).collect();
        self.db.run_batch(self.ctx(), stmt, &bindings)
    }

    /// Executes a prepared SELECT once per binding under one shared catalog
    /// guard, one MVCC snapshot and one armed governor — the pipelined form
    /// of a point-select loop, results in binding order.
    ///
    /// The batch is one governed unit: the session's deadline, cancellation
    /// token and row/byte budgets apply to all bindings combined (a budget
    /// is per request, not per binding), and the deadline and token are
    /// also checked between bindings. Each binding still counts as one
    /// statement — in `statements_executed`, the `stmt.select` histogram
    /// and the statement's profile.
    pub fn query_batch<P: IntoParams>(
        &self,
        stmt: &Prepared,
        bindings: impl IntoIterator<Item = P>,
    ) -> Result<Vec<QueryResult>> {
        let bindings: Vec<Vec<_>> = bindings.into_iter().map(IntoParams::into_params).collect();
        let mut results = Vec::with_capacity(bindings.len());
        self.db.run_read(self.ctx(), stmt, &bindings, |q| results.push(q))?;
        Ok(results)
    }

    /// Begins an explicit transaction and returns its RAII guard: a session
    /// of its own, under this session's statement limits, with the
    /// transaction open. While the guard lives this session is mutably
    /// borrowed, so all statements go through the guard; commit consumes
    /// it, drop rolls back.
    ///
    /// Fails if a SQL-level `BEGIN` transaction is already open.
    pub fn transaction(&mut self) -> Result<Transaction<'_>> {
        if self.in_transaction() {
            return Err(Error::type_err(
                "a SQL-level transaction is already open on this session",
            ));
        }
        Ok(Transaction::begin(self.db, self.governance.clone()))
    }

    /// Runs `f` up to `attempts` times, retrying — with capped exponential
    /// backoff — when it fails with a **retryable** error
    /// ([`ErrorClass::Retryable`](crate::ErrorClass): a write-write lock
    /// conflict or a checkpoint-busy condition). Any other error, or
    /// exhausting the attempts, returns the last error to the caller.
    ///
    /// With MVCC, reads never need this — only writers can still conflict —
    /// so wrap the *write* path of a service call:
    ///
    /// ```
    /// # use relstore::Database;
    /// # let db = Database::new();
    /// # db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT)")?;
    /// let mut session = db.session();
    /// let updated = session.with_retries(3, |s| {
    ///     let txn = s.transaction()?;
    ///     let n = txn
    ///         .execute("UPDATE jobs SET state = ? WHERE state = ?", ("held", "idle"))?
    ///         .affected();
    ///     txn.commit()?;
    ///     Ok(n)
    /// })?;
    /// # assert_eq!(updated, 0);
    /// # Ok::<(), relstore::Error>(())
    /// ```
    ///
    /// `f` must leave no transaction open on failure (the RAII guard's
    /// rollback-on-drop gives this for free).
    pub fn with_retries<T>(
        &mut self,
        attempts: usize,
        mut f: impl FnMut(&mut Session<'a>) -> Result<T>,
    ) -> Result<T> {
        retry_with_backoff(attempts, || f(self))
    }

    /// As [`Session::with_retries`], with an **overall wall-clock deadline
    /// across attempts**: retrying stops once `overall` has elapsed, even
    /// with attempts left (see [`retry_with_backoff_deadline`]). The first
    /// attempt always runs.
    pub fn with_retries_deadline<T>(
        &mut self,
        attempts: usize,
        overall: Duration,
        mut f: impl FnMut(&mut Session<'a>) -> Result<T>,
    ) -> Result<T> {
        retry_with_backoff_deadline(attempts, Some(overall), || f(self))
    }
}

impl<'a> Drop for Session<'a> {
    fn drop(&mut self) {
        if let Some(txn) = self.txn.take() {
            let _ = self.db.rollback(txn);
        }
    }
}

/// An RAII transaction guard: a [`Session`] with its transaction open.
///
/// Obtained from [`Database::transaction`] or [`Session::transaction`]. The
/// guard derefs to its session, so statements run through the session's
/// methods, inside the transaction. [`commit`](Transaction::commit) and
/// [`rollback`](Transaction::rollback) consume the guard; dropping it
/// without either — early return, `?` propagation, or a panic unwinding
/// past it — rolls the transaction back and releases its locks, as any
/// session does. SQL transaction control through the guard acts as it does
/// on a session: `BEGIN` is an "already open" error, and `COMMIT` commits,
/// after which `commit()` is a "no open transaction" error and the drop
/// does nothing. Raw transaction ids never leave the crate.
#[derive(Debug)]
pub struct Transaction<'a>(Session<'a>);

impl<'a> Transaction<'a> {
    /// Begins a transaction on `db` whose statements run under
    /// `governance` (used by the `Database`/`Session` constructors).
    pub(crate) fn begin(db: &'a Database, governance: Governance) -> Self {
        Transaction(Session {
            db,
            txn: Cell::new(Some(db.begin())),
            governance,
        })
    }

    /// Commits the transaction, consuming the guard.
    pub fn commit(self) -> Result<()> {
        self.0.end(true)
    }

    /// Rolls the transaction back explicitly (dropping the guard does the
    /// same; this form surfaces the result).
    pub fn rollback(self) -> Result<()> {
        self.0.end(false)
    }
}

impl<'a> Deref for Transaction<'a> {
    type Target = Session<'a>;

    fn deref(&self) -> &Session<'a> {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::RowView;
    use crate::value::Value;

    fn setup() -> Database {
        setup_in(Database::new())
    }

    fn on_mem_device(log: Vec<u8>) -> Database {
        let device = crate::MemDevice::with_contents(log);
        Database::open_with_device(Box::new(device), crate::DurabilityPolicy::Always).unwrap()
    }

    fn setup_in(db: Database) -> Database {
        db.execute(
            "CREATE TABLE jobs (job_id INT PRIMARY KEY, owner TEXT NOT NULL, state TEXT, runtime DOUBLE)",
        )
        .unwrap();
        db.execute(
            "INSERT INTO jobs (job_id, owner, state, runtime) VALUES \
             (1, 'alice', 'idle', 60), (2, 'bob', 'idle', 120), (3, 'alice', 'running', 300)",
        )
        .unwrap();
        db
    }

    #[derive(Debug, PartialEq)]
    struct Job {
        id: i64,
        owner: String,
        state: Option<String>,
        runtime: Option<f64>,
    }

    impl FromRow for Job {
        fn from_row(row: &RowView<'_>) -> crate::Result<Self> {
            Ok(Job {
                id: row.get("job_id")?,
                owner: row.get("owner")?,
                state: row.get("state")?,
                runtime: row.get("runtime")?,
            })
        }
    }

    #[test]
    fn typed_params_and_decoding_round_trip() {
        let db = setup();
        let s = db.session();
        // Tuple params against SQL text and against a prepared handle.
        let by_id = db.prepare("SELECT * FROM jobs WHERE job_id = ?").unwrap();
        let job: Job = s.query_one(&by_id, (2i64,)).unwrap().unwrap();
        assert_eq!(job.owner, "bob");
        let jobs: Vec<Job> = s
            .query_as("SELECT * FROM jobs WHERE owner = ? ORDER BY job_id", ("alice",))
            .unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[1].state.as_deref(), Some("running"));
        // Scalars decode the single projected column.
        let ids: Vec<i64> = s
            .query_scalars("SELECT job_id FROM jobs ORDER BY job_id", ())
            .unwrap();
        assert_eq!(ids, vec![1, 2, 3]);
        // Missing rows decode to None, not an error.
        assert_eq!(s.query_one::<Job, _, _>(&by_id, (99i64,)).unwrap(), None);
    }

    #[test]
    fn from_row_round_trips_nulls() {
        let db = setup();
        let s = db.session();
        s.execute(
            "INSERT INTO jobs (job_id, owner, state, runtime) VALUES (?, ?, ?, ?)",
            (7i64, "carol", Option::<String>::None, Option::<f64>::None),
        )
        .unwrap();
        let job: Job = s
            .query_one("SELECT * FROM jobs WHERE job_id = ?", (7i64,))
            .unwrap()
            .unwrap();
        assert_eq!(
            job,
            Job {
                id: 7,
                owner: "carol".into(),
                state: None,
                runtime: None
            }
        );
        // A NULL column refuses to decode into a non-Option target, by name
        // or by position.
        let r = s
            .query("SELECT state FROM jobs WHERE job_id = ?", (7i64,))
            .unwrap();
        let view = r.view(0).unwrap();
        assert!(view.get::<String>("state").is_err());
        assert!(view.get_at::<String>(0).is_err());
        assert_eq!(view.get::<Option<String>>("state").unwrap(), None);
    }

    #[test]
    fn by_name_get_matches_positional_access() {
        let db = setup();
        let r = db
            .query("SELECT job_id, owner, state, runtime FROM jobs ORDER BY job_id")
            .unwrap();
        for (i, view) in r.views().enumerate() {
            // By-name access must agree with the raw positional row.
            assert_eq!(
                view.get::<i64>("job_id").unwrap(),
                r.rows[i].get(0).as_int().unwrap()
            );
            assert_eq!(
                view.get::<String>("owner").unwrap(),
                r.rows[i].get(1).as_text().unwrap()
            );
            assert_eq!(view.get_at::<Value>(2).unwrap(), *r.rows[i].get(2));
        }
        // The view's column names are the interned schema names.
        let view = r.view(0).unwrap();
        assert_eq!(view.columns().len(), 4);
    }

    #[test]
    fn transaction_commit_consumes_and_applies() {
        let db = setup();
        let txn = db.transaction();
        txn.execute(
            "INSERT INTO jobs (job_id, owner) VALUES (?, ?)",
            (10i64, "zoe"),
        )
        .unwrap();
        let inside: Vec<i64> = txn
            .query_scalars("SELECT job_id FROM jobs WHERE owner = ?", ("zoe",))
            .unwrap();
        assert_eq!(inside, vec![10]);
        txn.commit().unwrap();
        assert_eq!(db.table_len("jobs").unwrap(), 4);
    }

    #[test]
    fn transaction_rolls_back_on_drop() {
        let db = setup();
        {
            let txn = db.transaction();
            txn.execute("UPDATE jobs SET state = ? WHERE job_id = ?", ("held", 1i64))
                .unwrap();
            // Guard dropped without commit.
        }
        let r = db.query("SELECT state FROM jobs WHERE job_id = 1").unwrap();
        assert_eq!(r.first_value("state"), Some(&Value::Text("idle".into())));
        // The table lock is released: a new writer succeeds immediately.
        db.execute("UPDATE jobs SET state = 'idle' WHERE job_id = 1").unwrap();
    }

    #[test]
    fn transaction_rolls_back_when_a_panic_unwinds() {
        let db = setup();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let txn = db.transaction();
            txn.execute("DELETE FROM jobs WHERE job_id = ?", (1i64,)).unwrap();
            panic!("service handler crashed mid-transaction");
        }));
        assert!(result.is_err());
        // The delete was rolled back and the lock released by the unwind.
        assert_eq!(db.table_len("jobs").unwrap(), 3);
        db.execute("UPDATE jobs SET state = 'held' WHERE job_id = 1").unwrap();
    }

    #[test]
    fn explicit_rollback_surfaces_result() {
        let db = setup();
        let txn = db.transaction();
        txn.execute("DELETE FROM jobs", ()).unwrap();
        txn.rollback().unwrap();
        assert_eq!(db.table_len("jobs").unwrap(), 3);
    }

    #[test]
    fn session_transaction_guard_excludes_sql_level_txn() {
        let db = setup();
        let mut s = db.session();
        {
            let txn = s.transaction().unwrap();
            txn.execute(
                "INSERT INTO jobs (job_id, owner) VALUES (?, ?)",
                (11i64, "pat"),
            )
            .unwrap();
            txn.commit().unwrap();
        }
        assert_eq!(db.table_len("jobs").unwrap(), 4);
        // With a SQL-level BEGIN open, the guard constructor refuses.
        s.execute("BEGIN", ()).unwrap();
        assert!(s.transaction().is_err());
        s.execute("ROLLBACK", ()).unwrap();
    }

    #[test]
    fn session_drives_transactions_through_sql() {
        let db = setup();
        let session = db.session();
        session.execute("BEGIN", ()).unwrap();
        assert!(session.in_transaction());
        session
            .execute("INSERT INTO jobs (job_id, owner) VALUES (7, 'sam')", ())
            .unwrap();
        session.execute("ROLLBACK", ()).unwrap();
        assert_eq!(db.table_len("jobs").unwrap(), 3);

        session.execute("BEGIN", ()).unwrap();
        session
            .execute("INSERT INTO jobs (job_id, owner) VALUES (7, 'sam')", ())
            .unwrap();
        session.execute("COMMIT", ()).unwrap();
        assert_eq!(db.table_len("jobs").unwrap(), 4);

        assert!(session.execute("COMMIT", ()).is_err());
        assert!(db.session().execute("ROLLBACK", ()).is_err());

        // Transaction control takes no parameters; a stray binding is an
        // arity error, not a silent commit.
        session.execute("BEGIN", ()).unwrap();
        assert!(session.execute("COMMIT", (42i64,)).is_err());
        assert!(session.in_transaction(), "failed COMMIT must not close the txn");
        session.execute("COMMIT", ()).unwrap();
    }

    #[test]
    fn dropped_session_releases_its_transaction() {
        let db = setup();
        {
            let session = db.session();
            session.execute("BEGIN", ()).unwrap();
            session
                .execute("UPDATE jobs SET state = 'held' WHERE job_id = 1", ())
                .unwrap();
            // Dropped without commit.
        }
        let r = db.query("SELECT state FROM jobs WHERE job_id = 1").unwrap();
        assert_eq!(r.first_value("state"), Some(&Value::Text("idle".into())));
    }

    #[test]
    fn execute_batch_equals_the_statement_loop() {
        let batched = setup_in(on_mem_device(Vec::new()));
        let looped = setup();
        let ins = "INSERT INTO jobs (job_id, owner, state) VALUES (?, ?, ?)";
        let bindings: Vec<(i64, String, String)> = (10..40)
            .map(|i| (i, format!("u{}", i % 3), "idle".to_string()))
            .collect();

        let stmt = batched.prepare(ins).unwrap();
        let before = batched.stats();
        let n = batched
            .session()
            .execute_batch(&stmt, bindings.clone())
            .unwrap();
        assert_eq!(n, 30);
        let delta = batched.stats().delta_since(&before);
        // One log record carries all 30 inserts: the batch's transaction.
        assert_eq!(delta.wal_records, 1, "an autocommit batch is one transaction");
        assert_eq!(delta.rows_inserted, 30);

        let stmt = looped.prepare(ins).unwrap();
        let before = looped.stats();
        for b in bindings {
            looped.session().execute(&stmt, b).unwrap();
        }
        let delta = looped.stats().delta_since(&before);
        assert_eq!(delta.rows_inserted, 30);
        assert_eq!(delta.wal_records, 30, "the loop commits once per insert");

        // Same data in both databases.
        let q = "SELECT job_id, owner, state FROM jobs ORDER BY job_id";
        assert_eq!(batched.query(q).unwrap(), looped.query(q).unwrap());
        batched.check_consistency().unwrap();

        // A batched database recovers identically from its WAL.
        let recovered = on_mem_device(batched.durable_log_bytes().unwrap());
        assert_eq!(recovered.query(q).unwrap(), batched.query(q).unwrap());
    }

    #[test]
    fn execute_batch_is_atomic_on_failure() {
        let db = setup();
        let stmt = db
            .prepare("INSERT INTO jobs (job_id, owner) VALUES (?, ?)")
            .unwrap();
        // The third binding collides with an existing primary key.
        let err = db
            .session()
            .execute_batch(&stmt, vec![(20i64, "a"), (21, "b"), (1, "dup")])
            .unwrap_err();
        assert_eq!(err.class(), crate::ErrorClass::Constraint);
        assert_eq!(db.table_len("jobs").unwrap(), 3, "no partial batch applies");
        db.check_consistency().unwrap();
    }

    #[test]
    fn execute_batch_rejects_non_dml() {
        let db = setup();
        let sel = db.prepare("SELECT * FROM jobs WHERE job_id = ?").unwrap();
        assert!(db.session().execute_batch(&sel, vec![(1i64,)]).is_err());
        let ins = db
            .prepare("INSERT INTO jobs (job_id, owner) VALUES (?, ?)")
            .unwrap();
        assert!(db.session().query_batch(&ins, vec![(1i64, "x")]).is_err());
        // Arity mismatches are caught before anything runs.
        assert!(db.session().execute_batch(&ins, vec![(1i64,)]).is_err());
        assert_eq!(db.table_len("jobs").unwrap(), 3);
    }

    #[test]
    fn query_batch_pipelines_point_selects() {
        let db = setup();
        let q = db.prepare("SELECT owner FROM jobs WHERE job_id = ?").unwrap();
        let results = db
            .session()
            .query_batch(&q, vec![(1i64,), (3i64,), (99i64,)])
            .unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].first_value("owner"), Some(&Value::from("alice")));
        assert_eq!(results[1].first_value("owner"), Some(&Value::from("alice")));
        assert!(results[2].is_empty());

        // Inside a transaction the batch registers shared locks once and
        // still sees the transaction-local state.
        let txn = db.transaction();
        txn.execute("UPDATE jobs SET owner = ? WHERE job_id = ?", ("eve", 1i64))
            .unwrap();
        let results = txn.query_batch(&q, vec![(1i64,), (2i64,)]).unwrap();
        assert_eq!(results[0].first_value("owner"), Some(&Value::from("eve")));
        txn.rollback().unwrap();
    }

    #[test]
    fn with_retries_retries_only_retryable_errors() {
        let db = setup();
        let mut s = db.session();

        // A transient conflict resolves itself: the helper keeps trying.
        let mut calls = 0;
        let out = s
            .with_retries(5, |_| {
                calls += 1;
                if calls < 3 {
                    Err(Error::LockConflict("simulated".into()))
                } else {
                    Ok(calls)
                }
            })
            .unwrap();
        assert_eq!(out, 3);

        // Exhausted attempts surface the last retryable error.
        let mut calls = 0;
        let err = s
            .with_retries(3, |_| -> Result<()> {
                calls += 1;
                Err(Error::busy("still busy"))
            })
            .unwrap_err();
        assert_eq!(calls, 3);
        assert!(err.is_retryable());

        // Non-retryable errors propagate immediately, without re-running.
        let mut calls = 0;
        let err = s
            .with_retries(5, |_| -> Result<()> {
                calls += 1;
                Err(Error::constraint("pk"))
            })
            .unwrap_err();
        assert_eq!(calls, 1);
        assert_eq!(err.class(), crate::ErrorClass::Constraint);
    }

    #[test]
    fn durability_failures_are_never_retried() {
        // A failed fsync poisons the log writer and a corrupt log needs
        // operator intervention — retrying either would be wrong, so both
        // must propagate on the first attempt.
        for err in [Error::io("fsync failed"), Error::corruption("bad crc")] {
            let mut calls = 0;
            let got = retry_with_backoff(5, || -> Result<()> {
                calls += 1;
                Err(err.clone())
            })
            .unwrap_err();
            assert_eq!(calls, 1);
            assert!(!got.is_retryable());
            assert_eq!(got, err);
        }
    }

    #[test]
    fn with_retries_rides_out_a_real_writer_conflict() {
        let db = setup();
        // A writer holds the exclusive lock on `jobs` until the second
        // attempt; the retried transaction then succeeds.
        let writer = std::cell::RefCell::new(Some(db.transaction()));
        writer
            .borrow()
            .as_ref()
            .unwrap()
            .execute("UPDATE jobs SET state = ? WHERE job_id = ?", ("held", 1i64))
            .unwrap();
        let mut attempt = 0;
        let n = db
            .session()
            .with_retries(4, |s| {
                attempt += 1;
                if attempt == 2 {
                    // The conflicting writer commits between attempts.
                    writer.borrow_mut().take().unwrap().commit().unwrap();
                }
                let txn = s.transaction()?;
                let n = txn
                    .execute("UPDATE jobs SET state = ? WHERE job_id = ?", ("done", 2i64))?
                    .affected();
                txn.commit()?;
                Ok(n)
            })
            .unwrap();
        assert_eq!(n, 1);
        assert!(attempt >= 2, "the first attempt must have conflicted");
        let r = db.query("SELECT state FROM jobs WHERE job_id = 2").unwrap();
        assert_eq!(r.first_value("state"), Some(&Value::from("done")));
    }

    #[test]
    fn retry_deadline_bounds_the_whole_loop() {
        // An absurd attempt budget is cut short by the wall-clock deadline:
        // without it, 1M attempts at up-to-2ms backoff would take ~30 min.
        let start = Instant::now();
        let mut calls = 0u32;
        let err = retry_with_backoff_deadline(1_000_000, Some(Duration::from_millis(20)), || {
            calls += 1;
            Err::<(), _>(Error::busy("overloaded"))
        })
        .unwrap_err();
        assert!(err.is_retryable());
        assert!(calls >= 2, "the budget allows at least one retry");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the deadline must stop the loop long before the attempts run out"
        );

        // A zero budget degrades to exactly one attempt.
        let mut calls = 0u32;
        let _ = retry_with_backoff_deadline(10, Some(Duration::ZERO), || {
            calls += 1;
            Err::<(), _>(Error::busy("overloaded"))
        });
        assert_eq!(calls, 1);

        // A success inside the budget returns immediately.
        let out =
            retry_with_backoff_deadline(5, Some(Duration::from_secs(5)), || Ok(7)).unwrap();
        assert_eq!(out, 7);
    }

    #[test]
    fn session_governance_applies_to_every_statement() {
        let db = setup();
        let mut s = db.session().with_governance(Governance {
            max_rows: Some(1),
            ..Governance::default()
        });
        let err = s.query("SELECT * FROM jobs", ()).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
        assert!(db.stats().statements_over_budget >= 1);
        // Statements under the cap still run, in and out of transactions.
        let r = s.query("SELECT * FROM jobs WHERE job_id = ?", (1i64,)).unwrap();
        assert_eq!(r.len(), 1);
        s.execute("BEGIN", ()).unwrap();
        let err = s.query("SELECT * FROM jobs", ()).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
        s.execute("ROLLBACK", ()).unwrap();

        // The RAII guard taken from the session runs under the same limits,
        // single statements and batches alike.
        let by_owner = db.prepare("SELECT * FROM jobs WHERE owner = ?").unwrap();
        let hold = db.prepare("UPDATE jobs SET state = 'held' WHERE owner = ?").unwrap();
        let txn = s.transaction().unwrap();
        let err = txn.query("SELECT * FROM jobs", ()).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
        let err = txn.query_batch(&by_owner, [("alice",)]).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
        assert_eq!(txn.query_batch(&by_owner, [("bob",)]).unwrap()[0].len(), 1);
        assert_eq!(txn.execute_batch(&hold, [("bob",)]).unwrap(), 1);
        txn.rollback().unwrap();
        // A cancelled session cancels its guard's batches too.
        s.set_governance(Governance {
            cancel: Some(std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true))),
            ..Governance::default()
        });
        let txn = s.transaction().unwrap();
        let err = txn.execute_batch(&hold, [("bob",)]).unwrap_err();
        assert!(matches!(err, Error::Timeout { .. }), "{err}");
    }

    #[test]
    fn batched_reads_never_conflict_with_writers() {
        let db = setup();
        let q = db.prepare("SELECT state FROM jobs WHERE job_id = ?").unwrap();
        let writer = db.transaction();
        writer
            .execute("UPDATE jobs SET state = ? WHERE job_id = ?", ("held", 1i64))
            .unwrap();
        // An autocommit batched read runs against the in-flight writer and
        // observes the committed (pre-update) state.
        let results = db.session().query_batch(&q, vec![(1i64,)]).unwrap();
        assert_eq!(results[0].first_value("state"), Some(&Value::from("idle")));
        writer.commit().unwrap();
        // A fresh batch sees the committed update.
        let results = db.session().query_batch(&q, vec![(1i64,)]).unwrap();
        assert_eq!(results[0].first_value("state"), Some(&Value::from("held")));
    }
}
