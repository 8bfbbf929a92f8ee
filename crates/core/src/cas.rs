//! The CondorJ2 Application Server (CAS) state and its service layer.
//!
//! The CAS is "the only entity in the system with direct access to the
//! database": every interaction — user submissions, administrator queries,
//! startd heartbeats — arrives as a web-service call and is turned into SQL.
//! This module implements the application-logic layer (coarse-grained
//! services), the persistence operations underneath it, the matchmaking pass,
//! the historical-information and configuration-management subsystems, and
//! the data-provenance extension sketched in the paper's future-work section.
//!
//! As in the paper's J2EE container, **a service call is one transaction**:
//! every method that runs more than one statement goes through
//! `CasState::transact`, so it commits — and on a durable database forces
//! the log — exactly once, and a fault or a crash part-way leaves nothing
//! behind. Single-statement methods (`record_provenance`, the reads) are
//! their own transaction at autocommit.

use crate::schema;
use appserver::{ServiceKind, ServiceRegistry, SoapRequest, SoapResponse};
use relstore::{Database, Error, FromRow, Prepared, Result, RowView, Transaction};
use std::sync::Arc;

/// What a startd reports in a heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeartbeatReport {
    /// The slot is idle and willing to run a job.
    Idle,
    /// The slot is executing the given job.
    Running {
        /// The executing job.
        job_id: i64,
    },
    /// The job finished successfully.
    Completed {
        /// The finished job.
        job_id: i64,
    },
    /// The node failed to run (dropped) the job; it must be rescheduled.
    Failed {
        /// The dropped job.
        job_id: i64,
    },
}

/// The CAS reply to a heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeartbeatReply {
    /// Nothing for the node to do.
    Ok,
    /// A match exists for this node; the startd should call `acceptMatch`.
    MatchInfo {
        /// The matched job.
        job_id: i64,
    },
}

/// Aggregate pool status, as served to users and administrators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStatus {
    /// Jobs waiting to be matched.
    pub idle_jobs: i64,
    /// Jobs currently matched or executing.
    pub active_jobs: i64,
    /// Machines currently executing jobs.
    pub busy_machines: i64,
    /// Machines registered in the pool.
    pub total_machines: i64,
    /// Completed jobs recorded in history.
    pub completed_jobs: i64,
}

/// The columns `complete_job` reads back from a finishing job's tuple and
/// its active run (one `jobs ⋈ runs` query), decoded by name so a
/// projection change cannot misassign fields.
#[derive(Debug, Clone, PartialEq)]
struct FinishedJob {
    owner: String,
    runtime_ms: Option<i64>,
    submitted: Option<i64>,
    requeues: Option<i64>,
    /// The machine the run tuple says the job executed on — the database's
    /// answer, not the heartbeat sender's claim.
    machine_id: i64,
}

impl FromRow for FinishedJob {
    fn from_row(row: &RowView<'_>) -> Result<Self> {
        Ok(FinishedJob {
            owner: row.get("owner")?,
            runtime_ms: row.get("runtime_ms")?,
            submitted: row.get("submitted")?,
            requeues: row.get("requeues")?,
            machine_id: row.get("machine_id")?,
        })
    }
}

/// One line of the per-owner usage report: completed-job usage from
/// `job_history` joined with the owner's registration row in `users`.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnerUsage {
    /// The job owner.
    pub owner: String,
    /// The owner's fair-share priority from `users`.
    pub priority: f64,
    /// Number of completed jobs.
    pub jobs: i64,
    /// Total machine time consumed, in minutes.
    pub machine_minutes: f64,
}

impl FromRow for OwnerUsage {
    fn from_row(row: &RowView<'_>) -> Result<Self> {
        Ok(OwnerUsage {
            owner: row.get("owner")?,
            priority: row.get("priority")?,
            jobs: row.get("jobs")?,
            // SUM over rows whose runtime_ms are all NULL yields SQL NULL;
            // report that owner as zero time, not as a failed report.
            machine_minutes: row.get::<Option<f64>>("total_ms")?.unwrap_or(0.0) / 60_000.0,
        })
    }
}

/// The prepared statements behind every hot CAS service call.
///
/// These handles *are* the paper's "HTTP-to-SQL transformation" — what it
/// calls the application server's most basic function, and the hot path of
/// the whole system: each heartbeat, submission and scheduler pass used to
/// build SQL text with `format!` and re-parse it. Preparing once at deployment and
/// binding parameters per call removes the lexer/parser from every service
/// invocation (and sidesteps literal escaping entirely).
struct CasPrepared {
    user_exists: Prepared,
    user_insert: Prepared,
    job_insert: Prepared,
    machine_exists: Prepared,
    machine_insert: Prepared,
    machine_set_idle: Prepared,
    machine_history_insert: Prepared,
    machine_touch: Prepared,
    machine_set_state: Prepared,
    idle_machines: Prepared,
    idle_jobs: Prepared,
    match_for_machine: Prepared,
    match_exists: Prepared,
    match_insert: Prepared,
    match_delete_by_job: Prepared,
    job_touch: Prepared,
    job_set_running: Prepared,
    job_set_matched: Prepared,
    job_requeue: Prepared,
    job_fetch: Prepared,
    job_delete: Prepared,
    run_insert: Prepared,
    run_delete_by_job: Prepared,
    history_insert: Prepared,
    config_get: Prepared,
    config_update: Prepared,
    config_insert: Prepared,
    provenance_insert: Prepared,
}

impl CasPrepared {
    fn new(db: &Database) -> Result<Self> {
        Ok(CasPrepared {
            user_exists: db.prepare("SELECT name FROM users WHERE name = ?")?,
            user_insert: db.prepare("INSERT INTO users (name, priority, created) VALUES (?, 0.5, ?)")?,
            job_insert: db.prepare(
                "INSERT INTO jobs (job_id, owner, state, runtime_ms, submitted, updated, requeues) \
                 VALUES (?, ?, 'idle', ?, ?, ?, 0)",
            )?,
            machine_exists: db.prepare("SELECT machine_id FROM machines WHERE machine_id = ?")?,
            machine_insert: db.prepare(
                "INSERT INTO machines (machine_id, name, state, speed, phys_id, last_heartbeat) \
                 VALUES (?, ?, 'idle', ?, ?, ?)",
            )?,
            // A slot that re-registers, finishes a job or drops one is idle
            // as of this contact: state and heartbeat timestamp change in
            // one statement, so the call writes the `machines` row once.
            machine_set_idle: db.prepare(
                "UPDATE machines SET state = 'idle', last_heartbeat = ? WHERE machine_id = ?",
            )?,
            machine_history_insert: db.prepare(
                "INSERT INTO machine_history (event_id, machine_id, rebooted, os, arch, memory_mb) \
                 VALUES (?, ?, ?, 'linux-2.6', 'x86', ?)",
            )?,
            machine_touch: db.prepare("UPDATE machines SET last_heartbeat = ? WHERE machine_id = ?")?,
            machine_set_state: db.prepare("UPDATE machines SET state = ? WHERE machine_id = ?")?,
            // The matchmaker's two reads. `LIMIT ?` is bound per pass to the
            // number of matches the pass can still make, and `ORDER BY` on
            // the primary key lets the engine walk that index and stop
            // there: a pass reads the head of the queue, not the queue.
            idle_machines: db.prepare(
                "SELECT machine_id FROM machines WHERE state = 'idle' ORDER BY machine_id LIMIT ?",
            )?,
            idle_jobs: db.prepare(
                "SELECT job_id FROM jobs WHERE state = 'idle' ORDER BY job_id LIMIT ?",
            )?,
            match_for_machine: db.prepare(
                "SELECT job_id FROM matches WHERE machine_id = ? ORDER BY match_id LIMIT 1",
            )?,
            match_exists: db.prepare("SELECT match_id FROM matches WHERE job_id = ? AND machine_id = ?")?,
            match_insert: db.prepare(
                "INSERT INTO matches (match_id, job_id, machine_id, created) VALUES (?, ?, ?, ?)",
            )?,
            match_delete_by_job: db.prepare("DELETE FROM matches WHERE job_id = ?")?,
            job_touch: db.prepare("UPDATE jobs SET updated = ? WHERE job_id = ?")?,
            job_set_running: db.prepare(
                "UPDATE jobs SET state = 'running', updated = ? WHERE job_id = ?",
            )?,
            job_set_matched: db.prepare("UPDATE jobs SET state = 'matched' WHERE job_id = ?")?,
            job_requeue: db.prepare(
                "UPDATE jobs SET state = 'idle', requeues = requeues + 1, updated = ? WHERE job_id = ?",
            )?,
            // One planned join instead of the old application-side pairing
            // (fetch the job, then trust the caller for the machine): the
            // run tuple is the authority on where the job executed. The
            // engine runs it as a point lookup on `jobs` followed by one
            // probe of the `runs.job_id` index — O(1) in the pool size,
            // with no build side over `runs`, which every accept and
            // completion changes.
            job_fetch: db.prepare(
                "SELECT jobs.owner, jobs.runtime_ms, jobs.submitted, jobs.requeues, \
                        runs.machine_id \
                 FROM jobs JOIN runs ON jobs.job_id = runs.job_id \
                 WHERE jobs.job_id = ?",
            )?,
            job_delete: db.prepare("DELETE FROM jobs WHERE job_id = ?")?,
            run_insert: db.prepare(
                "INSERT INTO runs (run_id, job_id, machine_id, started) VALUES (?, ?, ?, ?)",
            )?,
            run_delete_by_job: db.prepare("DELETE FROM runs WHERE job_id = ?")?,
            history_insert: db.prepare(
                "INSERT INTO job_history (history_id, job_id, owner, runtime_ms, submitted, completed, machine_id, requeues) \
                 VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            )?,
            config_get: db.prepare("SELECT value FROM config WHERE name = ?")?,
            config_update: db.prepare("UPDATE config SET value = ?, updated = ? WHERE name = ?")?,
            config_insert: db.prepare("INSERT INTO config (name, value, updated) VALUES (?, ?, ?)")?,
            provenance_insert: db.prepare(
                "INSERT INTO provenance (record_id, job_id, executable, input_dataset, output_dataset, recorded) \
                 VALUES (?, ?, ?, ?, ?, ?)",
            )?,
        })
    }
}

/// The CAS application state shared by all service handlers.
pub struct CasState {
    db: Arc<Database>,
    prepared: CasPrepared,
    /// The current simulated time in milliseconds (set by the event loop
    /// before each dispatch so handlers can timestamp their writes).
    pub now_ms: i64,
    next_job_id: i64,
    next_match_id: i64,
    next_run_id: i64,
    next_history_id: i64,
    next_machine_event_id: i64,
    next_provenance_id: i64,
    /// Matches created by the scheduling pass.
    pub matches_made: u64,
    /// Jobs completed (moved to history).
    pub jobs_completed: u64,
    /// Jobs returned to the idle state after a node dropped them.
    pub jobs_requeued: u64,
}

impl CasState {
    /// Creates the CAS state over a database, deploying the schema and the
    /// default configuration policies.
    ///
    /// The database may already hold a pool — a CAS restarted over a
    /// recovered log — so every id counter resumes after the highest id its
    /// table holds instead of colliding with its own history at 1.
    pub fn new(db: Arc<Database>) -> Result<Self> {
        schema::deploy(&db)?;
        let prepared = CasPrepared::new(&db)?;
        // `ORDER BY <pk> DESC LIMIT 1` is one step of the ordered index
        // walk. A finished job's id lives on only in `job_history`, which
        // has no index on it: that one is a scan, once per start.
        let last_id = |table: &str, pk: &str| -> Result<i64> {
            let sql = format!("SELECT {pk} FROM {table} ORDER BY {pk} DESC LIMIT 1");
            Ok(db.query(&sql)?.scalar_int().unwrap_or(0))
        };
        let last_finished_job = db
            .query("SELECT MAX(job_id) FROM job_history")?
            .scalar_int()
            .unwrap_or(0);
        let state = CasState {
            now_ms: 0,
            next_job_id: last_id("jobs", "job_id")?.max(last_finished_job),
            next_match_id: last_id("matches", "match_id")?,
            next_run_id: last_id("runs", "run_id")?,
            next_history_id: last_id("job_history", "history_id")?,
            next_machine_event_id: last_id("machine_history", "event_id")?,
            next_provenance_id: last_id("provenance", "record_id")?,
            matches_made: 0,
            jobs_completed: 0,
            jobs_requeued: 0,
            db,
            prepared,
        };
        state.set_config_if_absent("max_requeues", "5")?;
        Ok(state)
    }

    /// The underlying database (used by reports and tests).
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    // --- the unit of work --------------------------------------------------------

    /// Runs one service call's statements as **one transaction** — what the
    /// paper's J2EE container does around every web-service method. `body`
    /// reads and writes through the guard; the call commits (and, on a
    /// durable database, forces the log) once, however many statements it
    /// ran. Any fault drops the guard, which rolls back everything the call
    /// wrote, so a crash or an error never leaves a job between two states.
    /// A retryable error — another writer held a table `body` wanted — runs
    /// `body` again from the top under the engine's one backoff policy, so
    /// `body` must be re-runnable: callers compute new ids from the counters
    /// before the call and advance the counters only after it returns.
    fn transact<T>(&self, mut body: impl FnMut(&Transaction<'_>) -> Result<T>) -> Result<T> {
        self.db.session().with_retries(3, |session| {
            let txn = session.transaction()?;
            let out = body(&txn)?;
            txn.commit()?;
            Ok(out)
        })
    }

    // --- users, submission ----------------------------------------------------

    /// Submits one job, inserting a job tuple. Returns the new job id.
    pub fn submit_job(&mut self, owner: &str, runtime_ms: i64) -> Result<i64> {
        self.submit_jobs(owner, runtime_ms, 1)
    }

    /// Submits `count` identical jobs in one call — the owner's user row
    /// (created implicitly on first use) and all the job tuples commit
    /// together. Returns the first new job id; the rest follow it.
    fn submit_jobs(&mut self, owner: &str, runtime_ms: i64, count: i64) -> Result<i64> {
        let (p, now) = (&self.prepared, self.now_ms);
        let first = self.next_job_id + 1;
        self.transact(|txn| {
            if txn.query(&p.user_exists, (owner,))?.is_empty() {
                txn.execute(&p.user_insert, (owner, now))?;
            }
            txn.execute_batch(
                &p.job_insert,
                (first..first + count).map(|id| (id, owner, runtime_ms, now, now)),
            )?;
            Ok(())
        })?;
        self.next_job_id += count;
        Ok(first)
    }

    // --- machines ---------------------------------------------------------------

    /// Registers (or re-registers after a reboot) an execute slot. Reboots
    /// also record the slow-changing attributes into `machine_history`, the
    /// extra work the paper blames for the start-of-run spike in Figure 10.
    pub fn register_machine(
        &mut self,
        machine_id: i64,
        name: &str,
        speed: f64,
        phys_id: i64,
        memory_mb: i64,
    ) -> Result<()> {
        let (p, now) = (&self.prepared, self.now_ms);
        let event_id = self.next_machine_event_id + 1;
        self.transact(|txn| {
            if txn.query(&p.machine_exists, (machine_id,))?.is_empty() {
                txn.execute(&p.machine_insert, (machine_id, name, speed, phys_id, now))?;
            } else {
                txn.execute(&p.machine_set_idle, (now, machine_id))?;
            }
            txn.execute(
                &p.machine_history_insert,
                (event_id, machine_id, now, memory_mb),
            )?;
            Ok(())
        })?;
        self.next_machine_event_id = event_id;
        Ok(())
    }

    /// Handles a startd heartbeat.
    pub fn heartbeat(&mut self, machine_id: i64, report: HeartbeatReport) -> Result<HeartbeatReply> {
        let (p, now) = (&self.prepared, self.now_ms);
        let history_id = self.next_history_id + 1;
        let reply = self.transact(|txn| match report {
            HeartbeatReport::Idle => {
                txn.execute(&p.machine_touch, (now, machine_id))?;
                let matched: Option<i64> = txn
                    .query_scalars(&p.match_for_machine, (machine_id,))?
                    .into_iter()
                    .next();
                Ok(match matched {
                    Some(job_id) => HeartbeatReply::MatchInfo { job_id },
                    None => HeartbeatReply::Ok,
                })
            }
            HeartbeatReport::Running { job_id } => {
                txn.execute(&p.machine_touch, (now, machine_id))?;
                txn.execute(&p.job_touch, (now, job_id))?;
                Ok(HeartbeatReply::Ok)
            }
            HeartbeatReport::Completed { job_id } => {
                self.complete_job(txn, history_id, machine_id, job_id)?;
                Ok(HeartbeatReply::Ok)
            }
            HeartbeatReport::Failed { job_id } => {
                self.requeue_job(txn, machine_id, job_id)?;
                Ok(HeartbeatReply::Ok)
            }
        })?;
        match report {
            HeartbeatReport::Completed { .. } => {
                self.next_history_id = history_id;
                self.jobs_completed += 1;
            }
            HeartbeatReport::Failed { .. } => self.jobs_requeued += 1,
            HeartbeatReport::Idle | HeartbeatReport::Running { .. } => {}
        }
        Ok(reply)
    }

    /// The startd accepts a previously reported match: the match tuple becomes
    /// a run tuple and the job and machine move to the running state.
    pub fn accept_match(&mut self, machine_id: i64, job_id: i64) -> Result<()> {
        let (p, now) = (&self.prepared, self.now_ms);
        let run_id = self.next_run_id + 1;
        self.transact(|txn| {
            if txn.query(&p.match_exists, (job_id, machine_id))?.is_empty() {
                return Err(Error::not_found(format!(
                    "match of job {job_id} on machine {machine_id}"
                )));
            }
            txn.execute(&p.match_delete_by_job, (job_id,))?;
            txn.execute(&p.run_insert, (run_id, job_id, machine_id, now))?;
            txn.execute(&p.job_set_running, (now, job_id))?;
            txn.execute(&p.machine_set_state, ("running", machine_id))?;
            Ok(())
        })?;
        self.next_run_id = run_id;
        Ok(())
    }

    /// The completed-heartbeat half of [`CasState::heartbeat`]: the job and
    /// its run leave the operational tables for `job_history` inside the
    /// heartbeat's transaction.
    fn complete_job(
        &self,
        txn: &Transaction<'_>,
        history_id: i64,
        machine_id: i64,
        job_id: i64,
    ) -> Result<()> {
        let (p, now) = (&self.prepared, self.now_ms);
        // A single `jobs ⋈ runs` query fetches the finishing job together
        // with its run tuple; a completion report for a job that never
        // started (no run) fails here instead of fabricating history.
        let job: FinishedJob = txn
            .query_one(&p.job_fetch, (job_id,))?
            .ok_or_else(|| Error::not_found(format!("running job {job_id}")))?;
        txn.execute(
            &p.history_insert,
            (
                history_id,
                job_id,
                job.owner,
                job.runtime_ms,
                job.submitted,
                now,
                // Recorded from the run tuple, not the heartbeat sender's
                // claim.
                job.machine_id,
                job.requeues.unwrap_or(0),
            ),
        )?;
        txn.execute(&p.run_delete_by_job, (job_id,))?;
        txn.execute(&p.job_delete, (job_id,))?;
        txn.execute(&p.machine_set_idle, (now, machine_id))?;
        Ok(())
    }

    /// The failed-heartbeat half of [`CasState::heartbeat`]: the dropped job
    /// goes back to the idle queue inside the heartbeat's transaction.
    fn requeue_job(&self, txn: &Transaction<'_>, machine_id: i64, job_id: i64) -> Result<()> {
        let (p, now) = (&self.prepared, self.now_ms);
        txn.execute(&p.run_delete_by_job, (job_id,))?;
        txn.execute(&p.match_delete_by_job, (job_id,))?;
        txn.execute(&p.job_requeue, (now, job_id))?;
        txn.execute(&p.machine_set_idle, (now, machine_id))?;
        Ok(())
    }

    // --- matchmaking -------------------------------------------------------------

    /// Runs one matchmaking pass: pairs idle machines with idle jobs inside a
    /// single transaction, creating match tuples that idle startds pick up on
    /// their next heartbeat. Returns the number of matches created.
    pub fn run_scheduler(&mut self) -> Result<usize> {
        self.run_scheduler_limited(usize::MAX)
    }

    /// As [`CasState::run_scheduler`], bounded to at most `limit` matches.
    ///
    /// The sweep is batched: the two reads that pick the pairs, then the N
    /// match inserts, N job-state updates and N machine-state updates as
    /// three `execute_batch` calls, all inside the pass's one transaction —
    /// three catalog write guards and three WAL appends for the whole pass
    /// instead of 3N of each. Readers never conflict under MVCC, but
    /// another writer (a heartbeat mutating `machines`, say) can still
    /// collide with the sweep; the half-applied pass rolls back and reruns.
    pub fn run_scheduler_limited(&mut self, limit: usize) -> Result<usize> {
        let (p, now) = (&self.prepared, self.now_ms);
        let limit = i64::try_from(limit).unwrap_or(i64::MAX);
        let first_match_id = self.next_match_id + 1;
        let made = self.transact(|txn| {
            // FIFO on both sides: the first `limit` idle machines by id, then
            // as many of the oldest idle jobs as there are machines to take
            // them.
            let idle_machines: Vec<i64> = txn.query_scalars(&p.idle_machines, (limit,))?;
            if idle_machines.is_empty() {
                return Ok(0);
            }
            let idle_jobs: Vec<i64> =
                txn.query_scalars(&p.idle_jobs, (idle_machines.len() as i64,))?;
            if idle_jobs.is_empty() {
                return Ok(0);
            }
            let pairs: Vec<(i64, i64)> = idle_machines.into_iter().zip(idle_jobs).collect();
            txn.execute_batch(
                &p.match_insert,
                pairs
                    .iter()
                    .enumerate()
                    .map(|(i, (machine_id, job_id))| {
                        (first_match_id + i as i64, *job_id, *machine_id, now)
                    }),
            )?;
            txn.execute_batch(&p.job_set_matched, pairs.iter().map(|(_, job_id)| (*job_id,)))?;
            txn.execute_batch(
                &p.machine_set_state,
                pairs.iter().map(|(machine_id, _)| ("matched", *machine_id)),
            )?;
            Ok(pairs.len())
        })?;
        self.next_match_id += made as i64;
        self.matches_made += made as u64;
        Ok(made)
    }

    // --- queries, configuration, history, provenance ------------------------------

    /// Aggregate pool status (the pool web site's front page).
    pub fn pool_status(&self) -> Result<PoolStatus> {
        let idle_jobs = self
            .db
            .query("SELECT COUNT(*) FROM jobs WHERE state = 'idle'")?
            .scalar_int()
            .unwrap_or(0);
        let total_jobs = self.db.table_len("jobs")? as i64;
        let busy = self
            .db
            .query("SELECT COUNT(*) FROM machines WHERE state = 'running'")?
            .scalar_int()
            .unwrap_or(0);
        let total_machines = self.db.table_len("machines")? as i64;
        let completed = self.db.table_len("job_history")? as i64;
        Ok(PoolStatus {
            idle_jobs,
            active_jobs: total_jobs - idle_jobs,
            busy_machines: busy,
            total_machines,
            completed_jobs: completed,
        })
    }

    /// Per-owner usage report (an example of the "expressive query language
    /// over the operational data" the paper touts): one planned
    /// `job_history ⋈ users` query, where the old report left the `users`
    /// attributes to a follow-up lookup per owner. Inner join semantics:
    /// history rows of unregistered owners are not reported (LEFT OUTER
    /// JOIN is still future work — ROADMAP item 17 (e)).
    pub fn usage_by_owner(&self) -> Result<Vec<OwnerUsage>> {
        self.db.session().query_as(
            "SELECT users.name AS owner, users.priority AS priority, \
                    COUNT(*) AS jobs, SUM(job_history.runtime_ms) AS total_ms \
             FROM job_history JOIN users ON job_history.owner = users.name \
             GROUP BY users.name, users.priority ORDER BY owner",
            (),
        )
    }

    /// Reads a configuration policy value.
    pub(crate) fn get_config(&self, name: &str) -> Result<Option<String>> {
        let value: Option<(Option<String>,)> = self
            .db
            .session()
            .query_one(&self.prepared.config_get, (name,))?;
        Ok(value.and_then(|(v,)| v))
    }

    /// Writes a configuration policy value.
    pub fn set_config(&self, name: &str, value: &str) -> Result<()> {
        let (p, now) = (&self.prepared, self.now_ms);
        self.transact(|txn| {
            if txn.execute(&p.config_update, (value, now, name))?.affected() == 0 {
                txn.execute(&p.config_insert, (name, value, now))?;
            }
            Ok(())
        })
    }

    fn set_config_if_absent(&self, name: &str, value: &str) -> Result<()> {
        if self.get_config(name)?.is_none() {
            self.set_config(name, value)?;
        }
        Ok(())
    }

    /// Records data provenance for a job (future-work extension): which
    /// executable and input produced which output data set.
    pub fn record_provenance(
        &mut self,
        job_id: i64,
        executable: &str,
        input_dataset: &str,
        output_dataset: &str,
    ) -> Result<i64> {
        self.next_provenance_id += 1;
        self.db.session().execute(
            &self.prepared.provenance_insert,
            (
                self.next_provenance_id,
                job_id,
                executable,
                input_dataset,
                output_dataset,
                self.now_ms,
            ),
        )?;
        Ok(self.next_provenance_id)
    }
}

impl std::fmt::Debug for CasState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CasState")
            .field("matches_made", &self.matches_made)
            .field("jobs_completed", &self.jobs_completed)
            .field("jobs_requeued", &self.jobs_requeued)
            .finish()
    }
}

/// Registers the CAS web-service endpoints on a service registry.
///
/// The coarse-grained endpoints are the external interface used by execute
/// machines, users and web clients; a few fine-grained persistence-layer
/// operations are also registered to demonstrate the layering rule (they are
/// rejected when invoked externally).
pub fn register_services(registry: &mut ServiceRegistry<CasState>) {
    registry.register(
        "submitJob",
        ServiceKind::CoarseGrained,
        "Submit a job to the pool (owner, runtime_ms, count)",
        |state: &mut CasState, req: &SoapRequest| {
            let owner = req.text_param("owner").unwrap_or_else(|_| "anonymous".into());
            let runtime = req.int_param("runtime_ms").unwrap_or(60_000);
            let count = req.int_param("count").unwrap_or(1).max(1);
            match state.submit_jobs(&owner, runtime, count) {
                Ok(first) => SoapResponse::ok().with("first_job_id", first).with("count", count),
                Err(e) => SoapResponse::fault(e.to_string()),
            }
        },
    );
    registry.register(
        "registerMachine",
        ServiceKind::CoarseGrained,
        "Register an execute slot (machine_id, name, speed, phys_id, memory_mb)",
        |state: &mut CasState, req: &SoapRequest| {
            let id = match req.int_param("machine_id") {
                Ok(v) => v,
                Err(e) => return SoapResponse::fault(e),
            };
            let name = req.text_param("name").unwrap_or_else(|_| format!("vm{id}"));
            let speed = req.param("speed").as_double().unwrap_or(1.0);
            let phys = req.int_param("phys_id").unwrap_or(0);
            let mem = req.int_param("memory_mb").unwrap_or(2048);
            match state.register_machine(id, &name, speed, phys, mem) {
                Ok(()) => SoapResponse::ok(),
                Err(e) => SoapResponse::fault(e.to_string()),
            }
        },
    );
    registry.register(
        "heartbeat",
        ServiceKind::CoarseGrained,
        "Periodic startd heartbeat (machine_id, status, job_id)",
        |state: &mut CasState, req: &SoapRequest| {
            let id = match req.int_param("machine_id") {
                Ok(v) => v,
                Err(e) => return SoapResponse::fault(e),
            };
            let status = req.text_param("status").unwrap_or_else(|_| "idle".into());
            let job_id = req.int_param("job_id").unwrap_or(0);
            let report = match status.as_str() {
                "idle" => HeartbeatReport::Idle,
                "running" => HeartbeatReport::Running { job_id },
                "completed" => HeartbeatReport::Completed { job_id },
                "failed" => HeartbeatReport::Failed { job_id },
                other => return SoapResponse::fault(format!("unknown status {other}")),
            };
            match state.heartbeat(id, report) {
                Ok(HeartbeatReply::Ok) => SoapResponse::ok(),
                Ok(HeartbeatReply::MatchInfo { job_id }) => {
                    SoapResponse::match_info().with("job_id", job_id)
                }
                Err(e) => SoapResponse::fault(e.to_string()),
            }
        },
    );
    registry.register(
        "acceptMatch",
        ServiceKind::CoarseGrained,
        "Startd accepts a match (machine_id, job_id)",
        |state: &mut CasState, req: &SoapRequest| {
            let machine = match req.int_param("machine_id") {
                Ok(v) => v,
                Err(e) => return SoapResponse::fault(e),
            };
            let job = match req.int_param("job_id") {
                Ok(v) => v,
                Err(e) => return SoapResponse::fault(e),
            };
            match state.accept_match(machine, job) {
                Ok(()) => SoapResponse::ok(),
                Err(e) => SoapResponse::fault(e.to_string()),
            }
        },
    );
    registry.register(
        "queryPool",
        ServiceKind::CoarseGrained,
        "Pool status summary for users and administrators",
        |state: &mut CasState, _req: &SoapRequest| match state.pool_status() {
            Ok(s) => SoapResponse::ok()
                .with("idle_jobs", s.idle_jobs)
                .with("active_jobs", s.active_jobs)
                .with("busy_machines", s.busy_machines)
                .with("total_machines", s.total_machines)
                .with("completed_jobs", s.completed_jobs),
            Err(e) => SoapResponse::fault(e.to_string()),
        },
    );
    registry.register(
        "getConfig",
        ServiceKind::CoarseGrained,
        "Read a configuration policy",
        |state: &mut CasState, req: &SoapRequest| {
            let name = match req.text_param("name") {
                Ok(v) => v,
                Err(e) => return SoapResponse::fault(e),
            };
            match state.get_config(&name) {
                Ok(Some(v)) => SoapResponse::ok().with("value", v),
                Ok(None) => SoapResponse::fault(format!("no such configuration entry {name}")),
                Err(e) => SoapResponse::fault(e.to_string()),
            }
        },
    );
    registry.register(
        "setConfig",
        ServiceKind::CoarseGrained,
        "Write a configuration policy",
        |state: &mut CasState, req: &SoapRequest| {
            let name = match req.text_param("name") {
                Ok(v) => v,
                Err(e) => return SoapResponse::fault(e),
            };
            let value = match req.text_param("value") {
                Ok(v) => v,
                Err(e) => return SoapResponse::fault(e),
            };
            match state.set_config(&name, &value) {
                Ok(()) => SoapResponse::ok(),
                Err(e) => SoapResponse::fault(e.to_string()),
            }
        },
    );
    registry.register(
        "recordProvenance",
        ServiceKind::CoarseGrained,
        "Record which executable and inputs produced an output data set",
        |state: &mut CasState, req: &SoapRequest| {
            let job_id = req.int_param("job_id").unwrap_or(0);
            let exe = req.text_param("executable").unwrap_or_default();
            let input = req.text_param("input").unwrap_or_default();
            let output = match req.text_param("output") {
                Ok(v) => v,
                Err(e) => return SoapResponse::fault(e),
            };
            match state.record_provenance(job_id, &exe, &input, &output) {
                Ok(id) => SoapResponse::ok().with("record_id", id),
                Err(e) => SoapResponse::fault(e.to_string()),
            }
        },
    );
    // Fine-grained persistence-layer operations: internal only.
    registry.register(
        "jobBean.setState",
        ServiceKind::FineGrained,
        "Entity-bean operation: force a job state transition",
        |state: &mut CasState, req: &SoapRequest| {
            let job_id = req.int_param("job_id").unwrap_or(0);
            let new_state = req.text_param("state").unwrap_or_else(|_| "idle".into());
            // The SQL text resolves through the statement cache after the
            // first call; the session binds the tuple positionally.
            let result = state
                .database()
                .session()
                .execute("UPDATE jobs SET state = ? WHERE job_id = ?", (new_state, job_id));
            match result {
                Ok(r) => SoapResponse::ok().with("affected", r.affected() as i64),
                Err(e) => SoapResponse::fault(e.to_string()),
            }
        },
    );
    registry.register(
        "machineBean.touch",
        ServiceKind::FineGrained,
        "Entity-bean operation: refresh a machine's heartbeat timestamp",
        |state: &mut CasState, req: &SoapRequest| {
            let id = req.int_param("machine_id").unwrap_or(0);
            let now = state.now_ms;
            match state
                .database()
                .session()
                .execute(&state.prepared.machine_touch, (now, id))
            {
                Ok(_) => SoapResponse::ok(),
                Err(e) => SoapResponse::fault(e.to_string()),
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::Value;

    /// One provenance lineage record: which executable and input produced an
    /// output data set.
    #[derive(Debug, Clone, PartialEq)]
    struct ProvenanceRecord {
        job_id: i64,
        executable: String,
        input_dataset: String,
    }

    impl FromRow for ProvenanceRecord {
        fn from_row(row: &RowView<'_>) -> Result<Self> {
            Ok(ProvenanceRecord {
                job_id: row.get("job_id")?,
                executable: row.get("executable")?,
                input_dataset: row.get("input_dataset")?,
            })
        }
    }

    impl CasState {
        /// Answers the paper's provenance question: "what executable and
        /// input data generated this particular output data set?"
        fn provenance_of(&self, output_dataset: &str) -> Result<Vec<ProvenanceRecord>> {
            self.db.session().query_as(
                "SELECT job_id, executable, input_dataset FROM provenance \
                 WHERE output_dataset = ? ORDER BY record_id",
                (output_dataset,),
            )
        }
    }

    fn cas() -> CasState {
        CasState::new(Arc::new(Database::new())).unwrap()
    }

    #[test]
    fn submit_heartbeat_match_accept_complete_lifecycle() {
        let mut cas = cas();
        cas.register_machine(1, "vm1@node001", 1.0, 0, 2048).unwrap();
        let job = cas.submit_job("alice", 60_000).unwrap();

        // Before the scheduler runs, an idle heartbeat has nothing to offer.
        assert_eq!(cas.heartbeat(1, HeartbeatReport::Idle).unwrap(), HeartbeatReply::Ok);

        assert_eq!(cas.run_scheduler().unwrap(), 1);
        assert_eq!(
            cas.heartbeat(1, HeartbeatReport::Idle).unwrap(),
            HeartbeatReply::MatchInfo { job_id: job }
        );
        cas.accept_match(1, job).unwrap();
        assert_eq!(cas.database().table_len("runs").unwrap(), 1);
        assert_eq!(cas.database().table_len("matches").unwrap(), 0);

        cas.heartbeat(1, HeartbeatReport::Running { job_id: job }).unwrap();
        cas.heartbeat(1, HeartbeatReport::Completed { job_id: job }).unwrap();
        assert_eq!(cas.database().table_len("jobs").unwrap(), 0);
        assert_eq!(cas.database().table_len("runs").unwrap(), 0);
        assert_eq!(cas.database().table_len("job_history").unwrap(), 1);
        assert_eq!(cas.jobs_completed, 1);

        let status = cas.pool_status().unwrap();
        assert_eq!(status.completed_jobs, 1);
        assert_eq!(status.idle_jobs, 0);
        assert_eq!(status.total_machines, 1);
    }

    /// The cost of one completed heartbeat does not depend on how many
    /// other jobs are running: `job_fetch` probes the `runs.job_id` index
    /// for the one run tuple instead of reading the whole `runs` table.
    #[test]
    fn completed_heartbeat_reads_a_constant_number_of_rows() {
        for machines in [300i64, 600] {
            let mut cas = cas();
            for m in 1..=machines {
                cas.register_machine(m, &format!("vm{m}"), 1.0, m, 1024).unwrap();
                cas.submit_job("alice", 60_000).unwrap();
            }
            assert_eq!(cas.run_scheduler().unwrap(), machines as usize);
            let mut job_on_machine_1 = None;
            for m in 1..=machines {
                let HeartbeatReply::MatchInfo { job_id } =
                    cas.heartbeat(m, HeartbeatReport::Idle).unwrap()
                else {
                    panic!("machine {m} was matched");
                };
                cas.accept_match(m, job_id).unwrap();
                job_on_machine_1.get_or_insert(job_id);
            }
            let db = Arc::clone(cas.database());
            assert_eq!(db.table_len("runs").unwrap(), machines as usize);

            let before = db.stats();
            let job_id = job_on_machine_1.unwrap();
            cas.heartbeat(1, HeartbeatReport::Completed { job_id }).unwrap();
            let d = db.stats().delta_since(&before);
            // fetch job ⋈ run, insert history, delete run, delete job,
            // idle + touch machine: the join was not split app-side, and
            // the `machines` row is written once.
            assert_eq!(d.statements_executed, 5, "{machines} machines");
            assert_eq!(d.rows_updated, 1, "{machines} machines");
            assert!(d.rows_read <= 10, "{machines} machines: read {} rows", d.rows_read);
            assert_eq!(d.rows_scanned, 0, "{machines} machines");
        }
    }

    #[test]
    fn failed_jobs_are_requeued_and_rescheduled() {
        let mut cas = cas();
        cas.register_machine(1, "vm1", 1.0, 0, 1024).unwrap();
        let job = cas.submit_job("bob", 6_000).unwrap();
        cas.run_scheduler().unwrap();
        cas.accept_match(1, job).unwrap();
        cas.heartbeat(1, HeartbeatReport::Failed { job_id: job }).unwrap();
        assert_eq!(cas.jobs_requeued, 1);
        let (state, requeues): (String, i64) = cas
            .database()
            .session()
            .query_one("SELECT state, requeues FROM jobs WHERE job_id = ?", (job,))
            .unwrap()
            .unwrap();
        assert_eq!(state, "idle");
        assert_eq!(requeues, 1);
        // The machine is idle again and can be rematched.
        assert_eq!(cas.run_scheduler().unwrap(), 1);
    }

    #[test]
    fn scheduler_is_bounded_by_idle_machines_and_jobs() {
        let mut cas = cas();
        for m in 1..=3 {
            cas.register_machine(m, &format!("vm{m}"), 1.0, 0, 1024).unwrap();
        }
        for _ in 0..5 {
            cas.submit_job("carol", 60_000).unwrap();
        }
        assert_eq!(cas.run_scheduler().unwrap(), 3, "only three idle machines");
        assert_eq!(cas.run_scheduler().unwrap(), 0, "no idle machines remain");
        assert_eq!(cas.database().table_len("matches").unwrap(), 3);
        assert_eq!(cas.matches_made, 3);

        let mut cas2 = CasState::new(Arc::new(Database::new())).unwrap();
        for m in 1..=4 {
            cas2.register_machine(m, &format!("vm{m}"), 1.0, 0, 1024).unwrap();
        }
        cas2.submit_job("dana", 1000).unwrap();
        assert_eq!(cas2.run_scheduler_limited(10).unwrap(), 1, "only one idle job");
    }

    #[test]
    fn accept_match_requires_an_existing_match() {
        let mut cas = cas();
        cas.register_machine(1, "vm1", 1.0, 0, 1024).unwrap();
        let job = cas.submit_job("erin", 1000).unwrap();
        assert!(cas.accept_match(1, job).is_err());
    }

    /// Every table's rows, in a stable order.
    fn dump(db: &Database) -> Vec<(String, Vec<String>)> {
        schema::TABLES
            .iter()
            .map(|t| {
                let rows = db.query(&format!("SELECT * FROM {t}")).unwrap().rows;
                let mut rows: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
                rows.sort();
                (t.to_string(), rows)
            })
            .collect()
    }

    /// A service call that faults rolls back everything it wrote and hands
    /// out no id: the heartbeat timestamp of the reporting machine included.
    #[test]
    fn a_faulted_call_leaves_no_trace() {
        let mut cas = cas();
        cas.register_machine(1, "vm1", 1.0, 0, 1024).unwrap();
        let job = cas.submit_job("erin", 1000).unwrap();
        cas.now_ms = 5_000;
        let before = dump(cas.database());
        let ids = |c: &CasState| (c.next_run_id, c.next_history_id, c.next_match_id, c.next_job_id);
        let ids_before = ids(&cas);

        // No scheduler pass ran, so there is no match to accept.
        let err = cas.accept_match(1, job).unwrap_err();
        assert_eq!(err.class(), relstore::ErrorClass::Logic, "{err}");
        // A completion report for a job nobody knows.
        assert!(cas.heartbeat(1, HeartbeatReport::Completed { job_id: 999 }).is_err());

        assert_eq!(dump(cas.database()), before);
        assert_eq!(ids(&cas), ids_before);
        assert_eq!((cas.jobs_completed, cas.jobs_requeued), (0, 0));
        // The next calls that do succeed use the ids the faults did not burn.
        cas.run_scheduler().unwrap();
        cas.accept_match(1, job).unwrap();
        cas.heartbeat(1, HeartbeatReport::Completed { job_id: job }).unwrap();
        let ids: Vec<(i64, i64)> = cas
            .database()
            .session()
            .query_as("SELECT history_id, machine_id FROM job_history", ())
            .unwrap();
        assert_eq!(ids, vec![(1, 1)]);
    }

    /// One service call is one transaction: on a durable log every call —
    /// each heartbeat kind, `acceptMatch`, `registerMachine`, a three-job
    /// `submitJob` — commits once and forces the log once.
    #[test]
    fn every_service_call_commits_and_syncs_once() {
        use relstore::{DurabilityPolicy, MemDevice};
        let db = Database::open_with_device(Box::new(MemDevice::new()), DurabilityPolicy::Always)
            .unwrap();
        let mut state = CasState::new(Arc::new(db)).unwrap();
        let mut registry = ServiceRegistry::new();
        register_services(&mut registry);
        let call = |state: &mut CasState, req: SoapRequest| {
            let before = state.database().stats();
            let resp = registry.dispatch_external(state, &req);
            assert!(!matches!(resp.status, appserver::SoapStatus::Fault), "{req:?}: {resp:?}");
            let d = state.database().stats().delta_since(&before);
            assert_eq!((d.commits, d.wal_fsyncs), (1, 1), "{req:?}");
            resp
        };
        let heartbeat = |status: &str, job_id: i64| {
            SoapRequest::new("heartbeat")
                .with("machine_id", 1i64)
                .with("status", status)
                .with("job_id", job_id)
        };

        call(&mut state, SoapRequest::new("registerMachine").with("machine_id", 1i64));
        let resp = call(
            &mut state,
            SoapRequest::new("submitJob").with("owner", "alice").with("count", 3i64),
        );
        let job = resp.field("first_job_id").as_int().unwrap();
        assert_eq!(state.database().table_len("jobs").unwrap(), 3);

        // FIFO: the first job is matched, fails, is requeued as the oldest
        // idle job, and the second pass matches it again.
        for outcome in ["failed", "completed"] {
            let before = state.database().stats();
            assert_eq!(state.run_scheduler().unwrap(), 1);
            let d = state.database().stats().delta_since(&before);
            assert_eq!((d.commits, d.wal_fsyncs), (1, 1), "scheduler pass");

            let resp = call(&mut state, heartbeat("idle", 0));
            assert_eq!(resp.field("job_id"), Value::Int(job));
            call(
                &mut state,
                SoapRequest::new("acceptMatch").with("machine_id", 1i64).with("job_id", job),
            );
            call(&mut state, heartbeat("running", job));
            call(&mut state, heartbeat(outcome, job));
        }
        assert_eq!((state.jobs_requeued, state.jobs_completed), (1, 1));
        // Re-registration and a configuration write are calls like any other.
        call(&mut state, SoapRequest::new("registerMachine").with("machine_id", 1i64));
        call(&mut state, SoapRequest::new("setConfig").with("name", "scheduler").with("value", "x"));
    }

    /// The log as a budget: the commonest call, a heartbeat with nothing to
    /// report, appends one record — its transaction, holding one `Update` of
    /// the machine's row — and the `Update` carries one image of that row,
    /// not two.
    #[test]
    fn an_idle_heartbeat_logs_one_record_within_its_byte_budget() {
        let mut cas = cas();
        cas.register_machine(1, "vm1.cluster.example", 1.0, 0, 2048).unwrap();
        cas.heartbeat(1, HeartbeatReport::Idle).unwrap();
        let before = cas.database().stats();
        cas.heartbeat(1, HeartbeatReport::Idle).unwrap();
        let d = cas.database().stats().delta_since(&before);
        assert_eq!((d.commits, d.wal_records), (1, 1));
        // 135 today (16 for the transaction, 119 for the `Update`); a
        // second row image would make it 222.
        assert!(d.wal_bytes <= 160, "{} bytes for one heartbeat", d.wal_bytes);
    }

    /// A restarted CAS is the CAS that crashed: the indexes the schema
    /// creates by `CREATE INDEX` come back with the log, so the statements
    /// that relied on them still do.
    #[test]
    fn a_cas_restarted_from_its_log_keeps_its_indexes() {
        use relstore::{DurabilityPolicy, MemDevice};
        let open = |log: Vec<u8>| {
            let device = Box::new(MemDevice::with_contents(log));
            Arc::new(Database::open_with_device(device, DurabilityPolicy::Always).unwrap())
        };
        let plans = |db: &Database| -> Vec<String> {
            [
                "SELECT job_id FROM matches WHERE machine_id = 1 ORDER BY match_id LIMIT 1",
                "SELECT COUNT(*) FROM jobs WHERE state = 'idle'",
            ]
            .iter()
            .map(|sql| {
                // The access path (`detail` of the first step), not its
                // row estimate: dead versions do not survive a restart.
                let plan = db.query(&format!("EXPLAIN {sql}")).unwrap();
                plan.rows[0].get(2).to_string()
            })
            .collect()
        };
        let db = open(Vec::new());
        let mut cas = CasState::new(Arc::clone(&db)).unwrap();
        db.execute("CREATE UNIQUE INDEX ON machines (name)").unwrap();
        for m in 1..=4 {
            cas.register_machine(m, &format!("vm{m}"), 1.0, 0, 1024).unwrap();
        }
        cas.submit_jobs("alice", 1000, 3).unwrap();
        assert_eq!(cas.run_scheduler().unwrap(), 3);
        let before = plans(&db);
        assert!(before[0].contains("matches.machine_id"), "{before:?}");
        assert!(before[1].contains("point lookup on jobs.state"), "{before:?}");

        // Crash; no checkpoint was ever taken.
        let db = open(db.durable_log_bytes().unwrap());
        let mut cas = CasState::new(Arc::clone(&db)).unwrap();
        assert_eq!(plans(&db), before);
        let s0 = db.stats();
        cas.heartbeat(4, HeartbeatReport::Idle).unwrap();
        let d = db.stats().delta_since(&s0);
        assert_eq!(d.rows_scanned, 0, "an idle heartbeat scans nothing");
        assert!(d.index_lookups >= 1);
        let dup = cas.register_machine(9, "vm1", 1.0, 0, 1024).unwrap_err();
        assert_eq!(dup.class(), relstore::ErrorClass::Constraint, "{dup}");
        db.check_consistency().unwrap();
    }

    /// A CAS started over a database that already holds a pool carries on
    /// after the ids that pool used.
    #[test]
    fn a_restarted_cas_resumes_its_id_counters() {
        let mut cas = cas();
        cas.register_machine(1, "vm1", 1.0, 0, 1024).unwrap();
        let done = cas.submit_job("alice", 1000).unwrap();
        let queued = cas.submit_job("alice", 1000).unwrap();
        cas.run_scheduler().unwrap();
        cas.accept_match(1, done).unwrap();
        cas.heartbeat(1, HeartbeatReport::Completed { job_id: done }).unwrap();
        cas.record_provenance(done, "exe", "in", "out").unwrap();

        let mut restarted = CasState::new(Arc::clone(cas.database())).unwrap();
        assert_eq!(restarted.submit_job("bob", 1000).unwrap(), queued + 1);
        restarted.register_machine(1, "vm1", 1.0, 0, 1024).unwrap();
        assert_eq!(restarted.run_scheduler().unwrap(), 1);
        restarted.accept_match(1, queued).unwrap();
        restarted.heartbeat(1, HeartbeatReport::Completed { job_id: queued }).unwrap();
        assert_eq!(restarted.record_provenance(queued, "exe", "in", "out2").unwrap(), 2);
        assert_eq!(restarted.database().table_len("job_history").unwrap(), 2);

        // A finished job's id is never handed out again, even once `jobs`
        // has drained and only `job_history` remembers it.
        restarted.run_scheduler().unwrap();
        restarted.accept_match(1, queued + 1).unwrap();
        restarted.heartbeat(1, HeartbeatReport::Completed { job_id: queued + 1 }).unwrap();
        assert_eq!(restarted.database().table_len("jobs").unwrap(), 0);
        let mut again = CasState::new(Arc::clone(restarted.database())).unwrap();
        assert_eq!(again.submit_job("carol", 1000).unwrap(), queued + 2);
    }

    #[test]
    fn configuration_management_round_trip() {
        let cas = cas();
        assert_eq!(cas.get_config("max_requeues").unwrap().as_deref(), Some("5"));
        cas.set_config("scheduler", "priority").unwrap();
        assert_eq!(cas.get_config("scheduler").unwrap().as_deref(), Some("priority"));
        assert_eq!(cas.get_config("nonexistent").unwrap(), None);
        cas.set_config("new_key", "new_value").unwrap();
        assert_eq!(cas.get_config("new_key").unwrap().as_deref(), Some("new_value"));
    }

    #[test]
    fn history_usage_report_groups_by_owner() {
        let mut cas = cas();
        cas.register_machine(1, "vm1", 1.0, 0, 1024).unwrap();
        for (owner, runtime) in [("alice", 60_000), ("alice", 120_000), ("bob", 30_000)] {
            let job = cas.submit_job(owner, runtime).unwrap();
            cas.run_scheduler().unwrap();
            cas.accept_match(1, job).unwrap();
            cas.heartbeat(1, HeartbeatReport::Completed { job_id: job }).unwrap();
        }
        let usage = cas.usage_by_owner().unwrap();
        assert_eq!(usage.len(), 2);
        assert_eq!(usage[0].owner, "alice");
        assert_eq!(usage[0].jobs, 2);
        assert!(
            (usage[0].machine_minutes - 3.0).abs() < 1e-9,
            "alice used 3 machine-minutes"
        );
        assert_eq!(usage[1].owner, "bob");

        // The report joins users, so every line carries the owner's
        // fair-share priority (0.5 at registration).
        assert!((usage[0].priority - 0.5).abs() < 1e-9);

        // An owner whose history rows carry NULL runtimes reports zero time
        // rather than poisoning the whole report (SUM over NULLs is NULL).
        cas.database()
            .session()
            .execute(
                "INSERT INTO users (name, priority, created) VALUES (?, 0.5, ?)",
                ("carol", 0i64),
            )
            .unwrap();
        cas.database()
            .session()
            .execute(
                "INSERT INTO job_history (history_id, job_id, owner) VALUES (?, ?, ?)",
                (999i64, 999i64, "carol"),
            )
            .unwrap();
        let usage = cas.usage_by_owner().unwrap();
        assert_eq!(usage.len(), 3);
        assert_eq!(usage[2].owner, "carol");
        assert_eq!(usage[2].machine_minutes, 0.0);

        // History rows whose owner never registered are not reported: the
        // report is an inner join (LEFT OUTER JOIN remains future work).
        cas.database()
            .session()
            .execute(
                "INSERT INTO job_history (history_id, job_id, owner) VALUES (?, ?, ?)",
                (1000i64, 1000i64, "ghost"),
            )
            .unwrap();
        assert_eq!(cas.usage_by_owner().unwrap().len(), 3);
    }

    /// The usage report's work, as a budget in engine counters: it reads
    /// every history row once, builds `users` once, and allocates only one
    /// row per reported owner — never a copy of `job_history`, nor of the
    /// `users` build side, which holds references into the heap. Every
    /// report builds its side afresh, so a second one costs what the first
    /// did.
    #[test]
    fn usage_report_materializes_users_and_groups_not_history() {
        const USERS: u64 = 5; // the fifth never ran a job
        const HISTORY: u64 = 40; // three of them by an owner who never registered
        const GHOSTS: u64 = 3;
        let cas = cas();
        let db = cas.database();
        let user = db.prepare("INSERT INTO users (name, priority, created) VALUES (?, 0.5, 0)").unwrap();
        db.session()
            .execute_batch(&user, (0..USERS).map(|u| (format!("user{u}"),)))
            .unwrap();
        let done = db
            .prepare("INSERT INTO job_history (history_id, job_id, owner, runtime_ms) VALUES (?, ?, ?, 60000)")
            .unwrap();
        let owner = |i: u64| match i {
            i if i < GHOSTS => "ghost".to_string(),
            i => format!("user{}", i % (USERS - 1)),
        };
        db.session()
            .execute_batch(&done, (0..HISTORY).map(|i| (i as i64, i as i64, owner(i))))
            .unwrap();

        let report = |cas: &CasState| {
            let before = cas.database().stats();
            let usage = cas.usage_by_owner().unwrap();
            assert_eq!(usage.len() as u64, USERS - 1);
            assert_eq!(usage.iter().map(|u| u.jobs as u64).sum::<u64>(), HISTORY - GHOSTS);
            cas.database().stats().delta_since(&before)
        };
        for run in [report(&cas), report(&cas)] {
            assert_eq!(run.rows_scanned, HISTORY + USERS);
            assert_eq!(run.rows_read, HISTORY + USERS + (HISTORY - GHOSTS));
            assert_eq!(run.index_lookups, 0);
            assert_eq!(run.rows_materialized, USERS - 1, "the groups alone");
        }
    }

    /// Exact-repeat budgets: what each call of a scripted lifecycle costs
    /// the engine — statements, rows read, rows scanned, index lookups — in
    /// a pool of 10 machines and of 1,000, each machine with one job
    /// queued. Every call but the scheduler pass costs the same at both
    /// sizes; the pass reads the idle machines and jobs it pairs and writes
    /// one match per pair. A point lookup that degrades to a scan, or a
    /// statement that grows with the pool, changes a number here.
    #[test]
    fn service_calls_cost_exactly_their_budget_at_two_pool_sizes() {
        // (statements_executed, rows_read, rows_scanned, index_lookups)
        type Budget = (u64, u64, u64, u64);
        let per_machine: [(&str, Budget); 7] = [
            ("register", (3, 0, 0, 1)),
            ("submit", (2, 1, 0, 1)),
            ("idle heartbeat, matched", (2, 2, 0, 2)),
            ("accept", (5, 4, 0, 4)),
            ("running heartbeat", (2, 2, 0, 2)),
            ("completed heartbeat", (5, 5, 0, 5)),
            ("idle heartbeat, unmatched", (2, 2, 0, 2)),
        ];
        let scheduler_pass: [(i64, Budget); 2] =
            [(10, (32, 40, 0, 22)), (1_000, (3_002, 4_000, 0, 2_002))];
        for (machines, pass) in scheduler_pass {
            let mut cas = cas();
            let mut got: Vec<(&str, Budget)> = Vec::new();
            let mut cost = |cas: &mut CasState, kind, call: &mut dyn FnMut(&mut CasState)| {
                let before = cas.database().stats();
                call(cas);
                let d = cas.database().stats().delta_since(&before);
                let budget = (d.statements_executed, d.rows_read, d.rows_scanned, d.index_lookups);
                got.push((kind, budget));
            };
            for m in 1..machines {
                cas.register_machine(m, &format!("vm{m}"), 1.0, 0, 1024).unwrap();
            }
            cost(&mut cas, "register", &mut |cas| {
                cas.register_machine(machines, "last", 1.0, 0, 1024).unwrap()
            });
            cas.submit_jobs("alice", 1_000, machines - 1).unwrap();
            let mut job = 0;
            cost(&mut cas, "submit", &mut |cas| job = cas.submit_job("alice", 1_000).unwrap());
            cost(&mut cas, "scheduler pass", &mut |cas| {
                assert_eq!(cas.run_scheduler().unwrap(), machines as usize)
            });
            // FIFO: machine 1 holds the oldest job.
            let first = job - machines + 1;
            cost(&mut cas, "idle heartbeat, matched", &mut |cas| {
                let reply = cas.heartbeat(1, HeartbeatReport::Idle).unwrap();
                assert_eq!(reply, HeartbeatReply::MatchInfo { job_id: first })
            });
            cost(&mut cas, "accept", &mut |cas| cas.accept_match(1, first).unwrap());
            cost(&mut cas, "running heartbeat", &mut |cas| {
                cas.heartbeat(1, HeartbeatReport::Running { job_id: first }).unwrap();
            });
            cost(&mut cas, "completed heartbeat", &mut |cas| {
                cas.heartbeat(1, HeartbeatReport::Completed { job_id: first }).unwrap();
            });
            cost(&mut cas, "idle heartbeat, unmatched", &mut |cas| {
                assert_eq!(cas.heartbeat(1, HeartbeatReport::Idle).unwrap(), HeartbeatReply::Ok)
            });
            let mut want: Vec<(&str, Budget)> = per_machine.to_vec();
            want.insert(2, ("scheduler pass", pass));
            assert_eq!(got, want, "{machines} machines");
        }
    }

    #[test]
    fn provenance_answers_the_papers_question() {
        let mut cas = cas();
        let job = cas.submit_job("sci", 60_000).unwrap();
        cas.record_provenance(job, "simulate-v2.1", "raw-2006-11.dat", "results-2006-11.out")
            .unwrap();
        cas.record_provenance(job, "simulate-v2.1", "raw-2006-12.dat", "results-2006-12.out")
            .unwrap();
        let lineage = cas.provenance_of("results-2006-11.out").unwrap();
        assert_eq!(lineage.len(), 1);
        assert_eq!(lineage[0].job_id, job);
        assert_eq!(lineage[0].executable, "simulate-v2.1");
        assert_eq!(lineage[0].input_dataset, "raw-2006-11.dat");
        assert!(cas.provenance_of("unknown.out").unwrap().is_empty());
    }

    #[test]
    fn machine_reboots_accumulate_history() {
        let mut cas = cas();
        cas.register_machine(1, "vm1", 1.0, 0, 2048).unwrap();
        cas.register_machine(1, "vm1", 1.0, 0, 2048).unwrap();
        assert_eq!(cas.database().table_len("machines").unwrap(), 1);
        assert_eq!(cas.database().table_len("machine_history").unwrap(), 2);
    }

    #[test]
    fn services_registry_dispatches_external_operations() {
        use appserver::SoapStatus;
        let mut registry = ServiceRegistry::new();
        register_services(&mut registry);
        let mut state = cas();

        let resp = registry.dispatch_external(
            &mut state,
            &SoapRequest::new("registerMachine").with("machine_id", 5i64).with("name", "vm5"),
        );
        assert!(resp.is_success());
        let resp = registry.dispatch_external(
            &mut state,
            &SoapRequest::new("submitJob")
                .with("owner", "alice")
                .with("runtime_ms", 60_000i64)
                .with("count", 3i64),
        );
        assert!(resp.is_success());
        assert_eq!(resp.field("count"), Value::Int(3));

        state.run_scheduler().unwrap();
        let resp = registry.dispatch_external(
            &mut state,
            &SoapRequest::new("heartbeat").with("machine_id", 5i64).with("status", "idle"),
        );
        assert_eq!(resp.status, SoapStatus::MatchInfo);
        let job_id = resp.field("job_id").as_int().unwrap();
        let resp = registry.dispatch_external(
            &mut state,
            &SoapRequest::new("acceptMatch").with("machine_id", 5i64).with("job_id", job_id),
        );
        assert!(resp.is_success());

        // The fine-grained bean operation is rejected externally.
        let resp = registry.dispatch_external(
            &mut state,
            &SoapRequest::new("jobBean.setState").with("job_id", job_id).with("state", "held"),
        );
        assert!(!resp.is_success());
        // But reachable from inside the application-logic layer.
        let resp = registry.dispatch_internal(
            &mut state,
            &SoapRequest::new("jobBean.setState").with("job_id", job_id).with("state", "held"),
        );
        assert!(resp.is_success());

        let resp = registry.dispatch_external(&mut state, &SoapRequest::new("queryPool"));
        assert!(resp.is_success());
        assert_eq!(resp.field("total_machines"), Value::Int(1));
    }
}
