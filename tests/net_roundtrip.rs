//! End-to-end tests of the network subsystem: the appserver's container
//! served over TCP, MVCC invariants preserved across the wire, rollback on
//! dropped connections, pooling, admission control and graceful shutdown.

use cluster_sim::{ClusterSpec, JobSpec, SimDuration, SimTime};
use condorj2::{CondorJ2Config, CondorJ2Simulation};
use relstore::{
    Database, Error, ExecResult, FromRow, QueryResult, RowView, Session, Value,
};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use wire::protocol::{encode_row_page_into, frame_into, read_frame_into};
use wire::{serve, serve_with, Client, ClientPool, ServerConfig};

/// Writes one frame the way a raw peer would: framed by [`frame_into`],
/// sent with one `write_all`.
fn write_frame(w: &mut impl Write, payload: &[u8]) -> relstore::Result<u64> {
    let mut frame = Vec::with_capacity(payload.len() + 4);
    let written = frame_into(&mut frame, |buf| buf.extend_from_slice(payload))?;
    w.write_all(&frame).map_err(|e| Error::net(e.to_string()))?;
    Ok(written)
}

/// Reads one frame payload off a raw socket.
fn read_frame(r: &mut impl Read) -> relstore::Result<Vec<u8>> {
    let mut payload = Vec::new();
    read_frame_into(r, &mut payload)?;
    Ok(payload)
}

/// One [`wire::Response::RowPage`] payload on its own.
fn encode_row_page(rows: &[relstore::Row], last: bool) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_row_page_into(&mut buf, rows, last);
    buf
}

#[derive(Debug, PartialEq)]
struct StateCount {
    state: Option<String>,
    n: i64,
}

impl FromRow for StateCount {
    fn from_row(row: &RowView<'_>) -> relstore::Result<Self> {
        Ok(StateCount {
            state: row.get("state")?,
            n: row.get("n")?,
        })
    }
}

/// The paper's scenario, remote: drive a CondorJ2 pool (CAS + appserver
/// container over one database) locally, then serve that same database over
/// TCP. The operational queries an administrator would run must return the
/// identical results through the embedded engine and through the wire — and
/// typed `FromRow` decoding works unchanged on both transports.
#[test]
fn appserver_container_scenario_matches_over_the_wire() {
    let spec = ClusterSpec::uniform_fast(6, 2);
    let mut pool = CondorJ2Simulation::new(CondorJ2Config::default(), &spec, 7);
    pool.submit(JobSpec::fixed_batch(40, SimDuration::from_secs(45), "astro"));
    pool.submit(JobSpec::fixed_batch(20, SimDuration::from_secs(90), "bio"));
    pool.run_until(SimTime::from_mins(4));

    let db = Arc::clone(pool.cas().database());
    let server = serve(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let queries = [
        "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state ORDER BY state",
        "SELECT owner, COUNT(*) AS finished FROM job_history GROUP BY owner ORDER BY owner",
        "SELECT machine_id, state FROM machines ORDER BY machine_id",
        "SELECT name, value FROM config ORDER BY name",
        "SELECT COUNT(*) AS running_now FROM runs",
    ];
    for sql in queries {
        let local = db.query(sql).unwrap();
        let remote = client.query(sql, ()).unwrap();
        assert_eq!(remote, local, "remote result diverged for: {sql}");
    }

    // Typed decoding is transport-agnostic: the same FromRow struct decodes
    // the local session's rows and the remote client's rows.
    let sql = "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state ORDER BY state";
    let local: Vec<StateCount> = db.session().query_as(sql, ()).unwrap();
    let remote: Vec<StateCount> = client.query_as(sql, ()).unwrap();
    assert_eq!(remote, local);
    assert!(!remote.is_empty(), "the simulation must have produced jobs");

    // Writes flow the other way too: a remote DDL + batched insert is
    // immediately visible to the embedded engine.
    client
        .execute(
            "CREATE TABLE net_audit (id INT PRIMARY KEY, note TEXT)",
            (),
        )
        .unwrap();
    let ins = client.prepare("INSERT INTO net_audit VALUES (?, ?)").unwrap();
    let n = client
        .execute_batch(ins, (0..16i64).map(|i| (i, format!("entry-{i}"))))
        .unwrap();
    assert_eq!(n, 16);
    assert_eq!(db.table_len("net_audit").unwrap(), 16);
    let notes: Vec<String> = db
        .session()
        .query_scalars("SELECT note FROM net_audit WHERE id < ? ORDER BY id", (2i64,))
        .unwrap();
    assert_eq!(notes, vec!["entry-0".to_string(), "entry-1".to_string()]);

    // The server counted its transport work.
    let stats = server.stats();
    assert!(stats.net_bytes_in > 0);
    assert!(stats.net_bytes_out > 0);
    assert!(stats.frames_decoded > 0);
    assert!(stats.active_connections >= 1);

    drop(client);
    server.shutdown();
    db.check_consistency().unwrap();
}

/// The MVCC acceptance property, end to end over the wire: N client threads
/// run point selects over loopback against one continuously committing
/// writer (itself remote) and finish with **zero** reader errors.
#[test]
fn remote_readers_never_fail_against_a_committing_writer() {
    const ROWS: i64 = 500;
    const READERS: usize = 4;
    const ITERS: u64 = 200;

    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, owner TEXT NOT NULL, runtime_ms INT)")
        .unwrap();
    let ins = db.prepare("INSERT INTO jobs VALUES (?, ?, 0)").unwrap();
    db.session()
        .execute_batch(&ins, (0..ROWS).map(|i| (i, format!("user{}", i % 7))))
        .unwrap();

    let server = serve(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let stop = AtomicBool::new(false);
    let reader_errors = AtomicU64::new(0);
    let writer_commits = AtomicU64::new(0);

    std::thread::scope(|s| {
        let mut readers = Vec::new();
        for t in 0..READERS {
            let (stop, reader_errors) = (&stop, &reader_errors);
            readers.push(s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let select = client
                    .prepare("SELECT owner, runtime_ms FROM jobs WHERE job_id = ?")
                    .unwrap();
                for i in 0..ITERS {
                    let id = ((t as u64 * 131 + i * 17) % ROWS as u64) as i64;
                    match client.query(select, (id,)) {
                        Ok(r) => assert_eq!(r.len(), 1, "row {id} must exist"),
                        Err(_) => {
                            reader_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                let _ = stop;
            }));
        }
        let writer = {
            let (stop, writer_commits) = (&stop, &writer_commits);
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let update = client
                    .prepare("UPDATE jobs SET runtime_ms = runtime_ms + 1 WHERE job_id = ?")
                    .unwrap();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    client
                        .execute(update, ((i % ROWS as u64) as i64,))
                        .expect("the only writer cannot conflict");
                    writer_commits.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            })
        };
        for handle in readers {
            handle.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    });

    assert_eq!(
        reader_errors.load(Ordering::Relaxed),
        0,
        "MVCC readers over the wire must never fail against a writer"
    );
    assert!(
        writer_commits.load(Ordering::Relaxed) > 0,
        "the writer must actually have been committing during the reads"
    );
    server.shutdown();
    db.check_consistency().unwrap();
}

/// A connection that dies mid-transaction must roll back server-side and
/// release its locks — the network analogue of dropping an RAII guard.
#[test]
fn dropped_connection_mid_transaction_rolls_back() {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT)").unwrap();
    db.execute("INSERT INTO jobs VALUES (1, 'idle')").unwrap();
    let server = serve(Arc::clone(&db), "127.0.0.1:0").unwrap();

    let mut dying = Client::connect(server.local_addr()).unwrap();
    dying.begin().unwrap();
    let n = dying
        .execute("UPDATE jobs SET state = ? WHERE job_id = ?", ("held", 1i64))
        .unwrap()
        .affected();
    assert_eq!(n, 1);
    assert!(dying.in_transaction());
    // The client vanishes without committing (crash, network partition...).
    drop(dying);

    // The server rolls back as soon as it observes the close; a second
    // writer acquires the lock within a few retries.
    let mut other = Client::connect(server.local_addr()).unwrap();
    other
        .with_retries(50, |c| {
            c.execute("UPDATE jobs SET state = ? WHERE job_id = ?", ("done", 1i64))
        })
        .unwrap();
    let state: Vec<String> = other
        .query_scalars("SELECT state FROM jobs WHERE job_id = 1", ())
        .unwrap();
    assert_eq!(state, vec!["done".to_string()], "the dropped txn's update is gone");

    // The explicit RAII guard behaves the same over the wire.
    {
        let mut txn = other.transaction().unwrap();
        txn.execute("DELETE FROM jobs", ()).unwrap();
        // Dropped without commit.
    }
    assert_eq!(db.table_len("jobs").unwrap(), 1);
    drop(other);
    server.shutdown();
}

/// Pool behaviour: healthy connections are reused, broken or mid-transaction
/// ones are discarded, and `with_retries` takes a fresh connection per
/// attempt. Admission control turns away clients beyond the limit with a
/// retryable busy handshake.
/// What the parity script needs from a transport: the calls below are the
/// whole difference between driving a [`Session`] and a [`Client`].
trait Transport {
    fn run(&mut self, sql: &str, params: Vec<Value>) -> relstore::Result<ExecResult>;
    fn run_query_batch(
        &mut self,
        sql: &str,
        bindings: Vec<Vec<Value>>,
    ) -> relstore::Result<Vec<QueryResult>>;
    fn txn_open(&self) -> bool;
}

impl Transport for Session<'_> {
    fn run(&mut self, sql: &str, params: Vec<Value>) -> relstore::Result<ExecResult> {
        self.execute(sql, params)
    }
    fn run_query_batch(
        &mut self,
        sql: &str,
        bindings: Vec<Vec<Value>>,
    ) -> relstore::Result<Vec<QueryResult>> {
        let stmt = self.database().prepare(sql)?;
        self.query_batch(&stmt, bindings)
    }
    fn txn_open(&self) -> bool {
        self.in_transaction()
    }
}

impl Transport for Client {
    fn run(&mut self, sql: &str, params: Vec<Value>) -> relstore::Result<ExecResult> {
        self.execute(sql, params)
    }
    fn run_query_batch(
        &mut self,
        sql: &str,
        bindings: Vec<Vec<Value>>,
    ) -> relstore::Result<Vec<QueryResult>> {
        self.query_batch(sql, bindings)
    }
    fn txn_open(&self) -> bool {
        self.in_transaction()
    }
}

enum Step {
    Run(&'static str, Vec<Value>),
    QueryBatch(&'static str, Vec<Vec<Value>>),
}

#[derive(Debug, PartialEq)]
enum Seen {
    One(relstore::Result<ExecResult>),
    Batch(relstore::Result<Vec<QueryResult>>),
}

/// SQL-level transaction control, a parameterised write, a batched read of
/// the transaction's own writes, both misuse errors, and a transaction left
/// open at the end for the caller to abandon.
fn parity_script() -> Vec<Step> {
    let by_id = "SELECT job_id, state FROM jobs WHERE job_id = ?";
    vec![
        Step::Run("BEGIN", vec![]),
        Step::Run("INSERT INTO jobs VALUES (?, ?)", vec![10i64.into(), "idle".into()]),
        Step::Run("UPDATE jobs SET state = ? WHERE job_id = ?", vec!["held".into(), 1i64.into()]),
        Step::QueryBatch(by_id, vec![vec![1i64.into()], vec![10i64.into()], vec![99i64.into()]]),
        Step::Run("BEGIN", vec![]),
        Step::Run("COMMIT", vec![7i64.into()]),
        Step::Run("COMMIT", vec![]),
        Step::Run("COMMIT", vec![]),
        Step::Run("ROLLBACK", vec![]),
        Step::Run("SELECT * FROM jobs ORDER BY job_id", vec![]),
        Step::QueryBatch("DELETE FROM jobs WHERE job_id = ?", vec![vec![1i64.into()]]),
        Step::Run("SELECT * FROM jobs WHERE job_id = ?", vec![]),
        Step::Run("BEGIN", vec![]),
        Step::Run("DELETE FROM jobs WHERE job_id = ?", vec![1i64.into()]),
    ]
}

/// Runs the script, recording every outcome with the transport's
/// transaction state after it.
fn run_script(conn: &mut impl Transport) -> Vec<(Seen, bool)> {
    parity_script()
        .into_iter()
        .map(|step| {
            let seen = match step {
                Step::Run(sql, params) => Seen::One(conn.run(sql, params)),
                Step::QueryBatch(sql, bindings) => Seen::Batch(conn.run_query_batch(sql, bindings)),
            };
            (seen, conn.txn_open())
        })
        .collect()
}

/// The same script through an embedded `Session` and through a
/// `wire::Client` gives the same results, the same errors and the same
/// transaction-state trace — the connection *is* a session — including what
/// happens to a transaction whose owner goes away.
#[test]
fn wire_and_embedded_sessions_are_indistinguishable() {
    let fresh = || {
        let db = Arc::new(Database::new());
        db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT)").unwrap();
        db.execute("INSERT INTO jobs VALUES (1, 'idle'), (2, 'idle')").unwrap();
        db
    };
    // After the owner vanished mid-transaction its delete is undone and its
    // lock released (the server notices a closed socket asynchronously, so
    // the next writer may need a few retries).
    let aftermath = |db: &Database| {
        db.session()
            .with_retries(200, |s| s.execute("UPDATE jobs SET state = 'done' WHERE job_id = 2", ()))
            .unwrap();
        db.query("SELECT * FROM jobs ORDER BY job_id").unwrap()
    };

    let embedded_db = fresh();
    let mut session = embedded_db.session();
    let embedded = run_script(&mut session);
    drop(session);
    let embedded_after = aftermath(&embedded_db);

    let wire_db = fresh();
    let server = serve(Arc::clone(&wire_db), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let remote = run_script(&mut client);
    drop(client);
    let remote_after = aftermath(&wire_db);
    server.shutdown();

    assert_eq!(remote.len(), embedded.len());
    for (i, (remote, embedded)) in remote.iter().zip(&embedded).enumerate() {
        assert_eq!(remote, embedded, "step {i} diverged between transports");
    }
    assert_eq!(remote_after, embedded_after);

    // The script exercised what it claims to.
    let open: Vec<bool> = embedded.iter().map(|(_, open)| *open).collect();
    assert_eq!(
        open,
        [true, true, true, true, true, true, false, false, false, false, false, false, true, true]
    );
    let failed: Vec<usize> = embedded
        .iter()
        .enumerate()
        .filter(|(_, (seen, _))| matches!(seen, Seen::One(Err(_)) | Seen::Batch(Err(_))))
        .map(|(i, _)| i)
        .collect();
    // Duplicate BEGIN, COMMIT with a parameter, COMMIT and ROLLBACK with no
    // transaction, a DML handed to query_batch, an arity mismatch.
    assert_eq!(failed, [4, 5, 7, 8, 10, 11]);
    assert_eq!(embedded_after.len(), 3, "the abandoned delete rolled back");
}

#[test]
fn pool_reuse_discard_and_admission_control() {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 0)").unwrap();
    let server = serve(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let pool = ClientPool::new(server.local_addr().to_string(), 2);

    // A clean checkout/checkin is reused, not re-dialed.
    {
        let mut conn = pool.get().unwrap();
        conn.execute("UPDATE t SET v = v + 1 WHERE id = 1", ()).unwrap();
    }
    assert_eq!(pool.open_connections(), 1);
    {
        let mut conn = pool.get().unwrap();
        let v: Vec<i64> = conn.query_scalars("SELECT v FROM t WHERE id = 1", ()).unwrap();
        assert_eq!(v, vec![1]);
    }
    assert_eq!(pool.open_connections(), 1, "the healthy connection was reused");

    // A connection returned mid-transaction is discarded — and the server
    // rolls its transaction back, releasing the table lock for others.
    {
        let mut conn = pool.get().unwrap();
        conn.begin().unwrap();
        conn.execute("UPDATE t SET v = 99 WHERE id = 1", ()).unwrap();
        // Returned to the pool with the transaction still open.
    }
    assert_eq!(pool.open_connections(), 0, "a mid-transaction connection is discarded");

    // The same holds when the transaction was opened through SQL text in an
    // unusual spelling: the server's Ack carries the post-statement
    // transaction state, so the client does not depend on parsing the SQL.
    {
        let mut conn = pool.get().unwrap();
        conn.execute("BEGIN;", ()).unwrap();
        assert!(conn.in_transaction(), "txn state comes from the server's Ack");
        conn.execute("UPDATE t SET v = 77 WHERE id = 1", ()).unwrap();
    }
    assert_eq!(pool.open_connections(), 0, "SQL-text BEGIN; still marks the connection");
    pool.with_retries(50, |c| {
        c.execute("UPDATE t SET v = 2 WHERE id = 1", ())
    })
    .unwrap();
    let mut conn = pool.get().unwrap();
    let v: Vec<i64> = conn.query_scalars("SELECT v FROM t WHERE id = 1", ()).unwrap();
    assert_eq!(v, vec![2], "the abandoned transaction rolled back");
    drop(conn);

    // Admission control: with max_connections = 1 a second concurrent
    // client is refused with a *retryable* busy handshake.
    let small = serve_with(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let first = Client::connect(small.local_addr()).unwrap();
    let err = Client::connect(small.local_addr()).unwrap_err();
    assert!(err.is_retryable(), "admission rejection should invite a retry: {err}");
    assert!(matches!(err, Error::Busy(_)));
    drop(first);
    small.shutdown();
    server.shutdown();
}

/// Graceful shutdown: in-flight statements finish and their responses
/// arrive; afterwards the port stops answering.
#[test]
fn shutdown_drains_in_flight_statements() {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    let ins = db.prepare("INSERT INTO t VALUES (?)").unwrap();
    db.session()
        .execute_batch(&ins, (0..2000i64).map(|i| (i,)))
        .unwrap();
    let server = serve(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let answered = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let mut seen = 0usize;
        // Keep issuing queries until the server goes away; every response
        // that does arrive must be complete and correct.
        loop {
            match client.query("SELECT COUNT(*) FROM t", ()) {
                Ok(r) => {
                    assert_eq!(r.scalar_int(), Some(2000));
                    seen += 1;
                }
                Err(e) => {
                    assert!(matches!(e, Error::Net(_)), "unexpected failure mode: {e}");
                    break;
                }
            }
        }
        seen
    });
    // Let the client get some requests through, then shut down under it.
    std::thread::sleep(std::time::Duration::from_millis(100));
    server.shutdown();
    let seen = answered.join().unwrap();
    assert!(seen > 0, "the client must have been served before shutdown");
    // The port no longer accepts relstore connections.
    assert!(Client::connect(addr).is_err());
}

/// A client that goes silent at a frame boundary is reaped after
/// `idle_timeout`: its open transaction rolls back, its worker thread frees
/// up for other connections, and the pool recovers transparently — the
/// closed socket surfaces as a transport error that `with_retries`
/// reclassifies as retryable, so the next attempt rides a fresh connection.
#[test]
fn idle_connections_are_reaped_and_the_pool_recovers() {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 0)").unwrap();
    // One worker: until the idle connection is reaped, nobody else gets
    // served, so the second client succeeding proves the worker was freed.
    let server = serve_with(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            poll_interval: std::time::Duration::from_millis(5),
            idle_timeout: std::time::Duration::from_millis(100),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let pool = ClientPool::new(server.local_addr().to_string(), 1);
    {
        let mut conn = pool.get().unwrap();
        conn.begin().unwrap();
        conn.execute("UPDATE t SET v = 99 WHERE id = 1", ()).unwrap();
        // Hold the connection open and idle, past the idle timeout, while
        // it still owns the table lock and the only worker.
        std::thread::sleep(std::time::Duration::from_millis(300));
        // The server has reaped the connection; the next request on it
        // fails with a transport error and marks the client broken.
        let err = conn
            .query("SELECT v FROM t WHERE id = 1", ())
            .unwrap_err();
        assert!(matches!(err, Error::Net(_)), "expected a transport error: {err}");
        assert!(conn.is_broken());
        // Dropped here: the pool discards it instead of reusing it.
    }
    assert_eq!(pool.open_connections(), 0, "the reaped connection was discarded");

    // The reap rolled the transaction back (update gone, lock released) and
    // freed the worker: a fresh pooled connection is served immediately.
    pool.with_retries(10, |c| c.execute("UPDATE t SET v = 1 WHERE id = 1", ()))
        .unwrap();
    let mut conn = pool.get().unwrap();
    let v: Vec<i64> = conn.query_scalars("SELECT v FROM t WHERE id = 1", ()).unwrap();
    assert_eq!(v, vec![1], "the reaped connection's transaction rolled back");
    drop(conn);
    server.shutdown();
}

/// A peer that starts a frame and then stalls cannot pin a worker: after
/// `read_timeout` without progress the server fails the connection and the
/// worker moves on to the next client.
#[test]
fn stalled_mid_frame_client_cannot_pin_the_worker() {
    use std::io::Write;

    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    let server = serve_with(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            poll_interval: std::time::Duration::from_millis(5),
            read_timeout: std::time::Duration::from_millis(100),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // A hand-rolled client: complete the handshake, then announce a frame
    // and send only part of it, stalling forever mid-frame.
    let mut stalled = std::net::TcpStream::connect(server.local_addr()).unwrap();
    wire::protocol::write_hello(&mut stalled).unwrap();
    wire::protocol::read_handshake_response(&mut stalled).unwrap();
    stalled.write_all(&64u32.to_le_bytes()).unwrap(); // frame of 64 bytes...
    stalled.write_all(&[1, 2, 3]).unwrap(); // ...of which only 3 arrive
    stalled.flush().unwrap();

    // The single worker is pinned until the stall timeout fires; then this
    // well-behaved client gets served. Bound the whole wait so a regression
    // fails the test rather than hanging it.
    let addr = server.local_addr();
    let served = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let n: Vec<i64> = client.query_scalars("SELECT id FROM t", ()).unwrap();
        assert_eq!(n, vec![1]);
    });
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !served.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "stalled client pinned the worker past the read timeout"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    served.join().unwrap();
    drop(stalled);
    server.shutdown();
}

/// `Client::query` is `execute(..)?.query()`, as `Session::query` is: a
/// statement that is not a SELECT still runs — `BEGIN` opens the
/// connection's transaction — and then fails with the session's typed error.
#[test]
fn client_query_of_a_non_select_is_the_session_error() {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    let server = serve(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut session = db.session();

    let insert = "INSERT INTO t VALUES (?)";
    let remote = client.query(insert, (1i64,)).unwrap_err();
    let embedded = session.query(insert, (2i64,)).unwrap_err();
    assert!(matches!(remote, Error::Type(_)), "{remote}");
    assert_eq!(remote, embedded);
    assert_eq!(db.table_len("t").unwrap(), 2, "both inserts ran");

    let remote = client.query("BEGIN", ()).unwrap_err();
    assert_eq!(remote, session.query("BEGIN", ()).unwrap_err());
    assert!(client.in_transaction(), "the Ack's txn_open reached the client");
    assert!(session.in_transaction());
    client.execute("DELETE FROM t WHERE id = 1", ()).unwrap();
    client.rollback().unwrap();
    assert!(!client.in_transaction());
    assert_eq!(db.table_len("t").unwrap(), 2, "the delete rolled back");
    drop(client);
    server.shutdown();
}

/// Version 3 speaks to version 3 only: a version 2 hello is refused with a
/// transport error naming both versions, and a frame carrying one of the
/// opcodes version 3 retired is answered with a transport error.
#[test]
fn a_version_2_peer_and_its_retired_opcodes_are_refused() {
    use std::io::Write;

    let db = Arc::new(Database::new());
    let server = serve(Arc::clone(&db), "127.0.0.1:0").unwrap();

    let mut v2 = std::net::TcpStream::connect(server.local_addr()).unwrap();
    v2.write_all(&wire::MAGIC).unwrap();
    v2.write_all(&2u16.to_le_bytes()).unwrap();
    let err = wire::protocol::read_handshake_response(&mut v2).unwrap_err();
    assert!(matches!(err, Error::Net(_)), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("version 3") && msg.contains("spoke 2"), "{msg}");
    assert_eq!(wire::VERSION, 3);

    for op in [3u8, 6, 7, 8] {
        let mut peer = std::net::TcpStream::connect(server.local_addr()).unwrap();
        wire::protocol::write_hello(&mut peer).unwrap();
        wire::protocol::read_handshake_response(&mut peer).unwrap();
        write_frame(&mut peer, &[op]).unwrap();
        let reply = read_frame(&mut peer).unwrap();
        match wire::Response::decode(&reply).unwrap() {
            wire::Response::Err(Error::Net(msg)) => assert!(msg.contains("opcode"), "{msg}"),
            other => panic!("opcode {op}: {other:?}"),
        }
    }
    // The server is unharmed.
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.query("SELECT COUNT(*) FROM rel_stats", ()).unwrap().len(), 1);
    drop(client);
    server.shutdown();
}

/// EXPLAIN is served through the ordinary query path, so a plan rendered
/// over TCP must be byte-identical to the embedded one — and ANALYZE issued
/// by a remote client refreshes the same statistics the embedded planner
/// reads.
#[test]
fn explain_and_analyze_are_transport_agnostic() {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE big (id INT PRIMARY KEY, fk INT)").unwrap();
    db.execute("CREATE INDEX ON big (fk)").unwrap();
    db.execute("CREATE TABLE tiny (id INT PRIMARY KEY, label TEXT)").unwrap();
    for i in 0..120i64 {
        db.execute(&format!("INSERT INTO big VALUES ({i}, {})", i % 6)).unwrap();
    }
    for i in 0..6i64 {
        db.execute(&format!("INSERT INTO tiny VALUES ({i}, 'tag-{i}')")).unwrap();
    }

    let server = serve(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // A remote ANALYZE populates the catalog statistics the embedded
    // planner consults.
    client.execute("ANALYZE", ()).unwrap();
    let stats = db
        .query("SELECT table_name, row_count FROM rel_table_stats WHERE column_name = 'id' ORDER BY table_name")
        .unwrap();
    assert_eq!(stats.len(), 2, "remote ANALYZE must cover both tables");

    let plans = [
        "EXPLAIN SELECT * FROM big WHERE id = 7",
        "EXPLAIN SELECT * FROM big JOIN tiny ON big.fk = tiny.id WHERE tiny.label = 'tag-3'",
        "EXPLAIN SELECT fk, COUNT(*) FROM big GROUP BY fk ORDER BY fk LIMIT 3",
    ];
    for sql in plans {
        let local = db.query(sql).unwrap();
        let remote = client.query(sql, ()).unwrap();
        assert_eq!(remote, local, "plan diverged over the wire for: {sql}");
    }

    // EXPLAIN ANALYZE actually executes, so wall times differ run to run;
    // everything else — shape, operators, estimates, actual row counts —
    // must agree.
    let sql = "EXPLAIN ANALYZE SELECT * FROM big JOIN tiny ON big.fk = tiny.id";
    let local = db.query(sql).unwrap();
    let remote = client.query(sql, ()).unwrap();
    assert_eq!(remote.column_names(), local.column_names());
    assert_eq!(
        remote.column_names(),
        vec!["step", "operator", "detail", "est_rows", "actual_rows", "time_us"]
    );
    assert_eq!(remote.len(), local.len());
    for (r, l) in remote.rows.iter().zip(local.rows.iter()) {
        for col in 0..5 {
            assert_eq!(r.get(col), l.get(col), "EXPLAIN ANALYZE diverged at column {col}");
        }
    }

    // The statistics table itself ships over the wire like any other.
    let sql = "SELECT * FROM rel_table_stats ORDER BY table_name, column_name";
    assert_eq!(client.query(sql, ()).unwrap(), db.query(sql).unwrap());

    server.shutdown();
}

/// The server-side connection of a raw socket: the handshake done by hand,
/// so a test can put frames on the wire exactly as it wants them.
fn raw_connection(addr: std::net::SocketAddr) -> std::net::TcpStream {
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.set_nodelay(true).unwrap();
    raw.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    wire::protocol::write_hello(&mut raw).unwrap();
    wire::protocol::read_handshake_response(&mut raw).unwrap();
    raw
}

/// Appends the frame of a point select of `id` from `t` to `out`.
fn point_select_frame(out: &mut Vec<u8>, id: i64) {
    let req = wire::Request::Execute {
        stmt: wire::StmtRef::Sql("SELECT id FROM t WHERE id = ?".into()),
        params: vec![Value::Int(id)],
        deadline_ms: None,
    };
    wire::protocol::frame_into(out, |buf| req.encode_into(buf)).unwrap();
}

/// Reads a point select's reply off a raw socket and returns its one id.
fn read_point_reply(raw: &mut std::net::TcpStream) -> i64 {
    use wire::Response;

    match Response::decode(&read_frame(raw).unwrap()).unwrap() {
        Response::RowsHeader { columns } => assert_eq!(columns, vec!["id".to_string()]),
        other => panic!("expected a rows header, got {other:?}"),
    }
    match Response::decode(&read_frame(raw).unwrap()).unwrap() {
        Response::RowPage { rows, last: true } if rows.len() == 1 => match rows[0].get(0) {
            Value::Int(id) => *id,
            other => panic!("expected an id, got {other:?}"),
        },
        other => panic!("expected one last page of one row, got {other:?}"),
    }
}

fn table_of_ids(ids: std::ops::Range<i64>) -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    let ins = db.prepare("INSERT INTO t VALUES (?)").unwrap();
    db.session().execute_batch(&ins, ids.map(|i| (i,))).unwrap();
    db
}

/// Two requests that arrive in one segment are both answered, in order,
/// straight from the connection's read buffer: the second one must not
/// sit until the next poll of the socket.
#[test]
fn pipelined_frames_in_one_write_are_answered_in_order() {
    use std::io::Write;

    let db = table_of_ids(1..3);
    let poll_interval = std::time::Duration::from_secs(2);
    let server = serve_with(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            poll_interval,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut raw = raw_connection(server.local_addr());
    let mut two = Vec::new();
    point_select_frame(&mut two, 2);
    point_select_frame(&mut two, 1);
    let start = std::time::Instant::now();
    raw.write_all(&two).unwrap();
    assert_eq!(read_point_reply(&mut raw), 2);
    assert_eq!(read_point_reply(&mut raw), 1);
    assert!(
        start.elapsed() < poll_interval / 2,
        "the pipelined request waited {:?}",
        start.elapsed()
    );
    drop(raw);
    server.shutdown();
}

/// A frame dribbled one byte at a time — every pause longer than the poll
/// interval but shorter than `read_timeout`, the whole frame far longer —
/// is read to the end and answered: progress resets the stall timer.
#[test]
fn a_frame_dribbled_byte_by_byte_is_answered() {
    use std::io::Write;

    let db = table_of_ids(1..3);
    let read_timeout = std::time::Duration::from_millis(200);
    let server = serve_with(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            poll_interval: std::time::Duration::from_millis(5),
            read_timeout,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut raw = raw_connection(server.local_addr());
    let mut frame = Vec::new();
    point_select_frame(&mut frame, 2);
    let start = std::time::Instant::now();
    for byte in &frame {
        raw.write_all(std::slice::from_ref(byte)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(15));
    }
    assert!(start.elapsed() > read_timeout, "the dribble must outlast the stall timeout");
    assert_eq!(read_point_reply(&mut raw), 2);
    drop(raw);
    server.shutdown();
}

/// The byte accounting behind the benchmark's `wire.bytes_*_per_rt`: N
/// prepared point selects add exactly N encoded request frames to
/// `net_bytes_in`, N replies (header + one page) to `net_bytes_out`, and N
/// to `frames_decoded` — however many writes the replies took.
#[test]
fn point_selects_account_their_frames_exactly() {
    use wire::{Request, Response, StmtRef};

    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, owner TEXT)").unwrap();
    let ins = db.prepare("INSERT INTO t VALUES (?, ?)").unwrap();
    db.session()
        .execute_batch(&ins, (0..50i64).map(|i| (i, format!("user{}", i % 7))))
        .unwrap();
    let server = serve(Arc::clone(&db), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let stmt = client.prepare("SELECT id, owner FROM t WHERE id = ?").unwrap();
    // The server records a frame's counters just after sending its reply:
    // wait until what was sent so far is on the books.
    let settled = |frames: u64| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let stats = server.stats();
            if stats.frames_decoded == frames {
                return stats;
            }
            assert!(std::time::Instant::now() < deadline, "{stats:?}");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    };
    let before = settled(1);

    const N: u64 = 40;
    let (mut bytes_in, mut bytes_out) = (0u64, 0u64);
    for i in 0..N as i64 {
        let id = (i * 13) % 50;
        let result = client.query(stmt, (id,)).unwrap();
        assert_eq!(result.rows.len(), 1);
        assert_eq!(result.rows[0].get(0), &Value::Int(id));
        let req = Request::Execute {
            stmt: StmtRef::from(stmt),
            params: vec![Value::Int(id)],
            deadline_ms: None,
        };
        bytes_in += req.encode().len() as u64 + 4;
        let header = Response::RowsHeader {
            columns: result.column_names().iter().map(|c| c.to_string()).collect(),
        };
        bytes_out += header.encode().len() as u64 + 4;
        bytes_out += encode_row_page(&result.rows, true).len() as u64 + 4;
    }
    let after = settled(1 + N);
    assert_eq!(after.net_bytes_in - before.net_bytes_in, bytes_in);
    assert_eq!(after.net_bytes_out - before.net_bytes_out, bytes_out);
    drop(client);
    server.shutdown();
}

/// A zero poll interval is clamped like every other duration: unclamped,
/// the socket's read timeout could not be set, an idle connection blocked
/// its worker in `read` for good, and shutdown never returned.
#[test]
fn a_zero_poll_interval_cannot_hang_shutdown() {
    let db = table_of_ids(0..1);
    let server = serve_with(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            poll_interval: std::time::Duration::ZERO,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let idle = Client::connect(server.local_addr()).unwrap();
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done.send(());
    });
    let outcome = finished.recv_timeout(std::time::Duration::from_secs(1));
    drop(idle); // unblocks a hung worker so the process can exit
    assert!(outcome.is_ok(), "shutdown hung behind an idle connection");
}
