//! Integration tests of the resource-governance layer: statement deadlines
//! and cooperative cancellation, row/byte budgets, bounded lock waits, the
//! idle-transaction reaper, and the same limits enforced end-to-end over
//! the wire protocol. Every refusal must be a *typed* error with the right
//! retry class — `Timeout{LockWait}` is retryable, `Timeout{Statement}` and
//! `ResourceExhausted` are logic errors the caller must not blindly retry.

use relstore::{Database, Error, ErrorClass, Governance, Session, TimeoutKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wire::{serve_with, Client, ServerConfig};

fn db_with_rows(rows: i64) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT)").unwrap();
    let ins = db.prepare("INSERT INTO jobs VALUES (?, ?)").unwrap();
    db.session()
        .execute_batch(&ins, (0..rows).map(|id| (id, "idle")))
        .unwrap();
    db
}

/// A session whose every statement runs under `gov`.
fn governed<'a>(db: &'a Database, gov: &Governance) -> Session<'a> {
    db.session().with_governance(gov.clone())
}

#[test]
fn statement_deadline_cancels_a_scan_with_a_logic_class_timeout() {
    let db = db_with_rows(500);
    let gov = Governance {
        deadline: Some(Duration::ZERO),
        check_interval: Some(8),
        ..Governance::default()
    };
    let err = governed(&db, &gov)
        .query("SELECT * FROM jobs WHERE state = 'idle'", ())
        .unwrap_err();
    assert!(
        matches!(err, Error::Timeout { kind: TimeoutKind::Statement, .. }),
        "{err}"
    );
    assert_eq!(err.class(), ErrorClass::Logic);
    assert!(!err.is_retryable(), "a deadline overrun must not invite a blind retry");
    assert_eq!(db.stats().statements_timed_out, 1);

    // An unlimited statement on the same table still works: the failure
    // cancelled one statement, not the connection or the engine.
    assert_eq!(db.query("SELECT * FROM jobs").unwrap().rows.len(), 500);
}

/// An ordered index walk is governed row by row like any scan: a deadline
/// stops it at a check boundary *inside* the walk (it has read a few rows,
/// not the table), and the rows it keeps are charged to the row budget.
#[test]
fn deadline_and_row_budget_fire_inside_an_ordered_walk() {
    let db = db_with_rows(5_000);
    // No row is 'gone' and `state` has no index, so the walk of `job_id`
    // would visit the whole table looking for its five rows.
    let sql = "SELECT job_id FROM jobs WHERE state = 'gone' ORDER BY job_id LIMIT 5";
    let plan = db.query(&format!("EXPLAIN {sql}")).unwrap();
    assert!(plan.rows[0].get(2).to_string().contains("ordered walk of jobs.job_id"), "{plan:?}");

    let gov = Governance {
        deadline: Some(Duration::ZERO),
        check_interval: Some(8),
        ..Governance::default()
    };
    let before = db.stats().rows_read;
    let err = governed(&db, &gov).query(sql, ()).unwrap_err();
    assert!(matches!(err, Error::Timeout { kind: TimeoutKind::Statement, .. }), "{err}");
    let read = db.stats().rows_read - before;
    assert!((1..=8).contains(&read), "stopped inside the walk after {read} rows");

    let gov = Governance {
        max_rows: Some(10),
        ..Governance::default()
    };
    let head = "SELECT job_id FROM jobs WHERE state = 'idle' ORDER BY job_id DESC LIMIT ?";
    let err = governed(&db, &gov).query(head, (50,)).unwrap_err();
    assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
    assert_eq!(governed(&db, &gov).query(head, (10,)).unwrap().rows.len(), 10);
}

#[test]
fn cancellation_token_stops_a_statement_from_another_thread() {
    let db = db_with_rows(200);
    let cancel = Arc::new(AtomicBool::new(true)); // pre-cancelled: trips at the first boundary
    let gov = Governance {
        cancel: Some(Arc::clone(&cancel)),
        check_interval: Some(1),
        ..Governance::default()
    };
    let err = governed(&db, &gov).query("SELECT * FROM jobs", ()).unwrap_err();
    assert!(matches!(err, Error::Timeout { kind: TimeoutKind::Statement, .. }), "{err}");

    // Clearing the token lets the same governance run to completion.
    cancel.store(false, Ordering::Relaxed);
    assert_eq!(governed(&db, &gov).query("SELECT * FROM jobs", ()).unwrap().rows.len(), 200);
}

#[test]
fn row_and_byte_budgets_trip_before_rows_are_returned() {
    let db = db_with_rows(100);

    let rows = Governance {
        max_rows: Some(10),
        ..Governance::default()
    };
    let err = governed(&db, &rows).query("SELECT * FROM jobs", ()).unwrap_err();
    assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
    assert_eq!(err.class(), ErrorClass::Logic);

    let bytes = Governance {
        max_bytes: Some(64),
        ..Governance::default()
    };
    let err = governed(&db, &bytes).query("SELECT * FROM jobs", ()).unwrap_err();
    assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");

    assert_eq!(db.stats().statements_over_budget, 2);
    // A point select fits comfortably inside both budgets.
    let got = governed(&db, &rows)
        .query("SELECT state FROM jobs WHERE job_id = 7", ())
        .unwrap();
    assert_eq!(got.rows.len(), 1);

    // A batch is one governed unit: four one-row selects overrun a
    // three-row budget that each of them alone fits.
    let point = db.prepare("SELECT state FROM jobs WHERE job_id = ?").unwrap();
    let three = Governance {
        max_rows: Some(3),
        ..Governance::default()
    };
    let err = governed(&db, &three)
        .query_batch(&point, (0..4i64).map(|id| (id,)))
        .unwrap_err();
    assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
    let fits = governed(&db, &three).query_batch(&point, (0..3i64).map(|id| (id,)));
    assert_eq!(fits.unwrap().len(), 3);
}

#[test]
fn bounded_lock_wait_outlasts_a_short_writer() {
    let db = db_with_rows(4);
    let txn = db.transaction();
    txn.execute("UPDATE jobs SET state = 'held' WHERE job_id = 0", ()).unwrap();

    // A second writer with a generous lock-wait budget blocks while the
    // first transaction holds the table lock, then proceeds once it
    // commits — no LockConflict surfaces at all.
    std::thread::scope(|s| {
        let db = &db;
        let waiter = s.spawn(move || {
            let gov = Governance {
                lock_wait: Some(Duration::from_secs(5)),
                ..Governance::default()
            };
            governed(db, &gov).execute("UPDATE jobs SET state = 'won' WHERE job_id = 1", ())
        });
        std::thread::sleep(Duration::from_millis(40));
        txn.commit().unwrap();
        waiter.join().unwrap().unwrap();
    });

    let stats = db.stats();
    assert!(stats.lock_waits >= 1, "the waiter must have recorded its wait");
    assert_eq!(stats.lock_wait_timeouts, 0);
    let state: Vec<String> = db
        .session()
        .query_scalars("SELECT state FROM jobs WHERE job_id = 1", ())
        .unwrap();
    assert_eq!(state, vec!["won".to_string()]);
}

#[test]
fn bounded_lock_wait_expires_with_a_retryable_timeout() {
    let db = db_with_rows(4);
    let txn = db.transaction();
    txn.execute("UPDATE jobs SET state = 'held' WHERE job_id = 0", ()).unwrap();

    let gov = Governance {
        lock_wait: Some(Duration::from_millis(20)),
        ..Governance::default()
    };
    let err = governed(&db, &gov)
        .execute("UPDATE jobs SET state = 'lost' WHERE job_id = 1", ())
        .unwrap_err();
    assert!(matches!(err, Error::Timeout { kind: TimeoutKind::LockWait, .. }), "{err}");
    assert_eq!(err.class(), ErrorClass::Retryable);
    assert!(err.is_retryable(), "a lock-wait expiry is exactly what retries are for");
    let stats = db.stats();
    assert!(stats.lock_waits >= 1);
    assert!(stats.lock_wait_timeouts >= 1);

    // Zero wait (the embedded default) keeps the seed's fail-fast contract.
    let err = db
        .execute("UPDATE jobs SET state = 'lost' WHERE job_id = 1")
        .unwrap_err();
    assert!(matches!(err, Error::LockConflict(_)), "{err}");
    txn.rollback().unwrap();
}

#[test]
fn a_statement_deadline_caps_the_lock_wait_too() {
    let db = db_with_rows(4);
    let txn = db.transaction();
    txn.execute("UPDATE jobs SET state = 'held' WHERE job_id = 0", ()).unwrap();

    // The statement deadline (20ms) is tighter than the lock-wait budget
    // (10s): the waiter must give up when the *statement* expires rather
    // than camping on the lock for ten seconds.
    let gov = Governance {
        deadline: Some(Duration::from_millis(20)),
        lock_wait: Some(Duration::from_secs(10)),
        ..Governance::default()
    };
    let start = std::time::Instant::now();
    let err = governed(&db, &gov)
        .execute("UPDATE jobs SET state = 'lost' WHERE job_id = 1", ())
        .unwrap_err();
    assert!(start.elapsed() < Duration::from_secs(5), "deadline must cut the wait short");
    assert!(matches!(err, Error::Timeout { .. }), "{err}");
    txn.rollback().unwrap();
}

#[test]
fn reaper_aborts_idle_transactions_and_releases_their_locks() {
    let db = db_with_rows(4);
    db.execute("CREATE TABLE side (id INT PRIMARY KEY, v TEXT)").unwrap();
    db.execute("INSERT INTO side VALUES (1, 'start')").unwrap();

    let abandoned = db.transaction();
    abandoned
        .execute("UPDATE jobs SET state = 'zombie' WHERE job_id = 0", ())
        .unwrap();

    // A transaction that keeps executing statements (on its own table —
    // write locks are table-level) is *not* idle and must survive the
    // reaper no matter how long ago it began.
    let live = db.transaction();
    live.execute("UPDATE side SET v = 'busy' WHERE id = 1", ()).unwrap();

    std::thread::sleep(Duration::from_millis(30));
    live.execute("UPDATE side SET v = 'busy2' WHERE id = 1", ()).unwrap();
    let reaped = db.reap_idle(Duration::from_millis(25));
    assert_eq!(reaped, 1, "exactly the abandoned transaction is reaped");
    assert_eq!(db.stats().txns_reaped, 1);

    // The zombie's lock is gone (a new writer gets through), its update is
    // undone, and finishing it reports the transaction as closed.
    db.execute("UPDATE jobs SET state = 'fresh' WHERE job_id = 0").unwrap();
    assert!(matches!(abandoned.commit().unwrap_err(), Error::TxnClosed(_)));
    live.commit().unwrap();

    let state: Vec<String> = db
        .session()
        .query_scalars("SELECT state FROM jobs WHERE job_id = 0", ())
        .unwrap();
    assert_eq!(state, vec!["fresh".to_string()]);
    let side: Vec<String> = db
        .session()
        .query_scalars("SELECT v FROM side WHERE id = 1", ())
        .unwrap();
    assert_eq!(side, vec!["busy2".to_string()]);
    db.check_consistency().unwrap();
}

#[test]
fn reaping_unpins_the_vacuum_horizon() {
    let db = db_with_rows(8);
    let pinner = db.transaction();
    pinner.execute("SELECT * FROM jobs", ()).unwrap();

    // Churn some versions while the idle reader pins the horizon.
    for _ in 0..3 {
        db.execute("UPDATE jobs SET state = 'churn' WHERE job_id = 2").unwrap();
    }
    std::thread::sleep(Duration::from_millis(15));
    assert_eq!(db.reap_idle(Duration::from_millis(10)), 1);
    assert!(db.stats().horizon_lag >= 1, "the lag gauge saw the pinned horizon");

    // With the pinner gone the dead versions are reclaimable again.
    let reclaimed = db.vacuum_all();
    assert!(reclaimed > 0, "vacuum must reclaim the churned versions");
    db.check_consistency().unwrap();
}

// --- the same limits, end to end over TCP ------------------------------------

fn governed_server(db: Arc<Database>, config: ServerConfig) -> wire::ServerHandle {
    serve_with(db, "127.0.0.1:0", config).unwrap()
}

#[test]
fn wire_deadline_and_budgets_surface_typed_errors() {
    let db = Arc::new(db_with_rows(3000));
    let server = governed_server(
        Arc::clone(&db),
        ServerConfig {
            max_result_rows: Some(100),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();

    // The server-side row cap trips regardless of what the client asks for.
    let err = client.query("SELECT * FROM jobs", ()).unwrap_err();
    assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
    assert_eq!(err.class(), ErrorClass::Logic);

    // A client-attached zero deadline expires at the first check boundary;
    // the error arrives with its kind and class intact.
    client.set_statement_deadline(Some(Duration::ZERO));
    let err = client.query("SELECT * FROM jobs WHERE state = 'idle'", ()).unwrap_err();
    assert!(matches!(err, Error::Timeout { kind: TimeoutKind::Statement, .. }), "{err}");
    assert_eq!(err.class(), ErrorClass::Logic);

    // Clearing the deadline restores service on the same connection.
    client.set_statement_deadline(None);
    let one = client.query("SELECT state FROM jobs WHERE job_id = 9", ()).unwrap();
    assert_eq!(one.rows.len(), 1);
    assert!(db.stats().statements_timed_out >= 1);
    assert!(db.stats().statements_over_budget >= 1);
    drop(client);
    server.shutdown();

    // The server's row cap bounds a whole batch request, not each binding.
    let server = governed_server(
        Arc::clone(&db),
        ServerConfig {
            max_result_rows: Some(3),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    let point = client.prepare("SELECT state FROM jobs WHERE job_id = ?").unwrap();
    let err = client.query_batch(point, (0..4i64).map(|id| (id,))).unwrap_err();
    assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
    assert_eq!(client.query_batch(point, (0..3i64).map(|id| (id,))).unwrap().len(), 3);
    drop(client);
    server.shutdown();
}

#[test]
fn wire_lock_conflicts_wait_then_time_out_retryably() {
    let db = Arc::new(db_with_rows(4));
    let server = governed_server(
        Arc::clone(&db),
        ServerConfig {
            lock_wait_timeout: Duration::from_millis(30),
            ..ServerConfig::default()
        },
    );
    let mut holder = Client::connect(server.local_addr()).unwrap();
    holder.begin().unwrap();
    holder.execute("UPDATE jobs SET state = 'held' WHERE job_id = 0", ()).unwrap();

    let mut blocked = Client::connect(server.local_addr()).unwrap();
    let err = blocked
        .execute("UPDATE jobs SET state = 'nope' WHERE job_id = 1", ())
        .unwrap_err();
    assert!(matches!(err, Error::Timeout { kind: TimeoutKind::LockWait, .. }), "{err}");
    assert!(err.is_retryable());

    // After the holder commits, a plain retry loop gets through.
    holder.commit().unwrap();
    blocked
        .with_retries(10, |c| c.execute("UPDATE jobs SET state = 'yes' WHERE job_id = 1", ()))
        .unwrap();
    assert!(db.stats().lock_wait_timeouts >= 1);
    drop((holder, blocked));
    server.shutdown();
}

#[test]
fn wire_reaper_aborts_an_abandoned_but_connected_transaction() {
    let db = Arc::new(db_with_rows(4));
    let server = governed_server(
        Arc::clone(&db),
        ServerConfig {
            idle_txn_timeout: Some(Duration::from_millis(40)),
            reap_interval: Duration::from_millis(10),
            lock_wait_timeout: Duration::from_millis(10),
            ..ServerConfig::default()
        },
    );

    // The abandoner keeps its socket open (so the connection-level idle
    // reap never fires) but goes silent inside a transaction that holds
    // the table lock.
    let mut abandoner = Client::connect(server.local_addr()).unwrap();
    abandoner.begin().unwrap();
    abandoner.execute("UPDATE jobs SET state = 'zombie' WHERE job_id = 0", ()).unwrap();

    // Another client eventually gets the lock: the reaper aborted the
    // zombie transaction server-side.
    let mut worker = Client::connect(server.local_addr()).unwrap();
    worker
        .with_retries_deadline(1000, Duration::from_secs(10), |c| {
            c.execute("UPDATE jobs SET state = 'alive' WHERE job_id = 0", ())
        })
        .unwrap();
    assert!(db.stats().txns_reaped >= 1, "the reaper did the unblocking");

    // The abandoner's next commit reports the transaction already closed.
    let err = abandoner.commit().unwrap_err();
    assert!(matches!(err, Error::TxnClosed(_)), "{err}");

    let state: Vec<String> = worker
        .query_scalars("SELECT state FROM jobs WHERE job_id = 0", ())
        .unwrap();
    assert_eq!(state, vec!["alive".to_string()], "the zombie's write is gone");
    drop((abandoner, worker));
    server.shutdown();
    db.check_consistency().unwrap();
}

#[test]
fn client_drop_rolls_back_promptly() {
    let db = Arc::new(db_with_rows(2));
    let server = governed_server(Arc::clone(&db), ServerConfig::default());

    {
        let mut dying = Client::connect(server.local_addr()).unwrap();
        dying.begin().unwrap();
        dying.execute("UPDATE jobs SET state = 'doomed' WHERE job_id = 0", ()).unwrap();
        // Dropped mid-transaction: the client sends a best-effort Rollback
        // before the socket closes.
    }

    // The rollback frame beats the server's close-detection polling, so a
    // *zero-wait* writer gets the lock almost immediately.
    let mut next = Client::connect(server.local_addr()).unwrap();
    next.with_retries_deadline(200, Duration::from_secs(5), |c| {
        c.execute("UPDATE jobs SET state = 'next' WHERE job_id = 0", ())
    })
    .unwrap();
    let state: Vec<String> = next
        .query_scalars("SELECT state FROM jobs WHERE job_id = 0", ())
        .unwrap();
    assert_eq!(state, vec!["next".to_string()]);
    drop(next);
    server.shutdown();
}

/// The join executor charges the governor for intermediate rows, so a
/// runaway join — here a near-cross-product through a nested loop — trips
/// the row budget and the deadline instead of materializing millions of
/// pairs. An equi-join that stays small passes under the same governance.
#[test]
fn join_loops_are_governed() {
    let db = db_with_rows(400);
    db.execute("CREATE TABLE mirror (id INT PRIMARY KEY)").unwrap();
    let ins = db.prepare("INSERT INTO mirror VALUES (?)").unwrap();
    db.session()
        .execute_batch(&ins, (0..400i64).map(|id| (id,)))
        .unwrap();

    let rows = Governance {
        max_rows: Some(1_000),
        ..Governance::default()
    };
    let err = governed(&db, &rows)
        .query(
            "SELECT COUNT(*) FROM jobs JOIN mirror ON jobs.job_id < mirror.id",
            (),
        )
        .unwrap_err();
    assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");

    let deadline = Governance {
        deadline: Some(Duration::ZERO),
        ..Governance::default()
    };
    let err = governed(&db, &deadline)
        .query(
            "SELECT COUNT(*) FROM jobs JOIN mirror ON jobs.job_id < mirror.id",
            (),
        )
        .unwrap_err();
    assert!(matches!(err, Error::Timeout { kind: TimeoutKind::Statement, .. }), "{err}");

    // A selective equi-join fits the same row budget.
    let r = governed(&db, &rows)
        .query(
            "SELECT COUNT(*) FROM jobs JOIN mirror ON jobs.job_id = mirror.id WHERE jobs.job_id = 3",
            (),
        )
        .unwrap();
    assert_eq!(r.scalar_int().unwrap(), 1);
}

/// A join that feeds an aggregate is governed while it joins: the tuples
/// it produces are charged as they are produced, although they are only
/// references and the statement's whole output is one row per group. Both
/// limits trip *inside* the probe loop — after the inputs were read in
/// full, before the join finished, with no output row in existence.
#[test]
fn deadline_and_row_budget_fire_inside_a_join_feeding_an_aggregate() {
    let db = db_with_rows(400);
    db.execute("CREATE TABLE states (state TEXT PRIMARY KEY, rank INT)").unwrap();
    db.execute("INSERT INTO states VALUES ('idle', 0), ('running', 1), ('held', 2), ('done', 3)")
        .unwrap();
    db.execute("CREATE TABLE mirror (id INT PRIMARY KEY)").unwrap();
    let ins = db.prepare("INSERT INTO mirror VALUES (?)").unwrap();
    db.session()
        .execute_batch(&ins, (0..400i64).map(|id| (id,)))
        .unwrap();

    // (statement, its join operator, rows read before the first probe)
    let cases = [
        (
            "SELECT states.state, COUNT(*), MAX(jobs.job_id) FROM jobs \
             JOIN states ON jobs.state = states.state GROUP BY states.state",
            "HashJoin(states)",
            400 + 4,
        ),
        (
            "SELECT COUNT(*), SUM(mirror.id) FROM jobs JOIN mirror ON jobs.job_id = mirror.id",
            "IndexLoopJoin(mirror)",
            400,
        ),
    ];
    for (sql, operator, inputs) in cases {
        let plan = db.query(&format!("EXPLAIN {sql}")).unwrap();
        assert_eq!(plan.rows[1].get(1).to_string(), format!("'{operator}'"), "{plan:?}");
        let rows_read = |gov: &Governance| {
            let before = db.stats().rows_read;
            let result = governed(&db, gov).query(sql, ());
            (result, db.stats().rows_read - before)
        };
        let (unlimited, full) = rows_read(&Governance::default());
        assert_eq!(unlimited.unwrap().rows.len(), 1, "one group: {sql}");
        assert_eq!(full, inputs + 400, "{sql}");

        // Inputs and 400 tuples make 800 (804) charges: 600 is reached
        // part-way through the probe loop.
        let budget = Governance {
            max_rows: Some(600),
            ..Governance::default()
        };
        let (result, read) = rows_read(&budget);
        assert!(matches!(result, Err(Error::ResourceExhausted(_))), "{result:?}");
        assert!(inputs < read && read < full, "{operator} stopped after {read} of {full} rows");
        let roomy = Governance {
            max_rows: Some(1_000),
            ..Governance::default()
        };
        assert_eq!(rows_read(&roomy).0.unwrap().rows.len(), 1);

        // The inputs take 400 (404) ticks, so the first deadline check —
        // at tick 512 — falls inside the probe loop.
        let deadline = Governance {
            deadline: Some(Duration::ZERO),
            check_interval: Some(512),
            ..Governance::default()
        };
        let (result, read) = rows_read(&deadline);
        assert!(
            matches!(result, Err(Error::Timeout { kind: TimeoutKind::Statement, .. })),
            "{result:?}"
        );
        assert!(inputs < read && read < full, "{operator} stopped after {read} of {full} rows");
    }
}

/// The CAS usage report folds its GROUP BY into the `users` build rows
/// instead of collecting joined tuples, and is governed exactly as when it
/// collected them: every match is charged as the tuple it stands for, and
/// every group as it opens. A row budget the inputs fit but the matches
/// overrun fails the report.
#[test]
fn the_folded_usage_report_charges_every_match() {
    let db = Database::new();
    db.execute("CREATE TABLE users (name TEXT PRIMARY KEY, priority DOUBLE)").unwrap();
    db.execute("CREATE TABLE job_history (history_id INT PRIMARY KEY, owner TEXT, runtime_ms INT)")
        .unwrap();
    let user = db.prepare("INSERT INTO users VALUES (?, 0.5)").unwrap();
    db.session()
        .execute_batch(&user, (0..5).map(|u| (format!("user{u}"),)))
        .unwrap();
    let done = db.prepare("INSERT INTO job_history VALUES (?, ?, 60000)").unwrap();
    db.session()
        .execute_batch(&done, (0..400i64).map(|i| (i, format!("user{}", i % 5))))
        .unwrap();
    // `CasState::usage_by_owner`'s statement.
    let report = "SELECT users.name AS owner, users.priority AS priority, \
                  COUNT(*) AS jobs, SUM(job_history.runtime_ms) AS total_ms \
                  FROM job_history JOIN users ON job_history.owner = users.name \
                  GROUP BY users.name, users.priority ORDER BY owner";
    let plan = db.query(&format!("EXPLAIN {report}")).unwrap();
    assert!(plan.rows[1].get(2).to_string().ends_with(", fold GROUP BY into build rows'"), "{plan:?}");

    // 400 history rows and 5 users are charged as they are read, then the
    // 400 matches and the 5 groups they open: 810 charges. A 600-row
    // budget covers the inputs and half the matches; 809 all but the last
    // match.
    let budget = |max_rows| Governance {
        max_rows: Some(max_rows),
        ..Governance::default()
    };
    for max_rows in [600, 809] {
        let err = governed(&db, &budget(max_rows)).query(report, ()).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "{max_rows}: {err}");
    }
    assert_eq!(governed(&db, &budget(810)).query(report, ()).unwrap().rows.len(), 5);
    // Every run builds the `users` side afresh, so a rerun is charged the
    // same 810.
    assert_eq!(governed(&db, &budget(810)).query(report, ()).unwrap().rows.len(), 5);
    let err = governed(&db, &budget(809)).query(report, ()).unwrap_err();
    assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
}

/// `COUNT(*)` under an index equality counts the posting list without
/// reading rows, and ticks the governor once per posting entry: a
/// cancellation flag stops it inside the list, and a check interval one
/// past the list's length never fires.
#[test]
fn a_cancelled_index_only_count_stops_inside_the_posting_list() {
    let db = db_with_rows(400);
    db.execute("CREATE INDEX ON jobs (state)").unwrap();
    let count = "SELECT COUNT(*) FROM jobs WHERE state = 'idle'";
    let plan = db.query(&format!("EXPLAIN {count}")).unwrap();
    assert!(plan.rows[0].get(2).to_string().ends_with(", index-only count'"), "{plan:?}");

    let cancelled = |check_interval| Governance {
        cancel: Some(Arc::new(AtomicBool::new(true))),
        check_interval: Some(check_interval),
        ..Governance::default()
    };
    for interval in [1, 200, 400] {
        let err = governed(&db, &cancelled(interval)).query(count, ()).unwrap_err();
        assert!(matches!(err, Error::Timeout { kind: TimeoutKind::Statement, .. }), "{err}");
    }
    let before = db.stats().rows_read;
    let r = governed(&db, &cancelled(401)).query(count, ()).unwrap();
    assert_eq!(r.scalar_int(), Some(400));
    assert_eq!(db.stats().rows_read - before, 400, "rows_read: the posting entries visited");
}
