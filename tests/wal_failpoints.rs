//! Deterministic fault injection on the durable-log IO path: fsync errors,
//! short writes, torn writes and crash points, each followed by a real
//! recovery of whatever the "disk" holds. The invariant under test is the
//! acknowledgement contract — a commit is acknowledged only if its bytes
//! are durable under the active [`DurabilityPolicy`], and a failed sync
//! poisons the writer so nothing is ever acknowledged after it.

use relstore::io::points;
use relstore::{Database, DurabilityPolicy, Error, FailAction, MemDevice};

fn durable_db() -> Database {
    let db =
        Database::open_with_device(Box::new(MemDevice::new()), DurabilityPolicy::Always).unwrap();
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT)").unwrap();
    db.execute("INSERT INTO jobs VALUES (1, 'idle')").unwrap();
    db
}

/// Reopens a database from whatever `db`'s device would show after a crash.
fn reopen(db: &Database) -> Database {
    let bytes = db.durable_log_bytes().unwrap();
    Database::open_with_device(
        Box::new(MemDevice::with_contents(bytes)),
        DurabilityPolicy::Always,
    )
    .unwrap()
}

#[test]
fn a_failed_fsync_poisons_the_writer_and_no_later_commit_is_acknowledged() {
    let db = durable_db();
    db.failpoints().arm(points::WAL_SYNC, FailAction::Err);

    let err = db.execute("INSERT INTO jobs VALUES (2, 'lost')").unwrap_err();
    assert!(matches!(err, Error::Io(_)), "commit must fail with Io: {err}");
    assert!(!err.is_retryable(), "a durability failure must not invite a retry");

    // The failpoint was one-shot and is gone — but the poison persists:
    // every subsequent commit fails without touching the device.
    let err = db.execute("INSERT INTO jobs VALUES (3, 'also lost')").unwrap_err();
    assert!(matches!(err, Error::Io(_)), "{err}");
    assert!(err.to_string().contains("poisoned"), "{err}");
    let err = db.flush_log().unwrap_err();
    assert!(matches!(err, Error::Io(_)), "{err}");

    // Reads keep working on the in-memory state.
    assert!(db.table_len("jobs").unwrap() >= 1);
    assert!(db.stats().failpoints_hit >= 1);

    // Recovery comes up with exactly the acknowledged prefix, and the
    // reopened database is healthy again.
    let recovered = reopen(&db);
    assert_eq!(recovered.table_len("jobs").unwrap(), 1);
    recovered.check_consistency().unwrap();
    recovered.execute("INSERT INTO jobs VALUES (9, 'fresh')").unwrap();
    assert_eq!(recovered.table_len("jobs").unwrap(), 2);
}

#[test]
fn a_short_write_poisons_the_commit_and_leaves_no_durable_trace() {
    let db = durable_db();
    // 5 bytes of the transaction's frame reach the (volatile) buffer, then
    // the write errors; nothing was synced, so recovery sees the prior state.
    db.failpoints().arm(points::WAL_APPEND, FailAction::ShortWrite(5));

    let err = db.execute("INSERT INTO jobs VALUES (2, 'lost')").unwrap_err();
    assert!(matches!(err, Error::Io(_)), "{err}");

    let recovered = reopen(&db);
    assert_eq!(recovered.table_len("jobs").unwrap(), 1);
    assert_eq!(
        recovered.stats().recovery_truncated_bytes,
        0,
        "unsynced short-write bytes never reach the durable image"
    );
    recovered.check_consistency().unwrap();
}

#[test]
fn a_torn_write_of_k_bytes_is_truncated_exactly_on_recovery() {
    const K: u64 = 10;
    let db = durable_db();
    db.flush_log().unwrap();
    // Power loss mid-append: K bytes of the transaction's frame are
    // persisted, then the device dies. The canonical torn tail.
    db.failpoints().arm(points::WAL_APPEND, FailAction::TornWrite(K as usize));

    let err = db.execute("INSERT INTO jobs VALUES (2, 'torn')").unwrap_err();
    assert!(matches!(err, Error::Io(_)), "{err}");

    let recovered = reopen(&db);
    assert_eq!(recovered.table_len("jobs").unwrap(), 1);
    assert_eq!(
        recovered.stats().recovery_truncated_bytes,
        K,
        "recovery repairs exactly the torn bytes"
    );
    recovered.check_consistency().unwrap();
}

#[test]
fn a_crash_after_write_before_sync_loses_the_unacknowledged_commit() {
    let db = durable_db();
    // The whole frame reaches the volatile buffer, then the machine dies at
    // the durability barrier: the commit was never acknowledged, and
    // recovery must not surface it.
    db.failpoints().arm(points::WAL_SYNC, FailAction::Crash);

    let err = db.execute("INSERT INTO jobs VALUES (2, 'unsynced')").unwrap_err();
    assert!(matches!(err, Error::Io(_)), "{err}");

    let recovered = reopen(&db);
    assert_eq!(recovered.table_len("jobs").unwrap(), 1);
    assert_eq!(recovered.stats().recovery_truncated_bytes, 0);
    recovered.check_consistency().unwrap();
}

#[test]
fn batch_policy_sync_failure_strikes_the_commit_that_fills_the_window() {
    let db = Database::open_with_device(
        Box::new(MemDevice::new()),
        DurabilityPolicy::Batch(3),
    )
    .unwrap();
    db.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap(); // commit 1
    db.execute("INSERT INTO t VALUES (1)").unwrap(); // commit 2
    db.execute("INSERT INTO t VALUES (2)").unwrap(); // commit 3: window full, syncs
    db.failpoints().arm(points::WAL_SYNC, FailAction::Err);
    db.execute("INSERT INTO t VALUES (3)").unwrap(); // commit 4: no sync due yet
    db.execute("INSERT INTO t VALUES (4)").unwrap(); // commit 5: no sync due yet
    let err = db.execute("INSERT INTO t VALUES (5)").unwrap_err(); // commit 6 syncs → injected failure
    assert!(matches!(err, Error::Io(_)), "{err}");

    // The durable image holds the synced window: rows 1 and 2.
    let recovered = reopen(&db);
    assert_eq!(recovered.table_len("t").unwrap(), 2);
    recovered.check_consistency().unwrap();
}

#[test]
fn checkpoint_only_policy_acknowledges_commits_a_crash_then_loses() {
    let db = Database::open_with_device(
        Box::new(MemDevice::new()),
        DurabilityPolicy::Checkpoint,
    )
    .unwrap();
    // Both statements are acknowledged without any fsync — the documented
    // weak mode. A crash now loses them both.
    db.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    let crashed = reopen(&db);
    assert!(crashed.table_names().is_empty(), "nothing was forced to disk");

    // An explicit flush is the policy's durability point.
    db.flush_log().unwrap();
    let recovered = reopen(&db);
    assert_eq!(recovered.table_len("t").unwrap(), 1);
}

#[test]
fn a_failed_rotation_leaves_the_old_log_fully_intact() {
    for action in [FailAction::Err, FailAction::Crash] {
        let db = durable_db();
        db.execute("INSERT INTO jobs VALUES (2, 'kept')").unwrap();
        db.flush_log().unwrap();
        let before = db.durable_log_bytes().unwrap();

        // The checkpoint's segment rotation fails (IO error, or a crash of
        // the whole machine mid-rotation): the swap never happened, so the
        // old log must still be every byte it was.
        db.failpoints().arm(points::WAL_ROTATE, action);
        let err = db.checkpoint().unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err}");

        assert_eq!(
            db.durable_log_bytes().unwrap(),
            before,
            "a failed rotation must not disturb the old segment"
        );
        let recovered = reopen(&db);
        assert_eq!(recovered.table_len("jobs").unwrap(), 2);
        recovered.check_consistency().unwrap();
    }
}

#[test]
fn a_successful_checkpoint_rotates_the_segment_and_survives_reopen() {
    let db = durable_db();
    db.execute("INSERT INTO jobs VALUES (2, 'kept')").unwrap();
    let before = db.durable_log_bytes().unwrap().len();
    db.checkpoint().unwrap();
    let after = db.durable_log_bytes().unwrap().len();
    assert!(after < before, "rotation compacts the log: {after} >= {before}");
    assert_eq!(db.stats().wal_segments_rotated, 1);

    let recovered = reopen(&db);
    assert_eq!(recovered.table_len("jobs").unwrap(), 2);
    recovered.check_consistency().unwrap();

    // Commits after the rotation land on the new segment.
    db.execute("INSERT INTO jobs VALUES (3, 'post')").unwrap();
    let recovered = reopen(&db);
    assert_eq!(recovered.table_len("jobs").unwrap(), 3);
}

#[test]
fn arm_after_skips_early_hits_and_failpoint_hits_are_counted() {
    let db = durable_db();
    // A transaction is one append: skip two commits' appends, strike the
    // third's. Rolling back and reading in between append nothing, so they
    // do not use the skips up.
    db.failpoints()
        .arm_after(points::WAL_APPEND, 2, FailAction::Err);
    db.execute("INSERT INTO jobs VALUES (2, 'kept')").unwrap();
    {
        let txn = db.transaction();
        txn.execute("INSERT INTO jobs VALUES (7, 'rolled back')", ()).unwrap();
    }
    db.query("SELECT * FROM jobs").unwrap();
    let txn = db.transaction();
    txn.execute("INSERT INTO jobs VALUES (3, 'kept')", ()).unwrap();
    txn.execute("UPDATE jobs SET state = 'busy' WHERE job_id = 1", ()).unwrap();
    txn.commit().unwrap();
    assert_eq!(db.failpoints().hits(), 0);

    let err = db.execute("INSERT INTO jobs VALUES (4, 'x')").unwrap_err();
    assert!(matches!(err, Error::Io(_)), "{err}");
    assert_eq!(db.failpoints().hits(), 1);
    assert_eq!(db.stats().failpoints_hit, 1);
    // The failed append poisoned the writer: nothing after it is
    // acknowledged either, and nothing of it is durable.
    let err = db.execute("INSERT INTO jobs VALUES (5, 'y')").unwrap_err();
    assert!(err.to_string().contains("poisoned"), "{err}");

    let recovered = reopen(&db);
    assert_eq!(recovered.table_len("jobs").unwrap(), 3);
    assert_eq!(recovered.stats().recovery_truncated_bytes, 0);
    recovered.check_consistency().unwrap();
}

#[test]
fn a_crash_right_after_the_append_leaves_no_trace_of_the_transaction() {
    let db = durable_db();
    // The frame is written whole, then the machine dies before the sync: a
    // multi-statement transaction is on the device entirely or not at all.
    db.failpoints().arm(points::WAL_APPEND, FailAction::Crash);
    let txn = db.transaction();
    txn.execute("INSERT INTO jobs VALUES (2, 'a')", ()).unwrap();
    txn.execute("INSERT INTO jobs VALUES (3, 'b')", ()).unwrap();
    let err = txn.commit().unwrap_err();
    assert!(matches!(err, Error::Io(_)), "{err}");

    let recovered = reopen(&db);
    assert_eq!(recovered.table_len("jobs").unwrap(), 1);
    assert_eq!(recovered.stats().recovery_truncated_bytes, 0);
    recovered.check_consistency().unwrap();
}
