//! The crash-recovery matrix: a mixed workload is run against a durable
//! database, and the resulting log is replayed from **every** record
//! boundary — a record is one committed transaction — plus sampled torn
//! tails inside each, asserting that recovery always yields exactly the
//! committed prefix, never panics, and never resurrects rolled-back or
//! unfinished transactions (which never reach the log at all).

use relstore::io::{decode_segment, record_boundaries};
use relstore::wal::LogRecord;
use relstore::{Database, DurabilityPolicy, MemDevice, OpStats};
use std::collections::BTreeMap;

/// Every table's sorted rows, by table name.
type Dump = BTreeMap<String, Vec<String>>;

/// A stable, order-independent fingerprint of every table's contents.
fn dump(db: &Database) -> Dump {
    let mut out = BTreeMap::new();
    let mut names = db.table_names();
    names.sort();
    for t in names {
        let q = db.query(&format!("SELECT * FROM {t}")).unwrap();
        let mut rows: Vec<String> = q.rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        out.insert(t, rows);
    }
    out
}

/// Committed transactions in a decoded prefix — the index into the dump
/// history that a recovery from this prefix must reproduce.
fn commits_in(bytes: &[u8]) -> usize {
    let mut scratch = OpStats::default();
    decode_segment(bytes, &mut scratch)
        .unwrap()
        .records
        .iter()
        .filter(|r| matches!(r, LogRecord::Txn { .. }))
        .count()
}

/// Runs the mixed workload against a fresh durable database and returns the
/// state fingerprint after each commit (`dumps[k]` = state once `k` commits
/// are on the log) together with the final log bytes.
fn run_workload() -> (Vec<Dump>, Vec<u8>) {
    let db =
        Database::open_with_device(Box::new(MemDevice::new()), DurabilityPolicy::Always).unwrap();
    let mut dumps = vec![dump(&db)];
    let mut committed = |db: &Database| dumps.push(dump(db));

    // DDL, autocommit: two tables.
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT, runtime DOUBLE)").unwrap();
    committed(&db);
    db.execute("CREATE TABLE machines (machine_id INT PRIMARY KEY, name TEXT)").unwrap();
    committed(&db);

    // DML, autocommit.
    db.execute("INSERT INTO jobs VALUES (1, 'idle', NULL)").unwrap();
    committed(&db);
    db.execute("INSERT INTO jobs VALUES (2, 'running', 12.5)").unwrap();
    committed(&db);

    // A batched insert: eight rows, one commit.
    let ins = db.prepare("INSERT INTO machines VALUES (?, ?)").unwrap();
    db.session()
        .execute_batch(&ins, (0..8i64).map(|i| (i, format!("node{i:02}"))))
        .unwrap();
    committed(&db);

    // An explicit transaction that commits: update + insert together.
    {
        let txn = db.transaction();
        txn.execute("UPDATE jobs SET state = ? WHERE job_id = ?", ("done", 1i64)).unwrap();
        txn.execute("INSERT INTO jobs VALUES (3, 'idle', NULL)", ()).unwrap();
        txn.commit().unwrap();
    }
    committed(&db);

    // An explicit transaction that rolls back: nothing of it may reach the
    // log, let alone be replayed.
    {
        let txn = db.transaction();
        txn.execute("UPDATE jobs SET state = ? WHERE job_id = ?", ("ghost", 2i64)).unwrap();
        // Guard dropped: rollback.
    }

    // More autocommit DML after the abort.
    db.execute("UPDATE jobs SET runtime = 99.0 WHERE job_id = 2").unwrap();
    committed(&db);
    db.execute("DELETE FROM machines WHERE machine_id = 7").unwrap();
    committed(&db);

    // A table that lives and dies: both DDL records are on the log.
    db.execute("CREATE TABLE scratch (id INT PRIMARY KEY)").unwrap();
    committed(&db);
    db.execute("INSERT INTO scratch VALUES (42)").unwrap();
    committed(&db);
    db.execute("DROP TABLE scratch").unwrap();
    committed(&db);

    // A transaction left open at the crash: it never committed, so the log
    // must not know it.
    let open = db.transaction();
    let upd = db.prepare("UPDATE jobs SET state = ? WHERE job_id = ?").unwrap();
    open.execute(&upd, ("limbo", 3i64)).unwrap();

    db.flush_log().unwrap();
    let bytes = db.durable_log_bytes().unwrap();
    (dumps, bytes)
}

#[test]
fn every_record_boundary_prefix_recovers_the_committed_state() {
    let (dumps, bytes) = run_workload();
    let boundaries = record_boundaries(&bytes).unwrap();
    assert_eq!(commits_in(&bytes), dumps.len() - 1, "one dump per commit on the log");
    assert_eq!(
        boundaries.len(),
        dumps.len(),
        "the log is its committed transactions and nothing else"
    );
    eprintln!(
        "crash matrix: {} byte log, {} records, {} boundary prefixes, {} commits",
        bytes.len(),
        boundaries.len() - 1,
        boundaries.len(),
        dumps.len() - 1
    );

    for &b in &boundaries {
        let prefix = bytes[..b as usize].to_vec();
        let expected_commits = commits_in(&prefix);
        let db = Database::open_with_device(
            Box::new(MemDevice::with_contents(prefix)),
            DurabilityPolicy::Always,
        )
        .unwrap_or_else(|e| panic!("recovery failed at clean boundary {b}: {e}"));

        assert_eq!(
            dump(&db),
            dumps[expected_commits],
            "boundary {b}: recovered state must equal the state after {expected_commits} commits"
        );
        db.check_consistency().unwrap();
        assert_eq!(
            db.stats().recovery_truncated_bytes,
            0,
            "a clean boundary needs no tail repair"
        );

        // The recovered catalog still enforces its constraints: a duplicate
        // primary key is refused, not silently absorbed.
        if db.table_names().iter().any(|t| t == "jobs") && db.table_len("jobs").unwrap() > 0 {
            let err = db.execute("INSERT INTO jobs VALUES (1, 'dup', NULL)").unwrap_err();
            assert_eq!(err.class(), relstore::ErrorClass::Constraint, "{err}");
        }

        // And the recovered database keeps working: it accepts new commits.
        db.execute("CREATE TABLE probe (id INT PRIMARY KEY)").unwrap();
        db.execute("INSERT INTO probe VALUES (1)").unwrap();
        assert_eq!(db.table_len("probe").unwrap(), 1);
    }
}

#[test]
fn torn_tails_between_boundaries_recover_the_last_full_record_prefix() {
    let (dumps, bytes) = run_workload();
    let boundaries = record_boundaries(&bytes).unwrap();

    for pair in boundaries.windows(2) {
        let (b, next) = (pair[0] as usize, pair[1] as usize);
        let record_len = next - b;
        // Sample torn positions inside this record: first byte, midpoint,
        // one short of complete.
        let mut cuts = vec![1, record_len / 2, record_len - 1];
        cuts.dedup();
        for d in cuts {
            if d == 0 || d >= record_len {
                continue;
            }
            let torn = bytes[..b + d].to_vec();
            let expected_commits = commits_in(&bytes[..b]);
            let db = Database::open_with_device(
                Box::new(MemDevice::with_contents(torn)),
                DurabilityPolicy::Always,
            )
            .unwrap_or_else(|e| panic!("torn tail at {b}+{d} must recover, got: {e}"));
            assert_eq!(
                dump(&db),
                dumps[expected_commits],
                "torn tail at {b}+{d}: state must equal the last full-record prefix"
            );
            db.check_consistency().unwrap();
            assert_eq!(
                db.stats().recovery_truncated_bytes,
                d as u64,
                "exactly the torn bytes are truncated"
            );
        }
    }
}

// --- crashes around checkpoints ----------------------------------------------
//
// `run_workload` never checkpoints, so the matrix above only ever replays a
// plain log. Here the script interleaves two checkpoints (segment rotations)
// with a committed transaction, a rolled-back one, a table that lives and
// dies and a 1,400-byte row, and snapshots the crash view — the bytes the
// log device would hold — after every commit. Recovery from each view
// (checkpoint image + committed suffix) must reproduce exactly that
// commit's state.

#[test]
fn every_commit_snapshot_recovers_its_exact_state_across_checkpoints() {
    let db =
        Database::open_with_device(Box::new(MemDevice::new()), DurabilityPolicy::Always).unwrap();

    let mut snapshots: Vec<(Dump, Vec<u8>)> = Vec::new();
    let mut committed =
        |db: &Database| snapshots.push((dump(db), db.durable_log_bytes().unwrap()));

    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT, blob TEXT)").unwrap();
    committed(&db);
    for i in 0..12 {
        db.execute(&format!("INSERT INTO jobs VALUES ({i}, 'idle', 'b{i}')")).unwrap();
        committed(&db);
    }
    let big = "y".repeat(1400);
    db.execute(&format!("INSERT INTO jobs VALUES (100, 'big', '{big}')")).unwrap();
    committed(&db);
    // Checkpoint: the segment is rotated onto one image of every table.
    db.checkpoint().unwrap();
    committed(&db);
    // Post-checkpoint traffic, including a transaction and a rollback.
    {
        let txn = db.transaction();
        txn.execute("UPDATE jobs SET state = ? WHERE job_id = ?", ("done", 0i64)).unwrap();
        txn.execute("DELETE FROM jobs WHERE job_id = ?", (11i64,)).unwrap();
        txn.commit().unwrap();
    }
    committed(&db);
    {
        let txn = db.transaction();
        txn.execute("UPDATE jobs SET state = ? WHERE job_id = ?", ("ghost", 1i64)).unwrap();
        // Dropped: rolled back, must never surface after any crash.
    }
    db.execute("UPDATE jobs SET blob = 'rewritten' WHERE job_id = 100").unwrap();
    committed(&db);
    db.execute("CREATE TABLE scratch (id INT PRIMARY KEY)").unwrap();
    committed(&db);
    db.execute("INSERT INTO scratch VALUES (7)").unwrap();
    committed(&db);
    db.execute("DROP TABLE scratch").unwrap();
    committed(&db);
    db.checkpoint().unwrap();
    committed(&db);
    db.execute("DELETE FROM jobs WHERE job_id = 100").unwrap();
    committed(&db);

    eprintln!("checkpointed crash matrix: {} commit snapshots", snapshots.len());
    for (i, (expected, bytes)) in snapshots.iter().enumerate() {
        let recovered = Database::open_with_device(
            Box::new(MemDevice::with_contents(bytes.clone())),
            DurabilityPolicy::Always,
        )
        .unwrap_or_else(|e| panic!("snapshot {i}: recovery failed: {e}"));
        assert_eq!(
            &dump(&recovered),
            expected,
            "snapshot {i}: recovered state must equal the state at that commit"
        );
        recovered.check_consistency().unwrap();
        assert_eq!(recovered.stats().recovery_truncated_bytes, 0, "snapshot {i}: clean log");

        // The recovered database keeps working end to end.
        recovered.execute("CREATE TABLE probe (id INT PRIMARY KEY)").unwrap();
        recovered.execute("INSERT INTO probe VALUES (1)").unwrap();
        assert_eq!(recovered.table_len("probe").unwrap(), 1);
    }
}
