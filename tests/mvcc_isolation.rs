//! MVCC snapshot-isolation tests: no dirty reads, repeatable reads inside a
//! transaction, zero reader lock conflicts under a committing writer, and
//! vacuum shrinking version chains once the snapshots pinning them close.

use proptest::prelude::*;
use relstore::{Database, DurabilityPolicy, MemDevice, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A table of (a, b) pairs with the invariant `a == b` in every committed
/// state. The writer breaks the invariant *inside* its transactions (two
/// separate UPDATEs), so any dirty read — or any read straddling a commit —
/// shows up as `a != b`.
const PAIRS: i64 = 16;

/// A database over an in-memory log device holding `log`: empty for a new
/// database, another database's `durable_log_bytes()` to recover it.
fn on_mem_device(log: Vec<u8>) -> Database {
    Database::open_with_device(Box::new(MemDevice::with_contents(log)), DurabilityPolicy::Always)
        .unwrap()
}

fn pairs_db() -> Database {
    let db = on_mem_device(Vec::new());
    db.execute("CREATE TABLE pairs (id INT PRIMARY KEY, a INT, b INT)").unwrap();
    let ins = db.prepare("INSERT INTO pairs VALUES (?, ?, ?)").unwrap();
    db.session()
        .execute_batch(&ins, (0..PAIRS).map(|id| (id, 0i64, 0i64)))
        .unwrap();
    db
}

/// One writer step: bump `a` then `b` of one row in a transaction that
/// either commits or aborts. The intermediate state (`a` bumped, `b` not
/// yet) exists only inside the transaction.
fn write_step(db: &Database, id: i64, delta: i64, commit: bool) {
    db.session()
        .with_retries(64, |s| {
            let txn = s.transaction()?;
            txn.execute("UPDATE pairs SET a = a + ? WHERE id = ?", (delta, id))?;
            txn.execute("UPDATE pairs SET b = b + ? WHERE id = ?", (delta, id))?;
            if commit {
                txn.commit()?;
            }
            Ok(())
        })
        .expect("writer step failed");
}

#[test]
fn no_dirty_reads_and_zero_reader_conflicts_under_a_committing_writer() {
    let db = pairs_db();
    let done = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    // Readers that have finished their first loop: the writer starts once
    // all four have, so every write overlaps running readers whatever the
    // scheduler does.
    let ready = AtomicU64::new(0);
    std::thread::scope(|s| {
        let db = &db;
        let done = &done;
        let reads = &reads;
        let ready = &ready;
        // 4 readers exercising every read path: autocommit point selects,
        // pipelined batches, and in-transaction (repeatable-read) selects.
        // Not a single read may fail — the reader/writer LockConflict path
        // no longer exists.
        for t in 0..4i64 {
            s.spawn(move || {
                let point = db.prepare("SELECT a, b FROM pairs WHERE id = ?").unwrap();
                let mut i = 0i64;
                while !done.load(Ordering::Relaxed) {
                    let id = (t + i) % PAIRS;
                    // Autocommit read: committed pairs only.
                    let (a, b) = db
                        .session()
                        .query_one::<(i64, i64), _, _>(&point, (id,))
                        .expect("autocommit reader hit an error")
                        .expect("row must exist");
                    assert_eq!(a, b, "dirty or torn read on row {id}");

                    // Batched read under one snapshot.
                    for r in db
                        .session()
                        .query_batch(&point, [(id,), ((id + 1) % PAIRS,)])
                        .expect("batched reader hit an error")
                    {
                        let view = r.view(0).expect("row must exist");
                        let (a, b): (i64, i64) =
                            (view.get("a").unwrap(), view.get("b").unwrap());
                        assert_eq!(a, b, "batched dirty read");
                    }

                    // Repeatable reads: the same query twice inside one
                    // transaction returns identical rows even while the
                    // writer commits in between.
                    let txn = db.transaction();
                    let first = txn.query(&point, (id,)).expect("in-txn read failed");
                    std::thread::yield_now();
                    let second = txn.query(&point, (id,)).expect("in-txn re-read failed");
                    assert_eq!(first, second, "non-repeatable read on row {id}");
                    txn.commit().unwrap();

                    reads.fetch_add(1, Ordering::Relaxed);
                    if i == 0 {
                        ready.fetch_add(1, Ordering::Release);
                    }
                    i += 1;
                }
            });
        }
        s.spawn(move || {
            // Bounded, so a reader that panicked in its first loop fails
            // the test instead of hanging it.
            let deadline = Instant::now() + Duration::from_secs(60);
            while ready.load(Ordering::Acquire) < 4 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            for i in 0..400i64 {
                // Aborting every third transaction exercises version-chain
                // rollback under concurrent readers.
                write_step(db, (i * 5) % PAIRS, 1 + i % 3, i % 3 != 2);
            }
            done.store(true, Ordering::Relaxed);
        });
    });
    assert!(reads.load(Ordering::Relaxed) > 0, "readers must make progress");
    db.check_consistency().unwrap();
    // Steps 2, 5, ..., 398 aborted: 133 rollbacks ran under the readers.
    assert_eq!(db.stats().aborts, 133, "every third step aborted");
}

#[test]
fn repeatable_reads_span_a_concurrent_committed_write() {
    let db = pairs_db();
    let reader = db.transaction();
    let before = reader
        .query("SELECT a, b FROM pairs WHERE id = 0", ())
        .unwrap();

    // A whole writer transaction begins, updates the row and commits while
    // the reader transaction stays open.
    db.execute("UPDATE pairs SET a = 41, b = 41 WHERE id = 0").unwrap();

    // The reader's snapshot predates the writer: it keeps seeing the old
    // row, by point lookup and by scan.
    let after = reader
        .query("SELECT a, b FROM pairs WHERE id = 0", ())
        .unwrap();
    assert_eq!(before, after, "snapshot must not move mid-transaction");
    let sum: i64 = reader
        .query_one::<(i64,), _, _>("SELECT SUM(a) AS s FROM pairs", ())
        .unwrap()
        .unwrap()
        .0;
    assert_eq!(sum, 0, "scan sees the snapshot state too");
    reader.commit().unwrap();

    // A new read observes the committed write.
    let r = db.query("SELECT a FROM pairs WHERE id = 0").unwrap();
    assert_eq!(r.first_value("a"), Some(&Value::Int(41)));
}

#[test]
fn vacuum_shrinks_chains_once_the_pinning_snapshot_closes() {
    let db = pairs_db();

    // An open reader transaction pins the pre-update versions.
    let reader = db.transaction();
    let pinned = reader.query("SELECT a FROM pairs WHERE id = 0", ()).unwrap();

    for i in 1..=10i64 {
        db.execute(&format!("UPDATE pairs SET a = {i}, b = {i} WHERE id = 0")).unwrap();
    }
    assert_eq!(db.table_max_chain("pairs").unwrap(), 11, "10 updates grow the chain");
    assert!(db.stats().max_version_chain >= 11);

    // Vacuum now must retain everything the reader's snapshot can reach.
    db.vacuum_all();
    assert_eq!(
        db.table_max_chain("pairs").unwrap(),
        11,
        "an open snapshot pins the whole chain"
    );
    let still = reader.query("SELECT a FROM pairs WHERE id = 0", ()).unwrap();
    assert_eq!(pinned, still);
    reader.commit().unwrap();

    // With the snapshot closed, the checkpoint's vacuum pass collapses the
    // chain back to a single committed version per row.
    let s0 = db.stats();
    db.checkpoint().unwrap();
    assert_eq!(db.table_max_chain("pairs").unwrap(), 1);
    assert_eq!(
        db.table_versions("pairs").unwrap(),
        db.table_len("pairs").unwrap(),
        "exactly one version per live row"
    );
    assert_eq!(db.stats().delta_since(&s0).versions_vacuumed, 10);
    db.check_consistency().unwrap();

    // Recovery from the WAL carries committed versions only.
    let recovered = on_mem_device(db.durable_log_bytes().unwrap());
    assert_eq!(recovered.table_max_chain("pairs").unwrap(), 1);
    let r = recovered.query("SELECT a FROM pairs WHERE id = 0").unwrap();
    assert_eq!(r.first_value("a"), Some(&Value::Int(10)));
}

#[test]
fn vacuum_after_few_row_churn_visits_only_dirty_chains() {
    // A big table where only a handful of rows churn: the dirty-chain list
    // keeps the vacuum pass proportional to the churn, not the table.
    let db = Database::new();
    db.execute("CREATE TABLE wide (id INT PRIMARY KEY, v INT)").unwrap();
    let ins = db.prepare("INSERT INTO wide VALUES (?, 0)").unwrap();
    db.session()
        .execute_batch(&ins, (0..2_000i64).map(|i| (i,)))
        .unwrap();
    assert_eq!(db.table_dirty_chains("wide").unwrap(), 0);

    let upd = db.prepare("UPDATE wide SET v = v + 1 WHERE id = ?").unwrap();
    for id in [3i64, 700, 1_999] {
        db.session().execute(&upd, (id,)).unwrap();
    }
    db.execute("DELETE FROM wide WHERE id = 42").unwrap();
    assert_eq!(
        db.table_dirty_chains("wide").unwrap(),
        4,
        "the vacuum worklist holds the 4 churned chains, not all 2000"
    );

    let s0 = db.stats();
    assert_eq!(db.vacuum_all(), 4);
    assert_eq!(db.stats().delta_since(&s0).versions_vacuumed, 4);
    assert_eq!(db.table_dirty_chains("wide").unwrap(), 0);
    assert_eq!(db.table_versions("wide").unwrap(), 1_999);
    db.check_consistency().unwrap();
}

#[test]
fn writers_vacuum_their_own_bloat_past_the_threshold() {
    let db = pairs_db();
    // Autocommit updates on one row: each leaves a dead version behind. The
    // write path's threshold vacuum must keep the chain bounded without any
    // checkpoint being taken.
    for i in 0..2_000i64 {
        db.execute(&format!("UPDATE pairs SET a = {i}, b = {i} WHERE id = 3")).unwrap();
    }
    let versions = db.table_versions("pairs").unwrap();
    assert!(
        versions < 600,
        "threshold vacuum must bound retained versions, got {versions}"
    );
    assert!(db.stats().versions_vacuumed >= 1_000);
    db.check_consistency().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random schedules of committing/aborting writer transactions keep
    /// every concurrent read consistent (a == b on every row, always) and
    /// reconcile to exactly the committed deltas.
    #[test]
    fn random_write_schedules_never_produce_dirty_reads(
        steps in proptest::collection::vec((0..PAIRS, 1..5i64, true), 1..60)
    ) {
        let db = pairs_db();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let db = &db;
            let done = &done;
            let steps = &steps;
            for _ in 0..2 {
                s.spawn(move || {
                    let all = db.prepare("SELECT a, b FROM pairs").unwrap();
                    while !done.load(Ordering::Relaxed) {
                        let rows = db
                            .session()
                            .query_as::<(i64, i64), _, _>(&all, ())
                            .expect("reader must never fail");
                        for (a, b) in rows {
                            assert_eq!(a, b, "dirty read under a random schedule");
                        }
                    }
                });
            }
            s.spawn(move || {
                for &(id, delta, commit) in steps {
                    write_step(db, id, delta, commit);
                }
                done.store(true, Ordering::Relaxed);
            });
        });

        // Committed deltas (and only those) are visible at the end.
        let mut expected = vec![0i64; PAIRS as usize];
        for &(id, delta, commit) in &steps {
            if commit {
                expected[id as usize] += delta;
            }
        }
        let rows = db
            .session()
            .query_as::<(i64, i64, i64), _, _>("SELECT id, a, b FROM pairs ORDER BY id", ())
            .unwrap();
        for (id, a, b) in rows {
            prop_assert_eq!(a, expected[id as usize], "row {} reconciles", id);
            prop_assert_eq!(a, b);
        }
        db.check_consistency().unwrap();
    }
}
