//! Batched vs per-statement prepared execution: the scheduler-sweep shape.
//!
//! A matchmaking pass writes N near-identical rows. `loop_insert` pays one
//! catalog write guard and ~3 WAL appends per row; `batch_insert` runs the
//! same bindings through `execute_batch` — one guard, one WAL append for the
//! whole batch. `batch_point_select` pipelines N point lookups under a single
//! shared read guard against the 5k-row table, vs the per-call loop.

use criterion::{criterion_group, criterion_main, Criterion};
use relstore::Database;
use std::hint::black_box;

const BATCH: i64 = 100;
const SELECT_BATCH: usize = 64;

fn setup_db(rows: usize) -> Database {
    let db = Database::new();
    db.execute(
        "CREATE TABLE jobs (job_id INT PRIMARY KEY, owner TEXT NOT NULL, state TEXT, runtime_ms INT)",
    )
    .unwrap();
    db.execute("CREATE INDEX ON jobs (state)").unwrap();
    let ins = db
        .prepare("INSERT INTO jobs VALUES (?, ?, 'idle', 60000)")
        .unwrap();
    db.session()
        .execute_batch(&ins, (0..rows).map(|i| (i as i64, format!("user{}", i % 50))))
        .unwrap();
    db
}

fn bench_batch_exec(c: &mut Criterion) {
    let db = setup_db(5_000);
    db.execute("CREATE TABLE matches (match_id INT PRIMARY KEY, job_id INT, machine_id INT)")
        .unwrap();
    let insert = db.prepare("INSERT INTO matches VALUES (?, ?, ?)").unwrap();
    let wipe = db.prepare("DELETE FROM matches").unwrap();

    // N inserts through one execute_batch call (one guard, one WAL append),
    // then a wipe so every iteration starts empty.
    c.bench_function("batch_insert_100", |b| {
        b.iter(|| {
            let n = db
                .session()
                .execute_batch(
                    black_box(&insert),
                    (0..BATCH).map(|i| (i, 1_000 + i, 2_000 + i)),
                )
                .unwrap();
            assert_eq!(n, BATCH as usize);
            db.session().execute(&wipe, ()).unwrap();
        })
    });

    // The same N inserts as a per-statement loop (the pre-batching shape).
    c.bench_function("loop_insert_100", |b| {
        b.iter(|| {
            let sql = db.session();
            for i in 0..BATCH {
                sql.execute(black_box(&insert), (i, 1_000 + i, 2_000 + i)).unwrap();
            }
            sql.execute(&wipe, ()).unwrap();
        })
    });

    // N point selects pipelined under one shared catalog guard...
    let point = db.prepare("SELECT * FROM jobs WHERE job_id = ?").unwrap();
    c.bench_function("batch_point_select_64", |b| {
        b.iter(|| {
            let results = db
                .session()
                .query_batch(
                    black_box(&point),
                    (0..SELECT_BATCH).map(|i| ((i as i64 * 79) % 5_000,)),
                )
                .unwrap();
            assert_eq!(results.len(), SELECT_BATCH);
            black_box(results)
        })
    });

    // ...vs the same selects as individual statements.
    c.bench_function("loop_point_select_64", |b| {
        b.iter(|| {
            let sql = db.session();
            for i in 0..SELECT_BATCH {
                black_box(
                    sql.query(black_box(&point), ((i as i64 * 79) % 5_000,)).unwrap(),
                );
            }
        })
    });
}

criterion_group!(benches, bench_batch_exec);
criterion_main!(benches);
