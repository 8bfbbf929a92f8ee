//! Proof that resource governance is free when disarmed: the prepared
//! point select — the hottest statement shape in the cluster-middleware
//! workload — through a session with `Governance::NONE` (the disarmed
//! governor: one branch per check) and through a fully armed governor with
//! generous limits. The first must be indistinguishable from the
//! `relstore_ops` `prepared_point_select` baseline (it is the same call);
//! the second prices what arming actually costs.

use criterion::{criterion_group, criterion_main, Criterion};
use relstore::{Database, Governance};
use std::hint::black_box;
use std::time::Duration;

fn setup_db(rows: usize) -> Database {
    let db = Database::new();
    db.execute(
        "CREATE TABLE jobs (job_id INT PRIMARY KEY, owner TEXT NOT NULL, state TEXT, runtime_ms INT)",
    )
    .unwrap();
    db.execute("CREATE INDEX ON jobs (state)").unwrap();
    for i in 0..rows {
        db.execute(&format!(
            "INSERT INTO jobs VALUES ({i}, 'user{}', 'idle', 60000)",
            i % 50
        ))
        .unwrap();
    }
    db
}

fn bench_governance(c: &mut Criterion) {
    let db = setup_db(5_000);
    let q = db.prepare("SELECT * FROM jobs WHERE job_id = ?").unwrap();

    // No limits: every statement arms a disarmed governor, whose every check
    // is one predictable branch — the entire disarmed-governance tax.
    let unlimited = db.session();
    c.bench_function("prepared_point_select_governed_none", |b| {
        b.iter(|| unlimited.query(black_box(&q), black_box((2500i64,))).unwrap())
    });

    // Fully armed with generous limits nothing trips: deadline arithmetic,
    // budget counters and row sizing all run. This is the worst case a
    // governed service statement pays.
    let armed = db.session().with_governance(Governance {
        deadline: Some(Duration::from_secs(30)),
        max_rows: Some(1_000_000),
        max_bytes: Some(1 << 30),
        ..Governance::default()
    });
    c.bench_function("prepared_point_select_governed_armed", |b| {
        b.iter(|| armed.query(black_box(&q), black_box((2500i64,))).unwrap())
    });

    // The armed tax on a statement that actually ticks per row: a bounded
    // index range (50 rows) under full limits.
    let range = db
        .prepare("SELECT job_id FROM jobs WHERE job_id >= ? AND job_id < ?")
        .unwrap();
    c.bench_function("range_select_governed_armed", |b| {
        b.iter(|| {
            armed
                .query(black_box(&range), black_box((2400i64, 2450i64)))
                .unwrap()
        })
    });
}

criterion_group!(benches, bench_governance);
criterion_main!(benches);
