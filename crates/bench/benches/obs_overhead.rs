//! Measures what observability costs on the statement hot path — the
//! pay-for-what-you-arm claim, quantified.
//!
//! Observability is always on (histograms and profiles have no off switch),
//! so `prepared_point_select` here IS the fully-instrumented hot path: one
//! stopwatch pair and one relaxed histogram add per statement on top of the
//! work itself. The acceptance band for this bench is the same one the
//! pre-observability engine held, so any regression the instrumentation
//! introduces shows up as a band violation, not a silent drift.
//!
//! The remaining functions price the optional layers: an *armed but quiet*
//! slow-query log (threshold high, nothing captured — one extra relaxed
//! load per statement), a *capturing* slow-query log (threshold zero, every
//! statement enters the ring — the worst case a misconfigured threshold can
//! buy), and the monitoring queries themselves (a full `rel_histograms`
//! synthesis + scan, priced so dashboards know what they spend).

use criterion::{criterion_group, criterion_main, Criterion};
use relstore::Database;
use std::hint::black_box;
use std::time::Duration;

fn setup_db(rows: usize) -> Database {
    let db = Database::new();
    db.execute(
        "CREATE TABLE jobs (job_id INT PRIMARY KEY, owner TEXT NOT NULL, state TEXT, runtime_ms INT)",
    )
    .unwrap();
    for i in 0..rows {
        db.execute(&format!(
            "INSERT INTO jobs VALUES ({i}, 'user{}', 'idle', 60000)",
            i % 50
        ))
        .unwrap();
    }
    db
}

fn bench_obs_overhead(c: &mut Criterion) {
    let db = setup_db(5_000);
    let q = db.prepare("SELECT * FROM jobs WHERE job_id = ?").unwrap();
    let session = db.session();

    // Histograms + statement profile armed (they always are): the band this
    // must hold is the engine's pre-observability prepared point select.
    c.bench_function("prepared_point_select", |b| {
        b.iter(|| session.query(black_box(&q), black_box((2500i64,))).unwrap())
    });

    // Slow-query log armed with a threshold nothing crosses: adds one
    // relaxed load + compare per statement.
    db.set_slow_query_threshold(Some(Duration::from_secs(10)));
    c.bench_function("prepared_point_select_slowlog_armed", |b| {
        b.iter(|| session.query(black_box(&q), black_box((2500i64,))).unwrap())
    });

    // Threshold zero: every statement formats its SQL and enters the ring
    // under a mutex — the price of a misconfigured (or deliberately
    // capture-everything) threshold.
    db.set_slow_query_threshold(Some(Duration::ZERO));
    c.bench_function("prepared_point_select_slowlog_capturing", |b| {
        b.iter(|| session.query(black_box(&q), black_box((2500i64,))).unwrap())
    });
    db.set_slow_query_threshold(None);

    // What a monitoring dashboard pays per poll: synthesize rel_histograms
    // from the live atomics and scan it through the ordinary executor.
    c.bench_function("system_table_scan", |b| {
        b.iter(|| {
            db.query(black_box(
                "SELECT name, count, p50_us, p99_us FROM rel_histograms",
            ))
            .unwrap()
        })
    });

    // And the raw in-process path the wire monitor sits on top of: one
    // histogram snapshot + three quantile walks, no SQL.
    c.bench_function("histogram_snapshot_quantiles", |b| {
        b.iter(|| {
            let snap = db.obs().histograms.statement(relstore::StmtKind::Select).snapshot();
            black_box((snap.quantile(0.5), snap.quantile(0.95), snap.quantile(0.99)))
        })
    });
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
