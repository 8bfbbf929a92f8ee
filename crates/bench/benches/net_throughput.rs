//! The wire against the embedded engine, one operation shape at a time.
//!
//! Every target runs twice — `embedded_*` through an in-process `Session`,
//! `loopback_*` through a `Client` over loopback TCP to a server over the
//! same database — so the gap between a pair is the cost of the wire for
//! that shape: a prepared point select, a prepared point update, a 64-
//! binding `query_batch` (one request frame, 129 reply frames), and a
//! 1,000-row result streamed in pages. The `loopback_point_select_threads_*`
//! sweep runs 256 point selects on each of 1, 2, 4 and 8 connections at
//! once, each served by its own worker thread; an iteration is the whole
//! round, so throughput is `threads × 256 / time`.
//!
//! Each routine asserts its answer while it is measured — a point select
//! returns its row, an update one affected row, a batch 64 results, a
//! stream 1,000 rows — so a bench-smoke run fails on a wrong answer rather
//! than timing it.

use criterion::{criterion_group, criterion_main, Criterion};
use relstore::{Database, ExecResult, QueryResult, Value};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use wire::{serve_with, Client, RemoteStatement, ServerConfig};

const ROWS: i64 = 5_000;
const POINT_SELECT: &str = "SELECT * FROM jobs WHERE job_id = ?";
const POINT_UPDATE: &str = "UPDATE jobs SET runtime_ms = ? WHERE job_id = ?";
const BATCH_SELECT: &str = "SELECT owner FROM jobs WHERE job_id = ?";
const STREAM: &str = "SELECT * FROM jobs WHERE job_id >= ? AND job_id < ?";
const SWEEP_OPS: u64 = 256;

fn setup_db() -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.execute(
        "CREATE TABLE jobs (job_id INT PRIMARY KEY, owner TEXT NOT NULL, state TEXT, runtime_ms INT)",
    )
    .unwrap();
    let ins = db
        .prepare("INSERT INTO jobs VALUES (?, ?, 'idle', 60000)")
        .unwrap();
    db.session()
        .execute_batch(&ins, (0..ROWS).map(|i| (i, format!("user{}", i % 50))))
        .unwrap();
    db
}

/// The `i`-th key of a walk that visits every row.
fn key(i: u64) -> i64 {
    ((i * 40_503) % ROWS as u64) as i64
}

fn assert_point(result: &QueryResult, id: i64) {
    assert_eq!(result.rows.len(), 1, "point select of {id}");
    assert_eq!(result.rows[0].get(0), &Value::Int(id));
}

fn assert_batch(results: &[QueryResult]) {
    assert_eq!(results.len(), 64);
    assert!(results.iter().all(|r| r.rows.len() == 1));
}

fn batch_bindings() -> Vec<(i64,)> {
    (0..64i64).map(|i| ((i * 79) % ROWS,)).collect()
}

fn bench_embedded(c: &mut Criterion, db: &Database) {
    let session = db.session();
    let select = db.prepare(POINT_SELECT).unwrap();
    let update = db.prepare(POINT_UPDATE).unwrap();
    let batch = db.prepare(BATCH_SELECT).unwrap();
    let stream = db.prepare(STREAM).unwrap();
    let bindings = batch_bindings();
    let mut i = 0u64;
    c.bench_function("embedded_point_select", |b| {
        b.iter(|| {
            i += 1;
            let r = session.query(&select, (key(i),)).unwrap();
            assert_point(&r, key(i));
            r
        })
    });
    c.bench_function("embedded_point_update", |b| {
        b.iter(|| {
            i += 1;
            let n = session.execute(&update, (i as i64, key(i))).unwrap();
            assert!(matches!(n, ExecResult::Affected(1)));
        })
    });
    c.bench_function("embedded_query_batch_64", |b| {
        b.iter(|| {
            let results = session.query_batch(&batch, bindings.clone()).unwrap();
            assert_batch(&results);
            results
        })
    });
    c.bench_function("embedded_stream_1000_rows", |b| {
        b.iter(|| {
            let r = session.query(&stream, (1_000i64, 2_000i64)).unwrap();
            assert_eq!(r.rows.len(), 1_000);
            r
        })
    });
}

fn bench_loopback(c: &mut Criterion, addr: SocketAddr) {
    let mut client = Client::connect(addr).unwrap();
    let select = client.prepare(POINT_SELECT).unwrap();
    let update = client.prepare(POINT_UPDATE).unwrap();
    let batch = client.prepare(BATCH_SELECT).unwrap();
    let stream = client.prepare(STREAM).unwrap();
    let bindings = batch_bindings();
    let mut i = 0u64;
    c.bench_function("loopback_point_select", |b| {
        b.iter(|| {
            i += 1;
            let r = client.query(select, (key(i),)).unwrap();
            assert_point(&r, key(i));
            r
        })
    });
    c.bench_function("loopback_point_update", |b| {
        b.iter(|| {
            i += 1;
            let n = client.execute(update, (i as i64, key(i))).unwrap();
            assert!(matches!(n, ExecResult::Affected(1)));
        })
    });
    c.bench_function("loopback_query_batch_64", |b| {
        b.iter(|| {
            let results = client.query_batch(batch, bindings.clone()).unwrap();
            assert_batch(&results);
            results
        })
    });
    c.bench_function("loopback_stream_1000_rows", |b| {
        b.iter(|| {
            let r = client.query(stream, (1_000i64, 2_000i64)).unwrap();
            assert_eq!(r.rows.len(), 1_000);
            r
        })
    });
}

/// One round of the thread sweep: `SWEEP_OPS` point selects on each
/// connection, all connections at once.
fn sweep_round(clients: &mut [(Client, RemoteStatement)], round: u64) {
    std::thread::scope(|s| {
        for (t, (client, select)) in clients.iter_mut().enumerate() {
            let select = *select;
            s.spawn(move || {
                for i in 0..SWEEP_OPS {
                    let id = key(round * SWEEP_OPS + i + t as u64 * 2_654_435_761);
                    let r = client.query(select, (id,)).unwrap();
                    assert_point(&r, id);
                    black_box(r);
                }
            });
        }
    });
}

fn bench_thread_sweep(c: &mut Criterion, addr: SocketAddr) {
    for threads in [1usize, 2, 4, 8] {
        let mut clients: Vec<(Client, RemoteStatement)> = (0..threads)
            .map(|_| {
                let mut client = Client::connect(addr).unwrap();
                let select = client.prepare(POINT_SELECT).unwrap();
                (client, select)
            })
            .collect();
        let mut round = 0u64;
        c.bench_function(&format!("loopback_point_select_threads_{threads}"), |b| {
            b.iter(|| {
                round += 1;
                sweep_round(&mut clients, round);
            })
        });
    }
}

fn bench_net_throughput(c: &mut Criterion) {
    let db = setup_db();
    let server = serve_with(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            workers: 16,
            max_connections: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    bench_embedded(c, &db);
    bench_loopback(c, server.local_addr());
    bench_thread_sweep(c, server.local_addr());
    server.shutdown();
    db.check_consistency().expect("consistency after the bench");
}

criterion_group!(benches, bench_net_throughput);
criterion_main!(benches);
