//! Mixed-workload contention bench: N reader threads run prepared point
//! selects **against a continuously committing writer**. The headline MVCC
//! numbers: aggregate reader ops/s per thread count and — the property this
//! subsystem exists for — a reader error count that must be **zero** (before
//! MVCC, every reader racing the writer's table lock got a retryable
//! `LockConflict`, so this column counted thousands and every service caller
//! carried a retry loop).
//!
//! The writer loops single-row autocommit UPDATEs for the whole measurement
//! window; its commit count is reported so runs are comparable. On a
//! single-core host aggregate throughput stays flat as threads are added;
//! run on a multi-core machine (e.g. the CI runners) to see the scaling.

use relstore::Database;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

const ROWS: i64 = 5_000;

fn setup_db() -> Database {
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
        .execute_batch(&ins, (0..ROWS).map(|i| (i, format!("user{}", i % 50))))
        .unwrap();
    db
}

struct Run {
    ops: u64,
    reader_errors: u64,
    writer_commits: u64,
    secs: f64,
}

/// Drives `threads` readers for `iters_per_thread` point selects each while
/// one writer thread commits updates in a loop until the readers finish.
fn run_contended(db: &Database, threads: usize, iters_per_thread: u64) -> Run {
    let select = db.prepare("SELECT * FROM jobs WHERE job_id = ?").unwrap();
    let update = db
        .prepare("UPDATE jobs SET runtime_ms = runtime_ms + 1, state = ? WHERE job_id = ?")
        .unwrap();
    let stop_writer = AtomicBool::new(false);
    let reader_errors = AtomicU64::new(0);
    let writer_commits = AtomicU64::new(0);
    let barrier = Barrier::new(threads + 2);
    let mut secs = 0.0f64;
    std::thread::scope(|s| {
        let mut readers = Vec::with_capacity(threads);
        for t in 0..threads {
            let select = select.clone();
            let (barrier, reader_errors) = (&barrier, &reader_errors);
            readers.push(s.spawn(move || {
                let session = db.session();
                barrier.wait();
                for i in 0..iters_per_thread {
                    let id = ((t as u64 * 2_654_435_761 + i * 40_503) % ROWS as u64) as i64;
                    match session.query(&select, (id,)) {
                        Ok(r) => {
                            std::hint::black_box(r);
                        }
                        Err(_) => {
                            reader_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }));
        }
        let writer = {
            let (barrier, stop_writer, writer_commits) =
                (&barrier, &stop_writer, &writer_commits);
            let update = update.clone();
            s.spawn(move || {
                let session = db.session();
                barrier.wait();
                let mut i = 0u64;
                while !stop_writer.load(Ordering::Relaxed) {
                    let id = (i % ROWS as u64) as i64;
                    let state = if i.is_multiple_of(2) { "busy" } else { "idle" };
                    session
                        .execute(&update, (state, id))
                        .expect("the only writer cannot conflict");
                    writer_commits.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            })
        };
        barrier.wait();
        let start = Instant::now();
        for handle in readers {
            handle.join().unwrap();
        }
        secs = start.elapsed().as_secs_f64();
        stop_writer.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    });
    Run {
        ops: threads as u64 * iters_per_thread,
        reader_errors: reader_errors.load(Ordering::Relaxed),
        writer_commits: writer_commits.load(Ordering::Relaxed),
        secs,
    }
}

fn main() {
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "MVCC contention: prepared point selects vs a continuous writer, \
         {ROWS}-row jobs table, host parallelism = {parallelism}"
    );
    let db = setup_db();

    // Warm the statement cache and branch predictors.
    let _ = run_contended(&db, 1, 2_000);

    let total_iters = 200_000u64;
    let mut failed = false;
    for &threads in &[1usize, 2, 4, 8] {
        let iters = (total_iters / threads as u64).max(1);
        let run = run_contended(&db, threads, iters);
        println!(
            "mvcc_point_select_vs_writer threads={threads}  {:>12.0} reader ops/s  \
             {:>10.1} ns/op  reader errors {}  writer commits {:>7}",
            run.ops as f64 / run.secs,
            run.secs * 1e9 / (run.ops / threads as u64) as f64,
            run.reader_errors,
            run.writer_commits,
        );
        if run.reader_errors != 0 {
            failed = true;
        }
    }
    // Version-store bookkeeping for the run: how much vacuum kept up with.
    let stats = db.stats();
    println!(
        "version store: created {} vacuumed {} max chain {} snapshots {}",
        stats.versions_created,
        stats.versions_vacuumed,
        stats.max_version_chain,
        stats.snapshots_taken,
    );
    db.check_consistency().expect("consistency after contention");
    assert!(
        !failed,
        "MVCC readers must finish with ZERO errors against a committing writer"
    );
}
