//! Insert throughput under each durability mode: the price of an fsync per
//! commit vs an fsync per window vs none at all.
//!
//! `mem_baseline` is the embedded in-memory engine (no durable device);
//! `fs_always` forces the log on every commit; `fs_batch_8` syncs once per
//! 8 commits; `fs_checkpoint_only` never syncs on the commit path. The
//! gap between `mem_baseline` and `fs_checkpoint_only` is the cost of
//! encoding + appending records to a file; the gap up to `fs_always` is
//! almost entirely fsync latency.
//!
//! `cas_lifecycle_fs_always` is the same price at the level the system pays
//! it: 8 machines carried through register → submit → match → accept →
//! running → completed by the CAS service methods on an `Always` log — 49
//! service calls, each one transaction, so 49 log forces per iteration.
//!
//! `reopen_checkpointed_130k` / `reopen_log_only_130k` time
//! `Database::open_with_device` over an in-memory device holding the same
//! 130 k-row database (4 columns, one secondary index, 2,000 single-row
//! updates on top): once as a checkpoint image plus the 2 k-update suffix,
//! once as the plain log that produced it. It is the engine-side twin of the
//! end-to-end `call.recovery_s`, and the baseline an automatic checkpoint
//! policy is judged against.

use condorj2::{CasState, HeartbeatReply, HeartbeatReport};
use criterion::{criterion_group, criterion_main, Criterion};
use relstore::{Database, DurabilityPolicy, MemDevice};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;

const INSERTS: i64 = 32;

fn temp_log(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "relstore_bench_wal_{}_{}.wal",
        tag,
        std::process::id()
    ))
}

fn setup(db: &Database) {
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, owner TEXT, state TEXT)").unwrap();
}

/// One iteration: INSERTS autocommit inserts (each its own commit), then a
/// wipe so every iteration starts empty.
fn run_inserts(db: &Database, ins: &relstore::Prepared, wipe: &relstore::Prepared) {
    let sql = db.session();
    for i in 0..INSERTS {
        sql.execute(black_box(ins), (i, "user", "idle")).unwrap();
    }
    sql.execute(wipe, ()).unwrap();
}

fn bench_wal_durability(c: &mut Criterion) {
    let cases: Vec<(&str, Database, Option<PathBuf>)> = vec![
        ("mem_baseline", Database::new(), None),
        {
            let path = temp_log("always");
            let _ = std::fs::remove_file(&path);
            (
                "fs_always",
                Database::open_durable_with(&path, DurabilityPolicy::Always).unwrap(),
                Some(path),
            )
        },
        {
            let path = temp_log("batch8");
            let _ = std::fs::remove_file(&path);
            (
                "fs_batch_8",
                Database::open_durable_with(&path, DurabilityPolicy::Batch(8)).unwrap(),
                Some(path),
            )
        },
        {
            let path = temp_log("ckpt");
            let _ = std::fs::remove_file(&path);
            (
                "fs_checkpoint_only",
                Database::open_durable_with(&path, DurabilityPolicy::Checkpoint).unwrap(),
                Some(path),
            )
        },
    ];

    for (name, db, path) in &cases {
        setup(db);
        let ins = db.prepare("INSERT INTO jobs VALUES (?, ?, ?)").unwrap();
        let wipe = db.prepare("DELETE FROM jobs").unwrap();
        c.bench_function(&format!("wal_insert_{INSERTS}_{name}"), |b| {
            b.iter(|| run_inserts(db, &ins, &wipe))
        });
        // Keep the log from growing across the whole run: compact it once
        // per benchmarked mode (also exercises rotation under load).
        if db.is_durable() {
            db.checkpoint().unwrap();
        }
        if let Some(p) = path {
            let _ = std::fs::remove_file(p);
        }
    }
}

const MACHINES: i64 = 8;

/// One iteration: every machine (re-)registers, one job per machine is
/// submitted, one scheduler pass matches them, and each machine polls,
/// accepts, reports running and reports completed.
fn run_cas_lifecycle(cas: &mut CasState) {
    for m in 1..=MACHINES {
        cas.register_machine(m, "vm", 1.0, m, 2048).unwrap();
        cas.submit_job("user", 60_000).unwrap();
    }
    assert_eq!(cas.run_scheduler().unwrap(), MACHINES as usize);
    for m in 1..=MACHINES {
        let HeartbeatReply::MatchInfo { job_id } = cas.heartbeat(m, HeartbeatReport::Idle).unwrap()
        else {
            panic!("machine {m} was matched");
        };
        cas.accept_match(m, job_id).unwrap();
        cas.heartbeat(m, HeartbeatReport::Running { job_id }).unwrap();
        cas.heartbeat(m, HeartbeatReport::Completed { job_id }).unwrap();
    }
}

fn bench_cas_lifecycle(c: &mut Criterion) {
    let path = temp_log("cas_always");
    let _ = std::fs::remove_file(&path);
    let db = Arc::new(Database::open_durable_with(&path, DurabilityPolicy::Always).unwrap());
    let mut cas = CasState::new(Arc::clone(&db)).unwrap();
    c.bench_function("cas_lifecycle_fs_always", |b| {
        b.iter(|| run_cas_lifecycle(black_box(&mut cas)))
    });
    let _ = std::fs::remove_file(&path);
}

const REOPEN_ROWS: i64 = 130_000;
const REOPEN_SUFFIX_UPDATES: i64 = 2_000;

fn open_mem(bytes: Vec<u8>) -> Database {
    Database::open_with_device(Box::new(MemDevice::with_contents(bytes)), DurabilityPolicy::Always)
        .unwrap()
}

/// The log bytes of a 130 k-row database with 2,000 single-row updates on
/// top; with `checkpoint`, the bulk load is rotated into one image first.
fn reopen_log(checkpoint: bool) -> Vec<u8> {
    let db = open_mem(Vec::new());
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, owner TEXT, state TEXT, runtime_ms INT)")
        .unwrap();
    db.execute("CREATE INDEX ON jobs (state)").unwrap();
    let ins = db.prepare("INSERT INTO jobs VALUES (?, ?, ?, ?)").unwrap();
    let sql = db.session();
    for chunk in 0..REOPEN_ROWS / 1_000 {
        let ids = chunk * 1_000..(chunk + 1) * 1_000;
        sql.execute_batch(&ins, ids.map(|i| (i, format!("user{}", i % 50), "idle", 60_000i64)))
            .unwrap();
    }
    if checkpoint {
        db.checkpoint().unwrap();
    }
    let upd = db.prepare("UPDATE jobs SET state = ? WHERE job_id = ?").unwrap();
    for i in 0..REOPEN_SUFFIX_UPDATES {
        sql.execute(&upd, ("running", i * (REOPEN_ROWS / REOPEN_SUFFIX_UPDATES))).unwrap();
    }
    db.durable_log_bytes().unwrap()
}

fn bench_reopen(c: &mut Criterion) {
    for (name, checkpoint) in [("reopen_checkpointed_130k", true), ("reopen_log_only_130k", false)] {
        let bytes = reopen_log(checkpoint);
        let reopened = open_mem(bytes.clone());
        assert_eq!(reopened.table_len("jobs").unwrap() as i64, REOPEN_ROWS);
        drop(reopened);
        // The device takes its contents by value; the ~10 MB copy is under
        // 1 % of an open.
        c.bench_function(name, |b| b.iter(|| open_mem(black_box(bytes.clone()))));
    }
}

criterion_group!(benches, bench_wal_durability, bench_cas_lifecycle, bench_reopen);
criterion_main!(benches);
