//! Cost-based join planning: what the planner buys, priced.
//!
//! `planned_3table_join` vs `naive_3table_join` is the headline number: the
//! same skewed three-table join on identical data, once with the cost-based
//! planner choosing the join order from ANALYZE statistics, once pinned to
//! the syntactic left-to-right order (`set_join_reorder(false)`). The
//! selective side (`tiny`, filtered to a handful of rows) should be joined
//! first; left-to-right materializes the full big⋈mid intermediate instead.
//! The planner must win by ≥2× on this shape.
//!
//! `prepared_join_reused` vs `prepared_join_rebuilt` is a prepared hash
//! join with no write between runs and with a one-row write to the build
//! table before each run. Every execution builds its side afresh (by
//! reference into the heap), so the two differ by the write alone.
//!
//! `planned_point_select` vs `forced_scan_point_select` is the access-path
//! choice in isolation, and the `app_side_join` / `sql_join` pair measures
//! the application-side join loop the CAS used to run against the single
//! JOIN statement that replaced it. The `_churned` twins of that pair
//! delete and re-insert one `runs` row between lookups, as the live CAS
//! does on every accept and completion.

use criterion::{criterion_group, criterion_main, Criterion};
use relstore::{Database, Prepared, QueryResult, Value};
use std::hint::black_box;

const BIG_ROWS: i64 = 10_000;
const MID_ROWS: i64 = 2_000;
const MID_KEYS: i64 = 1_000;
const TINY_ROWS: i64 = 20;

/// Three tables with deliberately skewed sizes: the `mid` join fans out 2x
/// (two `mid` rows per key), the `tiny` join — filtered to a single row —
/// cuts the pipeline 20x. Joining `tiny` first keeps the intermediate
/// result small; left-to-right materializes the doubled big⋈mid product
/// before throwing 95% of it away.
fn skewed_db() -> Database {
    let db = Database::new();
    db.execute(
        "CREATE TABLE big (id INT PRIMARY KEY, fk_mid INT, fk_tiny INT, pad TEXT)",
    )
    .unwrap();
    db.execute("CREATE INDEX ON big (fk_mid)").unwrap();
    db.execute("CREATE TABLE mid (id INT PRIMARY KEY, fk INT, label TEXT)").unwrap();
    db.execute("CREATE INDEX ON mid (fk)").unwrap();
    db.execute("CREATE TABLE tiny (id INT PRIMARY KEY, flag INT)").unwrap();

    let ins = db
        .prepare("INSERT INTO big VALUES (?, ?, ?, 'payload-padding-bytes')")
        .unwrap();
    db.session()
        .execute_batch(&ins, (0..BIG_ROWS).map(|i| (i, i % MID_KEYS, i % TINY_ROWS)))
        .unwrap();
    let ins = db.prepare("INSERT INTO mid VALUES (?, ?, 'mid-label')").unwrap();
    db.session()
        .execute_batch(&ins, (0..MID_ROWS).map(|i| (i, i % MID_KEYS)))
        .unwrap();
    // Exactly one tiny row carries flag = 1, so the filtered build side is
    // a single entry and the early join cuts the pipeline 20x.
    let ins = db.prepare("INSERT INTO tiny VALUES (?, ?)").unwrap();
    db.session()
        .execute_batch(&ins, (0..TINY_ROWS).map(|i| (i, i64::from(i == 7))))
        .unwrap();
    db.execute("ANALYZE").unwrap();
    db
}

const SKEWED_JOIN: &str = "SELECT COUNT(*) FROM big \
     JOIN mid ON big.fk_mid = mid.fk \
     JOIN tiny ON big.fk_tiny = tiny.id \
     WHERE tiny.flag = 1";

fn bench_join_order(c: &mut Criterion) {
    let planned = skewed_db();
    let naive = skewed_db();
    naive.set_join_reorder(false);

    // Both configurations must agree before either number means anything.
    let expected = planned.query(SKEWED_JOIN).unwrap().scalar_int().unwrap();
    assert_eq!(expected, 2 * BIG_ROWS / TINY_ROWS);
    assert_eq!(naive.query(SKEWED_JOIN).unwrap().scalar_int().unwrap(), expected);

    c.bench_function("planned_3table_join", |b| {
        b.iter(|| {
            let r = planned.query(black_box(SKEWED_JOIN)).unwrap();
            assert_eq!(r.scalar_int().unwrap(), expected);
            black_box(r)
        })
    });

    c.bench_function("naive_3table_join", |b| {
        b.iter(|| {
            let r = naive.query(black_box(SKEWED_JOIN)).unwrap();
            assert_eq!(r.scalar_int().unwrap(), expected);
            black_box(r)
        })
    });
}

fn bench_build_reuse(c: &mut Criterion) {
    let db = skewed_db();
    let join = db
        .prepare("SELECT COUNT(*) FROM big JOIN mid ON big.fk_mid = mid.id")
        .unwrap();
    let touch = db.prepare("UPDATE mid SET label = ? WHERE id = 0").unwrap();

    // No write between executions.
    c.bench_function("prepared_join_reused", |b| {
        b.iter(|| {
            let r = db.session().query(black_box(&join), ()).unwrap();
            assert_eq!(r.scalar_int().unwrap(), BIG_ROWS);
            black_box(r)
        })
    });

    // A one-row write to the build table before each execution.
    c.bench_function("prepared_join_rebuilt", |b| {
        b.iter(|| {
            db.session().execute(&touch, ("touched",)).unwrap();
            let r = db.session().query(black_box(&join), ()).unwrap();
            assert_eq!(r.scalar_int().unwrap(), BIG_ROWS);
            black_box(r)
        })
    });
}

fn bench_access_path(c: &mut Criterion) {
    let planned = skewed_db();
    let scan = skewed_db();
    scan.set_force_scan(true);

    let point_planned = planned.prepare("SELECT * FROM big WHERE id = ?").unwrap();
    let point_scan = scan.prepare("SELECT * FROM big WHERE id = ?").unwrap();

    c.bench_function("planned_point_select", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 79) % BIG_ROWS;
            let r = planned.session().query(black_box(&point_planned), (k,)).unwrap();
            assert_eq!(r.len(), 1);
            black_box(r)
        })
    });

    c.bench_function("forced_scan_point_select", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 79) % BIG_ROWS;
            let r = scan.session().query(black_box(&point_scan), (k,)).unwrap();
            assert_eq!(r.len(), 1);
            black_box(r)
        })
    });
}

/// Size of `jobs` and `runs` in the lookup benches: the 1,000-VM pool.
const JOBS: i64 = 1_000;

/// `jobs` and `runs` mirroring the real CAS schema closely enough for the
/// delta to transfer, plus the statements the lookup benches run on them.
struct LookupDb {
    db: Database,
    job_q: Prepared,
    run_q: Prepared,
    joined: Prepared,
    run_delete: Prepared,
    run_insert: Prepared,
}

impl LookupDb {
    fn new() -> Self {
        let db = Database::new();
        db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, owner TEXT, runtime_ms INT)")
            .unwrap();
        db.execute("CREATE TABLE runs (run_id INT PRIMARY KEY, job_id INT, machine_id INT)")
            .unwrap();
        db.execute("CREATE INDEX ON runs (job_id)").unwrap();
        let ins = db.prepare("INSERT INTO jobs VALUES (?, ?, 60000)").unwrap();
        db.session()
            .execute_batch(&ins, (0..JOBS).map(|i| (i, format!("user{}", i % 16))))
            .unwrap();
        let ins = db.prepare("INSERT INTO runs VALUES (?, ?, ?)").unwrap();
        db.session()
            .execute_batch(&ins, (0..JOBS).map(|i| (i, i, i % 32)))
            .unwrap();
        db.execute("ANALYZE").unwrap();
        LookupDb {
            job_q: db.prepare("SELECT owner, runtime_ms FROM jobs WHERE job_id = ?").unwrap(),
            run_q: db.prepare("SELECT machine_id FROM runs WHERE job_id = ?").unwrap(),
            joined: db
                .prepare(
                    "SELECT jobs.owner, jobs.runtime_ms, runs.machine_id \
                     FROM jobs JOIN runs ON jobs.job_id = runs.job_id WHERE jobs.job_id = ?",
                )
                .unwrap(),
            run_delete: db.prepare("DELETE FROM runs WHERE job_id = ?").unwrap(),
            run_insert: db.prepare("INSERT INTO runs VALUES (?, ?, ?)").unwrap(),
            db,
        }
    }

    /// Two round trips into the engine per job, results glued in app code.
    fn app_side(&self, k: i64) -> (QueryResult, QueryResult) {
        let job = self.db.session().query(&self.job_q, (k,)).unwrap();
        let run = self.db.session().query(&self.run_q, (k,)).unwrap();
        assert_eq!(job.len() + run.len(), 2);
        (job, run)
    }

    /// The rewrite: one statement, one pass through the engine.
    fn sql_join(&self, k: i64) -> QueryResult {
        let r = self.db.session().query(black_box(&self.joined), (k,)).unwrap();
        assert_eq!(r.len(), 1);
        r
    }

    /// Deletes and re-inserts the run tuple of job `k`'s neighbour, as an
    /// accept or a completion elsewhere in the pool would.
    fn churn(&self, k: i64) {
        let victim = (k + 1) % JOBS;
        self.db.session().execute(&self.run_delete, (victim,)).unwrap();
        self.db
            .session()
            .execute(&self.run_insert, (victim, victim, victim % 32))
            .unwrap();
    }
}

/// The CAS shape PR 10 rewrote: fetching a job and its run used to be two
/// point queries glued together in application code; now it is one JOIN.
fn bench_app_side_vs_join(c: &mut Criterion) {
    let frozen = LookupDb::new();

    c.bench_function("app_side_join_lookup", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 37) % JOBS;
            black_box(frozen.app_side(k))
        })
    });

    c.bench_function("sql_join_lookup", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 37) % JOBS;
            black_box(frozen.sql_join(k))
        })
    });

    // The same pair with the `runs` table moving under it: one run tuple
    // is deleted and re-inserted before every lookup (both variants pay
    // the same two writes), so the table's version never stands still.
    // Each variant churns a database of its own, so neither inherits the
    // other's write history.
    let churned = LookupDb::new();
    c.bench_function("app_side_join_lookup_churned", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 37) % JOBS;
            churned.churn(k);
            black_box(churned.app_side(k))
        })
    });

    let churned = LookupDb::new();
    c.bench_function("sql_join_lookup_churned", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 37) % JOBS;
            churned.churn(k);
            black_box(churned.sql_join(k))
        })
    });
}

/// The usage report, the other CAS rewrite: one aggregate query per owner
/// glued in app code vs a single JOIN + GROUP BY.
fn bench_usage_report(c: &mut Criterion) {
    let db = Database::new();
    const OWNERS: i64 = 16;
    const HISTORY: i64 = 512;
    db.execute("CREATE TABLE users (name TEXT PRIMARY KEY, priority DOUBLE)").unwrap();
    let ins = db.prepare("INSERT INTO users VALUES (?, 0.5)").unwrap();
    db.session()
        .execute_batch(&ins, (0..OWNERS).map(|i| (format!("user{i}"),)))
        .unwrap();
    db.execute("CREATE TABLE job_history (job_id INT PRIMARY KEY, owner TEXT, runtime_ms INT)")
        .unwrap();
    db.execute("CREATE INDEX ON job_history (owner)").unwrap();
    let ins = db.prepare("INSERT INTO job_history VALUES (?, ?, 60000)").unwrap();
    db.session()
        .execute_batch(&ins, (0..HISTORY).map(|i| (i, format!("user{}", i % OWNERS))))
        .unwrap();
    db.execute("ANALYZE").unwrap();

    let owners_q = db.prepare("SELECT name, priority FROM users ORDER BY name").unwrap();
    let per_owner = db
        .prepare("SELECT COUNT(*), SUM(runtime_ms) FROM job_history WHERE owner = ?")
        .unwrap();
    let report = db
        .prepare(
            "SELECT users.name, users.priority, COUNT(*), SUM(job_history.runtime_ms) \
             FROM job_history JOIN users ON job_history.owner = users.name \
             GROUP BY users.name, users.priority ORDER BY users.name",
        )
        .unwrap();

    c.bench_function("app_side_usage_report", |b| {
        b.iter(|| {
            let owners = db.session().query(&owners_q, ()).unwrap();
            assert_eq!(owners.len(), OWNERS as usize);
            let mut total = 0i64;
            for row in &owners.rows {
                let r = db
                    .session()
                    .query(&per_owner, std::slice::from_ref(row.get(0)))
                    .unwrap();
                match r.rows[0].get(0) {
                    Value::Int(n) => total += n,
                    other => panic!("COUNT(*) must be an int, got {other:?}"),
                }
            }
            assert_eq!(total, HISTORY);
            black_box(total)
        })
    });

    c.bench_function("sql_usage_report", |b| {
        b.iter(|| {
            let r = db.session().query(black_box(&report), ()).unwrap();
            assert_eq!(r.len(), OWNERS as usize);
            black_box(r)
        })
    });
}

/// The same report at the end-to-end benchmark's shape (`operator_queries`
/// preloads 100 k `job_history` rows for 50 users): the CAS's
/// `usage_by_owner` text over the CAS's `job_history` columns, so the
/// per-row cost of the join + GROUP BY executor shows where the small
/// case above shows only its per-execution overhead.
fn bench_usage_report_100k(c: &mut Criterion) {
    let db = Database::new();
    const OWNERS: i64 = 50;
    const HISTORY: i64 = 100_000;
    db.execute("CREATE TABLE users (name TEXT PRIMARY KEY, priority DOUBLE, created TIMESTAMP)")
        .unwrap();
    let ins = db.prepare("INSERT INTO users VALUES (?, 0.5, 0)").unwrap();
    db.session()
        .execute_batch(&ins, (0..OWNERS).map(|i| (format!("user{i:02}"),)))
        .unwrap();
    db.execute(
        "CREATE TABLE job_history (history_id INT PRIMARY KEY, job_id INT NOT NULL, owner TEXT, \
         runtime_ms INT, submitted TIMESTAMP, completed TIMESTAMP, machine_id INT, requeues INT)",
    )
    .unwrap();
    db.execute("CREATE INDEX ON job_history (owner)").unwrap();
    let ins = db
        .prepare("INSERT INTO job_history VALUES (?, ?, ?, ?, ?, ?, ?, 0)")
        .unwrap();
    for chunk in 0..HISTORY / 5_000 {
        let ids = chunk * 5_000..(chunk + 1) * 5_000;
        db.session()
            .execute_batch(
                &ins,
                ids.map(|i| (i, 1_000_000 + i, format!("user{:02}", i % OWNERS), 1_000 + i % 600_000, i, i + 1, i % 1_000)),
            )
            .unwrap();
    }
    let report = db
        .prepare(
            "SELECT users.name AS owner, users.priority AS priority, \
                    COUNT(*) AS jobs, SUM(job_history.runtime_ms) AS total_ms \
             FROM job_history JOIN users ON job_history.owner = users.name \
             GROUP BY users.name, users.priority ORDER BY owner",
        )
        .unwrap();

    c.bench_function("sql_usage_report_100k", |b| {
        b.iter(|| {
            let r = db.session().query(black_box(&report), ()).unwrap();
            assert_eq!(r.len(), OWNERS as usize);
            black_box(r)
        })
    });
}

criterion_group!(
    benches,
    bench_join_order,
    bench_build_reuse,
    bench_access_path,
    bench_app_side_vs_join,
    bench_usage_report,
    bench_usage_report_100k
);
criterion_main!(benches);
