//! Microbenchmarks of the storage/query engine operations on the critical
//! path of every CAS service call (the "HTTP-to-SQL transformation" cost).

use criterion::{criterion_group, criterion_main, Criterion};
use relstore::Database;
use std::hint::black_box;

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

fn bench_relstore(c: &mut Criterion) {
    let db = setup_db(5_000);
    // Parse-per-call baseline: the statement cache is disabled, so every call
    // pays the full lex + parse cost (the pre-optimisation behaviour).
    let uncached = setup_db(5_000);
    uncached.set_statement_cache_capacity(0);
    c.bench_function("pk_point_select_uncached", |b| {
        b.iter(|| {
            uncached
                .query(black_box("SELECT * FROM jobs WHERE job_id = 2500"))
                .unwrap()
        })
    });
    // Same SQL text through the (warm) statement cache.
    c.bench_function("pk_point_select", |b| {
        b.iter(|| db.query(black_box("SELECT * FROM jobs WHERE job_id = 2500")).unwrap())
    });
    // Prepared once, parameters bound per call — no parsing at all.
    c.bench_function("prepared_point_select", |b| {
        let q = db.prepare("SELECT * FROM jobs WHERE job_id = ?").unwrap();
        let session = db.session();
        b.iter(|| session.query(black_box(&q), black_box((2500i64,))).unwrap())
    });
    // An operator's ad-hoc point select: the text with a fresh literal each
    // call, over 20 k ids, through a statement cache kept full by 256 other
    // statements — `operator_queries`' `point` kind at the engine level.
    // Keyed by its text, every call parses and evicts; keyed by its shape,
    // every call after the first is a cache hit.
    {
        let adhoc = setup_db(20_000);
        for i in 0..256 {
            adhoc.query(&format!("SELECT job_id AS c{i} FROM jobs WHERE job_id = 1")).unwrap();
        }
        let texts: Vec<String> = (0..20_000)
            .map(|id| format!("SELECT owner, runtime_ms FROM jobs WHERE job_id = {id}"))
            .collect();
        let mut next = 0;
        c.bench_function("adhoc_point_select", |b| {
            b.iter(|| {
                next = (next + 7_919) % texts.len();
                let r = adhoc.query(black_box(&texts[next])).unwrap();
                assert_eq!(r.len(), 1);
                r
            })
        });
    }
    // Bounded range over the primary-key index (50 of 5000 rows touched).
    c.bench_function("range_index_select", |b| {
        b.iter(|| {
            db.query(black_box(
                "SELECT job_id FROM jobs WHERE job_id >= 2400 AND job_id < 2450",
            ))
            .unwrap()
        })
    });
    // The same shape on an unindexed column still needs the full scan;
    // the gap against range_index_select is the access-path win.
    c.bench_function("range_scan_select", |b| {
        b.iter(|| {
            db.query(black_box(
                "SELECT job_id FROM jobs WHERE runtime_ms >= 2400 AND runtime_ms < 2450",
            ))
            .unwrap()
        })
    });
    c.bench_function("indexed_select_with_filter", |b| {
        b.iter(|| {
            db.query(black_box(
                "SELECT job_id FROM jobs WHERE state = 'idle' AND runtime_ms > 1000 ORDER BY job_id LIMIT 10",
            ))
            .unwrap()
        })
    });
    // The matchmaker's read at the paper's deepest queue: the 180 oldest of
    // 36k idle jobs. `ordered` walks the primary-key index and stops after
    // 180 survivors; `forced_scan` is the same statement with the walk (and
    // every index) switched off — scan, filter, sort 36k rows, keep 180.
    {
        let queue = setup_db(36_000);
        let head = queue
            .prepare("SELECT job_id FROM jobs WHERE state = 'idle' ORDER BY job_id LIMIT ?")
            .unwrap();
        let session = queue.session();
        c.bench_function("order_by_pk_limit_ordered", |b| {
            b.iter(|| session.query(black_box(&head), black_box((180i64,))).unwrap())
        });
        queue.set_force_scan(true);
        c.bench_function("order_by_pk_limit_forced_scan", |b| {
            b.iter(|| session.query(black_box(&head), black_box((180i64,))).unwrap())
        });
    }
    c.bench_function("aggregate_group_by", |b| {
        b.iter(|| {
            db.query(black_box(
                "SELECT owner, COUNT(*), AVG(runtime_ms) FROM jobs GROUP BY owner",
            ))
            .unwrap()
        })
    });
    // `operator_queries`' range count at its shape: a prepared `COUNT(*)`
    // over an unindexed TIMESTAMP range of 10 k `provenance`-like rows —
    // scan, filter and fold, nothing returned but the count. Per row it is
    // the cost of one bound two-comparison predicate.
    {
        let prov = Database::new();
        prov.execute(
            "CREATE TABLE provenance (record_id INT PRIMARY KEY, job_id INT NOT NULL, executable TEXT, \
             input_dataset TEXT, output_dataset TEXT, recorded TIMESTAMP)",
        )
        .unwrap();
        let ins = prov.prepare("INSERT INTO provenance VALUES (?, ?, ?, ?, ?, ?)").unwrap();
        prov.session()
            .execute_batch(
                &ins,
                (1..=10_000i64).map(|i| (i, 1_000_000 + i, format!("exe{}", i % 20), format!("in{i}"), format!("out{}", i % 500), i)),
            )
            .unwrap();
        let count = prov
            .prepare("SELECT COUNT(*) FROM provenance WHERE recorded >= ? AND recorded < ?")
            .unwrap();
        c.bench_function("filtered_range_count", |b| {
            let session = prov.session();
            b.iter(|| {
                let r = session.query(black_box(&count), black_box((4_000i64, 5_000i64))).unwrap();
                assert_eq!(r.scalar_int(), Some(1_000));
                r
            })
        });
    }
    // `operator_queries`' `agg` at its shape: a prepared `COUNT/SUM` behind
    // an equality on an indexed column, 100 k rows / 50 owners — a 2 k-id
    // posting list whose ids lie 50 apart, so nearly every row is reached in
    // a different part of the heap and evaluates nothing once there. Per row
    // it is the cost of getting from a row id to its visible version.
    {
        let history = Database::new();
        history
            .execute("CREATE TABLE job_history (job_id INT PRIMARY KEY, owner TEXT NOT NULL, runtime_ms INT)")
            .unwrap();
        history.execute("CREATE INDEX ON job_history (owner)").unwrap();
        let ins = history.prepare("INSERT INTO job_history VALUES (?, ?, ?)").unwrap();
        history
            .session()
            .execute_batch(&ins, (0..100_000i64).map(|i| (i, format!("user{}", i % 50), 60_000i64)))
            .unwrap();
        let agg = history
            .prepare("SELECT COUNT(*), SUM(runtime_ms) FROM job_history WHERE owner = ?")
            .unwrap();
        c.bench_function("indexed_agg_strided_100k", |b| {
            let session = history.session();
            b.iter(|| {
                let r = session.query(black_box(&agg), black_box(("user7",))).unwrap();
                assert_eq!(r.rows[0].get(0), &relstore::Value::Int(2_000));
                r
            })
        });
    }
    // `pool_status`' idle count at its shape: `COUNT(*)` under an index
    // equality, 10 k postings of 20 k rows, counted off the posting list.
    // `_churned` re-keys every row once while a transaction pins the old
    // versions: 20 k postings, every chain two versions long, so each entry
    // takes the fallback that resolves the visible version and re-checks
    // its key. Both assert the count equals the forced scan's.
    {
        let queue = Database::new();
        queue.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT NOT NULL)").unwrap();
        queue.execute("CREATE INDEX ON jobs (state)").unwrap();
        let ins = queue.prepare("INSERT INTO jobs VALUES (?, ?)").unwrap();
        queue
            .session()
            .execute_batch(&ins, (0..20_000i64).map(|i| (i, if i % 2 == 0 { "idle" } else { "held" })))
            .unwrap();
        let count = queue.prepare("SELECT COUNT(*) FROM jobs WHERE state = ?").unwrap();
        let scanned = || {
            queue.set_force_scan(true);
            let n = queue.session().query(&count, ("idle",)).unwrap().scalar_int();
            queue.set_force_scan(false);
            n
        };
        let mut bench_count = |name: &str| {
            let expected = scanned();
            assert_eq!(expected, Some(10_000));
            c.bench_function(name, |b| {
                let session = queue.session();
                b.iter(|| {
                    let r = session.query(black_box(&count), black_box(("idle",))).unwrap();
                    assert_eq!(r.scalar_int(), expected, "index-only count disagrees with the scan");
                    r
                })
            });
        };
        bench_count("indexed_count_10k");
        let pin = queue.transaction();
        assert_eq!(pin.query(&count, ("idle",)).unwrap().scalar_int(), Some(10_000));
        let rekey = queue.prepare("UPDATE jobs SET state = ? WHERE job_id = ?").unwrap();
        queue
            .session()
            .execute_batch(&rekey, (0..20_000i64).map(|i| (if i % 2 == 0 { "held" } else { "idle" }, i)))
            .unwrap();
        bench_count("indexed_count_10k_churned");
        pin.commit().unwrap();
    }
    // A queue that churns forever: one row in, the oldest out, the engine's
    // threshold vacuum behind them — a steady window of 10 k live rows, with
    // a million ids issued before the clock starts. One iteration is one
    // insert + one delete; the heap must hold memory for the window, not for
    // every id it ever issued.
    {
        const WINDOW: i64 = 10_000;
        let queue = Database::new();
        queue.execute("CREATE TABLE queue (job_id INT PRIMARY KEY, state TEXT)").unwrap();
        let push = queue.prepare("INSERT INTO queue VALUES (?, 'idle')").unwrap();
        let pop = queue.prepare("DELETE FROM queue WHERE job_id = ?").unwrap();
        let session = queue.session();
        let mut next = 0i64;
        let mut churn = move || {
            session.execute(&push, (next,)).unwrap();
            if next >= WINDOW {
                session.execute(&pop, (next - WINDOW,)).unwrap();
            }
            next += 1;
            next
        };
        while churn() < WINDOW {}
        let window_bytes = queue.approx_size();
        while churn() < 1_000_000 {}
        let bounded = |when: &str| {
            assert_eq!(queue.table_len("queue").unwrap(), WINDOW as usize);
            assert!(
                queue.approx_size() <= 2 * window_bytes,
                "{when}: {} bytes for a window that took {window_bytes}",
                queue.approx_size()
            );
        };
        bounded("after 1 M ids");
        c.bench_function("heap_churn_reclaim", |b| b.iter(&mut churn));
        bounded("after the timed churn");
    }
    // The write-side price of storing each indexed TEXT key once: one
    // `job_history`-shaped insert whose owner arrives as a fresh string, as
    // a service call's parameter does, into a table indexed on that owner.
    // The index already holds the key, so the row keeps the index's string
    // and drops its own. The row `WINDOW` ids behind is deleted in the same
    // iteration, so the table holds a steady 10 k live rows over 50 owners
    // however long the bench runs.
    {
        const WINDOW: i64 = 10_000;
        let history = Database::new();
        history
            .execute("CREATE TABLE job_history (history_id INT PRIMARY KEY, owner TEXT NOT NULL, runtime_ms INT)")
            .unwrap();
        history.execute("CREATE INDEX ON job_history (owner)").unwrap();
        let insert = history.prepare("INSERT INTO job_history VALUES (?, ?, 60000)").unwrap();
        let delete = history.prepare("DELETE FROM job_history WHERE history_id = ?").unwrap();
        let owners: Vec<String> = (0..50).map(|i| format!("user{i:02}")).collect();
        let session = history.session();
        let mut next = 0i64;
        let mut insert_one = move || {
            session.execute(&insert, (next, owners[(next % 50) as usize].as_str())).unwrap();
            if next >= WINDOW {
                session.execute(&delete, (next - WINDOW,)).unwrap();
            }
            next += 1;
            next
        };
        while insert_one() < WINDOW {}
        c.bench_function("indexed_text_insert", |b| b.iter(&mut insert_one));
        assert_eq!(history.table_len("job_history").unwrap(), WINDOW as usize);
    }
    c.bench_function("single_row_update", |b| {
        b.iter(|| {
            db.execute(black_box("UPDATE jobs SET state = 'running' WHERE job_id = 123")).unwrap()
        })
    });
    c.bench_function("insert_delete_round_trip", |b| {
        b.iter(|| {
            db.execute(black_box(
                "INSERT INTO jobs VALUES (9999999, 'bench', 'idle', 1000)",
            ))
            .unwrap();
            db.execute(black_box("DELETE FROM jobs WHERE job_id = 9999999")).unwrap();
        })
    });
    c.bench_function("sql_parse_only", |b| {
        b.iter(|| {
            relstore::sql::parse(black_box(
                "SELECT jobs.job_id, machines.name FROM jobs JOIN matches ON jobs.job_id = matches.job_id \
                 JOIN machines ON matches.machine_id = machines.machine_id WHERE jobs.state = 'idle' LIMIT 5",
            ))
            .unwrap()
        })
    });
}

criterion_group!(benches, bench_relstore);
criterion_main!(benches);
