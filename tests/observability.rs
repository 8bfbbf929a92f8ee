//! Integration tests of the observability subsystem: virtual system tables
//! served through the ordinary SELECT path, the slow-query ring, the
//! statement/histogram accounting invariant, and transport-equivalence —
//! a wire client must see the same system-table data the embedded API does.

use relstore::{Database, DurabilityPolicy, MemDevice, Value};
use std::sync::Arc;
use std::time::Duration;
use wire::{serve_with, Client, ServerConfig};

fn first_int(db: &Database, sql: &str, column: &str) -> i64 {
    match db.query(sql).unwrap().first_value(column).unwrap() {
        Value::Int(n) => *n,
        other => panic!("{column} was {other:?}, not an Int"),
    }
}

fn text(v: &Value) -> String {
    match v {
        Value::Text(s) => s.to_string(),
        other => panic!("{other:?} is not Text"),
    }
}

/// Every observability surface answers plain SQL on a live database, and
/// every statement the engine counted has exactly one histogram sample.
#[test]
fn system_tables_return_live_data() {
    let db = Database::new();
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT)").unwrap();
    let ins = db.prepare("INSERT INTO jobs VALUES (?, 'idle')").unwrap();
    for i in 0..20i64 {
        db.session().execute(&ins, (i,)).unwrap();
    }
    for _ in 0..5 {
        db.query("SELECT COUNT(*) AS n FROM jobs").unwrap();
    }

    // rel_stats mirrors OpStats one row per counter.
    let commits = first_int(&db, "SELECT value FROM rel_stats WHERE name = 'commits'", "value");
    assert_eq!(commits, 21, "20 inserts + 1 DDL");

    // rel_histograms has the per-kind statement histograms.
    let inserts =
        first_int(&db, "SELECT count FROM rel_histograms WHERE name = 'stmt.insert'", "count");
    assert_eq!(inserts, 20);

    // rel_statements profiles the prepared insert across all 20 calls.
    let profiles = db.query("SELECT sql, calls, total_rows FROM rel_statements").unwrap();
    let idx = profiles.column_index("sql").unwrap();
    let row = profiles
        .rows
        .iter()
        .find(|r| *r.get(idx) == Value::Text("INSERT INTO jobs VALUES (?, 'idle')".into()))
        .expect("prepared insert must be profiled");
    assert_eq!(*row.get(profiles.column_index("calls").unwrap()), Value::Int(20));
    assert_eq!(*row.get(profiles.column_index("total_rows").unwrap()), Value::Int(20));

    // A checkpoint leaves a coarse span in rel_events.
    db.checkpoint().unwrap();
    let events = first_int(
        &db,
        "SELECT COUNT(*) AS n FROM rel_events WHERE kind = 'checkpoint'",
        "n",
    );
    assert_eq!(events, 1);

    // The accounting invariant: one histogram sample per counted statement.
    // (The SELECTs over system tables above were themselves counted.)
    let executed = db.stats().statements_executed;
    assert_eq!(db.obs().histograms.statement_total(), executed);
}

/// System tables compose with the full SELECT surface: aggregates, ORDER
/// BY, LIMIT, and joins *between* system tables — while a join that mixes a
/// system table with a real table is rejected, not silently wrong.
#[test]
fn system_tables_support_full_select_and_join_each_other() {
    let db = Database::new();
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY)").unwrap();
    db.execute("INSERT INTO jobs VALUES (1)").unwrap();

    let n = first_int(&db, "SELECT COUNT(*) AS n FROM rel_stats", "n");
    assert!(n > 20, "rel_stats has one row per OpStats field, got {n}");

    db.query("SELECT name, value FROM rel_stats ORDER BY value DESC LIMIT 3").unwrap();

    // System tables join with each other through the ordinary executor.
    let joined = db
        .query(
            "SELECT rel_stats.name, rel_histograms.count FROM rel_stats \
             JOIN rel_histograms ON rel_stats.name = rel_histograms.name",
        )
        .unwrap();
    // Nothing shares names across the two tables today; the join must still
    // plan and execute (zero rows is the correct answer).
    assert_eq!(joined.rows.len(), 0);

    // Mixing a system table with a real table is a type error.
    let err = db
        .query(
            "SELECT rel_histograms.name FROM rel_histograms \
             JOIN jobs ON rel_histograms.count = jobs.job_id",
        )
        .unwrap_err();
    assert!(err.to_string().contains("system tables"), "got: {err}");
}

/// The names monitors and the benchmark read by SQL are a compatibility
/// surface: every `rel_stats` row's name and kind, in order, and every
/// `rel_histograms` row name, in order.
#[test]
fn system_table_names_and_kinds_are_pinned() {
    let db = Database::new();
    let stats = db.query("SELECT name, kind FROM rel_stats").unwrap();
    let listed: Vec<(String, String)> = stats
        .rows
        .iter()
        .map(|r| (text(r.get(0)), text(r.get(1))))
        .collect();
    let gauges = ["max_version_chain", "active_connections", "horizon_lag"];
    let expected: Vec<(String, String)> = [
        "rows_inserted",
        "rows_deleted",
        "rows_updated",
        "rows_read",
        "rows_scanned",
        "index_lookups",
        "index_maintenance",
        "statements_parsed",
        "cache_hits",
        "cache_misses",
        "statements_executed",
        "commits",
        "aborts",
        "wal_records",
        "wal_bytes",
        "checkpoints",
        "versions_created",
        "versions_vacuumed",
        "snapshots_taken",
        "max_version_chain",
        "net_bytes_in",
        "net_bytes_out",
        "frames_decoded",
        "active_connections",
        "wal_fsyncs",
        "wal_fsync_nanos",
        "wal_segments_rotated",
        "recovery_truncated_bytes",
        "corruption_detected",
        "failpoints_hit",
        "statements_timed_out",
        "statements_over_budget",
        "lock_waits",
        "lock_wait_nanos",
        "lock_wait_timeouts",
        "txns_reaped",
        "horizon_lag",
        "slow_queries",
        "tables_analyzed",
        "plans_built",
        "plan_cache_hits",
        "build_reuse_hits",
        "subqueries_executed",
        "rows_materialized",
    ]
    .iter()
    .map(|name| {
        let kind = if gauges.contains(name) { "gauge" } else { "counter" };
        (name.to_string(), kind.to_string())
    })
    .collect();
    assert_eq!(listed, expected);

    let histograms = db.query("SELECT name FROM rel_histograms").unwrap();
    let names: Vec<String> = histograms.rows.iter().map(|r| text(r.get(0))).collect();
    let expected = [
        "stmt.select",
        "stmt.insert",
        "stmt.update",
        "stmt.delete",
        "stmt.ddl",
        "wal.fsync",
        "lock.wait",
        "txn.commit",
        "checkpoint",
        "vacuum",
    ];
    assert_eq!(names, expected);
}

/// `rel_histograms.mean_us` is the samples' own mean, sum / count, and a
/// timed event is counted once: the `lock_wait_nanos` counter is the
/// `lock.wait` histogram's sum.
#[test]
fn histogram_means_and_timed_counters_are_exact() {
    let db = Database::new();
    let lock_wait = &db.obs().histograms.lock_wait;
    for nanos in [3, 1_000, 1_000_000] {
        lock_wait.record(nanos);
    }
    let r = db
        .query("SELECT count, mean_us FROM rel_histograms WHERE name = 'lock.wait'")
        .unwrap();
    assert_eq!(r.first_value("count"), Some(&Value::Int(3)));
    let mean = (3.0 + 1_000.0 + 1_000_000.0) / 3.0 / 1_000.0;
    match r.first_value("mean_us") {
        Some(Value::Double(got)) => assert!((got - mean).abs() < 1e-9, "mean_us {got}, want {mean}"),
        other => panic!("mean_us was {other:?}"),
    }
    let summed = "SELECT value FROM rel_stats WHERE name = 'lock_wait_nanos'";
    assert_eq!(first_int(&db, summed, "value"), 1_001_003);
}

/// On a durable log, `wal_fsyncs` and `wal_fsync_nanos` are the `wal.fsync`
/// histogram's count and sum, and `checkpoints` the `checkpoint` count.
#[test]
fn fsync_and_checkpoint_counters_are_their_histograms() {
    let db = Database::open_with_device(Box::new(MemDevice::new()), DurabilityPolicy::Always)
        .unwrap();
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY)").unwrap();
    for i in 0..5 {
        db.execute(&format!("INSERT INTO jobs VALUES ({i})")).unwrap();
    }
    db.flush_log().unwrap();
    db.checkpoint().unwrap();

    let stat = |name: &str| {
        let sql = format!("SELECT value FROM rel_stats WHERE name = '{name}'");
        first_int(&db, &sql, "value") as u64
    };
    let histograms = &db.obs().histograms;
    // Six commits, the flush and the checkpoint's segment rotation.
    assert_eq!(histograms.wal_fsync.count(), 8);
    assert_eq!(stat("wal_fsyncs"), histograms.wal_fsync.count());
    assert_eq!(stat("wal_fsync_nanos"), histograms.wal_fsync.sum_nanos());
    assert_eq!(stat("checkpoints"), 1);
    assert_eq!(histograms.checkpoint.count(), 1);
}

/// A real table with a system table's name shadows it: user data wins, and
/// dropping the table restores the virtual view.
#[test]
fn real_tables_shadow_system_tables() {
    let db = Database::new();
    db.execute("CREATE TABLE rel_stats (name TEXT PRIMARY KEY, value INT)").unwrap();
    db.execute("INSERT INTO rel_stats VALUES ('mine', 7)").unwrap();
    let r = db.query("SELECT name, value FROM rel_stats").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.first_value("name"), Some(&Value::Text("mine".into())));

    db.execute("DROP TABLE rel_stats").unwrap();
    let r = db.query("SELECT name FROM rel_stats WHERE name = 'commits'").unwrap();
    assert_eq!(r.rows.len(), 1, "virtual table visible again after DROP");
}

/// The slow-query ring: disarmed by default, captures everything at a zero
/// threshold with a wait breakdown, keeps a monotonic sequence across
/// clear(), and disarms again on None.
#[test]
fn slow_query_log_arms_captures_and_disarms() {
    let db = Database::new();
    assert_eq!(db.slow_query_threshold(), None);
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY)").unwrap();
    assert!(db.obs().slow_log.entries().is_empty(), "disarmed log captures nothing");

    db.set_slow_query_threshold(Some(Duration::ZERO));
    db.execute("INSERT INTO jobs VALUES (1)").unwrap();
    db.query("SELECT * FROM jobs").unwrap();
    let entries = db.obs().slow_log.entries();
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].sql.as_deref(), Some("INSERT INTO jobs VALUES (1)"));
    assert_eq!(entries[1].rows, 1);
    assert!(entries[0].seq < entries[1].seq);
    assert_eq!(db.stats().slow_queries, 2);

    // The ring is queryable as SQL too, including the wait-breakdown columns.
    let r = db
        .query("SELECT seq, sql, duration_us, lock_wait_us, fsync_us FROM rel_slow_queries")
        .unwrap();
    // The SELECT over rel_slow_queries itself gets captured only *after* it
    // snapshots the ring, so it sees the two prior entries.
    assert_eq!(r.rows.len(), 2);

    // seq survives clear(): later entries never reuse earlier numbers.
    let last_seq = db.obs().slow_log.entries().last().unwrap().seq;
    db.obs().slow_log.clear();
    db.execute("INSERT INTO jobs VALUES (2)").unwrap();
    let after = db.obs().slow_log.entries();
    assert_eq!(after.len(), 1);
    assert!(after[0].seq > last_seq);

    db.set_slow_query_threshold(None);
    db.obs().slow_log.clear();
    db.execute("INSERT INTO jobs VALUES (3)").unwrap();
    assert!(db.obs().slow_log.entries().is_empty(), "None disarms the log");
}

/// Failed statements are first-class: they are counted, histogrammed, and
/// the invariant holds — with the one documented exception (a SELECT inside
/// an already-dead transaction fails before anything is counted).
#[test]
fn failed_statements_keep_the_accounting_invariant() {
    let db = Database::new();
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY)").unwrap();
    db.execute("INSERT INTO jobs VALUES (1)").unwrap();
    db.execute("INSERT INTO jobs VALUES (1)").unwrap_err(); // duplicate key
    db.query("SELECT * FROM missing").unwrap_err(); // no such table
    db.execute("UPDATE jobs SET job_id = NULL WHERE job_id = 1").unwrap_err();
    assert_eq!(db.obs().histograms.statement_total(), db.stats().statements_executed);
}

/// `ServerConfig::slow_query_threshold` arms the engine's ring at serve
/// time, and a wire client reads identical system-table data to the
/// embedded API — same SELECT path, no special protocol.
#[test]
fn wire_clients_see_the_same_system_tables() {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT)").unwrap();
    let ins = db.prepare("INSERT INTO jobs VALUES (?, 'idle')").unwrap();
    for i in 0..10i64 {
        db.session().execute(&ins, (i,)).unwrap();
    }

    let config = ServerConfig {
        slow_query_threshold: Some(Duration::ZERO),
        ..ServerConfig::default()
    };
    let server = serve_with(Arc::clone(&db), "127.0.0.1:0", config).unwrap();
    assert_eq!(db.slow_query_threshold(), Some(Duration::ZERO));
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Stable system-table slices must agree embedded vs remote. (Volatile
    // counters like statements_executed move with every query, so compare
    // data that the monitoring queries themselves do not perturb.)
    let queries = [
        "SELECT count FROM rel_histograms WHERE name = 'stmt.insert'",
        "SELECT sql, kind, calls, total_rows FROM rel_statements \
         WHERE sql = 'INSERT INTO jobs VALUES (?, ''idle'')'",
        "SELECT name, kind FROM rel_stats ORDER BY name",
    ];
    for sql in queries {
        let local = db.query(sql).unwrap();
        let remote = client.query(sql, ()).unwrap();
        assert_eq!(remote, local, "remote diverged for: {sql}");
    }

    // The client's own statements landed in the slow ring (threshold zero),
    // and the ring is visible over the wire.
    let r = client
        .query("SELECT COUNT(*) AS n FROM rel_slow_queries", ())
        .unwrap();
    match r.first_value("n").unwrap() {
        Value::Int(n) => assert!(*n >= 3, "client statements captured, got {n}"),
        other => panic!("unexpected {other:?}"),
    }

    // The server counts its frames in the database's own counters, so a
    // client watching `rel_stats` sees its own requests arrive.
    let frames = "SELECT value FROM rel_stats WHERE name = 'frames_decoded'";
    let first: Vec<i64> = client.query_scalars(frames, ()).unwrap();
    let second: Vec<i64> = client.query_scalars(frames, ()).unwrap();
    assert!(second[0] > first[0], "frames_decoded {first:?} then {second:?}");

    // A batch of N bindings is N statements on either transport: N more
    // in `statements_executed`, N more `stmt.select` samples. Each reading
    // also counts the two reads of the reading before it.
    let executed = "SELECT value FROM rel_stats WHERE name = 'statements_executed'";
    let selects = "SELECT count FROM rel_histograms WHERE name = 'stmt.select'";
    let counts = || (first_int(&db, executed, "value"), first_int(&db, selects, "count"));
    let point = db.prepare("SELECT state FROM jobs WHERE job_id = ?").unwrap();
    let remote_point = client.prepare("SELECT state FROM jobs WHERE job_id = ?").unwrap();
    let before = counts();
    db.session().query_batch(&point, (0..5i64).map(|id| (id,))).unwrap();
    let embedded = counts();
    client.query_batch(remote_point, (0..5i64).map(|id| (id,))).unwrap();
    let remote = counts();
    assert_eq!((embedded.0 - before.0, embedded.1 - before.1), (5 + 2, 5 + 2));
    assert_eq!((remote.0 - embedded.0, remote.1 - embedded.1), (5 + 2, 5 + 2));

    server.shutdown();
}

/// Recovery leaves a span in rel_events describing what was replayed.
#[test]
fn recovery_records_an_event() {
    let db = Database::open_with_device(Box::new(MemDevice::new()), DurabilityPolicy::Always)
        .unwrap();
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY)").unwrap();
    db.execute("INSERT INTO jobs VALUES (1)").unwrap();
    db.flush_log().unwrap();
    let bytes = db.durable_log_bytes().unwrap();

    let reopened = Database::open_with_device(
        Box::new(MemDevice::with_contents(bytes)),
        DurabilityPolicy::Always,
    )
    .unwrap();
    let r = reopened
        .query("SELECT kind, detail FROM rel_events WHERE kind = 'recovery'")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    match r.first_value("detail").unwrap() {
        Value::Text(detail) => {
            assert!(detail.contains("WAL record"), "got: {detail}")
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// A prepared handle that outlives its statement-cache entry — every
/// long-held handle, once 256 ad-hoc texts have run — keeps its executions in
/// `rel_statements`: they land in the `'(evicted)'` row.
#[test]
fn a_handle_that_outlives_its_cache_entry_records_into_the_evicted_row() {
    let db = Database::new();
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT)").unwrap();
    db.execute("INSERT INTO jobs VALUES (1, 'idle')").unwrap();
    let held = db.prepare("UPDATE jobs SET state = ? WHERE job_id = ?").unwrap();
    db.session().execute(&held, ("busy", 1i64)).unwrap();
    for i in 0..256 {
        db.query(&format!("SELECT state FROM jobs WHERE job_id = {i}")).unwrap();
    }
    let listed = "SELECT COUNT(*) AS n FROM rel_statements WHERE sql = 'UPDATE jobs SET state = ? WHERE job_id = ?'";
    assert_eq!(first_int(&db, listed, "n"), 0, "the held statement's entry aged out");

    // Probed once up front so the probe's own text is cached: from here on
    // nothing is prepared, so nothing else is evicted.
    let evicted = "SELECT calls FROM rel_statements WHERE sql = '(evicted)'";
    first_int(&db, evicted, "calls");
    let before = first_int(&db, evicted, "calls");
    for _ in 0..10 {
        db.session().execute(&held, ("idle", 1i64)).unwrap();
    }
    assert_eq!(first_int(&db, evicted, "calls"), before + 10);
}
