//! Property-based tests of the storage engine invariants that the CondorJ2
//! architecture leans on: index/heap consistency under arbitrary operation
//! sequences, WAL recovery equivalence, and rollback isolation.

use proptest::prelude::*;
use relstore::{Database, DurabilityPolicy, MemDevice, OpStats, Row, Value};

#[derive(Debug, Clone)]
enum Op {
    Insert { id: i64, state: u8, runtime: i64 },
    UpdateState { id: i64, state: u8 },
    Delete { id: i64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..200i64, 0..4u8, 0..100_000i64)
            .prop_map(|(id, state, runtime)| Op::Insert { id, state, runtime }),
        (0..200i64, 0..4u8).prop_map(|(id, state)| Op::UpdateState { id, state }),
        (0..200i64).prop_map(|id| Op::Delete { id }),
    ]
}

fn state_name(state: u8) -> &'static str {
    match state {
        0 => "idle",
        1 => "matched",
        2 => "running",
        _ => "held",
    }
}

/// Renders a [`Value`] as a SQL literal, escaping embedded quotes in text:
/// the literal-SQL oracle that prepared execution is compared against.
fn sql_literal(value: &Value) -> String {
    match value {
        Value::Null => "NULL".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Double(d) => {
            if d.fract() == 0.0 && d.is_finite() {
                format!("{d:.1}")
            } else {
                format!("{d}")
            }
        }
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        Value::Timestamp(t) => t.to_string(),
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

#[test]
fn literals_round_trip_through_the_parser() {
    assert_eq!(sql_literal(&Value::Null), "NULL");
    assert_eq!(sql_literal(&Value::Int(-3)), "-3");
    assert_eq!(sql_literal(&Value::Bool(true)), "TRUE");
    assert_eq!(sql_literal(&Value::Double(2.5)), "2.5");
    assert_eq!(sql_literal(&Value::Double(4.0)), "4.0");
    assert_eq!(sql_literal(&Value::Timestamp(99)), "99");
    assert_eq!(sql_literal(&Value::Text("it's".into())), "'it''s'");
}

#[test]
fn escaped_text_survives_a_real_insert() {
    let db = Database::new();
    db.execute("CREATE TABLE t (a INT PRIMARY KEY, b TEXT)").unwrap();
    let tricky = Value::Text("O'Brien's job -- weird".into());
    db.execute(&format!("INSERT INTO t VALUES (1, {})", sql_literal(&tricky)))
        .unwrap();
    let r = db.query("SELECT b FROM t WHERE a = 1").unwrap();
    assert_eq!(r.first_value("b"), Some(&tricky));
}

/// Values storable in a TEXT column, biased toward SQL-hostile text.
fn body_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        "\\PC{0,20}".prop_map(|s| Value::Text(s.into())),
    ]
}

/// Values storable in an INT column.
fn score_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-50..50i64).prop_map(Value::Int),
    ]
}

/// A database over an in-memory log device holding `log`: empty for a new
/// database, another database's `durable_log_bytes()` to recover it.
fn on_mem_device(log: Vec<u8>) -> Database {
    Database::open_with_device(Box::new(MemDevice::with_contents(log)), DurabilityPolicy::Always)
        .unwrap()
}

fn notes_db() -> Database {
    let db = on_mem_device(Vec::new());
    db.execute("CREATE TABLE notes (id INT PRIMARY KEY, body TEXT, score INT)")
        .unwrap();
    db.execute("CREATE INDEX ON notes (score)").unwrap();
    db
}

fn fresh_db() -> Database {
    let db = on_mem_device(Vec::new());
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT NOT NULL, runtime_ms INT)")
        .unwrap();
    db.execute("CREATE INDEX ON jobs (state)").unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Applying an arbitrary operation sequence keeps every index consistent
    /// with the heap, and the row count matches a naive model.
    #[test]
    fn random_operations_preserve_index_consistency(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let db = fresh_db();
        let mut model: std::collections::BTreeMap<i64, u8> = std::collections::BTreeMap::new();
        for op in &ops {
            match op {
                Op::Insert { id, state, runtime } => {
                    let result = db.execute(&format!(
                        "INSERT INTO jobs VALUES ({id}, '{}', {runtime})", state_name(*state)
                    ));
                    if model.contains_key(id) {
                        prop_assert!(result.is_err(), "duplicate primary key must be rejected");
                    } else {
                        prop_assert!(result.is_ok());
                        model.insert(*id, *state);
                    }
                }
                Op::UpdateState { id, state } => {
                    let n = db.execute(&format!(
                        "UPDATE jobs SET state = '{}' WHERE job_id = {id}", state_name(*state)
                    )).unwrap().affected();
                    prop_assert_eq!(n, usize::from(model.contains_key(id)));
                    if model.contains_key(id) {
                        model.insert(*id, *state);
                    }
                }
                Op::Delete { id } => {
                    let n = db.execute(&format!("DELETE FROM jobs WHERE job_id = {id}")).unwrap().affected();
                    prop_assert_eq!(n, usize::from(model.remove(id).is_some()));
                }
            }
        }
        db.check_consistency().unwrap();
        prop_assert_eq!(db.table_len("jobs").unwrap(), model.len());
        // The secondary index answers state counts identically to the model.
        for state in 0..4u8 {
            let expected = model.values().filter(|s| **s == state).count() as i64;
            let got = db.query(&format!(
                "SELECT COUNT(*) FROM jobs WHERE state = '{}'", state_name(state)
            )).unwrap().scalar_int().unwrap();
            prop_assert_eq!(got, expected);
        }
    }

    /// Recovering from the write-ahead log reproduces exactly the committed
    /// contents, whatever the operation history was.
    #[test]
    fn wal_recovery_reproduces_committed_state(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let db = fresh_db();
        for op in &ops {
            match op {
                Op::Insert { id, state, runtime } => {
                    let _ = db.execute(&format!(
                        "INSERT INTO jobs VALUES ({id}, '{}', {runtime})", state_name(*state)
                    ));
                }
                Op::UpdateState { id, state } => {
                    let _ = db.execute(&format!(
                        "UPDATE jobs SET state = '{}' WHERE job_id = {id}", state_name(*state)
                    ));
                }
                Op::Delete { id } => {
                    let _ = db.execute(&format!("DELETE FROM jobs WHERE job_id = {id}"));
                }
            }
        }
        let recovered = on_mem_device(db.durable_log_bytes().unwrap());
        recovered.check_consistency().unwrap();
        let original = db.query("SELECT * FROM jobs ORDER BY job_id").unwrap();
        let replayed = recovered.query("SELECT * FROM jobs ORDER BY job_id").unwrap();
        prop_assert_eq!(original, replayed);
    }

    /// A rolled-back transaction leaves no trace, no matter what it did.
    #[test]
    fn rollback_is_invisible(ops in prop::collection::vec(op_strategy(), 1..40), seed_rows in 1..30i64) {
        let db = fresh_db();
        for id in 0..seed_rows {
            db.execute(&format!("INSERT INTO jobs VALUES ({id}, 'idle', 1000)")).unwrap();
        }
        let before = db.query("SELECT * FROM jobs ORDER BY job_id").unwrap();

        let txn = db.transaction();
        for op in &ops {
            let sql = match op {
                Op::Insert { id, state, runtime } => format!(
                    "INSERT INTO jobs VALUES ({}, '{}', {runtime})", id + 1000, state_name(*state)
                ),
                Op::UpdateState { id, state } => format!(
                    "UPDATE jobs SET state = '{}' WHERE job_id = {id}", state_name(*state)
                ),
                Op::Delete { id } => format!("DELETE FROM jobs WHERE job_id = {id}"),
            };
            let _ = txn.execute(sql, ());
        }
        txn.rollback().unwrap();

        let after = db.query("SELECT * FROM jobs ORDER BY job_id").unwrap();
        prop_assert_eq!(before, after);
        db.check_consistency().unwrap();
    }

    /// Prepared statements with bound parameters behave exactly like the
    /// equivalent literal SQL — across NULLs, negative numbers and
    /// injection-shaped text (quotes, comment dashes, backslashes) — for
    /// inserts, point predicates, index range predicates and DML.
    #[test]
    fn prepared_execution_matches_literal_sql(
        rows in prop::collection::vec((body_strategy(), score_strategy()), 1..25),
        probe_body in body_strategy(),
        probe_score in -50..50i64,
    ) {
        let lit_db = notes_db();
        let prep_db = notes_db();
        let ins = prep_db
            .prepare("INSERT INTO notes (id, body, score) VALUES (?, ?, ?)")
            .unwrap();
        for (i, (body, score)) in rows.iter().enumerate() {
            lit_db.execute(&format!(
                "INSERT INTO notes (id, body, score) VALUES ({i}, {}, {})",
                sql_literal(body),
                sql_literal(score),
            )).unwrap();
            prep_db
                .session()
                .execute(&ins, (i as i64, body.clone(), score.clone()))
                .unwrap();
        }
        let all_lit = lit_db.query("SELECT * FROM notes ORDER BY id").unwrap();
        let all_prep = prep_db.query("SELECT * FROM notes ORDER BY id").unwrap();
        prop_assert_eq!(&all_lit, &all_prep);

        // Equality over text, including quoted strings and NULL probes.
        let lit = lit_db.query(&format!(
            "SELECT id FROM notes WHERE body = {} ORDER BY id",
            sql_literal(&probe_body)
        )).unwrap();
        let q = prep_db.prepare("SELECT id FROM notes WHERE body = ? ORDER BY id").unwrap();
        let prep = prep_db.session().query(&q, (probe_body.clone(),)).unwrap();
        prop_assert_eq!(lit, prep);

        // Range over the indexed int column (exercises the range access path).
        let hi = probe_score + 20;
        let lit = lit_db.query(&format!(
            "SELECT id FROM notes WHERE score >= {probe_score} AND score < {hi} ORDER BY id"
        )).unwrap();
        let q = prep_db
            .prepare("SELECT id FROM notes WHERE score >= ? AND score < ? ORDER BY id")
            .unwrap();
        let prep = prep_db.session().query(&q, (probe_score, hi)).unwrap();
        prop_assert_eq!(lit, prep);

        // DML parity: deleting by bound text affects the same rows.
        let lit_n = lit_db.execute(&format!(
            "DELETE FROM notes WHERE body = {}",
            sql_literal(&probe_body)
        )).unwrap().affected();
        let del = prep_db.prepare("DELETE FROM notes WHERE body = ?").unwrap();
        let prep_n = prep_db
            .session()
            .execute(&del, (probe_body.clone(),))
            .unwrap()
            .affected();
        prop_assert_eq!(lit_n, prep_n);
        lit_db.check_consistency().unwrap();
        prep_db.check_consistency().unwrap();
    }

    /// An ad-hoc text answers exactly as its `?` twin bound to the same
    /// values, whether it parses (the first text of its shape) or hits the
    /// shape another literal cached — so a hit never returns the rows of
    /// the text that filled the entry. Every probe runs against the same
    /// warm cache; the literals range over negative numbers (which stay in
    /// the text), doubles and SQL-hostile strings.
    #[test]
    fn shaped_literal_texts_match_their_prepared_twins(
        rows in prop::collection::vec((body_strategy(), score_strategy()), 1..25),
        probes in prop::collection::vec(
            (0..4u8, body_strategy(), -50..50i64, 0..30i64, -5.0..5.0f64),
            1..12,
        ),
    ) {
        let db = notes_db();
        let twin = notes_db();
        for (i, (body, score)) in rows.iter().enumerate() {
            let text = format!(
                "INSERT INTO notes (id, body, score) VALUES ({i}, {}, {})",
                sql_literal(body),
                sql_literal(score),
            );
            db.execute(&text).unwrap();
            twin.session()
                .execute("INSERT INTO notes (id, body, score) VALUES (?, ?, ?)", (i as i64, body.clone(), score.clone()))
                .unwrap();
        }
        for (kind, body, score, k, x) in probes {
            let x = Value::Double((x * 4.0).round() / 4.0);
            let (text, sql, values) = match kind {
                0 => (
                    format!("SELECT id, body FROM notes WHERE score = {score} ORDER BY id"),
                    "SELECT id, body FROM notes WHERE score = ? ORDER BY id",
                    vec![Value::Int(score)],
                ),
                1 => (
                    format!(
                        "SELECT id FROM notes WHERE body = {} OR id > {k} ORDER BY id LIMIT {k}",
                        sql_literal(&body)
                    ),
                    "SELECT id FROM notes WHERE body = ? OR id > ? ORDER BY id LIMIT ?",
                    vec![body.clone(), Value::Int(k), Value::Int(k)],
                ),
                2 => (
                    format!(
                        "SELECT COUNT(*) AS n, SUM(score) AS total FROM notes WHERE score >= {score} AND score < {}",
                        score + k
                    ),
                    "SELECT COUNT(*) AS n, SUM(score) AS total FROM notes WHERE score >= ? AND score < ?",
                    vec![Value::Int(score), Value::Int(score + k)],
                ),
                _ => (
                    format!("SELECT id, score * {} AS scaled FROM notes WHERE id < {k} ORDER BY id", sql_literal(&x)),
                    "SELECT id, score * ? AS scaled FROM notes WHERE id < ? ORDER BY id",
                    vec![x.clone(), Value::Int(k)],
                ),
            };
            let lit = db.query(&text).unwrap();
            let prepared = twin.session().query(sql, values).unwrap();
            prop_assert_eq!(lit, prepared, "{}", text);
        }
        // Writes through literal texts land as the twin's bound writes do.
        let text = format!("UPDATE notes SET score = score + 1 WHERE id < {}", rows.len() / 2);
        let n = db.execute(&text).unwrap().affected();
        let m = twin.session()
            .execute("UPDATE notes SET score = score + ? WHERE id < ?", (1i64, (rows.len() / 2) as i64))
            .unwrap()
            .affected();
        prop_assert_eq!(n, m);
        let all = "SELECT * FROM notes ORDER BY id";
        prop_assert_eq!(db.query(all).unwrap(), twin.query(all).unwrap());
    }

    /// `execute_batch` is observationally equivalent to the loop of
    /// per-statement `execute` calls it replaces — same stored
    /// rows, same affected counts, same recovery result — across inserts
    /// (including NULL-bearing and SQL-hostile text bindings) and a
    /// follow-up update batch, even though the batch takes one catalog
    /// guard and appends one WAL record.
    #[test]
    fn execute_batch_matches_statement_loop(
        rows in prop::collection::vec((body_strategy(), score_strategy()), 1..30),
        bump in 1..20i64,
    ) {
        let batched = notes_db();
        let looped = notes_db();
        let ins_sql = "INSERT INTO notes (id, body, score) VALUES (?, ?, ?)";
        let upd_sql = "UPDATE notes SET score = ? WHERE id >= ?";

        let ins = batched.prepare(ins_sql).unwrap();
        let bindings: Vec<Vec<Value>> = rows
            .iter()
            .enumerate()
            .map(|(i, (body, score))| vec![Value::Int(i as i64), body.clone(), score.clone()])
            .collect();
        let n_batch = batched.session().execute_batch(&ins, bindings.clone()).unwrap();

        let ins = looped.prepare(ins_sql).unwrap();
        let mut n_loop = 0usize;
        for binding in &bindings {
            n_loop += looped
                .session()
                .execute(&ins, binding.as_slice())
                .unwrap()
                .affected();
        }
        prop_assert_eq!(n_batch, n_loop);

        // A second batch of updates over overlapping key ranges.
        let upd = batched.prepare(upd_sql).unwrap();
        let cutoffs: Vec<(i64, i64)> =
            (0..3).map(|k| (bump + k, k * (rows.len() as i64) / 3)).collect();
        let u_batch = batched
            .session()
            .execute_batch(&upd, cutoffs.clone())
            .unwrap();
        let upd = looped.prepare(upd_sql).unwrap();
        let mut u_loop = 0usize;
        for c in cutoffs {
            u_loop += looped.session().execute(&upd, c).unwrap().affected();
        }
        prop_assert_eq!(u_batch, u_loop);

        let q = "SELECT * FROM notes ORDER BY id";
        prop_assert_eq!(batched.query(q).unwrap(), looped.query(q).unwrap());
        batched.check_consistency().unwrap();

        // The single WAL batch record recovers to the same state the loop's
        // per-row records do.
        let from_batched = on_mem_device(batched.durable_log_bytes().unwrap());
        let from_looped = on_mem_device(looped.durable_log_bytes().unwrap());
        prop_assert_eq!(from_batched.query(q).unwrap(), from_looped.query(q).unwrap());
    }

    /// SQL-literal escaping survives arbitrary text round-trips through the
    /// parser and the storage engine (the literal oracle depends on this).
    #[test]
    fn text_values_round_trip_through_sql(text in "\\PC{0,40}") {
        let db = Database::new();
        db.execute("CREATE TABLE notes (id INT PRIMARY KEY, body TEXT)").unwrap();
        let literal = sql_literal(&Value::Text(text.clone().into()));
        db.execute(&format!("INSERT INTO notes VALUES (1, {literal})")).unwrap();
        let r = db.query("SELECT body FROM notes WHERE id = 1").unwrap();
        prop_assert_eq!(r.rows[0].clone(), Row::new(vec![Value::Text(text.into())]));
        let _ = OpStats::default();
    }
}

#[derive(Debug, Clone)]
enum HeapOp {
    /// Insert under the next id in sequence (how a table issues them).
    Push(u32),
    /// Insert under a given id (how recovery does): anywhere, in any order.
    InsertAt(u64, u32),
    Remove(u64),
    Get(u64),
    Bump(u64),
}

/// Ids that collide often enough to matter: a dense band spanning a few
/// segments, and a sparse set spread over the whole id space.
fn heap_id_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        0..3_000u64,
        0..3_000u64,
        (0..8u64, 0..4u64).prop_map(|(hi, lo)| (hi << 60) | (lo * 1_023)),
        Just(u64::MAX),
    ]
}

fn heap_op_strategy() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        (0..1_000u32).prop_map(HeapOp::Push),
        (0..1_000u32).prop_map(HeapOp::Push),
        (heap_id_strategy(), 0..1_000u32).prop_map(|(id, v)| HeapOp::InsertAt(id, v)),
        heap_id_strategy().prop_map(HeapOp::Remove),
        heap_id_strategy().prop_map(HeapOp::Remove),
        heap_id_strategy().prop_map(HeapOp::Get),
        heap_id_strategy().prop_map(HeapOp::Bump),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The slab heap is a map from row id to value: after every step of a
    /// random schedule it agrees with an ordered-map model on what each
    /// operation returned, on `len`, and on in-order iteration.
    #[test]
    fn heap_agrees_with_an_ordered_map_model(ops in prop::collection::vec(heap_op_strategy(), 1..250)) {
        use relstore::heap::Heap;
        use relstore::RowId;
        let mut heap: Heap<u32> = Heap::new();
        let mut model: std::collections::BTreeMap<RowId, u32> = std::collections::BTreeMap::new();
        let mut next = 0u64;
        for op in ops {
            match op {
                HeapOp::Push(v) => {
                    prop_assert_eq!(heap.insert(RowId(next), v), model.insert(RowId(next), v));
                    next += 1;
                }
                HeapOp::InsertAt(id, v) => {
                    prop_assert_eq!(heap.insert(RowId(id), v), model.insert(RowId(id), v));
                }
                HeapOp::Remove(id) => {
                    prop_assert_eq!(heap.remove(RowId(id)), model.remove(&RowId(id)));
                }
                HeapOp::Get(id) => {
                    prop_assert_eq!(heap.get(RowId(id)), model.get(&RowId(id)));
                    prop_assert_eq!(heap.contains(RowId(id)), model.contains_key(&RowId(id)));
                }
                HeapOp::Bump(id) => {
                    let (got, want) = (heap.get_mut(RowId(id)), model.get_mut(&RowId(id)));
                    prop_assert_eq!(got.is_some(), want.is_some());
                    if let (Some(got), Some(want)) = (got, want) {
                        *got += 1;
                        *want += 1;
                    }
                }
            }
            prop_assert_eq!(heap.len(), model.len());
            prop_assert_eq!(heap.is_empty(), model.is_empty());
            prop_assert!(heap.iter().eq(model.iter().map(|(id, v)| (*id, v))));
            prop_assert!(heap.values().eq(model.values()));
        }
        // Emptying it, in whatever order, gives every segment back.
        for id in model.keys() {
            prop_assert!(heap.remove(*id).is_some());
        }
        prop_assert_eq!(heap.approx_overhead(), 0);
    }
}
