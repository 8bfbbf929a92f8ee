//! Property tests of the governance layer's two safety contracts:
//!
//! 1. **Cancellation is transactional.** Whatever row-check boundary a
//!    deadline or token fires at, an autocommit write either applies fully
//!    or not at all — never a partially updated table.
//! 2. **Typed errors survive the wire.** `Error::Timeout` (both kinds) and
//!    `Error::ResourceExhausted` round-trip a response frame with message,
//!    variant and retry class intact.

use proptest::prelude::*;
use relstore::{Database, Error, Governance, TimeoutKind, Value};
use std::time::Duration;
use wire::Response;

fn counter_db(rows: i64) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE counters (id INT PRIMARY KEY, n INT)").unwrap();
    let ins = db.prepare("INSERT INTO counters VALUES (?, ?)").unwrap();
    db.session()
        .execute_batch(&ins, (0..rows).map(|id| (id, 0i64)))
        .unwrap();
    db
}

fn column_sum(db: &Database) -> i64 {
    db.session()
        .query_scalars::<i64, _, _>("SELECT SUM(n) AS s FROM counters", ())
        .unwrap()[0]
}

proptest! {
    /// An expired deadline may fire at *any* row-check boundary of an
    /// autocommit multi-row UPDATE (the boundary position is driven by
    /// `check_interval`); whichever one it hits, the table afterwards holds
    /// either the full update or none of it.
    #[test]
    fn cancelled_autocommit_update_is_all_or_nothing(
        rows in 1i64..40,
        check_interval in 1u32..64,
    ) {
        let db = counter_db(rows);
        let gov = Governance {
            deadline: Some(Duration::ZERO),
            check_interval: Some(check_interval),
            ..Governance::default()
        };
        match db.session().with_governance(gov).execute("UPDATE counters SET n = n + 1", ()) {
            // The statement finished before any check boundary was crossed:
            // every row must carry the increment.
            Ok(_) => prop_assert_eq!(column_sum(&db), rows),
            Err(Error::Timeout { kind: TimeoutKind::Statement, .. }) => {
                // Cancelled mid-write: the automatic rollback must leave no
                // partial increment behind.
                prop_assert_eq!(column_sum(&db), 0);
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
        db.check_consistency().unwrap();
    }

    /// The same contract for a cancelled multi-row INSERT: either every
    /// VALUES row landed or the table is untouched.
    #[test]
    fn cancelled_autocommit_insert_is_all_or_nothing(
        extra in 1i64..20,
        check_interval in 1u32..32,
    ) {
        let db = counter_db(5);
        let values: Vec<String> = (0..extra).map(|i| format!("({}, 1)", 100 + i)).collect();
        let sql = format!("INSERT INTO counters VALUES {}", values.join(", "));
        let gov = Governance {
            deadline: Some(Duration::ZERO),
            check_interval: Some(check_interval),
            ..Governance::default()
        };
        let len = match db.session().with_governance(gov).execute(sql, ()) {
            Ok(_) => 5 + extra as usize,
            Err(Error::Timeout { .. }) => 5,
            Err(other) => return Err(TestCaseError::fail(format!("unexpected error: {other}"))),
        };
        prop_assert_eq!(db.table_len("counters").unwrap(), len);
        db.check_consistency().unwrap();
    }

    /// The row budget caps *materialized result rows* exactly: a governed
    /// SELECT succeeds iff its result fits the cap, and a refusal is typed
    /// `ResourceExhausted` — never a silent truncation of the result set.
    #[test]
    fn row_budget_trips_exactly_at_the_cap(
        rows in 1i64..40,
        cap in 1u64..40,
    ) {
        let db = counter_db(rows);
        let gov = Governance {
            max_rows: Some(cap),
            ..Governance::default()
        };
        match db.session().with_governance(gov).query("SELECT * FROM counters", ()) {
            Ok(result) => {
                prop_assert!(rows as u64 <= cap, "{} rows slipped past a cap of {}", rows, cap);
                prop_assert_eq!(result.rows.len() as i64, rows, "no silent truncation");
            }
            Err(Error::ResourceExhausted(_)) => prop_assert!(rows as u64 > cap),
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
        db.check_consistency().unwrap();
    }

    /// Governance errors cross the wire as themselves: variant, message and
    /// retry class all intact, for any message content.
    #[test]
    fn governance_errors_round_trip_the_wire(msg in "\\PC{0,60}", which in 0..3u8) {
        let err = match which {
            0 => Error::statement_timeout(msg.clone()),
            1 => Error::lock_wait_timeout(msg.clone()),
            _ => Error::resource_exhausted(msg.clone()),
        };
        let decoded = match Response::decode(&Response::Err(err.clone()).encode()).unwrap() {
            Response::Err(d) => d,
            other => return Err(TestCaseError::fail(format!("expected Err, got {other:?}"))),
        };
        prop_assert_eq!(decoded.class(), err.class());
        prop_assert_eq!(decoded.is_retryable(), err.is_retryable());
        prop_assert_eq!(decoded.to_string(), err.to_string());
        match (&decoded, &err) {
            (Error::Timeout { kind: a, .. }, Error::Timeout { kind: b, .. }) => {
                prop_assert_eq!(a, b, "the timeout kind survives via the class byte");
            }
            (Error::ResourceExhausted(a), Error::ResourceExhausted(b)) => {
                prop_assert_eq!(a, b);
            }
            _ => prop_assert!(false, "variant changed across the wire: {decoded:?}"),
        }
    }

    /// Deadline millis survive the request frame for any value, including
    /// the absent case.
    #[test]
    fn request_deadlines_round_trip(deadline_seed in 0u64..u64::MAX) {
        let deadline_ms = (deadline_seed % 5 != 0).then_some((deadline_seed >> 32) as u32);
        let req = wire::Request::Execute {
            stmt: wire::StmtRef::Sql("SELECT 1".into()),
            params: vec![Value::Int(deadline_seed as i64)],
            deadline_ms,
        };
        let decoded = wire::Request::decode(&req.encode()).unwrap();
        prop_assert_eq!(decoded, req);
    }
}
