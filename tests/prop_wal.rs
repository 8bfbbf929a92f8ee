//! Property-based tests of durable-log recovery: arbitrary single-byte
//! corruption in the committed region is always detected as
//! [`Error::Corruption`] (never a panic, never a silently wrong catalog),
//! arbitrary tail truncation always recovers exactly the last full-record
//! prefix, and a durable database fed a random schedule of writes,
//! checkpoints and reopens behaves exactly like the in-memory engine.

use proptest::prelude::*;
use relstore::io::{record_boundaries, SEGMENT_HEADER_LEN};
use relstore::{Database, DurabilityPolicy, Error, MemDevice};

/// Builds a durable log from a small parameterised workload and returns its
/// bytes. `rows` varies the log length so corruption/truncation positions
/// exercise records of several kinds and sizes.
fn build_log(rows: usize) -> Vec<u8> {
    let db =
        Database::open_with_device(Box::new(MemDevice::new()), DurabilityPolicy::Always).unwrap();
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT)").unwrap();
    for i in 0..rows as i64 {
        db.execute(&format!("INSERT INTO jobs VALUES ({i}, 'job-{i}')")).unwrap();
    }
    if rows > 1 {
        db.execute("UPDATE jobs SET state = 'done' WHERE job_id = 0").unwrap();
        db.execute("DELETE FROM jobs WHERE job_id = 1").unwrap();
    }
    db.flush_log().unwrap();
    db.durable_log_bytes().unwrap()
}

fn open_bytes(bytes: Vec<u8>) -> relstore::Result<Database> {
    Database::open_with_device(
        Box::new(MemDevice::with_contents(bytes)),
        DurabilityPolicy::Always,
    )
}

/// The rows of `jobs`, as a comparable fingerprint.
fn rows_of(db: &Database) -> Vec<String> {
    if !db.table_names().iter().any(|t| t == "jobs") {
        return Vec::new();
    }
    let q = db.query("SELECT * FROM jobs ORDER BY job_id").unwrap();
    q.rows.iter().map(|r| format!("{r:?}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Flipping any single byte strictly before the final record either
    /// fails recovery with `Error::Corruption` or — when the flip lands in
    /// the segment header — with the header-validation corruption error.
    /// It must never panic and never produce a successfully-opened database
    /// (the corrupt region is not the tail, so tail repair cannot apply).
    #[test]
    fn non_tail_byte_flips_are_always_detected(
        rows in 1usize..6,
        pos_seed in 0u64..u64::MAX,
        bit in 0u8..8,
    ) {
        let bytes = build_log(rows);
        let boundaries = record_boundaries(&bytes).unwrap();
        // The corruptible region: everything before the final record's
        // start. A flip in the final record is indistinguishable from a
        // torn/rotted tail and is allowed to truncate instead.
        let last_record_start = boundaries[boundaries.len() - 2] as usize;
        let pos = (pos_seed % last_record_start as u64) as usize;

        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 1 << bit;

        match open_bytes(corrupt) {
            Err(Error::Corruption(_)) => {} // the expected loud failure
            Err(other) => prop_assert!(
                false,
                "flip at {pos} bit {bit}: wrong error kind: {other}"
            ),
            Ok(_) => prop_assert!(
                false,
                "flip at {pos} bit {bit} (region ends {last_record_start}) \
                 was silently accepted"
            ),
        }
    }

    /// Truncating the log at any position recovers the same catalog as the
    /// longest clean record-boundary prefix — committed-prefix semantics at
    /// every possible crash point.
    #[test]
    fn any_truncation_recovers_the_last_full_record_prefix(
        rows in 1usize..6,
        cut_seed in 0u64..u64::MAX,
    ) {
        let bytes = build_log(rows);
        let boundaries = record_boundaries(&bytes).unwrap();
        let cut = SEGMENT_HEADER_LEN
            + (cut_seed % (bytes.len() - SEGMENT_HEADER_LEN + 1) as u64) as usize;
        let base = boundaries
            .iter()
            .rev()
            .find(|&&b| b as usize <= cut)
            .copied()
            .unwrap() as usize;

        let truncated = open_bytes(bytes[..cut].to_vec());
        prop_assert!(truncated.is_ok(), "cut at {cut}: {:?}", truncated.err());
        let truncated = truncated.unwrap();
        let reference = open_bytes(bytes[..base].to_vec()).unwrap();

        prop_assert_eq!(rows_of(&truncated), rows_of(&reference));
        prop_assert_eq!(
            truncated.stats().recovery_truncated_bytes,
            (cut - base) as u64
        );
        truncated.check_consistency().unwrap();
    }
}

const CREATE: &str = "CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT NOT NULL, payload TEXT)";

/// One SQL statement of the schedule.
#[derive(Debug, Clone)]
enum Write {
    /// `big` payloads are ~1.5 KB, so checkpoint images and suffix records
    /// mix rows of very different sizes. Sixteen ids share a payload, so
    /// once `payload` is uniquely indexed most inserts collide on it.
    Insert { id: i64, state: u8, big: bool },
    Update { id: i64, state: u8 },
    Delete { id: i64 },
    /// `CREATE UNIQUE INDEX ON jobs (payload)`: refused while two rows share
    /// a payload, `AlreadyExists` the second time — and, logged like any
    /// other change, still enforced after a reopen.
    CreateUniqueIndex,
}

#[derive(Debug, Clone)]
enum Op {
    /// One autocommit statement.
    Auto(Write),
    /// One explicit transaction, committed or rolled back.
    Txn { writes: Vec<Write>, commit: bool },
    Checkpoint,
    Reopen,
}

fn write_strategy() -> impl Strategy<Value = Write> {
    prop_oneof![
        (0..64i64, 0..4u8, 0..5u8)
            .prop_map(|(id, state, big)| Write::Insert { id, state, big: big == 0 }),
        (0..64i64, 0..4u8, 0..5u8)
            .prop_map(|(id, state, big)| Write::Insert { id, state, big: big == 0 }),
        (0..64i64, 0..4u8).prop_map(|(id, state)| Write::Update { id, state }),
        (0..64i64, 0..4u8).prop_map(|(id, state)| Write::Update { id, state }),
        (0..64i64).prop_map(|id| Write::Delete { id }),
        (0..64i64).prop_map(|id| Write::Delete { id }),
        Just(Write::CreateUniqueIndex),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        write_strategy().prop_map(Op::Auto),
        write_strategy().prop_map(Op::Auto),
        write_strategy().prop_map(Op::Auto),
        write_strategy().prop_map(Op::Auto),
        (prop::collection::vec(write_strategy(), 1..5), 0..3u8)
            .prop_map(|(writes, roll)| Op::Txn { writes, commit: roll != 0 }),
        (prop::collection::vec(write_strategy(), 1..5), 0..3u8)
            .prop_map(|(writes, roll)| Op::Txn { writes, commit: roll != 0 }),
        Just(Op::Checkpoint),
        Just(Op::Reopen),
    ]
}

fn write_sql(write: &Write) -> String {
    let state_name = |state: u8| ["idle", "matched", "running", "held"][state as usize];
    match write {
        Write::Insert { id, state, big } => {
            let key = id % 16;
            let payload = if *big { format!("p{key}-").repeat(300) } else { format!("p{key}") };
            format!("INSERT INTO jobs VALUES ({id}, '{}', '{payload}')", state_name(*state))
        }
        Write::Update { id, state } => {
            format!("UPDATE jobs SET state = '{}' WHERE job_id = {id}", state_name(*state))
        }
        Write::Delete { id } => format!("DELETE FROM jobs WHERE job_id = {id}"),
        Write::CreateUniqueIndex => "CREATE UNIQUE INDEX ON jobs (payload)".to_string(),
    }
}

/// Both sides must answer a statement alike: same affected count, or the
/// same error.
fn same_answer(
    d: relstore::Result<relstore::ExecResult>,
    o: relstore::Result<relstore::ExecResult>,
) -> Result<(), TestCaseError> {
    match (&d, &o) {
        (Ok(dr), Ok(or)) => prop_assert_eq!(dr.affected(), or.affected()),
        (Err(de), Err(oe)) => prop_assert_eq!(de.to_string(), oe.to_string()),
        _ => prop_assert!(false, "divergent results: durable={d:?} oracle={o:?}"),
    }
    Ok(())
}

/// Clean restart: commits are durable under `DurabilityPolicy::Always`, so
/// the device's durable bytes are the whole log.
fn reopen(db: &Database) -> Database {
    open_bytes(db.durable_log_bytes().unwrap()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A durable database and the in-memory engine, fed the same random
    /// schedule — autocommit statements, explicit transactions that commit
    /// or roll back, a unique index created along the way — answer
    /// identically at every step — same affected counts, same errors —
    /// across checkpoints (segment rotation) and reopens (checkpoint image
    /// + the transactions after it) of the durable side.
    #[test]
    fn durable_database_matches_in_memory_oracle_across_checkpoints_and_reopens(
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let mut durable = open_bytes(Vec::new()).unwrap();
        let oracle = Database::new();
        durable.execute(CREATE).unwrap();
        oracle.execute(CREATE).unwrap();

        for op in &ops {
            match op {
                Op::Checkpoint => {
                    // No transactions are open, so neither side may refuse.
                    durable.checkpoint().unwrap();
                    oracle.checkpoint().unwrap();
                }
                Op::Reopen => durable = reopen(&durable),
                Op::Auto(write) => {
                    let sql = write_sql(write);
                    same_answer(durable.execute(&sql), oracle.execute(&sql))?;
                }
                Op::Txn { writes, commit } => {
                    let (d, o) = (durable.transaction(), oracle.transaction());
                    for write in writes {
                        let sql = write_sql(write);
                        same_answer(d.execute(sql.as_str(), ()), o.execute(sql.as_str(), ()))?;
                    }
                    if *commit {
                        d.commit().unwrap();
                        o.commit().unwrap();
                    }
                    // Otherwise both guards drop here: rolled back.
                }
            }
        }

        durable.check_consistency().unwrap();
        let q = "SELECT * FROM jobs ORDER BY job_id";
        prop_assert_eq!(durable.query(q).unwrap(), oracle.query(q).unwrap());

        // One final restart: recovery must land on the same committed state.
        let recovered = reopen(&durable);
        recovered.check_consistency().unwrap();
        prop_assert_eq!(recovered.query(q).unwrap(), oracle.query(q).unwrap());
    }
}
