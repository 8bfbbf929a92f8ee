//! Exhaustive torn-tail recovery: a small durable log is truncated at
//! **every** byte position from the segment header to the end, and each
//! truncation must recover exactly the longest clean record prefix — with
//! the leftover bytes counted, never a panic, and never a phantom commit.

use relstore::io::{decode_segment, record_boundaries, SEGMENT_HEADER_LEN};
use relstore::wal::LogRecord;
use relstore::{Database, DurabilityPolicy, MemDevice, OpStats};

#[test]
fn every_truncation_point_recovers_the_longest_clean_prefix() {
    // A deliberately small workload: the test reopens the database once per
    // byte of log, so the log must stay a few hundred bytes long.
    let db =
        Database::open_with_device(Box::new(MemDevice::new()), DurabilityPolicy::Always).unwrap();
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT)").unwrap();
    db.execute("INSERT INTO jobs VALUES (1, 'idle')").unwrap();
    db.execute("INSERT INTO jobs VALUES (2, 'busy')").unwrap();
    db.execute("UPDATE jobs SET state = 'done' WHERE job_id = 1").unwrap();
    db.flush_log().unwrap();
    let bytes = db.durable_log_bytes().unwrap();
    assert!(
        bytes.len() < 2048,
        "keep the exhaustive sweep cheap; log grew to {} bytes",
        bytes.len()
    );

    let boundaries = record_boundaries(&bytes).unwrap();
    assert_eq!(boundaries[0] as usize, SEGMENT_HEADER_LEN);

    // Expected state per boundary: replay each clean prefix once up front.
    let states: Vec<Vec<String>> = boundaries
        .iter()
        .map(|&b| catalog_fingerprint(&bytes[..b as usize]))
        .collect();

    for t in SEGMENT_HEADER_LEN..=bytes.len() {
        // The longest record boundary at or before the cut.
        let idx = boundaries.iter().rposition(|&b| b as usize <= t).unwrap();
        let b = boundaries[idx] as usize;

        let db = Database::open_with_device(
            Box::new(MemDevice::with_contents(bytes[..t].to_vec())),
            DurabilityPolicy::Always,
        )
        .unwrap_or_else(|e| panic!("truncation at byte {t} must recover, got: {e}"));
        assert_eq!(
            catalog_of(&db),
            states[idx],
            "truncation at byte {t} must match the boundary at byte {b}"
        );
        db.check_consistency().unwrap();
        assert_eq!(
            db.stats().recovery_truncated_bytes,
            (t - b) as u64,
            "truncation at byte {t}: exactly the partial record is repaired"
        );
    }
}

/// The rows a recovery from `prefix` must produce, via one throwaway replay.
fn catalog_fingerprint(prefix: &[u8]) -> Vec<String> {
    let db = Database::open_with_device(
        Box::new(MemDevice::with_contents(prefix.to_vec())),
        DurabilityPolicy::Always,
    )
    .unwrap();
    catalog_of(&db)
}

fn catalog_of(db: &Database) -> Vec<String> {
    if !db.table_names().iter().any(|t| t == "jobs") {
        return Vec::new();
    }
    let q = db.query("SELECT * FROM jobs ORDER BY job_id").unwrap();
    q.rows.iter().map(|r| format!("{r:?}")).collect()
}

/// Truncating the segment header itself (a crash during the very first
/// write of a fresh log) recovers an empty database.
#[test]
fn a_torn_segment_header_recovers_an_empty_database() {
    let db =
        Database::open_with_device(Box::new(MemDevice::new()), DurabilityPolicy::Always).unwrap();
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY)").unwrap();
    db.flush_log().unwrap();
    let bytes = db.durable_log_bytes().unwrap();

    for t in 0..SEGMENT_HEADER_LEN {
        let db = Database::open_with_device(
            Box::new(MemDevice::with_contents(bytes[..t].to_vec())),
            DurabilityPolicy::Always,
        )
        .unwrap_or_else(|e| panic!("header torn at byte {t} must recover, got: {e}"));
        assert!(db.table_names().is_empty());
        // A fresh header was re-laid: the database is usable and durable.
        db.execute("CREATE TABLE probe (id INT PRIMARY KEY)").unwrap();
        assert!(db.is_durable());
    }
}

/// Every recovered prefix contains only whole records: the decoder's view
/// of the truncated log agrees byte-for-byte with what recovery used.
#[test]
fn decoder_and_recovery_agree_on_the_committed_prefix() {
    let db =
        Database::open_with_device(Box::new(MemDevice::new()), DurabilityPolicy::Always).unwrap();
    db.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
    db.execute("INSERT INTO t VALUES (7)").unwrap();
    db.flush_log().unwrap();
    let bytes = db.durable_log_bytes().unwrap();

    for t in SEGMENT_HEADER_LEN..=bytes.len() {
        let mut scratch = OpStats::default();
        let seg = decode_segment(&bytes[..t], &mut scratch).unwrap();
        assert_eq!(seg.valid_len + seg.truncated_bytes, t as u64);
        // Commits visible to the decoder — every record is one whole
        // transaction — are exactly the commits recovery replays: no
        // off-by-one at any cut.
        let commits = seg
            .records
            .iter()
            .filter(|r| matches!(r, LogRecord::Txn { .. }))
            .count();
        let db = Database::open_with_device(
            Box::new(MemDevice::with_contents(bytes[..t].to_vec())),
            DurabilityPolicy::Always,
        )
        .unwrap();
        let rows = if db.table_names().is_empty() {
            0
        } else {
            db.table_len("t").unwrap()
        };
        assert_eq!(rows, commits.saturating_sub(1), "at cut {t}");
    }
}
