//! On-disk segment layout: versioned header, CRC-framed records, and the
//! torn-tail-tolerant segment decoder.
//!
//! A log segment is
//!
//! ```text
//! [8-byte segment header: "RWAL" magic + u16 version + u16 reserved]
//! [record] [record] ...
//! ```
//!
//! and each record is framed as
//!
//! ```text
//! [u32 payload_len][u32 payload_crc][u32 header_crc][payload_len bytes]
//! ```
//!
//! where `header_crc` is the CRC-32 of the first 8 header bytes. The double
//! checksum is what lets recovery separate the two failure modes without
//! guessing:
//!
//! - **Torn tail** (the machine died mid-append): an append writes a strict
//!   *prefix* of the record bytes, so the damage is always "bytes missing at
//!   the end" — a header shorter than 12 bytes, or a valid header whose
//!   payload runs past the end of the segment. Recovery truncates the tail
//!   and yields exactly the records before it.
//! - **Corruption** (the media rotted, or someone scribbled on the file):
//!   bytes that are *present* but wrong. A complete 12-byte header with a
//!   bad `header_crc`, a complete payload with a bad `payload_crc`, or a
//!   CRC-valid payload that decodes to garbage. Because `header_crc` covers
//!   the length field, a bit flip in `payload_len` can never masquerade as
//!   a torn tail. Recovery fails loudly with [`Error::Corruption`].
//!
//! # Format version
//!
//! [`SEGMENT_VERSION`] is **3**: a record is a whole committed transaction
//! ([`LogRecord::Txn`], its changes in execution order) or a checkpoint
//! image. Version 2 framed every change on its own between `Begin` and
//! `Commit` records, each carrying a transaction id, so that an engine which
//! wrote changes ahead of commit could sort the committed from the torn at
//! recovery; this engine never writes a change before its commit, so a torn
//! transaction is simply a torn tail. There is one decoder and no upgrade
//! path — a segment whose header names any other version is refused with
//! [`Error::Corruption`] naming both versions. No older log exists outside a
//! test's temporary directory: the format never shipped, and every test and
//! benchmark writes the log it later reads.
//!
//! # The writer honours the reader's bound
//!
//! A payload longer than [`MAX_RECORD_PAYLOAD`] (or than the frame's `u32`
//! length field can say) is refused by [`encode_record`], and by the commit
//! path's `encode_txn`, with [`Error::ResourceExhausted`] — before a byte is
//! written — because the decoder would refuse it as corruption on the next
//! open.

use crate::error::{Error, Result};
use crate::obs::OpStats;
use crate::wal::{Change, LogRecord};

use super::codec::{put_record, put_txn, Reader};
use super::crc::crc32;

/// Magic bytes opening every segment.
pub(crate) const SEGMENT_MAGIC: [u8; 4] = *b"RWAL";

/// Current segment format version.
pub(crate) const SEGMENT_VERSION: u16 = 3;

/// Size of the fixed segment header.
pub const SEGMENT_HEADER_LEN: usize = 8;

/// Size of the per-record frame header.
pub(crate) const RECORD_HEADER_LEN: usize = 12;

/// Hard upper bound on a single record payload, enforced by the writer and
/// the reader alike. It bounds allocation against damaged headers whose CRC
/// happens to collide.
pub(crate) const MAX_RECORD_PAYLOAD: usize = 256 * 1024 * 1024;

/// The 8 header bytes opening every segment.
pub(crate) fn segment_header() -> [u8; SEGMENT_HEADER_LEN] {
    let mut header = [0u8; SEGMENT_HEADER_LEN];
    header[..4].copy_from_slice(&SEGMENT_MAGIC);
    header[4..6].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    header
}

/// Frames one logical record: 12-byte checksummed header + payload.
pub(crate) fn encode_record(record: &LogRecord) -> Result<Vec<u8>> {
    encode_record_within(record, MAX_RECORD_PAYLOAD)
}

/// [`encode_record`] against the log writer's payload limit
/// ([`MAX_RECORD_PAYLOAD`] outside tests).
pub(crate) fn encode_record_within(record: &LogRecord, limit: usize) -> Result<Vec<u8>> {
    frame(limit, |buf| put_record(buf, record))
}

/// Frames a committing transaction's change list as one [`LogRecord::Txn`]
/// record, off the borrowed list.
pub(crate) fn encode_txn(changes: &[Change], limit: usize) -> Result<Vec<u8>> {
    frame(limit, |buf| put_txn(buf, changes))
}

/// Writes a payload behind a frame header, refusing one over `limit` bytes.
fn frame(limit: usize, put_payload: impl FnOnce(&mut Vec<u8>)) -> Result<Vec<u8>> {
    let mut framed = vec![0u8; RECORD_HEADER_LEN];
    put_payload(&mut framed);
    let payload_len = framed.len() - RECORD_HEADER_LEN;
    let len = u32::try_from(payload_len)
        .ok()
        .filter(|_| payload_len <= limit)
        .ok_or_else(|| {
            Error::ResourceExhausted(format!(
                "log record payload of {payload_len} byte(s) exceeds the {limit}-byte limit"
            ))
        })?;
    let payload_crc = crc32(&framed[RECORD_HEADER_LEN..]);
    framed[0..4].copy_from_slice(&len.to_le_bytes());
    framed[4..8].copy_from_slice(&payload_crc.to_le_bytes());
    let header_crc = crc32(&framed[..8]);
    framed[8..12].copy_from_slice(&header_crc.to_le_bytes());
    Ok(framed)
}

/// The result of scanning a segment image at recovery.
#[derive(Debug)]
pub struct DecodedSegment {
    /// Every complete, checksum-valid record, in log order.
    pub records: Vec<LogRecord>,
    /// Length of the valid prefix. The device should be truncated to this
    /// before appending resumes.
    pub valid_len: u64,
    /// Bytes past `valid_len` that belonged to a torn (partial) record and
    /// were discarded.
    pub truncated_bytes: u64,
}

/// Scans a segment image, tolerating a torn tail and refusing corruption.
///
/// On success, `stats.recovery_truncated_bytes` reflects any repaired tail;
/// on [`Error::Corruption`], `stats.corruption_detected` is bumped before
/// the error is returned (the caller usually merges `stats` into shared
/// counters either way). An empty image is a fresh log, not an error.
pub fn decode_segment(bytes: &[u8], stats: &mut OpStats) -> Result<DecodedSegment> {
    let mut fail = |msg: String| {
        stats.corruption_detected += 1;
        Err(Error::corruption(msg))
    };

    // The segment header. A crash during the very first write can leave a
    // strict prefix of it behind: that is a torn tail of an empty log.
    let expected = segment_header();
    if bytes.len() < SEGMENT_HEADER_LEN {
        if bytes != &expected[..bytes.len()] {
            return fail(format!(
                "segment header damaged ({} byte(s), not a prefix of the magic)",
                bytes.len()
            ));
        }
        let truncated = bytes.len() as u64;
        stats.recovery_truncated_bytes += truncated;
        return Ok(DecodedSegment { records: Vec::new(), valid_len: 0, truncated_bytes: truncated });
    }
    if bytes[..4] != SEGMENT_MAGIC {
        return fail("segment magic mismatch: not a relstore log".into());
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != SEGMENT_VERSION {
        return fail(format!(
            "unsupported segment version {version} (this build reads {SEGMENT_VERSION})"
        ));
    }
    if bytes[6..8] != [0, 0] {
        return fail("segment header reserved bytes are non-zero".into());
    }

    let mut records = Vec::new();
    let mut offset = SEGMENT_HEADER_LEN;
    loop {
        let remaining = bytes.len() - offset;
        if remaining == 0 {
            return Ok(DecodedSegment {
                records,
                valid_len: offset as u64,
                truncated_bytes: 0,
            });
        }
        if remaining < RECORD_HEADER_LEN {
            // Not even a full frame header: a torn append. Everything before
            // it is intact.
            stats.recovery_truncated_bytes += remaining as u64;
            return Ok(DecodedSegment {
                records,
                valid_len: offset as u64,
                truncated_bytes: remaining as u64,
            });
        }
        let header = &bytes[offset..offset + RECORD_HEADER_LEN];
        let payload_len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
        let payload_crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let header_crc = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if crc32(&header[..8]) != header_crc {
            // All 12 header bytes are present, so this is not a torn append
            // (a torn append only ever leaves bytes *missing*): the header
            // itself rotted, and the length field cannot be trusted.
            return fail(format!("record header checksum mismatch at offset {offset}"));
        }
        if payload_len > MAX_RECORD_PAYLOAD {
            return fail(format!(
                "record at offset {offset} claims a {payload_len}-byte payload"
            ));
        }
        let payload_start = offset + RECORD_HEADER_LEN;
        if payload_len > bytes.len() - payload_start {
            // Valid header, missing payload bytes: the append tore partway
            // through the payload.
            let torn = (bytes.len() - offset) as u64;
            stats.recovery_truncated_bytes += torn;
            return Ok(DecodedSegment {
                records,
                valid_len: offset as u64,
                truncated_bytes: torn,
            });
        }
        let payload = &bytes[payload_start..payload_start + payload_len];
        if crc32(payload) != payload_crc {
            return fail(format!("record payload checksum mismatch at offset {offset}"));
        }
        let mut reader = Reader::new(payload);
        let record = match reader.record().and_then(|r| reader.expect_end().map(|_| r)) {
            Ok(record) => record,
            Err(e) => {
                // The payload passed its CRC yet does not decode: the record
                // was damaged before it was checksummed, or the format is
                // from the future. Either way, corruption.
                return fail(format!("record at offset {offset} is undecodable: {e}"));
            }
        };
        records.push(record);
        offset = payload_start + payload_len;
    }
}

/// Record boundaries of a fully valid segment: byte offsets at which a
/// recovery prefix ends exactly on a record boundary. The first entry is the
/// segment header length; each subsequent entry is the end of one record.
/// Used by the crash-matrix tests to enumerate every clean prefix.
pub fn record_boundaries(bytes: &[u8]) -> Result<Vec<u64>> {
    let mut stats = OpStats::default();
    let decoded = decode_segment(bytes, &mut stats)?;
    if decoded.truncated_bytes != 0 {
        return Err(Error::Wal(
            "record_boundaries requires a fully valid segment".into(),
        ));
    }
    let mut boundaries = vec![SEGMENT_HEADER_LEN as u64];
    let mut offset = SEGMENT_HEADER_LEN as u64;
    for record in &decoded.records {
        offset += encode_record(record)?.len() as u64;
        boundaries.push(offset);
    }
    Ok(boundaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{Row, RowId};
    use crate::value::Value;

    fn txn_of(change: Change) -> LogRecord {
        LogRecord::Txn { changes: vec![change] }
    }

    fn insert(id: u64, row: Row) -> Change {
        Change::Insert { table: "jobs".into(), row_id: RowId(id), row }
    }

    fn sample_log() -> Vec<LogRecord> {
        let row = |n: i64, owner: &str| Row::new(vec![Value::Int(n), Value::Text(owner.into())]);
        vec![
            txn_of(insert(1, row(7, "alice"))),
            LogRecord::Txn {
                changes: vec![
                    insert(2, row(8, "bob")),
                    Change::Delete { table: "jobs".into(), row_id: RowId(1) },
                ],
            },
            txn_of(insert(3, row(9, "carol"))),
        ]
    }

    fn encode(records: &[LogRecord]) -> Vec<u8> {
        let mut bytes = segment_header().to_vec();
        for record in records {
            bytes.extend_from_slice(&encode_record(record).unwrap());
        }
        bytes
    }

    #[test]
    fn clean_segment_round_trips() {
        let bytes = encode(&sample_log());
        let mut stats = OpStats::default();
        let decoded = decode_segment(&bytes, &mut stats).unwrap();
        assert_eq!(decoded.records.len(), 3);
        assert_eq!(decoded.valid_len, bytes.len() as u64);
        assert_eq!(decoded.truncated_bytes, 0);
        assert_eq!(stats.recovery_truncated_bytes, 0);
        assert_eq!(stats.corruption_detected, 0);
        assert_eq!(encode(&decoded.records), bytes);
    }

    #[test]
    fn empty_and_header_only_segments_are_fresh_logs() {
        let mut stats = OpStats::default();
        let decoded = decode_segment(&[], &mut stats).unwrap();
        assert!(decoded.records.is_empty());
        assert_eq!(decoded.valid_len, 0);

        let decoded = decode_segment(&segment_header(), &mut stats).unwrap();
        assert!(decoded.records.is_empty());
        assert_eq!(decoded.valid_len, SEGMENT_HEADER_LEN as u64);
        assert_eq!(stats.recovery_truncated_bytes, 0);
    }

    #[test]
    fn every_truncation_recovers_the_longest_clean_prefix() {
        let bytes = encode(&sample_log());
        let boundaries = record_boundaries(&bytes).unwrap();
        assert_eq!(boundaries.len(), 4, "header + three records");
        for cut in 0..bytes.len() {
            let mut stats = OpStats::default();
            let decoded = decode_segment(&bytes[..cut], &mut stats)
                .unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            let last_boundary = boundaries
                .iter()
                .rev()
                .find(|b| **b <= cut as u64)
                .copied()
                .unwrap_or(0);
            assert_eq!(decoded.valid_len, last_boundary, "cut {cut}");
            // boundaries[k] is the prefix that holds exactly k records; a cut
            // inside the segment header holds none.
            let expected_records =
                boundaries.iter().position(|b| *b == last_boundary).unwrap_or(0);
            assert_eq!(decoded.records.len(), expected_records, "cut {cut}");
            assert_eq!(decoded.truncated_bytes, cut as u64 - last_boundary, "cut {cut}");
            assert_eq!(stats.recovery_truncated_bytes, decoded.truncated_bytes);
        }
    }

    #[test]
    fn every_non_tail_byte_flip_is_corruption() {
        let bytes = encode(&sample_log());
        let boundaries = record_boundaries(&bytes).unwrap();
        // Bytes before the start of the final record are "non-tail": a flip
        // there must never be mistaken for a repairable torn tail.
        let non_tail_end = boundaries[boundaries.len() - 2] as usize;
        for i in 0..non_tail_end {
            for bit in [0, 3, 7] {
                let mut damaged = bytes.clone();
                damaged[i] ^= 1 << bit;
                let mut stats = OpStats::default();
                let err = decode_segment(&damaged, &mut stats)
                    .err()
                    .unwrap_or_else(|| panic!("flip at {i} bit {bit} was accepted"));
                assert!(matches!(err, Error::Corruption(_)), "flip at {i}: {err}");
                assert_eq!(stats.corruption_detected, 1);
            }
        }
    }

    #[test]
    fn length_field_flips_cannot_masquerade_as_torn_tails() {
        // Flip a bit in the length field of the *final* record so the claimed
        // payload runs past the end of the segment. Without the header CRC
        // this would look exactly like a torn tail; with it, it must be
        // corruption.
        let bytes = encode(&sample_log());
        let boundaries = record_boundaries(&bytes).unwrap();
        let final_header = boundaries[boundaries.len() - 2] as usize;
        let mut damaged = bytes.clone();
        damaged[final_header] ^= 0x80; // low length byte: claims +128 bytes
        let mut stats = OpStats::default();
        let err = decode_segment(&damaged, &mut stats).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "{err}");
    }

    #[test]
    fn wrong_magic_and_version_are_corruption() {
        let mut stats = OpStats::default();
        let err = decode_segment(b"NOPE\x01\x00\x00\x00", &mut stats).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "{err}");

        let mut versioned = segment_header();
        versioned[4] = 9;
        let err = decode_segment(&versioned, &mut stats).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn an_older_segment_version_is_refused_not_misread() {
        // Versions 1 and 2 framed each change on its own; there is no second
        // decoder, so the header check is what keeps one from being misread.
        for old in [1u16, 2] {
            let mut bytes = encode(&sample_log());
            bytes[4..6].copy_from_slice(&old.to_le_bytes());
            let mut stats = OpStats::default();
            let err = decode_segment(&bytes, &mut stats).unwrap_err();
            assert!(matches!(err, Error::Corruption(_)), "{err}");
            let msg = err.to_string();
            assert!(msg.contains(&format!("version {old}")) && msg.contains("reads 3"), "{msg}");
            assert_eq!(stats.corruption_detected, 1);
        }
    }

    #[test]
    fn an_update_record_carries_one_row_image() {
        let row = Row::new((0..8).map(Value::Int).collect());
        let insert = txn_of(Change::Insert {
            table: "machines".into(),
            row_id: RowId(1),
            row: row.clone(),
        });
        let update =
            txn_of(Change::Update { table: "machines".into(), row_id: RowId(1), after: row });
        let delete = txn_of(Change::Delete { table: "machines".into(), row_id: RowId(1) });
        let len = |r: &LogRecord| encode_record(r).unwrap().len();
        // Same fields as the insert: a second image would add ≥ 8 × 9 bytes.
        assert!(len(&update) < len(&insert) + 8);
        assert!(len(&delete) < len(&update));
        assert!(update.approx_size() <= insert.approx_size());
    }

    #[test]
    fn encode_txn_is_the_txn_record_off_a_borrowed_list() {
        for record in sample_log() {
            let LogRecord::Txn { changes } = &record else { unreachable!() };
            let framed = encode_txn(changes, MAX_RECORD_PAYLOAD).unwrap();
            assert_eq!(framed, encode_record(&record).unwrap());
        }
    }

    #[test]
    fn the_writer_refuses_a_payload_the_reader_would_refuse() {
        let put = |n: usize| move |buf: &mut Vec<u8>| buf.resize(buf.len() + n, 7);
        // At the limit a payload frames; one byte over is refused, typed,
        // with nothing to write.
        let framed = frame(64, put(64)).unwrap();
        assert_eq!(framed.len(), RECORD_HEADER_LEN + 64);
        let err = frame(64, put(65)).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "{err}");
        assert!(err.to_string().contains("65 byte(s)"), "{err}");
    }
}
