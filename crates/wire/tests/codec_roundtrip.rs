//! Property tests of the wire codec: every [`Value`] shape round-trips
//! bit-exactly, hostile bytes — truncations, oversized length prefixes,
//! flipped tags — are rejected with a clean [`Error::Net`], never a panic,
//! and a reply encoded into one buffer is byte for byte the stream of one
//! [`write_frame`] per frame.

use proptest::prelude::*;
use relstore::{Error, QueryResult, Row, Value};
use std::sync::Arc;
use wire::codec::{put_value, put_values, Reader, MAX_FRAME};
use wire::protocol::{
    encode_row_page, read_frame, write_frame, write_outcome, Outcome, Request, Response, StmtRef,
    REPLY_FLUSH_BYTES,
};

/// Every value shape the engine stores, biased toward the encodings most
/// likely to break a codec: NULL, extreme and negative integers, doubles by
/// raw bit pattern (non-finite values and NaN payloads included), empty and
/// NUL-embedding strings, and negative timestamps.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (i64::MIN..=i64::MAX).prop_map(Value::Int),
        Just(Value::Int(i64::MIN)),
        (i64::MIN..=i64::MAX).prop_map(|bits| Value::Double(f64::from_bits(bits as u64))),
        Just(Value::Double(f64::NAN)),
        Just(Value::Double(f64::NEG_INFINITY)),
        (-1e300..1e300).prop_map(Value::Double),
        "\\PC{0,40}".prop_map(|s| Value::Text(s.into())),
        Just(Value::Text("".into())),
        Just(Value::Text("embedded\0nul\0bytes".into())),
        (0..2u8).prop_map(|b| Value::Bool(b == 1)),
        (i64::MIN..=i64::MAX).prop_map(Value::Timestamp),
    ]
}

/// Equality that distinguishes double bit patterns (the engine's `PartialEq`
/// treats all NaNs as equal; the codec must preserve the exact bits).
fn bit_exact(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

proptest! {
    #[test]
    fn codec_values_round_trip(values in prop::collection::vec(value_strategy(), 0..12)) {
        let mut buf = Vec::new();
        put_values(&mut buf, &values);
        let mut reader = Reader::new(&buf);
        let decoded = reader.values().unwrap();
        reader.expect_end().unwrap();
        prop_assert_eq!(decoded.len(), values.len());
        for (d, v) in decoded.iter().zip(&values) {
            prop_assert!(bit_exact(d, v), "decoded {:?} != encoded {:?}", d, v);
        }
    }

    #[test]
    fn codec_truncated_values_error_cleanly(value in value_strategy(), cut_seed in 0..10_000usize) {
        let mut buf = Vec::new();
        put_value(&mut buf, &value);
        // Every strict prefix must fail with Error::Net — and never panic.
        let cut = cut_seed % buf.len();
        let err = Reader::new(&buf[..cut]).value().unwrap_err();
        prop_assert!(matches!(err, Error::Net(_)), "prefix {} gave {:?}", cut, err);
    }

    #[test]
    fn codec_request_frames_round_trip(
        params in prop::collection::vec(value_strategy(), 0..6),
        bindings in prop::collection::vec(prop::collection::vec(value_strategy(), 0..4), 0..5),
        sql in "\\PC{0,40}",
        id in 0..u32::MAX,
        deadline_seed in 0..u32::MAX,
    ) {
        let deadline_ms = (deadline_seed % 3 != 0).then_some(deadline_seed);
        let requests = [
            Request::Prepare { sql: sql.clone() },
            Request::Execute { stmt: StmtRef::Sql(sql.clone()), params: params.clone(), deadline_ms },
            Request::Execute { stmt: StmtRef::Id(id), params: params.clone(), deadline_ms },
            Request::ExecuteBatch { stmt: StmtRef::Id(id), bindings: bindings.clone(), deadline_ms },
            Request::QueryBatch { stmt: StmtRef::Sql(sql), bindings, deadline_ms },
        ];
        for req in requests {
            let payload = req.encode();
            let decoded = Request::decode(&payload).unwrap();
            // Structural equality is too strict for NaN payloads, so
            // round-trip once more and compare the bytes instead.
            prop_assert_eq!(decoded.encode(), payload.clone());
            // Truncations fail cleanly at an arbitrary cut point.
            let cut = (id as usize) % payload.len();
            prop_assert!(Request::decode(&payload[..cut]).is_err());
        }
    }

    #[test]
    fn codec_row_pages_round_trip(
        rows in prop::collection::vec(prop::collection::vec(value_strategy(), 0..5), 0..6),
        last in (0..2u8).prop_map(|b| b == 1),
    ) {
        let rows: Vec<Row> = rows.into_iter().map(Row::new).collect();
        let payload = encode_row_page(&rows, last);
        match Response::decode(&payload).unwrap() {
            Response::RowPage { rows: decoded, last: decoded_last } => {
                prop_assert_eq!(decoded_last, last);
                prop_assert_eq!(decoded.len(), rows.len());
                for (d, r) in decoded.iter().zip(&rows) {
                    prop_assert_eq!(d.arity(), r.arity());
                    for (dv, rv) in d.values.iter().zip(&r.values) {
                        prop_assert!(bit_exact(dv, rv));
                    }
                }
            }
            other => prop_assert!(false, "expected RowPage, got {:?}", other),
        }
    }

    #[test]
    fn codec_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(0..=u8::MAX, 0..64)) {
        // Whatever a hostile peer sends, decoding returns — Ok for the rare
        // valid encoding, Err otherwise — without panicking or allocating
        // unboundedly.
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let mut reader = Reader::new(&bytes);
        let _ = reader.values();
        let _ = read_frame(&mut bytes.as_slice());
        // Version 2's Query, Begin, Commit and Rollback opcodes are unknown
        // now: a clean transport error whatever body follows.
        for op in [3u8, 6, 7, 8] {
            let retired = [&[op][..], &bytes].concat();
            prop_assert!(matches!(Request::decode(&retired), Err(Error::Net(_))));
        }
    }
}

/// The reference encoding of an outcome: each frame encoded on its own and
/// framed by [`write_frame`], the way replies were written frame by frame.
fn per_frame_stream(outcome: &Outcome, page_rows: usize) -> Vec<u8> {
    let mut frames = Vec::new();
    match outcome {
        Outcome::One(resp) => frames.push(resp.encode()),
        Outcome::Rows(q) => push_query_frames(&mut frames, q, page_rows),
        Outcome::Batch(results) => {
            frames.push(
                Response::BatchHeader {
                    count: results.len() as u32,
                }
                .encode(),
            );
            for q in results {
                push_query_frames(&mut frames, q, page_rows);
            }
        }
    }
    let mut stream = Vec::new();
    for frame in frames {
        write_frame(&mut stream, &frame).unwrap();
    }
    stream
}

fn push_query_frames(frames: &mut Vec<Vec<u8>>, q: &QueryResult, page_rows: usize) {
    let columns = q.columns.iter().map(|c| c.to_string()).collect();
    frames.push(Response::RowsHeader { columns }.encode());
    let pages: Vec<&[Row]> = if q.rows.is_empty() {
        vec![&[]]
    } else {
        q.rows.chunks(page_rows).collect()
    };
    for (i, page) in pages.iter().enumerate() {
        frames.push(encode_row_page(page, i + 1 == pages.len()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn buffered_replies_equal_the_per_frame_stream(
        rows in prop::collection::vec(prop::collection::vec(value_strategy(), 0..4), 0..24),
        wide_rows in 0..4usize,
        page_sel in 0..3usize,
        code in 0..u64::MAX,
    ) {
        let page_rows = [1, 3, 256][page_sel];
        // Up to three 30 KB rows take the result past REPLY_FLUSH_BYTES, so
        // mid-reply flushes are covered as well as single-write replies.
        let mut rows: Vec<Row> = rows.into_iter().map(Row::new).collect();
        rows.extend((0..wide_rows).map(|i| {
            Row::new(vec![Value::Int(i as i64), Value::Text("w".repeat(30_000).into())])
        }));
        let columns: Arc<[Arc<str>]> = vec!["id".into(), "jobs.state".into()].into();
        let result = QueryResult { columns: Arc::clone(&columns), rows };
        let empty = QueryResult { columns, rows: Vec::new() };
        let outcomes = [
            Outcome::One(Response::Affected(code)),
            Outcome::One(Response::Err(Error::LockConflict(format!("table t{code}")))),
            Outcome::Rows(empty.clone()),
            Outcome::Rows(result.clone()),
            Outcome::Batch(vec![empty.clone(), result.clone(), empty, result]),
        ];
        let mut out = Vec::new();
        for outcome in &outcomes {
            let mut stream = Vec::new();
            let sent = write_outcome(&mut stream, &mut out, outcome, page_rows).unwrap();
            let oracle = per_frame_stream(outcome, page_rows);
            prop_assert_eq!(sent as usize, oracle.len());
            prop_assert!(stream == oracle, "a {}-byte reply diverged from its frames", oracle.len());
            prop_assert!(out.is_empty() && out.capacity() <= REPLY_FLUSH_BYTES);
        }
    }
}

#[test]
fn codec_large_text_blobs_round_trip() {
    // A megabyte-scale text value (the closest thing to a blob the engine
    // stores) survives the trip and stays within one frame.
    let blob: String = "x☃\0".repeat(400_000);
    let value = Value::Text(blob.into());
    let mut buf = Vec::new();
    put_value(&mut buf, &value);
    assert!(buf.len() < MAX_FRAME);
    assert_eq!(Reader::new(&buf).value().unwrap(), value);

    // Framing refuses anything beyond MAX_FRAME on the way out...
    let oversized = vec![0u8; MAX_FRAME + 1];
    assert!(matches!(
        write_frame(&mut Vec::new(), &oversized),
        Err(Error::Net(_))
    ));
    // ...and refuses an oversized announcement on the way in, before
    // allocating anything.
    let hostile = ((MAX_FRAME + 1) as u32).to_le_bytes();
    assert!(matches!(
        read_frame(&mut hostile.as_slice()),
        Err(Error::Net(_))
    ));
}
