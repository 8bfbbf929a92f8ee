//! Binary encoding of logical WAL records: hand-rolled, serde-free.
//!
//! This mirrors the `crates/wire` codec idiom — little-endian fixed-width
//! integers and length-prefixed strings appended to a `Vec<u8>`, read back
//! through a bounds-checked [`Reader`] — but lives in `relstore` because the
//! wire crate depends on this one. Decoding a damaged log **never panics**:
//! a truncated buffer, an oversized length prefix or an unknown tag surfaces
//! as a clean [`Error::Corruption`]. (The record framing in
//! [`super::record`] decides whether damage is a repairable torn tail or
//! hard corruption; by the time payload decoding runs, the payload has
//! already passed its CRC, so any decode failure here is corruption.)

use crate::error::{Error, Result};
use crate::schema::{Column, IndexDef, Schema};
use crate::tuple::{Row, RowId};
use crate::value::{DataType, Value};
use crate::wal::{LogRecord, TableSnapshot, TxnId};
use std::sync::Arc;

/// Maximum nesting depth accepted when decoding [`LogRecord::Batch`]. The
/// engine itself writes flat batches; the cap only bounds stack use against
/// a log that passed its CRC yet still nests absurdly.
const MAX_BATCH_DEPTH: usize = 8;

// --- writing -----------------------------------------------------------------

/// Appends one byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian u16.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian u32.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian u64.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian i64 (two's complement).
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an f64 by bit pattern — non-finite values round-trip exactly.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a length-prefixed UTF-8 string (u32 length + bytes).
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends one [`Value`] as a tag byte plus its payload (same tag scheme as
/// the wire protocol: 0=Null 1=Int 2=Double 3=Text 4=Bool 5=Timestamp).
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(buf, 0),
        Value::Int(i) => {
            put_u8(buf, 1);
            put_i64(buf, *i);
        }
        Value::Double(d) => {
            put_u8(buf, 2);
            put_f64(buf, *d);
        }
        Value::Text(s) => {
            put_u8(buf, 3);
            put_str(buf, s);
        }
        Value::Bool(b) => {
            put_u8(buf, 4);
            put_u8(buf, u8::from(*b));
        }
        Value::Timestamp(t) => {
            put_u8(buf, 5);
            put_i64(buf, *t);
        }
    }
}

/// Appends one row (u16 value count + values).
pub fn put_row(buf: &mut Vec<u8>, row: &Row) {
    put_u16(buf, row.values.len() as u16);
    for v in &row.values {
        put_value(buf, v);
    }
}

fn put_data_type(buf: &mut Vec<u8>, ty: DataType) {
    put_u8(
        buf,
        match ty {
            DataType::Int => 0,
            DataType::Double => 1,
            DataType::Text => 2,
            DataType::Bool => 3,
            DataType::Timestamp => 4,
        },
    );
}

/// Appends a full table schema: name, columns, primary key, index defs.
pub fn put_schema(buf: &mut Vec<u8>, schema: &Schema) {
    put_str(buf, &schema.name);
    put_u16(buf, schema.columns.len() as u16);
    for col in &schema.columns {
        put_str(buf, &col.name);
        put_data_type(buf, col.ty);
        put_u8(buf, u8::from(col.not_null));
    }
    match &schema.primary_key {
        None => put_u8(buf, 0),
        Some(pk) => {
            put_u8(buf, 1);
            put_str(buf, pk);
        }
    }
    put_u16(buf, schema.indexes.len() as u16);
    for idx in &schema.indexes {
        put_str(buf, &idx.name);
        put_str(buf, &idx.column);
        put_u8(buf, u8::from(idx.unique));
    }
}

/// Appends a checkpoint table snapshot: schema plus every visible row.
pub fn put_snapshot(buf: &mut Vec<u8>, snap: &TableSnapshot) {
    put_schema(buf, &snap.schema);
    put_u64(buf, snap.rows.len() as u64);
    for (row_id, row) in &snap.rows {
        put_u64(buf, row_id.0);
        put_row(buf, row);
    }
}

/// Appends one logical [`LogRecord`] (kind tag + fields).
pub fn put_record(buf: &mut Vec<u8>, record: &LogRecord) {
    match record {
        LogRecord::Begin { txn } => {
            put_u8(buf, 1);
            put_u64(buf, txn.0);
        }
        LogRecord::Commit { txn } => {
            put_u8(buf, 2);
            put_u64(buf, txn.0);
        }
        LogRecord::Abort { txn } => {
            put_u8(buf, 3);
            put_u64(buf, txn.0);
        }
        LogRecord::CreateTable { txn, schema } => {
            put_u8(buf, 4);
            put_u64(buf, txn.0);
            put_schema(buf, schema);
        }
        LogRecord::DropTable { txn, table } => {
            put_u8(buf, 5);
            put_u64(buf, txn.0);
            put_str(buf, table);
        }
        LogRecord::Insert { txn, table, row_id, row } => {
            put_u8(buf, 6);
            put_u64(buf, txn.0);
            put_str(buf, table);
            put_u64(buf, row_id.0);
            put_row(buf, row);
        }
        LogRecord::Delete { txn, table, row_id } => {
            put_u8(buf, 7);
            put_u64(buf, txn.0);
            put_str(buf, table);
            put_u64(buf, row_id.0);
        }
        LogRecord::Update { txn, table, row_id, after } => {
            put_u8(buf, 8);
            put_u64(buf, txn.0);
            put_str(buf, table);
            put_u64(buf, row_id.0);
            put_row(buf, after);
        }
        LogRecord::Batch { txn, changes } => {
            put_u8(buf, 9);
            put_u64(buf, txn.0);
            put_u32(buf, changes.len() as u32);
            for change in changes {
                put_record(buf, change);
            }
        }
        LogRecord::Checkpoint { snapshot } => {
            put_u8(buf, 10);
            put_u32(buf, snapshot.len() as u32);
            for table in snapshot {
                put_snapshot(buf, table);
            }
        }
    }
}

// --- reading -----------------------------------------------------------------

/// A bounds-checked cursor over one decoded record payload.
///
/// Every accessor returns [`Error::Corruption`] instead of panicking when
/// the buffer is shorter than the encoding claims, and collection counts are
/// validated against the bytes actually remaining before anything is
/// allocated, so a damaged length prefix cannot force a huge allocation.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over one record payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::corruption(format!(
                "truncated record payload: wanted {n} more byte(s), {} remain",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian i64.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an f64 by bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(Error::corruption(format!(
                "truncated record payload: string claims {n} byte(s), {} remain",
                self.remaining()
            )));
        }
        std::str::from_utf8(self.take(n)?)
            .map_err(|e| Error::corruption(format!("record carries invalid UTF-8: {e}")))
    }

    /// Reads one [`Value`].
    pub fn value(&mut self) -> Result<Value> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.i64()?)),
            2 => Ok(Value::Double(self.f64()?)),
            3 => Ok(Value::Text(Arc::from(self.str()?))),
            4 => match self.u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                other => Err(Error::corruption(format!("invalid BOOL byte {other}"))),
            },
            5 => Ok(Value::Timestamp(self.i64()?)),
            tag => Err(Error::corruption(format!("unknown value tag {tag}"))),
        }
    }

    /// Reads one row, validating the value count against the bytes
    /// remaining before allocating.
    pub fn row(&mut self) -> Result<Row> {
        let n = self.u16()? as usize;
        if n > self.remaining() {
            return Err(Error::corruption(format!(
                "truncated record payload: row claims {n} value(s), {} byte(s) remain",
                self.remaining()
            )));
        }
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(self.value()?);
        }
        Ok(Row::new(values))
    }

    fn data_type(&mut self) -> Result<DataType> {
        match self.u8()? {
            0 => Ok(DataType::Int),
            1 => Ok(DataType::Double),
            2 => Ok(DataType::Text),
            3 => Ok(DataType::Bool),
            4 => Ok(DataType::Timestamp),
            tag => Err(Error::corruption(format!("unknown data type tag {tag}"))),
        }
    }

    fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Error::corruption(format!("invalid flag byte {other}"))),
        }
    }

    /// Reads one table schema.
    pub fn schema(&mut self) -> Result<Schema> {
        let name = self.str()?.to_string();
        let col_count = self.u16()? as usize;
        if col_count > self.remaining() {
            return Err(Error::corruption(format!(
                "schema claims {col_count} column(s), {} byte(s) remain",
                self.remaining()
            )));
        }
        let mut columns = Vec::with_capacity(col_count);
        for _ in 0..col_count {
            let col_name = self.str()?.to_string();
            let ty = self.data_type()?;
            let not_null = self.bool()?;
            columns.push(if not_null {
                Column::not_null(col_name, ty)
            } else {
                Column::new(col_name, ty)
            });
        }
        let primary_key = if self.bool()? { Some(self.str()?.to_string()) } else { None };
        let idx_count = self.u16()? as usize;
        if idx_count > self.remaining() {
            return Err(Error::corruption(format!(
                "schema claims {idx_count} index(es), {} byte(s) remain",
                self.remaining()
            )));
        }
        let mut indexes = Vec::with_capacity(idx_count);
        for _ in 0..idx_count {
            indexes.push(IndexDef {
                name: self.str()?.to_string(),
                column: self.str()?.to_string(),
                unique: self.bool()?,
            });
        }
        Ok(Schema { name, columns, primary_key, indexes })
    }

    /// Reads one checkpoint table snapshot.
    pub fn snapshot(&mut self) -> Result<TableSnapshot> {
        let schema = self.schema()?;
        let row_count = self.u64()?;
        if row_count > self.remaining() as u64 {
            return Err(Error::corruption(format!(
                "snapshot claims {row_count} row(s), {} byte(s) remain",
                self.remaining()
            )));
        }
        let mut rows = Vec::with_capacity(row_count as usize);
        for _ in 0..row_count {
            let row_id = RowId(self.u64()?);
            rows.push((row_id, self.row()?));
        }
        Ok(TableSnapshot { schema, rows })
    }

    /// Reads one logical [`LogRecord`].
    pub fn record(&mut self) -> Result<LogRecord> {
        self.record_at_depth(0)
    }

    fn record_at_depth(&mut self, depth: usize) -> Result<LogRecord> {
        if depth > MAX_BATCH_DEPTH {
            return Err(Error::corruption(format!(
                "batch records nested deeper than {MAX_BATCH_DEPTH}"
            )));
        }
        match self.u8()? {
            1 => Ok(LogRecord::Begin { txn: TxnId(self.u64()?) }),
            2 => Ok(LogRecord::Commit { txn: TxnId(self.u64()?) }),
            3 => Ok(LogRecord::Abort { txn: TxnId(self.u64()?) }),
            4 => Ok(LogRecord::CreateTable {
                txn: TxnId(self.u64()?),
                schema: self.schema()?,
            }),
            5 => Ok(LogRecord::DropTable {
                txn: TxnId(self.u64()?),
                table: self.str()?.into(),
            }),
            6 => Ok(LogRecord::Insert {
                txn: TxnId(self.u64()?),
                table: self.str()?.into(),
                row_id: RowId(self.u64()?),
                row: self.row()?,
            }),
            7 => Ok(LogRecord::Delete {
                txn: TxnId(self.u64()?),
                table: self.str()?.into(),
                row_id: RowId(self.u64()?),
            }),
            8 => Ok(LogRecord::Update {
                txn: TxnId(self.u64()?),
                table: self.str()?.into(),
                row_id: RowId(self.u64()?),
                after: self.row()?,
            }),
            9 => {
                let txn = TxnId(self.u64()?);
                let count = self.u32()? as usize;
                if count > self.remaining() {
                    return Err(Error::corruption(format!(
                        "batch claims {count} change(s), {} byte(s) remain",
                        self.remaining()
                    )));
                }
                let mut changes = Vec::with_capacity(count);
                for _ in 0..count {
                    changes.push(self.record_at_depth(depth + 1)?);
                }
                Ok(LogRecord::Batch { txn, changes })
            }
            10 => {
                let count = self.u32()? as usize;
                if count > self.remaining() {
                    return Err(Error::corruption(format!(
                        "checkpoint claims {count} table(s), {} byte(s) remain",
                        self.remaining()
                    )));
                }
                let mut snapshot = Vec::with_capacity(count);
                for _ in 0..count {
                    snapshot.push(self.snapshot()?);
                }
                Ok(LogRecord::Checkpoint { snapshot })
            }
            tag => Err(Error::corruption(format!("unknown record kind tag {tag}"))),
        }
    }

    /// Fails unless every payload byte was consumed — trailing garbage in a
    /// CRC-valid record still counts as corruption, never silently ignored.
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(Error::corruption(format!(
                "record payload carries {} unexpected trailing byte(s)",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn sample_schema() -> Schema {
        Schema::new(
            "jobs",
            vec![
                Column::new("job_id", DataType::Int),
                Column::not_null("owner", DataType::Text),
                Column::new("runtime", DataType::Double),
                Column::new("alive", DataType::Bool),
                Column::new("submitted", DataType::Timestamp),
            ],
        )
        .with_primary_key("job_id")
        .with_unique_index("owner")
    }

    fn sample_records() -> Vec<LogRecord> {
        let row = Row::new(vec![
            Value::Int(1),
            Value::Text("alice".into()),
            Value::Double(f64::NAN),
            Value::Bool(true),
            Value::Timestamp(-7),
        ]);
        vec![
            LogRecord::Begin { txn: TxnId(1) },
            LogRecord::CreateTable { txn: TxnId(1), schema: sample_schema() },
            LogRecord::Insert {
                txn: TxnId(1),
                table: "jobs".into(),
                row_id: RowId(1),
                row: row.clone(),
            },
            LogRecord::Update {
                txn: TxnId(1),
                table: "jobs".into(),
                row_id: RowId(1),
                after: Row::new(vec![Value::Null]),
            },
            LogRecord::Delete {
                txn: TxnId(1),
                table: "jobs".into(),
                row_id: RowId(1),
            },
            LogRecord::Batch {
                txn: TxnId(2),
                changes: vec![
                    LogRecord::Insert {
                        txn: TxnId(2),
                        table: "jobs".into(),
                        row_id: RowId(2),
                        row: Row::new(vec![Value::Int(2)]),
                    },
                    LogRecord::DropTable { txn: TxnId(2), table: "jobs".into() },
                ],
            },
            LogRecord::Checkpoint {
                snapshot: vec![TableSnapshot {
                    schema: sample_schema(),
                    rows: vec![(RowId(9), row)],
                }],
            },
            LogRecord::Commit { txn: TxnId(2) },
            LogRecord::Abort { txn: TxnId(3) },
        ]
    }

    #[test]
    fn every_record_kind_round_trips() {
        for record in sample_records() {
            let mut buf = Vec::new();
            put_record(&mut buf, &record);
            let mut r = Reader::new(&buf);
            let decoded = r.record().unwrap();
            r.expect_end().unwrap();
            // LogRecord has no PartialEq (rows hold NaN doubles); compare the
            // re-encoding instead, which is bit-exact.
            let mut buf2 = Vec::new();
            put_record(&mut buf2, &decoded);
            assert_eq!(buf, buf2, "re-encode differs for {record:?}");
        }
    }

    #[test]
    fn every_strict_prefix_errors_cleanly() {
        for record in sample_records() {
            let mut buf = Vec::new();
            put_record(&mut buf, &record);
            for cut in 0..buf.len() {
                let err = Reader::new(&buf[..cut]).record().unwrap_err();
                assert!(
                    matches!(err, Error::Corruption(_)),
                    "prefix {cut} of {record:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn hostile_tags_and_counts_error_cleanly() {
        // Unknown record kind.
        assert!(Reader::new(&[0u8]).record().is_err());
        assert!(Reader::new(&[42u8]).record().is_err());
        // A batch count far larger than the remaining bytes is rejected
        // before any allocation happens.
        let mut buf = Vec::new();
        put_u8(&mut buf, 9);
        put_u64(&mut buf, 1);
        put_u32(&mut buf, u32::MAX);
        assert!(Reader::new(&buf).record().is_err());
        // Deeply nested batches hit the depth cap instead of the stack.
        let mut buf = Vec::new();
        for _ in 0..64 {
            put_u8(&mut buf, 9);
            put_u64(&mut buf, 1);
            put_u32(&mut buf, 1);
        }
        put_u8(&mut buf, 2);
        put_u64(&mut buf, 1);
        let err = Reader::new(&buf).record().unwrap_err();
        assert!(err.to_string().contains("nested"), "{err}");
        // Trailing bytes after a valid record are corruption.
        let mut buf = Vec::new();
        put_record(&mut buf, &LogRecord::Commit { txn: TxnId(1) });
        put_u8(&mut buf, 0);
        let mut r = Reader::new(&buf);
        r.record().unwrap();
        assert!(r.expect_end().is_err());
    }
}
