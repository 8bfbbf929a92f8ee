//! The engine's one binary codec: hand-rolled, serde-free.
//!
//! Little-endian fixed-width integers and length-prefixed strings appended
//! to a `Vec<u8>`, read back through a bounds-checked [`Reader`]. Both byte
//! formats the system has are written with it: the payload of a WAL record
//! (this module's `put_record` / [`Reader::record`]) and the frames of the
//! `wire` protocol, which builds on the primitives, [`put_value`] and
//! [`put_row`] here and supplies only its own error. Decoding **never
//! panics**: a truncated buffer, an oversized length prefix or an unknown
//! tag surfaces as the error the reader was built with —
//! [`Error::Corruption`] for a log payload ([`Reader::new`]). (The record
//! framing in [`super::record`] decides whether damage is a repairable torn
//! tail or hard corruption; by the time payload decoding runs, the payload
//! has already passed its CRC, so any decode failure here is corruption.)
//!
//! The primitives are `#[inline]` because `wire` calls them per value from
//! another crate, where they would otherwise be real calls.

use crate::error::{Error, Result};
use crate::schema::{Column, IndexDef, Schema};
use crate::tuple::{Row, RowId};
use crate::value::{DataType, Value};
use crate::wal::{Change, LogRecord, TableSnapshot};
use std::sync::Arc;

// --- writing -----------------------------------------------------------------

/// Appends one byte.
#[inline]
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian u16.
#[inline]
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian u32.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian u64.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian i64 (two's complement).
#[inline]
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an f64 by bit pattern — non-finite values round-trip exactly.
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a length-prefixed UTF-8 string (u32 length + bytes).
#[inline]
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends one [`Value`] as a tag byte plus its payload (same tag scheme as
/// the wire protocol: 0=Null 1=Int 2=Double 3=Text 4=Bool 5=Timestamp).
#[inline]
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

/// Appends a value list (u16 count + values).
#[inline]
pub fn put_values(buf: &mut Vec<u8>, values: &[Value]) {
    put_u16(buf, values.len() as u16);
    for v in values {
        put_value(buf, v);
    }
}

/// Appends one row: its values, u16-counted.
#[inline]
pub fn put_row(buf: &mut Vec<u8>, row: &Row) {
    put_values(buf, &row.values);
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
        put_index_def(buf, idx);
    }
}

fn put_index_def(buf: &mut Vec<u8>, idx: &IndexDef) {
    put_str(buf, &idx.name);
    put_str(buf, &idx.column);
    put_u8(buf, u8::from(idx.unique));
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

/// Appends one [`Change`] (kind tag + fields). A `DropTable` is its table's
/// name: the removed table the in-memory change holds is rollback's, not
/// replay's.
pub(crate) fn put_change(buf: &mut Vec<u8>, change: &Change) {
    match change {
        Change::CreateTable { schema } => {
            put_u8(buf, 1);
            put_schema(buf, schema);
        }
        Change::DropTable { table, .. } => {
            put_u8(buf, 2);
            put_str(buf, table);
        }
        Change::CreateIndex { table, def } => {
            put_u8(buf, 3);
            put_str(buf, table);
            put_index_def(buf, def);
        }
        Change::Insert { table, row_id, row } => {
            put_u8(buf, 4);
            put_str(buf, table);
            put_u64(buf, row_id.0);
            put_row(buf, row);
        }
        Change::Delete { table, row_id } => {
            put_u8(buf, 5);
            put_str(buf, table);
            put_u64(buf, row_id.0);
        }
        Change::Update { table, row_id, after } => {
            put_u8(buf, 6);
            put_str(buf, table);
            put_u64(buf, row_id.0);
            put_row(buf, after);
        }
    }
}

/// Appends a committed transaction: record kind tag, change count, changes.
pub(crate) fn put_txn(buf: &mut Vec<u8>, changes: &[Change]) {
    put_u8(buf, 1);
    put_u32(buf, changes.len() as u32);
    for change in changes {
        put_change(buf, change);
    }
}

/// Appends one logical [`LogRecord`] (kind tag + fields).
pub fn put_record(buf: &mut Vec<u8>, record: &LogRecord) {
    match record {
        LogRecord::Txn { changes } => put_txn(buf, changes),
        LogRecord::Checkpoint { snapshot } => {
            put_u8(buf, 2);
            put_u32(buf, snapshot.len() as u32);
            for table in snapshot {
                put_snapshot(buf, table);
            }
        }
    }
}

// --- reading -----------------------------------------------------------------

/// A bounds-checked cursor over one received payload.
///
/// Every accessor returns the reader's own error instead of panicking when
/// the buffer is shorter than the encoding claims, and collection counts are
/// validated against the bytes actually remaining before anything is
/// allocated, so a damaged or hostile length prefix cannot force a huge
/// allocation. What the error is belongs to the caller's format — a log
/// payload that does not decode is [`Error::Corruption`], a wire frame that
/// does not is `Error::Net` — so the reader carries its constructor.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// What is being read, for messages: "record payload", "frame".
    what: &'static str,
    fail: fn(String) -> Error,
}

impl<'a> Reader<'a> {
    /// Creates a reader over one WAL record payload; its failures are
    /// [`Error::Corruption`].
    pub fn new(buf: &'a [u8]) -> Self {
        Reader::over(buf, "record payload", Error::Corruption)
    }

    /// Creates a reader over `buf`, a `what`, whose failures are built by
    /// `fail`.
    #[inline]
    pub fn over(buf: &'a [u8], what: &'static str, fail: fn(String) -> Error) -> Self {
        Reader { buf, pos: 0, what, fail }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.truncated(format_args!("wanted {n} more byte(s)")));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// The error for an encoding that claims more than the buffer holds.
    fn truncated(&self, claim: std::fmt::Arguments<'_>) -> Error {
        (self.fail)(format!(
            "truncated {}: {claim}, {} byte(s) remain",
            self.what,
            self.remaining()
        ))
    }

    /// Checks a decoded collection count against the bytes that remain
    /// (every element takes at least one), so the caller allocates only for
    /// a count the buffer could hold.
    #[inline]
    fn count(&mut self, n: u64, of: &str) -> Result<usize> {
        if n > self.remaining() as u64 {
            return Err(self.truncated(format_args!("{of} claims {n} element(s)")));
        }
        Ok(n as usize)
    }

    #[inline]
    fn fixed<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    #[inline]
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.fixed()?))
    }

    /// Reads a little-endian u32.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.fixed()?))
    }

    /// Reads a little-endian u64.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.fixed()?))
    }

    /// Reads a little-endian i64.
    #[inline]
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.fixed()?))
    }

    /// Reads an f64 by bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(self.truncated(format_args!("string claims {n} byte(s)")));
        }
        std::str::from_utf8(self.take(n)?)
            .map_err(|e| (self.fail)(format!("{} carries invalid UTF-8: {e}", self.what)))
    }

    /// Reads one [`Value`].
    #[inline]
    pub fn value(&mut self) -> Result<Value> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.i64()?)),
            2 => Ok(Value::Double(self.f64()?)),
            3 => Ok(Value::Text(Arc::from(self.str()?))),
            4 => Ok(Value::Bool(self.bool("BOOL")?)),
            5 => Ok(Value::Timestamp(self.i64()?)),
            tag => Err((self.fail)(format!("unknown value tag {tag}"))),
        }
    }

    /// Reads a u16-counted value list, validating the count against the
    /// bytes remaining before allocating.
    #[inline]
    pub fn values(&mut self) -> Result<Vec<Value>> {
        let n = self.u16()?;
        let n = self.count(n.into(), "value list")?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(self.value()?);
        }
        Ok(values)
    }

    /// Reads one row.
    #[inline]
    pub fn row(&mut self) -> Result<Row> {
        Ok(Row::new(self.values()?))
    }

    fn data_type(&mut self) -> Result<DataType> {
        match self.u8()? {
            0 => Ok(DataType::Int),
            1 => Ok(DataType::Double),
            2 => Ok(DataType::Text),
            3 => Ok(DataType::Bool),
            4 => Ok(DataType::Timestamp),
            tag => Err((self.fail)(format!("unknown data type tag {tag}"))),
        }
    }

    #[inline]
    fn bool(&mut self, of: &str) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err((self.fail)(format!("invalid {of} byte {other}"))),
        }
    }

    /// Reads one table schema.
    pub fn schema(&mut self) -> Result<Schema> {
        let name = self.str()?.to_string();
        let col_count = self.u16()?;
        let col_count = self.count(col_count.into(), "schema column list")?;
        let mut columns = Vec::with_capacity(col_count);
        for _ in 0..col_count {
            let col_name = self.str()?.to_string();
            let ty = self.data_type()?;
            let not_null = self.bool("flag")?;
            columns.push(if not_null {
                Column::not_null(col_name, ty)
            } else {
                Column::new(col_name, ty)
            });
        }
        let primary_key = if self.bool("flag")? { Some(self.str()?.to_string()) } else { None };
        let idx_count = self.u16()?;
        let idx_count = self.count(idx_count.into(), "schema index list")?;
        let mut indexes = Vec::with_capacity(idx_count);
        for _ in 0..idx_count {
            indexes.push(self.index_def()?);
        }
        Ok(Schema { name, columns, primary_key, indexes })
    }

    fn index_def(&mut self) -> Result<IndexDef> {
        Ok(IndexDef {
            name: self.str()?.to_string(),
            column: self.str()?.to_string(),
            unique: self.bool("flag")?,
        })
    }

    /// Reads one checkpoint table snapshot.
    pub fn snapshot(&mut self) -> Result<TableSnapshot> {
        let schema = self.schema()?;
        let row_count = self.u64()?;
        let row_count = self.count(row_count, "snapshot")?;
        let mut rows = Vec::with_capacity(row_count);
        for _ in 0..row_count {
            let row_id = RowId(self.u64()?);
            rows.push((row_id, self.row()?));
        }
        Ok(TableSnapshot { schema, rows })
    }

    /// Reads one [`Change`]. A decoded `DropTable` holds no table: replay
    /// needs the name alone.
    pub(crate) fn change(&mut self) -> Result<Change> {
        match self.u8()? {
            1 => Ok(Change::CreateTable { schema: self.schema()? }),
            2 => Ok(Change::DropTable { table: self.str()?.into(), dropped: None }),
            3 => Ok(Change::CreateIndex { table: self.str()?.into(), def: self.index_def()? }),
            4 => Ok(Change::Insert {
                table: self.str()?.into(),
                row_id: RowId(self.u64()?),
                row: self.row()?,
            }),
            5 => Ok(Change::Delete { table: self.str()?.into(), row_id: RowId(self.u64()?) }),
            6 => Ok(Change::Update {
                table: self.str()?.into(),
                row_id: RowId(self.u64()?),
                after: self.row()?,
            }),
            tag => Err((self.fail)(format!("unknown change kind tag {tag}"))),
        }
    }

    /// Reads one logical [`LogRecord`].
    pub fn record(&mut self) -> Result<LogRecord> {
        match self.u8()? {
            1 => {
                let count = self.u32()?;
                let count = self.count(count.into(), "transaction")?;
                let mut changes = Vec::with_capacity(count);
                for _ in 0..count {
                    changes.push(self.change()?);
                }
                Ok(LogRecord::Txn { changes })
            }
            2 => {
                let count = self.u32()?;
                let count = self.count(count.into(), "checkpoint")?;
                let mut snapshot = Vec::with_capacity(count);
                for _ in 0..count {
                    snapshot.push(self.snapshot()?);
                }
                Ok(LogRecord::Checkpoint { snapshot })
            }
            tag => Err((self.fail)(format!("unknown record kind tag {tag}"))),
        }
    }

    /// Fails unless every byte was consumed — trailing garbage after a valid
    /// encoding is an error, never silently ignored.
    #[inline]
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err((self.fail)(format!(
                "{} carries {} unexpected trailing byte(s)",
                self.what,
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

    /// A transaction holding one change of every kind, and a checkpoint.
    fn sample_records() -> Vec<LogRecord> {
        let row = Row::new(vec![
            Value::Int(1),
            Value::Text("alice".into()),
            Value::Double(f64::NAN),
            Value::Bool(true),
            Value::Timestamp(-7),
        ]);
        let unique = sample_schema().indexes[0].clone();
        vec![
            LogRecord::Txn {
                changes: vec![
                    Change::CreateTable { schema: sample_schema() },
                    Change::CreateIndex { table: "jobs".into(), def: unique },
                    Change::Insert { table: "jobs".into(), row_id: RowId(1), row: row.clone() },
                    Change::Update {
                        table: "jobs".into(),
                        row_id: RowId(1),
                        after: Row::new(vec![Value::Null]),
                    },
                    Change::Delete { table: "jobs".into(), row_id: RowId(1) },
                    Change::DropTable { table: "jobs".into(), dropped: None },
                ],
            },
            LogRecord::Txn { changes: Vec::new() },
            LogRecord::Checkpoint {
                snapshot: vec![TableSnapshot { schema: sample_schema(), rows: vec![(RowId(9), row)] }],
            },
        ]
    }

    fn encoded(record: &LogRecord) -> Vec<u8> {
        let mut buf = Vec::new();
        put_record(&mut buf, record);
        buf
    }

    #[test]
    fn every_record_kind_round_trips() {
        for record in sample_records() {
            let buf = encoded(&record);
            let mut r = Reader::new(&buf);
            let decoded = r.record().unwrap();
            r.expect_end().unwrap();
            // LogRecord has no PartialEq (rows hold NaN doubles); compare the
            // re-encoding instead, which is bit-exact.
            assert_eq!(buf, encoded(&decoded), "re-encode differs for {record:?}");
            if let (LogRecord::Txn { changes }, LogRecord::Txn { changes: back }) = (&record, &decoded) {
                let kinds = |cs: &[Change]| cs.iter().map(std::mem::discriminant).collect::<Vec<_>>();
                assert_eq!(kinds(changes), kinds(back));
            }
        }
    }

    #[test]
    fn a_dropped_table_is_encoded_by_name_alone() {
        let table = crate::table::Table::new(sample_schema()).unwrap();
        let with = |dropped| LogRecord::Txn {
            changes: vec![Change::DropTable { table: "jobs".into(), dropped }],
        };
        assert_eq!(encoded(&with(Some(Box::new(table)))), encoded(&with(None)));
    }

    #[test]
    fn every_strict_prefix_errors_cleanly() {
        for record in sample_records() {
            let buf = encoded(&record);
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
        // Unknown record kind, unknown change kind.
        assert!(Reader::new(&[0u8]).record().is_err());
        assert!(Reader::new(&[42u8]).record().is_err());
        assert!(Reader::new(&[1u8, 1, 0, 0, 0, 9]).record().is_err());
        // A change count far larger than the remaining bytes is rejected
        // before any allocation happens.
        let mut buf = Vec::new();
        put_u8(&mut buf, 1);
        put_u32(&mut buf, u32::MAX);
        let err = Reader::new(&buf).record().unwrap_err();
        assert!(err.to_string().contains("transaction claims 4294967295"), "{err}");
        // Trailing bytes after a valid record are corruption.
        let mut buf = encoded(&LogRecord::Txn { changes: Vec::new() });
        put_u8(&mut buf, 0);
        let mut r = Reader::new(&buf);
        r.record().unwrap();
        assert!(matches!(r.expect_end(), Err(Error::Corruption(_))));
    }

    #[test]
    fn a_reader_fails_with_the_error_it_was_built_with() {
        let mut buf = Vec::new();
        put_values(&mut buf, &[Value::Int(7), Value::Text("x".into())]);
        let mut r = Reader::over(&buf, "frame", Error::Net);
        assert_eq!(r.values().unwrap().len(), 2);
        r.expect_end().unwrap();
        for cut in 0..buf.len() {
            let err = Reader::over(&buf[..cut], "frame", Error::Net).values().unwrap_err();
            assert!(matches!(&err, Error::Net(m) if m.contains("frame")), "prefix {cut}: {err}");
        }
    }
}
