//! Low-level binary encoding of frames: the engine's codec, with this
//! protocol's error.
//!
//! Like the WAL, the protocol avoids any serialization framework: every
//! frame is written by appending little-endian fixed-width integers and
//! length-prefixed byte strings to a `Vec<u8>`, and read back through a
//! bounds-checked [`Reader`]. The writers and the cursor are
//! [`relstore::io::codec`]'s — one implementation for the log and the wire,
//! the same bytes as ever on both — and what this module adds is the frame
//! bound and a [`Reader`] whose failures are [`Error::Net`]: decoding
//! untrusted input **never panics**, and a truncated buffer, an oversized
//! length prefix or an unknown tag is a clean protocol error.

pub use relstore::io::codec::{
    put_f64, put_i64, put_row, put_str, put_u16, put_u32, put_u64, put_u8, put_value, put_values,
};
use relstore::Error;

/// Hard upper bound on a single frame's payload, applied on both encode
/// (before writing to the socket) and decode (before allocating). Large
/// results stream as row pages well below this.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// A bounds-checked cursor over a received frame payload: the engine's
/// reader, failing with [`Error::Net`].
#[derive(Debug)]
pub struct Reader<'a>(relstore::io::codec::Reader<'a>);

impl<'a> Reader<'a> {
    /// Creates a reader over one frame payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader(relstore::io::codec::Reader::over(buf, "frame", Error::Net))
    }
}

impl<'a> std::ops::Deref for Reader<'a> {
    type Target = relstore::io::codec::Reader<'a>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl std::ops::DerefMut for Reader<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::Value;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u16(&mut buf, 300);
        put_u32(&mut buf, 70_000);
        put_u64(&mut buf, u64::MAX);
        put_i64(&mut buf, -42);
        put_f64(&mut buf, -0.5);
        put_str(&mut buf, "héllo\0world");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), -0.5);
        assert_eq!(r.str().unwrap(), "héllo\0world");
        r.expect_end().unwrap();
    }

    #[test]
    fn values_round_trip_including_non_finite_floats() {
        let values = vec![
            Value::Null,
            Value::Int(i64::MIN),
            Value::Double(f64::NAN),
            Value::Double(f64::NEG_INFINITY),
            Value::Text("".into()),
            Value::Text("a\0b".into()),
            Value::Bool(true),
            Value::Timestamp(-1),
        ];
        let mut buf = Vec::new();
        put_values(&mut buf, &values);
        let decoded = Reader::new(&buf).values().unwrap();
        assert_eq!(decoded.len(), values.len());
        for (d, v) in decoded.iter().zip(&values) {
            match (d, v) {
                (Value::Double(a), Value::Double(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "doubles round-trip bit-exactly")
                }
                _ => assert_eq!(d, v),
            }
        }
    }

    #[test]
    fn truncation_and_bad_tags_error_cleanly() {
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::Text("abcdef".into()));
        // Every strict prefix fails with Error::Net, never a panic.
        for cut in 0..buf.len() {
            let err = Reader::new(&buf[..cut]).value().unwrap_err();
            assert!(matches!(err, Error::Net(_)), "prefix {cut}: {err}");
        }
        // Unknown tag.
        assert!(Reader::new(&[9u8]).value().is_err());
        // Invalid bool payload.
        assert!(Reader::new(&[4u8, 2]).value().is_err());
        // A value-list count larger than the remaining bytes is rejected
        // before any allocation happens.
        let mut buf = Vec::new();
        put_u16(&mut buf, u16::MAX);
        assert!(Reader::new(&buf).values().is_err());
        // Invalid UTF-8 in a string payload.
        let mut buf = Vec::new();
        put_u8(&mut buf, 3);
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(Reader::new(&buf).value().is_err());
        // Trailing bytes are a protocol error.
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::Int(1));
        put_u8(&mut buf, 0);
        let mut r = Reader::new(&buf);
        r.value().unwrap();
        assert!(r.expect_end().is_err());
    }
}
