//! The framed request/response protocol shared by server and client.
//!
//! Every message is one *frame*: a little-endian u32 payload length followed
//! by the payload, whose first byte is the opcode. Payloads are encoded with
//! the [`crate::codec`] primitives. A connection starts with a versioned
//! handshake (magic + protocol version from the client, a status byte back
//! from the server), after which the client sends [`Request`] frames and the
//! server answers each with one or more [`Response`] frames.
//!
//! Version 3 has five requests: [`Request::Prepare`], [`Request::Execute`],
//! [`Request::ExecuteBatch`], [`Request::QueryBatch`] and
//! [`Request::CloseStmt`]. A connection is a [`relstore::Session`], so a
//! query is an `Execute` of a SELECT and transaction control is an `Execute`
//! of `BEGIN` / `COMMIT` / `ROLLBACK`; the opcodes version 2 spent on those
//! (3, 6, 7 and 8) decode as unknown.
//!
//! * most requests produce exactly one response;
//! * a query produces a [`Response::RowsHeader`] followed by one or more
//!   [`Response::RowPage`]s (the last one marked), so large results stream
//!   in bounded frames;
//! * a [`Request::QueryBatch`] produces a [`Response::BatchHeader`] followed
//!   by one streamed result per binding, in binding order;
//! * any failure produces a single [`Response::Err`] frame carrying the
//!   engine's [`Error`] variant **and** its [`ErrorClass`], so a remote
//!   caller can branch on [`Error::is_retryable`] exactly like an embedded
//!   one (a write-write conflict stays retryable across the wire).
//!
//! A frame is always its prefix and its payload, but frames are not written
//! one by one: [`frame_into`] appends a frame to a buffer and back-patches
//! its prefix, and [`write_outcome`] encodes a request's whole reply —
//! header, row pages, every result of a batch — into one buffer and sends
//! it with one write (large results in writes of [`REPLY_FLUSH_BYTES`]).
//! The bytes on the wire are exactly those of one [`write_frame`] per
//! frame; only the number of writes — and of TCP segments, since both ends
//! set `TCP_NODELAY` — changes.

use crate::codec::{self, Reader, MAX_FRAME};
use relstore::{Error, ErrorClass, QueryResult, Result, Row, TimeoutKind, Value};
use std::io::{Read, Write};

/// The four magic bytes opening every handshake.
pub const MAGIC: [u8; 4] = *b"RSTW";

/// Protocol version spoken by this build. A server refuses a client whose
/// version differs (the protocol has no negotiation yet — versions are
/// expected to move in lockstep within one deployment).
///
/// Version 2 added the optional per-statement deadline to the
/// statement-carrying requests and the `Timeout` / `ResourceExhausted`
/// error tags; version 3 dropped the `Query`, `Begin`, `Commit` and
/// `Rollback` requests, which were each an [`Request::Execute`].
pub const VERSION: u16 = 3;

/// A statement reference in a request: raw SQL text (resolved through the
/// server's statement cache) or a handle returned by a prior
/// [`Request::Prepare`] on the same connection.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtRef {
    /// SQL text, parsed (or cache-hit) server-side.
    Sql(String),
    /// A prepared-statement handle, valid only on the connection that
    /// prepared it.
    Id(u32),
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Parse a statement and return a per-connection handle for it.
    Prepare {
        /// The SQL text, which may contain `?` placeholders.
        sql: String,
    },
    /// Execute any statement (DML, DDL, SELECT, or transaction control)
    /// through the connection's session.
    Execute {
        /// The statement to run.
        stmt: StmtRef,
        /// Positional parameter bindings.
        params: Vec<Value>,
        /// Client-requested statement deadline in milliseconds; the server
        /// enforces the *minimum* of this and its own configured default.
        deadline_ms: Option<u32>,
    },
    /// Execute a prepared DML statement once per binding under one catalog
    /// guard and one WAL append (see [`relstore::Session::execute_batch`]).
    ExecuteBatch {
        /// The statement to run.
        stmt: StmtRef,
        /// One positional binding list per execution.
        bindings: Vec<Vec<Value>>,
        /// Client-requested deadline for the whole batch in milliseconds.
        deadline_ms: Option<u32>,
    },
    /// Execute a prepared SELECT once per binding under one shared guard,
    /// one snapshot and one governor (see [`relstore::Session::query_batch`]).
    QueryBatch {
        /// The statement to run.
        stmt: StmtRef,
        /// One positional binding list per execution.
        bindings: Vec<Vec<Value>>,
        /// Client-requested deadline for the whole batch in milliseconds.
        deadline_ms: Option<u32>,
    },
    /// Drop a prepared-statement handle.
    CloseStmt {
        /// The handle to drop.
        id: u32,
    },
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A statement was prepared.
    Prepared {
        /// The per-connection handle.
        id: u32,
        /// Number of `?` placeholders the statement expects.
        params: u16,
    },
    /// A DML statement affected this many rows.
    Affected(u64),
    /// A DDL or transaction-control statement completed. `txn_open` is the
    /// connection's transaction state *after* the request — the server is
    /// authoritative, so the client never has to guess whether a statement
    /// (SQL-text `BEGIN;`, a prepared `COMMIT` handle, ...) changed it.
    Ack {
        /// True when a transaction is open on the connection.
        txn_open: bool,
    },
    /// A query started streaming: its output column names, in projection
    /// order. Followed by [`Response::RowPage`] frames.
    RowsHeader {
        /// Output column names.
        columns: Vec<String>,
    },
    /// One page of result rows. `last` marks the final page of the result.
    RowPage {
        /// The rows of this page.
        rows: Vec<Row>,
        /// True on the result's final page.
        last: bool,
    },
    /// A query batch started: `count` streamed results follow.
    BatchHeader {
        /// Number of results (one per binding).
        count: u32,
    },
    /// The request failed; the connection remains usable.
    Err(Error),
}

// --- error transport ---------------------------------------------------------

fn error_variant(e: &Error) -> (u8, &str) {
    match e {
        Error::NotFound(s) => (0, s),
        Error::AlreadyExists(s) => (1, s),
        Error::Type(s) => (2, s),
        Error::Parse(s) => (3, s),
        Error::Constraint(s) => (4, s),
        Error::LockConflict(s) => (5, s),
        Error::Busy(s) => (6, s),
        Error::TxnClosed(s) => (7, s),
        Error::Wal(s) => (8, s),
        Error::Net(s) => (9, s),
        Error::Internal(s) => (10, s),
        Error::Io(s) => (11, s),
        Error::Corruption(s) => (12, s),
        // Both timeout kinds share tag 13; the class byte disambiguates
        // (LockWait is Retryable, Statement is Logic), so the kind is
        // reconstructed without a second discriminant on the wire.
        Error::Timeout { msg, .. } => (13, msg),
        Error::ResourceExhausted(s) => (14, s),
    }
}

fn class_byte(class: ErrorClass) -> u8 {
    match class {
        ErrorClass::Retryable => 0,
        ErrorClass::Logic => 1,
        ErrorClass::Constraint => 2,
        ErrorClass::Internal => 3,
    }
}

fn put_error(buf: &mut Vec<u8>, e: &Error) {
    let (tag, msg) = error_variant(e);
    codec::put_u8(buf, tag);
    codec::put_u8(buf, class_byte(e.class()));
    codec::put_str(buf, msg);
}

fn get_error(r: &mut Reader<'_>) -> Result<Error> {
    let tag = r.u8()?;
    let class = r.u8()?;
    let msg = r.str()?.to_string();
    Ok(match tag {
        0 => Error::NotFound(msg),
        1 => Error::AlreadyExists(msg),
        2 => Error::Type(msg),
        3 => Error::Parse(msg),
        4 => Error::Constraint(msg),
        5 => Error::LockConflict(msg),
        6 => Error::Busy(msg),
        7 => Error::TxnClosed(msg),
        8 => Error::Wal(msg),
        9 => Error::Net(msg),
        10 => Error::Internal(msg),
        11 => Error::Io(msg),
        12 => Error::Corruption(msg),
        13 => Error::Timeout {
            kind: if class == 0 {
                TimeoutKind::LockWait
            } else {
                TimeoutKind::Statement
            },
            msg,
        },
        14 => Error::ResourceExhausted(msg),
        // A variant from a newer peer: fall back on the transported class so
        // at least retryability survives.
        _ => match class {
            0 => Error::Busy(msg),
            1 => Error::Type(msg),
            2 => Error::Constraint(msg),
            _ => Error::Internal(msg),
        },
    })
}

// --- statement references ----------------------------------------------------

fn put_stmt(buf: &mut Vec<u8>, stmt: &StmtRef) {
    match stmt {
        StmtRef::Sql(sql) => {
            codec::put_u8(buf, 0);
            codec::put_str(buf, sql);
        }
        StmtRef::Id(id) => {
            codec::put_u8(buf, 1);
            codec::put_u32(buf, *id);
        }
    }
}

fn get_stmt(r: &mut Reader<'_>) -> Result<StmtRef> {
    match r.u8()? {
        0 => Ok(StmtRef::Sql(r.str()?.to_string())),
        1 => Ok(StmtRef::Id(r.u32()?)),
        tag => Err(Error::net(format!("unknown statement-ref tag {tag}"))),
    }
}

fn put_bindings(buf: &mut Vec<u8>, bindings: &[Vec<Value>]) {
    codec::put_u32(buf, bindings.len() as u32);
    for b in bindings {
        codec::put_values(buf, b);
    }
}

fn put_deadline(buf: &mut Vec<u8>, deadline_ms: Option<u32>) {
    match deadline_ms {
        Some(ms) => {
            codec::put_u8(buf, 1);
            codec::put_u32(buf, ms);
        }
        None => codec::put_u8(buf, 0),
    }
}

fn get_deadline(r: &mut Reader<'_>) -> Result<Option<u32>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u32()?)),
        b => Err(Error::net(format!("invalid deadline presence byte {b}"))),
    }
}

fn get_bindings(r: &mut Reader<'_>) -> Result<Vec<Vec<Value>>> {
    let n = r.u32()? as usize;
    // Each binding costs at least its 2-byte value count, so a hostile
    // count cannot force an allocation larger than the frame itself.
    if n > r.remaining() / 2 {
        return Err(Error::net(format!(
            "truncated frame: binding list claims {n} element(s), {} byte(s) remain",
            r.remaining()
        )));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.values()?);
    }
    Ok(out)
}

// --- request / response frames -----------------------------------------------

impl Request {
    /// Encodes the request as one frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the request's frame payload (opcode + body) to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Prepare { sql } => {
                codec::put_u8(buf, 1);
                codec::put_str(buf, sql);
            }
            Request::Execute {
                stmt,
                params,
                deadline_ms,
            } => {
                codec::put_u8(buf, 2);
                put_stmt(buf, stmt);
                codec::put_values(buf, params);
                put_deadline(buf, *deadline_ms);
            }
            Request::ExecuteBatch {
                stmt,
                bindings,
                deadline_ms,
            } => {
                codec::put_u8(buf, 4);
                put_stmt(buf, stmt);
                put_bindings(buf, bindings);
                put_deadline(buf, *deadline_ms);
            }
            Request::QueryBatch {
                stmt,
                bindings,
                deadline_ms,
            } => {
                codec::put_u8(buf, 5);
                put_stmt(buf, stmt);
                put_bindings(buf, bindings);
                put_deadline(buf, *deadline_ms);
            }
            Request::CloseStmt { id } => {
                codec::put_u8(buf, 9);
                codec::put_u32(buf, *id);
            }
        }
    }

    /// Decodes one frame payload into a request.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            1 => Request::Prepare {
                sql: r.str()?.to_string(),
            },
            2 => Request::Execute {
                stmt: get_stmt(&mut r)?,
                params: r.values()?,
                deadline_ms: get_deadline(&mut r)?,
            },
            4 => Request::ExecuteBatch {
                stmt: get_stmt(&mut r)?,
                bindings: get_bindings(&mut r)?,
                deadline_ms: get_deadline(&mut r)?,
            },
            5 => Request::QueryBatch {
                stmt: get_stmt(&mut r)?,
                bindings: get_bindings(&mut r)?,
                deadline_ms: get_deadline(&mut r)?,
            },
            9 => Request::CloseStmt { id: r.u32()? },
            op => return Err(Error::net(format!("unknown request opcode {op}"))),
        };
        r.expect_end()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the response as one frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the response's frame payload (opcode + body) to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Prepared { id, params } => {
                codec::put_u8(buf, 1);
                codec::put_u32(buf, *id);
                codec::put_u16(buf, *params);
            }
            Response::Affected(n) => {
                codec::put_u8(buf, 2);
                codec::put_u64(buf, *n);
            }
            Response::Ack { txn_open } => {
                codec::put_u8(buf, 3);
                codec::put_u8(buf, u8::from(*txn_open));
            }
            Response::RowsHeader { columns } => encode_rows_header_into(buf, columns),
            Response::RowPage { rows, last } => encode_row_page_into(buf, rows, *last),
            Response::BatchHeader { count } => {
                codec::put_u8(buf, 6);
                codec::put_u32(buf, *count);
            }
            Response::Err(e) => {
                codec::put_u8(buf, 7);
                put_error(buf, e);
            }
        }
    }

    /// Decodes one frame payload into a response.
    pub fn decode(payload: &[u8]) -> Result<Response> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            1 => Response::Prepared {
                id: r.u32()?,
                params: r.u16()?,
            },
            2 => Response::Affected(r.u64()?),
            3 => Response::Ack {
                txn_open: match r.u8()? {
                    0 => false,
                    1 => true,
                    b => return Err(Error::net(format!("invalid txn-open byte {b}"))),
                },
            },
            4 => {
                let n = r.u16()? as usize;
                // Each column name costs at least its 4-byte length prefix,
                // so a hostile count cannot amplify the allocation.
                if n > r.remaining() / 4 {
                    return Err(Error::net(format!(
                        "truncated frame: header claims {n} column(s), {} byte(s) remain",
                        r.remaining()
                    )));
                }
                let mut columns = Vec::with_capacity(n);
                for _ in 0..n {
                    columns.push(r.str()?.to_string());
                }
                Response::RowsHeader { columns }
            }
            5 => {
                let last = match r.u8()? {
                    0 => false,
                    1 => true,
                    b => return Err(Error::net(format!("invalid last-page byte {b}"))),
                };
                let n = r.u32()? as usize;
                // A row costs at least its 2-byte value count: bound the
                // pre-allocation by the bytes actually present.
                if n > r.remaining() / 2 {
                    return Err(Error::net(format!(
                        "truncated frame: page claims {n} row(s), {} byte(s) remain",
                        r.remaining()
                    )));
                }
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(r.row()?);
                }
                Response::RowPage { rows, last }
            }
            6 => Response::BatchHeader { count: r.u32()? },
            7 => Response::Err(get_error(&mut r)?),
            op => return Err(Error::net(format!("unknown response opcode {op}"))),
        };
        r.expect_end()?;
        Ok(resp)
    }
}

/// Encodes a [`Response::RowPage`] frame payload from borrowed rows, so the
/// server can stream pages of a materialised result without cloning them.
pub fn encode_row_page(rows: &[Row], last: bool) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_row_page_into(&mut buf, rows, last);
    buf
}

/// Appends a [`Response::RowPage`] frame payload to `buf` (see
/// [`encode_row_page`]).
pub fn encode_row_page_into(buf: &mut Vec<u8>, rows: &[Row], last: bool) {
    codec::put_u8(buf, 5);
    codec::put_u8(buf, u8::from(last));
    codec::put_u32(buf, rows.len() as u32);
    for row in rows {
        codec::put_row(buf, row);
    }
}

/// Appends a [`Response::RowsHeader`] frame payload to `buf` from borrowed
/// column names — a result's `Arc<str>` columns go out without a copy.
fn encode_rows_header_into(buf: &mut Vec<u8>, columns: &[impl AsRef<str>]) {
    codec::put_u8(buf, 4);
    codec::put_u16(buf, columns.len() as u16);
    for c in columns {
        codec::put_str(buf, c.as_ref());
    }
}

/// Parses an already-read 6-byte client hello (magic + version).
pub fn client_version(hello: &[u8; 6]) -> Result<u16> {
    if hello[..4] != MAGIC {
        return Err(Error::net("peer did not speak the relstore wire protocol"));
    }
    Ok(u16::from_le_bytes([hello[4], hello[5]]))
}

// --- frame IO ----------------------------------------------------------------

/// Maps an IO failure onto the engine's error taxonomy.
pub(crate) fn io_err(e: std::io::Error) -> Error {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        Error::net("connection closed by peer")
    } else {
        Error::net(format!("io error: {e}"))
    }
}

/// Appends one frame to `out`: a length prefix, then the payload `encode`
/// appends, the prefix back-patched once the payload's size is known. An
/// empty or oversized payload is refused exactly as [`write_frame`] refuses
/// it, and `out` is truncated back to where it was. Returns the frame's
/// size in bytes.
pub fn frame_into(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> Result<u64> {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    encode(out);
    let len = out.len() - start - 4;
    if let Err(e) = sendable(len) {
        out.truncate(start);
        return Err(e);
    }
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(len as u64 + 4)
}

fn sendable(len: usize) -> Result<()> {
    if len == 0 || len > MAX_FRAME {
        return Err(Error::net(format!(
            "refusing to send a frame of {len} byte(s) (limit {MAX_FRAME})"
        )));
    }
    Ok(())
}

/// Writes one frame (length prefix + payload) with one `write_all`,
/// refusing oversized payloads before anything reaches the socket. Returns
/// the bytes written.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<u64> {
    sendable(payload.len())?;
    let mut frame = Vec::with_capacity(payload.len() + 4);
    let written = frame_into(&mut frame, |buf| buf.extend_from_slice(payload))?;
    w.write_all(&frame).map_err(io_err)?;
    w.flush().map_err(io_err)?;
    Ok(written)
}

/// The payload length a received prefix announces, refused when empty or
/// over [`MAX_FRAME`] — before anything is allocated for it.
pub(crate) fn announced_len(prefix: [u8; 4]) -> Result<usize> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(Error::net(format!(
            "peer announced a frame of {len} byte(s) (limit {MAX_FRAME})"
        )));
    }
    Ok(len)
}

/// Reads one frame payload, rejecting empty and oversized length prefixes
/// before allocating.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>> {
    let mut payload = Vec::new();
    read_frame_into(r, &mut payload)?;
    Ok(payload)
}

/// Reads one frame payload into `payload`, replacing its contents, so a
/// connection reuses one buffer for every frame it receives.
pub fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> Result<()> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix).map_err(io_err)?;
    let len = announced_len(prefix)?;
    payload.clear();
    payload.resize(len, 0);
    r.read_exact(payload).map_err(io_err)
}

// --- replies -----------------------------------------------------------------

/// How many encoded bytes a reply gathers before [`write_outcome`] sends
/// them: a large result leaves in writes of about this size, so the encode
/// buffer is bounded by this plus one page rather than by the result.
pub const REPLY_FLUSH_BYTES: usize = 64 * 1024;

/// What one request produces: a single response frame, a streamed query
/// result, or a streamed batch of results.
#[derive(Debug)]
pub enum Outcome {
    /// One response frame.
    One(Response),
    /// A [`Response::RowsHeader`] followed by the result's row pages.
    Rows(QueryResult),
    /// A [`Response::BatchHeader`] followed by one streamed result per
    /// binding, in binding order.
    Batch(Vec<QueryResult>),
}

/// Writes one request's outcome: the same bytes as one [`write_frame`] per
/// frame, but encoded into `out` and sent with a single `write_all` — or,
/// for a result larger than [`REPLY_FLUSH_BYTES`], one per that many bytes.
/// Query results are paged `page_rows` rows to a [`Response::RowPage`].
/// `out` is the connection's reused buffer: it is left empty, and shrunk
/// back to [`REPLY_FLUSH_BYTES`] if a huge page grew it. Returns the bytes
/// sent.
pub fn write_outcome(
    w: &mut impl Write,
    out: &mut Vec<u8>,
    outcome: &Outcome,
    page_rows: usize,
) -> Result<u64> {
    out.clear();
    let sent = encode_outcome(w, out, outcome, page_rows.max(1)).and_then(|sent| {
        send(w, out)?;
        w.flush().map_err(io_err)?;
        Ok(sent)
    });
    recycle(out);
    sent
}

/// Empties a connection's reused buffer, shrinking it back to
/// [`REPLY_FLUSH_BYTES`] if one huge frame grew it, so an idle connection
/// does not keep the memory of its largest frame.
pub(crate) fn recycle(buf: &mut Vec<u8>) {
    buf.clear();
    if buf.capacity() > REPLY_FLUSH_BYTES {
        buf.shrink_to(REPLY_FLUSH_BYTES);
    }
}

fn encode_outcome(
    w: &mut impl Write,
    out: &mut Vec<u8>,
    outcome: &Outcome,
    page_rows: usize,
) -> Result<u64> {
    match outcome {
        Outcome::One(resp) => frame_into(out, |buf| resp.encode_into(buf)),
        Outcome::Rows(q) => encode_query(w, out, q, page_rows),
        Outcome::Batch(results) => {
            let header = Response::BatchHeader {
                count: results.len() as u32,
            };
            let mut sent = frame_into(out, |buf| header.encode_into(buf))?;
            for q in results {
                sent += encode_query(w, out, q, page_rows)?;
            }
            Ok(sent)
        }
    }
}

/// Appends a result's header and pages (an empty result is one empty last
/// page), sending `out` whenever it passes [`REPLY_FLUSH_BYTES`].
fn encode_query(
    w: &mut impl Write,
    out: &mut Vec<u8>,
    q: &QueryResult,
    page_rows: usize,
) -> Result<u64> {
    let mut sent = frame_into(out, |buf| encode_rows_header_into(buf, &q.columns))?;
    let mut pages = q.rows.chunks(page_rows);
    let mut page = pages.next().unwrap_or(&[]);
    loop {
        let next = pages.next();
        sent += frame_into(out, |buf| encode_row_page_into(buf, page, next.is_none()))?;
        if out.len() >= REPLY_FLUSH_BYTES {
            send(w, out)?;
        }
        match next {
            Some(p) => page = p,
            None => return Ok(sent),
        }
    }
}

fn send(w: &mut impl Write, out: &mut Vec<u8>) -> Result<()> {
    if !out.is_empty() {
        w.write_all(out).map_err(io_err)?;
        out.clear();
    }
    Ok(())
}

// --- handshake ---------------------------------------------------------------

/// Handshake outcome sent by the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeStatus {
    /// The connection is accepted.
    Ok,
    /// The server is at its connection limit; retry later ([`Error::Busy`]).
    Busy,
    /// The client speaks an incompatible protocol ([`Error::Net`]).
    Rejected,
}

/// Writes the client side of the handshake (magic + version).
pub fn write_hello(w: &mut impl Write) -> Result<()> {
    let mut buf = Vec::with_capacity(6);
    buf.extend_from_slice(&MAGIC);
    codec::put_u16(&mut buf, VERSION);
    w.write_all(&buf).map_err(io_err)?;
    w.flush().map_err(io_err)
}

/// Reads and validates the client hello, returning the client's version.
pub fn read_hello(r: &mut impl Read) -> Result<u16> {
    let mut buf = [0u8; 6];
    r.read_exact(&mut buf).map_err(io_err)?;
    if buf[..4] != MAGIC {
        return Err(Error::net("peer did not speak the relstore wire protocol"));
    }
    Ok(u16::from_le_bytes([buf[4], buf[5]]))
}

/// Writes the server's handshake response. Returns the bytes written.
pub fn write_handshake_response(
    w: &mut impl Write,
    status: HandshakeStatus,
    message: &str,
) -> Result<u64> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC);
    codec::put_u16(&mut buf, VERSION);
    codec::put_u8(
        &mut buf,
        match status {
            HandshakeStatus::Ok => 0,
            HandshakeStatus::Busy => 1,
            HandshakeStatus::Rejected => 2,
        },
    );
    codec::put_str(&mut buf, message);
    w.write_all(&buf).map_err(io_err)?;
    w.flush().map_err(io_err)?;
    Ok(buf.len() as u64)
}

/// Reads the server's handshake response, turning a non-OK status into the
/// error the client should surface.
pub fn read_handshake_response(r: &mut impl Read) -> Result<()> {
    let mut head = [0u8; 7];
    r.read_exact(&mut head).map_err(io_err)?;
    if head[..4] != MAGIC {
        return Err(Error::net("peer did not speak the relstore wire protocol"));
    }
    let version = u16::from_le_bytes([head[4], head[5]]);
    let status = head[6];
    let mut len = [0u8; 4];
    r.read_exact(&mut len).map_err(io_err)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(Error::net("oversized handshake message"));
    }
    let mut msg = vec![0u8; len];
    r.read_exact(&mut msg).map_err(io_err)?;
    let msg = String::from_utf8_lossy(&msg).into_owned();
    match status {
        0 if version == VERSION => Ok(()),
        0 => Err(Error::net(format!(
            "server speaks protocol version {version}, this client speaks {VERSION}"
        ))),
        1 => Err(Error::busy(if msg.is_empty() {
            "server at connection limit".to_string()
        } else {
            msg
        })),
        _ => Err(Error::net(if msg.is_empty() {
            "server rejected the connection".to_string()
        } else {
            msg
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Prepare {
                sql: "SELECT * FROM jobs WHERE job_id = ?".into(),
            },
            Request::Execute {
                stmt: StmtRef::Sql("DELETE FROM jobs".into()),
                params: vec![],
                deadline_ms: None,
            },
            Request::Execute {
                stmt: StmtRef::Sql("DELETE FROM jobs".into()),
                params: vec![],
                deadline_ms: Some(250),
            },
            Request::Execute {
                stmt: StmtRef::Id(7),
                params: vec![Value::Int(1), Value::Null, Value::Text("x'y".into())],
                deadline_ms: Some(5_000),
            },
            Request::ExecuteBatch {
                stmt: StmtRef::Id(0),
                bindings: vec![vec![Value::Int(1)], vec![Value::Int(2)]],
                deadline_ms: None,
            },
            Request::QueryBatch {
                stmt: StmtRef::Sql("SELECT 1".into()),
                bindings: vec![vec![]],
                deadline_ms: Some(1),
            },
            Request::CloseStmt { id: 3 },
        ];
        for req in reqs {
            let payload = req.encode();
            assert_eq!(Request::decode(&payload).unwrap(), req);
            // Every strict prefix fails cleanly.
            for cut in 0..payload.len() {
                assert!(Request::decode(&payload[..cut]).is_err());
            }
        }
        // The opcodes of version 2's Query, Begin, Commit and Rollback are
        // unknown now: a transport error, whatever follows them.
        let execute = Request::Execute {
            stmt: StmtRef::Sql("BEGIN".into()),
            params: vec![],
            deadline_ms: None,
        }
        .encode();
        for op in [3u8, 6, 7, 8] {
            for payload in [vec![op], [&[op], &execute[1..]].concat()] {
                let err = Request::decode(&payload).unwrap_err();
                assert!(matches!(err, Error::Net(_)), "opcode {op}: {err}");
            }
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Prepared { id: 9, params: 2 },
            Response::Affected(42),
            Response::Ack { txn_open: false },
            Response::Ack { txn_open: true },
            Response::RowsHeader {
                columns: vec!["job_id".into(), "jobs.state".into()],
            },
            Response::RowPage {
                rows: vec![
                    Row::new(vec![Value::Int(1), Value::Text("idle".into())]),
                    Row::new(vec![Value::Int(2), Value::Null]),
                ],
                last: true,
            },
            Response::BatchHeader { count: 3 },
            Response::Err(Error::LockConflict("table jobs".into())),
        ];
        for resp in resps {
            let payload = resp.encode();
            assert_eq!(Response::decode(&payload).unwrap(), resp);
            for cut in 0..payload.len() {
                assert!(Response::decode(&payload[..cut]).is_err());
            }
        }
    }

    #[test]
    fn errors_keep_their_class_across_the_wire() {
        for e in [
            Error::LockConflict("w-w".into()),
            Error::busy("checkpoint"),
            Error::parse("bad token"),
            Error::constraint("pk"),
            Error::not_found("jobs"),
            Error::net("reset"),
            Error::internal("bug"),
            Error::io("fsync failed"),
            Error::corruption("bad crc"),
            Error::statement_timeout("slow scan"),
            Error::lock_wait_timeout("table jobs"),
            Error::resource_exhausted("rows materialized"),
        ] {
            let decoded = match Response::decode(&Response::Err(e.clone()).encode()).unwrap() {
                Response::Err(d) => d,
                other => panic!("expected Err, got {other:?}"),
            };
            assert_eq!(decoded, e);
            assert_eq!(decoded.class(), e.class());
        }
    }

    #[test]
    fn frame_io_round_trips_and_enforces_limits() {
        let payload = Request::CloseStmt { id: 1 }.encode();
        let mut buf = Vec::new();
        let written = write_frame(&mut buf, &payload).unwrap();
        assert_eq!(written as usize, payload.len() + 4);
        let read = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(read, payload);

        // Empty and oversized frames are refused on both sides.
        assert!(write_frame(&mut Vec::new(), &[]).is_err());
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        assert!(read_frame(&mut huge.as_slice()).is_err());
        let empty = 0u32.to_le_bytes();
        assert!(read_frame(&mut empty.as_slice()).is_err());
        // A truncated stream errors instead of blocking forever (EOF).
        assert!(read_frame(&mut [4u8, 0, 0, 0, 1].as_slice()).is_err());
    }

    /// A `Write` that keeps the bytes and counts its `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
        largest: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.largest = self.largest.max(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn result(rows: impl Iterator<Item = Row>) -> QueryResult {
        QueryResult {
            columns: vec!["job_id".into(), "owner".into()].into(),
            rows: rows.collect(),
        }
    }

    fn row(i: i64, text_len: usize) -> Row {
        Row::new(vec![Value::Int(i), Value::Text("x".repeat(text_len).into())])
    }

    fn write_counted(outcome: &Outcome, out: &mut Vec<u8>, page_rows: usize) -> CountingWriter {
        let mut w = CountingWriter::default();
        let sent = write_outcome(&mut w, out, outcome, page_rows).unwrap();
        assert_eq!(sent as usize, w.bytes.len(), "the reported size is the bytes sent");
        assert!(out.is_empty());
        w
    }

    #[test]
    fn a_reply_leaves_in_one_write_and_a_large_one_in_flush_sized_writes() {
        let point = result(std::iter::once(row(7, 8)));
        let mut out = Vec::new();
        for (outcome, frames) in [
            (Outcome::One(Response::Affected(1)), 1),
            (Outcome::Rows(point.clone()), 2),
            (Outcome::Batch(vec![point; 64]), 129),
        ] {
            let w = write_counted(&outcome, &mut out, 256);
            assert_eq!(w.writes, 1, "{frames}-frame reply took {} writes", w.writes);
            let mut stream = w.bytes.as_slice();
            for _ in 0..frames {
                Response::decode(&read_frame(&mut stream).unwrap()).unwrap();
            }
            assert!(stream.is_empty());
        }

        // 1,000 rows in 16-row pages (about 2 KiB each): the reply goes out
        // in writes of about REPLY_FLUSH_BYTES, never one per page.
        let rows = Outcome::Rows(result((0..1_000).map(|i| row(i, 120))));
        let w = write_counted(&rows, &mut out, 16);
        assert!(w.bytes.len() > 2 * REPLY_FLUSH_BYTES);
        assert!(
            w.writes <= w.bytes.len().div_ceil(REPLY_FLUSH_BYTES) + 1,
            "{} writes for {} bytes",
            w.writes,
            w.bytes.len()
        );
    }

    #[test]
    fn the_reply_buffer_is_bounded_by_a_page_not_by_the_result() {
        // 10 MB in 256-row pages of about 256 KiB: every write — so the
        // buffer at its fullest — stays under the flush size plus one page,
        // and the buffer comes back no larger than that.
        let rows = result((0..10_000).map(|i| row(i, 1_000)));
        let page = encode_row_page(&rows.rows[..256], false).len() + 4;
        let mut out = Vec::new();
        let w = write_counted(&Outcome::Rows(rows.clone()), &mut out, 256);
        assert!(w.bytes.len() > 10_000_000);
        assert!(w.largest < REPLY_FLUSH_BYTES + page, "a write of {} B", w.largest);
        assert!(out.capacity() < REPLY_FLUSH_BYTES + page);

        // One 10 MB page must grow the buffer past it; afterwards the
        // buffer shrinks back to the flush size.
        let w = write_counted(&Outcome::Rows(rows), &mut out, usize::MAX);
        assert_eq!(w.writes, 1);
        assert!(out.capacity() <= REPLY_FLUSH_BYTES, "kept {} B", out.capacity());
    }

    #[test]
    fn frame_into_refuses_what_write_frame_refuses_and_leaves_the_buffer() {
        let mut out = vec![9u8; 3];
        assert!(frame_into(&mut out, |_| {}).is_err());
        assert!(frame_into(&mut out, |buf| buf.resize(buf.len() + MAX_FRAME + 1, 0)).is_err());
        assert_eq!(out, [9, 9, 9]);
        let payload = Request::CloseStmt { id: 1 }.encode();
        let written = frame_into(&mut out, |buf| buf.extend_from_slice(&payload)).unwrap();
        let mut framed = Vec::new();
        assert_eq!(write_frame(&mut framed, &payload).unwrap(), written);
        assert_eq!(out[3..], framed[..]);
    }

    #[test]
    fn handshake_round_trips() {
        let mut buf = Vec::new();
        write_hello(&mut buf).unwrap();
        assert_eq!(read_hello(&mut buf.as_slice()).unwrap(), VERSION);
        assert!(read_hello(&mut b"XXXXxx".as_slice()).is_err());

        let mut buf = Vec::new();
        write_handshake_response(&mut buf, HandshakeStatus::Ok, "").unwrap();
        read_handshake_response(&mut buf.as_slice()).unwrap();

        let mut buf = Vec::new();
        write_handshake_response(&mut buf, HandshakeStatus::Busy, "64 connections open").unwrap();
        let err = read_handshake_response(&mut buf.as_slice()).unwrap_err();
        assert!(err.is_retryable(), "admission-control rejection is retryable");

        let mut buf = Vec::new();
        write_handshake_response(&mut buf, HandshakeStatus::Rejected, "version 9").unwrap();
        let err = read_handshake_response(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, Error::Net(_)));
    }
}
