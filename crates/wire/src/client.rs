//! The blocking client and connection pool.
//!
//! [`Client`] mirrors the shape of a [`relstore::Session`], so service code
//! written against the typed surface — [`IntoParams`] tuples in,
//! [`FromRow`] structs out, [`Client::with_retries`] around write
//! transactions — is transport-agnostic: swap `db.session()` for
//! `pool.get()?` and the call sites do not change. Statements are SQL text
//! (resolved through the server's statement cache) or [`RemoteStatement`]
//! handles returned by [`Client::prepare`]; handles are scoped to the
//! connection that prepared them. [`Client::transaction`] returns a
//! [`RemoteTransaction`]: the connection itself with the transaction open,
//! adding only `commit()` and `rollback()` — the remote twin of
//! [`relstore::Transaction`], which is its session.
//!
//! [`ClientPool`] keeps up to `capacity` connections to one server, blocks
//! callers when all are checked out, and discards (rather than reuses) any
//! connection that suffered a transport error or was returned with a
//! transaction still open — the server rolls that transaction back when the
//! socket closes.

use crate::protocol::{self, frame_into, read_frame_into, Request, Response, StmtRef};
use relstore::{Error, ExecResult, FromRow, FromValue, IntoParams, QueryResult, Result, Row};
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A prepared-statement handle on one connection (see [`Client::prepare`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteStatement {
    id: u32,
    params: u16,
}

impl RemoteStatement {
    /// Number of `?` parameter slots the statement expects.
    pub fn param_count(&self) -> usize {
        self.params as usize
    }
}

impl From<&RemoteStatement> for StmtRef {
    fn from(stmt: &RemoteStatement) -> StmtRef {
        StmtRef::Id(stmt.id)
    }
}

impl From<RemoteStatement> for StmtRef {
    fn from(stmt: RemoteStatement) -> StmtRef {
        StmtRef::Id(stmt.id)
    }
}

impl From<&str> for StmtRef {
    fn from(sql: &str) -> StmtRef {
        StmtRef::Sql(sql.to_string())
    }
}

impl From<String> for StmtRef {
    fn from(sql: String) -> StmtRef {
        StmtRef::Sql(sql)
    }
}

/// A blocking connection to a wire-protocol server.
///
/// One client is one TCP connection with its own prepared-statement handles
/// and at most one open transaction; it is `Send` but not shareable — open
/// one per thread (or take them from a [`ClientPool`]).
///
/// A request leaves in one write, framed in a reused buffer; replies are
/// read through a buffer, so a reply's frames — however many the server
/// sent in its one write — take about one `recv`, and each payload lands in
/// a second reused buffer.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    /// The request being sent, framed.
    out: Vec<u8>,
    /// The payload of the frame last received.
    frame: Vec<u8>,
    /// Set when the transport failed: the connection's state is unknown and
    /// it must not be reused (a pool discards it).
    broken: bool,
    /// Tracks the connection's SQL-level transaction so the RAII guard and
    /// the pool can tell whether the connection is mid-transaction.
    in_txn: bool,
    /// Deadline attached to every statement request sent on this
    /// connection; the server enforces the tighter of this and its own
    /// configured default.
    deadline: Option<Duration>,
}

impl Client {
    /// Connects and performs the protocol handshake. A server at its
    /// connection limit answers with a **retryable** [`Error::Busy`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let mut stream = TcpStream::connect(addr).map_err(protocol::io_err)?;
        stream.set_nodelay(true).map_err(protocol::io_err)?;
        protocol::write_hello(&mut stream)?;
        let mut reader = BufReader::new(stream);
        protocol::read_handshake_response(&mut reader)?;
        Ok(Client {
            reader,
            out: Vec::new(),
            frame: Vec::new(),
            broken: false,
            in_txn: false,
            deadline: None,
        })
    }

    /// True when a transport error has made the connection unusable.
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// True when a transaction is open on this connection.
    pub fn in_transaction(&self) -> bool {
        self.in_txn
    }

    /// Sets the deadline attached to every subsequent statement request on
    /// this connection (`None` clears it). The server runs the statement
    /// under the *tighter* of this and its configured default and answers
    /// an overrun with a statement-deadline [`Error::Timeout`] — a client
    /// can narrow its budget but never widen the server's.
    pub fn set_statement_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// The deadline currently attached to statement requests, if any.
    pub fn statement_deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The wire form of the statement deadline: whole milliseconds,
    /// saturating at `u32::MAX` (~49 days).
    fn deadline_ms(&self) -> Option<u32> {
        self.deadline
            .map(|d| d.as_millis().min(u128::from(u32::MAX)) as u32)
    }

    fn send(&mut self, req: &Request) -> Result<()> {
        self.out.clear();
        frame_into(&mut self.out, |buf| req.encode_into(buf))
            .and_then(|_| {
                self.reader
                    .get_mut()
                    .write_all(&self.out)
                    .map_err(protocol::io_err)
            })
            .inspect_err(|_| self.broken = true)
    }

    fn recv(&mut self) -> Result<Response> {
        read_frame_into(&mut self.reader, &mut self.frame)
            .and_then(|()| Response::decode(&self.frame))
            .inspect_err(|_| self.broken = true)
    }

    fn unexpected(&mut self, what: &str, resp: &Response) -> Error {
        // The stream is desynchronised; nothing more can be trusted on it.
        self.broken = true;
        Error::net(format!("unexpected response to {what}: {resp:?}"))
    }

    /// Reads a streamed query result whose first frame is `first`.
    fn read_query_result(&mut self, first: Response) -> Result<QueryResult> {
        let columns = match first {
            Response::RowsHeader { columns } => columns,
            Response::Err(e) => return Err(e),
            other => return Err(self.unexpected("query", &other)),
        };
        let mut rows: Vec<Row> = Vec::new();
        loop {
            match self.recv()? {
                Response::RowPage {
                    rows: mut page,
                    last,
                } => {
                    rows.append(&mut page);
                    if last {
                        break;
                    }
                }
                other => return Err(self.unexpected("row page", &other)),
            }
        }
        Ok(QueryResult {
            columns: columns.into_iter().map(Arc::from).collect(),
            rows,
        })
    }

    /// Prepares a statement server-side and returns its connection-scoped
    /// handle.
    pub fn prepare(&mut self, sql: &str) -> Result<RemoteStatement> {
        self.send(&Request::Prepare {
            sql: sql.to_string(),
        })?;
        match self.recv()? {
            Response::Prepared { id, params } => Ok(RemoteStatement { id, params }),
            Response::Err(e) => Err(e),
            other => Err(self.unexpected("Prepare", &other)),
        }
    }

    /// Releases a prepared-statement handle server-side.
    pub fn close_stmt(&mut self, stmt: RemoteStatement) -> Result<()> {
        self.send(&Request::CloseStmt { id: stmt.id })?;
        match self.recv()? {
            Response::Ack { txn_open } => {
                self.in_txn = txn_open;
                Ok(())
            }
            Response::Err(e) => Err(e),
            other => Err(self.unexpected("CloseStmt", &other)),
        }
    }

    /// Executes one statement — SQL text or a prepared handle — binding
    /// `params` positionally, exactly like [`relstore::Session::execute`].
    /// SQL-level `BEGIN` / `COMMIT` / `ROLLBACK` drive the connection's
    /// transaction.
    pub fn execute<S: Into<StmtRef>, P: IntoParams>(
        &mut self,
        stmt: S,
        params: P,
    ) -> Result<ExecResult> {
        self.send(&Request::Execute {
            stmt: stmt.into(),
            params: params.into_params(),
            deadline_ms: self.deadline_ms(),
        })?;
        match self.recv()? {
            Response::Affected(n) => Ok(ExecResult::Affected(n as usize)),
            // The Ack carries the connection's post-statement transaction
            // state, so SQL-level BEGIN/COMMIT/ROLLBACK — in any spelling,
            // or through a prepared handle — keeps `in_txn` accurate.
            Response::Ack { txn_open } => {
                self.in_txn = txn_open;
                Ok(ExecResult::Ack)
            }
            Response::Err(e) => Err(e),
            first @ Response::RowsHeader { .. } => {
                Ok(ExecResult::Query(self.read_query_result(first)?))
            }
            other => Err(self.unexpected("Execute", &other)),
        }
    }

    /// Executes a SELECT and returns its rows, exactly like
    /// [`relstore::Session::query`]: any other statement runs and is then
    /// the same type error.
    pub fn query<S: Into<StmtRef>, P: IntoParams>(
        &mut self,
        stmt: S,
        params: P,
    ) -> Result<QueryResult> {
        self.execute(stmt, params)?.query()
    }

    /// Executes a SELECT and decodes every row into `T`.
    pub fn query_as<T: FromRow, S: Into<StmtRef>, P: IntoParams>(
        &mut self,
        stmt: S,
        params: P,
    ) -> Result<Vec<T>> {
        self.query(stmt, params)?.decode()
    }

    /// Executes a SELECT and decodes the first row, if any.
    pub fn query_one<T: FromRow, S: Into<StmtRef>, P: IntoParams>(
        &mut self,
        stmt: S,
        params: P,
    ) -> Result<Option<T>> {
        self.query(stmt, params)?.decode_first()
    }

    /// Executes a single-column SELECT and decodes each row's value.
    pub fn query_scalars<T: FromValue, S: Into<StmtRef>, P: IntoParams>(
        &mut self,
        stmt: S,
        params: P,
    ) -> Result<Vec<T>> {
        let result = self.query(stmt, params)?;
        result.views().map(|v| v.get_at(0)).collect()
    }

    /// Executes a DML statement once per binding under one server-side
    /// catalog guard and one WAL append (see
    /// [`relstore::Session::execute_batch`]) — and, over the wire, one
    /// request frame instead of N round trips.
    pub fn execute_batch<S: Into<StmtRef>, P: IntoParams>(
        &mut self,
        stmt: S,
        bindings: impl IntoIterator<Item = P>,
    ) -> Result<usize> {
        self.send(&Request::ExecuteBatch {
            stmt: stmt.into(),
            bindings: bindings.into_iter().map(IntoParams::into_params).collect(),
            deadline_ms: self.deadline_ms(),
        })?;
        match self.recv()? {
            Response::Affected(n) => Ok(n as usize),
            Response::Err(e) => Err(e),
            other => Err(self.unexpected("ExecuteBatch", &other)),
        }
    }

    /// Executes a SELECT once per binding under one server-side shared
    /// guard; results come back in binding order. One round trip for the
    /// whole pipeline.
    pub fn query_batch<S: Into<StmtRef>, P: IntoParams>(
        &mut self,
        stmt: S,
        bindings: impl IntoIterator<Item = P>,
    ) -> Result<Vec<QueryResult>> {
        self.send(&Request::QueryBatch {
            stmt: stmt.into(),
            bindings: bindings.into_iter().map(IntoParams::into_params).collect(),
            deadline_ms: self.deadline_ms(),
        })?;
        let count = match self.recv()? {
            Response::BatchHeader { count } => count as usize,
            Response::Err(e) => return Err(e),
            other => return Err(self.unexpected("QueryBatch", &other)),
        };
        let mut results = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let first = self.recv()?;
            results.push(self.read_query_result(first)?);
        }
        Ok(results)
    }

    /// Opens the connection's transaction (at most one may be open): an
    /// `Execute` of `BEGIN`.
    pub fn begin(&mut self) -> Result<()> {
        self.execute("BEGIN", ()).map(drop)
    }

    /// Commits the connection's transaction: an `Execute` of `COMMIT`.
    pub fn commit(&mut self) -> Result<()> {
        self.execute("COMMIT", ()).map(drop)
    }

    /// Rolls back the connection's transaction: an `Execute` of `ROLLBACK`.
    pub fn rollback(&mut self) -> Result<()> {
        self.execute("ROLLBACK", ()).map(drop)
    }

    /// Begins a transaction and returns its RAII guard: `commit()` consumes
    /// it, dropping it rolls back (and if the connection dies instead, the
    /// server rolls back when the socket closes).
    pub fn transaction(&mut self) -> Result<RemoteTransaction<'_>> {
        self.begin()?;
        Ok(RemoteTransaction(self))
    }

    /// Runs `f` up to `attempts` times via [`relstore::retry_with_backoff`]
    /// — the same policy and contract as
    /// [`relstore::Session::with_retries`]. The error frame carries the
    /// server-side [`Error`] variant and class, so a remote write-write
    /// [`Error::LockConflict`] retries exactly like an embedded one, while
    /// transport failures ([`Error::Net`], never retryable) stop the loop.
    pub fn with_retries<T>(
        &mut self,
        attempts: usize,
        mut f: impl FnMut(&mut Client) -> Result<T>,
    ) -> Result<T> {
        relstore::retry_with_backoff(attempts, || f(self))
    }

    /// [`Client::with_retries`] under an overall wall-clock budget: the
    /// whole loop — every attempt *and* every backoff sleep — stays within
    /// `overall` (see [`relstore::retry_with_backoff_deadline`]). The first
    /// attempt always runs.
    pub fn with_retries_deadline<T>(
        &mut self,
        attempts: usize,
        overall: Duration,
        mut f: impl FnMut(&mut Client) -> Result<T>,
    ) -> Result<T> {
        relstore::retry_with_backoff_deadline(attempts, Some(overall), || f(self))
    }

    /// Best-effort rollback of a transaction abandoned by a drop path,
    /// bounded by short socket timeouts so a stalled server cannot pin the
    /// drop. A transport failure just marks the connection broken — the
    /// server rolls the transaction back when it observes the close.
    fn rollback_abandoned(&mut self) {
        if !self.in_txn || self.broken {
            return;
        }
        let bound = Some(Duration::from_millis(250));
        let stream = self.reader.get_ref();
        let _ = stream.set_write_timeout(bound);
        let _ = stream.set_read_timeout(bound);
        let _ = self.rollback();
        let stream = self.reader.get_ref();
        let _ = stream.set_write_timeout(None);
        let _ = stream.set_read_timeout(None);
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // Dropping mid-transaction sends a best-effort Rollback so the
        // server releases the locks *now*, not when it next polls the
        // socket and observes the close.
        self.rollback_abandoned();
    }
}

/// An RAII transaction guard: its [`Client`] with the transaction open,
/// mirroring [`relstore::Transaction`]. The guard derefs (mutably) to the
/// connection, so statements run through the client's methods, inside the
/// transaction; `commit()` and `rollback()` consume the guard, and dropping
/// it rolls back whenever the server reports the transaction still open.
/// SQL `BEGIN` through the guard is an "already open" error; SQL `COMMIT`
/// commits, after which `commit()` is a "no open transaction" error and the
/// drop does nothing.
#[derive(Debug)]
pub struct RemoteTransaction<'a>(&'a mut Client);

impl RemoteTransaction<'_> {
    /// Commits the transaction, consuming the guard.
    pub fn commit(self) -> Result<()> {
        self.0.commit()
    }

    /// Rolls the transaction back explicitly, surfacing the result.
    pub fn rollback(self) -> Result<()> {
        self.0.rollback()
    }
}

impl Deref for RemoteTransaction<'_> {
    type Target = Client;

    fn deref(&self) -> &Client {
        self.0
    }
}

impl DerefMut for RemoteTransaction<'_> {
    fn deref_mut(&mut self) -> &mut Client {
        self.0
    }
}

impl Drop for RemoteTransaction<'_> {
    fn drop(&mut self) {
        if self.0.in_transaction() {
            let _ = self.0.rollback();
        }
    }
}

// --- connection pool ---------------------------------------------------------

struct PoolState {
    idle: Vec<Client>,
    /// Connections checked out or idle (i.e. counted against capacity).
    open: usize,
}

struct PoolInner {
    addr: String,
    capacity: usize,
    state: Mutex<PoolState>,
    available: Condvar,
}

/// A blocking pool of up to `capacity` [`Client`] connections to one server.
///
/// [`ClientPool::get`] hands out an idle connection, dials a new one while
/// under capacity, and otherwise blocks until a connection is returned.
/// Returned connections are reused unless they broke (transport error) or
/// still hold an open transaction — those are closed instead, which makes
/// the server roll the transaction back.
#[derive(Clone)]
pub struct ClientPool {
    inner: Arc<PoolInner>,
}

impl std::fmt::Debug for ClientPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.state.lock().unwrap();
        f.debug_struct("ClientPool")
            .field("addr", &self.inner.addr)
            .field("capacity", &self.inner.capacity)
            .field("open", &state.open)
            .field("idle", &state.idle.len())
            .finish()
    }
}

impl ClientPool {
    /// Creates a pool dialing `addr`, holding at most `capacity`
    /// connections. Connections are created lazily on first use.
    pub fn new(addr: impl Into<String>, capacity: usize) -> ClientPool {
        ClientPool {
            inner: Arc::new(PoolInner {
                addr: addr.into(),
                capacity: capacity.max(1),
                state: Mutex::new(PoolState {
                    idle: Vec::new(),
                    open: 0,
                }),
                available: Condvar::new(),
            }),
        }
    }

    /// Connections currently counted against capacity (checked out + idle).
    pub fn open_connections(&self) -> usize {
        self.inner.state.lock().unwrap().open
    }

    /// Checks a connection out of the pool, dialing a new one while under
    /// capacity and blocking while the pool is exhausted.
    pub fn get(&self) -> Result<PooledClient> {
        let mut state = self.inner.state.lock().unwrap();
        loop {
            if let Some(client) = state.idle.pop() {
                return Ok(PooledClient {
                    client: Some(client),
                    pool: Arc::clone(&self.inner),
                });
            }
            if state.open < self.inner.capacity {
                state.open += 1;
                drop(state);
                return match Client::connect(&self.inner.addr) {
                    Ok(client) => Ok(PooledClient {
                        client: Some(client),
                        pool: Arc::clone(&self.inner),
                    }),
                    Err(e) => {
                        self.inner.state.lock().unwrap().open -= 1;
                        self.inner.available.notify_one();
                        Err(e)
                    }
                };
            }
            state = self.inner.available.wait(state).unwrap();
        }
    }

    /// Runs `f` with a pooled connection via
    /// [`relstore::retry_with_backoff`], taking a **fresh** connection per
    /// attempt so a retry is never pinned to the connection that just
    /// failed. The pooled analogue of [`relstore::Session::with_retries`];
    /// a server's busy handshake ([`Error::Busy`]) is retryable, so a full
    /// server backs callers off rather than failing them.
    ///
    /// Transport failures ([`Error::Net`]) are retried here too — the
    /// broken connection is discarded on return, so the next attempt dials
    /// or reuses a healthy one. That covers a server-side idle reap or
    /// stall timeout transparently, but it also means `f` may run again
    /// after a request whose fate is unknown (the socket died after the
    /// request was sent): keep `f` idempotent, or use a bare [`Client`]
    /// where a transport error must surface as-is.
    pub fn with_retries<T>(
        &self,
        attempts: usize,
        f: impl FnMut(&mut Client) -> Result<T>,
    ) -> Result<T> {
        self.with_retries_inner(attempts, None, f)
    }

    /// [`ClientPool::with_retries`] under an overall wall-clock budget: the
    /// whole loop — every attempt *and* every backoff sleep — stays within
    /// `overall` (see [`relstore::retry_with_backoff_deadline`]). The first
    /// attempt always runs.
    pub fn with_retries_deadline<T>(
        &self,
        attempts: usize,
        overall: Duration,
        f: impl FnMut(&mut Client) -> Result<T>,
    ) -> Result<T> {
        self.with_retries_inner(attempts, Some(overall), f)
    }

    fn with_retries_inner<T>(
        &self,
        attempts: usize,
        overall: Option<Duration>,
        mut f: impl FnMut(&mut Client) -> Result<T>,
    ) -> Result<T> {
        relstore::retry_with_backoff_deadline(attempts, overall, || {
            self.get()
                .and_then(|mut conn| f(&mut conn))
                .map_err(|e| match e {
                    // Error::Net is not retryable in general (a bare client
                    // cannot recover its connection), but the pool can:
                    // reclassify so the backoff loop takes a fresh one.
                    Error::Net(msg) => {
                        Error::busy(format!("transport failure on pooled connection: {msg}"))
                    }
                    other => other,
                })
        })
    }
}

/// A connection checked out of a [`ClientPool`]; derefs to [`Client`] and
/// returns the connection to the pool on drop (or discards it when broken
/// or left mid-transaction).
pub struct PooledClient {
    client: Option<Client>,
    pool: Arc<PoolInner>,
}

impl std::ops::Deref for PooledClient {
    type Target = Client;
    fn deref(&self) -> &Client {
        self.client.as_ref().expect("client present until drop")
    }
}

impl std::ops::DerefMut for PooledClient {
    fn deref_mut(&mut self) -> &mut Client {
        self.client.as_mut().expect("client present until drop")
    }
}

impl Drop for PooledClient {
    fn drop(&mut self) {
        let mut client = self.client.take().expect("client present until drop");
        // A connection returned mid-transaction is still discarded (its
        // state is suspect), but a best-effort Rollback first releases the
        // transaction's locks immediately instead of when the server
        // notices the socket close.
        let abandoned = client.in_txn;
        client.rollback_abandoned();
        let mut state = self.pool.state.lock().unwrap();
        if client.broken || abandoned {
            // Closing the socket makes the server roll back any open
            // transaction; the pool slot frees for a fresh dial.
            state.open -= 1;
        } else {
            state.idle.push(client);
        }
        drop(state);
        self.pool.available.notify_one();
    }
}
