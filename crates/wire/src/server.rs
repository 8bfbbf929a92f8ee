//! The threaded TCP server: an accept loop feeding a worker pool.
//!
//! [`serve`] binds a listener over an `Arc<Database>` and returns a
//! [`ServerHandle`]. One thread accepts connections and applies admission
//! control (beyond [`ServerConfig::max_connections`] a client is turned away
//! with a retryable busy handshake); a pool of worker threads each serves one
//! connection at a time, so `workers` bounds the number of *concurrently
//! served* connections and accepted-but-unserved ones wait in the queue.
//!
//! Per-connection state is a table of prepared statements (handles are
//! connection-scoped) and one [`relstore::Session`], through which every
//! statement of the connection runs — a remote statement reaches the engine
//! through the same function an embedded one does. The session holds at most
//! one open transaction, which **rolls back automatically when the
//! connection drops**: a client that dies mid-transaction releases its locks
//! the moment the socket closes, exactly like a dropped session in process.
//!
//! Shutdown is graceful: [`ServerHandle::shutdown`] stops accepting, lets
//! every in-flight statement finish and its response flush, then closes the
//! connections (rolling back their open transactions) and joins the threads.
//! Sockets are polled with a short read timeout so idle connections observe
//! the shutdown flag at frame boundaries; a frame whose bytes have started
//! arriving is always read and answered before the connection closes.
//!
//! A connection reads through a buffer: a frame usually arrives in one
//! `recv`, and frames a client pipelined back to back are served from the
//! buffer without touching the socket again. Each frame's payload lands in
//! one reused per-connection buffer, and each request's whole reply — the
//! header and pages of a result, every result of a batch — is encoded into
//! a second reused buffer and sent with one write (see
//! [`protocol::write_outcome`]); a result past
//! [`protocol::REPLY_FLUSH_BYTES`] (64 KiB) leaves in writes of about that
//! size, so the buffer is bounded by a page, not by the result.
//!
//! A stalled or vanished client cannot pin a worker thread: a connection
//! silent past [`ServerConfig::idle_timeout`] at a frame boundary is reaped
//! (closed quietly, its open transaction rolled back), a peer that stalls
//! mid-frame past [`ServerConfig::read_timeout`] fails the connection with
//! a transport error, and [`ServerConfig::write_timeout`] bounds how long a
//! response write may block on a full receive window.

use crate::protocol::{
    self, write_outcome, HandshakeStatus, Outcome, Request, Response, StmtRef, VERSION,
};
use relstore::{Database, Error, ExecResult, Governance, OpStats, Prepared, Result, Session};
use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for a [`serve_with`] call.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads; each serves one connection at a time, so this bounds
    /// the number of concurrently *served* connections.
    pub workers: usize,
    /// Admission-control limit: connections beyond this (served + queued)
    /// are refused with a retryable busy handshake.
    pub max_connections: usize,
    /// Maximum rows per streamed [`Response::RowPage`] frame.
    pub page_rows: usize,
    /// Socket read timeout used to poll the shutdown flag at frame
    /// boundaries; bounds how long shutdown waits for idle connections.
    pub poll_interval: Duration,
    /// A connection that sends nothing for this long at a frame boundary is
    /// reaped: closed quietly, its open transaction rolled back, and its
    /// worker thread freed. The client sees the close as a transport error
    /// on its next request; [`crate::ClientPool::with_retries`] turns that
    /// into a retry on a fresh connection.
    pub idle_timeout: Duration,
    /// Once a frame has *started* arriving, the peer must keep making
    /// progress: a stall longer than this mid-frame fails the connection
    /// with [`Error::Net`] instead of pinning the worker forever. The timer
    /// resets on every successful read.
    pub read_timeout: Duration,
    /// OS-level socket write timeout: a peer that stops draining its
    /// receive window fails the in-flight response rather than blocking the
    /// worker indefinitely.
    pub write_timeout: Duration,
    /// Server-side default statement deadline. A request carrying its own
    /// deadline gets the *tighter* of the two; `None` imposes no server
    /// default. Expiry surfaces a statement-deadline [`Error::Timeout`].
    pub statement_deadline: Option<Duration>,
    /// Cap on rows materialized by one statement (engine-side, before any
    /// response page is built); exceeded → [`Error::ResourceExhausted`].
    pub max_result_rows: Option<u64>,
    /// Cap on approximate result bytes materialized by one statement;
    /// exceeded → [`Error::ResourceExhausted`].
    pub max_result_bytes: Option<u64>,
    /// How long a write statement waits for a conflicted table lock before
    /// failing with a retryable lock-wait [`Error::Timeout`]. Zero keeps
    /// the embedded engine's fail-fast [`Error::LockConflict`] behaviour.
    ///
    /// The default, 1 s, outlasts a writer's transaction on a loaded host:
    /// two connections updating one table serialise on its lock, and a
    /// holder descheduled for a few scheduler slices keeps it well past
    /// 100 ms. A wait this long still ends a deadlocked or abandoned
    /// holder's victims in bounded time.
    pub lock_wait_timeout: Duration,
    /// A transaction idle (no statement, commit, or rollback) for longer
    /// than this is aborted by the reaper thread: locks released, versions
    /// undone, counted in `txns_reaped`. `None` disables the reaper.
    pub idle_txn_timeout: Option<Duration>,
    /// How often the reaper thread scans for idle transactions.
    pub reap_interval: Duration,
    /// Arms the engine's slow-query log: statements slower than this are
    /// captured (with a wait breakdown) in the `rel_slow_queries` system
    /// table, queryable by any client over plain SQL. `None` (the default)
    /// leaves the log as the database had it — disarmed unless the embedder
    /// already called `Database::set_slow_query_threshold`.
    pub slow_query_threshold: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 16,
            max_connections: 64,
            page_rows: 256,
            poll_interval: Duration::from_millis(25),
            idle_timeout: Duration::from_secs(60),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            statement_deadline: Some(Duration::from_secs(30)),
            max_result_rows: None,
            max_result_bytes: Some(64 * 1024 * 1024),
            lock_wait_timeout: Duration::from_secs(1),
            idle_txn_timeout: Some(Duration::from_secs(300)),
            reap_interval: Duration::from_secs(1),
            slow_query_threshold: None,
        }
    }
}

struct Shared {
    db: Arc<Database>,
    config: ServerConfig,
    shutdown: AtomicBool,
    /// Connections currently admitted (being served or queued for a worker).
    active: AtomicUsize,
}

/// A running server: its address, live counters, and the shutdown switch.
///
/// Dropping the handle shuts the server down (best-effort); call
/// [`ServerHandle::shutdown`] to do it explicitly and join the threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("active_connections", &self.active_connections())
            .finish()
    }
}

/// Starts a server over `db` on `addr` with the default [`ServerConfig`].
/// Bind to port 0 (`"127.0.0.1:0"`) for an ephemeral port and read it back
/// from [`ServerHandle::local_addr`].
pub fn serve(db: Arc<Database>, addr: impl ToSocketAddrs) -> Result<ServerHandle> {
    serve_with(db, addr, ServerConfig::default())
}

/// Starts a server over `db` on `addr` with an explicit configuration.
pub fn serve_with(
    db: Arc<Database>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> Result<ServerHandle> {
    let config = ServerConfig {
        workers: config.workers.max(1),
        max_connections: config.max_connections.max(1),
        page_rows: config.page_rows.max(1),
        // Zero would disarm the OS read and write timeouts (the setters
        // reject it, leaving reads blocked forever) or make every boundary
        // wait an instant reap.
        poll_interval: config.poll_interval.max(Duration::from_millis(1)),
        idle_timeout: config.idle_timeout.max(Duration::from_millis(1)),
        read_timeout: config.read_timeout.max(Duration::from_millis(1)),
        write_timeout: config.write_timeout.max(Duration::from_millis(1)),
        reap_interval: config.reap_interval.max(Duration::from_millis(1)),
        ..config
    };
    if let Some(threshold) = config.slow_query_threshold {
        db.set_slow_query_threshold(Some(threshold));
    }
    let listener = TcpListener::bind(addr).map_err(protocol::io_err)?;
    let addr = listener.local_addr().map_err(protocol::io_err)?;
    let shared = Arc::new(Shared {
        db,
        config,
        shutdown: AtomicBool::new(false),
        active: AtomicUsize::new(0),
    });

    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let workers = (0..shared.config.workers)
        .map(|_| {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            std::thread::spawn(move || worker_loop(&shared, &rx))
        })
        .collect();
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(shared, &listener, &tx))
    };
    let reaper = shared.config.idle_txn_timeout.map(|idle| {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || reaper_loop(&shared, idle))
    });
    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        reaper,
        workers,
    })
}

/// The idle-transaction reaper: every [`ServerConfig::reap_interval`] it
/// aborts transactions idle past `idle` via [`Database::reap_idle`], so an
/// abandoned-but-connected client (open socket, silent transaction) cannot
/// pin locks or the vacuum horizon forever. Connection-level idle reaping
/// (`idle_timeout`) handles *dead* sockets; this handles live ones.
fn reaper_loop(shared: &Shared, idle: Duration) {
    let nap = shared.config.poll_interval.min(shared.config.reap_interval);
    let mut due = std::time::Instant::now() + shared.config.reap_interval;
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(nap);
        if std::time::Instant::now() >= due {
            shared.db.reap_idle(idle);
            due = std::time::Instant::now() + shared.config.reap_interval;
        }
    }
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently admitted (being served or queued).
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// The served database's cumulative counters. The server records its
    /// network fields (`net_bytes_in` / `net_bytes_out` / `frames_decoded`
    /// and the `active_connections` high-water gauge) there too, beside the
    /// engine work its statements did, so `rel_stats` reports them to any
    /// client; servers sharing one database share those fields.
    pub fn stats(&self) -> OpStats {
        self.shared.db.stats()
    }

    /// The served database.
    pub fn database(&self) -> &Arc<Database> {
        &self.shared.db
    }

    /// Shuts the server down gracefully: stops accepting, drains in-flight
    /// statements (each pending request finishes and its response flushes),
    /// rolls back transactions left open by their connections, and joins
    /// every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(reaper) = self.reaper.take() {
            let _ = reaper.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

// --- accept loop -------------------------------------------------------------

fn accept_loop(shared: Arc<Shared>, listener: &TcpListener, tx: &mpsc::Sender<TcpStream>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let admitted = shared.active.fetch_add(1, Ordering::SeqCst) + 1;
        if admitted > shared.config.max_connections {
            shared.active.fetch_sub(1, Ordering::SeqCst);
            // Turn the client away on a short-lived thread so a slow (or
            // silent) peer cannot stall the accept loop.
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || reject_busy(&shared, stream));
            continue;
        }
        // High-water connection gauge (merge = max, like max_version_chain).
        shared.db.record_stats(&OpStats {
            active_connections: admitted as u64,
            ..Default::default()
        });
        if tx.send(stream).is_err() {
            shared.active.fetch_sub(1, Ordering::SeqCst);
            break;
        }
    }
    // Dropping `tx` (by returning) lets idle workers exit.
}

/// Admission-control rejection: consume the client's hello first — closing
/// a socket with unread received data can emit a TCP RST that destroys the
/// response in flight — then answer with a retryable busy handshake.
fn reject_busy(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut hello = [0u8; 6];
    let _ = stream.read_exact(&mut hello);
    let written = protocol::write_handshake_response(
        &mut stream,
        HandshakeStatus::Busy,
        &format!(
            "server at its limit of {} connection(s); retry later",
            shared.config.max_connections
        ),
    )
    .unwrap_or(0);
    shared.db.record_stats(&OpStats {
        net_bytes_in: hello.len() as u64,
        net_bytes_out: written,
        ..Default::default()
    });
}

fn worker_loop(shared: &Shared, rx: &Arc<Mutex<mpsc::Receiver<TcpStream>>>) {
    loop {
        let stream = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        match stream {
            Ok(stream) => {
                serve_connection(shared, stream);
                shared.active.fetch_sub(1, Ordering::SeqCst);
            }
            Err(_) => return, // accept loop gone and queue drained
        }
    }
}

// --- per-connection serving --------------------------------------------------

/// Prepared-statement handles and the session (with its at-most-one open
/// transaction) of one connection.
struct ConnState<'a> {
    stmts: HashMap<u32, Prepared>,
    next_stmt: u32,
    session: Session<'a>,
}

fn serve_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let mut conn = ConnState {
        stmts: HashMap::new(),
        next_stmt: 1,
        session: shared.db.session(),
    };
    let _ = serve_frames(shared, &mut BufReader::new(stream), &mut conn);
    // Whatever ended the connection — clean close, protocol error, shutdown
    // — an open transaction must not outlive it: dropping the session rolls
    // it back and releases its locks.
    drop(conn);
}

fn serve_frames(
    shared: &Shared,
    reader: &mut BufReader<TcpStream>,
    conn: &mut ConnState<'_>,
) -> Result<()> {
    // Handshake: magic + version in, status out.
    let mut hello = [0u8; 6];
    if !read_full(reader, &mut hello, shared, true)? {
        return Ok(());
    }
    let version = protocol::client_version(&hello)?;
    let mut local = OpStats {
        net_bytes_in: hello.len() as u64,
        ..Default::default()
    };
    if version != VERSION {
        local.net_bytes_out += protocol::write_handshake_response(
            reader.get_mut(),
            HandshakeStatus::Rejected,
            &format!("server speaks protocol version {VERSION}, client spoke {version}"),
        )?;
        shared.db.record_stats(&local);
        return Ok(());
    }
    local.net_bytes_out +=
        protocol::write_handshake_response(reader.get_mut(), HandshakeStatus::Ok, "")?;
    shared.db.record_stats(&local);

    // One payload buffer and one reply buffer serve every frame of the
    // connection.
    let mut payload = Vec::new();
    let mut out = Vec::new();
    let page_rows = shared.config.page_rows;
    loop {
        if !read_frame_polling(reader, &mut payload, shared)? {
            return Ok(()); // clean disconnect or shutdown at a frame boundary
        }
        let mut local = OpStats {
            net_bytes_in: payload.len() as u64 + 4,
            ..Default::default()
        };
        let req = match Request::decode(&payload) {
            Ok(req) => {
                local.frames_decoded += 1;
                req
            }
            Err(e) => {
                // A malformed frame poisons the stream: answer and close.
                let outcome = Outcome::One(Response::Err(e));
                local.net_bytes_out +=
                    write_outcome(reader.get_mut(), &mut out, &outcome, page_rows)?;
                shared.db.record_stats(&local);
                return Ok(());
            }
        };
        let outcome = handle_request(shared, conn, req);
        local.net_bytes_out += write_outcome(reader.get_mut(), &mut out, &outcome, page_rows)?;
        shared.db.record_stats(&local);
    }
}

fn handle_request(shared: &Shared, conn: &mut ConnState<'_>, req: Request) -> Outcome {
    let db = &shared.db;
    let ConnState {
        stmts,
        next_stmt,
        session,
    } = conn;
    match req {
        Request::Prepare { sql } => match db.prepare(&sql) {
            Ok(prepared) => {
                let id = *next_stmt;
                *next_stmt += 1;
                let params = prepared.param_count() as u16;
                stmts.insert(id, prepared);
                Outcome::One(Response::Prepared { id, params })
            }
            Err(e) => Outcome::One(Response::Err(e)),
        },
        Request::Execute {
            stmt,
            params,
            deadline_ms,
        } => {
            session.set_governance(governance_for(shared, deadline_ms));
            match resolve_stmt(stmts, db, stmt).and_then(|p| session.execute(&*p, params)) {
                Ok(ExecResult::Query(q)) => Outcome::Rows(q),
                Ok(ExecResult::Affected(n)) => Outcome::One(Response::Affected(n as u64)),
                Ok(ExecResult::Ack) => Outcome::One(ack(session)),
                Err(e) => Outcome::One(Response::Err(e)),
            }
        }
        Request::ExecuteBatch {
            stmt,
            bindings,
            deadline_ms,
        } => {
            session.set_governance(governance_for(shared, deadline_ms));
            match resolve_stmt(stmts, db, stmt)
                .and_then(|p| session.execute_batch(&p, bindings))
            {
                Ok(n) => Outcome::One(Response::Affected(n as u64)),
                Err(e) => Outcome::One(Response::Err(e)),
            }
        }
        Request::QueryBatch {
            stmt,
            bindings,
            deadline_ms,
        } => {
            session.set_governance(governance_for(shared, deadline_ms));
            match resolve_stmt(stmts, db, stmt)
                .and_then(|p| session.query_batch(&p, bindings))
            {
                Ok(results) => Outcome::Batch(results),
                Err(e) => Outcome::One(Response::Err(e)),
            }
        }
        Request::CloseStmt { id } => Outcome::One(match stmts.remove(&id) {
            Some(_) => ack(session),
            None => Response::Err(Error::not_found(format!(
                "prepared statement #{id} on this connection"
            ))),
        }),
    }
}

/// The per-statement limits one request runs under: the server's configured
/// budgets, with the deadline being the *tighter* of the client-requested
/// one and [`ServerConfig::statement_deadline`] — a client can narrow its
/// budget but never widen the server's.
fn governance_for(shared: &Shared, deadline_ms: Option<u32>) -> Governance {
    let cfg = &shared.config;
    let requested = deadline_ms.map(|ms| Duration::from_millis(u64::from(ms)));
    let deadline = match (requested, cfg.statement_deadline) {
        (Some(client), Some(server)) => Some(client.min(server)),
        (client, server) => client.or(server),
    };
    Governance {
        deadline,
        max_rows: cfg.max_result_rows,
        max_bytes: cfg.max_result_bytes,
        lock_wait: Some(cfg.lock_wait_timeout),
        ..Governance::default()
    }
}

/// An Ack reporting the connection's post-request transaction state — the
/// server is authoritative, so clients track `in_txn` without parsing SQL.
fn ack(session: &Session<'_>) -> Response {
    Response::Ack {
        txn_open: session.in_transaction(),
    }
}

fn resolve_stmt<'c>(
    stmts: &'c HashMap<u32, Prepared>,
    db: &Database,
    stmt: StmtRef,
) -> Result<Cow<'c, Prepared>> {
    match stmt {
        StmtRef::Sql(sql) => db.prepare(&sql).map(Cow::Owned),
        StmtRef::Id(id) => stmts.get(&id).map(Cow::Borrowed).ok_or_else(|| {
            Error::not_found(format!("prepared statement #{id} on this connection"))
        }),
    }
}

// --- polled socket reads -----------------------------------------------------

/// Reads exactly `buf.len()` bytes, looping over the read timeout. Returns
/// `Ok(false)` — without an error — when the connection closed cleanly, the
/// server began shutting down, or the peer sat idle past
/// [`ServerConfig::idle_timeout`], all *before the first byte arrived* (and
/// `allow_idle_exit` is set); once a unit has started arriving it is always
/// read to completion — or fails with [`Error::Net`] if the peer stalls
/// mid-unit longer than [`ServerConfig::read_timeout`] — so neither
/// shutdown nor a vanished client can truncate an in-flight frame or pin a
/// worker thread forever.
fn read_full(
    stream: &mut impl Read,
    buf: &mut [u8],
    shared: &Shared,
    allow_idle_exit: bool,
) -> Result<bool> {
    let mut filled = 0usize;
    let mut last_progress = std::time::Instant::now();
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && allow_idle_exit {
                    return Ok(false);
                }
                return Err(Error::net("connection closed mid-frame"));
            }
            Ok(n) => {
                filled += n;
                last_progress = std::time::Instant::now();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if filled == 0 && allow_idle_exit {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return Ok(false);
                    }
                    if last_progress.elapsed() >= shared.config.idle_timeout {
                        return Ok(false); // idle reap: quiet close
                    }
                } else if last_progress.elapsed() >= shared.config.read_timeout {
                    return Err(Error::net(format!(
                        "peer stalled mid-frame for over {:?}",
                        shared.config.read_timeout
                    )));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(protocol::io_err(e)),
        }
    }
    Ok(true)
}

/// Reads one frame's payload into `payload`, honouring shutdown and clean
/// disconnects only at frame boundaries. `Ok(false)` means the connection
/// should close quietly.
fn read_frame_polling(
    reader: &mut BufReader<TcpStream>,
    payload: &mut Vec<u8>,
    shared: &Shared,
) -> Result<bool> {
    // Check the flag *before* reading, not only on an idle timeout: a
    // client pipelining requests back-to-back keeps the socket readable, so
    // a timeout-only check would never drain that connection.
    if shared.shutdown.load(Ordering::SeqCst) {
        return Ok(false);
    }
    let mut prefix = [0u8; 4];
    if !read_full(reader, &mut prefix, shared, true)? {
        return Ok(false);
    }
    let len = protocol::announced_len(prefix)?;
    protocol::recycle(payload);
    payload.resize(len, 0);
    read_full(reader, payload, shared, false)
}
