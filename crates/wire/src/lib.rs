//! # wire — the relstore network protocol, server and client
//!
//! The paper's deployment separates the engine from its callers: every
//! service request crosses the app server's HTTP-to-SQL hot path into a
//! database that is a *network peer*, not a linked library. This crate gives
//! the embedded [`relstore`] engine that front door:
//!
//! * a **length-prefixed binary protocol** ([`protocol`], [`VERSION`] 3)
//!   with a versioned handshake, five requests — `Prepare`, `Execute`,
//!   `ExecuteBatch`, `QueryBatch`, `CloseStmt` (a query, `BEGIN`, `COMMIT`
//!   and `ROLLBACK` are each an `Execute` through the connection's session)
//!   — streamed row pages for large results, and an error frame that carries
//!   the engine's [`Error`](relstore::Error) variant *and* class — a remote
//!   write-write conflict is just as retryable as an embedded one. The
//!   codec ([`codec`]) is hand-rolled put/get over byte buffers (like the
//!   WAL — no serialization framework) and never panics on hostile input;
//! * a **threaded TCP server** (`server`, [`serve`]): an accept loop with
//!   admission control feeding a worker pool, per-connection
//!   prepared-statement handles, at most one open transaction per
//!   connection — **rolled back the moment the connection drops** — and
//!   graceful shutdown that drains in-flight statements;
//! * a **blocking client and pool** (`client`): [`Client`] mirrors the
//!   typed [`Session`](relstore::Session) surface (tuple [`IntoParams`]
//!   parameters, [`FromRow`] decoding, `execute_batch`, `with_retries`,
//!   RAII [`RemoteTransaction`] guards), so service code is
//!   transport-agnostic; [`ClientPool`] bounds and reuses connections.
//!
//! [`IntoParams`]: relstore::IntoParams
//! [`FromRow`]: relstore::FromRow
//!
//! Spawn a server on an ephemeral port, connect, and query it:
//!
//! ```
//! use relstore::Database;
//! use std::sync::Arc;
//!
//! // Any embedded database can be served. Port 0 picks an ephemeral port.
//! let db = Arc::new(Database::new());
//! db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, owner TEXT, state TEXT)")?;
//! let server = wire::serve(Arc::clone(&db), "127.0.0.1:0")?;
//!
//! // The client side: same typed surface as a local Session.
//! let mut client = wire::Client::connect(server.local_addr())?;
//! let insert = client.prepare("INSERT INTO jobs VALUES (?, ?, ?)")?;
//! client.execute_batch(&insert, (0..8i64).map(|i| (i, "alice", "idle")))?;
//!
//! let running: Vec<(i64, String)> = client.query_as(
//!     "SELECT job_id, owner FROM jobs WHERE state = ? ORDER BY job_id",
//!     ("idle",),
//! )?;
//! assert_eq!(running.len(), 8);
//! assert_eq!(running[0], (0, "alice".to_string()));
//!
//! // Transactions are RAII guards; a dropped guard — or a dropped
//! // connection — rolls back server-side.
//! {
//!     let mut txn = client.transaction()?;
//!     txn.execute("DELETE FROM jobs", ())?;
//!     // No commit: rolled back here.
//! }
//! let n: Vec<i64> = client.query_scalars("SELECT COUNT(*) FROM jobs", ())?;
//! assert_eq!(n, vec![8]);
//!
//! drop(client);
//! server.shutdown(); // graceful: drains in-flight statements
//! # Ok::<(), relstore::Error>(())
//! ```
//!
//! ## Pooling
//!
//! Services hold a [`ClientPool`] sized to the server's worker pool and
//! check a connection out per request. A connection returned mid-transaction
//! or after a transport error is discarded (closing it rolls the
//! transaction back server-side); everything else is reused. For write
//! paths, [`ClientPool::with_retries`] takes a fresh connection per attempt
//! and retries on retryable error classes, exactly like
//! [`Session::with_retries`](relstore::Session::with_retries) embedded.
//!
//! ## Observability
//!
//! The server counts its transport work in the served database's one
//! metrics registry ([`Observability`](relstore::Observability)), beside the
//! engine's counters and latency histograms, as
//! [`OpStats`](relstore::OpStats) fields:
//! `net_bytes_in` / `net_bytes_out` / `frames_decoded`, plus the
//! `active_connections` high-water gauge (merge = max, like
//! `max_version_chain`). Any client reads them from `rel_stats`; in process
//! [`ServerHandle::stats`] returns the same counters, beside the engine work
//! done on behalf of remote statements.

#![warn(missing_docs)]

mod client;
pub mod codec;
pub mod protocol;
mod server;

pub use client::{Client, ClientPool, PooledClient, RemoteStatement, RemoteTransaction};
pub use protocol::{Request, Response, StmtRef, MAGIC, VERSION};
pub use server::{serve, serve_with, ServerConfig, ServerHandle};
