//! # appserver — a J2EE/EJB-style application-server substrate
//!
//! CondorJ2 is "a central database and a J2EE + EJB application deployed in an
//! application server". This crate is the application-server half of that
//! sentence, rebuilt in Rust for the reproduction:
//!
//! * `message` — SOAP-style request/response envelopes (the gSOAP stand-in),
//! * `service` — the two-layer service registry (fine-grained persistence
//!   operations wrapped by coarse-grained application-logic services),
//! * `container` — request dispatch with per-request CPU cost accounting and
//!   the periodic database maintenance task,
//! * `cost` — the calibrated HTTP→SQL→storage cost model.
//!
//! The `condorj2` crate builds the actual CondorJ2 Application Server (CAS) on
//! top of these pieces — its prepared statements are the paper's
//! "HTTP-to-SQL transformation" — and the `condor` baseline reuses `cost`
//! so that both systems' CPU numbers are produced by the same accounting.
//!
//! The container's database ([`AppContainer::database`]) is an
//! `Arc<relstore::Database>`, so the same engine instance the container
//! drives in process can simultaneously be served to network peers through
//! the `wire` crate's TCP server (`wire::serve(Arc::clone(db), addr)`) —
//! the paper's deployment shape, where the engine is a network service
//! behind the application server rather than a linked library. The
//! `net_roundtrip` integration test wires a full CondorJ2 pool behind the
//! server that way and checks local and remote query results agree.

#![warn(missing_docs)]

mod container;
mod cost;
mod message;
mod service;

pub use container::{AppContainer, OperationMetrics};
pub use cost::{CostModel, RequestCost};
pub use message::{SoapRequest, SoapResponse, SoapStatus};
pub use service::{ServiceKind, ServiceRegistry};
