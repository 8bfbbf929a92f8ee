//! # condorj2 — turning cluster management into data management
//!
//! This crate is the reproduction of the paper's primary contribution: the
//! CondorJ2 cluster management system, in which "an RDBMS provides improved
//! data accessibility, high concurrency, transaction and recovery services,
//! and an expressive query language over the operational data", a single
//! system-wide job repository replaces the stand-alone submit machines, and an
//! application server turns the pool's message traffic into SQL.
//!
//! * [`schema`] — the relational schema holding all operational state,
//! * [`cas`] — the CondorJ2 Application Server: coarse-grained services
//!   (submit, heartbeat, acceptMatch, queries, configuration, provenance)
//!   wrapping the fine-grained persistence layer, plus the SQL matchmaker.
//!   Each service call that writes runs as **one transaction** — one
//!   commit, one log force, all of its statements or none — which is what
//!   lets a crashed CAS restart over the recovered database
//!   ([`CasState::new`] resumes its id counters from the tables),
//! * `config` — deployment parameters (poll intervals, pool sizing),
//! * `pool` — the event-driven simulation of a full pool: execute nodes
//!   *pull* work from the CAS over web services, the DB2-style maintenance
//!   task runs in the background, and CPU/throughput metrics are collected for
//!   the paper's figures.
//!
//! ```
//! use cluster_sim::{ClusterSpec, JobSpec, SimDuration, SimTime};
//! use condorj2::{CondorJ2Config, CondorJ2Simulation};
//!
//! let spec = ClusterSpec::uniform_fast(4, 2);
//! let mut pool = CondorJ2Simulation::new(CondorJ2Config::default(), &spec, 42);
//! pool.submit(JobSpec::fixed_batch(16, SimDuration::from_secs(60), "alice"));
//! pool.run_to_completion(SimTime::from_mins(30));
//! assert_eq!(pool.completed(), 16);
//! ```

#![warn(missing_docs)]

pub mod cas;
mod config;
mod pool;
pub mod schema;

pub use cas::{CasState, HeartbeatReply, HeartbeatReport, PoolStatus};
pub use config::CondorJ2Config;
pub use pool::{CondorJ2Report, CondorJ2Simulation};
