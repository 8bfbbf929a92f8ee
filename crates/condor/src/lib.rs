//! # condor — the process-centric baseline cluster manager
//!
//! This crate reimplements the Condor architecture the paper compares against
//! (Section 2): a semi-distributed, process-oriented system in which a
//! single-threaded schedd manages each submit machine's in-memory job queue, a
//! shadow process monitors every executing job, the collector/negotiator pair
//! performs centralised matchmaking from in-memory state, and the
//! startd/starter pair runs jobs on execute machines. The implementation is
//! faithful to the behaviours the evaluation depends on: the job throttle,
//! queue-length-dependent start cost, per-job shadow memory footprint,
//! sequential negotiator allocation, and loss of matchmaking while the
//! collector or negotiator is down.
//!
//! The [`pool::CondorSimulation`] type wires these daemons into the
//! `cluster-sim` event engine and produces the measurements behind Figures
//! 13–16 and Table 1 of the paper.

#![warn(missing_docs)]

mod config;
mod matchmaker;
mod pool;
mod schedd;
mod startd;

pub use config::CondorConfig;
pub use pool::{CondorReport, CondorSimulation};
