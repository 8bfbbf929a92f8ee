//! # cluster-sim — a deterministic discrete-event cluster simulation substrate
//!
//! The CondorJ2 paper evaluated its prototype on a 50-machine test-bed,
//! inflating the virtual-machine-to-physical-machine ratio to emulate clusters
//! of up to 10,000 nodes, and noted that simulation modelling would be needed
//! to push further. This crate is that simulation substrate: simulated time
//! and events, machine models with heterogeneous speeds, the execute-node
//! failure (job-drop) model, CPU accounting in the paper's four `/proc`
//! categories, throughput/time-series metrics and the data-flow trace recorder
//! used to regenerate Tables 1 and 2.
//!
//! Both cluster managers in the reproduction — the process-centric `condor`
//! baseline and the data-centric `condorj2` system — are built as event-driven
//! state machines over [`event::EventQueue`] and report their behaviour
//! through [`cpu::CpuAccountant`] and `metrics`.

#![warn(missing_docs)]

mod cpu;
mod event;
mod failure;
mod job;
mod machine;
mod metrics;
mod rng;
mod time;
mod trace;

pub use cpu::{CpuAccountant, CpuCategory, CpuSample};
pub use event::EventQueue;
pub use failure::{FailureModel, NodeHealth, StartOutcome};
pub use job::JobSpec;
pub use machine::{
    Cluster, ClusterSpec, NodeCosts, PhysId, PhysicalMachine, SpeedClass, VirtualMachine, VmId,
};
pub use metrics::{EventCounter, InProgressTracker, TimeSeries};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{TraceRecorder, TraceStep};
