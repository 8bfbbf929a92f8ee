//! The request-processing cost model.
//!
//! The paper's scalability argument is that the critical path of CondorJ2 is
//! "the speed and efficiency with which the Application Server can perform the
//! HTTP-to-SQL transformation and the database can process the SQL
//! statements". The cost model turns the work done for one request — the SOAP
//! envelope handled, the statements executed and the row/index/WAL operations
//! the storage engine counted — into simulated CPU time in the three busy
//! categories the paper plots (user, system, IO). The CondorJ2 CAS and the
//! Condor schedd both charge their work through this model so their CPU
//! figures are directly comparable.

use cluster_sim::{CpuAccountant, CpuCategory, SimDuration, SimTime};
use relstore::OpStats;
use serde::{Deserialize, Serialize};

/// The CPU time attributed to one request, split by category.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RequestCost {
    /// User-mode computation (SOAP parsing, bean dispatch, SQL execution).
    pub user: SimDuration,
    /// Kernel-mode work (network receive/send, connection handling).
    pub system: SimDuration,
    /// IO wait (write-ahead-log forces, page reads).
    pub io: SimDuration,
}

impl RequestCost {
    /// Total busy time across all categories.
    pub fn total(&self) -> SimDuration {
        self.user + self.system + self.io
    }

    /// Component-wise sum.
    pub fn add(&self, other: &RequestCost) -> RequestCost {
        RequestCost {
            user: self.user + other.user,
            system: self.system + other.system,
            io: self.io + other.io,
        }
    }

    /// Charges this cost to a CPU accountant at `time`.
    pub fn charge_to(&self, cpu: &mut CpuAccountant, time: SimTime) {
        cpu.charge(time, CpuCategory::User, self.user);
        cpu.charge(time, CpuCategory::System, self.system);
        cpu.charge(time, CpuCategory::Io, self.io);
    }
}

/// Calibration constants of the cost model, all in microseconds of CPU time
/// on the simulated server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// System time to receive/parse one HTTP request and send the response.
    pub request_overhead_us: f64,
    /// System time per kilobyte of SOAP envelope marshalled/unmarshalled.
    pub marshal_us_per_kb: f64,
    /// User time to plan and dispatch one SQL statement (the HTTP-to-SQL
    /// transformation plus bean/container dispatch).
    pub statement_us: f64,
    /// User time per row read by scans, lookups and joins.
    pub row_read_us: f64,
    /// User time per row inserted, updated or deleted.
    pub row_write_us: f64,
    /// User time per index maintenance or lookup operation.
    pub index_op_us: f64,
    /// IO time per byte appended to the write-ahead log.
    pub wal_us_per_byte: f64,
    /// IO time per transaction commit (log force). The container runs a
    /// service method as one transaction, so a request is charged this once
    /// however many statements it executes (`OpStats::commits` counts the
    /// request's one commit, not one per statement).
    pub commit_io_us: f64,
    /// System time per request for connection-pool bookkeeping.
    pub connection_us: f64,
}

impl CostModel {
    /// Calibration for the CondorJ2 application server + DBMS host (the
    /// paper's 3 GHz quad-Xeon with a RAID-5 array). The constants are chosen
    /// so that ~20 jobs/s of turnover plus heartbeat traffic uses well under
    /// half of the four cores (Figure 9) while per-job work is dominated by
    /// user cycles (JBoss), as the paper observed.
    pub fn cas_server() -> Self {
        CostModel {
            request_overhead_us: 350.0,
            marshal_us_per_kb: 120.0,
            statement_us: 800.0,
            row_read_us: 8.0,
            row_write_us: 45.0,
            index_op_us: 12.0,
            wal_us_per_byte: 0.02,
            commit_io_us: 900.0,
            connection_us: 80.0,
        }
    }

    /// Calibration for the Condor schedd: the schedd keeps its queue in
    /// process memory, so per-row costs are lower, but every job start walks
    /// the in-memory queue and appends to the job log, and all of it runs on
    /// a single thread.
    pub fn schedd_process() -> Self {
        CostModel {
            request_overhead_us: 250.0,
            marshal_us_per_kb: 60.0,
            statement_us: 150.0,
            row_read_us: 2.5,
            row_write_us: 20.0,
            index_op_us: 0.0,
            wal_us_per_byte: 0.02,
            commit_io_us: 1100.0,
            connection_us: 0.0,
        }
    }

    /// Computes the cost of a request that shipped `envelope_bytes` of SOAP
    /// payload and caused the storage work described by `delta`.
    pub fn request_cost(&self, envelope_bytes: usize, delta: &OpStats) -> RequestCost {
        let user_us = self.statement_us * delta.statements_executed as f64
            + self.row_read_us * delta.rows_read as f64
            + self.row_write_us * delta.total_mutations() as f64
            + self.index_op_us * (delta.index_maintenance + delta.index_lookups) as f64;
        let system_us = self.request_overhead_us
            + self.connection_us
            + self.marshal_us_per_kb * envelope_bytes as f64 / 1024.0;
        let io_us = self.wal_us_per_byte * delta.wal_bytes as f64
            + self.commit_io_us * delta.commits as f64;
        RequestCost {
            user: SimDuration::from_secs_f64(user_us / 1_000_000.0),
            system: SimDuration::from_secs_f64(system_us / 1_000_000.0),
            io: SimDuration::from_secs_f64(io_us / 1_000_000.0),
        }
    }

    /// Cost of pure computation measured in "statement equivalents" — used for
    /// work that does not touch the database, such as the negotiator's
    /// matchmaking loop over its in-memory snapshot.
    pub fn compute_cost(&self, statement_equivalents: f64) -> RequestCost {
        RequestCost {
            user: SimDuration::from_secs_f64(self.statement_us * statement_equivalents / 1_000_000.0),
            system: SimDuration::ZERO,
            io: SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(reads: u64, writes: u64, commits: u64, wal_bytes: u64) -> OpStats {
        OpStats {
            rows_read: reads,
            rows_inserted: writes,
            statements_executed: 2,
            commits,
            wal_bytes,
            ..Default::default()
        }
    }

    #[test]
    fn heavier_requests_cost_more() {
        let model = CostModel::cas_server();
        let light = model.request_cost(256, &delta(2, 1, 1, 200));
        let heavy = model.request_cost(256, &delta(5_000, 200, 1, 60_000));
        assert!(heavy.user > light.user);
        assert!(heavy.io > light.io);
        assert!(heavy.total() > light.total());
    }

    #[test]
    fn user_cycles_dominate_typical_cas_requests() {
        // The paper observes user cycles growing much faster than IO/system;
        // a typical heartbeat-with-turnover request must follow that shape.
        let model = CostModel::cas_server();
        let cost = model.request_cost(512, &delta(40, 6, 1, 1_500));
        assert!(cost.user > cost.system);
        assert!(cost.user > cost.io);
    }

    #[test]
    fn costs_charge_into_cpu_accountant() {
        let model = CostModel::cas_server();
        let cost = model.request_cost(512, &delta(10, 2, 1, 500));
        let mut cpu = CpuAccountant::new(4, SimDuration::from_secs(60));
        cost.charge_to(&mut cpu, SimTime::from_secs(10));
        let samples = cpu.samples();
        assert_eq!(samples.len(), 1);
        assert!(samples[0].busy() > 0.0);
    }

    #[test]
    fn add_and_total_are_componentwise() {
        let a = RequestCost {
            user: SimDuration::from_millis(10),
            system: SimDuration::from_millis(2),
            io: SimDuration::from_millis(3),
        };
        let b = a.add(&a);
        assert_eq!(b.user, SimDuration::from_millis(20));
        assert_eq!(b.total(), SimDuration::from_millis(30));
    }

    #[test]
    fn compute_cost_is_pure_user_time() {
        let model = CostModel::schedd_process();
        let c = model.compute_cost(10.0);
        assert!(c.user.as_millis() > 0);
        assert_eq!(c.system, SimDuration::ZERO);
        assert_eq!(c.io, SimDuration::ZERO);
    }
}
