//! Configuration of the Condor baseline.

use cluster_sim::{FailureModel, SimDuration};
use serde::{Deserialize, Serialize};

/// Tunable parameters of the process-centric baseline.
///
/// Defaults follow the paper's description of Condor 6.8.2: a job throttle of
/// one job every two seconds, periodic status updates to the collector, and a
/// single-threaded schedd whose per-start cost grows with the length of its
/// in-memory job queue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CondorConfig {
    /// Number of schedds sharing the server machine (the paper runs up to
    /// three, reserving the fourth CPU for other processes).
    pub schedd_count: usize,
    /// Upper bound on job starts per second per schedd (the "job throttle").
    /// The Condor default is 0.5 (one job every two seconds).
    pub job_throttle_per_sec: f64,
    /// Optional hard limit on simultaneously executing jobs per schedd
    /// (the mitigation used for Figure 16).
    pub max_running_per_schedd: Option<usize>,
    /// Fixed component of the schedd's per-job-start processing time, in
    /// seconds.
    pub start_cost_base_secs: f64,
    /// Additional per-queued-job component of the per-start processing time,
    /// in seconds (the schedd walks its in-memory queue and rewrites its job
    /// log, so the cost grows with queue length).
    pub start_cost_per_queued_job_secs: f64,
    /// Fraction of the start cost charged again for post-execution processing
    /// (history, accounting, removing the job from the queue).
    pub completion_cost_fraction: f64,
    /// Interval between negotiation cycles.
    pub negotiation_interval: SimDuration,
    /// Interval between startd/schedd status updates to the collector.
    pub collector_update_interval: SimDuration,
    /// Resident memory per shadow process, in MiB. One shadow runs for every
    /// executing job submitted from the machine.
    pub shadow_memory_mib: f64,
    /// Resident memory per queued job in the schedd, in MiB.
    pub queued_job_memory_mib: f64,
    /// Memory available to the submit machine, in MiB. Exceeding it while
    /// jobs are turning over crashes the schedd (Section 5.3.2).
    pub submit_machine_memory_mib: f64,
    /// Execute-node failure model (shared with CondorJ2 so node behaviour is
    /// identical across systems).
    pub failure_model: FailureModel,
    /// CPU sampling interval of each schedd's accountant.
    pub cpu_sample_interval: SimDuration,
}

impl Default for CondorConfig {
    fn default() -> Self {
        CondorConfig {
            schedd_count: 1,
            job_throttle_per_sec: 0.5,
            max_running_per_schedd: None,
            start_cost_base_secs: 0.05,
            start_cost_per_queued_job_secs: 0.00025,
            completion_cost_fraction: 0.4,
            negotiation_interval: SimDuration::from_secs(20),
            collector_update_interval: SimDuration::from_secs(300),
            shadow_memory_mib: 0.75,
            queued_job_memory_mib: 0.05,
            submit_machine_memory_mib: 4096.0,
            failure_model: FailureModel::default(),
            cpu_sample_interval: SimDuration::from_secs(60),
        }
    }
}

impl CondorConfig {
    /// The per-start processing time for a queue of `queue_len` jobs.
    pub fn start_cost(&self, queue_len: usize) -> SimDuration {
        SimDuration::from_secs_f64(
            self.start_cost_base_secs + self.start_cost_per_queued_job_secs * queue_len as f64,
        )
    }

    /// The minimum spacing between starts imposed by the job throttle.
    pub fn throttle_interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.job_throttle_per_sec.max(1e-9))
    }

    /// Number of simultaneously running jobs at which the submit machine runs
    /// out of memory (shadows plus queue bookkeeping).
    pub fn crash_threshold_jobs(&self, queued: usize) -> usize {
        let queue_mem = self.queued_job_memory_mib * queued as f64;
        (((self.submit_machine_memory_mib - queue_mem).max(0.0)) / self.shadow_memory_mib) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_description() {
        let c = CondorConfig::default();
        assert_eq!(c.job_throttle_per_sec, 0.5);
        assert_eq!(c.throttle_interval(), SimDuration::from_secs(2));
    }

    #[test]
    fn start_cost_grows_with_queue_length() {
        let c = CondorConfig::default();
        let empty = c.start_cost(0);
        let mid = c.start_cost(1800);
        let long = c.start_cost(5000);
        assert!(mid > empty);
        assert!(long > mid);
        // Calibration: the schedd falls behind a 2 jobs/s throttle somewhere
        // around 1,800 queued jobs and below 1 job/s around 5,000 (Figure 13).
        assert!(mid.as_secs_f64() > 0.45 && mid.as_secs_f64() < 0.60);
        assert!(long.as_secs_f64() > 1.0);
    }

    #[test]
    fn crash_threshold_is_near_five_thousand() {
        let c = CondorConfig::default();
        let threshold = c.crash_threshold_jobs(0);
        assert!(threshold > 4_000 && threshold < 6_500, "threshold {threshold}");
        // A long queue eats into the budget.
        assert!(c.crash_threshold_jobs(20_000) < threshold);
    }
}
