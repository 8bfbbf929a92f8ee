//! Configuration of the CondorJ2 system.

use cluster_sim::{FailureModel, SimDuration};
use serde::{Deserialize, Serialize};

/// Tunable parameters of the CondorJ2 deployment.
///
/// CondorJ2 follows a pull model: "the execute nodes pull jobs from the
/// server-resident queue(s)", so there is no job-throttle knob; the relevant
/// parameters are how often the startds call back, how often the CAS-side
/// matchmaker runs, and the sizing of the application-server host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CondorJ2Config {
    /// How often an idle startd polls the CAS (heartbeat while unclaimed).
    pub idle_poll_interval: SimDuration,
    /// How often a startd running a job heartbeats the CAS.
    pub running_heartbeat_interval: SimDuration,
    /// How often the CAS matchmaking pass runs.
    pub scheduler_interval: SimDuration,
    /// Maximum matches created per matchmaking pass (bounds the size of the
    /// scheduling transaction; 0 means unbounded).
    pub max_matches_per_pass: usize,
    /// Interval of the DBMS background maintenance task (checkpoint).
    pub maintenance_interval: SimDuration,
    /// Cores on the machine hosting the application server and the DBMS.
    pub server_cores: u32,
    /// CPU sampling interval for the server machine.
    pub cpu_sample_interval: SimDuration,
    /// Execute-node failure model (shared with the Condor baseline).
    pub failure_model: FailureModel,
}

impl Default for CondorJ2Config {
    fn default() -> Self {
        CondorJ2Config {
            idle_poll_interval: SimDuration::from_secs(2),
            running_heartbeat_interval: SimDuration::from_secs(60),
            scheduler_interval: SimDuration::from_secs(2),
            max_matches_per_pass: 512,
            maintenance_interval: SimDuration::from_mins(120),
            server_cores: 4,
            cpu_sample_interval: SimDuration::from_secs(60),
            failure_model: FailureModel::default(),
        }
    }
}

impl CondorJ2Config {
    /// A configuration suitable for very large clusters (the 10,000-VM
    /// experiment of Figure 10): longer poll intervals keep the message rate
    /// proportional to what the paper's deployment generated.
    pub fn large_cluster() -> Self {
        CondorJ2Config {
            idle_poll_interval: SimDuration::from_secs(20),
            running_heartbeat_interval: SimDuration::from_secs(60),
            scheduler_interval: SimDuration::from_secs(10),
            ..CondorJ2Config::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let c = CondorJ2Config::default();
        assert!(c.idle_poll_interval < c.running_heartbeat_interval);
        assert_eq!(c.server_cores, 4);
        assert_eq!(c.maintenance_interval, SimDuration::from_mins(120));
    }

    #[test]
    fn large_cluster_preset_reduces_poll_rate() {
        let big = CondorJ2Config::large_cluster();
        let small = CondorJ2Config::default();
        assert!(big.idle_poll_interval > small.idle_poll_interval);
        assert!(big.scheduler_interval > small.scheduler_interval);
    }
}
