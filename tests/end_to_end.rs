//! Cross-crate integration tests: full job lifecycles on both systems, the
//! head-to-head comparisons the paper draws, and failure injection.

use cluster_sim::{ClusterSpec, JobSpec, SimDuration, SimTime};
use condor::{CondorConfig, CondorSimulation};
use condorj2::{CasState, CondorJ2Config, CondorJ2Simulation, HeartbeatReply, HeartbeatReport};
use relstore::{Database, DurabilityPolicy, MemDevice};
use std::sync::Arc;

/// A database over an in-memory log device holding `log`: empty for a new
/// database, another database's `durable_log_bytes()` to recover it.
fn on_mem_device(log: Vec<u8>) -> Database {
    Database::open_with_device(Box::new(MemDevice::with_contents(log)), DurabilityPolicy::Always)
        .unwrap()
}

/// Both systems are given the identical workload and cluster; both must
/// complete every job.
#[test]
fn both_systems_complete_the_same_workload() {
    let spec = ClusterSpec::uniform_fast(10, 2);
    let jobs = JobSpec::fixed_batch(60, SimDuration::from_secs(60), "shared-user");

    let mut j2 = CondorJ2Simulation::new(CondorJ2Config::default(), &spec, 5);
    j2.submit(jobs.clone());
    j2.run_to_completion(SimTime::from_mins(120));
    assert_eq!(j2.completed(), 60);

    let mut condor = CondorSimulation::new(
        CondorConfig {
            job_throttle_per_sec: 1.0,
            negotiation_interval: SimDuration::from_secs(10),
            ..CondorConfig::default()
        },
        &spec,
        5,
    );
    condor.submit(0, jobs);
    condor.run_to_completion(SimTime::from_mins(120));
    assert_eq!(condor.completed(), 60);
}

/// The paper's Section 4.2.3 claim in numbers: CondorJ2 moves a job through
/// fewer entities and fewer communication channels than Condor.
#[test]
fn condorj2_uses_fewer_entities_and_channels() {
    let condor_trace = workloads::condor_dataflow_trace(2);
    let j2_trace = workloads::condorj2_dataflow_trace(2);
    assert!(j2_trace.entities().len() < condor_trace.entities().len());
    assert!(j2_trace.channels().len() < condor_trace.channels().len());
    assert_eq!(condor_trace.channels().len(), 10);
    assert_eq!(j2_trace.channels().len(), 4);
}

/// All CondorJ2 state lives in the database, so a CAS crash loses nothing that
/// was committed: rebuild the database from the write-ahead log and the job
/// queue is intact.
#[test]
fn condorj2_state_survives_cas_crash_via_wal_recovery() {
    let spec = ClusterSpec::uniform_fast(4, 2);
    let durable = Arc::new(on_mem_device(Vec::new()));
    let mut pool =
        CondorJ2Simulation::with_database(CondorJ2Config::default(), &spec, 9, durable);
    pool.submit(JobSpec::fixed_batch(30, SimDuration::from_mins(5), "resilient"));
    pool.run_until(SimTime::from_mins(2));

    let db = pool.cas().database();
    let jobs_before = db.table_len("jobs").unwrap();
    let running_before = db.table_len("runs").unwrap();
    assert!(jobs_before > 0);

    // Simulate a CAS/DBMS crash and restart: recover from the log only.
    let recovered = on_mem_device(db.durable_log_bytes().unwrap());
    assert_eq!(recovered.table_len("jobs").unwrap(), jobs_before);
    assert_eq!(recovered.table_len("runs").unwrap(), running_before);
    assert_eq!(recovered.table_len("machines").unwrap(), 8);
    recovered.check_consistency().unwrap();

    // The recovered database answers the same operational queries.
    let r = recovered
        .query("SELECT COUNT(*) FROM jobs WHERE state = 'running'")
        .unwrap();
    assert!(r.scalar_int().unwrap() >= 0);

    // And a restarted CAS takes up where the crashed one stopped: a new job
    // gets an id the old pool never used and goes through the whole
    // lifecycle next to the recovered ones.
    let recovered = Arc::new(recovered);
    let mut cas = CasState::new(Arc::clone(&recovered)).unwrap();
    let job = cas.submit_job("after-the-crash", 60_000).unwrap();
    assert_eq!(job, 31, "30 jobs were submitted before the crash");
    cas.register_machine(100, "vm-new", 1.0, 100, 2048).unwrap();
    assert!(cas.run_scheduler().unwrap() >= 1);
    // Job ids are matched FIFO, so the new job waits for the backlog: keep
    // the new machine turning jobs over until it is handed job 31.
    loop {
        let HeartbeatReply::MatchInfo { job_id } = cas.heartbeat(100, HeartbeatReport::Idle).unwrap()
        else {
            panic!("the new machine is matched on every pass while jobs are queued");
        };
        cas.accept_match(100, job_id).unwrap();
        cas.heartbeat(100, HeartbeatReport::Running { job_id }).unwrap();
        cas.heartbeat(100, HeartbeatReport::Completed { job_id }).unwrap();
        if job_id == job {
            break;
        }
        cas.run_scheduler().unwrap();
    }
    let r = recovered
        .query("SELECT COUNT(*) FROM job_history WHERE owner = 'after-the-crash'")
        .unwrap();
    assert_eq!(r.scalar_int(), Some(1));
    recovered.check_consistency().unwrap();
}

/// In Condor, the in-memory collector/negotiator pair is a single point where
/// matchmaking stops; in CondorJ2 there is no matchmaking while the scheduler
/// pass is the only consumer of the same data, but the data itself survives in
/// the database. This test exercises the Condor half of that contrast.
#[test]
fn condor_matchmaking_outage_delays_but_does_not_lose_jobs() {
    let spec = ClusterSpec::uniform_fast(6, 1);
    let mut sim = CondorSimulation::new(
        CondorConfig {
            job_throttle_per_sec: 2.0,
            negotiation_interval: SimDuration::from_secs(5),
            ..CondorConfig::default()
        },
        &spec,
        3,
    );
    sim.fail_collector();
    sim.submit(0, JobSpec::fixed_batch(6, SimDuration::from_secs(30), "patient"));
    sim.run_until(SimTime::from_mins(3));
    assert_eq!(sim.completed(), 0);
    sim.restart_collector();
    sim.run_to_completion(SimTime::from_mins(30));
    assert_eq!(sim.completed(), 6);
}

/// The CondorJ2 scheduling-throughput advantage: with short jobs, a Condor
/// schedd at its default throttle cannot keep a cluster busy that CondorJ2
/// saturates comfortably (the contrast between Figure 7 and Figure 13).
#[test]
fn condorj2_sustains_higher_turnover_than_a_throttled_schedd() {
    let spec = ClusterSpec::uniform_fast(15, 4); // 60 slots
    let jobs = JobSpec::fixed_batch(600, SimDuration::from_secs(30), "turnover");

    let mut j2 = CondorJ2Simulation::new(CondorJ2Config::default(), &spec, 21);
    j2.submit(jobs.clone());
    let j2_end = j2.run_to_completion(SimTime::from_mins(120));

    let mut condor = CondorSimulation::new(CondorConfig::default(), &spec, 21);
    condor.submit(0, jobs);
    let condor_end = condor.run_to_completion(SimTime::from_mins(240));

    assert_eq!(j2.completed(), 600);
    assert_eq!(condor.completed(), 600);
    // 600 jobs at the default 0.5 jobs/s throttle take at least 20 minutes of
    // start processing alone; CondorJ2 is limited only by the cluster.
    assert!(
        j2_end.as_mins_f64() * 1.5 < condor_end.as_mins_f64(),
        "CondorJ2 {:.1} min vs Condor {:.1} min",
        j2_end.as_mins_f64(),
        condor_end.as_mins_f64()
    );
}

/// Administrators can pose ad-hoc relational queries over live CondorJ2 state —
/// the extensibility argument of Section 4.2.3 — including joins between jobs,
/// runs and machines.
#[test]
fn operational_data_answers_ad_hoc_queries() {
    let spec = ClusterSpec::uniform_fast(6, 2);
    let mut pool = CondorJ2Simulation::new(CondorJ2Config::default(), &spec, 13);
    pool.submit(JobSpec::fixed_batch(24, SimDuration::from_mins(4), "analyst"));
    pool.run_until(SimTime::from_mins(2));

    let db = pool.cas().database();
    let joined = db
        .query(
            "SELECT jobs.job_id, machines.name FROM jobs \
             JOIN runs ON jobs.job_id = runs.job_id \
             JOIN machines ON runs.machine_id = machines.machine_id \
             ORDER BY jobs.job_id",
        )
        .unwrap();
    assert!(!joined.is_empty(), "some jobs should be running");
    let counts = db
        .query("SELECT state, COUNT(*) AS n FROM jobs GROUP BY state ORDER BY state")
        .unwrap();
    assert!(!counts.is_empty());
}
