//! The CondorJ2 pool simulation: execute nodes pulling work from the CAS.
//!
//! [`CondorJ2Simulation`] wires the CAS (application container + database)
//! and the execute-node startds into the discrete-event engine. Execute nodes
//! always initiate the interaction — the pull model of Section 5.2.1 — by
//! invoking web services on the CAS; the CAS turns each message into SQL. The
//! simulation produces the measurements behind Figures 7–12 and Table 2.

use crate::cas::{register_services, CasState};
use crate::config::CondorJ2Config;
use appserver::{AppContainer, CostModel, ServiceRegistry, SoapRequest, SoapStatus};
use cluster_sim::{
    Cluster, ClusterSpec, CpuSample, EventCounter, EventQueue, InProgressTracker, JobSpec,
    NodeHealth, SimDuration, SimRng, SimTime, StartOutcome, TraceRecorder, VmId,
};
use relstore::OpStats;
use std::collections::HashMap;
use std::sync::Arc;

/// Events of the CondorJ2 simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    /// A startd contacts the CAS (heartbeat / poll).
    Poll { vm: VmId },
    /// The CAS matchmaking pass.
    SchedulerPass,
    /// A deferred batch submission.
    Submit { jobs: Vec<JobSpec> },
    /// Job setup finished on a node; the job begins executing.
    SetupDone { vm: VmId, job: i64 },
    /// Job setup timed out; the node dropped the job.
    DropDetected { vm: VmId, job: i64 },
    /// The job's runtime elapsed.
    JobFinished { vm: VmId, job: i64 },
    /// Starter teardown finished; the node returns to idle polling.
    TeardownDone { vm: VmId },
}

/// What a simulated execute node is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeActivity {
    Idle,
    SettingUp { job: i64 },
    Running { job: i64 },
    TearingDown,
}

/// Summary of one simulation run, consumed by the experiment harness.
#[derive(Debug, Clone)]
pub struct CondorJ2Report {
    /// Job completion events.
    pub completions: EventCounter,
    /// Jobs-in-progress series.
    pub in_progress: InProgressTracker,
    /// Server CPU samples (application server + DBMS host).
    pub server_cpu: Vec<CpuSample>,
    /// Five-minute rolling average of the server CPU samples (Figure 10).
    pub server_cpu_rolling: Vec<CpuSample>,
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Job starts dropped by execute nodes.
    pub drops: u64,
    /// Distinct virtual machines that dropped at least one job.
    pub dropped_vms: usize,
    /// Distinct physical machines that dropped at least one job.
    pub dropped_phys: usize,
    /// Web-service requests handled by the CAS.
    pub requests_handled: u64,
    /// Matches created by the scheduling pass.
    pub matches_made: u64,
    /// Database operation statistics at the end of the run.
    pub db_stats: OpStats,
    /// Data-flow trace of the first job, when tracing was enabled.
    pub trace: Option<TraceRecorder>,
    /// Simulated time when the run stopped.
    pub finished_at: SimTime,
}

/// The CondorJ2 simulation.
pub struct CondorJ2Simulation {
    config: CondorJ2Config,
    cluster: Cluster,
    health: NodeHealth,
    rng: SimRng,
    container: AppContainer<CasState>,
    state: CasState,
    queue: EventQueue<Event>,
    activity: Vec<NodeActivity>,
    job_runtime: HashMap<i64, SimDuration>,
    completions: EventCounter,
    in_progress: InProgressTracker,
    submitted: u64,
    completed: u64,
    periodic_started: bool,
    trace: Option<TraceRecorder>,
    traced_job: Option<i64>,
    traced_vm: Option<VmId>,
}

impl CondorJ2Simulation {
    /// Builds a CondorJ2 pool over the given cluster specification. Every
    /// execute slot registers itself with the CAS at construction time.
    pub fn new(config: CondorJ2Config, cluster_spec: &ClusterSpec, seed: u64) -> Self {
        Self::with_database(config, cluster_spec, seed, Arc::new(relstore::Database::new()))
    }

    /// As [`CondorJ2Simulation::new`], over an empty database the caller
    /// opened — a durable one, whose log outlives the CAS it served.
    pub fn with_database(
        config: CondorJ2Config,
        cluster_spec: &ClusterSpec,
        seed: u64,
        db: Arc<relstore::Database>,
    ) -> Self {
        let mut rng = SimRng::new(seed);
        let cluster = cluster_spec.build(&mut rng);
        let mut registry = ServiceRegistry::new();
        register_services(&mut registry);
        let mut container = AppContainer::new(
            Arc::clone(&db),
            registry,
            CostModel::cas_server(),
            0,
            config.server_cores,
            config.cpu_sample_interval,
        );
        container.set_maintenance_interval(config.maintenance_interval);
        let mut state = CasState::new(db).expect("schema deployment cannot fail on a fresh db");

        // Machine registration: each startd announces itself (and its
        // reboot-time attributes) before the experiment begins.
        for vm in &cluster.vms {
            let phys = &cluster.physical[vm.phys.0 as usize];
            let request = SoapRequest::new("registerMachine")
                .with("machine_id", vm.id.0 as i64)
                .with("name", cluster.vm_name(vm.id))
                .with("speed", phys.speed.slowdown)
                .with("phys_id", phys.id.0 as i64)
                .with("memory_mb", 2048i64);
            let (resp, _) = container.handle(&mut state, SimTime::ZERO, &request);
            debug_assert!(resp.is_success());
        }

        let activity = vec![NodeActivity::Idle; cluster.vm_count()];
        CondorJ2Simulation {
            health: NodeHealth::new(config.failure_model),
            queue: EventQueue::new(),
            completions: EventCounter::new("condorj2 completions"),
            in_progress: InProgressTracker::new(),
            job_runtime: HashMap::new(),
            submitted: 0,
            completed: 0,
            periodic_started: false,
            trace: None,
            traced_job: None,
            traced_vm: None,
            config,
            cluster,
            rng,
            container,
            state,
            activity,
        }
    }

    /// Enables data-flow tracing of the first submitted job (Table 2).
    pub fn enable_tracing(&mut self) {
        self.trace = Some(TraceRecorder::new());
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total jobs submitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Total jobs completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Read access to the CAS state (pool status queries, config, history).
    pub fn cas(&self) -> &CasState {
        &self.state
    }

    /// Mutable access to the CAS state (used by examples to pose ad-hoc
    /// queries or adjust configuration mid-run).
    pub fn cas_mut(&mut self) -> &mut CasState {
        &mut self.state
    }

    /// Submits jobs immediately through the `submitJob` web service.
    pub fn submit(&mut self, jobs: Vec<JobSpec>) {
        self.ensure_periodic_events();
        let now = self.queue.now();
        self.do_submit(now, jobs);
    }

    /// Schedules a batch submission at an absolute simulated time.
    pub fn submit_at(&mut self, time: SimTime, jobs: Vec<JobSpec>) {
        self.ensure_periodic_events();
        self.queue.schedule(time, Event::Submit { jobs });
    }

    fn do_submit(&mut self, now: SimTime, jobs: Vec<JobSpec>) {
        self.state.now_ms = now.0 as i64;
        for spec in jobs {
            let request = SoapRequest::new("submitJob")
                .with("owner", spec.owner.clone())
                .with("runtime_ms", spec.runtime.as_millis() as i64)
                .with("count", 1i64);
            let (resp, _) = self.container.handle(&mut self.state, now, &request);
            if !resp.is_success() {
                continue;
            }
            let job_id = resp.field("first_job_id").as_int().unwrap_or(0);
            self.job_runtime.insert(job_id, spec.runtime);
            self.submitted += 1;
            if self.traced_job.is_none() {
                if let Some(trace) = &mut self.trace {
                    trace.record("user", "CAS", "User invokes submit job service on CAS");
                    trace.record("CAS", "database", "CAS inserts a job tuple into database");
                    self.traced_job = Some(job_id);
                }
            }
        }
    }

    fn ensure_periodic_events(&mut self) {
        if self.periodic_started {
            return;
        }
        self.periodic_started = true;
        // Stagger the startd polls so 10,000 machines do not all call in the
        // same millisecond; the paper's ramp-up staggers machine start-up for
        // the same reason.
        for vm in 0..self.cluster.vm_count() {
            let jitter = SimDuration::from_millis(
                self.rng.uniform_int(0, self.config.idle_poll_interval.as_millis().max(1)),
            );
            self.queue
                .schedule(SimTime::ZERO + jitter, Event::Poll { vm: VmId(vm as u32) });
        }
        self.queue
            .schedule(SimTime::ZERO + self.config.scheduler_interval, Event::SchedulerPass);
    }

    fn unfinished_jobs(&self) -> u64 {
        self.submitted.saturating_sub(self.completed)
    }

    /// Runs the simulation until simulated time `until`.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some((time, event)) = self.queue.pop_before(until) {
            self.dispatch(time, event);
        }
    }

    /// Runs until every submitted job has completed or `max_time` is reached.
    pub fn run_to_completion(&mut self, max_time: SimTime) -> SimTime {
        loop {
            if self.unfinished_jobs() == 0 {
                return self.queue.now();
            }
            match self.queue.pop_before(max_time) {
                Some((time, event)) => self.dispatch(time, event),
                None => return self.queue.now().min(max_time),
            }
        }
    }

    fn dispatch(&mut self, now: SimTime, event: Event) {
        self.state.now_ms = now.0 as i64;
        match event {
            Event::Poll { vm } => self.handle_poll(now, vm),
            Event::SchedulerPass => self.handle_scheduler(now),
            Event::Submit { jobs } => self.do_submit(now, jobs),
            Event::SetupDone { vm, job } => self.handle_setup_done(now, vm, job),
            Event::DropDetected { vm, job } => self.handle_drop(now, vm, job),
            Event::JobFinished { vm, job } => self.handle_job_finished(now, vm, job),
            Event::TeardownDone { vm } => self.handle_teardown_done(now, vm),
        }
    }

    fn handle_poll(&mut self, now: SimTime, vm: VmId) {
        match self.activity[vm.0 as usize] {
            NodeActivity::Idle => {
                let request = SoapRequest::new("heartbeat")
                    .with("machine_id", vm.0 as i64)
                    .with("status", "idle");
                let trace_this = self.trace.is_some() && self.traced_vm.is_none();
                let (resp, _) = self.container.handle(&mut self.state, now, &request);
                if trace_this {
                    if let Some(trace) = &mut self.trace {
                        if trace.len() == 2 {
                            trace.record("startd", "CAS", "Startd invokes periodic heartbeat web service on CAS");
                            trace.record(
                                "CAS",
                                "database",
                                "CAS updates a machine tuple in the database, responds OK to startd",
                            );
                        }
                    }
                }
                if resp.status == SoapStatus::MatchInfo {
                    let job = resp.field("job_id").as_int().unwrap_or(0);
                    self.begin_claim(now, vm, job);
                } else {
                    self.queue
                        .schedule(now + self.config.idle_poll_interval, Event::Poll { vm });
                }
            }
            NodeActivity::Running { job } => {
                let request = SoapRequest::new("heartbeat")
                    .with("machine_id", vm.0 as i64)
                    .with("status", "running")
                    .with("job_id", job);
                let (_resp, _) = self.container.handle(&mut self.state, now, &request);
                if self.traced_job == Some(job) {
                    if let Some(trace) = &mut self.trace {
                        if trace.len() == 11 {
                            trace.record(
                                "startd",
                                "CAS",
                                "Startd invokes periodic heartbeat web service on CAS, includes job information from starter in SOAP message",
                            );
                            trace.record(
                                "CAS",
                                "database",
                                "CAS updates machine tuple, related job tuple in database, responds OK to startd",
                            );
                        }
                    }
                }
                self.queue
                    .schedule(now + self.config.running_heartbeat_interval, Event::Poll { vm });
            }
            // No polls while setting up or tearing down; the node calls back
            // when the local transition finishes.
            NodeActivity::SettingUp { .. } | NodeActivity::TearingDown => {}
        }
    }

    fn begin_claim(&mut self, now: SimTime, vm: VmId, job: i64) {
        if self.traced_job == Some(job) && self.traced_vm.is_none() {
            self.traced_vm = Some(vm);
            if let Some(trace) = &mut self.trace {
                trace.record("startd", "CAS", "Startd invokes periodic heartbeat web service on CAS");
                trace.record(
                    "CAS",
                    "database",
                    "CAS updates machine tuple in database, selects related match and job tuples, responds MATCHINFO to startd",
                );
            }
        }
        // The startd accepts the match before setting anything up.
        let request = SoapRequest::new("acceptMatch")
            .with("machine_id", vm.0 as i64)
            .with("job_id", job);
        let (resp, _) = self.container.handle(&mut self.state, now, &request);
        if self.traced_job == Some(job) {
            if let Some(trace) = &mut self.trace {
                if trace.len() == 8 {
                    trace.record("startd", "CAS", "Startd invokes acceptMatch web service on CAS");
                    trace.record(
                        "CAS",
                        "database",
                        "CAS deletes match tuple, inserts run tuple, updates related job tuple in the database, responds OK to startd",
                    );
                    trace.record("startd", "starter", "Startd spawns starter");
                }
            }
        }
        if !resp.is_success() {
            // The match disappeared (e.g. job removed); return to idle polling.
            self.queue
                .schedule(now + self.config.idle_poll_interval, Event::Poll { vm });
            return;
        }
        self.activity[vm.0 as usize] = NodeActivity::SettingUp { job };
        match self.health.try_start_job(&self.cluster, vm, &mut self.rng) {
            StartOutcome::Started { setup } => {
                self.queue.schedule(now + setup, Event::SetupDone { vm, job });
            }
            StartOutcome::Dropped { wasted } => {
                self.queue
                    .schedule(now + wasted, Event::DropDetected { vm, job });
            }
        }
    }

    fn handle_scheduler(&mut self, now: SimTime) {
        self.state.now_ms = now.0 as i64;
        let before = self.container.database().stats();
        let limit = if self.config.max_matches_per_pass == 0 {
            usize::MAX
        } else {
            self.config.max_matches_per_pass
        };
        let made = self.state.run_scheduler_limited(limit).unwrap_or(0);
        let cost = self.container.cost_of(&before);
        self.container.charge_background(now, "scheduler", cost);
        if made > 0 {
            if let Some(trace) = &mut self.trace {
                if trace.len() == 4 {
                    trace.record(
                        "CAS",
                        "database",
                        "CAS selects relevant machine tuples, job tuples from database for scheduling algorithm",
                    );
                    trace.record(
                        "CAS",
                        "database",
                        "CAS inserts match tuple, updates related job tuple in db",
                    );
                }
            }
        }
        if self.unfinished_jobs() > 0 || !self.queue.is_empty() {
            self.queue
                .schedule(now + self.config.scheduler_interval, Event::SchedulerPass);
        }
    }

    fn handle_setup_done(&mut self, now: SimTime, vm: VmId, job: i64) {
        self.health.finish_overhead(&self.cluster, vm);
        self.activity[vm.0 as usize] = NodeActivity::Running { job };
        self.in_progress.start(now);
        let runtime = self
            .job_runtime
            .get(&job)
            .copied()
            .unwrap_or(SimDuration::from_secs(60));
        self.queue.schedule(now + runtime, Event::JobFinished { vm, job });
        // First running heartbeat (carries the starter's job information).
        self.queue
            .schedule(now + self.config.running_heartbeat_interval, Event::Poll { vm });
    }

    fn handle_drop(&mut self, now: SimTime, vm: VmId, job: i64) {
        self.health.finish_overhead(&self.cluster, vm);
        // The startd reports the failure; the CAS requeues the job.
        let request = SoapRequest::new("heartbeat")
            .with("machine_id", vm.0 as i64)
            .with("status", "failed")
            .with("job_id", job);
        let (_resp, _) = self.container.handle(&mut self.state, now, &request);
        self.activity[vm.0 as usize] = NodeActivity::TearingDown;
        let teardown = self.health.teardown(&self.cluster, vm, &mut self.rng);
        self.queue.schedule(now + teardown, Event::TeardownDone { vm });
    }

    fn handle_job_finished(&mut self, now: SimTime, vm: VmId, job: i64) {
        self.in_progress.finish(now);
        let request = SoapRequest::new("heartbeat")
            .with("machine_id", vm.0 as i64)
            .with("status", "completed")
            .with("job_id", job);
        let (resp, _) = self.container.handle(&mut self.state, now, &request);
        if resp.is_success() {
            self.completed += 1;
            self.completions.record(now);
        }
        if self.traced_job == Some(job) {
            if let Some(trace) = &mut self.trace {
                if trace.len() == 13 {
                    trace.record(
                        "startd",
                        "CAS",
                        "Startd invokes periodic heartbeat web service on CAS, includes job completion information in SOAP message",
                    );
                    trace.record(
                        "CAS",
                        "database",
                        "CAS updates machine tuple, deletes related run and job tuples from database, responds OK to startd",
                    );
                }
            }
        }
        self.activity[vm.0 as usize] = NodeActivity::TearingDown;
        let teardown = self.health.teardown(&self.cluster, vm, &mut self.rng);
        self.queue.schedule(now + teardown, Event::TeardownDone { vm });
    }

    fn handle_teardown_done(&mut self, now: SimTime, vm: VmId) {
        self.health.finish_overhead(&self.cluster, vm);
        self.activity[vm.0 as usize] = NodeActivity::Idle;
        // Poll soon: the node advertises itself as idle and asks for work.
        self.queue
            .schedule(now + SimDuration::from_millis(500), Event::Poll { vm });
    }

    /// Produces the run report.
    pub fn report(&self) -> CondorJ2Report {
        CondorJ2Report {
            completions: self.completions.clone(),
            in_progress: self.in_progress.clone(),
            server_cpu: self.container.cpu_samples(),
            server_cpu_rolling: self.container.cpu_rolling(5),
            submitted: self.submitted,
            completed: self.completed,
            drops: self.health.total_drops(),
            dropped_vms: self.health.dropped_vm_count(),
            dropped_phys: self.health.dropped_phys_count(),
            requests_handled: self.container.requests_handled(),
            matches_made: self.state.matches_made,
            db_stats: self.container.database().stats(),
            trace: self.trace.clone(),
            finished_at: self.queue.now(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> CondorJ2Config {
        CondorJ2Config {
            idle_poll_interval: SimDuration::from_secs(2),
            scheduler_interval: SimDuration::from_secs(2),
            running_heartbeat_interval: SimDuration::from_secs(30),
            ..CondorJ2Config::default()
        }
    }

    #[test]
    fn completes_a_small_workload() {
        let spec = ClusterSpec::uniform_fast(5, 2);
        let mut sim = CondorJ2Simulation::new(fast_config(), &spec, 1);
        sim.submit(JobSpec::fixed_batch(20, SimDuration::from_secs(60), "alice"));
        let end = sim.run_to_completion(SimTime::from_mins(60));
        assert_eq!(sim.completed(), 20);
        let report = sim.report();
        assert_eq!(report.completed, 20);
        assert!(report.matches_made >= 20);
        assert!(report.requests_handled > 20);
        assert!(report.db_stats.commits > 0);
        assert!(end < SimTime::from_mins(10), "two waves of one-minute jobs: {end}");
        // All state for finished jobs moved to history.
        assert_eq!(sim.cas().database().table_len("jobs").unwrap(), 0);
        assert_eq!(sim.cas().database().table_len("job_history").unwrap(), 20);
        sim.cas().database().check_consistency().unwrap();
    }

    #[test]
    fn pull_model_keeps_all_nodes_busy() {
        let spec = ClusterSpec::uniform_fast(10, 1);
        let mut sim = CondorJ2Simulation::new(fast_config(), &spec, 2);
        sim.submit(JobSpec::fixed_batch(30, SimDuration::from_secs(120), "bob"));
        sim.run_until(SimTime::from_mins(1));
        let report = sim.report();
        // Within a minute every node should have pulled a job.
        assert_eq!(report.in_progress.peak(), 10);
    }

    #[test]
    fn trace_records_the_condorj2_data_flow() {
        let mut config = fast_config();
        config.idle_poll_interval = SimDuration::from_secs(1);
        config.scheduler_interval = SimDuration::from_secs(1);
        config.running_heartbeat_interval = SimDuration::from_secs(10);
        let spec = ClusterSpec::uniform_fast(1, 1);
        let mut sim = CondorJ2Simulation::new(config, &spec, 3);
        sim.enable_tracing();
        sim.submit(JobSpec::fixed_batch(1, SimDuration::from_secs(30), "carol"));
        sim.run_to_completion(SimTime::from_mins(10));
        let trace = sim.report().trace.expect("tracing enabled");
        assert_eq!(trace.len(), 15, "paper's Table 2 lists 15 steps:\n{}", trace.to_table("t"));
        // Five entities: user, CAS, database, startd, starter.
        assert_eq!(trace.entities().len(), 5, "{:?}", trace.entities());
        // Four communication channels (Section 4.2.3).
        assert_eq!(trace.channels().len(), 4, "{:?}", trace.channels());
    }

    #[test]
    fn dropped_jobs_are_requeued_and_eventually_finish() {
        // Slow P3 nodes churning through six-second jobs drop some of them,
        // but the CAS requeues each drop and the workload still completes —
        // the behaviour behind Figures 7 and 8.
        let spec = ClusterSpec {
            physical_machines: 4,
            vms_per_machine: 4,
            speed_mix: vec![(1.0, cluster_sim::SpeedClass::p3_single())],
        };
        let config = fast_config();
        let mut sim = CondorJ2Simulation::new(config, &spec, 4);
        sim.submit(JobSpec::fixed_batch(64, SimDuration::from_secs(6), "dave"));
        sim.run_to_completion(SimTime::from_mins(120));
        let report = sim.report();
        assert_eq!(report.completed, 64, "requeued jobs must finish eventually");
        assert!(report.drops > 0, "expected drops on slow oversubscribed nodes");
        assert!(report.dropped_vms > 0);
        assert_eq!(report.completed, report.submitted);
    }
}
