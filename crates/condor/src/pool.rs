//! The Condor pool simulation: daemons wired into the discrete-event engine.
//!
//! [`CondorSimulation`] drives the process-centric baseline end to end: users
//! submit jobs to schedds, startds advertise to the collector, the negotiator
//! allocates slots, schedds push jobs to execute nodes subject to the job
//! throttle and their queue-length-dependent start cost, shadows and starters
//! monitor execution, and post-execution processing removes completed jobs.
//! The simulation produces the measurements behind Figures 13–16, Table 1 and
//! the Section 5.3.2 large-cluster crash observation.

use crate::config::CondorConfig;
use crate::matchmaker::{Collector, Negotiator, SlotState};
use crate::schedd::{QueuedJob, Schedd};
use crate::startd::ExecNode;
use appserver::RequestCost;
use cluster_sim::{
    Cluster, ClusterSpec, CpuAccountant, CpuSample, EventCounter, EventQueue, InProgressTracker,
    JobSpec, NodeHealth, SimDuration, SimRng, SimTime, StartOutcome, TimeSeries, TraceRecorder,
    VmId,
};
use std::collections::HashMap;

/// Events of the Condor simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    /// Periodic negotiation cycle.
    Negotiate,
    /// Periodic status updates from startds and schedds to the collector.
    CollectorUpdates,
    /// A schedd attempts to start its next idle job on a claimed slot.
    TryStart { schedd: usize },
    /// A deferred batch submission (used by the large-cluster ramp-up).
    Submit { schedd: usize, jobs: Vec<JobSpec> },
    /// Job setup finished on a node; the job begins executing.
    SetupDone { vm: VmId, job: u64 },
    /// Job setup timed out; the node dropped the job.
    DropDetected { vm: VmId, job: u64 },
    /// The job's runtime elapsed.
    JobFinished { vm: VmId, job: u64 },
    /// Starter teardown finished; the slot is claimed-idle again.
    TeardownDone { vm: VmId },
    /// Periodic metric sampling (queue lengths).
    Sample,
}

/// Summary of one simulation run, consumed by the experiment harness.
#[derive(Debug, Clone)]
pub struct CondorReport {
    /// Job completion events.
    pub completions: EventCounter,
    /// Jobs-in-progress series.
    pub in_progress: InProgressTracker,
    /// Total queue length (all schedds), sampled once a minute.
    pub queue_length: TimeSeries,
    /// Per-schedd CPU samples (each schedd is a single thread / one core).
    pub schedd_cpu: Vec<Vec<CpuSample>>,
    /// Jobs completed.
    pub completed: u64,
    /// Crash time of each schedd that crashed.
    pub crashes: Vec<(usize, SimTime)>,
    /// Data-flow trace of the first job, when tracing was enabled.
    pub trace: Option<TraceRecorder>,
}

/// The Condor baseline simulation.
pub struct CondorSimulation {
    config: CondorConfig,
    cluster: Cluster,
    health: NodeHealth,
    rng: SimRng,
    schedds: Vec<Schedd>,
    nodes: Vec<ExecNode>,
    collector: Collector,
    negotiator: Negotiator,
    queue: EventQueue<Event>,
    schedd_cpu: Vec<CpuAccountant>,
    completions: EventCounter,
    in_progress: InProgressTracker,
    queue_series: TimeSeries,
    job_specs: HashMap<u64, JobSpec>,
    job_schedd: HashMap<u64, usize>,
    next_job_id: u64,
    submitted: u64,
    completed: u64,
    start_pending: Vec<bool>,
    periodic_started: bool,
    trace: Option<TraceRecorder>,
    traced_job: Option<u64>,
}

impl CondorSimulation {
    /// Builds a pool over the given cluster specification.
    pub fn new(config: CondorConfig, cluster_spec: &ClusterSpec, seed: u64) -> Self {
        let mut rng = SimRng::new(seed);
        let cluster = cluster_spec.build(&mut rng);
        let nodes = cluster.vms.iter().map(|vm| ExecNode::new(vm.id)).collect();
        let schedds = (0..config.schedd_count.max(1))
            .map(|i| Schedd::new(i, config.clone()))
            .collect::<Vec<_>>();
        let schedd_cpu = (0..config.schedd_count.max(1))
            .map(|_| CpuAccountant::new(1, config.cpu_sample_interval))
            .collect();
        CondorSimulation {
            health: NodeHealth::new(config.failure_model),
            schedd_cpu,
            start_pending: vec![false; config.schedd_count.max(1)],
            schedds,
            collector: Collector::new(),
            negotiator: Negotiator::new(),
            queue: EventQueue::new(),
            completions: EventCounter::new("condor completions"),
            in_progress: InProgressTracker::new(),
            queue_series: TimeSeries::new("queue length"),
            job_specs: HashMap::new(),
            job_schedd: HashMap::new(),
            next_job_id: 0,
            submitted: 0,
            completed: 0,
            periodic_started: false,
            trace: None,
            traced_job: None,
            config,
            cluster,
            rng,
            nodes,
        }
    }

    /// Enables data-flow tracing of the first submitted job (Table 1).
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

    /// Takes the collector down (its in-memory state is lost).
    pub fn fail_collector(&mut self) {
        self.collector.fail();
    }

    /// Restarts the collector; it repopulates as updates arrive.
    pub fn restart_collector(&mut self) {
        self.collector.restart();
    }

    /// Takes the negotiator down; no new matches are made while it is down.
    pub fn fail_negotiator(&mut self) {
        self.negotiator.fail();
    }

    /// Restarts the negotiator.
    pub fn restart_negotiator(&mut self) {
        self.negotiator.restart();
    }

    /// Submits jobs to a schedd immediately.
    pub fn submit(&mut self, schedd: usize, jobs: Vec<JobSpec>) {
        self.ensure_periodic_events();
        let now = self.queue.now();
        self.do_submit(now, schedd, jobs);
    }

    /// Schedules a batch submission at an absolute time (pulsed ramp-up).
    pub fn submit_at(&mut self, time: SimTime, schedd: usize, jobs: Vec<JobSpec>) {
        self.ensure_periodic_events();
        self.queue.schedule(time, Event::Submit { schedd, jobs });
    }

    fn do_submit(&mut self, now: SimTime, schedd: usize, jobs: Vec<JobSpec>) {
        let schedd = schedd.min(self.schedds.len() - 1);
        let mut queued = Vec::with_capacity(jobs.len());
        for spec in jobs {
            self.next_job_id += 1;
            let id = self.next_job_id;
            if self.traced_job.is_none() {
                if let Some(trace) = &mut self.trace {
                    trace.record(
                        "user",
                        "schedd",
                        "User submits job to schedd, schedd creates job in in-memory queue, logs job to disk",
                    );
                    self.traced_job = Some(id);
                }
            }
            self.job_specs.insert(id, spec.clone());
            self.job_schedd.insert(id, schedd);
            queued.push((id, spec));
            self.submitted += 1;
        }
        self.schedds[schedd].submit(now, queued);
        self.schedule_try_start(schedd);
    }

    fn ensure_periodic_events(&mut self) {
        if self.periodic_started {
            return;
        }
        self.periodic_started = true;
        self.queue
            .schedule(SimTime(1_000), Event::CollectorUpdates);
        self.queue
            .schedule(SimTime::ZERO + self.config.negotiation_interval, Event::Negotiate);
        self.queue.schedule(SimTime(30_000), Event::Sample);
    }

    fn unfinished_jobs(&self) -> u64 {
        self.submitted.saturating_sub(self.completed)
    }

    fn all_schedds_dead(&self) -> bool {
        self.schedds.iter().all(|s| !s.is_alive())
    }

    fn schedule_try_start(&mut self, schedd: usize) {
        if self.start_pending[schedd] || !self.schedds[schedd].is_alive() {
            return;
        }
        if self.schedds[schedd].queue_len() == 0 {
            return;
        }
        if self.schedds[schedd].idle_claimed_slot().is_none() {
            return;
        }
        self.start_pending[schedd] = true;
        self.queue
            .schedule(self.queue.now(), Event::TryStart { schedd });
    }

    fn charge_schedd(&mut self, schedd: usize, at: SimTime, cost: SimDuration) {
        // Schedd work is mostly user computation with a log-write IO share.
        let split = RequestCost {
            user: cost.mul_f64(0.75),
            system: cost.mul_f64(0.05),
            io: cost.mul_f64(0.20),
        };
        split.charge_to(&mut self.schedd_cpu[schedd], at);
    }

    /// Runs the simulation until simulated time `until`.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some((time, event)) = self.queue.pop_before(until) {
            self.dispatch(time, event);
        }
    }

    /// Runs until every submitted job has completed, every schedd has crashed,
    /// or `max_time` is reached. Returns the time the run stopped.
    pub fn run_to_completion(&mut self, max_time: SimTime) -> SimTime {
        loop {
            if self.unfinished_jobs() == 0 || self.all_schedds_dead() {
                return self.queue.now();
            }
            match self.queue.pop_before(max_time) {
                Some((time, event)) => self.dispatch(time, event),
                None => return self.queue.now().min(max_time),
            }
        }
    }

    fn dispatch(&mut self, now: SimTime, event: Event) {
        match event {
            Event::Submit { schedd, jobs } => self.do_submit(now, schedd, jobs),
            Event::Negotiate => self.handle_negotiate(now),
            Event::CollectorUpdates => self.handle_collector_updates(now),
            Event::TryStart { schedd } => self.handle_try_start(now, schedd),
            Event::SetupDone { vm, job } => self.handle_setup_done(now, vm, job),
            Event::DropDetected { vm, job } => self.handle_drop(now, vm, job),
            Event::JobFinished { vm, job } => self.handle_job_finished(now, vm, job),
            Event::TeardownDone { vm } => self.handle_teardown_done(now, vm),
            Event::Sample => self.handle_sample(now),
        }
    }

    fn handle_collector_updates(&mut self, now: SimTime) {
        // Every startd and every schedd refreshes its state at the collector.
        for node in &self.nodes {
            let state = if node.is_running() {
                SlotState::Busy
            } else if node.claiming_schedd().is_some() {
                SlotState::Claimed
            } else {
                SlotState::Unclaimed
            };
            self.collector.update_slot(now, node.vm, state);
        }
        for schedd in &self.schedds {
            self.collector
                .update_schedd(now, schedd.index, schedd.queue_len(), schedd.running());
        }
        if let (Some(trace), false) = (&mut self.trace, self.traced_job.is_none()) {
            if trace.len() == 1 {
                trace.record("schedd", "collector", "Schedd sends job queue summary to collector");
                trace.record("startd", "collector", "Startd sends periodic heartbeat to collector");
            }
        }
        if self.unfinished_jobs() > 0 && !self.all_schedds_dead() {
            self.queue
                .schedule(now + self.config.collector_update_interval, Event::CollectorUpdates);
        }
    }

    fn handle_negotiate(&mut self, now: SimTime) {
        // Refresh the collector's view of unclaimed slots (status updates are
        // also sent on state change in real Condor; this keeps matchmaking
        // from stalling between full refresh cycles).
        for node in &self.nodes {
            if node.claiming_schedd().is_none() {
                self.collector.update_slot(now, node.vm, SlotState::Unclaimed);
            }
        }
        let demands: Vec<(usize, usize, Option<usize>)> = self
            .schedds
            .iter()
            .map(|s| {
                (
                    if s.is_alive() { s.queue_len() } else { 0 },
                    s.claimed_slots().len(),
                    self.config.max_running_per_schedd,
                )
            })
            .collect();
        let allocations = self.negotiator.negotiate(&self.collector, &demands);

        let mut touched = Vec::new();
        let trace_first = self.trace.is_some() && !allocations.is_empty();
        for alloc in allocations {
            let node = &mut self.nodes[alloc.vm.0 as usize];
            if node.accept_claim(now, alloc.schedd) {
                self.schedds[alloc.schedd].add_claim(alloc.vm);
                touched.push(alloc.schedd);
            }
        }
        if trace_first {
            if let Some(trace) = &mut self.trace {
                if trace.len() <= 3 {
                    trace.record(
                        "collector",
                        "negotiator",
                        "Collector forwards job, machine data to negotiator for scheduling algorithm",
                    );
                    trace.record(
                        "negotiator",
                        "schedd",
                        "Negotiator contacts schedd for job-specific information, schedd sends job data to negotiator",
                    );
                    trace.record("negotiator", "schedd", "Negotiator informs schedd of job-machine match");
                    trace.record("negotiator", "startd", "Negotiator informs startd of job-machine match");
                }
            }
        }
        for schedd in touched {
            self.schedule_try_start(schedd);
        }
        if self.unfinished_jobs() > 0 && !self.all_schedds_dead() {
            self.queue
                .schedule(now + self.config.negotiation_interval, Event::Negotiate);
        }
    }

    fn handle_try_start(&mut self, now: SimTime, schedd_idx: usize) {
        self.start_pending[schedd_idx] = false;
        if !self.schedds[schedd_idx].is_alive() {
            return;
        }
        // Pick a claimed slot that is idle on *both* sides: no shadow at the
        // schedd and no starter still setting up or tearing down on the node.
        let Some(vm) = self.schedds[schedd_idx]
            .claimed_slots()
            .iter()
            .copied()
            .find(|vm| {
                self.nodes[vm.0 as usize].is_idle_claimed()
                    && self.schedds[schedd_idx].shadow_on(*vm).is_none()
            })
        else {
            return;
        };
        let Some(job) = self.schedds[schedd_idx].take_next_job() else {
            return;
        };
        let job_id = job.id;

        // The schedd's single thread processes the start: queue scan, log
        // write, contacting the startd, spawning the shadow.
        let (begin, cost) = self.schedds[schedd_idx].begin_start_processing(now);
        self.charge_schedd(schedd_idx, begin, cost);
        let handed_off = begin + cost;
        self.schedds[schedd_idx].spawn_shadow(handed_off, job_id, vm);
        self.nodes[vm.0 as usize].begin_setup(handed_off, job_id);

        if self.traced_job == Some(job_id) {
            if let Some(trace) = &mut self.trace {
                trace.record("schedd", "startd", "Schedd contacts startd to confirm match");
                trace.record("schedd", "shadow", "Schedd spawns shadow to monitor job progress");
                trace.record("startd", "starter", "Startd spawns starter to start up, monitor job");
                trace.record(
                    "shadow",
                    "starter",
                    "Shadow, starter establish socket connection to exchange job state information",
                );
            }
        }

        // The execute node sets up the job; slow, contended nodes may drop it.
        match self.health.try_start_job(&self.cluster, vm, &mut self.rng) {
            StartOutcome::Started { setup } => {
                self.queue
                    .schedule(handed_off + setup, Event::SetupDone { vm, job: job_id });
            }
            StartOutcome::Dropped { wasted } => {
                self.queue
                    .schedule(handed_off + wasted, Event::DropDetected { vm, job: job_id });
            }
        }
        // Keep pushing jobs while there is work and capacity.
        self.schedule_try_start(schedd_idx);
    }

    fn handle_setup_done(&mut self, now: SimTime, vm: VmId, job: u64) {
        self.health.finish_overhead(&self.cluster, vm);
        if !self.nodes[vm.0 as usize].begin_running(now) {
            return;
        }
        self.in_progress.start(now);
        let runtime = self
            .job_specs
            .get(&job)
            .map(|s| s.runtime)
            .unwrap_or(SimDuration::from_secs(60));
        if self.traced_job == Some(job) {
            if let Some(trace) = &mut self.trace {
                trace.record("starter", "shadow", "Starter sends shadow periodic job state update messages");
                trace.record("shadow", "schedd", "Shadow forwards job update messages to schedd");
            }
        }
        self.queue
            .schedule(now + runtime, Event::JobFinished { vm, job });
    }

    fn handle_drop(&mut self, now: SimTime, vm: VmId, job: u64) {
        self.health.finish_overhead(&self.cluster, vm);
        let schedd_idx = self.job_schedd.get(&job).copied().unwrap_or(0);
        self.nodes[vm.0 as usize].begin_teardown(now, false);
        if self.schedds[schedd_idx].is_alive() {
            self.schedds[schedd_idx].fail_job(vm);
            let spec = self
                .job_specs
                .get(&job)
                .cloned()
                .unwrap_or_else(|| JobSpec::new(SimDuration::from_secs(60), "unknown"));
            self.schedds[schedd_idx].requeue(QueuedJob {
                id: job,
                spec,
                submitted: now,
                requeues: 1,
            });
        }
        let teardown = self.health.teardown(&self.cluster, vm, &mut self.rng);
        self.queue
            .schedule(now + teardown, Event::TeardownDone { vm });
    }

    fn handle_job_finished(&mut self, now: SimTime, vm: VmId, job: u64) {
        let schedd_idx = self.job_schedd.get(&job).copied().unwrap_or(0);
        self.nodes[vm.0 as usize].begin_teardown(now, true);
        self.in_progress.finish(now);

        if self.schedds[schedd_idx].is_alive() && self.schedds[schedd_idx].over_memory() {
            // Section 5.3.2: the submit machine runs out of memory once jobs
            // start turning over with thousands of shadows resident.
            self.schedds[schedd_idx].crash(now);
        }
        if let Some((_shadow, cost)) = self.schedds[schedd_idx].complete_job(now, vm) {
            self.charge_schedd(schedd_idx, now, cost);
            self.completed += 1;
            self.completions.record(now);
            if self.traced_job == Some(job) {
                if let Some(trace) = &mut self.trace {
                    trace.record("starter", "shadow", "Starter notifies shadow when job completes, exits");
                    trace.record(
                        "shadow",
                        "schedd",
                        "Shadow exits, schedd captures exit code, removes job from queue",
                    );
                }
            }
        }
        let teardown = self.health.teardown(&self.cluster, vm, &mut self.rng);
        self.queue
            .schedule(now + teardown, Event::TeardownDone { vm });
    }

    fn handle_teardown_done(&mut self, now: SimTime, vm: VmId) {
        self.health.finish_overhead(&self.cluster, vm);
        self.nodes[vm.0 as usize].finish_teardown(now);
        let Some(schedd_idx) = self.nodes[vm.0 as usize].claiming_schedd() else {
            return;
        };
        if !self.schedds[schedd_idx].is_alive() || self.schedds[schedd_idx].queue_len() == 0 {
            // Nothing left for this claim; hand the slot back to the pool.
            self.nodes[vm.0 as usize].release(now);
            self.schedds[schedd_idx].release_claim(vm);
            return;
        }
        self.schedule_try_start(schedd_idx);
    }

    fn handle_sample(&mut self, now: SimTime) {
        let total_queue: usize = self.schedds.iter().map(Schedd::queue_len).sum();
        self.queue_series.push(now, total_queue as f64);
        if self.unfinished_jobs() > 0 && !self.all_schedds_dead() {
            self.queue.schedule(now + SimDuration::from_secs(60), Event::Sample);
        }
    }

    /// Produces the run report.
    pub fn report(&self) -> CondorReport {
        CondorReport {
            completions: self.completions.clone(),
            in_progress: self.in_progress.clone(),
            queue_length: self.queue_series.clone(),
            schedd_cpu: self.schedd_cpu.iter().map(CpuAccountant::samples).collect(),
            completed: self.completed,
            crashes: self
                .schedds
                .iter()
                .filter_map(|s| s.crashed_at().map(|t| (s.index, t)))
                .collect(),
            trace: self.trace.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> CondorConfig {
        CondorConfig {
            job_throttle_per_sec: 1.0,
            negotiation_interval: SimDuration::from_secs(5),
            collector_update_interval: SimDuration::from_secs(30),
            ..CondorConfig::default()
        }
    }

    #[test]
    fn completes_a_small_workload() {
        let spec = ClusterSpec::uniform_fast(5, 2);
        let mut sim = CondorSimulation::new(small_config(), &spec, 1);
        sim.submit(0, JobSpec::fixed_batch(20, SimDuration::from_secs(60), "alice"));
        let end = sim.run_to_completion(SimTime::from_mins(120));
        assert_eq!(sim.completed(), 20);
        assert_eq!(sim.submitted(), 20);
        assert!(end > SimTime::ZERO);
        let report = sim.report();
        assert_eq!(report.completed, 20);
        assert_eq!(report.completions.count(), 20);
        assert!(report.crashes.is_empty());
        // Ten slots and a 1 job/s throttle: 20 one-minute jobs finish well
        // under ten minutes but not faster than two job "waves".
        assert!(end >= SimTime::from_secs(100));
        assert!(end <= SimTime::from_mins(10));
    }

    #[test]
    fn throttle_limits_job_start_rate() {
        let mut config = small_config();
        config.job_throttle_per_sec = 0.5;
        let spec = ClusterSpec::uniform_fast(30, 1);
        let mut sim = CondorSimulation::new(config, &spec, 2);
        // 30 ten-second jobs on 30 slots: with a 0.5/s throttle the starts
        // alone take ~60 seconds, so completion cannot beat that.
        sim.submit(0, JobSpec::fixed_batch(30, SimDuration::from_secs(10), "bob"));
        let end = sim.run_to_completion(SimTime::from_mins(30));
        assert_eq!(sim.completed(), 30);
        assert!(end >= SimTime::from_secs(60), "finished too fast: {end}");
    }

    #[test]
    fn trace_records_the_condor_data_flow() {
        let mut config = small_config();
        config.negotiation_interval = SimDuration::from_secs(2);
        config.collector_update_interval = SimDuration::from_secs(1);
        let spec = ClusterSpec::uniform_fast(1, 1);
        let mut sim = CondorSimulation::new(config, &spec, 3);
        sim.enable_tracing();
        sim.submit(0, JobSpec::fixed_batch(1, SimDuration::from_secs(30), "carol"));
        sim.run_to_completion(SimTime::from_mins(10));
        let report = sim.report();
        let trace = report.trace.expect("tracing enabled");
        assert_eq!(trace.len(), 15, "paper's Table 1 lists 15 steps:\n{}", trace.to_table("t"));
        // Seven entities: user, schedd, shadow, collector, negotiator, startd, starter.
        assert_eq!(trace.entities().len(), 7);
        // Ten distinct communication channels (Section 4.2.3).
        assert_eq!(trace.channels().len(), 10);
    }

    #[test]
    fn matchmaking_stops_while_negotiator_is_down() {
        let spec = ClusterSpec::uniform_fast(4, 1);
        let mut sim = CondorSimulation::new(small_config(), &spec, 4);
        sim.fail_negotiator();
        sim.submit(0, JobSpec::fixed_batch(4, SimDuration::from_secs(30), "dave"));
        sim.run_until(SimTime::from_mins(5));
        assert_eq!(sim.completed(), 0, "no matches while the negotiator is down");
        sim.restart_negotiator();
        sim.run_to_completion(SimTime::from_mins(30));
        assert_eq!(sim.completed(), 4, "work resumes after restart");
    }

    #[test]
    fn schedd_limit_spreads_work_across_schedds() {
        let mut config = small_config();
        config.schedd_count = 3;
        config.max_running_per_schedd = Some(2);
        let spec = ClusterSpec::uniform_fast(6, 1);
        let mut sim = CondorSimulation::new(config, &spec, 5);
        for s in 0..3 {
            sim.submit(s, JobSpec::fixed_batch(4, SimDuration::from_secs(60), "erin"));
        }
        sim.run_to_completion(SimTime::from_mins(30));
        assert_eq!(sim.completed(), 12);
        let report = sim.report();
        // Each schedd did some of the work (claims were spread by the limit).
        for cpu in &report.schedd_cpu {
            assert!(cpu.iter().any(|s| s.busy() > 0.0));
        }
    }
}
