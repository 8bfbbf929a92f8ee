//! The schedd (job-queue manager) and its shadow processes.
//!
//! The schedd is the heart of the process-centric baseline: a single-threaded
//! daemon that owns an in-memory job queue backed by a persistent log used
//! only for recovery, spawns one shadow process per executing job, and starts
//! jobs no faster than its configured throttle. Its per-start processing cost
//! grows with the length of the queue, which is what produces the
//! throughput-versus-queue-length degradation of Figure 13 and the CPU
//! saturation of Figure 14.

use crate::config::CondorConfig;
use cluster_sim::{JobSpec, SimDuration, SimTime, VmId};
use std::collections::{BTreeMap, VecDeque};

/// A job queued at a schedd.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedJob {
    /// Pool-wide job id.
    pub id: u64,
    /// The job description.
    pub spec: JobSpec,
    /// Submission time.
    pub submitted: SimTime,
    /// How many times the job has been dropped by an execute node and requeued.
    pub requeues: u32,
}

/// One shadow process: the submit-side representative of a running job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shadow {
    /// The job the shadow monitors.
    pub job_id: u64,
    /// The execute slot the job runs on.
    pub vm: VmId,
    /// When the shadow was spawned.
    pub spawned: SimTime,
}

/// The schedd daemon state.
#[derive(Debug)]
pub struct Schedd {
    /// Index of this schedd on the submit machine.
    pub index: usize,
    config: CondorConfig,
    queue: VecDeque<QueuedJob>,
    /// Shadows keyed by execute slot; one per running job.
    shadows: BTreeMap<VmId, Shadow>,
    /// Execute slots claimed for this schedd by the negotiator.
    claimed: Vec<VmId>,
    /// Earliest time the throttle allows the next start.
    next_start_allowed: SimTime,
    /// The single schedd thread is busy until this time.
    busy_until: SimTime,
    /// Writes appended to the persistent job log (recovery only).
    log_writes: u64,
    completed: u64,
    crashed_at: Option<SimTime>,
}

impl Schedd {
    /// Creates an idle schedd.
    pub fn new(index: usize, config: CondorConfig) -> Self {
        Schedd {
            index,
            config,
            queue: VecDeque::new(),
            shadows: BTreeMap::new(),
            claimed: Vec::new(),
            next_start_allowed: SimTime::ZERO,
            busy_until: SimTime::ZERO,
            log_writes: 0,
            completed: 0,
            crashed_at: None,
        }
    }

    /// Submits jobs to this schedd's queue (each is logged for recovery).
    pub fn submit(&mut self, now: SimTime, jobs: impl IntoIterator<Item = (u64, JobSpec)>) {
        for (id, spec) in jobs {
            self.queue.push_back(QueuedJob {
                id,
                spec,
                submitted: now,
                requeues: 0,
            });
            self.log_writes += 1;
        }
    }

    /// Jobs waiting in the queue (idle jobs).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Jobs currently executing under this schedd (equals live shadows).
    pub fn running(&self) -> usize {
        self.shadows.len()
    }

    /// When the schedd crashed, if it did.
    pub fn crashed_at(&self) -> Option<SimTime> {
        self.crashed_at
    }

    /// True when the schedd is still alive.
    pub fn is_alive(&self) -> bool {
        self.crashed_at.is_none()
    }

    /// Execute slots currently claimed for this schedd.
    pub fn claimed_slots(&self) -> &[VmId] {
        &self.claimed
    }

    /// Records a claim on an execute slot granted by the negotiator.
    pub fn add_claim(&mut self, vm: VmId) {
        if !self.claimed.contains(&vm) {
            self.claimed.push(vm);
        }
    }

    /// Releases a claim (slot handed back to the pool).
    pub fn release_claim(&mut self, vm: VmId) {
        self.claimed.retain(|v| *v != vm);
    }

    /// A claimed slot with no job currently running on it, if any.
    pub fn idle_claimed_slot(&self) -> Option<VmId> {
        self.claimed
            .iter()
            .copied()
            .find(|vm| !self.shadows.contains_key(vm))
    }

    /// True when the per-schedd running-job limit (if configured) is reached.
    pub fn at_running_limit(&self) -> bool {
        match self.config.max_running_per_schedd {
            Some(limit) => self.shadows.len() >= limit,
            None => false,
        }
    }

    /// Resident memory of the schedd plus its shadows, in MiB.
    pub fn memory_mib(&self) -> f64 {
        self.shadows.len() as f64 * self.config.shadow_memory_mib
            + self.queue.len() as f64 * self.config.queued_job_memory_mib
            + 64.0
    }

    /// True when memory use exceeds the submit machine's capacity.
    pub fn over_memory(&self) -> bool {
        self.memory_mib() > self.config.submit_machine_memory_mib
    }

    /// Marks the schedd as crashed (e.g. out of memory during turnover).
    pub fn crash(&mut self, now: SimTime) {
        if self.crashed_at.is_none() {
            self.crashed_at = Some(now);
            self.shadows.clear();
            self.claimed.clear();
        }
    }

    /// The processing cost of the next job start given the current queue.
    pub fn next_start_cost(&self) -> SimDuration {
        self.config.start_cost(self.queue.len())
    }

    /// Decides when the schedd can next begin start processing and how long it
    /// will take, honouring both the throttle and the single thread. Returns
    /// `(processing_begins, processing_cost)` and advances the internal
    /// throttle/busy bookkeeping; the caller charges the cost to the CPU model
    /// and schedules the downstream events.
    pub fn begin_start_processing(&mut self, now: SimTime) -> (SimTime, SimDuration) {
        let cost = self.next_start_cost();
        let begin = now.max(self.next_start_allowed).max(self.busy_until);
        self.busy_until = begin + cost;
        self.next_start_allowed = begin + self.config.throttle_interval();
        self.log_writes += 1;
        (begin, cost)
    }

    /// Pops the next idle job for starting. Returns `None` when the queue is
    /// empty or the schedd is crashed or at its running limit.
    pub fn take_next_job(&mut self) -> Option<QueuedJob> {
        if !self.is_alive() || self.at_running_limit() {
            return None;
        }
        self.queue.pop_front()
    }

    /// Requeues a job that an execute node dropped.
    pub fn requeue(&mut self, mut job: QueuedJob) {
        job.requeues += 1;
        self.log_writes += 1;
        self.queue.push_front(job);
    }

    /// Spawns a shadow for a job that has been handed to an execute slot.
    pub fn spawn_shadow(&mut self, now: SimTime, job_id: u64, vm: VmId) {
        self.shadows.insert(
            vm,
            Shadow {
                job_id,
                vm,
                spawned: now,
            },
        );
    }

    /// Completes the job running on `vm`: the shadow exits, the completion is
    /// logged, and the post-execution processing time is returned so the
    /// caller can charge it. Returns `None` if no shadow was running there
    /// (e.g. the schedd crashed in between).
    pub fn complete_job(&mut self, now: SimTime, vm: VmId) -> Option<(Shadow, SimDuration)> {
        let shadow = self.shadows.remove(&vm)?;
        self.completed += 1;
        self.log_writes += 1;
        let cost = self
            .config
            .start_cost(self.queue.len())
            .mul_f64(self.config.completion_cost_fraction);
        self.busy_until = now.max(self.busy_until) + cost;
        Some((shadow, cost))
    }

    /// Removes the shadow for a job that an execute node failed to run
    /// (dropped). The job is *not* counted as completed; the caller requeues
    /// it. Returns the shadow, if one was running on `vm`.
    pub fn fail_job(&mut self, vm: VmId) -> Option<Shadow> {
        let shadow = self.shadows.remove(&vm)?;
        self.log_writes += 1;
        Some(shadow)
    }

    /// The shadow running on `vm`, if any.
    pub fn shadow_on(&self, vm: VmId) -> Option<&Shadow> {
        self.shadows.get(&vm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Schedd {
        fn completed(&self) -> u64 {
            self.completed
        }

        fn log_writes(&self) -> u64 {
            self.log_writes
        }
    }

    fn schedd() -> Schedd {
        Schedd::new(0, CondorConfig::default())
    }

    fn job(id: u64) -> (u64, JobSpec) {
        (id, JobSpec::new(SimDuration::from_secs(60), "alice"))
    }

    #[test]
    fn submit_and_take_jobs_in_fifo_order() {
        let mut s = schedd();
        s.submit(SimTime::ZERO, vec![job(1), job(2), job(3)]);
        assert_eq!(s.queue_len(), 3);
        assert_eq!(s.log_writes(), 3);
        assert_eq!(s.take_next_job().unwrap().id, 1);
        assert_eq!(s.take_next_job().unwrap().id, 2);
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn throttle_spaces_out_starts() {
        let mut s = schedd();
        s.submit(SimTime::ZERO, (0..10).map(job));
        let (t1, _) = s.begin_start_processing(SimTime::ZERO);
        let (t2, _) = s.begin_start_processing(SimTime::ZERO);
        assert_eq!(t1, SimTime::ZERO);
        // Default throttle is one start every two seconds.
        assert_eq!(t2, SimTime::from_secs(2));
    }

    #[test]
    fn long_queue_makes_starts_slower_than_throttle() {
        let config = CondorConfig {
            job_throttle_per_sec: 2.0,
            ..CondorConfig::default()
        };
        let mut s = Schedd::new(0, config);
        s.submit(SimTime::ZERO, (0..6000).map(job));
        let (t1, c1) = s.begin_start_processing(SimTime::ZERO);
        let (t2, _c2) = s.begin_start_processing(SimTime::ZERO);
        // With ~6,000 queued jobs the per-start cost exceeds the 0.5 s
        // throttle interval, so the single thread is the limiting factor.
        assert!(c1.as_secs_f64() > 1.0);
        assert!(t2 - t1 >= c1);
    }

    #[test]
    fn shadows_track_running_jobs_and_memory() {
        let mut s = schedd();
        s.submit(SimTime::ZERO, (0..5).map(job));
        let base_mem = s.memory_mib();
        for i in 0..3u32 {
            let queued = s.take_next_job().unwrap();
            s.spawn_shadow(SimTime::from_secs(i as u64), queued.id, VmId(i));
        }
        assert_eq!(s.running(), 3);
        assert!(s.memory_mib() > base_mem);
        assert!(s.shadow_on(VmId(1)).is_some());

        let (shadow, cost) = s.complete_job(SimTime::from_secs(100), VmId(1)).unwrap();
        assert_eq!(shadow.vm, VmId(1));
        assert!(cost.as_millis() > 0);
        assert_eq!(s.running(), 2);
        assert_eq!(s.completed(), 1);
        assert!(s.complete_job(SimTime::from_secs(101), VmId(9)).is_none());
    }

    #[test]
    fn running_limit_blocks_takes() {
        let config = CondorConfig {
            max_running_per_schedd: Some(2),
            ..CondorConfig::default()
        };
        let mut s = Schedd::new(0, config);
        s.submit(SimTime::ZERO, (0..5).map(job));
        for i in 0..2u32 {
            let j = s.take_next_job().unwrap();
            s.spawn_shadow(SimTime::ZERO, j.id, VmId(i));
        }
        assert!(s.at_running_limit());
        assert!(s.take_next_job().is_none());
        s.complete_job(SimTime::from_secs(60), VmId(0));
        assert!(!s.at_running_limit());
        assert!(s.take_next_job().is_some());
    }

    #[test]
    fn claims_and_idle_slots() {
        let mut s = schedd();
        s.add_claim(VmId(1));
        s.add_claim(VmId(2));
        s.add_claim(VmId(1));
        assert_eq!(s.claimed_slots().len(), 2);
        assert_eq!(s.idle_claimed_slot(), Some(VmId(1)));
        s.spawn_shadow(SimTime::ZERO, 1, VmId(1));
        assert_eq!(s.idle_claimed_slot(), Some(VmId(2)));
        s.release_claim(VmId(2));
        assert_eq!(s.idle_claimed_slot(), None);
    }

    #[test]
    fn crash_clears_state_and_stops_work() {
        let mut s = schedd();
        s.submit(SimTime::ZERO, (0..3).map(job));
        let j = s.take_next_job().unwrap();
        s.spawn_shadow(SimTime::ZERO, j.id, VmId(0));
        s.crash(SimTime::from_secs(10));
        assert!(!s.is_alive());
        assert_eq!(s.crashed_at(), Some(SimTime::from_secs(10)));
        assert_eq!(s.running(), 0);
        assert!(s.take_next_job().is_none());
        // Crashing twice keeps the first timestamp.
        s.crash(SimTime::from_secs(99));
        assert_eq!(s.crashed_at(), Some(SimTime::from_secs(10)));
    }

    #[test]
    fn requeue_preserves_job_and_counts_attempts() {
        let mut s = schedd();
        s.submit(SimTime::ZERO, vec![job(7)]);
        let j = s.take_next_job().unwrap();
        s.requeue(j);
        let j = s.take_next_job().unwrap();
        assert_eq!(j.id, 7);
        assert_eq!(j.requeues, 1);
    }
}
