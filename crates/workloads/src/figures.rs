//! Experiment runners: one function per table/figure of the paper's
//! evaluation (Section 5), plus the Section 4.2 data-flow tables.
//!
//! Every experiment can be run at [`Scale::Paper`] (the sizes reported in the
//! paper) or [`Scale::Quick`] (a proportionally smaller configuration used by
//! tests and Criterion benchmarks). The returned structs expose both the raw
//! series and a `render()` method that prints the rows/series the paper
//! reports.

use cluster_sim::{ClusterSpec, JobSpec, SimDuration, SimTime, TraceRecorder};
use condor::{CondorConfig, CondorSimulation};
use condorj2::{CondorJ2Config, CondorJ2Simulation};
use std::fmt::Write as _;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes used in the paper (e.g. 10,000 virtual machines, 8 hours).
    Paper,
    /// A proportionally reduced configuration for tests and benches.
    Quick,
}

impl Scale {
    fn shrink(&self, full: u32, quick: u32) -> u32 {
        match self {
            Scale::Paper => full,
            Scale::Quick => quick,
        }
    }
}

fn fmt_series_header(out: &mut String, title: &str, columns: &[&str]) {
    let _ = writeln!(out, "\n{title}");
    let _ = writeln!(out, "{}", columns.join("\t"));
}

// ---------------------------------------------------------------------------
// Figures 7, 8, 9: CondorJ2 scheduling throughput, node drops, CAS CPU.
// ---------------------------------------------------------------------------

/// One row of the scheduling-throughput experiment (one job length).
#[derive(Debug, Clone)]
pub struct ThroughputPoint {
    /// Job length in seconds.
    pub job_secs: u64,
    /// The ideal throughput required to keep the cluster fully busy
    /// (`virtual machines / job length`), in jobs per second.
    pub ideal_rate: f64,
    /// The observed steady-state scheduling throughput, in jobs per second.
    pub observed_rate: f64,
    /// Distinct virtual nodes that dropped at least one job (Figure 8).
    pub dropped_vms: usize,
    /// Distinct physical nodes that dropped at least one job (Figure 8).
    pub dropped_phys: usize,
    /// Mean CAS CPU utilisation during the run (Figure 9): user %.
    pub cpu_user: f64,
    /// Mean system %.
    pub cpu_system: f64,
    /// Mean IO %.
    pub cpu_io: f64,
    /// Mean idle %.
    pub cpu_idle: f64,
}

/// Results of the Figure 7/8/9 experiment family.
#[derive(Debug, Clone)]
pub struct ThroughputExperiment {
    /// Number of virtual machines simulated.
    pub virtual_machines: u32,
    /// Number of physical machines simulated.
    pub physical_machines: u32,
    /// One point per job length, longest job first (as in the paper).
    pub points: Vec<ThroughputPoint>,
}

impl ThroughputExperiment {
    /// Renders Figures 7, 8 and 9 as text tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "CondorJ2 scheduling throughput — {} virtual machines on {} physical machines",
            self.virtual_machines, self.physical_machines
        );
        fmt_series_header(
            &mut out,
            "Figure 7: scheduling throughput vs job length (jobs/sec)",
            &["job_secs", "ideal", "observed"],
        );
        for p in &self.points {
            let _ = writeln!(out, "{}\t{:.2}\t{:.2}", p.job_secs, p.ideal_rate, p.observed_rate);
        }
        fmt_series_header(
            &mut out,
            "Figure 8: execute hosts failing to run jobs",
            &["job_secs", "virtual_nodes_dropping", "physical_nodes_dropping"],
        );
        for p in &self.points {
            let _ = writeln!(out, "{}\t{}\t{}", p.job_secs, p.dropped_vms, p.dropped_phys);
        }
        fmt_series_header(
            &mut out,
            "Figure 9: CAS CPU utilisation vs scheduling throughput (percent)",
            &["observed_rate", "io", "system", "user", "idle"],
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:.2}\t{:.1}\t{:.1}\t{:.1}\t{:.1}",
                p.observed_rate, p.cpu_io, p.cpu_system, p.cpu_user, p.cpu_idle
            );
        }
        out
    }
}

/// Runs the Figure 7/8/9 experiments: a 180-VM cluster (45 physical machines
/// with four VMs each at paper scale) preloaded with fixed-length jobs, one
/// run per job length from five minutes down to six seconds.
pub fn throughput_experiment(scale: Scale, seed: u64) -> ThroughputExperiment {
    let phys = scale.shrink(45, 9);
    let vms_per = 4;
    let job_lengths: &[u64] = &[300, 60, 18, 9, 6];
    let spec = ClusterSpec::paper_testbed(phys, vms_per);
    let total_vms = spec.total_vms();

    let mut points = Vec::new();
    for &job_secs in job_lengths {
        let config = CondorJ2Config::default();
        // Enough jobs to keep the whole cluster busy for the full observation
        // window (the paper pre-loads at least twenty minutes of work).
        let window_mins = 20u64;
        let job_count = (total_vms as u64 * window_mins * 60) / job_secs.max(1)
            + total_vms as u64 * 2;
        let mut sim = CondorJ2Simulation::new(config, &spec, seed ^ job_secs);
        sim.submit(JobSpec::fixed_batch(
            job_count as usize,
            SimDuration::from_secs(job_secs),
            "throughput-user",
        ));
        let horizon = SimTime::from_mins(window_mins);
        sim.run_until(horizon);
        let report = sim.report();

        // Steady-state rate excluding ramp-up and ramp-down, as the paper does:
        // completions per second over the middle of the observation window.
        let lo = SimTime((horizon.0 as f64 * 0.35) as u64);
        let hi = SimTime((horizon.0 as f64 * 0.90) as u64);
        let observed = report.completions.rate_between(lo, hi);
        let ideal = total_vms as f64 / job_secs as f64;
        let cpu = mean_cpu(&report.server_cpu, observed);
        points.push(ThroughputPoint {
            job_secs,
            ideal_rate: ideal,
            observed_rate: observed,
            dropped_vms: report.dropped_vms,
            dropped_phys: report.dropped_phys,
            cpu_user: cpu.0,
            cpu_system: cpu.1,
            cpu_io: cpu.2,
            cpu_idle: cpu.3,
        });
    }
    ThroughputExperiment {
        virtual_machines: total_vms,
        physical_machines: phys,
        points,
    }
}

fn mean_cpu(samples: &[cluster_sim::CpuSample], _rate: f64) -> (f64, f64, f64, f64) {
    // Skip the first and last samples (ramp up / down).
    let inner: Vec<_> = if samples.len() > 4 {
        samples[1..samples.len() - 1].to_vec()
    } else {
        samples.to_vec()
    };
    if inner.is_empty() {
        return (0.0, 0.0, 0.0, 100.0);
    }
    let n = inner.len() as f64;
    (
        inner.iter().map(|s| s.user).sum::<f64>() / n,
        inner.iter().map(|s| s.system).sum::<f64>() / n,
        inner.iter().map(|s| s.io).sum::<f64>() / n,
        inner.iter().map(|s| s.idle).sum::<f64>() / n,
    )
}

// ---------------------------------------------------------------------------
// Figure 10: CAS CPU in a 10,000-VM cluster.
// ---------------------------------------------------------------------------

/// Results of the large-cluster CondorJ2 experiment (Figure 10).
#[derive(Debug, Clone)]
pub struct LargeClusterExperiment {
    /// Virtual machines simulated.
    pub virtual_machines: u32,
    /// Five-minute rolling averages of CAS CPU utilisation, one per minute:
    /// `(minute, io, system, user, idle)`.
    pub cpu_series: Vec<(u64, f64, f64, f64, f64)>,
    /// Jobs submitted / completed.
    pub submitted: u64,
    /// Jobs completed by the end of the observation window.
    pub completed: u64,
    /// Number of DBMS maintenance (checkpoint) runs observed.
    pub checkpoints: u64,
}

impl LargeClusterExperiment {
    /// Renders the Figure 10 series.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "CondorJ2 large cluster: {} virtual machines, {} jobs submitted, {} completed, {} checkpoints",
            self.virtual_machines, self.submitted, self.completed, self.checkpoints
        );
        fmt_series_header(
            &mut out,
            "Figure 10: CAS CPU utilisation (5-minute rolling average, percent)",
            &["minute", "io", "system", "user", "idle"],
        );
        for (m, io, sys, user, idle) in &self.cpu_series {
            let _ = writeln!(out, "{m}\t{io:.1}\t{sys:.1}\t{user:.1}\t{idle:.1}");
        }
        out
    }

    /// Mean busy percentage over a minute range (used to compare plateaus).
    pub fn mean_busy(&self, from_min: u64, to_min: u64) -> f64 {
        let sel: Vec<f64> = self
            .cpu_series
            .iter()
            .filter(|(m, ..)| *m >= from_min && *m < to_min)
            .map(|(_, io, sys, user, _)| io + sys + user)
            .collect();
        if sel.is_empty() {
            0.0
        } else {
            sel.iter().sum::<f64>() / sel.len() as f64
        }
    }
}

/// Runs the Figure 10 experiment: a 10,000-VM cluster (50 × 200 at paper
/// scale) ramped up with 20 batches of 2,500 150-minute jobs at five-minute
/// intervals, observed for eight hours.
pub fn large_cluster_experiment(scale: Scale, seed: u64) -> LargeClusterExperiment {
    let (phys, vms_per, batches, job_mins, hours) = match scale {
        Scale::Paper => (50u32, 200u32, 20u32, 150u64, 8u64),
        Scale::Quick => (10, 20, 5, 20, 2),
    };
    let spec = ClusterSpec::uniform_fast(phys, vms_per);
    let total_vms = spec.total_vms();
    let batch_size = (total_vms / batches).max(1) as usize;

    let config = CondorJ2Config::large_cluster();
    let mut sim = CondorJ2Simulation::new(config, &spec, seed);
    for b in 0..batches {
        sim.submit_at(
            SimTime::from_mins(b as u64 * 5),
            JobSpec::fixed_batch(batch_size, SimDuration::from_mins(job_mins), "ramp-user"),
        );
    }
    // A second wave keeps jobs turning over through the observation window.
    for b in 0..batches {
        sim.submit_at(
            SimTime::from_mins(job_mins + b as u64 * 5),
            JobSpec::fixed_batch(batch_size, SimDuration::from_mins(job_mins), "ramp-user"),
        );
    }
    sim.run_until(SimTime::from_mins(hours * 60));
    let report = sim.report();
    let cpu_series = report
        .server_cpu_rolling
        .iter()
        .map(|s| (s.time.0 / 60_000, s.io, s.system, s.user, s.idle))
        .collect();
    LargeClusterExperiment {
        virtual_machines: total_vms,
        cpu_series,
        submitted: report.submitted,
        completed: report.completed,
        checkpoints: report.db_stats.checkpoints,
    }
}

// ---------------------------------------------------------------------------
// Figures 11, 12, 15, 16: mixed workloads.
// ---------------------------------------------------------------------------

/// Results of a mixed-workload run on either system.
#[derive(Debug, Clone)]
pub struct MixedWorkloadExperiment {
    /// Which system produced the result (`"condorj2"` or `"condor"`).
    pub system: String,
    /// Whether a per-schedd running-job limit was configured (Figure 16).
    pub schedd_limited: bool,
    /// Jobs in progress, sampled once a minute.
    pub in_progress: Vec<(u64, i64)>,
    /// Job completions per minute (Figure 12).
    pub completions_per_minute: Vec<(u64, u64)>,
    /// Total jobs in the workload.
    pub total_jobs: usize,
    /// Minutes until the whole workload completed.
    pub makespan_minutes: f64,
    /// The optimal makespan implied by total work / cluster size.
    pub optimal_minutes: f64,
}

impl MixedWorkloadExperiment {
    /// Renders the in-progress and turnover series.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} mixed workload ({}): {} jobs, makespan {:.1} min (optimal {:.0} min)",
            self.system,
            if self.schedd_limited { "schedd limited" } else { "no schedd limit" },
            self.total_jobs,
            self.makespan_minutes,
            self.optimal_minutes
        );
        fmt_series_header(&mut out, "Jobs in progress vs elapsed time", &["minute", "in_progress"]);
        for (m, n) in &self.in_progress {
            let _ = writeln!(out, "{m}\t{n}");
        }
        fmt_series_header(&mut out, "Job turnover rate", &["minute", "completions"]);
        for (m, n) in &self.completions_per_minute {
            let _ = writeln!(out, "{m}\t{n}");
        }
        out
    }
}

/// Runs the CondorJ2 mixed-workload experiment (Figures 11 and 12): a 540-VM
/// cluster (45 × 12 at paper scale) with 6,480 one-minute jobs and 1,620
/// six-minute jobs — 30 minutes of work at full utilisation.
pub fn condorj2_mixed_workload(scale: Scale, seed: u64) -> MixedWorkloadExperiment {
    let phys = scale.shrink(45, 9);
    let vms_per = 12;
    let spec = ClusterSpec::uniform_fast(phys, vms_per);
    let total_vms = spec.total_vms() as usize;
    let short = total_vms * 12;
    let long = total_vms * 3;

    let mut sim = CondorJ2Simulation::new(CondorJ2Config::default(), &spec, seed);
    sim.submit(JobSpec::mixed_batch(
        short,
        SimDuration::from_secs(60),
        long,
        SimDuration::from_mins(6),
        "mixed-user",
    ));
    let end = sim.run_to_completion(SimTime::from_mins(180));
    let report = sim.report();
    mixed_report(
        "condorj2",
        false,
        total_vms,
        short + long,
        end,
        report.in_progress.sampled(SimDuration::from_secs(60), end),
        report.completions.per_bucket(SimDuration::from_secs(60)),
    )
}

/// Runs the Condor mixed-workload experiment (Figures 15 and 16): a 180-VM
/// cluster, three schedds with the job queue split evenly, with or without
/// the per-schedd limit of 60 simultaneously running jobs.
pub fn condor_mixed_workload(scale: Scale, limited: bool, seed: u64) -> MixedWorkloadExperiment {
    let phys = scale.shrink(45, 27);
    let vms_per = 4;
    let spec = ClusterSpec::uniform_fast(phys, vms_per);
    let total_vms = spec.total_vms() as usize;
    let short_total = total_vms * 12;
    let long_total = total_vms * 3;

    let config = CondorConfig {
        schedd_count: 3,
        job_throttle_per_sec: 1.0,
        max_running_per_schedd: if limited { Some(total_vms / 3) } else { None },
        negotiation_interval: SimDuration::from_secs(20),
        ..CondorConfig::default()
    };
    let mut sim = CondorSimulation::new(config, &spec, seed);
    for s in 0..3 {
        sim.submit(
            s,
            JobSpec::mixed_batch(
                short_total / 3,
                SimDuration::from_secs(60),
                long_total / 3,
                SimDuration::from_mins(6),
                "mixed-user",
            ),
        );
    }
    let end = sim.run_to_completion(SimTime::from_mins(240));
    let report = sim.report();
    mixed_report(
        "condor",
        limited,
        total_vms,
        short_total + long_total,
        end,
        report.in_progress.sampled(SimDuration::from_secs(60), end),
        report.completions.per_bucket(SimDuration::from_secs(60)),
    )
}

#[allow(clippy::too_many_arguments)]
fn mixed_report(
    system: &str,
    limited: bool,
    _total_vms: usize,
    total_jobs: usize,
    end: SimTime,
    in_progress: Vec<(SimTime, i64)>,
    per_minute: Vec<(SimTime, u64)>,
) -> MixedWorkloadExperiment {
    // Total work per VM = 12 one-minute jobs + 3 six-minute jobs = 30 minutes.
    MixedWorkloadExperiment {
        system: system.to_string(),
        schedd_limited: limited,
        in_progress: in_progress.iter().map(|(t, v)| (t.0 / 60_000, *v)).collect(),
        completions_per_minute: per_minute.iter().map(|(t, v)| (t.0 / 60_000, *v)).collect(),
        total_jobs,
        makespan_minutes: end.as_mins_f64(),
        optimal_minutes: 30.0,
    }
}

// ---------------------------------------------------------------------------
// Figures 13, 14: Condor scheduling rate and schedd CPU vs queue length.
// ---------------------------------------------------------------------------

/// One sample of the Condor queue-length experiment.
#[derive(Debug, Clone, Copy)]
pub struct QueueLengthPoint {
    /// Jobs in the schedd queue at the start of the sampling minute.
    pub queue_length: f64,
    /// Scheduling throughput during that minute, jobs per second.
    pub rate: f64,
    /// Schedd CPU busy percentage (×4 as in the paper, so 100 % = one core).
    pub cpu_busy: f64,
    /// Schedd user percentage (×4).
    pub cpu_user: f64,
    /// Schedd IO percentage (×4).
    pub cpu_io: f64,
}

/// Results of the Figure 13/14 experiment.
#[derive(Debug, Clone)]
pub struct QueueLengthExperiment {
    /// The configured job throttle (jobs/sec).
    pub throttle: f64,
    /// Samples ordered by decreasing queue length (the queue drains).
    pub points: Vec<QueueLengthPoint>,
}

impl QueueLengthExperiment {
    /// Renders Figures 13 and 14.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Condor schedd, job throttle {} jobs/sec", self.throttle);
        fmt_series_header(
            &mut out,
            "Figure 13: scheduling rate vs job queue length",
            &["queue_length", "jobs_per_sec"],
        );
        for p in &self.points {
            let _ = writeln!(out, "{:.0}\t{:.2}", p.queue_length, p.rate);
        }
        fmt_series_header(
            &mut out,
            "Figure 14: schedd CPU vs job queue length (percent of one CPU)",
            &["queue_length", "user", "io", "idle"],
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:.0}\t{:.1}\t{:.1}\t{:.1}",
                p.queue_length,
                p.cpu_user,
                p.cpu_io,
                (100.0 - p.cpu_busy).max(0.0)
            );
        }
        out
    }

    /// The largest queue length at which the observed rate still reaches
    /// `fraction` of the throttle (e.g. the paper's ~1,800-job crossover for
    /// staying at 2 jobs/s).
    pub fn crossover_queue_length(&self, fraction: f64) -> f64 {
        self.points
            .iter()
            .filter(|p| p.rate >= self.throttle * fraction)
            .map(|p| p.queue_length)
            .fold(0.0, f64::max)
    }
}

/// Runs the Figure 13/14 experiment: one schedd, the job throttle raised to
/// two jobs per second, a long queue of one-minute jobs and enough virtual
/// machines to keep the schedd busy; the relationship between queue length,
/// observed rate and schedd CPU emerges as the queue drains.
pub fn queue_length_experiment(scale: Scale, seed: u64) -> QueueLengthExperiment {
    let throttle = 2.0;
    let (jobs, vms) = match scale {
        Scale::Paper => (8_000usize, 400u32),
        Scale::Quick => (1_200, 120),
    };
    let spec = ClusterSpec::uniform_fast(vms / 4, 4);
    let config = CondorConfig {
        job_throttle_per_sec: throttle,
        negotiation_interval: SimDuration::from_secs(10),
        collector_update_interval: SimDuration::from_secs(120),
        ..CondorConfig::default()
    };
    let mut sim = CondorSimulation::new(config, &spec, seed);
    sim.submit(0, JobSpec::fixed_batch(jobs, SimDuration::from_secs(60), "queue-user"));
    let end = sim.run_to_completion(SimTime::from_mins(600));
    let report = sim.report();

    // Pair per-minute completions with the queue length at that minute and the
    // schedd CPU sample for that minute (reported ×4 as in the paper).
    let per_minute = report.completions.per_bucket(SimDuration::from_secs(60));
    let schedd_cpu = report.schedd_cpu.first().cloned().unwrap_or_default();
    let mut points = Vec::new();
    for (time, count) in &per_minute {
        let minute = time.0 / 60_000;
        let queue = report
            .queue_length
            .points()
            .iter()
            .filter(|(t, _)| t.0 / 60_000 == minute)
            .map(|(_, v)| *v)
            .next();
        let Some(queue) = queue else { continue };
        if queue < 1.0 {
            continue;
        }
        let cpu = schedd_cpu
            .iter()
            .find(|s| s.time.0 / 60_000 == minute)
            .copied()
            .unwrap_or_default();
        points.push(QueueLengthPoint {
            queue_length: queue,
            rate: *count as f64 / 60.0,
            cpu_busy: cpu.busy(),
            cpu_user: cpu.user,
            cpu_io: cpu.io,
        });
    }
    let _ = end;
    QueueLengthExperiment { throttle, points }
}

// ---------------------------------------------------------------------------
// Section 5.3.2: the large-cluster Condor crash.
// ---------------------------------------------------------------------------

/// Result of trying to run a single schedd against thousands of nodes.
#[derive(Debug, Clone)]
pub struct CondorLargeClusterResult {
    /// Virtual machines in the simulated cluster.
    pub virtual_machines: u32,
    /// Peak number of simultaneously running jobs reached before any crash.
    pub peak_running: i64,
    /// Whether the schedd crashed once jobs started turning over.
    pub crashed: bool,
    /// Minute at which the crash occurred, if it did.
    pub crash_minute: Option<f64>,
    /// Jobs completed before the crash (or in total, if no crash).
    pub completed: u64,
}

impl CondorLargeClusterResult {
    /// Renders the Section 5.3.2 observation.
    pub fn render(&self) -> String {
        format!(
            "Condor single schedd on {} VMs: peak {} running jobs, crashed: {}{}, {} jobs completed\n",
            self.virtual_machines,
            self.peak_running,
            self.crashed,
            self.crash_minute
                .map(|m| format!(" (at minute {m:.0})"))
                .unwrap_or_default(),
            self.completed
        )
    }
}

/// Reproduces the Section 5.3.2 observation: a single schedd can ramp up to
/// ~5,000 simultaneously running jobs, but the submit machine runs out of
/// memory (one shadow per running job) once the jobs start to turn over.
pub fn condor_large_cluster(scale: Scale, seed: u64) -> CondorLargeClusterResult {
    let (vms, mem_mib) = match scale {
        Scale::Paper => (5_000u32, 4_096.0),
        Scale::Quick => (600, 512.0),
    };
    let spec = ClusterSpec::uniform_fast(vms / 10, 10);
    let config = CondorConfig {
        job_throttle_per_sec: 20.0,
        submit_machine_memory_mib: mem_mib,
        negotiation_interval: SimDuration::from_secs(10),
        collector_update_interval: SimDuration::from_secs(300),
        ..CondorConfig::default()
    };
    let mut sim = CondorSimulation::new(config, &spec, seed);
    // Long jobs so the pool ramps to full before any turnover happens.
    sim.submit(0, JobSpec::fixed_batch(vms as usize * 2, SimDuration::from_mins(30), "big-user"));
    sim.run_to_completion(SimTime::from_mins(600));
    let report = sim.report();
    CondorLargeClusterResult {
        virtual_machines: vms,
        peak_running: report.in_progress.peak(),
        crashed: !report.crashes.is_empty(),
        crash_minute: report.crashes.first().map(|(_, t)| t.as_mins_f64()),
        completed: report.completed,
    }
}

// ---------------------------------------------------------------------------
// Tables 1 and 2: data-flow traces.
// ---------------------------------------------------------------------------

/// Runs one job through the Condor baseline with tracing enabled and returns
/// the Table 1 data-flow trace.
pub fn condor_dataflow_trace(seed: u64) -> TraceRecorder {
    let config = CondorConfig {
        negotiation_interval: SimDuration::from_secs(2),
        collector_update_interval: SimDuration::from_secs(1),
        ..CondorConfig::default()
    };
    let spec = ClusterSpec::uniform_fast(1, 1);
    let mut sim = CondorSimulation::new(config, &spec, seed);
    sim.enable_tracing();
    sim.submit(0, JobSpec::fixed_batch(1, SimDuration::from_secs(30), "trace-user"));
    sim.run_to_completion(SimTime::from_mins(10));
    sim.report().trace.expect("tracing was enabled")
}

/// Runs one job through CondorJ2 with tracing enabled and returns the Table 2
/// data-flow trace.
pub fn condorj2_dataflow_trace(seed: u64) -> TraceRecorder {
    let config = CondorJ2Config {
        idle_poll_interval: SimDuration::from_secs(1),
        scheduler_interval: SimDuration::from_secs(1),
        running_heartbeat_interval: SimDuration::from_secs(10),
        ..CondorJ2Config::default()
    };
    let spec = ClusterSpec::uniform_fast(1, 1);
    let mut sim = CondorJ2Simulation::new(config, &spec, seed);
    sim.enable_tracing();
    sim.submit(JobSpec::fixed_batch(1, SimDuration::from_secs(30), "trace-user"));
    sim.run_to_completion(SimTime::from_mins(10));
    sim.report().trace.expect("tracing was enabled")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_experiment_matches_paper_shape() {
        let exp = throughput_experiment(Scale::Quick, 7);
        assert_eq!(exp.points.len(), 5);
        // Long jobs: observed tracks ideal closely and (almost) nothing drops.
        let long = &exp.points[0];
        assert!(long.observed_rate >= long.ideal_rate * 0.85, "{long:?}");
        // Short jobs: observed falls below ideal and many nodes drop jobs.
        let short = exp.points.last().unwrap();
        assert!(short.observed_rate < short.ideal_rate, "{short:?}");
        assert!(short.dropped_vms > long.dropped_vms);
        assert!(short.dropped_phys >= long.dropped_phys);
        // The CAS is never the bottleneck: ample idle capacity everywhere.
        for p in &exp.points {
            assert!(p.cpu_idle > 40.0, "CAS saturated unexpectedly: {p:?}");
            assert!(p.cpu_user >= p.cpu_io, "user cycles should dominate: {p:?}");
        }
        let text = exp.render();
        assert!(text.contains("Figure 7"));
        assert!(text.contains("Figure 8"));
        assert!(text.contains("Figure 9"));
    }

    #[test]
    fn condorj2_mixed_workload_reaches_full_utilisation() {
        let exp = condorj2_mixed_workload(Scale::Quick, 11);
        // Near-optimal makespan (the paper observed 32 minutes vs 30 optimal).
        assert!(exp.makespan_minutes < 40.0, "makespan {}", exp.makespan_minutes);
        let peak = exp.in_progress.iter().map(|(_, v)| *v).max().unwrap_or(0);
        assert!(peak as usize >= exp.total_jobs / 15 / 2, "cluster never filled: peak {peak}");
        assert!(exp.render().contains("Jobs in progress"));
    }

    #[test]
    fn condor_schedd_limit_improves_mixed_workload() {
        let unlimited = condor_mixed_workload(Scale::Quick, false, 13);
        let limited = condor_mixed_workload(Scale::Quick, true, 13);
        // Figure 15 vs 16: the limited configuration finishes substantially
        // sooner; the unlimited one underutilises the cluster.
        assert!(
            limited.makespan_minutes < unlimited.makespan_minutes * 0.8,
            "limited {} vs unlimited {}",
            limited.makespan_minutes,
            unlimited.makespan_minutes
        );
    }

    #[test]
    fn queue_length_experiment_shows_degradation() {
        let exp = queue_length_experiment(Scale::Quick, 17);
        assert!(!exp.points.is_empty());
        // At small queue lengths the schedd keeps up with the throttle; at the
        // longest queue lengths it falls behind.
        let longest = exp
            .points
            .iter()
            .cloned()
            .fold(QueueLengthPoint { queue_length: 0.0, rate: 0.0, cpu_busy: 0.0, cpu_user: 0.0, cpu_io: 0.0 }, |a, b| {
                if b.queue_length > a.queue_length { b } else { a }
            });
        let shortest_kept = exp.crossover_queue_length(0.9);
        assert!(shortest_kept > 0.0);
        assert!(longest.queue_length > shortest_kept * 0.9);
        assert!(exp.render().contains("Figure 13"));
    }

    #[test]
    fn dataflow_traces_match_tables_one_and_two() {
        let condor = condor_dataflow_trace(3);
        let condorj2 = condorj2_dataflow_trace(3);
        assert_eq!(condor.len(), 15);
        assert_eq!(condorj2.len(), 15);
        assert_eq!(condor.entities().len(), 7);
        assert_eq!(condorj2.entities().len(), 5);
        assert_eq!(condor.channels().len(), 10);
        assert_eq!(condorj2.channels().len(), 4);
    }

    #[test]
    fn condor_large_cluster_crashes_on_turnover() {
        let result = condor_large_cluster(Scale::Quick, 23);
        assert!(result.crashed, "{result:?}");
        assert!(result.peak_running > 0);
        assert!(result.render().contains("crashed: true"));
    }

    #[test]
    fn condorj2_large_cluster_has_headroom() {
        let exp = large_cluster_experiment(Scale::Quick, 29);
        assert!(exp.submitted > 0);
        assert!(!exp.cpu_series.is_empty());
        // The CAS never saturates: every rolling sample keeps idle capacity.
        assert!(exp.cpu_series.iter().all(|(_, io, sys, user, _)| io + sys + user < 90.0));
        assert!(exp.render().contains("Figure 10"));
    }
}
