//! `sched_sweep_sim`: the paper's own headline (Figures 7–9) through every
//! layer — `cluster-sim` → `appserver` → `core` → `relstore`.
//!
//! A 45 × 4 `paper_testbed` pool (180 VMs), one simulation per job length
//! 300 / 60 / 18 / 9 / 6 s, each **preloaded with the paper's queue** (twenty
//! minutes of work plus two jobs per VM: 1,080 … 36,360 idle jobs). The deep
//! queue is the point: the matchmaker's unbounded idle-job SELECT dominates
//! here and not in `churn_mem`, whose queue holds 2,000 jobs. The benchmark
//! builds the simulations itself from `CondorJ2Simulation` (rather than
//! calling `workloads::figures`) so that the database stays reachable for
//! the counter readings and the checks.
//!
//! What is scaled to fit a round into about two seconds is the simulated
//! *horizon* per job length (the queue depth is not): see `HORIZON_MINS`.
//! The simulation is advanced in slices of simulated time; an *op* is a
//! service call the CAS handled, and since single calls inside the event
//! loop cannot be timed from outside, the latency sample of a slice is its
//! wall time per call handled, counted once per call. *light* is the 300 s-job simulation
//! (shallow queue), *heavy* the 6 s one (deepest queue).

use crate::engine::Snapshot;
use crate::host;
use crate::round::{Meter, Round, RoundCtx, SetupClock};
use cluster_sim::{ClusterSpec, JobSpec, SimDuration, SimTime};
use condorj2::{CondorJ2Config, CondorJ2Simulation};
use std::time::Instant;

const JOB_SECS: [u64; 5] = [300, 60, 18, 9, 6];
const KINDS: [&str; 5] = [
    "slice.300s",
    "slice.60s",
    "slice.18s",
    "slice.9s",
    "slice.6s",
];
/// Simulated minutes run per job length at scale 1 (the paper observes
/// twenty for each; the short-job simulations cost the most wall time).
const HORIZON_MINS: [u64; 5] = [20, 8, 4, 3, 3];
/// The paper's observation window, which sizes the preloaded queue.
const PAPER_WINDOW_MINS: u64 = 20;
/// Simulated seconds per slice: the matchmaker's interval, so that every
/// slice holds exactly one scheduling pass.
const SLICE_SECS: u64 = 2;

pub fn round(ctx: &mut RoundCtx<'_>) -> Result<Round, String> {
    let mut round = Round {
        flavour: ctx.flavour,
        op_kinds: KINDS.to_vec(),
        light: KINDS[0],
        heavy: KINDS[4],
        ..Round::default()
    };
    let spec = ClusterSpec::paper_testbed(45, 4);
    let vms = u64::from(spec.total_vms());
    let rel = |e: relstore::Error| e.to_string();

    // --- setup: per job length, `new` (registers the pool) and `submit`.
    let phase = ctx.tracer.begin("setup", ctx.parent, 0);
    let setup = SetupClock::start();
    let mut sims: Vec<CondorJ2Simulation> = Vec::new();
    for &job_secs in &JOB_SECS {
        let span = ctx.tracer.begin("sim.new+submit", phase, job_secs as u32);
        let mut sim =
            CondorJ2Simulation::new(CondorJ2Config::default(), &spec, ctx.seed ^ job_secs);
        let jobs = vms * PAPER_WINDOW_MINS * 60 / job_secs + vms * 2;
        sim.submit(JobSpec::fixed_batch(
            jobs as usize,
            SimDuration::from_secs(job_secs),
            "throughput-user",
        ));
        ctx.tracer.end(span);
        sims.push(sim);
    }
    setup.stop(&mut round);
    ctx.tracer.end(phase);

    // --- measure: every simulation to its horizon, slice by slice.
    let befores = if ctx.flavour.traced() {
        let mut v = Vec::new();
        for sim in &sims {
            v.push(Snapshot::before(sim.cas().database()).map_err(rel)?);
        }
        Some(v)
    } else {
        None
    };
    let phase = ctx.tracer.begin("measure", ctx.parent, 0);
    let caps: Vec<(&'static str, usize)> = KINDS.iter().map(|k| (*k, 16_384)).collect();
    let mut meter = Meter::new(ctx.tracer, phase, &caps);
    let cpu0 = host::cpu_seconds();
    let (mut requests, mut jobs, mut sim_secs) = (0u64, 0u64, 0u64);
    let mut handled0: Vec<u64> = sims.iter().map(|s| s.report().requests_handled).collect();
    for (i, sim) in sims.iter_mut().enumerate() {
        let horizon_secs = (HORIZON_MINS[i] * 60 / ctx.scale).max(30);
        let completed0 = sim.completed();
        for t in (SLICE_SECS..=horizon_secs).step_by(SLICE_SECS as usize) {
            let t0 = Instant::now();
            sim.run_until(SimTime::from_secs(t));
            let t1 = Instant::now();
            // Reading the request counter clones the report: not the
            // workload's time.
            let handled = sim.report().requests_handled;
            meter.exclude(t1.elapsed().as_nanos() as u64);
            let calls = handled - handled0[i];
            handled0[i] = handled;
            requests += calls;
            if let Some(per_call) = ((t1 - t0).as_nanos() as u64).checked_div(calls) {
                meter.record_value(KINDS[i], per_call, calls as usize, t0, t1);
            }
        }
        jobs += sim.completed() - completed0;
        sim_secs += horizon_secs;
    }
    let measured = meter.finish();
    round.take_measured(measured, host::cpu_seconds() - cpu0);
    ctx.tracer.end(phase);
    round.ops = requests;
    round.stream_hash = requests ^ jobs << 32;
    round.set("jobs", jobs as f64);
    round.set("sim_secs", sim_secs as f64);
    if let Some(befores) = &befores {
        let mut total = crate::engine::Delta::default();
        for (sim, before) in sims.iter().zip(befores) {
            total.add(&Snapshot::region(sim.cas().database(), before).map_err(rel)?);
        }
        round.engine = Some(total);
    }

    // --- verify: conservation in every simulation, and — at full scale —
    // the paper-shape assertions of `workloads::figures`' own test.
    let phase = ctx.tracer.begin("verify", ctx.parent, 0);
    let mut rates: Vec<(f64, f64, f64)> = Vec::new();
    for (i, sim) in sims.iter().enumerate() {
        let span = ctx.tracer.begin("sim.report", phase, JOB_SECS[i] as u32);
        let report = sim.report();
        ctx.tracer.end(span);
        let db = sim.cas().database();
        // `check_consistency()` walks every index entry of every row and
        // takes ~8 s on a 36k-job queue: run it where the queue is shallow.
        if i == 0 {
            if let Err(e) = db.check_consistency() {
                round
                    .check_failures
                    .push(format!("{}: check_consistency: {e}", KINDS[i]));
            }
        }
        let history = db.table_len("job_history").map_err(rel)? as u64;
        let queued = db.table_len("jobs").map_err(rel)? as u64;
        round.check(history == report.completed, || {
            format!(
                "{}: {history} history rows, {} completions",
                KINDS[i], report.completed
            )
        });
        round.check(history + queued == report.submitted, || {
            format!(
                "{}: {history} finished + {queued} queued != {} submitted",
                KINDS[i], report.submitted
            )
        });
        let horizon = report.finished_at.0 as f64;
        let observed = report.completions.rate_between(
            SimTime((horizon * 0.35) as u64),
            SimTime((horizon * 0.90) as u64),
        );
        let idle = report.server_cpu.iter().map(|s| s.idle).sum::<f64>()
            / report.server_cpu.len().max(1) as f64;
        round.check(idle > 40.0, || {
            format!("{}: CAS idle only {idle:.1} %", KINDS[i])
        });
        let drops_per_min = report.drops as f64 * 60_000.0 / horizon.max(1.0);
        rates.push((observed, vms as f64 / JOB_SECS[i] as f64, drops_per_min));
    }
    if ctx.scale == 1 {
        let (long, short) = (rates[0], rates[4]);
        round.check(long.0 >= 0.85 * long.1, || {
            format!(
                "long jobs ran at {:.3}/s, under 0.85 × ideal {:.3}/s",
                long.0, long.1
            )
        });
        round.check(short.0 < short.1, || {
            format!(
                "short jobs ran at {:.2}/s, not below ideal {:.2}/s",
                short.0, short.1
            )
        });
        // (Per simulated minute, because the horizons differ.)
        round.check(short.2 > long.2, || {
            format!(
                "short jobs dropped {:.2} starts a minute, long jobs {:.2}",
                short.2, long.2
            )
        });
    }
    ctx.tracer.end(phase);
    Ok(round)
}
