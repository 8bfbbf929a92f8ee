//! One run of one workload: rounds until `--seconds` of measured time are
//! used, then the metrics, the checks, and the result line the driver reads.

use crate::host;
use crate::json;
use crate::layers;
use crate::metrics::{E2E, PER_LAYER};
use crate::round::{median_over as med, Flavour, Round, RoundCtx};
use crate::stats::{median, supports, Samples};
use crate::trace::{self, Tracer};
use crate::workloads;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Work divisor (`--smoke` uses 20).
    pub scale: u64,
    /// Fewest rounds a run makes, whatever `--seconds` says.
    pub min_rounds: usize,
    /// Where trace files and scratch data go (inside the checkout).
    pub out: PathBuf,
}

/// Spans one run may record before further ones are counted as dropped.
const SPAN_CAPACITY: usize = 600_000;
/// A run stops starting rounds after this long, whatever `--seconds` says:
/// the driver allows a run 180 s.
const WALL_LIMIT_S: f64 = 100.0;

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in definition order.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// The one-line JSON object the driver parses.
    pub fn line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json::escape(name),
                    json::num(*value),
                    json::escape(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The end-to-end metrics of a set of untraced rounds: each a median over
/// rounds, except CPU per op (a sum, to beat the 10 ms CPU-clock tick) and
/// peak memory (the process high-water mark after the first round).
pub fn e2e_metrics(rounds: &[&Round], peak_rss_mb: f64) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert("setup_s", med(rounds, |r| r.setup_s));
    m.insert("ops_per_s", med(rounds, Round::ops_per_s));
    let pooled: Vec<Samples> = rounds.iter().map(|r| r.all_ops()).collect();
    m.insert(
        "op_p50_us",
        median(&pooled.iter().map(Samples::p50_us).collect::<Vec<_>>()),
    );
    // A tail needs ten samples beyond it: where one round's sample cannot
    // support p99, the rounds' samples are pooled.
    let p99 = if pooled.iter().all(|s| supports(s.len(), 0.99)) {
        median(&pooled.iter().map(Samples::p99_us).collect::<Vec<_>>())
    } else {
        let mut all = Samples::default();
        for s in &pooled {
            all.extend(s);
        }
        all.p99_us()
    };
    m.insert("op_p99_us", p99);
    m.insert("light_p50_us", med(rounds, |r| r.kind_p50_us(r.light)));
    m.insert("heavy_p50_us", med(rounds, |r| r.kind_p50_us(r.heavy)));
    let ops: u64 = rounds.iter().map(|r| r.ops).sum();
    let cpu: f64 = rounds.iter().map(|r| r.cpu_s).sum();
    m.insert(
        "cpu_us_per_op",
        if ops > 0 { cpu * 1e6 / ops as f64 } else { 0.0 },
    );
    m.insert("peak_rss_mb", peak_rss_mb);
    m
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let workload = workloads::find(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let cycle: &[Flavour] = match (args.trace, workload.has_direct()) {
        (false, _) => &[Flavour::Untraced],
        (true, false) => &[Flavour::Untraced, Flavour::Traced],
        (true, true) => &[Flavour::Untraced, Flavour::Traced, Flavour::Direct],
    };
    let min_rounds = args.min_rounds.max(cycle.len());
    let scratch = args
        .out
        .join("tmp")
        .join(format!("{}-{}", args.workload, std::process::id()));

    println!(
        "# workload {} seed {} seconds {} trace {} scale 1/{} | host nproc {} kernel {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale,
        host::nproc(),
        host::kernel()
    );

    let started = Instant::now();
    let mut tracer = if args.trace {
        Tracer::new(started, 0, SPAN_CAPACITY)
    } else {
        Tracer::disabled()
    };
    let mut off = Tracer::disabled();
    let top = tracer.begin(workload.name(), 0, 0);
    let mut rounds: Vec<Round> = Vec::new();
    let mut measured = 0.0;
    let mut first_round_rss_mb = 0.0;
    loop {
        let index = rounds.len();
        let flavour = cycle[index % cycle.len()];
        let mut ctx = RoundCtx {
            seed: args.seed,
            scale: args.scale.max(1),
            flavour,
            tracer: if flavour.traced() {
                &mut tracer
            } else {
                &mut off
            },
            parent: top,
            scratch: scratch.clone(),
            index,
        };
        let round = workload.round(&mut ctx)?;
        measured += round.measure_raw_s;
        println!(
            "# round {index} {flavour:?}: setup {:.3} s, measure {:.3} s, {} ops ({} failed), {:.0} ops/s, \
             light/heavy p50 {:.2}/{:.2} us | raw: setup {:.3} s, measure {:.3} s, {:.0} ops/s, host speed {:.2}",
            round.setup_s,
            round.measure_s,
            round.ops,
            round.failed,
            round.ops_per_s(),
            round.kind_p50_us(round.light),
            round.kind_p50_us(round.heavy),
            round.setup_raw_s,
            round.measure_raw_s,
            round.ops as f64 / round.measure_raw_s.max(1e-9),
            round.measure_raw_s / round.measure_s.max(1e-9),
        );
        let kinds: Vec<String> = round
            .kinds
            .iter()
            .map(|(k, s)| format!("{k} ×{} p50 {:.1} us", s.len(), round.kind_p50_us(k)))
            .collect();
        println!(
            "#   {} | peak RSS so far {:.1} MB",
            kinds.join(", "),
            host::peak_rss_mb()
        );
        if rounds.is_empty() {
            // One round of fixed work: later rounds add nothing the program
            // needs, only arenas of threads that have exited, in steps that
            // differ from run to run.
            first_round_rss_mb = host::peak_rss_mb();
        }
        rounds.push(round);
        let enough = measured >= args.seconds && rounds.len() >= min_rounds;
        if enough || started.elapsed().as_secs_f64() > WALL_LIMIT_S {
            break;
        }
    }
    tracer.end(top);
    let _ = std::fs::remove_dir_all(&scratch);

    let attempted: u64 = rounds.iter().map(|r| r.ops).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let mut failures: Vec<String> = Vec::new();
    for (i, r) in rounds.iter().enumerate() {
        for f in &r.check_failures {
            failures.push(format!("round {i}: {f}"));
        }
    }
    if failed > 0 {
        failures.push(format!("{failed} of {attempted} ops failed"));
    }
    let hashes: Vec<u64> = rounds.iter().map(|r| r.stream_hash).collect();
    if hashes.windows(2).any(|w| w[0] != w[1]) {
        failures.push(format!(
            "rounds of one seed generated different op streams: {hashes:x?}"
        ));
    }
    println!(
        "# op stream hash {:016x}, {} rounds, {:.2} s measured",
        hashes[0],
        rounds.len(),
        measured
    );

    let untraced: Vec<&Round> = rounds
        .iter()
        .filter(|r| r.flavour == Flavour::Untraced)
        .collect();
    let named = |values: BTreeMap<&'static str, f64>, defs: Vec<(&str, &str)>| {
        defs.into_iter()
            .map(|(name, unit)| {
                let value = values.get(name).copied().unwrap_or(0.0);
                (name.to_string(), value, unit.to_string())
            })
            .collect::<Vec<(String, f64, String)>>()
    };
    let metrics = if args.trace {
        named(
            layers::per_layer_metrics(workload.name(), &rounds),
            PER_LAYER.iter().map(|d| (d.name, d.unit)).collect(),
        )
    } else {
        named(
            e2e_metrics(&untraced, first_round_rss_mb),
            E2E.iter().map(|d| (d.name, d.unit)).collect(),
        )
    };

    let samples_per_round = untraced.iter().map(|r| r.op_samples()).min().unwrap_or(0);
    let pooled: usize = untraced.iter().map(|r| r.op_samples()).sum();
    println!(
        "# percentiles: medians over {} rounds of per-round percentiles, {} samples per round; p99 {}",
        untraced.len(),
        samples_per_round,
        if supports(samples_per_round, 0.99) {
            "per round".to_string()
        } else if supports(pooled, 0.99) {
            format!("over the {pooled} pooled samples (a round has fewer than 10 beyond its p99)")
        } else {
            format!("NOT SUPPORTED: only {pooled} samples, fewer than 10 beyond it")
        }
    );
    for (name, value, unit) in &metrics {
        println!("{name:<44} {value:>16.4} {unit}");
    }
    if !args.trace && args.scale == 1 {
        for (name, value, _) in &metrics {
            if *value <= 0.0 {
                failures.push(format!("end-to-end metric {name} read {value}"));
            }
        }
    }

    if args.trace {
        let path = args.out.join(format!("trace-{}.json", args.workload));
        write_trace(&path, args, &rounds, &tracer)?;
        println!(
            "# trace: {} ({} spans, {} dropped)",
            path.display(),
            tracer.spans().len(),
            tracer.dropped()
        );
    }

    for f in &failures {
        println!("CHECK FAILED: {f}");
    }
    Ok(RunResult {
        correct: failures.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

fn write_trace(
    path: &std::path::Path,
    args: &RunArgs,
    rounds: &[Round],
    tracer: &Tracer,
) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    }
    let mut engine = crate::engine::Delta::default();
    for r in rounds.iter().filter(|r| r.flavour == Flavour::Traced) {
        if let Some(d) = &r.engine {
            engine.add(d);
        }
    }
    let top: Vec<(String, f64)> = engine
        .stmts
        .iter()
        .take(12)
        .map(|(sql, s)| (sql.clone(), s.total_us))
        .collect();
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let header = [
        ("workload", format!("\"{}\"", json::escape(&args.workload))),
        ("seed", args.seed.to_string()),
        ("scale", args.scale.to_string()),
        ("nproc", host::nproc().to_string()),
    ];
    trace::write_json(&mut out, &header, &top, tracer)
        .and_then(|()| std::io::Write::flush(&mut out))
        .map_err(|e| format!("write {}: {e}", path.display()))
}
