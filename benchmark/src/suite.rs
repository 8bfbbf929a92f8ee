//! The whole benchmark in one command, and the comparison of two of its
//! result files.
//!
//! `suite` launches every workload run as its own child process (clean
//! caches, clean `VmHWM`): three untraced repetitions with the workload
//! order rotated per repetition, **each end-to-end number the median of the
//! three**, then one traced pass for the per-layer numbers and the trace
//! files. `compare` is the regression gate over two result files.

use crate::host;
use crate::json::{self, Json};
use crate::metrics::{Better, E2E, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::stats::median;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub out: PathBuf,
    pub commit: String,
}

const REPETITIONS: usize = 3;
/// `--smoke`: work ÷ 20, one repetition of one round, all checks on.
const SMOKE_SCALE: u64 = 20;

struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
    failures: Vec<String>,
}

fn run_child(args: &SuiteArgs, workload: &str, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (scale, seconds, min_rounds) = if args.smoke {
        (SMOKE_SCALE, 0.0, 1)
    } else {
        (1, args.seconds, 3)
    };
    let output = Command::new(exe)
        .arg("run")
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", &scale.to_string()])
        .args(["--min-rounds", &min_rounds.to_string()])
        .arg("--out")
        .arg(&args.out)
        .output()
        .map_err(|e| format!("launch {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = json::parse(last).map_err(|e| {
        format!(
            "{workload}: no result line ({e}); exit {:?}; stderr: {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr).trim()
        )
    })?;
    let mut metrics = BTreeMap::new();
    if let Some(m) = doc.get("metrics").and_then(Json::as_object) {
        for (name, v) in m {
            metrics.insert(
                name.clone(),
                v.get("value").and_then(Json::as_f64).unwrap_or(0.0),
            );
        }
    }
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false)
            && output.status.success(),
        attempted: doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
        failed: doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
        metrics,
        failures: stdout
            .lines()
            .filter(|l| l.starts_with("CHECK FAILED"))
            .map(str::to_string)
            .collect(),
    })
}

/// Runs the suite; returns whether every run's outputs were correct.
pub fn suite(args: &SuiteArgs) -> Result<bool, String> {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let reps = if args.smoke { 1 } else { REPETITIONS };
    println!(
        "# cas-bench suite: seed {} | {} s per run | OPS_SCALE 1/{} | {} repetition(s) + 1 traced pass",
        args.seed,
        if args.smoke { 0.0 } else { args.seconds },
        if args.smoke { SMOKE_SCALE } else { 1 },
        reps
    );
    println!(
        "# host: nproc {} kernel {} | commit {}",
        host::nproc(),
        host::kernel(),
        args.commit
    );
    std::fs::create_dir_all(&args.out).map_err(|e| format!("mkdir {}: {e}", args.out.display()))?;

    let started = Instant::now();
    let mut all_correct = true;
    let mut e2e_runs: BTreeMap<&str, Vec<ChildResult>> = BTreeMap::new();
    let mut problems: Vec<String> = Vec::new();
    for rep in 0..reps {
        for k in 0..names.len() {
            let workload = names[(k + rep) % names.len()];
            let t = Instant::now();
            let r = run_child(args, workload, false)?;
            println!(
                "[rep {}/{reps}] {workload:<18} {} ({:.0} ops, {:.0} failed, {:.1} s)",
                rep + 1,
                if r.correct { "ok" } else { "CHECKS FAILED" },
                r.attempted,
                r.failed,
                t.elapsed().as_secs_f64()
            );
            all_correct &= r.correct;
            problems.extend(r.failures.iter().map(|f| format!("{workload}: {f}")));
            e2e_runs.entry(workload).or_default().push(r);
        }
    }
    let mut layers: BTreeMap<&str, ChildResult> = BTreeMap::new();
    for workload in &names {
        let t = Instant::now();
        let r = run_child(args, workload, true)?;
        println!(
            "[traced]  {workload:<18} {} ({:.1} s)",
            if r.correct { "ok" } else { "CHECKS FAILED" },
            t.elapsed().as_secs_f64()
        );
        all_correct &= r.correct;
        problems.extend(
            r.failures
                .iter()
                .map(|f| format!("{workload} (traced): {f}")),
        );
        layers.insert(workload, r);
    }

    // The report: end to end first, then the layers.
    println!(
        "\n== end to end: median of {reps} repetition(s) [min .. max], times at reference speed =="
    );
    for workload in &names {
        println!("{workload}");
        for def in &E2E {
            let runs: Vec<f64> = e2e_runs[workload]
                .iter()
                .map(|r| r.metrics.get(def.name).copied().unwrap_or(0.0))
                .collect();
            let (lo, hi) = runs
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            println!(
                "  {:<16} {:>14.4} {:<4} [{:.4} .. {:.4}]  {} is better, bound {:.0} %",
                def.name,
                median(&runs),
                def.unit,
                lo,
                hi,
                def.better.as_str(),
                def.bound * 100.0
            );
        }
    }
    println!(
        "\n== per layer: one traced pass (0 = layer not exercised by the workload, omitted) =="
    );
    for workload in &names {
        println!("{workload}");
        for def in PER_LAYER {
            let v = layers[workload]
                .metrics
                .get(def.name)
                .copied()
                .unwrap_or(0.0);
            if v != 0.0 {
                println!("  {:<44} {:>16.4} {}", def.name, v, def.unit);
            }
        }
    }
    for p in &problems {
        println!("{p}");
    }

    let path = args.out.join(if args.smoke {
        "results-smoke.json"
    } else {
        "results.json"
    });
    std::fs::write(&path, results_json(args, &names, &e2e_runs, &layers))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "\n# {} in {:.0} s: results in {}, traces in {}/trace-<workload>.json",
        if all_correct {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        },
        started.elapsed().as_secs_f64(),
        path.display(),
        args.out.display()
    );
    Ok(all_correct)
}

fn results_json(
    args: &SuiteArgs,
    names: &[&str],
    e2e_runs: &BTreeMap<&str, Vec<ChildResult>>,
    layers: &BTreeMap<&str, ChildResult>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"host\": {{\"nproc\": {}, \"kernel\": \"{}\"}},\n",
        host::nproc(),
        json::escape(&host::kernel())
    ));
    out.push_str(&format!(
        "  \"commit\": \"{}\",\n",
        json::escape(&args.commit)
    ));
    out.push_str(&format!(
        "  \"seed\": {},\n  \"seconds\": {},\n  \"ops_scale\": {},\n  \"workloads\": {{\n",
        args.seed,
        json::num(if args.smoke { 0.0 } else { args.seconds }),
        if args.smoke { SMOKE_SCALE } else { 1 }
    ));
    for (w, workload) in names.iter().enumerate() {
        let runs = &e2e_runs[workload];
        let correct = runs.iter().all(|r| r.correct) && layers[workload].correct;
        out.push_str(&format!(
            "    \"{workload}\": {{\n      \"correct\": {correct},\n      \"e2e\": {{\n"
        ));
        for (i, def) in E2E.iter().enumerate() {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| r.metrics.get(def.name).copied().unwrap_or(0.0))
                .collect();
            out.push_str(&format!(
                "        \"{}\": {{\"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}, \"median\": {}, \"runs\": [{}]}}{}\n",
                def.name,
                def.unit,
                def.better.as_str(),
                json::num(def.bound),
                json::num(median(&values)),
                values.iter().map(|v| json::num(*v)).collect::<Vec<_>>().join(", "),
                if i + 1 < E2E.len() { "," } else { "" }
            ));
        }
        out.push_str("      },\n      \"per_layer\": {\n");
        for (i, def) in PER_LAYER.iter().enumerate() {
            out.push_str(&format!(
                "        \"{}\": {{\"unit\": \"{}\", \"value\": {}}}{}\n",
                def.name,
                def.unit,
                json::num(
                    layers[workload]
                        .metrics
                        .get(def.name)
                        .copied()
                        .unwrap_or(0.0)
                ),
                if i + 1 < PER_LAYER.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "      }},\n      \"trace_file\": \"trace-{workload}.json\"\n    }}{}\n",
            if w + 1 < names.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

/// Judges one metric: `a` are the parent's runs, `b` the change's.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 || a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    // Positive = the change reads worse.
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let every_b_better = match better {
        Better::Lower => max(b) < min(a),
        Better::Higher => min(b) > max(a),
    };
    let spread = |v: &[f64]| (max(v) - min(v)) / median(v).abs().max(f64::MIN_POSITIVE);
    if every_b_better {
        Verdict::Better
    } else if spread(a) > bound || spread(b) > bound {
        // Wider than the bound: neither a regression nor "unchanged" can be
        // told from these runs.
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

fn runs_of(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("e2e"))
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("runs"))
        .and_then(Json::as_array)
        .map(|runs| runs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Compares two result files; returns whether no metric is worse.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let describe = |d: &Json| {
        format!(
            "commit {} seed {}",
            d.get("commit").and_then(Json::as_str).unwrap_or("?"),
            d.get("seed").and_then(Json::as_f64).unwrap_or(0.0)
        )
    };
    println!("A (base): {} — {}", a_path.display(), describe(&a));
    println!("B       : {} — {}", b_path.display(), describe(&b));
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>16} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B / A", "bound"
    );
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for w in &WORKLOADS {
        for def in &E2E {
            let (ra, rb) = (runs_of(&a, w.name, def.name), runs_of(&b, w.name, def.name));
            let verdict = judge(&ra, &rb, def.better, def.bound);
            let (ma, mb) = (median(&ra), median(&rb));
            let label = match verdict {
                Verdict::Better => "better",
                Verdict::Within => "within",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved",
            };
            *counts.entry(label).or_default() += 1;
            println!(
                "{:<18} {:<14} {:>14.4} {:>14.4} {:>10.3} × A {:>6.0} %  {label}",
                w.name,
                def.name,
                ma,
                mb,
                if ma != 0.0 { mb / ma } else { 0.0 },
                def.bound * 100.0
            );
        }
    }
    println!("# {counts:?} (run length of the definition: {RUN_SECONDS} s)");
    Ok(counts.get("WORSE").copied().unwrap_or(0) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let lower = Better::Lower;
        // Within the bound, tight runs.
        assert_eq!(
            judge(&[10.0, 10.1, 9.9], &[10.3, 10.4, 10.2], lower, 0.10),
            Verdict::Within
        );
        // Worse by more than the bound.
        assert_eq!(
            judge(&[10.0, 10.1, 9.9], &[11.5, 11.6, 11.4], lower, 0.10),
            Verdict::Worse
        );
        // Every run of the change beats every run of the parent.
        assert_eq!(
            judge(&[10.0, 10.1, 9.9], &[9.0, 9.1, 8.9], lower, 0.10),
            Verdict::Better
        );
        // Spread wider than the bound: unresolved, not "unchanged"…
        assert_eq!(
            judge(&[10.0, 12.0, 9.0], &[10.5, 10.4, 10.6], lower, 0.10),
            Verdict::Unresolved
        );
        // …unless every run of the change is better anyway.
        assert_eq!(
            judge(&[10.0, 12.0, 9.0], &[8.0, 8.1, 7.9], lower, 0.10),
            Verdict::Better
        );
        // Direction matters.
        assert_eq!(
            judge(
                &[100.0, 101.0, 99.0],
                &[80.0, 81.0, 79.0],
                Better::Higher,
                0.07
            ),
            Verdict::Worse
        );
        assert_eq!(
            judge(
                &[100.0, 101.0, 99.0],
                &[120.0, 121.0, 119.0],
                Better::Higher,
                0.07
            ),
            Verdict::Better
        );
        assert_eq!(judge(&[], &[1.0], lower, 0.1), Verdict::Unresolved);
    }
}
