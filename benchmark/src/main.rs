//! `cas-bench`: the repository's end-to-end + per-layer benchmark.
//! See `benchmark/README.md`; `benchmark/run.sh` builds and launches this.
//!
//! ```text
//! cas-bench run --workload W --seed N --seconds S --trace 0|1   one run (the driver's contract)
//! cas-bench suite [--seed N] [--seconds S] [--smoke]            all workloads, 3 repetitions + traced pass
//! cas-bench compare A.json B.json                               regression gate over two result files
//! cas-bench definition                                          what BENCHMARK.json must hold
//! ```

mod engine;
mod host;
mod json;
mod kernel;
mod layers;
mod metrics;
mod rng;
mod round;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: cas-bench run --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n\
         \x20      cas-bench suite [--seed N] [--seconds S] [--smoke] [--out DIR] [--commit ID]\n\
         \x20      cas-bench compare A.json B.json\n\
         \x20      cas-bench definition",
        metrics::workload_names().join("|")
    );
    exit(2)
}

/// `--flag value` pairs and bare `--switch`es after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        match self.0.get(at + 1) {
            Some(v) => Some(v),
            None => usage(),
        }
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        match self.value(flag) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("cas-bench: bad value {v:?} for {flag}");
                usage()
            }),
        }
    }

    fn switch(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let flags = Flags(argv.collect());
    let out = PathBuf::from(flags.value("--out").unwrap_or("benchmark/out"));
    let seed = flags.parsed("--seed", metrics::DEFAULT_SEED);
    let seconds = flags.parsed("--seconds", metrics::RUN_SECONDS as f64);
    let outcome = match command.as_str() {
        "run" => {
            let args = run::RunArgs {
                workload: flags
                    .value("--workload")
                    .unwrap_or_else(|| usage())
                    .to_string(),
                seed,
                seconds,
                trace: flags.parsed("--trace", 0u8) != 0,
                scale: flags.parsed("--scale", 1u64).max(1),
                min_rounds: flags.parsed("--min-rounds", 3usize).max(1),
                out,
            };
            run::run(&args).map(|r| {
                println!("{}", r.line());
                r.correct
            })
        }
        "suite" => suite::suite(&suite::SuiteArgs {
            seed,
            seconds,
            smoke: flags.switch("--smoke"),
            out,
            commit: flags.value("--commit").unwrap_or("unknown").to_string(),
        }),
        "compare" => match flags.0.as_slice() {
            [a, b] => suite::compare(a.as_ref(), b.as_ref()),
            _ => usage(),
        },
        "definition" => {
            print!("{}", metrics::definition_json());
            Ok(true)
        }
        _ => usage(),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => exit(1),
        Err(e) => {
            eprintln!("cas-bench: {e}");
            exit(2);
        }
    }
}
