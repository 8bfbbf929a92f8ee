//! # workloads — experiment harness for the CondorJ2 reproduction
//!
//! One runner per table and figure of the paper's evaluation, each available
//! at paper scale (the published cluster sizes and durations) or at a quick
//! scale suitable for tests and Criterion benchmarks. The `bench` crate's
//! `figures` binary calls these runners and prints the same rows/series the
//! paper reports; `EXPERIMENTS.md` records the paper-versus-measured
//! comparison for each one.

#![warn(missing_docs)]

mod figures;

pub use figures::{
    condor_dataflow_trace, condor_large_cluster, condor_mixed_workload, condorj2_dataflow_trace,
    condorj2_mixed_workload, large_cluster_experiment, queue_length_experiment,
    throughput_experiment, CondorLargeClusterResult, LargeClusterExperiment,
    MixedWorkloadExperiment, QueueLengthExperiment, Scale, ThroughputExperiment, ThroughputPoint,
};

/// Counts the lines of Rust source in each crate of this repository, the
/// reproduction's analogue of the paper's Section 4.2.3.1 code-base-size
/// comparison. Returns `(crate name, lines)` pairs plus the total.
pub fn codebase_size(repo_root: &std::path::Path) -> (Vec<(String, usize)>, usize) {
    fn count_dir(dir: &std::path::Path) -> usize {
        let mut lines = 0;
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                lines += count_dir(&path);
            } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
                if let Ok(text) = std::fs::read_to_string(&path) {
                    lines += text.lines().count();
                }
            }
        }
        lines
    }
    let mut per_crate = Vec::new();
    let mut total = 0;
    let crates_dir = repo_root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut names: Vec<_> = entries
            .flatten()
            .filter(|e| e.path().is_dir())
            .map(|e| e.path())
            .collect();
        names.sort();
        for path in names {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("unknown")
                .to_string();
            let lines = count_dir(&path);
            total += lines;
            per_crate.push((name, lines));
        }
    }
    for extra in ["examples", "tests", "src"] {
        let lines = count_dir(&repo_root.join(extra));
        if lines > 0 {
            total += lines;
            per_crate.push((extra.to_string(), lines));
        }
    }
    (per_crate, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codebase_size_counts_this_repository() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap()
            .to_path_buf();
        let (per_crate, total) = codebase_size(&root);
        assert!(per_crate.iter().any(|(n, _)| n == "relstore"));
        assert!(total > 5_000, "expected a substantial code base, found {total} lines");
    }

    #[test]
    fn codebase_size_of_missing_directory_is_empty() {
        let (per_crate, total) = codebase_size(std::path::Path::new("/nonexistent/path"));
        assert!(per_crate.is_empty());
        assert_eq!(total, 0);
    }
}
