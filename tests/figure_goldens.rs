//! Every paper figure the `figures` binary renders at Quick scale, pinned
//! byte for byte (seed 20070107, the binary's seed).
//!
//! Each test renders one experiment and compares it with
//! `tests/goldens/<name>.txt`. The simulations are deterministic per seed and
//! identical between debug and release builds, so any difference is a moved
//! figure. A change that moves one on purpose regenerates every golden with
//! `scripts/regen_goldens.sh` and records the before → after. The code-base
//! size report is not pinned: it changes with every edit.

use workloads::{
    condor_dataflow_trace, condor_large_cluster, condor_mixed_workload, condorj2_dataflow_trace,
    condorj2_mixed_workload, large_cluster_experiment, queue_length_experiment,
    throughput_experiment, Scale,
};

const SEED: u64 = 20070107;

/// Compares one render, plus the newline the binary prints after it, with
/// its golden file.
fn check(name: &str, render: String) {
    let path = format!("{}/tests/goldens/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let actual = format!("{render}\n");
    if actual != golden {
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "{name} moved from {path} at line {}:\n--- golden\n{}\n--- actual\n{}\n\
             (rerun scripts/regen_goldens.sh if the change is intended)",
            line + 1,
            golden.lines().nth(line).unwrap_or("<end>"),
            actual.lines().nth(line).unwrap_or("<end>"),
        );
    }
}

#[test]
fn table1_condor_dataflow() {
    check(
        "table1",
        condor_dataflow_trace(SEED)
            .to_table("Table 1 / Figure 5: data flow of one job through Condor"),
    );
}

#[test]
fn table2_condorj2_dataflow() {
    check(
        "table2",
        condorj2_dataflow_trace(SEED)
            .to_table("Table 2 / Figure 6: data flow of one job through CondorJ2"),
    );
}

#[test]
fn figures_7_to_9_scheduling_throughput() {
    check("fig7_9", throughput_experiment(Scale::Quick, SEED).render());
}

#[test]
fn figure_10_large_cluster() {
    check(
        "fig10",
        large_cluster_experiment(Scale::Quick, SEED).render(),
    );
}

#[test]
fn figures_11_12_condorj2_mixed_workload() {
    check(
        "fig11_12",
        condorj2_mixed_workload(Scale::Quick, SEED).render(),
    );
}

#[test]
fn figures_13_14_queue_length() {
    check(
        "fig13_14",
        queue_length_experiment(Scale::Quick, SEED).render(),
    );
}

#[test]
fn figure_15_condor_mixed_workload() {
    check(
        "fig15",
        condor_mixed_workload(Scale::Quick, false, SEED).render(),
    );
}

#[test]
fn figure_16_condor_mixed_workload_limited() {
    check(
        "fig16",
        condor_mixed_workload(Scale::Quick, true, SEED).render(),
    );
}

#[test]
fn section_5_3_2_condor_crash() {
    check(
        "condor_crash",
        condor_large_cluster(Scale::Quick, SEED).render(),
    );
}
