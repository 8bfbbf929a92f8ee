//! The benchmark's definition: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repository
//! root carries the same lists (a unit test compares them), and later
//! changes name their claims as one end-to-end metric × one workload.

pub const RUN_SECONDS: u64 = 10;
pub const DEFAULT_SEED: u64 = 20070107;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "churn_mem",
        why: "CAS service-call mix at 1,000 VMs on an in-memory DB: CPU-bound in cas/sql/plan/exec/mvcc, every heartbeat an UPDATE",
    },
    WorkloadDef {
        name: "churn_durable",
        why: "same generator at 200 VMs on a durable WAL with fsync-per-commit, then reopen: fsync-bound, bypasses executor wins",
    },
    WorkloadDef {
        name: "wire_mix",
        why: "2 loopback connections, prepared point/batch/stream mix over the CAS schema: socket + codec dominate, engine about a tenth",
    },
    WorkloadDef {
        name: "operator_queries",
        why: "read-heavy reports, joins and unprepared ad-hoc selects on a 130k-row CAS DB with interleaved writes that invalidate caches",
    },
    WorkloadDef {
        name: "sched_sweep_sim",
        why: "the paper's Figure 7-9 sweep through sim, appserver, CAS and engine with a 36k-job queue: the scheduler's idle-job scan dominates",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct E2eDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// End-to-end metrics. Every workload reports every one of them, so each is
/// defined per workload (README, "End-to-end metrics"). A bound holds for
/// all five workloads at once, so it follows the noisiest of them on the
/// reference host (README, "Steadiness and the bounds"):
/// an *op* is a service call (`churn_*`, `sched_sweep_sim`), a round trip
/// (`wire_mix`) or a query (`operator_queries`); *light* is the workload's
/// most frequent op kind and *heavy* its costliest.
pub const E2E: [E2eDef; 8] = [
    E2eDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eDef {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    E2eDef {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
    },
    E2eDef {
        name: "op_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eDef {
        name: "light_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
    },
    E2eDef {
        name: "heavy_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eDef {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
    },
    E2eDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerDef {
    LayerDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Per-layer metrics, prefix = module. A workload that does not exercise a
/// layer reports 0 for it. `call.*` / `tail.*` are the workload-specific
/// user-visible numbers (latency by call kind, jobs per second, recovery
/// time) measured in the traced run's *untraced* rounds.
pub const PER_LAYER: &[LayerDef] = &[
    // Workload-specific user-visible numbers.
    layer("call.jobs_per_s", "1/s", Higher),
    layer("call.heartbeat_p50_us", "us", Lower),
    layer("call.submit_p50_us", "us", Lower),
    layer("call.accept_p50_us", "us", Lower),
    layer("call.complete_p50_us", "us", Lower),
    layer("call.sched_us_per_match", "us", Lower),
    layer("call.rtt_p50_us", "us", Lower),
    layer("call.stream_rows_per_s", "1/s", Higher),
    layer("call.point_query_p50_us", "us", Lower),
    layer("call.report_query_p50_ms", "ms", Lower),
    layer("call.recovery_s", "s", Lower),
    layer("tail.heartbeat_p99_us", "us", Lower),
    layer("tail.rtt_p99_us", "us", Lower),
    // sim
    layer("sim.non_sql_share", "ratio", Lower),
    layer("sim.requests_per_wall_s", "1/s", Higher),
    layer("sim.sim_s_per_wall_s", "ratio", Higher),
    // appserver
    layer("appserver.handle_self_us", "us", Lower),
    // cas
    layer("cas.self_us_per_call", "us", Lower),
    layer("cas.stmts_per_call", "count", Lower),
    layer("cas.commits_per_call", "count", Lower),
    layer("cas.heartbeat.self_us", "us", Lower),
    layer("cas.heartbeat.stmts", "count", Lower),
    layer("cas.heartbeat.commits", "count", Lower),
    layer("cas.heartbeat.rows_read", "count", Lower),
    layer("cas.submit.self_us", "us", Lower),
    layer("cas.submit.stmts", "count", Lower),
    layer("cas.submit.commits", "count", Lower),
    layer("cas.submit.rows_read", "count", Lower),
    layer("cas.accept.self_us", "us", Lower),
    layer("cas.accept.stmts", "count", Lower),
    layer("cas.accept.commits", "count", Lower),
    layer("cas.accept.rows_read", "count", Lower),
    layer("cas.complete.self_us", "us", Lower),
    layer("cas.complete.stmts", "count", Lower),
    layer("cas.complete.commits", "count", Lower),
    layer("cas.complete.rows_read", "count", Lower),
    layer("cas.sched.self_us", "us", Lower),
    layer("cas.sched.stmts", "count", Lower),
    layer("cas.sched.commits", "count", Lower),
    layer("cas.sched.rows_read", "count", Lower),
    // relstore
    layer("relstore.stmt_us_per_call", "us", Lower),
    layer("relstore.select_p50_us", "us", Lower),
    layer("relstore.update_p50_us", "us", Lower),
    layer("relstore.insert_p50_us", "us", Lower),
    layer("relstore.delete_p50_us", "us", Lower),
    layer("relstore.commit_p50_us", "us", Lower),
    layer("relstore.top_stmt_share", "ratio", Lower),
    layer("relstore.exec.rows_read_per_call", "count", Lower),
    layer("relstore.exec.rows_scanned_per_call", "count", Lower),
    layer("relstore.exec.index_lookups_per_call", "count", Lower),
    layer("relstore.exec.rows_read_per_row_returned", "ratio", Lower),
    layer("relstore.sql.parse_ratio", "ratio", Lower),
    layer("relstore.sql.stmt_cache_hit_ratio", "ratio", Higher),
    layer("relstore.plan.plans_built", "count", Lower),
    layer("relstore.plan.plan_cache_hit_ratio", "ratio", Higher),
    layer("relstore.plan.build_reuse_hits", "count", Higher),
    layer("relstore.mvcc.versions_per_commit", "count", Lower),
    layer("relstore.mvcc.max_version_chain", "count", Lower),
    layer("relstore.mvcc.versions_vacuumed", "count", Higher),
    layer("relstore.txn.lock_waits", "count", Lower),
    layer("relstore.txn.lock_wait_share", "ratio", Lower),
    layer("relstore.wal.fsyncs_per_call", "count", Lower),
    layer("relstore.wal.fsync_p50_us", "us", Lower),
    layer("relstore.wal.fsync_share", "ratio", Lower),
    layer("relstore.wal.wal_bytes_per_call", "B", Lower),
    layer("relstore.wal.wal_bytes_per_job", "B", Lower),
    layer("relstore.wal.log_bytes_per_live_byte", "ratio", Lower),
    layer("relstore.wal.recovery_records_per_s", "1/s", Higher),
    // wire
    layer("wire.self_us", "us", Lower),
    layer("wire.bytes_in_per_rt", "B", Lower),
    layer("wire.bytes_out_per_rt", "B", Lower),
    layer("wire.frames_per_rt", "count", Lower),
    layer("wire.batch_us_per_binding", "us", Lower),
    layer("wire.connect_us", "us", Lower),
    // the benchmark itself
    layer("trace.overhead_ratio", "ratio", Higher),
    layer("trace.layer_sum_ratio", "ratio", Higher),
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

/// The contents of `BENCHMARK.json` (`benchmark/run.sh --definition`).
pub fn definition_json() -> String {
    use crate::json::{escape, num};
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name,
                escape(w.why)
            )
        })
        .collect();
    let e2e: Vec<String> = E2E
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                num(m.bound)
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for n in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(E2E.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(n), "{n}");
            assert!(seen.insert(n), "{n} used twice");
        }
        for u in E2E
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{u}"
            );
        }
        assert!(E2E.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(E2E.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup = E2E.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(E2E.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is the driver's copy of these lists.
    #[test]
    fn benchmark_json_matches_the_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text,
            definition_json(),
            "regenerate with `benchmark/run.sh --definition > BENCHMARK.json`"
        );
        let doc = json::parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), workload_names());
        assert_eq!(
            names("end_to_end"),
            E2E.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (def, j) in E2E
            .iter()
            .zip(doc.get("end_to_end").and_then(Json::as_array).unwrap())
        {
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(def.better.as_str())
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(def.bound));
        }
        for (def, j) in WORKLOADS
            .iter()
            .zip(doc.get("workloads").and_then(Json::as_array).unwrap())
        {
            assert_eq!(j.get("why").and_then(Json::as_str), Some(def.why));
        }
    }
}
