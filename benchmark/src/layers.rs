//! Per-layer metrics of a traced run, from three sources: the engine's own
//! counters and histograms (read by SQL around the measured phase of each
//! traced round), the spans' times, and differential replays (`Direct`
//! rounds bypass the top layer; the difference is that layer's self time).
//!
//! Every value is computed per round and the run reports the median over
//! the rounds of that flavour, so a count that repeats exactly per round
//! (fixed work, one client) is reported exactly.

use crate::engine::Delta;
use crate::round::{median_over as med, Flavour, Round};
use crate::stats::median;
use crate::workloads::churn;
use std::collections::BTreeMap;

type Metrics = BTreeMap<&'static str, f64>;

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn of(rounds: &[Round], flavour: Flavour) -> Vec<&Round> {
    rounds.iter().filter(|r| r.flavour == flavour).collect()
}

/// Engine statement time per op of a traced round, at reference speed (the
/// engine's clock ran at the host's speed of the moment, like the
/// benchmark's, so the round's mean speed factor applies).
fn stmt_us_per_op(r: &Round) -> f64 {
    r.engine
        .as_ref()
        .map_or(0.0, |d| ratio(d.stmt_time_us() * r.speed(), r.ops as f64))
}

/// The engine-side metrics of one traced round.
fn relstore_metrics(r: &Round, d: &Delta) -> Vec<(&'static str, f64)> {
    let calls = r.ops as f64;
    // Shares compare engine-clock time with the wall clock of the same
    // moments: both raw.
    let wall_us = r.measure_raw_s * 1e6;
    let jobs = r.extra("jobs");
    let top = d.stmts.first().map_or(0.0, |(_, s)| s.total_us);
    vec![
        ("relstore.stmt_us_per_call", stmt_us_per_op(r)),
        ("relstore.select_p50_us", d.hist("stmt.select").p50_us),
        ("relstore.update_p50_us", d.hist("stmt.update").p50_us),
        ("relstore.insert_p50_us", d.hist("stmt.insert").p50_us),
        ("relstore.delete_p50_us", d.hist("stmt.delete").p50_us),
        ("relstore.commit_p50_us", d.hist("txn.commit").p50_us),
        ("relstore.top_stmt_share", ratio(top, d.stmt_time_us())),
        (
            "relstore.exec.rows_read_per_call",
            ratio(d.stat("rows_read"), calls),
        ),
        (
            "relstore.exec.rows_scanned_per_call",
            ratio(d.stat("rows_scanned"), calls),
        ),
        (
            "relstore.exec.index_lookups_per_call",
            ratio(d.stat("index_lookups"), calls),
        ),
        (
            "relstore.exec.rows_read_per_row_returned",
            ratio(d.stat("rows_read"), d.rows_returned()),
        ),
        (
            "relstore.sql.parse_ratio",
            ratio(d.stat("statements_parsed"), d.stat("statements_executed")),
        ),
        (
            "relstore.sql.stmt_cache_hit_ratio",
            ratio(
                d.stat("cache_hits"),
                d.stat("cache_hits") + d.stat("cache_misses"),
            ),
        ),
        ("relstore.plan.plans_built", d.stat("plans_built")),
        (
            "relstore.plan.plan_cache_hit_ratio",
            ratio(
                d.stat("plan_cache_hits"),
                d.stat("plan_cache_hits") + d.stat("plans_built"),
            ),
        ),
        ("relstore.plan.build_reuse_hits", d.stat("build_reuse_hits")),
        (
            "relstore.mvcc.versions_per_commit",
            ratio(d.stat("versions_created"), d.stat("commits")),
        ),
        (
            "relstore.mvcc.max_version_chain",
            d.stat("max_version_chain"),
        ),
        (
            "relstore.mvcc.versions_vacuumed",
            d.stat("versions_vacuumed"),
        ),
        ("relstore.txn.lock_waits", d.stat("lock_waits")),
        (
            "relstore.txn.lock_wait_share",
            ratio(d.stat("lock_wait_nanos") / 1e3, wall_us),
        ),
        (
            "relstore.wal.fsyncs_per_call",
            ratio(d.stat("wal_fsyncs"), calls),
        ),
        ("relstore.wal.fsync_p50_us", d.hist("wal.fsync").p50_us),
        (
            "relstore.wal.fsync_share",
            ratio(d.stat("wal_fsync_nanos") / 1e3, wall_us),
        ),
        (
            "relstore.wal.wal_bytes_per_call",
            ratio(d.stat("wal_bytes"), calls),
        ),
        (
            "relstore.wal.wal_bytes_per_job",
            ratio(d.stat("wal_bytes"), jobs),
        ),
        (
            "relstore.wal.log_bytes_per_live_byte",
            ratio(r.extra("log_bytes"), r.extra("live_bytes")),
        ),
        (
            "relstore.wal.recovery_records_per_s",
            ratio(r.extra("wal_records_total"), r.extra("recovery_s")),
        ),
    ]
}

/// Medians over `rounds` of a per-round metric list.
fn medians(
    rounds: &[&Round],
    per_round: impl Fn(&Round) -> Vec<(&'static str, f64)>,
    out: &mut Metrics,
) {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in rounds {
        for (name, v) in per_round(r) {
            by_name.entry(name).or_default().push(v);
        }
    }
    for (name, values) in by_name {
        out.insert(name, median(&values));
    }
}

pub fn per_layer_metrics(workload: &str, rounds: &[Round]) -> Metrics {
    let untraced = of(rounds, Flavour::Untraced);
    let traced = of(rounds, Flavour::Traced);
    let direct = of(rounds, Flavour::Direct);
    let mut m = Metrics::new();

    // Engine counters and histograms, from the traced rounds.
    medians(
        &traced,
        |r| {
            r.engine
                .as_ref()
                .map_or_else(Vec::new, |d| relstore_metrics(r, d))
        },
        &mut m,
    );

    // Tracing overhead: the same fixed work with and without spans.
    m.insert(
        "trace.overhead_ratio",
        ratio(
            med(&traced, Round::ops_per_s),
            med(&untraced, Round::ops_per_s),
        ),
    );

    match workload {
        "churn_mem" | "churn_durable" => churn_metrics(&untraced, &traced, &direct, &mut m),
        "wire_mix" => wire_metrics(&untraced, &traced, &direct, &mut m),
        "operator_queries" => {
            m.insert(
                "call.point_query_p50_us",
                med(&untraced, |r| r.kind_p50_us("point")),
            );
            m.insert(
                "call.report_query_p50_ms",
                med(&untraced, |r| r.kind_p50_us("report") / 1e3),
            );
        }
        "sched_sweep_sim" => {
            m.insert(
                "call.jobs_per_s",
                med(&untraced, |r| ratio(r.extra("jobs"), r.measure_s)),
            );
            m.insert("sim.requests_per_wall_s", med(&untraced, Round::ops_per_s));
            m.insert(
                "sim.sim_s_per_wall_s",
                med(&untraced, |r| ratio(r.extra("sim_secs"), r.measure_s)),
            );
            m.insert(
                "sim.non_sql_share",
                med(&traced, |r| {
                    1.0 - ratio(stmt_us_per_op(r) * r.ops as f64, r.measure_s * 1e6)
                }),
            );
        }
        _ => {}
    }
    m
}

fn wire_metrics(untraced: &[&Round], traced: &[&Round], direct: &[&Round], m: &mut Metrics) {
    m.insert("call.rtt_p50_us", med(untraced, |r| r.kind_p50_us("rtt")));
    m.insert("tail.rtt_p99_us", med(untraced, |r| r.kind_p99_us("rtt")));
    m.insert(
        "call.stream_rows_per_s",
        med(untraced, |r| ratio(1_000.0 * 1e6, r.kind_p50_us("stream"))),
    );
    // The same seeded statements over the socket and through an embedded
    // session: the difference is socket + codec + server worker.
    m.insert(
        "wire.self_us",
        med(traced, |r| r.kind_p50_us("rtt")) - med(direct, |r| r.kind_p50_us("rtt")),
    );
    let per_rt = |name: &'static str| move |r: &Round| ratio(r.extra(name), r.ops as f64);
    m.insert("wire.bytes_in_per_rt", med(traced, per_rt("net_bytes_in")));
    m.insert(
        "wire.bytes_out_per_rt",
        med(traced, per_rt("net_bytes_out")),
    );
    m.insert("wire.frames_per_rt", med(traced, per_rt("frames")));
    m.insert(
        "wire.batch_us_per_binding",
        med(untraced, |r| r.kind_mean_us("batch") / 64.0),
    );
    m.insert("wire.connect_us", med(untraced, |r| r.extra("connect_us")));
}

fn churn_metrics(untraced: &[&Round], traced: &[&Round], direct: &[&Round], m: &mut Metrics) {
    // User-visible numbers by call kind, from the untraced rounds.
    m.insert(
        "call.jobs_per_s",
        med(untraced, |r| ratio(r.extra("jobs"), r.measure_s)),
    );
    m.insert(
        "call.heartbeat_p50_us",
        med(untraced, |r| r.kind_p50_us("heartbeat")),
    );
    m.insert(
        "tail.heartbeat_p99_us",
        med(untraced, |r| r.kind_p99_us("heartbeat")),
    );
    m.insert(
        "call.submit_p50_us",
        med(untraced, |r| r.kind_p50_us("submit")),
    );
    m.insert(
        "call.accept_p50_us",
        med(untraced, |r| r.kind_p50_us("accept")),
    );
    m.insert(
        "call.complete_p50_us",
        med(untraced, |r| r.kind_p50_us("complete")),
    );
    m.insert(
        "call.sched_us_per_match",
        med(untraced, |r| {
            let passes_us = r
                .kinds
                .get("sched")
                .map_or(0.0, |s| s.total_nanos() as f64 / 1e3);
            ratio(passes_us, r.extra("matches"))
        }),
    );
    m.insert("call.recovery_s", med(untraced, |r| r.extra("recovery_s")));

    // Time inside calls, per call, for the container path and the direct
    // path; their difference is the application server's own time.
    let call_us = |r: &Round| {
        let total: u64 = churn::KINDS
            .iter()
            .filter_map(|k| r.kinds.get(k))
            .map(|s| s.total_nanos())
            .sum();
        ratio(total as f64 / 1e3, r.ops as f64)
    };
    let stmt_us = stmt_us_per_op;
    let engine_per_call = |r: &Round, name: &str| {
        r.engine
            .as_ref()
            .map_or(0.0, |d| ratio(d.stat(name), r.ops as f64))
    };
    let cas_self = med(direct, |r| call_us(r) - stmt_us(r));
    // The application server's own time on the most common call: medians
    // shrug off the noise bursts that a difference of means would keep.
    m.insert(
        "appserver.handle_self_us",
        med(traced, |r| r.kind_p50_us("heartbeat")) - med(direct, |r| r.kind_p50_us("heartbeat")),
    );
    m.insert("cas.self_us_per_call", cas_self);
    m.insert(
        "cas.stmts_per_call",
        med(direct, |r| engine_per_call(r, "statements_executed")),
    );
    m.insert(
        "cas.commits_per_call",
        med(direct, |r| engine_per_call(r, "commits")),
    );

    // Per call kind, from the probe phase of the direct rounds.
    const PROBED: [(&str, [&str; 4]); 5] = [
        (
            "heartbeat",
            [
                "cas.heartbeat.self_us",
                "cas.heartbeat.stmts",
                "cas.heartbeat.commits",
                "cas.heartbeat.rows_read",
            ],
        ),
        (
            "submit",
            [
                "cas.submit.self_us",
                "cas.submit.stmts",
                "cas.submit.commits",
                "cas.submit.rows_read",
            ],
        ),
        (
            "accept",
            [
                "cas.accept.self_us",
                "cas.accept.stmts",
                "cas.accept.commits",
                "cas.accept.rows_read",
            ],
        ),
        (
            "complete",
            [
                "cas.complete.self_us",
                "cas.complete.stmts",
                "cas.complete.commits",
                "cas.complete.rows_read",
            ],
        ),
        (
            "sched",
            [
                "cas.sched.self_us",
                "cas.sched.stmts",
                "cas.sched.commits",
                "cas.sched.rows_read",
            ],
        ),
    ];
    for (kind, names) in PROBED {
        for (name, what) in names
            .iter()
            .zip(["self_us", "stmts", "commits", "rows_read"])
        {
            m.insert(
                name,
                med(direct, |r| r.extra(&format!("probe.{kind}.{what}"))),
            );
        }
    }

    // The layer shares of the container path against its measured wall:
    // appserver self + cas self + engine statement time + what is left of
    // the wall outside calls (the generator). Taken per pair of a traced
    // round and the direct round after it — neighbours in time, so that the
    // host treated both alike — and the median over the pairs reported.
    let sums: Vec<f64> = traced
        .iter()
        .zip(direct)
        .map(|(t, d)| {
            let wall_us = ratio(t.measure_s * 1e6, t.ops as f64);
            let appserver = call_us(t) - call_us(d);
            let cas = call_us(d) - stmt_us(d);
            let residual = wall_us - call_us(t);
            ratio(appserver + cas + stmt_us(t) + residual, wall_us)
        })
        .collect();
    m.insert("trace.layer_sum_ratio", median(&sums));
}
