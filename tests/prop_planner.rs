//! Planner equivalence and semantics tests.
//!
//! The core property: whatever join order or access path the cost-based
//! planner picks, the result row-set must be identical to a naive
//! nested-loop join computed directly over the generated data — across NULL
//! join keys, duplicate keys, dangling foreign keys, empty tables, and stats
//! that have gone stale since `ANALYZE`. The index-nested-loop join gets the
//! same treatment where it differs from the hash join: its index entries
//! are multi-version supersets, so it is checked after the join key has
//! been re-keyed and deleted under it (from old and new snapshots alike),
//! forced against the hash join on the same data through hand-built plans,
//! and kept off key-type pairs its index cannot answer exactly.
//! Deterministic tests pin down the EXPLAIN output shape and the
//! three-valued-logic corners of scalar and `IN (SELECT …)` subqueries.

use proptest::prelude::*;
use relstore::exec::{execute_select_opts, Catalog, ExecOptions};
use relstore::mvcc::COMMITTED_TXN;
use relstore::plan::{explain_result, plan_select, JoinStrategy, SelectPlan};
use relstore::sql::ast::SelectStmt;
use relstore::sql::{parse, Statement};
use relstore::table::Table;
use relstore::{
    Column, DataType, Database, Error, Governance, Governor, OpStats, QueryResult, Row, RowId,
    Schema, Snapshot, TxnId, Value,
};

const JOB_ARITY: usize = 4; // job_id, owner, state, runtime
const RUN_ARITY: usize = 3; // run_id, job_id, machine_id
const MACHINE_ARITY: usize = 2; // machine_id, state

type Job = (i64, Option<String>, String, Option<i64>);
type Run = (i64, Option<i64>, Option<i64>);
type Machine = (i64, String);

/// When the generated dataset runs `ANALYZE`: never (planner on defaults),
/// mid-load (stats stale by the time queries run), or after loading (fresh).
#[derive(Debug, Clone, Copy, PartialEq)]
enum AnalyzeMode {
    Never,
    MidLoad,
    AfterLoad,
}

#[derive(Debug, Clone)]
struct Dataset {
    jobs: Vec<Job>,
    runs: Vec<Run>,
    machines: Vec<Machine>,
    analyze: AnalyzeMode,
}

fn owner_strategy() -> impl Strategy<Value = Option<String>> {
    (0u8..5).prop_map(|n| match n {
        0 => None,
        1 | 2 => Some("alice".to_string()),
        3 => Some("bob".to_string()),
        _ => Some("carol".to_string()),
    })
}

fn state_strategy() -> impl Strategy<Value = String> {
    (0u8..3).prop_map(|n| match n {
        0 => "idle".to_string(),
        1 => "running".to_string(),
        _ => "done".to_string(),
    })
}

/// `None` roughly one time in five, else a value below `max`.
fn opt_int_strategy(max: i64) -> impl Strategy<Value = Option<i64>> {
    (-(max / 4 + 1)..max).prop_map(|v| (v >= 0).then_some(v))
}

fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    let jobs = prop::collection::vec(
        (owner_strategy(), state_strategy(), opt_int_strategy(500)),
        0..20,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (owner, state, runtime))| (i as i64, owner, state, runtime))
            .collect::<Vec<Job>>()
    });
    // Foreign keys range past the actual table sizes so some are dangling.
    let runs = prop::collection::vec((opt_int_strategy(24), opt_int_strategy(10)), 0..24)
        .prop_map(|rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, (job_id, machine_id))| (i as i64, job_id, machine_id))
                .collect::<Vec<Run>>()
        });
    let machines = prop::collection::vec(state_strategy(), 0..8).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, state)| (i as i64, state))
            .collect::<Vec<Machine>>()
    });
    let analyze = (0u8..3).prop_map(|n| match n {
        0 => AnalyzeMode::Never,
        1 => AnalyzeMode::MidLoad,
        _ => AnalyzeMode::AfterLoad,
    });
    (jobs, runs, machines, analyze).prop_map(|(jobs, runs, machines, analyze)| Dataset {
        jobs,
        runs,
        machines,
        analyze,
    })
}

fn opt_text(v: &Option<String>) -> Value {
    match v {
        Some(s) => Value::Text(s.as_str().into()),
        None => Value::Null,
    }
}

fn opt_int(v: &Option<i64>) -> Value {
    match v {
        Some(i) => Value::Int(*i),
        None => Value::Null,
    }
}

fn job_values(j: &Job) -> Vec<Value> {
    vec![Value::Int(j.0), opt_text(&j.1), Value::Text(j.2.as_str().into()), opt_int(&j.3)]
}

fn run_values(r: &Run) -> Vec<Value> {
    vec![Value::Int(r.0), opt_int(&r.1), opt_int(&r.2)]
}

fn machine_values(m: &Machine) -> Vec<Value> {
    vec![Value::Int(m.0), Value::Text(m.1.as_str().into())]
}

/// Loads the dataset into a fresh database, honouring the ANALYZE mode.
/// `MidLoad` analyzes after half the rows of each table, so the statistics
/// the planner sees undercount (or miss columns of) the final data.
fn load(d: &Dataset) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, owner TEXT, state TEXT, runtime INT)")
        .unwrap();
    db.execute("CREATE INDEX ON jobs (state)").unwrap();
    db.execute("CREATE TABLE runs (run_id INT PRIMARY KEY, job_id INT, machine_id INT)")
        .unwrap();
    db.execute("CREATE INDEX ON runs (job_id)").unwrap();
    db.execute("CREATE TABLE machines (machine_id INT PRIMARY KEY, state TEXT)")
        .unwrap();

    let insert_jobs = db
        .prepare("INSERT INTO jobs (job_id, owner, state, runtime) VALUES (?, ?, ?, ?)")
        .unwrap();
    let insert_runs = db
        .prepare("INSERT INTO runs (run_id, job_id, machine_id) VALUES (?, ?, ?)")
        .unwrap();
    let insert_machines = db
        .prepare("INSERT INTO machines (machine_id, state) VALUES (?, ?)")
        .unwrap();

    let split = |len: usize| match d.analyze {
        AnalyzeMode::MidLoad => len / 2,
        _ => len,
    };
    let (j_split, r_split, m_split) = (split(d.jobs.len()), split(d.runs.len()), split(d.machines.len()));

    for j in &d.jobs[..j_split] {
        db.session().execute(&insert_jobs, job_values(j)).unwrap();
    }
    for r in &d.runs[..r_split] {
        db.session().execute(&insert_runs, run_values(r)).unwrap();
    }
    for m in &d.machines[..m_split] {
        db.session().execute(&insert_machines, machine_values(m)).unwrap();
    }

    if d.analyze != AnalyzeMode::Never {
        db.execute("ANALYZE").unwrap();
    }

    for j in &d.jobs[j_split..] {
        db.session().execute(&insert_jobs, job_values(j)).unwrap();
    }
    for r in &d.runs[r_split..] {
        db.session().execute(&insert_runs, run_values(r)).unwrap();
    }
    for m in &d.machines[m_split..] {
        db.session().execute(&insert_machines, machine_values(m)).unwrap();
    }
    db
}

/// Canonical multiset form of a row-set: every row rendered to its debug
/// string, sorted. Two queries are equivalent iff these are equal.
fn multiset(rows: Vec<Vec<Value>>) -> Vec<String> {
    let mut out: Vec<String> = rows.into_iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

fn result_multiset(result: &QueryResult, arity: usize) -> Vec<String> {
    assert_eq!(result.columns.len(), arity, "unexpected output arity");
    multiset(
        result
            .rows
            .iter()
            .map(|r| (0..arity).map(|i| r.get(i).clone()).collect())
            .collect(),
    )
}

/// One query under test: SQL, its output arity, and the nested-loop oracle
/// computed straight from the generated vectors (SQL equality semantics:
/// NULL joins nothing).
struct Case {
    sql: &'static str,
    arity: usize,
    expected: Vec<String>,
}

fn cases(d: &Dataset) -> Vec<Case> {
    let mut out = Vec::new();

    // jobs ⋈ runs on job_id.
    let mut expected = Vec::new();
    for j in &d.jobs {
        for r in &d.runs {
            if r.1 == Some(j.0) {
                let mut row = job_values(j);
                row.extend(run_values(r));
                expected.push(row);
            }
        }
    }
    out.push(Case {
        sql: "SELECT * FROM jobs JOIN runs ON jobs.job_id = runs.job_id",
        arity: JOB_ARITY + RUN_ARITY,
        expected: multiset(expected),
    });

    // Three tables with a filter on the last: join order is the planner's
    // choice, output layout must stay syntactic.
    let mut expected = Vec::new();
    for j in &d.jobs {
        for r in &d.runs {
            if r.1 != Some(j.0) {
                continue;
            }
            for m in &d.machines {
                if r.2 == Some(m.0) && m.1 == "idle" {
                    let mut row = job_values(j);
                    row.extend(run_values(r));
                    row.extend(machine_values(m));
                    expected.push(row);
                }
            }
        }
    }
    out.push(Case {
        sql: "SELECT * FROM jobs JOIN runs ON jobs.job_id = runs.job_id \
              JOIN machines ON runs.machine_id = machines.machine_id \
              WHERE machines.state = 'idle'",
        arity: JOB_ARITY + RUN_ARITY + MACHINE_ARITY,
        expected: multiset(expected),
    });

    // Reversed base table plus an indexed predicate on the joined side.
    let mut expected = Vec::new();
    for r in &d.runs {
        for j in &d.jobs {
            if r.1 == Some(j.0) && j.2 == "running" {
                let mut row = run_values(r);
                row.extend(job_values(j));
                expected.push(row);
            }
        }
    }
    out.push(Case {
        sql: "SELECT * FROM runs JOIN jobs ON runs.job_id = jobs.job_id \
              WHERE jobs.state = 'running'",
        arity: RUN_ARITY + JOB_ARITY,
        expected: multiset(expected),
    });

    // Non-equi ON predicate: must fall back to a nested loop and still agree.
    let mut expected = Vec::new();
    for j in &d.jobs {
        for r in &d.runs {
            if j.0 < r.0 {
                let mut row = job_values(j);
                row.extend(run_values(r));
                expected.push(row);
            }
        }
    }
    out.push(Case {
        sql: "SELECT * FROM jobs JOIN runs ON jobs.job_id < runs.run_id",
        arity: JOB_ARITY + RUN_ARITY,
        expected: multiset(expected),
    });

    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Planned execution — including the second run, which hits the plan
    /// cache — matches the nested-loop
    /// oracle, as does the de-optimized configuration (syntactic join
    /// order, forced base scans).
    #[test]
    fn planned_joins_match_nested_loop_oracle(d in dataset_strategy()) {
        let db = load(&d);
        for case in cases(&d) {
            let first = db.query(case.sql).unwrap();
            prop_assert_eq!(result_multiset(&first, case.arity), case.expected.clone(), "first run: {}", case.sql);

            let second = db.query(case.sql).unwrap();
            prop_assert_eq!(result_multiset(&second, case.arity), case.expected.clone(), "cached run: {}", case.sql);

            db.set_join_reorder(false);
            db.set_force_scan(true);
            let naive = db.query(case.sql).unwrap();
            db.set_join_reorder(true);
            db.set_force_scan(false);
            prop_assert_eq!(result_multiset(&naive, case.arity), case.expected.clone(), "de-optimized run: {}", case.sql);
        }
    }

    /// A write between two executions of the same (cached) statement is
    /// seen by the second: the plan is reused, the hash-join build side is
    /// built again.
    #[test]
    fn cached_builds_never_serve_stale_rows(d in dataset_strategy()) {
        let db = load(&d);
        let sql = "SELECT * FROM jobs JOIN runs ON jobs.job_id = runs.job_id";
        db.query(sql).unwrap();

        let new_job_id = d.jobs.len() as i64 + 100;
        db.execute(&format!(
            "INSERT INTO jobs (job_id, owner, state, runtime) VALUES ({new_job_id}, 'dave', 'idle', 7)"
        )).unwrap();
        db.execute(&format!(
            "INSERT INTO runs (run_id, job_id, machine_id) VALUES ({}, {new_job_id}, NULL)",
            d.runs.len() as i64 + 100
        )).unwrap();

        let after = db.query(sql).unwrap();
        let wanted = Value::Int(new_job_id);
        prop_assert!(
            after.rows.iter().any(|r| r.get(0) == &wanted),
            "freshly inserted join pair must be visible after the write"
        );
    }
}

// ---------------------------------------------------------------------------
// Index-nested-loop join under key churn and against the hash join
// ---------------------------------------------------------------------------

/// A write to `runs` — the table the lookup join probes — landing between
/// two executions of the same prepared join.
#[derive(Debug, Clone)]
enum RunWrite {
    /// `UPDATE runs SET job_id = <job_id> WHERE run_id = <run>`.
    Rekey { run: i64, job_id: Option<i64> },
    /// `DELETE FROM runs WHERE run_id = <run>`.
    Delete { run: i64 },
}

fn run_writes_strategy() -> impl Strategy<Value = Vec<RunWrite>> {
    prop::collection::vec(
        (0i64..24, opt_int_strategy(24), 0u8..3).prop_map(|(run, job_id, kind)| match kind {
            0 => RunWrite::Delete { run },
            _ => RunWrite::Rekey { run, job_id },
        }),
        1..12,
    )
}

/// The model's side of a write; one naming a run that is gone (or never
/// existed) changes nothing, as in SQL.
fn apply_to_model(runs: &mut Vec<Run>, write: &RunWrite) {
    match write {
        RunWrite::Rekey { run, job_id } => {
            if let Some(r) = runs.iter_mut().find(|r| r.0 == *run) {
                r.1 = *job_id;
            }
        }
        RunWrite::Delete { run } => runs.retain(|r| r.0 != *run),
    }
}

/// Nested-loop oracle for `jobs ⋈ runs ON jobs.job_id = runs.job_id`, with
/// the jobs columns first or (`runs_first`) the runs columns first.
fn jobs_runs_oracle(jobs: &[Job], runs: &[Run], runs_first: bool) -> Vec<String> {
    let mut expected = Vec::new();
    for j in jobs {
        for r in runs {
            if r.1 == Some(j.0) {
                let (mut row, rest) = if runs_first {
                    (run_values(r), job_values(j))
                } else {
                    (job_values(j), run_values(r))
                };
                row.extend(rest);
                expected.push(row);
            }
        }
    }
    multiset(expected)
}

const JOBS_RUNS: &str = "SELECT * FROM jobs JOIN runs ON jobs.job_id = runs.job_id";
const RUNS_JOBS: &str = "SELECT * FROM runs JOIN jobs ON runs.job_id = jobs.job_id";
/// `job_fetch`'s shape: a unique point on the left, so the planner always
/// probes the `runs.job_id` index.
const JOB_FETCH: &str =
    "SELECT * FROM jobs JOIN runs ON jobs.job_id = runs.job_id WHERE jobs.job_id = ?";

/// The dataset as a bare catalog (same schemas and indexes as [`load`]),
/// for driving the executor with hand-built plans. The i-th row inserted
/// into a table gets `RowId(i + 1)`.
fn catalog_of(d: &Dataset) -> Catalog {
    fn table(schema: Schema, rows: impl Iterator<Item = Vec<Value>>) -> Table {
        let mut t = Table::new(schema).unwrap();
        for row in rows {
            t.insert(row, COMMITTED_TXN, &mut OpStats::default()).unwrap();
        }
        t
    }
    let mut cat = Catalog::new();
    cat.insert(
        "jobs".into(),
        table(
            Schema::new(
                "jobs",
                vec![
                    Column::not_null("job_id", DataType::Int),
                    Column::new("owner", DataType::Text),
                    Column::new("state", DataType::Text),
                    Column::new("runtime", DataType::Int),
                ],
            )
            .with_primary_key("job_id")
            .with_index("state"),
            d.jobs.iter().map(job_values),
        ),
    );
    cat.insert(
        "runs".into(),
        table(
            Schema::new(
                "runs",
                vec![
                    Column::not_null("run_id", DataType::Int),
                    Column::new("job_id", DataType::Int),
                    Column::new("machine_id", DataType::Int),
                ],
            )
            .with_primary_key("run_id")
            .with_index("job_id"),
            d.runs.iter().map(run_values),
        ),
    );
    cat.insert(
        "machines".into(),
        table(
            Schema::new(
                "machines",
                vec![
                    Column::not_null("machine_id", DataType::Int),
                    Column::new("state", DataType::Text),
                ],
            )
            .with_primary_key("machine_id"),
            d.machines.iter().map(machine_values),
        ),
    );
    cat
}

fn select_stmt(sql: &str) -> SelectStmt {
    match parse(sql).unwrap() {
        Statement::Select(s) => s,
        other => panic!("not a select: {other:?}"),
    }
}

/// The planner's plan for `stmt` with its single join step's strategy
/// replaced — the only way to pin a strategy, by design.
fn with_strategy(cat: &Catalog, stmt: &SelectStmt, strategy: JoinStrategy) -> SelectPlan {
    let mut plan = plan_select(cat, stmt, &[], true, false).unwrap();
    assert_eq!(plan.steps.len(), 1);
    plan.steps[0].strategy = strategy;
    plan
}

fn run_plan(cat: &Catalog, stmt: &SelectStmt, plan: &SelectPlan, vis: &Snapshot) -> Vec<Row> {
    let opts = ExecOptions {
        plan: Some(plan),
        ..Default::default()
    };
    execute_select_opts(
        cat,
        stmt,
        &[],
        vis,
        &mut OpStats::default(),
        &mut Governor::disarmed(),
        opts,
    )
    .unwrap()
    .rows
}

fn rows_multiset(rows: &[Row]) -> Vec<String> {
    multiset(rows.iter().map(|r| r.values.clone()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A prepared lookup join keeps answering exactly after the probed
    /// table's join keys are re-keyed and deleted under it: at autocommit
    /// it sees the new keys and none of the stale index entries the old
    /// versions leave behind; inside a transaction opened before the
    /// writes it still sees the old keys, through those same entries.
    #[test]
    fn prepared_lookup_join_tracks_key_churn(
        d in dataset_strategy(),
        writes in run_writes_strategy(),
    ) {
        let db = load(&d);
        let fetch = db.prepare(JOB_FETCH).unwrap();
        let full = db.prepare(JOBS_RUNS).unwrap();
        // Every joined row carries exactly one jobs.job_id, so the point
        // queries of all jobs together are the whole join.
        let fetch_all = |run: &dyn Fn(i64) -> QueryResult| {
            let mut rows = Vec::new();
            for j in &d.jobs {
                rows.extend(run(j.0).rows.into_iter().map(|r| r.values));
            }
            multiset(rows)
        };
        let autocommit = |id: i64| db.session().query(&fetch, [Value::Int(id)]).unwrap();

        let before = jobs_runs_oracle(&d.jobs, &d.runs, false);
        prop_assert_eq!(fetch_all(&autocommit), before.clone(), "first run");
        let arity = JOB_ARITY + RUN_ARITY;
        prop_assert_eq!(result_multiset(&db.session().query(&full, ()).unwrap(), arity), before.clone());

        // Snapshot taken here; the open transaction also pins the old
        // versions (and their index entries) against vacuum.
        let old = db.transaction();
        let rekey = db.prepare("UPDATE runs SET job_id = ? WHERE run_id = ?").unwrap();
        let delete = db.prepare("DELETE FROM runs WHERE run_id = ?").unwrap();
        let mut runs_after = d.runs.clone();
        for w in &writes {
            match w {
                RunWrite::Rekey { run, job_id } => {
                    db.session().execute(&rekey, [opt_int(job_id), Value::Int(*run)]).unwrap();
                }
                RunWrite::Delete { run } => {
                    db.session().execute(&delete, [Value::Int(*run)]).unwrap();
                }
            }
            apply_to_model(&mut runs_after, w);
        }

        let after = jobs_runs_oracle(&d.jobs, &runs_after, false);
        prop_assert_eq!(fetch_all(&autocommit), after.clone(), "new snapshot, cached plan");
        prop_assert_eq!(result_multiset(&db.session().query(&full, ()).unwrap(), arity), after.clone());

        let in_old = |id: i64| old.query(&fetch, (id,)).unwrap();
        prop_assert_eq!(fetch_all(&in_old), before.clone(), "old snapshot must keep the old keys");
        prop_assert_eq!(result_multiset(&old.query(&full, ()).unwrap(), arity), before);
        old.commit().unwrap();

        prop_assert_eq!(fetch_all(&autocommit), after, "after the old snapshot is released");
    }

    /// Hash join, index-nested-loop join and nested loop, each forced on
    /// the same data through a hand-built plan, agree — hash and index
    /// loop row for row, in order — before and after the probed keys
    /// churn, and with NULL, duplicate and dangling keys on the probing
    /// side (`runs ⋈ jobs` probes the primary key of `jobs`).
    #[test]
    fn forced_join_strategies_agree(
        d in dataset_strategy(),
        writes in run_writes_strategy(),
    ) {
        let mut cat = catalog_of(&d);
        let writer = TxnId(10);
        let mut runs_after = d.runs.clone();
        {
            let runs = cat.get_mut("runs").unwrap();
            let mut stats = OpStats::default();
            for w in &writes {
                // run_id i lives in RowId(i + 1); a write to a row that is
                // gone fails here and is a no-op in the model.
                match w {
                    RunWrite::Rekey { run, job_id } => {
                        let _ = runs.update(RowId(*run as u64 + 1), &[(1, opt_int(job_id))], writer, &mut stats);
                    }
                    RunWrite::Delete { run } => {
                        let _ = runs.delete(RowId(*run as u64 + 1), writer, &mut stats);
                    }
                }
                apply_to_model(&mut runs_after, w);
            }
            runs.check_consistency().unwrap();
        }
        let snapshot = |high: u64| Snapshot { high, in_flight: Vec::new(), own: None };
        let views = [(snapshot(writer.0), &d.runs), (snapshot(writer.0 + 1), &runs_after)];

        let shapes = [
            (JOBS_RUNS, false, "jobs.job_id", "runs.job_id", "idx_runs_job_id"),
            (RUNS_JOBS, true, "runs.job_id", "jobs.job_id", "pk_jobs"),
        ];
        for (sql, runs_first, left, right, index) in shapes {
            let stmt = select_stmt(sql);
            let hash = with_strategy(&cat, &stmt, JoinStrategy::Hash {
                probe: left.into(),
                build: right.into(),
            });
            let index_loop = with_strategy(&cat, &stmt, JoinStrategy::IndexLoop {
                probe: left.into(),
                lookup: right.into(),
                index: index.into(),
            });
            let nested = with_strategy(&cat, &stmt, JoinStrategy::NestedLoop);
            for (vis, runs) in &views {
                let expected = jobs_runs_oracle(&d.jobs, runs, runs_first);
                let hashed = run_plan(&cat, &stmt, &hash, vis);
                let looped = run_plan(&cat, &stmt, &index_loop, vis);
                prop_assert_eq!(&looped, &hashed, "{} at high {}", sql, vis.high);
                prop_assert_eq!(rows_multiset(&looped), expected.clone(), "{} at high {}", sql, vis.high);
                prop_assert_eq!(rows_multiset(&run_plan(&cat, &stmt, &nested, vis)), expected);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Aggregates and projections over join tuples, against a fold done here
// ---------------------------------------------------------------------------

/// The join whose tuples the differential reads: `runs` in the middle, so
/// the two join steps are independent and may run in either order.
const STAR: &str = "FROM runs JOIN jobs ON runs.job_id = jobs.job_id \
                    JOIN machines ON runs.machine_id = machines.machine_id";
const PAIR: &str = "FROM runs JOIN jobs ON runs.job_id = jobs.job_id";
// Ordinals in the syntactic `SELECT *` layout `[runs][jobs][machines]`.
const RUN_ID: usize = 0;
const MACHINE_ID: usize = 2;
const OWNER: usize = RUN_ARITY + 1;
const RUNTIME: usize = RUN_ARITY + 3;

/// The planner's syntactic-order plan for `stmt` with its steps' strategies
/// replaced by `strategies` and — `swap` — its two steps exchanged, which
/// makes it a reordered plan (both steps of [`STAR`] join onto the base).
fn forced_plan(cat: &Catalog, stmt: &SelectStmt, strategies: &[JoinStrategy], swap: bool) -> SelectPlan {
    let mut plan = plan_select(cat, stmt, &[], false, false).unwrap();
    assert_eq!(plan.steps.len(), strategies.len());
    for (step, strategy) in plan.steps.iter_mut().zip(strategies) {
        step.strategy = strategy.clone();
    }
    if swap {
        plan.steps.swap(0, 1);
        plan.reordered = true;
    }
    plan
}

/// Hash, index loop and nested loop for the join of `runs` to `table`.
fn strategies_onto(table: &str) -> [JoinStrategy; 3] {
    let (probe, column, index) = match table {
        "jobs" => ("runs.job_id", "jobs.job_id", "pk_jobs"),
        _ => ("runs.machine_id", "machines.machine_id", "pk_machines"),
    };
    [
        JoinStrategy::Hash { probe: probe.into(), build: column.into() },
        JoinStrategy::IndexLoop { probe: probe.into(), lookup: column.into(), index: index.into() },
        JoinStrategy::NestedLoop,
    ]
}

/// `SELECT owner, COUNT(*), COUNT(runtime), SUM, MIN, MAX, AVG(runtime) …
/// GROUP BY owner`, folded here over the rows of the `SELECT *` join.
fn fold_by_owner(joined: &[Row]) -> Vec<Row> {
    let mut groups: std::collections::BTreeMap<Value, Vec<&Value>> = Default::default();
    for row in joined {
        groups.entry(row.get(OWNER).clone()).or_default().push(row.get(RUNTIME));
    }
    groups
        .into_iter()
        .map(|(owner, runtimes)| {
            let ints: Vec<i64> = runtimes
                .iter()
                .filter_map(|v| match v {
                    Value::Int(i) => Some(*i),
                    _ => None,
                })
                .collect();
            let or_null = |v: Option<Value>| v.unwrap_or(Value::Null);
            let sum: i64 = ints.iter().sum();
            Row::new(vec![
                owner,
                Value::Int(runtimes.len() as i64),
                Value::Int(ints.len() as i64),
                or_null((!ints.is_empty()).then_some(Value::Int(sum))),
                or_null(ints.iter().min().map(|i| Value::Int(*i))),
                or_null(ints.iter().max().map(|i| Value::Int(*i))),
                or_null((!ints.is_empty()).then(|| Value::Double(sum as f64 / ints.len() as f64))),
            ])
        })
        .collect()
}

/// The rows of `joined` that pass `WHERE jobs.runtime > 100 OR
/// runs.machine_id > 2`, a filter reading both sides of the join, under
/// SQL's three-valued logic (a NULL comparison keeps nothing on its own).
fn runtime_or_machine(joined: &[Row]) -> Vec<Row> {
    let gt = |v: &Value, k: i64| matches!(v, Value::Int(i) if *i > k);
    joined
        .iter()
        .filter(|r| gt(r.get(RUNTIME), 100) || gt(r.get(MACHINE_ID), 2))
        .cloned()
        .collect()
}

/// `SELECT owner, runs.machine_id, COUNT(*) … GROUP BY jobs.owner,
/// runs.machine_id`, in group-key order, over the same rows.
fn count_by_owner_and_machine(joined: &[Row]) -> Vec<Row> {
    let mut groups: std::collections::BTreeMap<(Value, Value), i64> = Default::default();
    for row in joined {
        *groups.entry((row.get(OWNER).clone(), row.get(MACHINE_ID).clone())).or_default() += 1;
    }
    groups
        .into_iter()
        .map(|((owner, machine), n)| Row::new(vec![owner, machine, Value::Int(n)]))
        .collect()
}

/// True when EXPLAIN of `plan` says its last step folds the GROUP BY.
fn folds_into_build(cat: &Catalog, stmt: &SelectStmt, plan: &SelectPlan) -> bool {
    explain_result(cat, plan, stmt, None, None)
        .rows
        .iter()
        .any(|row| text(row.get(2)).ends_with(", fold GROUP BY into build rows"))
}

/// `SELECT run_id, owner, runtime + 1 … WHERE runtime > 100 ORDER BY
/// runtime DESC, run_id LIMIT 5`, computed here over the same rows.
fn top_runtimes(joined: &[Row]) -> Vec<Row> {
    let runtime = |row: &Row| match row.get(RUNTIME) {
        Value::Int(i) => Some(*i),
        _ => None,
    };
    let mut kept: Vec<&Row> = joined.iter().filter(|r| runtime(r).is_some_and(|i| i > 100)).collect();
    kept.sort_by_key(|r| (std::cmp::Reverse(runtime(r)), r.get(RUN_ID).clone()));
    kept.iter()
        .take(5)
        .map(|r| {
            Row::new(vec![
                r.get(RUN_ID).clone(),
                r.get(OWNER).clone(),
                Value::Int(runtime(r).unwrap() + 1),
            ])
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// What reads the join's reference tuples — GROUP BY and every
    /// aggregate function, a filtered, projected, sorted and cut select —
    /// returns exactly what the same fold and projection, done here over
    /// the rows `SELECT *` returns for the same plan and snapshot, give:
    /// under every strategy (forced through hand-built plans), with the
    /// two join steps in syntactic and in exchanged order, over NULL,
    /// duplicate and dangling keys, from a snapshot older than a batch of
    /// re-keys and deletes, from a newer one, and after vacuum. `SELECT *`
    /// itself is checked against the nested-loop model, so its column
    /// order under a reordered plan is the syntactic layout. A GROUP BY on
    /// `jobs` columns alone folds into the build rows whenever the hash
    /// join onto `jobs` runs last — with and without a filter reading both
    /// sides — and one that also groups on a `runs` column never does.
    #[test]
    fn aggregates_and_projections_over_join_tuples_match_a_fold_of_select_star(
        d in dataset_strategy(),
        writes in run_writes_strategy(),
    ) {
        let mut cat = catalog_of(&d);
        let writer = TxnId(10);
        let mut runs_after = d.runs.clone();
        {
            let runs = cat.get_mut("runs").unwrap();
            for w in &writes {
                let stats = &mut OpStats::default();
                match w {
                    RunWrite::Rekey { run, job_id } => {
                        let _ = runs.update(RowId(*run as u64 + 1), &[(1, opt_int(job_id))], writer, stats);
                    }
                    RunWrite::Delete { run } => {
                        let _ = runs.delete(RowId(*run as u64 + 1), writer, stats);
                    }
                }
                apply_to_model(&mut runs_after, w);
            }
        }
        let model = |runs: &[Run], star: bool| {
            let mut expected = Vec::new();
            for r in runs {
                for j in d.jobs.iter().filter(|j| r.1 == Some(j.0)) {
                    let mut row = run_values(r);
                    row.extend(job_values(j));
                    if !star {
                        expected.push(row);
                        continue;
                    }
                    for m in d.machines.iter().filter(|m| r.2 == Some(m.0)) {
                        let mut row = row.clone();
                        row.extend(machine_values(m));
                        expected.push(row);
                    }
                }
            }
            multiset(expected)
        };

        // (FROM clause, strategies per step, steps exchanged)
        let mut shapes: Vec<(&str, Vec<JoinStrategy>, bool)> = Vec::new();
        for onto_jobs in strategies_onto("jobs") {
            shapes.push((PAIR, vec![onto_jobs.clone()], false));
            for onto_machines in strategies_onto("machines") {
                for swap in [false, true] {
                    shapes.push((STAR, vec![onto_jobs.clone(), onto_machines.clone()], swap));
                }
            }
        }
        let snapshot = |high: u64| Snapshot { high, in_flight: Vec::new(), own: None };
        for view in ["old snapshot", "new snapshot", "after vacuum"] {
            let (vis, runs) = match view {
                "old snapshot" => (snapshot(writer.0), &d.runs),
                _ => (snapshot(writer.0 + 1), &runs_after),
            };
            if view == "after vacuum" {
                let runs = cat.get_mut("runs").unwrap();
                runs.vacuum(writer.0 + 1, &mut OpStats::default());
                runs.check_consistency().unwrap();
            }
            for (from, strategies, swap) in &shapes {
                let at = format!("{from} {strategies:?} swap {swap} ({view})");
                let run_folded = |items_and_tail: (&str, &str)| {
                    let stmt = select_stmt(&format!("SELECT {} {from} {}", items_and_tail.0, items_and_tail.1));
                    let plan = forced_plan(&cat, &stmt, strategies, *swap);
                    (run_plan(&cat, &stmt, &plan, &vis), folds_into_build(&cat, &stmt, &plan))
                };
                let run = |items_and_tail: (&str, &str)| run_folded(items_and_tail).0;
                let joined = run(("*", ""));
                prop_assert_eq!(rows_multiset(&joined), model(runs, *from == STAR), "SELECT * {}", &at);

                // The hash join onto `jobs` runs last: in the pair, and in
                // the star once its steps are exchanged.
                let jobs_hashed_last = matches!(strategies[0], JoinStrategy::Hash { .. })
                    && (*from == PAIR || *swap);
                let all_aggregates = "jobs.owner, COUNT(*), COUNT(jobs.runtime), SUM(jobs.runtime), \
                                      MIN(jobs.runtime), MAX(jobs.runtime), AVG(jobs.runtime)";
                let (grouped, folded) = run_folded((all_aggregates, "GROUP BY jobs.owner"));
                prop_assert_eq!(grouped, fold_by_owner(&joined), "GROUP BY {}", &at);
                prop_assert_eq!(folded, jobs_hashed_last, "GROUP BY folds {}", &at);

                let (grouped, folded) = run_folded((
                    all_aggregates,
                    "WHERE jobs.runtime > 100 OR runs.machine_id > 2 GROUP BY jobs.owner",
                ));
                prop_assert_eq!(grouped, fold_by_owner(&runtime_or_machine(&joined)), "WHERE … GROUP BY {}", &at);
                prop_assert_eq!(folded, jobs_hashed_last, "WHERE … GROUP BY folds {}", &at);

                let (grouped, folded) = run_folded((
                    "jobs.owner, runs.machine_id, COUNT(*)",
                    "GROUP BY jobs.owner, runs.machine_id",
                ));
                prop_assert_eq!(grouped, count_by_owner_and_machine(&joined), "mixed GROUP BY {}", &at);
                prop_assert!(!folded, "a GROUP BY on a base column never folds {}", &at);

                let top = run((
                    "runs.run_id, jobs.owner, jobs.runtime + 1",
                    "WHERE jobs.runtime > 100 ORDER BY jobs.runtime DESC, runs.run_id LIMIT 5",
                ));
                prop_assert_eq!(top, top_runtimes(&joined), "ORDER BY … LIMIT {}", &at);
            }
        }
    }
}

/// A hand-built index-loop plan over a column no index covers is refused,
/// not quietly run as a scan per left row.
#[test]
fn index_loop_plan_without_an_index_is_an_error() {
    let d = Dataset {
        jobs: vec![(1, None, "idle".into(), None)],
        runs: vec![(0, Some(1), Some(1))],
        machines: Vec::new(),
        analyze: AnalyzeMode::Never,
    };
    let cat = catalog_of(&d);
    let stmt = select_stmt("SELECT * FROM jobs JOIN runs ON jobs.job_id = runs.machine_id");
    let plan = with_strategy(
        &cat,
        &stmt,
        JoinStrategy::IndexLoop {
            probe: "jobs.job_id".into(),
            lookup: "runs.machine_id".into(),
            index: "idx_runs_machine_id".into(),
        },
    );
    let opts = ExecOptions {
        plan: Some(&plan),
        ..Default::default()
    };
    let vis = Snapshot { high: 1, in_flight: Vec::new(), own: None };
    let err = execute_select_opts(
        &cat,
        &stmt,
        &[],
        &vis,
        &mut OpStats::default(),
        &mut Governor::disarmed(),
        opts,
    )
    .unwrap_err();
    assert!(err.to_string().contains("no index idx_runs_machine_id"), "{err}");
}

// ---------------------------------------------------------------------------
// ORDER BY … LIMIT: the ordered index walk against scan + sort + truncate
// ---------------------------------------------------------------------------

/// A row of the queue table: `(id, k, n, grp, pad)`.
type QueueRow = (i64, i64, Option<i64>, String, i64);

/// A write landing after the old snapshot was taken. Each leaves the stale
/// index entries of the version it supersedes behind for the walk to skip.
#[derive(Debug, Clone)]
enum QueueWrite {
    /// `UPDATE q SET k = <k>, n = <n>, grp = <grp> WHERE id = <id>`: moves
    /// the row under other keys of three indexes.
    Rekey { id: i64, k: i64, n: Option<i64>, grp: String },
    /// `UPDATE q SET id = <id> + 100 WHERE id = <id>`: moves the primary key.
    Renumber { id: i64 },
    /// `DELETE FROM q WHERE id = <id>`.
    Delete { id: i64 },
}

fn grp_strategy() -> impl Strategy<Value = String> {
    (0u8..3).prop_map(|n| ["a", "b", "c"][n as usize].to_string())
}

/// 12 to 40 rows, so every case has a queue deep enough for the walk to
/// win, with few distinct `k`/`n`/`grp` values, so sort keys repeat.
fn queue_strategy() -> impl Strategy<Value = Vec<QueueRow>> {
    prop::collection::vec((0i64..6, opt_int_strategy(6), grp_strategy(), 0i64..6), 12..40)
        .prop_map(|rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, (k, n, grp, pad))| (i as i64, k, n, grp, pad))
                .collect()
        })
}

fn queue_writes_strategy() -> impl Strategy<Value = Vec<QueueWrite>> {
    let write = (0u8..4, 0i64..40, 0i64..6, opt_int_strategy(6), grp_strategy()).prop_map(
        |(kind, id, k, n, grp)| match kind {
            0 | 1 => QueueWrite::Rekey { id, k, n, grp },
            2 => QueueWrite::Renumber { id },
            _ => QueueWrite::Delete { id },
        },
    );
    prop::collection::vec(write, 0..16)
}

/// `id` is the primary key; `k` (INT), `grp` (TEXT) and `d` (DOUBLE, always
/// equal to `k`) are NOT NULL and indexed; `n` is indexed but nullable;
/// `pad` has no index. Only `id`, `k` and `grp` can serve an ordered walk.
fn load_queue(rows: &[QueueRow]) -> Database {
    let db = Database::new();
    db.execute(
        "CREATE TABLE q (id INT PRIMARY KEY, k INT NOT NULL, n INT, grp TEXT NOT NULL, \
                         d DOUBLE NOT NULL, pad INT)",
    )
    .unwrap();
    for col in ["k", "n", "grp", "d"] {
        db.execute(&format!("CREATE INDEX ON q ({col})")).unwrap();
    }
    let ins = db.prepare("INSERT INTO q VALUES (?, ?, ?, ?, ?, ?)").unwrap();
    db.session()
        .execute_batch(
            &ins,
            rows.iter()
                .map(|(id, k, n, grp, pad)| (*id, *k, *n, grp.as_str(), *k as f64, *pad)),
        )
        .unwrap();
    db
}

/// Every ORDER BY … LIMIT shape the differential runs: sort column and
/// direction x filter (none, pinning an index, pinning it to a key nobody
/// holds, ranging over one, missing every index, a conjunction) x limit
/// (0, 1, a few, more than the table), the limit written as a literal and
/// bound as `?` in turn.
fn queue_queries(rows: usize) -> Vec<(String, Vec<Value>)> {
    let filters: [(&str, Vec<Value>); 6] = [
        ("", vec![]),
        ("WHERE grp = ?", vec![Value::Text("a".into())]),
        ("WHERE grp = 'nobody'", vec![]),
        ("WHERE k >= 2", vec![]),
        ("WHERE pad < 3", vec![]),
        ("WHERE id > 4 AND grp = 'b'", vec![]),
    ];
    let mut out = Vec::new();
    for (i, sort) in ["id", "k", "grp", "n", "d"].into_iter().enumerate() {
        for dir in ["", "ASC", "DESC"] {
            for (f, (filter, bound)) in filters.iter().enumerate() {
                for (l, limit) in [0, 1, 3, rows + 10].into_iter().enumerate() {
                    let items = if (i + f) % 2 == 0 { "*" } else { "id, k" };
                    let mut params = bound.clone();
                    let limit = if (f + l) % 2 == 0 {
                        limit.to_string()
                    } else {
                        params.push(Value::Int(limit as i64));
                        "?".to_string()
                    };
                    out.push((
                        format!("SELECT {items} FROM q {filter} ORDER BY {sort} {dir} LIMIT {limit}"),
                        params,
                    ));
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever path serves an `ORDER BY … LIMIT` — the ordered index walk
    /// above all — returns exactly the rows of scan + sort + truncate
    /// (`set_force_scan(true)`), in the same order, ties included: over
    /// duplicate and NULL sort keys, after rows moved key and were deleted
    /// (stale multi-version entries), from a snapshot older than those
    /// writes and from one newer, before and after vacuum can run.
    #[test]
    fn order_by_limit_matches_the_forced_scan_row_for_row(
        rows in queue_strategy(),
        writes in queue_writes_strategy(),
    ) {
        let db = load_queue(&rows);
        let queries = queue_queries(rows.len());
        let old = db.transaction();
        for w in &writes {
            // A write to a row that is gone (or a renumbering onto a taken
            // id) affects nothing or fails; both are fine here.
            let _ = match w {
                QueueWrite::Rekey { id, k, n, grp } => db.session().execute(
                    "UPDATE q SET k = ?, n = ?, grp = ?, d = ? WHERE id = ?",
                    (*k, *n, grp.as_str(), *k as f64, *id),
                ),
                QueueWrite::Renumber { id } => {
                    db.session().execute("UPDATE q SET id = ? WHERE id = ?", (*id + 100, *id))
                }
                QueueWrite::Delete { id } => {
                    db.session().execute("DELETE FROM q WHERE id = ?", (*id,))
                }
            };
        }

        let mut walked = 0usize;
        let mut check = |view: &str, run: &dyn Fn(&str, &[Value]) -> QueryResult| {
            for (sql, params) in &queries {
                let planned = run(sql, params);
                db.set_force_scan(true);
                let oracle = run(sql, params);
                db.set_force_scan(false);
                prop_assert_eq!(&planned.rows, &oracle.rows, "{} ({}) {:?}", sql, view, params);
                prop_assert_eq!(&planned.columns, &oracle.columns, "{} ({})", sql, view);
                let access = text(run(&format!("EXPLAIN {sql}"), params).rows[0].get(2));
                walked += usize::from(access.starts_with("ordered walk of q."));
            }
            Ok(())
        };
        check("old snapshot", &|sql, params| old.query(sql, params).unwrap())?;
        check("new snapshot", &|sql, params| db.session().query(sql, params).unwrap())?;
        old.commit().unwrap();
        db.vacuum_all();
        check("after vacuum", &|sql, params| db.session().query(sql, params).unwrap())?;

        // The differential must keep exercising the path it is there for:
        // three of five sort columns can be walked, and of their statements
        // the unfiltered and unindexed-filter ones with a small limit always
        // cost out as walks.
        let share = walked as f64 / (3 * queries.len()) as f64;
        prop_assert!(share > 0.15, "ordered walk chosen for only {walked} statements ({share:.2})");
    }
}

// ---------------------------------------------------------------------------
// COUNT(*) under an index equality: posting count against the forced scan
// ---------------------------------------------------------------------------

/// Every `(column, key)` the count differential asks about: each key the
/// rows or the writes give an indexed column of `q`, and one nobody holds.
fn count_keys(rows: &[QueueRow], writes: &[QueueWrite]) -> Vec<(&'static str, Value)> {
    let mut keys: Vec<(&'static str, Value)> = Vec::new();
    let mut add = |col: &'static str, v: Value| {
        if !v.is_null() && !keys.contains(&(col, v.clone())) {
            keys.push((col, v));
        }
    };
    for (id, k, n, grp, _) in rows {
        add("id", Value::Int(*id));
        add("k", Value::Int(*k));
        add("n", n.map_or(Value::Null, Value::Int));
        add("grp", Value::Text(grp.as_str().into()));
        add("d", Value::Double(*k as f64));
    }
    for w in writes {
        match w {
            QueueWrite::Rekey { k, n, grp, .. } => {
                add("k", Value::Int(*k));
                add("n", n.map_or(Value::Null, Value::Int));
                add("grp", Value::Text(grp.as_str().into()));
                add("d", Value::Double(*k as f64));
            }
            QueueWrite::Renumber { id } => add("id", Value::Int(id + 100)),
            QueueWrite::Delete { .. } => {}
        }
    }
    for (col, absent) in [
        ("id", Value::Int(-1)),
        ("k", Value::Int(99)),
        ("n", Value::Int(99)),
        ("grp", Value::Text("zz".into())),
        ("d", Value::Double(99.5)),
    ] {
        add(col, absent);
    }
    keys
}

/// Applies `w` through `exec`; a write to a row that is gone (or a
/// renumbering onto a taken id) affects nothing or fails, both fine here.
fn apply_queue_write(exec: &dyn Fn(&str, Vec<Value>) -> relstore::Result<()>, w: &QueueWrite) {
    let _ = match w {
        QueueWrite::Rekey { id, k, n, grp } => exec(
            "UPDATE q SET k = ?, n = ?, grp = ?, d = ? WHERE id = ?",
            vec![
                Value::Int(*k),
                n.map_or(Value::Null, Value::Int),
                Value::Text(grp.as_str().into()),
                Value::Double(*k as f64),
                Value::Int(*id),
            ],
        ),
        QueueWrite::Renumber { id } => {
            exec("UPDATE q SET id = ? WHERE id = ?", vec![Value::Int(id + 100), Value::Int(*id)])
        }
        QueueWrite::Delete { id } => exec("DELETE FROM q WHERE id = ?", vec![Value::Int(*id)]),
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `SELECT COUNT(*) FROM q WHERE <indexed column> = ?` counts the
    /// posting list — by visibility stamps where a row holds one version,
    /// by the visible version's key where it holds several — and must
    /// equal the forced scan's count for every key in the data and one
    /// nobody holds: from a snapshot older than a batch of re-keys,
    /// renumberings and deletes, from a newer one, inside a writer that has
    /// re-keyed rows again without committing (its own versions visible to
    /// it alone), after that writer rolled back, and after vacuum.
    #[test]
    fn index_only_count_matches_the_forced_scan(
        rows in queue_strategy(),
        writes in queue_writes_strategy(),
    ) {
        let db = load_queue(&rows);
        let keys = count_keys(&rows, &writes);
        let old = db.transaction();
        for w in &writes {
            apply_queue_write(&|sql, params| db.session().execute(sql, params).map(drop), w);
        }

        let check = |view: &str, run: &dyn Fn(&str, &[Value]) -> QueryResult| {
            for (col, key) in &keys {
                let sql = format!("SELECT COUNT(*) FROM q WHERE {col} = ?");
                let params = std::slice::from_ref(key);
                let counted = run(&sql, params);
                db.set_force_scan(true);
                let scanned = run(&sql, params);
                db.set_force_scan(false);
                prop_assert_eq!(&counted.rows, &scanned.rows, "{} = {:?} ({})", col, key, view);
                let access = text(run(&format!("EXPLAIN {sql}"), params).rows[0].get(2));
                prop_assert!(access.ends_with(", index-only count"), "{} ({}): {}", sql, view, access);
            }
            Ok(())
        };
        check("old snapshot", &|sql, params| old.query(sql, params).unwrap())?;
        check("new snapshot", &|sql, params| db.session().query(sql, params).unwrap())?;
        let writer = db.transaction();
        for w in writes.iter().rev() {
            apply_queue_write(&|sql, params| writer.execute(sql, params).map(drop), w);
        }
        check("own", &|sql, params| writer.query(sql, params).unwrap())?;
        writer.rollback().unwrap();
        check("after rollback", &|sql, params| db.session().query(sql, params).unwrap())?;
        old.commit().unwrap();
        db.vacuum_all();
        check("after vacuum", &|sql, params| db.session().query(sql, params).unwrap())?;
    }
}

/// The corners of the index-only count, each against the forced scan: the
/// key on the left, a NULL key, a DOUBLE key for an INT column, a key of
/// the wrong type, `LIMIT 0`, an alias, and `COUNT(col)` — which counts
/// non-NULL values and so never takes the path.
#[test]
fn index_only_count_corners_match_the_forced_scan() {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, owner TEXT, rt INT)").unwrap();
    db.execute("CREATE INDEX ON t (owner)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 'a', 10), (2, 'a', NULL), (3, 'b', 30), (4, NULL, 40)")
        .unwrap();
    let cases: [(&str, Option<i64>, &str, bool); 7] = [
        ("SELECT COUNT(*) FROM t WHERE 'a' = owner", Some(2), "count(*)", true),
        ("SELECT COUNT(*) FROM t WHERE owner = NULL", Some(0), "count(*)", true),
        ("SELECT COUNT(*) FROM t WHERE id = 1.0", Some(1), "count(*)", true),
        ("SELECT COUNT(*) FROM t WHERE owner = 1", Some(0), "count(*)", true),
        ("SELECT COUNT(*) FROM t WHERE owner = 'a' LIMIT 0", None, "count(*)", true),
        ("SELECT COUNT(*) AS n FROM t WHERE owner = 'a'", Some(2), "n", true),
        ("SELECT COUNT(rt) FROM t WHERE owner = 'a'", Some(1), "count(rt)", false),
    ];
    for (sql, count, label, index_only) in cases {
        let counted = db.query(sql).unwrap();
        db.set_force_scan(true);
        let scanned = db.query(sql).unwrap();
        db.set_force_scan(false);
        assert_eq!(counted, scanned, "{sql}");
        assert_eq!(counted.column_names(), vec![label], "{sql}");
        assert_eq!(counted.rows.first().map(|r| r.get(0)), count.map(Value::Int).as_ref(), "{sql}");
        let access = text(db.query(&format!("EXPLAIN {sql}")).unwrap().rows[0].get(2));
        assert_eq!(access.ends_with(", index-only count"), index_only, "{sql}: {access}");
    }
}

// ---------------------------------------------------------------------------
// EXPLAIN snapshots
// ---------------------------------------------------------------------------

fn text(v: &Value) -> String {
    match v {
        Value::Text(s) => s.to_string(),
        other => panic!("expected a text value, got {other:?}"),
    }
}

/// Renders EXPLAIN rows as "operator | detail" lines for snapshotting.
fn explain_lines(db: &Database, sql: &str) -> Vec<String> {
    let r = db.query(sql).unwrap();
    assert_eq!(&r.column_names()[..4], &["step", "operator", "detail", "est_rows"]);
    r.rows
        .iter()
        .map(|row| format!("{} | {}", text(row.get(1)), text(row.get(2))))
        .collect()
}

/// A small fixed catalog with deliberately skewed table sizes, analyzed so
/// the planner has real statistics to act on.
fn skewed_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE big (id INT PRIMARY KEY, fk INT, pad TEXT)").unwrap();
    db.execute("CREATE INDEX ON big (fk)").unwrap();
    db.execute("CREATE TABLE mid (id INT PRIMARY KEY, fk INT)").unwrap();
    db.execute("CREATE TABLE tiny (id INT PRIMARY KEY, label TEXT)").unwrap();
    let ins_big = db.prepare("INSERT INTO big (id, fk, pad) VALUES (?, ?, 'x')").unwrap();
    for i in 0..200i64 {
        db.session().execute(&ins_big, [Value::Int(i), Value::Int(i % 40)]).unwrap();
    }
    let ins_mid = db.prepare("INSERT INTO mid (id, fk) VALUES (?, ?)").unwrap();
    for i in 0..40i64 {
        db.session().execute(&ins_mid, [Value::Int(i), Value::Int(i % 4)]).unwrap();
    }
    let ins_tiny = db.prepare("INSERT INTO tiny (id, label) VALUES (?, 'tag')").unwrap();
    for i in 0..4i64 {
        db.session().execute(&ins_tiny, [Value::Int(i)]).unwrap();
    }
    db.execute("ANALYZE").unwrap();
    db
}

/// A batched prepared JOIN takes the same select path as the statement
/// loop: it plans once and then hits the statement's plan cell — in
/// autocommit mode and inside a transaction — and a planner-knob change
/// invalidates that plan for batches too.
#[test]
fn query_batch_shares_the_prepared_plan() {
    let db = skewed_db();
    let join = db
        .prepare("SELECT big.id, mid.fk FROM big JOIN mid ON big.fk = mid.id WHERE big.id = ?")
        .unwrap();
    let bindings: Vec<(i64,)> = (0..8).map(|i| (i * 7,)).collect();
    let plan_delta = |before: &relstore::OpStats| {
        let d = db.stats().delta_since(before);
        (d.plans_built, d.plan_cache_hits)
    };

    let before = db.stats();
    let batched = db.session().query_batch(&join, bindings.clone()).unwrap();
    assert_eq!(plan_delta(&before), (1, 7), "8 bindings: one plan, seven hits");
    let looped: Vec<QueryResult> = bindings
        .iter()
        .map(|b| db.session().query(&join, *b).unwrap())
        .collect();
    assert_eq!(batched, looped);
    assert!(looped.iter().all(|r| r.len() == 1));

    let before = db.stats();
    let txn = db.transaction();
    assert_eq!(txn.query_batch(&join, bindings.clone()).unwrap(), looped);
    txn.commit().unwrap();
    assert_eq!(plan_delta(&before), (0, 8), "the in-transaction batch reuses the plan");

    db.set_join_reorder(false);
    let before = db.stats();
    assert_eq!(db.session().query_batch(&join, bindings).unwrap(), looped);
    assert_eq!(plan_delta(&before), (1, 7), "a knob change replans once per batch");
}

#[test]
fn explain_point_lookup_snapshot() {
    let db = skewed_db();
    let lines = explain_lines(&db, "EXPLAIN SELECT * FROM big WHERE id = 3");
    assert_eq!(
        lines,
        vec![
            "Access(big) | point lookup on big.id (unique), pushdown (id = 3)".to_string(),
            "Filter | (id = 3)".to_string(),
            "Output | project *".to_string(),
        ]
    );
}

/// Ten jobs; the two oldest are running, the rest idle.
fn queue_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT NOT NULL)").unwrap();
    db.execute("CREATE INDEX ON jobs (state)").unwrap();
    let ins = db.prepare("INSERT INTO jobs VALUES (?, ?)").unwrap();
    db.session()
        .execute_batch(&ins, (0..10).map(|id| (id, if id < 2 { "running" } else { "idle" })))
        .unwrap();
    db
}

#[test]
fn explain_ordered_walk_snapshot() {
    let db = queue_db();
    let sql = "SELECT job_id FROM jobs WHERE state = 'idle' ORDER BY job_id";
    // Eight postings: one row kept costs 1 x 10 / 8 walked against 8
    // fetched and sorted. No sort step is left in the output.
    assert_eq!(
        explain_lines(&db, &format!("EXPLAIN {sql} LIMIT 1")),
        vec![
            "Access(jobs) | ordered walk of jobs.job_id (asc), stop after 1, pushdown (state = 'idle')"
                .to_string(),
            "Filter | (state = 'idle')".to_string(),
            "Output | project 1 columns, limit 1".to_string(),
        ]
    );
    // `LIMIT ?` is costed and reported with the count bound to it.
    let r = db.session().query(format!("EXPLAIN {sql} DESC LIMIT ?").as_str(), (3,)).unwrap();
    assert_eq!(
        text(r.rows[0].get(2)),
        "ordered walk of jobs.job_id (desc), stop after 3, pushdown (state = 'idle')"
    );
    assert_eq!(text(r.rows[2].get(2)), "project 1 columns, limit 3");
    assert_eq!(r.rows[2].get(3), &Value::Int(3), "est_rows of the output is the limit");
    // Too many rows kept for the walk to pay: the lookup, and its sort.
    assert_eq!(
        explain_lines(&db, &format!("EXPLAIN {sql} LIMIT 8")),
        vec![
            "Access(jobs) | point lookup on jobs.state, pushdown (state = 'idle')".to_string(),
            "Filter | (state = 'idle')".to_string(),
            "Output | project 1 columns, sort, limit 8".to_string(),
        ]
    );
}

#[test]
fn explain_analyze_runs_the_ordered_walk_and_counts_rows_visited() {
    let db = queue_db();
    let before = db.stats();
    let r = db
        .query("EXPLAIN ANALYZE SELECT job_id FROM jobs WHERE state = 'idle' ORDER BY job_id LIMIT 3")
        .unwrap();
    let actual = r.column_index("actual_rows").unwrap();
    assert!(text(r.rows[0].get(2)).starts_with("ordered walk of jobs.job_id (asc), stop after 3"));
    // The walk passes the two running jobs at the head, then keeps three.
    assert_eq!(r.rows[0].get(actual), &Value::Int(5), "access step: rows visited");
    assert_eq!(r.rows[1].get(actual), &Value::Int(3), "filter step: survivors");
    assert_eq!(r.rows[2].get(actual), &Value::Int(3), "output");
    // ANALYZE ran that plan, not a staged stand-in: five rows were read,
    // not the eight postings of the lookup or the ten rows of the table.
    let after = db.stats();
    assert_eq!(after.rows_read - before.rows_read, 5);
    assert_eq!(after.rows_scanned - before.rows_scanned, 0);
}

/// Three registered users and twelve history rows, every fourth by an
/// owner who never registered; a third of the rows are idle.
fn usage_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE users (name TEXT PRIMARY KEY, priority DOUBLE)").unwrap();
    db.execute("CREATE TABLE history (id INT PRIMARY KEY, owner TEXT, state TEXT, runtime INT)")
        .unwrap();
    db.execute("CREATE INDEX ON history (state)").unwrap();
    db.execute("INSERT INTO users VALUES ('user0', 0.5), ('user1', 0.5), ('user2', 1.0)").unwrap();
    let ins = db.prepare("INSERT INTO history VALUES (?, ?, ?, ?)").unwrap();
    db.session()
        .execute_batch(
            &ins,
            (0..12i64).map(|i| (i, format!("user{}", i % 4), if i % 3 == 0 { "idle" } else { "done" }, i)),
        )
        .unwrap();
    db
}

/// Both aggregate paths name themselves by a suffix on the step they
/// replace, and under EXPLAIN ANALYZE count what they folded: the matches
/// of the groupjoin, the rows of the index-only count.
#[test]
fn explain_names_the_groupjoin_and_the_index_only_count() {
    let db = usage_db();
    let report = "SELECT users.name AS owner, users.priority AS priority, COUNT(*) AS jobs, \
                  SUM(history.runtime) AS total FROM history JOIN users ON history.owner = users.name \
                  GROUP BY users.name, users.priority ORDER BY owner";
    assert_eq!(
        explain_lines(&db, &format!("EXPLAIN {report}")),
        vec![
            "Access(history) | full scan of history".to_string(),
            "HashJoin(users) | build users on users.name via full scan of users, probe history.owner, \
             fold GROUP BY into build rows"
                .to_string(),
            "Output | aggregate, sort".to_string(),
        ]
    );
    let r = db.query(&format!("EXPLAIN ANALYZE {report}")).unwrap();
    let actual = r.column_index("actual_rows").unwrap();
    assert_eq!(r.rows[1].get(actual), &Value::Int(9), "join step: the matches folded");
    assert_eq!(r.rows[2].get(actual), &Value::Int(3), "output: one row per user");

    let count = "SELECT COUNT(*) FROM history WHERE state = 'idle'";
    assert_eq!(
        explain_lines(&db, &format!("EXPLAIN {count}")),
        vec![
            "Access(history) | point lookup on history.state, pushdown (state = 'idle'), index-only count"
                .to_string(),
            "Filter | (state = 'idle')".to_string(),
            "Output | aggregate".to_string(),
        ]
    );
    let r = db.query(&format!("EXPLAIN ANALYZE {count}")).unwrap();
    assert_eq!(r.rows[0].get(actual), &Value::Int(4), "access step: the rows counted");
    assert_eq!(r.rows[2].get(actual), &Value::Int(1), "output");
}

#[test]
fn explain_reorders_skewed_join_smallest_build_first() {
    let db = skewed_db();
    // Both joins probe columns of `big`, so the planner is free to build
    // either side first; with fresh stats it must pick the 4-row table
    // before the 40-row one.
    let lines = explain_lines(
        &db,
        "EXPLAIN SELECT * FROM big JOIN mid ON big.fk = mid.id JOIN tiny ON big.fk = tiny.id",
    );
    assert_eq!(lines.len(), 4, "access + two joins + output: {lines:?}");
    assert!(lines[0].starts_with("Access(big) | "), "{lines:?}");
    let tiny_pos = lines.iter().position(|l| l.starts_with("HashJoin(tiny)")).unwrap();
    let mid_pos = lines.iter().position(|l| l.starts_with("HashJoin(mid)")).unwrap();
    assert!(
        tiny_pos < mid_pos,
        "smallest build side should come first: {lines:?}"
    );
}

#[test]
fn explain_estimates_shrink_with_fresh_stats() {
    let db = skewed_db();
    let r = db.query("EXPLAIN SELECT * FROM big WHERE fk = 7").unwrap();
    let est_idx = r.column_index("est_rows").unwrap();
    let access_est = match r.rows[0].get(est_idx) {
        Value::Int(i) => *i,
        other => panic!("est_rows should be an int, got {other:?}"),
    };
    // 200 rows over 40 distinct fk values: the estimate must reflect the
    // statistics, not the table size.
    assert!(
        (1..=20).contains(&access_est),
        "selectivity estimate {access_est} should be near 200/40"
    );
}

#[test]
fn explain_analyze_reports_actual_rows() {
    let db = skewed_db();
    let r = db
        .query("EXPLAIN ANALYZE SELECT * FROM big JOIN mid ON big.fk = mid.id")
        .unwrap();
    assert_eq!(
        r.column_names(),
        vec!["step", "operator", "detail", "est_rows", "actual_rows", "time_us"]
    );
    let actual_idx = r.column_index("actual_rows").unwrap();
    let output_row = r.rows.last().unwrap();
    assert_eq!(output_row.get(actual_idx), &Value::Int(200));

    // EXPLAIN without ANALYZE must not have executed anything: same plan,
    // no actuals columns.
    let plain = db.query("EXPLAIN SELECT * FROM big JOIN mid ON big.fk = mid.id").unwrap();
    assert_eq!(plain.columns.len(), 4);
    assert_eq!(plain.rows.len(), r.rows.len());
}

#[test]
fn explain_non_equi_join_uses_nested_loop() {
    let db = skewed_db();
    let lines = explain_lines(&db, "EXPLAIN SELECT * FROM tiny JOIN mid ON tiny.id < mid.fk");
    assert!(
        lines.iter().any(|l| l.starts_with("NestedLoopJoin(mid)")),
        "non-equi ON predicate needs the nested-loop fallback: {lines:?}"
    );
}

#[test]
fn explain_job_fetch_shape_probes_the_runs_index() {
    let db = Database::new();
    db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, owner TEXT)").unwrap();
    db.execute("CREATE TABLE runs (run_id INT PRIMARY KEY, job_id INT, machine_id INT)").unwrap();
    db.execute("CREATE INDEX ON runs (job_id)").unwrap();
    // Planned against empty tables, as the CAS plans it at its first
    // completion: the tie goes to the index loop, whose cost does not grow
    // with `runs`.
    let sql = "SELECT jobs.owner, runs.machine_id \
               FROM jobs JOIN runs ON jobs.job_id = runs.job_id WHERE jobs.job_id = 7";
    let expected = vec![
        "Access(jobs) | point lookup on jobs.job_id (unique), pushdown (jobs.job_id = 7)".to_string(),
        "IndexLoopJoin(runs) | probe index idx_runs_job_id on runs.job_id with jobs.job_id".to_string(),
        "Filter | (jobs.job_id = 7)".to_string(),
        "Output | project 2 columns".to_string(),
    ];
    assert_eq!(explain_lines(&db, &format!("EXPLAIN {sql}")), expected);

    // The same plan on full tables, with and without statistics.
    for i in 0..50i64 {
        db.execute(&format!("INSERT INTO jobs VALUES ({i}, 'astro')")).unwrap();
        db.execute(&format!("INSERT INTO runs VALUES ({i}, {i}, {})", i % 5)).unwrap();
    }
    assert_eq!(explain_lines(&db, &format!("EXPLAIN {sql}")), expected);
    db.execute("ANALYZE").unwrap();
    assert_eq!(explain_lines(&db, &format!("EXPLAIN {sql}")), expected);

    // EXPLAIN ANALYZE reports the step's actual rows.
    let r = db.query(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    assert_eq!(text(r.rows[1].get(1)), "IndexLoopJoin(runs)");
    assert_eq!(r.rows[1].get(r.column_index("actual_rows").unwrap()), &Value::Int(1));
}

#[test]
fn explain_join_on_unindexed_column_stays_hash() {
    let db = skewed_db();
    // mid.fk has no index: nothing to probe, whatever the sizes.
    let lines = explain_lines(&db, "EXPLAIN SELECT * FROM tiny JOIN mid ON tiny.id = mid.fk");
    assert!(lines[1].starts_with("HashJoin(mid) | "), "{lines:?}");
    // A left side larger than the distinct keys it would probe hashes too,
    // index or not.
    let lines = explain_lines(&db, "EXPLAIN SELECT * FROM big JOIN tiny ON big.fk = tiny.id");
    assert!(lines[1].starts_with("HashJoin(tiny) | "), "{lines:?}");
    // …and the other way round the four tiny rows probe big's index.
    let lines = explain_lines(&db, "EXPLAIN SELECT * FROM tiny JOIN big ON tiny.id = big.fk");
    assert!(lines[1].starts_with("IndexLoopJoin(big) | "), "{lines:?}");
}

/// Join keys of every numeric type against every other, with NULL,
/// duplicate and dangling keys on both sides. `=` compares Int, Double and
/// Timestamp by numeric value; an index answers that exactly except where
/// a DOUBLE is involved (a NaN equals every number under `=` and cannot be
/// found — or, stored, ordered — by key), so those pairs must stay on the
/// hash join while the others take the index loop. All agree with the
/// nested-loop oracle.
#[test]
fn mixed_numeric_key_pairs_join_exactly() {
    let db = Database::new();
    let types = [("i", "INT"), ("d", "DOUBLE"), ("t", "TIMESTAMP")];
    let value = |ty: &str, k: Option<i64>| match (ty, k) {
        (_, None) => Value::Null,
        ("INT", Some(k)) => Value::Int(k),
        ("DOUBLE", Some(k)) => Value::Double(k as f64),
        (_, Some(k)) => Value::Timestamp(k),
    };
    // Probing side: small, unindexed. Probed side: indexed, more distinct
    // keys than the probing side has rows, so the index loop is the
    // cheaper plan wherever it is allowed.
    let left_keys = [Some(1), Some(1), None, Some(9)];
    let right_keys = [Some(0), Some(1), Some(1), Some(2), Some(3), Some(4), Some(5), None];
    for (name, ty) in types {
        db.execute(&format!("CREATE TABLE l{name} (id INT PRIMARY KEY, k {ty})")).unwrap();
        db.execute(&format!("CREATE TABLE r{name} (id INT PRIMARY KEY, k {ty})")).unwrap();
        db.execute(&format!("CREATE INDEX ON r{name} (k)")).unwrap();
        let ins = db.prepare(&format!("INSERT INTO l{name} VALUES (?, ?)")).unwrap();
        for (id, k) in left_keys.iter().enumerate() {
            db.session().execute(&ins, [Value::Int(id as i64), value(ty, *k)]).unwrap();
        }
        let ins = db.prepare(&format!("INSERT INTO r{name} VALUES (?, ?)")).unwrap();
        for (id, k) in right_keys.iter().enumerate() {
            db.session().execute(&ins, [Value::Int(id as i64), value(ty, *k)]).unwrap();
        }
    }
    let mut expected: Vec<(i64, i64)> = Vec::new();
    for (l, lk) in left_keys.iter().enumerate() {
        for (r, rk) in right_keys.iter().enumerate() {
            if lk.is_some() && lk == rk {
                expected.push((l as i64, r as i64));
            }
        }
    }
    for (lname, lty) in types {
        for (rname, rty) in types {
            let sql = format!(
                "SELECT l{lname}.id, r{rname}.id FROM l{lname} JOIN r{rname} ON l{lname}.k = r{rname}.k"
            );
            let wanted = if lty == "DOUBLE" || rty == "DOUBLE" {
                format!("HashJoin(r{rname})")
            } else {
                format!("IndexLoopJoin(r{rname})")
            };
            let lines = explain_lines(&db, &format!("EXPLAIN {sql}"));
            assert!(lines[1].starts_with(&wanted), "{sql}: {lines:?}");
            let mut got: Vec<(i64, i64)> = db
                .query(&sql)
                .unwrap()
                .rows
                .iter()
                .map(|row| match (row.get(0), row.get(1)) {
                    (Value::Int(l), Value::Int(r)) => (*l, *r),
                    other => panic!("ids must be ints: {other:?}"),
                })
                .collect();
            got.sort_unstable();
            assert_eq!(got, expected, "{sql}");
        }
    }
}

#[test]
fn analyze_populates_rel_table_stats() {
    let db = skewed_db();
    let r = db
        .query(
            "SELECT table_name, row_count, stale FROM rel_table_stats \
             WHERE column_name = 'id' ORDER BY table_name",
        )
        .unwrap();
    assert_eq!(r.len(), 3);
    let names: Vec<String> = r.rows.iter().map(|row| text(row.get(0))).collect();
    assert_eq!(names, vec!["big", "mid", "tiny"]);
    assert_eq!(r.rows[0].get(1), &Value::Int(200));
    // Nothing written since ANALYZE: stats are fresh.
    assert_eq!(r.rows[0].get(2), &Value::Int(0));

    db.execute("INSERT INTO big (id, fk, pad) VALUES (999, 0, 'y')").unwrap();
    let r = db
        .query("SELECT stale FROM rel_table_stats WHERE table_name = 'big' AND column_name = 'id'")
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int(1), "write must mark stats stale");
}

// ---------------------------------------------------------------------------
// Subquery semantics
// ---------------------------------------------------------------------------

fn subquery_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE t (x INT, note TEXT)").unwrap();
    db.execute("INSERT INTO t (x, note) VALUES (1, 'one')").unwrap();
    db.execute("INSERT INTO t (x, note) VALUES (2, 'two')").unwrap();
    db.execute("INSERT INTO t (x, note) VALUES (NULL, 'null')").unwrap();
    db.execute("CREATE TABLE s (v INT)").unwrap();
    db
}

#[test]
fn in_empty_subquery_matches_nothing() {
    let db = subquery_db();
    let r = db.query("SELECT * FROM t WHERE x IN (SELECT v FROM s)").unwrap();
    assert!(r.is_empty());
    // NOT IN over an empty set is vacuously true for non-NULL x…
    let r = db.query("SELECT * FROM t WHERE NOT x IN (SELECT v FROM s)").unwrap();
    assert_eq!(r.len(), 2, "x = NULL stays filtered: NOT NULL is NULL");
}

#[test]
fn in_subquery_with_null_keeps_three_valued_logic() {
    let db = subquery_db();
    db.execute("INSERT INTO s (v) VALUES (1)").unwrap();
    db.execute("INSERT INTO s (v) VALUES (NULL)").unwrap();

    // x = 1 matches; x = 2 compares (2 IN (1, NULL)) → NULL → filtered;
    // x = NULL → NULL → filtered.
    let r = db.query("SELECT note FROM t WHERE x IN (SELECT v FROM s)").unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r.rows[0].get(0), &Value::Text("one".into()));

    // NOT IN with a NULL in the set can never be TRUE: every row filtered.
    let r = db.query("SELECT * FROM t WHERE NOT x IN (SELECT v FROM s)").unwrap();
    assert!(r.is_empty(), "NULL in the IN-list poisons NOT IN");
}

#[test]
fn scalar_subquery_empty_yields_null_comparison() {
    let db = subquery_db();
    let r = db.query("SELECT * FROM t WHERE x > (SELECT v FROM s)").unwrap();
    assert!(r.is_empty(), "comparison against empty scalar subquery is NULL");
}

#[test]
fn scalar_subquery_single_row_filters() {
    let db = subquery_db();
    db.execute("INSERT INTO s (v) VALUES (1)").unwrap();
    let r = db.query("SELECT note FROM t WHERE x > (SELECT MAX(v) FROM s)").unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r.rows[0].get(0), &Value::Text("two".into()));
}

#[test]
fn scalar_subquery_with_multiple_rows_errors() {
    let db = subquery_db();
    db.execute("INSERT INTO s (v) VALUES (1)").unwrap();
    db.execute("INSERT INTO s (v) VALUES (2)").unwrap();
    let err = db.query("SELECT * FROM t WHERE x = (SELECT v FROM s)").unwrap_err();
    assert!(err.to_string().contains("scalar subquery"), "{err}");
}

#[test]
fn in_subquery_composes_with_joins() {
    let db = skewed_db();
    let r = db
        .query(
            "SELECT COUNT(*) FROM big JOIN mid ON big.fk = mid.id \
             WHERE mid.fk IN (SELECT id FROM tiny WHERE id < 2)",
        )
        .unwrap();
    // mid.fk = id % 4 ∈ {0, 1} keeps half of mid's 40 rows; each mid row
    // matches 5 big rows.
    assert_eq!(r.scalar_int().unwrap(), 100);
}

// ---------------------------------------------------------------------------
// Access-path accounting
// ---------------------------------------------------------------------------

/// `a`: 100 rows, `grp` = id % 10 indexed, `val` = id % 7 unindexed.
/// `b`: 1,000 rows, `aid` = id % 100 indexed. `c`: 4 rows. `q`: 1,000 rows
/// whose last 100 are idle, `state` indexed.
fn access_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE a (id INT PRIMARY KEY, grp INT, val INT)").unwrap();
    db.execute("CREATE INDEX ON a (grp)").unwrap();
    db.execute("CREATE TABLE b (id INT PRIMARY KEY, aid INT)").unwrap();
    db.execute("CREATE INDEX ON b (aid)").unwrap();
    db.execute("CREATE TABLE c (id INT PRIMARY KEY, label TEXT)").unwrap();
    db.execute("CREATE TABLE q (id INT PRIMARY KEY, state TEXT NOT NULL)").unwrap();
    db.execute("CREATE INDEX ON q (state)").unwrap();
    let ins = db.prepare("INSERT INTO a VALUES (?, ?, ?)").unwrap();
    db.session().execute_batch(&ins, (0..100i64).map(|i| (i, i % 10, i % 7))).unwrap();
    let ins = db.prepare("INSERT INTO b VALUES (?, ?)").unwrap();
    db.session().execute_batch(&ins, (0..1_000i64).map(|i| (i, i % 100))).unwrap();
    let ins = db.prepare("INSERT INTO c VALUES (?, 'tag')").unwrap();
    db.session().execute_batch(&ins, (0..4i64).map(|i| (i,))).unwrap();
    let ins = db.prepare("INSERT INTO q VALUES (?, ?)").unwrap();
    db.session()
        .execute_batch(&ins, (0..1_000i64).map(|i| (i, if i >= 900 { "idle" } else { "done" })))
        .unwrap();
    db
}

/// The details of EXPLAIN's access and join steps, joined by `" ; "`.
fn access_text(db: &Database, sql: &str) -> String {
    let r = db.query(&format!("EXPLAIN {sql}")).unwrap();
    r.rows
        .iter()
        .filter(|row| {
            let op = text(row.get(1));
            op.starts_with("Access(") || op.contains("Join(")
        })
        .map(|row| text(row.get(2)))
        .collect::<Vec<_>>()
        .join(" ; ")
}

/// What every way of reading a table costs, in the counters that say how
/// it was read: `rows_read`, `rows_scanned`, `index_lookups`,
/// `rows_materialized` and `plans_built` of one execution, beside the
/// access text EXPLAIN gives the same statement (none for UPDATE and
/// DELETE, which EXPLAIN does not take). A changed number here is a
/// changed access path.
#[test]
fn every_access_shape_reads_exactly_what_it_did() {
    let db = access_db();
    // (statement, rows_read, rows_scanned, index_lookups, rows_materialized,
    // plans_built, EXPLAIN access text)
    type Shape = (&'static str, u64, u64, u64, u64, u64, Option<&'static str>);
    let shapes: [Shape; 15] = [
        (
            "SELECT * FROM a WHERE id = 5",
            1, 0, 1, 1, 0,
            Some("point lookup on a.id (unique), pushdown (id = 5)"),
        ),
        (
            "SELECT * FROM a WHERE grp = 3",
            10, 0, 1, 10, 0,
            Some("point lookup on a.grp, pushdown (grp = 3)"),
        ),
        (
            "SELECT id FROM a WHERE id >= 10 AND id < 20",
            11, 0, 1, 10, 0,
            Some("range scan on a.id, pushdown ((id >= 10) AND (id < 20))"),
        ),
        (
            "SELECT id FROM a WHERE val = 3",
            100, 100, 0, 14, 0,
            Some("full scan of a, pushdown (val = 3)"),
        ),
        // The walk fills its limit from the head of the index.
        (
            "SELECT id FROM a ORDER BY id LIMIT 5",
            5, 0, 1, 5, 0,
            Some("ordered walk of a.id (asc), stop after 5"),
        ),
        // The idle rows sit at the far end: the walk visits its budget of
        // 100 entries, gives up, and the lookup it was costed against reads
        // the 100 postings.
        (
            "SELECT id FROM q WHERE state = 'idle' ORDER BY id LIMIT 5",
            200, 0, 2, 5, 0,
            Some("ordered walk of q.id (asc), stop after 5, pushdown (state = 'idle')"),
        ),
        (
            "SELECT COUNT(*) FROM a WHERE grp = 4",
            10, 0, 1, 1, 0,
            Some("point lookup on a.grp, pushdown (grp = 4), index-only count"),
        ),
        (
            "SELECT a.id, c.label FROM a JOIN c ON a.grp = c.id",
            144, 104, 0, 40, 1,
            Some("full scan of a ; build c on c.id via full scan of c, probe a.grp"),
        ),
        (
            "SELECT * FROM a JOIN b ON a.id = b.aid WHERE a.id = 5",
            11, 0, 2, 10, 1,
            Some(
                "point lookup on a.id (unique), pushdown (a.id = 5) ; \
                 probe index idx_b_aid on b.aid with a.id",
            ),
        ),
        (
            "SELECT c.id, a.id FROM c JOIN a ON c.id > a.grp WHERE a.id < 20",
            37, 4, 1, 12, 1,
            Some("full scan of c ; on (c.id > a.grp) via range scan on a.id, pushdown (a.id < 20)"),
        ),
        ("UPDATE a SET val = 0 WHERE id = 7", 1, 0, 1, 0, 0, None),
        ("UPDATE a SET val = 1 WHERE grp = 3", 10, 0, 1, 0, 0, None),
        ("UPDATE a SET grp = 0 WHERE val = 5", 100, 100, 0, 0, 0, None),
        ("DELETE FROM b WHERE aid = 99", 10, 0, 1, 0, 0, None),
        ("DELETE FROM q WHERE id > 990", 10, 0, 1, 0, 0, None),
    ];
    let mut got = Vec::new();
    for (sql, ..) in shapes {
        let explained = sql.starts_with("SELECT").then(|| access_text(&db, sql));
        let before = db.stats();
        db.execute(sql).unwrap();
        let d = db.stats().delta_since(&before);
        got.push(format!(
            "(\"{sql}\", {}, {}, {}, {}, {}, {:?}),",
            d.rows_read, d.rows_scanned, d.index_lookups, d.rows_materialized, d.plans_built, explained
        ));
    }
    let want: Vec<String> = shapes
        .iter()
        .map(|(sql, read, scanned, lookups, materialized, plans, explained)| {
            format!(
                "(\"{sql}\", {read}, {scanned}, {lookups}, {materialized}, {plans}, {:?}),",
                explained.map(str::to_string)
            )
        })
        .collect();
    assert_eq!(got, want, "\n{}", got.join("\n"));
}

/// The smallest budget under which `sql` succeeds: `budget(n)` arms a
/// limit of `n`. Each attempt runs cold — `set_force_scan(false)` starts a
/// new plan generation, so no plan is reused from the last.
fn smallest_budget(db: &Database, sql: &str, budget: impl Fn(u64) -> Governance) -> u64 {
    let fits = |n: u64| {
        db.set_force_scan(false);
        match db.session().with_governance(budget(n)).query(sql, ()) {
            Ok(_) => true,
            Err(Error::ResourceExhausted(_)) => false,
            Err(e) => panic!("{sql}: {e}"),
        }
    };
    let (mut lo, mut hi) = (0, 1 << 20);
    assert!(fits(hi), "{sql} fits no budget");
    while lo < hi {
        let mid = (lo + hi) / 2;
        if fits(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// What every SELECT shape charges the governor: the smallest `max_rows`
/// and the smallest `max_bytes` under which it succeeds, beside the rows
/// it returns. The shapes are those `every_access_shape_reads_exactly_what_it_did`
/// reads plus one of each way a SELECT folds, sorts, cuts, filters and
/// rewrites. An aggregate charges what feeds it plus one row per group as
/// the group opens, priced at its key values — a global aggregate's one
/// group too. A changed number here is a changed charge: a row or tuple
/// charged that was not, or the reverse.
#[test]
fn every_select_shape_charges_exactly_what_it_did() {
    let db = access_db();
    let groupjoin = "SELECT c.label, COUNT(*), SUM(a.val) FROM a JOIN c ON a.grp = c.id GROUP BY c.label";
    let plan = db.query(&format!("EXPLAIN {groupjoin}")).unwrap();
    assert!(text(plan.rows[1].get(2)).ends_with(", fold GROUP BY into build rows"), "{plan:?}");
    // (statement, rows returned, smallest max_rows, smallest max_bytes)
    type Shape = (&'static str, usize, u64, u64);
    let shapes: [Shape; 16] = [
        ("SELECT * FROM a WHERE id = 5", 1, 1, 96),
        ("SELECT * FROM a WHERE grp = 3", 10, 10, 960),
        ("SELECT id FROM a WHERE id >= 10 AND id < 20", 10, 10, 480),
        ("SELECT id FROM a WHERE val = 3", 14, 14, 672),
        ("SELECT id FROM a ORDER BY id LIMIT 5", 5, 5, 240),
        ("SELECT id FROM q WHERE state = 'idle' ORDER BY id LIMIT 5", 5, 5, 240),
        ("SELECT COUNT(*) FROM a WHERE grp = 4", 1, 1, 24),
        ("SELECT a.id, c.label FROM a JOIN c ON a.grp = c.id", 40, 184, 18780),
        ("SELECT * FROM a JOIN b ON a.id = b.aid WHERE a.id = 5", 10, 21, 2976),
        ("SELECT c.id, a.id FROM c JOIN a ON c.id > a.grp WHERE a.id < 20", 12, 48, 4848),
        ("SELECT grp, COUNT(*), SUM(val) FROM a GROUP BY grp", 10, 10, 480),
        (groupjoin, 1, 145, 15831),
        ("SELECT * FROM b LIMIT 3", 3, 3, 216),
        ("SELECT id, val FROM a WHERE grp = 2 ORDER BY val DESC", 10, 10, 720),
        (
            "SELECT a.id, b.id FROM a JOIN b ON a.id = b.aid WHERE a.grp = 3 AND b.id > a.val * 100",
            68, 178, 20256,
        ),
        ("SELECT id FROM a WHERE grp IN (SELECT id FROM c) AND val = 1", 6, 10, 480),
    ];
    let mut got = Vec::new();
    for (sql, ..) in shapes {
        let returned = db.query(sql).unwrap().len();
        let rows = smallest_budget(&db, sql, |n| Governance {
            max_rows: Some(n),
            ..Governance::default()
        });
        let bytes = smallest_budget(&db, sql, |n| Governance {
            max_bytes: Some(n),
            ..Governance::default()
        });
        got.push(format!("(\"{sql}\", {returned}, {rows}, {bytes}),"));
    }
    let want: Vec<String> = shapes
        .iter()
        .map(|(sql, returned, rows, bytes)| format!("(\"{sql}\", {returned}, {rows}, {bytes}),"))
        .collect();
    assert_eq!(got, want, "\n{}", got.join("\n"));
}

/// `set_force_scan(true)` reaches a join's inputs: the base table of a
/// `WHERE a.id = ?` join is scanned, not looked up.
#[test]
fn force_scan_scans_the_base_of_a_join() {
    let db = access_db();
    let join = db.prepare("SELECT a.id, b.id FROM a JOIN b ON a.id = b.id WHERE a.id = ?").unwrap();
    let run = || {
        let before = db.stats();
        let r = db.session().query(&join, (5i64,)).unwrap();
        (r, db.stats().delta_since(&before).rows_scanned)
    };
    let (looked_up, scanned_rows) = run();
    assert_eq!(scanned_rows, 0, "unforced, the base is a point lookup");
    db.set_force_scan(true);
    let (forced, scanned_rows) = run();
    db.set_force_scan(false);
    assert_eq!(forced, looked_up);
    assert_eq!(scanned_rows, 100, "forced, the base table is scanned whole");
}

/// EXPLAIN under `set_force_scan(true)` shows the path that runs: a forced
/// point select is a full scan, and EXPLAIN ANALYZE's access step counts
/// the rows that scan visited.
#[test]
fn explain_under_force_scan_names_the_scan_it_runs() {
    let db = access_db();
    let sql = "SELECT * FROM a WHERE id = 5";
    db.set_force_scan(true);
    let r = db.query(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    db.set_force_scan(false);
    let actual = r.column_index("actual_rows").unwrap();
    assert_eq!(text(r.rows[0].get(2)), "full scan of a, pushdown (id = 5)");
    assert_eq!(r.rows[0].get(actual), &Value::Int(100), "access step: rows the scan visited");
    assert_eq!(r.rows[2].get(actual), &Value::Int(1), "output");
    assert_eq!(text(db.query(&format!("EXPLAIN {sql}")).unwrap().rows[0].get(2)),
        "point lookup on a.id (unique), pushdown (id = 5)");
}

/// A column names the same index however it is spelled: bare or qualified,
/// in any case. Each spelling of `a.id` (of `a.grp` in the join, where a
/// bare `id` would be ambiguous) keys the same access path, returns the same
/// rows and reads the same `index_lookups` / `rows_scanned` / `rows_read`
/// on every path a table is read by: a point and a range SELECT, the
/// ordered walk, the posting count, a join's pushed-down conjunct, and
/// UPDATE / DELETE matching. Naming another table's column is the same
/// not-found error on each of them. Every spelling runs on a fresh
/// database, so no earlier write moves its counters.
#[test]
fn every_spelling_of_a_column_keys_the_same_path() {
    let spellings = |c: &str| {
        let upper = c.to_ascii_uppercase();
        let capital = format!("{}{}", &upper[..1], &c[1..]);
        [c.to_string(), upper, format!("a.{c}"), format!("A.{capital}")]
    };
    // (shape with `{}` for the column, the column, its `?` binding)
    let shapes: [(&str, &str, Option<i64>); 8] = [
        ("SELECT * FROM a WHERE {} = 5", "id", None),
        ("SELECT id FROM a WHERE {} >= 10 AND {} < 20", "id", None),
        ("SELECT id, val FROM a ORDER BY {} DESC LIMIT 5", "id", None),
        ("SELECT COUNT(*) FROM a WHERE {} = ?", "id", Some(42)),
        ("SELECT a.id, b.id FROM a JOIN b ON a.id = b.aid WHERE {} = 3", "grp", None),
        ("UPDATE a SET val = 0 WHERE {} >= 10 AND {} < 20", "id", None),
        ("UPDATE a SET val = 1 WHERE {} = 7", "id", None),
        ("DELETE FROM a WHERE {} = 99", "id", None),
    ];
    // EXPLAIN's access and join details without the pushed-down text, which
    // prints the column as written.
    let paths = |db: &Database, sql: &str| {
        access_text(db, sql)
            .split(" ; ")
            .map(|detail| match detail.split_once(", pushdown ") {
                Some((path, rest)) => {
                    path.to_string() + rest.find(", index-only").map_or("", |at| &rest[at..])
                }
                None => detail.to_string(),
            })
            .collect::<Vec<_>>()
    };
    for (shape, column, param) in shapes {
        let mut seen: Vec<(String, String)> = Vec::new();
        for spelled in spellings(column) {
            let sql = shape.replace("{}", &spelled);
            let db = access_db();
            let explained = if !sql.starts_with("SELECT") {
                Vec::new()
            } else if let Some(p) = param {
                paths(&db, &sql.replace('?', &p.to_string()))
            } else {
                paths(&db, &sql)
            };
            let before = db.stats();
            let params: Vec<Value> = param.into_iter().map(Value::Int).collect();
            let outcome = if sql.starts_with("SELECT") {
                format!("{:?}", db.session().query(sql.as_str(), params).unwrap().rows)
            } else {
                format!("{:?}", db.session().execute(sql.as_str(), params).unwrap())
            };
            let d = db.stats().delta_since(&before);
            let got = format!(
                "{explained:?} read {} scanned {} lookups {} -> {outcome}",
                d.rows_read, d.rows_scanned, d.index_lookups
            );
            seen.push((sql, got));
        }
        for (sql, got) in &seen[1..] {
            assert_eq!(got, &seen[0].1, "{sql} against {}", seen[0].0);
        }
    }
    // Another table's column, on each of those paths.
    let db = access_db();
    for (sql, scope) in [
        ("SELECT * FROM a WHERE b.id = 5", "a"),
        ("SELECT id FROM a WHERE b.id >= 10 AND b.id < 20", "a"),
        ("SELECT id, val FROM a ORDER BY b.id DESC LIMIT 5", "a"),
        ("SELECT COUNT(*) FROM a WHERE b.id = 42", "a"),
        ("SELECT a.id, b.id FROM a JOIN b ON a.id = b.aid WHERE c.id = 3", "a, b"),
        ("UPDATE a SET val = 0 WHERE b.id >= 10 AND b.id < 20", "a"),
        ("DELETE FROM a WHERE b.id = 99", "a"),
    ] {
        let column = if sql.contains("c.id") { "c.id" } else { "b.id" };
        let err = db.execute(sql).unwrap_err();
        assert!(
            matches!(&err, Error::NotFound(m) if *m == format!("column {column} in {scope}")),
            "{sql}: {err:?}"
        );
    }
}
