//! `operator_queries`: what the pool's administrators and users ask of the
//! operational data, beside a trickle of writes.
//!
//! One thread over a preloaded CAS database (1,000 machines, 50 users,
//! 20,000 jobs, 100,000 `job_history` rows, 10,000 `provenance` rows) runs a
//! seeded sequence of queries — an *op* is one query:
//!
//! | kind | what | weight |
//! |---|---|---|
//! | `point` | `pool_status()` (1 in 8 of the kind) and ad-hoc **unprepared** point selects whose literals range over 20,000 ids — far beyond the 256-entry statement cache, so each parses | 45 % |
//! | `agg` | indexed aggregate: `COUNT/SUM … job_history WHERE owner = ?` | 15 % |
//! | `filter` | index + residual: `jobs WHERE owner = ? AND runtime_ms > ?` | 15 % |
//! | `scan` | range scan over unindexed `provenance.recorded` | 15 % |
//! | `join` | `job_history ⋈ machines` for one owner | 8 % |
//! | `report` | `usage_by_owner()`: join + GROUP BY over all history | 2 % |
//!
//! Between every two queries one heartbeat `UPDATE machines` and one
//! `INSERT INTO job_history` run (kind `write`, timed but not an op), so
//! plan and build-side caches must honour invalidation: a cache that only
//! wins on a frozen table shows its cost here. Every result is checked
//! against an arithmetic oracle of the preload plus the writes so far.

use crate::engine::Snapshot;
use crate::host;
use crate::rng::{Deck, Rng, StreamHash};
use crate::round::{Meter, Round, RoundCtx, SetupClock, Tally};
use condorj2::CasState;
use relstore::{Database, Prepared};
use std::sync::Arc;
use std::time::Instant;

const MACHINES: i64 = 1_000;
const OWNERS: i64 = 50;
const JOBS: i64 = 20_000;
const HISTORY: i64 = 100_000;
const PROVENANCE: i64 = 10_000;
/// Queries per round at scale 1.
const QUERIES: u64 = 1_000;
const CHUNK: i64 = 5_000;

fn owner(i: i64) -> String {
    format!("user{:02}", i % OWNERS)
}

fn job_runtime(i: i64) -> i64 {
    1_000 + (i * 7_919) % 60_000
}

fn history_runtime(i: i64) -> i64 {
    1_000 + (i * 104_729) % 600_000
}

/// The arithmetic oracle: what each query class must return, kept up to
/// date with the interleaved writes.
struct Oracle {
    history_count: Vec<i64>,
    history_sum: Vec<i64>,
    history_total: i64,
    /// Per owner, the job runtimes in ascending order (jobs are not written).
    job_runtimes: Vec<Vec<i64>>,
    heartbeat: Vec<i64>,
}

impl Oracle {
    fn preload() -> Oracle {
        let owners = OWNERS as usize;
        let mut o = Oracle {
            history_count: vec![0; owners],
            history_sum: vec![0; owners],
            history_total: HISTORY,
            job_runtimes: vec![Vec::new(); owners],
            heartbeat: vec![0; MACHINES as usize],
        };
        for i in 1..=HISTORY {
            o.history_count[(i % OWNERS) as usize] += 1;
            o.history_sum[(i % OWNERS) as usize] += history_runtime(i);
        }
        for i in 1..=JOBS {
            o.job_runtimes[(i % OWNERS) as usize].push(job_runtime(i));
        }
        for list in &mut o.job_runtimes {
            list.sort_unstable();
        }
        o
    }
}

struct Statements {
    touch: Prepared,
    history_insert: Prepared,
    agg: Prepared,
    filter: Prepared,
    scan: Prepared,
    join: Prepared,
}

fn batch<P: relstore::IntoParams>(
    db: &Database,
    sql: &str,
    n: i64,
    row: impl Fn(i64) -> P,
) -> relstore::Result<()> {
    let stmt = db.prepare(sql)?;
    let mut lo = 1;
    while lo <= n {
        let hi = (lo + CHUNK - 1).min(n);
        db.session().execute_batch(&stmt, (lo..=hi).map(&row))?;
        lo = hi + 1;
    }
    Ok(())
}

const HISTORY_INSERT: &str = "INSERT INTO job_history \
    (history_id, job_id, owner, runtime_ms, submitted, completed, machine_id, requeues) \
    VALUES (?, ?, ?, ?, ?, ?, ?, 0)";

fn preload(db: &Arc<Database>) -> relstore::Result<(CasState, Statements)> {
    let cas = CasState::new(Arc::clone(db))?;
    batch(
        db,
        "INSERT INTO users (name, priority, created) VALUES (?, 0.5, 0)",
        OWNERS,
        |i| (owner(i),),
    )?;
    batch(
        db,
        "INSERT INTO machines (machine_id, name, state, speed, phys_id, last_heartbeat) VALUES (?, ?, ?, 1.0, ?, 0)",
        MACHINES,
        |i| {
            let id = i - 1;
            (id, format!("vm{}@node{}", id % 4, id / 4), if id % 3 == 0 { "running" } else { "idle" }, id / 4)
        },
    )?;
    batch(
        db,
        "INSERT INTO jobs (job_id, owner, state, runtime_ms, submitted, updated, requeues) VALUES (?, ?, ?, ?, ?, ?, 0)",
        JOBS,
        |i| {
            let state = match i % 4 {
                0 => "running",
                1 => "matched",
                _ => "idle",
            };
            (i, owner(i), state, job_runtime(i), i, i)
        },
    )?;
    batch(db, HISTORY_INSERT, HISTORY, |i| {
        (
            i,
            1_000_000 + i,
            owner(i),
            history_runtime(i),
            i,
            i + 1,
            i % MACHINES,
        )
    })?;
    batch(
        db,
        "INSERT INTO provenance (record_id, job_id, executable, input_dataset, output_dataset, recorded) VALUES (?, ?, ?, ?, ?, ?)",
        PROVENANCE,
        |i| (i, 1_000_000 + i, format!("exe{}", i % 20), format!("in{i}"), format!("out{}", i % 500), i),
    )?;
    let statements = Statements {
        touch: db.prepare("UPDATE machines SET last_heartbeat = ? WHERE machine_id = ?")?,
        history_insert: db.prepare(HISTORY_INSERT)?,
        agg: db.prepare("SELECT COUNT(*), SUM(runtime_ms) FROM job_history WHERE owner = ?")?,
        filter: db.prepare("SELECT job_id FROM jobs WHERE owner = ? AND runtime_ms > ?")?,
        scan: db.prepare("SELECT COUNT(*) FROM provenance WHERE recorded >= ? AND recorded < ?")?,
        join: db.prepare(
            "SELECT job_history.history_id, machines.name FROM job_history \
             JOIN machines ON job_history.machine_id = machines.machine_id \
             WHERE job_history.owner = ?",
        )?,
    };
    Ok((cas, statements))
}

pub fn round(ctx: &mut RoundCtx<'_>) -> Result<Round, String> {
    let mut round = Round {
        flavour: ctx.flavour,
        op_kinds: vec!["point", "agg", "filter", "scan", "join", "report"],
        light: "point",
        heavy: "report",
        ..Round::default()
    };
    let queries = (QUERIES / ctx.scale).max(60);
    let rel = |e: relstore::Error| e.to_string();

    // --- setup: deploy the schema and preload the operational data.
    let phase = ctx.tracer.begin("setup", ctx.parent, 0);
    let setup = SetupClock::start();
    let db = Arc::new(Database::new());
    let (cas, st) = preload(&db).map_err(|e| format!("preload: {e}"))?;
    setup.stop(&mut round);
    ctx.tracer.end(phase);
    let mut oracle = Oracle::preload();

    // --- measure.
    let before = if ctx.flavour.traced() {
        Some(Snapshot::before(&db).map_err(rel)?)
    } else {
        None
    };
    let phase = ctx.tracer.begin("measure", ctx.parent, 0);
    let mut meter = Meter::new(
        ctx.tracer,
        phase,
        &[
            ("point", queries as usize),
            ("agg", queries as usize / 4),
            ("filter", queries as usize / 4),
            ("scan", queries as usize / 4),
            ("join", queries as usize / 4),
            ("report", queries as usize / 8),
            ("write", 2 * queries as usize),
        ],
    );
    let mut rng = Rng::new(ctx.seed).fork(0x0B);
    // point, agg, filter, scan, join, report — per hundred queries.
    let mut deck = Deck::new(&[45, 15, 15, 15, 8, 2]);
    let mut hash = StreamHash::default();
    let mut tally = Tally::default();
    let cpu0 = host::cpu_seconds();
    for n in 0..queries {
        let class = deck.draw(&mut rng);
        hash.push(class as u64);
        let who = rng.below(OWNERS as u64) as i64;
        if class == 0 {
            if rng.below(8) == 0 {
                let t0 = Instant::now();
                let r = cas.pool_status();
                meter.record("point", t0, Instant::now());
                match r {
                    Ok(s) => {
                        let ok = s.idle_jobs == JOBS / 2
                            && s.active_jobs == JOBS / 2
                            && s.busy_machines == (MACHINES + 2) / 3
                            && s.total_machines == MACHINES
                            && s.completed_jobs == oracle.history_total;
                        if !ok {
                            tally.wrong(format!(
                                "pool_status {s:?}, history should be {}",
                                oracle.history_total
                            ));
                        }
                    }
                    Err(e) => tally.failed(format!("pool_status: {e}")),
                }
            } else {
                let id = rng.range(1, JOBS as u64) as i64;
                let sql = format!("SELECT owner, runtime_ms FROM jobs WHERE job_id = {id}");
                let t0 = Instant::now();
                let r = db.session().query_one::<(String, i64), _, _>(sql, ());
                meter.record("point", t0, Instant::now());
                match r {
                    Ok(Some((o, rt))) if o == owner(id) && rt == job_runtime(id) => {}
                    Ok(other) => tally.wrong(format!("job {id} reads {other:?}")),
                    Err(e) => tally.failed(format!("ad-hoc point select: {e}")),
                }
            }
        } else if class == 1 {
            let t0 = Instant::now();
            let r = db
                .session()
                .query_one::<(i64, Option<i64>), _, _>(&st.agg, (owner(who),));
            meter.record("agg", t0, Instant::now());
            let want = (
                oracle.history_count[who as usize],
                Some(oracle.history_sum[who as usize]),
            );
            match r {
                Ok(Some(got)) if got == want => {}
                Ok(other) => tally.wrong(format!(
                    "aggregate of {} is {other:?}, oracle {want:?}",
                    owner(who)
                )),
                Err(e) => tally.failed(format!("indexed aggregate: {e}")),
            }
        } else if class == 2 {
            let floor = rng.range(1_000, 61_000) as i64;
            let t0 = Instant::now();
            let r = db.session().query(&st.filter, (owner(who), floor));
            meter.record("filter", t0, Instant::now());
            let list = &oracle.job_runtimes[who as usize];
            let want = list.len() - list.partition_point(|rt| *rt <= floor);
            match r {
                Ok(rows) if rows.len() == want => {}
                Ok(rows) => tally.wrong(format!(
                    "filter returned {} rows, oracle {want}",
                    rows.len()
                )),
                Err(e) => tally.failed(format!("index + residual filter: {e}")),
            }
        } else if class == 3 {
            let lo = rng.range(1, PROVENANCE as u64 - 2_000) as i64;
            let hi = lo + rng.range(1, 2_000) as i64;
            let t0 = Instant::now();
            let r = db.session().query(&st.scan, (lo, hi));
            meter.record("scan", t0, Instant::now());
            match r.map(|rows| rows.scalar_int()) {
                Ok(Some(got)) if got == hi - lo => {}
                Ok(other) => {
                    tally.wrong(format!("range scan counted {other:?}, oracle {}", hi - lo))
                }
                Err(e) => tally.failed(format!("range scan: {e}")),
            }
        } else if class == 4 {
            let t0 = Instant::now();
            let r = db.session().query(&st.join, (owner(who),));
            meter.record("join", t0, Instant::now());
            let want = oracle.history_count[who as usize] as usize;
            match r {
                Ok(rows) if rows.len() == want => {}
                Ok(rows) => {
                    tally.wrong(format!("join returned {} rows, oracle {want}", rows.len()))
                }
                Err(e) => tally.failed(format!("history-machines join: {e}")),
            }
        } else {
            let t0 = Instant::now();
            let r = cas.usage_by_owner();
            meter.record("report", t0, Instant::now());
            match r {
                Ok(lines) => {
                    let ok = lines.len() == OWNERS as usize
                        && lines.iter().enumerate().all(|(i, l)| {
                            let minutes = oracle.history_sum[i] as f64 / 60_000.0;
                            l.owner == owner(i as i64)
                                && l.jobs == oracle.history_count[i]
                                && (l.machine_minutes - minutes).abs() <= minutes * 1e-9
                                && l.priority == 0.5
                        });
                    if !ok {
                        tally.wrong("usage_by_owner disagrees with the oracle".into());
                    }
                }
                Err(e) => tally.failed(format!("usage_by_owner: {e}")),
            }
        }

        // The trickle of writes: a heartbeat and a finished job.
        let machine = rng.below(MACHINES as u64) as i64;
        let stamp = n as i64 + 1;
        let id = HISTORY + stamp;
        let (who, runtime) = (
            rng.below(OWNERS as u64) as i64,
            rng.range(1_000, 600_000) as i64,
        );
        let t0 = Instant::now();
        let touched = db.session().execute(&st.touch, (stamp, machine));
        let t1 = Instant::now();
        let inserted = db.session().execute(
            &st.history_insert,
            (
                id,
                2_000_000 + id,
                owner(who),
                runtime,
                stamp,
                stamp + 1,
                machine,
            ),
        );
        let t2 = Instant::now();
        meter.record("write", t0, t1);
        meter.record("write", t1, t2);
        match (touched, inserted) {
            (Ok(a), Ok(b)) if a.affected() == 1 && b.affected() == 1 => {
                oracle.heartbeat[machine as usize] = stamp;
                oracle.history_count[who as usize] += 1;
                oracle.history_sum[who as usize] += runtime;
                oracle.history_total += 1;
            }
            (a, b) => tally.wrong(format!("interleaved writes: {a:?} / {b:?}")),
        }
    }
    let measured = meter.finish();
    round.take_measured(measured, host::cpu_seconds() - cpu0);
    ctx.tracer.end(phase);
    round.ops = queries;
    round.failed = tally.failed;
    round.stream_hash = hash.value();
    if let Some(before) = &before {
        round.engine = Some(Snapshot::region(&db, before).map_err(rel)?);
    }

    // --- verify.
    let phase = ctx.tracer.begin("verify", ctx.parent, 0);
    if let Some(first) = &tally.first {
        round.check_failures.push(format!(
            "{} failed and {} wrong results, first: {first}",
            tally.failed, tally.wrong
        ));
    }
    // (`check_consistency()` is left to the churn workloads: over these
    // 130k rows it costs more than the measured phase.)
    let beats: Vec<i64> = db
        .session()
        .query_scalars(
            "SELECT last_heartbeat FROM machines ORDER BY machine_id",
            (),
        )
        .map_err(rel)?;
    round.check(beats == oracle.heartbeat, || {
        "machine heartbeats differ from the writes made".into()
    });
    round.check(
        db.table_len("job_history").ok() == Some(oracle.history_total as usize),
        || "job_history row count differs from preload + inserts".into(),
    );
    ctx.tracer.end(phase);
    Ok(round)
}
