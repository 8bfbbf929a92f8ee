//! `churn_mem` / `churn_durable`: a seeded pool replay through the CAS.
//!
//! The generator is a tick-driven model of `vms` startds: the queue is held
//! at twice the pool size by `submitJob`, the matchmaker runs once a tick
//! (`run_scheduler_limited(512)`, a direct `CasState` call exactly as the
//! simulation's event loop makes it), and every VM sends one call per tick —
//! an idle heartbeat (followed by `acceptMatch` when it carries a match), a
//! running heartbeat, or the completed heartbeat that ends its job. Job
//! lengths are seeded 5–15 ticks. Closed loop, one thread: each call waits
//! for its reply.
//!
//! The generator keeps its own model of what the database must hold and the
//! verify phase compares the two.

use crate::engine::Snapshot;
use crate::host;
use crate::kernel;
use crate::rng::{Rng, StreamHash};
use crate::round::{Flavour, Meter, Round, RoundCtx, SetupClock};
use crate::trace::Tracer;
use appserver::{AppContainer, CostModel, ServiceRegistry, SoapRequest, SoapStatus};
use cluster_sim::{SimDuration, SimTime};
use condorj2::cas::register_services;
use condorj2::{CasState, HeartbeatReply, HeartbeatReport};
use relstore::{Database, DurabilityPolicy};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub const KINDS: [&str; 5] = ["heartbeat", "submit", "accept", "complete", "sched"];
const OWNERS: u64 = 50;
const TICK_MS: u64 = 2_000;
const MATCH_LIMIT: usize = 512;
/// Ticks of the probe phase that wraps every call in counter readings.
const PROBE_TICKS: u64 = 3;

#[derive(Debug, Clone, Copy)]
pub struct ChurnSpec {
    pub name: &'static str,
    pub vms: usize,
    pub durable: bool,
    /// Untimed ticks that take the pool from "all idle" to a steady mix.
    pub warm_ticks: u64,
    /// Timed ticks per round at scale 1.
    pub measure_ticks: u64,
}

pub const CHURN_MEM: ChurnSpec = ChurnSpec {
    name: "churn_mem",
    vms: 1_000,
    durable: false,
    warm_ticks: 12,
    measure_ticks: 24,
};
pub const CHURN_DURABLE: ChurnSpec = ChurnSpec {
    name: "churn_durable",
    vms: 200,
    durable: true,
    warm_ticks: 10,
    measure_ticks: 12,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Vm {
    Idle,
    Running { job: i64, left: u64 },
}

/// The system under test behind the two entry points a round can use.
enum Api {
    Container {
        container: Box<AppContainer<CasState>>,
        state: Box<CasState>,
    },
    Direct {
        state: Box<CasState>,
    },
}

/// The generator: VM states, the queue, and the model the database is
/// checked against.
struct Pool {
    api: Api,
    db: Arc<Database>,
    vms: Vec<Vm>,
    rng: Rng,
    tick: u64,
    idle_jobs: u64,
    submitted: u64,
    completed: u64,
    open_matches: u64,
    matches_made: u64,
    calls: u64,
    failed: u64,
    hash: StreamHash,
    first_error: Option<String>,
    /// Armed only in the probe phase.
    probe: Option<Probe>,
}

impl Pool {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }

    /// Makes one call into the system: timed, filed under its kind, and —
    /// when the probe is armed — wrapped in two counter readings.
    fn timed<T>(
        &mut self,
        kind: &'static str,
        rec: &mut Meter<'_>,
        call: impl FnOnce(&mut Api, SimTime) -> T,
    ) -> T {
        let before = self.probe.as_ref().map(|_| Reading::take(&self.db));
        let now = SimTime(self.tick * TICK_MS);
        let t0 = Instant::now();
        let out = call(&mut self.api, now);
        let t1 = Instant::now();
        rec.record(kind, t0, t1);
        self.calls += 1;
        if let (Some(probe), Some(before)) = (self.probe.as_mut(), before) {
            match (before, Reading::take(&self.db)) {
                (Ok(before), Ok(after)) => probe.file(
                    kind,
                    after.minus(before),
                    (t1 - t0).as_nanos() as f64 / 1_000.0,
                ),
                (Err(e), _) | (_, Err(e)) => self.fail(format!("probe reading: {e}")),
            }
        }
        out
    }

    fn register(&mut self, vm: usize) {
        let id = vm as i64;
        let name = format!("vm{}@node{}", vm % 4, vm / 4);
        let phys = (vm / 4) as i64;
        let ok = match &mut self.api {
            Api::Container { container, state } => {
                let req = SoapRequest::new("registerMachine")
                    .with("machine_id", id)
                    .with("name", name)
                    .with("speed", 1.0)
                    .with("phys_id", phys)
                    .with("memory_mb", 2048i64);
                container.handle(state, SimTime::ZERO, &req).0.is_success()
            }
            Api::Direct { state } => state.register_machine(id, &name, 1.0, phys, 2048).is_ok(),
        };
        if !ok {
            self.fail(format!("registerMachine {id} refused"));
        }
    }

    fn submit(&mut self, rec: &mut Meter<'_>) {
        let owner = format!("user{:02}", self.rng.below(OWNERS));
        let runtime_ms = (self.rng.range(5, 15) * TICK_MS) as i64;
        self.hash.push(runtime_ms as u64);
        let ok = self.timed("submit", rec, |api, now| match api {
            Api::Container { container, state } => {
                let req = SoapRequest::new("submitJob")
                    .with("owner", owner)
                    .with("runtime_ms", runtime_ms)
                    .with("count", 1i64);
                container.handle(state, now, &req).0.is_success()
            }
            Api::Direct { state } => state.submit_job(&owner, runtime_ms).is_ok(),
        });
        if ok {
            self.idle_jobs += 1;
            self.submitted += 1;
        } else {
            self.fail("submitJob refused".into());
        }
    }

    fn sched(&mut self, rec: &mut Meter<'_>) {
        let made = self.timed("sched", rec, |api, _| match api {
            Api::Container { state, .. } | Api::Direct { state } => {
                state.run_scheduler_limited(MATCH_LIMIT)
            }
        });
        match made {
            Ok(made) => {
                let made = made as u64;
                self.matches_made += made;
                self.open_matches += made;
                self.idle_jobs -= made.min(self.idle_jobs);
            }
            Err(e) => self.fail(format!("scheduler pass: {e}")),
        }
    }

    /// One heartbeat; returns the job of a `MATCHINFO` reply.
    fn heartbeat(
        &mut self,
        kind: &'static str,
        vm: usize,
        status: &'static str,
        job: i64,
        rec: &mut Meter<'_>,
    ) -> Option<i64> {
        let reply: Result<Option<i64>, String> = self.timed(kind, rec, |api, now| match api {
            Api::Container { container, state } => {
                let mut req = SoapRequest::new("heartbeat")
                    .with("machine_id", vm as i64)
                    .with("status", status);
                if job != 0 {
                    req = req.with("job_id", job);
                }
                let (resp, _) = container.handle(state, now, &req);
                match resp.status {
                    SoapStatus::Ok => Ok(None),
                    SoapStatus::MatchInfo => Ok(resp.field("job_id").as_int().ok()),
                    SoapStatus::Fault => Err(format!("{:?}", resp.field("message"))),
                }
            }
            Api::Direct { state } => {
                let report = match status {
                    "idle" => HeartbeatReport::Idle,
                    "running" => HeartbeatReport::Running { job_id: job },
                    _ => HeartbeatReport::Completed { job_id: job },
                };
                match state.heartbeat(vm as i64, report) {
                    Ok(HeartbeatReply::Ok) => Ok(None),
                    Ok(HeartbeatReply::MatchInfo { job_id }) => Ok(Some(job_id)),
                    Err(e) => Err(e.to_string()),
                }
            }
        });
        match reply {
            Ok(m) => m,
            Err(e) => {
                self.fail(format!("heartbeat({status}) of vm {vm}: {e}"));
                None
            }
        }
    }

    fn accept(&mut self, vm: usize, job: i64, rec: &mut Meter<'_>) -> bool {
        let ok = self.timed("accept", rec, |api, now| match api {
            Api::Container { container, state } => {
                let req = SoapRequest::new("acceptMatch")
                    .with("machine_id", vm as i64)
                    .with("job_id", job);
                container.handle(state, now, &req).0.is_success()
            }
            Api::Direct { state } => state.accept_match(vm as i64, job).is_ok(),
        });
        if !ok {
            self.fail(format!("acceptMatch of job {job} on vm {vm} refused"));
        }
        ok
    }

    fn tick(&mut self, rec: &mut Meter<'_>) {
        self.tick += 1;
        let now_ms = (self.tick * TICK_MS) as i64;
        match &mut self.api {
            Api::Container { state, .. } | Api::Direct { state } => state.now_ms = now_ms,
        }
        while self.idle_jobs < 2 * self.vms.len() as u64 {
            self.submit(rec);
        }
        self.sched(rec);
        for vm in 0..self.vms.len() {
            match self.vms[vm] {
                Vm::Idle => {
                    if let Some(job) = self.heartbeat("heartbeat", vm, "idle", 0, rec) {
                        if self.accept(vm, job, rec) {
                            self.open_matches -= 1;
                            let left = self.rng.range(5, 15);
                            self.hash.push(left);
                            self.vms[vm] = Vm::Running { job, left };
                        }
                    }
                }
                Vm::Running { job, left } if left > 1 => {
                    self.heartbeat("heartbeat", vm, "running", job, rec);
                    self.vms[vm] = Vm::Running {
                        job,
                        left: left - 1,
                    };
                }
                Vm::Running { job, .. } => {
                    self.heartbeat("complete", vm, "completed", job, rec);
                    self.completed += 1;
                    self.vms[vm] = Vm::Idle;
                }
            }
        }
    }

    fn running(&self) -> u64 {
        self.vms
            .iter()
            .filter(|v| matches!(v, Vm::Running { .. }))
            .count() as u64
    }
}

fn open_db(spec: &ChurnSpec, log: &Path) -> Result<Arc<Database>, String> {
    if spec.durable {
        // The flush policy is part of the workload's definition.
        Database::open_durable_with(log, DurabilityPolicy::Always)
            .map(Arc::new)
            .map_err(|e| format!("open {}: {e}", log.display()))
    } else {
        Ok(Arc::new(Database::new()))
    }
}

/// `COUNT(*)` and the sum of the integer primary key of every CAS table —
/// what must survive a close and reopen unchanged.
fn table_fingerprint(db: &Database) -> Result<BTreeMap<&'static str, (i64, i64)>, String> {
    const KEYED: [(&str, &str); 7] = [
        ("jobs", "job_id"),
        ("machines", "machine_id"),
        ("matches", "match_id"),
        ("runs", "run_id"),
        ("job_history", "history_id"),
        ("machine_history", "event_id"),
        ("provenance", "record_id"),
    ];
    let mut out = BTreeMap::new();
    for (table, key) in KEYED {
        let row: Option<(i64, Option<i64>)> = db
            .session()
            .query_one(format!("SELECT COUNT(*), SUM({key}) FROM {table}"), ())
            .map_err(|e| format!("fingerprint of {table}: {e}"))?;
        let (count, sum) = row.unwrap_or((0, None));
        out.insert(table, (count, sum.unwrap_or(0)));
    }
    for table in ["users", "config"] {
        let n = db.table_len(table).map_err(|e| e.to_string())? as i64;
        out.insert(table, (n, 0));
    }
    Ok(out)
}

/// Bytes of user data the tables hold: 8 per number, its length per text.
fn live_bytes(db: &Database) -> Result<f64, String> {
    let mut total = 0usize;
    for table in condorj2::schema::TABLES {
        let rows = db
            .session()
            .query(format!("SELECT * FROM {table}"), ())
            .map_err(|e| e.to_string())?;
        for view in rows.views() {
            for i in 0..view.columns().len() {
                total += match view
                    .get_at::<relstore::Value>(i)
                    .map_err(|e| e.to_string())?
                {
                    relstore::Value::Text(t) => t.len(),
                    relstore::Value::Null | relstore::Value::Bool(_) => 1,
                    _ => 8,
                };
            }
        }
    }
    Ok(total as f64)
}

/// Bytes of the engine's log segments in `dir` (the flush probe's own file
/// is not the engine's).
fn log_bytes(dir: &Path) -> f64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().starts_with("cas.wal"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len() as f64)
                .sum()
        })
        .unwrap_or(0.0)
}

/// Runs one round of a churn workload.
pub fn round(spec: &ChurnSpec, ctx: &mut RoundCtx<'_>) -> Result<Round, String> {
    let mut round = Round {
        flavour: ctx.flavour,
        op_kinds: KINDS.to_vec(),
        light: "heartbeat",
        heavy: "complete",
        ..Round::default()
    };
    let measure_ticks = (spec.measure_ticks / ctx.scale).max(2);
    let warm_ticks = if ctx.scale > 1 {
        spec.warm_ticks.min(8)
    } else {
        spec.warm_ticks
    };
    let dir = ctx.scratch.join(format!("{}-{}", spec.name, ctx.index));
    let log = dir.join("cas.wal");
    if spec.durable {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    }

    // --- setup: open, deploy the schema, register the pool, fill the queue.
    let phase = ctx.tracer.begin("setup", ctx.parent, 0);
    let setup = SetupClock::start();
    let db = open_db(spec, &log)?;
    let state = Box::new(CasState::new(Arc::clone(&db)).map_err(|e| format!("deploy: {e}"))?);
    let api = match ctx.flavour {
        Flavour::Direct => Api::Direct { state },
        _ => {
            let mut registry = ServiceRegistry::new();
            register_services(&mut registry);
            let container = AppContainer::new(
                Arc::clone(&db),
                registry,
                CostModel::cas_server(),
                20,
                4,
                SimDuration::from_secs(60),
            );
            Api::Container {
                container: Box::new(container),
                state,
            }
        }
    };
    let mut pool = Pool {
        api,
        db: Arc::clone(&db),
        vms: vec![Vm::Idle; spec.vms],
        rng: Rng::new(ctx.seed).fork(0xC4),
        tick: 0,
        idle_jobs: 0,
        submitted: 0,
        completed: 0,
        open_matches: 0,
        matches_made: 0,
        calls: 0,
        failed: 0,
        hash: StreamHash::default(),
        first_error: None,
        probe: None,
    };
    let mut off = Tracer::disabled();
    let mut untimed = Meter::discarding(&mut off);
    for vm in 0..spec.vms {
        pool.register(vm);
    }
    while pool.idle_jobs < 2 * spec.vms as u64 {
        pool.submit(&mut untimed);
    }
    setup.stop(&mut round);
    ctx.tracer.end(phase);

    // --- warm-up: untimed ticks until running, matched and idle VMs mix.
    let phase = ctx.tracer.begin("warmup", ctx.parent, 0);
    for _ in 0..warm_ticks {
        pool.tick(&mut untimed);
    }
    ctx.tracer.end(phase);

    // --- measure: a fixed number of ticks.
    let before = if ctx.flavour.traced() {
        Some(Snapshot::before(&db).map_err(|e| format!("read counters: {e}"))?)
    } else {
        None
    };
    let (calls0, failed0, completed0) = (pool.calls, pool.failed, pool.completed);
    let matches0 = pool.matches_made;
    let phase = ctx.tracer.begin("measure", ctx.parent, 0);
    let per_tick = spec.vms * 13 / 10 + 16;
    let cap = |percent: usize| per_tick * measure_ticks as usize * percent / 100 + 64;
    let mut rec = Meter::new(
        ctx.tracer,
        phase,
        &[
            ("heartbeat", cap(85)),
            ("submit", cap(12)),
            ("accept", cap(12)),
            ("complete", cap(12)),
            ("sched", cap(1)),
        ],
    );
    if spec.durable {
        let io = kernel::IoProbe::create(&dir).map_err(|e| format!("flush probe: {e}"))?;
        rec = rec.splitting_waits(io);
    }
    let cpu0 = host::cpu_seconds();
    for _ in 0..measure_ticks {
        pool.tick(&mut rec);
    }
    let measured = rec.finish();
    round.take_measured(measured, host::cpu_seconds() - cpu0);
    ctx.tracer.end(phase);
    round.ops = pool.calls - calls0;
    round.failed = pool.failed - failed0;
    round.set("jobs", (pool.completed - completed0) as f64);
    round.set("matches", (pool.matches_made - matches0) as f64);
    round.stream_hash = pool.hash.value();
    if let Some(before) = &before {
        round.engine =
            Some(Snapshot::region(&db, before).map_err(|e| format!("read counters: {e}"))?);
    }

    // --- probe (direct flavour): every call of a few more ticks is wrapped
    // in counter readings, which gives statements, commits, rows read and
    // engine time per call *kind*. Outside the measured phase: a reading
    // costs more than the call it wraps.
    if ctx.flavour == Flavour::Direct {
        let phase = ctx.tracer.begin("probe", ctx.parent, 0);
        pool.probe = Some(Probe::calibrated(&db).map_err(|e| format!("probe: {e}"))?);
        for _ in 0..PROBE_TICKS {
            pool.tick(&mut untimed);
        }
        if let Some(probe) = pool.probe.take() {
            probe.report(&mut round);
        }
        ctx.tracer.end(phase);
    }

    // --- verify.
    let phase = ctx.tracer.begin("verify", ctx.parent, 0);
    if let Some(e) = pool.first_error.take() {
        round
            .check_failures
            .push(format!("{} call(s) failed, first: {e}", pool.failed));
    }
    verify_model(&pool, spec, &mut round);
    let fingerprint = table_fingerprint(&db)?;
    if spec.durable {
        round.set("live_bytes", live_bytes(&db)?);
        let total = Snapshot::after(&db).map_err(|e| e.to_string())?;
        round.set("wal_records_total", total.stat("wal_records") as f64);
    }
    ctx.tracer.end(phase);

    // --- recover (durable): close, reopen from the file, compare. Under
    // `Always` the file holds exactly the acknowledged calls.
    drop(pool);
    if spec.durable {
        round.check(Arc::strong_count(&db) == 1, || {
            "database still shared at close".into()
        });
        drop(db);
        round.set("log_bytes", log_bytes(&dir));
        let phase = ctx.tracer.begin("recover", ctx.parent, 0);
        let t_recover = Instant::now();
        let reopened = open_db(spec, &log)?;
        round.set("recovery_s", t_recover.elapsed().as_secs_f64());
        ctx.tracer.end(phase);
        let after = table_fingerprint(&reopened)?;
        round.check(after == fingerprint, || {
            format!("reopened database differs: before close {fingerprint:?}, after {after:?}")
        });
        if let Err(e) = reopened.check_consistency() {
            round
                .check_failures
                .push(format!("reopened database inconsistent: {e}"));
        }
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(round)
}

/// The generator's model against the database's row counts.
fn verify_model(pool: &Pool, spec: &ChurnSpec, round: &mut Round) {
    if let Err(e) = pool.db.check_consistency() {
        round.check_failures.push(format!("check_consistency: {e}"));
    }
    let running = pool.running();
    let expect = [
        ("machines", spec.vms as u64),
        ("job_history", pool.completed),
        ("matches", pool.open_matches),
        ("runs", running),
        ("jobs", pool.submitted - pool.completed),
    ];
    for (table, want) in expect {
        match pool.db.table_len(table) {
            Ok(got) => round.check(got as u64 == want, || {
                format!("{table} holds {got} rows, the generator's model says {want}")
            }),
            Err(e) => round
                .check_failures
                .push(format!("table_len({table}): {e}")),
        }
    }
    round.check(
        pool.idle_jobs + pool.open_matches + running == pool.submitted - pool.completed,
        || "generator model does not balance".to_string(),
    );
}

/// What a probe reads around one call: two counters, rows read, and the
/// time inside engine statements (`rel_statements` totals).
#[derive(Debug, Clone, Copy, Default)]
struct Reading {
    stmts: f64,
    commits: f64,
    rows_read: f64,
    stmt_us: f64,
}

impl Reading {
    fn take(db: &Database) -> relstore::Result<Reading> {
        // The readings' own statements are left out, so that their time
        // never counts as the probed call's.
        let mut r = Reading::default();
        for v in db
            .session()
            .query("SELECT sql, total_us FROM rel_statements", ())?
            .views()
        {
            if !v.get::<String>("sql")?.contains("FROM rel_") {
                r.stmt_us += v.get::<f64>("total_us")?;
            }
        }
        let stats = db
            .session()
            .query("SELECT name, value FROM rel_stats", ())?;
        for v in stats.views() {
            let value = v.get::<i64>("value")? as f64;
            match v.get::<String>("name")?.as_str() {
                "statements_executed" => r.stmts = value,
                "commits" => r.commits = value,
                "rows_read" => r.rows_read = value,
                _ => {}
            }
        }
        Ok(r)
    }

    fn scaled(self, f: f64) -> Reading {
        Reading {
            stmts: self.stmts * f,
            commits: self.commits * f,
            rows_read: self.rows_read * f,
            stmt_us: self.stmt_us * f,
        }
    }

    fn plus(self, o: Reading) -> Reading {
        Reading {
            stmts: self.stmts + o.stmts,
            commits: self.commits + o.commits,
            rows_read: self.rows_read + o.rows_read,
            stmt_us: self.stmt_us + o.stmt_us,
        }
    }

    fn minus(self, o: Reading) -> Reading {
        self.plus(o.scaled(-1.0))
    }
}

/// Per call kind: calls probed, what they did in the engine, their own time.
#[derive(Debug, Default)]
struct Probe {
    /// What two back-to-back readings see of each other, subtracted from
    /// every probed call.
    floor: Reading,
    by_kind: BTreeMap<&'static str, (f64, Reading, f64)>,
}

impl Probe {
    fn calibrated(db: &Database) -> relstore::Result<Probe> {
        const N: usize = 16;
        let mut total = Reading::default();
        for _ in 0..N {
            let before = Reading::take(db)?;
            total = total.plus(Reading::take(db)?.minus(before));
        }
        // The readings' footprint in the counters is the same whole number
        // every time; only its time is a mean.
        let mean = total.scaled(1.0 / N as f64);
        let floor = Reading {
            stmts: mean.stmts.round(),
            commits: mean.commits.round(),
            rows_read: mean.rows_read.round(),
            stmt_us: mean.stmt_us,
        };
        Ok(Probe {
            floor,
            by_kind: BTreeMap::new(),
        })
    }

    fn file(&mut self, kind: &'static str, seen: Reading, call_us: f64) {
        let e = self.by_kind.entry(kind).or_default();
        e.0 += 1.0;
        e.1 = e.1.plus(seen.minus(self.floor));
        e.2 += call_us;
    }

    /// Files the per-kind means as `probe.<kind>.<what>` extras.
    fn report(self, round: &mut Round) {
        for (kind, (n, total, call_us)) in self.by_kind {
            let mean = total.scaled(1.0 / n);
            for (what, v) in [
                ("stmts", mean.stmts),
                ("commits", mean.commits),
                ("rows_read", mean.rows_read),
                ("self_us", call_us / n - mean.stmt_us),
            ] {
                round.set(&format!("probe.{kind}.{what}"), v);
            }
        }
    }
}
