//! The CAS-level crash matrix: a scripted job lifecycle is driven through
//! the `CasState` service methods over a durable database, and the resulting
//! log is recovered from **every** record boundary and from byte offsets
//! *inside* every record. A service call is one transaction and a
//! transaction is one log frame, so a crash can only ever land *between*
//! calls — a frame that tore is a call that never happened: each prefix
//! must recover exactly the state some whole number of calls left behind —
//! never a job that is `matched` with no match, `running` with no run, or
//! missing from both `jobs` and `job_history`.

use condorj2::{CasState, HeartbeatReply, HeartbeatReport};
use relstore::io::{decode_segment, record_boundaries};
use relstore::wal::LogRecord;
use relstore::{Database, DurabilityPolicy, MemDevice, OpStats};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

type Dump = BTreeMap<&'static str, Vec<String>>;

/// A stable, order-independent fingerprint of every CAS table.
fn dump(db: &Database) -> Dump {
    condorj2::schema::TABLES
        .iter()
        .map(|&t| {
            let q = db.query(&format!("SELECT * FROM {t}")).unwrap();
            let mut rows: Vec<String> = q.rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            (t, rows)
        })
        .collect()
}

/// Committed transactions in a log prefix: its whole `Txn` records.
fn commits_in(bytes: &[u8]) -> usize {
    let mut scratch = OpStats::default();
    decode_segment(bytes, &mut scratch)
        .unwrap()
        .records
        .iter()
        .filter(|r| matches!(r, LogRecord::Txn { .. }))
        .count()
}

fn ints(db: &Database, sql: &str) -> Vec<i64> {
    db.session().query_scalars(sql, ()).unwrap()
}

fn pairs(db: &Database, sql: &str) -> BTreeSet<(i64, i64)> {
    db.session()
        .query_as::<(i64, i64), _, _>(sql, ())
        .unwrap()
        .into_iter()
        .collect()
}

/// What must hold between any two service calls — and therefore after any
/// crash.
fn check_cas_invariants(db: &Database, at: &str) {
    let ids_where = |table: &str, state: &str| -> BTreeSet<i64> {
        let key = if table == "jobs" {
            "job_id"
        } else {
            "machine_id"
        };
        ints(
            db,
            &format!("SELECT {key} FROM {table} WHERE state = '{state}'"),
        )
        .into_iter()
        .collect()
    };
    let matches = pairs(db, "SELECT job_id, machine_id FROM matches");
    let runs = pairs(db, "SELECT job_id, machine_id FROM runs");
    let jobs_of = |s: &BTreeSet<(i64, i64)>| s.iter().map(|p| p.0).collect::<BTreeSet<i64>>();
    let machines_of = |s: &BTreeSet<(i64, i64)>| s.iter().map(|p| p.1).collect::<BTreeSet<i64>>();

    // One tuple per matched / running job, and no job has two.
    assert_eq!(
        matches.len(),
        db.table_len("matches").unwrap(),
        "{at}: duplicate match"
    );
    assert_eq!(
        runs.len(),
        db.table_len("runs").unwrap(),
        "{at}: duplicate run"
    );
    assert_eq!(
        jobs_of(&matches).len(),
        matches.len(),
        "{at}: a job matched twice"
    );
    assert_eq!(
        jobs_of(&runs).len(),
        runs.len(),
        "{at}: a job running twice"
    );

    // state = 'matched' ⇔ one matches row; state = 'running' ⇔ one runs row.
    assert_eq!(
        ids_where("jobs", "matched"),
        jobs_of(&matches),
        "{at}: matched jobs vs matches"
    );
    assert_eq!(
        ids_where("jobs", "running"),
        jobs_of(&runs),
        "{at}: running jobs vs runs"
    );
    // The machine side of each tuple agrees, and every other machine is idle.
    assert_eq!(
        ids_where("machines", "matched"),
        machines_of(&matches),
        "{at}: matched machines"
    );
    assert_eq!(
        ids_where("machines", "running"),
        machines_of(&runs),
        "{at}: running machines"
    );
    assert_eq!(
        ids_where("machines", "idle").len() + matches.len() + runs.len(),
        db.table_len("machines").unwrap(),
        "{at}: every machine is idle, matched or running"
    );

    // Each submitted job is in exactly one of jobs / job_history. Job ids
    // are handed out 1..=n with no gaps, so the two id lists partition that
    // range.
    let mut all = ints(db, "SELECT job_id FROM jobs");
    all.extend(ints(db, "SELECT job_id FROM job_history"));
    all.sort_unstable();
    assert_eq!(
        all,
        (1..=all.len() as i64).collect::<Vec<_>>(),
        "{at}: jobs ∪ job_history"
    );
    let states: BTreeSet<i64> = ["idle", "matched", "running"]
        .iter()
        .flat_map(|s| ids_where("jobs", s))
        .collect();
    assert_eq!(
        states.len(),
        db.table_len("jobs").unwrap(),
        "{at}: a job in an unknown state"
    );
}

/// Drives the lifecycle and returns the dump after every service call
/// (`dumps[k]` = state once `k` calls have committed), the number of commits
/// CAS start-up (schema + default policies) put on the log before the first
/// call, and the final log bytes.
fn run_lifecycle() -> (Vec<Dump>, usize, Vec<u8>) {
    let db = Arc::new(
        Database::open_with_device(Box::new(MemDevice::new()), DurabilityPolicy::Always).unwrap(),
    );
    let mut cas = CasState::new(Arc::clone(&db)).unwrap();
    let startup_commits = commits_in(&db.durable_log_bytes().unwrap());
    let dumps = std::cell::RefCell::new(vec![dump(&db)]);
    // Every call must put exactly one record on the log.
    let called = |what: &str| {
        dumps.borrow_mut().push(dump(&db));
        assert_eq!(
            commits_in(&db.durable_log_bytes().unwrap()),
            startup_commits + dumps.borrow().len() - 1,
            "{what} must commit exactly once"
        );
        check_cas_invariants(&db, what);
    };

    for m in 1..=3i64 {
        cas.now_ms += 10;
        cas.register_machine(m, &format!("vm{m}"), 1.0, m, 2048)
            .unwrap();
        called("registerMachine");
    }
    for owner in ["alice", "bob", "alice", "carol"] {
        cas.now_ms += 10;
        cas.submit_job(owner, 60_000).unwrap();
        called("submitJob");
    }
    cas.now_ms += 10;
    assert_eq!(cas.run_scheduler().unwrap(), 3);
    called("scheduler pass");

    // Every machine learns of its match and accepts it.
    let mut job_on = BTreeMap::new();
    for m in 1..=3i64 {
        cas.now_ms += 10;
        let HeartbeatReply::MatchInfo { job_id } = cas.heartbeat(m, HeartbeatReport::Idle).unwrap()
        else {
            panic!("machine {m} has a match");
        };
        called("idle heartbeat");
        cas.now_ms += 10;
        cas.accept_match(m, job_id).unwrap();
        called("acceptMatch");
        job_on.insert(m, job_id);
    }
    for (&m, &job_id) in &job_on {
        cas.now_ms += 10;
        cas.heartbeat(m, HeartbeatReport::Running { job_id })
            .unwrap();
        called("running heartbeat");
    }
    // One completes, one is dropped and requeued, one keeps running.
    cas.now_ms += 10;
    cas.heartbeat(1, HeartbeatReport::Completed { job_id: job_on[&1] })
        .unwrap();
    called("completed heartbeat");
    cas.now_ms += 10;
    cas.heartbeat(2, HeartbeatReport::Failed { job_id: job_on[&2] })
        .unwrap();
    called("failed heartbeat");

    // A faulted call in the middle: it must leave neither state nor a
    // byte of log behind.
    let log_before = db.durable_log_bytes().unwrap();
    assert!(cas.accept_match(1, 999).is_err());
    assert!(cas
        .heartbeat(1, HeartbeatReport::Completed { job_id: 999 })
        .is_err());
    assert_eq!(
        Some(&dump(&db)),
        dumps.borrow().last(),
        "a faulted call changes nothing"
    );
    db.flush_log().unwrap();
    assert_eq!(
        db.durable_log_bytes().unwrap(),
        log_before,
        "a faulted call logs nothing"
    );

    // The requeued job and the fourth one go round again, to completion.
    cas.now_ms += 10;
    assert_eq!(cas.run_scheduler().unwrap(), 2);
    called("second scheduler pass");
    for m in [1i64, 2] {
        cas.now_ms += 10;
        let HeartbeatReply::MatchInfo { job_id } = cas.heartbeat(m, HeartbeatReport::Idle).unwrap()
        else {
            panic!("machine {m} has a match");
        };
        called("idle heartbeat");
        cas.now_ms += 10;
        cas.accept_match(m, job_id).unwrap();
        called("acceptMatch");
        cas.now_ms += 10;
        cas.heartbeat(m, HeartbeatReport::Completed { job_id })
            .unwrap();
        called("completed heartbeat");
    }
    cas.now_ms += 10;
    cas.set_config("scheduler", "priority").unwrap();
    called("setConfig");

    assert_eq!(db.table_len("job_history").unwrap(), 3);
    assert_eq!(db.table_len("runs").unwrap(), 1);
    db.flush_log().unwrap();
    let bytes = db.durable_log_bytes().unwrap();
    (dumps.into_inner(), startup_commits, bytes)
}

#[test]
fn every_log_prefix_recovers_a_whole_number_of_service_calls() {
    let (dumps, startup_commits, bytes) = run_lifecycle();
    let boundaries = record_boundaries(&bytes).unwrap();
    assert_eq!(
        commits_in(&bytes),
        startup_commits + dumps.len() - 1,
        "one commit per service call on the log"
    );
    eprintln!(
        "CAS crash matrix: {} byte log, {} boundary prefixes, {} start-up commits, {} calls",
        bytes.len(),
        boundaries.len(),
        startup_commits,
        dumps.len() - 1
    );

    // Atomicity is by frame. Every byte prefix decodes to the whole frames
    // before the cut, with exactly the bytes past the last one to truncate…
    for cut in boundaries[0] as usize..=bytes.len() {
        let whole = boundaries.iter().rposition(|&b| b as usize <= cut).unwrap();
        let mut scratch = OpStats::default();
        let seg = decode_segment(&bytes[..cut], &mut scratch).unwrap();
        assert_eq!(seg.records.len(), whole, "cut {cut}");
        assert_eq!(seg.truncated_bytes, cut as u64 - boundaries[whole], "cut {cut}");
    }

    // …and recovery from every boundary, and from the first, middle and
    // last byte inside the frame that follows it, is the state at that
    // boundary: the torn call never happened.
    let mut checked = 0usize;
    for (i, &b) in boundaries.iter().enumerate() {
        let frame = boundaries.get(i + 1).map_or(0, |next| (next - b) as usize);
        let mut torn = vec![0, 1, frame / 2, frame.saturating_sub(1)];
        torn.retain(|&d| d == 0 || d < frame);
        torn.dedup();
        for d in torn {
            let at = format!("boundary {b} + {d} torn byte(s)");
            let prefix = bytes[..b as usize + d].to_vec();
            let commits = commits_in(&prefix);
            let db = Database::open_with_device(
                Box::new(MemDevice::with_contents(prefix)),
                DurabilityPolicy::Always,
            )
            .unwrap_or_else(|e| panic!("recovery failed at {at}: {e}"));
            db.check_consistency().unwrap();
            assert_eq!(db.stats().recovery_truncated_bytes, d as u64, "{at}");
            // A crash during CAS start-up recovers a whole number of its
            // start-up transactions (the schema is one of them); the next
            // start redeploys the rest. The matrix proper starts once the
            // CAS was up.
            let Some(calls) = commits.checked_sub(startup_commits) else {
                continue;
            };
            assert_eq!(
                dump(&db),
                dumps[calls],
                "{at}: recovered state must equal the state after exactly {calls} calls"
            );
            check_cas_invariants(&db, &at);
            checked += 1;
        }
    }
    assert_eq!(
        checked,
        dumps.len() + 3 * (dumps.len() - 1),
        "every call boundary, and three cuts inside every call's frame"
    );
}

/// The point of recovering: a CAS restarted over any crash state keeps
/// serving, without colliding with the ids its previous life handed out.
#[test]
fn a_cas_restarted_over_any_call_boundary_finishes_the_work() {
    let (dumps, startup_commits, bytes) = run_lifecycle();
    let boundaries = record_boundaries(&bytes).unwrap();
    // One prefix per call boundary: the shortest one holding that many commits.
    let mut seen = BTreeSet::new();
    for &b in &boundaries {
        let prefix = bytes[..b as usize].to_vec();
        let Some(calls) = commits_in(&prefix).checked_sub(startup_commits) else {
            continue;
        };
        if !seen.insert(calls) {
            continue;
        }
        let db = Arc::new(
            Database::open_with_device(
                Box::new(MemDevice::with_contents(prefix)),
                DurabilityPolicy::Always,
            )
            .unwrap(),
        );
        let mut cas = CasState::new(Arc::clone(&db)).unwrap();
        let at = format!("restart after {calls} calls");
        // Add one job (and a machine, if the crash predates the first
        // registration), then poll until the queue drains.
        let extra = cas
            .submit_job("dave", 1_000)
            .unwrap_or_else(|e| panic!("{at}: {e}"));
        if db.table_len("machines").unwrap() == 0 {
            cas.register_machine(1, "vm1", 1.0, 1, 2048).unwrap();
        }
        let machines = ints(&db, "SELECT machine_id FROM machines");
        for round in 0.. {
            assert!(round < 20, "{at}: queue did not drain");
            // A machine still matched or running from before the crash
            // reports in; the startd's side of the protocol is replayed
            // from the database's view of it.
            for (job_id, m) in pairs(&db, "SELECT job_id, machine_id FROM runs") {
                cas.heartbeat(m, HeartbeatReport::Completed { job_id })
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
            }
            cas.run_scheduler().unwrap_or_else(|e| panic!("{at}: {e}"));
            for &m in &machines {
                if let HeartbeatReply::MatchInfo { job_id } =
                    cas.heartbeat(m, HeartbeatReport::Idle).unwrap()
                {
                    cas.accept_match(m, job_id)
                        .unwrap_or_else(|e| panic!("{at}: {e}"));
                }
            }
            check_cas_invariants(&db, &at);
            if db.table_len("jobs").unwrap() == 0 {
                break;
            }
        }
        let done = ints(&db, "SELECT job_id FROM job_history");
        assert!(done.contains(&extra), "{at}: the new job completed");
        assert_eq!(done.len(), extra as usize, "{at}: every job completed once");
        db.check_consistency().unwrap();
    }
    assert_eq!(
        seen.len(),
        dumps.len(),
        "every call boundary was restarted from"
    );
}
