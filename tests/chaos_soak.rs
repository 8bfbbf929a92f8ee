//! Seeded whole-stack chaos soak: a durable database served over TCP under
//! mixed hostile traffic — committers transferring money, scanners checking
//! the conserved sum, abandoners going silent mid-transaction, peers
//! disconnecting mid-frame — while WAL failpoints fire and the process
//! "crashes" (drop without checkpoint) and recovers between rounds.
//!
//! Invariants, asserted every round from a fixed seed:
//!
//! * **Zero panics** anywhere in the stack (a thread panic fails the test).
//! * **Conserved transfer sum**: `SUM(balance)` equals the opening total on
//!   every successful read and after every crash recovery — transfers are
//!   atomic in memory, on the wire, and through the log.
//! * **Bounded horizon lag**: once the round's traffic stops and the reaper
//!   runs, nothing pins the vacuum horizon (`horizon_lag() == 0`).
//! * **Every error is typed**: clients may see timeouts, lock waits, budget
//!   refusals, transport and IO failures — but never `Error::Internal` and
//!   never `Error::Corruption`.
//! * **Observability stays honest**: the system tables answer SQL mid-fault
//!   (a monitor client polls them through the chaos), every counted
//!   statement leaves exactly one histogram sample, and no counter moves
//!   backwards within a round (gauges exempt).
//!
//! The default run is a short smoke (a few seconds). `CHAOS_SEED=<n>`
//! reproduces a failing run exactly; `CHAOS_SECS=<n>` extends the soak.

use relstore::io::points;
use relstore::{Database, Error, FailAction, OpStats};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wire::{serve_with, Client, ServerConfig};

const ACCOUNTS: i64 = 16;
const OPENING: i64 = 1_000;
const TOTAL: i64 = ACCOUNTS * OPENING;

/// SplitMix64: tiny, seedable, and good enough to drive chaos decisions
/// deterministically without pulling in a dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Fails the test on the two error shapes that must never surface: the
/// engine's internal-bug catch-all and log corruption. Everything else —
/// timeouts, lock waits, budget refusals, transport and IO failures — is
/// expected weather in a chaos run.
fn assert_typed(e: &Error, who: &str, seed: u64) {
    assert!(
        !matches!(e, Error::Internal(_) | Error::Corruption(_)),
        "{who} saw a forbidden error (seed {seed}): {e}"
    );
}

/// A monitoring client: polls the observability system tables over the wire
/// while the chaos runs. The tables must stay queryable mid-fault — typed
/// errors are expected weather, wrong shapes and forbidden errors are not.
fn monitor(addr: std::net::SocketAddr, stop: &AtomicBool, seed: u64, good: &AtomicU64) {
    let Ok(mut client) = Client::connect(addr) else { return };
    let queries = [
        "SELECT name, kind, value FROM rel_stats",
        "SELECT name, count, p99_us FROM rel_histograms",
        "SELECT seq, kind, duration_us, lock_wait_us FROM rel_slow_queries",
    ];
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let sql = queries[i % queries.len()];
        i += 1;
        match client.query(sql, ()) {
            Ok(r) => {
                if sql.contains("rel_stats") {
                    assert!(!r.rows.is_empty(), "rel_stats came back empty (seed {seed})");
                }
                good.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => assert_typed(&e, "monitor", seed),
        }
        if client.is_broken() {
            match Client::connect(addr) {
                Ok(c) => client = c,
                Err(_) => return,
            }
        }
        std::thread::sleep(Duration::from_millis(3));
    }
}

/// Observability invariants at the round's quiesce point (traffic stopped,
/// workers joined): every statement the engine counted left exactly one
/// histogram sample, and no counter moved backwards since the post-recovery
/// baseline — gauges (high-water marks) are exempt.
fn assert_obs_invariants(db: &Database, baseline: &OpStats, rounds: u32, seed: u64) {
    let now = db.stats();
    assert_eq!(
        db.obs().histograms.statement_total(),
        now.statements_executed,
        "round {rounds}: histogram samples diverged from statements_executed (seed {seed})"
    );
    for ((name, before), (after_name, after)) in
        baseline.fields().into_iter().zip(now.fields())
    {
        assert_eq!(name, after_name, "OpStats field order is stable");
        if OpStats::is_gauge(name) {
            continue;
        }
        assert!(
            after >= before,
            "round {rounds}: counter {name} went backwards {before} -> {after} (seed {seed})"
        );
    }
}

fn bank_sum(db: &Database) -> i64 {
    db.session()
        .query_scalars::<i64, _, _>("SELECT SUM(balance) AS s FROM accounts", ())
        .unwrap()[0]
}

fn committer(addr: std::net::SocketAddr, stop: &AtomicBool, mut rng: Rng, seed: u64, commits: &AtomicU64) {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => return,
    };
    while !stop.load(Ordering::Relaxed) {
        let from = rng.below(ACCOUNTS as u64) as i64;
        let to = rng.below(ACCOUNTS as u64) as i64;
        let amount = 1 + rng.below(7) as i64;
        let res = client.with_retries_deadline(8, Duration::from_millis(120), |c| {
            let mut txn = c.transaction()?;
            txn.execute(
                "UPDATE accounts SET balance = balance - ? WHERE id = ?",
                (amount, from),
            )?;
            txn.execute(
                "UPDATE accounts SET balance = balance + ? WHERE id = ?",
                (amount, to),
            )?;
            txn.commit()
        });
        match res {
            Ok(()) => {
                commits.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => assert_typed(&e, "committer", seed),
        }
        if client.is_broken() {
            match Client::connect(addr) {
                Ok(c) => client = c,
                Err(_) => return,
            }
        }
    }
}

fn scanner(addr: std::net::SocketAddr, stop: &AtomicBool, seed: u64, good_reads: &AtomicU64) {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => return,
    };
    client.set_statement_deadline(Some(Duration::from_millis(500)));
    while !stop.load(Ordering::Relaxed) {
        match client.query_scalars::<i64, _, _>("SELECT SUM(balance) AS s FROM accounts", ()) {
            Ok(sums) => {
                assert_eq!(
                    sums,
                    vec![TOTAL],
                    "scanner observed a torn transfer (seed {seed})"
                );
                good_reads.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => assert_typed(&e, "scanner", seed),
        }
        if client.is_broken() {
            match Client::connect(addr) {
                Ok(c) => client = c,
                Err(_) => return,
            }
        }
    }
}

/// Opens a transaction, grabs the table lock, and goes silent with the
/// socket held open — the exact shape only the idle-*transaction* reaper
/// (not the dead-socket reaper) can clean up.
fn abandoner(addr: std::net::SocketAddr, stop: &AtomicBool, mut rng: Rng, seed: u64) {
    while !stop.load(Ordering::Relaxed) {
        let Ok(mut client) = Client::connect(addr) else { return };
        let id = rng.below(ACCOUNTS as u64) as i64;
        let res = client
            .begin()
            .and_then(|()| client.execute("UPDATE accounts SET balance = balance - 1 WHERE id = ?", (id,)))
            .map(|_| ());
        if let Err(e) = res {
            assert_typed(&e, "abandoner", seed);
        }
        // Silence. The server must abort the transaction, undo the
        // one-sided debit and free the lock while this socket stays open.
        let nap = 60 + rng.below(80);
        let until = Instant::now() + Duration::from_millis(nap);
        while Instant::now() < until && !stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Dropping the client sends a best-effort Rollback — harmless if
        // the reaper already aborted the transaction server-side.
    }
}

/// Connects, completes the handshake, then violates the framing protocol:
/// announces a frame and vanishes mid-payload, or sprays garbage. The
/// server must fail the connection cleanly without pinning a worker.
fn disconnector(addr: std::net::SocketAddr, stop: &AtomicBool, mut rng: Rng) {
    while !stop.load(Ordering::Relaxed) {
        let Ok(mut stream) = TcpStream::connect(addr) else { return };
        let _ = wire::protocol::write_hello(&mut stream);
        let _ = wire::protocol::read_handshake_response(&mut stream);
        match rng.below(3) {
            // Announce 64 KiB, deliver 3 bytes, vanish mid-frame.
            0 => {
                let _ = stream.write_all(&(65_536u32).to_le_bytes());
                let _ = stream.write_all(&[1, 2, 3]);
            }
            // A well-formed frame of garbage: decodes to a protocol error.
            1 => {
                let _ = stream.write_all(&(4u32).to_le_bytes());
                let _ = stream.write_all(&[0xFF, 0xFF, 0xFF, 0xFF]);
            }
            // Vanish right after the handshake.
            _ => {}
        }
        drop(stream);
        std::thread::sleep(Duration::from_millis(rng.below(20)));
    }
}

/// Arms one random WAL failpoint partway through the round. A sync error
/// poisons the log writer (all later commits fail typed `Error::Io` until
/// the crash/reopen), short and torn writes exercise recovery truncation,
/// and `Crash` kills the device at the durability barrier.
fn saboteur(db: &Database, stop: &AtomicBool, mut rng: Rng) {
    let delay = Duration::from_millis(30 + rng.below(120));
    let until = Instant::now() + delay;
    while Instant::now() < until {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let (point, action) = match rng.below(4) {
        0 => (points::WAL_SYNC, FailAction::Err),
        1 => (points::WAL_APPEND, FailAction::ShortWrite(rng.below(24) as usize)),
        2 => (points::WAL_APPEND, FailAction::TornWrite(rng.below(40) as usize)),
        _ => (points::WAL_SYNC, FailAction::Crash),
    };
    db.failpoints().arm(point, action);
}

#[test]
fn chaos_soak_conserves_money_through_faults_and_crashes() {
    let seed = env_u64("CHAOS_SEED", 0xC1D2_2007_D0B2);
    let soak = Duration::from_secs(env_u64("CHAOS_SECS", 4));
    // Captured output only surfaces on failure — exactly when the seed is
    // needed to reproduce the run.
    println!("chaos soak: CHAOS_SEED={seed} CHAOS_SECS={}", soak.as_secs());
    let mut rng = Rng(seed);

    let path = std::env::temp_dir().join(format!(
        "relstore_chaos_{}_{seed:x}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    // Seed the bank, then "crash" (drop with no checkpoint): round 1 starts
    // with a real recovery.
    {
        let db = Database::open_durable(&path).unwrap();
        db.execute("CREATE TABLE accounts (id INT PRIMARY KEY, balance INT)").unwrap();
        let ins = db.prepare("INSERT INTO accounts VALUES (?, ?)").unwrap();
        db.session()
            .execute_batch(&ins, (0..ACCOUNTS).map(|id| (id, OPENING)))
            .unwrap();
    }

    let deadline = Instant::now() + soak;
    let total_commits = AtomicU64::new(0);
    let total_reads = AtomicU64::new(0);
    let total_obs_reads = AtomicU64::new(0);
    let mut total_reaped = 0u64;
    let mut rounds = 0u32;
    loop {
        rounds += 1;

        // Crash recovery: whatever last round's faults did to the log tail,
        // the committed prefix must reconstruct a consistent bank with the
        // full sum.
        let db = Arc::new(Database::open_durable(&path).unwrap_or_else(|e| {
            panic!("round {rounds}: recovery failed (seed {seed}): {e}")
        }));
        db.check_consistency()
            .unwrap_or_else(|e| panic!("round {rounds}: inconsistent after recovery (seed {seed}): {e}"));
        assert_eq!(
            bank_sum(&db),
            TOTAL,
            "round {rounds}: money not conserved through crash recovery (seed {seed})"
        );
        if Instant::now() >= deadline {
            let _ = std::fs::remove_file(&path);
            break;
        }

        let server = serve_with(
            Arc::clone(&db),
            "127.0.0.1:0",
            ServerConfig {
                workers: 6,
                max_connections: 32,
                poll_interval: Duration::from_millis(5),
                statement_deadline: Some(Duration::from_secs(2)),
                lock_wait_timeout: Duration::from_millis(25),
                idle_txn_timeout: Some(Duration::from_millis(40)),
                reap_interval: Duration::from_millis(10),
                // Arm the slow-query ring: under a 25 ms lock-wait budget
                // plenty of statements cross 5 ms, so the monitor reads a
                // live ring, not an empty one.
                slow_query_threshold: Some(Duration::from_millis(5)),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let obs_baseline = db.stats();

        let round_ms = 150 + rng.below(250);
        let fault_round = rng.chance(50);
        let stop = AtomicBool::new(false);
        let mut seeds = [0u64; 8];
        for s in &mut seeds {
            *s = rng.next();
        }

        std::thread::scope(|s| {
            let stop = &stop;
            let commits = &total_commits;
            let reads = &total_reads;
            let obs = &total_obs_reads;
            s.spawn(move || committer(addr, stop, Rng(seeds[0]), seed, commits));
            s.spawn(move || committer(addr, stop, Rng(seeds[1]), seed, commits));
            s.spawn(move || scanner(addr, stop, seed, reads));
            s.spawn(move || abandoner(addr, stop, Rng(seeds[2]), seed));
            s.spawn(move || disconnector(addr, stop, Rng(seeds[3])));
            s.spawn(move || monitor(addr, stop, seed, obs));
            let dbref = &db;
            if fault_round {
                s.spawn(move || saboteur(dbref, stop, Rng(seeds[4])));
            }
            std::thread::sleep(Duration::from_millis(round_ms));
            stop.store(true, Ordering::SeqCst);
            // The scope joins every thread here; any panic in any of them
            // (including inside the server's workers via a poisoned
            // invariant) propagates and fails the test.
        });
        server.shutdown();
        assert_obs_invariants(&db, &obs_baseline, rounds, seed);

        // With traffic stopped and connections rolled back, nothing may pin
        // the vacuum horizon: reap whatever straggles and demand lag zero.
        db.reap_idle(Duration::ZERO);
        assert_eq!(
            db.horizon_lag(),
            0,
            "round {rounds}: something still pins the vacuum horizon (seed {seed})"
        );
        db.vacuum_all();
        db.check_consistency()
            .unwrap_or_else(|e| panic!("round {rounds}: inconsistent after round (seed {seed}): {e}"));
        assert_eq!(
            bank_sum(&db),
            TOTAL,
            "round {rounds}: money not conserved in memory (seed {seed})"
        );
        total_reaped += db.stats().txns_reaped;

        // An unpoisoned log occasionally checkpoints, so recovery cost
        // stays bounded and the checkpoint path is part of the chaos too.
        if !fault_round && rng.chance(50) {
            let _ = db.checkpoint();
        }
        // "Crash": the Arc drops with no shutdown ceremony; the next round
        // recovers from whatever the file holds.
        drop(db);
    }

    let commits = total_commits.load(Ordering::Relaxed);
    let reads = total_reads.load(Ordering::Relaxed);
    let obs_reads = total_obs_reads.load(Ordering::Relaxed);
    println!(
        "chaos soak: {rounds} round(s), {commits} commit(s), {reads} invariant read(s), \
         {obs_reads} system-table read(s), {total_reaped} txn(s) reaped"
    );
    assert!(rounds >= 2, "the soak must complete at least one full round");
    assert!(commits > 0, "committers made no progress at all (seed {seed})");
    assert!(reads > 0, "scanners made no progress at all (seed {seed})");
    assert!(
        obs_reads > 0,
        "the system-table monitor made no progress at all (seed {seed})"
    );
    assert!(
        total_reaped > 0,
        "abandoners ran but the reaper never fired (seed {seed})"
    );
}
