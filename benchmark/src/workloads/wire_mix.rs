//! `wire_mix`: the 3-tier hop. An in-memory CAS database behind
//! `wire::serve_with` on loopback, driven by **two** `Client` connections
//! (this host has two cores; a single loopback connection is bimodal by
//! core placement, two repeat) that own disjoint machine ranges and run a
//! seeded mix of the CAS's hot statements:
//!
//! * 45 % prepared point `UPDATE machines SET last_heartbeat`,
//! * 45 % prepared point `SELECT last_heartbeat`,
//! * 4 % 64-binding `execute_batch`, 4 % 64-binding `query_batch`,
//! * 2 % 1,000-row `SELECT *` streams.
//!
//! Closed loop: each connection waits for every reply, and every value read
//! is checked against what that connection last wrote. Two writers on one
//! table also surface table-lock waits. The `Direct` flavour runs the same
//! two streams through embedded `Session`s; the difference in point latency
//! is the wire layer's own time.

use crate::engine::Snapshot;
use crate::host;
use crate::rng::{Deck, Rng, StreamHash};
use crate::round::{Flavour, Measured, Meter, Round, RoundCtx, SetupClock, Tally};
use crate::trace::Tracer;
use condorj2::CasState;
use relstore::{Database, Prepared};
use std::sync::{Arc, Barrier};
use std::time::Instant;
use wire::{Client, RemoteStatement, ServerConfig};

const CONNECTIONS: usize = 2;
const MACHINES_PER_CONN: i64 = 1_000;
const BATCH: usize = 64;
/// Round trips per connection per round at scale 1.
const OPS_PER_CONN: u64 = 12_000;

const SQL_UPDATE: &str = "UPDATE machines SET last_heartbeat = ? WHERE machine_id = ?";
const SQL_SELECT: &str = "SELECT last_heartbeat FROM machines WHERE machine_id = ?";
const SQL_STREAM: &str =
    "SELECT * FROM machines WHERE machine_id >= ? AND machine_id < ? ORDER BY machine_id";
const SQL_INSERT: &str =
    "INSERT INTO machines (machine_id, name, state, speed, phys_id, last_heartbeat) \
                          VALUES (?, ?, 'idle', 1.0, ?, 0)";

/// The five things a connection does, over the socket or embedded.
trait Conn {
    fn update(&mut self, id: i64, value: i64) -> relstore::Result<usize>;
    fn select(&mut self, id: i64) -> relstore::Result<Option<i64>>;
    fn batch_update(&mut self, bindings: Vec<(i64, i64)>) -> relstore::Result<usize>;
    fn batch_select(&mut self, ids: Vec<(i64,)>) -> relstore::Result<Vec<Option<i64>>>;
    /// `(machine_id, last_heartbeat)` of every machine in `[lo, hi)`.
    fn stream(&mut self, lo: i64, hi: i64) -> relstore::Result<Vec<(i64, i64)>>;
}

fn decode_stream(rows: &relstore::QueryResult) -> relstore::Result<Vec<(i64, i64)>> {
    rows.views()
        .map(|v| Ok((v.get("machine_id")?, v.get("last_heartbeat")?)))
        .collect()
}

struct Remote {
    client: Client,
    update: RemoteStatement,
    select: RemoteStatement,
    stream: RemoteStatement,
}

impl Remote {
    fn connect(addr: std::net::SocketAddr) -> relstore::Result<Remote> {
        let mut client = Client::connect(addr)?;
        Ok(Remote {
            update: client.prepare(SQL_UPDATE)?,
            select: client.prepare(SQL_SELECT)?,
            stream: client.prepare(SQL_STREAM)?,
            client,
        })
    }
}

impl Conn for Remote {
    fn update(&mut self, id: i64, value: i64) -> relstore::Result<usize> {
        Ok(self.client.execute(self.update, (value, id))?.affected())
    }
    fn select(&mut self, id: i64) -> relstore::Result<Option<i64>> {
        Ok(self
            .client
            .query_scalars(self.select, (id,))?
            .into_iter()
            .next())
    }
    fn batch_update(&mut self, bindings: Vec<(i64, i64)>) -> relstore::Result<usize> {
        self.client.execute_batch(self.update, bindings)
    }
    fn batch_select(&mut self, ids: Vec<(i64,)>) -> relstore::Result<Vec<Option<i64>>> {
        let results = self.client.query_batch(self.select, ids)?;
        Ok(results.iter().map(|r| r.scalar_int()).collect())
    }
    fn stream(&mut self, lo: i64, hi: i64) -> relstore::Result<Vec<(i64, i64)>> {
        decode_stream(&self.client.query(self.stream, (lo, hi))?)
    }
}

struct Embedded {
    db: Arc<Database>,
    update: Prepared,
    select: Prepared,
    stream: Prepared,
}

impl Embedded {
    fn open(db: &Arc<Database>) -> relstore::Result<Embedded> {
        Ok(Embedded {
            update: db.prepare(SQL_UPDATE)?,
            select: db.prepare(SQL_SELECT)?,
            stream: db.prepare(SQL_STREAM)?,
            db: Arc::clone(db),
        })
    }
}

impl Conn for Embedded {
    fn update(&mut self, id: i64, value: i64) -> relstore::Result<usize> {
        // Two embedded writers collide on the table lock where the server
        // would wait; retry like any embedded writer does.
        let (db, stmt) = (&self.db, &self.update);
        Ok(db
            .session()
            .with_retries(64, |s| s.execute(stmt, (value, id)))?
            .affected())
    }
    fn select(&mut self, id: i64) -> relstore::Result<Option<i64>> {
        Ok(self
            .db
            .session()
            .query_scalars(&self.select, (id,))?
            .into_iter()
            .next())
    }
    fn batch_update(&mut self, bindings: Vec<(i64, i64)>) -> relstore::Result<usize> {
        let (db, stmt) = (&self.db, &self.update);
        db.session()
            .with_retries(64, |s| s.execute_batch(stmt, bindings.clone()))
    }
    fn batch_select(&mut self, ids: Vec<(i64,)>) -> relstore::Result<Vec<Option<i64>>> {
        let results = self.db.session().query_batch(&self.select, ids)?;
        Ok(results.iter().map(|r| r.scalar_int()).collect())
    }
    fn stream(&mut self, lo: i64, hi: i64) -> relstore::Result<Vec<(i64, i64)>> {
        decode_stream(&self.db.session().query(&self.stream, (lo, hi))?)
    }
}

/// What one connection's thread brings back.
struct ConnResult {
    measured: Measured,
    tracer: Tracer,
    /// What the connection last wrote to each of its machines.
    model: Vec<i64>,
    tally: Tally,
    hash: u64,
}

/// Runs one connection's seeded stream of `ops` round trips.
fn drive(
    conn: &mut dyn Conn,
    index: usize,
    seed: u64,
    ops: u64,
    mut tracer: Tracer,
    start: &Barrier,
) -> ConnResult {
    let base = index as i64 * MACHINES_PER_CONN;
    let mut model = vec![0i64; MACHINES_PER_CONN as usize];
    let mut rng = Rng::new(seed).fork(0x317E + index as u64);
    let mut hash = StreamHash::default();
    let mut tally = Tally::default();
    let mut next_value = 1i64;
    // point UPDATE, point SELECT, batch UPDATE, batch SELECT, stream — per
    // hundred round trips.
    let mut deck = Deck::new(&[45, 45, 4, 4, 2]);
    let phase = tracer.begin("connection", 0, index as u32);
    start.wait();
    let mut meter = Meter::new(
        &mut tracer,
        phase,
        &[
            ("rtt", ops as usize),
            ("batch", ops as usize / 8),
            ("stream", ops as usize / 30),
        ],
    );
    for _ in 0..ops {
        let class = deck.draw(&mut rng);
        let slot = rng.below(MACHINES_PER_CONN as u64) as usize;
        hash.push((class as u64) << 32 | slot as u64);
        // 64 distinct machines starting at `slot`, wrapping.
        let batch_slots = || -> Vec<usize> {
            (0..BATCH)
                .map(|i| (slot + i * 7) % MACHINES_PER_CONN as usize)
                .collect()
        };
        if class == 0 {
            let value = next_value;
            next_value += 1;
            let t0 = Instant::now();
            let r = conn.update(base + slot as i64, value);
            meter.record("rtt", t0, Instant::now());
            match r {
                Ok(1) => model[slot] = value,
                Ok(n) => tally.wrong(format!("point UPDATE touched {n} rows")),
                Err(e) => tally.failed(format!("point UPDATE: {e}")),
            }
        } else if class == 1 {
            let t0 = Instant::now();
            let r = conn.select(base + slot as i64);
            meter.record("rtt", t0, Instant::now());
            match r {
                Ok(Some(v)) if v == model[slot] => {}
                Ok(v) => tally.wrong(format!(
                    "machine {} reads {v:?}, last written {}",
                    base + slot as i64,
                    model[slot]
                )),
                Err(e) => tally.failed(format!("point SELECT: {e}")),
            }
        } else if class == 2 {
            let slots = batch_slots();
            let bindings: Vec<(i64, i64)> = slots
                .iter()
                .enumerate()
                .map(|(i, s)| (next_value + i as i64, base + *s as i64))
                .collect();
            let t0 = Instant::now();
            let r = conn.batch_update(bindings);
            meter.record("batch", t0, Instant::now());
            match r {
                Ok(n) if n == BATCH => {
                    for (i, s) in slots.iter().enumerate() {
                        model[*s] = next_value + i as i64;
                    }
                }
                Ok(n) => tally.wrong(format!("batch UPDATE touched {n} rows")),
                Err(e) => tally.failed(format!("batch UPDATE: {e}")),
            }
            next_value += BATCH as i64;
        } else if class == 3 {
            let slots = batch_slots();
            let ids: Vec<(i64,)> = slots.iter().map(|s| (base + *s as i64,)).collect();
            let t0 = Instant::now();
            let r = conn.batch_select(ids);
            meter.record("batch", t0, Instant::now());
            match r {
                Ok(values) => {
                    let ok = values.len() == BATCH
                        && values
                            .iter()
                            .zip(&slots)
                            .all(|(v, s)| *v == Some(model[*s]));
                    if !ok {
                        tally.wrong("batch SELECT disagrees with the last writes".into());
                    }
                }
                Err(e) => tally.failed(format!("batch SELECT: {e}")),
            }
        } else {
            let t0 = Instant::now();
            let r = conn.stream(base, base + MACHINES_PER_CONN);
            meter.record("stream", t0, Instant::now());
            match r {
                Ok(rows) => {
                    let ok = rows.len() == MACHINES_PER_CONN as usize
                        && rows
                            .iter()
                            .enumerate()
                            .all(|(i, (id, hb))| *id == base + i as i64 && *hb == model[i]);
                    if !ok {
                        tally.wrong("1,000-row stream disagrees with the last writes".into());
                    }
                }
                Err(e) => tally.failed(format!("stream: {e}")),
            }
        }
    }
    let measured = meter.finish();
    tracer.end(phase);
    ConnResult {
        measured,
        tracer,
        model,
        tally,
        hash: hash.value(),
    }
}

pub fn round(ctx: &mut RoundCtx<'_>) -> Result<Round, String> {
    let mut round = Round {
        flavour: ctx.flavour,
        op_kinds: vec!["rtt", "batch", "stream"],
        light: "rtt",
        heavy: "stream",
        ..Round::default()
    };
    let ops = (OPS_PER_CONN / ctx.scale).max(200);
    let rel = |e: relstore::Error| e.to_string();

    // --- setup: schema, 2 × 1,000 machines, server start, connect, prepare.
    let phase = ctx.tracer.begin("setup", ctx.parent, 0);
    let setup = SetupClock::start();
    let db = Arc::new(Database::new());
    drop(CasState::new(Arc::clone(&db)).map_err(rel)?);
    let insert = db.prepare(SQL_INSERT).map_err(rel)?;
    let machines = CONNECTIONS as i64 * MACHINES_PER_CONN;
    db.session()
        .execute_batch(
            &insert,
            (0..machines).map(|id| (id, format!("vm{}@node{}", id % 4, id / 4), id / 4)),
        )
        .map_err(rel)?;
    let mut server = None;
    let mut connect_us = 0.0;
    let mut conns: Vec<Box<dyn Conn + Send>> = Vec::new();
    if ctx.flavour == Flavour::Direct {
        for _ in 0..CONNECTIONS {
            conns.push(Box::new(Embedded::open(&db).map_err(rel)?));
        }
    } else {
        let config = ServerConfig {
            workers: CONNECTIONS,
            ..ServerConfig::default()
        };
        let handle = wire::serve_with(Arc::clone(&db), "127.0.0.1:0", config).map_err(rel)?;
        let t_connect = Instant::now();
        for _ in 0..CONNECTIONS {
            conns.push(Box::new(Remote::connect(handle.local_addr()).map_err(rel)?));
        }
        connect_us = t_connect.elapsed().as_secs_f64() * 1e6 / CONNECTIONS as f64;
        server = Some(handle);
    }
    setup.stop(&mut round);
    round.set("connect_us", connect_us);
    ctx.tracer.end(phase);

    // --- measure: both connections run their streams side by side.
    let before = if ctx.flavour.traced() {
        Some(Snapshot::before(&db).map_err(rel)?)
    } else {
        None
    };
    let net0 = server.as_ref().map(|s| s.stats().fields());
    let phase = ctx.tracer.begin("measure", ctx.parent, 0);
    let start = Barrier::new(CONNECTIONS);
    let cpu0 = host::cpu_seconds();
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let tracer = ctx.tracer.child((ctx.index * CONNECTIONS + i) as u32);
                let (start, seed) = (&start, ctx.seed);
                scope.spawn(move || drive(conn.as_mut(), i, seed, ops, tracer, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let cpu_raw = host::cpu_seconds() - cpu0;
    ctx.tracer.end(phase);

    // One `Measured` for the round: samples pooled, the wall of the slower
    // connection (they run side by side).
    let mut pooled = Measured::default();
    let mut models = Vec::new();
    let mut hash = StreamHash::default();
    for (i, r) in results.into_iter().enumerate() {
        ctx.tracer.adopt(r.tracer, phase);
        pooled.absorb_parallel(r.measured);
        round.failed += r.tally.failed;
        if let Some(p) = r.tally.first {
            round.check_failures.push(format!(
                "connection {i}: {} failed, {} wrong, first: {p}",
                r.tally.failed, r.tally.wrong
            ));
        }
        hash.push(r.hash);
        models.push(r.model);
    }
    round.ops = ops * CONNECTIONS as u64;
    round.stream_hash = hash.value();
    round.take_measured(pooled, cpu_raw);
    if let Some(before) = &before {
        round.engine = Some(Snapshot::region(&db, before).map_err(rel)?);
    }
    if let (Some(server), Some(net0)) = (&server, net0) {
        let net1 = server.stats().fields();
        let delta = |name: &str| {
            let at = |f: &[(&'static str, u64)]| {
                f.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
            };
            at(&net1).saturating_sub(at(&net0)) as f64
        };
        round.set("net_bytes_in", delta("net_bytes_in"));
        round.set("net_bytes_out", delta("net_bytes_out"));
        round.set("frames", delta("frames_decoded"));
    }

    // --- verify: the table against both connections' models.
    let phase = ctx.tracer.begin("verify", ctx.parent, 0);
    drop(conns);
    if let Some(server) = server {
        server.shutdown();
    }
    let rows = decode_stream(
        &db.session()
            .query(SQL_STREAM, (0i64, machines))
            .map_err(rel)?,
    )
    .map_err(rel)?;
    let want: Vec<i64> = models.into_iter().flatten().collect();
    round.check(
        rows.len() == want.len() && rows.iter().zip(&want).all(|((_, hb), w)| hb == w),
        || "machines table differs from what the connections last wrote".into(),
    );
    if let Err(e) = db.check_consistency() {
        round.check_failures.push(format!("check_consistency: {e}"));
    }
    ctx.tracer.end(phase);
    Ok(round)
}
