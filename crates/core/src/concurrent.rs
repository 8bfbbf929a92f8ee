//! Multi-threaded read drivers for the service layer.
//!
//! Every CAS service call crosses the HTTP-to-SQL transformation, and the
//! read-heavy calls (heartbeats, pool-status queries, match lookups) are
//! SELECTs. With the storage engine's shared-lock read path those calls can
//! execute in parallel on as many cores as the host offers; this module
//! provides the harness that drives a shared [`Database`] from N OS threads
//! and measures aggregate throughput. It is used by the
//! `concurrent_reads` bench target and the multi-threaded consistency tests,
//! and doubles as the reference pattern for wiring real service threads to
//! one embedded database.

use relstore::{Database, IntoParams, Result};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Aggregate throughput measured by one [`drive_reads`] run.
#[derive(Debug, Clone, Copy)]
pub struct ReadThroughput {
    /// Number of reader threads that ran.
    pub threads: usize,
    /// Total statements executed across all threads.
    pub total_ops: u64,
    /// Wall-clock time from the moment all threads were released to the
    /// moment the last one finished.
    pub elapsed: Duration,
}

impl ReadThroughput {
    /// Aggregate statements per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Mean wall-clock nanoseconds per statement (per thread, not aggregate:
    /// with perfect scaling this stays flat as threads are added).
    pub fn nanos_per_op(&self) -> f64 {
        let per_thread = self.total_ops as f64 / self.threads.max(1) as f64;
        self.elapsed.as_nanos() as f64 / per_thread.max(1.0)
    }
}

/// Runs `iters_per_thread` executions of the prepared `sql` on each of
/// `threads` OS threads sharing one database, and reports aggregate
/// throughput.
///
/// The statement is prepared once, up front (so a malformed statement fails
/// fast instead of stranding the start barrier); the threads share the
/// prepared handle, wait on a barrier so they all start together, then bind
/// the typed tuple produced by `params(thread_index, iteration)` per call
/// (any [`IntoParams`] value works). Results are passed through
/// [`std::hint::black_box`] so the driver cannot optimise the reads away.
pub fn drive_reads<P: IntoParams>(
    db: &Database,
    threads: usize,
    iters_per_thread: u64,
    sql: &str,
    params: impl Fn(usize, u64) -> P + Sync,
) -> Result<ReadThroughput> {
    assert!(threads > 0, "drive_reads needs at least one thread");
    let stmt = db.prepare(sql)?;
    let barrier = Barrier::new(threads + 1);
    let mut elapsed = Duration::ZERO;
    std::thread::scope(|s| -> Result<()> {
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let barrier = &barrier;
            let params = &params;
            let stmt = stmt.clone();
            handles.push(s.spawn(move || -> Result<()> {
                let mut session = db.session();
                barrier.wait();
                for i in 0..iters_per_thread {
                    std::hint::black_box(session.query(&stmt, params(t, i))?);
                }
                Ok(())
            }));
        }
        barrier.wait();
        let start = Instant::now();
        for handle in handles {
            handle.join().expect("reader thread panicked")?;
        }
        elapsed = start.elapsed();
        Ok(())
    })?;
    Ok(ReadThroughput {
        threads,
        total_ops: threads as u64 * iters_per_thread,
        elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs_db(rows: i64) -> Database {
        let db = Database::new();
        db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY, state TEXT)").unwrap();
        let ins = db.prepare("INSERT INTO jobs VALUES (?, 'idle')").unwrap();
        db.session()
            .execute_batch(&ins, (0..rows).map(|i| (i,)))
            .unwrap();
        db
    }

    #[test]
    fn drive_reads_executes_the_full_workload() {
        let db = jobs_db(100);
        let before = db.stats();
        let t = drive_reads(&db, 3, 50, "SELECT * FROM jobs WHERE job_id = ?", |t, i| {
            (((t as u64 * 37 + i) % 100) as i64,)
        })
        .unwrap();
        assert_eq!(t.total_ops, 150);
        assert!(t.ops_per_sec() > 0.0);
        assert!(t.nanos_per_op() > 0.0);
        let d = db.stats().delta_since(&before);
        assert!(d.statements_executed >= 150);
        assert!(d.index_lookups >= 150);
    }

    #[test]
    fn drive_reads_surfaces_query_errors() {
        let db = jobs_db(1);
        // Execution-time failure (unknown table is caught at query time).
        assert!(drive_reads(&db, 2, 1, "SELECT * FROM missing WHERE job_id = ?", |_, _| {
            (0i64,)
        })
        .is_err());
        // Prepare-time failure must error out, not strand the start barrier.
        assert!(drive_reads(&db, 2, 1, "SELEKT nope", |_, _| ()).is_err());
    }
}
