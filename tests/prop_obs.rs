//! Property-based tests of the observability subsystem: bucket arithmetic
//! covers the whole `u64` range without gaps, quantile estimates stay
//! within one power-of-two bucket of the true order statistic, the
//! statement-profile table is bounded by the statement-cache LRU, and the
//! statement/histogram accounting invariant survives arbitrary workloads
//! with failures mixed in.

use proptest::prelude::*;
use relstore::obs::hist::{bucket_high, bucket_index, bucket_low, LatencyHistogram, BUCKETS};
use relstore::Database;

proptest! {
    /// The bucket function is monotone, and every duration lands inside
    /// its own bucket's bounds.
    #[test]
    fn bucket_index_is_monotone_and_self_consistent(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(bucket_index(lo) <= bucket_index(hi));
        prop_assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        for n in [a, b, u64::MAX] {
            let i = bucket_index(n);
            prop_assert!(i < BUCKETS);
            prop_assert!(bucket_low(i) <= n || n == 0);
            prop_assert!(n <= bucket_high(i));
        }
    }

    /// Quantile estimates land in the same power-of-two bucket as the true
    /// order statistic, never exceed the true maximum, and `q = 1.0` is the
    /// exact maximum.
    #[test]
    fn quantile_is_within_one_bucket_of_truth(
        samples in prop::collection::vec(1u64..2_000_000_000, 1..200),
        q in 0.0f64..1.0,
    ) {
        let h = LatencyHistogram::default();
        for &s in &samples {
            h.record(s);
        }
        let mut samples = samples;
        samples.sort_unstable();
        let snap = h.snapshot();
        let est = snap.quantile(q).unwrap();
        prop_assert!(est <= *samples.last().unwrap());
        prop_assert_eq!(snap.quantile(1.0).unwrap(), *samples.last().unwrap());

        // The true order statistic at the same rank the estimator targets.
        let count = samples.len() as u64;
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let truth = samples[(target - 1) as usize];
        prop_assert_eq!(
            bucket_index(est.max(1)), bucket_index(truth),
            "estimate {} vs true order statistic {}", est, truth
        );
    }

    /// `statement_profiles` (and therefore `rel_statements`) is bounded by
    /// the statement-cache LRU no matter how many distinct statements run:
    /// hot entries keep profiling, cold ones age out.
    #[test]
    fn profile_table_is_bounded_by_the_statement_cache(extra in 1usize..40) {
        let db = Database::new();
        db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY)").unwrap();
        let cap = 256; // STMT_CACHE_CAPACITY
        // One shape per text: each names its output column afresh.
        for i in 0..(cap + extra) as i64 {
            db.query(&format!("SELECT job_id AS j{i} FROM jobs WHERE job_id = {i}")).unwrap();
        }
        let profiles = db.statement_profiles();
        prop_assert!(profiles.len() <= cap, "{} profiles exceed the LRU cap", profiles.len());
        // The newest statement is always resident, under its shape; calls
        // were recorded.
        let last = format!("SELECT job_id AS j{0} FROM jobs WHERE job_id = ?", cap + extra - 1);
        let hit = profiles.iter().find(|p| &*p.sql == last.as_str());
        prop_assert!(hit.is_some_and(|p| p.calls == 1));
    }

    /// Arbitrary workloads — inserts, point reads, duplicate-key failures,
    /// missing-table failures — preserve the accounting invariant: every
    /// counted statement has exactly one histogram sample.
    #[test]
    fn histogram_totals_match_statements_executed(ops in prop::collection::vec(0u8..5, 1..60)) {
        let db = Database::new();
        db.execute("CREATE TABLE jobs (job_id INT PRIMARY KEY)").unwrap();
        for (i, op) in ops.iter().enumerate() {
            let i = i as i64;
            match op {
                0 => { db.execute(&format!("INSERT INTO jobs VALUES ({i})")).unwrap(); }
                1 => { db.query("SELECT COUNT(*) AS n FROM jobs").unwrap(); }
                2 => { let _ = db.execute("INSERT INTO jobs VALUES (0)"); } // dup after first
                3 => { db.query("SELECT * FROM missing").unwrap_err(); }
                _ => { db.execute(&format!("DELETE FROM jobs WHERE job_id = {i}")).unwrap(); }
            }
        }
        prop_assert_eq!(
            db.obs().histograms.statement_total(),
            db.stats().statements_executed
        );
    }
}
