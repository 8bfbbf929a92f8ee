//! Lock-free log-bucketed latency histograms.
//!
//! A histogram is 64 relaxed atomic counters, one per power-of-two bucket:
//! bucket `i` covers durations in `[2^i, 2^(i+1))` nanoseconds (bucket 0 also
//! absorbs 0 ns), plus the exact sample count and sum. Recording a sample is
//! one `leading_zeros` and three relaxed `fetch_add`s; the exact maximum is
//! kept with a load-then-`fetch_max` that skips the RMW entirely unless the
//! sample is a new high-water mark. There is no lock anywhere, so any number
//! of sessions can record concurrently while a monitor reads quantiles.
//!
//! The count and the sum are what the engine's counters read for events
//! that are also timed (`statements_executed` is the `stmt.*` counts,
//! `wal_fsync_nanos` the `wal.fsync` sum): one load each, no bucket walk,
//! because [`crate::Database::stats`] runs twice per simulated request.
//!
//! Quantiles are estimated by walking the bucket counts to the target rank
//! and interpolating linearly inside the bucket. Because bucket counts are
//! exact, the estimate always lands inside the same power-of-two bucket as
//! the true order statistic — the error is bounded by one bucket width.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one per bit position of a `u64` nanosecond duration.
pub const BUCKETS: usize = 64;

/// Returns the bucket index for a duration: the position of its highest set
/// bit, i.e. `floor(log2(nanos))`, with 0 ns mapping to bucket 0.
#[inline]
pub fn bucket_index(nanos: u64) -> usize {
    (63 - (nanos | 1).leading_zeros()) as usize
}

/// Inclusive lower bound of a bucket in nanoseconds.
#[inline]
pub fn bucket_low(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << index
    }
}

/// Inclusive upper bound of a bucket in nanoseconds.
#[inline]
pub fn bucket_high(index: usize) -> u64 {
    if index >= 63 {
        u64::MAX
    } else {
        (1u64 << (index + 1)) - 1
    }
}

/// A lock-free latency histogram with power-of-two buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one sample: three relaxed `fetch_add`s (bucket, count, sum),
    /// plus a `fetch_max` only when the sample beats the current maximum.
    #[inline]
    pub fn record(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        if nanos > self.max_nanos.load(Ordering::Relaxed) {
            self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        }
    }

    /// Total samples recorded: one relaxed load, exact once writers quiesce.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of every sample, in nanoseconds: one relaxed load, exact once
    /// writers quiesce.
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos.load(Ordering::Relaxed)
    }

    /// Copies the bucket counts, count, sum and maximum into an immutable
    /// snapshot for quantile estimation.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count(),
            sum_nanos: self.sum_nanos(),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a histogram's state, cheap to query repeatedly.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_nanos: u64,
    max_nanos: u64,
}

impl HistogramSnapshot {
    /// Total samples in the snapshot.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample ever recorded, in nanoseconds.
    pub(crate) fn max_nanos(&self) -> u64 {
        self.max_nanos
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) in nanoseconds, or `None`
    /// if the histogram is empty. The estimate lies in the same
    /// power-of-two bucket as the true order statistic: the rank walk is
    /// exact, only the position inside the bucket is interpolated.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        // Ranked against the buckets' own total, which a sample recorded
        // while the snapshot was copied may have missed.
        let count: u64 = self.buckets.iter().sum();
        if count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the order statistic we want.
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        // The top rank is the maximum, which is tracked exactly.
        if target == count {
            return Some(self.max_nanos);
        }
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                let lo = bucket_low(i);
                let hi = bucket_high(i);
                // Interpolate by rank position inside the bucket.
                let into = (target - seen - 1) as f64 / n as f64;
                let est = lo + ((hi - lo) as f64 * into) as u64;
                // The true maximum caps every quantile: never report an
                // estimate beyond a value that was actually observed.
                return Some(est.min(self.max_nanos.max(lo)));
            }
            seen += n;
        }
        Some(self.max_nanos)
    }

    /// The arithmetic mean in nanoseconds, sum / count, or `None` if empty.
    pub(crate) fn mean_nanos(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_nanos as f64 / self.count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        for i in 1..64 {
            let boundary = 1u64 << i;
            assert_eq!(bucket_index(boundary), i, "2^{i} opens bucket {i}");
            assert_eq!(bucket_index(boundary - 1), i - 1, "2^{i}-1 closes bucket {}", i - 1);
        }
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn bucket_bounds_cover_u64_without_gaps() {
        assert_eq!(bucket_low(0), 0);
        for i in 0..BUCKETS - 1 {
            assert_eq!(
                bucket_high(i) + 1,
                bucket_low(i + 1),
                "bucket {i} must abut bucket {}",
                i + 1
            );
        }
        assert_eq!(bucket_high(63), u64::MAX);
    }

    #[test]
    fn record_lands_in_the_right_bucket() {
        let h = LatencyHistogram::default();
        h.record(0);
        h.record(1);
        h.record(1000); // bucket 9: [512, 1024)
        h.record(1024); // bucket 10
        let snap = h.snapshot();
        assert_eq!(snap.count(), 4);
        assert_eq!(snap.max_nanos(), 1024);
        assert_eq!(snap.buckets[0], 2);
        assert_eq!(snap.buckets[9], 1);
        assert_eq!(snap.buckets[10], 1);
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let h = LatencyHistogram::default();
        // 100 samples at exactly 1 µs, 10 at 1 ms, 1 at 1 s.
        for _ in 0..100 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        h.record(1_000_000_000);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 111);

        let p50 = snap.quantile(0.50).unwrap();
        assert_eq!(bucket_index(p50), bucket_index(1_000), "p50 in the 1 µs bucket");
        let p95 = snap.quantile(0.95).unwrap();
        assert_eq!(bucket_index(p95), bucket_index(1_000_000), "p95 in the 1 ms bucket");
        let p100 = snap.quantile(1.0).unwrap();
        assert_eq!(p100, 1_000_000_000, "p100 is the exact maximum");
    }

    #[test]
    fn quantile_is_none_on_empty_and_capped_by_max() {
        let snap = LatencyHistogram::default().snapshot();
        assert_eq!(snap.quantile(0.5), None);
        assert_eq!(snap.mean_nanos(), None);

        let h = LatencyHistogram::default();
        h.record(600); // bucket 9 is [512, 1023]
        let snap = h.snapshot();
        // A single sample: every quantile must report a value no larger than
        // the one sample actually observed.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert!(snap.quantile(q).unwrap() <= 600);
            assert!(snap.quantile(q).unwrap() >= 512);
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LatencyHistogram::default());
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(i * 7 + t);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
    }

    #[test]
    fn mean_estimate_tracks_bucket_scale() {
        let h = LatencyHistogram::default();
        for _ in 0..1000 {
            h.record(1_000);
        }
        // All samples sit in bucket [512, 1023]; the mean is still exact.
        assert_eq!(h.snapshot().mean_nanos(), Some(1_000.0));
        h.record(3);
        h.record(1_000_000);
        assert_eq!((h.count(), h.sum_nanos()), (1002, 2_000_003));
        assert_eq!(h.snapshot().mean_nanos(), Some(2_000_003.0 / 1002.0));
    }
}
