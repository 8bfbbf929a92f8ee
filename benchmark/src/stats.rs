//! Median / percentile helpers for latency samples and per-round values.

/// Median of a set of values (mean of the middle two for an even count).
/// Returns 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending-sorted sample, `q` in `(0, 1]`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of percentile `q` among `n` samples (`n > 0`).
/// The small slack keeps `0.9 * 100 = 90.00000000000001` at rank 90.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Whether a sample of `n` supports reporting percentile `q`: at least ten
/// samples must lie beyond it (p99 needs 1,000 samples, p90 needs 100).
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= 10
}

/// Latency samples of one op kind, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    nanos: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples {
            nanos: Vec::with_capacity(n),
            sorted: true,
        }
    }

    #[inline]
    pub fn push(&mut self, nanos: u64) {
        self.nanos.push(nanos);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.nanos.extend_from_slice(&other.nanos);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.nanos.len()
    }

    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Sorts the samples once, so that percentiles are index reads.
    pub fn sort(&mut self) {
        if !self.sorted {
            self.nanos.sort_unstable();
            self.sorted = true;
        }
    }

    /// Percentile in microseconds (0 when empty).
    pub fn percentile_us(&self, q: f64) -> f64 {
        let nanos = if self.sorted {
            percentile(&self.nanos, q)
        } else {
            let mut copy = self.nanos.clone();
            copy.sort_unstable();
            percentile(&copy, q)
        };
        nanos as f64 / 1_000.0
    }

    pub fn p50_us(&self) -> f64 {
        self.percentile_us(0.50)
    }

    pub fn p99_us(&self) -> f64 {
        self.percentile_us(0.99)
    }

    pub fn mean_us(&self) -> f64 {
        if self.nanos.is_empty() {
            0.0
        } else {
            self.total_nanos() as f64 / self.nanos.len() as f64 / 1_000.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 needs ten samples above it: 1,000 in all.
        assert!(!supports(999, 0.99));
        assert!(supports(1_000, 0.99));
        assert!(!supports(99, 0.90));
        assert!(supports(100, 0.90));
        assert!(supports(20, 0.50));
        assert!(!supports(19, 0.50));
    }

    #[test]
    fn samples_report_microseconds() {
        let mut s = Samples::with_capacity(4);
        for n in [4_000, 1_000, 3_000, 2_000] {
            s.push(n);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.p50_us(), 2.0);
        assert_eq!(s.percentile_us(1.0), 4.0);
        assert_eq!(s.mean_us(), 2.5);
        let mut t = Samples::default();
        t.extend(&s);
        t.push(10_000);
        assert_eq!(t.percentile_us(1.0), 10.0);
    }
}
