//! Database connection pooling.
//!
//! The paper lists connection pooling as one of the application-server
//! features that make the architecture viable: the container "reduces the
//! required number of simultaneous open connections to the database". In the
//! reproduction, requests are processed from a discrete-event loop, so the
//! pool's job is accounting rather than blocking: it bounds how many requests
//! can hold a connection at once, counts how often requests had to queue, and
//! reports the high-water mark so experiments can show the bound holding even
//! for a 10,000-machine cluster.

use serde::{Deserialize, Serialize};

/// Statistics reported by a `ConnectionPool`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Total successful acquisitions.
    pub acquired: u64,
    /// Total releases.
    pub released: u64,
    /// Requests that found the pool exhausted and had to wait/retry.
    pub exhausted: u64,
    /// Largest number of connections ever simultaneously in use.
    pub high_water_mark: usize,
}

/// A bounded pool of database connections.
#[derive(Debug, Clone)]
pub struct ConnectionPool {
    capacity: usize,
    in_use: usize,
    stats: PoolStats,
}

impl ConnectionPool {
    /// Creates a pool with `capacity` connections. JBoss's default pool size
    /// of 20 is a reasonable choice for the CAS.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a connection pool needs at least one connection");
        ConnectionPool {
            capacity,
            in_use: 0,
            stats: PoolStats::default(),
        }
    }

    /// Attempts to acquire a connection. Returns `false` (and records an
    /// exhaustion event) when every connection is in use.
    pub fn try_acquire(&mut self) -> bool {
        if self.in_use >= self.capacity {
            self.stats.exhausted += 1;
            return false;
        }
        self.in_use += 1;
        self.stats.acquired += 1;
        self.stats.high_water_mark = self.stats.high_water_mark.max(self.in_use);
        true
    }

    /// Releases a previously acquired connection.
    pub fn release(&mut self) {
        assert!(self.in_use > 0, "release without a matching acquire");
        self.in_use -= 1;
        self.stats.released += 1;
    }

    /// Pool statistics so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ConnectionPool {
        fn capacity(&self) -> usize {
            self.capacity
        }

        fn in_use(&self) -> usize {
            self.in_use
        }

        fn available(&self) -> usize {
            self.capacity - self.in_use
        }
    }

    #[test]
    fn acquire_release_cycle() {
        let mut pool = ConnectionPool::new(2);
        assert_eq!(pool.capacity(), 2);
        assert!(pool.try_acquire());
        assert!(pool.try_acquire());
        assert_eq!(pool.in_use(), 2);
        assert_eq!(pool.available(), 0);
        assert!(!pool.try_acquire());
        pool.release();
        assert!(pool.try_acquire());
        let stats = pool.stats();
        assert_eq!(stats.acquired, 3);
        assert_eq!(stats.released, 1);
        assert_eq!(stats.exhausted, 1);
        assert_eq!(stats.high_water_mark, 2);
    }

    #[test]
    #[should_panic(expected = "release without a matching acquire")]
    fn release_without_acquire_panics() {
        let mut pool = ConnectionPool::new(1);
        pool.release();
    }

    #[test]
    fn high_water_mark_tracks_peak_not_current() {
        let mut pool = ConnectionPool::new(8);
        for _ in 0..5 {
            assert!(pool.try_acquire());
        }
        for _ in 0..5 {
            pool.release();
        }
        assert_eq!(pool.in_use(), 0);
        assert_eq!(pool.stats().high_water_mark, 5);
    }
}
