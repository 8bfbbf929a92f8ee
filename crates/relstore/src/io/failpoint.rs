//! Deterministic fault injection for the durable-log IO path.
//!
//! A [`Failpoints`] registry hangs off every durable database. Tests arm a
//! named point with a [`FailAction`]; the next time the IO path passes that
//! point, the action fires exactly once (points are one-shot) and the
//! `failpoints_hit` counter is bumped. When nothing is armed — the production
//! case — the check is a single relaxed atomic load, so the framework can
//! stay compiled in without costing the write path anything measurable.
//!
//! The point names the IO path consults live in [`points`].

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Well-known failpoint names consulted by the durable log.
pub mod points {
    /// Fires inside [`super::super::LogDevice::append`]-bound writes, before
    /// the record bytes reach the device.
    pub const WAL_APPEND: &str = "wal.append";
    /// Fires inside commit/flush fsyncs, before the device syncs.
    pub const WAL_SYNC: &str = "wal.sync";
    /// Fires inside checkpoint segment rotation, before the new segment
    /// replaces the old one.
    pub const WAL_ROTATE: &str = "wal.rotate";
}

/// What an armed failpoint does when the IO path reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Only the first `k` bytes of the write reach the device (buffered,
    /// unsynced — a crash would lose them), then the operation errors.
    /// Models a partial `write(2)` followed by an IO error.
    ShortWrite(usize),
    /// The first `k` bytes of the write reach the device **durably**, then
    /// the device dies. Models power loss midway through an append that the
    /// disk had partially persisted — the canonical torn tail.
    TornWrite(usize),
    /// The operation fails with an injected IO error; the device survives.
    /// On a sync point this models `fsync(2)` returning `EIO`.
    Err,
    /// The write (if any) completes in the device's volatile buffer, then
    /// the device dies before anything is synced. Models a crash after
    /// `write(2)` but before `fsync(2)`.
    Crash,
}

#[derive(Debug)]
struct ArmedPoint {
    action: FailAction,
    /// Passes to let through before firing (0 = fire on the next pass).
    skip: usize,
}

/// A registry of named, one-shot fault-injection points.
#[derive(Debug, Default)]
pub struct Failpoints {
    /// Number of currently armed points. The disarmed fast path is a single
    /// relaxed load of this counter.
    armed: AtomicUsize,
    points: Mutex<HashMap<&'static str, ArmedPoint>>,
    hits: AtomicU64,
}

impl Failpoints {
    /// Creates a registry with nothing armed.
    pub(crate) fn new() -> Self {
        Failpoints::default()
    }

    /// Arms `name` to fire `action` on the next pass. Re-arming an armed
    /// point replaces its action.
    pub fn arm(&self, name: &'static str, action: FailAction) {
        self.arm_after(name, 0, action);
    }

    /// Arms `name` to let `skip` passes through, then fire `action` once.
    pub fn arm_after(&self, name: &'static str, skip: usize, action: FailAction) {
        let mut points = self.points.lock();
        if points.insert(name, ArmedPoint { action, skip }).is_none() {
            self.armed.fetch_add(1, Ordering::Release);
        }
    }

    /// Total number of times any point has fired.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Consulted by the IO path: returns the action to perform at `name`,
    /// or `None` (the overwhelmingly common case) to proceed normally.
    /// Firing disarms the point.
    pub(crate) fn check(&self, name: &'static str) -> Option<FailAction> {
        if self.armed.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut points = self.points.lock();
        let point = points.get_mut(name)?;
        if point.skip > 0 {
            point.skip -= 1;
            return None;
        }
        let action = point.action;
        points.remove(name);
        self.armed.fetch_sub(1, Ordering::Release);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Failpoints {
        /// Disarms `name` if armed.
        fn disarm(&self, name: &'static str) {
            let mut points = self.points.lock();
            if points.remove(name).is_some() {
                self.armed.fetch_sub(1, Ordering::Release);
            }
        }
    }

    #[test]
    fn disarmed_points_never_fire() {
        let fp = Failpoints::new();
        assert_eq!(fp.check(points::WAL_APPEND), None);
        assert_eq!(fp.hits(), 0);
    }

    #[test]
    fn armed_points_fire_exactly_once() {
        let fp = Failpoints::new();
        fp.arm(points::WAL_SYNC, FailAction::Err);
        assert_eq!(fp.check(points::WAL_APPEND), None, "other points unaffected");
        assert_eq!(fp.check(points::WAL_SYNC), Some(FailAction::Err));
        assert_eq!(fp.check(points::WAL_SYNC), None, "one-shot");
        assert_eq!(fp.hits(), 1);
    }

    #[test]
    fn skip_counts_passes_before_firing() {
        let fp = Failpoints::new();
        fp.arm_after(points::WAL_APPEND, 2, FailAction::TornWrite(5));
        assert_eq!(fp.check(points::WAL_APPEND), None);
        assert_eq!(fp.check(points::WAL_APPEND), None);
        assert_eq!(fp.check(points::WAL_APPEND), Some(FailAction::TornWrite(5)));
        assert_eq!(fp.hits(), 1);
    }

    #[test]
    fn disarm_and_rearm() {
        let fp = Failpoints::new();
        fp.arm(points::WAL_APPEND, FailAction::Err);
        fp.disarm(points::WAL_APPEND);
        assert_eq!(fp.check(points::WAL_APPEND), None);
        fp.arm(points::WAL_APPEND, FailAction::ShortWrite(1));
        fp.arm(points::WAL_APPEND, FailAction::ShortWrite(3));
        assert_eq!(
            fp.check(points::WAL_APPEND),
            Some(FailAction::ShortWrite(3)),
            "re-arming replaces the action"
        );
    }
}
