//! Fixed-capacity rings: the slow-query log and the coarse event log.
//!
//! Both are bounded `VecDeque`s behind a plain mutex — they are written on
//! the *slow* path by construction (a statement only reaches the slow log
//! after blowing a millisecond-scale threshold; events fire per checkpoint
//! or vacuum, not per statement), so a leaf mutex held for a push is cheap
//! and keeps the reader side trivial. The hot-path cost of a *disarmed*
//! slow-query log is one relaxed load and one compare.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use super::clock::Stopwatch;
use super::StmtKind;

/// Entries kept by the slow-query ring before the oldest is dropped.
pub(crate) const SLOW_LOG_CAPACITY: usize = 256;

/// Entries kept by the event ring before the oldest is dropped.
pub(crate) const EVENT_RING_CAPACITY: usize = 128;

/// One captured slow statement, with a breakdown of where the time went.
#[derive(Debug, Clone)]
pub struct SlowQueryEntry {
    /// Monotonic capture sequence number (gaps mean dropped entries — the
    /// ring only keeps the most recent `SLOW_LOG_CAPACITY`).
    pub seq: u64,
    /// The statement text, when the statement came in as SQL: as written,
    /// with a text that shares its shape's statement showing its own
    /// literals (spelt anew: `2.50` reads `2.5`). Programmatic AST
    /// execution has no text and reports `None`.
    pub sql: Option<Arc<str>>,
    /// The statement kind.
    pub kind: StmtKind,
    /// Total execution time in nanoseconds (for autocommit writes this spans
    /// begin through commit, fsync included).
    pub duration_nanos: u64,
    /// Rows returned or affected.
    pub rows: u64,
    /// Nanoseconds of the duration spent waiting on table locks.
    pub lock_wait_nanos: u64,
    /// Nanoseconds of the duration spent in durable-log fsyncs.
    pub fsync_nanos: u64,
}

/// A bounded ring of the most recent statements that crossed the armed
/// threshold. Disarmed (the default) it costs one relaxed load per statement.
#[derive(Debug)]
pub struct SlowQueryLog {
    /// Threshold in nanoseconds; `u64::MAX` means disarmed, so the hot path
    /// is a single unconditional `duration >= threshold` compare.
    threshold_nanos: AtomicU64,
    entries: Mutex<VecDeque<SlowQueryEntry>>,
    next_seq: AtomicU64,
}

impl Default for SlowQueryLog {
    fn default() -> Self {
        SlowQueryLog {
            threshold_nanos: AtomicU64::new(u64::MAX),
            entries: Mutex::new(VecDeque::new()),
            next_seq: AtomicU64::new(0),
        }
    }
}

impl SlowQueryLog {
    /// Arms the log at a threshold (`Some(Duration::ZERO)` captures every
    /// statement) or disarms it (`None`), dropping nothing already captured.
    pub(crate) fn set_threshold(&self, threshold: Option<Duration>) {
        let nanos = match threshold {
            // Saturate just under the disarmed sentinel.
            Some(d) => u64::try_from(d.as_nanos()).unwrap_or(u64::MAX - 1).min(u64::MAX - 1),
            None => u64::MAX,
        };
        self.threshold_nanos.store(nanos, Ordering::Relaxed);
    }

    /// The armed threshold, or `None` while disarmed.
    pub(crate) fn threshold(&self) -> Option<Duration> {
        match self.threshold_nanos.load(Ordering::Relaxed) {
            u64::MAX => None,
            nanos => Some(Duration::from_nanos(nanos)),
        }
    }

    /// Whether a statement of this duration should be captured. This is the
    /// entire hot-path cost of the slow-query log.
    #[inline]
    pub(crate) fn should_capture(&self, duration_nanos: u64) -> bool {
        duration_nanos >= self.threshold_nanos.load(Ordering::Relaxed)
    }

    /// Captures an entry, evicting the oldest beyond capacity.
    pub(crate) fn capture(&self, mut entry: SlowQueryEntry) {
        entry.seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock();
        if entries.len() == SLOW_LOG_CAPACITY {
            entries.pop_front();
        }
        entries.push_back(entry);
    }

    /// Copies the captured entries, oldest first.
    pub fn entries(&self) -> Vec<SlowQueryEntry> {
        self.entries.lock().iter().cloned().collect()
    }

    /// Drops all captured entries (the sequence keeps counting, so a monitor
    /// can still detect captures across a clear).
    pub fn clear(&self) {
        self.entries.lock().clear();
    }
}

/// One coarse engine event — a checkpoint, vacuum sweep or recovery — with
/// its duration and a human-readable detail line.
#[derive(Debug, Clone)]
pub struct Event {
    /// Monotonic capture sequence number.
    pub seq: u64,
    /// Event kind tag, e.g. `"checkpoint"`, `"vacuum"`, `"recovery"`.
    pub kind: &'static str,
    /// Human-readable phase/size breakdown.
    pub detail: String,
    /// Event duration in nanoseconds (0 for instantaneous marks).
    pub duration_nanos: u64,
}

/// A bounded ring of recent coarse engine spans.
#[derive(Debug, Default)]
pub struct EventRing {
    entries: Mutex<VecDeque<Event>>,
    next_seq: AtomicU64,
}

impl EventRing {
    /// Records an event with an explicit duration.
    pub(crate) fn record(&self, kind: &'static str, detail: String, duration_nanos: u64) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock();
        if entries.len() == EVENT_RING_CAPACITY {
            entries.pop_front();
        }
        entries.push_back(Event {
            seq,
            kind,
            detail,
            duration_nanos,
        });
    }

    /// Records an event whose duration is a running stopwatch.
    pub(crate) fn record_span(&self, kind: &'static str, detail: String, span: Stopwatch) {
        self.record(kind, detail, span.elapsed_nanos());
    }

    /// Copies the captured events, oldest first.
    pub(crate) fn entries(&self) -> Vec<Event> {
        self.entries.lock().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(duration: u64) -> SlowQueryEntry {
        SlowQueryEntry {
            seq: 0,
            sql: Some(Arc::from("SELECT 1")),
            kind: StmtKind::Select,
            duration_nanos: duration,
            rows: 1,
            lock_wait_nanos: 0,
            fsync_nanos: 0,
        }
    }

    #[test]
    fn disarmed_log_captures_nothing() {
        let log = SlowQueryLog::default();
        assert_eq!(log.threshold(), None);
        assert!(!log.should_capture(u64::MAX - 1));
    }

    #[test]
    fn threshold_gates_capture() {
        let log = SlowQueryLog::default();
        log.set_threshold(Some(Duration::from_micros(10)));
        assert!(!log.should_capture(9_999));
        assert!(log.should_capture(10_000));
        log.set_threshold(Some(Duration::ZERO));
        assert!(log.should_capture(0), "zero threshold captures everything");
        log.set_threshold(None);
        assert!(!log.should_capture(u64::MAX - 1));
    }

    #[test]
    fn ring_keeps_the_most_recent_entries() {
        let log = SlowQueryLog::default();
        for i in 0..SLOW_LOG_CAPACITY as u64 + 10 {
            log.capture(entry(i));
        }
        let entries = log.entries();
        assert_eq!(entries.len(), SLOW_LOG_CAPACITY);
        assert_eq!(entries.first().unwrap().seq, 10, "oldest were evicted");
        assert_eq!(
            entries.last().unwrap().seq,
            SLOW_LOG_CAPACITY as u64 + 9,
            "newest survives"
        );
        log.clear();
        assert!(log.entries().is_empty());
        log.capture(entry(1));
        assert_eq!(
            log.entries()[0].seq,
            SLOW_LOG_CAPACITY as u64 + 10,
            "sequence numbering continues across clear"
        );
    }

    #[test]
    fn event_ring_bounds_and_orders() {
        let ring = EventRing::default();
        for _ in 0..EVENT_RING_CAPACITY + 5 {
            ring.record("vacuum", "pruned 0 version(s)".to_string(), 123);
        }
        let events = ring.entries();
        assert_eq!(events.len(), EVENT_RING_CAPACITY);
        assert_eq!(events.first().unwrap().seq, 5);
        assert_eq!(events.last().unwrap().kind, "vacuum");
    }
}
