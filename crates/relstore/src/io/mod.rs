//! Durable-log IO: devices, record framing, checksums, and fault injection.
//!
//! This module tree turns the logical WAL of [`crate::wal`] into a real
//! crash-safe on-disk log while keeping the default in-memory engine
//! untouched. The layering, bottom up:
//!
//! - [`crc`] — hand-rolled CRC-32, no dependencies.
//! - [`codec`] — the one serde-free binary codec: the bounds-checked
//!   primitives, value and row encodings the `wire` protocol also frames
//!   with, and on top of them [`crate::wal::LogRecord`].
//! - [`record`] — the segment layout: versioned header plus CRC-framed
//!   records, and the recovery scanner that repairs a **torn tail** by
//!   truncation but refuses **mid-log corruption** with
//!   [`crate::Error::Corruption`].
//! - [`device`] — the [`LogDevice`] byte-log trait with a real-file
//!   [`FsDevice`] and a crash-modelling [`MemDevice`].
//! - [`failpoint`] — named, one-shot fault injection for the IO path,
//!   free when disarmed.
//!
//! The WAL consumes all of this through `Wal`'s optional durable sink; see
//! the "Durability & recovery" section of the crate docs for the user-facing
//! story ([`crate::Database::open_durable`], [`DurabilityPolicy`], and the
//! poisoning rules).

pub mod codec;
pub mod crc;
pub mod device;
pub mod failpoint;
pub mod record;

pub use device::{FsDevice, LogDevice, MemDevice};
pub use failpoint::{points, FailAction, Failpoints};
pub use record::{
    decode_segment, record_boundaries, DecodedSegment, RECORD_HEADER_LEN, SEGMENT_HEADER_LEN,
};

/// When the durable log fsyncs, trading commit latency for crash-loss
/// exposure. Every policy syncs at checkpoints and on an explicit
/// [`crate::Database::flush_log`]; they differ in what happens at commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityPolicy {
    /// Fsync on every commit: an acknowledged commit is on disk. The
    /// classical force-at-commit discipline, and the default for
    /// [`crate::Database::open_durable`].
    Always,
    /// Fsync once every `n` commits (and at flush/checkpoint). An
    /// acknowledged commit may be lost in a crash — at most the last `n-1`
    /// commits' worth. Group-commit-shaped throughput without giving up
    /// bounded loss.
    Batch(usize),
    /// Fsync only at checkpoints and explicit flushes. The fastest and
    /// weakest mode: a crash can lose everything since the last checkpoint.
    /// Matches the pre-durability simulated engine most closely.
    Checkpoint,
}

impl DurabilityPolicy {
    /// How many commits may be acknowledged between fsyncs (`None` =
    /// unbounded, i.e. [`DurabilityPolicy::Checkpoint`]).
    pub fn commits_per_sync(&self) -> Option<usize> {
        match self {
            DurabilityPolicy::Always => Some(1),
            DurabilityPolicy::Batch(n) => Some((*n).max(1)),
            DurabilityPolicy::Checkpoint => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commits_per_sync_reflects_policy() {
        assert_eq!(DurabilityPolicy::Always.commits_per_sync(), Some(1));
        assert_eq!(DurabilityPolicy::Batch(8).commits_per_sync(), Some(8));
        assert_eq!(DurabilityPolicy::Batch(0).commits_per_sync(), Some(1));
        assert_eq!(DurabilityPolicy::Checkpoint.commits_per_sync(), None);
    }
}
