//! The pluggable byte-log device under the durable WAL.
//!
//! A [`LogDevice`] is a dumb append-only byte store with an explicit
//! durability barrier ([`LogDevice::sync`]). All record framing, checksums
//! and failure-injection *policy* live above it in the WAL layer; the two
//! implementations only differ in where the bytes go:
//!
//! - [`FsDevice`] — a real file: `write(2)` to append, `fsync(2)` to sync,
//!   write-new-file-then-`rename(2)` to atomically replace the segment at a
//!   checkpoint.
//! - [`MemDevice`] — a `Vec<u8>` that *models the physical disk under a
//!   power loss*: bytes appended but not yet synced are discarded by
//!   [`LogDevice::durable_contents`], so crash-recovery tests can simulate
//!   "the machine died here" deterministically, with no filesystem and no
//!   actual crash.

use crate::error::{Error, Result};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// An append-only byte log with an explicit durability barrier.
///
/// Implementations report failures as [`Error::Io`]; they never panic. Once
/// a device has died (see [`LogDevice::crash`]) every mutation fails, but
/// [`LogDevice::durable_contents`] still answers — it is "what would be on
/// the platter after the machine rebooted".
pub trait LogDevice: Send + std::fmt::Debug {
    /// Appends bytes to the end of the log. The bytes are *not* durable
    /// until the next [`LogDevice::sync`].
    fn append(&mut self, bytes: &[u8]) -> Result<()>;

    /// Durability barrier: everything appended so far survives a crash once
    /// this returns.
    fn sync(&mut self) -> Result<()>;

    /// Current length in bytes (including unsynced appends).
    fn len(&self) -> u64;

    /// True when nothing has been appended yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes a crash right now would leave behind. For [`MemDevice`]
    /// this is exactly the synced prefix; for [`FsDevice`] it is the file's
    /// current contents (the OS may have persisted unsynced pages — real
    /// disks only make *weaker* guarantees than the model, never stronger
    /// ones, so recovery must tolerate both).
    fn durable_contents(&self) -> Result<Vec<u8>>;

    /// Discards everything past `len` — used once at recovery to repair a
    /// torn tail before appending resumes.
    fn truncate(&mut self, len: u64) -> Result<()>;

    /// Atomically replaces the entire log with `bytes`, durably: after this
    /// returns, a crash finds either the old log or the new one, never a
    /// mix and never neither. Used by checkpoint segment rotation.
    fn replace(&mut self, bytes: &[u8]) -> Result<()>;

    /// Kills the device: every later mutation fails with [`Error::Io`].
    /// Fault injection uses this to model the machine dying; there is no
    /// way back short of reopening from [`LogDevice::durable_contents`].
    fn crash(&mut self);
}

fn dead() -> Error {
    Error::io("log device is dead (simulated crash)")
}

// --- in-memory ---------------------------------------------------------------

/// An in-memory [`LogDevice`] that models a disk under power loss: appends
/// land in `buf`, but only the prefix written before the last successful
/// [`LogDevice::sync`] is reported by [`LogDevice::durable_contents`].
#[derive(Debug, Default)]
pub struct MemDevice {
    buf: Vec<u8>,
    synced: usize,
    dead: bool,
}

impl MemDevice {
    /// A fresh, empty device.
    pub fn new() -> Self {
        MemDevice::default()
    }

    /// A device whose durable contents are `bytes` — "the disk found after
    /// the reboot". Used to reopen a database from a previous device's
    /// [`LogDevice::durable_contents`].
    pub fn with_contents(bytes: Vec<u8>) -> Self {
        let synced = bytes.len();
        MemDevice { buf: bytes, synced, dead: false }
    }
}

impl LogDevice for MemDevice {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        if self.dead {
            return Err(dead());
        }
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        if self.dead {
            return Err(dead());
        }
        self.synced = self.buf.len();
        Ok(())
    }

    fn len(&self) -> u64 {
        self.buf.len() as u64
    }

    fn durable_contents(&self) -> Result<Vec<u8>> {
        // Deliberately answers even when dead: this is the post-mortem view.
        Ok(self.buf[..self.synced].to_vec())
    }

    fn truncate(&mut self, len: u64) -> Result<()> {
        if self.dead {
            return Err(dead());
        }
        let len = len as usize;
        if len < self.buf.len() {
            self.buf.truncate(len);
        }
        self.synced = self.synced.min(self.buf.len());
        Ok(())
    }

    fn replace(&mut self, bytes: &[u8]) -> Result<()> {
        if self.dead {
            return Err(dead());
        }
        // Atomic in memory by construction; durable immediately, like the
        // fs rename.
        self.buf = bytes.to_vec();
        self.synced = self.buf.len();
        Ok(())
    }

    fn crash(&mut self) {
        self.dead = true;
    }
}

// --- filesystem --------------------------------------------------------------

/// A real on-disk [`LogDevice`]: one segment file, appended with `write(2)`,
/// made durable with `fsync(2)`, and atomically swapped at checkpoint via a
/// sync-then-rename of a sibling temp file.
#[derive(Debug)]
pub struct FsDevice {
    path: PathBuf,
    file: File,
    len: u64,
    dead: bool,
}

fn io_err(ctx: &str, path: &Path, e: std::io::Error) -> Error {
    Error::io(format!("{ctx} {}: {e}", path.display()))
}

impl FsDevice {
    /// Opens (creating if absent) the segment file at `path`.
    pub(crate) fn open(path: impl AsRef<Path>) -> Result<FsDevice> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open log", &path, e))?;
        let len = file
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek log", &path, e))?;
        Ok(FsDevice { path, file, len, dead: false })
    }

    /// Fsyncs the directory containing the segment, making a just-renamed
    /// file durable. Best-effort on platforms where directories cannot be
    /// opened; on Linux (the target) it works.
    fn sync_dir(&self) -> Result<()> {
        let parent = self.path.parent().filter(|p| !p.as_os_str().is_empty());
        let dir = parent.map(Path::to_path_buf).unwrap_or_else(|| PathBuf::from("."));
        match File::open(&dir) {
            Ok(handle) => handle.sync_all().map_err(|e| io_err("fsync dir", &dir, e)),
            Err(_) => Ok(()),
        }
    }
}

impl LogDevice for FsDevice {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        if self.dead {
            return Err(dead());
        }
        self.file
            .write_all(bytes)
            .map_err(|e| io_err("append to log", &self.path, e))?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        if self.dead {
            return Err(dead());
        }
        self.file
            .sync_all()
            .map_err(|e| io_err("fsync log", &self.path, e))
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn durable_contents(&self) -> Result<Vec<u8>> {
        // Read through a fresh handle so the append cursor is untouched.
        let mut file =
            File::open(&self.path).map_err(|e| io_err("read log", &self.path, e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| io_err("read log", &self.path, e))?;
        Ok(bytes)
    }

    fn truncate(&mut self, len: u64) -> Result<()> {
        if self.dead {
            return Err(dead());
        }
        self.file
            .set_len(len)
            .map_err(|e| io_err("truncate log", &self.path, e))?;
        self.file
            .seek(SeekFrom::Start(len))
            .map_err(|e| io_err("seek log", &self.path, e))?;
        self.file
            .sync_all()
            .map_err(|e| io_err("fsync log", &self.path, e))?;
        self.len = len;
        Ok(())
    }

    fn replace(&mut self, bytes: &[u8]) -> Result<()> {
        if self.dead {
            return Err(dead());
        }
        // Write the new segment beside the old one, make it durable, then
        // rename over the old segment: a crash at any point leaves either
        // the old complete segment or the new complete segment.
        let tmp = self.path.with_extension("rotate.tmp");
        {
            let mut out = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
            out.write_all(bytes).map_err(|e| io_err("write", &tmp, e))?;
            out.sync_all().map_err(|e| io_err("fsync", &tmp, e))?;
        }
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| io_err("rename new segment over", &self.path, e))?;
        self.sync_dir()?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(|e| io_err("reopen log", &self.path, e))?;
        self.len = file
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek log", &self.path, e))?;
        self.file = file;
        Ok(())
    }

    fn crash(&mut self) {
        self.dead = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MemDevice {
        /// Bytes appended but not yet covered by a sync (would be lost now).
        fn unsynced_len(&self) -> usize {
            self.buf.len() - self.synced
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("relstore_device_tests_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn mem_device_loses_unsynced_bytes() {
        let mut dev = MemDevice::new();
        dev.append(b"durable").unwrap();
        dev.sync().unwrap();
        dev.append(b" volatile").unwrap();
        assert_eq!(dev.len(), 16);
        assert_eq!(dev.unsynced_len(), 9);
        assert_eq!(dev.durable_contents().unwrap(), b"durable");
        dev.crash();
        assert!(dev.append(b"x").is_err());
        assert!(dev.sync().is_err());
        assert_eq!(dev.durable_contents().unwrap(), b"durable", "post-mortem view");
    }

    #[test]
    fn mem_device_truncate_and_replace() {
        let mut dev = MemDevice::with_contents(b"0123456789".to_vec());
        dev.truncate(4).unwrap();
        assert_eq!(dev.durable_contents().unwrap(), b"0123");
        dev.replace(b"fresh").unwrap();
        assert_eq!(dev.durable_contents().unwrap(), b"fresh");
        assert_eq!(dev.len(), 5);
    }

    #[test]
    fn fs_device_round_trips_through_reopen() {
        let path = temp_path("roundtrip.log");
        std::fs::remove_file(&path).ok();
        {
            let mut dev = FsDevice::open(&path).unwrap();
            assert!(dev.is_empty());
            dev.append(b"hello ").unwrap();
            dev.append(b"world").unwrap();
            dev.sync().unwrap();
        }
        {
            let mut dev = FsDevice::open(&path).unwrap();
            assert_eq!(dev.len(), 11);
            assert_eq!(dev.durable_contents().unwrap(), b"hello world");
            dev.truncate(5).unwrap();
            dev.append(b"!").unwrap();
            dev.sync().unwrap();
            assert_eq!(dev.durable_contents().unwrap(), b"hello!");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fs_device_replace_is_a_rename() {
        let path = temp_path("replace.log");
        std::fs::remove_file(&path).ok();
        let mut dev = FsDevice::open(&path).unwrap();
        dev.append(b"old segment full of records").unwrap();
        dev.sync().unwrap();
        dev.replace(b"new segment").unwrap();
        assert_eq!(dev.durable_contents().unwrap(), b"new segment");
        assert_eq!(dev.len(), 11);
        // Appends continue on the new segment.
        dev.append(b"+tail").unwrap();
        dev.sync().unwrap();
        assert_eq!(dev.durable_contents().unwrap(), b"new segment+tail");
        // No temp file is left behind.
        assert!(!path.with_extension("rotate.tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dead_fs_device_refuses_mutation() {
        let path = temp_path("dead.log");
        std::fs::remove_file(&path).ok();
        let mut dev = FsDevice::open(&path).unwrap();
        dev.append(b"x").unwrap();
        dev.sync().unwrap();
        dev.crash();
        assert!(matches!(dev.append(b"y").unwrap_err(), Error::Io(_)));
        assert!(matches!(dev.sync().unwrap_err(), Error::Io(_)));
        assert!(matches!(dev.truncate(0).unwrap_err(), Error::Io(_)));
        assert!(matches!(dev.replace(b"z").unwrap_err(), Error::Io(_)));
        assert_eq!(dev.durable_contents().unwrap(), b"x");
        std::fs::remove_file(&path).ok();
    }
}
