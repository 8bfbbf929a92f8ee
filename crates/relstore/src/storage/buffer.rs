//! The buffer pool: a bounded cache of page frames with clock eviction,
//! dirty tracking, and the WAL-before-data rule.
//!
//! Every page access goes through [`BufferPool::acquire`]; a miss reads the
//! page from the [`PageStore`] (checksum-verified), evicting a victim frame
//! if the pool is full. A **dirty victim must be written back** — and that
//! is the one place data can reach the page file ahead of the log, so the
//! pool flushes the WAL first whenever it has unsynced records
//! ([`Wal::is_synced`]). The invariant: *no page image ever becomes durable
//! before the WAL records that produced it.*
//!
//! Frames are never pinned: the paged heap acquires a frame, finishes with
//! it, and only then acquires the next, so the victim scan can consider
//! every frame. Clock (second-chance) eviction keeps the hot set resident;
//! `buffer_hits` / `buffer_evictions` counters make the hit rate visible in
//! `OpStats`.

use super::pagestore::PageStore;
use crate::error::Result;
use crate::stats::OpStats;
use crate::wal::Wal;
use std::collections::HashMap;

#[derive(Debug)]
struct Frame {
    page_no: u64,
    data: Vec<u8>,
    dirty: bool,
    /// Second-chance bit: set on every touch, cleared by the clock sweep.
    ref_bit: bool,
}

/// A bounded pool of page frames over a [`PageStore`].
#[derive(Debug)]
pub struct BufferPool {
    store: PageStore,
    capacity: usize,
    frames: Vec<Frame>,
    /// page number → frame index.
    map: HashMap<u64, usize>,
    clock: usize,
}

impl BufferPool {
    /// A pool of at most `capacity` frames (min 1) over `store`.
    pub fn new(store: PageStore, capacity: usize) -> BufferPool {
        BufferPool {
            store,
            capacity: capacity.max(1),
            frames: Vec::new(),
            map: HashMap::new(),
            clock: 0,
        }
    }

    /// The page size of the underlying store.
    pub fn page_size(&self) -> usize {
        self.store.page_size()
    }

    /// The underlying store (allocation, post-mortem byte accessors).
    pub fn store(&mut self) -> &mut PageStore {
        &mut self.store
    }

    /// Read-only view of a resident frame.
    pub fn frame(&self, idx: usize) -> &[u8] {
        &self.frames[idx].data
    }

    /// Mutable view of a resident frame; marks it dirty.
    pub fn frame_mut(&mut self, idx: usize) -> &mut [u8] {
        self.frames[idx].dirty = true;
        &mut self.frames[idx].data
    }

    /// Brings `page_no` into the pool (from cache or disk) and returns its
    /// frame index. May evict — and therefore write back — another page,
    /// flushing the WAL first if needed.
    pub fn acquire(&mut self, page_no: u64, wal: &mut Wal, stats: &mut OpStats) -> Result<usize> {
        if let Some(&idx) = self.map.get(&page_no) {
            self.frames[idx].ref_bit = true;
            stats.buffer_hits += 1;
            return Ok(idx);
        }
        let idx = self.victim_frame(wal, stats)?;
        let page_size = self.store.page_size();
        self.frames[idx].data.resize(page_size, 0);
        self.store.read_page(page_no, &mut self.frames[idx].data)?;
        stats.pages_read += 1;
        self.install(idx, page_no);
        Ok(idx)
    }

    /// Claims a frame for a freshly allocated page without reading the
    /// store (the page has no on-disk image yet). The frame comes back
    /// zeroed and **clean** — the caller initialises it via
    /// [`frame_mut`](BufferPool::frame_mut), which marks it dirty.
    pub fn create(&mut self, page_no: u64, wal: &mut Wal, stats: &mut OpStats) -> Result<usize> {
        // A freed page being recycled may still be resident: reuse its frame
        // in place (the old image is dead by definition).
        let idx = match self.map.get(&page_no).copied() {
            Some(idx) => idx,
            None => self.victim_frame(wal, stats)?,
        };
        let page_size = self.store.page_size();
        self.frames[idx].data.clear();
        self.frames[idx].data.resize(page_size, 0);
        self.install(idx, page_no);
        Ok(idx)
    }

    fn install(&mut self, idx: usize, page_no: u64) {
        self.frames[idx].page_no = page_no;
        self.frames[idx].dirty = false;
        self.frames[idx].ref_bit = true;
        self.map.insert(page_no, idx);
    }

    /// Finds a frame to (re)use: grows the pool while under capacity, else
    /// runs the clock sweep and evicts the victim (writing it back if
    /// dirty, behind the WAL gate).
    fn victim_frame(&mut self, wal: &mut Wal, stats: &mut OpStats) -> Result<usize> {
        if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                page_no: u64::MAX,
                data: Vec::new(),
                dirty: false,
                ref_bit: false,
            });
            return Ok(self.frames.len() - 1);
        }
        // Clock sweep: clear reference bits until a frame without one comes
        // around. Two full sweeps bound the loop even if every bit is set.
        let idx = loop {
            let i = self.clock;
            self.clock = (self.clock + 1) % self.frames.len();
            if self.frames[i].ref_bit {
                self.frames[i].ref_bit = false;
            } else {
                break i;
            }
        };
        let victim = &self.frames[idx];
        if victim.dirty {
            // WAL-before-data: the records that dirtied this page must be
            // durable before its image is. The write-back is the expensive
            // part of recycling a frame, so it is what `eviction_nanos`
            // measures (and what statement wait breakdowns report).
            let sw = crate::obs::clock::Stopwatch::start();
            if !wal.is_synced() {
                wal.flush(stats)?;
            }
            let batch = [(victim.page_no, victim.data.as_slice())];
            self.store.write_batch(&batch)?;
            stats.eviction_nanos += sw.elapsed_nanos();
            stats.pages_written += 1;
            stats.buffer_evictions += 1;
        } else if victim.page_no != u64::MAX {
            stats.buffer_evictions += 1;
        }
        self.map.remove(&self.frames[idx].page_no);
        self.frames[idx].dirty = false;
        Ok(idx)
    }

    /// Writes every dirty frame back in one journaled batch (WAL flushed
    /// first), leaving the frames resident and clean. This is the
    /// checkpoint path: after it returns, the page file holds every
    /// committed change and the WAL prefix is redundant.
    pub fn flush_all(&mut self, wal: &mut Wal, stats: &mut OpStats) -> Result<()> {
        let dirty: Vec<(u64, &[u8])> = self
            .frames
            .iter()
            .filter(|f| f.dirty)
            .map(|f| (f.page_no, f.data.as_slice()))
            .collect();
        if dirty.is_empty() {
            return Ok(());
        }
        if !wal.is_synced() {
            wal.flush(stats)?;
        }
        let written = dirty.len() as u64;
        self.store.write_batch(&dirty)?;
        stats.pages_written += written;
        for f in &mut self.frames {
            f.dirty = false;
        }
        Ok(())
    }

    /// Writes the listed pages through to the store now (one journaled
    /// batch, WAL flushed first) if they are resident and dirty, leaving
    /// them resident and clean. Pages already evicted were written back at
    /// eviction and are skipped. The overflow path uses this to keep a
    /// chain at least as durable as the stub that references it — a
    /// stub-bearing heap page can be evicted (and become durable) at any
    /// moment.
    pub fn flush_pages(&mut self, pages: &[u64], wal: &mut Wal, stats: &mut OpStats) -> Result<()> {
        let dirty: Vec<(u64, &[u8])> = pages
            .iter()
            .filter_map(|p| {
                let f = &self.frames[*self.map.get(p)?];
                f.dirty.then_some((f.page_no, f.data.as_slice()))
            })
            .collect();
        if dirty.is_empty() {
            return Ok(());
        }
        if !wal.is_synced() {
            wal.flush(stats)?;
        }
        let written = dirty.len() as u64;
        self.store.write_batch(&dirty)?;
        stats.pages_written += written;
        for p in pages {
            if let Some(&idx) = self.map.get(p) {
                self.frames[idx].dirty = false;
            }
        }
        Ok(())
    }

    /// Number of frames currently resident.
    pub fn resident(&self) -> usize {
        self.map.len()
    }

    /// Drops every frame without writing anything — recovery uses this to
    /// reload a store the journal may just have healed.
    pub fn clear(&mut self) {
        self.frames.clear();
        self.map.clear();
        self.clock = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{DurabilityPolicy, Failpoints, MemDevice};
    use crate::storage::device::MemBlockDevice;
    use crate::storage::page::{self, PageKind};
    use std::sync::Arc;

    fn pool(capacity: usize) -> (BufferPool, Wal) {
        let store = PageStore::open(
            Box::new(MemBlockDevice::new()),
            Box::new(MemDevice::new()),
            Arc::new(Failpoints::new()),
            512,
        )
        .unwrap();
        let (wal, _) = Wal::open_device(
            Box::new(MemDevice::new()),
            DurabilityPolicy::Always,
            Arc::new(Failpoints::new()),
            &mut OpStats::default(),
        )
        .unwrap();
        (BufferPool::new(store, capacity), wal)
    }

    #[test]
    fn hits_and_evictions_are_counted() {
        let (mut pool, mut wal) = pool(2);
        let mut stats = OpStats::default();
        let pages: Vec<u64> = (0..3)
            .map(|_| {
                let p = pool.store().allocate();
                let idx = pool.create(p, &mut wal, &mut stats).unwrap();
                page::init(pool.frame_mut(idx), PageKind::Heap, "t");
                p
            })
            .collect();
        // Three pages in a two-frame pool: the third create evicted one.
        assert_eq!(stats.buffer_evictions, 1);
        assert_eq!(stats.pages_written, 1, "the evicted frame was dirty");

        // Touch the resident page: a hit, no IO.
        let resident = pool.frames.iter().map(|f| f.page_no).collect::<Vec<_>>();
        let before_reads = stats.pages_read;
        pool.acquire(resident[0], &mut wal, &mut stats).unwrap();
        assert_eq!(stats.buffer_hits, 1);
        assert_eq!(stats.pages_read, before_reads);

        // Re-acquire the evicted page: a miss that reads from the store.
        let evicted = pages
            .iter()
            .find(|p| !resident.contains(p))
            .copied()
            .unwrap();
        pool.acquire(evicted, &mut wal, &mut stats).unwrap();
        assert_eq!(stats.pages_read, before_reads + 1);
        assert_eq!(pool.resident(), 2);
    }

    #[test]
    fn flush_all_persists_every_dirty_frame() {
        let (mut pool, mut wal) = pool(8);
        let mut stats = OpStats::default();
        let mut pages = Vec::new();
        for _ in 0..4 {
            let p = pool.store().allocate();
            let idx = pool.create(p, &mut wal, &mut stats).unwrap();
            page::init(pool.frame_mut(idx), PageKind::Heap, "jobs");
            pages.push(p);
        }
        pool.flush_all(&mut wal, &mut stats).unwrap();
        assert_eq!(stats.pages_written, 4);
        // Flushed frames are clean: a second flush writes nothing.
        pool.flush_all(&mut wal, &mut stats).unwrap();
        assert_eq!(stats.pages_written, 4);

        // The images round-trip through the store.
        let bytes = pool.store().durable_page_bytes().unwrap();
        let mut reopened = PageStore::open(
            Box::new(MemBlockDevice::with_contents(bytes)),
            Box::new(MemDevice::new()),
            Arc::new(Failpoints::new()),
            512,
        )
        .unwrap();
        let mut buf = vec![0u8; 512];
        for p in pages {
            reopened.read_page(p, &mut buf).unwrap();
            assert_eq!(page::table_name(&buf).unwrap(), "jobs");
        }
    }
}
