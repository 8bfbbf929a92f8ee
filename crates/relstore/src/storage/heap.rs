//! Paged table heaps: the durable, buffer-pool-mediated mirror of every
//! committed row.
//!
//! The in-memory [`Table`](crate::table::Table) (MVCC chains, indexes)
//! remains the query representation; this engine keeps an equivalent row
//! heap on pages so the dataset survives reopen without replaying the whole
//! history. The coupling is **no-steal**: uncommitted changes never reach a
//! page. Each transaction's row-level log records are buffered
//! ([`PagedEngine::capture`]) and applied to pages only at commit
//! ([`PagedEngine::apply_commit`]) — a rollback just discards the buffer,
//! and a crash can never leave uncommitted bytes in the page file.
//!
//! [`PagedEngine::apply_record`] is deliberately **idempotent** (insert is
//! an upsert, delete ignores an absent row): commit-time application and
//! recovery's WAL-suffix replay share the same code path, and replaying a
//! record whose effect already reached the pages is harmless.
//!
//! Rows larger than a page spill to a chain of overflow pages; the heap
//! cell then holds a stub pointing at the chain head. Chain pages are
//! written through to the store at creation and are immutable afterwards,
//! so a durable stub always finds its chain on disk.
//!
//! Freed pages (dropped tables, released overflow chains) are **not**
//! reused immediately: they sit in a pending list until the next
//! checkpoint flush. Reusing a page before the operation that freed it is
//! durable could leave a crashed page file with a stale cell pointing into
//! an unrelated page; deferring reuse until a flush has made every
//! deletion durable closes that window, and [`PagedEngine::load`] reclaims
//! whatever a crash stranded (stale stubs, orphaned chains) knowing the
//! WAL suffix always carries the covering records.

use super::buffer::BufferPool;
use super::page::{self, CellBody, PageKind};
use crate::error::{Error, Result};
use crate::io::codec::{put_row, Reader};
use crate::stats::OpStats;
use crate::tuple::{Row, RowId};
use crate::wal::{LogRecord, TxnId, Wal};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Where one row's cell lives: page number and slot index.
type RowSlot = (u64, u16);

/// Per-table heap state: which pages the table owns, and where each row is.
#[derive(Debug, Default)]
struct HeapTable {
    /// Pages owned by this table, in allocation order. Inserts try the last
    /// one first; earlier pages are refilled only via slot reuse after the
    /// last page fills (kept simple deliberately — see module docs).
    pages: Vec<u64>,
    rows: HashMap<RowId, RowSlot>,
}

/// The paged-heap engine: buffer pool + per-table page directories +
/// per-transaction pending buffers.
#[derive(Debug)]
pub(crate) struct PagedEngine {
    pool: BufferPool,
    tables: HashMap<String, HeapTable>,
    /// Reusable page numbers (freed by drops and released overflow chains,
    /// already covered by a durable flush).
    free: Vec<u64>,
    /// Pages freed since the last checkpoint flush: allocatable only once
    /// [`PagedEngine::checkpoint_flush`] has made the freeing deletions
    /// durable (see module docs).
    pending_free: Vec<u64>,
    /// No-steal buffers: row-level records per open transaction.
    pending: HashMap<TxnId, Vec<LogRecord>>,
    /// Live overflow pages right now (reported as a high-water gauge).
    overflow_pages: u64,
    /// First apply failure: the page image may be ahead of or behind the
    /// heap directory, so every later mutation reports the original error.
    poisoned: Option<Error>,
}

impl PagedEngine {
    pub(crate) fn new(pool: BufferPool) -> PagedEngine {
        PagedEngine {
            pool,
            tables: HashMap::new(),
            free: Vec::new(),
            pending_free: Vec::new(),
            pending: HashMap::new(),
            overflow_pages: 0,
            poisoned: None,
        }
    }

    fn check_poisoned(&self) -> Result<()> {
        match &self.poisoned {
            Some(e) => Err(Error::io(format!(
                "paged engine poisoned by earlier failure: {e}"
            ))),
            None => Ok(()),
        }
    }

    /// The buffer pool (store accessors for tests and recovery).
    pub(crate) fn pool(&mut self) -> &mut BufferPool {
        &mut self.pool
    }

    /// Live overflow pages right now.
    pub(crate) fn overflow_pages(&self) -> u64 {
        self.overflow_pages
    }

    // --- no-steal pending buffers ------------------------------------

    /// Buffers a transaction's row-level records until commit.
    pub(crate) fn capture(&mut self, txn: TxnId, records: &[LogRecord]) {
        self.pending
            .entry(txn)
            .or_default()
            .extend(records.iter().cloned());
    }

    /// Drops a transaction's buffer (rollback): nothing reached the pages.
    pub(crate) fn discard(&mut self, txn: TxnId) {
        self.pending.remove(&txn);
    }

    /// Applies a committed transaction's buffered records to the pages.
    /// Called after the Commit record is appended to the WAL; evictions
    /// inside flush the WAL first (see [`BufferPool`]), preserving
    /// WAL-before-data. An error poisons the engine — the commit must not
    /// be acknowledged.
    pub(crate) fn apply_commit(
        &mut self,
        txn: TxnId,
        wal: &mut Wal,
        stats: &mut OpStats,
    ) -> Result<()> {
        self.check_poisoned()?;
        let Some(records) = self.pending.remove(&txn) else {
            return Ok(()); // read-only commit
        };
        for rec in &records {
            if let Err(e) = self.apply_record(rec, wal, stats) {
                if self.poisoned.is_none() {
                    self.poisoned = Some(e.clone());
                }
                return Err(e);
            }
        }
        stats.overflow_pages = stats.overflow_pages.max(self.overflow_pages());
        Ok(())
    }

    /// Applies one row-level record to the pages, idempotently: shared by
    /// commit-time application and recovery replay.
    pub(crate) fn apply_record(
        &mut self,
        rec: &LogRecord,
        wal: &mut Wal,
        stats: &mut OpStats,
    ) -> Result<()> {
        match rec {
            LogRecord::CreateTable { schema, .. } => {
                self.create_table(&schema.name);
                Ok(())
            }
            LogRecord::DropTable { table, .. } => self.drop_table(table, wal, stats),
            LogRecord::Insert {
                table, row_id, row, ..
            } => self.upsert(table, *row_id, row, wal, stats),
            LogRecord::Update {
                table,
                row_id,
                after,
                ..
            } => self.upsert(table, *row_id, after, wal, stats),
            LogRecord::Delete { table, row_id, .. } => self.remove(table, *row_id, wal, stats),
            LogRecord::Batch { changes, .. } => {
                for c in changes {
                    self.apply_record(c, wal, stats)?;
                }
                Ok(())
            }
            // Transaction markers and checkpoints carry no row data.
            LogRecord::Begin { .. }
            | LogRecord::Commit { .. }
            | LogRecord::Abort { .. }
            | LogRecord::Checkpoint { .. } => Ok(()),
        }
    }

    // --- heap operations ----------------------------------------------

    /// Registers a table heap (idempotent; pages are allocated lazily).
    pub(crate) fn create_table(&mut self, name: &str) {
        self.tables.entry(name.to_string()).or_default();
    }

    fn alloc_page(&mut self) -> u64 {
        self.free
            .pop()
            .unwrap_or_else(|| self.pool.store().allocate())
    }

    /// Largest row payload that still fits inline in a fresh page of this
    /// table (header + name + one slot entry + the cell's id/flag prefix).
    fn max_inline(&self, name_len: usize) -> usize {
        self.pool.page_size() - page::PAGE_HEADER - name_len - 4 - 9
    }

    /// Inserts or replaces `row` under `row_id`. The replace path first
    /// removes the old cell (releasing any overflow chain), so the heap
    /// never holds two cells for one row id.
    pub(crate) fn upsert(
        &mut self,
        table: &str,
        row_id: RowId,
        row: &Row,
        wal: &mut Wal,
        stats: &mut OpStats,
    ) -> Result<()> {
        if self
            .tables
            .get(table)
            .is_some_and(|t| t.rows.contains_key(&row_id))
        {
            self.remove(table, row_id, wal, stats)?;
        }
        self.create_table(table);

        let mut payload = Vec::new();
        put_row(&mut payload, row);
        let cell = if payload.len() > self.max_inline(table.len()) {
            // Spill the payload to an overflow chain, built last-to-first
            // so each page links to the next with a single pass.
            let chunk_size = page::overflow_capacity(self.pool.page_size());
            let mut next = 0u64;
            let mut chain = Vec::new();
            for chunk in payload.chunks(chunk_size).rev() {
                let page_no = self.alloc_page();
                let idx = self.pool.create(page_no, wal, stats)?;
                page::init_overflow(self.pool.frame_mut(idx), chunk, next);
                next = page_no;
                chain.push(page_no);
                self.overflow_pages += 1;
            }
            // Written through immediately: eviction can make the heap page
            // holding the stub durable at any moment, and recovery must
            // never find a stub whose chain is not on disk. Chain pages are
            // immutable after this, so the early write is never wasted.
            self.pool.flush_pages(&chain, wal, stats)?;
            page::encode_overflow_stub(row_id, next, payload.len() as u32)
        } else {
            page::encode_inline(row_id, row)
        };

        // Place the cell: last page of the table if it fits, else a fresh
        // page (reusing the freelist before growing the file).
        let last = self.tables[table].pages.last().copied();
        let (page_no, idx) = match last {
            Some(p) => {
                let idx = self.pool.acquire(p, wal, stats)?;
                if page::can_fit(self.pool.frame(idx), cell.len()) {
                    (p, idx)
                } else {
                    self.fresh_heap_page(table, wal, stats)?
                }
            }
            None => self.fresh_heap_page(table, wal, stats)?,
        };
        let slot = page::insert(self.pool.frame_mut(idx), &cell).ok_or_else(|| {
            Error::internal(format!(
                "row cell of {} byte(s) does not fit an empty page",
                cell.len()
            ))
        })?;
        let heap = self.tables.get_mut(table).expect("created above");
        heap.rows.insert(row_id, (page_no, slot));
        stats.overflow_pages = stats.overflow_pages.max(self.overflow_pages());
        Ok(())
    }

    fn fresh_heap_page(
        &mut self,
        table: &str,
        wal: &mut Wal,
        stats: &mut OpStats,
    ) -> Result<(u64, usize)> {
        let page_no = self.alloc_page();
        let idx = self.pool.create(page_no, wal, stats)?;
        page::init(self.pool.frame_mut(idx), PageKind::Heap, table);
        self.tables
            .get_mut(table)
            .expect("caller registered the table")
            .pages
            .push(page_no);
        Ok((page_no, idx))
    }

    /// Deletes `row_id`'s cell if present (idempotent), releasing its
    /// overflow chain back to the freelist.
    pub(crate) fn remove(
        &mut self,
        table: &str,
        row_id: RowId,
        wal: &mut Wal,
        stats: &mut OpStats,
    ) -> Result<()> {
        let Some(&(page_no, slot)) = self.tables.get(table).and_then(|t| t.rows.get(&row_id))
        else {
            return Ok(());
        };
        let idx = self.pool.acquire(page_no, wal, stats)?;
        let (_, body) = page::decode_cell(page::record(self.pool.frame(idx), slot)?)?;
        page::delete(self.pool.frame_mut(idx), slot);
        if let CellBody::Overflow { head, .. } = body {
            self.free_overflow_chain(head, wal, stats)?;
        }
        self.tables
            .get_mut(table)
            .expect("checked above")
            .rows
            .remove(&row_id);
        Ok(())
    }

    fn free_overflow_chain(
        &mut self,
        head: u64,
        wal: &mut Wal,
        stats: &mut OpStats,
    ) -> Result<()> {
        let mut p = head;
        while p != 0 {
            let idx = self.pool.acquire(p, wal, stats)?;
            let next = page::next(self.pool.frame(idx));
            page::init(self.pool.frame_mut(idx), PageKind::Free, "");
            self.pending_free.push(p);
            self.overflow_pages = self.overflow_pages.saturating_sub(1);
            p = next;
        }
        Ok(())
    }

    /// Drops a table heap: every owned page (and every overflow chain its
    /// rows held) is marked Free and queued for reuse after the next
    /// checkpoint flush. Idempotent.
    pub(crate) fn drop_table(
        &mut self,
        table: &str,
        wal: &mut Wal,
        stats: &mut OpStats,
    ) -> Result<()> {
        let Some(heap) = self.tables.remove(table) else {
            return Ok(());
        };
        let mut chains = Vec::new();
        for &page_no in &heap.pages {
            let idx = self.pool.acquire(page_no, wal, stats)?;
            for slot in 0..page::slot_count(self.pool.frame(idx)) {
                let Ok(cell) = page::record(self.pool.frame(idx), slot) else {
                    continue; // dead slot
                };
                if let (_, CellBody::Overflow { head, .. }) = page::decode_cell(cell)? {
                    chains.push(head);
                }
            }
            page::init(self.pool.frame_mut(idx), PageKind::Free, "");
            self.pending_free.push(page_no);
        }
        for head in chains {
            self.free_overflow_chain(head, wal, stats)?;
        }
        Ok(())
    }

    // --- checkpoint & recovery ----------------------------------------

    /// Flushes every dirty frame in one journaled batch (WAL first). After
    /// this the page file is self-contained up to the flushed state, so the
    /// pages freed since the last flush become safely reusable: every
    /// deletion that freed them is durable now.
    pub(crate) fn checkpoint_flush(&mut self, wal: &mut Wal, stats: &mut OpStats) -> Result<()> {
        self.check_poisoned()?;
        if let Err(e) = self.pool.flush_all(wal, stats) {
            if self.poisoned.is_none() {
                self.poisoned = Some(e.clone());
            }
            return Err(e);
        }
        self.free.append(&mut self.pending_free);
        Ok(())
    }

    /// Scans the page file at open: verifies every page's checksum, builds
    /// the heap directory (pages, row slots, freelist, overflow count), and
    /// returns the decoded rows per table for the recovery to bulk-load.
    /// Reads go straight through the store — the pool stays cold.
    ///
    /// A crash can strand inconsistencies *between* pages even though every
    /// page verifies: a duplicate cell for a row whose relocation only half
    /// flushed, a stub whose freed chain out-flushed the stub's deletion, an
    /// overflow chain no stub reaches. Every one of these is provably
    /// covered by the committed WAL suffix (the last checkpoint flushed a
    /// mutually consistent image, and anything later has its records still
    /// in the log), so the scan repairs them — dropping the stale cell,
    /// reclaiming the stranded pages — and leaves the replay to restore the
    /// authoritative row state. Intra-page damage is still a typed
    /// [`Error::Corruption`](crate::error::Error).
    pub(crate) fn load(
        &mut self,
        wal: &mut Wal,
        stats: &mut OpStats,
    ) -> Result<BTreeMap<String, Vec<(RowId, Row)>>> {
        let page_size = self.pool.page_size();
        let page_count = self.pool.store().page_count();
        let mut buf = vec![0u8; page_size];
        let mut rows: BTreeMap<String, BTreeMap<RowId, Row>> = BTreeMap::new();
        // Overflow stubs are resolved in a second pass: the chain pages may
        // sit anywhere relative to the heap page that references them.
        let mut stubs: Vec<(String, RowId, u64, u32)> = Vec::new();
        let mut overflow_seen: HashSet<u64> = HashSet::new();
        let mut ghosts: Vec<RowSlot> = Vec::new();
        for page_no in 1..page_count {
            if !self.pool.store().read_page_if_written(page_no, &mut buf)? {
                // An allocated-but-never-flushed hole: reclaimable space.
                self.pending_free.push(page_no);
                continue;
            }
            stats.pages_read += 1;
            match page::kind(&buf)? {
                // Everything reclaimed at open waits out one checkpoint
                // flush like any other freed page: a stale stub this scan is
                // about to drop may still reference it durably, and reuse
                // must not out-flush that repair.
                PageKind::Free => self.pending_free.push(page_no),
                PageKind::Overflow => {
                    overflow_seen.insert(page_no);
                }
                PageKind::Meta => {
                    return Err(Error::corruption(format!(
                        "unexpected meta page at page {page_no}"
                    )))
                }
                PageKind::Heap => {
                    let name = page::table_name(&buf)?.to_string();
                    let heap = self.tables.entry(name.clone()).or_default();
                    heap.pages.push(page_no);
                    for slot in 0..page::slot_count(&buf) {
                        let Ok(cell) = page::record(&buf, slot) else {
                            continue; // dead slot
                        };
                        let (row_id, body) = page::decode_cell(cell)?;
                        if heap.rows.contains_key(&row_id) {
                            // A half-flushed relocation left two cells for
                            // this row: keep the first, drop this one — the
                            // suffix replay re-applies the authoritative
                            // value either way.
                            ghosts.push((page_no, slot));
                            continue;
                        }
                        heap.rows.insert(row_id, (page_no, slot));
                        match body {
                            CellBody::Inline(row) => {
                                rows.entry(name.clone()).or_default().insert(row_id, row);
                            }
                            CellBody::Overflow { head, total } => {
                                stubs.push((name.clone(), row_id, head, total))
                            }
                        }
                    }
                    rows.entry(name).or_default();
                }
            }
        }
        let mut visited: HashSet<u64> = HashSet::new();
        for (name, row_id, head, total) in stubs {
            // Chain pages join `visited` only when the whole walk succeeds,
            // so a stale chain's surviving pages fall out as orphans below.
            let mut walk = Vec::new();
            let mut payload = Vec::with_capacity(total as usize);
            let mut stale = false;
            let mut p = head;
            while p != 0 {
                if !overflow_seen.contains(&p) {
                    // The chain was freed after this stub's page last
                    // flushed: the stub is stale, and the committed suffix
                    // carries the delete (or relocation) that freed it.
                    stale = true;
                    break;
                }
                self.pool.store().read_page(p, &mut buf)?;
                stats.pages_read += 1;
                payload.extend_from_slice(page::overflow_chunk(&buf)?);
                walk.push(p);
                p = page::next(&buf);
            }
            if stale {
                let heap = self.tables.get_mut(&name).expect("scanned above");
                ghosts.push(heap.rows.remove(&row_id).expect("registered above"));
                rows.entry(name).or_default().remove(&row_id);
                continue;
            }
            if payload.len() != total as usize {
                return Err(Error::corruption(format!(
                    "overflow chain of row {} in '{name}' holds {} byte(s), stub claims {total}",
                    row_id.0,
                    payload.len()
                )));
            }
            visited.extend(walk);
            let row = Reader::new(&payload).row()?;
            rows.entry(name).or_default().insert(row_id, row);
        }
        // Overflow pages no surviving stub reaches are stranded — their stub
        // was dropped above, or its deletion out-flushed the chain's free.
        for p in overflow_seen {
            if visited.contains(&p) {
                self.overflow_pages += 1;
            } else {
                self.pending_free.push(p);
            }
        }
        // Physically drop the stale cells so they cannot resurface at the
        // next open (flushed with everything else at the next checkpoint).
        for (page_no, slot) in ghosts {
            let idx = self.pool.acquire(page_no, wal, stats)?;
            page::delete(self.pool.frame_mut(idx), slot);
        }
        stats.overflow_pages = stats.overflow_pages.max(self.overflow_pages());
        Ok(rows
            .into_iter()
            .map(|(name, rows)| (name, rows.into_iter().collect()))
            .collect())
    }

    /// Resets the page file to empty heaps: every data page is reinitialised
    /// as Free and the directory cleared. Used when recovery decides the WAL
    /// is authoritative (legacy log with a full-row checkpoint) and the page
    /// file must be rebuilt from it.
    pub(crate) fn clear_all(&mut self, wal: &mut Wal, stats: &mut OpStats) -> Result<()> {
        let page_count = self.pool.store().page_count();
        self.pool.clear();
        self.tables.clear();
        self.free.clear();
        self.pending_free.clear();
        self.overflow_pages = 0;
        for page_no in 1..page_count {
            let idx = self.pool.create(page_no, wal, stats)?;
            page::init(self.pool.frame_mut(idx), PageKind::Free, "");
            self.free.push(page_no);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{DurabilityPolicy, Failpoints, MemDevice};
    use crate::storage::device::MemBlockDevice;
    use crate::storage::pagestore::PageStore;
    use crate::value::Value;
    use std::sync::Arc;

    fn engine(pool_pages: usize) -> (PagedEngine, Wal) {
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
        (PagedEngine::new(BufferPool::new(store, pool_pages)), wal)
    }

    fn reopen(engine: &mut PagedEngine) -> (PagedEngine, BTreeMap<String, Vec<(RowId, Row)>>) {
        let pages = engine.pool().store().durable_page_bytes().unwrap();
        let journal = engine.pool().store().durable_journal_bytes().unwrap();
        let store = PageStore::open(
            Box::new(MemBlockDevice::with_contents(pages)),
            Box::new(MemDevice::with_contents(journal)),
            Arc::new(Failpoints::new()),
            512,
        )
        .unwrap();
        let mut fresh = PagedEngine::new(BufferPool::new(store, 4));
        let (mut wal, _) = Wal::open_device(
            Box::new(MemDevice::new()),
            DurabilityPolicy::Always,
            Arc::new(Failpoints::new()),
            &mut OpStats::default(),
        )
        .unwrap();
        let loaded = fresh.load(&mut wal, &mut OpStats::default()).unwrap();
        (fresh, loaded)
    }

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int(i), Value::Text(format!("v{i}").into())])
    }

    #[test]
    fn upsert_remove_survive_reopen() {
        let (mut eng, mut wal) = engine(4);
        let mut stats = OpStats::default();
        eng.create_table("jobs");
        for i in 0..50 {
            eng.upsert("jobs", RowId(i), &row(i as i64), &mut wal, &mut stats)
                .unwrap();
        }
        eng.remove("jobs", RowId(7), &mut wal, &mut stats).unwrap();
        eng.upsert("jobs", RowId(3), &row(333), &mut wal, &mut stats)
            .unwrap();
        eng.checkpoint_flush(&mut wal, &mut stats).unwrap();

        let (_, loaded) = reopen(&mut eng);
        let jobs = &loaded["jobs"];
        assert_eq!(jobs.len(), 49);
        assert!(!jobs.iter().any(|(id, _)| *id == RowId(7)));
        let updated = jobs.iter().find(|(id, _)| *id == RowId(3)).unwrap();
        assert_eq!(updated.1.get(0), &Value::Int(333));
    }

    #[test]
    fn oversized_rows_take_the_overflow_path() {
        let (mut eng, mut wal) = engine(4);
        let mut stats = OpStats::default();
        eng.create_table("blobs");
        let big = Row::new(vec![Value::Int(1), Value::Text("x".repeat(2000).into())]);
        eng.upsert("blobs", RowId(1), &big, &mut wal, &mut stats)
            .unwrap();
        assert!(eng.overflow_pages() >= 4, "2000B over 488B chunks");
        assert!(stats.overflow_pages >= 4, "gauge recorded");
        eng.checkpoint_flush(&mut wal, &mut stats).unwrap();

        let (mut eng2, loaded) = reopen(&mut eng);
        assert_eq!(loaded["blobs"].len(), 1);
        assert_eq!(loaded["blobs"][0].1.get(1), &Value::Text("x".repeat(2000).into()));
        assert_eq!(eng2.overflow_pages(), eng.overflow_pages());

        // Deleting the row releases the chain — allocatable only after the
        // next checkpoint flush makes the deletion durable.
        let before_pending = eng2.pending_free.len();
        eng2.remove("blobs", RowId(1), &mut wal, &mut stats).unwrap();
        assert_eq!(eng2.overflow_pages(), 0);
        assert!(eng2.pending_free.len() > before_pending);
        let before_free = eng2.free.len();
        eng2.checkpoint_flush(&mut wal, &mut stats).unwrap();
        assert!(eng2.free.len() > before_free);
        assert!(eng2.pending_free.is_empty());
    }

    #[test]
    fn drop_table_frees_pages_for_reuse() {
        let (mut eng, mut wal) = engine(4);
        let mut stats = OpStats::default();
        eng.create_table("a");
        for i in 0..30 {
            eng.upsert("a", RowId(i), &row(i as i64), &mut wal, &mut stats)
                .unwrap();
        }
        let grown = eng.pool().store().page_count();
        eng.drop_table("a", &mut wal, &mut stats).unwrap();
        assert!(eng.tables.is_empty());
        // Freed pages become allocatable once a checkpoint flush has made
        // the drop durable; after that a new table reuses them and the file
        // does not grow.
        eng.checkpoint_flush(&mut wal, &mut stats).unwrap();
        eng.create_table("b");
        for i in 0..30 {
            eng.upsert("b", RowId(i), &row(i as i64), &mut wal, &mut stats)
                .unwrap();
        }
        assert_eq!(eng.pool().store().page_count(), grown);
        eng.checkpoint_flush(&mut wal, &mut stats).unwrap();
        let (_, loaded) = reopen(&mut eng);
        assert!(!loaded.contains_key("a"));
        assert_eq!(loaded["b"].len(), 30);
    }

    #[test]
    fn pending_buffers_apply_on_commit_and_discard_on_rollback() {
        let (mut eng, mut wal) = engine(4);
        let mut stats = OpStats::default();
        eng.create_table("t");
        let t1 = TxnId(1);
        let t2 = TxnId(2);
        eng.capture(
            t1,
            &[LogRecord::Insert {
                txn: t1,
                table: "t".into(),
                row_id: RowId(1),
                row: row(1),
            }],
        );
        eng.capture(
            t2,
            &[LogRecord::Insert {
                txn: t2,
                table: "t".into(),
                row_id: RowId(2),
                row: row(2),
            }],
        );
        eng.discard(t2);
        eng.apply_commit(t1, &mut wal, &mut stats).unwrap();
        eng.apply_commit(t2, &mut wal, &mut stats).unwrap(); // no-op
        eng.checkpoint_flush(&mut wal, &mut stats).unwrap();
        let (_, loaded) = reopen(&mut eng);
        assert_eq!(loaded["t"].len(), 1, "rolled-back insert never landed");
        assert_eq!(loaded["t"][0].0, RowId(1));
    }
}
