//! An append-friendly, window-aligned row store: one immutable segment per
//! batch.
//!
//! The DSMatrix conceptually extends every row by one bit per incoming
//! transaction and drops a prefix of every row when the window slides.  Doing
//! that literally rewrites `O(rows × window columns)` cells on every slide.
//! This store instead keeps the window as a queue of **batch segments**: each
//! ingested batch becomes one immutable segment holding, for every row that
//! has at least one set bit in the batch, that row's bit chunk for the
//! batch's columns.  A window slide is then
//!
//! * **append** one new segment (cost: only the rows the batch touches), and
//! * **drop** the oldest segment (cost: one file/map removal),
//!
//! so capture cost is `O(rows touched by the new batch + evicted columns)`
//! and unevicted row prefixes are never rewritten.
//!
//! # Read surface
//!
//! The write side has always been incremental; this module also keeps the
//! *read* side from paying full-window cost:
//!
//! * On the memory backend, segments hold decoded [`BitVec`] chunks
//!   ([`EpochSegment`]), shared by `Arc` with every epoch snapshot that
//!   covers them; readers that want a whole row concatenate its chunks into
//!   a flat [`BitVec`] ([`SegmentedWindowStore::assemble_row`]).
//! * On the disk backends a live read reaches a chunk one way:
//!   [`SegmentedWindowStore::assemble_row`] (or
//!   [`SegmentedWindowStore::read_segment_chunk`] for a single chunk)
//!   concatenates the row's chunks into a flat row
//!   ([`BitVec::extend_from_bitvec`]), fetching each through a budgeted
//!   decoded-chunk cache ([`crate::ChunkCache`],
//!   [`SegmentedWindowStore::set_cache_budget`]).  The cache is
//!   **write-through**: [`SegmentedWindowStore::push_segment`] offers every
//!   chunk it has written to the cache (admit-if-room), and a read miss
//!   offers what it decoded the same way.  Segments are immutable,
//!   so cached chunks stay valid until their segment is popped — which is
//!   also what makes room: a slide pops before it pushes, so the leaving
//!   segment's bytes admit the entering one's chunks.  With a budget
//!   covering the window a steady-state scan therefore fetches **no** pages;
//!   with a smaller one it fetches exactly the chunks that never fitted.
//!   A cached chunk is the value that was written, so serving it is what a
//!   hit has always been; whatever is *not* served from the cache is read
//!   from the segment's page file, every page CRC-verified before a byte of
//!   it is decoded (tight budgets, budget 0,
//!   [`SegmentedWindowStore::verify_segments`], recovery).  The budget buys
//!   page reads, never assembly.  Page fetches are counted in
//!   [`SegmentedWindowStore::pages_read`], cache hits in
//!   [`SegmentedWindowStore::cache_stats`]; a zero budget (the default)
//!   disables the cache — nothing is admitted, at write or at read — and
//!   reproduces fully-eager reads byte for byte.
//! * [`SegmentedWindowStore::generation`] is a monotonic counter bumped by
//!   every segment append or drop, so cached derivations of the window (the
//!   DSMatrix row cache) can tag themselves with the store state they
//!   reflect.
//!
//! Every write is counted in [`CaptureStats`], which is how the benchmark
//! harness (and the slide-cost tests) assert the incremental behaviour
//! instead of merely hoping for it.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::bitvec::BitVec;
use crate::chunkcache::{ChunkCache, ChunkCacheStats};
use crate::rowstore::{RowStore, StorageBackend};
use crate::temp::TempDir;
use fsm_types::{FsmError, Result};

const WORD_BITS: usize = 64;

/// Pages a row of `len` serialised bytes occupies (what one uncached read of
/// it fetches from the paged file).
fn pages_for(len: usize, page_size: usize) -> u64 {
    len.div_ceil(page_size) as u64
}

/// Cumulative capture-cost counters of a [`SegmentedWindowStore`].
///
/// `words_written` is the number of 64-bit words (including the 8-byte row
/// headers) serialised into the store since it was opened.  Differencing the
/// counter across two `push_segment` calls gives the exact write cost of one
/// window slide — the quantity the incremental design keeps proportional to
/// the entering batch rather than to the whole window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaptureStats {
    /// 64-bit words serialised into the store (row payloads + headers).
    pub words_written: u64,
    /// Individual row chunks written.
    pub rows_written: u64,
    /// Segments appended (one per ingested batch).
    pub segments_written: u64,
    /// Segments dropped by window eviction.
    pub segments_dropped: u64,
}

/// Durable metadata of one live segment, as recorded by a checkpoint and
/// consumed by [`SegmentedWindowStore::restore`].
///
/// Segment files are immutable once written, so this — the uid, the column
/// count and the row index — is all a checkpoint has to persist; the row
/// payloads stay where they are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Stable uid of the segment (names its file `seg-<uid>.pages`).
    pub uid: u64,
    /// Number of window columns the segment contributes.
    pub cols: usize,
    /// Row index entries `(row id, first page, byte length)`.
    pub rows: Vec<(usize, usize, usize)>,
}

/// Lists the segment files (`seg-<uid>.pages`) in `dir` as `(uid, path)`
/// pairs.  Checksum sidecars are not listed; they travel with their file.
pub fn scan_segment_files(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(uid) = name
            .strip_prefix("seg-")
            .and_then(|rest| rest.strip_suffix(".pages"))
            .and_then(|uid| uid.parse::<u64>().ok())
        else {
            continue;
        };
        out.push((uid, path));
    }
    out.sort_unstable();
    Ok(out)
}

/// Removes a segment file and its checksum sidecar (a missing sidecar is
/// tolerated: a crash can land between creating the two).
pub fn remove_segment_file(path: &Path) -> Result<()> {
    std::fs::remove_file(path)?;
    let sidecar = crate::paged::PagedFile::checksum_path(path);
    match std::fs::remove_file(&sidecar) {
        Ok(()) => Ok(()),
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(err) => Err(err.into()),
    }
}

/// One immutable, fully-decoded window segment, shareable across threads.
///
/// This is the unit an epoch snapshot holds: every live segment of the window
/// is published as an `Arc<EpochSegment>`, so readers keep the segment's data
/// alive for exactly as long as they reference it — a window slide drops the
/// *store's* `Arc` (and, on the disk backends, unlinks the backing file), but
/// the decoded rows survive until the last snapshot referencing the epoch is
/// dropped.  Segments are immutable once built, so sharing needs no locks:
/// `EpochSegment` is `Send + Sync` by construction.
///
/// On the memory backend the live segments *are* `EpochSegment`s (snapshots
/// are free `Arc` clones); on the disk backends a segment is decoded into
/// this form once, on the first snapshot that covers it, and memoised for
/// every later epoch (see [`SegmentedWindowStore::epoch_segment`]).
#[derive(Debug)]
pub struct EpochSegment {
    /// Stable uid of the segment (never reused; matches the chunk-cache key).
    uid: u64,
    /// Number of window columns (transactions) the segment contributes.
    cols: usize,
    /// Row chunks of the segment; rows without a set bit are absent.
    rows: BTreeMap<usize, BitVec>,
}

impl EpochSegment {
    /// The segment's stable uid (never reused across the store's lifetime).
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Number of window columns the segment contributes.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows the chunk of row `id`, or `None` if the segment never saw the
    /// row (its span reads as zeros).
    pub fn chunk(&self, id: usize) -> Option<&BitVec> {
        self.rows.get(&id)
    }

    /// Iterates the `(row id, chunk)` pairs in ascending row order.
    pub fn rows(&self) -> impl Iterator<Item = (usize, &BitVec)> {
        self.rows.iter().map(|(id, chunk)| (*id, chunk))
    }

    /// Number of rows the segment holds a chunk for.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Heap bytes of the decoded chunks (shared across every epoch that
    /// references the segment, not per snapshot).
    pub fn heap_bytes(&self) -> usize {
        self.rows
            .values()
            .map(|chunk| chunk.heap_bytes() + std::mem::size_of::<usize>() * 2)
            .sum()
    }
}

enum SegmentRows {
    /// Memory backend: decoded chunks, borrowable zero-copy and shared with
    /// epoch snapshots via `Arc`.
    Memory(Arc<EpochSegment>),
    /// Disk backends: serialised chunks in a paged file, plus the memoised
    /// decoded form the first covering snapshot produced (segments are
    /// immutable, so the memo can never go stale).
    Disk {
        store: RowStore,
        decoded: Option<Arc<EpochSegment>>,
    },
}

struct Segment {
    /// Stable uid of this segment (the chunk-cache key; never reused).
    id: u64,
    /// Number of window columns (transactions) this segment contributes.
    cols: usize,
    /// Row chunks of the segment; rows without a set bit are absent.
    rows: SegmentRows,
    /// Backing file to delete on eviction (disk backends only).
    path: Option<PathBuf>,
}

enum Placement {
    Memory,
    Disk {
        dir: PathBuf,
        /// Keeps the self-cleaning directory alive for `DiskTemp`.
        _tempdir: Option<TempDir>,
    },
}

/// Everything a disk chunk read touches, kept together so the read surfaces
/// can borrow it beside the segment queue: the buffers are reused across
/// calls, so a scan over many rows performs no steady-state allocation.
/// (`push_segment` admits to the same `cache` and writes `page_size` pages.)
struct ChunkReader {
    /// Reusable buffer a row chunk's pages are read into.
    buf: Vec<u8>,
    /// Reusable decoded chunk (what [`ChunkReader::read`] decodes into).
    chunk: BitVec,
    /// Budgeted decoded-chunk cache over the disk segments (disabled — and
    /// never consulted — with a zero budget or on the memory backend).
    cache: ChunkCache,
    /// Disk pages fetched by chunk reads so far.
    pages_read: u64,
    page_size: usize,
}

impl ChunkReader {
    fn new(page_size: usize) -> Self {
        Self {
            buf: Vec::new(),
            chunk: BitVec::new(),
            cache: ChunkCache::new(0),
            pages_read: 0,
            page_size,
        }
    }

    /// Reads row `id`'s chunk of a disk segment from its paged file into the
    /// scratch chunk, bypassing the cache — the one place a chunk read
    /// fetches, counts and decodes pages (each page CRC-verified by the
    /// store before this decodes it).  Admission is the caller's.
    fn read(&mut self, store: &mut RowStore, id: usize) -> Result<&BitVec> {
        store.get_row_into(id, &mut self.buf)?;
        self.pages_read += pages_for(self.buf.len(), self.page_size);
        if !self.chunk.read_bytes(&self.buf) {
            return Err(FsmError::corrupt(format!(
                "row {id} chunk failed to deserialise"
            )));
        }
        Ok(&self.chunk)
    }

    /// Appends row `id`'s chunk of disk segment `uid` to `out`: served from
    /// the cache on a hit, else read from the paged file and offered to the
    /// cache (which admits it if it has room).
    fn fetch(&mut self, uid: u64, store: &mut RowStore, id: usize, out: &mut BitVec) -> Result<()> {
        if let Some(cached) = self.cache.get(uid, id) {
            out.extend_from_bitvec(cached);
            return Ok(());
        }
        self.read(store, id)?;
        self.cache.insert(uid, id, &self.chunk);
        out.extend_from_bitvec(&self.chunk);
        Ok(())
    }
}

/// A queue of per-batch row segments backing one sliding window.
///
/// All three [`StorageBackend`]s are supported: `Memory` keeps segments as
/// decoded chunk maps (zero-copy readable), the disk backends write one paged
/// file per segment (so eviction is one `unlink`, never a rewrite of
/// surviving data).
pub struct SegmentedWindowStore {
    placement: Placement,
    segments: VecDeque<Segment>,
    next_id: u64,
    stats: CaptureStats,
    generation: u64,
    /// The disk segments' chunk read state (idle on the memory backend).
    reader: ChunkReader,
}

impl SegmentedWindowStore {
    /// Page size of the per-segment files.  Segments hold per-batch chunks
    /// (much smaller than whole-window rows), so the pages are smaller than
    /// [`crate::PagedFile::DEFAULT_PAGE_SIZE`].
    pub const SEGMENT_PAGE_SIZE: usize = 1024;

    /// Opens a store with the given backend.
    pub fn open(backend: StorageBackend) -> Result<Self> {
        let placement = match backend {
            StorageBackend::Memory => Placement::Memory,
            StorageBackend::DiskTemp => {
                let tempdir = TempDir::new("segstore")?;
                Placement::Disk {
                    dir: tempdir.path().to_path_buf(),
                    _tempdir: Some(tempdir),
                }
            }
            StorageBackend::DiskAt(path) => {
                std::fs::create_dir_all(&path)?;
                // Opening a fresh store at an explicit path is an explicit
                // truncation of whatever a previous run left there: stale
                // segment files would collide with the uids this store is
                // about to assign.  Recovery goes through
                // [`SegmentedWindowStore::restore`] instead, which *keeps*
                // referenced files.
                for (_, stale) in scan_segment_files(&path)? {
                    remove_segment_file(&stale)?;
                }
                Placement::Disk {
                    dir: path,
                    _tempdir: None,
                }
            }
        };
        Ok(Self {
            placement,
            segments: VecDeque::new(),
            next_id: 0,
            stats: CaptureStats::default(),
            generation: 0,
            reader: ChunkReader::new(Self::SEGMENT_PAGE_SIZE),
        })
    }

    /// Sets the decoded-chunk cache budget in bytes (`0` disables caching,
    /// reproducing fully-eager disk reads).  Shrinking the budget below the
    /// bytes in use evicts immediately.  The memory backend ignores the
    /// budget: its chunks are already resident and borrowed zero-copy.
    pub fn set_cache_budget(&mut self, budget_bytes: usize) {
        if self.is_memory_resident() {
            return;
        }
        self.reader.cache.set_budget(budget_bytes);
    }

    /// The configured decoded-chunk cache budget in bytes.
    pub fn cache_budget(&self) -> usize {
        self.reader.cache.budget_bytes()
    }

    /// The chunk cache's cumulative hit/miss/eviction counters.
    pub fn cache_stats(&self) -> ChunkCacheStats {
        self.reader.cache.stats()
    }

    /// Disk pages fetched by chunk reads so far (cache misses and uncached
    /// reads; always zero on the memory backend, whose chunks are borrowed).
    /// Differencing it across a mine call measures that call's disk read
    /// amplification the same way [`CaptureStats::words_written`] measures
    /// write amplification.
    pub fn pages_read(&self) -> u64 {
        self.reader.pages_read
    }

    /// Returns `true` if segment payloads live in main memory.
    pub fn is_memory_resident(&self) -> bool {
        matches!(self.placement, Placement::Memory)
    }

    /// Number of live segments (batches in the window).
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Total number of columns across all live segments.
    pub fn num_cols(&self) -> usize {
        self.segments.iter().map(|s| s.cols).sum()
    }

    /// Monotonic counter bumped by every [`SegmentedWindowStore::push_segment`]
    /// and [`SegmentedWindowStore::pop_segment`].
    ///
    /// Readers that cache a derivation of the window (assembled rows, support
    /// counters) tag the cache with the generation it was computed at; a
    /// mismatch means the window changed underneath them.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The cumulative capture-cost counters.
    pub fn stats(&self) -> CaptureStats {
        self.stats
    }

    /// Appends one segment of `cols` columns whose touched rows are given as
    /// `(row id, bit chunk)` pairs.  Chunks must be exactly `cols` bits long.
    ///
    /// This is the only write path of the store; its cost — and the counter
    /// increments it performs — are proportional to the chunks passed in,
    /// never to data already stored.  On the disk backends the segment's
    /// pages reach its file as one run ([`RowStore::put_rows`]; when this
    /// returns every page and checksum has been handed to the operating
    /// system) and each chunk written is then offered to the chunk cache.
    pub fn push_segment<'a, I>(&mut self, cols: usize, rows: I) -> Result<()>
    where
        I: IntoIterator<Item = (usize, &'a BitVec)>,
    {
        let id = self.next_id;
        self.next_id += 1;
        let (segment_rows, path) = match &self.placement {
            Placement::Memory => {
                let mut map = BTreeMap::new();
                for (row, chunk) in rows {
                    debug_assert_eq!(chunk.len(), cols, "row chunk must span the segment");
                    self.stats.rows_written += 1;
                    // One header word plus the payload words — identical for
                    // both backends so the slide-cost tables are
                    // backend-independent.
                    self.stats.words_written += 1 + chunk.len().div_ceil(WORD_BITS) as u64;
                    map.insert(row, chunk.clone());
                }
                let segment = EpochSegment {
                    uid: id,
                    cols,
                    rows: map,
                };
                (SegmentRows::Memory(Arc::new(segment)), None)
            }
            Placement::Disk { dir, .. } => {
                let path = dir.join(format!("seg-{id}.pages"));
                let mut store = RowStore::with_page_size(
                    StorageBackend::DiskAt(path.clone()),
                    self.reader.page_size,
                )?;
                let rows: Vec<(usize, &BitVec)> = rows.into_iter().collect();
                store.put_rows(rows.iter().map(|&(row, chunk)| {
                    debug_assert_eq!(chunk.len(), cols, "row chunk must span the segment");
                    (row, chunk.to_bytes())
                }))?;
                // Write-through: once the segment is on disk each chunk is
                // offered to the cache (admit-if-room, the charge a read
                // miss would pay), so the mine that follows finds the
                // entering segment as warm as the budget allows instead of
                // re-reading pages this call has just written.
                for &(row, chunk) in &rows {
                    self.stats.rows_written += 1;
                    self.stats.words_written += 1 + chunk.len().div_ceil(WORD_BITS) as u64;
                    self.reader.cache.insert(id, row, chunk);
                }
                (
                    SegmentRows::Disk {
                        store,
                        decoded: None,
                    },
                    Some(path),
                )
            }
        };
        self.stats.segments_written += 1;
        self.generation += 1;
        self.segments.push_back(Segment {
            id,
            cols,
            rows: segment_rows,
            path,
        });
        Ok(())
    }

    /// Drops the oldest segment, returning how many columns left with it.
    ///
    /// Surviving segments are untouched: for the disk backends this is one
    /// file removal, not a compaction rewrite.  Should that removal fail the
    /// segment has still left the window — queue, generation and counters
    /// moved together — and only its file is left behind.
    pub fn pop_segment(&mut self) -> Result<usize> {
        let (cols, file) = self.pop_segment_detached()?;
        if let Some((_, path)) = file {
            remove_segment_file(&path)?;
        }
        Ok(cols)
    }

    /// Drops the oldest segment like [`SegmentedWindowStore::pop_segment`],
    /// but *keeps its backing file on disk*, returning `(columns, uid, path)`.
    ///
    /// Durable windows evict through this path: an evicted segment's file may
    /// still be referenced by a retained checkpoint, so its removal must be
    /// deferred until the next checkpoint proves it unreferenced.  The caller
    /// owns the returned path and is responsible for eventually unlinking it
    /// (via [`remove_segment_file`]).
    pub fn pop_segment_detached(&mut self) -> Result<(usize, Option<(u64, PathBuf)>)> {
        let segment = self
            .segments
            .pop_front()
            .ok_or_else(|| FsmError::corrupt("pop_segment on an empty window"))?;
        let cols = segment.cols;
        let uid = segment.id;
        let path = segment.path.clone();
        // The popped segment's cached chunks can never be read again (its
        // uid is not reused, and the window columns it covered are gone).
        self.reader.cache.invalidate_segment(uid);
        // Close the row store (drops its file handle) so the file can be
        // unlinked.
        drop(segment);
        self.stats.segments_dropped += 1;
        self.generation += 1;
        Ok((cols, path.map(|p| (uid, p))))
    }

    /// Restores a disk-backed store from checkpointed segment metadata.
    ///
    /// Every entry of `metas` must name a segment file `seg-<uid>.pages` in
    /// `dir` (verified checksummed pages; contents validated lazily on read
    /// or eagerly via [`SegmentedWindowStore::verify_segments`]).  Segment
    /// files with a uid at or above `next_id` are crash leftovers — they were
    /// created by batches the checkpoint does not cover, and WAL replay will
    /// re-create them — so they are removed here.  Unreferenced files *below*
    /// `next_id` may belong to an older retained checkpoint and are left for
    /// the caller to garbage-collect once a new checkpoint commits.
    pub fn restore(dir: PathBuf, metas: &[SegmentMeta], next_id: u64) -> Result<Self> {
        std::fs::create_dir_all(&dir)?;
        for (uid, stale) in scan_segment_files(&dir)? {
            if uid >= next_id {
                remove_segment_file(&stale)?;
            }
        }
        let mut segments = VecDeque::with_capacity(metas.len());
        for meta in metas {
            if meta.uid >= next_id {
                return Err(FsmError::corrupt(format!(
                    "checkpointed segment uid {} is not below next uid {next_id}",
                    meta.uid
                )));
            }
            let path = dir.join(format!("seg-{}.pages", meta.uid));
            let store = RowStore::open_existing(
                path.clone(),
                Self::SEGMENT_PAGE_SIZE,
                meta.rows.iter().copied(),
            )?;
            segments.push_back(Segment {
                id: meta.uid,
                cols: meta.cols,
                rows: SegmentRows::Disk {
                    store,
                    decoded: None,
                },
                path: Some(path),
            });
        }
        Ok(Self {
            placement: Placement::Disk {
                dir,
                _tempdir: None,
            },
            segments,
            next_id,
            stats: CaptureStats::default(),
            generation: 0,
            reader: ChunkReader::new(Self::SEGMENT_PAGE_SIZE),
        })
    }

    /// Exports the live segments as checkpoint metadata, oldest first.
    ///
    /// Returns `None` on the memory backend, which has no durable form.
    pub fn segment_metas(&self) -> Option<Vec<SegmentMeta>> {
        self.segments
            .iter()
            .map(|segment| match &segment.rows {
                SegmentRows::Memory(_) => None,
                SegmentRows::Disk { store, .. } => Some(SegmentMeta {
                    uid: segment.id,
                    cols: segment.cols,
                    rows: store.row_entries()?,
                }),
            })
            .collect()
    }

    /// Verifies the page checksums of every live segment file.  The error
    /// names the first corrupt page and its file.
    pub fn verify_segments(&mut self) -> Result<()> {
        for segment in &mut self.segments {
            if let SegmentRows::Disk { store, .. } = &mut segment.rows {
                store.verify_pages()?;
            }
        }
        Ok(())
    }

    /// Forces every live segment with uid `>= min_uid` to stable storage,
    /// returning the number of `fsync` system calls issued.
    ///
    /// Checkpointing calls this with the watermark of the last checkpoint:
    /// older segments were already synced then and are immutable, so only the
    /// files created since need an `fsync`.
    pub fn sync_segments(&mut self, min_uid: u64) -> Result<u64> {
        let mut fsyncs = 0;
        for segment in &mut self.segments {
            if segment.id < min_uid {
                continue;
            }
            if let SegmentRows::Disk { store, .. } = &mut segment.rows {
                fsyncs += store.sync_all()?;
            }
        }
        Ok(fsyncs)
    }

    /// The uid the next pushed segment will receive (never reused).
    pub fn next_segment_id(&self) -> u64 {
        self.next_id
    }

    /// Uids of the live segments, oldest first.
    pub fn live_uids(&self) -> Vec<u64> {
        self.segments.iter().map(|s| s.id).collect()
    }

    /// Materialises row `id` of the live window into `out` (cleared first):
    /// the concatenation of the row's chunk in every live segment, with
    /// zero-fill where a segment never saw the row.  The result is always
    /// exactly [`SegmentedWindowStore::num_cols`] bits long.
    pub fn assemble_row(&mut self, id: usize, out: &mut BitVec) -> Result<()> {
        out.resize(0);
        let Self {
            segments, reader, ..
        } = self;
        for segment in segments.iter_mut() {
            match &mut segment.rows {
                SegmentRows::Memory(seg) => match seg.chunk(id) {
                    Some(chunk) => out.extend_from_bitvec(chunk),
                    None => out.resize(out.len() + segment.cols),
                },
                SegmentRows::Disk { store, .. } => {
                    if store.contains_row(id) {
                        reader.fetch(segment.id, store, id, out)?;
                    } else {
                        out.resize(out.len() + segment.cols);
                    }
                }
            }
        }
        Ok(())
    }

    /// Publishes segment `seg` (0 = oldest live) as a shared
    /// [`EpochSegment`] handle — the building block of an epoch snapshot.
    ///
    /// On the memory backend this is a free `Arc` clone of the live segment.
    /// On the disk backends the segment is decoded in full on the first call
    /// (chunks warm in the [`ChunkCache`] are served from it and counted as
    /// hits; cold chunks pay their page fetches) and the decoded form is
    /// memoised on the segment, so in the steady state a new epoch only
    /// decodes the segment the latest slide appended.  The decoded rows are
    /// *owned by the returned handle*, not held in the shared cache: budget
    /// changes and slides on the writer side can never invalidate them, and
    /// the memory is reclaimed when the store drops the segment (window
    /// slide) *and* the last snapshot referencing it is dropped.
    pub fn epoch_segment(&mut self, seg: usize) -> Result<Arc<EpochSegment>> {
        let Self {
            segments, reader, ..
        } = self;
        let segment = segments
            .get_mut(seg)
            .ok_or_else(|| FsmError::corrupt(format!("segment {seg} out of range")))?;
        let uid = segment.id;
        let cols = segment.cols;
        match &mut segment.rows {
            SegmentRows::Memory(seg) => Ok(Arc::clone(seg)),
            SegmentRows::Disk { store, decoded } => {
                if let Some(seg) = decoded {
                    return Ok(Arc::clone(seg));
                }
                let ids: Vec<usize> = store.row_ids().collect();
                let mut rows = BTreeMap::new();
                for id in ids {
                    // Cold chunks are not admitted to the cache: the decoded
                    // segment is memoised below, so nothing reads them twice.
                    let chunk = match reader.cache.get(uid, id) {
                        Some(cached) => cached.clone(),
                        None => reader.read(store, id)?.clone(),
                    };
                    rows.insert(id, chunk);
                }
                let segment = Arc::new(EpochSegment { uid, cols, rows });
                *decoded = Some(Arc::clone(&segment));
                Ok(segment)
            }
        }
    }

    /// Number of columns contributed by segment `seg` (0 = oldest live).
    pub fn segment_cols(&self, seg: usize) -> Option<usize> {
        self.segments.get(seg).map(|s| s.cols)
    }

    /// The row ids segment `seg` holds a chunk for, in ascending order (works
    /// on every backend; for disk segments this reads only the in-memory
    /// index).
    pub fn segment_row_ids(&self, seg: usize) -> Option<Vec<usize>> {
        match &self.segments.get(seg)?.rows {
            SegmentRows::Memory(segment) => Some(segment.rows().map(|(id, _)| id).collect()),
            SegmentRows::Disk { store, .. } => Some(store.row_ids().collect()),
        }
    }

    /// Reads the chunk of row `id` in segment `seg` into `out` (cleared
    /// first).  Returns `Ok(false)` — leaving `out` empty — if the segment
    /// never saw the row.
    pub fn read_segment_chunk(&mut self, seg: usize, id: usize, out: &mut BitVec) -> Result<bool> {
        let Self {
            segments, reader, ..
        } = self;
        let segment = segments
            .get_mut(seg)
            .ok_or_else(|| FsmError::corrupt(format!("segment {seg} out of range")))?;
        out.resize(0);
        match &mut segment.rows {
            SegmentRows::Memory(seg) => match seg.chunk(id) {
                Some(chunk) => {
                    out.extend_from_bitvec(chunk);
                    Ok(true)
                }
                None => Ok(false),
            },
            SegmentRows::Disk { store, .. } => {
                if !store.contains_row(id) {
                    return Ok(false);
                }
                reader.fetch(segment.id, store, id, out)?;
                Ok(true)
            }
        }
    }

    /// Maps a live-window column to `(segment index, column offset within the
    /// segment)`.  Returns `None` when `col` is past the window.
    pub fn locate_column(&self, col: usize) -> Option<(usize, usize)> {
        let mut start = 0;
        for (seg, segment) in self.segments.iter().enumerate() {
            if col < start + segment.cols {
                return Some((seg, col - start));
            }
            start += segment.cols;
        }
        None
    }

    /// Bytes held in main memory: for the memory backend the payloads, for
    /// the disk backends the per-segment row indexes plus whatever the
    /// decoded-chunk cache currently holds (bounded by its budget).
    pub fn resident_bytes(&self) -> usize {
        self.reader.cache.used_bytes()
            + self
                .segments
                .iter()
                .map(|s| {
                    let rows = match &s.rows {
                        SegmentRows::Memory(segment) => segment.heap_bytes(),
                        SegmentRows::Disk { store, decoded } => {
                            store.resident_bytes()
                                + decoded.as_ref().map_or(0, |seg| seg.heap_bytes())
                        }
                    };
                    rows + std::mem::size_of::<Segment>()
                })
                .sum::<usize>()
    }

    /// Bytes held on disk across all live segments (zero for the memory
    /// backend).
    pub fn on_disk_bytes(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| match &s.rows {
                SegmentRows::Memory(_) => 0,
                SegmentRows::Disk { store, .. } => store.on_disk_bytes(),
            })
            .sum()
    }
}

impl std::fmt::Debug for SegmentedWindowStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentedWindowStore")
            .field(
                "backend",
                &if self.is_memory_resident() {
                    "memory"
                } else {
                    "disk"
                },
            )
            .field("segments", &self.segments.len())
            .field("cols", &self.num_cols())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(pattern: &str) -> BitVec {
        BitVec::from_bools(pattern.chars().map(|c| c == '1'))
    }

    fn backends() -> Vec<StorageBackend> {
        vec![StorageBackend::Memory, StorageBackend::DiskTemp]
    }

    #[test]
    fn rows_assemble_across_segments_with_zero_fill() {
        for backend in backends() {
            let mut store = SegmentedWindowStore::open(backend).unwrap();
            let chunk_a = bv("101");
            let chunk_b = bv("11");
            store.push_segment(3, [(0, &chunk_a)]).unwrap();
            store.push_segment(2, [(1, &chunk_b)]).unwrap();
            assert_eq!(store.num_cols(), 5);
            assert_eq!(store.num_segments(), 2);

            let mut row = BitVec::new();
            store.assemble_row(0, &mut row).unwrap();
            assert_eq!(format!("{row:?}"), "BitVec[10100]");
            store.assemble_row(1, &mut row).unwrap();
            assert_eq!(format!("{row:?}"), "BitVec[00011]");
            store.assemble_row(7, &mut row).unwrap();
            assert_eq!(row.len(), 5);
            assert_eq!(row.count_ones(), 0);
        }
    }

    #[test]
    fn pop_segment_drops_the_oldest_columns() {
        for backend in backends() {
            let mut store = SegmentedWindowStore::open(backend).unwrap();
            store.push_segment(3, [(0, &bv("111"))]).unwrap();
            store.push_segment(2, [(0, &bv("01"))]).unwrap();
            assert_eq!(store.pop_segment().unwrap(), 3);
            assert_eq!(store.num_cols(), 2);
            let mut row = BitVec::new();
            store.assemble_row(0, &mut row).unwrap();
            assert_eq!(format!("{row:?}"), "BitVec[01]");
            assert_eq!(store.stats().segments_dropped, 1);
        }
        let mut empty = SegmentedWindowStore::open(StorageBackend::Memory).unwrap();
        assert!(empty.pop_segment().is_err());
    }

    #[test]
    fn generation_bumps_on_push_and_pop() {
        let mut store = SegmentedWindowStore::open(StorageBackend::Memory).unwrap();
        assert_eq!(store.generation(), 0);
        store.push_segment(2, [(0, &bv("11"))]).unwrap();
        assert_eq!(store.generation(), 1);
        store.push_segment(1, [(0, &bv("1"))]).unwrap();
        assert_eq!(store.generation(), 2);
        store.pop_segment().unwrap();
        assert_eq!(store.generation(), 3);
    }

    #[test]
    fn segment_accessors_locate_columns_and_rows() {
        for backend in backends() {
            let mut store = SegmentedWindowStore::open(backend).unwrap();
            store.push_segment(3, [(4, &bv("111"))]).unwrap();
            store
                .push_segment(2, [(1, &bv("01")), (4, &bv("10"))])
                .unwrap();
            assert_eq!(store.segment_cols(0), Some(3));
            assert_eq!(store.segment_cols(1), Some(2));
            assert_eq!(store.segment_cols(2), None);
            assert_eq!(store.locate_column(0), Some((0, 0)));
            assert_eq!(store.locate_column(2), Some((0, 2)));
            assert_eq!(store.locate_column(3), Some((1, 0)));
            assert_eq!(store.locate_column(4), Some((1, 1)));
            assert_eq!(store.locate_column(5), None);
            assert_eq!(store.segment_row_ids(1).unwrap(), vec![1, 4]);
            let mut chunk = BitVec::new();
            assert!(store.read_segment_chunk(1, 4, &mut chunk).unwrap());
            assert_eq!(format!("{chunk:?}"), "BitVec[10]");
            assert!(!store.read_segment_chunk(1, 9, &mut chunk).unwrap());
            assert!(store.read_segment_chunk(5, 0, &mut chunk).is_err());
        }
    }

    #[test]
    fn eviction_removes_the_backing_file() {
        let mut store = SegmentedWindowStore::open(StorageBackend::DiskTemp).unwrap();
        store.push_segment(8, [(0, &bv("10101010"))]).unwrap();
        store.push_segment(8, [(1, &bv("01010101"))]).unwrap();
        let before = store.on_disk_bytes();
        assert!(before > 0);
        store.pop_segment().unwrap();
        assert!(
            store.on_disk_bytes() < before,
            "evicted segment must free its file"
        );
        assert!(!store.is_memory_resident());
        assert!(store.resident_bytes() < 4096, "only indexes stay resident");
    }

    #[test]
    fn writes_are_counted_per_chunk_not_per_window() {
        let mut store = SegmentedWindowStore::open(StorageBackend::Memory).unwrap();
        let wide = bv(&"1".repeat(128));
        store.push_segment(128, [(0, &wide), (1, &wide)]).unwrap();
        let first = store.stats();
        assert_eq!(first.rows_written, 2);
        // 128 bits = 2 words, plus 1 word of header, per row.
        assert_eq!(first.words_written, 6);

        // A tiny second segment costs a tiny number of words, regardless of
        // how much data is already stored.
        let narrow = bv("1");
        store.push_segment(1, [(5, &narrow)]).unwrap();
        let second = store.stats();
        assert_eq!(second.words_written - first.words_written, 2);
        assert_eq!(second.segments_written, 2);
    }

    #[test]
    fn empty_segments_are_legal() {
        for backend in backends() {
            let mut store = SegmentedWindowStore::open(backend).unwrap();
            store.push_segment(0, std::iter::empty()).unwrap();
            store.push_segment(2, [(0, &bv("10"))]).unwrap();
            assert_eq!(store.num_cols(), 2);
            let mut row = BitVec::new();
            store.assemble_row(0, &mut row).unwrap();
            assert_eq!(format!("{row:?}"), "BitVec[10]");
            assert_eq!(store.pop_segment().unwrap(), 0);
        }
    }

    #[test]
    fn budgeted_reads_agree_with_eager_reads() {
        // Shadow model: the same push/pop/read sequence through a disabled
        // cache (budget 0), a tight budget (most admissions refused) and an
        // unlimited budget must produce identical rows at every step.
        let budgets = [0usize, 700, usize::MAX];
        let mut stores: Vec<SegmentedWindowStore> = budgets
            .iter()
            .map(|&budget| {
                let mut store = SegmentedWindowStore::open(StorageBackend::DiskTemp).unwrap();
                store.set_cache_budget(budget);
                store
            })
            .collect();
        let mut rng = 0x9e3779b97f4a7c15u64;
        let mut next = move |bound: usize| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as usize % bound
        };
        for step in 0..24 {
            let cols = 1 + next(90);
            let chunks: Vec<(usize, BitVec)> = (0..next(6))
                .map(|_| {
                    let id = next(12);
                    let chunk = BitVec::from_bools((0..cols).map(|_| next(2) == 1));
                    (id, chunk)
                })
                .collect();
            // Deduplicate ids: push_segment stores one chunk per row.
            let mut by_id: BTreeMap<usize, BitVec> = BTreeMap::new();
            for (id, chunk) in chunks {
                by_id.insert(id, chunk);
            }
            for store in &mut stores {
                store
                    .push_segment(cols, by_id.iter().map(|(id, c)| (*id, c)))
                    .unwrap();
                if store.num_segments() > 4 {
                    store.pop_segment().unwrap();
                }
            }
            let mut reference = BitVec::new();
            let mut row = BitVec::new();
            for id in 0..12 {
                stores[0].assemble_row(id, &mut reference).unwrap();
                for store in &mut stores[1..] {
                    store.assemble_row(id, &mut row).unwrap();
                    assert_eq!(row, reference, "row {id} diverged at step {step}");
                }
            }
        }
        // The eager store hit nothing; the cached stores hit, and the tight
        // one did so without ever evicting to admit.
        let [eager, tight, unlimited] = [0, 1, 2].map(|i| stores[i].cache_stats());
        assert_eq!(eager.hits, 0);
        assert!(tight.hits > 0);
        assert!(
            tight.insertions < tight.misses,
            "tight budget refuses admissions"
        );
        assert_eq!(tight.evictions, 0, "nothing is evicted to make room");
        assert!(unlimited.hits > tight.hits);
        assert!(stores[2].pages_read() < stores[1].pages_read());
        assert!(stores[1].pages_read() < stores[0].pages_read());
    }

    #[test]
    fn steady_state_reads_are_bounded_by_the_slide() {
        let rows = 8usize;
        let wide = bv(&"10".repeat(40));
        let push = |store: &mut SegmentedWindowStore| {
            store
                .push_segment(80, (0..rows).map(|r| (r, &wide)))
                .unwrap();
        };
        // One scan of the window; returns (cache hits, pages read) it cost.
        let scan = |store: &mut SegmentedWindowStore| {
            let (hits, pages) = (store.cache_stats().hits, store.pages_read());
            let mut row = BitVec::new();
            for id in 0..rows {
                store.assemble_row(id, &mut row).unwrap();
                assert_eq!(row.count_ones(), 40 * store.num_segments() as u64);
            }
            (store.cache_stats().hits - hits, store.pages_read() - pages)
        };

        // A budget covering the window: the pushes themselves warmed the
        // cache, so not even the first scan reads a page — and neither does
        // the scan after a slide.
        let mut store = SegmentedWindowStore::open(StorageBackend::DiskTemp).unwrap();
        store.set_cache_budget(usize::MAX);
        for _ in 0..4 {
            push(&mut store);
        }
        assert_eq!(scan(&mut store), (4 * rows as u64, 0), "first scan");
        assert_eq!(scan(&mut store), (4 * rows as u64, 0), "second scan");
        store.pop_segment().unwrap();
        push(&mut store);
        assert_eq!(scan(&mut store), (4 * rows as u64, 0), "after a slide");
        assert_eq!(store.pages_read(), 0);

        // Budget 0 on a fresh store: every scan pays the full window again.
        let mut eager = SegmentedWindowStore::open(StorageBackend::DiskTemp).unwrap();
        for _ in 0..4 {
            push(&mut eager);
        }
        assert_eq!(scan(&mut eager), (0, 4 * rows as u64));
        assert_eq!(scan(&mut eager), (0, 4 * rows as u64));
        assert_eq!(eager.cache_stats(), ChunkCacheStats::default());

        // A budget of exactly two segments' charge over a three-segment
        // window.  The first two pushes fill it and the third is refused;
        // from then on a slide pops before it pushes, so the room the
        // leaving segment frees admits the entering one — and when the
        // leaving segment held no room (it was the refused one), the
        // entering one is refused in turn.  Nothing else ever moves.
        let segment_charge = {
            let mut probe = SegmentedWindowStore::open(StorageBackend::DiskTemp).unwrap();
            probe.set_cache_budget(usize::MAX);
            push(&mut probe);
            probe.reader.cache.used_bytes()
        };
        let mut tight = SegmentedWindowStore::open(StorageBackend::DiskTemp).unwrap();
        tight.set_cache_budget(2 * segment_charge);
        for _ in 0..3 {
            push(&mut tight);
        }
        let (cached, read) = (2 * rows as u64, rows as u64);
        assert_eq!(tight.cache_stats().insertions, cached);
        assert_eq!(
            scan(&mut tight),
            (cached, read),
            "segments 0 1 cached, 2 read"
        );
        for slide in 0..3 {
            tight.pop_segment().unwrap();
            push(&mut tight);
            // Slides 0 and 1 trade a cached segment for the entering one;
            // slide 2 pops the never-cached segment 2, frees nothing, and
            // its entering segment is the one read from disk from then on.
            assert_eq!(scan(&mut tight), (cached, read), "slide {slide}");
            assert_eq!(scan(&mut tight), (cached, read), "slide {slide}, again");
            let admitted = cached + rows as u64 * (slide as u64 + 1).min(2);
            assert_eq!(tight.cache_stats().insertions, admitted, "slide {slide}");
            assert_eq!(tight.reader.cache.used_bytes(), 2 * segment_charge);
        }
        assert_eq!(tight.cache_stats().evictions, 0);
        assert_eq!(tight.cache_stats().invalidations, cached);
    }

    /// Bit-at-a-time CRC-32 (reflected IEEE), sharing nothing with
    /// [`crate::checksum`]: the reference the format test checksums with.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn a_segment_file_and_its_sidecar_are_the_bytewise_reference() {
        // The on-disk format, spelled out byte by byte: per row in push
        // order, the serialised chunk cut into pages, each page its payload
        // then zero padding; the sidecar one little-endian CRC-32 of each
        // padded page.  Staging a segment as one run must not move a byte.
        let page_size = SegmentedWindowStore::SEGMENT_PAGE_SIZE;
        let dir = TempDir::new("segstore-format").unwrap();
        let root = dir.file("segments");
        let mut store = SegmentedWindowStore::open(StorageBackend::DiskAt(root.clone())).unwrap();
        let pattern = |cols: usize, salt: usize| {
            BitVec::from_bools((0..cols).map(|c| (c * 7 + salt) % 5 < 2))
        };
        // Single-page chunks, pushed out of row order; chunks that span two
        // pages and end exactly on a page boundary's far side; no rows.
        let two_pages = (page_size + 64) * 8;
        let segments: Vec<(usize, Vec<(usize, BitVec)>)> = vec![
            (
                500,
                vec![
                    (9, pattern(500, 1)),
                    (2, pattern(500, 2)),
                    (5, pattern(500, 3)),
                ],
            ),
            (
                two_pages,
                vec![(0, pattern(two_pages, 4)), (1, pattern(two_pages, 5))],
            ),
            (
                (page_size - 8) * 8,
                vec![(3, pattern((page_size - 8) * 8, 6))],
            ),
            (0, vec![]),
        ];
        for (uid, (cols, rows)) in segments.iter().enumerate() {
            store
                .push_segment(*cols, rows.iter().map(|(id, chunk)| (*id, chunk)))
                .unwrap();
            let (mut pages, mut sidecar) = (Vec::new(), Vec::new());
            for (_, chunk) in rows {
                for payload in chunk.to_bytes().chunks(page_size) {
                    let start = pages.len();
                    pages.extend_from_slice(payload);
                    pages.resize(start + page_size, 0);
                    sidecar.extend_from_slice(&reference_crc32(&pages[start..]).to_le_bytes());
                }
            }
            let path = root.join(format!("seg-{uid}.pages"));
            assert_eq!(std::fs::read(&path).unwrap(), pages, "segment {uid}");
            assert_eq!(
                std::fs::read(crate::PagedFile::checksum_path(&path)).unwrap(),
                sidecar,
                "segment {uid} sidecar"
            );
        }
        // The exact-fit chunk fills its page: no padding, one page.
        assert_eq!(
            std::fs::metadata(root.join("seg-2.pages")).unwrap().len(),
            page_size as u64
        );
        store.verify_segments().unwrap();
    }

    #[test]
    fn memory_backend_ignores_the_cache_budget() {
        let mut store = SegmentedWindowStore::open(StorageBackend::Memory).unwrap();
        store.set_cache_budget(usize::MAX);
        assert_eq!(store.cache_budget(), 0);
        store.push_segment(2, [(0, &bv("10"))]).unwrap();
        let mut row = BitVec::new();
        store.assemble_row(0, &mut row).unwrap();
        assert_eq!(store.pages_read(), 0);
        assert_eq!(store.cache_stats(), ChunkCacheStats::default());
    }

    #[test]
    fn disk_epoch_segments_are_memoised_and_outlive_the_slide() {
        let mut store = SegmentedWindowStore::open(StorageBackend::DiskTemp).unwrap();
        let wide = bv(&"10".repeat(40));
        store.push_segment(80, [(0, &wide), (1, &wide)]).unwrap();
        store.push_segment(80, [(0, &wide)]).unwrap();

        let first = store.epoch_segment(0).unwrap();
        let pages_after_decode = store.pages_read();
        assert!(pages_after_decode > 0, "the first decode reads pages");
        // A second epoch over the same segment is served from the memo.
        let again = store.epoch_segment(0).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(store.pages_read(), pages_after_decode);

        // The slide drops the store's handle and unlinks the file, but the
        // snapshot's data survives until its last Arc drops.
        let weak = Arc::downgrade(&first);
        store.pop_segment().unwrap();
        assert_eq!(first.chunk(0).unwrap().len(), 80);
        assert_eq!(first.num_rows(), 2);
        drop(again);
        drop(first);
        assert!(
            weak.upgrade().is_none(),
            "the decoded segment is reclaimed with its last reader"
        );
    }

    #[test]
    fn memory_epoch_segments_share_the_live_segment() {
        let mut store = SegmentedWindowStore::open(StorageBackend::Memory).unwrap();
        store.push_segment(2, [(0, &bv("10"))]).unwrap();
        let a = store.epoch_segment(0).unwrap();
        let b = store.epoch_segment(0).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "memory snapshots are Arc clones");
        assert_eq!(a.uid(), 0);
        assert_eq!(a.cols(), 2);
        assert!(a.heap_bytes() > 0);
        assert!(store.epoch_segment(7).is_err());
    }

    #[test]
    fn budget_changes_never_touch_epoch_segment_data() {
        // `set_cache_budget` (which evicts on a shrink) and later slides
        // must not disturb rows owned by an epoch segment.
        let mut store = SegmentedWindowStore::open(StorageBackend::DiskTemp).unwrap();
        store.set_cache_budget(usize::MAX);
        let wide = bv(&"10".repeat(40));
        store.push_segment(80, [(0, &wide)]).unwrap();
        let epoch = store.epoch_segment(0).unwrap();
        let before = epoch.chunk(0).unwrap().clone();
        store.set_cache_budget(64);
        store.set_cache_budget(0);
        store.push_segment(80, [(0, &wide)]).unwrap();
        store.pop_segment().unwrap();
        assert_eq!(epoch.chunk(0).unwrap(), &before);
    }

    #[test]
    fn disk_at_places_segments_under_the_given_directory() {
        let dir = TempDir::new("segstore-at").unwrap();
        let root = dir.file("segments");
        let mut store = SegmentedWindowStore::open(StorageBackend::DiskAt(root.clone())).unwrap();
        store.push_segment(4, [(0, &bv("1001"))]).unwrap();
        assert!(root.join("seg-0.pages").exists());
        store.pop_segment().unwrap();
        assert!(!root.join("seg-0.pages").exists());
    }

    #[test]
    fn a_failed_unlink_still_leaves_generation_and_stats_describing_the_window() {
        let dir = TempDir::new("segstore-unlink").unwrap();
        let root = dir.file("segments");
        let mut store = SegmentedWindowStore::open(StorageBackend::DiskAt(root.clone())).unwrap();
        store.push_segment(3, [(0, &bv("101"))]).unwrap();
        store.push_segment(2, [(0, &bv("01"))]).unwrap();
        let generation = store.generation();
        // Someone removes the oldest segment's file behind the store's back.
        std::fs::remove_file(root.join("seg-0.pages")).unwrap();

        assert!(store.pop_segment().is_err(), "the unlink must be reported");
        assert_eq!(store.num_segments(), 1);
        assert_eq!(store.generation(), generation + 1);
        assert_eq!(store.stats().segments_dropped, 1);
        // The store still serves the window its generation describes.
        let mut row = BitVec::new();
        store.assemble_row(0, &mut row).unwrap();
        assert_eq!(format!("{row:?}"), "BitVec[01]");
    }
}
