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
//! * **drop** the oldest segment (cost: a queue pop; on the disk backends its
//!   file is kept for the next append to overwrite),
//!
//! so capture cost is `O(rows touched by the new batch + evicted columns)`
//! and unevicted row prefixes are never rewritten.
//!
//! # Disk segments
//!
//! On the disk backends a segment is one **run** in `seg-<uid>.run`: a
//! 40-byte header, the row index and the chunks packed back to back under
//! one CRC-32 (segment format v2; the layout is in the `run` module's docs).
//! [`SegmentedWindowStore::push_segment`] writes it with one positional
//! write, and a read fetches it with one positional read, verifying the CRC
//! before a byte of it is decoded.  Files are **recycled**, not unlinked: a
//! popped segment's file is released — at once by
//! [`SegmentedWindowStore::pop_segment`], or by
//! [`SegmentedWindowStore::release_segment_file`] once a durable window's
//! checkpoint GC proves no retained checkpoint references it — and the next
//! push renames a released file to its own name and overwrites it
//! (truncating when the new run is shorter).  A steady slide creates and
//! unlinks nothing.  The uid in the run header catches a file that was
//! renamed but never rewritten.
//!
//! # Read surface
//!
//! The write side has always been incremental; this module also keeps the
//! *read* side from paying full-window cost:
//!
//! * Whole-window reads go one way on every backend:
//!   [`SegmentedWindowStore::assemble_rows`] concatenates the window's
//!   chunks into flat rows ([`BitVec::extend_from_bitvec`]) segment by
//!   segment, and [`EpochSegment::assemble_rows`] does the same over a
//!   frozen epoch's segments, through the same fill.  A row no segment holds
//!   is left unallocated, and a held row ends where its last chunk ends.
//! * On the memory backend, segments hold decoded [`BitVec`] chunks
//!   ([`EpochSegment`]), shared by `Arc` with every epoch snapshot that
//!   covers them.
//! * On the disk backends a live read reaches a chunk one way, whether
//!   [`SegmentedWindowStore::assemble_rows`] fills the window's rows,
//!   [`SegmentedWindowStore::assemble_row`] one row, or
//!   [`SegmentedWindowStore::read_segment_chunk`] reads a single chunk:
//!   through a budgeted decoded-chunk cache ([`crate::ChunkCache`],
//!   [`SegmentedWindowStore::set_cache_budget`]).  The cache is
//!   **write-through**: [`SegmentedWindowStore::push_segment`] offers every
//!   chunk it has written to the cache (admit-if-room), and a read miss
//!   offers what it decoded the same way.  Segments are immutable,
//!   so cached chunks stay valid until their segment is popped — which is
//!   also what makes room: a slide pops before it pushes, so the leaving
//!   segment's bytes admit the entering one's chunks.  With a budget
//!   covering the window a steady-state scan therefore reads **no** run;
//!   with a smaller one it decodes exactly the chunks that never fitted.
//!   A cached chunk is the value that was written, so serving it is what a
//!   hit has always been; whatever is *not* served from the cache is decoded
//!   from the segment's run, CRC-verified when it was read (tight budgets,
//!   budget 0, [`SegmentedWindowStore::verify_segments`], recovery).  A miss
//!   reads its segment's run at most once until
//!   [`SegmentedWindowStore::release_runs`]: the reader memoises every run
//!   it reads, so a scan of the window reads each segment with a miss once,
//!   however many of its chunks miss.  The budget buys decodes, never
//!   assembly.  Run reads are counted in
//!   [`SegmentedWindowStore::runs_read`], cache hits in
//!   [`SegmentedWindowStore::cache_stats`]; a zero budget (the default)
//!   disables the cache — nothing is admitted, at write or at read — and
//!   reproduces fully-eager reads byte for byte.
//! * [`SegmentedWindowStore::generation`] is a monotonic counter bumped by
//!   every segment append or drop: the identity of a window epoch, which is
//!   what a memoised epoch snapshot is checked against.
//!
//! Every write is counted in [`CaptureStats`], which is how the benchmark
//! harness (and the slide-cost tests) assert the incremental behaviour
//! instead of merely hoping for it.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::bitvec::BitVec;
use crate::chunkcache::{ChunkCache, ChunkCacheStats};
use crate::paged::{annotate, artifact_name};
use crate::positional::{read_exact_at, write_all_at};
use crate::rowstore::StorageBackend;
use crate::run;
use crate::temp::TempDir;
use fsm_types::codec::Reader;
use fsm_types::{FsmError, Result};

const WORD_BITS: usize = 64;

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
/// Segment runs are immutable once written, so this — the uid, the column
/// count and the row index — is all a checkpoint has to persist; the row
/// payloads stay where they are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Stable uid of the segment (names its file `seg-<uid>.run`).
    pub uid: u64,
    /// Number of window columns the segment contributes.
    pub cols: usize,
    /// Row index entries `(row id, byte offset of its chunk in the run,
    /// byte length)`, ascending by row.
    pub rows: Vec<(usize, usize, usize)>,
}

/// File name of segment `uid`'s run.
fn run_file_name(uid: u64) -> String {
    format!("seg-{uid}.run")
}

/// What a `seg-…` file in a segment directory holds.
enum SegmentFile {
    /// A format v2 run of the given uid.
    Run(u64),
    /// A format v1 page file (`seg-<uid>.pages`) or its `.crc` sidecar.
    V1,
}

/// Every segment file in `dir`, classified; other files are ignored.
fn segment_files(dir: &Path) -> Result<Vec<(SegmentFile, PathBuf)>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(rest) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix("seg-"))
        else {
            continue;
        };
        let kind = if let Some(uid) = rest.strip_suffix(".run") {
            uid.parse().ok().map(SegmentFile::Run)
        } else {
            let uid = rest
                .strip_suffix(".pages")
                .or_else(|| rest.strip_suffix(".pages.crc"));
            uid.and_then(|uid| uid.parse::<u64>().ok())
                .map(|_| SegmentFile::V1)
        };
        if let Some(kind) = kind {
            out.push((kind, path));
        }
    }
    Ok(out)
}

/// Lists the segment runs (`seg-<uid>.run`) in `dir` as `(uid, path)`
/// pairs, ascending by uid.
///
/// A segment file of format v1 — `seg-<uid>.pages` or its `.crc` sidecar —
/// is refused with [`FsmError::CorruptArtifact`] naming it and "segment
/// format v1": no v1 decoder is kept, so such a directory can be started
/// afresh but not read.
pub fn scan_segment_files(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for (kind, path) in segment_files(dir)? {
        match kind {
            SegmentFile::Run(uid) => out.push((uid, path)),
            SegmentFile::V1 => {
                return Err(FsmError::corrupt_artifact(
                    artifact_name(&path),
                    "segment format v1 (zero-padded pages with a .crc sidecar): this \
                     version reads only v2 runs (seg-<uid>.run) and keeps no v1 decoder",
                ))
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// One immutable, fully-decoded window segment, shareable across threads.
///
/// This is the unit an epoch snapshot holds: every live segment of the window
/// is published as an `Arc<EpochSegment>`, so readers keep the segment's data
/// alive for exactly as long as they reference it — a window slide drops the
/// *store's* `Arc` (and, on the disk backends, releases the backing file),
/// but the decoded rows survive until the last snapshot referencing the
/// epoch is dropped.  Segments are immutable once built, so sharing needs no
/// locks: `EpochSegment` is `Send + Sync` by construction.
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
    /// Decodes one whole segment run — the bytes of a `seg-<uid>.run` file
    /// (segment format v2).  The CRC is verified before any field is read;
    /// then the header must describe exactly the bytes present, the row ids
    /// must ascend strictly and every chunk must be the segment's columns
    /// wide.  Damage is [`FsmError::CorruptArtifact`] naming `artifact`, and
    /// nothing is allocated for a count the bytes present cannot hold.
    pub fn decode_run(bytes: &[u8], artifact: &str) -> Result<Self> {
        let header = run::check(bytes, artifact)?;
        let chunk_bytes = run::chunk_bytes(header.cols);
        let mut reader = Reader::artifact(&bytes[run::HEADER_BYTES..], artifact);
        // `check` proved the payload holds `header.rows` index entries.
        let mut ids: Vec<usize> = Vec::with_capacity(header.rows);
        for _ in 0..header.rows {
            let id = reader.take_u64()?;
            match usize::try_from(id) {
                Ok(id) if ids.last().is_none_or(|&last| last < id) => ids.push(id),
                _ => {
                    return Err(FsmError::corrupt_artifact(
                        artifact,
                        format!("row id {id} does not follow its predecessor in ascending order"),
                    ))
                }
            }
        }
        let mut rows = BTreeMap::new();
        for id in ids {
            let chunk = BitVec::from_bytes(reader.take(chunk_bytes)?)
                .filter(|chunk| chunk.len() == header.cols)
                .ok_or_else(|| {
                    FsmError::corrupt_artifact(
                        artifact,
                        format!("row {id}'s chunk is not {} bits", header.cols),
                    )
                })?;
            rows.insert(id, chunk);
        }
        reader.finish()?;
        Ok(Self {
            uid: header.uid,
            cols: header.cols,
            rows,
        })
    }

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

    /// Materialises the window `segments` tile, oldest first, into `rows` —
    /// `rows[id]` is row `id` — segment by segment, exactly as
    /// [`SegmentedWindowStore::assemble_rows`] lays out the live window: a
    /// row some segment holds is allocated once and ends where its last
    /// chunk ends, a row no segment holds stays empty and unallocated, and
    /// chunks of rows at or past `rows.len()` are skipped.
    pub fn assemble_rows(segments: &[Arc<EpochSegment>], rows: &mut [BitVec]) {
        let mut fill = RowFill::new(rows, segments.iter().map(|s| s.cols).sum());
        for segment in segments {
            fill.extend(segment);
            fill.start += segment.cols;
        }
    }
}

/// Segment-major assembly of flat rows — the one fill behind
/// [`SegmentedWindowStore::assemble_rows`] and [`EpochSegment::assemble_rows`].
///
/// Every row is cleared first, keeping its buffer.  A row gets room for the
/// whole window plus the spare word [`BitVec::extend_from_bitvec`] needs
/// when its first chunk lands — one allocation, none if its buffer already
/// has the room — and is zero-extended only up to the start of each chunk
/// it receives, so it ends where its last chunk ends.  A row no segment
/// holds is never opened: it stays empty and unallocated.
struct RowFill<'r> {
    rows: &'r mut [BitVec],
    /// Bits a held row reserves: the window plus one spare word.
    width: usize,
    /// Window column the current segment starts at.
    start: usize,
}

impl<'r> RowFill<'r> {
    fn new(rows: &'r mut [BitVec], num_cols: usize) -> Self {
        for row in rows.iter_mut() {
            row.resize(0);
        }
        Self {
            rows,
            width: num_cols + WORD_BITS,
            start: 0,
        }
    }

    /// Row `id`, readied for a chunk starting at column `start`; `None` for
    /// a row past the slice, whose chunks are not fetched.
    fn open(&mut self, id: usize) -> Option<&mut BitVec> {
        let row = self.rows.get_mut(id)?;
        row.ensure_capacity(self.width);
        row.resize(self.start);
        Some(row)
    }

    /// Appends every chunk of a decoded segment starting at column `start`.
    fn extend(&mut self, segment: &EpochSegment) {
        for (id, chunk) in segment.rows() {
            let Some(row) = self.open(id) else { break };
            row.extend_from_bitvec(chunk);
        }
    }
}

/// A disk segment's run file: the open handle, the run's length and the
/// row index — the ids of the rows the run holds, ascending; the chunk of
/// `rows[i]` sits at [`run::chunk_offset`] of slot `i`.  A released file
/// (free for the next push to overwrite) has an empty index.
struct RunFile {
    file: File,
    path: PathBuf,
    len: usize,
    rows: Vec<usize>,
}

impl RunFile {
    /// The index slot of row `id`, if the run holds it.
    fn slot(&self, id: usize) -> Option<usize> {
        self.rows.binary_search(&id).ok()
    }

    /// The whole run of segment `uid` (`cols` columns), read with one
    /// positional read and verified — the CRC first, then the header
    /// against the segment the window expects.
    fn load(&self, uid: u64, cols: usize) -> Result<Vec<u8>> {
        let name = artifact_name(&self.path);
        let mut bytes = vec![0u8; self.len];
        read_exact_at(&self.file, &mut bytes, 0).map_err(|err| {
            if err.kind() == std::io::ErrorKind::UnexpectedEof {
                FsmError::corrupt_artifact(
                    &*name,
                    format!("truncated: shorter than its {}-byte run", self.len),
                )
            } else {
                annotate(err, "read segment run", &self.path)
            }
        })?;
        let header = run::check(&bytes, &name)?;
        let expected = run::Header {
            uid,
            cols,
            rows: self.rows.len(),
        };
        if header != expected {
            return Err(FsmError::corrupt_artifact(
                name,
                format!("the run holds {header:?}, the window expects {expected:?}"),
            ));
        }
        Ok(bytes)
    }
}

enum SegmentRows {
    /// Memory backend: decoded chunks, borrowable zero-copy and shared with
    /// epoch snapshots via `Arc`.
    Memory(Arc<EpochSegment>),
    /// Disk backends: the segment's run, plus the memoised decoded form the
    /// first covering snapshot produced (segments are immutable, so the memo
    /// can never go stale).
    Disk {
        run: RunFile,
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
}

enum Placement {
    Memory,
    Disk {
        dir: PathBuf,
        /// Keeps the self-cleaning directory alive for `DiskTemp`.
        _tempdir: Option<TempDir>,
        /// Released run files, each overwritten by a later push.
        free: Vec<RunFile>,
        /// Reusable buffer a pushed segment's run is encoded into.
        stage: Vec<u8>,
    },
}

/// Everything a disk chunk read touches, kept together so the read surfaces
/// can borrow it beside the segment queue.  (`push_segment` admits to the
/// same `cache`.)
struct ChunkReader {
    /// Runs read since the last [`SegmentedWindowStore::release_runs`],
    /// keyed by segment uid, each verified when it was read: a scan reads a
    /// segment's run at most once, however many of its chunks miss.
    runs: Vec<(u64, Vec<u8>)>,
    /// Reusable decoded chunk (what [`ChunkReader::read`] decodes into).
    chunk: BitVec,
    /// Budgeted decoded-chunk cache over the disk segments (disabled — and
    /// never consulted — with a zero budget or on the memory backend).
    cache: ChunkCache,
    /// Positional reads issued so far (one per run read).
    reads: u64,
}

impl ChunkReader {
    fn new() -> Self {
        Self {
            runs: Vec::new(),
            chunk: BitVec::new(),
            cache: ChunkCache::new(0),
            reads: 0,
        }
    }

    /// Index into `runs` of segment `uid`'s run: the memoised one, or one
    /// [`RunFile::load`] — a positional read, verified before it is
    /// memoised.
    fn run(&mut self, uid: u64, cols: usize, run: &RunFile) -> Result<usize> {
        if let Some(at) = self.runs.iter().position(|&(memo, _)| memo == uid) {
            return Ok(at);
        }
        self.reads += 1;
        let bytes = run.load(uid, cols)?;
        self.runs.push((uid, bytes));
        Ok(self.runs.len() - 1)
    }

    /// Decodes index slot `slot` of segment `uid`'s run into the scratch
    /// chunk, bypassing the cache — the one place a chunk is decoded from
    /// disk.  Admission is the caller's.
    fn read(&mut self, uid: u64, cols: usize, run: &RunFile, slot: usize) -> Result<&BitVec> {
        let at = self.run(uid, cols, run)?;
        let chunk_bytes = run::chunk_bytes(cols);
        // `run` proved the run holds `run.rows.len()` chunks of this size.
        let start = run::chunk_offset(run.rows.len(), chunk_bytes, slot);
        let bytes = &self.runs[at].1[start..start + chunk_bytes];
        if !self.chunk.read_bytes(bytes) || self.chunk.len() != cols {
            return Err(FsmError::corrupt_artifact(
                artifact_name(&run.path),
                format!("row {}'s chunk failed to decode", run.rows[slot]),
            ));
        }
        Ok(&self.chunk)
    }

    /// Appends index slot `slot`'s chunk of disk segment `uid` to `out`:
    /// served from the cache on a hit, else decoded from the run and
    /// offered to the cache (which admits it if it has room).
    fn fetch(
        &mut self,
        uid: u64,
        cols: usize,
        run: &RunFile,
        slot: usize,
        out: &mut BitVec,
    ) -> Result<()> {
        if let Some(cached) = self.cache.get(uid, run.rows[slot]) {
            out.extend_from_bitvec(cached);
            return Ok(());
        }
        self.read(uid, cols, run, slot)?;
        self.cache.insert(uid, run.rows[slot], &self.chunk);
        out.extend_from_bitvec(&self.chunk);
        Ok(())
    }

    /// Drops segment `uid`'s memoised run, if any.
    fn forget_run(&mut self, uid: u64) {
        self.runs.retain(|&(memo, _)| memo != uid);
    }
}

/// Writes `run` to `path` with one positional write — into a released file
/// renamed to `path` (and truncated when the run is shorter than what it
/// held), or into a file created there when none is free — and returns the
/// file.  A released file that can no longer be renamed (removed behind the
/// store's back) is dropped and the next one tried.
fn write_run(free: &mut Vec<RunFile>, path: &Path, run: &[u8]) -> Result<File> {
    while let Some(spare) = free.pop() {
        if std::fs::rename(&spare.path, path).is_err() {
            continue;
        }
        write_all_at(&spare.file, run, 0)?;
        if spare.len > run.len() {
            spare.file.set_len(run.len() as u64)?;
        }
        return Ok(spare.file);
    }
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .open(path)
        .map_err(|err| annotate(err, "create segment run", path))?;
    write_all_at(&file, run, 0)?;
    Ok(file)
}

/// A queue of per-batch row segments backing one sliding window.
///
/// All three [`StorageBackend`]s are supported: `Memory` keeps segments as
/// decoded chunk maps (zero-copy readable), the disk backends write one run
/// file per segment (so eviction never rewrites surviving data, and the
/// evicted file is recycled by a later push).
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
    /// Opens a store with the given backend.
    pub fn open(backend: StorageBackend) -> Result<Self> {
        let placement = match backend {
            StorageBackend::Memory => Placement::Memory,
            StorageBackend::DiskTemp => {
                let tempdir = TempDir::new("segstore")?;
                Self::disk(tempdir.path().to_path_buf(), Some(tempdir))
            }
            StorageBackend::DiskAt(path) => {
                std::fs::create_dir_all(&path)?;
                // Opening a fresh store at an explicit path is an explicit
                // truncation of whatever a previous run left there — format
                // v1 files included: stale segment files would collide with
                // the uids this store is about to assign.  Recovery goes
                // through [`SegmentedWindowStore::restore`] instead, which
                // *keeps* referenced files.
                for (_, stale) in segment_files(&path)? {
                    std::fs::remove_file(&stale)?;
                }
                Self::disk(path, None)
            }
        };
        Ok(Self {
            placement,
            segments: VecDeque::new(),
            next_id: 0,
            stats: CaptureStats::default(),
            generation: 0,
            reader: ChunkReader::new(),
        })
    }

    fn disk(dir: PathBuf, tempdir: Option<TempDir>) -> Placement {
        Placement::Disk {
            dir,
            _tempdir: tempdir,
            free: Vec::new(),
            stage: Vec::new(),
        }
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

    /// Positional reads the chunk-read path has issued so far — one per run
    /// it read (always zero on the memory backend, whose chunks are
    /// borrowed).  A scan reads each segment with a cache miss once until
    /// [`SegmentedWindowStore::release_runs`], so differencing it across a
    /// mine call counts the segments that call had to go to disk for — the
    /// read amplification twin of [`CaptureStats::words_written`].
    pub fn runs_read(&self) -> u64 {
        self.reader.reads
    }

    /// Drops the runs the read path memoised (the memory backend has none).
    /// The next miss in a segment reads its run again; the chunk cache is
    /// untouched.
    pub fn release_runs(&mut self) {
        self.reader.runs.clear();
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
    /// It names a window epoch: a reader that memoises a derivation of the
    /// window (an epoch snapshot) tags it with the generation it was
    /// computed at; a mismatch means the window changed underneath it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The cumulative capture-cost counters.
    pub fn stats(&self) -> CaptureStats {
        self.stats
    }

    /// Appends one segment of `cols` columns whose touched rows are given as
    /// `(row id, bit chunk)` pairs; a row given twice keeps its last chunk.
    /// A chunk that is not exactly `cols` bits long is refused before
    /// anything is written.
    ///
    /// This is the only write path of the store; its cost — and the counter
    /// increments it performs — are proportional to the chunks passed in,
    /// never to data already stored.  On the disk backends the segment
    /// reaches its file as one run with one positional write (when this
    /// returns it has been handed to the operating system; the file is a
    /// released one renamed, when there is one) and each chunk written is
    /// then offered to the chunk cache.
    pub fn push_segment<'a, I>(&mut self, cols: usize, rows: I) -> Result<()>
    where
        I: IntoIterator<Item = (usize, &'a BitVec)>,
    {
        let check = |row: usize, chunk: &BitVec| {
            if chunk.len() == cols {
                Ok(())
            } else {
                Err(FsmError::config(format!(
                    "row {row}'s chunk is {} bits, but the segment is {cols} columns",
                    chunk.len()
                )))
            }
        };
        let id = self.next_id;
        self.next_id += 1;
        let segment_rows = match &mut self.placement {
            Placement::Memory => {
                let mut map = BTreeMap::new();
                for (row, chunk) in rows {
                    check(row, chunk)?;
                    map.insert(row, chunk.clone());
                }
                for chunk in map.values() {
                    self.stats.rows_written += 1;
                    // One header word plus the payload words — identical for
                    // both backends so the slide-cost tables are
                    // backend-independent.
                    self.stats.words_written += 1 + chunk.len().div_ceil(WORD_BITS) as u64;
                }
                let segment = EpochSegment {
                    uid: id,
                    cols,
                    rows: map,
                };
                SegmentRows::Memory(Arc::new(segment))
            }
            Placement::Disk {
                dir, free, stage, ..
            } => {
                let mut rows: Vec<(usize, &BitVec)> = rows.into_iter().collect();
                for &(row, chunk) in &rows {
                    check(row, chunk)?;
                }
                // A run stores one chunk per row, ascending.  Reversing
                // first makes the stable sort put a repeated row's last
                // chunk first, which is the one `dedup` keeps.
                if !rows.is_sorted_by(|a, b| a.0 < b.0) {
                    rows.reverse();
                    rows.sort_by_key(|&(row, _)| row);
                    rows.dedup_by_key(|&mut (row, _)| row);
                }
                run::encode(id, cols, &rows, stage);
                let path = dir.join(run_file_name(id));
                let file = write_run(free, &path, stage)?;
                // Write-through: once the segment is on disk each chunk is
                // offered to the cache (admit-if-room, the charge a read
                // miss would pay), so the mine that follows finds the
                // entering segment as warm as the budget allows instead of
                // re-reading the run this call has just written.
                for &(row, chunk) in &rows {
                    self.stats.rows_written += 1;
                    self.stats.words_written += 1 + chunk.len().div_ceil(WORD_BITS) as u64;
                    self.reader.cache.insert(id, row, chunk);
                }
                SegmentRows::Disk {
                    run: RunFile {
                        file,
                        path,
                        len: stage.len(),
                        rows: rows.iter().map(|&(row, _)| row).collect(),
                    },
                    decoded: None,
                }
            }
        };
        self.stats.segments_written += 1;
        self.generation += 1;
        self.segments.push_back(Segment {
            id,
            cols,
            rows: segment_rows,
        });
        Ok(())
    }

    /// Drops the oldest segment, returning how many columns left with it.
    ///
    /// Surviving segments are untouched.  On the disk backends the leaving
    /// segment's file is released at once — the next push renames and
    /// overwrites it — so a slide issues no unlink.
    pub fn pop_segment(&mut self) -> Result<usize> {
        let segment = self.pop_oldest()?;
        if let (SegmentRows::Disk { mut run, .. }, Placement::Disk { free, .. }) =
            (segment.rows, &mut self.placement)
        {
            run.rows = Vec::new();
            free.push(run);
        }
        Ok(segment.cols)
    }

    /// Drops the oldest segment like [`SegmentedWindowStore::pop_segment`],
    /// but *keeps its backing file out of reuse*, returning
    /// `(columns, uid, path)`.
    ///
    /// Durable windows evict through this path: an evicted segment's file may
    /// still be referenced by a retained checkpoint, so it must not be
    /// overwritten until a later checkpoint proves it unreferenced.  The
    /// caller owns the returned path and hands it back through
    /// [`SegmentedWindowStore::release_segment_file`] once it is.
    pub fn pop_segment_detached(&mut self) -> Result<(usize, Option<(u64, PathBuf)>)> {
        let segment = self.pop_oldest()?;
        let file = match segment.rows {
            SegmentRows::Disk { run, .. } => Some((segment.id, run.path)),
            SegmentRows::Memory(_) => None,
        };
        Ok((segment.cols, file))
    }

    /// Takes the oldest segment off the queue; its cached chunks and its
    /// memoised run leave with it, and generation and counters move.
    fn pop_oldest(&mut self) -> Result<Segment> {
        let segment = self
            .segments
            .pop_front()
            .ok_or_else(|| FsmError::corrupt("pop_segment on an empty window"))?;
        // The popped segment's chunks can never be read again (its uid is
        // not reused, and the window columns it covered are gone).
        self.reader.cache.invalidate_segment(segment.id);
        self.reader.forget_run(segment.id);
        self.stats.segments_dropped += 1;
        self.generation += 1;
        Ok(segment)
    }

    /// Releases a segment file [`SegmentedWindowStore::pop_segment_detached`]
    /// kept out of reuse: a later push renames and overwrites it instead of
    /// creating a file.  A file that no longer exists counts as released;
    /// any other failure to open it is returned, and the caller may retry.
    pub fn release_segment_file(&mut self, path: &Path) -> Result<()> {
        let Placement::Disk { free, .. } = &mut self.placement else {
            return Err(FsmError::config("the memory backend has no segment files"));
        };
        let file = match OpenOptions::new().read(true).write(true).open(path) {
            Ok(file) => file,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(err) => return Err(annotate(err, "open released segment run", path)),
        };
        let len = usize::try_from(file.metadata()?.len()).unwrap_or(usize::MAX);
        free.push(RunFile {
            file,
            path: path.to_path_buf(),
            len,
            rows: Vec::new(),
        });
        Ok(())
    }

    /// Restores a disk-backed store from checkpointed segment metadata.
    ///
    /// Every entry of `metas` must name a segment run `seg-<uid>.run` in
    /// `dir`, and its row index must be the one the run layout places
    /// (contents are validated on read, or eagerly via
    /// [`SegmentedWindowStore::verify_segments`]).  Segment files with a uid
    /// at or above `next_id` are crash leftovers — they were created (or
    /// renamed into place) by batches the checkpoint does not cover, and WAL
    /// replay will re-create them — so they are removed here.  Unreferenced
    /// files *below* `next_id` may belong to an older retained checkpoint
    /// and are left for the caller to release once a new checkpoint commits.
    /// A directory holding format v1 files is refused
    /// ([`scan_segment_files`]).
    pub fn restore(dir: PathBuf, metas: &[SegmentMeta], next_id: u64) -> Result<Self> {
        std::fs::create_dir_all(&dir)?;
        for (uid, stale) in scan_segment_files(&dir)? {
            if uid >= next_id {
                std::fs::remove_file(&stale)?;
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
            let path = dir.join(run_file_name(meta.uid));
            let (rows, len) = checkpointed_index(&path, meta)?;
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .map_err(|err| annotate(err, "open segment run", &path))?;
            segments.push_back(Segment {
                id: meta.uid,
                cols: meta.cols,
                rows: SegmentRows::Disk {
                    run: RunFile {
                        file,
                        path,
                        len,
                        rows,
                    },
                    decoded: None,
                },
            });
        }
        Ok(Self {
            placement: Self::disk(dir, None),
            segments,
            next_id,
            stats: CaptureStats::default(),
            generation: 0,
            reader: ChunkReader::new(),
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
                SegmentRows::Disk { run, .. } => {
                    let chunk_bytes = run::chunk_bytes(segment.cols);
                    let n = run.rows.len();
                    Some(SegmentMeta {
                        uid: segment.id,
                        cols: segment.cols,
                        rows: run
                            .rows
                            .iter()
                            .enumerate()
                            .map(|(slot, &row)| {
                                (row, run::chunk_offset(n, chunk_bytes, slot), chunk_bytes)
                            })
                            .collect(),
                    })
                }
            })
            .collect()
    }

    /// Reads and fully decodes every live segment's run, checking it holds
    /// the segment the window describes (uid, columns, row ids).  The error
    /// names the first damaged run.
    pub fn verify_segments(&self) -> Result<()> {
        for segment in &self.segments {
            if let SegmentRows::Disk { run, .. } = &segment.rows {
                let name = artifact_name(&run.path);
                let decoded =
                    EpochSegment::decode_run(&run.load(segment.id, segment.cols)?, &name)?;
                if !decoded.rows.keys().eq(run.rows.iter()) {
                    return Err(FsmError::corrupt_artifact(
                        name,
                        "the run's row ids are not the ones the window indexes",
                    ));
                }
            }
        }
        Ok(())
    }

    /// Forces every live segment with uid `>= min_uid` to stable storage,
    /// returning the number of `fsync` system calls issued (one per run).
    ///
    /// Checkpointing calls this with the watermark of the last checkpoint:
    /// older segments were already synced then and are immutable, so only the
    /// runs written since need an `fsync`.
    pub fn sync_segments(&self, min_uid: u64) -> Result<u64> {
        let mut fsyncs = 0;
        for segment in &self.segments {
            if segment.id < min_uid {
                continue;
            }
            if let SegmentRows::Disk { run, .. } = &segment.rows {
                run.file.sync_all()?;
                fsyncs += 1;
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

    /// Materialises the live window into `rows` — `rows[id]` is row `id` —
    /// in one segment-major pass: the live segments oldest first, and within
    /// each the rows it holds, walked along its ascending row index.  Every
    /// held chunk is fetched once, in row order within its segment, and no
    /// index is searched.  The layout is [`EpochSegment::assemble_rows`]'s
    /// (one fill serves both): a row some live segment holds is allocated
    /// once and ends where its last chunk ends, a row no live segment holds
    /// stays empty and unallocated, and chunks of rows at or past
    /// `rows.len()` are not fetched.  Bit for bit, each row is
    /// [`SegmentedWindowStore::assemble_row`]'s without its zero tail.
    pub fn assemble_rows(&mut self, rows: &mut [BitVec]) -> Result<()> {
        let mut fill = RowFill::new(rows, self.num_cols());
        let Self {
            segments, reader, ..
        } = self;
        for segment in segments.iter() {
            match &segment.rows {
                SegmentRows::Memory(seg) => fill.extend(seg),
                SegmentRows::Disk { run, .. } => {
                    for (slot, &id) in run.rows.iter().enumerate() {
                        let Some(row) = fill.open(id) else { break };
                        reader.fetch(segment.id, segment.cols, run, slot, row)?;
                    }
                }
            }
            fill.start += segment.cols;
        }
        Ok(())
    }

    /// Materialises row `id` of the live window into `out` (cleared first):
    /// the concatenation of the row's chunk in every live segment, with
    /// zero-fill where a segment never saw the row.  The result is always
    /// exactly [`SegmentedWindowStore::num_cols`] bits long.
    ///
    /// One row at a time, with a search of every segment's index: the
    /// reference [`SegmentedWindowStore::assemble_rows`] is checked against,
    /// and the read behind a single-row lookup.
    pub fn assemble_row(&mut self, id: usize, out: &mut BitVec) -> Result<()> {
        out.resize(0);
        let Self {
            segments, reader, ..
        } = self;
        for segment in segments.iter() {
            match &segment.rows {
                SegmentRows::Memory(seg) => match seg.chunk(id) {
                    Some(chunk) => out.extend_from_bitvec(chunk),
                    None => out.resize(out.len() + segment.cols),
                },
                SegmentRows::Disk { run, .. } => match run.slot(id) {
                    Some(slot) => reader.fetch(segment.id, segment.cols, run, slot, out)?,
                    None => out.resize(out.len() + segment.cols),
                },
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
    /// hits; cold chunks are decoded from one read of the run) and the
    /// decoded form is memoised on the segment, so in the steady state a new
    /// epoch only decodes the segment the latest slide appended.  The
    /// decoded rows are *owned by the returned handle*, not held in the
    /// shared cache: budget changes and slides on the writer side can never
    /// invalidate them, and the memory is reclaimed when the store drops the
    /// segment (window slide) *and* the last snapshot referencing it is
    /// dropped.
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
            SegmentRows::Disk { run, decoded } => {
                if let Some(seg) = decoded {
                    return Ok(Arc::clone(seg));
                }
                let mut rows = BTreeMap::new();
                for (slot, &id) in run.rows.iter().enumerate() {
                    // Cold chunks are not admitted to the cache: the decoded
                    // segment is memoised below, so nothing reads them twice.
                    let chunk = match reader.cache.get(uid, id) {
                        Some(cached) => cached.clone(),
                        None => reader.read(uid, cols, run, slot)?.clone(),
                    };
                    rows.insert(id, chunk);
                }
                // For the same reason the run itself is not kept.
                reader.forget_run(uid);
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
            SegmentRows::Disk { run, .. } => Some(run.rows.clone()),
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
            .get(seg)
            .ok_or_else(|| FsmError::corrupt(format!("segment {seg} out of range")))?;
        out.resize(0);
        match &segment.rows {
            SegmentRows::Memory(seg) => match seg.chunk(id) {
                Some(chunk) => {
                    out.extend_from_bitvec(chunk);
                    Ok(true)
                }
                None => Ok(false),
            },
            SegmentRows::Disk { run, .. } => match run.slot(id) {
                Some(slot) => {
                    reader.fetch(segment.id, segment.cols, run, slot, out)?;
                    Ok(true)
                }
                None => Ok(false),
            },
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
    /// the disk backends the per-segment row indexes, the push buffer, the
    /// runs the read path holds memoised (none once released) and whatever
    /// the decoded-chunk cache currently holds (bounded by its budget).
    pub fn resident_bytes(&self) -> usize {
        let stage = match &self.placement {
            Placement::Memory => 0,
            Placement::Disk { stage, .. } => stage.capacity(),
        };
        let runs: usize = self.reader.runs.iter().map(|(_, run)| run.capacity()).sum();
        let segments: usize = self
            .segments
            .iter()
            .map(|s| {
                let rows = match &s.rows {
                    SegmentRows::Memory(segment) => segment.heap_bytes(),
                    SegmentRows::Disk { run, decoded } => {
                        run.rows.capacity() * std::mem::size_of::<usize>()
                            + decoded.as_ref().map_or(0, |seg| seg.heap_bytes())
                    }
                };
                rows + std::mem::size_of::<Segment>()
            })
            .sum();
        self.reader.cache.used_bytes() + stage + runs + segments
    }

    /// Bytes the live segments' runs occupy on disk (zero for the memory
    /// backend; a released file waiting to be overwritten holds no segment
    /// and is not counted).
    pub fn on_disk_bytes(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| match &s.rows {
                SegmentRows::Memory(_) => 0,
                SegmentRows::Disk { run, .. } => run.len as u64,
            })
            .sum()
    }
}

/// The row index a checkpoint records for segment `meta`, checked against
/// the run layout — rows strictly ascending, each chunk at the offset and
/// of the length the layout places it — with the run's length.
fn checkpointed_index(path: &Path, meta: &SegmentMeta) -> Result<(Vec<usize>, usize)> {
    let n = meta.rows.len();
    let chunk_bytes = run::chunk_bytes(meta.cols);
    let len = run::run_len(n, meta.cols).ok_or_else(|| {
        FsmError::corrupt_artifact(
            artifact_name(path),
            format!("{n} rows of {} columns overflow a run", meta.cols),
        )
    })?;
    let mut rows = Vec::with_capacity(n);
    for (slot, &(row, offset, bytes)) in meta.rows.iter().enumerate() {
        let at = run::chunk_offset(n, chunk_bytes, slot);
        if rows.last().is_some_and(|&last| last >= row) || offset != at || bytes != chunk_bytes {
            return Err(FsmError::corrupt_artifact(
                artifact_name(path),
                format!(
                    "the checkpoint places row {row} at byte {offset} ({bytes} bytes), \
                     the run layout at byte {at} ({chunk_bytes} bytes)"
                ),
            ));
        }
        rows.push(row);
    }
    Ok((rows, len))
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

    /// The `seg-*` file names in `dir`, sorted.
    fn segment_file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.starts_with("seg-"))
            .collect();
        names.sort();
        names
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
    fn assemble_rows_pads_lazily_and_leaves_unheld_rows_unallocated() {
        for backend in backends() {
            let mut store = SegmentedWindowStore::open(backend).unwrap();
            store
                .push_segment(3, [(0, &bv("101")), (2, &bv("011"))])
                .unwrap();
            store
                .push_segment(2, [(2, &bv("10")), (5, &bv("01"))])
                .unwrap();
            store.push_segment(4, [(0, &bv("0001"))]).unwrap();
            // Row 1 still holds an earlier view's bits; row 5 is held but
            // past the rows asked for.
            let mut rows = vec![BitVec::new(); 5];
            rows[1] = bv("1111111");
            store.assemble_rows(&mut rows).unwrap();
            let shapes: Vec<String> = rows.iter().map(|row| format!("{row:?}")).collect();
            // Row 0 is zero-filled across the segment that lacks it; row 2
            // ends with its last chunk; rows 1, 3 and 4 are held by no
            // segment and stay empty.
            assert_eq!(
                shapes,
                [
                    "BitVec[101000001]",
                    "BitVec[]",
                    "BitVec[01110]",
                    "BitVec[]",
                    "BitVec[]"
                ]
            );
            // A held row is one buffer of the window's 9 columns plus the
            // spare word: 73 bits, two words.  Unheld rows allocate nothing.
            assert_eq!((rows[0].heap_bytes(), rows[2].heap_bytes()), (16, 16));
            assert_eq!((rows[3].heap_bytes(), rows[4].heap_bytes()), (0, 0));
            // Bit for bit the reference, once its zero tail is restored.
            for (id, row) in rows.iter().enumerate() {
                let mut reference = BitVec::new();
                store.assemble_row(id, &mut reference).unwrap();
                let mut padded = row.clone();
                padded.resize(store.num_cols());
                assert_eq!(padded, reference, "row {id}");
            }
            // A frozen epoch of the same segments fills the same rows.
            let epoch: Vec<_> = (0..store.num_segments())
                .map(|seg| store.epoch_segment(seg).unwrap())
                .collect();
            let mut frozen = vec![BitVec::new(); 5];
            EpochSegment::assemble_rows(&epoch, &mut frozen);
            assert_eq!(frozen, rows);
            assert_eq!(frozen[3].heap_bytes(), 0);
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
    fn a_chunk_of_the_wrong_width_or_a_repeated_row_is_handled_alike_on_every_backend() {
        for backend in backends() {
            let mut store = SegmentedWindowStore::open(backend).unwrap();
            let err = store.push_segment(3, [(0, &bv("10"))]).unwrap_err();
            assert!(matches!(err, FsmError::InvalidConfig(_)), "{err}");
            // A row given twice keeps its last chunk; the run stays ascending.
            store
                .push_segment(2, [(5, &bv("10")), (1, &bv("11")), (5, &bv("01"))])
                .unwrap();
            assert_eq!(store.segment_row_ids(0).unwrap(), vec![1, 5]);
            let mut chunk = BitVec::new();
            assert!(store.read_segment_chunk(0, 5, &mut chunk).unwrap());
            assert_eq!(format!("{chunk:?}"), "BitVec[01]");
        }
    }

    #[test]
    fn eviction_recycles_the_backing_file() {
        let dir = TempDir::new("segstore-recycle").unwrap();
        let root = dir.file("segments");
        let mut store = SegmentedWindowStore::open(StorageBackend::DiskAt(root.clone())).unwrap();
        store.push_segment(8, [(0, &bv("10101010"))]).unwrap();
        store
            .push_segment(8, [(1, &bv("01010101")), (2, &bv("11110000"))])
            .unwrap();
        let before = store.on_disk_bytes();
        assert!(before > 0);
        store.pop_segment().unwrap();
        assert!(
            store.on_disk_bytes() < before,
            "the evicted segment leaves the window's footprint"
        );
        // The released file is still there, waiting for the next push, which
        // renames and overwrites it — shorter than what it held, so it is
        // truncated — instead of creating a file.
        assert_eq!(segment_file_names(&root), ["seg-0.run", "seg-1.run"]);
        store.pop_segment().unwrap();
        store.push_segment(8, [(3, &bv("00000001"))]).unwrap();
        let names = segment_file_names(&root);
        assert_eq!(names.len(), 2, "{names:?}");
        assert!(names.contains(&"seg-2.run".to_string()), "{names:?}");
        assert_eq!(
            std::fs::metadata(root.join("seg-2.run")).unwrap().len(),
            store.on_disk_bytes()
        );
        let mut row = BitVec::new();
        store.assemble_row(3, &mut row).unwrap();
        assert_eq!(format!("{row:?}"), "BitVec[00000001]");
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
            for store in &mut stores {
                store.release_runs();
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
        assert!(stores[2].runs_read() < stores[1].runs_read());
        assert!(stores[1].runs_read() < stores[0].runs_read());
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
        // One scan of the window, then the release a mine ends with; returns
        // (cache hits, runs read) it cost.
        let scan = |store: &mut SegmentedWindowStore| {
            let (hits, reads) = (store.cache_stats().hits, store.runs_read());
            let mut row = BitVec::new();
            for id in 0..rows {
                store.assemble_row(id, &mut row).unwrap();
                assert_eq!(row.count_ones(), 40 * store.num_segments() as u64);
            }
            store.release_runs();
            (store.cache_stats().hits - hits, store.runs_read() - reads)
        };

        // A budget covering the window: the pushes themselves warmed the
        // cache, so not even the first scan reads a run — and neither does
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
        assert_eq!(store.runs_read(), 0);

        // Budget 0 on a fresh store: every scan pays the full window again —
        // one run per segment, however many of its chunks it decodes.
        let mut eager = SegmentedWindowStore::open(StorageBackend::DiskTemp).unwrap();
        for _ in 0..4 {
            push(&mut eager);
        }
        assert_eq!(scan(&mut eager), (0, 4));
        assert_eq!(scan(&mut eager), (0, 4));
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
        let (cached, read) = (2 * rows as u64, 1);
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

    #[test]
    fn a_scan_reads_each_segment_at_most_once_and_looks_each_chunk_up_once() {
        // Five segments of 60 rows (the disk fleet's shape, narrowed to 64
        // columns) scanned twice per window — row by row (`assemble_row`,
        // the reference), then segment by segment (`assemble_rows`, the
        // view's pass) — at budget 0, at a budget holding two segments'
        // chunks and at a covering one.  Both scans cost the same: each
        // chunk looked up once, hits and misses as the budget decides, and
        // one read per segment with a miss, never one per missed chunk.
        let (segments, rows) = (5usize, 60usize);
        let chunk = BitVec::from_bools((0..64).map(|c| c % 3 == 0));
        let charge = {
            let mut probe = ChunkCache::new(usize::MAX);
            probe.insert(0, 0, &chunk);
            probe.used_bytes()
        };
        // (budget, hits, misses, reads) per scan.
        let cases = [
            (0, 0, 0, segments as u64),
            (2 * rows * charge, 2 * rows as u64, 3 * rows as u64, 3),
            (usize::MAX, (segments * rows) as u64, 0, 0),
        ];
        for (budget, hits, misses, reads) in cases {
            let mut store = SegmentedWindowStore::open(StorageBackend::DiskTemp).unwrap();
            store.set_cache_budget(budget);
            for slide in 0..segments + 3 {
                if store.num_segments() == segments {
                    store.pop_segment().unwrap();
                }
                store
                    .push_segment(64, (0..rows).map(|row| (row, &chunk)))
                    .unwrap();
                if store.num_segments() < segments {
                    continue;
                }
                let mut reference = vec![BitVec::new(); rows];
                let mut assembled = vec![BitVec::new(); rows];
                for pass in 0..2 {
                    let (before, read_before) = (store.cache_stats(), store.runs_read());
                    if pass == 0 {
                        for (id, row) in reference.iter_mut().enumerate() {
                            store.assemble_row(id, row).unwrap();
                        }
                    } else {
                        store.assemble_rows(&mut assembled).unwrap();
                    }
                    store.release_runs();
                    let after = store.cache_stats();
                    assert_eq!(
                        (
                            after.hits - before.hits,
                            after.misses - before.misses,
                            store.runs_read() - read_before
                        ),
                        (hits, misses, reads),
                        "budget {budget}, slide {slide}, pass {pass}"
                    );
                }
                // Every segment holds every row, so no row is cut short.
                assert_eq!(assembled, reference, "budget {budget}, slide {slide}");
            }
        }
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
    fn a_segment_file_is_the_bytewise_reference_run() {
        // Segment format v2, spelled out byte by byte: the header (version,
        // uid, columns, rows, payload length, then the CRC of everything
        // else), the row ids ascending, the chunks in the same order — each
        // its bit count, then its words — with nothing between or after.
        let dir = TempDir::new("segstore-format").unwrap();
        let root = dir.file("segments");
        let mut store = SegmentedWindowStore::open(StorageBackend::DiskAt(root.clone())).unwrap();
        let pattern = |cols: usize, salt: usize| {
            BitVec::from_bools((0..cols).map(|c| (c * 7 + salt) % 5 < 2))
        };
        // Rows pushed out of order, several words per chunk, a word-exact
        // width, and segments without rows.
        let segments: Vec<(usize, Vec<(usize, BitVec)>)> = vec![
            (
                500,
                vec![
                    (9, pattern(500, 1)),
                    (2, pattern(500, 2)),
                    (5, pattern(500, 3)),
                ],
            ),
            (128, vec![(0, pattern(128, 4)), (1, pattern(128, 5))]),
            (7, vec![]),
            (0, vec![]),
        ];
        for (uid, (cols, rows)) in segments.iter().enumerate() {
            store
                .push_segment(*cols, rows.iter().map(|(id, chunk)| (*id, chunk)))
                .unwrap();
            let mut sorted: Vec<&(usize, BitVec)> = rows.iter().collect();
            sorted.sort_by_key(|(id, _)| *id);
            let mut payload = Vec::new();
            for (id, _) in &sorted {
                payload.extend_from_slice(&(*id as u64).to_le_bytes());
            }
            for (_, chunk) in &sorted {
                payload.extend_from_slice(&(*cols as u64).to_le_bytes());
                for word in chunk.as_words() {
                    payload.extend_from_slice(&word.to_le_bytes());
                }
            }
            let mut expected = 2u32.to_le_bytes().to_vec();
            for field in [uid, *cols, rows.len(), payload.len()] {
                expected.extend_from_slice(&(field as u64).to_le_bytes());
            }
            let crc = reference_crc32(&[expected.as_slice(), &payload].concat());
            expected.extend_from_slice(&crc.to_le_bytes());
            expected.extend_from_slice(&payload);
            let path = root.join(format!("seg-{uid}.run"));
            assert_eq!(std::fs::read(&path).unwrap(), expected, "segment {uid}");
        }
        // A 500-column chunk is its 8-byte bit count and 8 words: 72 bytes,
        // packed, where format v1 spent a 1 KiB page on it.
        assert_eq!(
            std::fs::metadata(root.join("seg-0.run")).unwrap().len(),
            40 + 3 * (8 + 72)
        );
        store.verify_segments().unwrap();
    }

    #[test]
    fn every_damaged_byte_of_a_run_is_refused_on_read() {
        let dir = TempDir::new("segstore-flip").unwrap();
        let root = dir.file("segments");
        let mut store = SegmentedWindowStore::open(StorageBackend::DiskAt(root.clone())).unwrap();
        store
            .push_segment(70, [(1, &bv(&"10".repeat(35))), (4, &bv(&"1".repeat(70)))])
            .unwrap();
        let path = root.join("seg-0.run");
        let clean = std::fs::read(&path).unwrap();
        let mut row = BitVec::new();
        for at in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x20;
            std::fs::write(&path, &bytes).unwrap();
            for check in 0..2 {
                let err = if check == 0 {
                    store.assemble_row(4, &mut row).unwrap_err()
                } else {
                    store.verify_segments().unwrap_err()
                };
                assert!(
                    matches!(&err, FsmError::CorruptArtifact { artifact, .. } if artifact == "seg-0.run"),
                    "byte {at}, check {check}: {err}"
                );
            }
        }
        // Truncated behind the store's back: refused as damage, not as I/O.
        std::fs::write(&path, &clean[..clean.len() - 1]).unwrap();
        let err = store.assemble_row(4, &mut row).unwrap_err();
        assert!(matches!(err, FsmError::CorruptArtifact { .. }), "{err}");
        std::fs::write(&path, &clean).unwrap();
        store.assemble_row(4, &mut row).unwrap();
        assert_eq!(row.count_ones(), 70);
    }

    #[test]
    fn a_restored_store_reads_what_was_pushed_and_refuses_a_lying_index() {
        let dir = TempDir::new("segstore-restore").unwrap();
        let root = dir.file("segments");
        let (metas, next_id, expected) = {
            let mut store =
                SegmentedWindowStore::open(StorageBackend::DiskAt(root.clone())).unwrap();
            store.push_segment(3, [(0, &bv("101"))]).unwrap();
            store
                .push_segment(66, [(2, &bv(&"1".repeat(66))), (7, &bv(&"01".repeat(33)))])
                .unwrap();
            store.sync_segments(0).unwrap();
            let mut expected = Vec::new();
            for id in 0..8 {
                let mut row = BitVec::new();
                store.assemble_row(id, &mut row).unwrap();
                expected.push(row);
            }
            (
                store.segment_metas().unwrap(),
                store.next_segment_id(),
                expected,
            )
        };
        // A leftover at or past the next uid is removed; below it, kept.
        std::fs::write(root.join("seg-9.run"), b"torn").unwrap();
        let mut restored = SegmentedWindowStore::restore(root.clone(), &metas, next_id).unwrap();
        restored.verify_segments().unwrap();
        assert!(!root.join("seg-9.run").exists());
        for (id, want) in expected.iter().enumerate() {
            let mut row = BitVec::new();
            restored.assemble_row(id, &mut row).unwrap();
            assert_eq!(&row, want, "row {id}");
        }
        assert_eq!(restored.segment_metas().unwrap(), metas);
        drop(restored);

        // An index entry the run layout does not place there.
        let mut lying = metas.clone();
        lying[1].rows[1].1 += 8;
        let err = SegmentedWindowStore::restore(root.clone(), &lying, next_id).unwrap_err();
        assert!(
            matches!(&err, FsmError::CorruptArtifact { artifact, .. } if artifact == "seg-1.run"),
            "{err}"
        );
        // A file renamed into place but never rewritten: the header's uid
        // is not the one its name claims.
        std::fs::rename(root.join("seg-0.run"), root.join("seg-5.run")).unwrap();
        let renamed = [SegmentMeta {
            uid: 5,
            ..metas[0].clone()
        }];
        let restored = SegmentedWindowStore::restore(root.clone(), &renamed, 6).unwrap();
        let err = restored.verify_segments().unwrap_err();
        assert!(
            matches!(&err, FsmError::CorruptArtifact { artifact, .. } if artifact == "seg-5.run"),
            "{err}"
        );
    }

    #[test]
    fn a_format_v1_segment_directory_is_refused_by_name() {
        let dir = TempDir::new("segstore-v1").unwrap();
        let root = dir.file("segments");
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join("seg-3.pages"), [0u8; 1024]).unwrap();
        std::fs::write(root.join("seg-3.pages.crc"), [0u8; 4]).unwrap();
        for refused in [
            scan_segment_files(&root).map(drop),
            SegmentedWindowStore::restore(root.clone(), &[], 4).map(drop),
        ] {
            let err = refused.unwrap_err();
            assert!(
                matches!(&err, FsmError::CorruptArtifact { artifact, detail }
                    if artifact.starts_with("seg-3.pages") && detail.contains("segment format v1")),
                "{err}"
            );
        }
        assert_eq!(
            segment_file_names(&root).len(),
            2,
            "refusing deletes nothing"
        );
        // A fresh start at the same path discards them like any stale file.
        SegmentedWindowStore::open(StorageBackend::DiskAt(root.clone())).unwrap();
        assert!(segment_file_names(&root).is_empty());
    }

    #[test]
    fn memory_backend_ignores_the_cache_budget() {
        let mut store = SegmentedWindowStore::open(StorageBackend::Memory).unwrap();
        store.set_cache_budget(usize::MAX);
        assert_eq!(store.cache_budget(), 0);
        store.push_segment(2, [(0, &bv("10"))]).unwrap();
        let mut row = BitVec::new();
        store.assemble_row(0, &mut row).unwrap();
        assert_eq!(store.runs_read(), 0);
        assert_eq!(store.cache_stats(), ChunkCacheStats::default());
    }

    #[test]
    fn disk_epoch_segments_are_memoised_and_outlive_the_slide() {
        let mut store = SegmentedWindowStore::open(StorageBackend::DiskTemp).unwrap();
        let wide = bv(&"10".repeat(40));
        store.push_segment(80, [(0, &wide), (1, &wide)]).unwrap();
        store.push_segment(80, [(0, &wide)]).unwrap();

        let first = store.epoch_segment(0).unwrap();
        assert_eq!(store.runs_read(), 1, "the first decode reads the run once");
        // A second epoch over the same segment is served from the memo.
        let again = store.epoch_segment(0).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(store.runs_read(), 1);
        assert!(store.reader.runs.is_empty(), "the decode keeps no run");

        // The slide drops the store's handle and releases the file, but the
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
        assert!(root.join("seg-0.run").exists());
        store.pop_segment().unwrap();
        store.push_segment(4, [(1, &bv("0110"))]).unwrap();
        assert_eq!(segment_file_names(&root), ["seg-1.run"]);
    }

    #[test]
    fn a_released_file_removed_behind_the_stores_back_is_not_recycled() {
        let dir = TempDir::new("segstore-removed").unwrap();
        let root = dir.file("segments");
        let mut store = SegmentedWindowStore::open(StorageBackend::DiskAt(root.clone())).unwrap();
        store.push_segment(3, [(0, &bv("101"))]).unwrap();
        store.push_segment(2, [(0, &bv("01"))]).unwrap();
        let generation = store.generation();
        // Someone removes the oldest segment's file behind the store's back.
        std::fs::remove_file(root.join("seg-0.run")).unwrap();

        // The pop releases a file that is gone; the window moves regardless.
        assert_eq!(store.pop_segment().unwrap(), 3);
        assert_eq!(store.num_segments(), 1);
        assert_eq!(store.generation(), generation + 1);
        assert_eq!(store.stats().segments_dropped, 1);
        // The next push finds nothing to rename and creates its file.
        store.push_segment(1, [(0, &bv("1"))]).unwrap();
        assert_eq!(segment_file_names(&root), ["seg-1.run", "seg-2.run"]);
        let mut row = BitVec::new();
        store.assemble_row(0, &mut row).unwrap();
        assert_eq!(format!("{row:?}"), "BitVec[011]");
        // A durable window's release of a vanished file counts as done.
        store.release_segment_file(&root.join("seg-0.run")).unwrap();
    }
}
