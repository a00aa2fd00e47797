//! An append-friendly, window-aligned row store: one immutable segment per
//! batch.
//!
//! The DSMatrix conceptually extends every row by one bit per incoming
//! transaction and drops a prefix of every row when the window slides.  Doing
//! that literally rewrites `O(rows × window columns)` cells on every slide.
//! This store instead keeps the window as a queue of **batch segments**: each
//! ingested batch becomes one immutable, flat segment ([`EpochSegment`]: one
//! word arena) holding, for every row that has at least one set bit in the
//! batch, that row's bit chunk for the batch's columns.  A window slide is
//! then
//!
//! * **append** one new segment (cost: only the rows the batch touches; the
//!   segment's arena moves in as it is), and
//! * **drop** the oldest segment (cost: a queue pop; its arena goes to the
//!   next append when no reader holds it, and on the disk backends its file
//!   is kept for the next append to overwrite),
//!
//! so capture cost is `O(rows touched by the new batch + evicted columns)`
//! and unevicted row prefixes are never rewritten.
//!
//! Each live segment has **one record** here (uid, batch id, columns,
//! `(row, ones)` support ledger), and [`SegmentedWindowStore::slide`], the
//! one write path, writes the entering run before it evicts, so a failed
//! write leaves the window as it was.
//!
//! # Disk segments
//!
//! On the disk backends a segment is one **run** in `seg-<uid>.run`: a
//! 40-byte header, the row index and the chunks packed back to back under
//! one CRC-32 (segment format v2; the layout is in the `run` module's docs).
//! [`SegmentedWindowStore::slide`] encodes it from the segment's arena and
//! writes it with one positional write, and a read fetches it with one
//! positional read, verifying the CRC and checking the row ids against the
//! segment's ledger before a byte of it is decoded.  Files are
//! **recycled**, not unlinked: an evicted segment's file is released — at
//! once by [`SegmentedWindowStore::release`], or by
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
//!   chunks into flat rows ([`BitVec::extend_from_bits`]) segment by
//!   segment, and [`EpochSegment::assemble_rows`] does the same over a
//!   frozen epoch's segments, through the same fill.  A row no segment holds
//!   is left unallocated, and a held row ends where its last chunk ends.
//! * A segment is read whole, as one decoded [`EpochSegment`] shared by
//!   `Arc` — with the store while it is **resident**, and with every epoch
//!   snapshot that covers it.  On the memory backend every segment is
//!   resident.  On the disk backends a segment is resident while the
//!   store's byte budget ([`SegmentedWindowStore::set_cache_budget`]) holds
//!   it, charged its [`EpochSegment::heap_bytes`]; there is no finer unit.
//! * Admission is **admit-if-room**, never evict-to-admit.
//!   [`SegmentedWindowStore::slide`] writes through: it keeps the segment
//!   whose arena it has just encoded the run from if it fits.
//!   A read of a non-resident segment reads its run once, CRC-verified, and
//!   offers the decoded segment the same way; a refused one serves that
//!   read and is dropped.  The one
//!   production access pattern is a cyclic scan of the window in the same
//!   order every pass, and on a cyclic scan larger than the budget
//!   evict-to-admit would throw out exactly what the next pass needs;
//!   keeping whatever fitted first keeps hitting it on every pass.
//! * A segment leaves residency when it is evicted — a slide evicts before
//!   it offers the entering segment, so the room the leaving segment frees
//!   admits the entering one — or when a budget shrink drops resident
//!   segments oldest first until the rest fit.  A zero budget (the default)
//!   keeps nothing resident.  With a
//!   budget covering the window a steady-state scan reads **no** run; with a
//!   smaller one it reads exactly the segments that never fitted, the same
//!   ones every pass.  The budget buys decodes, never assembly.  Run reads
//!   are counted in [`SegmentedWindowStore::runs_read`], chunks served from
//!   resident disk segments in [`SegmentedWindowStore::resident_hits`].
//! * [`SegmentedWindowStore::generation`] is a monotonic counter bumped by
//!   every segment append or drop: the identity of a window epoch, which an
//!   epoch snapshot carries and a delta miner checks its state against.
//!
//! Every write is counted in [`CaptureStats`], which is how the benchmark
//! harness (and the slide-cost tests) assert the incremental behaviour
//! instead of merely hoping for it.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::bitvec::{BitSlice, BitVec};
use crate::checkpoint::{Checkpoint, CheckpointSegment};
use crate::chunkcache::Residency;
use crate::positional::{annotate, artifact_name, read_exact_at, write_all_at};
use crate::run;
use crate::temp::TempDir;
use fsm_types::codec::Reader;
use fsm_types::{BatchId, FsmError, Result};

const WORD_BITS: usize = 64;

/// Where a capture structure — a [`SegmentedWindowStore`], or the DSTable's
/// table file — keeps its window contents.
#[derive(Debug, Clone, Default)]
pub enum StorageBackend {
    /// On disk, in a self-cleaning temporary directory (the paper's default:
    /// the capture structure does not consume main memory).
    #[default]
    DiskTemp,
    /// On disk, in the given directory (created if missing; kept across
    /// runs).
    DiskAt(PathBuf),
    /// In main memory (baseline / ablation configuration).
    Memory,
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
/// It is also the store's one residency unit.  On the memory backend the
/// live segments *are* `EpochSegment`s (snapshots are free `Arc` clones); on
/// the disk backends a segment is held in this form while the budget keeps
/// it resident, and is otherwise decoded from its run for the read that
/// needs it (see [`SegmentedWindowStore::epoch_segment`]).
///
/// A segment is **flat**: one word arena holding the ids of the rows it has
/// a chunk for, ascending, then those rows' chunks in the same order, each
/// exactly `⌈cols / 64⌉` words with the bits past `cols` clear.  A chunk is
/// lent out as a [`BitSlice`] of the arena; rows without a set bit are
/// absent.  The arena is what a segment costs ([`EpochSegment::heap_bytes`])
/// and what a slide recycles: a popped segment no reader still holds hands
/// its arena, and its `Arc`, to the next push.
#[derive(Debug, Clone, Default)]
pub struct EpochSegment {
    /// Stable uid of the segment (never reused), given by the store that
    /// takes it ([`SegmentedWindowStore::slide`]).
    uid: u64,
    /// Id of the batch the segment holds, given with the uid.
    batch_id: BatchId,
    /// Number of window columns (transactions) the segment contributes.
    cols: usize,
    /// Number of rows the segment holds a chunk for.
    rows: usize,
    /// `rows` row ids, then `rows` chunks of `words_per_row(cols)` words.
    arena: Vec<u64>,
}

/// Words of one chunk of `cols` bits.
fn words_per_row(cols: usize) -> usize {
    cols.div_ceil(WORD_BITS)
}

impl EpochSegment {
    /// A segment of `cols` columns built in `arena` (a buffer to reuse:
    /// its contents are discarded, its capacity kept) from `rows` —
    /// `(row id, words)` pairs strictly ascending by id, each exactly
    /// `⌈cols / 64⌉` words.  Bits past `cols` in a row's last word are
    /// cleared.  A row out of order or of another width is refused with
    /// [`FsmError::InvalidConfig`].  The segment has no uid or batch id
    /// until a store takes it.
    pub fn from_words<'w, I>(cols: usize, rows: I, mut arena: Vec<u64>) -> Result<Self>
    where
        I: IntoIterator<Item = (usize, &'w [u64])>,
        I::IntoIter: ExactSizeIterator + Clone,
    {
        let rows = rows.into_iter();
        let (n, width) = (rows.len(), words_per_row(cols));
        arena.clear();
        arena.reserve_exact(n * (1 + width));
        for (id, words) in rows.clone() {
            if arena.last().is_some_and(|&last| last >= id as u64) {
                return Err(FsmError::config(format!(
                    "row {id} does not follow row {} in ascending order",
                    arena[arena.len() - 1]
                )));
            }
            if words.len() != width {
                return Err(FsmError::config(format!(
                    "row {id}'s chunk is {} words, but a segment of {cols} columns \
                     holds {width}",
                    words.len()
                )));
            }
            arena.push(id as u64);
        }
        for (_, words) in rows {
            arena.extend_from_slice(words);
        }
        let mut segment = Self {
            uid: 0,
            batch_id: 0,
            cols,
            rows: n,
            arena,
        };
        segment.clear_tails();
        Ok(segment)
    }

    /// A segment of `cols` columns from `(row id, chunk)` pairs in any
    /// order; a row given twice keeps its last chunk.  A chunk that is not
    /// exactly `cols` bits long is refused with [`FsmError::InvalidConfig`].
    pub fn from_rows<'a, I>(cols: usize, rows: I) -> Result<Self>
    where
        I: IntoIterator<Item = (usize, &'a BitVec)>,
    {
        let mut rows: Vec<(usize, &BitVec)> = rows.into_iter().collect();
        if let Some(&(row, chunk)) = rows.iter().find(|(_, chunk)| chunk.len() != cols) {
            return Err(FsmError::config(format!(
                "row {row}'s chunk is {} bits, but the segment is {cols} columns",
                chunk.len()
            )));
        }
        // Reversing first makes the stable sort put a repeated row's last
        // chunk first, which is the one `dedup` keeps.
        rows.reverse();
        rows.sort_by_key(|&(row, _)| row);
        rows.dedup_by_key(|&mut (row, _)| row);
        Self::from_words(
            cols,
            rows.iter().map(|&(row, chunk)| (row, chunk.as_words())),
            Vec::new(),
        )
    }

    /// Decodes one whole segment run — the bytes of a `seg-<uid>.run` file
    /// (segment format v2) — into one arena.  The CRC is verified before any
    /// field is read; then the header must describe exactly the bytes
    /// present, the row ids must ascend strictly and every chunk must be the
    /// segment's columns wide.  Damage is [`FsmError::CorruptArtifact`]
    /// naming `artifact`, and nothing is allocated for a count the bytes
    /// present cannot hold.
    pub fn decode_run(bytes: &[u8], artifact: &str) -> Result<Self> {
        let header = run::check(bytes, artifact)?;
        Self::decode_checked(bytes, header, artifact)
    }

    /// [`EpochSegment::decode_run`] past the CRC: `header` is what
    /// [`run::check`] returned for `bytes`.
    fn decode_checked(bytes: &[u8], header: run::Header, artifact: &str) -> Result<Self> {
        let width = words_per_row(header.cols);
        let mut reader = Reader::artifact(&bytes[run::HEADER_BYTES..], artifact);
        // `check` proved the payload holds `header.rows` index entries and
        // as many chunks of `width` words.
        let mut arena: Vec<u64> = Vec::with_capacity(header.rows * (1 + width));
        for _ in 0..header.rows {
            let id = reader.take_u64()?;
            match usize::try_from(id) {
                Ok(_) if arena.last().is_none_or(|&last| last < id) => arena.push(id),
                _ => {
                    return Err(FsmError::corrupt_artifact(
                        artifact,
                        format!("row id {id} does not follow its predecessor in ascending order"),
                    ))
                }
            }
        }
        for slot in 0..header.rows {
            let bits = reader.take_u64()?;
            if bits != header.cols as u64 {
                return Err(FsmError::corrupt_artifact(
                    artifact,
                    format!("row {}'s chunk is not {} bits", arena[slot], header.cols),
                ));
            }
            for _ in 0..width {
                arena.push(reader.take_u64()?);
            }
        }
        reader.finish()?;
        let mut segment = Self {
            uid: header.uid,
            batch_id: 0,
            cols: header.cols,
            rows: header.rows,
            arena,
        };
        segment.clear_tails();
        Ok(segment)
    }

    /// Clears the bits past `cols` in every chunk's last word.
    fn clear_tails(&mut self) {
        let (width, tail) = (words_per_row(self.cols), self.cols % WORD_BITS);
        if tail == 0 {
            return;
        }
        for chunk in self.arena[self.rows..].chunks_exact_mut(width) {
            chunk[width - 1] &= (1u64 << tail) - 1;
        }
    }

    /// The segment's stable uid (never reused across the store's lifetime).
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Id of the batch the segment holds (0 until a store takes it; a run
    /// does not record it, so [`EpochSegment::decode_run`] leaves it 0).
    pub fn batch_id(&self) -> BatchId {
        self.batch_id
    }

    /// Number of window columns the segment contributes.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The ids of the rows the segment holds, ascending.
    fn ids(&self) -> &[u64] {
        &self.arena[..self.rows]
    }

    /// The chunk in index slot `slot`.
    fn chunk_at(&self, slot: usize) -> BitSlice<'_> {
        let width = words_per_row(self.cols);
        let at = self.rows + slot * width;
        BitSlice::trusted(&self.arena[at..at + width], self.cols)
    }

    /// Borrows the chunk of row `id`, or `None` if the segment never saw the
    /// row (its span reads as zeros).
    pub fn chunk(&self, id: usize) -> Option<BitSlice<'_>> {
        let slot = self.ids().binary_search(&(id as u64)).ok()?;
        Some(self.chunk_at(slot))
    }

    /// Iterates the `(row id, chunk)` pairs in ascending row order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = (usize, BitSlice<'_>)> + Clone {
        (0..self.rows).map(move |slot| (self.arena[slot] as usize, self.chunk_at(slot)))
    }

    /// Number of rows the segment holds a chunk for.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Bytes of the segment's arena — `8 × (1 + ⌈cols / 64⌉)` per row, its
    /// id and its chunk's words (shared across every epoch that references
    /// the segment, not per snapshot) — what a resident disk segment is
    /// charged against the store's budget.
    pub fn heap_bytes(&self) -> usize {
        self.arena.len() * std::mem::size_of::<u64>()
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

/// [`EpochSegment::heap_bytes`] of a segment of `rows` chunks of `cols`
/// bits — one id word plus the chunk's words per row: what the residency
/// tests expect a segment to be charged.
#[cfg(test)]
pub(crate) fn decoded_bytes(rows: usize, cols: usize) -> usize {
    rows.saturating_mul((1 + words_per_row(cols)) * std::mem::size_of::<u64>())
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

    /// Appends every chunk of a decoded segment starting at column `start`,
    /// each as one run of words.
    fn extend(&mut self, segment: &EpochSegment) {
        for (id, chunk) in segment.rows() {
            let Some(row) = self.open(id) else { break };
            row.extend_from_bits(chunk);
        }
    }
}

/// A disk segment's run file: the open handle, its path and the run's
/// length (the run's row ids are held once, in its segment's ledger).
#[derive(Debug)]
struct RunFile {
    file: File,
    path: PathBuf,
    len: usize,
}

impl RunFile {
    /// The whole run of segment `uid` (`cols` columns), read with one
    /// positional read and verified — the CRC first, then the header
    /// against the segment the window expects: its uid and columns.
    fn load(&self, uid: u64, cols: usize) -> Result<(Vec<u8>, run::Header)> {
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
            ..header
        };
        if header != expected {
            return Err(FsmError::corrupt_artifact(
                name,
                format!("the run holds {header:?}, the window expects {expected:?}"),
            ));
        }
        Ok((bytes, header))
    }
}

enum SegmentRows {
    /// Memory backend: the decoded segment, always resident and shared with
    /// epoch snapshots via `Arc`.
    Memory(Arc<EpochSegment>),
    /// Disk backends: the segment's run, plus its decoded form while it is
    /// resident — charged against the store's [`Residency`] budget.
    Disk {
        run: RunFile,
        resident: Option<Arc<EpochSegment>>,
    },
}

/// The one record of a live segment: its uid, batch id, columns and
/// support ledger, and where its rows are.
struct Segment {
    /// Stable uid of this segment (names its run; never reused).
    uid: u64,
    /// Id of the batch the segment holds.
    batch_id: BatchId,
    /// Number of window columns (transactions) this segment contributes.
    cols: usize,
    /// `(row, ones)` for every row the segment holds a chunk for, ascending:
    /// what it adds to the window's supports, and the index every decode of
    /// its run is checked against.
    ledger: Vec<(usize, u64)>,
    /// Row chunks of the segment; rows without a set bit are absent.
    rows: SegmentRows,
}

impl Segment {
    /// Segment `self` decoded from one [`RunFile::load`] of `run`, its row
    /// ids checked against the ledger.
    fn decode(&self, run: &RunFile) -> Result<EpochSegment> {
        let name = artifact_name(&run.path);
        let (bytes, header) = run.load(self.uid, self.cols)?;
        let mut decoded = EpochSegment::decode_checked(&bytes, header, &name)?;
        if !decoded
            .ids()
            .iter()
            .map(|&id| id as usize)
            .eq(self.ledger.iter().map(|&(row, _)| row))
        {
            return Err(FsmError::corrupt_artifact(
                name,
                "the run's row ids are not the ones the window indexes",
            ));
        }
        decoded.batch_id = self.batch_id;
        Ok(decoded)
    }
}

/// The record of a segment taken off the window, with its run file on the
/// disk backends.  [`SegmentedWindowStore::release`] takes it back for the
/// next slide to reuse its ledger buffer and, unless parked, its file.
#[derive(Debug)]
pub struct Evicted {
    /// Uid of the evicted segment.
    pub uid: u64,
    /// Id of the batch that left the window.
    pub batch_id: BatchId,
    /// Columns that left with it.
    pub cols: usize,
    /// `(row, ones)` for every row the segment held a chunk for, ascending:
    /// what its leaving takes from the window's singleton supports.
    pub ledger: Vec<(usize, u64)>,
    run: Option<RunFile>,
}

impl Evicted {
    /// Keeps the run file out of reuse, returning its path (`None` on the
    /// memory backend): a durable window's checkpoint may still name it,
    /// until [`SegmentedWindowStore::release_segment_file`] releases it.
    pub fn park(&mut self) -> Option<PathBuf> {
        self.run.take().map(|run| run.path)
    }
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

/// Writes `run` to `path` with one positional write — into a released file
/// renamed to `path` (and truncated when the run is shorter than what it
/// held), or into a file created there when none is free.  A released file
/// that can no longer be renamed (removed behind the store's back) is
/// dropped and the next one tried.  A file whose write fails goes back on
/// the free list under `path`, for a retry of the same uid to take first.
fn write_run(free: &mut Vec<RunFile>, path: &Path, run: &[u8]) -> Result<RunFile> {
    // A spare already named `path` goes first: renaming another one over it
    // would leave the free list holding a file by a name it lost.
    if let Some(at) = free.iter().position(|spare| spare.path == path) {
        let last = free.len() - 1;
        free.swap(at, last);
    }
    let path = path.to_path_buf();
    let mut target = loop {
        match free.pop() {
            Some(spare) if std::fs::rename(&spare.path, &path).is_ok() => {
                break RunFile { path, ..spare }
            }
            Some(_) => continue,
            None => {
                let file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create_new(true)
                    .open(&path)
                    .map_err(|err| annotate(err, "create segment run", &path))?;
                break RunFile { file, path, len: 0 };
            }
        }
    };
    let written = write_all_at(&target.file, run, 0).and_then(|()| {
        if target.len > run.len() {
            target.file.set_len(run.len() as u64)
        } else {
            Ok(())
        }
    });
    if let Err(err) = written {
        target.len = target.len.max(run.len());
        free.push(target);
        return Err(err.into());
    }
    target.len = run.len();
    Ok(target)
}

/// A queue of per-batch row segments backing one sliding window.
///
/// All three [`StorageBackend`]s are supported: `Memory` keeps the flat
/// segments themselves (zero-copy readable), the disk backends write one run
/// file per segment (so eviction never rewrites surviving data, and the
/// evicted file is recycled by a later push).  Each live segment has one
/// record here: uid, batch id, columns and `(row, ones)` support ledger.
pub struct SegmentedWindowStore {
    placement: Placement,
    segments: VecDeque<Segment>,
    next_id: u64,
    stats: CaptureStats,
    /// The disk segments' residency budget and read counters.
    residency: Residency,
    /// An evicted segment no reader holds, whose `Arc` and arena the next
    /// slide reuses.
    spare: Option<Arc<EpochSegment>>,
    /// A released segment's ledger, which the next slide's record reuses.
    spare_ledger: Vec<(usize, u64)>,
}

impl SegmentedWindowStore {
    /// Opens a store with the given backend.
    ///
    /// A store opened at an explicit path starts empty whatever a previous
    /// one left there: format v1 files are removed, and its runs are
    /// released for this store's pushes to overwrite instead of being
    /// unlinked and created again ([`SegmentedWindowStore::remove_spares`]
    /// unlinks the ones no push took).  Recovery goes through
    /// [`SegmentedWindowStore::restore`] instead, which *keeps* referenced
    /// files.
    pub fn open(backend: StorageBackend) -> Result<Self> {
        let mut stale = Vec::new();
        let placement = match backend {
            StorageBackend::Memory => Placement::Memory,
            StorageBackend::DiskTemp => {
                let tempdir = TempDir::new("segstore")?;
                Self::disk(tempdir.path().to_path_buf(), Some(tempdir))
            }
            StorageBackend::DiskAt(path) => {
                std::fs::create_dir_all(&path)?;
                stale = segment_files(&path)?;
                Self::disk(path, None)
            }
        };
        let mut store = Self::empty(placement, 0);
        for (kind, path) in stale {
            match kind {
                SegmentFile::Run(_) => store.release_segment_file(&path)?,
                SegmentFile::V1 => std::fs::remove_file(&path)?,
            }
        }
        Ok(store)
    }

    fn empty(placement: Placement, next_id: u64) -> Self {
        Self {
            placement,
            segments: VecDeque::new(),
            next_id,
            stats: CaptureStats::default(),
            residency: Residency::default(),
            spare: None,
            spare_ledger: Vec::new(),
        }
    }

    fn disk(dir: PathBuf, tempdir: Option<TempDir>) -> Placement {
        Placement::Disk {
            dir,
            _tempdir: tempdir,
            free: Vec::new(),
            stage: Vec::new(),
        }
    }

    /// Sets the byte budget resident disk segments are charged against
    /// (`0` keeps nothing resident: every read decodes its segment's run).
    /// A shrink drops resident segments oldest first — the next to leave
    /// the window anyway — until the rest fit.  The memory backend ignores
    /// the budget: every one of its segments is resident.
    pub fn set_cache_budget(&mut self, budget_bytes: usize) {
        if self.is_memory_resident() {
            return;
        }
        let slots = self.segments.iter_mut().filter_map(|s| match &mut s.rows {
            SegmentRows::Disk { resident, .. } => Some(resident),
            SegmentRows::Memory(_) => None,
        });
        self.residency.set_budget(budget_bytes, slots);
    }

    /// The byte budget resident disk segments are charged against.
    pub fn cache_budget(&self) -> usize {
        self.residency.budget()
    }

    /// Segment runs read so far — one per read of a segment that was not
    /// resident (always zero on the memory backend).  Differencing it across
    /// a mine call counts the segments that call had to go to disk for —
    /// the read amplification twin of [`CaptureStats::words_written`].
    pub fn runs_read(&self) -> u64 {
        self.residency.runs_read
    }

    /// Chunks served from resident disk segments so far, each without a
    /// run read (always zero on the memory backend, which has no runs).
    pub fn resident_hits(&self) -> u64 {
        self.residency.hits
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

    /// Batch boundaries as cumulative column counts, oldest segment first.
    pub fn boundaries(&self) -> Vec<usize> {
        self.segments
            .iter()
            .scan(0, |end, s| {
                *end += s.cols;
                Some(*end)
            })
            .collect()
    }

    /// Id of the newest live segment's batch (`None` for an empty window).
    pub fn newest_batch(&self) -> Option<BatchId> {
        self.segments.back().map(|s| s.batch_id)
    }

    /// The live segments' `(row, ones)` support ledgers, oldest first.
    pub fn ledgers(&self) -> impl ExactSizeIterator<Item = &[(usize, u64)]> + '_ {
        self.segments.iter().map(|s| s.ledger.as_slice())
    }

    /// The checkpoint manifest of the live segments, oldest first: each
    /// one's uid, batch id and columns.
    pub fn manifest(&self) -> Vec<CheckpointSegment> {
        self.segments
            .iter()
            .map(|s| CheckpointSegment {
                uid: s.uid,
                batch_id: s.batch_id,
                cols: s.cols as u64,
            })
            .collect()
    }

    /// Segments appended plus segments evicted since the store was opened
    /// or restored: a monotonic count of the window's changes.
    ///
    /// It names a window epoch: an epoch snapshot is tagged with the
    /// generation it was taken at, and a reader that keeps a derivation of
    /// the window (a delta miner's state) compares tags; a mismatch means
    /// the window changed underneath it.
    pub fn generation(&self) -> u64 {
        self.stats.segments_written + self.stats.segments_dropped
    }

    /// The cumulative capture-cost counters.
    pub fn stats(&self) -> CaptureStats {
        self.stats
    }

    /// Appends one segment of `cols` columns whose touched rows are given as
    /// `(row id, bit chunk)` pairs, as a batch whose id is the segment's
    /// uid; a row given twice keeps its last chunk.  A chunk that is not
    /// exactly `cols` bits long is refused before anything is written.
    /// [`EpochSegment::from_rows`] then [`SegmentedWindowStore::slide`],
    /// never evicting: the tests' and benches' way to fill a store.
    pub fn push_segment<'a, I>(&mut self, cols: usize, rows: I) -> Result<()>
    where
        I: IntoIterator<Item = (usize, &'a BitVec)>,
    {
        let segment = EpochSegment::from_rows(cols, rows)?;
        self.slide(self.next_id, segment, usize::MAX, || Ok(()))
            .map(drop)
    }

    /// The word buffer the next segment should be built in: the arena of
    /// the last evicted segment, if no reader held it any more, or an empty
    /// one.  Handing it back through [`SegmentedWindowStore::slide`] makes
    /// a steady slide allocate no segment at all.
    pub fn recycled_arena(&mut self) -> Vec<u64> {
        self.spare
            .as_mut()
            .and_then(Arc::get_mut)
            .map(|spare| std::mem::take(&mut spare.arena))
            .unwrap_or_default()
    }

    /// Slides the window by one segment: appends `segment` as batch
    /// `batch_id` with the store's next uid, evicting the oldest segment
    /// when `capacity` are live, and returns what left.
    ///
    /// 1. On the disk backends the run is encoded from the arena and
    ///    written with one positional write, into a released file when
    ///    there is one.
    /// 2. `commit` runs: a durable window's WAL append, a no-op anywhere
    ///    else.  These two are the only steps that can fail, and a failure
    ///    changes nothing: the arena goes back to the spare, and a written
    ///    run file goes back on the free list under its name, for the retry
    ///    of the same uid to take first.
    /// 3. The oldest segment is evicted ([`SegmentedWindowStore::evict`]).
    /// 4. The segment is offered for residency — after the eviction, so the
    ///    room the leaving segment freed can admit it.  On the memory
    ///    backend it is the stored segment.
    /// 5. Its record is appended, its `(row, ones)` ledger counted from its
    ///    chunks into the spare ledger buffer.
    ///
    /// The cost is proportional to the segment's rows, never to data
    /// already stored.
    pub fn slide(
        &mut self,
        batch_id: BatchId,
        mut segment: EpochSegment,
        capacity: usize,
        commit: impl FnOnce() -> Result<()>,
    ) -> Result<Option<Evicted>> {
        segment.uid = self.next_id;
        segment.batch_id = batch_id;
        // The `Arc` whose arena `recycled_arena` lent out, if any: taken
        // before the eviction, which may leave a new spare.
        let shell = self.spare.take();
        let run = match &mut self.placement {
            Placement::Memory => None,
            Placement::Disk {
                dir, free, stage, ..
            } => {
                run::encode(&segment, stage);
                match write_run(free, &dir.join(run_file_name(segment.uid)), stage) {
                    Ok(run) => Some(run),
                    Err(err) => {
                        self.spare = Some(into_shell(shell, segment));
                        return Err(err);
                    }
                }
            }
        };
        if let Err(err) = commit() {
            if let (Some(run), Placement::Disk { free, .. }) = (run, &mut self.placement) {
                free.push(run);
            }
            self.spare = Some(into_shell(shell, segment));
            return Err(err);
        }
        let evicted = if self.segments.len() >= capacity {
            self.evict()
        } else {
            None
        };
        let mut ledger = std::mem::take(&mut self.spare_ledger);
        ledger.clear();
        ledger.extend(segment.rows().map(|(row, chunk)| (row, chunk.count_ones())));
        let (uid, cols) = (segment.uid, segment.cols);
        let segment = into_shell(shell, segment);
        let rows = match run {
            None => SegmentRows::Memory(segment),
            Some(run) => {
                // A segment with no room is dropped here: nothing outside
                // the budget stays decoded.
                let mut resident = None;
                self.residency.offer(&mut resident, &segment);
                SegmentRows::Disk { run, resident }
            }
        };
        // One header word plus the payload words per row — identical for
        // both backends so the slide-cost tables are backend-independent.
        self.stats.rows_written += ledger.len() as u64;
        self.stats.words_written += (ledger.len() * (1 + words_per_row(cols))) as u64;
        self.stats.segments_written += 1;
        self.next_id += 1;
        self.segments.push_back(Segment {
            uid,
            batch_id,
            cols,
            ledger,
            rows,
        });
        Ok(evicted)
    }

    /// Keeps `segment` for the next slide to build in, if no reader holds it.
    fn recycle(&mut self, mut segment: Arc<EpochSegment>) {
        if self.spare.is_none() && Arc::get_mut(&mut segment).is_some() {
            self.spare = Some(segment);
        }
    }

    /// Takes the oldest segment off the window (`None` when it is empty)
    /// and returns its record: the one eviction, behind every slide.
    /// Surviving segments are untouched.  Its residency and charge leave
    /// with it, its decoded form is recycled when no reader holds it, and
    /// on the disk backends its run file travels in the record.
    pub fn evict(&mut self) -> Option<Evicted> {
        let segment = self.segments.pop_front()?;
        let run = match segment.rows {
            SegmentRows::Memory(decoded) => {
                self.recycle(decoded);
                None
            }
            SegmentRows::Disk { run, mut resident } => {
                if let Some(decoded) = self.residency.release(&mut resident) {
                    self.recycle(decoded);
                }
                Some(run)
            }
        };
        self.stats.segments_dropped += 1;
        Some(Evicted {
            uid: segment.uid,
            batch_id: segment.batch_id,
            cols: segment.cols,
            ledger: segment.ledger,
            run,
        })
    }

    /// Takes back an eviction's ledger buffer for the next slide's record,
    /// and its run file, unless parked, for the next push to overwrite.
    pub fn release(&mut self, evicted: Evicted) {
        self.spare_ledger = evicted.ledger;
        if let (Some(run), Placement::Disk { free, .. }) = (evicted.run, &mut self.placement) {
            free.push(run);
        }
    }

    /// Releases a segment file an [`Evicted::park`] kept out of reuse: a
    /// later push renames and overwrites it instead of creating a file.  A
    /// file that no longer exists counts as released; any other failure to
    /// open it is returned, and the caller may retry.
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
        });
        Ok(())
    }

    /// Unlinks the released files no push has overwritten yet (none on the
    /// memory backend).
    pub fn remove_spares(&mut self) -> Result<()> {
        if let Placement::Disk { free, .. } = &mut self.placement {
            for spare in free.drain(..) {
                std::fs::remove_file(&spare.path)?;
            }
        }
        Ok(())
    }

    /// Restores a disk-backed store from checkpoint `ckpt`, reading each run
    /// it names once — oldest first — and handing the decoded segment to
    /// `each` with its checkpoint entry.
    ///
    /// Every segment `ckpt` names must be a run `seg-<uid>.run` in `dir`.
    /// Before a read is sized, the file must be no longer than a run of
    /// `ckpt.supports.len()` rows (the window's row domain) of the columns
    /// the checkpoint names; the read then checks the CRC and that the
    /// header holds the checkpoint's uid and columns.  Each segment's
    /// record takes its uid, batch id and columns from the checkpoint and
    /// its `(row, ones)` ledger from the run.  A run that fails is
    /// [`FsmError::CorruptArtifact`] naming it.  Reads are counted in
    /// [`SegmentedWindowStore::runs_read`]; nothing is left resident.
    /// Segment files with a uid at or above `ckpt.next_uid` are crash
    /// leftovers — they were created (or renamed into place) by batches the
    /// checkpoint does not cover, and WAL replay will re-create them — so
    /// they are removed here.  Unreferenced files *below* it may belong to
    /// an older retained checkpoint and are left for the caller to release
    /// once a new checkpoint commits.  A directory holding format v1 files
    /// is refused ([`scan_segment_files`]).
    pub fn restore(
        dir: PathBuf,
        ckpt: &Checkpoint,
        mut each: impl FnMut(&CheckpointSegment, EpochSegment) -> Result<()>,
    ) -> Result<Self> {
        std::fs::create_dir_all(&dir)?;
        let next_id = ckpt.next_uid;
        for (uid, stale) in scan_segment_files(&dir)? {
            if uid >= next_id {
                std::fs::remove_file(&stale)?;
            }
        }
        let mut store = Self::empty(Self::disk(dir.clone(), None), next_id);
        let rows = ckpt.supports.len();
        for entry in &ckpt.segments {
            if entry.uid >= next_id {
                return Err(FsmError::corrupt(format!(
                    "checkpointed segment uid {} is not below next uid {next_id}",
                    entry.uid
                )));
            }
            let path = dir.join(run_file_name(entry.uid));
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .map_err(|err| annotate(err, "open segment run", &path))?;
            let actual = file.metadata()?.len();
            let cols = usize::try_from(entry.cols).unwrap_or(usize::MAX);
            // A bound too large to compute bounds no file.
            let bound = run::run_len(rows, cols).map_or(u64::MAX, |len| len as u64);
            let Some(len) = usize::try_from(actual).ok().filter(|_| actual <= bound) else {
                return Err(FsmError::corrupt_artifact(
                    artifact_name(&path),
                    format!("{actual} bytes, longer than a run of {rows} rows of {cols} columns"),
                ));
            };
            let run = RunFile { file, path, len };
            let (bytes, header) = run.load(entry.uid, cols)?;
            store.residency.runs_read += 1;
            let mut decoded =
                EpochSegment::decode_checked(&bytes, header, &artifact_name(&run.path))?;
            decoded.batch_id = entry.batch_id;
            let ledger = decoded
                .rows()
                .map(|(row, c)| (row, c.count_ones()))
                .collect();
            store.segments.push_back(Segment {
                uid: entry.uid,
                batch_id: entry.batch_id,
                cols,
                ledger,
                rows: SegmentRows::Disk {
                    run,
                    resident: None,
                },
            });
            each(entry, decoded)?;
        }
        Ok(store)
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
            if segment.uid < min_uid {
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

    /// Materialises the live window into `rows` — `rows[id]` is row `id` —
    /// in one segment-major pass: the live segments oldest first, and within
    /// each the rows it holds, ascending.  Each segment is read once,
    /// through [`SegmentedWindowStore::epoch_segment`]: served from
    /// residency, or read from its run and offered for residency — a
    /// refused one is dropped as soon as its rows are filled.  The layout is
    /// [`EpochSegment::assemble_rows`]'s (one fill serves both): a row some
    /// live segment holds is allocated once and ends where its last chunk
    /// ends, a row no live segment holds stays empty and unallocated, and
    /// chunks of rows at or past `rows.len()` are skipped.  Bit for bit,
    /// each row is [`SegmentedWindowStore::assemble_row`]'s without its zero
    /// tail.
    pub fn assemble_rows(&mut self, rows: &mut [BitVec]) -> Result<()> {
        let mut fill = RowFill::new(rows, self.num_cols());
        for seg in 0..self.segments.len() {
            let decoded = self.epoch_segment(seg)?;
            fill.extend(&decoded);
            fill.start += decoded.cols;
        }
        Ok(())
    }

    /// Materialises row `id` of the live window into `out` (cleared first):
    /// the concatenation of the row's chunk in every live segment, with
    /// zero-fill where a segment never saw the row.  The result is always
    /// exactly [`SegmentedWindowStore::num_cols`] bits long.
    ///
    /// One row at a time, each segment read through
    /// [`SegmentedWindowStore::epoch_segment`]: the reference
    /// [`SegmentedWindowStore::assemble_rows`] is checked against.
    pub fn assemble_row(&mut self, id: usize, out: &mut BitVec) -> Result<()> {
        out.resize(0);
        for seg in 0..self.segments.len() {
            let segment = self.epoch_segment(seg)?;
            match segment.chunk(id) {
                Some(chunk) => out.extend_from_bits(chunk),
                None => out.resize(out.len() + segment.cols),
            }
        }
        Ok(())
    }

    /// Segment `seg` (0 = oldest live) as a shared [`EpochSegment`] — the
    /// one way a whole segment is read, and the building block of an epoch
    /// snapshot.
    ///
    /// A resident segment is a free `Arc` clone: always on the memory
    /// backend, and on the disk backends while the budget holds it (its
    /// chunks count as [`SegmentedWindowStore::resident_hits`]).  A disk
    /// segment that is not resident is read from its run (one
    /// [`SegmentedWindowStore::runs_read`]), CRC-verified, decoded and
    /// offered for residency; if the budget has no room, the returned handle
    /// is its only owner and the decoded rows are freed when the caller
    /// drops it.  Either way the rows are owned by the handle: budget changes
    /// and slides on the writer side never invalidate them.
    pub fn epoch_segment(&mut self, seg: usize) -> Result<Arc<EpochSegment>> {
        let segment = self
            .segments
            .get_mut(seg)
            .ok_or_else(|| FsmError::corrupt(format!("segment {seg} out of range")))?;
        let decoded = match &segment.rows {
            SegmentRows::Memory(decoded) => return Ok(Arc::clone(decoded)),
            SegmentRows::Disk {
                resident: Some(decoded),
                ..
            } => {
                self.residency.hits += decoded.num_rows() as u64;
                return Ok(Arc::clone(decoded));
            }
            SegmentRows::Disk { run, .. } => {
                self.residency.runs_read += 1;
                Arc::new(segment.decode(run)?)
            }
        };
        if let SegmentRows::Disk { resident, .. } = &mut segment.rows {
            self.residency.offer(resident, &decoded);
        }
        Ok(decoded)
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

    /// Bytes held in main memory: the segment records and their ledgers,
    /// the spare arena and ledger the next slide reuses, for the memory
    /// backend the payloads, and for the disk backends the push buffer and
    /// the resident segments (at most the budget).
    pub fn resident_bytes(&self) -> usize {
        let stage = match &self.placement {
            Placement::Memory => 0,
            Placement::Disk { stage, .. } => stage.capacity(),
        };
        let entry = std::mem::size_of::<(usize, u64)>();
        let spare = self.spare.as_ref().map_or(0, |spare| {
            spare.arena.capacity() * std::mem::size_of::<u64>()
        }) + self.spare_ledger.capacity() * entry;
        let segments: usize = self
            .segments
            .iter()
            .map(|s| {
                let payload = match &s.rows {
                    SegmentRows::Memory(segment) => segment.heap_bytes(),
                    SegmentRows::Disk { .. } => 0,
                };
                payload + s.ledger.capacity() * entry + std::mem::size_of::<Segment>()
            })
            .sum();
        self.residency.charged() + stage + spare + segments
    }

    /// The residency ledger of the disk segments.
    #[cfg(test)]
    pub(crate) fn residency(&self) -> &Residency {
        &self.residency
    }

    /// Uids of the resident disk segments, oldest first.
    #[cfg(test)]
    pub(crate) fn resident_uids(&self) -> Vec<u64> {
        self.segments
            .iter()
            .filter(|s| {
                matches!(
                    &s.rows,
                    SegmentRows::Disk {
                        resident: Some(_),
                        ..
                    }
                )
            })
            .map(|s| s.uid)
            .collect()
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

/// `segment` in `shell` — the `Arc` of an evicted segment no reader holds —
/// when there is one, else in a new `Arc`.
fn into_shell(shell: Option<Arc<EpochSegment>>, segment: EpochSegment) -> Arc<EpochSegment> {
    match shell {
        Some(mut shell) if Arc::strong_count(&shell) == 1 => {
            // Unshared (a spare never lends a `Weak`), so this writes in
            // place and clones nothing.
            *Arc::make_mut(&mut shell) = segment;
            shell
        }
        _ => Arc::new(segment),
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
pub(crate) mod tests {
    use std::collections::BTreeMap;

    use super::*;

    /// Evicts `store`'s oldest segment and hands its record straight back,
    /// as a volatile window's slide does, returning its columns.
    pub(crate) fn pop(store: &mut SegmentedWindowStore) -> Option<usize> {
        let evicted = store.evict()?;
        let cols = evicted.cols;
        store.release(evicted);
        Some(cols)
    }

    fn bv(pattern: &str) -> BitVec {
        BitVec::from_bools(pattern.chars().map(|c| c == '1'))
    }

    fn backends() -> Vec<StorageBackend> {
        vec![StorageBackend::Memory, StorageBackend::DiskTemp]
    }

    /// Pushes a segment of `rows` rows (ids `0..rows`), each the same
    /// `cols`-bit chunk with every other bit set.
    fn uniform(store: &mut SegmentedWindowStore, rows: usize, cols: usize) {
        let chunk = BitVec::from_bools((0..cols).map(|c| c % 2 == 0));
        store
            .push_segment(cols, (0..rows).map(|row| (row, &chunk)))
            .unwrap();
    }

    /// The checkpoint manifest of `store`'s live segments over a row domain
    /// of `rows` rows.
    fn manifest(store: &SegmentedWindowStore, rows: usize) -> Checkpoint {
        Checkpoint {
            next_uid: store.next_segment_id(),
            supports: vec![0; rows],
            segments: store.manifest(),
            ..Checkpoint::default()
        }
    }

    /// Restores `manifest` from `root`, discarding the decoded segments.
    fn restore(root: &Path, manifest: &Checkpoint) -> Result<SegmentedWindowStore> {
        SegmentedWindowStore::restore(root.to_path_buf(), manifest, |_, _| Ok(()))
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
            assert_eq!(pop(&mut store).unwrap(), 3);
            assert_eq!(store.num_cols(), 2);
            let mut row = BitVec::new();
            store.assemble_row(0, &mut row).unwrap();
            assert_eq!(format!("{row:?}"), "BitVec[01]");
            assert_eq!(store.stats().segments_dropped, 1);
        }
        let mut empty = SegmentedWindowStore::open(StorageBackend::Memory).unwrap();
        assert!(pop(&mut empty).is_none());
    }

    #[test]
    fn generation_bumps_on_push_and_pop() {
        let mut store = SegmentedWindowStore::open(StorageBackend::Memory).unwrap();
        assert_eq!(store.generation(), 0);
        store.push_segment(2, [(0, &bv("11"))]).unwrap();
        assert_eq!(store.generation(), 1);
        store.push_segment(1, [(0, &bv("1"))]).unwrap();
        assert_eq!(store.generation(), 2);
        pop(&mut store).unwrap();
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
            assert_eq!(store.locate_column(0), Some((0, 0)));
            assert_eq!(store.locate_column(2), Some((0, 2)));
            assert_eq!(store.locate_column(3), Some((1, 0)));
            assert_eq!(store.locate_column(4), Some((1, 1)));
            assert_eq!(store.locate_column(5), None);
            let segment = store.epoch_segment(1).unwrap();
            assert_eq!(segment.rows().map(|(id, _)| id).collect::<Vec<_>>(), [1, 4]);
            assert_eq!(format!("{:?}", segment.chunk(4).unwrap()), "BitSlice[10]");
            assert!(segment.chunk(9).is_none());
            assert!(store.epoch_segment(5).is_err());
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
            let segment = store.epoch_segment(0).unwrap();
            assert_eq!(segment.rows().map(|(id, _)| id).collect::<Vec<_>>(), [1, 5]);
            assert_eq!(format!("{:?}", segment.chunk(5).unwrap()), "BitSlice[01]");
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
        pop(&mut store).unwrap();
        assert!(
            store.on_disk_bytes() < before,
            "the evicted segment leaves the window's footprint"
        );
        // The released file is still there, waiting for the next push, which
        // renames and overwrites it — shorter than what it held, so it is
        // truncated — instead of creating a file.
        assert_eq!(segment_file_names(&root), ["seg-0.run", "seg-1.run"]);
        pop(&mut store).unwrap();
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
            assert_eq!(pop(&mut store).unwrap(), 0);
        }
    }

    #[test]
    fn budgeted_reads_agree_with_eager_reads() {
        // The same push/pop sequence with nothing resident (budget 0), a
        // tight budget (a segment or two resident, the rest refused) and an
        // unlimited one: identical rows after every step.
        let mut stores: Vec<SegmentedWindowStore> = [0usize, 250, usize::MAX]
            .map(|budget| {
                let mut store = SegmentedWindowStore::open(StorageBackend::DiskTemp).unwrap();
                store.set_cache_budget(budget);
                store
            })
            .into();
        let mut rng = 0x9e3779b97f4a7c15u64;
        let mut next = move |bound: usize| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as usize % bound
        };
        for step in 0..24 {
            let cols = 1 + next(90);
            let chunks: BTreeMap<usize, BitVec> = (0..next(6))
                .map(|_| {
                    (
                        next(12),
                        BitVec::from_bools((0..cols).map(|_| next(2) == 1)),
                    )
                })
                .collect();
            let mut views = Vec::new();
            for store in &mut stores {
                store
                    .push_segment(cols, chunks.iter().map(|(id, c)| (*id, c)))
                    .unwrap();
                if store.num_segments() > 4 {
                    pop(store).unwrap();
                }
                let mut rows = vec![BitVec::new(); 12];
                store.assemble_rows(&mut rows).unwrap();
                views.push(rows);
            }
            assert!(views.iter().all(|rows| *rows == views[0]), "step {step}");
        }
        // Budget 0 served nothing from residency; the tight budget served
        // some segments and read the others; the unlimited one never read a
        // run: each of its segments was resident from its push.
        let [eager, tight, unlimited] = [0, 1, 2].map(|i| &stores[i]);
        assert_eq!(eager.resident_hits(), 0);
        assert!(tight.resident_hits() > 0 && tight.runs_read() > 0);
        assert_eq!(unlimited.runs_read(), 0);
        assert!(unlimited.resident_hits() > tight.resident_hits());
        assert!(tight.runs_read() < eager.runs_read());
    }

    #[test]
    fn steady_state_reads_are_bounded_by_the_slide() {
        let rows = 8usize;
        let push = |store: &mut SegmentedWindowStore| uniform(store, rows, 80);
        // One scan of the window, the way a view reads it; returns the
        // (resident chunks served, runs read) it cost.
        let scan = |store: &mut SegmentedWindowStore| {
            let (hits, reads) = (store.resident_hits(), store.runs_read());
            let mut assembled = vec![BitVec::new(); rows];
            store.assemble_rows(&mut assembled).unwrap();
            for row in &assembled {
                assert_eq!(row.count_ones(), 40 * store.num_segments() as u64);
            }
            (store.resident_hits() - hits, store.runs_read() - reads)
        };

        // A budget covering the window: the pushes themselves made every
        // segment resident, so not even the first scan reads a run — and
        // neither does the scan after a slide.
        let mut store = SegmentedWindowStore::open(StorageBackend::DiskTemp).unwrap();
        store.set_cache_budget(usize::MAX);
        for _ in 0..4 {
            push(&mut store);
        }
        assert_eq!(scan(&mut store), (4 * rows as u64, 0), "first scan");
        assert_eq!(scan(&mut store), (4 * rows as u64, 0), "second scan");
        pop(&mut store).unwrap();
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
        assert!(eager.resident_uids().is_empty());

        // A budget of exactly two segments over a three-segment window.  The
        // first two pushes fill it and the third is refused; from then on a
        // slide pops before it pushes, so the room the leaving segment frees
        // admits the entering one — and when the leaving segment held no
        // room (it was the refused one), the entering one is refused in
        // turn.  Nothing else ever moves.
        let charge = decoded_bytes(rows, 80);
        let mut tight = SegmentedWindowStore::open(StorageBackend::DiskTemp).unwrap();
        tight.set_cache_budget(2 * charge);
        for _ in 0..3 {
            push(&mut tight);
        }
        let (served, read) = (2 * rows as u64, 1);
        assert_eq!(tight.resident_uids(), [0, 1]);
        assert_eq!(
            scan(&mut tight),
            (served, read),
            "segments 0 1 resident, 2 read"
        );
        for (slide, resident) in [[1, 3], [3, 4], [3, 4]].into_iter().enumerate() {
            pop(&mut tight).unwrap();
            push(&mut tight);
            // Slides 0 and 1 trade a resident segment for the entering one;
            // slide 2 pops the never-resident segment 2, frees nothing, and
            // its entering segment is the one read from disk from then on.
            assert_eq!(tight.resident_uids(), resident, "slide {slide}");
            assert_eq!(scan(&mut tight), (served, read), "slide {slide}");
            assert_eq!(scan(&mut tight), (served, read), "slide {slide}, again");
            assert_eq!(tight.residency.charged(), 2 * charge);
        }
    }

    #[test]
    fn a_scan_reads_each_segment_at_most_once_and_looks_each_chunk_up_once() {
        // Five segments of 60 rows (the disk fleet's shape, narrowed to 64
        // columns) scanned twice per window at budget 0, at a budget holding
        // two segments and at a covering one.  Every chunk is either served
        // from a resident segment or decoded from its segment's run, and a
        // scan reads each non-resident segment once, never once per chunk.
        let (segments, rows) = (5usize, 60usize);
        let charge = decoded_bytes(rows, 64);
        // (budget, resident chunks served, runs read) per scan.
        let cases = [
            (0, 0, segments as u64),
            (2 * charge, 2 * rows as u64, 3),
            (usize::MAX, (segments * rows) as u64, 0),
        ];
        for (budget, hits, reads) in cases {
            let mut store = SegmentedWindowStore::open(StorageBackend::DiskTemp).unwrap();
            store.set_cache_budget(budget);
            for slide in 0..segments + 3 {
                if store.num_segments() == segments {
                    pop(&mut store).unwrap();
                }
                uniform(&mut store, rows, 64);
                if store.num_segments() < segments {
                    continue;
                }
                let mut reference = vec![BitVec::new(); rows];
                for (id, row) in reference.iter_mut().enumerate() {
                    store.assemble_row(id, row).unwrap();
                }
                for pass in 0..2 {
                    let (hits_before, reads_before) = (store.resident_hits(), store.runs_read());
                    let mut assembled = vec![BitVec::new(); rows];
                    store.assemble_rows(&mut assembled).unwrap();
                    assert_eq!(
                        (
                            store.resident_hits() - hits_before,
                            store.runs_read() - reads_before
                        ),
                        (hits, reads),
                        "budget {budget}, slide {slide}, pass {pass}"
                    );
                    // Every segment holds every row, so no row is cut short.
                    assert_eq!(assembled, reference, "budget {budget}, slide {slide}");
                }
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
        restore(&root, &manifest(&store, 10)).unwrap();
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
                    restore(&root, &manifest(&store, 5)).map(drop).unwrap_err()
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

    /// A restore reads each run the manifest names once, hands over the
    /// segment pushed, and refuses a manifest that lies about a run.
    #[test]
    fn a_restored_store_reads_what_was_pushed_and_refuses_a_lying_index() {
        let dir = TempDir::new("segstore-restore").unwrap();
        let root = dir.file("segments");
        let (manifest, pushed, expected) = {
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
            let pushed: Vec<Vec<(usize, BitVec)>> = (0..2)
                .map(|seg| {
                    let segment = store.epoch_segment(seg).unwrap();
                    segment.rows().map(|(id, c)| (id, c.to_bitvec())).collect()
                })
                .collect();
            (manifest(&store, 8), pushed, expected)
        };
        // A leftover at or past the next uid is removed; below it, kept.
        std::fs::write(root.join("seg-9.run"), b"torn").unwrap();
        let mut handed: Vec<Vec<(usize, BitVec)>> = Vec::new();
        let mut restored = SegmentedWindowStore::restore(root.clone(), &manifest, |_, segment| {
            handed.push(segment.rows().map(|(id, c)| (id, c.to_bitvec())).collect());
            Ok(())
        })
        .unwrap();
        assert_eq!(handed, pushed);
        assert_eq!(restored.runs_read(), 2, "one read per run");
        assert!(!root.join("seg-9.run").exists());
        for (id, want) in expected.iter().enumerate() {
            let mut row = BitVec::new();
            restored.assemble_row(id, &mut row).unwrap();
            assert_eq!(&row, want, "row {id}");
        }
        assert_eq!(
            restored
                .manifest()
                .iter()
                .map(|s| s.uid)
                .collect::<Vec<_>>(),
            [0, 1]
        );
        drop(restored);

        let refused = |manifest: &Checkpoint, run: &str| {
            let err = restore(&root, manifest).map(drop).unwrap_err();
            assert!(
                matches!(&err, FsmError::CorruptArtifact { artifact, .. } if artifact == run),
                "{err}"
            );
        };
        // Columns the run does not hold.
        let mut lying = manifest.clone();
        lying.segments[1].cols = 65;
        refused(&lying, "seg-1.run");
        // A row domain too small for the rows the run holds.
        let mut lying = manifest.clone();
        lying.supports.truncate(1);
        refused(&lying, "seg-1.run");
        // A file renamed into place but never rewritten: the header's uid
        // is not the one its name claims.
        std::fs::rename(root.join("seg-0.run"), root.join("seg-5.run")).unwrap();
        let mut renamed = manifest.clone();
        renamed.next_uid = 6;
        renamed.segments = vec![CheckpointSegment {
            uid: 5,
            ..renamed.segments[0].clone()
        }];
        refused(&renamed, "seg-5.run");
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
            restore(
                &root,
                &Checkpoint {
                    next_uid: 4,
                    ..Checkpoint::default()
                },
            )
            .map(drop),
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
        assert_eq!(store.resident_hits(), 0, "memory segments are no hits");
    }

    #[test]
    fn disk_epoch_segments_are_memoised_and_outlive_the_slide() {
        let wide = bv(&"10".repeat(40));
        let fill = |budget: usize| {
            let mut store = SegmentedWindowStore::open(StorageBackend::DiskTemp).unwrap();
            store.set_cache_budget(budget);
            store.push_segment(80, [(0, &wide), (1, &wide)]).unwrap();
            store.push_segment(80, [(0, &wide)]).unwrap();
            store
        };

        // Resident from its push: every epoch shares the one decoded copy,
        // and no run is read.
        let mut store = fill(usize::MAX);
        let first = store.epoch_segment(0).unwrap();
        let again = store.epoch_segment(0).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!((store.runs_read(), store.resident_hits()), (0, 4));

        // The slide drops the store's handle and releases the file, but the
        // snapshot's data survives until its last Arc drops.
        let weak = Arc::downgrade(&first);
        pop(&mut store).unwrap();
        assert_eq!(first.chunk(0).unwrap().len(), 80);
        assert_eq!(first.num_rows(), 2);
        drop(again);
        drop(first);
        assert!(
            weak.upgrade().is_none(),
            "the decoded segment is reclaimed with its last reader"
        );

        // Not resident: every epoch decodes its own copy, owned by the
        // handle alone, and the store keeps none of it.
        let mut eager = fill(0);
        let before = eager.resident_bytes();
        let first = eager.epoch_segment(0).unwrap();
        let again = eager.epoch_segment(0).unwrap();
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(first.chunk(1), again.chunk(1));
        assert_eq!((eager.runs_read(), eager.resident_hits()), (2, 0));
        assert_eq!(eager.resident_bytes(), before);
        let weak = Arc::downgrade(&first);
        drop(first);
        assert!(weak.upgrade().is_none());
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
        let before = epoch.chunk(0).unwrap().to_bitvec();
        store.set_cache_budget(64);
        store.set_cache_budget(0);
        store.push_segment(80, [(0, &wide)]).unwrap();
        pop(&mut store).unwrap();
        assert_eq!(epoch.chunk(0).unwrap().to_bitvec(), before);
    }

    #[test]
    fn disk_at_places_segments_under_the_given_directory() {
        let dir = TempDir::new("segstore-at").unwrap();
        let root = dir.file("segments");
        let mut store = SegmentedWindowStore::open(StorageBackend::DiskAt(root.clone())).unwrap();
        store.push_segment(4, [(0, &bv("1001"))]).unwrap();
        assert!(root.join("seg-0.run").exists());
        pop(&mut store).unwrap();
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
        assert_eq!(pop(&mut store).unwrap(), 3);
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

    /// A slide writes the entering run before it evicts: a write that fails
    /// — here into a removed directory — changes no segment, counter, uid or
    /// generation, keeps the lent arena for the retry, and once the
    /// directory is back the same slide goes through.
    #[test]
    fn a_failed_write_changes_nothing() {
        let dir = TempDir::new("segstore-failed-write").unwrap();
        let root = dir.file("segments");
        let mut store = SegmentedWindowStore::open(StorageBackend::DiskAt(root.clone())).unwrap();
        store.set_cache_budget(usize::MAX);
        for cols in [3, 2] {
            uniform(&mut store, 4, cols);
        }
        let state = |store: &SegmentedWindowStore| {
            (
                store.manifest(),
                store.boundaries(),
                store.ledgers().map(<[_]>::to_vec).collect::<Vec<_>>(),
                store.stats(),
                store.generation(),
                store.next_segment_id(),
                store.resident_uids(),
            )
        };
        let before = state(&store);
        std::fs::remove_dir_all(&root).unwrap();
        let chunk = bv("1111");
        let entering = || EpochSegment::from_rows(4, [(9, &chunk)]).unwrap();
        let err = store.slide(7, entering(), 2, || Ok(())).unwrap_err();
        assert!(matches!(err, FsmError::Io(_)), "{err}");
        assert_eq!(state(&store), before);
        assert!(store.recycled_arena().capacity() > 0, "the arena went back");

        std::fs::create_dir_all(&root).unwrap();
        let evicted = store.slide(7, entering(), 2, || Ok(())).unwrap().unwrap();
        assert_eq!((evicted.batch_id, evicted.cols), (0, 3));
        assert_eq!(store.boundaries(), [2, 6]);
        assert_eq!(store.newest_batch(), Some(7));
        assert_eq!(store.ledgers().last().unwrap(), [(9, 4)]);
    }

    /// A commit step that fails after the run is written changes nothing
    /// either: the written file goes back on the free list under its name,
    /// and the retry of the same uid overwrites it — no second file.
    #[test]
    fn a_refused_commit_changes_nothing_and_its_run_is_reused() {
        let dir = TempDir::new("segstore-refused-commit").unwrap();
        let root = dir.file("segments");
        let mut store = SegmentedWindowStore::open(StorageBackend::DiskAt(root.clone())).unwrap();
        store.set_cache_budget(usize::MAX);
        for cols in [3, 2] {
            uniform(&mut store, 4, cols);
        }
        let state = |store: &SegmentedWindowStore| {
            (
                store.manifest(),
                store.ledgers().map(<[_]>::to_vec).collect::<Vec<_>>(),
                store.stats(),
                store.next_segment_id(),
                store.resident_uids(),
            )
        };
        let before = state(&store);
        let chunk = bv("1111");
        let entering = || EpochSegment::from_rows(4, [(9, &chunk)]).unwrap();
        let err = store
            .slide(7, entering(), 2, || Err(FsmError::corrupt("refused")))
            .unwrap_err();
        assert!(err.to_string().contains("refused"), "{err}");
        assert_eq!(state(&store), before);
        assert!(store.recycled_arena().capacity() > 0, "the arena went back");
        let files = segment_file_names(&root);
        assert_eq!(files, ["seg-0.run", "seg-1.run", "seg-2.run"]);

        let mut committed = false;
        let evicted = store
            .slide(7, entering(), 2, || {
                committed = true;
                Ok(())
            })
            .unwrap()
            .unwrap();
        assert!(committed);
        assert_eq!((evicted.uid, evicted.batch_id), (0, 0));
        assert_eq!(store.manifest().last().map(|s| s.uid), Some(2));
        assert_eq!(segment_file_names(&root), files);
        assert_eq!(
            store
                .epoch_segment(1)
                .unwrap()
                .chunk(9)
                .unwrap()
                .count_ones(),
            4
        );
    }

    #[test]
    fn a_restored_store_refuses_a_run_whose_length_the_index_does_not_give() {
        let dir = TempDir::new("segstore-runlen").unwrap();
        let root = dir.file("segments");
        let manifest = {
            let mut store =
                SegmentedWindowStore::open(StorageBackend::DiskAt(root.clone())).unwrap();
            uniform(&mut store, 1, 500);
            manifest(&store, 1)
        };
        let refused = |manifest: &Checkpoint| {
            let err = restore(&root, manifest).map(drop).unwrap_err();
            assert!(
                matches!(&err, FsmError::CorruptArtifact { artifact, .. } if artifact == "seg-0.run"),
                "{err}"
            );
            err
        };
        // A manifest claiming 2^50 columns for the real run: such a run
        // would be 2^47 + 56 bytes, but the read is sized by the file, and
        // the run's header refuses the claim.
        let cols = 1u64 << 50;
        assert_eq!(run::run_len(1, cols as usize), Some((1 << 47) + 56));
        let mut huge = manifest.clone();
        huge.segments[0].cols = cols;
        let err = refused(&huge);
        assert!(err.to_string().contains(&format!("cols: {cols}")), "{err}");
        // A run cut short, or grown past what its row domain allows, behind
        // the store's back.
        let path = root.join("seg-0.run");
        let clean = std::fs::read(&path).unwrap();
        std::fs::write(&path, &clean[..clean.len() - 1]).unwrap();
        refused(&manifest);
        std::fs::write(&path, [clean.as_slice(), &[0]].concat()).unwrap();
        let err = refused(&manifest);
        assert!(
            err.to_string().contains("longer than a run of 1 rows"),
            "{err}"
        );
        std::fs::write(&path, &clean).unwrap();
        restore(&root, &manifest).unwrap();
    }
}
