//! DSMatrix implementation.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;
use std::sync::Arc;

use fsm_storage::{
    scan_segment_files, BitVec, BudgetGovernor, BudgetLease, CaptureStats, Checkpoint,
    CheckpointRow, CheckpointSegment, Hibernation, HibernationRow, HibernationSegment,
    SegmentedWindowStore, StorageBackend, Wal,
};
use fsm_stream::{SlideOutcome, SlidingWindow, WindowConfig};
use fsm_types::{Batch, BatchId, EdgeId, FsmError, Result, Support, Transaction};

use crate::durable::{
    decode_batch_into, encode_batch_into, DurabilityConfig, DurableState, RecoveryReport,
};
use crate::epoch::EpochSnapshot;
use crate::view::WindowView;

const WORD_BITS: usize = 64;

/// 64-bit words a flat materialisation of `bits` bits occupies — the one
/// unit every `words_assembled` increment uses (`read-side` counters count
/// payload words only, no serialisation headers; the write-side
/// [`CaptureStats`] counts headers because they are physically written).
fn words_of(bits: usize) -> u64 {
    bits.div_ceil(WORD_BITS) as u64
}

/// Cumulative read-path cost counters of a [`DsMatrix`].
///
/// The incremental-capture story of PR 2 measured *writes*
/// ([`CaptureStats`]); these counters measure *reads* the same way, so the
/// repo benchmark's `dsmatrix.{splice_words_per_slide,
/// words_assembled_per_mine}` and `storage.pages_read_per_mine` report
/// measured words and reads, not a model (CI pins them; the unit is asserted
/// by `read_word_accounting_is_exact_for_a_known_window` below and by
/// `view_consistency.rs`).  Differencing `words_assembled` across a mine
/// call gives the exact number of words the read path had to materialise
/// for it: the rows of the window some live segment holds, once, on every
/// backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// 64-bit words of the flat rows or chunks reads materialised:
    /// [`DsMatrix::row`] (a full-width row, held or not),
    /// [`DsMatrix::column`] (each chunk it read) and [`DsMatrix::view`]
    /// (each materialised row, up to the end of its last chunk; a row no
    /// live segment holds is not materialised and adds nothing).
    pub words_assembled: u64,
    /// Flat rows those reads materialised: one per [`DsMatrix::row`] call,
    /// and per [`DsMatrix::view`] the rows some live segment holds.
    pub rows_assembled: u64,
    /// Always 0: ingest no longer splices anything into a row cache, so
    /// nothing writes this.  The field is kept only because
    /// `benchmark/src/ladder.rs` reads it; the next `benchmark` PR removes it
    /// together with the `dsmatrix.splice_words_per_slide` metric.
    pub cache_splice_words: u64,
    /// Positional reads the chunk-read path issued (disk backends only; zero
    /// on the memory backend, whose chunks are borrowed): one per segment
    /// run read, and a view reads each segment with a cache miss at most
    /// once.  (The name is the metric's, `storage.pages_read_per_mine`, from
    /// when a segment was a file of pages read one per chunk.)  With a
    /// chunk-cache budget covering the window it stays 0.
    pub pages_read: u64,
    /// Chunk reads served by the budgeted decoded-chunk cache
    /// ([`fsm_storage::ChunkCache`]) instead of a segment run.
    pub cache_hits: u64,
    /// Always 0: no view lends rows out of the chunk cache any more, so
    /// nothing writes this.  The field is kept only because
    /// `benchmark/src/ladder.rs` reads it; the next `benchmark` PR removes it
    /// together with the `dsmatrix.rows_pinned_per_mine` metric.
    pub rows_pinned: u64,
    /// Bytes appended to the write-ahead log (durable windows only; always
    /// zero otherwise — the memory backend pays nothing for durability it
    /// does not have).
    pub wal_bytes_written: u64,
    /// `fsync` system calls issued by WAL commits, segment syncs and
    /// checkpoint writes (durable windows only).
    pub fsyncs: u64,
    /// Bytes of checkpoint files written (durable windows only).
    pub checkpoint_bytes: u64,
    /// Batches replayed from the WAL tail by [`DsMatrix::recover`] (zero for
    /// a matrix that never recovered).
    pub recovery_replayed_batches: u64,
}

/// Construction options for a [`DsMatrix`].
#[derive(Debug, Clone, Default)]
pub struct DsMatrixConfig {
    /// Sliding-window configuration (`w` batches).
    pub window: WindowConfig,
    /// Where the rows are stored.
    pub backend: StorageBackend,
    /// Expected number of domain edges (rows); the matrix grows beyond this
    /// if a later batch introduces new edges.
    pub expected_edges: usize,
    /// Byte budget of the decoded-chunk cache over the disk backends
    /// (`0`, the default, disables it — every mine re-reads the window from
    /// disk, the paper's strictest space posture).  Ignored by the memory
    /// backend.
    pub cache_budget_bytes: usize,
    /// Durability knobs (WAL + checkpoints + crash recovery).  `None`, the
    /// default, keeps the original volatile behaviour; `Some` requires a disk
    /// backend and roots every durable artifact under
    /// [`DurabilityConfig::dir`] (segment files move to its `segments/`
    /// subdirectory regardless of the backend's own path).
    pub durability: Option<DurabilityConfig>,
    /// Process-wide cache-budget arbiter.  `None`, the default, treats
    /// [`DsMatrixConfig::cache_budget_bytes`] as this matrix's own budget
    /// (the single-tenant behaviour).  With a governor, the configured
    /// budget becomes this matrix's *desired* budget: the matrix registers a
    /// [`BudgetLease`] and re-requests at ingest/view boundaries, applying
    /// whatever the governor's process-wide cap and fair-share rule grant.
    /// Ignored by the memory backend, which has no chunk cache to budget.
    pub governor: Option<Arc<BudgetGovernor>>,
}

impl DsMatrixConfig {
    /// Convenience constructor.
    pub fn new(window: WindowConfig, backend: StorageBackend, expected_edges: usize) -> Self {
        Self {
            window,
            backend,
            expected_edges,
            cache_budget_bytes: 0,
            durability: None,
            governor: None,
        }
    }

    /// Sets the decoded-chunk cache budget for the disk backends.
    pub fn with_cache_budget(mut self, budget_bytes: usize) -> Self {
        self.cache_budget_bytes = budget_bytes;
        self
    }

    /// Enables durability (WAL, checkpoints, crash recovery) rooted at the
    /// given configuration's directory.
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Subordinates this matrix's chunk-cache budget to a process-wide
    /// [`BudgetGovernor`] (see [`DsMatrixConfig::governor`]).
    pub fn with_budget_governor(mut self, governor: Arc<BudgetGovernor>) -> Self {
        self.governor = Some(governor);
        self
    }
}

/// Transposes an entering batch — transactions listing their edges — into
/// one bit chunk per row the batch touches, 64 columns at a time.  Within a
/// block of 64 transactions every edge ORs its bit into one word per row (a
/// row-indexed word array); then each row the block touched stores that word
/// into its chunk at the block's word index — one store per (row, block)
/// instead of one bit set per edge.  A dense row → slot table finds a row's
/// chunk in one indexed load, and the touched list (≤ rows touched) is sorted
/// once per batch so the chunks read back ascending by row.  Chunk buffers,
/// the tables and the lists are reused from batch to batch.
#[derive(Debug, Default)]
struct Transposer {
    /// Width of the batch being filled.
    cols: usize,
    /// `slot_of[row]` is one more than the row's index into `chunks`, or 0
    /// for a row the current batch has not touched.
    slot_of: Vec<u32>,
    /// `block[row]`: the current block's bits of `row`; all zero between
    /// blocks.  As long as `slot_of`.
    block: Vec<u64>,
    /// The rows whose `block` word is nonzero, in first-touch order.
    block_rows: Vec<usize>,
    /// The rows the current batch touches, ascending once
    /// [`Transposer::fill`] returns.
    touched: Vec<usize>,
    /// The first `touched.len()` chunks are claimed (in first-touch order);
    /// the rest are spare buffers.
    chunks: Vec<BitVec>,
}

impl Transposer {
    /// Transposes `batch`, replacing whatever the previous one left behind.
    fn fill(&mut self, batch: &Batch) {
        self.begin(batch.len());
        let rows = batch.max_edge().map_or(0, |edge| edge.index() + 1);
        if self.slot_of.len() < rows {
            self.slot_of.resize(rows, 0);
            self.block.resize(rows, 0);
        }
        for (index, block) in batch.transactions().chunks(WORD_BITS).enumerate() {
            for (bit, transaction) in block.iter().enumerate() {
                for edge in transaction.edges() {
                    let word = &mut self.block[edge.index()];
                    if *word == 0 {
                        self.block_rows.push(edge.index());
                    }
                    *word |= 1u64 << bit;
                }
            }
            for i in 0..self.block_rows.len() {
                let row = self.block_rows[i];
                let word = std::mem::take(&mut self.block[row]);
                let slot = self.claim(row);
                self.chunks[slot].set_word(index, word);
            }
            self.block_rows.clear();
        }
        self.touched.sort_unstable();
    }

    /// Starts a batch of `cols` columns.  The previous fill is released
    /// here, on entry, rather than by whoever consumed it — an ingest that a
    /// failed segment write abandoned never got that far — so every chunk
    /// claimed from here on is `cols` zero bits.
    fn begin(&mut self, cols: usize) {
        for &row in &self.touched {
            self.slot_of[row] = 0;
        }
        self.touched.clear();
        self.cols = cols;
    }

    /// `row`'s index into `chunks`, claiming a chunk of `cols` zero bits on
    /// the row's first touch.
    fn claim(&mut self, row: usize) -> usize {
        if self.slot_of[row] == 0 {
            let slot = self.touched.len();
            if self.chunks.len() == slot {
                self.chunks.push(BitVec::new());
            }
            let chunk = &mut self.chunks[slot];
            chunk.resize(0);
            chunk.resize(self.cols);
            self.touched.push(row);
            self.slot_of[row] = slot as u32 + 1;
        }
        self.slot_of[row] as usize - 1
    }

    /// One past the largest row touched (0 for an empty batch).
    fn row_bound(&self) -> usize {
        self.touched.last().map_or(0, |row| row + 1)
    }

    /// The touched rows and their chunks, ascending by row.
    fn rows(&self) -> impl Iterator<Item = (usize, &BitVec)> {
        self.touched
            .iter()
            .map(|&row| (row, &self.chunks[self.slot_of[row] as usize - 1]))
    }

    fn heap_bytes(&self) -> usize {
        self.chunks.iter().map(BitVec::heap_bytes).sum::<usize>()
            + self.slot_of.capacity() * std::mem::size_of::<u32>()
            + self.block.capacity() * std::mem::size_of::<u64>()
            + (self.block_rows.capacity() + self.touched.capacity()) * std::mem::size_of::<usize>()
    }
}

/// The Data Stream Matrix of the paper (§2.3).
///
/// Rows are stored as per-batch segments in a
/// [`SegmentedWindowStore`]: ingesting a batch appends one segment holding
/// only the rows the batch touches, and a window slide drops the oldest
/// segment whole.  Capture cost is therefore proportional to the entering
/// batch plus the evicted columns — never to the full window.  Reads go
/// through [`DsMatrix::view`], which assembles the window once per call,
/// segment by segment, on every backend (through the budgeted chunk cache on
/// the disk backends); [`DsMatrix::row`] assembles one row straight from the
/// segment store and is the test reference, identical to the paper's
/// conceptual matrix bit for bit.
pub struct DsMatrix {
    store: SegmentedWindowStore,
    window: SlidingWindow,
    num_items: usize,
    num_cols: usize,
    /// Reused per-ingest transposition of the entering batch into one bit
    /// chunk per row it touches.
    transposer: Transposer,
    /// Singleton supports, maintained at ingest/evict time (never by row
    /// scans): `supports[i]` is the popcount of item `i`'s window row.
    supports: Vec<Support>,
    /// Per live segment, the `(row, ones)` pairs it contributed — what a
    /// future eviction must subtract from `supports`.
    segment_ones: VecDeque<Vec<(usize, u64)>>,
    /// The flat rows [`DsMatrix::view`] assembles into; freed by
    /// [`DsMatrix::trim_cache`].
    rows: Vec<BitVec>,
    /// Cumulative read-path cost counters.
    read_stats: ReadStats,
    /// Reused chunk buffer for the segment-direct [`DsMatrix::column`] read.
    col_chunk: BitVec,
    /// Durability state (WAL handle, checkpoint bookkeeping, deferred file
    /// GC).  `None` on volatile matrices — including every memory-backend
    /// matrix — so the non-durable ingest path pays exactly one branch.
    durable: Option<DurableState>,
    /// Memo of the newest [`DsMatrix::snapshot_epoch`] result, invalidated
    /// by every ingest: repeated snapshot calls within one epoch return the
    /// same `Arc` (and prove it with pointer equality in tests).
    last_snapshot: Option<Arc<EpochSnapshot>>,
    /// The chunk-cache budget this matrix *wants*; what it actually gets is
    /// `lease.request(desired)` when governed, `desired` otherwise.
    desired_cache_budget: usize,
    /// Membership in a process-wide [`BudgetGovernor`], if configured.
    lease: Option<BudgetLease>,
}

impl DsMatrix {
    /// Creates an empty matrix.
    ///
    /// With [`DsMatrixConfig::durability`] set this is a **fresh start**: any
    /// checkpoints, WAL contents and segment files left in the durable
    /// directory from a previous run are discarded.  Use
    /// [`DsMatrix::recover`] to resume from them instead.
    pub fn new(config: DsMatrixConfig) -> Result<Self> {
        let (backend, durable) = match config.durability {
            None => (config.backend, None),
            Some(dur) => {
                Self::validate_durability(&config.backend, &dur)?;
                std::fs::create_dir_all(&dur.dir)?;
                // Fresh start: drop every old durable artifact explicitly.
                // (`SegmentedWindowStore::open` below wipes stale segment
                // files in its directory the same way.)
                Checkpoint::prune_keeping(&dur.dir, 0)?;
                let wal = Wal::create(dur.wal_path())?;
                let backend = StorageBackend::DiskAt(dur.segments_dir());
                (backend, Some(DurableState::fresh(dur, wal)))
            }
        };
        let mut store = SegmentedWindowStore::open(backend)?;
        let lease = Self::lease_for(&config.governor, &store);
        store.set_cache_budget(Self::granted(&lease, config.cache_budget_bytes));
        Ok(Self {
            store,
            window: SlidingWindow::new(config.window),
            num_items: config.expected_edges,
            num_cols: 0,
            transposer: Transposer::default(),
            supports: vec![0; config.expected_edges],
            segment_ones: VecDeque::new(),
            rows: Vec::new(),
            read_stats: ReadStats::default(),
            col_chunk: BitVec::new(),
            durable,
            last_snapshot: None,
            desired_cache_budget: config.cache_budget_bytes,
            lease,
        })
    }

    /// Registers with the configured governor — disk backends only: the
    /// memory backend holds the window resident and ignores cache budgets.
    fn lease_for(
        governor: &Option<Arc<BudgetGovernor>>,
        store: &SegmentedWindowStore,
    ) -> Option<BudgetLease> {
        if store.is_memory_resident() {
            return None;
        }
        governor.as_ref().map(|governor| governor.register())
    }

    /// The budget to apply right now: the lease's grant when governed, the
    /// desired budget otherwise.
    fn granted(lease: &Option<BudgetLease>, desired: usize) -> usize {
        match lease {
            Some(lease) => lease.request(desired),
            None => desired,
        }
    }

    /// Re-requests this matrix's desired budget from the governor and
    /// applies the (possibly changed) grant.  Called at ingest and view
    /// boundaries so every tenant's grant converges as members come and go;
    /// never called per row read.
    fn rebalance_cache_budget(&mut self) {
        if self.lease.is_some() {
            let grant = Self::granted(&self.lease, self.desired_cache_budget);
            if grant != self.store.cache_budget() {
                self.store.set_cache_budget(grant);
            }
        }
    }

    /// Rejects configurations durability cannot honour.
    fn validate_durability(backend: &StorageBackend, dur: &DurabilityConfig) -> Result<()> {
        if matches!(backend, StorageBackend::Memory) {
            return Err(FsmError::config(
                "durability requires a disk backend: the memory backend holds \
                 the window resident and has nothing durable to recover from",
            ));
        }
        if dur.checkpoint_every == 0 {
            return Err(FsmError::config("checkpoint_every must be at least 1"));
        }
        Ok(())
    }

    /// Rebuilds the exact pre-crash window from the durable directory.
    ///
    /// Recovery loads the newest checkpoint that (a) parses with a valid
    /// CRC and (b) whose referenced segment runs all verify, then replays
    /// the WAL tail past it through the ordinary ingest path.  A corrupt
    /// newest checkpoint (or a corrupt segment run it references) makes
    /// recovery fall back to the older retained checkpoint — whose WAL
    /// suffix is retained precisely for this — and, failing that, to an
    /// empty window replayed from the full WAL.  Corrupt candidates are
    /// deleted and named in the [`RecoveryReport`]; recovery never
    /// silently produces a window that differs from what was committed.
    ///
    /// Any I/O error that is *not* a proven corruption fails recovery
    /// outright rather than falling back — a transient error must not
    /// masquerade as data loss — and so does a directory holding segment
    /// format v1 files, which is refused by name without deleting anything.
    pub fn recover(config: DsMatrixConfig) -> Result<Self> {
        let Some(dur) = config.durability.clone() else {
            return Err(FsmError::config(
                "recover() requires DsMatrixConfig::durability",
            ));
        };
        Self::validate_durability(&config.backend, &dur)?;
        std::fs::create_dir_all(&dur.dir)?;
        std::fs::create_dir_all(dur.segments_dir())?;
        let segments_dir = dur.segments_dir();
        // A directory segment format v1 wrote is refused before anything in
        // it is touched: no v1 decoder exists, and the checkpoint walk below
        // would otherwise delete its checkpoints as corrupt.
        scan_segment_files(&segments_dir)?;

        // The WAL self-repairs its torn tail on open; everything before the
        // tear is intact (per-record CRCs).
        let (mut wal, records, torn) = Wal::open(dur.wal_path())?;
        let wal_torn = torn.map(|t| t.reason);

        // Newest checkpoint whose metadata *and* referenced runs verify
        // wins; proven-corrupt candidates are deleted so a later retention
        // prune cannot prefer them over a good older checkpoint.
        let mut skipped = Vec::new();
        let mut chosen = None;
        for (_, path) in Checkpoint::candidates(&dur.dir)? {
            match Self::try_restore(&dur, &path, &config) {
                Ok(pair) => {
                    chosen = Some(pair);
                    break;
                }
                Err(err)
                    if matches!(
                        err,
                        FsmError::CorruptArtifact { .. } | FsmError::CorruptStructure(_)
                    ) =>
                {
                    let name = path
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_else(|| path.display().to_string());
                    skipped.push(format!("{name} rejected: {err}"));
                    std::fs::remove_file(&path)?;
                }
                Err(other) => return Err(other),
            }
        }
        let checkpoint_seq = chosen.as_ref().map(|(c, _): &(Checkpoint, _)| c.last_seq);
        let (ckpt, mut store) = match chosen {
            Some(pair) => pair,
            // No usable checkpoint: rebuild from an empty window.  `restore`
            // with `next_uid = 0` wipes every leftover segment file — the
            // replay below re-creates them.
            None => (
                Checkpoint::default(),
                SegmentedWindowStore::restore(segments_dir.clone(), &[], 0)?,
            ),
        };
        let lease = Self::lease_for(&config.governor, &store);
        store.set_cache_budget(Self::granted(&lease, config.cache_budget_bytes));

        // Rebuild the in-memory bookkeeping the checkpoint captured.
        let num_items = (ckpt.num_items as usize).max(config.expected_edges);
        let mut supports: Vec<Support> = ckpt.supports.clone();
        supports.resize(num_items, 0);
        let mut window = SlidingWindow::new(config.window);
        let mut segment_ones = VecDeque::new();
        let mut num_cols = 0usize;
        for seg in &ckpt.segments {
            if window
                .push(seg.batch_id, seg.cols as usize)
                .evicted
                .is_some()
            {
                return Err(FsmError::corrupt(
                    "checkpoint holds more segments than the window admits",
                ));
            }
            num_cols += seg.cols as usize;
            segment_ones.push_back(
                seg.rows
                    .iter()
                    .map(|r| (r.row as usize, r.ones))
                    .collect::<Vec<_>>(),
            );
        }

        // A checkpoint can cover the whole log (two checkpoints with no
        // ingest between them prune it to nothing): the WAL then continues
        // from the checkpoint's sequence number, not from whatever the
        // surviving records say.
        wal.resume_after(ckpt.last_seq);
        let mut durable = DurableState::fresh(dur, wal);
        durable.applied_seq = ckpt.last_seq;
        durable.last_ckpt_seq = checkpoint_seq;
        durable.last_ckpt_uids = ckpt.segments.iter().map(|s| s.uid).collect();
        durable.synced_uid_watermark = ckpt.next_uid;

        let mut matrix = Self {
            store,
            window,
            num_items,
            num_cols,
            transposer: Transposer::default(),
            supports,
            segment_ones,
            rows: Vec::new(),
            read_stats: ReadStats::default(),
            col_chunk: BitVec::new(),
            durable: Some(durable),
            last_snapshot: None,
            desired_cache_budget: config.cache_budget_bytes,
            lease,
        };

        // Replay the WAL tail through the ordinary (post-WAL) ingest path.
        // The tail must continue the checkpoint contiguously; a gap means an
        // artifact lied and recovering "around" it would fabricate a window
        // that never existed.
        let base_seq = ckpt.last_seq;
        let mut batch = Batch::default();
        for record in records.into_iter().filter(|r| r.seq > base_seq) {
            let applied = matrix
                .durable
                .as_ref()
                .expect("recovering matrix is durable")
                .applied_seq;
            if record.seq != applied + 1 {
                return Err(FsmError::corrupt_artifact(
                    "wal.log",
                    format!(
                        "replay gap: expected seq {}, found seq {}",
                        applied + 1,
                        record.seq
                    ),
                ));
            }
            decode_batch_into(&record.payload, &mut batch)?;
            matrix.ingest_applied(&batch)?;
            let durable = matrix
                .durable
                .as_mut()
                .expect("recovering matrix is durable");
            durable.recovery_replayed += 1;
        }

        // Stray segment files (older crashes, bypassed evict GC): queue them
        // for the next checkpoint's garbage collection rather than leaking.
        let live: BTreeSet<u64> = matrix.store.live_uids().into_iter().collect();
        let strays = scan_segment_files(&segments_dir)?;
        let durable = matrix
            .durable
            .as_mut()
            .expect("recovering matrix is durable");
        for (uid, path) in strays {
            let referenced = live.contains(&uid)
                || durable.last_ckpt_uids.contains(&uid)
                || durable.prev_ckpt_uids.contains(&uid)
                || durable.garbage.iter().any(|(g, _)| *g == uid);
            if !referenced {
                durable.garbage.push((uid, path));
            }
        }
        durable.report = Some(RecoveryReport {
            checkpoint_seq,
            replayed_batches: durable.recovery_replayed,
            wal_torn,
            skipped_artifacts: skipped,
        });
        Ok(matrix)
    }

    /// Loads one checkpoint candidate and restores + verifies the segment
    /// store it references.  Corruption errors make [`DsMatrix::recover`]
    /// fall back to the next candidate.
    fn try_restore(
        dur: &DurabilityConfig,
        path: &std::path::Path,
        config: &DsMatrixConfig,
    ) -> Result<(Checkpoint, SegmentedWindowStore)> {
        let ckpt = Checkpoint::load(path)?;
        if ckpt.window_batches != config.window.window_batches as u64 {
            return Err(FsmError::config(format!(
                "checkpoint was written with window_batches = {}, config says {}",
                ckpt.window_batches, config.window.window_batches
            )));
        }
        if ckpt.segments.len() > config.window.window_batches {
            return Err(FsmError::corrupt_artifact(
                path.file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_else(|| path.display().to_string()),
                format!(
                    "references {} segments but the window holds at most {}",
                    ckpt.segments.len(),
                    config.window.window_batches
                ),
            ));
        }
        let store = SegmentedWindowStore::restore(
            dur.segments_dir(),
            &ckpt.segment_metas(),
            ckpt.next_uid,
        )?;
        store.verify_segments()?;
        Ok((ckpt, store))
    }

    /// Number of rows (domain edges) currently represented.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of columns (window transactions), `|T|` in the paper.
    pub fn num_transactions(&self) -> usize {
        self.num_cols
    }

    /// Batch boundaries as cumulative column counts (Example 1's
    /// "Boundaries: Cols 3 & 6").
    pub fn boundaries(&self) -> Vec<usize> {
        self.window.boundaries()
    }

    /// Number of batches currently inside the window.
    pub fn num_batches(&self) -> usize {
        self.window.num_batches()
    }

    /// Returns `true` if no batch has been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Returns `true` if the rows are spilled to disk rather than resident.
    pub fn is_disk_backed(&self) -> bool {
        !self.store.is_memory_resident()
    }

    /// Returns `true` if this matrix writes a WAL and checkpoints.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// What [`DsMatrix::recover`] found and did, if this matrix was built by
    /// it (`None` for fresh matrices).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.durable.as_ref().and_then(|d| d.report.as_ref())
    }

    /// Identifier of the newest batch in the window (what a resumed stream
    /// should continue after).
    pub fn last_batch_id(&self) -> Option<BatchId> {
        self.window.newest()
    }

    /// Ingests one batch, sliding the window if it is already full.
    ///
    /// This is the incremental capture step: the entering batch becomes one
    /// new row segment (touching only the rows that actually occur in the
    /// batch), and — when the window slides — the evicted batch's segment is
    /// dropped whole.  Unevicted row prefixes are never rewritten; the
    /// [`DsMatrix::capture_stats`] counters prove it.
    ///
    /// On a durable matrix the batch is first appended to the WAL and
    /// `fsync`ed — only then is any in-memory or segment state mutated
    /// (write-ahead protocol).  Every `checkpoint_every` slides the apply
    /// step also writes a checkpoint, prunes the WAL prefix the *older*
    /// retained checkpoint covers, and releases evicted segment files that
    /// no retained checkpoint references any more for later pushes to
    /// overwrite.
    pub fn ingest_batch(&mut self, batch: &Batch) -> Result<SlideOutcome> {
        self.rebalance_cache_budget();
        if let Some(durable) = &mut self.durable {
            let seq = durable.applied_seq + 1;
            durable.record.clear();
            encode_batch_into(batch, &mut durable.record);
            durable.wal.append(seq, &durable.record)?;
        }
        self.ingest_applied(batch)
    }

    /// The post-WAL half of [`DsMatrix::ingest_batch`]: mutates the window
    /// state.  Recovery replays WAL records through this same path (without
    /// re-appending them).
    fn ingest_applied(&mut self, batch: &Batch) -> Result<SlideOutcome> {
        // The window is about to change epoch; snapshots already handed out
        // stay valid (they own their data), only the memo goes stale.
        // Dropping it here also releases the matrix's own reference to the
        // evicted segment, so reclamation is driven by readers alone.
        self.last_snapshot = None;
        let outcome = self.window.push(batch.id, batch.len());
        if let Some((_, cols)) = outcome.evicted {
            let dropped = match &mut self.durable {
                None => self.store.pop_segment()?,
                Some(durable) => {
                    // Durable evictions defer the release: a retained
                    // checkpoint may still reference the file.
                    let (cols, detached) = self.store.pop_segment_detached()?;
                    if let Some((uid, path)) = detached {
                        durable.garbage.push((uid, path));
                    }
                    cols
                }
            };
            debug_assert_eq!(dropped, cols, "window bookkeeping must match the store");
            self.num_cols -= dropped;
            // Incremental evict: subtract the leaving segment's popcounts
            // from the support counters — no other row is visited.
            let evicted = self
                .segment_ones
                .pop_front()
                .ok_or_else(|| FsmError::corrupt("segment bookkeeping out of sync"))?;
            for &(row, ones) in &evicted {
                self.supports[row] -= ones;
            }
        }

        // One bit chunk per row the batch touches; rows absent from the batch
        // cost nothing and read back as zeros.
        self.transposer.fill(batch);

        // Grow the domain if the batch mentions edges beyond the current rows.
        self.num_items = self.num_items.max(self.transposer.row_bound());
        if self.supports.len() < self.num_items {
            self.supports.resize(self.num_items, 0);
        }

        self.store
            .push_segment(batch.len(), self.transposer.rows())?;

        // Incremental support maintenance, again touching only the rows the
        // batch touches: bump the support counters and remember what an
        // eventual eviction must undo.
        let mut entering = Vec::with_capacity(self.transposer.touched.len());
        for (id, chunk) in self.transposer.rows() {
            let ones = chunk.count_ones();
            self.supports[id] += ones;
            entering.push((id, ones));
        }
        self.segment_ones.push_back(entering);
        self.num_cols += batch.len();
        debug_assert_eq!(self.num_cols, self.store.num_cols());

        let checkpoint_due = if let Some(durable) = &mut self.durable {
            durable.applied_seq += 1;
            durable.slides_since_ckpt += 1;
            durable.slides_since_ckpt >= durable.config.checkpoint_every
        } else {
            false
        };
        if checkpoint_due {
            self.write_checkpoint()?;
        }
        Ok(outcome)
    }

    /// Writes a checkpoint of the current window, rotates the two retained
    /// checkpoints, releases unreferenced evicted segment files for
    /// recycling, and prunes the WAL prefix the older retained checkpoint
    /// covers.
    ///
    /// Called automatically every [`DurabilityConfig::checkpoint_every`]
    /// slides; exposed for tests and shutdown paths.  Errors if the matrix is
    /// not durable.
    pub fn checkpoint(&mut self) -> Result<()> {
        if self.durable.is_none() {
            return Err(FsmError::config(
                "checkpoint() requires a durable matrix (DsMatrixConfig::durability)",
            ));
        }
        self.write_checkpoint()
    }

    /// Serialises everything needed to rebuild this window — the
    /// backend-agnostic half of tenant spill-to-disk.
    ///
    /// * **Durable matrices** already keep the full payload on disk under
    ///   their durable root: hibernating one writes a checkpoint aligned
    ///   with the present state (reusing [`Checkpoint`] — no second format,
    ///   no second copy of the row data) and `spill_dir` is untouched.
    /// * **Non-durable matrices** — the memory backend, or disk segments in
    ///   a self-cleaning temp directory — write a full-payload
    ///   [`Hibernation`] image (segments, batch boundaries, support
    ///   counters) to `spill_dir/window.hib` under the same CRC-framed,
    ///   temp+fsync+rename discipline as checkpoints.
    ///
    /// Either way, dropping the matrix afterwards releases its resident
    /// state — and its [`BudgetLease`], returning the cache grant to the
    /// governor for warm tenants to re-expand into.  [`DsMatrix::thaw`]
    /// rebuilds a byte-identical window.
    pub fn hibernate(&mut self, spill_dir: &Path) -> Result<()> {
        if self.durable.is_some() {
            return self.checkpoint();
        }
        let batch_ids = self.window.batch_ids();
        if batch_ids.len() != self.store.num_segments() {
            return Err(FsmError::corrupt(
                "segment/window bookkeeping out of sync at hibernate",
            ));
        }
        let mut segments = Vec::with_capacity(batch_ids.len());
        let mut chunk = BitVec::new();
        for (seg, batch_id) in batch_ids.into_iter().enumerate() {
            let cols = self.store.segment_cols(seg).ok_or_else(|| {
                FsmError::corrupt(format!("segment {seg} vanished mid-hibernate"))
            })?;
            let ids = self.store.segment_row_ids(seg).ok_or_else(|| {
                FsmError::corrupt(format!("segment {seg} vanished mid-hibernate"))
            })?;
            let mut rows = Vec::with_capacity(ids.len());
            for id in ids {
                if !self.store.read_segment_chunk(seg, id, &mut chunk)? {
                    return Err(FsmError::corrupt(format!(
                        "segment {seg} lost row {id} between index and payload"
                    )));
                }
                rows.push(HibernationRow {
                    row: id as u64,
                    chunk: chunk.to_bytes(),
                });
            }
            segments.push(HibernationSegment {
                batch_id,
                cols: cols as u64,
                rows,
            });
        }
        let image = Hibernation {
            num_items: self.num_items as u64,
            window_batches: self.window.config().window_batches as u64,
            supports: self.supports[..self.num_items].to_vec(),
            segments,
        };
        image.write(spill_dir)?;
        Ok(())
    }

    /// Rebuilds a hibernated window.
    ///
    /// Durable configurations recover from their WAL + checkpoints
    /// ([`DsMatrix::recover`]); non-durable ones load
    /// `spill_dir/window.hib` and replay the reconstructed batches through
    /// the ordinary ingest path, which rebuilds the segments and the support
    /// counters exactly as the original ingests did — the
    /// thawed window is byte-identical to the hibernated one (and a fresh
    /// [`BudgetLease`] is registered when the config carries a governor).
    ///
    /// The corrupt-artifact discipline matches recovery: a damaged image
    /// fails with [`FsmError::CorruptArtifact`] naming the file, and the
    /// proven-corrupt artifact is deleted so the tenant can be dropped and
    /// recreated cleanly instead of silently serving a different window.
    pub fn thaw(config: DsMatrixConfig, spill_dir: &Path) -> Result<Self> {
        if config.durability.is_some() {
            return Self::recover(config);
        }
        let path = Hibernation::artifact_path(spill_dir);
        let artifact = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or(Hibernation::FILE_NAME)
            .to_string();
        let image = match Hibernation::load(&path) {
            Ok(image) => image,
            Err(err @ (FsmError::CorruptArtifact { .. } | FsmError::CorruptStructure(_))) => {
                // Same discipline as recovery's checkpoint walk: a
                // proven-corrupt artifact is removed so it cannot poison a
                // later attempt; transient I/O errors leave it in place.
                let _ = std::fs::remove_file(&path);
                return Err(err);
            }
            Err(err) => return Err(err),
        };
        if image.window_batches as usize != config.window.window_batches {
            return Err(FsmError::config(format!(
                "hibernated window holds {} batches but the config asks for {} — \
                 thaw must use the original window size",
                image.window_batches, config.window.window_batches
            )));
        }
        if image.segments.len() > image.window_batches as usize
            || image.supports.len() != image.num_items as usize
        {
            let _ = std::fs::remove_file(&path);
            return Err(FsmError::corrupt_artifact(
                &artifact,
                "segment or support counts disagree with the header",
            ));
        }
        let mut config = config;
        config.expected_edges = config.expected_edges.max(image.num_items as usize);
        let mut matrix = Self::new(config)?;
        for seg in &image.segments {
            let batch = hibernated_batch(seg, &artifact)?;
            matrix.ingest_batch(&batch)?;
        }
        // The image's counters are redundant with its payloads; divergence
        // means damage the CRC could not see structurally (or a bug), and a
        // silently different window is the one outcome thaw must never have.
        let num_items = image.num_items as usize;
        let rebuilt = matrix.supports.get(..num_items).unwrap_or(&[]);
        if rebuilt != image.supports.as_slice()
            || matrix.supports[num_items..].iter().any(|&s| s != 0)
        {
            let _ = std::fs::remove_file(&path);
            return Err(FsmError::corrupt_artifact(
                &artifact,
                "support counters diverge from the segment payloads",
            ));
        }
        Ok(matrix)
    }

    fn write_checkpoint(&mut self) -> Result<()> {
        let durable = self
            .durable
            .as_mut()
            .expect("write_checkpoint on a non-durable matrix");

        // 1. Make every live segment durable before referencing it from a
        //    checkpoint.  Segments below the watermark were synced by an
        //    earlier checkpoint and are immutable since.
        durable.extra_fsyncs += self.store.sync_segments(durable.synced_uid_watermark)?;
        durable.synced_uid_watermark = self.store.next_segment_id();

        // 2. Snapshot the window metadata: segment list + row indexes +
        //    support counters.  Row payloads stay in the (immutable) segment
        //    files — a checkpoint never copies row data.
        let metas = self
            .store
            .segment_metas()
            .ok_or_else(|| FsmError::corrupt("durable matrix with a memory-resident store"))?;
        let batch_ids = self.window.batch_ids();
        if metas.len() != batch_ids.len() || metas.len() != self.segment_ones.len() {
            return Err(FsmError::corrupt(
                "segment/window/support bookkeeping out of sync at checkpoint",
            ));
        }
        let segments = metas
            .into_iter()
            .zip(batch_ids)
            .zip(self.segment_ones.iter())
            .map(|((meta, batch_id), ones)| {
                let ones: BTreeMap<usize, u64> = ones.iter().copied().collect();
                CheckpointSegment {
                    uid: meta.uid,
                    batch_id,
                    cols: meta.cols as u64,
                    rows: meta
                        .rows
                        .iter()
                        .map(|&(row, offset, len)| CheckpointRow {
                            row: row as u64,
                            offset: offset as u64,
                            len: len as u64,
                            ones: ones.get(&row).copied().unwrap_or(0),
                        })
                        .collect(),
                }
            })
            .collect();
        let checkpoint = Checkpoint {
            last_seq: durable.applied_seq,
            next_uid: self.store.next_segment_id(),
            num_items: self.num_items as u64,
            window_batches: self.window.config().window_batches as u64,
            supports: self.supports[..self.num_items].to_vec(),
            segments,
        };

        // 3. Persist it and drop checkpoints older than the two newest.
        let (_, bytes, fsyncs) = checkpoint.write(&durable.config.dir)?;
        durable.checkpoint_bytes += bytes;
        durable.extra_fsyncs += fsyncs;
        Checkpoint::prune_keeping(&durable.config.dir, 2)?;

        // 4. Rotate the retained-checkpoint bookkeeping.
        durable.prev_ckpt_seq = durable.last_ckpt_seq;
        durable.last_ckpt_seq = Some(durable.applied_seq);
        let live: BTreeSet<u64> = checkpoint.segments.iter().map(|s| s.uid).collect();
        durable.prev_ckpt_uids = std::mem::replace(&mut durable.last_ckpt_uids, live);

        // 5. Release evicted segment files no retained checkpoint
        //    references, for later pushes to overwrite.  The checkpoint has
        //    committed, so this is best-effort: a file whose release fails
        //    stays queued for the next checkpoint, and the ingest — its
        //    batch logged, applied and checkpointed — still succeeds.
        let garbage = std::mem::take(&mut durable.garbage);
        for (uid, path) in garbage {
            let referenced =
                durable.last_ckpt_uids.contains(&uid) || durable.prev_ckpt_uids.contains(&uid);
            if referenced || self.store.release_segment_file(&path).is_err() {
                durable.garbage.push((uid, path));
            }
        }

        // 6. Prune the WAL prefix the *older* retained checkpoint covers: if
        //    the newest checkpoint is ever found corrupt, the older one plus
        //    the retained WAL suffix still reaches the pre-crash window.
        if let Some(prev_seq) = durable.prev_ckpt_seq {
            durable.wal.prune_through(prev_seq)?;
        }
        durable.slides_since_ckpt = 0;
        Ok(())
    }

    /// Cumulative capture-cost counters (words/rows written, segments
    /// appended and dropped).  Differencing `words_written` across two
    /// [`DsMatrix::ingest_batch`] calls yields the exact write cost of one
    /// slide.
    pub fn capture_stats(&self) -> CaptureStats {
        self.store.stats()
    }

    /// Loads the bit-vector row of `item` (all zeros if the edge has never
    /// occurred), assembled from the live per-batch segments.
    ///
    /// One row at a time, with a search of every segment's index: the
    /// ground truth [`DsMatrix::view`]'s segment-major assembly is tested
    /// against.  Miners should go through [`DsMatrix::view`] instead.
    pub fn row(&mut self, item: EdgeId) -> Result<BitVec> {
        let mut row = BitVec::new();
        if item.index() < self.num_items {
            self.store.assemble_row(item.index(), &mut row)?;
        }
        row.resize(self.num_cols);
        // Unknown rows materialise a (zero-filled) flat row too, so both
        // counters tick together — one row, its padded word count.
        self.read_stats.rows_assembled += 1;
        self.read_stats.words_assembled += words_of(row.len());
        Ok(row)
    }

    /// The read surface over the live window: what all five miners read —
    /// flat rows on every backend.
    ///
    /// The window is assembled once per call into the matrix's row buffers,
    /// segment by segment ([`fsm_storage::SegmentedWindowStore::assemble_rows`]):
    /// a row some live segment holds is allocated once, at the window's
    /// width, and ends where its last chunk ends; a row no live segment holds
    /// stays empty and unallocated (both read as the zero-tailed rows
    /// [`WindowView`] documents).  `rows_assembled` / `words_assembled`
    /// count the rows materialised and their words, once.  On the memory
    /// backend the chunks are read in place; on the disk backends each is
    /// fetched once through the budgeted [`fsm_storage::ChunkCache`].  A
    /// [`DsMatrixConfig::cache_budget_bytes`] budget buys decodes, never
    /// assembly: with a budget covering the window a view reads no run;
    /// with a smaller one, whatever fitted first keeps
    /// hitting and each segment holding a chunk that did not is read once
    /// (`pages_read`); with `0` (the default) every segment is re-read from
    /// disk on every call — once, however many rows it holds.  The rows and
    /// the runs a view read stay until [`DsMatrix::trim_cache`].  Direct
    /// callers that keep taking views reuse the row allocations; the
    /// `StreamMiner` facade instead calls [`DsMatrix::trim_cache`] after each
    /// mine.
    pub fn view(&mut self) -> Result<WindowView<'_>> {
        self.rebalance_cache_budget();
        if self.rows.len() < self.num_items {
            self.rows.resize_with(self.num_items, BitVec::new);
        }
        let rows = &mut self.rows[..self.num_items];
        self.store.assemble_rows(rows)?;
        for row in rows.iter().filter(|row| !row.is_empty()) {
            self.read_stats.rows_assembled += 1;
            self.read_stats.words_assembled += words_of(row.len());
        }
        debug_assert!(self.supports.len() >= self.num_items);
        Ok(WindowView::new(
            &self.rows[..self.num_items],
            &self.supports[..self.num_items],
            self.num_cols,
        ))
    }

    /// An owned, `Arc`-backed snapshot of the current window epoch — the
    /// concurrent twin of [`DsMatrix::view`].
    ///
    /// The returned [`EpochSnapshot`] is `Send + Sync` and borrows nothing
    /// from the matrix: reader threads hold it (and mine it through
    /// [`EpochSnapshot::view`]) while [`DsMatrix::ingest_batch`] keeps
    /// appending and sliding here.  Snapshot-mined output is byte-identical
    /// to a stop-the-world mine at the same epoch (see
    /// `crates/core/tests/epoch_agreement.rs`).
    ///
    /// Cost: on the memory backend the snapshot shares the store's segment
    /// data (`Arc` clones plus a copy of the support counters); on the disk
    /// backends each segment is decoded once and memoised
    /// ([`fsm_storage::SegmentedWindowStore::epoch_segment`]), so in the
    /// sliding steady state a snapshot pays only for the segment the last
    /// slide appended.  Within one epoch repeated calls return the same
    /// `Arc`.  Old epochs are reclaimed by plain `Arc` drops — a slide,
    /// [`DsMatrix::set_cache_budget`] or a later mine never invalidates a
    /// held snapshot.
    pub fn snapshot_epoch(&mut self) -> Result<Arc<EpochSnapshot>> {
        let epoch = self.store.generation();
        if let Some(snapshot) = &self.last_snapshot {
            if snapshot.epoch() == epoch {
                return Ok(Arc::clone(snapshot));
            }
        }
        let mut segments = Vec::with_capacity(self.store.num_segments());
        for seg in 0..self.store.num_segments() {
            segments.push(self.store.epoch_segment(seg)?);
        }
        debug_assert!(self.supports.len() >= self.num_items);
        let snapshot = Arc::new(EpochSnapshot::new(
            epoch,
            self.window.num_batches(),
            self.window.newest(),
            segments,
            self.supports[..self.num_items].to_vec(),
            self.num_items,
            self.num_cols,
        ));
        self.last_snapshot = Some(Arc::clone(&snapshot));
        Ok(snapshot)
    }

    /// Cumulative read-path cost counters (words assembled, segment runs
    /// read and chunk-cache hits).
    /// Differencing `words_assembled` across a mine call measures that
    /// call's assembly cost; differencing `pages_read` measures its disk
    /// read amplification.
    pub fn read_stats(&self) -> ReadStats {
        let mut stats = self.read_stats;
        stats.pages_read = self.store.runs_read();
        stats.cache_hits = self.store.cache_stats().hits;
        if let Some(durable) = &self.durable {
            let wal = durable.wal.stats();
            stats.wal_bytes_written = wal.bytes_written;
            stats.fsyncs = wal.fsyncs + durable.extra_fsyncs;
            stats.checkpoint_bytes = durable.checkpoint_bytes;
            stats.recovery_replayed_batches = durable.recovery_replayed;
        }
        stats
    }

    /// The decoded-chunk cache budget the disk backends read through (zero
    /// when disabled or on the memory backend).
    pub fn cache_budget(&self) -> usize {
        self.store.cache_budget()
    }

    /// Re-budgets the disk backends' decoded-chunk cache (evicting to fit;
    /// no-op on the memory backend).  Exposed so long-lived matrices can be
    /// re-tuned without rebuilding the window.
    pub fn set_cache_budget(&mut self, budget_bytes: usize) {
        self.desired_cache_budget = budget_bytes;
        self.store
            .set_cache_budget(Self::granted(&self.lease, budget_bytes));
    }

    /// Frees the flat rows [`DsMatrix::view`] materialised — those some
    /// live segment held; the others were never allocated — and the segment
    /// runs it read.  The chunk cache is untouched, so the next view
    /// re-reads only what it does not hold.
    ///
    /// The facade calls this after every full mine — through an RAII guard,
    /// so it also runs when mining errors or panics — so that between mines
    /// the window is held once: in its segments (on the memory backend) or
    /// on disk, plus bookkeeping and at most the chunk-cache budget.
    pub fn trim_cache(&mut self) {
        self.rows = Vec::new();
        self.store.release_runs();
    }

    /// Reconstructs one window transaction (one column read downwards).
    ///
    /// Reads only the *owning segment's* chunks — the rows that batch
    /// touched — instead of assembling every row of the matrix, so the cost
    /// is `O(rows in the segment)` rather than `O(edges × window)`.
    pub fn column(&mut self, column: usize) -> Result<Transaction> {
        let (seg, offset) = self.store.locate_column(column).ok_or_else(|| {
            FsmError::corrupt(format!(
                "column {column} out of range ({} transactions in window)",
                self.num_cols
            ))
        })?;
        // One chunk read per touched row, through a single scratch buffer
        // reused across rows (and across calls).
        let ids = self
            .store
            .segment_row_ids(seg)
            .ok_or_else(|| FsmError::corrupt(format!("segment {seg} vanished")))?;
        let mut edges = Vec::new();
        for id in ids {
            if self
                .store
                .read_segment_chunk(seg, id, &mut self.col_chunk)?
                && self.col_chunk.get(offset)
            {
                edges.push(EdgeId::new(id as u32));
            }
            // Same unit as every other increment: 64-bit words of the
            // materialised payload (a chunk here, not a full row, so
            // `rows_assembled` is deliberately not ticked).
            self.read_stats.words_assembled += words_of(self.col_chunk.len());
        }
        Ok(Transaction::from_edges(edges))
    }

    /// Bytes resident in main memory: window bookkeeping, the reused chunk
    /// buffers, the support counters, the rows of a view not yet trimmed,
    /// plus — for the memory backend — the segment payloads.
    pub fn resident_bytes(&self) -> usize {
        let bookkeeping = self.window.num_batches() * std::mem::size_of::<(u64, usize)>();
        let scratch = self.transposer.heap_bytes();
        let counters = self.supports.capacity() * std::mem::size_of::<Support>()
            + self
                .segment_ones
                .iter()
                .map(|s| s.capacity() * std::mem::size_of::<(usize, u64)>())
                .sum::<usize>();
        let rows: usize = self.rows.iter().map(BitVec::heap_bytes).sum();
        bookkeeping + scratch + counters + rows + self.store.resident_bytes()
    }

    /// Bytes written to disk by the live segments (zero for the memory
    /// backend).
    pub fn on_disk_bytes(&self) -> u64 {
        self.store.on_disk_bytes()
    }
}

/// Reconstructs the batch a hibernated segment captured: column `t` of the
/// segment is transaction `t`, containing every row (edge) whose chunk has
/// bit `t` set.  Feeding the result back through [`DsMatrix::ingest_batch`]
/// rebuilds the segment bit for bit.
fn hibernated_batch(seg: &HibernationSegment, artifact: &str) -> Result<Batch> {
    let cols = seg.cols as usize;
    let mut edges_per_col: Vec<Vec<u32>> = vec![Vec::new(); cols];
    for row in &seg.rows {
        let chunk = BitVec::from_bytes(&row.chunk).ok_or_else(|| {
            FsmError::corrupt_artifact(
                artifact,
                format!(
                    "row {} of batch {} has a malformed chunk",
                    row.row, seg.batch_id
                ),
            )
        })?;
        if chunk.len() != cols {
            return Err(FsmError::corrupt_artifact(
                artifact,
                format!(
                    "row {} of batch {} spans {} columns, segment has {}",
                    row.row,
                    seg.batch_id,
                    chunk.len(),
                    cols
                ),
            ));
        }
        let row_id = u32::try_from(row.row).map_err(|_| {
            FsmError::corrupt_artifact(
                artifact,
                format!(
                    "row id {} of batch {} overflows the edge domain",
                    row.row, seg.batch_id
                ),
            )
        })?;
        for col in chunk.iter_ones() {
            edges_per_col[col].push(row_id);
        }
    }
    let transactions = edges_per_col
        .into_iter()
        .map(Transaction::from_raw)
        .collect();
    Ok(Batch::from_transactions(seg.batch_id, transactions))
}

impl std::fmt::Debug for DsMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DsMatrix")
            .field("items", &self.num_items)
            .field("transactions", &self.num_cols)
            .field("batches", &self.window.num_batches())
            .field("disk_backed", &self.is_disk_backed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsm_types::Transaction;

    /// The nine graphs of the paper's Figure 1, as transactions over the edge
    /// symbols a..f, grouped into batches of three.
    fn paper_batches() -> Vec<Batch> {
        let e = |raw: &[u32]| Transaction::from_raw(raw.iter().copied());
        vec![
            Batch::from_transactions(0, vec![e(&[2, 3, 5]), e(&[0, 4, 5]), e(&[0, 2, 5])]),
            Batch::from_transactions(1, vec![e(&[0, 2, 3, 5]), e(&[0, 3, 4, 5]), e(&[0, 1, 2])]),
            Batch::from_transactions(2, vec![e(&[0, 2, 5]), e(&[0, 2, 3, 5]), e(&[1, 2, 3])]),
        ]
    }

    fn matrix(backend: StorageBackend) -> DsMatrix {
        DsMatrix::new(DsMatrixConfig::new(
            WindowConfig::new(2).unwrap(),
            backend,
            6,
        ))
        .unwrap()
    }

    fn bit_string(bits: &BitVec) -> String {
        (0..bits.len())
            .map(|i| if bits.get(i) { '1' } else { '0' })
            .collect()
    }

    fn transposed(t: &Transposer) -> Vec<(usize, String)> {
        t.rows()
            .map(|(row, chunk)| (row, bit_string(chunk)))
            .collect()
    }

    #[test]
    fn transposer_reads_back_ascending_whatever_the_touch_order() {
        let e = |raw: &[u32]| Transaction::from_raw(raw.iter().copied());
        let mut t = Transposer::default();
        t.fill(&Batch::from_transactions(
            0,
            vec![e(&[2, 5]), e(&[0, 2]), e(&[5])],
        ));
        assert_eq!(t.row_bound(), 6);
        assert_eq!(
            transposed(&t),
            [(0, "010".into()), (2, "110".into()), (5, "101".into())]
        );
        // An empty batch touches nothing.
        t.fill(&Batch::from_transactions(1, Vec::new()));
        assert_eq!(t.row_bound(), 0);
        assert!(transposed(&t).is_empty());
    }

    #[test]
    fn transposer_begin_resets_an_abandoned_fill() {
        // A failed `push_segment` returns from the ingest with the batch
        // transposed and nobody left to release it.  The next batch must not
        // inherit a bit, a row or a width from it.
        let wide = |id| {
            let full = Transaction::from_raw([1, 4, 9]);
            let mut transactions = vec![Transaction::from_raw([]); 70];
            transactions[0] = full.clone();
            transactions[69] = full;
            Batch::from_transactions(id, transactions)
        };
        let e = |raw: &[u32]| Transaction::from_raw(raw.iter().copied());
        let mut t = Transposer::default();
        t.fill(&wide(0));
        // Abandoned: nothing read it back.
        t.fill(&Batch::from_transactions(
            1,
            vec![e(&[]), e(&[7]), e(&[]), e(&[4]), e(&[])],
        ));
        assert_eq!(t.row_bound(), 8);
        assert_eq!(
            transposed(&t),
            [(4, "00010".into()), (7, "01000".into())],
            "only the new batch's rows, zeroed, at the new width"
        );
        // The abandoned batch's buffers were recycled, not leaked or grown.
        assert_eq!(t.chunks.len(), 3);
        let before = t.heap_bytes();
        t.fill(&wide(2));
        assert_eq!(t.heap_bytes(), before);
        assert!(t.rows().all(|(_, chunk)| chunk.count_ones() == 2));
    }

    /// A batch of `cols` transactions: row 0 in every one, a pseudo-random
    /// spread over rows 1..20, row 30 in the first column only, row 31 in
    /// the second block's first column only, and the batch's largest row,
    /// 40, in its last column only — inside the last, partial block
    /// whenever `cols` is not a multiple of 64.
    fn transposer_batch(id: u64, cols: usize) -> Batch {
        let mut state = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let transactions = (0..cols)
            .map(|col| {
                let mut raw = vec![0u32];
                for row in 1..20 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    if (state >> 33).is_multiple_of(3) {
                        raw.push(row);
                    }
                }
                raw.extend((col == 0).then_some(30));
                raw.extend((col == 64).then_some(31));
                raw.extend((col + 1 == cols).then_some(40));
                Transaction::from_raw(raw)
            })
            .collect();
        Batch::from_transactions(id, transactions)
    }

    /// The transposition one `BitVec::set` per edge produces.
    fn per_bit_reference(batch: &Batch) -> Vec<(usize, String)> {
        let mut rows = BTreeMap::new();
        for (col, transaction) in batch.iter().enumerate() {
            for edge in transaction.iter() {
                rows.entry(edge.index())
                    .or_insert_with(|| BitVec::zeros(batch.len()))
                    .set(col, true);
            }
        }
        rows.iter()
            .map(|(&row, bits)| (row, bit_string(bits)))
            .collect()
    }

    #[test]
    fn blocked_transposer_matches_a_per_bit_reference() {
        let mut t = Transposer::default();
        // Widths on both sides of each word boundary, refilled in an order
        // that shrinks and grows the chunks between batches.
        for (id, cols) in [0, 1, 63, 64, 65, 500, 65, 1, 500, 64, 0]
            .into_iter()
            .enumerate()
        {
            let batch = transposer_batch(id as u64, cols);
            t.fill(&batch);
            let expected = per_bit_reference(&batch);
            assert_eq!(transposed(&t), expected, "{cols} columns");
            assert_eq!(t.row_bound(), if cols == 0 { 0 } else { 41 });
            for (_, chunk) in t.rows() {
                assert_eq!(chunk.len(), cols);
                assert_eq!(chunk.as_words().len(), cols.div_ceil(WORD_BITS));
            }
            assert!(t.block.iter().all(|&word| word == 0), "block left dirty");
            if cols > 64 {
                let only = |row| expected.iter().find(|(r, _)| *r == row).unwrap().1.clone();
                assert_eq!(only(31).find('1'), Some(64));
                assert_eq!(only(40).rfind('1'), Some(cols - 1));
            }
        }
    }

    fn row_string(m: &mut DsMatrix, item: u32) -> String {
        bit_string(&m.row(EdgeId::new(item)).unwrap())
    }

    #[test]
    fn matches_paper_example_1_after_two_batches() {
        for backend in [StorageBackend::Memory, StorageBackend::DiskTemp] {
            let mut m = matrix(backend);
            let batches = paper_batches();
            m.ingest_batch(&batches[0]).unwrap();
            m.ingest_batch(&batches[1]).unwrap();

            assert_eq!(m.num_transactions(), 6);
            assert_eq!(m.boundaries(), vec![3, 6]);
            // DSMatrix capturing E1–E6 (Example 1).
            assert_eq!(row_string(&mut m, 0), "011111", "row a");
            assert_eq!(row_string(&mut m, 1), "000001", "row b");
            assert_eq!(row_string(&mut m, 2), "101101", "row c");
            assert_eq!(row_string(&mut m, 3), "100110", "row d");
            assert_eq!(row_string(&mut m, 4), "010010", "row e");
            assert_eq!(row_string(&mut m, 5), "111110", "row f");
        }
    }

    #[test]
    fn matches_paper_example_1_after_window_slide() {
        for backend in [StorageBackend::Memory, StorageBackend::DiskTemp] {
            let mut m = matrix(backend);
            for batch in paper_batches() {
                m.ingest_batch(&batch).unwrap();
            }
            assert_eq!(m.num_transactions(), 6);
            assert_eq!(m.boundaries(), vec![3, 6]);
            // DSMatrix capturing E4–E9 (Example 1 after the slide).
            assert_eq!(row_string(&mut m, 0), "111110", "row a");
            assert_eq!(row_string(&mut m, 1), "001001", "row b");
            assert_eq!(row_string(&mut m, 2), "101111", "row c");
            assert_eq!(row_string(&mut m, 3), "110011", "row d");
            assert_eq!(row_string(&mut m, 4), "010000", "row e");
            assert_eq!(row_string(&mut m, 5), "110110", "row f");
        }
    }

    #[test]
    fn singleton_supports_match_example_5() {
        let mut m = matrix(StorageBackend::Memory);
        for batch in paper_batches() {
            m.ingest_batch(&batch).unwrap();
        }
        let supports = m.view().unwrap().singleton_supports();
        let expected = [5u64, 2, 5, 4, 1, 4]; // a, b, c, d, e, f
        for (idx, &want) in expected.iter().enumerate() {
            assert_eq!(supports[idx].1, want, "support of row {idx}");
        }
    }

    #[test]
    fn projection_matches_example_2() {
        let mut m = matrix(StorageBackend::Memory);
        for batch in paper_batches() {
            m.ingest_batch(&batch).unwrap();
        }
        // {a}-projected database: {c,d,f}, {d,e,f}, {b,c}, {c,f}, {c,d,f}
        // (with the two identical suffixes merged).
        let view = m.view().unwrap();
        let db = view.project(EdgeId::new(0));
        let total: Support = db.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 5);
        let as_strings: Vec<(String, Support)> = db
            .iter()
            .map(|(items, c)| (items.iter().map(|e| e.symbol()).collect::<String>(), *c))
            .collect();
        assert!(as_strings.contains(&("cdf".to_string(), 2)));
        assert!(as_strings.contains(&("def".to_string(), 1)));
        assert!(as_strings.contains(&("bc".to_string(), 1)));
        assert!(as_strings.contains(&("cf".to_string(), 1)));

        // {b}-projected database: {c} and {c,d} (Example 2).
        let db_b = view.project(EdgeId::new(1));
        let as_strings: Vec<(String, Support)> = db_b
            .iter()
            .map(|(items, c)| (items.iter().map(|e| e.symbol()).collect::<String>(), *c))
            .collect();
        assert_eq!(as_strings.len(), 2);
        assert!(as_strings.contains(&("c".to_string(), 1)));
        assert!(as_strings.contains(&("cd".to_string(), 1)));

        // Projecting the last edge yields an empty database.
        assert!(view.project(EdgeId::new(5)).is_empty());
    }

    #[test]
    fn column_reconstructs_transactions() {
        let mut m = matrix(StorageBackend::Memory);
        for batch in paper_batches() {
            m.ingest_batch(&batch).unwrap();
        }
        // After the slide, column 0 is E4 = {a,c,d,f}.
        assert_eq!(m.column(0).unwrap().to_string(), "{a,c,d,f}");
        // Column 5 is E9 = {b,c,d}.
        assert_eq!(m.column(5).unwrap().to_string(), "{b,c,d}");
        assert!(m.column(6).is_err());
    }

    #[test]
    fn new_edges_in_later_batches_get_padded_rows() {
        let mut m = DsMatrix::new(DsMatrixConfig::new(
            WindowConfig::new(3).unwrap(),
            StorageBackend::Memory,
            0,
        ))
        .unwrap();
        m.ingest_batch(&Batch::from_transactions(
            0,
            vec![Transaction::from_raw([0])],
        ))
        .unwrap();
        m.ingest_batch(&Batch::from_transactions(
            1,
            vec![Transaction::from_raw([2])],
        ))
        .unwrap();
        assert_eq!(m.num_items(), 3);
        assert_eq!(row_string(&mut m, 2), "01", "row created late is padded");
        assert_eq!(row_string(&mut m, 1), "00", "never-seen edge is all zeros");
        assert_eq!(m.view().unwrap().support(EdgeId::new(0)), 1);
    }

    #[test]
    fn unknown_rows_read_as_zero() {
        let mut m = matrix(StorageBackend::Memory);
        m.ingest_batch(&paper_batches()[0]).unwrap();
        assert_eq!(m.view().unwrap().support(EdgeId::new(40)), 0);
        assert_eq!(m.row(EdgeId::new(40)).unwrap().len(), 3);
    }

    #[test]
    fn disk_backend_keeps_rows_off_heap() {
        let mut m = matrix(StorageBackend::DiskTemp);
        for batch in paper_batches() {
            m.ingest_batch(&batch).unwrap();
        }
        assert!(m.is_disk_backed());
        assert!(m.on_disk_bytes() > 0);
        assert!(
            m.resident_bytes() < 4096,
            "resident footprint is only bookkeeping, got {}",
            m.resident_bytes()
        );
        // An in-memory matrix of the same contents keeps its payload resident.
        let mut mem = matrix(StorageBackend::Memory);
        for batch in paper_batches() {
            mem.ingest_batch(&batch).unwrap();
        }
        assert!(!mem.is_disk_backed());
        assert_eq!(mem.on_disk_bytes(), 0);
        assert!(mem.resident_bytes() > 0);
    }

    #[test]
    fn budgeted_disk_views_read_only_the_slide_and_assemble_what_eager_views_do() {
        // The same stream through an uncached (budget 0) and a budgeted disk
        // matrix: rows stay byte-identical at every step and both assemble
        // the same words — the budget buys decodes, never assembly — but
        // the budgeted matrix, whose cache admits each chunk as its segment
        // is written, never reads a run at all, while budget 0 re-reads
        // the whole window on every view: each segment once.
        let config = |budget: usize| {
            DsMatrixConfig::new(WindowConfig::new(2).unwrap(), StorageBackend::DiskTemp, 6)
                .with_cache_budget(budget)
        };
        let mut eager = DsMatrix::new(config(0)).unwrap();
        let mut budgeted = DsMatrix::new(config(usize::MAX)).unwrap();
        assert_eq!(eager.cache_budget(), 0);
        assert_eq!(budgeted.cache_budget(), usize::MAX);

        let patterns = paper_batches();
        for round in 0..6u64 {
            let batch = Batch::from_transactions(
                round,
                patterns[(round % 3) as usize].iter().cloned().collect(),
            );
            eager.ingest_batch(&batch).unwrap();
            budgeted.ingest_batch(&batch).unwrap();

            let cols = if round == 0 { 3 } else { 6 };
            let expected: Vec<String> = (0..6).map(|item| row_string(&mut eager, item)).collect();
            // What a mine does afterwards: the reference reads' runs go.
            eager.trim_cache();
            let (e0, b0) = (eager.read_stats(), budgeted.read_stats());
            {
                let eager_view = eager.view().unwrap();
                assert_eq!(eager_view.num_transactions(), cols);
            }
            {
                // The budgeted view agrees with the eager ground truth bit
                // for bit.
                let view = budgeted.view().unwrap();
                for (item, want) in expected.iter().enumerate() {
                    let mut assembled = view.row(EdgeId::new(item as u32)).unwrap().clone();
                    assembled.resize(view.num_transactions());
                    assert_eq!(
                        &bit_string(&assembled),
                        want,
                        "row {item} diverged on round {round}"
                    );
                }
            }
            budgeted.trim_cache();
            let (e1, b1) = (eager.read_stats(), budgeted.read_stats());

            // The first batch never mentions row 1; from the second on the
            // window holds every row.  Each is one word (≤ 6 columns).
            let held = held_rows(&budgeted);
            assert_eq!(held, if round == 0 { 5 } else { 6 });
            assert_eq!(
                b1.words_assembled - b0.words_assembled,
                held,
                "round {round}: a view assembles the rows the window holds, once"
            );
            assert_eq!(
                b1.words_assembled - b0.words_assembled,
                e1.words_assembled - e0.words_assembled,
                "round {round}: budgeted and budget-0 views assemble the same words"
            );
            assert_eq!(b1.rows_assembled - b0.rows_assembled, held);
            assert_eq!(e1.cache_hits, 0, "budget 0 never hits");
            // An unlimited budget holds every chunk from the moment it was
            // written — cold or steady, a view is all hits.
            assert_eq!(
                b1.pages_read - b0.pages_read,
                0,
                "round {round}: a covering budget reads no run"
            );
            assert_eq!(
                b1.cache_hits - b0.cache_hits,
                window_chunks(&budgeted),
                "round {round}: every chunk of the window is a hit"
            );
            assert_eq!(
                e1.pages_read - e0.pages_read,
                eager.store.num_segments() as u64,
                "round {round}: budget 0 reads every segment, once"
            );
        }
    }

    #[test]
    fn tight_budgets_refuse_admissions_and_stay_correct() {
        // A budget that holds some of the window's chunks but not all: hits
        // and run reads coexist in one view, and every row agrees with the
        // eager ground truth.
        let mut m = DsMatrix::new(
            DsMatrixConfig::new(WindowConfig::new(2).unwrap(), StorageBackend::DiskTemp, 6)
                .with_cache_budget(600),
        )
        .unwrap();
        let mut reference = matrix(StorageBackend::DiskTemp);
        for batch in paper_batches() {
            m.ingest_batch(&batch).unwrap();
            reference.ingest_batch(&batch).unwrap();
        }
        let expected: Vec<String> = (0..6)
            .map(|item| row_string(&mut reference, item))
            .collect();
        let mut per_view = Vec::new();
        for _ in 0..2 {
            let before = m.read_stats();
            let view = m.view().unwrap();
            for (item, want) in expected.iter().enumerate() {
                let got: String = (0..view.num_transactions())
                    .map(|col| {
                        if view.get(EdgeId::new(item as u32), col) {
                            '1'
                        } else {
                            '0'
                        }
                    })
                    .collect();
                assert_eq!(&got, want, "row {item}");
            }
            m.trim_cache();
            let after = m.read_stats();
            per_view.push((
                after.cache_hits - before.cache_hits,
                after.pages_read - before.pages_read,
            ));
        }
        // Write-through admission makes the first view as warm as the
        // second: in both, hits and run reads coexist.
        for (view, &(hits, reads)) in per_view.iter().enumerate() {
            assert!(
                hits > 0,
                "view {view}: a 600-byte budget should keep some chunks warm: {per_view:?}"
            );
            assert!(
                reads > 0,
                "view {view}: a 600-byte budget should also refuse some: {per_view:?}"
            );
        }
        assert_eq!(per_view[0], per_view[1], "nothing moves between views");
    }

    /// Chunks the live window holds, from the store's in-memory index.
    fn window_chunks(m: &DsMatrix) -> u64 {
        (0..m.store.num_segments())
            .map(|seg| m.store.segment_row_ids(seg).unwrap().len() as u64)
            .sum()
    }

    /// Distinct rows some live segment holds a chunk for.
    fn held_rows(m: &DsMatrix) -> u64 {
        (0..m.store.num_segments())
            .flat_map(|seg| m.store.segment_row_ids(seg).unwrap())
            .collect::<BTreeSet<usize>>()
            .len() as u64
    }

    #[test]
    fn a_disk_view_looks_each_chunk_up_once() {
        // Per view each chunk the window holds is either one cache hit or
        // one miss — never both, never neither — and the misses cost one run
        // read per segment holding one, whether the budget holds part of the
        // window or all of it, cold or steady.
        for budget in [600, usize::MAX] {
            let mut m = DsMatrix::new(
                DsMatrixConfig::new(WindowConfig::new(2).unwrap(), StorageBackend::DiskTemp, 6)
                    .with_cache_budget(budget),
            )
            .unwrap();
            let patterns = paper_batches();
            for round in 0..6u64 {
                let batch = Batch::from_transactions(
                    round,
                    patterns[(round % 3) as usize].iter().cloned().collect(),
                );
                m.ingest_batch(&batch).unwrap();
                for pass in 0..2 {
                    let (before, reads) = (m.store.cache_stats(), m.read_stats().pages_read);
                    m.view().unwrap();
                    m.trim_cache();
                    let after = m.store.cache_stats();
                    let misses = after.misses - before.misses;
                    assert_eq!(
                        (after.hits - before.hits) + misses,
                        window_chunks(&m),
                        "budget {budget}, round {round}, pass {pass}"
                    );
                    let reads = m.read_stats().pages_read - reads;
                    assert!(
                        reads <= m.store.num_segments() as u64 && (reads > 0) == (misses > 0),
                        "budget {budget}, round {round}, pass {pass}: {reads} reads"
                    );
                }
            }
            assert!(m.read_stats().cache_hits > 0, "budget {budget}");
        }
    }

    /// Satellite regression: `words_assembled` is counted in 64-bit words of
    /// materialised payload on every path — exact values for a known window,
    /// so a future bits-vs-words mixup cannot slip through.
    #[test]
    fn read_word_accounting_is_exact_for_a_known_window() {
        // Window: 2 batches of 70 + 64 columns = 134 columns, 3 known rows
        // (expected_edges 3).  A full 134-bit row is ceil(134/64) = 3 words.
        let columns = [70usize, 64];
        let window_words = 3u64;
        for backend in [StorageBackend::Memory, StorageBackend::DiskTemp] {
            let mut m = DsMatrix::new(DsMatrixConfig::new(
                WindowConfig::new(2).unwrap(),
                backend.clone(),
                3,
            ))
            .unwrap();
            for (id, cols) in columns.iter().enumerate() {
                let transactions: Vec<Transaction> = (0..*cols)
                    .map(|c| Transaction::from_raw([(c % 3) as u32]))
                    .collect();
                m.ingest_batch(&Batch::from_transactions(id as u64, transactions))
                    .unwrap();
            }
            assert_eq!(m.num_transactions(), 134);

            // row(): one row, ceil(134/64) words — known and unknown edges
            // alike (both materialise a 134-bit flat row).
            let base = m.read_stats();
            m.row(EdgeId::new(0)).unwrap();
            m.row(EdgeId::new(40)).unwrap();
            let after_rows = m.read_stats();
            assert_eq!(after_rows.rows_assembled - base.rows_assembled, 2);
            assert_eq!(
                after_rows.words_assembled - base.words_assembled,
                2 * window_words
            );

            // view(): the window once, on every backend — both segments
            // hold all three rows, so each is materialised at full width.
            let before_view = m.read_stats();
            m.view().unwrap();
            let after_view = m.read_stats();
            assert_eq!(
                after_view.words_assembled - before_view.words_assembled,
                3 * window_words,
                "{backend:?}"
            );

            // column(): one chunk read per row of the owning segment, on
            // every backend — the 70-column segment holds 3 rows of
            // ceil(70/64) = 2 words.
            let before_column = m.read_stats();
            m.column(0).unwrap();
            let after_column = m.read_stats();
            assert_eq!(
                after_column.words_assembled - before_column.words_assembled,
                3 * 2,
                "{backend:?}"
            );
            assert_eq!(after_column.rows_assembled, before_column.rows_assembled);
        }
    }

    #[test]
    fn empty_matrix_reports_sane_values() {
        let m = matrix(StorageBackend::Memory);
        assert!(m.is_empty());
        assert_eq!(m.num_transactions(), 0);
        assert!(m.boundaries().is_empty());
        assert_eq!(m.num_batches(), 0);
    }

    fn durable_config(dir: &std::path::Path, every: usize) -> DsMatrixConfig {
        DsMatrixConfig::new(WindowConfig::new(2).unwrap(), StorageBackend::DiskTemp, 6)
            .with_durability(DurabilityConfig::new(dir).with_checkpoint_every(every))
    }

    fn all_rows(m: &mut DsMatrix) -> Vec<String> {
        (0..6).map(|i| row_string(m, i)).collect()
    }

    #[test]
    fn durability_rejects_memory_backend_and_zero_interval() {
        let dir = fsm_storage::TempDir::new("durable-cfg").unwrap();
        let cfg = DsMatrixConfig::new(WindowConfig::new(2).unwrap(), StorageBackend::Memory, 6)
            .with_durability(DurabilityConfig::new(dir.path()));
        assert!(matches!(
            DsMatrix::new(cfg),
            Err(FsmError::InvalidConfig(_))
        ));

        let cfg = durable_config(dir.path(), 0);
        assert!(matches!(
            DsMatrix::new(cfg),
            Err(FsmError::InvalidConfig(_))
        ));
    }

    #[test]
    fn non_durable_matrix_pays_no_durability_cost() {
        let mut m = matrix(StorageBackend::DiskTemp);
        for batch in paper_batches() {
            m.ingest_batch(&batch).unwrap();
        }
        let stats = m.read_stats();
        assert!(!m.is_durable());
        assert_eq!(stats.wal_bytes_written, 0);
        assert_eq!(stats.fsyncs, 0);
        assert_eq!(stats.checkpoint_bytes, 0);
        assert_eq!(stats.recovery_replayed_batches, 0);
    }

    #[test]
    fn durable_ingest_matches_volatile_and_counts_durability() {
        let dir = fsm_storage::TempDir::new("durable-ingest").unwrap();
        let mut durable = DsMatrix::new(durable_config(dir.path(), 2)).unwrap();
        let mut volatile = matrix(StorageBackend::Memory);
        for batch in paper_batches() {
            durable.ingest_batch(&batch).unwrap();
            volatile.ingest_batch(&batch).unwrap();
        }
        assert!(durable.is_durable());
        assert_eq!(all_rows(&mut durable), all_rows(&mut volatile));
        let stats = durable.read_stats();
        // One WAL record + fsync per ingested batch, at least one checkpoint.
        assert!(stats.wal_bytes_written > 0);
        assert!(stats.fsyncs >= 3);
        assert!(stats.checkpoint_bytes > 0);
        assert_eq!(stats.recovery_replayed_batches, 0);
    }

    #[test]
    fn recover_rebuilds_the_exact_window() {
        let dir = fsm_storage::TempDir::new("durable-recover").unwrap();
        // Checkpoint every 2 slides: the third batch lives only in the WAL.
        let expected = {
            let mut m = DsMatrix::new(durable_config(dir.path(), 2)).unwrap();
            for batch in paper_batches() {
                m.ingest_batch(&batch).unwrap();
            }
            all_rows(&mut m)
            // Dropped without any shutdown checkpoint — like a crash, except
            // the files are all intact.
        };
        let mut recovered = DsMatrix::recover(durable_config(dir.path(), 2)).unwrap();
        assert_eq!(all_rows(&mut recovered), expected);
        let report = recovered.recovery_report().unwrap().clone();
        assert_eq!(report.checkpoint_seq, Some(2));
        assert_eq!(report.replayed_batches, 1);
        assert_eq!(report.wal_torn, None);
        assert!(report.skipped_artifacts.is_empty());
        assert_eq!(recovered.last_batch_id(), Some(2));
        assert_eq!(recovered.read_stats().recovery_replayed_batches, 1);

        // Recovery is repeatable (it mutates nothing it then depends on).
        let mut again = DsMatrix::recover(durable_config(dir.path(), 2)).unwrap();
        assert_eq!(all_rows(&mut again), expected);
    }

    #[test]
    fn recover_without_any_checkpoint_replays_the_full_wal() {
        let dir = fsm_storage::TempDir::new("durable-nockpt").unwrap();
        let expected = {
            // Huge interval: no checkpoint is ever written.
            let mut m = DsMatrix::new(durable_config(dir.path(), 100)).unwrap();
            for batch in paper_batches() {
                m.ingest_batch(&batch).unwrap();
            }
            all_rows(&mut m)
        };
        let mut recovered = DsMatrix::recover(durable_config(dir.path(), 100)).unwrap();
        assert_eq!(all_rows(&mut recovered), expected);
        let report = recovered.recovery_report().unwrap();
        assert_eq!(report.checkpoint_seq, None);
        assert_eq!(report.replayed_batches, 3);
    }

    #[test]
    fn recover_rejects_window_size_mismatch() {
        let dir = fsm_storage::TempDir::new("durable-mismatch").unwrap();
        let mut m = DsMatrix::new(durable_config(dir.path(), 1)).unwrap();
        for batch in paper_batches() {
            m.ingest_batch(&batch).unwrap();
        }
        drop(m);
        let cfg = DsMatrixConfig::new(WindowConfig::new(3).unwrap(), StorageBackend::DiskTemp, 6)
            .with_durability(DurabilityConfig::new(dir.path()).with_checkpoint_every(1));
        assert!(matches!(
            DsMatrix::recover(cfg),
            Err(FsmError::InvalidConfig(_))
        ));
    }

    #[test]
    fn new_durable_matrix_is_a_fresh_start() {
        let dir = fsm_storage::TempDir::new("durable-fresh").unwrap();
        {
            let mut m = DsMatrix::new(durable_config(dir.path(), 1)).unwrap();
            for batch in paper_batches() {
                m.ingest_batch(&batch).unwrap();
            }
        }
        // Re-creating (not recovering) wipes the previous state.
        let m = DsMatrix::new(durable_config(dir.path(), 1)).unwrap();
        assert!(m.is_empty());
        drop(m);
        let recovered = DsMatrix::recover(durable_config(dir.path(), 1)).unwrap();
        assert!(recovered.is_empty());
    }

    #[test]
    fn governed_matrices_share_one_cap_and_read_identically() {
        let governor = fsm_storage::BudgetGovernor::new(1200);
        let build = |gov: Option<&std::sync::Arc<fsm_storage::BudgetGovernor>>| {
            let mut config =
                DsMatrixConfig::new(WindowConfig::new(2).unwrap(), StorageBackend::DiskTemp, 6)
                    .with_cache_budget(usize::MAX);
            if let Some(gov) = gov {
                config = config.with_budget_governor(std::sync::Arc::clone(gov));
            }
            DsMatrix::new(config).unwrap()
        };
        let mut a = build(Some(&governor));
        // A lone governed tenant may use the whole cap.
        a.ingest_batch(&paper_batches()[0]).unwrap();
        assert_eq!(a.cache_budget(), 1200);
        // A second tenant halves the pie; both converge to fair shares at
        // their next ingest/view boundary.
        let mut b = build(Some(&governor));
        for batch in paper_batches() {
            a.ingest_batch(&batch).unwrap();
            b.ingest_batch(&batch).unwrap();
        }
        assert_eq!(b.cache_budget(), 600);
        assert_eq!(a.cache_budget(), 600);
        assert!(governor.granted_bytes() <= 1200);
        // Budget arbitration must never change what reads return.
        let mut ungoverned = build(None);
        for batch in paper_batches() {
            ungoverned.ingest_batch(&batch).unwrap();
        }
        for item in 0..6 {
            assert_eq!(
                row_string(&mut a, item),
                row_string(&mut ungoverned, item),
                "row {item}"
            );
        }
        // A departing tenant's share flows back.
        drop(b);
        a.ingest_batch(&paper_batches()[0]).unwrap();
        assert_eq!(a.cache_budget(), 1200);
    }

    #[test]
    fn memory_backend_ignores_the_governor() {
        let governor = fsm_storage::BudgetGovernor::new(1 << 20);
        let config = DsMatrixConfig::new(WindowConfig::new(2).unwrap(), StorageBackend::Memory, 6)
            .with_cache_budget(usize::MAX)
            .with_budget_governor(std::sync::Arc::clone(&governor));
        let mut m = DsMatrix::new(config).unwrap();
        m.ingest_batch(&paper_batches()[0]).unwrap();
        assert_eq!(governor.members(), 0, "memory matrices never register");
        assert_eq!(m.cache_budget(), 0);
    }
}
