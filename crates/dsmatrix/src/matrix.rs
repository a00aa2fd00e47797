//! DSMatrix implementation.

use std::collections::{BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fsm_storage::{
    scan_segment_files, BitVec, BudgetGovernor, BudgetLease, CaptureStats, Checkpoint,
    CheckpointSegment, EpochSegment, SegmentedWindowStore, StorageBackend, Wal,
};
use fsm_stream::{SlideOutcome, SlidingWindow, WindowConfig};
use fsm_types::codec::Reader;
use fsm_types::{Batch, BatchId, EdgeId, FsmError, Result, Support, Transaction};

use crate::durable::{encode_batch_into, DurabilityConfig, DurableState, RecoveryReport};
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
    /// Segment runs read: one per read of a disk segment that was not
    /// resident, so a view reads each such segment once, plus — for a
    /// matrix [`DsMatrix::thaw`] or [`DsMatrix::recover`] built — one per
    /// run its load read, each once.  Past the load it stays 0 on the
    /// memory backend, whose segments are all resident, and with a budget
    /// covering the window.  (The name is the metric's,
    /// `storage.pages_read_per_mine`, from when a segment was a file of
    /// pages read one per chunk.)
    pub pages_read: u64,
    /// Chunks served from resident disk segments instead of a segment run
    /// (zero on the memory backend).  (The name is the metric's,
    /// `storage.cache_hit_ratio`, from when the budget bought single chunks.)
    pub cache_hits: u64,
    /// Always 0: no view lends rows out of resident segments, so
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
    /// Byte budget of the decoded segments the disk backends keep resident
    /// (`0`, the default, keeps none — every mine re-reads the window from
    /// disk, the paper's strictest space posture).  A segment is resident
    /// whole or not at all, charged its decoded heap bytes.  Ignored by the
    /// memory backend, whose segments are all resident.
    pub cache_budget_bytes: usize,
    /// Durability knobs (WAL + checkpoints + crash recovery).  `None`, the
    /// default, keeps the original volatile behaviour; `Some` requires a disk
    /// backend and roots every durable artifact under
    /// [`DurabilityConfig::dir`] (segment files move to its `segments/`
    /// subdirectory regardless of the backend's own path).
    pub durability: Option<DurabilityConfig>,
    /// Process-wide residency-budget arbiter.  `None`, the default, treats
    /// [`DsMatrixConfig::cache_budget_bytes`] as this matrix's own budget
    /// (the single-tenant behaviour).  With a governor, the configured
    /// budget becomes this matrix's *desired* budget: the matrix registers a
    /// [`BudgetLease`] and re-requests at ingest/view boundaries, applying
    /// whatever the governor's process-wide cap and fair-share rule grant.
    /// Ignored by the memory backend, which has no residency to budget.
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

    /// Sets the byte budget of resident decoded segments for the disk
    /// backends.
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

    /// Subordinates this matrix's residency budget to a process-wide
    /// [`BudgetGovernor`] (see [`DsMatrixConfig::governor`]).
    pub fn with_budget_governor(mut self, governor: Arc<BudgetGovernor>) -> Self {
        self.governor = Some(governor);
        self
    }
}

/// An entering batch, in either of the two forms it reaches the window in.
#[derive(Debug, Clone, Copy)]
pub enum Incoming<'a> {
    /// Built transactions.
    Batch(&'a Batch),
    /// The batch's payload as [`crate::encode_batch`] lays it out — the
    /// form it crosses the wire in and is logged in — transposed straight
    /// from its bytes, never decoded into a [`Batch`].
    Encoded(&'a [u8]),
}

/// The artifact a malformed batch payload is refused as, as
/// [`crate::decode_batch`] refuses it.
const PAYLOAD: &str = "wal batch payload";

/// One transaction's edge ids at a time, in order — what the transposer
/// reads a batch through, whichever form it came in.
trait Transactions<'a> {
    type Ids: Iterator<Item = u32>;

    /// The next transaction's ids, as stored (the transposer checks that
    /// they strictly increase).
    fn next_ids(&mut self) -> Result<Self::Ids>;

    /// Refuses anything left over once every transaction was read.
    fn finish(self) -> Result<()>;
}

/// A batch payload's transactions, read from its bytes.
struct Payload<'a>(Reader<'a>);

impl<'a> Payload<'a> {
    /// Reads the header: the batch id and its transaction count.
    fn open(bytes: &'a [u8]) -> Result<(BatchId, usize, Self)> {
        let mut reader = Reader::artifact(bytes, PAYLOAD);
        let id = reader.take_u64()?;
        // A transaction is at least its `u32` edge count.
        let cols = reader.count_u32(4)?;
        Ok((id, cols, Self(reader)))
    }
}

/// One payload transaction's ids: little-endian `u32`s.
struct PayloadIds<'a>(std::slice::ChunksExact<'a, u8>);

impl Iterator for PayloadIds<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        let id = self.0.next()?;
        Some(u32::from_le_bytes([id[0], id[1], id[2], id[3]]))
    }
}

impl<'a> Transactions<'a> for Payload<'a> {
    type Ids = PayloadIds<'a>;

    fn next_ids(&mut self) -> Result<Self::Ids> {
        // An edge id is a `u32`.
        let count = self.0.count_u32(4)?;
        Ok(PayloadIds(self.0.take(4 * count)?.chunks_exact(4)))
    }

    fn finish(self) -> Result<()> {
        self.0.finish()
    }
}

/// One built transaction's ids.
struct BuiltIds<'a>(std::slice::Iter<'a, EdgeId>);

impl Iterator for BuiltIds<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        self.0.next().map(|edge| edge.0)
    }
}

impl<'a> Transactions<'a> for std::slice::Iter<'a, Transaction> {
    type Ids = BuiltIds<'a>;

    fn next_ids(&mut self) -> Result<Self::Ids> {
        let transaction = self
            .next()
            .ok_or_else(|| FsmError::corrupt("a batch ran out of transactions"))?;
        Ok(BuiltIds(transaction.edges().iter()))
    }

    fn finish(self) -> Result<()> {
        Ok(())
    }
}

/// Transposes an entering batch — transactions listing their edges — into
/// one bit chunk per row the batch touches, 64 columns at a time, in the one
/// scan that also validates it.  Within a block of 64 transactions every
/// edge ORs its bit into one word per row (a row-indexed word array); then
/// each row the block touched stores that word into its chunk at the
/// block's word index — one store per (row, block) instead of one bit set
/// per edge.  A dense row → slot table finds a row's chunk in one indexed
/// load; the chunks live back to back in one word buffer, in first-touch
/// order, and the touched list (≤ rows touched) is sorted once per batch so
/// [`Transposer::build`] lays them out ascending by row in the segment's
/// arena.  The tables and buffers are reused from batch to batch.
#[derive(Debug, Default)]
struct Transposer {
    /// Width of the batch being filled.
    cols: usize,
    /// `slot_of[row]` is one more than the row's chunk slot, or 0 for a row
    /// the current batch has not touched.
    slot_of: Vec<u32>,
    /// `block[row]`: the current block's bits of `row`; all zero between
    /// blocks.  As long as `slot_of`.
    block: Vec<u64>,
    /// The rows whose `block` word is nonzero, in first-touch order.
    block_rows: Vec<usize>,
    /// The rows the current batch touches, ascending once
    /// [`Transposer::fill`] returns.
    touched: Vec<usize>,
    /// Slot `i`'s chunk is `words[i·w..(i + 1)·w]`, `w` the batch's words
    /// per row.
    words: Vec<u64>,
}

impl Transposer {
    /// Transposes `incoming`, replacing whatever the previous batch left
    /// behind, and returns the batch's id and width.  The scan refuses a
    /// malformed payload as [`crate::decode_batch`] does —
    /// [`FsmError::CorruptArtifact`] naming the "wal batch payload" — and
    /// then a batch naming an edge id at or past `edge_limit` with
    /// [`FsmError::UnknownEdge`] (its largest such id).  Nothing outside the
    /// transposer changes either way.
    fn fill(&mut self, incoming: Incoming<'_>, edge_limit: usize) -> Result<(BatchId, usize)> {
        match incoming {
            Incoming::Batch(batch) => {
                self.scan(batch.len(), batch.transactions().iter(), edge_limit)?;
                Ok((batch.id, batch.len()))
            }
            Incoming::Encoded(bytes) => {
                let (id, cols, payload) = Payload::open(bytes)?;
                self.scan(cols, payload, edge_limit)?;
                Ok((id, cols))
            }
        }
    }

    /// The one transposer body, over either form of a batch.
    fn scan<'a>(
        &mut self,
        cols: usize,
        mut transactions: impl Transactions<'a>,
        edge_limit: usize,
    ) -> Result<()> {
        self.begin(cols);
        let width = cols.div_ceil(WORD_BITS);
        let room = self.words.capacity();
        // Ids below `known` index the tables and lie inside the limit.
        let mut known = edge_limit.min(self.block.len());
        let mut unknown = None;
        for index in 0..width {
            for bit in 0..(cols - index * WORD_BITS).min(WORD_BITS) {
                // The smallest id the next one may be: strictly above the last.
                let mut floor = 0u64;
                for id in transactions.next_ids()? {
                    if u64::from(id) < floor {
                        return Err(FsmError::corrupt_artifact(
                            PAYLOAD,
                            format!(
                                "edge id {id} follows {} in transaction {}: ids must strictly \
                                 increase",
                                floor - 1,
                                index * WORD_BITS + bit
                            ),
                        ));
                    }
                    floor = u64::from(id) + 1;
                    let row = id as usize;
                    if row >= known {
                        if row >= edge_limit {
                            unknown = unknown.max(Some(id));
                            continue;
                        }
                        self.slot_of.resize(row + 1, 0);
                        self.block.resize(row + 1, 0);
                        known = edge_limit.min(self.block.len());
                    }
                    let word = &mut self.block[row];
                    if *word == 0 {
                        self.block_rows.push(row);
                    }
                    *word |= 1u64 << bit;
                }
            }
            for i in 0..self.block_rows.len() {
                let row = self.block_rows[i];
                let word = std::mem::take(&mut self.block[row]);
                let slot = self.claim(row, width);
                self.words[slot * width + index] = word;
            }
            self.block_rows.clear();
        }
        transactions.finish()?;
        if let Some(edge) = unknown {
            return Err(FsmError::UnknownEdge { edge });
        }
        if self.words.capacity() != room {
            // A batch wider than any before grew the chunk buffer by
            // doubling: keep what it needs, not the doubling's slack.
            self.words.shrink_to_fit();
        }
        self.touched.sort_unstable();
        Ok(())
    }

    /// Starts a batch of `cols` columns.  The previous fill is released
    /// here, on entry, rather than by whoever consumed it — a batch refused
    /// halfway, or an ingest that a failed segment write abandoned, never
    /// got that far — so every chunk claimed from here on is zero.
    fn begin(&mut self, cols: usize) {
        for &row in &self.touched {
            self.slot_of[row] = 0;
        }
        for &row in &self.block_rows {
            self.block[row] = 0;
        }
        self.touched.clear();
        self.block_rows.clear();
        self.words.clear();
        self.cols = cols;
    }

    /// `row`'s chunk slot, claiming `width` zero words on the row's first
    /// touch.
    fn claim(&mut self, row: usize, width: usize) -> usize {
        if self.slot_of[row] == 0 {
            self.touched.push(row);
            self.words.resize(self.words.len() + width, 0);
            self.slot_of[row] = self.touched.len() as u32;
        }
        self.slot_of[row] as usize - 1
    }

    /// The touched rows and their chunks' words, ascending by row.
    fn rows(&self) -> impl ExactSizeIterator<Item = (usize, &[u64])> + Clone {
        let width = self.cols.div_ceil(WORD_BITS);
        self.touched.iter().map(move |&row| {
            let at = (self.slot_of[row] as usize - 1) * width;
            (row, &self.words[at..at + width])
        })
    }

    /// The filled batch as a flat segment, laid out in `arena`.
    fn build(&self, arena: Vec<u64>) -> Result<EpochSegment> {
        EpochSegment::from_words(self.cols, self.rows(), arena)
    }

    fn heap_bytes(&self) -> usize {
        (self.block.capacity() + self.words.capacity()) * std::mem::size_of::<u64>()
            + self.slot_of.capacity() * std::mem::size_of::<u32>()
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
/// segment by segment, on every backend (resident segments served from
/// memory, the others read from their runs on the disk backends);
/// [`DsMatrix::row`] assembles one row straight from the
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
    /// Durability state (WAL handle, checkpoint bookkeeping, deferred file
    /// GC).  `None` on volatile matrices — including every memory-backend
    /// matrix — so the non-durable ingest path pays exactly one branch.
    durable: Option<DurableState>,
    /// The residency budget this matrix *wants*; what it actually gets is
    /// `lease.request(desired)` when governed, `desired` otherwise.
    desired_cache_budget: usize,
    /// Membership in a process-wide [`BudgetGovernor`], if configured.
    lease: Option<BudgetLease>,
}

impl DsMatrix {
    /// Creates an empty matrix.
    ///
    /// With [`DsMatrixConfig::durability`] set this is a **fresh start**: any
    /// checkpoints and WAL contents left in the durable directory from a
    /// previous run are discarded, and its segment files are released for
    /// the new window's pushes to overwrite.  Use [`DsMatrix::recover`] to
    /// resume from them instead.
    pub fn new(config: DsMatrixConfig) -> Result<Self> {
        let (backend, durable) = match config.durability.clone() {
            None => (config.backend.clone(), None),
            Some(dur) => {
                Self::validate_durability(&config.backend, &dur)?;
                std::fs::create_dir_all(&dur.dir)?;
                // Fresh start: drop every old checkpoint and the WAL.
                // (`SegmentedWindowStore::open` below releases stale segment
                // files for reuse; nothing references them any more.)
                Checkpoint::prune_keeping(&dur.dir, 0)?;
                let wal = Wal::create(dur.wal_path())?;
                let backend = StorageBackend::DiskAt(dur.segments_dir());
                (backend, Some(DurableState::fresh(dur, wal)))
            }
        };
        let store = SegmentedWindowStore::open(backend)?;
        Ok(Self::with_store(&config, store, durable))
    }

    /// An empty window over `store`, leasing its cache budget from the
    /// configured governor.
    fn with_store(
        config: &DsMatrixConfig,
        mut store: SegmentedWindowStore,
        durable: Option<DurableState>,
    ) -> Self {
        let lease = Self::lease_for(&config.governor, &store);
        store.set_cache_budget(Self::granted(&lease, config.cache_budget_bytes));
        Self {
            store,
            window: SlidingWindow::new(config.window),
            num_items: config.expected_edges,
            num_cols: 0,
            transposer: Transposer::default(),
            supports: vec![0; config.expected_edges],
            segment_ones: VecDeque::new(),
            rows: Vec::new(),
            read_stats: ReadStats::default(),
            durable,
            desired_cache_budget: config.cache_budget_bytes,
            lease,
        }
    }

    /// Registers with the configured governor — disk backends only: the
    /// memory backend holds the window resident and ignores residency budgets.
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
    /// CRC and (b) whose referenced segment runs all verify and add up to
    /// its support counters, then replays the WAL tail past it through the
    /// ordinary ingest path.  A corrupt
    /// newest checkpoint (or a corrupt segment run it references) makes
    /// recovery fall back to the older retained checkpoint — whose WAL
    /// suffix is retained precisely for this — and, failing that, to an
    /// empty window replayed from the full WAL.  Corrupt candidates are
    /// deleted and named in the [`RecoveryReport`]; recovery never
    /// silently produces a window that differs from what was committed.
    ///
    /// Any I/O error that is *not* a proven corruption fails recovery
    /// outright rather than falling back — a transient error must not
    /// masquerade as data loss — and so does a directory an earlier format
    /// wrote (segment format v1 files, or a checkpoint of a retired
    /// format), which is refused by name without deleting anything.
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
        // A directory an earlier format wrote is refused before anything in
        // it is touched: no decoder for it exists, and the checkpoint walk
        // below would otherwise delete its checkpoints as corrupt.
        scan_segment_files(&segments_dir)?;
        let candidates = Checkpoint::candidates(&dur.dir)?;

        // The WAL self-repairs its torn tail on open; everything before the
        // tear is intact (per-record CRCs).
        let (mut wal, records, torn) = Wal::open(dur.wal_path())?;
        let wal_torn = torn.map(|t| t.reason);

        // Newest checkpoint whose metadata *and* referenced runs verify
        // wins; proven-corrupt candidates are deleted so a later retention
        // prune cannot prefer them over a good older checkpoint.
        let mut skipped = Vec::new();
        let mut chosen = None;
        for (_, path) in candidates {
            let mut ledgers = VecDeque::new();
            let loaded = Self::load_cold(&dur, &path, &config, |_, _, ledger| {
                ledgers.push_back(ledger);
                Ok(())
            });
            match loaded {
                Ok((ckpt, store)) => {
                    chosen = Some((ckpt, store, ledgers));
                    break;
                }
                Err(err) if is_corruption(&err) => {
                    skipped.push(format!("{} rejected: {err}", file_label(&path)));
                    std::fs::remove_file(&path)?;
                }
                Err(other) => return Err(other),
            }
        }
        let checkpoint_seq = chosen.as_ref().map(|(ckpt, ..)| ckpt.last_seq);
        let (mut ckpt, store, ledgers) = match chosen {
            Some(loaded) => loaded,
            // No usable checkpoint: rebuild from an empty window.  `restore`
            // with `next_uid = 0` wipes every leftover segment file — the
            // replay below re-creates them.
            None => {
                let empty = Checkpoint::default();
                let store =
                    SegmentedWindowStore::restore(segments_dir.clone(), &empty, |_, _| Ok(()))?;
                (empty, store, VecDeque::new())
            }
        };
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

        // Rebuild the in-memory bookkeeping from the checkpoint and the
        // ledgers its runs gave.  `load_cold` refused a checkpoint with more
        // segments than the window holds, so none of these pushes evicts.
        let mut matrix = Self::with_store(&config, store, Some(durable));
        matrix.num_items = ckpt.supports.len().max(config.expected_edges);
        matrix.supports = std::mem::take(&mut ckpt.supports);
        matrix.supports.resize(matrix.num_items, 0);
        for seg in &ckpt.segments {
            matrix.window.push(seg.batch_id, seg.cols as usize);
            matrix.num_cols += seg.cols as usize;
        }
        matrix.segment_ones = ledgers;

        // Replay the WAL tail through the ordinary (post-WAL) ingest path.
        // The tail must continue the checkpoint contiguously; a gap means an
        // artifact lied and recovering "around" it would fabricate a window
        // that never existed.
        let base_seq = ckpt.last_seq;
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
            let (id, cols) = matrix
                .transposer
                .fill(Incoming::Encoded(&record.payload), usize::MAX)?;
            matrix.apply_transposed(id, cols)?;
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

    /// Loads one checkpoint and the runs it names — the one loader of a
    /// window's cold form, behind recovery and [`DsMatrix::thaw`] alike.
    ///
    /// Each run is read and decoded once
    /// ([`SegmentedWindowStore::restore`]), and its segment handed to
    /// `each` with its batch id and the `(row, ones)` ledger derived from
    /// its chunks — what a later eviction subtracts from the supports.  A
    /// row at or past the checkpoint's row domain, or ledgers that do not
    /// sum to its support counters, is [`FsmError::CorruptArtifact`] naming
    /// the checkpoint: a checkpoint that passes can neither index past the
    /// supports nor underflow one.  Corruption errors make
    /// [`DsMatrix::recover`] fall back to the next candidate.
    fn load_cold(
        dur: &DurabilityConfig,
        path: &Path,
        config: &DsMatrixConfig,
        mut each: impl FnMut(BatchId, EpochSegment, Vec<(usize, u64)>) -> Result<()>,
    ) -> Result<(Checkpoint, SegmentedWindowStore)> {
        let ckpt = Checkpoint::load(path)?;
        if ckpt.window_batches != config.window.window_batches() as u64 {
            return Err(FsmError::config(format!(
                "checkpoint was written with window_batches = {}, config says {}",
                ckpt.window_batches,
                config.window.window_batches()
            )));
        }
        if ckpt.segments.len() > config.window.window_batches() {
            return Err(FsmError::corrupt_artifact(
                file_label(path),
                format!(
                    "references {} segments but the window holds at most {}",
                    ckpt.segments.len(),
                    config.window.window_batches()
                ),
            ));
        }
        let rows = ckpt.supports.len();
        let mut sums = vec![0u64; rows];
        let store = SegmentedWindowStore::restore(dur.segments_dir(), &ckpt, |entry, segment| {
            let mut ledger = Vec::with_capacity(segment.num_rows());
            for (row, chunk) in segment.rows() {
                let Some(sum) = sums.get_mut(row) else {
                    return Err(FsmError::corrupt_artifact(
                        file_label(path),
                        format!("a run holds row {row}, outside the {rows} rows"),
                    ));
                };
                let ones = chunk.count_ones();
                *sum += ones;
                ledger.push((row, ones));
            }
            each(entry.batch_id, segment, ledger)
        })?;
        if let Some(row) = (0..rows).find(|&row| sums[row] != ckpt.supports[row]) {
            return Err(FsmError::corrupt_artifact(
                file_label(path),
                format!(
                    "row {row}'s segments hold {} ones, its support counter says {}",
                    sums[row], ckpt.supports[row]
                ),
            ));
        }
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
    /// [`DsMatrix::capture_stats`] counters prove it.  Any edge id is
    /// accepted: the window grows a row for it ([`DsMatrix::ingest`] bounds
    /// them).
    ///
    /// On a durable matrix the batch is first appended to the WAL and
    /// `fsync`ed — only then is any in-memory or segment state mutated
    /// (write-ahead protocol).  Every `checkpoint_every` slides the apply
    /// step also writes a checkpoint, prunes the WAL prefix the *older*
    /// retained checkpoint covers, and releases evicted segment files that
    /// no retained checkpoint references any more for later pushes to
    /// overwrite.
    pub fn ingest_batch(&mut self, batch: &Batch) -> Result<SlideOutcome> {
        self.ingest(Incoming::Batch(batch), usize::MAX)
    }

    /// [`DsMatrix::ingest_batch`] for a batch in either form, refusing any
    /// edge id at or past `edge_limit`.
    ///
    /// One scan of the batch checks it and transposes it into scratch: a
    /// malformed payload is refused as [`crate::decode_batch`] refuses it
    /// ([`FsmError::CorruptArtifact`] naming the "wal batch payload"), and
    /// a well-formed batch naming an edge id at or past `edge_limit` with
    /// [`FsmError::UnknownEdge`].  A refused batch leaves the window and the
    /// WAL untouched.  A durable matrix then logs the batch — the received
    /// payload bytes themselves, or a built batch encoded in that layout —
    /// and only then applies it, moving the transposed segment into the
    /// store.
    pub fn ingest(&mut self, incoming: Incoming<'_>, edge_limit: usize) -> Result<SlideOutcome> {
        self.rebalance_cache_budget();
        let (id, cols) = self.transposer.fill(incoming, edge_limit)?;
        if let Some(durable) = &mut self.durable {
            let seq = durable.applied_seq + 1;
            let record = match incoming {
                Incoming::Encoded(payload) => payload,
                Incoming::Batch(batch) => {
                    durable.record.clear();
                    encode_batch_into(batch, &mut durable.record);
                    &durable.record
                }
            };
            durable.wal.append(seq, record)?;
        }
        self.apply_transposed(id, cols)
    }

    /// Applies the batch the transposer holds as batch `batch_id` of `cols`
    /// columns, building its segment in the arena the store recycles.
    /// Recovery replays WAL records through [`Transposer::fill`] and this.
    fn apply_transposed(&mut self, batch_id: BatchId, cols: usize) -> Result<SlideOutcome> {
        // Moved out for the call so it can be read beside `&mut self`.
        let transposer = std::mem::take(&mut self.transposer);
        let outcome = self.apply_segment(batch_id, cols, |arena| transposer.build(arena));
        self.transposer = transposer;
        outcome
    }

    /// The post-transposition half of an ingest: slides the window by one
    /// segment of `cols` columns as batch `batch_id`, the segment built by
    /// `build` in the arena of the segment the slide evicts (when no reader
    /// holds it any more).  [`DsMatrix::apply_transposed`] builds it from a
    /// transposed batch, and [`DsMatrix::thaw`] hands over the decoded
    /// segments of a spill image, so a thawed window is rebuilt by the very
    /// steps that built it.
    fn apply_segment(
        &mut self,
        batch_id: BatchId,
        cols: usize,
        build: impl FnOnce(Vec<u64>) -> Result<EpochSegment>,
    ) -> Result<SlideOutcome> {
        let outcome = self.window.push(batch_id, cols);
        let mut entering = Vec::new();
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
            entering = self
                .segment_ones
                .pop_front()
                .ok_or_else(|| FsmError::corrupt("segment bookkeeping out of sync"))?;
            for &(row, ones) in &entering {
                self.supports[row] -= ones;
            }
        }
        let segment = build(self.store.recycled_arena())?;
        debug_assert_eq!(segment.cols(), cols);

        // Grow the domain to cover the segment's rows.
        let row_bound = segment.rows().last().map_or(0, |(row, _)| row + 1);
        self.num_items = self.num_items.max(row_bound);
        if self.supports.len() < self.num_items {
            self.supports.resize(self.num_items, 0);
        }
        // What the segment adds to the support counters, touching only the
        // rows it holds — and what an eventual eviction must undo (in the
        // evicted segment's list, reused).
        entering.clear();
        entering.extend(segment.rows().map(|(id, chunk)| (id, chunk.count_ones())));

        self.store.push(segment)?;

        for &(id, ones) in &entering {
            self.supports[id] += ones;
        }
        self.segment_ones.push_back(entering);
        self.num_cols += cols;
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

    /// Writes this window in its one cold form — a [`Checkpoint`] plus the
    /// segment runs it references — the backend-agnostic half of tenant
    /// spill-to-disk.  A durable matrix already keeps its runs under its
    /// durable root, so it writes a checkpoint and leaves `spill_dir`
    /// untouched.  A non-durable one (memory backend, or disk segments in a
    /// self-cleaning temp directory) pushes each live segment's chunks into
    /// a fresh disk store under [`DsMatrix::spill_image`]`(spill_dir)` —
    /// overwriting the runs of a previous image, unlinking those left over
    /// — then writes one checkpoint over them.  That checkpoint is the one
    /// `fsync`: an image never outlives the process that spilled it.
    ///
    /// Either way, dropping the matrix afterwards releases its resident
    /// state — and its [`BudgetLease`], returning the cache grant to the
    /// governor for warm tenants to re-expand into.  [`DsMatrix::thaw`]
    /// rebuilds a byte-identical window.
    pub fn hibernate(&mut self, spill_dir: &Path) -> Result<()> {
        if self.durable.is_some() {
            return self.checkpoint();
        }
        let image = DurabilityConfig::new(Self::spill_image(spill_dir));
        // The old checkpoint goes before any run is rewritten: at no point
        // does a checkpoint describe runs it did not cover.
        Checkpoint::prune_keeping(&image.dir, 0)?;
        let mut store = SegmentedWindowStore::open(StorageBackend::DiskAt(image.segments_dir()))?;
        let snapshot = self.snapshot_epoch()?;
        for segment in snapshot.segments() {
            store.push(EpochSegment::clone(segment))?;
        }
        store.remove_spares()?;
        self.checkpoint_of(store.live_uids(), 0, store.next_segment_id())?
            .write(&image.dir)?;
        Ok(())
    }

    /// A non-durable window's spill image: `spill_dir/image/`, laid out like
    /// a durable directory without its WAL.  No durable directory has an
    /// entry of that name, so a spill root aliased to a durable root keeps
    /// the two apart.
    pub fn spill_image(spill_dir: &Path) -> PathBuf {
        spill_dir.join("image")
    }

    /// Rebuilds a hibernated window.
    ///
    /// Durable configurations recover ([`DsMatrix::recover`]).  Non-durable
    /// ones load [`DsMatrix::spill_image`]`(spill_dir)` with recovery's own
    /// loader — each run read once, and its ledger checked against the
    /// checkpoint's support counters — and feed each decoded segment
    /// through the ingest path's post-transposition half, rebuilding
    /// segments and support counters exactly as the original ingests did.
    /// The runs the load read count in [`ReadStats::pages_read`].  A fresh
    /// [`BudgetLease`] is registered when the config carries a governor.
    ///
    /// The corrupt-artifact discipline matches recovery: a damaged image
    /// fails with [`FsmError::CorruptArtifact`] naming the damaged file, and
    /// the proven-corrupt image is deleted so the tenant can be dropped and
    /// recreated cleanly instead of silently serving a different window.
    pub fn thaw(config: DsMatrixConfig, spill_dir: &Path) -> Result<Self> {
        if config.durability.is_some() {
            return Self::recover(config);
        }
        let image = DurabilityConfig::new(Self::spill_image(spill_dir));
        let path = image.dir.join(Checkpoint::file_name(0));
        let mut matrix = Self::new(config.clone())?;
        let loaded = Self::load_cold(&image, &path, &config, |batch_id, segment, _| {
            matrix.apply_segment(batch_id, segment.cols(), |_| Ok(segment))?;
            Ok(())
        });
        match loaded {
            Ok((ckpt, store)) => {
                matrix.num_items = matrix.num_items.max(ckpt.supports.len());
                matrix.supports.resize(matrix.num_items, 0);
                matrix.read_stats.pages_read = store.runs_read();
                Ok(matrix)
            }
            Err(err) => {
                if is_corruption(&err) {
                    // Same discipline as recovery's checkpoint walk: a
                    // proven-corrupt image is removed so it cannot poison a
                    // later attempt; transient I/O errors leave it in place.
                    let _ = std::fs::remove_dir_all(&image.dir);
                }
                Err(err)
            }
        }
    }

    /// The [`Checkpoint`] of the current window over the runs `uids` names
    /// (one per live segment, oldest first): its support counters, and each
    /// segment's run with its batch id and columns.
    fn checkpoint_of(&self, uids: Vec<u64>, last_seq: u64, next_uid: u64) -> Result<Checkpoint> {
        if uids.len() != self.window.num_batches() {
            return Err(FsmError::corrupt(
                "segment/window bookkeeping out of sync at checkpoint",
            ));
        }
        let segments = uids
            .into_iter()
            .zip(self.window.batches())
            .map(|(uid, (batch_id, cols))| CheckpointSegment {
                uid,
                batch_id,
                cols: cols as u64,
            })
            .collect();
        Ok(Checkpoint {
            last_seq,
            next_uid,
            window_batches: self.window.config().window_batches() as u64,
            supports: self.supports[..self.num_items].to_vec(),
            segments,
        })
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
        let last_seq = durable.applied_seq;

        // 2. Name the live runs and record the support counters.  Each run
        //    holds its own row ids and chunks — a checkpoint copies nothing
        //    a run holds.
        let checkpoint = self.checkpoint_of(
            self.store.live_uids(),
            last_seq,
            self.store.next_segment_id(),
        )?;
        let durable = self
            .durable
            .as_mut()
            .expect("write_checkpoint on a non-durable matrix");

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
    /// count the rows materialised and their words, once.  Resident
    /// segments are read in place — on the memory backend all of them; on
    /// the disk backends those the [`DsMatrixConfig::cache_budget_bytes`]
    /// budget holds, whose chunks count as `cache_hits` — and every other
    /// segment is read from its run once (`pages_read`).  The budget buys
    /// decodes, never assembly: with a budget covering the window a view
    /// reads no run; with a smaller one, whatever fitted first keeps being
    /// served and each segment that did not is read once; with `0` (the
    /// default) every segment is re-read from disk on every call — once,
    /// however many rows it holds.  The rows a view assembled stay until
    /// [`DsMatrix::trim_cache`].  Direct callers that keep taking views
    /// reuse the row allocations; the `StreamMiner` facade instead calls
    /// [`DsMatrix::trim_cache`] after each mine.
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
    /// Cost: the snapshot shares the store's resident segments (`Arc` clones
    /// plus a copy of the support counters) — on the memory backend all of
    /// them.  On the disk backends a segment the budget does not hold is
    /// decoded from its run for this snapshot
    /// ([`fsm_storage::SegmentedWindowStore::epoch_segment`]) and owned by it
    /// alone, outside the budget, until the snapshot is dropped.  Each call
    /// builds a new snapshot, and the matrix keeps none of them: epochs are
    /// reclaimed by plain `Arc` drops alone — a slide,
    /// [`DsMatrix::set_cache_budget`] or a later mine never invalidates a
    /// held snapshot.
    pub fn snapshot_epoch(&mut self) -> Result<Arc<EpochSnapshot>> {
        let mut segments = Vec::with_capacity(self.store.num_segments());
        for seg in 0..self.store.num_segments() {
            segments.push(self.store.epoch_segment(seg)?);
        }
        debug_assert!(self.supports.len() >= self.num_items);
        Ok(Arc::new(EpochSnapshot::new(
            self.store.generation(),
            self.window.num_batches(),
            self.window.newest(),
            segments,
            self.supports[..self.num_items].to_vec(),
            self.num_items,
            self.num_cols,
        )))
    }

    /// Cumulative read-path cost counters (words assembled, segment runs
    /// read and chunks served from resident segments).
    /// Differencing `words_assembled` across a mine call measures that
    /// call's assembly cost; differencing `pages_read` measures its disk
    /// read amplification.
    pub fn read_stats(&self) -> ReadStats {
        let mut stats = self.read_stats;
        stats.pages_read += self.store.runs_read();
        stats.cache_hits = self.store.resident_hits();
        if let Some(durable) = &self.durable {
            let wal = durable.wal.stats();
            stats.wal_bytes_written = wal.bytes_written;
            stats.fsyncs = wal.fsyncs + durable.extra_fsyncs;
            stats.checkpoint_bytes = durable.checkpoint_bytes;
            stats.recovery_replayed_batches = durable.recovery_replayed;
        }
        stats
    }

    /// The byte budget of resident decoded segments on the disk backends
    /// (zero when none are kept, and on the memory backend).
    pub fn cache_budget(&self) -> usize {
        self.store.cache_budget()
    }

    /// Re-budgets the disk backends' resident segments (a shrink drops the
    /// oldest until the rest fit; no-op on the memory backend).  Exposed so
    /// long-lived matrices can be re-tuned without rebuilding the window.
    pub fn set_cache_budget(&mut self, budget_bytes: usize) {
        self.desired_cache_budget = budget_bytes;
        self.store
            .set_cache_budget(Self::granted(&self.lease, budget_bytes));
    }

    /// Frees the flat rows [`DsMatrix::view`] materialised — those some
    /// live segment held; the others were never allocated.  Resident
    /// segments are untouched, so the next view re-reads only what the
    /// budget does not hold.
    ///
    /// The facade calls this after every full mine — through an RAII guard,
    /// so it also runs when mining errors or panics — so that between mines
    /// the window is held once: in its segments (on the memory backend) or
    /// on disk, plus bookkeeping and at most the residency budget.
    pub fn trim_cache(&mut self) {
        self.rows = Vec::new();
    }

    /// Reconstructs one window transaction (one column read downwards).
    ///
    /// Reads only the *owning segment* — once, with the chunks of the rows
    /// that batch touched — instead of assembling every row of the matrix,
    /// so the cost is `O(rows in the segment)` rather than
    /// `O(edges × window)`.
    pub fn column(&mut self, column: usize) -> Result<Transaction> {
        let (seg, offset) = self.store.locate_column(column).ok_or_else(|| {
            FsmError::corrupt(format!(
                "column {column} out of range ({} transactions in window)",
                self.num_cols
            ))
        })?;
        let segment = self.store.epoch_segment(seg)?;
        let mut edges = Vec::new();
        for (id, chunk) in segment.rows() {
            if chunk.get(offset) {
                edges.push(EdgeId::new(id as u32));
            }
            // Same unit as every other increment: 64-bit words of the
            // materialised payload (a chunk here, not a full row, so
            // `rows_assembled` is deliberately not ticked).
            self.read_stats.words_assembled += words_of(chunk.len());
        }
        Ok(Transaction::from_edges(edges))
    }

    /// Bytes resident in main memory: window bookkeeping, the reused chunk
    /// buffers, the support counters, the rows of a view not yet trimmed,
    /// plus the resident segments — on the memory backend every segment's
    /// payload, on the disk backends at most the residency budget.
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

/// A checkpoint's name in errors and recovery reports: its file name.
fn file_label(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

/// Whether `err` proves an artifact damaged (as opposed to a transient I/O
/// failure or a configuration mismatch, which must not delete anything).
fn is_corruption(err: &FsmError) -> bool {
    matches!(
        err,
        FsmError::CorruptArtifact { .. } | FsmError::CorruptStructure(_)
    )
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
            .map(|(row, words)| {
                let chunk = fsm_storage::BitSlice::new(words, t.cols).expect("a clean chunk");
                (row, bit_string(&chunk.to_bitvec()))
            })
            .collect()
    }

    fn fill(t: &mut Transposer, batch: &Batch) {
        t.fill(Incoming::Batch(batch), usize::MAX).unwrap();
    }

    #[test]
    fn transposer_reads_back_ascending_whatever_the_touch_order() {
        let e = |raw: &[u32]| Transaction::from_raw(raw.iter().copied());
        let mut t = Transposer::default();
        fill(
            &mut t,
            &Batch::from_transactions(0, vec![e(&[2, 5]), e(&[0, 2]), e(&[5])]),
        );
        assert_eq!(t.rows().last().map_or(0, |(row, _)| row + 1), 6);
        assert_eq!(
            transposed(&t),
            [(0, "010".into()), (2, "110".into()), (5, "101".into())]
        );
        // An empty batch touches nothing.
        fill(&mut t, &Batch::from_transactions(1, Vec::new()));
        assert_eq!(t.rows().last().map_or(0, |(row, _)| row + 1), 0);
        assert!(transposed(&t).is_empty());
    }

    #[test]
    fn transposer_begin_resets_an_abandoned_fill() {
        // A failed `push` returns from the ingest with the batch transposed
        // and nobody left to release it, and a payload refused halfway
        // leaves a block half ORed.  The next batch must not inherit a bit,
        // a row or a width from either.
        let wide = |id| {
            let full = Transaction::from_raw([1, 4, 9]);
            let mut transactions = vec![Transaction::from_raw([]); 70];
            transactions[0] = full.clone();
            transactions[69] = full;
            Batch::from_transactions(id, transactions)
        };
        let e = |raw: &[u32]| Transaction::from_raw(raw.iter().copied());
        let mut t = Transposer::default();
        fill(&mut t, &wide(0));
        // Abandoned: nothing read it back.  Then a payload cut short inside
        // its first block, after rows 2 and 3 got a bit.
        let mut cut =
            crate::encode_batch(&Batch::from_transactions(1, vec![e(&[2, 3]), e(&[3, 8])]));
        cut.pop();
        let err = t.fill(Incoming::Encoded(&cut), usize::MAX).unwrap_err();
        assert!(matches!(err, FsmError::CorruptArtifact { .. }), "{err}");
        fill(
            &mut t,
            &Batch::from_transactions(1, vec![e(&[]), e(&[7]), e(&[]), e(&[3, 4]), e(&[])]),
        );
        assert_eq!(t.rows().last().map_or(0, |(row, _)| row + 1), 8);
        assert_eq!(
            transposed(&t),
            [
                (3, "00010".into()),
                (4, "00010".into()),
                (7, "01000".into())
            ],
            "only the new batch's rows, zeroed, at the new width"
        );
        // The abandoned batches' buffers were recycled, not leaked or grown.
        assert_eq!(t.words.len(), 3);
        let before = t.heap_bytes();
        fill(&mut t, &wide(2));
        assert_eq!(t.heap_bytes(), before);
        assert!(t
            .rows()
            .all(|(_, words)| words.iter().map(|w| w.count_ones()).sum::<u32>() == 2));
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
        let mut rows = std::collections::BTreeMap::new();
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
            fill(&mut t, &batch);
            let expected = per_bit_reference(&batch);
            assert_eq!(transposed(&t), expected, "{cols} columns");
            assert_eq!(
                t.rows().last().map_or(0, |(row, _)| row + 1),
                if cols == 0 { 0 } else { 41 }
            );
            for (_, words) in t.rows() {
                assert_eq!(words.len(), cols.div_ceil(WORD_BITS));
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
        // The same stream through a budget-0 and a budgeted disk matrix:
        // rows stay byte-identical at every step and both assemble the same
        // words — the budget buys decodes, never assembly — but the budgeted
        // matrix, which keeps each segment resident from its push, never
        // reads a run at all, while budget 0 re-reads the whole window on
        // every view: each segment once.
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
            // An unlimited budget holds every segment from the moment it was
            // written — cold or steady, a view is served from memory.
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
        // A budget that holds one of the window's segments but not both:
        // resident chunks and a run read coexist in one view, and every row
        // agrees with the eager ground truth.  Each segment's chunks are one
        // word (24 bytes charged): the 150 bytes hold batch 0's five rows,
        // refuse batch 1's six, and after the slide frees batch 0's room,
        // admit batch 2's five.
        let mut m = DsMatrix::new(
            DsMatrixConfig::new(WindowConfig::new(2).unwrap(), StorageBackend::DiskTemp, 6)
                .with_cache_budget(150),
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
        // second: in both, batch 2's five chunks are served and batch 1's
        // run is read.
        assert_eq!(per_view, [(5, 1), (5, 1)], "nothing moves between views");
    }

    /// Per live segment, oldest first, the rows it holds a chunk for, from
    /// the support ledger (reading it counts nothing).
    fn segment_rows(m: &DsMatrix) -> Vec<Vec<usize>> {
        m.segment_ones
            .iter()
            .map(|ledger| ledger.iter().map(|&(row, _)| row).collect())
            .collect()
    }

    /// Chunks the live window holds.
    fn window_chunks(m: &DsMatrix) -> u64 {
        segment_rows(m).iter().map(|rows| rows.len() as u64).sum()
    }

    /// Distinct rows some live segment holds a chunk for.
    fn held_rows(m: &DsMatrix) -> u64 {
        segment_rows(m)
            .into_iter()
            .flatten()
            .collect::<BTreeSet<usize>>()
            .len() as u64
    }

    #[test]
    fn a_disk_view_looks_each_chunk_up_once() {
        // Per view each chunk the window holds is either served from its
        // resident segment or decoded from its segment's run — never both,
        // never neither — and each segment not resident costs one run read,
        // whether the budget holds part of the window or all of it, cold or
        // steady.
        for budget in [150, usize::MAX] {
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
                let chunks: Vec<u64> = segment_rows(&m)
                    .iter()
                    .map(|rows| rows.len() as u64)
                    .collect();
                for pass in 0..2 {
                    let before = m.read_stats();
                    m.view().unwrap();
                    m.trim_cache();
                    let after = m.read_stats();
                    let hits = after.cache_hits - before.cache_hits;
                    let reads = after.pages_read - before.pages_read;
                    // Some set of whole segments was served, and each of the
                    // others was read once.
                    let split = (0..1u32 << chunks.len()).any(|served| {
                        let (mut sum, mut read) = (0, 0);
                        for (seg, &n) in chunks.iter().enumerate() {
                            if served & (1 << seg) != 0 {
                                sum += n;
                            } else {
                                read += 1;
                            }
                        }
                        (sum, read) == (hits, reads)
                    });
                    assert!(
                        split,
                        "budget {budget}, round {round}, pass {pass}: {hits} chunks served \
                         and {reads} runs read over segments of {chunks:?} chunks"
                    );
                }
            }
            assert!(m.read_stats().cache_hits > 0, "budget {budget}");
        }
    }

    /// A disk snapshot is held to the budget: what the store keeps decoded
    /// after a snapshot is at most the residency budget, and a segment the
    /// budget does not hold lives only as long as the snapshot references
    /// it.
    #[test]
    fn a_disk_snapshot_keeps_no_more_decoded_than_the_budget() {
        let window = 5;
        let fill = |budget: usize| {
            let mut m = DsMatrix::new(
                DsMatrixConfig::new(
                    WindowConfig::new(window).unwrap(),
                    StorageBackend::DiskTemp,
                    6,
                )
                .with_cache_budget(budget),
            )
            .unwrap();
            for round in 0..window as u64 {
                let pattern = paper_batches()[(round % 3) as usize].clone();
                m.ingest_batch(&Batch::from_transactions(
                    round,
                    pattern.iter().cloned().collect(),
                ))
                .unwrap();
            }
            m
        };
        // Budget 0: the snapshot decodes every segment, and the store keeps
        // none of it.
        let mut zero = fill(0);
        let baseline = zero.resident_bytes();
        let snapshot = zero.snapshot_epoch().unwrap();
        let probes: Vec<_> = snapshot.segments().iter().map(Arc::downgrade).collect();
        assert_eq!(probes.len(), window);
        drop(snapshot);
        assert_eq!(zero.resident_bytes(), baseline);
        // No segment of it survives the snapshot, though all are still in
        // the window.
        assert!(probes.iter().all(|probe| probe.upgrade().is_none()));

        // Whatever the snapshot decoded, the store keeps at most the budget
        // more than budget 0 does.
        for budget in [150, 300, usize::MAX] {
            let mut m = fill(budget);
            let mut zero = fill(0);
            let snapshot = m.snapshot_epoch().unwrap();
            zero.snapshot_epoch().unwrap();
            let decoded = m.resident_bytes() - zero.resident_bytes();
            assert!(
                decoded <= budget,
                "budget {budget}: {decoded} bytes kept decoded"
            );
            if budget == usize::MAX {
                let held: usize = snapshot.segments().iter().map(|s| s.heap_bytes()).sum();
                assert_eq!(decoded, held, "a covering budget keeps the whole window");
            }
        }
    }

    /// The matrix keeps no snapshot of its own: what a disk snapshot decoded
    /// outside a zero budget is freed with the last `Arc` its readers drop,
    /// with no ingest needed to let it go.
    #[test]
    fn a_dropped_disk_snapshot_frees_what_it_decoded() {
        let mut m = DsMatrix::new(DsMatrixConfig::new(
            WindowConfig::new(2).unwrap(),
            StorageBackend::DiskTemp,
            6,
        ))
        .unwrap();
        m.ingest_batch(&paper_batches()[0]).unwrap();
        let snapshot = m.snapshot_epoch().unwrap();
        let probe = Arc::downgrade(&snapshot.segments()[0]);
        drop(snapshot);
        assert!(probe.upgrade().is_none());
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
