//! Window-slide semantics and cost of the incremental (segmented) DSMatrix.
//!
//! The incremental capture path must be observationally identical to the old
//! full-rewrite implementation — every row of the live window reads back bit
//! for bit as if each slide had rewritten the whole matrix — while writing
//! only `O(rows touched by the batch + evicted columns)`.  A shadow model
//! (the window's batches replayed naively) pins the semantics; the
//! [`DsMatrix::capture_stats`] word counter pins the cost.

use std::collections::VecDeque;

use fsm_dsmatrix::{DsMatrix, DsMatrixConfig, DurabilityConfig};
use fsm_storage::{StorageBackend, TempDir};
use fsm_stream::WindowConfig;
use fsm_types::{Batch, BatchId, EdgeId, FsmError, Support, Transaction};
use proptest::prelude::*;

fn batch(id: u64, transactions: &[&[u32]]) -> Batch {
    Batch::from_transactions(
        id,
        transactions
            .iter()
            .map(|t| Transaction::from_raw(t.iter().copied()))
            .collect(),
    )
}

fn matrix(window: usize, backend: StorageBackend, expected: usize) -> DsMatrix {
    DsMatrix::new(DsMatrixConfig::new(
        WindowConfig::new(window).unwrap(),
        backend,
        expected,
    ))
    .unwrap()
}

/// A naive full-rewrite reference: retains the window's batches and rebuilds
/// every row from scratch on demand.
#[derive(Default)]
struct ShadowMatrix {
    window: usize,
    batches: VecDeque<Batch>,
    num_items: usize,
}

impl ShadowMatrix {
    fn new(window: usize, expected: usize) -> Self {
        Self {
            window,
            batches: VecDeque::new(),
            num_items: expected,
        }
    }

    fn ingest(&mut self, batch: &Batch) {
        if self.batches.len() == self.window {
            self.batches.pop_front();
        }
        let max_edge = batch
            .iter()
            .flat_map(|t| t.iter())
            .map(|e| e.index() + 1)
            .max()
            .unwrap_or(0);
        self.num_items = self.num_items.max(max_edge);
        self.batches.push_back(batch.clone());
    }

    fn row_string(&self, item: u32) -> String {
        let edge = EdgeId::new(item);
        self.batches
            .iter()
            .flat_map(|b| b.iter())
            .map(|t| if t.contains(edge) { '1' } else { '0' })
            .collect()
    }

    fn num_cols(&self) -> usize {
        self.batches.iter().map(|b| b.len()).sum()
    }
}

fn row_string(m: &mut DsMatrix, item: u32) -> String {
    let row = m.row(EdgeId::new(item)).unwrap();
    (0..row.len())
        .map(|i| if row.get(i) { '1' } else { '0' })
        .collect()
}

/// Asserts that every row (including a few beyond the live domain) matches
/// the shadow model.
fn assert_matches_shadow(m: &mut DsMatrix, shadow: &ShadowMatrix) {
    assert_eq!(m.num_transactions(), shadow.num_cols());
    for item in 0..(shadow.num_items as u32 + 2) {
        assert_eq!(
            row_string(m, item),
            shadow.row_string(item),
            "row {item} diverged from full-rewrite semantics"
        );
    }
}

#[test]
fn batch_larger_than_the_rest_of_the_window() {
    for backend in [StorageBackend::Memory, StorageBackend::DiskTemp] {
        let mut m = matrix(2, backend, 3);
        let mut shadow = ShadowMatrix::new(2, 3);
        let batches = [
            batch(0, &[&[0]]),
            // One batch holding more transactions than everything else the
            // window has seen.
            batch(1, &[&[0, 1], &[1], &[0, 2], &[2], &[0, 1, 2]]),
            batch(2, &[&[1]]),
        ];
        for b in &batches {
            m.ingest_batch(b).unwrap();
            shadow.ingest(b);
            assert_matches_shadow(&mut m, &shadow);
        }
        // After the slide the big batch dominates the window.
        assert_eq!(m.num_transactions(), 6);
        assert_eq!(m.boundaries(), vec![5, 6]);
    }
}

#[test]
fn empty_batches_slide_without_contributing_columns() {
    let mut m = matrix(2, StorageBackend::Memory, 2);
    let mut shadow = ShadowMatrix::new(2, 2);
    let batches = [
        batch(0, &[&[0], &[1]]),
        batch(1, &[]),
        batch(2, &[&[0, 1]]),
        batch(3, &[]),
    ];
    for b in &batches {
        let outcome = m.ingest_batch(b).unwrap();
        shadow.ingest(b);
        assert_matches_shadow(&mut m, &shadow);
        if b.id == 3 {
            // Evicting the empty batch 1 removes a zero-column segment.
            assert_eq!(outcome.evicted, Some((1, 0)));
        }
    }
    assert_eq!(m.num_transactions(), 1, "batch 2's single column remains");
    assert_eq!(m.num_batches(), 2);
}

#[test]
fn domain_growth_mid_stream_pads_old_columns() {
    for backend in [StorageBackend::Memory, StorageBackend::DiskTemp] {
        let mut m = matrix(3, backend, 0);
        let mut shadow = ShadowMatrix::new(3, 0);
        let batches = [
            batch(0, &[&[0]]),
            batch(1, &[&[5], &[5, 9]]),
            batch(2, &[&[0, 9, 31]]),
        ];
        for b in &batches {
            m.ingest_batch(b).unwrap();
            shadow.ingest(b);
            assert_matches_shadow(&mut m, &shadow);
        }
        assert_eq!(m.num_items(), 32);
        // Rows born in the last batch read as zeros over the earlier columns.
        assert_eq!(row_string(&mut m, 31), "0001");
    }
}

#[test]
fn eviction_of_exactly_one_full_batch() {
    let mut m = matrix(2, StorageBackend::Memory, 3);
    let mut shadow = ShadowMatrix::new(2, 3);
    let batches = [
        batch(0, &[&[0], &[1], &[2]]),
        batch(1, &[&[0, 1]]),
        batch(2, &[&[2], &[2]]),
    ];
    m.ingest_batch(&batches[0]).unwrap();
    shadow.ingest(&batches[0]);
    m.ingest_batch(&batches[1]).unwrap();
    shadow.ingest(&batches[1]);
    assert_eq!(m.capture_stats().segments_dropped, 0);

    // The third batch evicts batch 0 — exactly its three columns, no more.
    let outcome = m.ingest_batch(&batches[2]).unwrap();
    shadow.ingest(&batches[2]);
    assert_eq!(outcome.evicted, Some((0, 3)));
    assert_eq!(m.capture_stats().segments_dropped, 1);
    assert_matches_shadow(&mut m, &shadow);
    assert_eq!(m.num_transactions(), 3);
}

/// Everything a caller reads of a window: `(batches, boundaries,
/// transactions, newest batch)`, every row, the singleton supports, and an
/// epoch snapshot's `(batches, segments, transactions)`.
#[derive(Debug, PartialEq)]
struct Observed {
    shape: (usize, Vec<usize>, usize, Option<BatchId>),
    rows: Vec<String>,
    supports: Vec<(EdgeId, Support)>,
    snapshot: (usize, usize, usize),
}

fn observe(m: &mut DsMatrix, rows: u32) -> Observed {
    let shape = (
        m.num_batches(),
        m.boundaries(),
        m.num_transactions(),
        m.last_batch_id(),
    );
    let rows = (0..rows).map(|item| row_string(m, item)).collect();
    let supports = m.view().unwrap().singleton_supports();
    m.trim_cache();
    let snapshot = m.snapshot_epoch().unwrap();
    Observed {
        shape,
        rows,
        supports,
        snapshot: (
            snapshot.batches(),
            snapshot.segments().len(),
            snapshot.num_transactions(),
        ),
    }
}

/// A slide writes the entering segment's run before it evicts anything, so
/// a write that fails — here because the segment directory vanished —
/// refuses the batch and leaves the window exactly as it was: no batch
/// recorded that was never stored, no columns lost, and once the directory
/// is back the window goes on as if the refused batch had never come.
#[test]
fn a_refused_segment_write_leaves_no_phantom_batch() {
    let dir = TempDir::new("phantom-batch").unwrap();
    let segments = dir.file("segments");
    let mut m = matrix(2, StorageBackend::DiskAt(segments.clone()), 4);
    let batches = [
        batch(0, &[&[0, 1]]),
        batch(1, &[&[1, 2]]),
        batch(2, &[&[0], &[3]]),
        batch(3, &[&[2, 3]]),
        batch(4, &[&[0, 3]]),
    ];
    m.ingest_batch(&batches[0]).unwrap();
    m.ingest_batch(&batches[1]).unwrap();
    let before = observe(&mut m, 4);
    assert_eq!(before.shape, (2, vec![1, 2], 2, Some(1)));

    std::fs::remove_dir_all(&segments).unwrap();
    let err = m.ingest_batch(&batches[2]).unwrap_err();
    assert!(matches!(err, FsmError::Io(_)), "{err}");
    assert_eq!(
        observe(&mut m, 4),
        before,
        "the refused batch moved the window"
    );

    std::fs::create_dir_all(&segments).unwrap();
    let mut reference = matrix(2, StorageBackend::Memory, 4);
    for b in [&batches[0], &batches[1], &batches[3], &batches[4]] {
        reference.ingest_batch(b).unwrap();
    }
    m.ingest_batch(&batches[3]).unwrap();
    m.ingest_batch(&batches[4]).unwrap();
    let after = observe(&mut m, 4);
    assert_eq!(after.shape, (2, vec![1, 2], 2, Some(4)));
    assert_eq!(after, observe(&mut reference, 4));
}

/// The durable twin: a durable ingest writes its run before it appends its
/// WAL record, so a refused write logs nothing.  The log is not wedged —
/// the next ingests take the sequence number the refused one would have —
/// and recovery returns the window the client was told about, not one
/// holding the refused batch.
#[test]
fn a_refused_durable_segment_write_is_neither_logged_nor_recovered() {
    let dir = TempDir::new("phantom-durable").unwrap();
    let config = DsMatrixConfig::new(WindowConfig::new(2).unwrap(), StorageBackend::DiskTemp, 4)
        .with_durability(DurabilityConfig::new(dir.path()).with_checkpoint_every(100));
    let segments = config.durability.as_ref().unwrap().segments_dir();
    let mut m = DsMatrix::new(config.clone()).unwrap();
    let batches = [
        batch(0, &[&[0, 1]]),
        batch(1, &[&[1, 2]]),
        batch(2, &[&[0], &[3]]),
        batch(3, &[&[2, 3]]),
        batch(4, &[&[0, 3]]),
    ];
    m.ingest_batch(&batches[0]).unwrap();
    m.ingest_batch(&batches[1]).unwrap();
    let before = observe(&mut m, 4);

    std::fs::remove_dir_all(&segments).unwrap();
    let err = m.ingest_batch(&batches[2]).unwrap_err();
    assert!(matches!(err, FsmError::Io(_)), "{err}");
    assert_eq!(
        observe(&mut m, 4),
        before,
        "the refused batch moved the window"
    );

    std::fs::create_dir_all(&segments).unwrap();
    m.ingest_batch(&batches[3]).unwrap();
    m.ingest_batch(&batches[4]).unwrap();
    let mut reference = matrix(2, StorageBackend::Memory, 4);
    for b in [&batches[0], &batches[1], &batches[3], &batches[4]] {
        reference.ingest_batch(b).unwrap();
    }
    let expected = observe(&mut reference, 4);
    assert_eq!(observe(&mut m, 4), expected);
    drop(m);

    let mut recovered = DsMatrix::recover(config).unwrap();
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.replayed_batches, 4, "{report:?}");
    assert_eq!(observe(&mut recovered, 4), expected);
}

/// A checkpoint is written after its batch committed, so one that fails
/// does not fail the ingest: the batch is logged and applied, and a client
/// told otherwise would resend it.  The next ingest retries the checkpoint,
/// and recovery returns the live window.
#[test]
fn a_failed_automatic_checkpoint_leaves_the_ingest_committed() {
    let dir = TempDir::new("checkpoint-fails").unwrap();
    let config = DsMatrixConfig::new(WindowConfig::new(2).unwrap(), StorageBackend::DiskTemp, 4)
        .with_durability(DurabilityConfig::new(dir.path()).with_checkpoint_every(2));
    let mut m = DsMatrix::new(config.clone()).unwrap();
    let batches = [
        batch(0, &[&[0, 1]]),
        batch(1, &[&[1, 2]]),
        batch(2, &[&[0], &[3]]),
    ];
    // The second ingest's checkpoint cannot create its temp file.
    let blocker = dir.path().join("checkpoint-2.ckpt.tmp");
    std::fs::create_dir(&blocker).unwrap();
    m.ingest_batch(&batches[0]).unwrap();
    m.ingest_batch(&batches[1]).unwrap();
    assert!(!dir.path().join("checkpoint-2.ckpt").exists());
    // Asked for explicitly, the checkpoint still reports its failure.
    let err = m.checkpoint().unwrap_err();
    assert!(matches!(err, FsmError::Io(_)), "{err}");

    std::fs::remove_dir(&blocker).unwrap();
    m.ingest_batch(&batches[2]).unwrap();
    assert!(dir.path().join("checkpoint-3.ckpt").exists());

    let mut reference = matrix(2, StorageBackend::Memory, 4);
    for b in &batches {
        reference.ingest_batch(b).unwrap();
    }
    let expected = observe(&mut reference, 4);
    assert_eq!(observe(&mut m, 4), expected);
    drop(m);
    let mut recovered = DsMatrix::recover(config).unwrap();
    assert_eq!(observe(&mut recovered, 4), expected);
}

/// The WAL sequence numbers of the checkpoint files in `dir`, ascending.
fn checkpoint_files(dir: &std::path::Path) -> Vec<u64> {
    let mut seqs: Vec<u64> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.is_file())
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?;
            name.strip_prefix("checkpoint-")?
                .strip_suffix(".ckpt")?
                .parse()
                .ok()
        })
        .collect();
    seqs.sort_unstable();
    seqs
}

/// A checkpoint is retained the moment it is in place, before older ones
/// are pruned, and the prune is best-effort.  One that fails — here
/// because a directory squats on an old checkpoint's name — leaves the new
/// checkpoint named in the retained list, so the garbage collection keeps
/// every run it references, the ingest stays committed, and the next
/// checkpoint prunes what this one could not.  Recovery with the newest
/// checkpoint damaged then falls back to the older one on disk and reaches
/// the acknowledged window.
#[test]
fn a_failed_checkpoint_prune_still_retains_the_checkpoint() {
    let dir = TempDir::new("prune-fails").unwrap();
    let config = DsMatrixConfig::new(WindowConfig::new(2).unwrap(), StorageBackend::DiskTemp, 4)
        .with_durability(DurabilityConfig::new(dir.path()).with_checkpoint_every(2));
    let mut m = DsMatrix::new(config.clone()).unwrap();
    let batches: Vec<Batch> = (0..10u32)
        .map(|id| batch(u64::from(id), &[&[id % 4, (id + 1) % 4], &[(id + 2) % 4]]))
        .collect();
    // Older than every checkpoint the matrix writes, so every prune tries
    // to remove it, and `remove_file` fails on a directory.
    let squatter = dir.path().join("checkpoint-0.ckpt");
    std::fs::create_dir(&squatter).unwrap();
    for (i, b) in batches.iter().enumerate() {
        if i == 6 {
            std::fs::remove_dir(&squatter).unwrap();
        }
        m.ingest_batch(b).unwrap();
        assert_eq!(
            checkpoint_files(dir.path()),
            m.retained_checkpoints(),
            "after batch {i}: a checkpoint on disk is not retained"
        );
    }
    let retained = m.retained_checkpoints();
    assert_eq!(retained.len(), 2, "{retained:?}");

    let mut reference = matrix(2, StorageBackend::Memory, 4);
    for b in &batches[batches.len() - 2..] {
        reference.ingest_batch(b).unwrap();
    }
    let expected = observe(&mut reference, 4);
    assert_eq!(observe(&mut m, 4), expected);
    drop(m);

    let newest = dir.path().join(format!("checkpoint-{}.ckpt", retained[1]));
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&newest, bytes).unwrap();
    let mut recovered = DsMatrix::recover(config).unwrap();
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.checkpoint_seq, Some(retained[0]), "{report:?}");
    assert_eq!(observe(&mut recovered, 4), expected);
}

/// The acceptance criterion of the incremental store: a slide writes words
/// proportional to the entering batch, never to the unevicted window prefix.
#[test]
fn slide_cost_is_independent_of_window_size() {
    let wide_batch = |id: u64| {
        // 4 transactions over 8 fixed edges.
        batch(id, &[&[0, 1], &[2, 3], &[4, 5], &[6, 7]])
    };
    let mut words_per_slide = Vec::new();
    for window in [2usize, 8, 32] {
        let mut m = matrix(window, StorageBackend::Memory, 8);
        // Fill the window, then measure one steady-state slide.
        for id in 0..window as u64 + 1 {
            m.ingest_batch(&wide_batch(id)).unwrap();
        }
        let before = m.capture_stats().words_written;
        m.ingest_batch(&wide_batch(window as u64 + 1)).unwrap();
        let after = m.capture_stats().words_written;
        words_per_slide.push(after - before);
    }
    assert_eq!(
        words_per_slide[0], words_per_slide[2],
        "a 16x larger window must not change the write cost of a slide: {words_per_slide:?}"
    );

    // And the cost is exactly the touched rows' chunks: 8 rows, each one
    // 4-bit chunk (1 word) plus its length header (1 word).
    assert_eq!(words_per_slide[0], 16);
}

/// The old implementation rewrote `rows x window columns` on every slide;
/// the counter proves the incremental store beats that bound by the window
/// factor.
#[test]
fn total_writes_scale_with_the_stream_not_with_window_times_stream() {
    let window = 16usize;
    let batches: Vec<Batch> = (0..64u64)
        .map(|id| batch(id, &[&[(id % 8) as u32], &[((id + 3) % 8) as u32]]))
        .collect();
    let mut m = matrix(window, StorageBackend::Memory, 8);
    for b in &batches {
        m.ingest_batch(b).unwrap();
    }
    let words = m.capture_stats().words_written;
    // Full-rewrite accounting: every slide re-serialises 8 rows of up to 32
    // columns (1 word + header) => 64 slides x 8 rows x 2 words = 1024.
    // Incremental: 64 slides x (at most 2 touched rows) x 2 words = 256.
    assert!(
        words <= 256,
        "{words} words written — unevicted prefixes are being rewritten"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On arbitrary streams (uneven batches, empty batches, growing domain),
    /// the segmented matrix reads back exactly what a full rewrite would
    /// produce, on both storage backends.
    #[test]
    fn incremental_capture_matches_full_rewrite_semantics(
        raw in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::btree_set(0u32..12, 0..5)
                    .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
                0..4,
            ),
            1..8,
        ),
        window in 1usize..4,
    ) {
        for backend in [StorageBackend::Memory, StorageBackend::DiskTemp] {
            let mut m = matrix(window, backend, 0);
            let mut shadow = ShadowMatrix::new(window, 0);
            for (id, transactions) in raw.iter().enumerate() {
                let b = Batch::from_transactions(
                    id as u64,
                    transactions
                        .iter()
                        .map(|t| Transaction::from_raw(t.iter().copied()))
                        .collect(),
                );
                m.ingest_batch(&b).unwrap();
                shadow.ingest(&b);
                prop_assert_eq!(m.num_transactions(), shadow.num_cols());
                for item in 0..shadow.num_items as u32 {
                    prop_assert_eq!(
                        row_string(&mut m, item),
                        shadow.row_string(item),
                        "row {} after batch {}",
                        item,
                        id
                    );
                }
            }
        }
    }
}
