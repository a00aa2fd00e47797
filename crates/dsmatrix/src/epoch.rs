//! Epoch snapshots: owned, `Send + Sync` snapshots of the window that
//! readers mine while the writer keeps ingesting.
//!
//! [`crate::WindowView`] borrows the matrix, so a view and an ingest are
//! mutually exclusive on one `DsMatrix`.  An [`EpochSnapshot`] removes that
//! exclusion: [`crate::DsMatrix::snapshot_epoch`] returns an owned,
//! `Arc`-backed snapshot — the immutable per-batch segments (shared as
//! [`Arc<EpochSegment>`] handles with the store), the frozen singleton
//! support counters, and the window geometry of one **epoch** (one store
//! generation) — that any number of reader threads can hold and mine while
//! `ingest_batch` keeps appending and sliding on the writer side.
//!
//! # Ownership and reclamation
//!
//! A snapshot owns `Arc` handles to decoded segment data, not chunk-cache
//! entries and not borrows of the matrix:
//!
//! * on the **memory backend** the handles alias the live store segments —
//!   taking a snapshot copies nothing but the support counters;
//! * on the **disk backends** each segment is decoded once into an
//!   [`EpochSegment`] and memoised on the live segment
//!   ([`fsm_storage::SegmentedWindowStore::epoch_segment`]), so consecutive
//!   snapshots of a sliding window pay only for the segment that entered.
//!
//! Either way the `Arc`s are all that keeps an epoch alive: a window slide,
//! [`crate::DsMatrix::set_cache_budget`] or a later live view cannot
//! invalidate a held snapshot, and a popped segment's data is freed exactly
//! when the last snapshot referencing it drops (plain `Arc` reclamation — no
//! epoch registry to leak).  Segment *files* are governed separately by the
//! durable deferred-GC protocol; snapshots never read files.
//!
//! Mining a snapshot starts with [`EpochSnapshot::assemble_rows`] — every
//! row's chunks concatenated into one flat [`RowSnapshot`], exactly what a
//! live mine does on every backend — and reads it through
//! [`EpochSnapshot::view`], the same flat [`crate::WindowView`] the miners
//! consume everywhere else.  The copy belongs to the mine, not to the
//! snapshot: a held snapshot never grows, and each in-flight mine of it
//! holds one window's worth of rows until it returns.  Output is
//! byte-identical to a stop-the-world mine at the same epoch, property-tested
//! in `crates/core/tests/epoch_agreement.rs` under real concurrent slides.

use std::sync::Arc;

use fsm_storage::{BitVec, EpochSegment};
use fsm_types::{BatchId, Support};

use crate::snapshot::RowSnapshot;
use crate::view::WindowView;

/// An owned, immutable snapshot of one window epoch.
///
/// Built by [`crate::DsMatrix::snapshot_epoch`]; `Send + Sync`, so it can be
/// handed to another thread and mined there while the source matrix keeps
/// ingesting.  Two snapshots of the same epoch share their segment data (and
/// the matrix memoises the last one, so repeated calls without an intervening
/// ingest return the same `Arc`).
#[derive(Debug)]
pub struct EpochSnapshot {
    /// Store generation this snapshot froze (see
    /// [`fsm_storage::SegmentedWindowStore::generation`]).
    epoch: u64,
    /// Batches inside the window at the epoch.
    batches: usize,
    /// Newest batch id at the epoch (`None` for an empty window).
    last_batch_id: Option<BatchId>,
    /// The window's segments, oldest first, shared with the store (memory
    /// backend) or with its decode memo (disk backends).
    segments: Vec<Arc<EpochSegment>>,
    /// Frozen singleton supports: `supports[i]` is the popcount of item `i`'s
    /// window row at the epoch.
    supports: Vec<Support>,
    num_items: usize,
    num_cols: usize,
}

impl EpochSnapshot {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        epoch: u64,
        batches: usize,
        last_batch_id: Option<BatchId>,
        segments: Vec<Arc<EpochSegment>>,
        supports: Vec<Support>,
        num_items: usize,
        num_cols: usize,
    ) -> Self {
        debug_assert_eq!(supports.len(), num_items);
        debug_assert_eq!(segments.iter().map(|s| s.cols()).sum::<usize>(), num_cols);
        Self {
            epoch,
            batches,
            last_batch_id,
            segments,
            supports,
            num_items,
            num_cols,
        }
    }

    /// The store generation this snapshot froze — the epoch's identity.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of batches inside the window at the epoch.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// Identifier of the newest batch at the epoch (`None` when the window
    /// was empty).  This is what an oracle replaying the same stream aligns
    /// on.
    pub fn last_batch_id(&self) -> Option<BatchId> {
        self.last_batch_id
    }

    /// Number of rows (domain edges) the snapshot covers.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of columns (window transactions) at the epoch.
    pub fn num_transactions(&self) -> usize {
        self.num_cols
    }

    /// The snapshot's segment handles, oldest first (exposed so lifecycle
    /// tests can hold [`std::sync::Weak`] probes on them).
    pub fn segments(&self) -> &[Arc<EpochSegment>] {
        &self.segments
    }

    /// Frozen support of one singleton at the epoch (`0` for items outside
    /// the snapshot's domain).
    pub fn singleton_support(&self, item: usize) -> Support {
        self.supports.get(item).copied().unwrap_or(0)
    }

    /// Support contribution of `item` from window segment `segment` alone
    /// (the popcount of the item's chunk in that segment; `0` when the item
    /// has no chunk there or the index is out of range).  Over the window's
    /// segments these sum to [`EpochSnapshot::singleton_support`] — the
    /// identity `fsm_core::DeltaMiner`'s per-segment counts of a singleton,
    /// read off the same chunks, rest on.
    pub fn segment_support(&self, segment: usize, item: usize) -> Support {
        self.segments
            .get(segment)
            .and_then(|seg| seg.chunk(item))
            .map_or(0, |chunk| chunk.count_ones())
    }

    /// Heap bytes of the segment data reachable from this snapshot.  Shared
    /// with the live store (and with other snapshots of overlapping epochs),
    /// not owned exclusively.
    pub fn heap_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.heap_bytes()).sum()
    }

    /// Assembles every row of the frozen epoch into flat bit vectors,
    /// segment by segment, through the fill a live [`crate::DsMatrix::view`]
    /// uses ([`EpochSegment::assemble_rows`]): each segment's chunk appended
    /// in window order, zero-filled only up to each chunk, so a row ends
    /// where its last chunk ends and a row no segment holds stays empty and
    /// unallocated.  One allocation per held row; nothing is memoised on the
    /// snapshot, so the copy lives exactly as long as the caller keeps it.
    pub fn assemble_rows(&self) -> RowSnapshot {
        let mut rows = Vec::new();
        rows.resize_with(self.num_items, BitVec::new);
        EpochSegment::assemble_rows(&self.segments, &mut rows);
        RowSnapshot {
            rows,
            num_cols: self.num_cols,
        }
    }

    /// The read surface over the frozen epoch: `rows` (from
    /// [`EpochSnapshot::assemble_rows`] on this snapshot) under the epoch's
    /// frozen supports — the same flat [`WindowView`] a live mine reads.
    /// `&self` — any number of views (and threads) can read one snapshot
    /// concurrently.
    pub fn view<'a>(&'a self, rows: &'a RowSnapshot) -> WindowView<'a> {
        assert_eq!(
            (rows.num_items(), rows.num_transactions()),
            (self.num_items, self.num_cols),
            "rows assembled from another epoch"
        );
        WindowView::new(rows.rows(), &self.supports, self.num_cols)
    }
}

// A snapshot's whole point is crossing threads; regress loudly if a future
// field breaks that.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EpochSnapshot>();
};

#[cfg(test)]
mod tests {
    use crate::{DsMatrix, DsMatrixConfig};
    use fsm_storage::StorageBackend;
    use fsm_stream::WindowConfig;
    use fsm_types::{Batch, EdgeId, Transaction};

    fn batch(id: u64, rows: &[&[u32]]) -> Batch {
        Batch::from_transactions(
            id,
            rows.iter()
                .map(|r| Transaction::from_raw(r.iter().copied()))
                .collect(),
        )
    }

    fn paper_batches() -> Vec<Batch> {
        vec![
            batch(0, &[&[2, 3, 5], &[0, 4, 5], &[0, 2, 5]]),
            batch(1, &[&[0, 2, 3, 5], &[0, 3, 4, 5], &[0, 1, 2]]),
            batch(2, &[&[0, 2, 5], &[0, 2, 3, 5], &[1, 2, 3]]),
        ]
    }

    fn matrix(backend: StorageBackend, budget: usize) -> DsMatrix {
        DsMatrix::new(
            DsMatrixConfig::new(WindowConfig::new(2).unwrap(), backend, 6)
                .with_cache_budget(budget),
        )
        .unwrap()
    }

    /// [`render`] of a snapshot's flat view.
    fn render_epoch(snap: &crate::EpochSnapshot) -> (Vec<Vec<bool>>, Vec<u64>, Vec<String>) {
        render(&snap.view(&snap.assemble_rows()))
    }

    /// Every bit, every support, and one projection of a view, rendered to
    /// owned data so two views can be compared after their sources diverge.
    fn render(view: &crate::WindowView<'_>) -> (Vec<Vec<bool>>, Vec<u64>, Vec<String>) {
        let bits = (0..view.num_items())
            .map(|i| {
                (0..view.num_transactions())
                    .map(|c| view.get(EdgeId::new(i as u32), c))
                    .collect()
            })
            .collect();
        let supports = view
            .singleton_supports()
            .into_iter()
            .map(|(_, s)| s)
            .collect();
        let projected = view
            .project(EdgeId::new(0))
            .iter()
            .map(|(items, count)| {
                let syms: String = items.iter().map(|e| e.symbol()).collect();
                format!("{syms}:{count}")
            })
            .collect();
        (bits, supports, projected)
    }

    fn backends() -> Vec<(StorageBackend, usize)> {
        vec![
            (StorageBackend::Memory, 0),
            (StorageBackend::DiskTemp, 0),
            (StorageBackend::DiskTemp, usize::MAX),
            (StorageBackend::DiskTemp, 64),
        ]
    }

    #[test]
    fn snapshot_view_matches_the_live_view_at_every_epoch() {
        for (backend, budget) in backends() {
            let mut m = matrix(backend.clone(), budget);
            for b in paper_batches() {
                m.ingest_batch(&b).unwrap();
                let snap = m.snapshot_epoch().unwrap();
                let from_snapshot = render_epoch(&snap);
                let live = render(&m.view().unwrap());
                assert_eq!(from_snapshot, live, "{backend:?} budget {budget}");
                assert_eq!(snap.num_transactions(), m.num_transactions());
                assert_eq!(snap.batches(), m.num_batches());
                assert_eq!(snap.last_batch_id(), m.last_batch_id());
            }
        }
    }

    #[test]
    fn snapshots_of_one_epoch_are_memoised_and_new_epochs_are_not() {
        let mut m = matrix(StorageBackend::Memory, 0);
        m.ingest_batch(&paper_batches()[0]).unwrap();
        let first = m.snapshot_epoch().unwrap();
        let again = m.snapshot_epoch().unwrap();
        assert!(std::sync::Arc::ptr_eq(&first, &again));
        m.ingest_batch(&paper_batches()[1]).unwrap();
        let next = m.snapshot_epoch().unwrap();
        assert!(!std::sync::Arc::ptr_eq(&first, &next));
        assert_ne!(first.epoch(), next.epoch());
    }

    #[test]
    fn a_held_snapshot_survives_slides_and_budget_changes() {
        for (backend, budget) in backends() {
            let mut m = matrix(backend.clone(), budget);
            let batches = paper_batches();
            m.ingest_batch(&batches[0]).unwrap();
            m.ingest_batch(&batches[1]).unwrap();
            let snap = m.snapshot_epoch().unwrap();
            let frozen = render_epoch(&snap);

            // The writer keeps going: a slide evicts the snapshot's oldest
            // segment, the cache is re-budgeted twice (each shrink evicts),
            // and a live view is taken.
            m.ingest_batch(&batches[2]).unwrap();
            m.set_cache_budget(64);
            m.set_cache_budget(0);
            let _ = m.view().unwrap();

            assert_eq!(
                render_epoch(&snap),
                frozen,
                "{backend:?} budget {budget}: held snapshot must be immutable"
            );

            // And the frozen contents equal an oracle replayed to the same
            // epoch (same batch prefix, stop-the-world read).
            let mut oracle = matrix(backend.clone(), budget);
            oracle.ingest_batch(&batches[0]).unwrap();
            oracle.ingest_batch(&batches[1]).unwrap();
            assert_eq!(oracle.last_batch_id(), snap.last_batch_id());
            assert_eq!(
                render(&oracle.view().unwrap()),
                frozen,
                "{backend:?} budget {budget}: snapshot must equal its epoch's oracle"
            );
        }
    }

    #[test]
    fn segment_attribution_sums_to_window_supports() {
        for (backend, budget) in backends() {
            let mut m = matrix(backend.clone(), budget);
            for b in paper_batches() {
                m.ingest_batch(&b).unwrap();
                let snap = m.snapshot_epoch().unwrap();
                assert_eq!(
                    snap.segments().iter().map(|s| s.cols()).sum::<usize>(),
                    snap.num_transactions(),
                    "{backend:?} budget {budget}: segments must tile the window"
                );
                for item in 0..snap.num_items() {
                    let total: u64 = (0..snap.segments().len())
                        .map(|s| snap.segment_support(s, item))
                        .sum();
                    assert_eq!(
                        total,
                        snap.singleton_support(item),
                        "{backend:?} budget {budget}: per-segment supports must sum to the frozen support of item {item}"
                    );
                }
                assert_eq!(snap.segment_support(99, 0), 0);
                assert_eq!(snap.singleton_support(usize::MAX), 0);
            }
        }
    }

    #[test]
    fn empty_window_snapshots_are_well_formed() {
        let mut m = matrix(StorageBackend::Memory, 0);
        let snap = m.snapshot_epoch().unwrap();
        assert_eq!(snap.batches(), 0);
        assert_eq!(snap.last_batch_id(), None);
        let rows = snap.assemble_rows();
        let view = snap.view(&rows);
        assert_eq!(view.num_transactions(), 0);
        assert!(view.singleton_supports().iter().all(|(_, s)| *s == 0));
    }
}
