//! Every read surface must be observationally identical to from-scratch
//! assembly out of the segment store ([`DsMatrix::row`], the ground truth).
//!
//! Four surfaces are pinned against it on arbitrary slide sequences (uneven
//! batches, empty batches, growing domain, both storage backends):
//!
//! * the incrementally-maintained row cache behind [`DsMatrix::view`];
//! * the view's counter-maintained `singleton_supports` versus the ground
//!   truth's popcounts, and [`WindowView::project`] versus a projected
//!   database computed naively from the ground-truth rows;
//! * the segment-direct [`DsMatrix::column`] versus reading every row;
//! * the flat rows an epoch mine assembles from a frozen snapshot's shared
//!   segments ([`EpochSnapshot::assemble_rows`]), over segment widths that
//!   straddle word boundaries.
//!
//! A separate test forces the cache's amortised `drop_prefix` compaction and
//! checks the rows survive it, and the read-amplification counters are
//! asserted directly: steady-state view construction on the memory backend
//! materialises zero words.

use std::collections::BTreeMap;

use fsm_dsmatrix::{DsMatrix, DsMatrixConfig, ProjectedRows};
use fsm_storage::{BitVec, StorageBackend};
use fsm_stream::WindowConfig;
use fsm_types::{Batch, EdgeId, Support, Transaction};
use proptest::prelude::*;

fn matrix(window: usize, backend: StorageBackend, expected: usize) -> DsMatrix {
    DsMatrix::new(DsMatrixConfig::new(
        WindowConfig::new(window).unwrap(),
        backend,
        expected,
    ))
    .unwrap()
}

/// The backend/budget corners every consistency check runs on: zero-copy
/// memory, uncached disk (budget 0 — every chunk read from its page file),
/// a tiny budget (most admissions refused, so hits and page reads mix within
/// one row) and an unlimited one (every chunk but the entering segment's
/// served from the cache).
fn corner_matrices(window: usize, expected: usize) -> Vec<DsMatrix> {
    let budgets = [600, usize::MAX];
    let mut matrices = vec![
        matrix(window, StorageBackend::Memory, expected),
        matrix(window, StorageBackend::DiskTemp, expected),
    ];
    for budget in budgets {
        matrices.push(
            DsMatrix::new(
                DsMatrixConfig::new(
                    WindowConfig::new(window).unwrap(),
                    StorageBackend::DiskTemp,
                    expected,
                )
                .with_cache_budget(budget),
            )
            .unwrap(),
        );
    }
    matrices
}

fn batch(id: u64, transactions: &[&[u32]]) -> Batch {
    Batch::from_transactions(
        id,
        transactions
            .iter()
            .map(|t| Transaction::from_raw(t.iter().copied()))
            .collect(),
    )
}

/// Renders item `item`'s window row as seen through the view.
fn view_row_string(m: &mut DsMatrix, item: u32) -> String {
    let view = m.view().unwrap();
    (0..view.num_transactions())
        .map(|col| {
            if view.get(EdgeId::new(item), col) {
                '1'
            } else {
                '0'
            }
        })
        .collect()
}

/// Renders item `item`'s window row assembled from the segment store — the
/// from-scratch reference the cache must match.
fn store_row_string(m: &mut DsMatrix, item: u32) -> String {
    let row = m.row(EdgeId::new(item)).unwrap();
    (0..row.len())
        .map(|i| if row.get(i) { '1' } else { '0' })
        .collect()
}

/// Every known row assembled from the segment store.
fn store_rows(m: &mut DsMatrix) -> Vec<BitVec> {
    (0..m.num_items() as u32)
        .map(|item| m.row(EdgeId::new(item)).unwrap())
        .collect()
}

/// The `{pivot}`-projected database read naively off ground-truth rows: per
/// column holding the pivot, the later items it holds; identical non-empty
/// suffixes merged and listed in ascending order.
fn reference_projection(rows: &[BitVec], pivot: usize) -> ProjectedRows {
    let mut merged: BTreeMap<Vec<EdgeId>, Support> = BTreeMap::new();
    let Some(pivot_row) = rows.get(pivot) else {
        return Vec::new();
    };
    for col in pivot_row.iter_ones() {
        let suffix: Vec<EdgeId> = (pivot + 1..rows.len())
            .filter(|&item| rows[item].get(col))
            .map(|item| EdgeId::new(item as u32))
            .collect();
        if !suffix.is_empty() {
            *merged.entry(suffix).or_default() += 1;
        }
    }
    merged.into_iter().collect()
}

/// Pins every read surface of `m` against the eager reference.
fn assert_view_matches_eager(m: &mut DsMatrix) {
    let num_items = m.num_items();
    let num_cols = m.num_transactions();

    // 1. Cached rows equal from-scratch assembly (plus rows past the domain).
    for item in 0..(num_items as u32 + 2) {
        assert_eq!(
            view_row_string(m, item),
            store_row_string(m, item),
            "cached row {item} diverged from the segment store"
        );
    }

    // 2. Counter-maintained supports equal the ground truth's row popcounts;
    //    projection through the view equals the naive one over those rows.
    let truth = store_rows(m);
    let view = m.view().unwrap();
    assert_eq!(view.num_items(), num_items);
    assert_eq!(view.num_transactions(), num_cols);
    let row_sums: Vec<Support> = truth.iter().map(BitVec::count_ones).collect();
    let supports: Vec<Support> = view.singleton_supports().iter().map(|(_, s)| *s).collect();
    assert_eq!(supports, row_sums, "supports diverged from the row sums");
    for pivot in 0..(num_items + 2) {
        assert_eq!(
            view.project(EdgeId::new(pivot as u32)),
            reference_projection(&truth, pivot),
            "projected database of pivot {pivot} diverged"
        );
    }

    // 3. Segment-direct columns equal the per-row reconstruction.
    for col in 0..num_cols {
        let from_rows: Vec<u32> = (0..num_items as u32)
            .filter(|&item| {
                m.row(EdgeId::new(item))
                    .map(|row| row.get(col))
                    .unwrap_or(false)
            })
            .collect();
        let from_segment: Vec<u32> = m.column(col).unwrap().iter().map(|e| e.0).collect();
        assert_eq!(from_segment, from_rows, "column {col} diverged");
    }
}

#[test]
fn view_matches_eager_reads_on_a_fixed_stream() {
    for mut m in corner_matrices(2, 6) {
        let batches = [
            batch(0, &[&[2, 3, 5], &[0, 4, 5], &[0, 2, 5]]),
            batch(1, &[&[0, 2, 3, 5], &[0, 3, 4, 5], &[0, 1, 2]]),
            batch(2, &[&[0, 2, 5], &[0, 2, 3, 5], &[1, 2, 3]]),
            batch(3, &[]),
            batch(4, &[&[7], &[0, 7]]),
        ];
        for b in &batches {
            m.ingest_batch(b).unwrap();
            assert_view_matches_eager(&mut m);
        }
    }
}

#[test]
fn steady_state_views_are_zero_copy_on_the_memory_backend() {
    let mut m = matrix(3, StorageBackend::Memory, 8);
    for id in 0..6u64 {
        m.ingest_batch(&batch(id, &[&[0, 1], &[2, 3], &[(id % 8) as u32]]))
            .unwrap();
        let before = m.read_stats().words_assembled;
        let view = m.view().unwrap();
        assert!(view.num_transactions() > 0);
        let _ = view;
        assert_eq!(
            m.read_stats().words_assembled,
            before,
            "memory-backend view construction must materialise nothing"
        );
    }
    // The disk backend pays the (counted) eager fallback instead.
    let mut disk = matrix(3, StorageBackend::DiskTemp, 8);
    disk.ingest_batch(&batch(0, &[&[0, 1], &[2, 3]])).unwrap();
    let before = disk.read_stats().words_assembled;
    let _ = disk.view().unwrap();
    assert!(
        disk.read_stats().words_assembled > before,
        "disk-backend views assemble rows and must say so"
    );
}

#[test]
fn cache_survives_prefix_compaction() {
    // One 80-column batch per slide with a window of 2 batches: the dead
    // prefix grows by 80 bits per slide and must cross the compaction
    // threshold several times over 20 slides.
    let mut m = matrix(2, StorageBackend::Memory, 4);
    for id in 0..20u64 {
        let edge = (id % 4) as u32;
        let transactions: Vec<Vec<u32>> = (0..80)
            .map(|t| {
                if t % 3 == 0 {
                    vec![edge, (edge + 1) % 4]
                } else {
                    vec![edge]
                }
            })
            .collect();
        let refs: Vec<&[u32]> = transactions.iter().map(|t| t.as_slice()).collect();
        m.ingest_batch(&batch(id, &refs)).unwrap();
        for item in 0..4 {
            assert_eq!(
                view_row_string(&mut m, item),
                store_row_string(&mut m, item),
                "row {item} after slide {id}"
            );
        }
    }
    assert!(
        m.read_stats().cache_compact_words > 0,
        "the compaction path was never exercised"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On arbitrary streams, the incrementally-maintained cache (and every
    /// other view surface) equals from-scratch assembly after every slide,
    /// on both storage backends.
    #[test]
    fn incremental_cache_matches_from_scratch_assembly(
        raw in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::btree_set(0u32..10, 0..4)
                    .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
                0..4,
            ),
            1..8,
        ),
        window in 1usize..4,
    ) {
        for mut m in corner_matrices(window, 0) {
            for (id, transactions) in raw.iter().enumerate() {
                let b = Batch::from_transactions(
                    id as u64,
                    transactions
                        .iter()
                        .map(|t| Transaction::from_raw(t.iter().copied()))
                        .collect(),
                );
                m.ingest_batch(&b).unwrap();
                for item in 0..m.num_items() as u32 {
                    prop_assert_eq!(
                        view_row_string(&mut m, item),
                        store_row_string(&mut m, item),
                        "row {} after batch {}",
                        item,
                        id
                    );
                }
                let truth = store_rows(&mut m);
                let view = m.view().unwrap();
                for (item, row) in truth.iter().enumerate() {
                    prop_assert_eq!(view.support(EdgeId::new(item as u32)), row.count_ones());
                }
                for pivot in 0..truth.len() {
                    prop_assert_eq!(
                        view.project(EdgeId::new(pivot as u32)),
                        reference_projection(&truth, pivot),
                        "pivot {} after batch {}",
                        pivot,
                        id
                    );
                }
            }
        }
    }

    /// The flat rows an epoch mine assembles equal the segment store's at
    /// that epoch, bit for bit and padded to the window — over batch widths
    /// that are not multiples of 64 (so chunks land misaligned and straddle
    /// word boundaries), empty batches, a domain that grows mid-stream and
    /// rows absent from some segments (zero-filled), on every backend corner.
    #[test]
    fn an_epochs_flat_assembly_matches_the_segment_store(
        segments in proptest::collection::vec(
            (0usize..140, proptest::collection::btree_set(0u32..10, 0..5)),
            1..8,
        ),
        window in 1usize..4,
    ) {
        for mut m in corner_matrices(window, 0) {
            for (id, (width, present)) in segments.iter().enumerate() {
                // Deterministic per-(segment, row) bit pattern.
                let transactions = (0..*width)
                    .map(|col| {
                        Transaction::from_raw(
                            present
                                .iter()
                                .copied()
                                .filter(|&item| !(col + item as usize + id).is_multiple_of(3)),
                        )
                    })
                    .collect();
                m.ingest_batch(&Batch::from_transactions(id as u64, transactions)).unwrap();

                let snap = m.snapshot_epoch().unwrap();
                let rows = snap.assemble_rows();
                let view = snap.view(&rows);
                prop_assert_eq!(rows.num_items(), m.num_items());
                prop_assert_eq!(rows.num_transactions(), m.num_transactions());
                for item in 0..m.num_items() as u32 {
                    let flat = rows.row(EdgeId::new(item)).unwrap();
                    prop_assert_eq!(flat.len(), m.num_transactions(), "row {} is padded", item);
                    prop_assert_eq!(
                        flat,
                        &m.row(EdgeId::new(item)).unwrap(),
                        "row {} after batch {}",
                        item,
                        id
                    );
                    prop_assert_eq!(view.support(EdgeId::new(item)), flat.count_ones());
                }
                prop_assert!(rows.row(EdgeId::new(m.num_items() as u32)).is_none());
            }
        }
    }
}
