//! Every read surface must be observationally identical to from-scratch
//! assembly out of the segment store ([`DsMatrix::row`], the ground truth).
//!
//! Four surfaces are pinned against it on arbitrary slide sequences (uneven
//! batches, empty batches, growing domain, both storage backends):
//!
//! * the rows [`DsMatrix::view`] assembles from the window's segments;
//! * the view's counter-maintained `singleton_supports` versus the ground
//!   truth's popcounts, and [`WindowView::project`] versus a projected
//!   database computed naively from the ground-truth rows;
//! * the segment-direct [`DsMatrix::column`] versus reading every row;
//! * the flat rows an epoch mine assembles from a frozen snapshot's shared
//!   segments ([`EpochSnapshot::assemble_rows`]), over segment widths that
//!   straddle word boundaries.
//!
//! A fixed stream pins a disk view's rows read directly, at budgets 0,
//! tight and covering: lazily padded — cut at their last chunk, or empty
//! and unallocated when no live segment holds them — and bit for bit the
//! ground truth.  The read-amplification counter is asserted across the
//! corners: one view assembles the same words on the memory backend as on
//! disk at every budget — a budget buys decodes, never assembly.

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

/// The backend/budget corners every consistency check runs on: memory, disk
/// at budget 0 (every segment decoded from its run), a tiny budget (600 B,
/// whatever segments fit; the others read from their runs) and an unlimited
/// one (every segment resident).
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
/// from-scratch reference every view must match.
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

    // 1. View rows equal from-scratch assembly (plus rows past the domain).
    for item in 0..(num_items as u32 + 2) {
        assert_eq!(
            view_row_string(m, item),
            store_row_string(m, item),
            "view row {item} diverged from the segment store"
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

/// A disk view assembles the window segment by segment and pads lazily: a
/// row ends where its last chunk in the window ends, and a row no live
/// segment holds stays empty.  Read straight off [`WindowView::row`], every
/// bit still equals the segment store's full-width row, at budget 0, at a
/// tight budget and at a covering one — over rows held by no segment, rows
/// the newest segments lack, and a batch whose 70 columns straddle a word.
#[test]
fn every_bit_of_a_disk_view_equals_the_segment_store() {
    let wide: Vec<&[u32]> = vec![&[0, 6]; 70];
    let batches = [
        batch(0, &[&[0, 1, 7], &[1, 8], &[0]]),
        batch(1, &[&[0, 2], &[2, 7]]),
        batch(2, &[&[3], &[0, 3, 4], &[4]]),
        batch(3, &[&[0, 5], &[5]]),
        batch(4, &wide),
        batch(5, &[&[0], &[6]]),
    ];
    for budget in [0, 600, usize::MAX] {
        let mut m = DsMatrix::new(
            DsMatrixConfig::new(WindowConfig::new(3).unwrap(), StorageBackend::DiskTemp, 10)
                .with_cache_budget(budget),
        )
        .unwrap();
        let (mut unheld, mut cut_short) = (0, 0);
        for b in &batches {
            m.ingest_batch(b).unwrap();
            let truth = store_rows(&mut m);
            let ends = m.boundaries();
            let num_cols = m.num_transactions();
            let view = m.view().unwrap();
            assert_eq!(view.num_items(), 10);
            for (item, want) in truth.iter().enumerate() {
                let row = view.row(EdgeId::new(item as u32)).unwrap();
                let context = format!("budget {budget}, batch {}, row {item}", b.id);
                // A segment holds a row exactly when the row has a set bit
                // in it, so the row's last set bit names its last chunk.
                match want.iter_ones().last() {
                    None => {
                        assert!(row.is_empty(), "{context}: {row:?}");
                        assert_eq!(row.heap_bytes(), 0, "{context}: allocated");
                        unheld += 1;
                    }
                    Some(last) => {
                        let end = *ends.iter().find(|&&end| end > last).unwrap();
                        assert_eq!(row.len(), end, "{context}: not cut at its last chunk");
                        cut_short += usize::from(end < num_cols);
                        for col in 0..num_cols {
                            assert_eq!(row.get(col), want.get(col), "{context}, column {col}");
                            assert_eq!(view.get(EdgeId::new(item as u32), col), want.get(col));
                        }
                    }
                }
            }
            m.trim_cache();
        }
        assert!(
            unheld > 0 && cut_short > 0,
            "{unheld} unheld, {cut_short} short"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On arbitrary streams, a view's rows (and every other view surface)
    /// equal from-scratch assembly after every slide, on every backend
    /// corner — and every corner's view assembles the same words: the memory
    /// backend assembles its rows as the disk backends do, and a residency
    /// budget buys decodes, never assembly.
    #[test]
    fn views_match_from_scratch_assembly(
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
        let mut assembled_per_corner = Vec::new();
        for mut m in corner_matrices(window, 0) {
            let mut assembled = Vec::new();
            for (id, transactions) in raw.iter().enumerate() {
                let b = Batch::from_transactions(
                    id as u64,
                    transactions
                        .iter()
                        .map(|t| Transaction::from_raw(t.iter().copied()))
                        .collect(),
                );
                m.ingest_batch(&b).unwrap();
                let before = m.read_stats().words_assembled;
                m.view().unwrap();
                assembled.push(m.read_stats().words_assembled - before);
                m.trim_cache();
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
            assembled_per_corner.push(assembled);
        }
        prop_assert!(
            assembled_per_corner.windows(2).all(|pair| pair[0] == pair[1]),
            "words assembled per slide differ across backend corners: {:?}",
            assembled_per_corner
        );
    }

    /// The flat rows an epoch mine assembles equal the segment store's at
    /// that epoch, bit for bit — each cut at its last chunk, or empty and
    /// unallocated when no segment holds it — over batch widths that are not
    /// multiples of 64 (so chunks land misaligned and straddle word
    /// boundaries), empty batches, a domain that grows mid-stream and rows
    /// absent from some segments (zero-filled), on every backend corner.
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
                    let truth = m.row(EdgeId::new(item)).unwrap();
                    // A segment holds a row exactly when the row has a set
                    // bit in it, so the row's last set bit names its last
                    // chunk.
                    match truth.iter_ones().last() {
                        None => {
                            prop_assert!(flat.is_empty(), "row {} is held by no segment", item);
                            prop_assert_eq!(flat.heap_bytes(), 0, "row {} allocated", item);
                        }
                        Some(last) => {
                            let end = *m.boundaries().iter().find(|&&end| end > last).unwrap();
                            prop_assert_eq!(flat.len(), end, "row {} is cut at its last chunk", item);
                        }
                    }
                    let mut padded = flat.clone();
                    padded.resize(m.num_transactions());
                    prop_assert_eq!(&padded, &truth, "row {} after batch {}", item, id);
                    prop_assert_eq!(view.support(EdgeId::new(item)), flat.count_ones());
                }
                prop_assert!(rows.row(EdgeId::new(m.num_items() as u32)).is_none());
            }
        }
    }
}
