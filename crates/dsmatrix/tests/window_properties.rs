//! Property tests: the DSMatrix is always an exact image of the last `w`
//! batches, no matter how the stream unfolds.

use fsm_dsmatrix::{DsMatrix, DsMatrixConfig, DurabilityConfig};
use fsm_storage::{StorageBackend, TempDir};
use fsm_stream::WindowConfig;
use fsm_types::{Batch, EdgeId, Transaction};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
const DOMAIN: u32 = 10;

fn arb_batches() -> impl Strategy<Value = Vec<Vec<Vec<u32>>>> {
    // A stream of 1..6 batches, each of 1..5 transactions over a small domain.
    proptest::collection::vec(
        proptest::collection::vec(
            proptest::collection::btree_set(0u32..DOMAIN, 0..6)
                .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
            1..5,
        ),
        1..6,
    )
}

fn to_batches(raw: &[Vec<Vec<u32>>]) -> Vec<Batch> {
    raw.iter()
        .enumerate()
        .map(|(id, txs)| {
            Batch::from_transactions(
                id as u64,
                txs.iter()
                    .map(|t| Transaction::from_raw(t.iter().copied()))
                    .collect(),
            )
        })
        .collect()
}

/// Asserts that `matrix` is the image of the last `w` of `seen`: every
/// row bit, the window's shape — batch count, boundaries, newest batch and
/// columns — read from the matrix and from an epoch snapshot, and every
/// singleton support, which must equal both its row's popcount and a
/// brute-force count over the window's transactions.
fn assert_mirrors(matrix: &mut DsMatrix, seen: &[Batch], w: usize) -> Result<(), TestCaseError> {
    let start = seen.len().saturating_sub(w);
    let batches = &seen[start..];
    let window: Vec<&Transaction> = batches
        .iter()
        .flat_map(|b| b.transactions().iter())
        .collect();
    let mut acc = 0;
    let boundaries: Vec<usize> = batches
        .iter()
        .map(|b| {
            acc += b.len();
            acc
        })
        .collect();
    let newest = batches.last().map(|b| b.id);
    prop_assert_eq!(matrix.num_batches(), batches.len());
    prop_assert_eq!(matrix.boundaries(), boundaries);
    prop_assert_eq!(matrix.last_batch_id(), newest);
    prop_assert_eq!(matrix.num_transactions(), window.len());

    let mut expected_supports = Vec::new();
    for edge in 0..DOMAIN {
        let row = matrix.row(EdgeId::new(edge)).unwrap();
        prop_assert_eq!(row.len(), window.len());
        for (col, transaction) in window.iter().enumerate() {
            prop_assert_eq!(
                row.get(col),
                transaction.contains(EdgeId::new(edge)),
                "edge {} column {}",
                edge,
                col
            );
        }
        // Support equals the number of window transactions containing the
        // edge, and the popcount of its row.
        let expected = window
            .iter()
            .filter(|t| t.contains(EdgeId::new(edge)))
            .count() as u64;
        prop_assert_eq!(row.count_ones(), expected, "edge {}", edge);
        expected_supports.push((EdgeId::new(edge), expected));
    }
    {
        let view = matrix.view().unwrap();
        for &(edge, expected) in &expected_supports {
            prop_assert_eq!(view.support(edge), expected);
        }
        prop_assert_eq!(view.singleton_supports(), expected_supports);
    }
    matrix.trim_cache();

    let snapshot = matrix.snapshot_epoch().unwrap();
    prop_assert_eq!(snapshot.batches(), batches.len());
    prop_assert_eq!(snapshot.last_batch_id(), newest);
    prop_assert_eq!(snapshot.num_transactions(), window.len());
    Ok(())
}

/// The configuration every matrix of a case shares but its backend and
/// durability.
fn config(w: usize, backend: StorageBackend) -> DsMatrixConfig {
    DsMatrixConfig::new(WindowConfig::new(w).unwrap(), backend, DOMAIN as usize)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every ingest, every row/column bit, the window's shape and
    /// every singleton support equal the last `w` batches', on a memory, a
    /// disk and a durable matrix — and at the end on a durable matrix
    /// recovered from its directory and a volatile one thawed from its
    /// spill image.
    #[test]
    fn matrix_mirrors_window_contents(raw in arb_batches(), w in 1usize..4) {
        let batches = to_batches(&raw);
        let dir = TempDir::new("window-properties").unwrap();
        let durable = config(w, StorageBackend::DiskTemp)
            .with_durability(DurabilityConfig::new(dir.file("durable")).with_checkpoint_every(2));
        let mut matrices = vec![
            DsMatrix::new(config(w, StorageBackend::Memory)).unwrap(),
            DsMatrix::new(config(w, StorageBackend::DiskTemp)).unwrap(),
            DsMatrix::new(durable.clone()).unwrap(),
        ];
        for (seen, batch) in batches.iter().enumerate() {
            for matrix in &mut matrices {
                matrix.ingest_batch(batch).unwrap();
                assert_mirrors(matrix, &batches[..=seen], w)?;
            }
        }
        drop(matrices.pop());
        let mut recovered = DsMatrix::recover(durable).unwrap();
        assert_mirrors(&mut recovered, &batches, w)?;
        let spill = dir.file("spill");
        matrices[1].hibernate(&spill).unwrap();
        let mut thawed = DsMatrix::thaw(config(w, StorageBackend::DiskTemp), &spill).unwrap();
        assert_mirrors(&mut thawed, &batches, w)?;
    }

    /// Projection on a pivot — through the view, the projection the miners
    /// run — reproduces exactly the suffixes of the window transactions
    /// containing the pivot, on both storage backends.
    #[test]
    fn projection_is_exact(raw in arb_batches(), w in 1usize..4, pivot in 0u32..DOMAIN) {
        let batches = to_batches(&raw);
        let start = batches.len().saturating_sub(w);
        let pivot_id = EdgeId::new(pivot);
        let mut expected: Vec<Vec<EdgeId>> = batches[start..]
            .iter()
            .flat_map(|b| b.transactions().iter())
            .filter(|t| t.contains(pivot_id))
            .map(|t| t.suffix_after(pivot_id).to_vec())
            .filter(|s| !s.is_empty())
            .collect();
        expected.sort();

        for backend in [StorageBackend::Memory, StorageBackend::DiskTemp] {
            let mut matrix = DsMatrix::new(DsMatrixConfig::new(
                WindowConfig::new(w).unwrap(),
                backend,
                DOMAIN as usize,
            ))
            .unwrap();
            for batch in &batches {
                matrix.ingest_batch(batch).unwrap();
            }
            let mut got: Vec<Vec<EdgeId>> = Vec::new();
            for (suffix, count) in matrix.view().unwrap().project(pivot_id) {
                for _ in 0..count {
                    got.push(suffix.clone());
                }
            }
            got.sort();
            prop_assert_eq!(&got, &expected);
        }
    }
}
