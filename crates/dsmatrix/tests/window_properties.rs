//! Property tests: the DSMatrix is always an exact image of the last `w`
//! batches, no matter how the stream unfolds.

use fsm_dsmatrix::{DsMatrix, DsMatrixConfig};
use fsm_storage::StorageBackend;
use fsm_stream::WindowConfig;
use fsm_types::{Batch, EdgeId, Transaction};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After ingesting the whole stream, every row/column bit equals the
    /// membership of that edge in the corresponding transaction of the last
    /// `w` batches, on both storage backends.
    #[test]
    fn matrix_mirrors_window_contents(raw in arb_batches(), w in 1usize..4) {
        let batches = to_batches(&raw);
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
            // The expected window: the last w batches, flattened.
            let start = batches.len().saturating_sub(w);
            let window: Vec<&Transaction> = batches[start..]
                .iter()
                .flat_map(|b| b.transactions().iter())
                .collect();
            prop_assert_eq!(matrix.num_transactions(), window.len());

            let mut expected_supports = Vec::new();
            for edge in 0..DOMAIN {
                let row = matrix.row(EdgeId::new(edge)).unwrap();
                prop_assert_eq!(row.len(), window.len());
                for (col, transaction) in window.iter().enumerate() {
                    prop_assert_eq!(
                        row.get(col),
                        transaction.contains(EdgeId::new(edge)),
                        "edge {} column {}", edge, col
                    );
                }
                // Support equals the number of window transactions containing
                // the edge.
                let expected = window
                    .iter()
                    .filter(|t| t.contains(EdgeId::new(edge)))
                    .count() as u64;
                expected_supports.push((EdgeId::new(edge), expected));
            }
            let view = matrix.view().unwrap();
            for &(edge, expected) in &expected_supports {
                prop_assert_eq!(view.support(edge), expected);
            }
            prop_assert_eq!(view.singleton_supports(), expected_supports);

            // Boundaries are cumulative batch sizes of the window.
            let mut acc = 0;
            let expected_bounds: Vec<usize> = batches[start..]
                .iter()
                .map(|b| {
                    acc += b.len();
                    acc
                })
                .collect();
            prop_assert_eq!(matrix.boundaries(), expected_bounds);
        }
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
