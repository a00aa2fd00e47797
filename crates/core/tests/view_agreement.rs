//! One read path, the same output bytes on every backend.
//!
//! All five algorithms read the window through [`fsm_dsmatrix::WindowView`],
//! whose rows [`fsm_dsmatrix::DsMatrix::view`] assembles from the window's
//! segments the same way on every backend — from resident segments on the
//! memory backend, through segment runs and the chunk cache on the disk
//! backends.  Running the same stream through both backends therefore pits
//! the two storage paths against each other, and this file property-tests
//! that the pattern lists (order included) and the work counters are
//! byte-identical for every algorithm on arbitrary streams.
//!
//! It also pins the read cost directly: a steady-state mine-after-slide
//! assembles the same, non-zero, number of words on both backends.

use fsm_core::{miners, Algorithm, Exec, StreamMinerBuilder};
use fsm_dsmatrix::{DsMatrix, DsMatrixConfig};
use fsm_fptree::MiningLimits;
use fsm_storage::StorageBackend;
use fsm_stream::WindowConfig;
use fsm_types::{Batch, EdgeCatalog, MinSup, Transaction};
use proptest::prelude::*;

/// Complete graph over five vertices: ten possible edges.
const VERTICES: u32 = 5;
const EDGES: u32 = 10;

fn arb_stream() -> impl Strategy<Value = Vec<Vec<Vec<u32>>>> {
    // 1..5 batches of 1..6 transactions over the edge vocabulary.
    proptest::collection::vec(
        proptest::collection::vec(
            proptest::collection::btree_set(0u32..EDGES, 0..6)
                .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
            1..6,
        ),
        1..5,
    )
}

fn ingest(raw: &[Vec<Vec<u32>>], window: usize, backend: StorageBackend) -> DsMatrix {
    let mut matrix = DsMatrix::new(DsMatrixConfig::new(
        WindowConfig::new(window).unwrap(),
        backend,
        EDGES as usize,
    ))
    .unwrap();
    for (id, transactions) in raw.iter().enumerate() {
        let batch = Batch::from_transactions(
            id as u64,
            transactions
                .iter()
                .map(|t| Transaction::from_raw(t.iter().copied()))
                .collect(),
        );
        matrix.ingest_batch(&batch).unwrap();
    }
    matrix
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Memory-backend and disk-backend mining are byte-identical for all
    /// five algorithms on arbitrary streams.
    #[test]
    fn view_mining_equals_eager_snapshot_mining(
        raw in arb_stream(),
        window in 1usize..4,
        minsup in 1u64..4,
    ) {
        let catalog = EdgeCatalog::complete(VERTICES);
        let mut memory = ingest(&raw, window, StorageBackend::Memory);
        let mut disk = ingest(&raw, window, StorageBackend::DiskTemp);
        for algorithm in Algorithm::ALL {
            let via_view = miners::run_algorithm(
                algorithm, &mut memory, &catalog, minsup, MiningLimits::UNBOUNDED,
                &Exec::scoped(1),
            ).unwrap();
            let via_assembly = miners::run_algorithm(
                algorithm, &mut disk, &catalog, minsup, MiningLimits::UNBOUNDED,
                &Exec::scoped(1),
            ).unwrap();
            // Not just as sets: order and supports must match exactly.
            prop_assert_eq!(
                &via_view.patterns, &via_assembly.patterns,
                "{} patterns diverged between read paths", algorithm
            );
            prop_assert_eq!(
                via_view.stats.intersections, via_assembly.stats.intersections,
                "{} intersection counts diverged", algorithm
            );
            prop_assert_eq!(
                via_view.stats.tree_footprint.trees_built,
                via_assembly.stats.tree_footprint.trees_built,
                "{} tree counts diverged", algorithm
            );
        }
    }
}

/// After every slide a mine assembles the rows the window's segments hold,
/// once, on both backends: memory and disk report the same non-zero
/// `read_words_assembled` and find identical patterns.
#[test]
fn memory_and_disk_mines_assemble_the_same_words() {
    for algorithm in Algorithm::ALL {
        let build = |backend: StorageBackend| {
            StreamMinerBuilder::new()
                .algorithm(algorithm)
                .window_batches(3)
                .min_support(MinSup::absolute(2))
                .backend(backend)
                .complete_graph_vertices(VERTICES)
                .build()
                .unwrap()
        };
        let mut memory = build(StorageBackend::Memory);
        let mut disk = build(StorageBackend::DiskTemp);
        for id in 0..8u64 {
            let batch = Batch::from_transactions(
                id,
                vec![
                    Transaction::from_raw([(id % 4) as u32, ((id + 1) % 4) as u32]),
                    Transaction::from_raw([0u32, 1, 2]),
                    Transaction::from_raw([((id + 2) % 5) as u32]),
                ],
            );
            memory.ingest_batch(&batch).unwrap();
            disk.ingest_batch(&batch).unwrap();
            let mem_result = memory.mine().unwrap();
            let disk_result = disk.mine().unwrap();
            let words = mem_result.stats().read_words_assembled;
            assert!(
                words > 0,
                "{algorithm}: memory-backend mine #{id} should report its assembly"
            );
            assert_eq!(
                words,
                disk_result.stats().read_words_assembled,
                "{algorithm}: mine #{id} assembled different words per backend"
            );
            assert!(
                mem_result.same_patterns_as(&disk_result),
                "{algorithm}: read paths disagree on mine #{id}"
            );
        }
    }
}
