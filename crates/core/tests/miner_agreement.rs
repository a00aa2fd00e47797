//! Property tests for the zero-allocation / parallel mining engine: on
//! arbitrary (seeded, shrinkable) streams, the §3.4 vertical miner plus the
//! §3.5 connectivity filter agrees exactly with the §4 direct miner, and —
//! for all five algorithms, horizontal and vertical alike — every thread
//! count produces byte-identical output.

use std::sync::Arc;

use fsm_core::{miners, Algorithm, ConnectivityChecker, ConnectivityMode, Exec, WorkerPool};
use fsm_dsmatrix::{DsMatrix, DsMatrixConfig};
use fsm_fptree::MiningLimits;
use fsm_storage::StorageBackend;
use fsm_stream::WindowConfig;
use fsm_types::{Batch, EdgeCatalog, Transaction};
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

/// Every pool shape the thread-count property sweeps: no helpers at all,
/// then 1, 2, 3 and 7 helpers, then one participant per core.
fn pool_shapes() -> Vec<Exec> {
    let mut shapes = vec![Exec::pool(Arc::new(WorkerPool::inline_only()))];
    shapes.extend([1, 2, 3, 7].map(|helpers| Exec::pool(Arc::new(WorkerPool::new(helpers)))));
    shapes.push(Exec::scoped(0));
    shapes
}

fn ingest(raw: &[Vec<Vec<u32>>], window: usize) -> DsMatrix {
    let mut matrix = DsMatrix::new(DsMatrixConfig::new(
        WindowConfig::new(window).unwrap(),
        StorageBackend::Memory,
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

fn pattern_strings(patterns: &[fsm_types::FrequentPattern]) -> Vec<String> {
    let mut v: Vec<String> = patterns
        .iter()
        .map(|p| format!("{}:{}", p.edges.symbols(), p.support))
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Vertical mining + connectivity pruning equals direct mining, on any
    /// stream, for any window size and support threshold.
    #[test]
    fn vertical_plus_pruning_equals_direct(
        raw in arb_stream(),
        window in 1usize..4,
        minsup in 1u64..4,
    ) {
        let catalog = EdgeCatalog::complete(VERTICES);
        let mut matrix = ingest(&raw, window);

        let mut vertical = miners::run_algorithm(
            Algorithm::Vertical,
            &mut matrix,
            &catalog,
            minsup,
            MiningLimits::UNBOUNDED,
            &Exec::scoped(1),
        )
        .unwrap();
        let checker = ConnectivityChecker::new(&catalog, ConnectivityMode::Exact);
        checker.prune_disconnected(&mut vertical.patterns);

        let direct = miners::run_algorithm(
            Algorithm::DirectVertical,
            &mut matrix,
            &catalog,
            minsup,
            MiningLimits::UNBOUNDED,
            &Exec::scoped(1),
        )
        .unwrap();

        prop_assert_eq!(
            pattern_strings(&vertical.patterns),
            pattern_strings(&direct.patterns)
        );
    }

    /// The parallel engine is deterministic: every thread count reproduces
    /// the sequential pattern list (order included) and statistics, for all
    /// five algorithms — the three horizontal (FP-tree) miners fan per-pivot
    /// projected databases out exactly as the vertical miners fan out their
    /// per-singleton subtrees.
    #[test]
    fn thread_count_never_changes_the_output(
        raw in arb_stream(),
        window in 1usize..4,
        minsup in 1u64..4,
    ) {
        let catalog = EdgeCatalog::complete(VERTICES);
        let mut matrix = ingest(&raw, window);
        let execs = pool_shapes();

        for algorithm in Algorithm::ALL {
            let sequential = miners::run_algorithm(
                algorithm,
                &mut matrix,
                &catalog,
                minsup,
                MiningLimits::UNBOUNDED,
                &Exec::scoped(1),
            )
            .unwrap();
            for exec in &execs {
                let parallel = miners::run_algorithm(
                    algorithm,
                    &mut matrix,
                    &catalog,
                    minsup,
                    MiningLimits::UNBOUNDED,
                    exec,
                )
                .unwrap();
                prop_assert_eq!(
                    &parallel.patterns,
                    &sequential.patterns,
                    "{} under {:?}",
                    algorithm,
                    exec
                );
                // Byte-identical statistics too: intersection counts, tree
                // footprints, pattern counts — nothing may depend on the
                // worker count.
                prop_assert_eq!(
                    &parallel.stats,
                    &sequential.stats,
                    "{} under {:?}",
                    algorithm,
                    exec
                );
            }
        }
    }
}
