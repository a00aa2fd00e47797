//! Property tests: on randomly generated graph streams, all five DSMatrix
//! algorithms, the DSTree baseline, the DSTable baseline and the brute-force
//! oracle return exactly the same frequent connected collections (the paper's
//! first experiment, E1, as a property).

use fsm_core::{
    mine_dstable, mine_dstree, oracle, Algorithm, ConnectivityMode, MinerConfig, StreamMiner,
};
use fsm_datagen::{GraphModel, GraphModelConfig, GraphStreamConfig, GraphStreamGenerator};
use fsm_dstable::{DsTable, DsTableConfig};
use fsm_dstree::{DsTree, DsTreeConfig};
use fsm_fptree::MiningLimits;
use fsm_storage::StorageBackend;
use fsm_stream::WindowConfig;
use fsm_types::{Batch, EdgeCatalog, MinSup, Transaction};
use proptest::prelude::*;

/// Generates a small random stream plus the catalog it is drawn from.
fn generate_stream(seed: u64, batches: usize, batch_size: usize) -> (EdgeCatalog, Vec<Batch>) {
    let model = GraphModel::generate(GraphModelConfig {
        num_vertices: 7,
        avg_fanout: 3.0,
        seed,
        ..GraphModelConfig::default()
    });
    let catalog = model.catalog().clone();
    let mut generator = GraphStreamGenerator::new(
        model,
        GraphStreamConfig {
            avg_edges_per_graph: 4.0,
            locality: 0.6,
            batch_size,
            seed,
        },
    );
    (catalog, generator.generate_batches(batches))
}

/// The connected-pattern strings of a window, per the oracle.
fn oracle_strings(catalog: &EdgeCatalog, window: &[Transaction], minsup: u64) -> Vec<String> {
    oracle::mine_connected_oracle(window, catalog, minsup, None, ConnectivityMode::Exact)
        .into_iter()
        .map(|p| format!("{}:{}", p.edges.symbols(), p.support))
        .collect()
}

fn result_strings(result: &fsm_core::MiningResult) -> Vec<String> {
    result
        .patterns()
        .iter()
        .map(|p| format!("{}:{}", p.edges.symbols(), p.support))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Experiment E1 as a property: everything agrees with the oracle.
    #[test]
    fn all_structures_and_algorithms_agree(
        seed in 0u64..1000,
        num_batches in 2usize..5,
        window in 1usize..4,
        minsup in 2u64..5,
    ) {
        let batch_size = 8;
        let (catalog, batches) = generate_stream(seed, num_batches, batch_size);

        // Ground truth: the oracle over the in-memory window.
        let start = batches.len().saturating_sub(window);
        let window_transactions: Vec<Transaction> = batches[start..]
            .iter()
            .flat_map(|b| b.transactions().iter().cloned())
            .collect();
        let expected = oracle_strings(&catalog, &window_transactions, minsup);

        // The five DSMatrix algorithms through the facade.
        for algorithm in Algorithm::ALL {
            let mut miner = StreamMiner::new(MinerConfig { algorithm, window: WindowConfig::new(window).unwrap(), min_support: MinSup::absolute(minsup), catalog: Some(catalog.clone()), ..MinerConfig::default() })
                .unwrap();
            for batch in &batches {
                miner.ingest_batch(batch).unwrap();
            }
            let result = miner.mine().unwrap();
            prop_assert_eq!(
                result_strings(&result),
                expected.clone(),
                "algorithm {} disagrees with the oracle (seed {})",
                algorithm,
                seed
            );
        }

        // The DSTree baseline.
        let mut tree = DsTree::new(DsTreeConfig {
            window: WindowConfig::new(window).unwrap(),
        });
        for batch in &batches {
            tree.ingest_batch(batch).unwrap();
        }
        let tree_result = mine_dstree(
            &tree,
            &catalog,
            minsup,
            MiningLimits::UNBOUNDED,
            ConnectivityMode::Exact,
        )
        .unwrap();
        prop_assert_eq!(
            result_strings(&tree_result),
            expected.clone(),
            "DSTree baseline disagrees (seed {})",
            seed
        );

        // The DSTable baseline.
        let mut table = DsTable::new(DsTableConfig {
            window: WindowConfig::new(window).unwrap(),
            backend: StorageBackend::Memory,
            expected_edges: catalog.num_edges(),
        })
        .unwrap();
        for batch in &batches {
            table.ingest_batch(batch).unwrap();
        }
        let table_result = mine_dstable(
            &mut table,
            &catalog,
            minsup,
            MiningLimits::UNBOUNDED,
            ConnectivityMode::Exact,
        )
        .unwrap();
        prop_assert_eq!(
            result_strings(&table_result),
            expected,
            "DSTable baseline disagrees (seed {})",
            seed
        );
    }

    /// Disk-backed and memory-backed DSMatrix mining are indistinguishable.
    #[test]
    fn storage_backend_does_not_change_results(seed in 0u64..500, minsup in 2u64..4) {
        let (catalog, batches) = generate_stream(seed, 3, 6);
        let mut results = Vec::new();
        for backend in [StorageBackend::Memory, StorageBackend::DiskTemp] {
            let mut miner = StreamMiner::new(MinerConfig { algorithm: Algorithm::DirectVertical, window: WindowConfig::new(2).unwrap(), min_support: MinSup::absolute(minsup), backend, catalog: Some(catalog.clone()), ..MinerConfig::default() })
                .unwrap();
            for batch in &batches {
                miner.ingest_batch(batch).unwrap();
            }
            results.push(result_strings(&miner.mine().unwrap()));
        }
        prop_assert_eq!(&results[0], &results[1]);
    }
}
