//! Running algorithms and baselines over workloads with uniform measurement.

use std::time::{Duration, Instant};

use fsm_core::{
    mine_dstable, mine_dstree, Algorithm, ConnectivityMode, MinerConfig, MiningResult, StreamMiner,
};
use fsm_dstable::{DsTable, DsTableConfig};
use fsm_dstree::{DsTree, DsTreeConfig};
use fsm_fptree::MiningLimits;
use fsm_storage::StorageBackend;
use fsm_stream::WindowConfig;
use fsm_types::{MinSup, Result};

use crate::workloads::Workload;

/// Measurements of one algorithm run over one workload.
#[derive(Debug, Clone)]
pub struct AlgorithmRun {
    /// Label of the runner ("multi-tree", "dstree-baseline", …).
    pub label: String,
    /// Capture time: ingesting every batch of the stream.
    pub capture_time: Duration,
    /// Mining time of the final window.
    pub mining_time: Duration,
    /// Number of connected collections found.
    pub patterns: usize,
    /// Collections found before the connectivity filter.
    pub patterns_before_postprocess: usize,
    /// Peak bytes of the mining working set (trees or bit vectors).
    pub peak_mining_bytes: usize,
    /// Resident bytes of the capture structure at mining time.
    pub capture_resident_bytes: usize,
    /// On-disk bytes of the capture structure at mining time.
    pub capture_on_disk_bytes: u64,
    /// The mining result itself (for accuracy comparisons).
    pub result: MiningResult,
}

/// Runs one of the five DSMatrix algorithms over a workload (sequentially;
/// see [`run_algorithm_threaded`] for the parallel engine).
pub fn run_algorithm_on(
    workload: &Workload,
    algorithm: Algorithm,
    window: usize,
    minsup: MinSup,
    max_len: Option<usize>,
    backend: StorageBackend,
) -> Result<AlgorithmRun> {
    run_algorithm_threaded(workload, algorithm, window, minsup, max_len, backend, 1)
}

/// Runs one of the five DSMatrix algorithms over a workload with an explicit
/// worker-thread count for the vertical algorithms (`0` = all cores).
#[allow(clippy::too_many_arguments)]
pub fn run_algorithm_threaded(
    workload: &Workload,
    algorithm: Algorithm,
    window: usize,
    minsup: MinSup,
    max_len: Option<usize>,
    backend: StorageBackend,
    threads: usize,
) -> Result<AlgorithmRun> {
    let mut miner = StreamMiner::new(MinerConfig {
        algorithm,
        window: WindowConfig::new(window)?,
        min_support: minsup,
        limits: MiningLimits {
            max_pattern_len: max_len,
        },
        backend,
        catalog: Some(workload.catalog.clone()),
        threads,
        ..MinerConfig::default()
    })?;

    let capture_start = Instant::now();
    for batch in &workload.batches {
        miner.ingest_batch(batch)?;
    }
    let capture_time = capture_start.elapsed();

    let result = miner.mine()?;
    let stats = result.stats().clone();
    Ok(AlgorithmRun {
        label: algorithm.key().to_string(),
        capture_time,
        mining_time: stats.elapsed,
        patterns: result.len(),
        patterns_before_postprocess: stats.patterns_before_postprocess,
        peak_mining_bytes: stats.peak_mining_bytes(),
        capture_resident_bytes: miner.resident_bytes(),
        capture_on_disk_bytes: miner.matrix_mut().on_disk_bytes(),
        result,
    })
}

/// Runs the DSTree and DSTable baseline miners over a workload.
pub fn run_baselines_on(
    workload: &Workload,
    window: usize,
    minsup: MinSup,
    max_len: Option<usize>,
) -> Result<Vec<AlgorithmRun>> {
    let limits = MiningLimits {
        max_pattern_len: max_len,
    };
    let window_config = WindowConfig::new(window)?;
    let mut runs = Vec::new();

    // DSTree.
    let mut tree = DsTree::new(DsTreeConfig {
        window: window_config,
    });
    let capture_start = Instant::now();
    for batch in &workload.batches {
        tree.ingest_batch(batch)?;
    }
    let capture_time = capture_start.elapsed();
    let resolved = minsup.resolve(tree.num_transactions());
    let result = mine_dstree(
        &tree,
        &workload.catalog,
        resolved,
        limits,
        ConnectivityMode::Exact,
    )?;
    let stats = result.stats().clone();
    runs.push(AlgorithmRun {
        label: "dstree-baseline".to_string(),
        capture_time,
        mining_time: stats.elapsed,
        patterns: result.len(),
        patterns_before_postprocess: stats.patterns_before_postprocess,
        peak_mining_bytes: stats.peak_mining_bytes(),
        // The DSTree holds the entire window in memory.
        capture_resident_bytes: tree.resident_bytes(),
        capture_on_disk_bytes: 0,
        result,
    });

    // DSTable.
    let mut table = DsTable::new(DsTableConfig {
        window: window_config,
        backend: StorageBackend::DiskTemp,
        expected_edges: workload.catalog.num_edges(),
    })?;
    let capture_start = Instant::now();
    for batch in &workload.batches {
        table.ingest_batch(batch)?;
    }
    let capture_time = capture_start.elapsed();
    let resolved = minsup.resolve(table.num_transactions());
    let resident = table.resident_bytes();
    let on_disk = table.on_disk_bytes();
    let result = mine_dstable(
        &mut table,
        &workload.catalog,
        resolved,
        limits,
        ConnectivityMode::Exact,
    )?;
    let stats = result.stats().clone();
    runs.push(AlgorithmRun {
        label: "dstable-baseline".to_string(),
        capture_time,
        mining_time: stats.elapsed,
        patterns: result.len(),
        patterns_before_postprocess: stats.patterns_before_postprocess,
        peak_mining_bytes: stats.peak_mining_bytes(),
        capture_resident_bytes: resident,
        capture_on_disk_bytes: on_disk,
        result,
    });

    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_and_baseline_runs_agree_on_a_small_workload() {
        let workload = Workload::graph_model(1, 77);
        let minsup = MinSup::relative(0.05);
        let mut results = Vec::new();
        for algorithm in Algorithm::ALL {
            let run = run_algorithm_on(
                &workload,
                algorithm,
                3,
                minsup,
                Some(4),
                StorageBackend::Memory,
            )
            .unwrap();
            assert!(run.patterns > 0, "{algorithm} found nothing");
            results.push(run);
        }
        for pair in results.windows(2) {
            assert!(
                pair[0].result.same_patterns_as(&pair[1].result),
                "{} vs {} disagree",
                pair[0].label,
                pair[1].label
            );
        }
        let baselines = run_baselines_on(&workload, 3, minsup, Some(4)).unwrap();
        assert_eq!(baselines.len(), 2);
        for baseline in &baselines {
            assert!(
                baseline.result.same_patterns_as(&results[0].result),
                "{} disagrees with the DSMatrix algorithms",
                baseline.label
            );
        }
    }
}
