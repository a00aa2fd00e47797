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

/// Measurements of one algorithm run over one workload.  The mine's own
/// numbers (patterns, elapsed time, working set) are its result's stats.
#[derive(Debug, Clone)]
pub struct AlgorithmRun {
    /// Label of the runner ("multi-tree", "dstree-baseline", …).
    pub label: String,
    /// Capture time: ingesting every batch of the stream.
    pub capture_time: Duration,
    /// Resident bytes of the capture structure at mining time.
    pub capture_resident_bytes: usize,
    /// On-disk bytes of the capture structure at mining time.
    pub capture_on_disk_bytes: u64,
    /// 64-bit words the DSMatrix capture serialised over the whole stream
    /// (zero for the baselines).
    pub capture_words: u64,
    /// The mining result of the final window.
    pub result: MiningResult,
}

/// Runs one of the five DSMatrix algorithms over a workload with `threads`
/// mining workers (`0` = all cores; the result is identical for any count).
pub fn run_algorithm_on(
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
    Ok(AlgorithmRun {
        label: algorithm.key().to_string(),
        capture_time,
        capture_resident_bytes: miner.resident_bytes(),
        capture_on_disk_bytes: miner.matrix_mut().on_disk_bytes(),
        capture_words: miner.matrix_mut().capture_stats().words_written,
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

    // DSTree: it holds the entire window in memory.
    let mut tree = DsTree::new(DsTreeConfig {
        window: window_config,
    });
    let capture_start = Instant::now();
    for batch in &workload.batches {
        tree.ingest_batch(batch)?;
    }
    let capture_time = capture_start.elapsed();
    let resolved = minsup.resolve(tree.num_transactions());
    let dstree = AlgorithmRun {
        label: "dstree-baseline".to_string(),
        capture_time,
        capture_resident_bytes: tree.resident_bytes(),
        capture_on_disk_bytes: 0,
        capture_words: 0,
        result: mine_dstree(
            &tree,
            &workload.catalog,
            resolved,
            limits,
            ConnectivityMode::Exact,
        )?,
    };

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
    let dstable = AlgorithmRun {
        label: "dstable-baseline".to_string(),
        capture_time,
        capture_resident_bytes: table.resident_bytes(),
        capture_on_disk_bytes: table.on_disk_bytes(),
        capture_words: 0,
        result: mine_dstable(
            &mut table,
            &workload.catalog,
            resolved,
            limits,
            ConnectivityMode::Exact,
        )?,
    };

    Ok(vec![dstree, dstable])
}

/// The median of `samples` (the upper one of an even count).
///
/// # Panics
/// If `samples` is empty.
pub(crate) fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
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
            for threads in [1, 2] {
                let run = run_algorithm_on(
                    &workload,
                    algorithm,
                    3,
                    minsup,
                    Some(4),
                    StorageBackend::Memory,
                    threads,
                )
                .unwrap();
                assert!(!run.result.is_empty(), "{algorithm} found nothing");
                results.push(run);
            }
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
