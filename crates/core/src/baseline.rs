//! Baseline miners over the DSTree and the DSTable (§2.1, §2.2).
//!
//! The paper's first experiment checks that mining with the DSTree or the
//! DSTable returns exactly the same frequent collections as the five
//! DSMatrix algorithms.  These functions mine both baseline structures with
//! recursive FP-growth and return results in the same [`MiningResult`] shape
//! so the accuracy experiment can compare them verbatim.

use std::time::Instant;

use fsm_dstable::DsTable;
use fsm_dstree::DsTree;
use fsm_fptree::{mine_recursive, MiningLimits};
use fsm_types::{EdgeCatalog, EdgeId, EdgeSet, FrequentPattern, Result, Support};

use crate::algorithm::ConnectivityMode;
use crate::connectivity::ConnectivityChecker;
use crate::instrument::MiningStats;
use crate::result::MiningResult;

/// Which baseline capture structure a result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineStructure {
    /// The in-memory DSTree.
    DsTree,
    /// The disk-resident DSTable.
    DsTable,
}

impl std::fmt::Display for BaselineStructure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineStructure::DsTree => f.write_str("dstree"),
            BaselineStructure::DsTable => f.write_str("dstable"),
        }
    }
}

/// Mines all frequent connected collections from a DSTree.
///
/// The DSTree projects *prefix* paths (items smaller than the pivot), so the
/// patterns produced for pivot `x` are those whose largest edge is `x`;
/// together they cover every frequent collection exactly once.
pub fn mine_dstree(
    tree: &DsTree,
    catalog: &EdgeCatalog,
    minsup: Support,
    limits: MiningLimits,
    connectivity: ConnectivityMode,
) -> Result<MiningResult> {
    let start = Instant::now();
    let minsup = minsup.max(1);
    let mut stats = MiningStats {
        window_transactions: tree.num_transactions(),
        resolved_minsup: minsup,
        ..MiningStats::default()
    };

    let mut patterns = Vec::new();
    let suffix_limits = suffix_limits(limits);
    for (edge, support) in tree.items() {
        if support < minsup {
            continue;
        }
        patterns.push(FrequentPattern::new(EdgeSet::singleton(edge), support));
        if matches!(limits.max_pattern_len, Some(1)) {
            continue;
        }
        let projected = tree.project(edge);
        if projected.is_empty() {
            continue;
        }
        let outcome = mine_recursive(&projected, minsup, suffix_limits);
        stats.tree_footprint.merge_sequential(&outcome.footprint);
        for (prefix, prefix_support) in outcome.sets {
            let mut edges = prefix;
            edges.push(edge);
            patterns.push(FrequentPattern::new(
                EdgeSet::from_edges(edges),
                prefix_support,
            ));
        }
    }

    stats.patterns_before_postprocess = patterns.len();
    let checker = ConnectivityChecker::new(catalog, connectivity);
    stats.patterns_pruned = checker.prune_disconnected(&mut patterns);
    stats.elapsed = start.elapsed();
    Ok(MiningResult::new(patterns, stats))
}

/// Mines all frequent connected collections from a DSTable.
///
/// The DSTable projects *suffix* chains (items larger than the pivot), so the
/// patterns produced for pivot `x` are those whose smallest edge is `x`.
pub fn mine_dstable(
    table: &mut DsTable,
    catalog: &EdgeCatalog,
    minsup: Support,
    limits: MiningLimits,
    connectivity: ConnectivityMode,
) -> Result<MiningResult> {
    let start = Instant::now();
    let minsup = minsup.max(1);
    let mut stats = MiningStats {
        window_transactions: table.num_transactions(),
        resolved_minsup: minsup,
        ..MiningStats::default()
    };

    let mut patterns = Vec::new();
    let suffix_limits = suffix_limits(limits);
    for (edge, support) in table.singleton_supports()? {
        if support < minsup {
            continue;
        }
        patterns.push(FrequentPattern::new(EdgeSet::singleton(edge), support));
        if matches!(limits.max_pattern_len, Some(1)) {
            continue;
        }
        let projected = table.project(edge)?;
        if projected.is_empty() {
            continue;
        }
        let outcome = mine_recursive(&projected, minsup, suffix_limits);
        stats.tree_footprint.merge_sequential(&outcome.footprint);
        for (suffix, suffix_support) in outcome.sets {
            let mut edges = Vec::with_capacity(suffix.len() + 1);
            edges.push(edge);
            edges.extend(suffix);
            patterns.push(FrequentPattern::new(
                EdgeSet::from_edges(edges),
                suffix_support,
            ));
        }
    }

    stats.patterns_before_postprocess = patterns.len();
    let checker = ConnectivityChecker::new(catalog, connectivity);
    stats.patterns_pruned = checker.prune_disconnected(&mut patterns);
    stats.elapsed = start.elapsed();
    Ok(MiningResult::new(patterns, stats))
}

fn suffix_limits(limits: MiningLimits) -> MiningLimits {
    match limits.max_pattern_len {
        Some(max) => MiningLimits::with_max_len(max.saturating_sub(1).max(1)),
        None => MiningLimits::UNBOUNDED,
    }
}

/// Convenience: mines singletons only (used by a couple of tests and the
/// harness when characterising workloads).
pub fn frequent_edges_of_tree(tree: &DsTree, minsup: Support) -> Vec<(EdgeId, Support)> {
    tree.items()
        .into_iter()
        .filter(|(_, s)| *s >= minsup)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsm_dstable::DsTableConfig;
    use fsm_dstree::DsTreeConfig;
    use fsm_storage::StorageBackend;
    use fsm_stream::WindowConfig;
    use fsm_types::{Batch, Transaction};

    fn paper_batches() -> Vec<Batch> {
        let e = |raw: &[u32]| Transaction::from_raw(raw.iter().copied());
        vec![
            Batch::from_transactions(0, vec![e(&[2, 3, 5]), e(&[0, 4, 5]), e(&[0, 2, 5])]),
            Batch::from_transactions(1, vec![e(&[0, 2, 3, 5]), e(&[0, 3, 4, 5]), e(&[0, 1, 2])]),
            Batch::from_transactions(2, vec![e(&[0, 2, 5]), e(&[0, 2, 3, 5]), e(&[1, 2, 3])]),
        ]
    }

    fn expected_15() -> Vec<String> {
        let mut v: Vec<String> = vec![
            "{a}:5",
            "{b}:2",
            "{c}:5",
            "{d}:4",
            "{f}:4",
            "{a,c}:4",
            "{a,c,d}:2",
            "{a,c,d,f}:2",
            "{a,c,f}:3",
            "{a,d}:3",
            "{a,d,f}:3",
            "{b,c}:2",
            "{c,d,f}:2",
            "{c,f}:3",
            "{d,f}:3",
        ]
        .into_iter()
        .map(String::from)
        .collect();
        v.sort();
        v
    }

    fn strings(result: &MiningResult) -> Vec<String> {
        let mut v: Vec<String> = result
            .patterns()
            .iter()
            .map(|p| format!("{}:{}", p.edges.symbols(), p.support))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn dstree_baseline_finds_the_15_connected_collections() {
        let catalog = EdgeCatalog::complete(4);
        let mut tree = DsTree::new(DsTreeConfig {
            window: WindowConfig::new(2).unwrap(),
        });
        for batch in paper_batches() {
            tree.ingest_batch(&batch).unwrap();
        }
        let result = mine_dstree(
            &tree,
            &catalog,
            2,
            MiningLimits::UNBOUNDED,
            ConnectivityMode::Exact,
        )
        .unwrap();
        assert_eq!(strings(&result), expected_15());
        assert_eq!(result.stats().patterns_before_postprocess, 17);
        assert_eq!(result.stats().patterns_pruned, 2);
        assert!(result.stats().tree_footprint.trees_built > 0);
    }

    #[test]
    fn dstable_baseline_finds_the_15_connected_collections() {
        let catalog = EdgeCatalog::complete(4);
        let mut table = DsTable::new(DsTableConfig {
            window: WindowConfig::new(2).unwrap(),
            backend: StorageBackend::Memory,
            expected_edges: 6,
        })
        .unwrap();
        for batch in paper_batches() {
            table.ingest_batch(&batch).unwrap();
        }
        let result = mine_dstable(
            &mut table,
            &catalog,
            2,
            MiningLimits::UNBOUNDED,
            ConnectivityMode::Exact,
        )
        .unwrap();
        assert_eq!(strings(&result), expected_15());
        assert_eq!(result.stats().patterns_pruned, 2);
    }

    #[test]
    fn singleton_only_limits_work_on_baselines() {
        let catalog = EdgeCatalog::complete(4);
        let mut tree = DsTree::new(DsTreeConfig {
            window: WindowConfig::new(2).unwrap(),
        });
        for batch in paper_batches() {
            tree.ingest_batch(&batch).unwrap();
        }
        let result = mine_dstree(
            &tree,
            &catalog,
            2,
            MiningLimits::with_max_len(1),
            ConnectivityMode::Exact,
        )
        .unwrap();
        assert_eq!(result.len(), 5);
        assert_eq!(frequent_edges_of_tree(&tree, 2).len(), 5);
    }

    #[test]
    fn display_names() {
        assert_eq!(BaselineStructure::DsTree.to_string(), "dstree");
        assert_eq!(BaselineStructure::DsTable.to_string(), "dstable");
    }
}
