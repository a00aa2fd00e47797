//! The three horizontal (FP-tree based) algorithms: §3.1, §3.2 and §3.3.
//!
//! All three follow the same outline — find the frequent single edges from the
//! DSMatrix row sums, build the `{x}`-projected database for each frequent
//! edge `x` by extracting matrix columns downwards, and mine that projected
//! database — and differ only in *how* the projected database is mined:
//!
//! * **multi-tree** (§3.1) mines it with recursive FP-growth, so conditional
//!   trees pile up in memory;
//! * **single-tree** (§3.2) builds one FP-tree and counts node-path subsets;
//! * **top-down** (§3.3) builds one FP-tree and mines it top-down.
//!
//! The per-pivot work units are independent (pivot `x`'s projected database
//! only reads rows after `x`), so all three algorithms fan the pivots out
//! over the [`crate::parallel`] engine: workers share one
//! [`WindowView`] (the live [`fsm_dsmatrix::DsMatrix::view`] or a frozen
//! [`fsm_dsmatrix::EpochSnapshot::view`] — nothing is copied on the memory
//! backend; a disk-backend mine and an epoch mine assemble each row once
//! per call, whatever the chunk-cache budget),
//! each worker owns one [`ProjectionScratch`] for allocation-free
//! projection, and per-pivot outputs merge back in canonical edge order —
//! pattern lists and statistics are byte-identical for every thread count.

use fsm_dsmatrix::{ProjectionScratch, WindowView};
use fsm_fptree::growth::MineOutcome;
use fsm_fptree::{MiningLimits, ProjectedDb};
use fsm_types::{EdgeId, EdgeSet, FrequentPattern, Result, Support};

use super::RawMiningOutput;
use crate::parallel::Exec;

/// §3.1 — mining with multiple recursive FP-trees.
pub fn mine_multi_tree(
    view: &WindowView<'_>,
    minsup: Support,
    limits: MiningLimits,
    exec: &Exec,
) -> Result<RawMiningOutput> {
    mine_horizontal(view, minsup, limits, exec, fsm_fptree::mine_recursive)
}

/// §3.2 — frequency counting on a single FP-tree per frequent edge.
pub fn mine_single_tree(
    view: &WindowView<'_>,
    minsup: Support,
    limits: MiningLimits,
    exec: &Exec,
) -> Result<RawMiningOutput> {
    mine_horizontal(
        view,
        minsup,
        limits,
        exec,
        fsm_fptree::mine_by_subset_enumeration,
    )
}

/// §3.3 — top-down mining of a single FP-tree per frequent edge.
pub fn mine_top_down(
    view: &WindowView<'_>,
    minsup: Support,
    limits: MiningLimits,
    exec: &Exec,
) -> Result<RawMiningOutput> {
    mine_horizontal(view, minsup, limits, exec, fsm_fptree::mine_top_down)
}

/// Shared outline of the three horizontal algorithms, parameterised by the
/// projected-database mining strategy.
///
/// `exec` fans the per-pivot loop out over its worker pool; each worker
/// reuses one projection scratch for every pivot it processes, and results merge in canonical order so the output
/// never depends on the worker count.
fn mine_horizontal(
    view: &WindowView<'_>,
    minsup: Support,
    limits: MiningLimits,
    exec: &Exec,
    strategy: fn(&ProjectedDb, Support, MiningLimits) -> MineOutcome,
) -> Result<RawMiningOutput> {
    let minsup = minsup.max(1);
    let mut output = RawMiningOutput::default();

    // The limit passed to the projected-database miner applies to the suffix
    // (the pattern minus the pivot edge).
    let suffix_limits = match limits.max_pattern_len {
        Some(0) => return Ok(output),
        Some(max) => MiningLimits::with_max_len(max.saturating_sub(1).max(1)),
        None => MiningLimits::UNBOUNDED,
    };
    let singles_only = matches!(limits.max_pattern_len, Some(1));

    // Step 1: frequent single edges come from the view's ingest-time support
    // counters.  The rows the view exposes are the mining working set of the
    // horizontal family (the trees come and go on top of them), so their
    // bytes are recorded the same way the vertical miners record their
    // resident frequent rows — on the memory backend they are shared with
    // the capture structure, not copied.
    output.stats.peak_bitvector_bytes = view.heap_bytes();
    let frequent: Vec<(EdgeId, Support)> = view
        .singleton_supports()
        .into_iter()
        .filter(|(_, support)| *support >= minsup)
        .collect();

    // Step 2: one projected database per frequent edge, mined in parallel.
    // Pivot costs are skewed (small pivots see the largest projected
    // databases), which is exactly the case the dynamic load balancer of
    // the executor's dynamic load balancer handles.
    let per_pivot =
        exec.run_indexed_stateful(frequent.len(), ProjectionScratch::new, |scratch, idx| {
            let (edge, support) = frequent[idx];
            let mut out = RawMiningOutput::default();
            out.patterns
                .push(FrequentPattern::new(EdgeSet::singleton(edge), support));
            if singles_only {
                return out;
            }
            let projected = view.project_into(edge, scratch);
            if projected.is_empty() {
                return out;
            }
            let outcome = strategy(projected, minsup, suffix_limits);
            out.stats
                .tree_footprint
                .merge_sequential(&outcome.footprint);
            for (suffix, suffix_support) in outcome.sets {
                let mut edges = Vec::with_capacity(suffix.len() + 1);
                edges.push(edge);
                edges.extend(suffix);
                out.patterns.push(FrequentPattern::new(
                    EdgeSet::from_edges(edges),
                    suffix_support,
                ));
            }
            out
        });
    for subtree in per_pivot {
        output.merge(subtree);
    }

    output.stats.patterns_before_postprocess = output.patterns.len();
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::pool_shapes;
    use fsm_dsmatrix::{DsMatrix, DsMatrixConfig};
    use fsm_storage::StorageBackend;
    use fsm_stream::WindowConfig;
    use fsm_types::{Batch, Transaction};

    /// DSMatrix holding the paper's window E4..E9.
    fn paper_matrix() -> DsMatrix {
        let e = |raw: &[u32]| Transaction::from_raw(raw.iter().copied());
        let batches = vec![
            Batch::from_transactions(0, vec![e(&[2, 3, 5]), e(&[0, 4, 5]), e(&[0, 2, 5])]),
            Batch::from_transactions(1, vec![e(&[0, 2, 3, 5]), e(&[0, 3, 4, 5]), e(&[0, 1, 2])]),
            Batch::from_transactions(2, vec![e(&[0, 2, 5]), e(&[0, 2, 3, 5]), e(&[1, 2, 3])]),
        ];
        let mut m = DsMatrix::new(DsMatrixConfig::new(
            WindowConfig::new(2).unwrap(),
            StorageBackend::Memory,
            6,
        ))
        .unwrap();
        for b in &batches {
            m.ingest_batch(b).unwrap();
        }
        m
    }

    fn pattern_strings(output: &RawMiningOutput) -> Vec<String> {
        let mut v: Vec<String> = output
            .patterns
            .iter()
            .map(|p| format!("{}:{}", p.edges.symbols(), p.support))
            .collect();
        v.sort();
        v
    }

    /// The 17 collections of Example 2 with the supports of Examples 3 and 5.
    fn expected_17() -> Vec<String> {
        let mut v: Vec<String> = vec![
            "{a}:5",
            "{b}:2",
            "{c}:5",
            "{d}:4",
            "{f}:4", // 5 singletons
            "{a,c}:4",
            "{a,c,d}:2",
            "{a,c,d,f}:2",
            "{a,c,f}:3",
            "{a,d}:3",
            "{a,d,f}:3",
            "{a,f}:4", // 7 from the {a}-projected database
            "{b,c}:2", // 1 from {b}
            "{c,d}:3",
            "{c,d,f}:2",
            "{c,f}:3", // 3 from {c}
            "{d,f}:3", // 1 from {d}
        ]
        .into_iter()
        .map(String::from)
        .collect();
        v.sort();
        v
    }

    #[test]
    fn multi_tree_finds_the_17_collections_of_example_2() {
        let mut m = paper_matrix();
        let output = mine_multi_tree(
            &m.view().unwrap(),
            2,
            MiningLimits::UNBOUNDED,
            &Exec::scoped(1),
        )
        .unwrap();
        assert_eq!(output.patterns.len(), 17);
        assert_eq!(pattern_strings(&output), expected_17());
        assert!(
            output.stats.tree_footprint.peak_trees >= 2,
            "the multi-tree algorithm keeps several FP-trees alive"
        );
    }

    #[test]
    fn single_tree_finds_the_same_collections_with_one_tree_at_a_time() {
        let mut m = paper_matrix();
        let output = mine_single_tree(
            &m.view().unwrap(),
            2,
            MiningLimits::UNBOUNDED,
            &Exec::scoped(1),
        )
        .unwrap();
        assert_eq!(pattern_strings(&output), expected_17());
        assert_eq!(
            output.stats.tree_footprint.peak_trees, 1,
            "only one FP-tree is alive at any moment (§3.2)"
        );
    }

    #[test]
    fn top_down_finds_the_same_collections_with_one_tree_at_a_time() {
        let mut m = paper_matrix();
        let output = mine_top_down(
            &m.view().unwrap(),
            2,
            MiningLimits::UNBOUNDED,
            &Exec::scoped(1),
        )
        .unwrap();
        assert_eq!(pattern_strings(&output), expected_17());
        assert_eq!(output.stats.tree_footprint.peak_trees, 1);
    }

    #[test]
    fn parallel_run_is_identical_to_sequential() {
        let mut m = paper_matrix();
        let view = m.view().unwrap();
        let execs = pool_shapes();
        for miner in [mine_multi_tree, mine_single_tree, mine_top_down] {
            for minsup in 1..=5 {
                let sequential =
                    miner(&view, minsup, MiningLimits::UNBOUNDED, &Exec::scoped(1)).unwrap();
                for exec in &execs {
                    let parallel = miner(&view, minsup, MiningLimits::UNBOUNDED, exec).unwrap();
                    // Not just as sets: the merged order must match exactly.
                    assert_eq!(
                        parallel.patterns, sequential.patterns,
                        "exec {exec:?}, minsup {minsup}"
                    );
                    assert_eq!(
                        parallel.stats, sequential.stats,
                        "exec {exec:?}, minsup {minsup}"
                    );
                }
            }
        }
    }

    #[test]
    fn higher_minsup_reduces_the_result() {
        let mut m = paper_matrix();
        let output = mine_multi_tree(
            &m.view().unwrap(),
            4,
            MiningLimits::UNBOUNDED,
            &Exec::scoped(1),
        )
        .unwrap();
        // minsup 4: singletons a:5, c:5, d:4, f:4 plus pairs {a,c}:4, {a,f}:4.
        assert_eq!(
            pattern_strings(&output),
            vec![
                "{a,c}:4".to_string(),
                "{a,f}:4".to_string(),
                "{a}:5".to_string(),
                "{c}:5".to_string(),
                "{d}:4".to_string(),
                "{f}:4".to_string(),
            ]
        );
    }

    #[test]
    fn max_pattern_len_caps_results() {
        let mut m = paper_matrix();
        let view = m.view().unwrap();
        let output =
            mine_single_tree(&view, 2, MiningLimits::with_max_len(2), &Exec::scoped(1)).unwrap();
        assert!(output.patterns.iter().all(|p| p.len() <= 2));
        assert!(output.patterns.iter().any(|p| p.len() == 2));
        let singles_only =
            mine_top_down(&view, 2, MiningLimits::with_max_len(1), &Exec::scoped(1)).unwrap();
        assert!(singles_only.patterns.iter().all(|p| p.len() == 1));
        assert_eq!(singles_only.patterns.len(), 5);
        // A zero cap forbids even singletons, matching the vertical miners.
        for strategy in [mine_multi_tree, mine_single_tree, mine_top_down] {
            let nothing =
                strategy(&view, 2, MiningLimits::with_max_len(0), &Exec::scoped(1)).unwrap();
            assert!(nothing.patterns.is_empty());
        }
    }

    #[test]
    fn unsatisfiable_minsup_returns_nothing() {
        let mut m = paper_matrix();
        let output = mine_multi_tree(
            &m.view().unwrap(),
            100,
            MiningLimits::UNBOUNDED,
            &Exec::scoped(1),
        )
        .unwrap();
        assert!(output.patterns.is_empty());
        assert_eq!(output.stats.patterns_before_postprocess, 0);
    }
}
