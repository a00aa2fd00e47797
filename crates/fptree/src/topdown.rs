//! Top-down mining of a single FP-tree (§3.3).

use std::collections::BTreeMap;

use fsm_types::{EdgeId, Support};

use crate::growth::{Footprint, MineOutcome};
use crate::tree::{FpTree, NodeIdx};
use crate::{MiningLimits, ProjectedDb};

/// Mines every frequent itemset of `db` by building **one** FP-tree and
/// recursing top-down over groups of descendant nodes, in the spirit of
/// TD-FP-growth — the paper's third algorithm.
///
/// Where bottom-up FP-growth extends a suffix by walking *up* prefix paths and
/// materialising a conditional tree per extension, the top-down strategy
/// extends a prefix by walking *down*: the frequent itemset `P ∪ {y}` is
/// supported by exactly the `y`-labelled nodes lying below the nodes that
/// support `P` (canonical order makes every later item a descendant).  No
/// additional tree is ever constructed; the recursion only carries lists of
/// node indices.
pub fn mine_top_down(db: &ProjectedDb, minsup: Support, limits: MiningLimits) -> MineOutcome {
    let minsup = minsup.max(1);
    let tree = FpTree::build(db, minsup);
    let footprint = Footprint {
        trees_built: usize::from(!tree.is_empty()),
        peak_trees: usize::from(!tree.is_empty()),
        peak_tree_bytes: tree.heap_bytes(),
    };
    if tree.is_empty() {
        return MineOutcome {
            sets: Vec::new(),
            footprint,
        };
    }

    let mut sets = Vec::new();
    let mut prefix = Vec::new();
    recurse(&tree, &[0], &mut prefix, minsup, limits, &mut sets);
    sets.sort();
    MineOutcome { sets, footprint }
}

/// For each item occurring strictly below the nodes of `group`, accumulate its
/// total count and its node list; recurse on the frequent ones.
fn recurse(
    tree: &FpTree,
    group: &[NodeIdx],
    prefix: &mut Vec<EdgeId>,
    minsup: Support,
    limits: MiningLimits,
    sets: &mut Vec<(Vec<EdgeId>, Support)>,
) {
    if !limits.allows(prefix.len() + 1) {
        return;
    }
    // Gather, per item, the descendant nodes of the current group.  Nodes of
    // the same item never nest (items strictly ascend along a path), so each
    // supporting transaction is counted exactly once.
    let mut by_item: BTreeMap<EdgeId, (Support, Vec<NodeIdx>)> = BTreeMap::new();
    for &node in group {
        collect_descendants(tree, node, &mut by_item);
    }

    for (item, (support, nodes)) in by_item {
        if support < minsup {
            continue;
        }
        prefix.push(item);
        sets.push((prefix.clone(), support));
        recurse(tree, &nodes, prefix, minsup, limits, sets);
        prefix.pop();
    }
}

fn collect_descendants(
    tree: &FpTree,
    node: NodeIdx,
    by_item: &mut BTreeMap<EdgeId, (Support, Vec<NodeIdx>)>,
) {
    for &child in &tree.nodes()[node].children {
        let entry = by_item
            .entry(tree.nodes()[child].item)
            .or_insert((0, Vec::new()));
        entry.0 += tree.nodes()[child].count;
        entry.1.push(child);
        collect_descendants(tree, child, by_item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort_mined;

    fn ids(raw: &[u32]) -> Vec<EdgeId> {
        raw.iter().copied().map(EdgeId::new).collect()
    }

    fn example_db() -> ProjectedDb {
        vec![
            (ids(&[2, 3, 5]), 1),
            (ids(&[3, 4, 5]), 1),
            (ids(&[1, 2]), 1),
            (ids(&[2, 5]), 1),
            (ids(&[2, 3, 5]), 1),
        ]
    }

    #[test]
    fn reproduces_example_4_results() {
        // Example 4: the top-down algorithm finds the same collections as
        // Examples 2 and 3.
        let outcome = mine_top_down(&example_db(), 2, MiningLimits::UNBOUNDED);
        let got = sort_mined(outcome.sets);
        let expected = sort_mined(vec![
            (ids(&[2]), 4),
            (ids(&[2, 3]), 2),
            (ids(&[2, 3, 5]), 2),
            (ids(&[2, 5]), 3),
            (ids(&[3]), 3),
            (ids(&[3, 5]), 3),
            (ids(&[5]), 4),
        ]);
        assert_eq!(got, expected);
    }

    #[test]
    fn single_tree_footprint() {
        let outcome = mine_top_down(&example_db(), 2, MiningLimits::UNBOUNDED);
        assert_eq!(outcome.footprint.trees_built, 1);
        assert_eq!(outcome.footprint.peak_trees, 1);
        assert!(outcome.footprint.peak_tree_bytes > 0);
    }

    #[test]
    fn agrees_with_both_other_strategies() {
        for minsup in 1..=4 {
            let limits = MiningLimits::UNBOUNDED;
            let recursive =
                sort_mined(crate::growth::mine_recursive(&example_db(), minsup, limits).sets);
            let subsets = sort_mined(
                crate::subsets::mine_by_subset_enumeration(&example_db(), minsup, limits).sets,
            );
            let topdown = sort_mined(mine_top_down(&example_db(), minsup, limits).sets);
            assert_eq!(recursive, topdown, "minsup {minsup}");
            assert_eq!(subsets, topdown, "minsup {minsup}");
        }
    }

    #[test]
    fn respects_cardinality_limit() {
        let outcome = mine_top_down(&example_db(), 1, MiningLimits::with_max_len(1));
        assert!(outcome.sets.iter().all(|(s, _)| s.len() == 1));
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert!(
            mine_top_down(&ProjectedDb::new(), 1, MiningLimits::UNBOUNDED)
                .sets
                .is_empty()
        );
        let single: ProjectedDb = vec![(ids(&[7]), 4)];
        let outcome = mine_top_down(&single, 2, MiningLimits::UNBOUNDED);
        assert_eq!(outcome.sets, vec![(ids(&[7]), 4)]);
    }
}
