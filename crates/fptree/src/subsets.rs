//! Frequency counting on a single FP-tree by subset enumeration (§3.2).

use std::collections::HashMap;

use fsm_types::{EdgeId, Support};

use crate::growth::{Footprint, MineOutcome};
use crate::tree::FpTree;
use crate::{MiningLimits, ProjectedDb};

/// Mines every frequent itemset of `db` by building **one** FP-tree and, for
/// the first visit of every node, generating the collections of items
/// represented by the node and its path subsets while accumulating their
/// frequencies — the paper's second algorithm.
///
/// For a node labelled `y` with prefix path `P` (the items between the root
/// and `y`, exclusive) and count `c`, every itemset `S ∪ {y}` with `S ⊆ P`
/// receives `c`.  Because canonical order makes `y` the maximum of such an
/// itemset, and nodes sharing a label never lie on the same root path, each
/// transaction contributes exactly once per itemset: the accumulated counts
/// are exact supports.
///
/// Only one tree is ever alive, which is the whole point of the algorithm
/// when memory is limited; the price is the subset enumeration, bounded by
/// `limits.max_pattern_len` on deep trees.
pub fn mine_by_subset_enumeration(
    db: &ProjectedDb,
    minsup: Support,
    limits: MiningLimits,
) -> MineOutcome {
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

    let mut counts: HashMap<Vec<EdgeId>, Support> = HashMap::new();
    // Depth-first traversal over every node; the path is maintained
    // incrementally so each node is visited exactly once.
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)]; // (node, depth)
    let mut path: Vec<EdgeId> = Vec::new();
    while let Some((node, depth)) = stack.pop() {
        path.truncate(depth.saturating_sub(1));
        if node != 0 {
            let item = tree.nodes()[node].item;
            let count = tree.nodes()[node].count;
            accumulate_subsets(&path, item, count, limits, &mut counts);
            path.push(item);
        }
        for &child in &tree.nodes()[node].children {
            stack.push((child, depth + 1));
        }
    }

    let mut sets: Vec<(Vec<EdgeId>, Support)> = counts
        .into_iter()
        .filter(|(_, support)| *support >= minsup)
        .collect();
    // Canonical order inside each set is already guaranteed (prefix ∪ {item}).
    sets.sort();
    MineOutcome { sets, footprint }
}

/// Adds `count` to every itemset `S ∪ {item}` with `S ⊆ prefix`, respecting
/// the cardinality limit.
fn accumulate_subsets(
    prefix: &[EdgeId],
    item: EdgeId,
    count: Support,
    limits: MiningLimits,
    counts: &mut HashMap<Vec<EdgeId>, Support>,
) {
    fn rec(
        prefix: &[EdgeId],
        start: usize,
        current: &mut Vec<EdgeId>,
        item: EdgeId,
        count: Support,
        limits: MiningLimits,
        counts: &mut HashMap<Vec<EdgeId>, Support>,
    ) {
        let mut set = current.clone();
        set.push(item);
        *counts.entry(set).or_insert(0) += count;

        if !limits.allows(current.len() + 2) {
            return;
        }
        for i in start..prefix.len() {
            current.push(prefix[i]);
            rec(prefix, i + 1, current, item, count, limits, counts);
            current.pop();
        }
    }
    let mut current = Vec::new();
    rec(prefix, 0, &mut current, item, count, limits, counts);
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
    fn reproduces_example_3_frequent_sets_and_supports() {
        // Example 3: {a,c}:4, {a,c,d}:2, {a,c,d,f}:2, {a,c,f}:3, {a,d}:3,
        // {a,d,f}:3, {a,f}:4 — minus the conditioning {a}, i.e. {c}:4 … {f}:4.
        let outcome = mine_by_subset_enumeration(&example_db(), 2, MiningLimits::UNBOUNDED);
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
    fn only_a_single_tree_is_ever_built() {
        let outcome = mine_by_subset_enumeration(&example_db(), 2, MiningLimits::UNBOUNDED);
        assert_eq!(outcome.footprint.trees_built, 1);
        assert_eq!(outcome.footprint.peak_trees, 1);
    }

    #[test]
    fn agrees_with_recursive_fp_growth_on_example() {
        for minsup in 1..=4 {
            let a = sort_mined(
                crate::growth::mine_recursive(&example_db(), minsup, MiningLimits::UNBOUNDED).sets,
            );
            let b = sort_mined(
                mine_by_subset_enumeration(&example_db(), minsup, MiningLimits::UNBOUNDED).sets,
            );
            assert_eq!(a, b, "minsup {minsup}");
        }
    }

    #[test]
    fn respects_cardinality_limit() {
        let outcome = mine_by_subset_enumeration(&example_db(), 1, MiningLimits::with_max_len(2));
        assert!(outcome.sets.iter().all(|(s, _)| s.len() <= 2));
        // Pairs must still be present.
        assert!(outcome.sets.iter().any(|(s, _)| s.len() == 2));
    }

    #[test]
    fn empty_database_and_high_minsup() {
        assert!(
            mine_by_subset_enumeration(&ProjectedDb::new(), 1, MiningLimits::UNBOUNDED)
                .sets
                .is_empty()
        );
        assert!(
            mine_by_subset_enumeration(&example_db(), 50, MiningLimits::UNBOUNDED)
                .sets
                .is_empty()
        );
    }

    #[test]
    fn weighted_transactions_are_counted_with_their_weights() {
        let db: ProjectedDb = vec![(ids(&[0, 1]), 3), (ids(&[1]), 2)];
        let outcome = mine_by_subset_enumeration(&db, 2, MiningLimits::UNBOUNDED);
        let got = sort_mined(outcome.sets);
        assert_eq!(
            got,
            sort_mined(vec![(ids(&[0]), 3), (ids(&[0, 1]), 3), (ids(&[1]), 5)])
        );
    }
}
