//! Bottom-up recursive FP-growth (the multi-tree strategy of §3.1).

use fsm_types::{EdgeId, Support};

use crate::tree::FpTree;
use crate::{MinedSet, MiningLimits, ProjectedDb};

/// Resource footprint of one mining run, used by the space experiment to
/// reproduce the paper's "at most k trees vs a single tree" comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Total number of FP-trees constructed.
    pub trees_built: usize,
    /// Maximum number of FP-trees alive at the same time.
    pub peak_trees: usize,
    /// Maximum number of bytes held by simultaneously alive FP-trees.
    pub peak_tree_bytes: usize,
}

impl Footprint {
    /// Merges another footprint taken sequentially after this one (peaks are
    /// maxima, totals add).
    pub fn merge_sequential(&mut self, other: &Footprint) {
        self.trees_built += other.trees_built;
        self.peak_trees = self.peak_trees.max(other.peak_trees);
        self.peak_tree_bytes = self.peak_tree_bytes.max(other.peak_tree_bytes);
    }
}

/// The result of a mining run: the frequent itemsets found in the projected
/// database plus the tree footprint it took to find them.
#[derive(Debug, Clone, Default)]
pub struct MineOutcome {
    /// Frequent itemsets with their supports, in no particular order.
    pub sets: Vec<MinedSet>,
    /// Tree-construction footprint.
    pub footprint: Footprint,
}

struct RecursionState {
    minsup: Support,
    limits: MiningLimits,
    sets: Vec<MinedSet>,
    footprint: Footprint,
    live_trees: usize,
    live_bytes: usize,
}

impl RecursionState {
    fn tree_built(&mut self, bytes: usize) {
        self.footprint.trees_built += 1;
        self.live_trees += 1;
        self.live_bytes += bytes;
        self.footprint.peak_trees = self.footprint.peak_trees.max(self.live_trees);
        self.footprint.peak_tree_bytes = self.footprint.peak_tree_bytes.max(self.live_bytes);
    }

    fn tree_dropped(&mut self, bytes: usize) {
        self.live_trees -= 1;
        self.live_bytes -= bytes;
    }
}

/// Mines every frequent itemset of `db` by recursively building conditional
/// FP-trees, exactly as the paper's first algorithm does for each projected
/// database extracted from the DSMatrix.
///
/// Returned itemsets are in canonical order and do **not** include the
/// conditioning prefix of `db` — the caller composes them with whatever the
/// database was projected on.
pub fn mine_recursive(db: &ProjectedDb, minsup: Support, limits: MiningLimits) -> MineOutcome {
    let mut state = RecursionState {
        minsup: minsup.max(1),
        limits,
        sets: Vec::new(),
        footprint: Footprint::default(),
        live_trees: 0,
        live_bytes: 0,
    };
    mine_db(db, &mut state, &[]);
    MineOutcome {
        sets: std::mem::take(&mut state.sets),
        footprint: state.footprint,
    }
}

fn mine_db(db: &ProjectedDb, state: &mut RecursionState, suffix: &[EdgeId]) {
    if db.is_empty() || !state.limits.allows(suffix.len() + 1) {
        return;
    }
    let tree = FpTree::build(db, state.minsup);
    let bytes = tree.heap_bytes();
    state.tree_built(bytes);

    // Items are processed in reverse canonical order (bottom-up): every
    // frequent item extends the suffix, and its conditional pattern base
    // (which only contains smaller items) is mined recursively.
    let items: Vec<(EdgeId, Support)> = tree.items().collect();
    for &(item, support) in items.iter().rev() {
        if support < state.minsup {
            continue;
        }
        let mut found = Vec::with_capacity(suffix.len() + 1);
        found.push(item);
        found.extend_from_slice(suffix);
        state.sets.push((found.clone(), support));

        if state.limits.allows(found.len() + 1) {
            let conditional = tree.conditional_pattern_base(item);
            if !conditional.is_empty() {
                mine_db(&conditional, state, &found);
            }
        }
    }

    state.tree_dropped(bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort_mined;

    fn ids(raw: &[u32]) -> Vec<EdgeId> {
        raw.iter().copied().map(EdgeId::new).collect()
    }

    /// {a}-projected database of the paper's Example 2.
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
    fn reproduces_example_2_frequent_sets() {
        // With minsup 2 the paper finds, inside the {a}-projected database:
        // {c}:4, {c,d}:2, {c,d,f}:2, {c,f}:3, {d}:3, {d,f}:3, {f}:4.
        let outcome = mine_recursive(&example_db(), 2, MiningLimits::UNBOUNDED);
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
    fn footprint_counts_multiple_simultaneous_trees() {
        let outcome = mine_recursive(&example_db(), 2, MiningLimits::UNBOUNDED);
        assert!(outcome.footprint.trees_built >= 3);
        assert!(
            outcome.footprint.peak_trees >= 2,
            "recursive mining keeps conditional trees alive alongside their parent"
        );
        assert!(outcome.footprint.peak_tree_bytes > 0);
    }

    #[test]
    fn minsup_one_returns_every_itemset() {
        let db: ProjectedDb = vec![(ids(&[0, 1]), 1), (ids(&[0]), 1)];
        let outcome = mine_recursive(&db, 1, MiningLimits::UNBOUNDED);
        let got = sort_mined(outcome.sets);
        assert_eq!(
            got,
            sort_mined(vec![(ids(&[0]), 2), (ids(&[0, 1]), 1), (ids(&[1]), 1)])
        );
    }

    #[test]
    fn max_len_limits_pattern_cardinality() {
        let outcome = mine_recursive(&example_db(), 2, MiningLimits::with_max_len(2));
        assert!(outcome.sets.iter().all(|(s, _)| s.len() <= 2));
        assert!(outcome.sets.iter().any(|(s, _)| s.len() == 2));
    }

    #[test]
    fn empty_database_yields_nothing() {
        let outcome = mine_recursive(&ProjectedDb::new(), 2, MiningLimits::UNBOUNDED);
        assert!(outcome.sets.is_empty());
        assert_eq!(outcome.footprint.trees_built, 0);
    }

    #[test]
    fn high_minsup_filters_everything() {
        let outcome = mine_recursive(&example_db(), 100, MiningLimits::UNBOUNDED);
        assert!(outcome.sets.is_empty());
    }

    #[test]
    fn merge_sequential_combines_footprints() {
        let mut a = Footprint {
            trees_built: 2,
            peak_trees: 2,
            peak_tree_bytes: 100,
        };
        let b = Footprint {
            trees_built: 3,
            peak_trees: 1,
            peak_tree_bytes: 400,
        };
        a.merge_sequential(&b);
        assert_eq!(a.trees_built, 5);
        assert_eq!(a.peak_trees, 2);
        assert_eq!(a.peak_tree_bytes, 400);
    }
}
