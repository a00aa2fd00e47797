//! FP-tree substrate: the in-memory prefix-tree machinery shared by the
//! horizontal mining algorithms.
//!
//! Three genuinely different mining strategies over the same [`FpTree`]
//! structure are provided, matching the three horizontal algorithms of the
//! paper:
//!
//! * [`growth::mine_recursive`] — classic bottom-up FP-growth that builds a
//!   conditional FP-tree per extension (the paper's first algorithm, §3.1,
//!   keeps *multiple* trees alive at once);
//! * [`subsets::mine_by_subset_enumeration`] — builds a single tree and counts
//!   every node's path subsets during one depth-first traversal (the paper's
//!   second algorithm, §3.2);
//! * [`topdown::mine_top_down`] — builds a single tree and mines it top-down
//!   by recursing over descendant node groups instead of conditional pattern
//!   bases (the paper's third algorithm, §3.3, in the spirit of
//!   TD-FP-growth).
//!
//! All strategies operate on a *projected database*: a weighted list of
//! transactions in canonical edge order.  They return identical frequent
//! itemsets — a fact the integration and property tests assert — while
//! differing in how many trees they materialise, which is precisely what the
//! paper's space experiment measures.
//!
//! # Entry points and threading
//!
//! The strategies are pure functions `(&ProjectedDb, Support, MiningLimits)
//! -> MineOutcome` with no shared mutable state, which is what lets
//! `fsm_core::miners::horizontal` call them from parallel workers (one
//! projected database per pivot edge) under the engine-wide `threads`
//! contract: any worker count, byte-identical results.  This crate itself
//! spawns no threads; keep new strategies pure the same way.  Each
//! [`growth::MineOutcome`] carries the [`growth::Footprint`] (trees built /
//! alive / peak bytes) that the space experiment aggregates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod growth;
pub mod subsets;
pub mod topdown;
pub mod tree;

pub use growth::mine_recursive;
pub use subsets::mine_by_subset_enumeration;
pub use topdown::mine_top_down;
pub use tree::FpTree;

use fsm_types::{EdgeId, Support};

/// A weighted transaction list: each entry is a canonical-order item list and
/// the number of window transactions it represents.
pub type ProjectedDb = Vec<(Vec<EdgeId>, Support)>;

/// A frequent itemset discovered inside a projected database, together with
/// its support.  Item lists are kept in canonical (ascending) order.
pub type MinedSet = (Vec<EdgeId>, Support);

/// Limits applied during mining.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MiningLimits {
    /// Maximum pattern cardinality to enumerate (`None` = unbounded).
    ///
    /// The subset-enumeration strategy is exponential in the tree depth; on
    /// dense workloads (connect4-like) the harness caps the pattern length the
    /// same way for every algorithm so comparisons stay apples-to-apples.
    pub max_pattern_len: Option<usize>,
}

impl MiningLimits {
    /// No limits: enumerate every frequent itemset.
    pub const UNBOUNDED: MiningLimits = MiningLimits {
        max_pattern_len: None,
    };

    /// Caps the pattern cardinality.
    pub fn with_max_len(max_pattern_len: usize) -> Self {
        Self {
            max_pattern_len: Some(max_pattern_len),
        }
    }

    /// Returns `true` if a pattern of `len` items may still be extended.
    #[inline]
    pub fn allows(&self, len: usize) -> bool {
        match self.max_pattern_len {
            Some(max) => len <= max,
            None => true,
        }
    }
}

/// Sorts mined itemsets canonically (by item list, then support) so results
/// from different strategies can be compared verbatim.
pub fn sort_mined(mut sets: Vec<MinedSet>) -> Vec<MinedSet> {
    sets.sort();
    sets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_allow_checks_cardinality() {
        assert!(MiningLimits::UNBOUNDED.allows(100));
        let capped = MiningLimits::with_max_len(3);
        assert!(capped.allows(3));
        assert!(!capped.allows(4));
    }

    #[test]
    fn sort_mined_orders_canonically() {
        let sets = vec![
            (vec![EdgeId::new(1)], 5),
            (vec![EdgeId::new(0), EdgeId::new(2)], 3),
            (vec![EdgeId::new(0)], 7),
        ];
        let sorted = sort_mined(sets);
        assert_eq!(sorted[0].0, vec![EdgeId::new(0)]);
        assert_eq!(sorted[1].0, vec![EdgeId::new(0), EdgeId::new(2)]);
        assert_eq!(sorted[2].0, vec![EdgeId::new(1)]);
    }
}
