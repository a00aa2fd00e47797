//! The FP-tree structure itself.

use std::collections::BTreeMap;
use std::fmt;

use fsm_types::{EdgeId, Support};

use crate::ProjectedDb;

/// Index of a node inside the arena; the root is always index 0.
pub type NodeIdx = usize;

/// One FP-tree node: an item, its accumulated count and its tree links.
#[derive(Debug, Clone)]
pub struct FpNode {
    /// Item labelling this node (meaningless for the root).
    pub item: EdgeId,
    /// Number of window transactions flowing through this node.
    pub count: Support,
    /// Parent node (the root is its own parent).
    pub parent: NodeIdx,
    /// Children in insertion order.
    pub children: Vec<NodeIdx>,
}

/// An FP-tree over canonical-order transactions.
///
/// Unlike the classic FP-growth presentation, items are *not* reordered by
/// frequency: the paper keeps every structure in a fixed canonical order so
/// that stream updates never cause node merges or splits.  A path from the
/// root therefore visits items in ascending [`EdgeId`] order.
#[derive(Debug, Clone)]
pub struct FpTree {
    nodes: Vec<FpNode>,
    /// Node-links per item (the header table), in canonical order.
    header: BTreeMap<EdgeId, Vec<NodeIdx>>,
    /// Total support per item in this tree.
    item_support: BTreeMap<EdgeId, Support>,
}

impl Default for FpTree {
    fn default() -> Self {
        Self::new()
    }
}

impl FpTree {
    /// Creates an empty tree (just the root sentinel).
    pub fn new() -> Self {
        Self {
            nodes: vec![FpNode {
                item: EdgeId::new(u32::MAX),
                count: 0,
                parent: 0,
                children: Vec::new(),
            }],
            header: BTreeMap::new(),
            item_support: BTreeMap::new(),
        }
    }

    /// Builds a tree from a projected database, keeping only items whose total
    /// support reaches `min_item_support` (pass 0 or 1 to keep everything).
    ///
    /// Pruning locally infrequent items before insertion is what keeps the
    /// conditional trees of FP-growth small; the counts of surviving items are
    /// unaffected because support is anti-monotone.
    pub fn build(db: &ProjectedDb, min_item_support: Support) -> Self {
        let mut totals: BTreeMap<EdgeId, Support> = BTreeMap::new();
        for (items, count) in db {
            for &item in items {
                *totals.entry(item).or_insert(0) += count;
            }
        }
        let mut tree = Self::new();
        let mut filtered: Vec<EdgeId> = Vec::new();
        for (items, count) in db {
            filtered.clear();
            filtered.extend(
                items
                    .iter()
                    .copied()
                    .filter(|i| totals.get(i).copied().unwrap_or(0) >= min_item_support.max(1)),
            );
            if !filtered.is_empty() {
                tree.insert(&filtered, *count);
            }
        }
        tree
    }

    /// Inserts one canonical-order transaction with the given weight.
    pub fn insert(&mut self, items: &[EdgeId], count: Support) {
        if count == 0 || items.is_empty() {
            return;
        }
        let mut current = 0;
        for &item in items {
            let child = self.nodes[current]
                .children
                .iter()
                .copied()
                .find(|&c| self.nodes[c].item == item);
            let node = match child {
                Some(existing) => {
                    self.nodes[existing].count += count;
                    existing
                }
                None => {
                    let idx = self.nodes.len();
                    self.nodes.push(FpNode {
                        item,
                        count,
                        parent: current,
                        children: Vec::new(),
                    });
                    self.nodes[current].children.push(idx);
                    self.header.entry(item).or_default().push(idx);
                    idx
                }
            };
            *self.item_support.entry(item).or_insert(0) += count;
            current = node;
        }
    }

    /// Returns the node arena (root at index 0).
    pub fn nodes(&self) -> &[FpNode] {
        &self.nodes
    }

    /// Returns the node-link list of `item` (empty if absent).
    pub fn node_links(&self, item: EdgeId) -> &[NodeIdx] {
        self.header.get(&item).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total support of `item` inside this tree.
    pub fn item_support(&self, item: EdgeId) -> Support {
        self.item_support.get(&item).copied().unwrap_or(0)
    }

    /// Items present in the tree, in canonical order, with their supports.
    pub fn items(&self) -> impl Iterator<Item = (EdgeId, Support)> + '_ {
        self.item_support.iter().map(|(&i, &s)| (i, s))
    }

    /// Returns `true` if the tree holds no item nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// The path of items from the root down to `node` (exclusive of the root,
    /// inclusive of `node`), in canonical order.
    pub fn path_to(&self, node: NodeIdx) -> Vec<EdgeId> {
        let mut path = Vec::new();
        let mut current = node;
        while current != 0 {
            path.push(self.nodes[current].item);
            current = self.nodes[current].parent;
        }
        path.reverse();
        path
    }

    /// The conditional pattern base of `item`: for every node labelled `item`,
    /// the prefix path above it (excluding `item`) weighted by that node's
    /// count.  This is the input FP-growth uses to build conditional trees.
    pub fn conditional_pattern_base(&self, item: EdgeId) -> ProjectedDb {
        let mut db = ProjectedDb::new();
        for &node in self.node_links(item) {
            let count = self.nodes[node].count;
            let mut prefix = self.path_to(node);
            prefix.pop(); // drop `item` itself
            if !prefix.is_empty() {
                db.push((prefix, count));
            }
        }
        db
    }

    /// Estimated heap bytes of the tree — its nodes, their child lists and
    /// the header table's node-links — what the space experiment charges a
    /// built FP-tree.
    pub fn heap_bytes(&self) -> usize {
        let node_bytes = self.nodes.len() * std::mem::size_of::<FpNode>();
        let child_bytes: usize = self
            .nodes
            .iter()
            .map(|n| n.children.len() * std::mem::size_of::<NodeIdx>())
            .sum();
        let header_bytes: usize = self
            .header
            .values()
            .map(|links| {
                links.len() * std::mem::size_of::<NodeIdx>() + std::mem::size_of::<EdgeId>()
            })
            .sum();
        node_bytes + child_bytes + header_bytes
    }
}

impl fmt::Display for FpTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(
            tree: &FpTree,
            node: NodeIdx,
            depth: usize,
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            if node != 0 {
                writeln!(
                    f,
                    "{}{}:{}",
                    "  ".repeat(depth - 1),
                    tree.nodes[node].item,
                    tree.nodes[node].count
                )?;
            }
            for &child in &tree.nodes[node].children {
                rec(tree, child, depth + 1, f)?;
            }
            Ok(())
        }
        rec(self, 0, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u32]) -> Vec<EdgeId> {
        raw.iter().copied().map(EdgeId::new).collect()
    }

    /// The {a}-projected database of the paper's Example 2:
    /// {c,d,f}, {d,e,f}, {b,c}, {c,f}, {c,d,f}.
    fn example_2_projected_db() -> ProjectedDb {
        vec![
            (ids(&[2, 3, 5]), 1),
            (ids(&[3, 4, 5]), 1),
            (ids(&[1, 2]), 1),
            (ids(&[2, 5]), 1),
            (ids(&[2, 3, 5]), 1),
        ]
    }

    #[test]
    fn empty_tree() {
        let tree = FpTree::new();
        assert!(tree.is_empty());
        assert_eq!(tree.nodes.len() - 1, 0);
        assert_eq!(tree.item_support(EdgeId::new(0)), 0);
        assert!(tree.node_links(EdgeId::new(0)).is_empty());
    }

    #[test]
    fn insert_shares_prefixes() {
        let mut tree = FpTree::new();
        tree.insert(&ids(&[2, 3, 5]), 1);
        tree.insert(&ids(&[2, 3]), 2);
        tree.insert(&ids(&[2, 5]), 1);
        // Nodes: c (shared), d, f, f — four item nodes.
        assert_eq!(tree.nodes.len() - 1, 4);
        assert_eq!(tree.item_support(EdgeId::new(2)), 4);
        assert_eq!(tree.item_support(EdgeId::new(3)), 3);
        assert_eq!(tree.item_support(EdgeId::new(5)), 2);
        assert_eq!(tree.node_links(EdgeId::new(5)).len(), 2);
    }

    #[test]
    fn zero_count_and_empty_transactions_are_ignored() {
        let mut tree = FpTree::new();
        tree.insert(&ids(&[1, 2]), 0);
        tree.insert(&[], 5);
        assert!(tree.is_empty());
    }

    #[test]
    fn build_matches_paper_example_3_item_supports() {
        // The FP-tree for the {a}-projected database of Example 3 carries the
        // item supports c:4, f:4, d:3, b:1, e:1.  (The paper draws the local
        // tree in frequency order; we keep canonical order throughout — the
        // shape differs, the supports and the mined results do not.)
        let tree = FpTree::build(&example_2_projected_db(), 1);
        assert_eq!(tree.item_support(EdgeId::new(2)), 4, "support of c");
        assert_eq!(tree.item_support(EdgeId::new(5)), 4, "support of f");
        assert_eq!(tree.item_support(EdgeId::new(3)), 3, "support of d");
        assert_eq!(tree.item_support(EdgeId::new(1)), 1, "support of b");
        assert_eq!(tree.item_support(EdgeId::new(4)), 1, "support of e");
        // In canonical order c heads two branches (under the root and under b)
        // and the shared c,d,f prefix carries weight 2.
        assert_eq!(tree.node_links(EdgeId::new(2)).len(), 2);
        let rendered = tree.to_string();
        assert!(rendered.contains("c:3"), "tree was:\n{rendered}");
        assert!(rendered.contains("d:2"), "tree was:\n{rendered}");
        assert!(rendered.contains("b:1"), "tree was:\n{rendered}");
    }

    #[test]
    fn build_prunes_locally_infrequent_items() {
        let tree = FpTree::build(&example_2_projected_db(), 2);
        // b occurs once only; with min item support 2 it disappears.
        assert_eq!(tree.item_support(EdgeId::new(1)), 0);
        assert!(tree.node_links(EdgeId::new(1)).is_empty());
        // The others keep their counts.
        assert_eq!(tree.item_support(EdgeId::new(2)), 4);
    }

    #[test]
    fn conditional_pattern_base_collects_weighted_prefixes() {
        let tree = FpTree::build(&example_2_projected_db(), 1);
        // In canonical order, f sits below ⟨c,d⟩ (weight 2), below ⟨c⟩
        // (weight 1) and below ⟨d,e⟩ (weight 1).
        let mut base = tree.conditional_pattern_base(EdgeId::new(5));
        base.sort();
        assert_eq!(
            base,
            vec![(ids(&[2]), 1), (ids(&[2, 3]), 2), (ids(&[3, 4]), 1)],
        );
        // Prefix paths of b: none (b sits directly under the root).
        assert!(tree.conditional_pattern_base(EdgeId::new(1)).is_empty());
    }

    #[test]
    fn path_to_returns_canonical_order() {
        let tree = FpTree::build(&example_2_projected_db(), 1);
        let d_nodes = tree.node_links(EdgeId::new(3));
        let paths: Vec<Vec<EdgeId>> = d_nodes.iter().map(|&n| tree.path_to(n)).collect();
        assert!(!paths.is_empty());
        for path in paths {
            assert_eq!(*path.last().unwrap(), EdgeId::new(3));
            for pair in path.windows(2) {
                assert!(pair[0] < pair[1], "paths are strictly ascending");
            }
        }
    }

    #[test]
    fn heap_bytes_count_nodes_links_and_headers() {
        let tree = FpTree::build(&example_2_projected_db(), 1);
        assert!(
            tree.nodes.len() > 6,
            "six item nodes below the root, at least"
        );
        assert!(tree.heap_bytes() > FpTree::new().heap_bytes());
    }
}
