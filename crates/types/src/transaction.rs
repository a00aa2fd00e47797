//! Transactions: the edge set of one streamed graph.

use std::fmt;

use crate::codec::Reader;
use crate::edge::EdgeId;
use crate::error::Result;

/// Position of a transaction within the current sliding window (column index
/// of the DSMatrix).
pub type TransactionId = usize;

/// The edge set of a single streamed graph, kept in ascending canonical order
/// with duplicates removed.
///
/// In the paper's terminology this is one "transaction": at time `T4` the
/// streamed graph `E4 = {(v1,v2), (v1,v4), (v2,v3), (v3,v4)}` becomes the
/// transaction `{a, c, d, f}`.  Canonical ordering is what lets every capture
/// structure be built in a single scan without ever reordering its contents.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Transaction {
    edges: Vec<EdgeId>,
}

impl Transaction {
    /// Creates an empty transaction.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a transaction from any collection of edge identifiers, sorting
    /// and deduplicating them.
    pub fn from_edges<I>(edges: I) -> Self
    where
        I: IntoIterator<Item = EdgeId>,
    {
        let mut edges: Vec<EdgeId> = edges.into_iter().collect();
        edges.sort_unstable();
        edges.dedup();
        Self { edges }
    }

    /// Builds a transaction from raw `u32` identifiers (convenience for tests
    /// and generators).
    pub fn from_raw<I>(raw: I) -> Self
    where
        I: IntoIterator<Item = u32>,
    {
        Self::from_edges(raw.into_iter().map(EdgeId::new))
    }

    /// A transaction of `count` ids read from `reader`, which must already
    /// be canonical (strictly increasing, see
    /// [`Reader::take_canonical_edges`]): read into place, never re-sorted.
    pub fn read_canonical(reader: &mut Reader<'_>, count: usize) -> Result<Self> {
        let mut edges = Vec::new();
        reader.take_canonical_edges(count, &mut edges)?;
        Ok(Self { edges })
    }

    /// Adds an edge, keeping the canonical order invariant.
    pub fn insert(&mut self, edge: EdgeId) {
        match self.edges.binary_search(&edge) {
            Ok(_) => {}
            Err(pos) => self.edges.insert(pos, edge),
        }
    }

    /// Returns `true` if the transaction contains `edge`.
    pub fn contains(&self, edge: EdgeId) -> bool {
        self.edges.binary_search(&edge).is_ok()
    }

    /// The edges in ascending canonical order.
    #[inline]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Number of edges in the transaction.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the transaction has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Iterates over the edges in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges.iter().copied()
    }

    /// Returns the edges strictly after `pivot` in canonical order — the
    /// "extract the column downwards" operation the paper uses to form
    /// `{x}`-projected databases from the DSMatrix.
    pub fn suffix_after(&self, pivot: EdgeId) -> &[EdgeId] {
        match self.edges.binary_search(&pivot) {
            Ok(pos) => &self.edges[pos + 1..],
            Err(pos) => &self.edges[pos..],
        }
    }

    /// Returns `true` if every edge of `other` is contained in `self`.
    pub fn contains_all(&self, other: &[EdgeId]) -> bool {
        other.iter().all(|e| self.contains(*e))
    }
}

impl FromIterator<EdgeId> for Transaction {
    fn from_iter<I: IntoIterator<Item = EdgeId>>(iter: I) -> Self {
        Self::from_edges(iter)
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_and_dedups() {
        let t = Transaction::from_raw([5, 0, 3, 0, 5]);
        assert_eq!(t.edges(), &[EdgeId::new(0), EdgeId::new(3), EdgeId::new(5)]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn insert_preserves_order_and_uniqueness() {
        let mut t = Transaction::new();
        t.insert(EdgeId::new(4));
        t.insert(EdgeId::new(1));
        t.insert(EdgeId::new(4));
        assert_eq!(t.edges(), &[EdgeId::new(1), EdgeId::new(4)]);
    }

    #[test]
    fn contains_and_contains_all() {
        let t = Transaction::from_raw([0, 2, 3, 5]);
        assert!(t.contains(EdgeId::new(2)));
        assert!(!t.contains(EdgeId::new(4)));
        assert!(t.contains_all(&[EdgeId::new(0), EdgeId::new(5)]));
        assert!(!t.contains_all(&[EdgeId::new(0), EdgeId::new(4)]));
    }

    #[test]
    fn suffix_after_matches_paper_projection() {
        // E4 = {a, c, d, f}: projecting on `a` extracts {c, d, f}.
        let t = Transaction::from_raw([0, 2, 3, 5]);
        let suffix: Vec<String> = t
            .suffix_after(EdgeId::new(0))
            .iter()
            .map(|e| e.symbol())
            .collect();
        assert_eq!(suffix, vec!["c", "d", "f"]);
        // Projecting on an absent pivot keeps everything after its slot.
        let suffix: Vec<String> = t
            .suffix_after(EdgeId::new(1))
            .iter()
            .map(|e| e.symbol())
            .collect();
        assert_eq!(suffix, vec!["c", "d", "f"]);
        // Projecting on the last edge yields an empty suffix.
        assert!(t.suffix_after(EdgeId::new(5)).is_empty());
    }

    #[test]
    fn display_uses_symbols() {
        let t = Transaction::from_raw([0, 2, 5]);
        assert_eq!(t.to_string(), "{a,c,f}");
    }

    #[test]
    fn empty_transaction_behaviour() {
        let t = Transaction::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.suffix_after(EdgeId::new(0)).is_empty());
        assert_eq!(t.to_string(), "{}");
    }
}
