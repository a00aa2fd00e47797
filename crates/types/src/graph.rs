//! Graph snapshots: the raw (vertex-pair) form of one streamed graph before it
//! is translated into a [`Transaction`] through the edge catalog.

use std::collections::BTreeSet;
use std::fmt;

use crate::catalog::EdgeCatalog;
use crate::error::Result;
use crate::transaction::Transaction;
use crate::vertex::VertexId;

/// One streamed graph expressed as vertex pairs, as produced by a linked-data
/// source or a generator before edge identifiers are assigned.
///
/// A snapshot is an *undirected simple graph*: parallel edges collapse and
/// endpoint order is irrelevant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphSnapshot {
    edges: BTreeSet<(VertexId, VertexId)>,
}

impl GraphSnapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a snapshot from vertex pairs given as raw integers.
    pub fn from_pairs<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut snap = Self::new();
        for (u, v) in pairs {
            snap.add_edge(VertexId::new(u), VertexId::new(v));
        }
        snap
    }

    /// Adds the undirected edge `(u, v)`; returns `true` if it was new.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        let key = if u <= v { (u, v) } else { (v, u) };
        self.edges.insert(key)
    }

    /// Returns `true` if the snapshot contains the undirected edge `(u, v)`.
    pub fn contains_edge(&self, u: VertexId, v: VertexId) -> bool {
        let key = if u <= v { (u, v) } else { (v, u) };
        self.edges.contains(&key)
    }

    /// Number of distinct edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the snapshot has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Iterates over the edges as normalised `(min, max)` vertex pairs.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.edges.iter().copied()
    }

    /// The set of distinct vertices touched by at least one edge.
    pub fn vertices(&self) -> BTreeSet<VertexId> {
        let mut set = BTreeSet::new();
        for &(u, v) in &self.edges {
            set.insert(u);
            set.insert(v);
        }
        set
    }

    /// Translates the snapshot into a transaction over an existing catalog,
    /// failing if an edge has not been declared.
    ///
    /// Use this when the edge vocabulary is fixed up-front (as the paper's
    /// experiments assume); use [`GraphSnapshot::intern_into`] when the
    /// vocabulary grows with the stream.
    pub fn to_transaction(&self, catalog: &EdgeCatalog) -> Result<Transaction> {
        let mut edges = Vec::with_capacity(self.edges.len());
        for &(u, v) in &self.edges {
            let id = catalog
                .lookup(u, v)
                .ok_or(crate::error::FsmError::UnknownVertex { vertex: u.0 })?;
            edges.push(id);
        }
        Ok(Transaction::from_edges(edges))
    }

    /// Translates the snapshot into a transaction, interning any previously
    /// unseen vertex pair into the catalog.
    pub fn intern_into(&self, catalog: &mut EdgeCatalog) -> Transaction {
        Transaction::from_edges(self.edges.iter().map(|&(u, v)| catalog.intern(u, v)))
    }
}

impl fmt::Display for GraphSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (u, v)) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({u},{v})")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_are_undirected_and_deduplicated() {
        let mut g = GraphSnapshot::new();
        assert!(g.add_edge(VertexId::new(2), VertexId::new(1)));
        assert!(!g.add_edge(VertexId::new(1), VertexId::new(2)));
        assert!(g.contains_edge(VertexId::new(1), VertexId::new(2)));
        assert!(g.contains_edge(VertexId::new(2), VertexId::new(1)));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn vertices_collects_both_endpoints() {
        let g = GraphSnapshot::from_pairs([(1, 4), (2, 3), (3, 4)]);
        let verts: Vec<u32> = g.vertices().into_iter().map(|v| v.0).collect();
        assert_eq!(verts, vec![1, 2, 3, 4]);
    }

    #[test]
    fn to_transaction_uses_paper_symbols() {
        // E1 at time T1 = {(v1,v4),(v2,v3),(v3,v4)} = {c, d, f}.
        let catalog = EdgeCatalog::complete(4);
        let g = GraphSnapshot::from_pairs([(1, 4), (2, 3), (3, 4)]);
        let t = g.to_transaction(&catalog).unwrap();
        assert_eq!(t.to_string(), "{c,d,f}");
    }

    #[test]
    fn to_transaction_fails_for_undeclared_edges() {
        let catalog = EdgeCatalog::complete(3);
        let g = GraphSnapshot::from_pairs([(1, 4)]);
        assert!(g.to_transaction(&catalog).is_err());
    }

    #[test]
    fn intern_into_grows_the_catalog() {
        let mut catalog = EdgeCatalog::new();
        let g = GraphSnapshot::from_pairs([(1, 2), (2, 3)]);
        let t = g.intern_into(&mut catalog);
        assert_eq!(t.len(), 2);
        assert_eq!(catalog.num_edges(), 2);
    }

    #[test]
    fn display_lists_normalised_pairs() {
        let g = GraphSnapshot::from_pairs([(4, 1)]);
        assert_eq!(g.to_string(), "{(v1,v4)}");
        assert_eq!(GraphSnapshot::new().to_string(), "{}");
    }
}
