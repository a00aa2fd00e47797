//! The edge catalog: vertex incidence (Table 1) and edge neighbourhoods
//! (Table 2) of the paper.

use std::collections::BTreeMap;

use crate::edge::{Edge, EdgeId};
use crate::error::{FsmError, Result};
use crate::vertex::VertexId;

/// The vocabulary of distinct edges observed (or declared) for a graph stream.
///
/// The catalog serves three purposes, mirroring the paper's two lookup tables:
///
/// * it assigns every distinct vertex pair a canonical [`EdgeId`] (the item
///   symbol used by every capture structure),
/// * it answers *which vertices does edge `x` connect?* (Table 1, used by the
///   connectivity post-processing step of §3.5), and
/// * it answers *which edges neighbour edge `x`?* (Table 2, used by the direct
///   connected mining algorithm of §4).
///
/// The catalog can be built up-front (when the vertex universe is known, as in
/// the paper's generator) or incrementally while streaming via
/// [`EdgeCatalog::intern`].
#[derive(Debug, Clone, Default)]
pub struct EdgeCatalog {
    edges: Vec<Edge>,
    by_endpoints: BTreeMap<(VertexId, VertexId), EdgeId>,
    /// `neighbors[e]` lists every edge sharing an endpoint with `e`, in
    /// ascending canonical order.
    neighbors: Vec<Vec<EdgeId>>,
    /// `incident[v]` lists every edge incident to vertex `v`.
    incident: BTreeMap<VertexId, Vec<EdgeId>>,
}

impl EdgeCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the catalog of a complete graph over `n` vertices, assigning
    /// edge identifiers in lexicographic endpoint order.
    ///
    /// The running example of the paper uses the complete graph over
    /// `v1..v4`, which yields exactly the edge symbols `a..f` of Figure 1.
    pub fn complete(n: u32) -> Self {
        let mut catalog = Self::new();
        for u in 1..=n {
            for v in (u + 1)..=n {
                catalog.intern(VertexId::new(u), VertexId::new(v));
            }
        }
        catalog
    }

    /// Builds the catalog of a path graph with `n` edges: edge `i` joins
    /// vertices `i + 1` and `i + 2`, so consecutive identifiers are adjacent
    /// edges.
    ///
    /// This is the FIMI convention: an item universe (Quest, connect4-like
    /// dense streams) mapped onto a path keeps "connected" well defined
    /// without changing the items' co-occurrence structure.
    pub fn path(n: u32) -> Self {
        Self::from_pairs((0..n).map(|i| (VertexId::new(i + 1), VertexId::new(i + 2))))
    }

    /// Builds a catalog from an explicit list of vertex pairs, preserving the
    /// list order as canonical order.
    pub fn from_pairs<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut catalog = Self::new();
        for (u, v) in pairs {
            catalog.intern(u, v);
        }
        catalog
    }

    /// Returns the identifier for the edge `(u, v)`, creating it if this
    /// vertex pair has never been seen.  Endpoint order is irrelevant.
    pub fn intern(&mut self, u: VertexId, v: VertexId) -> EdgeId {
        let key = if u <= v { (u, v) } else { (v, u) };
        if let Some(&id) = self.by_endpoints.get(&key) {
            return id;
        }
        let id = EdgeId::new(self.edges.len() as u32);
        let edge = Edge::new(id, key.0, key.1);

        // Wire the neighbourhood lists: the new edge neighbours every existing
        // edge incident to either endpoint.  The two endpoints' lists share
        // no edge — only `key` itself would join both, and it is not in the
        // catalog yet — so nothing needs deduplicating; a self-loop has one
        // endpoint and walks its list once.
        let endpoints: &[VertexId] = if key.0 == key.1 {
            &[key.0]
        } else {
            &[key.0, key.1]
        };
        let mut new_neighbors = Vec::new();
        for endpoint in endpoints {
            for &other in self.incident.get(endpoint).into_iter().flatten() {
                new_neighbors.push(other);
                self.neighbors[other.index()].push(id);
            }
        }
        new_neighbors.sort_unstable();

        self.by_endpoints.insert(key, id);
        self.incident.entry(key.0).or_default().push(id);
        if key.0 != key.1 {
            self.incident.entry(key.1).or_default().push(id);
        }
        self.neighbors.push(new_neighbors);
        self.edges.push(edge);
        id
    }

    /// Looks up the identifier of the edge `(u, v)` without creating it.
    pub fn lookup(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        let key = if u <= v { (u, v) } else { (v, u) };
        self.by_endpoints.get(&key).copied()
    }

    /// Returns the edge with identifier `id`.
    pub fn edge(&self, id: EdgeId) -> Result<Edge> {
        self.edges
            .get(id.index())
            .copied()
            .ok_or(FsmError::UnknownEdge { edge: id.0 })
    }

    /// Returns the endpoints of edge `id` (the paper's Table 1 lookup).
    pub fn endpoints(&self, id: EdgeId) -> Result<(VertexId, VertexId)> {
        self.edge(id).map(|e| e.endpoints())
    }

    /// Returns the neighbouring edges of `id` in ascending canonical order
    /// (the paper's Table 2 lookup).
    pub fn neighbors(&self, id: EdgeId) -> Result<&[EdgeId]> {
        self.neighbors
            .get(id.index())
            .map(Vec::as_slice)
            .ok_or(FsmError::UnknownEdge { edge: id.0 })
    }

    /// Returns the edges incident to `vertex`, if the vertex has been seen.
    pub fn incident_edges(&self, vertex: VertexId) -> &[EdgeId] {
        self.incident.get(&vertex).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Returns `true` if edges `a` and `b` share an endpoint.
    pub fn are_adjacent(&self, a: EdgeId, b: EdgeId) -> bool {
        match (self.edges.get(a.index()), self.edges.get(b.index())) {
            (Some(ea), Some(eb)) => ea.is_adjacent_to(eb),
            _ => false,
        }
    }

    /// Number of distinct edges interned so far (the domain size `m`).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of distinct vertices seen so far.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.incident.len()
    }

    /// Iterates over all interned edges in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &Edge> {
        self.edges.iter()
    }

    /// Returns all edge identifiers in canonical order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId::new)
    }

    /// Approximate resident size of the catalog in bytes, used by the space
    /// experiment to account for auxiliary lookup tables.
    pub fn resident_bytes(&self) -> usize {
        let edge_bytes = self.edges.len() * std::mem::size_of::<Edge>();
        let neighbor_bytes: usize = self
            .neighbors
            .iter()
            .map(|n| n.len() * std::mem::size_of::<EdgeId>())
            .sum();
        let incident_bytes: usize = self
            .incident
            .values()
            .map(|n| n.len() * std::mem::size_of::<EdgeId>() + std::mem::size_of::<VertexId>())
            .sum();
        let map_bytes = self.by_endpoints.len()
            * (std::mem::size_of::<(VertexId, VertexId)>() + std::mem::size_of::<EdgeId>());
        edge_bytes + neighbor_bytes + incident_bytes + map_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalog of the paper's running example: complete graph over
    /// v1..v4, edges a..f in lexicographic order.
    fn paper_catalog() -> EdgeCatalog {
        EdgeCatalog::complete(4)
    }

    fn id(sym: char) -> EdgeId {
        EdgeId::new(sym as u32 - 'a' as u32)
    }

    #[test]
    fn complete_graph_matches_paper_table_1() {
        let cat = paper_catalog();
        assert_eq!(cat.num_edges(), 6);
        assert_eq!(cat.num_vertices(), 4);
        let expect = [
            ('a', (1, 2)),
            ('b', (1, 3)),
            ('c', (1, 4)),
            ('d', (2, 3)),
            ('e', (2, 4)),
            ('f', (3, 4)),
        ];
        for (sym, (u, v)) in expect {
            let (eu, ev) = cat.endpoints(id(sym)).unwrap();
            assert_eq!((eu.0, ev.0), (u, v), "edge {sym}");
        }
    }

    #[test]
    fn neighborhoods_match_paper_table_2() {
        let cat = paper_catalog();
        let expect = [
            ('a', "bcde"),
            ('b', "acdf"),
            ('c', "abef"),
            ('d', "abef"),
            ('e', "acdf"),
            ('f', "bcde"),
        ];
        for (sym, neigh) in expect {
            let mut got: Vec<String> = cat
                .neighbors(id(sym))
                .unwrap()
                .iter()
                .map(|e| e.symbol())
                .collect();
            got.sort();
            let want: Vec<String> = neigh.chars().map(|c| c.to_string()).collect();
            assert_eq!(got, want, "neighbors of {sym}");
        }
    }

    #[test]
    fn intern_is_idempotent_and_order_insensitive() {
        let mut cat = EdgeCatalog::new();
        let first = cat.intern(VertexId::new(3), VertexId::new(1));
        let second = cat.intern(VertexId::new(1), VertexId::new(3));
        assert_eq!(first, second);
        assert_eq!(cat.num_edges(), 1);
    }

    #[test]
    fn lookup_does_not_create() {
        let mut cat = EdgeCatalog::new();
        cat.intern(VertexId::new(1), VertexId::new(2));
        assert!(cat.lookup(VertexId::new(2), VertexId::new(1)).is_some());
        assert!(cat.lookup(VertexId::new(1), VertexId::new(3)).is_none());
        assert_eq!(cat.num_edges(), 1);
    }

    #[test]
    fn unknown_edge_is_an_error() {
        let cat = paper_catalog();
        assert!(cat.edge(EdgeId::new(6)).is_err());
        assert!(cat.neighbors(EdgeId::new(99)).is_err());
    }

    #[test]
    fn incident_edges_cover_all_edges_touching_a_vertex() {
        let cat = paper_catalog();
        let mut at_v1: Vec<String> = cat
            .incident_edges(VertexId::new(1))
            .iter()
            .map(|e| e.symbol())
            .collect();
        at_v1.sort();
        assert_eq!(at_v1, vec!["a", "b", "c"]);
        assert!(cat.incident_edges(VertexId::new(9)).is_empty());
    }

    #[test]
    fn adjacency_is_symmetric_and_irreflexive() {
        let cat = paper_catalog();
        for x in cat.edge_ids() {
            assert!(!cat.are_adjacent(x, x));
            for y in cat.edge_ids() {
                assert_eq!(cat.are_adjacent(x, y), cat.are_adjacent(y, x));
            }
        }
    }

    #[test]
    fn from_pairs_preserves_order() {
        let cat = EdgeCatalog::from_pairs(vec![
            (VertexId::new(5), VertexId::new(2)),
            (VertexId::new(1), VertexId::new(2)),
        ]);
        assert_eq!(cat.endpoints(EdgeId::new(0)).unwrap().0, VertexId::new(2));
        assert_eq!(cat.num_edges(), 2);
    }

    /// Every edge's neighbour list equals the brute-force one: the other
    /// edges sharing an endpoint with it, in ascending id order.
    #[test]
    fn neighbor_lists_match_a_brute_force_reference() {
        let v = VertexId::new;
        let with_loops = EdgeCatalog::from_pairs([
            (v(1), v(2)),
            (v(2), v(2)),
            (v(3), v(2)),
            (v(1), v(1)),
            (v(3), v(1)),
            (v(4), v(5)),
        ]);
        for cat in [EdgeCatalog::complete(9), EdgeCatalog::path(12), with_loops] {
            let endpoints: Vec<_> = cat.iter().map(|e| (e.u, e.v)).collect();
            for (x, &(xu, xv)) in endpoints.iter().enumerate() {
                let expected: Vec<EdgeId> = (0..endpoints.len())
                    .filter(|&y| y != x)
                    .filter(|&y| {
                        let (yu, yv) = endpoints[y];
                        [yu, yv].contains(&xu) || [yu, yv].contains(&xv)
                    })
                    .map(|y| EdgeId::new(y as u32))
                    .collect();
                let id = EdgeId::new(x as u32);
                assert_eq!(cat.neighbors(id).unwrap(), expected, "edge {x}");
            }
        }
    }

    #[test]
    fn resident_bytes_grows_with_edges() {
        let small = EdgeCatalog::complete(3);
        let large = EdgeCatalog::complete(10);
        assert!(large.resident_bytes() > small.resident_bytes());
    }
}
