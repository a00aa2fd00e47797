//! Edge identifiers and labelled edges.

use std::fmt;

use crate::vertex::VertexId;

/// Identifier of a *distinct* edge (a vertex pair) in the graph stream.
///
/// Edge identifiers double as the "items" of the transaction-style mining
/// substrate: the paper maps the six possible edges of its running example to
/// the symbols `a..f` and then treats each streamed graph as the itemset of
/// edge symbols it contains.  Identifiers are assigned in *canonical order*
/// (the order used by every capture structure), so `EdgeId(0)` is the first
/// edge in canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Creates an edge identifier from a raw canonical index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// Returns the raw canonical index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Renders the identifier using the paper's `a, b, c, …` notation when the
    /// index is small enough, falling back to `e<idx>` otherwise.
    pub fn symbol(self) -> String {
        if self.0 < 26 {
            char::from(b'a' + self.0 as u8).to_string()
        } else {
            format!("e{}", self.0)
        }
    }
}

impl From<u32> for EdgeId {
    #[inline]
    fn from(raw: u32) -> Self {
        Self(raw)
    }
}

impl From<EdgeId> for u32 {
    #[inline]
    fn from(e: EdgeId) -> Self {
        e.0
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// A labelled, undirected edge: an identifier plus its two endpoints.
///
/// Endpoints are stored in ascending order so that two edges over the same
/// vertex pair compare equal regardless of construction order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Canonical identifier of the edge.
    pub id: EdgeId,
    /// Smaller endpoint.
    pub u: VertexId,
    /// Larger endpoint.
    pub v: VertexId,
}

impl Edge {
    /// Creates an edge, normalising the endpoint order.
    pub fn new(id: EdgeId, a: VertexId, b: VertexId) -> Self {
        let (u, v) = if a <= b { (a, b) } else { (b, a) };
        Self { id, u, v }
    }

    /// Returns both endpoints as a pair `(min, max)`.
    #[inline]
    pub const fn endpoints(&self) -> (VertexId, VertexId) {
        (self.u, self.v)
    }

    /// Returns `true` if `vertex` is one of the two endpoints.
    #[inline]
    pub fn is_incident_to(&self, vertex: VertexId) -> bool {
        self.u == vertex || self.v == vertex
    }

    /// Returns `true` if this edge shares at least one endpoint with `other`.
    ///
    /// Two distinct edges that share an endpoint are *neighbours* in the sense
    /// of the paper's Table 2; a self-comparison returns `false` because an
    /// edge is not its own neighbour.
    pub fn is_adjacent_to(&self, other: &Edge) -> bool {
        if self.id == other.id {
            return false;
        }
        self.is_incident_to(other.u) || self.is_incident_to(other.v)
    }

    /// Returns `true` if the edge is a self-loop (both endpoints equal).
    #[inline]
    pub fn is_loop(&self) -> bool {
        self.u == self.v
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}≡({},{})", self.id, self.u, self.v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(id: u32, u: u32, v: u32) -> Edge {
        Edge::new(EdgeId::new(id), VertexId::new(u), VertexId::new(v))
    }

    #[test]
    fn symbols_match_paper_notation() {
        assert_eq!(EdgeId::new(0).symbol(), "a");
        assert_eq!(EdgeId::new(5).symbol(), "f");
        assert_eq!(EdgeId::new(25).symbol(), "z");
        assert_eq!(EdgeId::new(26).symbol(), "e26");
    }

    #[test]
    fn endpoints_are_normalised() {
        let edge = e(0, 4, 1);
        assert_eq!(edge.endpoints(), (VertexId::new(1), VertexId::new(4)));
    }

    #[test]
    fn incidence_and_adjacency() {
        // Paper Table 1: a=(v1,v2), d=(v2,v3), f=(v3,v4).
        let a = e(0, 1, 2);
        let d = e(3, 2, 3);
        let f = e(5, 3, 4);
        assert!(a.is_incident_to(VertexId::new(1)));
        assert!(!a.is_incident_to(VertexId::new(3)));
        assert!(a.is_adjacent_to(&d), "a and d share v2");
        assert!(d.is_adjacent_to(&f), "d and f share v3");
        assert!(!a.is_adjacent_to(&f), "a and f are disjoint (Table 2)");
    }

    #[test]
    fn edge_is_not_its_own_neighbour() {
        let a = e(0, 1, 2);
        assert!(!a.is_adjacent_to(&a));
    }

    #[test]
    fn loop_detection() {
        assert!(e(0, 3, 3).is_loop());
        assert!(!e(0, 3, 4).is_loop());
    }

    #[test]
    fn display_formats() {
        let a = e(0, 1, 2);
        assert_eq!(a.to_string(), "a≡(v1,v2)");
    }
}
