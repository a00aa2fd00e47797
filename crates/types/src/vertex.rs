//! Vertex identifiers.

use std::fmt;

/// Identifier of a vertex in the (fixed) vertex universe of the graph stream.
///
/// The paper assumes every graph in the stream is drawn over the same vertex
/// universe (Example 1 uses `v1..v4`); vertices are therefore dense small
/// integers.  `u32` keeps the incidence tables compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Creates a vertex identifier from a raw index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// Returns the raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for VertexId {
    #[inline]
    fn from(raw: u32) -> Self {
        Self(raw)
    }
}

impl From<VertexId> for u32 {
    #[inline]
    fn from(v: VertexId) -> Self {
        v.0
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(VertexId::new(1).to_string(), "v1");
        assert_eq!(VertexId::new(42).to_string(), "v42");
    }

    #[test]
    fn ordering_follows_raw_index() {
        assert!(VertexId::new(1) < VertexId::new(2));
        assert_eq!(VertexId::from(7u32).index(), 7);
        assert_eq!(u32::from(VertexId::new(9)), 9);
    }
}
