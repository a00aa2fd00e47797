//! Frequent patterns: collections of co-occurring edges and their supports.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::catalog::EdgeCatalog;
use crate::codec::Reader;
use crate::edge::EdgeId;
use crate::error::Result;
use crate::vertex::VertexId;

/// Support (frequency) of a pattern within the current sliding window.
pub type Support = u64;

/// Most ids an [`EdgeSet`] holds in place: seven `u32` ids (28 bytes), the
/// length byte and the variant tag fill 32 bytes, the size a spilled `Vec`'s
/// three words and the tag take anyway.  An eighth id would grow every set.
const INLINE: usize = 7;

/// A set of edge identifiers in ascending canonical order.
///
/// This is the pattern language of the paper: a *collection of co-occurring
/// edges*, e.g. `{a, c, d, f}`.  Whether the collection forms a connected
/// subgraph is a property judged against an [`EdgeCatalog`].
///
/// A set of up to seven ids — every pattern a dense mine returns has three
/// at most — is stored in place, so building, cloning, decoding and dropping
/// it allocates nothing; a larger set spills to the heap.  Seven is what a
/// 32-byte value holds beside its length and variant tag.  Equality, order,
/// hashing and `Debug` are those of the id slice ([`EdgeSet::edges`]),
/// whichever way it is stored.
#[derive(Clone, Default)]
pub struct EdgeSet {
    ids: Ids,
}

/// An [`EdgeSet`]'s storage.  A set of [`INLINE`] or fewer ids is always
/// `Inline`, so the variant is a function of the length.
#[derive(Clone)]
enum Ids {
    /// The first `len` of `ids`; the rest are filler.
    Inline { len: u8, ids: [EdgeId; INLINE] },
    /// More than [`INLINE`] ids.
    Heap(Vec<EdgeId>),
}

impl Default for Ids {
    fn default() -> Self {
        Ids::Inline {
            len: 0,
            ids: [EdgeId(0); INLINE],
        }
    }
}

impl EdgeSet {
    /// Creates an empty edge set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an edge set from any collection of identifiers, sorting and
    /// deduplicating.
    pub fn from_edges<I>(edges: I) -> Self
    where
        I: IntoIterator<Item = EdgeId>,
    {
        let mut edges = edges.into_iter();
        let mut set = Self::new();
        // In place, each id is inserted at its slot; once the set spills,
        // the rest are sorted in bulk.
        while matches!(set.ids, Ids::Inline { .. }) {
            match edges.next() {
                Some(edge) => set.insert(edge),
                None => return set,
            }
        }
        if let Ids::Heap(spilled) = &mut set.ids {
            spilled.extend(edges);
            spilled.sort_unstable();
            spilled.dedup();
        }
        set
    }

    /// Builds an edge set from raw `u32` identifiers.
    pub fn from_raw<I>(raw: I) -> Self
    where
        I: IntoIterator<Item = u32>,
    {
        Self::from_edges(raw.into_iter().map(EdgeId::new))
    }

    /// Reads an edge set of `count` ids from `reader`.  The ids must already
    /// be canonical (strictly increasing, see
    /// [`Reader::take_canonical_edges`]); anything else is refused.  Seven or
    /// fewer ids are read straight into place.
    pub fn read_canonical(reader: &mut Reader<'_>, count: usize) -> Result<Self> {
        if count <= INLINE {
            let mut ids = [EdgeId(0); INLINE];
            reader.fill_canonical_edges(&mut ids[..count])?;
            return Ok(Self::inline(count, ids));
        }
        let mut edges = Vec::new();
        reader.take_canonical_edges(count, &mut edges)?;
        Ok(Self {
            ids: Ids::Heap(edges),
        })
    }

    /// Builds a singleton edge set.
    pub fn singleton(edge: EdgeId) -> Self {
        let mut ids = [EdgeId(0); INLINE];
        ids[0] = edge;
        Self::inline(1, ids)
    }

    /// The first `len` (at most [`INLINE`]) of `ids`, which are canonical.
    fn inline(len: usize, ids: [EdgeId; INLINE]) -> Self {
        debug_assert!(len <= INLINE);
        Self {
            ids: Ids::Inline {
                len: len as u8,
                ids,
            },
        }
    }

    /// Returns a new set with `edge` added (no-op if already present).
    pub fn with(&self, edge: EdgeId) -> Self {
        let mut next = self.clone();
        next.insert(edge);
        next
    }

    /// Inserts an edge, keeping canonical order.  The eighth id moves the set
    /// to the heap.
    pub fn insert(&mut self, edge: EdgeId) {
        match &mut self.ids {
            Ids::Inline { len, ids } => {
                // An insertion-sort step over seven ids at most, scanned
                // down from the largest.
                let end = usize::from(*len);
                let mut at = end;
                while at > 0 && ids[at - 1] > edge {
                    at -= 1;
                }
                if at > 0 && ids[at - 1] == edge {
                    return;
                }
                if end == INLINE {
                    let mut spilled = Vec::with_capacity(INLINE + 1);
                    spilled.extend_from_slice(&ids[..at]);
                    spilled.push(edge);
                    spilled.extend_from_slice(&ids[at..]);
                    self.ids = Ids::Heap(spilled);
                    return;
                }
                for slot in (at..end).rev() {
                    ids[slot + 1] = ids[slot];
                }
                ids[at] = edge;
                *len += 1;
            }
            Ids::Heap(edges) => {
                if let Err(pos) = edges.binary_search(&edge) {
                    edges.insert(pos, edge);
                }
            }
        }
    }

    /// Returns `true` if `edge` is a member.
    pub fn contains(&self, edge: EdgeId) -> bool {
        self.edges().binary_search(&edge).is_ok()
    }

    /// The member edges in ascending canonical order.
    #[inline]
    pub fn edges(&self) -> &[EdgeId] {
        match &self.ids {
            Ids::Inline { len, ids } => &ids[..usize::from(*len)],
            Ids::Heap(edges) => edges,
        }
    }

    /// Number of member edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges().len()
    }

    /// Returns `true` if the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges().is_empty()
    }

    /// Iterates over the member edges.
    pub fn iter(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges().iter().copied()
    }

    /// Returns `true` if every member of `self` is also a member of `other`.
    pub fn is_subset_of(&self, other: &EdgeSet) -> bool {
        self.iter().all(|e| other.contains(e))
    }

    /// Decides connectivity of the edge set against a catalog by exact
    /// union–find over edge endpoints.
    ///
    /// Singletons and the empty set are considered connected (the paper only
    /// applies the connectivity test to collections of two or more edges).
    pub fn is_connected(&self, catalog: &EdgeCatalog) -> bool {
        if self.len() <= 1 {
            return true;
        }
        // Union-find over the vertices touched by the member edges.
        let mut verts: Vec<VertexId> = Vec::with_capacity(self.len() * 2);
        let mut pairs: Vec<(VertexId, VertexId)> = Vec::with_capacity(self.len());
        for &e in self.edges() {
            match catalog.endpoints(e) {
                Ok((u, v)) => {
                    verts.push(u);
                    verts.push(v);
                    pairs.push((u, v));
                }
                Err(_) => return false,
            }
        }
        verts.sort_unstable();
        verts.dedup();
        let idx = |v: VertexId| verts.binary_search(&v).expect("vertex interned above");
        let mut parent: Vec<usize> = (0..verts.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (u, v) in pairs {
            let (ru, rv) = (find(&mut parent, idx(u)), find(&mut parent, idx(v)));
            if ru != rv {
                parent[ru] = rv;
            }
        }
        let root = find(&mut parent, 0);
        (1..verts.len()).all(|i| find(&mut parent, i) == root)
    }

    /// Decides connectivity using the paper's §3.5 vertex-frequency rule:
    /// an edge set is declared connected iff *every* member edge has at least
    /// one endpoint incident to two or more member edges.
    ///
    /// The rule is exact for the pattern sizes of the paper's running example
    /// but is a *necessary, not sufficient* condition in general (two disjoint
    /// triangles satisfy it).  It is retained for fidelity and for the
    /// ablation comparing it against the exact union–find check.
    pub fn is_connected_paper_rule(&self, catalog: &EdgeCatalog) -> bool {
        if self.len() <= 1 {
            return true;
        }
        let mut counts: Vec<(VertexId, u32)> = Vec::with_capacity(self.len() * 2);
        let bump = |v: VertexId, counts: &mut Vec<(VertexId, u32)>| match counts
            .iter_mut()
            .find(|(w, _)| *w == v)
        {
            Some((_, c)) => *c += 1,
            None => counts.push((v, 1)),
        };
        for &e in self.edges() {
            let Ok((u, v)) = catalog.endpoints(e) else {
                return false;
            };
            bump(u, &mut counts);
            bump(v, &mut counts);
        }
        let freq = |v: VertexId| {
            counts
                .iter()
                .find(|(w, _)| *w == v)
                .map(|(_, c)| *c)
                .unwrap_or(0)
        };
        self.edges().iter().all(|&e| {
            let (u, v) = catalog.endpoints(e).expect("checked above");
            freq(u) >= 2 || freq(v) >= 2
        })
    }

    /// Renders the set using the paper's `{a,c,f}` symbol notation.
    pub fn symbols(&self) -> String {
        let mut s = String::with_capacity(self.len() * 2 + 2);
        s.push('{');
        for (i, e) in self.edges().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&e.symbol());
        }
        s.push('}');
        s
    }
}

impl PartialEq for EdgeSet {
    fn eq(&self, other: &Self) -> bool {
        self.edges() == other.edges()
    }
}

impl Eq for EdgeSet {}

impl PartialOrd for EdgeSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EdgeSet {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.edges().cmp(other.edges())
    }
}

impl Hash for EdgeSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.edges().hash(state);
    }
}

/// Prints `EdgeSet { edges: [..] }`, whichever way the ids are stored.
impl fmt::Debug for EdgeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EdgeSet")
            .field("edges", &self.edges())
            .finish()
    }
}

impl FromIterator<EdgeId> for EdgeSet {
    fn from_iter<I: IntoIterator<Item = EdgeId>>(iter: I) -> Self {
        Self::from_edges(iter)
    }
}

impl fmt::Display for EdgeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.symbols())
    }
}

/// Classification of a frequent edge collection, used when reporting results
/// of the post-processing algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKind {
    /// Every pair of member edges is linked through shared vertices.
    Connected,
    /// At least one member edge is disconnected from the rest.
    Disconnected,
}

/// A frequent collection of edges together with its support in the current
/// sliding window.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FrequentPattern {
    /// The member edges, in canonical order.
    pub edges: EdgeSet,
    /// Number of window transactions containing every member edge.
    pub support: Support,
}

impl FrequentPattern {
    /// Creates a frequent pattern.
    pub fn new(edges: EdgeSet, support: Support) -> Self {
        Self { edges, support }
    }

    /// Number of member edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the pattern has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Classifies the pattern against a catalog using the exact connectivity
    /// check.
    pub fn kind(&self, catalog: &EdgeCatalog) -> PatternKind {
        if self.edges.is_connected(catalog) {
            PatternKind::Connected
        } else {
            PatternKind::Disconnected
        }
    }
}

impl PartialOrd for FrequentPattern {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FrequentPattern {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.edges
            .cmp(&other.edges)
            .then(self.support.cmp(&other.support))
    }
}

impl fmt::Display for FrequentPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.edges, self.support)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_catalog() -> EdgeCatalog {
        EdgeCatalog::complete(4)
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let s = EdgeSet::from_raw([3, 0, 3, 5]);
        assert_eq!(s.symbols(), "{a,d,f}");
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn seven_ids_fill_a_32_byte_value() {
        assert_eq!(std::mem::size_of::<EdgeSet>(), 32);
        assert_eq!(std::mem::size_of::<FrequentPattern>(), 40);
        // An eighth id would not fit beside the length and the tag.
        assert!((INLINE + 1) * std::mem::size_of::<EdgeId>() + 2 > 32);
    }

    #[test]
    fn with_and_insert_do_not_duplicate() {
        let s = EdgeSet::singleton(EdgeId::new(2));
        let t = s.with(EdgeId::new(0)).with(EdgeId::new(2));
        assert_eq!(t.symbols(), "{a,c}");
        assert!(t.contains(EdgeId::new(0)));
        assert!(!t.contains(EdgeId::new(5)));
    }

    #[test]
    fn subset_relation() {
        let small = EdgeSet::from_raw([0, 2]);
        let big = EdgeSet::from_raw([0, 2, 3]);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(EdgeSet::new().is_subset_of(&small));
    }

    #[test]
    fn connectivity_matches_paper_examples() {
        let cat = paper_catalog();
        // {a,c} = {(v1,v2),(v1,v4)} is connected (Example 6).
        assert!(EdgeSet::from_raw([0, 2]).is_connected(&cat));
        // {a,f} = {(v1,v2),(v3,v4)} is disjoint (Example 6).
        assert!(!EdgeSet::from_raw([0, 5]).is_connected(&cat));
        // {c,d} = {(v1,v4),(v2,v3)} is disjoint (Example 6).
        assert!(!EdgeSet::from_raw([2, 3]).is_connected(&cat));
        // {a,d} = {(v1,v2),(v2,v3)} is connected (§3.5).
        assert!(EdgeSet::from_raw([0, 3]).is_connected(&cat));
        // Singletons and the empty set are trivially connected.
        assert!(EdgeSet::singleton(EdgeId::new(5)).is_connected(&cat));
        assert!(EdgeSet::new().is_connected(&cat));
    }

    #[test]
    fn paper_rule_agrees_on_small_patterns() {
        let cat = paper_catalog();
        for raw in [
            vec![0, 2],
            vec![0, 5],
            vec![2, 3],
            vec![0, 3],
            vec![0, 2, 3, 5],
        ] {
            let set = EdgeSet::from_raw(raw.clone());
            assert_eq!(
                set.is_connected(&cat),
                set.is_connected_paper_rule(&cat),
                "pattern {set}"
            );
        }
    }

    #[test]
    fn paper_rule_is_weaker_than_exact_check_in_general() {
        // Two disjoint triangles over v1..v6: every vertex has degree 2, so the
        // §3.5 rule accepts the union even though it is disconnected.
        let mut cat = EdgeCatalog::new();
        let mut ids = Vec::new();
        for (u, v) in [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)] {
            ids.push(cat.intern(VertexId::new(u), VertexId::new(v)));
        }
        let set = EdgeSet::from_edges(ids);
        assert!(set.is_connected_paper_rule(&cat));
        assert!(!set.is_connected(&cat));
    }

    #[test]
    fn connectivity_of_unknown_edges_is_false() {
        let cat = paper_catalog();
        let set = EdgeSet::from_raw([0, 99]);
        assert!(!set.is_connected(&cat));
        assert!(!set.is_connected_paper_rule(&cat));
    }

    #[test]
    fn pattern_kind_and_display() {
        let cat = paper_catalog();
        let connected = FrequentPattern::new(EdgeSet::from_raw([0, 2]), 4);
        let disjoint = FrequentPattern::new(EdgeSet::from_raw([0, 5]), 4);
        assert_eq!(connected.kind(&cat), PatternKind::Connected);
        assert_eq!(disjoint.kind(&cat), PatternKind::Disconnected);
        assert_eq!(connected.to_string(), "{a,c}:4");
        assert_eq!(connected.len(), 2);
        assert!(!connected.is_empty());
    }

    #[test]
    fn patterns_sort_by_edges_then_support() {
        let mut patterns = [
            FrequentPattern::new(EdgeSet::from_raw([1]), 2),
            FrequentPattern::new(EdgeSet::from_raw([0, 2]), 4),
            FrequentPattern::new(EdgeSet::from_raw([0]), 5),
        ];
        patterns.sort();
        let rendered: Vec<String> = patterns.iter().map(|p| p.to_string()).collect();
        assert_eq!(rendered, vec!["{a}:5", "{a,c}:4", "{b}:2"]);
    }
}
