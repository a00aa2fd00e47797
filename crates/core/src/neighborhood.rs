//! The neighbourhood algebra of §4 (equations 1 and 2), as a flat cursor
//! over one root-to-node path of the connected enumeration.

use fsm_types::{EdgeCatalog, EdgeId, EdgeSet, Result};

/// One neighbour of the growing subgraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Neighbor {
    edge: EdgeId,
    /// The largest member that rebuilding `members ∪ {edge}` must absorb
    /// before `edge` for `edge` to come last: `m1`, and every member that
    /// follows the first one `edge` is adjacent to.  `edge` is the canonical
    /// growth step exactly when it is larger.
    floor: EdgeId,
}

/// The set of edges adjacent to a growing connected subgraph, maintained
/// incrementally as the paper's equations (1) and (2) prescribe:
///
/// ```text
/// neighbor({x, y})   = neighbor({x}) ∪ neighbor({y}) − {x, y}
/// neighbor(X ∪ {y})  = neighbor(X)  ∪ neighbor({y}) − X − {y}
/// ```
///
/// The direct vertical algorithm only ever intersects bit vectors of edges
/// drawn from this set, which is what restricts it to connected collections.
///
/// The value is a *cursor*: it holds the members in the order they were
/// added, `m1..mk` — for an enumeration node, the pattern's canonical growth
/// sequence, i.e. the node's root path — and one ascending neighbour list per
/// prefix `m1..mi`.  [`Neighborhood::push`] builds the next list with one
/// sorted merge of the current one with `catalog.neighbors(edge)`;
/// [`Neighborhood::pop`] steps back to the parent's list, which was never
/// touched.  The lists are buffers reused for every node at their depth
/// (like [`crate::ScratchArena`]'s intersection buffers), so walking an
/// enumeration tree allocates per depth reached, not per node.
///
/// # The canonical growth step
///
/// The canonical sequence of a connected edge set starts at its smallest
/// edge and repeatedly absorbs the smallest remaining edge adjacent to
/// anything absorbed so far.  With `m1..mk` canonical and `c` a neighbour,
/// `c` is the last edge of the canonical sequence of `{m1..mk, c}` — the
/// enumeration's one way of reaching that pattern — **iff `c > m1` and `c >`
/// every `m_i` that follows the first member `c` is adjacent to.**
///
/// Proof.  If `c < m1`, `c` is the smallest edge and is absorbed first, not
/// last.  Otherwise both rebuilds start at `m1`, and the rebuild of
/// `{m1..mk, c}` tracks that of `{m1..mk}` for as long as `c` stays
/// unabsorbed: with `m1..mi` absorbed, the members adjacent to the absorbed
/// prefix are the same in both, so the next pick is `m_{i+1}` unless `c` is
/// itself adjacent to the prefix *and* smaller.  `c` becomes adjacent to the
/// prefix once it contains `m_j`, the first member `c` neighbours; from then
/// on `c` is passed over at every step iff `c > m_{i+1}` for all `i ≥ j`.
/// ∎
///
/// The merge carries that bound along — a neighbour inherited from the
/// parent's list raises its floor to the new member, a neighbour the new
/// member introduces starts at `m1` — so the test
/// ([`Neighborhood::candidate`], [`Neighborhood::is_canonical_step`]) is one
/// comparison and no allocation.
#[derive(Debug, Clone)]
pub struct Neighborhood<'c> {
    catalog: &'c EdgeCatalog,
    members: Vec<EdgeId>,
    /// `levels[i]` is the neighbour list of `m1..m_{i+1}`, ascending by
    /// edge.  Levels at and beyond `members.len()` are spare buffers.
    levels: Vec<Vec<Neighbor>>,
}

impl<'c> Neighborhood<'c> {
    /// An empty cursor over `catalog`; [`Neighborhood::seat`] it on a
    /// pattern's smallest edge to start.
    pub fn new(catalog: &'c EdgeCatalog) -> Self {
        Self {
            catalog,
            members: Vec::new(),
            levels: Vec::new(),
        }
    }

    /// An empty cursor over `catalog` that grows into `buffers` — the lists
    /// a cursor parked with [`Neighborhood::take_buffers`] — instead of
    /// allocating its own.
    pub(crate) fn with_buffers(catalog: &'c EdgeCatalog, buffers: HoodBuffers) -> Self {
        let HoodBuffers {
            mut members,
            levels,
        } = buffers;
        members.clear();
        Self {
            catalog,
            members,
            levels,
        }
    }

    /// Moves the cursor's buffers out, leaving it empty: they outlive the
    /// catalog borrow, so a caller can park them between uses.
    pub(crate) fn take_buffers(&mut self) -> HoodBuffers {
        HoodBuffers {
            members: std::mem::take(&mut self.members),
            levels: std::mem::take(&mut self.levels),
        }
    }

    /// The neighbourhood of a single edge (the paper's Table 2 row).
    pub fn of_edge(catalog: &'c EdgeCatalog, edge: EdgeId) -> Result<Self> {
        let mut hood = Self::new(catalog);
        hood.seat(edge)?;
        Ok(hood)
    }

    /// Re-seats the cursor on the single edge `edge`, keeping its buffers.
    pub fn seat(&mut self, edge: EdgeId) -> Result<()> {
        self.members.clear();
        self.push(edge)
    }

    /// Extends the subgraph with `edge` (which should be one of the current
    /// neighbours), moving to the neighbourhood of `X ∪ {edge}` per Eq. (2).
    /// On an error (an edge outside the catalog) the cursor is unchanged.
    pub fn push(&mut self, edge: EdgeId) -> Result<()> {
        let adjacent = self.catalog.neighbors(edge)?;
        debug_assert!(!self.members.contains(&edge), "edge is already a member");
        let depth = self.members.len();
        if self.levels.len() == depth {
            self.levels.push(Vec::new());
        }
        let (parents, rest) = self.levels.split_at_mut(depth);
        let out = &mut rest[0];
        out.clear();
        let root = self.members.first().copied().unwrap_or(edge);
        let mut inherited = parents.last().map_or(&[][..], Vec::as_slice).iter();
        let mut introduced = adjacent
            .iter()
            .filter(|candidate| !self.members.contains(candidate));
        let (mut old, mut new) = (inherited.next(), introduced.next());
        while old.is_some() || new.is_some() {
            if let Some(&n) = new.filter(|&&n| old.is_none_or(|o| n < o.edge)) {
                // First adjacent to the new member: nothing follows it yet.
                out.push(Neighbor {
                    edge: n,
                    floor: root,
                });
                new = introduced.next();
            } else if let Some(o) = old {
                // Whatever the parent already neighboured keeps its earlier
                // first adjacency, and `edge` now follows it.
                if o.edge != edge {
                    out.push(Neighbor {
                        edge: o.edge,
                        floor: o.floor.max(edge),
                    });
                }
                if new == Some(&o.edge) {
                    new = introduced.next();
                }
                old = inherited.next();
            }
        }
        self.members.push(edge);
        Ok(())
    }

    /// Steps back to the subgraph before the last [`Neighborhood::push`].
    pub fn pop(&mut self) {
        self.members.pop();
    }

    /// The member edges of the subgraph, in the order they were added.
    pub fn members(&self) -> &[EdgeId] {
        &self.members
    }

    fn level(&self) -> &[Neighbor] {
        match self.members.len() {
            0 => &[],
            depth => &self.levels[depth - 1],
        }
    }

    /// The neighbouring edges (candidates for connected extension),
    /// ascending.
    pub fn neighbors(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        self.level().iter().map(|n| n.edge)
    }

    /// The `index`-th neighbour in ascending order, and whether adding it is
    /// the canonical growth step of the resulting pattern.  Indexed access
    /// lets a recursive enumeration [`Neighborhood::push`] between calls.
    pub fn candidate(&self, index: usize) -> Option<(EdgeId, bool)> {
        self.level().get(index).map(|n| (n.edge, n.edge > n.floor))
    }

    fn find(&self, edge: EdgeId) -> Option<&Neighbor> {
        let level = self.level();
        level
            .binary_search_by_key(&edge, |n| n.edge)
            .ok()
            .map(|at| &level[at])
    }

    /// Returns `true` if `edge` is adjacent to the current subgraph.
    pub fn is_neighbor(&self, edge: EdgeId) -> bool {
        self.find(edge).is_some()
    }

    /// Returns `true` if `edge` is a neighbour whose addition is the
    /// canonical growth step of the resulting pattern (see the type docs).
    pub fn is_canonical_step(&self, edge: EdgeId) -> bool {
        self.find(edge).is_some_and(|n| n.edge > n.floor)
    }
}

/// A [`Neighborhood`]'s member and neighbour-list buffers without its
/// catalog borrow.
#[derive(Debug, Default)]
pub(crate) struct HoodBuffers {
    members: Vec<EdgeId>,
    levels: Vec<Vec<Neighbor>>,
}

impl HoodBuffers {
    pub(crate) fn heap_bytes(&self) -> usize {
        self.members.capacity() * std::mem::size_of::<EdgeId>()
            + self.levels.capacity() * std::mem::size_of::<Vec<Neighbor>>()
            + self
                .levels
                .iter()
                .map(|level| level.capacity() * std::mem::size_of::<Neighbor>())
                .sum::<usize>()
    }
}

/// Computes `neighbor(X)` for an arbitrary edge set non-incrementally,
/// ascending (used to cross-check the incremental algebra in tests and by
/// the oracle).
pub fn neighborhood_of_set(catalog: &EdgeCatalog, set: &EdgeSet) -> Result<Vec<EdgeId>> {
    let mut neighbors = Vec::new();
    for edge in set.iter() {
        neighbors.extend_from_slice(catalog.neighbors(edge)?);
    }
    neighbors.sort_unstable();
    neighbors.dedup();
    neighbors.retain(|&edge| !set.contains(edge));
    Ok(neighbors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsm_types::VertexId;
    use proptest::prelude::*;

    fn sym(edges: impl IntoIterator<Item = EdgeId>) -> String {
        edges.into_iter().map(|e| e.symbol()).collect()
    }

    fn extended<'c>(hood: &Neighborhood<'c>, edge: u32) -> Neighborhood<'c> {
        let mut next = hood.clone();
        next.push(EdgeId::new(edge)).unwrap();
        next
    }

    #[test]
    fn single_edge_neighbourhood_matches_table_2() {
        let catalog = EdgeCatalog::complete(4);
        let a = Neighborhood::of_edge(&catalog, EdgeId::new(0)).unwrap();
        assert_eq!(sym(a.neighbors()), "bcde");
        assert!(a.is_neighbor(EdgeId::new(2)));
        assert!(!a.is_neighbor(EdgeId::new(5)), "f is not adjacent to a");
    }

    #[test]
    fn extension_follows_equation_1() {
        // neighbor({a,c}) = neighbor(a) ∪ neighbor(c) − {a,c} = {b,d,e,f}.
        let catalog = EdgeCatalog::complete(4);
        let a = Neighborhood::of_edge(&catalog, EdgeId::new(0)).unwrap();
        let ac = extended(&a, 2);
        assert_eq!(sym(ac.neighbors()), "bdef");
        assert_eq!(sym(ac.members().iter().copied()), "ac");
    }

    #[test]
    fn extension_follows_equation_2() {
        // neighbor({a,c,d}) = neighbor({a,c}) ∪ neighbor(d) − {a,c,d} = {b,e,f}.
        let catalog = EdgeCatalog::complete(4);
        let a = Neighborhood::of_edge(&catalog, EdgeId::new(0)).unwrap();
        let acd = extended(&extended(&a, 2), 3);
        assert_eq!(sym(acd.neighbors()), "bef");
        // neighbor({a,d}) = {b,c,e,f} (Example 7).
        assert_eq!(sym(extended(&a, 3).neighbors()), "bcef");
        // neighbor({c,f}) = {a,b,d,e} (Example 7).
        let c = Neighborhood::of_edge(&catalog, EdgeId::new(2)).unwrap();
        assert_eq!(sym(extended(&c, 5).neighbors()), "abde");
    }

    #[test]
    fn incremental_and_batch_computation_agree() {
        let catalog = EdgeCatalog::complete(5);
        // Build {0, 1, 4} incrementally (each step adjacent) and compare with
        // the non-incremental computation.
        let mut step = Neighborhood::of_edge(&catalog, EdgeId::new(0)).unwrap();
        step.push(EdgeId::new(1)).unwrap();
        step.push(EdgeId::new(4)).unwrap();
        let batch = neighborhood_of_set(&catalog, &EdgeSet::from_raw([0, 1, 4])).unwrap();
        assert_eq!(step.neighbors().collect::<Vec<_>>(), batch);
    }

    #[test]
    fn pop_and_seat_return_to_lists_built_earlier() {
        let catalog = EdgeCatalog::complete(4);
        let mut hood = Neighborhood::of_edge(&catalog, EdgeId::new(0)).unwrap();
        hood.push(EdgeId::new(2)).unwrap();
        hood.push(EdgeId::new(3)).unwrap();
        hood.pop();
        assert_eq!(sym(hood.neighbors()), "bdef", "the parent's list survives");
        hood.push(EdgeId::new(5)).unwrap();
        assert_eq!(sym(hood.members().iter().copied()), "acf");
        assert_eq!(sym(hood.neighbors()), "bde");
        hood.seat(EdgeId::new(2)).unwrap();
        assert_eq!(sym(hood.members().iter().copied()), "c");
        assert_eq!(sym(hood.neighbors()), "abef");
        hood.pop();
        assert_eq!(
            hood.neighbors().len(),
            0,
            "an empty cursor has no neighbours"
        );
        assert_eq!(hood.candidate(0), None);
    }

    #[test]
    fn parked_buffers_serve_a_cursor_over_another_borrow() {
        let catalog = EdgeCatalog::complete(4);
        let mut hood = Neighborhood::of_edge(&catalog, EdgeId::new(0)).unwrap();
        hood.push(EdgeId::new(2)).unwrap();
        let parked = hood.take_buffers();
        assert!(parked.heap_bytes() > 0);
        assert_eq!(hood.members().len(), 0, "the parked cursor is empty");
        let again = EdgeCatalog::complete(4);
        let mut hood = Neighborhood::with_buffers(&again, parked);
        assert_eq!(hood.members().len(), 0, "members do not carry over");
        hood.seat(EdgeId::new(2)).unwrap();
        hood.push(EdgeId::new(5)).unwrap();
        assert_eq!(sym(hood.members().iter().copied()), "cf");
        assert_eq!(sym(hood.neighbors()), "abde");
    }

    #[test]
    fn unknown_edges_are_errors() {
        let catalog = EdgeCatalog::complete(3);
        assert!(Neighborhood::of_edge(&catalog, EdgeId::new(9)).is_err());
        assert!(neighborhood_of_set(&catalog, &EdgeSet::from_raw([0, 9])).is_err());
        // A failed push leaves the cursor where it was.
        let mut hood = Neighborhood::of_edge(&catalog, EdgeId::new(0)).unwrap();
        assert!(hood.push(EdgeId::new(9)).is_err());
        assert_eq!(hood.members(), [EdgeId::new(0)]);
        assert_eq!(sym(hood.neighbors()), "bc");
    }

    /// The retired production test, kept as the oracle: `candidate` is the
    /// canonical growth step of `members ∪ {candidate}` iff rebuilding that
    /// set from its smallest edge, always absorbing the smallest adjacent
    /// member, absorbs `candidate` last.
    fn is_canonical_extension(
        catalog: &EdgeCatalog,
        members: &[EdgeId],
        candidate: EdgeId,
    ) -> bool {
        let mut remaining: Vec<EdgeId> = members.to_vec();
        remaining.push(candidate);
        remaining.sort_unstable();
        let mut absorbed: Vec<EdgeId> = vec![remaining.remove(0)];
        let mut last = absorbed[0];
        while !remaining.is_empty() {
            let next_pos = remaining.iter().position(|&edge| {
                absorbed
                    .iter()
                    .any(|&member| catalog.are_adjacent(member, edge))
            });
            match next_pos {
                Some(pos) => {
                    last = remaining.remove(pos);
                    absorbed.push(last);
                }
                None => return false,
            }
        }
        last == candidate
    }

    /// `complete(n)`, a path, a star, two components, or arbitrary pairs
    /// (loops and repeats included).
    fn arb_catalog() -> impl Strategy<Value = EdgeCatalog> {
        let pair = |(u, v): (u32, u32)| (VertexId::new(u), VertexId::new(v));
        (
            0usize..5,
            2u32..7,
            proptest::collection::vec((1u32..8, 1u32..8), 1..16),
        )
            .prop_map(move |(shape, n, pairs)| match shape {
                0 => EdgeCatalog::complete(n),
                1 => EdgeCatalog::from_pairs((1..=n + 2).map(|v| pair((v, v + 1)))),
                2 => EdgeCatalog::from_pairs((2..=n + 3).map(|v| pair((1, v)))),
                3 => EdgeCatalog::from_pairs(
                    (1..=n)
                        .map(|v| pair((v, v + 1)))
                        .chain((1..=n).map(|v| pair((20, 20 + v)))),
                ),
                _ => EdgeCatalog::from_pairs(pairs.into_iter().map(pair)),
            })
    }

    proptest! {
        /// Walk random canonical growth sequences; at every depth the
        /// cursor's list is Eq. (2)'s set and its one-comparison test is the
        /// greedy reference's verdict on every neighbour.
        #[test]
        fn cursor_agrees_with_the_set_algebra_and_the_greedy_reference(
            catalog in arb_catalog(),
            start in 0usize..64,
            picks in proptest::collection::vec(0usize..64, 0..8),
        ) {
            let outside = EdgeId::new(catalog.num_edges() as u32 + 3);
            let mut hood = Neighborhood::new(&catalog);
            prop_assert!(hood.seat(outside).is_err());
            hood.seat(EdgeId::new((start % catalog.num_edges()) as u32)).unwrap();
            let mut picks = picks.into_iter();
            loop {
                let members = hood.members().to_vec();
                let neighbors: Vec<EdgeId> = hood.neighbors().collect();
                let set = EdgeSet::from_edges(members.iter().copied());
                prop_assert_eq!(&neighbors, &neighborhood_of_set(&catalog, &set).unwrap());
                prop_assert!(!hood.is_neighbor(outside) && !hood.is_canonical_step(outside));
                let mut steps = Vec::new();
                for (index, &edge) in neighbors.iter().enumerate() {
                    let expected = is_canonical_extension(&catalog, &members, edge);
                    prop_assert_eq!(hood.candidate(index), Some((edge, expected)),
                        "members {:?}", members);
                    prop_assert_eq!(hood.is_canonical_step(edge), expected);
                    if expected {
                        steps.push(edge);
                    }
                }
                prop_assert_eq!(hood.candidate(neighbors.len()), None);
                for &member in &members {
                    prop_assert!(!hood.is_neighbor(member));
                }
                // Descend along a canonical step, so the members stay a
                // canonical sequence — what the rule presumes.
                let Some(pick) = picks.next() else { break };
                if steps.is_empty() {
                    break;
                }
                hood.push(steps[pick % steps.len()]).unwrap();
            }
            // Unwinding returns to each prefix's list.
            while hood.members().len() > 1 {
                hood.pop();
                let set = EdgeSet::from_edges(hood.members().iter().copied());
                prop_assert_eq!(
                    hood.neighbors().collect::<Vec<_>>(),
                    neighborhood_of_set(&catalog, &set).unwrap()
                );
            }
        }
    }
}
