//! §4 — direct vertical mining of frequent *connected* subgraphs.
//!
//! Example 7's enumeration: grow a connected pattern one neighbouring edge
//! at a time and intersect only the rows of frequent neighbours.  The
//! enumeration is Eclat's sibling join adapted to canonical connected
//! growth — a node screens only what its parent passed above its new edge,
//! plus that edge's fresh neighbours; [`mine_direct`] states why that is
//! exact.

use fsm_dsmatrix::WindowView;
use fsm_fptree::MiningLimits;
use fsm_storage::BitVec;
use fsm_types::{EdgeCatalog, EdgeId, EdgeSet, FrequentPattern, Result, Support};

use super::{fan_out_roots, Bytes, RawMiningOutput};
use crate::parallel::Exec;
use crate::scratch::ScratchArena;

/// Mines frequent connected subgraphs directly, without a post-processing
/// step, by only intersecting the bit vectors of *neighbouring* edges.
///
/// The enumeration grows a connected subgraph one adjacent edge at a time,
/// with candidate edges drawn from its neighbourhood (equations (1) and (2)
/// of the paper).  To enumerate every connected pattern exactly once, an
/// extension is only explored when it is the pattern's *canonical growth
/// step*: starting from the pattern's smallest edge and always absorbing the
/// smallest adjacent member, the last edge absorbed must be the edge we are
/// about to add.  Canonical sequences are prefix-closed, so the connected
/// patterns form a tree under this relation (the rule and its proof are on
/// [`crate::Neighborhood`]); [`crate::DeltaMiner`] maintains that same tree
/// across window slides.
///
/// # Sibling join
///
/// A node does not screen every canonical neighbour, only the ones its
/// parent has not already decided.  Take a node `P = m1..mk` with parent
/// `Q = m1..m(k-1)` and last edge `x = mk`:
///
/// * A neighbour `c` that `P` inherits from `Q` is the canonical step at `P`
///   iff it is the canonical step at `Q` and `c > x` (adding `x` raises the
///   last member `c` must follow to `x`).  So `Q` screened it already, and
///   support is anti-monotone: `P ∪ {c} ⊇ Q ∪ {c}` can only pass if
///   `Q ∪ {c}` did.  The inherited candidates are `Q`'s *passed* candidates
///   above `x` — `P`'s siblings to its right, as in Eclat's join.
/// * A *fresh* neighbour — one `x` brings in, adjacent to no earlier
///   member — has only `m1` to follow, so it is a candidate iff `c > m1`.
///   At a root every neighbour is fresh.
///
/// Both lists are ascending and disjoint, so merging them screens the
/// children in the order the full neighbour walk would, and the output —
/// patterns, emission order, peak working set — is the walk's; only the
/// screen count drops.  Example 7's run is the walk minus the screens a
/// parent already decided: `{b}` fails `d` and `f`, so `{b,c}` does not
/// retry them (15 screens become 13).  `{c,d,f}` is still reached from
/// `{c,f}` by adding `d`, a fresh neighbour of `f`, never from `{c,d}`,
/// which is not connected.
///
/// A screen costs its kernel.  Each worker walks its subtrees with one
/// participant state: the node's root path, one passed-candidate list per
/// depth, and one edge-indexed *seen* array — the depth at which each
/// frequent edge above the root joined the neighbourhood, 0 while outside.
/// Descending to `x` marks `x`'s unseen neighbours, which are exactly its
/// fresh ones; leaving it unmarks them.  That replaces a sorted merge of
/// neighbour lists per node and a walk over every neighbour.  Nothing is
/// allocated per node or per candidate: surviving intersections land in
/// per-depth [`ScratchArena`] buffers, passed lists are per-depth buffers
/// too, and an emitted pattern allocates nothing of its own — its edge set
/// is held in place — so what remains per pattern is a share of the pattern
/// lists' growth (`crates/core/tests/alloc_regression.rs` pins that).  The
/// fan-out over frequent single edges runs on `exec`'s worker pool, one
/// pattern list per participant and none per root, and merges
/// deterministically (`fan_out_roots`).
///
/// Singleton rows are borrowed from the [`WindowView`] — the live one or a
/// frozen [`fsm_dsmatrix::EpochSnapshot`]'s — and their supports come from
/// ingest-time counters, so setup itself materialises no window data.
pub fn mine_direct(
    view: &WindowView<'_>,
    catalog: &EdgeCatalog,
    minsup: Support,
    limits: MiningLimits,
    exec: &Exec,
) -> Result<RawMiningOutput> {
    let participant = |tree: &Tree<'_>| Join::new(catalog, tree.rows.len());
    fan_out(view, catalog, minsup, limits, exec, participant, Join::root)
}

/// A frequent edge and its row.
type Candidate<'v> = (EdgeId, &'v BitVec);

/// What every subtree of one mine reads.
struct Tree<'v> {
    /// Frequent rows, borrowed zero-copy from the window view and indexed
    /// by edge: `None` for an infrequent one.
    rows: Vec<Option<&'v BitVec>>,
    minsup: Support,
    limits: MiningLimits,
    /// Heap bytes of the frequent rows, alive for the whole call.
    base_bytes: usize,
}

/// Emits every frequent single edge and grows each one the catalog knows
/// with `subtree`, one task per edge on `exec`'s worker pool
/// ([`fan_out_roots`]); every participant builds one `state` and reuses it
/// for all the roots it claims.  Subtrees merge in edge order, whatever the
/// pool's shape.
fn fan_out<'v, S: Send>(
    view: &'v WindowView<'_>,
    catalog: &EdgeCatalog,
    minsup: Support,
    limits: MiningLimits,
    exec: &Exec,
    state: impl Fn(&Tree<'v>) -> S + Sync,
    subtree: impl Fn(&mut S, &Tree<'v>, Candidate<'v>, &mut RawMiningOutput) -> Result<()> + Sync,
) -> Result<RawMiningOutput> {
    let minsup = minsup.max(1);
    let mut output = RawMiningOutput::default();

    // Supports come from ingest-time counters.
    let mut rows: Vec<Option<&BitVec>> = Vec::new();
    let mut frequent: Vec<(EdgeId, Support, &BitVec)> = Vec::new();
    for (edge, support) in view.singleton_supports() {
        if support >= minsup {
            let row = view.row(edge).ok_or_else(|| {
                // A view that lists an edge it cannot serve is corrupt;
                // surface it instead of aborting the (possibly
                // multi-tenant) process.
                fsm_types::FsmError::corrupt(format!(
                    "window view lists edge {} but cannot serve its row",
                    edge.index()
                ))
            })?;
            if rows.len() <= edge.index() {
                rows.resize(edge.index() + 1, None);
            }
            rows[edge.index()] = Some(row);
            frequent.push((edge, support, row));
        }
    }
    let base_bytes: usize = rows.iter().flatten().map(|row| row.heap_bytes()).sum();
    output.stats.peak_bitvector_bytes = base_bytes;

    // Singletons are patterns of length 1 and obey the same cardinality cap
    // as everything else.
    if !limits.allows(1) {
        return Ok(output);
    }

    let tree = Tree {
        rows,
        minsup,
        limits,
        base_bytes,
    };
    let root = |state: &mut S, idx: usize, out: &mut RawMiningOutput| {
        let (edge, support, row) = frequent[idx];
        out.patterns
            .push(FrequentPattern::new(EdgeSet::singleton(edge), support));
        if limits.allows(2) && edge.index() < catalog.num_edges() {
            subtree(state, &tree, (edge, row), out)?;
        }
        Ok(())
    };
    output.merge(fan_out_roots(exec, frequent.len(), || state(&tree), root)?);

    output.stats.patterns_before_postprocess = output.patterns.len();
    Ok(output)
}

/// One participant's walk state, reused for every root it claims; every
/// buffer is allocated once per depth reached (`seen` once).
struct Join<'c, 'v> {
    catalog: &'c EdgeCatalog,
    scratch: ScratchArena,
    /// The current node's root path `m1..mk`.
    members: Vec<EdgeId>,
    /// `passed[k]`: the candidates that passed their screen at the depth-`k`
    /// node being grown, ascending.
    passed: Vec<Vec<Candidate<'v>>>,
    /// Indexed like [`Tree::rows`]: for a frequent edge above `m1`, the depth
    /// of the node whose last member brought it into the neighbourhood, or 0
    /// while it is outside.  Edges below `m1` and infrequent edges are never
    /// candidates in this subtree, so they are never marked.
    seen: Vec<u32>,
}

impl<'c, 'v> Join<'c, 'v> {
    fn new(catalog: &'c EdgeCatalog, edges: usize) -> Self {
        Self {
            catalog,
            scratch: ScratchArena::new(),
            members: Vec::new(),
            passed: Vec::new(),
            seen: vec![0; edges],
        }
    }

    /// Grows the subtree rooted at the catalog edge `root`.  Nothing in the
    /// walk can fail, so the subtree always unwinds to the empty path with
    /// every mark cleared before the participant's next root.
    fn root(
        &mut self,
        tree: &Tree<'v>,
        (root, row): Candidate<'v>,
        output: &mut RawMiningOutput,
    ) -> Result<()> {
        self.members.clear();
        self.members.push(root);
        let bytes = Bytes {
            base: tree.base_bytes,
            ancestors: 0,
        };
        self.grow(tree, row, &[], bytes, output);
        self.members.pop();
        debug_assert!(
            self.seen.iter().all(|&depth| depth == 0),
            "a root task left neighbourhood marks behind"
        );
        Ok(())
    }

    /// Screens and extends the node the root path is positioned on, whose
    /// intersection is `vector` and whose parent passed `siblings` above
    /// its last edge.  The path is back on the same node when this returns.
    fn grow(
        &mut self,
        tree: &Tree<'v>,
        vector: &BitVec,
        siblings: &[Candidate<'v>],
        bytes: Bytes,
        output: &mut RawMiningOutput,
    ) {
        let depth = self.members.len();
        let (root, last) = (self.members[0], self.members[depth - 1]);
        // Every member is a catalog edge: the root was checked, the others
        // came from catalog neighbour lists.
        let adjacent = self.catalog.neighbors(last).unwrap_or(&[]);
        let adjacent = &adjacent[adjacent.partition_point(|&n| n <= root)..];

        if self.passed.len() <= depth {
            self.passed.resize_with(depth + 1, Vec::new);
        }
        let mut passed = std::mem::take(&mut self.passed[depth]);
        passed.clear();
        let seen = &mut self.seen;
        let mut fresh = adjacent
            .iter()
            .filter_map(|&n| {
                let row = tree.rows.get(n.index()).copied().flatten()?;
                let mark = &mut seen[n.index()];
                (*mark == 0).then(|| {
                    *mark = depth as u32;
                    (n, row)
                })
            })
            .peekable();
        let mut inherited = siblings.iter().copied().peekable();
        loop {
            let next = match (inherited.peek(), fresh.peek()) {
                (Some(i), Some(f)) if f.0 < i.0 => fresh.next(),
                (Some(_), _) => inherited.next(),
                (None, _) => fresh.next(),
            };
            let Some((candidate, row)) = next else { break };
            output.stats.intersections += 1;
            // Fused popcount screen: infrequent candidates never materialise.
            if vector.and_count(row) >= tree.minsup {
                passed.push((candidate, row));
            }
        }

        let mut buffer = self.scratch.take(depth);
        for (at, &(child, row)) in passed.iter().enumerate() {
            let support = vector.and_into(row, &mut buffer);
            self.members.push(child);
            output.patterns.push(FrequentPattern::new(
                EdgeSet::from_edges(self.members.iter().copied()),
                support,
            ));
            // Working set: the frequent rows plus the intersection buffer of
            // every live recursion level (ancestors + this one).
            let live = bytes.ancestors + buffer.heap_bytes();
            output.stats.peak_bitvector_bytes =
                output.stats.peak_bitvector_bytes.max(bytes.base + live);
            if tree.limits.allows(depth + 2) {
                let below = Bytes {
                    base: bytes.base,
                    ancestors: live,
                };
                self.grow(tree, &buffer, &passed[at + 1..], below, output);
            }
            self.members.pop();
        }
        self.scratch.put(depth, buffer);
        self.passed[depth] = passed;

        // Leaving `last`: its fresh neighbours leave the neighbourhood.
        for n in adjacent {
            if let Some(mark) = self.seen.get_mut(n.index()) {
                if *mark == depth as u32 {
                    *mark = 0;
                }
            }
        }
    }
}

/// The neighbour-walk enumeration the join replaced, kept as its oracle:
/// every node walks its whole merged neighbour list and screens every
/// canonical neighbour, including the ones its parent already failed.
#[cfg(test)]
fn mine_direct_reference(
    view: &WindowView<'_>,
    catalog: &EdgeCatalog,
    minsup: Support,
    limits: MiningLimits,
    exec: &Exec,
) -> Result<RawMiningOutput> {
    use crate::neighborhood::Neighborhood;

    /// Extends the connected subgraph `hood` is positioned on with every
    /// frequent neighbouring edge whose addition is the canonical growth
    /// step.  `hood` is back on the same subgraph when this returns.
    fn grow(
        tree: &Tree<'_>,
        hood: &mut Neighborhood<'_>,
        vector: &BitVec,
        bytes: Bytes,
        scratch: &mut ScratchArena,
        output: &mut RawMiningOutput,
    ) -> Result<()> {
        let depth = hood.members().len();
        let mut buffer = scratch.take(depth);
        let mut index = 0;
        while let Some((candidate, canonical)) = hood.candidate(index) {
            index += 1;
            let Some(row) = tree.rows.get(candidate.index()).copied().flatten() else {
                continue;
            };
            if !canonical {
                continue;
            }
            output.stats.intersections += 1;
            let support = vector.and_count(row);
            if support < tree.minsup {
                continue;
            }
            let written = vector.and_into(row, &mut buffer);
            debug_assert_eq!(written, support);
            hood.push(candidate)?;
            output.patterns.push(FrequentPattern::new(
                EdgeSet::from_edges(hood.members().iter().copied()),
                support,
            ));
            let live = bytes.ancestors + buffer.heap_bytes();
            output.stats.peak_bitvector_bytes =
                output.stats.peak_bitvector_bytes.max(bytes.base + live);
            if tree.limits.allows(depth + 2) {
                let below = Bytes {
                    base: bytes.base,
                    ancestors: live,
                };
                grow(tree, hood, &buffer, below, scratch, output)?;
            }
            hood.pop();
        }
        scratch.put(depth, buffer);
        Ok(())
    }

    let state = |_: &Tree<'_>| (ScratchArena::new(), Neighborhood::new(catalog));
    let subtree = |(scratch, hood): &mut (ScratchArena, Neighborhood<'_>),
                   tree: &Tree<'_>,
                   (root, row): Candidate<'_>,
                   output: &mut RawMiningOutput| {
        hood.seat(root)?;
        let bytes = Bytes {
            base: tree.base_bytes,
            ancestors: 0,
        };
        grow(tree, hood, row, bytes, scratch, output)
    };
    fan_out(view, catalog, minsup, limits, exec, state, subtree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::pool_shapes;
    use fsm_dsmatrix::{DsMatrix, DsMatrixConfig};
    use fsm_storage::StorageBackend;
    use fsm_stream::WindowConfig;
    use fsm_types::{Batch, Transaction, VertexId};
    use proptest::prelude::*;

    fn paper_matrix() -> DsMatrix {
        let e = |raw: &[u32]| Transaction::from_raw(raw.iter().copied());
        let batches = vec![
            Batch::from_transactions(0, vec![e(&[2, 3, 5]), e(&[0, 4, 5]), e(&[0, 2, 5])]),
            Batch::from_transactions(1, vec![e(&[0, 2, 3, 5]), e(&[0, 3, 4, 5]), e(&[0, 1, 2])]),
            Batch::from_transactions(2, vec![e(&[0, 2, 5]), e(&[0, 2, 3, 5]), e(&[1, 2, 3])]),
        ];
        let mut m = DsMatrix::new(DsMatrixConfig::new(
            WindowConfig::new(2).unwrap(),
            StorageBackend::Memory,
            6,
        ))
        .unwrap();
        for b in &batches {
            m.ingest_batch(b).unwrap();
        }
        m
    }

    fn pattern_strings(output: &RawMiningOutput) -> Vec<String> {
        let mut v: Vec<String> = output
            .patterns
            .iter()
            .map(|p| format!("{}:{}", p.edges.symbols(), p.support))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn reproduces_example_7_exactly() {
        let catalog = EdgeCatalog::complete(4);
        let mut m = paper_matrix();
        let output = mine_direct(
            &m.view().unwrap(),
            &catalog,
            2,
            MiningLimits::UNBOUNDED,
            &Exec::scoped(1),
        )
        .unwrap();
        // Example 7 / Example 6: the direct algorithm returns the 15 connected
        // collections — the 17 of Example 2 minus the disjoint {a,f} and {c,d}.
        let expected: Vec<String> = vec![
            "{a}:5",
            "{b}:2",
            "{c}:5",
            "{d}:4",
            "{f}:4",
            "{a,c}:4",
            "{a,c,d}:2",
            "{a,c,d,f}:2",
            "{a,c,f}:3",
            "{a,d}:3",
            "{a,d,f}:3",
            "{b,c}:2",
            "{c,d,f}:2",
            "{c,f}:3",
            "{d,f}:3",
        ]
        .into_iter()
        .map(String::from)
        .collect();
        let mut expected_sorted = expected.clone();
        expected_sorted.sort();
        assert_eq!(pattern_strings(&output), expected_sorted);
        assert_eq!(output.patterns.len(), 15);
        // The neighbour walk screens 15 candidates.  The join skips two:
        // `{b}` fails `d` and `f`, so `{b,c}` does not retry them, and it
        // has no fresh neighbour above `b` (`a` is below the root, `e` is
        // infrequent).
        assert_eq!(output.stats.intersections, 13);
        let walk = mine_direct_reference(
            &m.view().unwrap(),
            &catalog,
            2,
            MiningLimits::UNBOUNDED,
            &Exec::scoped(1),
        )
        .unwrap();
        assert_eq!(walk.patterns, output.patterns);
        assert_eq!(walk.stats.intersections, 15);
        // {a,f} and {c,d} are never produced (not even counted and discarded).
        assert!(!pattern_strings(&output)
            .iter()
            .any(|s| s.starts_with("{a,f}")));
        assert!(!pattern_strings(&output)
            .iter()
            .any(|s| s.starts_with("{c,d}:")));
    }

    #[test]
    fn never_intersects_non_neighbours() {
        // Example 7 performs strictly fewer intersections than the plain
        // vertical algorithm because {a,f}, {c,d}, … are never tried.
        let catalog = EdgeCatalog::complete(4);
        let mut m = paper_matrix();
        let view = m.view().unwrap();
        let direct = mine_direct(
            &view,
            &catalog,
            2,
            MiningLimits::UNBOUNDED,
            &Exec::scoped(1),
        )
        .unwrap();
        let vertical = super::super::vertical::mine_vertical(
            &view,
            2,
            MiningLimits::UNBOUNDED,
            &Exec::scoped(1),
        )
        .unwrap();
        assert!(direct.stats.intersections > 0);
        assert!(direct.stats.intersections < vertical.stats.intersections);
    }

    #[test]
    fn parallel_run_is_identical_to_sequential() {
        let catalog = EdgeCatalog::complete(4);
        let mut m = paper_matrix();
        let view = m.view().unwrap();
        let execs = pool_shapes();
        for minsup in 1..=4 {
            let sequential = mine_direct(
                &view,
                &catalog,
                minsup,
                MiningLimits::UNBOUNDED,
                &Exec::scoped(1),
            )
            .unwrap();
            for exec in &execs {
                let parallel =
                    mine_direct(&view, &catalog, minsup, MiningLimits::UNBOUNDED, exec).unwrap();
                assert_eq!(
                    parallel.patterns, sequential.patterns,
                    "exec {exec:?}, minsup {minsup}"
                );
                assert_eq!(
                    parallel.stats.intersections, sequential.stats.intersections,
                    "exec {exec:?}, minsup {minsup}"
                );
            }
        }
    }

    #[test]
    fn canonical_extension_enumerates_each_pattern_once() {
        let catalog = EdgeCatalog::complete(4);
        let mut m = paper_matrix();
        let output = mine_direct(
            &m.view().unwrap(),
            &catalog,
            1,
            MiningLimits::UNBOUNDED,
            &Exec::scoped(1),
        )
        .unwrap();
        let mut sets: Vec<String> = output.patterns.iter().map(|p| p.edges.symbols()).collect();
        let before = sets.len();
        sets.sort();
        sets.dedup();
        assert_eq!(before, sets.len(), "no pattern may be emitted twice");
    }

    #[test]
    fn respects_limits_and_handles_edge_cases() {
        let catalog = EdgeCatalog::complete(4);
        let mut m = paper_matrix();
        let view = m.view().unwrap();
        let pairs = mine_direct(
            &view,
            &catalog,
            2,
            MiningLimits::with_max_len(2),
            &Exec::scoped(1),
        )
        .unwrap();
        assert!(pairs.patterns.iter().all(|p| p.len() <= 2));
        let singles = mine_direct(
            &view,
            &catalog,
            2,
            MiningLimits::with_max_len(1),
            &Exec::scoped(1),
        )
        .unwrap();
        assert!(singles.patterns.iter().all(|p| p.len() == 1));
        // A zero cap forbids even singletons.
        let nothing = mine_direct(
            &view,
            &catalog,
            2,
            MiningLimits::with_max_len(0),
            &Exec::scoped(1),
        )
        .unwrap();
        assert!(nothing.patterns.is_empty());
        let unsupported = mine_direct(
            &view,
            &catalog,
            99,
            MiningLimits::UNBOUNDED,
            &Exec::scoped(1),
        )
        .unwrap();
        assert!(unsupported.patterns.is_empty());
    }

    #[test]
    fn edges_outside_the_catalog_are_reported_as_singletons_only() {
        // A stream can mention an edge the catalog does not know about (e.g. a
        // late schema change); the direct algorithm still reports the frequent
        // singleton but cannot grow it.
        let catalog = EdgeCatalog::complete(2); // knows only edge a
        let e = |raw: &[u32]| Transaction::from_raw(raw.iter().copied());
        let mut m = DsMatrix::new(DsMatrixConfig::new(
            WindowConfig::new(1).unwrap(),
            StorageBackend::Memory,
            3,
        ))
        .unwrap();
        m.ingest_batch(&Batch::from_transactions(0, vec![e(&[0, 2]), e(&[0, 2])]))
            .unwrap();
        let output = mine_direct(
            &m.view().unwrap(),
            &catalog,
            2,
            MiningLimits::UNBOUNDED,
            &Exec::scoped(1),
        )
        .unwrap();
        let strings = pattern_strings(&output);
        assert!(strings.contains(&"{a}:2".to_string()));
        assert!(strings.contains(&"{c}:2".to_string()));
        assert_eq!(output.patterns.len(), 2);
    }

    /// `complete(n)`, a path, or arbitrary vertex pairs (loops and repeats
    /// included, so often a sparse catalog of several components).
    fn arb_catalog() -> impl Strategy<Value = EdgeCatalog> {
        let pair = |(u, v): (u32, u32)| (VertexId::new(u), VertexId::new(v));
        (
            0usize..3,
            2u32..6,
            proptest::collection::vec((1u32..9, 1u32..9), 1..12),
        )
            .prop_map(move |(shape, n, pairs)| match shape {
                0 => EdgeCatalog::complete(n),
                1 => EdgeCatalog::path(n + 3),
                _ => EdgeCatalog::from_pairs(pairs.into_iter().map(pair)),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The join returns the neighbour walk's patterns in its emission
        /// order with its peak working set, on every pool shape, for every
        /// support and length cap, and never screens more.
        #[test]
        fn the_join_is_the_neighbour_walk_minus_decided_screens(
            catalog in arb_catalog(),
            outside in 0usize..3,
            transactions in proptest::collection::vec(
                proptest::collection::vec(0u32..16, 0..8),
                3..12,
            ),
        ) {
            // Items past the catalog's edges are frequent singletons the
            // catalog cannot grow.
            let items = catalog.num_edges() + outside;
            let batches: Vec<Batch> = transactions
                .chunks(4)
                .enumerate()
                .map(|(id, chunk)| {
                    let chunk = chunk
                        .iter()
                        .map(|t| Transaction::from_raw(t.iter().map(|&e| e % items as u32)))
                        .collect();
                    Batch::from_transactions(id as u64, chunk)
                })
                .collect();
            let mut m = DsMatrix::new(DsMatrixConfig::new(
                WindowConfig::new(batches.len()).unwrap(),
                StorageBackend::Memory,
                items,
            ))
            .unwrap();
            for batch in &batches {
                m.ingest_batch(batch).unwrap();
            }
            let view = m.view().unwrap();
            let shapes = pool_shapes();
            let caps = (0..=4).map(MiningLimits::with_max_len).chain([MiningLimits::UNBOUNDED]);
            for limits in caps {
                for minsup in 1..=4 {
                    let walk = mine_direct_reference(&view, &catalog, minsup, limits, &Exec::scoped(1))
                        .unwrap();
                    for exec in &shapes {
                        let join = mine_direct(&view, &catalog, minsup, limits, exec).unwrap();
                        let case = format!("minsup {minsup}, {limits:?}, exec {exec:?}");
                        prop_assert_eq!(&join.patterns, &walk.patterns, "{}", case);
                        prop_assert_eq!(
                            join.stats.peak_bitvector_bytes,
                            walk.stats.peak_bitvector_bytes,
                            "{}",
                            case
                        );
                        prop_assert_eq!(
                            join.stats.patterns_before_postprocess,
                            walk.stats.patterns_before_postprocess,
                            "{}",
                            case
                        );
                        prop_assert!(
                            join.stats.intersections <= walk.stats.intersections,
                            "{}: {} screens, the walk {}",
                            case,
                            join.stats.intersections,
                            walk.stats.intersections
                        );
                    }
                }
            }
        }
    }
}
