//! §4 — direct vertical mining of frequent *connected* subgraphs.

use fsm_dsmatrix::WindowView;
use fsm_fptree::MiningLimits;
use fsm_storage::BitVec;
use fsm_types::{EdgeCatalog, EdgeId, EdgeSet, FrequentPattern, Result, Support};

use super::{Bytes, RawMiningOutput};
use crate::neighborhood::Neighborhood;
use crate::parallel::Exec;
use crate::scratch::ScratchArena;

/// Mines frequent connected subgraphs directly, without a post-processing
/// step, by only intersecting the bit vectors of *neighbouring* edges.
///
/// The enumeration grows a connected subgraph one adjacent edge at a time,
/// with candidate edges drawn from the incrementally maintained neighbourhood
/// (equations (1) and (2) of the paper).  To enumerate every connected
/// pattern exactly once, an extension is only explored when it is the
/// pattern's *canonical growth step*: starting from the pattern's smallest
/// edge and always absorbing the smallest adjacent member, the last edge
/// absorbed must be the edge we are about to add.  Example 7's run is exactly
/// this sequence of intersections (e.g. `{c,d,f}` is reached from `{c,f}` by
/// adding `d`, never from `{c,d}`, which is not connected).  Canonical
/// sequences are prefix-closed, so the connected patterns form a tree under
/// this relation; [`crate::DeltaMiner`] maintains that same tree across
/// window slides.
///
/// A screen costs its kernel.  Each worker walks its subtrees with one
/// [`Neighborhood`] cursor: the members are the current node's root path,
/// a child's neighbour list is one sorted merge into a buffer reused for
/// every node at that depth, and the merge leaves each neighbour with the
/// answer to "is adding it the canonical growth step?" (the rule and its
/// proof are on [`Neighborhood`]), so the per-candidate work is an indexed
/// lookup of the frequent row, one comparison, and the fused
/// [`BitVec::and_count`] screen.  Nothing is allocated per candidate:
/// surviving intersections land in per-depth [`ScratchArena`] buffers, and
/// the only per-pattern allocation is the emitted pattern itself
/// (`crates/core/tests/alloc_regression.rs` pins that).  The fan-out over
/// frequent single edges runs on `exec`'s worker pool and merges
/// deterministically.
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
    let minsup = minsup.max(1);
    let mut output = RawMiningOutput::default();

    // Frequent single edges and their rows, borrowed zero-copy from the
    // window view (supports come from ingest-time counters).  `rows` is
    // indexed by edge: `None` for an infrequent one.
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

    let worker = |(scratch, hood): &mut (ScratchArena, Neighborhood<'_>),
                  idx: usize|
     -> Result<RawMiningOutput> {
        let (edge, support, row) = frequent[idx];
        let mut sub = RawMiningOutput::default();
        sub.patterns
            .push(FrequentPattern::new(EdgeSet::singleton(edge), support));
        if !limits.allows(2) || edge.index() >= catalog.num_edges() {
            return Ok(sub);
        }
        hood.seat(edge)?;
        let bytes = Bytes {
            base: base_bytes,
            ancestors: 0,
        };
        grow(&rows, hood, row, minsup, limits, bytes, scratch, &mut sub)?;
        Ok(sub)
    };

    // Each worker owns one scratch arena and one neighbourhood cursor for all
    // the subtrees it processes, so intersection buffers and neighbour lists
    // are allocated once per worker per depth.
    let state = || (ScratchArena::new(), Neighborhood::new(catalog));
    for sub in exec.run_indexed_stateful(frequent.len(), state, worker) {
        output.merge(sub?);
    }

    output.stats.patterns_before_postprocess = output.patterns.len();
    Ok(output)
}

/// Extends the connected subgraph `hood` is positioned on with every
/// frequent neighbouring edge whose addition is the canonical growth step.
/// `hood` is back on the same subgraph when this returns.
#[allow(clippy::too_many_arguments)]
fn grow(
    rows: &[Option<&BitVec>],
    hood: &mut Neighborhood<'_>,
    vector: &BitVec,
    minsup: Support,
    limits: MiningLimits,
    bytes: Bytes,
    scratch: &mut ScratchArena,
    output: &mut RawMiningOutput,
) -> Result<()> {
    let depth = hood.members().len();
    let mut buffer = scratch.take(depth);
    let mut index = 0;
    while let Some((candidate, canonical)) = hood.candidate(index) {
        index += 1;
        // Only frequent edges are ever intersected ("the algorithm only
        // intersects vectors of frequent edges").
        let Some(row) = rows.get(candidate.index()).copied().flatten() else {
            continue;
        };
        if !canonical {
            continue;
        }
        output.stats.intersections += 1;
        // Fused popcount screen: infrequent candidates never materialise.
        let support = vector.and_count(row);
        if support < minsup {
            continue;
        }
        let written = vector.and_into(row, &mut buffer);
        debug_assert_eq!(written, support);
        hood.push(candidate)?;
        output.patterns.push(FrequentPattern::new(
            EdgeSet::from_edges(hood.members().iter().copied()),
            support,
        ));
        // Working set: the frequent rows plus the intersection buffer of
        // every live recursion level (ancestors + this one).
        let live = bytes.ancestors + buffer.heap_bytes();
        output.stats.peak_bitvector_bytes =
            output.stats.peak_bitvector_bytes.max(bytes.base + live);
        if limits.allows(depth + 2) {
            let below = Bytes {
                base: bytes.base,
                ancestors: live,
            };
            grow(rows, hood, &buffer, minsup, limits, below, scratch, output)?;
        }
        hood.pop();
    }
    scratch.put(depth, buffer);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::pool_shapes;
    use fsm_dsmatrix::{DsMatrix, DsMatrixConfig};
    use fsm_storage::StorageBackend;
    use fsm_stream::WindowConfig;
    use fsm_types::{Batch, Transaction};

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
}
