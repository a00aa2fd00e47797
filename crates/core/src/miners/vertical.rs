//! §3.4 — vertical bit-vector mining of all frequent edge collections.

use fsm_dsmatrix::WindowView;
use fsm_fptree::MiningLimits;
use fsm_storage::BitVec;
use fsm_types::{EdgeId, EdgeSet, FrequentPattern, FsmError, Result, Support};

use super::{Bytes, RawMiningOutput};
use crate::parallel::Exec;
use crate::scratch::ScratchArena;

/// Mines every frequent edge collection by intersecting DSMatrix rows.
///
/// The algorithm first computes the row sum of every row (the singleton
/// supports), then repeatedly intersects the bit vectors of frequent patterns
/// with the rows of larger frequent edges, depth-first in canonical order —
/// the classic vertical (Eclat-style) enumeration the paper describes in
/// Example 5.  Connected and disconnected collections alike are produced; the
/// §3.5 post-processing step prunes the disconnected ones afterwards.
///
/// Two engine-level optimisations keep the hot loop allocation-free: every
/// candidate is screened with the fused [`BitVec::and_count`] kernel (so
/// infrequent candidates never materialise an intersection vector at all),
/// and surviving intersections are written into a per-depth [`ScratchArena`]
/// buffer via [`BitVec::and_into`].  The top-level fan-out over frequent
/// single edges runs on `exec`'s worker pool; per-edge subtrees are merged
/// back in canonical order, so the output is identical to the sequential
/// traversal.
///
/// Rows are read through the [`WindowView`] — the live view
/// ([`fsm_dsmatrix::DsMatrix::view`]) or a frozen epoch's
/// ([`fsm_dsmatrix::EpochSnapshot::view`]): singleton supports come from
/// ingest-time counters and the frequent rows are *borrowed* from the view,
/// so this function itself materialises no window data at all.
pub fn mine_vertical(
    view: &WindowView<'_>,
    minsup: Support,
    limits: MiningLimits,
    exec: &Exec,
) -> Result<RawMiningOutput> {
    let minsup = minsup.max(1);
    let mut output = RawMiningOutput::default();

    // Frequent single edges with their rows borrowed from the view.  All
    // rows of one view share the same column alignment, so the intersection
    // kernels below see exactly the flat-matrix bit strings.
    let frequent: Vec<(EdgeId, Support, &BitVec)> = view
        .singleton_supports()
        .into_iter()
        .filter(|(_, support)| *support >= minsup)
        .map(|(edge, support)| match view.row(edge) {
            Some(row) => Ok((edge, support, row)),
            // A view that lists an edge it cannot serve is corrupt; surface
            // it as an error (one tenant's damaged window must not abort a
            // multi-tenant process).
            None => Err(FsmError::corrupt(format!(
                "window view lists edge {} but cannot serve its row",
                edge.index()
            ))),
        })
        .collect::<Result<_>>()?;
    let row_bytes: usize = frequent.iter().map(|(_, _, row)| row.heap_bytes()).sum();
    output.stats.peak_bitvector_bytes = row_bytes;

    // Singletons are patterns of length 1 and obey the same cardinality cap
    // as everything else.
    if !limits.allows(1) {
        return Ok(output);
    }

    // Each worker owns one scratch arena for all the subtrees it processes,
    // so intersection buffers are allocated once per worker per depth.
    let subtrees = exec.run_indexed_stateful(frequent.len(), ScratchArena::new, |scratch, idx| {
        mine_subtree(&frequent, idx, minsup, limits, row_bytes, scratch)
    });
    for sub in subtrees {
        output.merge(sub);
    }

    output.stats.patterns_before_postprocess = output.patterns.len();
    Ok(output)
}

/// Mines the enumeration subtree rooted at `frequent[idx]`: the singleton
/// pattern itself plus every extension by edges after it in canonical order.
fn mine_subtree(
    frequent: &[(EdgeId, Support, &BitVec)],
    idx: usize,
    minsup: Support,
    limits: MiningLimits,
    base_bytes: usize,
    scratch: &mut ScratchArena,
) -> RawMiningOutput {
    let (edge, support, row) = &frequent[idx];
    let mut output = RawMiningOutput::default();
    output
        .patterns
        .push(FrequentPattern::new(EdgeSet::singleton(*edge), *support));
    if limits.allows(2) {
        extend(
            frequent,
            idx,
            &mut vec![*edge],
            row,
            minsup,
            limits,
            Bytes {
                base: base_bytes,
                ancestors: 0,
            },
            scratch,
            &mut output,
        );
    }
    output
}

/// Depth-first extension of `prefix` (whose transaction set is `vector`) with
/// every frequent edge after position `from` in canonical order.
///
/// At the root `vector` is a row borrowed from the view; deeper levels pass
/// the scratch buffer of the level above.
#[allow(clippy::too_many_arguments)]
fn extend(
    frequent: &[(EdgeId, Support, &BitVec)],
    from: usize,
    prefix: &mut Vec<EdgeId>,
    vector: &BitVec,
    minsup: Support,
    limits: MiningLimits,
    bytes: Bytes,
    scratch: &mut ScratchArena,
    output: &mut RawMiningOutput,
) {
    let depth = prefix.len();
    let mut buffer = scratch.take(depth);
    for (next_idx, (edge, _, row)) in frequent.iter().enumerate().skip(from + 1) {
        output.stats.intersections += 1;
        // Fused popcount screen: infrequent candidates are rejected without
        // materialising (or allocating) the intersection vector.
        let support = vector.and_count(row);
        if support < minsup {
            continue;
        }
        let written = vector.and_into(row, &mut buffer);
        debug_assert_eq!(written, support);
        prefix.push(*edge);
        output.patterns.push(FrequentPattern::new(
            EdgeSet::from_edges(prefix.iter().copied()),
            support,
        ));
        // Working set: the frequent rows plus the intersection buffer of
        // every live recursion level (ancestors + this one).
        let live = bytes.ancestors + buffer.heap_bytes();
        output.stats.peak_bitvector_bytes =
            output.stats.peak_bitvector_bytes.max(bytes.base + live);
        if limits.allows(prefix.len() + 1) {
            extend(
                frequent,
                next_idx,
                prefix,
                &buffer,
                minsup,
                limits,
                Bytes {
                    base: bytes.base,
                    ancestors: live,
                },
                scratch,
                output,
            );
        }
        prefix.pop();
    }
    scratch.put(depth, buffer);
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
    fn reproduces_example_5() {
        let mut m = paper_matrix();
        let output = mine_vertical(
            &m.view().unwrap(),
            2,
            MiningLimits::UNBOUNDED,
            &Exec::scoped(1),
        )
        .unwrap();
        // Example 5 finds the same 17 collections as the tree-based runs, and
        // spells out the key supports: {a,c}:4, {a,d}:3, {a,f}:4, {b,c}:2,
        // {c,d}:3, {c,f}:3, {d,f}:3.
        assert_eq!(output.patterns.len(), 17);
        let strings = pattern_strings(&output);
        for expected in [
            "{a,c}:4",
            "{a,d}:3",
            "{a,f}:4",
            "{b,c}:2",
            "{c,d}:3",
            "{c,f}:3",
            "{d,f}:3",
            "{a,c,d}:2",
            "{a,c,f}:3",
            "{a,d,f}:3",
            "{a,c,d,f}:2",
        ] {
            assert!(
                strings.contains(&expected.to_string()),
                "missing {expected}"
            );
        }
        assert!(output.stats.intersections > 0);
        assert!(output.stats.peak_bitvector_bytes > 0);
        assert_eq!(output.stats.tree_footprint.trees_built, 0);
    }

    #[test]
    fn agrees_with_the_horizontal_algorithms() {
        let mut m = paper_matrix();
        let view = m.view().unwrap();
        for minsup in 1..=5 {
            let vertical = pattern_strings(
                &mine_vertical(&view, minsup, MiningLimits::UNBOUNDED, &Exec::scoped(1)).unwrap(),
            );
            let horizontal = pattern_strings(
                &super::super::horizontal::mine_multi_tree(
                    &view,
                    minsup,
                    MiningLimits::UNBOUNDED,
                    &Exec::scoped(1),
                )
                .unwrap(),
            );
            assert_eq!(vertical, horizontal, "minsup {minsup}");
        }
    }

    #[test]
    fn parallel_run_is_identical_to_sequential() {
        let mut m = paper_matrix();
        let view = m.view().unwrap();
        let execs = pool_shapes();
        for minsup in 1..=5 {
            let sequential =
                mine_vertical(&view, minsup, MiningLimits::UNBOUNDED, &Exec::scoped(1)).unwrap();
            for exec in &execs {
                let parallel = mine_vertical(&view, minsup, MiningLimits::UNBOUNDED, exec).unwrap();
                // Not just as sets: the merged order must match exactly.
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
    fn respects_pattern_length_limit() {
        let mut m = paper_matrix();
        let view = m.view().unwrap();
        let output =
            mine_vertical(&view, 2, MiningLimits::with_max_len(2), &Exec::scoped(1)).unwrap();
        assert!(output.patterns.iter().all(|p| p.len() <= 2));
        let singles =
            mine_vertical(&view, 2, MiningLimits::with_max_len(1), &Exec::scoped(1)).unwrap();
        assert!(singles.patterns.iter().all(|p| p.len() == 1));
        assert_eq!(singles.stats.intersections, 0);
        // A zero cap forbids even singletons.
        let nothing =
            mine_vertical(&view, 2, MiningLimits::with_max_len(0), &Exec::scoped(1)).unwrap();
        assert!(nothing.patterns.is_empty());
        assert_eq!(nothing.stats.intersections, 0);
    }

    #[test]
    fn empty_matrix_and_high_minsup() {
        let mut empty = DsMatrix::new(DsMatrixConfig::new(
            WindowConfig::new(2).unwrap(),
            StorageBackend::Memory,
            4,
        ))
        .unwrap();
        assert!(mine_vertical(
            &empty.view().unwrap(),
            1,
            MiningLimits::UNBOUNDED,
            &Exec::scoped(1)
        )
        .unwrap()
        .patterns
        .is_empty());
        let mut m = paper_matrix();
        assert!(mine_vertical(
            &m.view().unwrap(),
            7,
            MiningLimits::UNBOUNDED,
            &Exec::scoped(1)
        )
        .unwrap()
        .patterns
        .is_empty());
    }
}
