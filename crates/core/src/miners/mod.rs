//! The five mining algorithms over the DSMatrix.
//!
//! Every algorithm consumes the same inputs — a [`fsm_dsmatrix::WindowView`]
//! over the window being mined (either the live window through
//! [`fsm_dsmatrix::DsMatrix::view`] or a frozen epoch through
//! [`fsm_dsmatrix::EpochSnapshot::view`]), the edge catalog, a resolved
//! absolute minimum support and optional pattern-length limits — and
//! produces the same output type, a list of frequent patterns plus raw
//! statistics.  The [`crate::miner::StreamMiner`] facade dispatches on
//! [`crate::algorithm::Algorithm`] and applies the connectivity
//! post-processing step where required.

pub mod direct;
pub mod horizontal;
pub mod vertical;

use fsm_dsmatrix::{DsMatrix, WindowView};
use fsm_fptree::MiningLimits;
use fsm_types::{EdgeCatalog, EdgeId, FrequentPattern, FsmError, Result, Support};

use crate::algorithm::Algorithm;
use crate::instrument::MiningStats;
use crate::parallel::{Exec, HIRE_SCREENS};

/// Working-set accounting the vertical miners thread through their
/// recursion: the resident frequent rows (`base`) plus the intersection
/// buffers of every live ancestor recursion level (`ancestors`).
#[derive(Clone, Copy)]
pub(crate) struct Bytes {
    /// Heap bytes of the frequent singleton rows, alive for the whole call.
    pub base: usize,
    /// Heap bytes of the intersection buffers held by enclosing levels.
    pub ancestors: usize,
}

/// Raw output of one algorithm before post-processing.
#[derive(Debug, Clone, Default)]
pub struct RawMiningOutput {
    /// Frequent collections (connected *and* disconnected for algorithms 1–4,
    /// connected only for the direct algorithm).
    pub patterns: Vec<FrequentPattern>,
    /// Statistics accumulated while mining (timing is filled in by the
    /// caller).
    pub stats: MiningStats,
}

impl RawMiningOutput {
    /// Appends the patterns of a parallel worker's subtree and folds its
    /// statistics in (see [`MiningStats::merge`]).  Merging the per-singleton
    /// subtrees in canonical (edge-index) order reproduces the sequential
    /// traversal's pattern order exactly.  Into an output with no patterns
    /// yet, `other`'s list moves rather than being copied.
    pub fn merge(&mut self, other: RawMiningOutput) {
        if self.patterns.is_empty() {
            self.patterns = other.patterns;
        } else {
            self.patterns.extend(other.patterns);
        }
        self.stats.merge(&other.stats);
    }
}

/// One participant's share of a full mine's fan-out: its walk state, and
/// one output for every root it claimed.
struct Share<W> {
    walk: W,
    /// The claimed roots' patterns, root after root, and their statistics
    /// folded together ([`MiningStats::merge`] is order-free).
    out: RawMiningOutput,
    /// Each claimed root's index with the end of its patterns in
    /// `out.patterns`, ascending: the pool deals a participant its roots in
    /// increasing order.
    ends: Vec<(usize, usize)>,
    /// The first root that failed, and why.  Roots this participant claims
    /// after it are skipped: they cannot be the batch's lowest failure.
    failed: Option<(usize, FsmError)>,
}

/// Runs `root(walk, i, out)` for every root `i` in `0..roots` on `exec` and
/// returns the roots' outputs merged in root order — the sequential
/// traversal's pattern order and statistics, whatever the pool's shape —
/// or the lowest failing root's error.
///
/// Every participant builds one `walk` state and appends every root it
/// claims to one output of its own, so nothing is allocated or locked per
/// root.  The participants' outputs are then merged by moving each root's
/// range of patterns into place, root by root — no sort, and no copy at all
/// when one participant ran every root.
pub(crate) fn fan_out_roots<W: Send>(
    exec: &Exec,
    roots: usize,
    walk: impl Fn() -> W + Sync,
    root: impl Fn(&mut W, usize, &mut RawMiningOutput) -> Result<()> + Sync,
) -> Result<RawMiningOutput> {
    let init = || Share {
        walk: walk(),
        out: RawMiningOutput::default(),
        ends: Vec::with_capacity(roots),
        failed: None,
    };
    let mut shares = exec.run_indexed_stateful(roots, init, |share, idx| {
        if share.failed.is_some() {
            return;
        }
        match root(&mut share.walk, idx, &mut share.out) {
            Ok(()) => share.ends.push((idx, share.out.patterns.len())),
            Err(err) => share.failed = Some((idx, err)),
        }
    });
    if let Some((_, err)) = shares
        .iter_mut()
        .filter_map(|share| share.failed.take())
        .min_by_key(|&(idx, _)| idx)
    {
        return Err(err);
    }
    if shares.len() <= 1 {
        return Ok(shares.pop().map(|share| share.out).unwrap_or_default());
    }

    let mut merged = RawMiningOutput {
        patterns: Vec::with_capacity(shares.iter().map(|s| s.out.patterns.len()).sum()),
        stats: MiningStats::default(),
    };
    // Which share holds each root's patterns, and where they end in it.
    let mut owner = vec![(0, 0); roots];
    let mut drains = Vec::with_capacity(shares.len());
    for (at, share) in shares.into_iter().enumerate() {
        merged.stats.merge(&share.out.stats);
        for &(idx, end) in &share.ends {
            owner[idx] = (at, end);
        }
        drains.push((share.out.patterns.into_iter(), 0));
    }
    // A share's roots ascend, so its ranges leave its front in root order.
    for (at, end) in owner {
        let (patterns, start) = &mut drains[at];
        merged.patterns.extend(patterns.take(end - *start));
        *start = end;
    }
    Ok(merged)
}

/// The executor a facade's full mine by `algorithm` over `view` runs on
/// ([`crate::StreamMiner::mine`], [`crate::MinerSnapshot::mine`]): for the
/// vertical family `exec` hired by the mine's own first level
/// ([`Exec::hire`]), for the horizontal family `exec` itself.
pub(crate) fn hire(
    exec: &Exec,
    algorithm: Algorithm,
    view: &WindowView<'_>,
    catalog: &EdgeCatalog,
    minsup: Support,
    limits: MiningLimits,
) -> Exec {
    match first_level_screens(algorithm, view, catalog, minsup, limits) {
        Some(screens) => exec.hire(screens),
        None => exec.clone(),
    }
}

/// The screens a full mine by `algorithm` makes at depth 1 — its roots'
/// screens before any of them descends — counted from the view's singleton
/// supports and the catalog, and only until they reach [`HIRE_SCREENS`];
/// `None` for the horizontal family, which screens no candidates.
///
/// * [`Algorithm::Vertical`]: root `i` screens every frequent edge after
///   it, so `k` frequent singletons make `k(k − 1) / 2`;
/// * [`Algorithm::DirectVertical`]: a root's candidates are its frequent
///   catalog neighbours above it, all fresh ([`direct::mine_direct`]);
/// * 0 when `limits` stops at length 1: no root descends.
fn first_level_screens(
    algorithm: Algorithm,
    view: &WindowView<'_>,
    catalog: &EdgeCatalog,
    minsup: Support,
    limits: MiningLimits,
) -> Option<u64> {
    let direct = match algorithm {
        Algorithm::Vertical => false,
        Algorithm::DirectVertical => true,
        _ => return None,
    };
    if !limits.allows(2) {
        return Some(0);
    }
    let minsup = minsup.max(1);
    let frequent = |edge: &EdgeId| view.support(*edge) >= minsup;
    let roots = (0..view.num_items() as u32)
        .map(EdgeId::new)
        .filter(frequent);
    let mut screens = 0u64;
    for (before, root) in roots.enumerate() {
        screens += if direct {
            // A root the catalog does not know has no neighbours.
            let adjacent = catalog.neighbors(root).unwrap_or(&[]);
            let above = &adjacent[adjacent.partition_point(|&n| n <= root)..];
            above.iter().filter(|n| frequent(n)).count() as u64
        } else {
            // Every pair of frequent edges is one screen, at the lower root.
            before as u64
        };
        if screens >= HIRE_SCREENS {
            break;
        }
    }
    Some(screens)
}

/// Runs the selected algorithm over the live window of `matrix`
/// (stop-the-world: takes the view and mines it in one call).
///
/// This is the dispatch point for raw (pre-post-processing) output on an
/// executor of the caller's choosing; the facade's full mine takes the view
/// itself, to hire by its first level.  `exec` fans
/// every algorithm's top-level enumeration — per-singleton subtrees for the
/// vertical family, per-pivot projected databases for the horizontal family —
/// out over the [`crate::parallel::WorkerPool`] behind `exec`: the caller
/// plus however many of the pool's helpers are idle ([`Exec::scoped`]`(1)`
/// has none and mines sequentially).  Results are byte-identical for every
/// pool size.
pub fn run_algorithm(
    algorithm: Algorithm,
    matrix: &mut DsMatrix,
    catalog: &EdgeCatalog,
    minsup: Support,
    limits: MiningLimits,
    exec: &Exec,
) -> Result<RawMiningOutput> {
    let view = matrix.view()?;
    run_algorithm_on_view(algorithm, &view, catalog, minsup, limits, exec)
}

/// Runs the selected algorithm over an already-taken [`WindowView`] — the
/// live view or a frozen [`fsm_dsmatrix::EpochSnapshot`]'s; the algorithms
/// cannot tell the difference, which is what makes snapshot mining
/// byte-identical to stop-the-world mining at the same epoch
/// (property-tested in `crates/core/tests/epoch_agreement.rs`).
pub fn run_algorithm_on_view(
    algorithm: Algorithm,
    view: &WindowView<'_>,
    catalog: &EdgeCatalog,
    minsup: Support,
    limits: MiningLimits,
    exec: &Exec,
) -> Result<RawMiningOutput> {
    match algorithm {
        Algorithm::MultiTree => horizontal::mine_multi_tree(view, minsup, limits, exec),
        Algorithm::SingleTree => horizontal::mine_single_tree(view, minsup, limits, exec),
        Algorithm::TopDown => horizontal::mine_top_down(view, minsup, limits, exec),
        Algorithm::Vertical => vertical::mine_vertical(view, minsup, limits, exec),
        Algorithm::DirectVertical => direct::mine_direct(view, catalog, minsup, limits, exec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsm_dsmatrix::DsMatrixConfig;
    use fsm_storage::StorageBackend;
    use fsm_stream::WindowConfig;
    use fsm_types::{Batch, Transaction};
    use proptest::prelude::*;

    /// A one-batch memory window over `items` rows holding `transactions`.
    fn window(items: usize, transactions: &[Vec<u32>]) -> DsMatrix {
        let mut matrix = DsMatrix::new(DsMatrixConfig::new(
            WindowConfig::new(1).unwrap(),
            StorageBackend::Memory,
            items,
        ))
        .unwrap();
        let batch = transactions
            .iter()
            .map(|t| Transaction::from_raw(t.iter().map(|&e| e % items as u32)))
            .collect();
        matrix
            .ingest_batch(&Batch::from_transactions(0, batch))
            .unwrap();
        matrix
    }

    /// The count against its oracle, the screens of the same mine capped at
    /// length 2 — which screens exactly the first level: equal below
    /// [`HIRE_SCREENS`], at least it from there.  Returns the count.
    fn counted(
        algorithm: Algorithm,
        view: &WindowView<'_>,
        catalog: &EdgeCatalog,
        minsup: Support,
        limits: MiningLimits,
    ) -> u64 {
        let count = first_level_screens(algorithm, view, catalog, minsup, limits).unwrap();
        let first_level = MiningLimits::with_max_len(if limits.allows(2) { 2 } else { 1 });
        let oracle =
            run_algorithm_on_view(algorithm, view, catalog, minsup, first_level, &Exec::solo())
                .unwrap()
                .stats
                .intersections;
        if oracle < HIRE_SCREENS {
            assert_eq!(count, oracle, "{algorithm}, minsup {minsup}, {limits:?}");
        } else {
            assert!(
                count >= HIRE_SCREENS && count <= oracle,
                "{count} of {oracle}"
            );
        }
        count
    }

    #[test]
    fn a_dense_first_level_reaches_the_hire_count_and_stops_there() {
        let catalog = EdgeCatalog::complete(17);
        let every_edge: Vec<u32> = (0..136).collect();
        let mut matrix = window(136, &vec![every_edge; 3]);
        let view = matrix.view().unwrap();
        let exec = Exec::pool(std::sync::Arc::new(crate::parallel::WorkerPool::new(1)));
        for algorithm in [Algorithm::Vertical, Algorithm::DirectVertical] {
            let count = counted(algorithm, &view, &catalog, 3, MiningLimits::UNBOUNDED);
            assert!(
                count < 2 * HIRE_SCREENS,
                "{algorithm}: counted on to {count}"
            );
            let hired = hire(
                &exec,
                algorithm,
                &view,
                &catalog,
                3,
                MiningLimits::UNBOUNDED,
            );
            assert_eq!(hired.size(), 1, "{algorithm} hires");
            let capped = MiningLimits::with_max_len(1);
            assert_eq!(counted(algorithm, &view, &catalog, 3, capped), 0);
            let solo = hire(&exec, algorithm, &view, &catalog, 3, capped);
            assert_eq!(solo.size(), 0, "{algorithm} at length 1 mines solo");
        }
        for algorithm in [
            Algorithm::MultiTree,
            Algorithm::SingleTree,
            Algorithm::TopDown,
        ] {
            let capped = MiningLimits::with_max_len(1);
            assert_eq!(
                first_level_screens(algorithm, &view, &catalog, 3, capped),
                None
            );
            let hired = hire(&exec, algorithm, &view, &catalog, 3, capped);
            assert_eq!(hired.size(), 1, "{algorithm} always hires");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The count is the first level a mine screens, for both vertical
        /// miners at every support and length cap, with frequent edges
        /// outside the catalog among the roots.
        #[test]
        fn the_count_is_the_first_level_a_mine_screens(
            vertices in 2u32..8,
            outside in 0usize..3,
            transactions in proptest::collection::vec(
                proptest::collection::vec(0u32..40, 0..12),
                1..16,
            ),
        ) {
            let catalog = EdgeCatalog::complete(vertices);
            let mut matrix = window(catalog.num_edges() + outside, &transactions);
            let view = matrix.view().unwrap();
            let caps = (0..=3).map(MiningLimits::with_max_len).chain([MiningLimits::UNBOUNDED]);
            for limits in caps {
                for minsup in 1..=4 {
                    for algorithm in [Algorithm::Vertical, Algorithm::DirectVertical] {
                        counted(algorithm, &view, &catalog, minsup, limits);
                    }
                }
            }
        }
    }
}
