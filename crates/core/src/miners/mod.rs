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
use fsm_types::{EdgeCatalog, FrequentPattern, Result, Support};

use crate::algorithm::Algorithm;
use crate::instrument::MiningStats;
use crate::parallel::Exec;

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
    /// traversal's pattern order exactly.
    pub fn merge(&mut self, other: RawMiningOutput) {
        self.patterns.extend(other.patterns);
        self.stats.merge(&other.stats);
    }
}

/// Runs the selected algorithm over the live window of `matrix`
/// (stop-the-world: takes the view and mines it in one call).
///
/// This is the dispatch point used by the facade and by the experiment
/// harness when it wants raw (pre-post-processing) output.  `exec` fans
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
