//! The [`StreamMiner`] facade: capture batches, slide the window, mine on
//! demand — or snapshot an epoch ([`StreamMiner::snapshot`]) and mine it on
//! another thread while ingest continues.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fsm_dsmatrix::{
    DsMatrix, DsMatrixConfig, DurabilityConfig, EpochSnapshot, Incoming, ReadStats, RecoveryReport,
};
use fsm_fptree::MiningLimits;
use fsm_stream::SlideOutcome;
use fsm_types::{Batch, BatchId, EdgeCatalog, GraphSnapshot, Result, Support, Transaction};

use crate::algorithm::{Algorithm, ConnectivityMode};
use crate::config::MinerConfig;
use crate::connectivity::ConnectivityChecker;
use crate::delta::DeltaMiner;
use crate::miners::{self, RawMiningOutput};
use crate::parallel::Exec;
use crate::result::MiningResult;

/// Where [`StreamMiner::build`] gets its matrix from.
enum BuildSource<'a> {
    /// A brand-new, empty window.
    Fresh,
    /// WAL + checkpoints under the durable directory.
    Recover,
    /// A spill image under the given spill directory.
    Thaw(&'a Path),
}

/// A streaming frequent connected subgraph miner.
///
/// The miner owns the DSMatrix capture structure and the edge catalog.  Each
/// ingested batch updates the matrix (sliding the window once it is full);
/// mining is *delayed* until [`StreamMiner::mine`] is called, exactly as the
/// paper prescribes.
pub struct StreamMiner {
    config: MinerConfig,
    catalog: EdgeCatalog,
    matrix: DsMatrix,
    next_batch_id: u64,
    /// The miner's own executor, sized once by [`MinerConfig::threads`] and
    /// shared with every [`MinerSnapshot`] it hands out.
    exec: Exec,
    /// Screens of the last full vertical-family mine, which decide whether
    /// the next one hires helpers ([`crate::parallel::HIRE_SCREENS`]);
    /// `None` until such a mine has run.
    last_screens: Option<u64>,
    /// Incrementally maintained pattern state, created on the first delta
    /// mine and advanced epoch by epoch.
    delta: Option<DeltaMiner>,
}

impl StreamMiner {
    /// Creates a miner from its configuration.
    ///
    /// With [`MinerConfig::durable_dir`] set this is a **fresh start**: any
    /// WAL, checkpoints or segment files a previous run left in the
    /// directory are discarded.  Use [`StreamMiner::recover`] to resume.
    pub fn new(config: MinerConfig) -> Result<Self> {
        Self::build(config, BuildSource::Fresh)
    }

    /// Rebuilds a miner from the durable directory of a previous (possibly
    /// crashed) run: newest verifiable checkpoint plus WAL-tail replay.
    ///
    /// Requires [`MinerConfig::durable_dir`].  The configuration — window
    /// size, backend, catalog — must match the run being recovered: the
    /// durable artifacts persist the *window contents*, not the
    /// configuration.  What recovery found (checkpoint used, batches
    /// replayed, artifacts it had to distrust) is available through
    /// [`StreamMiner::recovery_report`].
    pub fn recover(config: MinerConfig) -> Result<Self> {
        Self::build(config, BuildSource::Recover)
    }

    /// Spills the miner's window to disk in its one cold form, a checkpoint
    /// plus segment runs ([`DsMatrix::hibernate`]): a checkpoint for durable
    /// miners (their runs already live under [`MinerConfig::durable_dir`]),
    /// a checkpoint and a copy of every live segment's run under
    /// [`DsMatrix::spill_image`]`(spill_dir)` otherwise.  The miner stays
    /// usable; the session layer drops it right after, releasing the
    /// resident state and its budget lease.  [`StreamMiner::thaw`] rebuilds
    /// a byte-identical miner.
    pub fn hibernate(&mut self, spill_dir: &Path) -> Result<()> {
        self.matrix.hibernate(spill_dir)
    }

    /// Rebuilds a hibernated miner: [`StreamMiner::recover`] for durable
    /// configurations, the spill image under `spill_dir` otherwise — loaded
    /// by recovery's own loader ([`DsMatrix::thaw`]).
    ///
    /// The configuration must carry the catalog the original miner held (the
    /// session layer clones it back in at spill time).  Delta-mining state is
    /// *not* hibernated: the first delta mine after a thaw performs the full
    /// rebuild, which is byte-identical to the maintained state by the
    /// delta-agreement property.
    pub fn thaw(config: MinerConfig, spill_dir: &Path) -> Result<Self> {
        Self::build(config, BuildSource::Thaw(spill_dir))
    }

    fn build(mut config: MinerConfig, source: BuildSource<'_>) -> Result<Self> {
        let catalog = config.catalog.take().unwrap_or_default();
        let mut matrix_config =
            DsMatrixConfig::new(config.window, config.backend.clone(), catalog.num_edges())
                .with_cache_budget(config.cache_budget_bytes);
        if let Some(governor) = &config.cache_governor {
            matrix_config = matrix_config.with_budget_governor(Arc::clone(governor));
        }
        if let Some(dir) = &config.durable_dir {
            matrix_config = matrix_config.with_durability(
                DurabilityConfig::new(dir).with_checkpoint_every(config.checkpoint_every),
            );
        }
        let matrix = match source {
            BuildSource::Fresh => DsMatrix::new(matrix_config)?,
            BuildSource::Recover => DsMatrix::recover(matrix_config)?,
            BuildSource::Thaw(spill_dir) => DsMatrix::thaw(matrix_config, spill_dir)?,
        };
        let next_batch_id = matrix.last_batch_id().map_or(0, |id| id + 1);
        let exec = Exec::scoped(config.threads);
        Ok(Self {
            config,
            catalog,
            matrix,
            next_batch_id,
            exec,
            last_screens: None,
            delta: None,
        })
    }

    /// The active configuration (catalog moved out; see
    /// [`StreamMiner::catalog`]).
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// The edge vocabulary as currently known.
    pub fn catalog(&self) -> &EdgeCatalog {
        &self.catalog
    }

    /// Bytes this miner currently keeps resident in main memory: the capture
    /// structure's share of the window plus, once a delta mine has run, the
    /// maintained pattern state ([`DeltaMiner::heap_bytes`]).  That is what a
    /// spill releases — [`StreamMiner::hibernate`] writes the window out and
    /// the session layer then drops the miner, delta state included (it is
    /// rebuilt by the first mine after the thaw).
    pub fn resident_bytes(&self) -> usize {
        self.matrix.resident_bytes() + self.delta.as_ref().map_or(0, DeltaMiner::heap_bytes)
    }

    /// Number of transactions currently in the window.
    pub fn window_transactions(&self) -> usize {
        self.matrix.num_transactions()
    }

    /// Number of batches currently in the window.
    pub fn window_batches(&self) -> usize {
        self.matrix.num_batches()
    }

    /// Ingests a pre-built batch of edge transactions.
    ///
    /// The transactions must reference edges of the miner's catalog (either
    /// provided at build time or interned through
    /// [`StreamMiner::ingest_snapshots`]); unknown edges are still captured by
    /// the matrix but cannot participate in connectivity decisions.
    pub fn ingest_batch(&mut self, batch: &Batch) -> Result<SlideOutcome> {
        self.ingest(Incoming::Batch(batch), usize::MAX)
    }

    /// [`StreamMiner::ingest_batch`] for a batch in either form — built, or
    /// its encoded payload read in one pass — refusing a malformed payload
    /// and any edge id at or past `edge_limit` ([`DsMatrix::ingest`]) before
    /// anything changes.
    pub fn ingest(&mut self, incoming: Incoming<'_>, edge_limit: usize) -> Result<SlideOutcome> {
        let outcome = self.matrix.ingest(incoming, edge_limit)?;
        self.next_batch_id = self.next_batch_id.max(outcome.entered.saturating_add(1));
        Ok(outcome)
    }

    /// Ingests one batch worth of raw graph snapshots, interning any new
    /// vertex pair into the catalog.
    pub fn ingest_snapshots(&mut self, snapshots: &[GraphSnapshot]) -> Result<SlideOutcome> {
        let transactions: Vec<Transaction> = snapshots
            .iter()
            .map(|snapshot| snapshot.intern_into(&mut self.catalog))
            .collect();
        let batch = Batch::from_transactions(self.next_batch_id, transactions);
        self.next_batch_id += 1;
        self.matrix.ingest_batch(&batch)
    }

    /// Mines the current window with the configured algorithm, applying the
    /// connectivity post-processing step where the algorithm requires it.
    ///
    /// With [`MinerConfig::delta`] enabled the pattern set is *maintained*
    /// across slides instead: the [`DeltaMiner`] state is advanced to the
    /// current epoch, paying only for the patterns the intervening slides
    /// affected.  The maintained tree is the connected frequent collections
    /// (§4 neighbourhood growth, nothing to post-process) — what
    /// [`Algorithm::DirectVertical`] returns, and every algorithm under
    /// [`ConnectivityMode::Exact`] — so pattern output is byte-identical to a
    /// full mine at the same epoch for every algorithm, backend, thread count
    /// and connectivity mode.  The one configuration whose answer is *not*
    /// that set — a post-processing algorithm under
    /// [`ConnectivityMode::PaperRule`], whose rule lets some disconnected
    /// collections through — is mined in full whatever the flag says.
    /// Property-tested against the full re-mine oracle in
    /// `crates/core/tests/delta_agreement.rs`; the work a delta mine actually
    /// performed is reported in [`crate::MiningStats::delta`].
    ///
    /// The first delta mine (and any after the resolved minimum support, the
    /// pattern-length limit or the catalog changed, e.g. a relative threshold
    /// re-resolving as the window grows or [`StreamMiner::ingest_snapshots`]
    /// interning a new vertex pair) performs one full rebuild; steady-state
    /// calls on a sliding window are O(patterns affected by the slide), each
    /// touch one integer or one segment-sized chunk operation.  A delta mine
    /// reads the epoch's segments directly and builds no window view, on
    /// either backend; the state it maintains counts towards
    /// [`StreamMiner::resident_bytes`].  Either kind of mine fans out over
    /// the miner's own executor ([`MinerConfig::threads`]): a full one per
    /// frequent singleton, a delta one per root of the maintained tree.  A
    /// full [`Algorithm::Vertical`] or [`Algorithm::DirectVertical`] mine
    /// runs on its caller alone when the previous one made fewer than
    /// [`crate::parallel::HIRE_SCREENS`] screens.
    pub fn mine(&mut self) -> Result<MiningResult> {
        let exec = self.exec.clone();
        self.mine_with(&exec)
    }

    /// Like [`StreamMiner::mine`] but on an explicit executor instead of
    /// the miner's own — the service layer passes [`Exec::pool`] here so
    /// concurrent tenant mines multiplex over one process-wide worker set.
    /// Output is byte-identical to [`StreamMiner::mine`] for every
    /// executor.
    ///
    /// Delta mining ([`MinerConfig::delta`]) fans out on it too: the
    /// maintained tree is a forest of per-root subtrees that never reference
    /// each other, so [`DeltaMiner::advance`] runs its shared prelude on the
    /// caller and one task per root on `exec` — the shape of the full
    /// re-mine's per-singleton fan-out.
    pub fn mine_with(&mut self, exec: &Exec) -> Result<MiningResult> {
        let start = Instant::now();
        let read_before = self.matrix.read_stats();
        let window_transactions = self.matrix.num_transactions();
        let resolved = self.config.min_support.resolve(window_transactions);
        let (algorithm, connectivity) = (self.config.algorithm, self.config.connectivity);
        let keeps_disconnected =
            algorithm.needs_postprocessing() && connectivity == ConnectivityMode::PaperRule;
        let delta = self.config.delta && !keeps_disconnected;
        let raw = if delta {
            self.mine_delta(resolved, exec)?
        } else {
            self.mine_full(resolved, exec)?
        };
        let postprocess = if delta {
            None // the maintained tree is connected by construction
        } else {
            postprocessor(algorithm, &self.catalog, connectivity)
        };
        Ok(finish_mine(
            raw,
            start,
            postprocess,
            window_transactions,
            resolved,
            Some((&self.matrix, read_before)),
        ))
    }

    /// Re-enumerates the window with the configured algorithm, on `exec`
    /// or — after a small mine — on the caller alone.
    fn mine_full(&mut self, resolved: Support, exec: &Exec) -> Result<RawMiningOutput> {
        // The guard releases the flat rows the view assembled whichever way
        // mining exits — success, error or panic — so the between-mines
        // resident footprint never silently retains a window copy on a
        // failed mine.
        let matrix = TrimCacheGuard(&mut self.matrix);
        let raw = miners::run_algorithm(
            self.config.algorithm,
            matrix.0,
            &self.catalog,
            resolved,
            self.config.limits,
            &exec.hire(self.last_screens),
        )?;
        self.last_screens = screens(self.config.algorithm, &raw);
        Ok(raw)
    }

    /// Advances the maintained [`DeltaMiner`] state to the current epoch.
    fn mine_delta(&mut self, resolved: Support, exec: &Exec) -> Result<RawMiningOutput> {
        let snapshot = self.matrix.snapshot_epoch()?;
        let state = self.delta.get_or_insert_with(DeltaMiner::new);
        let patterns =
            state.advance(&snapshot, resolved, self.config.limits, &self.catalog, exec)?;
        let stats = crate::MiningStats {
            delta: state.stats().clone(),
            intersections: state.stats().patterns_reexamined,
            patterns_before_postprocess: patterns.len(),
            ..Default::default()
        };
        Ok(RawMiningOutput { patterns, stats })
    }

    /// Freezes the current window epoch into a self-contained, `Send + Sync`
    /// mining job: the epoch snapshot plus the miner's algorithm, resolved
    /// minimum support, catalog, limits and executor.
    ///
    /// The returned [`MinerSnapshot`] borrows nothing from this miner — hand
    /// it to another thread and call [`MinerSnapshot::mine`] there while
    /// this miner keeps ingesting.  Its output is byte-identical to what
    /// [`StreamMiner::mine`] would have returned at the same epoch
    /// (property-tested in `crates/core/tests/epoch_agreement.rs`), and so
    /// are its statistics, but for the elapsed time and the read counters:
    /// a frozen epoch reads no live window, so those stay zero.
    ///
    /// Relative minimum supports are resolved against the epoch's
    /// transaction count at snapshot time, exactly as a stop-the-world mine
    /// at that epoch would have resolved them.
    pub fn snapshot(&mut self) -> Result<MinerSnapshot> {
        let snapshot = self.matrix.snapshot_epoch()?;
        let resolved_minsup = self.config.min_support.resolve(snapshot.num_transactions());
        Ok(MinerSnapshot {
            snapshot,
            catalog: self.catalog.clone(),
            algorithm: self.config.algorithm,
            resolved_minsup,
            connectivity: self.config.connectivity,
            limits: self.config.limits,
            exec: self.exec.clone(),
            last_screens: self.last_screens,
        })
    }

    /// Direct access to the capture structure (used by the experiment harness
    /// for space accounting and ablations).
    pub fn matrix_mut(&mut self) -> &mut DsMatrix {
        &mut self.matrix
    }

    /// Returns `true` if the window is crash-recoverable (WAL + checkpoints).
    pub fn is_durable(&self) -> bool {
        self.matrix.is_durable()
    }

    /// What [`StreamMiner::recover`] found and did, if this miner was built
    /// by it.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.matrix.recovery_report()
    }

    /// Identifier of the newest batch in the window — after a recovery, the
    /// stream should resume from the next one.
    pub fn last_batch_id(&self) -> Option<BatchId> {
        self.matrix.last_batch_id()
    }
}

/// A frozen, self-contained mining job over one window epoch.
///
/// Built by [`StreamMiner::snapshot`]; `Send + Sync + 'static`, so it can be
/// moved to (or shared with) any thread and mined there — repeatedly, even
/// concurrently — while the source [`StreamMiner`] keeps ingesting.  This is
/// the reader half of the writer/reader split: the writer thread slides the
/// window, reader threads mine epochs.
#[derive(Debug)]
pub struct MinerSnapshot {
    snapshot: Arc<EpochSnapshot>,
    catalog: EdgeCatalog,
    algorithm: Algorithm,
    resolved_minsup: Support,
    connectivity: ConnectivityMode,
    limits: MiningLimits,
    /// The source miner's executor: snapshot mines share its helper threads.
    exec: Exec,
    /// The source miner's screen history at snapshot time: a snapshot mine
    /// hires helpers exactly when the source's next full mine would.
    last_screens: Option<u64>,
}

impl MinerSnapshot {
    /// Mines the frozen epoch with the configuration captured at snapshot
    /// time, applying the connectivity post-processing step where the
    /// algorithm requires it.
    ///
    /// `&self` — mining does not consume the snapshot, and several threads
    /// may mine one snapshot simultaneously.  Pattern output is
    /// byte-identical to a stop-the-world [`StreamMiner::mine`] at the same
    /// epoch; the read counters are zero (a snapshot reads no live window).
    ///
    /// Each call assembles the epoch's rows into one flat copy of the
    /// window ([`EpochSnapshot::assemble_rows`]) and drops it on return:
    /// nothing is memoised, so a held snapshot never grows, and `n`
    /// simultaneous mines hold `n` copies.
    pub fn mine(&self) -> Result<MiningResult> {
        self.mine_with(&self.exec)
    }

    /// Like [`MinerSnapshot::mine`] but under an explicit executor (see
    /// [`StreamMiner::mine_with`]), hired as the source miner's next full
    /// mine would hire it.
    pub fn mine_with(&self, exec: &Exec) -> Result<MiningResult> {
        let start = Instant::now();
        // One flat copy of the window per in-flight mine — what a
        // disk-backend live mine assembles — dropped when this returns.
        let rows = self.snapshot.assemble_rows();
        let view = self.snapshot.view(&rows);
        let raw = miners::run_algorithm_on_view(
            self.algorithm,
            &view,
            &self.catalog,
            self.resolved_minsup,
            self.limits,
            &exec.hire(self.last_screens),
        )?;
        Ok(finish_mine(
            raw,
            start,
            postprocessor(self.algorithm, &self.catalog, self.connectivity),
            self.snapshot.num_transactions(),
            self.resolved_minsup,
            None,
        ))
    }

    /// The underlying epoch snapshot (epoch id, batch alignment, geometry).
    pub fn epoch(&self) -> &Arc<EpochSnapshot> {
        &self.snapshot
    }

    /// Identifier of the newest batch in the frozen window — what an oracle
    /// replaying the same stream aligns on.
    pub fn last_batch_id(&self) -> Option<BatchId> {
        self.snapshot.last_batch_id()
    }

    /// The absolute minimum support this job mines with (relative supports
    /// were resolved at snapshot time).
    pub fn resolved_minsup(&self) -> Support {
        self.resolved_minsup
    }
}

// The snapshot's whole point is crossing threads; regress loudly if a future
// field breaks that.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync + 'static>() {}
    assert_send_sync::<MinerSnapshot>();
};

/// The screens a full mine by `algorithm` leaves for the next one's hire
/// rule ([`Exec::hire`]): the vertical family counts its kernel screens; the
/// horizontal family reports none, so it leaves no history and keeps hiring.
fn screens(algorithm: Algorithm, raw: &RawMiningOutput) -> Option<u64> {
    matches!(algorithm, Algorithm::Vertical | Algorithm::DirectVertical)
        .then_some(raw.stats.intersections)
}

/// The §3.5 filter `algorithm`'s raw output still needs, if any.
fn postprocessor(
    algorithm: Algorithm,
    catalog: &EdgeCatalog,
    connectivity: ConnectivityMode,
) -> Option<ConnectivityChecker<'_>> {
    algorithm
        .needs_postprocessing()
        .then(|| ConnectivityChecker::new(catalog, connectivity))
}

/// The one epilogue of every mine route: applies the post-processing step
/// and completes the statistics an enumeration cannot know about itself.
///
/// `capture` is the live capture structure the mine ran against, with its
/// read counters from before the mine; a frozen epoch passes `None` and
/// reports zero read counters.  What the window itself holds and has
/// written is the matrix's to report ([`DsMatrix::read_stats`],
/// [`DsMatrix::capture_stats`]), not a mine's.
fn finish_mine(
    mut raw: RawMiningOutput,
    start: Instant,
    postprocess: Option<ConnectivityChecker<'_>>,
    window_transactions: usize,
    resolved_minsup: Support,
    capture: Option<(&DsMatrix, ReadStats)>,
) -> MiningResult {
    let stats = &mut raw.stats;
    if let Some(checker) = postprocess {
        stats.patterns_pruned = checker.prune_disconnected(&mut raw.patterns);
    }
    if let Some((matrix, before)) = capture {
        // Read amplification of this call: words the read path materialised
        // and segment runs it read.  Words are the rows some live segment
        // holds, once, on every backend (zero for a delta mine, which reads
        // an epoch snapshot's segments); runs drop to the segments the
        // residency budget did not hold.
        let after = matrix.read_stats();
        stats.read_words_assembled = after.words_assembled - before.words_assembled;
        stats.pages_read = after.pages_read - before.pages_read;
        stats.cache_hits = after.cache_hits - before.cache_hits;
    }
    stats.elapsed = start.elapsed();
    stats.window_transactions = window_transactions;
    stats.resolved_minsup = resolved_minsup;
    MiningResult::new(raw.patterns, raw.stats)
}

/// Calls [`DsMatrix::trim_cache`] when dropped, so a mine that exits early
/// (miner error or panic) still releases the flat rows its view assembled
/// instead of leaking a resident window copy.
struct TrimCacheGuard<'a>(&'a mut DsMatrix);

impl Drop for TrimCacheGuard<'_> {
    fn drop(&mut self) {
        self.0.trim_cache();
    }
}

impl std::fmt::Debug for StreamMiner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamMiner")
            .field("algorithm", &self.config.algorithm)
            .field("window_batches", &self.config.window.window_batches())
            .field("window_transactions", &self.matrix.num_transactions())
            .field("edges", &self.catalog.num_edges())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;
    use fsm_stream::WindowConfig;
    use fsm_types::{EdgeSet, MinSup};

    fn paper_batches() -> Vec<Batch> {
        let e = |raw: &[u32]| Transaction::from_raw(raw.iter().copied());
        vec![
            Batch::from_transactions(0, vec![e(&[2, 3, 5]), e(&[0, 4, 5]), e(&[0, 2, 5])]),
            Batch::from_transactions(1, vec![e(&[0, 2, 3, 5]), e(&[0, 3, 4, 5]), e(&[0, 1, 2])]),
            Batch::from_transactions(2, vec![e(&[0, 2, 5]), e(&[0, 2, 3, 5]), e(&[1, 2, 3])]),
        ]
    }

    /// The paper's example configuration: a two-batch window over the
    /// complete graph on four vertices, minsup 2.
    fn config(algorithm: Algorithm) -> MinerConfig {
        MinerConfig {
            algorithm,
            window: WindowConfig::new(2).unwrap(),
            min_support: MinSup::absolute(2),
            catalog: Some(EdgeCatalog::complete(4)),
            ..MinerConfig::default()
        }
    }

    fn build(algorithm: Algorithm) -> StreamMiner {
        StreamMiner::new(config(algorithm)).unwrap()
    }

    #[test]
    fn all_five_algorithms_return_the_15_connected_collections() {
        let mut reference: Option<MiningResult> = None;
        for algorithm in Algorithm::ALL {
            let mut miner = build(algorithm);
            for batch in paper_batches() {
                miner.ingest_batch(&batch).unwrap();
            }
            assert_eq!(miner.window_batches(), 2);
            assert_eq!(miner.window_transactions(), 6);
            let result = miner.mine().unwrap();
            assert_eq!(result.len(), 15, "{algorithm}");
            assert_eq!(
                result.support_of(&EdgeSet::from_raw([0, 2])),
                Some(4),
                "{algorithm}: support of {{a,c}}"
            );
            assert_eq!(result.support_of(&EdgeSet::from_raw([0, 5])), None);
            if let Some(reference) = &reference {
                assert!(
                    reference.same_patterns_as(&result),
                    "{algorithm} disagrees: {:?}",
                    reference.diff(&result)
                );
            } else {
                reference = Some(result);
            }
        }
    }

    #[test]
    fn postprocessing_statistics_distinguish_the_algorithms() {
        let mut vertical = build(Algorithm::Vertical);
        let mut direct = build(Algorithm::DirectVertical);
        for batch in paper_batches() {
            vertical.ingest_batch(&batch).unwrap();
            direct.ingest_batch(&batch).unwrap();
        }
        let vertical_result = vertical.mine().unwrap();
        let direct_result = direct.mine().unwrap();
        assert_eq!(vertical_result.stats().patterns_before_postprocess, 17);
        assert_eq!(vertical_result.stats().patterns_pruned, 2);
        assert_eq!(direct_result.stats().patterns_before_postprocess, 15);
        assert_eq!(direct_result.stats().patterns_pruned, 0);
        assert!(
            direct_result.stats().intersections < vertical_result.stats().intersections,
            "direct mining performs fewer intersections"
        );
    }

    #[test]
    fn relative_minsup_resolves_against_the_window() {
        let mut miner = StreamMiner::new(MinerConfig {
            min_support: MinSup::relative(0.5),
            ..config(Algorithm::Vertical)
        })
        .unwrap();
        for batch in paper_batches() {
            miner.ingest_batch(&batch).unwrap();
        }
        let result = miner.mine().unwrap();
        // 50% of 6 transactions = 3.
        assert_eq!(result.stats().resolved_minsup, 3);
        assert!(result.patterns().iter().all(|p| p.support >= 3));
    }

    #[test]
    fn snapshots_are_interned_and_mined() {
        let mut miner = StreamMiner::new(MinerConfig {
            catalog: None,
            ..config(Algorithm::DirectVertical)
        })
        .unwrap();
        let graphs = vec![
            GraphSnapshot::from_pairs([(1, 2), (2, 3)]),
            GraphSnapshot::from_pairs([(1, 2), (2, 3), (3, 4)]),
            GraphSnapshot::from_pairs([(1, 2), (3, 4)]),
        ];
        miner.ingest_snapshots(&graphs).unwrap();
        assert_eq!(miner.catalog().num_edges(), 3);
        let result = miner.mine().unwrap();
        // (1,2) appears 3×, (2,3) 2×, (3,4) 2×, {(1,2),(2,3)} 2× connected.
        assert_eq!(result.len(), 4);
        assert_eq!(result.support_of(&EdgeSet::from_raw([0, 1])), Some(2));
        // Mining again without new data is idempotent.
        let again = miner.mine().unwrap();
        assert!(result.same_patterns_as(&again));
    }

    #[test]
    fn snapshot_mining_on_another_thread_matches_stop_the_world() {
        for algorithm in Algorithm::ALL {
            let mut miner = build(algorithm);
            for batch in paper_batches() {
                miner.ingest_batch(&batch).unwrap();
            }
            let job = miner.snapshot().unwrap();
            // The snapshot crosses a thread boundary; the source miner mines
            // stop-the-world at the same epoch in the meantime.
            let handle = std::thread::spawn(move || job.mine().unwrap());
            let stop_the_world = miner.mine().unwrap();
            let from_snapshot = handle.join().unwrap();
            assert!(
                stop_the_world.same_patterns_as(&from_snapshot),
                "{algorithm} disagrees: {:?}",
                stop_the_world.diff(&from_snapshot)
            );
            assert_eq!(
                from_snapshot.stats().resolved_minsup,
                stop_the_world.stats().resolved_minsup
            );
        }
    }

    #[test]
    fn every_mine_and_snapshot_mine_shares_the_miners_three_helper_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        use std::thread::ThreadId;

        let mut miner = StreamMiner::new(MinerConfig {
            threads: 4,
            ..config(Algorithm::Vertical)
        })
        .unwrap();
        for batch in paper_batches() {
            miner.ingest_batch(&batch).unwrap();
        }
        // Which threads serve tasks handed to an executor right now.
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let probe = |exec: &Exec| {
            exec.run_indexed_stateful(
                32,
                || (),
                |(), _| {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                    seen.lock().unwrap().insert(std::thread::current().id());
                },
            );
        };
        let reference = miner.mine().unwrap();
        for _ in 0..50 {
            assert!(miner.mine().unwrap().same_patterns_as(&reference));
            probe(&miner.exec);
        }
        let job = miner.snapshot().unwrap();
        assert!(job.mine().unwrap().same_patterns_as(&reference));
        probe(&job.exec);

        // 51 fan-outs later the tasks have only ever run on the caller and
        // the three helpers the miner was built with: nothing spawns per
        // mine, and a snapshot brings no threads of its own.
        let seen = seen.into_inner().unwrap();
        assert!(seen.contains(&std::thread::current().id()));
        assert!(
            (2..=4).contains(&seen.len()),
            "tasks ran on {} distinct threads",
            seen.len()
        );
    }

    #[test]
    fn a_held_snapshot_keeps_mining_its_own_epoch_while_ingest_continues() {
        let mut miner = build(Algorithm::Vertical);
        let batches = paper_batches();
        miner.ingest_batch(&batches[0]).unwrap();
        miner.ingest_batch(&batches[1]).unwrap();
        let job = miner.snapshot().unwrap();
        let at_epoch = miner.mine().unwrap();
        // The writer slides on; the held snapshot must still mine its epoch.
        miner.ingest_batch(&batches[2]).unwrap();
        let after_slide = miner.mine().unwrap();
        let frozen = job.mine().unwrap();
        assert!(frozen.same_patterns_as(&at_epoch));
        assert!(!after_slide.same_patterns_as(&frozen) || after_slide.same_patterns_as(&at_epoch));
        assert_eq!(job.last_batch_id(), Some(1));
    }

    #[test]
    fn resident_bytes_include_the_maintained_delta_state() {
        let build = |delta: bool| {
            StreamMiner::new(MinerConfig {
                delta,
                ..config(Algorithm::DirectVertical)
            })
            .unwrap()
        };
        let (mut delta, mut full) = (build(true), build(false));
        for batch in paper_batches() {
            delta.ingest_batch(&batch).unwrap();
            full.ingest_batch(&batch).unwrap();
            // Before its first mine a delta miner holds no state yet.
            assert_eq!(delta.resident_bytes(), delta.matrix.resident_bytes());
        }
        let stats = delta.mine().unwrap().stats().delta.clone();
        full.mine().unwrap();
        assert_eq!(full.resident_bytes(), full.matrix.resident_bytes());
        assert!(stats.patterns_tracked >= 15 && stats.border_size > 0);
        // One u32 per window segment (the stride: two batches fill the
        // window) for every tracked pattern and every border entry, at least.
        let counts = 4 * delta.window_batches() * (stats.patterns_tracked + stats.border_size);
        let state = delta.resident_bytes() - delta.matrix.resident_bytes();
        assert!(
            state >= counts,
            "{state} B of delta state cannot hold {counts} B of counts"
        );
        assert_eq!(state, delta.delta.as_ref().unwrap().heap_bytes());
    }

    #[test]
    fn mining_an_empty_window_returns_nothing() {
        let mut miner = build(Algorithm::Vertical);
        let result = miner.mine().unwrap();
        assert!(result.is_empty());
        assert_eq!(result.stats().window_transactions, 0);
    }
}
