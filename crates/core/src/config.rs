//! Configuration and builder for the [`crate::miner::StreamMiner`] facade.

use std::path::PathBuf;
use std::sync::Arc;

use fsm_fptree::MiningLimits;
use fsm_storage::{BudgetGovernor, StorageBackend};
use fsm_stream::WindowConfig;
use fsm_types::{EdgeCatalog, MinSup, Result};

use crate::algorithm::{Algorithm, ConnectivityMode};
use crate::miner::StreamMiner;

/// Full configuration of a streaming miner.
///
/// `MinerConfig` is plain data: build one directly when you want to spell
/// every knob out, or go through [`StreamMinerBuilder`] for the fluent path.
///
/// ```
/// use fsm_core::{Algorithm, MinerConfig, StreamMiner};
/// use fsm_storage::StorageBackend;
/// use fsm_types::{EdgeCatalog, MinSup};
///
/// let config = MinerConfig {
///     algorithm: Algorithm::SingleTree,
///     min_support: MinSup::absolute(2),
///     backend: StorageBackend::Memory,
///     catalog: Some(EdgeCatalog::complete(4)),
///     threads: 0, // all available cores; output identical to threads: 1
///     ..MinerConfig::default()
/// };
/// let miner = StreamMiner::new(config).unwrap();
/// assert_eq!(miner.config().algorithm, Algorithm::SingleTree);
/// assert_eq!(miner.config().threads, 0);
/// ```
#[derive(Debug, Clone)]
pub struct MinerConfig {
    /// Which of the five algorithms to run when [`StreamMiner::mine`] is
    /// called.
    pub algorithm: Algorithm,
    /// Sliding-window size in batches (`w`).
    pub window: WindowConfig,
    /// Minimum support threshold.
    pub min_support: MinSup,
    /// Connectivity decision procedure for the post-processing step.
    pub connectivity: ConnectivityMode,
    /// Optional cap on pattern cardinality.
    pub limits: MiningLimits,
    /// Storage backend of the DSMatrix.
    pub backend: StorageBackend,
    /// Edge vocabulary.  When `None`, the vocabulary is built incrementally
    /// from ingested graph snapshots (and mining transactions directly
    /// requires edges the catalog already knows).
    pub catalog: Option<EdgeCatalog>,
    /// Worker threads for the top-level mining fan-out — per-singleton
    /// subtrees for the vertical algorithms, per-pivot projected databases
    /// for the horizontal (FP-tree) algorithms.
    ///
    /// Sizes the miner's private [`crate::WorkerPool`], built once with the
    /// miner: `1` (the default) mines sequentially and spawns nothing; `0`
    /// uses every available core; any other value `n` is the mining thread
    /// plus `n - 1` pool helpers.  Results are identical for every setting —
    /// per-worker outputs merge back in canonical order.  (A
    /// [`crate::SessionRegistry`] mines its tenants on its own
    /// [`crate::RegistryConfig::exec`] instead.)
    pub threads: usize,
    /// Byte budget of the decoded-chunk cache the disk backends read
    /// through.  `0` (the default) disables it: every mine re-reads the
    /// window from disk, the strictest space posture.  The budget buys page
    /// reads, never assembly: every disk mine assembles the window into flat
    /// rows once (and frees them when it returns), but the chunks the budget
    /// holds are not fetched again, so a budget covering the window makes
    /// steady-state disk mines fetch only the pages a window slide
    /// invalidated.  Results are byte-identical for every setting.  Ignored
    /// by the memory backend.
    pub cache_budget_bytes: usize,
    /// Durable-directory root for the WAL + checkpoint layer (disk backends
    /// only).  `None` (the default) keeps the matrix volatile; `Some(dir)`
    /// makes every ingested batch crash-recoverable via
    /// [`StreamMiner::recover`].
    pub durable_dir: Option<PathBuf>,
    /// Checkpoint interval in window slides for the durable layer (ignored
    /// without [`MinerConfig::durable_dir`]).
    pub checkpoint_every: usize,
    /// Route [`StreamMiner::mine`] through the incremental
    /// [`crate::DeltaMiner`]: the frequent-pattern set is maintained across
    /// window slides and each mine pays only for the patterns the slide
    /// affected, instead of re-enumerating the window.  What is maintained
    /// is the connected collections, grown like the §4 direct algorithm
    /// grows them; a post-processing algorithm under
    /// [`ConnectivityMode::PaperRule`] returns more than those, and is mined
    /// in full whatever this flag says.  Output is byte-identical to a full
    /// re-mine at the same epoch either way.  `false` by default.
    pub delta: bool,
    /// Process-wide arbitration of [`MinerConfig::cache_budget_bytes`]
    /// across many miners (the multi-tenant service's one memory cap).
    /// `None` (the default) keeps the budget private to this miner; with a
    /// governor, the configured budget becomes this miner's *desired*
    /// budget and the matrix applies whatever the governor's cap and
    /// fair-share rule grant, re-requesting at ingest/view boundaries.
    /// Ignored by the memory backend.  Results are byte-identical either
    /// way — budgets only move bytes between disk and cache.
    pub cache_governor: Option<Arc<BudgetGovernor>>,
}

impl Default for MinerConfig {
    fn default() -> Self {
        Self {
            algorithm: Algorithm::DirectVertical,
            window: WindowConfig::default(),
            min_support: MinSup::default(),
            connectivity: ConnectivityMode::Exact,
            limits: MiningLimits::UNBOUNDED,
            backend: StorageBackend::default(),
            catalog: None,
            threads: 1,
            cache_budget_bytes: 0,
            durable_dir: None,
            checkpoint_every: fsm_dsmatrix::DurabilityConfig::DEFAULT_CHECKPOINT_EVERY,
            delta: false,
            cache_governor: None,
        }
    }
}

/// Builder-style construction of a [`StreamMiner`].
///
/// ```
/// use fsm_core::{Algorithm, StreamMinerBuilder};
/// use fsm_types::{EdgeCatalog, MinSup};
///
/// let miner = StreamMinerBuilder::new()
///     .algorithm(Algorithm::Vertical)
///     .window_batches(5)
///     .min_support(MinSup::relative(0.1))
///     .catalog(EdgeCatalog::complete(4))
///     .build()
///     .unwrap();
/// assert_eq!(miner.config().algorithm, Algorithm::Vertical);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StreamMinerBuilder {
    config: MinerConfig,
    window_batches: Option<usize>,
    recover: bool,
}

impl StreamMinerBuilder {
    /// Starts from the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the mining algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.config.algorithm = algorithm;
        self
    }

    /// Sets the sliding-window size in batches.
    pub fn window_batches(mut self, batches: usize) -> Self {
        self.window_batches = Some(batches);
        self
    }

    /// Sets the minimum support threshold.
    pub fn min_support(mut self, min_support: MinSup) -> Self {
        self.config.min_support = min_support;
        self
    }

    /// Sets the connectivity decision procedure.
    pub fn connectivity(mut self, mode: ConnectivityMode) -> Self {
        self.config.connectivity = mode;
        self
    }

    /// Caps the pattern cardinality.
    pub fn max_pattern_len(mut self, max: usize) -> Self {
        self.config.limits = MiningLimits::with_max_len(max);
        self
    }

    /// Selects the DSMatrix storage backend.
    pub fn backend(mut self, backend: StorageBackend) -> Self {
        self.config.backend = backend;
        self
    }

    /// Sets the worker-thread count for mining — all five algorithms honour
    /// it (`0` = all available cores, `1` = sequential), and every setting
    /// produces byte-identical results.
    ///
    /// ```
    /// use fsm_core::{Algorithm, StreamMinerBuilder};
    /// use fsm_types::EdgeCatalog;
    ///
    /// let miner = StreamMinerBuilder::new()
    ///     .algorithm(Algorithm::TopDown)
    ///     .threads(0) // fan the per-pivot FP-trees over every core
    ///     .catalog(EdgeCatalog::complete(4))
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(miner.config().threads, 0);
    /// ```
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Budgets the decoded-chunk cache of the disk backends (`0` disables
    /// it; ignored by the memory backend).  Mining output is byte-identical
    /// for every budget — only the per-mine page reads change: chunks the
    /// budget holds are not fetched again (with a budget covering the
    /// window, pages only for what the last slide invalidated).  The budget
    /// buys page reads, never assembly.
    ///
    /// ```
    /// use fsm_core::StreamMinerBuilder;
    /// use fsm_storage::StorageBackend;
    /// use fsm_types::EdgeCatalog;
    ///
    /// let miner = StreamMinerBuilder::new()
    ///     .backend(StorageBackend::DiskTemp)
    ///     .cache_budget_bytes(1 << 20) // keep up to 1 MiB of decoded chunks
    ///     .catalog(EdgeCatalog::complete(4))
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(miner.config().cache_budget_bytes, 1 << 20);
    /// ```
    pub fn cache_budget_bytes(mut self, budget_bytes: usize) -> Self {
        self.config.cache_budget_bytes = budget_bytes;
        self
    }

    /// Makes the window durable: every ingested batch is WAL-logged and
    /// `fsync`ed before it is applied, checkpoints land in `dir`, and a
    /// crashed process can rebuild the exact window with
    /// [`StreamMiner::recover`].  Requires a disk backend.
    ///
    /// ```
    /// use fsm_core::StreamMinerBuilder;
    /// use fsm_storage::StorageBackend;
    /// use fsm_types::EdgeCatalog;
    ///
    /// let dir = fsm_storage::TempDir::new("miner-durable").unwrap();
    /// let miner = StreamMinerBuilder::new()
    ///     .backend(StorageBackend::DiskTemp)
    ///     .durable(dir.path())
    ///     .checkpoint_every(4)
    ///     .catalog(EdgeCatalog::complete(4))
    ///     .build()
    ///     .unwrap();
    /// assert!(miner.is_durable());
    /// ```
    pub fn durable(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.config.durable_dir = Some(dir.into());
        self
    }

    /// Sets the durable layer's checkpoint interval in window slides
    /// (ignored without [`StreamMinerBuilder::durable`]).
    pub fn checkpoint_every(mut self, every: usize) -> Self {
        self.config.checkpoint_every = every;
        self
    }

    /// Subordinates this miner's chunk-cache budget to a process-wide
    /// [`BudgetGovernor`] (see [`MinerConfig::cache_governor`]).
    pub fn cache_governor(mut self, governor: Arc<BudgetGovernor>) -> Self {
        self.config.cache_governor = Some(governor);
        self
    }

    /// Makes [`StreamMinerBuilder::build`] recover the window from the
    /// durable directory ([`StreamMiner::recover`]) instead of starting
    /// fresh.  Requires [`StreamMinerBuilder::durable`].
    pub fn recover(mut self) -> Self {
        self.recover = true;
        self
    }

    /// Enables delta mining ([`MinerConfig::delta`]): [`StreamMiner::mine`]
    /// maintains the frequent-pattern set across window slides instead of
    /// re-enumerating the window on every call.  Output stays byte-identical to a full re-mine; the
    /// incremental work performed is reported in
    /// [`crate::MiningStats::delta`].
    ///
    /// ```
    /// use fsm_core::StreamMinerBuilder;
    /// use fsm_types::{Batch, EdgeCatalog, MinSup, Transaction};
    ///
    /// let mut miner = StreamMinerBuilder::new()
    ///     .window_batches(2)
    ///     .min_support(MinSup::absolute(2))
    ///     .delta(true)
    ///     .catalog(EdgeCatalog::complete(4))
    ///     .build()
    ///     .unwrap();
    /// for id in 0..3 {
    ///     let batch = Batch::from_transactions(id, vec![
    ///         Transaction::from_raw([0, 2, 5]),
    ///         Transaction::from_raw([2, 3, 5]),
    ///     ]);
    ///     miner.ingest_batch(&batch).unwrap();
    ///     let result = miner.mine().unwrap(); // incremental after the first call
    ///     assert!(result.stats().delta.patterns_tracked > 0);
    /// }
    /// ```
    pub fn delta(mut self, delta: bool) -> Self {
        self.config.delta = delta;
        self
    }

    /// Provides the edge vocabulary up front.
    pub fn catalog(mut self, catalog: EdgeCatalog) -> Self {
        self.config.catalog = Some(catalog);
        self
    }

    /// Declares the vertex universe as `1..=n`, using the complete graph over
    /// it as the edge vocabulary (the convention of the paper's running
    /// example).
    pub fn complete_graph_vertices(mut self, n: u32) -> Self {
        self.config.catalog = Some(EdgeCatalog::complete(n));
        self
    }

    /// Builds the miner.
    pub fn build(mut self) -> Result<StreamMiner> {
        if let Some(batches) = self.window_batches {
            self.config.window = WindowConfig::new(batches)?;
        }
        if self.recover {
            StreamMiner::recover(self.config)
        } else {
            StreamMiner::new(self.config)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configuration_is_sensible() {
        let config = MinerConfig::default();
        assert_eq!(config.algorithm, Algorithm::DirectVertical);
        assert_eq!(config.window.window_batches, 5);
        assert_eq!(config.connectivity, ConnectivityMode::Exact);
        assert!(config.catalog.is_none());
    }

    #[test]
    fn builder_sets_every_knob() {
        let miner = StreamMinerBuilder::new()
            .algorithm(Algorithm::MultiTree)
            .window_batches(3)
            .min_support(MinSup::absolute(4))
            .connectivity(ConnectivityMode::PaperRule)
            .max_pattern_len(3)
            .backend(StorageBackend::Memory)
            .threads(4)
            .complete_graph_vertices(4)
            .build()
            .unwrap();
        let config = miner.config();
        assert_eq!(config.algorithm, Algorithm::MultiTree);
        assert_eq!(config.window.window_batches, 3);
        assert_eq!(config.connectivity, ConnectivityMode::PaperRule);
        assert_eq!(config.limits.max_pattern_len, Some(3));
        assert_eq!(config.threads, 4);
        assert_eq!(miner.catalog().num_edges(), 6);
    }

    #[test]
    fn zero_window_is_rejected() {
        assert!(StreamMinerBuilder::new().window_batches(0).build().is_err());
    }
}
