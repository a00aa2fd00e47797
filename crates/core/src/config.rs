//! Configuration of the [`crate::miner::StreamMiner`] facade.

use std::path::PathBuf;
use std::sync::Arc;

use fsm_fptree::MiningLimits;
use fsm_storage::{BudgetGovernor, StorageBackend};
use fsm_stream::WindowConfig;
use fsm_types::{EdgeCatalog, MinSup};

use crate::algorithm::{Algorithm, ConnectivityMode};
#[cfg(doc)]
use crate::miner::StreamMiner;

/// Full configuration of a streaming miner.
///
/// `MinerConfig` is plain data and the one way to configure a miner: spell
/// out the knobs that differ from the defaults and pass it to
/// [`StreamMiner::new`], or to [`StreamMiner::recover`] to resume a durable
/// window.
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
    /// for the horizontal (FP-tree) algorithms, per-root subtrees of the
    /// maintained tree for a delta mine ([`MinerConfig::delta`]).
    ///
    /// Sizes the miner's private [`crate::WorkerPool`], built once with the
    /// miner: `1` (the default) mines sequentially and spawns nothing; `0`
    /// uses every available core; any other value `n` is the mining thread
    /// plus `n - 1` pool helpers.  Results are identical for every setting —
    /// per-worker outputs merge back in canonical order.  (A
    /// [`crate::SessionRegistry`] mines its tenants on its own
    /// [`crate::RegistryConfig::exec`] instead.)
    pub threads: usize,
    /// Byte budget of the decoded segments the disk backends keep resident,
    /// a segment whole or not at all, each charged its decoded size.  `0`
    /// (the default) keeps none: every mine re-reads the window from disk,
    /// the strictest space posture.  The budget buys decodes, never
    /// assembly: every disk mine assembles the window into flat rows once
    /// (and frees them when it returns), but a resident segment is neither
    /// read nor decoded again — a budget covering the window makes disk
    /// mines read nothing.  Results are byte-identical for every setting.
    /// Ignored by the memory backend, whose segments are all resident.
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
    /// way — budgets only decide which segments are read from disk.
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
    fn zero_window_is_rejected() {
        let config = MinerConfig {
            window: WindowConfig { window_batches: 0 },
            ..MinerConfig::default()
        };
        assert!(crate::StreamMiner::new(config).is_err());
    }
}
