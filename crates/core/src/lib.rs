//! Frequent connected subgraph mining from streams of linked graph structured
//! data — the paper's contribution.
//!
//! The crate provides five mining algorithms over the [`fsm_dsmatrix::DsMatrix`]
//! capture structure, the connectivity post-processing step, the neighbourhood
//! algebra used by the direct algorithm, the DSTree/DSTable baseline miners
//! used in the accuracy experiment, and the [`StreamMiner`] facade that ties
//! capture and mining together, configured by one plain [`MinerConfig`]:
//!
//! ```
//! use fsm_core::{Algorithm, MinerConfig, StreamMiner};
//! use fsm_stream::WindowConfig;
//! use fsm_types::{Batch, EdgeCatalog, MinSup, Transaction};
//!
//! // The paper's running example: complete graph over v1..v4, edges a..f.
//! let mut miner = StreamMiner::new(MinerConfig {
//!     algorithm: Algorithm::DirectVertical,
//!     window: WindowConfig::new(2).unwrap(),
//!     min_support: MinSup::absolute(2),
//!     catalog: Some(EdgeCatalog::complete(4)),
//!     ..MinerConfig::default()
//! })
//! .unwrap();
//!
//! let batch = Batch::from_transactions(0, vec![
//!     Transaction::from_raw([2, 3, 5]),
//!     Transaction::from_raw([0, 4, 5]),
//!     Transaction::from_raw([0, 2, 5]),
//! ]);
//! miner.ingest_batch(&batch).unwrap();
//! let result = miner.mine().unwrap();
//! assert!(result.patterns().iter().all(|p| p.support >= 2));
//! ```
//!
//! | Algorithm | Paper section | Strategy |
//! |-----------|---------------|----------|
//! | [`Algorithm::MultiTree`] | §3.1 | recursive FP-trees per projected database |
//! | [`Algorithm::SingleTree`] | §3.2 | one FP-tree per frequent edge, subset counting |
//! | [`Algorithm::TopDown`] | §3.3 | one FP-tree per frequent edge, top-down mining |
//! | [`Algorithm::Vertical`] | §3.4 + §3.5 | bit-vector intersections, post-processing |
//! | [`Algorithm::DirectVertical`] | §4 | neighbourhood-guided bit-vector intersections |
//!
//! # Execution engine
//!
//! All five algorithms run on a zero-allocation, optionally multi-threaded
//! engine:
//!
//! * **Threading model** — the top-level enumeration (one subtree per
//!   frequent single edge for the vertical family, one projected database
//!   per pivot edge for the horizontal family) fans out over one executor,
//!   the caller-participating [`WorkerPool`] behind [`Exec`], with dynamic
//!   load balancing ([`parallel`]).  A [`StreamMiner`] builds its pool once
//!   from [`MinerConfig::threads`] — `1`
//!   (default) is sequential and spawns nothing, `0` uses every available
//!   core — and every mine and snapshot mine reuses it.  Per-worker
//!   results merge back in canonical edge order ([`MiningStats::merge`]), so
//!   pattern lists and statistics are byte-identical for every thread count —
//!   property-tested for all five algorithms in
//!   `crates/core/tests/miner_agreement.rs`.
//! * **Scratch-arena lifetimes** — each worker owns a
//!   [`scratch::ScratchArena`] for the duration of one mining call: one
//!   intersection buffer per recursion depth, created the first time the
//!   depth is reached and reused by every sibling subtree at that depth.
//!   Buffers move out of the arena while a recursion level is live and move
//!   back when it completes, so holding a buffer never blocks deeper levels.
//! * **Allocation discipline** — candidates are screened with the fused
//!   [`fsm_storage::BitVec::and_count`] kernel before any materialisation;
//!   only candidates that meet the support threshold write into a scratch
//!   buffer (via [`fsm_storage::BitVec::and_into`]).  Infrequent candidates
//!   therefore cost one popcount pass and zero allocations.  The horizontal
//!   miners project from the same shared [`fsm_dsmatrix::WindowView`] and
//!   each worker recycles one [`fsm_dsmatrix::ProjectionScratch`], so
//!   steady-state projection allocates nothing either.
//! * **Incremental capture** — the DSMatrix itself never rewrites surviving
//!   rows on a window slide (see [`fsm_dsmatrix`]); the words it does write
//!   are counted by [`fsm_dsmatrix::DsMatrix::capture_stats`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod baseline;
pub mod config;
pub mod connectivity;
pub mod delta;
pub mod instrument;
pub mod miner;
pub mod miners;
pub mod neighborhood;
pub mod oracle;
pub mod parallel;
pub mod postprocess;
pub mod result;
pub mod scratch;
pub mod session;

pub use algorithm::{Algorithm, ConnectivityMode};
pub use baseline::{mine_dstable, mine_dstree, BaselineStructure};
pub use config::MinerConfig;
pub use connectivity::ConnectivityChecker;
pub use delta::DeltaMiner;
pub use fsm_dsmatrix::{DurabilityConfig, RecoveryReport};
pub use instrument::{DeltaStats, MiningStats};
pub use miner::{MinerSnapshot, StreamMiner};
pub use neighborhood::{neighborhood_of_set, Neighborhood};
pub use parallel::{Exec, WorkerPool};
pub use postprocess::{closed_patterns, maximal_patterns, top_k};
pub use result::MiningResult;
pub use scratch::ScratchArena;
pub use session::{
    validate_tenant_id, IngestOutcome, LifecycleState, RegistryConfig, Session, SessionRegistry,
    SessionStatus, Subscription,
};
