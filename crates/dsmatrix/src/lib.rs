//! The DSMatrix: a disk-backed binary matrix capturing the sliding window.
//!
//! Each **row** represents one domain edge (item), each **column** one
//! transaction of the current window; entry `(x, t)` is `1` iff transaction
//! `t` contains edge `x`.  The matrix keeps one global boundary value per
//! batch so a window slide simply discards the evicted batch's columns and
//! appends the new batch's columns — no per-row bookkeeping, which is the
//! advantage over the DSTable the paper emphasises (§2.3).
//!
//! # What this crate owns
//!
//! * [`DsMatrix`] — the capture structure itself: ingest batches, slide the
//!   window, read rows/columns, report memory.  Construction goes through
//!   [`DsMatrixConfig`] (window size, storage backend, expected domain).
//! * [`WindowView`] / [`ProjectionScratch`] — the miners' read surface: an
//!   immutable, concurrently-shareable view of the live window (zero-copy on
//!   the memory backend) plus per-worker scratch space, which is how the
//!   parallel miners read rows and build per-pivot projected databases
//!   without contending on `&mut DsMatrix`.
//! * [`EpochSnapshot`] — the owned, `Arc`-backed, `Send + Sync` snapshot of
//!   one window epoch ([`DsMatrix::snapshot_epoch`]): reader threads mine it
//!   while `ingest_batch` keeps sliding on the writer side, and its segment
//!   data is reclaimed when the last holder drops.
//! * [`RowSnapshot`] — owned flat rows of one window: what an epoch mine
//!   assembles from the snapshot's segments and views for the duration of
//!   the mine ([`EpochSnapshot::assemble_rows`], [`EpochSnapshot::view`]).
//!
//! # Incremental capture — and incremental reads
//!
//! Physically the rows live in a [`fsm_storage::SegmentedWindowStore`]: one
//! immutable segment per ingested batch, holding bit chunks only for the rows
//! the batch touches.  [`DsMatrix::ingest_batch`] therefore costs
//! `O(rows touched by the batch + evicted columns)` — it appends one segment
//! and, when the window is full, unlinks the oldest — instead of rewriting
//! every cell of every row as a flat-row layout would.  The
//! [`DsMatrix::capture_stats`] counters expose the words actually written so
//! tests and benchmarks can assert the bound.
//!
//! The *read* side is incremental too: on the memory backend the matrix
//! maintains a generation-tagged flat-row cache at ingest/evict time (splice
//! the entering chunk, lazily zero the evicted prefix, amortised
//! `drop_prefix` compaction) together with per-edge support counters, so
//! [`DsMatrix::view`] hands the miners a zero-copy [`WindowView`] and the
//! steady-state read cost of a mine call is proportional to the rows the
//! slide touched, not to the window.  [`DsMatrix::read_stats`] counts the
//! words the read path actually materialises, mirroring `capture_stats` on
//! the write side.
//!
//! The matrix is "kept on the disk" by default: segments live in per-batch
//! paged files under a temporary directory, the resident footprint during
//! capture is only the boundary bookkeeping, counters and per-segment
//! indexes, and [`DsMatrix::view`] falls back to assembling flat rows for
//! the duration of a mine call.  An in-memory backend serves the zero-copy
//! path, tests, and the storage ablation.
//!
//! # Durability
//!
//! With [`DsMatrixConfig::durability`] set (disk backends only), every
//! ingested batch is appended to a write-ahead log and `fsync`ed *before*
//! any state mutates, a [`fsm_storage::Checkpoint`] snapshots the window
//! metadata every K slides, and [`DsMatrix::recover`] rebuilds the exact
//! pre-crash window from the newest verifiable checkpoint plus the WAL
//! tail — see [`durable`] for the protocol and [`RecoveryReport`] for what
//! a recovery observed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durable;
mod epoch;
mod matrix;
mod snapshot;
mod view;

pub use durable::{decode_batch, encode_batch, DurabilityConfig, RecoveryReport};
pub use epoch::EpochSnapshot;
pub use fsm_storage::CaptureStats;
pub use matrix::{DsMatrix, DsMatrixConfig, ReadStats};
pub use snapshot::{ProjectedRows, ProjectionScratch, RowSnapshot};
pub use view::WindowView;
