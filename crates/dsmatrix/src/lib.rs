//! The DSMatrix: a disk-backed binary matrix capturing the sliding window.
//!
//! Each **row** represents one domain edge (item), each **column** one
//! transaction of the current window; entry `(x, t)` is `1` iff transaction
//! `t` contains edge `x`.  The matrix keeps one global boundary value per
//! batch so a window slide simply discards the evicted batch's columns and
//! appends the new batch's columns — no per-row bookkeeping, which is the
//! advantage over the DSTable the paper emphasises (§2.3).  The boundaries
//! are read from each live segment's one record in the store.
//!
//! # What this crate owns
//!
//! * [`DsMatrix`] — the capture structure itself: ingest batches, slide the
//!   window, read rows/columns, report memory.  Construction goes through
//!   [`DsMatrixConfig`] (window size, storage backend, expected domain).
//! * [`WindowView`] / [`ProjectionScratch`] — the miners' read surface: an
//!   immutable, concurrently-shareable view of the live window (its rows
//!   assembled once per call) plus per-worker scratch space, which is how the
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
//! # Incremental capture, one read path
//!
//! Physically the rows live in a [`fsm_storage::SegmentedWindowStore`]: one
//! immutable segment per ingested batch, holding bit chunks only for the rows
//! the batch touches.  [`DsMatrix::ingest_batch`] therefore costs
//! `O(rows touched by the batch + evicted columns)` — it appends one segment
//! and, when the window is full, drops the oldest — instead of rewriting
//! every cell of every row as a flat-row layout would.  The
//! [`DsMatrix::capture_stats`] counters expose the words actually written so
//! tests and benchmarks can assert the bound.
//!
//! A batch reaches the window in one pass: [`DsMatrix::ingest`] takes it as
//! built transactions or as its encoded payload ([`Incoming`]) — the bytes
//! the wire carried, or a WAL record — and one transposer body reads its
//! counts, checks its ids (strictly increasing, below an edge limit) and
//! ORs every bit into the segment's words in the same scan.  The result is
//! a flat [`fsm_storage::EpochSegment`] — one word arena of row ids and
//! chunks — that moves into the store as it is, built in the arena of the
//! segment the previous slide evicted.  A refused batch changes nothing,
//! nor does a failed run write: a slide writes before it evicts.
//!
//! The read side has one path on every backend: [`DsMatrix::view`] assembles
//! the window's flat rows from its segments, segment by segment, once per
//! call — a row some segment holds allocated once, a row none holds left
//! unallocated — and the facade frees them after the mine, so between mines
//! the window is held once.  Singleton supports come from per-edge counters
//! maintained at ingest/evict time, never from row scans.
//! [`DsMatrix::read_stats`] counts the words the read path materialises,
//! mirroring `capture_stats` on the write side.
//!
//! The matrix is "kept on the disk" by default: each segment is one packed,
//! CRC-covered run file under a temporary directory (segment format v2,
//! files recycled from slide to slide), the resident footprint during
//! capture is only the boundary bookkeeping — one record per live segment,
//! whose `(row, ones)` ledger holds its row ids once — the counters, and the
//! last evicted segment's arena and ledger, and a view reads each segment
//! from its run unless a byte budget keeps it resident, decoded, a segment
//! whole or not at all.
//! An in-memory backend keeps the segments resident; it serves the dense
//! benchmarks, tests, and the storage ablation.
//!
//! # Durability
//!
//! With [`DsMatrixConfig::durability`] set (disk backends only), an ingest
//! has one commit point: after the batch is checked and its segment run
//! written, it is appended to a write-ahead log — a payload as received —
//! and `fsync`ed, and only then does the window slide.  A refused batch, a
//! failed run write or a failed append leaves the window, the store and the
//! log as they were, so the next ingest goes through.  A
//! [`fsm_storage::Checkpoint`] snapshots the window metadata every K
//! slides, and [`DsMatrix::recover`] rebuilds the exact pre-crash window
//! from the newest verifiable checkpoint plus the WAL tail — see
//! [`durable`] for the protocol and [`RecoveryReport`] for what a recovery
//! observed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durable;
mod epoch;
mod matrix;
mod snapshot;
mod view;

pub use durable::{
    decode_batch, encode_batch, encode_batch_into, DurabilityConfig, RecoveryReport,
};
pub use epoch::EpochSnapshot;
pub use fsm_storage::CaptureStats;
pub use matrix::{DsMatrix, DsMatrixConfig, Incoming, ReadStats};
pub use snapshot::{ProjectedRows, ProjectionScratch, RowSnapshot};
pub use view::WindowView;
