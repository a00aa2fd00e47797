//! Storage substrate: bit vectors, paged files and disk-backed row stores.
//!
//! The paper's central space argument is that the DSTable and the DSMatrix
//! keep the window contents *on disk* while only small working structures
//! (one FP-tree, or a handful of bit vectors) live in memory.  This crate
//! provides the pieces needed to make that claim measurable:
//!
//! * [`BitVec`] — the bit-vector representation used by the DSMatrix rows and
//!   by the vertical mining algorithms (§3.4, §4);
//! * [`PagedFile`] — a minimal append-only fixed-page file: positional
//!   reads and writes, every page CRC-verified on read;
//! * [`RowStore`] — a disk- or memory-backed store of variable-length rows,
//!   used by the DSTable (and by every window segment) to spill contents to
//!   disk;
//! * [`SegmentedWindowStore`] — an append-friendly queue of per-batch row
//!   segments: the DSMatrix capture path, where a window slide appends one
//!   segment and unlinks one instead of rewriting every row (writes are
//!   counted in [`CaptureStats`]).  A window row is read back as one flat
//!   [`BitVec`] — the only row type this crate has — by concatenating its
//!   per-segment chunks: decoded [`EpochSegment`] chunks on the memory
//!   backend, and on the disk backends chunks fetched through a budgeted
//!   [`ChunkCache`] (page fetches and hits are counted);
//! * [`ChunkCache`] — the budgeted `(segment, row) → decoded chunk` map
//!   behind that read path: it admits a chunk only while it has room and
//!   never evicts to make room, so the budget buys page reads, never
//!   assembly;
//! * [`BudgetGovernor`] — process-wide arbitration of those chunk-cache
//!   budgets across many matrices (the multi-tenant service's one cap), with
//!   per-member [`BudgetLease`]s granted under a fair-share rule;
//! * [`TempDir`] — a small self-cleaning temporary directory helper so the
//!   disk-backed structures need no external crates;
//! * [`Wal`] — the write-ahead log (length-prefixed, checksummed,
//!   fsync-on-commit records with torn-tail truncation on open) and
//!   [`Checkpoint`] — segment-aligned metadata snapshots; together they make
//!   the disk backend crash-recoverable (ROADMAP item 5);
//! * [`Hibernation`] — the full-payload spill image a *non-durable* window
//!   serialises itself into when the multi-tenant service evicts its tenant
//!   from the resident set (durable tenants spill by checkpointing instead —
//!   same framing, no second copy of the data).  Every durable artifact is
//!   covered by the hand-rolled CRC-32 in [`checksum`].

// `deny`, not `forbid`: `bitvec::kernel` carries the crate's one
// `#[allow(unsafe_code)]`, on the call into `#[target_feature]` code (see its
// module docs); every other module still fails to compile with an `unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bitvec;
pub mod checkpoint;
pub mod checksum;
pub mod chunkcache;
mod framed;
pub mod governor;
pub mod paged;
mod positional;
pub mod rowstore;
pub mod segment;
pub mod spill;
pub mod temp;
pub mod wal;

pub use bitvec::BitVec;
pub use checkpoint::{Checkpoint, CheckpointRow, CheckpointSegment};
pub use checksum::crc32;
pub use chunkcache::{ChunkCache, ChunkCacheStats};
pub use governor::{BudgetGovernor, BudgetLease};
pub use paged::PagedFile;
pub use rowstore::{RowStore, StorageBackend};
pub use segment::{
    remove_segment_file, scan_segment_files, CaptureStats, EpochSegment, SegmentMeta,
    SegmentedWindowStore,
};
pub use spill::{Hibernation, HibernationRow, HibernationSegment};
pub use temp::TempDir;
pub use wal::{TornTail, Wal, WalRecord, WalStats};
