//! Storage substrate: bit vectors, the DSMatrix's window segments and the
//! durable artifacts around them.
//!
//! The paper's central space argument is that the DSTable and the DSMatrix
//! keep the window contents *on disk* while only small working structures
//! (one FP-tree, or a handful of bit vectors) live in memory.  This crate
//! provides the pieces needed to make that claim measurable:
//!
//! * [`BitVec`] — the bit-vector representation used by the DSMatrix rows and
//!   by the vertical mining algorithms (§3.4, §4) — and [`BitSlice`], the
//!   same bits borrowed, which the word kernels read as readily;
//! * [`SegmentedWindowStore`] — an append-friendly queue of per-batch row
//!   segments: the DSMatrix capture path, where a window slide appends one
//!   segment and drops one instead of rewriting every row (writes are
//!   counted in [`CaptureStats`]).  A segment is a flat [`EpochSegment`]:
//!   one word arena holding the ids of the rows it has a chunk for,
//!   ascending, then those chunks, each lent out as a [`BitSlice`].  A
//!   pushed segment's arena moves into the store as it is, and a popped one
//!   no reader holds gives its arena to the next push.  On the disk
//!   backends a segment is also one packed, CRC-covered run in its own file
//!   (segment format v2), encoded from the arena and written with one
//!   positional write into a recycled file, and read back with one.  A
//!   window row is read back as one flat [`BitVec`] by concatenating its
//!   per-segment chunks.  A segment is read whole: always resident on the
//!   memory backend, and on the disk backends resident while a byte budget
//!   holds it (admitted only where there is room, never by evicting), else
//!   decoded from its run — into one arena — for the read that needs it
//!   (run reads and resident chunks served are counted);
//! * [`StorageBackend`] — where a capture structure keeps its window: in
//!   memory, or on disk in a temporary or an explicit directory (the
//!   DSMatrix's segments here, the DSTable's packed table file in
//!   `fsm-dstable`);
//! * [`positional`] — one `pread` / `pwrite` at an explicit offset, behind
//!   every segment run and the DSTable's file, and the naming of a file in
//!   its I/O errors;
//! * [`BudgetGovernor`] — process-wide arbitration of those residency
//!   budgets across many matrices (the multi-tenant service's one cap), with
//!   per-member [`BudgetLease`]s granted under a fair-share rule;
//! * [`TempDir`] — a small self-cleaning temporary directory helper so the
//!   disk-backed structures need no external crates;
//! * [`Wal`] — the write-ahead log (length-prefixed, checksummed,
//!   fsync-on-commit records with torn-tail truncation on open) and
//!   [`Checkpoint`] — a manifest naming the live segment runs, plus the
//!   support counters no run holds; together they make the disk backend
//!   crash-recoverable.  A checkpoint plus the segment runs it names is the
//!   *one* cold form of a window, read back by
//!   [`SegmentedWindowStore::restore`] with one read per run: a durable window keeps it under its durable root, and a
//!   non-durable one (memory backend, or disk segments in a self-cleaning
//!   temp directory) writes the same two formats into its spill directory
//!   when the multi-tenant service evicts its tenant from the resident set.
//!   Every durable artifact is covered by the hand-rolled CRC-32 in
//!   [`checksum`].

// `deny`, not `forbid`: `bitvec::kernel` carries the crate's one
// `#[allow(unsafe_code)]`, on the call into `#[target_feature]` code (see its
// module docs); every other module still fails to compile with an `unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bitvec;
pub mod checkpoint;
pub mod checksum;
mod chunkcache;
mod framed;
pub mod governor;
pub mod positional;
mod run;
pub mod segment;
pub mod temp;
pub mod wal;

pub use bitvec::{BitSlice, BitVec};
pub use checkpoint::{Checkpoint, CheckpointSegment};
pub use checksum::crc32;
pub use governor::{BudgetGovernor, BudgetLease};
pub use segment::{
    scan_segment_files, CaptureStats, EpochSegment, SegmentedWindowStore, StorageBackend,
};
pub use temp::TempDir;
pub use wal::{TornTail, Wal, WalRecord};
