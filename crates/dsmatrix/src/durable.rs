//! Durability plumbing for the disk-backed [`crate::DsMatrix`].
//!
//! The protocol is classic WAL-before-apply, specialised to the fact that
//! window segments are *immutable files*:
//!
//! 1. `ingest_batch` first appends the encoded batch to the WAL and `fsync`s
//!    it (one record, one fsync per commit), and only then mutates any state.
//! 2. Segment files created since the last checkpoint are `fsync`ed lazily —
//!    at checkpoint time, not per batch — because the WAL can always re-create
//!    them by replay.
//! 3. Every K slides a [`fsm_storage::Checkpoint`] snapshots the window
//!    *metadata* (segment list + row indexes + support counters; never row
//!    payloads), the two newest checkpoints are retained, and the WAL is
//!    pruned only up to the **older** retained checkpoint — so if the newest
//!    checkpoint file is ever found corrupt, the older one plus the retained
//!    WAL suffix still reaches the exact pre-crash window.
//! 4. Evicted segment files are not unlinked immediately: a retained
//!    checkpoint may still reference them.  Their removal is deferred until a
//!    later checkpoint proves them unreferenced.
//!
//! [`crate::DsMatrix::recover`] inverts the protocol: newest checkpoint that
//! loads *and* whose segment pages verify wins, the WAL tail past it is
//! replayed through the ordinary ingest path, and a [`RecoveryReport`] names
//! every artifact that had to be distrusted along the way.

use std::collections::BTreeSet;
use std::path::PathBuf;

use fsm_storage::Wal;
use fsm_types::codec::{put_u32, put_u64, Reader};
use fsm_types::{Batch, Result, Transaction};

/// Durability knobs of a [`crate::DsMatrixConfig`].
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the WAL, the checkpoints and the segment files
    /// (under `segments/`).  Must be dedicated to one matrix.
    pub dir: PathBuf,
    /// Checkpoint every this many slides (K).  Smaller values bound recovery
    /// replay tighter at the cost of more checkpoint writes.
    pub checkpoint_every: usize,
}

impl DurabilityConfig {
    /// Default checkpoint interval (slides between checkpoints).
    pub const DEFAULT_CHECKPOINT_EVERY: usize = 8;

    /// Durability rooted at `dir` with the default checkpoint interval.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            checkpoint_every: Self::DEFAULT_CHECKPOINT_EVERY,
        }
    }

    /// Overrides the checkpoint interval.
    pub fn with_checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Path of the write-ahead log inside the durable directory.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    /// Directory the segment files live in.
    pub fn segments_dir(&self) -> PathBuf {
        self.dir.join("segments")
    }
}

/// What [`crate::DsMatrix::recover`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL sequence number of the checkpoint recovery restarted from
    /// (`None` if it rebuilt from an empty window).
    pub checkpoint_seq: Option<u64>,
    /// Batches replayed from the WAL tail.
    pub replayed_batches: u64,
    /// Torn-tail truncation performed on the WAL, if any (artifact + reason).
    pub wal_torn: Option<String>,
    /// Artifacts that were found damaged and skipped (each entry names the
    /// artifact and why it was rejected).  Non-empty means recovery fell back
    /// past the newest checkpoint.
    pub skipped_artifacts: Vec<String>,
}

/// Live durability state of a durable [`crate::DsMatrix`].
pub(crate) struct DurableState {
    pub(crate) config: DurabilityConfig,
    pub(crate) wal: Wal,
    /// WAL sequence number of the last batch applied to the matrix.
    pub(crate) applied_seq: u64,
    /// Sequence of the newest on-disk checkpoint.
    pub(crate) last_ckpt_seq: Option<u64>,
    /// Sequence of the previous retained checkpoint (WAL is pruned up to
    /// here, never further).
    pub(crate) prev_ckpt_seq: Option<u64>,
    /// Segment uids referenced by the newest checkpoint.
    pub(crate) last_ckpt_uids: BTreeSet<u64>,
    /// Segment uids referenced by the previous retained checkpoint.
    pub(crate) prev_ckpt_uids: BTreeSet<u64>,
    /// Evicted segment files whose unlink is deferred until a checkpoint
    /// proves them unreferenced.
    pub(crate) garbage: Vec<(u64, PathBuf)>,
    /// Slides since the last checkpoint.
    pub(crate) slides_since_ckpt: usize,
    /// Segments with uid below this were fsynced by an earlier checkpoint.
    pub(crate) synced_uid_watermark: u64,
    /// Cumulative bytes of checkpoint files written.
    pub(crate) checkpoint_bytes: u64,
    /// Cumulative `fsync`s beyond the WAL's own (segment + checkpoint syncs).
    pub(crate) extra_fsyncs: u64,
    /// Batches replayed by recovery (0 for a fresh durable matrix).
    pub(crate) recovery_replayed: u64,
    /// Report of the recovery that produced this state, if any.
    pub(crate) report: Option<RecoveryReport>,
}

impl DurableState {
    /// State of a freshly created (empty, not recovered) durable matrix.
    pub(crate) fn fresh(config: DurabilityConfig, wal: Wal) -> Self {
        Self {
            config,
            wal,
            applied_seq: 0,
            last_ckpt_seq: None,
            prev_ckpt_seq: None,
            last_ckpt_uids: BTreeSet::new(),
            prev_ckpt_uids: BTreeSet::new(),
            garbage: Vec::new(),
            slides_since_ckpt: 0,
            synced_uid_watermark: 0,
            checkpoint_bytes: 0,
            extra_fsyncs: 0,
            recovery_replayed: 0,
            report: None,
        }
    }
}

/// Encodes a batch as a WAL record payload.
///
/// Layout (all little-endian): `batch id (u64)`, `transaction count (u32)`,
/// then per transaction `edge count (u32)` followed by the raw `u32` edge
/// identifiers in canonical order.  Integrity comes from the WAL record's
/// CRC; this encoding carries no checksum of its own.
pub fn encode_batch(batch: &Batch) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + batch.total_edge_occurrences() * 4);
    put_u64(&mut out, batch.id);
    put_u32(&mut out, batch.len() as u32);
    for transaction in batch.iter() {
        put_u32(&mut out, transaction.len() as u32);
        for edge in transaction.iter() {
            put_u32(&mut out, edge.index() as u32);
        }
    }
    out
}

/// Decodes a WAL record payload back into a batch.
pub fn decode_batch(payload: &[u8]) -> Result<Batch> {
    let mut reader = Reader::artifact(payload, "wal batch payload");
    let id = reader.take_u64()?;
    // A transaction is at least its `u32` edge count; an edge is a `u32`.
    let num_tx = reader.count_u32(4)?;
    let mut transactions = Vec::with_capacity(num_tx);
    for _ in 0..num_tx {
        let num_edges = reader.count_u32(4)?;
        let mut edges = Vec::with_capacity(num_edges);
        for _ in 0..num_edges {
            edges.push(reader.take_u32()?);
        }
        transactions.push(Transaction::from_raw(edges));
    }
    reader.finish()?;
    Ok(Batch::from_transactions(id, transactions))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_encoding_roundtrip() {
        let batch = Batch::from_transactions(
            42,
            vec![
                Transaction::from_raw([3, 1, 4]),
                Transaction::from_raw([]),
                Transaction::from_raw([1, 5, 9, 2, 6]),
            ],
        );
        let encoded = encode_batch(&batch);
        assert_eq!(decode_batch(&encoded).unwrap(), batch);
    }

    #[test]
    fn empty_batch_roundtrip() {
        let batch = Batch::new(7);
        assert_eq!(decode_batch(&encode_batch(&batch)).unwrap(), batch);
    }

    #[test]
    fn truncated_and_padded_payloads_are_rejected() {
        let encoded = encode_batch(&Batch::from_transactions(
            1,
            vec![Transaction::from_raw([0, 1])],
        ));
        assert!(decode_batch(&encoded[..encoded.len() - 1]).is_err());
        assert!(decode_batch(&encoded[..5]).is_err());
        let mut padded = encoded.clone();
        padded.push(0);
        assert!(decode_batch(&padded).is_err());
    }

    #[test]
    fn durability_config_paths() {
        let cfg = DurabilityConfig::new("/tmp/x").with_checkpoint_every(3);
        assert_eq!(cfg.checkpoint_every, 3);
        assert_eq!(cfg.wal_path(), PathBuf::from("/tmp/x/wal.log"));
        assert_eq!(cfg.segments_dir(), PathBuf::from("/tmp/x/segments"));
    }
}
