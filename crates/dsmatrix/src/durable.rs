//! Durability plumbing for the disk-backed [`crate::DsMatrix`].
//!
//! The protocol is a write-ahead log specialised to the fact that window
//! segments are *immutable runs*, one file each:
//!
//! 1. An ingest has one commit point, its WAL append, and every step that
//!    can fail comes before it.  It checks and transposes the batch into
//!    scratch, builds the segment and writes its run, then appends the
//!    batch to the WAL — the payload bytes as received, or a built batch
//!    encoded into that layout — and `fsync`s it (one record, one fsync per
//!    commit).  Only then does the window change: the oldest segment is
//!    evicted, the new one pushed and the supports moved
//!    ([`fsm_storage::SegmentedWindowStore::slide`] runs the append between
//!    the write and the eviction).  A refused batch, a failed run write or
//!    a failed append changes nothing: the written run goes back on the
//!    store's free list, and the WAL is truncated back to its committed
//!    length, so the next ingest takes the same sequence number and uid.
//!    A crash between the run write and the append leaves a run whose uid
//!    is at or above the checkpoint's next uid, which recovery removes.
//! 2. Segment runs written since the last checkpoint are `fsync`ed lazily —
//!    at checkpoint time, not per batch, one `fsync` per run — because the
//!    WAL can always re-create them by replay.
//! 3. Every K slides a [`fsm_storage::Checkpoint`] names the live segment
//!    runs and records the support counters — nothing a run holds, since
//!    each run carries its own row ids and chunks — the two newest
//!    checkpoints are retained, and the WAL is
//!    pruned only up to the **older** retained checkpoint — so if the newest
//!    checkpoint file is ever found corrupt, the older one plus the retained
//!    WAL suffix still reaches the exact pre-crash window.
//! 4. Evicted segment files are not released immediately: a retained
//!    checkpoint may still reference them.  Their release — to be renamed
//!    and overwritten by a later push, never unlinked — is deferred until a
//!    later checkpoint proves them unreferenced.  That collection runs after
//!    the checkpoint has committed, so it is best-effort: a file whose
//!    release fails stays queued for the next checkpoint, and the ingest
//!    that triggered it still succeeds.
//!
//! [`crate::DsMatrix::recover`] inverts the protocol: newest checkpoint that
//! loads *and* whose segment runs verify and add up to its support counters
//! wins, the WAL tail past it is
//! replayed through the ordinary ingest path (each record transposed
//! straight from its bytes), and a [`RecoveryReport`] names
//! every artifact that had to be distrusted along the way.

use std::collections::BTreeSet;
use std::path::PathBuf;

use fsm_storage::Wal;
use fsm_types::codec::Reader;
use fsm_types::{Batch, Result, Transaction};

use crate::Incoming;

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
    /// The log.  Its last sequence number counts the committed batches —
    /// the ones the window holds, except while recovery replays the tail.
    pub(crate) wal: Wal,
    /// The retained checkpoints, oldest first and at most two: each one's
    /// WAL sequence number and the segment uids it names.  The WAL is
    /// pruned up to the older one, never further.
    pub(crate) checkpoints: Vec<(u64, BTreeSet<u64>)>,
    /// Evicted segment files whose release is deferred until a checkpoint
    /// proves them unreferenced (or whose release failed).
    pub(crate) garbage: Vec<(u64, PathBuf)>,
    /// Slides since the last checkpoint.
    pub(crate) slides_since_ckpt: usize,
    /// Segments with uid below this were fsynced by an earlier checkpoint.
    pub(crate) synced_uid_watermark: u64,
    /// Cumulative bytes appended to the WAL.
    pub(crate) wal_bytes: u64,
    /// Cumulative `fsync`s: WAL appends, prunes and torn-tail truncations,
    /// segment syncs and checkpoint writes.
    pub(crate) fsyncs: u64,
    /// Cumulative bytes of checkpoint files written.
    pub(crate) checkpoint_bytes: u64,
    /// Report of the recovery that produced this state, if any.
    pub(crate) report: Option<RecoveryReport>,
    /// The buffer a built batch is encoded into for its WAL append (a
    /// payload received encoded is logged as it is).
    pub(crate) record: Vec<u8>,
}

impl DurableState {
    /// State of a freshly created (empty, not recovered) durable matrix.
    pub(crate) fn fresh(config: DurabilityConfig, wal: Wal) -> Self {
        Self {
            config,
            wal,
            checkpoints: Vec::new(),
            garbage: Vec::new(),
            slides_since_ckpt: 0,
            synced_uid_watermark: 0,
            wal_bytes: 0,
            fsyncs: 0,
            checkpoint_bytes: 0,
            report: None,
            record: Vec::new(),
        }
    }

    /// Commits `incoming` — appends it to the WAL as the next record and
    /// `fsync`s it — and returns its sequence number.  A failed append
    /// leaves the log as it was.
    pub(crate) fn commit(&mut self, incoming: Incoming<'_>) -> Result<u64> {
        let seq = self.wal.last_seq() + 1;
        let record = match incoming {
            Incoming::Encoded(payload) => payload,
            Incoming::Batch(batch) => {
                self.record.clear();
                encode_batch_into(batch, &mut self.record);
                &self.record
            }
        };
        self.wal_bytes += self.wal.append(seq, record)?;
        self.fsyncs += 1;
        Ok(seq)
    }

    /// Retains the checkpoint just written at `seq`, naming `uids`, beside
    /// the newest one before it.
    pub(crate) fn retain_checkpoint(&mut self, seq: u64, uids: BTreeSet<u64>) {
        if self.checkpoints.len() == 2 {
            self.checkpoints.remove(0);
        }
        self.checkpoints.push((seq, uids));
    }

    /// Whether a retained checkpoint names segment `uid`.
    pub(crate) fn retains(&self, uid: u64) -> bool {
        self.checkpoints.iter().any(|(_, uids)| uids.contains(&uid))
    }
}

/// Encodes a batch as a WAL record payload.
///
/// Layout (all little-endian): `batch id (u64)`, `transaction count (u32)`,
/// then per transaction `edge count (u32)` followed by the raw `u32` edge
/// identifiers in canonical — strictly increasing — order, which a
/// [`fsm_types::Transaction`] always holds and [`decode_batch`] requires.  Integrity
/// comes from the WAL record's CRC; this encoding carries no checksum of its
/// own.  A wrapper around [`encode_batch_into`].
pub fn encode_batch(batch: &Batch) -> Vec<u8> {
    let mut out = Vec::new();
    encode_batch_into(batch, &mut out);
    out
}

/// Appends [`encode_batch`]'s bytes to `out`: one resize to the exact
/// length (`12 + 4·transactions + 4·edge ids`), then every field copied into
/// place — no per-id capacity check, and no allocation at all when `out`
/// already has the room.
pub fn encode_batch_into(batch: &Batch, out: &mut Vec<u8>) {
    let start = out.len();
    let len = 12 + 4 * (batch.len() + batch.total_edge_occurrences());
    out.resize(start + len, 0);
    let (head, mut rest) = out[start..].split_at_mut(12);
    head[..8].copy_from_slice(&batch.id.to_le_bytes());
    head[8..].copy_from_slice(&(batch.len() as u32).to_le_bytes());
    for transaction in batch.iter() {
        let (count, tail) = rest.split_at_mut(4);
        count.copy_from_slice(&(transaction.len() as u32).to_le_bytes());
        let (ids, tail) = tail.split_at_mut(4 * transaction.len());
        for (slot, edge) in ids.chunks_exact_mut(4).zip(transaction.edges()) {
            slot.copy_from_slice(&edge.0.to_le_bytes());
        }
        rest = tail;
    }
}

/// Decodes a WAL record payload back into a batch.
///
/// The payload is checked, never repaired: a truncated or padded payload, a
/// count the bytes cannot hold, or a transaction whose ids do not strictly
/// increase is a [`fsm_types::FsmError::CorruptArtifact`] naming the "wal
/// batch payload".
pub fn decode_batch(payload: &[u8]) -> Result<Batch> {
    let mut reader = Reader::artifact(payload, "wal batch payload");
    let id = reader.take_u64()?;
    // A transaction is at least its `u32` edge count; an edge is a `u32`.
    let num_tx = reader.count_u32(4)?;
    let mut transactions = Vec::with_capacity(num_tx);
    for _ in 0..num_tx {
        let num_edges = reader.count_u32(4)?;
        transactions.push(Transaction::read_canonical(&mut reader, num_edges)?);
    }
    reader.finish()?;
    Ok(Batch::from_transactions(id, transactions))
}

#[cfg(test)]
mod tests {
    use fsm_types::FsmError;

    use super::*;

    fn batch(id: u64, transactions: &[&[u32]]) -> Batch {
        Batch::from_transactions(
            id,
            transactions
                .iter()
                .map(|raw| Transaction::from_raw(raw.iter().copied()))
                .collect(),
        )
    }

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
    fn non_canonical_ids_are_refused_not_repaired() {
        // One transaction of two ids, written by hand: descending, repeated,
        // and repeated at the top of the id space.
        for pair in [[5u32, 4], [3, 3], [u32::MAX, u32::MAX], [u32::MAX, 0]] {
            let mut payload = 9u64.to_le_bytes().to_vec();
            payload.extend_from_slice(&1u32.to_le_bytes());
            payload.extend_from_slice(&2u32.to_le_bytes());
            for id in pair {
                payload.extend_from_slice(&id.to_le_bytes());
            }
            match decode_batch(&payload) {
                Err(FsmError::CorruptArtifact { artifact, detail }) => {
                    assert_eq!(artifact, "wal batch payload");
                    assert!(detail.contains("strictly increase"), "{detail}");
                }
                other => panic!("{pair:?} must be refused: {other:?}"),
            }
        }
    }

    #[test]
    fn encode_into_appends_the_bytes_encode_returns() {
        let sample = batch(42, &[&[1, 3, 4], &[], &[1, 2, 5, 6, 9], &[u32::MAX]]);
        let mut out = b"prefix".to_vec();
        encode_batch_into(&sample, &mut out);
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(&out[6..], encode_batch(&sample));
        assert_eq!(out.len(), 6 + 12 + 4 * (4 + 9));
        // Into a buffer with the room: no reallocation.
        out.clear();
        let buffer = out.as_ptr();
        encode_batch_into(&sample, &mut out);
        assert_eq!(
            (out.as_ptr(), &out[..]),
            (buffer, &encode_batch(&sample)[..])
        );
    }

    #[test]
    fn durability_config_paths() {
        let cfg = DurabilityConfig::new("/tmp/x").with_checkpoint_every(3);
        assert_eq!(cfg.checkpoint_every, 3);
        assert_eq!(cfg.wal_path(), PathBuf::from("/tmp/x/wal.log"));
        assert_eq!(cfg.segments_dir(), PathBuf::from("/tmp/x/segments"));
    }
}
