//! Segment-aligned checkpoints: durable snapshots of the window metadata.
//!
//! Segments are immutable files, so a checkpoint never copies row data — it
//! serialises only the *metadata* needed to reopen them: the live segment
//! list (uid, batch id, columns, row index), the ingest-time support
//! counters, and the WAL sequence number it covers.  Checkpoint files are
//! written to a temp path, fsynced and renamed into place, so a crash during
//! checkpointing leaves either the old set of checkpoints or the old set plus
//! one complete new file — never a half-written one that parses.
//!
//! # File format
//!
//! A `crate::framed` artifact with magic `"FSMCKPT1"` whose body is all
//! `u64` little-endian fields: `last_seq`, `next_uid`, `num_items`,
//! `window_batches`, the support counters (count-prefixed), then the live
//! segments (count-prefixed) — each `uid`, `batch_id`, `cols` and its
//! count-prefixed rows as `(row, first_page, len, ones)`.  A single flipped
//! bit anywhere makes [`Checkpoint::load`] reject the file, and recovery
//! falls back to the next older checkpoint (whose WAL suffix is retained
//! for exactly this reason).

use std::path::{Path, PathBuf};

use fsm_types::codec::put_u64;
use fsm_types::Result;

use crate::framed;
use crate::segment::SegmentMeta;

const MAGIC: &[u8; 8] = b"FSMCKPT1";
/// Encoded bytes of a segment with no rows: uid, batch id, cols, row count.
const SEGMENT_HEADER_BYTES: usize = 32;
/// Encoded bytes of one [`CheckpointRow`].
const ROW_BYTES: usize = 32;

/// Durable metadata of one row of one segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRow {
    /// Row (edge) identifier.
    pub row: u64,
    /// First page of the row inside the segment file.
    pub first_page: u64,
    /// Byte length of the serialised row chunk.
    pub len: u64,
    /// Number of set bits the row contributes in this segment (lets recovery
    /// rebuild the per-segment support ledger without reading any chunk).
    pub ones: u64,
}

/// Durable metadata of one live segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSegment {
    /// Stable uid (names the file `seg-<uid>.pages`).
    pub uid: u64,
    /// Stream-wide id of the batch this segment captured.
    pub batch_id: u64,
    /// Window columns the segment contributes.
    pub cols: u64,
    /// Per-row metadata in ascending row order.
    pub rows: Vec<CheckpointRow>,
}

/// A complete, self-validating snapshot of the durable window metadata.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Checkpoint {
    /// WAL sequence number of the last batch this snapshot covers.
    pub last_seq: u64,
    /// The segment uid counter at snapshot time (next uid to be assigned).
    pub next_uid: u64,
    /// Size of the row domain (number of catalogued edges).
    pub num_items: u64,
    /// Window capacity in batches, recorded to reject recovery under a
    /// different configuration.
    pub window_batches: u64,
    /// Ingest-time support counter per row, `num_items` entries.
    pub supports: Vec<u64>,
    /// Live segments, oldest first.
    pub segments: Vec<CheckpointSegment>,
}

impl Checkpoint {
    /// File name a checkpoint covering WAL sequence `seq` is stored under.
    pub fn file_name(seq: u64) -> String {
        format!("checkpoint-{seq}.ckpt")
    }

    /// Writes the checkpoint into `dir` (temp file + fsync + rename),
    /// returning the final path, the encoded size in bytes, and the number of
    /// `fsync` calls issued.
    pub fn write(&self, dir: &Path) -> Result<(PathBuf, u64, u64)> {
        let (path, bytes) = framed::write(
            dir,
            &Self::file_name(self.last_seq),
            MAGIC,
            &self.encode_body(),
        )?;
        Ok((path, bytes, 1))
    }

    /// Lists the checkpoint files in `dir` as `(seq, path)`, newest first.
    ///
    /// Recovery walks this list until it finds a checkpoint that loads and
    /// whose referenced segment files verify.
    pub fn candidates(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        if !dir.exists() {
            return Ok(out);
        }
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(seq) = name
                .strip_prefix("checkpoint-")
                .and_then(|rest| rest.strip_suffix(".ckpt"))
                .and_then(|seq| seq.parse::<u64>().ok())
            else {
                continue;
            };
            out.push((seq, path));
        }
        out.sort_unstable_by_key(|entry| std::cmp::Reverse(entry.0));
        Ok(out)
    }

    /// Removes all but the `keep` newest checkpoint files (and any stale
    /// `.tmp` leftovers), returning the removed paths.
    pub fn prune_keeping(dir: &Path, keep: usize) -> Result<Vec<PathBuf>> {
        let mut removed = Vec::new();
        for (_, path) in Self::candidates(dir)?.into_iter().skip(keep) {
            std::fs::remove_file(&path)?;
            removed.push(path);
        }
        if dir.exists() {
            for entry in std::fs::read_dir(dir)? {
                let path = entry?.path();
                let is_tmp = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("checkpoint-") && n.ends_with(".ckpt.tmp"));
                if is_tmp {
                    std::fs::remove_file(&path)?;
                    removed.push(path);
                }
            }
        }
        Ok(removed)
    }

    /// Loads and validates a checkpoint file.
    ///
    /// Any damage — wrong magic, truncation, a flipped bit anywhere in the
    /// body, a count the body cannot hold — fails with
    /// [`fsm_types::FsmError::CorruptArtifact`] naming the file.
    pub fn load(path: &Path) -> Result<Self> {
        framed::load(path, MAGIC, |reader| {
            let last_seq = reader.take_u64()?;
            let next_uid = reader.take_u64()?;
            let num_items = reader.take_u64()?;
            let window_batches = reader.take_u64()?;
            let num_supports = reader.count_u64(8)?;
            let mut supports = Vec::with_capacity(num_supports);
            for _ in 0..num_supports {
                supports.push(reader.take_u64()?);
            }
            let num_segments = reader.count_u64(SEGMENT_HEADER_BYTES)?;
            let mut segments = Vec::with_capacity(num_segments);
            for _ in 0..num_segments {
                let uid = reader.take_u64()?;
                let batch_id = reader.take_u64()?;
                let cols = reader.take_u64()?;
                let num_rows = reader.count_u64(ROW_BYTES)?;
                let mut rows = Vec::with_capacity(num_rows);
                for _ in 0..num_rows {
                    rows.push(CheckpointRow {
                        row: reader.take_u64()?,
                        first_page: reader.take_u64()?,
                        len: reader.take_u64()?,
                        ones: reader.take_u64()?,
                    });
                }
                segments.push(CheckpointSegment {
                    uid,
                    batch_id,
                    cols,
                    rows,
                });
            }
            Ok(Self {
                last_seq,
                next_uid,
                num_items,
                window_batches,
                supports,
                segments,
            })
        })
    }

    /// Converts the segment entries into the form
    /// [`crate::SegmentedWindowStore::restore`] consumes.
    pub fn segment_metas(&self) -> Vec<SegmentMeta> {
        self.segments
            .iter()
            .map(|seg| SegmentMeta {
                uid: seg.uid,
                cols: seg.cols as usize,
                rows: seg
                    .rows
                    .iter()
                    .map(|r| (r.row as usize, r.first_page as usize, r.len as usize))
                    .collect(),
            })
            .collect()
    }

    fn encode_body(&self) -> Vec<u8> {
        let mut body = Vec::new();
        put_u64(&mut body, self.last_seq);
        put_u64(&mut body, self.next_uid);
        put_u64(&mut body, self.num_items);
        put_u64(&mut body, self.window_batches);
        put_u64(&mut body, self.supports.len() as u64);
        for &s in &self.supports {
            put_u64(&mut body, s);
        }
        put_u64(&mut body, self.segments.len() as u64);
        for seg in &self.segments {
            put_u64(&mut body, seg.uid);
            put_u64(&mut body, seg.batch_id);
            put_u64(&mut body, seg.cols);
            put_u64(&mut body, seg.rows.len() as u64);
            for row in &seg.rows {
                put_u64(&mut body, row.row);
                put_u64(&mut body, row.first_page);
                put_u64(&mut body, row.len);
                put_u64(&mut body, row.ones);
            }
        }
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp::TempDir;
    use fsm_types::FsmError;

    fn sample(seq: u64) -> Checkpoint {
        Checkpoint {
            last_seq: seq,
            next_uid: 4,
            num_items: 3,
            window_batches: 2,
            supports: vec![5, 0, 2],
            segments: vec![
                CheckpointSegment {
                    uid: 2,
                    batch_id: 6,
                    cols: 3,
                    rows: vec![
                        CheckpointRow {
                            row: 0,
                            first_page: 0,
                            len: 16,
                            ones: 2,
                        },
                        CheckpointRow {
                            row: 2,
                            first_page: 1,
                            len: 16,
                            ones: 1,
                        },
                    ],
                },
                CheckpointSegment {
                    uid: 3,
                    batch_id: 7,
                    cols: 1,
                    rows: vec![],
                },
            ],
        }
    }

    #[test]
    fn write_load_roundtrip() {
        let dir = TempDir::new("ckpt").unwrap();
        let ckpt = sample(9);
        let (path, bytes, fsyncs) = ckpt.write(dir.path()).unwrap();
        assert!(path.ends_with("checkpoint-9.ckpt"));
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        assert_eq!(fsyncs, 1);
        assert_eq!(Checkpoint::load(&path).unwrap(), ckpt);
        let metas = ckpt.segment_metas();
        assert_eq!(metas.len(), 2);
        assert_eq!(metas[0].rows, vec![(0, 0, 16), (2, 1, 16)]);
    }

    #[test]
    fn candidates_sorted_newest_first_and_pruned() {
        let dir = TempDir::new("ckpt").unwrap();
        for seq in [3u64, 11, 7] {
            sample(seq).write(dir.path()).unwrap();
        }
        let candidates = Checkpoint::candidates(dir.path()).unwrap();
        let seqs: Vec<u64> = candidates.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![11, 7, 3]);

        let removed = Checkpoint::prune_keeping(dir.path(), 2).unwrap();
        assert_eq!(removed.len(), 1);
        let seqs: Vec<u64> = Checkpoint::candidates(dir.path())
            .unwrap()
            .iter()
            .map(|(s, _)| *s)
            .collect();
        assert_eq!(seqs, vec![11, 7]);
    }

    #[test]
    fn every_single_bit_flip_in_the_body_is_detected() {
        let dir = TempDir::new("ckpt").unwrap();
        let (path, _, _) = sample(5).write(dir.path()).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Flip one bit at a sample of positions across the whole file
        // (including magic and trailing CRC).
        for pos in (0..clean.len()).step_by(7) {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            let err = Checkpoint::load(&path).unwrap_err();
            assert!(
                matches!(err, FsmError::CorruptArtifact { .. }),
                "flip at {pos} must be CorruptArtifact, got: {err}"
            );
            assert!(
                err.to_string().contains("checkpoint-5.ckpt"),
                "error must name the file: {err}"
            );
        }
        std::fs::write(&path, &clean).unwrap();
        Checkpoint::load(&path).unwrap();
    }

    #[test]
    fn truncated_file_is_rejected() {
        let dir = TempDir::new("ckpt").unwrap();
        let (path, _, _) = sample(5).write(dir.path()).unwrap();
        let clean = std::fs::read(&path).unwrap();
        std::fs::write(&path, &clean[..clean.len() / 2]).unwrap();
        assert!(Checkpoint::load(&path).is_err());
        std::fs::write(&path, b"").unwrap();
        assert!(Checkpoint::load(&path).is_err());
    }

    #[test]
    fn prune_removes_stale_tmp_files() {
        let dir = TempDir::new("ckpt").unwrap();
        sample(4).write(dir.path()).unwrap();
        let stale = dir.path().join("checkpoint-9.ckpt.tmp");
        std::fs::write(&stale, b"half-written").unwrap();
        Checkpoint::prune_keeping(dir.path(), 2).unwrap();
        assert!(!stale.exists());
        assert_eq!(Checkpoint::candidates(dir.path()).unwrap().len(), 1);
    }
}
