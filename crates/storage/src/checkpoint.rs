//! Segment-aligned checkpoints: the manifest of a window's cold form.
//!
//! Segments are immutable runs, and each run carries its own uid, columns,
//! row ids and chunks under one CRC, so a checkpoint copies nothing a run
//! holds.  It names the live runs — each `(uid, batch id, columns)` — and
//! records what no run holds: the ingest-time support counters, the WAL
//! sequence number it covers, the next segment uid and the window size.
//! Checkpoint files are written to a temp path, fsynced and renamed into
//! place, so a crash during checkpointing leaves either the old set of
//! checkpoints or the old set plus one complete new file — never a
//! half-written one that parses.
//!
//! # File format
//!
//! A `crate::framed` artifact with magic `"FSMCKPT3"` whose body is all
//! `u64` little-endian fields: `last_seq`, `next_uid`, `window_batches`,
//! the support counters (count-prefixed; the count is the window's row
//! domain), then the live segments (count-prefixed) — each `uid`,
//! `batch_id`, `cols`.  A single flipped bit anywhere makes
//! [`Checkpoint::load`] reject the file, and recovery falls back to the
//! next older checkpoint (whose WAL suffix is retained for exactly this
//! reason).  The retired formats are refused by name, and no decoder for
//! either is kept: `"FSMCKPT2"` copied each run's row index and per-row
//! one-counts, and `"FSMCKPT1"` did the same for segment format v1.
//! [`Checkpoint::candidates`] refuses them before recovery reads, or
//! deletes, anything.

use std::path::{Path, PathBuf};

use fsm_types::codec::put_u64;
use fsm_types::Result;

use crate::framed;

const MAGIC: &[u8; 8] = b"FSMCKPT3";
/// The magics of the retired checkpoint formats, with their names.
const RETIRED: [(&[u8; 8], &str); 2] = [
    (b"FSMCKPT2", "checkpoint format 2"),
    (b"FSMCKPT1", "segment format v1"),
];
/// Encoded bytes of one [`CheckpointSegment`].
const SEGMENT_BYTES: usize = 24;

/// One live segment a checkpoint names: its run holds the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSegment {
    /// Stable uid (names the file `seg-<uid>.run`).
    pub uid: u64,
    /// Stream-wide id of the batch this segment captured.
    pub batch_id: u64,
    /// Window columns the segment contributes.
    pub cols: u64,
}

/// A complete, self-validating manifest of a window's cold form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Checkpoint {
    /// WAL sequence number of the last batch this snapshot covers.
    pub last_seq: u64,
    /// The segment uid counter at snapshot time (next uid to be assigned).
    pub next_uid: u64,
    /// Window capacity in batches, recorded to reject recovery under a
    /// different configuration.
    pub window_batches: u64,
    /// Ingest-time support counter per row: one entry for every row of the
    /// window's domain (number of catalogued edges).
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
    /// whose referenced segment runs verify.  A checkpoint of a retired
    /// format fails the listing with [`fsm_types::FsmError::CorruptArtifact`]
    /// naming it and its format, so a directory an earlier version wrote is
    /// refused before any of it is read or deleted.
    pub fn candidates(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
        let candidates = Self::list(dir)?;
        for (_, path) in &candidates {
            framed::refuse_retired(path, &RETIRED)?;
        }
        Ok(candidates)
    }

    /// The checkpoint files in `dir` as `(seq, path)`, newest first.
    fn list(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
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

    /// Removes all but the `keep` newest checkpoint files, whatever their
    /// format (and any stale `.tmp` leftovers), returning the removed paths.
    pub fn prune_keeping(dir: &Path, keep: usize) -> Result<Vec<PathBuf>> {
        let mut removed = Vec::new();
        for (_, path) in Self::list(dir)?.into_iter().skip(keep) {
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
    /// [`fsm_types::FsmError::CorruptArtifact`] naming the file, and so does
    /// a checkpoint of a retired format, by the format's name.
    pub fn load(path: &Path) -> Result<Self> {
        framed::load(path, MAGIC, &RETIRED, |reader| {
            let last_seq = reader.take_u64()?;
            let next_uid = reader.take_u64()?;
            let window_batches = reader.take_u64()?;
            let num_supports = reader.count_u64(8)?;
            let mut supports = Vec::with_capacity(num_supports);
            for _ in 0..num_supports {
                supports.push(reader.take_u64()?);
            }
            let num_segments = reader.count_u64(SEGMENT_BYTES)?;
            let mut segments = Vec::with_capacity(num_segments);
            for _ in 0..num_segments {
                segments.push(CheckpointSegment {
                    uid: reader.take_u64()?,
                    batch_id: reader.take_u64()?,
                    cols: reader.take_u64()?,
                });
            }
            Ok(Self {
                last_seq,
                next_uid,
                window_batches,
                supports,
                segments,
            })
        })
    }

    fn encode_body(&self) -> Vec<u8> {
        let mut body = Vec::new();
        put_u64(&mut body, self.last_seq);
        put_u64(&mut body, self.next_uid);
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
            window_batches: 2,
            supports: vec![5, 0, 2],
            segments: vec![
                CheckpointSegment {
                    uid: 2,
                    batch_id: 6,
                    cols: 3,
                },
                CheckpointSegment {
                    uid: 3,
                    batch_id: 7,
                    cols: 1,
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
        // Magic, five fields and three supports, two segments, CRC.
        assert_eq!(bytes, 8 + 8 * (5 + 3) + 2 * 24 + 4);
        assert_eq!(fsyncs, 1);
        assert_eq!(Checkpoint::load(&path).unwrap(), ckpt);
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

    /// A retired checkpoint is refused by its format's name — by `load`,
    /// and by `candidates` before recovery walks (and deletes) anything —
    /// while a fresh start may still prune it.
    #[test]
    fn a_format_v1_checkpoint_is_refused_by_name() {
        for (magic, format) in RETIRED {
            // Retired frames differ from this one in their magic (the CRC
            // covers the body), so each is a file its format's version wrote
            // with a valid CRC.
            let dir = TempDir::new("ckpt").unwrap();
            let (path, _, _) = sample(5).write(dir.path()).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[..8].copy_from_slice(magic);
            std::fs::write(&path, &bytes).unwrap();
            for err in [
                Checkpoint::load(&path).unwrap_err(),
                Checkpoint::candidates(dir.path()).unwrap_err(),
            ] {
                assert!(
                    matches!(&err, FsmError::CorruptArtifact { artifact, detail }
                        if artifact == "checkpoint-5.ckpt" && detail.contains(format)),
                    "{err}"
                );
            }
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
            Checkpoint::prune_keeping(dir.path(), 0).unwrap();
            assert!(!path.exists());
        }
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
