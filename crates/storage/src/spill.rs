//! Hibernation artifacts: full-payload spill images for non-durable windows.
//!
//! A durable tenant spills by checkpointing — its segment files and WAL
//! already live on disk, so dropping the resident state loses nothing.  A
//! *non-durable* tenant (memory backend, or a disk backend rooted in a
//! self-cleaning temp directory) has no such artifacts: spilling it means
//! serialising the actual window payload — every segment's bit chunks, the
//! batch boundaries and the ingest-time support counters — into one file the
//! tenant can be rebuilt from.  [`Hibernation`] is that file.
//!
//! # File format
//!
//! The same `crate::framed` envelope as [`crate::Checkpoint`], with magic
//! `"FSMSPIL1"`: written to a temp path, fsynced, renamed — a crash
//! mid-spill leaves either no artifact or one complete artifact — and any
//! damage surfaces on load as [`fsm_types::FsmError::CorruptArtifact`]
//! naming the file.
//!
//! The body is `u64` little-endian fields: `num_items`, `window_batches`,
//! the support counters (count-prefixed), then the live segments
//! oldest-first (count-prefixed) — each a `batch_id`, its column count, and
//! its count-prefixed touched rows as `(row id, chunk byte length, chunk
//! bytes)` triples, a chunk being a [`crate::BitVec`] image.

use std::path::{Path, PathBuf};

use fsm_types::codec::put_u64;
use fsm_types::Result;

use crate::framed;
use crate::paged::annotate;

const MAGIC: &[u8; 8] = b"FSMSPIL1";
/// Encoded bytes of a segment with no rows: batch id, cols, row count.
const SEGMENT_HEADER_BYTES: usize = 24;
/// Encoded bytes of a row with an empty chunk: row id, chunk length.
const ROW_HEADER_BYTES: usize = 16;

/// One touched row of one hibernated segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HibernationRow {
    /// Row (edge) identifier.
    pub row: u64,
    /// The row's bit chunk for this segment, as [`crate::BitVec::to_bytes`]
    /// output.
    pub chunk: Vec<u8>,
}

/// One hibernated window segment (= one live batch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HibernationSegment {
    /// Stream-wide id of the batch this segment captured.
    pub batch_id: u64,
    /// Window columns (transactions) the segment contributes.
    pub cols: u64,
    /// Touched rows in ascending row order.
    pub rows: Vec<HibernationRow>,
}

/// A complete, self-validating spill image of one non-durable window.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Hibernation {
    /// Size of the row domain (number of catalogued edges) at spill time.
    pub num_items: u64,
    /// Window capacity in batches, recorded to reject a thaw under a
    /// different configuration.
    pub window_batches: u64,
    /// Ingest-time support counter per row, `num_items` entries.  Redundant
    /// with the chunk payloads — a thaw recomputes them and treats any
    /// divergence as corruption the CRC happened not to catch structurally.
    pub supports: Vec<u64>,
    /// Live segments, oldest first.
    pub segments: Vec<HibernationSegment>,
}

impl Hibernation {
    /// File name every hibernation artifact is stored under (one window per
    /// spill directory).
    pub const FILE_NAME: &'static str = "window.hib";

    /// The artifact path inside a tenant's spill directory.
    pub fn artifact_path(dir: &Path) -> PathBuf {
        dir.join(Self::FILE_NAME)
    }

    /// Writes the artifact into `dir` (temp file + fsync + rename),
    /// returning the final path and the encoded size in bytes.
    pub fn write(&self, dir: &Path) -> Result<(PathBuf, u64)> {
        std::fs::create_dir_all(dir).map_err(|err| annotate(err, "create spill dir", dir))?;
        framed::write(dir, Self::FILE_NAME, MAGIC, &self.encode_body())
    }

    /// Loads and validates a hibernation artifact.
    ///
    /// Any damage — wrong magic, truncation, a flipped bit anywhere in the
    /// body, a count the body cannot hold — fails with
    /// [`fsm_types::FsmError::CorruptArtifact`] naming the file.
    pub fn load(path: &Path) -> Result<Self> {
        framed::load(path, MAGIC, &[], |reader| {
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
                let batch_id = reader.take_u64()?;
                let cols = reader.take_u64()?;
                let num_rows = reader.count_u64(ROW_HEADER_BYTES)?;
                let mut rows = Vec::with_capacity(num_rows);
                for _ in 0..num_rows {
                    let row = reader.take_u64()?;
                    // A chunk is a count-prefixed list of bytes.
                    let len = reader.count_u64(1)?;
                    let chunk = reader.take(len)?.to_vec();
                    rows.push(HibernationRow { row, chunk });
                }
                segments.push(HibernationSegment {
                    batch_id,
                    cols,
                    rows,
                });
            }
            Ok(Self {
                num_items,
                window_batches,
                supports,
                segments,
            })
        })
    }

    fn encode_body(&self) -> Vec<u8> {
        let mut body = Vec::new();
        put_u64(&mut body, self.num_items);
        put_u64(&mut body, self.window_batches);
        put_u64(&mut body, self.supports.len() as u64);
        for &s in &self.supports {
            put_u64(&mut body, s);
        }
        put_u64(&mut body, self.segments.len() as u64);
        for seg in &self.segments {
            put_u64(&mut body, seg.batch_id);
            put_u64(&mut body, seg.cols);
            put_u64(&mut body, seg.rows.len() as u64);
            for row in &seg.rows {
                put_u64(&mut body, row.row);
                put_u64(&mut body, row.chunk.len() as u64);
                body.extend_from_slice(&row.chunk);
            }
        }
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::BitVec;
    use crate::temp::TempDir;
    use fsm_types::FsmError;

    fn sample() -> Hibernation {
        let chunk = |bits: &[bool]| BitVec::from_bools(bits.iter().copied()).to_bytes();
        Hibernation {
            num_items: 3,
            window_batches: 2,
            supports: vec![2, 0, 1],
            segments: vec![
                HibernationSegment {
                    batch_id: 6,
                    cols: 3,
                    rows: vec![
                        HibernationRow {
                            row: 0,
                            chunk: chunk(&[true, false, true]),
                        },
                        HibernationRow {
                            row: 2,
                            chunk: chunk(&[false, true, false]),
                        },
                    ],
                },
                HibernationSegment {
                    batch_id: 7,
                    cols: 1,
                    rows: vec![],
                },
            ],
        }
    }

    #[test]
    fn write_load_roundtrip() {
        let dir = TempDir::new("hib").unwrap();
        let hib = sample();
        let (path, bytes) = hib.write(dir.path()).unwrap();
        assert!(path.ends_with(Hibernation::FILE_NAME));
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        assert_eq!(Hibernation::load(&path).unwrap(), hib);
    }

    #[test]
    fn rewrite_replaces_the_previous_image() {
        let dir = TempDir::new("hib").unwrap();
        sample().write(dir.path()).unwrap();
        let mut newer = sample();
        newer.segments.pop();
        let (path, _) = newer.write(dir.path()).unwrap();
        assert_eq!(Hibernation::load(&path).unwrap(), newer);
    }

    #[test]
    fn every_single_bit_flip_in_the_body_is_detected() {
        let dir = TempDir::new("hib").unwrap();
        let (path, _) = sample().write(dir.path()).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for pos in (0..clean.len()).step_by(5) {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x08;
            std::fs::write(&path, &bytes).unwrap();
            let err = Hibernation::load(&path).unwrap_err();
            assert!(
                matches!(err, FsmError::CorruptArtifact { .. }),
                "flip at {pos} must be CorruptArtifact, got: {err}"
            );
            assert!(
                err.to_string().contains(Hibernation::FILE_NAME),
                "error must name the file: {err}"
            );
        }
        std::fs::write(&path, &clean).unwrap();
        Hibernation::load(&path).unwrap();
    }

    #[test]
    fn truncated_file_is_rejected() {
        let dir = TempDir::new("hib").unwrap();
        let (path, _) = sample().write(dir.path()).unwrap();
        let clean = std::fs::read(&path).unwrap();
        std::fs::write(&path, &clean[..clean.len() / 2]).unwrap();
        assert!(Hibernation::load(&path).is_err());
        std::fs::write(&path, b"").unwrap();
        assert!(Hibernation::load(&path).is_err());
    }

    #[test]
    fn stale_tmp_is_ignored_and_replaced() {
        let dir = TempDir::new("hib").unwrap();
        let stale = dir.path().join(format!("{}.tmp", Hibernation::FILE_NAME));
        std::fs::write(&stale, b"half-written").unwrap();
        let (path, _) = sample().write(dir.path()).unwrap();
        assert_eq!(Hibernation::load(&path).unwrap(), sample());
        assert!(!stale.exists());
    }
}
