//! Segment format v2: a disk segment is one **run** — a fixed header, the
//! row index and the row chunks, packed back to back under one CRC-32 in
//! the file `seg-<uid>.run`.
//!
//! | bytes | field (little-endian) |
//! |---|---|
//! | `0..4` | format version, `2` |
//! | `4..12` | segment uid |
//! | `12..20` | columns the segment contributes (`cols`) |
//! | `20..28` | row count `n` |
//! | `28..36` | payload length: the bytes after the header |
//! | `36..40` | CRC-32 of bytes `0..36` followed by the payload |
//! | `40..40 + 8n` | the row ids, `u64` each, strictly ascending |
//! | then | `n` chunks in index order, each its bit count (`cols`), then its words |
//!
//! Every chunk of a segment is `cols` bits wide, so every chunk is
//! [`chunk_bytes`]`(cols)` long, the chunk of index slot `i` starts at byte
//! `40 + 8n + i × chunk_bytes(cols)` — no per-row offset table — and the
//! payload is exactly `n × (8 + chunk_bytes(cols))` bytes.  The CRC covers every other byte of
//! the run, and [`check`] compares it before a single field is trusted.
//!
//! Format v1 kept each chunk alone in a zero-padded 1 KiB page of
//! `seg-<uid>.pages`, with one CRC-32 per page in a `.crc` sidecar.  No v1
//! decoder is kept; such files are refused by name
//! ([`crate::scan_segment_files`]).

use fsm_types::codec::{put_u32, put_u64, Reader};
use fsm_types::{FsmError, Result};

use crate::checksum::Crc32;
use crate::segment::EpochSegment;

/// The format version a run header carries.
const VERSION: u32 = 2;
/// Bytes of the fixed header.
pub(crate) const HEADER_BYTES: usize = 40;
/// Where the header's CRC sits (the header's last four bytes).
const CRC_AT: usize = 36;

/// Bytes of one serialised chunk of `cols` bits: its bit count, then its
/// words.
pub(crate) fn chunk_bytes(cols: usize) -> usize {
    8 + cols.div_ceil(64) * 8
}

/// Length of a run of `rows` chunks of `cols` bits, or `None` if it does
/// not fit a `usize`.
pub(crate) fn run_len(rows: usize, cols: usize) -> Option<usize> {
    rows.checked_mul(8 + chunk_bytes(cols))?
        .checked_add(HEADER_BYTES)
}

/// Encodes `segment`'s run into `out` (cleared first), straight from its
/// arena: the row ids, then every chunk behind its bit count.
pub(crate) fn encode(segment: &EpochSegment, out: &mut Vec<u8>) {
    let (rows, cols) = (segment.num_rows(), segment.cols());
    out.clear();
    out.reserve(run_len(rows, cols).unwrap_or(0));
    put_u32(out, VERSION);
    put_u64(out, segment.uid());
    put_u64(out, cols as u64);
    put_u64(out, rows as u64);
    put_u64(out, (rows * (8 + chunk_bytes(cols))) as u64);
    put_u32(out, 0); // the CRC, filled in once the payload is in place
    for (row, _) in segment.rows() {
        put_u64(out, row as u64);
    }
    for (_, chunk) in segment.rows() {
        put_u64(out, chunk.len() as u64);
        for &word in chunk.as_words() {
            put_u64(out, word);
        }
    }
    debug_assert_eq!(Some(out.len()), run_len(rows, cols));
    let crc = crc_of(out);
    out[CRC_AT..HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
}

/// CRC-32 of a run's bytes without its CRC field.
fn crc_of(run: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&run[..CRC_AT]);
    crc.update(&run[HEADER_BYTES..]);
    crc.finish()
}

/// What a run's header declares, once its CRC has matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Header {
    /// Segment uid.
    pub(crate) uid: u64,
    /// Columns of every chunk.
    pub(crate) cols: usize,
    /// Row count.
    pub(crate) rows: usize,
}

/// Verifies `bytes` as one whole run: the CRC first — no field is read
/// before it matches — then that the header describes exactly the bytes
/// present.  Damage is [`FsmError::CorruptArtifact`] naming `artifact`.
pub(crate) fn check(bytes: &[u8], artifact: &str) -> Result<Header> {
    if bytes.len() < HEADER_BYTES {
        return Err(FsmError::corrupt_artifact(
            artifact,
            format!(
                "{} bytes — too short for the {HEADER_BYTES}-byte run header",
                bytes.len()
            ),
        ));
    }
    let stored = Reader::artifact(&bytes[CRC_AT..HEADER_BYTES], artifact).take_u32()?;
    let actual = crc_of(bytes);
    if stored != actual {
        return Err(FsmError::corrupt_artifact(
            artifact,
            format!("checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"),
        ));
    }
    let mut header = Reader::artifact(&bytes[..CRC_AT], artifact);
    let version = header.take_u32()?;
    if version != VERSION {
        return Err(FsmError::corrupt_artifact(
            artifact,
            format!("run format version {version}, expected {VERSION}"),
        ));
    }
    let uid = header.take_u64()?;
    let (cols, rows, payload) = (header.take_u64()?, header.take_u64()?, header.take_u64()?);
    let present = bytes.len() - HEADER_BYTES;
    let layout = usize::try_from(cols)
        .ok()
        .zip(usize::try_from(rows).ok())
        .filter(|&(cols, rows)| {
            run_len(rows, cols) == Some(bytes.len()) && payload == present as u64
        });
    let Some((cols, rows)) = layout else {
        return Err(FsmError::corrupt_artifact(
            artifact,
            format!(
                "the header declares {rows} rows of {cols} columns in a {payload}-byte \
                 payload, but {present} bytes follow it"
            ),
        ));
    };
    Ok(Header { uid, cols, rows })
}
