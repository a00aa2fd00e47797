//! The CRC-framed artifact envelope of [`crate::Checkpoint`] — the one
//! artifact that uses it: `magic (8 bytes) ‖ body ‖ crc32(body): u32 LE`,
//! the body being `fsm_types::codec` fields.  (Segment runs carry their own
//! CRC in their header; see the `run` module.)
//!
//! [`write`] goes to a temp path, fsyncs and renames into place, so a crash
//! leaves either no artifact or one complete artifact — never a
//! half-written one that parses.  [`load`] checks length, magic and CRC
//! before a single body field is decoded, and reports any damage as
//! [`FsmError::CorruptArtifact`] naming the file — a retired format's magic
//! by the format's name, which [`refuse_retired`] checks alone.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use fsm_types::codec::{put_u32, Reader};
use fsm_types::{FsmError, Result};

use crate::checksum::crc32;
use crate::positional::{annotate, artifact_name};

/// Bytes of the trailing CRC.
const CRC_BYTES: usize = 4;

/// Writes the artifact to `dir/file_name` with exactly one `fsync`,
/// returning the final path and the file size in bytes.
pub(crate) fn write(
    dir: &Path,
    file_name: &str,
    magic: &[u8; 8],
    body: &[u8],
) -> Result<(PathBuf, u64)> {
    let mut bytes = Vec::with_capacity(magic.len() + body.len() + CRC_BYTES);
    bytes.extend_from_slice(magic);
    bytes.extend_from_slice(body);
    put_u32(&mut bytes, crc32(body));
    let path = dir.join(file_name);
    let tmp = dir.join(format!("{file_name}.tmp"));
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)
        .map_err(|err| annotate(err, "create artifact temp", &tmp))?;
    file.write_all(&bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, &path)?;
    Ok((path, bytes.len() as u64))
}

/// Validates the artifact at `path` and hands a [`Reader`] over its body
/// to `decode`; bytes `decode` leaves unread are an error too.  A file
/// starting with one of the `retired` magics is refused by that format's
/// name: no decoder for it is kept.
pub(crate) fn load<T>(
    path: &Path,
    magic: &[u8; 8],
    retired: &[(&[u8; 8], &str)],
    decode: impl FnOnce(&mut Reader<'_>) -> Result<T>,
) -> Result<T> {
    let name = artifact_name(path).into_owned();
    let bytes = std::fs::read(path).map_err(|err| annotate(err, "read artifact", path))?;
    if bytes.len() < magic.len() + CRC_BYTES {
        return Err(FsmError::corrupt_artifact(
            &name,
            format!(
                "only {} bytes — too short for magic and checksum",
                bytes.len()
            ),
        ));
    }
    let body_end = bytes.len() - CRC_BYTES;
    check_retired(&bytes, &name, retired)?;
    if !bytes.starts_with(magic) {
        return Err(FsmError::corrupt_artifact(&name, "bad magic"));
    }
    let body = &bytes[magic.len()..body_end];
    let stored_crc = Reader::artifact(&bytes[body_end..], &name).take_u32()?;
    let actual_crc = crc32(body);
    if stored_crc != actual_crc {
        return Err(FsmError::corrupt_artifact(
            &name,
            format!("checksum mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"),
        ));
    }
    let mut reader = Reader::artifact(body, &name);
    let value = decode(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

/// Refuses the artifact at `path` if it starts with one of the `retired`
/// magics, by that format's name, reading only its magic.  A file too short
/// to hold one is left to [`load`] to refuse.
pub(crate) fn refuse_retired(path: &Path, retired: &[(&[u8; 8], &str)]) -> Result<()> {
    let mut magic = [0u8; 8];
    let read = File::open(path).and_then(|mut file| file.read_exact(&mut magic));
    match read {
        Ok(()) => check_retired(&magic, &artifact_name(path), retired),
        Err(err) if err.kind() == std::io::ErrorKind::UnexpectedEof => Ok(()),
        Err(err) => Err(annotate(err, "read artifact", path)),
    }
}

/// `Err` naming `name` and the format if `bytes` start with a `retired`
/// magic.
fn check_retired(bytes: &[u8], name: &str, retired: &[(&[u8; 8], &str)]) -> Result<()> {
    match retired.iter().find(|(old, _)| bytes.starts_with(*old)) {
        None => Ok(()),
        Some((_, format)) => Err(FsmError::corrupt_artifact(
            name,
            format!("{format}: written by an earlier version, and no decoder for it is kept"),
        )),
    }
}
