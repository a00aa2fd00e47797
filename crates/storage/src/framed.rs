//! The CRC-framed artifact envelope [`crate::Checkpoint`] and
//! [`crate::Hibernation`] share: `magic (8 bytes) ‖ body ‖ crc32(body): u32
//! LE`, the body being `fsm_types::codec` fields.
//!
//! [`write`] goes to a temp path, fsyncs and renames into place, so a crash
//! leaves either no artifact or one complete artifact — never a
//! half-written one that parses.  [`load`] checks length, magic and CRC
//! before a single body field is decoded, and reports any damage as
//! [`FsmError::CorruptArtifact`] naming the file.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

use fsm_types::codec::{put_u32, Reader};
use fsm_types::{FsmError, Result};

use crate::checksum::crc32;
use crate::paged::{annotate, artifact_name};

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
/// to `decode`; bytes `decode` leaves unread are an error too.
pub(crate) fn load<T>(
    path: &Path,
    magic: &[u8; 8],
    decode: impl FnOnce(&mut Reader<'_>) -> Result<T>,
) -> Result<T> {
    let name = artifact_name(path);
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
