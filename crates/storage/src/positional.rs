//! Positional file I/O: read or write at an explicit offset, without a file
//! cursor to move first — and the naming of a file in the errors its I/O
//! raises.
//!
//! A segment run and the DSTable's file are each written whole from offset
//! 0, and every read knows its byte range, so every access knows its
//! offset.  On Unix that is one `pread` / `pwrite` per call
//! ([`std::os::unix::fs::FileExt`]); elsewhere the same two functions fall
//! back to a seek followed by the read or write, so the crate builds — and
//! behaves identically — on every target.

use std::borrow::Cow;
use std::fs::File;
use std::io;
use std::path::Path;

use fsm_types::FsmError;

/// Fills `buf` from `file` starting at byte `offset`.
#[cfg(unix)]
pub fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Writes all of `buf` to `file` starting at byte `offset`.
#[cfg(unix)]
pub fn write_all_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, buf, offset)
}

/// Fills `buf` from `file` starting at byte `offset`.
#[cfg(not(unix))]
pub fn read_exact_at(mut file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

/// Writes all of `buf` to `file` starting at byte `offset`.
#[cfg(not(unix))]
pub fn write_all_at(mut file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(buf)
}

/// Last path component, used to name artifacts in corruption errors —
/// borrowed from `path` when it is UTF-8, so a read that names its file in
/// case it fails allocates nothing when it does not.
pub fn artifact_name(path: &Path) -> Cow<'_, str> {
    path.file_name()
        .map(|n| n.to_string_lossy())
        .unwrap_or_else(|| Cow::Owned(path.display().to_string()))
}

/// Wraps an I/O error with the operation and path that failed, so disk-path
/// failures surface as actionable messages instead of bare `os error` codes.
pub fn annotate(err: io::Error, op: &str, path: &Path) -> FsmError {
    FsmError::Io(io::Error::new(
        err.kind(),
        format!("{op} {}: {err}", path.display()),
    ))
}
