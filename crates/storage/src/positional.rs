//! Positional file I/O: read or write at an explicit offset, without a file
//! cursor to move first.
//!
//! [`crate::PagedFile`] addresses pages by index and a segment run is read
//! and written whole from offset 0, so every access knows its offset.  On
//! Unix that is one `pread` / `pwrite` per call
//! ([`std::os::unix::fs::FileExt`]); elsewhere the same two functions fall
//! back to a seek followed by the read or write, so the crate builds — and
//! behaves identically — on every target.

use std::fs::File;
use std::io;

/// Fills `buf` from `file` starting at byte `offset`.
#[cfg(unix)]
pub(crate) fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Writes all of `buf` to `file` starting at byte `offset`.
#[cfg(unix)]
pub(crate) fn write_all_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, buf, offset)
}

/// Fills `buf` from `file` starting at byte `offset`.
#[cfg(not(unix))]
pub(crate) fn read_exact_at(mut file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

/// Writes all of `buf` to `file` starting at byte `offset`.
#[cfg(not(unix))]
pub(crate) fn write_all_at(mut file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(buf)
}
