//! A minimal fixed-size-page file, the DSTable's unit of on-disk storage
//! (under [`crate::RowStore`]).  The DSMatrix's window segments do not use
//! it: each is one packed run file, see [`crate::SegmentedWindowStore`].

use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};

use fsm_types::{FsmError, Result};

use crate::checksum::crc32;
use crate::positional::{read_exact_at, write_all_at};

/// An append-only file of fixed-size pages, read back by page index.
///
/// This is intentionally the simplest storage engine that exhibits the I/O
/// pattern the paper's disk-resident structures rely on: sequential appends
/// while a batch streams in, and scans while mining.  Its one user,
/// [`crate::RowStore`] (the DSTable's row spill), only ever appends (and
/// truncates to zero on a bulk rewrite), so that is all the file offers:
/// [`PagedFile::append_pages`] hands a whole page-aligned run to the
/// operating system with one positional write, [`PagedFile::read_page_into`]
/// fetches one page with one positional read into the caller's buffer.
/// Neither moves a file cursor, and neither allocates a buffer per page.
///
/// # Integrity
///
/// Every page carries a CRC-32 of its full (padded) contents in a sidecar
/// file `<path>.crc` (4 bytes per page, little-endian, same index order),
/// written after the data.  The same bytes are held in memory (4 B per page,
/// counted in [`crate::RowStore::resident_bytes`]), and every page read from
/// disk is checksummed and compared with its in-memory entry — the CRC
/// computed when the page was written — before a byte of it is returned,
/// failing with [`FsmError::CorruptArtifact`] on a mismatch.  So a torn or
/// bit-flipped page is refused whenever it is read.
///
/// Writes are buffered by the operating system until [`PagedFile::sync_all`]
/// is called; callers that need durability must sync explicitly and can
/// audit that they did via [`PagedFile::fsyncs`].
#[derive(Debug)]
pub struct PagedFile {
    file: File,
    checksums: File,
    /// The sidecar's contents: one little-endian CRC-32 per page, in index
    /// order.  Its length is the page count.
    sidecar: Vec<u8>,
    path: PathBuf,
    page_size: usize,
    bytes_written: u64,
    bytes_read: u64,
    fsyncs: u64,
}

/// Bytes of sidecar per page (one CRC-32).
const CRC_BYTES: usize = 4;

impl PagedFile {
    /// Default page size (4 KiB) used by the disk-backed structures.
    pub const DEFAULT_PAGE_SIZE: usize = 4096;

    /// Creates a paged file at `path`, erroring if the path already exists.
    ///
    /// Refusing to clobber an existing file is a durability guard: silently
    /// truncating would destroy pages a previous (possibly crashed) process
    /// wrote.  Callers that genuinely want to reuse a path must either remove
    /// the file first or opt in via [`PagedFile::create_overwrite`].
    pub fn create(path: impl AsRef<Path>, page_size: usize) -> Result<Self> {
        Self::create_inner(path.as_ref(), page_size, false)
    }

    /// Creates a paged file at `path`, explicitly truncating any existing
    /// file (and its checksum sidecar).
    pub fn create_overwrite(path: impl AsRef<Path>, page_size: usize) -> Result<Self> {
        Self::create_inner(path.as_ref(), page_size, true)
    }

    fn create_inner(path: &Path, page_size: usize, overwrite: bool) -> Result<Self> {
        if page_size == 0 {
            return Err(FsmError::config("page size must be non-zero"));
        }
        let path = path.to_path_buf();
        let mut options = OpenOptions::new();
        options.read(true).write(true);
        if overwrite {
            options.create(true).truncate(true);
        } else {
            options.create_new(true);
        }
        let file = options
            .open(&path)
            .map_err(|err| annotate(err, "create paged file", &path))?;
        let sidecar = Self::checksum_path(&path);
        // The sidecar is always truncated: with `create_new` semantics the
        // data file is fresh, so any sidecar lying around is stale.
        let checksums = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&sidecar)
            .map_err(|err| annotate(err, "create checksum sidecar", &sidecar))?;
        Ok(Self {
            file,
            checksums,
            sidecar: Vec::new(),
            path,
            page_size,
            bytes_written: 0,
            bytes_read: 0,
            fsyncs: 0,
        })
    }

    /// Path of the checksum sidecar accompanying a paged file at `path`.
    pub fn checksum_path(path: &Path) -> PathBuf {
        let mut name = path.as_os_str().to_os_string();
        name.push(".crc");
        PathBuf::from(name)
    }

    /// Page size in bytes.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of pages written so far.
    #[inline]
    pub fn num_pages(&self) -> usize {
        self.sidecar.len() / CRC_BYTES
    }

    /// Total payload bytes handed to the operating system so far.
    ///
    /// Counts data pages only; the 4-byte sidecar checksums are bookkeeping,
    /// not payload, and are excluded so the counter keeps matching
    /// [`PagedFile::on_disk_bytes`].
    #[inline]
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Total bytes read back so far.
    #[inline]
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Number of `fsync` system calls issued via [`PagedFile::sync_all`].
    #[inline]
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// On-disk footprint in bytes (pages × page size).
    pub fn on_disk_bytes(&self) -> u64 {
        // Widen before multiplying: the product can exceed `usize` on 32-bit
        // targets long before either factor does.
        self.num_pages() as u64 * self.page_size as u64
    }

    /// Bytes this file keeps in main memory: the in-memory copy of the
    /// checksum sidecar (4 B per page).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.sidecar.capacity()
    }

    /// Appends `image` — a run of whole pages, already padded — to the file
    /// and returns the index of its first page.
    ///
    /// One positional write hands the run to the operating system, a second
    /// one its checksums (one CRC-32 per page, over the page's full padded
    /// bytes) to the sidecar.  Should either write fail, the page count is
    /// unchanged.
    pub fn append_pages(&mut self, image: &[u8]) -> Result<usize> {
        if !image.len().is_multiple_of(self.page_size) {
            return Err(FsmError::config(format!(
                "run of {} bytes is not a whole number of {}-byte pages",
                image.len(),
                self.page_size
            )));
        }
        let first_page = self.num_pages();
        if image.is_empty() {
            return Ok(first_page);
        }
        let table_len = self.sidecar.len();
        self.sidecar
            .reserve(image.len() / self.page_size * CRC_BYTES);
        for page in image.chunks_exact(self.page_size) {
            self.sidecar.extend_from_slice(&crc32(page).to_le_bytes());
        }
        let written =
            write_all_at(&self.file, image, self.on_disk_offset(first_page)).and_then(|()| {
                write_all_at(
                    &self.checksums,
                    &self.sidecar[table_len..],
                    table_len as u64,
                )
            });
        if let Err(err) = written {
            self.sidecar.truncate(table_len);
            return Err(err.into());
        }
        self.bytes_written += image.len() as u64;
        Ok(first_page)
    }

    /// Byte offset of page `index` in the data file.
    fn on_disk_offset(&self, index: usize) -> u64 {
        index as u64 * self.page_size as u64
    }

    /// Reads page `index` into `page` — the caller's buffer, exactly one page
    /// long — with one positional read, and verifies its checksum against
    /// the in-memory sidecar table before returning.
    pub fn read_page_into(&mut self, index: usize, page: &mut [u8]) -> Result<()> {
        if index >= self.num_pages() {
            return Err(FsmError::corrupt(format!(
                "page {index} out of range (file has {} pages)",
                self.num_pages()
            )));
        }
        if page.len() != self.page_size {
            return Err(FsmError::config(format!(
                "buffer of {} bytes is not one {}-byte page",
                page.len(),
                self.page_size
            )));
        }
        read_exact_at(&self.file, page, self.on_disk_offset(index))?;
        self.bytes_read += self.page_size as u64;
        let entry = index * CRC_BYTES;
        let stored: [u8; CRC_BYTES] = self.sidecar[entry..entry + CRC_BYTES]
            .try_into()
            .expect("a sidecar entry is four bytes");
        let expected = u32::from_le_bytes(stored);
        let actual = crc32(page);
        if actual != expected {
            return Err(FsmError::corrupt_artifact(
                format!("page {index} of {}", artifact_name(&self.path)),
                format!("checksum mismatch (stored {expected:#010x}, computed {actual:#010x})"),
            ));
        }
        Ok(())
    }

    /// Reads page `index` into a fresh buffer of page size (see
    /// [`PagedFile::read_page_into`], which fills the caller's).
    pub fn read_page(&mut self, index: usize) -> Result<Vec<u8>> {
        let mut page = vec![0u8; self.page_size];
        self.read_page_into(index, &mut page)?;
        Ok(page)
    }

    /// Truncates the file (and its checksum sidecar) back to zero pages
    /// (used on window rebuilds).
    pub fn clear(&mut self) -> Result<()> {
        self.file.set_len(0)?;
        self.checksums.set_len(0)?;
        self.sidecar.clear();
        Ok(())
    }

    /// Forces all written pages and checksums to stable storage (`fsync` on
    /// the data file and the sidecar), counting each system call in
    /// [`PagedFile::fsyncs`].
    pub fn sync_all(&mut self) -> Result<()> {
        self.file.sync_all()?;
        self.fsyncs += 1;
        self.checksums.sync_all()?;
        self.fsyncs += 1;
        Ok(())
    }
}

/// Last path component, used to name artifacts in corruption errors —
/// borrowed from `path` when it is UTF-8, so a read that names its file in
/// case it fails allocates nothing when it does not.
pub(crate) fn artifact_name(path: &Path) -> Cow<'_, str> {
    path.file_name()
        .map(|n| n.to_string_lossy())
        .unwrap_or_else(|| Cow::Owned(path.display().to_string()))
}

/// Wraps an I/O error with the operation and path that failed, so disk-path
/// failures surface as actionable messages instead of bare `os error` codes.
pub(crate) fn annotate(err: std::io::Error, op: &str, path: &Path) -> FsmError {
    FsmError::Io(std::io::Error::new(
        err.kind(),
        format!("{op} {}: {err}", path.display()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp::TempDir;

    /// `payload` zero-padded to one page of `page_size` bytes.
    fn page(payload: &[u8], page_size: usize) -> Vec<u8> {
        let mut page = payload.to_vec();
        page.resize(page_size, 0);
        page
    }

    /// Flips one bit of the file at `path`, behind any open handle's back.
    fn flip_bit(path: &Path, byte: usize, mask: u8) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[byte] ^= mask;
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn append_and_read_roundtrip() {
        let dir = TempDir::new("paged").unwrap();
        let mut pf = PagedFile::create(dir.file("pages.bin"), 64).unwrap();
        let first = pf.append_pages(&page(b"hello", 64)).unwrap();
        let second = pf.append_pages(&[7u8; 64]).unwrap();
        assert_eq!((first, second), (0, 1));
        assert_eq!(pf.num_pages(), 2);

        let read = pf.read_page(0).unwrap();
        assert_eq!(&read[..5], b"hello");
        assert!(read[5..].iter().all(|&b| b == 0));
        assert_eq!(pf.read_page(1).unwrap(), vec![7u8; 64]);
        assert_eq!(pf.on_disk_bytes(), 128);
        assert_eq!(pf.bytes_written(), 128);
        assert_eq!(pf.bytes_read(), 128);
    }

    #[test]
    fn a_run_of_pages_is_appended_whole_and_read_back_page_by_page() {
        let dir = TempDir::new("paged").unwrap();
        let path = dir.file("pages.bin");
        let mut pf = PagedFile::create(&path, 16).unwrap();
        assert_eq!(pf.append_pages(&[]).unwrap(), 0, "an empty run is legal");
        let mut run = page(b"alpha", 16);
        run.extend_from_slice(&page(b"beta", 16));
        run.extend_from_slice(&[9u8; 16]);
        assert_eq!(pf.append_pages(&run).unwrap(), 0);
        assert_eq!(pf.append_pages(&page(b"tail", 16)).unwrap(), 3);
        assert_eq!(pf.num_pages(), 4);
        assert_eq!(pf.bytes_written(), 64);

        // One caller-owned buffer serves every read; it must be one page.
        let mut buf = vec![0xFFu8; 16];
        pf.read_page_into(1, &mut buf).unwrap();
        assert_eq!(buf, page(b"beta", 16));
        pf.read_page_into(3, &mut buf).unwrap();
        assert_eq!(buf, page(b"tail", 16));
        assert!(pf.read_page_into(3, &mut buf[..15]).is_err());

        // On disk: the pages back to back, and one little-endian CRC of each
        // padded page in the sidecar.
        let mut expected = run.clone();
        expected.extend_from_slice(&page(b"tail", 16));
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        let crcs: Vec<u8> = expected
            .chunks(16)
            .flat_map(|page| crc32(page).to_le_bytes())
            .collect();
        assert_eq!(
            std::fs::read(PagedFile::checksum_path(&path)).unwrap(),
            crcs
        );
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let dir = TempDir::new("paged").unwrap();
        let mut pf = PagedFile::create(dir.file("pages.bin"), 8).unwrap();
        // Nine bytes are neither one page nor two: runs are whole pages.
        assert!(pf.append_pages(&[0u8; 9]).is_err());
        assert_eq!(pf.num_pages(), 0);
    }

    #[test]
    fn out_of_range_read_is_an_error() {
        let dir = TempDir::new("paged").unwrap();
        let mut pf = PagedFile::create(dir.file("pages.bin"), 8).unwrap();
        assert!(pf.read_page(0).is_err());
    }

    #[test]
    fn zero_page_size_is_rejected() {
        let dir = TempDir::new("paged").unwrap();
        assert!(PagedFile::create(dir.file("pages.bin"), 0).is_err());
    }

    #[test]
    fn clear_resets_pages() {
        let dir = TempDir::new("paged").unwrap();
        let mut pf = PagedFile::create(dir.file("pages.bin"), 8).unwrap();
        pf.append_pages(&page(b"abc", 8)).unwrap();
        pf.clear().unwrap();
        assert_eq!(pf.num_pages(), 0);
        assert!(pf.read_page(0).is_err());
        // Appends restart at page 0 of the truncated file.
        assert_eq!(pf.append_pages(&page(b"xyz", 8)).unwrap(), 0);
        assert_eq!(&pf.read_page(0).unwrap()[..3], b"xyz");
    }

    #[test]
    fn create_refuses_existing_path() {
        let dir = TempDir::new("paged").unwrap();
        let path = dir.file("pages.bin");
        let pf = PagedFile::create(&path, 8).unwrap();
        drop(pf);
        let err = PagedFile::create(&path, 8).unwrap_err();
        assert!(err.to_string().contains("create paged file"));
        // Explicit truncation is still available.
        let pf = PagedFile::create_overwrite(&path, 8).unwrap();
        assert_eq!(pf.num_pages(), 0);
    }

    #[test]
    fn sync_all_counts_fsyncs() {
        let dir = TempDir::new("paged").unwrap();
        let mut pf = PagedFile::create(dir.file("pages.bin"), 8).unwrap();
        pf.append_pages(&page(b"abc", 8)).unwrap();
        assert_eq!(pf.fsyncs(), 0);
        pf.sync_all().unwrap();
        assert_eq!(pf.fsyncs(), 2, "data file + sidecar");
    }

    #[test]
    fn bit_flip_is_detected_on_read() {
        let dir = TempDir::new("paged").unwrap();
        let path = dir.file("pages.bin");
        let mut pf = PagedFile::create(&path, 16).unwrap();
        pf.append_pages(&page(b"alpha", 16)).unwrap();
        pf.append_pages(&page(b"beta", 16)).unwrap();
        // Flip one payload bit of page 1.
        flip_bit(&path, 16, 0x04);

        assert!(pf.read_page(0).is_ok(), "page 0 is untouched");
        let err = pf.read_page(1).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("page 1 of pages.bin") && msg.contains("checksum mismatch"),
            "error must name the bad artifact: {msg}"
        );
    }

    #[test]
    fn a_data_page_damaged_under_an_open_file_is_refused_on_read() {
        // The expected CRC of a still-open file comes from memory — the one
        // computed when the page was written — never from a re-read of the
        // sidecar, and the page itself is always fetched from the file.
        let dir = TempDir::new("paged").unwrap();
        let path = dir.file("pages.bin");
        let mut pf = PagedFile::create(&path, 16).unwrap();
        pf.append_pages(&page(b"alpha", 16)).unwrap();
        pf.append_pages(&page(b"beta", 16)).unwrap();
        assert!(pf.read_page(1).is_ok());
        flip_bit(&path, 16 + 9, 0x80); // a padding byte of page 1
        assert!(pf.read_page(0).is_ok(), "page 0 is untouched");
        let msg = pf.read_page(1).unwrap_err().to_string();
        assert!(
            msg.contains("page 1 of pages.bin") && msg.contains("checksum mismatch"),
            "error must name the bad artifact: {msg}"
        );
    }
}
