//! A disk- or memory-backed store of variable-length rows.
//!
//! The DSMatrix keeps one row of bits per domain edge, and the DSTable keeps
//! one row of pointer entries per domain item; both structures are "kept on
//! the disk" in the paper.  `RowStore` gives them a common spill target: rows
//! are written whole, read back whole, and rewritten in bulk when the window
//! slides.  An in-memory backend with the same interface exists for unit
//! tests and for the storage ablation (A2).
//!
//! # Write and read paths
//!
//! The disk backend is append-only over a [`PagedFile`].  Every write —
//! one row, a bulk rewrite, a whole window segment — goes through one body
//! ([`RowStore::put_rows`]): rows are laid out page-aligned in a staging
//! image and handed to the file a run at a time, so a segment costs one data
//! write and one sidecar write rather than several system calls per page.
//! [`RowStore::get_row_into`] reads a row's pages straight into the caller's
//! buffer, one positional read per page, each page CRC-verified against the
//! file's in-memory checksum table before the row is returned (see
//! [`PagedFile`] § "Integrity and durability" for what verifies what).

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::paged::PagedFile;
use crate::temp::TempDir;
use fsm_types::{FsmError, Result};

/// Most bytes of page images [`RowStore::put_rows`] stages before handing
/// them to the page file as one run.  A window segment of the default batch
/// size is smaller (one run, one pair of writes); a bulk rewrite of a large
/// table is written in runs of this size instead of being staged whole.
const STAGE_BYTES: usize = 64 * 1024;

/// Where a [`RowStore`] keeps its rows.
#[derive(Debug, Clone, Default)]
pub enum StorageBackend {
    /// Rows live on disk in a self-cleaning temporary directory (the paper's
    /// default: the capture structure does not consume main memory).
    #[default]
    DiskTemp,
    /// Rows live on disk at an explicit location (kept across runs).
    DiskAt(PathBuf),
    /// Rows live in main memory (baseline / ablation configuration).
    Memory,
}

enum Inner {
    Memory {
        rows: BTreeMap<usize, Vec<u8>>,
    },
    Disk {
        /// Keeps the temp directory alive for the lifetime of the store.
        _tempdir: Option<TempDir>,
        file: PagedFile,
        /// Row id → (first page, byte length).  Rows are stored in
        /// consecutive pages.
        index: BTreeMap<usize, (usize, usize)>,
    },
}

/// A store of variable-length byte rows addressed by a dense row id.
pub struct RowStore {
    inner: Inner,
    page_size: usize,
}

impl RowStore {
    /// Opens a row store with the given backend and the default page size.
    pub fn open(backend: StorageBackend) -> Result<Self> {
        Self::with_page_size(backend, PagedFile::DEFAULT_PAGE_SIZE)
    }

    /// Opens a row store with an explicit page size (useful in tests).
    pub fn with_page_size(backend: StorageBackend, page_size: usize) -> Result<Self> {
        let inner = match backend {
            StorageBackend::Memory => Inner::Memory {
                rows: BTreeMap::new(),
            },
            StorageBackend::DiskTemp => {
                let dir = TempDir::new("rowstore")?;
                let file = PagedFile::create(dir.file("rows.pages"), page_size)?;
                Inner::Disk {
                    _tempdir: Some(dir),
                    file,
                    index: BTreeMap::new(),
                }
            }
            StorageBackend::DiskAt(path) => {
                if let Some(parent) = path.parent() {
                    std::fs::create_dir_all(parent)?;
                }
                let file = PagedFile::create(&path, page_size)?;
                Inner::Disk {
                    _tempdir: None,
                    file,
                    index: BTreeMap::new(),
                }
            }
        };
        Ok(Self { inner, page_size })
    }

    /// Reopens an existing on-disk row store from its page file and a row
    /// index recorded in a checkpoint.
    ///
    /// The index is the store's only non-derivable in-memory state, so
    /// recovery hands it back as `(row id, first page, byte length)` entries —
    /// exactly what [`RowStore::row_entries`] exported at checkpoint time.
    /// Entries that point past the end of the file are rejected as corruption
    /// (a torn file can be shorter than the checkpoint remembers).
    pub fn open_existing<I>(path: PathBuf, page_size: usize, entries: I) -> Result<Self>
    where
        I: IntoIterator<Item = (usize, usize, usize)>,
    {
        let file = PagedFile::open_existing(&path, page_size)?;
        let mut index = BTreeMap::new();
        for (id, first_page, len) in entries {
            // Empty rows still occupy one (empty) page on disk.
            let pages_needed = len.div_ceil(page_size).max(1);
            // The entry comes from a checkpoint: its sum may not even fit.
            let end = first_page.checked_add(pages_needed);
            if end.is_none_or(|end| end > file.num_pages()) {
                return Err(FsmError::corrupt_artifact(
                    crate::paged::artifact_name(&path),
                    format!(
                        "row {id} needs pages {first_page}..{} but the file has only {}",
                        first_page.saturating_add(pages_needed),
                        file.num_pages()
                    ),
                ));
            }
            index.insert(id, (first_page, len));
        }
        Ok(Self {
            inner: Inner::Disk {
                _tempdir: None,
                file,
                index,
            },
            page_size,
        })
    }

    /// Returns `true` if the rows are kept in main memory.
    pub fn is_memory_resident(&self) -> bool {
        matches!(self.inner, Inner::Memory { .. })
    }

    /// Exports the disk index as `(row id, first page, byte length)` entries
    /// in ascending row order — the metadata a checkpoint must persist to
    /// reopen this store via [`RowStore::open_existing`].
    ///
    /// Returns `None` for the memory backend, which has no durable form.
    pub fn row_entries(&self) -> Option<Vec<(usize, usize, usize)>> {
        match &self.inner {
            Inner::Memory { .. } => None,
            Inner::Disk { index, .. } => Some(
                index
                    .iter()
                    .map(|(&id, &(first_page, len))| (id, first_page, len))
                    .collect(),
            ),
        }
    }

    /// Forces all pages of the disk backend to stable storage, returning the
    /// number of `fsync` system calls issued (zero for the memory backend).
    pub fn sync_all(&mut self) -> Result<u64> {
        match &mut self.inner {
            Inner::Memory { .. } => Ok(0),
            Inner::Disk { file, .. } => {
                let before = file.fsyncs();
                file.sync_all()?;
                Ok(file.fsyncs() - before)
            }
        }
    }

    /// Verifies the checksum of every on-disk page (no-op for the memory
    /// backend).  The error names the first bad page and its file.
    pub fn verify_pages(&mut self) -> Result<()> {
        match &mut self.inner {
            Inner::Memory { .. } => Ok(()),
            Inner::Disk { file, .. } => file.verify_all_pages(),
        }
    }

    /// Writes (or overwrites) row `id`.
    ///
    /// The disk backend is append-only between [`RowStore::rewrite_all`]
    /// calls: overwriting a row appends a fresh copy and repoints the index,
    /// mirroring how the DSMatrix rewrites rows on a window slide rather than
    /// patching bits in place.
    pub fn put_row(&mut self, id: usize, bytes: &[u8]) -> Result<()> {
        self.put_rows([(id, bytes)])
    }

    /// Writes (or overwrites) every `(row id, payload)` of `rows`, in order —
    /// the one write body behind [`RowStore::put_row`],
    /// [`RowStore::rewrite_all`] and a window segment's push.
    ///
    /// On the disk backend each row starts on a page boundary (an empty row
    /// still occupies one page) and is zero-padded to the next; the rows are
    /// staged in that layout and appended a run at a time — one data write
    /// and one sidecar write per run of up to 64 KiB, so a window segment is
    /// one run.  When the call returns every page has been handed
    /// to the operating system.  Should a write fail, rows of earlier runs
    /// stay readable and no row of the failed run is indexed.
    pub fn put_rows<I, B>(&mut self, rows: I) -> Result<()>
    where
        I: IntoIterator<Item = (usize, B)>,
        B: AsRef<[u8]>,
    {
        match &mut self.inner {
            Inner::Memory { rows: map } => {
                for (id, bytes) in rows {
                    map.insert(id, bytes.as_ref().to_vec());
                }
                Ok(())
            }
            Inner::Disk { file, index, .. } => {
                let page_size = self.page_size;
                let rows = rows.into_iter();
                // Most rows fit one page; larger ones grow the buffer.
                let mut stage: Vec<u8> = Vec::with_capacity(
                    STAGE_BYTES.min(rows.size_hint().0.saturating_mul(page_size)),
                );
                // Index entries of the staged run, published once it is on
                // disk: (row id, page offset within the run, byte length).
                let mut staged: Vec<(usize, usize, usize)> = Vec::new();
                let mut flush = |stage: &mut Vec<u8>, staged: &mut Vec<(usize, usize, usize)>| {
                    let first_page = file.append_pages(stage)?;
                    for &(id, page, len) in staged.iter() {
                        index.insert(id, (first_page + page, len));
                    }
                    stage.clear();
                    staged.clear();
                    Ok::<(), FsmError>(())
                };
                for (id, bytes) in rows {
                    let bytes = bytes.as_ref();
                    staged.push((id, stage.len() / page_size, bytes.len()));
                    stage.extend_from_slice(bytes);
                    let pages = bytes.len().div_ceil(page_size).max(1);
                    stage.resize(stage.len() - bytes.len() + pages * page_size, 0);
                    if stage.len() >= STAGE_BYTES {
                        flush(&mut stage, &mut staged)?;
                    }
                }
                flush(&mut stage, &mut staged)
            }
        }
    }

    /// Reads row `id` back.
    pub fn get_row(&mut self, id: usize) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.get_row_into(id, &mut out)?;
        Ok(out)
    }

    /// Reads row `id` into `out`, clearing and reusing its buffer (the
    /// allocation-free counterpart of [`RowStore::get_row`] for read paths
    /// that scan many rows).
    pub fn get_row_into(&mut self, id: usize, out: &mut Vec<u8>) -> Result<()> {
        out.clear();
        match &mut self.inner {
            Inner::Memory { rows } => {
                let row = rows
                    .get(&id)
                    .ok_or_else(|| FsmError::corrupt(format!("row {id} not present")))?;
                out.extend_from_slice(row);
                Ok(())
            }
            Inner::Disk { file, index, .. } => {
                let &(first_page, len) = index
                    .get(&id)
                    .ok_or_else(|| FsmError::corrupt(format!("row {id} not present")))?;
                // The row's pages land in `out` itself, padding included;
                // the padding is cut off once every page has verified, and
                // a page that does not leaves `out` empty.
                let page_size = self.page_size;
                out.resize(len.div_ceil(page_size) * page_size, 0);
                for (page, buf) in out.chunks_exact_mut(page_size).enumerate() {
                    if let Err(err) = file.read_page_into(first_page + page, buf) {
                        out.clear();
                        return Err(err);
                    }
                }
                out.truncate(len);
                Ok(())
            }
        }
    }

    /// Returns `true` if row `id` exists.
    pub fn contains_row(&self, id: usize) -> bool {
        match &self.inner {
            Inner::Memory { rows } => rows.contains_key(&id),
            Inner::Disk { index, .. } => index.contains_key(&id),
        }
    }

    /// Iterates the stored row ids in ascending order (reads only the
    /// in-memory index, never the payload).
    pub fn row_ids(&self) -> impl Iterator<Item = usize> + '_ {
        let ids: Vec<usize> = match &self.inner {
            Inner::Memory { rows } => rows.keys().copied().collect(),
            Inner::Disk { index, .. } => index.keys().copied().collect(),
        };
        ids.into_iter()
    }

    /// Number of distinct rows stored.
    pub fn num_rows(&self) -> usize {
        match &self.inner {
            Inner::Memory { rows } => rows.len(),
            Inner::Disk { index, .. } => index.len(),
        }
    }

    /// Replaces the entire contents with `rows` (id, payload), compacting the
    /// disk file.  This is the window-slide path of the disk-backed
    /// structures.
    pub fn rewrite_all<'a, I>(&mut self, rows: I) -> Result<()>
    where
        I: IntoIterator<Item = (usize, &'a [u8])>,
    {
        match &mut self.inner {
            Inner::Memory { rows: map } => map.clear(),
            Inner::Disk { file, index, .. } => {
                file.clear()?;
                index.clear();
            }
        }
        self.put_rows(rows)
    }

    /// Bytes held in main memory by this store.
    ///
    /// For the disk backend this is only the (small) row index plus the
    /// page file's in-memory checksum table (4 B per page) — the payload
    /// lives on disk, which is exactly the distinction the paper's space
    /// experiment draws.
    pub fn resident_bytes(&self) -> usize {
        match &self.inner {
            Inner::Memory { rows } => rows
                .values()
                .map(|r| r.capacity() + std::mem::size_of::<usize>() * 2)
                .sum(),
            Inner::Disk { file, index, .. } => {
                index.len() * std::mem::size_of::<(usize, usize, usize)>() + file.resident_bytes()
            }
        }
    }

    /// Bytes held on disk by this store (zero for the memory backend).
    pub fn on_disk_bytes(&self) -> u64 {
        match &self.inner {
            Inner::Memory { .. } => 0,
            Inner::Disk { file, .. } => file.on_disk_bytes(),
        }
    }
}

impl std::fmt::Debug for RowStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowStore")
            .field(
                "backend",
                &if self.is_memory_resident() {
                    "memory"
                } else {
                    "disk"
                },
            )
            .field("rows", &self.num_rows())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backends() -> Vec<StorageBackend> {
        vec![StorageBackend::Memory, StorageBackend::DiskTemp]
    }

    #[test]
    fn put_get_roundtrip_on_all_backends() {
        for backend in backends() {
            let mut store = RowStore::with_page_size(backend, 16).unwrap();
            store.put_row(0, b"hello world, this spans pages").unwrap();
            store.put_row(7, b"").unwrap();
            store.put_row(2, &[42u8; 100]).unwrap();

            assert_eq!(store.get_row(0).unwrap(), b"hello world, this spans pages");
            assert_eq!(store.get_row(7).unwrap(), b"");
            assert_eq!(store.get_row(2).unwrap(), vec![42u8; 100]);
            assert_eq!(store.num_rows(), 3);
            assert!(store.contains_row(7));
            assert!(!store.contains_row(5));
            assert!(store.get_row(5).is_err());
        }
    }

    #[test]
    fn overwriting_a_row_returns_latest_value() {
        for backend in backends() {
            let mut store = RowStore::with_page_size(backend, 8).unwrap();
            store.put_row(1, b"old").unwrap();
            store.put_row(1, b"newer value").unwrap();
            assert_eq!(store.get_row(1).unwrap(), b"newer value");
            assert_eq!(store.num_rows(), 1);
        }
    }

    #[test]
    fn rewrite_all_replaces_contents() {
        for backend in backends() {
            let mut store = RowStore::with_page_size(backend, 8).unwrap();
            store.put_row(0, b"aaaa").unwrap();
            store.put_row(1, b"bbbb").unwrap();
            let rows: Vec<(usize, &[u8])> = vec![(3, b"cc"), (4, b"dddddddddddd")];
            store.rewrite_all(rows).unwrap();
            assert!(!store.contains_row(0));
            assert_eq!(store.get_row(3).unwrap(), b"cc");
            assert_eq!(store.get_row(4).unwrap(), b"dddddddddddd");
            assert_eq!(store.num_rows(), 2);
        }
    }

    #[test]
    fn rows_are_page_aligned_whether_written_singly_in_bulk_or_in_several_runs() {
        // 80 rows of 1000 bytes at 64-byte pages are 80 KiB of page images:
        // more than one staged run.  The file must be the same row-by-row
        // layout — each row from a page boundary, zero-padded, an empty row
        // one empty page — whichever write call produced it.
        let page_size = 64usize;
        let payload = |id: usize| -> Vec<u8> {
            match id % 5 {
                0 => Vec::new(),
                _ => (0..1000).map(|b| (b * 31 + id) as u8).collect(),
            }
        };
        let ids: Vec<usize> = (0..80).rev().collect();
        let mut expected = Vec::new();
        for &id in &ids {
            let bytes = payload(id);
            let pages = bytes.len().div_ceil(page_size).max(1);
            let start = expected.len();
            expected.extend_from_slice(&bytes);
            expected.resize(start + pages * page_size, 0);
        }
        assert!(
            expected.len() > STAGE_BYTES,
            "the bulk write must span runs"
        );

        let dir = TempDir::new("rowstore-layout").unwrap();
        let rows: Vec<(usize, Vec<u8>)> = ids.iter().map(|&id| (id, payload(id))).collect();
        type Write = fn(&mut RowStore, &[(usize, Vec<u8>)]);
        let write: [(&str, Write); 3] = [
            ("put_row", |store, rows| {
                for (id, bytes) in rows {
                    store.put_row(*id, bytes).unwrap();
                }
            }),
            ("put_rows", |store, rows| {
                store.put_rows(rows.iter().map(|(id, b)| (*id, b))).unwrap();
            }),
            ("rewrite_all", |store, rows| {
                store.put_row(999, b"replaced by the rewrite").unwrap();
                store
                    .rewrite_all(rows.iter().map(|(id, b)| (*id, b.as_slice())))
                    .unwrap();
            }),
        ];
        for (name, write) in write {
            let path = dir.file(&format!("{name}.pages"));
            let mut store =
                RowStore::with_page_size(StorageBackend::DiskAt(path.clone()), page_size).unwrap();
            write(&mut store, &rows);
            assert_eq!(std::fs::read(&path).unwrap(), expected, "{name}");
            assert_eq!(store.num_rows(), ids.len(), "{name}");
            for &id in &ids {
                assert_eq!(store.get_row(id).unwrap(), payload(id), "{name}: row {id}");
            }
            store.verify_pages().unwrap();
            // Reopened from its exported index, the file serves the same rows.
            let entries = store.row_entries().unwrap();
            drop(store);
            let mut reopened = RowStore::open_existing(path, page_size, entries).unwrap();
            for &id in &ids {
                assert_eq!(
                    reopened.get_row(id).unwrap(),
                    payload(id),
                    "{name}: row {id}"
                );
            }
        }
    }

    #[test]
    fn disk_backend_keeps_payload_out_of_memory() {
        let mut store = RowStore::with_page_size(StorageBackend::DiskTemp, 64).unwrap();
        store.put_row(0, &[1u8; 10_000]).unwrap();
        assert!(store.resident_bytes() < 1_000, "only the index is resident");
        assert!(store.on_disk_bytes() >= 10_000);
        assert!(!store.is_memory_resident());
    }

    #[test]
    fn memory_backend_reports_resident_payload() {
        let mut store = RowStore::open(StorageBackend::Memory).unwrap();
        store.put_row(0, &[1u8; 10_000]).unwrap();
        assert!(store.resident_bytes() >= 10_000);
        assert_eq!(store.on_disk_bytes(), 0);
        assert!(store.is_memory_resident());
    }

    #[test]
    fn open_existing_restores_rows_from_exported_index() {
        let dir = TempDir::new("rowstore-reopen").unwrap();
        let path = dir.file("rows.pages");
        let entries = {
            let mut store =
                RowStore::with_page_size(StorageBackend::DiskAt(path.clone()), 16).unwrap();
            store.put_row(0, b"hello world, this spans pages").unwrap();
            store.put_row(7, b"").unwrap();
            store.sync_all().unwrap();
            store.row_entries().unwrap()
        };
        let mut reopened = RowStore::open_existing(path, 16, entries).unwrap();
        assert_eq!(
            reopened.get_row(0).unwrap(),
            b"hello world, this spans pages"
        );
        assert_eq!(reopened.get_row(7).unwrap(), b"");
        reopened.verify_pages().unwrap();
    }

    #[test]
    fn open_existing_rejects_out_of_range_entries() {
        let dir = TempDir::new("rowstore-reopen").unwrap();
        let path = dir.file("rows.pages");
        {
            let mut store =
                RowStore::with_page_size(StorageBackend::DiskAt(path.clone()), 16).unwrap();
            store.put_row(0, b"short").unwrap();
            store.sync_all().unwrap();
        }
        // Claim a row that needs more pages than the file holds — and one
        // whose first page a hostile checkpoint put where the sum overflows.
        for entry in [(0, 0, 64), (0, usize::MAX, 5), (0, usize::MAX - 1, 64)] {
            let err = RowStore::open_existing(path.clone(), 16, vec![entry]).unwrap_err();
            assert!(
                matches!(err, FsmError::CorruptArtifact { .. })
                    && err.to_string().contains("row 0"),
                "{entry:?}: unexpected {err}"
            );
        }
    }

    #[test]
    fn memory_backend_has_no_durable_index() {
        let store = RowStore::open(StorageBackend::Memory).unwrap();
        assert!(store.row_entries().is_none());
    }

    #[test]
    fn explicit_disk_location() {
        let dir = TempDir::new("rowstore-at").unwrap();
        let path = dir.file("explicit/rows.pages");
        let mut store = RowStore::with_page_size(StorageBackend::DiskAt(path.clone()), 32).unwrap();
        store.put_row(0, b"persisted").unwrap();
        assert!(path.exists());
        assert_eq!(store.get_row(0).unwrap(), b"persisted");
    }
}
