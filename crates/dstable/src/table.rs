//! DSTable implementation.
//!
//! # The table file
//!
//! The table's entries are one image of packed rows: row `i`'s entries
//! (8 B each: the next item's row, then its column, both `u32` LE; row
//! `u32::MAX` marks a transaction's last item) start at byte
//! `8 × Σ_{j<i} len_j`, where `len_j` — row `j`'s entry count — is the last
//! of its boundary values.  Those boundaries are the `m × w` values the
//! table keeps in memory anyway, so the image carries no index and no
//! header: its size is exactly 8 B per entry.  Each row's CRC-32 is held in
//! memory beside its boundaries and checked on every read of the row.
//!
//! On the memory backend the image is a `Vec<u8>`; on the disk backends it
//! is the file `dstable.rows`, created new in the backend's directory, and
//! no copy of it stays in memory.  Every batch rewrites the image whole —
//! one positional write at offset 0 plus a truncation to its new length —
//! and a row is read with one positional read of its byte range.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::path::PathBuf;

use fsm_fptree::ProjectedDb;
use fsm_storage::positional::{annotate, artifact_name, read_exact_at, write_all_at};
use fsm_storage::{crc32, StorageBackend, TempDir};
use fsm_stream::{SlideOutcome, SlidingWindow, WindowConfig};
use fsm_types::{Batch, EdgeId, FsmError, Result, Support};

/// Construction options for a [`DsTable`].
#[derive(Debug, Clone, Default)]
pub struct DsTableConfig {
    /// Sliding-window configuration (`w` batches).
    pub window: WindowConfig,
    /// Where the entry rows are stored: in memory, or in the file
    /// `dstable.rows` created new in a temporary or the given directory.
    pub backend: StorageBackend,
    /// Expected number of domain items (rows).
    pub expected_edges: usize,
}

/// One table entry: the location of the entry for the next item of the same
/// transaction, or `None` for the transaction's last item.
type Entry = Option<(u32, u32)>;

const ENTRY_BYTES: usize = 8;
const NONE_ROW: u32 = u32::MAX;

/// Name of the table file inside a disk backend's directory.
const TABLE_FILE: &str = "dstable.rows";

fn encode_row(entries: &[Entry], out: &mut Vec<u8>) {
    for entry in entries {
        let (row, col) = entry.unwrap_or((NONE_ROW, 0));
        out.extend_from_slice(&row.to_le_bytes());
        out.extend_from_slice(&col.to_le_bytes());
    }
}

fn decode_row(bytes: &[u8]) -> Vec<Entry> {
    bytes
        .chunks_exact(ENTRY_BYTES)
        .map(|chunk| {
            let row = u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes"));
            let col = u32::from_le_bytes(chunk[4..].try_into().expect("4 bytes"));
            (row != NONE_ROW).then_some((row, col))
        })
        .collect()
}

/// Entry count of a row: the last of its cumulative boundary values.
fn row_len(bounds: &[usize]) -> usize {
    bounds.last().copied().unwrap_or(0)
}

/// Where the table's packed rows live.
enum Image {
    Memory(Vec<u8>),
    Disk {
        file: File,
        path: PathBuf,
        /// Bytes in the file: the length of the last image written.
        len: u64,
        /// Keeps a temporary directory alive for the table's lifetime.
        _tempdir: Option<TempDir>,
    },
}

impl Image {
    fn open(backend: StorageBackend) -> Result<Self> {
        let (dir, tempdir) = match backend {
            StorageBackend::Memory => return Ok(Self::Memory(Vec::new())),
            StorageBackend::DiskTemp => {
                let tempdir = TempDir::new("dstable")?;
                (tempdir.path().to_path_buf(), Some(tempdir))
            }
            StorageBackend::DiskAt(dir) => {
                std::fs::create_dir_all(&dir)?;
                (dir, None)
            }
        };
        let path = dir.join(TABLE_FILE);
        // Never clobber a table another run left: nothing reopens one.
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|err| annotate(err, "create DSTable file", &path))?;
        Ok(Self::Disk {
            file,
            path,
            len: 0,
            _tempdir: tempdir,
        })
    }

    /// Replaces the whole image with `bytes`.
    fn replace(&mut self, bytes: Vec<u8>) -> Result<()> {
        match self {
            Self::Memory(image) => *image = bytes,
            Self::Disk {
                file, path, len, ..
            } => {
                write_all_at(file, &bytes, 0)
                    .and_then(|()| file.set_len(bytes.len() as u64))
                    .map_err(|err| annotate(err, "write DSTable file", path))?;
                *len = bytes.len() as u64;
            }
        }
        Ok(())
    }

    /// The `len` bytes at byte `offset`: borrowed from the memory image, or
    /// fetched from the file with one positional read.
    fn read(&self, offset: usize, len: usize) -> Result<Cow<'_, [u8]>> {
        match self {
            Self::Memory(image) => Ok(Cow::Borrowed(&image[offset..offset + len])),
            Self::Disk { file, path, .. } => {
                let mut buf = vec![0u8; len];
                read_exact_at(file, &mut buf, offset as u64)
                    .map_err(|err| annotate(err, "read DSTable file", path))?;
                Ok(Cow::Owned(buf))
            }
        }
    }

    fn name(&self) -> Cow<'_, str> {
        match self {
            Self::Memory(_) => Cow::Borrowed("the in-memory DSTable image"),
            Self::Disk { path, .. } => artifact_name(path),
        }
    }
}

/// The Data Stream Table of the paper (§2.2).
pub struct DsTable {
    image: Image,
    /// CRC-32 of each row's packed entries, checked on every read.
    crcs: Vec<u32>,
    /// Per-row cumulative batch boundaries — the `m × w` values the paper
    /// calls out as the DSTable's bookkeeping overhead.  The last one is the
    /// row's entry count, which also locates the row in the image.
    boundaries: Vec<Vec<usize>>,
    window: SlidingWindow,
    num_items: usize,
}

impl DsTable {
    /// Creates an empty table.
    pub fn new(config: DsTableConfig) -> Result<Self> {
        Ok(Self {
            image: Image::open(config.backend)?,
            crcs: vec![crc32(&[]); config.expected_edges],
            boundaries: vec![Vec::new(); config.expected_edges],
            window: SlidingWindow::new(config.window),
            num_items: config.expected_edges,
        })
    }

    /// Number of rows (domain items).
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of transactions in the window.
    pub fn num_transactions(&self) -> usize {
        self.window.total_transactions()
    }

    /// Number of batches currently inside the window.
    pub fn num_batches(&self) -> usize {
        self.window.num_batches()
    }

    /// Returns `true` if the entry rows are spilled to disk.
    pub fn is_disk_backed(&self) -> bool {
        matches!(self.image, Image::Disk { .. })
    }

    /// Ingests one batch, sliding the window if it is full.
    pub fn ingest_batch(&mut self, batch: &Batch) -> Result<SlideOutcome> {
        // Grow the domain if needed.  A new row had no entry in any batch
        // already in the window, so it starts with one zero boundary per
        // batch the other rows have recorded.
        let max_edge = batch
            .iter()
            .flat_map(|t| t.iter())
            .map(|e| e.index() + 1)
            .max()
            .unwrap_or(0);
        if max_edge > self.num_items {
            self.num_items = max_edge;
            let recorded = self.window.num_batches();
            self.boundaries.resize(self.num_items, vec![0; recorded]);
            self.crcs.resize(self.num_items, crc32(&[]));
        }

        // Load every row into memory for the update.
        let mut rows: Vec<Vec<Entry>> = (0..self.num_items)
            .map(|idx| self.read_row(idx))
            .collect::<Result<_>>()?;
        let outcome = self.window.push(batch.id, batch.len());

        // Evict the oldest batch if the window slid: drop each row's leading
        // entries and shift every surviving pointer's column by the number of
        // entries dropped from its target row.
        if outcome.evicted.is_some() {
            let dropped: Vec<usize> = self.boundaries.iter().map(|b| b[0]).collect();
            for (idx, row) in rows.iter_mut().enumerate() {
                row.drain(..dropped[idx]);
                for (r, c) in row.iter_mut().flatten() {
                    *c -= dropped[*r as usize] as u32;
                }
            }
            for bounds in &mut self.boundaries {
                let first = bounds.remove(0);
                for b in bounds.iter_mut() {
                    *b -= first;
                }
            }
        }

        // Append the new batch's transactions.
        for transaction in batch.iter() {
            let items = transaction.edges();
            if items.is_empty() {
                continue;
            }
            // Entry positions: each item's entry lands at the current end of
            // its row.
            let positions: Vec<u32> = items.iter().map(|e| rows[e.index()].len() as u32).collect();
            for (i, &item) in items.iter().enumerate() {
                let next = if i + 1 < items.len() {
                    Some((items[i + 1].0, positions[i + 1]))
                } else {
                    None
                };
                rows[item.index()].push(next);
            }
        }

        // Record the new per-row boundary (cumulative entry count), and
        // rewrite the table whole.
        let entries: usize = rows.iter().map(Vec::len).sum();
        let mut image = Vec::with_capacity(entries * ENTRY_BYTES);
        for (idx, row) in rows.iter().enumerate() {
            self.boundaries[idx].push(row.len());
            let start = image.len();
            encode_row(row, &mut image);
            self.crcs[idx] = crc32(&image[start..]);
        }
        self.image.replace(image)?;
        Ok(outcome)
    }

    /// Support of an item: the number of entries in its row.
    pub fn support(&self, item: EdgeId) -> Result<Support> {
        if item.index() >= self.num_items {
            return Ok(0);
        }
        Ok(self.read_row(item.index())?.len() as Support)
    }

    /// Supports of every item in canonical order.
    pub fn singleton_supports(&self) -> Result<Vec<(EdgeId, Support)>> {
        (0..self.num_items)
            .map(|idx| {
                let item = EdgeId::new(idx as u32);
                self.support(item).map(|s| (item, s))
            })
            .collect()
    }

    /// Builds the `{pivot}`-projected database by following each pivot entry's
    /// pointer chain ("extract relevant transactions from the DSTable").
    pub fn project(&self, pivot: EdgeId) -> Result<ProjectedDb> {
        if pivot.index() >= self.num_items {
            return Ok(ProjectedDb::new());
        }
        let pivot_row = self.read_row(pivot.index())?;
        // Cache rows already read while chasing pointers.
        let mut cache: BTreeMap<u32, Vec<Entry>> = BTreeMap::new();
        let mut suffixes: Vec<Vec<EdgeId>> = Vec::new();
        for entry in &pivot_row {
            let mut suffix = Vec::new();
            let mut cursor = *entry;
            while let Some((row, col)) = cursor {
                suffix.push(EdgeId::new(row));
                if let std::collections::btree_map::Entry::Vacant(e) = cache.entry(row) {
                    let loaded = if (row as usize) < self.num_items {
                        self.read_row(row as usize)?
                    } else {
                        Vec::new()
                    };
                    e.insert(loaded);
                }
                let row_entries = &cache[&row];
                cursor = *row_entries.get(col as usize).ok_or_else(|| {
                    FsmError::corrupt(format!(
                        "dangling DSTable pointer to row {row} column {col}"
                    ))
                })?;
            }
            if !suffix.is_empty() {
                suffixes.push(suffix);
            }
        }
        // Merge identical suffixes into weighted entries.
        suffixes.sort();
        let mut merged = ProjectedDb::new();
        for suffix in suffixes {
            match merged.last_mut() {
                Some((prev, count)) if *prev == suffix => *count += 1,
                _ => merged.push((suffix, 1)),
            }
        }
        Ok(merged)
    }

    /// Bytes resident in memory: the `m × w` boundary values, the per-row
    /// CRCs and window bookkeeping, plus (for the memory backend) the table
    /// image.
    pub fn resident_bytes(&self) -> usize {
        let boundary_bytes: usize = self
            .boundaries
            .iter()
            .map(|b| b.len() * std::mem::size_of::<usize>())
            .sum();
        let crc_bytes = self.crcs.len() * std::mem::size_of::<u32>();
        let bookkeeping = self.window.num_batches() * std::mem::size_of::<(u64, usize)>();
        let image_bytes = match &self.image {
            Image::Memory(image) => image.capacity(),
            Image::Disk { .. } => 0,
        };
        boundary_bytes + crc_bytes + bookkeeping + image_bytes
    }

    /// Bytes on disk: 8 per entry on the disk backends, zero for the
    /// memory backend.
    pub fn on_disk_bytes(&self) -> u64 {
        match &self.image {
            Image::Memory(_) => 0,
            Image::Disk { len, .. } => *len,
        }
    }

    /// Reads row `idx` — its byte range of the image, located by the rows'
    /// entry counts — and decodes it once its CRC has checked.
    fn read_row(&self, idx: usize) -> Result<Vec<Entry>> {
        let start: usize = self.boundaries[..idx].iter().map(|b| row_len(b)).sum();
        let len = row_len(&self.boundaries[idx]);
        let bytes = self.image.read(start * ENTRY_BYTES, len * ENTRY_BYTES)?;
        let (expected, actual) = (self.crcs[idx], crc32(&bytes));
        if actual != expected {
            return Err(FsmError::corrupt_artifact(
                format!("row {idx} of {}", self.image.name()),
                format!("checksum mismatch (stored {expected:#010x}, computed {actual:#010x})"),
            ));
        }
        Ok(decode_row(&bytes))
    }
}

impl std::fmt::Debug for DsTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DsTable")
            .field("items", &self.num_items)
            .field("transactions", &self.num_transactions())
            .field("batches", &self.num_batches())
            .field("disk_backed", &self.is_disk_backed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsm_types::Transaction;

    const BACKENDS: [StorageBackend; 2] = [StorageBackend::Memory, StorageBackend::DiskTemp];

    fn tx(raw: &[u32]) -> Transaction {
        Transaction::from_raw(raw.iter().copied())
    }

    fn paper_batches() -> Vec<Batch> {
        let e = tx;
        vec![
            Batch::from_transactions(0, vec![e(&[2, 3, 5]), e(&[0, 4, 5]), e(&[0, 2, 5])]),
            Batch::from_transactions(1, vec![e(&[0, 2, 3, 5]), e(&[0, 3, 4, 5]), e(&[0, 1, 2])]),
            Batch::from_transactions(2, vec![e(&[0, 2, 5]), e(&[0, 2, 3, 5]), e(&[1, 2, 3])]),
        ]
    }

    fn table_with(backend: StorageBackend, w: usize, expected_edges: usize) -> DsTable {
        DsTable::new(DsTableConfig {
            window: WindowConfig::new(w).unwrap(),
            backend,
            expected_edges,
        })
        .unwrap()
    }

    fn table(backend: StorageBackend, w: usize) -> DsTable {
        table_with(backend, w, 6)
    }

    fn suffix_strings(db: &ProjectedDb) -> Vec<(String, Support)> {
        db.iter()
            .map(|(items, c)| (items.iter().map(|e| e.symbol()).collect::<String>(), *c))
            .collect()
    }

    #[test]
    fn supports_match_example_5_after_slide() {
        for backend in BACKENDS {
            let mut t = table(backend, 2);
            for batch in paper_batches() {
                t.ingest_batch(&batch).unwrap();
            }
            let supports = t.singleton_supports().unwrap();
            let expected = [5u64, 2, 5, 4, 1, 4];
            for (idx, &want) in expected.iter().enumerate() {
                assert_eq!(supports[idx].1, want, "support of item {idx}");
            }
            assert_eq!(t.num_transactions(), 6);
        }
    }

    #[test]
    fn projection_matches_example_2() {
        for backend in BACKENDS {
            let mut t = table(backend, 2);
            for batch in paper_batches() {
                t.ingest_batch(&batch).unwrap();
            }
            let as_strings = suffix_strings(&t.project(EdgeId::new(0)).unwrap());
            assert!(as_strings.contains(&("cdf".to_string(), 2)));
            assert!(as_strings.contains(&("def".to_string(), 1)));
            assert!(as_strings.contains(&("bc".to_string(), 1)));
            assert!(as_strings.contains(&("cf".to_string(), 1)));
            let total: Support = as_strings.iter().map(|(_, c)| c).sum();
            assert_eq!(total, 5);

            let as_strings = suffix_strings(&t.project(EdgeId::new(1)).unwrap());
            assert_eq!(as_strings.len(), 2);
            assert!(as_strings.contains(&("c".to_string(), 1)));
            assert!(as_strings.contains(&("cd".to_string(), 1)));

            // The largest item has no suffix.
            assert!(t.project(EdgeId::new(5)).unwrap().is_empty());
            // Unknown items project to nothing.
            assert!(t.project(EdgeId::new(99)).unwrap().is_empty());
        }
    }

    #[test]
    fn pointer_chains_survive_window_slides() {
        // Slide several times with a tiny window and verify the chains still
        // resolve (no dangling pointers) and supports stay correct.
        for backend in BACKENDS {
            let mut t = table(backend, 1);
            for batch in paper_batches() {
                t.ingest_batch(&batch).unwrap();
            }
            // Window = E7..E9 = {a,c,f},{a,c,d,f},{b,c,d}.
            assert_eq!(t.support(EdgeId::new(0)).unwrap(), 2);
            assert_eq!(t.support(EdgeId::new(2)).unwrap(), 3);
            assert_eq!(t.support(EdgeId::new(4)).unwrap(), 0);
            let as_strings = suffix_strings(&t.project(EdgeId::new(0)).unwrap());
            assert!(as_strings.iter().any(|(s, _)| s == "cf"));
            assert!(as_strings.iter().any(|(s, _)| s == "cdf"));
        }
    }

    #[test]
    fn new_items_in_later_batches_grow_the_table() {
        for backend in BACKENDS {
            let mut t = table_with(backend, 3, 0);
            t.ingest_batch(&Batch::from_transactions(0, vec![tx(&[0, 1])]))
                .unwrap();
            t.ingest_batch(&Batch::from_transactions(1, vec![tx(&[3])]))
                .unwrap();
            assert_eq!(t.num_items(), 4);
            assert_eq!(t.support(EdgeId::new(3)).unwrap(), 1);
            assert_eq!(t.support(EdgeId::new(2)).unwrap(), 0);
        }
    }

    #[test]
    fn an_item_first_seen_in_a_sliding_batch_gets_a_row() {
        // Item 2 first appears in the batch that slides batch 0 out: its
        // new row must carry a boundary for batch 1 for the eviction to drop.
        for backend in BACKENDS {
            let mut t = table_with(backend, 2, 0);
            for (id, items) in [&[0u32, 1][..], &[0], &[2]].into_iter().enumerate() {
                t.ingest_batch(&Batch::from_transactions(id as u64, vec![tx(items)]))
                    .unwrap();
            }
            let supports: Vec<Support> = t
                .singleton_supports()
                .unwrap()
                .into_iter()
                .map(|(_, s)| s)
                .collect();
            assert_eq!(supports, [1, 0, 1]);
        }
    }

    #[test]
    fn a_slide_keeps_the_entries_of_an_item_that_arrived_after_the_evicted_batch() {
        // Item 1 first appears in batch 1; evicting batch 0 must drop none
        // of its entries.
        for backend in BACKENDS {
            let mut t = table_with(backend, 2, 0);
            let batches = [vec![tx(&[0])], vec![tx(&[0, 1]), tx(&[1])], vec![tx(&[0])]];
            for (id, transactions) in batches.into_iter().enumerate() {
                t.ingest_batch(&Batch::from_transactions(id as u64, transactions))
                    .unwrap();
            }
            assert_eq!(t.support(EdgeId::new(0)).unwrap(), 2);
            assert_eq!(t.support(EdgeId::new(1)).unwrap(), 2);
            assert_eq!(
                suffix_strings(&t.project(EdgeId::new(0)).unwrap()),
                [("b".to_string(), 1)]
            );
        }
    }

    #[test]
    fn disk_backend_spills_entries() {
        let mut memory = table(StorageBackend::Memory, 2);
        let mut t = table(StorageBackend::DiskTemp, 2);
        for batch in paper_batches() {
            memory.ingest_batch(&batch).unwrap();
            t.ingest_batch(&batch).unwrap();
        }
        assert!(t.is_disk_backed());
        assert!(!memory.is_disk_backed());
        // The file holds the packed entries and nothing else: 8 B each.
        let entries: Support = t.singleton_supports().unwrap().iter().map(|(_, s)| s).sum();
        assert_eq!(t.on_disk_bytes(), entries * ENTRY_BYTES as u64);
        assert_eq!(memory.on_disk_bytes(), 0);
        // Boundary values (m × w) stay resident — the overhead the paper
        // attributes to the DSTable — but the payload does not.
        assert!(t.resident_bytes() >= 6 * 2 * std::mem::size_of::<usize>());
        assert!(
            memory.resident_bytes() >= t.resident_bytes() + t.on_disk_bytes() as usize,
            "the disk table keeps no copy of its entries: {} resident vs {} in memory",
            t.resident_bytes(),
            memory.resident_bytes()
        );
    }

    #[test]
    fn disk_backend_keeps_payload_out_of_memory() {
        // 2 500 transactions of 4 items: 10 000 entries, 80 000 B on disk,
        // while only the 4 rows' boundaries and CRCs stay resident.
        let mut t = table_with(StorageBackend::DiskTemp, 2, 4);
        let transactions = vec![tx(&[0, 1, 2, 3]); 2_500];
        t.ingest_batch(&Batch::from_transactions(0, transactions))
            .unwrap();
        assert_eq!(t.on_disk_bytes(), 10_000 * ENTRY_BYTES as u64);
        assert!(
            t.resident_bytes() < 1_000,
            "only the boundaries and CRCs are resident: {}",
            t.resident_bytes()
        );
        assert_eq!(t.support(EdgeId::new(3)).unwrap(), 2_500);
    }

    #[test]
    fn empty_transactions_are_skipped() {
        for backend in BACKENDS {
            let mut t = table(backend, 2);
            t.ingest_batch(&Batch::from_transactions(
                0,
                vec![Transaction::new(), tx(&[1])],
            ))
            .unwrap();
            assert_eq!(t.support(EdgeId::new(1)).unwrap(), 1);
            assert_eq!(t.num_transactions(), 2);
        }
    }

    #[test]
    fn disk_at_creates_the_directory() {
        let root = TempDir::new("dstable-at").unwrap();
        let dir = root.file("nested/table");
        let mut t = table(StorageBackend::DiskAt(dir.clone()), 2);
        t.ingest_batch(&paper_batches()[0]).unwrap();
        let path = dir.join(TABLE_FILE);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), t.on_disk_bytes());
        assert_eq!(t.support(EdgeId::new(5)).unwrap(), 3);
    }

    #[test]
    fn disk_at_refuses_an_existing_table() {
        let root = TempDir::new("dstable-at").unwrap();
        let dir = root.path().to_path_buf();
        let mut t = table(StorageBackend::DiskAt(dir.clone()), 2);
        t.ingest_batch(&paper_batches()[0]).unwrap();

        // A second table in the same directory would clobber the first.
        let err = DsTable::new(DsTableConfig {
            window: WindowConfig::new(2).unwrap(),
            backend: StorageBackend::DiskAt(dir),
            expected_edges: 6,
        })
        .unwrap_err()
        .to_string();
        assert!(err.contains("create DSTable file"), "{err}");
        assert_eq!(
            t.support(EdgeId::new(5)).unwrap(),
            3,
            "the first table is intact"
        );
        assert_eq!(
            t.read_row(5).unwrap().len(),
            3,
            "the first table's file is intact"
        );
    }

    #[test]
    fn a_row_damaged_under_an_open_table_is_refused_on_read() {
        // The expected checksum of a row comes from memory — the one computed
        // when the table was written — and the row itself is always fetched
        // from the file, so damage after a clean read is still caught.
        let root = TempDir::new("dstable-damaged").unwrap();
        let mut t = table(StorageBackend::DiskAt(root.path().to_path_buf()), 2);
        for batch in paper_batches() {
            t.ingest_batch(&batch).unwrap();
        }
        let clean = suffix_strings(&t.project(EdgeId::new(0)).unwrap());
        assert!(!clean.is_empty());
        let path = root.file(TABLE_FILE);
        let pristine = std::fs::read(&path).unwrap();
        let mut damaged = pristine.clone();
        damaged[0] ^= 0x80; // the first entry of row 0
        std::fs::write(&path, &damaged).unwrap();

        assert!(t.read_row(1).is_ok(), "row 1 is untouched");
        match t.project(EdgeId::new(0)) {
            Err(FsmError::CorruptArtifact { artifact, detail }) => {
                assert_eq!(artifact, format!("row 0 of {TABLE_FILE}"));
                assert!(detail.contains("checksum mismatch"), "{detail}");
            }
            other => panic!("a damaged row 0 was read: {other:?}"),
        }
        std::fs::write(&path, &pristine).unwrap();
        assert_eq!(suffix_strings(&t.project(EdgeId::new(0)).unwrap()), clean);
    }

    #[test]
    fn every_byte_of_the_table_file_is_guarded() {
        let root = TempDir::new("dstable-flip").unwrap();
        let mut t = table(StorageBackend::DiskAt(root.path().to_path_buf()), 2);
        for batch in paper_batches() {
            t.ingest_batch(&batch).unwrap();
        }
        let path = root.file(TABLE_FILE);
        let pristine = std::fs::read(&path).unwrap();
        assert_eq!(pristine.len() as u64, t.on_disk_bytes());
        // The row owning each byte, from the rows' entry counts.
        let owners: Vec<usize> = (0..t.num_items())
            .flat_map(|idx| {
                let entries = t.support(EdgeId::new(idx as u32)).unwrap() as usize;
                std::iter::repeat_n(idx, entries * ENTRY_BYTES)
            })
            .collect();
        assert_eq!(owners.len(), pristine.len());

        for (byte, &owner) in owners.iter().enumerate() {
            let mut damaged = pristine.clone();
            damaged[byte] ^= 0x01;
            std::fs::write(&path, &damaged).unwrap();
            for idx in 0..t.num_items() {
                let read = t.read_row(idx);
                if idx != owner {
                    assert!(read.is_ok(), "byte {byte} damaged row {idx}, not {owner}");
                    continue;
                }
                match read {
                    Err(FsmError::CorruptArtifact { artifact, detail }) => {
                        assert_eq!(artifact, format!("row {owner} of {TABLE_FILE}"));
                        assert!(detail.contains("checksum mismatch"), "{detail}");
                    }
                    other => panic!("byte {byte} of row {owner}: {other:?}"),
                }
            }
        }
        std::fs::write(&path, &pristine).unwrap();
        assert_eq!(t.support(EdgeId::new(0)).unwrap(), 5);
    }
}
