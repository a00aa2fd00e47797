//! Owned flat window rows and reusable projection scratch space.
//!
//! [`RowSnapshot`] is the crate's one owned flat-rows type: every row of one
//! window, laid out as a live view's rows are.  It has one producer and one
//! job: [`crate::EpochSnapshot::assemble_rows`] concatenates a frozen
//! epoch's shared segment chunks — what a snapshot mine does once, up front —
//! through [`fsm_storage::EpochSegment::assemble_rows`], the fill a live
//! [`crate::DsMatrix::view`] uses too; reading the rows back is the ordinary
//! [`crate::WindowView`] ([`crate::EpochSnapshot::view`]).
//! [`ProjectionScratch`] is the per-worker recycled buffer set the view
//! projects through, so steady-state projection allocates nothing.

use fsm_storage::BitVec;
use fsm_types::{EdgeId, Support};

/// A weighted transaction list in canonical edge order — structurally the
/// same type as `fsm_fptree::ProjectedDb`, spelled out here so the capture
/// crate does not depend on the mining crate.
pub type ProjectedRows = Vec<(Vec<EdgeId>, Support)>;

/// An immutable copy of every row of one window: bit `c` of a row is window
/// column `c`, a row ends where its last chunk ends, and a row no segment
/// holds is empty and unallocated (the short-row convention of
/// [`crate::WindowView`]).
///
/// Built by [`crate::EpochSnapshot::assemble_rows`]; all access is `&self`,
/// so the rows can be shared across mining worker threads.
#[derive(Debug, Clone)]
pub struct RowSnapshot {
    pub(crate) rows: Vec<BitVec>,
    pub(crate) num_cols: usize,
}

impl RowSnapshot {
    /// Number of rows (domain edges) captured.
    pub fn num_items(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns (window transactions) captured.
    pub fn num_transactions(&self) -> usize {
        self.num_cols
    }

    /// The row of `item`, if the snapshot has one (possibly shorter than the
    /// window; missing tail bits are zero).
    pub fn row(&self, item: EdgeId) -> Option<&BitVec> {
        self.rows.get(item.index())
    }

    pub(crate) fn rows(&self) -> &[BitVec] {
        &self.rows
    }

    /// Heap bytes held by the materialised rows (for working-set accounting:
    /// a snapshot keeps the whole window resident while it is alive).
    pub fn heap_bytes(&self) -> usize {
        self.rows.iter().map(BitVec::heap_bytes).sum()
    }
}

/// The projection behind [`crate::WindowView::project_into`]: build the
/// `{pivot}`-projected database into `scratch`, bit `c` of every row being
/// window column `c`.
pub(crate) fn project_rows_into<'a>(
    rows: &[BitVec],
    pivot: EdgeId,
    scratch: &'a mut ProjectionScratch,
) -> &'a ProjectedRows {
    scratch.reset();
    let Some(pivot_row) = rows.get(pivot.index()) else {
        return &scratch.db;
    };
    scratch.columns.extend(pivot_row.iter_ones());
    if scratch.columns.is_empty() {
        return &scratch.db;
    }
    for _ in 0..scratch.columns.len() {
        let mut suffix = scratch.spare.pop().unwrap_or_default();
        suffix.clear();
        scratch.suffixes.push(suffix);
    }
    // suffixes[i] collects the items of window column columns[i]; the
    // row-major sweep appends items in ascending (canonical) order.
    for (idx, row) in rows.iter().enumerate().skip(pivot.index() + 1) {
        for (slot, &col) in scratch.columns.iter().enumerate() {
            if row.get(col) {
                scratch.suffixes[slot].push(EdgeId::new(idx as u32));
            }
        }
    }
    // Merge identical suffixes into weighted entries; emptied vectors go
    // back to the spare pool for the next pivot.
    scratch.suffixes.sort();
    for suffix in scratch.suffixes.drain(..) {
        if suffix.is_empty() {
            scratch.spare.push(suffix);
            continue;
        }
        match scratch.db.last_mut() {
            Some((prev, count)) if *prev == suffix => {
                *count += 1;
                scratch.spare.push(suffix);
            }
            _ => scratch.db.push((suffix, 1)),
        }
    }
    &scratch.db
}

/// Reusable buffers for building projected databases.
///
/// One instance per mining worker: the projected database of the previous
/// pivot is dismantled into a spare pool, so steady-state projection performs
/// no heap allocation.
#[derive(Debug, Default)]
pub struct ProjectionScratch {
    /// Window columns whose pivot bit is set.
    columns: Vec<usize>,
    /// One suffix per pivot column while a projection is being built.
    suffixes: Vec<Vec<EdgeId>>,
    /// The finished projected database of the current pivot.
    db: ProjectedRows,
    /// Recycled suffix vectors.
    spare: Vec<Vec<EdgeId>>,
}

impl ProjectionScratch {
    /// Creates empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self) {
        self.columns.clear();
        for (mut suffix, _) in self.db.drain(..) {
            suffix.clear();
            self.spare.push(suffix);
        }
        for mut suffix in self.suffixes.drain(..) {
            suffix.clear();
            self.spare.push(suffix);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DsMatrix, DsMatrixConfig};
    use fsm_storage::StorageBackend;
    use fsm_stream::WindowConfig;
    use fsm_types::{Batch, Transaction};

    /// The paper's window E4..E9 (Example 1 after the slide).
    fn paper_rows() -> Vec<BitVec> {
        [
            "111110", // a
            "001001", // b
            "101111", // c
            "110011", // d
            "010000", // e
            "110110", // f
        ]
        .iter()
        .map(|r| BitVec::from_bools(r.chars().map(|c| c == '1')))
        .collect()
    }

    fn project(rows: &[BitVec], pivot: u32) -> ProjectedRows {
        let mut scratch = ProjectionScratch::new();
        project_rows_into(rows, EdgeId::new(pivot), &mut scratch).clone()
    }

    #[test]
    fn projection_matches_example_2() {
        let db = project(&paper_rows(), 0);
        let as_strings: Vec<(String, Support)> = db
            .iter()
            .map(|(items, c)| (items.iter().map(|e| e.symbol()).collect::<String>(), *c))
            .collect();
        assert!(as_strings.contains(&("cdf".to_string(), 2)));
        assert!(as_strings.contains(&("def".to_string(), 1)));
        assert!(as_strings.contains(&("bc".to_string(), 1)));
        assert!(as_strings.contains(&("cf".to_string(), 1)));
        let total: Support = db.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn scratch_is_reusable_across_pivots() {
        let rows = paper_rows();
        let mut scratch = ProjectionScratch::new();
        // Projecting twice through the same scratch matches fresh projections.
        for pivot in 0..6u32 {
            let through_scratch =
                project_rows_into(&rows, EdgeId::new(pivot), &mut scratch).clone();
            assert_eq!(through_scratch, project(&rows, pivot), "pivot {pivot}");
        }
        // Last edge projects to nothing; out-of-range pivots are empty too.
        assert!(project(&rows, 5).is_empty());
        assert!(project(&rows, 99).is_empty());
    }

    #[test]
    fn supports_match_example_5() {
        // The paper's three batches through a window of two: an epoch's
        // assembled rows are the window E4..E9, row e cut short after its
        // last chunk.
        let e = |raw: &[u32]| Transaction::from_raw(raw.iter().copied());
        let mut m = DsMatrix::new(DsMatrixConfig::new(
            WindowConfig::new(2).unwrap(),
            StorageBackend::Memory,
            6,
        ))
        .unwrap();
        for batch in [
            Batch::from_transactions(0, vec![e(&[2, 3, 5]), e(&[0, 4, 5]), e(&[0, 2, 5])]),
            Batch::from_transactions(1, vec![e(&[0, 2, 3, 5]), e(&[0, 3, 4, 5]), e(&[0, 1, 2])]),
            Batch::from_transactions(2, vec![e(&[0, 2, 5]), e(&[0, 2, 3, 5]), e(&[1, 2, 3])]),
        ] {
            m.ingest_batch(&batch).unwrap();
        }
        let snap = m.snapshot_epoch().unwrap().assemble_rows();
        let expected = [5u64, 2, 5, 4, 1, 4];
        for (idx, &want) in expected.iter().enumerate() {
            let row = snap.row(EdgeId::new(idx as u32)).unwrap();
            assert_eq!(row.count_ones(), want, "support of row {idx}");
            let mut padded = row.clone();
            padded.resize(6);
            assert_eq!(padded, paper_rows()[idx], "row {idx}");
        }
        assert_eq!(snap.row(EdgeId::new(4)).unwrap().len(), 3, "row e is short");
        assert_eq!(snap.num_items(), 6);
        assert_eq!(snap.num_transactions(), 6);
        assert!(snap.row(EdgeId::new(6)).is_none());
    }
}
