//! Owned flat window rows and reusable projection scratch space.
//!
//! [`RowSnapshot`] is the crate's one owned flat-rows type: every row of one
//! window, each assembled into a [`BitVec`] of exactly the window's width.
//! It has one producer and one job: [`crate::EpochSnapshot::assemble_rows`]
//! concatenates a frozen epoch's shared segment chunks — what a snapshot
//! mine does once, up front — through [`RowSnapshot::assemble`]; reading the
//! rows back is the ordinary [`crate::WindowView`]
//! ([`crate::EpochSnapshot::view`]).
//! [`ProjectionScratch`] is the per-worker recycled buffer set the view
//! projects through, so steady-state projection allocates nothing.

use fsm_storage::BitVec;
use fsm_types::{EdgeId, Support};

const WORD_BITS: usize = 64;

/// A weighted transaction list in canonical edge order — structurally the
/// same type as `fsm_fptree::ProjectedDb`, spelled out here so the capture
/// crate does not depend on the mining crate.
pub type ProjectedRows = Vec<(Vec<EdgeId>, Support)>;

/// An immutable copy of every row of one window, each exactly
/// [`RowSnapshot::num_transactions`] bits long.
///
/// Built by [`crate::EpochSnapshot::assemble_rows`]; all access is `&self`,
/// so the rows can be shared across mining worker threads.
#[derive(Debug, Clone)]
pub struct RowSnapshot {
    rows: Vec<BitVec>,
    num_cols: usize,
}

impl RowSnapshot {
    /// The one row-assembly routine: for each of `num_items` rows, one
    /// buffer sized to `num_cols` that `fill` appends the row's chunks to
    /// (anything it leaves short is zero-filled).
    pub(crate) fn assemble<E>(
        num_items: usize,
        num_cols: usize,
        mut fill: impl FnMut(usize, &mut BitVec) -> Result<(), E>,
    ) -> Result<Self, E> {
        let mut rows = Vec::with_capacity(num_items);
        for idx in 0..num_items {
            // The row's only allocation.  The spare word is for
            // `BitVec::extend_from_bitvec`, which pushes one spill word past
            // the final length before truncating to it.
            let mut row = BitVec::zeros(num_cols + WORD_BITS);
            row.resize(0);
            fill(idx, &mut row)?;
            debug_assert!(row.len() <= num_cols);
            row.resize(num_cols);
            rows.push(row);
        }
        Ok(Self { rows, num_cols })
    }

    /// Number of rows (domain edges) captured.
    pub fn num_items(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns (window transactions) captured.
    pub fn num_transactions(&self) -> usize {
        self.num_cols
    }

    /// The row of `item`, if the snapshot has one.
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
/// `{pivot}`-projected database into `scratch`, treating bit `c + offset` of
/// every row as logical window column `c`.
pub(crate) fn project_rows_into<'a>(
    rows: &[BitVec],
    offset: usize,
    pivot: EdgeId,
    scratch: &'a mut ProjectionScratch,
) -> &'a ProjectedRows {
    scratch.reset();
    let Some(pivot_row) = rows.get(pivot.index()) else {
        return &scratch.db;
    };
    // All set bits sit at or past the dead prefix, so the translation to
    // logical columns never underflows.
    scratch
        .columns
        .extend(pivot_row.iter_ones().map(|c| c - offset));
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
            if row.get(col + offset) {
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
        project_rows_into(rows, 0, EdgeId::new(pivot), &mut scratch).clone()
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
                project_rows_into(&rows, 0, EdgeId::new(pivot), &mut scratch).clone();
            assert_eq!(through_scratch, project(&rows, pivot), "pivot {pivot}");
        }
        // Last edge projects to nothing; out-of-range pivots are empty too.
        assert!(project(&rows, 5).is_empty());
        assert!(project(&rows, 99).is_empty());
    }

    #[test]
    fn supports_match_example_5() {
        let rows = paper_rows();
        let snap = RowSnapshot::assemble(6, 6, |idx, out| {
            let mut stored = rows[idx].clone();
            if idx == 4 {
                // Row e stops after its last set bit; the routine pads it.
                stored.resize(2);
            }
            out.extend_from_bitvec(&stored);
            Ok::<(), ()>(())
        })
        .unwrap();
        let expected = [5u64, 2, 5, 4, 1, 4];
        for (idx, &want) in expected.iter().enumerate() {
            let row = snap.row(EdgeId::new(idx as u32)).unwrap();
            assert_eq!(row.count_ones(), want, "support of row {idx}");
            assert_eq!(row.len(), 6, "row {idx} is padded to the window");
        }
        assert_eq!(snap.rows(), rows.as_slice());
        assert_eq!(snap.num_items(), 6);
        assert_eq!(snap.num_transactions(), 6);
        assert!(snap.row(EdgeId::new(6)).is_none());
    }
}
