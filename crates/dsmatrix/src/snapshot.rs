//! Eager row snapshots and reusable projection scratch space.
//!
//! [`RowSnapshot`] copies every live-window row into an immutable,
//! concurrently-readable block.  It used to be the only way the parallel
//! horizontal miners could share the window; since the zero-copy
//! [`crate::WindowView`] took over as the default read surface, the eager
//! snapshot is retained as (a) the reference the view's byte-identity tests
//! compare against and (b) an owned, `'static`-friendly copy for callers
//! that need the window to outlive the matrix.  [`ProjectionScratch`] is the
//! per-worker recycled buffer set both read surfaces project through, so
//! steady-state projection allocates nothing.

use fsm_storage::{BitVec, RowRef};
use fsm_types::{EdgeId, Support};

/// A weighted transaction list in canonical edge order — structurally the
/// same type as `fsm_fptree::ProjectedDb`, spelled out here so the capture
/// crate does not depend on the mining crate.
pub type ProjectedRows = Vec<(Vec<EdgeId>, Support)>;

/// An immutable copy of every live-window row, padded to a common length.
///
/// Built by [`crate::DsMatrix::snapshot`]; all access is `&self`, so a
/// snapshot can be shared across mining worker threads.
#[derive(Debug, Clone)]
pub struct RowSnapshot {
    rows: Vec<BitVec>,
    num_cols: usize,
}

impl RowSnapshot {
    pub(crate) fn new(rows: Vec<BitVec>, num_cols: usize) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == num_cols));
        Self { rows, num_cols }
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

    /// Heap bytes held by the materialised rows (for working-set accounting:
    /// a snapshot keeps the whole window resident while it is alive).
    pub fn heap_bytes(&self) -> usize {
        self.rows.iter().map(BitVec::heap_bytes).sum()
    }

    /// Supports of every row in canonical order (the row sums).
    pub fn singleton_supports(&self) -> Vec<(EdgeId, Support)> {
        self.rows
            .iter()
            .enumerate()
            .map(|(idx, row)| (EdgeId::new(idx as u32), row.count_ones()))
            .collect()
    }

    /// Builds the `{pivot}`-projected database into `scratch` and returns a
    /// view of it: for every column whose pivot bit is `1`, the items
    /// strictly *after* the pivot in canonical order, with identical suffixes
    /// merged into weighted entries (Example 2 of the paper).
    ///
    /// The output is identical to [`crate::WindowView::project_into`] over
    /// the same window (they share one body); `&self` access plus per-worker
    /// scratch reuse make it safe and cheap to call from a parallel fan-out.
    pub fn project_into<'a>(
        &self,
        pivot: EdgeId,
        scratch: &'a mut ProjectionScratch,
    ) -> &'a ProjectedRows {
        project_rows_into(&self.rows, 0, pivot, scratch)
    }

    /// Convenience wrapper around [`RowSnapshot::project_into`] that
    /// allocates its own scratch (tests, one-off callers).
    pub fn project(&self, pivot: EdgeId) -> ProjectedRows {
        let mut scratch = ProjectionScratch::new();
        self.project_into(pivot, &mut scratch);
        scratch.db
    }
}

/// Flat-slice entry point of the shared projection body (the eager
/// [`RowSnapshot::project_into`] case).
pub(crate) fn project_rows_into<'a>(
    rows: &[BitVec],
    offset: usize,
    pivot: EdgeId,
    scratch: &'a mut ProjectionScratch,
) -> &'a ProjectedRows {
    project_row_refs_into(
        rows.len(),
        |idx| rows.get(idx).map(RowRef::Flat),
        offset,
        pivot,
        scratch,
    )
}

/// The one projection implementation behind every read surface
/// ([`RowSnapshot::project_into`] and [`crate::WindowView::project_into`],
/// whatever representation the view serves its rows in): build the
/// `{pivot}`-projected database into `scratch`, reading row `i` through
/// `row_of(i)` and treating bit `c + offset` of every row as logical window
/// column `c` (the eager snapshot is exactly the `offset = 0` flat case).
///
/// Sharing the body is what makes the surfaces byte-identical by
/// construction rather than by parallel maintenance.
pub(crate) fn project_row_refs_into<'a, 'r>(
    num_items: usize,
    row_of: impl Fn(usize) -> Option<RowRef<'r>>,
    offset: usize,
    pivot: EdgeId,
    scratch: &'a mut ProjectionScratch,
) -> &'a ProjectedRows {
    scratch.reset();
    let Some(pivot_row) = row_of(pivot.index()) else {
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
    for idx in pivot.index() + 1..num_items {
        let Some(row) = row_of(idx) else {
            continue;
        };
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

    fn snapshot(rows: &[&str]) -> RowSnapshot {
        let cols = rows.first().map(|r| r.len()).unwrap_or(0);
        RowSnapshot::new(
            rows.iter()
                .map(|r| BitVec::from_bools(r.chars().map(|c| c == '1')))
                .collect(),
            cols,
        )
    }

    /// The paper's window E4..E9 (Example 1 after the slide).
    fn paper_snapshot() -> RowSnapshot {
        snapshot(&[
            "111110", // a
            "001001", // b
            "101111", // c
            "110011", // d
            "010000", // e
            "110110", // f
        ])
    }

    #[test]
    fn projection_matches_example_2() {
        let snap = paper_snapshot();
        let db = snap.project(EdgeId::new(0));
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
        let snap = paper_snapshot();
        let mut scratch = ProjectionScratch::new();
        // Projecting twice through the same scratch matches fresh projections.
        for pivot in 0..6u32 {
            let through_scratch = snap.project_into(EdgeId::new(pivot), &mut scratch).clone();
            assert_eq!(
                through_scratch,
                snap.project(EdgeId::new(pivot)),
                "pivot {pivot}"
            );
        }
        // Last edge projects to nothing; out-of-range pivots are empty too.
        assert!(snap.project(EdgeId::new(5)).is_empty());
        assert!(snap.project(EdgeId::new(99)).is_empty());
    }

    #[test]
    fn supports_match_example_5() {
        let snap = paper_snapshot();
        let supports = snap.singleton_supports();
        let expected = [5u64, 2, 5, 4, 1, 4];
        for (idx, &want) in expected.iter().enumerate() {
            assert_eq!(supports[idx].1, want, "support of row {idx}");
        }
        assert_eq!(snap.num_items(), 6);
        assert_eq!(snap.num_transactions(), 6);
    }
}
