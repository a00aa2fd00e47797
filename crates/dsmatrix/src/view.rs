//! Window views: the miners' read surface over the window.
//!
//! A [`WindowView`] is a slice of flat [`BitVec`] rows plus the window's
//! singleton support counters — one representation, whoever owns the rows:
//!
//! * a **live** view ([`crate::DsMatrix::view`]) borrows the rows the matrix
//!   assembled for it, once per call and segment by segment, on every
//!   backend (fetching disk chunks through the budgeted chunk cache, which
//!   buys decodes, never assembly);
//! * a **frozen epoch** ([`crate::EpochSnapshot::view`]) borrows the
//!   [`crate::RowSnapshot`] the caller assembled from the snapshot's shared
//!   segments ([`crate::EpochSnapshot::assemble_rows`]) through the same
//!   fill — freezing an epoch copies no row; mining one copies the window
//!   once, for the duration of that mine.
//!
//! # Short rows
//!
//! Bit `c` of every row is window column `c`, but a row may be **shorter**
//! than [`WindowView::num_transactions`]: it ends where its last chunk in
//! the window ends, and a row no live segment holds is empty.  Missing tail
//! bits read as zero, which is invisible to the mining kernels:
//!
//! * the fused AND kernels between rows — the vertical hot loop — treat a
//!   word one operand lacks as zero, so they see the flat-matrix
//!   intersection bit for bit;
//! * [`WindowView::get`] and [`WindowView::project_into`] read a missing bit
//!   as zero;
//! * singleton supports come from counters the matrix maintains at
//!   ingest/evict time, not from row scans.

use fsm_storage::BitVec;
use fsm_types::{EdgeId, Support};

use crate::snapshot::{ProjectedRows, ProjectionScratch};

/// An immutable, concurrently-shareable (`&self` everywhere, `Send + Sync`)
/// read surface over the window.
///
/// Built by [`crate::DsMatrix::view`] — assembled once per call, segment by
/// segment — or by [`crate::EpochSnapshot::view`] over a frozen epoch's
/// assembled rows.
#[derive(Debug, Clone)]
pub struct WindowView<'a> {
    rows: &'a [BitVec],
    supports: &'a [Support],
    num_cols: usize,
}

impl<'a> WindowView<'a> {
    pub(crate) fn new(rows: &'a [BitVec], supports: &'a [Support], num_cols: usize) -> Self {
        debug_assert_eq!(rows.len(), supports.len());
        debug_assert!(rows.iter().all(|r| r.len() <= num_cols));
        Self {
            rows,
            supports,
            num_cols,
        }
    }

    /// Number of rows (domain edges) visible.
    pub fn num_items(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns (window transactions) visible.
    pub fn num_transactions(&self) -> usize {
        self.num_cols
    }

    /// The row of `item`: bit `c` is window column `c`, and bits past the
    /// row's end read as zero (see the module docs).
    ///
    /// [`BitVec::and_count`] / [`BitVec::and_into`] between two rows of one
    /// view yield exactly the flat-matrix intersection — this is what the
    /// vertical miners feed their hot loop.
    pub fn row(&self, item: EdgeId) -> Option<&'a BitVec> {
        self.rows.get(item.index())
    }

    /// The bit at logical window column `col` of `item`'s row (`false` out of
    /// range, matching the matrix convention).
    pub fn get(&self, item: EdgeId, col: usize) -> bool {
        if col >= self.num_cols {
            return false;
        }
        self.row(item).is_some_and(|row| row.get(col))
    }

    /// Support of a single edge, from the matrix's ingest/evict-maintained
    /// counters (no row scan).
    pub fn support(&self, item: EdgeId) -> Support {
        self.supports.get(item.index()).copied().unwrap_or(0)
    }

    /// Supports of every edge in canonical order — the first step of all five
    /// algorithms.  Counter reads, no row scans.
    pub fn singleton_supports(&self) -> Vec<(EdgeId, Support)> {
        self.supports
            .iter()
            .enumerate()
            .map(|(idx, &support)| (EdgeId::new(idx as u32), support))
            .collect()
    }

    /// Heap bytes of the rows this view reads (the resident mining working
    /// set, one copy of the rows some live segment holds).
    pub fn heap_bytes(&self) -> usize {
        self.rows.iter().map(BitVec::heap_bytes).sum()
    }

    /// Builds the `{pivot}`-projected database into `scratch` and returns a
    /// view of it: for every column whose pivot bit is `1`, the items
    /// strictly *after* the pivot in canonical order, with identical suffixes
    /// merged into weighted entries (Example 2 of the paper).
    ///
    /// Checked against a projection computed naively from
    /// [`crate::DsMatrix::row`] in `tests/view_consistency.rs`.
    pub fn project_into<'s>(
        &self,
        pivot: EdgeId,
        scratch: &'s mut ProjectionScratch,
    ) -> &'s ProjectedRows {
        crate::snapshot::project_rows_into(self.rows, pivot, scratch)
    }

    /// Convenience wrapper around [`WindowView::project_into`] that allocates
    /// its own scratch (tests, one-off callers).
    pub fn project(&self, pivot: EdgeId) -> ProjectedRows {
        let mut scratch = ProjectionScratch::new();
        self.project_into(pivot, &mut scratch).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(patterns: &[&str]) -> Vec<BitVec> {
        patterns
            .iter()
            .map(|r| BitVec::from_bools(r.chars().map(|c| c == '1')))
            .collect()
    }

    /// The paper's window E4..E9 (Example 1 after the slide), with one
    /// short row to exercise the short-row convention.
    fn paper_view() -> (Vec<BitVec>, Vec<Support>) {
        let rows = rows(&[
            "111110", // a
            "001001", // b
            "101111", // c
            "110011", // d
            "0100",   // e — short tail: trailing zeros not stored
            "110110", // f
        ]);
        let supports = vec![5, 2, 5, 4, 1, 4];
        (rows, supports)
    }

    #[test]
    fn projection_matches_example_2_over_a_short_row() {
        let (rows, supports) = paper_view();
        let view = WindowView::new(&rows, &supports, 6);
        let db = view.project(EdgeId::new(0));
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
        // Out-of-range pivots project to nothing.
        assert!(view.project(EdgeId::new(99)).is_empty());
    }

    #[test]
    fn supports_come_from_the_counters() {
        let (rows, supports) = paper_view();
        let view = WindowView::new(&rows, &supports, 6);
        assert_eq!(view.num_items(), 6);
        assert_eq!(view.num_transactions(), 6);
        assert_eq!(view.support(EdgeId::new(0)), 5);
        assert_eq!(view.support(EdgeId::new(4)), 1);
        assert_eq!(view.support(EdgeId::new(40)), 0, "unknown rows are zero");
        let listed = view.singleton_supports();
        assert_eq!(listed.len(), 6);
        assert_eq!(listed[3], (EdgeId::new(3), 4));
    }

    #[test]
    fn get_translates_columns_and_handles_short_tails() {
        let (rows, supports) = paper_view();
        let view = WindowView::new(&rows, &supports, 6);
        assert!(view.get(EdgeId::new(0), 0));
        assert!(!view.get(EdgeId::new(0), 5));
        // Row e is stored short; its missing tail reads as zero.
        assert!(view.get(EdgeId::new(4), 1));
        assert!(!view.get(EdgeId::new(4), 4));
        assert!(!view.get(EdgeId::new(4), 99), "past the window is false");
    }
}
