//! Window views: the miners' read surface over the window.
//!
//! A [`WindowView`] is a slice of flat [`BitVec`] rows plus the window's
//! singleton support counters — one representation, whoever owns the rows:
//!
//! * a **live** view ([`crate::DsMatrix::view`]) on the memory backend
//!   *borrows* the matrix's incrementally-maintained row cache —
//!   constructing a view copies nothing, so the per-mine read cost is
//!   whatever the slide touched, not the window size.  On the disk backends
//!   the matrix assembles each row once per call, fetching chunks through
//!   the budgeted chunk cache (the budget buys page reads, never assembly);
//! * a **frozen epoch** ([`crate::EpochSnapshot::view`]) borrows the
//!   [`crate::RowSnapshot`] the caller assembled from the snapshot's shared
//!   segments ([`crate::EpochSnapshot::assemble_rows`]) — freezing an epoch
//!   copies no row; mining one copies the window once, for the duration of
//!   that mine.
//!
//! # Alignment convention
//!
//! Cached rows may carry a **dead prefix** of `offset()` all-zero bits (lazy
//! eviction: a window slide zeroes the evicted chunk and defers the physical
//! [`fsm_storage::BitVec::drop_prefix`] until enough dead columns
//! accumulate) and may be **shorter** than `offset() + num_transactions()`
//! (rows untouched since their last set bit are not padded; missing tail
//! bits read as zero).  Both conventions are invisible to the mining
//! kernels:
//!
//! * every row shares the same `offset` (assembled rows — a disk-backend
//!   view's, an epoch's — always have offset 0), so the fused AND kernels
//!   between rows — the vertical hot loop — see identical intersections bit
//!   for bit;
//! * [`WindowView::project_into`] translates set-bit positions back to
//!   logical window columns;
//! * singleton supports come from counters the matrix maintains at
//!   ingest/evict time, not from row scans.

use fsm_storage::BitVec;
use fsm_types::{EdgeId, Support};

use crate::snapshot::{ProjectedRows, ProjectionScratch};

/// An immutable, concurrently-shareable (`&self` everywhere, `Send + Sync`)
/// read surface over the window.
///
/// Built by [`crate::DsMatrix::view`] — zero-copy on the memory backend,
/// assembled once per call on the disk backends — or by
/// [`crate::EpochSnapshot::view`] over a frozen epoch's assembled rows.
#[derive(Debug, Clone)]
pub struct WindowView<'a> {
    rows: &'a [BitVec],
    supports: &'a [Support],
    /// Dead (all-zero) bits at the front of every row.
    offset: usize,
    num_cols: usize,
}

impl<'a> WindowView<'a> {
    pub(crate) fn new(
        rows: &'a [BitVec],
        supports: &'a [Support],
        offset: usize,
        num_cols: usize,
    ) -> Self {
        debug_assert_eq!(rows.len(), supports.len());
        debug_assert!(rows.iter().all(|r| r.len() <= offset + num_cols));
        Self {
            rows,
            supports,
            offset,
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

    /// Dead bits at the front of every row (see the module docs).  Logical
    /// window column `c` lives at bit `c + offset()` of every row.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The aligned row of `item`: bits `[offset(), offset() + c)` hold the
    /// window's first `c` columns, everything else is zero.
    ///
    /// All rows of one view share the same alignment, so
    /// [`BitVec::and_count`] / [`BitVec::and_into`] between two of them
    /// yield exactly the flat-matrix intersection — this is what the
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
        self.row(item).is_some_and(|row| row.get(col + self.offset))
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
    /// set; on the memory backend it is shared with the capture structures
    /// rather than copied per mine call).
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
        crate::snapshot::project_rows_into(self.rows, self.offset, pivot, scratch)
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

    /// The paper's window E4..E9 (Example 1 after the slide), with a
    /// two-bit dead prefix and one lazily-short row to exercise the
    /// alignment conventions.
    fn paper_view() -> (Vec<BitVec>, Vec<Support>) {
        let rows = rows(&[
            "00111110", // a
            "00001001", // b
            "00101111", // c
            "00110011", // d
            "000100",   // e — short tail: trailing zeros not stored
            "00110110", // f
        ]);
        let supports = vec![5, 2, 5, 4, 1, 4];
        (rows, supports)
    }

    #[test]
    fn projection_matches_example_2_through_the_offset() {
        let (rows, supports) = paper_view();
        let view = WindowView::new(&rows, &supports, 2, 6);
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
        let view = WindowView::new(&rows, &supports, 2, 6);
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
        let view = WindowView::new(&rows, &supports, 2, 6);
        assert!(view.get(EdgeId::new(0), 0));
        assert!(!view.get(EdgeId::new(0), 5));
        // Row e is stored short; its missing tail reads as zero.
        assert!(view.get(EdgeId::new(4), 1));
        assert!(!view.get(EdgeId::new(4), 4));
        assert!(!view.get(EdgeId::new(4), 99), "past the window is false");
    }
}
