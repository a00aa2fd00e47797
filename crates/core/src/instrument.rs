//! Runtime and memory instrumentation attached to every mining run.

use std::fmt;
use std::time::Duration;

use fsm_fptree::growth::Footprint;

/// Measurements collected while one mining call executed.
///
/// These are the quantities the paper's evaluation compares across
/// algorithms: wall-clock runtime (experiment E3 / Figure 2), the number and
/// peak size of in-memory FP-trees (experiment E2), the bit-vector working-set
/// of the vertical algorithms, and how much the post-processing step pruned.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MiningStats {
    /// Wall-clock time of the mining call (capture time is not included; the
    /// paper's "delayed" mining separates the two).
    pub elapsed: Duration,
    /// FP-tree construction footprint (zero for the vertical algorithms).
    pub tree_footprint: Footprint,
    /// Number of bit-vector intersections performed (zero for the horizontal
    /// algorithms).
    pub intersections: u64,
    /// Peak bytes of simultaneously-alive bit vectors: intersection working
    /// set for the vertical algorithms, the materialised row snapshot for the
    /// horizontal ones.
    pub peak_bitvector_bytes: usize,
    /// Number of frequent collections found before the connectivity filter.
    pub patterns_before_postprocess: usize,
    /// Number of collections removed by the connectivity filter (always zero
    /// for the direct algorithm).
    pub patterns_pruned: usize,
    /// Resident bytes of the capture structure at mining time.
    pub capture_resident_bytes: usize,
    /// Bytes the capture structure keeps on disk at mining time.
    pub capture_on_disk_bytes: u64,
    /// Cumulative 64-bit words the capture structure has written since it was
    /// created (the incremental-slide cost counter; see
    /// [`fsm_dsmatrix::DsMatrix::capture_stats`]).
    pub capture_words_written: u64,
    /// 64-bit words of window data the read path materialised *for this mine
    /// call* (the read-amplification counter; see
    /// [`fsm_dsmatrix::DsMatrix::read_stats`]).  Zero on the memory backend,
    /// whose miners borrow the incrementally-maintained row cache zero-copy;
    /// on the disk backends it is the window, assembled once, at every
    /// chunk-cache budget.
    pub read_words_assembled: u64,
    /// Disk pages the read path fetched *for this mine call* (zero on the
    /// memory backend).  With a [`crate::MinerConfig::cache_budget_bytes`]
    /// budget covering the window, a steady-state disk mine fetches only the
    /// pages the preceding window slide invalidated.
    pub pages_read: u64,
    /// Chunk reads this mine call served from the budgeted decoded-chunk
    /// cache instead of the paged file (always zero with a zero budget).
    pub cache_hits: u64,
    /// Number of window transactions the run mined over.
    pub window_transactions: usize,
    /// The absolute minimum support the thresholds resolved to.
    pub resolved_minsup: u64,
    /// Cumulative bytes appended to the write-ahead log since the miner was
    /// created (durable configurations only; always zero otherwise).
    pub wal_bytes_written: u64,
    /// Cumulative `fsync` calls issued by the durability layer (WAL commits,
    /// segment syncs, checkpoint writes; durable configurations only).
    pub fsyncs: u64,
    /// Cumulative bytes of checkpoint files written (durable configurations
    /// only).
    pub checkpoint_bytes: u64,
    /// Batches crash recovery replayed from the WAL tail to rebuild this
    /// miner's window (zero unless the miner was built by recovery).
    pub recovery_replayed_batches: u64,
    /// Incremental-maintenance counters of this mine, when it advanced the
    /// [`crate::DeltaMiner`] state ([`crate::MinerConfig::delta`]); all zero
    /// for full re-mines.
    pub delta: DeltaStats,
}

/// Counters of one [`crate::DeltaMiner`] advance: how much of the maintained
/// pattern tree a slide actually touched.
///
/// The headline comparison is `patterns_reexamined` (support evaluations the
/// advance performed: arrival-walk chunk probes, crossing materialisations,
/// sweep screens) against the bit-vector intersections a full re-mine spends
/// at the same epoch — steady state evaluates only the patterns the slide
/// affected, against one segment's chunks, instead of re-screening every
/// candidate against full window rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Window slides (segment departures + arrivals) this advance applied.
    pub slides_applied: u64,
    /// Full window rebuilds this advance fell back to (first call, a minsup
    /// or limit change, or a window discontinuity; steady state is zero).
    pub full_rebuilds: u64,
    /// Live frequent collections tracked after the advance.
    pub patterns_tracked: usize,
    /// Support updates applied to tracked patterns (departure subtractions,
    /// arrival contributions, patterns newly created by a crossing).  May
    /// exceed `patterns_reexamined`: a departure updates a recorded count
    /// without evaluating anything.
    pub patterns_affected: u64,
    /// Support evaluations the advance performed in total — the delta-mine
    /// analogue of a full re-mine's candidate screens, and like them not
    /// counting singleton reads: a root's arrival contribution is its own
    /// chunk's popcount, no intersection, just as a full mine takes singleton
    /// supports from the ingest-time counters.
    pub patterns_reexamined: u64,
    /// Border entries (infrequent extensions armed for promotion) after the
    /// advance.
    pub border_size: usize,
    /// Border-entry support updates this advance applied (each one costs a
    /// segment-chunk intersection or a recorded-contribution subtraction).
    pub border_updates: u64,
    /// Border entries promoted to frequent patterns this advance (each one
    /// re-expands its subtree).
    pub border_promotions: u64,
    /// Subtrees cut because their root's support fell below minsup.
    pub subtree_prunes: u64,
    /// Tree-wide sweeps run because a singleton newly crossed minsup.
    pub singleton_sweeps: u64,
}

impl DeltaStats {
    /// Folds another advance's counters into this accumulator: work counters
    /// add, state sizes (`patterns_tracked`, `border_size`) take the latest
    /// observed maximum.
    pub fn merge(&mut self, other: &DeltaStats) {
        self.slides_applied += other.slides_applied;
        self.full_rebuilds += other.full_rebuilds;
        self.patterns_tracked = self.patterns_tracked.max(other.patterns_tracked);
        self.patterns_affected += other.patterns_affected;
        self.patterns_reexamined += other.patterns_reexamined;
        self.border_size = self.border_size.max(other.border_size);
        self.border_updates += other.border_updates;
        self.border_promotions += other.border_promotions;
        self.subtree_prunes += other.subtree_prunes;
        self.singleton_sweeps += other.singleton_sweeps;
    }
}

impl fmt::Display for DeltaStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tracked, {} re-examined ({} affected), border {} ({} updates, {} promotions), \
             {} prunes, {} sweeps, {} slides, {} rebuilds",
            self.patterns_tracked,
            self.patterns_reexamined,
            self.patterns_affected,
            self.border_size,
            self.border_updates,
            self.border_promotions,
            self.subtree_prunes,
            self.singleton_sweeps,
            self.slides_applied,
            self.full_rebuilds,
        )
    }
}

impl MiningStats {
    /// Folds the statistics of a subtree mined by a parallel worker into this
    /// accumulator: work counters (`intersections`, tree totals, pattern
    /// counts) add, peaks and window-level quantities take the maximum.
    ///
    /// Merging in any order yields the same result, so the parallel engine
    /// stays deterministic regardless of worker scheduling.
    pub fn merge(&mut self, other: &MiningStats) {
        self.elapsed = self.elapsed.max(other.elapsed);
        self.tree_footprint.merge_sequential(&other.tree_footprint);
        self.intersections += other.intersections;
        self.peak_bitvector_bytes = self.peak_bitvector_bytes.max(other.peak_bitvector_bytes);
        self.patterns_before_postprocess += other.patterns_before_postprocess;
        self.patterns_pruned += other.patterns_pruned;
        self.capture_resident_bytes = self
            .capture_resident_bytes
            .max(other.capture_resident_bytes);
        self.capture_on_disk_bytes = self.capture_on_disk_bytes.max(other.capture_on_disk_bytes);
        self.capture_words_written = self.capture_words_written.max(other.capture_words_written);
        self.read_words_assembled = self.read_words_assembled.max(other.read_words_assembled);
        self.pages_read = self.pages_read.max(other.pages_read);
        self.cache_hits = self.cache_hits.max(other.cache_hits);
        self.window_transactions = self.window_transactions.max(other.window_transactions);
        self.resolved_minsup = self.resolved_minsup.max(other.resolved_minsup);
        // Durability counters are cumulative window-level quantities sampled
        // once per mine, not per-worker work: the maximum is the truth.
        self.wal_bytes_written = self.wal_bytes_written.max(other.wal_bytes_written);
        self.fsyncs = self.fsyncs.max(other.fsyncs);
        self.checkpoint_bytes = self.checkpoint_bytes.max(other.checkpoint_bytes);
        self.recovery_replayed_batches = self
            .recovery_replayed_batches
            .max(other.recovery_replayed_batches);
        self.delta.merge(&other.delta);
    }

    /// Peak working-set estimate of the mining step itself (trees or bit
    /// vectors, whichever the algorithm uses).
    pub fn peak_mining_bytes(&self) -> usize {
        self.tree_footprint
            .peak_tree_bytes
            .max(self.peak_bitvector_bytes)
    }

    /// Number of collections returned after post-processing.
    pub fn patterns_after_postprocess(&self) -> usize {
        self.patterns_before_postprocess
            .saturating_sub(self.patterns_pruned)
    }
}

impl fmt::Display for MiningStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} elapsed, {} trees (peak {} bytes), {} intersections (peak {} bytes), \
             {} patterns (-{} pruned), capture {} bytes resident / {} on disk",
            self.elapsed,
            self.tree_footprint.trees_built,
            self.tree_footprint.peak_tree_bytes,
            self.intersections,
            self.peak_bitvector_bytes,
            self.patterns_before_postprocess,
            self.patterns_pruned,
            self.capture_resident_bytes,
            self.capture_on_disk_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_mining_bytes_takes_the_larger_working_set() {
        let mut stats = MiningStats {
            peak_bitvector_bytes: 100,
            ..MiningStats::default()
        };
        stats.tree_footprint.peak_tree_bytes = 50;
        assert_eq!(stats.peak_mining_bytes(), 100);
        stats.tree_footprint.peak_tree_bytes = 500;
        assert_eq!(stats.peak_mining_bytes(), 500);
    }

    #[test]
    fn pattern_counts_are_consistent() {
        let stats = MiningStats {
            patterns_before_postprocess: 17,
            patterns_pruned: 2,
            ..MiningStats::default()
        };
        assert_eq!(stats.patterns_after_postprocess(), 15);
    }

    #[test]
    fn merge_adds_work_and_maxes_peaks() {
        let mut a = MiningStats {
            intersections: 10,
            peak_bitvector_bytes: 100,
            patterns_before_postprocess: 3,
            window_transactions: 6,
            ..MiningStats::default()
        };
        let b = MiningStats {
            intersections: 5,
            peak_bitvector_bytes: 400,
            patterns_before_postprocess: 2,
            window_transactions: 6,
            ..MiningStats::default()
        };
        a.merge(&b);
        assert_eq!(a.intersections, 15);
        assert_eq!(a.peak_bitvector_bytes, 400);
        assert_eq!(a.patterns_before_postprocess, 5);
        assert_eq!(a.window_transactions, 6);
    }

    #[test]
    fn display_includes_headline_numbers() {
        let stats = MiningStats {
            patterns_before_postprocess: 17,
            patterns_pruned: 2,
            intersections: 12,
            ..MiningStats::default()
        };
        let text = stats.to_string();
        assert!(text.contains("17 patterns"));
        assert!(text.contains("12 intersections"));
    }
}
