//! Delta mining: maintain the frequent-pattern set across window slides
//! instead of re-enumerating the window on every mine.
//!
//! A window slide changes exactly one segment in and one out, so between
//! consecutive epochs the frequent-pattern set differs only where a support
//! count crossed the minimum-support threshold.  The [`DeltaMiner`] exploits
//! this with three pieces of state, all keyed to the frozen
//! [`EpochSnapshot`]s of the capture structure:
//!
//! 1. **Per-segment support contributions, as a ring of counts.**  Every live
//!    window segment owns a *slot* — assigned when it arrives, freed when it
//!    departs, reused by a later arrival — and every tracked pattern stores
//!    one `u32` count per slot beside its support: `support == Σ counts`, and
//!    a free slot reads 0 everywhere.  A departing segment is *subtracted* by
//!    a top-down walk that takes `counts[slot]` from each node and skips the
//!    subtree under a zero; an arriving segment is *added* by a walk of the
//!    same shape that intersects only the new segment's chunks and writes
//!    `counts[slot]`.  Both prune on the same argument — every tidset below a
//!    node is nested in the node's, so a segment that contributes nothing to
//!    it contributes nothing beneath it — and patterns untouched by the slide
//!    are never visited.  Nothing indexes patterns by segment: the slot *is*
//!    the index.
//! 2. **A border set, maintained exactly.**  Every enumeration screen that
//!    *fails* (an extension whose support is below minsup) is remembered on
//!    its parent node as a `BorderEntry`, instead of being forgotten the way
//!    a full re-mine forgets it.  A node's entries are one contiguous run,
//!    ascending by edge, and their per-slot counts are rows of the node's own
//!    flat counts table — no entry owns an allocation.  Border supports ride
//!    the same two walks as tracked patterns: a departure sweeps the run
//!    taking `counts[slot]`, an arrival adds one chunk intersection per entry
//!    of each visited node.  An entry's support is therefore exact at every
//!    epoch — a candidate promotes at precisely the slide where it crosses
//!    minsup, with no conservative re-counting in between.
//! 3. **Targeted re-expansion, in segment coordinates.**  Only when a support
//!    count crosses minsup does enumeration run, and only under the affected
//!    prefix: a border crossing materialises that one candidate and
//!    re-expands just its subtree; a singleton crossing up runs a sweep that
//!    visits only tree paths whose screens pass.  A path's tidset is held as
//!    one chunk per window segment (bit 0 = the segment's first column) and
//!    screened against the segments' own row chunks with the arrival walk's
//!    kernel, so the per-slot split of a screen is the popcounts the kernel
//!    returns and no window view is ever built.  Subtrees whose root fell
//!    below minsup are cut in one step (sound by anti-monotonicity), the
//!    root's counts moving onto the border entry left behind for the reverse
//!    crossing.
//!
//! # Which tree
//!
//! The tree is the §4 neighbourhood enumeration
//! ([`crate::miners::direct::mine_direct`]): a node's extension candidates
//! are the edges of its [`Neighborhood`] whose addition is the pattern's
//! canonical growth step, so every tracked node is a connected pattern,
//! every border entry a failed *neighbour* screen, and the collected set
//! needs no connectivity post-processing — nothing is maintained only to be
//! filtered away on collection.  Canonical growth sequences are
//! prefix-closed, which is what makes them a tree: a node's root path is its
//! pattern's canonical sequence, its root is the pattern's smallest edge,
//! and the remaining path edges are in absorption order, not ascending.
//!
//! That is the set every configuration's mine returns except one: a
//! post-processing algorithm under [`crate::ConnectivityMode::PaperRule`],
//! whose rule keeps some disconnected collections.  No connected tree holds
//! those, so [`crate::StreamMiner`] routes that configuration to its full
//! re-mine even with [`crate::MinerConfig::delta`] set, and the
//! [`DeltaMiner`] stays connected-only.
//!
//! Steady state — no threshold crossings — costs O(patterns and border
//! candidates whose support the slide changed), not O(window): a mine call
//! walks the departed segment's slot and the arriving segment's chunks down
//! the tree and collects the result, each touch costing one integer or one
//! segment-sized chunk operation rather than a window-sized row
//! intersection.  The walks allocate like the miners do: one buffer per
//! depth ([`ScratchArena`] for an arrival, one chunk per segment for a
//! crossing), reused for every node at that depth, and no per-node or
//! per-entry collections.  A segment's rows are resolved once per advance
//! into a dense edge-indexed table, so a screen is an array index away from
//! its operand.
//!
//! The full re-mine stays authoritative: a delta-enabled
//! [`crate::StreamMiner::mine`] is byte-identical to a full one at the same
//! epoch, property-tested across randomized slide sequences in
//! `crates/core/tests/delta_agreement.rs` with a brute-force support recount
//! shadowing the border bookkeeping.

use std::mem;
use std::sync::Arc;

use fsm_dsmatrix::EpochSnapshot;
use fsm_fptree::MiningLimits;
use fsm_storage::{BitVec, EpochSegment};
use fsm_types::{EdgeCatalog, EdgeId, EdgeSet, FrequentPattern, FsmError, Result, Support};

use crate::instrument::DeltaStats;
use crate::neighborhood::Neighborhood;
use crate::scratch::ScratchArena;

/// What reaching a node means for the extension `node ∪ {edge}`.  A node's
/// position in the enumeration is a [`Neighborhood`] cursor seated on its
/// root path: the cursor's canonical candidates are the extensions the node
/// can have, and [`Admission::at`] is what a sweep for a newly frequent edge
/// does on reaching it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// It is a tree child of the node: screen it.
    Extend,
    /// It is not a child here but can be one further down (the edge is not
    /// yet adjacent, or not yet the canonical growth step): keep descending.
    PassThrough,
    /// Neither here nor anywhere below.
    Closed,
}

impl Admission {
    /// The admission of `edge` at the node `hood` is seated on.
    fn at(hood: &Neighborhood<'_>, edge: EdgeId) -> Self {
        if hood.members().contains(&edge) {
            Admission::Closed
        } else if hood.is_canonical_step(edge) {
            Admission::Extend
        } else {
            Admission::PassThrough
        }
    }
}

/// Generational handle to a pattern-tree node: stale handles (a queued
/// crossing or prune candidate whose subtree was cut meanwhile) resolve to
/// `None` instead of aliasing a reused arena cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeRef {
    idx: u32,
    generation: u32,
}

/// One tracked frequent collection: a node of the prefix tree, identified by
/// the edges on its root path.
#[derive(Debug)]
struct Node {
    edge: EdgeId,
    parent: Option<NodeRef>,
    support: Support,
    /// Child nodes, ascending by child edge.
    children: Vec<NodeRef>,
    /// Infrequent extensions of this node, ascending by edge — the border.
    border: Vec<BorderEntry>,
    /// Per-slot support contributions, `(1 + border.len())` rows of
    /// [`DeltaMiner::stride`] counts: row 0 is the node's own, row `i + 1`
    /// is `border[i]`'s.  Every row sums to its owner's support.
    counts: Vec<u32>,
}

impl Node {
    fn new(edge: EdgeId, parent: Option<NodeRef>, support: Support, counts: &[u32]) -> Self {
        Self {
            edge,
            parent,
            support,
            children: Vec::new(),
            border: Vec::new(),
            counts: counts.to_vec(),
        }
    }

    /// The border entries, each beside its row of per-slot counts.
    fn border_rows(&self, stride: usize) -> impl Iterator<Item = (&BorderEntry, &[u32])> {
        self.border
            .iter()
            .zip(self.counts[stride..].chunks_exact(stride))
    }

    fn heap_bytes(&self) -> usize {
        self.children.capacity() * mem::size_of::<NodeRef>()
            + self.border.capacity() * mem::size_of::<BorderEntry>()
            + self.counts.capacity() * mem::size_of::<u32>()
    }
}

/// An arena cell; `generation` increments on every free so old [`NodeRef`]s
/// die with their node.
#[derive(Debug)]
struct Cell {
    generation: u32,
    node: Option<Node>,
}

/// Borrows only the arena, so callers can update counters while holding the
/// node.
fn cell_mut(arena: &mut [Cell], r: NodeRef) -> Option<&mut Node> {
    let cell = arena.get_mut(r.idx as usize)?;
    if cell.generation != r.generation {
        return None;
    }
    cell.node.as_mut()
}

fn dead_node(during: &str) -> FsmError {
    FsmError::corrupt(format!(
        "delta state references a dead pattern node during {during}"
    ))
}

/// A remembered failed extension: pattern `parent ∪ {edge}` with its exact
/// support (< minsup until the slide that promotes it).  The per-slot counts
/// that keep the support exact across slides are a row of the parent's
/// [`Node::counts`], at the entry's position in the run plus one.
///
/// `deep` marks entries created by an interrupted singleton sweep: promotion
/// must resume the sweep below the parent (the failed screen skipped the
/// descendants without recording their own entries), whereas entries from
/// ordinary expansion or subtree prunes re-expand only their own subtree.
#[derive(Debug, Clone, Copy)]
struct BorderEntry {
    edge: EdgeId,
    deep: bool,
    support: Support,
}

/// One live window segment and the slot its contributions are counted in.
#[derive(Debug, Clone, Copy)]
struct Segment {
    uid: u64,
    cols: usize,
    slot: usize,
}

/// A per-slot count is a `u32`, so a segment may not be wider than one can
/// say.  Checked once per arriving segment, before any state changes.
fn check_cols(cols: usize) -> Result<()> {
    if u32::try_from(cols).is_err() {
        return Err(FsmError::config(format!(
            "a window segment of {cols} columns is wider than the delta miner's \
             per-segment counts ({} at most)",
            u32::MAX
        )));
    }
    Ok(())
}

/// One segment's row chunks as a dense edge-indexed table, resolved once per
/// advance from [`EpochSegment::rows`]; a row the segment never saw is
/// `None` and reads as zeros.
type RowTable<'s> = Vec<Option<&'s BitVec>>;

fn row_table(seg: &EpochSegment, num_items: usize) -> RowTable<'_> {
    let mut table = vec![None; num_items];
    for (id, chunk) in seg.rows() {
        if let Some(row) = table.get_mut(id) {
            *row = Some(chunk);
        }
    }
    table
}

/// The chunk of `edge`'s row in the segment `rows` tabulates.
fn row_of<'s>(rows: &[Option<&'s BitVec>], edge: EdgeId) -> Option<&'s BitVec> {
    rows.get(edge.index()).copied().flatten()
}

/// What one arriving segment's walk reads and accumulates.
struct Arrival<'s> {
    rows: &'s [Option<&'s BitVec>],
    slot: usize,
    /// Border entries that crossed minsup, in walk (top-down) order.
    crossings: &'s mut Vec<(NodeRef, EdgeId)>,
}

/// What the threshold crossings of one advance (and a rebuild) enumerate
/// over: the window in segment coordinates, and the enumeration cursor.
///
/// A tidset here is one chunk per window segment, oldest first, bit 0 = the
/// segment's first column — the layout the segments' own row chunks have, so
/// a screen is [`BitVec::and_into`] chunk against chunk and its per-slot
/// split is the popcounts that returns.
struct Crossing<'a> {
    /// `(slot, rows)` of every window segment, oldest first.
    segments: Vec<(usize, RowTable<'a>)>,
    /// One cursor for every expansion of the advance, re-seated per
    /// promotion: its per-depth neighbour lists are allocated once.
    hood: Neighborhood<'a>,
    /// Per-slot split of the latest [`Crossing::intersect`], `stride` wide;
    /// slots no segment owns stay 0.
    counts: Vec<u32>,
}

impl Crossing<'_> {
    /// `out = tidset ∧ row(edge)`, segment by segment; `None` is the empty
    /// pattern's tidset — every window column — so the result is the row
    /// itself.  Returns the support and leaves its per-slot split in
    /// `self.counts`.
    fn intersect(
        &mut self,
        tidset: Option<&[BitVec]>,
        edge: EdgeId,
        out: &mut [BitVec],
    ) -> Support {
        let mut support = 0;
        for (i, (slot, rows)) in self.segments.iter().enumerate() {
            let count = match row_of(rows, edge) {
                Some(row) => tidset
                    .map_or(row, |chunks| &chunks[i])
                    .and_into(row, &mut out[i]),
                None => {
                    out[i].resize(0);
                    0
                }
            };
            // Never wraps: `count <= cols`, and `check_cols` saw the segment.
            self.counts[*slot] = count as u32;
            support += count;
        }
        support
    }
}

/// Per-depth tidset buffers of the crossings, one chunk per window segment —
/// what [`ScratchArena`] is to the single-chunk arrival walk.  Hand-out is by
/// move, for the same reason.
#[derive(Debug, Default)]
struct TidsetArena {
    levels: Vec<Vec<BitVec>>,
}

impl TidsetArena {
    fn take(&mut self, depth: usize, segments: usize) -> Vec<BitVec> {
        if self.levels.len() <= depth {
            self.levels.resize_with(depth + 1, Vec::new);
        }
        let mut level = mem::take(&mut self.levels[depth]);
        level.resize_with(segments, BitVec::new);
        level
    }

    fn put(&mut self, depth: usize, level: Vec<BitVec>) {
        self.levels[depth] = level;
    }

    fn heap_bytes(&self) -> usize {
        self.levels.iter().flatten().map(BitVec::heap_bytes).sum()
    }
}

/// Inserts `row` into the flat `counts` table at offset `at`.
fn insert_row(counts: &mut Vec<u32>, at: usize, row: &[u32]) {
    let moved = counts.len() - at;
    counts.extend_from_slice(row);
    counts.copy_within(at..at + moved, at + row.len());
    counts[at..at + row.len()].copy_from_slice(row);
}

/// Incrementally maintains the set of frequent edge collections across
/// window slides.
///
/// Drive it with [`DeltaMiner::advance`] once per mine against the current
/// [`EpochSnapshot`]; the first call (and any call after a minsup, limit,
/// catalog or window discontinuity) falls back to a full rebuild, every
/// later call pays only for the patterns the slide affected.  The returned
/// collections are exactly what the §4 enumeration would produce at the same
/// epoch: the connected frequent collections.
///
/// The preferred entry point is [`crate::StreamMiner::mine`] with
/// [`crate::MinerConfig::delta`] set, which wires snapshots and threshold
/// resolution, and routes the one configuration whose answer is not the
/// connected set to the full re-mine.
#[derive(Debug, Default)]
pub struct DeltaMiner {
    /// Resolved absolute threshold the current state was built against.
    minsup: Support,
    limits: MiningLimits,
    /// Width of the catalog the tree was grown over.
    catalog_edges: usize,
    /// Epoch of the snapshot the state reflects (`None` before first use).
    epoch: Option<u64>,
    num_items: usize,
    /// Window segments the state reflects, oldest first.
    segments: Vec<Segment>,
    /// Length of every counts row: the widest window seen since the last
    /// rebuild.  A run-time value — a wider window re-lays the rows in place
    /// ([`DeltaMiner::widen`]) and the advance stays incremental.
    stride: usize,
    /// Slots below `stride` that no live segment owns; they read 0 in every
    /// counts row.
    free_slots: Vec<usize>,
    arena: Vec<Cell>,
    free_cells: Vec<u32>,
    /// Live length-1 patterns, indexed by edge.
    roots: Vec<Option<NodeRef>>,
    /// Which singletons are currently frequent (extension alphabet).
    frequent: Vec<bool>,
    /// Intersection buffers of the arrival walk, one per tree depth.
    scratch: ScratchArena,
    /// Tidset buffers of the crossings, one per tree depth.
    tidsets: TidsetArena,
    live_nodes: usize,
    border_entries: usize,
    stats: DeltaStats,
}

impl DeltaMiner {
    /// Creates an empty miner; the first [`DeltaMiner::advance`] performs a
    /// full rebuild.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters of the most recent [`DeltaMiner::advance`] call.
    pub fn stats(&self) -> &DeltaStats {
        &self.stats
    }

    /// Number of frequent collections currently tracked.
    pub fn patterns_tracked(&self) -> usize {
        self.live_nodes
    }

    /// Number of border (infrequent but remembered) candidates currently
    /// armed.
    pub fn border_size(&self) -> usize {
        self.border_entries
    }

    /// Heap bytes the maintained state holds: the node arena, every node's
    /// child list, border run and counts table, the singleton tables and the
    /// parked scratch buffers.  O(arena cells), from the tables' capacities —
    /// no border entry is visited.
    pub fn heap_bytes(&self) -> usize {
        let nodes: usize = self
            .arena
            .iter()
            .filter_map(|cell| cell.node.as_ref())
            .map(Node::heap_bytes)
            .sum();
        nodes
            + self.arena.capacity() * mem::size_of::<Cell>()
            + self.free_cells.capacity() * mem::size_of::<u32>()
            + self.roots.capacity() * mem::size_of::<Option<NodeRef>>()
            + self.frequent.capacity()
            + self.scratch.heap_bytes()
            + self.tidsets.heap_bytes()
    }

    /// Brings the maintained pattern set to `snapshot`'s epoch and returns
    /// every connected collection over `catalog` that is frequent there
    /// (unsorted — [`crate::MiningResult::new`] canonicalises).  Edges
    /// outside the catalog are tracked as singletons and never grown.
    ///
    /// Incremental when the snapshot continues the previously seen window
    /// under the same resolved `minsup` and `limits`; otherwise (first call,
    /// threshold re-resolution, domain or catalog growth, or a window
    /// discontinuity of more than the full window) it falls back to one full
    /// rebuild and records that in [`DeltaStats::full_rebuilds`].  A window
    /// that merely grew wider — it is still filling — is not a
    /// discontinuity.
    ///
    /// Precondition: successive calls pass the *same* catalog, grown only by
    /// interning (what [`crate::StreamMiner`] does).  Catalog growth is
    /// detected by its width alone, so a different catalog of equal width
    /// would keep advancing a tree grown over the old adjacency; start a new
    /// `DeltaMiner` to switch catalogs.
    ///
    /// Errors surface a corrupt maintained state ([`FsmError::CorruptStructure`])
    /// instead of panicking, so one tenant's damaged delta state cannot abort
    /// a multi-tenant process; a window segment wider than `u32::MAX`
    /// columns is refused ([`FsmError::InvalidConfig`]) before anything
    /// changes.
    pub fn advance(
        &mut self,
        snapshot: &EpochSnapshot,
        minsup: Support,
        limits: MiningLimits,
        catalog: &EdgeCatalog,
    ) -> Result<Vec<FrequentPattern>> {
        let minsup = minsup.max(1);
        self.stats = DeltaStats::default();
        let unchanged_config = self.minsup == minsup
            && self.limits == limits
            && self.num_items == snapshot.num_items()
            && self.catalog_edges == catalog.num_edges();
        if self.epoch == Some(snapshot.epoch()) && unchanged_config {
            self.finish_stats();
            return self.collect();
        }
        let overlap = self.window_overlap(snapshot.segments());
        let contiguous = overlap > 0 || self.segments.is_empty() || snapshot.segments().is_empty();
        if self.epoch.is_some() && unchanged_config && contiguous {
            self.apply_slides(snapshot, catalog, overlap)?;
        } else {
            self.rebuild(snapshot, catalog, minsup, limits)?;
        }
        self.epoch = Some(snapshot.epoch());
        self.finish_stats();
        self.collect()
    }

    fn finish_stats(&mut self) {
        self.stats.patterns_tracked = self.live_nodes;
        self.stats.border_size = self.border_entries;
    }

    /// Longest suffix of the tracked window that is a prefix of the
    /// snapshot's window (slides drop oldest segments and append newest).
    fn window_overlap(&self, window: &[Arc<EpochSegment>]) -> usize {
        let max_k = self.segments.len().min(window.len());
        (0..=max_k)
            .rev()
            .find(|&k| {
                self.segments[self.segments.len() - k..]
                    .iter()
                    .zip(&window[..k])
                    .all(|(mine, seg)| (mine.uid, mine.cols) == (seg.uid(), seg.cols()))
            })
            .unwrap_or(0)
    }

    fn is_frequent(&self, edge: EdgeId) -> bool {
        self.frequent.get(edge.index()).copied().unwrap_or(false)
    }

    // ----- incremental path ------------------------------------------------

    fn apply_slides(
        &mut self,
        snapshot: &EpochSnapshot,
        catalog: &EdgeCatalog,
        overlap: usize,
    ) -> Result<()> {
        let departing = self.segments.len() - overlap;
        let (kept, arrivals) = snapshot.segments().split_at(overlap);
        for seg in arrivals {
            check_cols(seg.cols())?;
        }
        self.stats.slides_applied = departing.max(arrivals.len()) as u64;

        let mut touched = Vec::new();
        for i in 0..departing {
            let slot = self.segments[i].slot;
            self.subtract_segment(slot, &mut touched)?;
            self.free_slots.push(slot);
        }
        self.segments.drain(..departing);
        self.widen(snapshot.segments().len());
        let mut crossings = Vec::new();
        let mut arrived = Vec::with_capacity(arrivals.len());
        for seg in arrivals {
            let slot = self.free_slots.pop().ok_or_else(|| {
                FsmError::corrupt("delta state has no free slot for an arriving segment")
            })?;
            self.segments.push(Segment {
                uid: seg.uid(),
                cols: seg.cols(),
                slot,
            });
            let rows = row_table(seg, self.num_items);
            self.add_segment(&rows, slot, &mut crossings)?;
            arrived.push(rows);
        }
        self.prune_touched(touched)?;

        // Threshold crossings: only they read the window's older segments,
        // so those row tables are resolved lazily — a steady slide touches
        // nothing but the departed slot and the arrived chunks.  The
        // singleton alphabet is refreshed first so the expansions below
        // extend over it.
        let promoted = self.detect_singleton_crossings(snapshot);
        if !promoted.is_empty() || !crossings.is_empty() {
            let kept = kept.iter().map(|seg| row_table(seg, self.num_items));
            let mut cx = self.crossing(catalog, kept.chain(arrived));
            for (parent, edge) in crossings {
                self.promote_border(&mut cx, parent, edge)?;
            }
            for edge in promoted {
                self.promote_singleton(&mut cx, edge)?;
            }
        }
        Ok(())
    }

    /// The crossing context over the tracked window, given its segments' row
    /// tables oldest first.
    fn crossing<'a>(
        &self,
        catalog: &'a EdgeCatalog,
        tables: impl Iterator<Item = RowTable<'a>>,
    ) -> Crossing<'a> {
        Crossing {
            segments: self
                .segments
                .iter()
                .map(|seg| seg.slot)
                .zip(tables)
                .collect(),
            hood: Neighborhood::new(catalog),
            counts: vec![0; self.stride],
        }
    }

    /// Grows the counts rows to `width` slots when the window has outgrown
    /// them, re-laying every node's table in place (back to front, so no row
    /// is overwritten before it moved).  The new slots are free and read 0.
    fn widen(&mut self, width: usize) {
        let old = self.stride;
        if width <= old {
            return;
        }
        for node in self.arena.iter_mut().filter_map(|cell| cell.node.as_mut()) {
            let rows = 1 + node.border.len();
            node.counts.resize(rows * width, 0);
            for row in (0..rows).rev() {
                node.counts
                    .copy_within(row * old..(row + 1) * old, row * width);
                node.counts[row * width + old..(row + 1) * width].fill(0);
            }
        }
        self.free_slots.extend(old..width);
        self.stride = width;
    }

    /// Subtracts one departed segment from tracked patterns and border
    /// entries alike: a top-down walk taking `counts[slot]` from every node
    /// the segment supported.  Exact: a stored support is always the sum of
    /// its counts row, so removal leaves the support over the remaining
    /// segments — and the slot reads 0 everywhere afterwards, ready for
    /// reuse.
    fn subtract_segment(&mut self, slot: usize, touched: &mut Vec<NodeRef>) -> Result<()> {
        for idx in 0..self.roots.len() {
            if let Some(root) = self.roots[idx] {
                self.subtract_walk(root, slot, touched)?;
            }
        }
        Ok(())
    }

    /// One node of the departure walk.  A node the segment did not support
    /// ends it: nothing below — child or border entry — can hold a count the
    /// node does not.
    fn subtract_walk(
        &mut self,
        nref: NodeRef,
        slot: usize,
        touched: &mut Vec<NodeRef>,
    ) -> Result<()> {
        const DURING: &str = "segment-departure walk";
        let stride = self.stride;
        let node = cell_mut(&mut self.arena, nref).ok_or_else(|| dead_node(DURING))?;
        let (own, border_counts) = node.counts.split_at_mut(stride);
        let gone = mem::take(&mut own[slot]);
        if gone == 0 {
            return Ok(());
        }
        node.support -= Support::from(gone);
        // A subtraction is O(1) integer work on a recorded count, not a
        // support evaluation — it counts as affected, not re-examined.
        self.stats.patterns_affected += 1;
        touched.push(nref);
        for (entry, counts) in node
            .border
            .iter_mut()
            .zip(border_counts.chunks_exact_mut(stride))
        {
            let gone = mem::take(&mut counts[slot]);
            if gone > 0 {
                entry.support -= Support::from(gone);
                self.stats.border_updates += 1;
            }
        }
        // The walk changes supports, never the tree, so the child list is
        // stable under index iteration.
        let mut i = 0;
        while let Some(&child) = self.live(nref, DURING)?.children.get(i) {
            self.subtract_walk(child, slot, touched)?;
            i += 1;
        }
        Ok(())
    }

    /// Adds one arriving segment: a top-down walk intersecting only the
    /// segment's chunks.  A node whose pattern the segment does not support
    /// prunes its whole subtree — and that subtree's border — from the walk
    /// (every tidset below is nested in the node's, so the segment cannot
    /// contribute to any of them), keeping the cost proportional to what the
    /// segment actually touches.  Border entries that cross minsup are
    /// collected for promotion once the walk is done.
    fn add_segment(
        &mut self,
        rows: &[Option<&BitVec>],
        slot: usize,
        crossings: &mut Vec<(NodeRef, EdgeId)>,
    ) -> Result<()> {
        let mut arrival = Arrival {
            rows,
            slot,
            crossings,
        };
        for idx in 0..self.roots.len() {
            if let Some(root) = self.roots[idx] {
                self.add_segment_walk(&mut arrival, root, None, 0)?;
            }
        }
        Ok(())
    }

    /// One node of the arrival walk.  `prefix_chunk` is the parent pattern's
    /// columns within the segment (`None` at a root, whose columns are its
    /// edge's chunk itself — no intersection, the popcount is free).
    fn add_segment_walk(
        &mut self,
        arrival: &mut Arrival<'_>,
        nref: NodeRef,
        prefix_chunk: Option<&BitVec>,
        depth: usize,
    ) -> Result<()> {
        const DURING: &str = "segment-arrival walk";
        // A root reads its own chunk's popcount: a singleton read like the
        // ones a full mine takes from the ingest counters, not a screen.
        self.stats.patterns_reexamined += u64::from(prefix_chunk.is_some());
        let (rows, slot) = (arrival.rows, arrival.slot);
        let edge = self.live(nref, DURING)?.edge;
        let Some(own) = row_of(rows, edge) else {
            return Ok(());
        };
        let mut buf = self.scratch.take(depth);
        let (contrib, chunk) = match prefix_chunk {
            None => (own.count_ones(), own),
            Some(prefix) => (prefix.and_into(own, &mut buf), &buf),
        };
        if contrib > 0 {
            let (minsup, stride) = (self.minsup, self.stride);
            let node = cell_mut(&mut self.arena, nref).ok_or_else(|| dead_node(DURING))?;
            node.support += contrib;
            // Never wraps here or below: a count is at most the segment's
            // width, which `check_cols` saw.
            let (own_counts, border_counts) = node.counts.split_at_mut(stride);
            own_counts[slot] = contrib as u32;
            self.stats.patterns_affected += 1;
            // Border entries ride the same walk: each costs one chunk-sized
            // screen against the arriving segment (entry tidset = node
            // tidset ∧ singleton row, restricted to this segment's columns).
            for (entry, counts) in node
                .border
                .iter_mut()
                .zip(border_counts.chunks_exact_mut(stride))
            {
                let gain = row_of(rows, entry.edge).map_or(0, |row| chunk.and_count(row));
                if gain == 0 {
                    continue;
                }
                let was = entry.support;
                entry.support += gain;
                counts[slot] = gain as u32;
                self.stats.border_updates += 1;
                if was < minsup && entry.support >= minsup {
                    arrival.crossings.push((nref, entry.edge));
                }
            }
            // The walk changes supports, never the tree, so the child list
            // is stable under index iteration.
            let mut i = 0;
            while let Some(&child) = self.live(nref, DURING)?.children.get(i) {
                self.add_segment_walk(arrival, child, Some(chunk), depth + 1)?;
                i += 1;
            }
        }
        self.scratch.put(depth, buf);
        Ok(())
    }

    /// Cuts every touched node whose support fell below minsup, subtree and
    /// all (anti-monotone: no superset can stay frequent), leaving a border
    /// entry on the parent so the reverse crossing can resurrect it exactly.
    /// The departure walk queued parents before children, so a subtree is
    /// cut at its topmost infrequent node.
    fn prune_touched(&mut self, touched: Vec<NodeRef>) -> Result<()> {
        for nref in touched {
            let Some(node) = self.node(nref) else {
                continue; // already freed by an ancestor's prune
            };
            if node.support >= self.minsup {
                continue;
            }
            self.prune_subtree(nref)?;
        }
        Ok(())
    }

    fn prune_subtree(&mut self, nref: NodeRef) -> Result<()> {
        self.stats.subtree_prunes += 1;
        let (edge, support, parent, counts) = {
            let node = self.live_mut(nref, "subtree prune")?;
            (
                node.edge,
                node.support,
                node.parent,
                mem::take(&mut node.counts),
            )
        };
        match parent {
            // A root going infrequent is a singleton crossing; those are
            // re-detected from the snapshot's exact support counters, so no
            // border entry is needed.
            None => self.roots[edge.index()] = None,
            Some(parent) => {
                self.live_mut(parent, "subtree prune")?
                    .children
                    .retain(|c| *c != nref);
                // The pruned node's own counts move onto the border entry,
                // so its support keeps sliding exactly.
                self.arm_border(parent, edge, support, false, &counts[..self.stride])?;
            }
        }
        self.free_subtree(nref);
        Ok(())
    }

    /// Updates the frequent-singleton alphabet against the snapshot's frozen
    /// support counters and returns the edges that newly crossed *up*.
    /// Downward crossings need no work here: every tracked superset lost
    /// support through exact subtraction and was already pruned, and a
    /// border entry's maintained support can never reach minsup while its
    /// singleton's is below it.
    fn detect_singleton_crossings(&mut self, snapshot: &EpochSnapshot) -> Vec<EdgeId> {
        let mut promoted = Vec::new();
        for idx in 0..self.num_items {
            let now = snapshot.singleton_support(idx) >= self.minsup;
            if now == self.frequent[idx] {
                continue;
            }
            self.frequent[idx] = now;
            if now {
                promoted.push(EdgeId::new(idx as u32));
            }
        }
        promoted
    }

    /// Promotes a border entry whose maintained support crossed minsup:
    /// materialises that one candidate's tidset, attaches it — the entry's
    /// counts row becoming the node's own, which is what the materialisation
    /// recounts (debug-asserted) — and re-expands only its subtree (resuming
    /// the interrupted sweep first for `deep` entries).
    fn promote_border(
        &mut self,
        cx: &mut Crossing<'_>,
        parent: NodeRef,
        edge: EdgeId,
    ) -> Result<()> {
        let Some(node) = self.node(parent) else {
            return Ok(()); // parent pruned after the walk queued this crossing
        };
        let Ok(i) = node.border.binary_search_by_key(&edge, |b| b.edge) else {
            return Ok(()); // consumed by an earlier promotion this advance
        };
        let (maintained, deep) = (node.border[i].support, node.border[i].deep);
        if maintained < self.minsup {
            return Ok(());
        }
        let path = self.root_path(parent)?;
        let len = path.len();
        if !self.limits.allows(len + 1) {
            self.remove_border(parent, edge);
            return Ok(());
        }
        // Only grown nodes carry border entries, so the root can be seated.
        if !self.seat_root(&mut cx.hood, path[0])? {
            return Err(FsmError::corrupt(
                "delta state holds a border entry under a root that cannot grow",
            ));
        }
        for &member in &path[1..] {
            cx.hood.push(member)?;
        }
        self.stats.patterns_reexamined += 1;
        let width = cx.segments.len();
        let mut parent_tidset = self.tidsets.take(len, width);
        let mut tidset = self.tidsets.take(len + 1, width);
        // `tidset` doubles as the path assembly's ping-pong buffer.
        cx.intersect(None, path[0], &mut parent_tidset);
        for &member in &path[1..] {
            cx.intersect(Some(&parent_tidset), member, &mut tidset);
            mem::swap(&mut parent_tidset, &mut tidset);
        }
        let support = cx.intersect(Some(&parent_tidset), edge, &mut tidset);
        debug_assert_eq!(
            support, maintained,
            "maintained border support diverged from the materialised tidset"
        );
        debug_assert_eq!(
            self.node(parent)
                .and_then(|node| node.border_rows(self.stride).nth(i))
                .map(|(_, counts)| counts),
            Some(&cx.counts[..]),
            "maintained border counts diverged from the materialised tidset"
        );
        self.remove_border(parent, edge);
        let child = self.attach_child(parent, edge, support, &cx.counts)?;
        self.stats.border_promotions += 1;
        cx.hood.push(edge)?;
        self.expand(cx, child, &tidset, len + 1)?;
        cx.hood.pop();
        self.tidsets.put(len + 1, tidset);
        if deep {
            // Resume the singleton sweep this entry interrupted: the failed
            // screen had skipped the parent's descendants.
            self.sweep_children(cx, parent, &parent_tidset, len, edge)?;
        }
        self.tidsets.put(len, parent_tidset);
        Ok(())
    }

    /// Handles a singleton newly crossing minsup: creates its root (with
    /// full expansion) and sweeps the tree, extending every tracked pattern
    /// that admits `edge` where the screen passes.  Failed screens become
    /// `deep` border entries — the sweep stops there, and a later promotion
    /// resumes it below that point.
    fn promote_singleton(&mut self, cx: &mut Crossing<'_>, edge: EdgeId) -> Result<()> {
        self.stats.singleton_sweeps += 1;
        if !self.limits.allows(1) {
            return Ok(());
        }
        // A root that cannot grow (an edge outside the catalog) cannot
        // extend any tracked pattern either: nothing to sweep.
        if !self.plant_root(cx, edge)? {
            return Ok(());
        }
        // Every pattern's root is its smallest edge, so only the roots before
        // `edge` can hold patterns that admit it.
        let mut tidset = self.tidsets.take(1, cx.segments.len());
        for idx in 0..edge.index() {
            let Some(root) = self.roots[idx] else {
                continue;
            };
            let root_edge = EdgeId::new(idx as u32);
            if !self.seat_root(&mut cx.hood, root_edge)? {
                continue;
            }
            let admission = Admission::at(&cx.hood, edge);
            cx.intersect(None, root_edge, &mut tidset);
            self.sweep_node(cx, root, &tidset, 1, edge, admission)?;
        }
        self.tidsets.put(1, tidset);
        Ok(())
    }

    /// Seats `hood` on the root of singleton `edge`; `false` for a root that
    /// cannot grow (an edge outside the catalog is tracked as a singleton
    /// only).
    fn seat_root(&self, hood: &mut Neighborhood<'_>, edge: EdgeId) -> Result<bool> {
        if edge.index() >= self.catalog_edges {
            return Ok(false);
        }
        hood.seat(edge)?;
        Ok(true)
    }

    /// Creates the root of frequent singleton `edge` — its support and
    /// per-slot counts are its row chunks' popcounts — and, when it can grow
    /// ([`DeltaMiner::seat_root`], the return value), fully expands it.
    fn plant_root(&mut self, cx: &mut Crossing<'_>, edge: EdgeId) -> Result<bool> {
        let mut tidset = self.tidsets.take(1, cx.segments.len());
        let support = cx.intersect(None, edge, &mut tidset);
        debug_assert!(
            support >= self.minsup,
            "a singleton the frozen counters call frequent has {support} set bits"
        );
        let nref = self.alloc(Node::new(edge, None, support, &cx.counts));
        self.roots[edge.index()] = Some(nref);
        self.stats.patterns_affected += 1;
        let grows = self.seat_root(&mut cx.hood, edge)?;
        if grows {
            self.expand(cx, nref, &tidset, 1)?;
        }
        self.tidsets.put(1, tidset);
        Ok(grows)
    }

    /// Full expansion of one node over the currently frequent alphabet: the
    /// materialise-and-count loop of the vertical miners, except failed
    /// screens are remembered as border entries (whose per-slot counts are
    /// the popcounts the materialising kernel returns, which is why there is
    /// no `and_count` pre-screen here).  `cx.hood` is seated on the node and
    /// is back on it when this returns.
    fn expand(
        &mut self,
        cx: &mut Crossing<'_>,
        nref: NodeRef,
        tidset: &[BitVec],
        len: usize,
    ) -> Result<()> {
        if !self.limits.allows(len + 1) {
            return Ok(());
        }
        // Most screens fail: size the border run and its counts rows for
        // every screen up front, one allocation each instead of a doubling
        // series per node.
        let screens = (0..)
            .map_while(|index| cx.hood.candidate(index))
            .filter(|&(edge, canonical)| canonical && self.is_frequent(edge))
            .count();
        let stride = self.stride;
        let node = self.live_mut(nref, "expansion")?;
        node.border.reserve(screens);
        node.counts.reserve(screens * stride);
        let mut buf = self.tidsets.take(len + 1, tidset.len());
        let mut index = 0;
        while let Some((edge, canonical)) = cx.hood.candidate(index) {
            index += 1;
            if !canonical || !self.is_frequent(edge) {
                continue;
            }
            self.stats.patterns_reexamined += 1;
            let support = cx.intersect(Some(tidset), edge, &mut buf);
            if support >= self.minsup {
                let child = self.attach_child(nref, edge, support, &cx.counts)?;
                cx.hood.push(edge)?;
                self.expand(cx, child, &buf, len + 1)?;
                cx.hood.pop();
            } else {
                self.arm_border(nref, edge, support, false, &cx.counts)?;
            }
        }
        self.tidsets.put(len + 1, buf);
        Ok(())
    }

    /// Creates a child node whose own counts row is `counts`.
    fn attach_child(
        &mut self,
        parent: NodeRef,
        edge: EdgeId,
        support: Support,
        counts: &[u32],
    ) -> Result<NodeRef> {
        let child = self.alloc(Node::new(edge, Some(parent), support, counts));
        self.insert_child(parent, child, edge)?;
        self.stats.patterns_affected += 1;
        Ok(child)
    }

    /// One node of a sweep for singleton `edge` that newly became frequent,
    /// with `cx.hood` seated on it; `admission` is this node's (never
    /// [`Admission::Closed`] — callers test that before materialising
    /// `tidset`).
    fn sweep_node(
        &mut self,
        cx: &mut Crossing<'_>,
        nref: NodeRef,
        tidset: &[BitVec],
        len: usize,
        edge: EdgeId,
        admission: Admission,
    ) -> Result<()> {
        if !self.limits.allows(len + 1) {
            return Ok(());
        }
        // When several singletons promote in one advance, an earlier
        // promotion's expansion may already have attached this extension
        // (its frequent flag was raised before any promotion ran).  Such a
        // subtree was built against the current window, so the sweep only
        // needs to keep descending past it.
        let already_attached = self
            .live(nref, "singleton sweep")?
            .children
            .iter()
            .any(|&c| self.node(c).is_some_and(|n| n.edge == edge));
        if admission == Admission::Extend && !already_attached {
            self.stats.patterns_reexamined += 1;
            let mut buf = self.tidsets.take(len + 1, tidset.len());
            let support = cx.intersect(Some(tidset), edge, &mut buf);
            // A fresh exact evaluation supersedes any remembered border
            // entry for this candidate.
            self.remove_border(nref, edge);
            let frequent = support >= self.minsup;
            if frequent {
                let child = self.attach_child(nref, edge, support, &cx.counts)?;
                cx.hood.push(edge)?;
                self.expand(cx, child, &buf, len + 1)?;
                cx.hood.pop();
            } else {
                self.arm_border(nref, edge, support, true, &cx.counts)?;
            }
            self.tidsets.put(len + 1, buf);
            if !frequent {
                // Anti-monotone: no descendant can support the extension
                // either.
                return Ok(());
            }
        }
        self.sweep_children(cx, nref, tidset, len, edge)
    }

    /// Continues a sweep into every child of `nref` under which a pattern
    /// can still admit the swept singleton.
    fn sweep_children(
        &mut self,
        cx: &mut Crossing<'_>,
        nref: NodeRef,
        tidset: &[BitVec],
        len: usize,
        edge: EdgeId,
    ) -> Result<()> {
        const DURING: &str = "singleton sweep";
        let mut buf = self.tidsets.take(len + 1, tidset.len());
        // A sweep attaches nodes only below the children it descends into
        // (`nref`'s own extension was attached before this call), so the
        // child list is stable under index iteration.
        let mut i = 0;
        while let Some(&child) = self.live(nref, DURING)?.children.get(i) {
            i += 1;
            let node = self.live(child, DURING)?;
            let (child_edge, leaf) = (node.edge, node.children.is_empty());
            cx.hood.push(child_edge)?;
            let admission = Admission::at(&cx.hood, edge);
            // A leaf that only passes the sweep through has nothing below it
            // to pass it to: its tidset is never needed.
            let dead_end =
                admission == Admission::Closed || (leaf && admission == Admission::PassThrough);
            if !dead_end {
                cx.intersect(Some(tidset), child_edge, &mut buf);
                self.sweep_node(cx, child, &buf, len + 1, edge, admission)?;
            }
            cx.hood.pop();
        }
        self.tidsets.put(len + 1, buf);
        Ok(())
    }

    // ----- border bookkeeping ----------------------------------------------

    /// Records (or replaces) a border entry on `parent`, its counts row
    /// going in beside it.
    fn arm_border(
        &mut self,
        parent: NodeRef,
        edge: EdgeId,
        support: Support,
        deep: bool,
        counts: &[u32],
    ) -> Result<()> {
        let stride = self.stride;
        let node = cell_mut(&mut self.arena, parent).ok_or_else(|| dead_node("border arming"))?;
        let entry = BorderEntry {
            edge,
            deep,
            support,
        };
        match node.border.binary_search_by_key(&edge, |b| b.edge) {
            Ok(i) => {
                node.border[i] = entry;
                node.counts[(i + 1) * stride..(i + 2) * stride].copy_from_slice(counts);
            }
            Err(i) => {
                node.border.insert(i, entry);
                insert_row(&mut node.counts, (i + 1) * stride, counts);
                self.border_entries += 1;
            }
        }
        Ok(())
    }

    fn remove_border(&mut self, parent: NodeRef, edge: EdgeId) {
        let stride = self.stride;
        let Some(node) = cell_mut(&mut self.arena, parent) else {
            return;
        };
        if let Ok(i) = node.border.binary_search_by_key(&edge, |b| b.edge) {
            node.border.remove(i);
            node.counts.drain((i + 1) * stride..(i + 2) * stride);
            self.border_entries -= 1;
        }
    }

    /// The edges on `nref`'s root path, root first.
    fn root_path(&self, nref: NodeRef) -> Result<Vec<EdgeId>> {
        let mut edges = Vec::new();
        let mut cursor = Some(nref);
        while let Some(r) = cursor {
            let node = self.live(r, "root-path walk")?;
            edges.push(node.edge);
            cursor = node.parent;
        }
        edges.reverse();
        Ok(edges)
    }

    // ----- full rebuild ----------------------------------------------------

    /// Rebuilds the whole state from one snapshot: the same enumeration as
    /// the sequential [`crate::miners::direct::mine_direct`], additionally
    /// recording the per-slot counts and the border set.  Slots are dealt in
    /// window order and the stride restarts at the window's width.
    fn rebuild(
        &mut self,
        snapshot: &EpochSnapshot,
        catalog: &EdgeCatalog,
        minsup: Support,
        limits: MiningLimits,
    ) -> Result<()> {
        for seg in snapshot.segments() {
            check_cols(seg.cols())?;
        }
        self.stats.full_rebuilds = 1;
        self.minsup = minsup;
        self.limits = limits;
        self.catalog_edges = catalog.num_edges();
        self.num_items = snapshot.num_items();
        self.segments = snapshot
            .segments()
            .iter()
            .enumerate()
            .map(|(slot, seg)| Segment {
                uid: seg.uid(),
                cols: seg.cols(),
                slot,
            })
            .collect();
        self.stride = self.segments.len();
        self.free_slots.clear();
        self.arena.clear();
        self.free_cells.clear();
        self.roots.clear();
        self.roots.resize(self.num_items, None);
        self.live_nodes = 0;
        self.border_entries = 0;
        self.frequent = (0..self.num_items)
            .map(|idx| snapshot.singleton_support(idx) >= minsup)
            .collect();
        if !limits.allows(1) {
            return Ok(());
        }
        let tables = snapshot
            .segments()
            .iter()
            .map(|seg| row_table(seg, self.num_items));
        let mut cx = self.crossing(catalog, tables);
        for idx in 0..self.num_items {
            if self.frequent[idx] {
                self.plant_root(&mut cx, EdgeId::new(idx as u32))?;
            }
        }
        Ok(())
    }

    // ----- arena -----------------------------------------------------------

    /// Like [`DeltaMiner::node`] but a dead reference is a corrupt-state
    /// error rather than a silent skip — used where liveness is an invariant
    /// of the maintained structure, not an expected race with pruning.
    fn live(&self, r: NodeRef, during: &str) -> Result<&Node> {
        self.node(r).ok_or_else(|| dead_node(during))
    }

    /// Mutable counterpart of [`DeltaMiner::live`].
    fn live_mut(&mut self, r: NodeRef, during: &str) -> Result<&mut Node> {
        cell_mut(&mut self.arena, r).ok_or_else(|| dead_node(during))
    }

    fn node(&self, r: NodeRef) -> Option<&Node> {
        let cell = self.arena.get(r.idx as usize)?;
        if cell.generation != r.generation {
            return None;
        }
        cell.node.as_ref()
    }

    fn alloc(&mut self, node: Node) -> NodeRef {
        self.live_nodes += 1;
        if let Some(idx) = self.free_cells.pop() {
            let cell = &mut self.arena[idx as usize];
            cell.node = Some(node);
            NodeRef {
                idx,
                generation: cell.generation,
            }
        } else {
            let idx = self.arena.len() as u32;
            self.arena.push(Cell {
                generation: 0,
                node: Some(node),
            });
            NodeRef { idx, generation: 0 }
        }
    }

    fn free_subtree(&mut self, nref: NodeRef) {
        let mut stack = vec![nref];
        while let Some(r) = stack.pop() {
            let Some(node) = self.node(r) else { continue };
            stack.extend(node.children.iter().copied());
            let cell = &mut self.arena[r.idx as usize];
            if let Some(freed) = cell.node.take() {
                self.border_entries -= freed.border.len();
                cell.generation = cell.generation.wrapping_add(1);
                self.free_cells.push(r.idx);
                self.live_nodes -= 1;
            }
        }
    }

    fn insert_child(&mut self, parent: NodeRef, child: NodeRef, edge: EdgeId) -> Result<()> {
        let pos = {
            let node = self.live(parent, "child attachment")?;
            let mut pos = node.children.len();
            for (i, &c) in node.children.iter().enumerate() {
                let child_edge = self.live(c, "child attachment")?.edge;
                debug_assert_ne!(child_edge, edge, "duplicate child");
                if child_edge > edge {
                    pos = i;
                    break;
                }
            }
            pos
        };
        self.live_mut(parent, "child attachment")?
            .children
            .insert(pos, child);
        Ok(())
    }

    // ----- output ----------------------------------------------------------

    fn collect(&self) -> Result<Vec<FrequentPattern>> {
        let mut out = Vec::with_capacity(self.live_nodes);
        let mut prefix = Vec::new();
        for &root in self.roots.iter().flatten() {
            self.collect_node(root, &mut prefix, &mut out)?;
        }
        Ok(out)
    }

    fn collect_node(
        &self,
        nref: NodeRef,
        prefix: &mut Vec<EdgeId>,
        out: &mut Vec<FrequentPattern>,
    ) -> Result<()> {
        let node = self.live(nref, "pattern collection")?;
        prefix.push(node.edge);
        out.push(FrequentPattern::new(
            EdgeSet::from_edges(prefix.iter().copied()),
            node.support,
        ));
        for &child in &node.children {
            self.collect_node(child, prefix, out)?;
        }
        prefix.pop();
        Ok(())
    }

    // ----- self-check ------------------------------------------------------

    /// Recounts what the maintained state keeps incrementally and reports
    /// the first disagreement: every node's and border entry's support is
    /// the sum of its counts row, a free slot reads 0 in every row, border
    /// runs ascend strictly by edge with one counts row each, and the live
    /// node and border entry totals match a walk of the arena.  For tests.
    #[cfg(any(test, debug_assertions))]
    pub fn check_invariants(&self) -> Result<()> {
        let stride = self.stride;
        let broken = |what: String| Err(FsmError::corrupt(format!("delta invariant: {what}")));
        let mut owned = vec![false; stride];
        for seg in &self.segments {
            if seg.slot >= stride || mem::replace(&mut owned[seg.slot], true) {
                return broken(format!("segment {} holds no slot of its own", seg.uid));
            }
        }
        let mut free = self.free_slots.clone();
        free.sort_unstable();
        if !free
            .iter()
            .copied()
            .eq((0..stride).filter(|&slot| !owned[slot]))
        {
            return broken(format!("free slots {free:?} are not the unowned ones"));
        }
        let row_ok = |counts: &[u32], support: Support| {
            counts.iter().map(|&c| Support::from(c)).sum::<Support>() == support
                && free.iter().all(|&slot| counts[slot] == 0)
        };
        let (mut nodes, mut entries) = (0, 0);
        for node in self.arena.iter().filter_map(|cell| cell.node.as_ref()) {
            nodes += 1;
            entries += node.border.len();
            let edge = node.edge;
            if node.counts.len() != (1 + node.border.len()) * stride {
                return broken(format!(
                    "node {edge}: counts table out of step with its border"
                ));
            }
            if !row_ok(&node.counts[..stride], node.support) {
                return broken(format!(
                    "node {edge}: support {} is not its counts' sum",
                    node.support
                ));
            }
            if !node
                .border
                .windows(2)
                .all(|pair| pair[0].edge < pair[1].edge)
            {
                return broken(format!("node {edge}: border run does not ascend"));
            }
            if let Some((entry, _)) = node
                .border_rows(stride)
                .find(|(entry, counts)| !row_ok(counts, entry.support))
            {
                return broken(format!(
                    "border entry {edge}+{}: support {} is not its counts' sum",
                    entry.edge, entry.support
                ));
            }
        }
        if (nodes, entries) != (self.live_nodes, self.border_entries) {
            return broken(format!(
                "{nodes} nodes and {entries} border entries recounted, {} and {} maintained",
                self.live_nodes, self.border_entries
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_segment_wider_than_a_count_is_refused() {
        assert!(check_cols(u32::MAX as usize).is_ok());
        if let Some(too_wide) = (u32::MAX as usize).checked_add(1) {
            assert!(matches!(
                check_cols(too_wide),
                Err(FsmError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn rows_go_into_a_counts_table_in_place() {
        let mut counts = vec![1, 2, 5, 6];
        insert_row(&mut counts, 2, &[3, 4]);
        assert_eq!(counts, [1, 2, 3, 4, 5, 6]);
        insert_row(&mut counts, 6, &[7, 8]);
        insert_row(&mut counts, 0, &[0, 0]);
        assert_eq!(counts, [0, 0, 1, 2, 3, 4, 5, 6, 7, 8]);
    }
}
