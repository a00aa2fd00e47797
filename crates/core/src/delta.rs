//! Delta mining: maintain the frequent-pattern set across window slides
//! instead of re-enumerating the window on every mine.
//!
//! A window slide changes exactly one segment in and one out, so between
//! consecutive epochs the frequent-pattern set differs only where a support
//! count crossed the minimum-support threshold.  The [`DeltaMiner`] exploits
//! this with three pieces of state, all keyed to the frozen
//! [`EpochSnapshot`]s of the capture structure:
//!
//! 1. **Per-segment support contributions.**  Every tracked pattern's support
//!    is stored split by window segment (recorded with
//!    [`fsm_storage::BitVec::count_range`] over the segment column ranges
//!    when the pattern is first materialised).  A departing segment is then
//!    *subtracted* — one integer per pattern the segment actually supported —
//!    and an arriving segment is *added* by a top-down walk over the pattern
//!    tree that intersects only the new segment's chunks, pruning every
//!    subtree the segment does not reach.  Patterns untouched by the slide
//!    are never visited.
//! 2. **A border set, maintained exactly.**  Every enumeration screen that
//!    *fails* (an extension whose support is below minsup) is remembered on
//!    its parent node as a `BorderEntry` carrying its own per-segment
//!    contributions, instead of being forgotten the way a full re-mine
//!    forgets it.  Border supports then ride the same slide machinery as
//!    tracked patterns: a departing segment subtracts its recorded
//!    contribution, and the arrival walk adds one chunk intersection per
//!    entry of each visited node (the entry's tidset is nested in its
//!    parent's, so a skipped subtree provably contributes nothing).  An
//!    entry's support is therefore exact at every epoch — a candidate
//!    promotes at precisely the slide where it crosses minsup, with no
//!    conservative re-counting in between.
//! 3. **Targeted re-expansion.**  Only when a support count crosses minsup
//!    does enumeration run, and only under the affected prefix: a border
//!    crossing materialises that one candidate and re-expands just its
//!    subtree; a singleton crossing up runs a sweep that visits only tree
//!    paths whose screens pass.  Subtrees whose root fell below minsup are
//!    cut in one step (sound by anti-monotonicity), their contribution
//!    records moving onto the border entry left behind for the reverse
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
//! candidates whose support the slide changed), not O(window): a mine
//! call subtracts the departed segment's contribution records, walks the
//! arriving segment's chunks down the tree, and collects the result, each
//! touch costing one segment-sized chunk operation rather than a
//! window-sized row intersection.  The walk allocates like the miners do:
//! one [`ScratchArena`] buffer per depth, reused for every node at that
//! depth, and no per-node collections.
//!
//! The full re-mine stays authoritative: a delta-enabled
//! [`crate::StreamMiner::mine`] is byte-identical to a full one at the same
//! epoch, property-tested across randomized slide sequences in
//! `crates/core/tests/delta_agreement.rs` with a brute-force support recount
//! shadowing the border bookkeeping.

use std::collections::HashMap;

use fsm_dsmatrix::{EpochSnapshot, WindowView};
use fsm_fptree::MiningLimits;
use fsm_storage::{BitVec, EpochSegment, RowRef};
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

/// Generational handle to a pattern-tree slot: stale handles (left behind in
/// contribution indexes after a subtree prune) resolve to `None` instead of
/// aliasing a reused slot.
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
    /// Per-segment support contributions: `(segment uid, count)` for every
    /// window segment with at least one supporting column.  Always sums to
    /// `support`.
    contribs: Vec<(u64, Support)>,
    /// Child nodes, ascending by child edge.
    children: Vec<NodeRef>,
    /// Infrequent extensions of this node, ascending by edge — the border.
    border: Vec<BorderEntry>,
}

impl Node {
    fn new(edge: EdgeId, parent: Option<NodeRef>, support: Support) -> Self {
        Self {
            edge,
            parent,
            support,
            contribs: Vec::new(),
            children: Vec::new(),
            border: Vec::new(),
        }
    }
}

/// An arena slot; `generation` increments on every free so old [`NodeRef`]s
/// die with their node.
#[derive(Debug)]
struct Slot {
    generation: u32,
    node: Option<Node>,
}

/// Borrows only the arena, so callers can update counters and indexes while
/// holding the node.
fn slot_mut(slots: &mut [Slot], r: NodeRef) -> Option<&mut Node> {
    let slot = slots.get_mut(r.idx as usize)?;
    if slot.generation != r.generation {
        return None;
    }
    slot.node.as_mut()
}

fn dead_node(during: &str) -> FsmError {
    FsmError::corrupt(format!(
        "delta state references a dead pattern node during {during}"
    ))
}

/// A remembered failed extension: pattern `parent ∪ {edge}` with its exact
/// support (< minsup until the slide that promotes it) and the per-segment
/// contributions that keep that support exact across slides.
///
/// `seq` uniquely identifies this arming: the per-segment indexes reference
/// entries as `(parent, edge, seq)`, so rows pointing at a superseded entry
/// (re-armed by a sweep, or consumed by a promotion) are skipped instead of
/// corrupting the replacement's support.
///
/// `deep` marks entries created by an interrupted singleton sweep: promotion
/// must resume the sweep below the parent (the failed screen skipped the
/// descendants without recording their own entries), whereas entries from
/// ordinary expansion or subtree prunes re-expand only their own subtree.
#[derive(Debug, Clone)]
struct BorderEntry {
    edge: EdgeId,
    support: Support,
    seq: u64,
    deep: bool,
    /// Per-segment support contributions, like [`Node::contribs`].
    contribs: Vec<(u64, Support)>,
}

/// What one arriving segment's walk accumulates.
struct Arrival<'s> {
    seg: &'s EpochSegment,
    /// Tracked nodes the segment supports (its `contribs` index row).
    records: Vec<NodeRef>,
    /// Border entries the segment supports (its `border_index` row).
    border_records: Vec<(NodeRef, EdgeId, u64)>,
    /// Border entries that crossed minsup, in walk (top-down) order.
    crossings: &'s mut Vec<(NodeRef, EdgeId)>,
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
    /// Window segments the state reflects: `(uid, cols)`, oldest first.
    segments: Vec<(u64, usize)>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Live length-1 patterns, indexed by edge.
    roots: Vec<Option<NodeRef>>,
    /// Per-segment contribution index for tracked patterns: segment uid →
    /// nodes it supports.  The counts live on the nodes; a departing segment
    /// drains its index row and subtracts each node's recorded contribution.
    contribs: HashMap<u64, Vec<NodeRef>>,
    /// Per-segment contribution index for border entries: segment uid →
    /// `(parent, edge, seq)` of entries the segment supports.
    border_index: HashMap<u64, Vec<(NodeRef, EdgeId, u64)>>,
    /// Next border-entry arming sequence number.
    next_seq: u64,
    /// Which singletons are currently frequent (extension alphabet).
    frequent: Vec<bool>,
    /// Intersection buffers, one per tree depth.
    scratch: ScratchArena,
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

    /// Brings the maintained pattern set to `snapshot`'s epoch and returns
    /// every connected collection over `catalog` that is frequent there
    /// (unsorted — [`crate::MiningResult::new`] canonicalises).  Edges
    /// outside the catalog are tracked as singletons and never grown.
    ///
    /// Incremental when the snapshot continues the previously seen window
    /// under the same resolved `minsup` and `limits`; otherwise (first call,
    /// threshold re-resolution, domain or catalog growth, or a window
    /// discontinuity of more than the full window) it falls back to one full
    /// rebuild and records that in [`DeltaStats::full_rebuilds`].
    ///
    /// Precondition: successive calls pass the *same* catalog, grown only by
    /// interning (what [`crate::StreamMiner`] does).  Catalog growth is
    /// detected by its width alone, so a different catalog of equal width
    /// would keep advancing a tree grown over the old adjacency; start a new
    /// `DeltaMiner` to switch catalogs.
    ///
    /// Errors surface a corrupt maintained state ([`FsmError::CorruptStructure`])
    /// instead of panicking, so one tenant's damaged delta state cannot abort
    /// a multi-tenant process.
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
        let metas: Vec<(u64, usize)> = snapshot
            .segments()
            .iter()
            .map(|seg| (seg.uid(), seg.cols()))
            .collect();
        let overlap = self.window_overlap(&metas);
        let contiguous = overlap > 0 || self.segments.is_empty() || metas.is_empty();
        if self.epoch.is_some() && unchanged_config && contiguous {
            self.apply_slides(snapshot, catalog, &metas, overlap)?;
        } else {
            self.rebuild(snapshot, catalog, &metas, minsup, limits)?;
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
    fn window_overlap(&self, metas: &[(u64, usize)]) -> usize {
        let max_k = self.segments.len().min(metas.len());
        (0..=max_k)
            .rev()
            .find(|&k| self.segments[self.segments.len() - k..] == metas[..k])
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
        metas: &[(u64, usize)],
        overlap: usize,
    ) -> Result<()> {
        let departing = self.segments.len() - overlap;
        let arrivals = &snapshot.segments()[overlap..];
        self.stats.slides_applied = departing.max(arrivals.len()) as u64;

        let mut touched = Vec::new();
        for i in 0..departing {
            self.subtract_segment(self.segments[i].0, &mut touched);
        }
        self.segments = metas.to_vec();
        let mut crossings = Vec::new();
        for seg in arrivals {
            self.add_segment(seg, &mut crossings)?;
        }
        self.prune_touched(touched)?;

        // Threshold crossings: only they need row access, so the view (and
        // with it any disk-backend row decoding) is built lazily — a steady
        // slide never touches window rows at all.  The singleton alphabet is
        // refreshed first so the expansions below extend over it.
        let promoted = self.detect_singleton_crossings(snapshot);
        if !promoted.is_empty() || !crossings.is_empty() {
            let view = snapshot.view();
            // One cursor for every expansion of this advance, re-seated per
            // promotion: its per-depth neighbour lists are allocated once.
            let mut hood = Neighborhood::new(catalog);
            for (parent, edge) in crossings {
                self.promote_border(&view, &mut hood, parent, edge)?;
            }
            for edge in promoted {
                self.promote_singleton(snapshot, &view, &mut hood, edge)?;
            }
        }
        Ok(())
    }

    /// Subtracts one departed segment's recorded contributions from tracked
    /// patterns and border entries alike.  Exact: a stored support is always
    /// the sum of its live contribution records, so removal leaves the
    /// support over the remaining segments.
    fn subtract_segment(&mut self, uid: u64, touched: &mut Vec<NodeRef>) {
        for nref in self.contribs.remove(&uid).unwrap_or_default() {
            let Some(node) = self.node_mut(nref) else {
                continue;
            };
            let Some(pos) = node.contribs.iter().position(|(u, _)| *u == uid) else {
                continue;
            };
            let (_, contrib) = node.contribs.remove(pos);
            node.support -= contrib;
            // A subtraction is O(1) integer work on a recorded count, not a
            // support evaluation — it counts as affected, not re-examined.
            self.stats.patterns_affected += 1;
            touched.push(nref);
        }
        for (parent, edge, seq) in self.border_index.remove(&uid).unwrap_or_default() {
            let Some(node) = self.node_mut(parent) else {
                continue;
            };
            let Ok(i) = node.border.binary_search_by_key(&edge, |b| b.edge) else {
                continue;
            };
            let entry = &mut node.border[i];
            if entry.seq != seq {
                continue; // superseded arming; its records died with it
            }
            let Some(pos) = entry.contribs.iter().position(|(u, _)| *u == uid) else {
                continue;
            };
            let (_, contrib) = entry.contribs.remove(pos);
            entry.support -= contrib;
            self.stats.border_updates += 1;
        }
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
        seg: &EpochSegment,
        crossings: &mut Vec<(NodeRef, EdgeId)>,
    ) -> Result<()> {
        let mut arrival = Arrival {
            seg,
            records: Vec::new(),
            border_records: Vec::new(),
            crossings,
        };
        for idx in 0..self.roots.len() {
            if let Some(root) = self.roots[idx] {
                self.add_segment_walk(&mut arrival, root, None, 0)?;
            }
        }
        if !arrival.records.is_empty() {
            self.contribs.insert(seg.uid(), arrival.records);
        }
        if !arrival.border_records.is_empty() {
            self.border_index.insert(seg.uid(), arrival.border_records);
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
        let seg = arrival.seg;
        let edge = self.live(nref, DURING)?.edge;
        let Some(own) = seg.chunk(edge.index()) else {
            return Ok(());
        };
        let mut buf = self.scratch.take(depth);
        let (contrib, chunk) = match prefix_chunk {
            None => (own.count_ones(), own),
            Some(prefix) => (prefix.and_into(own, &mut buf), &buf),
        };
        if contrib > 0 {
            let uid = seg.uid();
            let minsup = self.minsup;
            let node = slot_mut(&mut self.slots, nref).ok_or_else(|| dead_node(DURING))?;
            node.support += contrib;
            node.contribs.push((uid, contrib));
            self.stats.patterns_affected += 1;
            arrival.records.push(nref);
            // Border entries ride the same walk: each costs one chunk-sized
            // screen against the arriving segment (entry tidset = node
            // tidset ∧ singleton row, restricted to this segment's columns).
            for entry in &mut node.border {
                let gain = seg
                    .chunk(entry.edge.index())
                    .map_or(0, |row| chunk.and_count(row));
                if gain == 0 {
                    continue;
                }
                let was = entry.support;
                entry.support += gain;
                entry.contribs.push((uid, gain));
                self.stats.border_updates += 1;
                arrival.border_records.push((nref, entry.edge, entry.seq));
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
        let (edge, support, parent, contribs) = {
            let node = self.live_mut(nref, "subtree prune")?;
            (
                node.edge,
                node.support,
                node.parent,
                std::mem::take(&mut node.contribs),
            )
        };
        match parent {
            // A root going infrequent is a singleton crossing; those are
            // re-detected from the snapshot's exact support counters, so no
            // border entry is needed.
            None => self.roots[edge.index()] = None,
            Some(parent) => {
                if let Some(node) = self.node_mut(parent) {
                    node.children.retain(|c| *c != nref);
                }
                // The pruned node's contribution records move onto the
                // border entry, so its support keeps sliding exactly.
                self.arm_border(parent, edge, support, false, contribs)?;
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
    /// materialises that one candidate's tidset, attaches it, and re-expands
    /// only its subtree (resuming the interrupted sweep first for `deep`
    /// entries).
    fn promote_border(
        &mut self,
        view: &WindowView<'_>,
        hood: &mut Neighborhood<'_>,
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
        self.remove_border(parent, edge);
        if !self.limits.allows(len + 1) {
            return Ok(());
        }
        // Only grown nodes carry border entries, so the root can be seated.
        if !self.seat_root(hood, path[0])? {
            return Err(FsmError::corrupt(
                "delta state holds a border entry under a root that cannot grow",
            ));
        }
        for &member in &path[1..] {
            hood.push(member)?;
        }
        self.stats.patterns_reexamined += 1;
        let mut parent_tidset = self.scratch.take(len);
        let mut tidset = self.scratch.take(len + 1);
        let support = match view.row(edge) {
            // `tidset` doubles as the path assembly's ping-pong buffer.
            Some(row) if assemble_path(view, &path, &mut parent_tidset, &mut tidset) => {
                RowRef::Flat(&parent_tidset).and_into(&row, &mut tidset)
            }
            _ => 0,
        };
        debug_assert_eq!(
            support, maintained,
            "maintained border support diverged from the materialised tidset"
        );
        let child = self.attach_child(parent, edge, support, &tidset)?;
        self.stats.border_promotions += 1;
        hood.push(edge)?;
        self.expand(view, child, &RowRef::Flat(&tidset), hood, len + 1)?;
        hood.pop();
        self.scratch.put(len + 1, tidset);
        if deep {
            // Resume the singleton sweep this entry interrupted: the failed
            // screen had skipped the parent's descendants.
            if let Some(row) = view.row(edge) {
                let tidset = RowRef::Flat(&parent_tidset);
                self.sweep_children(view, parent, &tidset, hood, len, edge, &row)?;
            }
        }
        self.scratch.put(len, parent_tidset);
        Ok(())
    }

    /// Handles a singleton newly crossing minsup: creates its root (with
    /// full expansion) and sweeps the tree, extending every tracked pattern
    /// that admits `edge` where the screen passes.  Failed screens become
    /// `deep` border entries — the sweep stops there, and a later promotion
    /// resumes it below that point.
    fn promote_singleton(
        &mut self,
        snapshot: &EpochSnapshot,
        view: &WindowView<'_>,
        hood: &mut Neighborhood<'_>,
        edge: EdgeId,
    ) -> Result<()> {
        self.stats.singleton_sweeps += 1;
        if !self.limits.allows(1) {
            return Ok(());
        }
        let grows = self.plant_root(snapshot, view, hood, edge)?;
        // A root that cannot grow (an edge outside the catalog) cannot
        // extend any tracked pattern either: nothing to sweep.
        let (true, Some(row)) = (grows, view.row(edge)) else {
            return Ok(());
        };
        // Every pattern's root is its smallest edge, so only the roots before
        // `edge` can hold patterns that admit it.
        for idx in 0..edge.index() {
            let Some(root) = self.roots[idx] else {
                continue;
            };
            let root_edge = EdgeId::new(idx as u32);
            let (true, Some(root_row)) = (self.seat_root(hood, root_edge)?, view.row(root_edge))
            else {
                continue;
            };
            let admission = Admission::at(hood, edge);
            self.sweep_node(view, root, &root_row, hood, 1, edge, &row, admission)?;
        }
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

    /// Creates the root of frequent singleton `edge` and, when it can grow
    /// ([`DeltaMiner::seat_root`], the return value), fully expands it.
    fn plant_root(
        &mut self,
        snapshot: &EpochSnapshot,
        view: &WindowView<'_>,
        hood: &mut Neighborhood<'_>,
        edge: EdgeId,
    ) -> Result<bool> {
        let support = snapshot.singleton_support(edge.index());
        let nref = self.alloc(Node::new(edge, None, support));
        self.roots[edge.index()] = Some(nref);
        self.stats.patterns_affected += 1;
        // Per-segment contributions of a singleton come straight from the
        // snapshot's frozen segment chunks.
        let mut contribs = Vec::new();
        for (seg_idx, &(uid, _)) in self.segments.iter().enumerate() {
            let contrib = snapshot.segment_support(seg_idx, edge.index());
            if contrib > 0 {
                contribs.push((uid, contrib));
            }
        }
        self.set_node_contribs(nref, contribs);
        let grows = self.seat_root(hood, edge)?;
        if let (true, Some(row)) = (grows, view.row(edge)) {
            self.expand(view, nref, &row, hood, 1)?;
        }
        Ok(grows)
    }

    /// Installs a node's contribution records and indexes them per segment.
    fn set_node_contribs(&mut self, nref: NodeRef, contribs: Vec<(u64, Support)>) {
        for &(uid, _) in &contribs {
            self.contribs.entry(uid).or_default().push(nref);
        }
        if let Some(node) = self.node_mut(nref) {
            node.contribs = contribs;
        }
    }

    /// Full expansion of one node over the currently frequent alphabet: the
    /// materialise-and-count loop of the vertical miners, except failed
    /// screens are remembered as border entries (whose per-segment
    /// contributions are split from the materialised tidset, which is why
    /// there is no `and_count` pre-screen here).  `hood` is seated on the
    /// node and is back on it when this returns.
    fn expand(
        &mut self,
        view: &WindowView<'_>,
        nref: NodeRef,
        tidset: &RowRef<'_>,
        hood: &mut Neighborhood<'_>,
        len: usize,
    ) -> Result<()> {
        if !self.limits.allows(len + 1) {
            return Ok(());
        }
        let mut buf = self.scratch.take(len + 1);
        let mut index = 0;
        while let Some((edge, canonical)) = hood.candidate(index) {
            index += 1;
            if !canonical || !self.is_frequent(edge) {
                continue;
            }
            self.stats.patterns_reexamined += 1;
            let Some(row) = view.row(edge) else {
                continue;
            };
            let support = tidset.and_into(&row, &mut buf);
            if support >= self.minsup {
                let child = self.attach_child(nref, edge, support, &buf)?;
                hood.push(edge)?;
                self.expand(view, child, &RowRef::Flat(&buf), hood, len + 1)?;
                hood.pop();
            } else {
                let contribs = self.split_contribs(&buf);
                self.arm_border(nref, edge, support, false, contribs)?;
            }
        }
        self.scratch.put(len + 1, buf);
        Ok(())
    }

    /// Creates a child node with its per-segment contribution records split
    /// from the materialised tidset.
    fn attach_child(
        &mut self,
        parent: NodeRef,
        edge: EdgeId,
        support: Support,
        tidset: &BitVec,
    ) -> Result<NodeRef> {
        let child = self.alloc(Node::new(edge, Some(parent), support));
        self.insert_child(parent, child, edge)?;
        let contribs = self.split_contribs(tidset);
        self.set_node_contribs(child, contribs);
        self.stats.patterns_affected += 1;
        Ok(child)
    }

    /// Splits a snapshot-aligned tidset (column 0 = window column 0) into
    /// per-segment `(uid, count)` contributions.
    fn split_contribs(&self, tidset: &BitVec) -> Vec<(u64, Support)> {
        let mut out = Vec::new();
        let mut start = 0usize;
        for &(uid, cols) in &self.segments {
            let contrib = tidset.count_range(start, start + cols);
            if contrib > 0 {
                out.push((uid, contrib));
            }
            start += cols;
        }
        out
    }

    /// One node of a sweep for singleton `edge` that newly became frequent,
    /// with `hood` seated on it; `admission` is this node's (never
    /// [`Admission::Closed`] — callers test that before materialising
    /// `tidset`).
    #[allow(clippy::too_many_arguments)]
    fn sweep_node(
        &mut self,
        view: &WindowView<'_>,
        nref: NodeRef,
        tidset: &RowRef<'_>,
        hood: &mut Neighborhood<'_>,
        len: usize,
        edge: EdgeId,
        row: &RowRef<'_>,
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
            let mut buf = self.scratch.take(len + 1);
            let support = tidset.and_into(row, &mut buf);
            // A fresh exact evaluation supersedes any remembered border
            // entry for this candidate.
            self.remove_border(nref, edge);
            let frequent = support >= self.minsup;
            if frequent {
                let child = self.attach_child(nref, edge, support, &buf)?;
                hood.push(edge)?;
                self.expand(view, child, &RowRef::Flat(&buf), hood, len + 1)?;
                hood.pop();
            } else {
                let contribs = self.split_contribs(&buf);
                self.arm_border(nref, edge, support, true, contribs)?;
            }
            self.scratch.put(len + 1, buf);
            if !frequent {
                // Anti-monotone: no descendant can support the extension
                // either.
                return Ok(());
            }
        }
        self.sweep_children(view, nref, tidset, hood, len, edge, row)
    }

    /// Continues a sweep into every child of `nref` under which a pattern
    /// can still admit the swept singleton.
    #[allow(clippy::too_many_arguments)]
    fn sweep_children(
        &mut self,
        view: &WindowView<'_>,
        nref: NodeRef,
        tidset: &RowRef<'_>,
        hood: &mut Neighborhood<'_>,
        len: usize,
        edge: EdgeId,
        row: &RowRef<'_>,
    ) -> Result<()> {
        const DURING: &str = "singleton sweep";
        let mut buf = self.scratch.take(len + 1);
        // A sweep attaches nodes only below the children it descends into
        // (`nref`'s own extension was attached before this call), so the
        // child list is stable under index iteration.
        let mut i = 0;
        while let Some(&child) = self.live(nref, DURING)?.children.get(i) {
            i += 1;
            let node = self.live(child, DURING)?;
            let (child_edge, leaf) = (node.edge, node.children.is_empty());
            hood.push(child_edge)?;
            let admission = Admission::at(hood, edge);
            // A leaf that only passes the sweep through has nothing below it
            // to pass it to: its tidset is never needed.
            let dead_end =
                admission == Admission::Closed || (leaf && admission == Admission::PassThrough);
            let child_row = if dead_end { None } else { view.row(child_edge) };
            if let Some(child_row) = child_row {
                tidset.and_into(&child_row, &mut buf);
                let child_tidset = RowRef::Flat(&buf);
                self.sweep_node(
                    view,
                    child,
                    &child_tidset,
                    hood,
                    len + 1,
                    edge,
                    row,
                    admission,
                )?;
            }
            hood.pop();
        }
        self.scratch.put(len + 1, buf);
        Ok(())
    }

    // ----- border bookkeeping ----------------------------------------------

    /// Records (or replaces) a border entry on `parent` with a fresh arming
    /// sequence, indexing its contributions per segment.  Replacement
    /// invalidates the superseded arming's index rows via the sequence
    /// mismatch.
    fn arm_border(
        &mut self,
        parent: NodeRef,
        edge: EdgeId,
        support: Support,
        deep: bool,
        contribs: Vec<(u64, Support)>,
    ) -> Result<()> {
        if self.node(parent).is_none() {
            return Ok(());
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        for &(uid, _) in &contribs {
            self.border_index
                .entry(uid)
                .or_default()
                .push((parent, edge, seq));
        }
        let entry = BorderEntry {
            edge,
            support,
            seq,
            deep,
            contribs,
        };
        let node = self.live_mut(parent, "border arming")?;
        match node.border.binary_search_by_key(&edge, |b| b.edge) {
            Ok(i) => node.border[i] = entry,
            Err(i) => {
                node.border.insert(i, entry);
                self.border_entries += 1;
            }
        }
        Ok(())
    }

    fn remove_border(&mut self, parent: NodeRef, edge: EdgeId) {
        let Some(node) = self.node_mut(parent) else {
            return;
        };
        if let Ok(i) = node.border.binary_search_by_key(&edge, |b| b.edge) {
            node.border.remove(i);
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
    /// materialising the per-segment contribution records and the border
    /// set.
    fn rebuild(
        &mut self,
        snapshot: &EpochSnapshot,
        catalog: &EdgeCatalog,
        metas: &[(u64, usize)],
        minsup: Support,
        limits: MiningLimits,
    ) -> Result<()> {
        self.stats.full_rebuilds = 1;
        self.minsup = minsup;
        self.limits = limits;
        self.catalog_edges = catalog.num_edges();
        self.num_items = snapshot.num_items();
        self.segments = metas.to_vec();
        self.slots.clear();
        self.free.clear();
        self.roots.clear();
        self.roots.resize(self.num_items, None);
        self.contribs.clear();
        self.border_index.clear();
        self.live_nodes = 0;
        self.border_entries = 0;
        self.frequent = (0..self.num_items)
            .map(|idx| snapshot.singleton_support(idx) >= minsup)
            .collect();
        if !limits.allows(1) {
            return Ok(());
        }
        let view = snapshot.view();
        let mut hood = Neighborhood::new(catalog);
        for idx in 0..self.num_items {
            if self.frequent[idx] {
                self.plant_root(snapshot, &view, &mut hood, EdgeId::new(idx as u32))?;
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
        self.node_mut(r).ok_or_else(|| dead_node(during))
    }

    fn node(&self, r: NodeRef) -> Option<&Node> {
        let slot = self.slots.get(r.idx as usize)?;
        if slot.generation != r.generation {
            return None;
        }
        slot.node.as_ref()
    }

    fn node_mut(&mut self, r: NodeRef) -> Option<&mut Node> {
        slot_mut(&mut self.slots, r)
    }

    fn alloc(&mut self, node: Node) -> NodeRef {
        self.live_nodes += 1;
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            slot.node = Some(node);
            NodeRef {
                idx,
                generation: slot.generation,
            }
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot {
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
            let slot = &mut self.slots[r.idx as usize];
            if let Some(freed) = slot.node.take() {
                self.border_entries -= freed.border.len();
                slot.generation = slot.generation.wrapping_add(1);
                self.free.push(r.idx);
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
}

/// Materialises the tidset of the pattern `path` into `out` by intersecting
/// its rows (`scratch` is the ping-pong buffer).  Returns `false` if any row
/// is unavailable — the pattern then has support 0 at this epoch.
fn assemble_path(
    view: &WindowView<'_>,
    path: &[EdgeId],
    out: &mut BitVec,
    scratch: &mut BitVec,
) -> bool {
    let Some(first) = view.row(path[0]) else {
        return false;
    };
    first.assemble_into(out);
    for &edge in &path[1..] {
        let Some(row) = view.row(edge) else {
            return false;
        };
        RowRef::Flat(out).and_into(&row, scratch);
        std::mem::swap(out, scratch);
    }
    true
}
