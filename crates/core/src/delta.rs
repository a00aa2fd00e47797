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
//!    a full re-mine forgets it.  A node's entries are one contiguous run of
//!    its root's slab, ascending by edge, each beside its row of per-slot
//!    counts — no entry, and no node, owns an allocation for them.  Border
//!    supports ride the same two walks as tracked patterns: a departure
//!    sweeps the run taking `counts[slot]`, an arrival adds one chunk
//!    intersection per entry of each visited node.  An entry's support is
//!    therefore exact at every epoch — a candidate promotes at precisely the
//!    slide where it crosses minsup, with no conservative re-counting in
//!    between.
//! 3. **Targeted re-expansion, in segment coordinates.**  Only when a support
//!    count crosses minsup does enumeration run, and only under the affected
//!    prefix: a border crossing materialises that one candidate and
//!    re-expands just its subtree; a singleton crossing up runs a sweep that
//!    visits only tree paths whose screens pass.  A path's tidset is held as
//!    one chunk per window segment (bit 0 = the segment's first column) and
//!    screened against the segments' own row chunks with the arrival walk's
//!    kernels, so the per-slot split of a screen is the popcounts the kernel
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
//! filtered away on collection.  (The full re-mine skips the canonical
//! neighbours a node's parent already failed; the border is those failed
//! screens, so the delta walks every one.)  Canonical growth sequences are
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
//! # Fan-out
//!
//! The tree is a forest: every node's root path starts at its root, and no
//! operation of an advance under one root reads or writes another root's
//! subtree — the walks descend from a root, a crossing re-expands below its
//! own parent, a sweep for a newly frequent edge visits each older root on
//! its own.  So every root owns its subtree outright (node arena and free
//! list, a slab of border entries and counts rows, live and border totals),
//! and an advance is split in two: a *prelude* on the caller, once — window
//! overlap, slot assignment, the frequent-singleton alphabet, every window
//! segment's row table — and one task per root on the caller's [`Exec`],
//! the fan-out [`crate::miners::direct::mine_direct`] runs per frequent
//! singleton.  A task runs its root's departure and arrival walks, its
//! prunes, its border promotions, its sweeps for the singletons that newly
//! crossed (ascending) and its collection, in the order a single-threaded
//! advance would apply them to that root, and returns the root's
//! [`DeltaStats`]; patterns merge back in root order and counters add up,
//! so trees, patterns and statistics are byte-identical for every pool
//! shape.  The inline pool runs the same tasks one after another.
//!
//! Steady state — no threshold crossings — costs O(patterns and border
//! candidates whose support the slide changed), not O(window): a mine call
//! walks the departed segment's slot and the arriving segment's chunks down
//! the tree and collects the result, each touch costing one integer or one
//! segment-sized chunk operation rather than a window-sized row
//! intersection.  The walks allocate like the miners do: each participant
//! of the fan-out owns one buffer per depth ([`ScratchArena`] for an
//! arrival, one chunk per segment for a crossing, one neighbour list for
//! its cursor), reused for every node at that depth and parked on the miner
//! between advances, and no per-node, per-entry or per-root collections.
//! Every segment's rows are resolved once per advance into a dense
//! edge-indexed table, so a screen is an array index away from its operand;
//! a candidate screen is a count, and only a screen that passes writes its
//! tidset.
//!
//! The full re-mine stays authoritative: a delta-enabled
//! [`crate::StreamMiner::mine`] is byte-identical to a full one at the same
//! epoch, property-tested across randomized slide sequences in
//! `crates/core/tests/delta_agreement.rs` with a brute-force support recount
//! shadowing the border bookkeeping.

use std::mem;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};

use fsm_dsmatrix::EpochSnapshot;
use fsm_fptree::MiningLimits;
use fsm_storage::{BitSlice, BitVec, EpochSegment};
use fsm_types::{EdgeCatalog, EdgeId, EdgeSet, FrequentPattern, FsmError, Result, Support};

use crate::instrument::DeltaStats;
use crate::neighborhood::{HoodBuffers, Neighborhood};
use crate::parallel::Exec;
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

/// Generational handle to a node of one root's arena: stale handles (a
/// queued crossing or prune candidate whose subtree was cut meanwhile)
/// resolve to `None` instead of aliasing a reused arena cell.
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
    /// The node's rows in its subtree's [`Slab`]: its own per-slot counts
    /// and its border — its infrequent extensions, ascending by edge.
    run: Run,
}

impl Node {
    fn new(edge: EdgeId, parent: Option<NodeRef>, support: Support, run: Run) -> Self {
        Self {
            edge,
            parent,
            support,
            children: Vec::new(),
            run,
        }
    }
}

/// A node's rows in its subtree's [`Slab`]: `1 + cap` consecutive rows from
/// `start`.  Row `start` holds the node's own per-slot counts, rows
/// `start + 1 ..= start + len` its border entries with theirs, and the rest
/// is room for the border to grow into.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: usize,
    len: usize,
    cap: usize,
}

impl Run {
    /// The border rows.
    fn border(self) -> Range<usize> {
        self.start + 1..self.start + 1 + self.len
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
/// that keep the support exact across slides are the counts row beside it
/// in the parent's [`Run`].
///
/// `deep` marks entries created by an interrupted singleton sweep: promotion
/// must resume the sweep below the parent (the failed screen skipped the
/// descendants without recording their own entries), whereas entries from
/// ordinary expansion or subtree prunes re-expand only their own subtree.
#[derive(Debug, Clone, Copy, Default)]
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
/// advance from [`EpochSegment::rows`] — each borrowed from the segment's
/// arena; a row the segment never saw is `None` and reads as zeros.
type RowTable<'s> = Vec<Option<BitSlice<'s>>>;

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
fn row_of<'s>(rows: &[Option<BitSlice<'s>>], edge: EdgeId) -> Option<BitSlice<'s>> {
    rows.get(edge.index()).copied().flatten()
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

/// Inserts `row` into the flat `counts` table at offset `at`, in place:
/// `counts[at..end]` moves up by one row into room the table already has.
fn insert_row(counts: &mut [u32], at: usize, end: usize, row: &[u32]) {
    counts.copy_within(at..end, at + row.len());
    counts[at..at + row.len()].copy_from_slice(row);
}

/// Every node's counts rows and border entries under one root, in two flat
/// tables: row `i` is `entries[i]` (a placeholder on a node's own row)
/// beside `counts[i * stride..(i + 1) * stride]`, and every node owns one
/// [`Run`] of rows.  A subtree's hot state is thus a few large blocks
/// rather than three small ones per node: a walk reads along them, a write
/// lands where only this root's task writes, and the tables are grown, not
/// allocated, per node.  A run that outgrows its room moves to the end;
/// the rows it left, and those of freed nodes, are dead until the slab is
/// compacted.
#[derive(Debug, Default)]
struct Slab {
    entries: Vec<BorderEntry>,
    counts: Vec<u32>,
    /// Rows no live run covers.
    dead: usize,
}

impl Slab {
    fn clear(&mut self) {
        self.entries.clear();
        self.counts.clear();
        self.dead = 0;
    }

    fn heap_bytes(&self) -> usize {
        self.entries.capacity() * mem::size_of::<BorderEntry>()
            + self.counts.capacity() * mem::size_of::<u32>()
    }

    /// A new run at the end, holding the own counts row `own` and no border.
    fn open(&mut self, own: &[u32]) -> Run {
        let start = self.entries.len();
        self.entries.push(BorderEntry::default());
        self.counts.extend_from_slice(own);
        Run {
            start,
            len: 0,
            cap: 0,
        }
    }

    /// Where `edge` is, or would go, in `run`'s border.
    fn find(&self, run: Run, edge: EdgeId) -> std::result::Result<usize, usize> {
        self.entries[run.border()].binary_search_by_key(&edge, |b| b.edge)
    }

    /// The run's own counts row.
    fn own(&self, run: Run, stride: usize) -> &[u32] {
        &self.counts[run.start * stride..(run.start + 1) * stride]
    }

    /// The run's border entries, each beside its counts row.
    fn border(&self, run: Run, stride: usize) -> impl Iterator<Item = (&BorderEntry, &[u32])> {
        let rows = run.border();
        self.entries[rows.clone()]
            .iter()
            .zip(self.counts[rows.start * stride..rows.end * stride].chunks_exact(stride))
    }

    /// The run's own counts row, border entries and their counts rows, all
    /// writable.
    fn run_mut(&mut self, run: Run, stride: usize) -> (&mut [u32], &mut [BorderEntry], &mut [u32]) {
        let rows = run.border();
        let (own, border) = self.counts[run.start * stride..rows.end * stride].split_at_mut(stride);
        (own, &mut self.entries[rows], border)
    }

    /// Makes room in `run` for `extra` more border entries: in place when the
    /// run is the last one, otherwise by moving it to the end with room to
    /// double.
    fn reserve(&mut self, run: &mut Run, extra: usize, stride: usize) {
        let want = run.len + extra;
        if want <= run.cap {
            return;
        }
        let (used, end) = (run.start + 1 + run.len, run.start + 1 + run.cap);
        let cap = want.max(2 * run.cap);
        let start = if end == self.entries.len() {
            run.start
        } else {
            self.entries.len()
        };
        let rows = start + 1 + cap;
        self.entries.resize(rows, BorderEntry::default());
        self.counts.resize(rows * stride, 0);
        if start != run.start {
            self.entries.copy_within(run.start..used, start);
            self.counts
                .copy_within(run.start * stride..used * stride, start * stride);
            self.dead += 1 + run.cap;
            run.start = start;
        }
        run.cap = cap;
    }

    /// Inserts `entry` with its counts `row` at position `i` of `run`'s
    /// border.
    fn insert(&mut self, run: &mut Run, i: usize, entry: BorderEntry, row: &[u32], stride: usize) {
        self.reserve(run, 1, stride);
        let (at, end) = (run.start + 1 + i, run.start + 1 + run.len);
        self.entries.copy_within(at..end, at + 1);
        self.entries[at] = entry;
        insert_row(&mut self.counts, at * stride, end * stride, row);
        run.len += 1;
    }

    /// Removes position `i` of `run`'s border.
    fn remove(&mut self, run: &mut Run, i: usize, stride: usize) {
        let (at, end) = (run.start + 1 + i, run.start + 1 + run.len);
        self.entries.copy_within(at + 1..end, at);
        self.counts
            .copy_within((at + 1) * stride..end * stride, at * stride);
        run.len -= 1;
    }

    /// Grows every row from `old` to `width` slots, in place (back to front,
    /// so no row is overwritten before it moved).  The new slots read 0.
    fn widen(&mut self, old: usize, width: usize) {
        if width <= old {
            return;
        }
        let rows = self.entries.len();
        self.counts.resize(rows * width, 0);
        for row in (0..rows).rev() {
            self.counts
                .copy_within(row * old..(row + 1) * old, row * width);
            self.counts[row * width + old..(row + 1) * width].fill(0);
        }
    }

    /// Moves the live runs of `arena` down over the dead rows, in slab
    /// order, and drops the tail, keeping the capacity for the rows to come
    /// (giving it back and growing again costs more resident memory than
    /// it saves); `order` is a buffer.
    fn compact(&mut self, arena: &mut [Cell], order: &mut Vec<u32>, stride: usize) {
        order.clear();
        order.extend(
            arena
                .iter()
                .enumerate()
                .filter(|(_, cell)| cell.node.is_some())
                .map(|(idx, _)| idx as u32),
        );
        let run_of = |cell: &Cell| cell.node.as_ref().map_or(0, |node| node.run.start);
        order.sort_unstable_by_key(|&idx| run_of(&arena[idx as usize]));
        let mut to = 0;
        for &idx in order.iter() {
            if let Some(node) = arena[idx as usize].node.as_mut() {
                let rows = 1 + node.run.cap;
                let from = node.run.start;
                self.entries.copy_within(from..from + rows, to);
                self.counts
                    .copy_within(from * stride..(from + rows) * stride, to * stride);
                node.run.start = to;
                to += rows;
            }
        }
        self.entries.truncate(to);
        self.counts.truncate(to * stride);
        self.dead = 0;
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The pattern tree under one root: a frequent singleton and every tracked
/// collection whose smallest edge it is.  It shares nothing with the other
/// roots' trees, so an advance hands each root to its own task.
#[derive(Debug, Default)]
struct Subtree {
    root: Option<NodeRef>,
    arena: Vec<Cell>,
    free_cells: Vec<u32>,
    live_nodes: usize,
    border_entries: usize,
    slab: Slab,
    /// The root's patterns as its latest task collected them, until the
    /// advance moves them into its result (the buffer stays for the next).
    patterns: Vec<FrequentPattern>,
}

impl Subtree {
    /// Drops every node, keeping the buffers.
    fn clear(&mut self) {
        self.root = None;
        self.arena.clear();
        self.free_cells.clear();
        self.live_nodes = 0;
        self.border_entries = 0;
        self.slab.clear();
    }

    fn heap_bytes(&self) -> usize {
        let children: usize = self
            .arena
            .iter()
            .filter_map(|cell| cell.node.as_ref())
            .map(|node| node.children.capacity() * mem::size_of::<NodeRef>())
            .sum();
        children
            + self.arena.capacity() * mem::size_of::<Cell>()
            + self.free_cells.capacity() * mem::size_of::<u32>()
            + self.slab.heap_bytes()
            + self.patterns.capacity() * mem::size_of::<FrequentPattern>()
    }

    /// Compacts the slab once a quarter of its rows are dead, so it grows
    /// only with the live state; `order` is a buffer.
    fn tidy(&mut self, order: &mut Vec<u32>, stride: usize) {
        if 4 * self.slab.dead > self.slab.entries.len() {
            self.slab.compact(&mut self.arena, order, stride);
        }
    }

    fn node(&self, r: NodeRef) -> Option<&Node> {
        let cell = self.arena.get(r.idx as usize)?;
        if cell.generation != r.generation {
            return None;
        }
        cell.node.as_ref()
    }

    /// Like [`Subtree::node`] but a dead reference is a corrupt-state error
    /// rather than a silent skip — used where liveness is an invariant of
    /// the maintained structure, not an expected race with pruning.
    fn live(&self, r: NodeRef, during: &str) -> Result<&Node> {
        self.node(r).ok_or_else(|| dead_node(during))
    }

    /// Mutable counterpart of [`Subtree::live`].
    fn live_mut(&mut self, r: NodeRef, during: &str) -> Result<&mut Node> {
        cell_mut(&mut self.arena, r).ok_or_else(|| dead_node(during))
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
        let Some(cell) = self
            .arena
            .get_mut(nref.idx as usize)
            .filter(|cell| cell.generation == nref.generation)
        else {
            return;
        };
        let Some(freed) = cell.node.take() else {
            return;
        };
        cell.generation = cell.generation.wrapping_add(1);
        self.free_cells.push(nref.idx);
        self.live_nodes -= 1;
        self.border_entries -= freed.run.len;
        self.slab.dead += 1 + freed.run.cap;
        for child in freed.children {
            self.free_subtree(child);
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

    /// Makes room in `nref`'s border for `extra` more entries.
    fn reserve_border(&mut self, nref: NodeRef, extra: usize, stride: usize) -> Result<()> {
        let node = cell_mut(&mut self.arena, nref).ok_or_else(|| dead_node("expansion"))?;
        self.slab.reserve(&mut node.run, extra, stride);
        Ok(())
    }

    /// Records (or replaces) a border entry on `parent`, its counts row
    /// going in beside it.
    fn arm_border(
        &mut self,
        parent: NodeRef,
        entry: BorderEntry,
        counts: &[u32],
        stride: usize,
    ) -> Result<()> {
        let node = cell_mut(&mut self.arena, parent).ok_or_else(|| dead_node("border arming"))?;
        let run = &mut node.run;
        match self.slab.find(*run, entry.edge) {
            Ok(i) => {
                let row = run.start + 1 + i;
                self.slab.entries[row] = entry;
                self.slab.counts[row * stride..(row + 1) * stride].copy_from_slice(counts);
            }
            Err(i) => {
                self.slab.insert(run, i, entry, counts, stride);
                self.border_entries += 1;
            }
        }
        Ok(())
    }

    fn remove_border(&mut self, parent: NodeRef, edge: EdgeId, stride: usize) {
        let Some(node) = cell_mut(&mut self.arena, parent) else {
            return;
        };
        let run = &mut node.run;
        if let Ok(i) = self.slab.find(*run, edge) {
            self.slab.remove(run, i, stride);
            self.border_entries -= 1;
        }
    }

    /// Writes the edges on `nref`'s root path into `edges`, root first.
    fn root_path(&self, nref: NodeRef, edges: &mut Vec<EdgeId>) -> Result<()> {
        edges.clear();
        let mut cursor = Some(nref);
        while let Some(r) = cursor {
            let node = self.live(r, "root-path walk")?;
            edges.push(node.edge);
            cursor = node.parent;
        }
        edges.reverse();
        Ok(())
    }

    /// Refills [`Subtree::patterns`] with the tree's collections, preorder,
    /// children ascending — `prefix` is a buffer for the root paths.
    fn collect(&mut self, prefix: &mut Vec<EdgeId>) -> Result<()> {
        let mut out = mem::take(&mut self.patterns);
        out.clear();
        prefix.clear();
        let collected = match self.root {
            Some(root) => self.collect_node(root, prefix, &mut out),
            None => Ok(()),
        };
        self.patterns = out;
        collected
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

/// One participant's reusable buffers, parked on the miner between
/// advances so a steady advance grows none of them again.
#[derive(Debug, Default)]
struct Workspace {
    /// The enumeration cursor's neighbour lists, one per depth.
    hood: HoodBuffers,
    /// Intersection buffers of the arrival walk, one per tree depth.
    scratch: ScratchArena,
    /// Tidset buffers of the crossings, one per tree depth.
    tidsets: TidsetArena,
    /// Per-slot split of the latest screen, one count per slot; slots no
    /// segment owns stay 0.
    counts: Vec<u32>,
    /// Nodes the task's departure walks touched, parents first: the prune
    /// queue.
    touched: Vec<NodeRef>,
    /// Border entries the task's arrival walks saw cross minsup, in walk
    /// order: the promotion queue.
    crossings: Vec<(NodeRef, EdgeId)>,
    /// A root path: the promoted node's, or the collected pattern's prefix.
    path: Vec<EdgeId>,
    /// Arena cells in slab order, for a compaction.
    order: Vec<u32>,
}

impl Workspace {
    fn heap_bytes(&self) -> usize {
        self.hood.heap_bytes()
            + self.scratch.heap_bytes()
            + self.tidsets.heap_bytes()
            + self.counts.capacity() * mem::size_of::<u32>()
            + self.touched.capacity() * mem::size_of::<NodeRef>()
            + self.crossings.capacity() * mem::size_of::<(NodeRef, EdgeId)>()
            + self.path.capacity() * mem::size_of::<EdgeId>()
            + self.order.capacity() * mem::size_of::<u32>()
    }
}

/// One participant of an advance's fan-out: the workspace it took from the
/// miner's stash, its cursor grown into the workspace's lists, both handed
/// back when the worker is dropped, and what its roots' tasks returned.
struct Worker<'a> {
    hood: Neighborhood<'a>,
    ws: Workspace,
    stash: &'a Mutex<Vec<Workspace>>,
    /// Whether the [`Dealer`] deals this participant the front roots.
    front: bool,
    /// The counters of every root this participant ran, merged.
    stats: DeltaStats,
    /// The lowest root whose task failed here, and why.
    failed: Option<(usize, FsmError)>,
}

impl<'a> Worker<'a> {
    fn new(
        catalog: &'a EdgeCatalog,
        stash: &'a Mutex<Vec<Workspace>>,
        stride: usize,
        front: bool,
    ) -> Self {
        let mut ws = lock(stash).pop().unwrap_or_default();
        // The slots segments own changed since the workspace was parked.
        ws.counts.clear();
        ws.counts.resize(stride, 0);
        Self {
            hood: Neighborhood::with_buffers(catalog, mem::take(&mut ws.hood)),
            ws,
            stash,
            front,
            stats: DeltaStats::default(),
            failed: None,
        }
    }
}

impl Drop for Worker<'_> {
    fn drop(&mut self) {
        self.ws.hood = self.hood.take_buffers();
        lock(self.stash).push(mem::take(&mut self.ws));
    }
}

/// Keeps `job`'s failure in `lowest` unless a lower job's is there.
fn keep_lowest(lowest: &mut Option<(usize, FsmError)>, job: usize, err: FsmError) {
    if lowest.as_ref().is_none_or(|&(at, _)| job < at) {
        *lowest = Some((job, err));
    }
}

/// Deals an advance's roots out to its participants from both ends of the
/// root order: the calling thread takes them from the front, every helper
/// from the back.  Which participant runs a root changes nothing in the
/// result, which is merged in root order, but which core runs it changes
/// its cost: every advance writes a root's state, so a root the same core
/// ran last time is still in that core's cache.  Dealt from one counter,
/// the roots alternate between participants and most of them change cores
/// on every advance; dealt from two ends, only those near where the ends
/// meet do.
struct Dealer {
    /// `front << 32 | back`: the roots `front..back` are still to deal.
    ends: AtomicU64,
    caller: ThreadId,
}

impl Dealer {
    /// Deals `roots` (at most one per edge id, so they fit 32 bits) to
    /// participants of a batch run from the current thread.
    fn new(roots: usize) -> Self {
        Self {
            ends: AtomicU64::new(roots as u64),
            caller: thread::current().id(),
        }
    }

    /// Whether the current thread is the one that takes the front roots.
    fn deals_front(&self) -> bool {
        thread::current().id() == self.caller
    }

    /// The next root, from the front or the back.  Called once per task of
    /// a batch of `roots` tasks, so the range is never empty.  The ends
    /// publish nothing — a root's state is behind its own lock — so the
    /// exchange is relaxed.
    fn deal(&self, front: bool) -> usize {
        let mut ends = self.ends.load(Ordering::Relaxed);
        loop {
            let (lo, hi) = (ends >> 32, ends & u64::from(u32::MAX));
            let (root, next) = if front {
                (lo, ((lo + 1) << 32) | hi)
            } else {
                (hi - 1, (lo << 32) | (hi - 1))
            };
            match self
                .ends
                .compare_exchange_weak(ends, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return root as usize,
                Err(now) => ends = now,
            }
        }
    }
}

/// What the prelude of one advance decided, beyond what it wrote into the
/// miner itself: the steps every root's task applies.
struct Prelude {
    /// Slots of the departed segments, oldest first.
    departed: Vec<usize>,
    /// Counts-row length before the advance (the miner holds the new one).
    old_stride: usize,
    /// Number of window segments the state already held: the arrivals are
    /// the window's segments from here on.
    kept: usize,
    /// Singletons whose roots the advance plants, ascending.
    planted: Vec<EdgeId>,
    /// Whether each planted singleton also sweeps the roots before it: an
    /// incremental advance's do, a rebuild plants every root and has
    /// nothing older to sweep.
    sweep: bool,
}

impl Prelude {
    /// Nothing to apply: an advance to the epoch the state already holds,
    /// `kept` segments wide, its counts rows `stride` long.
    fn collect_only(kept: usize, stride: usize) -> Self {
        Self {
            departed: Vec::new(),
            old_stride: stride,
            kept,
            planted: Vec::new(),
            sweep: false,
        }
    }
}

/// What every root's task of one advance reads: the prelude's steps, the
/// state's parameters and the window in segment coordinates.
///
/// A crossing's tidset is one chunk per window segment, oldest first, bit 0
/// = the segment's first column — the layout the segments' own row chunks
/// have, so a screen is a chunk kernel per segment and its per-slot split is
/// the popcounts it returns.
struct Plan<'a> {
    steps: Prelude,
    minsup: Support,
    limits: MiningLimits,
    /// Width of the catalog the tree grows over: a root at or past it is a
    /// singleton that cannot grow.
    catalog_edges: usize,
    /// Which singletons are frequent at the new epoch (extension alphabet).
    frequent: &'a [bool],
    /// Counts-row length after the advance: the widest window seen since
    /// the last rebuild.
    stride: usize,
    /// `(slot, rows)` of every window segment, oldest first; empty when the
    /// advance reads no segment.
    window: Vec<(usize, RowTable<'a>)>,
}

impl<'a> Plan<'a> {
    /// `(slot, rows)` of the arriving segments, oldest first.
    fn arrivals(&self) -> &[(usize, RowTable<'a>)] {
        self.window.get(self.steps.kept..).unwrap_or_default()
    }

    fn is_frequent(&self, edge: EdgeId) -> bool {
        self.frequent.get(edge.index()).copied().unwrap_or(false)
    }

    /// `out = tidset ∧ row(edge)`, segment by segment; `None` is the empty
    /// pattern's tidset — every window column — so the result is the row
    /// itself.  Returns the support and leaves its per-slot split in
    /// `counts`.
    fn intersect(
        &self,
        tidset: Option<&[BitVec]>,
        edge: EdgeId,
        out: &mut [BitVec],
        counts: &mut [u32],
    ) -> Support {
        let mut support = 0;
        for (i, (slot, rows)) in self.window.iter().enumerate() {
            let count = match row_of(rows, edge) {
                Some(row) => tidset
                    .map_or(row, |chunks| chunks[i].as_bits())
                    .and_into(row, &mut out[i]),
                None => {
                    out[i].resize(0);
                    0
                }
            };
            // Never wraps: `count <= cols`, and `check_cols` saw the segment.
            counts[*slot] = count as u32;
            support += count;
        }
        support
    }

    /// The support [`Plan::intersect`] would return, and its per-slot split
    /// in `counts`, without writing the tidset: the screen of a candidate
    /// that will most likely fail.
    fn screen(&self, tidset: &[BitVec], edge: EdgeId, counts: &mut [u32]) -> Support {
        let mut support = 0;
        for ((slot, rows), chunk) in self.window.iter().zip(tidset) {
            let count = row_of(rows, edge).map_or(0, |row| chunk.as_bits().and_count(row));
            counts[*slot] = count as u32;
            support += count;
        }
        support
    }
}

/// One root's share of an advance: its subtree, the plan every task reads,
/// the participant's cursor and buffers, and the root's counters, which
/// stay on the participant until the task hands them back as its result.
struct Task<'t, 'a> {
    plan: &'t Plan<'a>,
    tree: &'t mut Subtree,
    hood: &'t mut Neighborhood<'a>,
    ws: &'t mut Workspace,
    stats: DeltaStats,
}

impl Task<'_, '_> {
    /// Applies the advance to the subtree of singleton `root`, in the order
    /// a single-threaded advance applies it to that root, collects it, and
    /// returns the root's counters.
    fn run(mut self, root: EdgeId) -> Result<DeltaStats> {
        let plan = self.plan;
        self.ws.touched.clear();
        self.ws.crossings.clear();
        self.tree.slab.widen(plan.steps.old_stride, plan.stride);
        if let Some(nref) = self.tree.root {
            for &slot in &plan.steps.departed {
                self.subtract_walk(nref, slot)?;
            }
            for (slot, rows) in plan.arrivals() {
                self.add_walk(rows, *slot, nref, None, 0)?;
            }
            self.prune_touched()?;
            let crossings = mem::take(&mut self.ws.crossings);
            for &(parent, edge) in &crossings {
                self.promote_border(parent, edge)?;
            }
            self.ws.crossings = crossings;
        }
        let planted = &plan.steps.planted;
        let planted = &planted[planted.partition_point(|&edge| edge < root)..];
        if planted.first() == Some(&root) {
            self.plant_root(root)?;
        }
        if plan.steps.sweep {
            // Only a planted singleton that can grow can extend anything.
            for &edge in planted.iter().filter(|&&edge| edge > root) {
                if edge.index() < plan.catalog_edges {
                    self.sweep_root(root, edge)?;
                }
            }
        }
        self.tree.tidy(&mut self.ws.order, plan.stride);
        self.tree.collect(&mut self.ws.path)?;
        Ok(self.stats)
    }

    /// Subtracts one departed segment from tracked patterns and border
    /// entries alike: a top-down walk taking `counts[slot]` from every node
    /// the segment supported.  Exact: a stored support is always the sum of
    /// its counts row, so removal leaves the support over the remaining
    /// segments — and the slot reads 0 everywhere afterwards, ready for
    /// reuse.  A node the segment did not support ends the walk: nothing
    /// below — child or border entry — can hold a count the node does not.
    fn subtract_walk(&mut self, nref: NodeRef, slot: usize) -> Result<()> {
        const DURING: &str = "segment-departure walk";
        let stride = self.plan.stride;
        let tree = &mut *self.tree;
        let node = cell_mut(&mut tree.arena, nref).ok_or_else(|| dead_node(DURING))?;
        let (own, entries, border_counts) = tree.slab.run_mut(node.run, stride);
        let gone = mem::take(&mut own[slot]);
        if gone == 0 {
            return Ok(());
        }
        node.support -= Support::from(gone);
        // A subtraction is O(1) integer work on a recorded count, not a
        // support evaluation — it counts as affected, not re-examined.
        self.stats.patterns_affected += 1;
        self.ws.touched.push(nref);
        for (entry, counts) in entries
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
        while let Some(&child) = self.tree.live(nref, DURING)?.children.get(i) {
            self.subtract_walk(child, slot)?;
            i += 1;
        }
        Ok(())
    }

    /// One node of the walk adding an arriving segment, which intersects
    /// only the segment's chunks.  A node whose pattern the segment does not
    /// support prunes its whole subtree — and that subtree's border — from
    /// the walk (every tidset below is nested in the node's, so the segment
    /// cannot contribute to any of them), keeping the cost proportional to
    /// what the segment actually touches.  Border entries that cross minsup
    /// are queued for promotion once the walks are done.
    ///
    /// `prefix_chunk` is the parent pattern's columns within the segment
    /// (`None` at a root, whose columns are its edge's chunk itself — no
    /// intersection, the popcount is free).
    fn add_walk(
        &mut self,
        rows: &[Option<BitSlice<'_>>],
        slot: usize,
        nref: NodeRef,
        prefix_chunk: Option<BitSlice<'_>>,
        depth: usize,
    ) -> Result<()> {
        const DURING: &str = "segment-arrival walk";
        let (minsup, stride) = (self.plan.minsup, self.plan.stride);
        // A root reads its own chunk's popcount: a singleton read like the
        // ones a full mine takes from the ingest counters, not a screen.
        self.stats.patterns_reexamined += u64::from(prefix_chunk.is_some());
        let edge = self.tree.live(nref, DURING)?.edge;
        let Some(own) = row_of(rows, edge) else {
            return Ok(());
        };
        let mut buf = self.ws.scratch.take(depth);
        let (contrib, chunk) = match prefix_chunk {
            None => (own.count_ones(), own),
            Some(prefix) => (prefix.and_into(own, &mut buf), buf.as_bits()),
        };
        if contrib > 0 {
            let tree = &mut *self.tree;
            let node = cell_mut(&mut tree.arena, nref).ok_or_else(|| dead_node(DURING))?;
            node.support += contrib;
            // Never wraps here or below: a count is at most the segment's
            // width, which `check_cols` saw.
            let (own_counts, entries, border_counts) = tree.slab.run_mut(node.run, stride);
            own_counts[slot] = contrib as u32;
            self.stats.patterns_affected += 1;
            // Border entries ride the same walk: each costs one chunk-sized
            // screen against the arriving segment (entry tidset = node
            // tidset ∧ singleton row, restricted to this segment's columns).
            for (entry, counts) in entries
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
                    self.ws.crossings.push((nref, entry.edge));
                }
            }
            // The walk changes supports, never the tree, so the child list
            // is stable under index iteration.
            let mut i = 0;
            while let Some(&child) = self.tree.live(nref, DURING)?.children.get(i) {
                self.add_walk(rows, slot, child, Some(chunk), depth + 1)?;
                i += 1;
            }
        }
        self.ws.scratch.put(depth, buf);
        Ok(())
    }

    /// Cuts every touched node whose support fell below minsup, subtree and
    /// all (anti-monotone: no superset can stay frequent), leaving a border
    /// entry on the parent so the reverse crossing can resurrect it exactly.
    /// The departure walks queued parents before children, so a subtree is
    /// cut at its topmost infrequent node.
    fn prune_touched(&mut self) -> Result<()> {
        let touched = mem::take(&mut self.ws.touched);
        for &nref in &touched {
            let Some(node) = self.tree.node(nref) else {
                continue; // already freed by an ancestor's prune
            };
            if node.support < self.plan.minsup {
                self.prune_subtree(nref)?;
            }
        }
        self.ws.touched = touched;
        Ok(())
    }

    fn prune_subtree(&mut self, nref: NodeRef) -> Result<()> {
        let stride = self.plan.stride;
        self.stats.subtree_prunes += 1;
        let tree = &mut *self.tree;
        let node = tree.live(nref, "subtree prune")?;
        let (edge, support, parent, run) = (node.edge, node.support, node.parent, node.run);
        match parent {
            // A root going infrequent is a singleton crossing; those are
            // re-detected from the snapshot's exact support counters, so no
            // border entry is needed.
            None => tree.root = None,
            Some(parent) => {
                tree.live_mut(parent, "subtree prune")?
                    .children
                    .retain(|c| *c != nref);
                // The pruned node's own counts move onto the border entry,
                // so its support keeps sliding exactly.
                let entry = BorderEntry {
                    edge,
                    deep: false,
                    support,
                };
                self.ws.counts.copy_from_slice(tree.slab.own(run, stride));
                tree.arm_border(parent, entry, &self.ws.counts, stride)?;
            }
        }
        tree.free_subtree(nref);
        Ok(())
    }

    /// Promotes a border entry whose maintained support crossed minsup:
    /// materialises that one candidate's tidset, attaches it — the entry's
    /// counts row becoming the node's own, which is what the materialisation
    /// recounts (debug-asserted) — and re-expands only its subtree (resuming
    /// the interrupted sweep first for `deep` entries).
    fn promote_border(&mut self, parent: NodeRef, edge: EdgeId) -> Result<()> {
        let plan = self.plan;
        let Some(node) = self.tree.node(parent) else {
            return Ok(()); // parent pruned after the walk queued this crossing
        };
        let run = node.run;
        let Ok(i) = self.tree.slab.find(run, edge) else {
            return Ok(()); // consumed by an earlier promotion this advance
        };
        let BorderEntry {
            support: maintained,
            deep,
            ..
        } = self.tree.slab.entries[run.start + 1 + i];
        if maintained < plan.minsup {
            return Ok(());
        }
        let mut path = mem::take(&mut self.ws.path);
        self.tree.root_path(parent, &mut path)?;
        let len = path.len();
        if !plan.limits.allows(len + 1) {
            self.tree.remove_border(parent, edge, plan.stride);
            self.ws.path = path;
            return Ok(());
        }
        // Only grown nodes carry border entries, so the root can be seated.
        if !self.seat_root(path[0])? {
            return Err(FsmError::corrupt(
                "delta state holds a border entry under a root that cannot grow",
            ));
        }
        for &member in &path[1..] {
            self.hood.push(member)?;
        }
        self.stats.patterns_reexamined += 1;
        let width = plan.window.len();
        let mut parent_tidset = self.ws.tidsets.take(len, width);
        let mut tidset = self.ws.tidsets.take(len + 1, width);
        let counts = &mut self.ws.counts;
        // `tidset` doubles as the path assembly's ping-pong buffer.
        plan.intersect(None, path[0], &mut parent_tidset, counts);
        for &member in &path[1..] {
            plan.intersect(Some(&parent_tidset), member, &mut tidset, counts);
            mem::swap(&mut parent_tidset, &mut tidset);
        }
        let support = plan.intersect(Some(&parent_tidset), edge, &mut tidset, counts);
        self.ws.path = path;
        debug_assert_eq!(
            support, maintained,
            "maintained border support diverged from the materialised tidset"
        );
        debug_assert_eq!(
            self.tree
                .slab
                .border(run, plan.stride)
                .nth(i)
                .map(|(_, counts)| counts),
            Some(&self.ws.counts[..]),
            "maintained border counts diverged from the materialised tidset"
        );
        self.tree.remove_border(parent, edge, plan.stride);
        let child = self.attach_child(parent, edge, support)?;
        self.stats.border_promotions += 1;
        self.hood.push(edge)?;
        self.expand(child, &tidset, len + 1)?;
        self.hood.pop();
        self.ws.tidsets.put(len + 1, tidset);
        if deep {
            // Resume the singleton sweep this entry interrupted: the failed
            // screen had skipped the parent's descendants.
            self.sweep_children(parent, &parent_tidset, len, edge)?;
        }
        self.ws.tidsets.put(len, parent_tidset);
        Ok(())
    }

    /// Creates a child node whose own counts row is the latest screen's.
    fn attach_child(&mut self, parent: NodeRef, edge: EdgeId, support: Support) -> Result<NodeRef> {
        let run = self.tree.slab.open(&self.ws.counts);
        let child = self.tree.alloc(Node::new(edge, Some(parent), support, run));
        self.tree.insert_child(parent, child, edge)?;
        self.stats.patterns_affected += 1;
        Ok(child)
    }

    /// Seats the cursor on the root of singleton `edge`; `false` for a root
    /// that cannot grow (an edge outside the catalog is tracked as a
    /// singleton only).
    fn seat_root(&mut self, edge: EdgeId) -> Result<bool> {
        if edge.index() >= self.plan.catalog_edges {
            return Ok(false);
        }
        self.hood.seat(edge)?;
        Ok(true)
    }

    /// Creates the root of frequent singleton `edge` — its support and
    /// per-slot counts are its row chunks' popcounts — and, when it can
    /// grow ([`Task::seat_root`]), fully expands it.
    fn plant_root(&mut self, edge: EdgeId) -> Result<()> {
        let plan = self.plan;
        let mut tidset = self.ws.tidsets.take(1, plan.window.len());
        let support = plan.intersect(None, edge, &mut tidset, &mut self.ws.counts);
        debug_assert!(
            support >= plan.minsup,
            "a singleton the frozen counters call frequent has {support} set bits"
        );
        let run = self.tree.slab.open(&self.ws.counts);
        let nref = self.tree.alloc(Node::new(edge, None, support, run));
        self.tree.root = Some(nref);
        self.stats.patterns_affected += 1;
        if self.seat_root(edge)? {
            self.expand(nref, &tidset, 1)?;
        }
        self.ws.tidsets.put(1, tidset);
        Ok(())
    }

    /// The sweep of this subtree for `edge`, a singleton that newly crossed
    /// minsup and is larger than the root: extends every tracked pattern
    /// that admits `edge` where the screen passes.  Failed screens become
    /// `deep` border entries — the sweep stops there, and a later promotion
    /// resumes it below that point.  (Every pattern's root is its smallest
    /// edge, so only the roots before `edge` can hold patterns that admit
    /// it.)
    fn sweep_root(&mut self, root: EdgeId, edge: EdgeId) -> Result<()> {
        let Some(nref) = self.tree.root else {
            return Ok(());
        };
        if !self.seat_root(root)? {
            return Ok(());
        }
        let plan = self.plan;
        let admission = Admission::at(self.hood, edge);
        let mut tidset = self.ws.tidsets.take(1, plan.window.len());
        plan.intersect(None, root, &mut tidset, &mut self.ws.counts);
        self.sweep_node(nref, &tidset, 1, edge, admission)?;
        self.ws.tidsets.put(1, tidset);
        Ok(())
    }

    /// Full expansion of one node over the currently frequent alphabet: the
    /// screen-then-materialise loop of the vertical miners, except failed
    /// screens are remembered as border entries, their per-slot counts the
    /// popcounts of the count-only screen.  The cursor is seated on the node
    /// and is back on it when this returns.
    fn expand(&mut self, nref: NodeRef, tidset: &[BitVec], len: usize) -> Result<()> {
        let plan = self.plan;
        if !plan.limits.allows(len + 1) {
            return Ok(());
        }
        // Most screens fail: make room in the node's run for every screen
        // up front, so a failure appends where the run already is.
        let screens = (0..)
            .map_while(|index| self.hood.candidate(index))
            .filter(|&(edge, canonical)| canonical && plan.is_frequent(edge))
            .count();
        self.tree.reserve_border(nref, screens, plan.stride)?;
        let mut buf = self.ws.tidsets.take(len + 1, tidset.len());
        let mut index = 0;
        while let Some((edge, canonical)) = self.hood.candidate(index) {
            index += 1;
            if !canonical || !plan.is_frequent(edge) {
                continue;
            }
            self.stats.patterns_reexamined += 1;
            let support = plan.screen(tidset, edge, &mut self.ws.counts);
            if support < plan.minsup {
                let entry = BorderEntry {
                    edge,
                    deep: false,
                    support,
                };
                self.tree
                    .arm_border(nref, entry, &self.ws.counts, plan.stride)?;
                continue;
            }
            let written = plan.intersect(Some(tidset), edge, &mut buf, &mut self.ws.counts);
            debug_assert_eq!(written, support);
            let child = self.attach_child(nref, edge, support)?;
            self.hood.push(edge)?;
            self.expand(child, &buf, len + 1)?;
            self.hood.pop();
        }
        self.ws.tidsets.put(len + 1, buf);
        Ok(())
    }

    /// One node of a sweep for singleton `edge` that newly became frequent,
    /// with the cursor seated on it; `admission` is this node's (never
    /// [`Admission::Closed`] — callers test that before materialising
    /// `tidset`).
    fn sweep_node(
        &mut self,
        nref: NodeRef,
        tidset: &[BitVec],
        len: usize,
        edge: EdgeId,
        admission: Admission,
    ) -> Result<()> {
        let plan = self.plan;
        if !plan.limits.allows(len + 1) {
            return Ok(());
        }
        // When several singletons promote in one advance, an earlier
        // promotion's expansion may already have attached this extension
        // (its frequent flag was raised before any promotion ran).  Such a
        // subtree was built against the current window, so the sweep only
        // needs to keep descending past it.
        let already_attached = self
            .tree
            .live(nref, "singleton sweep")?
            .children
            .iter()
            .any(|&c| self.tree.node(c).is_some_and(|n| n.edge == edge));
        if admission == Admission::Extend && !already_attached {
            self.stats.patterns_reexamined += 1;
            let support = plan.screen(tidset, edge, &mut self.ws.counts);
            // A fresh exact evaluation supersedes any remembered border
            // entry for this candidate.
            self.tree.remove_border(nref, edge, plan.stride);
            if support < plan.minsup {
                let entry = BorderEntry {
                    edge,
                    deep: true,
                    support,
                };
                self.tree
                    .arm_border(nref, entry, &self.ws.counts, plan.stride)?;
                // Anti-monotone: no descendant can support the extension
                // either.
                return Ok(());
            }
            let mut buf = self.ws.tidsets.take(len + 1, tidset.len());
            let written = plan.intersect(Some(tidset), edge, &mut buf, &mut self.ws.counts);
            debug_assert_eq!(written, support);
            let child = self.attach_child(nref, edge, support)?;
            self.hood.push(edge)?;
            self.expand(child, &buf, len + 1)?;
            self.hood.pop();
            self.ws.tidsets.put(len + 1, buf);
        }
        self.sweep_children(nref, tidset, len, edge)
    }

    /// Continues a sweep into every child of `nref` under which a pattern
    /// can still admit the swept singleton.
    fn sweep_children(
        &mut self,
        nref: NodeRef,
        tidset: &[BitVec],
        len: usize,
        edge: EdgeId,
    ) -> Result<()> {
        const DURING: &str = "singleton sweep";
        let plan = self.plan;
        let mut buf = self.ws.tidsets.take(len + 1, tidset.len());
        // A sweep attaches nodes only below the children it descends into
        // (`nref`'s own extension was attached before this call), so the
        // child list is stable under index iteration.
        let mut i = 0;
        while let Some(&child) = self.tree.live(nref, DURING)?.children.get(i) {
            i += 1;
            let node = self.tree.live(child, DURING)?;
            let (child_edge, leaf) = (node.edge, node.children.is_empty());
            self.hood.push(child_edge)?;
            let admission = Admission::at(self.hood, edge);
            // A leaf that only passes the sweep through has nothing below it
            // to pass it to: its tidset is never needed.
            let dead_end =
                admission == Admission::Closed || (leaf && admission == Admission::PassThrough);
            if !dead_end {
                plan.intersect(Some(tidset), child_edge, &mut buf, &mut self.ws.counts);
                self.sweep_node(child, &buf, len + 1, edge, admission)?;
            }
            self.hood.pop();
        }
        self.ws.tidsets.put(len + 1, buf);
        Ok(())
    }
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
/// [`crate::MinerConfig::delta`] set, which wires snapshots, threshold
/// resolution and the executor, and routes the one configuration whose
/// answer is not the connected set to the full re-mine.
#[derive(Debug, Default)]
pub struct DeltaMiner {
    /// Resolved absolute threshold the current state was built against.
    minsup: Support,
    limits: MiningLimits,
    /// Width of the catalog the tree was grown over.
    catalog_edges: usize,
    /// Epoch of the snapshot the state reflects (`None` before first use,
    /// and while an advance is applying).
    epoch: Option<u64>,
    num_items: usize,
    /// Window segments the state reflects, oldest first.
    segments: Vec<Segment>,
    /// Length of every counts row: the widest window seen since the last
    /// rebuild.  A run-time value — a wider window re-lays the rows in place
    /// ([`Subtree::widen`]) and the advance stays incremental.
    stride: usize,
    /// Slots below `stride` that no live segment owns; they read 0 in every
    /// counts row.
    free_slots: Vec<usize>,
    /// One subtree per singleton, indexed by edge; `root` is `None` for an
    /// edge that is not a frequent root.
    roots: Vec<Subtree>,
    /// Which singletons are currently frequent (extension alphabet).
    frequent: Vec<bool>,
    /// The fan-out participants' buffers, parked between advances.
    workspaces: Mutex<Vec<Workspace>>,
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
        self.roots.iter().map(|tree| tree.live_nodes).sum()
    }

    /// Number of border (infrequent but remembered) candidates currently
    /// armed.
    pub fn border_size(&self) -> usize {
        self.roots.iter().map(|tree| tree.border_entries).sum()
    }

    /// Heap bytes the maintained state holds: every root's node arena, slab
    /// and pattern buffer, every node's child list, the singleton tables and
    /// the parked workspaces.  O(arena cells), from the tables' capacities —
    /// no border entry is visited.
    pub fn heap_bytes(&self) -> usize {
        let trees: usize = self.roots.iter().map(Subtree::heap_bytes).sum();
        let workspaces = lock(&self.workspaces);
        trees
            + self.roots.capacity() * mem::size_of::<Subtree>()
            + self.frequent.capacity()
            + workspaces.iter().map(Workspace::heap_bytes).sum::<usize>()
            + workspaces.capacity() * mem::size_of::<Workspace>()
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
    /// The per-root work fans out over `exec`, one task per root (see the
    /// module docs); the returned list, the maintained state and
    /// [`DeltaMiner::stats`] are byte-identical for every executor.
    ///
    /// Precondition: successive calls pass the *same* catalog, grown only by
    /// interning (what [`crate::StreamMiner`] does).  Catalog growth is
    /// detected by its width alone, so a different catalog of equal width
    /// would keep advancing a tree grown over the old adjacency; start a new
    /// `DeltaMiner` to switch catalogs.
    ///
    /// Errors surface a corrupt maintained state ([`FsmError::CorruptStructure`])
    /// instead of panicking, so one tenant's damaged delta state cannot abort
    /// a multi-tenant process, and the next call rebuilds; a window segment
    /// wider than `u32::MAX` columns is refused ([`FsmError::InvalidConfig`])
    /// before anything changes.
    pub fn advance(
        &mut self,
        snapshot: &EpochSnapshot,
        minsup: Support,
        limits: MiningLimits,
        catalog: &EdgeCatalog,
        exec: &Exec,
    ) -> Result<Vec<FrequentPattern>> {
        let minsup = minsup.max(1);
        let unchanged_config = self.minsup == minsup
            && self.limits == limits
            && self.num_items == snapshot.num_items()
            && self.catalog_edges == catalog.num_edges();
        let current = self.epoch == Some(snapshot.epoch()) && unchanged_config;
        let overlap = self.window_overlap(snapshot.segments());
        let contiguous = overlap > 0 || self.segments.is_empty() || snapshot.segments().is_empty();
        let incremental = self.epoch.is_some() && unchanged_config && contiguous;
        let arriving = match (current, incremental) {
            (true, _) => &[][..],
            (false, true) => &snapshot.segments()[overlap..],
            (false, false) => snapshot.segments(),
        };
        for seg in arriving {
            check_cols(seg.cols())?;
        }

        // Until this advance has completed the state matches no epoch, so
        // one that fails part-way leaves the next a rebuild.
        self.epoch = None;
        self.stats = DeltaStats::default();
        let prelude = if current {
            Prelude::collect_only(self.segments.len(), self.stride)
        } else if incremental {
            self.prepare_slides(snapshot, overlap)?
        } else {
            self.prepare_rebuild(snapshot, catalog, minsup, limits)
        };
        let patterns = self.fan_out(prelude, snapshot, catalog, exec)?;
        self.epoch = Some(snapshot.epoch());
        Ok(patterns)
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

    /// The prelude of an incremental advance: frees the departed segments'
    /// slots, widens the stride to the window, deals the arrivals their
    /// slots and refreshes the singleton alphabet.
    fn prepare_slides(&mut self, snapshot: &EpochSnapshot, overlap: usize) -> Result<Prelude> {
        let departing = self.segments.len() - overlap;
        let arrivals = &snapshot.segments()[overlap..];
        self.stats.slides_applied = departing.max(arrivals.len()) as u64;
        let departed: Vec<usize> = self
            .segments
            .drain(..departing)
            .map(|seg| seg.slot)
            .collect();
        self.free_slots.extend_from_slice(&departed);
        let old_stride = self.stride;
        let width = snapshot.segments().len();
        if width > old_stride {
            self.free_slots.extend(old_stride..width);
            self.stride = width;
        }
        for seg in arrivals {
            let slot = self.free_slots.pop().ok_or_else(|| {
                FsmError::corrupt("delta state has no free slot for an arriving segment")
            })?;
            self.segments.push(Segment {
                uid: seg.uid(),
                cols: seg.cols(),
                slot,
            });
        }
        let promoted = self.detect_singleton_crossings(snapshot);
        self.stats.singleton_sweeps = promoted.len() as u64;
        Ok(Prelude {
            departed,
            old_stride,
            kept: overlap,
            planted: if self.limits.allows(1) {
                promoted
            } else {
                Vec::new()
            },
            sweep: true,
        })
    }

    /// Updates the frequent-singleton alphabet against the snapshot's frozen
    /// support counters and returns the edges that newly crossed *up*.
    /// Downward crossings need no work here: every tracked superset lost
    /// support through exact subtraction and is pruned by its root's task,
    /// and a border entry's maintained support can never reach minsup while
    /// its singleton's is below it.
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

    /// The prelude of a full rebuild: the same enumeration as
    /// [`crate::miners::direct::mine_direct`], additionally recording the
    /// per-slot counts and the border set, so every frequent singleton is
    /// planted.  Slots are dealt in window order and the stride restarts at
    /// the window's width.
    fn prepare_rebuild(
        &mut self,
        snapshot: &EpochSnapshot,
        catalog: &EdgeCatalog,
        minsup: Support,
        limits: MiningLimits,
    ) -> Prelude {
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
        self.roots.resize_with(self.num_items, Subtree::default);
        self.roots.iter_mut().for_each(Subtree::clear);
        self.frequent = (0..self.num_items)
            .map(|idx| snapshot.singleton_support(idx) >= minsup)
            .collect();
        let planted = if limits.allows(1) {
            (0..self.num_items)
                .filter(|&idx| self.frequent[idx])
                .map(|idx| EdgeId::new(idx as u32))
                .collect()
        } else {
            Vec::new()
        };
        Prelude {
            departed: Vec::new(),
            old_stride: self.stride,
            kept: self.segments.len(),
            planted,
            sweep: false,
        }
    }

    /// Runs one task per root with work — a live root, or one the prelude
    /// plants — on `exec`, and merges the tasks' patterns and counters in
    /// root order.
    fn fan_out(
        &mut self,
        prelude: Prelude,
        snapshot: &EpochSnapshot,
        catalog: &EdgeCatalog,
        exec: &Exec,
    ) -> Result<Vec<FrequentPattern>> {
        let reads_window = prelude.kept < self.segments.len() || !prelude.planted.is_empty();
        let window = if reads_window {
            self.segments
                .iter()
                .zip(snapshot.segments())
                .map(|(mine, seg)| (mine.slot, row_table(seg, self.num_items)))
                .collect()
        } else {
            Vec::new()
        };
        let plan = Plan {
            steps: prelude,
            minsup: self.minsup,
            limits: self.limits,
            catalog_edges: self.catalog_edges,
            frequent: &self.frequent,
            stride: self.stride,
            window,
        };
        let mut jobs: Vec<(EdgeId, Mutex<&mut Subtree>)> = self
            .roots
            .iter_mut()
            .enumerate()
            .map(|(idx, tree)| (EdgeId::new(idx as u32), tree))
            .filter(|(edge, tree)| {
                tree.root.is_some() || plan.steps.planted.binary_search(edge).is_ok()
            })
            .map(|(edge, tree)| (edge, Mutex::new(tree)))
            .collect();
        let stash = &self.workspaces;
        let dealer = Dealer::new(jobs.len());
        let workers = exec.run_indexed_stateful(
            jobs.len(),
            || Worker::new(catalog, stash, plan.stride, dealer.deals_front()),
            |worker, _| {
                let job = dealer.deal(worker.front);
                let (root, tree) = &jobs[job];
                let mut tree = lock(tree);
                let Worker { hood, ws, .. } = worker;
                let task = Task {
                    plan: &plan,
                    tree: &mut tree,
                    hood,
                    ws,
                    stats: DeltaStats::default(),
                };
                match task.run(*root) {
                    Ok(stats) => worker.stats.merge(&stats),
                    Err(err) => keep_lowest(&mut worker.failed, job, err),
                }
            },
        );
        // Roots are dealt in no fixed order, and the counters merge in any:
        // the error reported is the first failing root's whatever the
        // schedule.
        let mut failed: Option<(usize, FsmError)> = None;
        for mut worker in workers {
            self.stats.merge(&worker.stats);
            if let Some((job, err)) = worker.failed.take() {
                keep_lowest(&mut failed, job, err);
            }
        }
        if let Some((_, err)) = failed {
            return Err(err);
        }
        let collected = jobs
            .iter_mut()
            .map(|(_, tree)| {
                let tree = tree.get_mut().unwrap_or_else(PoisonError::into_inner);
                tree.patterns.len()
            })
            .sum();
        let mut patterns = Vec::with_capacity(collected);
        for (_, tree) in jobs {
            let tree = tree.into_inner().unwrap_or_else(PoisonError::into_inner);
            patterns.append(&mut tree.patterns);
        }
        self.stats.patterns_tracked = self.patterns_tracked();
        self.stats.border_size = self.border_size();
        Ok(patterns)
    }

    // ----- self-check ------------------------------------------------------

    /// Recounts what the maintained state keeps incrementally and reports
    /// the first disagreement: every node's and border entry's support is
    /// the sum of its counts row, a free slot reads 0 in every row, border
    /// runs ascend strictly by edge, every root sits in its own edge's
    /// subtree, each subtree's live node and border entry totals match a
    /// walk of its arena, and its slab is its nodes' runs, disjoint, plus
    /// the dead rows it counts.  For tests.
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
        for (idx, tree) in self.roots.iter().enumerate() {
            if let Some(root) = tree.root {
                let node = tree.live(root, "self-check")?;
                if node.edge.index() != idx || node.parent.is_some() {
                    return broken(format!("subtree {idx} is rooted at {}", node.edge));
                }
            }
            let slab = &tree.slab;
            let mut covered = vec![false; slab.entries.len()];
            if slab.counts.len() != covered.len() * stride {
                return broken(format!("subtree {idx}: counts out of step with entries"));
            }
            let (mut nodes, mut entries, mut rows) = (0, 0, slab.dead);
            for node in tree.arena.iter().filter_map(|cell| cell.node.as_ref()) {
                let (edge, run) = (node.edge, node.run);
                nodes += 1;
                entries += run.len;
                rows += 1 + run.cap;
                let Some(own) = covered.get_mut(run.start..run.start + 1 + run.cap) else {
                    return broken(format!("node {edge}: run {run:?} past the slab"));
                };
                if run.len > run.cap || own.iter().any(|&taken| taken) {
                    return broken(format!("node {edge}: run {run:?} overlaps another"));
                }
                own.fill(true);
                if !row_ok(slab.own(run, stride), node.support) {
                    return broken(format!(
                        "node {edge}: support {} is not its counts' sum",
                        node.support
                    ));
                }
                if !slab.entries[run.border()]
                    .windows(2)
                    .all(|pair| pair[0].edge < pair[1].edge)
                {
                    return broken(format!("node {edge}: border run does not ascend"));
                }
                if let Some((entry, _)) = slab
                    .border(run, stride)
                    .find(|(entry, counts)| !row_ok(counts, entry.support))
                {
                    return broken(format!(
                        "border entry {edge}+{}: support {} is not its counts' sum",
                        entry.edge, entry.support
                    ));
                }
            }
            if rows != covered.len() {
                return broken(format!(
                    "subtree {idx}: runs and dead rows cover {rows} of {} slab rows",
                    covered.len()
                ));
            }
            if (nodes, entries) != (tree.live_nodes, tree.border_entries) {
                return broken(format!(
                    "subtree {idx}: {nodes} nodes and {entries} border entries recounted, \
                     {} and {} maintained",
                    tree.live_nodes, tree.border_entries
                ));
            }
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
        let mut counts = vec![1, 2, 5, 6, 0, 0, 0, 0, 0, 0];
        insert_row(&mut counts, 2, 4, &[3, 4]);
        assert_eq!(counts[..6], [1, 2, 3, 4, 5, 6]);
        insert_row(&mut counts, 6, 6, &[7, 8]);
        insert_row(&mut counts, 0, 8, &[0, 0]);
        assert_eq!(counts, [0, 0, 1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn the_dealer_hands_every_root_out_once_from_both_ends() {
        let dealer = Dealer::new(5);
        assert!(
            dealer.deals_front(),
            "the constructing thread is the caller"
        );
        let dealt = [true, false, true, false, true].map(|front| dealer.deal(front));
        assert_eq!(dealt, [0, 4, 1, 3, 2]);
        let elsewhere = std::thread::scope(|s| s.spawn(|| dealer.deals_front()).join());
        assert!(!elsewhere.unwrap());
    }

    /// A slab with two nodes' runs, both holding real counts rows of
    /// stride 2, checked against the plain per-node tables they replace.
    #[test]
    fn a_slab_keeps_each_run_apart_through_growth_moves_and_compaction() {
        let entry = |edge: u32, support: Support| BorderEntry {
            edge: EdgeId::new(edge),
            deep: false,
            support,
        };
        let border = |slab: &Slab, run: Run| -> Vec<(u32, Vec<u32>)> {
            slab.border(run, 2)
                .map(|(entry, counts)| (entry.edge.0, counts.to_vec()))
                .collect()
        };
        let mut slab = Slab::default();
        let mut a = slab.open(&[1, 1]);
        slab.reserve(&mut a, 2, 2);
        slab.insert(&mut a, 0, entry(7, 2), &[1, 1], 2);
        slab.insert(&mut a, 0, entry(3, 1), &[0, 1], 2);
        let mut b = slab.open(&[4, 0]);
        slab.insert(&mut b, 0, entry(9, 3), &[3, 0], 2);
        // `a` is full and not last: it moves, leaving its three rows dead.
        slab.insert(&mut a, 2, entry(8, 1), &[1, 0], 2);
        assert_eq!((a.start, a.len, slab.dead), (5, 3, 3));
        assert_eq!(
            border(&slab, a),
            [(3, vec![0, 1]), (7, vec![1, 1]), (8, vec![1, 0])]
        );
        slab.remove(&mut a, 1, 2);
        assert_eq!(border(&slab, a), [(3, vec![0, 1]), (8, vec![1, 0])]);
        // A third slot: every row widens, the new slot reading 0.
        slab.widen(2, 3);
        assert_eq!(slab.own(a, 3), [1, 1, 0]);
        assert_eq!(slab.own(b, 3), [4, 0, 0]);
        let mut arena: Vec<Cell> = [a, b]
            .into_iter()
            .map(|run| Cell {
                generation: 0,
                node: Some(Node::new(EdgeId::new(0), None, 0, run)),
            })
            .collect();
        slab.compact(&mut arena, &mut Vec::new(), 3);
        let run = |cell: &Cell| cell.node.as_ref().unwrap().run;
        let (a, b) = (run(&arena[0]), run(&arena[1]));
        assert_eq!((b.start, a.start, slab.dead), (0, 2, 0));
        assert_eq!(slab.entries.len(), 2 + 1 + a.cap);
        assert_eq!(slab.own(a, 3), [1, 1, 0]);
        assert_eq!(
            slab.border(b, 3).next().map(|(e, c)| (e.edge.0, c)),
            Some((9, &[3, 0, 0][..]))
        );
        assert_eq!(slab.border(a, 3).count(), 2);
    }
}
