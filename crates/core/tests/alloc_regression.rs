//! Allocation regression gates for the three per-item loops of the dense
//! step, and for the row assembly in front of a snapshot mine.
//!
//! `mine_direct`'s rustdoc and ARCHITECTURE § "Mining allocation discipline"
//! say a screen allocates nothing and a pattern allocates only itself;
//! § "Incremental capture" says the batch transposition allocates nothing
//! per set bit; § "Delta mining" says no border entry owns an allocation.  A
//! benchmark would notice a reintroduced per-candidate, per-bit or per-entry
//! allocation as a slowdown on a quiet host; this file notices it as
//! a count, under a per-thread counting allocator (the technique of
//! `crates/fsmd/tests/formats.rs`, counting requests instead of sizing
//! them).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fsm_core::{miners, Algorithm, DeltaMiner, Exec, StreamMinerBuilder};
use fsm_datagen::DenseGenerator;
use fsm_dsmatrix::{DsMatrix, DsMatrixConfig};
use fsm_fptree::MiningLimits;
use fsm_storage::{SegmentedWindowStore, StorageBackend};
use fsm_stream::WindowConfig;
use fsm_types::{Batch, EdgeCatalog, MinSup, Transaction};

struct CountingAlloc;

thread_local! {
    // `const` + no destructor: touching it inside the allocator neither
    // allocates nor registers a TLS destructor.
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
}

fn note_request() {
    let _ = REQUESTS.try_with(|requests| requests.set(requests.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only addition is a
// thread-local counter bump that never allocates (see above) and is skipped
// (`try_with`) while the thread's TLS is being torn down.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` above with this layout, per the
        // caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the number of allocator requests
/// (`alloc` + `realloc`) this thread made while it ran.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = REQUESTS.with(Cell::get);
    let value = f();
    (value, REQUESTS.with(Cell::get) - before)
}

fn memory_matrix(window: usize, edges: usize) -> DsMatrix {
    DsMatrix::new(DsMatrixConfig::new(
        WindowConfig::new(window).unwrap(),
        StorageBackend::Memory,
        edges,
    ))
    .unwrap()
}

#[test]
fn a_sequential_direct_mine_allocates_per_pattern_not_per_screen() {
    // The repo benchmark's `dense_full` shape at a fifth of its width: 130
    // connect4-like items on complete(17), window of five batches, minsup
    // 18 %.  Most screens fail, which is what makes per-screen work the cost.
    let catalog = EdgeCatalog::complete(17);
    let mut matrix = memory_matrix(5, 130);
    for batch in DenseGenerator::default().generate_batches(5, 100) {
        matrix.ingest_batch(&batch).unwrap();
    }
    let minsup = 90; // 18 % of 500
    let exec = Exec::scoped(1);
    let view = matrix.view().unwrap();
    let mine =
        || miners::direct::mine_direct(&view, &catalog, minsup, MiningLimits::UNBOUNDED, &exec);

    let (output, allocations) = allocations_during(mine);
    let output = output.unwrap();
    let patterns = output.patterns.len() as u64;
    let screens = output.stats.intersections;
    let depth = output.patterns.iter().map(|p| p.len()).max().unwrap() as u64;
    assert!(
        screens >= 10 * patterns && patterns >= 100,
        "fixture drifted: {screens} screens, {patterns} patterns"
    );
    // Per pattern: its edge set, and an amortised share of the pattern
    // lists' growth (one list per singleton subtree, merged into one).  Per
    // depth: one intersection buffer and one neighbour list, grown a few
    // times each.  Nothing per screen.
    let budget = 2 * patterns + 16 * depth + 64;
    assert!(
        allocations <= budget,
        "{allocations} allocations for {patterns} patterns, depth {depth}, \
         {screens} screens (budget {budget}): something allocates per screen"
    );
}

#[test]
fn a_steady_delta_advance_allocates_per_pattern_and_regrown_subtree_not_per_border_entry() {
    // The same shape again, as a stream: ten slides past a full window of
    // five batches, every one of them an incremental advance.
    let catalog = EdgeCatalog::complete(17);
    let mut matrix = memory_matrix(5, 130);
    let mut state = DeltaMiner::new();
    let minsup = 90; // 18 % of 500
    let (mut allocations, mut collected, mut border_touched) = (0, 0, 0);
    let (mut regrown, mut prunes) = (0, 0);
    for (i, batch) in DenseGenerator::default()
        .generate_batches(15, 100)
        .iter()
        .enumerate()
    {
        matrix.ingest_batch(batch).unwrap();
        let snapshot = matrix.snapshot_epoch().unwrap();
        let (found, requests) = allocations_during(|| {
            state.advance(&snapshot, minsup, MiningLimits::UNBOUNDED, &catalog)
        });
        let stats = state.stats();
        if i < 5 {
            continue; // the rebuild, and the window still filling
        }
        assert_eq!((stats.full_rebuilds, stats.slides_applied), (0, 1));
        allocations += requests;
        collected += found.unwrap().len() as u64;
        regrown += stats.border_promotions + stats.singleton_sweeps;
        border_touched += stats.border_updates;
        prunes += stats.subtree_prunes;
    }
    assert!(
        regrown >= 10 && prunes >= 10 && border_touched >= 20 * collected,
        "fixture drifted: {regrown} subtrees re-grown, {prunes} prunes, {border_touched} \
         border updates for {collected} patterns collected"
    );
    // Per pattern collected: its edge set, and a share of the output list.
    // Per re-grown subtree: the promoted node's root path, and per node
    // attached its counts table, its border run (both sized once, before the
    // screens) and its child list.  Per advance: the arriving segment's row
    // table, the crossing context, the prune and crossing queues.  Nothing
    // per border entry touched.
    let budget = 2 * collected + 16 * regrown + 64;
    assert!(
        allocations <= budget,
        "{allocations} allocations over ten advances that collected {collected} patterns, \
         re-grew {regrown} subtrees and updated {border_touched} border entries (budget \
         {budget}): something allocates per border entry.  This fixture made 1 318 556 \
         when every entry owned a `Vec` of contributions and every segment a hash-index row."
    );
}

/// `batches` batches of `transactions` transactions over `rows` rows, each
/// listing `len` of them (every row is touched by every batch).
fn striped_batches(batches: u64, transactions: usize, rows: u32, len: u32) -> Vec<Batch> {
    (0..batches)
        .map(|id| {
            let transactions = (0..transactions as u32)
                .map(|t| {
                    let first = t * 7 + id as u32;
                    Transaction::from_raw((0..len).map(|k| (first + k) % rows))
                })
                .collect();
            Batch::from_transactions(id, transactions)
        })
        .collect()
}

/// Allocator requests of the last `measured` ingests of `batches` into a
/// fresh memory matrix with a window of four.
fn steady_state_ingest_allocations(batches: &[Batch], rows: u32, measured: usize) -> u64 {
    let mut matrix = memory_matrix(4, rows as usize);
    let (warmup, steady) = batches.split_at(batches.len() - measured);
    for batch in warmup {
        matrix.ingest_batch(batch).unwrap();
    }
    let ((), allocations) = allocations_during(|| {
        for batch in steady {
            matrix.ingest_batch(batch).unwrap();
        }
    });
    allocations
}

#[test]
fn a_steady_state_memory_ingest_allocates_per_row_touched_not_per_bit() {
    const ROWS: u32 = 96;
    const MEASURED: usize = 8;
    // Same rows touched, same batch width, 4x the set bits.
    let sparse = striped_batches(40, 200, ROWS, 12);
    let dense = striped_batches(40, 200, ROWS, 48);
    let sparse_allocations = steady_state_ingest_allocations(&sparse, ROWS, MEASURED);
    let dense_allocations = steady_state_ingest_allocations(&dense, ROWS, MEASURED);
    assert_eq!(
        sparse_allocations, dense_allocations,
        "ingest allocations must not depend on batch.len() x avg_len"
    );

    // And what they do depend on is the segment store's own write (one chunk
    // copy per row touched plus its index), which the matrix tops up by a
    // constant: the per-slide `(row, ones)` list.  An ordered map rebuilt per
    // batch for the transposition would add its nodes — a term in the rows.
    let mut store = SegmentedWindowStore::open(StorageBackend::Memory).unwrap();
    let chunk = fsm_storage::BitVec::from_bools([true; 200]);
    let ((), store_allocations) = allocations_during(|| {
        for _ in 0..MEASURED {
            store
                .push_segment(200, (0..ROWS as usize).map(|row| (row, &chunk)))
                .unwrap();
        }
    });
    let matrix_share = dense_allocations - store_allocations;
    assert!(
        matrix_share <= 2 * MEASURED as u64,
        "{dense_allocations} allocations over {MEASURED} ingests, the store's \
         own writes account for {store_allocations}: the matrix adds \
         {matrix_share}, more than a constant per ingest"
    );
}

#[test]
fn a_sequential_snapshot_mine_adds_one_allocation_per_row_and_memoises_nothing() {
    // The first test's window, frozen: a snapshot mine assembles its flat
    // rows up front and then is the same enumeration.
    let mut miner = StreamMinerBuilder::new()
        .algorithm(Algorithm::DirectVertical)
        .window_batches(5)
        .min_support(MinSup::absolute(90)) // 18 % of 500
        .backend(StorageBackend::Memory)
        .catalog(EdgeCatalog::complete(17))
        .build()
        .unwrap();
    for batch in DenseGenerator::default().generate_batches(5, 100) {
        miner.ingest_batch(&batch).unwrap();
    }
    let snapshot = miner.snapshot().unwrap();
    let exec = Exec::scoped(1);

    // The enumeration alone, over the live view of the same window.
    let catalog = EdgeCatalog::complete(17);
    let view = miner.matrix_mut().view().unwrap();
    let (live, enumeration) = allocations_during(|| {
        miners::direct::mine_direct(&view, &catalog, 90, MiningLimits::UNBOUNDED, &exec)
    });
    let live = live.unwrap();

    let (first, first_allocations) = allocations_during(|| snapshot.mine_with(&exec));
    let first = first.unwrap();
    let rows = snapshot.epoch().num_items() as u64;
    assert_eq!(first.len(), live.patterns.len());
    assert!(
        rows >= 100 && live.stats.intersections >= 10 * rows,
        "fixture drifted: {rows} rows, {} screens",
        live.stats.intersections
    );
    // On top of the enumeration: one buffer per assembled row — sized once,
    // not grown per segment — the row list, and the result's canonical sort.
    let budget = enumeration + rows + 8;
    assert!(
        first_allocations <= budget,
        "{first_allocations} allocations for a snapshot mine of {rows} rows whose enumeration \
         alone makes {enumeration} (budget {budget}): the assembly allocates per segment"
    );

    // Nothing is memoised on the snapshot: the flat copy is made again, so a
    // held snapshot's footprint is the same after any number of mines.
    let held = snapshot.epoch().heap_bytes();
    let (second, second_allocations) = allocations_during(|| snapshot.mine_with(&exec));
    assert_eq!(second.unwrap().patterns(), first.patterns());
    assert_eq!(second_allocations, first_allocations);
    assert_eq!(snapshot.epoch().heap_bytes(), held);
}
