//! Allocation regression gates for the three per-item loops of the dense
//! step, for a hired full mine's fan-out over its roots, for the row
//! assembly in front of a snapshot mine, for the memory window's ingest and
//! the served ingest's one-pass transposition, and for a pattern's edge set.
//!
//! `mine_direct`'s rustdoc and ARCHITECTURE § "Mining allocation discipline"
//! say a screen allocates nothing and a pattern nothing of its own (its edge
//! set is held in place, § "Pattern representation");
//! § "Incremental capture" says the batch transposition allocates nothing
//! per set bit; § "Delta mining" says no border entry owns an allocation.  A
//! benchmark would notice a reintroduced per-candidate, per-bit, per-entry
//! or per-pattern allocation as a slowdown on a quiet host; this file
//! notices it as a count, under a counting allocator (the technique of
//! `crates/fsmd/tests/formats.rs`, counting requests instead of sizing
//! them).
//!
//! Only *enrolled* threads are counted: the measuring test's own and, for a
//! mine fanned out over a pool, that pool's helpers.  Measurements take one
//! lock, so the tests of this file, which the harness runs in parallel,
//! never count each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, PoisonError};

use fsm_core::{miners, Algorithm, DeltaMiner, Exec, MinerConfig, StreamMiner, WorkerPool};
use fsm_datagen::DenseGenerator;
use fsm_dsmatrix::{encode_batch, DsMatrix, DsMatrixConfig, Incoming};
use fsm_fptree::MiningLimits;
use fsm_storage::StorageBackend;
use fsm_stream::WindowConfig;
use fsm_types::codec::{put_u32, Reader};
use fsm_types::{Batch, EdgeCatalog, EdgeId, EdgeSet, FrequentPattern, MinSup, Transaction};

struct CountingAlloc;

static REQUESTS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` + no destructor: touching it inside the allocator neither
    // allocates nor registers a TLS destructor.
    static ENROLLED: Cell<bool> = const { Cell::new(false) };
}

fn note_request() {
    if ENROLLED.try_with(Cell::get).unwrap_or(false) {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only addition is a
// thread-local read (skipped, via `try_with`, while the thread's TLS is being
// torn down) and an atomic counter bump, neither of which allocates.
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

/// Enrols (or releases) the caller and every helper of `exec`: each
/// participant blocks on a barrier inside its one task, so no participant
/// can claim two and every helper claims exactly one.  `exec` must be a
/// private, idle pool.
fn enrol(exec: &Exec, enrolled: bool) {
    let participants = exec.size() + 1;
    let barrier = Barrier::new(participants);
    exec.run_indexed_stateful(
        participants,
        || (),
        |(), _| {
            ENROLLED.with(|flag| flag.set(enrolled));
            barrier.wait();
        },
    );
}

/// Runs `f` and returns its result with the number of allocator requests
/// (`alloc` + `realloc`) made while it ran by this thread and by every
/// helper of `exec`.
fn allocations_on<T>(exec: &Exec, f: impl FnOnce() -> T) -> (T, u64) {
    static MEASURING: Mutex<()> = Mutex::new(());
    let _alone = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
    enrol(exec, true);
    let before = REQUESTS.load(Ordering::SeqCst);
    let value = f();
    let requests = REQUESTS.load(Ordering::SeqCst) - before;
    enrol(exec, false);
    (value, requests)
}

/// [`allocations_on`] for work that runs on the calling thread alone.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    allocations_on(&Exec::pool(Arc::new(WorkerPool::inline_only())), f)
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
    // 20 %.  Most screens fail, which is what makes per-screen work the cost.
    // (At 18 % the sibling join screens under 10x its patterns.)
    let catalog = EdgeCatalog::complete(17);
    let mut matrix = memory_matrix(5, 130);
    for batch in DenseGenerator::default().generate_batches(5, 100) {
        matrix.ingest_batch(&batch).unwrap();
    }
    let minsup = 100; // 20 % of 500
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
    // Per pattern: an amortised share of the pattern list's growth (one list
    // per participant, here the caller alone) — the edge set is held in
    // place.  Per depth: one intersection buffer and one passed-candidate
    // list, grown a few times each.  Nothing per screen.  This fixture made
    // 177 with the sets in place, 423 when each owned a `Vec`.
    let budget = patterns + 16 * depth + 64;
    assert!(
        allocations <= budget,
        "{allocations} allocations for {patterns} patterns, depth {depth}, \
         {screens} screens (budget {budget}): something allocates per screen \
         or per emitted edge set"
    );
}

/// Allocator requests of one full mine by `algorithm` over complete(`vertices`),
/// fanned out on `exec`, with every catalog edge a frequent root whose
/// subtree is its singleton alone: each edge is listed by two transactions
/// of its own, so at minsup 2 no two edges ever meet.  Returns them with
/// the number of roots.
fn lone_roots_mine_allocations(algorithm: Algorithm, vertices: u32, exec: &Exec) -> (u64, u64) {
    let catalog = EdgeCatalog::complete(vertices);
    let edges = catalog.num_edges() as u32;
    let mut matrix = memory_matrix(1, edges as usize);
    let lone = (0..2 * edges).map(|t| Transaction::from_raw([t % edges]));
    matrix
        .ingest_batch(&Batch::from_transactions(0, lone.collect()))
        .unwrap();
    let view = matrix.view().unwrap();
    let (output, allocations) = allocations_on(exec, || match algorithm {
        Algorithm::Vertical => {
            miners::vertical::mine_vertical(&view, 2, MiningLimits::UNBOUNDED, exec)
        }
        _ => miners::direct::mine_direct(&view, &catalog, 2, MiningLimits::UNBOUNDED, exec),
    });
    let output = output.unwrap();
    assert_eq!(output.patterns.len(), edges as usize, "fixture drifted");
    (allocations, u64::from(edges))
}

#[test]
fn a_hired_full_mine_allocates_per_participant_not_per_root() {
    // Eight times the roots, the same subtrees: what a full mine allocates
    // per root shows as the difference.  Every participant appends the
    // roots it claims to one pattern list of its own, and the merge moves
    // them into one list sized once, so what grows is each participant's
    // list (a few doublings) and the frequent-edge tables the mine sets
    // up.  An output list per root, a result slot per root, or a root path
    // per root would add one allocation per root: over 450 here.
    let exec = Exec::scoped(4);
    let participants = exec.size() as u64 + 1;
    for algorithm in [Algorithm::Vertical, Algorithm::DirectVertical] {
        let (narrow, narrow_roots) = lone_roots_mine_allocations(algorithm, 12, &exec);
        let (wide, wide_roots) = lone_roots_mine_allocations(algorithm, 33, &exec);
        assert_eq!((narrow_roots, wide_roots), (66, 528));
        let budget = narrow + 24 * participants;
        assert!(
            wide <= budget,
            "{algorithm}: {wide} allocations for {wide_roots} roots against {narrow} for \
             {narrow_roots} (budget {budget}): something allocates per root"
        );
    }
}

#[test]
fn a_steady_delta_advance_allocates_per_pattern_and_regrown_subtree_not_per_border_entry() {
    // The same shape again, as a stream: ten slides past a full window of
    // five batches, every one of them an incremental advance — once with
    // every root on the caller, once fanned out over two helpers.
    const ADVANCES: u64 = 10;
    let catalog = EdgeCatalog::complete(17);
    let batches = DenseGenerator::default().generate_batches(5 + ADVANCES as usize, 100);
    let minsup = 90; // 18 % of 500
    for exec in [Exec::scoped(1), Exec::scoped(3)] {
        let participants = exec.size() as u64 + 1;
        let mut matrix = memory_matrix(5, 130);
        let mut state = DeltaMiner::new();
        let (mut allocations, mut collected, mut border_touched) = (0, 0, 0);
        let (mut regrown, mut prunes) = (0, 0);
        for (i, batch) in batches.iter().enumerate() {
            matrix.ingest_batch(batch).unwrap();
            let snapshot = matrix.snapshot_epoch().unwrap();
            let (found, requests) = allocations_on(&exec, || {
                state.advance(&snapshot, minsup, MiningLimits::UNBOUNDED, &catalog, &exec)
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
        // Per pattern collected: a share of the output lists' growth (the
        // edge set is held in place).  Per re-grown subtree: per node
        // attached its counts table, its border run (both sized once, before
        // the screens) and its child list.  Per advance and participant, 16
        // at most: the participant's pool job, and the growth of the buffers
        // it parks on the miner until they have met every depth (per
        // advance, the caller adds every window segment's row table, the
        // plan's lists, the task list and the pool's list of states).  Nothing
        // per root, nothing per border entry touched.
        let budget = collected + 16 * regrown + 64 + ADVANCES * 16 * participants;
        assert!(
            allocations <= budget,
            "{participants} participants: {allocations} allocations over {ADVANCES} advances \
             that collected {collected} patterns, re-grew {regrown} subtrees and updated \
             {border_touched} border entries (budget {budget}): something allocates per root \
             or per border entry.  This fixture made 1 318 556 when every entry owned a `Vec` \
             of contributions and every segment a hash-index row, and 35 160 when every \
             collected edge set owned one."
        );
    }
}

#[test]
fn an_edge_set_of_up_to_seven_ids_allocates_nothing() {
    // Decoded as a served mine's response is, and built as a miner emits.
    for count in 1..=8u32 {
        let ids: Vec<u32> = (0..count).map(|i| 3 * i + 1).collect();
        let mut bytes = Vec::new();
        ids.iter().for_each(|&id| put_u32(&mut bytes, id));
        let (decoded, allocations) = allocations_during(|| {
            EdgeSet::read_canonical(&mut Reader::new(&bytes), ids.len()).map(drop)
        });
        decoded.unwrap();
        let (_, built) = allocations_during(|| {
            let mut set = EdgeSet::singleton(EdgeId::new(ids[0]));
            for &id in &ids[1..] {
                set = set.with(EdgeId::new(id));
            }
            FrequentPattern::new(set, 1)
        });
        let spilled = u64::from(count > 7);
        assert_eq!(allocations, spilled, "decoding {count} ids");
        assert_eq!(built, spilled, "building {count} ids");
    }
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

/// Allocator requests of the second to fourth ingests of `batches` into a
/// fresh memory matrix with a window of four: each adds a segment, none
/// evicts one.
fn filling_ingest_allocations(batches: &[Batch], rows: u32) -> u64 {
    let mut matrix = memory_matrix(4, rows as usize);
    matrix.ingest_batch(&batches[0]).unwrap();
    let ((), allocations) = allocations_during(|| {
        for batch in &batches[1..4] {
            matrix.ingest_batch(batch).unwrap();
        }
    });
    allocations
}

#[test]
fn a_steady_state_memory_ingest_allocates_a_constant_not_per_row_or_bit() {
    const MEASURED: usize = 8;
    // The same batch width over 12 rows, each transaction listing all of
    // them, and over 96 rows, each listing 48: eight times the rows
    // touched, four times the set bits.
    let narrow = striped_batches(40, 200, 12, 12);
    let wide = striped_batches(40, 200, 96, 48);

    // While the window fills, an ingest builds its segment in one arena and
    // adds it with its `(row, ones)` list: a constant — the arena, the
    // segment's `Arc`, the list — whatever the rows touched.  A segment
    // kept as one map entry or buffer per row would add a term in the rows.
    let filling = filling_ingest_allocations(&narrow, 12);
    assert_eq!(
        filling,
        filling_ingest_allocations(&wide, 96),
        "ingest allocations must not depend on the rows touched"
    );
    assert!(
        filling <= 3 * 3,
        "{filling} allocations over three ingests: more than a constant per segment"
    );

    // Once the window slides, the evicted segment — no reader holds it —
    // gives the entering one its arena, its `Arc` and its list: an ingest
    // allocates nothing at all.
    for (batches, rows) in [(&narrow, 12), (&wide, 96)] {
        assert_eq!(
            steady_state_ingest_allocations(batches, rows, MEASURED),
            0,
            "a sliding ingest over {rows} rows allocated"
        );
    }
}

/// Batch `id` of the disk-view fixture: 50 transactions over rows `0..40`,
/// every one of which it touches, plus three rows of its own from `100`
/// on, which the later batches of the window lack.
fn disk_view_batch(id: u64) -> Batch {
    let own = 100 + 3 * id as u32;
    let transactions = (0..50u32)
        .map(|t| Transaction::from_raw([t % 40, (t + 1) % 40, own + t % 3]))
        .collect();
    Batch::from_transactions(id, transactions)
}

#[test]
fn a_steady_state_disk_view_allocates_one_buffer_per_held_row_and_none_for_the_others() {
    // A disk window of five batches over complete(24)'s 276 rows, of which
    // the live segments hold 55: rows 0..40 in every segment, and three
    // rows in each segment alone.  The view is taken and released the way
    // a mine does, after every slide.
    const WINDOW: u64 = 5;
    let held = 40 + 3 * WINDOW;
    for budget in [0, usize::MAX] {
        let mut matrix = DsMatrix::new(
            DsMatrixConfig::new(
                WindowConfig::new(WINDOW as usize).unwrap(),
                StorageBackend::DiskTemp,
                276,
            )
            .with_cache_budget(budget),
        )
        .unwrap();
        for id in 0..3 * WINDOW {
            matrix.ingest_batch(&disk_view_batch(id)).unwrap();
            let (before, reads) = (matrix.read_stats(), matrix.read_stats().pages_read);
            let (view, allocations) = allocations_during(|| matrix.view().map(drop));
            view.unwrap();
            let after = matrix.read_stats();
            matrix.trim_cache();
            if id < 2 * WINDOW {
                continue; // the window filling, then the reader's buffers settling
            }
            assert_eq!(after.rows_assembled - before.rows_assembled, held);
            // One buffer per held row, sized once at the window's width; the
            // row table the matrix lends out; and, at budget 0, per segment
            // run read, the three buffers of the one way a segment is read —
            // the run's bytes, the decoded arena and its `Arc`, dropped once
            // the rows are filled.  Nothing for the 221 rows no live segment
            // holds, nothing per chunk.
            let runs = after.pages_read - reads;
            assert_eq!(runs, if budget == 0 { WINDOW } else { 0 });
            assert_eq!(
                allocations,
                held + 1 + 3 * runs,
                "budget {budget}, batch {id}: {allocations} allocations for a view of {held} \
                 held rows and {runs} run reads"
            );
        }
    }
}

#[test]
fn a_sequential_snapshot_mine_adds_one_allocation_per_row_and_memoises_nothing() {
    // The first test's window, frozen: a snapshot mine assembles its flat
    // rows up front and then is the same enumeration.
    let mut miner = StreamMiner::new(MinerConfig {
        algorithm: Algorithm::DirectVertical,
        window: WindowConfig::new(5).unwrap(),
        min_support: MinSup::absolute(90), // 18 % of 500
        backend: StorageBackend::Memory,
        catalog: Some(EdgeCatalog::complete(17)),
        ..MinerConfig::default()
    })
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

/// Allocator requests of one pass over `cycle`, each batch ingested from its
/// payload in one pass ([`Incoming::Encoded`]) — what an `fsmd` connection
/// does — into a memory window of five, after two passes to settle.
/// Returns them with the rows the measured batches touched.
fn steady_state_served_ingest_allocations(cycle: &[Batch]) -> (u64, u64) {
    let payloads: Vec<Vec<u8>> = (0..3)
        .flat_map(|pass| {
            cycle.iter().enumerate().map(move |(i, batch)| {
                let mut batch = batch.clone();
                batch.id = (pass * cycle.len() + i) as u64;
                encode_batch(&batch)
            })
        })
        .collect();
    let (settle, measured) = payloads.split_at(2 * cycle.len());
    let mut matrix = memory_matrix(5, 130);
    let mut ingest = |payload: &[u8]| {
        matrix.ingest(Incoming::Encoded(payload), 130).unwrap();
    };
    for payload in settle {
        ingest(payload);
    }
    let ((), allocations) = allocations_during(|| measured.iter().for_each(|p| ingest(p)));
    let rows = cycle
        .iter()
        .map(|batch| {
            let mut rows: Vec<_> = batch.iter().flat_map(|t| t.iter()).collect();
            rows.sort_unstable();
            rows.dedup();
            rows.len() as u64
        })
        .sum();
    (allocations, rows)
}

#[test]
fn a_steady_state_served_ingest_allocates_per_row_touched_not_per_transaction() {
    // The repo benchmark's `dense_full` batches at two widths, replayed as a
    // cycle the way the benchmark replays its own.
    const CYCLE: usize = 8;
    let narrow = DenseGenerator::default().generate_batches(CYCLE, 100);
    let wide = DenseGenerator::default().generate_batches(CYCLE, 500);
    let (narrow_allocations, narrow_rows) = steady_state_served_ingest_allocations(&narrow);
    let (wide_allocations, wide_rows) = steady_state_served_ingest_allocations(&wide);
    assert_eq!(
        narrow_rows, wide_rows,
        "fixture drifted: both widths touch every row"
    );
    assert_eq!(
        narrow_allocations, wide_allocations,
        "served ingest allocations must not depend on the transaction count"
    );
    // Budget: per ingest, one per row touched, plus at most 32 — far more
    // than the one-pass path needs: it builds nothing per transaction or
    // per row, and a slide reuses the evicted segment's arena (growing it
    // only for a batch touching more rows than it held).  Decoding each
    // payload into fresh transactions, as `decode_batch` does, would cost
    // one allocation per transaction — 500 a dense batch, 4 000 over this
    // cycle.
    let budget = wide_rows + 32 * CYCLE as u64;
    assert!(
        wide_allocations <= budget,
        "{wide_allocations} allocations over {CYCLE} served ingests touching {wide_rows} rows \
         (budget {budget}): something allocates per transaction or per id"
    );
}
