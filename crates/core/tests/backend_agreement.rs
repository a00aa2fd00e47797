//! Cross-backend agreement: the disk read path (and the budget of resident
//! segments underneath it) must be invisible in every output byte.
//!
//! The same batch stream is mined on the `Memory` backend, the `DiskTemp`
//! backend at budget 0 (every segment decoded from its run on every mine)
//! and the budgeted disk path at both extremes (a deliberately tiny budget
//! that holds a segment or two of the window, so resident segments and run
//! reads mix within one view, and an unlimited budget where every segment is
//! resident, the entering one included — a push keeps the segment it has
//! just written).  Mining after every ingested batch
//! exercises arbitrary slide schedules; the property also fans each corner
//! over multiple worker thread counts.  Patterns (order included) and work
//! counters must be byte-identical across every (corner × threads)
//! combination; only the disk-read accounting may differ.
//!
//! A second test pins what a budget buys: with a budget covering the
//! window a disk mine reads no run at all — the slide's segment was
//! admitted when it was written — while budget 0 keeps re-reading the
//! whole window, and both assemble exactly the same words, because the
//! budget buys decodes, never assembly.  A third holds every budget to the between-mines
//! footprint: the flat rows a mine assembled are gone when it returns,
//! however it returns.

use fsm_core::{Algorithm, MinerConfig, StreamMiner};
use fsm_storage::{SegmentedWindowStore, StorageBackend, TempDir};
use fsm_stream::WindowConfig;
use fsm_types::{Batch, EdgeCatalog, FsmError, MinSup, Transaction};
use proptest::prelude::*;

const VERTICES: u32 = 5;
const EDGES: u32 = 10;

/// The backend/budget corners under test: memory, disk at budget 0, a tiny
/// disk budget (resident segments and run reads mix within a view) and an
/// unlimited disk budget (every segment resident).
fn corners() -> Vec<(&'static str, StorageBackend, usize)> {
    vec![
        ("memory", StorageBackend::Memory, 0),
        ("disk budget=0", StorageBackend::DiskTemp, 0),
        ("disk budget=tiny", StorageBackend::DiskTemp, 600),
        ("disk budget=max", StorageBackend::DiskTemp, usize::MAX),
    ]
}

fn build(
    algorithm: Algorithm,
    window: usize,
    minsup: u64,
    backend: StorageBackend,
    budget: usize,
    threads: usize,
) -> StreamMiner {
    StreamMiner::new(MinerConfig {
        algorithm,
        window: WindowConfig::new(window).unwrap(),
        min_support: MinSup::absolute(minsup),
        backend,
        cache_budget_bytes: budget,
        threads,
        catalog: Some(EdgeCatalog::complete(VERTICES)),
        ..MinerConfig::default()
    })
    .unwrap()
}

fn arb_stream() -> impl Strategy<Value = Vec<Vec<Vec<u32>>>> {
    // 1..6 batches of 1..6 transactions over the edge vocabulary.
    proptest::collection::vec(
        proptest::collection::vec(
            proptest::collection::btree_set(0u32..EDGES, 0..6)
                .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
            1..6,
        ),
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mining after every ingested batch (arbitrary slide schedules) yields
    /// byte-identical patterns and work counters on all four backend/budget
    /// corners crossed with every worker thread count, for all five
    /// algorithms — a resident segment is indistinguishable from a run read
    /// in every output byte.
    #[test]
    fn all_budget_corners_mine_identically(
        raw in arb_stream(),
        window in 1usize..4,
        minsup in 1u64..4,
    ) {
        for algorithm in Algorithm::ALL {
            let mut miners: Vec<(String, StreamMiner)> = corners()
                .into_iter()
                .flat_map(|(label, backend, budget)| {
                    [1usize, 3].map(|threads| {
                        (
                            format!("{label} threads={threads}"),
                            build(algorithm, window, minsup, backend.clone(), budget, threads),
                        )
                    })
                })
                .collect();
            for (id, transactions) in raw.iter().enumerate() {
                let batch = Batch::from_transactions(
                    id as u64,
                    transactions
                        .iter()
                        .map(|t| Transaction::from_raw(t.iter().copied()))
                        .collect(),
                );
                let mut reference = None;
                for (label, miner) in miners.iter_mut() {
                    miner.ingest_batch(&batch).unwrap();
                    let result = miner.mine().unwrap();
                    match &reference {
                        None => reference = Some(result),
                        Some(expected) => {
                            prop_assert_eq!(
                                expected.patterns(), result.patterns(),
                                "{} {}: patterns diverged on batch {}", algorithm, label, id
                            );
                            prop_assert_eq!(
                                expected.stats().intersections,
                                result.stats().intersections,
                                "{} {}: intersection counts diverged", algorithm, label
                            );
                            prop_assert_eq!(
                                expected.stats().tree_footprint.trees_built,
                                result.stats().tree_footprint.trees_built,
                                "{} {}: tree counts diverged", algorithm, label
                            );
                        }
                    }
                }
            }
        }
    }
}

/// What a budget buys, at the facade level: a disk mine under a budget
/// covering the window reads no run, from the first mine on — each segment
/// was kept resident as it was written — while budget 0 reads the whole
/// window from disk on every mine; the
/// two assemble the same words — the rows the window holds, once — and agree
/// on every pattern.
#[test]
fn steady_state_disk_mines_read_only_the_slide() {
    let window = 3usize;
    let mut eager = build(
        Algorithm::DirectVertical,
        window,
        2,
        StorageBackend::DiskTemp,
        0,
        1,
    );
    let mut budgeted = build(
        Algorithm::DirectVertical,
        window,
        2,
        StorageBackend::DiskTemp,
        usize::MAX,
        1,
    );
    let mut in_window = std::collections::VecDeque::new();
    for id in 0..10u64 {
        let batch = Batch::from_transactions(
            id,
            vec![
                Transaction::from_raw([(id % 4) as u32, ((id + 1) % 4) as u32]),
                Transaction::from_raw([0u32, 1, 2]),
                Transaction::from_raw([((id + 2) % 5) as u32]),
            ],
        );
        eager.ingest_batch(&batch).unwrap();
        budgeted.ingest_batch(&batch).unwrap();
        let eager_result = eager.mine().unwrap();
        let budgeted_result = budgeted.mine().unwrap();

        assert!(
            eager_result.same_patterns_as(&budgeted_result),
            "mine #{id}: budgets must not change patterns"
        );
        // Every row the window holds, once: a window of at most 9 columns
        // is one word per row, and a row no batch in the window mentions is
        // not materialised.
        in_window.push_back(batch);
        if in_window.len() > window {
            in_window.pop_front();
        }
        let held: std::collections::BTreeSet<_> = in_window
            .iter()
            .flat_map(|batch| batch.iter().flat_map(|t| t.iter()))
            .collect();
        assert!(
            held.len() < EDGES as usize,
            "mine #{id}: some row is unheld"
        );
        assert_eq!(
            budgeted_result.stats().read_words_assembled,
            held.len() as u64,
            "mine #{id}: a disk mine assembles the rows the window holds, once"
        );
        assert_eq!(
            budgeted_result.stats().read_words_assembled,
            eager_result.stats().read_words_assembled,
            "mine #{id}: budgeted and budget-0 mines assemble the same words"
        );
        assert_eq!(eager_result.stats().cache_hits, 0);
        assert!(
            eager_result.stats().pages_read > 0,
            "mine #{id}: budget 0 reads the window from disk"
        );
        assert_eq!(
            budgeted_result.stats().pages_read,
            0,
            "mine #{id}: a covering budget reads no run, cold or steady"
        );
        assert!(budgeted_result.stats().cache_hits > 0, "mine #{id}");
    }
}

/// The between-mines promise, at every budget: whatever a mine assembled is
/// released when it returns — normally or with an error half-way through its
/// view — so the capture structure keeps resident only its bookkeeping plus
/// its resident segments, which are at most the budget and never more than
/// the window's segments at their decoded size.
///
/// The window is 5 touched rows in a domain of 2016: a retained flat copy
/// (2016 rows × 3 words) would dwarf every bound below.
#[test]
fn a_disk_mine_releases_its_flat_rows() {
    let touched = [100u32, 500, 900, 1300, 1700];
    let batch = |id: u64| {
        let transactions = (0..64)
            .map(|col| Transaction::from_raw(touched.iter().copied().filter(|e| e % 7 != col % 7)))
            .collect();
        Batch::from_transactions(id, transactions)
    };
    // What a full window keeps resident with no segment resident: taken
    // from the budget-0 miner (the first), since a budgeted one holds
    // segments from its first ingest on.
    let mut bookkeeping = None;
    // What one segment is charged when resident — its decoded size: the
    // touched rows, 64 columns each.  The most a budget can hold is the
    // window's three.
    let segment = {
        let mut store = SegmentedWindowStore::open(StorageBackend::Memory).unwrap();
        let chunk = fsm_storage::BitVec::zeros(64);
        store
            .push_segment(64, touched.iter().map(|&row| (row as usize, &chunk)))
            .unwrap();
        store.epoch_segment(0).unwrap().heap_bytes()
    };
    let window_charge = 3 * segment;
    for budget in [0usize, segment, usize::MAX] {
        // A slide builds the entering segment in the arena of the segment
        // the previous slide evicted, kept in between: under a budget the
        // evicted segment was resident, and its arena stays as that spare.
        let spare = if budget == 0 { 0 } else { segment };
        let root = TempDir::new("flat-rows").unwrap();
        let segments = root.path().join("segments");
        let mut miner = StreamMiner::new(MinerConfig {
            algorithm: Algorithm::DirectVertical,
            window: WindowConfig::new(3).unwrap(),
            min_support: MinSup::absolute(2),
            backend: StorageBackend::DiskAt(segments.clone()),
            cache_budget_bytes: budget,
            catalog: Some(EdgeCatalog::complete(64)),
            ..MinerConfig::default()
        })
        .unwrap();
        for id in 0..4 {
            miner.ingest_batch(&batch(id)).unwrap();
        }
        // Identical batches on a full window: the bookkeeping is steady, so
        // whatever grows past this is resident segments — or a leak.
        let base = *bookkeeping.get_or_insert_with(|| miner.resident_bytes());
        let mut bound = base;
        // Every batch is the same, so every full window mines the same.
        let mut clean = None;
        for id in 4..9 {
            let result = miner.mine().unwrap();
            bound = base + budget.min(window_charge) + spare;
            assert!(
                miner.resident_bytes() <= bound,
                "budget {budget}, mine before batch {id}: {} resident > {bound}",
                miner.resident_bytes()
            );
            clean = Some(result);
            miner.ingest_batch(&batch(id)).unwrap();
        }
        let clean = clean.expect("the loop mines");

        // Damage the middle of the run the last ingest wrote.  The tight
        // budget holds one segment, and this is not the one (it admits
        // every third segment: the room only ever comes from a resident
        // segment leaving); budget 0 holds nothing.  For both, rows before
        // the first that reads the run assemble, then the view fails on its
        // checksum.  The unlimited budget kept the segment when it was
        // written: it serves the values that were written and never opens
        // the file.
        let newest = segments.join("seg-8.run");
        let mut bytes = std::fs::read(&newest).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x80;
        std::fs::write(&newest, bytes).unwrap();
        let expect_crc_error = |miner: &mut StreamMiner, what: &str| {
            match miner.mine() {
                Err(FsmError::CorruptArtifact { artifact, detail }) => {
                    assert_eq!(artifact, "seg-8.run");
                    assert!(detail.contains("checksum mismatch"), "{detail}");
                }
                other => panic!("{what}: expected the CRC error, got {other:?}"),
            }
            assert!(
                miner.resident_bytes() <= bound,
                "{what}, failed mine: {} resident > {bound}",
                miner.resident_bytes()
            );
        };
        if budget == usize::MAX {
            let result = miner.mine().unwrap();
            assert_eq!(result.stats().pages_read, 0);
            assert!(
                result.same_patterns_as(&clean),
                "a resident segment serves what was written"
            );
            assert!(miner.resident_bytes() <= bound);
            // With nothing resident the same mine has to read the damaged
            // run.
            miner.matrix_mut().set_cache_budget(0);
            expect_crc_error(&mut miner, "budget unlimited, then 0");
        } else {
            expect_crc_error(&mut miner, &format!("budget {budget}"));
        }
    }
}
