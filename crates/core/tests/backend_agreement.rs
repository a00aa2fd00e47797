//! Cross-backend agreement: the disk read path (and the budgeted chunk
//! cache underneath it) must be invisible in every output byte.
//!
//! The same batch stream is mined on the `Memory` backend, the uncached
//! `DiskTemp` backend (budget 0 — every chunk read from its page file on
//! every mine) and the budgeted disk path at both extremes (a deliberately
//! tiny budget that refuses most admissions, so cache hits and page reads
//! mix within one row, and an unlimited budget where every chunk is a hit,
//! the entering segment's included — the cache admits them as they are
//! written).  Mining after every ingested batch
//! exercises arbitrary slide schedules; the property also fans each corner
//! over multiple worker thread counts.  Patterns (order included) and work
//! counters must be byte-identical across every (corner × threads)
//! combination; only the disk-read accounting may differ.
//!
//! A second test pins what a budget buys: with a budget covering the
//! window a disk mine fetches no page at all — the slide's chunks were
//! admitted when they were written — while budget 0 keeps re-reading the
//! whole window, and both assemble exactly the same words, because the
//! budget buys page reads, never assembly.  A third holds every budget to the between-mines
//! footprint: the flat rows a mine assembled are gone when it returns,
//! however it returns.

use fsm_core::{Algorithm, StreamMiner, StreamMinerBuilder};
use fsm_storage::{StorageBackend, TempDir};
use fsm_types::{Batch, FsmError, MinSup, Transaction};
use proptest::prelude::*;

const VERTICES: u32 = 5;
const EDGES: u32 = 10;

/// The backend/budget corners under test: memory, uncached disk, a tiny
/// disk budget (hits and page reads mix within a row) and an unlimited disk
/// budget (everything but the entering segment hits).
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
    StreamMinerBuilder::new()
        .algorithm(algorithm)
        .window_batches(window)
        .min_support(MinSup::absolute(minsup))
        .backend(backend)
        .cache_budget_bytes(budget)
        .threads(threads)
        .complete_graph_vertices(VERTICES)
        .build()
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
    /// algorithms — a cache hit is indistinguishable from a page read in
    /// every output byte.
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
/// covering the window fetches no page, from the first mine on — the cache
/// admitted every chunk as its segment was written — while budget 0
/// reproduces the uncached read pattern (the whole window, every mine); the
/// two assemble the same words — the window, once — and agree on every
/// pattern.
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
        // Every row of the window, once: a window of at most 9 columns is
        // one word per row.
        assert_eq!(
            budgeted_result.stats().read_words_assembled,
            EDGES as u64,
            "mine #{id}: a disk mine assembles the window, once"
        );
        assert_eq!(
            budgeted_result.stats().read_words_assembled,
            eager_result.stats().read_words_assembled,
            "mine #{id}: budgeted and budget-0 mines assemble the same words"
        );
        assert_eq!(eager_result.stats().cache_hits, 0);
        assert!(
            eager_result.stats().pages_read > 0,
            "mine #{id}: the uncached path reads the window from disk"
        );
        assert_eq!(
            budgeted_result.stats().pages_read,
            0,
            "mine #{id}: a covering budget reads no page, cold or steady"
        );
        assert!(budgeted_result.stats().cache_hits > 0, "mine #{id}");
    }
}

/// The between-mines promise, at every budget: whatever a mine assembled is
/// released when it returns — normally or with an error half-way through its
/// view — so the capture structure keeps resident only its bookkeeping plus
/// what the chunk cache holds, which is at most the budget and never more
/// than a decoded copy of what is on disk.
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
    // What a full window keeps resident with nothing cached: taken from the
    // budget-0 miner (the first), since a budgeted one's cache is warm from
    // its first ingest on.
    let mut bookkeeping = None;
    for budget in [0usize, 600, usize::MAX] {
        let root = TempDir::new("flat-rows").unwrap();
        let segments = root.path().join("segments");
        let mut miner = StreamMinerBuilder::new()
            .algorithm(Algorithm::DirectVertical)
            .window_batches(3)
            .min_support(MinSup::absolute(2))
            .backend(StorageBackend::DiskAt(segments.clone()))
            .cache_budget_bytes(budget)
            .complete_graph_vertices(64)
            .build()
            .unwrap();
        for id in 0..4 {
            miner.ingest_batch(&batch(id)).unwrap();
        }
        // Identical batches on a full window: the bookkeeping is steady, so
        // whatever grows past this is the chunk cache — or a leak.
        let base = *bookkeeping.get_or_insert_with(|| miner.resident_bytes());
        let mut bound = base;
        // Every batch is the same, so every full window mines the same.
        let mut clean = None;
        for id in 4..9 {
            let result = miner.mine().unwrap();
            let on_disk = usize::try_from(result.stats().capture_on_disk_bytes).unwrap();
            bound = base + budget.min(on_disk);
            assert!(
                miner.resident_bytes() <= bound,
                "budget {budget}, mine before batch {id}: {} resident > {bound}",
                miner.resident_bytes()
            );
            clean = Some(result);
            miner.ingest_batch(&batch(id)).unwrap();
        }
        let clean = clean.expect("the loop mines");

        // Damage the middle page of the segment the last ingest wrote.  The
        // tight budget holds one segment's chunks, and this is not the one
        // (it admits every third segment: the room only ever comes from a
        // cached segment leaving); budget 0 holds nothing.  For both, rows
        // before the page assemble, then the view fails on its checksum.
        // The unlimited budget admitted the chunk when it was written: it
        // serves the value that was written and never opens the file.
        let newest = segments.join("seg-8.pages");
        let mut bytes = std::fs::read(&newest).unwrap();
        bytes[2 * 1024] ^= 0x80;
        std::fs::write(&newest, bytes).unwrap();
        let expect_crc_error = |miner: &mut StreamMiner, what: &str| {
            match miner.mine() {
                Err(FsmError::CorruptArtifact { artifact, detail }) => {
                    assert_eq!(artifact, "page 2 of seg-8.pages");
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
                "the cache serves what was written"
            );
            assert!(miner.resident_bytes() <= bound);
            // Without the cache the same mine has to read the damaged page.
            miner.matrix_mut().set_cache_budget(0);
            expect_crc_error(&mut miner, "budget unlimited, then 0");
        } else {
            expect_crc_error(&mut miner, &format!("budget {budget}"));
        }
    }
}
