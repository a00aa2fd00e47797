//! Concurrent ingest + mine agreement: a snapshot mined on another thread —
//! while the writer keeps sliding the window underneath it — must produce
//! **byte-identical** patterns to a stop-the-world miner replayed to the
//! same epoch.
//!
//! The harness is the real deployment shape of [`StreamMiner::snapshot`]:
//! one writer (the test body) slides a random batch stream and hands every
//! epoch's [`fsm_core::MinerSnapshot`] to a pool of reader threads over
//! channels; readers mine concurrently with the writer's later ingests, so
//! by the time most snapshots are mined the live window has already moved
//! on (and, on the disk backend, the segments they froze have been popped
//! and their cache pins released).  Every mined epoch is then compared
//! against a sequential oracle: a fresh miner that replays the batch prefix
//! up to the snapshot's [`fsm_core::MinerSnapshot::last_batch_id`] and
//! mines stop-the-world.  Snapshotting *every* epoch is a superset of
//! "readers snapshot at random points" — each case checks all of them.
//!
//! The property fans over {memory, eager disk, tiny disk budget, unlimited
//! disk budget} × mining thread counts × both algorithm families, on random
//! streams, windows and thresholds.  A second test pins relative-threshold
//! semantics: `MinSup::relative` resolves against the *epoch's* transaction
//! count at snapshot time, not the live window's at mine time.

use std::sync::mpsc;
use std::thread;

use fsm_core::{Algorithm, MinerSnapshot, MiningResult, StreamMiner, StreamMinerBuilder};
use fsm_storage::StorageBackend;
use fsm_types::{Batch, BatchId, MinSup, Transaction};
use proptest::prelude::*;

const VERTICES: u32 = 5;
const EDGES: u32 = 10;

/// Reader threads mining snapshots concurrently with the writer.
const READERS: usize = 3;

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
    minsup: MinSup,
    backend: StorageBackend,
    budget: usize,
    threads: usize,
) -> StreamMiner {
    StreamMinerBuilder::new()
        .algorithm(algorithm)
        .window_batches(window)
        .min_support(minsup)
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

fn to_batches(raw: &[Vec<Vec<u32>>]) -> Vec<Batch> {
    raw.iter()
        .enumerate()
        .map(|(id, transactions)| {
            Batch::from_transactions(
                id as u64,
                transactions
                    .iter()
                    .map(|t| Transaction::from_raw(t.iter().copied()))
                    .collect(),
            )
        })
        .collect()
}

/// Stop-the-world oracle: a fresh sequential miner replayed to the epoch
/// whose newest batch is `last` (`None` = the empty epoch), mined there.
fn oracle_at(
    algorithm: Algorithm,
    window: usize,
    minsup: MinSup,
    batches: &[Batch],
    last: Option<BatchId>,
) -> MiningResult {
    let mut miner = build(algorithm, window, minsup, StorageBackend::Memory, 0, 1);
    if let Some(last) = last {
        for batch in batches.iter().filter(|b| b.id <= last) {
            miner.ingest_batch(batch).unwrap();
        }
    }
    miner.mine().unwrap()
}

/// Slides `batches` through `miner` while a pool of reader threads mines
/// every epoch's snapshot concurrently; returns each epoch's mined result
/// keyed by the snapshot's newest batch id.
fn mine_epochs_concurrently(
    miner: &mut StreamMiner,
    batches: &[Batch],
) -> Vec<(Option<BatchId>, MiningResult)> {
    let (result_tx, result_rx) = mpsc::channel();
    let mut jobs: Vec<mpsc::Sender<MinerSnapshot>> = Vec::with_capacity(READERS);
    let mut readers = Vec::with_capacity(READERS);
    for _ in 0..READERS {
        let (tx, rx) = mpsc::channel::<MinerSnapshot>();
        let result_tx = result_tx.clone();
        readers.push(thread::spawn(move || {
            for job in rx {
                let epoch = job.last_batch_id();
                result_tx.send((epoch, job.mine().unwrap())).unwrap();
            }
        }));
        jobs.push(tx);
    }
    drop(result_tx);
    // The writer: snapshot the empty epoch, then every post-slide epoch,
    // handing each to a reader round-robin and ingesting on without
    // waiting for any mine to finish.
    jobs[0].send(miner.snapshot().unwrap()).unwrap();
    for (i, batch) in batches.iter().enumerate() {
        miner.ingest_batch(batch).unwrap();
        jobs[(i + 1) % READERS]
            .send(miner.snapshot().unwrap())
            .unwrap();
    }
    drop(jobs);
    let results = result_rx.iter().collect();
    for reader in readers {
        reader.join().expect("reader thread panicked");
    }
    results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline property: every epoch mined concurrently with later
    /// slides equals the stop-the-world oracle replayed to that epoch, on
    /// every backend/budget corner, for every mining thread count, for one
    /// algorithm of each family.
    #[test]
    fn concurrent_snapshot_mining_matches_the_stop_the_world_oracle(
        raw in arb_stream(),
        window in 1usize..4,
        minsup in 1u64..4,
    ) {
        let batches = to_batches(&raw);
        for algorithm in [Algorithm::DirectVertical, Algorithm::MultiTree] {
            for (label, backend, budget) in corners() {
                for threads in [1usize, 2] {
                    let mut miner = build(
                        algorithm,
                        window,
                        MinSup::absolute(minsup),
                        backend.clone(),
                        budget,
                        threads,
                    );
                    let results = mine_epochs_concurrently(&mut miner, &batches);
                    prop_assert_eq!(
                        results.len(),
                        batches.len() + 1,
                        "{} {}: every epoch must be mined exactly once", algorithm, label
                    );
                    for (epoch, result) in &results {
                        let expected = oracle_at(
                            algorithm,
                            window,
                            MinSup::absolute(minsup),
                            &batches,
                            *epoch,
                        );
                        prop_assert!(
                            result.same_patterns_as(&expected),
                            "{} {} threads={} epoch={:?}: {:?}",
                            algorithm, label, threads, epoch, expected.diff(result)
                        );
                    }
                }
            }
        }
    }
}

/// All five algorithms agree with the oracle through the concurrent harness
/// on one fixed stream — a cheap deterministic anchor for the property.
#[test]
fn every_algorithm_survives_the_concurrent_harness() {
    let raw: Vec<Vec<Vec<u32>>> = vec![
        vec![vec![2, 3, 5], vec![0, 4, 5], vec![0, 2, 5]],
        vec![vec![0, 2, 3, 5], vec![0, 3, 4, 5], vec![0, 1, 2]],
        vec![vec![0, 2, 5], vec![0, 2, 3, 5], vec![1, 2, 3]],
        vec![vec![1, 4], vec![0, 2]],
    ];
    let batches = to_batches(&raw);
    for algorithm in Algorithm::ALL {
        let mut miner = build(
            algorithm,
            2,
            MinSup::absolute(2),
            StorageBackend::DiskTemp,
            usize::MAX,
            2,
        );
        for (epoch, result) in mine_epochs_concurrently(&mut miner, &batches) {
            let expected = oracle_at(algorithm, 2, MinSup::absolute(2), &batches, epoch);
            assert!(
                result.same_patterns_as(&expected),
                "{algorithm} epoch={epoch:?}: {:?}",
                expected.diff(&result)
            );
        }
    }
}

/// A relative threshold is resolved against the epoch's transaction count
/// *at snapshot time*: a held snapshot keeps its own resolved absolute
/// support even after later slides change the live window's size.
#[test]
fn relative_minsup_resolves_at_the_snapshots_own_epoch() {
    let minsup = MinSup::relative(0.5);
    let small = Batch::from_transactions(
        0,
        vec![
            Transaction::from_raw([0u32, 1]),
            Transaction::from_raw([0u32, 2]),
        ],
    );
    let large = Batch::from_transactions(
        1,
        (0..6)
            .map(|i| Transaction::from_raw([i as u32 % EDGES, (i as u32 + 1) % EDGES]))
            .collect(),
    );
    let mut miner = build(
        Algorithm::DirectVertical,
        2,
        minsup,
        StorageBackend::DiskTemp,
        usize::MAX,
        1,
    );
    miner.ingest_batch(&small).unwrap();
    let early = miner.snapshot().unwrap();
    miner.ingest_batch(&large).unwrap();
    let late = miner.snapshot().unwrap();
    // 50% of 2 transactions vs 50% of 8: the held snapshot must keep the
    // small epoch's threshold even though the live window has grown.
    assert_eq!(early.resolved_minsup(), minsup.resolve(2));
    assert_eq!(late.resolved_minsup(), minsup.resolve(8));
    let handle = thread::spawn(move || early.mine().unwrap());
    let expected = oracle_at(
        Algorithm::DirectVertical,
        2,
        minsup,
        std::slice::from_ref(&small),
        Some(0),
    );
    let mined = handle.join().unwrap();
    assert!(
        mined.same_patterns_as(&expected),
        "held snapshot diverged: {:?}",
        expected.diff(&mined)
    );
}
