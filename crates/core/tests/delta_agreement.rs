//! Delta-mining agreement: the incrementally maintained pattern set must be
//! **byte-identical** to a full re-mine at every epoch of a randomized slide
//! sequence — for all five algorithms, both storage backends, several thread
//! counts, both connectivity modes, and absolute *and* relative thresholds
//! (whose re-resolution as the window size changes forces the delta miner's
//! rebuild fallback).
//!
//! Alongside the facade-level oracle property, a shadow-model test drives
//! [`DeltaMiner`] directly and recounts every support brute-force from the
//! window's transactions (the `HashMap`-free equivalent of recounting from
//! scratch): the maintained set must equal the recounted connected frequent
//! set after every advance, which catches border-set bookkeeping errors
//! (missed promotions, stale triggers, wrong per-segment contributions) that
//! the pattern-level oracle would only surface indirectly — over windows of
//! up to 13 batches, filling and full, with the state's own invariants
//! ([`DeltaMiner::check_invariants`]) re-checked after every advance.
//! The shadow model advances one state per pool shape ([`pools`]): the
//! per-root fan-out must return the same patterns in the same order, with
//! the same counters, as the advance that runs every root on the caller.
//! Another test interleaves delta advances, fanned out over two helpers,
//! with a held epoch snapshot mined concurrently on another thread — the
//! reader/writer split must compose with delta state.

use std::sync::{Arc, OnceLock};
use std::thread;

use fsm_core::{
    Algorithm, ConnectivityMode, DeltaMiner, DeltaStats, Exec, MinerConfig, MiningResult,
    StreamMiner, WorkerPool,
};
use fsm_fptree::MiningLimits;
use fsm_storage::StorageBackend;
use fsm_stream::WindowConfig;
use fsm_types::{Batch, EdgeCatalog, EdgeSet, GraphSnapshot, MinSup, Transaction, VertexId};
use proptest::prelude::*;

const EDGES: u32 = 10;

fn catalog_of(pairs: &[(u32, u32)]) -> EdgeCatalog {
    EdgeCatalog::from_pairs(
        pairs
            .iter()
            .map(|&(u, v)| (VertexId::new(u), VertexId::new(v))),
    )
}

/// Two triangles joined by four bridges: ten edges over six vertices, the
/// smallest shape where the paper's vertex-frequency rule and the exact check
/// disagree (`{(1,2),(2,3),(4,5),(5,6)}` passes the rule, disconnected).
fn two_triangles() -> EdgeCatalog {
    catalog_of(&[
        (1, 2),
        (2, 3),
        (1, 3),
        (4, 5),
        (5, 6),
        (4, 6),
        (1, 4),
        (2, 5),
        (3, 6),
        (1, 5),
    ])
}

#[allow(clippy::too_many_arguments)]
fn build(
    algorithm: Algorithm,
    connectivity: ConnectivityMode,
    window: usize,
    minsup: MinSup,
    backend: StorageBackend,
    threads: usize,
    max_len: Option<usize>,
    delta: bool,
) -> StreamMiner {
    StreamMiner::new(MinerConfig {
        algorithm,
        window: WindowConfig::new(window).unwrap(),
        min_support: minsup,
        connectivity,
        limits: MiningLimits {
            max_pattern_len: max_len,
        },
        backend,
        catalog: Some(two_triangles()),
        threads,
        delta,
        ..MinerConfig::default()
    })
    .unwrap()
}

/// A stream of fewer than `max_batches` batches.
fn arb_stream(max_batches: usize) -> impl Strategy<Value = Vec<Vec<Vec<u32>>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            proptest::collection::btree_set(0u32..EDGES, 0..6)
                .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
            1..6,
        ),
        1..max_batches,
    )
}

/// Every pool shape a delta advance is held byte-identical across: no
/// helpers at all (every root runs on the caller), then 1, 2, 3 and 7
/// helpers.  Built once for the whole suite.
fn pools() -> &'static [Exec] {
    static POOLS: OnceLock<Vec<Exec>> = OnceLock::new();
    POOLS.get_or_init(|| {
        let mut pools = vec![Exec::pool(Arc::new(WorkerPool::inline_only()))];
        pools.extend([1, 2, 3, 7].map(|helpers| Exec::pool(Arc::new(WorkerPool::new(helpers)))));
        pools
    })
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

fn assert_same(
    label: &str,
    delta: &MiningResult,
    oracle: &MiningResult,
) -> std::result::Result<(), TestCaseError> {
    prop_assert!(
        delta.same_patterns_as(oracle),
        "{label}: delta diverged from the full re-mine: {:?}",
        oracle.diff(delta)
    );
    let stats = &delta.stats().delta;
    prop_assert!(
        stats.patterns_tracked as u64 >= stats.border_promotions,
        "{label}: promotions ({}) cannot exceed tracked patterns ({})",
        stats.border_promotions,
        stats.patterns_tracked
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The headline property: `mine_delta` after every slide (and, via the
    /// random mask, after *runs* of slides — multi-segment advances) equals
    /// the stop-the-world miner of each algorithm at the same epoch, on
    /// both backends, sequential and threaded oracles, both connectivity
    /// modes, absolute and relative thresholds.  Relative thresholds re-resolve as the window
    /// fills, which must route the delta miner through its rebuild
    /// fallback without breaking agreement.
    #[test]
    fn delta_mining_matches_every_full_remine_oracle(
        raw in arb_stream(7),
        mask in proptest::collection::vec(any::<bool>(), 6),
        window in 1usize..4,
        knobs in (1u64..4, any::<bool>(), 0usize..4),
    ) {
        let (abs, relative, max_len_raw) = knobs;
        let max_len = if max_len_raw == 0 { None } else { Some(max_len_raw) };
        let batches = to_batches(&raw);
        let minsup = if relative {
            MinSup::relative(abs as f64 / 4.0)
        } else {
            MinSup::absolute(abs)
        };
        for algorithm in Algorithm::ALL {
            for connectivity in [ConnectivityMode::Exact, ConnectivityMode::PaperRule] {
                for backend in [StorageBackend::Memory, StorageBackend::DiskTemp] {
                    for threads in [1usize, 2] {
                        let label = format!(
                            "{algorithm} {connectivity} {backend:?} threads={threads} \
                             minsup={minsup} max_len={max_len:?}"
                        );
                        let miner = |delta| {
                            build(
                                algorithm, connectivity, window, minsup, backend.clone(),
                                threads, max_len, delta,
                            )
                        };
                        let (mut delta_miner, mut oracle) = (miner(true), miner(false));
                        for (i, batch) in batches.iter().enumerate() {
                            delta_miner.ingest_batch(batch).unwrap();
                            oracle.ingest_batch(batch).unwrap();
                            // The mask skips mines at some epochs, so the
                            // next delta advance has to absorb several
                            // slides at once (and a full window turnover
                            // when the gap exceeds the window).  The last
                            // epoch is always mined.
                            if i + 1 != batches.len() && !mask[i % mask.len()] {
                                continue;
                            }
                            let incremental = delta_miner.mine().unwrap();
                            let full = oracle.mine().unwrap();
                            assert_same(&format!("{label} epoch={i}"), &incremental, &full)?;
                        }
                    }
                }
            }
        }
    }

    /// Shadow model: drive the [`DeltaMiner`] directly through randomized
    /// slides and recount every pattern's support brute-force from the
    /// window's transactions.  The maintained set must equal the recount of
    /// the *connected* frequent sets, supports included, over catalogs that
    /// are not complete graphs.  Every catalog knows only edges `0..8` while
    /// the stream mentions `0..10`, so members outside the catalog must stay
    /// singleton-only.
    ///
    /// Windows run to 13 batches and streams to 30, so the window is mined
    /// both while it is still filling (the counts rows widen under an
    /// absolute threshold, incrementally) and long after (every slot has
    /// been freed and reused).  An advance follows `1..=window + 1` ingests:
    /// one slide, several slots turning over at once, or — `window + 1` — a
    /// gap that leaves nothing of the window the state knew.
    ///
    /// An advance rebuilds exactly once when it has to — the first one, the
    /// mid-stream threshold switch, an edge past the catalog widening the
    /// matrix, a gap that turned the whole window over — and never
    /// otherwise; a window that merely grew is none of those.
    ///
    /// The recount checks the inline advance; a state per helper count runs
    /// beside it and must match it byte for byte at every epoch — pattern
    /// order, every [`DeltaStats`] field, its own invariants.
    #[test]
    fn connected_delta_state_matches_a_brute_force_recount(
        raw in arb_stream(31),
        gaps in proptest::collection::vec(0usize..14, 1..8),
        window in 1usize..14,
        knobs in (1u64..8, 1u64..8, 0usize..3, 0usize..5),
    ) {
        let (minsup, switched, catalog_idx, max_len_raw) = knobs;
        let catalog = match catalog_idx {
            // a path, a star, and two components (a path and a triangle
            // with a tail)
            0 => catalog_of(&[(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)]),
            1 => catalog_of(&[(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9)]),
            _ => catalog_of(&[(1, 2), (2, 3), (3, 4), (4, 5), (6, 7), (7, 8), (6, 8), (8, 9)]),
        };
        let limits = match max_len_raw {
            0 => MiningLimits::UNBOUNDED,
            max => MiningLimits::with_max_len(max),
        };
        let batches = to_batches(&raw);
        let mut miner = StreamMiner::new(MinerConfig { window: WindowConfig::new(window).unwrap(), catalog: Some(catalog.clone()), ..MinerConfig::default() })
            .unwrap();
        let (inline, fanned) = pools().split_first().unwrap();
        let mut state = DeltaMiner::new();
        let mut shadows: Vec<DeltaMiner> = fanned.iter().map(|_| DeltaMiner::new()).collect();
        // (batch index, threshold, matrix width) of the previous advance.
        let mut previous: Option<(usize, u64, usize)> = None;
        // Ingests still to go before the next advance; the last epoch is
        // always mined.
        let mut gaps = gaps.iter().cycle().map(|gap| 1 + gap % (window + 1));
        let mut wait = gaps.next().unwrap();
        for (i, batch) in batches.iter().enumerate() {
            miner.ingest_batch(batch).unwrap();
            wait -= 1;
            if i + 1 != batches.len() && wait > 0 {
                continue;
            }
            wait = gaps.next().unwrap();
            // Switch thresholds halfway through the stream.
            let threshold = if i >= batches.len() / 2 { switched } else { minsup };
            let snapshot = miner.matrix_mut().snapshot_epoch().unwrap();
            let found = state.advance(&snapshot, threshold, limits, &catalog, inline).unwrap();
            for (exec, shadow) in fanned.iter().zip(&mut shadows) {
                let helpers = exec.size();
                let same = shadow.advance(&snapshot, threshold, limits, &catalog, exec).unwrap();
                prop_assert_eq!(&same, &found, "epoch {} on {} helpers: patterns", i, helpers);
                prop_assert_eq!(
                    shadow.stats(),
                    state.stats(),
                    "epoch {} on {} helpers: counters",
                    i,
                    helpers
                );
                #[cfg(debug_assertions)]
                {
                    let checked = shadow.check_invariants();
                    prop_assert!(checked.is_ok(), "epoch {} on {} helpers: {:?}", i, helpers, checked);
                }
            }

            let oldest_in_window = (i + 1).saturating_sub(window);
            let must_rebuild = previous.is_none_or(|(at, minsup, width)| {
                minsup != threshold || width != snapshot.num_items() || at < oldest_in_window
            });
            prop_assert_eq!(
                state.stats().full_rebuilds,
                u64::from(must_rebuild),
                "epoch {}: previous advance {:?}, now minsup {} width {}",
                i,
                previous,
                threshold,
                snapshot.num_items()
            );
            previous = Some((i, threshold, snapshot.num_items()));

            let window_tx = window_transactions(&batches, i, window);
            let mut expected = brute_force_frequent(&window_tx, threshold);
            expected.retain(|(set, _)| {
                limits.allows(set.len())
                    && EdgeSet::from_raw(set.iter().copied()).is_connected(&catalog)
            });
            let mut got: Vec<(Vec<u32>, u64)> = found
                .iter()
                .map(|p| (p.edges.edges().iter().map(|e| e.0).collect(), p.support))
                .collect();
            got.sort();
            expected.sort();
            prop_assert_eq!(
                got,
                expected,
                "epoch {} window {} minsup {} catalog {} limits {:?}: maintained connected \
                 set diverged from recount",
                i,
                window,
                threshold,
                catalog_idx,
                limits
            );
            prop_assert_eq!(state.stats().patterns_tracked, state.patterns_tracked());
            prop_assert_eq!(state.stats().border_size, state.border_size());
            // The self-check is compiled into debug builds only.
            #[cfg(debug_assertions)]
            {
                let checked = state.check_invariants();
                prop_assert!(checked.is_ok(), "epoch {} window {}: {:?}", i, window, checked);
            }
        }
    }
}

/// The transactions inside the window after ingesting batches `0..=upto`.
fn window_transactions(batches: &[Batch], upto: usize, window: usize) -> Vec<Vec<u32>> {
    let first = (upto + 1).saturating_sub(window);
    batches[first..=upto]
        .iter()
        .flat_map(|b| {
            b.transactions()
                .iter()
                .map(|t| t.edges().iter().map(|e| e.0).collect())
        })
        .collect()
}

/// Brute-force frequent-set enumeration by rescanning the window for every
/// candidate — the recount oracle for the maintained state.
fn brute_force_frequent(window_tx: &[Vec<u32>], minsup: u64) -> Vec<(Vec<u32>, u64)> {
    fn support(window_tx: &[Vec<u32>], set: &[u32]) -> u64 {
        window_tx
            .iter()
            .filter(|t| set.iter().all(|e| t.contains(e)))
            .count() as u64
    }
    fn extend(
        window_tx: &[Vec<u32>],
        minsup: u64,
        prefix: &mut Vec<u32>,
        from: u32,
        out: &mut Vec<(Vec<u32>, u64)>,
    ) {
        for edge in from..EDGES {
            prefix.push(edge);
            let s = support(window_tx, prefix);
            if s >= minsup {
                out.push((prefix.clone(), s));
                extend(window_tx, minsup, prefix, edge + 1, out);
            }
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    extend(window_tx, minsup, &mut Vec::new(), 0, &mut out);
    out
}

/// Deterministic anchor: the paper's stream mined delta-first on every
/// algorithm and backend gives the 15 connected collections at the final
/// epoch, with the second advance incremental (no rebuild) and cheaper than
/// the tracked set.
#[test]
fn paper_stream_delta_mines_incrementally() {
    let raw: Vec<Vec<Vec<u32>>> = vec![
        vec![vec![2, 3, 5], vec![0, 4, 5], vec![0, 2, 5]],
        vec![vec![0, 2, 3, 5], vec![0, 3, 4, 5], vec![0, 1, 2]],
        vec![vec![0, 2, 5], vec![0, 2, 3, 5], vec![1, 2, 3]],
    ];
    let batches = to_batches(&raw);
    for backend in [StorageBackend::Memory, StorageBackend::DiskTemp] {
        let mut miner = StreamMiner::new(MinerConfig {
            window: WindowConfig::new(2).unwrap(),
            min_support: MinSup::absolute(2),
            backend,
            delta: true,
            catalog: Some(EdgeCatalog::complete(4)),
            ..MinerConfig::default()
        })
        .unwrap();
        let mut last = None;
        for batch in &batches {
            miner.ingest_batch(batch).unwrap();
            last = Some(miner.mine().unwrap());
        }
        let result = last.unwrap();
        assert_eq!(result.len(), 15);
        let delta = &result.stats().delta;
        assert_eq!(delta.full_rebuilds, 0, "steady state must not rebuild");
        assert_eq!(delta.slides_applied, 1);
        assert!(delta.patterns_tracked >= 15);
    }
}

/// Epoch-snapshot interleaving: delta state advances (and stays correct)
/// while a previously held snapshot of an older epoch is mined concurrently
/// on another thread — and the held snapshot still reproduces its own epoch.
/// The delta miner's pool has two helpers, so its advances fan out while the
/// reader mines on the same pool.
#[test]
fn delta_advances_while_a_held_snapshot_is_mined() {
    let raw: Vec<Vec<Vec<u32>>> = vec![
        vec![vec![2, 3, 5], vec![0, 4, 5], vec![0, 2, 5]],
        vec![vec![0, 2, 3, 5], vec![0, 3, 4, 5], vec![0, 1, 2]],
        vec![vec![0, 2, 5], vec![0, 2, 3, 5], vec![1, 2, 3]],
        vec![vec![1, 4], vec![0, 2]],
    ];
    let batches = to_batches(&raw);
    let mut delta_miner = build(
        Algorithm::Vertical,
        ConnectivityMode::Exact,
        2,
        MinSup::absolute(2),
        StorageBackend::Memory,
        3,
        None,
        true,
    );
    let mut oracle = build(
        Algorithm::Vertical,
        ConnectivityMode::Exact,
        2,
        MinSup::absolute(2),
        StorageBackend::Memory,
        1,
        None,
        false,
    );
    delta_miner.ingest_batch(&batches[0]).unwrap();
    delta_miner.ingest_batch(&batches[1]).unwrap();
    oracle.ingest_batch(&batches[0]).unwrap();
    oracle.ingest_batch(&batches[1]).unwrap();
    let at_hold = delta_miner.mine().unwrap();
    assert!(at_hold.same_patterns_as(&oracle.mine().unwrap()));

    // Hold the epoch, then keep sliding + delta-mining while a reader mines
    // the frozen epoch on its own thread.
    let held = delta_miner.snapshot().unwrap();
    let reader = thread::spawn(move || (held.last_batch_id(), held.mine().unwrap()));
    for batch in &batches[2..] {
        delta_miner.ingest_batch(batch).unwrap();
        oracle.ingest_batch(batch).unwrap();
        let incremental = delta_miner.mine().unwrap();
        let full = oracle.mine().unwrap();
        assert!(
            incremental.same_patterns_as(&full),
            "delta diverged while the snapshot was held: {:?}",
            full.diff(&incremental)
        );
        assert_eq!(incremental.stats().delta.full_rebuilds, 0);
    }
    let (held_epoch, held_result) = reader.join().unwrap();
    assert_eq!(held_epoch, Some(1));
    assert!(
        held_result.same_patterns_as(&at_hold),
        "held snapshot no longer reproduces its epoch: {:?}",
        at_hold.diff(&held_result)
    );
}

/// Repeating `mine_delta` without an intervening ingest is idempotent and
/// does not recount anything.
#[test]
fn repeated_delta_mines_are_idempotent() {
    let mut miner = build(
        Algorithm::Vertical,
        ConnectivityMode::Exact,
        2,
        MinSup::absolute(2),
        StorageBackend::Memory,
        1,
        None,
        true,
    );
    miner
        .ingest_batch(&to_batches(&[vec![vec![0, 1, 2], vec![0, 2, 3]]])[0])
        .unwrap();
    let first = miner.mine().unwrap();
    let again = miner.mine().unwrap();
    assert!(first.same_patterns_as(&again));
    assert_eq!(again.stats().delta.full_rebuilds, 0);
    assert_eq!(again.stats().delta.slides_applied, 0);
    assert_eq!(again.stats().delta.patterns_reexamined, 0);
}

/// With `DirectVertical` the connectivity mode is irrelevant to a full mine
/// (the algorithm never post-processes), so it must be irrelevant to the
/// delta mine too.  `{a,f,m,o}` — two disjoint two-edge paths — passes the
/// paper's vertex-frequency rule; a delta miner that paper-rule-filters a
/// §3.4 tree reports it, the full mine never does.
#[test]
fn direct_vertical_under_the_paper_rule_reports_no_disconnected_collection() {
    let catalog = EdgeCatalog::complete(6);
    let pair = |u, v| {
        catalog
            .lookup(VertexId::new(u), VertexId::new(v))
            .unwrap()
            .0
    };
    let transaction = [pair(1, 2), pair(2, 3), pair(4, 5), pair(5, 6)];
    let batch = Batch::from_transactions(0, vec![Transaction::from_raw(transaction); 3]);
    let mine = |delta: bool| {
        let mut miner = StreamMiner::new(MinerConfig {
            algorithm: Algorithm::DirectVertical,
            connectivity: ConnectivityMode::PaperRule,
            min_support: MinSup::absolute(2),
            delta,
            catalog: Some(catalog.clone()),
            ..MinerConfig::default()
        })
        .unwrap();
        miner.ingest_batch(&batch).unwrap();
        miner.mine().unwrap()
    };
    let (full, delta) = (mine(false), mine(true));
    assert_eq!(full.len(), 6, "four singletons and the two connected pairs");
    assert!(
        delta.same_patterns_as(&full),
        "delta diverged from the full mine: {:?}",
        full.diff(&delta)
    );
    assert_eq!(delta.support_of(&EdgeSet::from_raw(transaction)), None);
}

/// The routing rule: a post-processing algorithm under the paper's rule
/// returns disconnected collections no connected tree holds, so `delta(true)`
/// must not reach the [`DeltaMiner`] at all — the result is the full mine's,
/// and the delta counters stay untouched.
#[test]
fn a_postprocessing_algorithm_under_the_paper_rule_is_mined_in_full() {
    // Two disjoint two-edge paths, one per triangle: disconnected, but every
    // vertex-frequency condition of the paper's rule holds.
    let transaction = [0, 1, 3, 4];
    let batches: Vec<Batch> = (0..3)
        .map(|id| Batch::from_transactions(id, vec![Transaction::from_raw(transaction); 2]))
        .collect();
    let miner = |delta| {
        build(
            Algorithm::Vertical,
            ConnectivityMode::PaperRule,
            2,
            MinSup::absolute(2),
            StorageBackend::Memory,
            1,
            None,
            delta,
        )
    };
    let (mut flagged, mut full) = (miner(true), miner(false));
    for (i, batch) in batches.iter().enumerate() {
        flagged.ingest_batch(batch).unwrap();
        full.ingest_batch(batch).unwrap();
        let (got, want) = (flagged.mine().unwrap(), full.mine().unwrap());
        assert_eq!(got.patterns(), want.patterns());
        let in_window = 2 * (i as u64 + 1).min(2);
        assert_eq!(
            got.support_of(&EdgeSet::from_raw(transaction)),
            Some(in_window)
        );
        assert_eq!(got.stats().delta, DeltaStats::default());
        assert_eq!(
            got.stats().patterns_before_postprocess,
            want.stats().patterns_before_postprocess
        );
    }
}

/// `ingest_snapshots` interning a vertex pair adjacent to tracked patterns
/// changes the neighbourhoods the connected tree was grown over: the next
/// delta mine must rebuild — once — and stay byte-identical throughout.
#[test]
fn interning_an_adjacent_vertex_pair_mid_stream_rebuilds_once() {
    let snapshots = |graphs: &[&[(u32, u32)]]| -> Vec<GraphSnapshot> {
        graphs
            .iter()
            .map(|pairs| GraphSnapshot::from_pairs(pairs.iter().copied()))
            .collect()
    };
    let stream = [
        snapshots(&[&[(1, 2), (2, 3)], &[(1, 2), (2, 3)], &[(1, 2)]]),
        snapshots(&[&[(1, 2), (2, 3)], &[(2, 3)]]),
        // (3,4) is new here and adjacent to the tracked {(1,2),(2,3)}.
        snapshots(&[
            &[(1, 2), (2, 3), (3, 4)],
            &[(2, 3), (3, 4)],
            &[(1, 2), (2, 3), (3, 4)],
        ]),
        snapshots(&[&[(1, 2), (2, 3), (3, 4)], &[(2, 3), (3, 4)]]),
    ];
    let build = |delta: bool| {
        StreamMiner::new(MinerConfig {
            algorithm: Algorithm::Vertical,
            window: WindowConfig::new(2).unwrap(),
            min_support: MinSup::absolute(2),
            delta,
            ..MinerConfig::default()
        })
        .unwrap()
    };
    let (mut delta_miner, mut oracle) = (build(true), build(false));
    let mut rebuilds = Vec::new();
    for batch in &stream {
        delta_miner.ingest_snapshots(batch).unwrap();
        oracle.ingest_snapshots(batch).unwrap();
        let incremental = delta_miner.mine().unwrap();
        let full = oracle.mine().unwrap();
        assert!(
            incremental.same_patterns_as(&full),
            "delta diverged from the full re-mine: {:?}",
            full.diff(&incremental)
        );
        rebuilds.push(incremental.stats().delta.full_rebuilds);
    }
    assert_eq!(rebuilds, [1, 0, 1, 0]);
    // The grown pattern spans the newly interned pair.
    let last = delta_miner.mine().unwrap();
    assert_eq!(last.support_of(&EdgeSet::from_raw([0, 1, 2])), Some(3));
}

/// The catalog width is a rebuild trigger of its own: a wider catalog over
/// an unchanged matrix domain still means different neighbourhoods.
#[test]
fn catalog_growth_alone_rebuilds_the_connected_tree() {
    let narrow = catalog_of(&[(1, 2), (2, 3)]);
    let wide = catalog_of(&[(1, 2), (2, 3), (3, 4)]);
    let mut miner = StreamMiner::new(MinerConfig {
        window: WindowConfig::new(2).unwrap(),
        catalog: Some(wide.clone()),
        ..MinerConfig::default()
    })
    .unwrap();
    let batches = to_batches(&[vec![vec![0, 1, 2], vec![0, 1, 2]], vec![vec![1, 2]]]);
    let mut state = DeltaMiner::new();
    let exec = Exec::scoped(1);
    let mut advance = |miner: &mut StreamMiner, catalog: &EdgeCatalog| {
        let snapshot = miner.matrix_mut().snapshot_epoch().unwrap();
        let found = state
            .advance(&snapshot, 2, MiningLimits::UNBOUNDED, catalog, &exec)
            .unwrap();
        (found.len(), state.stats().full_rebuilds)
    };
    miner.ingest_batch(&batches[0]).unwrap();
    // Edge 2 is outside the narrow catalog: a singleton, never grown.
    assert_eq!(advance(&mut miner, &narrow), (4, 1));
    miner.ingest_batch(&batches[1]).unwrap();
    assert_eq!(advance(&mut miner, &narrow), (4, 0));
    // Same epoch, wider catalog: {b,c} and {a,b,c} become reachable.
    assert_eq!(advance(&mut miner, &wide), (6, 1));
}
