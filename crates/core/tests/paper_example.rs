//! End-to-end reproduction of the paper's running example (Figure 1, Tables 1
//! and 2, Examples 1–7).
//!
//! The stream of nine graphs over the vertices v1..v4 is ingested in batches
//! of three with a window of two batches; after the window slides past the
//! first batch, every algorithm must find exactly the collections the paper
//! reports: 17 collections of frequently co-occurring edges, of which 15 are
//! connected subgraphs once {a,f} and {c,d} are pruned.

use fsm_core::{Algorithm, ConnectivityMode, MinerConfig, StreamMiner};
use fsm_stream::WindowConfig;
use fsm_types::{EdgeCatalog, EdgeSet, GraphSnapshot, MinSup};

/// The nine graphs of Figure 1, expressed as vertex pairs.
fn figure_1_stream() -> Vec<GraphSnapshot> {
    vec![
        GraphSnapshot::from_pairs([(1, 4), (2, 3), (3, 4)]), // E1
        GraphSnapshot::from_pairs([(1, 2), (2, 4), (3, 4)]), // E2
        GraphSnapshot::from_pairs([(1, 2), (1, 4), (3, 4)]), // E3
        GraphSnapshot::from_pairs([(1, 2), (1, 4), (2, 3), (3, 4)]), // E4
        GraphSnapshot::from_pairs([(1, 2), (2, 3), (2, 4), (3, 4)]), // E5
        GraphSnapshot::from_pairs([(1, 2), (1, 3), (1, 4)]), // E6
        GraphSnapshot::from_pairs([(1, 2), (1, 4), (3, 4)]), // E7
        GraphSnapshot::from_pairs([(1, 2), (1, 4), (2, 3), (3, 4)]), // E8
        GraphSnapshot::from_pairs([(1, 3), (1, 4), (2, 3)]), // E9
    ]
}

fn miner_for(algorithm: Algorithm, connectivity: ConnectivityMode) -> fsm_core::StreamMiner {
    StreamMiner::new(MinerConfig {
        algorithm,
        window: WindowConfig::new(2).unwrap(),
        min_support: MinSup::absolute(2),
        connectivity,
        catalog: Some(EdgeCatalog::complete(4)),
        ..MinerConfig::default()
    })
    .expect("valid configuration")
}

fn run(algorithm: Algorithm, connectivity: ConnectivityMode) -> fsm_core::MiningResult {
    let mut miner = miner_for(algorithm, connectivity);
    let stream = figure_1_stream();
    for batch in stream.chunks(3) {
        miner.ingest_snapshots(batch).unwrap();
    }
    assert_eq!(miner.window_transactions(), 6, "window holds E4..E9");
    miner.mine().unwrap()
}

/// Example 6: the 15 frequent connected subgraphs with their supports.
fn expected_connected() -> Vec<(&'static str, u64)> {
    vec![
        ("{a}", 5),
        ("{b}", 2),
        ("{c}", 5),
        ("{d}", 4),
        ("{f}", 4),
        ("{a,c}", 4),
        ("{a,c,d}", 2),
        ("{a,c,d,f}", 2),
        ("{a,c,f}", 3),
        ("{a,d}", 3),
        ("{a,d,f}", 3),
        ("{b,c}", 2),
        ("{c,d,f}", 2),
        ("{c,f}", 3),
        ("{d,f}", 3),
    ]
}

#[test]
fn every_algorithm_reproduces_examples_2_through_7() {
    for algorithm in Algorithm::ALL {
        let result = run(algorithm, ConnectivityMode::Exact);
        assert_eq!(
            result.len(),
            15,
            "{algorithm}: 15 connected collections expected\n{result}"
        );
        for (symbols, support) in expected_connected() {
            let found = result
                .patterns()
                .iter()
                .find(|p| p.edges.symbols() == symbols);
            match found {
                Some(p) => assert_eq!(
                    p.support, support,
                    "{algorithm}: support of {symbols} should be {support}"
                ),
                None => panic!("{algorithm}: missing pattern {symbols}"),
            }
        }
        // The disjoint collections of Example 6 must not appear.
        assert!(result.support_of(&EdgeSet::from_raw([0, 5])).is_none());
        assert!(result.support_of(&EdgeSet::from_raw([2, 3])).is_none());
    }
}

#[test]
fn post_processing_algorithms_report_17_collections_before_pruning() {
    // Examples 2–5: each of the four post-processing algorithms first finds
    // 17 collections of frequent edges, then prunes {a,f} and {c,d}.
    for algorithm in [
        Algorithm::MultiTree,
        Algorithm::SingleTree,
        Algorithm::TopDown,
        Algorithm::Vertical,
    ] {
        let result = run(algorithm, ConnectivityMode::Exact);
        assert_eq!(
            result.stats().patterns_before_postprocess,
            17,
            "{algorithm}: Example 2 finds 17 collections before pruning"
        );
        assert_eq!(
            result.stats().patterns_pruned,
            2,
            "{algorithm}: {{a,f}} and {{c,d}} are pruned"
        );
    }
    // The direct algorithm never produces the disjoint collections at all.
    let direct = run(Algorithm::DirectVertical, ConnectivityMode::Exact);
    assert_eq!(direct.stats().patterns_before_postprocess, 15);
    assert_eq!(direct.stats().patterns_pruned, 0);
}

#[test]
fn paper_rule_connectivity_matches_the_exact_check_on_the_running_example() {
    for algorithm in Algorithm::ALL {
        let exact = run(algorithm, ConnectivityMode::Exact);
        let rule = run(algorithm, ConnectivityMode::PaperRule);
        assert!(
            exact.same_patterns_as(&rule),
            "{algorithm}: §3.5 rule and union-find disagree on the running example: {:?}",
            exact.diff(&rule)
        );
    }
}

#[test]
fn example_3_supports_for_the_a_projected_patterns() {
    // Example 3 spells out: {a,c}:4, {a,c,d}:2, {a,c,d,f}:2, {a,c,f}:3,
    // {a,d}:3, {a,d,f}:3, {a,f}:4.  All but {a,f} are connected and must be
    // reported with exactly these supports.
    let result = run(Algorithm::SingleTree, ConnectivityMode::Exact);
    let expect = [
        ("{a,c}", 4u64),
        ("{a,c,d}", 2),
        ("{a,c,d,f}", 2),
        ("{a,c,f}", 3),
        ("{a,d}", 3),
        ("{a,d,f}", 3),
    ];
    for (symbols, support) in expect {
        let p = result
            .patterns()
            .iter()
            .find(|p| p.edges.symbols() == symbols)
            .unwrap_or_else(|| panic!("missing {symbols}"));
        assert_eq!(p.support, support, "{symbols}");
    }
}

#[test]
fn before_the_slide_the_window_covers_e1_to_e6() {
    // Example 1's first matrix: at the end of T6 the window holds E1..E6.
    let mut miner = miner_for(Algorithm::Vertical, ConnectivityMode::Exact);
    let stream = figure_1_stream();
    miner.ingest_snapshots(&stream[0..3]).unwrap();
    miner.ingest_snapshots(&stream[3..6]).unwrap();
    let result = miner.mine().unwrap();
    // Supports over E1..E6: a:5, b:1, c:4, d:3, e:2, f:5 — so the frequent
    // singletons at minsup 2 are a, c, d, e, f.
    assert_eq!(result.support_of(&EdgeSet::from_raw([0])), Some(5));
    assert_eq!(result.support_of(&EdgeSet::from_raw([2])), Some(4));
    assert_eq!(result.support_of(&EdgeSet::from_raw([4])), Some(2));
    assert_eq!(
        result.support_of(&EdgeSet::from_raw([1])),
        None,
        "b is infrequent before the slide"
    );
    // {c,f} = {(v1,v4),(v3,v4)} appears in E1, E3, E4 → support 3.
    assert_eq!(result.support_of(&EdgeSet::from_raw([2, 5])), Some(3));
}
