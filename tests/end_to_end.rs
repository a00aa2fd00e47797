//! Cross-crate integration tests exercised through the `streaming-fsm`
//! facade: generator → linked-data adapter → capture structures → miners.

use streaming_fsm::core::{oracle, Algorithm, ConnectivityMode, MinerConfig, StreamMiner};
use streaming_fsm::datagen::{
    write_fimi, GraphModel, GraphModelConfig, GraphStreamConfig, GraphStreamGenerator,
    RdfStreamGenerator,
};
use streaming_fsm::linked_data::{ntriples, GroupingStrategy, TripleStreamAdapter};
use streaming_fsm::storage::{StorageBackend, TempDir};
use streaming_fsm::stream::WindowConfig;
use streaming_fsm::types::{MinSup, Transaction};

fn small_model(seed: u64) -> GraphModel {
    GraphModel::generate(GraphModelConfig {
        num_vertices: 10,
        avg_fanout: 3.0,
        seed,
        ..GraphModelConfig::default()
    })
}

#[test]
fn generated_stream_matches_oracle_through_the_facade() {
    let model = small_model(555);
    let catalog = model.catalog().clone();
    let mut generator = GraphStreamGenerator::new(
        model,
        GraphStreamConfig {
            avg_edges_per_graph: 4.0,
            locality: 0.7,
            batch_size: 25,
            seed: 555,
        },
    );
    let batches = generator.generate_batches(4);

    // Facade run (disk-backed matrix, direct algorithm).
    let mut miner = StreamMiner::new(MinerConfig {
        algorithm: Algorithm::DirectVertical,
        window: WindowConfig::new(3).unwrap(),
        min_support: MinSup::absolute(3),
        backend: StorageBackend::DiskTemp,
        catalog: Some(catalog.clone()),
        ..MinerConfig::default()
    })
    .unwrap();
    for batch in &batches {
        miner.ingest_batch(batch).unwrap();
    }
    let result = miner.mine().unwrap();

    // Oracle over the same window (last 3 batches).
    let window: Vec<Transaction> = batches[1..]
        .iter()
        .flat_map(|b| b.transactions().iter().cloned())
        .collect();
    let expected =
        oracle::mine_connected_oracle(&window, &catalog, 3, None, ConnectivityMode::Exact);

    assert_eq!(result.patterns().len(), expected.len());
    for pattern in expected {
        assert_eq!(
            result.support_of(&pattern.edges),
            Some(pattern.support),
            "pattern {} support mismatch",
            pattern.edges
        );
    }
}

#[test]
fn rdf_round_trip_from_triples_to_patterns() {
    // Generate a synthetic RDF stream, serialise it to N-Triples, re-parse it,
    // adapt it to graph snapshots and mine — the full linked-data pipeline.
    let model = small_model(808);
    let mut rdf = RdfStreamGenerator::new(
        model,
        GraphStreamConfig {
            avg_edges_per_graph: 3.0,
            locality: 0.8,
            batch_size: 10,
            seed: 808,
        },
        "http://example.org",
        0.2,
    );
    let triples = rdf.generate_triples(60);
    let document = ntriples::serialize(&triples);
    let reparsed = ntriples::parse(&document).unwrap();
    assert_eq!(reparsed.len(), triples.len());

    let mut adapter = TripleStreamAdapter::new(GroupingStrategy::FixedSize(4));
    let snapshots = adapter.convert(&reparsed);
    assert!(!snapshots.is_empty());

    let mut miner = StreamMiner::new(MinerConfig {
        algorithm: Algorithm::Vertical,
        window: WindowConfig::new(4).unwrap(),
        min_support: MinSup::relative(0.05),
        ..MinerConfig::default()
    })
    .unwrap();
    for chunk in snapshots.chunks(10) {
        miner.ingest_snapshots(chunk).unwrap();
    }
    let result = miner.mine().unwrap();
    assert!(
        !result.is_empty(),
        "the RDF stream should contain frequent links"
    );
    // Every reported pattern is connected.
    for pattern in result.patterns() {
        assert!(pattern.edges.is_connected(miner.catalog()));
    }
}

#[test]
fn window_slide_forgets_old_behaviour() {
    // Edges seen only in early batches must disappear from the results once
    // the window slides past them.
    let mut miner = StreamMiner::new(MinerConfig {
        algorithm: Algorithm::DirectVertical,
        window: WindowConfig::new(2).unwrap(),
        min_support: MinSup::absolute(2),
        ..MinerConfig::default()
    })
    .unwrap();

    use streaming_fsm::types::GraphSnapshot;
    let early = vec![
        GraphSnapshot::from_pairs([(1, 2), (2, 3)]),
        GraphSnapshot::from_pairs([(1, 2), (2, 3)]),
    ];
    let later = vec![
        GraphSnapshot::from_pairs([(5, 6), (6, 7)]),
        GraphSnapshot::from_pairs([(5, 6), (6, 7)]),
    ];
    miner.ingest_snapshots(&early).unwrap();
    let first = miner.mine().unwrap();
    assert!(first.len() >= 3, "early patterns present");

    miner.ingest_snapshots(&later).unwrap();
    miner.ingest_snapshots(&later).unwrap();
    let second = miner.mine().unwrap();
    // The early edges (ids 0 and 1) are out of the window now.
    use streaming_fsm::types::EdgeSet;
    assert_eq!(second.support_of(&EdgeSet::from_raw([0])), None);
    assert!(second.support_of(&EdgeSet::from_raw([2])).is_some());
}

#[test]
fn fimi_export_of_a_generated_stream_is_readable() {
    let model = small_model(99);
    let mut generator = GraphStreamGenerator::new(
        model,
        GraphStreamConfig {
            avg_edges_per_graph: 4.0,
            locality: 0.5,
            batch_size: 20,
            seed: 99,
        },
    );
    let batch = generator.next_batch();
    let dir = TempDir::new("e2e-fimi").unwrap();
    let path = dir.file("stream.dat");
    write_fimi(&path, batch.transactions()).unwrap();
    let back = streaming_fsm::datagen::read_fimi(&path).unwrap();
    let non_empty = batch
        .transactions()
        .iter()
        .filter(|t| !t.is_empty())
        .count();
    assert_eq!(back.len(), non_empty);
}
