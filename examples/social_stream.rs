//! Mining an evolving social-interaction stream, the "social or business
//! application" scenario from the paper's introduction: each streamed graph
//! is one burst of interactions (who talked to whom in one session), and the
//! analyst wants the interaction structures that recur across sessions — and
//! how they drift as the window slides.
//!
//! Run with: `cargo run --example social_stream`

use streaming_fsm::core::{Algorithm, MinerConfig, StreamMiner};
use streaming_fsm::datagen::{
    GraphModel, GraphModelConfig, GraphStreamConfig, GraphStreamGenerator, Topology,
};
use streaming_fsm::fptree::MiningLimits;
use streaming_fsm::stream::WindowConfig;
use streaming_fsm::types::{EdgeSet, MinSup};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scale-free "who-knows-whom" universe: a few hub members concentrate
    // most of the interaction edges, as in real social networks.
    let model = GraphModel::generate(GraphModelConfig {
        num_vertices: 30,
        avg_fanout: 4.0,
        topology: Topology::PreferentialAttachment,
        centrality_skew: 1.2,
        seed: 2026,
    });
    let catalog = model.catalog().clone();
    println!(
        "social universe: {} members, {} possible interaction edges",
        catalog.num_vertices(),
        catalog.num_edges()
    );

    let mut generator = GraphStreamGenerator::new(
        model,
        GraphStreamConfig {
            avg_edges_per_graph: 5.0,
            locality: 0.85, // sessions are bursts among connected members
            batch_size: 400,
            seed: 2026,
        },
    );

    let mut miner = StreamMiner::new(MinerConfig {
        algorithm: Algorithm::DirectVertical,
        window: WindowConfig::new(3)?,
        min_support: MinSup::relative(0.02),
        limits: MiningLimits::with_max_len(4),
        catalog: Some(catalog.clone()),
        ..MinerConfig::default()
    })?;

    // Stream 8 batches; report after every slide once the window is full so
    // the drift of the frequent structures is visible.
    let mut previous: Option<Vec<EdgeSet>> = None;
    for day in 0..8 {
        let batch = generator.next_batch();
        miner.ingest_batch(&batch)?;
        if day < 2 {
            continue;
        }
        let result = miner.mine()?;
        let current: Vec<EdgeSet> = result
            .patterns()
            .iter()
            .filter(|p| p.len() >= 2)
            .map(|p| p.edges.clone())
            .collect();
        let (new_patterns, vanished) = match &previous {
            Some(prev) => (
                current.iter().filter(|p| !prev.contains(p)).count(),
                prev.iter().filter(|p| !current.contains(p)).count(),
            ),
            None => (current.len(), 0),
        };
        println!(
            "day {day}: window of {} sessions → {} frequent connected structures \
             ({} multi-edge; +{} new, -{} vanished) in {:?}",
            result.stats().window_transactions,
            result.len(),
            current.len(),
            new_patterns,
            vanished,
            result.stats().elapsed,
        );
        previous = Some(current);
    }

    // Show the strongest recurring multi-edge structure of the final window.
    let result = miner.mine()?;
    if let Some(best) = result
        .patterns()
        .iter()
        .filter(|p| p.len() >= 2)
        .max_by_key(|p| (p.support, p.len()))
    {
        let members: Vec<String> = best
            .edges
            .iter()
            .map(|e| {
                let (u, v) = catalog.endpoints(e).expect("known edge");
                format!("{u}~{v}")
            })
            .collect();
        println!(
            "\nmost frequent recurring interaction structure: {} (appears in {} sessions)",
            members.join(", "),
            best.support
        );
    }
    Ok(())
}
