//! Quickstart: mine frequent connected subgraphs from a tiny graph stream.
//!
//! Run with: `cargo run --example quickstart`

use streaming_fsm::core::{Algorithm, MinerConfig, StreamMiner};
use streaming_fsm::stream::WindowConfig;
use streaming_fsm::types::{GraphSnapshot, MinSup};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Configure the miner: direct vertical mining (the paper's fifth and
    //    fastest algorithm), a sliding window of two batches, and an absolute
    //    minimum support of two graphs.
    let mut miner = StreamMiner::new(MinerConfig {
        algorithm: Algorithm::DirectVertical,
        window: WindowConfig::new(2)?,
        min_support: MinSup::absolute(2),
        ..MinerConfig::default()
    })?;

    // 2. Stream graphs in.  Each snapshot is the set of links observed at one
    //    time tick; each call to `ingest_snapshots` forms one batch.
    let batch_1 = vec![
        GraphSnapshot::from_pairs([(1, 2), (2, 3), (3, 4)]),
        GraphSnapshot::from_pairs([(1, 2), (2, 3)]),
        GraphSnapshot::from_pairs([(2, 3), (3, 4), (1, 4)]),
    ];
    let batch_2 = vec![
        GraphSnapshot::from_pairs([(1, 2), (2, 3), (1, 4)]),
        GraphSnapshot::from_pairs([(1, 2), (2, 3), (3, 4)]),
        GraphSnapshot::from_pairs([(1, 4), (3, 4)]),
    ];
    miner.ingest_snapshots(&batch_1)?;
    miner.ingest_snapshots(&batch_2)?;

    // 3. Mine the current window.  Mining is "delayed": nothing happens until
    //    you ask, no matter how many batches streamed past.
    let result = miner.mine()?;

    println!(
        "window: {} transactions",
        result.stats().window_transactions
    );
    println!("{result}");
    println!("mining took {:?}", result.stats().elapsed);
    Ok(())
}
