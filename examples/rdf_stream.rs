//! Mining a stream of linked data (RDF triples), the scenario that motivates
//! the paper: documents, posts and profiles continuously publishing links to
//! one another.
//!
//! The example parses an N-Triples update log, groups the statements into
//! per-document link graphs, streams them through the miner in two batches
//! and reports which link structures are frequent across documents.
//!
//! Run with: `cargo run --example rdf_stream`

use streaming_fsm::core::{Algorithm, MinerConfig, StreamMiner};
use streaming_fsm::linked_data::{ntriples, GroupingStrategy, TripleStreamAdapter};
use streaming_fsm::stream::WindowConfig;
use streaming_fsm::types::MinSup;

/// A small update log: each block of statements describes the outgoing links
/// of one document at publication time.
const UPDATE_LOG: &str = "\
# wiki update log (excerpt)
<http://wiki.org/page/alpha> <http://wiki.org/linksTo> <http://wiki.org/page/beta> .
<http://wiki.org/page/alpha> <http://wiki.org/linksTo> <http://wiki.org/page/gamma> .
<http://wiki.org/page/alpha> <http://wiki.org/title> \"Alpha\" .
<http://wiki.org/page/beta> <http://wiki.org/linksTo> <http://wiki.org/page/gamma> .
<http://wiki.org/page/beta> <http://wiki.org/linksTo> <http://wiki.org/page/alpha> .
<http://wiki.org/page/gamma> <http://wiki.org/linksTo> <http://wiki.org/page/alpha> .
<http://wiki.org/page/gamma> <http://wiki.org/linksTo> <http://wiki.org/page/beta> .
<http://wiki.org/page/delta> <http://wiki.org/linksTo> <http://wiki.org/page/alpha> .
<http://wiki.org/page/delta> <http://wiki.org/linksTo> <http://wiki.org/page/beta> .
<http://wiki.org/page/delta> <http://wiki.org/linksTo> <http://wiki.org/page/gamma> .
<http://wiki.org/page/epsilon> <http://wiki.org/linksTo> <http://wiki.org/page/alpha> .
<http://wiki.org/page/epsilon> <http://wiki.org/linksTo> <http://wiki.org/page/beta> .
<http://wiki.org/page/zeta> <http://wiki.org/linksTo> <http://wiki.org/page/alpha> .
<http://wiki.org/page/zeta> <http://wiki.org/linksTo> <http://wiki.org/page/gamma> .
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Parse the linked-data update log.
    let triples = ntriples::parse(UPDATE_LOG)?;
    println!("parsed {} triples", triples.len());

    // 2. Group statements by subject: every document's outgoing links form
    //    one streamed graph, literal attributes are skipped.
    let mut adapter = TripleStreamAdapter::new(GroupingStrategy::BySubject);
    let snapshots = adapter.convert(&triples);
    println!(
        "{} documents produced {} link graphs ({} attribute triples skipped)",
        adapter.dictionary().len(),
        snapshots.len(),
        adapter.skipped_literals()
    );

    // 3. Stream the graphs through the miner in two batches of three.
    let mut miner = StreamMiner::new(MinerConfig {
        algorithm: Algorithm::DirectVertical,
        window: WindowConfig::new(2)?,
        min_support: MinSup::absolute(2),
        ..MinerConfig::default()
    })?;
    for chunk in snapshots.chunks(3) {
        miner.ingest_snapshots(chunk)?;
    }

    // 4. The frequent connected link structures across documents.
    let result = miner.mine()?;
    println!("\nfrequent connected link structures (support >= 2 documents):");
    for pattern in result.patterns() {
        let edges: Vec<String> = pattern
            .edges
            .iter()
            .map(|edge| {
                let (u, v) = miner.catalog().endpoints(edge).expect("known edge");
                format!("({u}—{v})")
            })
            .collect();
        println!("  {:<28} support {}", edges.join(" "), pattern.support);
    }
    println!("\n(vertex ids map to resources through the adapter's dictionary; e.g. v1 = first resource interned)");
    Ok(())
}
