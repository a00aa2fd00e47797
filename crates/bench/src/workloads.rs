//! The standard workloads of the experiment suite.
//!
//! Three families mirror the data sources of §5:
//!
//! * `GraphModel` — streams sampled from a random graph model (the paper's
//!   Java generator substitute), moderately sparse, connected co-occurrence;
//! * `Quest` — IBM-Quest-style market-basket streams, sparse and clustered;
//! * `Dense` — connect4-like dense streams.
//!
//! Each workload fixes a seed, so every experiment binary measures the exact
//! same stream.  The `scale` knob shrinks the stream for smoke runs while
//! preserving its shape.

use fsm_datagen::{
    DenseGenerator, GraphModel, GraphModelConfig, GraphStreamConfig, GraphStreamGenerator,
    QuestConfig, QuestGenerator,
};
use fsm_stream::StreamStats;
use fsm_types::{Batch, EdgeCatalog};

/// Which generator a workload comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Random-graph-model stream (sparse, connected co-occurrence).
    GraphModel,
    /// IBM-Quest-style stream (sparse, clustered itemsets).
    Quest,
    /// connect4-like dense stream.
    Dense,
}

/// A fully materialised workload: the stream plus the edge catalog it is
/// drawn over.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable name used in reports.
    pub name: String,
    /// Which family the workload belongs to.
    pub kind: WorkloadKind,
    /// Edge vocabulary (used for connectivity decisions).
    pub catalog: EdgeCatalog,
    /// The batches of the stream, in arrival order.
    pub batches: Vec<Batch>,
}

impl Workload {
    /// Stream of graph transactions drawn from a random graph model.
    pub fn graph_model(scale: usize, seed: u64) -> Self {
        let model = GraphModel::generate(GraphModelConfig {
            num_vertices: 24,
            avg_fanout: 5.0,
            centrality_skew: 0.8,
            seed,
            ..GraphModelConfig::default()
        });
        let catalog = model.catalog().clone();
        let mut generator = GraphStreamGenerator::new(
            model,
            GraphStreamConfig {
                avg_edges_per_graph: 6.0,
                locality: 0.75,
                batch_size: 150 * scale.max(1),
                seed,
            },
        );
        let batches = generator.generate_batches(8);
        Self {
            name: format!("graph-model(x{scale})"),
            kind: WorkloadKind::GraphModel,
            catalog,
            batches,
        }
    }

    /// IBM-Quest-style stream.  The item universe is mapped onto a synthetic
    /// edge catalog (a long path graph) so connectivity is meaningful.
    pub fn quest(scale: usize, seed: u64) -> Self {
        let num_items = 60u32;
        let mut generator = QuestGenerator::new(QuestConfig {
            num_items,
            avg_transaction_len: 8.0,
            avg_pattern_len: 4.0,
            num_patterns: 30,
            corruption: 0.25,
            seed,
        });
        let batch_size = 150 * scale.max(1);
        let batches = generator.generate_batches(8, batch_size);
        Self {
            name: format!("quest(x{scale})"),
            kind: WorkloadKind::Quest,
            catalog: EdgeCatalog::path(num_items),
            batches,
        }
    }

    /// connect4-like dense stream (scaled down from 67 557 records; density
    /// and the 130-item domain are preserved).
    pub fn dense(scale: usize, seed: u64) -> Self {
        let generator = DenseGenerator {
            num_items: 130,
            avg_transaction_len: 43.0,
            num_blocks: 8,
            seed,
        };
        let batch_size = 60 * scale.max(1);
        let batches = generator.generate_batches(8, batch_size);
        Self {
            name: format!("dense-connect4(x{scale})"),
            kind: WorkloadKind::Dense,
            catalog: EdgeCatalog::path(130),
            batches,
        }
    }

    /// The standard trio used by most experiments.
    pub fn standard_suite(scale: usize) -> Vec<Workload> {
        vec![
            Self::graph_model(scale, 1001),
            Self::quest(scale, 1002),
            Self::dense(scale, 1003),
        ]
    }

    /// Stream statistics (for workload characterisation tables).
    pub fn stats(&self) -> StreamStats {
        let mut stats = StreamStats::new();
        stats.observe_all(self.batches.iter());
        stats
    }

    /// Total number of transactions in the stream.
    pub fn total_transactions(&self) -> usize {
        self.batches.iter().map(Batch::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsm_types::{EdgeId, VertexId};

    #[test]
    fn standard_suite_produces_three_distinct_workloads() {
        let suite = Workload::standard_suite(1);
        assert_eq!(suite.len(), 3);
        assert!(suite.iter().all(|w| !w.batches.is_empty()));
        assert!(suite[2].stats().density() > suite[1].stats().density());
    }

    #[test]
    fn path_catalog_makes_consecutive_items_adjacent() {
        let catalog = EdgeCatalog::path(5);
        assert_eq!(catalog.num_edges(), 5);
        assert!(catalog.are_adjacent(EdgeId::new(0), EdgeId::new(1)));
        assert!(!catalog.are_adjacent(EdgeId::new(0), EdgeId::new(2)));
        // Item i is the edge (v_{i+1}, v_{i+2}).
        assert_eq!(
            catalog.endpoints(EdgeId::new(4)).unwrap(),
            (VertexId::new(5), VertexId::new(6))
        );
    }

    #[test]
    fn scaling_grows_the_stream() {
        let small = Workload::quest(1, 7);
        let large = Workload::quest(2, 7);
        assert!(large.total_transactions() > small.total_transactions());
    }
}
