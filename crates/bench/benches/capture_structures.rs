//! Capture-structure comparison: DSTree vs DSTable vs DSMatrix.
//!
//! Supports the paper's second experiment from the capture side: the cost of
//! ingesting one batch (including the window slide) for each of the three
//! structures, plus the mining cost over each structure with the same
//! FP-growth strategy.  The DSMatrix is expected to have the cheapest slide on
//! dense data because it only drops a prefix of every bit row.
//!
//! A second group benchmarks the DSMatrix *read* surface: assembling a view
//! over a captured window, the same way on every backend — over resident
//! memory segments, and over disk segments with the chunk cache disabled
//! (budget 0 — every call reads and decodes every segment run again) or
//! unlimited (the view assembles its rows from cached decoded chunks — no
//! run read, no decode).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fsm_bench::Workload;
use fsm_dsmatrix::{DsMatrix, DsMatrixConfig};
use fsm_dstable::{DsTable, DsTableConfig};
use fsm_dstree::{DsTree, DsTreeConfig};
use fsm_storage::StorageBackend;
use fsm_stream::WindowConfig;

fn capture(c: &mut Criterion) {
    let mut group = c.benchmark_group("capture_one_stream");
    group.sample_size(10);

    for workload in [Workload::graph_model(1, 11), Workload::dense(1, 12)] {
        let window = WindowConfig::new(5).unwrap();

        group.bench_with_input(BenchmarkId::new("dstree", &workload.name), &(), |b, ()| {
            b.iter(|| {
                let mut tree = DsTree::new(DsTreeConfig { window });
                for batch in &workload.batches {
                    tree.ingest_batch(batch).unwrap();
                }
                std::hint::black_box(tree.num_nodes())
            })
        });

        group.bench_with_input(BenchmarkId::new("dstable", &workload.name), &(), |b, ()| {
            b.iter(|| {
                let mut table = DsTable::new(DsTableConfig {
                    window,
                    backend: StorageBackend::Memory,
                    expected_edges: workload.catalog.num_edges(),
                })
                .unwrap();
                for batch in &workload.batches {
                    table.ingest_batch(batch).unwrap();
                }
                std::hint::black_box(table.num_transactions())
            })
        });

        group.bench_with_input(
            BenchmarkId::new("dsmatrix", &workload.name),
            &(),
            |b, ()| {
                b.iter(|| {
                    let mut matrix = DsMatrix::new(DsMatrixConfig::new(
                        window,
                        StorageBackend::Memory,
                        workload.catalog.num_edges(),
                    ))
                    .unwrap();
                    for batch in &workload.batches {
                        matrix.ingest_batch(batch).unwrap();
                    }
                    std::hint::black_box(matrix.num_transactions())
                })
            },
        );
    }
    group.finish();
}

fn read_surface(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_read_surface");
    group.sample_size(10);

    for workload in [Workload::graph_model(1, 11), Workload::dense(1, 12)] {
        for (label, backend, budget) in [
            ("view_memory", StorageBackend::Memory, 0),
            ("view_eager_budget0", StorageBackend::DiskTemp, 0),
            ("view_budgeted", StorageBackend::DiskTemp, usize::MAX),
        ] {
            let mut matrix = DsMatrix::new(
                DsMatrixConfig::new(
                    WindowConfig::new(5).unwrap(),
                    backend,
                    workload.catalog.num_edges(),
                )
                .with_cache_budget(budget),
            )
            .unwrap();
            for batch in &workload.batches {
                matrix.ingest_batch(batch).unwrap();
            }

            group.bench_with_input(BenchmarkId::new(label, &workload.name), &(), |b, ()| {
                b.iter(|| {
                    let view = matrix.view().unwrap();
                    std::hint::black_box(view.num_transactions())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, capture, read_surface);
criterion_main!(benches);
