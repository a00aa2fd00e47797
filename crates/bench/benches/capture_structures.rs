//! Capture-structure comparison: DSTree vs DSTable vs DSMatrix.
//!
//! Supports the paper's second experiment from the capture side: the cost of
//! ingesting one batch (including the window slide) for each of the three
//! structures, plus the mining cost over each structure with the same
//! FP-growth strategy.  The DSMatrix is expected to have the cheapest slide on
//! dense data because it only drops a prefix of every bit row.
//!
//! A second group benchmarks the DSMatrix *read* surface: constructing the
//! zero-copy `WindowView` over a captured memory window (it should cost
//! nanoseconds regardless of window size).
//!
//! A third group benchmarks the *disk* read surface: assembling a view over
//! a disk-backed window with the chunk cache disabled (budget 0 — every call
//! fetches, decodes and flat-assembles all pages again) versus an unlimited
//! budget (after the first call, the view assembles its rows from cached
//! decoded chunks — no page fetch, no decode).

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
        let mut matrix = DsMatrix::new(DsMatrixConfig::new(
            WindowConfig::new(5).unwrap(),
            StorageBackend::Memory,
            workload.catalog.num_edges(),
        ))
        .unwrap();
        for batch in &workload.batches {
            matrix.ingest_batch(batch).unwrap();
        }

        group.bench_with_input(
            BenchmarkId::new("view_zero_copy", &workload.name),
            &(),
            |b, ()| {
                b.iter(|| {
                    let view = matrix.view().unwrap();
                    std::hint::black_box(view.num_transactions())
                })
            },
        );
    }
    group.finish();
}

fn disk_read_surface(c: &mut Criterion) {
    let mut group = c.benchmark_group("disk_read_surface");
    group.sample_size(10);

    for workload in [Workload::graph_model(1, 11), Workload::dense(1, 12)] {
        for (label, budget) in [
            ("view_eager_budget0", 0usize),
            ("view_budgeted", usize::MAX),
        ] {
            let mut matrix = DsMatrix::new(
                DsMatrixConfig::new(
                    WindowConfig::new(5).unwrap(),
                    StorageBackend::DiskTemp,
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

criterion_group!(benches, capture, read_surface, disk_read_surface);
criterion_main!(benches);
