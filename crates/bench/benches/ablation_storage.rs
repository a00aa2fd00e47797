//! Ablation A2: disk-backed versus memory-resident DSMatrix.
//!
//! The paper keeps the DSMatrix on disk to bound memory; this ablation
//! quantifies what that costs in capture and mining time by running the same
//! stream and the same (direct vertical) mining over both backends.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fsm_bench::Workload;
use fsm_core::{Algorithm, MinerConfig, StreamMiner};
use fsm_fptree::MiningLimits;
use fsm_storage::StorageBackend;
use fsm_stream::WindowConfig;
use fsm_types::MinSup;

fn backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("dsmatrix_backend");
    group.sample_size(10);
    let workload = Workload::graph_model(1, 333);

    for (label, backend) in [
        ("memory", StorageBackend::Memory),
        ("disk", StorageBackend::DiskTemp),
    ] {
        group.bench_with_input(
            BenchmarkId::new("capture_and_mine", label),
            &backend,
            |b, backend| {
                b.iter(|| {
                    let mut miner = StreamMiner::new(MinerConfig {
                        algorithm: Algorithm::DirectVertical,
                        window: WindowConfig::new(5).expect("window"),
                        min_support: MinSup::relative(0.03),
                        limits: MiningLimits::with_max_len(4),
                        backend: backend.clone(),
                        catalog: Some(workload.catalog.clone()),
                        ..MinerConfig::default()
                    })
                    .expect("miner");
                    for batch in &workload.batches {
                        miner.ingest_batch(batch).expect("ingest");
                    }
                    std::hint::black_box(miner.mine().expect("mine").len())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, backends);
criterion_main!(benches);
