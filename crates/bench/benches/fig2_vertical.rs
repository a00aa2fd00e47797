//! Figure 2 — runtimes of the two vertical mining algorithms.
//!
//! The paper's Figure 2 plots the fourth algorithm (vertical mining with the
//! post-processing step, §3.4 + §3.5) against the fifth (direct vertical
//! mining, §4).  This bench measures the mining step of both algorithms over
//! the same captured window, across the three standard workloads and a small
//! minsup sweep; the expectation from the paper is that the direct algorithm
//! is consistently faster because it never spends intersections on
//! collections that would be pruned afterwards.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fsm_bench::Workload;
use fsm_core::{Algorithm, MinerConfig, StreamMiner};
use fsm_fptree::MiningLimits;
use fsm_storage::StorageBackend;
use fsm_stream::WindowConfig;
use fsm_types::MinSup;

fn prepared_miner(workload: &Workload, algorithm: Algorithm, minsup: MinSup) -> StreamMiner {
    let mut miner = StreamMiner::new(MinerConfig {
        algorithm,
        window: WindowConfig::new(5).expect("window"),
        min_support: minsup,
        limits: MiningLimits::with_max_len(4),
        backend: StorageBackend::Memory,
        catalog: Some(workload.catalog.clone()),
        ..MinerConfig::default()
    })
    .expect("miner");
    for batch in &workload.batches {
        miner.ingest_batch(batch).expect("ingest");
    }
    miner
}

fn fig2(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_vertical_vs_direct");
    group.sample_size(15);

    for workload in Workload::standard_suite(1) {
        let minsup = match workload.kind {
            fsm_bench::WorkloadKind::Dense => MinSup::relative(0.15),
            _ => MinSup::relative(0.03),
        };
        for algorithm in [Algorithm::Vertical, Algorithm::DirectVertical] {
            let mut miner = prepared_miner(&workload, algorithm, minsup);
            group.bench_with_input(
                BenchmarkId::new(algorithm.key(), &workload.name),
                &(),
                |b, ()| b.iter(|| std::hint::black_box(miner.mine().expect("mine"))),
            );
        }
    }
    group.finish();
}

fn fig2_minsup_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_minsup_sweep");
    group.sample_size(15);
    let workload = Workload::graph_model(1, 909);

    for fraction in [0.02f64, 0.05, 0.10] {
        for algorithm in [Algorithm::Vertical, Algorithm::DirectVertical] {
            let mut miner = prepared_miner(&workload, algorithm, MinSup::relative(fraction));
            group.bench_with_input(
                BenchmarkId::new(algorithm.key(), format!("minsup={:.0}%", fraction * 100.0)),
                &(),
                |b, ()| b.iter(|| std::hint::black_box(miner.mine().expect("mine"))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, fig2, fig2_minsup_sweep);
criterion_main!(benches);
