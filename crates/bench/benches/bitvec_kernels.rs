//! Micro-benchmarks of the BitVec hot-path kernels.
//!
//! The vertical miners spend almost their entire runtime in two kernels:
//! intersect-and-count (candidate screening) and intersect-into-buffer
//! (materialising a frequent candidate's transaction set); a window view
//! first concatenates each row's per-batch chunks.  This bench compares the
//! allocating baselines against the fused / in-place variants the engine
//! uses, and times a row's assembly from its segments.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fsm_storage::{BitVec, SegmentedWindowStore, StorageBackend};

fn vectors(bits: usize) -> (BitVec, BitVec) {
    let a: BitVec = (0..bits).map(|i| i % 3 == 0).collect();
    let b: BitVec = (0..bits).map(|i| i % 5 != 0).collect();
    (a, b)
}

fn intersection_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitvec_intersection");
    group.sample_size(30);

    for bits in [512usize, 8 * 1024, 128 * 1024] {
        let (a, b) = vectors(bits);

        // Baseline: materialise a fresh vector, then count.
        group.bench_with_input(BenchmarkId::new("and_alloc", bits), &(), |bench, ()| {
            bench.iter(|| std::hint::black_box(a.and(&b).count_ones()))
        });

        // Fused popcount without materialisation (the infrequent-candidate
        // screen).
        group.bench_with_input(BenchmarkId::new("and_count", bits), &(), |bench, ()| {
            bench.iter(|| std::hint::black_box(a.and_count(&b)))
        });

        // Fused intersect+count into a reused buffer (the frequent-candidate
        // path).
        let mut scratch = BitVec::new();
        group.bench_with_input(BenchmarkId::new("and_into", bits), &(), |bench, ()| {
            bench.iter(|| std::hint::black_box(a.and_into(&b, &mut scratch)))
        });
    }
    group.finish();
}

/// Screening against a segmented row: assemble it into a reused flat buffer
/// (one `extend_from_bitvec` per segment — a memcpy when aligned, two shifts
/// and an OR per word when not), then the flat kernel.  This is what every
/// disk-backend view and every epoch mine pays per row, once, before mining.
fn assembly_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitvec_assemble");
    group.sample_size(30);

    for bits in [8 * 1024usize, 128 * 1024] {
        let (a, b) = vectors(bits);
        // A window of 16 misaligned segments all touching row 0.
        let mut store = SegmentedWindowStore::open(StorageBackend::Memory).unwrap();
        let seg_cols = bits / 16 + 3;
        let mut produced = 0;
        while produced < bits {
            let cols = seg_cols.min(bits - produced);
            let chunk: BitVec = (produced..produced + cols).map(|i| b.get(i)).collect();
            store.push_segment(cols, [(0usize, &chunk)]).unwrap();
            produced += cols;
        }

        group.bench_with_input(
            BenchmarkId::new("assemble_then_and_count", bits),
            &(),
            |bench, ()| {
                let mut flat = BitVec::new();
                bench.iter(|| {
                    store.assemble_row(0, &mut flat).unwrap();
                    std::hint::black_box(a.and_count(&flat))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, intersection_kernels, assembly_kernels);
criterion_main!(benches);
