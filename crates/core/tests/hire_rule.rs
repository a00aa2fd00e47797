//! The pool hire rule: a full vertical-family mine whose tenant's previous
//! full mine made fewer than [`HIRE_SCREENS`] screens runs on its caller
//! alone, and every other mine hires the pool's helpers.
//!
//! Each case serves one tenant from a registry over a one-helper pool, so a
//! hired mine over at least two frequent singletons queues exactly one
//! helper job and a solo mine queues none; [`WorkerPool::jobs_run`] counts
//! them.  Whoever ran the tasks, patterns and statistics (but for the wall
//! clock) must equal the same tenant's on an inline-only registry.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fsm_core::parallel::HIRE_SCREENS;
use fsm_core::{
    Algorithm, Exec, MinerConfig, MiningResult, MiningStats, RegistryConfig, Session,
    SessionRegistry, WorkerPool,
};
use fsm_datagen::DenseGenerator;
use fsm_storage::StorageBackend;
use fsm_stream::WindowConfig;
use fsm_types::{Batch, EdgeCatalog, MinSup, Transaction};

/// A registry whose every tenant mines on `pool`.
fn registry(pool: &Arc<WorkerPool>) -> SessionRegistry {
    SessionRegistry::new(RegistryConfig {
        exec: Exec::pool(Arc::clone(pool)),
        ..RegistryConfig::default()
    })
}

/// A `fleet_serial`-shaped tenant: a disk-backed `DirectVertical` window
/// whose mines make a few dozen screens.
fn small_tenant() -> (MinerConfig, Vec<Batch>) {
    let t = |raw: &[u32]| Transaction::from_raw(raw.iter().copied());
    let config = MinerConfig {
        algorithm: Algorithm::DirectVertical,
        window: WindowConfig::new(2).unwrap(),
        min_support: MinSup::absolute(2),
        backend: StorageBackend::DiskTemp,
        catalog: Some(EdgeCatalog::complete(4)),
        ..MinerConfig::default()
    };
    let batches = vec![
        Batch::from_transactions(0, vec![t(&[2, 3, 5]), t(&[0, 4, 5]), t(&[0, 2, 5])]),
        Batch::from_transactions(1, vec![t(&[0, 2, 3, 5]), t(&[0, 3, 4, 5]), t(&[0, 1, 2])]),
        Batch::from_transactions(2, vec![t(&[0, 2, 5]), t(&[0, 2, 3, 5]), t(&[1, 2, 3])]),
    ];
    (config, batches)
}

/// A dense tenant: connect4-like records over the 36 edges of
/// `complete(9)`, whose every mine makes more than [`HIRE_SCREENS`] screens.
fn dense_tenant(algorithm: Algorithm) -> (MinerConfig, Vec<Batch>) {
    let config = MinerConfig {
        algorithm,
        window: WindowConfig::new(2).unwrap(),
        min_support: MinSup::relative(0.25),
        catalog: Some(EdgeCatalog::complete(9)),
        ..MinerConfig::default()
    };
    let batches = DenseGenerator {
        num_items: 36,
        avg_transaction_len: 18.0,
        num_blocks: 4,
        seed: 7,
    }
    .generate_batches(4, 30);
    (config, batches)
}

/// Waits until `pool` has run `jobs` helper jobs, then checks it ran no
/// more.  A helper job counts once it has run, which may be after the
/// mine that queued it has returned.
fn assert_jobs_run(pool: &WorkerPool, jobs: u64, case: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while pool.jobs_run() < jobs && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Give a job the rule should not have queued the time to show.
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(pool.jobs_run(), jobs, "{case}: helper jobs run");
}

/// A mine's statistics without the wall clock.
fn timeless(result: &MiningResult) -> MiningStats {
    MiningStats {
        elapsed: Duration::ZERO,
        ..result.stats().clone()
    }
}

fn assert_same(got: &MiningResult, expected: &MiningResult, case: &str) {
    assert_eq!(got.patterns(), expected.patterns(), "{case}: patterns");
    assert_eq!(timeless(got), timeless(expected), "{case}: statistics");
}

/// Ingests `batch` into `session` and mines; `hires` says whether the mine
/// must queue a helper job on the one-helper `pool`.
fn step(
    session: &Session,
    pool: &WorkerPool,
    batch: &Batch,
    hires: bool,
    case: &str,
) -> MiningResult {
    let before = pool.jobs_run();
    session.ingest(batch).unwrap();
    let result = session.mine().unwrap();
    assert_jobs_run(pool, before + u64::from(hires), case);
    result
}

#[test]
fn a_small_tenant_hires_for_its_first_mine_only() {
    let (config, batches) = small_tenant();
    let pool = Arc::new(WorkerPool::new(1));
    let served = registry(&pool)
        .create_tenant("small", config.clone(), false)
        .unwrap();
    let alone = registry(&Arc::new(WorkerPool::inline_only()))
        .create_tenant("small", config, false)
        .unwrap();
    for (i, batch) in batches.iter().enumerate() {
        let case = format!("mine {i}");
        let got = step(&served, &pool, batch, i == 0, &case);
        assert!(got.stats().intersections < HIRE_SCREENS, "{case}");
        alone.ingest(batch).unwrap();
        assert_same(&got, &alone.mine().unwrap(), &case);
    }
}

#[test]
fn a_dense_tenant_hires_for_every_mine() {
    for algorithm in [Algorithm::Vertical, Algorithm::DirectVertical] {
        let (config, batches) = dense_tenant(algorithm);
        let pool = Arc::new(WorkerPool::new(1));
        let served = registry(&pool)
            .create_tenant("dense", config.clone(), false)
            .unwrap();
        let alone = registry(&Arc::new(WorkerPool::inline_only()))
            .create_tenant("dense", config, false)
            .unwrap();
        for (i, batch) in batches.iter().enumerate() {
            let case = format!("{algorithm} mine {i}");
            let got = step(&served, &pool, batch, true, &case);
            assert!(got.stats().intersections >= HIRE_SCREENS, "{case}");
            alone.ingest(batch).unwrap();
            assert_same(&got, &alone.mine().unwrap(), &case);
        }
    }
}

/// The horizontal family reports no screens and a delta advance's count
/// predicts nothing, so neither leaves a history: small mines keep hiring.
#[test]
fn horizontal_and_delta_mines_keep_hiring() {
    let (small, batches) = small_tenant();
    let configs = [
        MinerConfig {
            algorithm: Algorithm::MultiTree,
            ..small.clone()
        },
        MinerConfig {
            delta: true,
            ..small
        },
    ];
    for config in configs {
        let pool = Arc::new(WorkerPool::new(1));
        let served = registry(&pool)
            .create_tenant("small", config.clone(), false)
            .unwrap();
        for (i, batch) in batches.iter().enumerate() {
            let case = format!("{} delta={} mine {i}", config.algorithm, config.delta);
            step(&served, &pool, batch, true, &case);
        }
    }
}

/// A snapshot mines as its source miner's next full mine would: hired
/// before the source has mined, on the caller alone after a small mine,
/// hired again after a dense one.
#[test]
fn a_snapshot_inherits_its_miners_choice() {
    for (label, (config, batches), hires_after_mine) in [
        ("small", small_tenant(), false),
        ("dense", dense_tenant(Algorithm::DirectVertical), true),
    ] {
        let pool = Arc::new(WorkerPool::new(1));
        let exec = Exec::pool(Arc::clone(&pool));
        let session = registry(&pool)
            .create_tenant(label, config.clone(), false)
            .unwrap();
        let alone = registry(&Arc::new(WorkerPool::inline_only()))
            .create_tenant(label, config, false)
            .unwrap();
        for batch in &batches {
            session.ingest(batch).unwrap();
            alone.ingest(batch).unwrap();
        }
        let expected = alone.mine().unwrap();

        let fresh = session
            .with_miner(|miner| miner.snapshot())
            .unwrap()
            .unwrap();
        let got = fresh.mine_with(&exec).unwrap();
        assert_jobs_run(&pool, 1, &format!("{label}: snapshot of an unmined miner"));
        assert_eq!(got.patterns(), expected.patterns(), "{label}");

        session.mine().unwrap();
        assert_jobs_run(&pool, 2, &format!("{label}: the miner's first mine"));
        let after = session
            .with_miner(|miner| miner.snapshot())
            .unwrap()
            .unwrap();
        let got = after.mine_with(&exec).unwrap();
        let case = format!("{label}: snapshot after a mine");
        assert_jobs_run(&pool, 2 + u64::from(hires_after_mine), &case);
        assert_eq!(got.patterns(), expected.patterns(), "{case}");
    }
}
