//! The pool hire rule: a full vertical-family mine whose own first level —
//! what its roots screen at depth 1, counted from the window before the
//! mine starts — makes fewer than [`HIRE_SCREENS`] screens runs on its
//! caller alone, and every other mine hires the pool's helpers.  The count
//! is the window's, so a new, recovered, thawed or snapshotted miner hires
//! exactly as a long-lived one mining the same window does.
//!
//! Each case serves one tenant from a registry over a one-helper pool, so a
//! hired mine over at least two frequent singletons offers the pool exactly
//! one batch and a solo mine offers none; [`WorkerPool::hires`] counts them
//! before the mine returns.  Whoever ran the tasks, patterns and statistics
//! (but for the wall clock) must equal the same tenant's on an inline-only
//! registry.

use std::sync::Arc;
use std::time::Duration;

use fsm_core::parallel::HIRE_SCREENS;
use fsm_core::{
    Algorithm, Exec, MinerConfig, MiningResult, MiningStats, RegistryConfig, Session,
    SessionRegistry, WorkerPool,
};
use fsm_datagen::DenseGenerator;
use fsm_fptree::MiningLimits;
use fsm_storage::{StorageBackend, TempDir};
use fsm_stream::WindowConfig;
use fsm_types::{Batch, EdgeCatalog, MinSup, Transaction};

/// A registry whose every tenant mines on `pool`.
fn registry(pool: &Arc<WorkerPool>) -> SessionRegistry {
    registry_with(pool, RegistryConfig::default())
}

/// `config` with every tenant mining on `pool`.
fn registry_with(pool: &Arc<WorkerPool>, config: RegistryConfig) -> SessionRegistry {
    SessionRegistry::new(RegistryConfig {
        exec: Exec::pool(Arc::clone(pool)),
        ..config
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

/// A `dense_full`-shaped tenant: connect4-like records over 130 of the 136
/// edges of `complete(17)`, 120–128 of them frequent in each window, so
/// every mine's first level makes 1 592–1 815 screens (direct) or
/// 7 140–8 128 (vertical).  Patterns are capped at three edges to keep the
/// mines short.
fn dense_tenant(algorithm: Algorithm) -> (MinerConfig, Vec<Batch>) {
    let config = MinerConfig {
        algorithm,
        window: WindowConfig::new(2).unwrap(),
        min_support: MinSup::relative(0.18),
        limits: MiningLimits::with_max_len(3),
        catalog: Some(EdgeCatalog::complete(17)),
        ..MinerConfig::default()
    };
    let batches = DenseGenerator {
        seed: 7,
        ..DenseGenerator::default()
    }
    .generate_batches(4, 30);
    (config, batches)
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
/// must hire the one-helper `pool`.
fn step(
    session: &Session,
    pool: &WorkerPool,
    batch: &Batch,
    hires: bool,
    case: &str,
) -> MiningResult {
    let before = pool.hires();
    session.ingest(batch).unwrap();
    let result = session.mine().unwrap();
    assert_eq!(pool.hires(), before + u64::from(hires), "{case}");
    result
}

#[test]
fn a_small_tenant_mines_solo_from_its_first_mine() {
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
        let got = step(&served, &pool, batch, false, &case);
        assert!(got.stats().intersections < HIRE_SCREENS, "{case}");
        alone.ingest(batch).unwrap();
        assert_same(&got, &alone.mine().unwrap(), &case);
    }
    assert_eq!(pool.hires(), 0);
}

/// A thawed and a recovered small tenant have no mine behind them; their
/// first mine runs solo all the same.
#[test]
fn a_thawed_or_recovered_small_tenant_mines_solo() {
    let (config, batches) = small_tenant();
    let root = TempDir::new("hire-rule-cold").unwrap();
    let expected = {
        let alone = registry(&Arc::new(WorkerPool::inline_only()))
            .create_tenant("small", config.clone(), false)
            .unwrap();
        for batch in &batches {
            alone.ingest(batch).unwrap();
        }
        alone.mine().unwrap()
    };
    let pool = Arc::new(WorkerPool::new(1));

    let spilling = registry_with(
        &pool,
        RegistryConfig {
            spill_root: Some(root.path().join("spill")),
            ..RegistryConfig::default()
        },
    );
    let thawed = spilling
        .create_tenant("small", config.clone(), false)
        .unwrap();
    for batch in &batches {
        thawed.ingest(batch).unwrap();
    }
    assert!(thawed.spill().unwrap(), "the spill lands");
    assert_same(&thawed.mine().unwrap(), &expected, "thawed");
    assert_eq!(thawed.status().thaws, 1);
    assert_eq!(pool.hires(), 0, "a thawed miner's first mine");

    let durable = || {
        registry_with(
            &pool,
            RegistryConfig {
                durable_root: Some(root.path().join("durable")),
                ..RegistryConfig::default()
            },
        )
    };
    {
        let before_crash = durable();
        let session = before_crash
            .create_tenant("small", config.clone(), true)
            .unwrap();
        for batch in &batches {
            session.ingest(batch).unwrap();
        }
    }
    let recovered = durable().recover_tenant("small", config).unwrap();
    assert_same(&recovered.mine().unwrap(), &expected, "recovered");
    assert_eq!(pool.hires(), 0, "a recovered miner's first mine");
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

/// The horizontal family screens no candidates and a delta advance's work
/// is its border updates, so neither is counted: small mines keep hiring.
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

/// A snapshot makes its miner's choice for the same window, whatever the
/// miner has mined: a small epoch's snapshot mines solo even before its
/// miner has mined, a dense epoch's hires, and both choose as the miner's
/// own mine of that window does.
#[test]
fn a_snapshot_inherits_its_miners_choice() {
    for (label, (config, batches), hires) in [
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
        let hired = u64::from(hires);

        let fresh = session
            .with_miner(|miner| miner.snapshot())
            .unwrap()
            .unwrap();
        let got = fresh.mine_with(&exec).unwrap();
        assert_eq!(pool.hires(), hired, "{label}: snapshot of an unmined miner");
        assert_eq!(got.patterns(), expected.patterns(), "{label}");

        session.mine().unwrap();
        assert_eq!(pool.hires(), 2 * hired, "{label}: the miner's first mine");
        let after = session
            .with_miner(|miner| miner.snapshot())
            .unwrap()
            .unwrap();
        let got = after.mine_with(&exec).unwrap();
        let case = format!("{label}: snapshot after a mine");
        assert_eq!(pool.hires(), 3 * hired, "{case}");
        assert_eq!(got.patterns(), expected.patterns(), "{case}");
    }
}
