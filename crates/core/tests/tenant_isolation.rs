//! Tenant isolation: the PR-gating property of the multi-tenant refactor.
//!
//! Every tenant served by a [`SessionRegistry`] must produce output
//! **byte-identical to a standalone single-tenant run** of its own batch
//! sequence — regardless of which other tenants share the process, how
//! their ingests interleave, which backend each tenant uses, how many
//! threads the shared [`WorkerPool`] has, whether a [`BudgetGovernor`]
//! is arbitrating the cache cap, and whether a resident-set cap is forcing
//! cold tenants to spill to disk and thaw on demand.  The shared machinery
//! (pool, governor, registry locks, the spill/thaw lifecycle) may move work
//! and bytes around; it must never move *results*.  The harshest corner is
//! `max_resident = 1`: at most one tenant window is in memory at any time,
//! so nearly every event lands on a spilled tenant and forces a thaw.
//!
//! The harness derives everything from proptest-chosen inputs: a random
//! batch stream, a random per-tenant subsequence assignment, a random
//! interleaving of (ingest, mine) events across tenants, and per-tenant
//! backend/config corners.  That harness interleaves the tenants on *one*
//! thread; a deterministic case drives each tenant from its own producer
//! thread instead, so ingests, mines and residency sweeps really overlap.
//! A last deterministic test pins multi-tenant durable recovery: several
//! tenants under one `durable_root`, process "crash" (drop), per-tenant
//! recovery, identical windows.

use std::sync::Arc;

use fsm_core::{
    Algorithm, Exec, MinerConfig, RegistryConfig, SessionRegistry, StreamMiner, WorkerPool,
};
use fsm_storage::{BudgetGovernor, StorageBackend};
use fsm_stream::WindowConfig;
use fsm_types::{Batch, EdgeCatalog, MinSup, Transaction};
use proptest::prelude::*;

const VERTICES: u32 = 5;
const EDGES: u32 = 10;
const TENANTS: usize = 3;

/// Per-tenant corners: algorithm family × backend × delta, cycled by
/// tenant index so every multi-tenant case mixes them in one process.
fn tenant_config(index: usize) -> MinerConfig {
    let (algorithm, backend, delta) = match index % TENANTS {
        0 => (Algorithm::DirectVertical, StorageBackend::Memory, false),
        1 => (Algorithm::MultiTree, StorageBackend::DiskTemp, false),
        _ => (Algorithm::DirectVertical, StorageBackend::DiskTemp, true),
    };
    MinerConfig {
        algorithm,
        window: WindowConfig::new(2).unwrap(),
        min_support: MinSup::absolute(2),
        backend,
        catalog: Some(EdgeCatalog::complete(VERTICES)),
        cache_budget_bytes: 700,
        delta,
        ..MinerConfig::default()
    }
}

fn to_batches(raw: &[Vec<Vec<u32>>]) -> Vec<Batch> {
    raw.iter()
        .enumerate()
        .map(|(id, transactions)| {
            Batch::from_transactions(
                id as u64,
                transactions
                    .iter()
                    .map(|t| Transaction::from_raw(t.iter().copied()))
                    .collect(),
            )
        })
        .collect()
}

fn arb_stream() -> impl Strategy<Value = Vec<Vec<Vec<u32>>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            proptest::collection::btree_set(0u32..EDGES, 0..5)
                .prop_map(|s| s.into_iter().collect::<Vec<u32>>()),
            1..5,
        ),
        1..5,
    )
}

/// One tenant's event script: which stream batches it ingests, and after
/// which of its own ingests it also mines.
#[derive(Debug, Clone)]
struct Script {
    takes: Vec<bool>,
    mines: Vec<bool>,
}

fn arb_scripts() -> impl Strategy<Value = Vec<Script>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(any::<bool>(), 4),
            proptest::collection::vec(any::<bool>(), 4),
        )
            .prop_map(|(takes, mines)| Script { takes, mines }),
        TENANTS,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The headline property.  `order` seeds a deterministic round-robin
    /// rotation so different cases visit tenants in different interleavings.
    #[test]
    fn tenants_served_together_equal_tenants_run_alone(
        raw in arb_stream(),
        scripts in arb_scripts(),
        order in 0usize..TENANTS,
        pool_threads in 1usize..4,
    ) {
        let batches = to_batches(&raw);
        for (governed, max_resident) in
            [(false, None), (true, None), (false, Some(1)), (true, Some(1))]
        {
            // With the cap at 1 every cross-tenant visit evicts the
            // previous tenant's window; volatile tenants spill under a
            // throwaway root, which must outlive the registry.
            let spill_root = max_resident
                .map(|_| fsm_storage::TempDir::new("tenant-isolation-spill").unwrap());
            let registry = SessionRegistry::new(RegistryConfig {
                exec: Exec::pool(Arc::new(WorkerPool::new(pool_threads))),
                governor: governed.then(|| BudgetGovernor::new(2048)),
                max_resident,
                spill_root: spill_root.as_ref().map(|dir| dir.path().into()),
                ..RegistryConfig::default()
            });
            let sessions: Vec<_> = (0..TENANTS)
                .map(|i| {
                    registry
                        .create_tenant(&format!("tenant-{i}"), tenant_config(i), false)
                        .unwrap()
                })
                .collect();
            // Interleave: per stream batch, visit tenants in rotated order;
            // a tenant takes the batch iff its script says so, and mines
            // right after when its script says so — so tenant mines overlap
            // other tenants' ingests on the shared pool and governor.
            let mut served: Vec<Option<_>> = vec![None; TENANTS];
            for (b, batch) in batches.iter().enumerate() {
                for step in 0..TENANTS {
                    let i = (step + order) % TENANTS;
                    let script = &scripts[i];
                    if *script.takes.get(b).unwrap_or(&false) {
                        sessions[i].ingest(batch).unwrap();
                        if *script.mines.get(b).unwrap_or(&false) {
                            served[i] = Some(sessions[i].mine().unwrap());
                        }
                    }
                }
            }
            for (i, session) in sessions.iter().enumerate() {
                served[i] = Some(session.mine().unwrap());
            }
            // Oracle: each tenant replayed alone, sequentially, ungoverned.
            for i in 0..TENANTS {
                let mut alone = StreamMiner::new(tenant_config(i)).unwrap();
                for (b, batch) in batches.iter().enumerate() {
                    if *scripts[i].takes.get(b).unwrap_or(&false) {
                        alone.ingest_batch(batch).unwrap();
                        if *scripts[i].mines.get(b).unwrap_or(&false) {
                            alone.mine().unwrap();
                        }
                    }
                }
                let expected = alone.mine().unwrap();
                let got = served[i].as_ref().unwrap();
                prop_assert!(
                    got.same_patterns_as(&expected),
                    "tenant {} (governed={}, max_resident={:?}, pool={}) diverged: {:?}",
                    i, governed, max_resident, pool_threads, expected.diff(got)
                );
            }
        }
    }
}

/// One producer thread per tenant: four tenants (mixed backends, one delta)
/// each ingest and mine their own subsequence of a fixed stream, concurrently,
/// through one registry whose pool, governor and resident-set cap they share
/// — with two windows resident at most, every thread's touch sweeps somebody
/// else's window out from under its producer.  An ingest that finds its
/// window held by such a sweep is `Queued`; the tenant's next mine (the final
/// one at the latest) drains it.  Whatever the schedule, every tenant's final
/// patterns must equal its standalone run.
#[test]
fn tenants_driven_from_their_own_threads_equal_tenants_run_alone() {
    const THREADS: usize = 4;
    let raw: Vec<Vec<Vec<u32>>> = (0..32u32)
        .map(|b| {
            (0..4u32)
                .map(|t| {
                    vec![
                        (b + t) % EDGES,
                        (3 * b + 2 * t + 1) % EDGES,
                        (5 * t + b) % EDGES,
                    ]
                })
                .collect()
        })
        .collect();
    let batches = to_batches(&raw);
    // Tenant i skips every batch congruent to i, so no two windows agree.
    let stream = |i: usize| {
        batches
            .iter()
            .enumerate()
            .filter(move |(b, _)| b % THREADS != i)
            .map(|(_, batch)| batch)
    };

    let spill_root = fsm_storage::TempDir::new("tenant-isolation-threads").unwrap();
    let registry = SessionRegistry::new(RegistryConfig {
        exec: Exec::pool(Arc::new(WorkerPool::new(2))),
        governor: Some(BudgetGovernor::new(2048)),
        max_resident: Some(2),
        spill_root: Some(spill_root.path().into()),
        ..RegistryConfig::default()
    });
    let sessions: Vec<_> = (0..THREADS)
        .map(|i| {
            registry
                .create_tenant(&format!("tenant-{i}"), tenant_config(i), false)
                .unwrap()
        })
        .collect();
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for (i, session) in sessions.iter().enumerate() {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                for batch in stream(i) {
                    session.ingest(batch).unwrap();
                    session.mine().unwrap();
                }
            });
        }
    });

    for (i, session) in sessions.iter().enumerate() {
        let mut alone = StreamMiner::new(tenant_config(i)).unwrap();
        for batch in stream(i) {
            alone.ingest_batch(batch).unwrap();
        }
        let expected = alone.mine().unwrap();
        let got = session.mine().unwrap();
        assert!(
            got.same_patterns_as(&expected),
            "tenant {i} diverged from its standalone run: {:?}",
            expected.diff(&got)
        );
    }
}

/// Multi-tenant durable recovery: several durable tenants under one root,
/// crash (drop everything), recover each by id, serve identical windows —
/// and keep streaming as if the crash never happened.
#[test]
fn durable_tenants_recover_independently_under_one_root() {
    let root = fsm_storage::TempDir::new("tenant-isolation-durable").unwrap();
    let registry_config = || RegistryConfig {
        durable_root: Some(root.path().into()),
        ..RegistryConfig::default()
    };
    let durable_config = |i: usize| MinerConfig {
        backend: StorageBackend::DiskTemp,
        ..tenant_config(i)
    };
    let batches = to_batches(&[
        vec![vec![2, 3, 5], vec![0, 4, 5], vec![0, 2, 5]],
        vec![vec![0, 2, 3, 5], vec![0, 3, 4, 5], vec![0, 1, 2]],
        vec![vec![0, 2, 5], vec![0, 2, 3, 5], vec![1, 2, 3]],
    ]);

    let registry = SessionRegistry::new(registry_config());
    let mut before = Vec::new();
    for i in 0..TENANTS {
        let session = registry
            .create_tenant(&format!("tenant-{i}"), durable_config(i), true)
            .unwrap();
        // Tenant i ingests a different prefix, so recovered windows differ.
        for batch in &batches[..=i.min(batches.len() - 1)] {
            session.ingest(batch).unwrap();
        }
        before.push(session.mine().unwrap());
    }
    drop(registry); // the crash: no clean per-tenant teardown

    let recovered = SessionRegistry::new(registry_config());
    assert_eq!(
        recovered.durable_tenants().unwrap(),
        (0..TENANTS)
            .map(|i| format!("tenant-{i}"))
            .collect::<Vec<_>>()
    );
    for i in 0..TENANTS {
        let session = recovered
            .recover_tenant(&format!("tenant-{i}"), durable_config(i))
            .unwrap();
        assert!(
            session.mine().unwrap().same_patterns_as(&before[i]),
            "tenant {i} recovered a different window"
        );
        // The stream continues: one more batch post-recovery must equal a
        // crash-free run of the same sequence.
        session.ingest(batches.last().unwrap()).unwrap();
        let mut alone = StreamMiner::new(durable_config(i)).unwrap();
        for batch in &batches[..=i.min(batches.len() - 1)] {
            alone.ingest_batch(batch).unwrap();
        }
        alone.ingest_batch(batches.last().unwrap()).unwrap();
        assert!(
            session
                .mine()
                .unwrap()
                .same_patterns_as(&alone.mine().unwrap()),
            "tenant {i} diverged after post-recovery ingest"
        );
    }
}
