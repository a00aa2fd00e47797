//! End-to-end service tests: a real TCP server, real clients, and a
//! standalone [`StreamMiner`] as the oracle — what a tenant is served over
//! the socket must equal what it would have mined alone in-process.

use std::sync::mpsc;
use std::sync::Arc;

use fsm_core::{
    Algorithm, Exec, MinerConfig, RegistryConfig, SessionRegistry, StreamMiner, WorkerPool,
};
use fsm_fsmd::{serve, FsmdClient, ServerHandle, TenantSpec};
use fsm_storage::BudgetGovernor;
use fsm_types::{Batch, EdgeCatalog, FsmError, MinSup, Transaction};

const VERTICES: u32 = 4;

fn batches() -> Vec<Batch> {
    let t = |raw: &[u32]| Transaction::from_raw(raw.iter().copied());
    vec![
        Batch::from_transactions(0, vec![t(&[2, 3, 5]), t(&[0, 4, 5]), t(&[0, 2, 5])]),
        Batch::from_transactions(1, vec![t(&[0, 2, 3, 5]), t(&[0, 3, 4, 5]), t(&[0, 1, 2])]),
        Batch::from_transactions(2, vec![t(&[0, 2, 5]), t(&[0, 2, 3, 5]), t(&[1, 2, 3])]),
        Batch::from_transactions(3, vec![t(&[1, 4]), t(&[0, 2]), t(&[0, 2, 5])]),
    ]
}

fn spec(tenant: &str, algorithm: u8, backend: u8) -> TenantSpec {
    TenantSpec {
        tenant: tenant.into(),
        algorithm,
        window_batches: 2,
        minsup_absolute: true,
        minsup: 2,
        catalog_kind: 1,
        catalog_n: VERTICES,
        backend,
        cache_budget: 512,
        durable: false,
        delta: false,
    }
}

fn standalone(algorithm: Algorithm, backend: fsm_storage::StorageBackend) -> StreamMiner {
    StreamMiner::new(MinerConfig {
        algorithm,
        window: fsm_stream::WindowConfig::new(2).unwrap(),
        min_support: MinSup::absolute(2),
        backend,
        catalog: Some(EdgeCatalog::complete(VERTICES)),
        ..MinerConfig::default()
    })
    .unwrap()
}

fn start(config: RegistryConfig) -> (Arc<SessionRegistry>, ServerHandle) {
    let registry = Arc::new(SessionRegistry::new(config));
    let handle = serve(Arc::clone(&registry), "127.0.0.1:0").unwrap();
    (registry, handle)
}

/// Three tenants with different algorithms and backends, interleaved over
/// one socket while mines run on another connection, all multiplexed over a
/// two-thread pool under one cache governor: each tenant's served patterns
/// must equal its standalone oracle's.
#[test]
fn served_tenants_match_standalone_miners() {
    let (_registry, handle) = start(RegistryConfig {
        exec: Exec::pool(Arc::new(WorkerPool::new(2))),
        governor: Some(BudgetGovernor::new(4096)),
        ..RegistryConfig::default()
    });
    let tenants = [
        ("alpha", Algorithm::DirectVertical, 0u8),
        ("beta", Algorithm::MultiTree, 1u8),
        ("gamma", Algorithm::SingleTree, 1u8),
    ];
    let mut feeder = FsmdClient::connect(handle.local_addr()).unwrap();
    let mut miner_conn = FsmdClient::connect(handle.local_addr()).unwrap();
    for (tenant, _, backend) in &tenants {
        let algorithm = tenants.iter().find(|t| t.0 == *tenant).unwrap().1;
        let index = Algorithm::ALL.iter().position(|a| *a == algorithm).unwrap();
        feeder
            .create_tenant(&spec(tenant, index as u8, *backend))
            .unwrap();
    }
    assert_eq!(
        miner_conn.list_tenants().unwrap(),
        vec!["alpha".to_string(), "beta".into(), "gamma".into()]
    );
    // Interleave: every batch goes to every tenant, round-robin, with a
    // cross-connection mine between slides to keep the pool busy.
    for batch in &batches() {
        for (tenant, _, _) in &tenants {
            assert!(feeder.ingest_retrying(tenant, batch).unwrap());
        }
        miner_conn.mine("alpha").unwrap();
    }
    for (tenant, algorithm, backend) in tenants {
        let backend = match backend {
            0 => fsm_storage::StorageBackend::Memory,
            _ => fsm_storage::StorageBackend::DiskTemp,
        };
        let mut oracle = standalone(algorithm, backend);
        for batch in &batches() {
            oracle.ingest_batch(batch).unwrap();
        }
        let expected = oracle.mine().unwrap();
        let served = miner_conn.mine(tenant).unwrap();
        assert_eq!(
            served,
            expected.patterns().to_vec(),
            "tenant {tenant} diverged from its standalone run"
        );
    }
    handle.shutdown();
}

/// A full ingest queue surfaces as the dedicated backpressure status, the
/// producer's retry loop recovers, and nothing is lost or reordered.
#[test]
fn backpressure_is_reported_and_recoverable() {
    let (registry, handle) = start(RegistryConfig {
        max_pending_batches: 2,
        ..RegistryConfig::default()
    });
    let mut client = FsmdClient::connect(handle.local_addr()).unwrap();
    client.create_tenant(&spec("solo", 4, 0)).unwrap();
    let stream = batches();
    assert!(client.ingest("solo", &stream[0]).unwrap());

    // Hold the tenant's window hostage so socket ingests fall into the
    // bounded queue, then overflow it.
    let session = registry.get("solo").unwrap();
    let (hold_tx, hold_rx) = mpsc::channel::<()>();
    let (held_tx, held_rx) = mpsc::channel::<()>();
    let hostage = std::thread::spawn(move || {
        session
            .with_miner(move |_| {
                held_tx.send(()).unwrap();
                hold_rx.recv().unwrap();
            })
            .unwrap();
    });
    held_rx.recv().unwrap();
    assert!(!client.ingest("solo", &stream[1]).unwrap()); // queued
    assert!(!client.ingest("solo", &stream[2]).unwrap()); // queue now full
    match client.ingest("solo", &stream[3]) {
        Err(FsmError::Backpressure { tenant }) => assert_eq!(tenant, "solo"),
        other => panic!("expected backpressure, got {other:?}"),
    }
    hold_tx.send(()).unwrap();
    hostage.join().unwrap();
    // The retry loop delivers the rejected batch after the queue drains.
    assert!(client.ingest_retrying("solo", &stream[3]).unwrap());

    let mut oracle = standalone(
        Algorithm::DirectVertical,
        fsm_storage::StorageBackend::Memory,
    );
    for batch in &stream {
        oracle.ingest_batch(batch).unwrap();
    }
    assert_eq!(
        client.mine("solo").unwrap(),
        oracle.mine().unwrap().patterns().to_vec(),
        "the backpressure episode must not lose or reorder batches"
    );
    handle.shutdown();
}

/// Subscriptions deliver the per-slide published result over the socket;
/// the published patterns equal an on-demand mine of the same epoch.
#[test]
fn subscriptions_publish_every_slide_over_the_socket() {
    let (_registry, handle) = start(RegistryConfig::default());
    let mut client = FsmdClient::connect(handle.local_addr()).unwrap();
    client.create_tenant(&spec("sub", 4, 0)).unwrap();
    client.subscribe("sub").unwrap();
    assert_eq!(client.poll("sub").unwrap(), None);
    for batch in &batches() {
        assert!(client.ingest_retrying("sub", batch).unwrap());
        let published = client
            .poll("sub")
            .unwrap()
            .expect("every applied ingest publishes to the live subscription");
        assert_eq!(
            published,
            client.mine("sub").unwrap(),
            "published epoch diverged from an on-demand mine"
        );
        assert_eq!(client.poll("sub").unwrap(), None, "no double delivery");
    }
    handle.shutdown();
}

/// Durable tenants survive a server restart: recover over the socket from
/// the same per-tenant directory and serve the exact pre-restart window.
#[test]
fn durable_tenants_recover_across_server_restarts() {
    let root = fsm_storage::TempDir::new("fsmd-durable").unwrap();
    let config = || RegistryConfig {
        durable_root: Some(root.path().into()),
        ..RegistryConfig::default()
    };
    let stream = batches();
    let mut durable_spec = spec("keeper", 4, 1);
    durable_spec.durable = true;

    let (registry, handle) = start(config());
    let mut client = FsmdClient::connect(handle.local_addr()).unwrap();
    client.create_tenant(&durable_spec).unwrap();
    for batch in &stream[..3] {
        assert!(client.ingest_retrying("keeper", batch).unwrap());
    }
    let before = client.mine("keeper").unwrap();
    drop(client);
    handle.shutdown();
    drop(registry);

    let (_registry, handle) = start(config());
    let mut client = FsmdClient::connect(handle.local_addr()).unwrap();
    assert_eq!(client.list_tenants().unwrap(), Vec::<String>::new());
    client.recover_tenant(&durable_spec).unwrap();
    assert_eq!(
        client.mine("keeper").unwrap(),
        before,
        "recovered window must serve the exact pre-restart patterns"
    );
    // The stream continues where it left off after recovery.
    assert!(client.ingest_retrying("keeper", &stream[3]).unwrap());
    let mut oracle = standalone(
        Algorithm::DirectVertical,
        fsm_storage::StorageBackend::DiskTemp,
    );
    for batch in &stream {
        oracle.ingest_batch(batch).unwrap();
    }
    assert_eq!(
        client.mine("keeper").unwrap(),
        oracle.mine().unwrap().patterns().to_vec()
    );
    handle.shutdown();
}

/// A durable tenant whose segment write fails answers that `Ingest` with an
/// error status and keeps serving: nothing of the refused batch is logged,
/// the next ingests are applied, and it mines what a tenant that never saw
/// the refused batch mines.
#[test]
fn a_durable_tenant_refusing_a_segment_write_keeps_serving() {
    let root = fsm_storage::TempDir::new("fsmd-refused-write").unwrap();
    let (_registry, handle) = start(RegistryConfig {
        durable_root: Some(root.path().into()),
        ..RegistryConfig::default()
    });
    let stream = batches();
    let t = |raw: &[u32]| Transaction::from_raw(raw.iter().copied());
    let last = Batch::from_transactions(4, vec![t(&[0, 5]), t(&[0, 2, 3]), t(&[2, 3, 5])]);
    let mut durable_spec = spec("refusing", 4, 1);
    durable_spec.durable = true;
    let mut client = FsmdClient::connect(handle.local_addr()).unwrap();
    client.create_tenant(&durable_spec).unwrap();
    assert!(client.ingest("refusing", &stream[0]).unwrap());
    assert!(client.ingest("refusing", &stream[1]).unwrap());

    let segments = root.path().join("refusing").join("segments");
    std::fs::remove_dir_all(&segments).unwrap();
    let err = client
        .ingest("refusing", &stream[2])
        .unwrap_err()
        .to_string();
    assert!(err.contains("segment run"), "got: {err}");
    std::fs::create_dir_all(&segments).unwrap();
    client.ping().unwrap();
    assert!(client.ingest("refusing", &stream[3]).unwrap());
    assert!(client.ingest("refusing", &last).unwrap());

    let mut oracle = standalone(
        Algorithm::DirectVertical,
        fsm_storage::StorageBackend::DiskTemp,
    );
    for batch in [&stream[0], &stream[1], &stream[3], &last] {
        oracle.ingest_batch(batch).unwrap();
    }
    assert_eq!(
        client.mine("refusing").unwrap(),
        oracle.mine().unwrap().patterns().to_vec()
    );
    handle.shutdown();
}

/// A resident-set cap on the served registry is invisible on the wire:
/// with `max_resident = 1` every cross-tenant request lands on a spilled
/// tenant and thaws it transparently, outputs stay byte-identical to the
/// standalone oracles, and `list` reports lifecycle state, resident bytes
/// and thaw counts per tenant.
#[test]
fn spilled_tenants_are_served_transparently_over_the_socket() {
    let spill_root = fsm_storage::TempDir::new("fsmd-spill").unwrap();
    let (_registry, handle) = start(RegistryConfig {
        max_resident: Some(1),
        spill_root: Some(spill_root.path().into()),
        ..RegistryConfig::default()
    });
    let mut client = FsmdClient::connect(handle.local_addr()).unwrap();
    let tenants = ["cold", "hot", "warm"];
    for tenant in tenants {
        client.create_tenant(&spec(tenant, 4, 0)).unwrap();
    }
    // Round-robin ingest: every visit to the next tenant evicts the one
    // just touched, so every ingest after the first round hits a spilled
    // window and must thaw it first.
    for batch in &batches() {
        for tenant in tenants {
            assert!(client.ingest_retrying(tenant, batch).unwrap());
        }
    }
    let statuses = client.list_tenants_detailed().unwrap();
    assert_eq!(
        statuses
            .iter()
            .map(|s| s.tenant.as_str())
            .collect::<Vec<_>>(),
        vec!["cold", "hot", "warm"]
    );
    let resident = statuses
        .iter()
        .filter(|s| s.state != fsm_core::LifecycleState::Spilled)
        .count();
    assert!(
        resident <= 1,
        "max_resident = 1 must leave at most one tenant resident, \
         got states {:?}",
        statuses
            .iter()
            .map(|s| (s.tenant.clone(), s.state))
            .collect::<Vec<_>>()
    );
    assert!(
        statuses.iter().all(|s| s.thaws > 0),
        "round-robin over a cap of 1 must have thawed every tenant"
    );
    assert!(
        statuses
            .iter()
            .filter(|s| s.state == fsm_core::LifecycleState::Spilled)
            .all(|s| s.resident_bytes == 0),
        "a spilled tenant holds no resident window bytes"
    );
    // Transparency: mines against mostly-spilled tenants serve exactly
    // what a standalone run of the same stream would.
    let mut oracle = standalone(
        Algorithm::DirectVertical,
        fsm_storage::StorageBackend::Memory,
    );
    for batch in &batches() {
        oracle.ingest_batch(batch).unwrap();
    }
    let expected = oracle.mine().unwrap();
    for tenant in tenants {
        assert_eq!(
            client.mine(tenant).unwrap(),
            expected.patterns().to_vec(),
            "tenant {tenant} diverged after spill/thaw cycles"
        );
    }
    handle.shutdown();
}

/// Protocol-level failures are reported as error responses, not hangups:
/// unknown tenants, duplicate creates, malformed opcodes, polls without a
/// subscription and catalogs over their kind's limit (`catalog_n =
/// u32::MAX` used to build for as long as the connection lived) all leave
/// the connection serving.
#[test]
fn errors_are_responses_not_hangups() {
    let (_registry, handle) = start(RegistryConfig::default());
    let mut client = FsmdClient::connect(handle.local_addr()).unwrap();
    let err = client.mine("ghost").unwrap_err().to_string();
    assert!(err.contains("unknown tenant"), "got: {err}");
    client.create_tenant(&spec("dup", 4, 0)).unwrap();
    let err = client
        .create_tenant(&spec("dup", 4, 0))
        .unwrap_err()
        .to_string();
    assert!(err.contains("already exists"), "got: {err}");
    let err = client.poll("dup").unwrap_err().to_string();
    assert!(err.contains("not subscribed"), "got: {err}");
    let err = client
        .create_tenant(&spec("badalgo", 9, 0))
        .unwrap_err()
        .to_string();
    assert!(err.contains("algorithm index"), "got: {err}");
    let err = client
        .create_tenant(&spec("bad tenant", 4, 0))
        .unwrap_err()
        .to_string();
    assert!(err.contains("tenant id"), "got: {err}");
    for kind in [0, 1] {
        let huge = TenantSpec {
            catalog_kind: kind,
            catalog_n: u32::MAX,
            ..spec(&format!("huge-{kind}"), 4, 0)
        };
        let err = client.create_tenant(&huge).unwrap_err().to_string();
        assert!(err.contains("over the limit"), "kind {kind}: {err}");
    }
    // The connection is still alive and serving after all of the above.
    client.ping().unwrap();
    assert_eq!(client.list_tenants().unwrap(), vec!["dup".to_string()]);
    handle.shutdown();
}

/// A served ingest names rows of the tenant's window, so an id is a claim
/// too: one frame naming edge `0xFFFF_FFFF` would have sized the window's
/// row tables by it.  An id outside the tenant's catalog, and a batch whose
/// ids are not canonical, are error responses; the connection keeps
/// serving, and the tenant's window is exactly as before.
#[test]
fn an_ingest_outside_the_catalog_or_out_of_order_is_refused_and_changes_nothing() {
    let (registry, handle) = start(RegistryConfig::default());
    let mut client = FsmdClient::connect(handle.local_addr()).unwrap();
    client.create_tenant(&spec("strict", 4, 0)).unwrap();
    let stream = batches();
    assert!(client.ingest("strict", &stream[0]).unwrap());
    let session = registry.get("strict").unwrap();
    let edges = EdgeCatalog::complete(VERTICES).num_edges();
    assert_eq!(session.catalog_edges(), edges);
    let shape = |session: &fsm_core::Session| {
        session
            .with_miner(|miner| {
                let matrix = miner.matrix_mut();
                (
                    matrix.num_items(),
                    matrix.num_transactions(),
                    matrix.num_batches(),
                )
            })
            .unwrap()
    };
    let before = shape(&session);

    let t = |raw: &[u32]| Transaction::from_raw(raw.iter().copied());
    for outside in [u32::MAX, edges as u32] {
        let batch = Batch::from_transactions(1, vec![t(&[0, 2]), t(&[1, outside]), t(&[3])]);
        let err = client.ingest("strict", &batch).unwrap_err().to_string();
        assert!(
            err.contains(&format!("unknown edge identifier {outside}")),
            "got: {err}"
        );
    }
    // Ids 5, 4 in one transaction: refused, not sorted into {4, 5}.
    let mut request = vec![fsm_fsmd::Opcode::Ingest as u8];
    fsm_fsmd::proto::put_str(&mut request, "strict");
    for word in [1u32, 0, 1, 2, 5, 4] {
        request.extend_from_slice(&word.to_le_bytes());
    }
    let mut raw = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    fsm_fsmd::proto::read_frame(&mut raw)
        .unwrap()
        .expect("hello");
    fsm_fsmd::proto::write_frame(&mut raw, &request).unwrap();
    let response = fsm_fsmd::proto::read_frame(&mut raw).unwrap().unwrap();
    assert_eq!(response[0], fsm_fsmd::Status::Err as u8);
    let message = String::from_utf8_lossy(&response[3..]).into_owned();
    assert!(message.contains("strictly increase"), "got: {message}");

    assert_eq!(
        shape(&session),
        before,
        "a refused ingest touched the window"
    );
    client.ping().unwrap();
    for batch in &stream[1..] {
        assert!(client.ingest("strict", batch).unwrap());
    }
    let mut oracle = standalone(
        Algorithm::DirectVertical,
        fsm_storage::StorageBackend::Memory,
    );
    for batch in &stream {
        oracle.ingest_batch(batch).unwrap();
    }
    assert_eq!(
        client.mine("strict").unwrap(),
        oracle.mine().unwrap().patterns().to_vec()
    );
    handle.shutdown();
}

/// A window width is a claim as well: one `CreateTenant` frame asking for
/// `u32::MAX` batches used to reserve the window's batch queue for all of
/// them — a 64 GiB request that aborted the server with every tenant on
/// it.  Such a tenant is created, ingests and mines like any other, on
/// every backend and with delta maintenance too.
#[test]
fn a_tenant_as_wide_as_the_window_field_allows_is_served() {
    let registry = SessionRegistry::new(RegistryConfig::default());
    let stream = batches();
    for (backend, delta) in [(0u8, false), (1, false), (0, true)] {
        let spec = TenantSpec {
            window_batches: u32::MAX,
            delta,
            ..spec(&format!("wide-{backend}-{delta}"), 4, backend)
        };
        let config = fsm_fsmd::server::miner_config(&spec).unwrap();
        let session = registry.create_tenant(&spec.tenant, config, false).unwrap();
        session.ingest(&stream[0]).unwrap();
        let mut oracle = standalone(
            Algorithm::DirectVertical,
            fsm_storage::StorageBackend::Memory,
        );
        oracle.ingest_batch(&stream[0]).unwrap();
        assert_eq!(
            session.mine().unwrap().patterns(),
            oracle.mine().unwrap().patterns(),
            "backend {backend}, delta {delta}"
        );
    }
}
