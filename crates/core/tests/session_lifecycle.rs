//! Spill/thaw lifecycle corners that the headline isolation property
//! cannot reach on its own: a corrupt spill artifact surfacing (and the
//! tenant staying recreatable), a spill racing an in-flight mine, the
//! residency sweep never waiting on a held window, a dropped tenant's spill
//! image going with it (and never a durable namesake's files under an
//! aliased root), a delta tenant's incremental state rebuilding exactly
//! across a spill/thaw cycle, a subscribed disk tenant holding nothing
//! resident outside its residency budget, and a durable tenant refusing a
//! batch whose segment write failed without wedging its log.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use fsm_core::{
    Algorithm, Exec, IngestOutcome, LifecycleState, MinerConfig, RegistryConfig, Session,
    SessionRegistry, StreamMiner, WorkerPool,
};
use fsm_dsmatrix::DsMatrix;
use fsm_storage::{StorageBackend, TempDir};
use fsm_stream::WindowConfig;
use fsm_types::{Batch, EdgeCatalog, FsmError, MinSup, Transaction};

fn config(delta: bool) -> MinerConfig {
    MinerConfig {
        algorithm: Algorithm::DirectVertical,
        window: WindowConfig::new(2).unwrap(),
        min_support: MinSup::absolute(2),
        backend: StorageBackend::Memory,
        catalog: Some(EdgeCatalog::complete(4)),
        delta,
        ..MinerConfig::default()
    }
}

fn batches() -> Vec<Batch> {
    let t = |raw: &[u32]| Transaction::from_raw(raw.iter().copied());
    vec![
        Batch::from_transactions(0, vec![t(&[2, 3, 5]), t(&[0, 4, 5]), t(&[0, 2, 5])]),
        Batch::from_transactions(1, vec![t(&[0, 2, 3, 5]), t(&[0, 3, 4, 5]), t(&[0, 1, 2])]),
        Batch::from_transactions(2, vec![t(&[0, 2, 5]), t(&[0, 2, 3, 5]), t(&[1, 2, 3])]),
    ]
}

fn spilling_registry(root: &TempDir) -> SessionRegistry {
    SessionRegistry::new(RegistryConfig {
        spill_root: Some(root.path().into()),
        ..RegistryConfig::default()
    })
}

/// Every file under `dir` with its bytes, keyed by path relative to `dir`.
fn files_under(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                out.insert(path.strip_prefix(root).unwrap().to_path_buf(), bytes);
            }
        }
    }
    let mut out = BTreeMap::new();
    if dir.exists() {
        walk(dir, dir, &mut out);
    }
    out
}

/// Holds `session`'s window on another thread — as a long mine would —
/// until the returned closure is called.
fn hold_window(session: &Arc<Session>) -> impl FnOnce() {
    let (hold_tx, hold_rx) = mpsc::channel::<()>();
    let (held_tx, held_rx) = mpsc::channel::<()>();
    let hostage = {
        let session = Arc::clone(session);
        std::thread::spawn(move || {
            session
                .with_miner(move |_| {
                    held_tx.send(()).unwrap();
                    hold_rx.recv().unwrap();
                })
                .unwrap();
        })
    };
    held_rx.recv().unwrap();
    move || {
        hold_tx.send(()).unwrap();
        hostage.join().unwrap();
    }
}

/// A corrupt spill artifact follows the recovery discipline, whichever
/// file of the image is damaged — the checkpoint or any segment run: the
/// thaw fails with an error naming that file, the proven-corrupt image is
/// deleted so it cannot be retried into, and the tenant id stays usable —
/// drop it and create it afresh.
#[test]
fn corrupt_spill_artifact_is_named_and_tenant_is_recreatable() {
    let root = TempDir::new("lifecycle-corrupt").unwrap();
    let registry = spilling_registry(&root);
    let image = DsMatrix::spill_image(&root.path().join("victim"));
    let victim = || {
        let session = registry
            .create_tenant("victim", config(false), false)
            .unwrap();
        for batch in &batches() {
            session.ingest(batch).unwrap();
        }
        session
    };
    let expected = victim().mine().unwrap();
    registry.drop_tenant("victim").unwrap();

    for nth in 0..3 {
        let session = victim();
        assert!(session.spill().unwrap());
        assert_eq!(session.state(), LifecycleState::Spilled);
        let files = files_under(&image);
        assert_eq!(files.len(), 3, "a checkpoint and one run per live batch");
        // Flip a byte in the middle of the image's `nth` file.
        let (file, mut bytes) = files.into_iter().nth(nth).unwrap();
        let file = image.join(file);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&file, &bytes).unwrap();

        let name = file.file_name().unwrap().to_string_lossy();
        match session.mine() {
            Err(FsmError::CorruptArtifact { artifact, .. }) => assert_eq!(artifact, name),
            Err(other) => panic!("{name}: expected CorruptArtifact, got: {other}"),
            Ok(_) => panic!("{name}: a damaged image was served"),
        }
        assert!(
            !image.exists(),
            "{name}: a proven-corrupt spill image must be deleted, not retried into"
        );

        // The tenant id is not poisoned: drop and recreate, and the fresh
        // tenant serves the stream like nothing happened.
        registry.drop_tenant("victim").unwrap();
        assert!(victim().mine().unwrap().same_patterns_as(&expected));
        registry.drop_tenant("victim").unwrap();
    }
}

/// A spill issued while a mine holds the window drains cleanly: the spill
/// blocks until the in-flight work releases the window, then lands, and
/// the next request thaws back to the exact same window.  Both mines run on
/// their caller alone, the tenant's first as well as the thawed miner's:
/// the window's first level is far below the hire count (the hire rule,
/// `hire_rule.rs`).
#[test]
fn spill_racing_an_in_flight_mine_drains_cleanly() {
    let root = TempDir::new("lifecycle-race").unwrap();
    let registry = SessionRegistry::new(RegistryConfig {
        exec: Exec::pool(Arc::new(WorkerPool::new(2))),
        spill_root: Some(root.path().into()),
        ..RegistryConfig::default()
    });
    let session = registry
        .create_tenant("racer", config(false), false)
        .unwrap();
    for batch in &batches() {
        session.ingest(batch).unwrap();
    }
    let expected = session.mine().unwrap();

    // Hold the window hostage from another thread, issue the spill while
    // it is held, and only then release the hostage.
    let release = hold_window(&session);
    let spiller = {
        let session = Arc::clone(&session);
        std::thread::spawn(move || session.spill())
    };
    // The spill is now queued on the window lock; let the mine finish.
    std::thread::sleep(Duration::from_millis(20));
    release();
    assert!(
        spiller.join().unwrap().unwrap(),
        "the queued spill must land"
    );
    assert_eq!(session.state(), LifecycleState::Spilled);

    // Thaw-on-demand serves the exact pre-spill window.
    assert!(session.mine().unwrap().same_patterns_as(&expected));
    assert_ne!(session.state(), LifecycleState::Spilled);
    assert_eq!(session.status().thaws, 1);
}

/// Enforcing the resident cap never makes a request wait on another
/// tenant's window.  A tenant in the middle of a long operation looks cold
/// to the clock (its touch bit is only stamped on completion); the sweep
/// must pass over it, not queue behind its window lock.
#[test]
fn a_request_never_waits_on_another_tenants_window() {
    let root = TempDir::new("lifecycle-held").unwrap();
    let registry = SessionRegistry::new(RegistryConfig {
        max_resident: Some(1),
        spill_root: Some(root.path().into()),
        ..RegistryConfig::default()
    });
    let a = registry.create_tenant("a", config(false), false).unwrap();
    let b = registry.create_tenant("b", config(false), false).unwrap();
    let stream = batches();
    b.ingest(&stream[0]).unwrap();
    // Admitting b swept a out and left the clock hand on b: b is the
    // victim the next over-cap sweep reaches first.
    assert_eq!(a.state(), LifecycleState::Spilled);

    // b enters a long operation: its window stays held until released.
    let release = hold_window(&b);

    // a's request thaws a (two resident windows, cap one) and sweeps.
    let (done_tx, done_rx) = mpsc::channel();
    let request = {
        let a = Arc::clone(&a);
        let batch = stream[0].clone();
        std::thread::spawn(move || done_tx.send(a.ingest(&batch)).unwrap())
    };
    done_rx
        .recv_timeout(Duration::from_secs(20))
        .expect("a's ingest waited on b's window to enforce the cap")
        .unwrap();
    assert_ne!(
        b.state(),
        LifecycleState::Spilled,
        "b's window is held: it is in use, not cold"
    );
    request.join().unwrap();

    release();
    registry.enforce_residency();
    let resident = [&a, &b]
        .iter()
        .filter(|session| session.state() != LifecycleState::Spilled)
        .count();
    assert_eq!(resident, 1, "the cap is re-established once b lets go");

    // Neither tenant's window was disturbed along the way.
    let mut oracle = StreamMiner::new(config(false)).unwrap();
    oracle.ingest_batch(&stream[0]).unwrap();
    let expected = oracle.mine().unwrap();
    assert!(a.mine().unwrap().same_patterns_as(&expected));
    assert!(b.mine().unwrap().same_patterns_as(&expected));
}

/// A volatile tenant's spill image goes when the tenant goes — whether it
/// was spilled at the time or had thawed again — and so does
/// one the registry still holds when it is dropped.  A durable tenant's
/// directory is the opposite case: it must survive the drop, because it is
/// what `recover_tenant` reads.  That holds with the spill root aliased to
/// the durable root too, where a volatile namesake spills, thaws and is
/// dropped inside the durable tenant's directory: its image has a
/// subdirectory of its own, and the durable files stay byte for byte.
#[test]
fn dropping_a_volatile_tenant_removes_its_spill_image() {
    let root = TempDir::new("lifecycle-drop").unwrap();
    let registry = SessionRegistry::new(RegistryConfig {
        spill_root: Some(root.path().into()),
        durable_root: Some(root.path().into()),
        ..RegistryConfig::default()
    });
    let stream = batches();
    let spilled_volatile = |tenant: &str| {
        let session = registry
            .create_tenant(tenant, config(false), false)
            .unwrap();
        session.ingest(&stream[0]).unwrap();
        assert!(session.spill().unwrap());
        assert!(DsMatrix::spill_image(&root.path().join(tenant)).exists());
        session
    };

    for tenant in ["spilled", "thawed", "held"] {
        spilled_volatile(tenant);
    }
    registry.get("thawed").unwrap().mine().unwrap();
    for tenant in ["spilled", "thawed"] {
        registry.drop_tenant(tenant).unwrap();
        assert!(
            !root.path().join(tenant).exists(),
            "{tenant}: the spill image outlived its tenant"
        );
    }

    let durable = MinerConfig {
        backend: StorageBackend::DiskTemp,
        ..config(false)
    };
    let session = registry
        .create_tenant("kept", durable.clone(), true)
        .unwrap();
    for batch in &stream {
        session.ingest(batch).unwrap();
    }
    let expected = session.mine().unwrap();
    assert!(session.spill().unwrap());
    drop(session);
    registry.drop_tenant("kept").unwrap();
    let durable_files = files_under(&root.path().join("kept"));
    spilled_volatile("kept").mine().unwrap();
    registry.drop_tenant("kept").unwrap();
    assert_eq!(
        files_under(&root.path().join("kept")),
        durable_files,
        "the volatile namesake touched the durable tenant's files"
    );
    let recovered = registry.recover_tenant("kept", durable).unwrap();
    assert!(recovered.mine().unwrap().same_patterns_as(&expected));
    drop(recovered);

    drop(registry);
    assert!(
        !root.path().join("held").exists(),
        "the spill image outlived the registry"
    );
    assert!(root.path().join("kept").exists());
}

/// A durable tenant whose segment write fails refuses that batch and keeps
/// serving: the run is written before the WAL record is appended, so the
/// refused batch is never logged, every later ingest is applied, and
/// `recover_tenant` brings back the window the tenant served — never one
/// holding the refused batch.
#[test]
fn a_durable_tenant_refusing_a_segment_write_keeps_serving_and_recovers_without_it() {
    let root = TempDir::new("lifecycle-refused-write").unwrap();
    let registry = SessionRegistry::new(RegistryConfig {
        durable_root: Some(root.path().into()),
        ..RegistryConfig::default()
    });
    let durable = MinerConfig {
        backend: StorageBackend::DiskTemp,
        checkpoint_every: 100,
        ..config(false)
    };
    let t = |raw: &[u32]| Transaction::from_raw(raw.iter().copied());
    let mut stream = batches();
    stream.push(Batch::from_transactions(
        3,
        vec![t(&[1, 4]), t(&[0, 2]), t(&[0, 2, 5])],
    ));
    stream.push(Batch::from_transactions(
        4,
        vec![t(&[0, 5]), t(&[0, 2, 3]), t(&[2, 3, 5])],
    ));

    let session = registry
        .create_tenant("refusing", durable.clone(), true)
        .unwrap();
    session.ingest(&stream[0]).unwrap();
    session.ingest(&stream[1]).unwrap();
    let segments = root.path().join("refusing").join("segments");
    std::fs::remove_dir_all(&segments).unwrap();
    let err = session.ingest(&stream[2]).unwrap_err();
    assert!(matches!(err, FsmError::Io(_)), "{err}");
    std::fs::create_dir_all(&segments).unwrap();
    for batch in &stream[3..] {
        let outcome = session.ingest(batch).unwrap();
        assert!(matches!(outcome, IngestOutcome::Applied(_)), "{outcome:?}");
    }

    let mut oracle = StreamMiner::new(config(false)).unwrap();
    for batch in [&stream[0], &stream[1], &stream[3], &stream[4]] {
        oracle.ingest_batch(batch).unwrap();
    }
    let expected = oracle.mine().unwrap();
    let window = |session: &Session| {
        session
            .with_miner(|miner| {
                let matrix = miner.matrix_mut();
                (matrix.boundaries(), matrix.last_batch_id())
            })
            .unwrap()
    };
    assert!(session.mine().unwrap().same_patterns_as(&expected));
    assert_eq!(window(&session), (vec![3, 6], Some(4)));
    drop(session);
    registry.drop_tenant("refusing").unwrap();

    let recovered = registry.recover_tenant("refusing", durable).unwrap();
    assert!(recovered.mine().unwrap().same_patterns_as(&expected));
    assert_eq!(window(&recovered), (vec![3, 6], Some(4)));
}

/// A delta tenant's incremental pattern set rebuilds exactly on thaw: the
/// spill drops the `DeltaMiner` state, the first post-thaw mine rebuilds
/// it, and every subsequent slide maintains it — byte-identical to an
/// uninterrupted delta run and to a from-scratch mine of the same window.
#[test]
fn delta_state_rebuilds_exactly_on_thaw() {
    let root = TempDir::new("lifecycle-delta").unwrap();
    let registry = spilling_registry(&root);
    let session = registry
        .create_tenant("delta", config(true), false)
        .unwrap();
    let stream = batches();
    let mut oracle = StreamMiner::new(config(true)).unwrap();

    // Prime both with two batches and a mine so delta state exists.
    for batch in &stream[..2] {
        session.ingest(batch).unwrap();
        oracle.ingest_batch(batch).unwrap();
    }
    assert!(session
        .mine()
        .unwrap()
        .same_patterns_as(&oracle.mine().unwrap()));

    // Spill (dropping the delta state with the window), thaw by serving.
    assert!(session.spill().unwrap());
    assert!(session
        .mine()
        .unwrap()
        .same_patterns_as(&oracle.mine().unwrap()));

    // The stream continues across the cycle: the maintained set must track
    // both the uninterrupted delta oracle and a from-scratch miner.
    session.ingest(&stream[2]).unwrap();
    oracle.ingest_batch(&stream[2]).unwrap();
    let served = session.mine().unwrap();
    assert!(served.same_patterns_as(&oracle.mine().unwrap()));
    let mut scratch = StreamMiner::new(config(false)).unwrap();
    for batch in &stream {
        scratch.ingest_batch(batch).unwrap();
    }
    assert!(served.same_patterns_as(&scratch.mine().unwrap()));
}

/// Publishing to a subscriber is the tenant's ordinary mine, so it leaves
/// behind what an ordinary mine leaves behind: a disk tenant mined on every
/// slide reports the resident bytes of an unsubscribed twin mined once at
/// the end — bookkeeping plus at most its residency budget.
#[test]
fn a_subscribed_disk_tenant_holds_no_more_than_an_unsubscribed_one() {
    let disk = MinerConfig {
        algorithm: Algorithm::Vertical,
        window: WindowConfig::new(3).unwrap(),
        backend: StorageBackend::DiskTemp,
        catalog: Some(EdgeCatalog::complete(6)),
        cache_budget_bytes: 4 << 10,
        ..config(false)
    };
    // 8 batches of 2048 transactions over the 15 edges: every chunk is 256
    // bytes, so the three-batch window (45 chunks) outweighs the 4 KiB
    // budget almost three times over.
    let stream: Vec<Batch> = (0..8u64)
        .map(|id| {
            let transactions = (0..2048u64)
                .map(|t| {
                    let edges = (0..15u32).filter(|&e| (id + t * 7 + u64::from(e) * 3) % 4 != 0);
                    Transaction::from_raw(edges)
                })
                .collect();
            Batch::from_transactions(id, transactions)
        })
        .collect();

    let registry = SessionRegistry::new(RegistryConfig::default());
    let subscribed = registry.create_tenant("sub", disk.clone(), false).unwrap();
    let unsubscribed = registry.create_tenant("unsub", disk, false).unwrap();
    let mut subscription = subscribed.subscribe();
    let mut published = None;
    for batch in &stream {
        subscribed.ingest(batch).unwrap();
        unsubscribed.ingest(batch).unwrap();
        published = Some(subscription.poll().expect("every slide publishes"));
    }
    let mined = unsubscribed.mine().unwrap();
    assert!(published.unwrap().same_patterns_as(&mined));
    assert!(!mined.is_empty());
    assert_eq!(
        subscribed.status().resident_bytes,
        unsubscribed.status().resident_bytes,
        "a publish must leave resident exactly what a mine leaves resident"
    );
}
