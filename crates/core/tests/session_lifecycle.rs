//! Spill/thaw lifecycle corners that the headline isolation property
//! cannot reach on its own: a corrupt spill artifact surfacing (and the
//! tenant staying recreatable), a spill racing an in-flight mine, the
//! residency sweep never waiting on a held window, a dropped tenant's spill
//! image going with it (and never a durable namesake's files under an
//! aliased root), a dropped tenant's retained handle refused instead of
//! spilling, logging or leaving files under its successor's name, a stale
//! image never reaching a new tenant, the resident-byte cap, a delta
//! tenant's incremental state rebuilding exactly across a spill/thaw cycle,
//! a subscribed disk tenant holding nothing resident outside its residency
//! budget, and a durable tenant refusing a batch whose segment write failed
//! without wedging its log.

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

/// One batch per edge set, each set one transaction.
fn stream_of(sets: &[&[u32]]) -> Vec<Batch> {
    (0u64..)
        .zip(sets)
        .map(|(id, set)| {
            Batch::from_transactions(id, vec![Transaction::from_raw(set.iter().copied())])
        })
        .collect()
}

/// What a never-spilled standalone miner mines from `stream`.
fn oracle(config: MinerConfig, stream: &[Batch]) -> fsm_core::MiningResult {
    let mut miner = StreamMiner::new(config).unwrap();
    for batch in stream {
        miner.ingest_batch(batch).unwrap();
    }
    miner.mine().unwrap()
}

fn assert_unknown_tenant<T: std::fmt::Debug>(outcome: fsm_types::Result<T>) {
    assert!(
        matches!(outcome, Err(FsmError::UnknownTenant(ref id)) if id == "t"),
        "{outcome:?}"
    );
}

/// A handle a caller kept across `drop_tenant` cannot spill its window
/// over a same-name successor's image: the successor's next thaw serves
/// its own window, not its predecessor's.
#[test]
fn a_dropped_tenants_handle_never_spills_over_its_successor() {
    let root = TempDir::new("lifecycle-stale-spill").unwrap();
    let registry = spilling_registry(&root);
    let old = registry.create_tenant("t", config(false), false).unwrap();
    for batch in &stream_of(&[&[0, 1], &[0, 1]]) {
        old.ingest(batch).unwrap();
    }
    registry.drop_tenant("t").unwrap();

    let successor_stream = stream_of(&[&[2, 3], &[2, 3]]);
    let successor = registry.create_tenant("t", config(false), false).unwrap();
    for batch in &successor_stream {
        successor.ingest(batch).unwrap();
    }
    let expected = oracle(config(false), &successor_stream);
    assert!(successor.mine().unwrap().same_patterns_as(&expected));
    assert!(successor.spill().unwrap());

    let stale = old.spill();
    assert!(
        successor.mine().unwrap().same_patterns_as(&expected),
        "the successor thawed its predecessor's window"
    );
    assert!(!stale.unwrap(), "a dropped tenant's handle spilled");
}

/// A durable handle kept across `drop_tenant` cannot log into the
/// directory a same-name successor now owns: its ingest is refused, and
/// recovery rebuilds the successor's window alone.
#[test]
fn a_dropped_durable_tenants_handle_never_logs_into_its_successor() {
    let root = TempDir::new("lifecycle-stale-durable").unwrap();
    let registry = SessionRegistry::new(RegistryConfig {
        durable_root: Some(root.path().into()),
        ..RegistryConfig::default()
    });
    let durable = MinerConfig {
        backend: StorageBackend::DiskTemp,
        ..config(false)
    };
    let old_stream = stream_of(&[&[0, 1], &[0, 1]]);
    let old = registry.create_tenant("t", durable.clone(), true).unwrap();
    for batch in &old_stream {
        old.ingest(batch).unwrap();
    }
    registry.drop_tenant("t").unwrap();

    let successor_stream = stream_of(&[&[2, 3], &[2, 3]]);
    let successor = registry.create_tenant("t", durable.clone(), true).unwrap();
    for batch in &successor_stream {
        successor.ingest(batch).unwrap();
    }
    let expected = oracle(config(false), &successor_stream);
    assert!(successor.mine().unwrap().same_patterns_as(&expected));
    assert!(successor.spill().unwrap());

    let stale = old.ingest(&old_stream[0]);
    drop(old);
    drop(successor);
    registry.drop_tenant("t").unwrap();
    let recovered = registry.recover_tenant("t", durable).unwrap();
    assert!(
        recovered.mine().unwrap().same_patterns_as(&expected),
        "recovery mixed two tenants' batches"
    );
    assert_unknown_tenant(stale);
}

/// A handle kept across `drop_tenant` cannot write a spill image that
/// nothing owns: its spill is refused, and no file of the tenant survives
/// the handle and the registry.
#[test]
fn a_dropped_tenants_handle_leaves_no_file() {
    let root = TempDir::new("lifecycle-leak").unwrap();
    let registry = spilling_registry(&root);
    let old = registry.create_tenant("t", config(false), false).unwrap();
    old.ingest(&batches()[0]).unwrap();
    registry.drop_tenant("t").unwrap();
    let stale = old.spill();
    drop(old);
    drop(registry);
    assert!(
        !root.path().join("t").exists(),
        "a dropped tenant left its spill image behind"
    );
    assert!(!stale.unwrap(), "a dropped tenant's handle spilled");
}

/// `drop_tenant` waits for the operation in flight on the window, which
/// completes; the tenant keeps its name until then, and every call on a
/// retained handle afterwards is refused.
#[test]
fn drop_tenant_waits_for_the_operation_in_flight() {
    let root = TempDir::new("lifecycle-drop-waits").unwrap();
    let registry = Arc::new(spilling_registry(&root));
    let session = registry.create_tenant("t", config(false), false).unwrap();
    session.ingest(&batches()[0]).unwrap();
    let release = hold_window(&session);
    let (done_tx, done_rx) = mpsc::channel();
    let dropper = {
        let registry = Arc::clone(&registry);
        std::thread::spawn(move || done_tx.send(registry.drop_tenant("t")).unwrap())
    };
    assert!(
        done_rx.recv_timeout(Duration::from_millis(100)).is_err(),
        "drop_tenant returned while an operation held the window"
    );
    assert!(registry.get("t").is_ok(), "the name left before the window");
    // The held operation completes (`hold_window` unwraps its result).
    release();
    done_rx
        .recv_timeout(Duration::from_secs(20))
        .expect("drop_tenant never returned")
        .unwrap();
    dropper.join().unwrap();

    assert_unknown_tenant(registry.get("t"));
    assert_unknown_tenant(session.ingest(&batches()[1]));
    assert_unknown_tenant(session.ingest_encoded(&fsm_dsmatrix::encode_batch(&batches()[1])));
    assert_unknown_tenant(session.mine());
    assert_unknown_tenant(session.with_miner(|_| ()));
    assert!(!session.spill().unwrap());
    assert_unknown_tenant(registry.drop_tenant("t"));
}

/// A spill image left under a tenant's spill directory by someone else —
/// another window's checkpoint and runs, plus a run past the ones that
/// checkpoint names — never reaches a new tenant of that name: its first
/// spill rewrites the image whole, the thaw serves its own window, and the
/// directory goes with the tenant.
#[test]
fn a_stale_image_never_reaches_a_new_tenant() {
    let root = TempDir::new("lifecycle-stale-image").unwrap();
    let dir = root.path().join("t");
    let mut foreign = StreamMiner::new(config(false)).unwrap();
    for batch in &stream_of(&[&[0, 1], &[0, 1]]) {
        foreign.ingest_batch(batch).unwrap();
    }
    foreign.hibernate(&dir).unwrap();
    drop(foreign);
    // One more run, at the image's next uid: the runs are `seg-<uid>.run`
    // numbered from 0, and the checkpoint's next uid follows the highest.
    let segments = DsMatrix::spill_image(&dir).join("segments");
    let runs = files_under(&segments);
    let uid = |run: &Path| -> u64 {
        let name = run.to_str().unwrap();
        name["seg-".len()..name.len() - ".run".len()]
            .parse()
            .unwrap()
    };
    let (last, bytes) = runs.iter().max_by_key(|(run, _)| uid(run)).unwrap();
    std::fs::write(segments.join(format!("seg-{}.run", uid(last) + 1)), bytes).unwrap();

    let registry = spilling_registry(&root);
    let session = registry.create_tenant("t", config(false), false).unwrap();
    let stream = batches();
    for batch in &stream {
        session.ingest(batch).unwrap();
    }
    assert!(session.spill().unwrap());
    let expected = oracle(config(false), &stream);
    assert!(session.mine().unwrap().same_patterns_as(&expected));
    registry.drop_tenant("t").unwrap();
    assert!(!dir.exists(), "the tenant's spill directory outlived it");
}

/// `max_resident_bytes` caps the summed resident bytes of the windows kept
/// in memory, and the fleet served under it mines what it mines uncapped.
#[test]
fn a_byte_cap_keeps_the_resident_windows_under_it() {
    let tenants = ["w", "x", "y", "z"];
    // One to three batches each: windows of two sizes.
    let stream = |index: usize| batches()[..=index % 3].to_vec();
    let uncapped = SessionRegistry::new(RegistryConfig::default());
    let mut expected = Vec::new();
    let mut largest = 0;
    for (index, tenant) in tenants.iter().enumerate() {
        let session = uncapped
            .create_tenant(tenant, config(false), false)
            .unwrap();
        for batch in &stream(index) {
            session.ingest(batch).unwrap();
        }
        expected.push(session.mine().unwrap());
        largest = largest.max(session.status().resident_bytes);
    }
    let cap = 2 * largest;
    let total: u64 = uncapped
        .statuses()
        .iter()
        .map(|(_, s)| s.resident_bytes)
        .sum();
    assert!(total > cap, "the cap must bind: {total} B against {cap} B");

    let root = TempDir::new("lifecycle-byte-cap").unwrap();
    let registry = SessionRegistry::new(RegistryConfig {
        max_resident_bytes: Some(cap as usize),
        spill_root: Some(root.path().into()),
        ..RegistryConfig::default()
    });
    let sessions: Vec<_> = tenants
        .iter()
        .map(|tenant| {
            registry
                .create_tenant(tenant, config(false), false)
                .unwrap()
        })
        .collect();
    for position in 0..batches().len() {
        for (index, session) in sessions.iter().enumerate() {
            if let Some(batch) = stream(index).get(position) {
                session.ingest(batch).unwrap();
            }
        }
    }
    let within_cap = |registry: &SessionRegistry| {
        registry.enforce_residency();
        let statuses = registry.statuses();
        let resident: u64 = statuses
            .iter()
            .filter(|(_, s)| s.state != LifecycleState::Spilled)
            .map(|(_, s)| s.resident_bytes)
            .sum();
        assert!(
            resident <= cap,
            "{resident} B resident against a {cap} B cap"
        );
        assert!(statuses
            .iter()
            .any(|(_, s)| s.state == LifecycleState::Spilled));
    };
    within_cap(&registry);
    for (session, expected) in sessions.iter().zip(&expected) {
        assert!(session.mine().unwrap().same_patterns_as(expected));
        within_cap(&registry);
    }
}
