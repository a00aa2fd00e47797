//! Hibernate/thaw round-trips: the spill image must rebuild the window bit
//! for bit, on every backend, and keep behaving identically afterwards.
//!
//! The discipline mirrors the recovery suite: a thawed matrix is compared
//! row-by-row against the matrix that hibernated (and against it again after
//! both ingest the same suffix of the stream — a thaw must not perturb later
//! slides), and a damaged artifact must fail loudly, naming the file, never
//! serving a silently different window.  A non-durable image is a durable
//! window's cold form — one checkpoint plus one segment run per live batch
//! under `spill_dir/image/` — so its files are the ones damaged here.

use std::path::Path;

use fsm_dsmatrix::{DsMatrix, DsMatrixConfig, DurabilityConfig};
use fsm_storage::{BitVec, Checkpoint, SegmentedWindowStore, StorageBackend, TempDir};
use fsm_stream::WindowConfig;
use fsm_types::{Batch, EdgeId, FsmError, Transaction};
use proptest::prelude::*;

const EDGES: u32 = 6;

fn config(window: usize, backend: StorageBackend) -> DsMatrixConfig {
    DsMatrixConfig::new(WindowConfig::new(window).unwrap(), backend, EDGES as usize)
}

fn batches(raw: &[Vec<Vec<u32>>]) -> Vec<Batch> {
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

fn assert_same_window(a: &mut DsMatrix, b: &mut DsMatrix, what: &str) {
    assert_eq!(a.num_items(), b.num_items(), "{what}: num_items");
    assert_eq!(
        a.num_transactions(),
        b.num_transactions(),
        "{what}: num_transactions"
    );
    assert_eq!(a.last_batch_id(), b.last_batch_id(), "{what}: last batch");
    for item in 0..a.num_items() as u32 {
        assert_eq!(
            a.row(EdgeId::new(item)).unwrap(),
            b.row(EdgeId::new(item)).unwrap(),
            "{what}: row {item}"
        );
    }
}

/// The spill image's files under `spill`, relative to the image directory
/// and sorted: the checkpoint, then the runs in `segments/`.
fn image_files(spill: &Path) -> Vec<String> {
    let image = DsMatrix::spill_image(spill);
    let mut files: Vec<String> = [image.clone(), image.join("segments")]
        .iter()
        .flat_map(|dir| std::fs::read_dir(dir).unwrap())
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.is_file())
        .map(|path| path.strip_prefix(&image).unwrap().display().to_string())
        .collect();
    files.sort();
    files
}

fn raw_batches() -> impl Strategy<Value = Vec<Vec<Vec<u32>>>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::collection::vec(0..EDGES, 0..4), 0..4),
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any stream, any split point and both volatile backends: hibernate
    /// at the split, thaw, and the rebuilt window is byte-identical — before
    /// and after both matrices ingest the remaining suffix.
    #[test]
    fn thawed_window_is_byte_identical(
        raw in raw_batches(),
        split_frac in 0.0f64..1.0,
        window in 1usize..4,
        backend_memory in any::<bool>(),
    ) {
        let backend = if backend_memory {
            StorageBackend::Memory
        } else {
            StorageBackend::DiskTemp
        };
        let stream = batches(&raw);
        let split = ((stream.len() as f64) * split_frac) as usize;

        let spill = TempDir::new("hib-prop").unwrap();
        let mut original = DsMatrix::new(config(window, backend.clone())).unwrap();
        for batch in &stream[..split] {
            original.ingest_batch(batch).unwrap();
        }
        original.hibernate(spill.path()).unwrap();
        let mut thawed = DsMatrix::thaw(config(window, backend), spill.path()).unwrap();
        assert_same_window(&mut original, &mut thawed, "at the split");

        for batch in &stream[split..] {
            original.ingest_batch(batch).unwrap();
            thawed.ingest_batch(batch).unwrap();
        }
        assert_same_window(&mut original, &mut thawed, "after the suffix");
    }
}

#[test]
fn durable_hibernate_reuses_the_checkpoint_path() {
    let durable_root = TempDir::new("hib-durable").unwrap();
    let spill = TempDir::new("hib-durable-spill").unwrap();
    let stream = batches(&[
        vec![vec![0, 1], vec![2]],
        vec![vec![1, 3]],
        vec![vec![0, 4], vec![3, 5], vec![2]],
    ]);
    let durable_config = || {
        config(2, StorageBackend::DiskTemp)
            .with_durability(DurabilityConfig::new(durable_root.path().to_path_buf()))
    };
    let mut original = DsMatrix::new(durable_config()).unwrap();
    for batch in &stream {
        original.ingest_batch(batch).unwrap();
    }
    original.hibernate(spill.path()).unwrap();
    drop(original);

    // No spill image: the durable artifacts under the durable root *are* the
    // hibernated state, reused via the recovery path.
    assert!(!DsMatrix::spill_image(spill.path()).exists());
    let mut thawed = DsMatrix::thaw(durable_config(), spill.path()).unwrap();
    let mut replayed = DsMatrix::new(config(2, StorageBackend::DiskTemp)).unwrap();
    for batch in &stream {
        replayed.ingest_batch(batch).unwrap();
    }
    assert_same_window(&mut replayed, &mut thawed, "durable thaw");
}

/// Two checkpoints with no ingest between them prune the WAL to nothing
/// (the older retained checkpoint then covers every record).  Recovery must
/// resume the log at the checkpoint's sequence number, or the first ingest
/// after the thaw is refused as an out-of-order append.
#[test]
fn a_checkpoint_that_emptied_the_wal_still_thaws_into_an_ingestable_window() {
    let durable_root = TempDir::new("hib-pruned-wal").unwrap();
    let spill = TempDir::new("hib-pruned-wal-spill").unwrap();
    let stream = batches(&[
        vec![vec![0, 1], vec![2]],
        vec![vec![1, 3]],
        vec![vec![0, 4], vec![3, 5], vec![2]],
        vec![vec![1, 2], vec![0, 5]],
        vec![vec![3]],
    ]);
    let durable_config = || {
        config(2, StorageBackend::DiskTemp)
            .with_durability(DurabilityConfig::new(durable_root.path().to_path_buf()))
    };
    let mut replayed = DsMatrix::new(config(2, StorageBackend::DiskTemp)).unwrap();
    let mut original = DsMatrix::new(durable_config()).unwrap();
    for batch in &stream[..3] {
        original.ingest_batch(batch).unwrap();
        replayed.ingest_batch(batch).unwrap();
    }
    original.hibernate(spill.path()).unwrap();
    original.hibernate(spill.path()).unwrap();
    drop(original);
    assert_eq!(
        std::fs::metadata(durable_root.path().join("wal.log"))
            .unwrap()
            .len(),
        0,
        "the second checkpoint prunes every record"
    );

    let mut thawed = DsMatrix::thaw(durable_config(), spill.path()).unwrap();
    assert_same_window(&mut replayed, &mut thawed, "thaw over an empty WAL");
    thawed.ingest_batch(&stream[3]).unwrap();
    replayed.ingest_batch(&stream[3]).unwrap();
    assert_same_window(&mut replayed, &mut thawed, "first ingest after the thaw");
    drop(thawed);

    // The log now starts at seq 4: a crash recovery replays it on top of
    // the checkpoint, and the window keeps sliding.
    let mut recovered = DsMatrix::recover(durable_config()).unwrap();
    assert_eq!(recovered.recovery_report().unwrap().replayed_batches, 1);
    assert_same_window(
        &mut replayed,
        &mut recovered,
        "recovery past the resumed WAL",
    );
    recovered.ingest_batch(&stream[4]).unwrap();
    replayed.ingest_batch(&stream[4]).unwrap();
    assert_same_window(&mut replayed, &mut recovered, "ingest after recovery");
}

/// Hibernating into the same directory again and again — as the service
/// does for a tenant that keeps getting evicted — replaces the image: one
/// checkpoint and one run per live segment, whatever the earlier images
/// held, and each thaw serves the window of the latest spill.
#[test]
fn hibernating_repeatedly_leaves_one_checkpoint_and_one_run_per_segment() {
    let stream = batches(&[
        vec![vec![0, 1], vec![2]],
        vec![vec![1, 3]],
        vec![vec![0, 4], vec![3, 5], vec![2]],
        vec![vec![1, 2], vec![0, 5]],
        vec![vec![3]],
    ]);
    for backend in [StorageBackend::Memory, StorageBackend::DiskTemp] {
        let spill = TempDir::new("hib-repeat").unwrap();
        // Images of 0, 1, 3, 3 (slid) and again 0 live segments, each
        // written twice over the one before.
        for len in [0, 1, 3, 5, 0] {
            let mut matrix = DsMatrix::new(config(3, backend.clone())).unwrap();
            for batch in &stream[..len] {
                matrix.ingest_batch(batch).unwrap();
            }
            matrix.hibernate(spill.path()).unwrap();
            matrix.hibernate(spill.path()).unwrap();
            let mut expected = vec![Checkpoint::file_name(0)];
            expected.extend((0..matrix.num_batches()).map(|uid| format!("segments/seg-{uid}.run")));
            assert_eq!(
                image_files(spill.path()),
                expected,
                "{backend:?}, {len} batches"
            );
            let mut thawed = DsMatrix::thaw(config(3, backend.clone()), spill.path()).unwrap();
            assert_same_window(&mut matrix, &mut thawed, "after a repeated spill");
        }
    }
}

/// Any damaged byte of any image file — the checkpoint or a run — fails the
/// thaw with `CorruptArtifact` naming that file, and the whole image is
/// deleted so it cannot be retried into; a truncated file, or a checkpoint
/// whose supports are not what its runs add up to, is refused the same way.  A later
/// spill of the same window thaws cleanly again.
#[test]
fn corrupt_image_is_named_deleted_and_never_served() {
    for backend in [StorageBackend::Memory, StorageBackend::DiskTemp] {
        let spill = TempDir::new("hib-corrupt").unwrap();
        let image = DsMatrix::spill_image(spill.path());
        let mut matrix = DsMatrix::new(config(2, backend.clone())).unwrap();
        for batch in &batches(&[vec![vec![0, 1]], vec![vec![2, 3], vec![1]]]) {
            matrix.ingest_batch(batch).unwrap();
        }
        matrix.hibernate(spill.path()).unwrap();
        let files = image_files(spill.path());
        assert_eq!(files.len(), 3, "one checkpoint and two runs");
        for file in files.iter().map(|file| image.join(file)) {
            matrix.hibernate(spill.path()).unwrap();
            let clean = std::fs::read(&file).unwrap();
            let last = clean.len() - 1;
            let flipped = |at: usize| {
                let mut bytes = clean.clone();
                bytes[at] ^= 0x40;
                bytes
            };
            for damaged in [
                flipped(0),
                flipped(last / 2),
                flipped(last),
                clean[..last].to_vec(),
            ] {
                matrix.hibernate(spill.path()).unwrap();
                std::fs::write(&file, &damaged).unwrap();
                let err = DsMatrix::thaw(config(2, backend.clone()), spill.path()).unwrap_err();
                let name = file.file_name().unwrap().to_string_lossy();
                assert!(
                    matches!(&err, FsmError::CorruptArtifact { artifact, .. } if *artifact == name),
                    "{backend:?}: expected CorruptArtifact naming {name}, got {err}"
                );
                assert!(!image.exists(), "a proven-corrupt image is deleted");
            }
        }
        // A lie under a valid CRC: the supports are checked against the
        // ledger the runs give.
        matrix.hibernate(spill.path()).unwrap();
        let mut checkpoint = Checkpoint::load(&image.join(&files[0])).unwrap();
        checkpoint.supports[1] -= 1;
        checkpoint.write(&image).unwrap();
        let err = DsMatrix::thaw(config(2, backend.clone()), spill.path()).unwrap_err();
        assert!(
            matches!(&err, FsmError::CorruptArtifact { artifact, .. } if *artifact == files[0])
        );
        assert!(!image.exists());
        // A run under a valid CRC holding a row far past the checkpoint's
        // domain: refused before the thaw grows a counter to reach it.
        matrix.hibernate(spill.path()).unwrap();
        let forged = TempDir::new("hib-forged").unwrap();
        let mut store =
            SegmentedWindowStore::open(StorageBackend::DiskAt(forged.file("segments"))).unwrap();
        store
            .push_segment(1, [(1usize << 40, &BitVec::from_bools([true]))])
            .unwrap();
        std::fs::copy(
            forged.file("segments").join("seg-0.run"),
            image.join(&files[1]),
        )
        .unwrap();
        let err = DsMatrix::thaw(config(2, backend.clone()), spill.path()).unwrap_err();
        assert!(
            matches!(&err, FsmError::CorruptArtifact { artifact, detail }
                if *artifact == files[0] && detail.contains("outside the 6 rows")),
            "{err}"
        );
        assert!(!image.exists());

        matrix.hibernate(spill.path()).unwrap();
        let mut thawed = DsMatrix::thaw(config(2, backend), spill.path()).unwrap();
        assert_same_window(&mut matrix, &mut thawed, "after the damaged images");
    }
}

/// Loading a cold window reads and decodes each run it names exactly once —
/// a thaw into either volatile backend, and a recovery — and the reads
/// count in `pages_read`.
#[test]
fn a_cold_window_loads_reading_each_run_once() {
    let stream = batches(&[
        vec![vec![0, 1], vec![2]],
        vec![vec![1, 3]],
        vec![vec![0, 4], vec![3, 5], vec![2]],
        vec![vec![1, 2], vec![0, 5]],
        vec![vec![3]],
    ]);
    for backend in [StorageBackend::Memory, StorageBackend::DiskTemp] {
        let spill = TempDir::new("hib-reads").unwrap();
        let mut matrix = DsMatrix::new(config(3, backend.clone())).unwrap();
        for batch in &stream {
            matrix.ingest_batch(batch).unwrap();
        }
        matrix.hibernate(spill.path()).unwrap();
        let mut thawed = DsMatrix::thaw(config(3, backend.clone()), spill.path()).unwrap();
        assert_eq!(thawed.read_stats().pages_read, 3, "{backend:?} thaw");
        assert_same_window(&mut matrix, &mut thawed, "thaw");
    }
    let durable_root = TempDir::new("hib-reads-durable").unwrap();
    let durable_config = || {
        config(3, StorageBackend::DiskTemp).with_durability(
            DurabilityConfig::new(durable_root.path().to_path_buf()).with_checkpoint_every(5),
        )
    };
    let mut original = DsMatrix::new(durable_config()).unwrap();
    for batch in &stream {
        original.ingest_batch(batch).unwrap();
    }
    drop(original);
    let mut recovered = DsMatrix::recover(durable_config()).unwrap();
    assert_eq!(recovered.recovery_report().unwrap().replayed_batches, 0);
    assert_eq!(recovered.read_stats().pages_read, 3, "recovery");
    let mut replayed = DsMatrix::new(config(3, StorageBackend::Memory)).unwrap();
    for batch in &stream {
        replayed.ingest_batch(batch).unwrap();
    }
    assert_same_window(&mut replayed, &mut recovered, "recovery");
}

#[test]
fn window_size_mismatch_is_a_config_error_not_corruption() {
    let spill = TempDir::new("hib-mismatch").unwrap();
    let mut matrix = DsMatrix::new(config(3, StorageBackend::Memory)).unwrap();
    matrix.ingest_batch(&batches(&[vec![vec![0]]])[0]).unwrap();
    matrix.hibernate(spill.path()).unwrap();

    let err = DsMatrix::thaw(config(2, StorageBackend::Memory), spill.path()).unwrap_err();
    assert!(
        matches!(err, FsmError::InvalidConfig(_)),
        "expected InvalidConfig, got {err}"
    );
    // A mismatch is the caller's mistake, not damage: the image survives for
    // a thaw under the correct configuration.
    assert!(DsMatrix::spill_image(spill.path()).exists());
    DsMatrix::thaw(config(3, StorageBackend::Memory), spill.path()).unwrap();
}

#[test]
fn empty_window_round_trips() {
    let spill = TempDir::new("hib-empty").unwrap();
    let mut matrix = DsMatrix::new(config(2, StorageBackend::Memory)).unwrap();
    matrix.hibernate(spill.path()).unwrap();
    let mut thawed = DsMatrix::thaw(config(2, StorageBackend::Memory), spill.path()).unwrap();
    assert_same_window(&mut matrix, &mut thawed, "empty window");
}
