//! Crash-point recovery: after a crash at **any byte** of any WAL commit,
//! recovery must rebuild exactly the window of the last durable slide — the
//! same patterns a never-crashed run mined there — and corruption anywhere
//! in the durable artifacts must be *detected* and survived by falling back
//! to an older artifact, never silently answered with wrong patterns.
//!
//! The harness mirrors `backend_agreement.rs`: a memory-backend miner is the
//! oracle (mined after every batch), and the durable run under test is
//! snapshotted (directory copy) after every commit.  For commit `i`, every
//! byte prefix of its WAL frame is appended to the commit-`i-1` snapshot —
//! the exact on-disk state of a crash `cut` bytes into the WAL append — plus
//! a junk partial segment file standing in for a torn apply.  Recovery of a
//! strict prefix must mine the commit-`i-1` oracle patterns; recovery of the
//! full frame must mine the commit-`i` patterns (WAL committed ⇒ the batch
//! is durable even though the apply never ran).

use std::fs;
use std::path::Path;

use fsm_core::{Algorithm, MinerConfig, MiningResult, StreamMiner};
use fsm_dsmatrix::encode_batch;
use fsm_storage::{wal, Checkpoint};
use fsm_stream::WindowConfig;
use fsm_types::{Batch, EdgeCatalog, EdgeId, FsmError, MinSup, Transaction};

const VERTICES: u32 = 5;
const EDGES: u32 = 10;

/// Deterministic pseudo-random batch stream (no external RNG crate): small
/// batches of small transactions so the WAL frames stay a few dozen bytes
/// and every byte-prefix cut is affordable.
fn batch_stream(seed: u64, num_batches: usize) -> Vec<Batch> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |bound: u64| {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound
    };
    (0..num_batches)
        .map(|id| {
            let num_tx = 1 + next(4) as usize;
            let transactions = (0..num_tx)
                .map(|_| {
                    let num_edges = 1 + next(4) as usize;
                    Transaction::from_raw((0..num_edges).map(|_| next(EDGES as u64) as u32))
                })
                .collect();
            Batch::from_transactions(id as u64, transactions)
        })
        .collect()
}

fn config(window: usize) -> MinerConfig {
    MinerConfig {
        algorithm: Algorithm::DirectVertical,
        window: WindowConfig::new(window).unwrap(),
        min_support: MinSup::absolute(2),
        catalog: Some(EdgeCatalog::complete(VERTICES)),
        ..MinerConfig::default()
    }
}

fn durable_config(window: usize, dir: &Path, every: usize) -> MinerConfig {
    MinerConfig {
        backend: fsm_storage::StorageBackend::DiskTemp,
        durable_dir: Some(dir.into()),
        checkpoint_every: every,
        ..config(window)
    }
}

/// `expected[j]` = patterns of a never-crashed run after `j` batches.
fn oracle(window: usize, batches: &[Batch]) -> Vec<MiningResult> {
    let mut miner = StreamMiner::new(MinerConfig {
        backend: fsm_storage::StorageBackend::Memory,
        ..config(window)
    })
    .unwrap();
    let mut results = vec![miner.mine().unwrap()];
    for batch in batches {
        miner.ingest_batch(batch).unwrap();
        results.push(miner.mine().unwrap());
    }
    results
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            fs::copy(entry.path(), &to).unwrap();
        }
    }
}

fn assert_same(result: &MiningResult, expected: &MiningResult, context: &str) {
    assert!(
        result.same_patterns_as(expected),
        "{context}: recovered patterns diverge: {:?}",
        expected.diff(result)
    );
}

/// The tentpole property: for every commit and every byte-prefix of its WAL
/// frame, recovery lands on the last durable slide's exact patterns.
#[test]
fn recovery_is_exact_at_every_wal_byte_cut() {
    for (seed, window, every) in [(1u64, 3usize, 2usize), (2, 2, 1), (3, 4, 3)] {
        let batches = batch_stream(seed, 8);
        let expected = oracle(window, &batches);

        // Snapshot the durable directory after every commit.
        let root = fsm_storage::TempDir::new("crashpoint").unwrap();
        let live = root.path().join("live");
        let mut miner = StreamMiner::new(durable_config(window, &live, every)).unwrap();
        let mut snapshots = vec![root.path().join("snap-0")];
        copy_dir(&live, &snapshots[0]);
        for (i, batch) in batches.iter().enumerate() {
            miner.ingest_batch(batch).unwrap();
            let snap = root.path().join(format!("snap-{}", i + 1));
            copy_dir(&live, &snap);
            snapshots.push(snap);
        }
        drop(miner);

        for (i, batch) in batches.iter().enumerate() {
            let seq = i as u64 + 1;
            let frame = wal::frame(seq, &encode_batch(batch));
            for cut in 0..=frame.len() {
                // Crash state: snapshot after commit i, plus `cut` bytes of
                // commit i+1's WAL record and a torn partial segment file.
                let scene = root.path().join("scene");
                if scene.exists() {
                    fs::remove_dir_all(&scene).unwrap();
                }
                copy_dir(&snapshots[i], &scene);
                let wal_path = scene.join("wal.log");
                let mut wal_bytes = fs::read(&wal_path).unwrap();
                wal_bytes.extend_from_slice(&frame[..cut]);
                fs::write(&wal_path, wal_bytes).unwrap();
                fs::write(scene.join("segments").join("seg-999983.run"), b"torn").unwrap();

                let mut recovered =
                    StreamMiner::recover(durable_config(window, &scene, every)).unwrap();
                // A full frame is a durable commit; anything less recovers
                // the previous slide.
                let durable_prefix = if cut == frame.len() { i + 1 } else { i };
                let result = recovered.mine().unwrap();
                assert_same(
                    &result,
                    &expected[durable_prefix],
                    &format!("seed {seed} commit {seq} cut {cut}/{}", frame.len()),
                );
                let report = recovered.recovery_report().unwrap();
                assert_eq!(
                    report.wal_torn.is_some(),
                    cut != 0 && cut != frame.len(),
                    "seed {seed} commit {seq} cut {cut}: torn-tail detection"
                );
            }
        }
    }
}

/// A crashed run resumed with the real API (recover + keep streaming) ends
/// on the same patterns as the run that never crashed.
#[test]
fn resumed_stream_matches_uninterrupted_run() {
    let window = 3;
    let batches = batch_stream(9, 10);
    let expected = oracle(window, &batches);

    let root = fsm_storage::TempDir::new("resume").unwrap();
    let dir = root.path().join("durable");
    let mut miner = StreamMiner::new(durable_config(window, &dir, 2)).unwrap();
    for batch in &batches[..6] {
        miner.ingest_batch(batch).unwrap();
    }
    // "Crash": drop without any shutdown checkpoint.
    drop(miner);

    let mut resumed = StreamMiner::recover(durable_config(window, &dir, 2)).unwrap();
    assert_eq!(resumed.last_batch_id(), Some(5));
    for batch in &batches[6..] {
        resumed.ingest_batch(batch).unwrap();
    }
    assert_same(
        &resumed.mine().unwrap(),
        &expected[batches.len()],
        "resumed stream",
    );
}

/// Satellite (c) 1/3: a flipped bit in a WAL record is detected (checksum
/// mismatch naming the record) and recovery truncates there — the state is
/// the last slide before the damage, never a corrupted window.
#[test]
fn wal_bit_flip_truncates_at_the_damaged_record() {
    let window = 3;
    let batches = batch_stream(5, 6);
    let expected = oracle(window, &batches);

    let root = fsm_storage::TempDir::new("walflip").unwrap();
    let dir = root.path().join("durable");
    {
        // Interval larger than the stream: the WAL holds all six records.
        let mut miner = StreamMiner::new(durable_config(window, &dir, 100)).unwrap();
        for batch in &batches {
            miner.ingest_batch(batch).unwrap();
        }
    }
    // Flip one payload bit of record 4 (records 1..=3 stay intact).
    let offset: usize = batches[..3]
        .iter()
        .enumerate()
        .map(|(i, b)| wal::frame(i as u64 + 1, &encode_batch(b)).len())
        .sum();
    let wal_path = dir.join("wal.log");
    let mut bytes = fs::read(&wal_path).unwrap();
    bytes[offset + 20] ^= 0x10;
    fs::write(&wal_path, bytes).unwrap();

    let mut recovered = StreamMiner::recover(durable_config(window, &dir, 100)).unwrap();
    let report = recovered.recovery_report().unwrap().clone();
    let torn = report.wal_torn.expect("damage must be reported");
    assert!(
        torn.contains("record #4") && torn.contains("checksum mismatch"),
        "report must name the damaged record: {torn}"
    );
    assert_eq!(report.replayed_batches, 3);
    assert_same(&recovered.mine().unwrap(), &expected[3], "WAL bit flip");
}

/// Satellite (c) 2/3: a flipped bit in the newest checkpoint makes recovery
/// reject it **by name** and fall back to the older retained checkpoint —
/// whose WAL suffix is retained precisely for this — reaching the full
/// pre-crash state, not the older checkpoint's.
#[test]
fn checkpoint_bit_flip_falls_back_to_the_previous_checkpoint() {
    let window = 3;
    let batches = batch_stream(6, 8);
    let expected = oracle(window, &batches);

    let root = fsm_storage::TempDir::new("ckptflip").unwrap();
    let dir = root.path().join("durable");
    {
        let mut miner = StreamMiner::new(durable_config(window, &dir, 2)).unwrap();
        for batch in &batches {
            miner.ingest_batch(batch).unwrap();
        }
    }
    // Two checkpoints retained (seq 6 and 8 with every=2).  Damage the newest.
    let newest = dir.join("checkpoint-8.ckpt");
    let mut bytes = fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&newest, bytes).unwrap();

    let mut recovered = StreamMiner::recover(durable_config(window, &dir, 2)).unwrap();
    let report = recovered.recovery_report().unwrap().clone();
    assert_eq!(report.checkpoint_seq, Some(6), "fell back to the older one");
    assert_eq!(
        report.skipped_artifacts.len(),
        1,
        "the damaged artifact is reported: {:?}",
        report.skipped_artifacts
    );
    assert!(
        report.skipped_artifacts[0].contains("checkpoint-8.ckpt"),
        "the report names the artifact: {:?}",
        report.skipped_artifacts
    );
    assert_eq!(report.replayed_batches, 2, "WAL tail past seq 6");
    assert_same(&recovered.mine().unwrap(), &expected[8], "checkpoint flip");
}

/// A checkpoint is trusted only once the ledger its runs give adds up to
/// its supports: one support lowered under a valid CRC is refused by name,
/// recovery falls back to the older checkpoint, and the window slides past
/// every segment the lie described — where a trusted lie underflows the
/// counter.
#[test]
fn a_checkpoint_whose_ledger_disagrees_is_refused_and_survived() {
    let window = 3;
    let batches = batch_stream(6, 11);
    let expected = oracle(window, &batches);
    let root = fsm_storage::TempDir::new("ckptledger").unwrap();
    let dir = root.path().join("durable");
    let mut miner = StreamMiner::new(durable_config(window, &dir, 2)).unwrap();
    for batch in &batches[..8] {
        miner.ingest_batch(batch).unwrap();
    }
    drop(miner);
    // Checkpoints at seq 6 and 8; lower, in the newest, the support of a
    // row the next two batches do not top up before the third one's
    // eviction takes the last of the ones its runs hold.
    let newest = dir.join(Checkpoint::file_name(8));
    let mut checkpoint = Checkpoint::load(&newest).unwrap();
    let row = (0..checkpoint.supports.len())
        .find(|&row| {
            let edge = EdgeId::new(row as u32);
            checkpoint.supports[row] > 0
                && batches[8..10]
                    .iter()
                    .all(|b| b.transactions().iter().all(|t| !t.contains(edge)))
        })
        .unwrap();
    checkpoint.supports[row] -= 1;
    checkpoint.write(&dir).unwrap();

    let mut recovered = StreamMiner::recover(durable_config(window, &dir, 2)).unwrap();
    for batch in &batches[8..] {
        recovered.ingest_batch(batch).unwrap();
    }
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.checkpoint_seq, Some(6), "{report:?}");
    assert_eq!(report.skipped_artifacts.len(), 1, "{report:?}");
    assert!(report.skipped_artifacts[0].contains(&Checkpoint::file_name(8)));
    assert_same(&recovered.mine().unwrap(), &expected[11], "ledger lie");
}

/// A checkpoint is trusted only once every run it names holds what it
/// claims: a segment claiming 2^50 columns for a real run under a valid CRC
/// is refused naming the run — its read sized by the file, never by the
/// claim — and recovery falls back to the older checkpoint.
#[test]
fn a_checkpoint_whose_index_outgrows_its_run_is_refused_and_survived() {
    let window = 3;
    let batches = batch_stream(6, 11);
    let expected = oracle(window, &batches);
    let root = fsm_storage::TempDir::new("ckptrunlen").unwrap();
    let dir = root.path().join("durable");
    let mut miner = StreamMiner::new(durable_config(window, &dir, 2)).unwrap();
    for batch in &batches[..8] {
        miner.ingest_batch(batch).unwrap();
    }
    drop(miner);
    // Checkpoints at seq 6 and 8; the newest's last segment now claims
    // 2^50 columns: a run of 8 + 2^47 bytes a chunk.
    let newest = dir.join(Checkpoint::file_name(8));
    let mut checkpoint = Checkpoint::load(&newest).unwrap();
    let segment = checkpoint.segments.last_mut().unwrap();
    segment.cols = 1 << 50;
    let lied = format!("seg-{}.run", segment.uid);
    checkpoint.write(&dir).unwrap();

    let mut recovered = StreamMiner::recover(durable_config(window, &dir, 2)).unwrap();
    for batch in &batches[8..] {
        recovered.ingest_batch(batch).unwrap();
    }
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.checkpoint_seq, Some(6), "{report:?}");
    assert_eq!(report.skipped_artifacts.len(), 1, "{report:?}");
    assert!(report.skipped_artifacts[0].contains(&Checkpoint::file_name(8)));
    assert!(report.skipped_artifacts[0].contains(&lied), "{report:?}");
    assert_same(&recovered.mine().unwrap(), &expected[11], "run length lie");
}

/// Satellite (c) 3/3: a damaged byte — any byte — of the segment run
/// referenced only by the newest checkpoint is caught by the run's CRC at
/// verification time; the checkpoint is distrusted, the older one restores,
/// and WAL replay re-creates the damaged segment — full state, correct
/// patterns.
#[test]
fn data_page_bit_flip_is_detected_and_survived() {
    let window = 3;
    let batches = batch_stream(7, 8);
    let expected = oracle(window, &batches);

    let root = fsm_storage::TempDir::new("pageflip").unwrap();
    let dir = root.path().join("durable");
    {
        let mut miner = StreamMiner::new(durable_config(window, &dir, 2)).unwrap();
        for batch in &batches {
            miner.ingest_batch(batch).unwrap();
        }
    }
    // The newest segment run was written after the older checkpoint, so
    // only the newest checkpoint references it.
    let (newest_seg, name) = fs::read_dir(dir.join("segments"))
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name()?.to_str()?.to_string();
            let uid: u64 = name
                .strip_prefix("seg-")?
                .strip_suffix(".run")?
                .parse()
                .ok()?;
            Some((uid, path, name))
        })
        .max()
        .map(|(_, path, name)| (path, name))
        .expect("segment files exist");
    let clean = fs::read(&newest_seg).unwrap();
    assert!(!clean.is_empty());
    let scene = root.path().join("scene");
    for at in 0..clean.len() {
        if scene.exists() {
            fs::remove_dir_all(&scene).unwrap();
        }
        copy_dir(&dir, &scene);
        let mut bytes = clean.clone();
        bytes[at] ^= 0x80;
        fs::write(scene.join("segments").join(&name), bytes).unwrap();

        let mut recovered = StreamMiner::recover(durable_config(window, &scene, 2)).unwrap();
        let report = recovered.recovery_report().unwrap().clone();
        assert_eq!(
            report.checkpoint_seq,
            Some(6),
            "byte {at}: fell back past the damage"
        );
        assert!(
            report
                .skipped_artifacts
                .iter()
                .any(|s| s.contains("checkpoint-8.ckpt") && s.contains(&name)),
            "byte {at}: the rejection names the damaged run: {:?}",
            report.skipped_artifacts
        );
        assert_same(
            &recovered.mine().unwrap(),
            &expected[8],
            &format!("flip at byte {at}"),
        );
    }
}

/// Once a checkpoint has committed, collecting the segment files it proved
/// unreferenced is best-effort.  A queued file removed behind the miner's
/// back neither fails the ingest whose checkpoint collects it — that batch
/// is logged, applied and checkpointed, and a client resending it would
/// count it twice — nor strands the files queued after it, and recovery is
/// still exact.
#[test]
fn a_vanished_queued_segment_file_neither_fails_the_ingest_nor_strands_the_queue() {
    let window = 3;
    let batches = batch_stream(13, 12);
    let expected = oracle(window, &batches);

    let root = fsm_storage::TempDir::new("gcqueue").unwrap();
    let dir = root.path().join("durable");
    let segments = dir.join("segments");
    let mut miner = StreamMiner::new(durable_config(window, &dir, 2)).unwrap();
    // Batch i is segment uid i; a checkpoint follows every second batch.
    // Batches 4 and 5 evict segments 1 and 2, which the checkpoints after
    // batches 3 and 5 still reference; the checkpoint after batch 7 is the
    // first that does not, and collects both.
    for batch in &batches[..7] {
        miner.ingest_batch(batch).unwrap();
    }
    fs::remove_file(segments.join("seg-1.run")).unwrap();
    miner
        .ingest_batch(&batches[7])
        .expect("the checkpointing ingest succeeds");
    // Segment 2 was still collected: the next push renamed it into place.
    miner.ingest_batch(&batches[8]).unwrap();
    assert!(!segments.join("seg-2.run").exists());
    assert!(segments.join("seg-8.run").exists());
    for batch in &batches[9..] {
        miner.ingest_batch(batch).unwrap();
    }
    drop(miner);

    let mut recovered = StreamMiner::recover(durable_config(window, &dir, 2)).unwrap();
    assert_same(
        &recovered.mine().unwrap(),
        &expected[batches.len()],
        "after a vanished queued file",
    );
}

/// The same window as checkpoint format 2 wrote it (`FSMCKPT2`, the row
/// index and per-row one-counts of its runs copied in): the golden bytes
/// of `formats.rs` before format 3.
const FORMAT_2_CHECKPOINT: &str = "46534d434b5054320900000000000000040000000000000003000000000000000200000000000000030000000000000005000000000000000000000000000000020000000000000002000000000000000200000000000000060000000000000003000000000000000200000000000000000000000000000038000000000000001000000000000000020000000000000002000000000000004800000000000000100000000000000001000000000000000300000000000000070000000000000001000000000000000000000000000000ffcc84c0";

/// A directory an earlier format wrote — segment format v1's
/// `seg-<uid>.pages` page files with `.crc` sidecars, or a checkpoint of
/// format 2 — is refused by name, and refusing it changes no file: no
/// decoder for either is kept, and recovery must not mistake the
/// unreadable for the corrupt (deleting checkpoints it cannot read would
/// strand the pruned WAL).
#[test]
fn a_format_v1_directory_is_refused_and_left_untouched() {
    let window = 3;
    let format_2: Vec<u8> = (0..FORMAT_2_CHECKPOINT.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&FORMAT_2_CHECKPOINT[i..i + 2], 16).unwrap())
        .collect();
    /// Files an earlier format leaves in a durable directory.
    type Files<'a> = &'a [(&'a str, &'a [u8])];
    let retired: [(&str, Files); 2] = [
        (
            "segment format v1",
            &[
                ("segments/seg-3.pages", &[0u8; 1024]),
                ("segments/seg-3.pages.crc", &[0u8; 4]),
            ],
        ),
        ("checkpoint format 2", &[("checkpoint-9.ckpt", &format_2)]),
    ];
    for (format, files) in retired {
        let root = fsm_storage::TempDir::new("formatv1").unwrap();
        let dir = root.path().join("durable");
        {
            let mut miner = StreamMiner::new(durable_config(window, &dir, 2)).unwrap();
            for batch in &batch_stream(3, 4) {
                miner.ingest_batch(batch).unwrap();
            }
        }
        for (name, bytes) in files {
            fs::write(dir.join(name), bytes).unwrap();
        }
        let contents = |dir: &Path| {
            let mut files: Vec<(String, Vec<u8>)> = [dir.to_path_buf(), dir.join("segments")]
                .iter()
                .flat_map(|dir| fs::read_dir(dir).unwrap())
                .map(|e| e.unwrap().path())
                .filter(|path| path.is_file())
                .map(|path| (path.display().to_string(), fs::read(&path).unwrap()))
                .collect();
            files.sort();
            files
        };
        let before = contents(&dir);
        let err = StreamMiner::recover(durable_config(window, &dir, 2)).unwrap_err();
        assert!(
            matches!(&err, FsmError::CorruptArtifact { detail, .. } if detail.contains(format)),
            "{err}"
        );
        assert_eq!(
            contents(&dir),
            before,
            "{format}: every file left as it was"
        );
    }
}

/// A live epoch snapshot neither blocks nor skews recovery: crash while a
/// reader holds a frozen epoch, and `recover()` still rebuilds exactly the
/// last durable window — while the held snapshot keeps mining its own
/// pre-crash epoch from its self-contained decoded bits, concurrently with
/// the recovered miner and untouched by the crash.
#[test]
fn recovery_is_exact_while_a_snapshot_is_still_held() {
    let window = 3;
    let batches = batch_stream(11, 8);
    let expected = oracle(window, &batches);

    let root = fsm_storage::TempDir::new("heldsnap").unwrap();
    let dir = root.path().join("durable");
    let mut miner = StreamMiner::new(durable_config(window, &dir, 2)).unwrap();
    // Freeze an epoch mid-stream, then slide through two more checkpoints
    // with the snapshot still live.
    for batch in &batches[..4] {
        miner.ingest_batch(batch).unwrap();
    }
    let held = miner.snapshot().unwrap();
    for batch in &batches[4..] {
        miner.ingest_batch(batch).unwrap();
    }
    // "Crash": drop the miner without any shutdown checkpoint; the reader's
    // snapshot outlives it.
    drop(miner);

    let mut recovered = StreamMiner::recover(durable_config(window, &dir, 2)).unwrap();
    assert_eq!(recovered.last_batch_id(), Some(7));
    assert_same(
        &recovered.mine().unwrap(),
        &expected[batches.len()],
        "recovery under a live snapshot",
    );

    // The held snapshot still answers for its own epoch, mined on another
    // thread while the recovered miner is live.
    assert_eq!(held.last_batch_id(), Some(3));
    let mined = std::thread::spawn(move || held.mine().unwrap())
        .join()
        .unwrap();
    assert_same(&mined, &expected[4], "held snapshot after the crash");
}

/// Durability is strictly opt-in: the memory backend refuses it, and a
/// volatile miner's durability counters stay zero.
#[test]
fn durability_is_rejected_on_memory_and_free_when_off() {
    let root = fsm_storage::TempDir::new("zerocost").unwrap();
    let err = StreamMiner::new(MinerConfig {
        backend: fsm_storage::StorageBackend::Memory,
        durable_dir: Some(root.path().into()),
        ..config(2)
    });
    assert!(err.is_err(), "memory backend must reject durability");

    let mut volatile = StreamMiner::new(MinerConfig {
        backend: fsm_storage::StorageBackend::DiskTemp,
        ..config(2)
    })
    .unwrap();
    for batch in batch_stream(4, 4) {
        volatile.ingest_batch(&batch).unwrap();
    }
    volatile.mine().unwrap();
    let stats = volatile.matrix_mut().read_stats();
    assert!(!volatile.is_durable());
    assert_eq!(stats.wal_bytes_written, 0);
    assert_eq!(stats.fsyncs, 0);
    assert_eq!(stats.checkpoint_bytes, 0);
}
