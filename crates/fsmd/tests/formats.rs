//! The binary formats, pinned byte for byte, and their decoders, fed
//! garbage.
//!
//! Every format that crosses a trust boundary — wire bodies
//! ([`TenantSpec`], [`TenantStatus`], pattern lists), the batch payload,
//! the WAL record frame, the CRC-framed [`Checkpoint`] and the segment run
//! a disk window keeps per batch (segment format v2) — is written and read
//! through one codec (`fsm_types::codec`, plus `fsm_storage::framed` for
//! the checkpoint).  A window's cold form is the checkpoint — a manifest
//! naming the runs, plus the support counters — and its runs, durable or
//! spilled, so these two cover every byte a window leaves on disk.  The batch payload has two readers: [`decode_batch`], and the
//! one-pass ingest a served tenant runs on the bytes as they arrive
//! ([`Session::ingest_encoded`]), fuzzed side by side.  The golden tests
//! below hold the exact bytes of each format, so a
//! port or refactor of the codec provably moves no byte; the wire and WAL
//! goldens are the bytes those formats had before the shared codec
//! existed.  The retired checkpoints — `FSMCKPT2`, which copied each run's
//! row index and one-counts, and `FSMCKPT1` of segment format v1 — are
//! pinned as refusals.  The property test then feeds every
//! decoder arbitrary bytes, every truncation of a valid encoding and a
//! bit-flipped one: the answer must be a typed error — never a panic, and
//! never a reservation sized by a count the input merely *announces*
//! (measured with a counting allocator, see [`PeakAlloc`]) — nor, for the
//! wire frame around every body, by its announced length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::sync::Arc;

use fsm_core::{LifecycleState, MinerConfig, RegistryConfig, Session, SessionRegistry};
use fsm_dsmatrix::{decode_batch, encode_batch};
use fsm_fsmd::proto::{
    put_patterns, read_frame, take_patterns, write_frame, Cursor, TenantSpec, TenantStatus,
    FRAME_RESERVE_BYTES, MAX_FRAME_BYTES,
};
use fsm_storage::{
    crc32, wal, BitVec, Checkpoint, CheckpointSegment, EpochSegment, SegmentedWindowStore,
    StorageBackend, TempDir, Wal,
};
use fsm_stream::WindowConfig;
use fsm_types::{Batch, EdgeCatalog, EdgeSet, FrequentPattern, FsmError, Transaction};
use proptest::prelude::*;

/// Tracks the largest single allocation the *current thread* requests, so
/// concurrently running tests cannot pollute each other's measurement.
struct PeakAlloc;

thread_local! {
    // `const` + no destructor: reading it inside the allocator neither
    // allocates nor registers a TLS destructor.
    static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only addition is a
// thread-local counter update that never allocates (see above) and is
// skipped (`try_with`) while the thread's TLS is being torn down.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` above with this
        // layout, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn note_request(size: usize) {
    let _ = LARGEST_REQUEST.try_with(|largest| largest.set(largest.get().max(size)));
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result with the largest single allocation (in
/// bytes) this thread requested while it ran.
fn largest_allocation_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_REQUEST.with(|largest| largest.set(0));
    let value = f();
    (value, LARGEST_REQUEST.with(Cell::get))
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

// ---------------------------------------------------------------------------
// Fixed samples, one per format.
// ---------------------------------------------------------------------------

fn sample_spec() -> TenantSpec {
    TenantSpec {
        tenant: "alpha".into(),
        algorithm: 3,
        window_batches: 7,
        minsup_absolute: false,
        minsup: 0.25f64.to_bits(),
        catalog_kind: 0,
        catalog_n: 40,
        backend: 1,
        cache_budget: 1 << 20,
        durable: true,
        delta: true,
    }
}

fn sample_status() -> TenantStatus {
    TenantStatus {
        tenant: "t-1".into(),
        state: LifecycleState::Spilled,
        resident_bytes: 0x0102_0304,
        thaws: 3,
        thaw_nanos: 1_000_000_007,
    }
}

fn sample_patterns() -> Vec<FrequentPattern> {
    vec![
        FrequentPattern::new(EdgeSet::from_raw([0, 2, 5]), 4),
        FrequentPattern::new(EdgeSet::from_raw([1]), 9),
        FrequentPattern::new(EdgeSet::from_raw([70_000, 3]), 1 << 40),
    ]
}

fn sample_batch() -> Batch {
    Batch::from_transactions(
        42,
        vec![
            Transaction::from_raw([3, 1, 4]),
            Transaction::from_raw([]),
            Transaction::from_raw([1, 5, 9, 2, 6]),
        ],
    )
}

fn sample_checkpoint() -> Checkpoint {
    Checkpoint {
        last_seq: 9,
        next_uid: 4,
        window_batches: 2,
        supports: vec![5, 0, 2],
        segments: vec![
            CheckpointSegment {
                uid: 2,
                batch_id: 6,
                cols: 3,
            },
            CheckpointSegment {
                uid: 3,
                batch_id: 7,
                cols: 1,
            },
        ],
    }
}

/// The run file of the segment [`sample_checkpoint`]'s first entry
/// describes: uid 2 (two empty segments are pushed first), 3 columns, rows 0
/// and 2.
fn sample_run() -> Vec<u8> {
    segment_run(
        2,
        3,
        &[(0, vec![true, false, true]), (2, vec![false, true, true])],
    )
}

/// The run `SegmentedWindowStore::push_segment` writes for a segment of
/// `cols` columns holding `rows`, pushed as the store's `uid`-th segment.
fn segment_run(uid: u64, cols: usize, rows: &[(usize, Vec<bool>)]) -> Vec<u8> {
    let dir = TempDir::new("fmt-run").unwrap();
    let root = dir.file("segments");
    let mut store = SegmentedWindowStore::open(StorageBackend::DiskAt(root.clone())).unwrap();
    for _ in 0..uid {
        store.push_segment(0, []).unwrap();
    }
    let chunks: Vec<(usize, BitVec)> = rows
        .iter()
        .map(|(row, bits)| (*row, BitVec::from_bools(bits.iter().copied())))
        .collect();
    store
        .push_segment(cols, chunks.iter().map(|(row, chunk)| (*row, chunk)))
        .unwrap();
    std::fs::read(root.join(format!("seg-{uid}.run"))).unwrap()
}

fn checkpoint_file_bytes(checkpoint: &Checkpoint) -> Vec<u8> {
    let dir = TempDir::new("fmt-ckpt").unwrap();
    let (path, bytes, _) = checkpoint.write(dir.path()).unwrap();
    let file = std::fs::read(path).unwrap();
    assert_eq!(file.len() as u64, bytes);
    file
}

// ---------------------------------------------------------------------------
// Golden bytes.
// ---------------------------------------------------------------------------

#[test]
fn golden_tenant_spec() {
    let mut out = Vec::new();
    sample_spec().encode_into(&mut out);
    assert_eq!(
        hex(&out),
        "0500616c706861030700000000000000000000d03f00280000000100001000000000000101"
    );
    let mut cursor = Cursor::new(&out);
    assert_eq!(TenantSpec::decode(&mut cursor).unwrap(), sample_spec());
    cursor.finish().unwrap();
}

#[test]
fn golden_tenant_status() {
    let mut out = Vec::new();
    sample_status().encode_into(&mut out);
    assert_eq!(
        hex(&out),
        "0300742d31030403020100000000030000000000000007ca9a3b00000000"
    );
    let mut cursor = Cursor::new(&out);
    assert_eq!(TenantStatus::decode(&mut cursor).unwrap(), sample_status());
    cursor.finish().unwrap();
}

#[test]
fn golden_pattern_list() {
    let mut out = Vec::new();
    put_patterns(&mut out, &sample_patterns());
    assert_eq!(hex(&out), "03000000040000000000000003000000000002000000050000000900000000000000010001000000000000000001000002000300000070110100");
    let mut cursor = Cursor::new(&out);
    assert_eq!(take_patterns(&mut cursor).unwrap(), sample_patterns());
    cursor.finish().unwrap();
}

#[test]
fn golden_batch_payload() {
    let out = encode_batch(&sample_batch());
    assert_eq!(hex(&out), "2a00000000000000030000000300000001000000030000000400000000000000050000000100000002000000050000000600000009000000");
    assert_eq!(decode_batch(&out).unwrap(), sample_batch());
}

#[test]
fn golden_wal_frame() {
    let record = wal::frame(7, b"payload");
    assert_eq!(
        hex(&record),
        "0f00000096b9929307000000000000007061796c6f6164"
    );
    // The frame is what `Wal::append` puts on disk and `Wal::open` replays.
    let dir = TempDir::new("fmt-wal").unwrap();
    let path = dir.file("wal.log");
    let mut log = Wal::create(&path).unwrap();
    for seq in 1..=7u64 {
        log.append(seq, b"payload").unwrap();
    }
    drop(log);
    assert!(std::fs::read(&path).unwrap().ends_with(&record));
    let (_, records, torn) = Wal::open(&path).unwrap();
    assert!(torn.is_none());
    assert_eq!(records.len(), 7);
    assert_eq!(records[6].seq, 7);
    assert_eq!(records[6].payload, b"payload");
}

#[test]
fn golden_segment_run() {
    let run = sample_run();
    assert_eq!(hex(&run), "0200000002000000000000000300000000000000020000000000000030000000000000007a15f059000000000000000002000000000000000300000000000000050000000000000003000000000000000600000000000000");
    let segment = EpochSegment::decode_run(&run, "seg-2.run").unwrap();
    assert_eq!(
        (segment.uid(), segment.cols(), segment.num_rows()),
        (2, 3, 2)
    );
    assert_eq!(format!("{:?}", segment.chunk(2).unwrap()), "BitSlice[011]");
    // The golden checkpoint's first segment is this run: restored from the
    // checkpoint's entry, the run verifies.
    let dir = TempDir::new("fmt-run-restore").unwrap();
    std::fs::write(dir.path().join("seg-2.run"), &run).unwrap();
    let mut checkpoint = sample_checkpoint();
    checkpoint.segments.truncate(1);
    let mut restored = 0;
    SegmentedWindowStore::restore(dir.path().to_path_buf(), &checkpoint, |_, segment| {
        assert_eq!(format!("{:?}", segment.chunk(0).unwrap()), "BitSlice[101]");
        restored += 1;
        Ok(())
    })
    .unwrap();
    assert_eq!(restored, 1);
}

/// Checkpoint format 3: `last_seq`, `next_uid`, `window_batches`, the
/// count-prefixed supports, then each live segment's uid, batch id and
/// columns — nothing its run holds.
#[test]
fn golden_checkpoint_file() {
    assert_eq!(
        hex(&checkpoint_file_bytes(&sample_checkpoint())),
        "46534d434b5054330900000000000000040000000000000002000000000000000300000000000000050000000000000000000000000000000200000000000000020000000000000002000000000000000600000000000000030000000000000003000000000000000700000000000000010000000000000031bffecd"
    );
}

/// The same window as checkpoint format 2 wrote it (`FSMCKPT2`: the row
/// index and per-row one-counts of every run copied in), byte for byte:
/// refused by name, never decoded.
#[test]
fn golden_v2_checkpoint_is_refused_as_checkpoint_format_2() {
    let v2 = "46534d434b5054320900000000000000040000000000000003000000000000000200000000000000030000000000000005000000000000000000000000000000020000000000000002000000000000000200000000000000060000000000000003000000000000000200000000000000000000000000000038000000000000001000000000000000020000000000000002000000000000004800000000000000100000000000000001000000000000000300000000000000070000000000000001000000000000000000000000000000ffcc84c0";
    match decode_checkpoint(&unhex(v2)) {
        Err(FsmError::CorruptArtifact { detail, .. }) => {
            assert!(detail.contains("checkpoint format 2"), "{detail}")
        }
        other => panic!("an FSMCKPT2 checkpoint must be refused: {other:?}"),
    }
}

/// The same sample as written by segment format v1 (`FSMCKPT1`, its second
/// row field a page number), byte for byte: refused by name, never decoded.
#[test]
fn golden_v1_checkpoint_is_refused_as_segment_format_v1() {
    let v1 = "46534d434b5054310900000000000000040000000000000003000000000000000200000000000000030000000000000005000000000000000000000000000000020000000000000002000000000000000200000000000000060000000000000003000000000000000200000000000000000000000000000000000000000000001000000000000000020000000000000002000000000000000100000000000000100000000000000001000000000000000300000000000000070000000000000001000000000000000000000000000000a651846e";
    let bytes: Vec<u8> = (0..v1.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&v1[i..i + 2], 16).unwrap())
        .collect();
    match decode_checkpoint(&bytes) {
        Err(FsmError::CorruptArtifact { detail, .. }) => {
            assert!(detail.contains("segment format v1"), "{detail}")
        }
        other => panic!("an FSMCKPT1 checkpoint must be refused: {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Decoders under fire.
// ---------------------------------------------------------------------------

const CHECKPOINT_MAGIC: &[u8; 8] = b"FSMCKPT3";

/// `magic ‖ body ‖ crc32(body)` — a structurally arbitrary body behind a
/// valid frame, so the field decoder behind the CRC check is reached.
fn framed(magic: &[u8; 8], body: &[u8]) -> Vec<u8> {
    let mut bytes = magic.to_vec();
    bytes.extend_from_slice(body);
    bytes.extend_from_slice(&crc32(body).to_le_bytes());
    bytes
}

/// Stores `bytes` as a file and runs a path-based loader over it.
fn decode_file<T>(
    bytes: &[u8],
    load: impl FnOnce(&std::path::Path) -> Result<T, FsmError>,
) -> Result<(), FsmError> {
    let dir = TempDir::new("fmt-fuzz")?;
    let path = dir.file("artifact");
    std::fs::write(&path, bytes)?;
    load(&path).map(drop)
}

/// One decoder under test: the bytes of one encoded value in, verdict out.
type Decoder = fn(&[u8]) -> Result<(), FsmError>;

fn decode_spec(bytes: &[u8]) -> Result<(), FsmError> {
    let mut cursor = Cursor::new(bytes);
    TenantSpec::decode(&mut cursor)?;
    cursor.finish()
}

fn decode_status(bytes: &[u8]) -> Result<(), FsmError> {
    let mut cursor = Cursor::new(bytes);
    TenantStatus::decode(&mut cursor)?;
    cursor.finish()
}

fn decode_patterns(bytes: &[u8]) -> Result<(), FsmError> {
    let mut cursor = Cursor::new(bytes);
    take_patterns(&mut cursor)?;
    cursor.finish()
}

fn decode_batch_payload(bytes: &[u8]) -> Result<(), FsmError> {
    decode_batch(bytes).map(drop)
}

/// Edges in the catalog of the one-pass ingest's tenant: every id
/// [`valid_encodings`] draws lies below it.
const ONE_PASS_EDGES: usize = 100_000;

/// The name the one-pass ingest goes by in the decoder tables.
const ONE_PASS: &str = "one-pass ingest";

thread_local! {
    /// A memory tenant over a path catalog of [`ONE_PASS_EDGES`] edges, fed
    /// a first batch naming its last edge so the window's row tables already
    /// span the catalog: what a measured ingest allocates is its batch's own.
    static ONE_PASS_TENANT: (SessionRegistry, Arc<Session>) = {
        let registry = SessionRegistry::new(RegistryConfig::default());
        let config = MinerConfig {
            window: WindowConfig::new(2).unwrap(),
            backend: StorageBackend::Memory,
            catalog: Some(EdgeCatalog::path(ONE_PASS_EDGES as u32)),
            ..MinerConfig::default()
        };
        let session = registry.create_tenant("one-pass", config, false).unwrap();
        assert_eq!(session.catalog_edges(), ONE_PASS_EDGES);
        let last = Transaction::from_raw([0, ONE_PASS_EDGES as u32 - 1]);
        session.ingest(&Batch::from_transactions(0, vec![last])).unwrap();
        (registry, session)
    };
}

/// The served ingest's decoder: the payload checked and transposed into the
/// tenant's window in one pass ([`Session::ingest_encoded`]).  An id past
/// the catalog is its one typed verdict beyond the payload's own.
fn decode_one_pass(bytes: &[u8]) -> Result<(), FsmError> {
    ONE_PASS_TENANT.with(|(_, session)| session.ingest_encoded(bytes).map(drop))
}

/// A WAL's typed verdict on a bad record is a [`fsm_storage::TornTail`]
/// report, not an `Err`: surface it as one so every decoder reads alike.
fn decode_wal(bytes: &[u8]) -> Result<(), FsmError> {
    decode_file(bytes, |path| {
        let (_, _, torn) = Wal::open(path)?;
        match torn {
            None => Ok(()),
            Some(torn) => Err(FsmError::corrupt_artifact("wal.log", torn.reason)),
        }
    })
}

fn decode_checkpoint(bytes: &[u8]) -> Result<(), FsmError> {
    decode_file(bytes, Checkpoint::load)
}

fn decode_checkpoint_body(body: &[u8]) -> Result<(), FsmError> {
    decode_checkpoint(&framed(CHECKPOINT_MAGIC, body))
}

fn decode_run(bytes: &[u8]) -> Result<(), FsmError> {
    EpochSegment::decode_run(bytes, "seg-0.run").map(drop)
}

/// A segment run with the given header fields and payload, behind a valid
/// CRC (of the header's first 36 bytes and the payload), so the checks
/// behind the CRC are reached.
fn run_with(uid: u64, cols: u64, rows: u64, payload_len: u64, payload: &[u8]) -> Vec<u8> {
    let mut bytes = 2u32.to_le_bytes().to_vec();
    for field in [uid, cols, rows, payload_len] {
        bytes.extend_from_slice(&field.to_le_bytes());
    }
    let crc = crc32(&[bytes.as_slice(), payload].concat());
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

const DECODERS: [(&str, Decoder); 9] = [
    ("tenant spec", decode_spec),
    ("tenant status", decode_status),
    ("pattern list", decode_patterns),
    ("batch payload", decode_batch_payload),
    (ONE_PASS, decode_one_pass),
    ("wal log", decode_wal),
    ("checkpoint file", decode_checkpoint),
    ("checkpoint body", decode_checkpoint_body),
    ("segment run", decode_run),
];

/// The formats whose every byte a CRC covers: one flipped bit anywhere must
/// be refused, not decoded into a different value.
const CHECKSUMMED: [&str; 2] = ["checkpoint file", "segment run"];

/// What a decoder may allocate in one request for `input_len` bytes of
/// input: a constant factor for in-memory records being wider than their
/// wire form (a 4-byte empty transaction decodes into a 24-byte `Vec`),
/// plus slack for paths and error strings.  A reservation sized by an
/// *announced* count blows through this by orders of magnitude.
fn allocation_bound(input_len: usize) -> usize {
    8 * input_len + 4096
}

/// Runs one decoder over one input and checks the contract: typed verdict,
/// bounded allocation.  (Panics are caught by the proptest runner / fail a
/// plain test outright.)
fn check_decoder(
    name: &str,
    decode: Decoder,
    input: &[u8],
) -> Result<Result<(), FsmError>, String> {
    // The one-pass ingest's tenant is built before anything is measured.
    ONE_PASS_TENANT.with(|_| ());
    let (verdict, largest) = largest_allocation_during(|| decode(input));
    if largest > allocation_bound(input.len()) {
        return Err(format!(
            "{name}: a {}-byte input made the decoder request {largest} bytes at once",
            input.len()
        ));
    }
    if let Err(err) = &verdict {
        let typed = match err {
            FsmError::Parse { .. } | FsmError::CorruptArtifact { .. } => true,
            FsmError::UnknownEdge { edge } => name == ONE_PASS && *edge as usize >= ONE_PASS_EDGES,
            _ => false,
        };
        if !typed {
            return Err(format!("{name}: untyped rejection: {err}"));
        }
    }
    Ok(verdict)
}

/// Valid encodings of values built from arbitrary rows, paired with the
/// decoder that must accept them whole and reject every strict prefix.
fn valid_encodings(id: u64, rows: &[Vec<u32>]) -> Vec<(&'static str, Decoder, Vec<u8>)> {
    let mut spec = Vec::new();
    TenantSpec {
        tenant: format!("t{id}"),
        minsup: id,
        ..sample_spec()
    }
    .encode_into(&mut spec);
    let mut status = Vec::new();
    TenantStatus {
        resident_bytes: id,
        ..sample_status()
    }
    .encode_into(&mut status);
    let mut patterns = Vec::new();
    put_patterns(
        &mut patterns,
        &rows
            .iter()
            .map(|row| FrequentPattern::new(EdgeSet::from_raw(row.iter().copied()), id))
            .collect::<Vec<_>>(),
    );
    let batch = Batch::from_transactions(
        id,
        rows.iter()
            .map(|row| Transaction::from_raw(row.iter().copied()))
            .collect(),
    );
    let checkpoint = Checkpoint {
        last_seq: id,
        supports: rows.iter().map(|row| row.len() as u64).collect(),
        segments: rows
            .iter()
            .enumerate()
            .map(|(uid, row)| CheckpointSegment {
                uid: uid as u64,
                batch_id: id,
                cols: row.len() as u64,
            })
            .collect(),
        ..sample_checkpoint()
    };
    // One segment holding a chunk for every distinct id the rows mention.
    let mut ids: Vec<usize> = rows.iter().flatten().map(|&r| r as usize).collect();
    ids.sort_unstable();
    ids.dedup();
    let run = segment_run(
        id % 3,
        5,
        &ids.iter()
            .map(|&r| (r, (0..5).map(|c| (r >> c) & 1 == 1).collect()))
            .collect::<Vec<_>>(),
    );
    vec![
        ("tenant spec", decode_spec, spec),
        ("tenant status", decode_status, status),
        ("pattern list", decode_patterns, patterns),
        ("batch payload", decode_batch_payload, encode_batch(&batch)),
        (ONE_PASS, decode_one_pass, encode_batch(&batch)),
        ("wal log", decode_wal, wal::frame(1, &encode_batch(&batch))),
        (
            "checkpoint file",
            decode_checkpoint,
            checkpoint_file_bytes(&checkpoint),
        ),
        ("segment run", decode_run, run),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary bytes — raw, and behind a valid magic + CRC frame — every
    /// truncation of a valid encoding and a bit-flipped one: each decoder
    /// answers with a typed error (or, where no CRC covers the flipped bit,
    /// another value), never a panic, never an input-announced reservation.
    #[test]
    fn decoders_answer_garbage_and_truncations_with_typed_errors(
        garbage in proptest::collection::vec(any::<u8>(), 0..160),
        rows in proptest::collection::vec(proptest::collection::vec(0u32..100_000, 0..5), 0..4),
        id in any::<u64>(),
        flip in any::<usize>(),
    ) {
        for (name, decode) in DECODERS {
            if let Err(violation) = check_decoder(name, decode, &garbage) {
                prop_assert!(false, "{}", violation);
            }
        }
        for (name, decode, encoded) in valid_encodings(id, &rows) {
            match check_decoder(name, decode, &encoded) {
                Ok(Ok(())) => {}
                Ok(Err(err)) => prop_assert!(false, "{}: valid encoding rejected: {}", name, err),
                Err(violation) => prop_assert!(false, "{}", violation),
            }
            for cut in 0..encoded.len() {
                // An empty WAL is a valid (empty) log, not a torn one.
                if name == "wal log" && cut == 0 {
                    continue;
                }
                match check_decoder(name, decode, &encoded[..cut]) {
                    Ok(Err(_)) => {}
                    Ok(Ok(())) => prop_assert!(
                        false, "{}: prefix of {} of {} bytes was accepted", name, cut, encoded.len()
                    ),
                    Err(violation) => prop_assert!(false, "{}", violation),
                }
            }
            let mut flipped = encoded.clone();
            flipped[flip / 8 % encoded.len()] ^= 1 << (flip % 8);
            match check_decoder(name, decode, &flipped) {
                Ok(Ok(())) if CHECKSUMMED.contains(&name) => prop_assert!(
                    false, "{}: bit {} flipped was accepted", name, flip % (8 * encoded.len())
                ),
                Ok(_) => {}
                Err(violation) => prop_assert!(false, "{}", violation),
            }
        }
    }
}

/// A wire frame's length prefix is a claim too, and the reader used to
/// zero-allocate it in full before a payload byte arrived: four bytes
/// announcing the 64 MiB limit cost 64 MiB.  The reservation is now bounded
/// by [`FRAME_RESERVE_BYTES`] and then grows only with the bytes received,
/// and the hang-up is a typed error; a frame of the benchmark's largest size
/// is still one allocation of exactly its length.
#[test]
fn a_frame_header_reserves_a_bounded_buffer_not_its_announcement() {
    let announced = u32::try_from(MAX_FRAME_BYTES).unwrap().to_le_bytes();
    for sent in [0usize, 1000, 512 << 10] {
        let mut input = announced.to_vec();
        input.resize(4 + sent, 7);
        let (verdict, largest) = largest_allocation_during(|| read_frame(&mut &input[..]));
        assert!(
            matches!(verdict, Err(FsmError::Parse { .. })),
            "{sent} bytes sent: {verdict:?}"
        );
        let bound = FRAME_RESERVE_BYTES.max(2 * sent) + 4096;
        assert!(
            largest <= bound,
            "{sent} of {MAX_FRAME_BYTES} announced bytes sent: the reader requested \
             {largest} bytes at once (bound {bound})"
        );
    }
    let payload = vec![1u8; 83_000];
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload).unwrap();
    let (read, largest) = largest_allocation_during(|| read_frame(&mut &frame[..]));
    assert_eq!(read.unwrap().unwrap(), payload);
    assert_eq!(largest, payload.len());
}

/// The defect the shared reader's `count` closes: a count field is a claim,
/// and a decoder that reserves for it before checking it against the bytes
/// actually present lets a 20-byte request reserve megabytes.  Every
/// count-prefixed list in every format, announced as huge over a tiny
/// input, must be refused with the format's typed error — without the
/// reservation.
#[test]
fn a_lying_count_is_refused_before_anything_is_reserved() {
    let u64s =
        |fields: &[u64]| -> Vec<u8> { fields.iter().flat_map(|f| f.to_le_bytes()).collect() };
    let mut lying_patterns = u32::MAX.to_le_bytes().to_vec();
    lying_patterns.extend_from_slice(&[0; 12]);
    let mut lying_edges = 1u32.to_le_bytes().to_vec();
    lying_edges.extend_from_slice(&7u64.to_le_bytes());
    lying_edges.extend_from_slice(&u16::MAX.to_le_bytes());
    lying_edges.extend_from_slice(&[0; 8]);
    let mut lying_transactions = 9u64.to_le_bytes().to_vec();
    lying_transactions.extend_from_slice(&u32::MAX.to_le_bytes());
    lying_transactions.extend_from_slice(&[0; 8]);
    let mut lying_transaction_edges = 9u64.to_le_bytes().to_vec();
    lying_transaction_edges.extend_from_slice(&1u32.to_le_bytes());
    lying_transaction_edges.extend_from_slice(&u32::MAX.to_le_bytes());
    lying_transaction_edges.extend_from_slice(&[0; 4]);
    let huge = u64::MAX >> 4;

    // A run header is CRC-covered, so these lie behind a valid CRC.
    let chunk = [3u64, 5].map(u64::to_le_bytes).concat();
    let one_row = [0u64.to_le_bytes().as_slice(), &chunk].concat();

    let cases: [(&str, Decoder, Vec<u8>); 11] = [
        ("pattern count", decode_patterns, lying_patterns),
        ("pattern edge count", decode_patterns, lying_edges),
        (
            "batch transaction count",
            decode_batch_payload,
            lying_transactions.clone(),
        ),
        (
            "transaction edge count",
            decode_batch_payload,
            lying_transaction_edges.clone(),
        ),
        (
            "one-pass transaction count",
            decode_one_pass,
            lying_transactions,
        ),
        (
            "one-pass transaction edge count",
            decode_one_pass,
            lying_transaction_edges,
        ),
        (
            "checkpoint supports count",
            decode_checkpoint_body,
            u64s(&[9, 4, 2, huge, 5]),
        ),
        (
            "checkpoint segments count",
            decode_checkpoint_body,
            u64s(&[9, 4, 2, 0, huge, 1, 2, 3]),
        ),
        (
            "run row count",
            decode_run,
            run_with(0, 3, huge, 24, &one_row),
        ),
        (
            "run payload length",
            decode_run,
            run_with(0, 3, 1, huge, &one_row),
        ),
        (
            "run columns",
            decode_run,
            run_with(0, huge, 1, 24, &one_row),
        ),
    ];
    for (name, decode, input) in cases {
        match check_decoder(name, decode, &input) {
            Ok(Err(_)) => {}
            Ok(Ok(())) => panic!("{name}: the lie was accepted"),
            Err(violation) => panic!("{violation}"),
        }
    }
}

/// Every writer of a batch payload or a pattern list emits ids in canonical
/// order, and the decoders read them into place instead of re-sorting: a
/// descending pair, a repeated id — at the top of the id space too — is
/// refused with the format's typed error, within the allocation bound.
/// Ascending ids up to `u32::MAX` are still values.
#[test]
fn non_canonical_id_lists_are_refused_not_repaired() {
    let words = |head: &[u8], ids: &[u32]| -> Vec<u8> {
        let mut bytes = head.to_vec();
        for id in ids {
            bytes.extend_from_slice(&id.to_le_bytes());
        }
        bytes
    };
    // Batch 9 of one transaction; a pattern list of one pattern, support 7.
    let batch_head = [9u64.to_le_bytes().as_slice(), &1u32.to_le_bytes()].concat();
    let batch = |ids: &[u32]| {
        let head = [batch_head.as_slice(), &(ids.len() as u32).to_le_bytes()].concat();
        words(&head, ids)
    };
    let patterns = |ids: &[u32]| {
        let head = [
            1u32.to_le_bytes().as_slice(),
            &7u64.to_le_bytes(),
            &(ids.len() as u16).to_le_bytes(),
        ]
        .concat();
        words(&head, ids)
    };
    let refused: [&[u32]; 5] = [
        &[5, 4],
        &[3, 3],
        &[0, 1, 1, 2],
        &[u32::MAX, u32::MAX],
        &[u32::MAX, 0],
    ];
    for ids in refused {
        for (name, decode, input) in [
            ("batch payload", decode_batch_payload as Decoder, batch(ids)),
            (ONE_PASS, decode_one_pass, batch(ids)),
            ("pattern list", decode_patterns, patterns(ids)),
        ] {
            match check_decoder(name, decode, &input) {
                Ok(Err(err)) => assert!(err.to_string().contains("strictly increase"), "{err}"),
                Ok(Ok(())) => panic!("{name}: {ids:?} was accepted"),
                Err(violation) => panic!("{violation}"),
            }
        }
    }
    for ids in [&[0, u32::MAX][..], &[u32::MAX], &[1, 2, 70_000]] {
        // The one-pass ingest reads the same ids, and holds them to its
        // tenant's catalog.
        match check_decoder(ONE_PASS, decode_one_pass, &batch(ids)) {
            Ok(Ok(())) => assert!(ids.iter().all(|&id| (id as usize) < ONE_PASS_EDGES)),
            Ok(Err(FsmError::UnknownEdge { edge })) => assert_eq!(Some(&edge), ids.last()),
            other => panic!("{ids:?}: {other:?}"),
        }
        let decoded = decode_batch(&batch(ids)).unwrap();
        assert_eq!(decoded.transactions()[0].edges().len(), ids.len());
        assert_eq!(encode_batch(&decoded), batch(ids), "re-encodes identically");
        let list = patterns(ids);
        let mut cursor = Cursor::new(&list);
        let decoded = take_patterns(&mut cursor).unwrap();
        cursor.finish().unwrap();
        let mut again = Vec::new();
        put_patterns(&mut again, &decoded);
        assert_eq!(again, list);
    }
}
