//! The binary formats, pinned byte for byte, and their decoders, fed
//! garbage.
//!
//! Every format that crosses a trust boundary — wire bodies
//! ([`TenantSpec`], [`TenantStatus`], pattern lists), the batch payload,
//! the WAL record frame, and the two CRC-framed artifacts
//! ([`Checkpoint`], [`Hibernation`]) — is written and read through one
//! codec (`fsm_types::codec` + `fsm_storage::framed`).  The golden tests
//! below hold the exact bytes the formats had before that codec existed,
//! so a port or refactor of the codec provably moves no byte.  The
//! property test then feeds every decoder arbitrary bytes and every
//! truncation of a valid encoding: the answer must be a typed error —
//! never a panic, and never a reservation sized by a count the input
//! merely *announces* (measured with a counting allocator, see
//! [`PeakAlloc`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fsm_core::LifecycleState;
use fsm_dsmatrix::{decode_batch, encode_batch};
use fsm_fsmd::proto::{put_patterns, take_patterns, Cursor, TenantSpec, TenantStatus};
use fsm_storage::{
    crc32, wal, Checkpoint, CheckpointRow, CheckpointSegment, Hibernation, HibernationRow,
    HibernationSegment, TempDir, Wal,
};
use fsm_types::{Batch, EdgeSet, FrequentPattern, FsmError, Transaction};
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
        num_items: 3,
        window_batches: 2,
        supports: vec![5, 0, 2],
        segments: vec![
            CheckpointSegment {
                uid: 2,
                batch_id: 6,
                cols: 3,
                rows: vec![
                    CheckpointRow {
                        row: 0,
                        first_page: 0,
                        len: 16,
                        ones: 2,
                    },
                    CheckpointRow {
                        row: 2,
                        first_page: 1,
                        len: 16,
                        ones: 1,
                    },
                ],
            },
            CheckpointSegment {
                uid: 3,
                batch_id: 7,
                cols: 1,
                rows: vec![],
            },
        ],
    }
}

fn sample_hibernation() -> Hibernation {
    Hibernation {
        num_items: 3,
        window_batches: 2,
        supports: vec![2, 0, 1],
        segments: vec![
            HibernationSegment {
                batch_id: 6,
                cols: 3,
                rows: vec![
                    HibernationRow {
                        row: 0,
                        chunk: vec![0xAB, 0xCD, 0xEF],
                    },
                    HibernationRow {
                        row: 2,
                        chunk: vec![],
                    },
                ],
            },
            HibernationSegment {
                batch_id: 7,
                cols: 1,
                rows: vec![],
            },
        ],
    }
}

fn checkpoint_file_bytes(checkpoint: &Checkpoint) -> Vec<u8> {
    let dir = TempDir::new("fmt-ckpt").unwrap();
    let (path, bytes, _) = checkpoint.write(dir.path()).unwrap();
    let file = std::fs::read(path).unwrap();
    assert_eq!(file.len() as u64, bytes);
    file
}

fn hibernation_file_bytes(hibernation: &Hibernation) -> Vec<u8> {
    let dir = TempDir::new("fmt-hib").unwrap();
    let (path, bytes) = hibernation.write(dir.path()).unwrap();
    let file = std::fs::read(path).unwrap();
    assert_eq!(file.len() as u64, bytes);
    file
}

// ---------------------------------------------------------------------------
// Golden bytes: captured from the commit before the shared codec existed.
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
fn golden_checkpoint_file() {
    assert_eq!(
        hex(&checkpoint_file_bytes(&sample_checkpoint())),
        "46534d434b5054310900000000000000040000000000000003000000000000000200000000000000030000000000000005000000000000000000000000000000020000000000000002000000000000000200000000000000060000000000000003000000000000000200000000000000000000000000000000000000000000001000000000000000020000000000000002000000000000000100000000000000100000000000000001000000000000000300000000000000070000000000000001000000000000000000000000000000a651846e"
    );
}

#[test]
fn golden_hibernation_file() {
    assert_eq!(
        hex(&hibernation_file_bytes(&sample_hibernation())),
        "46534d5350494c31030000000000000002000000000000000300000000000000020000000000000000000000000000000100000000000000020000000000000006000000000000000300000000000000020000000000000000000000000000000300000000000000abcdef02000000000000000000000000000000070000000000000001000000000000000000000000000000537abcdc"
    );
}

// ---------------------------------------------------------------------------
// Decoders under fire.
// ---------------------------------------------------------------------------

const CHECKPOINT_MAGIC: &[u8; 8] = b"FSMCKPT1";
const HIBERNATION_MAGIC: &[u8; 8] = b"FSMSPIL1";

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

fn decode_hibernation(bytes: &[u8]) -> Result<(), FsmError> {
    decode_file(bytes, Hibernation::load)
}

fn decode_hibernation_body(body: &[u8]) -> Result<(), FsmError> {
    decode_hibernation(&framed(HIBERNATION_MAGIC, body))
}

const DECODERS: [(&str, Decoder); 9] = [
    ("tenant spec", decode_spec),
    ("tenant status", decode_status),
    ("pattern list", decode_patterns),
    ("batch payload", decode_batch_payload),
    ("wal log", decode_wal),
    ("checkpoint file", decode_checkpoint),
    ("checkpoint body", decode_checkpoint_body),
    ("hibernation file", decode_hibernation),
    ("hibernation body", decode_hibernation_body),
];

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
    let (verdict, largest) = largest_allocation_during(|| decode(input));
    if largest > allocation_bound(input.len()) {
        return Err(format!(
            "{name}: a {}-byte input made the decoder request {largest} bytes at once",
            input.len()
        ));
    }
    if let Err(err) = &verdict {
        if !matches!(
            err,
            FsmError::Parse { .. } | FsmError::CorruptArtifact { .. }
        ) {
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
                cols: 3,
                rows: row
                    .iter()
                    .map(|&r| CheckpointRow {
                        row: u64::from(r),
                        first_page: 0,
                        len: 16,
                        ones: 1,
                    })
                    .collect(),
            })
            .collect(),
        ..sample_checkpoint()
    };
    let hibernation = Hibernation {
        supports: rows.iter().map(|row| row.len() as u64).collect(),
        segments: rows
            .iter()
            .map(|row| HibernationSegment {
                batch_id: id,
                cols: 3,
                rows: row
                    .iter()
                    .map(|&r| HibernationRow {
                        row: u64::from(r),
                        chunk: r.to_le_bytes()[..(r % 5) as usize].to_vec(),
                    })
                    .collect(),
            })
            .collect(),
        ..sample_hibernation()
    };
    vec![
        ("tenant spec", decode_spec, spec),
        ("tenant status", decode_status, status),
        ("pattern list", decode_patterns, patterns),
        ("batch payload", decode_batch_payload, encode_batch(&batch)),
        ("wal log", decode_wal, wal::frame(1, &encode_batch(&batch))),
        (
            "checkpoint file",
            decode_checkpoint,
            checkpoint_file_bytes(&checkpoint),
        ),
        (
            "hibernation file",
            decode_hibernation,
            hibernation_file_bytes(&hibernation),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary bytes — raw, and behind a valid magic + CRC frame — and
    /// every truncation of a valid encoding: each decoder answers with a
    /// typed error, never a panic, never an input-announced reservation.
    #[test]
    fn decoders_answer_garbage_and_truncations_with_typed_errors(
        garbage in proptest::collection::vec(any::<u8>(), 0..160),
        rows in proptest::collection::vec(proptest::collection::vec(0u32..100_000, 0..5), 0..4),
        id in any::<u64>(),
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
        }
    }
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

    let cases: [(&str, Decoder, Vec<u8>); 10] = [
        ("pattern count", decode_patterns, lying_patterns),
        ("pattern edge count", decode_patterns, lying_edges),
        (
            "batch transaction count",
            decode_batch_payload,
            lying_transactions,
        ),
        (
            "transaction edge count",
            decode_batch_payload,
            lying_transaction_edges,
        ),
        (
            "checkpoint supports count",
            decode_checkpoint_body,
            u64s(&[9, 4, 3, 2, huge, 5]),
        ),
        (
            "checkpoint segments count",
            decode_checkpoint_body,
            u64s(&[9, 4, 3, 2, 0, huge, 1, 2, 3, 0]),
        ),
        (
            "checkpoint rows count",
            decode_checkpoint_body,
            u64s(&[9, 4, 3, 2, 0, 1, 1, 2, 3, huge, 0, 0, 0, 0]),
        ),
        (
            "hibernation supports count",
            decode_hibernation_body,
            u64s(&[3, 2, huge, 5]),
        ),
        (
            "hibernation segments count",
            decode_hibernation_body,
            u64s(&[3, 2, 0, huge, 6, 3, 0]),
        ),
        (
            "hibernation rows count",
            decode_hibernation_body,
            u64s(&[3, 2, 0, 1, 6, 3, huge, 0, 0]),
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
