//! The one-pass ingest agrees with the built-batch ingest, and refuses what
//! the batch decoder refuses.
//!
//! `fsmd` hands a tenant the batch payload it received
//! ([`Session::ingest_encoded`]): one scan of the bytes checks them against
//! the payload format and the tenant's catalog and transposes them into the
//! window's segment.  In-process callers hand over built transactions
//! ([`Session::ingest`]).  Both feed the same transposer, so on every kind
//! of tenant — memory, disk, durable — two tenants fed the same random
//! batches, one each way, must hold identical windows after every batch:
//! every row, every singleton support, the capture counters, every byte
//! their directories hold (segment runs, and a durable tenant's WAL and
//! checkpoints) and the patterns a mine returns.
//!
//! Before each batch the encoded tenant is also sent malformed variants of
//! its payload — every truncation, a trailing byte, lying transaction and
//! id counts, a repeated and a descending id, an id equal to the catalog's
//! edge count — and each must be refused with the error kind
//! [`decode_batch`] (or, for a well-formed payload, the catalog bound)
//! gives it.  A refusal that left any trace in the window, the queue or the
//! WAL would show up as a difference from the built tenant, which never saw
//! one.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fsm_core::{Algorithm, IngestOutcome, MinerConfig, RegistryConfig, Session, SessionRegistry};
use fsm_dsmatrix::{decode_batch, encode_batch};
use fsm_storage::{BitVec, CaptureStats, StorageBackend, TempDir};
use fsm_stream::WindowConfig;
use fsm_types::{Batch, EdgeCatalog, EdgeId, FrequentPattern, FsmError, MinSup, Transaction};
use proptest::prelude::*;

/// `complete(6)` has 15 edges: ids `0..15`.
const VERTICES: u32 = 6;
const EDGES: u32 = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Memory,
    Disk,
    Durable,
}

/// Two tenants of one kind: `built` fed [`Session::ingest`], `encoded` fed
/// [`Session::ingest_encoded`].
struct Pair {
    root: TempDir,
    kind: Kind,
    _registry: SessionRegistry,
    built: Arc<Session>,
    encoded: Arc<Session>,
}

impl Pair {
    fn new(kind: Kind) -> Self {
        let root = TempDir::new("ingest-agreement").unwrap();
        let registry = SessionRegistry::new(RegistryConfig {
            durable_root: Some(root.path().to_path_buf()),
            ..RegistryConfig::default()
        });
        let config = |tenant: &str| MinerConfig {
            algorithm: Algorithm::DirectVertical,
            window: WindowConfig::new(3).unwrap(),
            min_support: MinSup::absolute(2),
            catalog: Some(EdgeCatalog::complete(VERTICES)),
            backend: match kind {
                Kind::Memory => StorageBackend::Memory,
                Kind::Disk => StorageBackend::DiskAt(root.path().join("disk").join(tenant)),
                Kind::Durable => StorageBackend::DiskTemp,
            },
            // A budget holding about two of the window's three segments.
            cache_budget_bytes: 1200,
            checkpoint_every: 2,
            ..MinerConfig::default()
        };
        let durable = kind == Kind::Durable;
        let built = registry
            .create_tenant("built", config("built"), durable)
            .unwrap();
        let encoded = registry
            .create_tenant("encoded", config("encoded"), durable)
            .unwrap();
        assert_eq!(built.catalog_edges(), EDGES as usize);
        Self {
            root,
            kind,
            _registry: registry,
            built,
            encoded,
        }
    }

    /// The directory holding `tenant`'s files, if it has any.
    fn dir(&self, tenant: &str) -> Option<PathBuf> {
        match self.kind {
            Kind::Memory => None,
            Kind::Disk => Some(self.root.path().join("disk").join(tenant)),
            Kind::Durable => Some(self.root.path().join(tenant)),
        }
    }
}

/// Every file under `dir`, by path relative to it, with its bytes.
fn files(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(at) = pending.pop() {
        for entry in std::fs::read_dir(&at).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                out.insert(path.strip_prefix(dir).unwrap().to_path_buf(), bytes);
            }
        }
    }
    out
}

/// Everything observable about a tenant's window.
#[derive(Debug, PartialEq)]
struct Window {
    rows: Vec<BitVec>,
    supports: Vec<u64>,
    capture: CaptureStats,
    boundaries: Vec<usize>,
    pending: usize,
    files: BTreeMap<PathBuf, Vec<u8>>,
    patterns: Vec<FrequentPattern>,
}

fn window(pair: &Pair, tenant: &str) -> Window {
    let session = if tenant == "built" {
        &pair.built
    } else {
        &pair.encoded
    };
    let pending = session.pending_batches();
    let (rows, supports, capture, boundaries) = session
        .with_miner(|miner| {
            let matrix = miner.matrix_mut();
            let rows = (0..EDGES)
                .map(|edge| matrix.row(EdgeId::new(edge)).unwrap())
                .collect();
            let snapshot = matrix.snapshot_epoch().unwrap();
            let supports = (0..EDGES as usize)
                .map(|edge| snapshot.singleton_support(edge))
                .collect();
            (rows, supports, matrix.capture_stats(), matrix.boundaries())
        })
        .unwrap();
    Window {
        rows,
        supports,
        capture,
        boundaries,
        pending,
        files: pair.dir(tenant).map(|dir| files(&dir)).unwrap_or_default(),
        patterns: session.mine().unwrap().patterns().to_vec(),
    }
}

/// What a refusal is: its variant, plus the artifact or the edge it names.
fn verdict(err: &FsmError) -> String {
    match err {
        FsmError::CorruptArtifact { artifact, .. } => format!("corrupt {artifact}"),
        FsmError::UnknownEdge { edge } => format!("unknown edge {edge}"),
        other => format!("unexpected: {other}"),
    }
}

/// The refusal the payload format and the catalog give `bytes`, or `None`
/// for a valid payload.
fn expected_verdict(bytes: &[u8]) -> Option<String> {
    match decode_batch(bytes) {
        Err(err) => Some(verdict(&err)),
        Ok(batch) => batch
            .max_edge()
            .filter(|edge| edge.0 >= EDGES)
            .map(|edge| verdict(&FsmError::UnknownEdge { edge: edge.0 })),
    }
}

/// Malformed variants of `batch`'s payload.
fn malformed(batch: &Batch) -> Vec<Vec<u8>> {
    let payload = encode_batch(batch);
    let mut out: Vec<Vec<u8>> = (0..payload.len())
        .map(|cut| payload[..cut].to_vec())
        .collect();
    out.push([payload.as_slice(), &[0]].concat());
    let put = |bytes: &mut Vec<u8>, at: usize, value: u32| {
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
    };
    // Lying transaction counts.
    for count in [batch.len() as u32 + 1, u32::MAX] {
        let mut bytes = payload.clone();
        put(&mut bytes, 8, count);
        out.push(bytes);
    }
    // Per transaction: a lying id count; then, by id position, a repeated
    // id, a descending pair and a last id equal to the catalog's edge count.
    let mut at = 12;
    for transaction in batch.iter() {
        let ids = at + 4;
        for count in [transaction.len() as u32 + 1, u32::MAX] {
            let mut bytes = payload.clone();
            put(&mut bytes, at, count);
            out.push(bytes);
        }
        let edges = transaction.edges();
        if edges.len() >= 2 {
            let mut repeated = payload.clone();
            put(&mut repeated, ids + 4, edges[0].0);
            out.push(repeated);
            let mut descending = payload.clone();
            put(&mut descending, ids, edges[1].0);
            put(&mut descending, ids + 4, edges[0].0);
            out.push(descending);
        }
        if let Some(last) = edges.len().checked_sub(1) {
            let mut unknown = payload.clone();
            put(&mut unknown, ids + 4 * last, EDGES);
            out.push(unknown);
        }
        at = ids + 4 * edges.len();
    }
    out
}

fn batches() -> impl Strategy<Value = Vec<Vec<Vec<u32>>>> {
    // Up to seven batches of up to nine transactions of up to five ids,
    // empty batches and transactions included; `0..EDGES` reaches the
    // catalog's last edge.
    proptest::collection::vec(
        proptest::collection::vec(proptest::collection::vec(0..EDGES, 0..6), 0..10),
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn the_one_pass_ingest_leaves_the_window_the_built_batch_does(raw in batches()) {
        for kind in [Kind::Memory, Kind::Disk, Kind::Durable] {
            let pair = Pair::new(kind);
            for (id, transactions) in raw.iter().enumerate() {
                let batch = Batch::from_transactions(
                    id as u64,
                    transactions
                        .iter()
                        .map(|ids| Transaction::from_raw(ids.iter().copied()))
                        .collect(),
                );
                for bad in malformed(&batch) {
                    let Some(want) = expected_verdict(&bad) else {
                        // A variant that happens to be a valid payload.
                        continue;
                    };
                    match pair.encoded.ingest_encoded(&bad) {
                        Err(err) => prop_assert_eq!(verdict(&err), want, "{:?}: {:?}", kind, bad),
                        Ok(outcome) => prop_assert!(
                            false, "{:?}: {:?} was accepted ({:?})", kind, bad, outcome
                        ),
                    }
                }
                let built = pair.built.ingest(&batch).unwrap();
                let encoded = pair.encoded.ingest_encoded(&encode_batch(&batch)).unwrap();
                prop_assert!(matches!(built, IngestOutcome::Applied(_)));
                prop_assert_eq!(built, encoded);
                prop_assert_eq!(
                    window(&pair, "built"),
                    window(&pair, "encoded"),
                    "{:?} after batch {}",
                    kind,
                    id
                );
            }
        }
    }
}
