//! Epoch reclamation shadow model: segment memory is freed exactly when the
//! last reader lets go, and never earlier.
//!
//! [`DsMatrix::snapshot_epoch`] hands out `Arc`-shared [`EpochSegment`]s, so
//! reclamation is plain reference counting.  A *resident* segment — every
//! segment on the memory backend, and on disk every segment the residency
//! budget holds — is one decoded copy the store itself holds while the
//! segment is in the live window, shared by every snapshot that covers it.
//! A disk segment the budget does not hold is decoded afresh for each
//! snapshot, and that copy lives exactly as long as the snapshot does.  The
//! matrix keeps no snapshot of its own.
//!
//! These tests pin that rule against a `HashMap` shadow model: a `Weak`
//! probe is taken for every decoded copy the moment a snapshot first
//! exposes it, an oracle tracks each copy's external refcount and whether
//! the matrix keeps it resident, and after every step —
//! randomized drop orders, and drops randomly interleaved with further
//! slides — every probe's `upgrade()` must agree with the oracle.  No copy
//! may be reclaimed while referenced; every copy must be reclaimed once its
//! last reference drops.
//!
//! One documented deviation from a file-level model: on the disk backend
//! the *files* of a popped segment may be unlinked while snapshots still
//! hold its bits — snapshots are self-contained decoded data and never go
//! back to disk, so file lifetime is governed by durability alone.

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use fsm_dsmatrix::{DsMatrix, DsMatrixConfig, EpochSnapshot};
use fsm_storage::{EpochSegment, StorageBackend};
use fsm_stream::WindowConfig;
use fsm_types::{Batch, Transaction};

const EDGES: usize = 6;
const WINDOW: usize = 3;

/// The corners, each with whether its whole window is resident.  At most
/// three segments of at most six one-word chunks (24 bytes charged each)
/// are 432 bytes, so 600 bytes hold this fixture's window.
fn corners() -> Vec<(&'static str, StorageBackend, usize, bool)> {
    vec![
        ("memory", StorageBackend::Memory, 0, true),
        ("disk budget=0", StorageBackend::DiskTemp, 0, false),
        ("disk budget=600", StorageBackend::DiskTemp, 600, true),
        (
            "disk budget=max",
            StorageBackend::DiskTemp,
            usize::MAX,
            true,
        ),
    ]
}

fn matrix(backend: StorageBackend, budget: usize) -> DsMatrix {
    DsMatrix::new(
        DsMatrixConfig::new(WindowConfig::new(WINDOW).unwrap(), backend, EDGES)
            .with_cache_budget(budget),
    )
    .unwrap()
}

/// Deterministic pseudo-random batch `id` (no external RNG crate).
fn batch(id: u64) -> Batch {
    let mut rng = Xorshift::new(id.wrapping_mul(0xA076_1D64_78BD_642F) | 1);
    let transactions = (0..1 + rng.below(3))
        .map(|_| {
            Transaction::from_raw((0..1 + rng.below(4)).map(|_| rng.below(EDGES as u64) as u32))
        })
        .collect();
    Batch::from_transactions(id, transactions)
}

struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A decoded copy of a segment, named by its address: the probe's `Weak`
/// keeps the allocation, so no later copy can take the address over.
type Decoded = usize;

/// The shadow model: per decoded copy, its segment uid, a `Weak` probe and
/// the oracle's view of its external snapshot refcount; the copies the
/// matrix keeps are passed per check.
#[derive(Default)]
struct Shadow {
    probes: HashMap<Decoded, (u64, Weak<EpochSegment>)>,
    refs: HashMap<Decoded, usize>,
}

impl Shadow {
    /// Registers one held snapshot: probes for new copies, +1 refcount on
    /// every copy it references.  Returns the snapshot's copies.
    fn acquire(&mut self, snapshot: &Arc<EpochSnapshot>) -> Vec<Decoded> {
        snapshot
            .segments()
            .iter()
            .map(|seg| {
                let copy = Arc::as_ptr(seg) as Decoded;
                self.probes
                    .entry(copy)
                    .or_insert_with(|| (seg.uid(), Arc::downgrade(seg)));
                *self.refs.entry(copy).or_insert(0) += 1;
                copy
            })
            .collect()
    }

    /// Forgets one dropped snapshot (by its copies): -1 refcount each.
    fn release(&mut self, copies: &[Decoded]) {
        for copy in copies {
            *self.refs.get_mut(copy).unwrap() -= 1;
        }
    }

    /// How many distinct decoded copies of segment `uid` were exposed.
    fn copies_of(&self, uid: u64) -> usize {
        self.probes.values().filter(|(of, _)| *of == uid).count()
    }

    /// Every probe must agree with the oracle: alive iff the matrix keeps
    /// it (`kept`: its resident copies) or an undropped snapshot still
    /// references it.
    fn check(&self, kept: &[Decoded], context: &str) {
        for (copy, (uid, probe)) in &self.probes {
            let expected = kept.contains(copy) || self.refs[copy] > 0;
            assert_eq!(
                probe.upgrade().is_some(),
                expected,
                "{context}: a copy of segment {uid} (kept: {}, external refs: {})",
                kept.contains(copy),
                self.refs[copy]
            );
        }
    }
}

/// Slide a full stream holding every epoch's snapshot, then drop the
/// snapshots in a randomized order: a segment must survive exactly until
/// its last reader drops, and the snapshot *objects* themselves must die
/// with their last `Arc`, the newest epoch's included.
#[test]
fn no_segment_outlives_its_last_reader() {
    const BATCHES: usize = 8;
    for (label, backend, budget, resident) in corners() {
        for seed in 1u64..=4 {
            let mut m = matrix(backend.clone(), budget);
            let mut shadow = Shadow::default();
            let mut held: Vec<Option<(Arc<EpochSnapshot>, Vec<Decoded>)>> = Vec::new();
            let mut snapshot_probes: Vec<Weak<EpochSnapshot>> = Vec::new();
            for id in 0..BATCHES {
                m.ingest_batch(&batch(id as u64)).unwrap();
                let snap = m.snapshot_epoch().unwrap();
                snapshot_probes.push(Arc::downgrade(&snap));
                let copies = shadow.acquire(&snap);
                shadow.check(&copies, &format!("{label} seed={seed} after ingest {id}"));
                held.push(Some((snap, copies)));
            }
            let window: Vec<Decoded> = held.last().unwrap().as_ref().unwrap().1.clone();
            // The copies the matrix keeps: the live window's, when resident.
            let kept: Vec<Decoded> = if resident { window.clone() } else { Vec::new() };
            // A resident segment is one copy, shared by every epoch; any
            // other is decoded once per snapshot covering it.
            for id in 0..BATCHES as u64 {
                let covering = (id as usize..BATCHES).take(WINDOW).count();
                assert_eq!(
                    shadow.copies_of(id),
                    if resident { 1 } else { covering },
                    "{label} seed={seed}: copies of segment {id}"
                );
            }

            let mut order: Vec<usize> = (0..BATCHES).collect();
            Xorshift::new(seed).shuffle(&mut order);
            for idx in order {
                let (snap, copies) = held[idx].take().unwrap();
                drop(snap);
                shadow.release(&copies);
                shadow.check(&kept, &format!("{label} seed={seed} after drop {idx}"));
                // The snapshot object itself: reclaimed with its last Arc.
                assert!(
                    snapshot_probes[idx].upgrade().is_none(),
                    "{label} seed={seed}: snapshot {idx} outlived its drop"
                );
            }

            // The next ingest pops the oldest segment: its last reference
            // goes with it.
            m.ingest_batch(&batch(BATCHES as u64)).unwrap();
            let survivors: Vec<Decoded> = if resident {
                window[1..].to_vec()
            } else {
                Vec::new()
            };
            shadow.check(
                &survivors,
                &format!("{label} seed={seed} after final ingest"),
            );

            // Dropping the matrix releases the window itself: nothing left.
            drop(m);
            shadow.check(&[], &format!("{label} seed={seed} after matrix drop"));
        }
    }
}

/// Drops interleaved at random with further slides: the shadow model must
/// hold at every intermediate state, not just after a clean separation of
/// "all ingests, then all drops".
#[test]
fn interleaved_slides_and_drops_follow_the_shadow_model() {
    const BATCHES: u64 = 10;
    for (label, backend, budget, resident) in corners() {
        for seed in 1u64..=4 {
            let mut rng = Xorshift::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut m = matrix(backend.clone(), budget);
            let mut shadow = Shadow::default();
            let mut held: Vec<(Arc<EpochSnapshot>, Vec<Decoded>)> = Vec::new();
            // The copies the matrix keeps: the live window's, when resident.
            let mut kept: Vec<Decoded> = Vec::new();
            let mut next_id = 0u64;
            let mut step = 0usize;
            while next_id < BATCHES || !held.is_empty() {
                let ingest = next_id < BATCHES && (held.is_empty() || rng.below(2) == 0);
                if ingest {
                    m.ingest_batch(&batch(next_id)).unwrap();
                    next_id += 1;
                    let snap = m.snapshot_epoch().unwrap();
                    let copies = shadow.acquire(&snap);
                    if resident {
                        kept = copies.clone();
                    }
                    held.push((snap, copies));
                } else {
                    let idx = rng.below(held.len() as u64) as usize;
                    let (snap, copies) = held.swap_remove(idx);
                    drop(snap);
                    shadow.release(&copies);
                }
                shadow.check(&kept, &format!("{label} seed={seed} step {step}"));
                step += 1;
            }
            drop(m);
            shadow.check(&[], &format!("{label} seed={seed} at the end"));
        }
    }
}
