//! The disk backends' cache of decoded chunks, held at segment grain.
//!
//! A disk segment's decoded chunks are kept — as the one
//! `Arc<EpochSegment>` in the segment's slot — whole or not at all; there
//! is no finer unit.  [`Residency`] is the rule book of that cache and its
//! ledger: a resident segment is charged its [`EpochSegment::heap_bytes`]
//! against a byte budget, a segment is admitted only while the budget has
//! room for it (never by evicting another, never at budget 0), a released
//! segment takes its charge with it, and a budget shrink releases resident
//! segments oldest first until the rest fit.  The store decides *when* a
//! segment is offered (at its push, and at a read of a non-resident one)
//! and released (at its pop); see the `segment` module docs.

use std::sync::Arc;

use crate::segment::EpochSegment;

/// The byte budget resident disk segments are charged against, and the
/// read counters of the disk read path (idle on the memory backend).
#[derive(Default)]
pub(crate) struct Residency {
    budget: usize,
    /// [`EpochSegment::heap_bytes`] of the resident disk segments; never
    /// above `budget`.
    charged: usize,
    /// Segment runs read so far.
    pub(crate) runs_read: u64,
    /// Chunks served from resident disk segments so far.
    pub(crate) hits: u64,
}

impl Residency {
    /// The byte budget resident segments are charged against.
    pub(crate) fn budget(&self) -> usize {
        self.budget
    }

    /// Heap bytes of the resident segments.
    pub(crate) fn charged(&self) -> usize {
        self.charged
    }

    /// Whether a segment of `bytes` heap bytes would be admitted now.  A
    /// zero budget admits nothing, not even an empty segment.
    pub(crate) fn has_room(&self, bytes: usize) -> bool {
        self.budget > 0 && bytes <= self.budget - self.charged
    }

    /// Keeps `decoded` resident in `slot` if the budget has room for it;
    /// nothing is ever evicted to make room.
    pub(crate) fn offer(
        &mut self,
        slot: &mut Option<Arc<EpochSegment>>,
        decoded: &Arc<EpochSegment>,
    ) {
        let bytes = decoded.heap_bytes();
        if self.has_room(bytes) {
            self.charged += bytes;
            *slot = Some(Arc::clone(decoded));
        }
    }

    /// Drops the resident segment in `slot`, if any, and its charge,
    /// returning it.
    pub(crate) fn release(
        &mut self,
        slot: &mut Option<Arc<EpochSegment>>,
    ) -> Option<Arc<EpochSegment>> {
        let decoded = slot.take()?;
        self.charged -= decoded.heap_bytes();
        Some(decoded)
    }

    /// Re-budgets the cache.  A shrink below the charge releases the
    /// resident segments of `slots` (oldest first — the next to leave the
    /// window anyway) until the rest fit; `0` releases them all.
    pub(crate) fn set_budget<'a, I>(&mut self, budget: usize, slots: I)
    where
        I: IntoIterator<Item = &'a mut Option<Arc<EpochSegment>>>,
    {
        self.budget = budget;
        for slot in slots {
            if self.charged <= budget && budget > 0 {
                break;
            }
            self.release(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, VecDeque};

    use super::*;
    use crate::bitvec::BitVec;
    use crate::segment::tests::pop;
    use crate::segment::{decoded_bytes, SegmentedWindowStore, StorageBackend};

    /// The chunk every pushed row holds: `cols` bits, every third set.
    fn chunk(cols: usize) -> BitVec {
        BitVec::from_bools((0..cols).map(|c| c % 3 == 0))
    }

    /// A decoded segment of `rows` chunks (row ids `0..rows`) of `cols` bits.
    fn segment(rows: usize, cols: usize) -> Arc<EpochSegment> {
        let mut store = SegmentedWindowStore::open(StorageBackend::Memory).unwrap();
        let chunk = chunk(cols);
        store
            .push_segment(cols, (0..rows).map(|row| (row, &chunk)))
            .unwrap();
        store.epoch_segment(0).unwrap()
    }

    fn residency(budget: usize) -> Residency {
        let mut residency = Residency::default();
        residency.set_budget(budget, std::iter::empty());
        residency
    }

    /// A disk store under `budget` holding `segments` pushes of `rows` ×
    /// `cols` chunks.
    fn disk(budget: usize, segments: usize, rows: usize, cols: usize) -> SegmentedWindowStore {
        let mut store = SegmentedWindowStore::open(StorageBackend::DiskTemp).unwrap();
        store.set_cache_budget(budget);
        let chunk = chunk(cols);
        for _ in 0..segments {
            store
                .push_segment(cols, (0..rows).map(|row| (row, &chunk)))
                .unwrap();
        }
        store
    }

    /// `store`'s `rows` window rows, assembled.
    fn scan(store: &mut SegmentedWindowStore, rows: usize) -> Vec<BitVec> {
        let mut out = vec![BitVec::new(); rows];
        store.assemble_rows(&mut out).unwrap();
        out
    }

    /// `(resident hits, runs read)` so far.
    fn counters(store: &SegmentedWindowStore) -> (u64, u64) {
        (store.resident_hits(), store.runs_read())
    }

    #[test]
    fn get_after_insert_hits_and_counts() {
        // A push writes through: the segment it just wrote is resident, so
        // every read of it serves its chunks and reads no run.
        let mut store = disk(usize::MAX, 1, 4, 64);
        assert_eq!(store.resident_uids(), [0]);
        let decoded = store.epoch_segment(0).unwrap();
        assert_eq!(counters(&store), (4, 0));
        assert_eq!(scan(&mut store, 4), vec![chunk(64); 4]);
        assert_eq!(counters(&store), (8, 0));
        assert_eq!(store.residency().charged(), decoded.heap_bytes());
        // A read of a segment that was not resident reads its run once and
        // admits it; the next read hits.
        store.set_cache_budget(0);
        store.set_cache_budget(usize::MAX);
        store.epoch_segment(0).unwrap();
        assert_eq!(counters(&store), (8, 1));
        store.epoch_segment(0).unwrap();
        assert_eq!(counters(&store), (12, 1));
    }

    #[test]
    fn zero_budget_disables_the_cache() {
        let mut residency = residency(0);
        let empty = segment(0, 64);
        assert!(!residency.has_room(0), "not even an empty segment");
        let mut slot = None;
        residency.offer(&mut slot, &empty);
        assert!(slot.is_none());
        assert_eq!(residency.charged(), 0);
        // A budget-0 store reads a run for every segment of every read and
        // keeps none of them: the reads are served byte for byte.
        let mut store = disk(0, 2, 4, 64);
        let expected: Vec<BitVec> = (0..4)
            .map(|_| BitVec::from_bools((0..128).map(|c| c % 64 % 3 == 0)))
            .collect();
        for pass in 1..=2 {
            assert_eq!(scan(&mut store, 4), expected);
            assert_eq!(counters(&store), (0, 2 * pass));
        }
        store.epoch_segment(1).unwrap();
        assert_eq!(counters(&store), (0, 5));
        assert!(store.resident_uids().is_empty());
        assert_eq!(store.residency().charged(), 0);
    }

    #[test]
    fn eviction_keeps_the_budget() {
        // Admission never overshoots: past the fourth segment every offer is
        // refused, and nothing is evicted to make room for it.
        let unit = segment(3, 64).heap_bytes();
        let mut residency = residency(4 * unit);
        let mut slots: Vec<Option<Arc<EpochSegment>>> = vec![None; 6];
        for slot in &mut slots {
            residency.offer(slot, &segment(3, 64));
            assert!(residency.charged() <= residency.budget());
        }
        let resident = |slots: &[Option<Arc<EpochSegment>>]| -> Vec<usize> {
            (0..slots.len()).filter(|&at| slots[at].is_some()).collect()
        };
        assert_eq!(resident(&slots), [0, 1, 2, 3]);
        // A shrink is what evicts: oldest first, down to the new budget.
        residency.set_budget(2 * unit + unit / 2, slots.iter_mut());
        assert_eq!(resident(&slots), [2, 3]);
        assert_eq!(residency.charged(), 2 * unit);
        // Slots already empty are passed over.
        residency.set_budget(unit, slots.iter_mut());
        assert_eq!(resident(&slots), [3]);
        assert_eq!(residency.charged(), unit);
        // The same at the store: a shrink drops its oldest resident segments.
        let mut store = disk(4 * unit, 5, 3, 64);
        assert_eq!(store.resident_uids(), [0, 1, 2, 3]);
        store.set_cache_budget(2 * unit);
        assert_eq!(store.resident_uids(), [2, 3]);
        assert_eq!(store.residency().charged(), 2 * unit);
    }

    #[test]
    fn a_refused_admission_changes_nothing() {
        let unit = segment(3, 64).heap_bytes();
        let mut residency = residency(unit + unit / 2);
        let (a, b) = (segment(3, 64), segment(3, 64));
        let (mut slot_a, mut slot_b) = (None, None);
        residency.offer(&mut slot_a, &a);
        residency.offer(&mut slot_b, &b);
        // `b` is refused: `a` stays, the charge is `a`'s, and `b` is not
        // retained anywhere.
        assert!(slot_a.as_ref().is_some_and(|kept| Arc::ptr_eq(kept, &a)));
        assert!(slot_b.is_none());
        assert_eq!(residency.charged(), unit);
        assert_eq!(Arc::strong_count(&b), 1);
        // Once `a` leaves, the room it frees admits `b`.
        residency.release(&mut slot_a);
        residency.offer(&mut slot_b, &b);
        assert!(slot_a.is_none() && slot_b.is_some());
        assert_eq!(residency.charged(), unit);
        // At the store: a read of a refused segment leaves the resident set
        // and the charge as they were.
        let mut store = disk(unit + unit / 2, 2, 3, 64);
        assert_eq!(store.resident_uids(), [0]);
        store.epoch_segment(1).unwrap();
        assert_eq!(store.resident_uids(), [0]);
        assert_eq!(store.residency().charged(), unit);
    }

    #[test]
    fn a_cyclic_scan_larger_than_the_budget_keeps_hitting_what_fits() {
        // The production access pattern: the whole window scanned in the
        // same order every pass, here four segments under a two-segment
        // budget.  Evict-to-admit would throw out exactly what the next pass
        // needs; admit-if-room keeps serving the two that fitted first.
        let unit = segment(3, 64).heap_bytes();
        let mut store = disk(2 * unit, 4, 3, 64);
        let mut twin = disk(0, 4, 3, 64);
        let expected = scan(&mut twin, 3);
        for pass in 1..=3 {
            assert_eq!(scan(&mut store, 3), expected, "pass {pass}");
            assert_eq!(counters(&store), (6 * pass, 2 * pass), "pass {pass}");
            assert_eq!(store.resident_uids(), [0, 1], "pass {pass}");
        }
    }

    #[test]
    fn invalidate_segment_reclaims_its_bytes() {
        let unit = segment(3, 64).heap_bytes();
        let mut store = disk(2 * unit, 2, 3, 64);
        assert_eq!(store.residency().charged(), 2 * unit);
        // An eviction takes its segment's charge with it, and a slide evicts
        // before it offers the entering segment: the room freed admits it.
        pop(&mut store).unwrap();
        assert_eq!(store.resident_uids(), [1]);
        assert_eq!(store.residency().charged(), unit);
        let chunk = chunk(64);
        let push = |store: &mut SegmentedWindowStore| {
            store
                .push_segment(64, (0..3).map(|row| (row, &chunk)))
                .unwrap();
        };
        push(&mut store);
        assert_eq!(store.resident_uids(), [1, 2]);
        assert_eq!(store.residency().charged(), 2 * unit);
        // An eviction whose record is not handed back releases the same way.
        store.evict().unwrap();
        assert_eq!(store.resident_uids(), [2]);
        assert_eq!(store.residency().charged(), unit);
        // A pop of a segment that was never resident frees nothing.
        let mut store = disk(unit, 1, 10, 64);
        push(&mut store);
        assert_eq!(store.resident_uids(), [1]);
        pop(&mut store).unwrap();
        assert_eq!(store.resident_uids(), [1]);
        assert_eq!(store.residency().charged(), unit);
    }

    #[test]
    fn oversized_chunks_are_not_admitted() {
        // A segment larger than the whole budget is never admitted — not at
        // its push, not at any read — and takes no room from the ones that
        // fit.
        let unit = segment(3, 64).heap_bytes();
        let residency = residency(unit);
        assert!(!residency.has_room(unit + 1));
        let mut store = disk(unit, 1, 10, 64);
        for reads in 1..=2 {
            store.epoch_segment(0).unwrap();
            assert_eq!(counters(&store), (0, reads));
        }
        assert!(store.resident_uids().is_empty());
        assert_eq!(store.residency().charged(), 0);
        let chunk = chunk(64);
        store
            .push_segment(64, (0..3).map(|row| (row, &chunk)))
            .unwrap();
        assert_eq!(store.resident_uids(), [1]);
        assert_eq!(store.residency().charged(), unit);
    }

    #[test]
    fn charge_follows_the_stored_clone_not_the_scratch_capacity() {
        // Chunks pushed with spare capacity are charged what the resident
        // segment holds — its chunks' words — not what the caller's buffers
        // had reserved.
        let (rows, cols) = (4, 64);
        let mut spare = BitVec::from_bools((0..cols + 1000).map(|c| c % 3 == 0));
        spare.resize(cols);
        assert!(spare.heap_bytes() > chunk(cols).heap_bytes());
        let mut store = disk(usize::MAX, 0, rows, cols);
        store
            .push_segment(cols, (0..rows).map(|row| (row, &spare)))
            .unwrap();
        let tight = disk(usize::MAX, 1, rows, cols);
        let charge = store.residency().charged();
        assert_eq!(charge, decoded_bytes(rows, cols));
        assert_eq!(charge, tight.residency().charged());
        assert_eq!(charge, store.epoch_segment(0).unwrap().heap_bytes());
        // Decoded from its run instead, the segment is charged the same.
        store.set_cache_budget(0);
        store.set_cache_budget(usize::MAX);
        store.epoch_segment(0).unwrap();
        assert_eq!(counters(&store).1, 1);
        assert_eq!(store.residency().charged(), charge);
    }

    #[test]
    fn set_budget_zero_clears_everything() {
        let mut store = disk(usize::MAX, 3, 4, 64);
        let twin = disk(0, 3, 4, 64);
        assert_eq!(store.resident_uids(), [0, 1, 2]);
        store.set_cache_budget(0);
        assert!(store.resident_uids().is_empty());
        assert_eq!(store.residency().charged(), 0);
        assert_eq!(store.resident_bytes(), twin.resident_bytes());
        // And nothing is admitted afterwards: every read reads its run.
        for reads in 1..=2 {
            store.epoch_segment(0).unwrap();
            assert_eq!(counters(&store), (0, reads));
        }
        assert!(store.resident_uids().is_empty());
    }

    /// Random pushes, pops, re-budgets and reads of every kind against a
    /// shadow model of the residency rules and a budget-0 twin.  A segment
    /// is admitted, at its push or at a read, only if the budget has room
    /// for its decoded words — never by evicting, never at budget 0, never
    /// when it alone outgrows the budget, and not by the spare capacity of
    /// the chunks it was pushed from; a pop releases its charge, a shrink
    /// drops the oldest until the rest fit.  After every operation the
    /// resident set is the one the model predicts, the charge is its heap
    /// bytes and within the budget, every read returns the twin's bytes and
    /// counts the hits and run reads the model predicts, and a repeated
    /// scan serves exactly what the first left resident.
    #[test]
    fn shadow_model_invariants_hold_under_randomized_ops() {
        let mut rng = 0x853c49e6748fea9bu64;
        let mut next = move |bound: usize| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as usize % bound.max(1)
        };
        const ROWS: usize = 10;
        let unit = decoded_bytes(3, 64);
        let mut store = SegmentedWindowStore::open(StorageBackend::DiskTemp).unwrap();
        let mut twin = SegmentedWindowStore::open(StorageBackend::DiskTemp).unwrap();
        store.set_cache_budget(4 * unit);
        // The model: per live segment, oldest first, (uid, charge, chunks,
        // resident); and the budget.
        let mut model: VecDeque<(u64, usize, u64, bool)> = VecDeque::new();
        let mut budget = 4 * unit;
        let fits = |model: &VecDeque<(u64, usize, u64, bool)>, budget: usize, bytes: usize| {
            let charged: usize = model.iter().filter(|s| s.3).map(|s| s.1).sum();
            budget > 0 && charged + bytes <= budget
        };
        let (mut refused, mut oversized, mut shrinks, mut streamed, mut served) = (0, 0, 0, 0, 0);
        for step in 0..3000 {
            match next(100) {
                0..=29 => {
                    let cols = 1 + next(130);
                    let mut chunks: BTreeMap<usize, BitVec> = BTreeMap::new();
                    for _ in 0..next(6) {
                        // Spare capacity past the chunk's words.
                        let mut chunk = BitVec::from_bools((0..cols + 200).map(|_| next(2) == 1));
                        chunk.resize(cols);
                        chunks.insert(next(ROWS), chunk);
                    }
                    for s in [&mut store, &mut twin] {
                        s.push_segment(cols, chunks.iter().map(|(id, c)| (*id, c)))
                            .unwrap();
                    }
                    let bytes = decoded_bytes(chunks.len(), cols);
                    let admitted = fits(&model, budget, bytes);
                    refused += u64::from(!admitted);
                    oversized += u64::from(budget > 0 && bytes > budget);
                    let uid = store.next_segment_id() - 1;
                    model.push_back((uid, bytes, chunks.len() as u64, admitted));
                }
                30..=44 => {
                    if !model.is_empty() {
                        assert_eq!(pop(&mut store).unwrap(), pop(&mut twin).unwrap());
                        model.pop_front();
                    }
                }
                45..=54 => {
                    budget = [0, unit, 2 * unit, 4 * unit, 8 * unit, usize::MAX][next(6)];
                    store.set_cache_budget(budget);
                    let mut charged: usize = model.iter().filter(|s| s.3).map(|s| s.1).sum();
                    shrinks += u64::from(charged > budget);
                    for segment in model.iter_mut() {
                        if charged <= budget && budget > 0 {
                            break;
                        }
                        if segment.3 {
                            segment.3 = false;
                            charged -= segment.1;
                        }
                    }
                }
                55..=79 => {
                    // A scan, then the same scan again: the second admits
                    // nothing more and serves what the first left resident.
                    let expected = scan(&mut twin, ROWS);
                    for pass in 0..2 {
                        let (hits, reads) = counters(&store);
                        let (mut want_hits, mut want_reads) = (0, 0);
                        for at in 0..model.len() {
                            if model[at].3 {
                                want_hits += model[at].2;
                            } else {
                                want_reads += 1;
                                if fits(&model, budget, model[at].1) {
                                    model[at].3 = true;
                                } else {
                                    streamed += 1;
                                }
                            }
                        }
                        assert_eq!(scan(&mut store, ROWS), expected, "step {step}, pass {pass}");
                        assert_eq!(
                            (store.resident_hits() - hits, store.runs_read() - reads),
                            (want_hits, want_reads),
                            "step {step}, pass {pass}"
                        );
                        served += want_hits;
                    }
                }
                _ => {
                    // One segment read whole — as a snapshot takes it, or as
                    // a column read reaches the segment owning a column.
                    if model.is_empty() {
                        continue;
                    }
                    let seg = if next(2) == 0 {
                        next(model.len())
                    } else {
                        let (seg, _) = store.locate_column(next(store.num_cols())).unwrap();
                        seg
                    };
                    let (hits, reads) = counters(&store);
                    let got = store.epoch_segment(seg).unwrap();
                    let want = twin.epoch_segment(seg).unwrap();
                    assert!(got.rows().eq(want.rows()), "step {step}, segment {seg}");
                    assert_eq!((got.uid(), got.cols()), (want.uid(), want.cols()));
                    let served = if model[seg].3 {
                        (model[seg].2, 0)
                    } else {
                        (0, 1)
                    };
                    assert_eq!(
                        (store.resident_hits() - hits, store.runs_read() - reads),
                        served,
                        "step {step}, segment {seg}"
                    );
                    if !model[seg].3 && fits(&model, budget, model[seg].1) {
                        model[seg].3 = true;
                    }
                }
            }
            let predicted: Vec<u64> = model.iter().filter(|s| s.3).map(|s| s.0).collect();
            assert_eq!(store.resident_uids(), predicted, "step {step}");
            assert!(twin.resident_uids().is_empty());
            let heap: usize = (0..store.num_segments())
                .filter(|&seg| model[seg].3)
                .map(|seg| store.epoch_segment(seg).unwrap().heap_bytes())
                .sum();
            let charged = store.residency().charged();
            assert_eq!(charged, heap, "step {step}: resident heap bytes");
            assert!(charged <= budget, "step {step}: {charged} over {budget}");
        }
        // The sequence must actually have exercised the interesting paths.
        assert!(refused > 0 && oversized > 0 && shrinks > 0 && streamed > 0 && served > 0);
    }
}
