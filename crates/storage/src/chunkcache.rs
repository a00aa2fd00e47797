//! A budgeted cache of decoded row chunks over the disk-backed window store.
//!
//! The disk backends of [`crate::SegmentedWindowStore`] keep every segment's
//! row chunks serialised in a paged file; before this cache, *every* read of
//! a chunk paid a page fetch plus a deserialisation, so assembling the whole
//! window once per mine call cost O(window) page reads no matter how little
//! the window had changed.  [`ChunkCache`] keeps decoded chunks in memory up
//! to an explicit byte budget.  The budget buys page reads, never assembly:
//! a hit saves the fetch and the decode, and the reader still copies the
//! chunk into the flat row it is building.
//!
//! * **Keying.**  Entries are keyed by `(segment uid, row id)`.  Segments are
//!   immutable once pushed, so a cached chunk can never go stale.
//! * **Admit-if-room.**  [`ChunkCache::insert`] charges each entry its
//!   decoded heap size plus bookkeeping overhead and stores it only while
//!   `used + charge <= budget`; it never evicts to make room.  The one
//!   production access pattern is a full cyclic scan of the window in row
//!   order, and on a cyclic scan larger than the budget evict-to-admit throws
//!   out exactly the entries the next pass would have hit (measured: 0.000
//!   hit ratio) — whereas keeping whatever fitted first keeps hitting it on
//!   every pass.  A budget of `0` disables the cache entirely, reproducing
//!   the uncached read path byte for byte.
//! * **Two exits.**  An entry leaves when its segment leaves the window
//!   ([`ChunkCache::invalidate_segment`] — so every entry's lifetime is
//!   bounded by the window length in slides, and the room it frees is what
//!   admits the entering segment's chunks), or when
//!   [`ChunkCache::set_budget`] shrinks the budget below the bytes in use,
//!   which evicts oldest-segment-first until the cache fits.
//! * **Counters.**  Hits, misses, insertions, evictions and invalidations
//!   are tallied in [`ChunkCacheStats`], so the read-amplification tables of
//!   the benchmark harness report measured cache behaviour, not a model.
//!
//! The cache fills from both sides of the store.  **Write-through:**
//! [`crate::SegmentedWindowStore::push_segment`] offers every chunk it has
//! just written (same key, same charge, same admit-if-room rule), because
//! the mine that follows an ingest would otherwise fetch, checksum and decode
//! pages whose contents the ingest still held decoded.  **On a read miss**
//! the reader offers what it decoded.  A slide pops before it pushes, so the
//! room the leaving segment frees goes to the entering one: with a budget
//! covering the window a steady-state mine reads no page at all, and with a
//! smaller one it reads exactly the chunks that never fitted, the same ones
//! on every pass.  A cached chunk is the value that was written; the on-disk
//! copy is CRC-verified whenever it — rather than the cache — is what gets
//! read.

use std::collections::BTreeMap;

use crate::bitvec::BitVec;

/// Cumulative counters of a [`ChunkCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkCacheStats {
    /// Chunk reads served from the cache (no page fetch, no decode).
    pub hits: u64,
    /// Chunk reads that had to go to the paged file.
    pub misses: u64,
    /// Decoded chunks admitted into the cache.
    pub insertions: u64,
    /// Entries evicted by a budget shrink ([`ChunkCache::set_budget`]).
    pub evictions: u64,
    /// Entries removed because their segment left the window.
    pub invalidations: u64,
}

struct CacheEntry {
    chunk: BitVec,
    /// Budget charge of this entry (decoded heap bytes + overhead).
    bytes: usize,
}

/// A budgeted `(segment uid, row id) → decoded chunk` map with admit-if-room
/// admission.  See the module docs for the design.
pub struct ChunkCache {
    budget_bytes: usize,
    used_bytes: usize,
    /// Segment uid → row id → entry.  Two levels so a window slide can drop
    /// one segment's entries without scanning the whole cache, and ordered so
    /// a budget shrink evicts the oldest segment (smallest uid) first.
    entries: BTreeMap<u64, BTreeMap<usize, CacheEntry>>,
    stats: ChunkCacheStats,
}

impl ChunkCache {
    /// Approximate per-entry bookkeeping charge on top of the decoded chunk's
    /// heap bytes (the map nodes).
    const ENTRY_OVERHEAD: usize =
        std::mem::size_of::<CacheEntry>() + 4 * std::mem::size_of::<(u64, usize)>();

    /// Creates a cache with the given byte budget (`0` disables caching).
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            budget_bytes,
            used_bytes: 0,
            entries: BTreeMap::new(),
            stats: ChunkCacheStats::default(),
        }
    }

    /// Returns `true` if the cache admits entries (non-zero budget).
    pub fn is_enabled(&self) -> bool {
        self.budget_bytes > 0
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Bytes currently charged against the budget.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.values().map(BTreeMap::len).sum()
    }

    /// Returns `true` if no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.values().all(BTreeMap::is_empty)
    }

    /// The cumulative hit/miss/eviction counters.
    pub fn stats(&self) -> ChunkCacheStats {
        self.stats
    }

    /// Re-budgets the cache.  A shrink below the bytes in use evicts
    /// oldest-segment-first — those entries are the next to be invalidated
    /// anyway — until the cache fits; `0` clears it.
    pub fn set_budget(&mut self, budget_bytes: usize) {
        self.budget_bytes = budget_bytes;
        while self.used_bytes > budget_bytes {
            let Some(mut oldest) = self.entries.first_entry() else {
                debug_assert!(false, "bytes charged with no entry to evict");
                return;
            };
            if let Some((_, entry)) = oldest.get_mut().pop_first() {
                self.used_bytes -= entry.bytes;
                self.stats.evictions += 1;
            }
            if oldest.get().is_empty() {
                oldest.remove();
            }
        }
    }

    /// Looks up the chunk of `(seg, row)`.
    ///
    /// Callers consult the cache only for rows the segment is known to hold
    /// (absence is decided by the store's in-memory index), so every miss
    /// recorded here corresponds to a real page fetch.
    pub fn get(&mut self, seg: u64, row: usize) -> Option<&BitVec> {
        if !self.is_enabled() {
            return None;
        }
        match self.entries.get(&seg).and_then(|m| m.get(&row)) {
            Some(entry) => {
                self.stats.hits += 1;
                Some(&entry.chunk)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Admits a chunk — freshly decoded by a read miss, or just written by a
    /// segment push — if the budget has room for it, and otherwise does
    /// nothing — nothing is evicted to make room, and a
    /// refused chunk is not even cloned, so a full cache costs a miss no
    /// allocation.  Re-inserting a live key swaps its charge.
    pub fn insert(&mut self, seg: u64, row: usize, chunk: &BitVec) {
        // Charge what the stored clone will occupy, not the caller's chunk:
        // callers pass long-lived scratch buffers whose capacity stays at the
        // widest row they ever decoded, which would inflate every later
        // charge (and could wrongly refuse admission outright).
        let bytes = std::mem::size_of_val(chunk.as_words()) + Self::ENTRY_OVERHEAD;
        let replaced = self
            .entries
            .get(&seg)
            .and_then(|m| m.get(&row))
            .map_or(0, |entry| entry.bytes);
        if self.used_bytes - replaced + bytes > self.budget_bytes {
            return;
        }
        let entry = CacheEntry {
            chunk: chunk.clone(),
            bytes,
        };
        self.entries.entry(seg).or_default().insert(row, entry);
        self.used_bytes = self.used_bytes - replaced + bytes;
        self.stats.insertions += 1;
    }

    /// Drops every entry of segment `seg` (the segment left the window).
    pub fn invalidate_segment(&mut self, seg: u64) {
        if let Some(rows) = self.entries.remove(&seg) {
            for entry in rows.values() {
                self.used_bytes -= entry.bytes;
                self.stats.invalidations += 1;
            }
        }
    }

    /// Checks the structural invariants the shadow-model tests rely on: the
    /// byte charge matches the live entries and stays within the budget.
    /// Returns a description of the first violation, if any.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        let used: usize = self
            .entries
            .values()
            .flat_map(BTreeMap::values)
            .map(|entry| entry.bytes)
            .sum();
        if used != self.used_bytes {
            return Err(format!(
                "used_bytes drifted: counter {} vs live {}",
                self.used_bytes, used
            ));
        }
        if self.used_bytes > self.budget_bytes {
            return Err(format!(
                "used bytes {} exceed the budget {}",
                self.used_bytes, self.budget_bytes
            ));
        }
        Ok(())
    }
}

impl std::fmt::Debug for ChunkCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkCache")
            .field("budget_bytes", &self.budget_bytes)
            .field("used_bytes", &self.used_bytes)
            .field("entries", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(bits: usize) -> BitVec {
        let mut c = BitVec::zeros(bits);
        if bits > 0 {
            c.set(0, true);
        }
        c
    }

    /// Budget that fits exactly `n` entries of `bits`-wide chunks.
    fn budget_for(n: usize, bits: usize) -> usize {
        n * (chunk(bits).heap_bytes() + ChunkCache::ENTRY_OVERHEAD)
    }

    #[test]
    fn get_after_insert_hits_and_counts() {
        let mut cache = ChunkCache::new(usize::MAX);
        assert!(cache.get(0, 1).is_none(), "cold cache misses");
        cache.insert(0, 1, &chunk(100));
        assert_eq!(cache.get(0, 1).unwrap().len(), 100);
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    }

    #[test]
    fn zero_budget_disables_the_cache() {
        let mut cache = ChunkCache::new(0);
        assert!(!cache.is_enabled());
        cache.insert(0, 1, &chunk(10));
        assert!(cache.get(0, 1).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
        // Disabled lookups are not counted: there is no cache to miss.
        assert_eq!(cache.stats(), ChunkCacheStats::default());
    }

    #[test]
    fn eviction_keeps_the_budget() {
        // Admission never overshoots: past the third entry every insert is
        // refused, and nothing is evicted to make room for it.
        let budget = budget_for(3, 64);
        let mut cache = ChunkCache::new(budget);
        for seg in 0..10 {
            cache.insert(seg, 0, &chunk(64));
            assert!(cache.used_bytes() <= budget, "budget must hold");
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 0);
        // A shrink is what evicts: oldest segment first, down to the new
        // budget.
        cache.set_budget(budget_for(1, 64));
        assert!(cache.used_bytes() <= cache.budget_bytes());
        assert_eq!(cache.stats().evictions, 2);
        assert!(cache.get(0, 0).is_none(), "the oldest segment goes first");
        assert!(cache.get(1, 0).is_none());
        assert!(cache.get(2, 0).is_some(), "the newest resident survives");
        cache.check_invariants().unwrap();
    }

    #[test]
    fn a_refused_admission_changes_nothing() {
        let mut cache = ChunkCache::new(budget_for(2, 64));
        cache.insert(0, 0, &chunk(64));
        cache.insert(0, 1, &chunk(64));
        let (used, len, stats) = (cache.used_bytes(), cache.len(), cache.stats());
        cache.insert(0, 2, &chunk(64));
        cache.insert(1, 0, &chunk(64));
        // Growing a live key past the budget is refused like a new key; the
        // smaller chunk it already holds stays.
        cache.insert(0, 1, &chunk(100_000));
        assert_eq!(cache.used_bytes(), used);
        assert_eq!(cache.len(), len);
        assert_eq!(cache.stats(), stats, "no insertion, no eviction");
        assert_eq!(cache.get(0, 1).unwrap().len(), 64);
        assert!(cache.get(0, 2).is_none());
        cache.check_invariants().unwrap();
    }

    #[test]
    fn a_cyclic_scan_larger_than_the_budget_keeps_hitting_what_fits() {
        // The one production access pattern: every pass reads every key in
        // the same order, inserting on a miss.  With twice the budget's worth
        // of keys, whatever the first pass admitted is hit on every later
        // pass — evicting to admit would hit nothing, ever.
        let budget = budget_for(8, 64);
        let mut cache = ChunkCache::new(budget);
        for pass in 0..5 {
            let before = cache.stats().hits;
            for key in 0..16 {
                if cache.get(0, key).is_none() {
                    cache.insert(0, key, &chunk(64));
                }
                assert!(cache.used_bytes() <= budget);
            }
            let hits = cache.stats().hits - before;
            if pass == 0 {
                assert_eq!(hits, 0, "cold pass");
            } else {
                assert_eq!(hits, cache.len() as u64, "pass {pass}");
            }
        }
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn invalidate_segment_reclaims_its_bytes() {
        let mut cache = ChunkCache::new(usize::MAX);
        cache.insert(3, 0, &chunk(64));
        cache.insert(3, 1, &chunk(64));
        cache.insert(4, 0, &chunk(64));
        let before = cache.used_bytes();
        cache.invalidate_segment(3);
        assert_eq!(cache.stats().invalidations, 2);
        assert!(cache.used_bytes() < before);
        assert!(cache.get(3, 0).is_none());
        assert!(cache.get(4, 0).is_some(), "other segments are untouched");
        // The room it freed is what admits the next segment's chunks.
        cache.set_budget(budget_for(2, 64));
        cache.insert(5, 0, &chunk(64));
        assert!(cache.get(5, 0).is_some());
        assert!(cache.used_bytes() <= cache.budget_bytes());
    }

    #[test]
    fn oversized_chunks_are_not_admitted() {
        let mut cache = ChunkCache::new(64);
        cache.insert(0, 0, &chunk(100_000));
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn charge_follows_the_stored_clone_not_the_scratch_capacity() {
        // Callers pass long-lived scratch buffers whose capacity stays at
        // the widest chunk ever decoded; the budget must charge the stored
        // clone, or one wide row would poison every later admission.
        let mut scratch = chunk(100_000);
        scratch.resize(64); // len 64 bits, capacity still ~100k bits
        let mut cache = ChunkCache::new(budget_for(2, 64));
        cache.insert(0, 0, &scratch);
        assert_eq!(cache.len(), 1, "small chunk must be admitted");
        assert!(
            cache.used_bytes() <= budget_for(1, 64),
            "charge reflects the 64-bit payload, not the scratch capacity"
        );
        assert_eq!(cache.get(0, 0).unwrap().len(), 64);
    }

    #[test]
    fn reinserting_a_key_swaps_the_charge() {
        let mut cache = ChunkCache::new(usize::MAX);
        cache.insert(0, 0, &chunk(64));
        let first = cache.used_bytes();
        cache.insert(0, 0, &chunk(128));
        assert_eq!(cache.len(), 1);
        assert!(cache.used_bytes() > first);
        cache.insert(0, 0, &chunk(64));
        assert_eq!(cache.used_bytes(), first, "charge follows the live chunk");
    }

    #[test]
    fn set_budget_zero_clears_everything() {
        let mut cache = ChunkCache::new(usize::MAX);
        cache.insert(0, 0, &chunk(64));
        cache.set_budget(0);
        assert!(cache.is_empty());
        assert!(!cache.is_enabled());
    }

    /// Satellite regression: repeated slide-invalidate + re-budget cycles
    /// (including `set_budget(0)`) over randomized op sequences must never
    /// drift `used_bytes` or overshoot the budget.  The shadow model tracks
    /// the chunk each key holds — an insert lands exactly when it fits, a
    /// shrink only ever removes — and the structural counters are checked by
    /// `check_invariants` after every op.
    #[test]
    fn shadow_model_invariants_hold_under_randomized_ops() {
        let mut rng = 0x853c49e6748fea9bu64;
        let mut next = move |bound: usize| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as usize % bound.max(1)
        };
        let mut cache = ChunkCache::new(budget_for(4, 64));
        // Chunk length per resident key (uids never reused, so a plain map
        // keyed by (seg, row) is enough).
        let mut model: BTreeMap<(u64, usize), usize> = BTreeMap::new();
        let mut live_segs: Vec<u64> = Vec::new();
        let mut next_seg = 0u64;
        let (mut refused, mut shrinks) = (0u64, 0u64);
        for step in 0..4000 {
            match next(100) {
                0..=49 => {
                    // Insert into a live or fresh segment.
                    let seg = if live_segs.is_empty() || next(4) == 0 {
                        live_segs.push(next_seg);
                        next_seg += 1;
                        *live_segs.last().unwrap()
                    } else {
                        live_segs[next(live_segs.len())]
                    };
                    let row = next(6);
                    let bits = 32 + next(3) * 32;
                    let (used, len, insertions) =
                        (cache.used_bytes(), cache.len(), cache.stats().insertions);
                    let replaced = model
                        .get(&(seg, row))
                        .map_or(0, |&bits| budget_for(1, bits));
                    let fits = used - replaced + budget_for(1, bits) <= cache.budget_bytes();
                    cache.insert(seg, row, &chunk(bits));
                    if fits {
                        model.insert((seg, row), bits);
                        assert_eq!(cache.stats().insertions, insertions + 1, "step {step}");
                    } else {
                        refused += 1;
                        assert_eq!(
                            (cache.used_bytes(), cache.len(), cache.stats().insertions),
                            (used, len, insertions),
                            "step {step}: a refused admission must change nothing"
                        );
                    }
                }
                50..=69 => {
                    let seg = next(next_seg.max(1) as usize) as u64;
                    let row = next(6);
                    if let Some(found) = cache.get(seg, row) {
                        assert_eq!(
                            Some(&found.len()),
                            model.get(&(seg, row)),
                            "step {step}: cache served a chunk the model never stored"
                        );
                    }
                }
                70..=84 => {
                    // Slide: invalidate the oldest live segment.
                    if !live_segs.is_empty() {
                        let seg = live_segs.remove(0);
                        cache.invalidate_segment(seg);
                        model.retain(|&(s, _), _| s != seg);
                    }
                }
                _ => {
                    // Re-budget, including the disable-and-clear corner.  A
                    // shrink evicts whole keys, oldest segment first: what
                    // survives is a suffix of the model in key order.
                    let budget = [0, budget_for(1, 64), budget_for(4, 64), usize::MAX][next(4)];
                    let shrinking = budget < cache.used_bytes();
                    cache.set_budget(budget);
                    if shrinking {
                        shrinks += 1;
                        for _ in cache.len()..model.len() {
                            model.pop_first();
                        }
                    }
                }
            }
            cache
                .check_invariants()
                .unwrap_or_else(|violation| panic!("step {step}: {violation}"));
            assert_eq!(cache.len(), model.len(), "step {step}: model drifted");
            let charged: usize = model.values().map(|&bits| budget_for(1, bits)).sum();
            assert_eq!(cache.used_bytes(), charged, "step {step}: charge drifted");
        }
        // The sequence must actually have exercised the interesting paths.
        let stats = cache.stats();
        assert!(refused > 0 && shrinks > 0);
        assert!(stats.evictions > 0);
        assert!(stats.invalidations > 0);
        assert!(stats.hits > 0);
    }
}
