//! A compact growable bit vector tuned for the DSMatrix access pattern.
//!
//! Each DSMatrix row is one bit per window transaction; the vertical mining
//! algorithms (§3.4 and §4 of the paper) repeatedly intersect two rows and
//! count the surviving ones, and the window slide drops a prefix of columns
//! and appends new ones.  Those three operations — `and`, `count_ones`,
//! `drop_prefix`/`push` — are the hot path of the whole system.

mod kernel;

use std::fmt;

use kernel::{AndCount, AndInto, CountOnes};

const WORD_BITS: usize = 64;

/// Which instantiation of the word kernels under [`BitVec::and_count`],
/// [`BitVec::and_into`] and [`BitVec::count_ones`] this CPU runs:
/// `"avx512-vpopcntdq"`, `"popcnt"` or `"portable"`.
///
/// The kernels are written once, in portable Rust around `u64::count_ones`.
/// On the baseline x86-64 the workspace builds for that is *not* a `popcnt`
/// instruction (baseline x86-64 has none; LLVM emits SSE2 bit-slicing), so
/// on x86-64 the same bodies are also compiled with `POPCNT` and with
/// AVX-512 `VPOPCNTDQ` enabled, and the process runs the fastest one its CPU
/// reports.  Nothing selects a tier but the CPU; results are identical on
/// all of them.  Benchmark host blocks and `fsmd serve`'s start-up line
/// carry this name so numbers stay comparable across machines.
pub fn kernel_tier() -> &'static str {
    kernel::Tier::selected().name()
}

/// A growable vector of bits backed by `u64` words.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bit vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Creates a bit vector from an iterator of booleans.
    pub fn from_bools<I>(bits: I) -> Self
    where
        I: IntoIterator<Item = bool>,
    {
        let mut v = Self::new();
        for b in bits {
            v.push(b);
        }
        v
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector holds no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / WORD_BITS;
        let offset = self.len % WORD_BITS;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << offset;
        }
        self.len += 1;
    }

    /// Returns the bit at `index`, or `false` if `index` is out of range.
    ///
    /// Out-of-range reads returning `false` match the DSMatrix convention that
    /// a transaction simply does not contain an item it has no column bit for.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        if index >= self.len {
            return false;
        }
        let word = index / WORD_BITS;
        let offset = index % WORD_BITS;
        (self.words[word] >> offset) & 1 == 1
    }

    /// Sets the bit at `index`, growing the vector with zeros if needed.
    pub fn set(&mut self, index: usize, bit: bool) {
        if index >= self.len {
            self.resize(index + 1);
        }
        let word = index / WORD_BITS;
        let offset = index % WORD_BITS;
        if bit {
            self.words[word] |= 1u64 << offset;
        } else {
            self.words[word] &= !(1u64 << offset);
        }
    }

    /// Grows or shrinks the vector to exactly `len` bits, zero-filling new
    /// bits and clearing any bits beyond the new length.
    pub fn resize(&mut self, len: usize) {
        self.words.resize(len.div_ceil(WORD_BITS), 0);
        self.len = len;
        self.clear_tail();
    }

    /// Number of set bits — the row-sum / support count of §3.4.
    pub fn count_ones(&self) -> u64 {
        kernel::run(CountOnes(&self.words))
    }

    /// In-place intersection with `other` (`self &= other`).
    ///
    /// Bits beyond the shorter operand are treated as zero; the result length
    /// is the length of `self`.
    pub fn and_with(&mut self, other: &BitVec) {
        for (i, word) in self.words.iter_mut().enumerate() {
            *word &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// Returns the intersection `self & other` as a new vector.
    pub fn and(&self, other: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.and_with(other);
        out
    }

    /// Fused kernel: writes `self & other` into `out` (reusing its buffer)
    /// and returns the popcount of the result in the same pass.
    ///
    /// The result has the length of `self`, matching [`BitVec::and`].  This
    /// is the zero-allocation hot path of the vertical miners: `out` is a
    /// scratch buffer owned by the caller, so steady-state candidate
    /// extension performs no heap allocation at all.
    pub fn and_into(&self, other: &BitVec, out: &mut BitVec) -> u64 {
        // Resize without clearing: the kernel overwrites `[..overlap]`, so
        // only the words past it (none when `other` is as long) need zeroing.
        out.words.resize(self.words.len(), 0);
        out.len = self.len;
        let overlap = self.words.len().min(other.words.len());
        let (head, tail) = out.words.split_at_mut(overlap);
        tail.fill(0);
        kernel::run(AndInto(
            head,
            &self.words[..overlap],
            &other.words[..overlap],
        ))
    }

    /// Returns the union `self | other` as a new vector whose length is the
    /// maximum of the operand lengths.
    pub fn or(&self, other: &BitVec) -> BitVec {
        let (long, short) = if self.len >= other.len {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = long.clone();
        for (i, word) in short.words.iter().enumerate() {
            out.words[i] |= word;
        }
        out
    }

    /// Counts the set bits of `self & other` without materialising the result.
    pub fn and_count(&self, other: &BitVec) -> u64 {
        let overlap = self.words.len().min(other.words.len());
        kernel::run(AndCount(&self.words[..overlap], &other.words[..overlap]))
    }

    /// Drops the first `n` bits, shifting the remainder towards index 0.
    ///
    /// A general in-place prefix-drop primitive (word-by-word, reusing the
    /// existing buffer).  It implemented the window slide when rows were
    /// stored flat — "shifting all columns from Cols 4–6 to Cols 1–3" in the
    /// paper's Example 1 — before the segmented store made slides
    /// append/unlink operations; it is retained (and still benchmarked in
    /// `bitvec_kernels`) for consumers that maintain their own flat rows.
    pub fn drop_prefix(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        if n >= self.len {
            self.words.clear();
            self.len = 0;
            return;
        }
        let new_len = self.len - n;
        let word_shift = n / WORD_BITS;
        let bit_shift = n % WORD_BITS;
        let new_words = new_len.div_ceil(WORD_BITS);
        if bit_shift == 0 {
            self.words.copy_within(word_shift.., 0);
        } else {
            for i in 0..new_words {
                let lo = self.words[i + word_shift];
                let hi = self.words.get(i + word_shift + 1).copied().unwrap_or(0);
                self.words[i] = (lo >> bit_shift) | (hi << (WORD_BITS - bit_shift));
            }
        }
        self.words.truncate(new_words);
        self.len = new_len;
        self.clear_tail();
    }

    /// Appends every bit of `other` after the current contents, preserving
    /// order (`self = self ++ other`).
    ///
    /// This is the row-assembly primitive of the segmented window store: a
    /// row of the live window is the concatenation of its per-batch segments,
    /// and this routine splices one segment onto the row word-by-word (two
    /// shifts and an OR per word) instead of bit-by-bit.
    pub fn extend_from_bitvec(&mut self, other: &BitVec) {
        if other.len == 0 {
            return;
        }
        let shift = self.len % WORD_BITS;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
            self.len += other.len;
            return;
        }
        self.words.reserve(other.words.len());
        for &word in &other.words {
            // Low bits fill the free space of the current last word (which
            // exists: shift != 0 implies a non-empty vector); high bits
            // spill into a fresh word.
            if let Some(last) = self.words.last_mut() {
                *last |= word << shift;
            }
            self.words.push(word >> (WORD_BITS - shift));
        }
        self.len += other.len;
        self.words.truncate(self.len.div_ceil(WORD_BITS));
        self.clear_tail();
    }

    /// Clears every bit in `[start, end)` without changing the length.
    ///
    /// This is the lazy-eviction primitive of the incremental row cache: when
    /// the window slides, the evicted batch's bits are zeroed in place (word
    /// masks, no shifting) and the physical prefix is only compacted with
    /// [`BitVec::drop_prefix`] once enough dead columns have accumulated.
    pub fn clear_range(&mut self, start: usize, end: usize) {
        let end = end.min(self.len);
        if start >= end {
            return;
        }
        let first_word = start / WORD_BITS;
        let last_word = (end - 1) / WORD_BITS;
        let head_mask = !(u64::MAX << (start % WORD_BITS));
        let tail_bits = end % WORD_BITS;
        let tail_mask = if tail_bits == 0 {
            0
        } else {
            u64::MAX << tail_bits
        };
        if first_word == last_word {
            self.words[first_word] &= head_mask | tail_mask;
            return;
        }
        self.words[first_word] &= head_mask;
        for word in &mut self.words[first_word + 1..last_word] {
            *word = 0;
        }
        self.words[last_word] &= tail_mask;
    }

    /// The backing 64-bit words (little-endian within each word; bits past
    /// [`BitVec::len`] are always zero).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &word)| {
            let base = wi * WORD_BITS;
            let len = self.len;
            let mut w = word;
            std::iter::from_fn(move || {
                while w != 0 {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    let idx = base + bit;
                    if idx < len {
                        return Some(idx);
                    }
                }
                None
            })
        })
    }

    /// Serialises the vector into a compact byte representation (little-endian
    /// length header followed by the words).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.words.len() * 8);
        self.write_bytes(&mut out);
        out
    }

    /// Serialises into `out`, clearing and reusing its buffer (the
    /// allocation-free counterpart of [`BitVec::to_bytes`] used when the
    /// DSMatrix re-serialises every row on a window slide).
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(8 + self.words.len() * 8);
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        for word in &self.words {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }

    /// Reconstructs a vector from [`BitVec::to_bytes`] output.
    ///
    /// Returns `None` if the buffer is truncated or malformed.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut v = Self::new();
        v.read_bytes(bytes).then_some(v)
    }

    /// Deserialises [`BitVec::to_bytes`] output into `self`, reusing the
    /// existing word buffer (the allocation-free counterpart of
    /// [`BitVec::from_bytes`], and the read-side twin of
    /// [`BitVec::write_bytes`]).
    ///
    /// Returns `false` — leaving `self` empty — if the buffer is truncated
    /// or malformed.
    pub fn read_bytes(&mut self, bytes: &[u8]) -> bool {
        self.words.clear();
        self.len = 0;
        if bytes.len() < 8 {
            return false;
        }
        let Ok(header) = bytes[..8].try_into() else {
            return false;
        };
        let len = u64::from_le_bytes(header) as usize;
        let expected_words = len.div_ceil(WORD_BITS);
        let body = &bytes[8..];
        if body.len() != expected_words * 8 {
            return false;
        }
        self.words.extend(body.chunks_exact(8).map(|c| {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            u64::from_le_bytes(word)
        }));
        self.len = len;
        self.clear_tail();
        true
    }

    /// Heap bytes used by the word buffer (for memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Clears bits past `len` in the last word so that equality and popcounts
    /// never observe stale garbage.
    fn clear_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[")?;
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        write!(f, "]")
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Self::from_bools(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::kernel::Tier;
    use super::*;

    fn bv(pattern: &str) -> BitVec {
        BitVec::from_bools(pattern.chars().map(|c| c == '1'))
    }

    #[test]
    fn push_get_and_len() {
        let v = bv("101100");
        assert_eq!(v.len(), 6);
        assert!(v.get(0));
        assert!(!v.get(1));
        assert!(v.get(3));
        assert!(!v.get(100), "out of range reads are false");
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    fn set_grows_and_clears() {
        let mut v = BitVec::new();
        v.set(70, true);
        assert_eq!(v.len(), 71);
        assert!(v.get(70));
        v.set(70, false);
        assert!(!v.get(70));
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn intersection_matches_paper_example_5() {
        // Row a = 111110, Row c = 101111 ⇒ a∧c = 101110 with 4 ones.
        let a = bv("111110");
        let c = bv("101111");
        let ac = a.and(&c);
        assert_eq!(format!("{ac:?}"), "BitVec[101110]");
        assert_eq!(ac.count_ones(), 4);
        assert_eq!(a.and_count(&c), 4);
        // Row d = 110011 ⇒ a∧d = 110010 with 3 ones.
        let d = bv("110011");
        assert_eq!(a.and_count(&d), 3);
        // Row f = 110110 ⇒ a∧f = 110110 with 4 ones.
        let f = bv("110110");
        assert_eq!(a.and_count(&f), 4);
    }

    #[test]
    fn and_into_matches_and_and_reuses_the_buffer() {
        let a = bv("111110");
        let c = bv("101111");
        let mut scratch = BitVec::new();
        let count = a.and_into(&c, &mut scratch);
        assert_eq!(scratch, a.and(&c));
        assert_eq!(count, 4);
        // Second use reuses the buffer (and resizes correctly downwards).
        let short = bv("10");
        let count = short.and_into(&c, &mut scratch);
        assert_eq!(scratch, short.and(&c));
        assert_eq!(count, 1);
        assert_eq!(scratch.len(), 2);
        // Longer result than the buffer previously held.
        let long = bv(&"1".repeat(200));
        let count = long.and_into(&long.clone(), &mut scratch);
        assert_eq!(count, 200);
        assert_eq!(scratch.len(), 200);
    }

    /// Deterministic pseudo-random vector for kernel agreement tests.
    fn lcg_bits(seed: u64, len: usize) -> BitVec {
        let mut state = seed | 1;
        BitVec::from_bools((0..len).map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) & 1 == 1
        }))
    }

    #[test]
    fn unrolled_kernels_match_naive_references_across_lengths() {
        // Lengths straddle every unroll boundary: sub-word, one block,
        // block + tail, many blocks + tail.
        for (la, lb) in [(0, 64), (63, 65), (256, 256), (257, 510), (700, 383)] {
            let a = lcg_bits(la as u64 + 1, la);
            let b = lcg_bits(lb as u64 + 2, lb);
            let naive: u64 = (0..la.min(lb)).filter(|&i| a.get(i) && b.get(i)).count() as u64;
            assert_eq!(a.and_count(&b), naive, "and_count {la}x{lb}");
            let mut out = BitVec::new();
            assert_eq!(a.and_into(&b, &mut out), naive, "and_into {la}x{lb}");
            assert_eq!(out, a.and(&b));
        }
    }

    /// Checks every tier this CPU supports — each called directly, not just
    /// the selected one — against a per-word reference on equal-length
    /// slices.  `Portable` is always among them, so this is also "every tier
    /// equals the portable body".
    fn assert_tiers_match_reference(a: &[u64], b: &[u64]) {
        let ones = |words: &[u64]| words.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
        let masked: Vec<u64> = a.iter().zip(b).map(|(x, y)| x & y).collect();
        let words = a.len();
        for tier in Tier::supported() {
            let count = tier.run(AndCount(a, b));
            assert_eq!(count, ones(&masked), "{tier:?} and_count, {words} words");
            let mut dst = vec![u64::MAX; words];
            let count = tier.run(AndInto(&mut dst, a, b));
            assert_eq!(count, ones(&masked), "{tier:?} and_into, {words} words");
            assert_eq!(dst, masked, "{tier:?} and_into, {words} words");
            let count = tier.run(CountOnes(a));
            assert_eq!(count, ones(a), "{tier:?} count_ones, {words} words");
        }
    }

    #[test]
    fn every_supported_tier_matches_the_reference_at_every_length() {
        assert_eq!(Tier::supported().last().map(Tier::name), Some("portable"));
        assert_eq!(Tier::supported().next(), Some(Tier::selected()));
        assert_eq!(kernel_tier(), Tier::selected().name());
        // 0..=130 words covers every scalar and every 8-word vector tail on
        // both sides of the 32-word interleaved vector loop.
        let random = lcg_bits(7, 131 * 64);
        let other = lcg_bits(11, 131 * 64);
        for words in 0..=130 {
            let patterns: [(&[u64], &[u64]); 5] = [
                (&vec![0; words], &vec![u64::MAX; words]),
                (&vec![u64::MAX; words], &vec![u64::MAX; words]),
                (&vec![0xAAAA_AAAA_AAAA_AAAA; words], &vec![u64::MAX; words]),
                (
                    &vec![0xAAAA_AAAA_AAAA_AAAA; words],
                    &vec![0x5555_5555_5555_5555; words],
                ),
                (&random.words[..words], &other.words[131 - words..][..words]),
            ];
            for (a, b) in patterns {
                assert_tiers_match_reference(a, b);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn every_supported_tier_matches_the_reference_on_random_words(
            a in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..131),
            b in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..131),
        ) {
            let overlap = a.len().min(b.len());
            assert_tiers_match_reference(&a[..overlap], &b[..overlap]);
        }
    }

    #[test]
    fn and_into_sizes_and_zero_fills_a_dirty_buffer_for_unequal_operands() {
        // Word counts on both sides of each other and of the buffer's
        // previous contents (all ones, so a word left unwritten shows).
        for (la, lb, dirty) in [
            (0, 3, 5),
            (5, 2, 9),
            (2, 5, 9),
            (9, 9, 2),
            (70, 33, 130),
            (33, 70, 0),
        ] {
            // `a` ends mid-word (unless empty), `b` on a word boundary.
            let a = lcg_bits(la as u64 + 3, la * 64 - la.min(1) * 17);
            let b = lcg_bits(lb as u64 + 5, lb * 64);
            let mut out = BitVec::from_bools((0..dirty * 64).map(|_| true));
            let count = a.and_into(&b, &mut out);
            let naive = (0..a.len()).filter(|&i| a.get(i) && b.get(i)).count() as u64;
            assert_eq!(count, naive, "{la}x{lb} words into {dirty}");
            assert_eq!(out.len(), a.len());
            assert_eq!(out, a.and(&b), "{la}x{lb} words into {dirty}");
            assert!(out.words[la.min(lb)..].iter().all(|&w| w == 0));
            assert_eq!(a.and_count(&b), naive);
        }
    }

    #[test]
    fn and_with_handles_shorter_operand() {
        let mut a = bv("1111");
        let b = bv("10");
        a.and_with(&b);
        assert_eq!(format!("{a:?}"), "BitVec[1000]");
    }

    #[test]
    fn or_takes_longest_length() {
        let a = bv("101");
        let b = bv("01011");
        let o = a.or(&b);
        assert_eq!(format!("{o:?}"), "BitVec[11111]");
        assert_eq!(o.len(), 5);
        assert_eq!(o.count_ones(), 5);
    }

    #[test]
    fn drop_prefix_small() {
        // Window slide of Example 1: keep the last three columns.
        let mut row_a = bv("011111");
        row_a.drop_prefix(3);
        assert_eq!(format!("{row_a:?}"), "BitVec[111]");
        let mut row_b = bv("000001");
        row_b.drop_prefix(3);
        assert_eq!(format!("{row_b:?}"), "BitVec[001]");
    }

    #[test]
    fn drop_prefix_across_word_boundaries() {
        let mut v = BitVec::zeros(200);
        v.set(0, true);
        v.set(67, true);
        v.set(130, true);
        v.set(199, true);
        v.drop_prefix(65);
        assert_eq!(v.len(), 135);
        assert!(v.get(2)); // was 67
        assert!(v.get(65)); // was 130
        assert!(v.get(134)); // was 199
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    fn drop_prefix_edge_cases() {
        let mut v = bv("1011");
        v.drop_prefix(0);
        assert_eq!(v.len(), 4);
        v.drop_prefix(10);
        assert!(v.is_empty());
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn clear_range_matches_a_set_loop() {
        let cases = [
            (0usize, 0usize),
            (0, 3),
            (2, 6),
            (0, 64),
            (1, 64),
            (63, 65),
            (64, 128),
            (10, 150),
            (100, 100),
            (190, 400),
        ];
        for (start, end) in cases {
            let mut fast = BitVec::from_bools((0..200).map(|i| i % 3 != 0));
            let mut slow = fast.clone();
            fast.clear_range(start, end);
            for i in start..end.min(200) {
                slow.set(i, false);
            }
            assert_eq!(fast, slow, "range [{start}, {end})");
            assert_eq!(fast.len(), 200);
        }
    }

    #[test]
    fn iter_ones_yields_ascending_indices() {
        let mut v = BitVec::zeros(150);
        for idx in [0, 1, 63, 64, 127, 149] {
            v.set(idx, true);
        }
        let ones: Vec<usize> = v.iter_ones().collect();
        assert_eq!(ones, vec![0, 1, 63, 64, 127, 149]);
    }

    #[test]
    fn extend_from_bitvec_matches_push_loop() {
        let patterns = [
            "",
            "1",
            "0110",
            &"10".repeat(40),
            &"1".repeat(63),
            &"01".repeat(64),
            &"001".repeat(50),
        ];
        for left in patterns {
            for right in patterns {
                let mut fast = bv(left);
                fast.extend_from_bitvec(&bv(right));
                let mut slow = bv(left);
                for c in right.chars() {
                    slow.push(c == '1');
                }
                assert_eq!(fast, slow, "left {left:?} right {right:?}");
                assert_eq!(fast.len(), left.len() + right.len());
            }
        }
    }

    #[test]
    fn extend_from_bitvec_keeps_tail_clean() {
        // A dirty tail would corrupt popcounts and equality; splice at a
        // non-word-aligned boundary and check the invariants.
        let mut v = bv("101");
        v.extend_from_bitvec(&bv(&"1".repeat(130)));
        assert_eq!(v.count_ones(), 132);
        let mut w = v.clone();
        w.resize(v.len());
        assert_eq!(v, w);
    }

    #[test]
    fn roundtrip_bytes() {
        for pattern in ["", "1", "10110", &"101".repeat(50)] {
            let v = bv(pattern);
            let back = BitVec::from_bytes(&v.to_bytes()).unwrap();
            assert_eq!(v, back, "pattern {pattern}");
        }
    }

    #[test]
    fn write_bytes_reuses_buffers_and_roundtrips() {
        let mut buf = Vec::new();
        for pattern in ["", "1", "10110", &"011".repeat(40)] {
            let v = bv(pattern);
            v.write_bytes(&mut buf);
            assert_eq!(buf, v.to_bytes(), "pattern {pattern}");
            assert_eq!(BitVec::from_bytes(&buf).unwrap(), v);
        }
    }

    #[test]
    fn from_bytes_rejects_malformed_input() {
        assert!(BitVec::from_bytes(&[1, 2, 3]).is_none());
        let mut bytes = bv("1111").to_bytes();
        bytes.pop();
        assert!(BitVec::from_bytes(&bytes).is_none());
    }

    #[test]
    fn zeros_and_resize() {
        let mut v = BitVec::zeros(10);
        assert_eq!(v.len(), 10);
        assert_eq!(v.count_ones(), 0);
        v.set(9, true);
        v.resize(5);
        assert_eq!(v.len(), 5);
        assert_eq!(v.count_ones(), 0, "truncated bits must not linger");
        v.resize(80);
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn heap_bytes_accounts_for_words() {
        let v = BitVec::zeros(1024);
        assert!(v.heap_bytes() >= 1024 / 8);
    }
}
