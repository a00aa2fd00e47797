//! CRC-32 (IEEE 802.3) checksums for durable artifacts.
//!
//! Every durable byte this crate writes — WAL records, checkpoint bodies,
//! hibernation images, `framed` artifacts, segment runs and data pages —
//! carries a CRC-32 so that torn or bit-flipped artifacts are *detected* at
//! read time instead of silently mis-mining.  The polynomial is the ubiquitous
//! reflected IEEE one (`0xEDB88320`), dependency-free and in safe Rust.
//!
//! The kernel is **slicing-by-16**: sixteen 256-entry tables built at
//! compile time let [`Crc32::update`] fold sixteen input bytes per step with
//! sixteen independent lookups, and only the tail (< 16 bytes) goes a byte
//! at a time.  The digests are those of the byte-at-a-time loop for every
//! input and every split of it across `update` calls (property-tested
//! against that loop below).  It matters because the checksum, not the I/O
//! around it, was once the largest single cost of a disk-resident window:
//! under segment format v1 a step of the disk fleet checksummed ≈ 200 1 KiB
//! pages, and the byte loop's 2.5 ns/B made that ≈ 40 % of the step; sliced
//! it is ≈ 0.5 ns/B (the `crc32` rows of the paper runner's `kernels`
//! section, `BENCH_paper.json`).  Sixteen rather than eight because it measured
//! faster on page-sized input: 0.41–0.49 µs against 0.53–0.68 µs per 1 KiB
//! page on the same host, for 8 KiB more tables.  The hardware `crc32`
//! instruction of SSE4.2 computes CRC-32C — a different polynomial, i.e. a
//! format change — so it is not used.

/// Bytes folded per step of [`Crc32::update`] (and the number of tables).
const SLICES: usize = 16;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the CRC
/// state after byte `b` followed by `k` zero bytes, which is what lets one
/// step look sixteen bytes up independently and XOR the results.  Built at
/// compile time so the checksum has zero runtime setup cost (16 KiB of
/// read-only data).
static TABLES: [[u32; 256]; SLICES] = build_tables();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    tables[0] = build_table();
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Incremental CRC-32 state for checksumming data that arrives in pieces
/// (e.g. a checkpoint body streamed out field by field).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut steps = bytes.chunks_exact(SLICES);
        for step in &mut steps {
            // The running state only enters through the first four bytes;
            // every lookup below is independent of the others.
            let mut folded = 0;
            for (word, quad) in step.chunks_exact(4).enumerate() {
                let mut w = u32::from_le_bytes([quad[0], quad[1], quad[2], quad[3]]);
                if word == 0 {
                    w ^= crc;
                }
                let top = SLICES - 1 - 4 * word;
                folded ^= TABLES[top][(w & 0xFF) as usize]
                    ^ TABLES[top - 1][((w >> 8) & 0xFF) as usize]
                    ^ TABLES[top - 2][((w >> 16) & 0xFF) as usize]
                    ^ TABLES[top - 3][(w >> 24) as usize];
            }
            crc = folded;
        }
        for &b in steps.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Finishes the checksum and returns the digest.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop the sliced kernel replaced, kept as the
    /// reference the property below compares against.
    fn bytewise_crc32(bytes: &[u8]) -> u32 {
        let table = build_table();
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut inc = Crc32::new();
        inc.update(&data[..10]);
        inc.update(&data[10..]);
        assert_eq!(inc.finish(), crc32(data));
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let mut data = vec![0u8; 4096];
        data[17] = 0x42;
        let clean = crc32(&data);
        data[17] ^= 0x01;
        assert_ne!(clean, crc32(&data));
    }

    proptest! {
        /// The sliced kernel computes the byte loop's digest for every
        /// length around the 16-byte step, at every alignment (the buffer
        /// starts at a random offset into a larger allocation) and for every
        /// split of the input across `update` calls.
        #[test]
        fn sliced_digest_equals_the_bytewise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..4097),
            offset in 0usize..64,
            cuts in proptest::collection::vec(0usize..4097, 0..5),
        ) {
            let mut arena = vec![0xA5u8; offset];
            arena.extend_from_slice(&data);
            let bytes = &arena[offset..];
            let expected = bytewise_crc32(bytes);
            prop_assert_eq!(crc32(bytes), expected);

            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(bytes.len())).collect();
            cuts.push(bytes.len());
            cuts.sort_unstable();
            let mut split = Crc32::new();
            let mut start = 0;
            for end in cuts {
                split.update(&bytes[start..end]);
                start = end;
            }
            prop_assert_eq!(split.finish(), expected);
        }
    }
}
