//! The workspace's one binary codec: little-endian `put_*` writers and a
//! bounds-checked [`Reader`].
//!
//! `fsmd` wire bodies, WAL batch payloads and record frames, checkpoints and
//! hibernation images all encode through the `put_*` functions and decode
//! through [`Reader`], so there is exactly one place where a length read
//! from input meets a slice index, and one rule for count-prefixed lists
//! ([`Reader::count_u64`]): a count is a *claim*, checked against the bytes
//! actually left before anything is reserved for it.

use crate::edge::EdgeId;
use crate::error::{FsmError, Result};

/// Appends a little-endian `u16`.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, value: u16) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a `u16`-length-prefixed UTF-8 string, cut at the last character
/// boundary within `u16::MAX` bytes so the peer's [`Reader::take_str`]
/// always receives valid UTF-8.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    let cut = &s[..s.floor_char_boundary(u16::MAX.into())];
    put_u16(out, cut.len() as u16);
    out.extend_from_slice(cut.as_bytes());
}

/// A bounds-checked little-endian reader over one encoded value.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    offset: usize,
    artifact: Option<&'a str>,
}

impl<'a> Reader<'a> {
    /// Reads a wire payload; damage is reported as [`FsmError::Parse`].
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            offset: 0,
            artifact: None,
        }
    }

    /// Reads a durable artifact; damage is reported as
    /// [`FsmError::CorruptArtifact`] naming `artifact`.
    pub fn artifact(bytes: &'a [u8], artifact: &'a str) -> Self {
        Self {
            artifact: Some(artifact),
            ..Self::new(bytes)
        }
    }

    #[cold]
    fn truncated(&self, needed: usize) -> FsmError {
        self.error(format!(
            "truncated at byte {} of {} (needed {needed} more)",
            self.offset,
            self.bytes.len()
        ))
    }

    fn error(&self, detail: String) -> FsmError {
        match self.artifact {
            Some(artifact) => FsmError::corrupt_artifact(artifact, detail),
            None => FsmError::parse(detail),
        }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.offset
    }

    /// The next `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(self.truncated(n));
        }
        let slice = &self.bytes[self.offset..self.offset + n];
        self.offset += n;
        Ok(slice)
    }

    #[inline]
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut array = [0u8; N];
        array.copy_from_slice(self.take(N)?);
        Ok(array)
    }

    /// One byte.
    #[inline]
    pub fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian `u16`.
    #[inline]
    pub fn take_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Little-endian `u32`.
    #[inline]
    pub fn take_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Little-endian `u64`.
    #[inline]
    pub fn take_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// `u16`-length-prefixed UTF-8 string (see [`put_str`]).
    pub fn take_str(&mut self) -> Result<String> {
        let len = self.take_u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| self.error("string is not valid UTF-8".into()))
    }

    /// A `u16` element count; see [`Reader::count_u64`].
    #[inline]
    pub fn count_u16(&mut self, min_element_bytes: usize) -> Result<usize> {
        let announced = self.take_u16()?;
        self.check_count(announced.into(), min_element_bytes)
    }

    /// A `u32` element count; see [`Reader::count_u64`].
    #[inline]
    pub fn count_u32(&mut self, min_element_bytes: usize) -> Result<usize> {
        let announced = self.take_u32()?;
        self.check_count(announced.into(), min_element_bytes)
    }

    /// A `u64` element count for a list whose elements occupy at least
    /// `min_element_bytes` each.  Refuses any count the bytes left cannot
    /// hold, so the result is at most [`Reader::remaining`] and safe to
    /// pass to `Vec::with_capacity` whatever the input announces.
    #[inline]
    pub fn count_u64(&mut self, min_element_bytes: usize) -> Result<usize> {
        let announced = self.take_u64()?;
        self.check_count(announced, min_element_bytes)
    }

    #[inline]
    fn check_count(&self, announced: u64, min_element_bytes: usize) -> Result<usize> {
        let holds = self.remaining() / min_element_bytes.max(1);
        match usize::try_from(announced) {
            Ok(count) if count <= holds => Ok(count),
            _ => Err(self.error(format!(
                "a list at byte {} announces {announced} elements of at least \
                 {min_element_bytes} bytes, but only {} bytes remain",
                self.offset,
                self.remaining()
            ))),
        }
    }

    /// `count` little-endian `u32` edge ids in canonical order, read into
    /// `out` (cleared first; it grows only when its capacity is short).  Ids
    /// must strictly increase: a descending or repeated id is refused with
    /// this reader's typed error, not repaired — every writer of these
    /// formats emits canonical order, so anything else is damage.  On error
    /// `out` is left empty.
    pub fn take_canonical_edges(&mut self, count: usize, out: &mut Vec<EdgeId>) -> Result<()> {
        out.clear();
        let needed = count.saturating_mul(4);
        if needed > self.remaining() {
            return Err(self.truncated(needed));
        }
        out.reserve_exact(count);
        out.resize(count, EdgeId(0));
        self.fill_canonical_edges(out).inspect_err(|_| out.clear())
    }

    /// Fills `out` with as many little-endian `u32` edge ids, which must
    /// strictly increase (see [`Reader::take_canonical_edges`]).  On error
    /// the contents of `out` are unspecified.
    pub fn fill_canonical_edges(&mut self, out: &mut [EdgeId]) -> Result<()> {
        let start = self.offset;
        let bytes = self.take(4 * out.len())?;
        // The smallest id the next one may be: strictly above the last.
        let mut floor = 0u64;
        for (i, (slot, id)) in out.iter_mut().zip(bytes.chunks_exact(4)).enumerate() {
            let id = u32::from_le_bytes([id[0], id[1], id[2], id[3]]);
            if u64::from(id) < floor {
                return Err(self.not_increasing(start + 4 * i, id, floor - 1));
            }
            floor = u64::from(id) + 1;
            *slot = EdgeId(id);
        }
        Ok(())
    }

    #[cold]
    fn not_increasing(&self, at: usize, id: u32, previous: u64) -> FsmError {
        self.error(format!(
            "edge id {id} at byte {at} follows {previous}: ids must strictly increase"
        ))
    }

    /// Everything not yet consumed.
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = &self.bytes[self.offset..];
        self.offset = self.bytes.len();
        rest
    }

    /// Errors if unconsumed bytes remain — encodings are exact.
    pub fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(self.error(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_and_strings_round_trip() {
        let mut out = vec![0xAB];
        put_u16(&mut out, 0x0102);
        put_u32(&mut out, 0x0304_0506);
        put_u64(&mut out, 0x0708_090A_0B0C_0D0E);
        put_str(&mut out, "héllo");
        let mut reader = Reader::new(&out);
        assert_eq!(reader.take_u8().unwrap(), 0xAB);
        assert_eq!(reader.take_u16().unwrap(), 0x0102);
        assert_eq!(reader.take_u32().unwrap(), 0x0304_0506);
        assert_eq!(reader.take_u64().unwrap(), 0x0708_090A_0B0C_0D0E);
        assert_eq!(reader.take_str().unwrap(), "héllo");
        reader.finish().unwrap();
        // Little-endian on the wire.
        assert_eq!(&out[1..3], &[0x02, 0x01]);
    }

    #[test]
    fn an_overlong_string_is_cut_between_characters() {
        // Byte 65 535 falls inside the two-byte `é`: cutting there would make
        // the peer reject the whole frame as invalid UTF-8.
        let ascii = "a".repeat(usize::from(u16::MAX) - 1);
        let mut out = Vec::new();
        put_str(&mut out, &format!("{ascii}é€"));
        let mut reader = Reader::new(&out);
        assert_eq!(reader.take_str().unwrap(), ascii);
        reader.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed_errors() {
        let mut reader = Reader::new(&[1, 0]);
        assert!(matches!(reader.take_u32(), Err(FsmError::Parse { .. })));
        let mut reader = Reader::new(&[5, 0, b'a']);
        assert!(reader.take_str().is_err());
        let mut reader = Reader::new(&[2, 0, 0xFF, 0xFE]);
        assert!(reader.take_str().is_err(), "invalid UTF-8");
        assert!(Reader::new(&[0]).finish().is_err());

        let mut reader = Reader::artifact(&[1, 2, 3], "checkpoint-7.ckpt");
        let err = reader.take_u64().unwrap_err();
        assert!(matches!(err, FsmError::CorruptArtifact { .. }));
        assert!(err.to_string().contains("checkpoint-7.ckpt"), "{err}");
    }

    fn ids(raw: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        for &id in raw {
            put_u32(&mut out, id);
        }
        out
    }

    #[test]
    fn canonical_edges_are_read_in_place_and_anything_else_is_refused() {
        let mut edges = vec![EdgeId(7); 9];
        let bytes = ids(&[0, 3, u32::MAX]);
        let mut reader = Reader::new(&bytes);
        reader.take_canonical_edges(3, &mut edges).unwrap();
        reader.finish().unwrap();
        assert_eq!(edges, [EdgeId(0), EdgeId(3), EdgeId(u32::MAX)]);
        // Descending, repeated and repeated-at-the-top ids: a typed error
        // naming the byte, and nothing half-read left behind.
        for raw in [&[5, 4][..], &[2, 2], &[u32::MAX, u32::MAX], &[0, 0]] {
            let bytes = ids(raw);
            let err = Reader::new(&bytes)
                .take_canonical_edges(2, &mut edges)
                .unwrap_err();
            assert!(
                matches!(&err, FsmError::Parse { message, .. } if message.contains("byte 4")),
                "{raw:?}: {err}"
            );
            assert!(edges.is_empty());
        }
        let err = Reader::artifact(&ids(&[5, 4]), "wal batch payload")
            .take_canonical_edges(2, &mut edges)
            .unwrap_err();
        assert!(matches!(err, FsmError::CorruptArtifact { .. }));
        // A count past the bytes left is a truncation, not a reservation.
        assert!(Reader::new(&bytes)
            .take_canonical_edges(usize::MAX, &mut edges)
            .is_err());
    }

    #[test]
    fn counts_never_exceed_what_the_input_can_hold() {
        // 3 elements of 4 bytes announced, exactly 12 bytes follow: fine.
        let mut out = Vec::new();
        put_u32(&mut out, 3);
        out.extend_from_slice(&[0; 12]);
        assert_eq!(Reader::new(&out).count_u32(4).unwrap(), 3);
        // 4 announced over the same 12 bytes: refused at the count.
        let mut lie = Vec::new();
        put_u32(&mut lie, 4);
        lie.extend_from_slice(&[0; 12]);
        assert!(Reader::new(&lie).count_u32(4).is_err());
        // Absurd counts of every width are refused, not reserved for.
        let mut huge = Vec::new();
        put_u64(&mut huge, u64::MAX);
        huge.extend_from_slice(&[0; 8]);
        assert!(Reader::new(&huge).count_u64(8).is_err());
        assert!(Reader::new(&[0xFF, 0xFF, 0]).count_u16(4).is_err());
        // Empty lists need no bytes.
        assert_eq!(Reader::new(&[0, 0]).count_u16(4).unwrap(), 0);
    }
}
