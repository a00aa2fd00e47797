//! The `fsmd` wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! [payload length: u32 LE][payload bytes]
//! ```
//!
//! Immediately after accepting a connection — before any request — the
//! server sends one *hello* frame: the [`PROTO_MAGIC`] bytes followed by a
//! `u16` [`PROTO_VERSION`].  The client checks both and hangs up with a
//! clean version error on mismatch, so incompatible peers never get far
//! enough to misparse each other's bodies (the `list` body changed shape
//! in version 2, for instance).
//!
//! A request payload starts with an opcode byte; a response payload starts
//! with a status byte ([`Status`]): `Ok` carries a request-specific body,
//! `Err` a UTF-8 message, and `Backpressure` tells the producer to retry —
//! the tenant's ingest queue was full, nothing was accepted.  Batch bodies
//! reuse the durable layer's WAL encoding ([`fsm_dsmatrix::encode_batch`] /
//! [`fsm_dsmatrix::decode_batch`]), so a byte captured on the wire is the
//! byte a WAL replay would apply.  All integers are little-endian; strings
//! are `u16` length + UTF-8; pattern lists are `u32` count, then per
//! pattern `u64` support, `u16` edge count and the raw `u32` edge ids in
//! canonical order.

use std::io::{Read, Write};

use fsm_core::LifecycleState;
use fsm_types::codec::{put_u16, put_u32, put_u64};
use fsm_types::{EdgeSet, FrequentPattern, FsmError, Result};

/// The bounds-checked reader every body is decoded with — the workspace's
/// shared [`fsm_types::codec::Reader`] in its wire-protocol flavour
/// ([`FsmError::Parse`] errors) — and its string writer.
pub use fsm_types::codec::{put_str, Reader as Cursor};

/// Upper bound on a frame payload; a peer announcing more is treated as
/// corrupt rather than allocated for.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// First bytes of the server's hello frame — identifies the protocol
/// before any version arithmetic happens.
pub const PROTO_MAGIC: [u8; 4] = *b"FSMD";

/// Wire protocol version, announced in the hello frame.  History:
///
/// - 1 — initial protocol; `list` `Ok` body was `u32` count + tenant ids.
/// - 2 — `list` `Ok` body is `u32` count + [`TenantStatus`] records
///   (lifecycle state, resident bytes, thaw stats).
pub const PROTO_VERSION: u16 = 2;

/// Builds the hello payload the server sends on accept.
pub fn encode_hello() -> Vec<u8> {
    let mut out = Vec::with_capacity(PROTO_MAGIC.len() + 2);
    out.extend_from_slice(&PROTO_MAGIC);
    put_u16(&mut out, PROTO_VERSION);
    out
}

/// Validates a received hello payload: right magic, same version.
pub fn check_hello(payload: &[u8]) -> Result<()> {
    let mut cursor = Cursor::new(payload);
    let magic = cursor.take(PROTO_MAGIC.len())?;
    if magic != PROTO_MAGIC {
        return Err(FsmError::parse(
            "peer did not send the fsmd protocol magic — not an fsmd server?",
        ));
    }
    let version = cursor.take_u16()?;
    if version != PROTO_VERSION {
        return Err(FsmError::config(format!(
            "fsmd protocol version mismatch: peer speaks {version}, this \
             build speaks {PROTO_VERSION}"
        )));
    }
    cursor.finish()
}

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness check; empty `Ok` response.
    Ping = 0x01,
    /// Create a tenant: [`TenantSpec`] body.
    CreateTenant = 0x02,
    /// Recover a durable tenant: [`TenantSpec`] body (`durable` implied).
    RecoverTenant = 0x03,
    /// Ingest one batch: tenant string + WAL-encoded batch.  `Ok` body is
    /// one byte: `1` applied to the window, `0` parked in the ingest queue.
    Ingest = 0x04,
    /// Mine the tenant's current window: tenant string.  `Ok` body is a
    /// pattern list.
    Mine = 0x05,
    /// Drop a tenant: tenant string; empty `Ok` response.
    DropTenant = 0x06,
    /// List live tenants; `Ok` body is `u32` count + one [`TenantStatus`]
    /// record per tenant (id, lifecycle state, resident bytes, thaw stats).
    ListTenants = 0x07,
    /// Register this connection for the tenant's mine-on-every-slide
    /// output: tenant string; empty `Ok` response.
    Subscribe = 0x08,
    /// Fetch the newest unseen published result for a subscribed tenant:
    /// tenant string.  `Ok` body is one byte `0` (nothing new) or `1`
    /// followed by a pattern list.
    Poll = 0x09,
}

impl Opcode {
    /// Decodes an opcode byte.
    pub fn decode(byte: u8) -> Result<Self> {
        Ok(match byte {
            0x01 => Self::Ping,
            0x02 => Self::CreateTenant,
            0x03 => Self::RecoverTenant,
            0x04 => Self::Ingest,
            0x05 => Self::Mine,
            0x06 => Self::DropTenant,
            0x07 => Self::ListTenants,
            0x08 => Self::Subscribe,
            0x09 => Self::Poll,
            other => return Err(FsmError::parse(format!("unknown opcode {other:#04x}"))),
        })
    }
}

/// Response status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Request succeeded; body is request-specific.
    Ok = 0x00,
    /// Request failed; body is a UTF-8 message.
    Err = 0x01,
    /// The tenant's ingest queue is full; retry the same request later.
    Backpressure = 0x02,
}

/// The over-the-wire tenant configuration — the subset of
/// [`fsm_core::MinerConfig`] a remote client may set.  Durable directories
/// and budget governance stay server-side policy.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant id (validated server-side).
    pub tenant: String,
    /// Index into [`fsm_core::Algorithm::ALL`].
    pub algorithm: u8,
    /// Sliding-window size in batches.
    pub window_batches: u32,
    /// `true` = `minsup` is an absolute count; `false` = `minsup` carries
    /// `f64` bits of a relative fraction.
    pub minsup_absolute: bool,
    /// Absolute support or `f64::to_bits` of the relative fraction.
    pub minsup: u64,
    /// `0` = path graph with `catalog_n` edges (the FIMI convention),
    /// `1` = complete graph over `catalog_n` vertices.
    pub catalog_kind: u8,
    /// Edge or vertex count, per `catalog_kind`.
    pub catalog_n: u32,
    /// `0` = memory backend, `1` = disk.
    pub backend: u8,
    /// Desired decoded-chunk cache budget (leased from the server's
    /// governor when one is configured).
    pub cache_budget: u64,
    /// Root this tenant under the server's durable root.
    pub durable: bool,
    /// Maintain the pattern set incrementally across slides.
    pub delta: bool,
}

impl TenantSpec {
    /// A memory-backend spec with the given algorithm index, window and
    /// absolute support — the common test/drive shape.
    pub fn new(tenant: impl Into<String>) -> Self {
        Self {
            tenant: tenant.into(),
            algorithm: 4, // DirectVertical
            window_batches: 2,
            minsup_absolute: true,
            minsup: 2,
            catalog_kind: 1,
            catalog_n: 4,
            backend: 0,
            cache_budget: 0,
            durable: false,
            delta: false,
        }
    }

    /// Serialises the spec (without the opcode byte).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_str(out, &self.tenant);
        out.push(self.algorithm);
        put_u32(out, self.window_batches);
        out.push(self.minsup_absolute as u8);
        put_u64(out, self.minsup);
        out.push(self.catalog_kind);
        put_u32(out, self.catalog_n);
        out.push(self.backend);
        put_u64(out, self.cache_budget);
        out.push(self.durable as u8);
        out.push(self.delta as u8);
    }

    /// Parses a spec from a request body.
    pub fn decode(cursor: &mut Cursor<'_>) -> Result<Self> {
        Ok(Self {
            tenant: cursor.take_str()?,
            algorithm: cursor.take_u8()?,
            window_batches: cursor.take_u32()?,
            minsup_absolute: cursor.take_u8()? != 0,
            minsup: cursor.take_u64()?,
            catalog_kind: cursor.take_u8()?,
            catalog_n: cursor.take_u32()?,
            backend: cursor.take_u8()?,
            cache_budget: cursor.take_u64()?,
            durable: cursor.take_u8()? != 0,
            delta: cursor.take_u8()? != 0,
        })
    }
}

/// One tenant's entry in a `list` response: id plus the lifecycle
/// bookkeeping the registry reports ([`fsm_core::SessionStatus`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStatus {
    /// Tenant id.
    pub tenant: String,
    /// Residency lifecycle state.
    pub state: LifecycleState,
    /// Bytes of resident window state (`0` while spilled).
    pub resident_bytes: u64,
    /// Transparent thaws performed over the tenant's lifetime.
    pub thaws: u64,
    /// Total nanoseconds spent in those thaws.
    pub thaw_nanos: u64,
}

impl TenantStatus {
    /// Bytes of a record with an empty id: id length, state, three `u64`s.
    pub const MIN_ENCODED_BYTES: usize = 2 + 1 + 24;

    /// Serialises one status record.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_str(out, &self.tenant);
        out.push(self.state.code());
        put_u64(out, self.resident_bytes);
        put_u64(out, self.thaws);
        put_u64(out, self.thaw_nanos);
    }

    /// Parses one status record.
    pub fn decode(cursor: &mut Cursor<'_>) -> Result<Self> {
        let tenant = cursor.take_str()?;
        let code = cursor.take_u8()?;
        let state = LifecycleState::from_code(code)
            .ok_or_else(|| FsmError::parse(format!("unknown lifecycle state code {code}")))?;
        Ok(Self {
            tenant,
            state,
            resident_bytes: cursor.take_u64()?,
            thaws: cursor.take_u64()?,
            thaw_nanos: cursor.take_u64()?,
        })
    }
}

/// Writes one frame.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(FsmError::config(format!(
            "frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte limit",
            payload.len()
        )));
    }
    let mut header = Vec::with_capacity(4);
    put_u32(&mut header, payload.len() as u32);
    writer.write_all(&header)?;
    writer.write_all(payload)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame; `Ok(None)` on a clean EOF at a frame boundary.
pub fn read_frame(reader: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match reader.read_exact(&mut len) {
        Ok(()) => {}
        Err(err) if err.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(err) => return Err(err.into()),
    }
    let len = Cursor::new(&len).take_u32()? as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FsmError::parse(format!(
            "peer announced a {len}-byte frame (limit {MAX_FRAME_BYTES})"
        )));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Bytes one encoded pattern occupies at least: `u64` support + `u16` edge
/// count.
const MIN_PATTERN_BYTES: usize = 10;

/// Appends a pattern list in wire order.
pub fn put_patterns(out: &mut Vec<u8>, patterns: &[FrequentPattern]) {
    put_u32(out, patterns.len() as u32);
    for pattern in patterns {
        put_u64(out, pattern.support);
        put_u16(out, pattern.edges.len() as u16);
        for edge in pattern.edges.iter() {
            put_u32(out, edge.0);
        }
    }
}

/// Reads a pattern list written by [`put_patterns`].
pub fn take_patterns(cursor: &mut Cursor<'_>) -> Result<Vec<FrequentPattern>> {
    let count = cursor.count_u32(MIN_PATTERN_BYTES)?;
    let mut patterns = Vec::with_capacity(count);
    for _ in 0..count {
        let support = cursor.take_u64()?;
        let num_edges = cursor.count_u16(4)?;
        let mut edges = Vec::with_capacity(num_edges);
        for _ in 0..num_edges {
            edges.push(cursor.take_u32()?);
        }
        patterns.push(FrequentPattern::new(EdgeSet::from_raw(edges), support));
    }
    Ok(patterns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut reader = &buf[..];
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"");
        assert!(read_frame(&mut reader).unwrap().is_none());
    }

    #[test]
    fn hello_round_trips_and_rejects_mismatches() {
        check_hello(&encode_hello()).unwrap();
        // Wrong magic: not an fsmd server.
        assert!(check_hello(b"HTTP\x02\x00").is_err());
        // Right magic, different era: clean version error, not a misparse.
        let mut stale = Vec::new();
        stale.extend_from_slice(&PROTO_MAGIC);
        stale.extend_from_slice(&(PROTO_VERSION - 1).to_le_bytes());
        let err = check_hello(&stale).unwrap_err().to_string();
        assert!(err.contains("version mismatch"), "{err}");
        // Truncated hello.
        assert!(check_hello(&PROTO_MAGIC).is_err());
    }

    #[test]
    fn oversized_announcements_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn tenant_specs_round_trip() {
        let spec = TenantSpec {
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
        };
        let mut out = Vec::new();
        spec.encode_into(&mut out);
        let mut cursor = Cursor::new(&out);
        assert_eq!(TenantSpec::decode(&mut cursor).unwrap(), spec);
        cursor.finish().unwrap();
    }

    #[test]
    fn pattern_lists_round_trip() {
        let patterns = vec![
            FrequentPattern::new(EdgeSet::from_raw([0, 2, 5]), 4),
            FrequentPattern::new(EdgeSet::from_raw([1]), 9),
        ];
        let mut out = Vec::new();
        put_patterns(&mut out, &patterns);
        let mut cursor = Cursor::new(&out);
        assert_eq!(take_patterns(&mut cursor).unwrap(), patterns);
        cursor.finish().unwrap();
    }

    #[test]
    fn truncated_frames_error_instead_of_panicking() {
        let mut cursor = Cursor::new(&[1, 0]);
        assert!(cursor.take_u32().is_err());
        let mut cursor = Cursor::new(&[5, 0, b'a']);
        assert!(cursor.take_str().is_err());
    }
}
