//! Blocking `fsmd` client: one TCP connection, strict request/response.
//!
//! Used by `fsmd drive`, the CI smoke test and the integration tests.
//! Server-side failures come back as [`FsmError`]s: a [`Status::Err`]
//! response surfaces as [`FsmError::InvalidConfig`] carrying the server's message,
//! and a [`Status::Backpressure`] response as [`FsmError::Backpressure`] —
//! the caller retries, nothing was accepted.  [`FsmdClient::ingest_retrying`]
//! wraps that retry loop for producers that just want the batch delivered.

use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use fsm_types::{Batch, FrequentPattern, FsmError, Result};

use crate::proto::{
    check_hello, put_str, read_frame_into, release_if_outsized, take_patterns, write_frame, Cursor,
    Opcode, Status, TenantSpec, TenantStatus,
};

/// A blocking client over one `fsmd` connection.
///
/// Every request is written into one request buffer and every response read
/// into one response buffer, both kept for the connection's lifetime (and
/// given back after an outsized frame, see [`release_if_outsized`]): an
/// ingest writes opcode, tenant and batch straight into the frame it sends.
#[derive(Debug)]
pub struct FsmdClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    request: Vec<u8>,
    response: Vec<u8>,
}

impl FsmdClient {
    /// Connects to a listening server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            request: Vec::new(),
            response: Vec::new(),
        };
        // The server leads with a hello frame; refuse to speak to a peer
        // from a different protocol era (or a non-fsmd listener).
        if !read_frame_into(&mut client.reader, &mut client.response)? {
            return Err(FsmError::config("server hung up before the protocol hello"));
        }
        check_hello(&client.response)?;
        Ok(client)
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<()> {
        self.begin(Opcode::Ping);
        self.call("").map(drop)
    }

    /// Creates a tenant from a spec.
    pub fn create_tenant(&mut self, spec: &TenantSpec) -> Result<()> {
        spec.encode_into(self.begin(Opcode::CreateTenant));
        self.call(&spec.tenant).map(drop)
    }

    /// Recovers a durable tenant from the server's durable root.  The spec
    /// must match the run being recovered, exactly as in the single-tenant
    /// case.
    pub fn recover_tenant(&mut self, spec: &TenantSpec) -> Result<()> {
        spec.encode_into(self.begin(Opcode::RecoverTenant));
        self.call(&spec.tenant).map(drop)
    }

    /// Ingests one batch.  Returns `true` when the batch reached the window
    /// immediately, `false` when it parked in the tenant's ingest queue;
    /// [`FsmError::Backpressure`] means the queue was full and *nothing* was
    /// accepted — retry the same batch.
    pub fn ingest(&mut self, tenant: &str, batch: &Batch) -> Result<bool> {
        let request = self.begin(Opcode::Ingest);
        put_str(request, tenant);
        fsm_dsmatrix::encode_batch_into(batch, request);
        let mut cursor = self.call(tenant)?;
        let applied = cursor.take_u8()? != 0;
        cursor.finish()?;
        Ok(applied)
    }

    /// [`FsmdClient::ingest`] with bounded exponential backoff on
    /// backpressure — the shape a well-behaved producer takes.
    pub fn ingest_retrying(&mut self, tenant: &str, batch: &Batch) -> Result<bool> {
        let mut pause = Duration::from_micros(50);
        loop {
            match self.ingest(tenant, batch) {
                Err(FsmError::Backpressure { .. }) => {
                    std::thread::sleep(pause);
                    pause = (pause * 2).min(Duration::from_millis(20));
                }
                other => return other,
            }
        }
    }

    /// Mines the tenant's current window (queued ingests drain first) and
    /// returns the frequent connected patterns in canonical order.
    pub fn mine(&mut self, tenant: &str) -> Result<Vec<FrequentPattern>> {
        put_str(self.begin(Opcode::Mine), tenant);
        let mut cursor = self.call(tenant)?;
        let patterns = take_patterns(&mut cursor)?;
        cursor.finish()?;
        Ok(patterns)
    }

    /// Drops a tenant.
    pub fn drop_tenant(&mut self, tenant: &str) -> Result<()> {
        put_str(self.begin(Opcode::DropTenant), tenant);
        self.call(tenant).map(drop)
    }

    /// Live tenant ids, sorted.
    pub fn list_tenants(&mut self) -> Result<Vec<String>> {
        Ok(self
            .list_tenants_detailed()?
            .into_iter()
            .map(|status| status.tenant)
            .collect())
    }

    /// Live tenants with their lifecycle status — state, resident bytes
    /// and thaw statistics — sorted by id.
    pub fn list_tenants_detailed(&mut self) -> Result<Vec<TenantStatus>> {
        self.begin(Opcode::ListTenants);
        let mut cursor = self.call("")?;
        let count = cursor.count_u32(TenantStatus::MIN_ENCODED_BYTES)?;
        let mut tenants = Vec::with_capacity(count);
        for _ in 0..count {
            tenants.push(TenantStatus::decode(&mut cursor)?);
        }
        cursor.finish()?;
        Ok(tenants)
    }

    /// Registers this connection for the tenant's mine-on-every-slide
    /// output; fetch results with [`FsmdClient::poll`].
    pub fn subscribe(&mut self, tenant: &str) -> Result<()> {
        put_str(self.begin(Opcode::Subscribe), tenant);
        self.call(tenant).map(drop)
    }

    /// The newest published result this connection has not seen yet, if
    /// any.  Slides between polls coalesce to the latest epoch.
    pub fn poll(&mut self, tenant: &str) -> Result<Option<Vec<FrequentPattern>>> {
        put_str(self.begin(Opcode::Poll), tenant);
        let mut cursor = self.call(tenant)?;
        let fresh = cursor.take_u8()? != 0;
        let result = if fresh {
            Some(take_patterns(&mut cursor)?)
        } else {
            None
        };
        cursor.finish()?;
        Ok(result)
    }

    /// Starts a request: empties the request buffer and writes `opcode`.
    fn begin(&mut self, opcode: Opcode) -> &mut Vec<u8> {
        self.request.clear();
        self.request.push(opcode as u8);
        &mut self.request
    }

    /// One round trip: send the request buffer as one frame, read the
    /// response frame into the response buffer and return a cursor past its
    /// status byte.  `tenant` only labels backpressure errors.
    fn call(&mut self, tenant: &str) -> Result<Cursor<'_>> {
        write_frame(&mut self.writer, &self.request)?;
        release_if_outsized(&mut self.request);
        release_if_outsized(&mut self.response);
        if !read_frame_into(&mut self.reader, &mut self.response)? {
            return Err(FsmError::config("server hung up mid-request"));
        }
        let mut cursor = Cursor::new(&self.response);
        match cursor.take_u8()? {
            s if s == Status::Ok as u8 => Ok(cursor),
            s if s == Status::Err as u8 => {
                let message = cursor.take_str()?;
                Err(FsmError::config(format!("server: {message}")))
            }
            s if s == Status::Backpressure as u8 => Err(FsmError::backpressure(tenant)),
            other => Err(FsmError::parse(format!(
                "unknown response status {other:#04x}"
            ))),
        }
    }
}
