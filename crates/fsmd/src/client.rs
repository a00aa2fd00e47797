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
    check_hello, put_str, read_frame, take_patterns, write_frame, Cursor, Opcode, Status,
    TenantSpec, TenantStatus,
};

/// A blocking client over one `fsmd` connection.
#[derive(Debug)]
pub struct FsmdClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl FsmdClient {
    /// Connects to a listening server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        };
        // The server leads with a hello frame; refuse to speak to a peer
        // from a different protocol era (or a non-fsmd listener).
        let hello = read_frame(&mut client.reader)?
            .ok_or_else(|| FsmError::config("server hung up before the protocol hello"))?;
        check_hello(&hello)?;
        Ok(client)
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<()> {
        self.call(&[Opcode::Ping as u8], "").map(|_| ())
    }

    /// Creates a tenant from a spec.
    pub fn create_tenant(&mut self, spec: &TenantSpec) -> Result<()> {
        let mut request = vec![Opcode::CreateTenant as u8];
        spec.encode_into(&mut request);
        self.call(&request, &spec.tenant).map(|_| ())
    }

    /// Recovers a durable tenant from the server's durable root.  The spec
    /// must match the run being recovered, exactly as in the single-tenant
    /// case.
    pub fn recover_tenant(&mut self, spec: &TenantSpec) -> Result<()> {
        let mut request = vec![Opcode::RecoverTenant as u8];
        spec.encode_into(&mut request);
        self.call(&request, &spec.tenant).map(|_| ())
    }

    /// Ingests one batch.  Returns `true` when the batch reached the window
    /// immediately, `false` when it parked in the tenant's ingest queue;
    /// [`FsmError::Backpressure`] means the queue was full and *nothing* was
    /// accepted — retry the same batch.
    pub fn ingest(&mut self, tenant: &str, batch: &Batch) -> Result<bool> {
        let mut request = vec![Opcode::Ingest as u8];
        put_str(&mut request, tenant);
        request.extend_from_slice(&fsm_dsmatrix::encode_batch(batch));
        let body = self.call(&request, tenant)?;
        let mut cursor = Cursor::new(&body);
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
        let mut request = vec![Opcode::Mine as u8];
        put_str(&mut request, tenant);
        let body = self.call(&request, tenant)?;
        let mut cursor = Cursor::new(&body);
        let patterns = take_patterns(&mut cursor)?;
        cursor.finish()?;
        Ok(patterns)
    }

    /// Drops a tenant.
    pub fn drop_tenant(&mut self, tenant: &str) -> Result<()> {
        let mut request = vec![Opcode::DropTenant as u8];
        put_str(&mut request, tenant);
        self.call(&request, tenant).map(|_| ())
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
        let body = self.call(&[Opcode::ListTenants as u8], "")?;
        let mut cursor = Cursor::new(&body);
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
        let mut request = vec![Opcode::Subscribe as u8];
        put_str(&mut request, tenant);
        self.call(&request, tenant).map(|_| ())
    }

    /// The newest published result this connection has not seen yet, if
    /// any.  Slides between polls coalesce to the latest epoch.
    pub fn poll(&mut self, tenant: &str) -> Result<Option<Vec<FrequentPattern>>> {
        let mut request = vec![Opcode::Poll as u8];
        put_str(&mut request, tenant);
        let body = self.call(&request, tenant)?;
        let mut cursor = Cursor::new(&body);
        let fresh = cursor.take_u8()? != 0;
        let result = if fresh {
            Some(take_patterns(&mut cursor)?)
        } else {
            None
        };
        cursor.finish()?;
        Ok(result)
    }

    /// One round trip: write the request frame, read the response frame,
    /// strip the status byte.  `tenant` only labels backpressure errors.
    fn call(&mut self, request: &[u8], tenant: &str) -> Result<Vec<u8>> {
        write_frame(&mut self.writer, request)?;
        let response = read_frame(&mut self.reader)?
            .ok_or_else(|| FsmError::config("server hung up mid-request"))?;
        let mut cursor = Cursor::new(&response);
        match cursor.take_u8()? {
            s if s == Status::Ok as u8 => Ok(cursor.rest().to_vec()),
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
