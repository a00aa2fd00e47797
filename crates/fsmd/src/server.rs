//! The `fsmd` accept loop and request dispatch.
//!
//! One thread accepts connections; each connection gets its own thread, a
//! buffered reader/writer pair and a private map of live subscriptions, and
//! serves requests strictly in order (the protocol is request/response, no
//! pipelining).  All connections share one [`SessionRegistry`] — tenant
//! state, the worker pool and the budget governor live there, so a tenant
//! may be fed from one connection and mined from another.
//!
//! Per-request panics are caught and turned into [`Status::Err`] responses:
//! a bug mining one tenant's window must not tear down the process hosting
//! every other tenant.  Shutdown is cooperative — [`ServerHandle::shutdown`]
//! raises a flag and wakes the acceptor with a self-connection; connection
//! threads notice the flag after their current request and hang up.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use fsm_core::{Algorithm, IngestOutcome, MinerConfig, SessionRegistry, Subscription};
use fsm_storage::StorageBackend;
use fsm_stream::WindowConfig;
use fsm_types::codec::put_u32;
use fsm_types::{EdgeCatalog, FsmError, MinSup, Result};

use crate::proto::{
    encode_hello, put_patterns, put_str, read_frame, write_frame, Cursor, Opcode, Status,
    TenantSpec, TenantStatus,
};

/// A running server: the bound address plus the shutdown handle.
#[derive(Debug)]
pub struct ServerHandle {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0` port requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting connections and joins the acceptor thread.
    /// Connection threads hang up after their in-flight request.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Blocks until the acceptor exits — the `fsmd serve` foreground mode.
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The acceptor blocks in accept(); a throwaway self-connection wakes
        // it so it can observe the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop_and_join();
        }
    }
}

/// Binds `listen` (e.g. `127.0.0.1:0`) and serves `registry` until the
/// returned handle shuts the server down.
pub fn serve(registry: Arc<SessionRegistry>, listen: &str) -> Result<ServerHandle> {
    let listener = TcpListener::bind(listen)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || loop {
            let Ok((stream, _)) = listener.accept() else {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            };
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let _ = serve_connection(&registry, stream, &stop);
            });
        })
    };
    Ok(ServerHandle {
        local_addr,
        stop,
        acceptor: Some(acceptor),
    })
}

/// Serves one connection until EOF, an I/O error or shutdown.
fn serve_connection(
    registry: &SessionRegistry,
    stream: TcpStream,
    stop: &AtomicBool,
) -> Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    // Version handshake first: a peer from a different protocol era gets a
    // clean mismatch error instead of misparsing response bodies.
    write_frame(&mut writer, &encode_hello())?;
    let mut subscriptions: HashMap<String, Subscription> = HashMap::new();
    while !stop.load(Ordering::SeqCst) {
        let Some(request) = read_frame(&mut reader)? else {
            return Ok(()); // clean hang-up at a frame boundary
        };
        let response = respond(registry, &mut subscriptions, &request);
        write_frame(&mut writer, &response)?;
    }
    Ok(())
}

/// Turns one request into one response payload; never panics out.
fn respond(
    registry: &SessionRegistry,
    subscriptions: &mut HashMap<String, Subscription>,
    request: &[u8],
) -> Vec<u8> {
    let handled = catch_unwind(AssertUnwindSafe(|| {
        handle(registry, subscriptions, request)
    }))
    .unwrap_or_else(|panic| {
        let what = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(FsmError::corrupt(format!(
            "request handler panicked: {what}"
        )))
    });
    match handled {
        Ok(body) => {
            let mut out = Vec::with_capacity(1 + body.len());
            out.push(Status::Ok as u8);
            out.extend_from_slice(&body);
            out
        }
        Err(FsmError::Backpressure { .. }) => vec![Status::Backpressure as u8],
        Err(err) => {
            let mut out = vec![Status::Err as u8];
            put_str(&mut out, &err.to_string());
            out
        }
    }
}

/// Decodes and executes one request, returning the `Ok`-status body.
fn handle(
    registry: &SessionRegistry,
    subscriptions: &mut HashMap<String, Subscription>,
    request: &[u8],
) -> Result<Vec<u8>> {
    let mut cursor = Cursor::new(request);
    let opcode = Opcode::decode(cursor.take_u8()?)?;
    match opcode {
        Opcode::Ping => {
            cursor.finish()?;
            Ok(Vec::new())
        }
        Opcode::CreateTenant | Opcode::RecoverTenant => {
            let spec = TenantSpec::decode(&mut cursor)?;
            cursor.finish()?;
            let config = miner_config(&spec)?;
            if opcode == Opcode::CreateTenant {
                registry.create_tenant(&spec.tenant, config, spec.durable)?;
            } else {
                registry.recover_tenant(&spec.tenant, config)?;
            }
            Ok(Vec::new())
        }
        Opcode::Ingest => {
            let tenant = cursor.take_str()?;
            let batch = fsm_dsmatrix::decode_batch(cursor.rest())?;
            let outcome = registry.get(&tenant)?.ingest(&batch)?;
            Ok(vec![matches!(outcome, IngestOutcome::Applied(_)) as u8])
        }
        Opcode::Mine => {
            let tenant = cursor.take_str()?;
            cursor.finish()?;
            let result = registry.get(&tenant)?.mine()?;
            let mut body = Vec::new();
            put_patterns(&mut body, result.patterns());
            Ok(body)
        }
        Opcode::DropTenant => {
            let tenant = cursor.take_str()?;
            cursor.finish()?;
            subscriptions.remove(&tenant);
            registry.drop_tenant(&tenant)?;
            Ok(Vec::new())
        }
        Opcode::ListTenants => {
            cursor.finish()?;
            let statuses = registry.statuses();
            let mut body = Vec::new();
            put_u32(&mut body, statuses.len() as u32);
            for (tenant, status) in &statuses {
                TenantStatus {
                    tenant: tenant.clone(),
                    state: status.state,
                    resident_bytes: status.resident_bytes,
                    thaws: status.thaws,
                    thaw_nanos: status.thaw_nanos,
                }
                .encode_into(&mut body);
            }
            Ok(body)
        }
        Opcode::Subscribe => {
            let tenant = cursor.take_str()?;
            cursor.finish()?;
            let subscription = registry.get(&tenant)?.subscribe();
            subscriptions.insert(tenant, subscription);
            Ok(Vec::new())
        }
        Opcode::Poll => {
            let tenant = cursor.take_str()?;
            cursor.finish()?;
            let subscription = subscriptions.get_mut(&tenant).ok_or_else(|| {
                FsmError::config(format!(
                    "tenant {tenant:?} is not subscribed on this connection"
                ))
            })?;
            match subscription.poll() {
                None => Ok(vec![0]),
                Some(result) => {
                    let mut body = vec![1];
                    put_patterns(&mut body, result.patterns());
                    Ok(body)
                }
            }
        }
    }
}

/// Materialises the [`MinerConfig`] a [`TenantSpec`] describes.  Durable
/// directories and the governor stay the registry's business.
pub fn miner_config(spec: &TenantSpec) -> Result<MinerConfig> {
    let algorithm = *Algorithm::ALL.get(spec.algorithm as usize).ok_or_else(|| {
        FsmError::config(format!(
            "algorithm index {} out of range 0..{}",
            spec.algorithm,
            Algorithm::ALL.len()
        ))
    })?;
    let catalog = match spec.catalog_kind {
        0 => EdgeCatalog::path(spec.catalog_n),
        1 => EdgeCatalog::complete(spec.catalog_n),
        other => {
            return Err(FsmError::config(format!(
                "unknown catalog kind {other} (0 = path, 1 = complete)"
            )))
        }
    };
    let backend = match spec.backend {
        0 => StorageBackend::Memory,
        1 => StorageBackend::DiskTemp,
        other => {
            return Err(FsmError::config(format!(
                "unknown backend {other} (0 = memory, 1 = disk)"
            )))
        }
    };
    let min_support = if spec.minsup_absolute {
        MinSup::absolute(spec.minsup)
    } else {
        MinSup::relative(f64::from_bits(spec.minsup))
    };
    Ok(MinerConfig {
        algorithm,
        window: WindowConfig::new(spec.window_batches as usize)?,
        min_support,
        backend,
        catalog: Some(catalog),
        cache_budget_bytes: spec.cache_budget as usize,
        delta: spec.delta,
        ..MinerConfig::default()
    })
}
