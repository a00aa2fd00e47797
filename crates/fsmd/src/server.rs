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
    encode_hello, put_patterns, put_str, read_frame_into, release_if_outsized, write_frame, Cursor,
    Opcode, Status, TenantSpec, TenantStatus,
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

/// What one connection keeps across its requests.
#[derive(Default)]
struct Connection {
    /// Its live subscriptions, by tenant.
    subscriptions: HashMap<String, Subscription>,
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
    let mut connection = Connection::default();
    let (mut request, mut response) = (Vec::new(), Vec::new());
    while !stop.load(Ordering::SeqCst) {
        if !read_frame_into(&mut reader, &mut request)? {
            return Ok(()); // clean hang-up at a frame boundary
        }
        respond(registry, &mut connection, &request, &mut response);
        write_frame(&mut writer, &response)?;
        release_if_outsized(&mut request);
        release_if_outsized(&mut response);
    }
    Ok(())
}

/// Turns one request into one response payload in `response`; never panics
/// out.
fn respond(
    registry: &SessionRegistry,
    connection: &mut Connection,
    request: &[u8],
    response: &mut Vec<u8>,
) {
    response.clear();
    response.push(Status::Ok as u8);
    let handled = catch_unwind(AssertUnwindSafe(|| {
        handle(registry, connection, request, response)
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
        Ok(()) => {}
        Err(FsmError::Backpressure { .. }) => {
            response.clear();
            response.push(Status::Backpressure as u8);
        }
        Err(err) => {
            response.clear();
            response.push(Status::Err as u8);
            put_str(response, &err.to_string());
        }
    }
}

/// Decodes and executes one request, appending its `Ok`-status body to
/// `body`.
fn handle(
    registry: &SessionRegistry,
    connection: &mut Connection,
    request: &[u8],
    body: &mut Vec<u8>,
) -> Result<()> {
    let mut cursor = Cursor::new(request);
    let opcode = Opcode::decode(cursor.take_u8()?)?;
    match opcode {
        Opcode::Ping => cursor.finish(),
        Opcode::CreateTenant | Opcode::RecoverTenant => {
            let spec = TenantSpec::decode(&mut cursor)?;
            cursor.finish()?;
            let config = miner_config(&spec)?;
            if opcode == Opcode::CreateTenant {
                registry.create_tenant(&spec.tenant, config, spec.durable)?;
            } else {
                registry.recover_tenant(&spec.tenant, config)?;
            }
            Ok(())
        }
        Opcode::Ingest => {
            let tenant = cursor.take_str()?;
            // The payload goes to the window as received: checked (catalog
            // bound included), transposed and, on a durable tenant, logged
            // in one pass.
            let outcome = registry.get(&tenant)?.ingest_encoded(cursor.rest())?;
            body.push(matches!(outcome, IngestOutcome::Applied(_)) as u8);
            Ok(())
        }
        Opcode::Mine => {
            let tenant = cursor.take_str()?;
            cursor.finish()?;
            let result = registry.get(&tenant)?.mine()?;
            put_patterns(body, result.patterns());
            Ok(())
        }
        Opcode::DropTenant => {
            let tenant = cursor.take_str()?;
            cursor.finish()?;
            connection.subscriptions.remove(&tenant);
            registry.drop_tenant(&tenant)
        }
        Opcode::ListTenants => {
            cursor.finish()?;
            let statuses = registry.statuses();
            put_u32(body, statuses.len() as u32);
            for (tenant, status) in &statuses {
                TenantStatus {
                    tenant: tenant.clone(),
                    state: status.state,
                    resident_bytes: status.resident_bytes,
                    thaws: status.thaws,
                    thaw_nanos: status.thaw_nanos,
                }
                .encode_into(body);
            }
            Ok(())
        }
        Opcode::Subscribe => {
            let tenant = cursor.take_str()?;
            cursor.finish()?;
            let subscription = registry.get(&tenant)?.subscribe();
            connection.subscriptions.insert(tenant, subscription);
            Ok(())
        }
        Opcode::Poll => {
            let tenant = cursor.take_str()?;
            cursor.finish()?;
            let subscription = connection.subscriptions.get_mut(&tenant).ok_or_else(|| {
                FsmError::config(format!(
                    "tenant {tenant:?} is not subscribed on this connection"
                ))
            })?;
            match subscription.poll() {
                None => body.push(0),
                Some(result) => {
                    body.push(1);
                    put_patterns(body, result.patterns());
                }
            }
            Ok(())
        }
    }
}

/// The largest path catalog a [`TenantSpec`] may ask for, in edges.
/// Building a catalog grows faster than linearly in its size, and a
/// `CreateTenant` frame holds its connection while it builds.
const MAX_PATH_EDGES: u32 = 65_536;

/// The largest complete-graph catalog a [`TenantSpec`] may ask for, in
/// vertices: 8 128 edges.
const MAX_COMPLETE_VERTICES: u32 = 128;

/// Materialises the [`MinerConfig`] a [`TenantSpec`] describes, refusing a
/// catalog over its kind's limit before building any of it.  Durable
/// directories and the governor stay the registry's business.
pub fn miner_config(spec: &TenantSpec) -> Result<MinerConfig> {
    let algorithm = *Algorithm::ALL.get(spec.algorithm as usize).ok_or_else(|| {
        FsmError::config(format!(
            "algorithm index {} out of range 0..{}",
            spec.algorithm,
            Algorithm::ALL.len()
        ))
    })?;
    let (build, limit, unit): (fn(u32) -> EdgeCatalog, u32, &str) = match spec.catalog_kind {
        0 => (EdgeCatalog::path, MAX_PATH_EDGES, "edges of a path"),
        1 => (
            EdgeCatalog::complete,
            MAX_COMPLETE_VERTICES,
            "vertices of a complete graph",
        ),
        other => {
            return Err(FsmError::config(format!(
                "unknown catalog kind {other} (0 = path, 1 = complete)"
            )))
        }
    };
    if spec.catalog_n > limit {
        return Err(FsmError::config(format!(
            "catalog_n {} is over the limit of {limit} {unit}",
            spec.catalog_n
        )));
    }
    let catalog = build(spec.catalog_n);
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
        MinSup::checked_relative(f64::from_bits(spec.minsup))?
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

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(catalog_kind: u8, catalog_n: u32) -> TenantSpec {
        TenantSpec {
            catalog_kind,
            catalog_n,
            ..TenantSpec::new("wide")
        }
    }

    #[test]
    fn a_relative_minsup_outside_zero_to_one_is_refused() {
        let relative = |fraction: f64| {
            miner_config(&TenantSpec {
                minsup_absolute: false,
                minsup: fraction.to_bits(),
                ..spec(0, 8)
            })
        };
        for refused in [f64::NAN, 0.0, -0.0, -0.5, 1.5, f64::INFINITY] {
            let err = relative(refused).unwrap_err();
            assert!(
                matches!(err, FsmError::InvalidConfig(_)),
                "{refused}: {err}"
            );
        }
        for accepted in [0.05, 1.0] {
            let config = relative(accepted).unwrap();
            assert_eq!(config.min_support, MinSup::Relative(accepted));
        }
    }

    #[test]
    fn catalogs_over_their_kinds_limit_are_refused() {
        for (kind, limit) in [(0, MAX_PATH_EDGES), (1, MAX_COMPLETE_VERTICES)] {
            let err = miner_config(&spec(kind, u32::MAX)).unwrap_err();
            assert!(
                matches!(&err, FsmError::InvalidConfig(message) if message.contains(&limit.to_string())),
                "kind {kind}: {err}"
            );
            assert!(miner_config(&spec(kind, limit + 1)).is_err(), "kind {kind}");
            let config = miner_config(&spec(kind, limit)).unwrap();
            assert!(config.catalog.unwrap().num_edges() > 0, "kind {kind}");
        }
    }
}
