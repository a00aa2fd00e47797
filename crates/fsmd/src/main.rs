//! `fsmd` — serve many sliding windows from one process, or drive one
//! tenant of a running server from a file.
//!
//! ```text
//! fsmd serve --listen 127.0.0.1:7878 [--pool N] [--cache-total BYTES]
//!            [--durable-root DIR] [--max-pending N] [--max-resident N]
//!            [--resident-bytes BYTES] [--spill-root DIR]
//! fsmd drive --addr 127.0.0.1:7878 --input FILE [--tenant NAME]
//!            [--algorithm NAME] [--window W] [--minsup V] [--batch-size B]
//!            [--backend memory|disk] [--cache-budget BYTES]
//!            [--durable] [--recover] [--delta] [--keep] [--verbose]
//! ```
//!
//! `serve` hosts a [`fsm_core::SessionRegistry`]: every tenant mine
//! multiplexes over one worker pool, disk-backed tenants lease chunk-cache
//! bytes from one governor, durable tenants live under
//! `--durable-root/<tenant>/`.  With `--max-resident` / `--resident-bytes`
//! the registry keeps only that much window state in memory, spilling cold
//! tenants (volatile ones under `--spill-root/<tenant>/`, durable ones via
//! their checkpoints) and thawing them transparently on the next request.
//!
//! `drive` replays a FIMI file into one tenant over the socket (honouring
//! backpressure), mines the final window and prints the patterns in
//! exactly the format of the single-tenant `fsm` CLI — `diff` against it
//! is the service's isolation smoke test.

use std::process::ExitCode;
use std::sync::Arc;

use fsm_core::{Exec, RegistryConfig, SessionRegistry, WorkerPool};
use fsm_datagen::read_fimi;
use fsm_storage::BudgetGovernor;
use fsm_stream::BatchBuilder;
use fsm_types::{FsmError, Result};

use fsm_fsmd::{serve, FsmdClient, TenantSpec};

const USAGE: &str = "\
fsmd — multi-tenant streaming frequent-subgraph mining service

USAGE:
  fsmd serve --listen HOST:PORT [OPTIONS]
  fsmd drive --addr HOST:PORT --input FILE [OPTIONS]

SERVE OPTIONS:
  --listen <HOST:PORT>  address to bind (port 0 picks one; it is printed)
  --pool <N>            shared mining worker threads (0 = all cores, default 0)
  --cache-total <BYTES> process-wide chunk-cache cap leased to disk tenants
  --durable-root <DIR>  root for per-tenant WAL/checkpoint directories
  --max-pending <N>     per-tenant ingest queue bound (default 64)
  --max-resident <N>    keep at most N tenant windows in memory; colder
                        tenants spill and thaw transparently on demand
  --resident-bytes <B>  byte cap on summed resident window state
  --spill-root <DIR>    root for volatile tenants' spill images (without
                        it only durable tenants are evictable)

DRIVE OPTIONS:
  --addr <HOST:PORT>    running fsmd server
  --input <FILE>        FIMI transaction file
  --tenant <NAME>       tenant id (default: drive)
  --algorithm <NAME>    multi-tree | single-tree | top-down | vertical |
                        direct-vertical        (default: direct-vertical)
  --minsup <VALUE>      absolute count (e.g. 20) or fraction (e.g. 0.05)
  --window <N>          sliding window size in batches     (default: 5)
  --batch-size <N>      transactions per batch             (default: 1000)
  --backend <NAME>      memory | disk                      (default: disk)
  --cache-budget <B>    desired decoded-chunk cache bytes (leased)
  --catalog-items <N>   item count for the path catalog (default: derived
                        from the input; required by --recover when the
                        input is empty)
  --durable             root the tenant under the server's durable root
  --recover             recover the tenant instead of creating it
  --delta               maintain the pattern set incrementally
  --keep                leave the tenant on the server after driving
  --verbose             also print every tenant's lifecycle state,
                        resident bytes and thaw stats after mining
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => run_serve(&args[1..]),
        Some("drive") => run_drive(&args[1..]),
        Some("--help" | "-h") | None => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(FsmError::config(format!(
            "unknown subcommand '{other}' (expected serve or drive)"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Pulls `--flag value` / `--switch` options out of an argument list.
struct Flags<'a> {
    args: &'a [String],
    switches: &'a [&'a str],
}

impl<'a> Flags<'a> {
    fn value(&self, flag: &str) -> Result<Option<&'a str>> {
        let Some(at) = self.args.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        self.args
            .get(at + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| FsmError::config(format!("{flag} needs a value")))
    }

    fn present(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T> {
        match self.value(flag)? {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| FsmError::config(format!("{flag}: cannot parse {raw:?}"))),
        }
    }

    /// Rejects flags this subcommand does not know — a typo must not
    /// silently fall back to a default.
    fn check_known(&self, known: &[&str]) -> Result<()> {
        let mut expecting_value = false;
        for arg in self.args {
            if expecting_value {
                expecting_value = false;
                continue;
            }
            if !known.contains(&arg.as_str()) {
                return Err(FsmError::config(format!("unknown option '{arg}'")));
            }
            expecting_value = !self.switches.contains(&arg.as_str());
        }
        Ok(())
    }
}

fn run_serve(args: &[String]) -> Result<()> {
    let flags = Flags {
        args,
        switches: &[],
    };
    flags.check_known(&[
        "--listen",
        "--pool",
        "--cache-total",
        "--durable-root",
        "--max-pending",
        "--max-resident",
        "--resident-bytes",
        "--spill-root",
    ])?;
    let listen = flags
        .value("--listen")?
        .ok_or_else(|| FsmError::config("serve needs --listen HOST:PORT"))?;
    let pool: usize = flags.parsed("--pool", 0)?;
    let config = RegistryConfig {
        exec: Exec::pool(Arc::new(WorkerPool::new(pool))),
        governor: flags
            .value("--cache-total")?
            .map(|raw| {
                raw.parse::<usize>()
                    .map(BudgetGovernor::new)
                    .map_err(|_| FsmError::config(format!("--cache-total: cannot parse {raw:?}")))
            })
            .transpose()?,
        durable_root: flags.value("--durable-root")?.map(Into::into),
        max_pending_batches: flags.parsed("--max-pending", RegistryConfig::DEFAULT_MAX_PENDING)?,
        max_resident: flags
            .value("--max-resident")?
            .map(|raw| {
                raw.parse::<usize>()
                    .map_err(|_| FsmError::config(format!("--max-resident: cannot parse {raw:?}")))
            })
            .transpose()?,
        max_resident_bytes: flags
            .value("--resident-bytes")?
            .map(|raw| {
                raw.parse::<usize>().map_err(|_| {
                    FsmError::config(format!("--resident-bytes: cannot parse {raw:?}"))
                })
            })
            .transpose()?,
        spill_root: flags.value("--spill-root")?.map(Into::into),
    };
    let registry = Arc::new(SessionRegistry::new(config));
    let handle = serve(registry, listen)?;
    // Port 0 binds an ephemeral port; announce the resolved address so
    // scripts (and the CI smoke test) can connect — and the kernel tier, so
    // a host that fell back to `portable` shows in its own log.
    eprintln!(
        "fsmd listening on {} (bitvec kernels: {})",
        handle.local_addr(),
        fsm_storage::bitvec::kernel_tier()
    );
    handle.wait();
    Ok(())
}

fn run_drive(args: &[String]) -> Result<()> {
    let flags = Flags {
        args,
        switches: &["--durable", "--recover", "--delta", "--keep", "--verbose"],
    };
    flags.check_known(&[
        "--addr",
        "--input",
        "--tenant",
        "--algorithm",
        "--minsup",
        "--window",
        "--batch-size",
        "--backend",
        "--cache-budget",
        "--catalog-items",
        "--durable",
        "--recover",
        "--delta",
        "--keep",
        "--verbose",
    ])?;
    let addr = flags
        .value("--addr")?
        .ok_or_else(|| FsmError::config("drive needs --addr HOST:PORT"))?;
    let input = flags
        .value("--input")?
        .ok_or_else(|| FsmError::config("drive needs --input FILE"))?;
    let tenant = flags.value("--tenant")?.unwrap_or("drive").to_string();
    let algorithm = match flags.value("--algorithm")?.unwrap_or("direct-vertical") {
        "multi-tree" => 0,
        "single-tree" => 1,
        "top-down" => 2,
        "vertical" => 3,
        "direct-vertical" | "direct" => 4,
        other => return Err(FsmError::config(format!("unknown algorithm '{other}'"))),
    };
    let (minsup_absolute, minsup) = match flags.value("--minsup")? {
        None => (true, 1),
        Some(raw) => match raw.parse::<u64>() {
            Ok(count) => (true, count),
            Err(_) => {
                let fraction: f64 = raw
                    .parse()
                    .map_err(|_| FsmError::config(format!("--minsup: cannot parse {raw:?}")))?;
                (false, fraction.to_bits())
            }
        },
    };
    let backend = match flags.value("--backend")?.unwrap_or("disk") {
        "memory" => 0,
        "disk" => 1,
        other => return Err(FsmError::config(format!("unknown backend '{other}'"))),
    };
    let window: u32 = flags.parsed("--window", 5)?;
    let batch_size: usize = flags.parsed("--batch-size", 1000)?;

    // Same input convention as the `fsm` CLI: FIMI items laid out on a
    // path graph so "connected" is well defined.
    let transactions = read_fimi(input)?;
    let max_item = transactions
        .iter()
        .flat_map(|t| t.iter())
        .map(|e| e.0 + 1)
        .max()
        .unwrap_or(0);
    // Recovery must rebuild the tenant with its *original* catalog width —
    // deriving it from the (possibly empty) recovery input would silently
    // shrink the catalog and drop every multi-edge pattern.
    let catalog_n = match flags.value("--catalog-items")? {
        Some(raw) => raw
            .parse()
            .map_err(|_| FsmError::config(format!("--catalog-items: cannot parse {raw:?}")))?,
        None if flags.present("--recover") && max_item == 0 => {
            return Err(FsmError::config(
                "--recover with an empty input needs --catalog-items \
                 (the original run's item count)",
            ));
        }
        None => max_item,
    };

    let spec = TenantSpec {
        tenant: tenant.clone(),
        algorithm,
        window_batches: window,
        minsup_absolute,
        minsup,
        catalog_kind: 0,
        catalog_n,
        backend,
        cache_budget: flags.parsed("--cache-budget", 0u64)?,
        durable: flags.present("--durable"),
        delta: flags.present("--delta"),
    };

    let mut client = FsmdClient::connect(addr)?;
    if flags.present("--recover") {
        client.recover_tenant(&spec)?;
    } else {
        client.create_tenant(&spec)?;
    }

    let mut batcher = BatchBuilder::new(batch_size);
    let mut batches = batcher.extend(transactions);
    if let Some(last) = batcher.flush() {
        batches.push(last);
    }
    let total = batches.len();
    for batch in &batches {
        client.ingest_retrying(&tenant, batch)?;
    }
    eprintln!("drove {total} batches into tenant {tenant:?}");

    let patterns = client.mine(&tenant)?;
    println!("{} frequent connected collections:", patterns.len());
    for pattern in &patterns {
        println!("  {pattern}");
    }

    if flags.present("--verbose") {
        for status in client.list_tenants_detailed()? {
            eprintln!(
                "tenant {:?}: state {} resident {} B, {} thaws ({} ns total)",
                status.tenant, status.state, status.resident_bytes, status.thaws, status.thaw_nanos
            );
        }
    }

    if !flags.present("--keep") {
        client.drop_tenant(&tenant)?;
    }
    Ok(())
}
