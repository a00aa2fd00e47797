//! The end-to-end run: a real in-process `fsm_fsmd::serve` on loopback
//! TCP, driven closed-loop by one blocking [`FsmdClient`] per generator
//! thread.
//!
//! The protocol is strictly request/response, so the load is a closed
//! loop: a connection sends its next request only after the previous reply
//! is decoded.  A *step* is one `ingest(tenant_a, batch)` immediately
//! followed by one `mine(tenant_b)` on the same connection; its latency
//! runs from just before the ingest request is encoded to just after the
//! mine response is decoded.  Verification happens after the timestamp.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use fsm_core::{Exec, LifecycleState, RegistryConfig, SessionRegistry, WorkerPool};
use fsm_fsmd::{serve, FsmdClient, ServerHandle};
use fsm_storage::{BudgetGovernor, TempDir};
use fsm_types::{Batch, FsmError, Result};

use crate::stats::quantile;
use crate::trace::{Tracer, ROOT};
use crate::workload::{Expect, Inputs, Schedule, Workload, CYCLE, POOL_THREADS};

/// When a timed round ends.  Always at a cycle boundary, so every round is
/// a whole number of cycles and sees the same mix of cycle positions: after
/// `max_cycles`, or once `seconds` have passed *and* at least `min_cycles`
/// ran.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    /// Wall-clock budget of the round.
    pub seconds: f64,
    /// Fewest cycles a timed round runs, however slow the steps.
    pub min_cycles: u64,
    /// Cycle cap (`u64::MAX` for none).
    pub max_cycles: u64,
}

impl Limit {
    /// Cycles a timed round needs so that its 95th percentile has at least
    /// ten samples beyond it: 7 x 32 = 224 >= 200 steps.
    pub const P95_CYCLES: u64 = 7;

    /// Exactly `cycles` cycles, however long they take.
    pub fn cycles(cycles: u64) -> Self {
        Self {
            seconds: 0.0,
            min_cycles: cycles,
            max_cycles: cycles,
        }
    }

    /// Whole cycles until `seconds` have passed, and at least
    /// [`Limit::P95_CYCLES`] of them.
    pub fn seconds(seconds: f64) -> Self {
        Self {
            seconds,
            min_cycles: Self::P95_CYCLES,
            max_cycles: u64::MAX,
        }
    }

    /// Whether a phase that ran `cycles` cycles since `started` is over.
    pub fn reached(&self, cycles: u64, started: Instant) -> bool {
        cycles >= self.max_cycles
            || (cycles >= self.min_cycles && started.elapsed().as_secs_f64() >= self.seconds)
    }
}

/// The server-side resources a workload's posture calls for — shared by the
/// served run and the socket-less session rung so both configure the
/// registry identically.
pub struct Harness {
    /// The tenant table under test.
    pub registry: Arc<SessionRegistry>,
    /// The process-wide chunk-cache cap, when the workload runs one.
    pub governor: Option<Arc<BudgetGovernor>>,
    /// The shared mining pool (also lent to the miner rung).
    pub pool: Arc<WorkerPool>,
    /// Volatile tenants' spill root, when the workload caps residency.
    pub spill_root: Option<TempDir>,
    /// Durable tenants' root, when the workload is durable.
    pub durable_root: Option<TempDir>,
}

impl Harness {
    /// Builds the registry exactly as `fsmd serve` would for this posture:
    /// `WorkerPool::new(2)`, default pending bound, optional governor,
    /// durable root and residency cap.
    pub fn new(workload: &Workload) -> Result<Self> {
        let pool = Arc::new(WorkerPool::new(POOL_THREADS));
        let governor = workload.governor_total.map(BudgetGovernor::new);
        let durable_root = workload
            .durable
            .then(|| TempDir::new("bench-durable"))
            .transpose()?;
        let spill_root = (workload.max_resident.is_some() && !workload.durable)
            .then(|| TempDir::new("bench-spill"))
            .transpose()?;
        let registry = Arc::new(SessionRegistry::new(RegistryConfig {
            exec: Exec::pool(Arc::clone(&pool)),
            governor: governor.clone(),
            durable_root: durable_root.as_ref().map(|d| d.path().to_path_buf()),
            max_pending_batches: RegistryConfig::DEFAULT_MAX_PENDING,
            max_resident: workload.max_resident,
            max_resident_bytes: None,
            spill_root: spill_root.as_ref().map(|d| d.path().to_path_buf()),
        }));
        Ok(Self {
            registry,
            governor,
            pool,
            spill_root,
            durable_root,
        })
    }

    /// Windows resident right now.
    pub fn resident(&self) -> usize {
        self.registry
            .statuses()
            .iter()
            .filter(|(_, s)| s.state != LifecycleState::Spilled)
            .count()
    }

    /// Resident window bytes right now, summed over tenants.
    pub fn resident_bytes(&self) -> u64 {
        self.registry
            .statuses()
            .iter()
            .map(|(_, s)| s.resident_bytes)
            .sum()
    }

    /// Bytes of spill images under the spill root right now.
    pub fn spill_bytes(&self) -> u64 {
        fn walk(dir: &std::path::Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|entry| match entry.metadata() {
                    Ok(meta) if meta.is_dir() => walk(&entry.path()),
                    Ok(meta) => meta.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        self.spill_root.as_ref().map_or(0, |root| walk(root.path()))
    }
}

/// What one connection measured in one round.
#[derive(Debug, Default)]
pub struct ConnSamples {
    /// Step latencies (ns), in send order.
    pub step_ns: Vec<u64>,
    /// How many steps the connection's schedule had handed out before
    /// `step_ns[0]`: sample `i` sits at schedule position `first_step + i`.
    pub first_step: u64,
    /// Ingest round trips (ns); traced rounds only.
    pub ingest_ns: Vec<u64>,
    /// Mine round trips (ns); traced rounds only.
    pub mine_ns: Vec<u64>,
    /// Wall time of the round on this connection.
    pub wall: Duration,
    /// Transactions the server accepted.
    pub transactions: u64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed: `Status::Err`, I/O errors, backpressure
    /// refusals and checksum mismatches.
    pub failed: u64,
    /// Ingests the server parked in the tenant's queue.
    pub queued: u64,
    /// Ingests refused with `Status::Backpressure`.
    pub backpressure: u64,
    /// First failure seen, for the report.
    pub first_failure: Option<String>,
}

/// One round over every connection.
#[derive(Debug, Default)]
pub struct Round {
    /// Per-connection samples.
    pub connections: Vec<ConnSamples>,
}

impl Round {
    /// Transactions per second, summed over connections.
    pub fn tx_per_s(&self) -> f64 {
        self.connections
            .iter()
            .map(|c| c.transactions as f64 / c.wall.as_secs_f64())
            .sum()
    }

    /// Step latencies of every connection pooled.
    pub fn steps(&self) -> Vec<u64> {
        self.pooled(|c| &c.step_ns)
    }

    /// One sample vector of every connection pooled.
    pub fn pooled(&self, pick: impl Fn(&ConnSamples) -> &Vec<u64>) -> Vec<u64> {
        self.connections
            .iter()
            .flat_map(|c| pick(c).iter().copied())
            .collect()
    }

    /// A quantile of the pooled step latencies, in milliseconds.
    pub fn step_ms(&self, q: f64) -> f64 {
        quantile(&self.steps(), q) / 1e6
    }

    /// Sum of one counter over connections.
    pub fn total(&self, pick: impl Fn(&ConnSamples) -> u64) -> u64 {
        self.connections.iter().map(pick).sum()
    }

    /// First failure message of the round, if any request failed.
    pub fn first_failure(&self) -> Option<&str> {
        self.connections
            .iter()
            .find_map(|c| c.first_failure.as_deref())
    }
}

/// A warmed server plus its connected clients, ready for timed rounds.
pub struct Instance {
    /// Registry, pool, governor and roots; dropped with the instance.
    _harness: Harness,
    handle: ServerHandle,
    control: FsmdClient,
    clients: Vec<FsmdClient>,
    schedules: Vec<Schedule>,
    /// One private copy of the cycle per connection (batch ids are
    /// rewritten in place before each send).
    batches: Vec<Vec<Batch>>,
    names: Vec<String>,
    /// Requests sent so far, set-up and final checks included.
    pub attempted: u64,
    /// Requests failed so far.
    pub failed: u64,
    /// First failure seen, for the report.
    pub first_failure: Option<String>,
}

impl Instance {
    /// Server start, tenant creation, window fill (each tenant mined and
    /// checked once) and one warm-up cycle per connection.
    pub fn start(workload: &Workload, inputs: &Inputs, seed: u64) -> Result<Self> {
        let harness = Harness::new(workload)?;
        let handle = serve(Arc::clone(&harness.registry), "127.0.0.1:0")?;
        let addr = handle.local_addr();
        let mut control = FsmdClient::connect(addr)?;
        let tenants = workload.routing.tenants();
        let names: Vec<String> = (0..tenants).map(|t| workload.tenant_name(t)).collect();
        let mut attempted = 0;
        let mut failed = 0;
        let mut first_failure = None;
        for (t, name) in names.iter().enumerate() {
            control.create_tenant(&workload.spec(t))?;
            let expect = inputs.fill_window(seed, t, |batch| {
                attempted += 1;
                control.ingest(name, batch).map(drop)
            })?;
            let patterns = control.mine(name)?;
            attempted += 1;
            if !inputs.matches(expect, &patterns) {
                failed += 1;
                first_failure.get_or_insert_with(|| format!("{name}: filled window mismatch"));
            }
        }
        let connections = workload.routing.connections();
        let clients = (0..connections)
            .map(|_| FsmdClient::connect(addr))
            .collect::<Result<Vec<_>>>()?;
        let schedules = (0..connections)
            .map(|c| Schedule::after_fill(workload, seed, c))
            .collect();
        let mut instance = Self {
            _harness: harness,
            handle,
            control,
            clients,
            schedules,
            batches: vec![inputs.batches.clone(); connections],
            names,
            attempted,
            failed,
            first_failure,
        };
        instance.round(inputs, Limit::cycles(1), None);
        Ok(instance)
    }

    /// Runs one round on every connection at once.  Given one tracer per
    /// connection, each also records `step` / `FsmdClient::ingest` /
    /// `FsmdClient::mine` spans (the ladder's `client` rung).
    pub fn round(
        &mut self,
        inputs: &Inputs,
        limit: Limit,
        tracers: Option<&mut [Tracer]>,
    ) -> Round {
        let barrier = Barrier::new(self.clients.len());
        let names = &self.names;
        let mut tracers = tracers.map(|t| t.iter_mut());
        let mut round = Round::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(self.schedules.iter_mut())
                .zip(self.batches.iter_mut())
                .map(|((client, schedule), batches)| {
                    let barrier = &barrier;
                    let tracer = tracers
                        .as_mut()
                        .map(|t| t.next().expect("one tracer per connection"));
                    scope.spawn(move || {
                        barrier.wait();
                        drive(client, schedule, batches, names, inputs, limit, tracer)
                    })
                })
                .collect();
            for handle in handles {
                round
                    .connections
                    .push(handle.join().expect("generator thread panicked"));
            }
        });
        self.attempted += round.total(|c| c.attempted);
        self.failed += round.total(|c| c.failed);
        if self.first_failure.is_none() {
            self.first_failure = round.first_failure().map(str::to_string);
        }
        round
    }

    /// Final exact check of every tenant's window (each connection's
    /// schedule knows where the tenants it feeds must be), then hang up and
    /// stop the server.
    pub fn finish(mut self, inputs: &Inputs) -> (u64, u64, Option<String>) {
        for schedule in &self.schedules {
            for t in schedule.owned_tenants() {
                self.attempted += 1;
                let ok = match self.control.mine(&self.names[t]) {
                    Ok(patterns) => {
                        inputs.matches(Expect::Position(schedule.position(t)), &patterns)
                    }
                    Err(_) => false,
                };
                if !ok {
                    self.failed += 1;
                    self.first_failure
                        .get_or_insert_with(|| format!("{}: final window mismatch", self.names[t]));
                }
            }
        }
        drop(self.clients);
        drop(self.control);
        self.handle.shutdown();
        (self.attempted, self.failed, self.first_failure)
    }
}

/// One connection's closed loop for one round.
fn drive(
    client: &mut FsmdClient,
    schedule: &mut Schedule,
    batches: &mut [Batch],
    names: &[String],
    inputs: &Inputs,
    limit: Limit,
    mut tracer: Option<&mut Tracer>,
) -> ConnSamples {
    let mut samples = ConnSamples {
        first_step: schedule.steps_taken(),
        ..ConnSamples::default()
    };
    let started = Instant::now();
    let mut cycles = 0;
    loop {
        for _ in 0..CYCLE {
            // Counted from the connection's first step, as on the other
            // rungs, so span step ids stay unique across rounds.
            let step_no = schedule.steps_taken();
            let step = schedule.next_step();
            let batch = &mut batches[step.batch];
            batch.id = step.batch_id;
            let (ingested, mined) = match tracer.as_deref_mut() {
                None => {
                    let t0 = Instant::now();
                    let ingested = client.ingest(&names[step.ingest], batch);
                    let mined = client.mine(&names[step.mine]);
                    samples.step_ns.push(t0.elapsed().as_nanos() as u64);
                    (ingested, mined)
                }
                Some(tracer) => {
                    let root = tracer.open("step", step_no, ROOT);
                    let (ingested, ingest_ns) =
                        tracer.time("FsmdClient::ingest", step_no, root, || {
                            client.ingest(&names[step.ingest], batch)
                        });
                    let (mined, mine_ns) = tracer.time("FsmdClient::mine", step_no, root, || {
                        client.mine(&names[step.mine])
                    });
                    samples.step_ns.push(tracer.close(root));
                    samples.ingest_ns.push(ingest_ns);
                    samples.mine_ns.push(mine_ns);
                    (ingested, mined)
                }
            };
            // Everything below is verification: after the timestamps.
            let transactions = batch.len() as u64;
            samples.attempted += 2;
            let mut expect = step.expect;
            match ingested {
                Ok(applied) => {
                    samples.transactions += transactions;
                    samples.queued += u64::from(!applied);
                }
                Err(err) => {
                    samples.failed += 1;
                    samples.backpressure += u64::from(matches!(err, FsmError::Backpressure { .. }));
                    samples.first_failure.get_or_insert_with(|| {
                        format!("ingest {} step {step_no}: {err}", names[step.ingest])
                    });
                    // The batch never reached the window: resend it next
                    // time and expect the window where it was.
                    expect = schedule.retract(&step);
                }
            }
            let ok = match &mined {
                Ok(patterns) => inputs.matches(expect, patterns),
                Err(_) => false,
            };
            if !ok {
                samples.failed += 1;
                samples.first_failure.get_or_insert_with(|| match &mined {
                    Ok(_) => format!(
                        "mine {} step {step_no}: checksum mismatch",
                        names[step.mine]
                    ),
                    Err(err) => format!("mine {} step {step_no}: {err}", names[step.mine]),
                });
            }
        }
        cycles += 1;
        if limit.reached(cycles, started) {
            break;
        }
    }
    samples.wall = started.elapsed();
    samples
}
