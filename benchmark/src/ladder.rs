//! The outside-in ladder: the served run's request schedule replayed with
//! one layer stripped per rung, spans wrapped around public calls only.
//!
//! * `client` — the socket run again with spans (lives in [`crate::served`]);
//! * `session` — no socket: wire encode/decode into a byte buffer plus
//!   `Session::ingest` / `Session::mine` on a fresh, identically configured
//!   registry;
//! * `miner` — standalone `StreamMiner`s built from
//!   `fsm_fsmd::server::miner_config(spec)`, mined under `Exec::pool` and
//!   `Exec::scoped(1)`;
//! * `matrix` — standalone `DsMatrix`es: `ingest_batch` and `view()`;
//! * kernel probe — `BitVec::and_count` / `and_into` on window-length rows.
//!
//! Every rung is resumable: `start` sets it up and warms it, `cycle` advances
//! it by one cycle of the schedule.  The traced run steps all rungs in turn,
//! one cycle each per lap, so adjacent rungs sample the same seconds of the
//! host — self-times are differences of adjacent rung medians, and on a host
//! whose speed drifts by tens of percent over minutes, rungs run one after
//! another would mostly measure the drift.
//!
//! Counts come from `MiningStats`, `DeltaStats`, `SessionStatus`,
//! `Session::thaw_latencies()` and `BudgetGovernor::granted_bytes()`.  Every
//! rung that mines checks its patterns against the same oracle the served run
//! is checked against.

use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use fsm_core::{Exec, IngestOutcome, MinerConfig, SessionRegistry, StreamMiner};
use fsm_dsmatrix::{decode_batch, encode_batch, DsMatrix, DsMatrixConfig, DurabilityConfig};
use fsm_fsmd::proto::{put_patterns, put_str, read_frame, take_patterns, write_frame, Cursor};
use fsm_fsmd::server::miner_config;
use fsm_fsmd::{Opcode, Status};
use fsm_storage::BitVec;
use fsm_types::{Batch, FsmError, Result};

use crate::served::Harness;
use crate::trace::{Tracer, ROOT};
use crate::workload::{Inputs, Schedule, Step, Workload, CYCLE, WINDOW};

/// What the `session` rung measured.
#[derive(Debug, Default)]
pub struct SessionStats {
    /// Whole-step latencies (encode + decode + ingest + mine), ns.
    pub step_ns: Vec<u64>,
    /// `Session::ingest` spans, ns.
    pub ingest_ns: Vec<u64>,
    /// `Session::mine` spans, ns.
    pub mine_ns: Vec<u64>,
    /// Per-step sum of the encode spans, ns.
    pub encode_ns: Vec<u64>,
    /// Per-step sum of the decode spans, ns.
    pub decode_ns: Vec<u64>,
    /// Step latencies of steps that thawed nothing, ns.
    pub hit_step_ns: Vec<u64>,
    /// Step latencies of steps that thawed a spilled tenant, ns.
    pub thaw_step_ns: Vec<u64>,
    /// Frame bytes (length prefixes included) that crossed the buffer.
    pub wire_bytes: u64,
    /// Steps measured.
    pub steps: u64,
    /// Thaws during the measured steps.
    pub thaws: u64,
    /// Individual thaw latencies (`Session::thaw_latencies`), ns.
    pub thaw_latencies: Vec<u64>,
    /// Summed resident window bytes at the end.
    pub resident_bytes: u64,
    /// Most windows resident at once (sampled after every step when a cap
    /// is set, once at the end otherwise).
    pub peak_resident: usize,
    /// `BudgetGovernor::granted_bytes()` at the end (0 without a governor).
    pub governor_granted: u64,
    /// Bytes of spill images on disk at the end.
    pub spill_bytes: u64,
    /// Mines checked.
    pub attempted: u64,
    /// Calls that failed or mismatched.
    pub failed: u64,
}

impl SessionStats {
    fn absorb(&mut self, part: SessionStats) {
        self.step_ns.extend(part.step_ns);
        self.ingest_ns.extend(part.ingest_ns);
        self.mine_ns.extend(part.mine_ns);
        self.encode_ns.extend(part.encode_ns);
        self.decode_ns.extend(part.decode_ns);
        self.hit_step_ns.extend(part.hit_step_ns);
        self.thaw_step_ns.extend(part.thaw_step_ns);
        self.wire_bytes += part.wire_bytes;
        self.steps += part.steps;
        self.thaws += part.thaws;
        self.peak_resident = self.peak_resident.max(part.peak_resident);
        self.attempted += part.attempted;
        self.failed += part.failed;
    }
}

/// The `session` rung: the workload's schedule against `Session::ingest` /
/// `Session::mine` with the wire codec but no socket.
pub struct SessionRung {
    harness: Harness,
    names: Vec<String>,
    schedules: Vec<Schedule>,
    batches: Vec<Vec<Batch>>,
    tracers: Vec<Tracer>,
    stats: SessionStats,
}

impl SessionRung {
    /// Registry, tenants, window fill (each tenant mined and checked once)
    /// and one unmeasured warm-up cycle.
    pub fn start(workload: &Workload, inputs: &Inputs, seed: u64, epoch: Instant) -> Result<Self> {
        let harness = Harness::new(workload)?;
        let tenants = workload.routing.tenants();
        let names: Vec<String> = (0..tenants).map(|t| workload.tenant_name(t)).collect();
        let mut stats = SessionStats::default();
        for (t, name) in names.iter().enumerate() {
            let spec = workload.spec(t);
            let session =
                harness
                    .registry
                    .create_tenant(name, miner_config(&spec)?, spec.durable)?;
            let expect = inputs.fill_window(seed, t, |batch| session.ingest(batch).map(drop))?;
            let result = session.mine()?;
            stats.attempted += 1;
            stats.failed += u64::from(!inputs.matches(expect, result.patterns()));
        }
        let connections = workload.routing.connections();
        let mut rung = Self {
            harness,
            names,
            schedules: (0..connections)
                .map(|c| Schedule::after_fill(workload, seed, c))
                .collect(),
            batches: vec![inputs.batches.clone(); connections],
            tracers: (0..connections)
                .map(|c| Tracer::new("session", c as u32, epoch))
                .collect(),
            stats,
        };
        rung.cycle(inputs, false);
        Ok(rung)
    }

    /// One cycle on every connection at once.  Samples are kept when
    /// `measured`; checks always count.
    pub fn cycle(&mut self, inputs: &Inputs, measured: bool) {
        let barrier = Barrier::new(self.schedules.len());
        let (harness, names) = (&self.harness, &self.names);
        let parts: Vec<SessionStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .schedules
                .iter_mut()
                .zip(self.batches.iter_mut())
                .zip(self.tracers.iter_mut())
                .map(|((schedule, batches), tracer)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        session_cycle(harness, schedule, batches, names, inputs, tracer)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("session-rung thread panicked"))
                .collect()
        });
        for part in parts {
            if measured {
                self.stats.absorb(part);
            } else {
                self.stats.attempted += part.attempted;
                self.stats.failed += part.failed;
            }
        }
    }

    /// End-of-run counters, then the statistics and the spans.
    pub fn finish(self) -> Result<(SessionStats, Vec<Tracer>)> {
        let mut stats = self.stats;
        stats.resident_bytes = self.harness.resident_bytes();
        stats.peak_resident = stats.peak_resident.max(self.harness.resident());
        stats.governor_granted = self
            .harness
            .governor
            .as_ref()
            .map_or(0, |g| g.granted_bytes() as u64);
        stats.spill_bytes = self.harness.spill_bytes();
        for name in &self.names {
            stats
                .thaw_latencies
                .extend(self.harness.registry.get(name)?.thaw_latencies());
        }
        Ok((stats, self.tracers))
    }
}

/// One connection's cycle at the session rung.
fn session_cycle(
    harness: &Harness,
    schedule: &mut Schedule,
    batches: &mut [Batch],
    names: &[String],
    inputs: &Inputs,
    tracer: &mut Tracer,
) -> SessionStats {
    let registry: &SessionRegistry = &harness.registry;
    let capped = registry.config().max_resident.is_some();
    let mut stats = SessionStats::default();
    let mut wire = Vec::new();
    for _ in 0..CYCLE {
        let n = schedule.steps_taken();
        let step = schedule.next_step();
        let batch = &mut batches[step.batch];
        batch.id = step.batch_id;
        let thaws_before = if capped {
            registry
                .get(&names[step.ingest])
                .map_or(0, |s| s.status().thaws)
        } else {
            0
        };
        let (mut encode, mut decode) = (0, 0);
        let root = tracer.open("step", n, ROOT);

        // Ingest request: what FsmdClient::ingest writes ...
        wire.clear();
        let ((), ns) = tracer.time("proto::encode_request", n, root, || {
            let mut request = vec![Opcode::Ingest as u8];
            put_str(&mut request, &names[step.ingest]);
            request.extend_from_slice(&encode_batch(batch));
            write_frame(&mut wire, &request).expect("frame fits");
        });
        encode += ns;
        stats.wire_bytes += wire.len() as u64;
        // ... and what the server's handler reads.
        let (decoded, ns) = tracer.time("proto::decode_request", n, root, || {
            let request = read_frame(&mut &wire[..])?.expect("one frame");
            let mut cursor = Cursor::new(&request);
            Opcode::decode(cursor.take_u8()?)?;
            let tenant = cursor.take_str()?;
            Ok::<_, FsmError>((tenant, decode_batch(cursor.rest())?))
        });
        decode += ns;
        let (tenant, decoded_batch) = decoded.expect("request round-trips");
        let (outcome, ns) = tracer.time("Session::ingest", n, root, || {
            registry.get(&tenant)?.ingest(&decoded_batch)
        });
        stats.ingest_ns.push(ns);
        stats.wire_bytes += 4 + 2; // status + applied byte, framed
        let mut expect = step.expect;
        match outcome {
            Ok(IngestOutcome::Applied(_) | IngestOutcome::Queued) => {}
            Err(_) => {
                stats.failed += 1;
                expect = schedule.retract(&step);
            }
        }

        // Mine request and response.
        wire.clear();
        let ((), ns) = tracer.time("proto::encode_request", n, root, || {
            let mut request = vec![Opcode::Mine as u8];
            put_str(&mut request, &names[step.mine]);
            write_frame(&mut wire, &request).expect("frame fits");
        });
        encode += ns;
        stats.wire_bytes += wire.len() as u64;
        let (tenant, ns) = tracer.time("proto::decode_request", n, root, || {
            let request = read_frame(&mut &wire[..])?.expect("one frame");
            let mut cursor = Cursor::new(&request);
            Opcode::decode(cursor.take_u8()?)?;
            let tenant = cursor.take_str()?;
            cursor.finish()?;
            Ok::<_, FsmError>(tenant)
        });
        decode += ns;
        let tenant = tenant.expect("request round-trips");
        let (mined, ns) = tracer.time("Session::mine", n, root, || registry.get(&tenant)?.mine());
        stats.mine_ns.push(ns);
        let patterns = mined.map(|result| {
            wire.clear();
            let ((), ns) = tracer.time("proto::put_patterns", n, root, || {
                let mut response = vec![Status::Ok as u8];
                put_patterns(&mut response, result.patterns());
                write_frame(&mut wire, &response).expect("frame fits");
            });
            encode += ns;
            stats.wire_bytes += wire.len() as u64;
            let (patterns, ns) = tracer.time("proto::take_patterns", n, root, || {
                let response = read_frame(&mut &wire[..])?.expect("one frame");
                let mut cursor = Cursor::new(&response);
                cursor.take_u8()?;
                let patterns = take_patterns(&mut cursor)?;
                cursor.finish()?;
                Ok::<_, FsmError>(patterns)
            });
            decode += ns;
            patterns.expect("response round-trips")
        });
        let step_ns = tracer.close(root);

        // Bookkeeping and verification: after the timestamps.
        stats.step_ns.push(step_ns);
        stats.encode_ns.push(encode);
        stats.decode_ns.push(decode);
        stats.steps += 1;
        stats.attempted += 1;
        let ok = patterns.is_ok_and(|patterns| inputs.matches(expect, &patterns));
        stats.failed += u64::from(!ok);
        if capped {
            let thaws_after = registry
                .get(&names[step.ingest])
                .map_or(0, |s| s.status().thaws);
            if thaws_after > thaws_before {
                stats.thaws += thaws_after - thaws_before;
                stats.thaw_step_ns.push(step_ns);
            } else {
                stats.hit_step_ns.push(step_ns);
            }
            stats.peak_resident = stats.peak_resident.max(harness.resident());
        }
    }
    stats
}

/// The per-tenant configuration the registry would hand `StreamMiner::new`:
/// `miner_config(spec)` plus the durable directory and the governor.
fn tenant_config(workload: &Workload, tenant: usize, harness: &Harness) -> Result<MinerConfig> {
    let spec = workload.spec(tenant);
    let mut config = miner_config(&spec)?;
    if spec.durable {
        let root = harness
            .durable_root
            .as_ref()
            .expect("durable workloads get a durable root");
        config.durable_dir = Some(root.path().join(&spec.tenant));
    }
    config.cache_governor = harness.governor.clone();
    Ok(config)
}

/// The served schedule flattened onto one thread: connection 0's step,
/// connection 1's step, and so on.
struct MergedSchedule {
    schedules: Vec<Schedule>,
    next: usize,
}

impl MergedSchedule {
    fn new(workload: &Workload, seed: u64) -> Self {
        Self {
            schedules: (0..workload.routing.connections())
                .map(|c| Schedule::after_fill(workload, seed, c))
                .collect(),
            next: 0,
        }
    }

    fn next_step(&mut self) -> Step {
        let step = self.schedules[self.next].next_step();
        self.next = (self.next + 1) % self.schedules.len();
        step
    }

    /// Steps in one cycle of every connection.
    fn steps_per_cycle(&self) -> usize {
        CYCLE * self.schedules.len()
    }
}

/// What the `miner` rung measured.
#[derive(Debug, Default)]
pub struct MinerStats {
    /// `StreamMiner::ingest_batch` spans, ns.
    pub ingest_ns: Vec<u64>,
    /// `StreamMiner::mine_with(Exec::pool)` spans, ns.
    pub mine_pool_ns: Vec<u64>,
    /// `StreamMiner::mine_with(Exec::scoped(1))` spans, ns.
    pub mine_seq_ns: Vec<u64>,
    /// Ingest + pool mine per step, ns — the rung's step.
    pub step_ns: Vec<u64>,
    /// `StreamMiner::hibernate` spans (residency-capped workloads), ns.
    pub hibernate_ns: Vec<u64>,
    /// `StreamMiner::thaw` spans (residency-capped workloads), ns.
    pub thaw_ns: Vec<u64>,
    /// Measured mines (one per step; the sequential repeat is not counted).
    pub mines: u64,
    /// Summed `MiningStats::intersections` of the measured pool mines.
    pub intersections: u64,
    /// Summed pattern counts of the measured pool mines.
    pub patterns: u64,
    /// Largest `MiningStats::peak_bitvector_bytes` seen.
    pub peak_bitvector_bytes: u64,
    /// Summed `DeltaStats::patterns_reexamined`.
    pub delta_reexamined: u64,
    /// Summed `DeltaStats::border_updates`.
    pub delta_border_updates: u64,
    /// `DeltaStats::border_size` of the last mine.
    pub delta_border_size: u64,
    /// `DeltaStats::patterns_tracked` of the last mine.
    pub delta_tracked: u64,
    /// Summed `DeltaStats::full_rebuilds`, fill and warm-up included.
    pub delta_full_rebuilds: u64,
    /// Mines checked.
    pub attempted: u64,
    /// Calls that failed or mismatched.
    pub failed: u64,
}

/// Steps between hibernate + thaw probes on residency-capped workloads.
const HIBERNATE_EVERY: u64 = 8;

/// The `miner` rung: one standalone `StreamMiner` per tenant, one thread.
pub struct MinerRung {
    /// Source of the pool, the governor and the durable and spill roots; its
    /// registry stays empty.
    harness: Harness,
    miners: Vec<StreamMiner>,
    schedule: MergedSchedule,
    batches: Vec<Batch>,
    tracer: Tracer,
    step: u64,
    /// Whether the tenants maintain their pattern set incrementally.
    delta: bool,
    stats: MinerStats,
}

impl MinerRung {
    /// Miners, window fill (each mined and checked once) and one unmeasured
    /// warm-up cycle.
    pub fn start(workload: &Workload, inputs: &Inputs, seed: u64, epoch: Instant) -> Result<Self> {
        let harness = Harness::new(workload)?;
        let pool = Exec::pool(Arc::clone(&harness.pool));
        let mut stats = MinerStats::default();
        let mut miners = Vec::new();
        for t in 0..workload.routing.tenants() {
            let mut miner = StreamMiner::new(tenant_config(workload, t, &harness)?)?;
            let expect =
                inputs.fill_window(seed, t, |batch| miner.ingest_batch(batch).map(drop))?;
            let result = miner.mine_with(&pool)?;
            stats.delta_full_rebuilds += result.stats().delta.full_rebuilds;
            stats.attempted += 1;
            stats.failed += u64::from(!inputs.matches(expect, result.patterns()));
            miners.push(miner);
        }
        let mut rung = Self {
            harness,
            miners,
            schedule: MergedSchedule::new(workload, seed),
            batches: inputs.batches.clone(),
            tracer: Tracer::new("miner", 0, epoch),
            step: 0,
            delta: workload.delta,
            stats,
        };
        rung.cycle(inputs, false)?;
        Ok(rung)
    }

    /// One cycle of every connection's schedule, interleaved on this thread.
    pub fn cycle(&mut self, inputs: &Inputs, measured: bool) -> Result<()> {
        let pool = Exec::pool(Arc::clone(&self.harness.pool));
        let sequential = Exec::scoped(1);
        let (tracer, miners, stats) = (&mut self.tracer, &mut self.miners, &mut self.stats);
        for _ in 0..self.schedule.steps_per_cycle() {
            let step = self.schedule.next_step();
            let n = self.step;
            self.step += 1;
            let batch = &mut self.batches[step.batch];
            batch.id = step.batch_id;
            let root = tracer.open("step", n, ROOT);
            let (ingested, ingest_ns) = tracer.time("StreamMiner::ingest_batch", n, root, || {
                miners[step.ingest].ingest_batch(batch)
            });
            ingested?;
            let (pooled, pool_ns) = tracer.time("StreamMiner::mine_with(pool)", n, root, || {
                miners[step.mine].mine_with(&pool)
            });
            let pooled = pooled?;
            // The same mine again under the sequential executor.  Skipped on
            // a delta tenant, where `mine_with` ignores the executor and a
            // second call would be a no-slide advance, not a re-mine.
            let repeated = if self.delta {
                None
            } else {
                let (repeated, seq_ns) =
                    tracer.time("StreamMiner::mine_with(scoped(1))", n, root, || {
                        miners[step.mine].mine_with(&sequential)
                    });
                Some((repeated?, seq_ns))
            };
            tracer.close(root);
            let spill_root = &self.harness.spill_root;
            if let (Some(root), true) = (spill_root, n.is_multiple_of(HIBERNATE_EVERY)) {
                let dir = root.path().join(format!("t{}", step.mine));
                let miner = &mut miners[step.mine];
                let (sealed, hibernate_ns) =
                    tracer.time("StreamMiner::hibernate", n, ROOT, || miner.hibernate(&dir));
                sealed?;
                let mut config = miner.config().clone();
                config.catalog = Some(miner.catalog().clone());
                let (thawed, thaw_ns) = tracer.time("StreamMiner::thaw", n, ROOT, || {
                    StreamMiner::thaw(config, &dir)
                });
                *miner = thawed?;
                if measured {
                    stats.hibernate_ns.push(hibernate_ns);
                    stats.thaw_ns.push(thaw_ns);
                }
            }
            stats.attempted += 1;
            stats.failed += u64::from(!inputs.matches(step.expect, pooled.patterns()));
            if let Some((repeated, _)) = &repeated {
                stats.attempted += 1;
                stats.failed += u64::from(!inputs.matches(step.expect, repeated.patterns()));
            }
            let mined = pooled.stats();
            stats.delta_full_rebuilds += mined.delta.full_rebuilds;
            if !measured {
                continue;
            }
            stats.ingest_ns.push(ingest_ns);
            stats.mine_pool_ns.push(pool_ns);
            stats.mine_seq_ns.extend(repeated.map(|(_, seq_ns)| seq_ns));
            stats.step_ns.push(ingest_ns + pool_ns);
            stats.mines += 1;
            stats.intersections += mined.intersections;
            stats.patterns += pooled.patterns().len() as u64;
            stats.peak_bitvector_bytes = stats
                .peak_bitvector_bytes
                .max(mined.peak_bitvector_bytes as u64);
            stats.delta_reexamined += mined.delta.patterns_reexamined;
            stats.delta_border_updates += mined.delta.border_updates;
            stats.delta_border_size = mined.delta.border_size as u64;
            stats.delta_tracked = mined.delta.patterns_tracked as u64;
        }
        Ok(())
    }

    /// The statistics and the spans.
    pub fn finish(self) -> (MinerStats, Tracer) {
        (self.stats, self.tracer)
    }
}

/// What the `matrix` rung measured.
#[derive(Debug, Default)]
pub struct MatrixStats {
    /// `DsMatrix::ingest_batch` spans, ns.
    pub ingest_ns: Vec<u64>,
    /// `DsMatrix::view` spans, ns.
    pub view_ns: Vec<u64>,
    /// Measured slides (= measured views).
    pub slides: u64,
    /// `CaptureStats::words_written` over the measured slides.
    pub capture_words: u64,
    /// `ReadStats::cache_splice_words` over the measured slides.
    pub splice_words: u64,
    /// `ReadStats::words_assembled` over the measured views.
    pub words_assembled: u64,
    /// `ReadStats::rows_pinned` over the measured views.
    pub rows_pinned: u64,
    /// `ReadStats::pages_read` over the measured views.
    pub pages_read: u64,
    /// `ReadStats::cache_hits` over the measured views.
    pub cache_hits: u64,
    /// `ReadStats::wal_bytes_written` over the measured slides.
    pub wal_bytes: u64,
    /// `ReadStats::fsyncs` over the measured slides.
    pub fsyncs: u64,
    /// `ReadStats::checkpoint_bytes` over the measured slides.
    pub checkpoint_bytes: u64,
    /// WAL-encoded bytes of the measured batches (the write-amp base).
    pub batch_bytes: u64,
    /// Summed `DsMatrix::resident_bytes()` at the end.
    pub resident_bytes: u64,
    /// Summed `DsMatrix::on_disk_bytes()` at the end.
    pub on_disk_bytes: u64,
}

/// The `matrix` rung: one standalone `DsMatrix` per tenant, one thread.
pub struct MatrixRung {
    /// Keeps the governor the matrices lease from, and their durable root,
    /// alive.
    _harness: Harness,
    matrices: Vec<DsMatrix>,
    schedule: MergedSchedule,
    batches: Vec<Batch>,
    /// WAL-encoded size of each batch of the cycle.
    batch_bytes: Vec<u64>,
    tracer: Tracer,
    step: u64,
    stats: MatrixStats,
}

impl MatrixRung {
    /// Matrices configured as `StreamMiner::new` configures its own, window
    /// fill and one unmeasured warm-up cycle.
    pub fn start(workload: &Workload, inputs: &Inputs, seed: u64, epoch: Instant) -> Result<Self> {
        let harness = Harness::new(workload)?;
        let mut matrices = Vec::new();
        for t in 0..workload.routing.tenants() {
            let mut config = tenant_config(workload, t, &harness)?;
            let catalog = config.catalog.take().expect("miner_config sets a catalog");
            let mut matrix_config =
                DsMatrixConfig::new(config.window, config.backend.clone(), catalog.num_edges())
                    .with_cache_budget(config.cache_budget_bytes);
            if let Some(governor) = &config.cache_governor {
                matrix_config = matrix_config.with_budget_governor(Arc::clone(governor));
            }
            if let Some(dir) = &config.durable_dir {
                matrix_config = matrix_config.with_durability(
                    DurabilityConfig::new(dir).with_checkpoint_every(config.checkpoint_every),
                );
            }
            let mut matrix = DsMatrix::new(matrix_config)?;
            inputs.fill_window(seed, t, |batch| matrix.ingest_batch(batch).map(drop))?;
            debug_assert_eq!(matrix.num_batches(), WINDOW);
            matrices.push(matrix);
        }
        let mut rung = Self {
            _harness: harness,
            matrices,
            schedule: MergedSchedule::new(workload, seed),
            batches: inputs.batches.clone(),
            batch_bytes: inputs
                .batches
                .iter()
                .map(|b| encode_batch(b).len() as u64)
                .collect(),
            tracer: Tracer::new("matrix", 0, epoch),
            step: 0,
            stats: MatrixStats::default(),
        };
        rung.cycle(false)?;
        Ok(rung)
    }

    /// One cycle of every connection's schedule, interleaved on this thread.
    pub fn cycle(&mut self, measured: bool) -> Result<()> {
        let (tracer, matrices, stats) = (&mut self.tracer, &mut self.matrices, &mut self.stats);
        for _ in 0..self.schedule.steps_per_cycle() {
            let step = self.schedule.next_step();
            let n = self.step;
            self.step += 1;
            let batch = &mut self.batches[step.batch];
            batch.id = step.batch_id;
            let root = tracer.open("step", n, ROOT);
            let matrix = &mut matrices[step.ingest];
            let (capture_before, read_before) = (matrix.capture_stats(), matrix.read_stats());
            let (ingested, ingest_ns) = tracer.time("DsMatrix::ingest_batch", n, root, || {
                matrix.ingest_batch(batch)
            });
            ingested?;
            let (capture_after, read_after) = (matrix.capture_stats(), matrix.read_stats());
            let matrix = &mut matrices[step.mine];
            let view_before = matrix.read_stats();
            let (viewed, view_ns) = tracer.time("DsMatrix::view", n, root, || {
                matrix.view().map(|view| {
                    black_box(view.num_transactions());
                })
            });
            viewed?;
            let view_after = matrix.read_stats();
            // What the facade does after every mine.
            matrix.trim_cache();
            tracer.close(root);
            if !measured {
                continue;
            }
            stats.ingest_ns.push(ingest_ns);
            stats.view_ns.push(view_ns);
            stats.slides += 1;
            stats.batch_bytes += self.batch_bytes[step.batch];
            stats.capture_words += capture_after.words_written - capture_before.words_written;
            stats.splice_words += read_after.cache_splice_words - read_before.cache_splice_words;
            stats.wal_bytes += read_after.wal_bytes_written - read_before.wal_bytes_written;
            stats.fsyncs += read_after.fsyncs - read_before.fsyncs;
            stats.checkpoint_bytes += read_after.checkpoint_bytes - read_before.checkpoint_bytes;
            stats.words_assembled += view_after.words_assembled - view_before.words_assembled;
            stats.rows_pinned += view_after.rows_pinned - view_before.rows_pinned;
            stats.pages_read += view_after.pages_read - view_before.pages_read;
            stats.cache_hits += view_after.cache_hits - view_before.cache_hits;
        }
        Ok(())
    }

    /// End-of-run sizes, then the statistics and the spans.
    pub fn finish(self) -> (MatrixStats, Tracer) {
        let mut stats = self.stats;
        stats.resident_bytes = self
            .matrices
            .iter()
            .map(|m| m.resident_bytes() as u64)
            .sum();
        stats.on_disk_bytes = self.matrices.iter().map(DsMatrix::on_disk_bytes).sum();
        (stats, self.tracer)
    }
}

/// Nanoseconds per kilobit of `BitVec::and_count` and `BitVec::and_into`
/// on the two busiest rows of one full window of the workload.
pub fn kernel_probe(workload: &Workload, inputs: &Inputs) -> (f64, f64) {
    let window = || inputs.batches[..WINDOW].iter().flat_map(|b| b.iter());
    let edges = window()
        .flat_map(|t| t.iter())
        .map(|e| e.index() + 1)
        .max()
        .unwrap_or(0);
    let mut rows: Vec<BitVec> = (0..edges)
        .map(|edge| BitVec::from_bools(window().map(|t| t.iter().any(|e| e.index() == edge))))
        .collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.count_ones()));
    let (a, b) = (&rows[0], &rows[1]);
    const ITERATIONS: u32 = 20_000;
    let kbits = (WINDOW * workload.batch_size) as f64 / 1000.0 * f64::from(ITERATIONS);
    let mut sink = 0u64;
    let started = Instant::now();
    for _ in 0..ITERATIONS {
        sink = sink.wrapping_add(black_box(a).and_count(black_box(b)));
    }
    let and_count = started.elapsed().as_nanos() as f64 / kbits;
    let mut out = BitVec::new();
    let started = Instant::now();
    for _ in 0..ITERATIONS {
        sink = sink.wrapping_add(black_box(a).and_into(black_box(b), &mut out));
    }
    let and_into = started.elapsed().as_nanos() as f64 / kbits;
    black_box(sink);
    (and_count, and_into)
}
