//! One workload, start to finish: set-up, timed rounds, the traced ladder,
//! and the metrics both produce.

use std::time::Instant;

use fsm_types::Result;

use crate::json::Value;
use crate::ladder::{kernel_probe, MatrixRung, MinerRung, SessionRung};
use crate::served::{Instance, Limit, Round};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, min_max, quantile, samples_needed, steady_median, Profile};
use crate::trace::{write_jsonl, Tracer};
use crate::workload::{Inputs, Workload, CYCLE, DATA_SEED};

/// Servers set up per end-to-end run, one after another.  Each serves one
/// timed round of a fifth of the run; `setup_s` is the fastest set-up.
pub const INSTANCES: usize = 5;
/// Cycles per round under `--quick`.
pub const QUICK_CYCLES: u64 = 2;

/// How long a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scale {
    /// Timed phase of this many seconds in total, split over the rounds
    /// (and, in a traced run, over the ladder's rungs).
    Seconds(f64),
    /// Fixed tiny step counts ([`QUICK_CYCLES`] cycles per round): a smoke
    /// run whose counts repeat exactly.
    Quick,
}

impl Scale {
    /// The limit of one phase that gets `share` of the timed budget.
    fn limit(self, share: f64) -> Limit {
        match self {
            Scale::Seconds(total) => Limit::seconds(total * share),
            Scale::Quick => Limit::cycles(QUICK_CYCLES),
        }
    }

    /// How the scale reads in reports.
    pub fn label(self) -> String {
        match self {
            Scale::Seconds(s) => format!("seconds={s}"),
            Scale::Quick => "quick".into(),
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`crate::spec`].
    pub name: &'static str,
    /// Unit from [`crate::spec`].
    pub unit: &'static str,
    /// The value.  For the timed end-to-end metrics computed over the steps
    /// of all instances together ([`timed`]), for `setup_s` the fastest
    /// set-up.
    pub value: f64,
    /// The same statistic per instance (for `setup_s`: per set-up), in run
    /// order; empty where there is none.
    pub rounds: Vec<f64>,
}

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced run.
    pub traced: bool,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Requests and rung calls checked, set-up and final checks included.
    pub attempted: u64,
    /// How many of them failed or returned the wrong patterns.
    pub failed: u64,
    /// First failure message, if any.
    pub first_failure: Option<String>,
    /// Digest of the oracle's expected list.
    pub oracle_digest: u64,
    /// Lines worth printing besides the metrics (sample counts, caveats).
    pub notes: Vec<String>,
}

impl Outcome {
    /// `failed / attempted`.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line result object the benchmark contract asks for: exactly
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        Value::object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Number(self.attempted as f64)),
            ("failed", Value::Number(self.failed as f64)),
            ("metrics", self.metrics_json(false)),
        ])
        .render()
    }

    /// `{name: {value, unit[, rounds]}}`.
    pub fn metrics_json(&self, with_rounds: bool) -> Value {
        Value::object(self.metrics.iter().map(|m| {
            let mut members = vec![
                ("value".to_string(), Value::Number(m.value)),
                ("unit".to_string(), Value::str(m.unit)),
            ];
            if with_rounds && !m.rounds.is_empty() {
                let rounds = m.rounds.iter().map(|v| Value::Number(*v)).collect();
                members.push(("rounds".to_string(), Value::Array(rounds)));
            }
            (m.name, Value::Object(members))
        }))
    }

    /// Human-readable report.
    pub fn print(&self) {
        for metric in &self.metrics {
            let spread = if metric.rounds.is_empty() {
                String::new()
            } else {
                let (lo, hi) = min_max(&metric.rounds);
                let mid = median(&metric.rounds);
                format!("   (instances min {lo:.4} median {mid:.4} max {hi:.4})")
            };
            println!(
                "  {:<40} {:>16.4} {}{}",
                metric.name, metric.value, metric.unit, spread
            );
        }
        println!(
            "  {:<40} {:>16.6} ratio   ({} failed of {} attempted)",
            "failed_ratio",
            self.failed_ratio(),
            self.failed,
            self.attempted
        );
        if let Some(failure) = &self.first_failure {
            println!("  first failure: {failure}");
        }
        println!("  oracle_digest {:016x}", self.oracle_digest);
        for note in &self.notes {
            println!("  note: {note}");
        }
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Throughput and step latency over some rounds of one workload.
struct Timed {
    tx_per_s: f64,
    p50_ms: f64,
    p95_ms: f64,
    /// Wall-clock throughput: everything between the first and the last
    /// step, slow phases of the host and the benchmark's own checks included.
    wall_tx_per_s: f64,
    /// Samples behind the latencies: per schedule position where the
    /// schedule is periodic, in total where it is not.
    fewest_samples: usize,
}

/// The timed end-to-end metrics over `rounds`.
///
/// Where the schedule is periodic ([`crate::workload::Routing::period`]; one
/// connection by construction) they come from the quiet [`Profile`]: the
/// latencies are the median and the 95th percentile over the positions'
/// quiet latencies (each its second-fastest sample), and throughput is the transactions of one period over
/// the sum of them — what the closed loop delivers while the host leaves it
/// alone.  Elsewhere a step's work is not a function of its position, so the
/// latencies are quantiles of all steps pooled and throughput is by the wall
/// clock, summed over connections.
fn timed(workload: &Workload, rounds: &[Round]) -> Timed {
    let connections = workload.routing.connections();
    let mut wall_tx_per_s = 0.0;
    for c in 0..connections {
        let of_conn = rounds.iter().map(|r| &r.connections[c]);
        let transactions: u64 = of_conn.clone().map(|conn| conn.transactions).sum();
        let wall: f64 = of_conn.map(|conn| conn.wall.as_secs_f64()).sum();
        wall_tx_per_s += transactions as f64 / wall;
    }
    let Some(period) = workload.routing.period() else {
        let steps: Vec<u64> = rounds.iter().flat_map(Round::steps).collect();
        return Timed {
            tx_per_s: wall_tx_per_s,
            p50_ms: quantile(&steps, 0.50) / 1e6,
            p95_ms: quantile(&steps, 0.95) / 1e6,
            wall_tx_per_s,
            fewest_samples: steps.len(),
        };
    };
    let mut profile = Profile::new(period);
    let (mut transactions, mut steps) = (0, 0);
    for conn in rounds.iter().flat_map(|r| &r.connections) {
        profile.add(conn.first_step, &conn.step_ns);
        transactions += conn.transactions;
        steps += conn.step_ns.len() as u64;
    }
    let quiet = profile.quiet();
    let per_step = transactions as f64 / steps.max(1) as f64;
    let period_s = quiet.iter().sum::<u64>() as f64 / 1e9;
    Timed {
        tx_per_s: per_step * quiet.len() as f64 / period_s,
        p50_ms: quantile(&quiet, 0.50) / 1e6,
        p95_ms: quantile(&quiet, 0.95) / 1e6,
        wall_tx_per_s,
        fewest_samples: profile.fewest_samples(),
    }
}

/// The untraced end-to-end run.
///
/// [`INSTANCES`] servers are set up one after another and each serves one
/// timed round.  Set-up is a few hundred milliseconds of the same work every
/// time, and the host can only slow it down, so `setup_s` is the fastest of
/// the instances' set-ups; the throughput and latency metrics are computed
/// over the steps of all instances together (see [`timed`]).
pub fn run_end_to_end(workload: &Workload, seed: u64, scale: Scale) -> Result<Outcome> {
    let mut setups = Vec::new();
    let mut rounds = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut first_failure = None;
    let mut digest = 0;
    let mut peak_rss = 0.0;
    for i in 0..INSTANCES {
        let started = Instant::now();
        let inputs = Inputs::generate(workload, DATA_SEED, seed);
        let mut instance = Instance::start(workload, &inputs, seed)?;
        setups.push(started.elapsed().as_secs_f64());
        rounds.push(instance.round(&inputs, scale.limit(1.0 / INSTANCES as f64), None));
        if i == 0 {
            // One server's footprint.  Later instances run on new threads,
            // which may or may not reuse the allocator arenas of the first,
            // so the high-water mark after them says more about arena luck
            // than about the program.
            peak_rss = peak_rss_mib();
        }
        let (a, f, why) = instance.finish(&inputs);
        attempted += a;
        failed += f;
        first_failure = first_failure.or(why);
        digest = inputs.oracle_digest();
    }

    let overall = timed(workload, &rounds);
    let per_instance: Vec<Timed> = rounds
        .chunks(1)
        .map(|round| timed(workload, round))
        .collect();
    let with_instances =
        |pick: fn(&Timed) -> f64| (pick(&overall), per_instance.iter().map(pick).collect());
    let metrics = END_TO_END
        .iter()
        .map(|spec| {
            let (value, rounds) = match spec.name {
                "tx_per_s" => with_instances(|t| t.tx_per_s),
                "step_p50_ms" => with_instances(|t| t.p50_ms),
                "step_p95_ms" => with_instances(|t| t.p95_ms),
                "peak_rss_mb" => (peak_rss, Vec::new()),
                "setup_s" => (min_max(&setups).0, setups.clone()),
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            Metric {
                name: spec.name,
                unit: spec.unit,
                value,
                rounds,
            }
        })
        .collect();

    let steps: usize = rounds.iter().map(|r| r.steps().len()).sum();
    let mut notes = vec![match workload.routing.period() {
        Some(period) => format!(
            "{INSTANCES} instances, {steps} steps; quiet profile of {period} positions, at least {} samples each",
            overall.fewest_samples
        ),
        None => format!(
            "{INSTANCES} instances, {steps} steps pooled (no periodic schedule: whole-run statistics)"
        ),
    }];
    notes.push(format!(
        "wall-clock throughput {:.1} tx/s",
        overall.wall_tx_per_s
    ));
    if workload.routing.period().is_none() && steps < samples_needed(0.95) {
        notes.push(format!(
            "step_p95_ms has fewer than ten samples beyond it ({steps} < {})",
            samples_needed(0.95)
        ));
    }
    if !workload.gated {
        notes.push("not gated: reported, but not listed in BENCHMARK.json".into());
    }
    Ok(Outcome {
        workload: workload.name,
        traced: false,
        metrics,
        attempted,
        failed,
        first_failure,
        oracle_digest: digest,
        notes,
    })
}

fn p(samples: &[u64], q: f64) -> f64 {
    quantile(samples, q) / 1e3
}

fn per(total: u64, count: u64) -> f64 {
    total as f64 / count.max(1) as f64
}

/// Runs one rung cycle on a thread of its own, the way the server runs a
/// request on a connection thread.  Not cosmetic: on the main thread, whose
/// allocations come from the allocator's main arena, the allocation-heavy
/// delta mine measured 17-19 ms against 15 ms on a spawned thread — more than
/// the session layer's whole self-time, with the wrong sign.
fn off_main<R: Send>(cycle: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|scope| scope.spawn(cycle).join().expect("rung thread panicked"))
}

/// The traced run.  Every lap advances each rung by one cycle — an
/// untraced and a traced socket cycle on the same server (their paired
/// throughput ratio is the tracing overhead), then the session, miner and
/// matrix rungs — so all rungs sample the same seconds of the host and the
/// differences of their medians are layer self-times rather than drift.
/// Spans go to `trace_path`.
pub fn run_traced(
    workload: &Workload,
    seed: u64,
    scale: Scale,
    trace_path: &std::path::Path,
) -> Result<Outcome> {
    let epoch = Instant::now();
    let inputs = Inputs::generate(workload, DATA_SEED, seed);
    let mut instance = Instance::start(workload, &inputs, seed)?;
    let mut session = SessionRung::start(workload, &inputs, seed, epoch)?;
    let mut miner = MinerRung::start(workload, &inputs, seed, epoch)?;
    let mut matrix = MatrixRung::start(workload, &inputs, seed, epoch)?;
    // One tracer per connection for the whole run, so a span's
    // `(rung, thread, id)` is unique in the trace file.
    let mut client_tracers: Vec<Tracer> = (0..workload.routing.connections())
        .map(|c| Tracer::new("client", c as u32, epoch))
        .collect();

    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let limit = scale.limit(1.0);
    let started = Instant::now();
    let mut laps = 0;
    loop {
        // plain, traced, traced, plain, ...: neither kind always goes first.
        for traced_cycle in [laps % 2 == 1, laps % 2 == 0] {
            let tracers = traced_cycle.then_some(&mut client_tracers[..]);
            let round = instance.round(&inputs, Limit::cycles(1), tracers);
            if traced_cycle {
                &mut traced
            } else {
                &mut plain
            }
            .push(round);
        }
        session.cycle(&inputs, true);
        off_main(|| miner.cycle(&inputs, true))?;
        off_main(|| matrix.cycle(true))?;
        laps += 1;
        if limit.reached(laps, started) {
            break;
        }
    }
    let (mut attempted, mut failed, mut first_failure) = instance.finish(&inputs);
    let (session, session_tracers) = session.finish()?;
    let (miner, miner_tracer) = miner.finish();
    let (matrix, matrix_tracer) = matrix.finish();
    let (and_count, and_into) = kernel_probe(workload, &inputs);
    for (rung, rung_attempted, rung_failed) in [
        ("session", session.attempted, session.failed),
        ("miner", miner.attempted, miner.failed),
    ] {
        attempted += rung_attempted;
        failed += rung_failed;
        if rung_failed > 0 {
            first_failure.get_or_insert_with(|| format!("{rung} rung: {rung_failed} mismatches"));
        }
    }

    let pooled = |pick: fn(&crate::served::ConnSamples) -> &Vec<u64>| -> Vec<u64> {
        traced.iter().flat_map(|r| r.pooled(pick)).collect()
    };
    let client_ingest = pooled(|c| &c.ingest_ns);
    let client_mine = pooled(|c| &c.mine_ns);
    let client_step = pooled(|c| &c.step_ns);
    // Paired by lap: each ratio compares two cycles run back to back.
    let overhead: Vec<f64> = traced
        .iter()
        .zip(&plain)
        .map(|(t, p)| t.tx_per_s() / p.tx_per_s())
        .collect();
    let ingests: u64 = traced.iter().map(|r| r.steps().len() as u64).sum();
    let queued: u64 = traced.iter().map(|r| r.total(|c| c.queued)).sum();
    let backpressure: u64 = traced.iter().map(|r| r.total(|c| c.backpressure)).sum();

    let session_core: Vec<u64> = session
        .ingest_ns
        .iter()
        .zip(&session.mine_ns)
        .map(|(i, m)| i + m)
        .collect();
    // Medians of spans are steady medians: per two-cycle chunk, then the
    // best quartile over chunks, so a slow phase during one rung does not
    // masquerade as that layer's self-time.
    let m = |samples: &[u64]| steady_median(samples, 2 * CYCLE) / 1e3;
    let miner_step = m(&miner.step_ns);
    let mine_pool = m(&miner.mine_pool_ns);
    let view = m(&matrix.view_ns);
    let written = matrix.wal_bytes + matrix.checkpoint_bytes + matrix.capture_words * 8;

    let value_of = |name: &str| -> f64 {
        match name {
            "client.failed_ratio" => failed as f64 / attempted.max(1) as f64,
            "client.ingest_p50_us" => m(&client_ingest),
            "client.ingest_p95_us" => p(&client_ingest, 0.95),
            "client.ingest_p99_us" => p(&client_ingest, 0.99),
            "client.mine_p50_us" => m(&client_mine),
            "client.mine_p95_us" => p(&client_mine, 0.95),
            "client.mine_p99_us" => p(&client_mine, 0.99),
            "client.trace_overhead_ratio" => median(&overhead),
            "fsmd.transport_us" => m(&client_step) - m(&session.step_ns),
            "fsmd.proto.encode_us" => m(&session.encode_ns),
            "fsmd.proto.decode_us" => m(&session.decode_ns),
            "fsmd.proto.bytes_per_step" => per(session.wire_bytes, session.steps),
            "core.session.ingest_us" => m(&session.ingest_ns),
            "core.session.mine_us" => m(&session.mine_ns),
            "core.session.self_us" => m(&session_core) - miner_step,
            "core.session.queued_ratio" => per(queued, ingests),
            "core.session.backpressure_ratio" => per(backpressure, ingests),
            "core.session.thaw_ratio" => per(session.thaws, session.steps),
            "core.session.thaw_us" => p(&session.thaw_latencies, 0.50),
            "core.session.thaw_p95_us" => p(&session.thaw_latencies, 0.95),
            "core.session.hit_step_us" => m(&session.hit_step_ns),
            "core.session.thaw_step_us" => m(&session.thaw_step_ns),
            "core.session.resident_bytes" => session.resident_bytes as f64,
            "core.session.peak_resident" => session.peak_resident as f64,
            "core.miner.ingest_us" => m(&miner.ingest_ns),
            "core.miner.mine_us" => mine_pool,
            "core.miner.hibernate_us" => m(&miner.hibernate_ns),
            "core.miner.thaw_us" => m(&miner.thaw_ns),
            "core.mine_kernel_us" => (mine_pool - view).max(0.0),
            "core.miners.intersections_per_mine" => per(miner.intersections, miner.mines),
            "core.miners.patterns_per_mine" => per(miner.patterns, miner.mines),
            "core.miners.peak_bitvector_bytes" => miner.peak_bitvector_bytes as f64,
            "core.delta.reexamined_per_slide" => per(miner.delta_reexamined, miner.mines),
            "core.delta.border_updates_per_slide" => per(miner.delta_border_updates, miner.mines),
            "core.delta.border_size" => miner.delta_border_size as f64,
            "core.delta.tracked" => miner.delta_tracked as f64,
            "core.delta.full_rebuilds" => miner.delta_full_rebuilds as f64,
            "pool.mine_us_pool" => mine_pool,
            "pool.mine_us_seq" => m(&miner.mine_seq_ns),
            "dsmatrix.ingest_us" => m(&matrix.ingest_ns),
            "dsmatrix.view_us" => view,
            "dsmatrix.capture_words_per_slide" => per(matrix.capture_words, matrix.slides),
            "dsmatrix.splice_words_per_slide" => per(matrix.splice_words, matrix.slides),
            "dsmatrix.words_assembled_per_mine" => per(matrix.words_assembled, matrix.slides),
            "dsmatrix.rows_pinned_per_mine" => per(matrix.rows_pinned, matrix.slides),
            "dsmatrix.resident_bytes" => matrix.resident_bytes as f64,
            "storage.wal_bytes_per_slide" => per(matrix.wal_bytes, matrix.slides),
            "storage.fsyncs_per_slide" => per(matrix.fsyncs, matrix.slides),
            "storage.checkpoint_bytes_per_slide" => per(matrix.checkpoint_bytes, matrix.slides),
            "storage.write_amp" => per(written, matrix.batch_bytes),
            "storage.on_disk_bytes" => matrix.on_disk_bytes as f64,
            "storage.pages_read_per_mine" => per(matrix.pages_read, matrix.slides),
            "storage.cache_hit_ratio" => {
                per(matrix.cache_hits, matrix.cache_hits + matrix.pages_read)
            }
            "storage.governor_granted_bytes" => session.governor_granted as f64,
            "storage.spill_bytes" => session.spill_bytes as f64,
            "storage.bitvec.and_count_ns_per_kbit" => and_count,
            "storage.bitvec.and_into_ns_per_kbit" => and_into,
            other => unreachable!("per-layer metric {other} has no measurement"),
        }
    };
    let metrics = PER_LAYER
        .iter()
        .map(|spec| Metric {
            name: spec.name,
            unit: spec.unit,
            value: value_of(spec.name),
            rounds: Vec::new(),
        })
        .collect();

    // Spans are written only now, after every measurement.
    let mut tracers = client_tracers;
    tracers.extend(session_tracers);
    tracers.push(miner_tracer);
    tracers.push(matrix_tracer);
    let spans = write_jsonl(trace_path, &tracers)?;
    let notes = vec![
        format!(
            "rung samples: client {} steps, session {}, miner {}, matrix {} ({} per cycle and connection)",
            client_step.len(),
            session.steps,
            miner.mines,
            matrix.slides,
            CYCLE
        ),
        format!("{spans} spans written to {}", trace_path.display()),
    ];
    Ok(Outcome {
        workload: workload.name,
        traced: true,
        metrics,
        attempted,
        failed,
        first_failure,
        oracle_digest: inputs.oracle_digest(),
        notes,
    })
}
