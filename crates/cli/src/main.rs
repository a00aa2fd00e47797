//! `fsm` — mine frequent connected subgraphs from a file-based graph stream.
//!
//! Two input families are supported:
//!
//! * **FIMI** transaction files (`--format fimi`): every line is one graph
//!   transaction whose integer items are edge identifiers laid out on a path
//!   graph (item *i* = edge between vertices *i+1* and *i+2*), matching the
//!   convention of the benchmark harness;
//! * **N-Triples** linked-data dumps (`--format ntriples`): resource-linking
//!   statements become edges, grouped into one graph per subject (or per
//!   `--group-size` statements).
//!
//! The stream is cut into `--batch-size` batches, mined over a sliding window
//! of `--window` batches with the selected algorithm, and the frequent
//! connected collections of the final window are printed (optionally closed /
//! maximal / top-k, as text or CSV).
//!
//! `--threads N` sets the mining worker count for **all five** algorithms
//! (per-pivot FP-trees for the horizontal family, per-singleton subtrees for
//! the vertical family) and for `--delta` (per-root subtrees of the
//! maintained tree); `0` uses every core, and the output is identical for
//! any setting.  Capture is incremental regardless of threading: each
//! batch is one appended row segment, so ingest cost tracks the batch, not
//! the window.  Each mine assembles the window's rows once, segment by
//! segment, on every backend, and the stderr summary reports how many words
//! that read materialised.
//!
//! `--concurrent` overlaps mining with ingest: after every ingested batch
//! the writer freezes an immutable epoch snapshot
//! ([`fsm_core::StreamMiner::snapshot`]) and hands it to a worker thread,
//! which mines each slide while later batches keep appending.  Snapshot
//! mining is property-tested byte-identical to stop-the-world mining at the
//! same epoch, so the printed output matches a sequential run exactly.
//!
//! `--delta` switches mining to incremental maintenance: the frequent-pattern
//! set is mined after every ingested batch, and each mine only re-examines
//! the patterns a window slide could have affected (per-segment support
//! contributions, a border set of nearly-frequent extensions, and targeted
//! re-expansion — see `fsm_core::DeltaMiner`).  Delta mining is
//! property-tested byte-identical to a full re-mine at every epoch, so the
//! printed output matches a non-delta run exactly; the stderr summary gains a
//! line reporting how many patterns the final slide actually touched.
//!
//! `--backend` picks where the window lives (`disk`, the paper's default
//! space posture, or `memory`), and `--cache-budget BYTES` lets the disk
//! backend keep up to that many bytes of decoded segments resident between
//! mines — a segment whole or not at all.  The budget buys decodes, never
//! assembly: every disk mine assembles the window into flat rows once, but
//! a resident segment is neither read nor decoded again, so with a budget
//! covering the window disk mines read nothing.  The stderr summary reports
//! the segment runs read and the chunks served from resident segments by
//! the final mine alongside the read-amplification line.  Combining `--cache-budget` with
//! `--backend memory` is rejected up front rather than silently ignored.
//!
//! `--durable-dir DIR` makes the run crash-recoverable: every ingested batch
//! is WAL-logged and `fsync`ed before it mutates the window, and the window
//! metadata is checkpointed into `DIR` every `--checkpoint-every` slides.
//! After a crash (simulate one with `--crash-after N`, which calls `abort()`
//! after N ingested batches), re-running with `--recover` rebuilds the exact
//! pre-crash window from the newest valid checkpoint plus WAL replay, skips
//! the input prefix that window already covers, and continues the stream —
//! the final output is identical to a run that never crashed.

mod args;

use std::path::PathBuf;
use std::process::ExitCode;

use args::{InputFormat, Options, OutputKind};
use fsm_core::{closed_patterns, maximal_patterns, top_k, MinerConfig, StreamMiner};
use fsm_datagen::read_fimi;
use fsm_linked_data::{ntriples, GroupingStrategy, TripleStreamAdapter};
use fsm_stream::{BatchBuilder, WindowConfig};
use fsm_types::{EdgeCatalog, FrequentPattern, Result, Transaction};

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let options = match args::parse(&raw) {
        Ok(options) => options,
        Err(err) => {
            eprintln!("{err}");
            return ExitCode::FAILURE;
        }
    };
    match run(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run(options: &Options) -> Result<()> {
    let (catalog, transactions) = load(options)?;
    eprintln!(
        "loaded {} transactions over {} distinct edges from {}",
        transactions.len(),
        catalog.num_edges(),
        options.input
    );

    let mut config = MinerConfig {
        algorithm: options.algorithm,
        window: WindowConfig::new(options.window)?,
        min_support: options.minsup,
        backend: options.backend.clone(),
        catalog: Some(catalog),
        threads: options.threads,
        cache_budget_bytes: options.cache_budget,
        durable_dir: options.durable_dir.as_ref().map(PathBuf::from),
        checkpoint_every: options.checkpoint_every,
        delta: options.delta,
        ..MinerConfig::default()
    };
    config.limits.max_pattern_len = options.max_len;
    let mut miner = if options.recover {
        StreamMiner::recover(config)?
    } else {
        StreamMiner::new(config)?
    };

    // A recovered miner already holds batches 0..=last; resume the stream
    // after them.  Batches are fixed-size, so skipping the covered input
    // prefix reproduces the exact batch boundaries of the original run.
    let next_batch_id = miner.last_batch_id().map_or(0, |id| id + 1);
    if let Some(report) = miner.recovery_report() {
        eprintln!(
            "recovered window through batch {:?}: checkpoint seq {:?}, {} WAL batches replayed",
            miner.last_batch_id(),
            report.checkpoint_seq,
            report.replayed_batches,
        );
        if let Some(torn) = &report.wal_torn {
            eprintln!("recovery: truncated torn WAL tail ({torn})");
        }
        for skipped in &report.skipped_artifacts {
            eprintln!("recovery: skipped corrupt artifact: {skipped}");
        }
    }
    let skip = (next_batch_id as usize).saturating_mul(options.batch_size);
    let mut batcher = BatchBuilder::resume_from(options.batch_size, next_batch_id);
    let mut batches = batcher.extend(transactions.into_iter().skip(skip));
    if let Some(last) = batcher.flush() {
        batches.push(last);
    }
    let total_batches = next_batch_id as usize + batches.len();
    let mut ingested = 0usize;
    let result = if options.concurrent {
        // Concurrent mode: after every ingested batch the writer freezes an
        // epoch snapshot and hands it to a mining worker over a channel, so
        // every slide is mined *while* later batches keep ingesting.  The
        // worker's newest epoch is the final window, so its result is the
        // printed output — byte-identical to a sequential run's.
        let (jobs, worker_jobs) = std::sync::mpsc::channel::<fsm_core::MinerSnapshot>();
        // Snapshots borrow nothing from the miner, so a plain thread does.
        let worker = std::thread::spawn(move || {
            let mut last = None;
            let mut mined = 0usize;
            for job in worker_jobs {
                last = Some(job.mine());
                mined += 1;
            }
            (mined, last)
        });
        let mut feed = || -> Result<()> {
            for batch in &batches {
                miner.ingest_batch(batch)?;
                ingested += 1;
                if options.crash_after == Some(ingested) {
                    eprintln!("crash-after: aborting after {ingested} ingested batches");
                    std::process::abort();
                }
                jobs.send(miner.snapshot()?)
                    .map_err(|_| fsm_types::FsmError::config("mining worker hung up"))?;
            }
            Ok(())
        };
        let fed = feed();
        // Hang up and join before looking at `fed`, so the worker is never
        // left detached on an ingest error.
        drop(jobs);
        let (slides_mined, newest) = worker.join().expect("mining worker panicked");
        fed?;
        eprintln!(
            "concurrent: {slides_mined} window slides mined on a worker thread during ingest"
        );
        match newest {
            Some(result) => result?,
            // An empty resumed stream slides nothing: mine the window as-is.
            None => miner.mine()?,
        }
    } else if options.delta {
        // Delta mode: mine after every ingested batch so the maintained
        // pattern state advances one slide at a time; the newest result is
        // the final window's, identical to a full re-mine.
        let mut newest = None;
        for batch in &batches {
            miner.ingest_batch(batch)?;
            ingested += 1;
            if options.crash_after == Some(ingested) {
                eprintln!("crash-after: aborting after {ingested} ingested batches");
                std::process::abort();
            }
            newest = Some(miner.mine()?);
        }
        match newest {
            Some(result) => result,
            // An empty resumed stream slides nothing: mine the window as-is.
            None => miner.mine()?,
        }
    } else {
        for batch in &batches {
            miner.ingest_batch(batch)?;
            ingested += 1;
            if options.crash_after == Some(ingested) {
                // Simulated crash: no destructors, no flushes — exactly the
                // failure mode the WAL + checkpoint layer must survive.
                eprintln!("crash-after: aborting after {ingested} ingested batches");
                std::process::abort();
            }
        }
        miner.mine()?
    };
    eprintln!(
        "mined window of {} transactions ({} batches in stream) with {} in {:?}",
        result.stats().window_transactions,
        total_batches,
        options.algorithm,
        result.stats().elapsed
    );
    eprintln!(
        "read path: {} words materialised for this mine call",
        result.stats().read_words_assembled
    );
    if !matches!(options.backend, fsm_storage::StorageBackend::Memory) {
        let budget = match options.cache_budget {
            0 => "disabled".to_string(),
            usize::MAX => "unlimited".to_string(),
            bytes => format!("{bytes} bytes"),
        };
        eprintln!(
            "disk cache: {} segment runs read, {} chunks served from resident segments \
             (budget {budget})",
            result.stats().pages_read,
            result.stats().cache_hits,
        );
    }
    if options.delta {
        eprintln!("delta: {}", result.stats().delta);
    }
    if options.durable_dir.is_some() {
        let durability = miner.matrix_mut().read_stats();
        eprintln!(
            "durability: {} WAL bytes written, {} fsyncs, {} checkpoint bytes, \
             {} batches replayed by recovery",
            durability.wal_bytes_written,
            durability.fsyncs,
            durability.checkpoint_bytes,
            miner
                .recovery_report()
                .map_or(0, |report| report.replayed_batches),
        );
    }

    let mut patterns: Vec<FrequentPattern> = match options.output {
        OutputKind::All => result.patterns().to_vec(),
        OutputKind::Closed => closed_patterns(&result),
        OutputKind::Maximal => maximal_patterns(&result),
    };
    if let Some(k) = options.top_k {
        let selected = top_k(&result, k);
        patterns.retain(|p| selected.contains(p));
    }

    if options.csv {
        println!("edges,support");
        for pattern in &patterns {
            let edges: Vec<String> = pattern.edges.iter().map(|e| e.0.to_string()).collect();
            println!("{},{}", edges.join(" "), pattern.support);
        }
    } else {
        println!("{} frequent connected collections:", patterns.len());
        for pattern in &patterns {
            println!("  {pattern}");
        }
    }
    Ok(())
}

/// Loads the input file as (catalog, transactions).
fn load(options: &Options) -> Result<(EdgeCatalog, Vec<Transaction>)> {
    match options.format {
        InputFormat::Fimi => {
            let transactions = read_fimi(&options.input)?;
            let max_item = transactions
                .iter()
                .flat_map(|t| t.iter())
                .map(|e| e.0 + 1)
                .max()
                .unwrap_or(0);
            // Items live on a path graph so that "connected" is well defined;
            // this matches the convention of the benchmark harness.
            Ok((EdgeCatalog::path(max_item), transactions))
        }
        InputFormat::NTriples => {
            let text = std::fs::read_to_string(&options.input)?;
            let triples = ntriples::parse(&text)?;
            let strategy = match options.group_size {
                Some(n) => GroupingStrategy::FixedSize(n),
                None => GroupingStrategy::BySubject,
            };
            let mut adapter = TripleStreamAdapter::new(strategy);
            let snapshots = adapter.convert(&triples);
            let mut catalog = EdgeCatalog::new();
            let transactions = snapshots
                .iter()
                .map(|s| s.intern_into(&mut catalog))
                .collect();
            Ok((catalog, transactions))
        }
    }
}
