//! Experiment E3 (§5, third experiment + Figure 2): time efficiency.
//!
//! Expected ordering (paper): runtime(multi-tree) > runtime(single-tree ≈
//! top-down) > runtime(vertical) > runtime(direct-vertical).  Figure 2 plots
//! the two vertical algorithms against each other (the companion Criterion
//! bench `fig2_vertical` times just that pair); this binary prints the full
//! table across all algorithms.
//!
//! Beyond the paper's table the binary keeps only what no other harness can
//! see: thread scaling of all five algorithms, the constructed concurrent
//! ingest + mine overlap, delta-vs-full maintenance and the kernel / checksum
//! timings — all four persisted by `--json-out` (`BENCH_delta.json`).
//! What a served step costs layer by layer (capture, splice, assembly, pages,
//! cache, WAL, spill / thaw, fleet contention) is `benchmark/`'s to report,
//! and the accounting behind those counters is asserted by tier-1 tests.

use fsm_bench::report::{host_json, markdown_table, millis};
use fsm_bench::{run_algorithm_on, run_algorithm_threaded, run_baselines_on, Workload};
use fsm_core::{Algorithm, MinerSnapshot, StreamMiner, StreamMinerBuilder};
use fsm_storage::{BitVec, StorageBackend};
use fsm_types::{Batch, MinSup};

/// Shared experiment setup: every section mines the same workload suite at
/// the same thresholds and window, so the configuration is derived once here
/// instead of being repeated (and risking drift) in every section.
struct Setup {
    /// Sliding-window length in batches.
    window: usize,
    /// Pattern-cardinality cap for the timing tables (sections that need the
    /// enumeration to dominate deepen it locally).
    max_len: Option<usize>,
    /// Timing repeats per measured cell.
    repeats: u32,
    /// Worker threads for the parallel-scaling section.
    threads: usize,
    /// The standard workload suite, each paired with its minsup (dense
    /// streams mine at a higher relative threshold, as in the paper's
    /// experiment setup).
    workloads: Vec<(Workload, MinSup)>,
}

impl Setup {
    fn new(scale: usize, threads: usize) -> Self {
        let workloads = Workload::standard_suite(scale)
            .into_iter()
            .map(|workload| {
                let minsup = match workload.kind {
                    fsm_bench::WorkloadKind::Dense => MinSup::relative(0.15),
                    _ => MinSup::relative(0.03),
                };
                (workload, minsup)
            })
            .collect();
        Self {
            window: 5,
            max_len: Some(4),
            repeats: 3,
            threads,
            workloads,
        }
    }
}

fn main() {
    let mut scale = None;
    let mut threads = 4usize;
    let mut json_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let parsed = if arg == "--threads" {
            args.next().and_then(|s| s.parse().ok()).map(|n| {
                // Resolve "all cores" up front so the report names the real
                // worker count.
                threads = if n == 0 {
                    std::thread::available_parallelism()
                        .map(|c| c.get())
                        .unwrap_or(1)
                } else {
                    n
                };
            })
        } else if arg == "--json-out" {
            args.next().map(|path| json_out = Some(path))
        } else if scale.is_none() {
            arg.parse().ok().map(|n| scale = Some(n))
        } else {
            None
        };
        if parsed.is_none() {
            eprintln!("usage: exp3_runtime [SCALE] [--threads N] [--json-out PATH]");
            std::process::exit(2);
        }
    }
    let setup = Setup::new(scale.unwrap_or(1), threads);

    main_table(&setup);
    let scaling = parallel_scaling(&setup);
    let snapshot = concurrent_ingest_mine(&setup);
    let delta = delta_mining(&setup);
    let kernels = kernel_timings();

    if let Some(path) = json_out {
        let json = render_json(&delta, &kernels, &snapshot, &scaling);
        std::fs::write(&path, json).expect("write --json-out file");
        println!("wrote delta + kernel + snapshot-mine + thread-scaling numbers to {path}");
    }
}

/// The headline E3 table: all five algorithms plus the DSTree/DSTable
/// baselines on every workload, with the paper's runtime-ordering check.
fn main_table(setup: &Setup) {
    println!(
        "# Experiment E3 — time efficiency (averaged over {} runs)\n",
        setup.repeats
    );

    for (workload, minsup) in &setup.workloads {
        println!("## {} ({})\n", workload.name, workload.stats());
        let mut rows = Vec::new();
        let mut timings = std::collections::BTreeMap::new();

        for algorithm in Algorithm::ALL {
            let mut total_mine = std::time::Duration::ZERO;
            let mut total_capture = std::time::Duration::ZERO;
            let mut patterns = 0;
            for _ in 0..setup.repeats {
                let run = run_algorithm_on(
                    workload,
                    algorithm,
                    setup.window,
                    *minsup,
                    setup.max_len,
                    StorageBackend::DiskTemp,
                )
                .expect("run");
                total_mine += run.mining_time;
                total_capture += run.capture_time;
                patterns = run.patterns;
            }
            let mine_avg = total_mine / setup.repeats;
            timings.insert(algorithm.key().to_string(), mine_avg);
            rows.push(vec![
                algorithm.key().to_string(),
                millis(total_capture / setup.repeats),
                millis(mine_avg),
                patterns.to_string(),
            ]);
        }
        for run_result in
            run_baselines_on(workload, setup.window, *minsup, setup.max_len).expect("baselines")
        {
            rows.push(vec![
                run_result.label.clone(),
                millis(run_result.capture_time),
                millis(run_result.mining_time),
                run_result.patterns.to_string(),
            ]);
        }

        println!(
            "{}",
            markdown_table(
                &[
                    "miner",
                    "capture ms (stream)",
                    "mine ms (window)",
                    "patterns"
                ],
                &rows
            )
        );

        let get = |k: &str| timings.get(k).copied().unwrap_or_default();
        let horizontal_slowest = get("multi-tree");
        let single = get("single-tree").min(get("top-down"));
        let vertical = get("vertical");
        let direct = get("direct-vertical");
        println!(
            "ordering check: multi-tree ({} ms) >= single/top-down ({} ms) >= vertical ({} ms) >= direct ({} ms) : {}\n",
            millis(horizontal_slowest),
            millis(single),
            millis(vertical),
            millis(direct),
            if horizontal_slowest >= single && single >= vertical && vertical >= direct {
                "holds"
            } else {
                "see Criterion bench for the statistically robust comparison"
            }
        );
    }
}

/// Concurrent ingest + mine section: every slide is frozen as an epoch
/// snapshot ([`StreamMiner::snapshot`]) and mined on a worker thread while
/// ingest keeps appending on the main thread — against the stop-the-world
/// loop that mines after every slide before ingesting the next batch.
///
/// Two claims are *asserted*, not just printed: overlap really happened
/// (slides completed while a mine was in flight, counted via a shared
/// progress counter the worker reads when each mine finishes), and there is
/// no correctness divergence (every concurrently-mined epoch's patterns are
/// identical to the stop-the-world miner's at that epoch).  The overlap is
/// *constructed*, not sampled — how long a mine happens to take must not
/// decide whether the section passes: on one slide per workload the worker
/// announces the epoch it is about to mine and holds its snapshot until the
/// writer has completed the next ingest, so that mine provably runs over a
/// window that has already slid.  Whatever overlap the other slides add by
/// timing alone is counted and printed too.  The table shows
/// the third claim — ingest stall ≈ 0: the writer's per-ingest latency is
/// unchanged by the mining running underneath it, because a snapshot is
/// `Arc`-shared segments, never a copy and never a lock the writer waits on.
///
/// Both loops time their mines, so the section also records what mining a
/// frozen epoch costs against mining the live window it froze: the median
/// stop-the-world [`StreamMiner::mine`] and the median worker-side
/// [`MinerSnapshot::mine`] over the same epochs (the latter while the writer
/// ingests on another core), persisted via `--json-out`.
fn concurrent_ingest_mine(setup: &Setup) -> Vec<SnapshotRow> {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

    println!("# Concurrent ingest + mine — epoch snapshots vs stop-the-world\n");
    let algorithm = Algorithm::DirectVertical;
    let median_us = |mut mines: Vec<Duration>| {
        mines.sort();
        mines
            .get(mines.len() / 2)
            .map_or(0.0, Duration::as_secs_f64)
            * 1e6
    };
    let mut out = Vec::new();
    let mut suite_overlap = 0u64;
    for (workload, minsup) in &setup.workloads {
        let minsup = *minsup;
        let build = || -> StreamMiner {
            StreamMinerBuilder::new()
                .algorithm(algorithm)
                .window_batches(setup.window)
                .min_support(minsup)
                .backend(StorageBackend::DiskTemp)
                .cache_budget_bytes(usize::MAX)
                .catalog(workload.catalog.clone())
                .build()
                .expect("miner")
        };

        // Stop-the-world baseline: ingest waits for every mine.
        let mut sequential = build();
        let (mut seq_results, mut live_mines) = (Vec::new(), Vec::new());
        let (mut seq_ingest, mut seq_ingest_max) = (Duration::ZERO, Duration::ZERO);
        let seq_start = Instant::now();
        for batch in &workload.batches {
            let t = Instant::now();
            sequential.ingest_batch(batch).expect("ingest");
            let dt = t.elapsed();
            seq_ingest += dt;
            seq_ingest_max = seq_ingest_max.max(dt);
            let t = Instant::now();
            seq_results.push(sequential.mine().expect("mine"));
            live_mines.push(t.elapsed());
        }
        let seq_wall = seq_start.elapsed();

        // Concurrent run: the writer never waits; a worker thread mines
        // every epoch snapshot it is handed.
        let mut concurrent = build();
        let ingested = Arc::new(AtomicU64::new(0));
        let (mut conc_ingest, mut conc_ingest_max) = (Duration::ZERO, Duration::ZERO);
        let conc_start = Instant::now();
        // The handshake slide: the first one that evicts, or the last one
        // that still has an ingest after it on a short stream.
        let handshake = setup.window.min(workload.batches.len().saturating_sub(2));
        let (mined, snapshot_mines, overlap) = std::thread::scope(|scope| {
            let (jobs, worker_jobs) = mpsc::channel::<MinerSnapshot>();
            let (announce, announced) = mpsc::channel::<()>();
            let (release, released) = mpsc::channel::<()>();
            let progress = Arc::clone(&ingested);
            let worker = scope.spawn(move || {
                let (mut mined, mut mines) = (Vec::new(), Vec::new());
                let mut overlap = 0u64;
                for (index, job) in worker_jobs.into_iter().enumerate() {
                    let at_snapshot = job.last_batch_id().map_or(0, |id| id + 1);
                    if index == handshake {
                        // "Mining this epoch" — then hold the snapshot until
                        // the writer has slid the window past it.  (On a
                        // one-batch stream no ingest follows; the writer
                        // hangs up instead and `recv` returns at once.)
                        announce.send(()).expect("writer alive");
                        let _ = released.recv();
                    }
                    let t = Instant::now();
                    let result = job.mine().expect("snapshot mine");
                    mines.push(t.elapsed());
                    // Slides the writer completed while this mine ran.
                    overlap += progress.load(Ordering::Relaxed).saturating_sub(at_snapshot);
                    mined.push((job.last_batch_id(), result));
                }
                (mined, mines, overlap)
            });
            for (index, batch) in workload.batches.iter().enumerate() {
                let t = Instant::now();
                concurrent.ingest_batch(batch).expect("ingest");
                let dt = t.elapsed();
                conc_ingest += dt;
                conc_ingest_max = conc_ingest_max.max(dt);
                ingested.fetch_add(1, Ordering::Relaxed);
                if index == handshake + 1 {
                    release.send(()).expect("mining worker alive");
                }
                jobs.send(concurrent.snapshot().expect("snapshot"))
                    .expect("mining worker alive");
                if index == handshake {
                    // Outside the timed ingest: wait for the worker to reach
                    // this epoch before sliding past it.
                    announced.recv().expect("mining worker alive");
                }
            }
            drop((jobs, release));
            worker.join().expect("mining worker panicked")
        });
        let conc_wall = conc_start.elapsed();

        // No correctness divergence: every concurrently-mined epoch equals
        // the stop-the-world patterns at that epoch.
        assert_eq!(mined.len(), seq_results.len());
        for (last, result) in &mined {
            let idx = last.expect("every mined epoch has a newest batch") as usize;
            assert!(
                result.same_patterns_as(&seq_results[idx]),
                "{}: concurrent mine diverged at epoch {idx}: {:?}",
                workload.name,
                seq_results[idx].diff(result)
            );
        }
        assert!(
            overlap > 0 || workload.batches.len() < 2,
            "{}: the handshake slide did not complete while its mine was in flight",
            workload.name
        );
        suite_overlap += overlap;

        let per = |d: Duration| {
            format!(
                "{:.0}",
                d.as_secs_f64() * 1e6 / workload.batches.len().max(1) as f64
            )
        };
        println!("## {} ({})\n", workload.name, workload.stats());
        println!(
            "{}",
            markdown_table(
                &[
                    "mode",
                    "wall ms (stream)",
                    "avg ingest µs",
                    "max ingest µs",
                    "epochs mined"
                ],
                &[
                    vec![
                        "stop-the-world".to_string(),
                        millis(seq_wall),
                        per(seq_ingest),
                        format!("{:.0}", seq_ingest_max.as_secs_f64() * 1e6),
                        seq_results.len().to_string(),
                    ],
                    vec![
                        "concurrent (epoch snapshots)".to_string(),
                        millis(conc_wall),
                        per(conc_ingest),
                        format!("{:.0}", conc_ingest_max.as_secs_f64() * 1e6),
                        mined.len().to_string(),
                    ],
                ]
            )
        );
        let stall = conc_ingest.as_secs_f64() / seq_ingest.as_secs_f64().max(1e-9);
        println!(
            "slides completed while a mine was in flight: {overlap}; \
             every epoch byte-identical to stop-the-world (asserted); \
             ingest stall vs stop-the-world: {stall:.2}x avg"
        );
        let row = SnapshotRow {
            workload: workload.name.clone(),
            algorithm: algorithm.key(),
            live_mine_us: median_us(live_mines),
            snapshot_mine_us: median_us(snapshot_mines),
        };
        println!(
            "median mine per epoch: live (stop-the-world) {:.0} µs, snapshot (worker) {:.0} µs\n",
            row.live_mine_us, row.snapshot_mine_us
        );
        out.push(row);
    }
    println!(
        "suite total: {suite_overlap} slides completed while a mine was in flight \
         (at least the one constructed per workload, asserted)\n"
    );
    out
}

/// One workload's epoch-mine cost against the live mine of the same windows,
/// persisted via `--json-out`.
struct SnapshotRow {
    workload: String,
    algorithm: &'static str,
    live_mine_us: f64,
    snapshot_mine_us: f64,
}

/// One algorithm's mine time at 1 worker against `threads` workers on one
/// workload, persisted via `--json-out` with the cores the host exposed.
struct ScalingRow {
    workload: String,
    algorithm: &'static str,
    threads: usize,
    cores: usize,
    mine_1_thread: std::time::Duration,
    mine_n_threads: std::time::Duration,
}

/// Parallel-scaling run: all five algorithms at 1 worker versus `threads`
/// workers over the same captured windows — the vertical miners fan their
/// subtrees over the worker pool, the horizontal (FP-tree) miners their
/// per-pivot projected databases.
///
/// The vertical family's pattern cap is two deeper than the main table's so
/// that the enumeration (the parallel region) dominates the mining call
/// rather than row loading and post-processing; the horizontal family is
/// projection-bound at the main table's cap already.  The numbers are
/// hardware-bound: on a host that exposes fewer cores than `threads` the
/// speedup column reads ~1.0x by construction, and the section says so.
fn parallel_scaling(setup: &Setup) -> Vec<ScalingRow> {
    let threads = setup.threads;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let families = [
        (
            &[Algorithm::Vertical, Algorithm::DirectVertical][..],
            setup.max_len.map(|m| m + 2),
        ),
        (
            &[
                Algorithm::MultiTree,
                Algorithm::SingleTree,
                Algorithm::TopDown,
            ][..],
            setup.max_len,
        ),
    ];
    println!("# Parallel scaling — all five miners at {threads} threads vs 1\n");
    println!("available cores: {cores}");
    if cores < threads {
        println!(
            "note: only {cores} core(s) visible to this process — speedup is \
             bounded by hardware, not by the engine; re-run on a multi-core \
             host for the real curve"
        );
    }
    println!();
    let mut out = Vec::new();
    for (workload, minsup) in &setup.workloads {
        println!("## {} ({})\n", workload.name, workload.stats());
        let mut rows = Vec::new();
        for (family, max_len) in families {
            for &algorithm in family {
                let timing = |workers: usize| {
                    let mut total = std::time::Duration::ZERO;
                    let mut patterns = 0;
                    for _ in 0..setup.repeats {
                        let run = run_algorithm_threaded(
                            workload,
                            algorithm,
                            setup.window,
                            *minsup,
                            max_len,
                            StorageBackend::Memory,
                            workers,
                        )
                        .expect("run");
                        total += run.mining_time;
                        patterns = run.patterns;
                    }
                    (total / setup.repeats, patterns)
                };
                let (sequential, patterns_seq) = timing(1);
                let (parallel, patterns_par) = timing(threads);
                assert_eq!(
                    patterns_seq, patterns_par,
                    "parallel run must find identical patterns"
                );
                let speedup = sequential.as_secs_f64() / parallel.as_secs_f64().max(1e-9);
                rows.push(vec![
                    algorithm.key().to_string(),
                    millis(sequential),
                    millis(parallel),
                    format!("{speedup:.2}x"),
                    patterns_par.to_string(),
                ]);
                out.push(ScalingRow {
                    workload: workload.name.clone(),
                    algorithm: algorithm.key(),
                    threads,
                    cores,
                    mine_1_thread: sequential,
                    mine_n_threads: parallel,
                });
            }
        }
        println!(
            "{}",
            markdown_table(
                &[
                    "miner",
                    "mine ms (1 thread)",
                    &format!("mine ms ({threads} threads)"),
                    "speedup",
                    "patterns"
                ],
                &rows
            )
        );
    }
    out
}

/// Steady-state slides the delta section measures per workload.
const DELTA_STEADY_SLIDES: usize = 64;

/// One workload's delta-mining numbers, persisted via `--json-out`.
struct DeltaRow {
    workload: String,
    slides: u64,
    steady_slides: u64,
    steady_reexamined_per_slide: f64,
    steady_affected_per_slide: f64,
    steady_tracked_per_slide: f64,
    steady_border_updates_per_slide: f64,
    steady_full_screens_per_slide: f64,
    final_patterns: usize,
    delta_ms: f64,
    full_ms: f64,
    steady_delta_ms_per_slide: f64,
    steady_full_ms_per_slide: f64,
    rebuilds: u64,
}

/// Delta-mining section: the maintained pattern set
/// ([`fsm_core::MinerConfig::delta`]) against a full re-mine after
/// every slide.  The oracle runs [`Algorithm::DirectVertical`] — the same §4
/// neighbourhood enumeration the delta tree maintains incrementally, so its
/// intersection count is the work a from-scratch mine spends on the
/// identical candidate space.  Byte-identity with the oracle is *asserted* at
/// every epoch; once the window is warm a slide must never fall back to a
/// full rebuild, must re-examine fewer patterns than the full re-mine
/// screens candidates, and must keep its total support evaluations
/// (arrival-walk probes plus border updates, each touching one arriving
/// segment's chunks) below the full re-mine's whole-window volume (screens ×
/// window batches) — the point of the layer.  Neither side's count includes
/// singleton reads: the oracle takes them from the ingest-time counters, the
/// arrival walk from the arriving chunk's popcount at each root.
///
/// A workload's batches are replayed cyclically under fresh batch ids until
/// the warm window has slid [`DELTA_STEADY_SLIDES`] times, so the per-slide
/// means are over that many slides whatever the suite's scale.
fn delta_mining(setup: &Setup) -> Vec<DeltaRow> {
    use std::time::{Duration, Instant};

    println!("# Delta mining — maintained pattern set vs full re-mine per slide\n");
    let mut out = Vec::new();
    let mut rows = Vec::new();
    for (workload, minsup) in &setup.workloads {
        let build = |delta: bool| -> StreamMiner {
            let mut builder = StreamMinerBuilder::new()
                .algorithm(Algorithm::DirectVertical)
                .window_batches(setup.window)
                .min_support(*minsup)
                .backend(StorageBackend::DiskTemp)
                .delta(delta)
                .catalog(workload.catalog.clone());
            if let Some(max) = setup.max_len {
                builder = builder.max_pattern_len(max);
            }
            builder.build().expect("miner")
        };
        let mut delta_miner = build(true);
        let mut oracle = build(false);
        let (mut delta_time, mut full_time) = (Duration::ZERO, Duration::ZERO);
        let (mut steady_delta_time, mut steady_full_time) = (Duration::ZERO, Duration::ZERO);
        let mut rebuilds = 0u64;
        // steady-state totals: re-examined, affected, tracked, rebuilds,
        // border updates, full-oracle intersections
        let mut steady = [0u64; 6];
        let mut steady_slides = 0u64;
        let mut final_patterns = 0usize;
        let slides = setup.window + DELTA_STEADY_SLIDES;
        for (idx, batch) in workload.batches.iter().cycle().take(slides).enumerate() {
            let batch = &Batch::from_transactions(idx as u64, batch.transactions().to_vec());
            delta_miner.ingest_batch(batch).expect("ingest");
            oracle.ingest_batch(batch).expect("ingest");
            let t = Instant::now();
            let incremental = delta_miner.mine().expect("delta mine");
            let delta_elapsed = t.elapsed();
            delta_time += delta_elapsed;
            let t = Instant::now();
            let full = oracle.mine().expect("full mine");
            let full_elapsed = t.elapsed();
            full_time += full_elapsed;
            assert!(
                incremental.same_patterns_as(&full),
                "{} epoch {idx}: delta diverged from the full re-mine: {:?}",
                workload.name,
                full.diff(&incremental)
            );
            let stats = &incremental.stats().delta;
            rebuilds += stats.full_rebuilds;
            final_patterns = full.len();
            if idx >= setup.window {
                steady_slides += 1;
                steady[0] += stats.patterns_reexamined;
                steady[1] += stats.patterns_affected;
                steady[2] += stats.patterns_tracked as u64;
                steady[3] += stats.full_rebuilds;
                steady[4] += stats.border_updates;
                steady[5] += full.stats().intersections;
                steady_delta_time += delta_elapsed;
                steady_full_time += full_elapsed;
            }
        }
        let per = |total: u64| total as f64 / steady_slides.max(1) as f64;
        if steady_slides > 0 {
            // Batches are fixed-size, so the resolved relative threshold is
            // stable once the window is full: no steady-state rebuilds.
            assert_eq!(
                steady[3], 0,
                "{}: delta mining rebuilt in the steady state",
                workload.name
            );
            // The full oracle re-screens every candidate of the §4
            // enumeration against full window rows each mine; a steady delta
            // slide re-examines only the patterns the slide touched.
            assert!(
                steady[0] < steady[5],
                "{}: steady-state patterns re-examined/slide ({:.0}) must stay \
                 strictly below the full re-mine's candidate screens ({:.0})",
                workload.name,
                per(steady[0]),
                per(steady[5]),
            );
            // Volume bound: every delta evaluation (probe or border update)
            // touches at most one arriving segment's chunks — 1/window of
            // the whole-window row a full-mine screen intersects.
            assert!(
                steady[0] + steady[4] < steady[5] * setup.window as u64,
                "{}: steady-state delta support evaluations/slide ({:.0} probes \
                 + {:.0} border updates, one segment chunk each) must stay \
                 below the full re-mine's whole-window volume ({:.0} screens x \
                 {} window batches)",
                workload.name,
                per(steady[0]),
                per(steady[4]),
                per(steady[5]),
                setup.window,
            );
        }
        let per_ms = |total: Duration| total.as_secs_f64() * 1e3 / steady_slides.max(1) as f64;
        rows.push(vec![
            workload.name.clone(),
            format!("{:.0}", per(steady[2])),
            format!("{:.0}", per(steady[0])),
            format!("{:.0}", per(steady[4])),
            format!("{:.0}", per(steady[5])),
            format!("{:.3}", per_ms(steady_delta_time)),
            format!("{:.3}", per_ms(steady_full_time)),
            rebuilds.to_string(),
        ]);
        out.push(DeltaRow {
            workload: workload.name.clone(),
            slides: slides as u64,
            steady_slides,
            steady_reexamined_per_slide: per(steady[0]),
            steady_affected_per_slide: per(steady[1]),
            steady_tracked_per_slide: per(steady[2]),
            steady_border_updates_per_slide: per(steady[4]),
            steady_full_screens_per_slide: per(steady[5]),
            final_patterns,
            delta_ms: delta_time.as_secs_f64() * 1e3,
            full_ms: full_time.as_secs_f64() * 1e3,
            steady_delta_ms_per_slide: per_ms(steady_delta_time),
            steady_full_ms_per_slide: per_ms(steady_full_time),
            rebuilds,
        });
    }
    println!(
        "{}",
        markdown_table(
            &[
                "workload",
                "tracked/slide (steady)",
                "probes/slide",
                "border upd/slide",
                "full screens/slide",
                "delta ms/slide (steady)",
                "full ms/slide (steady)",
                "rebuilds"
            ],
            &rows
        )
    );
    println!(
        "every epoch byte-identical to the full re-mine (asserted); steady-state \
         re-examined < full screens and total delta evaluations < screens x \
         window (asserted) — delta evaluations touch one segment's chunks, \
         full screens whole window rows; both sides walk \
         the same §4 neighbourhood enumeration, so the border delta pays for \
         each slide is the failed neighbour screens only\n"
    );
    out
}

/// One measured kernel cell (BitVec intersection or checksum), persisted
/// via `--json-out`.
struct KernelRow {
    kernel: &'static str,
    bits: usize,
    ns_per_op: f64,
}

/// In-binary timing of the intersection kernels on the tier this CPU
/// selects (`fsm_storage::bitvec::kernel_tier`; the Criterion
/// bench `bitvec_kernels` sweeps more sizes and densities; this one is cheap
/// enough to run in CI and to persist alongside the delta numbers) and of the
/// page checksum.
fn kernel_timings() -> Vec<KernelRow> {
    use std::hint::black_box;
    use std::time::Instant;

    println!(
        "# BitVec kernels — and_count / and_into, {} tier (ns per call)\n",
        fsm_storage::bitvec::kernel_tier()
    );
    let mut out = Vec::new();
    let mut rows = Vec::new();
    for bits in [1usize << 10, 1 << 14, 1 << 17] {
        // Deterministic mixed-density operands.
        let mut state = 0x9e3779b97f4a7c15u64 ^ bits as u64;
        let mut step = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) & 1 == 1
        };
        let a = BitVec::from_bools((0..bits).map(|_| step()));
        let b = BitVec::from_bools((0..bits).map(|_| step()));
        let iters = (1 << 24) / bits.max(1);

        let start = Instant::now();
        let mut sink = 0u64;
        for _ in 0..iters {
            sink ^= black_box(&a).and_count(black_box(&b));
        }
        let count_ns = start.elapsed().as_secs_f64() * 1e9 / iters as f64;
        black_box(sink);

        let mut buf = BitVec::new();
        let start = Instant::now();
        for _ in 0..iters {
            sink ^= black_box(&a).and_into(black_box(&b), &mut buf);
        }
        let into_ns = start.elapsed().as_secs_f64() * 1e9 / iters as f64;
        black_box(sink);

        rows.push(vec![
            bits.to_string(),
            format!("{count_ns:.0}"),
            format!("{into_ns:.0}"),
        ]);
        out.push(KernelRow {
            kernel: "and_count",
            bits,
            ns_per_op: count_ns,
        });
        out.push(KernelRow {
            kernel: "and_into",
            bits,
            ns_per_op: into_ns,
        });
    }
    println!(
        "{}",
        markdown_table(&["bits", "and_count ns", "and_into ns"], &rows)
    );
    println!();

    // The page checksum: every segment page written or fetched pays one
    // `crc32` over its full padded size, so the 8 192-bit row (one 1 KiB
    // segment page) is the disk step's per-page cost.
    println!("# Checksum kernel — crc32 (ns per call)\n");
    let mut rows = Vec::new();
    for bits in [8usize << 10, 1 << 19] {
        let mut state = 0x9e3779b97f4a7c15u64 ^ bits as u64;
        let bytes: Vec<u8> = (0..bits / 8)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        let iters = (1 << 28) / bits;
        let start = Instant::now();
        let mut sink = 0u32;
        for _ in 0..iters {
            sink ^= fsm_storage::crc32(black_box(&bytes));
        }
        let ns = start.elapsed().as_secs_f64() * 1e9 / iters as f64;
        black_box(sink);
        rows.push(vec![
            bits.to_string(),
            format!("{ns:.0}"),
            format!("{:.2}", ns * 8.0 / bits as f64),
        ]);
        out.push(KernelRow {
            kernel: "crc32",
            bits,
            ns_per_op: ns,
        });
    }
    println!(
        "{}",
        markdown_table(&["bits", "crc32 ns", "ns per byte"], &rows)
    );
    println!();
    out
}

/// Hand-rolled JSON (the workspace carries no serde): the host block, the
/// delta section's per-workload numbers, the kernel timings, the concurrent
/// section's live-vs-snapshot mine medians and the thread-scaling rows.
fn render_json(
    delta: &[DeltaRow],
    kernels: &[KernelRow],
    snapshot: &[SnapshotRow],
    scaling: &[ScalingRow],
) -> String {
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let delta_objects: Vec<String> = delta
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": \"{}\", \"slides\": {}, \"steady_slides\": {}, \
                 \"steady_reexamined_per_slide\": {:.1}, \"steady_affected_per_slide\": {:.1}, \
                 \"steady_tracked_per_slide\": {:.1}, \
                 \"steady_border_updates_per_slide\": {:.1}, \
                 \"steady_full_screens_per_slide\": {:.1}, \"final_patterns\": {}, \
                 \"delta_ms\": {:.2}, \"full_ms\": {:.2}, \
                 \"steady_delta_ms_per_slide\": {:.3}, \
                 \"steady_full_ms_per_slide\": {:.3}, \"rebuilds\": {}}}",
                escape(&r.workload),
                r.slides,
                r.steady_slides,
                r.steady_reexamined_per_slide,
                r.steady_affected_per_slide,
                r.steady_tracked_per_slide,
                r.steady_border_updates_per_slide,
                r.steady_full_screens_per_slide,
                r.final_patterns,
                r.delta_ms,
                r.full_ms,
                r.steady_delta_ms_per_slide,
                r.steady_full_ms_per_slide,
                r.rebuilds,
            )
        })
        .collect();
    let kernel_objects: Vec<String> = kernels
        .iter()
        .map(|r| {
            format!(
                "    {{\"kernel\": \"{}\", \"bits\": {}, \"ns_per_op\": {:.1}}}",
                r.kernel, r.bits, r.ns_per_op
            )
        })
        .collect();
    let snapshot_objects: Vec<String> = snapshot
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": \"{}\", \"algorithm\": \"{}\", \
                 \"live_mine_us\": {:.1}, \"snapshot_mine_us\": {:.1}}}",
                escape(&r.workload),
                r.algorithm,
                r.live_mine_us,
                r.snapshot_mine_us
            )
        })
        .collect();
    let scaling_objects: Vec<String> = scaling
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": \"{}\", \"algorithm\": \"{}\", \"threads\": {}, \
                 \"cores\": {}, \"mine_ms_1_thread\": {}, \"mine_ms_n_threads\": {}}}",
                escape(&r.workload),
                r.algorithm,
                r.threads,
                r.cores,
                millis(r.mine_1_thread),
                millis(r.mine_n_threads)
            )
        })
        .collect();
    format!(
        "{{\n  \"host\": {},\n  \"delta\": [\n{}\n  ],\n  \"kernels\": [\n{}\n  ],\n  \
         \"snapshot\": [\n{}\n  ],\n  \"scaling\": [\n{}\n  ]\n}}\n",
        host_json(),
        delta_objects.join(",\n"),
        kernel_objects.join(",\n"),
        snapshot_objects.join(",\n"),
        scaling_objects.join(",\n")
    )
}
