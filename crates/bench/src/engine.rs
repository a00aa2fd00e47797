//! The engine work beyond the paper that only an in-process harness can see:
//! the concurrent ingest + mine overlap, thread scaling of all five
//! algorithms, delta maintenance against a full re-mine, and the kernel and
//! window-view timings.  What a *served* step costs, layer by layer, is the repo
//! benchmark's (`benchmark/`) to measure, not this crate's.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use fsm_core::{Algorithm, MinerConfig, MinerSnapshot, MiningResult, StreamMiner};
use fsm_dsmatrix::{DsMatrix, DsMatrixConfig};
use fsm_fptree::MiningLimits;
use fsm_storage::{BitVec, StorageBackend};
use fsm_stream::WindowConfig;
use fsm_types::Batch;

use crate::paper::{Setup, MAX_LEN, REPEATS, WINDOW};
use crate::report::{fail, Row, Section, Value, Verdict};
use crate::runner::{median, run_algorithm_on};
use crate::workloads::Workload;

const SNAPSHOT: &str = "snapshot";
const SCALING: &str = "scaling";
const DELTA: &str = "delta";
const KERNELS: &str = "kernels";

/// `scaling`: the most a vertical-family miner's median mine on N threads
/// may take, as a multiple of its median on one.  The hire rule keeps a
/// small mine on its caller, so N threads may cost it no more than noise;
/// the margin is wide, in E3's spirit, because the mines are short.
pub const SCALING_BOUND: f64 = 1.25;

/// Concurrent ingest + mine: every slide is frozen as an epoch snapshot
/// ([`StreamMiner::snapshot`]) and mined on a worker thread while ingest keeps
/// appending on the main thread, against the stop-the-world loop that mines
/// after every slide before ingesting the next batch.
///
/// The check holds two claims: every concurrently-mined epoch's patterns are
/// identical to the stop-the-world miner's at that epoch, and overlap really
/// happened.  The overlap is *constructed*, not sampled — how long a mine
/// happens to take must not decide whether the section passes: on one slide
/// per workload the worker announces the epoch it is about to mine and holds
/// its snapshot until the writer has completed the next ingest, so that mine
/// provably runs over a window that has already slid.  Whatever overlap the
/// other slides add by timing alone is counted too.  The stall column is the
/// third claim, reported: the writer's ingest latency is unchanged by the
/// mining underneath it, because a snapshot is `Arc`-shared segments, never
/// a copy and never a lock the writer waits on.  Both loops time their mines,
/// so the rows also hold the median live mine against the median snapshot
/// mine of the same epochs.
pub fn snapshot(setup: &Setup) -> Section {
    let algorithm = Algorithm::DirectVertical;
    let mut rows = Vec::new();
    for (workload, minsup) in &setup.suite {
        let build = || {
            StreamMiner::new(MinerConfig {
                algorithm,
                window: WindowConfig::new(WINDOW).expect("window"),
                min_support: *minsup,
                backend: StorageBackend::DiskTemp,
                cache_budget_bytes: usize::MAX,
                catalog: Some(workload.catalog.clone()),
                ..MinerConfig::default()
            })
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
        let handshake = WINDOW.min(workload.batches.len().saturating_sub(2));
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

        assert_eq!(mined.len(), seq_results.len(), "one mine per epoch");
        let diverged = mined
            .iter()
            .filter(|(last, result)| {
                let epoch = last.expect("every mined epoch has a newest batch") as usize;
                !result.same_patterns_as(&seq_results[epoch])
            })
            .count();
        let per_batch_us = |d: Duration| d.as_secs_f64() * 1e6 / workload.batches.len() as f64;
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        rows.push(
            Row::default()
                .text("workload", &workload.name)
                .text("miner", algorithm.key())
                .int("epochs", mined.len() as u64)
                .ms("seq_wall_ms", seq_wall)
                .ms("conc_wall_ms", conc_wall)
                .num("seq_ingest_avg_us", per_batch_us(seq_ingest), 0)
                .num("seq_ingest_max_us", us(seq_ingest_max), 0)
                .num("conc_ingest_avg_us", per_batch_us(conc_ingest), 0)
                .num("conc_ingest_max_us", us(conc_ingest_max), 0)
                .num(
                    "ingest_stall",
                    us(conc_ingest) / us(seq_ingest).max(1e-3),
                    2,
                )
                .num("live_mine_us", us(median(live_mines)), 1)
                .num("snapshot_mine_us", us(median(snapshot_mines)), 1)
                .int("overlap", overlap)
                .int("diverged_epochs", diverged as u64),
        );
    }
    Section::checked(
        SNAPSHOT,
        "Concurrent ingest + mine: epoch snapshots against stop-the-world",
        rows,
        vec![
            "overlap: slides completed while a mine was in flight (at least the one \
              constructed per workload); ingest_stall: concurrent over stop-the-world \
              ingest time"
                .to_string(),
        ],
        check_snapshot,
    )
}

fn check_snapshot(rows: &[Row]) -> Verdict {
    for row in rows {
        let (workload, diverged) = (row.get("workload"), row.get("diverged_epochs"));
        if row.number("diverged_epochs") > 0.0 {
            return fail(
                SNAPSHOT,
                format!("{workload}: {diverged} epochs differ from stop-the-world"),
            );
        }
        // A one-batch stream has no slide to overlap.
        if row.number("epochs") >= 2.0 && row.number("overlap") < 1.0 {
            return fail(
                SNAPSHOT,
                format!("{workload}: no slide completed during a mine"),
            );
        }
    }
    Ok(
        "every concurrently-mined epoch equals stop-the-world, and on every workload a slide \
        completed while a mine was in flight"
            .into(),
    )
}

/// Thread scaling: all five algorithms at 1 worker against `setup.threads`
/// over the same captured windows — the vertical miners fan their subtrees
/// over the worker pool, the horizontal (FP-tree) miners their per-pivot
/// projected databases.  The check holds both runs to identical patterns.
///
/// The vertical family's pattern cap is two deeper than the timing tables'
/// so that the enumeration (the parallel region) dominates the mining call
/// rather than row loading and post-processing; the horizontal family is
/// projection-bound at the tables' cap already.  The 1-thread and N-thread
/// repeats alternate, so a slow phase of the host hits both sides.  The
/// speedup is hardware-bound: on a host with fewer cores than threads it
/// reads ~1.0x by construction, and the notes say so.  The check also holds
/// every vertical-family miner's N-thread median to [`SCALING_BOUND`] times
/// its 1-thread one: a mine the pool cannot speed up must not be slowed
/// down by it.
pub fn scaling(setup: &Setup) -> Section {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rows = Vec::new();
    for (workload, minsup) in &setup.suite {
        for algorithm in Algorithm::ALL {
            let max_len = MAX_LEN.map(|m| if algorithm.is_vertical() { m + 2 } else { m });
            let run = |workers: usize| {
                let backend = StorageBackend::Memory;
                run_algorithm_on(
                    workload, algorithm, WINDOW, *minsup, max_len, backend, workers,
                )
                .expect("run")
                .result
            };
            let (mut one, mut n) = (Vec::new(), Vec::new());
            for _ in 0..REPEATS {
                one.push(run(1));
                n.push(run(setup.threads));
            }
            let (patterns_seq, patterns_par) = (one[0].len() as u64, n[0].len() as u64);
            let elapsed =
                |runs: &[MiningResult]| median(runs.iter().map(|r| r.stats().elapsed).collect());
            let (sequential, parallel) = (elapsed(&one), elapsed(&n));
            rows.push(
                Row::default()
                    .text("workload", &workload.name)
                    .text("miner", algorithm.key())
                    .int("threads", setup.threads as u64)
                    .int("cores", cores as u64)
                    .ms("mine_ms_1_thread", sequential)
                    .ms("mine_ms_n_threads", parallel)
                    .num(
                        "speedup",
                        sequential.as_secs_f64() / parallel.as_secs_f64().max(1e-9),
                        2,
                    )
                    .int("patterns_1_thread", patterns_seq)
                    .int("patterns_n_threads", patterns_par),
            );
        }
    }
    let mut notes = vec![format!("available cores: {cores}")];
    if cores < setup.threads {
        notes.push(format!(
            "only {cores} core(s) visible to this process: the speedup is bounded by hardware, \
             not by the engine"
        ));
    }
    Section::checked(
        SCALING,
        format!(
            "Thread scaling: all five miners at {} threads against 1",
            setup.threads
        ),
        rows,
        notes,
        check_scaling,
    )
}

fn check_scaling(rows: &[Row]) -> Verdict {
    let vertical = [Algorithm::Vertical.key(), Algorithm::DirectVertical.key()];
    for row in rows {
        let (miner, workload) = (row.get("miner"), row.get("workload"));
        let (one, n) = (row.get("patterns_1_thread"), row.get("patterns_n_threads"));
        if one != n {
            return fail(
                SCALING,
                format!("{miner} on {workload}: {one} patterns on 1 thread, {n} on N"),
            );
        }
        let (one_ms, n_ms) = (
            row.number("mine_ms_1_thread"),
            row.number("mine_ms_n_threads"),
        );
        let is_vertical = matches!(miner, Value::Text(m) if vertical.contains(&m.as_str()));
        if is_vertical && n_ms > SCALING_BOUND * one_ms {
            return fail(
                SCALING,
                format!(
                    "{miner} on {workload}: {n_ms:.3} ms on N threads, above {SCALING_BOUND}x \
                     its {one_ms:.3} ms on 1"
                ),
            );
        }
    }
    Ok(format!(
        "every miner finds the same patterns on 1 thread and on N, and no vertical-family \
         miner's N-thread median is above {SCALING_BOUND}x its 1-thread median"
    ))
}

/// Steady-state slides the delta section measures per workload.
pub const DELTA_STEADY_SLIDES: usize = 64;

/// Delta maintenance ([`fsm_core::MinerConfig::delta`]) against a full
/// re-mine after every slide.  The oracle runs [`Algorithm::DirectVertical`]
/// — it enumerates the same §4 tree the delta maintains incrementally, so
/// its intersection count is the work a from-scratch mine spends on it (a
/// sibling join: every canonical neighbour screen its parent did not already
/// fail).  The check holds the delta to the oracle at every epoch, and, once
/// the window is warm, to no full rebuild, to fewer re-examined patterns than
/// the full re-mine screens candidates, and to fewer support evaluations
/// (arrival-walk probes plus border updates, each touching one arriving
/// segment's chunks) than the full re-mine's whole-window volume (screens ×
/// window batches) — the point of the layer.  Neither side's count includes
/// singleton reads: the oracle takes them from the ingest-time counters, the
/// arrival walk from the arriving chunk's popcount at each root.
///
/// Both miners are built with `setup.threads` participants, so the
/// byte-identity covers the delta advance's per-root fan-out; the oracle's
/// full mines hire by their own first level, which on these windows keeps
/// them on the caller.  A workload's batches are replayed cyclically under
/// fresh batch ids until the warm window has slid [`DELTA_STEADY_SLIDES`]
/// times, so the per-slide means are over that many slides at any scale.
pub fn delta(setup: &Setup) -> Section {
    let (mut rows, mut notes) = (Vec::new(), Vec::new());
    for (workload, minsup) in &setup.suite {
        let build = |delta: bool| {
            StreamMiner::new(MinerConfig {
                algorithm: Algorithm::DirectVertical,
                window: WindowConfig::new(WINDOW).expect("window"),
                min_support: *minsup,
                limits: MiningLimits {
                    max_pattern_len: MAX_LEN,
                },
                backend: StorageBackend::DiskTemp,
                threads: setup.threads,
                delta,
                catalog: Some(workload.catalog.clone()),
                ..MinerConfig::default()
            })
            .expect("miner")
        };
        let (mut delta_miner, mut oracle) = (build(true), build(false));
        let (mut delta_time, mut full_time) = (Duration::ZERO, Duration::ZERO);
        let (mut steady_delta_time, mut steady_full_time) = (Duration::ZERO, Duration::ZERO);
        let (mut rebuilds, mut diverged, mut final_patterns) = (0u64, 0u64, 0usize);
        // Steady-state totals: re-examined, affected, tracked, rebuilds,
        // border updates, full-oracle intersections.
        let mut steady = [0u64; 6];
        let slides = WINDOW + DELTA_STEADY_SLIDES;
        for (idx, batch) in workload.batches.iter().cycle().take(slides).enumerate() {
            let batch = &Batch::from_transactions(idx as u64, batch.transactions().to_vec());
            delta_miner.ingest_batch(batch).expect("ingest");
            oracle.ingest_batch(batch).expect("ingest");
            let t = Instant::now();
            let incremental = delta_miner.mine().expect("delta mine");
            let delta_elapsed = t.elapsed();
            let t = Instant::now();
            let full = oracle.mine().expect("full mine");
            let full_elapsed = t.elapsed();
            delta_time += delta_elapsed;
            full_time += full_elapsed;
            if !incremental.same_patterns_as(&full) {
                diverged += 1;
                notes.push(format!(
                    "{} epoch {idx}: the delta diverged from the full re-mine: {:?}",
                    workload.name,
                    full.diff(&incremental)
                ));
            }
            let stats = &incremental.stats().delta;
            rebuilds += stats.full_rebuilds;
            final_patterns = full.len();
            if idx >= WINDOW {
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
        let per = |total: u64| total as f64 / DELTA_STEADY_SLIDES as f64;
        let per_ms = |total: Duration| total.as_secs_f64() * 1e3 / DELTA_STEADY_SLIDES as f64;
        rows.push(
            Row::default()
                .text("workload", &workload.name)
                .int("threads", setup.threads as u64)
                .int("slides", slides as u64)
                .int("steady_slides", DELTA_STEADY_SLIDES as u64)
                .num("steady_tracked_per_slide", per(steady[2]), 1)
                .num("steady_reexamined_per_slide", per(steady[0]), 1)
                .num("steady_affected_per_slide", per(steady[1]), 1)
                .num("steady_border_updates_per_slide", per(steady[4]), 1)
                .num("steady_full_screens_per_slide", per(steady[5]), 1)
                .int("final_patterns", final_patterns as u64)
                .ms("delta_ms", delta_time)
                .ms("full_ms", full_time)
                .num("steady_delta_ms_per_slide", per_ms(steady_delta_time), 3)
                .num("steady_full_ms_per_slide", per_ms(steady_full_time), 3)
                .int("rebuilds", rebuilds)
                .int("steady_rebuilds", steady[3])
                .int("diverged_epochs", diverged),
        );
    }
    Section::checked(
        DELTA,
        format!(
            "Delta mining: maintained pattern set against a full re-mine per slide, {} threads",
            setup.threads
        ),
        rows,
        notes,
        check_delta,
    )
}

fn check_delta(rows: &[Row]) -> Verdict {
    for row in rows {
        let workload = row.get("workload");
        let reexamined = row.number("steady_reexamined_per_slide");
        let border = row.number("steady_border_updates_per_slide");
        let screens = row.number("steady_full_screens_per_slide");
        let (diverged, rebuilds) = (row.get("diverged_epochs"), row.get("steady_rebuilds"));
        let violation = if row.number("diverged_epochs") > 0.0 {
            format!("{diverged} epochs diverged from the full re-mine")
        } else if row.number("steady_rebuilds") > 0.0 {
            format!("{rebuilds} rebuilds in the steady state")
        } else if reexamined >= screens {
            format!(
                "re-examined/slide ({reexamined:.1}) not below the full re-mine's candidate \
                 screens ({screens:.1})"
            )
        } else if reexamined + border >= screens * WINDOW as f64 {
            format!(
                "delta evaluations/slide ({reexamined:.1} probes + {border:.1} border updates) \
                 not below the full re-mine's whole-window volume ({screens:.1} screens x \
                 {WINDOW} batches)"
            )
        } else {
            continue;
        };
        return fail(DELTA, format!("{workload}: {violation}"));
    }
    Ok(
        "every epoch equals the full re-mine; in the steady state no rebuild, re-examined < full \
        screens and delta evaluations < screens x window"
            .into(),
    )
}

/// Timing of the intersection kernels on the tier this CPU selects
/// (`fsm_storage::bitvec::kernel_tier`), of the checksum every segment run
/// and DSTable row pays (4.8 kB for a 60-row, 500-column segment; the
/// 8 192-bit input is one 1 KiB page), and of a window view's assembly
/// ([`DsMatrix::view`]) on every backend: over resident memory segments,
/// and over disk segments with nothing resident (budget 0: every call reads
/// and decodes every segment run) or everything resident (unlimited budget:
/// no run read, no decode).  A view row's `bits` are the window's, rows
/// times columns.  Timings only: no claim to check.
pub fn kernels() -> Section {
    let mut rows = Vec::new();
    let mut push = |kernel: &str, bits: usize, ns: f64| {
        rows.push(
            Row::default()
                .text("kernel", kernel)
                .int("bits", bits as u64)
                .num("ns_per_op", ns, 1)
                .num("ns_per_byte", ns * 8.0 / bits as f64, 2),
        );
    };
    for bits in [1usize << 10, 1 << 14, 1 << 17] {
        let mut random = lcg(bits);
        let a = BitVec::from_bools((0..bits).map(|_| (random() >> 33) & 1 == 1));
        let b = BitVec::from_bools((0..bits).map(|_| (random() >> 33) & 1 == 1));
        let iters = (1 << 24) / bits;
        let ns = ns_per_call(iters, || black_box(&a).and_count(black_box(&b)));
        push("and_count", bits, ns);
        let mut buf = BitVec::new();
        let ns = ns_per_call(iters, || black_box(&a).and_into(black_box(&b), &mut buf));
        push("and_into", bits, ns);
    }
    for bits in [8usize << 10, 1 << 19] {
        let mut random = lcg(bits);
        let bytes: Vec<u8> = (0..bits / 8).map(|_| (random() >> 56) as u8).collect();
        let ns = ns_per_call((1 << 28) / bits, || {
            u64::from(fsm_storage::crc32(black_box(&bytes)))
        });
        push("crc32", bits, ns);
    }
    for workload in [Workload::graph_model(1, 11), Workload::dense(1, 12)] {
        for (label, backend, budget) in [
            ("view_memory", StorageBackend::Memory, 0),
            ("view_disk_budget0", StorageBackend::DiskTemp, 0),
            ("view_disk_resident", StorageBackend::DiskTemp, usize::MAX),
        ] {
            let items = workload.catalog.num_edges();
            let window = WindowConfig::new(WINDOW).expect("window");
            let config = DsMatrixConfig::new(window, backend, items).with_cache_budget(budget);
            let mut matrix = DsMatrix::new(config).expect("matrix");
            for batch in &workload.batches {
                matrix.ingest_batch(batch).expect("ingest");
            }
            let bits = items * matrix.num_transactions();
            let ns = ns_per_call(64, || {
                matrix.view().expect("view").num_transactions() as u64
            });
            push(&format!("{label} ({})", workload.name), bits, ns);
        }
    }
    Section::checked(
        KERNELS,
        format!(
            "Kernels: BitVec and_count / and_into ({} tier), crc32 and window views",
            fsm_storage::bitvec::kernel_tier()
        ),
        rows,
        Vec::new(),
        |_| Ok("timings only; no claim to check".into()),
    )
}

/// Mean nanoseconds per call of `op` over `iters` calls.
fn ns_per_call(iters: usize, mut op: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut sink = 0u64;
    for _ in 0..iters {
        sink ^= op();
    }
    black_box(sink);
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// A deterministic 64-bit LCG seeded from `seed`.
fn lcg(seed: usize) -> impl FnMut() -> u64 {
    let mut state = 0x9e3779b97f4a7c15u64 ^ seed as u64;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_fails(verdict: Verdict, section: &str) {
        let failure = verdict.expect_err("a violating row set must fail its check");
        assert_eq!(failure.section, section, "{failure:?}");
    }

    #[test]
    fn snapshot_fails_on_a_diverged_epoch_or_no_overlap() {
        let row = |overlap, diverged| {
            Row::default()
                .text("workload", "w")
                .int("epochs", 8)
                .int("overlap", overlap)
                .int("diverged_epochs", diverged)
        };
        assert!(check_snapshot(&[row(3, 0)]).is_ok());
        assert_fails(check_snapshot(&[row(3, 1)]), SNAPSHOT);
        assert_fails(check_snapshot(&[row(0, 0)]), SNAPSHOT);
    }

    fn scaling_row(miner: &str, n_patterns: u64, n_ms: f64) -> Row {
        Row::default()
            .text("workload", "w")
            .text("miner", miner)
            .int("threads", 2)
            .num("mine_ms_1_thread", 1.0, 3)
            .num("mine_ms_n_threads", n_ms, 3)
            .int("patterns_1_thread", 109)
            .int("patterns_n_threads", n_patterns)
    }

    #[test]
    fn scaling_fails_when_thread_counts_disagree() {
        assert!(check_scaling(&[scaling_row("vertical", 109, 1.0)]).is_ok());
        assert_fails(check_scaling(&[scaling_row("vertical", 108, 1.0)]), SCALING);
    }

    #[test]
    fn scaling_fails_when_a_vertical_miner_slows_past_the_bound_on_n_threads() {
        for miner in ["vertical", "direct-vertical"] {
            assert!(check_scaling(&[scaling_row(miner, 109, SCALING_BOUND)]).is_ok());
            let slower = scaling_row(miner, 109, SCALING_BOUND + 0.01);
            assert_fails(
                check_scaling(&[scaling_row(miner, 109, 0.5), slower]),
                SCALING,
            );
        }
        // The horizontal family is held to identical patterns only.
        assert!(check_scaling(&[scaling_row("top-down", 109, 3.0)]).is_ok());
    }

    #[test]
    fn delta_fails_on_divergence_rebuilds_or_either_bound() {
        let row = |diverged, rebuilds, reexamined, border| {
            Row::default()
                .text("workload", "w")
                .num("steady_reexamined_per_slide", reexamined, 1)
                .num("steady_border_updates_per_slide", border, 1)
                .num("steady_full_screens_per_slide", 100.0, 1)
                .int("steady_rebuilds", rebuilds)
                .int("diverged_epochs", diverged)
        };
        assert!(check_delta(&[row(0, 0, 90.0, 300.0)]).is_ok());
        assert_fails(check_delta(&[row(1, 0, 90.0, 300.0)]), DELTA);
        assert_fails(check_delta(&[row(0, 1, 90.0, 300.0)]), DELTA);
        assert_fails(check_delta(&[row(0, 0, 100.0, 300.0)]), DELTA);
        assert_fails(check_delta(&[row(0, 0, 90.0, 410.0)]), DELTA);
    }
}
