//! The paper's experiments (§5) and the four ablations, one [`Section`] each.
//!
//! Every section asserts the paper's *qualitative* claim through a check over
//! its own rows.  Deterministic quantities (pattern sets and counts, bytes,
//! screens, capture words) get exact checks; a timing is asserted only where
//! its margin is wide (E3), as a median of [`REPEATS`] runs.  Where the
//! engine does not bear a claim out, the section reports it as a finding in
//! its notes instead of asserting it.

use std::time::Duration;

use fsm_core::Algorithm::{self, DirectVertical, SingleTree, Vertical};
use fsm_core::{oracle, ConnectivityChecker, ConnectivityMode};
use fsm_datagen::{
    GraphModel, GraphModelConfig, GraphStreamConfig, GraphStreamGenerator, QuestConfig,
    QuestGenerator,
};
use fsm_storage::StorageBackend::{self, DiskTemp, Memory};
use fsm_types::{EdgeCatalog, MinSup, Transaction};

use crate::report::{fail, groups, pick, Row, Section, Value, Verdict};
use crate::runner::{median, run_algorithm_on, run_baselines_on, AlgorithmRun};
use crate::workloads::{Workload, WorkloadKind};

/// Window length, in batches, of every section but the window ablation.
pub const WINDOW: usize = 5;
/// Pattern-cardinality cap of the timing tables.
pub const MAX_LEN: Option<usize> = Some(4);
/// Timed runs per measured cell; a reported timing is their median.
pub const REPEATS: usize = 5;
/// E3: how many times slower than the slower vertical miner every FP-tree
/// miner must be (the paper's "far below"; the smallest ratio measured at
/// scale 1 is 7–8, dense-connect4's top-down against vertical).
pub const FP_TREE_FACTOR: f64 = 3.0;
/// E5: the largest max / min ratio of capture words per batch across the
/// stream lengths that still counts as flat.
pub const E5_FLAT: f64 = 1.1;

const E1: &str = "e1_accuracy";
const E2: &str = "e2_space";
const E3: &str = "e3_runtime";
const E4: &str = "e4_minsup";
const E5: &str = "e5_scalability";
const A1: &str = "a1_postproc";
const A2: &str = "a2_storage";
const A3: &str = "a3_window";
const A4: &str = "a4_connectivity";

const FP_TREE_MINERS: [&str; 3] = ["multi-tree", "single-tree", "top-down"];

/// What every section is run with: the scale of its streams, the worker
/// threads of the sections that vary them, and the standard suite with its
/// thresholds (dense streams mine at a higher relative minsup, as in the
/// paper's setup).
pub struct Setup {
    /// Stream scale (≥ 1).
    pub scale: usize,
    /// Worker threads of the scaling and delta sections.
    pub threads: usize,
    /// The standard workloads, each with its minsup.
    pub suite: Vec<(Workload, MinSup)>,
}

impl Setup {
    /// The setup at `scale` with `threads` workers.
    pub fn new(scale: usize, threads: usize) -> Self {
        let suite = Workload::standard_suite(scale)
            .into_iter()
            .map(|workload| {
                let minsup = match workload.kind {
                    WorkloadKind::Dense => MinSup::relative(0.15),
                    _ => MinSup::relative(0.03),
                };
                (workload, minsup)
            })
            .collect();
        Self {
            scale,
            threads,
            suite,
        }
    }
}

/// One sequential run of `algorithm` at the tables' pattern cap.
fn mine(
    workload: &Workload,
    algorithm: Algorithm,
    window: usize,
    minsup: MinSup,
    backend: StorageBackend,
) -> AlgorithmRun {
    run_algorithm_on(workload, algorithm, window, minsup, MAX_LEN, backend, 1).expect("run")
}

/// E1, E2 and E3 over one set of runs: the five DSMatrix algorithms, then
/// the DSTree and DSTable baselines, on every standard workload, [`REPEATS`]
/// times.  Each run yields one row with every column; each section keeps its
/// own columns of it.  The deterministic columns are the first repeat's, the
/// timings the medians of all.
pub fn suite(setup: &Setup) -> [Section; 3] {
    let (mut rows, mut accuracy) = (Vec::new(), Vec::new());
    for (workload, minsup) in &setup.suite {
        accuracy.push(format!("{}: {}", workload.name, workload.stats()));
        let repeats: Vec<Vec<AlgorithmRun>> = (0..REPEATS)
            .map(|_| {
                let mut runs: Vec<AlgorithmRun> = Algorithm::ALL
                    .iter()
                    .map(|&a| mine(workload, a, WINDOW, *minsup, DiskTemp))
                    .collect();
                runs.extend(run_baselines_on(workload, WINDOW, *minsup, MAX_LEN).expect("run"));
                runs
            })
            .collect();
        let reference = &repeats[0][0].result;
        for (miner, run) in repeats[0].iter().enumerate() {
            let median_of = |f: fn(&AlgorithmRun) -> Duration| {
                median(repeats.iter().map(|runs| f(&runs[miner])).collect())
            };
            let agrees = reference.same_patterns_as(&run.result);
            if !agrees {
                let diff = reference.diff(&run.result);
                accuracy.push(format!(
                    "mismatch on {} for {}: {diff:?}",
                    workload.name, run.label
                ));
            }
            let peak = run.result.stats().peak_mining_bytes() as u64;
            rows.push(
                Row::default()
                    .text("workload", &workload.name)
                    .text("miner", &run.label)
                    .int("patterns", run.result.len() as u64)
                    .flag("matches_reference", agrees)
                    .bytes("capture_resident", run.capture_resident_bytes as u64)
                    .bytes("capture_on_disk", run.capture_on_disk_bytes)
                    .bytes("peak_working_set", peak)
                    .bytes("memory", run.capture_resident_bytes as u64 + peak)
                    .ms("capture_ms", median_of(|r| r.capture_time))
                    .ms("mine_ms", median_of(|r| r.result.stats().elapsed)),
            );
        }
    }
    let (mut space, mut runtime) = (
        vec!["memory = capture resident + peak mining working set".to_string()],
        Vec::new(),
    );
    for (workload, group) in groups(&rows, "workload") {
        let (tree, multi) = (pick(&group, "dstree-baseline"), pick(&group, "multi-tree"));
        if tree.number("peak_working_set") < multi.number("peak_working_set") {
            space.push(format!(
                "finding: on {workload} the DSTree's peak working set alone ({}) is below \
                 multi-tree's ({}), while its capture holds {} resident",
                tree.get("peak_working_set"),
                multi.get("peak_working_set"),
                tree.get("capture_resident")
            ));
        }
        let ms = |miner: &str| pick(&group, miner).number("mine_ms");
        let (multi, single) = (ms("multi-tree"), ms("single-tree").min(ms("top-down")));
        let (vertical, direct) = (ms("vertical"), ms("direct-vertical"));
        let order = |slower: f64, faster: f64| if slower >= faster { ">=" } else { "<" };
        runtime.push(format!(
            "finding on {workload}: multi-tree {multi:.3} ms {} single-tree/top-down {single:.3} \
             ms, vertical {vertical:.3} ms {} direct {direct:.3} ms (the paper orders both \
             pairs slower first)",
            order(multi, single),
            order(vertical, direct),
        ));
    }
    let columns = |keys: &[&str]| -> Vec<Row> {
        let keep =
            |(key, _): &&(&str, Value)| *key == "workload" || *key == "miner" || keys.contains(key);
        rows.iter()
            .map(|row| Row(row.0.iter().filter(keep).cloned().collect()))
            .collect()
    };
    [
        Section::checked(
            E1,
            "E1 — accuracy: five DSMatrix miners against the DSTree and DSTable",
            columns(&["patterns", "matches_reference"]),
            accuracy,
            check_e1,
        ),
        Section::checked(
            E2,
            "E2 — space: capture resident, capture on disk and mining working set",
            columns(&[
                "capture_resident",
                "capture_on_disk",
                "peak_working_set",
                "memory",
                "patterns",
            ]),
            space,
            check_e2,
        ),
        Section::checked(
            E3,
            format!("E3 — runtime: median of {REPEATS} runs"),
            columns(&["capture_ms", "mine_ms", "patterns"]),
            runtime,
            check_e3,
        ),
    ]
}

/// E1 (accuracy): "these five algorithms gave the same mining results as any
/// algorithms that conduct mining with the DSTree or DSTable".
fn check_e1(rows: &[Row]) -> Verdict {
    match rows
        .iter()
        .find(|row| row.number("matches_reference") == 0.0)
    {
        Some(row) => fail(
            E1,
            format!(
                "{} on {} returned a pattern set different from the first miner's",
                row.get("miner"),
                row.get("workload")
            ),
        ),
        None => Ok("all seven miners return identical pattern sets on every workload".into()),
    }
}

/// E2 (space): DSMatrix on disk below DSTable on disk, and memory ordered
/// DSTree > multi-tree > single-tree ≈ top-down > vertical ≈ direct.  Memory
/// is capture resident plus peak mining working set: the DSTree's peak
/// working set alone can sit below multi-tree's, while its capture holds the
/// whole window in memory.
fn check_e2(rows: &[Row]) -> Verdict {
    for (workload, group) in groups(rows, "workload") {
        let cell = |miner: &str, key: &str| pick(&group, miner).number(key);
        let matrix = Algorithm::ALL
            .iter()
            .map(|a| cell(a.key(), "capture_on_disk"))
            .fold(0.0, f64::max);
        let table = cell("dstable-baseline", "capture_on_disk");
        if matrix >= table {
            return fail(
                E2,
                format!(
                    "{workload}: DSMatrix on disk ({matrix} B) not below DSTable's ({table} B)"
                ),
            );
        }
        let memory = |miner: &str| cell(miner, "memory");
        let tree = memory("dstree-baseline");
        let multi = memory("multi-tree");
        let single = memory("single-tree").max(memory("top-down"));
        let vertical = memory("vertical").max(memory("direct-vertical"));
        if !(tree > multi && multi >= single && single >= vertical) {
            return fail(
                E2,
                format!(
                    "{workload}: memory is not ordered DSTree ({tree} B) > multi-tree ({multi} B) \
                     >= single-tree/top-down ({single} B) >= vertical/direct ({vertical} B)"
                ),
            );
        }
    }
    Ok(
        "on every workload the DSMatrix takes less disk than the DSTable, and memory orders \
        DSTree > multi-tree >= single-tree/top-down >= vertical/direct"
            .into(),
    )
}

/// E3 (runtime): the vertical miners far below the FP-tree family, timed as
/// medians.  The paper's finer ordering (multi-tree slowest, direct fastest)
/// is reported per workload, not asserted.
fn check_e3(rows: &[Row]) -> Verdict {
    for (workload, group) in groups(rows, "workload") {
        let ms = |miner: &str| pick(&group, miner).number("mine_ms");
        let fastest_fp = FP_TREE_MINERS
            .iter()
            .map(|m| ms(m))
            .fold(f64::INFINITY, f64::min);
        let slower_vertical = ms("vertical").max(ms("direct-vertical"));
        if fastest_fp < FP_TREE_FACTOR * slower_vertical {
            return fail(
                E3,
                format!(
                    "{workload}: the fastest FP-tree miner ({fastest_fp:.3} ms) is not \
                     {FP_TREE_FACTOR}x the slower vertical miner ({slower_vertical:.3} ms)"
                ),
            );
        }
    }
    Ok(format!(
        "on every workload every FP-tree miner takes at least {FP_TREE_FACTOR}x the slower of \
         vertical and direct"
    ))
}

/// The first consecutive pair of `group` over which `key` rises.
fn first_rise<'a>(group: &[&'a Row], key: &str) -> Option<(&'a Row, &'a Row)> {
    group
        .windows(2)
        .find(|pair| pair[1].number(key) > pair[0].number(key))
        .map(|pair| (pair[0], pair[1]))
}

/// E4 (effect of minsup): the work shrinks as the threshold grows.  Patterns
/// and screens are checked over the whole sweep; the runtime trend, which
/// they drive, is reported.
pub fn e4(setup: &Setup) -> Section {
    let workload = Workload::graph_model(setup.scale, 4242);
    let mut rows = Vec::new();
    for fraction in [0.01, 0.02, 0.05, 0.10, 0.20, 0.40] {
        let minsup = MinSup::relative(fraction);
        for algorithm in [Vertical, DirectVertical, SingleTree] {
            let run = mine(&workload, algorithm, WINDOW, minsup, DiskTemp);
            rows.push(
                Row::default()
                    .num("minsup_pct", fraction * 100.0, 0)
                    .text("miner", algorithm.key())
                    .ms("mine_ms", run.result.stats().elapsed)
                    .int("patterns", run.result.len() as u64)
                    .int("screens", run.result.stats().intersections),
            );
        }
    }
    let notes = groups(&rows, "miner")
        .into_iter()
        .map(|(miner, group)| match first_rise(&group, "mine_ms") {
            None => format!("finding: {miner} runtime is non-increasing over the sweep"),
            Some((a, b)) => format!(
                "finding: {miner} runtime rises from {} ms at {}% to {} ms at {}%",
                a.get("mine_ms"),
                a.get("minsup_pct"),
                b.get("mine_ms"),
                b.get("minsup_pct")
            ),
        })
        .collect();
    Section::checked(
        E4,
        format!("E4 — effect of minsup ({})", workload.name),
        rows,
        notes,
        check_e4,
    )
}

fn check_e4(rows: &[Row]) -> Verdict {
    for (miner, group) in groups(rows, "miner") {
        for key in ["patterns", "screens"] {
            if let Some((a, b)) = first_rise(&group, key) {
                return fail(
                    E4,
                    format!(
                        "{miner}: {key} rise from {} at minsup {}% to {} at {}%",
                        a.get(key),
                        a.get("minsup_pct"),
                        b.get(key),
                        b.get("minsup_pct")
                    ),
                );
            }
        }
    }
    Ok(
        "patterns and screens are non-increasing over the whole minsup sweep for every miner"
            .into(),
    )
}

/// E5 (scalability with the number of batches): a longer stream at a fixed
/// window costs the same per batch.  Capture words per batch are checked
/// flat within [`E5_FLAT`]; capture and mine times are reported.
pub fn e5(setup: &Setup) -> Section {
    let batch_size = 200 * setup.scale;
    let mut rows = Vec::new();
    for batches in [5usize, 10, 20, 40] {
        let mut generator = QuestGenerator::new(QuestConfig {
            num_items: 60,
            avg_transaction_len: 8.0,
            seed: 99,
            ..QuestConfig::default()
        });
        let workload = Workload {
            name: format!("quest-{batches}-batches(x{})", setup.scale),
            kind: WorkloadKind::Quest,
            catalog: EdgeCatalog::path(60),
            batches: generator.generate_batches(batches, batch_size),
        };
        for algorithm in [Vertical, DirectVertical] {
            let run = mine(
                &workload,
                algorithm,
                WINDOW,
                MinSup::relative(0.03),
                DiskTemp,
            );
            rows.push(
                Row::default()
                    .int("batches", batches as u64)
                    .text("miner", algorithm.key())
                    .ms("capture_ms", run.capture_time)
                    .ms("capture_ms_per_batch", run.capture_time / batches as u32)
                    .num(
                        "capture_words_per_batch",
                        run.capture_words as f64 / batches as f64,
                        1,
                    )
                    .ms("mine_ms", run.result.stats().elapsed)
                    .int("patterns", run.result.len() as u64),
            );
        }
    }
    let mut notes = vec![format!(
        "window = {WINDOW} batches, batch size = {batch_size} transactions"
    )];
    for (miner, group) in groups(&rows, "miner") {
        notes.push(format!(
            "finding: {miner} capture ms per batch spans {:.2}x and final-window mine ms {:.2}x \
             (max / min) from 5 to 40 batches",
            spread(&group, "capture_ms_per_batch"),
            spread(&group, "mine_ms")
        ));
    }
    Section::checked(
        E5,
        "E5 — scalability with the number of batches",
        rows,
        notes,
        check_e5,
    )
}

/// Max over min of `key` across `group`.
fn spread(group: &[&Row], key: &str) -> f64 {
    let values = group.iter().map(|row| row.number(key));
    let max = values.clone().fold(f64::MIN, f64::max);
    max / values.fold(f64::MAX, f64::min)
}

fn check_e5(rows: &[Row]) -> Verdict {
    for (miner, group) in groups(rows, "miner") {
        let ratio = spread(&group, "capture_words_per_batch");
        if ratio.is_nan() || ratio > E5_FLAT {
            return fail(
                E5,
                format!("{miner}: capture words per batch span {ratio:.3}x, above {E5_FLAT}x"),
            );
        }
    }
    Ok(format!(
        "capture words per batch stay within {E5_FLAT}x (max / min) as the stream grows, for \
         every miner"
    ))
}

/// Ablation A1: post-processing against direct pruning as |V| grows (§4:
/// "when the number of vertices increases, chances of having disjoint edges
/// also increase").
pub fn a1(setup: &Setup) -> Section {
    let mut rows = Vec::new();
    for vertices in [8u32, 16, 24, 32] {
        let model = GraphModel::generate(GraphModelConfig {
            num_vertices: vertices,
            avg_fanout: 4.0,
            seed: 5150,
            ..GraphModelConfig::default()
        });
        let catalog = model.catalog().clone();
        let mut generator = GraphStreamGenerator::new(
            model,
            GraphStreamConfig {
                avg_edges_per_graph: 6.0,
                locality: 0.4, // lower locality ⇒ more disjoint co-occurrence
                batch_size: 150 * setup.scale,
                seed: 5150,
            },
        );
        let workload = Workload {
            name: format!("graph-model-{vertices}v(x{})", setup.scale),
            kind: WorkloadKind::GraphModel,
            catalog,
            batches: generator.generate_batches(6),
        };
        for algorithm in [Vertical, DirectVertical] {
            let run = mine(&workload, algorithm, WINDOW, MinSup::relative(0.03), Memory);
            let stats = run.result.stats();
            rows.push(
                Row::default()
                    .int("vertices", u64::from(vertices))
                    .text("miner", algorithm.key())
                    .ms("mine_ms", run.result.stats().elapsed)
                    .int("screens", stats.intersections)
                    .int("before_filter", stats.patterns_before_postprocess as u64)
                    .int("pruned", stats.patterns_pruned as u64)
                    .int("patterns", run.result.len() as u64),
            );
        }
    }
    let waste: Vec<String> = groups(&rows, "vertices")
        .into_iter()
        .map(|(vertices, group)| {
            let (v, d) = (pick(&group, "vertical"), pick(&group, "direct-vertical"));
            format!(
                "|V| {vertices}: {:.1}x the screens, {:.0} % pruned",
                v.number("screens") / d.number("screens").max(1.0),
                100.0 * v.number("pruned") / v.number("before_filter").max(1.0)
            )
        })
        .collect();
    let notes = vec![format!(
        "finding: vertical against direct — {} (§4 expects both to grow with |V|)",
        waste.join("; ")
    )];
    Section::checked(
        A1,
        "A1 — post-processing against direct pruning as |V| grows",
        rows,
        notes,
        check_a1,
    )
}

fn check_a1(rows: &[Row]) -> Verdict {
    for (vertices, group) in groups(rows, "vertices") {
        let (v, d) = (pick(&group, "vertical"), pick(&group, "direct-vertical"));
        if d.number("pruned") != 0.0 {
            return fail(
                A1,
                format!("|V| {vertices}: direct pruned {}", d.get("pruned")),
            );
        }
        if d.number("patterns") != v.number("patterns") {
            let (dp, vp) = (d.get("patterns"), v.get("patterns"));
            return fail(
                A1,
                format!("|V| {vertices}: {dp} patterns direct, {vp} vertical"),
            );
        }
        if d.number("screens") >= v.number("screens") {
            let (ds, vs) = (d.get("screens"), v.get("screens"));
            return fail(
                A1,
                format!("|V| {vertices}: {ds} screens direct, {vs} vertical"),
            );
        }
    }
    Ok(
        "at every |V| the direct miner prunes nothing, finds the vertical miner's connected \
        patterns and screens fewer candidates"
            .into(),
    )
}

/// Ablation A2: the DSMatrix on disk against in memory.  The paper keeps
/// the matrix on disk to bound memory; this captures every standard stream
/// and mines it with the direct miner over both backends, [`REPEATS`] times
/// with the backends alternating.  The check holds the two to identical
/// patterns; what the disk costs in capture and mine time (medians) is a
/// finding.
pub fn a2(setup: &Setup) -> Section {
    let backends = [("memory", Memory), ("disk", DiskTemp)];
    let mut rows = Vec::new();
    for (workload, minsup) in &setup.suite {
        let mut runs: [Vec<AlgorithmRun>; 2] = Default::default();
        for _ in 0..REPEATS {
            for (runs, (_, backend)) in runs.iter_mut().zip(&backends) {
                runs.push(mine(
                    workload,
                    DirectVertical,
                    WINDOW,
                    *minsup,
                    backend.clone(),
                ));
            }
        }
        let memory = &runs[0][0].result;
        for ((label, _), runs) in backends.iter().zip(&runs) {
            let median_of = |f: fn(&AlgorithmRun) -> Duration| median(runs.iter().map(f).collect());
            let first = &runs[0];
            rows.push(
                Row::default()
                    .text("workload", &workload.name)
                    .text("backend", *label)
                    .int("patterns", first.result.len() as u64)
                    .flag("matches_memory", memory.same_patterns_as(&first.result))
                    .bytes("capture_resident", first.capture_resident_bytes as u64)
                    .bytes("capture_on_disk", first.capture_on_disk_bytes)
                    .ms("capture_ms", median_of(|r| r.capture_time))
                    .ms("mine_ms", median_of(|r| r.result.stats().elapsed)),
            );
        }
    }
    let notes = groups(&rows, "workload")
        .into_iter()
        .map(|(workload, group)| {
            let disk_over_memory = |key| group[1].number(key) / group[0].number(key).max(1e-9);
            format!(
                "finding on {workload}: on disk, capture takes {:.2}x and the mine {:.2}x their \
                 time in memory",
                disk_over_memory("capture_ms"),
                disk_over_memory("mine_ms")
            )
        })
        .collect();
    Section::checked(
        A2,
        "A2 — the DSMatrix on disk against in memory (direct-vertical)",
        rows,
        notes,
        check_a2,
    )
}

fn check_a2(rows: &[Row]) -> Verdict {
    match rows.iter().find(|row| row.number("matches_memory") == 0.0) {
        Some(row) => fail(
            A2,
            format!(
                "{}: the {} backend's patterns differ from memory's",
                row.get("workload"),
                row.get("backend")
            ),
        ),
        None => Ok("on every workload both backends find identical patterns".into()),
    }
}

/// Ablation A3: the window size `w` against capture and mining cost (the
/// paper fixes `w = 5`).
pub fn a3(setup: &Setup) -> Section {
    let workload = Workload::graph_model(setup.scale, 31337);
    let mut rows = Vec::new();
    for window in [1usize, 2, 4, 6, 8] {
        for algorithm in [DirectVertical, SingleTree] {
            let run = mine(
                &workload,
                algorithm,
                window,
                MinSup::relative(0.03),
                DiskTemp,
            );
            rows.push(
                Row::default()
                    .int("window", window as u64)
                    .text("miner", algorithm.key())
                    .ms("mine_ms", run.result.stats().elapsed)
                    .bytes("matrix_on_disk", run.capture_on_disk_bytes)
                    .bytes(
                        "peak_working_set",
                        run.result.stats().peak_mining_bytes() as u64,
                    )
                    .int("patterns", run.result.len() as u64),
            );
        }
    }
    let notes = groups(&rows, "miner")
        .into_iter()
        .map(|(miner, group)| {
            let rises = group
                .windows(2)
                .filter(|pair| pair[1].number("mine_ms") > pair[0].number("mine_ms"))
                .count();
            format!(
                "finding: {miner} mine time rises on {rises} of {} window steps",
                group.len() - 1
            )
        })
        .collect();
    Section::checked(
        A3,
        format!("A3 — effect of the window size w ({})", workload.name),
        rows,
        notes,
        check_a3,
    )
}

fn check_a3(rows: &[Row]) -> Verdict {
    for (miner, group) in groups(rows, "miner") {
        let grows = group
            .windows(2)
            .all(|pair| pair[1].number("matrix_on_disk") > pair[0].number("matrix_on_disk"));
        if !grows {
            return fail(A3, format!("{miner}: the matrix on disk stops growing"));
        }
    }
    Ok("the matrix on disk grows with every step of the window".into())
}

/// Ablation A4: the §3.5 vertex-frequency connectivity rule against the
/// exact union–find check.  The rule is a necessary condition only, so it
/// can keep a disconnected collection (two groups that each touch a shared
/// vertex) but never drop a connected one.
pub fn a4(setup: &Setup) -> Section {
    let mut rows = Vec::new();
    for workload in [
        Workload::graph_model(setup.scale, 2024),
        Workload::quest(setup.scale, 2025),
    ] {
        // Mine every frequent collection of the last window once, then apply
        // both filters to it.
        let start = workload.batches.len().saturating_sub(WINDOW);
        let transactions: Vec<Transaction> = workload.batches[start..]
            .iter()
            .flat_map(|b| b.transactions().iter().cloned())
            .collect();
        let minsup = MinSup::relative(0.03).resolve(transactions.len());
        let all = oracle::mine_oracle(&transactions, minsup, Some(5));
        let mut row = Row::default()
            .text("workload", &workload.name)
            .int("frequent", all.len() as u64);
        for (mode, kept, pruned, ms) in [
            (
                ConnectivityMode::Exact,
                "exact_kept",
                "exact_pruned",
                "exact_ms",
            ),
            (
                ConnectivityMode::PaperRule,
                "rule_kept",
                "rule_pruned",
                "rule_ms",
            ),
        ] {
            let checker = ConnectivityChecker::new(&workload.catalog, mode);
            let mut patterns = all.clone();
            let start = std::time::Instant::now();
            let dropped = checker.prune_disconnected(&mut patterns);
            row = row
                .int(kept, patterns.len() as u64)
                .int(pruned, dropped as u64)
                .ms(ms, start.elapsed());
        }
        let false_connected = row.number("rule_kept") - row.number("exact_kept");
        rows.push(row.num("false_connected", false_connected, 0));
    }
    let notes = vec![
        "the filters differ only on collections of two dense but mutually \
                      disjoint groups; on edge pairs they agree, as in the paper's example"
            .to_string(),
    ];
    Section::checked(
        A4,
        "A4 — §3.5 rule against exact union–find connectivity",
        rows,
        notes,
        check_a4,
    )
}

fn check_a4(rows: &[Row]) -> Verdict {
    for row in rows {
        if row.number("rule_kept") < row.number("exact_kept") {
            return fail(
                A4,
                format!(
                    "{}: the §3.5 rule kept {} collections, fewer than the exact check's {}",
                    row.get("workload"),
                    row.get("rule_kept"),
                    row.get("exact_kept")
                ),
            );
        }
    }
    Ok("the §3.5 rule never keeps fewer collections than the exact check".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_fails(verdict: Verdict, section: &str) {
        let failure = verdict.expect_err("a violating row set must fail its check");
        assert_eq!(failure.section, section, "{failure:?}");
    }

    #[test]
    fn e1_fails_when_one_miner_disagrees() {
        let row = |miner: &str, agrees| {
            Row::default()
                .text("workload", "w")
                .text("miner", miner)
                .int("patterns", 3)
                .flag("matches_reference", agrees)
        };
        assert!(check_e1(&[row("multi-tree", true), row("vertical", true)]).is_ok());
        assert_fails(
            check_e1(&[row("multi-tree", true), row("vertical", false)]),
            E1,
        );
    }

    fn e2_rows(table_disk: u64, tree_memory: u64) -> Vec<Row> {
        [
            ("dstree-baseline", 0, tree_memory),
            ("dstable-baseline", table_disk, 10),
            ("multi-tree", 100, 50),
            ("single-tree", 100, 40),
            ("top-down", 100, 40),
            ("vertical", 100, 20),
            ("direct-vertical", 100, 20),
        ]
        .iter()
        .map(|&(miner, disk, memory)| {
            Row::default()
                .text("workload", "w")
                .text("miner", miner)
                .bytes("capture_on_disk", disk)
                .bytes("memory", memory)
        })
        .collect()
    }

    #[test]
    fn e2_fails_when_the_dstable_is_smaller_on_disk_or_the_dstree_lighter() {
        assert!(check_e2(&e2_rows(400, 60)).is_ok());
        assert_fails(check_e2(&e2_rows(90, 60)), E2);
        assert_fails(check_e2(&e2_rows(400, 45)), E2);
    }

    #[test]
    fn e3_fails_when_a_vertical_miner_is_not_far_below_the_fp_trees() {
        let rows = |vertical_ms: f64| -> Vec<Row> {
            [
                ("multi-tree", 10.0),
                ("single-tree", 9.0),
                ("top-down", 8.0),
                ("vertical", vertical_ms),
                ("direct-vertical", 0.1),
            ]
            .iter()
            .map(|&(miner, ms)| {
                Row::default()
                    .text("workload", "w")
                    .text("miner", miner)
                    .num("mine_ms", ms, 3)
            })
            .collect()
        };
        assert!(check_e3(&rows(2.0)).is_ok());
        assert_fails(check_e3(&rows(3.0)), E3);
    }

    #[test]
    fn e4_fails_when_patterns_or_screens_rise_at_one_interior_minsup() {
        let rows = |patterns: [u64; 4], screens: [u64; 4]| -> Vec<Row> {
            (0..4)
                .map(|i| {
                    Row::default()
                        .num("minsup_pct", (i + 1) as f64, 0)
                        .text("miner", "vertical")
                        .int("patterns", patterns[i])
                        .int("screens", screens[i])
                })
                .collect()
        };
        assert!(check_e4(&rows([9, 5, 5, 0], [90, 50, 40, 1])).is_ok());
        // The endpoints still fall: only the whole-sweep check catches these.
        assert_fails(check_e4(&rows([9, 5, 6, 0], [90, 50, 40, 1])), E4);
        assert_fails(check_e4(&rows([9, 5, 5, 0], [90, 40, 50, 1])), E4);
    }

    #[test]
    fn e5_fails_when_capture_words_per_batch_grow_with_the_stream() {
        let rows = |last: f64| -> Vec<Row> {
            [300.0, 301.0, last]
                .iter()
                .map(|&words| {
                    Row::default().text("miner", "vertical").num(
                        "capture_words_per_batch",
                        words,
                        1,
                    )
                })
                .collect()
        };
        assert!(check_e5(&rows(305.0)).is_ok());
        assert_fails(check_e5(&rows(400.0)), E5);
    }

    #[test]
    fn a1_fails_when_the_direct_miner_prunes_or_screens_as_much() {
        let rows = |direct_pruned: u64, direct_screens: u64| -> Vec<Row> {
            [
                ("vertical", 30, 100),
                ("direct-vertical", direct_pruned, direct_screens),
            ]
            .iter()
            .map(|&(miner, pruned, screens)| {
                Row::default()
                    .int("vertices", 8)
                    .text("miner", miner)
                    .int("screens", screens)
                    .int("pruned", pruned)
                    .int("patterns", 11)
            })
            .collect()
        };
        assert!(check_a1(&rows(0, 40)).is_ok());
        assert_fails(check_a1(&rows(2, 40)), A1);
        assert_fails(check_a1(&rows(0, 100)), A1);
    }

    #[test]
    fn a2_fails_when_the_disk_backend_finds_other_patterns() {
        let row = |backend: &str, matches| {
            Row::default()
                .text("workload", "w")
                .text("backend", backend)
                .flag("matches_memory", matches)
        };
        assert!(check_a2(&[row("memory", true), row("disk", true)]).is_ok());
        assert_fails(check_a2(&[row("memory", true), row("disk", false)]), A2);
    }

    #[test]
    fn a3_fails_when_the_matrix_does_not_grow_with_the_window() {
        let rows = |disks: [u64; 3]| -> Vec<Row> {
            disks
                .iter()
                .map(|&d| {
                    Row::default()
                        .text("miner", "single-tree")
                        .bytes("matrix_on_disk", d)
                })
                .collect()
        };
        assert!(check_a3(&rows([10, 20, 30])).is_ok());
        assert_fails(check_a3(&rows([10, 20, 20])), A3);
    }

    #[test]
    fn a4_fails_when_the_rule_keeps_fewer_than_the_exact_check() {
        let row = |rule_kept| {
            Row::default()
                .text("workload", "w")
                .int("exact_kept", 58)
                .int("rule_kept", rule_kept)
        };
        assert!(check_a4(&[row(60)]).is_ok());
        assert_fails(check_a4(&[row(57)]), A4);
    }
}
