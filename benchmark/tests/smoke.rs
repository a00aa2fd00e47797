//! Smoke test of the benchmark itself: every workload at `--quick` length,
//! traced and untraced, checked against `BENCHMARK.json`.
//!
//! Asserts that
//! * every gated workload and every metric name (and unit) the binary prints
//!   is the one `BENCHMARK.json` lists, and nothing else;
//! * the counts that must repeat exactly do, across two same-seed runs;
//! * a different seed still serves every request correctly;
//! * `benchmark/Cargo.toml`'s `[profile.release]` equals the root's.

use std::path::{Path, PathBuf};
use std::process::Command;

use fsm_benchmark::json::{parse, Value};
use fsm_benchmark::spec::{END_TO_END, PER_LAYER};
use fsm_benchmark::workload::{Routing, WORKLOADS};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

/// Runs the benchmark binary and returns its result line, parsed.
fn run(workload: &str, seed: u64, trace: bool) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_fsm-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--quick", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("spawn the benchmark binary");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} seed {seed} trace {trace} exited {:?}\n{stdout}\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).expect("the result line is JSON");
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    result
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

/// `(name, unit)` pairs of a result line, in print order.
fn printed(result: &Value) -> Vec<(String, String)> {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

/// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
fn declared(benchmark: &Value, list: &str) -> Vec<(String, String)> {
    benchmark
        .get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_what_the_code_measures() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let benchmark = parse(&text).expect("BENCHMARK.json parses");

    let workloads: Vec<(&str, &str)> = benchmark
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            (
                w.get("name").and_then(Value::as_str).expect("name"),
                w.get("why").and_then(Value::as_str).expect("why"),
            )
        })
        .collect();
    // BENCHMARK.json lists the gated workloads; the others are only run
    // and reported.  A gated workload must be one whose numbers can be
    // steady: a periodic schedule and no fsync on the timed path.
    let gated: Vec<(&str, &str)> = WORKLOADS
        .iter()
        .filter(|w| w.gated)
        .map(|w| (w.name, w.why))
        .collect();
    assert_eq!(workloads, gated);
    assert!(WORKLOADS
        .iter()
        .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    assert!(WORKLOADS
        .iter()
        .filter(|w| w.gated)
        .all(|w| w.routing.period().is_some() && !w.durable && w.max_resident.is_none()));

    let end_to_end = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (listed, spec) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(listed.get("name").and_then(Value::as_str), Some(spec.name));
        assert_eq!(listed.get("unit").and_then(Value::as_str), Some(spec.unit));
        assert_eq!(
            listed.get("better").and_then(Value::as_str),
            Some(spec.better.as_str())
        );
        assert_eq!(
            listed.get("bound").and_then(Value::as_f64),
            Some(spec.bound)
        );
    }
    let per_layer = benchmark
        .get("per_layer")
        .and_then(Value::as_array)
        .expect("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (listed, spec) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(listed.get("name").and_then(Value::as_str), Some(spec.name));
        assert_eq!(listed.get("unit").and_then(Value::as_str), Some(spec.unit));
        assert_eq!(
            listed.get("better").and_then(Value::as_str),
            Some(spec.better.as_str())
        );
    }
    assert_eq!(
        benchmark.get("paths").map(Value::render).as_deref(),
        Some("[\"benchmark\"]")
    );
}

#[test]
fn every_workload_prints_the_declared_metrics_and_repeats_its_counts() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let benchmark = parse(&text).expect("BENCHMARK.json parses");
    let end_to_end = declared(&benchmark, "end_to_end");
    let per_layer = declared(&benchmark, "per_layer");

    for workload in &WORKLOADS {
        // Seed 2 on the untraced run: no workload may depend on the arrival
        // order the committed numbers used (tests/other_data.rs swaps the
        // stream itself).
        let untraced = run(workload.name, 2, false);
        assert_eq!(printed(&untraced), end_to_end, "{}", workload.name);
        for (name, _) in &end_to_end {
            assert!(
                metric(&untraced, name) > 0.0,
                "{}: {name} is never 0",
                workload.name
            );
        }

        let first = run(workload.name, 1, true);
        assert_eq!(printed(&first), per_layer, "{}", workload.name);
        let trace = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.jsonl", workload.name));
        let spans = std::fs::read_to_string(&trace).expect("span file");
        assert!(
            spans.lines().count() > 100,
            "{}: spans written",
            workload.name
        );
        for rung in ["client", "session", "miner", "matrix"] {
            assert!(
                spans.contains(&format!("\"rung\":\"{rung}\"")),
                "{}: no {rung} spans",
                workload.name
            );
        }

        // Exact-repeat counts: with one connection nothing races, so the
        // per-slide / per-mine counts, the frame bytes and the thaw ratio
        // are a pure function of (workload, seed, step count).
        if workload.routing.connections() == 1 {
            let second = run(workload.name, 1, true);
            for (name, _) in &per_layer {
                let exact = name.ends_with("_per_slide")
                    || name.ends_with("_per_mine")
                    || name == "fsmd.proto.bytes_per_step"
                    || name == "core.session.thaw_ratio";
                if exact {
                    assert_eq!(
                        metric(&first, name).to_bits(),
                        metric(&second, name).to_bits(),
                        "{}: {name} must repeat exactly",
                        workload.name
                    );
                }
            }
        }

        // Layer separation that must hold at any length.
        let delta = metric(&first, "core.delta.reexamined_per_slide");
        assert_eq!(delta > 0.0, workload.delta, "{}: core.delta", workload.name);
        let wal = metric(&first, "storage.wal_bytes_per_slide");
        assert_eq!(
            wal > 0.0,
            workload.durable,
            "{}: storage.wal",
            workload.name
        );
        let thaws = metric(&first, "core.session.thaw_ratio");
        assert_eq!(
            thaws > 0.0,
            matches!(workload.routing, Routing::Zipf { .. }),
            "{}: thaw_ratio",
            workload.name
        );
    }
}

/// The body of a manifest's `[profile.release]` table, whitespace-trimmed.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).expect("manifest");
    text.lines()
        .skip_while(|line| line.trim() != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(str::to_string)
        .collect()
}

#[test]
fn release_profile_equals_the_root_workspace() {
    let root = release_profile(&repo_root().join("Cargo.toml"));
    assert!(!root.is_empty(), "root manifest has a [profile.release]");
    assert_eq!(
        release_profile(&Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml")),
        root
    );
}
