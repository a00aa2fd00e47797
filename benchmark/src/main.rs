//! Command line of the repo benchmark.
//!
//! ```text
//! fsm-benchmark [repeat] [--workload NAME] [--seed N] [--seconds S | --quick]
//!               [--trace 0|1] [--json-out PATH] [--sets N] [--probe churn_durable]
//! ```
//!
//! With `--workload` the run happens in this process and the last line of
//! standard output is the result object `BENCHMARK.json`'s contract asks
//! for.  Without it every workload runs in a fresh child process of this
//! same binary (so peak RSS is per workload).  `repeat` runs that suite
//! `--sets` times and checks the sets against each other.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use fsm_benchmark::json::{self, Value};
use fsm_benchmark::report::{outcome_json, report_json};
use fsm_benchmark::run::{run_end_to_end, run_traced, Scale};
use fsm_benchmark::spec::{Better, END_TO_END};
use fsm_benchmark::stats::middle_half;
use fsm_benchmark::workload::{find, Workload, PROBE_CHURN_DURABLE, WORKLOADS};

const USAGE: &str = "\
usage: fsm-benchmark [repeat] [OPTIONS]

  --workload <NAME>   run one workload in this process; the last stdout line
                      is {\"correct\",\"attempted\",\"failed\",\"metrics\"}
  --seed <N>          transaction order inside each batch, cycle rotation per
                      tenant, Zipf tenant picker (default 1)
  --seconds <S>       length of the timed phase (default 40)
  --quick             fixed tiny step counts instead of --seconds (smoke run)
  --trace <0|1>       1: the traced ladder run, per-layer metrics, spans in
                      benchmark/out/trace-<workload>.jsonl (default 0)
  --json-out <PATH>   also write the report (host block + metrics) as JSON
  --probe <NAME>      run an ungated probe workload (churn_durable)
  repeat --sets <N>   run the whole suite N times (default 2) and fail when
                      two sets disagree on a gated workload by more than a
                      metric's bound and by more than their own instances do
";

struct Args {
    repeat: bool,
    sets: usize,
    workload: Option<Workload>,
    probe: bool,
    seed: u64,
    scale: Scale,
    trace: bool,
    json_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        repeat: false,
        sets: 2,
        workload: None,
        probe: false,
        seed: 1,
        scale: Scale::Seconds(40.0),
        trace: false,
        json_out: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "repeat" => args.repeat = true,
            "--sets" => {
                args.sets = value("a count")?.parse().map_err(|_| "bad --sets")?;
            }
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(*find(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--probe" => {
                let name = value("a probe name")?;
                if name != PROBE_CHURN_DURABLE.name {
                    return Err(format!("unknown probe {name:?}"));
                }
                args.workload = Some(PROBE_CHURN_DURABLE);
                args.probe = true;
            }
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|_| "bad --seed")?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?.parse().map_err(|_| "bad --seconds")?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                args.scale = Scale::Seconds(seconds);
            }
            "--quick" => args.scale = Scale::Quick,
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--json-out" => args.json_out = Some(PathBuf::from(value("a path")?)),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// `benchmark/out/`: traces, scratch reports and the temp root.  Resolved
/// from the manifest directory so every file the benchmark writes stays
/// inside the checkout it was built in.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Points `std::env::temp_dir()` — where the disk backends, durable roots
/// and spill roots of the program under test land — at a directory inside
/// the checkout, and removes it when dropped.
struct TempRoot(PathBuf);

impl TempRoot {
    fn install() -> std::io::Result<Self> {
        let root = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        // Still single-threaded here: nothing reads the environment yet.
        std::env::set_var("TMPDIR", &root);
        Ok(Self(root))
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.repeat {
        repeat(&args)
    } else if let Some(workload) = args.workload {
        single(&args, &workload)
    } else {
        suite(args.seed, args.scale, args.trace, args.json_out.as_deref()).map(|(ok, _)| ok)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// One workload in this process.  Returns whether every check passed (a
/// probe always "passes": it reports, it does not gate).
fn single(args: &Args, workload: &Workload) -> Result<bool, String> {
    let _temp = TempRoot::install().map_err(|e| format!("temp root: {e}"))?;
    println!(
        "workload {} seed {} scale {} trace {}",
        workload.name,
        args.seed,
        args.scale.label(),
        u8::from(args.trace)
    );
    let outcome = if args.trace {
        let path = out_dir().join(format!("trace-{}.jsonl", workload.name));
        run_traced(workload, args.seed, args.scale, &path)
    } else {
        run_end_to_end(workload, args.seed, args.scale)
    }
    .map_err(|e| format!("{}: {e}", workload.name))?;
    outcome.print();
    if let Some(path) = &args.json_out {
        let report = report_json(
            args.seed,
            args.scale,
            vec![outcome_json(workload, &outcome)],
        );
        std::fs::write(path, report.render_pretty()).map_err(|e| format!("--json-out: {e}"))?;
    }
    println!("{}", outcome.result_line());
    Ok(outcome.correct() || args.probe)
}

/// Every workload, gated or not, each in a fresh child process.  Returns
/// whether all passed, plus the merged report.
fn suite(
    seed: u64,
    scale: Scale,
    trace: bool,
    json_out: Option<&Path>,
) -> Result<(bool, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    let traces: &[bool] = if trace { &[false, true] } else { &[false] };
    let mut ok = true;
    let mut runs = Vec::new();
    for workload in &WORKLOADS {
        for &trace in traces {
            let scratch = out_dir().join(format!(
                "suite-{}-{}-{}.json",
                std::process::id(),
                workload.name,
                u8::from(trace)
            ));
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name])
                .args(["--seed", &seed.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--json-out")
                .arg(&scratch);
            match scale {
                Scale::Seconds(s) => child.args(["--seconds", &s.to_string()]),
                Scale::Quick => child.arg("--quick"),
            };
            let status = child.status().map_err(|e| format!("spawn: {e}"))?;
            ok &= status.success();
            if let Ok(text) = std::fs::read_to_string(&scratch) {
                let report = json::parse(&text).map_err(|e| format!("child report: {e}"))?;
                runs.extend(
                    report
                        .get("runs")
                        .and_then(Value::as_array)
                        .unwrap_or_default()
                        .iter()
                        .cloned(),
                );
            }
            let _ = std::fs::remove_file(&scratch);
            println!();
        }
    }
    // The free cross-check: dense_delta must expect exactly what dense_full
    // expects, and both must have served it.
    let digest = |name: &str| {
        runs.iter()
            .find(|r| r.get("workload").and_then(Value::as_str) == Some(name))
            .and_then(|r| {
                r.get("oracle_digest")
                    .and_then(Value::as_str)
                    .map(str::to_string)
            })
    };
    if digest("dense_full") != digest("dense_delta") {
        eprintln!("error: dense_delta's expected list differs from dense_full's");
        ok = false;
    }
    let report = report_json(seed, scale, runs);
    print_summary(&report);
    if let Some(path) = json_out {
        std::fs::write(path, report.render_pretty()).map_err(|e| format!("--json-out: {e}"))?;
    }
    println!("suite {}", if ok { "PASSED" } else { "FAILED" });
    Ok((ok, report))
}

/// The untraced run of `workload` in a suite report.
fn untraced_run<'a>(report: &'a Value, workload: &str) -> Option<&'a Value> {
    report.get("runs")?.as_array()?.iter().find(|r| {
        r.get("workload").and_then(Value::as_str) == Some(workload)
            && r.get("traced") == Some(&Value::Bool(false))
    })
}

fn end_to_end_value(report: &Value, workload: &str, metric: &str) -> Option<f64> {
    untraced_run(report, workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// The span the middle half of a metric's per-instance values covers (the
/// value itself where a metric has none).
fn end_to_end_middle_half(report: &Value, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let entry = untraced_run(report, workload)?
        .get("metrics")?
        .get(metric)?;
    let rounds: Vec<f64> = entry
        .get("rounds")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    let value = entry.get("value")?.as_f64()?;
    Some(middle_half(&rounds).unwrap_or((value, value)))
}

fn print_summary(report: &Value) {
    println!("end-to-end summary (* = not gated, not in BENCHMARK.json):");
    print!("{:<16}", "workload");
    for metric in &END_TO_END {
        print!("{:>20}", format!("{} [{}]", metric.name, metric.unit));
    }
    println!("{:>14}", "failed_ratio");
    for workload in &WORKLOADS {
        let star = if workload.gated { "" } else { "*" };
        print!("{:<16}", format!("{}{star}", workload.name));
        for metric in &END_TO_END {
            match end_to_end_value(report, workload.name, metric.name) {
                Some(value) => print!("{value:>20.4}"),
                None => print!("{:>20}", "-"),
            }
        }
        let failed = untraced_run(report, workload.name)
            .and_then(|run| run.get("failed_ratio"))
            .and_then(Value::as_f64);
        match failed {
            Some(ratio) => println!("{ratio:>14.6}"),
            None => println!("{:>14}", "-"),
        }
    }
}

/// `repeat --sets N`: the suite N times back to back; set 1 against every
/// later set, per end-to-end metric and gated workload.
///
/// A pair whose values differ by more than the bound fails the command only
/// if the run's own instances resolve the difference: when the middle halves
/// of the two runs' per-instance values overlap, the host moved as much
/// inside one run as between the two, and the pair is reported as
/// unresolved instead.
fn repeat(args: &Args) -> Result<bool, String> {
    if args.workload.is_some() || args.trace {
        return Err("repeat runs the whole untraced suite; drop --workload/--trace".into());
    }
    let mut ok = true;
    let mut sets = Vec::new();
    for set in 1..=args.sets.max(2) {
        println!("=== set {set} ===");
        let (passed, report) = suite(args.seed, args.scale, false, None)?;
        ok &= passed;
        sets.push(report);
    }
    println!("=== repeat: set 1 against each later set ===");
    println!(
        "{:<16}{:<14}{:>14}{:>14}{:>10}{:>8}  verdict",
        "workload", "metric", "set 1", "set n", "diff", "bound"
    );
    let mut unresolved = 0;
    for later in &sets[1..] {
        for workload in WORKLOADS.iter().filter(|w| w.gated) {
            for metric in &END_TO_END {
                let pair = |report| {
                    Some((
                        end_to_end_value(report, workload.name, metric.name)?,
                        end_to_end_middle_half(report, workload.name, metric.name)?,
                    ))
                };
                let (Some((a, half_a)), Some((b, half_b))) = (pair(&sets[0]), pair(later)) else {
                    ok = false;
                    continue;
                };
                // Signed so that positive reads "set n is worse".
                let diff = match metric.better {
                    Better::Lower => (b - a) / a,
                    Better::Higher => (a - b) / a,
                };
                let verdict = if diff.abs() <= metric.bound {
                    "ok"
                } else if half_a.0 <= half_b.1 && half_b.0 <= half_a.1 {
                    unresolved += 1;
                    "unresolved"
                } else {
                    ok = false;
                    "EXCEEDS"
                };
                println!(
                    "{:<16}{:<14}{a:>14.4}{b:>14.4}{:>9.2}%{:>7.0}%  {verdict}",
                    workload.name,
                    metric.name,
                    diff * 100.0,
                    metric.bound * 100.0,
                );
            }
            // Bound 0, absolute: any failed request in either set fails.
            let failed = |report| {
                untraced_run(report, workload.name)?
                    .get("failed_ratio")?
                    .as_f64()
            };
            let (a, b) = (failed(&sets[0]), failed(later));
            let clean = a == Some(0.0) && b == Some(0.0);
            ok &= clean;
            println!(
                "{:<16}{:<14}{:>14.6}{:>14.6}{:>10}{:>8}  {}",
                workload.name,
                "failed_ratio",
                a.unwrap_or(f64::NAN),
                b.unwrap_or(f64::NAN),
                "",
                "0 abs",
                if clean { "ok" } else { "EXCEEDS" }
            );
        }
    }
    if let Some(path) = &args.json_out {
        let report = Value::object([("sets", Value::Array(sets))]);
        std::fs::write(path, report.render_pretty()).map_err(|e| format!("--json-out: {e}"))?;
    }
    println!(
        "repeat {} ({unresolved} pairs unresolved)",
        if ok { "PASSED" } else { "FAILED" }
    );
    Ok(ok)
}
