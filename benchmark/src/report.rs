//! The `--json-out` report: metrics plus the host block that makes a
//! number comparable (cores, compiler, commit, seed, scale).

use std::process::Command;

use crate::json::Value;
use crate::run::{Outcome, Scale};
use crate::workload::Workload;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// `nproc`, `rustc`, git commit, seed and scale.
pub fn host_block(seed: u64, scale: Scale) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::object([
        ("nproc", Value::Number(nproc as f64)),
        ("rustc", Value::str(command_line("rustc", &["--version"]))),
        (
            "commit",
            Value::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::Number(seed as f64)),
        ("scale", Value::str(scale.label())),
    ])
}

/// One run's report entry (without the host block).
pub fn outcome_json(workload: &Workload, outcome: &Outcome) -> Value {
    Value::object([
        ("workload", Value::str(workload.name)),
        ("why", Value::str(workload.why)),
        ("gated", Value::Bool(workload.gated)),
        ("traced", Value::Bool(outcome.traced)),
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", Value::Number(outcome.attempted as f64)),
        ("failed", Value::Number(outcome.failed as f64)),
        ("failed_ratio", Value::Number(outcome.failed_ratio())),
        (
            "oracle_digest",
            Value::str(format!("{:016x}", outcome.oracle_digest)),
        ),
        ("metrics", outcome.metrics_json(true)),
    ])
}

/// A whole report: host block plus one entry per run.
pub fn report_json(seed: u64, scale: Scale, runs: Vec<Value>) -> Value {
    Value::object([
        ("host", host_block(seed, scale)),
        ("runs", Value::Array(runs)),
    ])
}
