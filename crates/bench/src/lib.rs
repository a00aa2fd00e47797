//! The paper runner (`fsm-bench`): the crate's one measuring entry point.
//!
//! `cargo run --release -p fsm-bench -- [SCALE] [--threads N] [--json-out
//! PATH]` runs every section over the same streams and measurement
//! conventions, prints each as markdown and, with `--json-out`, writes them
//! all to one JSON object beside the host block (`BENCH_paper.json`).  Every
//! section's verdict is the output of a check over its own rows, and the
//! runner exits 1 naming each section whose check failed.
//!
//! * [`paper`] — the paper's experiments E1–E5 and the ablations A1–A4;
//! * [`engine`] — the engine work beyond the paper that only an in-process
//!   harness can see: concurrent ingest + mine, thread scaling of all five
//!   algorithms, delta-vs-full maintenance and the kernel and window-view
//!   timings;
//! * [`report`] — the one row type, sections, their markdown and JSON;
//! * [`runner`] — capture + mine one workload with one algorithm or
//!   baseline, returning uniform [`runner::AlgorithmRun`] measurements;
//! * [`workloads`] — deterministic synthetic streams (graph-model, QUEST,
//!   dense connect4-like) at a given scale, plus their edge catalogs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod paper;
pub mod report;
pub mod runner;
pub mod workloads;

pub use workloads::{Workload, WorkloadKind};
