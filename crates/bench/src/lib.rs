//! Shared harness code for the experiment binaries and Criterion benches.
//!
//! Every experiment binary (one per table/figure of the paper) builds its
//! workloads and runners from this crate so that the same streams and the
//! same measurement conventions are used everywhere:
//!
//! * [`workloads`] — deterministic synthetic streams (graph-model, QUEST,
//!   dense connect4-like) at a given scale, plus their edge catalogs;
//! * [`runner`] — capture + mine one workload with one algorithm or
//!   baseline, returning uniform [`AlgorithmRun`] measurements.
//!   [`run_algorithm_threaded`] exposes the engine's `threads` knob (all
//!   five algorithms honour it; `0` = all cores, results identical for any
//!   worker count);
//! * [`report`] — markdown tables and unit formatting for the binaries.
//!
//! Entry points live in `src/bin/`: `exp1_accuracy` … `exp5_scalability`
//! mirror the paper's experiments, the `ablation_*` binaries isolate
//! individual design decisions, and `exp3_runtime` additionally carries the
//! engine work beyond the paper that only an in-process harness can see —
//! thread scaling of all five algorithms, the constructed concurrent
//! ingest + mine overlap, delta-vs-full maintenance and the kernel timings
//! (`BENCH_delta.json`).  What a *served* step costs, layer by layer, is the
//! repo benchmark's (`benchmark/`) to measure, not this crate's.
//! Criterion-style benches (under `benches/`) time individual structures
//! and kernels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod runner;
pub mod workloads;

pub use report::{markdown_table, Row};
pub use runner::{run_algorithm_on, run_algorithm_threaded, run_baselines_on, AlgorithmRun};
pub use workloads::{Workload, WorkloadKind};
