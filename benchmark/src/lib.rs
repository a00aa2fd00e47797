//! The repo benchmark behind `BENCHMARK.json`.
//!
//! A closed-loop socket load generator drives a real in-process
//! [`fsm_fsmd::serve`] over loopback TCP, checks every mined window against
//! a standalone oracle and reports end-to-end metrics; a separate traced run
//! replays the same request schedule down an outside-in ladder (client →
//! session → miner → matrix → bit-vector kernels) to attribute the step to
//! layers.  See `benchmark/README.md` for the workload and metric tables.
//!
//! The program under test is reached through public API only and this
//! package is not a member of the root workspace, so defining or correcting
//! the benchmark never edits the code it measures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod ladder;
pub mod report;
pub mod run;
pub mod served;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;
