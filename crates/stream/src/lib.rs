//! The graph stream model: batch construction and sliding windows.
//!
//! The paper processes a continuous, unbounded stream of graph transactions in
//! *batches* and mines over a *sliding window* of the most recent `w` batches
//! (6 000-record batches and `w = 5` in the evaluation; 3-graph batches and
//! `w = 2` in the running example).  This crate provides:
//!
//! * [`BatchBuilder`] — groups incoming transactions into fixed-size batches;
//! * [`SlidingWindow`] — tracks which batches are inside the window and where
//!   the batch boundaries fall, the bookkeeping every capture structure needs
//!   when the window slides.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod stats;
pub mod window;

pub use builder::BatchBuilder;
pub use stats::StreamStats;
pub use window::{SlideOutcome, SlidingWindow, WindowConfig};
