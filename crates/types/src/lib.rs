//! Core data types shared by every crate in the streaming frequent connected
//! subgraph mining workspace.
//!
//! The paper models a *stream of graph structured data*: at every time tick a
//! small graph (a set of labelled edges over a fixed vertex universe) arrives.
//! Consecutive graphs are grouped into *batches*, and mining operates over a
//! *sliding window* of the most recent `w` batches.  Each incoming graph is
//! treated as a *transaction* whose "items" are edge identifiers, which is why
//! the mining substrate below speaks of items and transactions while the
//! graph-level vocabulary (vertices, incidence, neighbourhoods) lives in the
//! [`EdgeCatalog`].
//!
//! Everything here is deliberately small, `Copy` where possible, and ordered
//! canonically so that the structures built on top (DSTree, DSTable, DSMatrix,
//! FP-trees) never need to reorder their contents when frequencies drift — the
//! key invariant the paper relies on for single-pass stream capture.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod catalog;
pub mod codec;
pub mod edge;
pub mod error;
pub mod graph;
pub mod minsup;
pub mod pattern;
pub mod transaction;
pub mod vertex;

pub use batch::{Batch, BatchId};
pub use catalog::EdgeCatalog;
pub use edge::{Edge, EdgeId};
pub use error::{FsmError, Result};
pub use graph::GraphSnapshot;
pub use minsup::MinSup;
pub use pattern::{EdgeSet, FrequentPattern, PatternKind, Support};
pub use transaction::{Transaction, TransactionId};
pub use vertex::VertexId;
