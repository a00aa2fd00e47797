//! `streaming-fsm` — frequent connected subgraph mining from streams of
//! linked graph structured data.
//!
//! This is the top-level facade crate of the workspace.  It re-exports the
//! public API of every member crate so that applications (and the runnable
//! examples under `examples/`) only need a single dependency.
//!
//! See `ARCHITECTURE.md` for the data flow, the mapping from the paper's
//! sections to crates, and where to start reading.

#![forbid(unsafe_code)]

pub use fsm_core as core;
pub use fsm_datagen as datagen;
pub use fsm_dsmatrix as dsmatrix;
pub use fsm_dstable as dstable;
pub use fsm_dstree as dstree;
pub use fsm_fptree as fptree;
pub use fsm_linked_data as linked_data;
pub use fsm_storage as storage;
pub use fsm_stream as stream;
pub use fsm_types as types;
