//! A minimal linked-data (RDF) substrate.
//!
//! The paper frames its graph stream as *linked data*: resources identified
//! by URIs, linked by RDF triples, published and updated continuously.  No
//! full-featured Rust RDF stack is assumed here; instead this crate provides
//! the smallest pieces needed to turn a stream of triples into the edge
//! transactions the miners consume:
//!
//! * [`Iri`], [`Literal`] and [`Term`] — RDF terms;
//! * [`Triple`] — a subject/predicate/object statement;
//! * [`ntriples`] — a line-oriented N-Triples parser and serialiser;
//! * [`ResourceDictionary`] and [`TripleStreamAdapter`] — the bridge that maps
//!   resources to vertices, triples to edges, and groups of triples to
//!   [`fsm_types::GraphSnapshot`]s ready for batching.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod ntriples;
pub mod term;
pub mod triple;

pub use adapter::{GroupingStrategy, ResourceDictionary, TripleStreamAdapter};
pub use term::{Iri, Literal, Term};
pub use triple::Triple;
