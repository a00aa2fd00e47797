//! `fsmd` — the multi-tenant streaming mining service.
//!
//! A long-lived process hosting many independent sliding windows (one per
//! tenant) behind a length-prefixed TCP protocol.  The heavy lifting lives
//! in the layers below; this crate is deliberately thin glue:
//!
//! * [`fsm_core::SessionRegistry`] owns the tenants — per-tenant windows,
//!   bounded ingest queues with backpressure, mine-on-every-slide
//!   subscriptions, and durable namespacing under one root;
//! * one [`fsm_pool::WorkerPool`] multiplexes every tenant's mining
//!   subtree tasks over a fixed thread set ([`fsm_core::Exec::pool`]);
//! * one [`fsm_storage::BudgetGovernor`] arbitrates a process-wide
//!   cap on resident decoded segments across the disk-backed tenants.
//!
//! [`proto`] defines the wire format, [`server`] the accept loop and
//! request dispatch, [`client`] a blocking client used by the `fsmd drive`
//! CLI mode, the CI smoke test and the integration tests.  Served output
//! is byte-identical to a standalone single-tenant run of the same batch
//! sequence — the tenant-isolation property the whole refactor is gated
//! on.

pub mod client;
pub mod proto;
pub mod server;

pub use client::FsmdClient;
pub use proto::{Opcode, Status, TenantSpec, TenantStatus};
pub use server::{serve, ServerHandle};
