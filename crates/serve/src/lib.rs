//! # serve — the ownership-graph query service
//!
//! The serving layer of the reproduction: a long-running, std-only TCP
//! server that holds one maintained session per loaded graph and answers
//! point lookups (`control(x, ?)`, `close_link(x, y)?`), derivation-tree
//! explanations and base-fact updates under **snapshot isolation**.
//!
//! The paper's deployment (§6) keeps the company-control graph resident
//! and serves analyst queries while updates stream in; this crate is
//! that shape in miniature:
//!
//! * [`epoch`] — the snapshot-isolation machinery. Every committed
//!   database state is an immutable epoch behind an `Arc`; readers pin
//!   the current epoch (refcount bump, no copy), a single writer commits
//!   the next one, retired epochs are freed when their last pin drops.
//! * [`service`] — [`GraphService`]: the maintained
//!   [`datalog::IncrementalEngine`] session as the single writer, index
//!   reads on pinned fixpoint epochs for lookups, a provenance
//!   re-derivation per epoch for explanations.
//! * [`protocol`] — the line-delimited JSON wire format with stable
//!   error codes.
//! * [`server`] / [`client`] — thread-per-connection TCP server and a
//!   blocking client.
//! * [`json`] — the hand-rolled JSON reader/writer shared with the
//!   benchmark artifact validators (no serde in this build).
//!
//! ## Consistency contract
//!
//! A response's `epoch` field names the committed database state it was
//! computed against. Within one request the snapshot cannot change, and
//! answers are **byte-identical** to a from-scratch run over that same
//! snapshot's base facts ([`GraphService::query_on`]) — the
//! concurrency differential suite (`tests/concurrency_differential.rs`)
//! enforces this under concurrent writers at 1/2/8 reader threads.

#![forbid(unsafe_code)]

pub mod client;
pub mod epoch;
pub mod json;
pub mod protocol;
pub mod server;
pub mod service;

pub use client::{Client, ClientError};
pub use epoch::{EpochRegistry, EpochStats, PinnedEpoch, WriterGuard};
pub use protocol::{Body, ErrorCode, Op, Request, Response, DEFAULT_MAX_FRAME, PROTOCOL_VERSION};
pub use server::Server;
pub use service::{
    AppliedDelta, DurableOpenError, GraphService, RestoreInfo, ServeError, ServiceConfig,
    ServiceStats,
};
