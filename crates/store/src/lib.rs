//! # prov-store
//!
//! An embedded relational store for provenance traces — the role played by
//! a local MySQL 5.1 instance in the paper's evaluation (§4). The paper's
//! implementation is "based on a standard RDBMS, with no need for auxiliary
//! data structures"; this crate reproduces the parts of that substrate the
//! evaluation actually depends on:
//!
//! * relational tables for *xform* events (one row per elementary
//!   invocation, with per-port input/output rows) and *xfer* events (one
//!   row per transferred element), keyed by **trace (run) id** — the
//!   attribute that makes multi-run queries cheap (§3.4);
//! * per-run secondary indexes on `(processor, port, index)` — one sorted
//!   key array per port, binary-searched — giving the point lookups and
//!   prefix scans both query algorithms issue ("all of the queries on the
//!   traces involve the use of indexes, with none requiring full table
//!   scans");
//! * a content-addressed value table (identical collections recur along
//!   every arc of a trace);
//! * per-query access statistics ([`QueryStats`]) so benchmarks can report
//!   machine-independent record-access counts next to wall-clock times;
//! * durability via an append-only, CRC-framed write-ahead log with crash
//!   recovery and snapshot compaction; no other crate names or parses
//!   those files ([`verify_store`], [`TraceStore::reseed`]).
//!
//! [`TraceStore`] implements `prov_engine::TraceSink`, so an engine can
//! stream events straight into it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod catalog;
mod codec;
mod crc;
#[cfg(test)]
mod encode_props;
mod export;
pub mod fault;
mod indexes;
#[cfg(test)]
mod replay_props;
mod rows;
mod shard;
mod shared;
mod snapshot;
mod stats;
mod store;
mod symbols;
mod values;
mod verify;
mod wal;

pub use catalog::{IndexCatalog, IndexId, PortCardinality};
pub use crc::{crc32, Crc32};
pub use export::{GraphEdge, GraphNode, ProvenanceGraph};
pub use fault::{FaultFile, FaultPlan, FaultReader};
pub use rows::{PortDirection, XferRecord, XformPortRecord, XformRecord};
pub use shard::{Node, ProcessorSet, ReadView};
pub use shared::SharedStore;
pub use snapshot::{valid_snapshot, SnapshotMetrics};
pub use stats::{ProbeGuard, ProbeStats, QueryStats, StatsSnapshot};
pub use store::{ReplPosition, RunInfo, StoreError, TraceStore};
pub use verify::{prefix_crc, verify_store, SnapshotVerdict, VerifyReport};
pub use wal::{
    LogRecord, TailState, WalCursor, WalError, WalFile, WalMetrics, WalReader, WalRecovery,
    WalWriter,
};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, StoreError>;
