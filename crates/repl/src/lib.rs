//! # prov-repl
//!
//! WAL-shipping replication: a primary [`prov_store::TraceStore`] streams
//! its durable log to follower stores that replay it continuously. This
//! crate ships bytes and answers no queries; `prov_serve::ProvServer::follow`
//! serves a follower's store read-only, through the same server, protocol
//! and query path as a primary.
//!
//! The design leans on two properties the store already guarantees:
//!
//! 1. **The WAL is the state.** Shipping the durable frame stream (plus a
//!    snapshot file when the log leads with a compaction marker) and
//!    re-framing the identical payload bytes on the follower yields a
//!    local log that is a *byte-for-byte prefix* of the primary's — so
//!    ordinary crash recovery doubles as follower restart, and a prefix
//!    CRC in the handshake detects divergence by content.
//! 2. **Answers are a function of the durable prefix.** A follower paused
//!    at any frame boundary answers exactly the lineage of the records it
//!    has — the same invariant the crash-recovery torture suites assert —
//!    so replica reads are stale-but-consistent, never wrong.
//!
//! Modules: [`protocol`] (wire format), [`primary`] (one follower's
//! handshake and stream, run on a `prov_serve::ProvServer` session — the
//! daemon that owns a database is its replication primary, on the same
//! port), [`follower`] (replay loop and lag tracking), [`verify`]
//! (offline WAL/snapshot integrity sweep).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod follower;
pub mod primary;
pub mod protocol;
pub mod verify;

pub use follower::{status_path, Follower, FollowerConfig, ReplStatus};
pub use primary::{ship, snapshot_backs_marker, Shipped};
pub use verify::{verify_store, SnapshotVerdict, VerifyReport};

/// Typed replication errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplError {
    /// A socket or file operation failed.
    Io(String),
    /// The local store refused an operation.
    Store(String),
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::Io(m) => write!(f, "replication i/o: {m}"),
            ReplError::Store(m) => write!(f, "replication store: {m}"),
        }
    }
}

impl std::error::Error for ReplError {}
