//! Shared-ownership handle over a [`TraceStore`] for multi-threaded
//! services.
//!
//! [`TraceStore`] is already internally synchronized — every method takes
//! `&self`, writers serialize through the per-run shards and the WAL
//! group-commit path, and readers pin lock-free
//! [`ReadView`](crate::ReadView)s ([`TraceStore::pin`]) — so a daemon that
//! fans one store out to many sessions only needs shared ownership, not
//! another lock. [`SharedStore`] is that handle: a cheap `Clone` wrapper
//! around `Arc<TraceStore>` that derefs to the store and names the
//! concurrency contract in its type.

use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

use crate::store::TraceStore;
use crate::Result;

/// A cloneable, thread-safe handle to one [`TraceStore`].
///
/// All clones address the same underlying store; dropping the last clone
/// drops the store (flushing nothing implicitly — call
/// [`TraceStore::sync_wal`] for durability, as ever).
#[derive(Debug, Clone)]
pub struct SharedStore {
    inner: Arc<TraceStore>,
}

impl SharedStore {
    /// Wraps an already-opened store.
    pub fn new(store: TraceStore) -> Self {
        SharedStore { inner: Arc::new(store) }
    }

    /// Opens (or creates) a durable store at `path` and wraps it.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Ok(SharedStore::new(TraceStore::open(path)?))
    }

    /// The underlying `Arc`, for callers that need to cross an API that
    /// wants `Arc<TraceStore>` (e.g. an engine `TraceSink`).
    pub fn arc(&self) -> Arc<TraceStore> {
        Arc::clone(&self.inner)
    }
}

impl Deref for SharedStore {
    type Target = TraceStore;

    fn deref(&self) -> &TraceStore {
        &self.inner
    }
}

impl From<TraceStore> for SharedStore {
    fn from(store: TraceStore) -> Self {
        SharedStore::new(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_engine::{PortBinding, TraceSink, XformEvent};
    use prov_model::{Index, ProcessorName, Value};

    fn xform(proc: &str, val: &str) -> XformEvent {
        XformEvent {
            processor: ProcessorName::from(proc),
            invocation: 0,
            inputs: vec![],
            outputs: vec![PortBinding::new("y", Index::empty(), Value::str(val))],
        }
    }

    #[test]
    fn clones_address_the_same_store() {
        let shared = SharedStore::new(TraceStore::in_memory());
        let other = shared.clone();
        let run = shared.begin_run(&ProcessorName::from("wf"));
        other.record_xform(run, xform("P", "v"));
        assert_eq!(shared.trace_record_count(run), 1);
        assert_eq!(other.trace_record_count(run), 1);
    }

    #[test]
    fn pin_holds_a_snapshot_across_later_writes() {
        let shared = SharedStore::new(TraceStore::in_memory());
        let run = shared.begin_run(&ProcessorName::from("wf"));
        shared.record_xform(run, xform("P", "v"));
        let view = shared.pin(run);
        assert_eq!(view.trace_record_count(), 1);
        shared.record_xform(run, xform("Q", "w"));
        // The pinned view still sees exactly the records present at pin time.
        assert_eq!(view.trace_record_count(), 1);
        assert_eq!(shared.trace_record_count(run), 2);
    }
}
