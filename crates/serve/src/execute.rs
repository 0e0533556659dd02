//! The daemon's query executor: a [`ServeQuery`] off the wire becomes a
//! [`prov_core::exec`] request, and the answers render through the same
//! `Display` the CLI uses — a served answer is byte-identical to a local
//! one. The session's [`QueryCtx`] carries the request's clock deadline,
//! so an expired request aborts *between plan steps* with
//! [`CoreError::DeadlineExceeded`], which the session turns into the typed
//! `timeout` reply.

use prov_core::{exec, CoreError, Env, QueryRequest, RunSelection, WorkflowCache};
use prov_model::RunId;
use prov_obs::{Obs, QueryCtx};
use prov_store::TraceStore;

use crate::protocol::ServeQuery;

/// Executes one served query under `ctx`, one-shot: `indexproj` requests
/// load the store's registered workflow (the serve path registers specs
/// via `IngestBegin`) and plan from scratch, as a daemon's first request
/// for that workflow and query does.
pub fn execute_query(
    store: &TraceStore,
    req: &ServeQuery,
    obs: &Obs,
    ctx: &QueryCtx,
) -> Result<Vec<String>, CoreError> {
    execute_resident(store, &WorkflowCache::new(), req, false, obs, ctx)
}

/// [`execute_query`] against the workflows and plans a daemon keeps
/// resident across requests. On a `lagging` store — a follower behind its
/// primary — a run it does not hold yet answers empty rather than being
/// refused: the reply's lag lets the client judge it.
pub(crate) fn execute_resident(
    store: &TraceStore,
    workflows: &WorkflowCache,
    req: &ServeQuery,
    lagging: bool,
    obs: &Obs,
    ctx: &QueryCtx,
) -> Result<Vec<String>, CoreError> {
    let runs = match (req.all_runs, lagging) {
        (true, _) => RunSelection::All,
        (false, true) => RunSelection::Lagging(RunId(req.run)),
        (false, false) => RunSelection::One(RunId(req.run)),
    };
    let request = QueryRequest { query: &req.query, runs, algo: &req.algo, wf: req.wf.as_deref() };
    let done = exec(&Env { store, workflow: None, workflows, obs, ctx }, &request)?;
    Ok(done.answers.iter().map(|a| a.to_string()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use prov_engine::TraceSink;
    use prov_model::ProcessorName;
    use prov_obs::TimeSource;

    #[derive(Debug)]
    struct Frozen(AtomicU64);
    impl TimeSource for Frozen {
        fn now_micros(&self) -> u64 {
            self.0.load(Ordering::SeqCst)
        }
    }

    /// The dispatcher's own cases live with `prov_core::exec`; this pins
    /// the one thing the session depends on — an expired clock deadline
    /// comes back as the variant it maps to the typed `timeout` reply.
    #[test]
    fn an_expired_clock_deadline_is_the_typed_deadline_error() {
        let store = TraceStore::in_memory();
        let run = store.begin_run(&ProcessorName::from("wf"));
        let req = ServeQuery {
            query: "lin(<P:y[]>)".into(),
            run: run.0,
            all_runs: false,
            algo: "ni".into(),
            wf: None,
            deadline_ms: None,
        };
        // Deadline already in the past on the injected clock.
        let clock = Arc::new(Frozen(AtomicU64::new(10_000)));
        let ctx = QueryCtx::new("q").with_clock_deadline(clock, 1);
        let err = execute_query(&store, &req, &Obs::disabled(), &ctx).unwrap_err();
        assert!(matches!(err, CoreError::DeadlineExceeded { .. }), "got {err:?}");
    }
}
