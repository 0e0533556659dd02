//! The one request-level query path.
//!
//! Every consumer that starts from a *request* — `tprov
//! query|lineage|impact|profile` and a daemon session (on a primary or a
//! replica) — calls [`exec`]: query text, run selection, algorithm name
//! and optional workflow name in; answers out. What lies between is the
//! paper's *plan once (t1), probe per run (t2)* and is written down here
//! once: parse → select runs → pick the algorithm → resolve the workflow
//! specification → plan (both resident in the caller's [`WorkflowCache`]:
//! loaded and compiled only on a miss) → attach the cost prediction →
//! execute through the `(obs, ctx)` tier of [`NaiveLineage`] /
//! [`LineagePlan`](crate::LineagePlan) / [`NaiveImpact`]. Rendering is [`LineageAnswer`]'s `Display`, so local,
//! replicated and served answers for one request are byte-identical.

use std::sync::Arc;

use prov_dataflow::Dataflow;
use prov_model::{ProcessorName, RunId};
use prov_obs::{Obs, QueryCtx};
use prov_store::{StoreError, TraceStore};

use crate::verify::explain_plan;
use crate::{
    parse_query, CoreError, IndexProj, LineageAnswer, NaiveImpact, NaiveLineage, ParsedQuery,
    PlanCache, Result, WorkflowCache,
};

/// Where a request executes: the store it reads, the observability it
/// reports to, and the per-request context (trace id, deadline, slow
/// threshold, drift tolerance) its caller minted.
#[derive(Debug, Clone, Copy)]
pub struct Env<'a> {
    /// The trace store.
    pub store: &'a TraceStore,
    /// A caller-supplied workflow specification (the CLI's
    /// `--workflow FILE`); wins over the store's registry and bypasses
    /// `workflows`.
    pub workflow: Option<&'a Dataflow>,
    /// The registered workflows this process keeps resident, with their
    /// plans: owned by a daemon (primary or replica) for its lifetime,
    /// fresh and empty for a one-shot request.
    pub workflows: &'a WorkflowCache,
    /// Spans, metrics and the event journal.
    pub obs: &'a Obs,
    /// The request's context.
    pub ctx: &'a QueryCtx,
}

/// Which runs a request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunSelection {
    /// Exactly this run; a run the store does not hold is refused.
    One(RunId),
    /// Exactly this run, on a store that lags the run's writer (a
    /// follower behind its primary): a run it does not hold yet answers
    /// empty, and the follower's lag tells the client whether to trust
    /// that.
    Lagging(RunId),
    /// Every run the store holds when the request executes.
    All,
}

/// One query as a user states it.
#[derive(Debug, Clone, Copy)]
pub struct QueryRequest<'a> {
    /// The query in the paper's notation (`lin(<P:Y[1,2]>, {A})`,
    /// `impact(<wf:in[0]>, {wf})`).
    pub query: &'a str,
    /// Target runs.
    pub runs: RunSelection,
    /// `"ni"` or `"indexproj"`; consulted for lineage queries only
    /// (impact queries have one algorithm).
    pub algo: &'a str,
    /// Name of the registered workflow INDEXPROJ plans against, when
    /// [`Env::workflow`] is not supplied; `None` means the store's only one.
    pub wf: Option<&'a str>,
}

/// What a request produced.
#[derive(Debug, Clone)]
pub struct Executed {
    /// Trace lookups in the compiled plan; `None` when nothing was planned
    /// (NI, impact).
    pub plan_steps: Option<usize>,
    /// One answer per selected run, in run order.
    pub answers: Vec<LineageAnswer>,
}

/// Executes one request. Refusals are typed: [`CoreError::Parse`],
/// [`CoreError::Store`] with [`StoreError::UnknownRun`] for a
/// [`RunSelection::One`] run the store does not hold (a begun run with no
/// records answers empty), [`CoreError::UnknownAlgo`],
/// [`CoreError::NoWorkflow`] / [`CoreError::AmbiguousWorkflow`] /
/// [`CoreError::WorkflowNotRegistered`],
/// [`CoreError::Dataflow`] for a registered spec that does not load,
/// [`CoreError::DeadlineExceeded`] once `env.ctx`'s deadline passes.
///
/// When `env.obs.journal` records, the context is completed first: the
/// query's fingerprint, and for INDEXPROJ the static cost prediction
/// (grounded in the first selected run's cardinalities; ungrounded when no
/// run is selected), so the `QueryFinished` event carries a drift verdict
/// wherever the request came from. Without a journal nobody would read
/// either, and both are skipped.
pub fn exec(env: &Env<'_>, req: &QueryRequest<'_>) -> Result<Executed> {
    let Env { store, obs, .. } = *env;
    let query = parse_query(req.query)?;
    let runs: Vec<RunId> = match req.runs {
        // A request already past its deadline is refused as such, whatever
        // it selected.
        RunSelection::One(run) if !store.has_run(run) => {
            return Err(if env.ctx.deadline_exceeded() {
                CoreError::DeadlineExceeded { query: env.ctx.query.clone() }
            } else {
                CoreError::Store(StoreError::UnknownRun(run))
            });
        }
        RunSelection::One(run) | RunSelection::Lagging(run) => vec![run],
        RunSelection::All => store.runs().iter().map(|i| i.id).collect(),
    };
    let journalled = obs.journal.is_enabled();
    let mut ctx = std::borrow::Cow::Borrowed(env.ctx);
    if journalled {
        ctx.to_mut().fingerprint = match &query {
            ParsedQuery::Lineage(q) => PlanCache::fingerprint(q),
            ParsedQuery::Impact(q) => PlanCache::fingerprint(q),
        };
    }
    let (plan_steps, answers) = match &query {
        ParsedQuery::Lineage(q) => match req.algo {
            "ni" => (None, NaiveLineage::new().run_multi_ctx(store, &runs, q, obs, &ctx)?),
            "indexproj" => {
                let resident;
                let (df, plan) = match env.workflow {
                    Some(df) => (df, Arc::new(IndexProj::new(df).plan_with(q, obs)?)),
                    None => {
                        let (name, spec) = registered_spec(store, req.wf)?;
                        resident = env.workflows.resident(name, spec)?;
                        (resident.dataflow(), resident.plan(q, obs)?)
                    }
                };
                if journalled {
                    // The cost model's prediction rides along so drift is
                    // detectable; it is grounded per request, whether or
                    // not the plan was compiled for this one.
                    let first = runs.first().map(|&r| store.pin(r));
                    let catalog = store.index_catalog();
                    let ex = explain_plan(df, Arc::clone(&plan), &catalog, first.as_ref(), obs);
                    let c = ctx.to_mut();
                    c.predicted_lookups = Some(ex.cost.index_lookups);
                    c.predicted_rows = Some(ex.cost.rows_scanned);
                    c.rows_grounded = ex.cost.grounded;
                }
                (Some(plan.steps.len()), plan.execute_multi_ctx(store, &runs, obs, &ctx)?)
            }
            other => return Err(CoreError::UnknownAlgo { algo: other.to_string() }),
        },
        ParsedQuery::Impact(q) => {
            let imp = NaiveImpact::new();
            let answers =
                runs.iter().map(|&r| imp.run_ctx(store, r, q, obs, &ctx)).collect::<Result<_>>()?;
            (None, answers)
        }
    };
    Ok(Executed { plan_steps, answers })
}

/// The specification a request plans against, as registered: the named
/// workflow, else the store's only one. Registrations travel through the
/// WAL, so a daemon plans against exactly what its writers declared and a
/// caught-up replica against the same spec as its primary.
fn registered_spec(store: &TraceStore, wf: Option<&str>) -> Result<(ProcessorName, Arc<str>)> {
    let name = match wf {
        Some(n) => ProcessorName::from(n),
        None => {
            let mut names = store.workflow_names();
            match names.len() {
                0 => return Err(CoreError::NoWorkflow),
                1 => names.remove(0),
                _ => {
                    return Err(CoreError::AmbiguousWorkflow {
                        names: names.iter().map(|n| n.to_string()).collect(),
                    })
                }
            }
        }
    };
    let spec = store
        .workflow_json(&name)
        .ok_or_else(|| CoreError::WorkflowNotRegistered { name: name.to_string() })?;
    Ok((name, spec))
}

/// Loads a workflow specification from the store's registry for a caller
/// that wants its own copy (the CLI's spec-level verbs).
pub fn registered_workflow(store: &TraceStore, wf: Option<&str>) -> Result<Dataflow> {
    Ok(Dataflow::from_json(&registered_spec(store, wf)?.1)?)
}
