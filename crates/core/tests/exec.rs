//! The one request-level query path, [`prov_core::exec`], over every
//! request shape and every refusal.

use std::sync::Arc;

use prov_core::{
    exec, parse_query, CoreError, Env, Executed, ParsedQuery, PlanCache, QueryRequest, RunSelection,
};
use prov_dataflow::{Dataflow, DataflowError};
use prov_model::{ProcessorName, RunId};
use prov_obs::{JournalEvent, Obs, QueryCtx, TimeSource};
use prov_store::TraceStore;
use prov_workgen::testbed;

const LIN: &str = "lin(<2TO1_FINAL:Y[0,1]>, {LISTGEN_1})";
const IMPACT: &str = "impact(<testbed:ListSize[]>, {testbed})";

/// A store with `runs` testbed runs (`l = 3`, `d = 2`) that registers
/// the spec under each of `names`.
fn store(df: &Dataflow, runs: usize, names: &[&str]) -> TraceStore {
    let store = TraceStore::in_memory();
    for _ in 0..runs {
        testbed::run(df, 2, &store);
    }
    let json = serde_json::to_string(df).unwrap();
    for name in names {
        store.register_workflow(&ProcessorName::from(*name), json.clone());
    }
    store
}

fn request<'a>(query: &'a str, runs: RunSelection, algo: &'a str) -> QueryRequest<'a> {
    QueryRequest { query, runs, algo, wf: None }
}

fn rendered(done: &Executed) -> Vec<String> {
    done.answers.iter().map(|a| a.to_string()).collect()
}

/// {NI, INDEXPROJ, impact} × {one run, all runs, zero runs} × {workflow
/// supplied, by name, sole registered} × {journal off, on}: the right
/// number of answers, a plan size exactly when a plan was compiled,
/// NI ≡ INDEXPROJ, and the same rendering whichever way the workflow
/// was resolved and whether or not anybody was watching. The zero-run row
/// under a journal is the regression for the CLI's old `runs[0]` panic:
/// with no first run to ground the cost prediction in, the query is
/// planned all the same and nothing executes.
#[test]
fn every_request_shape_answers_identically_through_the_one_path() {
    let df = testbed::generate(3);
    let selections =
        [(2, RunSelection::One(RunId(1)), 1), (2, RunSelection::All, 2), (0, RunSelection::All, 0)];
    for (stored, selection, expected) in selections {
        // A supplied spec wins over the registry — even a broken one.
        let supplied = store(&df, stored, &[]);
        supplied.register_workflow(&"junk".into(), "{".into());
        let named = store(&df, stored, &["testbed", "other"]);
        let sole = store(&df, stored, &["testbed"]);
        let sources: [(&TraceStore, Option<&Dataflow>, Option<&str>); 3] =
            [(&supplied, Some(&df), None), (&named, None, Some("testbed")), (&sole, None, None)];
        for (query, algo, plans) in
            [(LIN, "ni", false), (LIN, "indexproj", true), (IMPACT, "bogus", false)]
        {
            let mut renderings = Vec::new();
            for (store, workflow, wf) in sources {
                for obs in [Obs::disabled(), Obs::enabled()] {
                    let ctx = QueryCtx::new(query);
                    let env = Env { store, workflow, obs: &obs, ctx: &ctx };
                    let req = QueryRequest { wf, ..request(query, selection, algo) };
                    let done = exec(&env, &req)
                        .unwrap_or_else(|e| panic!("{algo} {selection:?} {wf:?}: {e}"));
                    assert_eq!(done.answers.len(), expected, "{algo} {selection:?}");
                    assert_eq!(done.plan_steps.is_some(), plans, "{algo}");
                    let finished = obs
                        .journal
                        .events()
                        .iter()
                        .filter(|e| matches!(e.event, JournalEvent::QueryFinished { .. }))
                        .count();
                    assert_eq!(finished, if obs.journal.is_enabled() { expected } else { 0 });
                    renderings.push(rendered(&done));
                }
            }
            assert!(renderings.windows(2).all(|w| w[0] == w[1]), "{algo}: {renderings:?}");
        }
        let (obs, ctx) = (Obs::disabled(), QueryCtx::new(LIN));
        let env = Env { store: &sole, workflow: None, obs: &obs, ctx: &ctx };
        let ni = exec(&env, &request(LIN, selection, "ni")).unwrap();
        let ip = exec(&env, &request(LIN, selection, "indexproj")).unwrap();
        assert_eq!(rendered(&ni), rendered(&ip), "NI ≢ INDEXPROJ on {selection:?}");
        assert!(ni.answers.iter().all(|a| a.bindings.len() == 1));
    }
}

/// With a journal, every INDEXPROJ execution carries the query's
/// fingerprint and a grounded, drift-free prediction.
#[test]
fn journalled_requests_carry_fingerprint_and_prediction() {
    let df = testbed::generate(3);
    let sole = store(&df, 2, &["testbed"]);
    let (obs, ctx) = (Obs::enabled(), QueryCtx::new(LIN));
    let env = Env { store: &sole, workflow: None, obs: &obs, ctx: &ctx };
    exec(&env, &request(LIN, RunSelection::All, "indexproj")).unwrap();
    let ParsedQuery::Lineage(q) = parse_query(LIN).unwrap() else { unreachable!() };
    let mut finished = 0;
    for e in obs.journal.events() {
        if let JournalEvent::QueryFinished {
            trace, fingerprint, predicted_lookups, drift, ..
        } = e.event
        {
            finished += 1;
            assert_eq!(trace, ctx.trace);
            assert_eq!(fingerprint, PlanCache::fingerprint(&q));
            assert!(predicted_lookups.is_some());
            assert!(!drift, "the testbed is balanced: the model must hold");
        }
    }
    assert_eq!(finished, 2);
}

#[derive(Debug)]
struct Frozen(u64);
impl TimeSource for Frozen {
    fn now_micros(&self) -> u64 {
        self.0
    }
}

#[test]
fn every_refusal_is_typed() {
    let df = testbed::generate(3);
    let sole = store(&df, 1, &["testbed"]);
    let none = store(&df, 1, &[]);
    let two = store(&df, 1, &["testbed", "other"]);
    let junk = store(&df, 1, &[]);
    junk.register_workflow(&"junk".into(), "{".into());
    let invalid = store(&df, 1, &[]);
    let mut dup = df.clone();
    dup.processors.push(dup.processors[0].clone());
    invalid.register_workflow(&"dup".into(), serde_json::to_string(&dup).unwrap());

    let obs = Obs::disabled();
    let run = |store: &TraceStore, ctx: &QueryCtx, req: QueryRequest<'_>| {
        exec(&Env { store, workflow: None, obs: &obs, ctx }, &req).unwrap_err()
    };
    let ctx = QueryCtx::new("q");
    let one = RunSelection::One(RunId(0));
    let ip = request(LIN, one, "indexproj");

    let e = run(&sole, &ctx, request(LIN, one, "fast"));
    assert!(matches!(&e, CoreError::UnknownAlgo { algo } if algo == "fast"), "{e:?}");
    let e = run(&none, &ctx, ip);
    assert!(matches!(e, CoreError::NoWorkflow), "{e:?}");
    let e = run(&two, &ctx, ip);
    assert!(matches!(&e, CoreError::AmbiguousWorkflow { names } if names.len() == 2), "{e:?}");
    let e = run(&sole, &ctx, QueryRequest { wf: Some("nope"), ..ip });
    assert!(matches!(&e, CoreError::WorkflowNotRegistered { name } if name == "nope"), "{e:?}");
    let e = run(&junk, &ctx, ip);
    assert!(matches!(e, CoreError::Dataflow(DataflowError::InvalidJson(_))), "{e:?}");
    let e = run(&invalid, &ctx, ip);
    assert!(matches!(e, CoreError::Dataflow(DataflowError::DuplicateName(_))), "{e:?}");
    let e = run(&sole, &ctx, request("lin(oops", one, "ni"));
    assert!(matches!(e, CoreError::Parse(_)) && e.to_string().contains("parse error"), "{e:?}");
    // A query target the spec does not define is the planner's refusal.
    let e = run(&sole, &ctx, request("lin(<nope:Y[]>)", one, "indexproj"));
    assert!(matches!(e, CoreError::UnknownTarget { .. }), "{e:?}");

    // Deadline already in the past on the injected clock: every
    // algorithm abandons at its first step.
    let expired = QueryCtx::new("q").with_clock_deadline(Arc::new(Frozen(10_000)), 1);
    for (query, algo) in [(LIN, "ni"), (LIN, "indexproj"), (IMPACT, "ni")] {
        let e = run(&sole, &expired, request(query, one, algo));
        assert!(matches!(e, CoreError::DeadlineExceeded { .. }), "{algo} {query}: {e:?}");
    }
}
