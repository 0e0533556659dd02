//! The one request-level query path, [`prov_core::exec`], over every
//! request shape and every refusal.

use std::sync::Arc;

use prov_core::{
    exec, parse_query, CoreError, Env, Executed, NaiveLineage, ParsedQuery, PlanCache,
    PlanCacheStats, QueryRequest, RunSelection, WorkflowCache, WorkflowCacheStats, PLAN_MEMO_CAP,
};
use prov_dataflow::{Dataflow, DataflowError};
use prov_model::{ProcessorName, RunId};
use prov_obs::{JournalEvent, Obs, QueryCtx, TimeSource};
use prov_store::{StoreError, TraceStore};
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
/// NI ≡ INDEXPROJ, all runs ≡ each run alone, and the same rendering
/// whichever way the workflow was resolved and whether or not anybody was
/// watching. The zero-run row under a journal is the regression for the
/// CLI's old `runs[0]` panic: with no first run to ground the cost
/// prediction in, the query is planned all the same and nothing executes.
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
                    let workflows = WorkflowCache::new();
                    let env = Env { store, workflow, workflows: &workflows, obs: &obs, ctx: &ctx };
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
        let (obs, ctx, workflows) = (Obs::disabled(), QueryCtx::new(LIN), WorkflowCache::new());
        let env = Env { store: &sole, workflow: None, workflows: &workflows, obs: &obs, ctx: &ctx };
        let ni = exec(&env, &request(LIN, selection, "ni")).unwrap();
        let ip = exec(&env, &request(LIN, selection, "indexproj")).unwrap();
        assert_eq!(rendered(&ni), rendered(&ip), "NI ≢ INDEXPROJ on {selection:?}");
        assert!(ni.answers.iter().all(|a| a.bindings.len() == 1));
        // A multi-run request answers exactly as its runs one at a time,
        // work accounting included.
        for (algo, done) in [("ni", &ni), ("indexproj", &ip)] {
            let one_by_one: Vec<_> = done
                .answers
                .iter()
                .flat_map(|a| {
                    exec(&env, &request(LIN, RunSelection::One(a.run), algo)).unwrap().answers
                })
                .collect();
            assert_eq!(done.answers, one_by_one, "{algo} {selection:?}");
        }
    }
}

/// With a journal, every INDEXPROJ execution carries the query's
/// fingerprint and a grounded, drift-free prediction.
#[test]
fn journalled_requests_carry_fingerprint_and_prediction() {
    let df = testbed::generate(3);
    let sole = store(&df, 2, &["testbed"]);
    let (obs, ctx, workflows) = (Obs::enabled(), QueryCtx::new(LIN), WorkflowCache::new());
    let env = Env { store: &sole, workflow: None, workflows: &workflows, obs: &obs, ctx: &ctx };
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
    let workflows = WorkflowCache::new();
    let run = |store: &TraceStore, ctx: &QueryCtx, req: QueryRequest<'_>| {
        exec(&Env { store, workflow: None, workflows: &workflows, obs: &obs, ctx }, &req)
            .unwrap_err()
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

    // A run the store does not hold is refused, whichever algorithm; a
    // typo is not an empty lineage.
    for (query, algo) in [(LIN, "ni"), (LIN, "indexproj"), (IMPACT, "ni")] {
        let e = run(&sole, &ctx, request(query, RunSelection::One(RunId(7)), algo));
        assert!(
            matches!(e, CoreError::Store(StoreError::UnknownRun(RunId(7))))
                && e.to_string() == "unknown run 7",
            "{algo} {query}: {e:?}"
        );
    }

    // Deadline already in the past on the injected clock: every
    // algorithm abandons at its first step.
    let expired = QueryCtx::new("q").with_clock_deadline(Arc::new(Frozen(10_000)), 1);
    for (query, algo) in [(LIN, "ni"), (LIN, "indexproj"), (IMPACT, "ni")] {
        let e = run(&sole, &expired, request(query, one, algo));
        assert!(matches!(e, CoreError::DeadlineExceeded { .. }), "{algo} {query}: {e:?}");
    }
}

// ------------------------------------------------ the resident workflow cache

const FOCUS_CHAIN: &str = "lin(<2TO1_FINAL:Y[0,1]>, {LISTGEN_1,CHAIN_A_1,CHAIN_A_2,CHAIN_A_3})";

fn indexproj(store: &TraceStore, workflows: &WorkflowCache, obs: &Obs, query: &str) -> Executed {
    let ctx = QueryCtx::new(query);
    let env = Env { store, workflow: None, workflows, obs, ctx: &ctx };
    exec(&env, &request(query, RunSelection::All, "indexproj")).unwrap()
}

fn stats(loads: u64, hits: u64, plan_hits: u64, plan_misses: u64) -> WorkflowCacheStats {
    WorkflowCacheStats {
        loads,
        hits,
        plans: PlanCacheStats { hits: plan_hits, misses: plan_misses },
    }
}

/// N identical requests cost one specification load and one plan compile
/// — `Dataflow::from_json` is reached on a miss only — and the supplied
/// `--workflow` spec goes around the cache altogether.
#[test]
fn repeated_requests_load_and_plan_once() {
    let df = testbed::generate(3);
    let sole = store(&df, 2, &["testbed"]);
    let (workflows, obs) = (WorkflowCache::new(), Obs::disabled());
    let first = rendered(&indexproj(&sole, &workflows, &obs, LIN));
    for _ in 0..9 {
        assert_eq!(rendered(&indexproj(&sole, &workflows, &obs, LIN)), first);
    }
    assert_eq!(workflows.stats(), stats(1, 9, 9, 1));
    assert_eq!(workflows.cached_plans(), 1);
    // NI never resolves a workflow; a supplied spec bypasses the cache.
    let ctx = QueryCtx::new(LIN);
    let env =
        Env { store: &sole, workflow: Some(&df), workflows: &workflows, obs: &obs, ctx: &ctx };
    exec(&env, &request(LIN, RunSelection::All, "indexproj")).unwrap();
    exec(&env, &request(LIN, RunSelection::All, "ni")).unwrap();
    assert_eq!(workflows.stats(), stats(1, 9, 9, 1));
}

/// Re-registering identical bytes keeps the entry and its plans;
/// different bytes replace both, and the next answer is planned against
/// the new specification.
#[test]
fn reregistration_invalidates_by_content() {
    let df = testbed::generate(3);
    let sole = store(&df, 1, &["testbed"]);
    let (workflows, obs) = (WorkflowCache::new(), Obs::disabled());
    let name = ProcessorName::from("testbed");
    let before = indexproj(&sole, &workflows, &obs, FOCUS_CHAIN);
    sole.register_workflow(&name, serde_json::to_string(&df).unwrap());
    let same = indexproj(&sole, &workflows, &obs, FOCUS_CHAIN);
    assert_eq!(workflows.stats(), stats(1, 1, 1, 1), "identical bytes keep entry and plans");
    assert_eq!(rendered(&same), rendered(&before));

    // A two-stage chain under the same name: CHAIN_A_3 no longer exists,
    // so the same query compiles to a shorter plan.
    let shorter = testbed::generate(2);
    sole.register_workflow(&name, serde_json::to_string(&shorter).unwrap());
    let after = indexproj(&sole, &workflows, &obs, FOCUS_CHAIN);
    assert_eq!(workflows.stats(), stats(2, 1, 1, 2), "different bytes reload and re-plan");
    assert!(
        after.plan_steps < before.plan_steps,
        "{:?} vs {:?}",
        after.plan_steps,
        before.plan_steps
    );
    assert_eq!(workflows.cached_plans(), 1, "the old spec's plans went with it");
}

/// Eight sessions asking at once after a registration converge on one
/// resident entry and one plan: the specification is parsed once, and a
/// lost compile race counts as a hit.
#[test]
fn concurrent_requests_converge_on_one_entry() {
    let df = testbed::generate(3);
    let sole = store(&df, 1, &["testbed"]);
    let (workflows, obs) = (WorkflowCache::new(), Obs::disabled());
    let gate = std::sync::Barrier::new(8);
    // Concurrent callers are the point of the test, not query fan-out.
    #[allow(clippy::disallowed_methods)]
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                gate.wait();
                for _ in 0..5 {
                    indexproj(&sole, &workflows, &obs, LIN);
                }
            });
        }
    });
    assert_eq!(workflows.stats(), stats(1, 39, 39, 1));
    assert_eq!(workflows.cached_plans(), 1);
}

/// A client sweeping indexes cannot grow a resident memo past its cap,
/// and forgetting plans never changes an answer: every INDEXPROJ answer
/// of the sweep equals NI's.
#[test]
fn an_index_sweep_stays_under_the_plan_cap() {
    // The smallest list whose index space overflows the memo.
    const D: usize = 68;
    const { assert!(D * D > PLAN_MEMO_CAP) };
    let df = testbed::generate(1);
    let sole = TraceStore::in_memory();
    let run = testbed::run(&df, D, &sole).run_id;
    sole.register_workflow(&df.name, serde_json::to_string(&df).unwrap());
    let (workflows, obs) = (WorkflowCache::new(), Obs::disabled());
    let ni = NaiveLineage::new();
    for n in 0..D * D {
        let text = format!("lin(<2TO1_FINAL:Y[{},{}]>, {{LISTGEN_1}})", n / D, n % D);
        let done = indexproj(&sole, &workflows, &obs, &text);
        assert!(workflows.cached_plans() <= PLAN_MEMO_CAP, "{n}: {}", workflows.cached_plans());
        let ParsedQuery::Lineage(q) = parse_query(&text).unwrap() else { unreachable!() };
        let oracle = ni.run(&sole, run, &q).unwrap();
        assert!(done.answers[0].same_bindings(&oracle), "{text}");
    }
    let sweep = (D * D) as u64;
    assert_eq!(workflows.stats(), stats(1, sweep - 1, 0, sweep));
    assert_eq!(workflows.cached_plans(), D * D - PLAN_MEMO_CAP, "a full memo starts over");
}

/// With the journal on, a request served from a cached plan still
/// finishes with its fingerprint and a grounded prediction, and compiles
/// nothing: `PlanCacheMiss` fires once for the pair.
#[test]
fn journalled_hits_keep_fingerprint_and_prediction() {
    let df = testbed::generate(3);
    let sole = store(&df, 1, &["testbed"]);
    let (workflows, obs) = (WorkflowCache::new(), Obs::enabled());
    indexproj(&sole, &workflows, &obs, LIN);
    indexproj(&sole, &workflows, &obs, LIN);
    assert_eq!(workflows.stats(), stats(1, 1, 1, 1));
    let ParsedQuery::Lineage(q) = parse_query(LIN).unwrap() else { unreachable!() };
    let events = obs.journal.events();
    let misses =
        events.iter().filter(|e| matches!(e.event, JournalEvent::PlanCacheMiss { .. })).count();
    assert_eq!(misses, 1, "only the compile is a miss");
    let finished: Vec<_> = events
        .iter()
        .filter_map(|e| match e.event {
            JournalEvent::QueryFinished { fingerprint, predicted_lookups, drift, .. } => {
                Some((fingerprint, predicted_lookups, drift))
            }
            _ => None,
        })
        .collect();
    assert_eq!(finished.len(), 2);
    assert_eq!(finished[0], finished[1], "the hit is journalled exactly like the compile");
    assert_eq!(finished[1].0, PlanCache::fingerprint(&q));
    assert!(finished[1].1.is_some() && !finished[1].2);
}
