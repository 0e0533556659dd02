//! Golden work counts at paper scale (`l = 75`, `d = 50`, Fig. 6–9).
//!
//! The store's probe accounting (`index_lookups`, `records_read`,
//! `rows_scanned`) and the executors' own (`trace_queries`,
//! `nodes_visited`) are machine-independent and fully determined by the
//! trace, so they are pinned to exact numbers here. A change to the index
//! layout, to how NI and impact walk the provenance graph or to how an
//! INDEXPROJ step reads its bindings must leave every one of them
//! unchanged.

use std::sync::Arc;

use prov_core::{
    parse_query, IndexProj, LineageAnswer, LineageQuery, NaiveImpact, NaiveLineage, ParsedQuery,
};
use prov_dataflow::{BaseType, DataflowBuilder, PortType};
use prov_engine::{BehaviorRegistry, Engine};
use prov_model::{Index, PortRef, ProcessorName, Value};
use prov_store::TraceStore;
use prov_workgen::testbed;

/// `(trace_queries, nodes_visited, index_lookups, records_read,
/// rows_scanned, bindings)` of one execution over one run.
type Work = (usize, usize, u64, u64, u64, usize);

fn measure(
    store: &TraceStore,
    f: impl FnOnce() -> prov_core::Result<LineageAnswer>,
) -> (LineageAnswer, Work) {
    let before = store.stats().snapshot();
    let a = f().unwrap();
    let d = store.stats().snapshot().since(before);
    let (queries, nodes, bindings) = (a.trace_queries, a.nodes_visited, a.bindings.len());
    (a, (queries, nodes, d.index_lookups, d.records_read, d.rows_scanned, bindings))
}

/// The answer's bindings as `processor:port[index]=value`.
fn rendered(a: &LineageAnswer) -> Vec<String> {
    a.bindings.iter().map(|b| format!("{}{}={}", b.port, b.index, b.value)).collect()
}

#[test]
fn ni_impact_and_indexproj_work_counts_are_pinned_at_paper_scale() {
    let df = testbed::generate(75);
    let store = TraceStore::in_memory();
    let runs: Vec<_> = (0..8).map(|_| testbed::run(&df, 50, &store).run_id).collect();

    let mut all = vec!["testbed".to_string(), "LISTGEN_1".into(), "2TO1_FINAL".into()];
    for chain in ["A", "B"] {
        all.extend((1..=75).map(|i| format!("CHAIN_{chain}_{i}")));
    }
    // The ledger's partial focus: both ends plus the first five stages of
    // each chain.
    let mut partial = vec!["LISTGEN_1".to_string(), "2TO1_FINAL".into()];
    for chain in ["A", "B"] {
        partial.extend((1..=5).map(|i| format!("CHAIN_{chain}_{i}")));
    }
    let names = ["focused", "partial", "unfocused"];
    let queries = [
        "{LISTGEN_1}".to_string(),
        format!("{{{}}}", partial.join(",")),
        format!("{{{}}}", all.join(",")),
    ]
    .map(|focus| match parse_query(&format!("lin(<2TO1_FINAL:Y[7,31]>,{focus})")) {
        Ok(ParsedQuery::Lineage(q)) => q,
        other => panic!("{other:?}"),
    });
    let impact = match parse_query("impact(<LISTGEN_1:list[7]>,{2TO1_FINAL})") {
        Ok(ParsedQuery::Impact(q)) => q,
        other => panic!("{other:?}"),
    };
    let ip = IndexProj::new(&df);
    let plans = queries.each_ref().map(|q| ip.plan(q).unwrap());
    // Per query: NI's work, then INDEXPROJ's.
    let want = [
        ((615, 307, 1_842, 610, 0, 1), (1, 154, 2, 2, 0, 1)),
        ((627, 307, 1_878, 610, 0, 13), (13, 154, 38, 222, 0, 13)),
        ((768, 307, 2_300, 612, 0, 154), (154, 154, 460, 504, 0, 154)),
    ];

    // Every run has the same shape, so each must report the same counts.
    let ni = NaiveLineage::new();
    for &run in &runs {
        for (i, name) in names.iter().enumerate() {
            let (by_walk, work) = measure(&store, || ni.run(&store, run, &queries[i]));
            assert_eq!(work, want[i].0, "NI {name}, {run}");
            let (by_plan, work) = measure(&store, || plans[i].execute(&store, run));
            assert_eq!(work, want[i].1, "INDEXPROJ {name}, {run}");
            assert!(by_plan.same_bindings(&by_walk), "INDEXPROJ ≢ NI {name}, {run}");
        }
        let (_, work) = measure(&store, || NaiveImpact::new().run(&store, run, &impact));
        assert_eq!(work, (1_002, 501, 3_402, 1_002, 0, 101), "impact, {run}");
        // The workflow's own input exists in the trace only as an xfer
        // source: NI collects it through its scope-input case.
        let lineage = rendered(&ni.run(&store, run, &queries[2]).unwrap());
        let scope: Vec<&String> = lineage.iter().filter(|b| b.starts_with("testbed:")).collect();
        assert_eq!(scope, ["testbed:ListSize[]=50"], "NI scope input, {run}");
    }

    // NI shares nothing between runs: a sweep over all eight costs eight
    // traversals. INDEXPROJ shares its plan, so a sweep costs eight
    // executions of its steps and nothing more.
    let sweep = |f: &dyn Fn() -> prov_core::Result<Vec<LineageAnswer>>| {
        let before = store.stats().snapshot();
        let answers = f().unwrap();
        let d = store.stats().snapshot().since(before);
        let bindings: usize = answers.iter().map(|a| a.bindings.len()).sum();
        (answers.len(), d.index_lookups, d.records_read, d.rows_scanned, bindings)
    };
    let work = sweep(&|| ni.run_multi(&store, &runs, &queries[0]));
    assert_eq!(work, (8, 14_736, 4_880, 0, 8), "NI run_multi");
    let work = sweep(&|| plans[2].execute_multi(&store, &runs));
    assert_eq!(work, (8, 3_680, 4_032, 0, 1_232), "INDEXPROJ execute_multi");
}

/// NI's scope-input case on a nested workflow: `sub:a` is fed by an xfer
/// and forwards into `sub/T`, so NI finds it by its outgoing transfers;
/// `outer:xs` is a true source. INDEXPROJ reads both through `XferSrc`
/// steps.
#[test]
fn scope_port_bindings_and_their_cost_are_pinned() {
    let (atom, list) = (PortType::atom(BaseType::String), PortType::list(BaseType::String));
    let mut inner = DataflowBuilder::new("inner");
    inner.input("a", list);
    inner.processor_with_behavior("T", "identity").in_port("x", atom).out_port("y", atom);
    inner.arc_from_input("a", "T", "x").unwrap();
    inner.output("b", list);
    inner.arc_to_output("T", "y", "b").unwrap();
    let mut outer = DataflowBuilder::new("outer");
    outer.input("xs", list);
    outer.nested("sub", Arc::new(inner.build().unwrap()));
    outer.arc_from_input("xs", "sub", "a").unwrap();
    outer.output("ys", list);
    outer.arc_to_output("sub", "b", "ys").unwrap();
    let df = outer.build().unwrap();
    let store = TraceStore::in_memory();
    let inputs = vec![("xs".into(), Value::from(vec!["u", "v", "w"]))];
    let engine = Engine::new(BehaviorRegistry::new().with_builtins());
    let run = engine.execute(&df, inputs, &store).unwrap().run_id;

    let focus = ["sub", "outer"].map(ProcessorName::from);
    let q = LineageQuery::focused(PortRef::new("outer", "ys"), Index::empty(), focus);
    let (by_walk, work) = measure(&store, || NaiveLineage::new().run(&store, run, &q));
    assert_eq!(work, (45, 16, 132, 51, 0, 6), "NI");
    let want =
        r#"outer:xs[0]="u" outer:xs[1]="v" outer:xs[2]="w" sub:a[0]="u" sub:a[1]="v" sub:a[2]="w""#;
    assert_eq!(rendered(&by_walk).join(" "), want);
    let plan = IndexProj::new(&df).plan(&q).unwrap();
    let (by_plan, work) = measure(&store, || plan.execute(&store, run));
    assert_eq!(work, (2, 4, 4, 6, 0, 6), "INDEXPROJ");
    assert!(by_plan.same_bindings(&by_walk), "INDEXPROJ ≢ NI");
}
