//! Parallel execution end-to-end: the trace recorded under the parallel
//! scheduler must answer lineage queries identically to the sequential
//! one (schedule independence of provenance, §2.1's pure dataflow model).
//! Plus: plan-step spans account for every answered binding.

use std::collections::BTreeMap;

use proptest::prelude::*;
use prov_engine::ExecutionMode;
use prov_workgen::testbed;
use taverna_prov::prelude::*;

#[test]
fn parallel_testbed_run_supports_identical_lineage_answers() {
    let df = testbed::generate(10);

    let seq_store = TraceStore::in_memory();
    let seq = Engine::new(testbed::registry())
        .execute(&df, vec![("ListSize".into(), Value::int(6))], &seq_store)
        .unwrap();

    let par_store = TraceStore::in_memory();
    let par = Engine::new(testbed::registry())
        .with_mode(ExecutionMode::Parallel)
        .execute(&df, vec![("ListSize".into(), Value::int(6))], &par_store)
        .unwrap();

    assert_eq!(seq.outputs, par.outputs);
    assert_eq!(seq_store.trace_record_count(seq.run_id), par_store.trace_record_count(par.run_id));

    // Same lineage answers from both traces, via both algorithms.
    for idx in [[0u32, 0], [3, 5], [5, 2]] {
        let q = testbed::focused_query(&idx);
        let a = IndexProj::new(&df).run(&seq_store, seq.run_id, &q).unwrap();
        let b = IndexProj::new(&df).run(&par_store, par.run_id, &q).unwrap();
        assert!(a.same_bindings(&b), "indexproj diverged at {idx:?}");
        let a = NaiveLineage::new().run(&seq_store, seq.run_id, &q).unwrap();
        let b = NaiveLineage::new().run(&par_store, par.run_id, &q).unwrap();
        assert!(a.same_bindings(&b), "ni diverged at {idx:?}");
    }

    // Parallel traces audit clean too.
    assert!(prov_core::audit_run(&df, &par_store, par.run_id).unwrap().is_clean());
}

#[test]
fn parallel_mode_handles_nested_workflows() {
    use std::sync::Arc;
    let mut inner = DataflowBuilder::new("inner");
    inner.input("a", PortType::atom(BaseType::String));
    inner
        .processor_with_behavior("T", "string_upper")
        .in_port("x", PortType::atom(BaseType::String))
        .out_port("y", PortType::atom(BaseType::String));
    inner.arc_from_input("a", "T", "x").unwrap();
    inner.output("b", PortType::atom(BaseType::String));
    inner.arc_to_output("T", "y", "b").unwrap();
    let inner = Arc::new(inner.build().unwrap());

    let mut outer = DataflowBuilder::new("outer");
    outer.input("xs", PortType::list(BaseType::String));
    outer.nested("sub", inner);
    outer.arc_from_input("xs", "sub", "a").unwrap();
    outer.output("ys", PortType::list(BaseType::String));
    outer.arc_to_output("sub", "b", "ys").unwrap();
    let df = outer.build().unwrap();

    let store = TraceStore::in_memory();
    let run = Engine::new(BehaviorRegistry::new().with_builtins())
        .with_mode(ExecutionMode::Parallel)
        .execute(&df, vec![("xs".into(), Value::from(vec!["a", "b", "c"]))], &store)
        .unwrap();
    assert_eq!(run.output("ys"), Some(&Value::from(vec!["A", "B", "C"])));

    let q = LineageQuery::focused(
        PortRef::new("outer", "ys"),
        Index::single(2),
        [ProcessorName::from("outer")],
    );
    let ni = NaiveLineage::new().run(&store, run.run_id, &q).unwrap();
    let ip = IndexProj::new(&df).run(&store, run.run_id, &q).unwrap();
    assert!(ni.same_bindings(&ip));
    assert_eq!(ni.bindings.len(), 1);
    assert_eq!(ni.bindings[0].value, Value::str("c"));
}

/// Per-span-name `(count, Σ rows-arg)` totals of a profiler.
fn span_totals(profiler: &Profiler) -> BTreeMap<String, (u64, u64)> {
    let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for s in profiler.spans() {
        let rows: u64 = s.args.iter().filter(|(k, _)| *k == "rows").map(|(_, v)| *v).sum();
        let e = totals.entry(s.name.to_string()).or_insert((0, 0));
        e.0 += 1;
        e.1 += rows;
    }
    totals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// An unfocused plan over a testbed trace: one `indexproj.step` span
    /// is recorded per plan step and their `rows` arguments account for
    /// every returned binding exactly once.
    #[test]
    fn plan_steps_account_all_rows(l in 1usize..12, d in 2usize..4) {
        let df = testbed::generate(l);
        let store = TraceStore::in_memory();
        let run = testbed::run(&df, d, &store).run_id;
        let query = testbed::unfocused_query(&df, &[0, d as u32 - 1]);

        let obs = Obs::enabled();
        let plan = IndexProj::new(&df).plan_with(&query, &obs).unwrap();
        let answer = plan.execute_pinned(&store.pin(run), &obs, &QueryCtx::new("q")).unwrap();

        let totals = span_totals(&obs.profiler);
        let (step_count, step_rows) = totals["indexproj.step"];
        prop_assert_eq!(step_count, plan.steps.len() as u64);
        prop_assert_eq!(step_rows, answer.bindings.len() as u64);
        prop_assert_eq!(totals["indexproj.plan"].0, 1);
        prop_assert_eq!(totals["indexproj.assemble"].0, 1);
    }
}
