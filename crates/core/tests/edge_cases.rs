//! Edge cases of the query algorithms: fan-out/fan-in graph shapes,
//! default-valued ports, intermediate-port targets, and degenerate runs.

use prov_core::{IndexProj, LineageQuery, NaiveLineage, StepKind};
use prov_dataflow::{BaseType, Dataflow, DataflowBuilder, PortType};
use prov_engine::{builtin, BehaviorRegistry, Engine};
use prov_model::{Index, PortRef, ProcessorName, RunId, Value};
use prov_store::TraceStore;

fn registry() -> BehaviorRegistry {
    let mut r = BehaviorRegistry::new().with_builtins();
    r.register("t1", builtin::tagger("-1"));
    r.register("t2", builtin::tagger("-2"));
    r.register_fn("pair", |inputs| {
        let a = builtin::expect_str(&inputs[0])?;
        let b = builtin::expect_str(&inputs[1])?;
        Ok(vec![Value::str(&format!("{a}+{b}"))])
    });
    r
}

/// in → S → (L, R) → J: a diamond where both branches share one source.
fn diamond() -> Dataflow {
    let mut b = DataflowBuilder::new("wf");
    b.input("in", PortType::list(BaseType::String));
    b.processor_with_behavior("S", "identity")
        .in_port("x", PortType::atom(BaseType::String))
        .out_port("y", PortType::atom(BaseType::String));
    b.processor_with_behavior("L", "t1")
        .in_port("x", PortType::atom(BaseType::String))
        .out_port("y", PortType::atom(BaseType::String));
    b.processor_with_behavior("R", "t2")
        .in_port("x", PortType::atom(BaseType::String))
        .out_port("y", PortType::atom(BaseType::String));
    b.processor_with_behavior("J", "pair")
        .in_port("a", PortType::atom(BaseType::String))
        .in_port("b", PortType::atom(BaseType::String))
        .out_port("z", PortType::atom(BaseType::String));
    b.arc_from_input("in", "S", "x").unwrap();
    b.arc("S", "y", "L", "x").unwrap();
    b.arc("S", "y", "R", "x").unwrap();
    b.arc("L", "y", "J", "a").unwrap();
    b.arc("R", "y", "J", "b").unwrap();
    b.output("out", PortType::nested(BaseType::String, 2));
    b.arc_to_output("J", "z", "out").unwrap();
    b.build().unwrap()
}

fn execute(df: &Dataflow, inputs: Vec<(String, Value)>) -> (TraceStore, RunId) {
    let store = TraceStore::in_memory();
    let run = Engine::new(registry()).execute(df, inputs, &store).unwrap().run_id;
    (store, run)
}

#[test]
fn diamond_lineage_dedups_the_shared_source() {
    let df = diamond();
    let (store, run) = execute(&df, vec![("in".into(), Value::from(vec!["u", "v"]))]);
    // Focus on S: the traversal reaches S twice (via L and via R) but the
    // plan must contain each Q lookup once.
    let q = LineageQuery::focused(
        PortRef::new("wf", "out"),
        Index::from_slice(&[1, 1]),
        [ProcessorName::from("S")],
    );
    let plan = IndexProj::new(&df).plan(&q).unwrap();
    assert_eq!(plan.steps.len(), 1);
    let ni = NaiveLineage::new().run(&store, run, &q).unwrap();
    let ip = plan.execute(&store, run).unwrap();
    assert!(ni.same_bindings(&ip));
    assert_eq!(ip.bindings.len(), 1);
    assert_eq!(ip.bindings[0].value, Value::str("v"));
}

#[test]
fn diamond_join_mixes_indices_from_both_branches() {
    let df = diamond();
    let (store, run) = execute(&df, vec![("in".into(), Value::from(vec!["u", "v", "w"]))]);
    // out[i][j] = L(in[i]) + R(in[j]); focus on the workflow input.
    let q = LineageQuery::focused(
        PortRef::new("wf", "out"),
        Index::from_slice(&[0, 2]),
        [ProcessorName::from("wf")],
    );
    let ni = NaiveLineage::new().run(&store, run, &q).unwrap();
    let ip = IndexProj::new(&df).run(&store, run, &q).unwrap();
    assert!(ni.same_bindings(&ip));
    let mut values: Vec<&Value> = ni.bindings.iter().map(|b| &b.value).collect();
    values.sort_by_key(|v| v.to_string());
    assert_eq!(values, vec![&Value::str("u"), &Value::str("w")]);
}

#[test]
fn default_valued_port_appears_in_lineage_of_its_processor() {
    let mut b = DataflowBuilder::new("wf");
    b.input("a", PortType::list(BaseType::String));
    b.processor_with_behavior("J", "pair")
        .in_port("x", PortType::atom(BaseType::String))
        .in_port_with_default("y", PortType::atom(BaseType::String), Value::str("cfg"))
        .out_port("z", PortType::atom(BaseType::String));
    b.arc_from_input("a", "J", "x").unwrap();
    b.output("out", PortType::list(BaseType::String));
    b.arc_to_output("J", "z", "out").unwrap();
    let df = b.build().unwrap();
    let (store, run) = execute(&df, vec![("a".into(), Value::from(vec!["p", "q"]))]);

    let q = LineageQuery::focused(
        PortRef::new("wf", "out"),
        Index::single(0),
        [ProcessorName::from("J")],
    );
    let ni = NaiveLineage::new().run(&store, run, &q).unwrap();
    let ip = IndexProj::new(&df).run(&store, run, &q).unwrap();
    assert!(ni.same_bindings(&ip));
    // Both the consumed element and the design-time default are bindings.
    assert!(ni.bindings.iter().any(|b| b.value == Value::str("p")));
    assert!(ni.bindings.iter().any(|b| b.value == Value::str("cfg")));
}

#[test]
fn intermediate_processor_output_is_a_valid_target() {
    let df = diamond();
    let (store, run) = execute(&df, vec![("in".into(), Value::from(vec!["u", "v"]))]);
    // Target L:y (not a workflow output).
    let q = LineageQuery::focused(
        PortRef::new("L", "y"),
        Index::single(1),
        [ProcessorName::from("wf")],
    );
    let ni = NaiveLineage::new().run(&store, run, &q).unwrap();
    let ip = IndexProj::new(&df).run(&store, run, &q).unwrap();
    assert!(ni.same_bindings(&ip));
    assert_eq!(ni.bindings.len(), 1);
    assert_eq!(ni.bindings[0].port, PortRef::new("wf", "in"));
    assert_eq!(ni.bindings[0].index, Index::single(1));
}

#[test]
fn out_of_range_index_yields_empty_answers_from_both() {
    let df = diamond();
    let (store, run) = execute(&df, vec![("in".into(), Value::from(vec!["u"]))]);
    let q = LineageQuery::focused(
        PortRef::new("wf", "out"),
        Index::from_slice(&[7, 7]), // nothing was produced there
        [ProcessorName::from("wf")],
    );
    let ni = NaiveLineage::new().run(&store, run, &q).unwrap();
    let ip = IndexProj::new(&df).run(&store, run, &q).unwrap();
    assert!(ni.same_bindings(&ip));
    assert!(ni.bindings.is_empty());
}

#[test]
fn plan_steps_expose_their_kinds() {
    let df = diamond();
    let q = LineageQuery::unfocused(PortRef::new("wf", "out"), Index::empty(), &df);
    let plan = IndexProj::new(&df).plan(&q).unwrap();
    assert!(plan.steps.iter().any(|s| s.kind == StepKind::XformInput));
    assert!(plan.steps.iter().any(|s| s.kind == StepKind::XferSrc));
    // Serialisable for tooling.
    let json = serde_json::to_string(&plan).unwrap();
    assert!(json.contains("XferSrc"));
}

/// A 9-deep list of strings, branching in two at its first and last
/// levels: leaf `[i,0,…,0,j]` is `"v{i}{j}"`.
fn nine_deep() -> Value {
    let mut levels: Vec<Value> = (0..2)
        .map(|i| Value::List((0..2).map(|j| Value::str(&format!("v{i}{j}"))).collect()))
        .collect();
    for _ in 0..7 {
        levels = levels.into_iter().map(|v| Value::List(vec![v])).collect();
    }
    Value::List(levels)
}

#[test]
fn nine_deep_iteration_spills_its_keys_and_ni_matches_indexproj() {
    // in → L → R → out, each processor iterating over all nine levels, so
    // every stored element index (nine components) spills its packed key.
    let mut b = DataflowBuilder::new("wf");
    b.input("in", PortType::nested(BaseType::String, 9));
    for (name, behavior) in [("L", "t1"), ("R", "t2")] {
        b.processor_with_behavior(name, behavior)
            .in_port("x", PortType::atom(BaseType::String))
            .out_port("y", PortType::atom(BaseType::String));
    }
    b.arc_from_input("in", "L", "x").unwrap();
    b.arc("L", "y", "R", "x").unwrap();
    b.output("out", PortType::nested(BaseType::String, 9));
    b.arc_to_output("R", "y", "out").unwrap();
    let df = b.build().unwrap();
    let (store, run) = execute(&df, vec![("in".into(), nine_deep())]);

    let out = PortRef::new("wf", "out");
    let deep = |i: u32, j: u32| Index::from_slice(&[i, 0, 0, 0, 0, 0, 0, 0, j]);
    let focus = |names: &[&str]| names.iter().map(|&n| ProcessorName::from(n)).collect::<Vec<_>>();
    let cases = [
        // Focused, on a leaf: L's one consumed element.
        (
            LineageQuery::focused(out.clone(), deep(1, 1), focus(&["L"])),
            vec!["L:x[1,0,0,0,0,0,0,0,1]=\"v11\""],
        ),
        // Partial: a 4-deep prefix addresses a sub-list of two leaves.
        (
            LineageQuery::focused(out.clone(), Index::from_slice(&[0, 0, 0, 0]), focus(&["wf"])),
            vec!["wf:in[0,0,0,0,0,0,0,0,0]=\"v00\"", "wf:in[0,0,0,0,0,0,0,0,1]=\"v01\""],
        ),
        // Unfocused, on a leaf: every processor and the workflow input.
        (
            LineageQuery::unfocused(out.clone(), deep(0, 1), &df),
            vec![
                "R:x[0,0,0,0,0,0,0,0,1]=\"v01-1\"",
                "L:x[0,0,0,0,0,0,0,0,1]=\"v01\"",
                "wf:in[0,0,0,0,0,0,0,0,1]=\"v01\"",
            ],
        ),
    ];
    for (q, want) in cases {
        let ni = NaiveLineage::new().run(&store, run, &q).unwrap();
        let ip = IndexProj::new(&df).run(&store, run, &q).unwrap();
        assert!(ni.same_bindings(&ip), "{q:?}");
        let mut got: Vec<String> =
            ni.bindings.iter().map(|b| format!("{}{}={}", b.port, b.index, b.value)).collect();
        let mut by_ip: Vec<String> =
            ip.bindings.iter().map(|b| format!("{}{}={}", b.port, b.index, b.value)).collect();
        got.sort();
        by_ip.sort();
        let mut want: Vec<String> = want.into_iter().map(String::from).collect();
        want.sort();
        assert_eq!(got, want, "NI {q:?}");
        assert_eq!(by_ip, want, "INDEXPROJ {q:?}");
    }
}
