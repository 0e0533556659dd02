//! The operations side of a provenance system: execution reports,
//! trace auditing, composite views, run differencing, and value search.
//!
//! ```sh
//! cargo run --example audit_and_diff
//! ```

use prov_core::{audit_run, diff_lineage, diff_traces, parse_lineage};
use prov_dataflow::CompositeView;
use prov_engine::ReportingSink;
use prov_workgen::testbed;
use taverna_prov::prelude::*;

fn main() {
    let wf = testbed::generate(5);
    let store = TraceStore::in_memory();

    // Run twice with different list sizes, reporting execution work.
    let reporting = ReportingSink::new(&store);
    let engine = Engine::new(testbed::registry());
    let run_a =
        engine.execute(&wf, vec![("ListSize".into(), Value::int(3))], &reporting).unwrap().run_id;
    let run_b =
        engine.execute(&wf, vec![("ListSize".into(), Value::int(5))], &reporting).unwrap().run_id;
    println!("execution report (both runs):\n{}", reporting.report());

    // Audit both traces against the specification (Prop. 1 et al.).
    for run in [run_a, run_b] {
        print!("audit {}", audit_run(&wf, &store, run).unwrap());
    }

    // A composite view groups each chain into one virtual stage.
    let view = CompositeView::new()
        .group("chain_A", (1..=5).map(|i| ProcessorName::from(format!("CHAIN_A_{i}").as_str())))
        .group("chain_B", (1..=5).map(|i| ProcessorName::from(format!("CHAIN_B_{i}").as_str())));
    view.validate(&wf).unwrap();
    println!("\ncondensed view:\n{}", view.to_dot(&wf));

    // A lineage query written in the paper's notation, focused on a
    // composite: the view expands it to the member processors.
    let q = parse_lineage("lin(⟨2TO1_FINAL:Y[1,2]⟩, {chain_A})").unwrap();
    let q = LineageQuery::focused(q.target, q.index, view.expand_focus(q.focus.iter().cloned()));
    let ans = IndexProj::new(&wf).run(&store, run_b, &q).unwrap();
    println!("lineage at the chain_A composite: {} bindings", ans.bindings.len());
    for b in ans.bindings.iter().take(3) {
        println!("  {b}");
    }

    // Differencing the two runs (§3.4): same plan, both traces.
    let q = testbed::focused_query(&[1, 2]);
    let diff = diff_lineage(&wf, &store, run_a, run_b, &q).unwrap();
    println!("\nlineage diff:\n{diff}");
    let tdiff = diff_traces(&store, run_a, run_b);
    println!("divergent processors: {}", tdiff.divergent().len());

    // Value search: where did "item-2" flow?
    let hits = store.pin(run_b).bindings_with_value(&Value::str("item-2"));
    println!("\n\"item-2\" appears in {} bindings of {}", hits.len(), run_b);
}
