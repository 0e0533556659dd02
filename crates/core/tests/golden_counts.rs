//! Golden work counts at paper scale (`l = 75`, `d = 50`, Fig. 6–9).
//!
//! The store's probe accounting (`index_lookups`, `records_read`) and the
//! executors' own (`trace_queries`, `nodes_visited`) are machine-independent
//! and fully determined by the trace, so they are pinned to exact numbers
//! here. A change to the index layout or to how NI and impact walk the
//! provenance graph must leave every one of them unchanged.

use prov_core::{parse_query, IndexProj, LineageAnswer, NaiveImpact, NaiveLineage, ParsedQuery};
use prov_store::TraceStore;
use prov_workgen::testbed;

/// `(trace_queries, nodes_visited, index_lookups, records_read, bindings)`
/// of one execution over one run.
type Work = (usize, usize, u64, u64, usize);

fn measure(
    store: &TraceStore,
    f: impl FnOnce() -> prov_core::Result<LineageAnswer>,
) -> (LineageAnswer, Work) {
    let before = store.stats().snapshot();
    let a = f().unwrap();
    let after = store.stats().snapshot();
    let lookups = after.index_lookups - before.index_lookups;
    let records = after.records_read - before.records_read;
    let work = (a.trace_queries, a.nodes_visited, lookups, records, a.bindings.len());
    (a, work)
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
    let [focused, unfocused, partial] = [
        "{LISTGEN_1}".to_string(),
        format!("{{{}}}", all.join(",")),
        format!("{{{}}}", partial.join(",")),
    ]
    .map(|focus| match parse_query(&format!("lin(<2TO1_FINAL:Y[7,31]>,{focus})")) {
        Ok(ParsedQuery::Lineage(q)) => q,
        other => panic!("{other:?}"),
    });
    let impact = match parse_query("impact(<LISTGEN_1:list[7]>,{2TO1_FINAL})") {
        Ok(ParsedQuery::Impact(q)) => q,
        other => panic!("{other:?}"),
    };
    let plan = IndexProj::new(&df).plan(&unfocused).unwrap();

    // Every run has the same shape, so each must report the same counts.
    for &run in &runs {
        let ni = NaiveLineage::new();
        let (_, work) = measure(&store, || ni.run(&store, run, &focused));
        assert_eq!(work, (615, 307, 1_842, 610, 1), "NI focused, {run}");
        let (_, work) = measure(&store, || NaiveImpact::new().run(&store, run, &impact));
        assert_eq!(work, (1_002, 501, 3_402, 1_002, 101), "impact, {run}");
        let (_, work) = measure(&store, || ni.run(&store, run, &partial));
        assert_eq!(work, (627, 307, 1_878, 610, 13), "NI partial, {run}");
        let (by_walk, work) = measure(&store, || ni.run(&store, run, &unfocused));
        assert_eq!(work, (768, 307, 2_300, 612, 154), "NI unfocused, {run}");
        let (by_plan, (.., lookups, records, bindings)) =
            measure(&store, || plan.execute(&store, run));
        assert_eq!((lookups, records, bindings), (460, 504, 154), "INDEXPROJ unfocused, {run}");
        assert_eq!(by_plan.bindings, by_walk.bindings, "INDEXPROJ ≢ NI unfocused, {run}");
    }

    // NI shares nothing between runs: a sweep over all eight costs eight
    // traversals.
    let before = store.stats().snapshot();
    let answers = NaiveLineage::new().run_multi(&store, &runs, &focused).unwrap();
    let after = store.stats().snapshot();
    let lookups = after.index_lookups - before.index_lookups;
    let records = after.records_read - before.records_read;
    assert_eq!((answers.len(), lookups, records), (8, 14_736, 4_880), "NI run_multi");
}
