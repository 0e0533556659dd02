//! Property tests for the static cost model behind `tprov explain`:
//! over randomly drawn prov-workgen workloads and queries, the predicted
//! `rows_scanned` for a covered (servable) plan is an **upper bound** on
//! the store's observed counters and stays within a 10× factor of them,
//! and the predicted `index_lookups` match the observed count **exactly**
//! (the lookup model is structural: `|p| + 2` B-tree descents per step).

use proptest::prelude::*;

use prov_workgen::{imaging, testbed};
use taverna_prov::prelude::*;

/// Runs one workload + query case through a grounded `explain_with` and the real
/// executor, and checks the prediction contract at tolerance 10×.
fn assert_prediction_holds(
    df: &prov_dataflow::Dataflow,
    store: &TraceStore,
    run: RunId,
    q: &LineageQuery,
    label: &str,
) {
    let ip = IndexProj::new(df);
    let ex = ip
        .explain_with(q, &store.index_catalog(), Some(&store.pin(run)), &Obs::disabled())
        .unwrap_or_else(|e| panic!("{label}: explain failed: {e}"));
    assert!(ex.is_servable(), "{label}: full catalog must serve every plan");
    assert!(ex.cost.grounded, "{label}: live-store explanations are grounded");

    let before = store.stats().snapshot();
    ex.plan.execute(store, run).unwrap_or_else(|e| panic!("{label}: execute failed: {e}"));
    let delta = store.stats().snapshot().since(before);
    let actual_rows = delta.records_read + delta.rows_scanned;

    assert_eq!(ex.cost.index_lookups, delta.index_lookups, "{label}: lookup prediction is exact");
    assert!(
        ex.cost.rows_scanned >= actual_rows,
        "{label}: predicted {} rows must bound actual {actual_rows}",
        ex.cost.rows_scanned,
    );
    let chk = ex.cost.check(delta.index_lookups, actual_rows, 10.0);
    assert!(
        chk.ok,
        "{label}: predicted {} rows not within 10x of actual {}",
        chk.predicted_rows, chk.actual_rows
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The §4.1 testbed at random size, probed at every granularity: the
    /// exact depth-2 element, a depth-1 span, and the whole collection.
    #[test]
    fn testbed_predictions_bound_observed_cost(
        l in 1usize..=3,
        d in 2usize..=4,
        i in 0u32..4,
        j in 0u32..4,
        probe_len in 0usize..=2,
        focus_listgen in any::<bool>(),
    ) {
        let df = testbed::generate(l);
        let store = TraceStore::in_memory();
        let run = testbed::run(&df, d, &store).run_id;

        let p = [i % d as u32, j % d as u32];
        let focus = if focus_listgen {
            ProcessorName::from("LISTGEN_1")
        } else {
            ProcessorName::from(format!("CHAIN_A_{l}").as_str())
        };
        let q = LineageQuery::focused(
            PortRef::new("2TO1_FINAL", "Y"),
            Index::from_slice(&p[..probe_len]),
            [focus],
        );
        let label = format!("testbed l={l} d={d} probe={:?}", &p[..probe_len]);
        assert_prediction_holds(&df, &store, run, &q, &label);
    }

    /// The tiled-imaging pipeline (byte payloads): queries over the final
    /// output, focused on a single tile or spanning the whole collection.
    #[test]
    fn imaging_predictions_bound_observed_cost(
        tiles in 2usize..=4,
        seed in 0u64..1000,
        probe in 0u32..4,
        focused in any::<bool>(),
    ) {
        let df = imaging::imaging_workflow();
        let store = TraceStore::in_memory();
        let image = imaging::sample_image(64, seed);
        let run = imaging::run_imaging(&df, image, tiles, &store).run_id;

        let out: &str = &df.outputs[0].name;
        let index =
            if focused { Index::single(probe % tiles as u32) } else { Index::empty() };
        let q = LineageQuery::focused(
            PortRef::new(df.name.as_str(), out),
            index,
            [ProcessorName::from(df.name.as_str())],
        );
        let label = format!("imaging tiles={tiles} seed={seed} focused={focused}");
        assert_prediction_holds(&df, &store, run, &q, &label);
    }
}
