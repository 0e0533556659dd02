//! Property test for the event journal's attribution contract: the typed
//! event stream reassembles into per-query totals that agree exactly with
//! (a) each query's own `QueryFinished` summary and (b) the store's
//! aggregate counters — no matter how many callers query one store and
//! one journal at the same time, as daemon sessions do. This is what makes
//! `tprov tail`/`tprov slow` trustworthy: counters never leak between
//! concurrent queries.
//! Plus: plan-step spans account for every answered binding.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;

use prov_obs::{Journal, JournalEvent, Obs, QueryCtx};
use prov_workgen::testbed;
use taverna_prov::prelude::*;

/// Probe totals reassembled from journal events.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Totals {
    index_lookups: u64,
    records_read: u64,
    rows_scanned: u64,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Testbed workloads at random size, queried by INDEXPROJ with the
    /// journal on, from 1–4 caller threads at once. For every trace id:
    /// Σ `PlanStep` counters == the `QueryFinished` totals; and across
    /// all traces the journal accounts for the store's whole counter
    /// delta — per-query attribution loses and invents nothing.
    #[test]
    fn journal_events_reassemble_into_store_counters(
        l in 2usize..=3,
        d in 2usize..=4,
        callers in 1usize..=4,
        n_runs in 1usize..=5,
    ) {
        let df = testbed::generate(l);
        let store = TraceStore::in_memory();
        let runs: Vec<RunId> = (0..n_runs).map(|_| testbed::run(&df, d, &store).run_id).collect();

        let journal = Journal::new(1 << 16);
        store.attach_journal(&journal);
        let obs = Obs::disabled().with_journal(journal.clone());
        let ip = IndexProj::new(&df);

        // Four distinct point queries, each under its own trace id, dealt
        // round-robin to the callers; every caller sweeps all runs.
        let queries: Vec<(LineageQuery, QueryCtx)> = [(0u32, 0u32), (0, 1), (1, 0), (1, 1)]
            .into_iter()
            .map(|(i, j)| {
                let q = LineageQuery::focused(
                    PortRef::new("testbed", "product"),
                    Index::from(vec![i, j]),
                    [ProcessorName::from("LISTGEN_1")],
                );
                let raw = format!("lin(<testbed:product[{i},{j}]>, {{LISTGEN_1}})");
                let ctx = QueryCtx::new(raw).with_fingerprint(PlanCache::fingerprint(&q));
                (q, ctx)
            })
            .collect();
        let wanted: Vec<_> = queries.iter().map(|(_, ctx)| ctx.trace).collect();
        let before = store.stats().snapshot();
        let gate = std::sync::Barrier::new(callers);
        std::thread::scope(|s| {
            for caller in 0..callers {
                let (ip, queries, store, runs, obs, gate) =
                    (&ip, &queries, &store, &runs, &obs, &gate);
                s.spawn(move || {
                    gate.wait();
                    for (q, ctx) in queries.iter().skip(caller).step_by(callers) {
                        let plan = ip.plan(q).unwrap();
                        plan.execute_multi_ctx(store, runs, obs, ctx).unwrap();
                    }
                });
            }
        });
        let delta = store.stats().snapshot().since(before);

        let events = journal.drain();
        prop_assert_eq!(journal.dropped(), 0, "ring must not overflow in this workload");

        let mut step_totals: HashMap<u64, Totals> = HashMap::new();
        let mut finished_totals: HashMap<u64, Totals> = HashMap::new();
        for e in &events {
            match &e.event {
                JournalEvent::PlanStep {
                    trace, index_lookups, records_read, rows_scanned, ..
                } => {
                    let t = step_totals.entry(trace.0).or_default();
                    t.index_lookups += index_lookups;
                    t.records_read += records_read;
                    t.rows_scanned += rows_scanned;
                }
                JournalEvent::QueryFinished {
                    trace, index_lookups, records_read, rows_scanned, ..
                } => {
                    let t = finished_totals.entry(trace.0).or_default();
                    t.index_lookups += index_lookups;
                    t.records_read += records_read;
                    t.rows_scanned += rows_scanned;
                }
                _ => {}
            }
        }

        // Every query journalled, and only the queries we issued.
        let mut traces: Vec<u64> = finished_totals.keys().copied().collect();
        traces.sort_unstable();
        let mut expected: Vec<u64> = wanted.iter().map(|t| t.0).collect();
        expected.sort_unstable();
        prop_assert_eq!(traces, expected);

        // (a) Per-trace: step events reassemble into the finished totals.
        for (trace, fin) in &finished_totals {
            let steps = step_totals.get(trace).copied().unwrap_or_default();
            prop_assert_eq!(steps, *fin, "trace {} steps vs finished", trace);
        }

        // (b) Across traces: the journal accounts for the store's whole
        // counter movement during the queries.
        let sum = finished_totals.values().fold(Totals::default(), |a, t| Totals {
            index_lookups: a.index_lookups + t.index_lookups,
            records_read: a.records_read + t.records_read,
            rows_scanned: a.rows_scanned + t.rows_scanned,
        });
        prop_assert_eq!(sum.index_lookups, delta.index_lookups);
        prop_assert_eq!(sum.records_read, delta.records_read);
        prop_assert_eq!(sum.rows_scanned, delta.rows_scanned);
    }
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
