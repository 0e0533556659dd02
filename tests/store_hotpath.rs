//! Hot-path overhaul, end to end: batched ingest must be observationally
//! equivalent to event-at-a-time ingest through the whole pipeline, run
//! scans must stay proportional to the run (not the heap), plan caching
//! must absorb repeated queries, and a multi-run execution must answer
//! exactly like executing the plan run by run.

use std::sync::Mutex;

use proptest::prelude::*;
use prov_engine::{TraceEvent, TraceSink, XferEvent, XformEvent};
use prov_workgen::testbed;
use taverna_prov::prelude::*;

/// Forwards every event of a batch individually — the pre-overhaul ingest
/// shape, used as the reference side of the equivalence tests.
struct Unbatched<'a>(&'a TraceStore);

impl TraceSink for Unbatched<'_> {
    fn begin_run(&self, workflow: &ProcessorName) -> RunId {
        self.0.begin_run(workflow)
    }
    fn record_xform(&self, run: RunId, event: XformEvent) {
        self.0.record_xform(run, event);
    }
    fn record_xfer(&self, run: RunId, event: XferEvent) {
        self.0.record_xfer(run, event);
    }
    fn record_batch(&self, run: RunId, events: Vec<TraceEvent>) {
        for event in events {
            match event {
                TraceEvent::Xform(e) => self.0.record_xform(run, e),
                TraceEvent::Xfer(e) => self.0.record_xfer(run, e),
            }
        }
    }
    fn finish_run(&self, run: RunId) {
        self.0.finish_run(run);
    }
}

#[test]
fn batched_ingest_answers_queries_identically_to_event_at_a_time() {
    let df = testbed::generate(6);

    // Same testbed run, once with the engine's natural batches going
    // straight into the store, once unbatched event by event.
    let batched_store = TraceStore::in_memory();
    let batched_run = testbed::run(&df, 4, &batched_store).run_id;
    let unbatched_store = TraceStore::in_memory();
    let unbatched_run = testbed::run(&df, 4, &Unbatched(&unbatched_store)).run_id;

    assert_eq!(
        batched_store.trace_record_count(batched_run),
        unbatched_store.trace_record_count(unbatched_run)
    );

    for idx in [[0u32, 0], [1, 3], [3, 2]] {
        let q = testbed::focused_query(&idx);

        let ni_b = NaiveLineage::new().run(&batched_store, batched_run, &q).unwrap();
        let ni_u = NaiveLineage::new().run(&unbatched_store, unbatched_run, &q).unwrap();
        assert!(ni_b.same_bindings(&ni_u), "NI answers diverge at {idx:?}");

        let before_b = batched_store.stats().snapshot();
        let ip_b = IndexProj::new(&df).run(&batched_store, batched_run, &q).unwrap();
        let work_b = batched_store.stats().snapshot().since(before_b);
        let before_u = unbatched_store.stats().snapshot();
        let ip_u = IndexProj::new(&df).run(&unbatched_store, unbatched_run, &q).unwrap();
        let work_u = unbatched_store.stats().snapshot().since(before_u);

        assert!(ip_b.same_bindings(&ip_u), "INDEXPROJ answers diverge at {idx:?}");
        assert!(ni_b.same_bindings(&ip_b), "NI and INDEXPROJ diverge at {idx:?}");
        // Identical contents must cost identical trace access work.
        assert_eq!(work_b, work_u, "stats diverge at {idx:?}");
    }
}

#[test]
fn run_scans_touch_only_the_requested_runs_rows() {
    // A small run interleaved (in store insertion order) with a much
    // larger one: scanning the small run must not pay for the big one.
    let df = testbed::generate(2);
    let store = TraceStore::in_memory();
    let small = testbed::run(&df, 2, &store).run_id;
    let big = testbed::run(&df, 12, &store).run_id;

    store.stats().reset();
    let small_rows = store.xforms_of_run(small).len() + store.xfers_of_run(small).len();
    let work = store.stats().snapshot();
    assert_eq!(small_rows as u64, store.trace_record_count(small));
    assert_eq!(
        work.rows_scanned, small_rows as u64,
        "scan of the small run examined rows outside its spans"
    );
    assert!(store.trace_record_count(big) > 4 * small_rows as u64);
}

#[test]
fn plan_cache_absorbs_repeated_fig4_queries() {
    let df = testbed::generate(4);
    let store = TraceStore::in_memory();
    let run = testbed::run(&df, 3, &store).run_id;

    let cache = PlanCache::new(IndexProj::new(&df));
    let q = testbed::focused_query(&[1, 2]);
    let first = cache.run(&store, run, &q).unwrap();
    for _ in 0..9 {
        let again = cache.run(&store, run, &q).unwrap();
        assert!(again.same_bindings(&first));
    }
    let PlanCacheStats { hits, misses } = cache.stats();
    assert_eq!((hits, misses), (9, 1));
    assert_eq!(cache.len(), 1);
}

#[test]
fn multi_run_fanout_matches_sequential_execution() {
    let df = testbed::generate(4);
    let store = TraceStore::in_memory();
    let runs: Vec<RunId> = (0..6).map(|_| testbed::run(&df, 3, &store).run_id).collect();

    let q = testbed::focused_query(&[1, 1]);
    let plan = IndexProj::new(&df).plan(&q).unwrap();

    let per_run: Vec<LineageAnswer> =
        runs.iter().map(|&r| plan.execute(&store, r).unwrap()).collect();
    let multi = plan.execute_multi(&store, &runs).unwrap();

    assert_eq!(per_run.len(), multi.len());
    for (s, m) in per_run.iter().zip(&multi) {
        assert!(s.same_bindings(m), "multi-run answer diverges");
    }
}

/// Captures the engine's natural ingest batches so a test can replay them
/// by hand (e.g. pause halfway to pin a mid-ingest snapshot).
#[derive(Default)]
struct BatchCapture {
    next: Mutex<u64>,
    batches: Mutex<Vec<Vec<TraceEvent>>>,
}

impl TraceSink for BatchCapture {
    fn begin_run(&self, _workflow: &ProcessorName) -> RunId {
        let mut next = self.next.lock().unwrap();
        let id = RunId(*next);
        *next += 1;
        id
    }
    fn record_xform(&self, _run: RunId, event: XformEvent) {
        self.batches.lock().unwrap().push(vec![TraceEvent::Xform(event)]);
    }
    fn record_xfer(&self, _run: RunId, event: XferEvent) {
        self.batches.lock().unwrap().push(vec![TraceEvent::Xfer(event)]);
    }
    fn record_batch(&self, _run: RunId, events: Vec<TraceEvent>) {
        self.batches.lock().unwrap().push(events);
    }
    fn finish_run(&self, _run: RunId) {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The sharded store is observationally equivalent to the reference
    /// (event-at-a-time) ingest across the testbed parameter space: both
    /// algorithms return the same bindings and — because every probe
    /// batches its [`prov_store::ProbeStats`] into the same counters a
    /// monolithic store would charge — identical access-statistics deltas,
    /// for focused and unfocused (step-fanning) queries alike.
    #[test]
    fn sharded_store_matches_reference_answers_and_stats(
        l in 2usize..6, d in 2usize..5, a in 0u32..8, b in 0u32..8,
    ) {
        let df = testbed::generate(l);
        let sharded_store = TraceStore::in_memory();
        let sharded_run = testbed::run(&df, d, &sharded_store).run_id;
        let reference_store = TraceStore::in_memory();
        let reference_run = testbed::run(&df, d, &Unbatched(&reference_store)).run_id;

        let idx = [a % d as u32, b % d as u32];
        for q in [testbed::focused_query(&idx), testbed::unfocused_query(&df, &idx)] {
            let before = sharded_store.stats().snapshot();
            let ni_s = NaiveLineage::new().run(&sharded_store, sharded_run, &q).unwrap();
            let ni_work_s = sharded_store.stats().snapshot().since(before);
            let before = reference_store.stats().snapshot();
            let ni_r = NaiveLineage::new().run(&reference_store, reference_run, &q).unwrap();
            let ni_work_r = reference_store.stats().snapshot().since(before);
            prop_assert!(ni_s.same_bindings(&ni_r), "NI answers diverge at {idx:?}");
            prop_assert_eq!(ni_work_s, ni_work_r, "NI stats diverge at {:?}", idx);

            let before = sharded_store.stats().snapshot();
            let ip_s = IndexProj::new(&df).run(&sharded_store, sharded_run, &q).unwrap();
            let ip_work_s = sharded_store.stats().snapshot().since(before);
            let before = reference_store.stats().snapshot();
            let ip_r = IndexProj::new(&df).run(&reference_store, reference_run, &q).unwrap();
            let ip_work_r = reference_store.stats().snapshot().since(before);
            prop_assert!(ip_s.same_bindings(&ip_r), "INDEXPROJ answers diverge at {idx:?}");
            prop_assert!(ni_s.same_bindings(&ip_s), "NI and INDEXPROJ diverge at {idx:?}");
            prop_assert_eq!(ip_work_s, ip_work_r, "INDEXPROJ stats diverge at {:?}", idx);
        }
    }

    /// A `ReadView` pinned mid-ingest is a stable snapshot: recording the
    /// rest of the run does not leak into it, and both algorithms answer
    /// through it exactly as against a store that stopped ingesting at the
    /// pin.
    #[test]
    fn pinned_view_is_a_stable_snapshot_during_later_ingest(
        l in 2usize..6, d in 2usize..5,
    ) {
        let df = testbed::generate(l);
        let capture = BatchCapture::default();
        testbed::run(&df, d, &capture);
        let batches = capture.batches.into_inner().unwrap();
        let half = batches.len() / 2;

        let store = TraceStore::in_memory();
        let run = store.begin_run(&df.name);
        for batch in &batches[..half] {
            store.record_batch(run, batch.clone());
        }
        let view = store.pin(run);
        let frozen = view.trace_record_count();
        for batch in &batches[half..] {
            store.record_batch(run, batch.clone());
        }
        prop_assert_eq!(view.trace_record_count(), frozen, "pinned view saw later ingest");
        prop_assert!(store.trace_record_count(run) > frozen);

        // A store that only ever ingested the first wave is the ground
        // truth for what the pinned view must answer.
        let reference = TraceStore::in_memory();
        let ref_run = reference.begin_run(&df.name);
        for batch in &batches[..half] {
            reference.record_batch(ref_run, batch.clone());
        }

        let q = testbed::focused_query(&[0, d as u32 - 1]);
        let plan = IndexProj::new(&df).plan(&q).unwrap();
        let ctx = QueryCtx::new("q");
        let ip_view = plan.execute_pinned(&view, &Obs::disabled(), &ctx).unwrap();
        let ip_ref = plan.execute(&reference, ref_run).unwrap();
        prop_assert!(ip_view.same_bindings(&ip_ref), "INDEXPROJ through pinned view diverged");

        let ni_view = NaiveLineage::new().run_pinned(&view, &q, &Obs::disabled(), &ctx).unwrap();
        let ni_ref = NaiveLineage::new().run(&reference, ref_run, &q).unwrap();
        prop_assert!(ni_view.same_bindings(&ni_ref), "NI through pinned view diverged");

        // A fresh pin sees the complete run.
        let full_view = store.pin(run);
        prop_assert_eq!(full_view.trace_record_count(), store.trace_record_count(run));
    }
}
