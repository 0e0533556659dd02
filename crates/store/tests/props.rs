//! Property tests for the trace store: index/scan consistency and WAL
//! round-trips under random event streams.

use proptest::prelude::*;

use prov_engine::{PortBinding, TraceEvent, TraceSink, XferEvent, XformEvent};
use prov_model::{Index, PortRef, ProcessorName, RunId, Value};
use prov_store::TraceStore;

/// A random stream of events over a small universe of processors/ports.
#[derive(Debug, Clone)]
enum Ev {
    Xform { proc: u8, q: Vec<u32>, pi: Vec<u32>, val: i64 },
    Xfer { src: u8, dst: u8, idx: Vec<u32>, val: i64 },
}

fn arb_index() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..3, 0..3)
}

fn arb_event() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (0u8..3, arb_index(), arb_index(), 0i64..5).prop_map(|(proc, q, pi, val)| Ev::Xform {
            proc,
            q,
            pi,
            val
        }),
        (0u8..3, 0u8..3, arb_index(), 0i64..5).prop_map(|(src, dst, idx, val)| Ev::Xfer {
            src,
            dst,
            idx,
            val
        }),
    ]
}

fn proc_name(i: u8) -> ProcessorName {
    ProcessorName::from(format!("P{i}").as_str())
}

fn apply(store: &TraceStore, run: RunId, events: &[Ev]) {
    for (n, ev) in events.iter().enumerate() {
        match ev {
            Ev::Xform { proc, q, pi, val } => store.record_xform(
                run,
                XformEvent {
                    processor: proc_name(*proc),
                    invocation: n as u32,
                    inputs: vec![PortBinding::new("x", Index::from_slice(pi), Value::int(*val))],
                    outputs: vec![PortBinding::new("y", Index::from_slice(q), Value::int(*val))],
                },
            ),
            Ev::Xfer { src, dst, idx, val } => store.record_xfer(
                run,
                XferEvent {
                    src: PortRef { processor: proc_name(*src), port: "y".into() },
                    src_index: Index::from_slice(idx),
                    dst: PortRef { processor: proc_name(*dst), port: "x".into() },
                    dst_index: Index::from_slice(idx),
                    value: Value::int(*val),
                },
            ),
        }
    }
}

/// The same event construction as [`apply`], as an owned [`TraceEvent`]
/// (the shape `record_batch` ingests).
fn to_trace_event(n: usize, ev: &Ev) -> TraceEvent {
    match ev {
        Ev::Xform { proc, q, pi, val } => TraceEvent::Xform(XformEvent {
            processor: proc_name(*proc),
            invocation: n as u32,
            inputs: vec![PortBinding::new("x", Index::from_slice(pi), Value::int(*val))],
            outputs: vec![PortBinding::new("y", Index::from_slice(q), Value::int(*val))],
        }),
        Ev::Xfer { src, dst, idx, val } => TraceEvent::Xfer(XferEvent {
            src: PortRef { processor: proc_name(*src), port: "y".into() },
            src_index: Index::from_slice(idx),
            dst: PortRef { processor: proc_name(*dst), port: "x".into() },
            dst_index: Index::from_slice(idx),
            value: Value::int(*val),
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Indexed overlap lookups agree with a brute-force definition over
    /// the raw events.
    #[test]
    fn indexed_lookup_equals_brute_force(events in proptest::collection::vec(arb_event(), 1..40),
                                         probe_proc in 0u8..3,
                                         probe_idx in arb_index()) {
        let store = TraceStore::in_memory();
        let run = store.begin_run(&"wf".into());
        apply(&store, run, &events);

        let probe = Index::from_slice(&probe_idx);
        let got: Vec<u32> = store
            .xforms_producing(run, &proc_name(probe_proc), "y", &probe)
            .into_iter()
            .map(|r| r.invocation)
            .collect();

        let mut expected: Vec<u32> = events
            .iter()
            .enumerate()
            .filter_map(|(n, e)| match e {
                Ev::Xform { proc, q, .. } if *proc == probe_proc => {
                    let qi = Index::from_slice(q);
                    (qi.is_prefix_of(&probe) || probe.is_prefix_of(&qi)).then_some(n as u32)
                }
                _ => None,
            })
            .collect();
        let mut got_sorted = got.clone();
        got_sorted.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got_sorted, expected);
    }

    /// The same, for xfer destinations.
    #[test]
    fn xfer_lookup_equals_brute_force(events in proptest::collection::vec(arb_event(), 1..40),
                                      probe_proc in 0u8..3,
                                      probe_idx in arb_index()) {
        let store = TraceStore::in_memory();
        let run = store.begin_run(&"wf".into());
        apply(&store, run, &events);

        let probe = Index::from_slice(&probe_idx);
        let got = store.xfers_into(run, &proc_name(probe_proc), "x", &probe).len();
        let expected = events
            .iter()
            .filter(|e| match e {
                Ev::Xfer { dst, idx, .. } if *dst == probe_proc => {
                    let di = Index::from_slice(idx);
                    di.is_prefix_of(&probe) || probe.is_prefix_of(&di)
                }
                _ => false,
            })
            .count();
        prop_assert_eq!(got, expected);
    }

    /// Durable stores replay to exactly the same queryable state.
    #[test]
    fn wal_replay_reproduces_state(events in proptest::collection::vec(arb_event(), 1..30)) {
        let dir = std::env::temp_dir().join("prov-store-props");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!(
            "replay-{}-{:x}.wal",
            std::process::id(),
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        let _ = std::fs::remove_file(&path);

        let run;
        {
            let store = TraceStore::open(&path).unwrap();
            run = store.begin_run(&"wf".into());
            apply(&store, run, &events);
            store.finish_run(run);
        }
        let replayed = TraceStore::open(&path).unwrap();
        let fresh = TraceStore::in_memory();
        let run2 = fresh.begin_run(&"wf".into());
        apply(&fresh, run2, &events);

        prop_assert_eq!(replayed.trace_record_count(run), fresh.trace_record_count(run2));
        prop_assert_eq!(replayed.value_count(), fresh.value_count());
        // Spot-check a few lookups agree.
        for p in 0..3u8 {
            let a = replayed.xforms_producing(run, &proc_name(p), "y", &Index::empty()).len();
            let b = fresh.xforms_producing(run2, &proc_name(p), "y", &Index::empty()).len();
            prop_assert_eq!(a, b);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Multi-run isolation: events of one run are never visible in another.
    #[test]
    fn runs_are_isolated(ev1 in proptest::collection::vec(arb_event(), 1..20),
                         ev2 in proptest::collection::vec(arb_event(), 1..20)) {
        let store = TraceStore::in_memory();
        let r1 = store.begin_run(&"wf".into());
        apply(&store, r1, &ev1);
        let r2 = store.begin_run(&"wf".into());
        apply(&store, r2, &ev2);

        for p in 0..3u8 {
            let n1 = store.xforms_producing(r1, &proc_name(p), "y", &Index::empty()).len();
            let expected1 = ev1.iter().filter(|e| matches!(e, Ev::Xform { proc, .. } if *proc == p)).count();
            prop_assert_eq!(n1, expected1);
        }
        prop_assert_eq!(
            store.trace_record_count(r1) + store.trace_record_count(r2),
            store.total_record_count()
        );
    }

    /// Batched ingest is observationally identical to event-at-a-time
    /// ingest: same rows (ids included), same value table, same query
    /// answers and the same access-statistics deltas for those queries —
    /// however the stream is cut into batches.
    #[test]
    fn batched_ingest_equals_event_at_a_time(events in proptest::collection::vec(arb_event(), 1..40),
                                             chunk in 1usize..9,
                                             probe_proc in 0u8..3,
                                             probe_idx in arb_index()) {
        let one_by_one = TraceStore::in_memory();
        let r1 = one_by_one.begin_run(&"wf".into());
        apply(&one_by_one, r1, &events);

        let batched = TraceStore::in_memory();
        let r2 = batched.begin_run(&"wf".into());
        let stream: Vec<_> = events.iter().enumerate().map(|(n, e)| to_trace_event(n, e)).collect();
        for batch in stream.chunks(chunk) {
            batched.record_batch(r2, batch.to_vec());
        }

        let (a, b) = (one_by_one.pin(r1), batched.pin(r2));
        prop_assert_eq!(a.xforms_of_run(), b.xforms_of_run());
        prop_assert_eq!(a.xfers_of_run(), b.xfers_of_run());
        prop_assert_eq!(one_by_one.value_count(), batched.value_count());
        prop_assert_eq!(one_by_one.index_key_counts(), batched.index_key_counts());

        let probe = Index::from_slice(&probe_idx);
        let before1 = one_by_one.stats().snapshot();
        let a1 = one_by_one.xforms_producing(r1, &proc_name(probe_proc), "y", &probe);
        let w1 = one_by_one.stats().snapshot().since(before1);
        let before2 = batched.stats().snapshot();
        let a2 = batched.xforms_producing(r2, &proc_name(probe_proc), "y", &probe);
        let w2 = batched.stats().snapshot().since(before2);
        prop_assert_eq!(a1, a2);
        prop_assert_eq!(w1.index_lookups, w2.index_lookups);
        prop_assert_eq!(w1.records_read, w2.records_read);
    }

    /// A WAL written with group-committed batch frames replays to exactly
    /// the contents produced by event-at-a-time ingest of the same stream.
    #[test]
    fn wal_batch_replay_reproduces_exact_contents(events in proptest::collection::vec(arb_event(), 1..30),
                                                  chunk in 1usize..9) {
        let dir = std::env::temp_dir().join("prov-store-props");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!(
            "batch-replay-{}-{:x}.wal",
            std::process::id(),
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        let _ = std::fs::remove_file(&path);

        let run;
        {
            let durable = TraceStore::open(&path).unwrap();
            run = durable.begin_run(&"wf".into());
            let stream: Vec<_> =
                events.iter().enumerate().map(|(n, e)| to_trace_event(n, e)).collect();
            for batch in stream.chunks(chunk) {
                durable.record_batch(run, batch.to_vec());
            }
            durable.finish_run(run);
        }

        let replayed = TraceStore::open(&path).unwrap();
        let fresh = TraceStore::in_memory();
        let r2 = fresh.begin_run(&"wf".into());
        apply(&fresh, r2, &events);

        let (a, b) = (replayed.pin(run), fresh.pin(r2));
        prop_assert_eq!(a.xforms_of_run(), b.xforms_of_run());
        prop_assert_eq!(a.xfers_of_run(), b.xfers_of_run());
        prop_assert_eq!(replayed.value_count(), fresh.value_count());
        prop_assert_eq!(replayed.index_key_counts(), fresh.index_key_counts());
        let _ = std::fs::remove_file(&path);
    }
}
