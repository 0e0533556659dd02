//! Properties of the serve path's concurrency model.
//!
//! 1. **Order-independence**: K clients ingesting disjoint runs through
//!    one daemon concurrently leave, after canonical (per-run) ordering,
//!    exactly the store a sequential local ingest of the same runs
//!    leaves — same record counts, same lineage bindings. Interleaving
//!    at the session/queue/group-commit layers must never leak into what
//!    a run *contains*.
//! 2. **Snapshot atomicity**: a [`ReadView`] pinned at any moment while
//!    a client streams batches of B events only ever observes a
//!    whole-batch prefix — `0, B, 2B, …` records, or the finished total.
//!    A reader can race the applier, but never into the middle of a
//!    batch (one WAL frame, one write-lock acquisition per batch).
//!
//! [`ReadView`]: prov_store::ReadView

use proptest::prelude::*;

use prov_obs::Obs;
use prov_serve::{ProvServer, RemoteSink, ServeConfig};
use prov_store::SharedStore;
use prov_workgen::testbed;
use taverna_prov::prelude::*;

fn tmp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("prov-serve-props");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{}.wal", std::process::id()));
    cleanup(&path);
    path
}

fn cleanup(path: &std::path::PathBuf) {
    let _ = std::fs::remove_file(path);
    if let (Some(dir), Some(name)) = (path.parent(), path.file_name().and_then(|n| n.to_str())) {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                if entry.file_name().to_string_lossy().starts_with(&format!("{name}.")) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
    }
}

fn point_queries(l: usize) -> Vec<LineageQuery> {
    let top = (l - 1) as u32;
    [(0u32, 0u32), (top, top)]
        .into_iter()
        .map(|(i, j)| {
            LineageQuery::focused(
                PortRef::new("testbed", "product"),
                Index::from(vec![i, j]),
                [ProcessorName::from("LISTGEN_1")],
            )
        })
        .collect()
}

/// A run's identity up to its run id: record count plus the rendered NI
/// bindings of the point queries. Runs ingested in any order compare
/// equal iff their contents do.
fn run_signature(store: &TraceStore, run: RunId, l: usize) -> (u64, String) {
    let info = store.runs().into_iter().find(|i| i.id == run).unwrap();
    let bindings: Vec<String> = point_queries(l)
        .iter()
        .flat_map(|q| NaiveLineage::new().run_multi(store, &[run], q).unwrap())
        .map(|a| format!("{:?}", a.bindings))
        .collect();
    (info.xform_count + info.xfer_count, bindings.join("|"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// K concurrent writers through the daemon ≡ K sequential local
    /// ingests, after canonical ordering of the per-run signatures.
    #[test]
    fn concurrent_daemon_ingest_equals_sequential(l in 2usize..=3, k in 2usize..=4) {
        let df = testbed::generate(l);
        let wf_json = serde_json::to_string(&df).unwrap();

        // Sequential oracle: the same K (distinct-depth) runs, one store.
        let oracle = TraceStore::in_memory();
        oracle.register_workflow(&ProcessorName::from("testbed"), wf_json.clone());
        let mut oracle_sigs: Vec<(u64, String)> = (0..k)
            .map(|w| {
                let run = testbed::run(&df, 2 + w % 2, &oracle).run_id;
                run_signature(&oracle, run, l)
            })
            .collect();
        oracle_sigs.sort();

        // The same K runs, raced through one daemon.
        let path = tmp(&format!("cseq-{l}-{k}"));
        let store = SharedStore::open(&path).unwrap();
        let server =
            ProvServer::start(store, Obs::disabled(), ServeConfig::default(), "127.0.0.1:0")
                .unwrap();
        let addr = server.local_addr().to_string();
        let writers: Vec<_> = (0..k)
            .map(|w| {
                let (addr, wf, df) = (addr.clone(), wf_json.clone(), df.clone());
                std::thread::spawn(move || {
                    let sink = RemoteSink::connect(&addr, Some(wf)).unwrap();
                    testbed::run(&df, 2 + w % 2, &sink);
                    prop_assert!(sink.error().is_none(), "ingest error: {:?}", sink.error());
                    Ok(())
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap()?;
        }
        let report = server.shutdown();
        prop_assert!(!report.forced);

        let reopened = TraceStore::open(&path).unwrap();
        let infos = reopened.runs();
        prop_assert_eq!(infos.iter().filter(|i| i.finished).count(), k);
        let mut sigs: Vec<(u64, String)> =
            infos.iter().map(|i| run_signature(&reopened, i.id, l)).collect();
        sigs.sort();
        prop_assert_eq!(sigs, oracle_sigs, "concurrent ingest diverged from sequential");
        cleanup(&path);
    }

    /// A reader pinning [`prov_store::ReadView`]s while a client streams
    /// B-event batches only ever sees whole-batch prefixes.
    #[test]
    fn pinned_view_mid_ingest_never_sees_a_partial_batch(
        l in 2usize..=3,
        batch in prop_oneof![Just(3usize), Just(5), Just(8)],
    ) {
        let df = testbed::generate(l);
        let wf_json = serde_json::to_string(&df).unwrap();
        let path = tmp(&format!("view-{l}-{batch}"));
        let shared = SharedStore::open(&path).unwrap();
        let server = ProvServer::start(
            shared.clone(),
            Obs::disabled(),
            ServeConfig::default(),
            "127.0.0.1:0",
        )
        .unwrap();
        let addr = server.local_addr().to_string();

        let writer = {
            let df = df.clone();
            std::thread::spawn(move || {
                let sink =
                    RemoteSink::connect(&addr, Some(wf_json)).unwrap().with_batch_events(batch);
                testbed::run(&df, 3, &sink);
                assert!(sink.error().is_none(), "ingest error: {:?}", sink.error());
            })
        };

        // Race the applier: pin a fresh view of every known run, as fast
        // as possible, until the writer is done.
        let mut observed: Vec<u64> = Vec::new();
        while !writer.is_finished() {
            for info in shared.runs() {
                observed.push(shared.pin(info.id).trace_record_count());
            }
            std::thread::yield_now();
        }
        writer.join().unwrap();
        let report = server.shutdown();
        prop_assert!(!report.forced);

        let total: u64 =
            shared.runs().iter().map(|i| i.xform_count + i.xfer_count).sum();
        for count in observed {
            prop_assert!(
                count % (batch as u64) == 0 || count == total,
                "a pinned view saw a partial batch: {count} records (batch size {batch}, \
                 finished total {total})"
            );
        }
        cleanup(&path);
    }
}
