//! Durable provenance: traces written through the store's write-ahead log
//! survive process restarts, and lineage queries work identically on the
//! reopened database.
//!
//! ```sh
//! cargo run --example durable_store
//! ```

use prov_workgen::testbed;
use taverna_prov::prelude::*;

fn main() {
    let dir = std::env::temp_dir().join("taverna-prov-example");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("traces.wal");
    // The WAL and the snapshot files beside it: a snapshot left from an
    // earlier run would otherwise seed the store.
    let remove_db = || {
        let _ = std::fs::remove_file(&path);
        for snap in TraceStore::snapshot_files(&path) {
            let _ = std::fs::remove_file(snap);
        }
    };
    remove_db();

    let wf = testbed::generate(10);
    let run_id;

    // Session 1: execute and persist.
    {
        let store = TraceStore::open(&path).unwrap();
        run_id = testbed::run(&wf, 8, &store).run_id;
        println!(
            "session 1: recorded {} with {} records into {}",
            run_id,
            store.trace_record_count(run_id),
            path.display()
        );
        store.snapshot().unwrap();
        println!(
            "session 1: snapshotted; wal is {} bytes",
            std::fs::metadata(&path).unwrap().len()
        );
    } // store dropped — "process exits"

    // Session 2: reopen and query.
    let store = TraceStore::open(&path).unwrap();
    println!(
        "session 2: reopened; {} runs, {} records",
        store.runs().len(),
        store.total_record_count()
    );

    let query = testbed::focused_query(&[3, 4]);
    let ans = IndexProj::new(&wf).run(&store, run_id, &query).unwrap();
    println!("\n{query}");
    for b in &ans.bindings {
        println!("  answer: {b}");
    }

    // New runs append cleanly after recovery.
    let run2 = testbed::run(&wf, 4, &store).run_id;
    println!("\nsession 2: appended {} ({} records)", run2, store.trace_record_count(run2));

    remove_db();
}
