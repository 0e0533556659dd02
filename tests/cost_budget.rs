//! Counted cost budget: the exact fsyncs, frames and bytes each write
//! path costs the WAL, read from `wal_metrics()`, the journal and the log
//! itself, and the exact allocations capture, a snapshot and a reopen
//! make, read from a counting global allocator. Nothing here is timed, so every
//! pin is machine-independent. A change that lowers a number updates its
//! pin and says so in CHANGES.md; one that raises a number justifies it
//! there. Only counts that depend on how the daemon's applier groups
//! batches — which depends on timing — are pinned as bounds. One test
//! holds the served write path to its promise when a count goes wrong: a
//! finish whose fsync failed is not acked.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

use prov_dataflow::Dataflow;
use prov_obs::{Journal, JournalEvent, Obs};
use prov_serve::{ProvServer, RemoteSink, ServeConfig, ServeError};
use prov_store::{FaultPlan, LogRecord, SharedStore, TraceStore, WalCursor};
use prov_workgen::testbed;

/// Counts the allocations (reallocations included) this thread makes and
/// the bytes they ask for. The cells are thread-local, so tests running in
/// parallel do not mix their counts.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counting touches only `const`-initialised thread-local cells, which
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What `f` allocated on this thread: its result, allocations and bytes.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    (out, ALLOCS.with(Cell::get) - before.0, BYTES.with(Cell::get) - before.1)
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("prov-cost-budget");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{}.wal", std::process::id()));
    cleanup(&path);
    path
}

/// Removes the WAL at `path` and every `<wal>.*` file beside it.
fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let (Some(dir), Some(name)) = (path.parent(), path.file_name().and_then(|n| n.to_str())) else {
        return;
    };
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if entry.file_name().to_string_lossy().starts_with(&format!("{name}.")) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// What one step cost the WAL.
#[derive(Debug, Default, PartialEq, Eq)]
struct Cost {
    fsyncs: u64,
    frames: u64,
    bytes: u64,
    group_commits: u64,
    /// The `frames` of each `WalSync` the step journaled, in order.
    sync_groups: Vec<u64>,
    /// `Workflow` records among the frames the step appended.
    workflow_frames: usize,
}

/// Runs `step` against `store` (its WAL at `path`, fully synced, with
/// `journal` attached) and returns what it cost.
fn cost(store: &TraceStore, path: &Path, journal: &Journal, step: impl FnOnce()) -> Cost {
    let m = store.wal_metrics();
    let before = (m.syncs.get(), m.frames.get(), m.bytes_written.get(), m.group_commits.get());
    let offset = store.repl_position().durable_len;
    assert_eq!(offset, std::fs::metadata(path).unwrap().len(), "the step must start synced");
    journal.drain();
    step();
    let sync_groups = journal
        .drain()
        .into_iter()
        .filter_map(|e| match e.event {
            JournalEvent::WalSync { frames, .. } => Some(frames),
            _ => None,
        })
        .collect();
    let mut cursor = WalCursor::open_at(path, offset).unwrap();
    let mut workflow_frames = 0;
    while let Some(record) = cursor.next_record().unwrap() {
        workflow_frames += usize::from(matches!(record, LogRecord::Workflow { .. }));
    }
    Cost {
        fsyncs: m.syncs.get() - before.0,
        frames: m.frames.get() - before.1,
        bytes: m.bytes_written.get() - before.2,
        group_commits: m.group_commits.get() - before.3,
        sync_groups,
        workflow_frames,
    }
}

fn spec(df: &Dataflow) -> String {
    serde_json::to_string(df).unwrap()
}

/// A daemon over `store` with `journal` attached to it.
fn daemon(store: TraceStore, journal: &Journal) -> (ProvServer, SharedStore) {
    store.attach_journal(journal);
    let store = SharedStore::new(store);
    let server =
        ProvServer::start(store.clone(), Obs::disabled(), ServeConfig::default(), "127.0.0.1:0")
            .unwrap();
    (server, store)
}

/// Streams one testbed run of list size `d` to the daemon at `server` in
/// batches of `batch_events`, and returns what `finish` reported.
fn served_run(
    server: &ProvServer,
    df: &Dataflow,
    d: usize,
    batch_events: usize,
    spec: Option<String>,
) -> Result<(), ServeError> {
    let addr = server.local_addr().to_string();
    let sink = RemoteSink::connect(&addr, spec)?.with_batch_events(batch_events);
    testbed::run(df, d, &sink);
    sink.finish()
}

#[test]
fn a_served_run_logs_its_spec_once_and_fsyncs_once_per_durable_point() {
    let path = tmp("served");
    let journal = Journal::new(1024);
    let (server, store) = daemon(TraceStore::open(&path).unwrap(), &journal);
    let df = testbed::generate(2);

    // The first run of a new spec logs it, under its own fsync: the spec,
    // then `BeginRun` and the one batch under the applier's fsync, then
    // `FinishRun` under its own.
    let first = cost(&store, &path, &journal, || {
        served_run(&server, &df, 3, 256, Some(spec(&df))).unwrap();
    });
    let want = Cost {
        fsyncs: 3,
        frames: 4,
        bytes: 3_537,
        group_commits: 1,
        sync_groups: vec![1, 2, 1],
        workflow_frames: 1,
    };
    assert_eq!(first, want);

    // Every later run with the same spec logs it no more: `BeginRun` and
    // the batch under one fsync, `FinishRun` under the other, and no empty
    // fsync.
    for _ in 0..2 {
        let again = cost(&store, &path, &journal, || {
            served_run(&server, &df, 3, 256, Some(spec(&df))).unwrap();
        });
        let want = Cost {
            fsyncs: 2,
            frames: 3,
            bytes: 967,
            group_commits: 1,
            sync_groups: vec![2, 1],
            workflow_frames: 0,
        };
        assert_eq!(again, want);
    }
    server.shutdown();
    cleanup(&path);
}

#[test]
fn multi_batch_served_runs_take_at_most_one_fsync_per_batch_plus_one() {
    let path = tmp("served-multi");
    let journal = Journal::new(1024);
    let store = TraceStore::open(&path).unwrap();
    let df = testbed::generate(3);
    store.register_workflow(&df.name, spec(&df));
    let (server, store) = daemon(store, &journal);
    for _ in 0..3 {
        let c = cost(&store, &path, &journal, || {
            served_run(&server, &df, 4, 8, Some(spec(&df))).unwrap();
        });
        // Frames and bytes follow from the client's batching alone; how
        // many batches one applier fsync covers depends on timing.
        let batches = c.group_commits;
        assert_eq!(batches, 12, "{c:?}");
        assert_eq!((c.frames, c.bytes, c.workflow_frames), (batches + 2, 2_556, 0), "{c:?}");
        assert!((2..=batches + 1).contains(&c.fsyncs), "{c:?}");
        assert_eq!(c.sync_groups.len() as u64, c.fsyncs, "{c:?}");
        assert!(!c.sync_groups.contains(&0), "an empty fsync: {c:?}");
        assert_eq!(c.sync_groups.iter().sum::<u64>(), c.frames, "{c:?}");
    }
    server.shutdown();
    cleanup(&path);
}

#[test]
fn an_identical_registration_and_an_empty_sync_cost_nothing() {
    let path = tmp("nothing");
    let journal = Journal::new(64);
    let store = TraceStore::open(&path).unwrap();
    store.attach_journal(&journal);
    let (name, json) = (prov_model::ProcessorName::from("wf"), "{\"fake\":1}".to_string());

    let first = cost(&store, &path, &journal, || store.register_workflow(&name, json.clone()));
    let want = Cost {
        fsyncs: 1,
        frames: 1,
        bytes: 27,
        sync_groups: vec![1],
        workflow_frames: 1,
        ..Cost::default()
    };
    assert_eq!(first, want);
    let registered = store.workflow_json(&name).unwrap();
    let position = store.repl_position();

    let again = cost(&store, &path, &journal, || store.register_workflow(&name, json.clone()));
    assert_eq!(again, Cost::default());
    let empty = cost(&store, &path, &journal, || store.sync_wal().unwrap());
    assert_eq!(empty, Cost::default());
    // Neither moved the durable position or the registration's identity.
    assert_eq!(store.repl_position(), position);
    assert!(std::sync::Arc::ptr_eq(&registered, &store.workflow_json(&name).unwrap()));
    cleanup(&path);
}

#[test]
fn local_capture_costs_one_fsync_per_run() {
    let path = tmp("local");
    let journal = Journal::new(64);
    let store = TraceStore::open(&path).unwrap();
    store.attach_journal(&journal);
    let df = testbed::generate(4);
    for _ in 0..2 {
        let c = cost(&store, &path, &journal, || {
            testbed::run(&df, 3, &store);
        });
        let want = Cost {
            fsyncs: 1,
            frames: 13,
            bytes: 1_911,
            group_commits: 11,
            sync_groups: vec![13],
            workflow_frames: 0,
        };
        assert_eq!(c, want);
    }
    cleanup(&path);
}

#[test]
fn a_failed_finish_fsync_is_not_acked() {
    let path = tmp("finish-fault");
    // Fsync 1 is the applier's group commit; fsync 2, `FinishRun`'s, fails.
    let store = TraceStore::open_with_fault(&path, FaultPlan::fail_sync(2)).unwrap();
    let (server, store) = daemon(store, &Journal::disabled());
    let err = served_run(&server, &testbed::generate(2), 3, 256, None).unwrap_err();
    assert!(matches!(&err, ServeError::Remote { code, .. } if code == "ingest_failed"), "{err:?}");
    assert!(store.durability().is_err());
    server.shutdown();
    cleanup(&path);
}

/// A store path in a directory of its own whose length is the same on
/// every machine and in every process: a reopen allocates path buffers,
/// and an exact byte pin must not move with the temp dir or the pid.
fn fixed_length_path(tag: &str) -> PathBuf {
    const LEN: usize = 120;
    let base = std::env::temp_dir().join("prov-cost-budget");
    let name = format!("{tag}-{}-", std::process::id());
    let used = base.as_os_str().len() + 1 + name.len();
    assert!(used < LEN, "the temp dir {} is too long for a fixed-length path", base.display());
    let dir = base.join(format!("{name}{}", "x".repeat(LEN - used)));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("store.wal")
}

/// What reopening a fixed testbed store allocates, from the WAL alone and
/// from a snapshot: `l = 75`, runs of `d` = 50, 10 and 10. A reopen decodes
/// each frame once into reused buffers and moves each value it decodes
/// into the value table, so what remains per record is the rows, index
/// keys and table entries the store keeps.
#[test]
fn a_reopen_allocates_a_pinned_budget_per_replayed_record() {
    let df = testbed::generate(75);
    let (wal, snap) = (fixed_length_path("reopen-wal"), fixed_length_path("reopen-snap"));
    for path in [&wal, &snap] {
        let store = TraceStore::open(path).unwrap();
        for d in [50, 10, 10] {
            testbed::run(&df, d, &store);
        }
        if path == &snap {
            store.snapshot().unwrap();
        }
    }
    let records = TraceStore::open(&wal).unwrap().total_record_count();
    assert_eq!(records, 26_546);
    for (path, want, what) in
        [(&wal, (32_667, 12_446_522), "WAL"), (&snap, (23_073, 11_837_026), "snapshot")]
    {
        let (store, allocs, bytes) = allocated(|| TraceStore::open(path).unwrap());
        assert_eq!(store.total_record_count(), records);
        if path == &snap {
            assert_eq!(store.snapshot_metrics().fallbacks.get(), 0);
            assert_eq!(store.wal_metrics().recovery_replayed_frames.get(), 0);
        }
        let per_record = (allocs as f64 / records as f64, bytes as f64 / records as f64);
        eprintln!("{what} reopen: {allocs} allocations, {bytes} B: {per_record:.2?} per record");
        assert_eq!((allocs, bytes), want, "{what} reopen");
        drop(store);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}

/// What capture allocates: one testbed run (`l = 75, d = 50`) recorded
/// into a WAL, after a `d = 10` run of the same workflow. Each frame is
/// encoded from the rows its events were inserted as, so a frame
/// allocates its payload and nothing per event; the engine makes most of
/// what remains.
#[test]
fn capture_into_a_wal_allocates_a_pinned_budget() {
    let df = testbed::generate(75);
    let path = fixed_length_path("capture");
    let store = TraceStore::open(&path).unwrap();
    testbed::run(&df, 10, &store);
    let ((), allocs, bytes) = allocated(|| {
        testbed::run(&df, 50, &store);
    });
    let records = store.trace_record_count(prov_model::RunId(1));
    let frames = store.wal_metrics().frames.get();
    eprintln!("capture: {allocs} allocations, {bytes} B for {records} records, {frames} frames");
    // 95,761 allocations and 31,506,783 B when each frame was encoded
    // from the events through hashed name and value tables.
    assert_eq!((records, allocs, bytes), (20_102, 93_313, 29_524_321));
    drop(store);
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// What a snapshot of the reopen pin's store (`l = 75`, runs of `d` = 50,
/// 10 and 10) allocates: each run's rows stream through the row encoder
/// in frames of at most 1,024 events, so the count follows the frames
/// (one payload each) and the few records without events, not the
/// records.
#[test]
fn a_snapshot_allocates_a_pinned_budget_per_frame() {
    let df = testbed::generate(75);
    let path = fixed_length_path("snapshot");
    let store = TraceStore::open(&path).unwrap();
    for d in [50, 10, 10] {
        testbed::run(&df, d, &store);
    }
    let (result, allocs, bytes) = allocated(|| store.snapshot());
    result.unwrap();
    let records = store.total_record_count();
    let frames = WalCursor::open(&TraceStore::snapshot_file_for(&path, 1))
        .map(|mut cursor| std::iter::from_fn(|| cursor.next_frame().unwrap().map(drop)).count())
        .unwrap();
    let per_frame = allocs as f64 / frames as f64;
    eprintln!(
        "snapshot: {allocs} allocations, {bytes} B, {frames} frames: {per_frame:.2} per frame"
    );
    // 27,141 allocations and 13,019,778 B when every row was materialised
    // into an owned event first.
    assert_eq!((records, frames, allocs, bytes), (26_546, 36, 94, 460_179));
    drop(store);
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}
