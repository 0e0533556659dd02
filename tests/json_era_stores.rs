//! Databases written before the binary record codec keep opening. Until
//! then every WAL and snapshot payload was the serde JSON of its
//! `LogRecord` (exactly `serde_json::to_vec`), and snapshots held one frame
//! per row. Three such shapes are rebuilt here from freshly captured runs:
//!
//! * (a) a WAL-only log;
//! * (b) a snapshot of one frame per row, its marker, and a WAL tail;
//! * (c) a JSON-era log that a later open appended binary frames to.
//!
//! Each opens with the same runs, record counts and NI/INDEXPROJ answers
//! as the same runs captured fresh, verifies healthy, and replicates
//! frame by frame through `apply_replicated`.

use std::path::{Path, PathBuf};

use prov_engine::TraceEvent;
use prov_store::{crc32, verify_store, LogRecord, WalCursor, WalReader};
use prov_workgen::testbed;
use taverna_prov::prelude::*;

fn dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join("json-era-stores").join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Frames `records` the way the JSON era wrote them.
fn write_json_era(path: &Path, records: &[LogRecord]) {
    let mut out = Vec::new();
    for record in records {
        let payload = serde_json::to_vec(record).unwrap();
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    std::fs::write(path, out).unwrap();
}

/// A snapshot's batch frames as the JSON era's one frame per row.
fn one_frame_per_row(records: Vec<LogRecord>) -> Vec<LogRecord> {
    let mut rows = Vec::new();
    for record in records {
        match record {
            LogRecord::Batch { run, events } => {
                rows.extend(events.into_iter().map(|event| match event {
                    TraceEvent::Xform(event) => LogRecord::Xform { run, event },
                    TraceEvent::Xfer(event) => LogRecord::Xfer { run, event },
                }));
            }
            other => rows.push(other),
        }
    }
    rows
}

fn records(path: &Path) -> Vec<LogRecord> {
    let recovery = WalReader::read_all(path).unwrap();
    assert!(recovery.tail.is_clean());
    recovery.records
}

fn capture(store: &TraceStore, df: &Dataflow, sizes: &[usize]) {
    store.register_workflow(&ProcessorName::from("testbed"), serde_json::to_string(df).unwrap());
    for &d in sizes {
        testbed::run(df, d, store);
    }
    store.durability().unwrap();
}

fn fresh(df: &Dataflow, sizes: &[usize]) -> TraceStore {
    let store = TraceStore::in_memory();
    capture(&store, df, sizes);
    store
}

/// The same runs, counts and answers under both algorithms.
fn assert_same(got: &TraceStore, want: &TraceStore, df: &Dataflow) {
    assert_eq!(got.runs(), want.runs());
    assert_eq!(got.total_record_count(), want.total_record_count());
    assert_eq!(got.workflow_names(), want.workflow_names());
    let runs: Vec<RunId> = want.runs().iter().map(|r| r.id).collect();
    let ip = IndexProj::new(df);
    for (i, j) in [(0u32, 0u32), (0, 1), (1, 0), (1, 1)] {
        let q = LineageQuery::focused(
            PortRef::new("testbed", "product"),
            Index::from(vec![i, j]),
            [ProcessorName::from("LISTGEN_1")],
        );
        let ni = NaiveLineage::new();
        assert_eq!(ni.run_multi(got, &runs, &q).unwrap(), ni.run_multi(want, &runs, &q).unwrap());
        assert_eq!(ip.run_multi(got, &runs, &q).unwrap(), ip.run_multi(want, &runs, &q).unwrap());
    }
}

/// Every payload of the log at `path`, applied as a follower applies them.
fn replicate(path: &Path) -> TraceStore {
    let follower = TraceStore::in_memory();
    let mut cursor = WalCursor::open(path).unwrap();
    while cursor.next_frame().unwrap().is_some() {
        follower.apply_replicated(cursor.payload()).unwrap();
    }
    follower
}

fn first_bytes(path: &Path) -> Vec<u8> {
    let mut cursor = WalCursor::open(path).unwrap();
    let mut first = Vec::new();
    while cursor.next_frame().unwrap().is_some() {
        first.push(cursor.payload()[0]);
    }
    first
}

#[test]
fn a_json_era_wal_only_log_opens() {
    let dir = dir("wal-only");
    let df = testbed::generate(3);
    let source = dir.join("source.wal");
    capture(&TraceStore::open(&source).unwrap(), &df, &[3, 2]);
    let old = dir.join("old.wal");
    write_json_era(&old, &records(&source));
    assert!(first_bytes(&old).iter().all(|&b| b == b'{'));

    assert!(verify_store(&old).unwrap().healthy());
    let want = fresh(&df, &[3, 2]);
    assert_same(&TraceStore::open(&old).unwrap(), &want, &df);
    assert_same(&replicate(&old), &want, &df);
}

#[test]
fn a_json_era_snapshot_marker_and_tail_open() {
    let dir = dir("snapshot");
    let df = testbed::generate(3);
    let source = dir.join("source.wal");
    {
        let store = TraceStore::open(&source).unwrap();
        capture(&store, &df, &[3, 2]);
        store.snapshot().unwrap();
        testbed::run(&df, 4, &store);
        store.durability().unwrap();
    }
    let old = dir.join("old.wal");
    let snap = TraceStore::snapshot_file_for(&source, 1);
    let rows = one_frame_per_row(records(&snap));
    assert!(!rows.iter().any(|r| matches!(r, LogRecord::Batch { .. })));
    write_json_era(&TraceStore::snapshot_file_for(&old, 1), &rows);
    let tail = records(&source);
    assert_eq!(tail[0], LogRecord::Snapshot { generation: 1 });
    write_json_era(&old, &tail);

    let report = verify_store(&old).unwrap();
    assert!(report.healthy());
    assert_eq!(report.marker_backed, Some(true));
    let opened = TraceStore::open(&old).unwrap();
    assert_eq!(opened.snapshot_metrics().fallbacks.get(), 0);
    assert_same(&opened, &fresh(&df, &[3, 2, 4]), &df);
}

#[test]
fn a_json_era_prefix_with_binary_frames_appended_opens() {
    let dir = dir("mixed");
    let df = testbed::generate(3);
    let source = dir.join("source.wal");
    capture(&TraceStore::open(&source).unwrap(), &df, &[3, 2]);
    let mixed = dir.join("mixed.wal");
    write_json_era(&mixed, &records(&source));
    {
        let store = TraceStore::open(&mixed).unwrap();
        testbed::run(&df, 4, &store);
        store.durability().unwrap();
    }
    let kinds = first_bytes(&mixed);
    assert_eq!(kinds.first(), Some(&b'{'));
    assert_eq!(kinds.last(), Some(&0x01));

    assert!(verify_store(&mixed).unwrap().healthy());
    let want = fresh(&df, &[3, 2, 4]);
    assert_same(&TraceStore::open(&mixed).unwrap(), &want, &df);
    assert_same(&replicate(&mixed), &want, &df);
}
