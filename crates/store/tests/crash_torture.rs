//! Crash torture: ingest through a fault-injecting WAL backend that tears
//! the file at an arbitrary byte offset, then reopen and assert the store
//! recovers **exactly** the durable prefix — every frame fully on disk
//! before the crash, nothing after it, no panic, and the damage reported
//! through `recovered_tail` / the `wal.torn_tails` counter.
//!
//! Two drivers share one oracle:
//!
//! * a proptest sweep (deterministic — the vendored proptest seeds from
//!   the test name), covering offsets from 0 to past end-of-log;
//! * a randomized pass seeded from `CRASH_TORTURE_SEED` (decimal u64; a
//!   fixed default when unset), which CI runs once with a random seed.

use proptest::prelude::*;

use prov_engine::{PortBinding, TraceEvent, TraceSink, XformEvent};
use prov_model::{Index, ProcessorName, RunId, Value};
use prov_store::{FaultPlan, StoreError, TailState, TraceStore};

/// One synthetic xform event, distinguishable by `n`.
fn ev(n: u32) -> TraceEvent {
    TraceEvent::Xform(XformEvent {
        processor: ProcessorName::from(format!("P{}", n % 3).as_str()),
        invocation: n,
        inputs: vec![PortBinding::new("x", Index::single(n), Value::int(i64::from(n)))],
        outputs: vec![PortBinding::new("y", Index::single(n), Value::str(&format!("out-{n}")))],
    })
}

fn tmp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("prov-store-crash-torture");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Parses the byte offsets at which each well-formed frame ends.
fn frame_ends(bytes: &[u8]) -> Vec<u64> {
    let mut ends = Vec::new();
    let mut off = 0usize;
    while off + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        off += 8 + len;
        assert!(off <= bytes.len(), "reference log is not well-formed");
        ends.push(off as u64);
    }
    ends
}

/// Ingests `events` in `chunk`-sized batches into `store` as run 0.
fn ingest(store: &TraceStore, events: &[TraceEvent], chunk: usize) {
    let run = store.begin_run(&"wf".into());
    assert_eq!(run, RunId(0));
    for batch in events.chunks(chunk) {
        store.record_batch(run, batch.to_vec());
    }
    store.finish_run(run);
}

/// The oracle: crash ingest at byte `offset`, reopen, compare against the
/// frame-aligned durable prefix of an identical fault-free run.
fn torture_case(tag: &str, events: &[TraceEvent], chunk: usize, offset: u64) {
    // Fault-free reference: same records, same bytes (encoding and run-id
    // assignment are deterministic).
    let ref_path = tmp(&format!("{tag}-ref"));
    {
        let store = TraceStore::open(&ref_path).unwrap();
        ingest(&store, events, chunk);
        store.durability().unwrap();
    }
    let ref_bytes = std::fs::read(&ref_path).unwrap();
    let total = ref_bytes.len() as u64;
    let ends = frame_ends(&ref_bytes);

    // Torture run: identical ingest over a file torn at `offset`.
    let t_path = tmp(&format!("{tag}-torture"));
    {
        let store = TraceStore::open_with_fault(&t_path, FaultPlan::crash_at(offset)).unwrap();
        ingest(&store, events, chunk);
        if offset < total {
            // The crash fired: the writer must be poisoned, not silent.
            assert!(
                matches!(store.durability(), Err(StoreError::WalPoisoned { .. })),
                "crash at {offset}/{total} did not poison the writer"
            );
        } else {
            store.durability().unwrap();
        }
    }
    let cut = offset.min(total);
    assert_eq!(std::fs::metadata(&t_path).unwrap().len(), cut, "torn file length");

    // Reopen: recovery must never panic and must yield exactly the frames
    // wholly inside the cut.
    let reopened = TraceStore::open(&t_path).unwrap();
    let durable_frames = ends.iter().filter(|&&e| e <= cut).count();
    let on_boundary = cut == 0 || ends.contains(&cut);
    let tail = reopened.recovered_tail().unwrap();
    if on_boundary {
        assert_eq!(tail, TailState::Clean, "cut at {cut} is frame-aligned");
        assert_eq!(reopened.wal_metrics().torn_tails.get(), 0);
    } else {
        let torn_at = ends.iter().copied().filter(|&e| e <= cut).max().unwrap_or(0);
        assert_eq!(tail, TailState::TornTail { offset: torn_at });
        assert_eq!(reopened.wal_metrics().torn_tails.get(), 1);
    }

    // Frame layout of the log: BeginRun, then one Batch per chunk, then
    // FinishRun. Reconstruct the expected durable state from the count.
    let batches: Vec<&[TraceEvent]> = events.chunks(chunk).collect();
    if durable_frames == 0 {
        assert!(reopened.runs().is_empty(), "no durable frames but runs recovered");
        return;
    }
    let runs = reopened.runs();
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].finished, durable_frames == ends.len(), "FinishRun durability");

    let durable_batches = (durable_frames - 1).min(batches.len());
    let expected = TraceStore::in_memory();
    let run = expected.begin_run(&"wf".into());
    for batch in &batches[..durable_batches] {
        expected.record_batch(run, batch.to_vec());
    }
    let (got, want) = (reopened.pin(RunId(0)), expected.pin(run));
    assert_eq!(got.xforms_of_run(), want.xforms_of_run());
    assert_eq!(got.xfers_of_run(), want.xfers_of_run());
    assert_eq!(reopened.trace_record_count(RunId(0)), expected.trace_record_count(run));

    // The store keeps working after recovery: appends land cleanly.
    let r2 = reopened.begin_run(&"wf".into());
    reopened.finish_run(r2);
    reopened.durability().unwrap();
    let again = TraceStore::open(&t_path).unwrap();
    assert_eq!(again.recovered_tail(), Some(TailState::Clean));
    assert_eq!(again.runs().len(), 2);

    let _ = std::fs::remove_file(&ref_path);
    let _ = std::fs::remove_file(&t_path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sweep crash offsets across (and past) the whole log.
    #[test]
    fn crash_at_arbitrary_offset_recovers_durable_prefix(
        n_events in 1u32..25,
        chunk in 1usize..6,
        cut_permille in 0u32..1100,
    ) {
        let events: Vec<TraceEvent> = (0..n_events).map(ev).collect();
        // Size the reference once per case to translate the permille cut
        // into a byte offset that can also land past end-of-log.
        let probe = tmp("probe");
        let total = {
            let store = TraceStore::open(&probe).unwrap();
            ingest(&store, &events, chunk);
            std::fs::metadata(&probe).unwrap().len()
        };
        let _ = std::fs::remove_file(&probe);
        let offset = total * u64::from(cut_permille) / 1000;
        torture_case("prop", &events, chunk, offset);
    }
}

/// Splitmix64 — a tiny deterministic generator for the seeded pass.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The seeded pass CI runs twice: once as-is (fixed default seed) and once
/// with `CRASH_TORTURE_SEED=$RANDOM` for fresh coverage. The seed is
/// printed so any failure is replayable.
#[test]
fn seeded_crash_offsets_recover_durable_prefix() {
    let seed = std::env::var("CRASH_TORTURE_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0xC0FFEE);
    eprintln!("crash-torture seed: {seed} (replay with CRASH_TORTURE_SEED={seed})");
    let mut rng = Rng(seed);
    for case in 0..8 {
        let n_events = 1 + (rng.next() % 30) as u32;
        let chunk = 1 + (rng.next() % 7) as usize;
        let events: Vec<TraceEvent> = (0..n_events).map(ev).collect();
        let probe = tmp(&format!("seed-probe-{case}"));
        let total = {
            let store = TraceStore::open(&probe).unwrap();
            ingest(&store, &events, chunk);
            std::fs::metadata(&probe).unwrap().len()
        };
        let _ = std::fs::remove_file(&probe);
        // Raw offset anywhere in [0, total + 32]: includes mid-header,
        // mid-payload, frame-aligned and past-the-end cuts.
        let offset = rng.next() % (total + 33);
        torture_case(&format!("seed-{case}"), &events, chunk, offset);
    }
}

/// A zero-length WAL file (created but never written, e.g. a crash before
/// the first append) is a *clean* empty log — not a torn or corrupt one.
#[test]
fn empty_wal_file_recovers_clean() {
    let path = tmp("empty");
    std::fs::write(&path, b"").unwrap();
    let store = TraceStore::open(&path).unwrap();
    assert_eq!(store.recovered_tail(), Some(TailState::Clean));
    assert_eq!(store.wal_metrics().torn_tails.get(), 0);
    assert_eq!(store.wal_metrics().corrupt_frames.get(), 0);
    assert!(store.runs().is_empty());
    // And the store works: the first run lands as usual.
    let run = store.begin_run(&"wf".into());
    store.finish_run(run);
    store.durability().unwrap();
    let _ = std::fs::remove_file(&path);
}

/// A WAL holding only the snapshot-marker header frame (the state right
/// after a compaction, before any new record) is clean, replays zero
/// frames, and recovers the snapshotted state.
#[test]
fn marker_only_wal_recovers_clean() {
    let path = tmp("marker-only");
    {
        let store = TraceStore::open(&path).unwrap();
        let run = store.begin_run(&"wf".into());
        store.record_batch(run, vec![ev(0), ev(1)]);
        store.finish_run(run);
        store.snapshot().unwrap(); // WAL is now exactly one marker frame
        store.durability().unwrap();
    }
    let reopened = TraceStore::open(&path).unwrap();
    assert_eq!(reopened.recovered_tail(), Some(TailState::Clean));
    assert_eq!(reopened.wal_metrics().torn_tails.get(), 0);
    assert_eq!(reopened.wal_metrics().corrupt_frames.get(), 0);
    assert_eq!(reopened.wal_metrics().recovery_replayed_frames.get(), 0);
    assert_eq!(reopened.trace_record_count(RunId(0)), 2);
    assert!(reopened.runs()[0].finished);
    let _ = std::fs::remove_file(format!("{}.snap.1", path.display()));
    let _ = std::fs::remove_file(&path);
}

/// A WAL holding exactly one complete frame is a clean log of one record.
#[test]
fn exactly_one_frame_wal_recovers_clean() {
    let path = tmp("one-frame");
    {
        let store = TraceStore::open(&path).unwrap();
        store.begin_run(&"wf".into()); // one BeginRun frame, flushed on drop
    }
    let reopened = TraceStore::open(&path).unwrap();
    assert_eq!(reopened.recovered_tail(), Some(TailState::Clean));
    assert_eq!(reopened.wal_metrics().recovery_replayed_frames.get(), 1);
    assert_eq!(reopened.runs().len(), 1);
    assert!(!reopened.runs()[0].finished, "FinishRun was never recorded");
    let _ = std::fs::remove_file(&path);
}

/// An injected fsync failure must surface as a typed durability error —
/// never a panic — while the flushed bytes remain recoverable.
#[test]
fn fsync_failure_poisons_writer_with_typed_error() {
    let path = tmp("fsync");
    {
        let store = TraceStore::open_with_fault(&path, FaultPlan::fail_sync(1)).unwrap();
        let run = store.begin_run(&"wf".into());
        store.record_batch(run, vec![ev(0), ev(1)]);
        store.finish_run(run); // first sync: injected failure
        let err = store.durability().unwrap_err();
        assert!(matches!(err, StoreError::WalPoisoned { .. }));
        assert!(err.to_string().contains("injected fault"), "err: {err}");
    }
    // The flush inside `sync` preceded the injected fsync failure, so on
    // this (healthy) filesystem the frames are all in the file and replay;
    // the poisoning is about *reporting* — durability was never confirmed.
    let reopened = TraceStore::open(&path).unwrap();
    assert_eq!(reopened.trace_record_count(RunId(0)), 2);
    assert!(reopened.runs()[0].finished);
    let _ = std::fs::remove_file(&path);
}
