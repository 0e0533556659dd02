//! Resume torture: crash a run at an arbitrary byte offset of its durable
//! trace — including mid-snapshot, via the per-handle fault budgets — then
//! reopen the store and `Engine::resume`. The resumed run must be
//! indistinguishable from an uninterrupted one:
//!
//! * bit-identical outputs, status, and failed-invocation accounting;
//! * bit-identical NI **and** INDEXPROJ lineage answers;
//! * recovery bounded by the snapshot cadence of [`Snapshotting`]
//!   (`recovery_replayed_frames <= MAX_FRAMES`).
//!
//! Two drivers share one oracle, mirroring `crash_torture.rs`: a fixed
//! offset sweep and a randomized pass seeded from `CRASH_TORTURE_SEED`
//! (printed, so failures replay).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use prov_engine::{
    Backoff, RetryPolicy, TraceEvent, TraceSink, VirtualClock, XferEvent, XformEvent,
};
use prov_store::FaultPlan;
use taverna_prov::prelude::*;

const MAX_FRAMES: u64 = 4;

/// Records into `store` and snapshots it once `MAX_FRAMES` WAL frames have
/// landed since the last snapshot, so a crash at any point leaves at most
/// that many frames to replay. Counts the snapshots that failed on a
/// healthy store: the crashes that landed inside a snapshot.
struct Snapshotting<'a> {
    store: &'a TraceStore,
    /// `wal_metrics().frames` right after the last snapshot.
    mark: AtomicU64,
    failed: AtomicU64,
}

impl<'a> Snapshotting<'a> {
    fn new(store: &'a TraceStore) -> Self {
        Snapshotting { store, mark: AtomicU64::new(0), failed: AtomicU64::new(0) }
    }

    fn after_append(&self) {
        let frames = || self.store.wal_metrics().frames.get();
        if frames() - self.mark.load(Ordering::Relaxed) < MAX_FRAMES {
            return;
        }
        let healthy = self.store.durability().is_ok();
        if self.store.snapshot().is_err() && healthy {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.mark.store(frames(), Ordering::Relaxed);
    }
}

impl TraceSink for Snapshotting<'_> {
    fn begin_run(&self, workflow: &ProcessorName) -> RunId {
        let run = self.store.begin_run(workflow);
        self.after_append();
        run
    }
    fn record_xform(&self, run: RunId, event: XformEvent) {
        self.store.record_xform(run, event);
        self.after_append();
    }
    fn record_xfer(&self, run: RunId, event: XferEvent) {
        self.store.record_xfer(run, event);
        self.after_append();
    }
    fn record_batch(&self, run: RunId, events: Vec<TraceEvent>) {
        self.store.record_batch(run, events);
        self.after_append();
    }
    fn finish_run(&self, run: RunId) {
        self.store.finish_run(run);
        self.after_append();
    }
}

/// The workload: tag each element, pass it through a nested scope, then a
/// flaky processor that exhausts its retries on "bad" elements. Covers
/// iteration, nested-scope qualified names, xfer chains, and error tokens.
fn workflow() -> prov_dataflow::Dataflow {
    let mut inner = DataflowBuilder::new("subwf");
    inner.input("v", PortType::atom(BaseType::String));
    inner
        .processor_with_behavior("Q", "q_tag")
        .in_port("x", PortType::atom(BaseType::String))
        .out_port("y", PortType::atom(BaseType::String));
    inner.arc_from_input("v", "Q", "x").unwrap();
    inner.output("w", PortType::atom(BaseType::String));
    inner.arc_to_output("Q", "y", "w").unwrap();
    let inner = Arc::new(inner.build().unwrap());

    let mut b = DataflowBuilder::new("wf");
    b.input("xs", PortType::list(BaseType::String));
    b.processor_with_behavior("A", "tag")
        .in_port("x", PortType::atom(BaseType::String))
        .out_port("y", PortType::atom(BaseType::String));
    b.arc_from_input("xs", "A", "x").unwrap();
    b.nested("sub", inner);
    b.arc("A", "y", "sub", "v").unwrap();
    b.processor_with_behavior("B", "maybe_fail")
        .in_port("x", PortType::atom(BaseType::String))
        .out_port("y", PortType::atom(BaseType::String));
    b.arc("sub", "w", "B", "x").unwrap();
    b.output("ys", PortType::list(BaseType::String));
    b.arc_to_output("B", "y", "ys").unwrap();
    b.build().unwrap()
}

fn registry() -> BehaviorRegistry {
    let mut reg = BehaviorRegistry::new();
    let tag = |inputs: &[Value]| -> Result<Vec<Value>, String> {
        let s = inputs[0].as_atom().and_then(Atom::as_str).ok_or("string expected")?;
        Ok(vec![Value::str(&format!("{s}!"))])
    };
    reg.register_fn("tag", tag);
    reg.register_fn("q_tag", |inputs| {
        let s = inputs[0].as_atom().and_then(Atom::as_str).ok_or("string expected")?;
        Ok(vec![Value::str(&format!("{s}-q"))])
    });
    reg.register_fn("maybe_fail", |inputs| {
        let s = inputs[0].as_atom().and_then(Atom::as_str).ok_or("string expected")?;
        if s.contains("bad") {
            Err(format!("rejected {s:?}"))
        } else {
            Ok(vec![Value::str(&format!("{s}?"))])
        }
    });
    reg
}

fn engine() -> Engine {
    // Deterministic retry with seeded jitter under a virtual clock: the
    // schedule replays identically on resume without real sleeping.
    Engine::new(registry()).with_clock(Arc::new(VirtualClock::new())).with_retry_for(
        "B",
        RetryPolicy::attempts(2).with_backoff(Backoff::Fixed { micros: 50 }).with_jitter(0xDECAF),
    )
}

fn inputs() -> Vec<(String, Value)> {
    vec![("xs".into(), Value::from(vec!["ok-0", "bad-1", "ok-2", "ok-3", "bad-4"]))]
}

fn queries() -> Vec<LineageQuery> {
    let mut qs = Vec::new();
    for i in 0..5u32 {
        // Full-depth lineage of each workflow output element, focused on
        // every recording scope, including the nested one.
        qs.push(LineageQuery::focused(
            PortRef::new("wf", "ys"),
            Index::single(i),
            [
                ProcessorName::from("wf"),
                ProcessorName::from("A"),
                ProcessorName::from("sub/Q"),
                ProcessorName::from("B"),
            ],
        ));
    }
    qs
}

/// A path no other call — in this process or a concurrent one — hands out:
/// tests run on parallel threads and share tags (`reference`).
fn tmp(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join("prov-resume-torture");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{}-{n}.wal", std::process::id()));
    cleanup(&path);
    path
}

/// Removes a case's WAL and any snapshot generations beside it.
fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    if let (Some(dir), Some(name)) = (path.parent(), path.file_name().and_then(|n| n.to_str())) {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                if entry.file_name().to_string_lossy().starts_with(&format!("{name}.snap.")) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
    }
}

/// The uninterrupted run every crashed case must be indistinguishable
/// from: outcome, lineage answers (both algorithms), and the cumulative
/// WAL bytes the workload writes (scales crash offsets).
struct Reference {
    df: prov_dataflow::Dataflow,
    outcome: RunOutcome,
    ni: Vec<LineageAnswer>,
    ip: Vec<LineageAnswer>,
    wal_bytes: u64,
    records: u64,
}

fn reference() -> Reference {
    let df = workflow();
    let path = tmp("reference");
    let store = TraceStore::open(&path).unwrap();
    let outcome = engine().execute(&df, inputs(), &Snapshotting::new(&store)).unwrap();
    store.durability().unwrap();
    assert!(
        store.snapshot_metrics().snapshots.get() > 0,
        "the workload must be big enough to snapshot at least once"
    );
    let (ni, ip) = answers(&df, &store, outcome.run_id);
    let wal_bytes = store.wal_metrics().bytes_written.get();
    let records = store.trace_record_count(outcome.run_id);
    drop(store);
    cleanup(&path);
    Reference { df, outcome, ni, ip, wal_bytes, records }
}

fn answers(
    df: &prov_dataflow::Dataflow,
    store: &TraceStore,
    run: RunId,
) -> (Vec<LineageAnswer>, Vec<LineageAnswer>) {
    let ni: Vec<LineageAnswer> =
        queries().iter().map(|q| NaiveLineage::new().run(store, run, q).unwrap()).collect();
    let ip: Vec<LineageAnswer> =
        queries().iter().map(|q| IndexProj::new(df).run(store, run, q).unwrap()).collect();
    (ni, ip)
}

/// The oracle: run under a fault plan, "crash" (drop the store), reopen,
/// resume, and compare everything against the uninterrupted reference.
/// Returns how many snapshots the crash failed.
fn torture_case(reference: &Reference, tag: &str, plan: FaultPlan) -> u64 {
    let path = tmp(tag);
    let mut failed_snapshots = 0;

    // Crashed attempt. The engine itself always finishes (durability
    // failures poison the store, they don't abort execution) — the crash
    // is simulated by dropping the store, leaving only the durable prefix.
    {
        match TraceStore::open_with_fault(&path, plan) {
            Ok(store) => {
                let sink = Snapshotting::new(&store);
                let _ = engine().execute(&reference.df, inputs(), &sink);
                failed_snapshots = sink.failed.into_inner();
            }
            Err(_) => {
                // The budget tripped before the store finished opening:
                // equivalent to a crash before the first write.
            }
        }
    }

    // Reopen healthy and resume (or start fresh when not even BeginRun
    // survived — the trace then has no run 0 to pick up).
    let store = TraceStore::open(&path).unwrap();
    assert!(
        store.wal_metrics().recovery_replayed_frames.get() <= MAX_FRAMES,
        "{tag}: recovery replayed {} frames, snapshots every {MAX_FRAMES}",
        store.wal_metrics().recovery_replayed_frames.get()
    );
    let run0 = store.runs().iter().any(|i| i.id == RunId(0));
    let outcome = if run0 {
        engine().resume(&reference.df, inputs(), &store, RunId(0)).unwrap()
    } else {
        engine().execute(&reference.df, inputs(), &store).unwrap()
    };
    store.durability().unwrap();

    // Bit-identical outcome: outputs, status, failure accounting, run id.
    assert_eq!(outcome, reference.outcome, "{tag}: resumed outcome diverged");

    // Exactly the reference's rows: nothing lost, and — because resume
    // suppresses already-durable xform/xfer records — nothing duplicated.
    assert_eq!(
        store.trace_record_count(outcome.run_id),
        reference.records,
        "{tag}: resumed trace row count diverged"
    );

    // Bit-identical lineage answers, both algorithms.
    let (ni, ip) = answers(&reference.df, &store, outcome.run_id);
    assert_eq!(ni, reference.ni, "{tag}: NI answers diverged");
    assert_eq!(ip, reference.ip, "{tag}: INDEXPROJ answers diverged");

    // And the resumed trace is internally consistent.
    assert!(prov_core::audit_run(&reference.df, &store, outcome.run_id).unwrap().is_clean());

    drop(store);
    cleanup(&path);
    failed_snapshots
}

#[test]
fn fixed_crash_offsets_resume_bit_identically() {
    let r = reference();
    let total = r.wal_bytes;
    assert!(total > 64, "workload too small to be interesting");
    // Fault budgets are per file handle, so one offset exercises different
    // phases on different handles: small ones tear the first WAL handle,
    // mid-range ones crash snapshot writes or post-snapshot WAL tails,
    // and out-of-range ones never fire (a finished run is resumed as-is).
    let offsets =
        [0, 1, 7, 13, total / 4, total / 2, (total * 3) / 4, total - 1, total, total + 64];
    let mut failed_snapshots = 0;
    for (i, &offset) in offsets.iter().enumerate() {
        failed_snapshots +=
            torture_case(&r, &format!("fixed-{i}-{offset}"), FaultPlan::crash_at(offset));
    }
    assert!(failed_snapshots > 0, "no fixed offset crashed inside a snapshot");
    // A failed fsync poisons the writer without tearing bytes: everything
    // flushed is durable, nothing was confirmed — resume must still agree.
    torture_case(&r, "fsync", FaultPlan::fail_sync(1));
}

/// Splitmix64 — deterministic offsets for the seeded pass.
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

#[test]
fn seeded_crash_offsets_resume_bit_identically() {
    let seed = std::env::var("CRASH_TORTURE_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0xC0FFEE);
    eprintln!("resume-torture seed: {seed} (replay with CRASH_TORTURE_SEED={seed})");
    let r = reference();
    let mut rng = Rng(seed);
    for case in 0..8 {
        let offset = rng.next() % (r.wal_bytes + 65);
        torture_case(&r, &format!("seed-{case}-{offset}"), FaultPlan::crash_at(offset));
    }
}
