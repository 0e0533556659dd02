//! Replication torture: kill and re-sync followers at swept offsets of
//! the shipped WAL stream — mid-frame, mid-bootstrap, mid-resync — and
//! assert every survivor converges to a replica whose NI **and**
//! INDEXPROJ answers are bit-identical to the primary's, with
//! `repl.lag_frames` back at zero. Every primary is a `ProvServer` that
//! owns its store and ships its WAL on the serve port.
//!
//! Faults are injected with the store's own [`FaultPlan`] machinery,
//! wrapped around the follower's replication socket (`short_read` tears
//! the stream at an exact byte offset; `fail_read` errors the nth read),
//! and with hard kills (drop the follower, reopen, resume from the
//! recovered durable prefix). Two drivers share the oracle, mirroring
//! the crash/resume torture suites: a fixed offset sweep and a randomized
//! pass seeded from `CRASH_TORTURE_SEED` (printed, so failures replay).

use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use prov_engine::{Backoff, Clock, RetryPolicy, VirtualClock};
use prov_obs::{Journal, JournalEvent, Registry};
use prov_serve::protocol::{self as p, Hello, ServeQuery, TAG_HELLO};
use prov_serve::{DrainReport, Follower, FollowerConfig, ProvServer, RemoteSink};
use prov_serve::{ServeClient, ServeConfig, ServeError};
use prov_store::{verify_store, FaultPlan, SharedStore};
use prov_workgen::testbed;
use taverna_prov::prelude::*;

const CATCH_UP: Duration = Duration::from_secs(30);

/// The size of one shipped chunk of WAL frames (the primary's constant).
const CHUNK: u64 = 32 * 1024;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("repl-torture");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{}.wal", std::process::id()));
    cleanup(&path);
    path
}

/// Removes a case's WAL plus every sibling artifact (snapshots, repl
/// sidecar, journal) that hangs off its file name.
fn cleanup(path: &PathBuf) {
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

fn queries() -> Vec<LineageQuery> {
    [(0u32, 0u32), (0, 1), (1, 0), (1, 1)]
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

fn answers(
    df: &prov_dataflow::Dataflow,
    store: &TraceStore,
    runs: &[RunId],
) -> (Vec<LineageAnswer>, Vec<LineageAnswer>) {
    let ni: Vec<LineageAnswer> = queries()
        .iter()
        .flat_map(|q| NaiveLineage::new().run_multi(store, runs, q).unwrap())
        .collect();
    let ip: Vec<LineageAnswer> = queries()
        .iter()
        .flat_map(|q| IndexProj::new(df).run_multi(store, runs, q).unwrap())
        .collect();
    (ni, ip)
}

/// A primary with an ingested testbed workload and its reference answers.
struct Primary {
    df: prov_dataflow::Dataflow,
    store: SharedStore,
    path: PathBuf,
    runs: Vec<RunId>,
    ni: Vec<LineageAnswer>,
    ip: Vec<LineageAnswer>,
}

/// Builds a primary with `n_runs` testbed runs. With `snapshot_mid`, a
/// snapshot is taken after the first run, so the WAL leads with a marker
/// (fresh followers must bootstrap) and still has live tail frames.
fn primary(tag: &str, n_runs: usize, snapshot_mid: bool) -> Primary {
    let path = tmp(tag);
    let store = TraceStore::open(&path).unwrap();
    let df = testbed::generate(3);
    store.register_workflow(&ProcessorName::from("testbed"), serde_json::to_string(&df).unwrap());
    let mut runs: Vec<RunId> = vec![testbed::run(&df, 3, &store).run_id];
    if snapshot_mid {
        store.snapshot().unwrap();
    }
    runs.extend((1..n_runs).map(|_| testbed::run(&df, 3, &store).run_id));
    store.sync_wal().unwrap();
    store.durability().unwrap();
    let (ni, ip) = answers(&df, &store, &runs);
    Primary { df, store: SharedStore::new(store), path, runs, ni, ip }
}

/// Adds testbed runs to `p` until its WAL spans at least `bytes`, and
/// refreshes the reference answers.
fn grow(p: &mut Primary, bytes: u64) {
    while std::fs::metadata(&p.path).unwrap().len() < bytes {
        p.runs.push(testbed::run(&p.df, 3, &*p.store).run_id);
        p.store.sync_wal().unwrap();
    }
    (p.ni, p.ip) = answers(&p.df, &p.store, &p.runs);
}

/// The daemon that owns `p`'s store — and so ships its WAL — recording
/// `ReplFrameShipped` to `journal`.
fn daemon(p: &Primary, journal: Journal) -> ProvServer {
    let obs = Obs { journal, ..Obs::disabled() };
    ProvServer::start(p.store.clone(), obs, ServeConfig::default(), "127.0.0.1:0").unwrap()
}

fn fast_config(fault: Option<FaultPlan>) -> FollowerConfig {
    FollowerConfig {
        backoff: RetryPolicy::attempts(u32::MAX).with_backoff(Backoff::Fixed { micros: 2_000 }),
        read_fault: fault,
        ..FollowerConfig::default()
    }
}

/// The oracle: a fresh follower under `fault` must heal (the fault hits
/// only its first session), drain the primary, and answer identically.
fn follower_case(p: &Primary, server: &ProvServer, tag: &str, fault: Option<FaultPlan>) {
    let fdb = tmp(&format!("{tag}-f"));
    let journal = Journal::new(1 << 12);
    let follower = Follower::open(&fdb, journal).unwrap();
    let handle = follower.start(server.local_addr().to_string(), fast_config(fault));

    assert!(
        follower.wait_caught_up(CATCH_UP),
        "{tag}: follower never caught up; status {:?}",
        follower.status()
    );
    let status = follower.status();
    assert_eq!(status.lag_frames, 0, "{tag}: lag_frames");
    assert_eq!(status.lag_bytes, 0, "{tag}: lag_bytes");

    let fstore = follower.store();
    let (ni, ip) = answers(&p.df, &fstore, &p.runs);
    assert_eq!(ni, p.ni, "{tag}: NI answers diverged");
    assert_eq!(ip, p.ip, "{tag}: INDEXPROJ answers diverged");

    follower.stop();
    let _ = handle.join();
    drop(fstore);
    drop(follower);
    cleanup(&fdb);
}

#[test]
fn fixed_fault_offsets_heal_and_converge() {
    let p = primary("fixed", 2, false);
    let journal = Journal::new(1 << 14);
    let server = daemon(&p, journal.clone());

    // Byte offsets at which the stream is cut mid-flight: inside the
    // handshake, mid-frame, at chunk-ish boundaries, at and past the end.
    let total = std::fs::metadata(&p.path).unwrap().len();
    let offsets = [1, 7, 64, total / 4, total / 2, total - 1, total, total + 512];
    for (i, &off) in offsets.iter().enumerate() {
        follower_case(
            &p,
            &server,
            &format!("fixed-short-{i}-{off}"),
            Some(FaultPlan::short_read(off)),
        );
    }
    // Hard read errors at the nth socket read.
    for n in [1u64, 2, 5, 9] {
        follower_case(&p, &server, &format!("fixed-failread-{n}"), Some(FaultPlan::fail_read(n)));
    }
    // And a clean follower, for contrast.
    follower_case(&p, &server, "fixed-clean", None);

    assert!(
        journal.events().iter().any(|s| matches!(s.event, JournalEvent::ReplFrameShipped { .. })),
        "primary journal never recorded a shipped chunk"
    );
    server.shutdown();
    cleanup(&p.path);
}

#[test]
fn bootstrap_faults_mid_snapshot_heal() {
    // A compacting primary: the WAL leads with a snapshot marker, so a
    // fresh follower must bootstrap from the snapshot file.
    let p = primary("boot", 2, true);
    let report = verify_store(&p.path).unwrap();
    assert!(report.generation > 0, "workload too small to compact; no marker to bootstrap from");
    assert_eq!(report.marker_backed, Some(true));

    let server = daemon(&p, Journal::disabled());

    let snap = TraceStore::snapshot_file_for(&p.path, report.generation);
    let snap_len = std::fs::metadata(&snap).unwrap().len();
    // Cuts landing inside the bootstrap body (and just around it).
    let offsets = [1, 40, snap_len / 2, snap_len - 1, snap_len, snap_len + 16];
    for (i, &off) in offsets.iter().enumerate() {
        follower_case(
            &p,
            &server,
            &format!("boot-short-{i}-{off}"),
            Some(FaultPlan::short_read(off)),
        );
    }
    follower_case(&p, &server, "boot-clean", None);
    server.shutdown();
    cleanup(&p.path);
}

#[test]
fn killed_followers_resume_from_their_durable_prefix() {
    // Several chunks, so a kill can land between two of them.
    let mut p = primary("kill", 2, false);
    grow(&mut p, 4 * CHUNK);
    let server = daemon(&p, Journal::disabled());
    let addr = server.local_addr().to_string();
    let total = std::fs::metadata(&p.path).unwrap().len();
    let mut resumed_inside = 0;

    for (i, threshold) in [total / 8, total / 4, total / 2, (total * 3) / 4].into_iter().enumerate()
    {
        let tag = format!("kill-{i}-{threshold}");
        let fdb = tmp(&format!("{tag}-f"));

        // Phase 1: replicate until the local durable offset crosses the
        // threshold (or we're simply done), then kill the follower.
        {
            let follower = Follower::open(&fdb, Journal::disabled()).unwrap();
            let handle = follower.start(addr.clone(), fast_config(None));
            let deadline = Instant::now() + CATCH_UP;
            while follower.status().offset < threshold && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            follower.stop();
            let _ = handle.join();
        }

        // Phase 2: reopen — recovery hands back the durable prefix — and
        // finish the sync. No bootstrap may occur: the prefix CRC must
        // prove the kept bytes, and only frames past them are shipped.
        let follower = Follower::open(&fdb, Journal::disabled()).unwrap();
        let kept = follower.status().offset;
        if 0 < kept && kept < total {
            resumed_inside += 1;
        }
        let handle = follower.start(addr.clone(), fast_config(None));
        assert!(
            follower.wait_caught_up(CATCH_UP),
            "{tag}: follower never caught up after restart; status {:?}",
            follower.status()
        );
        let status = follower.status();
        assert_eq!(status.bootstraps, 0, "{tag}: restart must resume, not re-seed");
        assert_eq!(status.lag_frames, 0, "{tag}");

        let fstore = follower.store();
        let (ni, ip) = answers(&p.df, &fstore, &p.runs);
        assert_eq!(ni, p.ni, "{tag}: NI answers diverged");
        assert_eq!(ip, p.ip, "{tag}: INDEXPROJ answers diverged");

        // The strongest form of convergence: the follower's WAL is
        // byte-for-byte the primary's.
        let primary_bytes = std::fs::read(&p.path).unwrap();
        let follower_bytes = std::fs::read(&fdb).unwrap();
        assert_eq!(follower_bytes, primary_bytes, "{tag}: WALs are not byte-identical");

        follower.stop();
        let _ = handle.join();
        drop(fstore);
        drop(follower);
        cleanup(&fdb);
    }
    assert!(resumed_inside > 0, "no kill stopped inside the {total}-byte log");
    server.shutdown();
    cleanup(&p.path);
}

/// Polls until the follower's durable frame count equals the primary's
/// current one (and lag is zero).
fn wait_converged(follower: &Follower, primary: &TraceStore, tag: &str) {
    let deadline = Instant::now() + CATCH_UP;
    loop {
        let want = primary.repl_position().durable_frames;
        let s = follower.status();
        if s.frames == want && s.lag_frames == 0 && s.heard_from_primary {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{tag}: follower stuck at {:?}, primary at {want} frames",
            follower.status()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn live_appends_and_snapshots_resync() {
    let p = primary("live", 1, false);
    let server = daemon(&p, Journal::disabled());

    let fdb = tmp("live-f");
    let journal = Journal::new(1 << 12);
    let follower = Follower::open(&fdb, journal.clone()).unwrap();
    let handle = follower.start(server.local_addr().to_string(), fast_config(None));
    assert!(follower.wait_caught_up(CATCH_UP), "initial sync failed: {:?}", follower.status());

    // Live append: a new run lands while the follower is connected; it
    // must stream over without reconnecting.
    let mut runs = p.runs.clone();
    runs.push(testbed::run(&p.df, 3, &*p.store).run_id);
    p.store.sync_wal().unwrap();
    wait_converged(&follower, &p.store, "live-append");
    let (want_ni, want_ip) = answers(&p.df, &p.store, &runs);
    let fstore = follower.store();
    let (ni, ip) = answers(&p.df, &fstore, &runs);
    assert_eq!(ni, want_ni, "live-append: NI diverged");
    assert_eq!(ip, want_ip, "live-append: INDEXPROJ diverged");
    drop(fstore);

    // Snapshot: the WAL collapses to a marker on a new lineage. The
    // streaming connection must notice and resync; the follower's log is
    // no longer a prefix and must re-seed from the shipped snapshot file.
    p.store.snapshot().unwrap();
    wait_converged(&follower, &p.store, "snapshot");
    let fstore = follower.store();
    let (ni, ip) = answers(&p.df, &fstore, &runs);
    assert_eq!(ni, want_ni, "snapshot: NI diverged");
    assert_eq!(ip, want_ip, "snapshot: INDEXPROJ diverged");
    assert!(follower.status().resyncs > 0, "snapshot must force a resync");
    assert!(follower.status().bootstraps > 0, "snapshot must force a bootstrap");
    assert!(
        journal.events().iter().any(|s| matches!(s.event, JournalEvent::FollowerResync { .. })),
        "follower journal never recorded a resync"
    );

    follower.stop();
    let _ = handle.join();
    drop(fstore);
    drop(follower);
    server.shutdown();
    cleanup(&fdb);
    cleanup(&p.path);
}

/// A follower of `primary` (caught up) — or, with `None`, of no primary
/// at all — served read-only by its own `ProvServer`, whose metrics and
/// journal are on as under `tprov serve --follow`.
struct Replica {
    db: PathBuf,
    follower: Arc<Follower>,
    handle: Option<JoinHandle<()>>,
    server: Option<ProvServer>,
    registry: Registry,
}

fn replica(primary: Option<&ProvServer>, tag: &str, cfg: ServeConfig) -> Replica {
    let db = tmp(tag);
    let follower = Follower::open(&db, Journal::disabled()).unwrap();
    let obs = Obs {
        metrics: Registry::new(),
        profiler: prov_obs::Profiler::disabled(),
        journal: Journal::new(1 << 14),
    };
    let registry = obs.metrics.clone();
    let server = ProvServer::follow(Arc::clone(&follower), obs, cfg, "127.0.0.1:0").unwrap();
    let handle = primary.map(|p| follower.start(p.local_addr().to_string(), fast_config(None)));
    if handle.is_some() {
        assert!(follower.wait_caught_up(CATCH_UP), "{tag}: {:?}", follower.status());
    }
    Replica { db, follower, handle, server: Some(server), registry }
}

impl Replica {
    fn addr(&self) -> String {
        self.server.as_ref().unwrap().local_addr().to_string()
    }

    fn client(&self) -> ServeClient {
        ServeClient::connect(&self.addr()).unwrap()
    }

    /// Drains the server, then stops the follower — `tprov serve
    /// --follow`'s exit order.
    fn stop(&mut self) -> DrainReport {
        let report = self.server.take().unwrap().shutdown();
        self.follower.stop();
        if let Some(h) = self.handle.take() {
            h.join().unwrap();
        }
        report
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        if self.server.is_some() {
            self.stop();
        }
        cleanup(&self.db);
    }
}

/// A primary with `n_runs` testbed runs, its daemon, and a replica daemon
/// of it; dropping it tears all three down.
struct Replicated {
    r: Replica,
    _ship: ProvServer,
    p: Primary,
}

fn replicated(tag: &str, n_runs: usize, cfg: ServeConfig) -> Replicated {
    let p = primary(tag, n_runs, false);
    let ship = daemon(&p, Journal::disabled());
    let r = replica(Some(&ship), &format!("{tag}-f"), cfg);
    Replicated { r, _ship: ship, p }
}

impl Drop for Replicated {
    fn drop(&mut self) {
        cleanup(&self.p.path);
    }
}

fn request(query: &str, algo: &str, all_runs: bool) -> ServeQuery {
    ServeQuery {
        query: query.into(),
        run: 0,
        all_runs,
        algo: algo.into(),
        wf: None,
        deadline_ms: None,
    }
}

/// What `exec` renders for `req` on the primary's own store.
fn on_primary(store: &TraceStore, req: &ServeQuery) -> Vec<String> {
    let local = taverna_prov::lineage::QueryRequest {
        query: &req.query,
        runs: if req.all_runs { RunSelection::All } else { RunSelection::One(RunId(req.run)) },
        algo: &req.algo,
        wf: None,
    };
    let (obs, ctx, workflows) = (Obs::disabled(), QueryCtx::new(&*req.query), WorkflowCache::new());
    let env = Env { store, workflow: None, workflows: &workflows, obs: &obs, ctx: &ctx };
    exec(&env, &local).unwrap().answers.iter().map(|a| a.to_string()).collect()
}

const LIN: &str = "lin(<testbed:product[0,1]>, {LISTGEN_1})";

#[test]
fn replica_queries_render_identically_and_refuse_stale() {
    let f = replicated("query", 2, ServeConfig::default());
    let mut client = f.r.client();

    // Both algorithms, bounded at zero staleness: a caught-up replica of a
    // static primary answers, and renders byte-identically to the same
    // execution on the primary.
    for algo in ["ni", "indexproj"] {
        let req = request(LIN, algo, true);
        let ok = client.query_bounded(&req, Some(0)).unwrap();
        assert_eq!(ok.answers, on_primary(&f.p.store, &req), "{algo}: replica rendering diverged");
        assert_eq!(ok.replica.unwrap().lag_frames, 0);
    }

    // A follower that has never reached any primary has unknown lag: any
    // bounded query gets the typed staleness refusal, however generous
    // the bound; an unbounded one is answered from local state.
    let lonely = replica(None, "query-lonely", ServeConfig::default());
    let mut client = lonely.client();
    let req = request(LIN, "ni", false);
    match client.query_bounded(&req, Some(1_000_000)) {
        Err(ServeError::ReplicaStale { lag_frames, max_lag }) => {
            assert_eq!(lag_frames, u64::MAX);
            assert_eq!(max_lag, 1_000_000);
        }
        other => panic!("expected a typed staleness refusal, got {other:?}"),
    }
    let ok = client.query_bounded(&req, None).unwrap();
    assert_eq!(ok.replica.unwrap().lag_frames, u64::MAX);
}

/// A replica keeps the registered workflow and its plans resident across
/// queries, and its cache turns over when — and only when — a replicated
/// `Workflow` record changes the registration: no hook beyond the record
/// itself arriving through `apply_replicated`.
#[test]
fn replica_cache_turns_over_with_a_replicated_workflow_record() {
    let Replicated { r, p, .. } = &replicated("cache", 1, ServeConfig::default());
    let mut client = r.client();
    let req = request(
        "lin(<2TO1_FINAL:Y[0,1]>, {LISTGEN_1,CHAIN_A_1,CHAIN_A_2,CHAIN_A_3})",
        "indexproj",
        true,
    );
    let counters = || {
        let snap = r.registry.snapshot();
        [
            snap.counter("workflow_cache.loads"),
            snap.counter("workflow_cache.hits"),
            snap.counter("plan_cache.misses"),
            snap.counter("plan_cache.hits"),
        ]
    };

    let before = on_primary(&p.store, &req);
    for _ in 0..3 {
        assert_eq!(client.query(&req).unwrap(), before);
    }
    assert_eq!(counters(), [1, 2, 1, 2]);

    // Identical bytes and a new run: more records arrive, the entry stays.
    let spec = serde_json::to_string(&p.df).unwrap();
    p.store.register_workflow(&ProcessorName::from("testbed"), spec);
    testbed::run(&p.df, 3, &*p.store);
    p.store.sync_wal().unwrap();
    wait_converged(&r.follower, &p.store, "cache-same");
    assert_eq!(client.query(&req).unwrap(), on_primary(&p.store, &req));
    assert_eq!(counters(), [1, 3, 1, 3]);

    // Different bytes under the same name: the next replica answer is
    // planned against the new specification, like the primary's.
    let shorter = serde_json::to_string(&testbed::generate(2)).unwrap();
    p.store.register_workflow(&ProcessorName::from("testbed"), shorter);
    p.store.sync_wal().unwrap();
    wait_converged(&r.follower, &p.store, "cache-new");
    let after = on_primary(&p.store, &req);
    assert_ne!(after[0], before[0], "the shorter chain must change the answer");
    assert_eq!(client.query(&req).unwrap(), after);
    assert_eq!(counters(), [2, 3, 2, 3]);
}

#[test]
fn replica_daemon_refuses_ingest_as_read_only_and_keeps_the_session() {
    let f = replicated("ro", 1, ServeConfig::default());
    let mut stream = f.r.client().into_stream();
    let begin = p::IngestBegin { workflow: "testbed".into(), workflow_json: None };
    p::write_json(&mut stream, p::TAG_INGEST_BEGIN, &begin).unwrap();
    let batch = p::IngestBatch { run: 0, seq: 0, events: Vec::new() };
    p::write_json(&mut stream, p::TAG_INGEST_BATCH, &batch).unwrap();
    p::write_json(&mut stream, p::TAG_INGEST_FINISH, &p::IngestFinish { run: 0, seq: 0 }).unwrap();
    for frame in ["INGEST_BEGIN", "INGEST_BATCH", "INGEST_FINISH"] {
        let (tag, payload) = p::read_msg(&mut stream).unwrap().unwrap();
        assert_eq!(tag, p::TAG_ERR, "{frame}");
        let err: p::ServeErrorMsg = p::decode(&payload).unwrap();
        assert_eq!(err.code, "read_only", "{frame}: {err:?}");
    }

    // The same session still answers, from the unchanged replica.
    let req = request(LIN, "ni", true);
    p::write_json(&mut stream, p::TAG_QUERY, &req).unwrap();
    let (tag, payload) = p::read_msg(&mut stream).unwrap().unwrap();
    assert_eq!(tag, p::TAG_QUERY_OK);
    let ok: p::ServeQueryOk = p::decode(&payload).unwrap();
    assert_eq!(ok.answers, on_primary(&f.p.store, &req));
    assert_eq!(f.r.follower.store().runs().len(), f.p.runs.len(), "a refused ingest began a run");
}

/// A `VirtualClock` that moves 1 ms forward on every reading: a request's
/// deadline passes during its own execution, without a sleep.
#[derive(Debug, Default)]
struct Ticking(VirtualClock);

impl Clock for Ticking {
    fn now_micros(&self) -> u64 {
        self.0.sleep_micros(1_000);
        self.0.now_micros()
    }

    fn sleep_micros(&self, micros: u64) {
        self.0.sleep_micros(micros);
    }
}

#[test]
fn replica_daemon_times_out_past_its_deadline_on_a_virtual_clock() {
    let cfg = ServeConfig { clock: Arc::new(Ticking::default()), ..ServeConfig::default() };
    let f = replicated("deadline", 1, cfg);
    let mut client = f.r.client();
    let expired = ServeQuery { deadline_ms: Some(0), ..request(LIN, "ni", true) };
    match client.query(&expired) {
        Err(ServeError::Timeout { .. }) => {}
        other => panic!("expected a typed timeout, got {other:?}"),
    }
    assert_eq!(f.r.registry.snapshot().counter("serve.request_timeouts"), 1);
    // No deadline, same session: answered.
    let req = request(LIN, "ni", true);
    assert_eq!(client.query(&req).unwrap(), on_primary(&f.p.store, &req));
}

#[test]
fn replica_daemon_refuses_the_connection_past_its_limit_as_busy() {
    let f = replicated("busy", 1, ServeConfig { max_connections: 2, ..ServeConfig::default() });
    let _held = (f.r.client(), f.r.client());
    match ServeClient::connect(&f.r.addr()) {
        Err(ServeError::Busy { active, limit }) => assert_eq!((active, limit), (2, 2)),
        other => panic!("expected a typed busy refusal, got {other:?}"),
    }
    assert_eq!(f.r.registry.snapshot().counter("serve.conns_refused"), 1);
}

/// A follower's drain must not snapshot: that would truncate its WAL to a
/// marker, so it would no longer be a byte prefix of the primary's and
/// the next start would need a bootstrap.
#[test]
fn replica_daemon_drain_keeps_the_wal_a_byte_prefix() {
    let mut f = replicated("drain", 2, ServeConfig::default());
    let snapshots = TraceStore::snapshot_files(&f.r.db);
    let req = request(LIN, "indexproj", true);
    assert_eq!(f.r.client().query(&req).unwrap(), on_primary(&f.p.store, &req));

    let report = f.r.stop();
    assert!(!report.forced, "{report:?}");
    assert_eq!(
        std::fs::read(&f.r.db).unwrap(),
        std::fs::read(&f.p.path).unwrap(),
        "the drained replica's WAL is no longer the primary's bytes"
    );
    assert_eq!(TraceStore::snapshot_files(&f.r.db), snapshots, "the drain wrote a snapshot");
}

/// A primary's answer carries no position, so any lag bound passes.
#[test]
fn primary_daemon_answers_any_lag_bound() {
    let store = SharedStore::new(TraceStore::in_memory());
    let df = testbed::generate(3);
    store.register_workflow(&ProcessorName::from("testbed"), serde_json::to_string(&df).unwrap());
    testbed::run(&df, 3, &*store);
    let cfg = ServeConfig::default();
    let server = ProvServer::start(store.clone(), Obs::disabled(), cfg, "127.0.0.1:0").unwrap();
    let mut client = ServeClient::connect(&server.local_addr().to_string()).unwrap();
    let req = request(LIN, "indexproj", true);
    let ok = client.query_bounded(&req, Some(0)).unwrap();
    assert_eq!(ok.replica, None);
    assert_eq!(ok.answers, on_primary(&store, &req));
    drop(client);
    server.shutdown();
}

/// A follower of `p`'s daemon at `addr`, caught up.
fn follow(addr: &str, tag: &str) -> (PathBuf, Arc<Follower>, JoinHandle<()>) {
    let fdb = tmp(tag);
    let follower = Follower::open(&fdb, Journal::disabled()).unwrap();
    let handle = follower.start(addr, fast_config(None));
    assert!(follower.wait_caught_up(CATCH_UP), "{tag}: {:?}", follower.status());
    (fdb, follower, handle)
}

/// The follower's WAL is the primary's, byte for byte, and answers the
/// primary's reference queries over `runs`.
fn assert_replicates(follower: &Follower, fdb: &PathBuf, p: &Primary, runs: &[RunId], tag: &str) {
    assert_eq!(std::fs::read(fdb).unwrap(), std::fs::read(&p.path).unwrap(), "{tag}: WAL bytes");
    let fstore = follower.store();
    assert_eq!(answers(&p.df, &fstore, runs), answers(&p.df, &p.store, runs), "{tag}: answers");
}

/// A run a workflow engine streams into the daemon reaches a follower of
/// that daemon: the one listener ingests, fsyncs and ships.
#[test]
fn primary_daemon_ships_a_remote_sink_run_to_a_streaming_follower() {
    let p = primary("sink", 1, false);
    let server = daemon(&p, Journal::disabled());
    let addr = server.local_addr().to_string();
    let (fdb, follower, handle) = follow(&addr, "sink-f");

    let sink = RemoteSink::connect(&addr, Some(serde_json::to_string(&p.df).unwrap())).unwrap();
    let run = testbed::run(&p.df, 3, &sink).run_id;
    assert_eq!(sink.error(), None);
    wait_converged(&follower, &p.store, "sink");
    let runs: Vec<RunId> = p.runs.iter().copied().chain([run]).collect();
    assert_replicates(&follower, &fdb, &p, &runs, "sink");
    assert_eq!(follower.status().bootstraps, 0, "a live append must stream, not re-seed");

    follower.stop();
    handle.join().unwrap();
    server.shutdown();
    cleanup(&fdb);
    cleanup(&p.path);
}

/// A streaming follower holds a session, and the drain ends it before the
/// snapshot: the drain is clean. The snapshot starts a new WAL lineage, so
/// a daemon restarted on the same WAL re-seeds the follower by bootstrap.
#[test]
fn primary_daemon_drain_ends_the_stream_and_a_restart_bootstraps_it() {
    let p = primary("restart", 2, false);
    let server = daemon(&p, Journal::disabled());
    let addr = server.local_addr().to_string();
    let (fdb, follower, handle) = follow(&addr, "restart-f");

    let report = server.shutdown();
    assert!(!report.forced, "a WAL stream held the drain: {report:?}");
    assert!(p.store.repl_position().generation > 0, "the drain did not snapshot");

    // The same WAL, reopened by a new owner on the same port.
    let Primary { df, store, path, runs, ni, ip } = p;
    drop(store);
    let p = Primary { df, store: SharedStore::open(&path).unwrap(), path, runs, ni, ip };
    let server =
        ProvServer::start(p.store.clone(), Obs::disabled(), ServeConfig::default(), &addr).unwrap();
    wait_converged(&follower, &p.store, "restart");
    assert!(follower.status().bootstraps > 0, "{:?}", follower.status());
    assert_replicates(&follower, &fdb, &p, &p.runs, "restart");

    follower.stop();
    handle.join().unwrap();
    server.shutdown();
    cleanup(&fdb);
    cleanup(&p.path);
}

/// `HELLO` where no WAL can ship gets a typed refusal, not a hang or a
/// dropped connection: `read_only` from a follower (it does not ship
/// onward), `bad_request` from an in-memory store and for a payload that
/// does not decode. Each session still answers a `PING`.
#[test]
fn daemon_hello_without_a_wal_to_ship_is_refused_and_keeps_the_session() {
    let hello =
        Hello { generation: 0, offset: 0, frames: 0, prefix_crc: 0, force_bootstrap: false };
    let hello = serde_json::to_vec(&hello).unwrap();
    let lonely = replica(None, "hello-ro", ServeConfig::default());
    let memory = SharedStore::new(TraceStore::in_memory());
    let memory =
        ProvServer::start(memory, Obs::disabled(), ServeConfig::default(), "127.0.0.1:0").unwrap();
    let p = primary("hello", 1, false);
    let durable = daemon(&p, Journal::disabled());
    let cases = [
        (lonely.addr(), hello.clone(), "read_only"),
        (memory.local_addr().to_string(), hello, "bad_request"),
        (durable.local_addr().to_string(), b"{\"offset\":".to_vec(), "bad_request"),
    ];
    for (addr, payload, code) in cases {
        let mut stream = ServeClient::connect(&addr).unwrap().into_stream();
        p::write_msg(&mut stream, TAG_HELLO, &payload).unwrap();
        let (tag, reply) = p::read_msg(&mut stream).unwrap().unwrap();
        assert_eq!(tag, p::TAG_ERR, "{code}");
        let err: p::ServeErrorMsg = p::decode(&reply).unwrap();
        assert_eq!(err.code, code, "{err:?}");
        p::write_msg(&mut stream, p::TAG_PING, &[]).unwrap();
        let (tag, _) = p::read_msg(&mut stream).unwrap().unwrap();
        assert_eq!(tag, p::TAG_PONG, "{code}: the session did not survive the refusal");
    }
    memory.shutdown();
    durable.shutdown();
    cleanup(&p.path);
}

/// A follower is one more session under the daemon's admission limit: past
/// it, the follower is refused with `busy`, backs off, and converges once
/// a slot frees.
#[test]
fn primary_daemon_refuses_a_follower_past_its_limit_then_ships_to_it() {
    let p = primary("admit", 1, false);
    let obs = Obs { metrics: Registry::new(), ..Obs::disabled() };
    let registry = obs.metrics.clone();
    let cfg = ServeConfig { max_connections: 1, ..ServeConfig::default() };
    let server = ProvServer::start(p.store.clone(), obs, cfg, "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    let held = ServeClient::connect(&addr).unwrap();

    let fdb = tmp("admit-f");
    let follower = Follower::open(&fdb, Journal::disabled()).unwrap();
    let handle = follower.start(&addr, fast_config(None));
    // Two refusals: the follower took the first as a disconnect and retried.
    let deadline = Instant::now() + CATCH_UP;
    while registry.snapshot().counter("serve.conns_refused") < 2 {
        assert!(Instant::now() < deadline, "the follower was never refused");
        std::thread::sleep(Duration::from_millis(1));
    }
    let s = follower.status();
    assert!(s.reconnects >= 1 && !s.heard_from_primary && s.frames == 0, "{s:?}");

    drop(held);
    assert!(follower.wait_caught_up(CATCH_UP), "{:?}", follower.status());
    assert_replicates(&follower, &fdb, &p, &p.runs, "admit");

    follower.stop();
    handle.join().unwrap();
    server.shutdown();
    cleanup(&fdb);
    cleanup(&p.path);
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
fn seeded_fault_offsets_heal_and_converge() {
    let seed = std::env::var("CRASH_TORTURE_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0xC0FFEE);
    eprintln!("repl-torture seed: {seed} (replay with CRASH_TORTURE_SEED={seed})");
    let p = primary("seed", 2, true);
    let server = daemon(&p, Journal::disabled());
    let total = std::fs::metadata(&p.path).unwrap().len();
    let mut rng = Rng(seed);
    for case in 0..6 {
        let plan = if case % 2 == 0 {
            FaultPlan::short_read(rng.next() % (total + 128))
        } else {
            FaultPlan::fail_read(1 + rng.next() % 12)
        };
        follower_case(&p, &server, &format!("seed-{case}"), Some(plan));
    }
    server.shutdown();
    cleanup(&p.path);
}
