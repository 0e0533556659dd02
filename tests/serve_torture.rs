//! Serve torture: writer clients and query clients hammer one daemon
//! while the harness kills clients mid-frame (a tag with no length, a
//! torn length word, a payload cut short), replays ingest streams cut at
//! [`FaultPlan`]-chosen byte offsets, probes the inbound frame-length
//! guard, and begins a drain — the exact SIGTERM path — mid-load.
//!
//! The oracle mirrors the replication torture suite: a sequential local
//! ingest of the same workload. After every storm the daemon's store
//! must reopen clean ([`verify_store`]), every acked ingest batch must
//! be durable (the reopened store's frame count covers the highest ack),
//! every surviving run must answer NI ≡ INDEXPROJ bit-identically to the
//! oracle, and every refused or expired request must have failed with a
//! *typed* error, never a hang or a torn reply. Two drivers share the
//! harness: a fixed storm and a randomized pass seeded from
//! `CRASH_TORTURE_SEED` (printed, so failures replay).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use prov_engine::{PortBinding, TraceEvent, XformEvent};
use prov_obs::{Journal, Obs, Registry};
use prov_serve::protocol as p;
use prov_serve::{ProvServer, RemoteSink, ServeClient, ServeConfig, ServeError};
use prov_store::{verify_store, FaultPlan, FaultReader, SharedStore};
use prov_workgen::testbed;
use taverna_prov::prelude::*;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("prov-serve-torture");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{}.wal", std::process::id()));
    cleanup(&path);
    path
}

/// Removes a case's WAL plus every sibling artifact (snapshots, serve
/// sidecars, journal) that hangs off its file name.
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

/// A running daemon over a fresh store, with a handle on its metric
/// registry so tests can assert the serve.* counters moved.
struct Daemon {
    path: PathBuf,
    registry: Registry,
    server: Option<ProvServer>,
}

fn daemon(tag: &str, cfg: ServeConfig) -> Daemon {
    let path = tmp(tag);
    let store = SharedStore::open(&path).unwrap();
    let obs = Obs {
        metrics: Registry::new(),
        profiler: prov_obs::Profiler::disabled(),
        journal: Journal::new(1 << 14),
    };
    let registry = obs.metrics.clone();
    let server = ProvServer::start(store, obs, cfg, "127.0.0.1:0").unwrap();
    Daemon { path, registry, server: Some(server) }
}

impl Daemon {
    fn addr(&self) -> String {
        self.server.as_ref().unwrap().local_addr().to_string()
    }

    fn begin_drain(&self) {
        self.server.as_ref().unwrap().begin_drain();
    }

    fn shutdown(&mut self) -> prov_serve::DrainReport {
        self.server.take().unwrap().shutdown()
    }
}

/// Streams one testbed run into the daemon through a [`RemoteSink`],
/// returning the daemon's durable frame count at the final ack.
fn stream_run(addr: &str, wf_json: &str, df: &prov_dataflow::Dataflow) -> Result<u64, ServeError> {
    let sink = RemoteSink::connect(addr, Some(wf_json.to_string()))?;
    testbed::run(df, 3, &sink);
    if let Some(e) = sink.error() {
        return Err(e);
    }
    Ok(sink.durable_frames())
}

/// Reads and discards the daemon's WELCOME frame from a raw socket.
fn consume_welcome(s: &mut TcpStream) -> bool {
    let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
    let mut hdr = [0u8; 5];
    if s.read_exact(&mut hdr).is_err() {
        return false;
    }
    let len = u32::from_le_bytes([hdr[1], hdr[2], hdr[3], hdr[4]]) as usize;
    let mut payload = vec![0u8; len];
    s.read_exact(&mut payload).is_ok()
}

/// A client that dies mid-frame: handshakes, writes a deliberately
/// incomplete frame, and drops the socket. The daemon's session must
/// fail cleanly without touching any other session.
fn kill_mid_frame(addr: &str, variant: usize) {
    let Ok(mut s) = TcpStream::connect(addr) else { return };
    if !consume_welcome(&mut s) {
        return;
    }
    match variant % 3 {
        // A tag with no length word behind it.
        0 => {
            let _ = s.write_all(&[p::TAG_QUERY]);
        }
        // A length word torn after two of its four bytes.
        1 => {
            let _ = s.write_all(&[p::TAG_INGEST_BEGIN, 0xE8, 0x03]);
        }
        // A declared 1000-byte payload cut off after 10 bytes.
        _ => {
            let _ = s.write_all(&[p::TAG_QUERY, 0xE8, 0x03, 0, 0]);
            let _ = s.write_all(&[b'{'; 10]);
        }
    }
}

/// Probes the inbound frame-length guard: a frame declaring a payload
/// beyond `MAX_FRAME_LEN` must come back as a typed `bad_request`, with
/// the connection still alive enough to deliver it.
fn oversize_frame_is_refused(addr: &str) {
    let mut s = TcpStream::connect(addr).unwrap();
    assert!(consume_welcome(&mut s), "no welcome before oversize probe");
    let mut frame = vec![p::TAG_QUERY];
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    s.write_all(&frame).unwrap();
    let mut hdr = [0u8; 5];
    s.read_exact(&mut hdr).expect("typed reply to an oversize frame");
    assert_eq!(hdr[0], p::TAG_ERR, "oversize frame must earn TAG_ERR");
    let len = u32::from_le_bytes([hdr[1], hdr[2], hdr[3], hdr[4]]) as usize;
    let mut payload = vec![0u8; len];
    s.read_exact(&mut payload).unwrap();
    let err: p::ServeErrorMsg = p::decode(&payload).unwrap();
    assert_eq!(err.code, "bad_request", "{err:?}");
}

/// How many records one testbed run writes — the completeness bar every
/// finish-acked run must meet after a drain.
fn records_per_run(df: &prov_dataflow::Dataflow) -> u64 {
    let store = TraceStore::in_memory();
    let run = testbed::run(df, 3, &store).run_id;
    let info = store.runs().into_iter().find(|i| i.id == run).unwrap();
    info.xform_count + info.xfer_count
}

fn scratch_events() -> Vec<TraceEvent> {
    vec![TraceEvent::Xform(XformEvent {
        processor: ProcessorName::from("P"),
        invocation: 0,
        inputs: vec![PortBinding::new("x", Index::empty(), Value::str("a"))],
        outputs: vec![PortBinding::new("y", Index::empty(), Value::str("b"))],
    })]
}

/// Encodes a complete, valid ingest conversation into a buffer, then
/// replays only the prefix the [`FaultPlan`] lets through — a client
/// dying at an exact, chosen byte offset of the wire stream (mid-tag,
/// mid-length, mid-payload; `fail_read` cuts at the nth read instead).
fn cut_stream_writer(addr: &str, plan: FaultPlan) {
    let mut bytes: Vec<u8> = Vec::new();
    p::write_json(
        &mut bytes,
        p::TAG_INGEST_BEGIN,
        &p::IngestBegin { workflow: "scratch".into(), workflow_json: None },
    )
    .unwrap();
    p::write_json(
        &mut bytes,
        p::TAG_INGEST_BATCH,
        &p::IngestBatch { run: 0, seq: 0, events: scratch_events() },
    )
    .unwrap();
    p::write_json(&mut bytes, p::TAG_INGEST_FINISH, &p::IngestFinish { run: 0, seq: 0 }).unwrap();

    let mut reader = FaultReader::new(std::io::Cursor::new(bytes), plan);
    let mut cut = Vec::new();
    let mut chunk = [0u8; 113]; // odd size, so cuts land mid-frame
    loop {
        match reader.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => cut.extend_from_slice(&chunk[..n]),
        }
    }
    let Ok(mut s) = TcpStream::connect(addr) else { return };
    if !consume_welcome(&mut s) {
        return;
    }
    let _ = s.write_all(&cut);
    // Drop without reading replies: the daemon must absorb both the cut
    // and the unread ack backlog.
}

/// The surviving store, post-drain: reopens clean (the drain snapshots,
/// so the WAL leads with a marker), every *finished* testbed run carries
/// exactly the oracle's record count — a finish ack means every one of
/// its batches survived — and NI ≡ INDEXPROJ on the surviving trace.
fn check_reopened(
    path: &PathBuf,
    df: &prov_dataflow::Dataflow,
    records_per_run: u64,
) -> (TraceStore, Vec<RunId>) {
    let report = verify_store(path).unwrap();
    assert!(report.healthy(), "store did not reopen clean: {report:?}");
    let store = TraceStore::open(path).unwrap();
    let mut runs: Vec<RunId> = Vec::new();
    for info in store.runs() {
        if !info.finished || info.workflow != ProcessorName::from("testbed") {
            continue;
        }
        assert_eq!(
            info.xform_count + info.xfer_count,
            records_per_run,
            "finished (= finish-acked) {} lost records",
            info.id
        );
        runs.push(info.id);
    }
    runs.sort_unstable_by_key(|r| r.0);
    let (ni, ip) = answers(df, &store, &runs);
    // The two algorithms agree on *what* the lineage is; their traversal
    // stats (trace_queries, nodes_visited) legitimately differ.
    let bindings =
        |v: &[LineageAnswer]| v.iter().map(|a| (a.run, a.bindings.clone())).collect::<Vec<_>>();
    assert_eq!(bindings(&ni), bindings(&ip), "NI and INDEXPROJ diverged on the surviving trace");
    (store, runs)
}

#[test]
fn concurrent_load_with_mid_frame_kills_converges_and_drains_clean() {
    const WRITERS: usize = 4;
    let df = testbed::generate(3);
    let wf_json = serde_json::to_string(&df).unwrap();

    // Oracle: the same workload ingested sequentially into a local store.
    let opath = tmp("fixed-oracle");
    let oracle = TraceStore::open(&opath).unwrap();
    oracle.register_workflow(&ProcessorName::from("testbed"), wf_json.clone());
    let oruns: Vec<RunId> = (0..WRITERS).map(|_| testbed::run(&df, 3, &oracle).run_id).collect();
    let (oracle_ni, oracle_ip) = answers(&df, &oracle, &oruns);

    // A shallow ingest queue, so slow fsyncs push back visibly.
    let mut d = daemon("fixed", ServeConfig { queue_depth: 2, ..ServeConfig::default() });
    let addr = d.addr();

    // N concurrent writers stream full runs...
    let writers: Vec<_> = (0..WRITERS)
        .map(|_| {
            let (addr, wf, df) = (addr.clone(), wf_json.clone(), df.clone());
            std::thread::spawn(move || stream_run(&addr, &wf, &df))
        })
        .collect();
    // ...while clients die mid-frame around them and the length guard is
    // probed on a live connection.
    for k in 0..6 {
        kill_mid_frame(&addr, k);
    }
    oversize_frame_is_refused(&addr);
    // ...and M query clients hammer the same daemon. Mid-ingest answers
    // are whatever is durable; the contract is no hang and no untyped
    // failure.
    let queriers: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                for _ in 0..10 {
                    let Ok(mut c) = ServeClient::connect(&addr) else { continue };
                    let req = p::ServeQuery {
                        query: "lin(<2TO1_FINAL:Y[0,1]>, {LISTGEN_1})".into(),
                        run: 0,
                        all_runs: false,
                        algo: "ni".into(),
                        wf: None,
                        deadline_ms: Some(10_000),
                    };
                    match c.query(&req) {
                        Ok(_)
                        | Err(ServeError::Remote { .. })
                        | Err(ServeError::Timeout { .. })
                        | Err(ServeError::Busy { .. }) => {}
                        Err(e) => panic!("untyped query failure under load: {e}"),
                    }
                }
            })
        })
        .collect();

    let acked: Vec<u64> = writers
        .into_iter()
        .map(|h| h.join().unwrap().expect("writer stream must be fully acked"))
        .collect();
    for q in queriers {
        q.join().unwrap();
    }

    let report = d.shutdown();
    assert!(!report.forced, "drain was forced with sessions still live");

    let max_acked = acked.into_iter().max().unwrap();
    assert!(max_acked > 0, "no writer ever saw an ack");
    let (_store, runs) = check_reopened(&d.path, &df, records_per_run(&df));
    assert_eq!(runs.len(), WRITERS, "every writer's run must survive, finished");
    let store = TraceStore::open(&d.path).unwrap();
    let (ni, ip) = answers(&df, &store, &runs);
    assert_eq!(ni, oracle_ni, "NI answers diverged from the sequential oracle");
    assert_eq!(ip, oracle_ip, "INDEXPROJ answers diverged from the sequential oracle");

    let snap = d.registry.snapshot();
    assert!(snap.counter("serve.conns_accepted") >= WRITERS as u64);
    assert!(snap.counter("serve.ingest_batches") >= WRITERS as u64);

    cleanup(&d.path);
    cleanup(&opath);
}

#[test]
fn admission_and_deadline_refusals_are_typed() {
    let mut d = daemon("typed", ServeConfig { max_connections: 2, ..ServeConfig::default() });
    let addr = d.addr();
    let _c1 = ServeClient::connect(&addr).unwrap();
    let mut c2 = ServeClient::connect(&addr).unwrap();

    // The third connection is refused with the occupancy attached.
    match ServeClient::connect(&addr) {
        Err(ServeError::Busy { active, limit }) => {
            assert_eq!((active, limit), (2, 2));
        }
        other => panic!("expected typed busy refusal, got {other:?}"),
    }

    // An already-expired deadline is a typed timeout, not a hang.
    let req = p::ServeQuery {
        query: "lin(<2TO1_FINAL:Y[0,1]>, {LISTGEN_1})".into(),
        run: 0,
        all_runs: false,
        algo: "ni".into(),
        wf: None,
        deadline_ms: Some(0),
    };
    match c2.query(&req) {
        Err(ServeError::Timeout { .. }) => {}
        other => panic!("expected typed timeout, got {other:?}"),
    }

    let snap = d.registry.snapshot();
    assert!(snap.counter("serve.conns_refused") >= 1, "refusal not counted");
    assert!(snap.counter("serve.request_timeouts") >= 1, "timeout not counted");

    d.shutdown();
    cleanup(&d.path);
}

#[test]
fn drain_mid_load_keeps_every_acked_batch_durable() {
    const WRITERS: usize = 3;
    let df = testbed::generate(3);
    let wf_json = serde_json::to_string(&df).unwrap();
    let mut d = daemon(
        "drain",
        ServeConfig { queue_depth: 2, drain_deadline_ms: 30_000, ..ServeConfig::default() },
    );
    let addr = d.addr();

    // Writers loop streaming runs until the drain turns them away; each
    // reports the highest durable-frame ack it ever saw.
    let writers: Vec<_> = (0..WRITERS)
        .map(|_| {
            let (addr, wf, df) = (addr.clone(), wf_json.clone(), df.clone());
            std::thread::spawn(move || {
                let mut max_acked = 0u64;
                // Refusals racing the drain are typed or plain socket
                // deaths — the first error ends this writer.
                while let Ok(frames) = stream_run(&addr, &wf, &df) {
                    max_acked = max_acked.max(frames);
                }
                max_acked
            })
        })
        .collect();

    // Let the storm build, then pull the SIGTERM lever mid-load
    // (`begin_drain` is exactly what the signal handler path calls).
    std::thread::sleep(Duration::from_millis(100));
    d.begin_drain();

    let max_acked = writers.into_iter().map(|h| h.join().unwrap()).max().unwrap();
    let report = d.shutdown();
    assert!(!report.forced, "sessions must finish within the drain deadline");
    assert!(max_acked > 0, "the storm never landed a single acked run");

    // Acked ⇒ durable, and whatever finished answers NI ≡ INDEXPROJ.
    let (_store, runs) = check_reopened(&d.path, &df, records_per_run(&df));
    assert!(!runs.is_empty(), "no finished run survived the drain");
    cleanup(&d.path);
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
fn seeded_cut_streams_never_corrupt_the_daemon() {
    let seed = std::env::var("CRASH_TORTURE_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0xC0FFEE);
    eprintln!("serve-torture seed: {seed} (replay with CRASH_TORTURE_SEED={seed})");
    let df = testbed::generate(3);
    let wf_json = serde_json::to_string(&df).unwrap();
    let mut d = daemon("seeded", ServeConfig::default());
    let addr = d.addr();

    let mut rng = Rng(seed);
    for case in 0..10 {
        let plan = if case % 2 == 0 {
            FaultPlan::short_read(1 + rng.next() % 4096)
        } else {
            FaultPlan::fail_read(1 + rng.next() % 8)
        };
        cut_stream_writer(&addr, plan);
    }

    // After the carnage, a clean writer still streams a full run and the
    // daemon still answers; then everything drains and reopens clean.
    let acked = stream_run(&addr, &wf_json, &df).expect("clean writer after cut streams");
    assert!(acked > 0);
    let report = d.shutdown();
    assert!(!report.forced);
    let (_store, runs) = check_reopened(&d.path, &df, records_per_run(&df));
    assert!(!runs.is_empty(), "the clean run did not survive");
    cleanup(&d.path);
}
