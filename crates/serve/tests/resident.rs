//! A live daemon keeps registered workflows and compiled plans resident
//! across requests and sessions — asserted on its own counters, as
//! `tprov metrics` shows them — and a hostile control frame costs its
//! sender a typed `bad_request`, not the process.

use std::net::TcpStream;

use prov_obs::{JournalEvent, MetricsSnapshot, Obs};
use prov_serve::protocol::{self as p, ServeQuery};
use prov_serve::{ProvServer, RemoteSink, ServeClient, ServeConfig, ServeError};
use prov_store::{SharedStore, TraceStore};
use prov_workgen::testbed;

const LIN: &str = "lin(<2TO1_FINAL:Y[0,1]>, {LISTGEN_1})";

struct Daemon {
    server: ProvServer,
    addr: String,
    obs: Obs,
    spec: String,
}

impl Daemon {
    /// A daemon over an empty in-memory store, metrics and journal on (as
    /// `tprov serve` runs), with one testbed run streamed in.
    fn start() -> Daemon {
        let obs = Obs::enabled();
        let store = SharedStore::new(TraceStore::in_memory());
        let server =
            ProvServer::start(store, obs.clone(), ServeConfig::default(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let spec = serde_json::to_string(&testbed::generate(3)).unwrap();
        let d = Daemon { server, addr, obs, spec };
        d.stream_run();
        d
    }

    /// One more run through a `RemoteSink`, whose `IngestBegin` registers
    /// the (identical) specification again.
    fn stream_run(&self) {
        let sink = RemoteSink::connect(&self.addr, Some(self.spec.clone())).unwrap();
        testbed::run(&testbed::generate(3), 2, &sink);
        sink.finish().unwrap();
    }

    fn counters(&self) -> [u64; 4] {
        let snap: MetricsSnapshot = self.obs.metrics.snapshot();
        [
            snap.counter("workflow_cache.loads"),
            snap.counter("workflow_cache.hits"),
            snap.counter("plan_cache.misses"),
            snap.counter("plan_cache.hits"),
        ]
    }
}

fn indexproj(text: &str) -> ServeQuery {
    ServeQuery {
        query: text.into(),
        run: 0,
        all_runs: true,
        algo: "indexproj".into(),
        wf: None,
        deadline_ms: None,
    }
}

#[test]
fn served_requests_load_and_plan_once_and_stay_journalled() {
    let d = Daemon::start();
    let mut client = ServeClient::connect(&d.addr).unwrap();
    let first = client.query(&indexproj(LIN)).unwrap();
    for _ in 0..9 {
        assert_eq!(client.query(&indexproj(LIN)).unwrap(), first);
    }
    assert_eq!(d.counters(), [1, 9, 1, 9]);

    // Every `IngestBegin` re-registers its spec; identical bytes keep the
    // entry and its plans, and the new run shows up in the next answer.
    d.stream_run();
    let more = client.query(&indexproj(LIN)).unwrap();
    assert_eq!(more.len(), first.len() + 1);
    assert_eq!(d.counters(), [1, 10, 1, 10]);

    // The journal saw one compile, and every execution — cached plan or
    // not — finished with its fingerprint and a prediction.
    let events = d.obs.journal.events();
    let compiles =
        events.iter().filter(|e| matches!(e.event, JournalEvent::PlanCacheMiss { .. })).count();
    assert_eq!(compiles, 1);
    let finished: Vec<_> = events
        .iter()
        .filter_map(|e| match e.event {
            JournalEvent::QueryFinished { fingerprint, predicted_lookups, .. } => {
                Some((fingerprint, predicted_lookups))
            }
            _ => None,
        })
        .collect();
    assert_eq!(finished.len(), 10 * first.len() + more.len());
    assert!(finished.iter().all(|f| *f == finished[0] && f.0 != 0 && f.1.is_some()));

    drop(client);
    d.server.shutdown();
}

#[test]
fn concurrent_sessions_share_one_resident_entry() {
    let d = Daemon::start();
    let gate = std::sync::Barrier::new(8);
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                let mut client = ServeClient::connect(&d.addr).unwrap();
                gate.wait();
                for _ in 0..5 {
                    client.query(&indexproj(LIN)).unwrap();
                }
            });
        }
    });
    assert_eq!(d.counters(), [1, 39, 1, 39]);
    d.server.shutdown();
}

/// ~100 KB of `[` in a QUERY frame used to overflow the session thread's
/// stack and abort the daemon.
#[test]
fn a_deep_nested_query_frame_is_a_bad_request_and_the_daemon_lives() {
    let d = Daemon::start();
    let mut raw = TcpStream::connect(&d.addr).unwrap();
    let (tag, _) = p::read_msg(&mut raw).unwrap().unwrap();
    assert_eq!(tag, p::TAG_WELCOME);
    p::write_msg(&mut raw, p::TAG_QUERY, "[".repeat(100_000).as_bytes()).unwrap();
    let (tag, payload) = p::read_msg(&mut raw).unwrap().unwrap();
    assert_eq!(tag, p::TAG_ERR);
    let err: p::ServeErrorMsg = p::decode(&payload).unwrap();
    assert_eq!(err.code, "bad_request");
    assert!(err.message.contains("recursion limit"), "{}", err.message);

    let mut fresh = ServeClient::connect(&d.addr).unwrap();
    assert!(!fresh.ping().unwrap().draining);
    assert!(!fresh.query(&indexproj(LIN)).unwrap().is_empty());
    drop((raw, fresh));
    d.server.shutdown();
}

/// A query on a run the store does not hold is the typed `query_failed`
/// naming the run, not an empty lineage, and the same session keeps
/// serving.
#[test]
fn a_query_on_an_unknown_run_fails_and_the_session_keeps_serving() {
    let d = Daemon::start();
    let mut client = ServeClient::connect(&d.addr).unwrap();
    let err = client.query(&ServeQuery { run: 7, all_runs: false, ..indexproj(LIN) }).unwrap_err();
    assert!(
        matches!(&err, ServeError::Remote { code, message }
            if code == "query_failed" && message.contains("unknown run 7")),
        "{err:?}"
    );
    let one = client.query(&ServeQuery { all_runs: false, ..indexproj(LIN) }).unwrap();
    assert_eq!(one.len(), 1);
    drop(client);
    d.server.shutdown();
}
