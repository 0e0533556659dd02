//! The provenance daemon: one shared store, many concurrent sessions.
//!
//! # Threading model
//!
//! One non-blocking accept thread hands each admitted connection to a
//! dedicated *session* thread. A session that opens an ingest stream gains
//! an *applier* thread fed through a bounded queue; queries run inline on
//! the session thread (the store's reads are lock-free snapshot pins, so
//! query concurrency needs no extra machinery).
//!
//! A replication follower's `HELLO` turns its session into a WAL stream
//! ([`ship`](crate::ship)) on the same thread: the daemon that owns a
//! database is its replication primary, on the same port. The stream
//! holds its admission slot like any session, and returns to the request
//! loop when it asks the follower for a fresh hello.
//!
//! # Backpressure ladder
//!
//! ```text
//! socket ──read──▶ session thread ──bounded queue──▶ applier ──▶ WAL group commit
//! ```
//!
//! The session thread moves each ingest batch into a
//! `sync_channel(queue_depth)`. When the applier falls behind (slow
//! fsync), the queue fills, `try_send` fails, `serve.backpressure_waits`
//! ticks, and the session *blocks* on `send` — it stops reading the
//! socket, the kernel's receive window fills, and the slow fsync is felt
//! by the writing client as a stalled connection. No unbounded buffering
//! anywhere on the path.
//!
//! The applier drains whatever is queued, applies every batch, performs
//! **one** `sync_wal` for the group (which also covers the run's
//! `BeginRun`), and only then acks each batch — an acked batch is durable
//! by construction. `INGEST_FINISH` is acked only after `finish_run`'s
//! fsync; a failed one gets `ingest_failed`.
//!
//! # Drain state machine
//!
//! `begin_drain` (SIGTERM, ctrl-c, or a `SHUTDOWN` frame) journals
//! `DrainStarted`, flips the draining flag, and from then on: the accept
//! loop exits; sessions finish the request in flight, drain and ack their
//! ingest queues, and close; WAL streams end at their next poll tick;
//! `shutdown` waits for the session count to hit zero (bounded by the
//! drain deadline), snapshots, and returns — so the snapshot is cut after
//! the last chunk has gone out.
//!
//! # Read replicas
//!
//! A server started with [`ProvServer::follow`] reads a
//! [`Follower`]'s store instead of owning one. Ingest requests and a
//! `HELLO` get a typed `read_only` (a follower does not ship onward),
//! each answer carries the follower's position, and
//! the drain does not snapshot: the follower fsyncs every chunk it
//! applies, and a snapshot would truncate a WAL that must stay a byte
//! prefix of the primary's.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use prov_core::{CoreError, WorkflowCache};
use prov_engine::{Clock, ClockSource, SystemClock, TraceSink};
use prov_model::{ProcessorName, RunId};
use prov_obs::{Counter, Gauge, JournalEvent, Obs, QueryCtx, TimeSource};
use prov_store::{SharedStore, TraceStore};

use crate::execute::execute_resident;
use crate::follower::Follower;
use crate::protocol::{self as p, ServeErrorMsg};
use crate::ship::{ship, Shipped};
use crate::ServeError;

/// Tuning knobs for one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission bound: connections beyond this are refused with a typed
    /// `busy` error instead of queueing.
    pub max_connections: usize,
    /// Depth of each session's bounded ingest queue (batches).
    pub queue_depth: usize,
    /// Default per-query deadline (ms); `None` means unbounded unless the
    /// request carries its own.
    pub default_deadline_ms: Option<u64>,
    /// Sessions idle longer than this are reaped; `0` disables reaping.
    pub idle_timeout_ms: u64,
    /// How long `shutdown` waits for sessions to finish before forcing.
    pub drain_deadline_ms: u64,
    /// The clock driving deadlines and idle reaping — inject a
    /// `VirtualClock` to test both deterministically.
    pub clock: Arc<dyn Clock>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_connections: 64,
            queue_depth: 64,
            default_deadline_ms: None,
            idle_timeout_ms: 30_000,
            drain_deadline_ms: 5_000,
            clock: Arc::new(SystemClock),
        }
    }
}

/// What `shutdown` observed while draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// `true` if the drain deadline passed with sessions still active.
    pub forced: bool,
    /// Sessions still active when the wait ended (0 on a clean drain).
    pub active_at_exit: u64,
}

/// Counter/gauge handles for the `serve.*` metric family, registered on
/// the daemon's [`Obs`] registry at startup.
#[derive(Debug, Clone)]
struct ServeMetrics {
    conns_accepted: Counter,
    conns_refused: Counter,
    queries: Counter,
    request_timeouts: Counter,
    backpressure_waits: Counter,
    ingest_batches: Counter,
    active_conns: Gauge,
    draining: Gauge,
}

impl ServeMetrics {
    fn register(obs: &Obs) -> Self {
        ServeMetrics {
            conns_accepted: obs.metrics.counter("serve.conns_accepted"),
            conns_refused: obs.metrics.counter("serve.conns_refused"),
            queries: obs.metrics.counter("serve.queries"),
            request_timeouts: obs.metrics.counter("serve.request_timeouts"),
            backpressure_waits: obs.metrics.counter("serve.backpressure_waits"),
            ingest_batches: obs.metrics.counter("serve.ingest_batches"),
            active_conns: obs.metrics.gauge("serve.active_conns"),
            draining: obs.metrics.gauge("serve.draining"),
        }
    }
}

/// Where a server's store comes from.
enum Source {
    /// A store this server owns: it takes ingest, and its drain
    /// snapshots.
    Owned(SharedStore),
    /// A follower's replica, read-only. Read per query, because a
    /// bootstrap swaps the follower's store.
    Follower(Arc<Follower>),
}

impl Source {
    /// The store a query reads and, on a follower, the position it reads
    /// at (taken first, so the answer is never older than it claims).
    fn for_query(&self) -> (Arc<TraceStore>, Option<p::ReplicaPosition>) {
        match self {
            Source::Owned(store) => (store.arc(), None),
            Source::Follower(follower) => {
                let s = follower.status();
                let at = p::ReplicaPosition {
                    generation: s.generation,
                    offset: s.offset,
                    lag_frames: s.lag_frames,
                    lag_bytes: s.lag_bytes,
                };
                (follower.store(), Some(at))
            }
        }
    }
}

struct Shared {
    source: Source,
    /// Registered workflows parsed, and plans compiled, by earlier
    /// requests of any session.
    workflows: WorkflowCache,
    obs: Obs,
    cfg: ServeConfig,
    active: AtomicU64,
    draining: AtomicBool,
    metrics: ServeMetrics,
}

impl Shared {
    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            let active = self.active.load(Ordering::SeqCst);
            self.obs.journal.record(JournalEvent::DrainStarted { active });
            self.metrics.draining.set(1);
        }
    }
}

/// Decrements the live-session count even if the session panics.
struct SessionGuard(Arc<Shared>);

impl Drop for SessionGuard {
    fn drop(&mut self) {
        let left = self.0.active.fetch_sub(1, Ordering::SeqCst).saturating_sub(1);
        self.0.metrics.active_conns.set(left);
    }
}

/// A running daemon. Dropping it begins a drain but does not wait; call
/// [`ProvServer::shutdown`] for the orderly snapshot-and-exit path.
pub struct ProvServer {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl std::fmt::Debug for ProvServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProvServer")
            .field("addr", &self.addr)
            .field("active", &self.active())
            .field("draining", &self.draining())
            .finish()
    }
}

impl ProvServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting.
    pub fn start(store: SharedStore, obs: Obs, cfg: ServeConfig, addr: &str) -> io::Result<Self> {
        Self::launch(Source::Owned(store), obs, cfg, addr)
    }

    /// Like [`ProvServer::start`], but serves `follower`'s replica
    /// read-only (see the module docs). Starting and stopping the
    /// follower's replication stays with the caller.
    pub fn follow(
        follower: Arc<Follower>,
        obs: Obs,
        cfg: ServeConfig,
        addr: &str,
    ) -> io::Result<Self> {
        Self::launch(Source::Follower(follower), obs, cfg, addr)
    }

    fn launch(source: Source, obs: Obs, cfg: ServeConfig, addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let metrics = ServeMetrics::register(&obs);
        let workflows = WorkflowCache::new();
        workflows.register_metrics(&obs.metrics);
        let shared = Arc::new(Shared {
            source,
            workflows,
            obs,
            cfg,
            active: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            metrics,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(ProvServer { shared, accept: Some(accept), addr: local })
    }

    /// The bound address (resolved port when started with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live session count.
    pub fn active(&self) -> u64 {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Whether a drain has begun.
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Flips the daemon into draining mode: stop accepting, let sessions
    /// finish and ack queued ingest, refuse new requests with
    /// `shutting_down`. Idempotent; journals `DrainStarted` once. This is
    /// exactly what the SIGTERM/ctrl-c path calls.
    pub fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// Drains and shuts down: waits (up to the drain deadline) for
    /// sessions to finish, then — on a store it owns — writes a snapshot
    /// so the next open replays nothing. Returns what the drain observed.
    pub fn shutdown(mut self) -> DrainReport {
        self.begin_drain();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let deadline = Duration::from_millis(self.shared.cfg.drain_deadline_ms);
        let started = std::time::Instant::now();
        while self.active() > 0 && started.elapsed() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let active = self.active();
        if let Source::Owned(store) = &self.shared.source {
            let _ = store.snapshot();
        }
        DrainReport { forced: active > 0, active_at_exit: active }
    }
}

impl Drop for ProvServer {
    fn drop(&mut self) {
        self.shared.begin_drain();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => admit(stream, &shared),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Admission control: a compare-and-swap loop against the connection
/// limit, so two racing accepts can never both take the last slot.
fn admit(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let limit = shared.cfg.max_connections as u64;
    loop {
        let active = shared.active.load(Ordering::SeqCst);
        if active >= limit {
            shared.metrics.conns_refused.inc();
            shared.obs.journal.record(JournalEvent::ConnRefused { active, limit });
            let msg = ServeErrorMsg {
                code: "busy".into(),
                message: format!("connection limit reached ({active}/{limit})"),
                active: Some(active),
                limit: Some(limit),
            };
            let _ = p::write_json(&mut stream, p::TAG_ERR, &msg);
            return;
        }
        if shared
            .active
            .compare_exchange(active, active + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            break;
        }
    }
    let now_active = shared.active.load(Ordering::SeqCst);
    shared.metrics.conns_accepted.inc();
    shared.metrics.active_conns.set(now_active);
    shared.obs.journal.record(JournalEvent::ConnAccepted { active: now_active });
    let session_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("serve-session".into())
        .spawn(move || session(stream, session_shared));
    if spawned.is_err() {
        // Could not spawn: give the slot back (the guard never existed).
        let left = shared.active.fetch_sub(1, Ordering::SeqCst).saturating_sub(1);
        shared.metrics.active_conns.set(left);
    }
}

/// One open ingest stream: the bounded queue into the applier thread.
struct IngestPipe {
    tx: Option<SyncSender<p::IngestBatch>>,
    applier: Option<JoinHandle<()>>,
}

impl IngestPipe {
    /// Closes the queue and waits for the applier to drain and ack
    /// everything still in it.
    fn close(mut self) {
        drop(self.tx.take());
        if let Some(h) = self.applier.take() {
            let _ = h.join();
        }
    }
}

fn session(mut stream: TcpStream, shared: Arc<Shared>) {
    let _guard = SessionGuard(Arc::clone(&shared));
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    // The idle window opens before the welcome goes out: whatever the
    // client does after `connect` returns is ordered after this reading.
    let clock = Arc::clone(&shared.cfg.clock);
    let mut last_active = clock.now_micros();
    {
        let welcome = p::Welcome { proto: p::PROTO_VERSION, max_frame: p::MAX_FRAME_LEN };
        if p::write_json(&mut *writer.lock(), p::TAG_WELCOME, &welcome).is_err() {
            return;
        }
    }
    let mut pipes: HashMap<u64, IngestPipe> = HashMap::new();
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let (tag, payload) = match p::read_msg(&mut stream) {
            Ok(Some(msg)) => msg,
            Ok(None) => break,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                let idle_ms = shared.cfg.idle_timeout_ms;
                if idle_ms > 0
                    && clock.now_micros().saturating_sub(last_active) > idle_ms.saturating_mul(1000)
                {
                    break; // reaped
                }
                continue;
            }
            Err(e) => {
                if p::frame_too_large(&e).is_some() {
                    let msg = ServeErrorMsg::new("bad_request", e.to_string());
                    let _ = p::write_json(&mut *writer.lock(), p::TAG_ERR, &msg);
                }
                break;
            }
        };
        if !handle_frame(tag, &payload, &writer, &mut pipes, &shared, &clock) {
            break;
        }
        // Idle time counts from the end of the request: a WAL stream that
        // hands back to this loop is not idle for having streamed.
        last_active = clock.now_micros();
    }
    // Drain: close every open pipe so queued batches are applied, group-
    // committed, and acked before the socket goes away.
    for (_, pipe) in pipes.drain() {
        pipe.close();
    }
}

/// Dispatches one request frame; returns `false` to end the session.
fn handle_frame(
    tag: u8,
    payload: &[u8],
    writer: &Arc<Mutex<TcpStream>>,
    pipes: &mut HashMap<u64, IngestPipe>,
    shared: &Arc<Shared>,
    clock: &Arc<dyn Clock>,
) -> bool {
    // A request that raced the drain flag still gets a typed refusal
    // (pings and finishes are allowed through so clients can wind down).
    if shared.draining.load(Ordering::SeqCst)
        && (tag == p::TAG_INGEST_BEGIN || tag == p::TAG_QUERY || tag == p::TAG_HELLO)
    {
        let msg = ServeErrorMsg::new("shutting_down", "daemon is draining");
        let _ = p::write_json(&mut *writer.lock(), p::TAG_ERR, &msg);
        return true;
    }
    match tag {
        p::TAG_PING => {
            let pong = p::Pong {
                draining: shared.draining.load(Ordering::SeqCst),
                active: shared.active.load(Ordering::SeqCst),
            };
            p::write_json(&mut *writer.lock(), p::TAG_PONG, &pong).is_ok()
        }
        p::TAG_SHUTDOWN => {
            shared.begin_drain();
            let pong = p::Pong { draining: true, active: shared.active.load(Ordering::SeqCst) };
            let _ = p::write_json(&mut *writer.lock(), p::TAG_PONG, &pong);
            false
        }
        p::TAG_INGEST_BEGIN => {
            let Some(store) = writable(shared, writer) else { return true };
            let begin: p::IngestBegin = match p::decode(payload) {
                Ok(b) => b,
                Err(e) => return bad_request(writer, e),
            };
            let name = ProcessorName::from(begin.workflow.as_str());
            if let Some(json) = begin.workflow_json {
                store.register_workflow(&name, json);
            }
            let run = store.begin_run(&name);
            let (tx, rx) = std::sync::mpsc::sync_channel(shared.cfg.queue_depth.max(1));
            let applier_store = store.clone();
            let applier_writer = Arc::clone(writer);
            let applier = std::thread::Builder::new()
                .name("serve-applier".into())
                .spawn(move || applier(run, rx, applier_writer, applier_store));
            match applier {
                Ok(handle) => {
                    pipes.insert(run.0, IngestPipe { tx: Some(tx), applier: Some(handle) });
                    let begun = p::IngestBegun { run: run.0 };
                    p::write_json(&mut *writer.lock(), p::TAG_INGEST_BEGUN, &begun).is_ok()
                }
                Err(e) => {
                    let msg = ServeErrorMsg::new("ingest_failed", e.to_string());
                    let _ = p::write_json(&mut *writer.lock(), p::TAG_ERR, &msg);
                    false
                }
            }
        }
        p::TAG_INGEST_BATCH => {
            if writable(shared, writer).is_none() {
                return true;
            }
            let batch: p::IngestBatch = match p::decode(payload) {
                Ok(b) => b,
                Err(e) => return bad_request(writer, e),
            };
            let Some(pipe) = pipes.get(&batch.run) else {
                let msg = ServeErrorMsg::new(
                    "bad_request",
                    format!("run {} has no open ingest", batch.run),
                );
                let _ = p::write_json(&mut *writer.lock(), p::TAG_ERR, &msg);
                return true;
            };
            let Some(tx) = pipe.tx.as_ref() else { return true };
            shared.metrics.ingest_batches.inc();
            // Backpressure: a full queue means the WAL group commit is
            // behind. Count the stall, then block — which stops this
            // session reading its socket, pushing the stall to the client.
            match tx.try_send(batch) {
                Ok(()) => true,
                Err(TrySendError::Full(batch)) => {
                    shared.metrics.backpressure_waits.inc();
                    tx.send(batch).is_ok()
                }
                Err(TrySendError::Disconnected(_)) => {
                    let msg = ServeErrorMsg::new("ingest_failed", "applier stopped");
                    let _ = p::write_json(&mut *writer.lock(), p::TAG_ERR, &msg);
                    false
                }
            }
        }
        p::TAG_INGEST_FINISH => {
            let Some(store) = writable(shared, writer) else { return true };
            let finish: p::IngestFinish = match p::decode(payload) {
                Ok(f) => f,
                Err(e) => return bad_request(writer, e),
            };
            let Some(pipe) = pipes.remove(&finish.run) else {
                let msg = ServeErrorMsg::new(
                    "bad_request",
                    format!("run {} has no open ingest", finish.run),
                );
                let _ = p::write_json(&mut *writer.lock(), p::TAG_ERR, &msg);
                return true;
            };
            pipe.close(); // drains + acks every queued batch
            store.finish_run(RunId(finish.run));
            if let Err(e) = store.durability() {
                let msg = ServeErrorMsg::new("ingest_failed", e.to_string());
                return p::write_json(&mut *writer.lock(), p::TAG_ERR, &msg).is_ok();
            }
            let ack = p::IngestAck {
                run: finish.run,
                seq: finish.seq,
                durable_frames: store.repl_position().durable_frames,
            };
            p::write_json(&mut *writer.lock(), p::TAG_INGEST_ACK, &ack).is_ok()
        }
        p::TAG_QUERY => {
            let req: p::ServeQuery = match p::decode(payload) {
                Ok(q) => q,
                Err(e) => return bad_request(writer, e),
            };
            shared.metrics.queries.inc();
            let budget_ms = req.deadline_ms.or(shared.cfg.default_deadline_ms);
            let mut ctx = QueryCtx::new(req.query.clone());
            let mut deadline_micros = 0u64;
            if let Some(ms) = budget_ms {
                let source: Arc<dyn TimeSource> = Arc::new(ClockSource(Arc::clone(clock)));
                deadline_micros = clock.now_micros().saturating_add(ms.saturating_mul(1000));
                ctx = ctx.with_clock_deadline(source, deadline_micros);
            }
            let (store, replica) = shared.source.for_query();
            let lagging = replica.as_ref().is_some_and(|at| at.lag_frames > 0);
            match execute_resident(&store, &shared.workflows, &req, lagging, &shared.obs, &ctx) {
                Ok(answers) => {
                    let ok = p::ServeQueryOk { answers, replica };
                    p::write_json(&mut *writer.lock(), p::TAG_QUERY_OK, &ok).is_ok()
                }
                Err(CoreError::DeadlineExceeded { query }) => {
                    shared.metrics.request_timeouts.inc();
                    shared.obs.journal.record(JournalEvent::RequestTimeout {
                        trace: ctx.trace,
                        query: query.clone(),
                        deadline_micros,
                    });
                    let msg = ServeErrorMsg::new(
                        "timeout",
                        format!("deadline exceeded executing {query:?}"),
                    );
                    let _ = p::write_json(&mut *writer.lock(), p::TAG_ERR, &msg);
                    true
                }
                Err(e) => {
                    let msg = ServeErrorMsg::new("query_failed", e.to_string());
                    let _ = p::write_json(&mut *writer.lock(), p::TAG_ERR, &msg);
                    true
                }
            }
        }
        p::TAG_HELLO => {
            let Some(store) = writable(shared, writer) else { return true };
            if store.wal_path().is_none() {
                return bad_request(writer, "an in-memory store has no WAL to ship");
            }
            let hello: p::Hello = match p::decode(payload) {
                Ok(h) => h,
                Err(e) => return bad_request(writer, e),
            };
            let mut w = writer.lock();
            match ship(store, &hello, &mut *w, &shared.draining, &shared.obs.journal) {
                Shipped::Rehello => true,
                Shipped::Closed => false,
            }
        }
        other => {
            let msg = ServeErrorMsg::new("bad_request", format!("unknown request tag {other:#x}"));
            let _ = p::write_json(&mut *writer.lock(), p::TAG_ERR, &msg);
            true
        }
    }
}

fn bad_request(writer: &Arc<Mutex<TcpStream>>, e: impl std::fmt::Display) -> bool {
    let msg = ServeErrorMsg::new("bad_request", e.to_string());
    let _ = p::write_json(&mut *writer.lock(), p::TAG_ERR, &msg);
    true
}

/// The store ingest writes to and WAL streams ship from. A follower has
/// none: the request gets a typed `read_only`, and the session stays open
/// for queries.
fn writable<'a>(shared: &'a Shared, writer: &Arc<Mutex<TcpStream>>) -> Option<&'a SharedStore> {
    match &shared.source {
        Source::Owned(store) => Some(store),
        Source::Follower(_) => {
            let msg = ServeErrorMsg::new(
                "read_only",
                "a follower takes no ingest and ships no WAL; use its primary",
            );
            let _ = p::write_json(&mut *writer.lock(), p::TAG_ERR, &msg);
            None
        }
    }
}

/// The applier: drains the session's bounded queue, applies every queued
/// batch, performs one WAL group commit, then acks each batch. Exits when
/// the session drops the sender (finish, disconnect, or drain) — after
/// draining what remains, so nothing queued is ever silently dropped.
fn applier(
    run: RunId,
    rx: Receiver<p::IngestBatch>,
    writer: Arc<Mutex<TcpStream>>,
    store: SharedStore,
) {
    while let Ok(first) = rx.recv() {
        let mut group = vec![first];
        while let Ok(next) = rx.try_recv() {
            group.push(next);
        }
        let mut seqs = Vec::with_capacity(group.len());
        for batch in group {
            seqs.push(batch.seq);
            store.record_batch(run, batch.events);
        }
        // One fsync for the whole group: the ack below is a durability
        // promise, so it must not precede this.
        let durable = store.sync_wal().is_ok();
        let durable_frames = store.repl_position().durable_frames;
        let mut w = writer.lock();
        for seq in seqs {
            if durable {
                let ack = p::IngestAck { run: run.0, seq, durable_frames };
                let _ = p::write_json(&mut *w, p::TAG_INGEST_ACK, &ack);
            } else {
                let msg = ServeErrorMsg::new("ingest_failed", "WAL sync failed; batch not durable");
                let _ = p::write_json(&mut *w, p::TAG_ERR, &msg);
            }
        }
    }
}

/// Maps a typed reply-stream error message to [`ServeError`].
pub(crate) fn error_from_msg(msg: ServeErrorMsg) -> ServeError {
    match msg.code.as_str() {
        "busy" => {
            ServeError::Busy { active: msg.active.unwrap_or(0), limit: msg.limit.unwrap_or(0) }
        }
        "timeout" => ServeError::Timeout { message: msg.message },
        "shutting_down" => ServeError::ShuttingDown,
        _ => ServeError::Remote { code: msg.code, message: msg.message },
    }
}
