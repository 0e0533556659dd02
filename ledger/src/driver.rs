//! The one adapter between the benchmark and the product crates.
//!
//! Every call into `prov-*` goes through this file — opening, ingesting,
//! snapshotting and reopening stores; parse / plan / execute / render;
//! starting the daemon, its client and its remote sink; the span recorder
//! — so a change to a product entry point (ROADMAP item 2 collapses some
//! 25 of them) edits this file and leaves workloads, layer probes and
//! metric definitions alone.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use prov_core::{
    parse_query, set_query_threads, IndexProj, LineagePlan, LineageQuery, NaiveImpact,
    NaiveLineage, ParsedQuery, PlanCache,
};
use prov_dataflow::Dataflow;
use prov_engine::{TraceEvent, TraceSink, XferEvent, XformEvent};
use prov_model::{Index, ProcessorName, RunId};
use prov_obs::{Journal, Obs, Profiler, QueryCtx, SpanGuard, SpanRecord};
use prov_serve::protocol::{IngestBatch, ServeQuery};
use prov_serve::{ProvServer, RemoteSink, ServeClient, ServeConfig, ServeError};
use prov_store::{SharedStore, TraceStore, WalCursor, WalReader, WalWriter};
use prov_workgen::testbed;

use crate::gen::Algo;

/// Errors cross the adapter as text: the benchmark only counts and prints
/// them.
pub type Res<T> = Result<T, String>;

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

// ---------------------------------------------------------------- workflow

/// The testbed workflow of §4.1 with chains of length `l`, with the JSON
/// a daemon registers and replans from.
#[derive(Debug)]
pub struct Workflow {
    df: Dataflow,
    json: String,
}

impl Workflow {
    /// Generates the spec (`LISTGEN_1`, two chains of `l`, `2TO1_FINAL`).
    pub fn testbed(l: usize) -> Res<Workflow> {
        let df = testbed::generate(l);
        let json = serde_json::to_string(&df).map_err(text)?;
        Ok(Workflow { df, json })
    }

    /// What the daemon does per `indexproj` request today: parse the
    /// registered JSON, reindex, validate.
    pub fn reload(&self) -> Res<()> {
        let mut df: Dataflow = serde_json::from_str(&self.json).map_err(text)?;
        df.reindex();
        prov_dataflow::validate(&df).map_err(text)?;
        std::hint::black_box(&df);
        Ok(())
    }
}

// ------------------------------------------------------------------- store

/// WAL counters of a store since it was opened.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalCounters {
    /// Frames appended.
    pub frames: u64,
    /// Bytes appended, frame headers included.
    pub bytes: u64,
    /// fsync calls.
    pub syncs: u64,
    /// Tail frames replayed by the recovery that opened the store.
    pub replayed_frames: u64,
}

/// Probe-work counters of a store (exact, machine-independent).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeCounters {
    /// B-tree descents.
    pub index_lookups: u64,
    /// Rows materialised.
    pub records_read: u64,
}

/// A trace store, local or shared with a daemon.
#[derive(Debug, Clone)]
pub struct Store(SharedStore);

impl Store {
    /// A store with no WAL.
    pub fn in_memory() -> Store {
        Store(SharedStore::new(TraceStore::in_memory()))
    }

    /// Opens or recovers the durable store whose WAL is `path` — the
    /// restart path: WAL replay, or snapshot load plus tail replay.
    pub fn open(path: &Path) -> Res<Store> {
        SharedStore::open(path).map(Store).map_err(text)
    }

    /// Executes one testbed run of list size `d`, recording into this
    /// store: engine → `record_batch` → WAL, fsync at `finish_run`.
    /// Returns the run id.
    pub fn capture_run(&self, wf: &Workflow, d: usize) -> Res<u64> {
        let run = testbed::run(&wf.df, d, &*self.0).run_id;
        self.0.durability().map_err(text)?;
        Ok(run.0)
    }

    /// Like [`Store::capture_run`], with a span per sink call so the
    /// traced pass can split engine self time from store time.
    pub fn capture_run_traced(
        &self,
        wf: &Workflow,
        d: usize,
        tr: &Tracer,
        parent: &Span,
    ) -> Res<u64> {
        let sink = SpanSink { inner: &self.0, tracer: tr, op: parent.op, parent: parent.id };
        let run = testbed::run(&wf.df, d, &sink).run_id;
        self.0.durability().map_err(text)?;
        Ok(run.0)
    }

    /// Registers `wf` so `indexproj` queries served from this store can
    /// plan (what `RemoteSink` does at `begin_run`).
    pub fn register_workflow(&self, wf: &Workflow) {
        self.0.register_workflow(&wf.df.name, wf.json.clone());
    }

    /// Writes a snapshot and truncates the WAL to its marker.
    pub fn snapshot(&self) -> Res<()> {
        self.0.snapshot().map_err(text)
    }

    /// Trace records over all runs.
    pub fn total_records(&self) -> u64 {
        self.0.total_record_count()
    }

    /// Trace records of one run.
    pub fn run_records(&self, run: u64) -> u64 {
        self.0.trace_record_count(RunId(run))
    }

    /// Ids of all runs, ascending.
    pub fn runs(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.0.runs().iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        ids
    }

    /// WAL counters since open.
    pub fn wal_counters(&self) -> WalCounters {
        let m = self.0.wal_metrics();
        WalCounters {
            frames: m.frames.get(),
            bytes: m.bytes_written.get(),
            syncs: m.syncs.get(),
            replayed_frames: m.recovery_replayed_frames.get(),
        }
    }

    /// Probe-work counters since open.
    pub fn probe_counters(&self) -> ProbeCounters {
        let s = self.0.stats().snapshot();
        ProbeCounters { index_lookups: s.index_lookups, records_read: s.records_read }
    }

    /// Pins one run's read view: what every query pays before its first
    /// probe.
    pub fn pin(&self, run: u64) {
        std::hint::black_box(self.0.pin(RunId(run)));
    }

    /// A point probe: the xform producing `2TO1_FINAL:Y[i,j]`. Returns the
    /// number of rows found.
    pub fn probe_point(&self, run: u64, i: usize, j: usize) -> usize {
        let index = Index::from_slice(&[i as u32, j as u32]);
        self.0.xforms_producing(RunId(run), &ProcessorName::from("2TO1_FINAL"), "Y", &index).len()
    }

    /// A prefix scan: every transfer into `2TO1_FINAL:a` under `[i]`.
    pub fn probe_scan(&self, run: u64, i: usize) -> usize {
        let index = Index::from_slice(&[i as u32]);
        self.0.xfers_into(RunId(run), &ProcessorName::from("2TO1_FINAL"), "a", &index).len()
    }

    /// Runs a served query in-process, with no socket: the daemon's
    /// executor on this store.
    pub fn exec_in_process(&self, q: &Query<'_>) -> Res<Vec<String>> {
        let ctx = QueryCtx::new(q.text);
        prov_serve::execute_query(&self.0, &q.to_serve(), &Obs::disabled(), &ctx).map_err(text)
    }
}

/// Total size of the snapshot files beside the WAL at `path`.
pub fn snapshot_bytes(path: &Path) -> u64 {
    TraceStore::snapshot_files(path)
        .iter()
        .filter_map(|f| std::fs::metadata(f).ok())
        .map(|m| m.len())
        .sum()
}

// ------------------------------------------------------------- local query

/// One query as a user states it: text, target runs, algorithm.
#[derive(Debug, Clone, Copy)]
pub struct Query<'q> {
    /// The paper-notation text.
    pub text: &'q str,
    /// Target runs, in order.
    pub runs: &'q [u64],
    /// Whether `runs` is every run of the store (the serve protocol's
    /// `all_runs`); otherwise exactly one run is targeted.
    pub all_runs: bool,
    /// Algorithm for lineage queries.
    pub algo: Algo,
}

impl Query<'_> {
    fn to_serve(self) -> ServeQuery {
        ServeQuery {
            query: self.text.to_string(),
            run: self.runs.first().copied().unwrap_or(0),
            all_runs: self.all_runs,
            algo: self.algo.name().to_string(),
            wf: None,
            deadline_ms: None,
        }
    }
}

/// A parsed query (opaque outside the adapter).
#[derive(Debug)]
pub struct Parsed(ParsedQuery);

/// A compiled INDEXPROJ plan.
#[derive(Debug)]
pub struct Plan(Arc<LineagePlan>);

/// Unrendered answers, one per run.
#[derive(Debug)]
pub struct Answers(Vec<prov_core::LineageAnswer>);

impl Answers {
    /// Bindings over all runs.
    pub fn bindings(&self) -> usize {
        self.0.iter().map(|a| a.bindings.len()).sum()
    }

    /// Whether two answer sets bind the same ports to the same values —
    /// the NI ≡ INDEXPROJ check.
    pub fn same_bindings(&self, other: &Answers) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(&other.0).all(|(a, b)| a.same_bindings(b))
    }

    /// Renders with the `Display` the CLI and the daemon use.
    pub fn render(&self) -> Vec<String> {
        self.0.iter().map(|a| a.to_string()).collect()
    }
}

/// The in-process query path over one store and workflow, with one
/// long-lived plan cache: parse → plan (t1) → probe (t2) → render, through
/// the `_ctx` entry points `tprov query` uses.
pub struct LocalQuery<'a> {
    store: &'a Store,
    planner: IndexProj<'a>,
    cache: PlanCache<'a>,
    obs: Obs,
}

impl<'a> LocalQuery<'a> {
    /// A query path with the journal off.
    pub fn new(store: &'a Store, wf: &'a Workflow) -> Self {
        Self::with_obs(store, wf, Obs::disabled())
    }

    /// A query path with an enabled journal attached to store, plan cache
    /// and every query, as `tprov query` runs by default.
    pub fn journaled(store: &'a Store, wf: &'a Workflow) -> Self {
        let journal = Journal::from_env();
        store.0.attach_journal(&journal);
        Self::with_obs(store, wf, Obs::disabled().with_journal(journal))
    }

    fn with_obs(store: &'a Store, wf: &'a Workflow, obs: Obs) -> Self {
        let cache = PlanCache::new(IndexProj::new(&wf.df)).with_journal(&obs.journal);
        LocalQuery { store, planner: IndexProj::new(&wf.df), cache, obs }
    }

    /// Text → parsed query.
    pub fn parse(&self, text: &str) -> Res<Parsed> {
        parse_query(text).map(Parsed).map_err(text_err)
    }

    /// Compiles a plan from scratch (the paper's t1), bypassing the cache.
    pub fn plan_cold(&self, parsed: &Parsed) -> Res<Plan> {
        self.planner.plan(lineage(parsed)?).map(|p| Plan(Arc::new(p))).map_err(text)
    }

    /// The plan through the long-lived cache.
    pub fn plan_cached(&self, parsed: &Parsed) -> Res<Plan> {
        self.cache.plan(lineage(parsed)?).map(Plan).map_err(text)
    }

    /// Plan-cache lookups answered from the cache, and lookups that
    /// compiled.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        let s = self.cache.stats();
        (s.hits, s.misses)
    }

    /// Executes a plan over `runs` (the paper's t2).
    pub fn probe(&self, plan: &Plan, runs: &[u64], ctx_text: &str) -> Res<Answers> {
        let ctx = QueryCtx::new(ctx_text);
        let ids: Vec<RunId> = runs.iter().map(|&r| RunId(r)).collect();
        plan.0.execute_multi_ctx(&self.store.0, &ids, &self.obs, &ctx).map(Answers).map_err(text)
    }

    /// Answers a lineage query by the naive traversal NI.
    pub fn naive(&self, parsed: &Parsed, runs: &[u64], ctx_text: &str) -> Res<Answers> {
        let ctx = QueryCtx::new(ctx_text);
        let ids: Vec<RunId> = runs.iter().map(|&r| RunId(r)).collect();
        NaiveLineage::new()
            .run_multi_ctx(&self.store.0, &ids, lineage(parsed)?, &self.obs, &ctx)
            .map(Answers)
            .map_err(text)
    }

    /// Answers a forward impact query.
    fn impact(&self, q: &prov_core::ImpactQuery, runs: &[u64], ctx_text: &str) -> Res<Answers> {
        let ctx = QueryCtx::new(ctx_text);
        runs.iter()
            .map(|&r| NaiveImpact::new().run_ctx(&self.store.0, RunId(r), q, &self.obs, &ctx))
            .collect::<Result<Vec<_>, _>>()
            .map(Answers)
            .map_err(text)
    }

    /// The whole user path, text in → rendered strings out, with a span
    /// per layer under `op` when the tracer is on.
    pub fn answer(&self, q: &Query<'_>, tr: &Tracer, op: &Span) -> Res<Vec<String>> {
        let parsed = {
            let _s = tr.child("core.parse", op);
            self.parse(q.text)?
        };
        let answers = match &parsed.0 {
            ParsedQuery::Impact(iq) => {
                let _s = tr.child("core.probe", op);
                self.impact(iq, q.runs, q.text)?
            }
            ParsedQuery::Lineage(_) if q.algo == Algo::Ni => {
                let _s = tr.child("core.probe", op);
                self.naive(&parsed, q.runs, q.text)?
            }
            ParsedQuery::Lineage(_) => {
                let plan = {
                    let _s = tr.child("core.plan", op);
                    self.plan_cached(&parsed)?
                };
                let _s = tr.child("core.probe", op);
                self.probe(&plan, q.runs, q.text)?
            }
        };
        let _s = tr.child("core.render", op);
        Ok(answers.render())
    }
}

fn text_err(e: prov_core::ParseError) -> String {
    e.to_string()
}

fn lineage(parsed: &Parsed) -> Res<&LineageQuery> {
    match &parsed.0 {
        ParsedQuery::Lineage(q) => Ok(q),
        ParsedQuery::Impact(_) => Err("expected a lin(...) query".to_string()),
    }
}

/// Sets the size of the query worker pool for this process; `None`
/// restores the default.
pub fn query_threads(n: Option<usize>) {
    set_query_threads(n);
}

// ------------------------------------------------------------------ daemon

/// A running `tprov serve` daemon on a loopback port.
#[derive(Debug)]
pub struct Daemon {
    server: ProvServer,
    addr: String,
}

impl Daemon {
    /// Starts the daemon over `store` on `127.0.0.1:0` with the default
    /// configuration.
    pub fn start(store: &Store) -> Res<Daemon> {
        let server = ProvServer::start(
            store.0.clone(),
            Obs::disabled(),
            ServeConfig::default(),
            "127.0.0.1:0",
        )
        .map_err(text)?;
        let addr = server.local_addr().to_string();
        Ok(Daemon { server, addr })
    }

    /// `host:port` to connect to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Drains, fsyncs, snapshots and stops; `Err` if sessions had to be
    /// abandoned at the drain deadline.
    pub fn shutdown(self) -> Res<()> {
        let report = self.server.shutdown();
        if report.forced {
            return Err(format!("drain forced with {} sessions active", report.active_at_exit));
        }
        Ok(())
    }
}

/// How a served request failed, as the client saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// A typed `BUSY` / `shutting_down` refusal.
    Refused(String),
    /// Any other error reply, timeout or socket failure.
    Failed(String),
}

impl From<ServeError> for ClientError {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Busy { .. } | ServeError::ShuttingDown => {
                ClientError::Refused(format!("{e}"))
            }
            other => ClientError::Failed(format!("{other}")),
        }
    }
}

/// One client connection.
#[derive(Debug)]
pub struct Client(ServeClient);

impl Client {
    /// Connects and completes the handshake.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        Ok(Client(ServeClient::connect(addr)?))
    }

    /// One query round trip; answers arrive rendered.
    pub fn query(&mut self, q: &Query<'_>) -> Result<Vec<String>, ClientError> {
        Ok(self.0.query(&q.to_serve())?)
    }

    /// One ping round trip: socket + frame + session floor.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.0.ping()?;
        Ok(())
    }
}

/// Streams one testbed run of list size `d` to the daemon through a
/// `RemoteSink` with the default batch size and pipeline depth, and waits
/// for the durable ack of the whole stream. Returns the run id the server
/// assigned.
pub fn remote_run(addr: &str, wf: &Workflow, d: usize) -> Result<u64, ClientError> {
    let sink = RemoteSink::connect(addr, Some(wf.json.clone()))?;
    let run = testbed::run(&wf.df, d, &sink).run_id;
    sink.finish()?;
    Ok(run.0)
}

// ----------------------------------------------------- batches and the WAL

/// The batches the engine hands its sink for one run, captured once so the
/// WAL and wire codecs can be timed on real input without the engine.
#[derive(Debug)]
pub struct Batches {
    batches: Vec<Vec<TraceEvent>>,
    /// Events over all batches.
    pub events: usize,
}

impl Batches {
    /// Events per batch, in recording order.
    pub fn sizes(&self) -> Vec<usize> {
        self.batches.iter().map(Vec::len).collect()
    }
}

#[derive(Default)]
struct CaptureSink {
    batches: Mutex<Vec<Vec<TraceEvent>>>,
}

impl TraceSink for CaptureSink {
    fn begin_run(&self, _workflow: &ProcessorName) -> RunId {
        RunId(0)
    }
    fn record_xform(&self, _run: RunId, event: XformEvent) {
        self.record_batch(RunId(0), vec![TraceEvent::Xform(event)]);
    }
    fn record_xfer(&self, _run: RunId, event: XferEvent) {
        self.record_batch(RunId(0), vec![TraceEvent::Xfer(event)]);
    }
    fn record_batch(&self, _run: RunId, events: Vec<TraceEvent>) {
        if let Ok(mut b) = self.batches.lock() {
            b.push(events);
        }
    }
    fn finish_run(&self, _run: RunId) {}
}

/// Runs the workflow once into a capturing sink.
pub fn capture_batches(wf: &Workflow, d: usize) -> Batches {
    let sink = CaptureSink::default();
    testbed::run(&wf.df, d, &sink);
    let batches = sink.batches.into_inner().unwrap_or_default();
    let events = batches.iter().map(Vec::len).sum();
    Batches { batches, events }
}

/// A sink that only counts: the engine's own cost per event.
#[derive(Default)]
struct CountSink(AtomicU64);

impl TraceSink for CountSink {
    fn begin_run(&self, _workflow: &ProcessorName) -> RunId {
        RunId(0)
    }
    fn record_xform(&self, _run: RunId, _event: XformEvent) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
    fn record_xfer(&self, _run: RunId, _event: XferEvent) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
    fn record_batch(&self, _run: RunId, events: Vec<TraceEvent>) {
        self.0.fetch_add(events.len() as u64, Ordering::Relaxed);
    }
    fn finish_run(&self, _run: RunId) {}
}

/// Executes one run into a counting no-op sink; returns events produced.
pub fn engine_only(wf: &Workflow, d: usize) -> u64 {
    let sink = CountSink::default();
    testbed::run(&wf.df, d, &sink);
    sink.0.into_inner()
}

/// A bare WAL writer, for timing append and fsync apart from the store.
pub struct Wal(WalWriter);

impl Wal {
    /// Opens (creating) the log at `path`.
    pub fn open(path: &Path) -> Res<Wal> {
        WalWriter::open(path).map(Wal).map_err(text)
    }

    /// Encodes and appends every batch as one frame each; no fsync.
    pub fn append(&mut self, batches: &Batches) -> Res<()> {
        for b in &batches.batches {
            self.0.append_batch(RunId(0), b).map_err(text)?;
        }
        Ok(())
    }

    /// Flushes and fsyncs.
    pub fn sync(&mut self) -> Res<()> {
        self.0.sync().map_err(text)
    }
}

/// Decodes a whole WAL (`WalReader::read_all`); returns frames read.
pub fn wal_decode(path: &Path) -> Res<usize> {
    let recovery = WalReader::read_all(path).map_err(text)?;
    if !recovery.tail.is_clean() {
        return Err(format!("{}: tail is not clean", path.display()));
    }
    Ok(recovery.records.len())
}

/// The follower's apply path without the socket: streams frames of the
/// WAL at `src` into a fresh durable store at `dst`, fsyncs once, and
/// returns the records the follower then holds.
pub fn replicate(src: &Path, dst: &Path) -> Res<u64> {
    let follower = TraceStore::open(dst).map_err(text)?;
    let mut cursor = WalCursor::open(src).map_err(text)?;
    while cursor.next_frame().map_err(text)?.is_some() {
        follower.apply_replicated(cursor.payload()).map_err(text)?;
    }
    follower.sync_wal().map_err(text)?;
    Ok(follower.total_record_count())
}

/// Encodes the events as `RemoteSink` ships them: `INGEST_BATCH` payloads
/// of the default batch size. Returns the bytes produced.
pub fn encode_ingest_batches(batches: &Batches) -> Res<usize> {
    let events: Vec<TraceEvent> = batches.batches.iter().flatten().cloned().collect();
    let mut bytes = 0;
    for (seq, chunk) in events.chunks(prov_serve::DEFAULT_BATCH_EVENTS).enumerate() {
        let batch = IngestBatch { run: 0, seq: seq as u64, events: chunk.to_vec() };
        bytes += serde_json::to_vec(&batch).map_err(text)?.len();
    }
    Ok(bytes)
}

// ----------------------------------------------------------------- tracing

/// Spans kept per traced pass; the pass ends when the buffer is full, so
/// memory and the trace file stay bounded.
pub const SPAN_CAP: u64 = 200_000;

/// The benchmark's span recorder: an in-memory `prov_obs::Profiler` plus
/// span ids, so every span carries its op and its parent. Off, a span is
/// one branch.
#[derive(Debug)]
pub struct Tracer {
    profiler: Profiler,
    next_id: AtomicU64,
}

/// An open span; closes on drop.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    _guard: SpanGuard,
    /// This span's id (0 when the tracer is off).
    pub id: u64,
    /// The op the span belongs to.
    pub op: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer { profiler: Profiler::disabled(), next_id: AtomicU64::new(1) }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer { profiler: Profiler::new(), next_id: AtomicU64::new(1) }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.profiler.is_enabled()
    }

    /// Whether [`SPAN_CAP`] spans have been opened.
    pub fn is_full(&self) -> bool {
        self.next_id.load(Ordering::Relaxed) > SPAN_CAP
    }

    /// Opens the root span of op number `op`.
    pub fn op(&self, name: &'static str, op: u64) -> Span {
        self.span(name, op, 0)
    }

    /// Opens a span caused by `parent`, in the same op.
    pub fn child(&self, name: &'static str, parent: &Span) -> Span {
        self.span(name, parent.op, parent.id)
    }

    fn span(&self, name: &'static str, op: u64, parent: u64) -> Span {
        if !self.is_on() {
            return Span { _guard: SpanGuard::inert(), id: 0, op };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.profiler.span(name, "ledger");
        guard.arg("op", op);
        guard.arg("id", id);
        guard.arg("parent", parent);
        Span { _guard: guard, id, op }
    }

    /// Everything recorded so far.
    pub fn finished(&self) -> Vec<SpanInfo> {
        self.profiler.spans().iter().map(SpanInfo::from_record).collect()
    }

    /// Writes the spans as a Chrome trace-event array (load it in
    /// `chrome://tracing` or <https://ui.perfetto.dev>).
    pub fn write_chrome_trace(&self, path: &Path) -> Res<usize> {
        let events = self.profiler.chrome_trace_events();
        let json = serde_json::to_string(&events).map_err(text)?;
        std::fs::write(path, json).map_err(text)?;
        Ok(events.len())
    }
}

/// A finished span, detached from the profiler's types.
#[derive(Debug, Clone)]
pub struct SpanInfo {
    /// Layer-qualified name, e.g. `core.plan`.
    pub name: String,
    /// Duration.
    pub dur_ns: u64,
    /// Span id.
    pub id: u64,
    /// Id of the span that caused this one; 0 for an op's root.
    pub parent: u64,
    /// Op number shared by every span of one request.
    pub op: u64,
}

impl SpanInfo {
    fn from_record(r: &SpanRecord) -> SpanInfo {
        let arg = |k: &str| r.args.iter().find(|(n, _)| *n == k).map_or(0, |(_, v)| *v);
        SpanInfo {
            name: r.name.to_string(),
            dur_ns: r.dur_ns,
            id: arg("id"),
            parent: arg("parent"),
            op: arg("op"),
        }
    }
}

/// Forwards to a store, opening a span per sink call.
struct SpanSink<'a> {
    inner: &'a TraceStore,
    tracer: &'a Tracer,
    op: u64,
    parent: u64,
}

impl TraceSink for SpanSink<'_> {
    fn begin_run(&self, workflow: &ProcessorName) -> RunId {
        let _s = self.tracer.span("store.begin_run", self.op, self.parent);
        self.inner.begin_run(workflow)
    }
    fn record_xform(&self, run: RunId, event: XformEvent) {
        let _s = self.tracer.span("store.record", self.op, self.parent);
        self.inner.record_xform(run, event);
    }
    fn record_xfer(&self, run: RunId, event: XferEvent) {
        let _s = self.tracer.span("store.record", self.op, self.parent);
        self.inner.record_xfer(run, event);
    }
    fn record_batch(&self, run: RunId, events: Vec<TraceEvent>) {
        let _s = self.tracer.span("store.record_batch", self.op, self.parent);
        self.inner.record_batch(run, events);
    }
    fn finish_run(&self, run: RunId) {
        let _s = self.tracer.span("store.finish_run", self.op, self.parent);
        self.inner.finish_run(run);
    }
}

// --------------------------------------------------------------- utilities

/// Wall time of `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// The WAL file name every workload uses inside its scratch directory.
pub fn wal_in(dir: &Path) -> PathBuf {
    dir.join("trace.wal")
}
