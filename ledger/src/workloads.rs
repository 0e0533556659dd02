//! The five workloads. Each drives one real user path through
//! [`crate::driver`], closed-loop from this process, checks what comes
//! back, and returns raw samples; [`crate::report`] turns them into the
//! metrics of `BENCHMARK.json`.
//!
//! Why each exists (the README has the long form):
//!
//! * `capture` — the write path and nothing else: engine, store insert,
//!   WAL encode, fsync. Query layers are idle, so a codec or batching
//!   change shows here and a plan/probe change must not.
//! * `recover` — the same WAL/snapshot codec in the other direction
//!   (decode and apply): a write-side gain that costs restart time shows
//!   here.
//! * `query` — the paper's own experiment and the read path only: no WAL,
//!   no socket.
//! * `serve-query` — the same core layers reached through wire + daemon
//!   dispatch; the gap to `query` on the same class *is* the serve layer.
//! * `serve-mixed` — reads beside writes on one store: group commit,
//!   copy-on-write read views under ingest, session scheduling.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::driver::{
    self, timed, wal_in, Client, ClientError, Daemon, LocalQuery, Query, Res, Span, Store, Tracer,
    Workflow,
};
use crate::gen::{Algo, Class, FocusTexts, Op, OpGen, SplitMix64};
use crate::scratch::Scratch;
use crate::stats::median;

/// Workload names, in the order a full run executes them.
pub const NAMES: [&str; 5] = ["capture", "recover", "query", "serve-query", "serve-mixed"];

/// Input sizes. `paper()` is the benchmark; `toy()` is the smoke test.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Chain length `l` of the testbed workflow.
    pub l: usize,
    /// List size of the big runs (one ≈3d²-event cross-product frame each).
    pub d_big: usize,
    /// List size of the small runs.
    pub d_small: usize,
    /// List size of the one big-frame run in `recover`'s store. WAL decode
    /// is superlinear in frame size (12 s for one `d_big` run at paper
    /// scale), so this is the largest size whose reopen fits a run several
    /// times.
    pub d_recover: usize,
    /// Big and small runs per `capture` pass.
    pub capture_runs: (usize, usize),
    /// Small runs in `recover`'s store; the last two form the WAL tail of
    /// the snapshot state.
    pub recover_small: usize,
    /// Preloaded big runs for `query`.
    pub query_runs: usize,
    /// Preloaded big runs for the daemon workloads.
    pub serve_runs: usize,
    /// Unmeasured lead-in of the duration-bound loops.
    pub warmup: Duration,
    /// Times each workload sets up; `setup_s` is their median.
    pub setups: usize,
    /// Every n-th query answer is checked against a second execution.
    pub verify_every: usize,
}

impl Scale {
    /// Table 1 / Fig. 6–9 scale: `l = 75`, `d = 50` and `d = 10`.
    pub fn paper() -> Scale {
        Scale {
            l: 75,
            d_big: 50,
            d_small: 10,
            d_recover: 25,
            capture_runs: (8, 30),
            recover_small: 5,
            query_runs: 8,
            serve_runs: 4,
            warmup: Duration::from_secs(1),
            setups: 3,
            verify_every: 50,
        }
    }

    /// `l = 5`, `d = 4`: seconds of debug-build time for the smoke test.
    pub fn toy() -> Scale {
        Scale {
            l: 5,
            d_big: 4,
            d_small: 3,
            d_recover: 4,
            capture_runs: (2, 3),
            recover_small: 3,
            query_runs: 4,
            serve_runs: 4,
            warmup: Duration::from_millis(20),
            setups: 2,
            verify_every: 5,
        }
    }
}

/// What one workload run measured, before reduction to metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Ops attempted in the measured window.
    pub attempted: u64,
    /// Ops that failed, were refused, timed out or answered wrongly.
    pub failed: u64,
    /// Of `failed`, typed `BUSY` / `shutting_down` refusals.
    pub refused: u64,
    /// Answers checked against a second execution (NI against INDEXPROJ,
    /// served against in-process, reopened against live).
    pub verified: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Units of work per second: events for `capture` and `serve-mixed`,
    /// records for `recover`, queries for `query` and `serve-query`.
    pub work_per_s: f64,
    /// Latency of every op, µs.
    pub op_us: Vec<f64>,
    /// Latency of the workload's light op class, µs.
    pub light_us: Vec<f64>,
    /// Latency of the workload's heavy op class, µs.
    pub heavy_us: Vec<f64>,
    /// Further named measurements for the report: `(name, value, unit)`.
    pub extra: Vec<(String, f64, &'static str)>,
    /// Seconds of measured time.
    pub measured_s: f64,
}

impl Outcome {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }

    fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push((name.to_string(), value, unit));
    }
}

/// Runs workload `name`.
pub fn run(
    name: &str,
    seed: u64,
    scale: &Scale,
    seconds: f64,
    scratch: &Scratch,
    tr: &Tracer,
) -> Res<Outcome> {
    let budget = Duration::from_secs_f64(seconds);
    match name {
        "capture" => capture(seed, scale, budget, scratch, tr),
        "recover" => recover(seed, scale, budget, scratch, tr),
        "query" => query(seed, scale, budget, tr),
        "serve-query" => serve(seed, scale, budget, scratch, tr, false),
        "serve-mixed" => serve(seed, scale, budget, scratch, tr, true),
        other => Err(format!("unknown workload {other:?} (one of {NAMES:?})")),
    }
}

/// Sets the workload up `scale.setups` times, recording each wall time in
/// `out.setup_s`, and keeps the last (the earlier ones are dropped once
/// their successor stands).
fn set_up<T>(scale: &Scale, out: &mut Outcome, mut build: impl FnMut() -> Res<T>) -> Res<T> {
    let mut last = None;
    for _ in 0..scale.setups {
        let (built, took) = timed(&mut build);
        out.setup_s.push(took.as_secs_f64());
        last = Some(built?);
    }
    last.ok_or_else(|| "a workload needs at least one set-up".to_string())
}

/// Whether a duration-bound loop should stop: out of time, or (traced)
/// out of span buffer.
fn done(measured: Duration, budget: Duration, tr: &Tracer) -> bool {
    measured >= budget || tr.is_full()
}

/// The seeded sample query every reopened store must answer identically
/// by NI and by INDEXPROJ: lineage of one output element of `run`.
fn check_query(
    store: &Store,
    wf: &Workflow,
    run: u64,
    d: usize,
    rng: &mut SplitMix64,
) -> Res<Vec<String>> {
    let lq = LocalQuery::new(store, wf);
    let text = format!("lin(<2TO1_FINAL:Y[{},{}]>,{{LISTGEN_1}})", rng.below(d), rng.below(d));
    let parsed = lq.parse(&text)?;
    let by_plan = lq.probe(&lq.plan_cold(&parsed)?, &[run], &text)?;
    let by_ni = lq.naive(&parsed, &[run], &text)?;
    if by_plan.bindings() == 0 || !by_plan.same_bindings(&by_ni) {
        return Err(format!("NI and INDEXPROJ disagree on {text} (run {run})"));
    }
    Ok(by_plan.render())
}

// ----------------------------------------------------------------- capture

/// One thread, fresh durable store per pass; a seeded interleaving of big
/// and small testbed runs, fsync per `finish_run`, one `snapshot()` at the
/// end of the pass. Throughput is the median over passes.
fn capture(
    seed: u64,
    scale: &Scale,
    budget: Duration,
    scratch: &Scratch,
    tr: &Tracer,
) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut rng = SplitMix64::new(seed);
    let (n_big, n_small) = scale.capture_runs;

    // Set-up: the spec, the run order, and one warm run of each size into
    // a throwaway store (which also tells us the events per run).
    let (order, events_big, events_small, wf) = set_up(scale, &mut out, || {
        let dir = scratch.sub()?;
        let wf = Workflow::testbed(scale.l)?;
        let mut order: Vec<usize> = std::iter::repeat_n(scale.d_big, n_big)
            .chain(std::iter::repeat_n(scale.d_small, n_small))
            .collect();
        rng.shuffle(&mut order);
        let warm = Store::open(&wal_in(dir.path()))?;
        let big = warm.capture_run(&wf, scale.d_big)?;
        let small = warm.capture_run(&wf, scale.d_small)?;
        Ok((order, warm.run_records(big), warm.run_records(small), wf))
    })?;
    let events_per_pass = n_big as u64 * events_big + n_small as u64 * events_small;

    let mut per_pass = Vec::new();
    let mut bytes_per_event = Vec::new();
    let mut measured = Duration::ZERO;
    let mut op = 0u64;
    let mut reopened = false;
    while !done(measured, budget, tr) {
        let dir = scratch.sub()?;
        let path = wal_in(dir.path());
        let store = Store::open(&path)?;
        let mut last_run = 0;
        let pass_start = Instant::now();
        for &d in &order {
            op += 1;
            out.attempted += 1;
            let span = tr.op("capture.run", op);
            let (result, took) = timed(|| {
                if tr.is_on() {
                    store.capture_run_traced(&wf, d, tr, &span)
                } else {
                    store.capture_run(&wf, d)
                }
            });
            drop(span);
            let us = took.as_secs_f64() * 1e6;
            out.op_us.push(us);
            (if d == scale.d_big { &mut out.heavy_us } else { &mut out.light_us }).push(us);
            match result {
                Ok(run) => last_run = run,
                Err(e) => out.fail(e),
            }
        }
        let wal = store.wal_counters();
        {
            let _s = tr.op("store.snapshot", op);
            if let Err(e) = store.snapshot() {
                out.fail(e);
            }
        }
        let pass = pass_start.elapsed();
        measured += pass;
        per_pass.push(events_per_pass as f64 / pass.as_secs_f64());
        bytes_per_event.push(wal.bytes as f64 / events_per_pass as f64);

        // Untimed: everything recorded is there, and once per invocation it
        // survives a restart and answers identically both ways.
        if store.total_records() != events_per_pass {
            out.fail(format!(
                "pass holds {} records, expected {events_per_pass}",
                store.total_records()
            ));
        }
        if !reopened {
            reopened = true;
            out.verified += 1;
            drop(store);
            let back = Store::open(&path)?;
            if back.total_records() != events_per_pass {
                out.fail(format!("reopened pass holds {} records", back.total_records()));
            }
            let d = *order.last().unwrap_or(&scale.d_small);
            if let Err(e) = check_query(&back, &wf, last_run, d, &mut rng) {
                out.fail(e);
            }
        }
    }
    out.work_per_s = median(&per_pass);
    out.measured_s = measured.as_secs_f64();
    out.extra("passes", per_pass.len() as f64, "count");
    out.extra("events_per_pass", events_per_pass as f64, "events");
    out.extra("bytes_per_event", median(&bytes_per_event), "B");
    Ok(out)
}

// ----------------------------------------------------------------- recover

/// Two on-disk states of one store — WAL only, and snapshot plus the last
/// two small runs as WAL tail — reopened in a fixed cycle of one WAL
/// replay and three snapshot loads. Every reopen is checked.
fn recover(
    seed: u64,
    scale: &Scale,
    budget: Duration,
    scratch: &Scratch,
    tr: &Tracer,
) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut rng = SplitMix64::new(seed);
    let head = scale.recover_small.saturating_sub(2);

    struct States {
        _dirs: (Scratch, Scratch),
        wal_only: std::path::PathBuf,
        snapshot: std::path::PathBuf,
        records: u64,
        answer: Vec<String>,
        check: (u64, SplitMix64),
        wf: Workflow,
    }
    let st = set_up(scale, &mut out, || {
        let dirs = (scratch.sub()?, scratch.sub()?);
        let wf = Workflow::testbed(scale.l)?;
        // The big-frame run sits somewhere before the snapshot point; both
        // states ingest the same runs in the same order.
        let mut order = vec![scale.d_small; head];
        order.insert(rng.below(head + 1), scale.d_recover);
        let check_rng = SplitMix64::new(rng.next_u64());
        let (wal_only, snapshot) = (wal_in(dirs.0.path()), wal_in(dirs.1.path()));
        let a = Store::open(&wal_only)?;
        let b = Store::open(&snapshot)?;
        let mut big_run = 0;
        for &d in &order {
            let run = a.capture_run(&wf, d)?;
            if run != b.capture_run(&wf, d)? {
                return Err("the two recover states numbered their runs differently".into());
            }
            if d == scale.d_recover {
                big_run = run;
            }
        }
        b.snapshot()?;
        for _ in 0..2 {
            a.capture_run(&wf, scale.d_small)?;
            b.capture_run(&wf, scale.d_small)?;
        }
        let answer = check_query(&a, &wf, big_run, scale.d_recover, &mut check_rng.clone())?;
        let records = a.total_records();
        Ok(States {
            _dirs: dirs,
            wal_only,
            snapshot,
            records,
            answer,
            check: (big_run, check_rng),
            wf,
        })
    })?;

    let mut measured = Duration::ZERO;
    let mut op = 0u64;
    let mut replayed_frames = (0u64, 0u64);
    let mut per_cycle = Vec::new();
    while !done(measured, budget, tr) {
        let cycle_start = measured;
        for (path, heavy) in [
            (&st.wal_only, true),
            (&st.snapshot, false),
            (&st.snapshot, false),
            (&st.snapshot, false),
        ] {
            op += 1;
            out.attempted += 1;
            let span = tr.op(if heavy { "recover.open_wal" } else { "recover.open_snapshot" }, op);
            let (opened, took) = timed(|| Store::open(path));
            drop(span);
            measured += took;
            let us = took.as_secs_f64() * 1e6;
            out.op_us.push(us);
            (if heavy { &mut out.heavy_us } else { &mut out.light_us }).push(us);
            let _s = tr.op("recover.verify", op);
            out.verified += 1;
            let checked = opened.and_then(|store| {
                if store.total_records() != st.records {
                    return Err(format!(
                        "reopen holds {} of {} records",
                        store.total_records(),
                        st.records
                    ));
                }
                let frames = store.wal_counters().replayed_frames;
                if heavy {
                    replayed_frames.0 = frames
                } else {
                    replayed_frames.1 = frames
                }
                let (run, rng) = &st.check;
                let answer = check_query(&store, &st.wf, *run, scale.d_recover, &mut rng.clone())?;
                if answer != st.answer {
                    return Err(format!(
                        "reopened store answers {answer:?}, expected {:?}",
                        st.answer
                    ));
                }
                Ok(())
            });
            if let Err(e) = checked {
                out.fail(e);
            }
        }
        per_cycle.push(4.0 * st.records as f64 / (measured - cycle_start).as_secs_f64());
    }
    out.work_per_s = median(&per_cycle);
    out.extra("cycles", per_cycle.len() as f64, "count");
    out.measured_s = measured.as_secs_f64();
    out.extra("records", st.records as f64, "records");
    out.extra("reopen_wal_s", median(&out.heavy_us) / 1e6, "s");
    out.extra("reopen_snapshot_s", median(&out.light_us) / 1e6, "s");
    out.extra("replayed_frames.wal", replayed_frames.0 as f64, "count");
    out.extra("replayed_frames.snapshot", replayed_frames.1 as f64, "count");
    Ok(out)
}

// --------------------------------------------------------- the query mix

/// What the mix loop needs to know about its targets.
struct Mix<'a> {
    gen: OpGen,
    focus: FocusTexts,
    scale: &'a Scale,
    /// Preloaded runs (list size `d_big`).
    preloaded: &'a [u64],
    /// Newest run a concurrent writer finished (list size `d_small`), or
    /// `u64::MAX`.
    newest: Option<&'a AtomicU64>,
}

impl<'a> Mix<'a> {
    fn new(
        seed: u64,
        scale: &'a Scale,
        preloaded: &'a [u64],
        newest: Option<&'a AtomicU64>,
    ) -> Self {
        let gen = OpGen::new(seed, scale.d_big, preloaded.len());
        Mix { gen, focus: FocusTexts::new(scale.l), scale, preloaded, newest }
    }
}

/// Measured time per throughput window of the query loop (whole blocks, so
/// a window may run over).
const WINDOW: Duration = Duration::from_millis(500);

/// The closed query loop shared by `query`, `serve-query` and
/// `serve-mixed`: whole blocks of the seeded mix, each op timed from text
/// in to rendered strings out, every n-th answer handed to `verify`.
/// Warm-up blocks run first and are not recorded. Sets `out.work_per_s` to
/// queries per second.
fn run_mix(
    mix: &mut Mix<'_>,
    budget: Duration,
    tr: &Tracer,
    out: &mut Outcome,
    mut exec: impl FnMut(&Query<'_>, &Tracer, &Span) -> Result<Vec<String>, ClientError>,
    mut verify: impl FnMut(&Query<'_>, &[String]) -> Res<()>,
) {
    let mut by_class = std::collections::BTreeMap::<Class, Vec<f64>>::new();
    let mut measured = Duration::ZERO;
    // Throughput is the median over windows of whole blocks, so a burst of
    // outside interference shorter than half the run does not move it.
    let mut windows = Vec::new();
    let (mut window, mut window_ops) = (Duration::ZERO, 0u64);
    let mut n = 0u64;
    let warm_start = Instant::now();
    let mut warm = true;
    let off = Tracer::off();
    loop {
        if warm && warm_start.elapsed() >= mix.scale.warmup {
            warm = false;
        }
        if !warm && done(measured, budget, tr) {
            break;
        }
        let block: Vec<Op> = mix.gen.block();
        for op in &block {
            let newest = mix.newest.map(|a| a.load(Ordering::Acquire)).filter(|&r| r != u64::MAX);
            let (runs, d): (Vec<u64>, usize) = match (op.all_runs(), newest) {
                (true, _) => (mix.preloaded.to_vec(), mix.scale.d_big),
                (false, Some(run)) if op.newest => (vec![run], mix.scale.d_small),
                (false, _) => (vec![mix.preloaded[op.run_pick]], mix.scale.d_big),
            };
            let text = op.text(d, &mix.focus);
            let q = Query { text: &text, runs: &runs, all_runs: op.all_runs(), algo: op.algo };
            n += 1;
            let tracer = if warm { &off } else { tr };
            let span = tracer.op("op", n);
            let (result, took) = timed(|| exec(&q, tracer, &span));
            drop(span);
            if warm {
                continue;
            }
            measured += took;
            window += took;
            window_ops += 1;
            out.attempted += 1;
            let us = took.as_secs_f64() * 1e6;
            out.op_us.push(us);
            by_class.entry(op.class).or_default().push(us);
            match result {
                Ok(answer) => {
                    if answer.is_empty() || answer.iter().any(String::is_empty) {
                        out.fail(format!("empty answer to {text}"));
                    } else if out.attempted.is_multiple_of(mix.scale.verify_every as u64) {
                        out.verified += 1;
                        if let Err(e) = verify(&q, &answer) {
                            out.fail(e);
                        }
                    }
                }
                Err(ClientError::Refused(e)) => {
                    out.refused += 1;
                    out.fail(e);
                }
                Err(ClientError::Failed(e)) => out.fail(e),
            }
        }
        if window >= WINDOW {
            windows.push(window_ops as f64 / window.as_secs_f64());
            (window, window_ops) = (Duration::ZERO, 0);
        }
    }
    if windows.is_empty() {
        windows.push(window_ops as f64 / window.as_secs_f64());
    }
    out.work_per_s = median(&windows);
    out.extra("windows", windows.len() as f64, "count");
    out.light_us = by_class.get(&Class::Focused).cloned().unwrap_or_default();
    out.heavy_us = by_class.get(&Class::Unfocused).cloned().unwrap_or_default();
    out.measured_s = measured.as_secs_f64();
    for (class, us) in &by_class {
        out.extra(&format!("q_{}_p50_us", class.name()), median(us), "us");
        out.extra(&format!("q_{}_ops", class.name()), us.len() as f64, "count");
    }
}

// ------------------------------------------------------------------- query

/// One thread, in-memory store of preloaded big runs, one long-lived plan
/// cache; each op is text in → rendered strings out.
fn query(seed: u64, scale: &Scale, budget: Duration, tr: &Tracer) -> Res<Outcome> {
    let mut out = Outcome::default();
    let (wf, store) = set_up(scale, &mut out, || {
        let wf = Workflow::testbed(scale.l)?;
        let store = Store::in_memory();
        for _ in 0..scale.query_runs {
            store.capture_run(&wf, scale.d_big)?;
        }
        Ok((wf, store))
    })?;
    let runs = store.runs();
    let lq = LocalQuery::new(&store, &wf);
    let mut mix = Mix::new(seed, scale, &runs, None);
    run_mix(
        &mut mix,
        budget,
        tr,
        &mut out,
        |q, tracer, span| lq.answer(q, tracer, span).map_err(ClientError::Failed),
        |q, answer| verify_local(&lq, q, answer),
    );
    let (hits, misses) = lq.plan_cache_stats();
    out.extra("plan_cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    Ok(out)
}

/// NI ≡ INDEXPROJ on a sampled op, and the rendered answer is the one the
/// timed path returned.
fn verify_local(lq: &LocalQuery<'_>, q: &Query<'_>, answer: &[String]) -> Res<()> {
    if q.text.starts_with("impact") {
        return Ok(());
    }
    let parsed = lq.parse(q.text)?;
    let by_plan = lq.probe(&lq.plan_cold(&parsed)?, q.runs, q.text)?;
    let by_ni = lq.naive(&parsed, q.runs, q.text)?;
    if !by_plan.same_bindings(&by_ni) {
        return Err(format!("NI and INDEXPROJ disagree on {}", q.text));
    }
    let rendered = if q.algo == Algo::Ni { by_ni.render() } else { by_plan.render() };
    if rendered != answer {
        return Err(format!("answer to {} changed between two executions", q.text));
    }
    Ok(())
}

// ------------------------------------------------- serve-query, serve-mixed

/// The daemon over loopback TCP. `serve-query`: one connection issuing the
/// query mix against preloaded runs. `serve-mixed` (`writer`): a second
/// connection streams small runs back-to-back through `RemoteSink` while
/// the first queries the preloaded runs and the newest finished one; after
/// the drain the store is reopened and every acked run must be there.
fn serve(
    seed: u64,
    scale: &Scale,
    budget: Duration,
    scratch: &Scratch,
    tr: &Tracer,
    writer: bool,
) -> Res<Outcome> {
    let mut out = Outcome::default();
    struct Served {
        _dir: Scratch,
        path: std::path::PathBuf,
        wf: Workflow,
        store: Store,
        daemon: Daemon,
        client: Client,
        events_big: u64,
    }
    let Served { _dir, path, wf, store, daemon, mut client, events_big } =
        set_up(scale, &mut out, || {
            let dir = scratch.sub()?;
            let wf = Workflow::testbed(scale.l)?;
            let path = wal_in(dir.path());
            // Ingest needs a WAL to ack against; queries alone do not.
            let store = if writer { Store::open(&path)? } else { Store::in_memory() };
            store.register_workflow(&wf);
            let mut events_big = 0;
            for _ in 0..scale.serve_runs {
                let run = store.capture_run(&wf, scale.d_big)?;
                events_big = store.run_records(run);
            }
            if writer {
                // Keeps the post-drain reopen linear: big frames leave the WAL.
                store.snapshot()?;
            }
            let daemon = Daemon::start(&store)?;
            let client = Client::connect(daemon.addr()).map_err(|e| format!("{e:?}"))?;
            Ok(Served { _dir: dir, path, wf, store, daemon, client, events_big })
        })?;
    let preloaded = store.runs();
    let newest = AtomicU64::new(u64::MAX);
    let stop = AtomicBool::new(false);
    let addr = daemon.addr().to_string();

    /// What the writer connection saw.
    #[derive(Default)]
    struct Written {
        acked: Vec<u64>,
        /// Per run that finished while the querier was still going: (wall, events).
        runs: Vec<(Duration, u64)>,
        errors: Vec<ClientError>,
    }
    let written = std::thread::scope(|scope| -> Res<Written> {
        let ingest = writer.then(|| {
            scope.spawn(|| {
                let mut w = Written::default();
                let mut n = 0u64;
                while !stop.load(Ordering::Acquire) {
                    n += 1;
                    let span = tr.op("serve.ingest_run", 1_000_000_000 + n);
                    let (result, took) = timed(|| driver::remote_run(&addr, &wf, scale.d_small));
                    drop(span);
                    match result {
                        Ok(run) => {
                            newest.store(run, Ordering::Release);
                            w.acked.push(run);
                            if !stop.load(Ordering::Acquire) {
                                w.runs.push((took, store.run_records(run)));
                            }
                        }
                        Err(e) => w.errors.push(e),
                    }
                }
                w
            })
        });
        let mut mix = Mix::new(seed, scale, &preloaded, writer.then_some(&newest));
        run_mix(
            &mut mix,
            budget,
            tr,
            &mut out,
            |q, tracer, span| {
                let _s = tracer.child("serve.roundtrip", span);
                client.query(q)
            },
            |q, answer| {
                // Beside a writer, "every run" changes between the served
                // and the in-process execution; only fixed targets compare.
                if writer && q.all_runs {
                    return Ok(());
                }
                let _s = tr.op("verify.exec_in_process", 0);
                let local = store.exec_in_process(q)?;
                if local != answer {
                    return Err(format!("served answer to {} differs from the local one", q.text));
                }
                Ok(())
            },
        );
        stop.store(true, Ordering::Release);
        match ingest {
            Some(handle) => handle.join().map_err(|_| "writer thread panicked".to_string()),
            None => Ok(Written::default()),
        }
    })?;

    drop(client);
    if let Err(e) = daemon.shutdown() {
        out.fail(e);
    }
    if writer {
        for e in &written.errors {
            out.attempted += 1;
            if matches!(e, ClientError::Refused(_)) {
                out.refused += 1;
            }
            out.fail(format!("ingest: {e:?}"));
        }
        out.attempted += written.acked.len() as u64;
        // The writer's runs are its windows: median events/s over them.
        let per_run: Vec<f64> =
            written.runs.iter().map(|(took, events)| *events as f64 / took.as_secs_f64()).collect();
        let run_ms: Vec<f64> = written.runs.iter().map(|(t, _)| t.as_secs_f64() * 1e3).collect();
        out.extra("query_per_s", out.work_per_s, "1/s");
        out.work_per_s = median(&per_run);
        out.extra("ingest_runs", written.runs.len() as f64, "count");
        out.extra("ingest_run_ms_p50", median(&run_ms), "ms");

        // Post-drain: restart from disk; every acked run at record
        // granularity, every preloaded run intact.
        let events_small = written.runs.first().map_or(0, |(_, n)| *n);
        drop(store);
        let back = Store::open(&path)?;
        for &run in &preloaded {
            if back.run_records(run) != events_big {
                out.fail(format!(
                    "preloaded run {run} came back with {} records",
                    back.run_records(run)
                ));
            }
        }
        for &run in &written.acked {
            if back.run_records(run) == 0
                || (events_small > 0 && back.run_records(run) != events_small)
            {
                out.fail(format!(
                    "acked run {run} came back with {} of {events_small} records",
                    back.run_records(run)
                ));
            }
        }
    }
    Ok(out)
}
