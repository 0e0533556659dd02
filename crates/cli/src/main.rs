//! `tprov` — run collection-oriented workflows with provenance capture and
//! query lineage from the command line.
//!
//! ```text
//! tprov testbed  --db t.wal --l 20 --d 10 [--runs 3]
//! tprov gk       --db t.wal [--lists 3] [--genes 2] [--seed 7] [--runs 1]
//! tprov pd       --db t.wal [--terms p53,tumor] [--pad 20]
//! tprov run      --db t.wal --workflow wf.json --input name=<json> …
//!                [--max-attempts N] [--fail-fast] [--json] [--resume RUN]
//! tprov runs     --db t.wal
//! tprov lineage  --db t.wal --workflow wf.json --target P:Y
//!                [--index 1,2] [--focus A,B] [--run 0 | --all-runs]
//!                [--algo indexproj|ni]
//! tprov impact   --db t.wal --target wf:in [--index 0] [--focus wf] [--run 0]
//! tprov explain  ['lin(<P:Y[1]>, {A})'] --db t.wal [--run 0] [--check]
//!                [--without-index xform_in] [--tolerance 10] [--format json]
//! tprov lint     --workflow wf.json [--format json] [--iteration-threshold 3]
//! tprov dot      --workflow wf.json [--lint]
//! tprov tail     --db t.wal [--last 20] [--format json] [--follow]
//! tprov slow     --db t.wal [--format json]
//! tprov wal verify t.wal
//! tprov serve    t.wal [--addr 127.0.0.1:7071] [--max-conns N] [--for-ms N]
//! tprov serve    replica.wal --follow HOST:PORT [--addr ADDR] [--once]
//! tprov run      --server HOST:PORT --workflow wf.json --input name=<json> …
//! tprov query    --server HOST:PORT --query 'lin(...)' [--deadline-ms N] [--max-lag N]
//! ```
//!
//! Workflows executed through `tprov` have their specification saved next
//! to the database (`<db>.<workflow>.json`), so later `lineage` calls can
//! use INDEXPROJ against the right graph. `run` executes any workflow
//! JSON whose behaviours are all in the builtin registry; it exits 0 when
//! the run completed and 3 when it finished with error tokens (partial
//! failure), so scripts can tell the two apart from plain usage errors.
//! `run --resume RUN` re-executes only the invocations a crashed run is
//! missing, keeping the original run id.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::process::ExitCode;
use std::sync::Arc;

use prov_core::{
    CoreError, Env, Executed, ImpactQuery, IndexProj, LineageQuery, NaiveLineage, QueryRequest,
    RunSelection, WorkflowCache,
};
use prov_dataflow::{to_dot, to_dot_with_diagnostics, AnalyzeConfig, Dataflow};
use prov_engine::{BehaviorRegistry, Engine, FailedInvocation, RetryPolicy};
use prov_model::{Index, PortRef, ProcessorName, RunId, Value};
use prov_obs::{Journal, Obs, QueryCtx, Registry};
use prov_store::TraceStore;
use prov_workgen::{bio, testbed};

mod args;
mod journal_io;
mod json;
use args::Args;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tprov: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: Vec<String>) -> Result<ExitCode, String> {
    let Some((cmd, rest)) = argv.split_first() else {
        print_usage();
        return Ok(ExitCode::SUCCESS);
    };
    // `profile` and `explain` accept their query as the first positional
    // token (`tprov profile 'lin(...)' --db t.wal`); normalise before
    // parsing.
    let mut rest: Vec<String> = rest.to_vec();
    if cmd == "profile" || cmd == "explain" {
        if let Some(first) = rest.first() {
            if !first.starts_with("--") {
                rest.insert(0, "--query".to_string());
            }
        }
    }
    // `wal` carries a verb as its first token (`tprov wal verify t.wal`).
    let verb = if cmd == "wal" && !rest.is_empty() { Some(rest.remove(0)) } else { None };
    // `serve <db>` and `wal verify <db>` take the database as a positional
    // token.
    if cmd == "serve" || cmd == "wal" {
        if let Some(first) = rest.first() {
            if !first.starts_with("--") {
                rest.insert(0, "--db".to_string());
            }
        }
    }
    let args = Args::parse(&rest)?;
    // Only `run` distinguishes exit codes beyond success/failure (0
    // completed, 3 partial failure); everything else maps Ok to 0.
    let done = |r: Result<(), String>| r.map(|()| ExitCode::SUCCESS);
    match cmd.as_str() {
        "testbed" => done(cmd_testbed(&args)),
        "gk" => done(cmd_gk(&args)),
        "pd" => done(cmd_pd(&args)),
        "run" => cmd_run(&args),
        "serve" => cmd_serve(&args),
        "wal" if verb.as_deref() == Some("verify") => cmd_wal_verify(&args),
        "wal" => Err("usage: tprov wal verify DB; try `tprov help`".to_string()),
        "runs" => done(cmd_runs(&args)),
        "lineage" => done(cmd_lineage(&args)),
        "impact" => done(cmd_impact(&args)),
        "query" => done(cmd_query(&args)),
        "audit" => done(cmd_audit(&args)),
        "trace-dot" => done(cmd_trace_dot(&args)),
        "diff" => done(cmd_diff(&args)),
        "find-value" => done(cmd_find_value(&args)),
        "metrics" => done(cmd_metrics(&args)),
        "tail" => done(cmd_tail(&args)),
        "slow" => done(cmd_slow(&args)),
        "profile" => done(cmd_profile(&args)),
        "explain" => done(cmd_explain(&args)),
        "lint" => done(cmd_lint(&args)),
        "dot" => done(cmd_dot(&args)),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}; try `tprov help`")),
    }
}

/// `tprov wal verify <db>`: offline CRC + frame sweep over the WAL and
/// every snapshot file beside it. Exit 0 when the store is undamaged
/// (a torn tail counts as undamaged — recovery truncates it), 1 when any
/// frame or snapshot is corrupt.
fn cmd_wal_verify(args: &Args) -> Result<ExitCode, String> {
    let db = args.required("db")?;
    let report =
        prov_store::verify_store(std::path::Path::new(db)).map_err(|e| format!("{db}: {e}"))?;
    let tail = match report.tail {
        prov_store::TailState::Clean => "clean".to_string(),
        prov_store::TailState::TornTail { offset } => format!("torn tail at byte {offset}"),
        prov_store::TailState::CorruptFrame { offset } => {
            format!("CORRUPT frame at byte {offset}")
        }
    };
    println!(
        "{db}: {} frames / {} bytes verified, tail {tail}",
        report.wal_frames, report.wal_bytes
    );
    if report.generation > 0 {
        let backed = if report.marker_backed == Some(true) { "valid" } else { "MISSING/INVALID" };
        println!(
            "  leads with snapshot marker generation {} ({backed} snapshot)",
            report.generation
        );
    }
    for s in &report.snapshots {
        let verdict = if s.valid { "valid" } else { "INVALID" };
        println!("  snapshot {} (generation {}): {verdict}", s.path.display(), s.generation);
    }
    if report.healthy() {
        println!("ok");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("CORRUPTION DETECTED");
        Ok(ExitCode::FAILURE)
    }
}

/// `tprov serve <db> [--follow PRIMARY [--once]] [--addr ADDR]
/// [--max-conns N] [--queue-depth N] [--deadline-ms N] [--idle-ms N]
/// [--drain-ms N] [--for-ms N]`: run the provenance daemon — concurrent
/// ingest streams and lineage queries over one shared store. The bound address is written to
/// `<db>.serve.addr` so scripts can use `--addr 127.0.0.1:0`; on
/// SIGTERM/ctrl-c (or after `--for-ms`) the daemon drains, fsyncs,
/// snapshots, and exits 0, leaving its `serve.*`, `workflow_cache.*` and
/// `plan_cache.*` counters in a `<db>.serve.json` sidecar that `tprov
/// metrics` folds back in. A primary's daemon also ships its WAL to
/// followers on the same address. With `--follow`, `<db>` is a read
/// replica of PRIMARY (the primary's `tprov serve` address): it
/// replicates while it serves, refuses ingest, and its drain leaves the
/// replicated WAL untouched. `--once` drains as soon as the replica has
/// caught up with its primary and prints where it stands — the scriptable
/// "seed a replica" form: exit 0 if it converged, 1 if `--for-ms` ran out
/// first.
fn cmd_serve(args: &Args) -> Result<ExitCode, String> {
    let db = args.required("db")?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:0");
    let once = args.has_flag("once");
    if once && args.get("follow").is_none() {
        return Err("--once needs --follow ADDR".to_string());
    }
    let journal = Journal::from_env();
    // Metrics on, profiler off: a long-running daemon accumulating
    // unbounded spans would leak; counters and gauges are fixed-size.
    let obs = Obs {
        metrics: Registry::new(),
        profiler: prov_obs::Profiler::disabled(),
        journal: journal.clone(),
    };
    let registry = obs.metrics.clone();
    let mut cfg = prov_serve::ServeConfig::default();
    if let Some(n) = args.get_parsed("max-conns")? {
        cfg.max_connections = n;
    }
    if let Some(n) = args.get_parsed("queue-depth")? {
        cfg.queue_depth = n;
    }
    if let Some(ms) = args.get_parsed("deadline-ms")? {
        cfg.default_deadline_ms = Some(ms);
    }
    if let Some(ms) = args.get_parsed("idle-ms")? {
        cfg.idle_timeout_ms = ms;
    }
    if let Some(ms) = args.get_parsed("drain-ms")? {
        cfg.drain_deadline_ms = ms;
    }
    let (server, following) = match args.get("follow") {
        Some(primary) => {
            let follower = prov_serve::Follower::open(db, journal.clone())
                .map_err(|e| format!("cannot open {db}: {e}"))?;
            let server = prov_serve::ProvServer::follow(Arc::clone(&follower), obs, cfg, addr)
                .map_err(|e| format!("{addr}: {e}"))?;
            let handle = follower.start(primary, prov_serve::FollowerConfig::default());
            (server, Some((follower, handle)))
        }
        None => {
            let store =
                prov_store::SharedStore::open(db).map_err(|e| format!("cannot open {db}: {e}"))?;
            store.attach_journal(&journal);
            let server = prov_serve::ProvServer::start(store, obs, cfg, addr)
                .map_err(|e| format!("{addr}: {e}"))?;
            (server, None)
        }
    };
    let addr_file = format!("{db}.serve.addr");
    std::fs::write(&addr_file, server.local_addr().to_string())
        .map_err(|e| format!("{addr_file}: {e}"))?;
    println!("serving {db} on {} (address in {addr_file})", server.local_addr());
    prov_serve::signal::install();
    let ms: u64 = args.get_parsed("for-ms")?.unwrap_or(u64::MAX);
    let budget = std::time::Duration::from_millis(ms);
    let started = std::time::Instant::now();
    // A remote SHUTDOWN request flips the server into draining on its
    // own; the wait loop notices and falls through to the same exit path
    // as a signal.
    let mut caught_up = false;
    while !prov_serve::signal::triggered() && !server.draining() && started.elapsed() < budget {
        if once
            && following.as_ref().is_some_and(|(f, _)| f.wait_caught_up(std::time::Duration::ZERO))
        {
            caught_up = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let report = server.shutdown();
    if let Some((follower, handle)) = following {
        follower.stop();
        let _ = handle.join();
        if once {
            let s = follower.status();
            println!(
                "caught_up={caught_up} generation={} frames={} lag_frames={} bootstraps={} \
                 resyncs={}",
                s.generation, s.frames, s.lag_frames, s.bootstraps, s.resyncs
            );
        }
    }
    // Persist the daemon's metric families (its sessions, and the
    // workflows and plans it kept resident) so `tprov metrics` on this
    // database reports the daemon's last run (atomic tmp+rename, like the
    // replication sidecar).
    let snap = registry.snapshot();
    let serve_metrics: std::collections::BTreeMap<&String, &u64> = snap
        .counters
        .iter()
        .chain(snap.gauges.iter())
        .filter(|(k, _)| {
            ["serve.", "workflow_cache.", "plan_cache."].iter().any(|family| k.starts_with(family))
        })
        .collect();
    let sidecar = format!("{db}.serve.json");
    let tmp = format!("{sidecar}.tmp");
    std::fs::write(&tmp, json::render(&serve_metrics)?).map_err(|e| format!("{tmp}: {e}"))?;
    std::fs::rename(&tmp, &sidecar).map_err(|e| format!("{sidecar}: {e}"))?;
    let _ = std::fs::remove_file(&addr_file);
    journal_io::persist(db, &journal)?;
    println!(
        "drained: forced={} active_at_exit={} (metrics in {sidecar})",
        report.forced, report.active_at_exit
    );
    Ok(if once && !caught_up { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// Routes `tprov query --server ADDR` to a provenance daemon. The daemon
/// answers with the same rendering as a local query; `--deadline-ms N`
/// bounds execution server-side — a query past it aborts between plan
/// steps with a typed timeout (nonzero exit). A follower's answer is
/// followed by its replication position, and `--max-lag N` refuses it
/// (nonzero exit) when the follower lagged its primary by more than N
/// frames.
fn query_via_server(args: &Args, addr: &str) -> Result<(), String> {
    let req = prov_serve::protocol::ServeQuery {
        query: args.required("query")?.to_string(),
        run: args.get_parsed("run")?.unwrap_or(0),
        all_runs: args.has_flag("all-runs"),
        algo: args.get("algo").unwrap_or("ni").to_string(),
        wf: args.get("wf").map(str::to_string),
        deadline_ms: args.get_parsed("deadline-ms")?,
    };
    let mut client =
        prov_serve::ServeClient::connect(addr).map_err(|e| format!("server {addr}: {e}"))?;
    let ok = client
        .query_bounded(&req, args.get_parsed("max-lag")?)
        .map_err(|e| format!("server {addr}: {e}"))?;
    for ans in &ok.answers {
        print!("{ans}");
    }
    if let Some(at) = ok.replica {
        println!(
            "replica: generation {} offset {} lag {} frames / {} bytes",
            at.generation, at.offset, at.lag_frames, at.lag_bytes
        );
    }
    Ok(())
}

fn print_usage() {
    println!(
        "tprov — workflow provenance capture and lineage querying\n\n\
         commands:\n\
         \x20 testbed  --db FILE --l N --d N [--runs N]   run the synthetic testbed\n\
         \x20 gk       --db FILE [--lists N] [--genes N] [--seed N] [--runs N]\n\
         \x20 pd       --db FILE [--terms a,b] [--pad N]\n\
         \x20 run      --db FILE --workflow WF.json --input name=<json> ...\n\
         \x20          [--max-attempts N] [--fail-fast] [--json] [--resume RUN]\n\
         \x20          exit 0 = completed, 3 = partial failure (error tokens)\n\
         \x20          --resume re-executes only what crashed run RUN is missing\n\
         \x20 runs     --db FILE                           list stored runs\n\
         \x20 lineage  --db FILE --workflow WF.json --target P:Y [--index 1,2]\n\
         \x20          [--focus A,B] [--run N | --all-runs] [--algo indexproj|ni]\n\
         \x20 impact   --db FILE --target P:X [--index 0] [--focus wf] [--run N]\n\
         \x20 query    --db FILE --query 'lin(<P:Y[1,2]>, {{A}})' [--algo ni|indexproj]\n\
         \x20          [--workflow WF.json] [--run N | --all-runs]\n\
         \x20 audit    --db FILE --workflow WF.json [--run N | --all-runs]\n\
         \x20 diff     --db FILE --a N --b N --target P:Y [--index ..] [--focus ..]\n\
         \x20 find-value --db FILE --value <json> [--run N] [--lineage] [--focus ..]\n\
         \x20 metrics  --db FILE [--format json]           store/WAL metric snapshot\n\
         \x20 tail     --db FILE [--last N] [--format json] [--follow]\n\
         \x20          dump (or follow) the last N journal events\n\
         \x20 slow     --db FILE [--last N] [--format json]\n\
         \x20          aggregate the slow-query log: top plan fingerprints by\n\
         \x20          total time, with the cost-model misprediction rate\n\
         \x20 profile  QUERY --db FILE [--algo ni|indexproj|both] [--run N | --all-runs]\n\
         \x20          [--workflow WF.json] [--chrome-trace OUT.json]\n\
         \x20          per-stage timings with the paper's t1/t2 split\n\
         \x20 explain  [QUERY] --db FILE [--workflow WF.json] [--run N]\n\
         \x20          [--without-index NAME] [--check] [--tolerance F] [--format json]\n\
         \x20          static plan verification + cost prediction; without QUERY,\n\
         \x20          explains an unfocused coarse query per workflow output;\n\
         \x20          exit 1 on E1xx findings or a failed --check\n\
         \x20 lint     --workflow WF.json [--format json] [--iteration-threshold N]\n\
         \x20          static diagnostics (exit 1 on error-level findings)\n\
         \x20 dot      --workflow WF.json [--lint]         print spec as Graphviz\n\
         \x20 trace-dot --db FILE [--run N] [--json]       print a run's provenance graph\n\
         \x20 wal verify DB                                offline CRC + frame sweep of\n\
         \x20          the WAL and snapshots (exit 1 on corruption)\n\
         \x20 serve    DB [--follow ADDR [--once]] [--addr ADDR] [--max-conns N]\n\
         \x20          [--queue-depth N] [--deadline-ms N] [--idle-ms N] [--drain-ms N]\n\
         \x20          [--for-ms N]\n\
         \x20          provenance daemon: concurrent ingest + queries on one store\n\
         \x20          (address in <db>.serve.addr; SIGTERM drains and exits 0);\n\
         \x20          followers replicate from that same address;\n\
         \x20          --follow serves DB read-only as a replica of the `serve` at ADDR;\n\
         \x20          --once exits when the replica has caught up (exit 1 if\n\
         \x20          --for-ms runs out first);\n\
         \x20          `run --server ADDR` streams a run's trace to it, and\n\
         \x20          `query --server ADDR [--deadline-ms N] [--max-lag N]` queries it;\n\
         \x20          a replica beyond the --max-lag bound is refused (exit 1)\n\n\
         queries use the db-registered workflow spec when --workflow is omitted"
    );
}

fn open_db(args: &Args) -> Result<TraceStore, String> {
    let path = args.required("db")?;
    TraceStore::open(path).map_err(|e| format!("cannot open {path}: {e}"))
}

/// Persists the workflow spec both inside the database (self-contained
/// lineage queries) and as a sidecar JSON file (for editing/`dot`).
fn save_workflow(args: &Args, store: &TraceStore, df: &Dataflow) -> Result<(), String> {
    let json = serde_json::to_string_pretty(df).map_err(|e| e.to_string())?;
    store.register_workflow(&df.name, json.clone());
    let db = args.required("db")?;
    let path = format!("{db}.{}.json", df.name);
    std::fs::write(&path, json).map_err(|e| e.to_string())?;
    println!("workflow spec saved to {path} (and registered in the db)");
    Ok(())
}

/// Loads a workflow spec from `--workflow FILE`.
fn load_workflow(args: &Args) -> Result<Dataflow, String> {
    let path = args.required("workflow")?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Dataflow::from_json(&json).map_err(|e| format!("{path}: {e}"))
}

/// `--workflow FILE`, when given: the caller-supplied spec that wins over
/// the database registry in [`prov_core::exec`].
fn supplied_workflow(args: &Args) -> Result<Option<Dataflow>, String> {
    args.get("workflow").map(|_| load_workflow(args)).transpose()
}

/// Renders a request refusal, adding the flag that fixes it.
fn query_err(e: CoreError) -> String {
    match e {
        CoreError::NoWorkflow => format!("{e}; pass --workflow FILE"),
        CoreError::AmbiguousWorkflow { .. } => format!("{e}; pick one with --wf NAME"),
        _ => e.to_string(),
    }
}

/// Resolves the workflow spec for the spec-level verbs (`audit`, `explain`,
/// `diff`): `--workflow FILE` wins; else `--wf NAME` is fetched from the
/// database registry; else, if the database registers exactly one
/// workflow, that one is used.
fn resolve_workflow(args: &Args, store: &TraceStore) -> Result<Dataflow, String> {
    match supplied_workflow(args)? {
        Some(df) => Ok(df),
        None => prov_core::registered_workflow(store, args.get("wf")).map_err(query_err),
    }
}

fn cmd_testbed(args: &Args) -> Result<(), String> {
    let store = open_db(args)?;
    let l: usize = args.get_parsed("l")?.unwrap_or(10);
    let d: usize = args.get_parsed("d")?.unwrap_or(10);
    let runs: usize = args.get_parsed("runs")?.unwrap_or(1);
    let df = testbed::generate(l);
    for _ in 0..runs {
        let out = testbed::run(&df, d, &store);
        println!("{}: {} records (l={l}, d={d})", out.run_id, store.trace_record_count(out.run_id));
    }
    save_workflow(args, &store, &df)
}

fn cmd_gk(args: &Args) -> Result<(), String> {
    let store = open_db(args)?;
    let lists: usize = args.get_parsed("lists")?.unwrap_or(2);
    let genes: usize = args.get_parsed("genes")?.unwrap_or(2);
    let seed: u64 = args.get_parsed("seed")?.unwrap_or(7);
    let runs: usize = args.get_parsed("runs")?.unwrap_or(1);
    let df = bio::genes2kegg_workflow();
    let db = Arc::new(bio::KeggDb::small(seed));
    for r in 0..runs {
        let input = bio::sample_gene_lists(lists, genes, seed + r as u64);
        let out = bio::run_genes2kegg(&df, Arc::clone(&db), input, &store);
        println!("{}: genes2Kegg run recorded", out.run_id);
        for (port, value) in &out.outputs {
            println!("  {port} = {value}");
        }
    }
    save_workflow(args, &store, &df)
}

fn cmd_pd(args: &Args) -> Result<(), String> {
    let store = open_db(args)?;
    let terms_raw = args.get("terms").unwrap_or("p53,tumor");
    let terms: Vec<&str> = terms_raw.split(',').filter(|t| !t.is_empty()).collect();
    let pad: usize = args.get_parsed("pad")?.unwrap_or(20);
    let df = bio::protein_discovery_workflow(pad);
    let corpus = Arc::new(bio::PubMedCorpus::new(11, 60));
    let out = bio::run_protein_discovery(&df, corpus, terms, &store);
    println!("{}: protein_discovery run recorded", out.run_id);
    for (port, value) in &out.outputs {
        println!("  {port} = {value}");
    }
    save_workflow(args, &store, &df)
}

/// What `tprov run --json` prints: enough to script against partial runs
/// without parsing human output. The key set is part of the CLI contract
/// (locked by a golden test); `resumed_from` is `null` for fresh runs.
#[derive(serde::Serialize)]
struct RunReport {
    run: u64,
    workflow: String,
    status: String,
    outputs: std::collections::BTreeMap<String, Value>,
    failed_xforms: Vec<FailedInvocation>,
    resumed_from: Option<u64>,
}

fn parse_inputs(args: &Args) -> Result<Vec<(String, Value)>, String> {
    let mut inputs: Vec<(String, Value)> = Vec::new();
    for spec in args.get_all("input") {
        let (name, json) = spec
            .split_once('=')
            .ok_or_else(|| format!("--input expects name=<json>, got {spec:?}"))?;
        let value: Value = serde_json::from_str(json)
            .map_err(|e| format!("input {name}: invalid value JSON: {e}"))?;
        inputs.push((name.to_string(), value));
    }
    Ok(inputs)
}

/// `tprov run --server ADDR`: execute the workflow locally but stream
/// its trace to a provenance daemon over the ingest protocol instead of
/// writing a local store — every acked batch is durable server-side
/// before this command exits.
fn run_via_server(args: &Args, addr: &str) -> Result<ExitCode, String> {
    if args.get("resume").is_some() {
        return Err("--resume needs the local store; it cannot combine with --server".into());
    }
    let df = load_workflow(args)?;
    let inputs = parse_inputs(args)?;
    let wf_json = serde_json::to_string(&df).map_err(|e| e.to_string())?;
    let sink = prov_serve::RemoteSink::connect(addr, Some(wf_json))
        .map_err(|e| format!("server {addr}: {e}"))?;
    let registry = BehaviorRegistry::new().with_builtins();
    let mut engine = Engine::new(registry);
    if let Some(attempts) = args.get_parsed::<u32>("max-attempts")? {
        if attempts == 0 {
            return Err("--max-attempts must be at least 1".into());
        }
        engine = engine.with_retry(RetryPolicy::attempts(attempts));
    }
    if args.has_flag("fail-fast") {
        engine = engine.fail_fast();
    }
    let out = engine.execute(&df, inputs, &sink).map_err(|e| e.to_string())?;
    // The engine swallows sink troubles (a trace sink must not fail a
    // run); surface a latched ingest error as this command's failure so
    // scripts never mistake an unacked trace for a durable one.
    if let Some(e) = sink.error() {
        return Err(format!("server {addr}: ingest failed: {e}"));
    }
    let code = report_run(args, &df, &out, None)?;
    if !args.has_flag("json") {
        println!("  {} durable frames acked by {addr}", sink.durable_frames());
    }
    Ok(code)
}

/// Prints the run report (text or `--json`) and maps the outcome to the
/// exit code contract: 0 completed, 3 partial failure.
fn report_run(
    args: &Args,
    df: &Dataflow,
    out: &prov_engine::RunOutcome,
    resumed_from: Option<u64>,
) -> Result<ExitCode, String> {
    let failed = out.failed_xforms();
    let status = if failed.is_empty() { "completed" } else { "partial-failure" };
    if args.has_flag("json") {
        let report = RunReport {
            run: out.run_id.0,
            workflow: df.name.to_string(),
            status: status.to_string(),
            outputs: out.outputs.iter().map(|(p, v)| (p.to_string(), v.clone())).collect(),
            failed_xforms: failed.to_vec(),
            resumed_from,
        };
        println!("{}", json::render(&report)?);
    } else {
        let how = if resumed_from.is_some() { "resumed" } else { "recorded" };
        println!("{}: {} run {how} ({status})", out.run_id, df.name);
        for (port, value) in &out.outputs {
            println!("  {port} = {value}");
        }
        for f in failed {
            eprintln!(
                "  FAILED {}{} after {} attempt(s): {}",
                f.processor, f.index, f.attempts, f.message
            );
        }
    }
    // Exit 0 on a completed run, 3 on a partial failure — distinguishable
    // from usage/IO errors (1) in scripts.
    Ok(if failed.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(3) })
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    if let Some(addr) = args.get("server") {
        return run_via_server(args, addr);
    }
    let store = open_db(args)?;
    let df = load_workflow(args)?;
    let inputs = parse_inputs(args)?;
    // The run path journals too: ingest batches and retries from the
    // engine, WAL syncs and snapshot writes from the store — all drained
    // into `<db>.journal.jsonl` on exit for `tprov tail`.
    let journal = Journal::from_env();
    store.attach_journal(&journal);
    let registry = BehaviorRegistry::new().with_builtins();
    let mut engine = Engine::new(registry).with_obs(Obs::disabled().with_journal(journal.clone()));
    if let Some(attempts) = args.get_parsed::<u32>("max-attempts")? {
        if attempts == 0 {
            return Err("--max-attempts must be at least 1".into());
        }
        engine = engine.with_retry(RetryPolicy::attempts(attempts));
    }
    if args.has_flag("fail-fast") {
        engine = engine.fail_fast();
    }
    // `--resume RUN` picks the crashed run back up: settled invocations
    // are reloaded from the durable trace, only the missing ones execute,
    // and the original run id is kept.
    let resumed_from: Option<u64> = args.get_parsed("resume")?;
    let out = match resumed_from {
        Some(run) => engine.resume(&df, inputs, &store, RunId(run)).map_err(|e| e.to_string())?,
        None => engine.execute(&df, inputs, &store).map_err(|e| e.to_string())?,
    };
    let code = report_run(args, &df, &out, resumed_from)?;
    journal_io::persist(args.required("db")?, &journal)?;
    Ok(code)
}

fn cmd_runs(args: &Args) -> Result<(), String> {
    let store = open_db(args)?;
    for info in store.runs() {
        println!(
            "{}  workflow={}  records={}  {}",
            info.id,
            info.workflow,
            info.xform_count + info.xfer_count,
            if info.finished { "finished" } else { "UNFINISHED" }
        );
    }
    println!("total: {} records", store.total_record_count());
    Ok(())
}

fn parse_port_ref(s: &str) -> Result<PortRef, String> {
    let (proc, port) =
        s.split_once(':').ok_or_else(|| format!("expected PROCESSOR:PORT, got {s:?}"))?;
    Ok(PortRef::new(proc, port))
}

fn parse_index(args: &Args) -> Result<Index, String> {
    match args.get("index") {
        None | Some("") => Ok(Index::empty()),
        Some(raw) => raw
            .split(',')
            .map(|c| c.trim().parse::<u32>().map_err(|e| format!("index {raw:?}: {e}")))
            .collect::<Result<Vec<u32>, _>>()
            .map(Index::from),
    }
}

fn parse_focus(args: &Args) -> Vec<ProcessorName> {
    args.get("focus")
        .map(|raw| raw.split(',').filter(|s| !s.is_empty()).map(ProcessorName::from).collect())
        .unwrap_or_default()
}

fn run_selection(args: &Args) -> Result<RunSelection, String> {
    if args.has_flag("all-runs") {
        return Ok(RunSelection::All);
    }
    Ok(RunSelection::One(RunId(args.get_parsed("run")?.unwrap_or(0))))
}

fn select_runs(args: &Args, store: &TraceStore) -> Result<Vec<RunId>, String> {
    Ok(match run_selection(args)? {
        RunSelection::All => store.runs().iter().map(|i| i.id).collect(),
        RunSelection::One(run) => vec![run],
    })
}

/// One local query request (`--run N | --all-runs`, `--algo`, `--workflow
/// FILE | --wf NAME`, `--tolerance F`) through [`prov_core::exec`], under a
/// fresh [`QueryCtx`] for `text`.
fn exec_local(
    args: &Args,
    store: &TraceStore,
    text: &str,
    algo: &str,
    obs: &Obs,
) -> Result<Executed, String> {
    let workflow = supplied_workflow(args)?;
    let mut ctx = QueryCtx::new(text);
    if let Some(tolerance) = args.get_parsed("tolerance")? {
        ctx.tolerance = tolerance;
    }
    let workflows = WorkflowCache::new();
    let env = Env { store, workflow: workflow.as_ref(), workflows: &workflows, obs, ctx: &ctx };
    let request =
        QueryRequest { query: text, runs: run_selection(args)?, algo, wf: args.get("wf") };
    prov_core::exec(&env, &request).map_err(query_err)
}

/// Executes `text` and prints what every query verb prints: the query in
/// the paper's notation, the plan size when INDEXPROJ planned one, and one
/// answer per run.
fn print_query(
    args: &Args,
    store: &TraceStore,
    text: &str,
    default_algo: &str,
    obs: &Obs,
) -> Result<(), String> {
    println!("{}", prov_core::parse_query(text).map_err(|e| e.to_string())?);
    let done = exec_local(args, store, text, args.get("algo").unwrap_or(default_algo), obs)?;
    if let Some(steps) = done.plan_steps {
        println!("plan: {steps} trace lookups");
    }
    for ans in &done.answers {
        print!("{ans}");
    }
    Ok(())
}

fn cmd_lineage(args: &Args) -> Result<(), String> {
    let store = open_db(args)?;
    let target = parse_port_ref(args.required("target")?)?;
    let query = LineageQuery::focused(target, parse_index(args)?, parse_focus(args));
    print_query(args, &store, &query.to_string(), "indexproj", &Obs::disabled())
}

fn cmd_impact(args: &Args) -> Result<(), String> {
    let store = open_db(args)?;
    let source = parse_port_ref(args.required("target")?)?;
    let query = ImpactQuery::focused(source, parse_index(args)?, parse_focus(args));
    print_query(args, &store, &query.to_string(), "ni", &Obs::disabled())
}

/// Audits stored traces against the workflow specification (Prop. 1,
/// fragment lengths, dangling transfers).
fn cmd_audit(args: &Args) -> Result<(), String> {
    let store = open_db(args)?;
    let df = resolve_workflow(args, &store)?;
    let runs = select_runs(args, &store)?;
    let mut dirty = false;
    for run in runs {
        let report = prov_core::audit_run(&df, &store, run).map_err(|e| e.to_string())?;
        dirty |= !report.is_clean();
        print!("{report}");
    }
    if dirty {
        Err("audit found violations".into())
    } else {
        Ok(())
    }
}

/// Queries written in the paper's own notation, e.g.
/// `tprov query --db t.wal --query 'lin(<2TO1_FINAL:Y[1,2]>, {LISTGEN_1})'`.
///
/// The store's WAL/snapshot hooks and the query layer journal typed events
/// (trace-id-stamped, so per-query attribution survives concurrent
/// queries on one store), and on exit the ring is drained into
/// `<db>.journal.jsonl` / `<db>.slow.jsonl` for `tprov tail` / `tprov
/// slow`. With INDEXPROJ the cost model's prediction is attached up front
/// (by [`prov_core::exec`]), so a finished query whose observed
/// lookups/rows violate the prediction is flagged as cost-model drift in
/// the slow log.
fn cmd_query(args: &Args) -> Result<(), String> {
    if let Some(addr) = args.get("server") {
        return query_via_server(args, addr);
    }
    let store = open_db(args)?;
    let journal = Journal::from_env();
    store.attach_journal(&journal);
    let obs = Obs::disabled().with_journal(journal.clone());
    print_query(args, &store, args.required("query")?, "ni", &obs)?;
    journal_io::persist(args.required("db")?, &journal)?;
    Ok(())
}

/// Snapshots the store's metrics: size gauges (runs, rows, dictionary and
/// index cardinalities) reflect the database as opened; counters reflect
/// work done by *this* process, so right after `open` they show the WAL
/// recovery cost and nothing else.
fn cmd_metrics(args: &Args) -> Result<(), String> {
    let store = open_db(args)?;
    let registry = Registry::new();
    store.register_metrics(&registry);
    // When this database is a replica, its follower (`tprov serve
    // --follow`) maintains a `<db>.repl.json` sidecar (written atomically
    // on every status change); surface its lag as gauges so one `metrics`
    // call covers both the store and its replication health.
    let sidecar = prov_serve::status_path(std::path::Path::new(args.required("db")?));
    if let Ok(text) = std::fs::read_to_string(&sidecar) {
        let s: prov_serve::ReplStatus = serde_json::from_str(&text)
            .map_err(|e| format!("{}: bad replication sidecar: {e}", sidecar.display()))?;
        registry.set_gauge("repl.lag_frames", s.lag_frames);
        registry.set_gauge("repl.lag_bytes", s.lag_bytes);
        registry.set_gauge("repl.generation", s.generation);
        registry.set_gauge("repl.connected", u64::from(s.connected));
    }
    // When a daemon last served this database, `tprov serve` left its
    // `serve.*`, `workflow_cache.*` and `plan_cache.*` counter families in
    // a `<db>.serve.json` sidecar at shutdown; fold it in so one `metrics`
    // call covers the store, its replication health, and its serve
    // surface.
    let serve_sidecar = format!("{}.serve.json", args.required("db")?);
    if let Ok(text) = std::fs::read_to_string(&serve_sidecar) {
        let m: std::collections::BTreeMap<String, u64> = serde_json::from_str(&text)
            .map_err(|e| format!("{serve_sidecar}: bad serve sidecar: {e}"))?;
        for (k, v) in &m {
            registry.set_gauge(k, *v);
        }
    }
    let snapshot = registry.snapshot();
    match args.get("format").unwrap_or("text") {
        "text" => print!("{}", snapshot.render_text()),
        "json" => println!("{}", json::render(&snapshot)?),
        other => return Err(format!("unknown --format {other:?} (text|json)")),
    }
    Ok(())
}

/// Renders one persisted journal line for `tprov tail`'s text mode.
fn render_journal_line(path: &str, line: &str) -> Result<String, String> {
    let e: prov_obs::Stamped =
        serde_json::from_str(line).map_err(|err| format!("{path}: bad journal line: {err}"))?;
    let mut out = format!("#{:<6} {:>10} tid={} {}", e.seq, fmt_ns(e.ts_ns), e.tid, e.event.kind());
    if let prov_obs::JournalEvent::QueryStarted { query, .. } = &e.event {
        out.push_str(&format!(" {query:?}"));
    }
    for (k, v) in e.event.numeric_args() {
        out.push_str(&format!(" {k}={v}"));
    }
    Ok(out)
}

/// Dumps — or, with `--follow`, keeps streaming — the tail of the
/// journal sidecar (`<db>.journal.jsonl`) that query/run commands append
/// on exit. `--format json` reprints the raw event lines (one JSON
/// object per line, schema locked by a golden test); text mode renders
/// `#seq timestamp tid kind k=v…`.
fn cmd_tail(args: &Args) -> Result<(), String> {
    let db = args.required("db")?;
    let path = journal_io::journal_path(db);
    let last: usize = args.get_parsed("last")?.unwrap_or(20);
    let json_format = match args.get("format").unwrap_or("text") {
        "text" => false,
        "json" => true,
        other => return Err(format!("unknown --format {other:?} (text|json)")),
    };
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("no journal at {path} ({e}); run a query or a workflow first"))?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    for line in &lines[lines.len().saturating_sub(last)..] {
        if json_format {
            println!("{line}");
        } else {
            println!("{}", render_journal_line(&path, line)?);
        }
    }
    if !args.has_flag("follow") {
        return Ok(());
    }
    // Follow mode: poll the file for growth and render each newly
    // completed line. A trailing partial line (a writer mid-append) is
    // carried until its newline lands.
    use std::io::{Read as _, Seek as _};
    let mut offset = text.len() as u64;
    let mut carry = String::new();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(250));
        let Ok(meta) = std::fs::metadata(&path) else { continue };
        if meta.len() <= offset {
            continue;
        }
        let mut f = std::fs::File::open(&path).map_err(|e| format!("{path}: {e}"))?;
        f.seek(std::io::SeekFrom::Start(offset)).map_err(|e| format!("{path}: {e}"))?;
        let mut fresh = String::new();
        f.read_to_string(&mut fresh).map_err(|e| format!("{path}: {e}"))?;
        offset += fresh.len() as u64;
        carry.push_str(&fresh);
        while let Some(nl) = carry.find('\n') {
            let line: String = carry.drain(..=nl).collect();
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if json_format {
                println!("{line}");
            } else {
                println!("{}", render_journal_line(&path, line)?);
            }
        }
    }
}

/// One aggregated row of `tprov slow`: all slow-log entries sharing a
/// plan fingerprint. Field names are part of the CLI contract.
#[derive(serde::Serialize)]
struct SlowAgg {
    fingerprint: u64,
    query: String,
    count: u64,
    slow_count: u64,
    drift_count: u64,
    total_us: u64,
    max_us: u64,
}

/// What `tprov slow --format json` prints.
#[derive(serde::Serialize)]
struct SlowReport {
    entries: u64,
    drift_entries: u64,
    aggregates: Vec<SlowAgg>,
}

/// Aggregates the slow-query log (`<db>.slow.jsonl`): entries grouped by
/// plan fingerprint, ranked by total time, with per-group drift counts —
/// a drift-flagged group means the cost model's prediction was violated
/// beyond tolerance (cost-model drift), not merely a slow query.
fn cmd_slow(args: &Args) -> Result<(), String> {
    let db = args.required("db")?;
    let path = journal_io::slow_path(db);
    let json_format = match args.get("format").unwrap_or("text") {
        "text" => false,
        "json" => true,
        other => return Err(format!("unknown --format {other:?} (text|json)")),
    };
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let mut records: Vec<journal_io::SlowRecord> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        records
            .push(serde_json::from_str(line).map_err(|e| format!("{path}: bad slow line: {e}"))?);
    }
    if let Some(last) = args.get_parsed::<usize>("last")? {
        let start = records.len().saturating_sub(last);
        records.drain(..start);
    }
    let mut groups: std::collections::HashMap<u64, SlowAgg> = std::collections::HashMap::new();
    let mut drift_entries = 0u64;
    for r in &records {
        drift_entries += u64::from(r.drift);
        let g = groups.entry(r.fingerprint).or_insert_with(|| SlowAgg {
            fingerprint: r.fingerprint,
            query: r.query.clone(),
            count: 0,
            slow_count: 0,
            drift_count: 0,
            total_us: 0,
            max_us: 0,
        });
        g.count += 1;
        g.slow_count += u64::from(r.slow);
        g.drift_count += u64::from(r.drift);
        g.total_us += r.dur_us;
        g.max_us = g.max_us.max(r.dur_us);
    }
    let mut aggregates: Vec<SlowAgg> = groups.into_values().collect();
    aggregates.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.fingerprint.cmp(&b.fingerprint)));

    if json_format {
        let report = SlowReport { entries: records.len() as u64, drift_entries, aggregates };
        println!("{}", json::render(&report)?);
        return Ok(());
    }
    if records.is_empty() {
        println!("slow-query log {path}: no entries");
        return Ok(());
    }
    let rate = 100.0 * drift_entries as f64 / records.len() as f64;
    println!(
        "slow-query log {path}: {} entr{}, {} drift-flagged (misprediction rate {rate:.0}%)",
        records.len(),
        if records.len() == 1 { "y" } else { "ies" },
        drift_entries,
    );
    println!(
        "{:<16} {:>5} {:>5} {:>5} {:>10} {:>10}  query",
        "fingerprint", "count", "slow", "drift", "total", "max"
    );
    for a in &aggregates {
        println!(
            "{:016x} {:>5} {:>5} {:>5} {:>10} {:>10}  {}",
            a.fingerprint,
            a.count,
            a.slow_count,
            a.drift_count,
            fmt_ns(a.total_us * 1_000),
            fmt_ns(a.max_us * 1_000),
            a.query,
        );
    }
    Ok(())
}

/// Formats nanoseconds for the profile table.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.1}us", ns as f64 / 1e3)
    }
}

/// Profiles a lineage query: runs it under an enabled [`Obs`], prints a
/// per-stage timing table and the paper's t1 (graph traversal) vs t2
/// (trace access) decomposition, and optionally writes the span timeline
/// as Chrome/Perfetto trace-event JSON.
fn cmd_profile(args: &Args) -> Result<(), String> {
    let store = open_db(args)?;
    let raw = args.required("query")?;
    let query = match prov_core::parse_query(raw).map_err(|e| e.to_string())? {
        prov_core::ParsedQuery::Lineage(q) => q,
        prov_core::ParsedQuery::Impact(_) => {
            return Err("profile supports lineage queries only (lin(<P:Y[i]>, {focus}))".into())
        }
    };
    let algo = args.get("algo").unwrap_or("both");
    if !matches!(algo, "ni" | "indexproj" | "both") {
        return Err(format!("unknown --algo {algo:?} (ni|indexproj|both)"));
    }

    let obs = Obs::enabled();
    store.register_metrics(&obs.metrics);
    store.attach_journal(&obs.journal);
    obs.journal.register_metrics(&obs.metrics);
    let before = obs.metrics.snapshot();
    println!("{query}");

    // Each algorithm is its own request, so it gets its own trace id and
    // the journal separates NI's events from INDEXPROJ's.
    let ran_ni = algo != "indexproj";
    let ran_ip = algo != "ni";
    for (ran, name, label) in [(ran_ni, "ni", "NI"), (ran_ip, "indexproj", "INDEXPROJ")] {
        if ran {
            let answers = exec_local(args, &store, raw, name, &obs)?.answers;
            let bindings: usize = answers.iter().map(|a| a.bindings.len()).sum();
            println!("{label}: {} run(s), {bindings} lineage binding(s)", answers.len());
        }
    }

    // Per-stage table with midpoint-interpolated quantiles: span
    // durations feed one standalone log2 histogram per (stage, cat).
    let aggs = obs.profiler.aggregate();
    let mut hists: std::collections::HashMap<(String, &'static str), prov_obs::Histogram> =
        std::collections::HashMap::new();
    for span in obs.profiler.spans() {
        hists
            .entry((span.name.to_string(), span.cat))
            .or_insert_with(prov_obs::Histogram::standalone)
            .record(span.dur_ns);
    }
    println!();
    println!(
        "{:<32} {:<7} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "stage", "cat", "count", "total", "max", "p50", "p95", "p99"
    );
    for a in &aggs {
        let snap = hists.get(&(a.name.clone(), a.cat)).map(|h| h.snapshot()).unwrap_or_default();
        println!(
            "{:<32} {:<7} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
            a.name,
            a.cat,
            a.count,
            fmt_ns(a.total_ns),
            fmt_ns(a.max_ns),
            fmt_ns(snap.p50),
            fmt_ns(snap.p95),
            fmt_ns(snap.p99),
        );
    }

    // The paper's decomposition (§4): t1 = graph/spec traversal work,
    // t2 = trace (store) access work.
    let total =
        |name: &str| -> u64 { aggs.iter().filter(|a| a.name == name).map(|a| a.total_ns).sum() };
    println!();
    if ran_ni {
        let traverse = total("ni.traverse");
        let t2 = total("ni.hop");
        println!(
            "NI:        t1 (graph traversal) = {:>10}   t2 (trace access) = {:>10}",
            fmt_ns(traverse.saturating_sub(t2)),
            fmt_ns(t2)
        );
    }
    if ran_ip {
        let t1 = total("indexproj.plan") + total("indexproj.assemble");
        let t2 = total("indexproj.step");
        println!(
            "INDEXPROJ: t1 (plan + assemble) = {:>10}   t2 (trace access) = {:>10}",
            fmt_ns(t1),
            fmt_ns(t2)
        );
    }

    let delta = obs.metrics.snapshot().counters_since(&before);
    let touched: Vec<(&String, &u64)> = delta.iter().filter(|(_, v)| **v > 0).collect();
    if !touched.is_empty() {
        println!();
        println!("store counters for this profile run:");
        for (k, v) in touched {
            println!("  {k}: {v}");
        }
    }

    if let Some(path) = args.get("chrome-trace") {
        // Spans plus journal instants (ph "i") on one timeline — the
        // journal shares the profiler's origin, so timestamps line up.
        let mut events = obs.profiler.chrome_trace_events();
        events.extend(prov_obs::chrome_instant_events(&obs.journal.events()));
        std::fs::write(path, json::render(&events)?).map_err(|e| e.to_string())?;
        println!();
        println!(
            "chrome trace written to {path} ({} events); load it in ui.perfetto.dev",
            events.len()
        );
    }

    let journal_events = obs.journal.events().len();
    let (persisted, slow) = journal_io::persist(args.required("db")?, &obs.journal)?;
    println!();
    println!(
        "journal: {journal_events} event(s) ({} dropped), {persisted} persisted, \
         {slow} slow/drift entr{} — see `tprov tail` / `tprov slow`",
        obs.journal.dropped(),
        if slow == 1 { "y" } else { "ies" },
    );
    Ok(())
}

/// One step row of `explain --format json`. Field names are part of the
/// CLI contract.
#[derive(serde::Serialize)]
struct ExplainStepReport {
    step: usize,
    index: String,
    processor: String,
    port: String,
    probe: String,
    probe_depth: usize,
    expected_depth: usize,
    class: String,
    served: bool,
    predicted_lookups: u64,
    predicted_rows: u64,
    slice_keys: u64,
    slice_rows: u64,
    slice_depth: usize,
}

/// One query's worth of `explain --format json` output.
#[derive(serde::Serialize)]
struct ExplainReport {
    query: String,
    servable: bool,
    steps: Vec<ExplainStepReport>,
    diagnostics: Vec<prov_dataflow::DiagnosticJson>,
    predicted_lookups: u64,
    predicted_rows: u64,
    grounded: bool,
    check: Option<prov_core::CostCheck>,
}

/// Static plan verification and cost prediction (`prov-verify`): compiles
/// each query, checks every plan step against the store's index catalog,
/// predicts per-step `index_lookups`/`rows_scanned` from table statistics,
/// and — with `--check` — executes the plan and compares the prediction
/// against the store's actual counters. Exit is nonzero on any `E1xx`
/// finding or a failed check, so the command slots into CI as a gate.
fn cmd_explain(args: &Args) -> Result<(), String> {
    let store = open_db(args)?;
    let df = resolve_workflow(args, &store)?;
    let ip = IndexProj::new(&df);
    let run = RunId(args.get_parsed("run")?.unwrap_or(0));
    let tolerance: f64 = args.get_parsed("tolerance")?.unwrap_or(10.0);
    let json_format = match args.get("format").unwrap_or("text") {
        "text" => false,
        "json" => true,
        other => return Err(format!("unknown --format {other:?} (text|json)")),
    };

    // The store's own catalog, minus any indexes the user asks to model
    // away (`--without-index xform_in` shows what losing an index costs).
    let mut catalog = store.index_catalog();
    for spec in args.get_all("without-index") {
        for name in spec.split(',').filter(|s| !s.is_empty()) {
            let id = prov_store::IndexId::parse(name).ok_or_else(|| {
                format!("unknown index {name:?} (xform_out|xform_in|xfer_dst|xfer_src)")
            })?;
            catalog = catalog.without(id);
        }
    }

    // With no query: one unfocused coarse query per workflow output — the
    // shape the CI explain-gate sweeps over every example spec.
    let queries: Vec<LineageQuery> = match args.get("query") {
        Some(raw) => match prov_core::parse_query(raw).map_err(|e| e.to_string())? {
            prov_core::ParsedQuery::Lineage(q) => vec![q],
            prov_core::ParsedQuery::Impact(_) => {
                return Err("explain supports lineage queries only (lin(<P:Y[i]>, {focus}))".into())
            }
        },
        None => df
            .outputs
            .iter()
            .map(|o| {
                LineageQuery::unfocused(
                    PortRef::new(df.name.as_str(), &o.name),
                    Index::empty(),
                    &df,
                )
            })
            .collect(),
    };

    let obs = Obs::enabled();
    let view = store.pin(run);
    let mut errors = 0usize;
    let mut failed_checks = 0usize;
    let mut reports: Vec<ExplainReport> = Vec::new();
    for query in &queries {
        let ex = ip.explain_with(query, &catalog, Some(&view), &obs).map_err(|e| e.to_string())?;
        errors += ex.report.error_count();

        let check = if args.has_flag("check") && ex.is_servable() {
            let before = store.stats().snapshot();
            let (quiet, ctx) = (Obs::disabled(), QueryCtx::detached());
            ex.plan.execute_pinned(&view, &quiet, &ctx).map_err(|e| e.to_string())?;
            let delta = store.stats().snapshot().since(before);
            let chk = ex.cost.check(
                delta.index_lookups,
                delta.records_read + delta.rows_scanned,
                tolerance,
            );
            // Predicted-vs-actual as obs gauges, next to the store.*
            // counters, for anyone scraping the metrics registry.
            obs.metrics.set_gauge("explain.predicted_lookups", chk.predicted_lookups);
            obs.metrics.set_gauge("explain.actual_lookups", chk.actual_lookups);
            obs.metrics.set_gauge("explain.predicted_rows", chk.predicted_rows);
            obs.metrics.set_gauge("explain.actual_rows", chk.actual_rows);
            if !chk.ok {
                failed_checks += 1;
            }
            Some(chk)
        } else {
            None
        };

        if json_format {
            reports.push(ExplainReport {
                query: query.to_string(),
                servable: ex.is_servable(),
                steps: ex
                    .plan
                    .steps
                    .iter()
                    .zip(&ex.report.steps)
                    .zip(&ex.cost.per_step)
                    .enumerate()
                    .map(|(i, ((step, v), cost))| {
                        let card = ex.cardinalities[i].unwrap_or_default();
                        ExplainStepReport {
                            step: i,
                            index: v.index_id.name().to_string(),
                            processor: step.processor.to_string(),
                            port: step.port.to_string(),
                            probe: step.index.to_string(),
                            probe_depth: step.index.len(),
                            expected_depth: step.expected_depth,
                            class: v.class.label().to_string(),
                            served: v.served,
                            predicted_lookups: cost.index_lookups,
                            predicted_rows: cost.rows_scanned,
                            slice_keys: card.keys,
                            slice_rows: card.rows,
                            slice_depth: card.max_depth,
                        }
                    })
                    .collect(),
                diagnostics: prov_dataflow::json_records(&ex.report.diagnostics),
                predicted_lookups: ex.cost.index_lookups,
                predicted_rows: ex.cost.rows_scanned,
                grounded: ex.cost.grounded,
                check,
            });
        } else {
            println!("{query}");
            println!(
                "plan: {} step(s); catalog serves: {}",
                ex.plan.steps.len(),
                catalog.available().iter().map(|id| id.name()).collect::<Vec<_>>().join(", ")
            );
            for (i, ((step, v), cost)) in
                ex.plan.steps.iter().zip(&ex.report.steps).zip(&ex.cost.per_step).enumerate()
            {
                let card = ex.cardinalities[i].unwrap_or_default();
                println!(
                    "  s{i}  {:<9} {}:{}{}  depth {}/{}  {:<13} lookups={} rows~{}  \
                     (slice: {} keys, {} rows)",
                    v.index_id.name(),
                    step.processor,
                    step.port,
                    step.index,
                    step.index.len(),
                    step.expected_depth,
                    v.class.label(),
                    cost.index_lookups,
                    cost.rows_scanned,
                    card.keys,
                    card.rows,
                );
            }
            println!(
                "predicted: {} index lookups, ~{} rows{}",
                ex.cost.index_lookups,
                ex.cost.rows_scanned,
                if ex.cost.grounded { "" } else { " (ungrounded: no table statistics)" }
            );
            if !ex.report.diagnostics.is_empty() {
                print!("{}", prov_dataflow::render_text(&ex.report.diagnostics));
            }
            if let Some(chk) = check {
                println!(
                    "check: predicted {} lookups / ~{} rows vs actual {} / {} \
                     (tolerance {}x) — {}",
                    chk.predicted_lookups,
                    chk.predicted_rows,
                    chk.actual_lookups,
                    chk.actual_rows,
                    chk.tolerance,
                    if chk.ok { "ok" } else { "FAILED" }
                );
            }
            println!();
        }
    }
    if json_format {
        println!("{}", json::render(&reports)?);
    }
    if errors > 0 {
        Err(format!("explain: {errors} error-level finding(s)"))
    } else if failed_checks > 0 {
        Err(format!("explain: {failed_checks} failed cost check(s)"))
    } else {
        Ok(())
    }
}

/// Runs the static diagnostics pass (`prov_dataflow::analyze`) over a
/// workflow specification and reports rustc-style findings. Error-level
/// diagnostics make the command exit nonzero, so `lint` slots into CI.
fn cmd_lint(args: &Args) -> Result<(), String> {
    let df = load_workflow(args)?;
    let mut config = AnalyzeConfig::default();
    if let Some(t) = args.get_parsed("iteration-threshold")? {
        config.iteration_depth_threshold = t;
    }
    let diagnostics = prov_dataflow::analyze_with(&df, &config);
    match args.get("format").unwrap_or("text") {
        "text" => print!("{}", prov_dataflow::render_text(&diagnostics)),
        "json" => println!("{}", json::render(&prov_dataflow::json_records(&diagnostics))?),
        other => return Err(format!("unknown --format {other:?} (text|json)")),
    }
    let errors = prov_dataflow::error_count(&diagnostics);
    if errors > 0 {
        Err(format!("lint: {errors} error(s) in {}", df.name))
    } else {
        Ok(())
    }
}

fn cmd_dot(args: &Args) -> Result<(), String> {
    let df = load_workflow(args)?;
    if args.has_flag("lint") {
        let diagnostics = prov_dataflow::analyze(&df);
        print!("{}", to_dot_with_diagnostics(&df, &diagnostics));
    } else {
        print!("{}", to_dot(&df));
    }
    Ok(())
}

/// Compares a lineage question across two runs (§3.4): shared plan, one
/// execution per run, set difference of the answers — plus the trace-level
/// invocation-count diff.
fn cmd_diff(args: &Args) -> Result<(), String> {
    let store = open_db(args)?;
    let df = resolve_workflow(args, &store)?;
    let a = RunId(args.get_parsed("a")?.ok_or("missing required --a")?);
    let b = RunId(args.get_parsed("b")?.ok_or("missing required --b")?);
    let target = parse_port_ref(args.required("target")?)?;
    let query = LineageQuery::focused(target, parse_index(args)?, parse_focus(args));
    println!("{query}");
    let diff = prov_core::diff_lineage(&df, &store, a, b, &query).map_err(|e| e.to_string())?;
    print!("{diff}");
    let tdiff = prov_core::diff_traces(&store, a, b);
    let divergent = tdiff.divergent();
    if divergent.is_empty() {
        println!("trace shapes identical ({} processors)", tdiff.invocations.len());
    } else {
        println!("divergent iteration structure:");
        for (p, x, y) in divergent {
            println!("  {p}: {x} vs {y} invocations");
        }
    }
    Ok(())
}

/// Value-predicated search: where did a value appear, and (optionally) what
/// is its lineage from each of those bindings?
fn cmd_find_value(args: &Args) -> Result<(), String> {
    let store = open_db(args)?;
    let raw = args.required("value")?;
    // Accept either full Value JSON or a bare string shorthand.
    let value: Value = serde_json::from_str(raw).unwrap_or_else(|_| Value::str(raw));
    let runs = select_runs(args, &store)?;
    let focus = parse_focus(args);
    let (obs, ctx) = (Obs::disabled(), QueryCtx::detached());
    for run in runs {
        let view = store.pin(run);
        let hits = view.bindings_with_value(&value);
        println!("{run}: value {value} appears in {} binding(s)", hits.len());
        for b in &hits {
            println!("  {b}");
            if args.has_flag("lineage") {
                let q =
                    LineageQuery::focused(b.port.clone(), b.index.clone(), focus.iter().cloned());
                let ans = NaiveLineage::new()
                    .run_pinned(&view, &q, &obs, &ctx)
                    .map_err(|e| e.to_string())?;
                for lb in &ans.bindings {
                    println!("    ⇐ {lb}");
                }
            }
        }
    }
    Ok(())
}

/// Renders one run's provenance *graph* (bindings + dependencies), as DOT
/// or JSON. Useful for small traces only — the point of the paper is that
/// you rarely want to look at this whole graph.
fn cmd_trace_dot(args: &Args) -> Result<(), String> {
    let store = open_db(args)?;
    let run: u64 = args.get_parsed("run")?.unwrap_or(0);
    let graph = prov_store::ProvenanceGraph::of_run(&store, RunId(run));
    let (nodes, edges) = graph.size();
    eprintln!("provenance graph of run:{run}: {nodes} nodes, {edges} edges");
    if args.has_flag("json") {
        println!("{}", graph.to_json().map_err(|e| e.to_string())?);
    } else {
        print!("{}", graph.to_dot(RunId(run)));
    }
    Ok(())
}
