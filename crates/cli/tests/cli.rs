//! End-to-end tests of the `tprov` binary: each test drives real
//! subcommands against a temporary durable database.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tprov(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tprov")).args(args).output().expect("tprov runs")
}

fn tprov_env(args: &[&str], envs: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tprov"))
        .args(args)
        .envs(envs.iter().map(|(k, v)| (k.to_string(), v.to_string())))
        .output()
        .expect("tprov runs")
}

/// Sorted field names of a JSON object (the vendored tree model stores
/// objects as ordered pairs).
fn sorted_keys(v: &serde_json::Value) -> Vec<String> {
    let serde_json::Value::Object(fields) = v else { panic!("expected object, got {v:?}") };
    let mut keys: Vec<String> = fields.iter().map(|(k, _)| k.clone()).collect();
    keys.sort_unstable();
    keys
}

fn json_u64(v: &serde_json::Value) -> u64 {
    match v {
        serde_json::Value::Int(i) => u64::try_from(*i).unwrap(),
        serde_json::Value::Uint(u) => *u,
        other => panic!("expected unsigned number, got {other:?}"),
    }
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

struct TempDb {
    path: PathBuf,
}

impl TempDb {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join("tprov-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        TempDb { path }
    }

    fn arg(&self) -> &str {
        self.path.to_str().unwrap()
    }

    fn sidecar(&self, workflow: &str) -> String {
        format!("{}.{workflow}.json", self.arg())
    }
}

impl Drop for TempDb {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        // Every sidecar hangs off the db file name (`<db>.<suffix>`):
        // workflow specs, journal/slow logs, snapshots, replication state.
        if let (Some(dir), Some(name)) =
            (self.path.parent(), self.path.file_name().and_then(|n| n.to_str()))
        {
            if let Ok(entries) = std::fs::read_dir(dir) {
                for entry in entries.flatten() {
                    if entry.file_name().to_string_lossy().starts_with(&format!("{name}.")) {
                        let _ = std::fs::remove_file(entry.path());
                    }
                }
            }
        }
    }
}

#[test]
fn help_prints_usage_and_unknown_command_fails() {
    let out = tprov(&["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("commands:"));

    let out = tprov(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn testbed_runs_lineage_round_trip() {
    let db = TempDb::new("testbed");
    let out = tprov(&["testbed", "--db", db.arg(), "--l", "4", "--d", "3", "--runs", "2"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("run:0"));
    assert!(stdout(&out).contains("run:1"));

    let out = tprov(&["runs", "--db", db.arg()]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("workflow=testbed"));
    assert!(stdout(&out).contains("finished"));

    // INDEXPROJ lineage via the saved workflow spec.
    let out = tprov(&[
        "lineage",
        "--db",
        db.arg(),
        "--workflow",
        &db.sidecar("testbed"),
        "--target",
        "2TO1_FINAL:Y",
        "--index",
        "1,2",
        "--focus",
        "LISTGEN_1",
        "--all-runs",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("plan: 1 trace lookups"));
    assert!(text.contains("⟨LISTGEN_1:size[], 3⟩"));
    assert!(text.matches("1 binding(s)").count() == 2); // both runs

    // NI gives the same binding.
    let out = tprov(&[
        "lineage",
        "--db",
        db.arg(),
        "--target",
        "2TO1_FINAL:Y",
        "--index",
        "1,2",
        "--focus",
        "LISTGEN_1",
        "--run",
        "0",
        "--algo",
        "ni",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("⟨LISTGEN_1:size[], 3⟩"));
}

#[test]
fn query_command_parses_paper_notation() {
    let db = TempDb::new("query");
    assert!(tprov(&["testbed", "--db", db.arg(), "--l", "3", "--d", "2"]).status.success());
    let out =
        tprov(&["query", "--db", db.arg(), "--query", "lin(<2TO1_FINAL:Y[0,1]>, {LISTGEN_1})"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("⟨LISTGEN_1:size[], 2⟩"));

    // Impact direction through the same entry point.
    let out =
        tprov(&["query", "--db", db.arg(), "--query", "impact(<testbed:ListSize[]>, {testbed})"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("testbed:product"));

    // Malformed queries fail with a parse error.
    let out = tprov(&["query", "--db", db.arg(), "--query", "lin(oops"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("parse error"));

    // A store with no runs: `--all-runs` selects nothing, so the query is
    // planned (its cost prediction ungrounded) and answers nothing — it
    // used to index the first of zero runs and panic.
    let fresh = TempDb::new("query-fresh");
    for verb in ["query", "profile"] {
        let out = tprov(&[
            verb,
            "--db",
            fresh.arg(),
            "--workflow",
            &db.sidecar("testbed"),
            "--all-runs",
            "--algo",
            "indexproj",
            "--query",
            "lin(<2TO1_FINAL:Y[0,0]>, {LISTGEN_1})",
        ]);
        assert_eq!(out.status.code(), Some(0), "{verb}: {}", stderr(&out));
        assert!(!stdout(&out).contains("binding(s):"), "{verb}: {}", stdout(&out));
        assert!(stdout(&out).contains("⟨2TO1_FINAL:Y[0,0]⟩"), "{verb}: {}", stdout(&out));
    }
}

#[test]
fn a_query_on_a_run_the_store_does_not_hold_exits_1() {
    let db = TempDb::new("unknown-run");
    let testbed = ["testbed", "--db", db.arg(), "--l", "3", "--d", "2", "--runs", "3"];
    assert!(tprov(&testbed).status.success());
    let missing = TempDb::new("unknown-run-missing");
    let query = "lin(<2TO1_FINAL:Y[0,1]>, {LISTGEN_1})";
    for (store, run) in [(&db, "7"), (&missing, "0")] {
        let out = tprov(&["query", "--db", store.arg(), "--run", run, "--query", query]);
        assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
        assert!(stderr(&out).contains(&format!("unknown run {run}")), "{}", stderr(&out));
        assert!(!stdout(&out).contains("binding(s)"), "{}", stdout(&out));
    }
    // The runs it holds still answer.
    let out = tprov(&["query", "--db", db.arg(), "--run", "2", "--query", query]);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn audit_reports_clean_for_engine_traces() {
    let db = TempDb::new("audit");
    assert!(tprov(&["testbed", "--db", db.arg(), "--l", "3", "--d", "2"]).status.success());
    let out =
        tprov(&["audit", "--db", db.arg(), "--workflow", &db.sidecar("testbed"), "--all-runs"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("clean"));
}

#[test]
fn gk_and_dot_commands_work() {
    let db = TempDb::new("gk");
    let out = tprov(&["gk", "--db", db.arg(), "--lists", "2", "--genes", "1"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("commonPathways"));

    let out = tprov(&["dot", "--workflow", &db.sidecar("genes2Kegg")]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("digraph \"genes2Kegg\""));

    let out = tprov(&["trace-dot", "--db", db.arg(), "--run", "0"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("digraph \"run:0\""));
    assert!(stderr(&out).contains("nodes"));
}

#[test]
fn run_command_executes_workflow_json_with_builtins() {
    let db = TempDb::new("runjson");
    // Author a workflow JSON via the library, then execute it via the CLI.
    let mut b = prov_dataflow::DataflowBuilder::new("upper");
    b.input("xs", prov_dataflow::PortType::list(prov_dataflow::BaseType::String));
    b.processor_with_behavior("U", "string_upper")
        .in_port("x", prov_dataflow::PortType::atom(prov_dataflow::BaseType::String))
        .out_port("y", prov_dataflow::PortType::atom(prov_dataflow::BaseType::String));
    b.arc_from_input("xs", "U", "x").unwrap();
    b.output("ys", prov_dataflow::PortType::list(prov_dataflow::BaseType::String));
    b.arc_to_output("U", "y", "ys").unwrap();
    let df = b.build().unwrap();
    let wf_path = format!("{}.authored.json", db.arg());
    std::fs::write(&wf_path, serde_json::to_string(&df).unwrap()).unwrap();

    let out = tprov(&[
        "run",
        "--db",
        db.arg(),
        "--workflow",
        &wf_path,
        "--input",
        r#"xs={"List":[{"Atom":{"Str":"ab"}},{"Atom":{"Str":"cd"}}]}"#,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("\"AB\""));
    assert!(stdout(&out).contains("\"CD\""));
    let _ = std::fs::remove_file(&wf_path);
}

#[test]
fn run_partial_failure_exits_3_and_reports_failures_in_json() {
    let db = TempDb::new("partial");
    // `string_upper` fails on the Int element: element 1 of the iteration
    // becomes an error token while its sibling completes.
    let mut b = prov_dataflow::DataflowBuilder::new("upper");
    b.input("xs", prov_dataflow::PortType::list(prov_dataflow::BaseType::String));
    b.processor_with_behavior("U", "string_upper")
        .in_port("x", prov_dataflow::PortType::atom(prov_dataflow::BaseType::String))
        .out_port("y", prov_dataflow::PortType::atom(prov_dataflow::BaseType::String));
    b.arc_from_input("xs", "U", "x").unwrap();
    b.output("ys", prov_dataflow::PortType::list(prov_dataflow::BaseType::String));
    b.arc_to_output("U", "y", "ys").unwrap();
    let df = b.build().unwrap();
    let wf_path = format!("{}.authored.json", db.arg());
    std::fs::write(&wf_path, serde_json::to_string(&df).unwrap()).unwrap();
    let mixed = r#"xs={"List":[{"Atom":{"Str":"ab"}},{"Atom":{"Int":3}}]}"#;

    let out = tprov(&[
        "run",
        "--db",
        db.arg(),
        "--workflow",
        &wf_path,
        "--input",
        mixed,
        "--max-attempts",
        "2",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(3), "partial failure must exit 3: {}", stderr(&out));
    let report: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();
    assert_eq!(report.get("status").unwrap().as_str(), Some("partial-failure"));
    assert_eq!(report.get("workflow").unwrap().as_str(), Some("upper"));
    let failed = report.get("failed_xforms").unwrap().as_array().unwrap();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].get("processor").unwrap().as_str(), Some("U"));
    let attempts = format!("{:?}", failed[0].get("attempts").unwrap());
    assert!(attempts.contains('2'), "--max-attempts carried into the report: {attempts}");
    // The sibling element still made it to the output.
    let ys = format!("{:?}", report.get("outputs").unwrap().get("ys").unwrap());
    assert!(ys.contains("AB"), "{ys}");

    // Human mode: failure summary on stderr, same exit code 3.
    let out = tprov(&["run", "--db", db.arg(), "--workflow", &wf_path, "--input", mixed]);
    assert_eq!(out.status.code(), Some(3));
    assert!(stderr(&out).contains("FAILED U"), "{}", stderr(&out));
    assert!(stdout(&out).contains("partial-failure"));

    // --fail-fast restores abort-on-first-error: the run dies with a
    // behavior error (generic exit 1), not a partial trace.
    let out =
        tprov(&["run", "--db", db.arg(), "--workflow", &wf_path, "--input", mixed, "--fail-fast"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("U"), "{}", stderr(&out));

    // A clean input exits 0 with status "completed".
    let out = tprov(&[
        "run",
        "--db",
        db.arg(),
        "--workflow",
        &wf_path,
        "--input",
        r#"xs={"List":[{"Atom":{"Str":"ab"}}]}"#,
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let report: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();
    assert_eq!(report.get("status").unwrap().as_str(), Some("completed"));
    assert!(report.get("failed_xforms").unwrap().as_array().unwrap().is_empty());
    let _ = std::fs::remove_file(&wf_path);
}

/// `run --db` registers the spec it ran, so the database answers for its
/// runs without `--workflow`.
#[test]
fn run_db_registers_its_workflow_for_query_and_explain() {
    let db = TempDb::new("run-registers");
    let wf_path = author_upper_workflow(&db);
    let input = r#"xs={"List":[{"Atom":{"Str":"ab"}},{"Atom":{"Str":"cd"}}]}"#;
    let out = tprov(&["run", "--db", db.arg(), "--workflow", &wf_path, "--input", input]);
    assert!(out.status.success(), "{}", stderr(&out));
    let query = "lin(<U:y[1]>, {U})";
    let out = tprov(&["query", "--db", db.arg(), "--algo", "indexproj", "--query", query]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("\"cd\""), "{}", stdout(&out));
    let out = tprov(&["explain", query, "--db", db.arg()]);
    assert!(out.status.success(), "{}{}", stdout(&out), stderr(&out));
}

/// A run the engine refuses before it starts — a task whose behaviour is
/// not registered — leaves no run in the database.
#[test]
fn run_that_cannot_start_records_no_run() {
    let db = TempDb::new("unstartable");
    let mut b = prov_dataflow::DataflowBuilder::new("ghost");
    b.input("xs", prov_dataflow::PortType::list(prov_dataflow::BaseType::String));
    b.processor_with_behavior("G", "no_such_behavior")
        .in_port("x", prov_dataflow::PortType::atom(prov_dataflow::BaseType::String))
        .out_port("y", prov_dataflow::PortType::atom(prov_dataflow::BaseType::String));
    b.arc_from_input("xs", "G", "x").unwrap();
    b.output("ys", prov_dataflow::PortType::list(prov_dataflow::BaseType::String));
    b.arc_to_output("G", "y", "ys").unwrap();
    let wf_path = format!("{}.authored.json", db.arg());
    std::fs::write(&wf_path, serde_json::to_string(&b.build().unwrap()).unwrap()).unwrap();

    let input = r#"xs={"List":[{"Atom":{"Str":"ab"}}]}"#;
    let out = tprov(&["run", "--db", db.arg(), "--workflow", &wf_path, "--input", input]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("no_such_behavior"), "{}", stderr(&out));
    let out = tprov(&["runs", "--db", db.arg()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(!stdout(&out).contains("run:"), "{}", stdout(&out));
    let _ = std::fs::remove_file(&wf_path);
}

/// Every local command registers a spec in one byte form, so capturing
/// into the same database again logs no second copy of it.
#[test]
fn testbed_twice_logs_its_spec_once() {
    let db = TempDb::new("spec-once");
    let workflow_frames = || {
        let records = prov_store::WalReader::read_all(&db.path).unwrap().records;
        records.iter().filter(|r| matches!(r, prov_store::LogRecord::Workflow { .. })).count()
    };
    for _ in 0..2 {
        assert!(tprov(&["testbed", "--db", db.arg(), "--l", "3", "--d", "2"]).status.success());
        assert_eq!(workflow_frames(), 1);
    }
    // The pretty sidecar parses back to the spec that was registered.
    let sidecar = std::fs::read_to_string(db.sidecar("testbed")).unwrap();
    let df = prov_dataflow::Dataflow::from_json(&sidecar).unwrap();
    let store = prov_store::TraceStore::open(&db.path).unwrap();
    let registered = store.workflow_json(&"testbed".into()).unwrap();
    assert_eq!(&*registered, serde_json::to_string(&df).unwrap());
}

#[test]
fn lineage_uses_db_registered_workflow_when_flag_omitted() {
    let db = TempDb::new("registry");
    assert!(tprov(&["testbed", "--db", db.arg(), "--l", "3", "--d", "2"]).status.success());
    // No --workflow: the spec registered in the db is used.
    let out = tprov(&[
        "lineage",
        "--db",
        db.arg(),
        "--target",
        "2TO1_FINAL:Y",
        "--index",
        "0,1",
        "--focus",
        "LISTGEN_1",
        "--run",
        "0",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("⟨LISTGEN_1:size[], 2⟩"));

    // Two registered workflows → ambiguous without --wf.
    assert!(tprov(&["gk", "--db", db.arg()]).status.success());
    let out = tprov(&[
        "lineage",
        "--db",
        db.arg(),
        "--target",
        "2TO1_FINAL:Y",
        "--index",
        "0,0",
        "--focus",
        "LISTGEN_1",
        "--run",
        "0",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--wf"));
    // Disambiguated by --wf.
    let out = tprov(&[
        "lineage",
        "--db",
        db.arg(),
        "--wf",
        "testbed",
        "--target",
        "2TO1_FINAL:Y",
        "--index",
        "0,0",
        "--focus",
        "LISTGEN_1",
        "--run",
        "0",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn diff_command_compares_two_runs() {
    let db = TempDb::new("diff");
    assert!(tprov(&["testbed", "--db", db.arg(), "--l", "3", "--d", "2"]).status.success());
    assert!(tprov(&["testbed", "--db", db.arg(), "--l", "3", "--d", "4"]).status.success());
    let out = tprov(&[
        "diff",
        "--db",
        db.arg(),
        "--a",
        "0",
        "--b",
        "1",
        "--target",
        "2TO1_FINAL:Y",
        "--index",
        "0,1",
        "--focus",
        "LISTGEN_1",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("1 only in A, 1 only in B"));
    assert!(text.contains("divergent iteration structure"));
    assert!(text.contains("2TO1_FINAL: 4 vs 16 invocations"));
}

#[test]
fn find_value_locates_bindings_and_lineage() {
    let db = TempDb::new("findval");
    assert!(tprov(&["testbed", "--db", db.arg(), "--l", "2", "--d", "3"]).status.success());
    let out = tprov(&[
        "find-value",
        "--db",
        db.arg(),
        "--value",
        "item-1",
        "--run",
        "0",
        "--lineage",
        "--focus",
        "LISTGEN_1",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("appears in"));
    assert!(text.contains("⟨LISTGEN_1:list[1], \"item-1\"⟩"));
    assert!(text.contains("⇐ ⟨LISTGEN_1:size[], 3⟩"));
    // An absent value reports zero bindings.
    let out = tprov(&["find-value", "--db", db.arg(), "--value", "ghost", "--run", "0"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("0 binding(s)"));
}

/// The ISSUE acceptance workflow: one base-type-mismatched arc, one dead
/// processor, one shadowed default — three findings, three distinct codes.
fn smelly_workflow_json() -> String {
    use prov_dataflow::{BaseType, DataflowBuilder, PortType};
    let mut b = DataflowBuilder::new("smelly");
    b.input("a", PortType::atom(BaseType::Int));
    b.processor_with_behavior("Q", "identity")
        .in_port("x", PortType::atom(BaseType::String))
        .in_port_with_default("z", PortType::atom(BaseType::Int), prov_model::Value::int(7))
        .out_port("y", PortType::atom(BaseType::String));
    b.processor_with_behavior("D", "identity")
        .in_port("x", PortType::atom(BaseType::Int))
        .out_port("y", PortType::atom(BaseType::Int));
    b.arc_from_input("a", "Q", "x").unwrap(); // Int -> String: E001
    b.arc_from_input("a", "Q", "z").unwrap(); // shadows default: W004
    b.arc_from_input("a", "D", "x").unwrap(); // D reaches no output: W001
    b.output("ys", PortType::atom(BaseType::String));
    b.arc_to_output("Q", "y", "ys").unwrap();
    serde_json::to_string(&b.build().unwrap()).unwrap()
}

#[test]
fn lint_reports_distinct_codes_and_exits_nonzero() {
    let db = TempDb::new("lint");
    let wf_path = format!("{}.smelly.json", db.arg());
    std::fs::write(&wf_path, smelly_workflow_json()).unwrap();

    let out = tprov(&["lint", "--workflow", &wf_path]);
    assert!(!out.status.success(), "error-level findings must exit nonzero");
    let text = stdout(&out);
    for code in ["E001", "W001", "W004"] {
        assert!(text.contains(code), "missing {code} in:\n{text}");
    }
    assert!(text.contains("1 error(s)"), "{text}");
    assert!(stderr(&out).contains("lint: 1 error(s)"));

    // JSON format carries the same codes, machine-readably.
    let out = tprov(&["lint", "--workflow", &wf_path, "--format", "json"]);
    assert!(!out.status.success());
    let parsed: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();
    let codes: Vec<&str> =
        parsed.as_array().unwrap().iter().map(|d| d["code"].as_str().unwrap()).collect();
    assert!(codes.contains(&"E001") && codes.contains(&"W001") && codes.contains(&"W004"));

    // Diagnostics overlay on the DOT export colors the offending nodes.
    let out = tprov(&["dot", "--workflow", &wf_path, "--lint"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let dot = stdout(&out);
    assert!(dot.contains("color=red"), "{dot}");
    assert!(dot.contains("color=orange"), "{dot}");

    let _ = std::fs::remove_file(&wf_path);
}

#[test]
fn explain_verifies_plans_and_checks_costs() {
    let db = TempDb::new("explain");
    assert!(tprov(&["testbed", "--db", db.arg(), "--l", "4", "--d", "3"]).status.success());

    // A focused exact query: every step is a point probe, the runtime
    // check agrees with the prediction, exit 0.
    let out = tprov(&[
        "explain",
        "lin(<2TO1_FINAL:Y[1]>, {CHAIN_A_2, testbed})",
        "--db",
        db.arg(),
        "--check",
    ]);
    assert!(out.status.success(), "{}{}", stdout(&out), stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("point-probe"), "{text}");
    assert!(text.contains("check: predicted"), "{text}");
    assert!(!text.contains("FAILED"), "{text}");

    // Default mode (no query): unfocused coarse queries report W101
    // full-scan steps — warnings, so the exit stays 0.
    let out = tprov(&["explain", "--db", db.arg()]);
    assert!(out.status.success(), "{}{}", stdout(&out), stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("full-scan"), "{text}");
    assert!(text.contains("W101"), "{text}");

    // Modelling away the xform_in index turns those steps into E101
    // unservable findings and the exit nonzero — the CI gate behaviour.
    let out = tprov(&["explain", "--db", db.arg(), "--without-index", "xform_in"]);
    assert!(!out.status.success());
    assert!(stdout(&out).contains("E101"), "{}", stdout(&out));
    assert!(stderr(&out).contains("error-level finding"), "{}", stderr(&out));

    // JSON output carries the contract fields, machine-readably.
    let out = tprov(&["explain", "--db", db.arg(), "--format", "json", "--check"]);
    assert!(out.status.success(), "{}{}", stdout(&out), stderr(&out));
    let parsed: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();
    let report = &parsed.as_array().unwrap()[0];
    assert_eq!(report["servable"], serde_json::Value::Bool(true));
    let step = &report["steps"].as_array().unwrap()[0];
    for key in ["index", "class", "expected_depth", "predicted_lookups", "predicted_rows"] {
        assert!(step.get(key).is_some(), "missing {key} in {step:?}");
    }
    assert_eq!(report["check"]["ok"], serde_json::Value::Bool(true));
    let codes: Vec<&str> = report["diagnostics"]
        .as_array()
        .unwrap()
        .iter()
        .map(|d| d["code"].as_str().unwrap())
        .collect();
    assert!(codes.contains(&"W101"), "{codes:?}");
}

#[test]
fn lint_clean_workflow_exits_zero() {
    let db = TempDb::new("lintclean");
    // The genes2Kegg sidecar spec is a real, clean workflow.
    assert!(tprov(&["gk", "--db", db.arg()]).status.success());
    let out = tprov(&["lint", "--workflow", &db.sidecar("genes2Kegg")]);
    assert!(out.status.success(), "{}{}", stdout(&out), stderr(&out));
    assert!(stdout(&out).contains("0 error(s)") || stdout(&out).contains("no diagnostics"));
}

/// The `upper` workflow used by the run/resume tests: `string_upper`
/// mapped over a list input.
fn upper_workflow_json() -> String {
    let mut b = prov_dataflow::DataflowBuilder::new("upper");
    b.input("xs", prov_dataflow::PortType::list(prov_dataflow::BaseType::String));
    b.processor_with_behavior("U", "string_upper")
        .in_port("x", prov_dataflow::PortType::atom(prov_dataflow::BaseType::String))
        .out_port("y", prov_dataflow::PortType::atom(prov_dataflow::BaseType::String));
    b.arc_from_input("xs", "U", "x").unwrap();
    b.output("ys", prov_dataflow::PortType::list(prov_dataflow::BaseType::String));
    b.arc_to_output("U", "y", "ys").unwrap();
    serde_json::to_string(&b.build().unwrap()).unwrap()
}

/// Golden test for the `run --json` schema: scripts depend on this exact
/// key set, so growing it is fine only through deliberate review here.
#[test]
fn run_json_schema_is_locked() {
    let db = TempDb::new("schema");
    let wf_path = format!("{}.authored.json", db.arg());
    std::fs::write(&wf_path, upper_workflow_json()).unwrap();

    let out = tprov(&[
        "run",
        "--db",
        db.arg(),
        "--workflow",
        &wf_path,
        "--input",
        r#"xs={"List":[{"Atom":{"Str":"ab"}}]}"#,
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let report: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();
    let serde_json::Value::Object(fields) = &report else {
        panic!("run --json must print an object, got {report:?}")
    };
    let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(keys, ["failed_xforms", "outputs", "resumed_from", "run", "status", "workflow"]);
    assert!(
        matches!(report["run"], serde_json::Value::Int(0) | serde_json::Value::Uint(0)),
        "{:?}",
        report["run"]
    );
    assert_eq!(report["workflow"].as_str(), Some("upper"));
    assert_eq!(report["status"].as_str(), Some("completed"));
    assert_eq!(report["resumed_from"], serde_json::Value::Null, "fresh runs carry null");
    let _ = std::fs::remove_file(&wf_path);
}

#[test]
fn run_resume_replays_settled_state_and_keeps_exit_codes() {
    let db = TempDb::new("resume");
    let wf_path = format!("{}.authored.json", db.arg());
    std::fs::write(&wf_path, upper_workflow_json()).unwrap();
    let mixed = r#"xs={"List":[{"Atom":{"Str":"ab"}},{"Atom":{"Int":3}}]}"#;

    // A partial-failure run (the Int element fails)...
    let out = tprov(&[
        "run",
        "--db",
        db.arg(),
        "--workflow",
        &wf_path,
        "--input",
        mixed,
        "--max-attempts",
        "2",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    let fresh: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();

    // ...resumed: every invocation is already settled in the trace, so the
    // report is identical (outputs, failures, attempts) except for
    // `resumed_from`, and the exit code is still 3.
    let out = tprov(&[
        "run",
        "--db",
        db.arg(),
        "--workflow",
        &wf_path,
        "--input",
        mixed,
        "--resume",
        "0",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    let resumed: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();
    assert!(
        matches!(resumed["resumed_from"], serde_json::Value::Int(0) | serde_json::Value::Uint(0)),
        "{:?}",
        resumed["resumed_from"]
    );
    assert_eq!(resumed["run"], fresh["run"], "resume keeps the original run id");
    assert_eq!(resumed["outputs"], fresh["outputs"]);
    assert_eq!(resumed["status"], fresh["status"]);
    assert_eq!(resumed["failed_xforms"], fresh["failed_xforms"]);

    // Resuming a run the store has never seen is a plain usage error.
    let out = tprov(&[
        "run",
        "--db",
        db.arg(),
        "--workflow",
        &wf_path,
        "--input",
        mixed,
        "--resume",
        "99",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("cannot resume"), "{}", stderr(&out));
    let _ = std::fs::remove_file(&wf_path);
}

/// Golden test for `tprov metrics --format json`: scrapers depend on the
/// snapshot's top-level shape and the histogram summary fields (including
/// the midpoint-interpolated quantiles), so growing either set is fine
/// only through deliberate review here.
#[test]
fn metrics_json_schema_is_locked() {
    let db = TempDb::new("metricsjson");
    assert!(tprov(&["testbed", "--db", db.arg(), "--l", "3", "--d", "2"]).status.success());
    let out = tprov(&["metrics", "--db", db.arg(), "--format", "json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let snap: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();
    assert_eq!(sorted_keys(&snap), ["counters", "gauges", "histograms"]);
    // Histogram summaries carry the quantile contract fields.
    let serde_json::Value::Object(hists) = &snap["histograms"] else {
        panic!("histograms not an object")
    };
    let (name, hist) = hists.first().expect("at least one histogram");
    assert_eq!(sorted_keys(hist), ["count", "max", "p50", "p95", "p99", "sum"], "histogram {name}");
    // Recovery's verdict on the WAL tail is part of the gauge contract:
    // scrapers alert on a nonzero recovered_tail_state.
    let gauges = sorted_keys(&snap["gauges"]);
    for required in ["wal.recovered_tail_state", "wal.recovered_tail_offset"] {
        assert!(gauges.iter().any(|g| g == required), "missing gauge {required} in {gauges:?}");
    }
    assert_eq!(json_u64(&snap["gauges"]["wal.recovered_tail_state"]), 0, "clean db");
    // The text rendering surfaces the same quantiles.
    let out = tprov(&["metrics", "--db", db.arg()]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("p95="), "{}", stdout(&out));

    // A `<db>.serve.json` sidecar (written by `tprov serve` at shutdown)
    // folds the daemon's serve.* family, and the counters of the
    // workflows and plans it kept resident, into the same snapshot; the
    // member names are part of the scrape contract.
    let serve_sidecar = format!("{}.serve.json", db.arg());
    std::fs::write(
        &serve_sidecar,
        r#"{"plan_cache.hits":3,"plan_cache.misses":2,"serve.active_conns":0,
            "serve.backpressure_waits":3,"serve.conns_accepted":7,"serve.conns_refused":1,
            "serve.draining":1,"serve.ingest_batches":40,"serve.queries":5,
            "serve.request_timeouts":2,"workflow_cache.hits":4,"workflow_cache.loads":1}"#,
    )
    .unwrap();
    let out = tprov(&["metrics", "--db", db.arg(), "--format", "json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let snap: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();
    let gauges = sorted_keys(&snap["gauges"]);
    for required in [
        "plan_cache.hits",
        "plan_cache.misses",
        "workflow_cache.hits",
        "workflow_cache.loads",
        "serve.active_conns",
        "serve.backpressure_waits",
        "serve.conns_accepted",
        "serve.conns_refused",
        "serve.draining",
        "serve.ingest_batches",
        "serve.queries",
        "serve.request_timeouts",
    ] {
        assert!(gauges.iter().any(|g| g == required), "missing gauge {required} in {gauges:?}");
    }
    assert_eq!(json_u64(&snap["gauges"]["serve.conns_accepted"]), 7);
    let _ = std::fs::remove_file(&serve_sidecar);
}

/// `tprov wal verify`: a healthy store verifies with exit 0, a torn tail
/// (interrupted final write) is still healthy, and a corrupt frame in the
/// middle of the log exits 1 naming the damaged byte offset.
#[test]
fn wal_verify_distinguishes_torn_from_corrupt() {
    let db = TempDb::new("walverify");
    assert!(tprov(&["testbed", "--db", db.arg(), "--l", "3", "--d", "2"]).status.success());

    let out = tprov(&["wal", "verify", db.arg()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("ok"), "{}", stdout(&out));
    assert!(stdout(&out).contains("tail clean"), "{}", stdout(&out));

    // A torn tail: chop a few bytes off the end (a crashed writer).
    let intact = std::fs::read(&db.path).unwrap();
    std::fs::write(&db.path, &intact[..intact.len() - 5]).unwrap();
    let out = tprov(&["wal", "verify", db.arg()]);
    assert!(out.status.success(), "torn tail is not corruption: {}", stdout(&out));
    assert!(stdout(&out).contains("torn tail"), "{}", stdout(&out));

    // A corrupt frame: flip a byte inside the first frame's payload
    // (frames are `len | crc | payload`, so byte 10 is payload), the CRC
    // catches it and everything after the damage is unreachable.
    let mut bytes = intact.clone();
    bytes[10] ^= 0xFF;
    std::fs::write(&db.path, &bytes).unwrap();
    let out = tprov(&["wal", "verify", db.arg()]);
    assert!(!out.status.success(), "corruption must fail verification");
    assert!(stdout(&out).contains("CORRUPT"), "{}", stdout(&out));

    std::fs::write(&db.path, &intact).unwrap();
}

/// Kills a spawned `tprov` child on drop so a failed assertion cannot
/// leak a background server process.
struct ChildGuard(std::process::Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Polls the address sidecar a `tprov serve` daemon writes.
fn wait_addr(path: &str) -> String {
    for _ in 0..200 {
        if let Ok(addr) = std::fs::read_to_string(path) {
            if !addr.trim().is_empty() {
                return addr.trim().to_string();
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    panic!("no address appeared at {path}");
}

/// Sends SIGTERM to a spawned daemon and returns its exit code once it
/// has drained (`None` if it never exits).
fn terminate(daemon: &mut ChildGuard) -> Option<i32> {
    let pid = daemon.0.id().to_string();
    assert!(std::process::Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("kill runs")
        .success());
    for _ in 0..200 {
        if let Ok(Some(status)) = daemon.0.try_wait() {
            return status.code();
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    None
}

/// Spawns `tprov serve DB --follow PRIMARY` and returns it with the
/// address it serves on.
fn serve_follow(db: &TempDb, primary: &str) -> (ChildGuard, String) {
    let child = ChildGuard(
        std::process::Command::new(env!("CARGO_BIN_EXE_tprov"))
            .args(["serve", db.arg(), "--follow", primary, "--addr", "127.0.0.1:0"])
            .stdout(std::process::Stdio::null())
            .spawn()
            .expect("serve --follow spawns"),
    );
    let addr = wait_addr(&format!("{}.serve.addr", db.arg()));
    (child, addr)
}

/// End-to-end replication through the CLI, from a `tprov serve` primary:
/// `serve --follow --once` seeds a replica to byte-identical
/// convergence with lag gauges at 0; a `serve --follow` replica then
/// receives, live, a run streamed into the primary by `run --server`, and
/// answers for it within a zero lag bound exactly as the primary does; its
/// serve counters reach `metrics` after it drains; and a replica that has
/// never reached its primary refuses a bounded query.
#[test]
fn serve_primary_ships_runs_to_followers_and_stale_replicas_refuse() {
    let db = TempDb::new("replsrv");
    let replica = TempDb::new("replsrv-replica");
    assert!(tprov(&["testbed", "--db", db.arg(), "--l", "3", "--d", "2"]).status.success());

    let mut primary = ChildGuard(
        std::process::Command::new(env!("CARGO_BIN_EXE_tprov"))
            .args(["serve", db.arg(), "--addr", "127.0.0.1:0"])
            .stdout(std::process::Stdio::null())
            .spawn()
            .expect("serve spawns"),
    );
    let addr = wait_addr(&format!("{}.serve.addr", db.arg()));

    // Seed the replica to caught-up and stop (exit 0 = converged).
    let out = tprov(&["serve", replica.arg(), "--follow", &addr, "--once", "--for-ms", "30000"]);
    assert!(out.status.success(), "{}\n{}", stdout(&out), stderr(&out));
    assert!(stdout(&out).contains("caught_up=true"), "{}", stdout(&out));
    assert_eq!(
        std::fs::read(&replica.path).unwrap(),
        std::fs::read(&db.path).unwrap(),
        "replica WAL must be byte-identical to the primary's"
    );

    // The replication sidecar feeds `tprov metrics` lag gauges.
    let out = tprov(&["metrics", "--db", replica.arg(), "--format", "json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let snap: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();
    assert_eq!(json_u64(&snap["gauges"]["repl.lag_frames"]), 0);
    assert_eq!(json_u64(&snap["gauges"]["repl.lag_bytes"]), 0);

    // A live replica daemon, connected: it answers within a zero lag bound.
    let qreplica = TempDb::new("replsrv-live");
    let (mut live, qaddr) = serve_follow(&qreplica, &addr);
    let seeded = "lin(<2TO1_FINAL:Y[0,1]>, {LISTGEN_1})";
    let out = retry_query(&["query", "--server", &qaddr, "--query", seeded, "--max-lag", "0"]);
    assert!(out.status.success(), "{}\n{}", stdout(&out), stderr(&out));
    assert!(stdout(&out).contains("lag 0 frames"), "{}", stdout(&out));

    // A run streamed into the primary's daemon reaches the replica: within
    // a zero lag bound it lists the new run, rendering exactly like the
    // primary.
    let wf_path = author_upper_workflow(&db);
    let input = r#"xs={"List":[{"Atom":{"Str":"ab"}},{"Atom":{"Str":"cd"}}]}"#;
    let out = tprov(&["run", "--server", &addr, "--workflow", &wf_path, "--input", input]);
    assert!(out.status.success(), "{}", stderr(&out));
    let query = ["--query", "lin(<U:y[1]>)", "--all-runs", "--max-lag", "0"];
    let on = |server: &str| {
        let args: Vec<&str> = ["query", "--server", server].iter().chain(&query).copied().collect();
        let mut out = tprov(&args);
        for _ in 0..100 {
            if out.status.success() && stdout(&out).contains("run:1") {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
            out = tprov(&args);
        }
        assert!(out.status.success(), "{server}: {}\n{}", stdout(&out), stderr(&out));
        stdout(&out)
    };
    let answer_lines = |s: &str| {
        s.lines()
            .filter(|l| l.contains("binding(s):") || l.starts_with("  "))
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    let (on_primary, on_replica) = (on(&addr), on(&qaddr));
    assert!(on_primary.contains("run:1"), "{on_primary}");
    assert!(on_replica.contains("run:1"), "the replica never saw the new run: {on_replica}");
    assert_eq!(answer_lines(&on_replica), answer_lines(&on_primary), "replica rendering diverged");

    // SIGTERM drains the replica daemon like any other; its serve
    // counters then reach `tprov metrics` beside the lag gauges.
    assert_eq!(terminate(&mut live), Some(0), "replica daemon must exit 0 on SIGTERM");
    let out = tprov(&["metrics", "--db", qreplica.arg(), "--format", "json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let snap: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();
    assert_eq!(json_u64(&snap["gauges"]["repl.lag_frames"]), 0);
    assert!(json_u64(&snap["gauges"]["serve.queries"]) >= 1, "{}", stdout(&out));
    assert_eq!(terminate(&mut primary), Some(0), "primary daemon must exit 0 on SIGTERM");

    // A replica that has never reached any primary has unknown lag: any
    // bounded query is refused with the typed staleness error (exit 1).
    let lonely = TempDb::new("replsrv-lonely");
    let (_lonely_guard, lonely_addr) = serve_follow(&lonely, "127.0.0.1:9");
    let out = tprov(&["query", "--server", &lonely_addr, "--query", seeded, "--max-lag", "10"]);
    assert!(!out.status.success(), "stale replica must refuse: {}", stdout(&out));
    assert!(stderr(&out).contains("stale"), "{}", stderr(&out));
}

/// Retries a replica query while the freshly spawned follower finishes
/// catching up (a zero lag bound refuses until it has).
fn retry_query(args: &[&str]) -> Output {
    let mut out = tprov(args);
    for _ in 0..100 {
        if out.status.success() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
        out = tprov(args);
    }
    out
}

/// Golden test for the journal sidecar and `tprov tail --format json`:
/// one `Stamped` JSON object per line with a locked envelope, and the
/// `QueryFinished` payload carries the locked counter/prediction fields.
#[test]
fn journal_tail_and_slow_lock_schemas() {
    let db = TempDb::new("journal");
    assert!(tprov(&["testbed", "--db", db.arg(), "--l", "3", "--d", "2"]).status.success());
    // Threshold 0: every query is slow, so the slow log gets an entry.
    let out = tprov_env(
        &[
            "query",
            "--db",
            db.arg(),
            "--query",
            "lin(<2TO1_FINAL:Y[0,1]>, {LISTGEN_1})",
            "--algo",
            "indexproj",
        ],
        &[("TPROV_SLOW_QUERY_MS", "0")],
    );
    assert!(out.status.success(), "{}", stderr(&out));

    let out = tprov(&["tail", "--db", db.arg(), "--format", "json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let mut kinds: Vec<String> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let e: serde_json::Value = serde_json::from_str(line).unwrap();
        assert_eq!(sorted_keys(&e), ["event", "seq", "tid", "ts_ns"], "envelope of {line}");
        // Externally tagged enum: {"Kind": {fields…}}.
        let serde_json::Value::Object(event) = &e["event"] else { panic!("{line}") };
        let (kind, payload) = event.first().expect("tagged event");
        let kind = kind.clone();
        if kind == "QueryFinished" {
            assert_eq!(
                sorted_keys(payload),
                [
                    "bindings",
                    "drift",
                    "dur_ns",
                    "fingerprint",
                    "index_lookups",
                    "predicted_lookups",
                    "predicted_rows",
                    "records_read",
                    "rows_scanned",
                    "run",
                    "slow",
                    "steps",
                    "t1_ns",
                    "t2_ns",
                    "trace"
                ]
            );
            assert_eq!(payload.get("slow"), Some(&serde_json::Value::Bool(true)), "{line}");
        }
        kinds.push(kind);
    }
    for expected in ["QueryStarted", "PlanStep", "QueryFinished"] {
        assert!(kinds.iter().any(|k| k == expected), "missing {expected} in {kinds:?}");
    }

    // Text mode renders seq/kind and honours --last.
    let out = tprov(&["tail", "--db", db.arg(), "--last", "1"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert_eq!(text.lines().count(), 1, "{text}");
    assert!(text.contains("QueryFinished"), "{text}");

    // The slow log got the threshold-0 entry and `slow` aggregates it.
    let out = tprov(&["slow", "--db", db.arg(), "--format", "json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let report: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();
    assert_eq!(sorted_keys(&report), ["aggregates", "drift_entries", "entries"]);
    let aggs = report["aggregates"].as_array().unwrap();
    assert!(!aggs.is_empty());
    assert_eq!(
        sorted_keys(&aggs[0]),
        ["count", "drift_count", "fingerprint", "max_us", "query", "slow_count", "total_us"]
    );
    assert_eq!(aggs[0]["query"].as_str(), Some("lin(<2TO1_FINAL:Y[0,1]>, {LISTGEN_1})"));
}

/// A deliberately skewed fan-out ([1 element] next to [40 elements])
/// violates the cost model's uniform-branching assumption: the observed
/// rows blow past the prediction, the finished query is drift-flagged
/// into the slow log, and `tprov slow` reports the misprediction — the
/// ISSUE's acceptance scenario.
#[test]
fn skewed_fanout_flags_cost_model_drift() {
    let db = TempDb::new("drift");
    let wf_path = format!("{}.skew.json", db.arg());
    {
        use prov_dataflow::{BaseType, DataflowBuilder, PortType};
        let mut b = DataflowBuilder::new("skew");
        b.input("xss", PortType::nested(BaseType::String, 2));
        b.processor_with_behavior("U", "string_upper")
            .in_port("x", PortType::atom(BaseType::String))
            .out_port("y", PortType::atom(BaseType::String));
        b.arc_from_input("xss", "U", "x").unwrap();
        b.output("yss", PortType::nested(BaseType::String, 2));
        b.arc_to_output("U", "y", "yss").unwrap();
        std::fs::write(&wf_path, serde_json::to_string(&b.build().unwrap()).unwrap()).unwrap();
    }
    let atoms: Vec<String> = (0..40).map(|i| format!(r#"{{"Atom":{{"Str":"b{i}"}}}}"#)).collect();
    let input = format!(
        r#"xss={{"List":[{{"List":[{{"Atom":{{"Str":"a"}}}}]}},{{"List":[{}]}}]}}"#,
        atoms.join(",")
    );
    let out = tprov(&["run", "--db", db.arg(), "--workflow", &wf_path, "--input", &input]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    // Query down the skewed branch: the uniform model predicts ~sqrt(41)
    // rows per level, the scan actually walks 40.
    let out = tprov(&[
        "query",
        "--db",
        db.arg(),
        "--workflow",
        &wf_path,
        "--query",
        "lin(<skew:yss[1]>, {skew})",
        "--algo",
        "indexproj",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("40 binding(s)"), "{}", stdout(&out));

    let slow_log =
        std::fs::read_to_string(format!("{}.slow.jsonl", db.arg())).expect("slow log written");
    let entry: serde_json::Value = serde_json::from_str(slow_log.lines().next().unwrap()).unwrap();
    assert_eq!(entry["drift"], serde_json::Value::Bool(true), "{entry:?}");
    assert_eq!(entry["slow"], serde_json::Value::Bool(false), "drift alone logged {entry:?}");
    assert!(json_u64(&entry["predicted_rows"]) < 40, "{entry:?}");

    let out = tprov(&["slow", "--db", db.arg()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("1 drift-flagged"), "{text}");
    assert!(text.contains("lin(<skew:yss[1]>, {skew})"), "{text}");

    // The run phase journalled too: engine/store events in the sidecar.
    let journal =
        std::fs::read_to_string(format!("{}.journal.jsonl", db.arg())).expect("journal written");
    assert!(journal.contains("IngestBatch"), "{journal}");
    let _ = std::fs::remove_file(&wf_path);
}

#[test]
fn missing_required_flags_error_cleanly() {
    let out = tprov(&["lineage", "--db", "/nonexistent/nope.wal"]);
    assert!(!out.status.success());
    let out = tprov(&["testbed"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--db"));
}

/// Authors the builtin `upper` workflow next to `db` and returns the
/// JSON path (string_upper is in the builtin behaviour registry, so the
/// CLI can execute it anywhere).
fn author_upper_workflow(db: &TempDb) -> String {
    let mut b = prov_dataflow::DataflowBuilder::new("upper");
    b.input("xs", prov_dataflow::PortType::list(prov_dataflow::BaseType::String));
    b.processor_with_behavior("U", "string_upper")
        .in_port("x", prov_dataflow::PortType::atom(prov_dataflow::BaseType::String))
        .out_port("y", prov_dataflow::PortType::atom(prov_dataflow::BaseType::String));
    b.arc_from_input("xs", "U", "x").unwrap();
    b.output("ys", prov_dataflow::PortType::list(prov_dataflow::BaseType::String));
    b.arc_to_output("U", "y", "ys").unwrap();
    let df = b.build().unwrap();
    let wf_path = format!("{}.authored.json", db.arg());
    std::fs::write(&wf_path, serde_json::to_string(&df).unwrap()).unwrap();
    wf_path
}

/// End-to-end serve path through the CLI: start a `tprov serve` daemon,
/// stream a run into it with `run --server`, query it with `query
/// --server` (both algorithms answering identically to the same run
/// executed locally), hit the typed server-side deadline, then SIGTERM
/// the daemon and check the drained store and the metrics sidecar.
#[test]
fn serve_run_query_roundtrip_matches_local_and_drains_on_sigterm() {
    let local = TempDb::new("servelocal");
    let srv = TempDb::new("servedaemon");
    let wf_path = author_upper_workflow(&local);
    let input = r#"xs={"List":[{"Atom":{"Str":"ab"}},{"Atom":{"Str":"cd"}}]}"#;

    // The same workflow executed locally is the answer oracle.
    let out = tprov(&["run", "--db", local.arg(), "--workflow", &wf_path, "--input", input]);
    assert!(out.status.success(), "{}", stderr(&out));

    let mut daemon = ChildGuard(
        std::process::Command::new(env!("CARGO_BIN_EXE_tprov"))
            .args(["serve", srv.arg(), "--addr", "127.0.0.1:0"])
            .stdout(std::process::Stdio::null())
            .spawn()
            .expect("serve spawns"),
    );
    let addr = wait_addr(&format!("{}.serve.addr", srv.arg()));

    // Stream the run to the daemon; every batch must come back acked.
    let out = tprov(&["run", "--server", &addr, "--workflow", &wf_path, "--input", input]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("durable frames acked"), "{}", stdout(&out));

    // Served answers are byte-identical to local ones for both
    // algorithms (the daemon plans INDEXPROJ against the spec the
    // ingest stream registered).
    for algo in ["ni", "indexproj"] {
        let query = "lin(<U:y[1]>)";
        let remote = tprov(&["query", "--server", &addr, "--query", query, "--algo", algo]);
        assert!(remote.status.success(), "{algo}: {}", stderr(&remote));
        let local_out = tprov(&[
            "query",
            "--db",
            local.arg(),
            "--workflow",
            &wf_path,
            "--query",
            query,
            "--algo",
            algo,
        ]);
        assert!(local_out.status.success(), "{algo}: {}", stderr(&local_out));
        // Local output leads with the parsed-query echo (and a plan
        // line for INDEXPROJ); everything after is the answers.
        let local_answers: String = stdout(&local_out)
            .lines()
            .filter(|l| !l.starts_with("lin(") && !l.starts_with("plan:"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(stdout(&remote), local_answers, "{algo} answers must match local");
        assert!(stdout(&remote).contains("binding"), "{algo}: {}", stdout(&remote));
    }

    // An already-expired deadline gets the typed server-side timeout.
    let out =
        tprov(&["query", "--server", &addr, "--query", "lin(<U:y[1]>)", "--deadline-ms", "0"]);
    assert!(!out.status.success(), "expired deadline must fail");
    assert!(stderr(&out).contains("timeout"), "{}", stderr(&out));

    // SIGTERM: the daemon drains, fsyncs, snapshots, and exits 0.
    assert_eq!(terminate(&mut daemon), Some(0), "daemon must exit 0 on SIGTERM");

    // The drained store reopens clean with the streamed run finished.
    let out = tprov(&["runs", "--db", srv.arg()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("workflow=upper"), "{}", stdout(&out));
    assert!(stdout(&out).contains("finished"), "{}", stdout(&out));

    // The serve.* family landed in the sidecar and `metrics` folds it in,
    // with the resident cache's counters: one INDEXPROJ request, so one
    // specification load and one plan compile.
    let out = tprov(&["metrics", "--db", srv.arg(), "--format", "json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let snap: serde_json::Value = serde_json::from_str(&stdout(&out)).unwrap();
    assert!(json_u64(&snap["gauges"]["serve.conns_accepted"]) >= 4, "{}", stdout(&out));
    assert_eq!(json_u64(&snap["gauges"]["workflow_cache.loads"]), 1, "{}", stdout(&out));
    assert_eq!(json_u64(&snap["gauges"]["plan_cache.misses"]), 1, "{}", stdout(&out));

    let _ = std::fs::remove_file(&wf_path);
}
