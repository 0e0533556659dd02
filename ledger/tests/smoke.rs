//! All five workloads at toy scale (`l = 5`, `d = 4`, 200 ms), untraced
//! and traced: every metric `BENCHMARK.json` declares comes out exactly
//! once with its declared unit and a finite value, nothing fails, answers
//! were actually cross-checked (NI ≡ INDEXPROJ, served ≡ in-process,
//! reopened ≡ live), and the traced pass leaves a Chrome trace whose spans
//! carry one id per op.

use std::path::PathBuf;

use prov_ledger::report::{Declared, MetricDecl, RunRecord};
use prov_ledger::workloads::{Scale, NAMES};

fn root(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("ledger-smoke-{tag}"))
}

fn assert_declared(run: &RunRecord, declared: &[MetricDecl]) {
    let mut want: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
    want.sort_unstable();
    // A map holds each name once; equal key lists mean exactly once each.
    let got: Vec<&str> = run.metrics.keys().map(String::as_str).collect();
    assert_eq!(got, want, "{} (trace {})", run.workload, run.trace);
    for decl in declared {
        let m = &run.metrics[&decl.name];
        assert_eq!(m.unit, decl.unit, "{}", decl.name);
        assert!(m.value.is_finite(), "{} = {}", decl.name, m.value);
    }
}

#[test]
fn the_declared_workloads_are_the_ones_the_binary_runs() {
    let declared = Declared::load().unwrap();
    let names: Vec<&str> = declared.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, NAMES);
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric_and_nothing_fails() {
    let declared = Declared::load().unwrap();
    for workload in NAMES {
        let run =
            prov_ledger::run_one(workload, 7, 0.2, false, &Scale::toy(), &root("plain"), None)
                .unwrap();
        assert_declared(&run, &declared.end_to_end);
        assert_eq!(run.failed, 0, "{workload}: {:?}", run.errors);
        assert!(run.correct && run.attempted >= 1, "{workload}");
        assert_eq!(run.detail["failed_frac"].value, 0.0);
        assert!(run.detail["verified"].value >= 1.0, "{workload} cross-checked no answer");
        assert!(run.metrics.values().all(|m| m.value > 0.0), "{workload}: {:?}", run.metrics);
    }
}

#[test]
fn traced_runs_emit_every_layer_metric_and_a_chrome_trace_with_one_id_per_op() {
    let declared = Declared::load().unwrap();
    for workload in NAMES {
        let trace = root("traced").join(format!("trace-{workload}.json"));
        let run = prov_ledger::run_one(
            workload,
            7,
            0.2,
            true,
            &Scale::toy(),
            &root("traced"),
            Some(&trace),
        )
        .unwrap();
        assert_declared(&run, &declared.per_layer);
        assert_eq!(run.failed, 0, "{workload}: {:?}", run.errors);
        assert!(run.correct, "{workload}");

        // run_one has already refused a trace with a span outside its op;
        // here: the file is a Chrome trace-event array that carries the ids.
        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(text.starts_with("[{") && text.ends_with("}]"), "{workload}: not an event array");
        for key in ["\"ph\":\"X\"", "\"op\":", "\"id\":", "\"parent\":"] {
            assert!(text.contains(key), "{workload}: trace lacks {key}");
        }
        let spans =
            |name: &str| run.detail.get(&format!("span.{name}.count")).map_or(0.0, |m| m.value);
        assert!(spans("layers.read_path") == 1.0, "{workload}: probes left no span");
        if workload == "query" {
            assert!(spans("op") >= 1.0 && spans("core.parse") == spans("op"), "{workload}");
        }
    }
}
