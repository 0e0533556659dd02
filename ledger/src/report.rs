//! Turning raw samples into the metrics `BENCHMARK.json` declares, and
//! into the result line, the result file and the printed tables.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::driver::{Res, SpanInfo};
use crate::stats::{median, tail};
use crate::workloads::Outcome;

/// `BENCHMARK.json`, compiled in: the binary and the declaration cannot
/// drift apart, and `--compare` needs no path to find its bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared workload.
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadDecl {
    /// Name passed to `--workload`.
    pub name: String,
}

/// One declared metric.
#[derive(Debug, Clone, Deserialize)]
pub struct MetricDecl {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone, Deserialize)]
pub struct Declared {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workloads.
    pub workloads: Vec<WorkloadDecl>,
    /// Metrics a user of the system would see.
    pub end_to_end: Vec<MetricDecl>,
    /// Metrics of single layers.
    pub per_layer: Vec<MetricDecl>,
}

impl Declared {
    /// Parses the compiled-in `BENCHMARK.json`.
    pub fn load() -> Res<Declared> {
        serde_json::from_str(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))
    }
}

/// A measured metric.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measured {
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// One run of one workload, as stored in a result file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Whether this was the traced (per-layer) pass.
    pub trace: bool,
    /// Seconds asked for.
    pub seconds: f64,
    /// Whether every output checked was correct.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed, refused, timed out or answering wrongly.
    pub failed: u64,
    /// The declared metrics: end-to-end ones untraced, per-layer ones
    /// traced.
    pub metrics: BTreeMap<String, Measured>,
    /// Sample counts and undeclared side measurements.
    pub detail: BTreeMap<String, Measured>,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

/// Where and on what the numbers were taken.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Environment {
    /// Git commit of the checkout, or `unknown` outside a repository.
    pub git_commit: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `rustc --version`.
    pub rustc: String,
    /// What the absolute numbers are worth.
    pub note: String,
}

/// A result file: `--out` writes one, `--compare` reads two.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultFile {
    /// Environment record.
    pub env: Environment,
    /// Every run of the invocation.
    pub runs: Vec<RunRecord>,
}

impl Environment {
    /// Reads the environment of this process.
    pub fn capture() -> Environment {
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        Environment {
            git_commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc,
            note: "fsync and loopback latencies are this sandbox's, not a device's or a \
                   network's; compare runs of one machine only"
                .to_string(),
        }
    }
}

/// The commit `HEAD` points at, read from `.git` without running git.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(reference) => {
            if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
                return Some(hash.trim().to_string());
            }
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        }
    }
}

fn put(map: &mut BTreeMap<String, Measured>, name: &str, value: f64, unit: &str) {
    map.insert(name.to_string(), Measured { value, unit: unit.to_string() });
}

/// The end-to-end metrics of one untraced run, with sample counts and the
/// ungated measurements in `detail`.
///
/// Every workload reports every metric (the README maps them back to the
/// issue's per-workload names): `work_per_s` is durable events/s for
/// `capture` and `serve-mixed`, records/s for `recover`, queries/s for the
/// two query workloads; `light` / `heavy` are small / big runs, snapshot /
/// WAL reopens, focused / unfocused queries. The median and the tail over
/// *all* ops are detail, not declared metrics: a percentile of a mix of
/// classes sits on a boundary between two classes, where the value jumps
/// with the class counts instead of moving with the system.
pub fn end_to_end(out: &Outcome) -> (BTreeMap<String, Measured>, BTreeMap<String, Measured>) {
    let mut metrics = BTreeMap::new();
    let mut detail = BTreeMap::new();
    let p99 = tail(&out.op_us);
    put(&mut metrics, "setup_s", median(&out.setup_s), "s");
    put(&mut metrics, "work_per_s", out.work_per_s, "1/s");
    put(&mut metrics, "light_p50_us", median(&out.light_us), "us");
    put(&mut metrics, "heavy_p50_us", median(&out.heavy_us), "us");
    put(&mut detail, "setup_s.samples", out.setup_s.len() as f64, "count");
    put(&mut detail, "op_us.samples", out.op_us.len() as f64, "count");
    put(&mut detail, "op_p50_us", median(&out.op_us), "us");
    put(&mut detail, "op_p99_us", p99.value, "us");
    put(&mut detail, "op_p99_us.percentile", p99.percentile, "%");
    put(&mut detail, "light_us.samples", out.light_us.len() as f64, "count");
    put(&mut detail, "heavy_us.samples", out.heavy_us.len() as f64, "count");
    put(&mut detail, "measured_s", out.measured_s, "s");
    put(&mut detail, "failed_frac", out.failed as f64 / out.attempted.max(1) as f64, "ratio");
    put(&mut detail, "refused", out.refused as f64, "count");
    put(&mut detail, "verified", out.verified as f64, "count");
    for (name, value, unit) in &out.extra {
        put(&mut detail, name, *value, unit);
    }
    (metrics, detail)
}

/// Checks `metrics` against a declared list: each declared name exactly
/// once, nothing undeclared, the declared unit, a finite value.
pub fn check_declared(metrics: &BTreeMap<String, Measured>, declared: &[MetricDecl]) -> Res<()> {
    for decl in declared {
        let m = metrics
            .get(&decl.name)
            .ok_or_else(|| format!("metric {} was not measured", decl.name))?;
        if m.unit != decl.unit {
            return Err(format!(
                "metric {} is in {}, declared in {}",
                decl.name, m.unit, decl.unit
            ));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is {}", decl.name, m.value));
        }
    }
    match metrics.keys().find(|k| !declared.iter().any(|d| &d.name == *k)) {
        Some(extra) => Err(format!("metric {extra} is not declared in BENCHMARK.json")),
        None => Ok(()),
    }
}

/// The result line of the benchmark contract.
pub fn result_line(run: &RunRecord) -> String {
    let metrics = run
        .metrics
        .iter()
        .map(|(name, m)| {
            let fields = vec![
                ("value".to_string(), Value::Float(m.value)),
                ("unit".to_string(), Value::Str(m.unit.clone())),
            ];
            (name.clone(), Value::Object(fields))
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(run.correct)),
        ("attempted".to_string(), Value::Uint(run.attempted)),
        ("failed".to_string(), Value::Uint(run.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).unwrap_or_default()
}

/// Prints one run: every metric by name with its unit, then detail.
pub fn print_run(run: &RunRecord) {
    println!(
        "== {} (seed {}, {} s, {}) — attempted {}, failed {}, {}",
        run.workload,
        run.seed,
        run.seconds,
        if run.trace { "traced" } else { "untraced" },
        run.attempted,
        run.failed,
        if run.correct { "outputs correct" } else { "OUTPUTS WRONG" },
    );
    for (name, m) in &run.metrics {
        println!("  {name:<44} {:>16.4} {}", m.value, m.unit);
    }
    for (name, m) in &run.detail {
        println!("    {name:<42} {:>16.4} {}", m.value, m.unit);
    }
    for e in &run.errors {
        println!("  ! {e}");
    }
}

/// Per span name: count, total time, and self time (the span minus the
/// part of it its children cover).
pub fn span_table(spans: &[SpanInfo]) -> Vec<(String, u64, f64, f64)> {
    let mut child_ns = BTreeMap::<u64, u64>::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns;
    }
    let mut by_name = BTreeMap::<&str, (u64, u64, u64)>::new();
    for s in spans {
        let covered = child_ns.get(&s.id).copied().unwrap_or(0).min(s.dur_ns);
        let row = by_name.entry(&s.name).or_default();
        row.0 += 1;
        row.1 += s.dur_ns;
        row.2 += s.dur_ns - covered;
    }
    by_name
        .into_iter()
        .map(|(name, (n, total, own))| (name.to_string(), n, total as f64 / 1e6, own as f64 / 1e6))
        .collect()
}

/// Spans whose parent is missing or belongs to another op: 0 in a sound
/// trace, where the spans of one request share one op id.
pub fn orphan_spans(spans: &[SpanInfo]) -> usize {
    let op_of: std::collections::HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.op)).collect();
    spans.iter().filter(|s| s.parent != 0 && op_of.get(&s.parent) != Some(&s.op)).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, id: u64, parent: u64, dur_ns: u64) -> SpanInfo {
        SpanInfo { name: name.to_string(), dur_ns, id, parent, op: 1 }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = [
            span("op", 1, 0, 10_000_000),
            span("core.parse", 2, 1, 1_000_000),
            span("core.probe", 3, 1, 6_000_000),
        ];
        let table = span_table(&spans);
        let op = table.iter().find(|r| r.0 == "op").unwrap();
        assert_eq!((op.1, op.2, op.3), (1, 10.0, 3.0));
        let probe = table.iter().find(|r| r.0 == "core.probe").unwrap();
        assert_eq!((probe.2, probe.3), (6.0, 6.0));
    }

    #[test]
    fn a_child_of_a_missing_or_foreign_parent_is_an_orphan() {
        let mut spans = vec![span("op", 1, 0, 10), span("core.parse", 2, 1, 1)];
        assert_eq!(orphan_spans(&spans), 0);
        spans.push(span("core.plan", 3, 9, 1));
        spans.push(SpanInfo { op: 2, ..span("core.probe", 4, 1, 1) });
        assert_eq!(orphan_spans(&spans), 2);
    }

    #[test]
    fn the_declaration_parses_and_names_are_unique() {
        let d = Declared::load().unwrap();
        assert_eq!(d.workloads.len(), 5);
        let mut names: Vec<&str> =
            d.end_to_end.iter().chain(&d.per_layer).map(|m| m.name.as_str()).collect();
        names.extend(d.workloads.iter().map(|w| w.name.as_str()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(d.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(d
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn check_declared_rejects_missing_extra_and_mis_united_metrics() {
        let decl = |name: &str, unit: &str| MetricDecl {
            name: name.into(),
            unit: unit.into(),
            better: "lower".into(),
            bound: None,
        };
        let mut metrics = BTreeMap::new();
        put(&mut metrics, "a", 1.0, "us");
        assert!(check_declared(&metrics, &[decl("a", "us")]).is_ok());
        assert!(check_declared(&metrics, &[decl("a", "ms")]).is_err());
        assert!(check_declared(&metrics, &[decl("a", "us"), decl("b", "us")]).is_err());
        assert!(check_declared(&metrics, &[]).is_err());
        put(&mut metrics, "a", f64::NAN, "us");
        assert!(check_declared(&metrics, &[decl("a", "us")]).is_err());
    }
}
