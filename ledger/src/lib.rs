//! # prov-ledger
//!
//! The repo's benchmark: one end-to-end and per-layer ledger for capture,
//! recovery, local query and the serve daemon. `BENCHMARK.json` at the
//! repo root declares the workloads, metrics, units and regression bounds;
//! this crate measures them. See `README.md` beside this crate for the
//! glossary, the interaction table and how to run and compare.
//!
//! Layers are measured **from outside**, by timing calls into each product
//! crate's public functions through [`driver`]; spans inside the product
//! are a later change.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;
pub mod driver;
pub mod gen;
pub mod layers;
pub mod report;
pub mod scratch;
pub mod stats;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::Path;

use driver::{Res, Tracer};
use report::{Declared, Measured, RunRecord};
use scratch::Scratch;
use workloads::Scale;

/// Share of `--seconds` each of the two short workload passes of a traced
/// run gets; the layer probes take about as long again.
const TRACED_PASS_SHARE: f64 = 0.25;

/// Runs one workload once and reduces it to a [`RunRecord`].
///
/// Untraced (`trace == false`): the workload measures for `seconds` with
/// span recording off and reports the end-to-end metrics. Traced: a short
/// untraced pass and a short traced pass of the workload give
/// `trace_overhead_ratio` and the spans (written to `trace_out` as a
/// Chrome trace), and the layer probes give every per-layer metric.
pub fn run_one(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: &Scale,
    scratch_root: &Path,
    trace_out: Option<&Path>,
) -> Res<RunRecord> {
    let declared = Declared::load()?;
    let scratch =
        Scratch::new(scratch_root).map_err(|e| format!("{}: {e}", scratch_root.display()))?;
    let mut record = RunRecord {
        workload: workload.to_string(),
        seed,
        trace,
        seconds,
        correct: false,
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
        detail: BTreeMap::new(),
        errors: Vec::new(),
    };
    if !trace {
        let out = workloads::run(workload, seed, scale, seconds, &scratch, &Tracer::off())?;
        (record.metrics, record.detail) = report::end_to_end(&out);
        record.attempted = out.attempted;
        record.failed = out.failed;
        record.errors = out.errors;
        report::check_declared(&record.metrics, &declared.end_to_end)?;
    } else {
        let short = Scale { setups: 1, ..scale.clone() };
        let pass = seconds * TRACED_PASS_SHARE;
        let plain = workloads::run(workload, seed, &short, pass, &scratch, &Tracer::off())?;
        let tracer = Tracer::on();
        let traced = workloads::run(workload, seed, &short, pass, &scratch, &tracer)?;
        let mut put = |name: &str, value: f64, unit: &str| {
            record.metrics.insert(name.to_string(), Measured { value, unit: unit.to_string() })
        };
        put("trace_overhead_ratio", traced.work_per_s / plain.work_per_s, "ratio");
        let units: BTreeMap<&str, &str> =
            declared.per_layer.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect();
        for (name, value) in layers::run(seed, scale, &scratch, &tracer)? {
            put(name, value, units.get(name).copied().unwrap_or("undeclared"));
        }
        report::check_declared(&record.metrics, &declared.per_layer)?;
        let spans = tracer.finished();
        match report::orphan_spans(&spans) {
            0 => {}
            n => return Err(format!("{n} spans name a parent outside their op")),
        }
        for (name, count, total_ms, self_ms) in report::span_table(&spans) {
            let mut put = |suffix: &str, value: f64, unit: &str| {
                let key = format!("span.{name}.{suffix}");
                record.detail.insert(key, Measured { value, unit: unit.to_string() })
            };
            put("count", count as f64, "count");
            put("total_ms", total_ms, "ms");
            put("self_ms", self_ms, "ms");
        }
        if let Some(path) = trace_out {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            tracer.write_chrome_trace(path)?;
        }
        record.attempted = plain.attempted + traced.attempted;
        record.failed = plain.failed + traced.failed;
        record.errors = plain.errors.into_iter().chain(traced.errors).collect();
    }
    record.correct = record.failed == 0 && record.attempted > 0;
    Ok(record)
}
