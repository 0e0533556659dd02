//! The data-driven executor.
//!
//! Execution follows the pure dataflow model of §2.1: a processor fires as
//! soon as all of its connected inputs are bound. Because validated
//! dataflows are DAGs, firing order is realised here as a topological
//! sweep, which produces exactly the same bindings and events as an
//! eager/parallel schedule but deterministically (the provenance *trace* of
//! a run is schedule-independent in this model — a property the
//! cross-crate tests rely on).

use std::collections::HashMap;
use std::sync::Arc;

use prov_dataflow::{
    ArcSrc, Dataflow, DepthInfo, IterationStrategy, ProcessorKind, ProjectionLayout,
};
use prov_model::{Atom, Index, PortRef, ProcessorName, RunId, Value};
use prov_obs::{Counter, Histogram, Obs, SpanGuard};

use crate::behavior::{Behavior, BehaviorRegistry};
use crate::events::{PortBinding, TraceEvent, TraceSink, XferEvent, XformEvent};
use crate::iteration::{assemble_nested, iteration_tuples};
use crate::resume::ResumeSource;
use crate::retry::{invocation_salt, Clock, RetryPolicy, SystemClock};
use crate::{EngineError, Result};

/// Resume state threaded through the executor: the durable trace to check
/// invocations against, and the run being resumed. `None` everywhere for a
/// fresh run.
#[derive(Clone, Copy)]
struct ResumeCtx<'a> {
    source: &'a dyn ResumeSource,
    run: RunId,
}

/// Pushes an xfer event unless an identical one is already durable in the
/// resumed trace — re-emitting would duplicate rows and skew lineage
/// answers against the uninterrupted run.
fn push_xfer(resume: Option<ResumeCtx<'_>>, batch: &mut Vec<TraceEvent>, event: XferEvent) {
    if resume.is_none_or(|ctx| !ctx.source.has_xfer(ctx.run, &event)) {
        batch.push(TraceEvent::Xfer(event));
    }
}

/// Emits one xfer event per element of a value crossing an arc into the
/// caller's event batch. `src_offset`/`dst_offset` translate
/// element-relative indices to absolute ones at nested-scope boundaries. On
/// resume, transfers already durable in the trace are suppressed so the
/// resumed trace has no duplicate rows.
fn emit_xfer(
    batch: &mut Vec<TraceEvent>,
    src: PortRef,
    src_offset: Index,
    dst: PortRef,
    dst_offset: Index,
    value: &Value,
    resume: Option<ResumeCtx<'_>>,
) {
    if value.is_atom() {
        push_xfer(
            resume,
            batch,
            XferEvent {
                src,
                src_index: src_offset,
                dst,
                dst_index: dst_offset,
                value: value.clone(),
            },
        );
        return;
    }
    for (index, atom) in value.leaves() {
        push_xfer(
            resume,
            batch,
            XferEvent {
                src: src.clone(),
                src_index: src_offset.concat(&index),
                dst: dst.clone(),
                dst_index: dst_offset.concat(&index),
                value: Value::Atom(atom.clone()),
            },
        );
    }
}

/// The engine's own counters, behind `engine.*` names in the registry the
/// engine was built with ([`Engine::with_obs`]). Disabled-obs engines hold
/// no-op handles, so the default construction costs nothing at runtime.
#[derive(Debug, Clone)]
struct EngineMetrics {
    /// Processor firings (one per `process_one`, including nested scopes).
    firings: Counter,
    /// Elementary invocations (iteration tuples evaluated).
    invocations: Counter,
    /// Event batches handed to the sink.
    batches: Counter,
    /// Events per non-empty batch.
    batch_size: Histogram,
    /// Retried invocation attempts (attempts beyond each tuple's first).
    retries: Counter,
    /// Elementary invocations that exhausted their retry policy and
    /// produced an error token.
    failed_invocations: Counter,
    /// Per-attempt behavior latency in clock microseconds.
    attempt_micros: Histogram,
    /// Event-journal handle (shares the `Obs` journal); ingest batches and
    /// retries are recorded as journal events. Disabled: one branch each.
    journal: prov_obs::Journal,
}

impl EngineMetrics {
    fn new(obs: &Obs) -> Self {
        EngineMetrics {
            firings: obs.metrics.counter("engine.firings"),
            invocations: obs.metrics.counter("engine.invocations"),
            batches: obs.metrics.counter("engine.batches"),
            batch_size: obs.metrics.histogram("engine.batch_size"),
            retries: obs.metrics.counter("engine.retries"),
            failed_invocations: obs.metrics.counter("engine.failed_invocations"),
            attempt_micros: obs.metrics.histogram("engine.attempt_micros"),
            journal: obs.journal.clone(),
        }
    }
}

/// Hands accumulated events to the sink as one batch. Batches are flushed
/// at processor boundaries and before recursing into a nested scope, so the
/// per-event order a sink observes is identical to event-at-a-time
/// recording — batching only changes how many events arrive per call.
fn flush_batch(
    sink: &dyn TraceSink,
    run_id: RunId,
    batch: &mut Vec<TraceEvent>,
    metrics: &EngineMetrics,
) {
    if !batch.is_empty() {
        metrics.batches.inc();
        metrics.batch_size.record(batch.len() as u64);
        metrics.journal.record(prov_obs::JournalEvent::IngestBatch {
            run: run_id.0,
            records: batch.len() as u64,
        });
        sink.record_batch(run_id, std::mem::take(batch));
    }
}

/// Executes dataflows against a behaviour registry, streaming provenance
/// events into a [`TraceSink`].
#[derive(Debug)]
pub struct Engine {
    registry: BehaviorRegistry,
    preflight: bool,
    fail_fast: bool,
    default_retry: RetryPolicy,
    retry_overrides: HashMap<ProcessorName, RetryPolicy>,
    clock: Arc<dyn Clock>,
    obs: Obs,
    metrics: EngineMetrics,
}

/// One elementary invocation that exhausted its retry policy.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FailedInvocation {
    /// The qualified name of the failing processor (`outer/inner` style for
    /// nested scopes).
    pub processor: ProcessorName,
    /// The absolute iteration index `q` of the failed tuple — the index its
    /// error-token outputs carry in the trace.
    pub index: Index,
    /// The behavior's error message from the final attempt.
    pub message: String,
    /// Total attempts made (1 when no retry policy applied).
    pub attempts: u32,
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub enum RunStatus {
    /// Every elementary invocation succeeded.
    #[default]
    Completed,
    /// At least one invocation exhausted its retries; its outputs are error
    /// tokens in the trace, and sibling iterations completed normally.
    PartialFailure {
        /// The failed invocations, in the order they were observed.
        failed_xforms: Vec<FailedInvocation>,
    },
}

impl RunStatus {
    /// Whether the run completed without failed invocations.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunStatus::Completed)
    }
}

/// The result of one run: its trace id, the workflow's output values, and
/// how the run ended.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The run (trace) id assigned by the sink.
    pub run_id: RunId,
    /// Output port values, in workflow-output declaration order. Under
    /// [`RunStatus::PartialFailure`], outputs downstream of a failure carry
    /// error tokens in the failed elements' positions.
    pub outputs: Vec<(Arc<str>, Value)>,
    /// Whether every invocation succeeded or some produced error tokens.
    pub status: RunStatus,
}

impl RunOutcome {
    /// The value of the named workflow output.
    pub fn output(&self, name: &str) -> Option<&Value> {
        self.outputs.iter().find(|(n, _)| &**n == name).map(|(_, v)| v)
    }

    /// The failed invocations, empty when the run completed.
    pub fn failed_xforms(&self) -> &[FailedInvocation] {
        match &self.status {
            RunStatus::Completed => &[],
            RunStatus::PartialFailure { failed_xforms } => failed_xforms,
        }
    }
}

impl Engine {
    /// An engine over the given behaviours, recording one xfer event per
    /// transferred element.
    pub fn new(registry: BehaviorRegistry) -> Self {
        let obs = Obs::disabled();
        let metrics = EngineMetrics::new(&obs);
        Engine {
            registry,
            preflight: true,
            fail_fast: false,
            default_retry: RetryPolicy::none(),
            retry_overrides: HashMap::new(),
            clock: Arc::new(SystemClock),
            obs,
            metrics,
        }
    }

    /// Attaches observability: counters under `engine.*` in the registry
    /// and per-processor firing spans on the profiler. The default is
    /// [`Obs::disabled`], which keeps every instrumented operation a
    /// single branch.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.metrics = EngineMetrics::new(&obs);
        self.obs = obs;
        self
    }

    /// Restores the pre-error-token semantics: the first behavior failure
    /// (after its retries are exhausted) aborts the whole run with
    /// [`EngineError::Behavior`] instead of flowing on as an error token.
    pub fn fail_fast(mut self) -> Self {
        self.fail_fast = true;
        self
    }

    /// Sets the retry policy applied to every task processor that has no
    /// per-processor override. The default is [`RetryPolicy::none`].
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.default_retry = policy;
        self
    }

    /// Sets a retry policy for one processor (by its unqualified name, as
    /// declared in the dataflow), overriding the default policy.
    pub fn with_retry_for(
        mut self,
        processor: impl Into<ProcessorName>,
        policy: RetryPolicy,
    ) -> Self {
        self.retry_overrides.insert(processor.into(), policy);
        self
    }

    /// Replaces the clock used for retry backoff and deadlines (a
    /// [`crate::VirtualClock`] makes retry timing deterministic in tests).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Disables the static pre-flight analysis.
    ///
    /// By default [`Engine::execute`] refuses workflows on which
    /// `prov_dataflow::analyze` reports error-level diagnostics (unbound
    /// inputs, base-type-mismatched arcs, unequal dot mismatches) — all of
    /// them guaranteed runtime failures or silent nonsense. Opt out to
    /// reproduce the unchecked behaviour, e.g. when experimenting with
    /// deliberately broken specifications.
    pub fn without_preflight(mut self) -> Self {
        self.preflight = false;
        self
    }

    /// Runs `df` on the given workflow-input bindings, recording the trace
    /// into `sink` under a fresh run id.
    pub fn execute(
        &self,
        df: &Dataflow,
        inputs: Vec<(String, Value)>,
        sink: &dyn TraceSink,
    ) -> Result<RunOutcome> {
        self.run_internal(df, inputs, sink, None)
    }

    /// Resumes a crashed run: re-walks `df` under the existing `run_id`,
    /// reusing the outputs of every invocation whose trace records are
    /// durable in `source` (see [`ResumeSource::settled_outputs`]) and
    /// re-executing only the rest. The caller must pass the same workflow
    /// and inputs as the original run — behaviours are assumed
    /// deterministic, which is also what makes the reuse sound. The
    /// returned outcome (outputs, status, failure accounting) is identical
    /// to what the uninterrupted run would have produced.
    pub fn resume<S: ResumeSource>(
        &self,
        df: &Dataflow,
        inputs: Vec<(String, Value)>,
        source: &S,
        run_id: RunId,
    ) -> Result<RunOutcome> {
        let Some(recorded) = source.run_workflow(run_id) else {
            return Err(EngineError::Resume {
                message: format!("run {run_id} is not in the trace store"),
            });
        };
        if recorded != df.name {
            return Err(EngineError::Resume {
                message: format!(
                    "run {run_id} was recorded for workflow {recorded:?}, not {:?}",
                    df.name
                ),
            });
        }
        self.run_internal(df, inputs, source, Some(ResumeCtx { source, run: run_id }))
    }

    fn run_internal(
        &self,
        df: &Dataflow,
        inputs: Vec<(String, Value)>,
        sink: &dyn TraceSink,
        resume: Option<ResumeCtx<'_>>,
    ) -> Result<RunOutcome> {
        if self.preflight {
            let errors: Vec<String> = prov_dataflow::analyze(df)
                .into_iter()
                .filter(prov_dataflow::Diagnostic::is_error)
                .map(|d| d.to_string())
                .collect();
            if !errors.is_empty() {
                return Err(EngineError::Preflight { errors });
            }
        }
        let input_map: HashMap<Arc<str>, Value> =
            inputs.into_iter().map(|(k, v)| (Arc::from(k.as_str()), v)).collect();
        // A run that cannot start is refused before the sink hears of it,
        // so a failed attempt records no empty run.
        check_inputs(df, &df.name, &input_map)?;
        self.check_behaviors(df)?;
        let run_id = match resume {
            Some(ctx) => ctx.run,
            None => sink.begin_run(&df.name),
        };
        let offsets = ScopeOffsets::top_level();
        let mut failed_xforms = Vec::new();
        let outputs = self.execute_scoped(
            df,
            df.name.clone(),
            "",
            input_map,
            &offsets,
            sink,
            run_id,
            &mut failed_xforms,
            resume,
        )?;
        // Idempotent on resume: a duplicate FinishRun replay just re-marks
        // the run finished.
        sink.finish_run(run_id);
        let status = if failed_xforms.is_empty() {
            RunStatus::Completed
        } else {
            RunStatus::PartialFailure { failed_xforms }
        };
        Ok(RunOutcome { run_id, outputs, status })
    }

    /// Fails with [`EngineError::UnknownBehavior`] if a task of `df`, or of
    /// a dataflow nested in it, names a behaviour the registry lacks —
    /// whether or not the task would ever fire.
    fn check_behaviors(&self, df: &Dataflow) -> Result<()> {
        df.processors.iter().try_for_each(|p| match &p.kind {
            ProcessorKind::Task { behavior } => match self.registry.get(behavior) {
                Some(_) => Ok(()),
                None => Err(EngineError::UnknownBehavior(behavior.clone())),
            },
            ProcessorKind::Nested { dataflow } => self.check_behaviors(dataflow),
        })
    }

    /// Executes one (possibly nested) dataflow.
    ///
    /// * `scope_name` — the processor name under which this workflow's own
    ///   I/O bindings are reported (`workflow:paths_per_gene` style); for a
    ///   nested invocation it is the qualified name of the nested
    ///   processor.
    /// * `prefix` — prepended to inner processor names in events, so that
    ///   nested traces stay addressable (`outer/inner` style).
    /// * `inputs` — checked by the caller against the scope's declared
    ///   inputs ([`check_inputs`]).
    /// * `offsets` — how element-relative indices inside this scope map to
    ///   absolute indices on the enclosing values. Events on the scope's
    ///   own I/O ports are emitted with **absolute** indices so that traces
    ///   chain seamlessly across nesting boundaries even when the nested
    ///   processor is implicitly iterated.
    #[allow(clippy::too_many_arguments)]
    fn execute_scoped(
        &self,
        df: &Dataflow,
        scope_name: ProcessorName,
        prefix: &str,
        inputs: HashMap<Arc<str>, Value>,
        offsets: &ScopeOffsets,
        sink: &dyn TraceSink,
        run_id: RunId,
        failures: &mut Vec<FailedInvocation>,
        resume: Option<ResumeCtx<'_>>,
    ) -> Result<Vec<(Arc<str>, Value)>> {
        let depths = DepthInfo::compute(df)?;
        let mut out_values: HashMap<(ProcessorName, Arc<str>), Value> = HashMap::new();

        for pname in depths.topo_order() {
            let produced = self.process_one(
                df,
                &depths,
                pname,
                &scope_name,
                prefix,
                &inputs,
                offsets,
                &out_values,
                sink,
                run_id,
                failures,
                resume,
            )?;
            for (port, value) in produced {
                out_values.insert((pname.clone(), port), value);
            }
        }

        // Workflow outputs: transfer from the feeding port. Destination
        // indices are offset by q so outer consumers see absolute indices.
        // All output transfers of the scope go to the sink as one batch.
        let mut outputs = Vec::with_capacity(df.outputs.len());
        let mut batch: Vec<TraceEvent> = Vec::new();
        for port in &df.outputs {
            let arc = df.arc_into_output(&port.name).ok_or_else(|| {
                EngineError::Spec(prov_dataflow::DataflowError::UnboundOutput(
                    port.name.to_string(),
                ))
            })?;
            let (src_ref, src_offset, v) =
                self.resolve_src(df, &arc.src, &scope_name, prefix, &inputs, offsets, &out_values)?;
            emit_xfer(
                &mut batch,
                src_ref,
                src_offset,
                PortRef { processor: scope_name.clone(), port: port.name.clone() },
                offsets.global.clone(),
                &v,
                resume,
            );
            outputs.push((port.name.clone(), v));
        }
        flush_batch(sink, run_id, &mut batch, &self.metrics);
        Ok(outputs)
    }

    /// Executes one processor of a scope: gathers its inputs (emitting
    /// xfer events), performs the implicit iteration, invokes the
    /// behaviour (or recurses into a nested dataflow) per tuple, records
    /// xform events, and assembles the output port values.
    #[allow(clippy::too_many_arguments)]
    fn process_one(
        &self,
        df: &Dataflow,
        depths: &DepthInfo,
        pname: &ProcessorName,
        scope_name: &ProcessorName,
        prefix: &str,
        inputs: &HashMap<Arc<str>, Value>,
        offsets: &ScopeOffsets,
        out_values: &HashMap<(ProcessorName, Arc<str>), Value>,
        sink: &dyn TraceSink,
        run_id: RunId,
        failures: &mut Vec<FailedInvocation>,
        resume: Option<ResumeCtx<'_>>,
    ) -> Result<Vec<(Arc<str>, Value)>> {
        {
            let p = df.processor_required(pname)?;
            let qualified = qualify(prefix, pname.as_str());
            self.metrics.firings.inc();
            // Dynamic span name: only pay the `format!` when profiling.
            let mut span = if self.obs.profiler.is_enabled() {
                self.obs.profiler.span(format!("engine.process {}", qualified.as_str()), "engine")
            } else {
                SpanGuard::inert()
            };

            // Events of this processor accumulate here and reach the sink
            // in batches: the gathered input transfers plus the xform
            // events of all elementary invocations. Flushed before any
            // recursion into a nested scope, so the overall event sequence
            // is the exact per-event order.
            let mut batch: Vec<TraceEvent> = Vec::new();

            // Gather inputs, emitting xfer events for each arc crossed.
            let mut values = Vec::with_capacity(p.inputs.len());
            let mut mismatches = Vec::with_capacity(p.inputs.len());
            for port in &p.inputs {
                let info = depths.input_depths(pname, &port.name).ok_or_else(|| {
                    EngineError::Spec(prov_dataflow::DataflowError::UnknownPort {
                        processor: pname.to_string(),
                        port: port.name.to_string(),
                    })
                })?;
                let value = match df.arc_into(pname, &port.name) {
                    Some(arc) => {
                        let (src_ref, src_offset, v) = self.resolve_src(
                            df, &arc.src, scope_name, prefix, inputs, offsets, out_values,
                        )?;
                        emit_xfer(
                            &mut batch,
                            src_ref,
                            src_offset,
                            PortRef { processor: qualified.clone(), port: port.name.clone() },
                            offsets.global.clone(),
                            &v,
                            resume,
                        );
                        v
                    }
                    None => port.default.clone().ok_or_else(|| EngineError::UnboundInput {
                        processor: pname.to_string(),
                        port: port.name.to_string(),
                    })?,
                };
                check_depth(&value, info.actual, &format!("{pname}:{}", port.name))?;
                let mismatch = info.mismatch();
                // Negative mismatch: wrap into a singleton, no iteration.
                let value = if mismatch < 0 { value.wrap((-mismatch) as usize) } else { value };
                values.push(value);
                mismatches.push(mismatch.max(0));
            }

            let layout = depths.layout_of(pname).ok_or_else(|| {
                EngineError::Spec(prov_dataflow::DataflowError::UnknownProcessor(pname.to_string()))
            })?;
            let tuples = {
                let mut iter_span = self.obs.span("engine.iterate", "engine");
                let tuples = iteration_tuples(pname.as_str(), &values, &mismatches, p.iteration)?;
                iter_span.arg("tuples", tuples.len() as u64);
                tuples
            };
            self.metrics.invocations.add(tuples.len() as u64);
            span.arg("invocations", tuples.len() as u64);

            // Invoke once per tuple, recording one xform event each (task
            // processors only: a nested dataflow's computation is fully
            // described by its inner events, so no redundant black-box
            // xform is recorded for it).
            let mut per_output: Vec<Vec<(Index, Value)>> =
                vec![Vec::with_capacity(tuples.len()); p.outputs.len()];
            let out_port_names: Vec<Arc<str>> =
                p.outputs.iter().map(|port| port.name.clone()).collect();
            for (invocation, tuple) in tuples.into_iter().enumerate() {
                let elements: Vec<Value> = tuple.inputs.iter().map(|(_, v)| v.clone()).collect();
                // The absolute iteration index `q` of this elementary
                // invocation — what its trace events carry.
                let q_abs = offsets.global.concat(&tuple.output_index);
                let mut record_event = true;
                let results = match &p.kind {
                    ProcessorKind::Task { behavior } => {
                        let b = self
                            .registry
                            .get(behavior)
                            .ok_or_else(|| EngineError::UnknownBehavior(behavior.clone()))?;
                        let settled = resume.and_then(|ctx| {
                            ctx.source.settled_outputs(ctx.run, &qualified, &q_abs, &out_port_names)
                        });
                        if let Some(values) = settled {
                            // The invocation's records survived the crash:
                            // reuse its recorded outputs and skip both the
                            // behaviour and the xform event. Failure
                            // accounting is rebuilt from error tokens this
                            // invocation *originated*; a propagated foreign
                            // token adds no entry, exactly as in a fresh
                            // run.
                            record_event = false;
                            if let Some(tok) = values
                                .iter()
                                .find_map(|v| v.first_error())
                                .filter(|t| &*t.origin == qualified.as_str())
                            {
                                self.metrics.failed_invocations.inc();
                                failures.push(FailedInvocation {
                                    processor: qualified.clone(),
                                    index: q_abs.clone(),
                                    message: tok.message.to_string(),
                                    attempts: tok.attempts,
                                });
                            }
                            values
                        } else if let Some(tok) = elements.iter().find_map(|v| v.first_error()) {
                            // Short-circuit: an input element carries an
                            // error token, so this elementary invocation
                            // propagates it to every output (at declared
                            // depth) without calling the behavior. Origin
                            // and attempt count survive propagation, so a
                            // token at the workflow output still names the
                            // invocation that raised it. The xform event is
                            // still recorded: lineage traverses the
                            // propagation chain back to the origin.
                            p.outputs
                                .iter()
                                .map(|port| {
                                    Value::Atom(Atom::Error(Box::new(tok.clone())))
                                        .wrap(port.declared.depth)
                                })
                                .collect()
                        } else {
                            let salt = invocation_salt(qualified.as_str(), &q_abs);
                            match self.invoke_with_retry(pname, b.as_ref(), &elements, salt) {
                                Ok(results) => results,
                                Err((message, _attempts)) if self.fail_fast => {
                                    return Err(EngineError::Behavior {
                                        processor: pname.to_string(),
                                        message,
                                    });
                                }
                                Err((message, attempts)) => {
                                    // Taverna-style isolation: the failed
                                    // tuple yields error tokens at declared
                                    // depth; sibling iterations proceed.
                                    self.metrics.failed_invocations.inc();
                                    failures.push(FailedInvocation {
                                        processor: qualified.clone(),
                                        index: q_abs.clone(),
                                        message: message.clone(),
                                        attempts,
                                    });
                                    p.outputs
                                        .iter()
                                        .map(|port| {
                                            Value::error(
                                                message.as_str(),
                                                qualified.as_str(),
                                                attempts,
                                            )
                                            .wrap(port.declared.depth)
                                        })
                                        .collect()
                                }
                            }
                        }
                    }
                    ProcessorKind::Nested { dataflow } => {
                        record_event = false;
                        // The nested scope's events must follow everything
                        // recorded so far — flush before recursing.
                        flush_batch(sink, run_id, &mut batch, &self.metrics);
                        let inner_inputs: HashMap<Arc<str>, Value> = dataflow
                            .inputs
                            .iter()
                            .zip(&elements)
                            .map(|(port, v)| (port.name.clone(), v.clone()))
                            .collect();
                        let inner_prefix = format!("{}{}/", prefix, pname.as_str());
                        // Inside the nested scope, indices on the scope's
                        // I/O ports are made absolute: inputs by the
                        // per-port iteration fragment, outputs by q.
                        let inner_offsets = ScopeOffsets {
                            inputs: p
                                .inputs
                                .iter()
                                .zip(&tuple.inputs)
                                .map(|(port, (idx, _))| {
                                    (port.name.clone(), offsets.global.concat(idx))
                                })
                                .collect(),
                            global: q_abs.clone(),
                        };
                        check_inputs(dataflow, &qualified, &inner_inputs)?;
                        self.execute_scoped(
                            dataflow,
                            qualified.clone(),
                            &inner_prefix,
                            inner_inputs,
                            &inner_offsets,
                            sink,
                            run_id,
                            failures,
                            resume,
                        )?
                        .into_iter()
                        .map(|(_, v)| v)
                        .collect()
                    }
                };
                if results.len() != p.outputs.len() {
                    return Err(EngineError::ArityMismatch {
                        processor: pname.to_string(),
                        expected: p.outputs.len(),
                        actual: results.len(),
                    });
                }
                let mut out_bindings = Vec::with_capacity(results.len());
                for (port, value) in p.outputs.iter().zip(&results) {
                    // Assumption 1: outputs are of declared type.
                    check_depth(value, port.declared.depth, &format!("{pname}:{}", port.name))?;
                    out_bindings.push(PortBinding {
                        port: port.name.clone(),
                        index: q_abs.clone(),
                        value: value.clone(),
                    });
                }
                if record_event {
                    batch.push(TraceEvent::Xform(XformEvent {
                        processor: qualified.clone(),
                        invocation: invocation as u32,
                        inputs: p
                            .inputs
                            .iter()
                            .zip(&tuple.inputs)
                            .map(|(port, (idx, v))| PortBinding {
                                port: port.name.clone(),
                                index: offsets.global.concat(idx),
                                value: v.clone(),
                            })
                            .collect(),
                        outputs: out_bindings,
                    }));
                }
                for (slot, value) in per_output.iter_mut().zip(results) {
                    slot.push((tuple.output_index.clone(), value));
                }
            }
            flush_batch(sink, run_id, &mut batch, &self.metrics);
            span.stop();

            // Assemble each output port's full value from the invocations.
            Ok(p.outputs
                .iter()
                .zip(per_output)
                .map(|(port, pairs)| (port.name.clone(), assemble_from(pairs, layout)))
                .collect())
        }
    }

    /// Invokes a behavior under the processor's retry policy. Returns the
    /// behavior's outputs, or `(final message, total attempts)` once the
    /// policy gives up. All timing goes through the engine's [`Clock`].
    fn invoke_with_retry(
        &self,
        pname: &ProcessorName,
        behavior: &dyn Behavior,
        elements: &[Value],
        salt: u64,
    ) -> std::result::Result<Vec<Value>, (String, u32)> {
        let policy = self.retry_overrides.get(pname).unwrap_or(&self.default_retry);
        let start = self.clock.now_micros();
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let t0 = self.clock.now_micros();
            let result = behavior.invoke(elements);
            self.metrics.attempt_micros.record(self.clock.now_micros().saturating_sub(t0));
            match result {
                Ok(values) => return Ok(values),
                Err(message) => {
                    let elapsed = self.clock.now_micros().saturating_sub(start);
                    if !policy.should_retry(attempt, &message, elapsed) {
                        return Err((message, attempt));
                    }
                    self.metrics.retries.inc();
                    self.metrics.journal.record(prov_obs::JournalEvent::Retry {
                        processor: pname.to_string(),
                        attempt: u64::from(attempt),
                    });
                    self.clock.sleep_micros(policy.delay_micros(attempt, salt));
                }
            }
        }
    }

    /// Resolves an arc source to its qualified port reference, the index
    /// offset its events carry (nonempty only for nested-scope inputs), and
    /// its value.
    #[allow(clippy::too_many_arguments)]
    fn resolve_src(
        &self,
        df: &Dataflow,
        src: &ArcSrc,
        scope_name: &ProcessorName,
        prefix: &str,
        inputs: &HashMap<Arc<str>, Value>,
        offsets: &ScopeOffsets,
        out_values: &HashMap<(ProcessorName, Arc<str>), Value>,
    ) -> Result<(PortRef, Index, Value)> {
        match src {
            ArcSrc::WorkflowInput { port } => {
                let v = inputs
                    .get(port)
                    .ok_or_else(|| EngineError::MissingWorkflowInput(port.to_string()))?;
                Ok((
                    PortRef { processor: scope_name.clone(), port: port.clone() },
                    offsets.input(port),
                    v.clone(),
                ))
            }
            ArcSrc::Processor { processor, port } => {
                let v = out_values.get(&(processor.clone(), port.clone())).unwrap_or_else(|| {
                    unreachable!(
                        "toposort guarantees {processor}:{port} is computed before use in {}",
                        df.name
                    )
                });
                Ok((
                    PortRef { processor: qualify(prefix, processor.as_str()), port: port.clone() },
                    offsets.global.clone(),
                    v.clone(),
                ))
            }
        }
    }
}

/// Index offsets translating a nested scope's element-relative indices into
/// globally unambiguous absolute indices (all empty at top level).
///
/// Every event inside a nested scope is prefixed with `global` — the
/// concatenated iteration indices of the chain of invocations that led to
/// it. This (a) disambiguates the events of different invocations of the
/// same nested processor, and (b) makes indices chain correctly across
/// scope boundaries, so lineage traversals stay fine-grained through
/// arbitrarily nested, implicitly iterated sub-workflows.
#[derive(Debug, Clone, Default)]
struct ScopeOffsets {
    /// Per workflow-input port: the absolute index of the consumed element
    /// within the (outer-addressed) value feeding that port.
    inputs: HashMap<Arc<str>, Index>,
    /// Prefix applied to every index recorded inside this scope (the outer
    /// scope's `global` concatenated with this invocation's iteration
    /// index `q`).
    global: Index,
}

impl ScopeOffsets {
    fn top_level() -> Self {
        Self::default()
    }

    fn input(&self, port: &Arc<str>) -> Index {
        self.inputs.get(port).cloned().unwrap_or_default()
    }
}

/// Assembles an output port's full value from per-invocation results.
fn assemble_from(pairs: Vec<(Index, Value)>, layout: &ProjectionLayout) -> Value {
    match layout.strategy {
        IterationStrategy::Cross => assemble_nested(pairs, layout.total),
        // A dot iteration's indices are a single run of [i] (or deeper)
        // prefixes — assemble_nested groups them just the same.
        IterationStrategy::Dot => assemble_nested(pairs, layout.total),
    }
}

/// Qualified processor name for nested scopes (`prefix` already ends in
/// `/` when nonempty).
fn qualify(prefix: &str, name: &str) -> ProcessorName {
    if prefix.is_empty() {
        ProcessorName::from(name)
    } else {
        ProcessorName::from(format!("{prefix}{name}"))
    }
}

/// Assumption 2 (§3.1): the inputs of `df`, run as `scope_name`, carry
/// values of their declared depth.
fn check_inputs(
    df: &Dataflow,
    scope_name: &ProcessorName,
    inputs: &HashMap<Arc<str>, Value>,
) -> Result<()> {
    for port in &df.inputs {
        let v = inputs
            .get(&port.name)
            .ok_or_else(|| EngineError::MissingWorkflowInput(port.name.to_string()))?;
        check_depth(v, port.declared.depth, &format!("{scope_name}:{}", port.name))?;
    }
    Ok(())
}

/// Checks a runtime value depth against the statically computed depth,
/// tolerating *hollow* values (collections containing no atoms) whose
/// depth is structurally under-determined — e.g. an empty result list at a
/// stage where static analysis expects depth 2.
fn check_depth(value: &Value, expected: usize, at: &str) -> Result<()> {
    let actual = value.depth()?;
    if actual != expected && !is_hollow(value) {
        return Err(EngineError::DepthMismatch { at: at.to_string(), expected, actual });
    }
    Ok(())
}

/// True when the value contains no atoms at all.
fn is_hollow(value: &Value) -> bool {
    match value {
        Value::Atom(_) => false,
        Value::List(items) => items.iter().all(is_hollow),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::builtin;
    use crate::events::VecSink;
    use prov_dataflow::{BaseType, DataflowBuilder, PortType};

    fn registry() -> BehaviorRegistry {
        let mut r = BehaviorRegistry::new().with_builtins();
        r.register("excl", builtin::tagger("!"));
        r.register("q", builtin::tagger("-q"));
        r.register_fn("pair", |inputs: &[Value]| {
            let a = builtin::expect_str(&inputs[0])?;
            let b = builtin::expect_str(&inputs[1])?;
            Ok(vec![Value::str(&format!("{a}+{b}"))])
        });
        r.register_fn("listify", |inputs: &[Value]| {
            let s = builtin::expect_str(&inputs[0])?;
            Ok(vec![Value::from(vec![format!("{s}.1"), format!("{s}.2")])])
        });
        r
    }

    /// `in:list(string) → excl(atom→atom) → out` — one implicit iteration.
    fn simple_chain() -> Dataflow {
        let mut b = DataflowBuilder::new("wf");
        b.input("in", PortType::list(BaseType::String));
        b.processor_with_behavior("E", "excl")
            .in_port("x", PortType::atom(BaseType::String))
            .out_port("y", PortType::atom(BaseType::String));
        b.arc_from_input("in", "E", "x").unwrap();
        b.output("out", PortType::list(BaseType::String));
        b.arc_to_output("E", "y", "out").unwrap();
        b.build().unwrap()
    }

    /// A workflow with a base-type-mismatched arc: structurally valid
    /// (passes `validate`), but the analyzer flags E001.
    fn mistyped_chain() -> Dataflow {
        let mut b = DataflowBuilder::new("wf");
        b.input("in", PortType::atom(BaseType::Int));
        b.processor_with_behavior("E", "identity")
            .in_port("x", PortType::atom(BaseType::String))
            .out_port("y", PortType::atom(BaseType::String));
        b.arc_from_input("in", "E", "x").unwrap();
        b.output("out", PortType::atom(BaseType::String));
        b.arc_to_output("E", "y", "out").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn preflight_refuses_error_level_diagnostics() {
        let sink = VecSink::new();
        let err = Engine::new(registry())
            .execute(&mistyped_chain(), vec![("in".into(), Value::int(1))], &sink)
            .unwrap_err();
        match err {
            EngineError::Preflight { errors } => {
                assert_eq!(errors.len(), 1);
                assert!(errors[0].contains("E001"), "{errors:?}");
            }
            other => panic!("expected Preflight, got {other:?}"),
        }
        // Refused before any event was recorded.
        assert!(sink.xforms_of(RunId(0)).is_empty());
    }

    #[test]
    fn preflight_opt_out_restores_unchecked_execution() {
        let sink = VecSink::new();
        // The engine never checks base types at runtime, so with the
        // pre-flight disabled the mistyped workflow "works": the int value
        // flows through the string-typed port unconverted.
        let run = Engine::new(registry())
            .without_preflight()
            .execute(&mistyped_chain(), vec![("in".into(), Value::int(1))], &sink)
            .unwrap();
        assert_eq!(run.output("out"), Some(&Value::int(1)));
    }

    #[test]
    fn iterates_list_through_atom_port() {
        let engine = Engine::new(registry());
        let sink = VecSink::new();
        let run = engine
            .execute(&simple_chain(), vec![("in".into(), Value::from(vec!["a", "b"]))], &sink)
            .unwrap();
        assert_eq!(run.output("out"), Some(&Value::from(vec!["a!", "b!"])));
        // Two elementary invocations → two xform events.
        let xforms = sink.xforms_of(run.run_id);
        assert_eq!(xforms.len(), 2);
        assert_eq!(xforms[0].inputs[0].index, Index::single(0));
        assert_eq!(xforms[0].outputs[0].index, Index::single(0));
        assert_eq!(xforms[1].inputs[0].value, Value::str("b"));
    }

    #[test]
    fn fine_granularity_emits_per_element_xfers() {
        let engine = Engine::new(registry());
        let sink = VecSink::new();
        let run = engine
            .execute(&simple_chain(), vec![("in".into(), Value::from(vec!["a", "b"]))], &sink)
            .unwrap();
        let xfers = sink.xfers_of(run.run_id);
        // arc in→E: 2 elements; arc E→out: 2 elements.
        assert_eq!(xfers.len(), 4);
        assert_eq!(xfers[0].src, PortRef::new("wf", "in"));
        assert_eq!(xfers[0].dst, PortRef::new("E", "x"));
        assert_eq!(xfers[0].src_index, Index::single(0));
        let out_xfer = &xfers[3];
        assert_eq!(out_xfer.dst, PortRef::new("wf", "out"));
        assert_eq!(out_xfer.value, Value::str("b!"));
    }

    #[test]
    fn cross_product_join_produces_matrix_and_prop1_indices() {
        // Two list inputs into a two-atom-port join: |a|·|b| invocations.
        let mut b = DataflowBuilder::new("wf");
        b.input("a", PortType::list(BaseType::String));
        b.input("b", PortType::list(BaseType::String));
        b.processor_with_behavior("J", "pair")
            .in_port("x", PortType::atom(BaseType::String))
            .in_port("y", PortType::atom(BaseType::String))
            .out_port("z", PortType::atom(BaseType::String));
        b.arc_from_input("a", "J", "x").unwrap();
        b.arc_from_input("b", "J", "y").unwrap();
        b.output("out", PortType::nested(BaseType::String, 2));
        b.arc_to_output("J", "z", "out").unwrap();
        let df = b.build().unwrap();

        let engine = Engine::new(registry());
        let sink = VecSink::new();
        let run = engine
            .execute(
                &df,
                vec![
                    ("a".into(), Value::from(vec!["a1", "a2"])),
                    ("b".into(), Value::from(vec!["b1", "b2", "b3"])),
                ],
                &sink,
            )
            .unwrap();
        let out = run.output("out").unwrap();
        assert_eq!(out.depth().unwrap(), 2);
        assert_eq!(out.at(&Index::from_slice(&[1, 2])), Some(&Value::str("a2+b3")));
        let xforms = sink.xforms_of(run.run_id);
        assert_eq!(xforms.len(), 6);
        for e in &xforms {
            // Prop. 1: q = p_x · p_y.
            let q = e.inputs[0].index.concat(&e.inputs[1].index);
            assert_eq!(q, e.outputs[0].index);
        }
    }

    #[test]
    fn many_to_one_list_port_consumes_whole_value() {
        // list_length has a list input port; a flat list arrives → δ = 0,
        // single invocation, coarse lineage (paper's R-style processor).
        let mut b = DataflowBuilder::new("wf");
        b.input("xs", PortType::list(BaseType::Int));
        b.processor_with_behavior("len", "list_length")
            .in_port("xs", PortType::list(BaseType::Int))
            .out_port("n", PortType::atom(BaseType::Int));
        b.arc_from_input("xs", "len", "xs").unwrap();
        b.output("n", PortType::atom(BaseType::Int));
        b.arc_to_output("len", "n", "n").unwrap();
        let df = b.build().unwrap();
        let sink = VecSink::new();
        let run = Engine::new(registry())
            .execute(&df, vec![("xs".into(), Value::from(vec![1i64, 2, 3]))], &sink)
            .unwrap();
        assert_eq!(run.output("n"), Some(&Value::int(3)));
        let xforms = sink.xforms_of(run.run_id);
        assert_eq!(xforms.len(), 1);
        assert!(xforms[0].inputs[0].index.is_empty());
    }

    #[test]
    fn one_to_many_listify_gains_depth() {
        // An atom→list processor fed a list: output actual depth 2.
        let mut b = DataflowBuilder::new("wf");
        b.input("in", PortType::list(BaseType::String));
        b.processor_with_behavior("L", "listify")
            .in_port("x", PortType::atom(BaseType::String))
            .out_port("ys", PortType::list(BaseType::String));
        b.arc_from_input("in", "L", "x").unwrap();
        b.output("out", PortType::nested(BaseType::String, 2));
        b.arc_to_output("L", "ys", "out").unwrap();
        let df = b.build().unwrap();
        let sink = VecSink::new();
        let run = Engine::new(registry())
            .execute(&df, vec![("in".into(), Value::from(vec!["g1", "g2"]))], &sink)
            .unwrap();
        let out = run.output("out").unwrap();
        assert_eq!(out, &Value::from(vec![vec!["g1.1", "g1.2"], vec!["g2.1", "g2.2"]]));
        // The xform records carry iteration index q of length 1 (not 2):
        // the inner level belongs to the declared output structure.
        let xforms = sink.xforms_of(run.run_id);
        assert_eq!(xforms[0].outputs[0].index, Index::single(0));
    }

    #[test]
    fn negative_mismatch_wraps_into_singleton() {
        // An atom arrives at a list(string) port: wrapped, no iteration.
        let mut b = DataflowBuilder::new("wf");
        b.input("x", PortType::atom(BaseType::String));
        b.processor_with_behavior("len", "list_length")
            .in_port("xs", PortType::list(BaseType::String))
            .out_port("n", PortType::atom(BaseType::Int));
        b.arc_from_input("x", "len", "xs").unwrap();
        b.output("n", PortType::atom(BaseType::Int));
        b.arc_to_output("len", "n", "n").unwrap();
        let df = b.build().unwrap();
        let sink = VecSink::new();
        let run = Engine::new(registry())
            .execute(&df, vec![("x".into(), Value::str("only"))], &sink)
            .unwrap();
        assert_eq!(run.output("n"), Some(&Value::int(1)));
    }

    #[test]
    fn default_values_feed_unconnected_ports() {
        let mut b = DataflowBuilder::new("wf");
        b.input("a", PortType::list(BaseType::String));
        b.processor_with_behavior("J", "pair")
            .in_port("x", PortType::atom(BaseType::String))
            .in_port_with_default("y", PortType::atom(BaseType::String), Value::str("dflt"))
            .out_port("z", PortType::atom(BaseType::String));
        b.arc_from_input("a", "J", "x").unwrap();
        b.output("out", PortType::list(BaseType::String));
        b.arc_to_output("J", "z", "out").unwrap();
        let df = b.build().unwrap();
        let sink = VecSink::new();
        let run = Engine::new(registry())
            .execute(&df, vec![("a".into(), Value::from(vec!["p"]))], &sink)
            .unwrap();
        assert_eq!(run.output("out"), Some(&Value::from(vec!["p+dflt"])));
    }

    #[test]
    fn missing_input_and_unknown_behavior_error() {
        let df = simple_chain();
        let sink = VecSink::new();
        let err = Engine::new(registry()).execute(&df, vec![], &sink);
        assert!(matches!(err, Err(EngineError::MissingWorkflowInput(_))));

        let err = Engine::new(BehaviorRegistry::new()).execute(
            &df,
            vec![("in".into(), Value::from(vec!["a"]))],
            &sink,
        );
        assert!(matches!(err, Err(EngineError::UnknownBehavior(_))));
        // Refused up front, even where no task would fire.
        let err = Engine::new(BehaviorRegistry::new()).execute(
            &df,
            vec![("in".into(), Value::empty_list())],
            &sink,
        );
        assert!(matches!(err, Err(EngineError::UnknownBehavior(_))));
        // No attempt began a run: the sink's first run id is unused.
        assert_eq!(sink.begin_run(&df.name), RunId(0));
        assert_eq!(sink.record_count(), 0);
    }

    #[test]
    fn wrong_input_depth_is_rejected() {
        let df = simple_chain();
        let sink = VecSink::new();
        let err = Engine::new(registry()).execute(
            &df,
            vec![("in".into(), Value::str("flat-atom"))],
            &sink,
        );
        assert!(matches!(err, Err(EngineError::DepthMismatch { .. })));
    }

    #[test]
    fn behavior_breaking_assumption1_is_rejected() {
        // Behaviour declares atom output but returns a list.
        let mut r = registry();
        r.register_fn("liar", |_| Ok(vec![Value::from(vec!["x"])]));
        let mut b = DataflowBuilder::new("wf");
        b.input("in", PortType::atom(BaseType::String));
        b.processor_with_behavior("L", "liar")
            .in_port("x", PortType::atom(BaseType::String))
            .out_port("y", PortType::atom(BaseType::String));
        b.arc_from_input("in", "L", "x").unwrap();
        b.output("out", PortType::atom(BaseType::String));
        b.arc_to_output("L", "y", "out").unwrap();
        let df = b.build().unwrap();
        let err =
            Engine::new(r).execute(&df, vec![("in".into(), Value::str("a"))], &VecSink::new());
        assert!(matches!(err, Err(EngineError::DepthMismatch { .. })));
    }

    #[test]
    fn empty_input_list_produces_empty_output() {
        let df = simple_chain();
        let sink = VecSink::new();
        let run = Engine::new(registry())
            .execute(&df, vec![("in".into(), Value::empty_list())], &sink)
            .unwrap();
        assert_eq!(run.output("out"), Some(&Value::empty_list()));
        assert_eq!(sink.xforms_of(run.run_id).len(), 0);
    }

    #[test]
    fn nested_dataflow_executes_with_qualified_names() {
        // inner: tag with "-q"; outer: iterate inner over a list.
        let mut inner = DataflowBuilder::new("inner");
        inner.input("a", PortType::atom(BaseType::String));
        inner
            .processor_with_behavior("Q", "q")
            .in_port("x", PortType::atom(BaseType::String))
            .out_port("y", PortType::atom(BaseType::String));
        inner.arc_from_input("a", "Q", "x").unwrap();
        inner.output("b", PortType::atom(BaseType::String));
        inner.arc_to_output("Q", "y", "b").unwrap();
        let inner = Arc::new(inner.build().unwrap());

        let mut outer = DataflowBuilder::new("outer");
        outer.input("xs", PortType::list(BaseType::String));
        outer.nested("sub", inner);
        outer.arc_from_input("xs", "sub", "a").unwrap();
        outer.output("ys", PortType::list(BaseType::String));
        outer.arc_to_output("sub", "b", "ys").unwrap();
        let df = outer.build().unwrap();

        let sink = VecSink::new();
        let run = Engine::new(registry())
            .execute(&df, vec![("xs".into(), Value::from(vec!["u", "v"]))], &sink)
            .unwrap();
        assert_eq!(run.output("ys"), Some(&Value::from(vec!["u-q", "v-q"])));
        // Inner invocations recorded under the qualified name sub/Q; the
        // nested workflow's own I/O under "sub".
        let xforms = sink.xforms_of(run.run_id);
        let names: Vec<&str> = xforms.iter().map(|e| e.processor.as_str()).collect();
        assert_eq!(names.iter().filter(|n| **n == "sub/Q").count(), 2);
        let xfers = sink.xfers_of(run.run_id);
        assert!(xfers
            .iter()
            .any(|e| e.src.processor.as_str() == "sub" && e.dst.processor.as_str() == "sub/Q"));
    }

    /// `in:atom → B(boom) → out` with an always-failing behavior.
    fn boom_chain() -> (BehaviorRegistry, Dataflow) {
        let mut r = registry();
        r.register_fn("boom", |_| Err("kaput".into()));
        let mut b = DataflowBuilder::new("wf");
        b.input("in", PortType::atom(BaseType::String));
        b.processor_with_behavior("B", "boom")
            .in_port("x", PortType::atom(BaseType::String))
            .out_port("y", PortType::atom(BaseType::String));
        b.arc_from_input("in", "B", "x").unwrap();
        b.output("out", PortType::atom(BaseType::String));
        b.arc_to_output("B", "y", "out").unwrap();
        (r, b.build().unwrap())
    }

    #[test]
    fn fail_fast_surfaces_behavior_errors() {
        let (r, df) = boom_chain();
        let err = Engine::new(r).fail_fast().execute(
            &df,
            vec![("in".into(), Value::str("x"))],
            &VecSink::new(),
        );
        assert!(matches!(err, Err(EngineError::Behavior { .. })));
    }

    #[test]
    fn default_semantics_turn_failures_into_error_tokens() {
        let (r, df) = boom_chain();
        let sink = VecSink::new();
        let run = Engine::new(r).execute(&df, vec![("in".into(), Value::str("x"))], &sink).unwrap();
        assert!(!run.status.is_completed());
        let failed = run.failed_xforms();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].processor, ProcessorName::from("B"));
        assert_eq!(failed[0].message, "kaput");
        assert_eq!(failed[0].attempts, 1);
        let tok = run.output("out").unwrap().first_error().unwrap();
        assert_eq!(&*tok.origin, "B");
        assert_eq!(&*tok.message, "kaput");
        // The failed invocation is still on the trace.
        assert_eq!(sink.xforms_of(run.run_id).len(), 1);
    }

    #[test]
    fn failed_element_isolates_and_siblings_complete() {
        // One element of the implicit iteration fails; its siblings'
        // outputs are unaffected and the failed position carries the token.
        let mut r = registry();
        r.register_fn("excl_but_b", |inputs: &[Value]| {
            let s = builtin::expect_str(&inputs[0])?;
            if s == "b" {
                Err("element b is cursed".to_string())
            } else {
                Ok(vec![Value::str(&format!("{s}!"))])
            }
        });
        let mut b = DataflowBuilder::new("wf");
        b.input("in", PortType::list(BaseType::String));
        b.processor_with_behavior("E", "excl_but_b")
            .in_port("x", PortType::atom(BaseType::String))
            .out_port("y", PortType::atom(BaseType::String));
        b.arc_from_input("in", "E", "x").unwrap();
        b.output("out", PortType::list(BaseType::String));
        b.arc_to_output("E", "y", "out").unwrap();
        let df = b.build().unwrap();
        let sink = VecSink::new();
        let run = Engine::new(r)
            .execute(&df, vec![("in".into(), Value::from(vec!["a", "b", "c"]))], &sink)
            .unwrap();
        let out = run.output("out").unwrap();
        assert_eq!(out.at(&Index::single(0)), Some(&Value::str("a!")));
        assert_eq!(out.at(&Index::single(2)), Some(&Value::str("c!")));
        let tok = out.at(&Index::single(1)).unwrap().first_error().unwrap();
        assert_eq!(&*tok.origin, "E");
        assert_eq!(run.failed_xforms().len(), 1);
        assert_eq!(run.failed_xforms()[0].index, Index::single(1));
        // All three elementary invocations recorded, including the failed one.
        assert_eq!(sink.xforms_of(run.run_id).len(), 3);
    }

    #[test]
    fn downstream_processors_short_circuit_on_error_inputs() {
        // E fails on "b"; downstream D must not see the error element.
        let invoked = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let seen = invoked.clone();
        let mut r = registry();
        r.register_fn("fail_b", |inputs: &[Value]| {
            let s = builtin::expect_str(&inputs[0])?;
            if s == "b" {
                Err("bad b".to_string())
            } else {
                Ok(vec![inputs[0].clone()])
            }
        });
        r.register_fn("count_upper", move |inputs: &[Value]| {
            seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let s = builtin::expect_str(&inputs[0])?;
            Ok(vec![Value::str(&s.to_uppercase())])
        });
        let mut b = DataflowBuilder::new("wf");
        b.input("in", PortType::list(BaseType::String));
        b.processor_with_behavior("E", "fail_b")
            .in_port("x", PortType::atom(BaseType::String))
            .out_port("y", PortType::atom(BaseType::String));
        b.processor_with_behavior("D", "count_upper")
            .in_port("x", PortType::atom(BaseType::String))
            .out_port("y", PortType::atom(BaseType::String));
        b.arc_from_input("in", "E", "x").unwrap();
        b.arc("E", "y", "D", "x").unwrap();
        b.output("out", PortType::list(BaseType::String));
        b.arc_to_output("D", "y", "out").unwrap();
        let df = b.build().unwrap();
        let sink = VecSink::new();
        let run = Engine::new(r)
            .execute(&df, vec![("in".into(), Value::from(vec!["a", "b", "c"]))], &sink)
            .unwrap();
        // D's behavior ran only for the two healthy elements.
        assert_eq!(invoked.load(std::sync::atomic::Ordering::SeqCst), 2);
        let out = run.output("out").unwrap();
        assert_eq!(out.at(&Index::single(0)), Some(&Value::str("A")));
        assert_eq!(out.at(&Index::single(2)), Some(&Value::str("C")));
        // The propagated token still names E as its origin.
        let tok = out.at(&Index::single(1)).unwrap().first_error().unwrap();
        assert_eq!(&*tok.origin, "E");
        // Only E's invocation counts as failed; D propagated.
        assert_eq!(run.failed_xforms().len(), 1);
        assert_eq!(run.failed_xforms()[0].processor, ProcessorName::from("E"));
        // D's propagating invocation is still on the trace (3 for E + 3 for D).
        assert_eq!(sink.xforms_of(run.run_id).len(), 6);
    }

    #[test]
    fn retry_policy_recovers_flaky_behaviors_deterministically() {
        let mut r = registry();
        r.register("flaky2", builtin::flaky(2, builtin::tagger("!")));
        let mut b = DataflowBuilder::new("wf");
        b.input("in", PortType::atom(BaseType::String));
        b.processor_with_behavior("F", "flaky2")
            .in_port("x", PortType::atom(BaseType::String))
            .out_port("y", PortType::atom(BaseType::String));
        b.arc_from_input("in", "F", "x").unwrap();
        b.output("out", PortType::atom(BaseType::String));
        b.arc_to_output("F", "y", "out").unwrap();
        let df = b.build().unwrap();

        let clock = Arc::new(crate::retry::VirtualClock::new());
        let obs = Obs::enabled();
        let run = Engine::new(r)
            .with_obs(obs.clone())
            .with_clock(clock.clone())
            .with_retry(crate::retry::RetryPolicy::attempts(3).with_backoff(
                crate::retry::Backoff::Exponential { base_micros: 100, max_micros: 1_000 },
            ))
            .execute(&df, vec![("in".into(), Value::str("x"))], &VecSink::new())
            .unwrap();
        assert!(run.status.is_completed());
        assert_eq!(run.output("out"), Some(&Value::str("x!")));
        // Two injected flakes → exactly two retries, with deterministic
        // exponential backoff observed on the virtual clock.
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("engine.retries"), 2);
        assert_eq!(snap.counter("engine.failed_invocations"), 0);
        assert_eq!(clock.sleeps(), vec![100, 200]);
    }

    #[test]
    fn exhausted_retries_record_attempt_count_in_token_and_outcome() {
        let mut r = registry();
        r.register("flaky9", builtin::flaky(9, builtin::tagger("!")));
        let mut b = DataflowBuilder::new("wf");
        b.input("in", PortType::atom(BaseType::String));
        b.processor_with_behavior("F", "flaky9")
            .in_port("x", PortType::atom(BaseType::String))
            .out_port("y", PortType::atom(BaseType::String));
        b.arc_from_input("in", "F", "x").unwrap();
        b.output("out", PortType::atom(BaseType::String));
        b.arc_to_output("F", "y", "out").unwrap();
        let df = b.build().unwrap();

        let obs = Obs::enabled();
        let run = Engine::new(r)
            .with_obs(obs.clone())
            .with_clock(Arc::new(crate::retry::VirtualClock::new()))
            .with_retry_for("F", crate::retry::RetryPolicy::attempts(3))
            .execute(&df, vec![("in".into(), Value::str("x"))], &VecSink::new())
            .unwrap();
        assert_eq!(run.failed_xforms().len(), 1);
        assert_eq!(run.failed_xforms()[0].attempts, 3);
        let tok = run.output("out").unwrap().first_error().unwrap();
        assert_eq!(tok.attempts, 3);
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("engine.retries"), 2);
        assert_eq!(snap.counter("engine.failed_invocations"), 1);
        assert_eq!(snap.histograms.get("engine.attempt_micros").map(|h| h.count), Some(3));
    }

    #[test]
    fn error_outputs_are_wrapped_to_declared_depth() {
        // A failing processor with a list(string) output: the token is
        // emitted as a depth-1 singleton so downstream depth checks hold.
        let mut r = registry();
        r.register_fn("boomlist", |_| Err("no list today".into()));
        let mut b = DataflowBuilder::new("wf");
        b.input("in", PortType::atom(BaseType::String));
        b.processor_with_behavior("L", "boomlist")
            .in_port("x", PortType::atom(BaseType::String))
            .out_port("ys", PortType::list(BaseType::String));
        b.arc_from_input("in", "L", "x").unwrap();
        b.output("out", PortType::list(BaseType::String));
        b.arc_to_output("L", "ys", "out").unwrap();
        let df = b.build().unwrap();
        let run = Engine::new(r)
            .execute(&df, vec![("in".into(), Value::str("g"))], &VecSink::new())
            .unwrap();
        let out = run.output("out").unwrap();
        assert_eq!(out.depth().unwrap(), 1);
        assert!(out.contains_error());
    }

    #[test]
    fn observed_run_records_firing_spans_and_engine_counters() {
        let obs = Obs::enabled();
        let sink = VecSink::new();
        let run = Engine::new(registry())
            .with_obs(obs.clone())
            .execute(&simple_chain(), vec![("in".into(), Value::from(vec!["a", "b"]))], &sink)
            .unwrap();
        assert_eq!(run.output("out"), Some(&Value::from(vec!["a!", "b!"])));

        let spans = obs.profiler.spans();
        let firings: Vec<_> =
            spans.iter().filter(|s| s.name.starts_with("engine.process ")).collect();
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].name, "engine.process E");
        assert_eq!(firings[0].cat, "engine");
        assert_eq!(firings[0].args, vec![("invocations", 2)]);
        assert_eq!(spans.iter().filter(|s| s.name == "engine.iterate").count(), 1);

        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("engine.firings"), 1);
        assert_eq!(snap.counter("engine.invocations"), 2);
        // 1 input-xfer batch per processor firing + 1 output batch; batch
        // sizes cover all 6 events (2 in-xfers, 2 xforms, 2 out-xfers).
        assert!(snap.counter("engine.batches") >= 2);
        assert_eq!(snap.histograms.get("engine.batch_size").map(|h| h.sum), Some(6));
    }

    #[test]
    fn disabled_obs_engine_behaves_identically() {
        let sink_a = VecSink::new();
        let sink_b = VecSink::new();
        let inputs = vec![("in".to_string(), Value::from(vec!["a", "b"]))];
        let plain = Engine::new(registry()).execute(&simple_chain(), inputs.clone(), &sink_a);
        let observed = Engine::new(registry()).with_obs(Obs::disabled()).execute(
            &simple_chain(),
            inputs,
            &sink_b,
        );
        assert_eq!(plain.unwrap().outputs, observed.unwrap().outputs);
        assert_eq!(sink_a.xforms_of(RunId(0)).len(), sink_b.xforms_of(RunId(0)).len());
    }

    #[test]
    fn source_processor_with_no_inputs_runs_once() {
        let mut r = registry();
        r.register("five", builtin::constant(Value::int(5)));
        let mut b = DataflowBuilder::new("wf");
        b.processor_with_behavior("C", "five").out_port("y", PortType::atom(BaseType::Int));
        b.output("out", PortType::atom(BaseType::Int));
        b.arc_to_output("C", "y", "out").unwrap();
        let df = b.build().unwrap();
        let sink = VecSink::new();
        let run = Engine::new(r).execute(&df, vec![], &sink).unwrap();
        assert_eq!(run.output("out"), Some(&Value::int(5)));
        assert_eq!(sink.xforms_of(run.run_id).len(), 1);
    }
}
