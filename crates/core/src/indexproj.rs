//! **INDEXPROJ** (§3.3, Algorithm 2): lineage by traversal of the workflow
//! *specification* graph.
//!
//! The extensional inversion of the naïve algorithm — "find the xform
//! event matching this output binding" — is replaced by the intensional
//! index projection rule (Def. 4): because Prop. 1 guarantees
//! `q = p1 · … · pn` with `|p_i| = max(δ_s(X_i), 0)`, an output index can
//! be apportioned to the input ports *without touching the trace at all*.
//! The trace is consulted only at the interesting processors `𝒫`, with one
//! indexed lookup `Q(P, X_i, p_i)` each.
//!
//! The traversal produces a [`LineagePlan`]: the finite list of trace
//! lookups the query requires. Building the plan is the paper's phase
//! *s1*; executing it against a run is phase *s2*. The plan depends only on
//! the workflow graph, the target, the index and `𝒫` — not on any run —
//! so one plan serves any number of runs (§3.4) and can be cached across
//! queries ([`crate::PlanCache`]).
//!
//! Nested dataflows are traversed transparently: the engine records
//! scope-boundary events with absolute indices, and the traversal descends
//! into a nested workflow's specification carrying the enclosing iteration
//! fragments, so granularity survives arbitrary nesting.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use prov_dataflow::{ArcDst, ArcSrc, Dataflow, DepthInfo, ProcessorKind};
use prov_model::{Binding, Index, ProcessorName, RunId};
use prov_obs::{JournalEvent, Obs, QueryCtx};
use prov_store::{ProbeStats, ReadView, TraceStore};

use crate::lifecycle::Lifecycle;
use crate::{step_index_id, CoreError, FocusSet, LineageAnswer, LineageQuery, Result};

/// What a plan step reads from the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StepKind {
    /// `Q(P, X_i, p_i)`: the stored xform **input** bindings of a focused
    /// processor port.
    XformInput,
    /// The xfer **source** bindings of a workflow-scope input port (top
    /// level or nested scope) — such ports never appear in xform rows.
    XferSrc,
}

/// One trace lookup of a compiled lineage query.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlanStep {
    /// Which lookup.
    pub kind: StepKind,
    /// Scope-qualified processor (or workflow-scope) name.
    pub processor: ProcessorName,
    /// Port name.
    pub port: std::sync::Arc<str>,
    /// The projected index `p_i` (absolute).
    pub index: Index,
    /// Length of the element indexes the engine stores for this port under
    /// fine-grained recording — the depth at which `index` would be a point
    /// probe. A shorter `index` (coarse query) widens the lookup to a span
    /// scan; a longer one clamps to ancestors. Derived purely from the
    /// specification (Algorithm 1 depths plus scope offsets), so the plan
    /// verifier can classify every step without touching the trace.
    pub expected_depth: usize,
}

/// A compiled lineage query: the trace lookups it requires, plus the
/// accounting of the graph traversal that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LineagePlan {
    /// The lookups, in traversal order, deduplicated.
    pub steps: Vec<PlanStep>,
    /// Specification-graph nodes visited while planning (phase s1 work).
    pub nodes_visited: usize,
}

impl LineagePlan {
    /// One step's resolved bindings. Reads only the pinned view: no store
    /// lock is touched. Probe work accumulates into `probe` (the caller
    /// owns the flush into the shared counters), so each step's exact cost
    /// is attributable.
    fn step_bindings(
        view: &ReadView,
        step: &PlanStep,
        probe: &mut ProbeStats,
    ) -> Result<Vec<Binding>> {
        let node = view.node(&step.processor, &step.port, &step.index);
        Ok(view.bindings_at(step_index_id(step), &node, probe)?)
    }

    /// Executes the plan against one run (phase *s2*): one indexed trace
    /// query per step.
    pub fn execute(&self, store: &TraceStore, run: RunId) -> Result<LineageAnswer> {
        self.execute_pinned(&store.pin(run), &Obs::disabled(), &QueryCtx::detached())
    }

    /// Executes the plan against several runs, sharing the (already paid)
    /// planning phase — the multi-run scenario of §3.4 and Fig. 4.
    pub fn execute_multi(&self, store: &TraceStore, runs: &[RunId]) -> Result<Vec<LineageAnswer>> {
        self.execute_multi_ctx(store, runs, &Obs::disabled(), &QueryCtx::detached())
    }

    /// Executes the plan against an already-pinned read snapshot
    /// ([`TraceStore::pin`], one brief read lock; every step then probes
    /// the immutable snapshot lock-free), observed by `obs` under `ctx`.
    /// The answer is for the view's run *as of the pin*: events recorded
    /// after the pin are not visible, which makes answers stable even
    /// while an engine is streaming into the same store.
    ///
    /// Each step records an `indexproj.step` span charging the paper's
    /// `t2` account, and answer assembly an `indexproj.assemble` span
    /// charging `t1`. Journal events (`QueryStarted`/`PlanStep`/
    /// `QueryFinished`) are stamped with the context's trace id, the
    /// deadline is enforced between steps, and the attached cost
    /// prediction (if any) is drift-checked on completion. Steps run in
    /// plan order on the caller's thread; the first failing step's error
    /// is the query's.
    ///
    /// Each step counts its probe work into a step-local [`ProbeStats`]
    /// (flushed into the shared counters exactly once, on drop — early
    /// returns and panics included), so span arguments and `PlanStep`
    /// journal events carry the step's *exact* cost. When `obs` can record
    /// neither spans nor events, steps skip the timing and the local
    /// counters altogether.
    pub fn execute_pinned(
        &self,
        view: &ReadView,
        obs: &Obs,
        ctx: &QueryCtx,
    ) -> Result<LineageAnswer> {
        use std::time::Instant;
        let life = Lifecycle::start(obs, ctx);
        let observing = obs.profiler.is_enabled() || life.journals();
        let run_u64 = view.run().0;
        // (bindings, step-local probe counters, step duration).
        type StepOut = (Vec<Binding>, ProbeStats, u64);
        let timed_step = |(idx, step): (usize, &PlanStep)| -> Result<StepOut> {
            life.check_deadline()?;
            if !observing {
                let mut guard = view.probe_guard();
                let out = Self::step_bindings(view, step, &mut guard)?;
                return Ok((out, ProbeStats::new(), 0));
            }
            let before = Instant::now();
            let mut span = obs.span("indexproj.step", "t2");
            let local = {
                let mut guard = view.probe_guard();
                let out = Self::step_bindings(view, step, &mut guard);
                (out, guard.so_far())
                // guard drops here: the step's counters reach the shared
                // totals even when `out` is an error.
            };
            let (out, local) = local;
            let dur_ns = before.elapsed().as_nanos() as u64;
            span.arg("index_lookups", local.index_lookups);
            span.arg("records_read", local.records_read);
            span.arg("rows_scanned", local.rows_scanned);
            let rows = out.as_ref().map_or(0, |r| r.len() as u64);
            if out.is_ok() {
                span.arg("rows", rows);
            }
            if life.journals() {
                obs.journal.record(JournalEvent::PlanStep {
                    trace: ctx.trace,
                    run: run_u64,
                    step: idx as u32,
                    index_lookups: local.index_lookups,
                    records_read: local.records_read,
                    rows_scanned: local.rows_scanned,
                    rows,
                    dur_ns,
                });
            }
            out.map(|b| (b, local, dur_ns))
        };
        let per_step =
            self.steps.iter().enumerate().map(timed_step).collect::<Result<Vec<StepOut>>>()?;
        let mut assemble = obs.span("indexproj.assemble", "t1");
        let mut bindings: Vec<Binding> = Vec::new();
        let mut totals = ProbeStats::new();
        let mut t2_ns = 0u64;
        for (step_bindings, local, dur_ns) in per_step {
            totals.index_lookups += local.index_lookups;
            totals.records_read += local.records_read;
            totals.rows_scanned += local.rows_scanned;
            t2_ns += dur_ns;
            bindings.extend(step_bindings);
        }
        assemble.arg("bindings", bindings.len() as u64);
        assemble.stop();
        life.finish(view.run(), self.steps.len(), bindings.len(), totals, Some(t2_ns));
        Ok(LineageAnswer::new(view.run(), bindings, self.steps.len(), self.nodes_visited))
    }

    /// [`LineagePlan::execute_multi`] observed by `obs` under `ctx`: one
    /// plan shared by every run, the runs taken in order — pin one, run
    /// its steps, next. After its pin a run acquires **zero** locks. The
    /// first failing run's error is the sweep's. Every run's execution
    /// shares the context's trace id and emits its own `QueryFinished`
    /// (carrying the run id), so a multi-run sweep reassembles into
    /// per-run totals from the journal alone.
    pub fn execute_multi_ctx(
        &self,
        store: &TraceStore,
        runs: &[RunId],
        obs: &Obs,
        ctx: &QueryCtx,
    ) -> Result<Vec<LineageAnswer>> {
        runs.iter().map(|&r| self.execute_pinned(&store.pin(r), obs, ctx)).collect()
    }
}

/// The INDEXPROJ query processor for one workflow.
#[derive(Debug)]
pub struct IndexProj<'a> {
    df: &'a Dataflow,
    depths: OnceLock<Arc<DepthInfo>>,
}

impl<'a> IndexProj<'a> {
    /// A query processor over the given workflow specification.
    pub fn new(df: &'a Dataflow) -> Self {
        IndexProj { df, depths: OnceLock::new() }
    }

    /// A query processor whose Algorithm 1 result is already at hand.
    pub(crate) fn with_depths(df: &'a Dataflow, depths: Arc<DepthInfo>) -> Self {
        IndexProj { df, depths: OnceLock::from(depths) }
    }

    /// The workflow specification this processor plans against.
    pub fn dataflow(&self) -> &'a Dataflow {
        self.df
    }

    /// The (memoised) result of Algorithm 1 for the top-level workflow.
    fn depth_info(&self) -> Result<Arc<DepthInfo>> {
        if let Some(d) = self.depths.get() {
            return Ok(Arc::clone(d));
        }
        let computed = Arc::new(DepthInfo::compute(self.df)?);
        let _ = self.depths.set(Arc::clone(&computed));
        Ok(computed)
    }

    /// Compiles `query` into a [`LineagePlan`] (phase *s1*).
    pub fn plan(&self, query: &LineageQuery) -> Result<LineagePlan> {
        self.plan_with(query, &Obs::disabled())
    }

    /// [`IndexProj::plan`] with observability: records one
    /// `indexproj.plan` span charging the paper's `t1` account (pure
    /// graph work, no trace access), with the compiled plan's size as
    /// arguments.
    pub fn plan_with(&self, query: &LineageQuery, obs: &Obs) -> Result<LineagePlan> {
        let mut span = obs.span("indexproj.plan", "t1");
        let plan = self.plan_inner(query)?;
        span.arg("steps", plan.steps.len() as u64);
        span.arg("nodes_visited", plan.nodes_visited as u64);
        span.stop();
        Ok(plan)
    }

    fn plan_inner(&self, query: &LineageQuery) -> Result<LineagePlan> {
        let depths = self.depth_info()?;
        let mut builder = PlanBuilder {
            focus: &query.focus,
            steps: Vec::new(),
            seen_steps: HashSet::new(),
            visited: HashSet::new(),
        };
        let scope = Scope {
            df: self.df,
            depths,
            prefix: String::new(),
            scope_name: self.df.name.clone(),
            global: Index::empty(),
            expected_global_len: 0,
            outer: None,
        };

        if query.target.processor == self.df.name {
            // A workflow-interface port.
            if self.df.output(&query.target.port).is_some() {
                builder.visit_wf_output(&scope, &query.target.port, &query.index)?;
            } else if self.df.input(&query.target.port).is_some() {
                // Lineage of an input is the input itself.
                builder.visit_wf_input(&scope, &query.target.port, &query.index)?;
            } else {
                return Err(CoreError::UnknownTarget { target: query.target.to_string() });
            }
        } else {
            let p = self
                .df
                .processor(&query.target.processor)
                .ok_or_else(|| CoreError::UnknownTarget { target: query.target.to_string() })?;
            if p.output(&query.target.port).is_none() {
                return Err(CoreError::UnknownTarget { target: query.target.to_string() });
            }
            builder.visit_output(
                &scope,
                &query.target.processor,
                &query.target.port,
                &query.index,
            )?;
        }

        Ok(LineagePlan { steps: builder.steps, nodes_visited: builder.visited.len() })
    }

    /// Plans and executes in one call.
    pub fn run(
        &self,
        store: &TraceStore,
        run: RunId,
        query: &LineageQuery,
    ) -> Result<LineageAnswer> {
        self.plan(query)?.execute(store, run)
    }

    /// Plans once and executes over several runs.
    pub fn run_multi(
        &self,
        store: &TraceStore,
        runs: &[RunId],
        query: &LineageQuery,
    ) -> Result<Vec<LineageAnswer>> {
        self.plan(query)?.execute_multi(store, runs)
    }
}

/// One (possibly nested) workflow scope during plan construction.
struct Scope<'b> {
    df: &'b Dataflow,
    depths: Arc<DepthInfo>,
    /// Prefix for inner processor names (`""` at top, `"N/"` inside N, …).
    prefix: String,
    /// The scope's own qualified name (workflow name at top, the nested
    /// processor's qualified name inside).
    scope_name: ProcessorName,
    /// The global index prefix the engine applied to every event recorded
    /// in this scope (empty at top level; `G_outer · q` inside an
    /// invocation with iteration index `q`).
    global: Index,
    /// Length the engine's global prefix has at *full* granularity: the
    /// sum of the enclosing layouts' iteration totals. `global.len()` can
    /// be shorter when the query index is coarse; stored rows always carry
    /// the full-length prefix, so expected depths build on this.
    expected_global_len: usize,
    /// Link to the enclosing scope, if any.
    outer: Option<Outer<'b>>,
}

impl Scope<'_> {
    /// Strips this scope's global prefix from an absolute index (clamping
    /// when a coarse query index is shorter than the prefix).
    fn relative(&self, index: &Index) -> Index {
        index.project(self.global.len(), index.len().saturating_sub(self.global.len()))
    }
}

/// How a nested scope reconnects to its enclosing graph.
struct Outer<'b> {
    scope: &'b Scope<'b>,
    /// Local name of the nested processor within the outer dataflow.
    nested_local: ProcessorName,
    /// Per inner-input port: the absolute iteration fragment of the element
    /// this descent followed.
    fragments: HashMap<std::sync::Arc<str>, Index>,
    /// Per inner-input port: the length the fragment has at full
    /// granularity (outer `expected_global_len` plus the port's static
    /// fragment length), regardless of how coarse the query index is.
    expected_fragments: HashMap<std::sync::Arc<str>, usize>,
}

struct PlanBuilder<'q> {
    focus: &'q FocusSet,
    steps: Vec<PlanStep>,
    seen_steps: HashSet<PlanStep>,
    visited: HashSet<(ProcessorName, std::sync::Arc<str>, Index)>,
}

impl PlanBuilder<'_> {
    fn push_step(&mut self, step: PlanStep) {
        if self.seen_steps.insert(step.clone()) {
            self.steps.push(step);
        }
    }

    fn qualify(prefix: &str, name: &str) -> ProcessorName {
        if prefix.is_empty() {
            ProcessorName::from(name)
        } else {
            ProcessorName::from(format!("{prefix}{name}"))
        }
    }

    /// Entry through a workflow output port: follow its single arc.
    fn visit_wf_output(&mut self, scope: &Scope<'_>, port: &str, index: &Index) -> Result<()> {
        let arc = match scope.df.arc_into_output(port) {
            Some(a) => a,
            None => return Ok(()), // unbound output: no lineage
        };
        match &arc.src {
            ArcSrc::WorkflowInput { port: p } => self.visit_wf_input(scope, p, index),
            ArcSrc::Processor { processor, port: p } => {
                self.visit_output(scope, processor, p, index)
            }
        }
    }

    /// A processor output port at `index`: apply the index projection rule
    /// and keep walking the specification graph.
    fn visit_output(
        &mut self,
        scope: &Scope<'_>,
        local: &ProcessorName,
        port: &str,
        index: &Index,
    ) -> Result<()> {
        let qualified = Self::qualify(&scope.prefix, local.as_str());
        if !self.visited.insert((qualified.clone(), std::sync::Arc::from(port), index.clone())) {
            return Ok(());
        }
        let p = scope.df.processor_required(local).map_err(CoreError::Dataflow)?;
        let layout = scope
            .depths
            .layout_of(local)
            .ok_or_else(|| {
                CoreError::Dataflow(prov_dataflow::DataflowError::UnknownProcessor(
                    local.to_string(),
                ))
            })?
            .clone();
        // Only the first `total` components (past the scope's global
        // prefix) of the output index come from iteration; anything deeper
        // addresses structure inside the declared output value, which a
        // black box cannot be inverted through (coarse fallback, exactly
        // as in the paper).
        let rel = scope.relative(index);
        let qn = rel.prefix(layout.total);

        match &p.kind {
            ProcessorKind::Task { .. } => {
                let focused = self.focus.contains(&qualified);
                for (pos, input) in p.inputs.iter().enumerate() {
                    let (off, len) = layout.fragment_of(pos);
                    let pi = scope.global.concat(&qn.project(off, len));
                    if focused {
                        self.push_step(PlanStep {
                            kind: StepKind::XformInput,
                            processor: qualified.clone(),
                            port: input.name.clone(),
                            index: pi.clone(),
                            // The engine stores one xform-input row per
                            // elementary invocation at global · fragment.
                            expected_depth: scope.expected_global_len + len,
                        });
                    }
                    self.visit_input(scope, local, &input.name, &pi)?;
                }
            }
            ProcessorKind::Nested { dataflow } => {
                // Residual index inside the nested workflow's output value.
                let r = rel.project(layout.total, rel.len().saturating_sub(layout.total));
                let inner_global = scope.global.concat(&qn);
                // Absolute iteration fragments per inner input port.
                let mut fragments: HashMap<std::sync::Arc<str>, Index> = HashMap::new();
                let mut expected_fragments: HashMap<std::sync::Arc<str>, usize> = HashMap::new();
                for (pos, input) in p.inputs.iter().enumerate() {
                    let (off, len) = layout.fragment_of(pos);
                    fragments
                        .insert(input.name.clone(), scope.global.concat(&qn.project(off, len)));
                    expected_fragments.insert(input.name.clone(), scope.expected_global_len + len);
                }
                let inner_scope = Scope {
                    df: dataflow.as_ref(),
                    depths: Arc::new(DepthInfo::compute(dataflow).map_err(CoreError::Dataflow)?),
                    prefix: format!("{}{}/", scope.prefix, local.as_str()),
                    scope_name: qualified.clone(),
                    global: inner_global.clone(),
                    expected_global_len: scope.expected_global_len + layout.total,
                    outer: Some(Outer {
                        scope,
                        nested_local: local.clone(),
                        fragments,
                        expected_fragments,
                    }),
                };
                self.visit_wf_output(&inner_scope, port, &inner_global.concat(&r))?;
            }
        }
        Ok(())
    }

    /// A processor input port: follow its incoming arc backwards.
    fn visit_input(
        &mut self,
        scope: &Scope<'_>,
        local: &ProcessorName,
        port: &str,
        index: &Index,
    ) -> Result<()> {
        // Also continue through any arc that feeds a *workflow output*
        // from this processor? No: lineage walks upstream only.
        let arc = scope.df.arcs.iter().find(|a| {
            matches!(&a.dst, ArcDst::Processor { processor, port: q }
                if processor == local && &**q == port)
        });
        let Some(arc) = arc else {
            return Ok(()); // default-valued port: nothing upstream
        };
        match &arc.src {
            ArcSrc::WorkflowInput { port: p } => self.visit_wf_input(scope, p, index),
            ArcSrc::Processor { processor, port: p } => {
                self.visit_output(scope, processor, p, index)
            }
        }
    }

    /// A workflow-scope input port, reached at a scope-absolute `index`
    /// (i.e. carrying this scope's global prefix).
    fn visit_wf_input(&mut self, scope: &Scope<'_>, port: &str, index: &Index) -> Result<()> {
        // Re-base onto the enclosing value: replace the scope's global
        // prefix with the port's own iteration fragment.
        let absolute = match &scope.outer {
            Some(outer) => outer
                .fragments
                .get(port)
                .cloned()
                .unwrap_or_default()
                .concat(&scope.relative(index)),
            None => index.clone(),
        };
        if !self.visited.insert((
            scope.scope_name.clone(),
            std::sync::Arc::from(port),
            absolute.clone(),
        )) {
            return Ok(());
        }
        if self.focus.contains(&scope.scope_name) {
            // Fine-granularity xfer rows sit at offset · leaf, where the
            // leaf index is as deep as the port's declared value.
            let declared = scope.df.input(port).map(|p| p.declared.depth).unwrap_or(0);
            let base = match &scope.outer {
                Some(outer) => outer.expected_fragments.get(port).copied().unwrap_or(0),
                None => 0,
            };
            self.push_step(PlanStep {
                kind: StepKind::XferSrc,
                processor: scope.scope_name.clone(),
                port: std::sync::Arc::from(port),
                index: absolute.clone(),
                expected_depth: base + declared,
            });
        }
        if let Some(outer) = &scope.outer {
            // Continue upstream in the enclosing graph.
            self.visit_input(outer.scope, &outer.nested_local, port, &absolute)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_dataflow::{BaseType, DataflowBuilder, PortType};
    use prov_model::PortRef;

    /// The paper's Fig. 3 workflow (same as in prov-dataflow's tests).
    fn fig3() -> Dataflow {
        let mut b = DataflowBuilder::new("wf");
        b.input("v", PortType::list(BaseType::String));
        b.input("w", PortType::atom(BaseType::String));
        b.input("c", PortType::list(BaseType::String));
        b.processor("Q")
            .in_port("X", PortType::atom(BaseType::String))
            .out_port("Y", PortType::atom(BaseType::String));
        b.processor("R")
            .in_port("X", PortType::atom(BaseType::String))
            .out_port("Y", PortType::list(BaseType::String));
        b.processor("P")
            .in_port("X1", PortType::atom(BaseType::String))
            .in_port("X2", PortType::list(BaseType::String))
            .in_port("X3", PortType::atom(BaseType::String))
            .out_port("Y", PortType::atom(BaseType::String));
        b.arc_from_input("v", "Q", "X").unwrap();
        b.arc_from_input("w", "R", "X").unwrap();
        b.arc_from_input("c", "P", "X2").unwrap();
        b.arc("Q", "Y", "P", "X1").unwrap();
        b.arc("R", "Y", "P", "X3").unwrap();
        b.output("y", PortType::atom(BaseType::String));
        b.arc_to_output("P", "Y", "y").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn plan_projects_fig3_indices_as_in_the_paper() {
        // lin(⟨P:Y[h,l]⟩, {Q,R}) should plan Q:X at [h] and R:X at [].
        let df = fig3();
        let ip = IndexProj::new(&df);
        let q = LineageQuery::focused(
            PortRef::new("P", "Y"),
            Index::from_slice(&[3, 5]),
            [ProcessorName::from("Q"), ProcessorName::from("R")],
        );
        let plan = ip.plan(&q).unwrap();
        assert_eq!(plan.steps.len(), 2);
        let q_step = plan.steps.iter().find(|s| s.processor.as_str() == "Q").unwrap();
        assert_eq!(q_step.kind, StepKind::XformInput);
        assert_eq!(&*q_step.port, "X");
        assert_eq!(q_step.index, Index::single(3)); // [h]
        let r_step = plan.steps.iter().find(|s| s.processor.as_str() == "R").unwrap();
        assert_eq!(r_step.index, Index::empty()); // R consumed w whole
    }

    #[test]
    fn coarse_query_projects_empty_indices() {
        // lin(⟨P:Y[]⟩, {Q,R}): everything coarse (the paper's second
        // worked example in §2.4).
        let df = fig3();
        let ip = IndexProj::new(&df);
        let q = LineageQuery::focused(
            PortRef::new("P", "Y"),
            Index::empty(),
            [ProcessorName::from("Q"), ProcessorName::from("R")],
        );
        let plan = ip.plan(&q).unwrap();
        assert!(plan.steps.iter().all(|s| s.index.is_empty()));
        assert_eq!(plan.steps.len(), 2);
    }

    #[test]
    fn unfocused_plan_touches_every_processor() {
        let df = fig3();
        let ip = IndexProj::new(&df);
        let q = LineageQuery::unfocused(PortRef::new("wf", "y"), Index::from_slice(&[0, 0]), &df);
        let plan = ip.plan(&q).unwrap();
        // Steps for P (3 ports), Q (1), R (1) and the three workflow inputs.
        let procs: HashSet<&str> = plan.steps.iter().map(|s| s.processor.as_str()).collect();
        assert_eq!(procs, HashSet::from(["P", "Q", "R", "wf"]));
        assert_eq!(plan.steps.len(), 3 + 1 + 1 + 3);
    }

    #[test]
    fn plan_size_is_independent_of_index_values() {
        // Plans for different concrete indices have the same shape — the
        // cost is constant in d (Fig. 9's flat INDEXPROJ lines).
        let df = fig3();
        let ip = IndexProj::new(&df);
        for idx in [[0u32, 0], [7, 9], [100, 100]] {
            let q = LineageQuery::focused(
                PortRef::new("P", "Y"),
                Index::from_slice(&idx),
                [ProcessorName::from("Q")],
            );
            let plan = ip.plan(&q).unwrap();
            assert_eq!(plan.steps.len(), 1);
            assert_eq!(plan.steps[0].index, Index::single(idx[0]));
        }
    }

    #[test]
    fn unknown_target_is_rejected() {
        let df = fig3();
        let ip = IndexProj::new(&df);
        for target in
            [PortRef::new("nope", "Y"), PortRef::new("P", "nope"), PortRef::new("wf", "nope")]
        {
            let q = LineageQuery::focused(target, Index::empty(), []);
            assert!(matches!(ip.plan(&q), Err(CoreError::UnknownTarget { .. })));
        }
    }

    #[test]
    fn querying_a_workflow_input_returns_itself() {
        let df = fig3();
        let ip = IndexProj::new(&df);
        let q = LineageQuery::focused(
            PortRef::new("wf", "v"),
            Index::single(1),
            [ProcessorName::from("wf")],
        );
        let plan = ip.plan(&q).unwrap();
        assert_eq!(plan.steps.len(), 1);
        assert_eq!(plan.steps[0].kind, StepKind::XferSrc);
        assert_eq!(plan.steps[0].index, Index::single(1));
    }

    #[test]
    fn profiled_plan_and_execute_record_phase_spans() {
        let df = fig3();
        let ip = IndexProj::new(&df);
        let q = LineageQuery::focused(
            PortRef::new("P", "Y"),
            Index::from_slice(&[3, 5]),
            [ProcessorName::from("Q"), ProcessorName::from("R")],
        );
        use prov_engine::TraceSink as _;
        let store = TraceStore::in_memory();
        let run = store.begin_run(&ProcessorName::from("wf"));
        let obs = prov_obs::Obs::enabled();
        let plan = ip.plan_with(&q, &obs).unwrap();
        let answer = plan.execute_pinned(&store.pin(run), &obs, &QueryCtx::new("q")).unwrap();
        let spans = obs.profiler.spans();
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count("indexproj.plan"), 1);
        assert_eq!(count("indexproj.assemble"), 1);
        // One t2 span per plan step, even against an empty trace.
        assert_eq!(count("indexproj.step"), answer.trace_queries);
        // The plan span charges t1, the steps charge t2.
        assert!(spans.iter().any(|s| s.name == "indexproj.plan" && s.cat == "t1"));
        assert!(spans.iter().all(|s| s.name != "indexproj.step" || s.cat == "t2"));
    }

    #[test]
    fn index_deeper_than_iteration_falls_back_to_prefix() {
        // A 3-component index on P:Y (total iteration depth 2): the resid-
        // ual component cannot be inverted through the black box; the plan
        // uses the 2-component prefix.
        let df = fig3();
        let ip = IndexProj::new(&df);
        let q = LineageQuery::focused(
            PortRef::new("P", "Y"),
            Index::from_slice(&[1, 2, 7]),
            [ProcessorName::from("Q")],
        );
        let plan = ip.plan(&q).unwrap();
        assert_eq!(plan.steps[0].index, Index::single(1));
    }
}
