//! **prov-verify**: static verification of compiled lineage plans.
//!
//! The paper's headline property — "all of the queries on the traces
//! involve the use of indexes, with none requiring full table scans" — is
//! not a property of a [`LineagePlan`] alone: it holds only when every
//! step's probe lines up with a composite index the store actually
//! maintains, at the depth the engine actually records. This module checks
//! that contract *statically*, before any trace access:
//!
//! * each step is mapped to the composite index it will probe
//!   ([`IndexId::XformIn`] for xform-input lookups, [`IndexId::XferSrc`]
//!   for scope-input lookups) and checked against the store's
//!   [`IndexCatalog`];
//! * each step's probe length is compared with the depth the engine
//!   stores for that port under fine-grained recording
//!   ([`PlanStep::expected_depth`], derived purely from Algorithm 1
//!   depths), classifying the step as a point probe, span scan, clamped
//!   probe or full scan;
//! * findings are reported as [`Diagnostic`]s with stable `1xx` codes
//!   (`E101` unservable index, `E102` plan/spec mismatch, `W101`
//!   uncovered step, `W102` span scan, `W103` clamped probe), reusing
//!   prov-dataflow's rendering machinery so spec lints and plan findings
//!   share one report format.
//!
//! [`IndexProj::explain`] bundles verification with the static cost model
//! ([`crate::CostModel`]) into the [`Explanation`] printed by
//! `tprov explain`; [`IndexProj::plan_checked`] is the pre-flight hook
//! that refuses to hand out a plan with error-level findings.

use std::sync::Arc;

use prov_dataflow::{
    sort_diagnostics, Dataflow, DiagCode, Diagnostic, Location, NodeRef, ProcessorKind,
};
use prov_obs::Obs;
use prov_store::{IndexCatalog, IndexId, PortCardinality, ReadView};

use crate::cost::{CostEstimate, CostModel};
use crate::{CoreError, IndexProj, LineagePlan, LineageQuery, PlanStep, Result, StepKind};

/// How a plan step's probe relates to the rows the engine stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepClass {
    /// The probe is exactly as deep as the stored rows: one key lookup.
    PointProbe,
    /// The probe is shallower than the stored rows (but not empty): the
    /// lookup widens to a contiguous span scan over the probe's subtree.
    SpanScan {
        /// Stored depth minus probe depth.
        missing: usize,
    },
    /// The probe is deeper than the stored rows: the extra components
    /// cannot discriminate and the lookup clamps to stored ancestors.
    ClampedProbe {
        /// Probe depth minus stored depth.
        extra: usize,
    },
    /// The lookup cannot use any index component (empty probe over deep
    /// rows, an unserved index, or an unresolvable step): every row of the
    /// run's `(processor, port)` slice — or the whole table — is read.
    FullScan,
}

impl StepClass {
    /// Stable lowercase label used in text and JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            StepClass::PointProbe => "point-probe",
            StepClass::SpanScan { .. } => "span-scan",
            StepClass::ClampedProbe { .. } => "clamped-probe",
            StepClass::FullScan => "full-scan",
        }
    }
}

impl std::fmt::Display for StepClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One plan step together with the verifier's verdict on it.
#[derive(Debug, Clone)]
pub struct VerifiedStep {
    /// Position in [`LineagePlan::steps`].
    pub step_index: usize,
    /// The composite index the step will probe.
    pub index_id: IndexId,
    /// Access-path classification.
    pub class: StepClass,
    /// Whether the store's catalog serves [`VerifiedStep::index_id`].
    pub served: bool,
    /// Whether the step's processor/port resolve in the specification.
    pub resolved: bool,
}

/// The verifier's full report on one plan.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// One verdict per plan step, in step order.
    pub steps: Vec<VerifiedStep>,
    /// Findings in the stable diagnostic order (errors first, then by
    /// code, location, message).
    pub diagnostics: Vec<Diagnostic>,
}

impl PlanReport {
    /// Number of error-level findings (`E1xx`).
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.is_error()).count()
    }

    /// Whether the store can execute the plan as compiled (no `E1xx`).
    pub fn is_servable(&self) -> bool {
        self.error_count() == 0
    }
}

/// The composite index a step's lookup goes through.
pub fn step_index_id(step: &PlanStep) -> IndexId {
    match step.kind {
        StepKind::XformInput => IndexId::XformIn,
        StepKind::XferSrc => IndexId::XferSrc,
    }
}

/// Checks every step of `plan` against the workflow specification and the
/// store's index catalog. Purely static: no trace data is touched, so the
/// check belongs to the paper's phase *s1* and its cost is independent of
/// trace size.
pub fn verify_plan(df: &Dataflow, plan: &LineagePlan, catalog: &IndexCatalog) -> PlanReport {
    let mut steps = Vec::with_capacity(plan.steps.len());
    let mut diagnostics = Vec::new();
    for (i, step) in plan.steps.iter().enumerate() {
        let id = step_index_id(step);
        let location = step_location(df, step);
        let resolved = resolve_step(df, step);
        let served = catalog.serves(id);
        if !resolved {
            diagnostics.push(Diagnostic {
                code: DiagCode::PlanSpecMismatch,
                location: location.clone(),
                message: format!(
                    "plan step {i} references {}:{}, which the specification does not define",
                    step.processor, step.port
                ),
                help: Some(
                    "the plan was compiled against a different specification; re-plan".into(),
                ),
            });
        }
        if !served {
            diagnostics.push(Diagnostic {
                code: DiagCode::UnservableIndex,
                location: location.clone(),
                message: format!("plan step {i} probes index `{id}`, which the store cannot serve"),
                help: Some(format!("re-plan against a store whose catalog lists `{id}`")),
            });
        }
        let class = if !resolved || !served {
            StepClass::FullScan
        } else {
            classify(step.index.len(), step.expected_depth)
        };
        if resolved && served {
            match class {
                StepClass::PointProbe => {}
                StepClass::FullScan => diagnostics.push(Diagnostic {
                    code: DiagCode::UncoveredStep,
                    location: location.clone(),
                    message: format!(
                        "plan step {i} probes `{id}` with no index components while stored \
                         rows are {} deep; every row of the port slice is read",
                        step.expected_depth
                    ),
                    help: Some("deepen the query index to narrow the lookup".into()),
                }),
                StepClass::SpanScan { missing } => diagnostics.push(Diagnostic {
                    code: DiagCode::SpanScanStep,
                    location: location.clone(),
                    message: format!(
                        "plan step {i} probes `{id}` at depth {} but rows are stored at \
                         depth {}; the lookup widens to a span scan over {missing} level(s)",
                        step.index.len(),
                        step.expected_depth
                    ),
                    help: None,
                }),
                StepClass::ClampedProbe { extra } => diagnostics.push(Diagnostic {
                    code: DiagCode::ClampedProbe,
                    location: location.clone(),
                    message: format!(
                        "plan step {i} probes `{id}` at depth {} but rows are stored at \
                         depth {}; {extra} residual component(s) clamp to ancestors",
                        step.index.len(),
                        step.expected_depth
                    ),
                    help: None,
                }),
            }
        }
        steps.push(VerifiedStep { step_index: i, index_id: id, class, served, resolved });
    }
    sort_diagnostics(&mut diagnostics);
    PlanReport { steps, diagnostics }
}

fn classify(got: usize, expected: usize) -> StepClass {
    use std::cmp::Ordering::*;
    match got.cmp(&expected) {
        Equal => StepClass::PointProbe,
        Less if got == 0 => StepClass::FullScan,
        Less => StepClass::SpanScan { missing: expected - got },
        Greater => StepClass::ClampedProbe { extra: got - expected },
    }
}

/// Whether the step's (scope-qualified) processor and port exist in the
/// specification the verifier was handed.
fn resolve_step(df: &Dataflow, step: &PlanStep) -> bool {
    match step.kind {
        StepKind::XformInput => {
            let mut cur = df;
            let segments: Vec<&str> = step.processor.as_str().split('/').collect();
            let (last, path) = match segments.split_last() {
                Some(v) => v,
                None => return false,
            };
            for seg in path {
                match cur.processor(&(*seg).into()).map(|p| &p.kind) {
                    Some(ProcessorKind::Nested { dataflow }) => cur = dataflow,
                    _ => return false,
                }
            }
            cur.processor(&(*last).into()).is_some_and(|p| p.input(&step.port).is_some())
        }
        StepKind::XferSrc => {
            if step.processor == df.name {
                return df.input(&step.port).is_some();
            }
            let mut cur = df;
            for seg in step.processor.as_str().split('/') {
                match cur.processor(&seg.into()).map(|p| &p.kind) {
                    Some(ProcessorKind::Nested { dataflow }) => cur = dataflow,
                    _ => return false,
                }
            }
            cur.input(&step.port).is_some()
        }
    }
}

/// The diagnostic anchor for a step: the innermost scope path plus the
/// port, matching the locations prov-dataflow's lints produce.
fn step_location(df: &Dataflow, step: &PlanStep) -> Location {
    match step.kind {
        StepKind::XformInput => {
            let segments: Vec<&str> = step.processor.as_str().split('/').collect();
            let (last, path) = segments.split_last().map(|(l, p)| (*l, p)).unwrap_or(("", &[]));
            let mut scope = df.name.to_string();
            for seg in path {
                scope.push('/');
                scope.push_str(seg);
            }
            Location {
                scope,
                node: NodeRef::InputPort {
                    processor: last.to_string(),
                    port: step.port.to_string(),
                },
            }
        }
        StepKind::XferSrc => {
            let scope = if step.processor == df.name {
                df.name.to_string()
            } else {
                format!("{}/{}", df.name, step.processor)
            };
            Location { scope, node: NodeRef::WorkflowInput(step.port.to_string()) }
        }
    }
}

/// Everything `tprov explain` prints about one query: the compiled plan,
/// the verifier's verdicts and the static cost prediction.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The compiled plan.
    pub plan: Arc<LineagePlan>,
    /// Verifier verdicts and diagnostics.
    pub report: PlanReport,
    /// Per-port slice statistics backing the cost estimate, one per step
    /// (`None` for spec-only explanations, where no store is at hand).
    pub cardinalities: Vec<Option<PortCardinality>>,
    /// The static cost prediction.
    pub cost: CostEstimate,
}

impl Explanation {
    /// Whether the store can execute the plan as compiled (no `E1xx`).
    pub fn is_servable(&self) -> bool {
        self.report.is_servable()
    }
}

/// Verifies and costs an already compiled `plan` of `df` — what a request
/// served from a cached plan still owes its journal. With a pinned `view`
/// of a run, each step's cost is grounded in that run's slice
/// cardinalities; without one the estimate is spec-only. Records an
/// `explain.verify` span charging the paper's `t1` account — verification
/// is pure graph work.
pub fn explain_plan(
    df: &Dataflow,
    plan: Arc<LineagePlan>,
    catalog: &IndexCatalog,
    view: Option<&ReadView>,
    obs: &Obs,
) -> Explanation {
    let mut span = obs.span("explain.verify", "t1");
    let report = verify_plan(df, &plan, catalog);
    let slice = |(step, v): (&PlanStep, &VerifiedStep)| {
        Some(view?.port_cardinality(v.index_id, &step.processor, &step.port))
    };
    let cardinalities: Vec<Option<PortCardinality>> =
        plan.steps.iter().zip(&report.steps).map(slice).collect();
    let cost = CostModel::default().estimate(&plan, &report, &cardinalities);
    span.arg("steps", plan.steps.len() as u64);
    span.arg("findings", report.diagnostics.len() as u64);
    span.stop();
    Explanation { plan, report, cardinalities, cost }
}

impl<'a> IndexProj<'a> {
    /// Compiles `query` and verifies the plan against `catalog`, with no
    /// trace statistics: the cost estimate covers index lookups only
    /// (exact) and predicts zero rows. This is the spec-only mode of
    /// `tprov explain`.
    pub fn explain(&self, query: &LineageQuery, catalog: &IndexCatalog) -> Result<Explanation> {
        self.explain_with(query, catalog, None, &Obs::disabled())
    }

    /// The general form: compiles `query`, then [`explain_plan`]. With a
    /// pinned `view` of a live run the row prediction is grounded in that
    /// run's table statistics.
    pub fn explain_with(
        &self,
        query: &LineageQuery,
        catalog: &IndexCatalog,
        view: Option<&ReadView>,
        obs: &Obs,
    ) -> Result<Explanation> {
        let plan = Arc::new(self.plan_with(query, obs)?);
        Ok(explain_plan(self.dataflow(), plan, catalog, view, obs))
    }

    /// Pre-flight planning: compiles `query` and refuses to return the
    /// plan if the verifier finds error-level problems (`E1xx`) against
    /// `catalog`. Warning-level findings are returned alongside the plan.
    pub fn plan_checked(
        &self,
        query: &LineageQuery,
        catalog: &IndexCatalog,
    ) -> Result<(LineagePlan, PlanReport)> {
        let plan = self.plan(query)?;
        let report = verify_plan(self.dataflow(), &plan, catalog);
        if !report.is_servable() {
            return Err(CoreError::PlanRejected {
                findings: report.diagnostics.into_iter().filter(|d| d.is_error()).collect(),
            });
        }
        Ok((plan, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use prov_dataflow::{BaseType, DataflowBuilder, PortType};
    use prov_engine::{BehaviorRegistry, Engine};
    use prov_model::{Index, PortRef, ProcessorName, Value};
    use prov_store::TraceStore;

    use crate::FocusSet;

    /// The paper's Fig. 3 workflow (same as in the planner's tests).
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

    fn codes(report: &PlanReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn exact_query_verifies_as_all_point_probes() {
        let df = fig3();
        let ip = IndexProj::new(&df);
        let q = LineageQuery::focused(
            PortRef::new("P", "Y"),
            Index::from_slice(&[3, 5]),
            [ProcessorName::from("Q"), ProcessorName::from("R")],
        );
        let plan = ip.plan(&q).unwrap();
        let report = verify_plan(&df, &plan, &IndexCatalog::assume_full());
        assert!(report.steps.iter().all(|s| s.class == StepClass::PointProbe));
        assert!(report.diagnostics.is_empty());
        assert!(report.is_servable());
    }

    #[test]
    fn empty_probe_over_deep_rows_is_a_w101_full_scan() {
        // lin(⟨P:Y[]⟩, {Q}): Q:X stores rows one level deep, but the
        // coarse query leaves the probe without index components — the
        // deliberately uncovered lookup of the acceptance fixture.
        let df = fig3();
        let ip = IndexProj::new(&df);
        let q = LineageQuery::focused(
            PortRef::new("P", "Y"),
            Index::empty(),
            [ProcessorName::from("Q")],
        );
        let plan = ip.plan(&q).unwrap();
        assert_eq!(plan.steps[0].expected_depth, 1);
        let report = verify_plan(&df, &plan, &IndexCatalog::assume_full());
        assert_eq!(report.steps[0].class, StepClass::FullScan);
        assert_eq!(codes(&report), vec!["W101"]);
        assert!(report.is_servable(), "W101 is a warning, not an error");
    }

    #[test]
    fn shallow_probe_is_a_w102_span_scan() {
        // Q consumes a depth-2 input through an atom port (mismatch 2), so
        // its rows sit two levels deep; probing with one component scans.
        let mut b = DataflowBuilder::new("wf");
        b.input("vv", PortType::nested(BaseType::String, 2));
        b.processor("Q")
            .in_port("X", PortType::atom(BaseType::String))
            .out_port("Y", PortType::atom(BaseType::String));
        b.arc_from_input("vv", "Q", "X").unwrap();
        b.output("y", PortType::nested(BaseType::String, 2));
        b.arc_to_output("Q", "Y", "y").unwrap();
        let df = b.build().unwrap();
        let ip = IndexProj::new(&df);
        let q = LineageQuery::focused(
            PortRef::new("Q", "Y"),
            Index::single(1),
            [ProcessorName::from("Q")],
        );
        let plan = ip.plan(&q).unwrap();
        assert_eq!(plan.steps[0].expected_depth, 2);
        let report = verify_plan(&df, &plan, &IndexCatalog::assume_full());
        assert_eq!(report.steps[0].class, StepClass::SpanScan { missing: 1 });
        assert_eq!(codes(&report), vec!["W102"]);
    }

    #[test]
    fn deep_probe_is_a_w103_clamped_probe() {
        // lin(⟨wf:v[1,2]⟩): v is a flat list, so xfer rows are one level
        // deep; the second component cannot discriminate.
        let df = fig3();
        let ip = IndexProj::new(&df);
        let q = LineageQuery::focused(
            PortRef::new("wf", "v"),
            Index::from_slice(&[1, 2]),
            [ProcessorName::from("wf")],
        );
        let plan = ip.plan(&q).unwrap();
        assert_eq!(plan.steps[0].expected_depth, 1);
        let report = verify_plan(&df, &plan, &IndexCatalog::assume_full());
        assert_eq!(report.steps[0].class, StepClass::ClampedProbe { extra: 1 });
        assert_eq!(codes(&report), vec!["W103"]);
    }

    #[test]
    fn missing_index_is_an_e101_and_preflight_rejects_the_plan() {
        let df = fig3();
        let ip = IndexProj::new(&df);
        let q = LineageQuery::focused(
            PortRef::new("P", "Y"),
            Index::from_slice(&[3, 5]),
            [ProcessorName::from("Q"), ProcessorName::from("R")],
        );
        let plan = ip.plan(&q).unwrap();
        let catalog = IndexCatalog::assume_full().without(IndexId::XformIn);
        let report = verify_plan(&df, &plan, &catalog);
        assert_eq!(codes(&report), vec!["E101", "E101"]);
        assert!(report.steps.iter().all(|s| s.class == StepClass::FullScan && !s.served));
        assert!(!report.is_servable());
        match ip.plan_checked(&q, &catalog) {
            Err(CoreError::PlanRejected { findings }) => {
                assert!(findings.iter().all(|d| d.code.as_str() == "E101"));
            }
            other => panic!("expected PlanRejected, got {other:?}"),
        }
        // With the full catalog the same query sails through pre-flight.
        assert!(ip.plan_checked(&q, &IndexCatalog::assume_full()).is_ok());
    }

    #[test]
    fn foreign_plan_is_an_e102_spec_mismatch() {
        let df = fig3();
        let plan = LineagePlan {
            steps: vec![PlanStep {
                kind: StepKind::XformInput,
                processor: ProcessorName::from("ZZ"),
                port: Arc::from("X"),
                index: Index::empty(),
                expected_depth: 0,
            }],
            nodes_visited: 0,
        };
        let report = verify_plan(&df, &plan, &IndexCatalog::assume_full());
        assert_eq!(codes(&report), vec!["E102"]);
        assert!(!report.is_servable());
        assert!(!report.steps[0].resolved);
    }

    #[test]
    fn expected_depths_accumulate_through_nested_scopes() {
        let mut inner = DataflowBuilder::new("sub");
        inner.input("a", PortType::atom(BaseType::String));
        inner
            .processor("T")
            .in_port("x", PortType::atom(BaseType::String))
            .out_port("y", PortType::atom(BaseType::String));
        inner.arc_from_input("a", "T", "x").unwrap();
        inner.output("y", PortType::atom(BaseType::String));
        inner.arc_to_output("T", "y", "y").unwrap();

        let mut b = DataflowBuilder::new("wf");
        b.input("v", PortType::list(BaseType::String));
        b.nested("S", Arc::new(inner.build().unwrap()));
        b.arc_from_input("v", "S", "a").unwrap();
        b.output("out", PortType::list(BaseType::String));
        b.arc_to_output("S", "y", "out").unwrap();
        let df = b.build().unwrap();

        let ip = IndexProj::new(&df);
        let q = LineageQuery {
            target: PortRef::new("S", "y"),
            index: Index::single(1),
            focus: FocusSet::from_names([
                ProcessorName::from("S/T"),
                ProcessorName::from("S"),
                ProcessorName::from("wf"),
            ]),
        };
        let plan = ip.plan(&q).unwrap();
        // S iterates once over v, so every stored row inside the scope —
        // T's input binding, the scope-input xfer, and the top-level xfer
        // from v — sits exactly one level deep.
        assert_eq!(plan.steps.len(), 3);
        for step in &plan.steps {
            assert_eq!(step.expected_depth, 1, "step {:?}", step);
        }
        let report = verify_plan(&df, &plan, &IndexCatalog::assume_full());
        assert!(report.steps.iter().all(|s| s.class == StepClass::PointProbe));
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn explain_against_a_live_store_grounds_the_estimate_and_checks_out() {
        let mut b = DataflowBuilder::new("wf");
        b.input("in", PortType::list(BaseType::String));
        b.processor_with_behavior("A", "string_upper")
            .in_port("x", PortType::atom(BaseType::String))
            .out_port("y", PortType::atom(BaseType::String));
        b.arc_from_input("in", "A", "x").unwrap();
        b.output("upper", PortType::list(BaseType::String));
        b.arc_to_output("A", "y", "upper").unwrap();
        let df = b.build().unwrap();
        let store = TraceStore::in_memory();
        let run = Engine::new(BehaviorRegistry::new().with_builtins())
            .execute(&df, vec![("in".into(), Value::from(vec!["a", "b", "c"]))], &store)
            .unwrap()
            .run_id;

        let ip = IndexProj::new(&df);
        let q = LineageQuery::unfocused(PortRef::new("wf", "upper"), Index::single(1), &df);
        let view = store.pin(run);
        let ex =
            ip.explain_with(&q, &store.index_catalog(), Some(&view), &Obs::disabled()).unwrap();
        assert!(ex.is_servable());
        assert!(ex.cost.grounded);

        let before = store.stats().snapshot();
        ex.plan.execute(&store, run).unwrap();
        let delta = store.stats().snapshot().since(before);
        assert_eq!(ex.cost.index_lookups, delta.index_lookups, "lookup model is exact");
        let actual_rows = delta.records_read + delta.rows_scanned;
        let chk = ex.cost.check(delta.index_lookups, actual_rows, 10.0);
        assert!(chk.ok, "{chk:?}");
        assert!(ex.cost.rows_scanned >= actual_rows, "prediction is an upper bound");
    }
}
